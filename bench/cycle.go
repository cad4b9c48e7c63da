package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// suiteSQL is parallel to suiteOps.
var suiteSQL = []string{workload.LaghosQuery, workload.DeepWaterQuery, workload.TPCHQuery, workload.TPCHQ3Query}

// recorder holds everything one phase of a run measured.
type recorder struct {
	// ms holds the wall time of every op, by op name.
	ms map[string][]float64
	// cpuMs is process CPU (user+sys) per cycle, steps 1–4.
	cpuMs []float64
	// unitCPU and unitRTT are the per-cycle calibration samples.
	unitCPU, unitRTT []float64

	attempted int
	failed    int
	firstErr  error

	allocBytes   uint64
	movedBytes   int64
	ingestBytes  int64
	compactBytes int64

	// Per-cycle sums over the four suite queries, from QueryStats.
	planUs, execMs, transferMs []float64
	// Operator work in the cost model's abstract units: engine-side
	// (leaf + final meters) and storage-side, for the suite and for Q3.
	engineUnits, storageUnits     float64
	q3EngineUnits, q3StorageUnits float64

	suiteAnswers, ulpMismatches int
	pointSplits, pointPruned    int64

	gcCycles    uint32
	gcPauseNs   uint64
	peakHeap    uint64
	compactRows int64
}

func newRecorder() *recorder { return &recorder{ms: make(map[string][]float64)} }

func (r *recorder) add(op string, ms float64) { r.ms[op] = append(r.ms[op], ms) }

// cycles is the number of cycles recorded.
func (r *recorder) cycles() int { return len(r.ms[opCycle]) }

// done counts one attempted op and, when err is set, one failed op.
func (r *recorder) done(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", op, err)
		}
	}
}

// cpuTimeMs is the process's user+sys CPU time so far.
func cpuTimeMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cycle runs one closed-loop cycle from the calling goroutine: the four
// suite queries, the point lookups, B commits each followed by a
// freshness check, a compaction after every 16th commit, and then —
// with the cluster idle — the two calibration units.
func (b *bench) cycle(rec *recorder) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTimeMs()
	start := time.Now()

	var plan, exec, transfer float64
	for i, op := range suiteOps {
		res, ms, err := b.query(suiteSQL[i])
		if err == nil {
			err = b.checkSuite(rec, op, res.Page)
		}
		rec.done(op, err)
		if err != nil {
			continue
		}
		rec.add(op, ms)
		st := res.Stats
		scan := st.Scan.Snapshot()
		rec.movedBytes += scan.BytesMoved
		plan += float64((st.ParseAnalyze + st.GlobalOpt + st.ConnectorOpt).Microseconds())
		exec += float64(st.Execution.Nanoseconds()) / 1e6
		transfer += float64(scan.Transfer.Nanoseconds()) / 1e6
		eng := st.LeafMeter.Units + st.FinalMeter.Units
		rec.engineUnits += eng
		rec.storageUnits += scan.StorageWork.CPUUnits
		if op == "q3" {
			rec.q3EngineUnits += eng
			rec.q3StorageUnits += scan.StorageWork.CPUUnits
		}
	}
	rec.planUs = append(rec.planUs, plan)
	rec.execMs = append(rec.execMs, exec)
	rec.transferMs = append(rec.transferMs, transfer)

	for i := 0; i < pointsPer; i++ {
		b.point(rec)
	}
	for i := 0; i < b.wl.commits; i++ {
		b.commit(rec)
		if b.commits%compactEvery == 0 {
			b.compact(rec)
		}
	}

	rec.add(opCycle, msSince(start))
	rec.cpuMs = append(rec.cpuMs, cpuTimeMs()-cpu0)
	runtime.ReadMemStats(&m1)
	rec.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	rec.gcCycles += m1.NumGC - m0.NumGC
	rec.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	if m1.HeapInuse > rec.peakHeap {
		rec.peakHeap = m1.HeapInuse
	}

	cpuMs, rttMs, err := b.cal.sample()
	if err != nil && rec.firstErr == nil {
		rec.firstErr = fmt.Errorf("calibration: %w", err)
	}
	rec.unitCPU = append(rec.unitCPU, cpuMs)
	rec.unitRTT = append(rec.unitRTT, rttMs)
}

// query submits one statement under the workload's pushdown mode and
// waits for it, flushing the node caches first on the cold workloads
// (the flush is not timed).
func (b *bench) query(sql string) (*engine.Result, float64, error) {
	if b.wl.cold {
		b.c.FlushNodeCaches()
	}
	session := engine.NewSession().Set(ocsconn.SessionPushdown, b.wl.pushdown)
	start := time.Now()
	q, err := b.c.Engine.Submit(background, sql, engine.WithSession(session))
	if err != nil {
		return nil, 0, err
	}
	res, err := q.Result()
	ms := msSince(start)
	// A finished query holds no snapshot pin; one that does is a leak
	// that keeps compaction garbage alive.
	if n := b.c.Meta.PinnedCount(); n > b.pinsPeak {
		b.pinsPeak = n
	}
	return res, ms, err
}

func (b *bench) point(rec *recorder) {
	a := b.points.Int63n(b.vertices - pointSpan + 1)
	res, ms, err := b.query(fmt.Sprintf(
		"SELECT vertex_id, e FROM laghos WHERE vertex_id BETWEEN %d AND %d", a, a+pointSpan-1))
	if err == nil {
		err = checkPoint(res.Page, a)
	}
	rec.done(opPoint, err)
	if err != nil {
		return
	}
	rec.add(opPoint, ms)
	pruned := res.Stats.Scan.Snapshot().SplitsPruned
	rec.pointPruned += pruned
	rec.pointSplits += pruned + int64(res.Stats.Splits)
}

func checkPoint(p *column.Page, a int64) error {
	if p.NumRows() != pointRows {
		return fmt.Errorf("point lookup at %d returned %d rows, want %d", a, p.NumRows(), pointRows)
	}
	for _, id := range p.Vectors[0].Ints {
		if id < a || id >= a+pointSpan {
			return fmt.Errorf("point lookup at %d returned vertex %d", a, id)
		}
	}
	return nil
}

// commit appends one pool batch under fresh seq values and flushes it
// (time to queryable), then proves it queryable: the count of rows at
// or above the batch's first seq must be exactly the batch.
func (b *bench) commit(rec *recorder) {
	slot := b.commits % batchPool
	rows := b.batches[slot]
	first := b.nextSeq
	for i := range rows {
		rows[i][0] = types.IntValue(first + int64(i))
	}
	b.nextSeq += batchRows
	b.commits++
	before := b.storedBytes(eventsTable)

	start := time.Now()
	n, err := b.ing.Append(background, harness.CatalogOCS, eventsTable, rows)
	if err == nil {
		err = b.ing.Flush(background, harness.CatalogOCS, eventsTable)
	}
	ms := msSince(start)
	if err == nil && n != batchRows {
		err = fmt.Errorf("ingester accepted %d of %d rows", n, batchRows)
	}
	rec.done(opCommit, err)
	if err != nil {
		return
	}
	rec.add(opCommit, ms)
	rec.ingestBytes += b.storedBytes(eventsTable) - before
	b.eventRaw += b.batchRaw[slot]

	res, ms, err := b.query(fmt.Sprintf("SELECT count(*) AS c FROM %s WHERE seq >= %d", eventsTable, first))
	if err == nil {
		if p := res.Page; p.NumRows() != 1 || p.Vectors[0].Ints[0] != batchRows {
			err = fmt.Errorf("fresh batch at seq %d not fully visible: %s", first, p)
		}
	}
	rec.done(opFresh, err)
	if err == nil {
		rec.add(opFresh, ms)
	}
}

func (b *bench) compact(rec *recorder) {
	start := time.Now()
	res, err := b.comp.RunOnce(background, harness.CatalogOCS, eventsTable)
	ms := msSince(start)
	if err == nil && len(res.Merged) != compactEvery {
		err = fmt.Errorf("compaction merged %d objects, want %d", len(res.Merged), compactEvery)
	}
	rec.done(opCompact, err)
	if err != nil {
		return
	}
	rec.add(opCompact, ms)
	rec.compactBytes += res.OutputBytes
	rec.compactRows += compactEvery * batchRows
}

// storedBytes is the live stored size of one OCS table.
func (b *bench) storedBytes(table string) int64 {
	t, err := b.c.Meta.Get(harness.CatalogOCS, table)
	if err != nil {
		return 0
	}
	return t.TotalBytes
}

// checkSuite is the oracle for a suite query: its first answer in this
// process is golden, and every later answer must match it in row count
// and cell by cell — floats to a relative 1e-9, because the engine folds
// float partials in worker-arrival order and avg/sum wobble in the last
// ULP from run to run (ROADMAP item 1). Wobble inside the tolerance is
// counted, not failed.
func (b *bench) checkSuite(rec *recorder, op string, page *column.Page) error {
	rows := canonical(page)
	want, ok := b.golden[op]
	if !ok {
		b.golden[op] = rows
		return nil
	}
	rec.suiteAnswers++
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, golden answer has %d", len(rows), len(want))
	}
	wobble := false
	for r := range rows {
		for c, got := range rows[r] {
			exp := want[r][c]
			if got.Kind == types.Float64 && !got.Null && !exp.Null {
				if math.Float64bits(got.F) == math.Float64bits(exp.F) {
					continue
				}
				if math.Abs(got.F-exp.F) <= 1e-9*math.Max(math.Abs(got.F), math.Abs(exp.F)) {
					wobble = true
					continue
				}
			} else if got.Null == exp.Null && (got.Null || types.Equal(got, exp)) {
				continue
			}
			return fmt.Errorf("row %d col %d: got %s, golden %s", r, c, got, exp)
		}
	}
	if wobble {
		rec.ulpMismatches++
	}
	return nil
}

// canonical extracts a result's rows ordered by their non-float columns
// (group keys and counts), so an answer whose row order depends on
// which worker finished first still compares equal.
func canonical(p *column.Page) [][]types.Value {
	rows := make([][]types.Value, p.NumRows())
	for i := range rows {
		rows[i] = p.Row(i)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for c, v := range rows[i] {
			if v.Kind == types.Float64 || v.Null || rows[j][c].Null {
				continue
			}
			if cmp := types.Compare(v, rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return rows
}
