package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// q3Config is the shared scale for the two TPC-H Q3 tables. Lineitem and
// orders must be generated at the same Files × RowsPerFile so orderkeys
// align 1:1 (one lineitem row per order).
var q3Config = workload.Config{Files: 3, RowsPerFile: 512, Seed: 41, Codec: compress.None}

func q3Datasets(t *testing.T) (*workload.Dataset, *workload.Dataset) {
	t.Helper()
	line, err := workload.TPCH(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	ords, err := workload.TPCHOrders(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	return line, ords
}

// q3Reference computes the Q3 answer row-at-a-time from the raw parquet
// objects — a hash join the slow, obvious way — and renders it in
// rowMultisetPage form. Because orderkeys are unique on both sides, each
// output group is a single lineitem row and the revenue arithmetic
// (extendedprice × (1 − discount), summed from zero) is bitwise identical
// to the engine's, so the comparison is exact, not approximate.
func q3Reference(t *testing.T, line, ords *workload.Dataset) []string {
	t.Helper()
	cutoff, err := types.DateFromString("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	dates := map[int64]types.Value{} // build side: orders before the cutoff
	for _, o := range readRows(t, ords) {
		if o[oOrderdate].I < cutoff.I {
			dates[o[oOrderkey].I] = o[oOrderdate]
		}
	}
	var groups [][]types.Value // probe side: revenue per matched orderkey
	for _, l := range readRows(t, line) {
		if date, ok := dates[l[lOrderkey].I]; ok {
			groups = append(groups, []types.Value{l[lOrderkey], date, types.FloatValue(l[lExtendedprice].F * (1 - l[lDiscount].F))})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][2].F > groups[j][2].F })
	var out []string
	for _, g := range groups[:min(10, len(groups))] {
		out = append(out, renderRow(g))
	}
	sort.Strings(out)
	return out
}

// lineitem and orders ordinals the join answers read.
const (
	lOrderkey, lQuantity, lExtendedprice, lDiscount, lShipdate = 0, 1, 2, 3, 7
	oOrderkey, oOrderdate, oPriority                           = 0, 1, 2
)

// readRows decodes a dataset row-at-a-time, objects in table order.
func readRows(t *testing.T, d *workload.Dataset) [][]types.Value {
	t.Helper()
	all := make([]int, d.Table.Columns.Len())
	for i := range all {
		all[i] = i
	}
	var rows [][]types.Value
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll(all)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := range p.NumRows() {
				rows = append(rows, p.Row(i))
			}
		}
	}
	return rows
}

// TestJoinQ3DifferentialAcrossModes holds the bloom arm of the Q3-shaped
// lineitem ⋈ orders query to its effect — it visibly cuts the probe rows
// and bytes crossing the compute/storage boundary — and to its metrics.
// That every arm returns the same answer is the query matrix's
// (TestJoinDifferentialAcrossConfigurations).
func TestJoinQ3DifferentialAcrossModes(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	run := func(label string, session *engine.Session) *engine.Result {
		t.Helper()
		c.FlushNodeCaches()
		res, err := execute(context.Background(), c.Engine, workload.TPCHQ3Query, session)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	bloomOn := run("bloom-on", engine.NewSession())
	bloomOff := run("bloom-off", engine.NewSession().Set(engine.SessionJoinBloom, "off"))

	// The bloom arm pushed a filter into every probe split and moved
	// strictly fewer rows and bytes off storage: the date cutoff keeps
	// ≈29% of orders, so ≈71% of probe rows vanish inside the scan.
	onScan := bloomOn.Stats.Scan.Snapshot()
	offScan := bloomOff.Stats.Scan.Snapshot()
	if int(onScan.JoinBloomSplits) != q3Config.Files {
		t.Errorf("bloom splits = %d, want %d", onScan.JoinBloomSplits, q3Config.Files)
	}
	if onScan.JoinBloomRejected != 0 {
		t.Errorf("bloom rejected = %d, want 0", onScan.JoinBloomRejected)
	}
	if onScan.ResultRows >= offScan.ResultRows {
		t.Errorf("bloom-on storage rows = %d, not below bloom-off %d",
			onScan.ResultRows, offScan.ResultRows)
	}
	if onScan.BytesMoved >= offScan.BytesMoved {
		t.Errorf("bloom-on moved %d bytes, not below bloom-off %d",
			onScan.BytesMoved, offScan.BytesMoved)
	}

	// Decisions and storage-side work are on /metrics.
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBloomPushdown); int(n) != q3Config.Files {
		t.Errorf("%s = %d, want %d", telemetry.MetricJoinBloomPushdown, n, q3Config.Files)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricQueryJoins); n != 2 {
		t.Errorf("%s = %d, want 2, one per query", telemetry.MetricQueryJoins, n)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsTested); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsTested)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsFiltered); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsFiltered)
	}
}

// TestJoinHiveMatchesOCS runs the join shapes and Q3 over hive. and over
// ocs. and holds each catalog to its own path — hive.'s bytes come from
// the object store, ocs.'s from the OCS frontend, none from the other —
// so that the query matrix's catalog axis compares two paths, not one
// path twice. Both must give the same rows in the same order.
func TestJoinHiveMatchesOCS(t *testing.T) {
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	const from = "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey "
	shapes := map[string]string{
		"probe conjunct": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10",
		"build conjunct": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE o.orderdate < DATE '1993-01-01'",
		"both conjuncts": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10 AND o.orderdate < DATE '1993-01-01'",
		"q3":             strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o ON l.orderkey = o.orderkey ", from, 1),
	}
	for name, sql := range shapes {
		rows := map[string][]string{}
		for _, catalog := range []string{CatalogOCS, CatalogHive} {
			ocsBefore, objBefore := c.OCSCli.Meter().Received(), c.ObjCli.Meter().Received()
			res, err := execute(context.Background(), c.Engine, fmt.Sprintf(sql, catalog), nil)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, catalog, err)
			}
			if res.Page.NumRows() == 0 {
				t.Fatalf("%s over %s: no rows", name, catalog)
			}
			fromOCS, fromObj := c.OCSCli.Meter().Received()-ocsBefore, c.ObjCli.Meter().Received()-objBefore
			own, other := fromOCS, fromObj
			if catalog == CatalogHive {
				own, other = fromObj, fromOCS
			}
			if own == 0 || other != 0 {
				t.Errorf("%s over %s: %d bytes from the OCS frontend, %d from the object store", name, catalog, fromOCS, fromObj)
			}
			rows[catalog] = orderedRows(res.Page)
		}
		assertRowsEqual(t, name, rows[CatalogHive], rows[CatalogOCS])
	}
}

// TestJoinBloomRejectedFallbackEngineSide caps the storage nodes' bloom
// budget below any real filter: every probe split's pushdown is rejected
// with CodeOverLimit, the connector retries the split without the bloom and
// applies it engine-side, and the answer is still exactly the reference.
func TestJoinBloomRejectedFallbackEngineSide(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true, MaxBloomBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}

	res, err := execute(context.Background(), c.Engine, workload.TPCHQ3Query, engine.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, "bloom-capped", rowMultisetPage(res.Page), q3Reference(t, line, ords))

	scan := res.Stats.Scan.Snapshot()
	if int(scan.JoinBloomRejected) != q3Config.Files {
		t.Errorf("bloom rejected = %d, want %d (every probe split)",
			scan.JoinBloomRejected, q3Config.Files)
	}
	if scan.JoinBloomSplits != 0 {
		t.Errorf("bloom splits = %d, want 0 under an 8-byte cap", scan.JoinBloomSplits)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBloomRejected); int(n) != q3Config.Files {
		t.Errorf("%s = %d, want %d", telemetry.MetricJoinBloomRejected, n, q3Config.Files)
	}
}

// TestJoinBloomProbeKilledMidStream severs a bloom-carrying probe
// pushdown stream after its first page: the connector replays locally,
// and the replayed plan must evaluate the same BloomFilterRel — so the
// delivered sequence equals the unfaulted stream's, row for row, with the
// delivered prefix skipped exactly once.
func TestJoinBloomProbeKilledMidStream(t *testing.T) {
	c, proxy := killableCluster(t)
	// Many small row groups: the stream yields multiple chunks, so the
	// kill lands strictly mid-stream.
	const rowsPerFile = 4096
	d, err := workload.TPCH(workload.Config{Files: 2, RowsPerFile: rowsPerFile, RowGroupSize: 512, Seed: 43, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}

	// A keep-everything filter plus a bloom over the even orderkeys: the
	// stream is long, and only the bloom thins it.
	th, err := c.OCSConn.TableHandle(CatalogOCS, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	h := th.(*ocsconn.Handle)
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "quantity", types.Float64),
		expr.Lit(types.FloatValue(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	h.Push = &ocsconn.Pushdown{Filter: cmp}
	keys := int64(2 * rowsPerFile)
	f := bloom.New(int(keys/2), bloom.DefaultBitsPerKey)
	for k := int64(0); k < keys; k += 2 {
		f.AddHash(bloom.HashInt64(k))
	}
	bloomed, ok := h.WithJoinBloom(0, f, keys/2)
	if !ok {
		t.Fatal("WithJoinBloom declined a filter-only handle")
	}

	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	want, _ := readSplit(t, c, proxy, bloomed.(*ocsconn.Handle), split, false)
	if len(want) >= rowsPerFile {
		t.Fatalf("the bloom kept %d of %d rows; the test needs it to drop some", len(want), rowsPerFile)
	}
	got, fallbacks := readSplit(t, c, proxy, bloomed.(*ocsconn.Handle), split, true)
	requireResumed(t, proxy, got, want, fallbacks)
}

func q3Arms() []struct{ Name, Bloom string } {
	return []struct{ Name, Bloom string }{
		{"bloom-on", ""},
		{"bloom-off", "off"},
	}
}

// BenchmarkJoinBloomSweep is the PR's evaluation sweep: the Q3-shaped
// join with bloom pushdown on and off. bytes-moved and storage-rows are
// the measures that matter — the bloom arm must move strictly fewer probe
// rows off storage. `make bench` archives the numbers in BENCH_PR9.json.
func BenchmarkJoinBloomSweep(b *testing.B) {
	cfg := workload.Config{Files: 2, RowsPerFile: 8192, Seed: 31, Codec: compress.Snappy}
	line, err := workload.TPCH(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ords, err := workload.TPCHOrders(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCluster(b, line, ords)

	for _, arm := range q3Arms() {
		b.Run(arm.Name, func(b *testing.B) {
			var bytesMoved, storageRows, buildRows float64
			for i := 0; i < b.N; i++ {
				session := engine.NewSession()
				if arm.Bloom != "" {
					session.Set(engine.SessionJoinBloom, arm.Bloom)
				}
				cell, err := c.Run(arm.Name, workload.TPCHQ3Query, session)
				if err != nil {
					b.Fatal(err)
				}
				if cell.Rows == 0 {
					b.Fatal("empty result")
				}
				scan := cell.Stats.Scan.Snapshot()
				bytesMoved += float64(cell.BytesMoved)
				storageRows += float64(scan.ResultRows)
				buildRows += float64(cell.Stats.JoinBuildRows)
			}
			n := float64(b.N)
			b.ReportMetric(bytesMoved/n, "bytes-moved/op")
			b.ReportMetric(storageRows/n, "storage-rows/op")
			b.ReportMetric(buildRows/n, "build-rows/op")
		})
	}
}
