package ocsserver

import (
	"strconv"

	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// scanSlot is one row group's outcome, delivered to its ordered slot.
type scanSlot struct {
	page *column.Page
	err  error
}

// parallelScan scans the given row groups through the node-wide fair
// scheduler and merges results back in row-group order, so downstream
// operators see the exact page sequence the sequential scanner would
// produce.
//
// Concurrency design:
//   - The scan spawns no goroutines of its own (the vet-concurrency gate
//     enforces this): it registers a task queue on env.sched and submits
//     one task per row group. The scheduler's workers round-robin across
//     all live queues, so this scan competes fairly with every other
//     query on the node instead of owning a private pool.
//   - Each slot channel has capacity 1 and exactly one producer, so a
//     task can always deliver without blocking — abandoning the source
//     mid-stream (leaf Limit) can never wedge a worker.
//   - Submission is lookahead-bounded: min(2 x pool, len(groups)) tasks
//     are outstanding at first and the consumer submits one more per page
//     it consumes, so a slow consumer (or a backpressured stream) does
//     not force the whole object into memory — and does not flood the
//     shared scheduler with row groups it is not ready for.
//   - Every task opens its own parquetlite.Reader over the shared file
//     image (with the already-decoded footer injected, so nothing is
//     re-parsed); readers carry per-instance I/O counters, so sharing one
//     across workers would race. Deltas merge into env.stats per row
//     group, keeping partial stats correct on early stop.
//   - env.close() (run by the LocalStream teardown after the drain)
//     closes the queue: pending tasks are dropped and in-flight ones
//     waited out, bounding wasted work after abandonment to at most the
//     scheduler's worker count.
//
// Reads go through env.readGroup, so chunks land in (and are served
// from) the node's hot-page cache; objKey and twoTouch carry the cache
// key and the admission mode compileRead derived from prune selectivity.
func parallelScan(env *execEnv, data []byte, meta *parquetlite.FileMeta, objKey string, groups, cols []int, twoTouch bool, outSchema *types.Schema) exec.Operator {
	slots := make([]chan scanSlot, len(groups))
	for i := range slots {
		slots[i] = make(chan scanSlot, 1)
	}
	lookahead := 2 * env.scanPool
	if lookahead > len(groups) {
		lookahead = len(groups)
	}

	// Scan observability: queued counts row groups submitted but not yet
	// claimed by a worker, active counts row groups being read right now,
	// scanned is the lifetime row-group total. Gauges are shared across
	// concurrent queries, so all updates are deltas.
	reg := telemetry.RegistryFrom(env.context())
	queued := reg.Gauge(telemetry.MetricScanPoolQueued)
	active := reg.Gauge(telemetry.MetricScanPoolActive)
	scanned := reg.Counter(telemetry.MetricScanPoolRowGroups)

	q := env.sched.register(env.scanPool, reg.Gauge(telemetry.MetricScanSchedQueries))
	projSchema := meta.Schema.Project(cols)

	submit := func(idx int) {
		slot := slots[idx]
		rg := groups[idx]
		task := scanTask{
			run: func() {
				queued.Add(-1)
				if q.stopped() {
					// The query was abandoned or killed; skip the read and
					// still settle the slot so nothing ever dangles.
					slot <- scanSlot{err: errSchedulerClosed}
					return
				}
				r, err := parquetlite.NewReaderWithMeta(data, meta)
				if err != nil {
					// The image parsed once already in compileRead, so this
					// is near-impossible; settle the slot with the error.
					slot <- scanSlot{err: err}
					return
				}
				active.Add(1)
				_, sp := telemetry.StartSpan(env.context(), "scan.rowgroup")
				sp.SetAttr("group", strconv.Itoa(rg))
				page, err := env.readGroup(r, objKey, rg, cols, projSchema, twoTouch)
				sp.End()
				active.Add(-1)
				scanned.Inc()
				slot <- scanSlot{page: page, err: err}
			},
			abort: func(err error) {
				queued.Add(-1)
				slot <- scanSlot{err: err}
			},
		}
		queued.Add(1)
		if !q.submit(task) {
			task.abort(errSchedulerClosed)
		}
	}

	env.closers = append(env.closers, func() {
		// Pending tasks are dropped (their slots stay empty, but the
		// consumer is gone too); in-flight ones are waited out so their
		// stats deltas land before env.finish runs.
		dropped := q.close()
		queued.Add(int64(-dropped))
	})

	submitted := 0
	for submitted < lookahead {
		submit(submitted)
		submitted++
	}
	next := 0
	return exec.NewFuncSource(outSchema, func() (*column.Page, error) {
		if next >= len(groups) {
			return nil, nil
		}
		s := <-slots[next]
		next++
		if s.err != nil {
			return nil, s.err
		}
		// Keep the lookahead window full: one new submission per page
		// consumed replaces the token pool the private-worker design used.
		if submitted < len(groups) {
			submit(submitted)
			submitted++
		}
		return s.page, nil
	})
}
