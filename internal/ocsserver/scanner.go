package ocsserver

import (
	"errors"
	"sync"

	"prestocs/internal/column"
	"prestocs/internal/costmodel"
	"prestocs/internal/exec"
	"prestocs/internal/scan"
	"prestocs/internal/telemetry"
)

// errScanClosed settles the slot of a row group whose scan was closed
// before the group was read.
var errScanClosed = errors.New("ocsserver: scan closed")

// newScanPool returns a scan pool of n slots: a counting semaphore that
// bounds the row-group reads running at once (DESIGN.md §7). n <= 0
// selects the cost-model storage-node core count.
func newScanPool(n int) chan struct{} {
	if n <= 0 {
		n = costmodel.StorageScanParallelism()
	}
	return make(chan struct{}, n)
}

// scanSlot is one row group's outcome, delivered to its ordered slot.
type scanSlot struct {
	page *column.Page
	err  error
}

// parallelScan scans the given row groups through the env's scan pool and
// merges results back in row-group order, so downstream operators see the
// exact page sequence a sequential read would produce.
//
// Concurrency design:
//   - Each row group is one goroutine: it takes a pool slot, reads, frees
//     the slot and fills its ordered slot. The pool is the node's, shared
//     by every scan on it. Go hands a freed slot to the longest-waiting
//     sender, so a scan waits behind at most the lookahead of each other
//     active scan, never behind a whole object.
//   - Each slot channel has capacity 1 and exactly one producer, so a
//     task can always deliver without blocking — abandoning the source
//     mid-stream (leaf Limit) can never wedge a task.
//   - Submission is lookahead-bounded: min(2 x pool, len(groups)) tasks
//     are outstanding at first and the consumer submits one more per page
//     it consumes, so a slow consumer (or a backpressured stream) does
//     not force the whole object into memory — and one heavy scan never
//     queues more than its lookahead for the node's slots.
//   - Every task reads through the one scan.Object, which is safe for
//     concurrent reads and counts its I/O per chunk, keeping partial
//     stats correct on early stop.
//   - env.close() (run by the LocalStream teardown after the drain)
//     closes done and waits for the tasks: a task still waiting for a slot
//     settles with errScanClosed instead of reading, and an in-flight read
//     finishes, so its I/O is counted before env.finish runs.
//
// Reads go through obj, so chunks land in (and are served from) the
// node's hot-page cache.
func parallelScan(env *execEnv, obj *scan.Object) exec.Operator {
	groups := obj.Len()
	slots := make([]chan scanSlot, groups)
	for i := range slots {
		slots[i] = make(chan scanSlot, 1)
	}
	lookahead := min(2*cap(env.pool), groups)

	// Scan observability: queued counts row groups submitted but still
	// waiting for a pool slot, active counts row groups being read right
	// now, scanned is the lifetime row-group total. Gauges are shared
	// across concurrent queries, so all updates are deltas.
	reg := telemetry.RegistryFrom(env.context())
	queued := reg.Gauge(telemetry.MetricScanPoolQueued)
	active := reg.Gauge(telemetry.MetricScanPoolActive)
	scanned := reg.Counter(telemetry.MetricScanPoolRowGroups)

	done := make(chan struct{})
	var tasks sync.WaitGroup
	read := func(idx int) scanSlot {
		select {
		case env.pool <- struct{}{}:
		case <-done:
			queued.Add(-1)
			return scanSlot{err: errScanClosed}
		}
		queued.Add(-1)
		defer func() { <-env.pool }()
		select {
		case <-done:
			// Closed while waiting: the freed slot may have won the select.
			return scanSlot{err: errScanClosed}
		default:
		}
		active.Add(1)
		page, err := readGroup(env, obj, idx)
		active.Add(-1)
		scanned.Inc()
		return scanSlot{page: page, err: err}
	}
	submit := func(idx int) {
		queued.Add(1)
		tasks.Add(1)
		go func() {
			defer tasks.Done()
			slots[idx] <- read(idx)
		}()
	}
	env.closers = append(env.closers, func() {
		close(done)
		tasks.Wait()
	})

	submitted := 0
	for submitted < lookahead {
		submit(submitted)
		submitted++
	}
	next := 0
	return exec.NewFuncSource(obj.Schema(), func() (*column.Page, error) {
		if next >= groups {
			return nil, nil
		}
		s := <-slots[next]
		next++
		if s.err != nil {
			return nil, s.err
		}
		// Keep the lookahead window full: one new submission per page
		// consumed.
		if submitted < groups {
			submit(submitted)
			submitted++
		}
		return s.page, nil
	})
}
