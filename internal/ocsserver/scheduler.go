package ocsserver

import (
	"errors"
	"sync"

	"prestocs/internal/telemetry"
)

// errSchedulerClosed fails scan tasks still pending when the node-wide
// scheduler shuts down, so an abandoned consumer is never left waiting on
// a slot no worker will fill.
var errSchedulerClosed = errors.New("ocsserver: scan scheduler closed")

// scanTask is one row-group scan. run performs the scan and delivers the
// outcome to the task's ordered slot; abort delivers err there instead
// (used when the scheduler shuts down with the task still queued). Each
// task owns exactly one slot, so delivery never blocks.
type scanTask struct {
	run   func()
	abort func(error)
}

// scanScheduler is the node-wide fair-share scan pool (DESIGN.md §7): one
// bounded set of workers round-robining row-group scan tasks across the
// per-query queues registered on it. A heavy scan with hundreds of queued
// row groups gets exactly one task slot per scheduling round, the same as
// a two-row-group selective query — which is what keeps small-query
// latency flat under mixed traffic. Replaces the per-query worker pools
// the scanner spawned before; the vet-concurrency gate keeps it that way.
type scanScheduler struct {
	startOnce sync.Once
	wg        sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queues []*schedQueue // registration order; rr walks it circularly
	rr     int
	closed bool
}

// schedQueue holds one query's (strictly: one scan's) pending tasks in
// FIFO order plus its in-flight count, so close can drop what has not
// started and wait out what has.
type schedQueue struct {
	sched    *scanScheduler
	pending  []scanTask
	inflight int
	closed   bool
	queries  *telemetry.Gauge // active-queries gauge, held for release
}

// newScanScheduler returns a scheduler whose workers start lazily on the
// first register call. Per-query construction in the scan hot path is
// banned by `make vet-concurrency`; a node owns exactly one of these, and
// an in-process execution (open without a scheduler) owns one (annotated).
func newScanScheduler() *scanScheduler {
	s := &scanScheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register adds a query's task queue. The first registration fixes the
// worker count (the node's resolved ScanPool); queries gauges the live
// queue count for /metrics.
func (s *scanScheduler) register(workers int, queries *telemetry.Gauge) *schedQueue {
	s.startOnce.Do(func() {
		if workers < 1 {
			workers = 1
		}
		s.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go s.worker()
		}
	})
	q := &schedQueue{sched: s, queries: queries}
	s.mu.Lock()
	s.queues = append(s.queues, q)
	s.mu.Unlock()
	queries.Add(1)
	return q
}

// worker executes tasks picked fairly across queues until close.
func (s *scanScheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var q *schedQueue
		for !s.closed {
			if q = s.nextLocked(); q != nil {
				break
			}
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		task := q.pending[0]
		q.pending = q.pending[1:]
		q.inflight++
		s.mu.Unlock()
		task.run()
		s.mu.Lock()
		q.inflight--
		if q.inflight == 0 {
			// A closer may be waiting for the in-flight drain.
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// nextLocked picks the next queue with runnable work, round-robin from
// just past the last pick; nil when everything is idle. Caller holds mu.
func (s *scanScheduler) nextLocked() *schedQueue {
	n := len(s.queues)
	for i := 0; i < n; i++ {
		q := s.queues[(s.rr+i)%n]
		if len(q.pending) > 0 {
			s.rr = (s.rr + i + 1) % n
			return q
		}
	}
	return nil
}

// backlog reports the node-wide scan backlog: row-group tasks queued or
// in flight across every registered query, plus one unit per concurrent
// scan beyond the first. The queue-depth term captures bursts within a
// scan; the live-scan term captures multiprogramming pressure that the
// instantaneous queue misses (workers drain tiny row groups faster than
// handlers get rescheduled, so pending+inflight alone reads zero even on
// a contended node). The sum is the storage-load signal stamped onto
// outgoing stream frames (rpc.SetStreamLoad), which the connector's
// adaptive pushdown policy reads on the other side.
func (s *scanScheduler) backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, q := range s.queues {
		total += len(q.pending) + q.inflight
	}
	if overlap := len(s.queues) - 1; overlap > 0 {
		total += overlap
	}
	return total
}

// close stops the workers and fails every still-pending task, so no
// consumer is left blocked on an unfilled slot. Idempotent.
func (s *scanScheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var orphans []scanTask
	for _, q := range s.queues {
		orphans = append(orphans, q.pending...)
		q.pending = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, t := range orphans {
		t.abort(errSchedulerClosed)
	}
	s.wg.Wait()
}

// submit enqueues one task. It reports false — without running or
// aborting the task — when the queue or scheduler is already closed.
func (q *schedQueue) submit(t scanTask) bool {
	s := q.sched
	s.mu.Lock()
	if q.closed || s.closed {
		s.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, t)
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// stopped reports whether the queue has been closed; in-flight tasks
// check it to cut a killed query's wasted scan work short.
func (q *schedQueue) stopped() bool {
	q.sched.mu.Lock()
	defer q.sched.mu.Unlock()
	return q.closed
}

// close retires the queue: pending tasks are dropped (the consumer is
// gone; their count is returned so the caller can settle the queue-depth
// gauge), in-flight tasks are waited out so their stats merges land
// before the env finishes, and the queue leaves the round-robin ring.
func (q *schedQueue) close() int {
	s := q.sched
	s.mu.Lock()
	if q.closed {
		s.mu.Unlock()
		return 0
	}
	q.closed = true
	dropped := len(q.pending)
	q.pending = nil
	for q.inflight > 0 {
		s.cond.Wait()
	}
	for i, other := range s.queues {
		if other == q {
			s.queues = append(s.queues[:i], s.queues[i+1:]...)
			if s.rr > i {
				s.rr--
			}
			break
		}
	}
	if len(s.queues) > 0 {
		s.rr %= len(s.queues)
	} else {
		s.rr = 0
	}
	s.mu.Unlock()
	q.queries.Add(-1)
	return dropped
}
