package engine

import (
	"context"
	"sync/atomic"
	"time"

	"prestocs/internal/telemetry"
)

// QueryState is a live query's position in its lifecycle.
type QueryState int32

const (
	// StateQueued: admitted to the process list but waiting for an
	// admission slot (MaxConcurrent queries are executing).
	StateQueued QueryState = iota
	// StatePlanning: parse, analyze and optimization stages.
	StatePlanning
	// StateRunning: leaf and final execution stages.
	StateRunning
	// StateDraining: killed while running; workers are unwinding.
	StateDraining
	// StateDone: finished (result or error available).
	StateDone
)

func (s QueryState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StatePlanning:
		return "planning"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateDone:
		return "done"
	default:
		return "unknown"
	}
}

// SubmitOption configures one Submit call.
type SubmitOption func(*submitOpts)

type submitOpts struct {
	session *Session
}

// WithSession attaches a session (nil keeps the default session).
func WithSession(s *Session) SubmitOption {
	return func(o *submitOpts) { o.session = s }
}

// Query is a handle to one submitted query. It is safe for concurrent
// use: Status and Kill may be called from any goroutine while Result
// blocks in another.
type Query struct {
	id      string
	sql     string
	session *Session

	eng    *Engine
	ctx    context.Context
	cancel context.CancelFunc

	state    atomic.Int32
	killed   atomic.Bool
	submit   time.Time
	stats    *QueryStats
	admitted chan struct{} // closed by the process list on admission

	done chan struct{}
	res  *Result
	err  error
}

// ID returns the process-list identifier ("q-<n>").
func (q *Query) ID() string { return q.id }

// State returns the query's current lifecycle state.
func (q *Query) State() QueryState { return QueryState(q.state.Load()) }

func (q *Query) setState(s QueryState) { q.state.Store(int32(s)) }

// Result blocks until the query finishes and returns its outcome.
func (q *Query) Result() (*Result, error) {
	<-q.done
	return q.res, q.err
}

// Done returns a channel closed when the query finishes.
func (q *Query) Done() <-chan struct{} { return q.done }

// Kill cancels the query. A queued query leaves the wait list without
// running; a running query drains: its context is cancelled, which stops
// leaf workers, closes page sources and propagates to storage RPCs.
// Result then reports a context.Canceled error. Idempotent.
func (q *Query) Kill() {
	if !q.killed.CompareAndSwap(false, true) {
		return
	}
	q.state.CompareAndSwap(int32(StateRunning), int32(StateDraining))
	q.cancel()
}

// QueryInfo is a point-in-time snapshot of one query for the process
// list (and its /debug/queries rendering). The finished-query ring of
// these (ProcessList.Recent) is the paper's "pushdown history": Pushed,
// FallbackSplits and SplitsPruned are filled once the query is done.
type QueryInfo struct {
	ID         string    `json:"id"`
	SQL        string    `json:"sql"`
	State      string    `json:"state"`
	Submitted  time.Time `json:"submitted"`
	Elapsed    float64   `json:"elapsed_ms"`
	Rows       int64     `json:"rows"`
	BytesMoved int64     `json:"bytes_moved"`
	Error      string    `json:"error,omitempty"`
	// Pushed lists the operator kinds the connector absorbed.
	Pushed []string `json:"pushed,omitempty"`
	// FallbackSplits counts splits that degraded from pushdown to the
	// raw-scan path: nonzero on a successful query means it succeeded
	// despite pushdown failures.
	FallbackSplits int64 `json:"fallback_splits,omitempty"`
	// SplitsPruned counts splits dropped before scheduling because
	// per-object statistics proved the pushed-down filter false.
	SplitsPruned int64 `json:"splits_pruned,omitempty"`
}

// Status snapshots the query: state, elapsed time and the live rows and
// bytes-moved counters wired from ScanStats while the query runs.
func (q *Query) Status() QueryInfo {
	rows, bytes := q.stats.Scan.LiveCounters()
	info := QueryInfo{
		ID:         q.id,
		SQL:        q.sql,
		State:      q.State().String(),
		Submitted:  q.submit,
		Elapsed:    float64(time.Since(q.submit).Microseconds()) / 1000,
		Rows:       rows,
		BytesMoved: bytes,
	}
	if q.State() == StateDone {
		info.Elapsed = float64(q.stats.Total.Microseconds()) / 1000
		if q.err != nil {
			info.Error = q.err.Error()
		}
		scan := q.stats.Scan.Snapshot()
		info.Pushed = q.stats.PushedDown
		info.FallbackSplits = scan.FallbackSplits
		info.SplitsPruned = scan.SplitsPruned
	}
	return info
}

// run is the query's goroutine: wait for admission, execute, release.
func (q *Query) run() {
	e := q.eng
	pl := e.procs
	waitStart := time.Now()
	select {
	case <-q.admitted:
	case <-q.ctx.Done():
		if pl.abandonQueued(q) {
			q.finish(nil, q.ctx.Err())
			return
		}
		// Lost the race against a concurrent admission: a slot is held,
		// so run the normal path (it fails fast on the dead context) and
		// release the slot properly.
		<-q.admitted
	}
	e.Metrics.Histogram(telemetry.MetricAdmissionWait).ObserveDuration(time.Since(waitStart))
	res, err := e.runQuery(q)
	pl.release(q)
	q.finish(res, err)
}

// finish publishes the outcome and retires the query from the process
// list's live view.
func (q *Query) finish(res *Result, err error) {
	q.res, q.err = res, err
	q.setState(StateDone)
	q.cancel()
	q.eng.procs.noteDone(q)
	close(q.done)
}
