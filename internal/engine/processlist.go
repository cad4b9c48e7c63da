package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prestocs/internal/rpc"
	"prestocs/internal/telemetry"
)

// AdmissionConfig bounds concurrent query execution. The zero value is
// fully permissive (every query is admitted immediately), so embedding
// callers and existing tests keep their behavior until they opt in.
type AdmissionConfig struct {
	// MaxConcurrent caps queries executing at once; 0 = unlimited.
	MaxConcurrent int
	// MaxQueued caps queries waiting for a slot once MaxConcurrent is
	// saturated; beyond it submissions are shed with ErrOverloaded. 0
	// sheds as soon as execution is saturated.
	MaxQueued int
}

// ProcessList is the engine's live-query registry (the go-mysql-server
// ProcessList shape): every submitted query is visible here from
// admission to completion, with state, progress counters and a kill
// hook, and admission control queues or sheds past the configured
// concurrency.
type ProcessList struct {
	eng *Engine

	mu      sync.Mutex
	cfg     AdmissionConfig
	nextID  int64
	all     map[string]*Query // queued + admitted, until finish
	running map[string]*Query
	waiting []*Query    // FIFO
	recent  []QueryInfo // ring of the last finished queries
}

// recentKeep bounds the finished-query ring /debug/queries shows.
const recentKeep = 32

func newProcessList(e *Engine) *ProcessList {
	return &ProcessList{
		eng:     e,
		all:     make(map[string]*Query),
		running: make(map[string]*Query),
	}
}

// SetAdmission installs the admission bounds. Safe to call between
// queries; in-flight admissions are unaffected.
func (pl *ProcessList) SetAdmission(cfg AdmissionConfig) {
	pl.mu.Lock()
	pl.cfg = cfg
	pl.mu.Unlock()
}

// overloaded builds the stable shed error: errors.Is(err,
// rpc.ErrOverloaded) holds locally and across the wire.
func overloaded(format string, args ...any) error {
	return rpc.WithCode(fmt.Errorf("engine: overloaded: "+format, args...), rpc.CodeOverloaded)
}

// admit registers q and either grants it a slot, queues it, or sheds it.
func (pl *ProcessList) admit(q *Query) error {
	m := pl.eng.Metrics
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.nextID++
	q.id = "q-" + strconv.FormatInt(pl.nextID, 10)
	// A query never jumps ahead of a waiter, so the queue drains in
	// arrival order.
	if len(pl.waiting) == 0 && pl.hasSlotLocked() {
		pl.all[q.id] = q
		pl.startLocked(q)
		return nil
	}
	if len(pl.waiting) >= pl.cfg.MaxQueued {
		m.Counter(telemetry.MetricAdmissionRejected).Inc()
		return overloaded("admission queue full (%d running, %d queued)", len(pl.running), len(pl.waiting))
	}
	pl.all[q.id] = q
	pl.waiting = append(pl.waiting, q)
	m.Gauge(telemetry.MetricAdmissionQueued).Add(1)
	return nil
}

// hasSlotLocked reports whether one more query may execute now. Caller
// holds pl.mu.
func (pl *ProcessList) hasSlotLocked() bool {
	return pl.cfg.MaxConcurrent <= 0 || len(pl.running) < pl.cfg.MaxConcurrent
}

// startLocked grants q its slot. Caller holds pl.mu.
func (pl *ProcessList) startLocked(q *Query) {
	pl.running[q.id] = q
	pl.eng.Metrics.Gauge(telemetry.MetricQueriesActive).Add(1)
	close(q.admitted)
}

// release returns q's slot and promotes eligible waiters.
func (pl *ProcessList) release(q *Query) {
	m := pl.eng.Metrics
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, ok := pl.running[q.id]; !ok {
		return
	}
	delete(pl.running, q.id)
	m.Gauge(telemetry.MetricQueriesActive).Add(-1)
	for len(pl.waiting) > 0 && pl.hasSlotLocked() {
		head := pl.waiting[0]
		pl.waiting = pl.waiting[1:]
		m.Gauge(telemetry.MetricAdmissionQueued).Add(-1)
		pl.startLocked(head)
	}
}

// abandonQueued removes a still-waiting query whose context died. It
// reports false when the query was admitted concurrently (the caller
// must then run and release normally).
func (pl *ProcessList) abandonQueued(q *Query) bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i, w := range pl.waiting {
		if w == q {
			pl.waiting = append(pl.waiting[:i], pl.waiting[i+1:]...)
			pl.eng.Metrics.Gauge(telemetry.MetricAdmissionQueued).Add(-1)
			return true
		}
	}
	return false
}

// noteDone retires a finished query from the live view into the recent
// ring.
func (pl *ProcessList) noteDone(q *Query) {
	info := q.Status()
	pl.mu.Lock()
	delete(pl.all, q.id)
	pl.recent = append(pl.recent, info)
	if len(pl.recent) > recentKeep {
		pl.recent = pl.recent[len(pl.recent)-recentKeep:]
	}
	pl.mu.Unlock()
}

// List snapshots every live (queued or executing) query, oldest first.
func (pl *ProcessList) List() []QueryInfo {
	pl.mu.Lock()
	live := make([]*Query, 0, len(pl.all))
	for _, q := range pl.all {
		live = append(live, q)
	}
	pl.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].submit.Before(live[j].submit) })
	infos := make([]QueryInfo, len(live))
	for i, q := range live {
		infos[i] = q.Status()
	}
	return infos
}

// Recent snapshots the finished-query ring, oldest first.
func (pl *ProcessList) Recent() []QueryInfo {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]QueryInfo(nil), pl.recent...)
}

// Kill cancels the identified live query.
func (pl *ProcessList) Kill(id string) error {
	pl.mu.Lock()
	q := pl.all[id]
	pl.mu.Unlock()
	if q == nil {
		return fmt.Errorf("engine: no live query %q", id)
	}
	q.Kill()
	return nil
}

// ServeHTTP renders the process list (text by default, ?format=json) and
// kills queries via POST ?kill=<id> — the /debug/queries endpoint, in the
// same style as /debug/traces.
func (pl *ProcessList) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("kill"); id != "" {
		if r.Method != http.MethodPost {
			http.Error(w, "kill requires POST", http.StatusMethodNotAllowed)
			return
		}
		if err := pl.Kill(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "killed %s\n", id)
		return
	}
	live, recent := pl.List(), pl.Recent()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Live   []QueryInfo `json:"live"`
			Recent []QueryInfo `json:"recent"`
		}{live, recent})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "live queries: %d\n", len(live))
	writeQueryTable(w, live)
	fmt.Fprintf(w, "\nrecently finished: %d\n", len(recent))
	writeQueryTable(w, recent)
}

func writeQueryTable(w http.ResponseWriter, infos []QueryInfo) {
	if len(infos) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s %-9s %12s %10s %12s %-32s %4s %6s  %s\n",
		"id", "state", "elapsed", "rows", "bytes", "pushed", "fb", "pruned", "sql")
	for _, in := range infos {
		sql := in.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		status := sql
		if in.Error != "" {
			status = sql + "  [" + in.Error + "]"
		}
		pushed := "-"
		if len(in.Pushed) > 0 {
			pushed = strings.Join(in.Pushed, "+")
		}
		fmt.Fprintf(w, "%-8s %-9s %11.1fms %10d %12d %-32s %4d %6d  %s\n",
			in.ID, in.State, in.Elapsed, in.Rows, in.BytesMoved,
			pushed, in.FallbackSplits, in.SplitsPruned, status)
	}
}
