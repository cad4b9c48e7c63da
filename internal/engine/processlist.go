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

// DefaultQueryMemory is the per-query memory reservation assumed when a
// submission carries no WithMemoryBudget and the admission config sets no
// default: roughly the working set of a leaf-stage worker pool plus the
// coordinator-side final stage over our benchmark tables.
const DefaultQueryMemory = 64 << 20

// AdmissionConfig bounds concurrent query execution. The zero value is
// fully permissive (every query is admitted immediately), so embedding
// callers and existing tests keep their behavior until they opt in.
type AdmissionConfig struct {
	// MaxConcurrent caps queries executing at once; 0 = unlimited.
	MaxConcurrent int
	// MaxQueued caps queries waiting for a slot once MaxConcurrent (or
	// the memory budget) is saturated; beyond it submissions are shed
	// with ErrOverloaded. 0 sheds as soon as execution is saturated.
	MaxQueued int
	// MemoryBudget caps the sum of admitted queries' memory
	// reservations; 0 = unlimited. A query whose own reservation exceeds
	// the budget is shed outright (waiting cannot help it).
	MemoryBudget int64
	// DefaultQueryMemory is the reservation assumed for submissions
	// without WithMemoryBudget; 0 selects the package default.
	DefaultQueryMemory int64
}

// ProcessList is the engine's live-query registry (the go-mysql-server
// ProcessList shape): every submitted query is visible here from
// admission to completion, with state, progress counters and a kill
// hook, and admission control queues or sheds past the configured
// budgets.
type ProcessList struct {
	eng *Engine

	mu         sync.Mutex
	cfg        AdmissionConfig
	nextID     int64
	all        map[string]*Query // queued + admitted, until finish
	running    map[string]*Query
	waiting    []*Query // priority desc, FIFO within a priority
	memoryUsed int64
	recent     []QueryInfo // ring of the last finished queries
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

// SetAdmission installs the admission budgets. Safe to call between
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
	cfg := pl.cfg
	if q.memory <= 0 {
		q.memory = cfg.DefaultQueryMemory
		if q.memory <= 0 {
			q.memory = DefaultQueryMemory
		}
	}
	if cfg.MemoryBudget > 0 && q.memory > cfg.MemoryBudget {
		m.Counter(telemetry.MetricAdmissionRejected).Inc()
		return overloaded("query reservation %d bytes exceeds engine budget %d", q.memory, cfg.MemoryBudget)
	}
	pl.nextID++
	q.id = "q-" + strconv.FormatInt(pl.nextID, 10)
	if pl.canStartLocked(q) {
		pl.all[q.id] = q
		pl.startLocked(q)
		return nil
	}
	if len(pl.waiting) >= cfg.MaxQueued {
		m.Counter(telemetry.MetricAdmissionRejected).Inc()
		return overloaded("admission queue full (%d running, %d queued)", len(pl.running), len(pl.waiting))
	}
	pl.all[q.id] = q
	// Keep the wait list priority-ordered, FIFO within a priority.
	idx := sort.Search(len(pl.waiting), func(i int) bool {
		return pl.waiting[i].priority < q.priority
	})
	pl.waiting = append(pl.waiting, nil)
	copy(pl.waiting[idx+1:], pl.waiting[idx:])
	pl.waiting[idx] = q
	m.Gauge(telemetry.MetricAdmissionQueued).Add(1)
	return nil
}

// canStartLocked reports whether q fits the budgets right now. A query
// never jumps ahead of an equal-or-higher-priority waiter, so the queue
// drains fairly; a strictly higher priority may overtake.
func (pl *ProcessList) canStartLocked(q *Query) bool {
	cfg := pl.cfg
	if cfg.MaxConcurrent > 0 && len(pl.running) >= cfg.MaxConcurrent {
		return false
	}
	if cfg.MemoryBudget > 0 && pl.memoryUsed+q.memory > cfg.MemoryBudget {
		return false
	}
	if len(pl.waiting) > 0 && pl.waiting[0].priority >= q.priority {
		return false
	}
	return true
}

// startLocked grants q its slot. Caller holds pl.mu.
func (pl *ProcessList) startLocked(q *Query) {
	pl.running[q.id] = q
	pl.memoryUsed += q.memory
	m := pl.eng.Metrics
	m.Gauge(telemetry.MetricQueriesActive).Add(1)
	m.Gauge(telemetry.MetricQueryMemReserved).Add(q.memory)
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
	pl.memoryUsed -= q.memory
	m.Gauge(telemetry.MetricQueriesActive).Add(-1)
	m.Gauge(telemetry.MetricQueryMemReserved).Add(-q.memory)
	for len(pl.waiting) > 0 {
		head := pl.waiting[0]
		cfg := pl.cfg
		if cfg.MaxConcurrent > 0 && len(pl.running) >= cfg.MaxConcurrent {
			break
		}
		if cfg.MemoryBudget > 0 && pl.memoryUsed+head.memory > cfg.MemoryBudget {
			break
		}
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
	fmt.Fprintf(w, "%-8s %-9s %4s %12s %10s %12s %-32s %4s %6s  %s\n",
		"id", "state", "prio", "elapsed", "rows", "bytes", "pushed", "fb", "pruned", "sql")
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
		fmt.Fprintf(w, "%-8s %-9s %4d %11.1fms %10d %12d %-32s %4d %6d  %s\n",
			in.ID, in.State, in.Priority, in.Elapsed, in.Rows, in.BytesMoved,
			pushed, in.FallbackSplits, in.SplitsPruned, status)
	}
}
