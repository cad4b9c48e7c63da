package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prestocs/internal/rpc"
	"prestocs/internal/telemetry"
)

// slowEngine returns an engine whose page sources sleep, so queries stay
// observably in flight.
func slowEngine(objects int, delay time.Duration) (*Engine, *memConnector) {
	e, conn := newTestEngine(objects, 20)
	conn.sourceDelay = delay
	return e, conn
}

func TestSubmitHandleLifecycle(t *testing.T) {
	e, _ := newTestEngine(2, 10)
	q, err := e.Submit(context.Background(), "SELECT id FROM t WHERE id < 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(q.ID(), "q-") {
		t.Errorf("id = %q, want q-<n>", q.ID())
	}
	res, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 5 {
		t.Errorf("rows = %d", res.Page.NumRows())
	}
	if st := q.State(); st != StateDone {
		t.Errorf("state = %v, want done", st)
	}
	info := q.Status()
	if info.State != "done" || info.BytesMoved == 0 {
		t.Errorf("status = %+v, want done with bytes moved", info)
	}
	if live := e.Processes().List(); len(live) != 0 {
		t.Errorf("live list after completion = %v", live)
	}
	recent := e.Processes().Recent()
	if len(recent) != 1 || recent[0].ID != q.ID() {
		t.Errorf("recent = %v, want the finished query", recent)
	}
}

// TestProcessListRecentRing: the finished-query history keeps the newest
// recentKeep queries, oldest first, however many have run.
func TestProcessListRecentRing(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	const total = recentKeep + 5
	sql := func(i int) string { return fmt.Sprintf("SELECT id FROM t LIMIT %d", i) }
	for i := 1; i <= total; i++ {
		if _, err := execute(context.Background(), e, sql(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	recent := e.Processes().Recent()
	if len(recent) != recentKeep {
		t.Fatalf("recent holds %d queries, want %d", len(recent), recentKeep)
	}
	for i, r := range recent {
		if want := sql(total - recentKeep + 1 + i); r.SQL != want || r.State != "done" {
			t.Errorf("recent[%d] = %q (%s), want %q (done)", i, r.SQL, r.State, want)
		}
	}
}

func TestAdmissionQueuesThenSheds(t *testing.T) {
	e, _ := slowEngine(4, 30*time.Millisecond)
	e.Metrics = telemetry.NewRegistry()
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueued: 1})

	q1, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until q1 holds the slot so q2 deterministically queues.
	waitState(t, q1, StateQueued, false)
	q2, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if st := q2.State(); st != StateQueued {
		t.Fatalf("q2 state = %v, want queued behind q1", st)
	}
	if g := e.Metrics.GaugeValue(telemetry.MetricAdmissionQueued); g != 1 {
		t.Errorf("queued gauge = %d, want 1", g)
	}
	_, err = e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("third submit err = %v, want ErrOverloaded", err)
	}
	if c := e.Metrics.CounterValue(telemetry.MetricAdmissionRejected); c != 1 {
		t.Errorf("rejected counter = %d, want 1", c)
	}
	for _, q := range []*Query{q1, q2} {
		if _, err := q.Result(); err != nil {
			t.Fatalf("%s: %v", q.ID(), err)
		}
	}
	if g := e.Metrics.GaugeValue(telemetry.MetricAdmissionQueued); g != 0 {
		t.Errorf("queued gauge = %d after drain, want 0", g)
	}
	if g := e.Metrics.GaugeValue(telemetry.MetricQueriesActive); g != 0 {
		t.Errorf("active gauge = %d after drain, want 0", g)
	}
}

func TestKillRunningQueryCancels(t *testing.T) {
	e, _ := slowEngine(16, 20*time.Millisecond)
	q, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, StateQueued, false)
	q.Kill()
	if _, err := q.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("result err = %v, want context.Canceled", err)
	}
	if st := q.State(); st != StateDone {
		t.Errorf("state = %v, want done", st)
	}
}

func TestKillQueuedQueryCancelsWithoutRunning(t *testing.T) {
	e, conn := slowEngine(4, 30*time.Millisecond)
	e.SetAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueued: 4})
	q1, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q1, StateQueued, false)
	before := conn.created.Load()
	q2, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	q2.Kill()
	if _, err := q2.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-kill err = %v, want context.Canceled", err)
	}
	if _, err := q1.Result(); err != nil {
		t.Fatal(err)
	}
	// q2 must never have opened a page source: it died in the queue.
	// (q1's sources are the only growth.)
	if got := conn.created.Load() - before; got > 4 {
		t.Errorf("sources created after queued kill = %d, want q1's 4 only", got)
	}
	if live := e.Processes().List(); len(live) != 0 {
		t.Errorf("live = %v after everything finished", live)
	}
}

func TestProcessListKillUnknownID(t *testing.T) {
	e, _ := newTestEngine(1, 5)
	if err := e.Processes().Kill("q-999"); err == nil {
		t.Fatal("kill of unknown id must error")
	}
}

func TestProcessListHTTP(t *testing.T) {
	e, _ := slowEngine(8, 20*time.Millisecond)
	q, err := e.Submit(context.Background(), "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	pl := e.Processes()

	rec := httptest.NewRecorder()
	pl.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if !strings.Contains(rec.Body.String(), q.ID()) {
		t.Errorf("text listing missing %s:\n%s", q.ID(), rec.Body.String())
	}

	rec = httptest.NewRecorder()
	pl.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?format=json", nil))
	var out struct {
		Live   []QueryInfo `json:"live"`
		Recent []QueryInfo `json:"recent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("json listing: %v", err)
	}
	if len(out.Live) != 1 || out.Live[0].ID != q.ID() {
		t.Errorf("json live = %+v, want %s", out.Live, q.ID())
	}

	// Kill requires POST.
	rec = httptest.NewRecorder()
	pl.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?kill="+q.ID(), nil))
	if rec.Code != 405 {
		t.Errorf("GET kill = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	pl.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/queries?kill="+q.ID(), nil))
	if rec.Code != 200 {
		t.Errorf("POST kill = %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := q.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed query err = %v, want context.Canceled", err)
	}
	rec = httptest.NewRecorder()
	pl.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/queries?kill=q-999", nil))
	if rec.Code != 404 {
		t.Errorf("kill unknown = %d, want 404", rec.Code)
	}
}

// waitState polls until q leaves (or reaches, per want) the given state.
func waitState(t *testing.T, q *Query, s QueryState, want bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if (q.State() == s) == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("query %s stuck in state %v", q.ID(), q.State())
}
