package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/plan"
	"prestocs/internal/types"
)

// memConnector serves fixed pages split into per-object chunks; no
// pushdown beyond column projection. It lets engine tests run without
// storage servers.
type memConnector struct {
	name    string
	schema  *types.Schema
	objects map[string][]*column.Page
	failOn  string // object name whose page source errors

	sourceDelay time.Duration // simulated per-source open cost
	created     atomic.Int64  // successfully created page sources
	closed      atomic.Int64  // sources released via Close
}

type memHandle struct {
	conn       *memConnector
	projection []int
}

func (h *memHandle) ConnectorName() string { return h.conn.name }
func (h *memHandle) String() string        { return "mem" }
func (h *memHandle) ScanSchema() *types.Schema {
	if h.projection == nil {
		return h.conn.schema
	}
	return h.conn.schema.Project(h.projection)
}
func (h *memHandle) WithProjection(cols []int) plan.TableHandle {
	return &memHandle{conn: h.conn, projection: cols}
}

func (c *memConnector) Name() string { return c.name }
func (c *memConnector) TableHandle(schema, table string) (plan.TableHandle, error) {
	if table != "t" {
		return nil, errors.New("mem: only table t exists")
	}
	return &memHandle{conn: c}, nil
}
func (c *memConnector) SplitsWithStats(handle plan.TableHandle, _ *ScanStats) ([]Split, error) {
	var out []Split
	i := 0
	// Deterministic order.
	for name := range c.objects {
		_ = name
		i++
	}
	for idx := 0; idx < i; idx++ {
		out = append(out, Split{Object: fmt.Sprintf("obj%d", idx), Index: idx})
	}
	return out, nil
}
func (c *memConnector) PlanOptimizer() ConnectorPlanOptimizer { return nil }
func (c *memConnector) CreatePageSources(ctx context.Context, handle plan.TableHandle, splits []Split, stats *ScanStats) ([]exec.Operator, error) {
	return OpenEach(ctx, handle, splits, stats, c.openSplit)
}
func (c *memConnector) openSplit(_ context.Context, handle plan.TableHandle, split Split, stats *ScanStats) (exec.Operator, error) {
	h := handle.(*memHandle)
	if split.Object == c.failOn {
		return nil, errors.New("mem: injected failure")
	}
	if c.sourceDelay > 0 {
		time.Sleep(c.sourceDelay)
	}
	pages := c.objects[split.Object]
	out := make([]*column.Page, len(pages))
	for i, p := range pages {
		if h.projection != nil {
			out[i] = p.Project(h.projection)
		} else {
			out[i] = p
		}
		stats.AddBytesMoved(out[i].ByteSize())
	}
	c.created.Add(1)
	return &closeRecorder{Operator: exec.NewPageSource(h.ScanSchema(), out), closed: &c.closed}, nil
}

// closeRecorder counts Close calls so tests can prove the engine
// releases every source it opens.
type closeRecorder struct {
	exec.Operator
	closed *atomic.Int64
}

func (r *closeRecorder) Close() error {
	r.closed.Add(1)
	return nil
}

func newMemConnector(objects int, rowsPerObject int) *memConnector {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "g", Type: types.String},
	)
	c := &memConnector{name: "mem", schema: schema, objects: map[string][]*column.Page{}}
	n := 0
	for o := 0; o < objects; o++ {
		p := column.NewPage(schema)
		for r := 0; r < rowsPerObject; r++ {
			p.AppendRow(
				types.IntValue(int64(n)),
				types.FloatValue(float64(n)*0.5),
				types.StringValue([]string{"a", "b", "c"}[n%3]),
			)
			n++
		}
		c.objects[fmt.Sprintf("obj%d", o)] = []*column.Page{p}
	}
	return c
}

func newTestEngine(objects, rows int) (*Engine, *memConnector) {
	conn := newMemConnector(objects, rows)
	e := New()
	e.DefaultCatalog = "mem"
	e.Workers = 4
	e.AddConnector(conn)
	return e, conn
}

func TestSimpleProjection(t *testing.T) {
	e, _ := newTestEngine(2, 10)
	res, err := execute(context.Background(), e, "SELECT id, v FROM t WHERE id < 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 5 {
		t.Errorf("rows = %d", res.Page.NumRows())
	}
	if res.Schema.String() != "(id BIGINT, v DOUBLE)" {
		t.Errorf("schema = %s", res.Schema)
	}
	if res.Stats.Splits != 2 {
		t.Errorf("splits = %d", res.Stats.Splits)
	}
	if !strings.Contains(res.Stats.PlanText, "Exchange") {
		t.Errorf("plan missing exchange:\n%s", res.Stats.PlanText)
	}
}

func TestAggregationAcrossSplits(t *testing.T) {
	e, _ := newTestEngine(4, 30) // 120 rows, groups a/b/c 40 each
	res, err := execute(context.Background(), e, "SELECT g, count(*) AS c, sum(v) AS s, avg(v) AS a FROM t GROUP BY g ORDER BY g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 3 {
		t.Fatalf("groups = %d", res.Page.NumRows())
	}
	var totalCount int64
	for i := 0; i < 3; i++ {
		row := res.Page.Row(i)
		totalCount += row[1].I
		// avg * count must equal sum.
		if diff := row[3].F*float64(row[1].I) - row[2].F; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("group %v: avg*count != sum (%v)", row[0], diff)
		}
	}
	if totalCount != 120 {
		t.Errorf("total count = %d", totalCount)
	}
	// Sorted by g ascending.
	if res.Page.Row(0)[0].S != "a" || res.Page.Row(2)[0].S != "c" {
		t.Errorf("order wrong: %v, %v", res.Page.Row(0)[0], res.Page.Row(2)[0])
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	e, _ := newTestEngine(2, 10)
	res, err := execute(context.Background(), e, "SELECT count(*) AS c, sum(v) AS s FROM t WHERE id > 1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 1 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	if res.Page.Row(0)[0].I != 0 || !res.Page.Row(0)[1].Null {
		t.Errorf("default row = %v", res.Page.Row(0))
	}
}

func TestTopNAcrossSplits(t *testing.T) {
	e, _ := newTestEngine(3, 20)
	res, err := execute(context.Background(), e, "SELECT id FROM t ORDER BY id DESC LIMIT 5", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 5 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	for i := 0; i < 5; i++ {
		if res.Page.Row(i)[0].I != int64(59-i) {
			t.Errorf("row %d = %v", i, res.Page.Row(i)[0])
		}
	}
	if !strings.Contains(res.Stats.PlanText, "TopN(PARTIAL)") {
		t.Errorf("plan missing partial topN:\n%s", res.Stats.PlanText)
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	e, _ := newTestEngine(3, 20)
	res, err := execute(context.Background(), e, "SELECT id FROM t LIMIT 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 7 {
		t.Errorf("rows = %d", res.Page.NumRows())
	}
}

func TestExpressionsAndAliases(t *testing.T) {
	e, _ := newTestEngine(1, 10)
	res, err := execute(context.Background(), e, "SELECT id % 3 AS bucket, v * 2 AS dbl FROM t WHERE v >= 1.0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema.Columns[0].Name != "bucket" || res.Schema.Columns[1].Name != "dbl" {
		t.Errorf("schema = %s", res.Schema)
	}
	if res.Page.NumRows() != 8 { // ids 2..9 have v >= 1.0
		t.Errorf("rows = %d", res.Page.NumRows())
	}
}

func TestErrorsPropagate(t *testing.T) {
	e, conn := newTestEngine(3, 5)
	conn.failOn = "obj1"
	if _, err := execute(context.Background(), e, "SELECT id FROM t", nil); err == nil {
		t.Error("injected split failure not propagated")
	}
	conn.failOn = ""
	if _, err := execute(context.Background(), e, "SELECT nope FROM t", nil); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := execute(context.Background(), e, "SELECT id FROM missing_table", nil); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := execute(context.Background(), e, "SELEC id FROM t", nil); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := execute(context.Background(), e, "SELECT id FROM other.t", nil); err == nil {
		t.Error("unknown catalog accepted")
	}
	// Division by zero at runtime.
	if _, err := execute(context.Background(), e, "SELECT id / 0 FROM t", nil); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestSessionProperties(t *testing.T) {
	s := NewSession().Set("a", "1").Set("b", "2")
	if s.Get("a") != "1" || s.Get("b") != "2" || s.Get("zz") != "" {
		t.Error("session props wrong")
	}
}

func TestColumnPruningReachesConnector(t *testing.T) {
	e, _ := newTestEngine(1, 10)
	res, err := execute(context.Background(), e, "SELECT v FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The scan handle should carry a 1-column projection; bytes moved
	// must reflect only the v column (8 bytes * 10 rows).
	moved := res.Stats.Scan.Snapshot().BytesMoved
	if moved != 80 {
		t.Errorf("bytes moved = %d, want 80 (pruned to one column)", moved)
	}
}

func TestConcurrentQueries(t *testing.T) {
	e, _ := newTestEngine(4, 25)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := execute(context.Background(), e, "SELECT g, count(*) AS c FROM t GROUP BY g", nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Page.NumRows() != 3 {
				errs <- fmt.Errorf("groups = %d", res.Page.NumRows())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMinMaxAggregates(t *testing.T) {
	e, _ := newTestEngine(2, 10)
	res, err := execute(context.Background(), e, "SELECT min(id) AS lo, max(id) AS hi, min(g) AS gl FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Page.Row(0)
	if row[0].I != 0 || row[1].I != 19 || row[2].S != "a" {
		t.Errorf("min/max = %v", row)
	}
}

func TestFastFailStopsRemainingSplits(t *testing.T) {
	// One doomed split must stop the whole query quickly: after the first
	// error, workers may finish in-flight splits but must not keep opening
	// page sources for the long tail.
	e, conn := newTestEngine(64, 4)
	conn.failOn = "obj0"
	conn.sourceDelay = 2 * time.Millisecond
	_, err := execute(context.Background(), e, "SELECT sum(v) AS s FROM t", nil)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
	if created := conn.created.Load(); created >= 32 {
		t.Errorf("fast-fail opened %d/63 sources after the failure; workers did not stop", created)
	}
}

func TestEngineClosesEverySource(t *testing.T) {
	// A limit satisfied early abandons sources mid-stream; the engine must
	// still Close every source it created (streams hold connections).
	e, conn := newTestEngine(8, 16)
	res, err := execute(context.Background(), e, "SELECT id FROM t LIMIT 3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 3 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	if created, closed := conn.created.Load(), conn.closed.Load(); created == 0 || created != closed {
		t.Errorf("created %d sources, closed %d", created, closed)
	}

	// And on a failing query too.
	conn.created.Store(0)
	conn.closed.Store(0)
	conn.failOn = "obj3"
	if _, err := execute(context.Background(), e, "SELECT sum(v) AS s FROM t", nil); err == nil {
		t.Fatal("expected injected failure")
	}
	if created, closed := conn.created.Load(), conn.closed.Load(); created != closed {
		t.Errorf("after failure: created %d sources, closed %d", created, closed)
	}
}

// execute submits one query and blocks for its result.
func execute(ctx context.Context, e *Engine, sql string, session *Session) (*Result, error) {
	q, err := e.Submit(ctx, sql, WithSession(session))
	if err != nil {
		return nil, err
	}
	return q.Result()
}
