package ocs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/types"
)

// policyTable is one object of a million 4-column rows: wide enough that
// the raw path's full-width ingest dominates when the pushed filter is
// selective, and the storage node's weak cores matter when it is not.
func policyTable() *metastore.Table {
	return &metastore.Table{
		Schema: "ocs", Name: "pt",
		Columns: types.NewSchema(
			types.Column{Name: "a", Type: types.Float64},
			types.Column{Name: "b", Type: types.Float64},
			types.Column{Name: "c", Type: types.Float64},
			types.Column{Name: "d", Type: types.Float64},
		),
		Objects:    []string{"pt-0.parquet"},
		RowCount:   1_000_000,
		TotalBytes: 8_000_000,
	}
}

func policyHandle(t *testing.T, threshold float64) *Handle {
	t.Helper()
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(0, "a", types.Float64), expr.Lit(types.FloatValue(threshold)))
	if err != nil {
		t.Fatal(err)
	}
	return &Handle{
		Table: policyTable(),
		Push:  &Pushdown{Filter: cmp, Limit: -1},
	}
}

func TestPolicyDecideTracksSelectivity(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	h := policyHandle(t, 10)
	h.Adaptive = true

	// Selective shape, idle storage: pushdown ships almost nothing.
	p.ObserveSplit(h, 10_000) // 1% survive
	if pushdown, reason := p.decide(h); !pushdown {
		t.Errorf("selective shape on idle storage priced raw (%s)", reason)
	}

	// Non-selective shape: the pushed filter keeps everything, so raw
	// avoids the weak storage cores and the uncompressed wire format.
	for i := 0; i < 20; i++ {
		p.ObserveSplit(h, 1_000_000)
	}
	if pushdown, reason := p.decide(h); pushdown {
		t.Errorf("non-selective shape priced pushdown (%s)", reason)
	}
}

func TestPolicyPlannerPriorUsedWithoutHistory(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	h := policyHandle(t, 10)
	h.Push.EstSelectivity = 0.01
	sel, source := p.selectivity(h)
	if source != "prior" || sel != 0.01 {
		t.Fatalf("selectivity = %v from %q, want planner prior", sel, source)
	}
	p.ObserveSplit(h, 500_000)
	if sel, source := p.selectivity(h); source != "history" || sel != 0.5 {
		t.Fatalf("selectivity = %v from %q, want observed history", sel, source)
	}
}

func TestPredicateShapeErasesLiterals(t *testing.T) {
	a, b := policyHandle(t, 10), policyHandle(t, 90)
	if sa, sb := predicateShape(a), predicateShape(b); sa != sb {
		t.Errorf("literal changed the shape: %q vs %q", sa, sb)
	}
	// A different column is a different shape.
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "b", types.Float64), expr.Lit(types.FloatValue(10)))
	if err != nil {
		t.Fatal(err)
	}
	c := &Handle{Table: policyTable(), Push: &Pushdown{Filter: cmp, Limit: -1}}
	if predicateShape(a) == predicateShape(c) {
		t.Error("different columns mapped to one shape")
	}
}

func TestPolicyShapeHistoryEviction(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	p.maxShapes = 8
	mk := func(i int) *Handle {
		h := policyHandle(t, 10)
		h.Table = policyTable()
		h.Table.Name = fmt.Sprintf("t%d", i)
		return h
	}
	first := mk(0)
	p.ObserveSplit(first, 1000)
	for i := 1; i < 20; i++ {
		p.ObserveSplit(mk(i), 1000)
	}
	if n := p.Shapes(); n != 8 {
		t.Fatalf("retained %d shapes, want 8", n)
	}
	if _, ok := p.ShapeSelectivity(first); ok {
		t.Error("least-recently-touched shape survived eviction")
	}
	if _, ok := p.ShapeSelectivity(mk(19)); !ok {
		t.Error("most-recent shape evicted")
	}
	// Touching a shape must refresh its LRU position.
	tenth := mk(10)
	p.ObserveSplit(tenth, 1000)
	for i := 20; i < 27; i++ {
		p.ObserveSplit(mk(i), 1000)
	}
	if _, ok := p.ShapeSelectivity(tenth); !ok {
		t.Error("recently touched shape evicted before colder ones")
	}
}

func TestPolicyShouldFlipNeedsLoadAndMargin(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	h := policyHandle(t, 10)
	h.Adaptive = true

	// Idle storage: never flip, whatever the stream has delivered.
	if p.ShouldFlip(h, 900_000) {
		t.Error("flipped with idle storage")
	}
	// Back the storage up ~6 deep per scan worker — well past the cutoff,
	// but not so far that repricing stops caring about selectivity.
	load := uint32(6 * costmodel.StorageScanParallelism())
	for i := 0; i < 10; i++ {
		p.ObserveLoad(load)
	}
	if !p.ShouldFlip(h, 900_000) {
		t.Error("did not flip under saturated storage with sel≈1")
	}
	// A selective stream stays pushed even under load: it ships little.
	if p.ShouldFlip(h, 100) {
		t.Error("flipped a selective stream")
	}
	// Static handles and order-breaking pipelines never flip.
	h.Adaptive = false
	if p.ShouldFlip(h, 900_000) {
		t.Error("flipped a static handle")
	}
	h.Adaptive = true
	h.Push.Agg = &AggSpec{Keys: []int{0}}
	if p.ShouldFlip(h, 900_000) {
		t.Error("flipped an order-nondeterministic pipeline")
	}
}

func TestPolicyAdvisePlanPushdown(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	if !p.AdvisePlanPushdown() {
		t.Error("no history must advise pushdown")
	}
	p.QueryCompleted(engine.QueryEvent{})
	p.QueryCompleted(engine.QueryEvent{Err: errors.New("storage fault")})
	p.QueryCompleted(engine.QueryEvent{Err: errors.New("storage fault")})
	if !p.AdvisePlanPushdown() {
		t.Error("under 4 queries must still advise pushdown")
	}
	p.QueryCompleted(engine.QueryEvent{Err: errors.New("storage fault")})
	if p.AdvisePlanPushdown() {
		t.Error("1/4 success rate must advise against pushdown")
	}
	for i := 0; i < 6; i++ {
		p.QueryCompleted(engine.QueryEvent{})
	}
	if !p.AdvisePlanPushdown() {
		t.Error("recovered success rate must re-enable pushdown")
	}
}

// TestPolicyConcurrentObservers races every policy entry point; run
// under -race it proves the shared state is lock-protected.
func TestPolicyConcurrentObservers(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	p.maxShapes = 4
	h := policyHandle(t, 10)
	h.Adaptive = true
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hg := policyHandle(t, 10)
			hg.Table.Name = fmt.Sprintf("t%d", g%5)
			hg.Adaptive = h.Adaptive
			for i := 0; i < 200; i++ {
				p.ObserveLoad(uint32(i % 50))
				p.ObserveSplit(hg, int64(i)*1000)
				p.ObserveFallback(hg)
				p.decide(hg)
				p.ShouldFlip(hg, int64(i)*1000)
				p.QueryCompleted(engine.QueryEvent{})
				p.AdvisePlanPushdown()
			}
		}(g)
	}
	wg.Wait()
	if n := p.Shapes(); n > 4 {
		t.Errorf("retained %d shapes, cap 4", n)
	}
}

// TestPolicyConcurrentQueryCompleted races the listener hook: every
// completion must be counted, successes and failures alike.
func TestPolicyConcurrentQueryCompleted(t *testing.T) {
	p := NewPolicy(costmodel.Default())
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var ev engine.QueryEvent
				if (g+i)%2 == 1 {
					ev.Err = fmt.Errorf("boom %d/%d", g, i)
				}
				p.QueryCompleted(ev)
			}
		}(g)
	}
	wg.Wait()
	p.mu.Lock()
	queries, successes := p.queries, p.successes
	p.mu.Unlock()
	if queries != goroutines*each || successes != goroutines*each/2 {
		t.Errorf("policy saw %d/%d completions, want %d/%d",
			successes, queries, goroutines*each/2, goroutines*each)
	}
}
