package ocs

import (
	"math"
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func statsTable() *metastore.Table {
	return &metastore.Table{
		Schema: "ocs", Name: "t",
		Columns: types.NewSchema(
			types.Column{Name: "v", Type: types.Float64},
			types.Column{Name: "g", Type: types.Int64},
		),
		RowCount: 10000,
		ColumnStats: map[string]metastore.ColumnStats{
			"v": {ZoneMap: expr.ZoneMap{Min: types.FloatValue(0), Max: types.FloatValue(100)}, NDV: 5000},
			"g": {ZoneMap: expr.ZoneMap{Min: types.IntValue(0), Max: types.IntValue(99)}, NDV: 100},
		},
	}
}

func analyzerFor(t *testing.T) (*selectivityAnalyzer, *types.Schema) {
	t.Helper()
	return &selectivityAnalyzer{table: statsTable(), mode: Mode{Auto: true}}, statsTable().Columns
}

func TestRangeSelectivityNormalApproximation(t *testing.T) {
	a, schema := analyzerFor(t)
	col := expr.Col(0, "v", types.Float64)
	between := func(lo, hi float64) float64 {
		b, err := expr.NewBetween(col, expr.Lit(types.FloatValue(lo)), expr.Lit(types.FloatValue(hi)))
		if err != nil {
			t.Fatal(err)
		}
		return a.EstimateFilterSelectivity(b, schema)
	}
	// Full range captures (nearly) everything under the 3-sigma model.
	if s := between(0, 100); s < 0.95 || s > 1.0 {
		t.Errorf("full-range selectivity = %v", s)
	}
	// Half range around the mean captures ~50%+ (normal mass concentrates
	// at the center).
	if s := between(50, 100); math.Abs(s-0.5) > 0.03 {
		t.Errorf("upper-half selectivity = %v, want ~0.5", s)
	}
	// A central slice captures more than a tail slice of equal width —
	// the normality assumption's signature (and its §4 skew caveat).
	center := between(40, 60)
	tail := between(0, 20)
	if center <= tail {
		t.Errorf("normal model: center %v should exceed tail %v", center, tail)
	}
	// Empty range.
	if s := between(200, 300); s > 0.01 {
		t.Errorf("out-of-range selectivity = %v", s)
	}
}

func TestComparisonSelectivity(t *testing.T) {
	a, schema := analyzerFor(t)
	col := expr.Col(0, "v", types.Float64)
	lt, _ := expr.NewCompare(expr.Lt, col, expr.Lit(types.FloatValue(50)))
	if s := a.EstimateFilterSelectivity(lt, schema); math.Abs(s-0.5) > 0.03 {
		t.Errorf("v < mean selectivity = %v, want ~0.5", s)
	}
	gt, _ := expr.NewCompare(expr.Gt, col, expr.Lit(types.FloatValue(50)))
	if s := a.EstimateFilterSelectivity(gt, schema); math.Abs(s-0.5) > 0.03 {
		t.Errorf("v > mean selectivity = %v", s)
	}
	// Mirrored literal-first form.
	mirror, _ := expr.NewCompare(expr.Gt, expr.Lit(types.FloatValue(50)), col)
	if s := a.EstimateFilterSelectivity(mirror, schema); math.Abs(s-0.5) > 0.03 {
		t.Errorf("mirrored selectivity = %v", s)
	}
	// Equality uses NDV: 1/100 for g.
	eq, _ := expr.NewCompare(expr.Eq, expr.Col(1, "g", types.Int64), expr.Lit(types.IntValue(7)))
	if s := a.EstimateFilterSelectivity(eq, schema); math.Abs(s-0.01) > 1e-9 {
		t.Errorf("equality selectivity = %v, want 0.01", s)
	}
	ne, _ := expr.NewCompare(expr.Ne, expr.Col(1, "g", types.Int64), expr.Lit(types.IntValue(7)))
	if s := a.EstimateFilterSelectivity(ne, schema); math.Abs(s-0.99) > 1e-9 {
		t.Errorf("inequality selectivity = %v", s)
	}
}

func TestConjunctionMultipliesDisjunctionAdds(t *testing.T) {
	a, schema := analyzerFor(t)
	col := expr.Col(0, "v", types.Float64)
	lt, _ := expr.NewCompare(expr.Lt, col, expr.Lit(types.FloatValue(50)))
	gt, _ := expr.NewCompare(expr.Gt, col, expr.Lit(types.FloatValue(50)))
	and, _ := expr.NewLogic(expr.And, lt, gt)
	if s := a.EstimateFilterSelectivity(and, schema); math.Abs(s-0.25) > 0.03 {
		t.Errorf("AND selectivity = %v, want ~0.25 (independence)", s)
	}
	or, _ := expr.NewLogic(expr.Or, lt, gt)
	if s := a.EstimateFilterSelectivity(or, schema); s < 0.95 {
		t.Errorf("OR selectivity = %v, want ~1", s)
	}
	not, _ := expr.NewNot(lt)
	if s := a.EstimateFilterSelectivity(not, schema); math.Abs(s-0.5) > 0.03 {
		t.Errorf("NOT selectivity = %v", s)
	}
}

func TestUnknownStatsFallBack(t *testing.T) {
	a, schema := analyzerFor(t)
	// Column without a literal comparand, or stats missing → 0.33 default.
	col := expr.Col(0, "v", types.Float64)
	c, _ := expr.NewCompare(expr.Lt, col, expr.Col(0, "v", types.Float64))
	if s := a.EstimateFilterSelectivity(c, schema); s != 0.33 {
		t.Errorf("column-vs-column selectivity = %v, want fallback", s)
	}
}

// TestGroupAndTopNEstimates holds the auto-mode verdicts on an aggregate
// and on the final-stage TopN: judge returns the rows that leave the
// candidate and cuts where the reduction clears the threshold.
func TestGroupAndTopNEstimates(t *testing.T) {
	a, schema := analyzerFor(t)
	const rows = 10000
	agg := func(keys ...int) candidate {
		return candidate{node: &plan.Aggregate{Keys: keys, Step: plan.AggPartial}, input: schema}
	}
	topN := func(count int64) candidate { return candidate{node: &plan.TopN{Count: count}} }
	// 100 groups out of 10000 rows: 99% reduction → push.
	if v, est := a.judge(agg(1), rows); v != cut || est != 100 {
		t.Errorf("aggregation with 100 NDV = (%v, %v), want a cut at 100 rows", v, est)
	}
	// 5000 groups: exactly 50% reduction — the threshold is inclusive.
	if v, _ := a.judge(agg(0), rows); v != cut {
		t.Error("50% reduction should clear the inclusive 0.5 threshold")
	}
	// 5000 × 100 groups, capped at the row count: no reduction — carried,
	// never a stop in auto mode.
	if v, _ := a.judge(agg(0, 1), rows); v != carry {
		t.Errorf("aggregation with no reduction = %v, want carry", v)
	}
	// Fewer rows reaching the aggregate than it has groups: the estimate
	// does not grow.
	if _, est := a.judge(agg(0), 40); est != 40 {
		t.Errorf("aggregate over 40 rows leaves %v rows", est)
	}
	if g := a.EstimateGroups([]int{0, 1}, schema); g != rows {
		t.Errorf("group product must cap at row count: %v", g)
	}
	if v, _ := a.judge(topN(100), 0); v != cut {
		t.Error("top-100 of 10000 should be pushed")
	}
	if v, _ := a.judge(topN(9000), 0); v != carry {
		t.Error("top-9000 of 10000 should not be pushed")
	}
}

func TestBuildSubstraitOutputCols(t *testing.T) {
	tbl := statsTable()
	tbl.Bucket = "b"
	cond, _ := expr.NewCompare(expr.Gt, expr.Col(0, "v", types.Float64), expr.Lit(types.FloatValue(1)))
	h := &Handle{
		Table: tbl,
		Push: &Pushdown{
			Filter:     cond,
			OutputCols: []int{1}, // only g crosses back
		},
	}
	ir, err := BuildSubstrait(h, "obj")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := ir.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if schema.String() != "(g BIGINT)" {
		t.Errorf("narrowed schema = %s", schema)
	}
	// Round-trips through the wire format.
	data, err := substrait.Marshal(ir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := substrait.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if h.ScanSchema().String() != "(g BIGINT)" {
		t.Errorf("handle scan schema = %s", h.ScanSchema())
	}
}
