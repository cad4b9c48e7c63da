package exec

import (
	"math"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// TestHashAggregateAdversarialKeys is the regression test for the group-key
// collision hazard: the old encoding joined key Strings with "\x00", so the
// two-key tuples ("a\x00b", "c") and ("a", "b\x00c") mapped to the same
// bucket, as did NULL and the literal string "NULL". The length-prefixed
// binary encoding must keep all of them distinct.
func TestHashAggregateAdversarialKeys(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "k1", Type: types.String},
		types.Column{Name: "k2", Type: types.String},
	)
	p := column.NewPage(s)
	rows := [][2]types.Value{
		{types.StringValue("a\x00b"), types.StringValue("c")},
		{types.StringValue("a"), types.StringValue("b\x00c")},
		{types.StringValue("a\x00b\x00c"), types.StringValue("")},
		{types.StringValue(""), types.StringValue("a\x00b\x00c")},
		{types.NullValue(types.String), types.StringValue("x")},
		{types.StringValue("NULL"), types.StringValue("x")},
		{types.StringValue(""), types.StringValue("")},
		{types.NullValue(types.String), types.NullValue(types.String)},
	}
	for _, r := range rows {
		p.AppendRow(r[0], r[1])
	}
	// Append the whole set twice so every group has count exactly 2.
	p.AppendPage(p, nil)

	agg, err := NewHashAggregate(NewPageSource(s, []*column.Page{p}), []int{0, 1},
		[]substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "n"}}, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != len(rows) {
		for i := 0; i < out.NumRows(); i++ {
			t.Logf("group %d: %v", i, out.Row(i))
		}
		t.Fatalf("got %d groups, want %d (adversarial keys collided)", out.NumRows(), len(rows))
	}
	for i := 0; i < out.NumRows(); i++ {
		if n := out.Row(i)[2].I; n != 2 {
			t.Errorf("group %d count = %d, want 2", i, n)
		}
	}
}

// TestHashAggregateNaNKeys: all NaN payloads must land in one group (the
// engine's total float order treats NaN == NaN), even though NaN has many
// bit patterns and never equals itself under IEEE comparison.
func TestHashAggregateNaNKeys(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "f", Type: types.Float64})
	p := column.NewPage(s)
	quietNaN := math.NaN()
	weirdNaN := math.Float64frombits(math.Float64bits(quietNaN) ^ 1) // distinct payload bits
	if !math.IsNaN(weirdNaN) {
		t.Fatal("test bug: weirdNaN is not NaN")
	}
	p.AppendRow(types.FloatValue(quietNaN))
	p.AppendRow(types.FloatValue(weirdNaN))
	p.AppendRow(types.FloatValue(1.0))

	agg, err := NewHashAggregate(NewPageSource(s, []*column.Page{p}), []int{0},
		[]substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "n"}}, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("got %d groups, want 2 (NaN bit patterns split the NaN group)", out.NumRows())
	}
	counts := map[bool]int64{} // isNaN -> count
	for i := 0; i < out.NumRows(); i++ {
		row := out.Row(i)
		counts[math.IsNaN(row[0].F)] = row[1].I
	}
	if counts[true] != 2 || counts[false] != 1 {
		t.Errorf("counts = %v, want NaN:2 other:1", counts)
	}
}

// TestFilterAllPassZeroCopy: when every row survives, Filter must return
// the input page itself, not a copy.
func TestFilterAllPassZeroCopy(t *testing.T) {
	page := makePage([][3]interface{}{{1, 1.0, "a"}, {2, 2.0, "b"}})
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(0)))
	f, err := NewFilter(sourceOf(page), pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, sel, err := f.Next()
	if err != nil {
		t.Fatal(err)
	}
	if out != page || sel != nil {
		t.Error("all-pass filter must return the input page unchanged")
	}
}

// TestChainedFiltersSelection: stacked Filters compose through their
// selections (the middle page is never materialized) and must produce
// the same rows as the equivalent single AND predicate.
func TestChainedFiltersSelection(t *testing.T) {
	page := makePage([][3]interface{}{
		{1, 0.5, "a"}, {2, 1.5, "b"}, {3, 2.5, "c"}, {4, 3.5, "d"}, {nil, 9.5, "e"},
	})
	idGt1, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(1)))
	vLt3, _ := expr.NewCompare(expr.Lt, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(3)))

	f1, err := NewFilter(sourceOf(page), idGt1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFilter(f1, vLt3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, sel, err := f1.Next(); err != nil || got != page || len(sel) != 3 {
		t.Fatalf("a filter hands on its input page under a selection: got %p (input %p), selection %v, %v", got, page, sel, err)
	}
	if f1, err = NewFilter(sourceOf(page), idGt1, nil); err != nil {
		t.Fatal(err)
	}
	if f2, err = NewFilter(f1, vLt3, nil); err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(f2)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Row(0)[0].I != 2 || out.Row(1)[0].I != 3 {
		t.Fatalf("chained filters produced %d rows: %v", out.NumRows(), out)
	}

	// Project over the chained filters evaluates only surviving rows.
	proj, err := NewProject(f2restart(t, page), []expr.Expr{expr.Col(1, "v", types.Float64)}, []string{"v"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pout, err := DrainToPage(proj)
	if err != nil {
		t.Fatal(err)
	}
	if pout.NumRows() != 2 || pout.Row(0)[0].F != 1.5 || pout.Row(1)[0].F != 2.5 {
		t.Fatalf("project over selection = %v", pout)
	}
}

// f2restart rebuilds the two-filter chain (operators are single-use).
func f2restart(t *testing.T, page *column.Page) Operator {
	t.Helper()
	idGt1, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(1)))
	vLt3, _ := expr.NewCompare(expr.Lt, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(3)))
	f1, err := NewFilter(sourceOf(page), idGt1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFilter(f1, vLt3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f2
}

// TestSortNaNAndNullOrder pins the vectorized sort-key comparison on the
// engine's total order: NULLs first, NaN after every real number.
func TestSortNaNAndNullOrder(t *testing.T) {
	page := makePage([][3]interface{}{
		{1, math.NaN(), "a"}, {2, 2.0, "b"}, {3, nil, "c"}, {4, 1.0, "d"},
	})
	srt, err := NewSort(sourceOf(page), []SortSpec{{Column: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(srt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, out.NumRows())
	for i := range ids {
		ids[i] = out.Row(i)[0].I
	}
	// NULL (id 3), 1.0 (id 4), 2.0 (id 2), NaN (id 1).
	want := []int64{3, 4, 2, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sort order = %v, want %v", ids, want)
		}
	}
}
