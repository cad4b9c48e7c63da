package exec

import (
	"errors"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func numSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "g", Type: types.String},
	)
}

func makePage(rows [][3]interface{}) *column.Page {
	p := column.NewPage(numSchema())
	for _, r := range rows {
		var id, v, g types.Value
		if r[0] == nil {
			id = types.NullValue(types.Int64)
		} else {
			id = types.IntValue(int64(r[0].(int)))
		}
		if r[1] == nil {
			v = types.NullValue(types.Float64)
		} else {
			v = types.FloatValue(r[1].(float64))
		}
		if r[2] == nil {
			g = types.NullValue(types.String)
		} else {
			g = types.StringValue(r[2].(string))
		}
		p.AppendRow(id, v, g)
	}
	return p
}

func sourceOf(pages ...*column.Page) *PageSource {
	return NewPageSource(numSchema(), pages)
}

func TestPageSourceAndDrain(t *testing.T) {
	p1 := makePage([][3]interface{}{{1, 1.0, "a"}})
	p2 := makePage([][3]interface{}{{2, 2.0, "b"}, {3, 3.0, "c"}})
	src := sourceOf(p1, p2)
	pages, err := Drain(src)
	if err != nil || len(pages) != 2 {
		t.Fatalf("Drain = %d pages, %v", len(pages), err)
	}
	// Drained source keeps returning nil.
	p, _, err := src.Next()
	if p != nil || err != nil {
		t.Error("exhausted source misbehaves")
	}
	all, err := DrainToPage(sourceOf(p1, p2))
	if err != nil || all.NumRows() != 3 {
		t.Fatalf("DrainToPage = %d rows, %v", all.NumRows(), err)
	}
}

func TestFuncSource(t *testing.T) {
	calls := 0
	src := NewFuncSource(numSchema(), func() (*column.Page, error) {
		calls++
		if calls <= 2 {
			return makePage([][3]interface{}{{calls, float64(calls), "x"}}), nil
		}
		return nil, nil
	})
	pages, err := Drain(src)
	if err != nil || len(pages) != 2 {
		t.Fatalf("FuncSource drained %d pages, %v", len(pages), err)
	}
	errSrc := NewFuncSource(numSchema(), func() (*column.Page, error) {
		return nil, errors.New("io exploded")
	})
	if _, err := Drain(errSrc); err == nil {
		t.Error("error source must propagate")
	}
}

func TestFilter(t *testing.T) {
	page := makePage([][3]interface{}{
		{1, 0.5, "a"}, {2, 1.5, "b"}, {3, 2.5, "c"}, {nil, 3.5, "d"},
	})
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(1)))
	var meter Meter
	f, err := NewFilter(sourceOf(page), pred, &meter)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.Row(0)[0].I != 2 || out.Row(1)[0].I != 3 {
		t.Errorf("filter output wrong: %d rows", out.NumRows())
	}
	if meter.Rows != 4 || meter.Units <= 0 {
		t.Errorf("meter = %+v", meter)
	}
	// All-filtered pages are skipped, not emitted empty.
	pred2, _ := expr.NewCompare(expr.Gt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(99)))
	f2, _ := NewFilter(sourceOf(page, page), pred2, nil)
	pages, err := Drain(f2)
	if err != nil || len(pages) != 0 {
		t.Errorf("all-filtered should drain to zero pages, got %d", len(pages))
	}
	if _, err := NewFilter(sourceOf(page), expr.Col(0, "id", types.Int64), nil); err == nil {
		t.Error("non-bool predicate accepted")
	}
}

func TestProject(t *testing.T) {
	page := makePage([][3]interface{}{{10, 1.5, "a"}, {20, 2.5, "b"}})
	double, _ := expr.NewArith(expr.Mul, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(2)))
	var meter Meter
	p, err := NewProject(sourceOf(page), []expr.Expr{expr.Col(0, "id", types.Int64), double}, []string{"id", "v2"}, &meter)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().String() != "(id BIGINT, v2 DOUBLE)" {
		t.Errorf("schema = %s", p.Schema())
	}
	out, err := DrainToPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[1].F != 3.0 || out.Row(1)[1].F != 5.0 {
		t.Errorf("projected values wrong")
	}
	if meter.Units <= 0 {
		t.Error("project must meter work")
	}
	if _, err := NewProject(sourceOf(page), nil, nil, nil); err == nil {
		t.Error("empty project accepted")
	}
	if _, err := NewProject(sourceOf(page), []expr.Expr{double}, []string{"a", "b"}, nil); err == nil {
		t.Error("name arity mismatch accepted")
	}
}

func TestLimit(t *testing.T) {
	page := makePage([][3]interface{}{{1, 1.0, "a"}, {2, 2.0, "b"}, {3, 3.0, "c"}})
	l := NewLimit(sourceOf(page, page), 4)
	out, err := DrainToPage(l)
	if err != nil || out.NumRows() != 4 {
		t.Errorf("limit output = %d rows, %v", out.NumRows(), err)
	}
	l0 := NewLimit(sourceOf(page), 0)
	out, err = DrainToPage(l0)
	if err != nil || out.NumRows() != 0 {
		t.Errorf("limit 0 = %d rows", out.NumRows())
	}
}

func aggMeasures() []substrait.Measure {
	return []substrait.Measure{
		{Func: substrait.AggSum, Arg: 1, Name: "sum_v"},
		{Func: substrait.AggMin, Arg: 1, Name: "min_v"},
		{Func: substrait.AggMax, Arg: 1, Name: "max_v"},
		{Func: substrait.AggCount, Arg: 1, Name: "cnt_v"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "cnt"},
	}
}

func TestHashAggregateSingle(t *testing.T) {
	page := makePage([][3]interface{}{
		{1, 1.0, "a"}, {2, 2.0, "a"}, {3, nil, "a"},
		{4, 4.0, "b"},
	})
	var meter Meter
	agg, err := NewHashAggregate(sourceOf(page), []int{2}, aggMeasures(), AggSingle, &meter)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// Group "a": sum=3, min=1, max=2, count(v)=2, count(*)=3.
	rowA := out.Row(0)
	if rowA[0].S != "a" || rowA[1].F != 3.0 || rowA[2].F != 1.0 || rowA[3].F != 2.0 || rowA[4].I != 2 || rowA[5].I != 3 {
		t.Errorf("group a = %v", rowA)
	}
	rowB := out.Row(1)
	if rowB[0].S != "b" || rowB[1].F != 4.0 || rowB[5].I != 1 {
		t.Errorf("group b = %v", rowB)
	}
	if meter.Rows != 4 {
		t.Errorf("meter rows = %d", meter.Rows)
	}
}

func TestHashAggregateNoKeys(t *testing.T) {
	page := makePage([][3]interface{}{{1, 1.0, "a"}, {2, 3.0, "b"}})
	agg, err := NewHashAggregate(sourceOf(page), nil, aggMeasures(), AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil || out.NumRows() != 1 {
		t.Fatalf("global agg = %d rows, %v", out.NumRows(), err)
	}
	if out.Row(0)[0].F != 4.0 {
		t.Errorf("sum = %v", out.Row(0)[0])
	}
}

func TestHashAggregateIntSumExact(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "n", Type: types.Int64})
	p := column.NewPage(s)
	// Values that would lose precision in float64.
	big := int64(1) << 60
	p.AppendRow(types.IntValue(big))
	p.AppendRow(types.IntValue(1))
	agg, err := NewHashAggregate(NewPageSource(s, []*column.Page{p}), nil,
		[]substrait.Measure{{Func: substrait.AggSum, Arg: 0, Name: "s"}}, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := DrainToPage(agg)
	if out.Row(0)[0].I != big+1 {
		t.Errorf("int sum = %v, want %d", out.Row(0)[0], big+1)
	}
}

func TestHashAggregatePartialFinalEqualsSingle(t *testing.T) {
	// Split the input into two "splits", run partial aggregation on each,
	// then final aggregation over the union: must equal single-phase.
	p1 := makePage([][3]interface{}{{1, 1.0, "a"}, {2, 2.0, "b"}, {3, nil, "a"}})
	p2 := makePage([][3]interface{}{{4, 4.0, "a"}, {5, 5.0, "c"}, {6, 6.0, "b"}})
	keys := []int{2}
	measures := aggMeasures()

	single, err := NewHashAggregate(sourceOf(p1, p2), keys, measures, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DrainToPage(single)
	if err != nil {
		t.Fatal(err)
	}

	partial1, _ := NewHashAggregate(sourceOf(p1), keys, measures, AggPartial, nil)
	partial2, _ := NewHashAggregate(sourceOf(p2), keys, measures, AggPartial, nil)
	pp1, err := DrainToPage(partial1)
	if err != nil {
		t.Fatal(err)
	}
	pp2, err := DrainToPage(partial2)
	if err != nil {
		t.Fatal(err)
	}
	// Final over the concatenated partials; keys are now ordinal 0,
	// states 1..5.
	finalIn := NewPageSource(partial1.Schema(), []*column.Page{pp1, pp2})
	final, err := NewHashAggregate(finalIn, []int{0}, measures, AggFinal, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DrainToPage(final)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", got.NumRows(), want.NumRows())
	}
	// Compare group-by-group (order may differ between plans).
	wantByKey := map[string][]types.Value{}
	for i := 0; i < want.NumRows(); i++ {
		wantByKey[want.Row(i)[0].S] = want.Row(i)
	}
	for i := 0; i < got.NumRows(); i++ {
		row := got.Row(i)
		w, ok := wantByKey[row[0].S]
		if !ok {
			t.Fatalf("unexpected group %q", row[0].S)
		}
		for c := range row {
			if !types.Equal(row[c], w[c]) {
				t.Errorf("group %q col %d: got %v want %v", row[0].S, c, row[c], w[c])
			}
		}
	}
}

func TestHashAggregateEmptyInput(t *testing.T) {
	agg, err := NewHashAggregate(sourceOf(), []int{2}, aggMeasures(), AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil || out.NumRows() != 0 {
		t.Errorf("empty agg = %d rows", out.NumRows())
	}
	// Global aggregation over empty input yields one row (SQL semantics):
	// count = 0, sum = NULL.
	g, _ := NewHashAggregate(sourceOf(), nil,
		[]substrait.Measure{
			{Func: substrait.AggCountStar, Arg: -1, Name: "c"},
			{Func: substrait.AggSum, Arg: 1, Name: "s"},
		}, AggSingle, nil)
	out, err = DrainToPage(g)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("empty global agg rows = %d, want 1", out.NumRows())
	}
	if out.Row(0)[0].I != 0 || !out.Row(0)[1].Null {
		t.Errorf("default row = %v", out.Row(0))
	}
	// Partial mode emits nothing for empty input.
	pg, _ := NewHashAggregate(sourceOf(), nil,
		[]substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "c"}}, AggPartial, nil)
	out, err = DrainToPage(pg)
	if err != nil || out.NumRows() != 0 {
		t.Errorf("partial empty agg rows = %d", out.NumRows())
	}
}

func TestHashAggregateValidation(t *testing.T) {
	page := makePage(nil)
	if _, err := NewHashAggregate(sourceOf(page), []int{9}, nil, AggSingle, nil); err == nil {
		t.Error("bad key accepted")
	}
	if _, err := NewHashAggregate(sourceOf(page), nil, nil, AggSingle, nil); err == nil {
		t.Error("no outputs accepted")
	}
	if _, err := NewHashAggregate(sourceOf(page), nil,
		[]substrait.Measure{{Func: "median", Arg: 0, Name: "m"}}, AggSingle, nil); err == nil {
		t.Error("bad func accepted")
	}
	if _, err := NewHashAggregate(sourceOf(page), nil,
		[]substrait.Measure{{Func: substrait.AggSum, Arg: 2, Name: "s"}}, AggSingle, nil); err == nil {
		t.Error("sum(varchar) accepted")
	}
}

func TestSort(t *testing.T) {
	page := makePage([][3]interface{}{
		{3, 1.0, "c"}, {1, 3.0, "a"}, {2, 2.0, "b"}, {nil, 0.0, "z"},
	})
	var meter Meter
	s, err := NewSort(sourceOf(page), []SortSpec{{Column: 0}}, &meter)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(s)
	if err != nil {
		t.Fatal(err)
	}
	// NULLs sort first.
	if !out.Row(0)[0].Null || out.Row(1)[0].I != 1 || out.Row(3)[0].I != 3 {
		t.Errorf("sort order wrong: %v %v %v %v", out.Row(0)[0], out.Row(1)[0], out.Row(2)[0], out.Row(3)[0])
	}
	// Descending.
	sd, _ := NewSort(sourceOf(page), []SortSpec{{Column: 0, Descending: true}}, nil)
	out, _ = DrainToPage(sd)
	if out.Row(0)[0].I != 3 || !out.Row(3)[0].Null {
		t.Errorf("descending sort wrong")
	}
	if _, err := NewSort(sourceOf(page), nil, nil); err == nil {
		t.Error("sort without keys accepted")
	}
	if _, err := NewSort(sourceOf(page), []SortSpec{{Column: 7}}, nil); err == nil {
		t.Error("bad sort key accepted")
	}
	if meter.Units <= 0 {
		t.Error("sort must meter")
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	page := makePage([][3]interface{}{
		{1, 2.0, "b"}, {1, 1.0, "a"}, {0, 9.0, "z"},
	})
	s, _ := NewSort(sourceOf(page), []SortSpec{{Column: 0}, {Column: 1}}, nil)
	out, _ := DrainToPage(s)
	if out.Row(0)[2].S != "z" || out.Row(1)[2].S != "a" || out.Row(2)[2].S != "b" {
		t.Errorf("multi-key sort wrong: %v %v %v", out.Row(0)[2], out.Row(1)[2], out.Row(2)[2])
	}
}

func TestTopNEqualsSortLimit(t *testing.T) {
	pages := []*column.Page{
		makePage([][3]interface{}{{5, 5.0, "e"}, {3, 3.0, "c"}, {8, 8.0, "h"}}),
		makePage([][3]interface{}{{1, 1.0, "a"}, {9, 9.0, "i"}, {2, 2.0, "b"}}),
		makePage([][3]interface{}{{7, 7.0, "g"}, {4, 4.0, "d"}, {6, 6.0, "f"}}),
	}
	keys := []SortSpec{{Column: 0}}
	for _, n := range []int64{0, 1, 3, 9, 100} {
		topn, err := NewTopN(NewPageSource(numSchema(), pages), keys, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainToPage(topn)
		if err != nil {
			t.Fatal(err)
		}
		srt, _ := NewSort(NewPageSource(numSchema(), pages), keys, nil)
		want, _ := DrainToPage(NewLimit(srt, n))
		if got.NumRows() != want.NumRows() {
			t.Fatalf("n=%d: rows %d vs %d", n, got.NumRows(), want.NumRows())
		}
		for i := 0; i < got.NumRows(); i++ {
			if !types.Equal(got.Row(i)[0], want.Row(i)[0]) {
				t.Errorf("n=%d row %d: %v vs %v", n, i, got.Row(i)[0], want.Row(i)[0])
			}
		}
	}
}

func TestTopNDescending(t *testing.T) {
	page := makePage([][3]interface{}{{1, 1.0, "a"}, {3, 3.0, "c"}, {2, 2.0, "b"}})
	topn, _ := NewTopN(sourceOf(page), []SortSpec{{Column: 0, Descending: true}}, 2, nil)
	out, _ := DrainToPage(topn)
	if out.NumRows() != 2 || out.Row(0)[0].I != 3 || out.Row(1)[0].I != 2 {
		t.Errorf("desc topN wrong")
	}
	if _, err := NewTopN(sourceOf(page), nil, -1, nil); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := NewTopN(sourceOf(page), []SortSpec{{Column: 42}}, 1, nil); err == nil {
		t.Error("bad key accepted")
	}
}

func TestMeterAdd(t *testing.T) {
	a := Meter{Rows: 2, Units: 3}
	a.Add(Meter{Rows: 5, Units: 7})
	if a.Rows != 7 || a.Units != 10 {
		t.Errorf("meter add = %+v", a)
	}
}
