package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// The consumers that read through a selection — HashAggregate and Project
// under a Filter or a BloomProbe — against the same operators over the
// page of surviving rows, which is what they were handed before.

// requireSameBuffers fails unless the two pages are the same bytes: kinds,
// null masks (a mask that is absent on one side is absent on the other),
// payloads under NULL slots included, floats by bit pattern.
func requireSameBuffers(t *testing.T, what string, got, want *column.Page) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c, g := range got.Vectors {
		w := want.Vectors[c]
		floatBits := func(v *column.Vector) []uint64 {
			bits := make([]uint64, len(v.Floats))
			for i, f := range v.Floats {
				bits[i] = math.Float64bits(f)
			}
			return bits
		}
		same := g.Kind == w.Kind && (g.Nulls == nil) == (w.Nulls == nil) && slices.Equal(g.Nulls, w.Nulls) &&
			slices.Equal(g.Ints, w.Ints) && slices.Equal(floatBits(g), floatBits(w)) &&
			slices.Equal(g.Strings, w.Strings) && slices.Equal(g.Bools, w.Bools)
		if !same {
			t.Fatalf("%s: column %d (%s) differs:\n got %+v\nwant %+v", what, c, got.Schema.Columns[c].Name, g, w)
		}
	}
}

var selTestSchema = types.NewSchema(
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "s", Type: types.String},
	types.Column{Name: "d", Type: types.Date},
	types.Column{Name: "b", Type: types.Bool},
	types.Column{Name: "ord", Type: types.Int64},
)

// selSources lists, by name, ways to put a selection under an operator:
// each builds the operator chain anew over pages.
func selSources(t *testing.T, pages []*column.Page) map[string]func() Operator {
	t.Helper()
	src := func() Operator { return NewPageSource(selTestSchema, pages) }
	ord := expr.Col(5, "ord", types.Int64)
	mod, err := expr.NewArith(expr.Mod, ord, expr.Lit(types.IntValue(3)))
	if err != nil {
		t.Fatal(err)
	}
	sparse, _ := expr.NewCompare(expr.Ne, mod, expr.Lit(types.IntValue(0)))
	kernel, _ := expr.NewBetween(expr.Col(0, "i", types.Int64), expr.Lit(types.IntValue(-1)), expr.Lit(types.IntValue(2)))
	none, _ := expr.NewCompare(expr.Lt, ord, expr.Lit(types.IntValue(0)))
	all, _ := expr.NewCompare(expr.Ge, ord, expr.Lit(types.IntValue(0)))
	filter := func(in Operator, pred expr.Expr) Operator {
		f, err := NewFilter(in, pred, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	bf := bloom.New(8, 0)
	for _, v := range []int64{-2, 0, 1} {
		bf.AddHash(bloom.HashInt64(v))
	}
	probe := func(in Operator) Operator {
		p, err := NewBloomProbe(in, 0, bf, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]func() Operator{
		"filter":              func() Operator { return filter(src(), sparse) },
		"kernel filter":       func() Operator { return filter(src(), kernel) },
		"filter keeping none": func() Operator { return filter(src(), none) },
		"filter keeping all":  func() Operator { return filter(src(), all) },
		"bloom probe":         func() Operator { return probe(src()) },
		"bloom over filter":   func() Operator { return probe(filter(src(), sparse)) },
		"filter over bloom":   func() Operator { return filter(probe(src()), sparse) },
	}
}

// materialized drains an operator chain through Drain, which copies the
// live rows of each page, and replays those pages.
func materialized(t *testing.T, op Operator) Operator {
	t.Helper()
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return NewPageSource(op.Schema(), pages)
}

func TestHashAggregateThroughSelectionMatchesMaterialized(t *testing.T) {
	rnd := rand.New(rand.NewSource(22))
	pages := randomKeyPages(rnd, selTestSchema, 6, 300, 1, 4096, 17, 700)

	// Every function over every kind it accepts.
	var measures []substrait.Measure
	add := func(fn substrait.AggFunc, arg int) {
		measures = append(measures, substrait.Measure{Func: fn, Arg: arg, Name: fmt.Sprintf("%s_%d", fn, arg)})
	}
	for c, col := range selTestSchema.Columns {
		add(substrait.AggMin, c)
		add(substrait.AggMax, c)
		add(substrait.AggCount, c)
		if col.Type == types.Int64 || col.Type == types.Float64 {
			add(substrait.AggSum, c)
		}
	}
	add(substrait.AggCountStar, -1)

	// Each kind as the only key (NULL keys among them), keys of the word
	// and of the byte layout together, and no key at all.
	keySets := [][]int{{0}, {1}, {2}, {3}, {4}, {0, 3, 4}, {2, 1}, nil}
	for name, build := range selSources(t, pages) {
		for _, keys := range keySets {
			for _, mode := range []AggMode{AggSingle, AggPartial} {
				what := fmt.Sprintf("%s keys=%v mode=%d", name, keys, mode)
				var got, want Meter
				through, err := NewHashAggregate(build(), keys, measures, mode, &got)
				if err != nil {
					t.Fatal(err)
				}
				dense, err := NewHashAggregate(materialized(t, build()), keys, measures, mode, &want)
				if err != nil {
					t.Fatal(err)
				}
				g, err := DrainToPage(through)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				w, err := DrainToPage(dense)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBuffers(t, what, g, w)
				if got != want {
					t.Errorf("%s: meter %+v, over the materialized pages %+v", what, got, want)
				}
			}
		}
	}
}

// scribblingSource is an Operator as hostile as the contract allows: the
// selection it hands out lives in one buffer, and so does the page it
// hands out with it — a copy of the next page, marked Reused — and the
// next call overwrites both before anything else, so a consumer that kept
// a selection, or a lent page's vectors, across a pull reads garbage,
// whether or not the page came with a selection.
type scribblingSource struct {
	pages []*column.Page
	sels  [][]int // nil: every row live
	pos   int
	buf   []int
	lent  *column.Page
}

func (s *scribblingSource) Schema() *types.Schema { return selTestSchema }

func (s *scribblingSource) Next() (*column.Page, []int, error) {
	for i := range s.buf {
		s.buf[i] = 0
	}
	if s.lent != nil {
		for _, v := range s.lent.Vectors {
			v.Scribble()
		}
		s.lent = nil
	}
	if s.pos == len(s.pages) {
		return nil, nil, nil
	}
	page, sel := s.pages[s.pos], s.sels[s.pos]
	s.pos++
	s.lent = page.Slice(0, page.NumRows())
	s.lent.Reused = true
	if sel == nil {
		return s.lent, nil, nil
	}
	s.buf = append(s.buf[:0], sel...)
	return s.lent, s.buf, nil
}

func TestSelectionConsumersDoNotRetainSelections(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	pages := randomKeyPages(rnd, selTestSchema, 6, 50, 50, 50, 50, 50)
	sels := make([][]int, len(pages))
	for p := range pages {
		if p == 2 {
			continue // every row live
		}
		for row := 0; row < pages[p].NumRows(); row++ {
			if rnd.Intn(3) > 0 {
				sels[p] = append(sels[p], row)
			}
		}
	}
	source := func() *scribblingSource { return &scribblingSource{pages: pages, sels: sels} }
	measures := []substrait.Measure{
		{Func: substrait.AggSum, Arg: 1, Name: "sum"},
		{Func: substrait.AggMin, Arg: 2, Name: "min"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "n"},
	}
	keep, _ := expr.NewCompare(expr.Ge, expr.Col(5, "ord", types.Int64), expr.Lit(types.IntValue(20)))
	sum, _ := expr.NewArith(expr.Add, expr.Col(0, "i", types.Int64), expr.Col(5, "ord", types.Int64))
	half, _ := expr.NewArith(expr.Div, expr.Col(1, "f", types.Float64), expr.Lit(types.FloatValue(2)))
	// project lists computed columns (a shared sum among them) beside
	// column references; the operators above it read the computed ones.
	project := func(in Operator) (Operator, error) {
		return NewProject(in, []expr.Expr{sum, expr.Col(2, "s", types.String), half, sum, expr.Col(5, "ord", types.Int64)},
			[]string{"a", "s", "h", "b", "ord"}, nil)
	}
	above := func(next func(Operator) (Operator, error)) func(Operator) (Operator, error) {
		return func(in Operator) (Operator, error) {
			p, err := project(in)
			if err != nil {
				return nil, err
			}
			return next(p)
		}
	}
	bigA, _ := expr.NewCompare(expr.Ge, expr.Col(0, "a", types.Int64), expr.Lit(types.IntValue(30)))
	byA := []SortSpec{{Column: 0, Descending: true}, {Column: 2}, {Column: 4}}
	for name, build := range map[string]func(in Operator) (Operator, error){
		"aggregate": func(in Operator) (Operator, error) {
			return NewHashAggregate(in, []int{0, 2}, measures, AggSingle, nil)
		},
		"project": project,
		"filter":  func(in Operator) (Operator, error) { return NewFilter(in, keep, nil) },
		"project → aggregate": above(func(p Operator) (Operator, error) {
			return NewHashAggregate(p, []int{0, 1}, []substrait.Measure{
				{Func: substrait.AggSum, Arg: 2, Name: "sum"},
				{Func: substrait.AggMax, Arg: 3, Name: "max"},
				{Func: substrait.AggCount, Arg: 2, Name: "n"},
			}, AggPartial, nil)
		}),
		"project → filter": above(func(p Operator) (Operator, error) { return NewFilter(p, bigA, nil) }),
		"project → top-n":  above(func(p Operator) (Operator, error) { return NewTopN(p, byA, 17, nil) }),
		"project → sort":   above(func(p Operator) (Operator, error) { return NewSort(p, byA, nil) }),
	} {
		through, err := build(source())
		if err != nil {
			t.Fatal(err)
		}
		dense, err := build(materialized(t, source()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainToPage(through)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DrainToPage(dense)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBuffers(t, name+" over a source that reuses its buffers", got, want)
	}
}

// TestFilterSelectionValidUntilNextCall pins the other half of the
// contract, the half a consumer may rely on: until it pulls again, the
// selection it holds is the page's survivors.
func TestFilterSelectionValidUntilNextCall(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	pages := randomKeyPages(rnd, selTestSchema, 6, 64, 64, 64)
	pred, _ := expr.NewCompare(expr.Ge, expr.Col(0, "i", types.Int64), expr.Lit(types.IntValue(1)))
	f, err := NewFilter(NewPageSource(selTestSchema, pages), pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		page, sel, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if page == nil {
			break
		}
		want, err := expr.EvalSelection(pred, page)
		if err != nil {
			t.Fatal(err)
		}
		if sel == nil || len(sel) == 0 || !slices.Equal(sel, want) {
			t.Fatalf("selection %v, want %v (never empty, nil only when every row is live)", sel, want)
		}
	}
}

// TestProjectUnderSelectionMatchesPerExpression: Project over a Filter —
// columns gathered once, a repeated subexpression evaluated once — equals
// a one-entry projection per expression over the filter's selection; and a division
// by zero is reported exactly when the row it sits on survives the filter.
func TestProjectUnderSelectionMatchesPerExpression(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	pages := randomKeyPages(rnd, selTestSchema, 6, 200, 4096)
	i, f, ord := expr.Col(0, "i", types.Int64), expr.Col(1, "f", types.Float64), expr.Col(5, "ord", types.Int64)
	arith := func(op expr.ArithOp, l, r expr.Expr) expr.Expr {
		a, err := expr.NewArith(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ten := expr.Lit(types.IntValue(10))
	shared := func() expr.Expr { return arith(expr.Mul, f, arith(expr.Sub, expr.Lit(types.IntValue(1)), i)) }
	quotient := func() expr.Expr { return arith(expr.Div, ten, i) } // i is 0 on some rows
	exprs := []expr.Expr{
		expr.Col(2, "s", types.String), shared(), arith(expr.Add, shared(), ord), ord,
		quotient(), arith(expr.Add, quotient(), ord), expr.Lit(types.StringValue("x")),
	}
	names := []string{"s", "a", "b", "ord", "q", "q1", "x"}

	nonZero, _ := expr.NewCompare(expr.Ne, i, expr.Lit(types.IntValue(0)))
	proj, err := NewProject(filterOf(t, pages, nonZero), exprs, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range pages {
		sel, err := expr.EvalSelection(nonZero, page)
		if err != nil {
			t.Fatal(err)
		}
		want := &column.Page{Schema: proj.Schema(), Vectors: make([]*column.Vector, len(exprs))}
		for c, e := range exprs {
			one, err := expr.NewProjection([]expr.Expr{e}, page.Schema)
			if err != nil {
				t.Fatal(err)
			}
			vecs := make([]*column.Vector, 1)
			if err := one.Eval(vecs, page, sel); err != nil {
				t.Fatal(err)
			}
			want.Vectors[c] = vecs[0].Gather(sel)
		}
		got, gotSel, err := proj.Next()
		if err != nil {
			t.Fatalf("no selected row divides by zero: %v", err)
		}
		requireIdentical(t, "project under a selection", got.Keep(gotSel), want)
	}

	anyRow, _ := expr.NewCompare(expr.Ge, ord, expr.Lit(types.IntValue(0)))
	proj, err = NewProject(filterOf(t, pages, anyRow), exprs, names, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(proj); err == nil {
		t.Error("10 / i over rows where i = 0 is selected must fail")
	}
}

func filterOf(t *testing.T, pages []*column.Page, pred expr.Expr) *Filter {
	t.Helper()
	f, err := NewFilter(NewPageSource(selTestSchema, pages), pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
