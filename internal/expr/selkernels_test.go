package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// The selection kernels (selkernels.go) against the row-at-a-time
// interpreter: every operator, over every kind and every mix of kinds a
// comparison accepts, against literals from the edges of each kind's
// domain, over columns with NULLs, with NaNs and with one repeated value,
// under a nil, a sparse, an empty and a full selection — the selection
// evalSel returns is, row for row, the rows of the incoming one where the
// interpreter says TRUE.

// selKernelSchema has two columns of every kind (the second for
// column-vs-column), plus one-valued columns without a null mask.
var selKernelSchema = types.NewSchema(
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "i2", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "f2", Type: types.Float64},
	types.Column{Name: "s", Type: types.String},
	types.Column{Name: "s2", Type: types.String},
	types.Column{Name: "b", Type: types.Bool},
	types.Column{Name: "b2", Type: types.Bool},
	types.Column{Name: "d", Type: types.Date},
	types.Column{Name: "d2", Type: types.Date},
	types.Column{Name: "ieq", Type: types.Int64},
	types.Column{Name: "feq", Type: types.Float64},
)

// Integer values keep clear of each other's float64 rounding: Date against
// Int64 compares as floats row-wise and as integers in the kernels, which
// agree wherever distinct integers stay distinct as floats.
var (
	edgeInts    = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 5, 1 << 40}
	edgeFloats  = []float64{-math.MaxFloat64, math.MaxFloat64, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1.5, -2.5, 5}
	edgeStrings = []string{"", "a", "ab", "b", "\x00", "a\x00b", "zz", "\xff\xff"}
)

func edgeValue(r *rand.Rand, k types.Kind, nullOneIn int) types.Value {
	if nullOneIn > 0 && r.Intn(nullOneIn) == 0 {
		return types.NullValue(k)
	}
	switch k {
	case types.Int64:
		return types.IntValue(edgeInts[r.Intn(len(edgeInts))])
	case types.Date:
		return types.DateValue(edgeInts[r.Intn(len(edgeInts))])
	case types.Float64:
		return types.FloatValue(edgeFloats[r.Intn(len(edgeFloats))])
	case types.String:
		return types.StringValue(edgeStrings[r.Intn(len(edgeStrings))])
	default:
		return types.BoolValue(r.Intn(2) == 0)
	}
}

func selKernelPage(r *rand.Rand, rows int) *column.Page {
	p := column.NewPage(selKernelSchema)
	for row := 0; row < rows; row++ {
		vals := make([]types.Value, selKernelSchema.Len())
		for c, col := range selKernelSchema.Columns {
			switch col.Name {
			case "ieq":
				vals[c] = types.IntValue(5)
			case "feq":
				vals[c] = types.FloatValue(1.5)
			default:
				vals[c] = edgeValue(r, col.Type, 6)
			}
		}
		p.AppendRow(vals...)
	}
	return p
}

// edgeLiterals is every literal a column of kind k is compared with: its
// own kind's edges and NULL, and the other numeric kinds' where SQL lets
// them mix.
func edgeLiterals(k types.Kind) []types.Value {
	var out []types.Value
	ints := func(mk func(int64) types.Value) {
		for _, v := range edgeInts {
			out = append(out, mk(v))
		}
	}
	floats := func() {
		for _, v := range edgeFloats {
			out = append(out, types.FloatValue(v))
		}
	}
	switch k {
	case types.Int64, types.Date:
		ints(types.IntValue)
		ints(types.DateValue)
		floats()
	case types.Float64:
		floats()
		ints(types.IntValue)
	case types.String:
		for _, v := range edgeStrings {
			out = append(out, types.StringValue(v))
		}
	case types.Bool:
		out = append(out, types.BoolValue(false), types.BoolValue(true))
	}
	return append(out, types.NullValue(k))
}

// selKernelPredicates is the whole grid of simple predicates over the
// test page: Compare both ways round against every literal, Compare of
// every pair of columns that may be compared, Between over every pair of
// bounds (which covers reversed and equal ones).
func selKernelPredicates(t *testing.T) []Expr {
	t.Helper()
	var preds []Expr
	cols := selKernelSchema.Columns
	for c, col := range cols {
		ref := Col(c, col.Name, col.Type)
		lits := edgeLiterals(col.Type)
		for op := Eq; op <= Ge; op++ {
			for _, v := range lits {
				preds = append(preds, mustCmp(t, op, ref, Lit(v)), mustCmp(t, op, Lit(v), ref))
			}
			for c2, col2 := range cols {
				if other := Col(c2, col2.Name, col2.Type); c2 != c {
					if cmp, err := NewCompare(op, ref, other); err == nil {
						preds = append(preds, cmp)
					}
				}
			}
		}
		if col.Type == types.Bool {
			continue // BETWEEN over booleans does not parse
		}
		for _, lo := range lits {
			for _, hi := range lits {
				bt, err := NewBetween(ref, Lit(lo), Lit(hi))
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, bt)
			}
		}
	}
	return preds
}

func testSelections(rows int) map[string][]int {
	full := make([]int, rows)
	var sparse []int
	for i := range full {
		full[i] = i
		if i%3 == 1 {
			sparse = append(sparse, i)
		}
	}
	return map[string][]int{"nil": nil, "sparse": sparse, "empty": {}, "full": full}
}

// checkSelection holds evalSel's answer for e under sel to the
// interpreter's, and holds it to the selection contract: never nil, the
// incoming selection untouched, and the same answer when it is written
// into a caller's buffer.
func checkSelection(t *testing.T, e Expr, page *column.Page, name string, sel []int) {
	t.Helper()
	want := []int{}
	rows := sel
	if sel == nil {
		rows = testSelections(page.NumRows())["full"]
	}
	for _, row := range rows {
		v, err := evalRow(e, page, row)
		if err != nil {
			t.Fatalf("evalRow(%s, row %d): %v", e, row, err)
		}
		if !v.Null && v.B {
			want = append(want, row)
		}
	}
	before := slices.Clone(sel)
	got, err := EvalSelectionOver(e, page, sel)
	if err != nil {
		t.Fatalf("EvalSelectionOver(%s) under %s selection: %v", e, name, err)
	}
	if got == nil {
		t.Fatalf("EvalSelectionOver(%s) under %s selection is nil, which means every row; want %v", e, name, want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("EvalSelectionOver(%s) under %s selection = %v, row-wise %v", e, name, got, want)
	}
	buf := make([]int, page.NumRows())
	into, err := EvalSelectionInto(e, page, sel, buf)
	if err != nil {
		t.Fatal(err)
	}
	if into == nil || !slices.Equal(into, want) {
		t.Fatalf("EvalSelectionInto(%s) under %s selection = %v, row-wise %v", e, name, into, want)
	}
	if !slices.Equal(sel, before) {
		t.Fatalf("EvalSelectionOver(%s) wrote to the %s selection it was given: %v, was %v", e, name, sel, before)
	}
}

func TestSelectionKernelsMatchRowWise(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	page := selKernelPage(r, 96)
	preds := selKernelPredicates(t)
	sels := testSelections(page.NumRows())
	kernel := 0
	for _, e := range preds {
		switch c := e.(type) {
		case *Compare:
			if _, ok := selCompare(c, page, nil, nil); ok {
				kernel++
			}
		case *Between:
			if _, ok := selBetween(c, page, nil, nil); ok {
				kernel++
			}
		}
		for name, sel := range sels {
			checkSelection(t, e, page, name, sel)
		}
	}
	// The grid is there for the kernels: most of it must reach one.
	if kernel*2 < len(preds) {
		t.Errorf("%d of %d predicates have a selection kernel", kernel, len(preds))
	}

	// AND, OR and NOT nests of them: AND narrows the left side's selection
	// where it lies, OR evaluates the right side over the complement.
	pick := func() Expr { return preds[r.Intn(len(preds))] }
	var nest func(depth int) Expr
	nest = func(depth int) Expr {
		if depth == 0 {
			return pick()
		}
		switch r.Intn(4) {
		case 0:
			n, _ := NewNot(nest(depth - 1))
			return n
		case 1:
			l, _ := NewLogic(Or, nest(depth-1), nest(depth-1))
			return l
		default:
			l, _ := NewLogic(And, nest(depth-1), nest(depth-1))
			return l
		}
	}
	for iter := 0; iter < 1500; iter++ {
		e := nest(1 + r.Intn(3))
		for name, sel := range sels {
			checkSelection(t, e, page, name, sel)
		}
	}
}

// TestSelectionKernelFloatOrder pins the total order the float kernels
// follow without calling types.CompareFloat: a NaN row passes >, >= and <>
// against a number and fails <, <= and =; -0.0 equals +0.0.
func TestSelectionKernelFloatOrder(t *testing.T) {
	page := column.NewPage(types.NewSchema(types.Column{Name: "f", Type: types.Float64}))
	for _, f := range []float64{math.NaN(), math.Copysign(0, -1), 0, 1} {
		page.AppendRow(types.FloatValue(f))
	}
	f := Col(0, "f", types.Float64)
	zero := Lit(types.FloatValue(0))
	for op, want := range map[CmpOp][]int{
		Eq: {1, 2}, Ne: {0, 3}, Lt: {}, Le: {1, 2}, Gt: {0, 3}, Ge: {0, 1, 2, 3},
	} {
		got, err := EvalSelection(mustCmp(t, op, f, zero), page)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("f %s 0 selects %v, want %v", op, got, want)
		}
	}
	// NaN BETWEEN -1 AND +Inf: after +Inf in the total order, so out.
	bt, _ := NewBetween(f, Lit(types.FloatValue(-1)), Lit(types.FloatValue(math.Inf(1))))
	got, err := EvalSelection(bt, page)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("BETWEEN selects %v, want %v", got, want)
	}
}

// TestSelectionKernelIntegerBounds: exclusive bounds at the ends of the
// int64 range are loops of their own, not ±1 on an inclusive one.
func TestSelectionKernelIntegerBounds(t *testing.T) {
	page := column.NewPage(types.NewSchema(types.Column{Name: "i", Type: types.Int64}))
	for _, v := range []int64{math.MinInt64, 0, math.MaxInt64} {
		page.AppendRow(types.IntValue(v))
	}
	i := Col(0, "i", types.Int64)
	for _, c := range []struct {
		op   CmpOp
		lit  int64
		want []int
	}{
		{Gt, math.MaxInt64, []int{}},
		{Ge, math.MaxInt64, []int{2}},
		{Lt, math.MinInt64, []int{}},
		{Le, math.MinInt64, []int{0}},
		{Gt, math.MinInt64, []int{1, 2}},
		{Lt, math.MaxInt64, []int{0, 1}},
	} {
		got, err := EvalSelection(mustCmp(t, c.op, i, Lit(types.IntValue(c.lit))), page)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || !slices.Equal(got, c.want) {
			t.Errorf("i %s %d selects %v, want %v", c.op, c.lit, got, c.want)
		}
	}
}

// FuzzSelectionKernels builds a column, a predicate over it and a
// selection from the input bytes and holds evalSel to the interpreter.
func FuzzSelectionKernels(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 5, 6, 9, 0xff, 0xf0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 3, 3})
	f.Add([]byte{2, 0, 1, 2, 'a', 'b', 0, 0xff, 'z'})
	f.Add([]byte{7, 3, 200, 100, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, page, sel := fuzzSelectionCase(data)
		if e == nil {
			return
		}
		checkSelection(t, e, page, fmt.Sprint(sel), sel)
	})
}

// fuzzSelectionCase reads, in order: the column's kind and the predicate's
// shape, the operator, the literals' positions among the column's own
// values, a selection mask seed, then the column's values (with NULLs).
func fuzzSelectionCase(data []byte) (Expr, *column.Page, []int) {
	if len(data) < 5 {
		return nil, nil, nil
	}
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Bool, types.Date}
	kind := kinds[int(data[0])%len(kinds)]
	shape := int(data[0]) / len(kinds) % 4
	op := CmpOp(data[1] % 6)
	pickLo, pickHi, selSeed := int(data[2]), int(data[3]), data[4]
	data = data[5:]

	schema := types.NewSchema(types.Column{Name: "c", Type: kind}, types.Column{Name: "c2", Type: kind})
	page := column.NewPage(schema)
	var vals []types.Value
	for len(data) > 0 {
		var v types.Value
		switch {
		case data[0]%7 == 6:
			v, data = types.NullValue(kind), data[1:]
		case kind == types.Bool:
			v, data = types.BoolValue(data[0]&1 == 1), data[1:]
		case kind == types.String:
			n := min(int(data[0]%4), len(data)-1)
			v, data = types.StringValue(string(data[1:1+n])), data[1+n:]
		default:
			var bits uint64
			n := min(8, len(data))
			for _, b := range data[:n] {
				bits = bits<<8 | uint64(b)
			}
			data = data[n:]
			if kind == types.Float64 {
				v = types.FloatValue(math.Float64frombits(bits))
			} else {
				v = types.Value{Kind: kind, I: int64(bits)}
			}
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 || len(vals) > 4096 {
		return nil, nil, nil
	}
	for i, v := range vals {
		page.AppendRow(v, vals[(i+1)%len(vals)])
	}
	lo, hi := vals[pickLo%len(vals)], vals[pickHi%len(vals)]
	c, c2 := Col(0, "c", kind), Col(1, "c2", kind)
	var e Expr
	switch shape {
	case 0:
		e = &Compare{Op: op, L: c, R: Lit(lo)}
	case 1:
		e = &Compare{Op: op, L: Lit(lo), R: c}
	case 2:
		e = &Compare{Op: op, L: c, R: c2}
	default:
		if kind == types.Bool {
			return nil, nil, nil
		}
		e = &Between{E: c, Lo: Lit(lo), Hi: Lit(hi)}
	}
	var sel []int
	if selSeed != 0 {
		sel = []int{}
		for row := range vals {
			if (uint(row)*uint(selSeed)>>2)&1 == 0 {
				sel = append(sel, row)
			}
		}
	}
	return e, page, sel
}
