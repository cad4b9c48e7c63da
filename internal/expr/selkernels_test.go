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

// The comparison kernels (selkernels.go) against the oracle
// (oracle_test.go): every operator, over every kind and every mix of kinds
// a comparison accepts, against literals from the edges of each kind's
// domain, over columns with NULLs, with NaNs and with one repeated value,
// read in place and through a computed operand, under a nil, a sparse, an
// empty and a full selection — the selection evalSel returns is, row for
// row, the rows of the incoming one where the oracle says TRUE, and the
// vector evalAt returns is the oracle's value at each selected row.

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

// computed is an operand that is neither a column nor a literal: a cast of
// ref — to DOUBLE for an integer, to BIGINT for a date, to its own kind
// otherwise.
func computed(ref *ColumnRef) Expr {
	switch ref.Kind {
	case types.Int64:
		return &Cast{E: ref, To: types.Float64}
	case types.Date:
		return &Cast{E: ref, To: types.Int64}
	}
	return &Cast{E: ref, To: ref.Kind}
}

// selKernelPredicates is the whole grid of simple predicates over the
// test page: Compare both ways round against every literal, and of a
// computed operand against every literal, Compare of every pair of
// columns that may be compared, Between over every pair of bounds (which
// covers reversed and equal ones).
func selKernelPredicates(t *testing.T) []Expr {
	t.Helper()
	var preds []Expr
	cols := selKernelSchema.Columns
	for c, col := range cols {
		ref := Col(c, col.Name, col.Type)
		lits := edgeLiterals(col.Type)
		for op := Eq; op <= Ge; op++ {
			for _, v := range lits {
				preds = append(preds, mustCmp(t, op, ref, Lit(v)), mustCmp(t, op, Lit(v), ref),
					mustCmp(t, op, computed(ref), Lit(v)))
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

// checkSelection holds evalSel's answer for p's expression under sel to
// the oracle's, and holds it to the selection contract: never nil, the
// incoming selection untouched, and the same answer when it is written
// into a caller's buffer by p, whose stores the caller reuses across
// calls — so what an earlier call left at the rows sel skips must not
// show. It holds evalAt's value-context vector under sel to the oracle
// too, value and NULL at every selected row.
func checkSelection(t *testing.T, p *Predicate, page *column.Page, name string, sel []int) {
	t.Helper()
	e := p.e
	want := []int{}
	rows := sel
	if sel == nil {
		rows = testSelections(page.NumRows())["full"]
	}
	vec, err := evalAt(e, page, page.NumRows(), sel, nil)
	if err != nil {
		t.Fatalf("evalAt(%s) under %s selection: %v", e, name, err)
	}
	if vec.Len() != page.NumRows() {
		t.Fatalf("evalAt(%s) under %s selection: %d rows, want %d", e, name, vec.Len(), page.NumRows())
	}
	for _, row := range rows {
		v, err := evalRow(e, page, row)
		if err != nil {
			t.Fatalf("evalRow(%s, row %d): %v", e, row, err)
		}
		if !v.Null && v.B {
			want = append(want, row)
		}
		if got := vec.Value(row); !sameValue(got, v) {
			t.Fatalf("evalAt(%s) under %s selection, row %d: %s, oracle %s", e, name, row, got, v)
		}
	}
	before := slices.Clone(sel)
	got, err := mustPredicate(t, e).SelectInto(page, sel, nil)
	if err != nil {
		t.Fatalf("SelectInto(%s) under %s selection: %v", e, name, err)
	}
	if got == nil {
		t.Fatalf("SelectInto(%s) under %s selection is nil, which means every row; want %v", e, name, want)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("SelectInto(%s) under %s selection = %v, oracle %v", e, name, got, want)
	}
	buf := make([]int, page.NumRows())
	into, err := p.SelectInto(page, sel, buf)
	if err != nil {
		t.Fatal(err)
	}
	if into == nil || !slices.Equal(into, want) {
		t.Fatalf("SelectInto(%s) under %s selection, stores reused = %v, oracle %v", e, name, into, want)
	}
	if !slices.Equal(sel, before) {
		t.Fatalf("SelectInto(%s) wrote to the %s selection it was given: %v, was %v", e, name, sel, before)
	}
}

func TestSelectionKernelsMatchRowWise(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	page := selKernelPage(r, 96)
	preds := selKernelPredicates(t)
	sels := testSelections(page.NumRows())
	for _, e := range preds {
		p := mustPredicate(t, e)
		for name, sel := range sels {
			checkSelection(t, p, page, name, sel)
		}
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
		p := mustPredicate(t, nest(1+r.Intn(3)))
		for name, sel := range sels {
			checkSelection(t, p, page, name, sel)
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

// dictForm returns v, a plain String vector, in dictionary form as a Dict
// chunk decodes it: its distinct strings numbered in order of first
// appearance (of last appearance when reverse is set, so that two columns
// number the same strings differently), and every NULL row coded to an
// entry of its own, "\xffnull", which no comparison may see.
func dictForm(v *column.Vector, reverse bool) *column.Vector {
	out := &column.Vector{Kind: types.String, Nulls: v.Nulls, Dict: []string{"\xffnull"}, Codes: make([]int32, v.Len())}
	index := map[string]int32{}
	for k := range v.Strings {
		i := k
		if reverse {
			i = len(v.Strings) - 1 - k
		}
		if v.IsNull(i) {
			continue
		}
		c, ok := index[v.Strings[i]]
		if !ok {
			c = int32(len(out.Dict))
			index[v.Strings[i]] = c
			out.Dict = append(out.Dict, v.Strings[i])
		}
		out.Codes[i] = c
	}
	return out
}

// TestSelectionKernelsOnDictionaryColumns runs the grid's string
// predicates, IS NULL and an IN list (an OR of equalities, which is how
// SQL's IN reads here) over the test page with both string columns in
// dictionary form, numbered differently: every answer must be the
// oracle's, which reads each row's string.
func TestSelectionKernelsOnDictionaryColumns(t *testing.T) {
	page := selKernelPage(rand.New(rand.NewSource(22)), 96)
	s, s2 := selKernelSchema.IndexOf("s"), selKernelSchema.IndexOf("s2")
	page.Vectors[s] = dictForm(page.Vectors[s], false)
	page.Vectors[s2] = dictForm(page.Vectors[s2], true)
	sref := Col(s, "s", types.String)
	preds := []Expr{&IsNull{E: sref}, &IsNull{E: sref, Negate: true}}
	in := Expr(mustCmp(t, Eq, sref, Lit(types.StringValue("a"))))
	for _, v := range []string{"zz", "", "nope"} {
		var err error
		if in, err = NewLogic(Or, in, mustCmp(t, Eq, sref, Lit(types.StringValue(v)))); err != nil {
			t.Fatal(err)
		}
	}
	preds = append(preds, in)
	for _, e := range selKernelPredicates(t) {
		for _, c := range ReferencedColumns(e) {
			if c == s || c == s2 {
				preds = append(preds, e)
				break
			}
		}
	}
	for _, e := range preds {
		p := mustPredicate(t, e)
		for name, sel := range testSelections(page.NumRows()) {
			checkSelection(t, p, page, name, sel)
		}
	}
}

// FuzzSelectionKernels builds a column, a predicate over it and a
// selection from the input bytes and holds evalSel and evalAt to the
// oracle, under every row and then, through the same Predicate, under the
// selection.
func FuzzSelectionKernels(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 5, 6, 9, 0xff, 0xf0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 3, 3, 3})
	f.Add([]byte{2, 0, 1, 2, 'a', 'b', 0, 0xff, 'z'})
	f.Add([]byte{7, 3, 200, 100, 1, 0, 1, 1, 0})
	f.Add([]byte{20, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{26, 4, 0, 1, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{30, 1, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe})
	f.Add([]byte{32, 5, 0, 3, 0, 2, 'a', 'b', 1, 'a', 6, 0})
	// String columns in dictionary form: column op literal, literal op
	// column, column op column, BETWEEN and a computed operand.
	f.Add([]byte{37, 0, 1, 0, 3, 1, 'b', 2, 'a', 'b', 6, 1, 'b', 0})
	f.Add([]byte{42, 2, 0, 2, 0, 1, 'z', 6, 1, 'a', 1, 'z'})
	f.Add([]byte{47, 1, 0, 0, 5, 1, 'a', 1, 'b', 6, 1, 'a', 2, 'b', 'a'})
	f.Add([]byte{52, 0, 1, 3, 0, 1, 'c', 1, 'a', 6, 2, 'b', 'b', 1, 'c'})
	f.Add([]byte{67, 4, 2, 0, 1, 1, 'q', 1, 'p', 6, 1, 'q'})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, page, sel := fuzzSelectionCase(data)
		if e == nil {
			return
		}
		p := mustPredicate(t, e)
		checkSelection(t, p, page, "nil", nil)
		checkSelection(t, p, page, fmt.Sprint(sel), sel)
	})
}

func mustPredicate(t *testing.T, e Expr) *Predicate {
	t.Helper()
	p, err := NewPredicate(e)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fuzzSelectionCase reads, in order: the column's kind and the predicate's
// shape, the operator, the literals' positions among the column's own
// values, a selection mask seed, then the column's values (with NULLs).
// The shapes are: column OP literal, literal OP column, column OP column,
// column BETWEEN literal AND literal, a numeric column OP a DOUBLE literal
// near one of its values, a numeric column against NaN, and a computed
// operand (the grid's computed) against a literal or the other column.
// A first byte of 35 or more (odd multiples) puts string columns in
// dictionary form, numbered differently.
func fuzzSelectionCase(data []byte) (Expr, *column.Page, []int) {
	if len(data) < 5 {
		return nil, nil, nil
	}
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Bool, types.Date}
	kind := kinds[int(data[0])%len(kinds)]
	shape := int(data[0]) / len(kinds) % 7
	dict := int(data[0])/(len(kinds)*7)%2 == 1
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
	if dict && kind == types.String {
		page.Vectors[0] = dictForm(page.Vectors[0], false)
		page.Vectors[1] = dictForm(page.Vectors[1], true)
	}
	lo, hi := vals[pickLo%len(vals)], vals[pickHi%len(vals)]
	c, c2 := Col(0, "c", kind), Col(1, "c2", kind)
	numeric := kind.Numeric()
	var e Expr
	switch shape {
	case 0:
		e = &Compare{Op: op, L: c, R: Lit(lo)}
	case 1:
		e = &Compare{Op: op, L: Lit(lo), R: c}
	case 2:
		e = &Compare{Op: op, L: c, R: c2}
	case 3:
		if kind == types.Bool {
			return nil, nil, nil
		}
		e = &Between{E: c, Lo: Lit(lo), Hi: Lit(hi)}
	case 4:
		if !numeric {
			return nil, nil, nil
		}
		f := types.NullValue(types.Float64)
		if !lo.Null {
			f = types.FloatValue(lo.AsFloat() + float64(pickHi%3-1)/2)
		}
		e = &Compare{Op: op, L: c, R: Lit(f)}
	case 5:
		if !numeric {
			return nil, nil, nil
		}
		e = &Compare{Op: op, L: c, R: Lit(types.FloatValue(math.NaN()))}
		if pickHi%2 == 1 {
			e = &Compare{Op: op, L: e.(*Compare).R, R: c}
		}
	default:
		var other Expr = Lit(lo)
		if pickHi%2 == 1 {
			other = c2
		}
		e = &Compare{Op: op, L: computed(c), R: other}
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
