package expr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Differential property tests: the vectorized kernels (kernels.go) must be
// observationally identical to the row-at-a-time interpreter (evalRow) on
// randomized pages covering every kind, NULLs, NaN/Inf floats and
// adversarial strings. Divisors are always non-zero literals so neither
// path errors (the selection path may legally skip errors on rejected
// rows; see the package comment).

var kernelSchema = types.NewSchema(
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "s", Type: types.String},
	types.Column{Name: "b", Type: types.Bool},
	types.Column{Name: "d", Type: types.Date},
)

var (
	floatPool  = []float64{0, 1.5, -2.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300}
	stringPool = []string{"", "a", "ab", "b", "\x00", "a\x00b", "zz"}
)

func randomValue(r *rand.Rand, k types.Kind) types.Value {
	if r.Intn(5) == 0 {
		return types.NullValue(k)
	}
	switch k {
	case types.Int64:
		return types.IntValue(int64(r.Intn(11) - 5))
	case types.Float64:
		return types.FloatValue(floatPool[r.Intn(len(floatPool))])
	case types.String:
		return types.StringValue(stringPool[r.Intn(len(stringPool))])
	case types.Bool:
		return types.BoolValue(r.Intn(2) == 0)
	case types.Date:
		return types.DateValue(int64(r.Intn(7)))
	default:
		panic("unreachable")
	}
}

func randomKernelPage(r *rand.Rand, n int) *column.Page {
	p := column.NewPage(kernelSchema)
	for row := 0; row < n; row++ {
		vals := make([]types.Value, kernelSchema.Len())
		for c, col := range kernelSchema.Columns {
			vals[c] = randomValue(r, col.Type)
		}
		p.AppendRow(vals...)
	}
	return p
}

// Generators for random well-typed expressions. Depth 0 forces a leaf.

func genInt(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(3) == 0 {
			return Lit(randomValue(r, types.Int64))
		}
		return Col(0, "i", types.Int64)
	}
	op := ArithOp(r.Intn(5))
	l := genInt(r, depth-1)
	var right Expr
	if op == Div || op == Mod {
		right = Lit(types.IntValue(int64(1 + r.Intn(4)))) // never zero
	} else {
		right = genInt(r, depth-1)
	}
	a, err := NewArith(op, l, right)
	if err != nil {
		return Col(0, "i", types.Int64)
	}
	return a
}

func genFloat(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(3) == 0 {
			return Lit(randomValue(r, types.Float64))
		}
		return Col(1, "f", types.Float64)
	}
	op := ArithOp(r.Intn(4)) // no Mod on floats
	l := genFloat(r, depth-1)
	var right Expr
	switch {
	case op == Div:
		right = Lit(types.FloatValue(float64(1+r.Intn(4)) / 2)) // never zero
	case r.Intn(2) == 0:
		right = genInt(r, depth-1) // mixed int/float promotes
	default:
		right = genFloat(r, depth-1)
	}
	a, err := NewArith(op, l, right)
	if err != nil {
		return Col(1, "f", types.Float64)
	}
	return a
}

func genBool(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		if r.Intn(4) == 0 {
			return Lit(randomValue(r, types.Bool))
		}
		return Col(3, "b", types.Bool)
	}
	switch r.Intn(7) {
	case 0: // comparison over a random operand kind
		var l, rr Expr
		switch r.Intn(5) {
		case 0:
			l, rr = genInt(r, depth-1), genInt(r, depth-1)
		case 1:
			l, rr = genFloat(r, depth-1), genInt(r, depth-1)
		case 2:
			l, rr = Col(2, "s", types.String), Lit(randomValue(r, types.String))
		case 3:
			l, rr = Col(3, "b", types.Bool), Lit(randomValue(r, types.Bool))
		default:
			l, rr = Col(4, "d", types.Date), Lit(randomValue(r, types.Date))
		}
		if r.Intn(2) == 0 {
			l, rr = rr, l
		}
		c, err := NewCompare(CmpOp(r.Intn(6)), l, rr)
		if err != nil {
			return Col(3, "b", types.Bool)
		}
		return c
	case 1:
		lg, err := NewLogic(LogicOp(r.Intn(2)), genBool(r, depth-1), genBool(r, depth-1))
		if err != nil {
			return Col(3, "b", types.Bool)
		}
		return lg
	case 2:
		nt, err := NewNot(genBool(r, depth-1))
		if err != nil {
			return Col(3, "b", types.Bool)
		}
		return nt
	case 3: // BETWEEN over numerics or strings
		var e, lo, hi Expr
		if r.Intn(2) == 0 {
			e, lo, hi = genInt(r, depth-1), genInt(r, depth-1), genFloat(r, depth-1)
		} else {
			e = Col(2, "s", types.String)
			lo, hi = Lit(randomValue(r, types.String)), Lit(randomValue(r, types.String))
		}
		bt, err := NewBetween(e, lo, hi)
		if err != nil {
			return Col(3, "b", types.Bool)
		}
		return bt
	case 4: // IS [NOT] NULL over any kind
		var e Expr
		switch r.Intn(3) {
		case 0:
			e = genInt(r, depth-1)
		case 1:
			e = genFloat(r, depth-1)
		default:
			e = Col(2, "s", types.String)
		}
		return &IsNull{E: e, Negate: r.Intn(2) == 0}
	default:
		if r.Intn(4) == 0 {
			return Lit(randomValue(r, types.Bool))
		}
		return Col(3, "b", types.Bool)
	}
}

func sameValue(a, b types.Value) bool {
	if a.Null != b.Null || a.Kind != b.Kind {
		return false
	}
	if a.Null {
		return true
	}
	// types.Compare uses the total float order, so NaN == NaN here.
	return types.Compare(a, b) == 0
}

// rowWise evaluates e over every row of page via the interpreter.
func rowWise(t *testing.T, e Expr, page *column.Page) []types.Value {
	t.Helper()
	out := make([]types.Value, page.NumRows())
	for i := range out {
		v, err := evalRow(e, page, i)
		if err != nil {
			t.Fatalf("evalRow(%s, row %d): %v", e, i, err)
		}
		out[i] = v
	}
	return out
}

func checkEvalDifferential(t *testing.T, e Expr, page *column.Page) {
	t.Helper()
	want := rowWise(t, e, page)
	vec, err := Eval(e, page)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	if vec.Len() != page.NumRows() {
		t.Fatalf("Eval(%s): %d rows, want %d", e, vec.Len(), page.NumRows())
	}
	for i, w := range want {
		if got := vec.Value(i); !sameValue(got, w) {
			t.Fatalf("Eval(%s) row %d: vectorized %s, row-wise %s", e, i, got, w)
		}
	}
}

func checkSelectionDifferential(t *testing.T, r *rand.Rand, e Expr, page *column.Page) {
	t.Helper()
	want := rowWise(t, e, page)
	var expect []int
	for i, v := range want {
		if !v.Null && v.B {
			expect = append(expect, i)
		}
	}
	sel, err := EvalSelection(e, page)
	if err != nil {
		t.Fatalf("EvalSelection(%s): %v", e, err)
	}
	if fmt.Sprint(sel) != fmt.Sprint(expect) {
		t.Fatalf("EvalSelection(%s) = %v, row-wise %v", e, sel, expect)
	}

	// Same over a random base selection: only base rows may survive. A
	// nil base means every row, i.e. the plain EvalSelection case above.
	base := randomSel(r, page.NumRows())
	if base == nil {
		return
	}
	var expectOver []int
	for _, i := range base {
		if v := want[i]; !v.Null && v.B {
			expectOver = append(expectOver, i)
		}
	}
	over, err := EvalSelectionOver(e, page, base)
	if err != nil {
		t.Fatalf("EvalSelectionOver(%s): %v", e, err)
	}
	if fmt.Sprint(over) != fmt.Sprint(expectOver) {
		t.Fatalf("EvalSelectionOver(%s, %v) = %v, row-wise %v", e, base, over, expectOver)
	}
}

func randomSel(r *rand.Rand, n int) []int {
	var sel []int
	for i := 0; i < n; i++ {
		if r.Intn(3) != 0 {
			sel = append(sel, i)
		}
	}
	sort.Ints(sel)
	return sel
}

func TestVectorizedPredicatesMatchRowWise(t *testing.T) {
	r := rand.New(rand.NewSource(20260805))
	for iter := 0; iter < 400; iter++ {
		page := randomKernelPage(r, 1+r.Intn(80))
		e := genBool(r, 3)
		checkEvalDifferential(t, e, page)
		checkSelectionDifferential(t, r, e, page)
	}
}

func TestVectorizedArithmeticMatchesRowWise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		page := randomKernelPage(r, 1+r.Intn(64))
		var e Expr
		if iter%2 == 0 {
			e = genInt(r, 3)
		} else {
			e = genFloat(r, 3)
		}
		checkEvalDifferential(t, e, page)

		// EvalOver must compact to exactly the selected rows (a nil
		// selection means every row).
		want := rowWise(t, e, page)
		sel := randomSel(r, page.NumRows())
		vec, err := EvalOver(e, page, sel)
		if err != nil {
			t.Fatalf("EvalOver(%s): %v", e, err)
		}
		if sel == nil {
			sel = make([]int, page.NumRows())
			for i := range sel {
				sel[i] = i
			}
		}
		if vec.Len() != len(sel) {
			t.Fatalf("EvalOver(%s): %d rows, want %d", e, vec.Len(), len(sel))
		}
		for j, i := range sel {
			if got := vec.Value(j); !sameValue(got, want[i]) {
				t.Fatalf("EvalOver(%s) slot %d (row %d): %s, row-wise %s", e, j, i, got, want[i])
			}
		}
	}
}

// TestLogicThreeValuedTable pins the AND/OR/NOT truth tables over the full
// {TRUE, FALSE, NULL}² domain against the row-wise interpreter, covering
// the NULL-propagation rules the kernels implement directly.
func TestLogicThreeValuedTable(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "l", Type: types.Bool},
		types.Column{Name: "r", Type: types.Bool},
	)
	vals := []types.Value{types.BoolValue(true), types.BoolValue(false), types.NullValue(types.Bool)}
	page := column.NewPage(schema)
	for _, l := range vals {
		for _, r := range vals {
			page.AppendRow(l, r)
		}
	}
	l, r := Col(0, "l", types.Bool), Col(1, "r", types.Bool)
	for _, op := range []LogicOp{And, Or} {
		lg, err := NewLogic(op, l, r)
		if err != nil {
			t.Fatal(err)
		}
		checkEvalDifferential(t, lg, page)
		sel, err := EvalSelection(lg, page)
		if err != nil {
			t.Fatal(err)
		}
		// Only the rows where the connective is TRUE (not NULL) survive.
		want := map[LogicOp][]int{And: {0}, Or: {0, 1, 2, 3, 6}}[op]
		if fmt.Sprint(sel) != fmt.Sprint(want) {
			t.Errorf("%v selection = %v, want %v", op, sel, want)
		}
	}
	nt, err := NewNot(l)
	if err != nil {
		t.Fatal(err)
	}
	checkEvalDifferential(t, nt, page)
}

// TestCompareNullSemantics pins NULL-in, NULL-out for comparisons and the
// any-NULL rule for BETWEEN: a NULL bound makes the result NULL even when
// the other bound already rejects the row.
func TestCompareNullSemantics(t *testing.T) {
	page := column.NewPage(kernelSchema)
	page.AppendRow(types.IntValue(5), types.FloatValue(1), types.StringValue("x"),
		types.BoolValue(true), types.DateValue(1))
	i := Col(0, "i", types.Int64)

	cmp, err := NewCompare(Gt, i, Lit(types.NullValue(types.Int64)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Eval(cmp, page)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull(0) {
		t.Errorf("5 > NULL = %s, want NULL", v.Value(0))
	}

	// 5 BETWEEN 10 AND NULL: the low bound alone rejects, but SQL still
	// yields NULL, not FALSE.
	bt, err := NewBetween(i, Lit(types.IntValue(10)), Lit(types.NullValue(types.Int64)))
	if err != nil {
		t.Fatal(err)
	}
	v, err = Eval(bt, page)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull(0) {
		t.Errorf("5 BETWEEN 10 AND NULL = %s, want NULL", v.Value(0))
	}
	checkEvalDifferential(t, bt, page)
}

// TestSelectionShortCircuitSkipsRightErrors documents the one intentional
// divergence from the interpreter: the selection path evaluates the right
// side of AND only over rows surviving the left side, so an error confined
// to rejected rows does not surface. Value-context Eval still reports it.
func TestSelectionShortCircuitSkipsRightErrors(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "i", Type: types.Int64})
	page := column.NewPage(schema)
	page.AppendRow(types.IntValue(0)) // i = 0 everywhere: 10/i would divide by zero
	page.AppendRow(types.IntValue(0))
	i := Col(0, "i", types.Int64)

	div, err := NewArith(Div, Lit(types.IntValue(10)), i)
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewCompare(Gt, div, Lit(types.IntValue(1)))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewLogic(And, Lit(types.BoolValue(false)), right)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := EvalSelection(pred, page)
	if err != nil {
		t.Fatalf("selection path must skip the unevaluated right side: %v", err)
	}
	if len(sel) != 0 {
		t.Fatalf("sel = %v, want empty", sel)
	}
	if _, err := Eval(pred, page); err == nil {
		t.Fatal("value-context Eval must still surface the division by zero")
	}
}

// TestCastKernelsMatchRowWise covers every cast types.Coerce cannot fail
// on — those have a kernel — over all rows and over a selection, NULLs
// staying NULL.
func TestCastKernelsMatchRowWise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	page := randomKernelPage(r, 40)
	for c, col := range kernelSchema.Columns {
		for _, to := range []types.Kind{types.Int64, types.Float64, types.String, types.Bool, types.Date} {
			cast := &Cast{E: Col(c, col.Name, col.Type), To: to}
			if !castCannotFail(col.Type, to) {
				continue
			}
			checkEvalDifferential(t, cast, page)
			sel := randomSel(r, page.NumRows())
			vec, err := EvalOver(cast, page, sel)
			if err != nil {
				t.Fatal(err)
			}
			if vec.Kind != to || vec.Len() != len(sel) {
				t.Fatalf("%s over a selection: %d rows of %s, want %d of %s", cast, vec.Len(), vec.Kind, len(sel), to)
			}
			for j, i := range sel {
				w, err := evalRow(cast, page, i)
				if err != nil {
					t.Fatal(err)
				}
				if got := vec.Value(j); !sameValue(got, w) {
					t.Fatalf("%s slot %d: %s, want %s", cast, j, got, w)
				}
			}
		}
	}
	// A sum of doubles divided by a count, as the avg rewrite casts them.
	avg, err := NewArith(Div, &Cast{E: Col(1, "f", types.Float64), To: types.Float64},
		&Cast{E: Lit(types.IntValue(4)), To: types.Float64})
	if err != nil {
		t.Fatal(err)
	}
	checkEvalDifferential(t, avg, page)
}

// TestFallbackCast exercises the evalRow fallback inside evalVec, which a
// cast that can fail still takes: parsing a string as a date reports the
// row that does not parse, and only when that row is selected.
func TestFallbackCast(t *testing.T) {
	dates := column.NewPage(types.NewSchema(types.Column{Name: "s", Type: types.String}))
	dates.AppendRow(types.StringValue("1995-03-04"))
	dates.AppendRow(types.StringValue("not a date"))
	dates.AppendRow(types.NullValue(types.String))
	parse := &Cast{E: Col(0, "s", types.String), To: types.Date}
	if _, err := Eval(parse, dates); err == nil {
		t.Error("casting 'not a date' to DATE must fail")
	}
	vec, err := EvalOver(parse, dates, []int{0, 2})
	if err != nil {
		t.Fatalf("the row that does not parse is not selected: %v", err)
	}
	if want, _ := types.DateFromString("1995-03-04"); vec.Value(0) != want || !vec.IsNull(1) {
		t.Errorf("parsed %s, %s; want %s, NULL", vec.Value(0), vec.Value(1), want)
	}
}
