package expr

import (
	"testing"
	"testing/quick"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func page2(t *testing.T) *column.Page {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	p := column.NewPage(s)
	p.AppendRow(types.IntValue(1), types.FloatValue(0.5), types.StringValue("p"))
	p.AppendRow(types.IntValue(2), types.FloatValue(1.5), types.StringValue("q"))
	p.AppendRow(types.IntValue(3), types.FloatValue(2.5), types.StringValue("r"))
	p.AppendRow(types.NullValue(types.Int64), types.FloatValue(9.5), types.NullValue(types.String))
	return p
}

// keepMask is e's selection over every row of page as a keep-mask: NULL,
// like FALSE, does not keep a row.
func keepMask(e Expr, page *column.Page) ([]bool, error) {
	sel, err := EvalSelection(e, page)
	if err != nil {
		return nil, err
	}
	keep := make([]bool, page.NumRows())
	for _, i := range sel {
		keep[i] = true
	}
	return keep, nil
}

func mustArith(t *testing.T, op ArithOp, l, r Expr) *Arith {
	t.Helper()
	a, err := NewArith(op, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustCmp(t *testing.T, op CmpOp, l, r Expr) *Compare {
	t.Helper()
	c, err := NewCompare(op, l, r)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestArithEval(t *testing.T) {
	p := page2(t)
	a := Col(0, "a", types.Int64)
	x := Col(1, "x", types.Float64)

	sum := mustArith(t, Add, a, x) // promotes to DOUBLE
	if sum.Type() != types.Float64 {
		t.Fatalf("type = %v", sum.Type())
	}
	v, err := evalAt(sum, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Floats[0] != 1.5 || v.Floats[2] != 5.5 {
		t.Errorf("eval = %v", v.Floats)
	}
	if !v.IsNull(3) {
		t.Error("NULL + x must be NULL")
	}

	mod := mustArith(t, Mod, a, Lit(types.IntValue(2)))
	mv, err := evalAt(mod, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Ints[0] != 1 || mv.Ints[1] != 0 {
		t.Errorf("mod = %v", mv.Ints)
	}
}

func TestArithTypeErrors(t *testing.T) {
	if _, err := NewArith(Add, Col(2, "s", types.String), Lit(types.IntValue(1))); err == nil {
		t.Error("string arithmetic must fail")
	}
	if _, err := NewArith(Mod, Col(1, "x", types.Float64), Lit(types.IntValue(2))); err == nil {
		t.Error("float modulo must fail")
	}
}

func TestDivisionByZero(t *testing.T) {
	p := page2(t)
	d := mustArith(t, Div, Col(0, "a", types.Int64), Lit(types.IntValue(0)))
	if _, err := evalAt(d, p, p.NumRows(), nil, nil); err == nil {
		t.Error("int division by zero must error")
	}
	fd := mustArith(t, Div, Col(1, "x", types.Float64), Lit(types.FloatValue(0)))
	if _, err := evalAt(fd, p, p.NumRows(), nil, nil); err == nil {
		t.Error("float division by zero must error")
	}
	m := mustArith(t, Mod, Col(0, "a", types.Int64), Lit(types.IntValue(0)))
	if _, err := evalAt(m, p, p.NumRows(), nil, nil); err == nil {
		t.Error("modulo by zero must error")
	}
}

func TestCompareEvalAndNulls(t *testing.T) {
	p := page2(t)
	c := mustCmp(t, Gt, Col(0, "a", types.Int64), Lit(types.IntValue(1)))
	keep, err := keepMask(c, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false} // NULL > 1 is NULL -> false
	for i := range want {
		if keep[i] != want[i] {
			t.Errorf("keep[%d] = %v, want %v", i, keep[i], want[i])
		}
	}
	// Cross-type numeric comparison.
	cx := mustCmp(t, Lt, Col(0, "a", types.Int64), Col(1, "x", types.Float64))
	if _, err := evalAt(cx, p, p.NumRows(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCompare(Eq, Col(2, "s", types.String), Lit(types.IntValue(1))); err == nil {
		t.Error("string = int must fail type check")
	}
}

func TestLogicThreeValued(t *testing.T) {
	tr, fa, nu := types.BoolValue(true), types.BoolValue(false), types.NullValue(types.Bool)
	cases := []struct {
		op   LogicOp
		l, r types.Value
		want types.Value
	}{
		{And, tr, tr, tr}, {And, tr, fa, fa}, {And, fa, nu, fa}, {And, tr, nu, nu}, {And, nu, nu, nu},
		{Or, fa, fa, fa}, {Or, fa, tr, tr}, {Or, tr, nu, tr}, {Or, fa, nu, nu}, {Or, nu, nu, nu},
	}
	for _, tc := range cases {
		got := evalLogic(tc.op, tc.l, tc.r)
		if got.Null != tc.want.Null || (!got.Null && got.B != tc.want.B) {
			t.Errorf("%v(%v,%v) = %v, want %v", tc.op, tc.l, tc.r, got, tc.want)
		}
	}
	if _, err := NewLogic(And, Lit(types.IntValue(1)), Lit(types.BoolValue(true))); err == nil {
		t.Error("AND on BIGINT must fail")
	}
}

func TestNotAndIsNull(t *testing.T) {
	p := page2(t)
	isn := &IsNull{E: Col(0, "a", types.Int64)}
	v, err := evalAt(isn, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Bools[0] || !v.Bools[3] {
		t.Errorf("IS NULL = %v", v.Bools)
	}
	notNull := &IsNull{E: Col(0, "a", types.Int64), Negate: true}
	v2, _ := evalAt(notNull, p, p.NumRows(), nil, nil)
	if !v2.Bools[0] || v2.Bools[3] {
		t.Errorf("IS NOT NULL = %v", v2.Bools)
	}
	n, err := NewNot(isn)
	if err != nil {
		t.Fatal(err)
	}
	v3, _ := evalAt(n, p, p.NumRows(), nil, nil)
	if !v3.Bools[0] {
		t.Error("NOT (a IS NULL) wrong")
	}
	if _, err := NewNot(Col(0, "a", types.Int64)); err == nil {
		t.Error("NOT BIGINT must fail")
	}
}

func TestBetween(t *testing.T) {
	p := page2(t)
	b, err := NewBetween(Col(1, "x", types.Float64), Lit(types.FloatValue(1.0)), Lit(types.FloatValue(3.0)))
	if err != nil {
		t.Fatal(err)
	}
	keep, err := keepMask(b, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false}
	for i := range want {
		if keep[i] != want[i] {
			t.Errorf("between[%d] = %v", i, keep[i])
		}
	}
	if _, err := NewBetween(Col(2, "s", types.String), Lit(types.IntValue(0)), Lit(types.IntValue(1))); err == nil {
		t.Error("BETWEEN type mismatch must fail")
	}
}

func TestCast(t *testing.T) {
	p := page2(t)
	c := &Cast{E: Col(1, "x", types.Float64), To: types.Int64}
	v, err := evalAt(c, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints[1] != 1 || v.Ints[2] != 2 {
		t.Errorf("cast = %v", v.Ints)
	}
}

func TestReferencedColumnsAndRemap(t *testing.T) {
	e := mustCmp(t, Gt,
		mustArith(t, Add, Col(3, "c3", types.Int64), Col(1, "c1", types.Int64)),
		Col(3, "c3", types.Int64))
	refs := ReferencedColumns(e)
	if len(refs) != 2 || refs[0] != 1 || refs[1] != 3 {
		t.Errorf("refs = %v", refs)
	}
	re, err := Remap(e, map[int]int{1: 0, 3: 1})
	if err != nil {
		t.Fatal(err)
	}
	refs2 := ReferencedColumns(re)
	if len(refs2) != 2 || refs2[0] != 0 || refs2[1] != 1 {
		t.Errorf("remapped refs = %v", refs2)
	}
	if _, err := Remap(e, map[int]int{1: 0}); err == nil {
		t.Error("remap with missing column must fail")
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	a := mustCmp(t, Gt, Col(0, "a", types.Int64), Lit(types.IntValue(0)))
	b := mustCmp(t, Lt, Col(0, "a", types.Int64), Lit(types.IntValue(10)))
	c := mustCmp(t, Ne, Col(0, "a", types.Int64), Lit(types.IntValue(5)))
	combined := AndAll([]Expr{a, b, c})
	parts := Conjuncts(combined)
	if len(parts) != 3 {
		t.Errorf("Conjuncts = %d parts", len(parts))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) must be nil")
	}
	if len(Conjuncts(a)) != 1 {
		t.Error("single conjunct wrong")
	}
}

func TestFoldConstants(t *testing.T) {
	// (1 + 2) * 3 folds to 9.
	inner := mustArith(t, Add, Lit(types.IntValue(1)), Lit(types.IntValue(2)))
	outer := mustArith(t, Mul, inner, Lit(types.IntValue(3)))
	folded := FoldConstants(outer)
	lit, ok := folded.(*Literal)
	if !ok || lit.Value.I != 9 {
		t.Errorf("folded = %v", folded)
	}
	// Column-referencing subtree stays.
	mixed := mustArith(t, Add, Col(0, "a", types.Int64), inner)
	f2 := FoldConstants(mixed)
	if _, ok := f2.(*Literal); ok {
		t.Error("column expr must not fold to literal")
	}
	// Division by zero must not fold (runtime error preserved).
	dz := mustArith(t, Div, Lit(types.IntValue(1)), Lit(types.IntValue(0)))
	if _, ok := FoldConstants(dz).(*Literal); ok {
		t.Error("div-by-zero must not fold")
	}
}

func TestCostMonotonic(t *testing.T) {
	a := Col(0, "a", types.Int64)
	add := mustArith(t, Add, a, Lit(types.IntValue(1)))
	div := mustArith(t, Div, a, Lit(types.IntValue(2)))
	if !(add.Cost() > a.Cost()) || !(div.Cost() > add.Cost()) {
		t.Errorf("cost ordering wrong: col=%v add=%v div=%v", a.Cost(), add.Cost(), div.Cost())
	}
}

func TestStringForms(t *testing.T) {
	b, _ := NewBetween(Col(0, "x", types.Float64), Lit(types.FloatValue(0.8)), Lit(types.FloatValue(3.2)))
	if b.String() != "(x BETWEEN 0.8 AND 3.2)" {
		t.Errorf("String = %q", b.String())
	}
	if Lit(types.StringValue("hi")).String() != "'hi'" {
		t.Error("string literal quoting wrong")
	}
	if got := Format([]Expr{Col(0, "a", types.Int64), Col(1, "b", types.Int64)}); got != "a, b" {
		t.Errorf("Format = %q", got)
	}
}

func TestCmpOpNegate(t *testing.T) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	for _, op := range ops {
		n := op.Negate()
		// Negating twice returns the original.
		if n.Negate() != op {
			t.Errorf("double negate of %v = %v", op, n.Negate())
		}
	}
}

// TestCmpOpMirror: l OP r and r OP.Mirror() l agree on every ordering of
// two values, and mirroring twice is the identity.
func TestCmpOpMirror(t *testing.T) {
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		if op.Mirror().Mirror() != op {
			t.Errorf("double mirror of %v = %v", op, op.Mirror().Mirror())
		}
		for _, c := range []int{-1, 0, 1} { // compare(l, r); compare(r, l) is -c
			if cmpHolds(op, c) != cmpHolds(op.Mirror(), -c) {
				t.Errorf("%v with compare(l, r) = %d disagrees with its mirror", op, c)
			}
		}
	}
}

// TestCompareColumnLiteral: either operand order reads as column OP
// literal; anything else is refused.
func TestCompareColumnLiteral(t *testing.T) {
	a, five := Col(3, "a", types.Int64), Lit(types.IntValue(5))
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		col, got, lit, ok := (&Compare{Op: op, L: a, R: five}).ColumnLiteral()
		if !ok || col != a || got != op || lit.I != 5 {
			t.Errorf("a %v 5 = (%v, %v, %v, %v)", op, col, got, lit, ok)
		}
		col, got, lit, ok = (&Compare{Op: op, L: five, R: a}).ColumnLiteral()
		if !ok || col != a || got != op.Mirror() || lit.I != 5 {
			t.Errorf("5 %v a = (%v, %v, %v, %v), want a %v 5", op, col, got, lit, ok, op.Mirror())
		}
	}
	sum, _ := NewArith(Add, a, five)
	for _, c := range []*Compare{{Op: Lt, L: a, R: a}, {Op: Lt, L: five, R: five}, {Op: Lt, L: sum, R: five}, {Op: Lt, L: five, R: sum}} {
		if _, _, _, ok := c.ColumnLiteral(); ok {
			t.Errorf("%s read as column OP literal", c)
		}
	}
}

// Property: for random int rows, (a < k) evaluated via the tree matches
// direct computation, and NOT(a < k) is its complement on non-null rows.
func TestQuickComparePredicate(t *testing.T) {
	f := func(vals []int64, k int64) bool {
		s := types.NewSchema(types.Column{Name: "a", Type: types.Int64})
		p := column.NewPage(s)
		for _, v := range vals {
			p.AppendRow(types.IntValue(v))
		}
		lt, err := NewCompare(Lt, Col(0, "a", types.Int64), Lit(types.IntValue(k)))
		if err != nil {
			return false
		}
		keep, err := keepMask(lt, p)
		if err != nil {
			return false
		}
		not, _ := NewNot(lt)
		inv, err := keepMask(not, p)
		if err != nil {
			return false
		}
		for i, v := range vals {
			if keep[i] != (v < k) || inv[i] == keep[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FoldConstants preserves evaluation results on constant trees.
func TestQuickFoldPreservesValue(t *testing.T) {
	f := func(a, b int32) bool {
		l := Lit(types.IntValue(int64(a)))
		r := Lit(types.IntValue(int64(b)))
		e, err := NewArith(Add, l, r)
		if err != nil {
			return false
		}
		folded := FoldConstants(e)
		lit, ok := folded.(*Literal)
		return ok && lit.Value.I == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
