package expr

import (
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Additional coverage for tree utilities and evaluator corners.

func TestWalkVisitsEveryNode(t *testing.T) {
	a := Col(0, "a", types.Int64)
	add := mustArith(t, Add, a, Lit(types.IntValue(1)))
	cmp := mustCmp(t, Gt, add, Lit(types.IntValue(0)))
	isn := &IsNull{E: a}
	logic, err := NewLogic(Or, cmp, isn)
	if err != nil {
		t.Fatal(err)
	}
	not, _ := NewNot(logic)
	btw, _ := NewBetween(a, Lit(types.IntValue(0)), Lit(types.IntValue(9)))
	and, _ := NewLogic(And, not, btw)
	cast := &Cast{E: and, To: types.Bool}

	var count int
	Walk(cast, func(Expr) { count++ })
	// cast, and, not, logic, cmp, add, a, 1, 0, isn, a, btw, a, 0, 9 = 15
	if count != 15 {
		t.Errorf("walked %d nodes, want 15", count)
	}
}

func TestRemapAllNodeKinds(t *testing.T) {
	a := Col(2, "a", types.Int64)
	b := Col(5, "b", types.Float64)
	add := mustArith(t, Add, a, b)
	cmp := mustCmp(t, Le, a, Lit(types.IntValue(3)))
	isn := &IsNull{E: b, Negate: true}
	logic, _ := NewLogic(And, cmp, isn)
	not, _ := NewNot(logic)
	btw, _ := NewBetween(b, Lit(types.FloatValue(0)), Lit(types.FloatValue(1)))
	both, _ := NewLogic(Or, not, btw)
	cast := &Cast{E: add, To: types.Int64}
	gt, _ := NewCompare(Gt, cast, Lit(types.IntValue(0)))
	root, _ := NewLogic(And, both, gt)

	mapping := map[int]int{2: 0, 5: 1}
	remapped, err := Remap(root, mapping)
	if err != nil {
		t.Fatal(err)
	}
	refs := ReferencedColumns(remapped)
	if len(refs) != 2 || refs[0] != 0 || refs[1] != 1 {
		t.Errorf("remapped refs = %v", refs)
	}
	// Original untouched.
	refs = ReferencedColumns(root)
	if refs[0] != 2 || refs[1] != 5 {
		t.Errorf("original mutated: %v", refs)
	}
	// Every node kind propagates missing-column errors.
	for _, e := range []Expr{root, add, cmp, isn, not, btw, cast} {
		if len(ReferencedColumns(e)) == 0 {
			continue
		}
		if _, err := Remap(e, map[int]int{}); err == nil {
			t.Errorf("%T: remap with empty mapping succeeded", e)
		}
	}
}

func TestEvalErrorPropagation(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "a", Type: types.Int64})
	p := column.NewPage(s)
	p.AppendRow(types.IntValue(1))

	div := mustArith(t, Div, Col(0, "a", types.Int64), Lit(types.IntValue(0)))
	nested := mustCmp(t, Gt, div, Lit(types.IntValue(0)))
	if _, err := evalAt(nested, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside comparison not propagated")
	}
	logic, _ := NewLogic(And, nested, Lit(types.BoolValue(true)))
	if _, err := evalAt(logic, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside AND not propagated")
	}
	btw, _ := NewBetween(div, Lit(types.IntValue(0)), Lit(types.IntValue(1)))
	if _, err := evalAt(btw, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside BETWEEN not propagated")
	}
	cast := &Cast{E: div, To: types.Float64}
	if _, err := evalAt(cast, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside CAST not propagated")
	}
	not, _ := NewNot(nested)
	if _, err := evalAt(not, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside NOT not propagated")
	}
	isn := &IsNull{E: div}
	if _, err := evalAt(isn, p, p.NumRows(), nil, nil); err == nil {
		t.Error("error inside IS NULL not propagated")
	}
	// Out-of-range column ordinal.
	bad := Col(7, "zz", types.Int64)
	if _, err := evalAt(bad, p, p.NumRows(), nil, nil); err == nil {
		t.Error("out-of-range ordinal accepted")
	}
	if _, err := keepMask(Col(0, "a", types.Int64), p); err == nil {
		t.Error("non-bool predicate accepted")
	}
}

func TestEvalRowMatchesEval(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "a", Type: types.Int64})
	p := column.NewPage(s)
	for i := 0; i < 5; i++ {
		p.AppendRow(types.IntValue(int64(i)))
	}
	e := mustArith(t, Mul, Col(0, "a", types.Int64), Lit(types.IntValue(3)))
	vec, err := evalAt(e, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := evalRow(e, p, i)
		if err != nil {
			t.Fatal(err)
		}
		if !types.Equal(v, vec.Value(i)) {
			t.Errorf("row %d: EvalRow %v vs Eval %v", i, v, vec.Value(i))
		}
	}
}

func TestBetweenNullBounds(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "a", Type: types.Int64})
	p := column.NewPage(s)
	p.AppendRow(types.IntValue(5))
	btw, _ := NewBetween(Col(0, "a", types.Int64), Lit(types.NullValue(types.Int64)), Lit(types.IntValue(9)))
	keep, err := keepMask(btw, p)
	if err != nil {
		t.Fatal(err)
	}
	if keep[0] {
		t.Error("NULL lower bound must yield NULL -> not kept")
	}
}

func TestArithCrossTypePromotion(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "i", Type: types.Int64},
	)
	p := column.NewPage(s)
	p.AppendRow(types.DateValue(10000), types.IntValue(90))
	// DATE - BIGINT yields day count (BIGINT).
	sub := mustArith(t, Sub, Col(0, "d", types.Date), Col(1, "i", types.Int64))
	if sub.Type() != types.Int64 {
		t.Fatalf("date - int type = %v", sub.Type())
	}
	v, err := evalAt(sub, p, p.NumRows(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ints[0] != 9910 {
		t.Errorf("date arithmetic = %d", v.Ints[0])
	}
}

func TestFoldConstantsNestedKinds(t *testing.T) {
	// NOT (1 < 2) folds to false.
	cmp := mustCmp(t, Lt, Lit(types.IntValue(1)), Lit(types.IntValue(2)))
	not, _ := NewNot(cmp)
	if lit, ok := FoldConstants(not).(*Literal); !ok || lit.Value.B {
		t.Errorf("folded NOT = %v", FoldConstants(not))
	}
	// BETWEEN over constants folds.
	btw, _ := NewBetween(Lit(types.IntValue(5)), Lit(types.IntValue(1)), Lit(types.IntValue(9)))
	if lit, ok := FoldConstants(btw).(*Literal); !ok || !lit.Value.B {
		t.Errorf("folded BETWEEN = %v", FoldConstants(btw))
	}
	// CAST of constant folds.
	cast := &Cast{E: Lit(types.IntValue(3)), To: types.Float64}
	if lit, ok := FoldConstants(cast).(*Literal); !ok || lit.Value.F != 3 {
		t.Errorf("folded CAST = %v", FoldConstants(cast))
	}
	// IS NULL over constant folds.
	isn := &IsNull{E: Lit(types.NullValue(types.Int64))}
	if lit, ok := FoldConstants(isn).(*Literal); !ok || !lit.Value.B {
		t.Errorf("folded IS NULL = %v", FoldConstants(isn))
	}
	// AND over constants folds.
	logic, _ := NewLogic(And, Lit(types.BoolValue(true)), Lit(types.BoolValue(false)))
	if lit, ok := FoldConstants(logic).(*Literal); !ok || lit.Value.B {
		t.Errorf("folded AND = %v", FoldConstants(logic))
	}
}
