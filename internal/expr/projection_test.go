package expr

import (
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func mustProjection(t *testing.T, exprs []Expr, in *types.Schema) *Projection {
	t.Helper()
	p, err := NewProjection(exprs, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *Projection) sharedSteps() int {
	n := 0
	for _, st := range p.steps {
		if st.out < 0 {
			n++
		}
	}
	return n
}

// checkProjection holds Eval to one EvalOver per expression.
func checkProjection(t *testing.T, exprs []Expr, page *column.Page, sel []int) {
	t.Helper()
	got, err := mustProjection(t, exprs, page.Schema).Eval(page, sel)
	if err != nil {
		t.Fatalf("Eval(%s): %v", Format(exprs), err)
	}
	for i, e := range exprs {
		want, err := EvalOver(e, page, sel)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Kind != want.Kind || got[i].Len() != want.Len() {
			t.Fatalf("%s: %d rows of %s, want %d of %s", e, got[i].Len(), got[i].Kind, want.Len(), want.Kind)
		}
		for row := 0; row < want.Len(); row++ {
			if g, w := got[i].Value(row), want.Value(row); !sameValue(g, w) {
				t.Fatalf("%s slot %d: %s, want %s", e, row, g, w)
			}
		}
	}
}

func TestProjectionMatchesPerExpressionEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		page := randomKernelPage(r, 1+r.Intn(60))
		// A few building blocks, repeated whole and as operands, so that
		// the list has subtrees to share at several depths.
		blocks := []Expr{genInt(r, 2), genFloat(r, 2), genBool(r, 2)}
		var exprs []Expr
		for n := 1 + r.Intn(6); n > 0; n-- {
			b := blocks[r.Intn(len(blocks))]
			switch r.Intn(4) {
			case 0:
				exprs = append(exprs, b)
			case 1:
				exprs = append(exprs, &IsNull{E: b})
			case 2:
				exprs = append(exprs, &Cast{E: blocks[0], To: types.Float64})
			default:
				if a, err := NewArith(Add, blocks[r.Intn(2)], blocks[r.Intn(2)]); err == nil {
					exprs = append(exprs, a)
				} else {
					exprs = append(exprs, Col(2, "s", types.String))
				}
			}
		}
		checkProjection(t, exprs, page, nil)
		if sel := randomSel(r, page.NumRows()); len(sel) > 0 {
			checkProjection(t, exprs, page, sel)
		}
	}
}

// TestProjectionSharesQ1 is TPC-H Q1's pushed projection: thirteen column
// references over six columns and three multiplications, of which
// extendedprice * (1 - discount) occurs twice.
func TestProjectionSharesQ1(t *testing.T) {
	in := types.NewSchema(
		types.Column{Name: "quantity", Type: types.Float64},
		types.Column{Name: "extendedprice", Type: types.Float64},
		types.Column{Name: "discount", Type: types.Float64},
		types.Column{Name: "tax", Type: types.Float64},
		types.Column{Name: "returnflag", Type: types.String},
		types.Column{Name: "linestatus", Type: types.String},
		types.Column{Name: "shipdate", Type: types.Date},
	)
	col := func(i int) Expr { return Col(i, in.Columns[i].Name, in.Columns[i].Type) }
	one := Lit(types.IntValue(1))
	discPrice := func() Expr { return mustArith(t, Mul, col(1), mustArith(t, Sub, one, col(2))) }
	charge := mustArith(t, Mul, discPrice(), mustArith(t, Add, one, col(3)))
	exprs := []Expr{col(4), col(5), col(0), col(1), discPrice(), charge, col(0), col(1), col(2), col(2)}

	p := mustProjection(t, exprs, in)
	if len(p.refs) != 6 {
		t.Errorf("gathers %d columns per page, want 6: %v", len(p.refs), p.refs)
	}
	if p.sharedSteps() != 1 {
		t.Errorf("%d shared subtrees, want 1 (extendedprice * (1 - discount))", p.sharedSteps())
	}
	muls := 0
	for _, st := range p.steps {
		Walk(st.e, func(e Expr) {
			if a, ok := e.(*Arith); ok && a.Op == Mul {
				muls++
			}
		})
	}
	if muls != 2 {
		t.Errorf("%d multiplications per page, want 2", muls)
	}

	page := column.NewPage(in)
	for i := 0; i < 9; i++ {
		page.AppendRow(types.FloatValue(float64(i)), types.FloatValue(100+float64(i)), types.FloatValue(0.01*float64(i)),
			types.FloatValue(0.02), types.StringValue("A"), types.StringValue("F"), types.DateValue(int64(9000+i)))
	}
	checkProjection(t, exprs, page, nil)
	checkProjection(t, exprs, page, []int{1, 4, 8})
}

// TestProjectionErrorsOnlyOnSelectedRows: a shared subtree is evaluated
// over the selected rows and no others, so a division by zero on a row
// the filter dropped stays unseen, and one on a row it kept is reported.
func TestProjectionErrorsOnlyOnSelectedRows(t *testing.T) {
	in := types.NewSchema(types.Column{Name: "i", Type: types.Int64})
	page := column.NewPage(in)
	for _, v := range []int64{2, 0, 5} {
		page.AppendRow(types.IntValue(v))
	}
	i := Col(0, "i", types.Int64)
	div := func() Expr { return mustArith(t, Div, Lit(types.IntValue(10)), i) }
	exprs := []Expr{div(), mustArith(t, Add, div(), Lit(types.IntValue(1)))}
	p := mustProjection(t, exprs, in)
	if p.sharedSteps() != 1 {
		t.Fatalf("%d shared subtrees, want 1", p.sharedSteps())
	}
	checkProjection(t, exprs, page, []int{0, 2})
	if _, err := p.Eval(page, []int{0, 1}); err == nil {
		t.Error("10 / i with i = 0 on a selected row must fail")
	}
	if _, err := p.Eval(page, nil); err == nil {
		t.Error("10 / i with i = 0 and every row selected must fail")
	}
}

// TestProjectionKeysColumnsByOrdinal: two columns of one name — the two
// sides of a join — are two columns.
func TestProjectionKeysColumnsByOrdinal(t *testing.T) {
	in := types.NewSchema(types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "k", Type: types.Int64})
	page := column.NewPage(in)
	page.AppendRow(types.IntValue(1), types.IntValue(10))
	page.AppendRow(types.IntValue(2), types.IntValue(20))
	one := Lit(types.IntValue(1))
	exprs := []Expr{
		mustArith(t, Add, Col(0, "k", types.Int64), one),
		mustArith(t, Add, Col(1, "k", types.Int64), one),
		mustArith(t, Add, Col(1, "k", types.Int64), Lit(types.DateValue(1))), // another kind of 1
	}
	if p := mustProjection(t, exprs, in); p.sharedSteps() != 0 {
		t.Errorf("%d shared subtrees among three different expressions", p.sharedSteps())
	}
	checkProjection(t, exprs, page, nil)
}

// TestProjectionWithoutColumns: a list that reads no column still has one
// value per selected row.
func TestProjectionWithoutColumns(t *testing.T) {
	page := randomKernelPage(rand.New(rand.NewSource(3)), 12)
	exprs := []Expr{Lit(types.IntValue(7)), mustArith(t, Add, Lit(types.IntValue(1)), Lit(types.IntValue(2)))}
	checkProjection(t, exprs, page, nil)
	checkProjection(t, exprs, page, []int{0, 5, 11})

	if _, err := NewProjection([]Expr{Col(9, "x", types.Int64)}, kernelSchema); err == nil {
		t.Error("a reference past the input schema must be refused")
	}
}
