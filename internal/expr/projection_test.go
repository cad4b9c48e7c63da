package expr

import (
	"fmt"
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

// sharedSteps counts the steps read more than once, by entries and by
// other steps.
func (p *Projection) sharedSteps() int {
	reads := map[int]int{}
	for _, c := range p.outs {
		reads[c]++
	}
	for _, st := range p.steps {
		for _, c := range children(st.e) {
			if ref, ok := c.(*ColumnRef); ok {
				reads[ref.Index]++
			}
		}
	}
	n := 0
	for c, k := range reads {
		if c >= p.width && k > 1 {
			n++
		}
	}
	return n
}

// checkProjection holds EvalRows to one evalAt per expression, at every
// row sel names (nil: every row).
func checkProjection(t *testing.T, exprs []Expr, page *column.Page, sel []int) {
	t.Helper()
	got, err := mustProjection(t, exprs, page.Schema).EvalRows(page, sel)
	if err != nil {
		t.Fatalf("EvalRows(%s): %v", Format(exprs), err)
	}
	rows := sel
	if sel == nil {
		rows = identitySel(page.NumRows())
	}
	for i, e := range exprs {
		want, err := evalAt(e, page, page.NumRows(), sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Kind != want.Kind || got[i].Len() != want.Len() {
			t.Fatalf("%s: %d rows of %s, want %d of %s", e, got[i].Len(), got[i].Kind, want.Len(), want.Kind)
		}
		for _, row := range rows {
			if g, w := got[i].Value(row), want.Value(row); !sameValue(g, w) {
				t.Fatalf("%s row %d: %s, want %s", e, row, g, w)
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

	pageOf := func(base float64) *column.Page {
		page := column.NewPage(in)
		for i := 0; i < 9; i++ {
			page.AppendRow(types.FloatValue(base+float64(i)), types.FloatValue(100+base+float64(i)), types.FloatValue(0.01*float64(i)),
				types.FloatValue(0.02), types.StringValue("A"), types.StringValue("F"), types.DateValue(int64(9000+i)))
		}
		return page
	}
	page := pageOf(0)
	checkProjection(t, exprs, page, nil)
	checkProjection(t, exprs, page, []int{1, 4, 8})

	// The column entries are the page's own vectors, and once the steps'
	// buffers have grown to the page, the next page under a selection
	// allocates only the slice of results.
	sel := []int{1, 4, 8}
	if _, err := p.EvalRows(page, sel); err != nil {
		t.Fatal(err)
	}
	next := pageOf(50)
	var got []*column.Vector
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if got, err = p.EvalRows(next, sel); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("%v allocations per page with warm buffers, want 1 (the slice of results)", allocs)
	}
	for i, c := range []int{4, 5, 0, 1} {
		if got[i] != next.Vectors[c] {
			t.Errorf("entry %d is not the page's column %d itself", i, c)
		}
	}
}

// TestProjectionLogicStepsAllocate: a comparison, a BETWEEN, a NOT, an
// IS NULL and an OR loop under the selection into the Projection's
// buffers, as arithmetic does. Once the buffers have grown to the page,
// the next page under a sparse selection allocates the slice of results,
// and for each comparison the selection its kernel keeps; the rows it
// selects hold the oracle's values, whatever the buffers held before.
func TestProjectionLogicStepsAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pages := []*column.Page{randomKernelPage(r, 1024), randomKernelPage(r, 1024)}
	var sel []int
	for row := 3; row < 1024; row += 37 {
		sel = append(sel, row)
	}
	i, f, b := Col(0, "i", types.Int64), Col(1, "f", types.Float64), Col(3, "b", types.Bool)
	between, err := NewBetween(i, Lit(types.IntValue(-2)), Lit(types.IntValue(2)))
	if err != nil {
		t.Fatal(err)
	}
	not, err := NewNot(b)
	if err != nil {
		t.Fatal(err)
	}
	or, err := NewLogic(Or, b, mustCmp(t, Lt, i, Lit(types.IntValue(0))))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e      Expr
		allocs float64
	}{
		{mustCmp(t, Gt, f, Lit(types.FloatValue(0.5))), 2},
		{between, 2},
		{not, 1},
		{&IsNull{E: i}, 1},
		{or, 2},
	} {
		exprs := []Expr{c.e}
		p := mustProjection(t, exprs, kernelSchema)
		if _, err := p.EvalRows(pages[0], sel); err != nil {
			t.Fatal(err)
		}
		var got []*column.Vector
		allocs := testing.AllocsPerRun(20, func() {
			if got, err = p.EvalRows(pages[1], sel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.allocs {
			t.Errorf("%s: %v allocations per page with warm buffers, want at most %v", c.e, allocs, c.allocs)
		}
		checkRows(t, c.e.String(), exprs, pages[1], sel, got)
	}
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
	if _, err := p.EvalRows(page, []int{0, 1}); err == nil {
		t.Error("10 / i with i = 0 on a selected row must fail")
	}
	if _, err := p.EvalRows(page, nil); err == nil {
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

// projFuzzSchema is FuzzProjectionUnderSelection's input: a column of
// each kind a projection computes from, the strings in dictionary form.
var projFuzzSchema = types.NewSchema(
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "d", Type: types.Date},
	types.Column{Name: "s", Type: types.String},
)

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// projGen builds well-typed expressions over projFuzzSchema from bytes,
// and keeps what it built so that a later choice can repeat a subtree.
type projGen struct {
	in   *fuzzBytes
	made map[types.Kind][]Expr
}

func (g *projGen) expr(k types.Kind, depth int) Expr {
	if made := g.made[k]; len(made) > 0 && g.in.next()%5 == 4 {
		return made[g.in.next()%len(made)] // a shared subtree
	}
	c := g.in.next()
	if depth <= 0 {
		c %= 2 // a leaf
	}
	e := g.node(k, c%8, depth-1)
	g.made[k] = append(g.made[k], e)
	return e
}

func (g *projGen) node(k types.Kind, c, depth int) Expr {
	col := func(i int) Expr { return Col(i, projFuzzSchema.Columns[i].Name, projFuzzSchema.Columns[i].Type) }
	lit := func(k types.Kind) Expr {
		v := g.in.next()
		if v%6 == 5 {
			return Lit(types.NullValue(k))
		}
		return Lit(projFuzzValue(k, v))
	}
	arith := func(op ArithOp, l, r Expr) Expr {
		a, err := NewArith(op, l, r)
		if err != nil {
			return l
		}
		return a
	}
	switch k {
	case types.Int64:
		switch c {
		case 0:
			return col(0)
		case 1:
			return lit(k)
		case 5:
			return &Cast{E: g.expr(types.Float64, depth), To: types.Int64}
		case 6:
			return arith(Sub, g.expr(types.Date, depth), g.expr(types.Date, depth))
		case 7:
			return &Cast{E: g.expr(types.Date, depth), To: types.Int64}
		}
		return arith([]ArithOp{Add, Sub, Mul, Div, Mod}[g.in.next()%5], g.expr(k, depth), g.expr(k, depth))
	case types.Float64:
		switch c {
		case 0:
			return col(1)
		case 1:
			return lit(k)
		case 5:
			return &Cast{E: g.expr(types.Int64, depth), To: types.Float64}
		}
		r := g.expr([]types.Kind{types.Int64, types.Float64}[g.in.next()%2], depth)
		return arith([]ArithOp{Add, Sub, Mul, Div}[g.in.next()%4], g.expr(k, depth), r)
	case types.Date:
		switch c {
		case 0, 4:
			return col(2)
		case 1:
			return lit(k)
		case 2, 5:
			return &Cast{E: g.expr(types.Int64, depth), To: types.Date}
		}
		return &Cast{E: g.expr(types.String, depth), To: types.Date} // can fail
	case types.String:
		if c == 1 {
			return lit(k)
		}
		return col(3)
	}
	switch c { // Bool, in value context
	case 0, 1, 2:
		ops := []types.Kind{types.Int64, types.Float64, types.Date, types.String}
		l := g.expr(ops[g.in.next()%4], depth)
		r := g.expr(l.Type(), depth)
		if l.Type() == types.Int64 && g.in.next()%2 == 1 {
			r = g.expr(types.Float64, depth)
		}
		cmp, err := NewCompare(CmpOp(g.in.next()%6), l, r)
		if err != nil {
			return Lit(types.BoolValue(true))
		}
		return cmp
	case 3, 4:
		return &Logic{Op: LogicOp(g.in.next() % 2), L: g.expr(types.Bool, depth), R: g.expr(types.Bool, depth)}
	case 5:
		return &Not{E: g.expr(types.Bool, depth)}
	case 6:
		return &IsNull{E: g.expr([]types.Kind{types.Int64, types.Float64, types.Date}[g.in.next()%3], depth), Negate: g.in.next()%2 == 1}
	}
	return lit(types.Bool)
}

// projFuzzValue is a non-NULL value of kind k drawn from v: small
// integers and zero, floats with NaN, infinities and both zeros, and
// strings of which some parse as dates.
func projFuzzValue(k types.Kind, v int) types.Value {
	switch k {
	case types.Int64:
		return types.IntValue(int64(v%7) - 3)
	case types.Float64:
		return types.FloatValue(floatPool[v%len(floatPool)])
	case types.Date:
		return types.DateValue(int64(v%9) - 4)
	case types.String:
		return types.StringValue([]string{"", "a", "1995-03-04", "zz", "2000-01-01", "1970-01-02"}[v%6])
	}
	return types.BoolValue(v%2 == 1)
}

// projFuzzPage builds n rows, one in five of each column NULL, with the
// strings in dictionary form.
func projFuzzPage(in *fuzzBytes, n int) *column.Page {
	page := column.NewPage(projFuzzSchema)
	for row := 0; row < n; row++ {
		vals := make([]types.Value, projFuzzSchema.Len())
		for c, col := range projFuzzSchema.Columns {
			if v := in.next(); v%5 == 4 {
				vals[c] = types.NullValue(col.Type)
			} else {
				vals[c] = projFuzzValue(col.Type, v/5)
			}
		}
		page.AppendRow(vals...)
	}
	page.Vectors[3] = dictForm(page.Vectors[3], n%2 == 1)
	return page
}

// FuzzProjectionUnderSelection builds a projection list — arithmetic with
// / and %, casts that can and cannot fail, comparisons and logic in value
// context, subtrees repeated — and evaluates it through one Projection
// over two pages of different lengths in turn, under no selection, an
// empty one, a sparse one and one that drops a single row. Every selected
// row must hold the oracle's value, an error must come exactly when a
// selected row raises one, and results under no selection must survive
// the next call.
func FuzzProjectionUnderSelection(f *testing.F) {
	f.Add([]byte{7, 12, 0x5a, 3, 0, 2, 1, 3, 0, 0, 9, 4, 1, 0, 2, 8, 1, 7, 3, 5, 5, 2, 6, 1})
	f.Add([]byte{3, 30, 0xf0, 4, 0, 4, 1, 0, 1, 0, 0, 4, 3, 2, 0, 3, 2, 6, 1, 0, 4, 0, 0, 1, 2})
	f.Add([]byte{20, 1, 0x0f, 2, 1, 6, 2, 2, 1, 4, 4, 3, 2, 0, 0, 1, 0, 3, 5, 3, 0, 5, 7, 0, 2, 1})
	f.Add([]byte{9, 9, 0xaa, 5, 2, 0, 0, 4, 1, 1, 3, 7, 0, 0, 4, 6, 0, 0, 0, 9, 3, 3, 0, 1, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		lenA := 1 + in.next()%24
		lenB := 1 + (lenA+in.next()%23)%24 // not lenA
		mask := in.next()
		g := &projGen{in: &in, made: map[types.Kind][]Expr{}}
		var exprs []Expr
		for n := 1 + in.next()%5; n > 0; n-- {
			k := []types.Kind{types.Int64, types.Float64, types.Date, types.Bool, types.String}[in.next()%5]
			exprs = append(exprs, g.expr(k, 3))
		}
		pages := []*column.Page{projFuzzPage(&in, lenA), projFuzzPage(&in, lenB)}
		p, err := NewProjection(exprs, projFuzzSchema)
		if err != nil {
			t.Fatal(err)
		}

		var kept []*column.Vector // the last results under no selection
		var keptPage *column.Page
		for _, shape := range []string{"nil", "empty", "sparse", "all but one"} {
			for _, page := range pages {
				n := page.NumRows()
				var sel []int
				switch shape {
				case "empty":
					sel = []int{}
				case "sparse":
					sel = []int{}
					for row := 0; row < n; row++ {
						if mask>>(row%8)&1 == 1 {
							sel = append(sel, row)
						}
					}
				case "all but one":
					sel = []int{}
					for row := 0; row < n; row++ {
						if row != int(mask)%n {
							sel = append(sel, row)
						}
					}
				}
				got, err := p.EvalRows(page, sel)
				if kept != nil {
					checkRows(t, "a result under no selection, after the next call", exprs, keptPage, nil, kept)
					kept = nil
				}
				what := fmt.Sprintf("%s over %d rows under %s selection %v", Format(exprs), n, shape, sel)
				wantErr := oracleErr(exprs, page, sel)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: error %v, the oracle's %v", what, err, wantErr)
				}
				if err != nil {
					continue
				}
				checkRows(t, what, exprs, page, sel, got)
				if sel == nil {
					kept, keptPage = got, page
				}
			}
		}
	})
}

// oracleErr is the first error the oracle raises on a row sel names (nil:
// every row), entry by entry.
func oracleErr(exprs []Expr, page *column.Page, sel []int) error {
	for i := 0; i < rowsIn(sel, page.NumRows()); i++ {
		row := i
		if sel != nil {
			row = sel[i]
		}
		for _, e := range exprs {
			if _, err := evalRow(e, page, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRows holds vectors indexed by page's rows to the oracle at the rows
// sel names (nil: every row).
func checkRows(t *testing.T, what string, exprs []Expr, page *column.Page, sel []int, got []*column.Vector) {
	t.Helper()
	if len(got) != len(exprs) {
		t.Fatalf("%s: %d vectors for %d entries", what, len(got), len(exprs))
	}
	for i, e := range exprs {
		if got[i].Kind != e.Type() || got[i].Len() != page.NumRows() {
			t.Fatalf("%s: entry %d is %d rows of %s, want %d of %s", what, i, got[i].Len(), got[i].Kind, page.NumRows(), e.Type())
		}
		for k := 0; k < rowsIn(sel, page.NumRows()); k++ {
			row := k
			if sel != nil {
				row = sel[k]
			}
			want, err := evalRow(e, page, row)
			if err != nil {
				t.Fatal(err)
			}
			if g := got[i].Value(row); !sameValue(g, want) {
				t.Fatalf("%s: entry %d (%s) row %d: %s, want %s", what, i, e, row, g, want)
			}
		}
	}
}
