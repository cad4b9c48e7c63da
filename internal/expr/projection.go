package expr

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Projection is a list of expressions prepared for evaluation together,
// page after page, over the rows of a selection. It does two things
// evaluating each expression on its own cannot:
//
//   - each input column the list reads is gathered through the selection
//     once per page, into a dense page every expression is then evaluated
//     over, instead of once per reference;
//   - a subtree that occurs more than once in the list — a whole entry or
//     part of one, such as TPC-H Q1's extendedprice * (1 - discount) — is
//     evaluated at its first occurrence, kept as one more column of the
//     dense page, and read from there by the others.
//
// Only identical subtrees are merged and nothing is moved out from under
// a conditional (in a value context both sides of AND and OR are
// evaluated anyway), so the rows that can raise an error — a division by
// zero — are, as before, exactly the selected ones.
type Projection struct {
	exprs []Expr // as given; evaluated directly when no column is read
	refs  []int  // input ordinals read, ascending: the dense page's first columns
	// steps run in order over the dense page.
	steps  []projStep
	schema *types.Schema // of the dense page once every step has run
}

// projStep is one evaluation over the dense page: of output out, or, when
// out is negative, of a shared subtree whose result is appended to the
// dense page as its next column.
type projStep struct {
	e   Expr
	out int
}

// NewProjection prepares exprs, which are resolved against schema in.
func NewProjection(exprs []Expr, in *types.Schema) (*Projection, error) {
	p := &Projection{exprs: exprs}
	seen := map[int]bool{}
	for _, e := range exprs {
		for _, c := range ReferencedColumns(e) {
			if c < 0 || c >= in.Len() {
				return nil, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", c, in.Len())
			}
			if !seen[c] {
				seen[c] = true
				p.refs = append(p.refs, c)
			}
		}
	}
	if len(p.refs) == 0 {
		// Nothing to gather, and a page without columns has no row count
		// to broadcast a literal to: Eval goes over the input page.
		return p, nil
	}
	slices.Sort(p.refs)
	dense := make(map[int]int, len(p.refs))
	cols := make([]types.Column, len(p.refs))
	for i, c := range p.refs {
		dense[c] = i
		cols[i] = in.Columns[c]
	}

	// Count each subtree once per place it would be evaluated: below a
	// repeat nothing is counted again, so what lies inside a shared
	// subtree is shared with it, not a second time by itself.
	remapped := make([]Expr, len(exprs))
	count := map[string]int{}
	var tally func(e Expr)
	tally = func(e Expr) {
		if k := shareKey(e); k != "" {
			if count[k]++; count[k] > 1 {
				return
			}
		}
		for _, c := range children(e) {
			tally(c)
		}
	}
	for i, e := range exprs {
		r, err := Remap(e, dense)
		if err != nil {
			return nil, err
		}
		remapped[i] = r
		tally(r)
	}

	// Rewrite in list order, children first, so a shared subtree is
	// evaluated where its first occurrence was.
	shared := map[string]*ColumnRef{}
	var rewrite func(e Expr) Expr
	rewrite = func(e Expr) Expr {
		k := shareKey(e)
		if ref := shared[k]; ref != nil {
			return ref
		}
		e = mapChildren(e, rewrite)
		if k == "" || count[k] < 2 {
			return e
		}
		ref := Col(len(cols), fmt.Sprintf("$shared%d", len(cols)-len(p.refs)), e.Type())
		cols = append(cols, types.Column{Name: ref.Name, Type: ref.Kind})
		p.steps = append(p.steps, projStep{e: e, out: -1})
		shared[k] = ref
		return ref
	}
	for i, r := range remapped {
		p.steps = append(p.steps, projStep{e: rewrite(r), out: i})
	}
	p.schema = types.NewSchema(cols...)
	return p, nil
}

// Eval evaluates the list over the rows of page named by sel (nil: every
// row) and returns one dense vector per expression, aligned with the
// selection. Vectors may share buffers with the page and
// with each other.
func (p *Projection) Eval(page *column.Page, sel []int) ([]*column.Vector, error) {
	out := make([]*column.Vector, len(p.exprs))
	if len(p.refs) == 0 {
		for i, e := range p.exprs {
			v, err := evalVec(e, page, sel)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	dense := &column.Page{Schema: p.schema, Vectors: make([]*column.Vector, len(p.refs), p.schema.Len())}
	for i, c := range p.refs {
		if c >= page.NumCols() {
			return nil, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", c, page.NumCols())
		}
		v := page.Vectors[c]
		if sel != nil {
			v = v.Gather(sel)
		}
		dense.Vectors[i] = v
	}
	for _, st := range p.steps {
		v, err := evalVec(st.e, dense, nil)
		if err != nil {
			return nil, err
		}
		if st.out < 0 {
			dense.Vectors = append(dense.Vectors, v)
		} else {
			out[st.out] = v
		}
	}
	return out, nil
}

// shareKey spells an expression so that two subtrees have the same key
// exactly when they compute the same thing from the same columns: nodes by
// operator and operands, columns by ordinal (names repeat across a join's
// sides), literals by kind and exact value. Leaves, which cost nothing to
// evaluate twice, and nodes of a kind this package does not know have the
// empty key and are never shared.
func shareKey(e Expr) string {
	switch e.(type) {
	case *ColumnRef, *Literal:
		return ""
	}
	return nodeKey(e)
}

// nodeKey spells a node as (name child child …); it is empty when the
// node or anything below it is of an unknown kind.
func nodeKey(e Expr) string {
	var name string
	switch t := e.(type) {
	case *ColumnRef:
		return "#" + strconv.Itoa(t.Index)
	case *Literal:
		v := t.Value
		switch {
		case v.Null:
			return v.Kind.String() + ":null"
		case v.Kind == types.Float64:
			// Bit pattern: -0.0 is not +0.0 under division.
			return "f:" + strconv.FormatUint(math.Float64bits(v.F), 16)
		case v.Kind == types.String:
			return strconv.Quote(v.S)
		default:
			return v.Kind.String() + ":" + v.String()
		}
	case *Arith:
		name = "arith" + t.Op.String()
	case *Compare:
		name = "cmp" + t.Op.String()
	case *Logic:
		name = t.Op.String()
	case *Not:
		name = "not"
	case *Between:
		name = "between"
	case *Cast:
		name = "cast:" + t.To.String()
	case *IsNull:
		name = "isnull"
		if t.Negate {
			name = "notnull"
		}
	default:
		return ""
	}
	key := "(" + name
	for _, c := range children(e) {
		k := nodeKey(c)
		if k == "" {
			return ""
		}
		key += " " + k
	}
	return key + ")"
}
