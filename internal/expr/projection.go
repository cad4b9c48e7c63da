package expr

import (
	"fmt"
	"math"
	"strconv"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Projection is a list of expressions prepared for evaluation together,
// page after page, at the rows of a selection. Its results are indexed by
// the input page's rows, like the page's own columns:
//
//   - an entry that is a column reference is the input's vector itself;
//   - every computed node — a whole entry or part of one — is a step,
//     evaluated once per page at the rows the selection names, and a
//     subtree that occurs more than once in the list, such as TPC-H Q1's
//     extendedprice * (1 - discount), is one step read by all of them;
//   - each step writes into page-length buffers the Projection keeps and
//     rewrites on the next call, so that once they have grown to the page
//     nothing is allocated for it. The rows the selection skips hold
//     whatever the buffers held.
//
// A step is one evalAt (kernels.go), which loops under the selection
// whatever the node's kind. Only identical subtrees are merged and
// nothing is moved out from under a conditional (in a value context both
// sides of AND and OR are evaluated anyway), so the rows that can raise
// an error — a division by zero — are exactly the selected ones.
// A Projection serves one caller at a time.
type Projection struct {
	width int        // input columns read: one past the largest ordinal
	steps []projStep // each after the steps it reads
	outs  []int      // per entry: an input ordinal, or width + a step's index
	// cols is, during a call, the input's first width columns, then each
	// step's result; ext is cols as a page, which the steps read.
	cols []*column.Vector
	ext  column.Page
}

// projStep is one computed node whose children are literals or column
// references into Projection.cols, and the storage of its result.
type projStep struct {
	e   Expr
	res store
}

// NewProjection prepares exprs, which are resolved against schema in.
func NewProjection(exprs []Expr, in *types.Schema) (*Projection, error) {
	p := &Projection{}
	for _, e := range exprs {
		for _, c := range ReferencedColumns(e) {
			if c < 0 || c >= in.Len() {
				return nil, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", c, in.Len())
			}
			p.width = max(p.width, c+1)
		}
	}
	// Lower each entry children first, in list order, so a subtree is
	// evaluated where it first occurs; a repeat reads that step.
	shared := map[string]*ColumnRef{}
	step := func(e Expr) *ColumnRef {
		ref := Col(p.width+len(p.steps), fmt.Sprintf("$step%d", len(p.steps)), e.Type())
		p.steps = append(p.steps, projStep{e: e})
		return ref
	}
	var lower func(e Expr) Expr
	lower = func(e Expr) Expr {
		switch e.(type) {
		case *ColumnRef, *Literal:
			return e
		}
		k := shareKey(e)
		if ref := shared[k]; ref != nil {
			return ref
		}
		ref := step(mapChildren(e, lower))
		if k != "" {
			shared[k] = ref
		}
		return ref
	}
	for _, e := range exprs {
		ref, ok := lower(e).(*ColumnRef)
		if !ok { // a literal entry: broadcast to the selected rows
			ref = step(e)
		}
		p.outs = append(p.outs, ref.Index)
	}
	p.cols = make([]*column.Vector, p.width+len(p.steps))
	p.ext.Vectors = p.cols
	return p, nil
}

// Eval evaluates the list at the rows of page that sel names (nil: every
// row) into dst, one vector per expression, indexed by page's rows. The
// vectors are lent: a computed one is the Projection's storage, rewritten
// on the next call, and only its selected rows hold values.
func (p *Projection) Eval(dst []*column.Vector, page *column.Page, sel []int) error {
	if page.NumCols() < p.width {
		return fmt.Errorf("expr: column ordinal %d out of range (%d cols)", p.width-1, page.NumCols())
	}
	n := page.NumRows()
	copy(p.cols, page.Vectors[:p.width])
	for i := range p.steps {
		v, err := evalAt(p.steps[i].e, &p.ext, n, sel, &p.steps[i].res)
		if err != nil {
			return err
		}
		p.cols[p.width+i] = v
	}
	for i, c := range p.outs {
		dst[i] = p.cols[c]
	}
	return nil
}

// Scribble overwrites the storage of every step with garbage (the exec
// package's poison, under test).
func (p *Projection) Scribble() {
	for i := range p.steps {
		p.steps[i].res.scribble()
	}
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
