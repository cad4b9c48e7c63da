package expr

// The evaluator. It walks the expression tree once per page instead of
// once per row: every node is lowered to a typed kernel that processes
// whole column buffers (Ints/Floats/Strings/Bools) with null-bitmap
// propagation. There is no row-at-a-time path; the interpreter the tests
// hold these kernels to lives in oracle_test.go.
//
// Every vector the evaluator computes is indexed by the page's rows, like
// the page's own columns, and written only at the rows of a selection
// (nil: every row); the rows the selection skips hold unspecified data.
// An expression is evaluated in one of two contexts. In value context
// (evalAt) a column reference is the page's own vector and a computed
// node loops under the selection (forRows) into storage of its own, or
// into a store a Projection or a Predicate keeps. In a predicate
// (evalSel) the result is the selection's rows where the predicate is
// TRUE, so AND evaluates its right side only over rows the left side
// kept and OR only over rows the left side rejected. Every comparison and
// BETWEEN, in either context, runs one kernel family (selkernels.go)
// under the incoming selection, over its operands as they lie — columns
// and computed vectors read at the selected rows, literals as scalars:
// its kept rows are the predicate's result, or the TRUE rows of a bool
// vector in value context.
//
// Selections obey two rules every producer and consumer relies on: nil
// means every row of the page, so a predicate that rejects every row
// returns an empty selection that is not nil; and the selection a caller
// passes in is only read — the result is new storage, or the buffer the
// caller gave for it (Predicate.SelectInto).
//
// Null propagation rules (SQL's, and the oracle's):
//   - arithmetic and comparison: NULL if either operand is NULL;
//   - BETWEEN: NULL if the tested value or either bound is NULL;
//   - AND/OR: SQL three-valued logic;
//   - NOT: NULL passes through;
//   - IS [NOT] NULL: never NULL.
// Value buffers at NULL positions hold unspecified data; consumers must
// check the null bitmap first (types.Value extraction already does).
// A division's result holds 0 under a NULL row, since its divisor is
// never read there.

import (
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// operand is a kernel input: a vector indexed by the page's rows, or a
// scalar (from a Literal).
type operand struct {
	vec *column.Vector // nil when scalar
	val types.Value
}

func (o operand) kind() types.Kind {
	if o.vec != nil {
		return o.vec.Kind
	}
	return o.val.Kind
}

func (o operand) isScalar() bool   { return o.vec == nil }
func (o operand) scalarNull() bool { return o.vec == nil && o.val.Null }

func (o operand) nulls() []bool {
	if o.vec != nil {
		return o.vec.Nulls
	}
	return nil
}

// EvalSelection evaluates a boolean predicate into a selection vector of
// the rows where it is true (SQL WHERE semantics: NULL counts as false).
// AND/OR short-circuit through selections as described above.
func EvalSelection(e Expr, page *column.Page) ([]int, error) {
	p, err := NewPredicate(e)
	if err != nil {
		return nil, err
	}
	return p.SelectInto(page, nil, nil)
}

// Predicate is a boolean expression prepared for evaluation page after
// page. It keeps a store for each computed node of its tree — an operand
// such as a + b in a + b > c, a value-context child — which each call
// rewrites at the rows it evaluates, so that once the stores have grown
// to the page nothing is allocated for them. A Predicate serves one
// caller at a time.
type Predicate struct {
	e     Expr
	store store
}

// NewPredicate prepares e, which must be boolean.
func NewPredicate(e Expr) (*Predicate, error) {
	if e.Type() != types.Bool {
		return nil, fmt.Errorf("expr: predicate has type %s", e.Type())
	}
	return &Predicate{e: e}, nil
}

// SelectInto evaluates the predicate over the rows of page that sel names
// (nil: every row), and returns the subsequence of them where it holds,
// with storage for the result: it is written over buf when buf has the
// capacity for it, which lets a caller that is done with one page's
// selection before it asks for the next keep one buffer for all of them.
// buf's contents and length are ignored; it may not overlap sel, which is
// only read.
func (p *Predicate) SelectInto(page *column.Page, sel, buf []int) ([]int, error) {
	return evalSel(p.e, page, sel, buf, &p.store)
}

// EvalConst evaluates a column-free expression (a VALUES item) in value
// context, over the one row of a page without columns; a column reference
// is an error, there being no column to read it from.
func EvalConst(e Expr) (types.Value, error) {
	v, err := evalAt(e, column.NewPage(types.NewSchema()), 1, nil, nil)
	if err != nil {
		return types.Value{}, err
	}
	return v.Value(0), nil
}

func identitySel(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// selBuf returns n entries to write a selection into: buf's storage when
// it is large enough, else fresh. It is never nil, whatever n is: a
// selection cut from it that keeps no row must not read as "every row".
func selBuf(buf []int, n int) []int {
	if buf != nil && cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// evalSel evaluates a predicate into the subset of sel where it holds.
// The result is written over buf when it fits there, else allocated; buf
// may be sel itself — every loop that narrows a selection writes entry k
// only after it has read entry i >= k — which is how the right side of an
// AND narrows what the left side produced, where it lies. s is e's store
// (see store): it holds e's value in value context, and its kids the
// storage of e's children.
func evalSel(e Expr, page *column.Page, sel, buf []int, s *store) ([]int, error) {
	n := page.NumRows()
	switch t := e.(type) {
	case *Compare, *Between:
		kept, _, err := compareSel(e, page, n, sel, buf, s)
		return kept, err
	case *Logic:
		if t.Op == And {
			left, err := evalSel(t.L, page, sel, buf, s.kid(0))
			if err != nil || len(left) == 0 {
				return left, err
			}
			return evalSel(t.R, page, left, left, s.kid(1))
		}
		// OR: the right side only needs to run over rows the left side
		// rejected; merged output stays sorted. sel is read again once the
		// left side is known, and buf may be sel, so the left side gets
		// storage of its own.
		left, err := evalSel(t.L, page, sel, nil, s.kid(0))
		if err != nil {
			return nil, err
		}
		base := sel
		if base == nil {
			base = identitySel(n)
		}
		rest := column.SubtractSel(base, left)
		if len(rest) == 0 {
			return left, nil
		}
		right, err := evalSel(t.R, page, rest, rest, s.kid(1))
		if err != nil {
			return nil, err
		}
		return column.MergeSel(left, right), nil
	}
	// Anything else is evaluated in value context, and its TRUE rows kept.
	v, err := evalAt(e, page, n, sel, s)
	if err != nil {
		return nil, err
	}
	out := selBuf(buf, rowsIn(sel, n))[:0]
	bs, nulls := v.Bools, v.Nulls
	forRows(sel, n, func(i int) {
		if bs[i] && (nulls == nil || !nulls[i]) {
			out = append(out, i)
		}
	})
	return out, nil
}

// operands evaluates the children of an Arith, Compare or Between for a
// kernel: a literal as a scalar, anything else through evalAt at the rows
// sel names, the i-th child into s.kid(i). They sit in an array, not a
// slice, so that reading columns and literals allocates nothing.
func operands(e Expr, page *column.Page, n int, sel []int, s *store) ([3]operand, error) {
	var kids [3]Expr
	switch t := e.(type) {
	case *Arith:
		kids = [3]Expr{t.L, t.R}
	case *Compare:
		kids = [3]Expr{t.L, t.R}
	case *Between:
		kids = [3]Expr{t.E, t.Lo, t.Hi}
	}
	var ops [3]operand
	for i, c := range kids {
		switch c := c.(type) {
		case nil:
		case *Literal:
			ops[i] = operand{val: c.Value}
		default:
			v, err := evalAt(c, page, n, sel, s.kid(i))
			if err != nil {
				return ops, err
			}
			ops[i] = operand{vec: v}
		}
	}
	return ops, nil
}

// evalAt evaluates e in value context at the rows sel names (nil: the
// rows 0..n-1) of page, which has n rows. The result is indexed by the
// page's rows: a column reference is the page's own vector, and a computed
// node writes its value at the selected rows of storage from s (see
// store), leaving the others as they were. Its i-th child is evaluated
// into s.kid(i).
func evalAt(e Expr, page *column.Page, n int, sel []int, s *store) (*column.Vector, error) {
	switch t := e.(type) {
	case *ColumnRef:
		if t.Index < 0 || t.Index >= page.NumCols() {
			return nil, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", t.Index, page.NumCols())
		}
		// Zero copy: vectors are immutable by convention.
		return page.Vectors[t.Index], nil
	case *Literal:
		return broadcastAt(s, t.Value, n, sel), nil
	case *Arith:
		ops, err := operands(e, page, n, sel, s)
		if err != nil {
			return nil, err
		}
		return kernelArith(t, ops[0], ops[1], n, sel, s)
	case *Compare, *Between:
		return compareAt(e, page, n, sel, s)
	case *Logic:
		// Value context evaluates both sides (errors on either side
		// surface exactly as in the oracle); only the selection path
		// short-circuits.
		l, err := evalAt(t.L, page, n, sel, s.kid(0))
		if err != nil {
			return nil, err
		}
		r, err := evalAt(t.R, page, n, sel, s.kid(1))
		if err != nil {
			return nil, err
		}
		return kernelLogic(t.Op, l, r, n, sel, s), nil
	case *Not:
		v, err := evalAt(t.E, page, n, sel, s.kid(0))
		if err != nil {
			return nil, err
		}
		out := s.vector(types.Bool, n)
		bs, vb := out.Bools, v.Bools
		forRows(sel, n, func(i int) { bs[i] = !vb[i] })
		out.Nulls = v.Nulls
		return out, nil
	case *IsNull:
		v, err := evalAt(t.E, page, n, sel, s.kid(0))
		if err != nil {
			return nil, err
		}
		out := s.vector(types.Bool, n)
		bs, nulls, negate := out.Bools, v.Nulls, t.Negate
		if nulls == nil {
			forRows(sel, n, func(i int) { bs[i] = negate })
		} else {
			forRows(sel, n, func(i int) { bs[i] = nulls[i] != negate })
		}
		return out, nil
	case *Cast:
		v, err := evalAt(t.E, page, n, sel, s.kid(0))
		if err != nil {
			return nil, err
		}
		if castCannotFail(t.E.Type(), t.To) {
			return castAt(s, v, t.To, sel), nil
		}
		return coerceAt(s, v, t.To, n, sel)
	default:
		return nil, fmt.Errorf("expr: eval: unknown node %T", e)
	}
}

// compareSel runs the kernel of a Compare or Between over its operands,
// evaluated into s's kids, under sel (nil: the rows 0..n-1), and returns
// the rows it keeps, written over buf when they fit, with the operands.
func compareSel(e Expr, page *column.Page, n int, sel, buf []int, s *store) ([]int, [3]operand, error) {
	ops, err := operands(e, page, n, sel, s)
	if err != nil {
		return nil, ops, err
	}
	var kept []int
	if c, ok := e.(*Compare); ok {
		kept, err = selCompare(c.Op, ops[0], ops[1], n, sel, buf)
	} else {
		kept, err = selBetween(ops[0], ops[1], ops[2], n, sel, buf)
	}
	return kept, ops, err
}

// compareAt is a Compare or Between in value context: the rows its kernel
// keeps read TRUE; the other selected rows read NULL where an operand is
// NULL, FALSE elsewhere.
func compareAt(e Expr, page *column.Page, n int, sel []int, s *store) (*column.Vector, error) {
	kept, ops, err := compareSel(e, page, n, sel, nil, s)
	if err != nil {
		return nil, err
	}
	var masks [3][]bool
	for i, o := range ops {
		if o.scalarNull() {
			return broadcastAt(s, types.NullValue(types.Bool), n, sel), nil
		}
		masks[i] = o.nulls()
	}
	out := s.vector(types.Bool, n)
	bs := out.Bools
	forRows(sel, n, func(i int) { bs[i] = false })
	for _, i := range kept {
		bs[i] = true
	}
	out.Nulls = nullsAt(s, masks, n, sel)
	return out, nil
}

// castCannotFail reports whether types.Coerce converts every value of
// kind from to kind to: the same kind, Int64 either way with Float64 and
// Int64 either way with Date. Those casts have a kernel; the others
// (parsing a string as a date, pairs with no conversion) can fail on a
// row, which then reports itself.
func castCannotFail(from, to types.Kind) bool {
	switch {
	case from == to:
		return true
	case from == types.Int64:
		return to == types.Float64 || to == types.Date
	case from == types.Float64, from == types.Date:
		return to == types.Int64
	}
	return false
}

// castAt converts v, a vector of a kind castCannotFail accepts, to kind
// to at the rows sel names (nil: every row), into s (see store). NULL
// stays NULL; a representation that does not change is shared, not
// copied.
func castAt(s *store, v *column.Vector, to types.Kind, sel []int) *column.Vector {
	if v.Kind == to {
		return v
	}
	n := v.Len()
	var out *column.Vector
	switch {
	case to == types.Float64:
		out = s.vector(to, n)
		xs, fs := v.Ints, out.Floats
		forRows(sel, n, func(i int) { fs[i] = float64(xs[i]) })
	case v.Kind == types.Float64:
		out = s.vector(to, n)
		fs, xs := v.Floats, out.Ints
		forRows(sel, n, func(i int) { xs[i] = int64(fs[i]) })
	default: // Int64 and Date are both day or plain counts in Ints
		out = s.vector(to, 0)
		out.Ints = v.Ints
	}
	out.Nulls = v.Nulls
	return out
}

// coerceAt is a cast castCannotFail refuses: each row sel names converts
// through types.Coerce, so a row that does not convert — a selected one,
// never another — fails the cast.
func coerceAt(s *store, v *column.Vector, to types.Kind, n int, sel []int) (*column.Vector, error) {
	out := s.vector(to, n)
	out.Nulls = s.nullMask(n)
	var err error
	forRows(sel, n, func(i int) {
		c, cerr := types.Coerce(v.Value(i), to)
		if cerr != nil {
			err = cerr
			return
		}
		out.Nulls[i] = c.Null
		switch to {
		case types.Int64, types.Date:
			out.Ints[i] = c.I
		case types.Float64:
			out.Floats[i] = c.F
		case types.String:
			out.Strings[i] = c.S
		case types.Bool:
			out.Bools[i] = c.B
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forRows calls f on each row sel names, or on the rows 0..n-1 when sel
// is nil: the loop every kernel runs. It and the literal
// passed as f are inlined, so the loop body is the literal's.
func forRows(sel []int, n int, f func(i int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	for _, i := range sel {
		f(i)
	}
}

// rowsIn is the number of rows forRows visits.
func rowsIn(sel []int, n int) int {
	if sel != nil {
		return len(sel)
	}
	return n
}

// store is where a kernel writes the result of one node of a Projection
// or a Predicate: page-length buffers, kept at their largest, that each
// pull rewrites at the rows it selects, so that once they have grown to
// the page nothing is allocated or cleared. A nil *store stands for new,
// zeroed storage that the result's receiver keeps. A node's children
// write into its store's kids, so one store holds a whole tree's storage,
// a node's apart from every other's: a kernel never writes where it
// reads.
type store struct {
	buf  column.Vector // the storage: one slice per kind, and a null mask
	vec  column.Vector // the result handed out, cut from buf
	kids [3]*store     // per child, made on first use
}

// kid returns the store of the node's i-th child: nil under a nil store,
// so that a node evaluated into new storage evaluates its children so
// too.
func (s *store) kid(i int) *store {
	if s == nil {
		return nil
	}
	if s.kids[i] == nil {
		s.kids[i] = new(store)
	}
	return s.kids[i]
}

// scribble overwrites the storage of s and of its children's stores.
func (s *store) scribble() {
	if s == nil {
		return
	}
	s.buf.Scribble()
	for _, k := range s.kids {
		k.scribble()
	}
}

// sized returns s cut to n entries, or new storage when s cannot hold
// them; what s held is left in place.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// vector returns an n-row result of kind k, with no null mask.
func (s *store) vector(k types.Kind, n int) *column.Vector {
	var out, buf *column.Vector
	if s != nil {
		s.vec = column.Vector{Kind: k}
		out, buf = &s.vec, &s.buf
	} else {
		out = &column.Vector{Kind: k}
		buf = out
	}
	switch k {
	case types.Int64, types.Date:
		buf.Ints = sized(buf.Ints, n)
		out.Ints = buf.Ints
	case types.Float64:
		buf.Floats = sized(buf.Floats, n)
		out.Floats = buf.Floats
	case types.String:
		buf.Strings = sized(buf.Strings, n)
		out.Strings = buf.Strings
	case types.Bool:
		buf.Bools = sized(buf.Bools, n)
		out.Bools = buf.Bools
	}
	return out
}

// nullMask returns n entries for a result's null mask.
func (s *store) nullMask(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	s.buf.Nulls = sized(s.buf.Nulls, n)
	return s.buf.Nulls
}

// broadcastAt writes the scalar v at the rows sel names (nil: every row)
// of an n-row result in s. A NULL scalar writes NULL with a zero payload.
func broadcastAt(s *store, v types.Value, n int, sel []int) *column.Vector {
	out := s.vector(v.Kind, n)
	if v.Null {
		out.Nulls = s.nullMask(n)
		nulls := out.Nulls
		forRows(sel, n, func(i int) { nulls[i] = true })
		v = types.Value{Kind: v.Kind}
	}
	switch v.Kind {
	case types.Int64, types.Date:
		xs, x := out.Ints, v.I
		forRows(sel, n, func(i int) { xs[i] = x })
	case types.Float64:
		fs, f := out.Floats, v.F
		forRows(sel, n, func(i int) { fs[i] = f })
	case types.String:
		ss, str := out.Strings, v.S
		forRows(sel, n, func(i int) { ss[i] = str })
	case types.Bool:
		bs, b := out.Bools, v.B
		forRows(sel, n, func(i int) { bs[i] = b })
	}
	return out
}

// nullsAt returns the null mask of an n-row result in s that is NULL
// wherever one of masks is (a nil mask has no NULL), written at the rows
// sel names (nil: every row); nil when every mask is nil.
func nullsAt(s *store, masks [3][]bool, n int, sel []int) []bool {
	var out []bool
	for _, m := range masks {
		switch {
		case m == nil:
		case out == nil:
			out = s.nullMask(n)
			forRows(sel, n, func(i int) { out[i] = m[i] })
		default:
			forRows(sel, n, func(i int) { out[i] = out[i] || m[i] })
		}
	}
	return out
}

func isIntKind(k types.Kind) bool { return k == types.Int64 || k == types.Date }

// floatsOf returns the vector's values as a float64 slice, converting
// integer buffers (one pass, one allocation) when needed.
func floatsOf(v *column.Vector) []float64 {
	if v.Kind == types.Float64 {
		return v.Floats
	}
	out := make([]float64, len(v.Ints))
	for i, x := range v.Ints {
		out[i] = float64(x)
	}
	return out
}

type number interface{ ~int64 | ~float64 }

var errDivZero = fmt.Errorf("expr: division by zero")
var errModZero = fmt.Errorf("expr: modulo by zero")

// The arithmetic loops write x op y into out, converted to out's type, at
// the rows sel names (nil: every row of out); a vector operand is read at
// the same rows. A division by zero is an error unless the row is NULL
// (SQL checks nulls before the divisor), and a NULL row's quotient is 0.

// arithVS computes xs op s.
func arithVS[X, T number](op ArithOp, xs []X, s T, out []T, nulls []bool, sel []int) error {
	n := len(out)
	switch op {
	case Add:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) + s })
	case Sub:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) - s })
	case Mul:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) * s })
	case Div:
		if s == 0 {
			return nonNullRowErr(nulls, sel, n, errDivZero)
		}
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) / s })
	}
	return nil
}

// arithSV computes s op ys (for the non-commutative shapes).
func arithSV[Y, T number](op ArithOp, s T, ys []Y, out []T, nulls []bool, sel []int) error {
	n := len(out)
	switch op {
	case Add:
		forRows(sel, n, func(i int) { out[i] = s + T(ys[i]) })
	case Sub:
		forRows(sel, n, func(i int) { out[i] = s - T(ys[i]) })
	case Mul:
		forRows(sel, n, func(i int) { out[i] = s * T(ys[i]) })
	case Div:
		zero := false
		forRows(sel, n, func(i int) {
			switch {
			case nulls != nil && nulls[i]:
				out[i] = 0
			case ys[i] == 0:
				zero = true
			default:
				out[i] = s / T(ys[i])
			}
		})
		if zero {
			return errDivZero
		}
	}
	return nil
}

// arithVV computes xs op ys.
func arithVV[X, Y, T number](op ArithOp, xs []X, ys []Y, out []T, nulls []bool, sel []int) error {
	n := len(out)
	switch op {
	case Add:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) + T(ys[i]) })
	case Sub:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) - T(ys[i]) })
	case Mul:
		forRows(sel, n, func(i int) { out[i] = T(xs[i]) * T(ys[i]) })
	case Div:
		zero := false
		forRows(sel, n, func(i int) {
			switch {
			case nulls != nil && nulls[i]:
				out[i] = 0
			case ys[i] == 0:
				zero = true
			default:
				out[i] = T(xs[i]) / T(ys[i])
			}
		})
		if zero {
			return errDivZero
		}
	}
	return nil
}

// nonNullRowErr returns err if any row sel names (nil: 0..n-1) is
// non-NULL: a NULL row never evaluates its divisor.
func nonNullRowErr(nulls []bool, sel []int, n int, err error) error {
	live := false
	if nulls == nil {
		live = rowsIn(sel, n) > 0
	} else {
		forRows(sel, n, func(i int) { live = live || !nulls[i] })
	}
	if live {
		return err
	}
	return nil
}

// Mod is integer-only, so it gets dedicated loops.
func modVS(xs []int64, s int64, out []int64, nulls []bool, sel []int) error {
	n := len(out)
	if s == 0 {
		return nonNullRowErr(nulls, sel, n, errModZero)
	}
	forRows(sel, n, func(i int) { out[i] = xs[i] % s })
	return nil
}

// modVV computes xs % ys, or s % ys when xs is nil.
func modVV(xs []int64, s int64, ys, out []int64, nulls []bool, sel []int) error {
	zero := false
	forRows(sel, len(out), func(i int) {
		switch {
		case nulls != nil && nulls[i]:
			out[i] = 0
		case ys[i] == 0:
			zero = true
		case xs == nil:
			out[i] = s % ys[i]
		default:
			out[i] = xs[i] % ys[i]
		}
	})
	if zero {
		return errModZero
	}
	return nil
}

// kernelArith evaluates t over its operands, vectors of n rows or
// scalars, at the rows sel names (nil: every row), into s (see store).
func kernelArith(t *Arith, l, r operand, n int, sel []int, s *store) (*column.Vector, error) {
	if l.scalarNull() || r.scalarNull() {
		return broadcastAt(s, types.NullValue(t.kind), n, sel), nil
	}
	if l.isScalar() && r.isScalar() {
		if rowsIn(sel, n) == 0 {
			return s.vector(t.kind, n), nil
		}
		v, err := evalArith(t, l.val, r.val)
		if err != nil {
			return nil, err
		}
		return broadcastAt(s, v, n, sel), nil
	}
	out := s.vector(t.kind, n)
	out.Nulls = nullsAt(s, [3][]bool{l.nulls(), r.nulls()}, n, sel)
	var err error
	if t.kind == types.Float64 {
		err = floatArith(t.Op, l, r, out.Floats, out.Nulls, sel)
	} else {
		err = intArith(t.Op, l, r, out.Ints, out.Nulls, sel)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// floatArith is kernelArith's DOUBLE result: an integer operand is read
// as a float row by row, never converted whole.
func floatArith(op ArithOp, l, r operand, out []float64, nulls []bool, sel []int) error {
	switch {
	case l.isScalar():
		if r.vec.Kind == types.Float64 {
			return arithSV(op, l.val.AsFloat(), r.vec.Floats, out, nulls, sel)
		}
		return arithSV(op, l.val.AsFloat(), r.vec.Ints, out, nulls, sel)
	case r.isScalar():
		if l.vec.Kind == types.Float64 {
			return arithVS(op, l.vec.Floats, r.val.AsFloat(), out, nulls, sel)
		}
		return arithVS(op, l.vec.Ints, r.val.AsFloat(), out, nulls, sel)
	}
	switch lf, rf := l.vec.Kind == types.Float64, r.vec.Kind == types.Float64; {
	case lf && rf:
		return arithVV(op, l.vec.Floats, r.vec.Floats, out, nulls, sel)
	case lf:
		return arithVV(op, l.vec.Floats, r.vec.Ints, out, nulls, sel)
	case rf:
		return arithVV(op, l.vec.Ints, r.vec.Floats, out, nulls, sel)
	default:
		return arithVV(op, l.vec.Ints, r.vec.Ints, out, nulls, sel)
	}
}

// intArith is kernelArith's BIGINT result.
func intArith(op ArithOp, l, r operand, out []int64, nulls []bool, sel []int) error {
	switch {
	case op == Mod && l.isScalar():
		return modVV(nil, l.val.I, r.vec.Ints, out, nulls, sel)
	case op == Mod && r.isScalar():
		return modVS(l.vec.Ints, r.val.I, out, nulls, sel)
	case op == Mod:
		return modVV(l.vec.Ints, 0, r.vec.Ints, out, nulls, sel)
	case l.isScalar():
		return arithSV(op, l.val.I, r.vec.Ints, out, nulls, sel)
	case r.isScalar():
		return arithVS(op, l.vec.Ints, r.val.I, out, nulls, sel)
	default:
		return arithVV(op, l.vec.Ints, r.vec.Ints, out, nulls, sel)
	}
}

// kernelLogic implements SQL three-valued AND/OR over bool vectors at the
// rows sel names (nil: the rows 0..n-1), into s (see store).
func kernelLogic(op LogicOp, l, r *column.Vector, n int, sel []int, s *store) *column.Vector {
	out := s.vector(types.Bool, n)
	bs, lb, rb := out.Bools, l.Bools, r.Bools
	ln, rn := l.Nulls, r.Nulls
	if ln == nil && rn == nil {
		if op == And {
			forRows(sel, n, func(i int) { bs[i] = lb[i] && rb[i] })
		} else {
			forRows(sel, n, func(i int) { bs[i] = lb[i] || rb[i] })
		}
		return out
	}
	out.Nulls = s.nullMask(n)
	nulls := out.Nulls
	decides := op == Or // a side that is not NULL and reads this decides
	forRows(sel, n, func(i int) {
		lNull, rNull := ln != nil && ln[i], rn != nil && rn[i]
		switch {
		case (!lNull && lb[i] == decides) || (!rNull && rb[i] == decides):
			bs[i], nulls[i] = decides, false
		case lNull || rNull:
			bs[i], nulls[i] = false, true
		default:
			bs[i], nulls[i] = !decides, false
		}
	})
	return out
}
