package expr

// The evaluator. It walks the expression tree once per page instead of
// once per row: every node is lowered to a typed kernel that processes
// whole column buffers (Ints/Floats/Strings/Bools) with null-bitmap
// propagation. There is no row-at-a-time path; the interpreter the tests
// hold these kernels to lives in oracle_test.go.
//
// An expression is evaluated in one of three contexts. In value context
// (evalVec) the result is a dense vector aligned with the selection. In
// a predicate (evalSel) the result is the selection's rows where the
// predicate is TRUE, so AND evaluates its right side only over rows the
// left side kept and OR only over rows the left side rejected. Every
// comparison and BETWEEN, in either context, runs one kernel family
// (selkernels.go): in a predicate whose operands are columns and
// literals, the kernel reads the columns where they lie, under the
// incoming selection; otherwise the operands are evaluated densely, and
// the kernel's kept positions become the TRUE entries of a bool vector
// (value context) or, through it, the rows of the selection (predicate).
// In a projection (Projection, projection.go) the result is indexed by
// the page's rows, like the page's own columns, and written only at the
// rows the selection names: arithmetic, casts that cannot fail and
// literals loop under the selection (forRows) into buffers the
// Projection keeps, and value context is the case of those same loops
// with no selection over dense operands.
//
// Selections obey two rules every producer and consumer relies on: nil
// means every row of the page, so a predicate that rejects every row
// returns an empty selection that is not nil; and the selection a caller
// passes in is only read — the result is new storage, or the buffer the
// caller gave for it (EvalSelectionInto).
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

// operand is a kernel input: a vector or a scalar (from a Literal). A
// vector is either dense, aligned with the active selection, or a page
// column read in place, indexed by the selection's rows.
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
	return EvalSelectionInto(e, page, nil, nil)
}

// EvalSelectionInto is EvalSelection restricted to a base selection sel
// (nil: every row), whose subsequence it returns, with storage for the
// result: it is written over buf when buf has the capacity for it, which
// lets a caller that is done with one page's selection before it asks
// for the next keep one buffer for all of them. buf's contents and length
// are ignored; it may not overlap sel, which is only read.
func EvalSelectionInto(e Expr, page *column.Page, sel, buf []int) ([]int, error) {
	if e.Type() != types.Bool {
		return nil, fmt.Errorf("expr: predicate has type %s", e.Type())
	}
	return evalSel(e, page, sel, buf)
}

// EvalConst evaluates a column-free expression (a VALUES item) as evalVec
// does, over a page without columns and a selection of one row; a column
// reference is an error, there being no column to read it from.
func EvalConst(e Expr) (types.Value, error) {
	v, err := evalVec(e, column.NewPage(types.NewSchema()), []int{0})
	if err != nil {
		return types.Value{}, err
	}
	return v.Value(0), nil
}

func selLen(page *column.Page, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return page.NumRows()
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

// inPlace returns e as an operand a kernel reads where it lies — a column
// of the page or a literal's value — and false for anything else,
// including a column the page does not have.
func inPlace(e Expr, page *column.Page) (operand, bool) {
	switch t := e.(type) {
	case *Literal:
		return operand{val: t.Value}, true
	case *ColumnRef:
		if t.Index >= 0 && t.Index < page.NumCols() {
			return operand{vec: page.Vectors[t.Index]}, true
		}
	}
	return operand{}, false
}

// evalSel evaluates a predicate into the subset of sel where it holds.
// The result is written over buf when it fits there, else allocated; buf
// may be sel itself — every loop that narrows a selection writes entry k
// only after it has read entry i >= k — which is how the right side of an
// AND narrows what the left side produced, where it lies.
func evalSel(e Expr, page *column.Page, sel, buf []int) ([]int, error) {
	switch t := e.(type) {
	case *Compare:
		l, okL := inPlace(t.L, page)
		r, okR := inPlace(t.R, page)
		if okL && okR {
			return selCompare(t.Op, l, r, page.NumRows(), sel, buf)
		}
	case *Between:
		v, okV := inPlace(t.E, page)
		lo, okLo := inPlace(t.Lo, page)
		hi, okHi := inPlace(t.Hi, page)
		if okV && okLo && okHi {
			return selBetween(v, lo, hi, page.NumRows(), sel, buf)
		}
	case *Logic:
		if t.Op == And {
			left, err := evalSel(t.L, page, sel, buf)
			if err != nil || len(left) == 0 {
				return left, err
			}
			return evalSel(t.R, page, left, left)
		}
		// OR: the right side only needs to run over rows the left side
		// rejected; merged output stays sorted. sel is read again once the
		// left side is known, and buf may be sel, so the left side gets
		// storage of its own.
		left, err := evalSel(t.L, page, sel, nil)
		if err != nil {
			return nil, err
		}
		base := sel
		if base == nil {
			base = identitySel(page.NumRows())
		}
		rest := column.SubtractSel(base, left)
		if len(rest) == 0 {
			return left, nil
		}
		right, err := evalSel(t.R, page, rest, rest)
		if err != nil {
			return nil, err
		}
		return column.MergeSel(left, right), nil
	}
	// Anything else, a comparison with a computed operand included, is
	// evaluated in value context, densely over sel, and its TRUE positions
	// are mapped back to the rows of sel they stand for.
	v, err := evalVec(e, page, sel)
	if err != nil {
		return nil, err
	}
	n := v.Len()
	out := selBuf(buf, n)[:0]
	if sel == nil {
		for i := 0; i < n; i++ {
			if v.Bools[i] && (v.Nulls == nil || !v.Nulls[i]) {
				out = append(out, i)
			}
		}
		return out, nil
	}
	for i, row := range sel {
		if v.Bools[i] && (v.Nulls == nil || !v.Nulls[i]) {
			out = append(out, row)
		}
	}
	return out, nil
}

// compareVec is a Compare or Between in value context: its operands are
// evaluated densely over sel, and the comparison kernel runs over their
// positions. The result is TRUE where the kernel keeps a position, NULL
// where an operand is NULL, and FALSE elsewhere.
func compareVec(e Expr, page *column.Page, sel []int) (*column.Vector, error) {
	n := selLen(page, sel)
	var ops [3]operand
	var nulls []bool
	for i, c := range children(e) {
		o, err := evalOperand(c, page, sel)
		if err != nil {
			return nil, err
		}
		ops[i] = o
		if o.scalarNull() {
			nulls = broadcastAt(nil, types.NullValue(types.Bool), n, nil).Nulls
		} else {
			nulls = orNulls(nulls, o.nulls(), n)
		}
	}
	var pos []int
	var err error
	if c, ok := e.(*Compare); ok {
		pos, err = selCompare(c.Op, ops[0], ops[1], n, nil, nil)
	} else {
		pos, err = selBetween(ops[0], ops[1], ops[2], n, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	out := &column.Vector{Kind: types.Bool, Bools: make([]bool, n), Nulls: nulls}
	for _, p := range pos {
		out.Bools[p] = true
	}
	return out, nil
}

// evalVec is the batch evaluator: a dense result vector aligned with sel.
func evalVec(e Expr, page *column.Page, sel []int) (*column.Vector, error) {
	n := selLen(page, sel)
	switch t := e.(type) {
	case *ColumnRef:
		if t.Index < 0 || t.Index >= page.NumCols() {
			return nil, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", t.Index, page.NumCols())
		}
		v := page.Vectors[t.Index]
		if sel == nil {
			// Zero copy: vectors are immutable by convention.
			return v, nil
		}
		return v.Gather(sel), nil
	case *Literal:
		return broadcastAt(nil, t.Value, n, nil), nil
	case *Arith:
		l, err := evalOperand(t.L, page, sel)
		if err != nil {
			return nil, err
		}
		r, err := evalOperand(t.R, page, sel)
		if err != nil {
			return nil, err
		}
		return kernelArith(t, l, r, n, nil, nil)
	case *Compare, *Between:
		return compareVec(e, page, sel)
	case *Logic:
		// Value context evaluates both sides (errors on either side
		// surface exactly as in the oracle); only the selection path
		// short-circuits.
		l, err := evalVec(t.L, page, sel)
		if err != nil {
			return nil, err
		}
		r, err := evalVec(t.R, page, sel)
		if err != nil {
			return nil, err
		}
		return kernelLogic(t.Op, l, r, n), nil
	case *Not:
		v, err := evalVec(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		out := column.NewVector(types.Bool)
		out.Bools = make([]bool, n)
		for i, b := range v.Bools {
			out.Bools[i] = !b
		}
		out.Nulls = v.Nulls
		return out, nil
	case *IsNull:
		if lit, ok := t.E.(*Literal); ok {
			return broadcastAt(nil, types.BoolValue(lit.Value.Null != t.Negate), n, nil), nil
		}
		v, err := evalVec(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		out := column.NewVector(types.Bool)
		out.Bools = make([]bool, n)
		if v.Nulls == nil {
			if t.Negate {
				for i := range out.Bools {
					out.Bools[i] = true
				}
			}
			return out, nil
		}
		for i, isNull := range v.Nulls {
			out.Bools[i] = isNull != t.Negate
		}
		return out, nil
	case *Cast:
		v, err := evalVec(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		if castCannotFail(t.E.Type(), t.To) {
			return castAt(nil, v, t.To, nil), nil
		}
		// A cast that can fail converts row by row; only the selected rows
		// are in v, so only they can fail.
		out := column.NewVector(t.To)
		out.Reserve(n)
		for i := 0; i < n; i++ {
			c, err := types.Coerce(v.Value(i), t.To)
			if err != nil {
				return nil, err
			}
			out.Append(c)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: eval: unknown node %T", e)
	}
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

func evalOperand(e Expr, page *column.Page, sel []int) (operand, error) {
	if lit, ok := e.(*Literal); ok {
		return operand{val: lit.Value}, nil
	}
	v, err := evalVec(e, page, sel)
	if err != nil {
		return operand{}, err
	}
	return operand{vec: v}, nil
}

// forRows calls f on each row sel names, or on the rows 0..n-1 when sel
// is nil: the loop every kernel of a projection runs. It and the literal
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

// store is where a kernel writes the result of one node of a
// Projection: page-length buffers, kept at their largest, that each pull
// rewrites at the rows it selects, so that once they have grown to the
// page nothing is allocated or cleared. A nil *store stands for fresh,
// zeroed storage that the result's receiver keeps.
type store struct {
	buf column.Vector // the storage: one slice per kind, and a null mask
	vec column.Vector // the result handed out, cut from buf
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

// orNulls combines two null bitmaps; nil when neither side has nulls.
func orNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	orNullsAt(out, a, b, nil)
	return out
}

// orNullsAt writes a OR b (a nil mask has no NULL) into dst at the rows
// sel names (nil: every row of dst).
func orNullsAt(dst, a, b []bool, sel []int) {
	n := len(dst)
	switch {
	case a == nil:
		forRows(sel, n, func(i int) { dst[i] = b[i] })
	case b == nil:
		forRows(sel, n, func(i int) { dst[i] = a[i] })
	default:
		forRows(sel, n, func(i int) { dst[i] = a[i] || b[i] })
	}
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
	if ln, rn := l.nulls(), r.nulls(); ln != nil || rn != nil {
		out.Nulls = s.nullMask(n)
		orNullsAt(out.Nulls, ln, rn, sel)
	}
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

// kernelLogic implements SQL three-valued AND/OR over bool vectors.
func kernelLogic(op LogicOp, l, r *column.Vector, n int) *column.Vector {
	out := column.NewVector(types.Bool)
	out.Bools = make([]bool, n)
	lb, rb := l.Bools, r.Bools
	ln, rn := l.Nulls, r.Nulls
	if ln == nil && rn == nil {
		if op == And {
			for i, b := range lb {
				out.Bools[i] = b && rb[i]
			}
		} else {
			for i, b := range lb {
				out.Bools[i] = b || rb[i]
			}
		}
		return out
	}
	nulls := make([]bool, n)
	if op == And {
		for i := 0; i < n; i++ {
			lNull := ln != nil && ln[i]
			rNull := rn != nil && rn[i]
			switch {
			case (!lNull && !lb[i]) || (!rNull && !rb[i]):
				// definitively false
			case lNull || rNull:
				nulls[i] = true
			default:
				out.Bools[i] = true
			}
		}
	} else {
		for i := 0; i < n; i++ {
			lNull := ln != nil && ln[i]
			rNull := rn != nil && rn[i]
			switch {
			case (!lNull && lb[i]) || (!rNull && rb[i]):
				out.Bools[i] = true
			case lNull || rNull:
				nulls[i] = true
			}
		}
	}
	out.Nulls = nulls
	return out
}
