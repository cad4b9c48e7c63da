package expr

// Vectorized execution kernels. The batch evaluator walks the expression
// tree once per page instead of once per row: every node is lowered to a
// typed kernel that processes whole column buffers (Ints/Floats/Strings/
// Bools) with null-bitmap propagation. Predicates additionally evaluate
// through selection vectors (sorted row-index slices), so AND evaluates
// its right side only over rows the left side kept and OR only over rows
// the left side rejected. A comparison or BETWEEN of a column against
// literals (selkernels.go) reads the column where it lies, under the
// incoming selection, and writes the outgoing one: no operand is gathered
// and no bool vector is built.
//
// Selections obey two rules every producer and consumer relies on: nil
// means every row of the page, so a predicate that rejects every row
// returns an empty selection that is not nil; and the selection a caller
// passes in is only read — the result is new storage, or the buffer the
// caller gave for it (EvalSelectionInto).
//
// Null propagation rules (matching the row-wise evaluator exactly):
//   - arithmetic and comparison: NULL if either operand is NULL;
//   - BETWEEN: NULL if the tested value or either bound is NULL;
//   - AND/OR: SQL three-valued logic;
//   - NOT: NULL passes through;
//   - IS [NOT] NULL: never NULL.
// Value buffers at NULL positions hold unspecified data; consumers must
// check the null bitmap first (types.Value extraction already does).
//
// Any node without a kernel (a Cast that can fail, future extensions)
// falls back to the row-wise evalRow transparently, per row of the active
// selection.

import (
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// operand is an evaluated kernel input: either a dense vector aligned
// with the active selection, or a scalar (from a Literal).
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

// EvalOver evaluates the expression over the rows named by sel (nil means
// every row of the page), returning a dense vector with len(sel) rows
// aligned with the selection. This is the batch entry point used by the
// exec operators; Eval is EvalOver with a nil selection.
func EvalOver(e Expr, page *column.Page, sel []int) (*column.Vector, error) {
	return evalVec(e, page, sel)
}

// EvalSelection evaluates a boolean predicate into a selection vector of
// the rows where it is true (SQL WHERE semantics: NULL counts as false).
// AND/OR short-circuit through selections as described above.
func EvalSelection(e Expr, page *column.Page) ([]int, error) {
	return EvalSelectionInto(e, page, nil, nil)
}

// EvalSelectionOver is EvalSelection restricted to a base selection; the
// result is a subsequence of sel (nil means all rows).
func EvalSelectionOver(e Expr, page *column.Page, sel []int) ([]int, error) {
	return EvalSelectionInto(e, page, sel, nil)
}

// EvalSelectionInto is EvalSelectionOver with storage for the result: it
// is written over buf when buf has the capacity for it, which lets a
// caller that is done with one page's selection before it asks for the
// next keep one buffer for all of them. buf's contents and length are
// ignored; it may not overlap sel, which is only read.
func EvalSelectionInto(e Expr, page *column.Page, sel, buf []int) ([]int, error) {
	if e.Type() != types.Bool {
		return nil, fmt.Errorf("expr: predicate has type %s", e.Type())
	}
	return evalSel(e, page, sel, buf)
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

// evalSel evaluates a predicate into the subset of sel where it holds.
// The result is written over buf when it fits there, else allocated; buf
// may be sel itself — every loop that narrows a selection writes entry k
// only after it has read entry i >= k — which is how the right side of an
// AND narrows what the left side produced, where it lies.
func evalSel(e Expr, page *column.Page, sel, buf []int) ([]int, error) {
	switch t := e.(type) {
	case *Compare:
		if out, ok := selCompare(t, page, sel, buf); ok {
			return out, nil
		}
	case *Between:
		if out, ok := selBetween(t, page, sel, buf); ok {
			return out, nil
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
		return broadcast(t.Value, n), nil
	case *Arith:
		l, err := evalOperand(t.L, page, sel)
		if err != nil {
			return nil, err
		}
		r, err := evalOperand(t.R, page, sel)
		if err != nil {
			return nil, err
		}
		return kernelArith(t, l, r, n)
	case *Compare:
		l, err := evalOperand(t.L, page, sel)
		if err != nil {
			return nil, err
		}
		r, err := evalOperand(t.R, page, sel)
		if err != nil {
			return nil, err
		}
		return kernelCompare(t.Op, l, r, n)
	case *Logic:
		// Value context evaluates both sides (errors on either side
		// surface exactly as in the row-wise evaluator); only the
		// selection path short-circuits.
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
	case *Between:
		ev, err := evalOperand(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		lo, err := evalOperand(t.Lo, page, sel)
		if err != nil {
			return nil, err
		}
		hi, err := evalOperand(t.Hi, page, sel)
		if err != nil {
			return nil, err
		}
		// NULL if value or either bound is NULL — combine the raw bounds
		// checks and OR the null masks (each side already carries the
		// tested value's nulls).
		ge, err := kernelCompare(Ge, ev, lo, n)
		if err != nil {
			return nil, err
		}
		le, err := kernelCompare(Le, ev, hi, n)
		if err != nil {
			return nil, err
		}
		out := column.NewVector(types.Bool)
		out.Bools = make([]bool, n)
		for i := range out.Bools {
			out.Bools[i] = ge.Bools[i] && le.Bools[i]
		}
		out.Nulls = orNulls(ge.Nulls, le.Nulls, n)
		return out, nil
	case *IsNull:
		if lit, ok := t.E.(*Literal); ok {
			return broadcast(types.BoolValue(lit.Value.Null != t.Negate), n), nil
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
		if !castCannotFail(t.E.Type(), t.To) {
			return fallbackVec(e, page, sel, n)
		}
		v, err := evalVec(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		return castVec(v, t.To, n), nil
	default:
		// Transparent row-wise fallback for nodes without kernels
		// (unknown extensions).
		return fallbackVec(e, page, sel, n)
	}
}

// castCannotFail reports whether types.Coerce converts every value of
// kind from to kind to: the same kind, Int64 either way with Float64 and
// Int64 either way with Date. Those casts have a kernel; the others
// (parsing a string as a date, pairs with no conversion) can fail on a
// row and stay row-wise, where the failing row reports itself.
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

// castVec converts v, n rows of a kind castCannotFail accepts, to kind to.
// NULL stays NULL; whole buffers are shared where the representation is
// the same.
func castVec(v *column.Vector, to types.Kind, n int) *column.Vector {
	if v.Kind == to {
		return v
	}
	out := &column.Vector{Kind: to, Nulls: v.Nulls}
	switch {
	case to == types.Float64:
		out.Floats = floatsOf(v, n)
	case v.Kind == types.Float64:
		out.Ints = make([]int64, n)
		for i, f := range v.Floats {
			out.Ints[i] = int64(f)
		}
	default: // Int64 and Date are both day or plain counts in Ints
		out.Ints = v.Ints
	}
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

func fallbackVec(e Expr, page *column.Page, sel []int, n int) (*column.Vector, error) {
	out := column.NewVector(e.Type())
	out.Reserve(n)
	if sel == nil {
		for i := 0; i < n; i++ {
			v, err := evalRow(e, page, i)
			if err != nil {
				return nil, err
			}
			out.Append(v)
		}
		return out, nil
	}
	for _, row := range sel {
		v, err := evalRow(e, page, row)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// broadcast materializes a scalar as an n-row vector.
func broadcast(v types.Value, n int) *column.Vector {
	out := column.NewVector(v.Kind)
	if v.Null {
		return allNullVec(v.Kind, n)
	}
	switch v.Kind {
	case types.Int64, types.Date:
		out.Ints = make([]int64, n)
		for i := range out.Ints {
			out.Ints[i] = v.I
		}
	case types.Float64:
		out.Floats = make([]float64, n)
		for i := range out.Floats {
			out.Floats[i] = v.F
		}
	case types.String:
		out.Strings = make([]string, n)
		for i := range out.Strings {
			out.Strings[i] = v.S
		}
	case types.Bool:
		out.Bools = make([]bool, n)
		for i := range out.Bools {
			out.Bools[i] = v.B
		}
	}
	return out
}

func allNullVec(k types.Kind, n int) *column.Vector {
	out := column.NewVector(k)
	out.Nulls = make([]bool, n)
	for i := range out.Nulls {
		out.Nulls[i] = true
	}
	switch k {
	case types.Int64, types.Date:
		out.Ints = make([]int64, n)
	case types.Float64:
		out.Floats = make([]float64, n)
	case types.String:
		out.Strings = make([]string, n)
	case types.Bool:
		out.Bools = make([]bool, n)
	}
	return out
}

// orNulls combines two null bitmaps; nil when neither side has nulls.
func orNulls(a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	out := make([]bool, n)
	if a != nil {
		copy(out, a)
	}
	if b != nil {
		for i, isNull := range b {
			if isNull {
				out[i] = true
			}
		}
	}
	return out
}

func isIntKind(k types.Kind) bool { return k == types.Int64 || k == types.Date }

// floatsOf returns the operand's values as a float64 slice, converting
// integer buffers (one pass, one allocation) when needed.
func floatsOf(v *column.Vector, n int) []float64 {
	if v.Kind == types.Float64 {
		return v.Floats
	}
	out := make([]float64, n)
	for i, x := range v.Ints {
		out[i] = float64(x)
	}
	return out
}

// cmpOrd covers the kinds whose comparison lowers to Go operators
// directly. Floats join them (selOrd) against a scalar that is not NaN,
// which is why cmpVS writes > and >= as negations: see selkernels.go.
type cmpOrd interface{ ~int64 | ~string }

func cmpVS[T selOrd](op CmpOp, xs []T, s T, out []bool) {
	switch op {
	case Eq:
		for i, x := range xs {
			out[i] = x == s
		}
	case Ne:
		for i, x := range xs {
			out[i] = x != s
		}
	case Lt:
		for i, x := range xs {
			out[i] = x < s
		}
	case Le:
		for i, x := range xs {
			out[i] = x <= s
		}
	case Gt:
		for i, x := range xs {
			out[i] = !(x <= s)
		}
	case Ge:
		for i, x := range xs {
			out[i] = !(x < s)
		}
	}
}

func cmpVV[T cmpOrd](op CmpOp, xs, ys []T, out []bool) {
	switch op {
	case Eq:
		for i, x := range xs {
			out[i] = x == ys[i]
		}
	case Ne:
		for i, x := range xs {
			out[i] = x != ys[i]
		}
	case Lt:
		for i, x := range xs {
			out[i] = x < ys[i]
		}
	case Le:
		for i, x := range xs {
			out[i] = x <= ys[i]
		}
	case Gt:
		for i, x := range xs {
			out[i] = x > ys[i]
		}
	case Ge:
		for i, x := range xs {
			out[i] = x >= ys[i]
		}
	}
}

func cmpFloatVS(op CmpOp, xs []float64, s float64, out []bool) {
	if s == s {
		cmpVS(op, xs, s, out)
		return
	}
	accept := cmpAccept(op)
	for i, x := range xs {
		out[i] = accept[types.CompareFloat(x, s)+1]
	}
}

func cmpFloatVV(op CmpOp, xs, ys []float64, out []bool) {
	accept := cmpAccept(op)
	for i, x := range xs {
		out[i] = accept[types.CompareFloat(x, ys[i])+1]
	}
}

func boolsToInts(bs []bool) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		if b {
			out[i] = 1
		}
	}
	return out
}

func kernelCompare(op CmpOp, l, r operand, n int) (*column.Vector, error) {
	if l.scalarNull() || r.scalarNull() {
		return allNullVec(types.Bool, n), nil
	}
	if l.isScalar() && r.isScalar() {
		return broadcast(types.BoolValue(cmpHolds(op, types.Compare(l.val, r.val))), n), nil
	}
	if l.isScalar() {
		// s < x ⇔ x > s: scalar-vs-vector reuses the vector-vs-scalar loops.
		l, r = r, l
		op = op.Mirror()
	}
	out := column.NewVector(types.Bool)
	out.Bools = make([]bool, n)
	lk, rk := l.kind(), r.kind()
	switch {
	case isIntKind(lk) && isIntKind(rk):
		if r.isScalar() {
			cmpVS(op, l.vec.Ints, r.val.I, out.Bools)
		} else {
			cmpVV(op, l.vec.Ints, r.vec.Ints, out.Bools)
		}
	case lk.Numeric() && rk.Numeric():
		xs := floatsOf(l.vec, n)
		if r.isScalar() {
			cmpFloatVS(op, xs, r.val.AsFloat(), out.Bools)
		} else {
			cmpFloatVV(op, xs, floatsOf(r.vec, n), out.Bools)
		}
	case lk == types.String && rk == types.String:
		if r.isScalar() {
			cmpVS(op, l.vec.Strings, r.val.S, out.Bools)
		} else {
			cmpVV(op, l.vec.Strings, r.vec.Strings, out.Bools)
		}
	case lk == types.Bool && rk == types.Bool:
		xs := boolsToInts(l.vec.Bools)
		if r.isScalar() {
			var s int64
			if r.val.B {
				s = 1
			}
			cmpVS(op, xs, s, out.Bools)
		} else {
			cmpVV(op, xs, boolsToInts(r.vec.Bools), out.Bools)
		}
	default:
		return nil, fmt.Errorf("expr: cannot compare %s to %s", lk, rk)
	}
	out.Nulls = orNulls(l.nulls(), r.nulls(), n)
	return out, nil
}

type number interface{ ~int64 | ~float64 }

var errDivZero = fmt.Errorf("expr: division by zero")
var errModZero = fmt.Errorf("expr: modulo by zero")

// arithVS computes xs op s. Division by zero is an error unless the row
// is NULL (the row-wise evaluator checks nulls before the divisor).
func arithVS[T number](op ArithOp, xs []T, s T, out []T, nulls []bool) error {
	switch op {
	case Add:
		for i, x := range xs {
			out[i] = x + s
		}
	case Sub:
		for i, x := range xs {
			out[i] = x - s
		}
	case Mul:
		for i, x := range xs {
			out[i] = x * s
		}
	case Div:
		if s == 0 {
			return firstNonNullErr(len(xs), nulls, errDivZero)
		}
		for i, x := range xs {
			out[i] = x / s
		}
	}
	return nil
}

// arithSV computes s op xs (for the non-commutative shapes).
func arithSV[T number](op ArithOp, s T, xs []T, out []T, nulls []bool) error {
	switch op {
	case Add:
		for i, x := range xs {
			out[i] = s + x
		}
	case Sub:
		for i, x := range xs {
			out[i] = s - x
		}
	case Mul:
		for i, x := range xs {
			out[i] = s * x
		}
	case Div:
		for i, x := range xs {
			if nulls != nil && nulls[i] {
				continue
			}
			if x == 0 {
				return errDivZero
			}
			out[i] = s / x
		}
	}
	return nil
}

func arithVV[T number](op ArithOp, xs, ys, out []T, nulls []bool) error {
	switch op {
	case Add:
		for i, x := range xs {
			out[i] = x + ys[i]
		}
	case Sub:
		for i, x := range xs {
			out[i] = x - ys[i]
		}
	case Mul:
		for i, x := range xs {
			out[i] = x * ys[i]
		}
	case Div:
		for i, x := range xs {
			if nulls != nil && nulls[i] {
				continue
			}
			if ys[i] == 0 {
				return errDivZero
			}
			out[i] = x / ys[i]
		}
	}
	return nil
}

// firstNonNullErr returns err if any of the n rows is non-NULL (a NULL
// row never evaluates its divisor row-wise).
func firstNonNullErr(n int, nulls []bool, err error) error {
	if nulls == nil {
		if n > 0 {
			return err
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if !nulls[i] {
			return err
		}
	}
	return nil
}

// Mod is integer-only, so it gets dedicated loops.
func modVS(xs []int64, s int64, out []int64, nulls []bool) error {
	if s == 0 {
		return firstNonNullErr(len(xs), nulls, errModZero)
	}
	for i, x := range xs {
		out[i] = x % s
	}
	return nil
}

func modSV(s int64, xs []int64, out []int64, nulls []bool) error {
	for i, x := range xs {
		if nulls != nil && nulls[i] {
			continue
		}
		if x == 0 {
			return errModZero
		}
		out[i] = s % x
	}
	return nil
}

func modVV(xs, ys, out []int64, nulls []bool) error {
	for i, x := range xs {
		if nulls != nil && nulls[i] {
			continue
		}
		if ys[i] == 0 {
			return errModZero
		}
		out[i] = x % ys[i]
	}
	return nil
}

func kernelArith(t *Arith, l, r operand, n int) (*column.Vector, error) {
	if l.scalarNull() || r.scalarNull() {
		return allNullVec(t.kind, n), nil
	}
	if l.isScalar() && r.isScalar() {
		v, err := evalArith(t, l.val, r.val)
		if err != nil {
			return nil, err
		}
		return broadcast(v, n), nil
	}
	out := column.NewVector(t.kind)
	nulls := orNulls(l.nulls(), r.nulls(), n)
	var err error
	if t.kind == types.Float64 {
		out.Floats = make([]float64, n)
		switch {
		case l.isScalar():
			err = arithSV(t.Op, l.val.AsFloat(), floatsOf(r.vec, n), out.Floats, nulls)
		case r.isScalar():
			err = arithVS(t.Op, floatsOf(l.vec, n), r.val.AsFloat(), out.Floats, nulls)
		default:
			err = arithVV(t.Op, floatsOf(l.vec, n), floatsOf(r.vec, n), out.Floats, nulls)
		}
	} else {
		out.Ints = make([]int64, n)
		switch {
		case t.Op == Mod && l.isScalar():
			err = modSV(l.val.I, r.vec.Ints, out.Ints, nulls)
		case t.Op == Mod && r.isScalar():
			err = modVS(l.vec.Ints, r.val.I, out.Ints, nulls)
		case t.Op == Mod:
			err = modVV(l.vec.Ints, r.vec.Ints, out.Ints, nulls)
		case l.isScalar():
			err = arithSV(t.Op, l.val.I, r.vec.Ints, out.Ints, nulls)
		case r.isScalar():
			err = arithVS(t.Op, l.vec.Ints, r.val.I, out.Ints, nulls)
		default:
			err = arithVV(t.Op, l.vec.Ints, r.vec.Ints, out.Ints, nulls)
		}
	}
	if err != nil {
		return nil, err
	}
	out.Nulls = nulls
	return out, nil
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
