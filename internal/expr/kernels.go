package expr

// The evaluator. It walks the expression tree once per page instead of
// once per row: every node is lowered to a typed kernel that processes
// whole column buffers (Ints/Floats/Strings/Bools) with null-bitmap
// propagation. There is no row-at-a-time path; the interpreter the tests
// hold these kernels to lives in oracle_test.go.
//
// An expression is evaluated in one of two contexts. In value context
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
			nulls = allNullVec(types.Bool, n).Nulls
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
		v, err := evalVec(t.E, page, sel)
		if err != nil {
			return nil, err
		}
		if castCannotFail(t.E.Type(), t.To) {
			return castVec(v, t.To, n), nil
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
		out.Floats = floatsOf(v)
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

// arithVS computes xs op s. Division by zero is an error unless the row
// is NULL (SQL checks nulls before the divisor).
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
// row never evaluates its divisor).
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
			err = arithSV(t.Op, l.val.AsFloat(), floatsOf(r.vec), out.Floats, nulls)
		case r.isScalar():
			err = arithVS(t.Op, floatsOf(l.vec), r.val.AsFloat(), out.Floats, nulls)
		default:
			err = arithVV(t.Op, floatsOf(l.vec), floatsOf(r.vec), out.Floats, nulls)
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
