package expr

// Selection kernels: a Compare or Between that tests a column against
// non-NULL literals (or against another column of the same class) loops
// once over the column's buffer under the incoming selection and writes
// the surviving rows straight into the outgoing one. Nothing is gathered,
// no bool vector is built and the operator is chosen outside the loop.
//
// The loops are branch-free: every row is stored at out[k] and k advances
// by the comparison's 0 or 1, so a predicate that keeps a third of its
// rows costs the same per row as one that keeps all of them.
//
// Floats follow types.CompareFloat's total order (NaN equal to itself and
// after everything else) without calling it: against a literal that is not
// NaN, `x > s` under that order is `!(x <= s)` and `x >= s` is `!(x < s)`,
// the other four operators are IEEE's own, and for integers and strings
// the negated forms are the plain ones. A NaN literal has no kernel.
// Shapes without a kernel report !ok and take evalVec's general route.

import (
	"cmp"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// selOrd is the kinds whose order the selection loops read off Go's
// operators (floats with the negated forms above).
type selOrd interface {
	~int64 | ~float64 | ~string
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pageColumn returns the vector e names when e is a reference to a column
// the page has, else nil.
func pageColumn(e Expr, page *column.Page) *column.Vector {
	ref, ok := e.(*ColumnRef)
	if !ok || ref.Index < 0 || ref.Index >= page.NumCols() {
		return nil
	}
	return page.Vectors[ref.Index]
}

// nonNullLiteral returns e's value when e is a literal other than NULL.
func nonNullLiteral(e Expr) (types.Value, bool) {
	lit, ok := e.(*Literal)
	if !ok || lit.Value.Null {
		return types.Value{}, false
	}
	return lit.Value, true
}

// selCompare is the selection kernel of column-vs-literal (either way
// round) and column-vs-column comparisons.
func selCompare(t *Compare, page *column.Page, sel, buf []int) ([]int, bool) {
	ref, op, v, ok := t.ColumnLiteral()
	if !ok {
		l, r := pageColumn(t.L, page), pageColumn(t.R, page)
		if l == nil || r == nil {
			return nil, false
		}
		return selCompareColumns(t.Op, l, r, sel, buf)
	}
	col := pageColumn(ref, page)
	if col == nil || v.Null {
		return nil, false
	}
	var out []int
	switch {
	case isIntKind(col.Kind) && isIntKind(v.Kind):
		out = selCmpVS(op, col.Ints, v.I, sel, buf)
	case col.Kind == types.Float64 && v.Kind.Numeric():
		s := v.AsFloat()
		if s != s {
			return nil, false
		}
		out = selCmpVS(op, col.Floats, s, sel, buf)
	case col.Kind == types.String && v.Kind == types.String:
		out = selCmpVS(op, col.Strings, v.S, sel, buf)
	case col.Kind == types.Bool && v.Kind == types.Bool:
		out = selCmp3(op, col.Bools, nil, v.B, compareBool, sel, buf)
	default:
		// An integer column against a float literal compares as floats;
		// kernelCompare converts the column.
		return nil, false
	}
	return dropNullRows(out, col.Nulls), true
}

func selCompareColumns(op CmpOp, l, r *column.Vector, sel, buf []int) ([]int, bool) {
	var out []int
	switch {
	case isIntKind(l.Kind) && isIntKind(r.Kind):
		out = selCmp3(op, l.Ints, r.Ints, 0, cmp.Compare[int64], sel, buf)
	case l.Kind == types.Float64 && r.Kind == types.Float64:
		out = selCmp3(op, l.Floats, r.Floats, 0, types.CompareFloat, sel, buf)
	case l.Kind == types.String && r.Kind == types.String:
		out = selCmp3(op, l.Strings, r.Strings, "", cmp.Compare[string], sel, buf)
	case l.Kind == types.Bool && r.Kind == types.Bool:
		out = selCmp3(op, l.Bools, r.Bools, false, compareBool, sel, buf)
	default:
		return nil, false
	}
	return dropNullRows(dropNullRows(out, l.Nulls), r.Nulls), true
}

// selBetween is the selection kernel of `column BETWEEN literal AND
// literal` where all three are integers, or the column is a float and the
// bounds numeric, or all three are strings.
func selBetween(t *Between, page *column.Page, sel, buf []int) ([]int, bool) {
	col := pageColumn(t.E, page)
	lo, okLo := nonNullLiteral(t.Lo)
	hi, okHi := nonNullLiteral(t.Hi)
	if col == nil || !okLo || !okHi {
		return nil, false
	}
	var out []int
	switch {
	case isIntKind(col.Kind) && isIntKind(lo.Kind) && isIntKind(hi.Kind):
		out = selRange(col.Ints, lo.I, hi.I, sel, buf)
	case col.Kind == types.Float64 && lo.Kind.Numeric() && hi.Kind.Numeric():
		l, h := lo.AsFloat(), hi.AsFloat()
		if l != l || h != h {
			return nil, false
		}
		// A NaN row fails `x <= h`, as it does under the total order.
		out = selRange(col.Floats, l, h, sel, buf)
	case col.Kind == types.String && lo.Kind == types.String && hi.Kind == types.String:
		out = selRange(col.Strings, lo.S, hi.S, sel, buf)
	default:
		return nil, false
	}
	return dropNullRows(out, col.Nulls), true
}

// dropNullRows removes, in place, the rows whose null flag is set. The
// kernels compare NULL slots like any other (their payload is unspecified
// but present) and strip them here, so the loops carry no null test and a
// column without a null mask pays nothing.
func dropNullRows(rows []int, nulls []bool) []int {
	if nulls == nil {
		return rows
	}
	k := 0
	for _, row := range rows {
		rows[k] = row
		k += b2i(!nulls[row])
	}
	return rows[:k]
}

// selRange keeps the rows of sel (nil: every row) with lo <= xs[row] <= hi.
func selRange[T selOrd](xs []T, lo, hi T, sel, buf []int) []int {
	k := 0
	if sel == nil {
		out := selBuf(buf, len(xs))
		for i, x := range xs {
			out[k] = i
			k += b2i(x >= lo) & b2i(x <= hi)
		}
		return out[:k]
	}
	out := selBuf(buf, len(sel))
	for _, row := range sel {
		x := xs[row]
		out[k] = row
		k += b2i(x >= lo) & b2i(x <= hi)
	}
	return out[:k]
}

// selCmpVS keeps the rows of sel (nil: every row) where `xs[row] op s`
// holds; s is not NaN.
func selCmpVS[T selOrd](op CmpOp, xs []T, s T, sel, buf []int) []int {
	k := 0
	if sel == nil {
		out := selBuf(buf, len(xs))
		switch op {
		case Eq:
			for i, x := range xs {
				out[k] = i
				k += b2i(x == s)
			}
		case Ne:
			for i, x := range xs {
				out[k] = i
				k += b2i(x != s)
			}
		case Lt:
			for i, x := range xs {
				out[k] = i
				k += b2i(x < s)
			}
		case Le:
			for i, x := range xs {
				out[k] = i
				k += b2i(x <= s)
			}
		case Gt:
			for i, x := range xs {
				out[k] = i
				k += b2i(!(x <= s))
			}
		case Ge:
			for i, x := range xs {
				out[k] = i
				k += b2i(!(x < s))
			}
		}
		return out[:k]
	}
	out := selBuf(buf, len(sel))
	switch op {
	case Eq:
		for _, row := range sel {
			out[k] = row
			k += b2i(xs[row] == s)
		}
	case Ne:
		for _, row := range sel {
			out[k] = row
			k += b2i(xs[row] != s)
		}
	case Lt:
		for _, row := range sel {
			out[k] = row
			k += b2i(xs[row] < s)
		}
	case Le:
		for _, row := range sel {
			out[k] = row
			k += b2i(xs[row] <= s)
		}
	case Gt:
		for _, row := range sel {
			out[k] = row
			k += b2i(!(xs[row] <= s))
		}
	case Ge:
		for _, row := range sel {
			out[k] = row
			k += b2i(!(xs[row] < s))
		}
	}
	return out[:k]
}

// cmpAccept lists whether op holds for a three-way comparison result of
// -1, 0 and +1, at index result+1: the operator, taken out of the loop.
func cmpAccept(op CmpOp) [3]bool {
	return [3]bool{cmpHolds(op, -1), cmpHolds(op, 0), cmpHolds(op, 1)}
}

func compareBool(a, b bool) int { return b2i(a) - b2i(b) }

// selCmp3 keeps the rows of sel (nil: every row) where xs[row] op y holds
// under the three-way comparison cmp3, y being ys[row], or s when ys is
// nil. It serves the shapes that are rare next to column-vs-literal
// numerics — two columns, booleans — with one loop.
func selCmp3[T any](op CmpOp, xs, ys []T, s T, cmp3 func(a, b T) int, sel, buf []int) []int {
	accept := cmpAccept(op)
	n := len(xs)
	if sel != nil {
		n = len(sel)
	}
	out := selBuf(buf, n)
	k := 0
	for i := range out {
		row := i
		if sel != nil {
			row = sel[i]
		}
		y := s
		if ys != nil {
			y = ys[row]
		}
		out[k] = row
		k += b2i(accept[cmp3(xs[row], y)+1])
	}
	return out[:k]
}
