package expr

// Comparison kernels: the one kernel family behind every Compare and
// Between, in a predicate and in value context alike. A kernel takes
// operands — vectors or scalars — and a selection, loops once under it,
// and writes the positions where the comparison holds, no operand being
// NULL, straight into the outgoing selection. Kinds are dispatched once,
// outside the loop: integers (Int64 and Date) as integers, any other mix
// of numerics as floats, strings, booleans. A string column in dictionary
// form tested against literals is tested once per Dict entry, and its rows
// are kept by code (selCodes).
//
// A vector operand is indexed by the page's rows, like sel: a page column
// read where it lies, or a computed operand evaluated at the selected rows
// (evalAt), so nothing is gathered. In a predicate the kept rows are the
// result; in value context compareAt makes them the TRUE rows of a bool
// vector.
//
// The vector-vs-scalar loops are branch-free: every row is stored at
// out[k] and k advances by the comparison's 0 or 1, so a predicate that
// keeps a third of its rows costs the same per row as one that keeps all
// of them. The operator is chosen outside the loop.
//
// Floats follow types.CompareFloat's total order (NaN equal to itself and
// after everything else). Against a scalar that is not NaN the loops do
// not call it: `x > s` under that order is `!(x <= s)` and `x >= s` is
// `!(x < s)`, the other four operators are IEEE's own, and for integers
// and strings the negated forms are the plain ones. A NaN scalar, and two
// float vectors, go through the three-way loop with types.CompareFloat.

import (
	"cmp"
	"fmt"

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

// selCompare keeps the rows of sel (nil: the rows 0..n-1) where `l op r`
// holds and neither side is NULL. The result is written over buf when it
// fits, and buf may be sel.
func selCompare(op CmpOp, l, r operand, n int, sel, buf []int) ([]int, error) {
	if l.scalarNull() || r.scalarNull() {
		return selBuf(buf, 0), nil
	}
	if l.isScalar() {
		if r.isScalar() {
			if !cmpHolds(op, types.Compare(l.val, r.val)) {
				return selBuf(buf, 0), nil
			}
			if sel == nil {
				sel = identitySel(n)
			}
			out := selBuf(buf, len(sel))
			copy(out, sel)
			return out, nil
		}
		// s < x ⇔ x > s: the scalar, if any, is on the right.
		l, r, op = r, l, op.Mirror()
	}
	var out []int
	xs := l.vec
	switch lk, rk := l.kind(), r.kind(); {
	case isIntKind(lk) && isIntKind(rk):
		if r.isScalar() {
			out = selCmpVS(op, xs.Ints, r.val.I, sel, buf)
		} else {
			out = selCmp3(op, xs.Ints, r.vec.Ints, 0, cmp.Compare[int64], sel, buf)
		}
	case lk.Numeric() && rk.Numeric():
		fs := floatsOf(xs)
		if !r.isScalar() {
			out = selCmp3(op, fs, floatsOf(r.vec), 0, types.CompareFloat, sel, buf)
		} else if s := r.val.AsFloat(); s == s {
			out = selCmpVS(op, fs, s, sel, buf)
		} else { // NaN
			out = selCmp3(op, fs, nil, s, types.CompareFloat, sel, buf)
		}
	case lk == types.String && rk == types.String:
		switch s := r.val.S; {
		case r.isScalar() && xs.Dict != nil:
			out = selCodes(xs.Codes, dictPass(xs.Dict, func(d string) bool { return cmpHolds(op, cmp.Compare(d, s)) }), sel, buf)
		case r.isScalar():
			out = selCmpVS(op, xs.Strings, s, sel, buf)
		default:
			out = selCmp3(op, xs.StringSlice(), r.vec.StringSlice(), "", cmp.Compare[string], sel, buf)
		}
	case lk == types.Bool && rk == types.Bool:
		var ys []bool
		if !r.isScalar() {
			ys = r.vec.Bools
		}
		out = selCmp3(op, xs.Bools, ys, r.val.B, compareBool, sel, buf)
	default:
		return nil, fmt.Errorf("expr: cannot compare %s to %s", lk, rk)
	}
	return dropNullRows(dropNullRows(out, xs.Nulls), r.nulls()), nil
}

// selBetween keeps the rows of sel (nil: the rows 0..n-1) where
// lo <= e <= hi holds and no operand is NULL. A vector tested against two
// scalar bounds of its class loops once; any other shape narrows by
// e >= lo, then by e <= hi.
func selBetween(e, lo, hi operand, n int, sel, buf []int) ([]int, error) {
	if !e.isScalar() && lo.isScalar() && hi.isScalar() && !lo.val.Null && !hi.val.Null {
		var out []int
		switch k, lk, hk := e.vec.Kind, lo.val.Kind, hi.val.Kind; {
		case isIntKind(k) && isIntKind(lk) && isIntKind(hk):
			out = selRange(e.vec.Ints, lo.val.I, hi.val.I, sel, buf)
		case k == types.Float64 && lk.Numeric() && hk.Numeric():
			l, h := lo.val.AsFloat(), hi.val.AsFloat()
			if l == l && h == h {
				// A NaN row fails `x <= h`, as it does under the total order.
				out = selRange(e.vec.Floats, l, h, sel, buf)
			}
		case k == types.String && lk == types.String && hk == types.String && e.vec.Dict != nil:
			l, h := lo.val.S, hi.val.S
			out = selCodes(e.vec.Codes, dictPass(e.vec.Dict, func(d string) bool { return l <= d && d <= h }), sel, buf)
		case k == types.String && lk == types.String && hk == types.String:
			out = selRange(e.vec.Strings, lo.val.S, hi.val.S, sel, buf)
		}
		if out != nil {
			return dropNullRows(out, e.vec.Nulls), nil
		}
	}
	out, err := selCompare(Ge, e, lo, n, sel, buf)
	if err != nil || len(out) == 0 {
		return out, err
	}
	return selCompare(Le, e, hi, n, out, out)
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

// dictPass evaluates a comparison against literals once per entry of a
// dictionary-form vector's Dict: the table selCodes reads rows' codes in.
func dictPass(dict []string, holds func(string) bool) []bool {
	pass := make([]bool, len(dict))
	for i, d := range dict {
		pass[i] = holds(d)
	}
	return pass
}

// selCodes keeps the rows of sel (nil: every row) whose code pass accepts.
func selCodes(codes []int32, pass []bool, sel, buf []int) []int {
	k := 0
	if sel == nil {
		out := selBuf(buf, len(codes))
		for i, c := range codes {
			out[k] = i
			k += b2i(pass[c])
		}
		return out[:k]
	}
	out := selBuf(buf, len(sel))
	for _, row := range sel {
		out[k] = row
		k += b2i(pass[codes[row]])
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
