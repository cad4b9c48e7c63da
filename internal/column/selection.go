package column

import (
	"slices"

	"prestocs/internal/types"
)

// Selection vectors are sorted, non-repeating row-index slices ([]int)
// identifying the surviving rows of a page. The vectorized expression
// kernels (internal/expr) and the filter operator (internal/exec) exchange
// selections instead of materialized pages so that downstream work — the
// right side of an AND, a projection expression, a gather — only touches
// rows that are still alive. A nil selection conventionally means "all
// rows"; helpers here treat it as such where documented.

// SelRow is the page row of the i-th entry of selection sel: sel[i], or
// i itself when sel is nil (every row).
func SelRow(sel []int, i int) int {
	if sel != nil {
		return sel[i]
	}
	return i
}

// MergeSel merges two sorted selection vectors into one sorted vector.
// The inputs must be disjoint (as produced by OR short-circuiting, where
// the right side is only evaluated over rows the left side rejected).
func MergeSel(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// SubtractSel returns the rows of `from` that are not in `sel`. Both
// inputs are sorted; `sel` must be a subsequence of `from`. This is the
// complement used by OR short-circuiting: evaluate the right side only
// over rows the left side did not already keep.
func SubtractSel(from, sel []int) []int {
	out := make([]int, 0, len(from)-len(sel))
	j := 0
	for _, r := range from {
		if j < len(sel) && sel[j] == r {
			j++
			continue
		}
		out = append(out, r)
	}
	return out
}

// Reserve grows the vector's backing buffers to hold at least n more rows
// without reallocation. It is a batch-append helper for producers that
// know their output size.
func (v *Vector) Reserve(n int) {
	if v.Nulls != nil {
		v.Nulls = slices.Grow(v.Nulls, n)
	}
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = slices.Grow(v.Ints, n)
	case types.Float64:
		v.Floats = slices.Grow(v.Floats, n)
	case types.String:
		if v.Dict != nil {
			v.Codes = slices.Grow(v.Codes, n)
			break
		}
		v.Strings = slices.Grow(v.Strings, n)
	case types.Bool:
		v.Bools = slices.Grow(v.Bools, n)
	}
}
