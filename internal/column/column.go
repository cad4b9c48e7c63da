// Package column provides the in-memory columnar representation shared by
// the query engine, the OCS embedded engine and the storage formats. A Page
// is a batch of rows stored column-wise (Presto calls these "Pages", Arrow
// calls them "record batches"); all operators in internal/exec are
// vectorized over Pages.
package column

import (
	"fmt"

	"prestocs/internal/types"
)

// Vector is one column of a Page: a typed value buffer plus a validity
// slice. Only the buffer matching Kind is populated. Nulls is nil when the
// vector contains no NULLs.
type Vector struct {
	Kind  types.Kind
	Nulls []bool // len == Len() when present; true marks NULL

	Ints    []int64   // Int64, Date
	Floats  []float64 // Float64
	Strings []string  // String
	Bools   []bool    // Bool
}

// NewVector allocates an empty vector of the given kind.
func NewVector(k types.Kind) *Vector { return &Vector{Kind: k} }

// Len returns the number of rows in the vector.
func (v *Vector) Len() int {
	switch v.Kind {
	case types.Int64, types.Date:
		return len(v.Ints)
	case types.Float64:
		return len(v.Floats)
	case types.String:
		return len(v.Strings)
	case types.Bool:
		return len(v.Bools)
	default:
		return 0
	}
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// HasNulls reports whether any row is NULL.
func (v *Vector) HasNulls() bool {
	for _, n := range v.Nulls {
		if n {
			return true
		}
	}
	return false
}

// Value extracts row i as a types.Value.
func (v *Vector) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(v.Kind)
	}
	switch v.Kind {
	case types.Int64:
		return types.IntValue(v.Ints[i])
	case types.Date:
		return types.DateValue(v.Ints[i])
	case types.Float64:
		return types.FloatValue(v.Floats[i])
	case types.String:
		return types.StringValue(v.Strings[i])
	case types.Bool:
		return types.BoolValue(v.Bools[i])
	default:
		panic("column: Value on unknown kind")
	}
}

// Append adds one value; it must match the vector's kind (or be NULL).
func (v *Vector) Append(val types.Value) {
	if val.Null {
		v.appendNull()
		return
	}
	if val.Kind != v.Kind &&
		!(v.Kind == types.Date && val.Kind == types.Int64) &&
		!(v.Kind == types.Int64 && val.Kind == types.Date) {
		panic(fmt.Sprintf("column: append %s to %s vector", val.Kind, v.Kind))
	}
	v.extendNulls(false)
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, val.I)
	case types.Float64:
		v.Floats = append(v.Floats, val.F)
	case types.String:
		v.Strings = append(v.Strings, val.S)
	case types.Bool:
		v.Bools = append(v.Bools, val.B)
	}
}

func (v *Vector) appendNull() {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	v.Nulls = append(v.Nulls, true)
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, 0)
	case types.Float64:
		v.Floats = append(v.Floats, 0)
	case types.String:
		v.Strings = append(v.Strings, "")
	case types.Bool:
		v.Bools = append(v.Bools, false)
	}
}

func (v *Vector) extendNulls(isNull bool) {
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, isNull)
	}
}

// AppendVector appends all rows of src (same kind) to v.
func (v *Vector) AppendVector(src *Vector) {
	if src.Kind != v.Kind {
		panic(fmt.Sprintf("column: append %s vector to %s vector", src.Kind, v.Kind))
	}
	n := src.Len()
	if src.Nulls != nil || v.Nulls != nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		if src.Nulls != nil {
			v.Nulls = append(v.Nulls, src.Nulls...)
		} else {
			v.Nulls = append(v.Nulls, make([]bool, n)...)
		}
	}
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, src.Ints...)
	case types.Float64:
		v.Floats = append(v.Floats, src.Floats...)
	case types.String:
		v.Strings = append(v.Strings, src.Strings...)
	case types.Bool:
		v.Bools = append(v.Bools, src.Bools...)
	}
}

// Filter returns a vector containing the rows where keep[i] is true. When
// every row is kept the input vector is returned unchanged (vectors are
// immutable by convention, so sharing is safe); otherwise the output is
// preallocated from the keep count and copied with typed loops.
func (v *Vector) Filter(keep []bool) *Vector {
	n := CountKeep(keep)
	if n == len(keep) && n == v.Len() {
		return v
	}
	return v.Gather(KeepToSel(keep, nil))
}

// Gather returns a new vector with rows picked by index (may repeat). The
// output is preallocated to len(indices) and copied with typed loops —
// no per-row boxing through types.Value.
func (v *Vector) Gather(indices []int) *Vector {
	n := len(indices)
	out := NewVector(v.Kind)
	if v.Nulls != nil {
		out.Nulls = make([]bool, n)
		for o, i := range indices {
			out.Nulls[o] = v.Nulls[i]
		}
	}
	switch v.Kind {
	case types.Int64, types.Date:
		out.Ints = make([]int64, n)
		for o, i := range indices {
			out.Ints[o] = v.Ints[i]
		}
	case types.Float64:
		out.Floats = make([]float64, n)
		for o, i := range indices {
			out.Floats[o] = v.Floats[i]
		}
	case types.String:
		out.Strings = make([]string, n)
		for o, i := range indices {
			out.Strings[o] = v.Strings[i]
		}
	case types.Bool:
		out.Bools = make([]bool, n)
		for o, i := range indices {
			out.Bools[o] = v.Bools[i]
		}
	}
	return out
}

// Slice returns rows [from, to) as a new vector sharing no storage.
func (v *Vector) Slice(from, to int) *Vector {
	out := NewVector(v.Kind)
	out.AppendVector(v.Window(from, to))
	return out
}

// Window returns rows [from, to) as a vector sharing v's storage: the
// write path encodes and counts a row group where it lies in a larger
// page. The result must be treated as read-only.
func (v *Vector) Window(from, to int) *Vector {
	out := &Vector{Kind: v.Kind}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[from:to:to]
	}
	switch v.Kind {
	case types.Int64, types.Date:
		out.Ints = v.Ints[from:to:to]
	case types.Float64:
		out.Floats = v.Floats[from:to:to]
	case types.String:
		out.Strings = v.Strings[from:to:to]
	case types.Bool:
		out.Bools = v.Bools[from:to:to]
	}
	return out
}

// ByteSize estimates the in-memory footprint of the vector's data, used
// for data-movement accounting.
func (v *Vector) ByteSize() int64 {
	var n int64
	switch v.Kind {
	case types.Int64, types.Date:
		n = int64(len(v.Ints)) * 8
	case types.Float64:
		n = int64(len(v.Floats)) * 8
	case types.String:
		for _, s := range v.Strings {
			n += int64(len(s)) + 4
		}
	case types.Bool:
		n = int64(len(v.Bools))
	}
	if v.Nulls != nil {
		n += int64(len(v.Nulls))
	}
	return n
}

// Page is a batch of rows in columnar layout, with a schema describing the
// vectors.
type Page struct {
	Schema  *types.Schema
	Vectors []*Vector
}

// NewPage allocates an empty page matching the schema.
func NewPage(schema *types.Schema) *Page {
	vecs := make([]*Vector, schema.Len())
	for i, c := range schema.Columns {
		vecs[i] = NewVector(c.Type)
	}
	return &Page{Schema: schema, Vectors: vecs}
}

// NumRows returns the row count (0 for a page with no columns).
func (p *Page) NumRows() int {
	if len(p.Vectors) == 0 {
		return 0
	}
	return p.Vectors[0].Len()
}

// NumCols returns the column count.
func (p *Page) NumCols() int { return len(p.Vectors) }

// AppendRow appends one row of values (one per column).
func (p *Page) AppendRow(vals ...types.Value) {
	if len(vals) != len(p.Vectors) {
		panic(fmt.Sprintf("column: AppendRow with %d values on %d columns", len(vals), len(p.Vectors)))
	}
	for i, v := range vals {
		p.Vectors[i].Append(v)
	}
}

// Row extracts row i as a value slice.
func (p *Page) Row(i int) []types.Value {
	row := make([]types.Value, len(p.Vectors))
	for c, v := range p.Vectors {
		row[c] = v.Value(i)
	}
	return row
}

// AppendPage appends all rows of src (same schema arity/kinds).
func (p *Page) AppendPage(src *Page) {
	if len(src.Vectors) != len(p.Vectors) {
		panic("column: AppendPage with mismatched column count")
	}
	for i := range p.Vectors {
		p.Vectors[i].AppendVector(src.Vectors[i])
	}
}

// Filter returns a page keeping the rows where keep[i] is true. When every
// row is kept the input page is returned unchanged; otherwise output
// vectors are preallocated from the keep count.
func (p *Page) Filter(keep []bool) *Page {
	if CountKeep(keep) == p.NumRows() {
		return p
	}
	return p.Gather(KeepToSel(keep, nil))
}

// FilterSel returns a page keeping only the rows named by the selection
// vector (sorted, non-repeating). When the selection covers every row the
// input page is returned unchanged.
func (p *Page) FilterSel(sel []int) *Page {
	if len(sel) == p.NumRows() {
		return p
	}
	return p.Gather(sel)
}

// Gather returns a new page with rows picked by index.
func (p *Page) Gather(indices []int) *Page {
	out := &Page{Schema: p.Schema, Vectors: make([]*Vector, len(p.Vectors))}
	for i, v := range p.Vectors {
		out.Vectors[i] = v.Gather(indices)
	}
	return out
}

// Slice returns rows [from, to) as a new page.
func (p *Page) Slice(from, to int) *Page {
	out := &Page{Schema: p.Schema, Vectors: make([]*Vector, len(p.Vectors))}
	for i, v := range p.Vectors {
		out.Vectors[i] = v.Slice(from, to)
	}
	return out
}

// Project returns a page containing only the given column indices, with a
// projected schema.
func (p *Page) Project(indices []int) *Page {
	out := &Page{Schema: p.Schema.Project(indices), Vectors: make([]*Vector, len(indices))}
	for i, idx := range indices {
		out.Vectors[i] = p.Vectors[idx]
	}
	return out
}

// ByteSize estimates the page's data footprint.
func (p *Page) ByteSize() int64 {
	var n int64
	for _, v := range p.Vectors {
		n += v.ByteSize()
	}
	return n
}

// String renders a compact debug form: schema plus row count.
func (p *Page) String() string {
	return fmt.Sprintf("Page%s[%d rows]", p.Schema, p.NumRows())
}
