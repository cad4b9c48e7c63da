// Package column provides the in-memory columnar representation shared by
// the query engine, the OCS embedded engine and the storage formats. A Page
// is a batch of rows stored column-wise (Presto calls these "Pages", Arrow
// calls them "record batches"); all operators in internal/exec are
// vectorized over Pages.
package column

import (
	"fmt"
	"math"
	"slices"

	"prestocs/internal/types"
)

// Vector is one column of a Page: a typed value buffer plus a validity
// slice. Only the buffer matching Kind is populated. Nulls is nil when the
// vector contains no NULLs.
//
// A String vector comes in one of two forms. Plain, Strings holds a Go
// string per row. In dictionary form (Dict != nil) row i is
// Dict[Codes[i]] and Strings is nil: a parquetlite Dict chunk decodes to
// it, and Gather, Filter, Window, Slice and AppendVector from a vector
// sharing the same Dict move codes, never strings. A code means nothing
// outside its own Dict — vectors decoded from two chunks number the same
// string differently — so codes are only compared, hashed or copied
// between vectors that share one Dict; anything else reads the rows
// through StringSlice. The code under a NULL row is any valid index; the
// row reads as "" wherever it is materialized. Dict is shared and
// read-only.
type Vector struct {
	Kind  types.Kind
	Nulls []bool // len == Len() when present; true marks NULL

	Ints    []int64   // Int64, Date
	Floats  []float64 // Float64
	Strings []string  // String, plain form
	Bools   []bool    // Bool

	Codes []int32  // String, dictionary form: one index into Dict per row
	Dict  []string // String, dictionary form: the distinct values, shared
}

// StringSlice returns a String vector's rows as plain strings: Strings
// itself for a plain vector, a new slice with "" under NULL rows for one
// in dictionary form. It is the one place a dictionary is decoded, for
// the readers that need a string per row (sorting, string min/max, the
// write path); the result must be treated as read-only.
func (v *Vector) StringSlice() []string {
	if v.Dict == nil {
		return v.Strings
	}
	return v.appendDecoded(nil, nil)
}

// appendDecoded appends the rows that sel names (nil: every row) of a
// vector in dictionary form to dst as strings, "" under NULL rows.
func (v *Vector) appendDecoded(dst []string, sel []int) []string {
	n := len(v.Codes)
	if sel != nil {
		n = len(sel)
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	for i := range n {
		if row := SelRow(sel, i); v.IsNull(row) {
			dst[at+i] = ""
		} else {
			dst[at+i] = v.Dict[v.Codes[row]]
		}
	}
	return dst
}

// materialize turns a vector the caller owns from dictionary form into
// plain form, once, before rows that do not share its Dict are added.
func (v *Vector) materialize() {
	if v.Dict != nil {
		v.Strings = v.StringSlice()
		v.Codes, v.Dict = nil, nil
	}
}

// SameDict reports whether two dictionaries are one shared slice: the
// only case in which their codes may be compared or copied between them.
func SameDict(a, b []string) bool {
	return (a == nil) == (b == nil) && len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
		if v.Dict != nil {
			return len(v.Codes)
		}
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
		if v.Dict != nil {
			return types.StringValue(v.Dict[v.Codes[i]])
		}
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
	v.materialize()
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
	v.materialize()
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

// AppendVector appends the rows of src (same kind) that sel names (nil:
// every row) to v. Codes are appended as codes when v shares src's Dict,
// or is empty and was not reserved for strings; otherwise v is
// materialized, once, and src's rows are appended as strings.
func (v *Vector) AppendVector(src *Vector, sel []int) {
	if src.Kind != v.Kind {
		panic(fmt.Sprintf("column: append %s vector to %s vector", src.Kind, v.Kind))
	}
	n := src.Len()
	if sel != nil {
		n = len(sel)
	}
	switch {
	case src.Dict != nil && v.Len() == 0 && cap(v.Strings) == 0:
		v.Strings, v.Dict = nil, src.Dict
	case !SameDict(v.Dict, src.Dict):
		v.materialize()
	}
	if src.Nulls != nil || v.Nulls != nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		if src.Nulls != nil {
			v.Nulls = appendSel(v.Nulls, src.Nulls, sel)
		} else {
			v.Nulls = append(v.Nulls, make([]bool, n)...)
		}
	}
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = appendSel(v.Ints, src.Ints, sel)
	case types.Float64:
		v.Floats = appendSel(v.Floats, src.Floats, sel)
	case types.String:
		switch {
		case v.Dict != nil:
			v.Codes = appendSel(v.Codes, src.Codes, sel)
		case src.Dict != nil:
			v.Strings = src.appendDecoded(v.Strings, sel)
		default:
			v.Strings = appendSel(v.Strings, src.Strings, sel)
		}
	case types.Bool:
		v.Bools = appendSel(v.Bools, src.Bools, sel)
	}
}

// appendSel appends to dst the entries of src that sel names (nil: all),
// into a buffer of exactly their number when dst has none.
func appendSel[T any](dst, src []T, sel []int) []T {
	if sel == nil {
		return append(dst, src...)
	}
	if dst == nil {
		dst = make([]T, 0, len(sel))
	}
	at := len(dst)
	dst = slices.Grow(dst, len(sel))[:at+len(sel)]
	for i, row := range sel {
		dst[at+i] = src[row]
	}
	return dst
}

// Gather returns a new vector with rows picked by index (may repeat),
// each buffer allocated once to len(indices).
func (v *Vector) Gather(indices []int) *Vector {
	if indices == nil {
		indices = []int{} // no row, where AppendVector would read every row
	}
	out := NewVector(v.Kind)
	out.AppendVector(v, indices)
	return out
}

// Slice returns rows [from, to) as a new vector sharing no storage.
func (v *Vector) Slice(from, to int) *Vector {
	out := NewVector(v.Kind)
	out.AppendVector(v.Window(from, to), nil)
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
		if v.Dict != nil {
			out.Codes, out.Dict = v.Codes[from:to:to], v.Dict
			break
		}
		out.Strings = v.Strings[from:to:to]
	case types.Bool:
		out.Bools = v.Bools[from:to:to]
	}
	return out
}

// Scribble overwrites every row of v in place with garbage, its shared
// Dict aside: under test, a producer scribbles over what it lent, so that
// a consumer that held it past the next pull fails loudly.
func (v *Vector) Scribble() {
	for i := range v.Nulls {
		v.Nulls[i] = !v.Nulls[i]
	}
	for i := range v.Bools {
		v.Bools[i] = !v.Bools[i]
	}
	fill(v.Ints, math.MinInt64)
	fill(v.Floats, math.NaN())
	fill(v.Strings, "scribbled")
	fill(v.Codes, int32(len(v.Dict)-1)) // another valid code
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// ByteSize estimates the in-memory footprint of the vector's data, used
// for data-movement accounting and to charge the page cache: a vector in
// dictionary form counts its codes and its Dict once.
func (v *Vector) ByteSize() int64 {
	var n int64
	switch v.Kind {
	case types.Int64, types.Date:
		n = int64(len(v.Ints)) * 8
	case types.Float64:
		n = int64(len(v.Floats)) * 8
	case types.String:
		n = int64(len(v.Codes)) * 4
		for _, s := range v.Dict {
			n += int64(len(s)) + 4
		}
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
	// Reused marks a page that its producer rewrites on its next pull (a
	// projection's computed columns, a join's lent build columns): a
	// consumer that holds its rows copies them even when it takes all.
	Reused bool
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

// AppendPage appends the rows of src (same schema arity/kinds) that sel
// names (nil: every row).
func (p *Page) AppendPage(src *Page, sel []int) {
	if len(src.Vectors) != len(p.Vectors) {
		panic("column: AppendPage with mismatched column count")
	}
	for i := range p.Vectors {
		p.Vectors[i].AppendVector(src.Vectors[i], sel)
	}
}

// Keep returns the rows of p that sel names (nil: every row) as a page
// the caller may hold past the producer's next pull: p itself when sel is
// nil and p is not Reused, else a copy.
func (p *Page) Keep(sel []int) *Page {
	switch {
	case sel != nil:
		return p.Gather(sel)
	case p.Reused:
		return p.Slice(0, p.NumRows())
	}
	return p
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
