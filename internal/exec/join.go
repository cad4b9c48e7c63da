// Hash inner equi-join: a fully-drained columnar build side indexed by
// the same keyTable the hash aggregate groups with, probed vectorized
// page-at-a-time. Rows whose key contains NULL never join (SQL
// semantics): they are dropped from the build index at build time, and a
// NULL probe key is a key no indexed row has, so lookups miss without a
// special case.
//
// The probe looks up only its input's selected rows, and takes one of two
// forms, by what the build held. Over a unique build — every key on one
// build row, TPC-H Q3's orders — it lends: the probe page goes on
// untouched with its matched rows as the selection, and each build column
// is written beside it at those rows into buffers the probe rewrites on
// the next pull, as Filter and Project hand their input's page on. Over a
// build with repeated keys a probe row may match several build rows, so
// the probe builds gather lists — one (probe row, build row) pair per
// match — and gathers both sides into a new page.
//
// The probe path is guarded by `make vet-join`: no per-row value
// accessors, no scalar expression evaluation — matching is typed loops
// over the key index's ids and the columns' buffers.
package exec

import (
	"fmt"
	"math"
	"slices"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/types"
)

// JoinTable is the immutable result of draining a join's build side:
// dense build rows (NULL-key rows removed) plus the key index. Safe for
// concurrent probing once built: every leaf worker probes the one table,
// each with its own keyScratch.
type JoinTable struct {
	schema *types.Schema
	keys   []int
	rows   *column.Page
	// index maps a key to its id. In a unique table key id is build row
	// id, and head and next are nil. Otherwise the build rows holding key
	// id are head[id], next[head[id]], … until -1, in insertion order.
	index  *keyTable
	unique bool
	head   []int32
	next   []int32
}

// BuildJoinTable drains input and indexes it by the key columns.
func BuildJoinTable(input Operator, keys []int, meter *Meter) (*JoinTable, error) {
	schema := input.Schema()
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: join build with no keys")
	}
	for _, k := range keys {
		if k < 0 || k >= schema.Len() {
			return nil, fmt.Errorf("exec: join build key %d out of range", k)
		}
	}
	kinds := make([]types.Kind, len(keys))
	for i, k := range keys {
		kinds[i] = schema.Columns[k].Type
	}
	t := &JoinTable{
		schema: schema,
		keys:   keys,
		rows:   column.NewPage(schema),
		index:  newKeyTable(kinds),
	}
	var live []int
	for {
		page, sel, err := input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			break
		}
		n := liveRows(page, sel)
		if n == 0 {
			continue
		}
		meter.charge(n, float64(len(keys))+1)

		// Columnar NULL-key rejection: a row with any NULL key cannot
		// match an inner join, so it never enters the dense table.
		if slices.ContainsFunc(keys, func(k int) bool { return page.Vectors[k].Nulls != nil }) {
			live = live[:0]
		rows:
			for i := range n {
				row := column.SelRow(sel, i)
				for _, k := range keys {
					if nulls := page.Vectors[k].Nulls; nulls != nil && nulls[row] {
						continue rows
					}
				}
				live = append(live, row)
			}
			if len(live) == 0 {
				continue
			}
			if len(live) < n {
				sel = live
			}
		}
		t.rows.AppendPage(page, sel)
	}
	// Index the drained rows in one pass over a table sized for them
	// once: no rehash, no arena growth while the keys go in.
	rowKeys := make([]int32, t.rows.NumRows()) // key id of every indexed build row
	t.index.reserve(len(rowKeys))
	var scratch keyScratch
	t.index.assign(&scratch, t.rows, keys, nil, rowKeys)
	// Ids go in order of first appearance, so when every row brought a
	// key of its own, row r holds key id r and there is nothing to chain.
	if t.unique = t.index.len() == len(rowKeys); t.unique {
		return t, nil
	}
	// Chain each key's rows back to front, so that walking a chain from
	// its head yields them in insertion order.
	t.head = make([]int32, t.index.len())
	for i := range t.head {
		t.head[i] = -1
	}
	t.next = make([]int32, len(rowKeys))
	for row := len(rowKeys) - 1; row >= 0; row-- {
		id := rowKeys[row]
		t.next[row] = t.head[id]
		t.head[id] = int32(row)
	}
	return t, nil
}

// Schema returns the build-side schema.
func (t *JoinTable) Schema() *types.Schema { return t.schema }

// Rows returns the indexed (non-NULL-key) row count.
func (t *JoinTable) Rows() int { return t.rows.NumRows() }

// Unique reports whether every key is held by exactly one build row: then
// the probe lends its columns, and an aggregate above it may number its
// groups by the join's key ids (HashAggregate.GroupByJoin).
func (t *JoinTable) Unique() bool { return t.unique }

// BuildBloom constructs a bloom filter over the first key column's
// values — the filter the engine pushes into the probe-side OCS scan.
// Exact key count is known here, so sizing needs no estimate. BIGINT and
// DATE keys whose span hi − lo + 1 is no more bits than the hashed
// filter would take get the direct form, exact and cheaper to test; any
// other keys the hashed form. Returns an error for key kinds the
// storage-side kernels cannot hash.
func (t *JoinTable) BuildBloom(bitsPerKey int) (*bloom.Filter, error) {
	n := t.rows.NumRows()
	var f *bloom.Filter
	if lo, hi, ok := t.keyBounds(); ok && uint64(hi)-uint64(lo) < bloom.SizeBits(n, bitsPerKey) {
		f = bloom.NewDirect(lo, hi)
	} else {
		f = bloom.New(n, bitsPerKey)
	}
	if err := f.AddVector(t.rows.Vectors[t.keys[0]]); err != nil {
		return nil, err
	}
	return f, nil
}

// keyBounds is the least and greatest value of the first key column, a
// BIGINT or DATE one, over the indexed rows (none of which has a NULL
// key). ok is false for another kind or no rows.
func (t *JoinTable) keyBounds() (lo, hi int64, ok bool) {
	keys := t.rows.Vectors[t.keys[0]]
	if t.rows.NumRows() == 0 || (keys.Kind != types.Int64 && keys.Kind != types.Date) {
		return 0, 0, false
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for _, v := range keys.Ints {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, true
}

// HashJoinProbe streams probe pages against a built JoinTable, emitting
// probe columns followed by build columns for every match. Probe rows
// with multiple build matches repeat once per match (inner-join
// multiplicity).
//
// Over a unique table it lends: Next hands on the probe page's vectors
// with the matched rows as the selection (nil when every row matched),
// and each build column indexed by the page's rows, written at the
// matched rows only into buffers the probe rewrites on the next pull, so
// the page is Reused. Over any other table Next returns a gathered page
// with a nil selection.
type HashJoinProbe struct {
	input  Operator
	table  *JoinTable
	keys   []int
	schema *types.Schema
	meter  *Meter

	// keyIDs holds the key id of each row of the last probe page, -1
	// where the row is not live or matched nothing: what GroupByJoin
	// reads. found is the key ids of a page's live rows under a selection.
	keyIDs  []int32
	found   []int32
	scratch keyScratch
	// The lend path's selection, and the page it lends under one: the
	// probe's vectors, then the build columns in lent.
	selBuf []int
	page   column.Page
	lent   []column.Vector
	// The gather path's lists: one (probe row, build row) pair per match.
	probeIdx []int
	buildIdx []int
}

// NewHashJoinProbe validates key arity/types and builds the combined
// output schema (probe columns then build columns).
func NewHashJoinProbe(input Operator, table *JoinTable, probeKeys []int, meter *Meter) (*HashJoinProbe, error) {
	in := input.Schema()
	if len(probeKeys) != len(table.keys) {
		return nil, fmt.Errorf("exec: join key arity mismatch: probe %d, build %d", len(probeKeys), len(table.keys))
	}
	for i, k := range probeKeys {
		if k < 0 || k >= in.Len() {
			return nil, fmt.Errorf("exec: join probe key %d out of range", k)
		}
		pk, bk := in.Columns[k].Type, table.schema.Columns[table.keys[i]].Type
		if pk != bk {
			return nil, fmt.Errorf("exec: join key type mismatch: probe %s, build %s", pk, bk)
		}
	}
	cols := make([]types.Column, 0, in.Len()+table.schema.Len())
	cols = append(cols, in.Columns...)
	cols = append(cols, table.schema.Columns...)
	return &HashJoinProbe{
		input:  input,
		table:  table,
		keys:   probeKeys,
		schema: types.NewSchema(cols...),
		meter:  meter,
	}, nil
}

// Schema implements Operator.
func (j *HashJoinProbe) Schema() *types.Schema { return j.schema }

// Next implements Operator.
func (j *HashJoinProbe) Next() (*column.Page, []int, error) {
	if !j.table.unique {
		page, err := j.gather()
		return page, nil, err
	}
	if poison {
		for c := range j.lent {
			j.lent[c].Scribble()
		}
	}
	for {
		page, err := j.probe()
		if err != nil || page == nil {
			return nil, nil, err
		}
		sel := j.selBuf[:0]
		for row, id := range j.keyIDs {
			if id >= 0 {
				sel = append(sel, row)
			}
		}
		j.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) == len(j.keyIDs) {
			sel = nil
		}
		build := j.table.rows.Vectors
		if j.lent == nil {
			j.lent = make([]column.Vector, len(build))
			j.page = column.Page{Schema: j.schema, Reused: true}
		}
		j.page.Vectors = append(j.page.Vectors[:0], page.Vectors...)
		for c, src := range build {
			lendBuild(&j.lent[c], src, j.keyIDs, sel)
			j.page.Vectors = append(j.page.Vectors, &j.lent[c])
		}
		return &j.page, sel, nil
	}
}

// probe pulls the next probe page that can match and looks the keys of
// its live rows up into keyIDs, one per page row; it returns the page,
// or nil once the input is exhausted.
func (j *HashJoinProbe) probe() (*column.Page, error) {
	for {
		page, sel, err := j.input.Next()
		if err != nil || page == nil {
			return nil, err
		}
		n := liveRows(page, sel)
		if n == 0 || j.table.index.len() == 0 {
			if n > 0 {
				j.meter.charge(n, float64(len(j.keys)))
			}
			continue
		}
		j.meter.charge(n, float64(len(j.keys))+2)
		j.keyIDs = resize(j.keyIDs, page.NumRows())
		if sel == nil {
			j.table.index.find(&j.scratch, page, j.keys, nil, j.keyIDs)
			return page, nil
		}
		j.found = resize(j.found, n)
		j.table.index.find(&j.scratch, page, j.keys, sel, j.found)
		for row := range j.keyIDs {
			j.keyIDs[row] = -1
		}
		for i, row := range sel {
			j.keyIDs[row] = j.found[i]
		}
		return page, nil
	}
}

// gather is Next over a table with repeated keys: it pulls probe pages
// until one produces matches, then emits the gathered probe⊕build page.
func (j *HashJoinProbe) gather() (*column.Page, error) {
	for {
		page, err := j.probe()
		if err != nil || page == nil {
			return nil, err
		}
		j.probeIdx = j.probeIdx[:0]
		j.buildIdx = j.buildIdx[:0]
		for row, id := range j.keyIDs {
			if id < 0 {
				continue
			}
			for b := j.table.head[id]; b >= 0; b = j.table.next[b] {
				j.probeIdx = append(j.probeIdx, row)
				j.buildIdx = append(j.buildIdx, int(b))
			}
		}
		if len(j.probeIdx) == 0 {
			continue
		}
		probeOut := page.Gather(j.probeIdx)
		buildOut := j.table.rows.Gather(j.buildIdx)
		vecs := make([]*column.Vector, 0, len(probeOut.Vectors)+len(buildOut.Vectors))
		vecs = append(vecs, probeOut.Vectors...)
		vecs = append(vecs, buildOut.Vectors...)
		return &column.Page{Schema: j.schema, Vectors: vecs}, nil
	}
}

// lendBuild writes build column src into dst, indexed by the probe
// page's rows: at each row sel names (nil: every row of ids), the value
// of the build row ids[row] — in a unique table, key id is build row. dst
// keeps its buffers where they are large enough, and takes src's Dict, so
// a column in dictionary form is lent as codes.
func lendBuild(dst, src *column.Vector, ids []int32, sel []int) {
	n := len(ids)
	dst.Kind, dst.Dict = src.Kind, src.Dict
	if src.Nulls != nil {
		dst.Nulls = resize(dst.Nulls, n)
		pickAt(dst.Nulls, src.Nulls, ids, sel)
	}
	switch {
	case src.Dict != nil:
		dst.Codes = resize(dst.Codes, n)
		pickAt(dst.Codes, src.Codes, ids, sel)
	case src.Kind == types.Int64 || src.Kind == types.Date:
		dst.Ints = resize(dst.Ints, n)
		pickAt(dst.Ints, src.Ints, ids, sel)
	case src.Kind == types.Float64:
		dst.Floats = resize(dst.Floats, n)
		pickAt(dst.Floats, src.Floats, ids, sel)
	case src.Kind == types.String:
		dst.Strings = resize(dst.Strings, n)
		pickAt(dst.Strings, src.Strings, ids, sel)
	case src.Kind == types.Bool:
		dst.Bools = resize(dst.Bools, n)
		pickAt(dst.Bools, src.Bools, ids, sel)
	}
}

// pickAt sets dst[row] = src[ids[row]] at each row sel names (nil: every
// row of ids).
func pickAt[T any](dst, src []T, ids []int32, sel []int) {
	if sel == nil {
		for row, id := range ids {
			dst[row] = src[id]
		}
		return
	}
	for _, row := range sel {
		dst[row] = src[ids[row]]
	}
}
