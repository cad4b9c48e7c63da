// Hash inner equi-join: a fully-drained columnar build side indexed by
// the same keyTable the hash aggregate groups with, probed vectorized
// page-at-a-time. Rows whose key contains NULL never join (SQL
// semantics): they are dropped from the build index at build time, and a
// NULL probe key is a key no indexed row has, so lookups miss without a
// special case.
//
// The probe path is guarded by `make vet-join`: no per-row value
// accessors, no scalar expression evaluation — matching is gather-list
// construction over the key index followed by columnar Gather of both
// sides.
package exec

import (
	"fmt"
	"math"

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
	// index maps a key to its id; the build rows holding key id are
	// head[id], next[head[id]], … until -1, in insertion order.
	index *keyTable
	head  []int32
	next  []int32
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
		page, err := input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			break
		}
		n := page.NumRows()
		if n == 0 {
			continue
		}
		meter.charge(n, float64(len(keys))+1)

		// Columnar NULL-key rejection: a row with any NULL key cannot
		// match an inner join, so it never enters the dense table.
		dense := page
		anyNull := false
		for _, k := range keys {
			if page.Vectors[k].Nulls != nil {
				anyNull = true
				break
			}
		}
		if anyNull {
			live = live[:0]
		rows:
			for row := 0; row < n; row++ {
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
			dense = page.FilterSel(live)
		}

		t.rows.AppendPage(dense)
	}
	// Index the drained rows in one pass over a table sized for them
	// once: no rehash, no arena growth while the keys go in.
	rowKeys := make([]int32, t.rows.NumRows()) // key id of every indexed build row
	t.index.reserve(len(rowKeys))
	var scratch keyScratch
	t.index.assign(&scratch, t.rows, keys, nil, rowKeys)
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
type HashJoinProbe struct {
	input  Operator
	table  *JoinTable
	keys   []int
	schema *types.Schema
	meter  *Meter

	probeIdx []int
	buildIdx []int
	keyIDs   []int32
	scratch  keyScratch
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

// Next implements Operator: it pulls probe pages until one produces
// matches, then emits the gathered probe⊕build page.
func (j *HashJoinProbe) Next() (*column.Page, error) {
	for {
		page, err := j.input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			return nil, nil
		}
		n := page.NumRows()
		if n == 0 || j.table.index.len() == 0 {
			if n > 0 {
				j.meter.charge(n, float64(len(j.keys)))
			}
			continue
		}
		j.meter.charge(n, float64(len(j.keys))+2)

		// Build the match gather lists: one (probe row, build row) pair
		// per join match.
		j.probeIdx = j.probeIdx[:0]
		j.buildIdx = j.buildIdx[:0]
		j.keyIDs = resize(j.keyIDs, n)
		j.table.index.find(&j.scratch, page, j.keys, j.keyIDs)
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
