package exec

import (
	"cmp"
	"fmt"
	"sort"

	"prestocs/internal/column"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// AggMode selects the aggregation phase.
type AggMode uint8

const (
	// AggSingle consumes raw rows and emits final values.
	AggSingle AggMode = iota
	// AggPartial consumes raw rows and emits mergeable partial states
	// (one column per measure). This is what OCS storage nodes and
	// engine workers run.
	AggPartial
	// AggFinal consumes partial states (keys + one state column per
	// measure, in measure order) and emits final values. This is the
	// residual operator the engine keeps after aggregation pushdown.
	AggFinal
)

// HashAggregate groups rows by key columns and computes measures.
// Group keys appear first in the output schema, then one column per
// measure. Output rows are ordered by first appearance of the group,
// making results deterministic for tests.
//
// The implementation is columnar: a keyTable maps each page's key columns
// to dense group ids (first appearance = lowest id); measures accumulate
// into flat per-group arrays with the per-measure function/type dispatch
// hoisted out of the row loop. Under a SelSource (Filter, BloomProbe) the
// key table and the accumulators read the input page's columns through
// the selection: the page of surviving rows is never built.
type HashAggregate struct {
	input    Operator
	keys     []int
	measures []substrait.Measure
	mode     AggMode
	schema   *types.Schema
	meter    *Meter
	done     bool
}

// NewHashAggregate validates measures against the input schema.
func NewHashAggregate(input Operator, keys []int, measures []substrait.Measure, mode AggMode, meter *Meter) (*HashAggregate, error) {
	in := input.Schema()
	var cols []types.Column
	for _, k := range keys {
		if k < 0 || k >= in.Len() {
			return nil, fmt.Errorf("exec: group key ordinal %d out of range", k)
		}
		cols = append(cols, in.Columns[k])
	}
	for i, m := range measures {
		if !substrait.ValidAggFunc(m.Func) {
			return nil, fmt.Errorf("exec: unknown aggregate %q", m.Func)
		}
		inKind := types.Int64
		if mode == AggFinal {
			// Partial-state column: keys first, then measure i.
			stateCol := len(keys) + i
			if stateCol >= in.Len() {
				return nil, fmt.Errorf("exec: final aggregate input missing state column %d", stateCol)
			}
			inKind = in.Columns[stateCol].Type
		} else if m.Func != substrait.AggCountStar {
			if m.Arg < 0 || m.Arg >= in.Len() {
				return nil, fmt.Errorf("exec: measure arg ordinal %d out of range", m.Arg)
			}
			inKind = in.Columns[m.Arg].Type
		}
		outKind, err := m.Func.ResultKind(inKind)
		if err != nil {
			return nil, err
		}
		if mode == AggFinal && (m.Func == substrait.AggCount || m.Func == substrait.AggCountStar) {
			// Partial counts merge by integer summation.
			if inKind != types.Int64 {
				return nil, fmt.Errorf("exec: final %s over a %s state column", m.Func, inKind)
			}
		}
		cols = append(cols, types.Column{Name: m.Name, Type: outKind})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("exec: aggregate with no keys or measures")
	}
	return &HashAggregate{
		input:    input,
		keys:     keys,
		measures: measures,
		mode:     mode,
		schema:   types.NewSchema(cols...),
		meter:    meter,
	}, nil
}

// Schema implements Operator.
func (a *HashAggregate) Schema() *types.Schema { return a.schema }

// accumulator holds one measure's per-group state as flat arrays indexed
// by dense group id.
type accumulator struct {
	fn   substrait.AggFunc // resolved for the mode (merge fn when final)
	col  int               // input ordinal (state column when final)
	kind types.Kind        // input column kind (min/max reconstruction)

	counts []int64
	isums  []int64
	fsums  []float64

	// min/max state: mmSet marks groups with a non-NULL value; exactly
	// one typed slice is populated, selected by kind.
	mmSet     []bool
	mmInts    []int64
	mmFloats  []float64
	mmStrings []string
	mmBools   []bool
}

// grow extends the per-group arrays this measure uses to n groups: counts
// always except for min/max, one sum array by kind, one min/max array by
// kind.
func (acc *accumulator) grow(n int) {
	switch acc.fn {
	case substrait.AggMin, substrait.AggMax:
		acc.mmSet = growTo(acc.mmSet, n)
		switch acc.kind {
		case types.Int64, types.Date:
			acc.mmInts = growTo(acc.mmInts, n)
		case types.Float64:
			acc.mmFloats = growTo(acc.mmFloats, n)
		case types.String:
			acc.mmStrings = growTo(acc.mmStrings, n)
		case types.Bool:
			acc.mmBools = growTo(acc.mmBools, n)
		}
	case substrait.AggSum:
		acc.counts = growTo(acc.counts, n)
		if acc.kind == types.Int64 {
			acc.isums = growTo(acc.isums, n)
		} else {
			acc.fsums = growTo(acc.fsums, n)
		}
	default:
		acc.counts = growTo(acc.counts, n)
	}
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// accumulate folds the rows of page that sel names (nil: every row) into
// the state; groupIDs[i] is the dense group id of the i-th of them. The
// function/kind dispatch happens once per page, not per row; the inner
// loops touch raw column buffers only, and come in two forms — over every
// row, and through a selection — so that neither pays for the other.
func (acc *accumulator) accumulate(page *column.Page, sel []int, groupIDs []int32) error {
	switch acc.fn {
	case substrait.AggCountStar:
		for _, g := range groupIDs {
			acc.counts[g]++
		}
	case substrait.AggCount:
		nulls := page.Vectors[acc.col].Nulls
		switch {
		case nulls == nil:
			for _, g := range groupIDs {
				acc.counts[g]++
			}
		case sel == nil:
			for i, g := range groupIDs {
				if !nulls[i] {
					acc.counts[g]++
				}
			}
		default:
			for i, g := range groupIDs {
				if !nulls[sel[i]] {
					acc.counts[g]++
				}
			}
		}
	case substrait.AggSum:
		vec := page.Vectors[acc.col]
		switch vec.Kind {
		case types.Int64:
			sumInto(acc.isums, acc.counts, vec.Ints, vec.Nulls, sel, groupIDs)
		case types.Float64:
			sumInto(acc.fsums, acc.counts, vec.Floats, vec.Nulls, sel, groupIDs)
		default:
			return fmt.Errorf("exec: SUM over %s", vec.Kind)
		}
	case substrait.AggMin, substrait.AggMax:
		vec := page.Vectors[acc.col]
		isMin := acc.fn == substrait.AggMin
		switch vec.Kind {
		case types.Int64, types.Date:
			minMaxInto(acc.mmInts, acc.mmSet, vec.Ints, vec.Nulls, sel, groupIDs, isMin)
		case types.Float64:
			minMaxInto(acc.mmFloats, acc.mmSet, vec.Floats, vec.Nulls, sel, groupIDs, isMin)
		case types.String:
			minMaxInto(acc.mmStrings, acc.mmSet, vec.Strings, vec.Nulls, sel, groupIDs, isMin)
		case types.Bool:
			for i, g := range groupIDs {
				row := i
				if sel != nil {
					row = sel[i]
				}
				if vec.Nulls != nil && vec.Nulls[row] {
					continue
				}
				v := vec.Bools[row]
				if !acc.mmSet[g] || (isMin && !v && acc.mmBools[g]) || (!isMin && v && !acc.mmBools[g]) {
					acc.mmBools[g] = v
					acc.mmSet[g] = true
				}
			}
		}
	default:
		return fmt.Errorf("exec: unsupported aggregate %q", acc.fn)
	}
	return nil
}

// sumInto adds vals' non-NULL entries under sel (nil: all of them) to
// their groups' sums and counts; ids[i] is the group of the i-th.
func sumInto[T int64 | float64](sums []T, counts []int64, vals []T, nulls []bool, sel []int, ids []int32) {
	add := func(g int32, row int) {
		if nulls == nil || !nulls[row] {
			sums[g] += vals[row]
			counts[g]++
		}
	}
	if sel == nil {
		for i, g := range ids {
			add(g, i)
		}
		return
	}
	for i, g := range ids {
		add(g, sel[i])
	}
}

// minMaxInto folds vals' non-NULL entries under sel (nil: all of them)
// into their groups' minima (isMin) or maxima; set marks the groups that
// have one. Ties keep the incumbent. The order is types.Compare's, which
// for floats means NaN after everything else and equal to itself — the
// two self-comparisons below, which are constant for the other kinds.
func minMaxInto[T cmp.Ordered](best []T, set []bool, vals []T, nulls []bool, sel []int, ids []int32, isMin bool) {
	fold := func(g int32, row int) {
		if nulls != nil && nulls[row] {
			return
		}
		v, cur := vals[row], best[g]
		if !set[g] ||
			(isMin && (v < cur || (cur != cur && v == v))) ||
			(!isMin && (v > cur || (v != v && cur == cur))) {
			best[g] = v
			set[g] = true
		}
	}
	if sel == nil {
		for i, g := range ids {
			fold(g, i)
		}
		return
	}
	for i, g := range ids {
		fold(g, sel[i])
	}
}

// emit turns the state of the first n groups into the measure's output
// column, of kind outKind: the per-group arrays become the column's
// buffer as they are, and a group that saw no value is NULL — or 0 when
// zeroIfEmpty, which is how merged partial counts come out.
func (acc *accumulator) emit(outKind types.Kind, n int, zeroIfEmpty bool) *column.Vector {
	vec := column.NewVector(outKind)
	switch acc.fn {
	case substrait.AggCount, substrait.AggCountStar:
		vec.Ints = acc.counts[:n]
	case substrait.AggSum:
		if acc.kind == types.Int64 {
			vec.Ints = acc.isums[:n]
		} else {
			vec.Floats = acc.fsums[:n]
		}
		if !zeroIfEmpty {
			vec.Nulls = nullsWhere(acc.counts[:n], 0)
		}
	default: // min, max
		switch acc.kind {
		case types.Int64, types.Date:
			vec.Ints = acc.mmInts[:n]
		case types.Float64:
			vec.Floats = acc.mmFloats[:n]
		case types.String:
			vec.Strings = acc.mmStrings[:n]
		case types.Bool:
			vec.Bools = acc.mmBools[:n]
		}
		vec.Nulls = nullsWhere(acc.mmSet[:n], false)
	}
	return vec
}

// nullsWhere returns the null mask that marks the entries of state equal
// to empty, or nil when there is none.
func nullsWhere[T comparable](state []T, empty T) []bool {
	var nulls []bool
	for g, s := range state {
		if s == empty {
			if nulls == nil {
				nulls = make([]bool, len(state))
			}
			nulls[g] = true
		}
	}
	return nulls
}

// Next implements Operator: it drains the input on first call and emits
// the grouped result as one page.
func (a *HashAggregate) Next() (*column.Page, error) {
	if a.done {
		return nil, nil
	}
	a.done = true

	in := a.input.Schema()
	keyKinds := make([]types.Kind, len(a.keys))
	keyVecs := make([]*column.Vector, len(a.keys))
	for ki, k := range a.keys {
		keyKinds[ki] = in.Columns[k].Type
		keyVecs[ki] = column.NewVector(keyKinds[ki])
	}
	groups := newKeyTable(keyKinds)
	accs := make([]*accumulator, len(a.measures))
	for mi, m := range a.measures {
		acc := &accumulator{fn: m.Func, col: m.Arg}
		if a.mode == AggFinal {
			acc.fn = mergeFunc(m.Func)
			acc.col = len(a.keys) + mi
		}
		if acc.col >= 0 && acc.col < in.Len() {
			acc.kind = in.Columns[acc.col].Type
		}
		accs[mi] = acc
	}

	var scratch keyScratch
	var groupIDs []int32
	numGroups := 0
	for {
		// sel is the source's until the next pull: it is read here and in
		// the calls below, and not kept.
		page, sel, err := nextSel(a.input)
		if err != nil {
			return nil, err
		}
		if page == nil {
			break
		}
		n := liveRows(page, sel)
		a.meter.charge(n, float64(len(a.keys))+2*float64(len(a.measures)))
		groupIDs = resize(groupIDs, n)
		if len(a.keys) == 0 {
			// Global aggregation: one implicit group.
			if n > 0 && numGroups == 0 {
				numGroups = 1
			}
			for i := range groupIDs {
				groupIDs[i] = 0
			}
		} else {
			groups.assign(&scratch, page, a.keys, sel, groupIDs)
			numGroups = groups.len()
			if len(scratch.fresh) > 0 {
				// The rows that opened a group carry its key values.
				for ki, k := range a.keys {
					keyVecs[ki].AppendVector(page.Vectors[k].Gather(scratch.fresh))
				}
			}
		}
		for _, acc := range accs {
			acc.grow(numGroups)
			if err := acc.accumulate(page, sel, groupIDs); err != nil {
				return nil, err
			}
		}
	}

	// SQL semantics: a global aggregation (no GROUP BY) over empty input
	// yields one row — count 0, other aggregates NULL. Partial mode emits
	// nothing instead; the final stage synthesizes the default row.
	if numGroups == 0 && len(a.keys) == 0 && a.mode != AggPartial {
		out := column.NewPage(a.schema)
		row := make([]types.Value, 0, a.schema.Len())
		for mi, m := range a.measures {
			switch m.Func {
			case substrait.AggCount, substrait.AggCountStar:
				row = append(row, types.IntValue(0))
			default:
				row = append(row, types.NullValue(a.schema.Columns[mi].Type))
			}
		}
		out.AppendRow(row...)
		return out, nil
	}

	out := column.NewPage(a.schema)
	for ki := range a.keys {
		out.Vectors[ki] = keyVecs[ki]
	}
	for mi, m := range a.measures {
		// SQL: SUM over a group with no value is NULL; a COUNT merged from
		// partial counts is 0.
		mergedCount := a.mode == AggFinal && (m.Func == substrait.AggCount || m.Func == substrait.AggCountStar)
		out.Vectors[len(a.keys)+mi] = accs[mi].emit(a.schema.Columns[len(a.keys)+mi].Type, numGroups, mergedCount)
	}
	return out, nil
}

// mergeFunc maps an original aggregate to the function that merges its
// partial states: counts merge by summation, sums by summation, min/max
// by min/max.
func mergeFunc(f substrait.AggFunc) substrait.AggFunc {
	switch f {
	case substrait.AggCount, substrait.AggCountStar:
		return substrait.AggSum
	default:
		return f
	}
}

// SortSpec orders rows by column ordinal: the plan's and the Substrait
// IR's sort key, so neither converts on the way in.
type SortSpec = substrait.SortKey

// sortKeyCols is the typed view of a page's sort-key columns, extracted
// once so each comparison reads raw buffers instead of boxing two
// types.Values per key (as the old compareRows did).
type sortKeyCols struct {
	cols []sortKeyCol
}

type sortKeyCol struct {
	desc  bool
	kind  types.Kind
	nulls []bool
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
}

func newSortKeyCols(p *column.Page, keys []SortSpec) *sortKeyCols {
	s := &sortKeyCols{cols: make([]sortKeyCol, len(keys))}
	for i, k := range keys {
		v := p.Vectors[k.Column]
		s.cols[i] = sortKeyCol{
			desc:  k.Descending,
			kind:  v.Kind,
			nulls: v.Nulls,
			ints:  v.Ints,
			flts:  v.Floats,
			strs:  v.Strings,
			bools: v.Bools,
		}
	}
	return s
}

// compare orders rows a and b under the key list: NULLS FIRST, floats by
// the engine's NaN-total order — identical to types.Compare.
func (s *sortKeyCols) compare(a, b int) int {
	for i := range s.cols {
		c := s.cols[i].cmp(a, b)
		if c != 0 {
			if s.cols[i].desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func (c *sortKeyCol) cmp(a, b int) int {
	if c.nulls != nil {
		aN, bN := c.nulls[a], c.nulls[b]
		switch {
		case aN && bN:
			return 0
		case aN:
			return -1
		case bN:
			return 1
		}
	}
	switch c.kind {
	case types.Int64, types.Date:
		switch {
		case c.ints[a] < c.ints[b]:
			return -1
		case c.ints[a] > c.ints[b]:
			return 1
		}
		return 0
	case types.Float64:
		return types.CompareFloat(c.flts[a], c.flts[b])
	case types.String:
		switch {
		case c.strs[a] < c.strs[b]:
			return -1
		case c.strs[a] > c.strs[b]:
			return 1
		}
		return 0
	case types.Bool:
		switch {
		case !c.bools[a] && c.bools[b]:
			return -1
		case c.bools[a] && !c.bools[b]:
			return 1
		}
		return 0
	}
	return 0
}

// Sort fully sorts its input by the given keys (stable).
type Sort struct {
	input Operator
	keys  []SortSpec
	meter *Meter
	done  bool
}

// NewSort validates sort keys.
func NewSort(input Operator, keys []SortSpec, meter *Meter) (*Sort, error) {
	in := input.Schema()
	if len(keys) == 0 {
		return nil, fmt.Errorf("exec: sort with no keys")
	}
	for _, k := range keys {
		if k.Column < 0 || k.Column >= in.Len() {
			return nil, fmt.Errorf("exec: sort key ordinal %d out of range", k.Column)
		}
	}
	return &Sort{input: input, keys: keys, meter: meter}, nil
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.input.Schema() }

// Next implements Operator.
func (s *Sort) Next() (*column.Page, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	all, err := DrainToPage(s.input)
	if err != nil {
		return nil, err
	}
	n := all.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	kc := newSortKeyCols(all, s.keys)
	sort.SliceStable(idx, func(a, b int) bool {
		return kc.compare(idx[a], idx[b]) < 0
	})
	// n log n comparisons, each costing ~#keys units.
	s.meter.charge(n, log2ish(n)*float64(len(s.keys)))
	return all.Gather(idx), nil
}

func log2ish(n int) float64 {
	bits := 0
	for v := n; v > 1; v >>= 1 {
		bits++
	}
	return float64(bits + 1)
}

// TopN keeps the n smallest rows under the sort keys, emitting them in
// sorted order; ties go to the row that arrived first, exactly as a
// stable Sort followed by Limit would break them. A page contributes at
// most n rows to the buffer (bounded-heap selection, rows·log n), so
// memory is bounded at 3n rows however large a single page is.
type TopN struct {
	input Operator
	keys  []SortSpec
	n     int64
	meter *Meter
	done  bool
}

// NewTopN validates the keys and limit.
func NewTopN(input Operator, keys []SortSpec, n int64, meter *Meter) (*TopN, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: top-N with negative limit %d", n)
	}
	in := input.Schema()
	for _, k := range keys {
		if k.Column < 0 || k.Column >= in.Len() {
			return nil, fmt.Errorf("exec: top-N key ordinal %d out of range", k.Column)
		}
	}
	return &TopN{input: input, keys: keys, n: n, meter: meter}, nil
}

// Schema implements Operator.
func (t *TopN) Schema() *types.Schema { return t.input.Schema() }

// Next implements Operator.
func (t *TopN) Next() (*column.Page, error) {
	if t.done {
		return nil, nil
	}
	t.done = true
	if t.n == 0 {
		return column.NewPage(t.input.Schema()), nil
	}

	// Bounded buffer: accumulate up to 2n rows, then cut back to n.
	buf := column.NewPage(t.input.Schema())
	cut := func() {
		n := buf.NumRows()
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		kc := newSortKeyCols(buf, t.keys)
		sort.SliceStable(idx, func(a, b int) bool {
			return kc.compare(idx[a], idx[b]) < 0
		})
		if int64(len(idx)) > t.n {
			idx = idx[:t.n]
		}
		buf = buf.Gather(idx)
	}
	for {
		page, err := t.input.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			break
		}
		t.meter.charge(page.NumRows(), log2ish(int(t.n))*float64(len(t.keys)))
		if int64(page.NumRows()) > t.n {
			// Only the page's own n smallest can reach the output. They go
			// into the buffer in row order, so buffer position still means
			// arrival order and the stable cut breaks ties as before.
			page = page.Gather(smallestRows(newSortKeyCols(page, t.keys), page.NumRows(), int(t.n)))
		}
		buf.AppendPage(page)
		if int64(buf.NumRows()) >= 2*t.n {
			cut()
		}
	}
	cut()
	return buf, nil
}

// smallestRows returns, in ascending order, the n rows (n < rows) that
// come first under the total order (sort keys, row ordinal). It streams
// the rows through a max-heap of the n best so far: a row that does not
// beat the heap's worst costs one comparison, one that does costs about
// log n (the hole left by the evicted worst sinks to a leaf along the
// larger children, then the new row rises from there — it usually stays
// near the bottom).
func smallestRows(kc *sortKeyCols, rows, n int) []int {
	// after reports whether row a sorts after row b.
	after := func(a, b int) bool {
		c := kc.compare(a, b)
		return c > 0 || (c == 0 && a > b)
	}
	heap := make([]int, 0, n) // heap[0] is the worst row kept
	// rise places row at hole i or at whichever ancestor it outranks.
	rise := func(i, row int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !after(row, heap[parent]) {
				break
			}
			heap[i] = heap[parent]
			i = parent
		}
		heap[i] = row
	}
	for row := 0; row < rows; row++ {
		if len(heap) < n {
			heap = append(heap, row)
			rise(len(heap)-1, row)
			continue
		}
		// A later row never wins a tie, so it must compare strictly less.
		if kc.compare(row, heap[0]) >= 0 {
			continue
		}
		hole := 0
		for child := 1; child < n; child = 2*hole + 1 {
			if r := child + 1; r < n && after(heap[r], heap[child]) {
				child = r
			}
			heap[hole] = heap[child]
			hole = child
		}
		rise(hole, row)
	}
	sort.Ints(heap)
	return heap
}
