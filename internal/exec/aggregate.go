package exec

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
// hoisted out of the row loop. Rows are counted once per group, not per
// measure, and only while a COUNT or a SUM reads the count (rowCount); a
// COUNT or SUM keeps only the NULLs it has seen, on pages whose vector
// carries a mask. The key table and the accumulators read the input
// page's columns through its selection: the page of surviving rows is
// never built.
//
// Over a join whose build side is unique, a group may be a join key id
// (GroupByJoin): then no key table is built at all.
type HashAggregate struct {
	input    Operator
	keys     []int
	measures []substrait.Measure
	mode     AggMode
	schema   *types.Schema
	meter    *Meter
	done     bool
	// join, when set, numbers the groups by its key ids.
	join *HashJoinProbe
}

// NewHashAggregate validates keys and measures against the input schema
// under the Substrait aggregate-output rule.
func NewHashAggregate(input Operator, keys []int, measures []substrait.Measure, mode AggMode, meter *Meter) (*HashAggregate, error) {
	schema, err := substrait.AggregateSchema(input.Schema(), keys, measures, mode == AggFinal)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{
		input:    input,
		keys:     keys,
		measures: measures,
		mode:     mode,
		schema:   schema,
		meter:    meter,
	}, nil
}

// Schema implements Operator.
func (a *HashAggregate) Schema() *types.Schema { return a.schema }

// GroupByJoin makes the aggregate number its groups by the key ids of
// probe, a join over a unique build side: the Moerkotte–Neumann
// groupjoin. A row's group is then its join key's, through one array of
// the table's key count, with groups opened in order of first
// appearance, so every result byte is what the key table would give. The
// caller vouches for two things the aggregate cannot see:
//   - between probe and the aggregate lie only Filters and Projects,
//     which hand on the probe page's rows as they are, so a page row here
//     is a probe page row;
//   - the keys are the join's keys, from either side, and build columns:
//     every join key among them, and no other probe column. On a unique
//     build two matched rows then agree on every key exactly when they
//     have the same key id.
func (a *HashAggregate) GroupByJoin(probe *HashJoinProbe) error {
	if !probe.table.unique {
		return fmt.Errorf("exec: group by join keys over a build side with repeated keys")
	}
	if len(a.keys) == 0 {
		return fmt.Errorf("exec: group by join keys with no keys")
	}
	a.join = probe
	return nil
}

// accumulator holds one measure's per-group state as flat arrays indexed
// by dense group id; rows are counted by the aggregate (rowCount).
type accumulator struct {
	fn   substrait.AggFunc // resolved for the mode (merge fn when final)
	col  int               // input ordinal (state column when final)
	kind types.Kind        // input column kind (min/max reconstruction)

	nulls []int64 // a COUNT's or SUM's NULL count: nil until its vector has a mask
	isums []int64
	fsums []float64

	// min/max state: mmSet marks groups with a non-NULL value; exactly
	// one typed slice is populated, selected by kind.
	mmSet     []bool
	mmInts    []int64
	mmFloats  []float64
	mmStrings []string
	mmBools   []bool
}

// rowCount is an aggregate's one row count per group, taken (on) from
// its first page if it has a COUNT, else from the first page where a
// SUM's vector has a mask. The groups opened before that (from) had a
// value in every SUM, so only later ones can be NULL; for those rows is exact.
type rowCount struct {
	rows     []int64
	on, lent bool // lent: rows is an output vector's buffer
	from     int
}

// growTo extends s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// accumulate folds the rows of page that sel names (nil: every row) into
// the state of n groups; groupIDs[i] is the group of the i-th of them.
// rows is the row count while no walk over this page has taken it: the
// first SUM over a vector with no mask counts it in its walk and returns
// nil, any other measure returns rows. A COUNT or SUM counts NULLs only
// where its vector has a mask: a COUNT over a column with none is free.
func (acc *accumulator) accumulate(page *column.Page, sel []int, groupIDs []int32, n int, rows []int64) ([]int64, error) {
	switch acc.fn {
	case substrait.AggCountStar:
	case substrait.AggCount:
		if nulls := page.Vectors[acc.col].Nulls; nulls != nil {
			acc.nulls = growTo(acc.nulls, n)
			for i, g := range groupIDs {
				if nulls[column.SelRow(sel, i)] {
					acc.nulls[g]++
				}
			}
		}
	case substrait.AggSum:
		vec := page.Vectors[acc.col]
		var counts []int64 // the row count riding in this walk, or the NULL count
		if vec.Nulls == nil {
			counts, rows = rows, nil
		} else {
			acc.nulls = growTo(acc.nulls, n)
			counts = acc.nulls
		}
		switch vec.Kind {
		case types.Int64:
			acc.isums = growTo(acc.isums, n)
			sumInto(acc.isums, counts, vec.Ints, vec.Nulls, sel, groupIDs)
		case types.Float64:
			acc.fsums = growTo(acc.fsums, n)
			sumInto(acc.fsums, counts, vec.Floats, vec.Nulls, sel, groupIDs)
		default:
			return rows, fmt.Errorf("exec: SUM over %s", vec.Kind)
		}
	case substrait.AggMin, substrait.AggMax:
		vec := page.Vectors[acc.col]
		isMin := acc.fn == substrait.AggMin
		acc.mmSet = growTo(acc.mmSet, n)
		switch vec.Kind {
		case types.Int64, types.Date:
			acc.mmInts = growTo(acc.mmInts, n)
			minMaxInto(acc.mmInts, acc.mmSet, vec.Ints, vec.Nulls, sel, groupIDs, isMin)
		case types.Float64:
			acc.mmFloats = growTo(acc.mmFloats, n)
			minMaxInto(acc.mmFloats, acc.mmSet, vec.Floats, vec.Nulls, sel, groupIDs, isMin)
		case types.String:
			acc.mmStrings = growTo(acc.mmStrings, n)
			minMaxInto(acc.mmStrings, acc.mmSet, vec.StringSlice(), vec.Nulls, sel, groupIDs, isMin)
		case types.Bool:
			acc.mmBools = growTo(acc.mmBools, n)
			for i, g := range groupIDs {
				row := column.SelRow(sel, i)
				if vec.Nulls != nil && vec.Nulls[row] {
					continue
				}
				v := vec.Bools[row]
				if !acc.mmSet[g] || (isMin && !v && acc.mmBools[g]) || (!isMin && v && !acc.mmBools[g]) {
					acc.mmBools[g], acc.mmSet[g] = v, true
				}
			}
		}
	default:
		return rows, fmt.Errorf("exec: unsupported aggregate %q", acc.fn)
	}
	return rows, nil
}

// sumInto adds vals under sel (nil: every row) to their groups' sums; ids[i]
// is the group of the i-th. Under a mask (nulls) the NULLs are skipped and
// counted in counts; with none, counts (nil: no count) gains one per row.
// The dense loops come in two forms, over every row and through a
// selection, so that neither pays for the other.
func sumInto[T int64 | float64](sums []T, counts []int64, vals []T, nulls []bool, sel []int, ids []int32) {
	switch {
	case nulls != nil:
		for i, g := range ids {
			if row := column.SelRow(sel, i); nulls[row] {
				counts[g]++
			} else {
				sums[g] += vals[row]
			}
		}
	case counts == nil && sel == nil:
		for i, g := range ids {
			sums[g] += vals[i]
		}
	case counts == nil:
		for i, g := range ids {
			sums[g] += vals[sel[i]]
		}
	case sel == nil:
		for i, g := range ids {
			sums[g] += vals[i]
			counts[g]++
		}
	default:
		for i, g := range ids {
			sums[g] += vals[sel[i]]
			counts[g]++
		}
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
// column, of kind outKind: the per-group arrays become its buffer as they
// are. A COUNT is rc's rows less its NULLs, written over its NULL count,
// or with no NULLs rc's rows, which the first such COUNT owns. A SUM's
// group is NULL when its NULLs equal its rows, so a SUM that saw no mask
// (a merged count among them) has none; a MIN's or MAX's when it saw none.
func (acc *accumulator) emit(outKind types.Kind, n int, rc *rowCount) *column.Vector {
	vec := column.NewVector(outKind)
	switch acc.fn {
	case substrait.AggCount, substrait.AggCountStar:
		switch {
		case acc.nulls != nil:
			vec.Ints = growTo(acc.nulls, n)
			for g, nulls := range vec.Ints {
				vec.Ints[g] = rc.rows[g] - nulls
			}
		case rc.lent:
			vec.Ints = slices.Clone(rc.rows[:n])
		default:
			vec.Ints, rc.lent = rc.rows[:n], true
		}
	case substrait.AggSum:
		if acc.kind == types.Int64 {
			vec.Ints = growTo(acc.isums, n)
		} else {
			vec.Floats = growTo(acc.fsums, n)
		}
		if acc.nulls != nil {
			nulls := growTo(acc.nulls, n)
			vec.Nulls = nullsWhere(n, func(g int) bool { return g >= rc.from && nulls[g] == rc.rows[g] })
		}
	default: // min, max
		switch acc.kind {
		case types.Int64, types.Date:
			vec.Ints = growTo(acc.mmInts, n)
		case types.Float64:
			vec.Floats = growTo(acc.mmFloats, n)
		case types.String:
			vec.Strings = growTo(acc.mmStrings, n)
		case types.Bool:
			vec.Bools = growTo(acc.mmBools, n)
		}
		set := growTo(acc.mmSet, n)
		vec.Nulls = nullsWhere(n, func(g int) bool { return !set[g] })
	}
	return vec
}

// nullsWhere returns the null mask over n groups that marks those empty
// names, or nil when there is none.
func nullsWhere(n int, empty func(g int) bool) []bool {
	var nulls []bool
	for g := range n {
		if empty(g) {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[g] = true
		}
	}
	return nulls
}

// Next implements Operator: it drains the input on first call and emits
// the grouped result as one page.
func (a *HashAggregate) Next() (*column.Page, []int, error) {
	if a.done {
		return nil, nil, nil
	}
	a.done = true

	in := a.input.Schema()
	keyKinds := make([]types.Kind, len(a.keys))
	keyVecs := make([]*column.Vector, len(a.keys))
	for ki, k := range a.keys {
		keyKinds[ki] = in.Columns[k].Type
		keyVecs[ki] = column.NewVector(keyKinds[ki])
	}
	var groups *keyTable
	var joinGroups []int32 // under GroupByJoin: at key id, group id+1
	switch {
	case a.join != nil:
		joinGroups = make([]int32, a.join.table.index.len())
	case len(a.keys) > 0:
		groups = newKeyTable(keyKinds)
	}
	accs := make([]*accumulator, len(a.measures))
	var rc rowCount
	for mi, m := range a.measures {
		acc := &accumulator{fn: m.Func, col: m.Arg}
		if a.mode == AggFinal {
			acc.col = len(a.keys) + mi
			if m.Func == substrait.AggCount || m.Func == substrait.AggCountStar {
				acc.fn = substrait.AggSum // partial counts merge by summation
			}
		}
		if acc.col >= 0 && acc.col < in.Len() {
			acc.kind = in.Columns[acc.col].Type
		}
		accs[mi] = acc
		rc.on = rc.on || acc.fn == substrait.AggCount || acc.fn == substrait.AggCountStar
	}

	var scratch keyScratch
	var groupIDs []int32
	numGroups := 0
	for {
		// page and sel are the input's until the next pull: they are read
		// here and in the calls below, and not kept.
		page, sel, err := a.input.Next()
		if err != nil {
			return nil, nil, err
		}
		if page == nil {
			break
		}
		n := liveRows(page, sel)
		a.meter.charge(n, float64(len(a.keys))+2*float64(len(a.measures)))
		groupIDs = resize(groupIDs, n)
		opened := numGroups
		switch {
		case len(a.keys) == 0:
			// Global aggregation: one implicit group.
			if n > 0 && numGroups == 0 {
				numGroups = 1
			}
			clear(groupIDs)
		case a.join != nil:
			if numGroups, err = a.joinGroups(joinGroups, &scratch, page, sel, groupIDs, numGroups); err != nil {
				return nil, nil, err
			}
		default:
			groups.assign(&scratch, page, a.keys, sel, groupIDs)
			numGroups = groups.len()
		}
		if len(scratch.fresh) > 0 {
			// The rows that opened a group carry its key values.
			for ki, k := range a.keys {
				keyVecs[ki].AppendVector(page.Vectors[k], scratch.fresh)
			}
		}
		if !rc.on && slices.ContainsFunc(accs, func(acc *accumulator) bool {
			return acc.fn == substrait.AggSum && page.Vectors[acc.col].Nulls != nil
		}) {
			rc.on, rc.from = true, opened
		}
		var rows []int64 // until a walk over this page takes the row count
		if rc.on {
			rc.rows = growTo(rc.rows, numGroups)
			rows = rc.rows
		}
		for _, acc := range accs {
			if rows, err = acc.accumulate(page, sel, groupIDs, numGroups, rows); err != nil {
				return nil, nil, err
			}
		}
		if rows != nil { // no SUM walk over a mask-free vector carried it
			for _, g := range groupIDs {
				rows[g]++
			}
		}
	}

	// SQL semantics: a global aggregation (no GROUP BY) over empty input
	// is one group of no rows: counts 0, other aggregates NULL (NULLs =
	// rows). Partial mode emits nothing; the final stage makes that row.
	if numGroups == 0 && len(a.keys) == 0 && a.mode != AggPartial {
		numGroups, rc.rows = 1, make([]int64, 1)
		for mi, acc := range accs {
			if f := a.measures[mi].Func; f != substrait.AggCount && f != substrait.AggCountStar {
				acc.nulls = make([]int64, 1)
			}
		}
	}

	out := column.NewPage(a.schema)
	for ki := range a.keys {
		out.Vectors[ki] = keyVecs[ki]
	}
	for mi, acc := range accs {
		out.Vectors[len(a.keys)+mi] = acc.emit(a.schema.Columns[len(a.keys)+mi].Type, numGroups, &rc)
	}
	return out, nil, nil
}

// joinGroups is the key table's assign under GroupByJoin, over n groups
// so far: it sets ids[i] to the group of the i-th row of sel (nil: of row
// i), the group of the row's join key id, which groups maps to id+1. A
// key id with no group yet opens the next one, and its row goes on
// sc.fresh. It returns the new group count.
func (a *HashAggregate) joinGroups(groups []int32, sc *keyScratch, page *column.Page, sel []int, ids []int32, n int) (int, error) {
	keyIDs := a.join.keyIDs
	if page.NumRows() != len(keyIDs) {
		return n, fmt.Errorf("exec: group by join keys: a page of %d rows over a probe page of %d", page.NumRows(), len(keyIDs))
	}
	sc.fresh = sc.fresh[:0]
	for i := range ids {
		row := column.SelRow(sel, i)
		k := keyIDs[row]
		if k < 0 {
			return n, fmt.Errorf("exec: group by join keys: row %d matched no build row", row)
		}
		g := groups[k]
		if g == 0 {
			n++
			g = int32(n)
			groups[k] = g
			sc.fresh = append(sc.fresh, row)
		}
		ids[i] = g - 1
	}
	return n, nil
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
			strs:  v.StringSlice(),
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

// order returns the rows 0 to n−1 stably sorted under the key list.
func (s *sortKeyCols) order(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.compare(idx[a], idx[b]) < 0 })
	return idx
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
func (s *Sort) Next() (*column.Page, []int, error) {
	if s.done {
		return nil, nil, nil
	}
	s.done = true
	all, err := DrainToPage(s.input)
	if err != nil {
		return nil, nil, err
	}
	n := all.NumRows()
	idx := newSortKeyCols(all, s.keys).order(n)
	// n log n comparisons, each costing ~#keys units.
	s.meter.charge(n, log2ish(n)*float64(len(s.keys)))
	return all.Gather(idx), nil, nil
}

func log2ish(n int) float64 {
	return float64(max(bits.Len(uint(n)), 1))
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
func (t *TopN) Next() (*column.Page, []int, error) {
	if t.done {
		return nil, nil, nil
	}
	t.done = true
	if t.n == 0 {
		return column.NewPage(t.input.Schema()), nil, nil
	}

	// Bounded buffer: accumulate up to 2n rows, then cut back to n.
	buf := column.NewPage(t.input.Schema())
	cut := func() {
		idx := newSortKeyCols(buf, t.keys).order(buf.NumRows())
		if int64(len(idx)) > t.n {
			idx = idx[:t.n]
		}
		buf = buf.Gather(idx)
	}
	for {
		page, sel, err := t.input.Next()
		if err != nil {
			return nil, nil, err
		}
		if page == nil {
			break
		}
		live := liveRows(page, sel)
		t.meter.charge(live, log2ish(int(t.n))*float64(len(t.keys)))
		if int64(live) > t.n {
			// Only the page's own n smallest can reach the output. They go
			// into the buffer in row order, so buffer position still means
			// arrival order and the stable cut breaks ties as before.
			sel = smallestRows(newSortKeyCols(page, t.keys), sel, live, int(t.n))
		}
		buf.AppendPage(page, sel)
		if int64(buf.NumRows()) >= 2*t.n {
			cut()
		}
	}
	cut()
	return buf, nil, nil
}

// smallestRows returns, in ascending order, the n rows of the live ones
// (the rows sel names, nil: rows [0, live); n < live) that come first
// under the total order (sort keys, row ordinal). It streams the rows
// through a max-heap of the n best so far: a row that does not beat the
// heap's worst costs one comparison, one that does costs about log n (the
// hole left by the evicted worst sinks to a leaf along the larger
// children, then the new row rises from there — it usually stays near
// the bottom).
func smallestRows(kc *sortKeyCols, sel []int, live, n int) []int {
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
	for i := range live {
		row := column.SelRow(sel, i)
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
