package exec

import (
	"fmt"
	"math"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Tests of the aggregate's measures against a row-at-a-time reference:
// one row count per group, shared by the COUNTs and the SUMs, and NULL
// counts kept only where a page's vector carries a mask.

// measureSchema is the fuzz table: a group key k, never NULL, and one
// column of each kind a measure reads.
var measureSchema = types.NewSchema(
	types.Column{Name: "k", Type: types.Int64},
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "d", Type: types.Date},
	types.Column{Name: "s", Type: types.String},
)

// measureKeys are the groupings two bits pick: none (one global group),
// k (twice), and k with d, whose NULL is a key value of its own.
var measureKeys = [][]int{nil, {0}, {0, 3}, {0}}

// measureValue is the value of column c (1–4) that row byte r holds:
// small integers, floats with both zeros and a NaN, dates, and strings
// under and over the eight bytes a key word holds, "" among them.
func measureValue(c int, r byte) types.Value {
	switch c {
	case 1:
		return types.IntValue(int64(r%7) - 3)
	case 2:
		switch v := r % 11; v {
		case 9:
			return types.FloatValue(math.Copysign(0, -1))
		case 10:
			return types.FloatValue(math.NaN())
		default:
			return types.FloatValue(float64(v) / 4)
		}
	case 3:
		return types.DateValue(9000 + int64(r%5))
	}
	return types.StringValue([]string{"", "b", "a", "a longer string"}[r%4])
}

// measureCase is a fuzz input decoded. Byte 0 picks the grouping (bits
// 0–1), Partial → Final or Single (bit 2) and the page size (bits 3–5);
// byte 1 the measure count, and one byte each the measures: function
// (COUNT(*), COUNT, SUM, MIN, MAX) and column. Then each page is a header
// byte, whose bits 0–3 give columns i, f, d and s a NULL mask on the page
// and bits 4–5 the selection (none, every other row, the rows whose bit 6
// is set, every row listed), and a byte a row: k is its value mod 3, and
// a masked column c (1–4, i to s) is NULL where bit 1+c is set.
type measureCase struct {
	keys     []int
	partial  bool
	measures []substrait.Measure
	pages    []*column.Page
	sels     [][]int
}

func decodeMeasures(in []byte) *measureCase {
	if len(in) < 2 || len(in) < 2+int(in[1]%8)+1 {
		return nil
	}
	c := &measureCase{keys: measureKeys[in[0]&3], partial: in[0]&4 != 0}
	pageRows := 1 + int(in[0]>>3&7)*3
	nm := int(in[1]%8) + 1
	for i, b := range in[2 : 2+nm] {
		fn := []substrait.AggFunc{substrait.AggCountStar, substrait.AggCount, substrait.AggSum,
			substrait.AggMin, substrait.AggMax}[b%5]
		col := 1 + int(b/5)%4
		switch {
		case fn == substrait.AggCountStar:
			col = -1
		case fn == substrait.AggSum && col > 2:
			col -= 2 // SUM reads i or f
		}
		c.measures = append(c.measures, substrait.Measure{Func: fn, Arg: col, Name: fmt.Sprintf("m%d", i)})
	}
	rest := in[2+nm:]
	for len(rest) > 1 {
		head, rows := rest[0], rest[1:min(1+pageRows, len(rest))]
		rest = rest[1+len(rows):]
		page := column.NewPage(measureSchema)
		var sel []int
		for row, r := range rows {
			vals := []types.Value{types.IntValue(int64(r % 3))}
			for col := 1; col <= 4; col++ {
				v := measureValue(col, r)
				if head>>(col-1)&1 == 1 && r>>(1+col)&1 == 1 {
					v = types.NullValue(v.Kind)
				}
				vals = append(vals, v)
			}
			page.AppendRow(vals...)
			switch head >> 4 & 3 {
			case 1:
				if row%2 == 0 {
					sel = append(sel, row)
				}
			case 2:
				if r&0x40 != 0 {
					sel = append(sel, row)
				}
			case 3:
				sel = append(sel, row)
			}
		}
		// A masked column carries its mask, NULL or not; the others none.
		for col := 1; col <= 4; col++ {
			if head>>(col-1)&1 == 1 && page.Vectors[col].Nulls == nil {
				page.Vectors[col].Nulls = make([]bool, len(rows))
			}
		}
		if head>>4&3 == 0 {
			sel = nil
		} else if len(sel) == 0 {
			continue // an operator hands over no page with no live row
		}
		c.pages, c.sels = append(c.pages, page), append(c.sels, sel)
	}
	return c
}

// selPages is an Operator over fixed pages and their selections.
type selPages struct {
	pages []*column.Page
	sels  [][]int
}

func (s *selPages) Schema() *types.Schema { return measureSchema }

func (s *selPages) Next() (*column.Page, []int, error) {
	if len(s.pages) == 0 {
		return nil, nil, nil
	}
	page, sel := s.pages[0], s.sels[0]
	s.pages, s.sels = s.pages[1:], s.sels[1:]
	return page, sel, nil
}

// liveRowsOf lists the live rows of the pages, row at a time.
func liveRowsOf(pages []*column.Page, sels [][]int) [][]types.Value {
	var rows [][]types.Value
	for p, page := range pages {
		if sels[p] == nil {
			for r := 0; r < page.NumRows(); r++ {
				rows = append(rows, page.Row(r))
			}
			continue
		}
		for _, r := range sels[p] {
			rows = append(rows, page.Row(r))
		}
	}
	return rows
}

// referenceAggregate is the answer row at a time: a group per distinct
// key, in order of first appearance (no keys: one group, if any row or
// unless partial), and per measure over the group's rows in order: COUNT(*)
// the rows, COUNT the non-NULL values, SUM the non-NULL values added to 0
// in row order, NULL if there are none, MIN and MAX the first least or
// greatest non-NULL value under types.Compare, NULL if there are none.
// merged marks the measures that are a merged COUNT, which is 0 over no
// rows, not NULL.
func referenceAggregate(rows [][]types.Value, keys []int, measures []substrait.Measure, kinds []types.Kind, partial bool, merged []bool) [][]types.Value {
	type group struct {
		row  []types.Value
		seen []bool
	}
	var groups []*group
	at := map[string]*group{}
	open := func(r []types.Value) *group {
		g := &group{seen: make([]bool, len(measures))}
		for _, k := range keys {
			g.row = append(g.row, r[k])
		}
		for mi, m := range measures {
			switch {
			case m.Func == substrait.AggCount || m.Func == substrait.AggCountStar || merged[mi]:
				g.row = append(g.row, types.IntValue(0))
			case m.Func == substrait.AggSum && kinds[mi] == types.Float64:
				g.row = append(g.row, types.FloatValue(0))
			case m.Func == substrait.AggSum:
				g.row = append(g.row, types.IntValue(0))
			default:
				g.row = append(g.row, types.NullValue(kinds[mi]))
			}
		}
		groups = append(groups, g)
		return g
	}
	for _, r := range rows {
		key := fmt.Sprint(len(keys))
		for _, k := range keys {
			key += fmt.Sprintf("|%t %v", r[k].Null, r[k])
		}
		g := at[key]
		if g == nil {
			g = open(r)
			at[key] = g
		}
		for mi, m := range measures {
			out := &g.row[len(keys)+mi]
			if m.Func == substrait.AggCountStar {
				out.I++
				continue
			}
			v := r[m.Arg]
			if v.Null {
				continue
			}
			switch m.Func {
			case substrait.AggCount:
				out.I++
			case substrait.AggSum:
				out.I += v.I
				out.F += v.F
			case substrait.AggMin, substrait.AggMax:
				c := types.Compare(v, *out)
				if !g.seen[mi] || (m.Func == substrait.AggMin && c < 0) || (m.Func == substrait.AggMax && c > 0) {
					*out = v
				}
			}
			g.seen[mi] = true
		}
	}
	if len(groups) == 0 && len(keys) == 0 && !partial {
		open(nil)
	}
	var out [][]types.Value
	for _, g := range groups {
		for mi, m := range measures {
			if m.Func == substrait.AggSum && !merged[mi] && !g.seen[mi] {
				g.row[len(keys)+mi] = types.NullValue(kinds[mi])
			}
		}
		out = append(out, g.row)
	}
	return out
}

// checkAggregate drains agg and holds its page to the reference rows:
// cell for cell (requireIdentical) and, in the measure columns, buffer
// for buffer — a NULL mask only where a group is NULL, zero under it.
func checkAggregate(t *testing.T, what string, agg Operator, nkeys int, rows [][]types.Value) *column.Page {
	t.Helper()
	got, err := DrainToPage(agg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := column.NewPage(agg.Schema())
	for _, r := range rows {
		want.AppendRow(r...)
	}
	requireIdentical(t, what, got, want)
	measures := types.NewSchema(agg.Schema().Columns[nkeys:]...)
	requireSameBuffers(t, what+" (measure buffers)",
		&column.Page{Schema: measures, Vectors: got.Vectors[nkeys:]}, &column.Page{Schema: measures, Vectors: want.Vectors[nkeys:]})
	return got
}

// FuzzAggregateMeasures holds HashAggregate to the row-at-a-time
// reference over random measure lists — COUNT(*), COUNT, SUM, MIN and MAX
// over BIGINT, DOUBLE, DATE and VARCHAR — with each column's NULL mask
// present on some pages and absent on others, under random selections:
// in Single mode, and in Partial mode over two splits whose output is fed
// through Final.
func FuzzAggregateMeasures(f *testing.F) {
	f.Add([]byte{0x0d, 8, 0, 1, 2, 3, 4, 6, 7, 12, 0x00, 1, 2, 3, 4, 0x0f, 0x3c, 0x3c, 0x04, 0x08})
	f.Add([]byte{0x09, 3, 2, 7, 1, 0x21, 9, 10, 0x4f, 0x44, 0x02, 0xff, 0xfe, 0x30, 5, 6})         // a SUM masked from the second page on
	f.Add([]byte{0x2e, 4, 0, 1, 6, 8, 0x00, 1, 2, 3, 0x3f, 0x7c, 0x7c, 0x7c, 0x00, 4, 5, 6})       // a group all NULL in every column
	f.Add([]byte{0x01, 0, 2, 0x00, 0x00, 0x01, 0x0c})                                              // SUM(i): group 0 opened unmasked, then a NULL
	f.Add([]byte{0x00, 1, 0, 0x1f, 0x44, 0x00})                                                    // global: COUNT(*) over one masked page
	f.Add([]byte{0x04, 2, 2, 1})                                                                   // no rows: partial emits nothing, final the default row
	f.Add([]byte{0x1a, 5, 2, 7, 16, 11, 19, 0x13, 0x7c, 0x40, 0xfc, 0x00, 0x10, 0x23, 0x45, 0x67}) // strings and dates
	f.Fuzz(func(t *testing.T, in []byte) {
		c := decodeMeasures(in)
		if c == nil {
			return
		}
		kinds := make([]types.Kind, len(c.measures))
		for mi, m := range c.measures {
			kinds[mi] = types.Int64
			if m.Func != substrait.AggCount && m.Func != substrait.AggCountStar {
				kinds[mi] = measureSchema.Columns[m.Arg].Type
			}
		}
		noMerge := make([]bool, len(c.measures))
		nk := len(c.keys)
		if !c.partial {
			agg := mustOp(NewHashAggregate(&selPages{c.pages, c.sels}, c.keys, c.measures, AggSingle, nil))
			checkAggregate(t, "single", agg, nk, referenceAggregate(liveRowsOf(c.pages, c.sels), c.keys, c.measures, kinds, false, noMerge))
			return
		}

		// Two splits, each aggregated partially, then merged.
		half := len(c.pages) / 2
		var states []*column.Page
		var stateRows [][]types.Value
		for _, split := range [][2]int{{0, half}, {half, len(c.pages)}} {
			pages, sels := c.pages[split[0]:split[1]], c.sels[split[0]:split[1]]
			agg := mustOp(NewHashAggregate(&selPages{pages, sels}, c.keys, c.measures, AggPartial, nil))
			want := referenceAggregate(liveRowsOf(pages, sels), c.keys, c.measures, kinds, true, noMerge)
			states = append(states, checkAggregate(t, fmt.Sprintf("partial [%d, %d)", split[0], split[1]), agg, nk, want))
			stateRows = append(stateRows, want...)
		}
		stateSchema := states[0].Schema
		finalKeys := make([]int, nk)
		merges := make([]substrait.Measure, len(c.measures))
		merged := make([]bool, len(c.measures))
		for i := range finalKeys {
			finalKeys[i] = i
		}
		for mi, m := range c.measures {
			merges[mi] = substrait.Measure{Func: m.Func, Arg: nk + mi, Name: m.Name}
			if merged[mi] = m.Func == substrait.AggCount || m.Func == substrait.AggCountStar; merged[mi] {
				merges[mi].Func = substrait.AggSum
			}
		}
		agg := mustOp(NewHashAggregate(NewPageSource(stateSchema, states), finalKeys, c.measures, AggFinal, nil))
		checkAggregate(t, "final", agg, nk, referenceAggregate(stateRows, finalKeys, merges, kinds, false, merged))
	})
}

// TestCountOutputsDoNotAlias pins the row count's one owner: COUNT(*) and
// a COUNT over a column without a NULL mask both come out as the group
// row counts, and writing one output vector leaves the other as it was.
func TestCountOutputsDoNotAlias(t *testing.T) {
	page := column.NewPage(measureSchema)
	for _, r := range []byte{0, 1, 3, 4, 2} {
		page.AppendRow(types.IntValue(int64(r%3)), measureValue(1, r), measureValue(2, r), measureValue(3, r), measureValue(4, r))
	}
	measures := []substrait.Measure{
		{Func: substrait.AggCountStar, Arg: -1, Name: "n"},
		{Func: substrait.AggCount, Arg: 2, Name: "cf"},
		{Func: substrait.AggSum, Arg: 1, Name: "si"},
		{Func: substrait.AggCount, Arg: 1, Name: "ci"},
	}
	out, err := DrainToPage(mustOp(NewHashAggregate(NewPageSource(measureSchema, []*column.Page{page}), []int{0}, measures, AggSingle, nil)))
	if err != nil {
		t.Fatal(err)
	}
	counts := []*column.Vector{out.Vectors[1], out.Vectors[2], out.Vectors[4]}
	for i, c := range counts {
		if len(c.Ints) != 3 || c.Ints[0] != 2 || c.Ints[1] != 2 || c.Ints[2] != 1 {
			t.Fatalf("count %d = %v, want [2 2 1]", i, c.Ints)
		}
	}
	for i, c := range counts {
		c.Ints[0] = 100 + int64(i)
		for j, other := range counts {
			if j != i && other.Ints[0] == c.Ints[0] {
				t.Fatalf("writing count %d changed count %d: they share one array", i, j)
			}
		}
	}
}
