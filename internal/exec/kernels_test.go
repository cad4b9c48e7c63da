package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Differential tests for the columnar kernels: bounded Top-N against a
// stable Sort + Limit, the key table against the byte-encoded
// map[string] index it replaced, and the join's emission order against a
// nested loop.

// requireIdentical fails unless the two pages agree cell for cell: NULL
// flags, float bit patterns (so -0.0 ≠ +0.0 and NaN payloads count) and
// every other value exactly.
func requireIdentical(t *testing.T, what string, got, want *column.Page) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c, gv := range got.Vectors {
		wv := want.Vectors[c]
		for i := 0; i < gv.Len(); i++ {
			g, w := gv.Value(i), wv.Value(i)
			same := g.Null == w.Null && g.Kind == w.Kind
			if same && !g.Null {
				same = g.I == w.I && g.S == w.S && g.B == w.B && math.Float64bits(g.F) == math.Float64bits(w.F)
			}
			if !same {
				t.Fatalf("%s: row %d col %d: got %v, want %v", what, i, c, g, w)
			}
		}
	}
}

// randomKeyValue draws from a small domain per kind, so keys collide
// often: NULLs, NaNs with different payloads, both zeros, strings that
// contain the old encodings' delimiters and, past a domain of 8, strings
// of eight bytes and more (interned rather than packed into a key word).
func randomKeyValue(rnd *rand.Rand, kind types.Kind, domain int) types.Value {
	if rnd.Intn(8) == 0 {
		return types.NullValue(kind)
	}
	switch kind {
	case types.Int64:
		return types.IntValue(int64(rnd.Intn(domain)) - 2)
	case types.Date:
		return types.DateValue(int64(9000 + rnd.Intn(domain)))
	case types.Float64:
		switch rnd.Intn(domain + 4) {
		case 0:
			return types.FloatValue(math.NaN())
		case 1:
			return types.FloatValue(math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(1+rnd.Intn(3))))
		case 2:
			return types.FloatValue(math.Copysign(0, -1))
		case 3:
			return types.FloatValue(0)
		}
		return types.FloatValue(float64(rnd.Intn(domain)) / 4)
	case types.Bool:
		return types.BoolValue(rnd.Intn(2) == 0)
	default:
		return types.StringValue([]string{"", "a", "a\x00", "\x00a", "NULL", "ab", "b", "\x01",
			"1234567", "12345678", "123456789", "a string of more than eight bytes"}[rnd.Intn(min(domain, 12))])
	}
}

// dictPages returns the pages with every String column in dictionary form,
// as parquetlite decodes a Dict chunk: each page's column numbers its
// strings in its own order (first appearance, or last on every other
// page), so a code means something different on each page, and a NULL row
// gets an entry no other row uses.
func dictPages(pages []*column.Page) []*column.Page {
	out := make([]*column.Page, len(pages))
	for pi, p := range pages {
		q := &column.Page{Schema: p.Schema, Vectors: slices.Clone(p.Vectors)}
		for c, v := range p.Vectors {
			if v.Kind != types.String {
				continue
			}
			d := &column.Vector{Kind: types.String, Nulls: v.Nulls, Dict: []string{"null row"}, Codes: make([]int32, v.Len())}
			index := map[string]int32{}
			for k := range v.Strings {
				i := k
				if pi%2 == 1 {
					i = len(v.Strings) - 1 - k
				}
				if v.IsNull(i) {
					continue
				}
				code, ok := index[v.Strings[i]]
				if !ok {
					code = int32(len(d.Dict))
					index[v.Strings[i]] = code
					d.Dict = append(d.Dict, v.Strings[i])
				}
				d.Codes[i] = code
			}
			q.Vectors[c] = d
		}
		out[pi] = q
	}
	return out
}

func randomKeyPages(rnd *rand.Rand, schema *types.Schema, domain int, pageRows ...int) []*column.Page {
	pages := make([]*column.Page, len(pageRows))
	ord := int64(0)
	for pi, rows := range pageRows {
		p := column.NewPage(schema)
		for r := 0; r < rows; r++ {
			row := make([]types.Value, schema.Len())
			for c, col := range schema.Columns {
				row[c] = randomKeyValue(rnd, col.Type, domain)
			}
			// The last column is a unique arrival ordinal, so that two rows
			// with equal keys are still told apart.
			row[len(row)-1] = types.IntValue(ord)
			ord++
			p.AppendRow(row...)
		}
		pages[pi] = p
	}
	return pages
}

func TestTopNMatchesStableSortLimit(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "ord", Type: types.Int64},
	)
	rnd := rand.New(rand.NewSource(16))
	// Pages smaller than, equal to and far larger than every n; 12.4k rows.
	pages := randomKeyPages(rnd, schema, 5, 3, 1, 4096, 10, 7000, 100, 1, 1200)
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	keySets := [][]SortSpec{
		{{Column: 0}},
		{{Column: 1, Descending: true}},
		{{Column: 2}, {Column: 0, Descending: true}},
		{{Column: 4, Descending: true}, {Column: 3}, {Column: 1}},
		{{Column: 1}, {Column: 2, Descending: true}, {Column: 0}, {Column: 3}, {Column: 4}},
	}
	for _, keys := range keySets {
		for _, n := range []int64{0, 1, 10, 100, 4096, int64(total), int64(total) + 5, 1 << 40} {
			topn, err := NewTopN(NewPageSource(schema, pages), keys, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DrainToPage(topn)
			if err != nil {
				t.Fatal(err)
			}
			srt, _ := NewSort(NewPageSource(schema, pages), keys, nil)
			want, _ := DrainToPage(NewLimit(srt, n))
			requireIdentical(t, fmt.Sprintf("keys=%v n=%d", keys, n), got, want)
		}
	}
}

// encodeGroupKey is the key encoding the operators used before the key
// table: a presence byte per key, then a big-endian word, a bool byte or a
// uvarint-prefixed string. Kept here as the reference the table is checked
// against.
func encodeGroupKey(buf []byte, page *column.Page, keys []int, row int) []byte {
	for _, k := range keys {
		vec := page.Vectors[k]
		if vec.Nulls != nil && vec.Nulls[row] {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		switch vec.Kind {
		case types.Int64, types.Date:
			buf = binary.BigEndian.AppendUint64(buf, uint64(vec.Ints[row]))
		case types.Float64:
			f := vec.Floats[row]
			if math.IsNaN(f) {
				f = math.NaN()
			}
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
		case types.String:
			s := vec.Value(row).S
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case types.Bool:
			if vec.Bools[row] {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

func TestKeyTableMatchesReference(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "ord", Type: types.Int64},
	)
	colSets := [][]int{
		{0}, {2}, {3}, {4}, // one column of each kind
		{0, 1}, {0, 1, 2, 3}, // fixed-width columns only
		{4, 4}, {0, 4}, {4, 2, 3, 1, 0}, // with interned strings
		{5}, // all distinct: grows the table many times
	}
	for _, cols := range colSets {
		for _, domain := range []int{2, 40} {
			for _, dict := range []bool{false, true} {
				rnd := rand.New(rand.NewSource(int64(len(cols)*100 + domain)))
				pages := randomKeyPages(rnd, schema, domain, 1, 4096, 17, 3000, 0, 2500)
				probes := randomKeyPages(rnd, schema, domain+1, 2000, 300)
				if dict {
					// The last probe page is the first build page again, so
					// find meets a Dict whose remap assign cached.
					pages, probes = dictPages(pages), dictPages(probes)
					probes = append(probes, pages[1])
				}
				name := fmt.Sprintf("cols=%v domain=%d dict=%v", cols, domain, dict)
				checkKeyTable(t, name, schema, cols, pages, probes)
			}
		}
	}
}

// checkKeyTable assigns the pages' keys and then finds the probes' in one
// table, with one scratch, and holds every id to a map of encoded keys.
func checkKeyTable(t *testing.T, name string, schema *types.Schema, cols []int, pages, probes []*column.Page) {
	t.Helper()
	kinds := make([]types.Kind, len(cols))
	for i, c := range cols {
		kinds[i] = schema.Columns[c].Type
	}
	table := newKeyTable(kinds)
	ref := map[string]int32{}
	var sc keyScratch
	var buf []byte
	for _, p := range pages {
		ids := make([]int32, p.NumRows())
		table.assign(&sc, p, cols, nil, ids)
		var fresh []int
		for row, id := range ids {
			buf = encodeGroupKey(buf[:0], p, cols, row)
			want, ok := ref[string(buf)]
			if !ok {
				want = int32(len(ref))
				ref[string(buf)] = want
				fresh = append(fresh, row)
			}
			if id != want {
				t.Fatalf("%s: row %v got group %d, reference %d", name, p.Row(row), id, want)
			}
		}
		if fmt.Sprint(sc.fresh) != fmt.Sprint(fresh) {
			t.Fatalf("%s: rows opening a group: %v, reference %v", name, sc.fresh, fresh)
		}
	}
	if table.len() != len(ref) {
		t.Fatalf("%s: %d keys, reference %d", name, table.len(), len(ref))
	}
	// find on the finished table: same ids, -1 for keys never added.
	for _, p := range probes {
		ids := make([]int32, p.NumRows())
		table.find(&sc, p, cols, ids)
		for row, id := range ids {
			buf = encodeGroupKey(buf[:0], p, cols, row)
			want, ok := ref[string(buf)]
			if !ok {
				want = -1
			}
			if id != want {
				t.Fatalf("%s: find %v = %d, reference %d", name, p.Row(row), id, want)
			}
		}
	}
	if table.len() != len(ref) {
		t.Fatalf("%s: find added keys", name)
	}
}

// TestKeyTableDictRemapAfterFind: a remap that find cached for a Dict
// holds absent entries; assign over the same Dict must intern them rather
// than reuse it.
func TestKeyTableDictRemapAfterFind(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "s", Type: types.String})
	page := func(dict []string, codes ...int32) *column.Page {
		return &column.Page{Schema: schema, Vectors: []*column.Vector{{Kind: types.String, Dict: dict, Codes: codes}}}
	}
	long := "a string of more than eight bytes"
	a := page([]string{"y", "x"}, 1, 0, 1)
	b := page([]string{long, "z", "y"}, 2, 1, 0, 0)
	table := newKeyTable([]types.Kind{types.String})
	var sc keyScratch
	ids := make([]int32, 4)
	table.assign(&sc, a, []int{0}, nil, ids[:3])
	if want := []int32{0, 1, 0}; !slices.Equal(ids[:3], want) {
		t.Fatalf("assign = %v, want %v", ids[:3], want)
	}
	table.find(&sc, b, []int{0}, ids)
	if want := []int32{1, -1, -1, -1}; !slices.Equal(ids, want) {
		t.Fatalf("find = %v, want %v", ids, want)
	}
	table.assign(&sc, b, []int{0}, nil, ids)
	if want := []int32{1, 2, 3, 3}; !slices.Equal(ids, want) || !slices.Equal(sc.fresh, []int{1, 2}) {
		t.Fatalf("assign after find = %v opened by rows %v, want %v opened by rows [1 2]", ids, sc.fresh, want)
	}
}

// TestHashAggregateGroupOrderAndZeros: groups come out in first-appearance
// order with the first row's key values, -0.0 and +0.0 stay two groups
// and every NaN payload is one.
func TestHashAggregateGroupOrderAndZeros(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "d", Type: types.Date},
	)
	negZero := math.Copysign(0, -1)
	oddNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 5)
	rows := []struct {
		f     float64
		null  bool
		group int
	}{
		{2.5, false, 0}, {negZero, false, 1}, {0, false, 2}, {oddNaN, false, 3},
		{0, true, 4}, {math.NaN(), false, 3}, {negZero, false, 1}, {2.5, false, 0}, {7, true, 4},
	}
	p1, p2 := column.NewPage(schema), column.NewPage(schema)
	for i, r := range rows {
		v := types.FloatValue(r.f)
		if r.null {
			v = types.NullValue(types.Float64)
		}
		p := p1
		if i >= 4 {
			p = p2
		}
		p.AppendRow(v, types.DateValue(1))
	}
	agg, err := NewHashAggregate(NewPageSource(schema, []*column.Page{p1, p2}), []int{0, 1},
		[]substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "n"}}, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DrainToPage(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := column.NewPage(agg.Schema())
	want.AppendRow(types.FloatValue(2.5), types.DateValue(1), types.IntValue(2))
	want.AppendRow(types.FloatValue(negZero), types.DateValue(1), types.IntValue(2))
	want.AppendRow(types.FloatValue(0), types.DateValue(1), types.IntValue(1))
	want.AppendRow(types.FloatValue(oddNaN), types.DateValue(1), types.IntValue(2))
	want.AppendRow(types.NullValue(types.Float64), types.DateValue(1), types.IntValue(2))
	requireIdentical(t, "groups", out, want)
}

func TestHashJoinEmitsProbeThenBuildOrder(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "ord", Type: types.Int64},
	)
	for _, keys := range [][]int{{0}, {1}, {0, 2}, {2, 1, 0}} {
		rnd := rand.New(rand.NewSource(int64(7 + len(keys))))
		build := randomKeyPages(rnd, schema, 6, 300, 1, 0, 500)
		probe := randomKeyPages(rnd, schema, 7, 200, 400)
		table, err := BuildJoinTable(NewPageSource(schema, build), keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewHashJoinProbe(NewPageSource(schema, probe), table, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainToPage(j)
		if err != nil {
			t.Fatal(err)
		}

		// Nested-loop reference: probe rows in arrival order, and for each
		// the equal-key build rows in insertion order; NULL keys never
		// match.
		want := column.NewPage(j.Schema())
		var pk, bk []byte
		for _, pp := range probe {
			for pr := 0; pr < pp.NumRows(); pr++ {
				pk = encodeGroupKey(pk[:0], pp, keys, pr)
				hasNull := false
				for _, k := range keys {
					hasNull = hasNull || pp.Vectors[k].IsNull(pr)
				}
				if hasNull {
					continue
				}
				for _, bp := range build {
					for br := 0; br < bp.NumRows(); br++ {
						if bk = encodeGroupKey(bk[:0], bp, keys, br); string(bk) == string(pk) {
							want.AppendRow(append(pp.Row(pr), bp.Row(br)...)...)
						}
					}
				}
			}
		}
		if want.NumRows() < 500 {
			t.Fatalf("keys=%v: only %d matches; the test wants duplicates on both sides", keys, want.NumRows())
		}
		requireIdentical(t, fmt.Sprintf("keys=%v", keys), got, want)
	}
}

// TestJoinTableConcurrentProbes probes one built table from several
// goroutines at once, as the join's leaf workers do, with the probe's
// string keys plain and in dictionary form; under -race this checks that
// probing writes nothing shared (a Dict's remap lives in each worker's
// scratch).
func TestJoinTableConcurrentProbes(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "ord", Type: types.Int64},
	)
	for _, keys := range [][]int{{0}, {1, 0}} {
		rnd := rand.New(rand.NewSource(21))
		build := randomKeyPages(rnd, schema, 30, 2000)
		probe := randomKeyPages(rnd, schema, 30, 1000, 1000)
		table, err := BuildJoinTable(NewPageSource(schema, build), keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func(probe []*column.Page) (*column.Page, error) {
			j, err := NewHashJoinProbe(NewPageSource(schema, probe), table, keys, nil)
			if err != nil {
				return nil, err
			}
			return DrainToPage(j)
		}
		want, err := run(probe)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		outs := make([]*column.Page, 4)
		errs := make([]error, 4)
		dict := dictPages(probe)
		for w := range outs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 0 {
					outs[w], errs[w] = run(probe)
				} else {
					outs[w], errs[w] = run(dict)
				}
			}(w)
		}
		wg.Wait()
		for w, out := range outs {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			requireIdentical(t, fmt.Sprintf("keys=%v worker %d", keys, w), out, want)
		}
	}
}
