package ingest

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// The write path used to be row-wise: AppendRow formatted every cell with
// Value.String() into a map[string]bool for NDV and boxed it into the
// writer, and the compactor re-sorted with sort.SliceStable over boxed
// values through types.Compare. That code lives on here as the reference
// the typed, columnar path is compared against, byte for byte. (The image
// a row-wise writer produces is pinned in internal/parquetlite by
// TestWriterMatchesRowWiseReference; here the reference image is
// parquetlite.WritePages over the same rows as one page.)

// refBuilder is the row-wise ObjectBuilder.
type refBuilder struct {
	schema   *types.Schema
	opts     parquetlite.WriterOptions
	page     *column.Page
	distinct []map[string]bool
}

func newRefBuilder(schema *types.Schema, opts parquetlite.WriterOptions) *refBuilder {
	b := &refBuilder{schema: schema, opts: opts, page: column.NewPage(schema),
		distinct: make([]map[string]bool, schema.Len())}
	for i := range b.distinct {
		b.distinct[i] = make(map[string]bool)
	}
	return b
}

func (b *refBuilder) appendRow(vals ...types.Value) {
	for i, v := range vals {
		if !v.Null {
			b.distinct[i][v.String()] = true
		}
	}
	b.page.AppendRow(vals...)
}

func (b *refBuilder) seal(t *testing.T) SealedObject {
	t.Helper()
	img, err := parquetlite.WritePages(b.schema, b.opts, b.page)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parquetlite.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	stats := make(map[string]metastore.ColumnStats, b.schema.Len())
	for ci, c := range b.schema.Columns {
		stats[c.Name] = metastore.ColumnStats{ZoneMap: r.ColumnStats(ci), NDV: int64(len(b.distinct[ci]))}
	}
	return SealedObject{Image: img, Rows: int64(b.page.NumRows()), Bytes: int64(len(img)), Stats: stats}
}

// refResort is the compactor's boxed stable sort.
func refResort(page *column.Page, ci int) *column.Page {
	vec := page.Vectors[ci]
	idx := make([]int, page.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		na, nb := vec.IsNull(idx[a]), vec.IsNull(idx[b])
		if na || nb {
			return na && !nb
		}
		return types.Compare(vec.Value(idx[a]), vec.Value(idx[b])) < 0
	})
	return page.Gather(idx)
}

var allKinds = types.NewSchema(
	types.Column{Name: "i", Type: types.Int64},
	types.Column{Name: "f", Type: types.Float64},
	types.Column{Name: "s", Type: types.String},
	types.Column{Name: "b", Type: types.Bool},
	types.Column{Name: "d", Type: types.Date},
)

// hardFloats are the values a float NDV key or sort key can get wrong:
// NaNs with different payloads and signs, both zeros, both infinities.
var hardFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// randomRows draws n rows over allKinds. Every column repeats values (so
// NDV < rows and sort keys tie), is NULL in about a tenth of the rows,
// and strings include the empty one and ones sharing an 8-byte prefix.
func randomRows(rnd *rand.Rand, n int) [][]types.Value {
	spread := int64(1 + rnd.Intn(3)*rnd.Intn(200))
	rows := make([][]types.Value, n)
	for r := range rows {
		f := math.Round(rnd.NormFloat64()*float64(spread)) / 4
		if rnd.Intn(3) == 0 {
			f = hardFloats[rnd.Intn(len(hardFloats))]
		}
		s := ""
		switch k := rnd.Int63n(spread + 1); {
		case k%3 == 1:
			s = fmt.Sprintf("k%d", k)
		case k%3 == 2:
			s = fmt.Sprintf("shared-prefix-%d", k)
		}
		row := []types.Value{
			types.IntValue(rnd.Int63n(2*spread) - spread),
			types.FloatValue(f),
			types.StringValue(s),
			types.BoolValue(rnd.Intn(2) == 0),
			types.DateValue(18000 + rnd.Int63n(spread)),
		}
		for c := range row {
			if rnd.Intn(10) == 0 {
				row[c] = types.NullValue(row[c].Kind)
			}
		}
		rows[r] = row
	}
	return rows
}

func pageOf(schema *types.Schema, rows [][]types.Value) *column.Page {
	p := column.NewPage(schema)
	for _, row := range rows {
		p.AppendRow(row...)
	}
	return p
}

// sameSealed compares everything a commit records about an object: NDV
// within the sketch's error, the rest exactly. Float bounds are compared
// by bit pattern: a NaN bound must be the same NaN.
func sameSealed(t *testing.T, what string, got, want SealedObject) {
	t.Helper()
	if !bytes.Equal(got.Image, want.Image) {
		t.Fatalf("%s: image differs from the row-wise reference (%d vs %d bytes)", what, len(got.Image), len(want.Image))
	}
	if got.Rows != want.Rows || got.Bytes != want.Bytes || len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: rows/bytes/columns = %d/%d/%d, want %d/%d/%d", what,
			got.Rows, got.Bytes, len(got.Stats), want.Rows, want.Bytes, len(want.Stats))
	}
	for name, w := range want.Stats {
		g := got.Stats[name]
		bound := func(v types.Value) string {
			return fmt.Sprintf("%v %v %d %x %q %v", v.Kind, v.Null, v.I, math.Float64bits(v.F), v.S, v.B)
		}
		if !withinSketchError(g.NDV, w.NDV) || g.NullCount != w.NullCount || g.NumValues != w.NumValues ||
			bound(g.Min) != bound(w.Min) || bound(g.Max) != bound(w.Max) {
			t.Fatalf("%s: column %s stats = %+v, want %+v", what, name, g, w)
		}
	}
}

// inDictForm returns the page with its String columns in dictionary form.
// Each Dict holds the column's strings shuffled, the first of them twice,
// and two entries no row uses, one sorting before every string and one
// after; a non-NULL row reads through either entry of a repeated string,
// and a NULL row lies over a random nonzero code.
func inDictForm(rnd *rand.Rand, p *column.Page) *column.Page {
	out := &column.Page{Schema: p.Schema, Vectors: slices.Clone(p.Vectors)}
	for c, vec := range p.Vectors {
		if vec.Kind != types.String {
			continue
		}
		dict := []string{"", "~unused"} // unused unless a row reads ""
		codes := map[string][]int32{}
		for i, s := range vec.Strings {
			if _, ok := codes[s]; !ok && !vec.IsNull(i) {
				codes[s] = nil
				dict = append(dict, s)
				if len(codes) == 1 {
					dict = append(dict, s)
				}
			}
		}
		rnd.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		for code, s := range dict {
			if _, ok := codes[s]; ok {
				codes[s] = append(codes[s], int32(code))
			}
		}
		dv := &column.Vector{Kind: types.String, Dict: dict, Nulls: vec.Nulls, Codes: make([]int32, len(vec.Strings))}
		for i, s := range vec.Strings {
			if vec.IsNull(i) {
				dv.Codes[i] = int32(1 + rnd.Intn(len(dict)-1))
				continue
			}
			dv.Codes[i] = codes[s][rnd.Intn(len(codes[s]))]
		}
		out.Vectors[c] = dv
	}
	return out
}

// TestBuilderMatchesRowWiseReference: rows fed through AppendRow, through
// AppendPage and through a mix of both seal to the reference's image,
// statistics (NDV within the sketch's error), row count and size, and to
// one set of sketches. In the dict cut the pages' String
// columns arrive in dictionary form (inDictForm).
func TestBuilderMatchesRowWiseReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	const group = 64
	sizes := []int{1, group - 1, group, group + 1, 2 * group, 3*group + 7, 500}
	for trial := 0; trial < 210; trial++ {
		opts := parquetlite.WriterOptions{Codec: compress.Codecs()[trial%2], RowGroupSize: group}
		rows := randomRows(rnd, sizes[rnd.Intn(len(sizes))])
		ref := newRefBuilder(allKinds, opts)
		for _, row := range rows {
			ref.appendRow(row...)
		}
		want := ref.seal(t)

		// Where the input is cut into AppendPage calls; rows in between go
		// through AppendRow. The dict cut draws from a source of its own.
		dictRnd := rand.New(rand.NewSource(int64(trial)))
		cuts := map[string][]int{
			"rows":  nil,
			"page":  {0, len(rows)},
			"mixed": {rnd.Intn(len(rows) + 1), rnd.Intn(len(rows) + 1)},
			"dict":  {dictRnd.Intn(len(rows) + 1), dictRnd.Intn(len(rows) + 1)},
		}
		var sketches map[string]metastore.Sketch
		for what, cut := range cuts {
			sort.Ints(cut)
			b := NewObjectBuilder(allKinds, opts)
			for i := 0; i < len(rows); {
				var err error
				if cut != nil && i == cut[0] && cut[1] > i {
					page := pageOf(allKinds, rows[i:cut[1]])
					if what == "dict" {
						page = inDictForm(dictRnd, page)
					}
					err = b.AppendPage(page)
					i = cut[1]
				} else {
					err = b.AppendRow(rows[i]...)
					i++
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if b.rows != want.Rows {
				t.Fatalf("trial %d %s: rows = %d, want %d", trial, what, b.rows, want.Rows)
			}
			got, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			sameSealed(t, fmt.Sprintf("trial %d %s", trial, what), got, want)
			if sketches == nil {
				sketches = make(map[string]metastore.Sketch)
				for name, cs := range got.Stats {
					sketches[name] = cs.Sketch
				}
			}
			for name, cs := range got.Stats {
				if !bytes.Equal(cs.Sketch, sketches[name]) {
					t.Fatalf("trial %d %s: column %s's sketch differs between cuts", trial, what, name)
				}
			}
		}
	}
}

// TestRadixSortMatchesStableSort: radixSort orders (key, row) entries as a
// stable comparison sort on the key does — for keys that all tie, keys
// that differ only in the top byte or only in byte 0 (one scatter pass,
// the other seven skipped), and random keys.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	keys := map[string]func() uint64{
		"equal":    func() uint64 { return 0x0123456789abcdef },
		"top byte": func() uint64 { return uint64(rnd.Intn(256))<<56 | 0x42 },
		"byte 0":   func() uint64 { return 0x42<<56 | uint64(rnd.Intn(256)) },
		"random":   func() uint64 { return rnd.Uint64() >> (8 * rnd.Intn(8)) },
	}
	for name, key := range keys {
		for _, n := range []int{0, 1, 2, 255, 256, 4097, 65536} {
			ents := make([]sortEntry, n)
			for i := range ents {
				ents[i] = sortEntry{key(), i}
			}
			want := slices.Clone(ents)
			slices.SortStableFunc(want, func(a, b sortEntry) int { return cmp.Compare(a.key, b.key) })
			if got := radixSort(ents, make([]sortEntry, n)); !slices.Equal(got, want) {
				t.Fatalf("%s keys, n=%d: radix order differs from the stable sort's", name, n)
			}
		}
	}
}

// TestCompactMatchesBoxedStableSort: with each kind as the cluster key,
// NULL keys, duplicate keys, both zeros and several NaNs, the compacted
// object is the image of the boxed stable sort — NULLs first, ties and
// equal-comparing floats in input order.
func TestCompactMatchesBoxedStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	ctx := context.Background()
	for ci, col := range allKinds.Columns {
		for trial := 0; trial < 6; trial++ {
			ms := metastore.New()
			store := newFakeStore()
			ing := NewIngester(ms, store, Options{FlushRows: 700, RowGroupSize: 256})
			spec := TableSpec{Schema: "default", Name: "t", Bucket: "t", Columns: allKinds, Codec: compress.Snappy}
			if err := ing.CreateTable(spec); err != nil {
				t.Fatal(err)
			}
			n := 700*3 + rnd.Intn(700)
			switch trial {
			case 0:
				n = 4096 + 700 // the output has a second row group
			case 1:
				n = 3*4096 + 1000 // three whole groups, encoded by several workers, and a remainder
			}
			rows := randomRows(rnd, n)
			if _, err := ing.Append(ctx, "default", "t", rows); err != nil {
				t.Fatal(err)
			}
			if err := ing.Flush(ctx, "default", "t"); err != nil {
				t.Fatal(err)
			}
			res, err := NewCompactor(ms, store, CompactorOptions{ClusterBy: col.Name, MaxMerge: 64}).RunOnce(ctx, "default", "t")
			if err != nil || res.Output == "" {
				t.Fatalf("cluster by %s: %+v, %v", col.Name, res, err)
			}
			got, _, err := store.Get(ctx, "t", res.Output)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewObjectBuilder(allKinds, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 4096})
			if err := ref.AppendPage(refResort(pageOf(allKinds, rows), ci)); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Image) {
				t.Fatalf("cluster by %s, trial %d: compacted image differs from the boxed stable sort's", col.Name, trial)
			}
			tbl, _ := ms.Get("default", "t")
			sameSealed(t, "committed stats of "+col.Name, SealedObject{Image: got, Rows: tbl.RowCount, Bytes: tbl.ObjectBytes[res.Output],
				Stats: tbl.ObjectStats[res.Output]}, want)
		}
	}
}

// TestCompactKeepsDictionaries: sources whose tag chunks number the same
// tags in different orders, a NULL tag and "" among them, compact to the
// image and statistics of the flattened merge — every source's strings
// decoded, appended as plain strings and sorted by the boxed stable sort
// — and the page the builder gets keeps its tag column in dictionary
// form. With one source whose tag chunk is plain, the column is merged
// plain, to the same image as its flattened merge.
func TestCompactKeepsDictionaries(t *testing.T) {
	ctx := context.Background()
	const rows, group = 300, 128
	tagsOf := [][]string{
		{"ok", "warn", "fault"},
		{"fault", "", "ok"},
		{"warn", "idle", "ok", "calib"},
	}
	for _, withPlain := range []bool{false, true} {
		store := newFakeStore()
		spec := TableSpec{Schema: "default", Name: "events", Bucket: "events", Columns: benchSchema, Codec: compress.Snappy}
		var keys []string
		var objs []SealedObject
		for src := 0; src < 4; src++ {
			rnd := rand.New(rand.NewSource(int64(src)))
			page := column.NewPage(benchSchema)
			for i := 0; i < rows; i++ {
				// Source 3 has a NULL tag every seventh row, and the tags of
				// source 0 or, withPlain, too many for a dictionary.
				var tag types.Value
				switch tags := tagsOf[src%3]; {
				case src == 3 && i%7 == 0:
					tag = types.NullValue(types.String)
				case src == 3 && withPlain:
					tag = types.StringValue(fmt.Sprintf("tag-%d", i))
				default:
					tag = types.StringValue(tags[rnd.Intn(len(tags))])
				}
				page.AppendRow(types.IntValue(int64(src*rows+i)), types.IntValue(rnd.Int63n(64)),
					types.FloatValue(rnd.Float64()), tag)
			}
			b := NewObjectBuilder(benchSchema, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: group})
			if err := b.AppendPage(page); err != nil {
				t.Fatal(err)
			}
			sealed, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("events-ingest-%d.pql", src)
			if err := store.Put(ctx, spec.Bucket, key, sealed.Image); err != nil {
				t.Fatal(err)
			}
			keys, objs = append(keys, key), append(objs, sealed)
		}
		tbl, err := AssembleTable(spec, keys, objs)
		if err != nil {
			t.Fatal(err)
		}
		// The flattened merge, over the sources in the order the compactor
		// takes them.
		flat := column.NewPage(benchSchema)
		for _, key := range tbl.Objects {
			img, _, _ := store.Get(ctx, spec.Bucket, key)
			r, err := parquetlite.NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			pages, err := r.ReadAll([]int{0, 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pages {
				for _, vec := range p.Vectors {
					if vec.Dict != nil {
						vec.Strings, vec.Codes, vec.Dict = vec.StringSlice(), nil, nil
					}
				}
				flat.AppendPage(p, nil)
			}
		}
		ref := NewObjectBuilder(benchSchema, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 4096})
		if err := ref.AppendPage(refResort(flat, 1)); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}

		ms := metastore.New()
		if err := ms.Register(tbl); err != nil {
			t.Fatal(err)
		}
		comp := NewCompactor(ms, store, CompactorOptions{ClusterBy: "sensor"})
		merged, err := comp.mergedPage(ctx, tbl, tbl.Objects, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tag := merged.Vectors[3]; (tag.Dict != nil) == withPlain {
			t.Fatalf("with a plain source %v: the merged tag column is in dictionary form %v", withPlain, tag.Dict != nil)
		}
		res, err := comp.RunOnce(ctx, "default", "events")
		if err != nil || len(res.Merged) != 4 {
			t.Fatalf("compaction merged %v: %v", res.Merged, err)
		}
		got, _, err := store.Get(ctx, spec.Bucket, res.Output)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := ms.Get("default", "events")
		sameSealed(t, fmt.Sprintf("with a plain source %v", withPlain), SealedObject{Image: got, Rows: after.RowCount,
			Bytes: after.ObjectBytes[res.Output], Stats: after.ObjectStats[res.Output]}, want)
	}
}
