package parquetlite

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "tag", Type: types.String},
		types.Column{Name: "ok", Type: types.Bool},
		types.Column{Name: "day", Type: types.Date},
	)
}

func buildPage(n int, seed int64) *column.Page {
	rnd := rand.New(rand.NewSource(seed))
	p := column.NewPage(testSchema())
	tags := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		var idv types.Value
		if rnd.Intn(10) == 0 {
			idv = types.NullValue(types.Int64)
		} else {
			idv = types.IntValue(int64(i))
		}
		p.AppendRow(
			idv,
			types.FloatValue(rnd.Float64()*100),
			types.StringValue(tags[rnd.Intn(len(tags))]),
			types.BoolValue(rnd.Intn(2) == 0),
			types.DateValue(int64(18000+i%50)),
		)
	}
	return p
}

func roundTrip(t *testing.T, codec compress.Codec, rowGroupSize, rows int) {
	t.Helper()
	page := buildPage(rows, 42)
	data, err := WritePages(testSchema(), WriterOptions{Codec: codec, RowGroupSize: rowGroupSize}, page)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != int64(rows) {
		t.Fatalf("NumRows = %d, want %d", r.NumRows(), rows)
	}
	wantGroups := (rows + rowGroupSize - 1) / rowGroupSize
	if len(r.Meta().RowGroups) != wantGroups {
		t.Fatalf("row groups = %d, want %d", len(r.Meta().RowGroups), wantGroups)
	}
	all := []int{0, 1, 2, 3, 4}
	pages, err := r.ReadAll(all)
	if err != nil {
		t.Fatal(err)
	}
	row := 0
	for _, got := range pages {
		for i := 0; i < got.NumRows(); i++ {
			want := page.Row(row)
			have := got.Row(i)
			for c := range want {
				if !types.Equal(want[c], have[c]) {
					t.Fatalf("row %d col %d: want %v got %v", row, c, want[c], have[c])
				}
			}
			row++
		}
	}
	if row != rows {
		t.Fatalf("read %d rows, want %d", row, rows)
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, codec := range compress.Codecs() {
		codec := codec
		t.Run(codec.String(), func(t *testing.T) {
			roundTrip(t, codec, 100, 357)
		})
	}
}

func TestRoundTripSingleAndExactGroups(t *testing.T) {
	roundTrip(t, compress.None, 50, 50)  // exactly one full group
	roundTrip(t, compress.None, 50, 100) // two exact groups
	roundTrip(t, compress.None, 1000, 3) // partial group only
}

func TestEmptyFile(t *testing.T) {
	data, err := WritePages(testSchema(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 0 || len(r.Meta().RowGroups) != 0 {
		t.Error("empty file should have no rows/groups")
	}
	pages, err := r.ReadAll([]int{0})
	if err != nil || len(pages) != 0 {
		t.Error("ReadAll on empty file wrong")
	}
}

func TestColumnProjection(t *testing.T) {
	page := buildPage(64, 1)
	data, _ := WritePages(testSchema(), WriterOptions{RowGroupSize: 32}, page)
	r, _ := NewReader(data)
	got, err := r.ReadRowGroup(0, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCols() != 2 || got.Schema.Columns[0].Name != "tag" || got.Schema.Columns[1].Name != "id" {
		t.Errorf("projection wrong: %v", got.Schema)
	}
	// Selective read must not touch other chunks.
	before := r.BytesRead
	if before == 0 {
		t.Error("BytesRead not metered")
	}
	full, _ := NewReader(data)
	if _, err := full.ReadRowGroup(0, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if full.BytesRead <= before {
		t.Errorf("full read (%d) should exceed projected read (%d)", full.BytesRead, before)
	}
}

func TestStats(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "v", Type: types.Int64})
	p := column.NewPage(s)
	for _, x := range []int64{5, -3, 12, 7} {
		p.AppendRow(types.IntValue(x))
	}
	p.AppendRow(types.NullValue(types.Int64))
	data, _ := WritePages(s, WriterOptions{}, p)
	r, _ := NewReader(data)
	st := r.ColumnStats(0)
	if st.Min.I != -3 || st.Max.I != 12 || st.NullCount != 1 || st.NumValues != 5 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsAllNull(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "v", Type: types.Float64})
	p := column.NewPage(s)
	p.AppendRow(types.NullValue(types.Float64))
	p.AppendRow(types.NullValue(types.Float64))
	data, _ := WritePages(s, WriterOptions{}, p)
	r, _ := NewReader(data)
	st := r.ColumnStats(0)
	if !st.Min.Null || !st.Max.Null || st.NullCount != 2 {
		t.Errorf("all-null stats = %+v", st)
	}
}

func TestEncodingSelection(t *testing.T) {
	// Long runs of identical ints -> RLE.
	iv := column.NewVector(types.Int64)
	for i := 0; i < 1000; i++ {
		iv.Append(types.IntValue(int64(i / 250)))
	}
	if got, _, _ := encodeChunk(nil, iv); got != RLE {
		t.Errorf("run-heavy ints encoding = %v, want rle", got)
	}
	// Few distinct strings -> Dict.
	sv := column.NewVector(types.String)
	for i := 0; i < 100; i++ {
		sv.Append(types.StringValue([]string{"x", "y"}[i%2]))
	}
	if got, _, _ := encodeChunk(nil, sv); got != Dict {
		t.Errorf("low-cardinality strings encoding = %v, want dict", got)
	}
	// Mostly-unique ints -> Plain.
	uv := column.NewVector(types.Int64)
	for i := 0; i < 100; i++ {
		uv.Append(types.IntValue(int64(i)))
	}
	if got, _, _ := encodeChunk(nil, uv); got != Plain {
		t.Errorf("unique ints encoding = %v, want plain", got)
	}
}

func TestRowGroupPruning(t *testing.T) {
	// Three row groups with id ranges [0,99], [100,199], [200,299].
	s := types.NewSchema(types.Column{Name: "id", Type: types.Int64})
	w := NewWriter(s, WriterOptions{RowGroupSize: 100})
	for i := 0; i < 300; i++ {
		if err := w.WriteRow(types.IntValue(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(data)

	col := expr.Col(0, "id", types.Int64)
	lit := func(v int64) expr.Expr { return expr.Lit(types.IntValue(v)) }

	check := func(name string, pred expr.Expr, want []int) {
		t.Helper()
		got := r.PruneRowGroups(pred)
		if len(got) != len(want) {
			t.Errorf("%s: pruned to %v, want %v", name, got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: pruned to %v, want %v", name, got, want)
				return
			}
		}
	}

	gt, _ := expr.NewCompare(expr.Gt, col, lit(250))
	check("id > 250", gt, []int{2})
	lt, _ := expr.NewCompare(expr.Lt, col, lit(100))
	check("id < 100", lt, []int{0})
	eq, _ := expr.NewCompare(expr.Eq, col, lit(150))
	check("id = 150", eq, []int{1})
	bt, _ := expr.NewBetween(col, lit(90), lit(110))
	check("id BETWEEN 90 AND 110", bt, []int{0, 1})
	none, _ := expr.NewCompare(expr.Gt, col, lit(1000))
	check("id > 1000", none, []int{})
	check("nil predicate", nil, []int{0, 1, 2})
	// Mirrored literal-first comparison: 250 < id == id > 250.
	ml, _ := expr.NewCompare(expr.Lt, lit(250), col)
	check("250 < id", ml, []int{2})
	// Conjunction prunes with both sides.
	both := expr.AndAll([]expr.Expr{gt, lt})
	check("contradiction", both, []int{})
	// Non-prunable conjunct is conservative.
	ne, _ := expr.NewCompare(expr.Ne, col, lit(5))
	check("id <> 5", ne, []int{0, 1, 2})
}

func TestCorruptFiles(t *testing.T) {
	page := buildPage(32, 3)
	data, _ := WritePages(testSchema(), WriterOptions{Codec: compress.Snappy}, page)

	if _, err := NewReader(data[:8]); err == nil {
		t.Error("truncated file accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := NewReader(bad); err == nil {
		t.Error("bad head magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] = 'X'
	if _, err := NewReader(bad); err == nil {
		t.Error("bad tail magic accepted")
	}
	// Corrupt footer length.
	bad = append([]byte(nil), data...)
	bad[len(bad)-5] = 0xFF
	if _, err := NewReader(bad); err == nil {
		t.Error("bad footer length accepted")
	}
	// Corrupt a chunk body: the snappy decode (or chunk decode) must fail.
	bad = append([]byte(nil), data...)
	r, _ := NewReader(data)
	off := r.Meta().RowGroups[0].Chunks[0].Offset
	for i := int64(0); i < 8; i++ {
		bad[off+i] ^= 0xFF
	}
	r2, err := NewReader(bad)
	if err != nil {
		return // footer bounds check may already reject; fine
	}
	if _, err := r2.ReadColumn(0, 0); err == nil {
		t.Error("corrupt chunk read succeeded")
	}
}

// TestChunkLengthMustMatchFooter: a chunk whose Snappy header declares a
// different decoded length than the footer's UncompressedSize is corrupt,
// even when the block itself is a valid stream.
func TestChunkLengthMustMatchFooter(t *testing.T) {
	page := buildPage(32, 3)
	for _, codec := range compress.Codecs() {
		data, _ := WritePages(testSchema(), WriterOptions{Codec: codec}, page)
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadColumn(0, 0); err != nil {
			t.Fatalf("%s: honest footer: %v", codec, err)
		}
		lying := *r.Meta()
		lying.RowGroups = append([]RowGroupMeta(nil), lying.RowGroups...)
		lying.RowGroups[0].Chunks = append([]ChunkMeta(nil), lying.RowGroups[0].Chunks...)
		lying.RowGroups[0].Chunks[0].UncompressedSize++
		r2, err := NewReaderWithMeta(data, &lying)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r2.ReadColumn(0, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded length disagrees with the footer, got %v", codec, err)
		}
	}
}

func TestReadErrors(t *testing.T) {
	page := buildPage(8, 5)
	data, _ := WritePages(testSchema(), WriterOptions{}, page)
	r, _ := NewReader(data)
	if _, err := r.ReadColumn(5, 0); err == nil {
		t.Error("row group out of range accepted")
	}
	if _, err := r.ReadColumn(0, 99); err == nil {
		t.Error("column out of range accepted")
	}
	w := NewWriter(testSchema(), WriterOptions{})
	if err := w.WriteRow(types.IntValue(1)); err == nil {
		t.Error("short row accepted")
	}
}

// Property: files round-trip arbitrary int/string pages across codecs and
// group sizes.
func TestQuickRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "s", Type: types.String},
	)
	f := func(ints []int64, strs []string, groupSize uint8, codecPick uint8) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		p := column.NewPage(s)
		for i := 0; i < n; i++ {
			p.AppendRow(types.IntValue(ints[i]), types.StringValue(strs[i]))
		}
		codec := compress.Codecs()[int(codecPick)%4]
		gs := int(groupSize)%64 + 1
		data, err := WritePages(s, WriterOptions{Codec: codec, RowGroupSize: gs}, p)
		if err != nil {
			return false
		}
		r, err := NewReader(data)
		if err != nil || r.NumRows() != int64(n) {
			return false
		}
		pages, err := r.ReadAll([]int{0, 1})
		if err != nil {
			return false
		}
		row := 0
		for _, got := range pages {
			for i := 0; i < got.NumRows(); i++ {
				if got.Row(i)[0].I != ints[row] || got.Row(i)[1].S != strs[row] {
					return false
				}
				row++
			}
		}
		return row == n
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: pruning never drops a row group that contains matching rows.
func TestQuickPruningSound(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "v", Type: types.Int64})
	f := func(vals []int64, lo, hi int64) bool {
		if len(vals) == 0 {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		p := column.NewPage(s)
		for _, v := range vals {
			p.AppendRow(types.IntValue(v))
		}
		data, err := WritePages(s, WriterOptions{RowGroupSize: 4}, p)
		if err != nil {
			return false
		}
		r, err := NewReader(data)
		if err != nil {
			return false
		}
		pred, err := expr.NewBetween(expr.Col(0, "v", types.Int64),
			expr.Lit(types.IntValue(lo)), expr.Lit(types.IntValue(hi)))
		if err != nil {
			return false
		}
		kept := map[int]bool{}
		for _, rg := range r.PruneRowGroups(pred) {
			kept[rg] = true
		}
		// Every row group containing a matching value must be kept.
		for i, v := range vals {
			if v >= lo && v <= hi && !kept[i/4] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestValidityBitmapScan holds the chunk decoder's bitmap scan — a word,
// then a byte, then the last partial byte's low bits at a time — to the
// row-by-row reading of it, at every chunk length around the word and
// byte boundaries and with the single NULL at every position, the last
// partial byte's among them. A chunk without NULLs decodes to no null
// mask at all, whatever the bits past its last row say.
func TestValidityBitmapScan(t *testing.T) {
	decode := func(vec *column.Vector) *column.Vector {
		t.Helper()
		enc, _, body := encodeChunk(nil, vec)
		out, err := decodeChunk(body, vec.Kind, enc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 71, 72, 73, 130} {
		vec := column.NewVector(types.Float64)
		for i := 0; i < n; i++ {
			vec.Append(types.FloatValue(float64(i) + 0.5))
		}
		if out := decode(vec); out.Nulls != nil {
			t.Fatalf("%d rows, no NULL: decoded with a null mask", n)
		}
		for null := 0; null < n; null++ {
			vec.Nulls = make([]bool, n)
			vec.Nulls[null] = true
			out := decode(vec)
			if out.Nulls == nil {
				t.Fatalf("%d rows, NULL at %d (byte %d, bit %d): decoded without a null mask", n, null, null/8, null%8)
			}
			for i, isNull := range out.Nulls {
				if isNull != (i == null) {
					t.Fatalf("%d rows, NULL at %d: row %d decoded NULL=%v", n, null, i, isNull)
				}
			}
			if out.Floats[null] != 0 {
				t.Fatalf("%d rows, NULL at %d: payload under the NULL is %v, want 0", n, null, out.Floats[null])
			}
		}
	}

	// A NULL in the last partial byte: 13 rows, row 11 is bit 3 of byte 1.
	nulls := make([]bool, 13)
	nulls[11] = true
	bitmap := appendValidity(nil, nulls, 13)
	if got := decodeValidity(bitmap, 13); got == nil || !got[11] {
		t.Errorf("NULL in the last partial byte: mask %v", got)
	}
	// Set bits past the last row are not rows.
	bitmap = appendValidity(nil, nil, 13)
	bitmap[1] |= 0xE0
	if got := decodeValidity(bitmap, 13); got != nil {
		t.Errorf("bits past the last row read as rows: mask %v", got)
	}
	bitmap[1] = 0xE0 // rows 8..12 NULL, padding set
	if got := decodeValidity(bitmap, 13); got == nil || !got[8] || !got[12] || got[7] {
		t.Errorf("NULLs in the last partial byte under set padding bits: mask %v", got)
	}
}
