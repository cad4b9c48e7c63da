package arrowlite

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func allKindsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "d", Type: types.Date},
	)
}

func samplePage() *column.Page {
	p := column.NewPage(allKindsSchema())
	p.AppendRow(types.IntValue(1), types.FloatValue(0.5), types.StringValue("alpha"), types.BoolValue(true), types.DateValue(100))
	p.AppendRow(types.IntValue(-2), types.FloatValue(-1.25), types.StringValue(""), types.BoolValue(false), types.DateValue(0))
	p.AppendRow(types.NullValue(types.Int64), types.NullValue(types.Float64), types.NullValue(types.String), types.NullValue(types.Bool), types.NullValue(types.Date))
	p.AppendRow(types.IntValue(9), types.FloatValue(9.75), types.StringValue("omega"), types.BoolValue(true), types.DateValue(20000))
	return p
}

func pagesEqual(t *testing.T, a, b *column.Page) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("dims mismatch: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			if !types.Equal(ra[c], rb[c]) {
				t.Errorf("row %d col %d: %v vs %v", i, c, ra[c], rb[c])
			}
		}
	}
}

func TestRoundTripSingleBatch(t *testing.T) {
	p := samplePage()
	data, err := Serialize(p.Schema, []*column.Page{p})
	if err != nil {
		t.Fatal(err)
	}
	schema, pages, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(p.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", schema, p.Schema)
	}
	if len(pages) != 1 {
		t.Fatalf("got %d pages", len(pages))
	}
	pagesEqual(t, p, pages[0])
}

// TestAppendBatchDictionaryForm: a page whose string column is in
// dictionary form — its NULL row coded to a non-empty entry — goes on the
// wire as the very bytes of its plain form.
func TestAppendBatchDictionaryForm(t *testing.T) {
	plain := samplePage() // "alpha", "", NULL, "omega"
	dict := &column.Page{Schema: plain.Schema, Vectors: append([]*column.Vector(nil), plain.Vectors...)}
	dict.Vectors[2] = &column.Vector{
		Kind:  types.String,
		Nulls: plain.Vectors[2].Nulls,
		Dict:  []string{"omega", "", "alpha", "never sent"},
		Codes: []int32{2, 1, 3, 0},
	}
	want, err := AppendBatch(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendBatch(nil, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dictionary form encodes to\n%x\nplain form to\n%x", got, want)
	}
}

func TestRoundTripMultipleBatches(t *testing.T) {
	p := samplePage()
	data, err := Serialize(p.Schema, []*column.Page{p, p, p})
	if err != nil {
		t.Fatal(err)
	}
	_, pages, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("got %d pages", len(pages))
	}
	for _, q := range pages {
		pagesEqual(t, p, q)
	}
}

func TestEmptyBatchAndEmptyStream(t *testing.T) {
	s := allKindsSchema()
	empty := column.NewPage(s)
	data, err := Serialize(s, []*column.Page{empty})
	if err != nil {
		t.Fatal(err)
	}
	_, pages, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0].NumRows() != 0 {
		t.Errorf("empty batch round trip wrong: %v", pages)
	}
	// Stream with no batches at all.
	data, err = Serialize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	schema, pages, err := Deserialize(data)
	if err != nil || len(pages) != 0 || !schema.Equal(s) {
		t.Errorf("no-batch stream wrong: %v %v", pages, err)
	}
}

// TestStreamingReaderWriter: Serialize emits exactly the result stream's
// messages — appendSchema's bytes, then each page's AppendBatch bytes, in
// order — each behind its u32 length, and Deserialize hands the pages
// back one by one.
func TestStreamingReaderWriter(t *testing.T) {
	p := samplePage()
	empty := column.NewPage(p.Schema)
	pages := []*column.Page{p, empty, p}
	data, err := Serialize(p.Schema, pages)
	if err != nil {
		t.Fatal(err)
	}
	schemaMsg, err := appendSchema(nil, p.Schema)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{schemaMsg}
	for _, page := range pages {
		msg, err := AppendBatch(nil, page)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, msg)
	}
	rest := data
	for i, msg := range want {
		if len(rest) < 4 || binary.LittleEndian.Uint32(rest) != uint32(len(msg)) {
			t.Fatalf("message %d: length prefix missing or not %d", i, len(msg))
		}
		if !bytes.Equal(rest[4:4+len(msg)], msg) {
			t.Fatalf("message %d: bytes differ from the wire message", i)
		}
		rest = rest[4+len(msg):]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last message", len(rest))
	}

	schema, got, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(p.Schema) || len(got) != len(pages) {
		t.Fatalf("got %v and %d pages, want %v and %d", schema, len(got), p.Schema, len(pages))
	}
	for i := range pages {
		pagesEqual(t, pages[i], got[i])
	}
}

func TestSchemaArityMismatch(t *testing.T) {
	p := samplePage()
	narrow := types.NewSchema(types.Column{Name: "only", Type: types.Int64})
	if _, err := Serialize(narrow, []*column.Page{p}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestCorruptStreams(t *testing.T) {
	p := samplePage()
	data, _ := Serialize(p.Schema, []*column.Page{p})
	batch, _ := AppendBatch(nil, p)
	batchAt := bytes.Index(data, batch) - 4 // the batch's length prefix

	if _, _, err := Deserialize([]byte("XXXX")); err == nil {
		t.Error("bad length prefix accepted")
	}
	if _, _, err := Deserialize(data[:3]); err == nil {
		t.Error("truncated length prefix accepted")
	}
	// Truncations must error, not panic. A cut between two messages is a
	// shorter stream: the length prefixes are the only framing.
	for cut := 4; cut < len(data)-1; cut += 7 {
		if cut == batchAt {
			continue
		}
		if _, _, err := Deserialize(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Flip a byte inside the schema message.
	bad := append([]byte(nil), data...)
	bad[8] = 0xFF
	if _, _, err := Deserialize(bad); err == nil {
		t.Error("corrupt schema accepted")
	}

	// Hostile length prefixes — one where the schema's should be, and a
	// batch's after a valid schema message — claim 2 GiB that the input
	// does not hold. They are rejected, allocating no more than the input's
	// size beyond what decoding the valid messages before them costs.
	for _, prefix := range [][]byte{nil, data[:batchAt]} {
		in := append(append(append([]byte(nil), prefix...), 0xff, 0xff, 0xff, 0x7f), 1, 2, 3)
		if _, _, err := Deserialize(in); err == nil {
			t.Fatalf("2 GiB length prefix after %d bytes accepted", len(prefix))
		}
		got := leastAlloc(func() { _, _, _ = Deserialize(in) })
		base := leastAlloc(func() { _, _, _ = Deserialize(prefix) })
		if got > base+uint64(len(in)) {
			t.Errorf("2 GiB length prefix after %d bytes: %d bytes allocated, %d for the messages before it, input %d bytes",
				len(prefix), got, base, len(in))
		}
	}
	// A schema message claiming 16M columns in four bytes.
	count := []byte{0xff, 0xff, 0xff, 0x00}
	if _, err := decodeSchemaMsg(count); err == nil {
		t.Fatal("16M-column schema of 4 bytes accepted")
	}
	if got := leastAlloc(func() { _, _ = decodeSchemaMsg(count) }); got > uint64(len(count)) {
		t.Errorf("16M-column schema of 4 bytes: %d bytes allocated", got)
	}
}

// leastAlloc is the fewest heap bytes f allocated over three runs (the
// fewest, so another goroutine's allocation does not count).
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestUnsupportedKind(t *testing.T) {
	s := types.NewSchema(types.Column{Name: "u", Type: types.Unknown})
	if _, err := Serialize(s, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: random int/float/string pages round-trip exactly, including a
// random null pattern.
func TestQuickRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "c", Type: types.String},
	)
	f := func(ints []int64, floats []float64, strs []string, nullMask, selMask uint32) bool {
		n := len(ints)
		if len(floats) < n {
			n = len(floats)
		}
		if len(strs) < n {
			n = len(strs)
		}
		p := column.NewPage(schema)
		for i := 0; i < n; i++ {
			iv := types.IntValue(ints[i])
			fv := types.FloatValue(floats[i])
			sv := types.StringValue(strs[i])
			if nullMask>>(uint(i)%32)&1 == 1 {
				iv = types.NullValue(types.Int64)
			}
			if nullMask>>(uint(i+7)%32)&1 == 1 {
				sv = types.NullValue(types.String)
			}
			p.AppendRow(iv, fv, sv)
		}
		// The same page with its strings in dictionary form, and a random
		// selection over it: a selected encode is the dense encode of the
		// selected rows, byte for byte.
		dict := &column.Page{Schema: schema, Vectors: slices.Clone(p.Vectors)}
		codes := map[string]int32{}
		dv := &column.Vector{Kind: types.String, Nulls: p.Vectors[2].Nulls, Codes: []int32{}}
		for _, s := range p.Vectors[2].Strings {
			c, ok := codes[s]
			if !ok {
				c, codes[s] = int32(len(dv.Dict)), int32(len(dv.Dict))
				dv.Dict = append(dv.Dict, s)
			}
			dv.Codes = append(dv.Codes, c)
		}
		dict.Vectors[2] = dv
		sel := []int{}
		for i := 0; i < n; i++ {
			if selMask>>(uint(i)%32)&1 == 1 {
				sel = append(sel, i)
			}
		}
		for _, page := range []*column.Page{p, dict} {
			got, err := AppendBatch(nil, page, sel...)
			if err != nil {
				return false
			}
			want, err := AppendBatch(nil, page.FilterSel(sel))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		data, err := Serialize(schema, []*column.Page{p})
		if err != nil {
			return false
		}
		_, pages, err := Deserialize(data)
		if err != nil || len(pages) != 1 || pages[0].NumRows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			ra, rb := p.Row(i), pages[0].Row(i)
			for c := range ra {
				// NaN compares equal under types.Compare's total order.
				if !types.Equal(ra[c], rb[c]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDecodeBatchNulls: the bulk decoder expands the validity bitmap once
// per column. A column with no NULLs carries no mask at all, NULL cells
// get the zero payload whatever bytes the sender had under them, and a row
// count that is not a multiple of eight reads its last bitmap byte
// partially.
func TestDecodeBatchNulls(t *testing.T) {
	schema := allKindsSchema()
	const n = 21
	p := column.NewPage(schema)
	for i := 0; i < n; i++ {
		p.AppendRow(types.IntValue(int64(i+1)), types.FloatValue(float64(i)+0.5), types.StringValue("s"),
			types.BoolValue(true), types.DateValue(int64(100+i)))
	}
	// NULLs at 0, 8 and 20 in every column but the date, with junk left
	// under them as an expression kernel might.
	for _, v := range p.Vectors[:4] {
		v.Nulls = make([]bool, n)
		for _, i := range []int{0, 8, 20} {
			v.Nulls[i] = true
		}
	}
	msg, err := AppendBatch(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchMsg(msg, schema)
	if err != nil {
		t.Fatal(err)
	}
	pagesEqual(t, p, got)
	if got.Vectors[4].Nulls != nil {
		t.Error("all-valid column decoded with a NULL mask")
	}
	for _, i := range []int{0, 8, 20} {
		if got.Vectors[0].Ints[i] != 0 || got.Vectors[1].Floats[i] != 0 ||
			got.Vectors[2].Strings[i] != "" || got.Vectors[3].Bools[i] {
			t.Errorf("row %d: NULL cell kept a non-zero payload", i)
		}
	}
	// Decoded values must not alias the message: it may be a pooled buffer.
	for i := range msg {
		msg[i] = 0xAA
	}
	pagesEqual(t, p, got)
}

// TestDecodeBatchHostileRowCount: a row count the message cannot back is
// rejected before anything is sized from it.
func TestDecodeBatchHostileRowCount(t *testing.T) {
	schema := allKindsSchema()
	msg := []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0xff}
	if _, err := DecodeBatchMsg(msg, schema); err == nil {
		t.Fatal("4G-row batch of 9 bytes accepted")
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = DecodeBatchMsg(msg, schema) }); n > 2 {
		t.Errorf("hostile row count cost %v allocations before being rejected", n)
	}
}

// FuzzDecodeBatch feeds the batch decoder arbitrary bytes against the
// all-kinds schema: it may reject them but must not panic, and a batch it
// accepts has no more rows than its validity bitmaps could cover and
// survives a re-encode.
func FuzzDecodeBatch(f *testing.F) {
	schema := allKindsSchema()
	msg, _ := AppendBatch(nil, samplePage())
	f.Add(msg)
	for cut := 0; cut < len(msg); cut += 5 {
		f.Add(msg[:cut])
	}
	empty, _ := AppendBatch(nil, column.NewPage(schema))
	f.Add(empty)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		page, err := DecodeBatchMsg(in, schema)
		if err != nil {
			return
		}
		if page.NumRows() > 8*len(in) {
			t.Fatalf("%d bytes decoded to %d rows", len(in), page.NumRows())
		}
		for _, v := range page.Vectors {
			if v.Len() != page.NumRows() || (v.Nulls != nil && len(v.Nulls) != v.Len()) {
				t.Fatal("ragged page")
			}
		}
		again, err := AppendBatch(nil, page)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBatchMsg(again, schema)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		pagesEqual(t, page, back)
	})
}
