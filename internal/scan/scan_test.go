package scan

import (
	"fmt"
	"sync"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "tag", Type: types.String},
	)
}

// testObject is 128 rows in four row groups of 32, id ascending, so
// id < 32 keeps exactly the first group.
func testObject(t testing.TB, codec compress.Codec) []byte {
	t.Helper()
	p := column.NewPage(testSchema())
	for i := 0; i < 128; i++ {
		p.AppendRow(types.IntValue(int64(i)), types.FloatValue(float64(i)/3), types.StringValue(fmt.Sprintf("t%d", i%5)))
	}
	data, err := parquetlite.WritePages(testSchema(), parquetlite.WriterOptions{Codec: codec, RowGroupSize: 32}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readAll reads every surviving group of o.
func readAll(t testing.TB, o *Object) []*column.Page {
	t.Helper()
	var pages []*column.Page
	for i := 0; i < o.Len(); i++ {
		p, err := o.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	return pages
}

// TestChargesFooterChunkSizes: the bytes a read charges are the
// compressed and uncompressed sizes the footer lists for the chunks it
// decoded, and a projected read charges fewer than a full one.
func TestChargesFooterChunkSizes(t *testing.T) {
	data := testObject(t, compress.Snappy)
	r, err := parquetlite.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var read, dec int64
	for _, rg := range r.Meta().RowGroups {
		for _, c := range []int{2, 0} {
			read += rg.Chunks[c].CompressedSize
			dec += rg.Chunks[c].UncompressedSize
		}
	}
	projected, err := Open(nil, "", data, testSchema(), []int{2, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := readAll(t, projected)
	if len(pages) != 4 || pages[0].Schema.Columns[0].Name != "tag" || pages[0].Schema.Columns[1].Name != "id" {
		t.Fatalf("projected read: %d pages of %v", len(pages), pages[0].Schema)
	}
	got := projected.IO()
	if got.BytesRead != read || got.BytesDecompressed != dec {
		t.Errorf("charged read=%d decompressed=%d, footer lists %d and %d", got.BytesRead, got.BytesDecompressed, read, dec)
	}
	if want := float64(dec) * compress.DecompressCostPerByte(compress.Snappy); got.CPUUnits != want {
		t.Errorf("charged %v CPU units, want %v", got.CPUUnits, want)
	}
	full, err := Open(nil, "", data, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, full)
	if full.IO().BytesRead <= got.BytesRead {
		t.Errorf("full read (%d bytes) should exceed projected read (%d bytes)", full.IO().BytesRead, got.BytesRead)
	}
}

// TestPageCacheHitChargesNothing: a second read of the same object
// version is served from the page cache and charges no bytes.
func TestPageCacheHitChargesNothing(t *testing.T) {
	data := testObject(t, compress.Snappy)
	caches := NewCaches(1<<20, 1<<20)
	key := ObjectKey("b", "o", 1)
	cold, err := Open(caches, key, data, testSchema(), []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, cold)
	if cold.IO().BytesRead == 0 {
		t.Fatal("cold read charged nothing")
	}
	hot, err := Open(caches, key, data, testSchema(), []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, hot)
	if io := hot.IO(); io != (IO{}) {
		t.Errorf("page-cache hits charged %+v", io)
	}
	for i := range want {
		for c := range want[i].Vectors {
			if got[i].Vectors[c] != want[i].Vectors[c] {
				t.Fatalf("group %d column %d was not served from the cache", i, c)
			}
		}
	}
}

// TestPrunedScanAdmitsOnFirstRead: a scan that prunes most of an
// object's row groups still puts the chunks it decodes into the page
// cache, so the same selective read served again decodes nothing.
func TestPrunedScanAdmitsOnFirstRead(t *testing.T) {
	data := testObject(t, compress.Snappy)
	pred, err := expr.NewCompare(expr.Lt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(32)))
	if err != nil {
		t.Fatal(err)
	}
	caches := NewCaches(1<<20, 1<<20)
	key := ObjectKey("b", "o", 1)
	open := func() *Object {
		o, err := Open(caches, key, data, testSchema(), []int{0, 1}, pred)
		if err != nil {
			t.Fatal(err)
		}
		if pruned, _ := o.Pruned(); o.Len() != 1 || len(pruned) != 3 {
			t.Fatalf("kept %d groups, pruned %v; want 1 and 3", o.Len(), pruned)
		}
		return o
	}
	cold := open()
	want := readAll(t, cold)[0]
	if cold.IO().BytesRead == 0 {
		t.Fatal("cold read charged nothing")
	}
	hot := open()
	got := readAll(t, hot)[0]
	if io := hot.IO(); io != (IO{}) {
		t.Errorf("second selective read charged %+v; its chunks were not admitted on the first", io)
	}
	for c := range want.Vectors {
		if got.Vectors[c] != want.Vectors[c] {
			t.Fatalf("column %d was not served from the cache", c)
		}
	}
}

// TestPrunedGroupsAreNotExposed: pruning with a predicate over the read's
// output ordinals leaves only the surviving groups to Read, and the
// skipped bytes are those of the read's columns.
func TestPrunedGroupsAreNotExposed(t *testing.T) {
	data := testObject(t, compress.None)
	// Output ordinal 1 of the projection [2 0] is id.
	pred, err := expr.NewCompare(expr.Lt, expr.Col(1, "id", types.Int64), expr.Lit(types.IntValue(32)))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Open(nil, "", data, testSchema(), []int{2, 0}, pred)
	if err != nil {
		t.Fatal(err)
	}
	pruned, skipped := o.Pruned()
	if o.Len() != 1 || o.Group(0) != 0 || len(pruned) != 3 || skipped <= 0 {
		t.Fatalf("kept %d groups, pruned %v (%d bytes)", o.Len(), pruned, skipped)
	}
	page := readAll(t, o)[0]
	if page.NumRows() != 32 || page.Vectors[1].Ints[31] != 31 {
		t.Errorf("surviving group read %d rows", page.NumRows())
	}
}

func TestOpenRejects(t *testing.T) {
	data := testObject(t, compress.None)
	other := types.NewSchema(types.Column{Name: "id", Type: types.Int64})
	if _, err := Open(nil, "", data, other, nil, nil); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := Open(nil, "", data, nil, []int{0, 3}, nil); err == nil {
		t.Error("column outside the schema accepted")
	}
	if _, err := Open(nil, "", []byte("not an object"), nil, nil, nil); err == nil {
		t.Error("corrupt image accepted")
	}
}

// TestConcurrentReads: one Object serves concurrent Read calls (run under
// -race), each returning what a sequential read returns, and the I/O
// charged is the sum over every read.
func TestConcurrentReads(t *testing.T) {
	data := testObject(t, compress.Snappy)
	seq, err := Open(nil, "", data, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := readAll(t, seq)
	o, err := Open(NewCaches(1<<20, 1<<20), ObjectKey("b", "o", 1), data, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*o.Len())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < o.Len(); i++ {
				p, err := o.Read(i)
				if err == nil && p.NumRows() != want[i].NumRows() {
					err = fmt.Errorf("group %d: %d rows, want %d", i, p.NumRows(), want[i].NumRows())
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every chunk was decoded at least once and at most once per worker.
	if got, once := o.IO().BytesRead, seq.IO().BytesRead; got < once || got > workers*once {
		t.Errorf("concurrent reads charged %d bytes; one read charges %d", got, once)
	}
}
