package objstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/types"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.CreateBucket("b")
	s.Put("b", "k1", []byte("v1"))
	s.Put("b", "k2", []byte("v2"))
	s.Put("c", "x", []byte("y")) // implicit bucket

	data, err := s.Get("b", "k1")
	if err != nil || string(data) != "v1" {
		t.Errorf("Get = %q, %v", data, err)
	}
	if _, err := s.Get("nope", "k"); err == nil {
		t.Error("missing bucket accepted")
	}
	if _, err := s.Get("b", "nope"); err == nil {
		t.Error("missing key accepted")
	}
	keys, err := s.List("b", "")
	if err != nil || len(keys) != 2 || keys[0] != "k1" {
		t.Errorf("List = %v, %v", keys, err)
	}
	keys, _ = s.List("b", "k2")
	if len(keys) != 1 || keys[0] != "k2" {
		t.Errorf("prefix list = %v", keys)
	}
	if got := s.Buckets(); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("Buckets = %v", got)
	}
	if s.Size("b", "k1") != 2 || s.Size("b", "zz") != -1 {
		t.Error("Size wrong")
	}
	s.Delete("b", "k1")
	if _, err := s.Get("b", "k1"); err == nil {
		t.Error("deleted object still readable")
	}
	s.Delete("b", "k1") // idempotent
	// Put copies its input.
	buf := []byte("abc")
	s.Put("b", "copy", buf)
	buf[0] = 'X'
	data, _ = s.Get("b", "copy")
	if string(data) != "abc" {
		t.Error("Put must copy data")
	}
}

func TestWorkStatsAdd(t *testing.T) {
	a := WorkStats{BytesRead: 1, BytesDecompressed: 2, CPUUnits: 3, RowsProcessed: 4}
	a.Add(WorkStats{BytesRead: 10, BytesDecompressed: 20, CPUUnits: 30, RowsProcessed: 40})
	if a.BytesRead != 11 || a.BytesDecompressed != 22 || a.CPUUnits != 33 || a.RowsProcessed != 44 {
		t.Errorf("Add = %+v", a)
	}
}

func tableSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "name", Type: types.String},
	)
}

func tableObject(t *testing.T, codec compress.Codec) []byte {
	t.Helper()
	p := column.NewPage(tableSchema())
	for i := 0; i < 100; i++ {
		p.AppendRow(
			types.IntValue(int64(i)),
			types.FloatValue(float64(i)/10),
			types.StringValue([]string{"red", "green", "blue"}[i%3]),
		)
	}
	data, err := parquetlite.WritePages(tableSchema(), parquetlite.WriterOptions{Codec: codec, RowGroupSize: 32}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startServer serves an empty store with the object methods over
// loopback and returns a client of it.
func startServer(t *testing.T) *Client {
	t.Helper()
	srv := rpc.NewServer()
	Mount(srv, NewStore(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(addr)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli
}

func TestClientPutGetListDelete(t *testing.T) {
	cli := startServer(t)
	if err := cli.Put(context.Background(), "bkt", "obj1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Put(context.Background(), "bkt", "obj2", []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, st, err := cli.Get(context.Background(), "bkt", "obj1")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if st.BytesRead != 5 {
		t.Errorf("get stats = %+v", st)
	}
	keys, err := cli.List(context.Background(), "bkt", "obj")
	if err != nil || len(keys) != 2 {
		t.Errorf("List = %v, %v", keys, err)
	}
	if err := cli.Delete(context.Background(), "bkt", "obj1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Get(context.Background(), "bkt", "obj1"); err == nil {
		t.Error("get of deleted object succeeded")
	}
	if err := cli.Put(context.Background(), "", "", nil); err == nil {
		t.Error("empty put accepted")
	}
	if _, err := cli.List(context.Background(), "missing", ""); err == nil {
		t.Error("list of missing bucket accepted")
	}
	if cli.Meter().Calls() == 0 {
		t.Error("client meter not counting")
	}
}

func TestSelectFullScan(t *testing.T) {
	cli := startServer(t)
	if err := cli.Put(context.Background(), "data", "t.pql", tableObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	csvData, st, err := cli.Select(context.Background(), "data", "t.pql", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	page, units, err := ParseSelectCSV(csvData, tableSchema())
	if err != nil {
		t.Fatal(err)
	}
	if page.NumRows() != 100 || page.NumCols() != 3 {
		t.Errorf("select all = %dx%d", page.NumRows(), page.NumCols())
	}
	if units <= 0 || st.RowsProcessed != 100 || st.BytesRead <= 0 {
		t.Errorf("stats = %+v units=%v", st, units)
	}
}

func TestSelectFilterAndProjection(t *testing.T) {
	cli := startServer(t)
	if err := cli.Put(context.Background(), "data", "t.pql", tableObject(t, compress.Snappy)); err != nil {
		t.Fatal(err)
	}
	// id >= 90 (full-schema ordinal 0).
	pred, _ := expr.NewCompare(expr.Ge, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(90)))
	csvData, st, err := cli.Select(context.Background(), "data", "t.pql", []string{"name", "id"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := ParseSelectCSV(csvData, tableSchema())
	if err != nil {
		t.Fatal(err)
	}
	if page.NumRows() != 10 {
		t.Errorf("filtered rows = %d", page.NumRows())
	}
	if page.Schema.Columns[0].Name != "name" || page.Schema.Columns[1].Name != "id" {
		t.Errorf("projected schema = %v", page.Schema)
	}
	if page.Row(0)[1].I != 90 {
		t.Errorf("first row id = %v", page.Row(0)[1])
	}
	// Row-group pruning: only the last of 4 groups (32 rows) matches.
	if st.RowsProcessed >= 100 {
		t.Errorf("pruning did not engage: processed %d rows", st.RowsProcessed)
	}
	if st.CPUUnits <= 0 || st.BytesDecompressed <= 0 {
		t.Errorf("storage work not metered: %+v", st)
	}
}

func TestSelectProjectionReducesBytes(t *testing.T) {
	cli := startServer(t)
	if err := cli.Put(context.Background(), "data", "t.pql", tableObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	cli.Meter().Reset()
	if _, _, err := cli.Select(context.Background(), "data", "t.pql", []string{"id"}, nil); err != nil {
		t.Fatal(err)
	}
	projected := cli.Meter().Received()
	cli.Meter().Reset()
	if _, _, err := cli.Select(context.Background(), "data", "t.pql", nil, nil); err != nil {
		t.Fatal(err)
	}
	full := cli.Meter().Received()
	if projected >= full {
		t.Errorf("projection must reduce transfer: %d vs %d", projected, full)
	}
}

func TestSelectErrors(t *testing.T) {
	cli := startServer(t)
	if err := cli.Put(context.Background(), "data", "bad.pql", []byte("not a parquet file")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Select(context.Background(), "data", "bad.pql", nil, nil); err == nil {
		t.Error("select over corrupt object succeeded")
	}
	if _, _, err := cli.Select(context.Background(), "data", "missing.pql", nil, nil); err == nil {
		t.Error("select over missing object succeeded")
	}
	if err := cli.Put(context.Background(), "data", "t.pql", tableObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Select(context.Background(), "data", "t.pql", []string{"nosuch"}, nil); err == nil {
		t.Error("unknown column accepted")
	}
	badPred, _ := expr.NewCompare(expr.Gt, expr.Col(99, "zz", types.Int64), expr.Lit(types.IntValue(0)))
	if _, _, err := cli.Select(context.Background(), "data", "t.pql", nil, badPred); err == nil {
		t.Error("out-of-range predicate ordinal accepted")
	}
}

func TestParseSelectCSVErrors(t *testing.T) {
	schema := tableSchema()
	if _, _, err := ParseSelectCSV([]byte(""), schema); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, _, err := ParseSelectCSV([]byte("wat\n1\n"), schema); err == nil {
		t.Error("unknown header accepted")
	}
	if _, _, err := ParseSelectCSV([]byte("id\nxyz\n"), schema); err == nil {
		t.Error("bad int accepted")
	}
}

func TestSelectCSVStringQuoting(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "s", Type: types.String})
	p := column.NewPage(schema)
	p.AppendRow(types.StringValue(`comma, "quoted"`))
	data, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{}, p)
	if err != nil {
		t.Fatal(err)
	}
	cli := startServer(t)
	if err := cli.Put(context.Background(), "d", "q.pql", data); err != nil {
		t.Fatal(err)
	}
	csvData, _, err := cli.Select(context.Background(), "d", "q.pql", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := ParseSelectCSV(csvData, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := page.Row(0)[0].S; got != `comma, "quoted"` {
		t.Errorf("quoting broken: %q", got)
	}
	if !strings.Contains(string(csvData), `"`) {
		t.Error("csv did not quote special chars")
	}
}

func TestSelectDoubleSupport(t *testing.T) {
	// The paper notes S3 Select lacks double support; ours must not.
	schema := types.NewSchema(types.Column{Name: "v", Type: types.Float64})
	p := column.NewPage(schema)
	p.AppendRow(types.FloatValue(3.141592653589793))
	data, _ := parquetlite.WritePages(schema, parquetlite.WriterOptions{}, p)
	cli := startServer(t)
	if err := cli.Put(context.Background(), "d", "f.pql", data); err != nil {
		t.Fatal(err)
	}
	csvData, _, err := cli.Select(context.Background(), "d", "f.pql", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	page, _, err := ParseSelectCSV(csvData, schema)
	if err != nil {
		t.Fatal(err)
	}
	if page.Row(0)[0].F != 3.141592653589793 {
		t.Errorf("double precision lost: %v", page.Row(0)[0].F)
	}
}

// withRowCount rewrites an image's footer so that the file and each of
// its row groups claim rows rows; every other footer field and every
// chunk is copied as it was.
func withRowCount(t *testing.T, img []byte, rows int64) []byte {
	t.Helper()
	footerEnd := len(img) - len(parquetlite.Magic) - 4
	footerStart := footerEnd - int(binary.LittleEndian.Uint32(img[footerEnd:]))
	copyFields := func(d *protowire.Decoder, e *protowire.Encoder, rowsField int, inner func(*protowire.Decoder, *protowire.Encoder)) {
		for !d.Done() {
			f, ty, err := d.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case f == rowsField:
				_, err = d.Int64()
				e.Int64(f, rows)
			case ty == protowire.BytesType:
				var b []byte
				if b, err = d.Bytes(); err == nil && f == 4 && inner != nil {
					e.Message(f, func(m *protowire.Encoder) { inner(protowire.NewDecoder(b), m) })
				} else {
					e.Bytes(f, b)
				}
			default:
				var v uint64
				v, err = d.Uint64()
				e.Uint64(f, v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	footer := protowire.NewEncoder()
	// The file's row count is field 3; a row group (field 4) holds its
	// row count in field 1.
	copyFields(protowire.NewDecoder(img[footerStart:footerEnd]), footer, 3, func(d *protowire.Decoder, e *protowire.Encoder) {
		copyFields(d, e, 1, nil)
	})
	out := append(append([]byte(nil), img[:footerStart]...), footer.Encoded()...)
	return append(binary.LittleEndian.AppendUint32(out, uint32(footer.Len())), parquetlite.Magic...)
}

// TestSelectLyingRowCount: an object whose footer claims 4M rows per row
// group is rejected by the first chunk Select decodes, and the rejection
// allocates no more than its input supports: nothing is sized from the
// footer's row count. The Select asks for the last column, so a read that
// filled the columns it skips would size two 4M-row vectors first.
func TestSelectLyingRowCount(t *testing.T) {
	img := withRowCount(t, tableObject(t, compress.None), 4<<20)
	if r, err := parquetlite.NewReader(img); err != nil || r.Meta().RowGroups[0].NumRows != 4<<20 {
		t.Fatalf("rewritten footer: %v", err)
	}
	cli := startServer(t)
	if err := cli.Put(context.Background(), "data", "lying.pql", img); err != nil {
		t.Fatal(err)
	}
	sel := func() error {
		_, _, err := cli.Select(context.Background(), "data", "lying.pql", []string{"name"}, nil)
		return err
	}
	if err := sel(); err == nil {
		t.Fatal("select over a footer claiming 4M rows per group succeeded")
	}
	if got := leastAlloc(func() { _ = sel() }); got > 1<<20 {
		t.Errorf("select over a %d-byte object allocated %d bytes", len(img), got)
	}
}

// FuzzDecodeSelect: a Select request reads bytes from any client. The
// decoder may refuse them — always as CodeInvalid — but must not panic,
// allocates within selectAllocBound of its input whatever the verdict, and
// what it accepts is backed by the payload and survives a re-encode.
func FuzzDecodeSelect(f *testing.F) {
	id := expr.Col(0, "id", types.Int64)
	ge, _ := expr.NewCompare(expr.Ge, id, expr.Lit(types.IntValue(90)))
	asString, _ := expr.NewCompare(expr.Eq, expr.Col(1, "x", types.String), expr.Lit(types.StringValue("0.5")))
	and, _ := expr.NewLogic(expr.And, ge, asString)
	for _, req := range []struct {
		bucket, key string
		columns     []string
		pred        expr.Expr
	}{
		{"data", "t.pql", nil, nil},
		{"data", "t.pql", []string{"name", "id"}, ge},
		{"data", "t.pql", []string{"x"}, and},
		{"data", "t.pql", []string{"", "nosuch"}, asString},
		{"", "t.pql", nil, ge},
		{"data", "", []string{"id"}, nil},
	} {
		in, err := encodeSelect(req.bucket, req.key, req.columns, req.pred)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(in)
		f.Add(in[:len(in)-1])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := decodeSelect(in)
		if got, bound := leastAlloc(func() { _, _ = decodeSelect(in) }), selectAllocBound(len(in)); got > bound {
			t.Fatalf("%d input bytes allocated %d bytes to decode, bound %d (err %v)", len(in), got, bound, err)
		}
		if err != nil {
			if !errors.Is(err, rpc.ErrInvalid) {
				t.Fatalf("rejection is not CodeInvalid: %v", err)
			}
			return
		}
		if r.Bucket == "" || r.Key == "" {
			t.Fatalf("accepted a request for %q/%q", r.Bucket, r.Key)
		}
		named := len(r.Bucket) + len(r.Key)
		for _, c := range r.columns {
			named += len(c)
		}
		if named > len(in) {
			t.Fatalf("%d input bytes decoded to %d bytes of names", len(in), named)
		}
		wire, err := encodeSelect(r.Bucket, r.Key, r.columns, r.pred)
		if err != nil {
			t.Fatalf("re-encode of an accepted request: %v", err)
		}
		again, err := decodeSelect(wire)
		if err != nil || again.Bucket != r.Bucket || again.Key != r.Key || !slices.Equal(again.columns, r.columns) || fmt.Sprint(again.pred) != fmt.Sprint(r.pred) {
			t.Fatalf("re-encode of %+v decoded to %+v, %v", r, again, err)
		}
	})
}

// selectAllocBound is the most heap decoding an n-byte Select request may
// take: its names are copied out as strings, each column costs a slice
// slot, and its predicate decodes through Substrait's expression decoder,
// whose plans FuzzSubstraitUnmarshal holds to the same bound. The costliest
// bytes measured are empty column names, 33 heap bytes a byte (as List's
// empty keys); repeated predicates take 9.2.
func selectAllocBound(n int) uint64 { return 96*uint64(n) + 16<<10 }

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
