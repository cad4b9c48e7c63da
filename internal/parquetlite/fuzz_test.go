package parquetlite

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/types"
)

// sameVector fails unless a and b hold the same rows: NULL for NULL, floats
// bit for bit.
func sameVector(t *testing.T, a, b *column.Vector) {
	t.Helper()
	if a.Kind != b.Kind || a.Len() != b.Len() {
		t.Fatalf("%s vector of %d rows became %s of %d", a.Kind, a.Len(), b.Kind, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.Value(i), b.Value(i)
		if x.Null != y.Null || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S || x.B != y.B {
			t.Fatalf("row %d: %v became %v", i, x, y)
		}
	}
}

// decodeAllocBound is the most heap decoding an n-byte chunk body may
// allocate. A validity byte flags at most 8 rows, and a row decodes to at
// most 9 bytes: an 8-byte value and a 1-byte NULL flag. (A string row's
// 16-byte header costs the body at least a 4-byte offset or code, a
// dictionary entry's a 4-byte length, and a bool row a second bit.) That
// is 72 bytes per body byte; the allocator rounds a size up to its class
// by at most 1/8, giving 81, and the vector, the page and an error take a
// fixed 4 KiB besides.
func decodeAllocBound(n int64) uint64 { return uint64(81*n + 4<<10) }

// leastAlloc is the fewest heap bytes f allocated over three runs (the
// fewest, so another goroutine's allocation and the scratch pool's first
// fill do not count).
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

// FuzzNewReader feeds whole file images, seeded from writer output, to
// the reader: the footer and every chunk may be rejected but nothing may
// panic, no chunk may decode to more rows than its validity bitmap's
// bytes can flag, a row group that reads allocates within
// decodeAllocBound of its chunks' decompressed bytes, and an image that
// reads completely must read the same after its pages went through the
// writer again.
func FuzzNewReader(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for _, codec := range []compress.Codec{compress.None, compress.Snappy} {
		img, err := WritePages(testSchema(), WriterOptions{Codec: codec, RowGroupSize: 32}, randomPage(rnd, 70))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		for cut := len(img) - 1; cut > 0; cut -= 97 {
			f.Add(img[:cut])
		}
	}
	empty, _ := WritePages(testSchema(), WriterOptions{})
	f.Add(empty)
	// A footer whose chunk ends before it starts, and one whose end
	// overflows: both once passed the bounds check and panicked the read.
	for _, size := range []int64{-2, math.MaxInt64} {
		meta := FileMeta{Schema: types.NewSchema(types.Column{Name: "c", Type: types.Int64}),
			RowGroups: []RowGroupMeta{{Chunks: []ChunkMeta{{Offset: 8, CompressedSize: size}}}}}
		footer, _ := encodeFooter(&meta)
		img := append([]byte("PQL1\x00\x00\x00\x00\x00\x00\x00\x00"), footer...)
		f.Add(append(binary.LittleEndian.AppendUint32(img, uint32(len(footer))), Magic...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		cols := make([]int, r.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
		read, decoded := column.NewPage(r.Schema()), 0
		for rg, group := range r.Meta().RowGroups {
			if decoded += len(cols) * int(group.NumRows); decoded > 1<<22 {
				return // many groups may share one chunk; enough is read
			}
			p := &column.Page{Schema: r.Schema(), Vectors: make([]*column.Vector, len(cols))}
			readGroup := func() {
				for _, c := range cols {
					if p.Vectors[c], err = r.ReadColumn(rg, c); err != nil {
						return
					}
				}
			}
			if readGroup(); err != nil {
				return
			}
			var bound uint64
			for _, ch := range group.Chunks {
				bound += decodeAllocBound(ch.UncompressedSize)
			}
			if got := leastAlloc(readGroup); got > bound {
				t.Fatalf("row group %d: decoding %d chunks allocated %d bytes, bound %d", rg, len(cols), got, bound)
			}
			for c, vec := range p.Vectors {
				if limit := 8 * group.Chunks[c].UncompressedSize; int64(vec.Len()) > limit {
					t.Fatalf("a %d-byte chunk decoded to %d rows", group.Chunks[c].UncompressedSize, vec.Len())
				}
			}
			read.AppendPage(p)
		}
		again, err := WritePages(r.Schema(), WriterOptions{Codec: r.Meta().Codec}, read)
		if err != nil {
			t.Fatalf("rewriting what was read: %v", err)
		}
		r2, err := NewReader(again)
		if err != nil {
			t.Fatalf("rewritten image rejected: %v", err)
		}
		back := column.NewPage(r.Schema())
		pages, err := r2.ReadAll(cols)
		if err != nil {
			t.Fatalf("rewritten image unreadable: %v", err)
		}
		for _, p := range pages {
			back.AppendPage(p)
		}
		for c := range cols {
			sameVector(t, read.Vectors[c], back.Vectors[c])
		}
	})
}

// dictRowStrings decodes a Dict chunk body a row at a time into a string
// per row, "" under NULL rows — the decoder's old output, which a vector
// in dictionary form must materialize to. The body has already decoded.
func dictRowStrings(body []byte) []string {
	n := int(binary.LittleEndian.Uint32(body))
	validity := body[4 : 4+(n+7)/8]
	data := body[4+(n+7)/8:]
	dict := make([]string, binary.LittleEndian.Uint32(data))
	data = data[4:]
	for i := range dict {
		sl := int(binary.LittleEndian.Uint32(data))
		dict[i], data = string(data[4:4+sl]), data[4+sl:]
	}
	out := make([]string, n)
	for i := range out {
		if validity[i/8]&(1<<(uint(i)%8)) != 0 {
			out[i] = dict[binary.LittleEndian.Uint32(data[4*i:])]
		}
	}
	return out
}

// FuzzReadColumn feeds one chunk body, seeded from the writer's chunk
// bodies of every kind and encoding, through ReadColumn behind an honest
// footer: a body may be rejected, but never by a panic and never after
// allocating more than decodeAllocBound of its bytes (the 8-byte seed
// asks for a 4-billion-entry dictionary), and a body that decodes
// must encode and decode to the same vector again. A Dict body decodes to
// a vector in dictionary form whose every code indexes its Dict and whose
// rows materialize to the strings a row-at-a-time decode gives.
func FuzzReadColumn(f *testing.F) {
	page := randomPage(rand.New(rand.NewSource(2)), 90)
	for _, vec := range page.Vectors {
		for _, rows := range []int{90, 40} { // long runs and few strings, then not
			_, _, body := new(groupEncoder).encodeChunk(vec.Window(0, rows))
			for _, enc := range []Encoding{Plain, Dict, RLE} {
				f.Add(body, uint8(vec.Kind), uint8(enc))
				f.Add(body[:len(body)/2], uint8(vec.Kind), uint8(enc))
			}
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, uint8(types.String), uint8(Dict))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, uint8(types.Int64), uint8(RLE))
	f.Fuzz(func(t *testing.T, body []byte, kind, encoding uint8) {
		k := types.Kind(kind%5) + types.Int64
		rows := int64(0)
		if len(body) >= 4 {
			rows = int64(binary.LittleEndian.Uint32(body))
		}
		meta := FileMeta{
			Schema:  types.NewSchema(types.Column{Name: "c", Type: k}),
			NumRows: rows,
			RowGroups: []RowGroupMeta{{NumRows: rows, Chunks: []ChunkMeta{{
				Offset: int64(len(Magic)), CompressedSize: int64(len(body)), UncompressedSize: int64(len(body)),
				Encoding: Encoding(encoding % 3),
			}}}},
		}
		footer, err := encodeFooter(&meta)
		if err != nil {
			t.Fatal(err)
		}
		img := append(append(append([]byte(nil), Magic...), body...), footer...)
		img = append(binary.LittleEndian.AppendUint32(img, uint32(len(footer))), Magic...)
		r, err := NewReader(img)
		if err != nil {
			t.Fatalf("honest footer rejected: %v", err)
		}
		vec, err := r.ReadColumn(0, 0)
		if got, bound := leastAlloc(func() { _, _ = r.ReadColumn(0, 0) }), decodeAllocBound(int64(len(body))); got > bound {
			t.Fatalf("a %d-byte chunk allocated %d bytes to decode, bound %d (err %v)", len(body), got, bound, err)
		}
		if err != nil {
			return
		}
		if vec.Len() > 8*len(body) || (vec.Nulls != nil && len(vec.Nulls) != vec.Len()) {
			t.Fatalf("a %d-byte chunk decoded to %d rows, %d NULL flags", len(body), vec.Len(), len(vec.Nulls))
		}
		if (vec.Dict != nil) != (k == types.String && Encoding(encoding%3) == Dict) {
			t.Fatalf("%s chunk with encoding %d decoded to dictionary form %v", k, encoding%3, vec.Dict != nil)
		}
		if vec.Dict != nil {
			for i, c := range vec.Codes {
				if c < 0 || int(c) >= len(vec.Dict) {
					t.Fatalf("row %d: code %d outside a %d-entry dictionary", i, c, len(vec.Dict))
				}
			}
			if got, want := vec.StringSlice(), dictRowStrings(body); !slices.Equal(got, want) {
				t.Fatalf("dictionary vector materializes to %q, row-at-a-time decode %q", got, want)
			}
		}
		enc, _, again := new(groupEncoder).encodeChunk(vec)
		back, err := decodeChunk(again, k, enc)
		if err != nil {
			t.Fatalf("re-encoded chunk rejected: %v", err)
		}
		sameVector(t, vec, back)
	})
}

// FuzzEncodeDictForm holds encodeChunk on a String vector in dictionary
// form to its flattened twin, the same rows as plain strings ("" under a
// NULL row) over the same NULL mask: the same encoding, statistics and
// bytes, whatever the Dict holds (repeated and unused entries, "" or
// not), whatever code lies under a NULL row, and on either side of the
// n/4+1 distinct values past which a chunk is written plain; and the body
// decodes to the twin's rows. The Dict is entries split at commas, row
// i's code is codes[i] modulo its length, and row i is NULL when bit i of
// nulls, repeated for as long as there are rows, is set.
func FuzzEncodeDictForm(f *testing.F) {
	rows := func(n int, codes ...byte) []byte { // codes repeated over n rows
		out := make([]byte, n)
		for i := range out {
			out[i] = codes[i%len(codes)]
		}
		return out
	}
	// 16 rows may hold 5 distinct values in a dictionary, not 6; 15 rows 4,
	// not 5.
	f.Add("a,b,c,d,e,f", rows(16, 0, 1, 2, 3, 4), []byte(nil))
	f.Add("a,b,c,d,e,f", rows(16, 0, 1, 2, 3, 4, 5), []byte(nil))
	f.Add("a,b,c,d,e,f", rows(15, 0, 1, 2, 3), []byte(nil))
	f.Add("a,b,c,d,e,f", rows(15, 0, 1, 2, 3, 4), []byte(nil))
	// A NULL row over "a", which no other row uses: it reads as "", which
	// is the dictionary's first entry, and "a" is not in it.
	f.Add("a,b,c", append([]byte{0}, rows(15, 1, 2)...), []byte{0x01, 0x00})
	// NULL rows over "", and "" as a value: one entry.
	f.Add(",x,y", rows(16, 0, 1, 0, 2), []byte{0x11, 0x00})
	// Repeated entries, and unused ones that sort first and last.
	f.Add("0,m,k,m,z", rows(16, 1, 2, 3), []byte(nil))
	f.Add("0,m,k,m,z,k", rows(16, 1, 2, 3, 5), []byte{0x80})
	// The strings of a NULL row only: no bounds.
	f.Add("a,b", rows(8, 1), []byte{0xff})
	f.Add("a", []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, entries string, codes, nulls []byte) {
		vec := &column.Vector{Kind: types.String, Dict: strings.Split(entries, ","), Codes: make([]int32, len(codes))}
		for i, c := range codes {
			vec.Codes[i] = int32(int(c) % len(vec.Dict))
		}
		if len(nulls) > 0 {
			vec.Nulls = make([]bool, len(codes))
			for i := range vec.Nulls {
				vec.Nulls[i] = nulls[i/8%len(nulls)]&(1<<(i%8)) != 0
			}
		}
		twin := &column.Vector{Kind: types.String, Strings: vec.StringSlice(), Nulls: vec.Nulls}
		enc, st, body := new(groupEncoder).encodeChunk(vec)
		wantEnc, wantSt, want := new(groupEncoder).encodeChunk(twin)
		if enc != wantEnc || st != wantSt || !bytes.Equal(body, want) {
			t.Fatalf("dictionary form encodes as %v %+v (%d bytes), its flattened twin as %v %+v (%d bytes)",
				enc, st, len(body), wantEnc, wantSt, len(want))
		}
		back, err := decodeChunk(body, types.String, enc)
		if err != nil {
			t.Fatalf("dictionary-form chunk rejected: %v", err)
		}
		sameVector(t, twin, back)
	})
}
