package parquetlite

import (
	"encoding/binary"
	"math"
	"math/rand"
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

// FuzzNewReader feeds whole file images, seeded from writer output, to
// the reader: the footer and every chunk may be rejected but nothing may
// panic, no chunk may decode to more rows than its validity bitmap's
// bytes can flag, and an image that reads completely must read the same
// after its pages went through the writer again.
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
			p, err := r.ReadRowGroup(rg, cols)
			if err != nil {
				return
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

// FuzzReadColumn feeds one chunk body, seeded from the writer's chunk
// bodies of every kind and encoding, through ReadColumn behind an honest
// footer: a body may be rejected, but never by a panic and never after
// sizing an allocation from a count its bytes cannot back (the 8-byte
// seed asks for a 4-billion-entry dictionary), and a body that decodes
// must encode and decode to the same vector again.
func FuzzReadColumn(f *testing.F) {
	page := randomPage(rand.New(rand.NewSource(2)), 90)
	for _, vec := range page.Vectors {
		for _, rows := range []int{90, 40} { // long runs and few strings, then not
			_, _, body := encodeChunk(nil, vec.Window(0, rows))
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
		if err != nil {
			return
		}
		if vec.Len() > 8*len(body) || (vec.Nulls != nil && len(vec.Nulls) != vec.Len()) {
			t.Fatalf("a %d-byte chunk decoded to %d rows, %d NULL flags", len(body), vec.Len(), len(vec.Nulls))
		}
		enc, _, again := encodeChunk(nil, vec)
		back, err := decodeChunk(again, k, enc)
		if err != nil {
			t.Fatalf("re-encoded chunk rejected: %v", err)
		}
		sameVector(t, vec, back)
	})
}
