package parquetlite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// refWriter is the row-wise writer the typed one replaced, kept as the
// reference the differential test compares images against: it boxes
// every cell into a types.Value, picks the encoding in one pass, encodes
// in a second and computes statistics through types.Compare in a third.
type refWriter struct {
	schema  *types.Schema
	opts    WriterOptions
	buf     []byte
	pending *column.Page
	meta    FileMeta
}

func newRefWriter(schema *types.Schema, opts WriterOptions) *refWriter {
	if opts.RowGroupSize <= 0 {
		opts.RowGroupSize = 65536
	}
	w := &refWriter{schema: schema, opts: opts, pending: column.NewPage(schema),
		meta: FileMeta{Schema: schema, Codec: opts.Codec}}
	w.buf = append(w.buf, Magic...)
	return w
}

func (w *refWriter) writeRow(vals ...types.Value) {
	w.pending.AppendRow(vals...)
	if w.pending.NumRows() >= w.opts.RowGroupSize {
		w.flushGroup()
	}
}

func (w *refWriter) flushGroup() {
	n := w.pending.NumRows()
	if n == 0 {
		return
	}
	rg := RowGroupMeta{NumRows: int64(n)}
	for _, vec := range w.pending.Vectors {
		enc := refChooseEncoding(vec)
		raw := refEncodeChunk(vec, enc)
		comp, err := compress.Encode(w.opts.Codec, raw)
		if err != nil {
			panic(err)
		}
		rg.Chunks = append(rg.Chunks, ChunkMeta{
			Offset:           int64(len(w.buf)),
			CompressedSize:   int64(len(comp)),
			UncompressedSize: int64(len(raw)),
			Encoding:         enc,
			Stats:            refComputeStats(vec),
		})
		w.buf = append(w.buf, comp...)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.NumRows += int64(n)
	w.pending = column.NewPage(w.schema)
}

func (w *refWriter) finish() []byte {
	w.flushGroup()
	footer, err := encodeFooter(&w.meta)
	if err != nil {
		panic(err)
	}
	w.buf = append(w.buf, footer...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(footer)))
	return append(w.buf, Magic...)
}

func refChooseEncoding(vec *column.Vector) Encoding {
	n := vec.Len()
	if n == 0 {
		return Plain
	}
	switch vec.Kind {
	case types.String:
		distinct := map[string]bool{}
		for _, s := range vec.Strings {
			distinct[s] = true
			if len(distinct) > n/4+1 {
				return Plain
			}
		}
		return Dict
	case types.Int64, types.Date:
		runs := 1
		for i := 1; i < n; i++ {
			if vec.Ints[i] != vec.Ints[i-1] {
				runs++
			}
		}
		if runs*4 <= n {
			return RLE
		}
		return Plain
	default:
		return Plain
	}
}

func refEncodeChunk(vec *column.Vector, enc Encoding) []byte {
	n := vec.Len()
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	validity := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if !vec.IsNull(i) {
			validity[i/8] |= 1 << (uint(i) % 8)
		}
	}
	buf = append(buf, validity...)

	switch enc {
	case Plain:
		switch vec.Kind {
		case types.Int64, types.Date:
			for _, x := range vec.Ints {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
		case types.Float64:
			for _, x := range vec.Floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case types.Bool:
			bits := make([]byte, (n+7)/8)
			for i, b := range vec.Bools {
				if b {
					bits[i/8] |= 1 << (uint(i) % 8)
				}
			}
			buf = append(buf, bits...)
		case types.String:
			off := uint32(0)
			buf = binary.LittleEndian.AppendUint32(buf, off)
			for _, s := range vec.Strings {
				off += uint32(len(s))
				buf = binary.LittleEndian.AppendUint32(buf, off)
			}
			for _, s := range vec.Strings {
				buf = append(buf, s...)
			}
		}
	case Dict:
		index := map[string]uint32{}
		var dict []string
		ids := make([]uint32, n)
		for i, s := range vec.Strings {
			id, ok := index[s]
			if !ok {
				id = uint32(len(dict))
				index[s] = id
				dict = append(dict, s)
			}
			ids[i] = id
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dict)))
		for _, s := range dict {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		}
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, id)
		}
	case RLE:
		i := 0
		for i < n {
			j := i + 1
			for j < n && vec.Ints[j] == vec.Ints[i] {
				j++
			}
			buf = binary.AppendUvarint(buf, uint64(j-i))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(vec.Ints[i]))
			i = j
		}
	}
	return buf
}

func refComputeStats(vec *column.Vector) expr.ZoneMap {
	st := expr.ZoneMap{
		Min:       types.NullValue(vec.Kind),
		Max:       types.NullValue(vec.Kind),
		NumValues: int64(vec.Len()),
	}
	for i := 0; i < vec.Len(); i++ {
		v := vec.Value(i)
		if v.Null {
			st.NullCount++
			continue
		}
		if st.Min.Null || types.Compare(v, st.Min) < 0 {
			st.Min = v
		}
		if st.Max.Null || types.Compare(v, st.Max) > 0 {
			st.Max = v
		}
	}
	return st
}

// hardFloats are the values a float statistic or key can get wrong: two
// NaNs with different payloads and signs, both zeros, both infinities.
var hardFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// randomPage draws n rows over testSchema's five kinds in one of a few
// shapes per column, so that every encoding, NULL density and the hard
// float values all turn up.
func randomPage(rnd *rand.Rand, n int) *column.Page {
	p := column.NewPage(testSchema())
	nullEvery := []int{0, 0, 2, 7, 1}[rnd.Intn(5)] // 1 = every row NULL
	runLen := 1 + rnd.Intn(3)*rnd.Intn(40)
	distinctStrs := []int{1, 3, 50, 1 << 30}[rnd.Intn(4)]
	hard := rnd.Intn(2) == 0
	null := func(k types.Kind, v types.Value) types.Value {
		if nullEvery > 0 && rnd.Intn(nullEvery) == 0 {
			return types.NullValue(k)
		}
		return v
	}
	for i := 0; i < n; i++ {
		f := rnd.NormFloat64() * 1e3
		if hard && rnd.Intn(3) == 0 {
			f = hardFloats[rnd.Intn(len(hardFloats))]
		}
		s := ""
		if k := rnd.Intn(distinctStrs); k > 0 {
			s = fmt.Sprintf("s%d", k)
		}
		p.AppendRow(
			null(types.Int64, types.IntValue(int64(i/runLen)-int64(rnd.Intn(2)*(runLen%2)*i))),
			null(types.Float64, types.FloatValue(f)),
			null(types.String, types.StringValue(s)),
			null(types.Bool, types.BoolValue(rnd.Intn(3) == 0)),
			null(types.Date, types.DateValue(int64(18000+i/runLen))),
		)
	}
	return p
}

// TestWriterMatchesRowWiseReference: the typed, columnar writer produces
// byte for byte the image the row-wise writer did — chunk bodies,
// encodings, offsets and footer statistics — however the rows are cut
// into pages. The last trials cut them so that a page first completes a
// pending group, then holds nine whole groups — the ones WritePage hands
// to its workers — and then a remainder.
func TestWriterMatchesRowWiseReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	const group = 64
	sizes := []int{0, 1, group - 1, group, group + 1, 2 * group, 3*group + 5, 300}
	for trial := 0; trial < 244; trial++ {
		codec := compress.Codecs()[trial%2] // None and Snappy; the codec sees the same bytes either way
		opts := WriterOptions{Codec: codec, RowGroupSize: group}
		ref := newRefWriter(testSchema(), opts)
		w := NewWriter(testSchema(), opts)
		cuts := []int{group/2 + 1, 9*group + group/2 + 1, 3 * group}
		if trial < 240 {
			cuts = cuts[:0]
			for pages := 1 + rnd.Intn(3); pages > 0; pages-- {
				cuts = append(cuts, sizes[rnd.Intn(len(sizes))])
			}
		}
		for _, n := range cuts {
			p := randomPage(rnd, n)
			for i := 0; i < p.NumRows(); i++ {
				ref.writeRow(p.Row(i)...)
			}
			if err := w.WritePage(p); err != nil {
				t.Fatal(err)
			}
		}
		got, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.finish(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: image differs from the row-wise reference (%d vs %d bytes)", trial, len(got), len(want))
		}
	}
}

func TestWritePageRejectsMismatchedPage(t *testing.T) {
	w := NewWriter(testSchema(), WriterOptions{})
	short := column.NewPage(types.NewSchema(types.Column{Name: "id", Type: types.Int64}))
	if err := w.WritePage(short); err == nil {
		t.Error("page with too few columns accepted")
	}
	wrong := column.NewPage(testSchema())
	wrong.Vectors[1] = column.NewVector(types.String)
	if err := w.WritePage(wrong); err == nil {
		t.Error("page with a String vector for a Float64 column accepted")
	}
}
