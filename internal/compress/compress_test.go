package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleInputs() map[string][]byte {
	rnd := rand.New(rand.NewSource(7))
	random := make([]byte, 10000)
	rnd.Read(random)
	lowEntropy := make([]byte, 20000)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rnd.Intn(4))
	}
	return map[string][]byte{
		"empty":      {},
		"one":        {42},
		"short":      []byte("abc"),
		"repeated":   bytes.Repeat([]byte("abcdefgh"), 1000),
		"zeros":      make([]byte, 65536),
		"random":     random,
		"lowentropy": lowEntropy,
		"text":       []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 300)),
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for name, data := range sampleInputs() {
		for _, c := range Codecs() {
			enc, err := Encode(c, data)
			if err != nil {
				t.Fatalf("%s/%s encode: %v", c, name, err)
			}
			dec, err := Decode(c, enc)
			if err != nil {
				t.Fatalf("%s/%s decode: %v", c, name, err)
			}
			if !bytes.Equal(dec, data) {
				t.Errorf("%s/%s: round trip mismatch (%d vs %d bytes)", c, name, len(dec), len(data))
			}
		}
	}
}

func TestCompressionRatioOrdering(t *testing.T) {
	// The paper's Fig. 6 relies on ratio(Zstd) >= ratio(Gzip) > ratio(Snappy)
	// on compressible scientific-like data.
	data := sampleInputs()["lowentropy"]
	sizes := map[Codec]int{}
	for _, c := range Codecs() {
		enc, err := Encode(c, data)
		if err != nil {
			t.Fatal(err)
		}
		sizes[c] = len(enc)
	}
	if !(sizes[Zstd] <= sizes[Gzip] && sizes[Gzip] < sizes[Snappy] && sizes[Snappy] < sizes[None]) {
		t.Errorf("ratio ordering violated: none=%d snappy=%d gzip=%d zstd=%d",
			sizes[None], sizes[Snappy], sizes[Gzip], sizes[Zstd])
	}
}

func TestSnappyCompressesRepetitive(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	enc, _ := Encode(Snappy, data)
	if len(enc) > len(data)/8 {
		t.Errorf("snappy barely compressed: %d -> %d", len(data), len(enc))
	}
}

// corruptSnappyInputs are blocks the decoder must reject; they also seed
// FuzzSnappyDecode.
func corruptSnappyInputs() [][]byte {
	return [][]byte{
		{},                    // missing length
		{0xff, 0xff, 0xff},    // unterminated varint
		{0x08, 0x00},          // literal length 3 but only 1 byte payload
		{0x04, 0x01, 0x05, 9}, // copy with offset beyond output
		{0x02, 0xF0},          // literal tag 60 with no length byte
		// Hostile header: declares 4 GiB with nothing behind it. Must be
		// rejected before the output is allocated (and zeroed).
		{0xff, 0xff, 0xff, 0xff, 0x0f},
		// Declares 23x the body: more than the densest possible stream
		// (3-byte copies of 64 bytes each) could produce.
		{3*23 + 1, 0x00, 'a', 0xfe},
		{0x05, 0x00, 'a', 0x0d, 0x01}, // copy runs past the declared length
		{0x02, 0x08, 'a', 'b', 'c'},   // literal runs past the declared length
		{0x03, 0x00, 'a'},             // stream ends short of the declared length
	}
}

func TestSnappyCorruptInputs(t *testing.T) {
	cases := corruptSnappyInputs()
	for i, c := range cases {
		if _, err := Decode(Snappy, c); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
		// The append form must fail the same way and leave dst's bytes alone.
		dst := []byte("keep")
		if _, err := DecodeAppend(Snappy, c, dst[:4:4], math.MaxInt); err == nil {
			t.Errorf("case %d: corrupt input appended without error", i)
		}
		if string(dst) != "keep" {
			t.Errorf("case %d: failed decode clobbered dst: %q", i, dst)
		}
	}
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	if n := testing.AllocsPerRun(10, func() { _, _ = Decode(Snappy, hostile) }); n != 0 {
		t.Errorf("hostile header allocated %v times before being rejected", n)
	}
	// Truncated valid stream.
	enc, _ := Encode(Snappy, bytes.Repeat([]byte("xy"), 100))
	if _, err := Decode(Snappy, enc[:len(enc)-3]); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

// TestDecodeAppendLimit: every codec decodes an output of exactly limit
// bytes and rejects one of limit+1.
func TestDecodeAppendLimit(t *testing.T) {
	src := bytes.Repeat([]byte("limit"), 200)
	for _, c := range Codecs() {
		enc, err := Encode(c, src)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeAppend(c, enc, nil, len(src)); err != nil || !bytes.Equal(got, src) {
			t.Errorf("%s: output of exactly limit bytes: err %v", c, err)
		}
		if _, err := DecodeAppend(c, enc, nil, len(src)-1); err == nil {
			t.Errorf("%s: output one byte past limit accepted", c)
		}
	}
}

// TestSnappyDecodeAppend: the append form decodes into dst's spare
// capacity when the output fits, keeps what dst already holds, and grows
// exactly once when it does not fit.
func TestSnappyDecodeAppend(t *testing.T) {
	for name, data := range sampleInputs() {
		enc, _ := Encode(Snappy, data)
		roomy := make([]byte, 3, 3+len(data))
		copy(roomy, "pre")
		got, err := DecodeAppend(Snappy, enc, roomy, math.MaxInt)
		if err != nil || !bytes.Equal(got, append([]byte("pre"), data...)) {
			t.Fatalf("%s: append into spare capacity: %v", name, err)
		}
		if len(data) > 0 && &got[0] != &roomy[0] {
			t.Errorf("%s: output fit dst's capacity but was reallocated", name)
		}
		tight := []byte("pre")
		got, err = DecodeAppend(Snappy, enc, tight[:3:3], math.MaxInt)
		if err != nil || !bytes.Equal(got, append([]byte("pre"), data...)) {
			t.Fatalf("%s: append with no spare capacity: %v", name, err)
		}
	}
}

// TestEncodeAppend: every codec appends after what dst holds exactly the
// bytes Encode returns, into dst's spare capacity when they fit.
func TestEncodeAppend(t *testing.T) {
	for name, data := range sampleInputs() {
		for _, c := range Codecs() {
			want, err := Encode(c, data)
			if err != nil {
				t.Fatal(err)
			}
			roomy := make([]byte, 3, 3+len(data)+16) // room for Snappy's worst case
			copy(roomy, "pre")
			got, err := EncodeAppend(c, roomy, data)
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want...)) {
				t.Fatalf("%s/%s: append into spare capacity: %v", c, name, err)
			}
			if (c == None || c == Snappy) && &got[0] != &roomy[0] {
				t.Errorf("%s/%s: output fit dst's capacity but was reallocated", c, name)
			}
		}
	}
}

// TestSnappyDecodeHandBuilt pins the decoder against streams the greedy
// encoder never emits: every copy form at short and long offsets,
// overlapping runs at each small offset, and multi-byte literal lengths.
func TestSnappyDecodeHandBuilt(t *testing.T) {
	lit := func(b []byte) []byte { return appendLiteral(nil, b) }
	copy1 := func(off, n int) []byte { return []byte{byte(off>>8)<<5 | byte(n-4)<<2 | tagCopy1, byte(off)} }
	copy2 := func(off, n int) []byte { return []byte{byte(n-1)<<2 | tagCopy2, byte(off), byte(off >> 8)} }
	copy4 := func(off, n int) []byte {
		return []byte{byte(n-1)<<2 | tagCopy4, byte(off), byte(off >> 8), byte(off >> 16), byte(off >> 24)}
	}
	rnd := rand.New(rand.NewSource(3))
	seed := make([]byte, 300)
	rnd.Read(seed)
	var body, want []byte
	emitCopy := func(enc []byte, off, n int) {
		body = append(body, enc...)
		for i := 0; i < n; i++ { // byte-wise reference semantics
			want = append(want, want[len(want)-off])
		}
	}
	body = append(body, lit(seed)...)
	want = append(want, seed...)
	for off := 1; off <= 20; off++ {
		for _, n := range []int{4, 5, 8, 11} {
			emitCopy(copy1(off, n), off, n)
		}
		for _, n := range []int{1, 2, 7, 16, 17, 33, 64} {
			emitCopy(copy2(off, n), off, n)
			emitCopy(copy4(off, n), off, n)
		}
		body = append(body, lit(seed[off:2*off])...)
		want = append(want, seed[off:2*off]...)
	}
	emitCopy(copy2(len(want), 64), len(want), 64)
	emitCopy(copy1(299, 11), 299, 11)
	for _, n := range []int{61, 255, 256, 257} { // literal lengths in 1 and 2 extra bytes
		long := bytes.Repeat([]byte{byte(n)}, n)
		body = append(body, lit(long)...)
		want = append(want, long...)
	}
	enc := append(appendUvarint(nil, uint64(len(want))), body...)
	got, err := Decode(Snappy, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hand-built stream decoded to different bytes than the byte-wise reference")
	}
}

func TestSnappyOverlappingCopy(t *testing.T) {
	// "aaaa..." forces overlapping copies (offset < length).
	data := bytes.Repeat([]byte{'a'}, 1000)
	enc, _ := Encode(Snappy, data)
	dec, err := Decode(Snappy, enc)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("overlap round trip failed: %v", err)
	}
}

func TestParseCodecAndString(t *testing.T) {
	for _, c := range Codecs() {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCodec("lz77-magic"); err == nil {
		t.Error("unknown codec must fail")
	}
	if c, err := ParseCodec(""); err != nil || c != None {
		t.Error("empty codec name must mean None")
	}
	if Codec(99).String() == "" {
		t.Error("unknown codec String empty")
	}
}

func TestCostModelsOrdering(t *testing.T) {
	if !(DecompressCostPerByte(Snappy) < DecompressCostPerByte(Zstd) &&
		DecompressCostPerByte(Zstd) < DecompressCostPerByte(Gzip)) {
		t.Error("decompress cost ordering must be snappy < zstd < gzip")
	}
	if DecompressCostPerByte(None) != 0 {
		t.Error("None codec must be free")
	}
	if DecompressCostPerByte(Codec(99)) <= 0 {
		t.Error("unknown codec cost default wrong")
	}
}

func TestDecodeUnknownCodec(t *testing.T) {
	if _, err := Encode(Codec(42), nil); err == nil {
		t.Error("encode with unknown codec must fail")
	}
	if _, err := Decode(Codec(42), nil); err == nil {
		t.Error("decode with unknown codec must fail")
	}
}

// FuzzSnappyDecode feeds the block decoder arbitrary bytes: it may reject
// them but must not panic, must not produce (or allocate for) more than
// snappyMaxExpansion × the input, and whatever it accepts is exactly as
// long as the header declared. The same bytes taken as plain data must
// survive Encode → Decode.
func FuzzSnappyDecode(f *testing.F) {
	for _, data := range sampleInputs() {
		enc, _ := Encode(Snappy, data)
		f.Add(enc)
	}
	for _, c := range corruptSnappyInputs() {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if out, err := Decode(Snappy, in); err == nil {
			declared, _ := binary.Uvarint(in)
			if uint64(len(out)) != declared {
				t.Fatalf("decoded %d bytes, header declares %d", len(out), declared)
			}
			if len(out) > snappyMaxExpansion*len(in) {
				t.Fatalf("%d input bytes decoded to %d", len(in), len(out))
			}
			app, err := DecodeAppend(Snappy, in, []byte{'x'}, math.MaxInt)
			if err != nil || !bytes.Equal(app[1:], out) || app[0] != 'x' {
				t.Fatalf("DecodeAppend disagrees with Decode: %v", err)
			}
		}
		enc, err := Encode(Snappy, in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(Snappy, enc)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("round trip of %d bytes failed: %v", len(in), err)
		}
	})
}

// Property: snappy round-trips arbitrary byte strings.
func TestQuickSnappyRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		enc, err := Encode(Snappy, data)
		if err != nil {
			return false
		}
		dec, err := Decode(Snappy, enc)
		return err == nil && bytes.Equal(dec, data)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: all codecs round-trip highly structured input (runs).
func TestQuickAllCodecsRuns(t *testing.T) {
	f := func(b byte, n uint16) bool {
		data := bytes.Repeat([]byte{b}, int(n)%5000)
		for _, c := range Codecs() {
			enc, err := Encode(c, data)
			if err != nil {
				return false
			}
			dec, err := Decode(c, enc)
			if err != nil || !bytes.Equal(dec, data) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkSnappyEncode(b *testing.B) {
	data := sampleInputs()["lowentropy"]
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Encode(Snappy, data); err != nil {
			b.Fatal(err)
		}
	}
}

// quantisedFloatChunk is a parquetlite plain Float64 column chunk (u32
// row count, all-valid bitmap, little-endian values) of 4096 values
// rounded to 1/1000 — the shape of the generated Laghos/Deep Water/TPC-H
// columns the storage node decompresses: eight-byte words whose exponent
// bytes repeat and whose low mantissa bytes do not, so Snappy emits many
// short literals and short copies (ratio ≈ 0.6), nothing like the
// four-symbol "lowentropy" sample.
func quantisedFloatChunk() []byte {
	const n = 4096
	rnd := rand.New(rand.NewSource(11))
	out := binary.LittleEndian.AppendUint32(nil, n)
	out = append(out, bytes.Repeat([]byte{0xff}, n/8)...)
	for i := 0; i < n; i++ {
		v := math.Round((1+rnd.Float64())*1e3) / 1e3
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// BenchmarkSnappyDecode decodes into a reused buffer, as
// parquetlite.ReadColumn does with its pooled scratch.
func BenchmarkSnappyDecode(b *testing.B) {
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"lowentropy", sampleInputs()["lowentropy"]},
		{"quantised_floats", quantisedFloatChunk()},
	} {
		b.Run(in.name, func(b *testing.B) {
			enc, _ := Encode(Snappy, in.data)
			buf := make([]byte, 0, len(in.data))
			b.SetBytes(int64(len(in.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeAppend(Snappy, enc, buf, math.MaxInt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
