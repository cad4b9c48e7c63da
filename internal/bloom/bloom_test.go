package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// expectedFPR is the textbook rate for a filter of m bits and k probes
// holding n keys: (1 − e^(−kn/m))^k.
func expectedFPR(f *Filter, n int) float64 {
	return math.Pow(1-math.Exp(-float64(f.k)*float64(n)/float64(f.m)), float64(f.k))
}

// TestFalsePositiveRateMatchesSizing holds New's sizing to its formula at
// the three scales the join uses it at: a small build side, the
// benchmark's Q3 build side (≈ 38 k orders) and a large one. Keys are the
// even integers, probes the odd ones, so every hit is a false positive.
func TestFalsePositiveRateMatchesSizing(t *testing.T) {
	for _, n := range []int{1_000, 38_000, 1_000_000} {
		f := New(n, DefaultBitsPerKey)
		for i := 0; i < n; i++ {
			f.AddHash(HashInt64(int64(2 * i)))
		}
		const probes = 400_000
		hits := 0
		for i := 0; i < probes; i++ {
			if f.TestHash(HashInt64(int64(2*i + 1))) {
				hits++
			}
		}
		got, want := float64(hits)/probes, expectedFPR(f, n)
		if got > 2*want || got < want/2 {
			t.Errorf("%d keys: false-positive rate %.5f, sizing formula says %.5f (k=%d, %d bits)", n, got, want, f.k, f.m)
		}
		for i := 0; i < n; i += 1 + n/1000 {
			if !f.TestHash(HashInt64(int64(2 * i))) {
				t.Fatalf("%d keys: member %d not found", n, 2*i)
			}
		}
	}
}

// keyVectors is one build-side vector per key kind, each holding the
// values whose encoding the two sides must agree on — NaN in two bit
// patterns, both zeros, the empty string — and a NULL.
func keyVectors() []*column.Vector {
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vector := func(k types.Kind, vals ...types.Value) *column.Vector {
		v := column.NewVector(k)
		for _, val := range append(vals, types.NullValue(k)) {
			v.Append(val)
		}
		return v
	}
	ints := vector(types.Int64, types.IntValue(0), types.IntValue(-1), types.IntValue(1),
		types.IntValue(math.MinInt64), types.IntValue(math.MaxInt64), types.IntValue(38_000))
	dates := vector(types.Date, types.DateValue(0), types.DateValue(8766), types.DateValue(-365))
	floats := vector(types.Float64, types.FloatValue(0), types.FloatValue(math.Copysign(0, -1)), types.FloatValue(1.5),
		types.FloatValue(math.Inf(1)), types.FloatValue(math.Inf(-1)), types.FloatValue(math.NaN()), types.FloatValue(otherNaN))
	strs := vector(types.String, types.StringValue(""), types.StringValue("a"), types.StringValue("1-URGENT"),
		types.StringValue("tag0"), types.StringValue("\x00"))
	return []*column.Vector{ints, dates, floats, strs}
}

// TestEngineAndStorageSidesAgree: what AddVector hashes in on the engine
// side, TestVector finds on the storage side — through the wire form —
// for every key kind; a NULL key is neither added nor ever passed. No
// false negatives, with or without a selection.
func TestEngineAndStorageSidesAgree(t *testing.T) {
	for _, vec := range keyVectors() {
		engine := New(vec.Len(), DefaultBitsPerKey)
		if err := engine.AddVector(vec); err != nil {
			t.Fatalf("%s: %v", vec.Kind, err)
		}
		storage, err := FromBits(engine.Bits(), engine.NumHash(), engine.Lo())
		if err != nil {
			t.Fatalf("%s: %v", vec.Kind, err)
		}
		nonNull := vec.Len() - 1 // the last row is the NULL
		kept, err := storage.TestVector(vec, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", vec.Kind, err)
		}
		if len(kept) != nonNull {
			t.Errorf("%s: %d of %d added keys pass (rows %v); the NULL must not, every other must", vec.Kind, len(kept), nonNull, kept)
		}
		for i, row := range kept {
			if row != i {
				t.Errorf("%s: survivors %v are not rows 0..%d in order", vec.Kind, kept, nonNull-1)
				break
			}
		}
		sel := []int{vec.Len() - 1, 0}
		if kept, _ = storage.TestVector(vec, sel, nil); len(kept) != 1 || kept[0] != 0 {
			t.Errorf("%s: selection %v kept %v, want [0]", vec.Kind, sel, kept)
		}
	}

	// A NaN added in one bit pattern is found in another (the join's key
	// encoding canonicalises NaN); −0.0 and +0.0 hash apart, as they join
	// apart.
	if HashFloat64(math.NaN()) != HashFloat64(math.Float64frombits(math.Float64bits(math.NaN())^1)) {
		t.Error("NaN bit patterns hash differently")
	}
	if HashFloat64(0) == HashFloat64(math.Copysign(0, -1)) {
		t.Error("+0.0 and -0.0 hash alike, but the hash join keeps them apart")
	}
	// Date keys share the integer encoding.
	dates := column.NewVector(types.Date)
	dates.Append(types.DateValue(8766))
	f := New(1, DefaultBitsPerKey)
	if err := f.AddVector(dates); err != nil {
		t.Fatal(err)
	}
	if !f.TestHash(HashInt64(8766)) {
		t.Error("a Date key is not found under its integer value")
	}
	if err := f.AddVector(&column.Vector{Kind: types.Unknown}); err == nil {
		t.Error("AddVector accepted an unsupported key kind")
	}
	if _, err := f.TestVector(&column.Vector{Kind: types.Unknown}, nil, nil); err == nil {
		t.Error("TestVector accepted an unsupported key kind")
	}
}

// TestDictionaryVectorsAgreeWithPlain: a string key vector in dictionary
// form — its NULL row coded to an entry no other row holds, one entry no
// row uses — sets exactly the bits its plain form sets, and keeps the
// same rows under every selection.
func TestDictionaryVectorsAgreeWithPlain(t *testing.T) {
	plain := keyVectors()[3] // "", "a", "1-URGENT", "tag0", "\x00", NULL
	dict := &column.Vector{
		Kind:  types.String,
		Nulls: plain.Nulls,
		Dict:  []string{"tag0", "unused", "", "\x00", "null row", "a", "1-URGENT"},
		Codes: []int32{2, 5, 6, 0, 3, 4},
	}
	fromPlain, fromDict := New(8, DefaultBitsPerKey), New(8, DefaultBitsPerKey)
	if err := fromPlain.AddVector(plain); err != nil {
		t.Fatal(err)
	}
	if err := fromDict.AddVector(dict); err != nil {
		t.Fatal(err)
	}
	if string(fromPlain.Bits()) != string(fromDict.Bits()) {
		t.Fatal("the dictionary form set other bits than the plain form")
	}
	// A filter holding one key passes other rows by false positive only.
	one := New(1, DefaultBitsPerKey)
	one.AddHash(HashString("a"))
	for _, f := range []*Filter{fromPlain, one} {
		for _, sel := range [][]int{nil, {5, 1, 3}, {}} {
			want, _ := f.TestVector(plain, sel, nil)
			got, err := f.TestVector(dict, sel, nil)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("selection %v: dictionary form kept %v (%v), plain form %v", sel, got, err, want)
			}
		}
	}
}

// TestEmptyBuildSideRejectsEverything: a filter over zero keys still has
// a word of (zero) bits, so every probe row is dropped.
func TestEmptyBuildSideRejectsEverything(t *testing.T) {
	f := New(0, DefaultBitsPerKey)
	if f.SizeBytes() != 8 {
		t.Fatalf("empty filter is %d bytes, want one word", f.SizeBytes())
	}
	for _, vec := range keyVectors() {
		if kept, _ := f.TestVector(vec, nil, nil); len(kept) != 0 {
			t.Errorf("%s: empty filter passed rows %v", vec.Kind, kept)
		}
	}
}

// TestFromBitsValidatesWithoutCopying: the storage node builds its filter
// over the bytes that came off the wire. Shapes neither New nor NewDirect
// can have produced are rejected, and an accepted one allocates the
// Filter header only.
func TestFromBitsValidatesWithoutCopying(t *testing.T) {
	word := make([]byte, 8)
	for name, tc := range map[string]struct {
		bits []byte
		k    int
	}{
		"nil bits":       {nil, 4},
		"empty bits":     {[]byte{}, 4},
		"negative":       {word, -1},
		"too many":       {word, 17},
		"half a word":    {make([]byte, 4), 4},
		"word and a bit": {make([]byte, 9), 4},
	} {
		if f, err := FromBits(tc.bits, tc.k, 0); err == nil {
			t.Errorf("%s: accepted (%d bytes, k=%d) as %+v", name, len(tc.bits), tc.k, f)
		}
	}
	for _, n := range []int{0, 1, 7, 1_000, 38_000} {
		if size := New(n, DefaultBitsPerKey).SizeBytes(); size%8 != 0 {
			t.Errorf("New(%d) is %d bytes: not what FromBits accepts", n, size)
		}
	}

	if f, err := FromBits(word, 0, -5); err != nil || f.NumHash() != 0 || f.Lo() != -5 {
		t.Errorf("a one-word direct filter from -5 is refused or misread: %v, %+v", err, f)
	}

	bits := make([]byte, 1<<16)
	f, err := FromBits(bits, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Bits()[0] != &bits[0] || f.SizeBytes() != len(bits) || f.NumHash() != 7 {
		t.Error("FromBits must wrap the input bytes, not copy them")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FromBits(bits, 7, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("FromBits allocates %.0f times for a %d-byte input, want the header only", allocs, len(bits))
	}
}

// TestNilSelectionIsEveryRow: TestVector under a nil selection answers as
// under the selection that lists every row, appends after what out already
// holds, and — the page-sized identity selection it used to build being
// gone — allocates nothing when out has room.
func TestNilSelectionIsEveryRow(t *testing.T) {
	bools := column.NewVector(types.Bool)
	for _, v := range []types.Value{types.BoolValue(true), types.BoolValue(false), types.NullValue(types.Bool)} {
		bools.Append(v)
	}
	for _, vec := range append(keyVectors(), bools) {
		// Half of the values are members, so both outcomes occur.
		f := New(vec.Len(), DefaultBitsPerKey)
		if err := f.AddVector(vec.Window(0, vec.Len()/2)); err != nil {
			t.Fatal(err)
		}
		every := make([]int, vec.Len())
		for i := range every {
			every[i] = i
		}
		want, err := f.TestVector(vec, every, []int{-7})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.TestVector(vec, nil, []int{-7})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || got[0] != -7 {
			t.Fatalf("%s: nil selection kept %v, every-row selection %v", vec.Kind, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: nil selection kept %v, every-row selection %v", vec.Kind, got, want)
			}
		}
		if len(got) == 1 || len(got) == 1+vec.Len() {
			t.Errorf("%s: %d of %d rows pass; the case is meant to have members and non-members", vec.Kind, len(got)-1, vec.Len())
		}
		out := make([]int, 0, vec.Len())
		if allocs := testing.AllocsPerRun(20, func() { f.TestVector(vec, nil, out) }); allocs != 0 {
			t.Errorf("%s: TestVector under a nil selection allocates %.0f times per call", vec.Kind, allocs)
		}
	}
}

// TestNewStaysUnderTheCap: however large the build side, New allocates at
// most MaxBytes, with the hash count taken from the bits per key it could
// afford; below the cap it sizes at bitsPerKey as before. CheckShape —
// and so FromBits — takes a MaxBytes array and refuses one word more.
func TestNewStaysUnderTheCap(t *testing.T) {
	big := New(1_000_000, DefaultBitsPerKey)
	if big.SizeBytes() > MaxBytes {
		t.Errorf("New(1M) is %d bytes, cap %d", big.SizeBytes(), MaxBytes)
	}
	// 2.10 bits per key: k = ln2 · 2.10 rounds down to 1.
	if big.NumHash() != 1 {
		t.Errorf("New(1M) probes %d times, want 1 for %.2f bits per key", big.NumHash(), float64(MaxBytes*8)/1_000_000)
	}
	small := New(38_000, DefaultBitsPerKey)
	if small.SizeBytes() != (38_000*DefaultBitsPerKey+63)/64*8 || small.NumHash() != 6 {
		t.Errorf("New(38k) is %d bytes, k=%d; want %d bits per key and k=6", small.SizeBytes(), small.NumHash(), DefaultBitsPerKey)
	}
	if _, err := FromBits(make([]byte, MaxBytes), 4, 0); err != nil {
		t.Errorf("a cap-sized array is refused: %v", err)
	}
	if _, err := FromBits(make([]byte, MaxBytes+8), 4, 0); err == nil {
		t.Error("an array one word over the cap is accepted")
	}
}

// TestZeroHashProbesLikeAnyOtherValue: 0 is mix's fixed point, so Int64
// and Date 0, Float64 +0.0 and Bool false all hash to 0 — TPC-H's first
// orderkey among them. Over 200 seeds, a filter of 1,000 random keys
// without such a value passes them at about its false-positive rate, as
// it passes any other absent value, not whenever one bit happens to be
// set.
func TestZeroHashProbesLikeAnyOtherValue(t *testing.T) {
	if HashInt64(0) != 0 || HashFloat64(0) != 0 || HashBool(false) != 0 {
		t.Fatal("the zero values no longer hash to 0")
	}
	const seeds, n = 200, 1_000
	zeroHits := 0
	var fpr float64
	for seed := uint64(1); seed <= seeds; seed++ {
		f := New(n, DefaultBitsPerKey)
		x := seed
		for i := 0; i < n; i++ {
			x = mix(x + 0x9e3779b97f4a7c15)
			if x == 0 {
				continue
			}
			f.AddHash(HashInt64(int64(x)))
		}
		if f.TestHash(HashInt64(0)) {
			zeroHits++
		}
		fpr += expectedFPR(f, n) / seeds
	}
	t.Logf("a zero-hash value passed %d of %d filters without it (false-positive rate %.4f)", zeroHits, seeds, fpr)
	// The expected count is ~1.7; 10 is far in its tail.
	if zeroHits > 10 {
		t.Errorf("a zero-hash value passed %d of %d filters without it; the false-positive rate is %.4f", zeroHits, seeds, fpr)
	}
}

// TestNonzeroHashesKeepTheirBits pins the bit array of a filter that
// neither holds nor probes a zero-hash value: the stand-in probes for 0
// moved no other value's bits.
func TestNonzeroHashesKeepTheirBits(t *testing.T) {
	f := New(1_000, DefaultBitsPerKey)
	for i := 1; i <= 1_000; i++ {
		f.AddHash(HashInt64(int64(i)))
		f.AddHash(HashFloat64(float64(i) / 8))
		f.AddHash(HashString(fmt.Sprint("key-", i)))
	}
	sum := uint64(fnvOffset64)
	for _, b := range f.Bits() {
		sum = (sum ^ uint64(b)) * fnvPrime64
	}
	if want := uint64(0x77ea9709f68f1047); sum != want {
		t.Errorf("bit array checksum = %#x, want %#x", sum, want)
	}
}

// TestDirectFormIsExact: a direct filter passes exactly the keys added to
// it, through the wire form, under every selection; a NULL never passes;
// offsets are taken in uint64, so keys on the far side of int64 from lo
// miss rather than wrap into range; it refuses keys outside its range and
// kinds it cannot serve; and it is as large as its span, in whole words.
func TestDirectFormIsExact(t *testing.T) {
	for _, lo := range []int64{-40, 0, math.MaxInt64 - 99, math.MinInt64} {
		engine := NewDirect(lo, lo+99)
		if engine.NumHash() != 0 || engine.Lo() != lo || engine.SizeBytes() != 16 {
			t.Fatalf("NewDirect(%d, %d): k=%d lo=%d %d bytes, want k=0 from lo over two words", lo, lo+99, engine.NumHash(), engine.Lo(), engine.SizeBytes())
		}
		keys, probe := column.NewVector(types.Int64), column.NewVector(types.Int64)
		for off := int64(0); off < 100; off += 3 {
			keys.Append(types.IntValue(lo + off))
		}
		keys.Append(types.NullValue(types.Int64))
		if err := engine.AddVector(keys); err != nil {
			t.Fatal(err)
		}
		storage, err := FromBits(engine.Bits(), engine.NumHash(), engine.Lo())
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, v := range []int64{lo - 1, lo, lo + 1, lo + 99, lo + 100, lo + 127, lo + 128, math.MinInt64, math.MaxInt64, 0} {
			if off := uint64(v) - uint64(lo); off < 100 && off%3 == 0 {
				want = append(want, probe.Len())
			}
			probe.Append(types.IntValue(v))
		}
		probe.Append(types.NullValue(types.Int64))
		for _, sel := range [][]int{nil, {}, {0, 1, 3, 8, 10}} {
			got, err := storage.TestVector(probe, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			var selected []int
			for _, row := range want {
				if sel == nil || slices.Contains(sel, row) {
					selected = append(selected, row)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(selected) {
				t.Errorf("lo %d, selection %v: kept rows %v, the members are at %v", lo, sel, got, selected)
			}
		}
		outside := column.NewVector(types.Int64)
		outside.Append(types.IntValue(lo + 128))
		if err := engine.AddVector(outside); err == nil {
			t.Errorf("lo %d: a key past the range is added", lo)
		}
	}
	f := NewDirect(0, 63)
	for _, vec := range keyVectors()[2:] { // DOUBLE and VARCHAR
		if err := f.AddVector(vec); err == nil {
			t.Errorf("a direct filter adds %s keys", vec.Kind)
		}
		if _, err := f.TestVector(vec, nil, nil); err == nil {
			t.Errorf("a direct filter tests %s keys", vec.Kind)
		}
	}
	for _, n := range []int{0, 7, 38_000, 1_000_000} {
		if got, want := SizeBits(n, DefaultBitsPerKey), uint64(New(n, DefaultBitsPerKey).SizeBytes())*8; got != want {
			t.Errorf("SizeBits(%d) = %d, New allocates %d bits", n, got, want)
		}
	}
}

// BenchmarkTestVector tests one page of Q3's probe shape against each
// form of the filter: 16,384 BIGINT keys drawn over a span of 131,072,
// of which a build side holds 29 % (orders before the date cut).
func BenchmarkTestVector(b *testing.B) {
	const span, page = 131_072, 16_384
	rnd := rand.New(rand.NewSource(1))
	build := column.NewVector(types.Int64)
	for k := int64(1); k <= span; k++ {
		if rnd.Intn(100) < 29 {
			build.Append(types.IntValue(k))
		}
	}
	probe := column.NewVector(types.Int64)
	for range page {
		probe.Append(types.IntValue(1 + rnd.Int63n(span)))
	}
	for _, tc := range []struct {
		name   string
		filter *Filter
	}{
		{"hashed", New(build.Len(), DefaultBitsPerKey)},
		{"direct", NewDirect(1, span)},
	} {
		if err := tc.filter.AddVector(build); err != nil {
			b.Fatal(err)
		}
		out := make([]int, 0, page)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _ = tc.filter.TestVector(probe, nil, out[:0])
			}
			b.ReportMetric(float64(len(out))/page, "kept/row")
		})
	}
}
