package bloom

import (
	"math"
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
		storage, err := FromBits(engine.Bits(), engine.NumHash())
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
// over the bytes that came off the wire. Shapes New cannot have produced
// are rejected, and an accepted one allocates the Filter header only.
func TestFromBitsValidatesWithoutCopying(t *testing.T) {
	word := make([]byte, 8)
	for name, tc := range map[string]struct {
		bits []byte
		k    int
	}{
		"nil bits":       {nil, 4},
		"empty bits":     {[]byte{}, 4},
		"zero hashes":    {word, 0},
		"negative":       {word, -1},
		"too many":       {word, 17},
		"half a word":    {make([]byte, 4), 4},
		"word and a bit": {make([]byte, 9), 4},
	} {
		if f, err := FromBits(tc.bits, tc.k); err == nil {
			t.Errorf("%s: accepted (%d bytes, k=%d) as %+v", name, len(tc.bits), tc.k, f)
		}
	}
	for _, n := range []int{0, 1, 7, 1_000, 38_000} {
		if size := New(n, DefaultBitsPerKey).SizeBytes(); size%8 != 0 {
			t.Errorf("New(%d) is %d bytes: not what FromBits accepts", n, size)
		}
	}

	bits := make([]byte, 1<<16)
	f, err := FromBits(bits, 7)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Bits()[0] != &bits[0] || f.SizeBytes() != len(bits) || f.NumHash() != 7 {
		t.Error("FromBits must wrap the input bytes, not copy them")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FromBits(bits, 7); err != nil {
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
