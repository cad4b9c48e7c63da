package exec

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Build-key ops of FuzzJoinFilterForms, one byte each: the low two bits
// pick the op and the other six are its argument a.
const (
	keyNull = iota // a NULL key
	keyStep        // the previous key + a: a dense run, a duplicate when a = 0
	keyDown        // the previous key − a³: dense (a = 1) or sparse keys, soon negative
	keyRaw         // the next 8 bytes as a key; MinInt64 (a even) or MaxInt64 (a odd) when fewer remain
)

// maxBuildOps bounds the build side a fuzz input decodes to, and
// buildPageRows cuts it into pages, so that a direct key table grows as
// the pages arrive.
const maxBuildOps, buildPageRows = 4096, 64

// joinFilterKeys decodes a fuzz input into a build-key vector: byte 0's
// bit 0 picks DATE over BIGINT, and every other byte is one key op.
func joinFilterKeys(in []byte) *column.Vector {
	kind := types.Int64
	if len(in) > 0 && in[0]&1 != 0 {
		kind = types.Date
	}
	keys := column.NewVector(kind)
	prev := int64(0)
	for i, ops := 1, 0; i < len(in) && ops < maxBuildOps; i, ops = i+1, ops+1 {
		op, a := in[i]&3, int64(in[i]>>2)
		switch op {
		case keyNull:
			keys.Append(types.NullValue(kind))
			continue
		case keyStep:
			prev += a
		case keyDown:
			prev -= a * a * a
		case keyRaw:
			switch {
			case i+8 < len(in):
				prev = int64(binary.LittleEndian.Uint64(in[i+1:]))
				i += 8
			case a%2 == 0:
				prev = math.MinInt64
			default:
				prev = math.MaxInt64
			}
		}
		keys.Append(types.Value{Kind: kind, I: prev})
	}
	return keys
}

// FuzzJoinFilterForms holds the join's bloom filter to its contract on
// any BIGINT or DATE build side — dense, sparse, negative, at the ends of
// int64, with duplicates and NULLs: BuildBloom picks the direct form
// exactly when the keys' span hi − lo + 1 is no more bits than the
// hashed filter for as many keys would take; the filter survives the
// Substrait round trip and FromBits as it was built; and TestVector over
// probes around and between the keys, under a nil, an empty and a sparse
// selection, never rejects a build key and, in the direct form, passes
// exactly the build keys.
func FuzzJoinFilterForms(f *testing.F) {
	raw := func(k int64) []byte { return binary.LittleEndian.AppendUint64([]byte{keyRaw}, uint64(k)) }
	step := func(a byte) byte { return keyStep | a<<2 }
	dense := bytes.Repeat([]byte{step(1)}, 300)
	f.Add(slices.Concat([]byte{0}, raw(1), dense))                                              // Q3's shape: dense from 1
	f.Add(slices.Concat([]byte{1}, raw(8000), dense, []byte{keyNull, step(0), step(0)}))        // dates, NULLs, duplicates
	f.Add(slices.Concat([]byte{0}, raw(-70), dense))                                            // negative to positive
	f.Add(slices.Concat([]byte{0}, raw(1000), bytes.Repeat([]byte{keyDown | 1<<2}, 300)))       // dense, descending
	f.Add(slices.Concat([]byte{0}, bytes.Repeat([]byte{keyDown | 40<<2}, 40)))                  // sparse, negative
	f.Add(slices.Concat([]byte{0}, raw(1), bytes.Repeat([]byte{step(1), step(63)}, 100)))       // half-dense: hashed
	f.Add(slices.Concat([]byte{0}, raw(math.MaxInt64-100), bytes.Repeat([]byte{step(1)}, 100))) // dense to MaxInt64
	f.Add(slices.Concat([]byte{1}, []byte{keyRaw}, bytes.Repeat([]byte{step(2)}, 50)))          // dense from MinInt64
	// Seven keys get a hashed filter of 128 bits: a span of 128 is direct,
	// one of 129 is not.
	f.Add(slices.Concat([]byte{0, step(0)}, bytes.Repeat([]byte{step(1)}, 5), raw(127)))
	f.Add(slices.Concat([]byte{0, step(0)}, bytes.Repeat([]byte{step(1)}, 5), raw(128)))
	f.Add([]byte{0, keyRaw, keyRaw | 1<<2}) // MinInt64 and MaxInt64
	f.Add([]byte{0, keyNull, keyNull})      // NULL keys only
	f.Add([]byte{0})                        // no keys

	f.Fuzz(checkJoinFilterForms)
}

// checkJoinFilterForms is FuzzJoinFilterForms on one input.
func checkJoinFilterForms(t *testing.T, in []byte) {
	keys := joinFilterKeys(in)
	schema := types.NewSchema(types.Column{Name: "k", Type: keys.Kind})
	var pages []*column.Page
	for at := 0; at < keys.Len(); at += buildPageRows {
		pages = append(pages, &column.Page{Schema: schema, Vectors: []*column.Vector{keys.Window(at, min(at+buildPageRows, keys.Len()))}})
	}
	var m Meter
	table, err := BuildJoinTable(NewPageSource(schema, pages), []int{0}, &m)
	if err != nil {
		t.Fatal(err)
	}
	built, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		t.Fatal(err)
	}

	// The span rule, from the keys themselves.
	members := map[int64]bool{}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, v := range keys.Ints {
		if keys.Nulls == nil || !keys.Nulls[i] {
			members[v] = true
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	hashedBits := uint64(bloom.New(table.Rows(), bloom.DefaultBitsPerKey).SizeBytes()) * 8
	wantDirect := len(members) > 0 && uint64(hi)-uint64(lo) < hashedBits
	if direct := built.NumHash() == 0; direct != wantDirect {
		t.Fatalf("%d keys over [%d, %d]: direct form %v, the span rule says %v (hashed filter %d bits)", len(members), lo, hi, direct, wantDirect, hashedBits)
	}
	if wantDirect && (built.Lo() != lo || uint64(built.SizeBytes())*8 > hashedBits) {
		t.Fatalf("direct filter from %d over %d bytes; want from %d, no larger than the hashed %d bits", built.Lo(), built.SizeBytes(), lo, hashedBits)
	}

	// Through the wire and back.
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: schema}
	wire, err := substrait.Marshal(substrait.NewPlan(&substrait.BloomFilterRel{Input: read, NumHash: built.NumHash(), Bits: built.Bits(), Lo: built.Lo()}))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := substrait.Unmarshal(wire)
	if err != nil {
		t.Fatalf("the decoder refuses the filter BuildBloom made: %v", err)
	}
	rel := plan.Root.(*substrait.BloomFilterRel)
	storage, err := bloom.FromBits(rel.Bits, rel.NumHash, rel.Lo)
	if err != nil {
		t.Fatal(err)
	}

	// Probes: every build key and its neighbours, the span's edges,
	// the ends of int64, values drawn over and near the span, NULLs.
	h := fnv.New64a()
	h.Write(in)
	rnd := rand.New(rand.NewSource(int64(h.Sum64())))
	probe := column.NewVector(keys.Kind)
	add := func(v int64) { probe.Append(types.Value{Kind: keys.Kind, I: v}) }
	sorted := make([]int64, 0, len(members))
	for v := range members {
		sorted = append(sorted, v)
	}
	slices.Sort(sorted) // so that a failing input replays
	for _, v := range sorted {
		add(v - 1)
		add(v)
		add(v + 1)
	}
	for _, v := range []int64{lo - 1, lo, hi, hi + 1, 0, math.MinInt64, math.MaxInt64} {
		add(v)
	}
	for range 64 {
		add(rnd.Int63() - rnd.Int63())
		add(lo + rnd.Int63n(int64(min(uint64(hi)-uint64(lo), 1<<40))+64) - 32)
		probe.Append(types.NullValue(keys.Kind))
	}
	every, sparse := make([]int, probe.Len()), []int{}
	for row := range every {
		every[row] = row
		if rnd.Intn(3) == 0 {
			sparse = append(sparse, row)
		}
	}
	for _, sel := range [][]int{nil, {}, sparse} {
		rows := sel
		if sel == nil {
			rows = every
		}
		var want []int // the selected rows holding a build key
		for _, row := range rows {
			if !probe.Nulls[row] && members[probe.Ints[row]] {
				want = append(want, row)
			}
		}
		engineSide, err := built.TestVector(probe, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := storage.TestVector(probe, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, engineSide) {
			t.Fatalf("selection %v: the round-tripped filter kept %v, the built one %v", sel, got, engineSide)
		}
		kept := map[int]bool{}
		for _, row := range got {
			kept[row] = true
			if probe.Nulls[row] {
				t.Fatalf("selection %v: a NULL key passed (row %d)", sel, row)
			}
		}
		for _, row := range want {
			if !kept[row] {
				t.Fatalf("selection %v: build key %d (row %d) rejected by the %s form", sel, probe.Ints[row], row, map[bool]string{true: "direct", false: "hashed"}[wantDirect])
			}
		}
		if wantDirect && !slices.Equal(got, want) {
			t.Fatalf("selection %v: the direct form kept rows %v, the build keys are at rows %v", sel, got, want)
		}
	}
}
