package metastore

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"prestocs/internal/types"
)

// sketchCatalog is a one-table catalog whose one column stores in as its
// table sketch.
func sketchCatalog(in []byte) []byte {
	return fmt.Appendf(nil, `[{"schema":"s","name":"t","columns":{"Columns":[{"Name":"c","Type":1}]},`+
		`"column_stats":{"c":{"ndv":0,"sketch":%q}}}]`, base64.StdEncoding.EncodeToString(in))
}

// sketchAllocBound is the most heap decoding a one-table catalog whose
// sketch is n bytes may take: the decoded registers, rounded up to a size
// class, beside the table, its schema and maps. Measured: 1,392 bytes for
// an empty sketch, n + 1,520 for 1024 registers with one rank too high,
// 1.15 n + 1,400 for 64 KiB; under the race detector 16 to 32 bytes more.
func sketchAllocBound(n int) uint64 { return uint64(n+n/4) + 3<<10 }

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

// FuzzColumnSketch: a sketch read from a catalog file is hostile bytes.
// Load accepts exactly the sketches Add and merge can produce — 1024
// registers, none above sketchMaxRank — and rejects the rest; decoding
// allocates within sketchAllocBound whatever the verdict; and an accepted
// sketch estimates a count between zero and math.MaxInt64.
func FuzzColumnSketch(f *testing.F) {
	hundred := NewSketch()
	for i := range 100 {
		hundred.Add(types.IntValue(int64(i)))
	}
	high := slices.Clone(hundred)
	high[7] = sketchMaxRank + 1
	f.Add([]byte(hundred))
	f.Add([]byte(NewSketch()))
	f.Add(bytes.Repeat([]byte{sketchMaxRank}, sketchRegisters))
	f.Add([]byte(high))
	f.Add([]byte{})
	f.Add([]byte(hundred[:100]))
	f.Add(append([]byte(hundred), 0))
	f.Fuzz(func(t *testing.T, in []byte) {
		doc := sketchCatalog(in)
		tables, err := decodeCatalog(doc)
		if got, bound := leastAlloc(func() { _, _ = decodeCatalog(doc) }), sketchAllocBound(len(in)); got > bound {
			t.Fatalf("a %d-byte sketch allocated %d bytes to decode, bound %d (err %v)", len(in), got, bound, err)
		}
		producible := len(in) == sketchRegisters && !slices.ContainsFunc(in, func(r byte) bool { return r > sketchMaxRank })
		if (err == nil) != producible {
			t.Fatalf("a %d-byte sketch decoded with err %v; producible %v", len(in), err, producible)
		}
		if err != nil {
			return
		}
		if n := tables[0].ColumnStats["c"].Sketch.Estimate(); n < 0 {
			t.Fatalf("sketch estimates %d", n)
		}
	})
}
