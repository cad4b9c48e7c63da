package metastore

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Sketch is a HyperLogLog sketch of a column's distinct non-NULL values
// (Flajolet et al., 2007): sketchRegisters one-byte registers, each the
// highest rank among the hashes that index it, for a standard error of
// 1.04/√1024 ≈ 3.25 %. Up to 2.5 values a register it reads by linear
// counting, so a handful of values reads exact unless two share a
// register. Two sketches merge by register-wise max into the sketch of
// the union of their values, however the values were split or ordered.
//
// A value is keyed by type and never formatted: Int64, Date and Bool by
// the integer, Float64 by its bit pattern with every NaN folded into one
// (so -0 and +0 are two values, as they print differently), String by its
// bytes — the join bloom filter's value hash, which is fixed and seedless:
// sketches are saved in the catalog and merged across processes, so the
// same values give the same bytes everywhere.
type Sketch []byte

const (
	sketchBits      = 10
	sketchRegisters = 1 << sketchBits
	// sketchMaxRank is the highest rank a register can hold: that of a
	// hash whose 64 − sketchBits bits below the index are all zero.
	sketchMaxRank = 64 - sketchBits + 1
)

// NewSketch returns the sketch of no values.
func NewSketch() Sketch { return make(Sketch, sketchRegisters) }

// Add adds one value; a NULL adds nothing.
func (s Sketch) Add(v types.Value) {
	switch {
	case v.Null:
	case v.Kind == types.String:
		s.addHash(bloom.HashString(v.S))
	case v.Kind == types.Float64:
		s.addHash(bloom.HashFloat64(v.F))
	case v.Kind == types.Bool:
		s.addHash(bloom.HashBool(v.B))
	default:
		s.addHash(bloom.HashInt64(v.I))
	}
}

// AddVector adds every non-NULL value of the vector.
func (s Sketch) AddVector(vec *column.Vector) {
	_ = bloom.EachHash(vec, s.addHash) // it refuses only kinds no schema holds
}

// addHash records one hash: its top sketchBits bits pick the register,
// and the rank is one more than the leading zeros of the rest.
func (s Sketch) addHash(h uint64) {
	rank := byte(bits.LeadingZeros64(h<<sketchBits|1<<(sketchBits-1))) + 1
	if i := h >> (64 - sketchBits); rank > s[i] {
		s[i] = rank
	}
}

// merge makes s the sketch of its values and o's; a nil o adds nothing.
func (s Sketch) merge(o Sketch) {
	for i, r := range o {
		s[i] = max(s[i], r)
	}
}

// Estimate reports the number of distinct values added, at most 2⁶². Its
// registers must be ranks Add can set, as Load checks of a stored sketch.
func (s Sketch) Estimate() int64 {
	var ranks [sketchMaxRank + 1]int // registers per rank
	for _, r := range s {
		ranks[r]++
	}
	sum := 0.0
	for r, n := range ranks {
		sum += math.Ldexp(float64(n), -r)
	}
	m, zeros := float64(len(s)), float64(ranks[0])
	e := 0.7213 / (1 + 1.079/m) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/zeros)
	}
	return int64(min(math.Round(e), 1<<62)) // every register at sketchMaxRank reads 2.7e19
}

// check rejects a sketch that Add and merge cannot have produced.
func (s Sketch) check() error {
	if len(s) != sketchRegisters || slices.Max(s) > sketchMaxRank {
		return fmt.Errorf("sketch is not %d registers of rank at most %d", sketchRegisters, sketchMaxRank)
	}
	return nil
}
