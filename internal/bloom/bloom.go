// Package bloom implements the compact bloom filter the engine builds
// over a join's build-side keys and pushes into the OCS scan of the
// probe side as an extra conjunct (the semi-join pushdown technique of
// PushdownDB and "Enhancing Computation Pushdown", PAPERS.md). The same
// value-hash runs on both sides of the wire: the engine hashes build-key
// vectors into the filter, the storage node hashes probe column vectors
// against it, so a bit mismatch can only mean the row cannot join.
//
// False positives are fine (the join re-checks every surviving row);
// false negatives are not, so HashInt64/HashFloat64/HashString follow
// exactly the value-equality rules of the exec hash join's key encoding
// (NaN canonicalized, -0.0 distinct from +0.0, strings hashed by raw
// bytes).
package bloom

import (
	"fmt"
	"math"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Filter is a standard bloom filter with double hashing. The zero value
// is not usable; construct with New or FromBits.
type Filter struct {
	bits []byte
	k    int
	m    uint64 // number of bits, a whole number of 64-bit words
}

// DefaultBitsPerKey (10 bits/key, ~1% false positives at k=7) matches
// the sizing used by LSM block filters.
const DefaultBitsPerKey = 10

// New sizes a filter for the expected number of distinct keys. Zero
// expected keys still allocates one word so an empty build side rejects
// every probe row.
func New(expectedKeys, bitsPerKey int) *Filter {
	if bitsPerKey <= 0 {
		bitsPerKey = DefaultBitsPerKey
	}
	nbits := uint64(expectedKeys) * uint64(bitsPerKey)
	if nbits < 64 {
		nbits = 64
	}
	nbits = (nbits + 63) &^ 63
	// k = ln2 * bits-per-key is the optimal hash count.
	k := int(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return &Filter{bits: make([]byte, nbits/8), k: k, m: nbits}
}

// FromBits reconstructs a filter from its wire form (the storage-node
// side of the pushdown) over bits itself — nothing is copied or sized from
// the input. New only ever produces whole 64-bit words, so anything else
// did not come from it.
func FromBits(bits []byte, numHash int) (*Filter, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("bloom: empty bit array")
	}
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("bloom: bit array of %d bytes is not a whole number of words", len(bits))
	}
	if numHash < 1 || numHash > 16 {
		return nil, fmt.Errorf("bloom: bad hash count %d", numHash)
	}
	return &Filter{bits: bits, k: numHash, m: uint64(len(bits)) * 8}, nil
}

// Bits returns the backing bit array (not a copy; wire encoding).
func (f *Filter) Bits() []byte { return f.bits }

// NumHash returns the double-hashing probe count.
func (f *Filter) NumHash() int { return f.k }

// SizeBytes returns the wire size of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) }

// AddHash sets the k bits derived from a value hash.
func (f *Filter) AddHash(h uint64) {
	h1, h2 := h, h>>33|h<<31|1 // h2 forced odd so probes cover the array
	for i := 0; i < f.k; i++ {
		bit := h1 % f.m
		f.bits[bit>>3] |= 1 << (bit & 7)
		h1 += h2
	}
}

// TestHash reports whether all k bits for a value hash are set.
func (f *Filter) TestHash(h uint64) bool {
	h1, h2 := h, h>>33|h<<31|1
	for i := 0; i < f.k; i++ {
		bit := h1 % f.m
		if f.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// mix is the splitmix64 finalizer: full-avalanche so consecutive keys
// (the common case for synthetic orderkeys) spread over the whole array.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashInt64 hashes an integer or date key value.
func HashInt64(v int64) uint64 { return mix(uint64(v)) }

// HashFloat64 hashes a float key value, canonicalizing NaN the way the
// join's group-key encoding does.
func HashFloat64(v float64) uint64 {
	if math.IsNaN(v) {
		v = math.NaN()
	}
	return mix(math.Float64bits(v))
}

// HashString hashes a string key value (FNV-1a then finalized).
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix(h)
}

// HashBool hashes a boolean key value.
func HashBool(v bool) uint64 {
	if v {
		return mix(1)
	}
	return mix(0)
}

// AddVector hashes every non-null value of a key vector into the
// filter, vectorized per kind.
func (f *Filter) AddVector(vec *column.Vector) error {
	nulls := vec.Nulls
	switch vec.Kind {
	case types.Int64, types.Date:
		for i, v := range vec.Ints {
			if nulls == nil || !nulls[i] {
				f.AddHash(HashInt64(v))
			}
		}
	case types.Float64:
		for i, v := range vec.Floats {
			if nulls == nil || !nulls[i] {
				f.AddHash(HashFloat64(v))
			}
		}
	case types.String:
		for i, v := range vec.Strings {
			if nulls == nil || !nulls[i] {
				f.AddHash(HashString(v))
			}
		}
	case types.Bool:
		for i, v := range vec.Bools {
			if nulls == nil || !nulls[i] {
				f.AddHash(HashBool(v))
			}
		}
	default:
		return fmt.Errorf("bloom: unsupported key kind %s", vec.Kind)
	}
	return nil
}

// TestVector filters sel (or all rows when sel is nil) down to the rows
// whose value might be in the filter, appending survivors to out. NULL
// key values never pass: an inner equi-join cannot match them. The kind
// dispatch is hoisted out of the row loop (one kernel per kind); what is
// left in it, beside the hashing, is the choice between a position and
// the selection's row at it.
func (f *Filter) TestVector(vec *column.Vector, sel []int, out []int) ([]int, error) {
	nulls := vec.Nulls
	n := vec.Len()
	if sel != nil {
		n = len(sel)
	}
	rowAt := func(i int) int {
		if sel != nil {
			return sel[i]
		}
		return i
	}
	switch vec.Kind {
	case types.Int64, types.Date:
		for i := 0; i < n; i++ {
			row := rowAt(i)
			if (nulls == nil || !nulls[row]) && f.TestHash(HashInt64(vec.Ints[row])) {
				out = append(out, row)
			}
		}
	case types.Float64:
		for i := 0; i < n; i++ {
			row := rowAt(i)
			if (nulls == nil || !nulls[row]) && f.TestHash(HashFloat64(vec.Floats[row])) {
				out = append(out, row)
			}
		}
	case types.String:
		for i := 0; i < n; i++ {
			row := rowAt(i)
			if (nulls == nil || !nulls[row]) && f.TestHash(HashString(vec.Strings[row])) {
				out = append(out, row)
			}
		}
	case types.Bool:
		for i := 0; i < n; i++ {
			row := rowAt(i)
			if (nulls == nil || !nulls[row]) && f.TestHash(HashBool(vec.Bools[row])) {
				out = append(out, row)
			}
		}
	default:
		return nil, fmt.Errorf("bloom: unsupported key kind %s", vec.Kind)
	}
	return out, nil
}
