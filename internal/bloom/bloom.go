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
//
// A filter has one of two forms. The hashed form (New) sets k bits per
// key by double hashing and serves every key kind. The direct form
// (NewDirect) serves BIGINT and DATE keys lying in a known [lo, hi]: a
// bloom filter with one probe and the identity hash over v − lo, so bit
// v − lo is set for every key and nothing else is. It is exact — a key
// passes only if it was added — and a key costs one subtraction, one
// bounds check and one load to test, with no hash. k = 0 marks it on the
// wire, where lo travels beside the bits. The join picks it when the
// span hi − lo + 1 is no more bits than New would allocate for its keys
// (SizeBits), so it is never the larger of the two.
package bloom

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Filter is a standard bloom filter with double hashing, or its direct
// form (k = 0). The zero value is not usable; construct with New,
// NewDirect or FromBits.
type Filter struct {
	bits []byte
	k    int    // probes per key; 0 is the direct form
	m    uint64 // number of bits, a whole number of 64-bit words
	lo   int64  // the direct form's least key: bit v − lo stands for v
}

// DefaultBitsPerKey (10 bits/key, k=6, ~1% false positives) matches the
// sizing used by LSM block filters.
const DefaultBitsPerKey = 10

// MaxBytes is the largest bit array a filter has: New never allocates
// more, and CheckShape — so FromBits and the Substrait plan decoder —
// refuses more. 256 KiB holds ~210k keys at DefaultBitsPerKey; a larger
// build side gets fewer bits per key, so more false positives, and never
// a larger filter on the wire to every probe split.
const MaxBytes = 256 << 10

// New sizes a filter for the expected number of distinct keys, at most
// MaxBytes. Zero expected keys still allocates one word so an empty build
// side rejects every probe row.
func New(expectedKeys, bitsPerKey int) *Filter {
	bitsPerKey = orDefault(bitsPerKey)
	nbits := SizeBits(expectedKeys, bitsPerKey)
	// k = ln2 * bits-per-key is the optimal hash count, taken from the
	// bits allocated when the cap cut them below bitsPerKey.
	perKey := float64(bitsPerKey)
	if expectedKeys > 0 {
		perKey = min(perKey, float64(nbits)/float64(expectedKeys))
	}
	k := min(max(int(perKey*0.69), 1), 8)
	return &Filter{bits: make([]byte, nbits/8), k: k, m: nbits}
}

// SizeBits is the number of bits New allocates for expectedKeys keys:
// bitsPerKey (DefaultBitsPerKey if not positive) for each, at least one
// word and at most MaxBytes, rounded up to whole 64-bit words.
func SizeBits(expectedKeys, bitsPerKey int) uint64 {
	nbits := uint64(max(expectedKeys, 0)) * uint64(orDefault(bitsPerKey))
	nbits = min(max(nbits, 64), MaxBytes*8)
	return (nbits + 63) &^ 63
}

// orDefault is bitsPerKey, or DefaultBitsPerKey if it is not positive.
func orDefault(bitsPerKey int) int {
	if bitsPerKey <= 0 {
		return DefaultBitsPerKey
	}
	return bitsPerKey
}

// NewDirect is an empty direct filter for keys in [lo, hi]: bit v − lo
// stands for key v, over hi − lo + 1 bits rounded up to whole words. The
// span must be at most MaxBytes·8 bits, as any span within SizeBits is.
func NewDirect(lo, hi int64) *Filter {
	span := uint64(hi) - uint64(lo) // the bit count less one
	if hi < lo || span >= MaxBytes*8 {
		panic(fmt.Sprintf("bloom: direct filter over [%d, %d] exceeds the %d-byte cap", lo, hi, MaxBytes))
	}
	nbits := (span + 64) &^ 63
	return &Filter{bits: make([]byte, nbits/8), k: 0, m: nbits, lo: lo}
}

// CheckShape is the one rule for a filter's wire form: a bit array of
// whole 64-bit words, at least one and at most MaxBytes, and 1 to 16 hash
// probes, or 0 for the direct form. New and NewDirect only ever produce
// such filters.
func CheckShape(nbytes, numHash int) error {
	switch {
	case nbytes == 0:
		return fmt.Errorf("bloom: empty bit array")
	case nbytes%8 != 0:
		return fmt.Errorf("bloom: bit array of %d bytes is not a whole number of words", nbytes)
	case nbytes > MaxBytes:
		return fmt.Errorf("bloom: bit array of %d bytes exceeds the %d-byte cap", nbytes, MaxBytes)
	case numHash < 0 || numHash > 16:
		return fmt.Errorf("bloom: bad hash count %d", numHash)
	}
	return nil
}

// FromBits reconstructs a filter from its wire form (the storage-node
// side of the pushdown) over bits itself — nothing is copied or sized from
// the input. lo is the direct form's least key (numHash 0); the hashed
// form never reads it.
func FromBits(bits []byte, numHash int, lo int64) (*Filter, error) {
	if err := CheckShape(len(bits), numHash); err != nil {
		return nil, err
	}
	return &Filter{bits: bits, k: numHash, m: uint64(len(bits)) * 8, lo: lo}, nil
}

// Bits returns the backing bit array (not a copy; wire encoding).
func (f *Filter) Bits() []byte { return f.bits }

// NumHash returns the double-hashing probe count: 0 for the direct form.
func (f *Filter) NumHash() int { return f.k }

// Lo returns the direct form's least key; New leaves it 0.
func (f *Filter) Lo() int64 { return f.lo }

// SizeBytes returns the wire size of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) }

// zeroHash stands in for the hash 0 when probes are derived. 0 is mix's
// fixed point — Int64 and Date 0, Float64 +0.0 and Bool false all hash to
// it — and from h1 = 0, h2 = 1 all k probes would land on bit 0, so a
// filter without such a value would pass it whenever bit 0 is set.
const zeroHash = 0x9e3779b97f4a7c15

// probes returns the double-hashing start and step of a value hash; the
// step is forced odd so the probes cover the array. Every hash but 0 is
// its own start.
func probes(h uint64) (h1, h2 uint64) {
	if h == 0 {
		h = zeroHash
	}
	return h, h>>33 | h<<31 | 1
}

// AddHash sets the k bits derived from a value hash. A probe's bit is
// the high word of h1·m, which lies in [0, m) like h1 mod m without a
// division. AddHash and TestHash serve the hashed form only.
func (f *Filter) AddHash(h uint64) {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		bit, _ := bits.Mul64(h1, f.m)
		f.bits[bit>>3] |= 1 << (bit & 7)
		h1 += h2
	}
}

// TestHash reports whether all k bits for a value hash are set.
func (f *Filter) TestHash(h uint64) bool {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		bit, _ := bits.Mul64(h1, f.m)
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

// AddVector adds every non-null value of a key vector to the filter:
// hashed into the hashed form, or, in the direct form, as bit v − lo of
// each BIGINT or DATE key v, every one of which must lie in the filter's
// range.
func (f *Filter) AddVector(vec *column.Vector) error {
	if f.k != 0 {
		return EachHash(vec, f.AddHash)
	}
	if vec.Kind != types.Int64 && vec.Kind != types.Date {
		return fmt.Errorf("bloom: direct filter over %s keys", vec.Kind)
	}
	lo := uint64(f.lo)
	for i, v := range vec.Ints {
		if vec.Nulls != nil && vec.Nulls[i] {
			continue
		}
		off := uint64(v) - lo
		if off >= f.m {
			return fmt.Errorf("bloom: key %d outside the direct filter from %d over %d bits", v, f.lo, f.m)
		}
		f.bits[off>>3] |= 1 << (off & 7)
	}
	return nil
}

// EachHash passes add the hash of every non-null value of vec, vectorized
// per kind: the one value hash of the join filter and of the metastore's
// NDV sketches. A vector in dictionary form passes each Dict entry that a
// non-null row uses, once.
func EachHash(vec *column.Vector, add func(uint64)) error {
	nulls := vec.Nulls
	if vec.Dict != nil {
		used := make([]bool, len(vec.Dict))
		for i, c := range vec.Codes {
			if nulls == nil || !nulls[i] {
				used[c] = true
			}
		}
		for c, s := range vec.Dict {
			if used[c] {
				add(HashString(s))
			}
		}
		return nil
	}
	switch vec.Kind {
	case types.Int64, types.Date:
		for i, v := range vec.Ints {
			if nulls == nil || !nulls[i] {
				add(HashInt64(v))
			}
		}
	case types.Float64:
		for i, v := range vec.Floats {
			if nulls == nil || !nulls[i] {
				add(HashFloat64(v))
			}
		}
	case types.String:
		for i, v := range vec.Strings {
			if nulls == nil || !nulls[i] {
				add(HashString(v))
			}
		}
	case types.Bool:
		for i, v := range vec.Bools {
			if nulls == nil || !nulls[i] {
				add(HashBool(v))
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
// the selection's row at it. A vector in dictionary form tests each Dict
// entry once and its rows by code. The direct form serves BIGINT and
// DATE keys only: a key passes when its offset from lo, taken in uint64
// so that no key can wrap into range, names a set bit.
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
	if f.k == 0 {
		if vec.Kind != types.Int64 && vec.Kind != types.Date {
			return nil, fmt.Errorf("bloom: direct filter over %s keys", vec.Kind)
		}
		// Every row is written and the count advanced by its bit, so
		// that whether a key passes costs no branch.
		lo, m := uint64(f.lo), f.m
		k := len(out)
		out = slices.Grow(out, n)[:k+n]
		for i := 0; i < n; i++ {
			row := rowAt(i)
			hit := 0
			if off := uint64(vec.Ints[row]) - lo; off < m {
				hit = int(f.bits[off>>3]>>(off&7)) & 1
			}
			if nulls != nil && nulls[row] {
				hit = 0
			}
			out[k] = row
			k += hit
		}
		return out[:k], nil
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
		if vec.Dict != nil {
			pass := make([]bool, len(vec.Dict))
			for c, s := range vec.Dict {
				pass[c] = f.TestHash(HashString(s))
			}
			for i := 0; i < n; i++ {
				row := rowAt(i)
				if (nulls == nil || !nulls[row]) && pass[vec.Codes[row]] {
					out = append(out, row)
				}
			}
			break
		}
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
