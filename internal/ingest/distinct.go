package ingest

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// DistinctSets holds, per column of a schema, the exact set of distinct
// non-NULL values seen so far; its sizes are the NDV statistics. A value
// is keyed by type and never formatted: Int64, Date and Bool by the
// integer, Float64 by its bit pattern with every NaN folded into one (so
// -0 and +0 are two values, as they print differently), String by the
// string.
type DistinctSets []distinctSet

// distinctSet is one flat open-addressing set. Values are numbered in
// first-seen order and a slot holds a number, so growing re-places
// numbers and never moves a value.
type distinctSet struct {
	slots []uint32 // value number + 1, 0 when empty; a power of two long, at most half full
	words []uint64 // per value: its integer or bit pattern, or a string's hash
	strs  []string // per value, String columns only (nil otherwise)
}

var stringSeed = maphash.MakeSeed()

// NewDistinctSets returns empty sets for the schema's columns.
func NewDistinctSets(schema *types.Schema) DistinctSets {
	d := make(DistinctSets, schema.Len())
	for i, c := range schema.Columns {
		if c.Type == types.String {
			d[i].strs = []string{}
		}
	}
	return d
}

// Count reports the number of distinct values of column col.
func (d DistinctSets) Count(col int) int64 { return int64(len(d[col].words)) }

// addRow adds one row's values.
func (d DistinctSets) addRow(vals []types.Value) {
	for i, v := range vals {
		switch {
		case v.Null:
		case v.Kind == types.String:
			d[i].add(maphash.String(stringSeed, v.S), v.S)
		case v.Kind == types.Float64:
			d[i].add(floatWord(v.F), "")
		case v.Kind == types.Bool:
			d[i].add(boolWord(v.B), "")
		default:
			d[i].add(uint64(v.I), "")
		}
	}
}

// addPage adds every value of the page, column by column.
func (d DistinctSets) addPage(p *column.Page) {
	for c, vec := range p.Vectors {
		s := &d[c]
		for i, n := 0, vec.Len(); i < n; i++ {
			switch {
			case vec.IsNull(i):
			case vec.Kind == types.String:
				s.add(maphash.String(stringSeed, vec.Strings[i]), vec.Strings[i])
			case vec.Kind == types.Float64:
				s.add(floatWord(vec.Floats[i]), "")
			case vec.Kind == types.Bool:
				s.add(boolWord(vec.Bools[i]), "")
			default:
				s.add(uint64(vec.Ints[i]), "")
			}
		}
	}
}

func floatWord(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// slot returns the index of the slot that holds the value (w, str), or
// of the empty slot where it belongs. The first probe is Fibonacci
// hashing — the top bits of a multiply — which spreads sequential and
// strided integers and float bit patterns alike.
func (s *distinctSet) slot(w uint64, str string) uint64 {
	mask := uint64(len(s.slots) - 1)
	for i := (w * 0x9E3779B97F4A7C15) >> (64 - bits.Len64(mask)); ; i = (i + 1) & mask {
		if id := s.slots[i]; id == 0 || s.words[id-1] == w && (s.strs == nil || s.strs[id-1] == str) {
			return i
		}
	}
}

// add inserts the value (w, str) unless it is present.
func (s *distinctSet) add(w uint64, str string) {
	if 2*len(s.words) >= len(s.slots) {
		s.slots = make([]uint32, max(64, 2*len(s.slots)))
		s.words = slices.Grow(s.words, len(s.slots)/2-len(s.words)) // all it can hold before the next doubling
		for id, w := range s.words {
			s.slots[s.slot(w, s.str(id))] = uint32(id + 1)
		}
	}
	if i := s.slot(w, str); s.slots[i] == 0 {
		s.words = append(s.words, w)
		if s.strs != nil {
			s.strs = append(s.strs, str)
		}
		s.slots[i] = uint32(len(s.words))
	}
}

func (s *distinctSet) str(id int) string {
	if s.strs == nil {
		return ""
	}
	return s.strs[id]
}

// merge adds every value of o, the set of the same column elsewhere.
func (s *distinctSet) merge(o *distinctSet) {
	for id, w := range o.words {
		s.add(w, o.str(id))
	}
}
