package exec

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// keyTable assigns dense ids to distinct multi-column keys, in order of
// first appearance. It is the one hash table of the operator library: the
// hash aggregate maps rows to group ids with it and the hash join maps
// build and probe rows to key ids.
//
// Keys live in a flat arena, never as a heap object each: a key is width
// 64-bit words — NULL-mask words with a bit per column, then one word
// per column — and keys compare word by word. A fixed-width column's
// word is its value (a float's bits, a bool's 0 or 1). A string column's
// word is a string of under eight bytes itself, and a longer string's id
// in the table's string interner, so strings are compared once, when they
// are interned, and a key of short strings costs what a key of integers
// does. NULL equals NULL, every NaN is one key,
// and -0.0 and +0.0 are two keys (grouping goes by bit pattern, not by the
// sort order's float comparison).
//
// A string column in dictionary form is keyed through its Dict: each
// entry is interned once and the code→id remap is cached in the caller's
// keyScratch while pages keep arriving with the same Dict, so a row's
// word is one array read. Codes themselves are never compared, since two
// Dicts number the same string differently.
//
// Lookup is open addressing with linear probing. A table that is no
// longer written to (a finished join build side) may be searched from
// several goroutines at once: find touches only the table's arrays and
// the caller's own keyScratch, and looks strings up without interning.
type keyTable struct {
	width int      // words per key
	words []uint64 // key id is words[id*width : (id+1)*width]
	index slotIndex
	strs  stringInterner
}

// slotIndex is the open-addressing array behind keyTable and its string
// interner, a power of two long and at most half full. An entry is id+1
// in the low half and the key's upper hash bits in the high half, so that
// a probe passes over other keys without reading anything else, and so
// that growing re-places entries from the array alone; 0 is empty. A
// key's home slot is the top bits of its hash.
type slotIndex struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // ids placed
}

const keyTableMinSlots = 64

func newSlotIndex() slotIndex {
	return slotIndex{slots: make([]uint64, keyTableMinSlots), shift: uint(64 - bits.TrailingZeros(keyTableMinSlots))}
}

// add places the next id under hash h, doubling the array first when it
// would pass half full, and returns the id.
func (x *slotIndex) add(h uint64) int32 {
	id := x.n
	if 2*(id+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]uint64, 2*len(old))
		x.shift--
		for _, e := range old {
			if e != 0 {
				x.place(e)
			}
		}
	}
	x.place(h&^math.MaxUint32 | uint64(id+1))
	x.n++
	return int32(id)
}

// place puts entry e into the first free slot of its probe sequence.
func (x *slotIndex) place(e uint64) {
	mask := len(x.slots) - 1
	slot := int(e >> x.shift)
	for x.slots[slot] != 0 {
		slot = (slot + 1) & mask
	}
	x.slots[slot] = e
}

// stringInterner numbers the distinct strings of eight bytes or more
// densely in order of first appearance: such a string's key word is its
// number.
type stringInterner struct {
	strs  []string
	index slotIndex
}

// absentWord is the key word of a string find met that was never
// interned: no key holds it, so the key is not found.
const absentWord = math.MaxUint64

// hashString hashes a string eight bytes at a time. Interned strings are
// a few words long (a priority, a ship mode), where this beats a call into
// the runtime's hash.
func hashString(s string) uint64 {
	h := hashMix(keySeed, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = hashMix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var tail uint64
		for i := 0; i < len(s); i++ {
			tail |= uint64(s[i]) << (8 * uint(i))
		}
		h = hashMix(h, tail)
	}
	return h
}

// word returns s's key word. A string of under eight bytes is its own
// word — its bytes, and its length in the top byte — and needs no
// interning. A longer one's word is its id with the top bit set,
// interned when intern is set, or absentWord when it is not interned.
func (in *stringInterner) word(s string, intern bool) uint64 {
	if len(s) < 8 {
		w := uint64(len(s)) << 56
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * uint(i))
		}
		return w
	}
	h := hashString(s)
	mask := len(in.index.slots) - 1
	for slot := int(h >> in.index.shift); ; slot = (slot + 1) & mask {
		e := in.index.slots[slot]
		if e == 0 {
			break
		}
		if id := int(uint32(e)) - 1; e>>32 == h>>32 && in.strs[id] == s {
			return uint64(id) | 1<<63
		}
	}
	if !intern {
		return absentWord
	}
	in.strs = append(in.strs, s)
	return uint64(in.index.add(h)) | 1<<63
}

// keyScratch holds one chunk of a page's keys in the table's layout, plus
// their hashes and the remaps of the Dicts it has met. It belongs to the
// caller so that concurrent finds share nothing writable; reusing it
// makes key loading allocation-free.
type keyScratch struct {
	words  []uint64
	hashes []uint64
	remaps []dictRemap // per key column
	// fresh lists, after assign, the rows that introduced a new key, in
	// id order.
	fresh []int
}

// dictRemap is a string key column's Dict and each entry's key word.
// complete marks a remap built while interning, which has no absentWord.
type dictRemap struct {
	dict     []string
	words    []uint64
	complete bool
}

// remap returns the key words of dict's entries for key column c.
func (sc *keyScratch) remap(t *keyTable, c int, dict []string, intern bool) []uint64 {
	if len(sc.remaps) <= c {
		sc.remaps = append(sc.remaps, make([]dictRemap, c+1-len(sc.remaps))...)
	}
	r := &sc.remaps[c]
	if !column.SameDict(r.dict, dict) || (intern && !r.complete) {
		r.dict, r.complete = dict, intern
		r.words = resize(r.words, len(dict))
		for i, s := range dict {
			r.words[i] = t.strs.word(s, intern)
		}
	}
	return r.words
}

// keySeed starts every key hash. Ids depend on arrival order only, so a
// per-process seed does not make results vary; it keeps the probe
// sequences of crafted keys unpredictable.
var keySeed = rand.Uint64()

// hashMix folds one 64-bit word of a key into h: a 64×64→128-bit multiply
// with the halves xored, the wyhash step.
func hashMix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^x, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

func newKeyTable(kinds []types.Kind) *keyTable {
	return &keyTable{
		// NULL-mask words with a bit per column, then a word per column.
		width: len(kinds)/64 + 1 + len(kinds),
		index: newSlotIndex(),
		strs:  stringInterner{index: newSlotIndex()},
	}
}

// reserve sizes an empty table for up to n keys, so that adding them
// never grows the slots or the arena.
func (t *keyTable) reserve(n int) {
	slots := keyTableMinSlots
	for slots < 2*n {
		slots *= 2
	}
	t.index = slotIndex{slots: make([]uint64, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	t.words = make([]uint64, 0, n*t.width)
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return t.index.n }

// keyChunk is how many rows are loaded into the scratch at a time: small
// enough that their keys and hashes are still in L1 when they are looked
// up, large enough to amortize the per-column kind dispatch.
const keyChunk = 256

// assign sets ids[i] to the id of the key of the i-th row of sel (nil:
// of row i), adding keys the table has not seen. cols are the key
// columns' ordinals in page, kinds matching the table's. sc.fresh lists
// the page rows that added a key.
func (t *keyTable) assign(sc *keyScratch, page *column.Page, cols []int, sel []int, ids []int32) {
	sc.fresh = sc.fresh[:0]
	for from := 0; from < len(ids); from += keyChunk {
		to := min(from+keyChunk, len(ids))
		t.load(sc, page, cols, sel, from, to, true)
		for i := range ids[from:to] {
			id := t.lookup(sc, i)
			if id < 0 {
				id = t.insert(sc, i)
				row := from + i
				if sel != nil {
					row = sel[row]
				}
				sc.fresh = append(sc.fresh, row)
			}
			ids[from+i] = id
		}
	}
}

// find sets ids[i] to the id of row i's key, or -1 when the table does
// not hold it. It does not modify the table.
func (t *keyTable) find(sc *keyScratch, page *column.Page, cols []int, ids []int32) {
	for from := 0; from < len(ids); from += keyChunk {
		to := min(from+keyChunk, len(ids))
		t.load(sc, page, cols, nil, from, to, false)
		for i := range ids[from:to] {
			ids[from+i] = t.lookup(sc, i)
		}
	}
}

func (t *keyTable) lookup(sc *keyScratch, i int) int32 {
	h := sc.hashes[i]
	mask := len(t.index.slots) - 1
	for slot := int(h >> t.index.shift); ; slot = (slot + 1) & mask {
		e := t.index.slots[slot]
		if e == 0 {
			return -1
		}
		if id := int(uint32(e)) - 1; e>>32 == h>>32 && t.equal(sc, i, id) {
			return int32(id)
		}
	}
}

// equal reports whether row i of the scratch holds key id.
func (t *keyTable) equal(sc *keyScratch, i, id int) bool {
	w := t.width
	a, b := sc.words[i*w:(i+1)*w], t.words[id*w:(id+1)*w]
	for j := range a {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}

// insert copies row i's key into the arena under the next id.
func (t *keyTable) insert(sc *keyScratch, i int) int32 {
	w := t.width
	if len(t.words)+w > cap(t.words) {
		// Grow to what the slots index once they next double, in one
		// step, instead of leaving it to append's smaller increments.
		t.words = slices.Grow(t.words, len(t.index.slots)*w-len(t.words))
	}
	t.words = append(t.words, sc.words[i*w:(i+1)*w]...)
	return t.index.add(sc.hashes[i])
}

// load writes the keys of positions [from, to) — rows sel[from:to], or
// rows [from, to) themselves when sel is nil — into sc in the table's
// layout and hashes them, interning the strings it meets when intern is
// set. The words are filled a column at a time, so the kind dispatch
// happens once per column per chunk.
func (t *keyTable) load(sc *keyScratch, page *column.Page, cols []int, sel []int, from, to int, intern bool) {
	n := to - from
	w := t.width
	nullWords := w - len(cols)
	sc.hashes = resize(sc.hashes, n)
	sc.words = resize(sc.words, n*w)
	words := sc.words
	for i := 0; i < len(words); i += w {
		words[i] = 0
		for j := 1; j < nullWords; j++ {
			words[i+j] = 0
		}
	}
	var rows []int
	if sel != nil {
		rows = sel[from:to]
	}
	for c, col := range cols {
		vec := page.Vectors[col]
		dst := words[nullWords+c:]
		switch {
		case vec.Dict != nil:
			remap := sc.remap(t, c, vec.Dict, intern)
			if rows != nil {
				for i, row := range rows {
					dst[i*w] = remap[vec.Codes[row]]
				}
			} else {
				for i, code := range vec.Codes[from:to] {
					dst[i*w] = remap[code]
				}
			}
		case rows != nil:
			loadWordsSel(dst, w, vec, rows, &t.strs, intern)
		default:
			switch vec.Kind {
			case types.Int64, types.Date:
				for i, v := range vec.Ints[from:to] {
					dst[i*w] = uint64(v)
				}
			case types.Float64:
				for i, f := range vec.Floats[from:to] {
					dst[i*w] = floatKeyWord(f)
				}
			case types.String:
				for i, s := range vec.Strings[from:to] {
					dst[i*w] = t.strs.word(s, intern)
				}
			case types.Bool:
				for i, b := range vec.Bools[from:to] {
					dst[i*w] = boolKeyWord(b)
				}
			}
		}
		if vec.Nulls != nil {
			for i := 0; i < n; i++ {
				row := from + i
				if rows != nil {
					row = rows[i]
				}
				if vec.Nulls[row] {
					dst[i*w] = 0
					words[i*w+c/64] |= 1 << uint(c%64)
				}
			}
		}
	}
	for i := range sc.hashes {
		h := keySeed
		for _, x := range words[i*w : (i+1)*w] {
			h = hashMix(h, x)
		}
		sc.hashes[i] = h
	}
}

// loadWordsSel is load's column loop read through a selection.
func loadWordsSel(dst []uint64, w int, vec *column.Vector, rows []int, strs *stringInterner, intern bool) {
	switch vec.Kind {
	case types.Int64, types.Date:
		for i, row := range rows {
			dst[i*w] = uint64(vec.Ints[row])
		}
	case types.Float64:
		for i, row := range rows {
			dst[i*w] = floatKeyWord(vec.Floats[row])
		}
	case types.String:
		for i, row := range rows {
			dst[i*w] = strs.word(vec.Strings[row], intern)
		}
	case types.Bool:
		for i, row := range rows {
			dst[i*w] = boolKeyWord(vec.Bools[row])
		}
	}
}

// floatKeyWord is a float's key word: its bits, with one pattern for
// every NaN payload.
func floatKeyWord(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

func boolKeyWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
