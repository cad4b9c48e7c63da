package exec

import (
	"encoding/binary"
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
// Keys live in a flat arena, never as a heap object each. When every key
// column is fixed-width (Int64, Date, Float64, Bool) a key is width
// 64-bit words — a NULL-mask word, then one word per column — and keys
// compare word by word. When a key column is a string, a key is a run of
// bytes (per column a presence byte, then an 8-byte word, one bool byte,
// or a uvarint length and the string's bytes), which is injective for a
// fixed list of kinds, and keys compare as bytes. Either way NULL equals
// NULL, every NaN is one key, and -0.0 and +0.0 are two keys (grouping
// goes by bit pattern, not by the sort order's float comparison).
//
// Lookup is open addressing with linear probing. A table that is no
// longer written to (a finished join build side) may be
// searched from several goroutines at once: find touches only the table's
// arrays and the caller's own keyScratch.
type keyTable struct {
	width int // words per key in the word layout; 0 selects the byte layout

	words  []uint64 // word layout: key id is words[id*width : (id+1)*width]
	bytes  []byte   // byte layout: encoded keys back to back
	ends   []int    // byte layout: key id is bytes[ends[id-1]:ends[id]]
	hashes []uint64 // per key id; re-placing keys when slots grows reads these
	// slots is the open-addressing table, a power of two long and at most
	// half full. An entry is id+1 in the low half and the key's upper hash
	// bits in the high half, so that a probe passes over other keys
	// without reading anything else; 0 is empty.
	slots []uint64
}

// keyScratch holds one chunk of a page's keys in the table's layout, plus
// their hashes. It belongs to the caller so that concurrent finds share
// nothing writable; reusing it makes key loading allocation-free.
type keyScratch struct {
	words  []uint64
	bytes  []byte
	ends   []int
	hashes []uint64
	// fresh lists, after assign, the rows that introduced a new key, in
	// id order.
	fresh []int
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

// hashBytes hashes an encoded key eight bytes at a time. Keys are short
// (a few words, or a few one-character strings), where this beats a call
// into the runtime's hash.
func hashBytes(b []byte) uint64 {
	h := hashMix(keySeed, uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		h = hashMix(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * uint(i))
		}
		h = hashMix(h, tail)
	}
	return h
}

const keyTableMinSlots = 64

func newKeyTable(kinds []types.Kind) *keyTable {
	t := &keyTable{slots: make([]uint64, keyTableMinSlots)}
	// One NULL-mask word has a bit per column.
	t.width = len(kinds) + 1
	if len(kinds) > 64 {
		t.width = 0
	}
	for _, k := range kinds {
		if k == types.String {
			t.width = 0
		}
	}
	return t
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return len(t.hashes) }

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
		t.load(sc, page, cols, sel, from, to)
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
		t.load(sc, page, cols, nil, from, to)
		for i := range ids[from:to] {
			ids[from+i] = t.lookup(sc, i)
		}
	}
}

func (t *keyTable) lookup(sc *keyScratch, i int) int32 {
	h := sc.hashes[i]
	mask := len(t.slots) - 1
	for slot := int(h) & mask; ; slot = (slot + 1) & mask {
		e := t.slots[slot]
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
	if w := t.width; w > 0 {
		a, b := sc.words[i*w:(i+1)*w], t.words[id*w:(id+1)*w]
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return true
	}
	return string(keyBytes(sc.bytes, sc.ends, i)) == string(keyBytes(t.bytes, t.ends, id))
}

func keyBytes(arena []byte, ends []int, i int) []byte {
	start := 0
	if i > 0 {
		start = ends[i-1]
	}
	return arena[start:ends[i]]
}

// insert copies row i's key into the arena under the next id.
func (t *keyTable) insert(sc *keyScratch, i int) int32 {
	id := len(t.hashes)
	if 2*(id+1) > len(t.slots) {
		t.slots = make([]uint64, 2*len(t.slots))
		for old, h := range t.hashes {
			t.place(h, int32(old))
		}
		// Grow the arenas in the same step, to what the new slots can
		// index, instead of leaving it to append's smaller increments.
		room := len(t.slots) / 2
		t.hashes = slices.Grow(t.hashes, room-len(t.hashes))
		t.words = slices.Grow(t.words, room*t.width-len(t.words))
	}
	if w := t.width; w > 0 {
		t.words = append(t.words, sc.words[i*w:(i+1)*w]...)
	} else {
		t.bytes = append(t.bytes, keyBytes(sc.bytes, sc.ends, i)...)
		t.ends = append(t.ends, len(t.bytes))
	}
	t.hashes = append(t.hashes, sc.hashes[i])
	t.place(sc.hashes[i], int32(id))
	return int32(id)
}

// place puts id into the first free slot of h's probe sequence.
func (t *keyTable) place(h uint64, id int32) {
	mask := len(t.slots) - 1
	slot := int(h) & mask
	for t.slots[slot] != 0 {
		slot = (slot + 1) & mask
	}
	t.slots[slot] = h&^math.MaxUint32 | uint64(id+1)
}

// load writes the keys of positions [from, to) — rows sel[from:to], or
// rows [from, to) themselves when sel is nil — into sc in the table's
// layout and hashes them. The word layout is filled a column at a time,
// so the kind dispatch happens once per column per chunk.
func (t *keyTable) load(sc *keyScratch, page *column.Page, cols []int, sel []int, from, to int) {
	n := to - from
	sc.hashes = resize(sc.hashes, n)
	w := t.width
	if w == 0 {
		t.loadBytes(sc, page, cols, sel, from, to)
		return
	}
	sc.words = resize(sc.words, n*w)
	words := sc.words
	for i := 0; i < len(words); i += w {
		words[i] = 0
	}
	for c, col := range cols {
		vec := page.Vectors[col]
		dst := words[1+c:]
		if sel != nil {
			loadWordsSel(dst, w, vec, sel[from:to])
		} else {
			switch vec.Kind {
			case types.Int64, types.Date:
				for i, v := range vec.Ints[from:to] {
					dst[i*w] = uint64(v)
				}
			case types.Float64:
				for i, f := range vec.Floats[from:to] {
					dst[i*w] = floatKeyWord(f)
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
				if sel != nil {
					row = sel[row]
				}
				if vec.Nulls[row] {
					dst[i*w] = 0
					words[i*w] |= 1 << uint(c)
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
func loadWordsSel(dst []uint64, w int, vec *column.Vector, rows []int) {
	switch vec.Kind {
	case types.Int64, types.Date:
		for i, row := range rows {
			dst[i*w] = uint64(vec.Ints[row])
		}
	case types.Float64:
		for i, row := range rows {
			dst[i*w] = floatKeyWord(vec.Floats[row])
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

func (t *keyTable) loadBytes(sc *keyScratch, page *column.Page, cols []int, sel []int, from, to int) {
	sc.ends = resize(sc.ends, to-from)
	buf := sc.bytes[:0]
	for pos := from; pos < to; pos++ {
		i := pos
		if sel != nil {
			i = sel[pos]
		}
		start := len(buf)
		for _, col := range cols {
			vec := page.Vectors[col]
			if vec.Nulls != nil && vec.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			switch vec.Kind {
			case types.Int64, types.Date:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(vec.Ints[i]))
			case types.Float64:
				buf = binary.LittleEndian.AppendUint64(buf, floatKeyWord(vec.Floats[i]))
			case types.String:
				s := vec.Strings[i]
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			case types.Bool:
				buf = append(buf, byte(boolKeyWord(vec.Bools[i])))
			}
		}
		sc.ends[pos-from] = len(buf)
		sc.hashes[pos-from] = hashBytes(buf[start:])
	}
	sc.bytes = buf
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
