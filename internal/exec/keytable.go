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
// first appearance. It is the one key index of the operator library: the
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
// entry is interned once and the code→word remap is cached in the
// caller's keyScratch while pages keep arriving with the same Dict, so a
// row's word is one array read. When every key column of a page is in
// dictionary form and their codes combine in at most keyChunk ways (Q1's
// returnflag and linestatus: 4 × 3, NULL counted), assign goes further
// and skips the words: a row's codes, one mixed-radix digit per column
// with NULL as the digit len(Dict), name a slot of a code→id array, also
// in the keyScratch and cleared only when one of the Dicts changes, so a
// row costs a digit per column and one array read, and nothing is
// hashed. A slot's first row goes through the table as any row does, so
// ids and the rows that added keys are what they would be without it.
// Codes are never compared across Dicts, since two Dicts number the same
// string differently.
//
// The table finds a key's id in one of two modes. A table whose first
// key column is Int64 or Date starts direct: dir[k−lo] holds id+1 for
// the key whose first word is k, so a key is placed and found with one
// bounds check and one array read, its other words compared against the
// arena, and nothing is hashed. Integer keys here are mostly dense (order
// keys, vertex ids), and the span is taken from the keys themselves, a
// page at a time before its rows are assigned: dir at least doubles
// each time it grows, in either direction, while the keys' span stays
// at most max(directFloor, directFactor × max(keys seen, reserve hint))
// entries. Any surprise converts the table, once and for good, to the
// hash index rebuilt from the arena: a key beyond that rule, a NULL
// first column, or a second key with the same first word. Every other
// table, and a converted one, is hashed: open addressing with linear
// probing. Ids are in first-appearance order in both modes, so the mode
// never shows in a result.
//
// A table that is no longer written to (a finished join build side) may
// be searched from several goroutines at once, in either mode: find
// touches only the table's arrays and the caller's own keyScratch, and
// looks strings up without interning.
type keyTable struct {
	width int      // words per key
	lead  int      // the first key column's word within a key
	words []uint64 // key id is words[id*width : (id+1)*width]
	// hashed is set once the table indexes keys by hash; until then dir
	// holds id+1 at the first word's offset from lo, 0 where no key is.
	hashed bool
	dir    []int32
	lo     int64
	// kmin and kmax are the least and greatest first words in dir.
	kmin, kmax int64
	hint       int // reserve's key count, for the span rule and the hash index
	index      slotIndex
	strs       stringInterner
}

// The direct span rule: a direct table may span up to directFloor
// entries (1 MiB of int32) whatever its size, or directFactor entries a
// key beyond that.
const (
	directFloor  = 1 << 18
	directFactor = 8
)

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

// newSlotIndex returns an index that holds n ids without growing.
func newSlotIndex(n int) slotIndex {
	slots := keyTableMinSlots
	for slots < 2*n {
		slots *= 2
	}
	return slotIndex{slots: make([]uint64, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
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
// their hashes when the table is hashed, the remaps of the Dicts it has
// met and assign's code cache. It belongs to the caller so that
// concurrent finds share nothing writable, and serves one table, whose
// ids and words it caches; reusing it makes key loading allocation-free.
type keyScratch struct {
	words  []uint64
	hashes []uint64
	remaps []dictRemap // per key column
	// codeIDs holds, at a page's combined code, id+1 of the key that
	// code names, 0 until a row has named it, for as long as the key
	// columns keep the Dicts in codeDicts (assignCodes).
	codeIDs   []int32
	codeDicts [][]string
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
	t := &keyTable{
		// NULL-mask words with a bit per column, then a word per column.
		width: len(kinds)/64 + 1 + len(kinds),
		lead:  len(kinds)/64 + 1,
		strs:  stringInterner{index: newSlotIndex(0)},
	}
	if len(kinds) == 0 || (kinds[0] != types.Int64 && kinds[0] != types.Date) {
		t.toHash()
	}
	return t
}

// reserve sizes an empty table for up to n keys, so that adding them
// never grows the arena, nor the hash index of a hashed table.
func (t *keyTable) reserve(n int) {
	t.hint = n
	t.words = make([]uint64, 0, n*t.width)
	if t.hashed {
		t.index = newSlotIndex(n)
	}
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return len(t.words) / t.width }

// toHash puts the table in hash mode for good: it drops the direct
// array and indexes every key of the arena by its hash, under its id.
func (t *keyTable) toHash() {
	n := t.len()
	t.hashed, t.dir = true, nil
	t.index = newSlotIndex(max(n, t.hint))
	w := t.width
	for id := 0; id < n; id++ {
		t.index.add(hashKey(t.words[id*w : (id+1)*w]))
	}
}

// hashKey hashes one key's words.
func hashKey(words []uint64) uint64 {
	h := keySeed
	for _, x := range words {
		h = hashMix(h, x)
	}
	return h
}

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
	if t.assignCodes(sc, page, cols, sel, ids) {
		return
	}
	if !t.hashed && !t.cover(page.Vectors[cols[0]], sel, len(ids)) {
		t.toHash()
	}
	for from := 0; from < len(ids); from += keyChunk {
		to := min(from+keyChunk, len(ids))
		t.load(sc, page, cols, sel, from, to, true)
		chunk := ids[from:to]
		i := 0
		if !t.hashed {
			if i = t.assignDirect(sc, sel, from, chunk); i == len(chunk) {
				continue
			}
			t.toHash()
			t.hashChunk(sc)
		}
		for ; i < len(chunk); i++ {
			id := t.lookup(sc, i)
			if id < 0 {
				id = t.insert(sc, i)
				sc.fresh = append(sc.fresh, selRow(sel, from+i))
			}
			chunk[i] = id
		}
	}
}

// assignCodes is assign for a page whose key columns are all in
// dictionary form and whose codes combine in at most keyChunk ways; it
// reports false, having done nothing, for any other page. A row's
// combined code is mixed-radix, a digit per key column — its code, or
// len(Dict) under NULL — and sc.codeIDs maps it to the key's id. A row
// whose combined code has no id yet goes alone, in row order, through
// load, lookup and insert, and its id is recorded, so the table stays
// the one authority on ids. The table is hashed: its first key column
// is a String.
func (t *keyTable) assignCodes(sc *keyScratch, page *column.Page, cols []int, sel []int, ids []int32) bool {
	combos := 1
	for _, col := range cols {
		dict := page.Vectors[col].Dict
		if dict == nil {
			return false
		}
		if combos *= len(dict) + 1; combos > keyChunk {
			return false
		}
	}
	reset := len(sc.codeDicts) != len(cols)
	if reset {
		sc.codeDicts = make([][]string, len(cols))
	}
	for c, col := range cols {
		if dict := page.Vectors[col].Dict; !column.SameDict(sc.codeDicts[c], dict) {
			sc.codeDicts[c], reset = dict, true
		}
	}
	if reset {
		sc.codeIDs = resize(sc.codeIDs, combos)
		clear(sc.codeIDs)
	}

	clear(ids)
	radix := int32(1)
	for _, col := range cols {
		vec := page.Vectors[col]
		addDigits(ids, vec, sel, radix)
		radix *= int32(len(vec.Dict) + 1)
	}
	for i, code := range ids {
		if e := sc.codeIDs[code]; e != 0 {
			ids[i] = e - 1
			continue
		}
		t.load(sc, page, cols, sel, i, i+1, true)
		id := t.lookup(sc, 0)
		if id < 0 {
			id = t.insert(sc, 0)
			sc.fresh = append(sc.fresh, selRow(sel, i))
		}
		sc.codeIDs[code] = id + 1
		ids[i] = id
	}
	return true
}

// addDigits adds radix × the digit of each row of sel (nil: of rows
// [0, len(codes))) in vec, a vector in dictionary form, to codes: the
// row's code, or len(Dict) under NULL.
func addDigits(codes []int32, vec *column.Vector, sel []int, radix int32) {
	if sel != nil {
		for i, row := range sel {
			codes[i] += vec.Codes[row] * radix
		}
	} else {
		for i, code := range vec.Codes[:len(codes)] {
			codes[i] += code * radix
		}
	}
	if vec.Nulls != nil {
		null := int32(len(vec.Dict))
		for i := range codes {
			if row := selRow(sel, i); vec.Nulls[row] {
				codes[i] += (null - vec.Codes[row]) * radix
			}
		}
	}
}

// assignDirect is assign's loop over a loaded chunk for a direct table
// that covers the chunk's first words. It returns how many of the
// chunk's rows it assigned: all of them, or fewer when the rest starts
// with a surprise, and then the table must convert.
func (t *keyTable) assignDirect(sc *keyScratch, sel []int, from int, ids []int32) int {
	w, lo := t.width, uint64(t.lo)
	for i := range ids {
		off := sc.words[i*w+t.lead] - lo
		if e := t.dir[off]; e != 0 {
			// A second key with this first word is a surprise. A
			// one-column key (width 2) is its first word: cover saw no
			// NULL.
			if w > 2 && !t.equal(sc, i, int(e-1)) {
				return i
			}
			ids[i] = e - 1
			continue
		}
		id := t.insert(sc, i)
		t.dir[off] = id + 1
		sc.fresh = append(sc.fresh, selRow(sel, from+i))
		ids[i] = id
	}
	return len(ids)
}

// cover grows dir to span the values of vec, the first key column, in
// rows sel (nil: rows [0, n)), before they are assigned: a page is
// covered once, in one step. It reports false, leaving dir as it is,
// when one of them is NULL or the span rule refuses the span.
func (t *keyTable) cover(vec *column.Vector, sel []int, n int) bool {
	if n == 0 {
		return true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	if sel != nil {
		for _, row := range sel {
			if vec.Nulls != nil && vec.Nulls[row] {
				return false
			}
			k := vec.Ints[row]
			lo, hi = min(lo, k), max(hi, k)
		}
	} else {
		if vec.Nulls != nil && slices.Contains(vec.Nulls[:n], true) {
			return false
		}
		for _, k := range vec.Ints[:n] {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	grewDown := len(t.dir) > 0 && lo < t.kmin
	if len(t.dir) > 0 {
		if lo >= t.lo && uint64(hi)-uint64(t.lo) < uint64(len(t.dir)) {
			t.kmin, t.kmax = min(lo, t.kmin), max(hi, t.kmax)
			return true
		}
		lo, hi = min(lo, t.kmin), max(hi, t.kmax)
	}
	// Offsets are taken in uint64, so MinInt64 and MaxInt64 cannot
	// overflow them; span is the entry count less one. The span is the
	// keys', not the array's: room left unused by an earlier growth
	// does not count against the rule.
	span := uint64(hi) - uint64(lo)
	limit := uint64(max(directFloor, directFactor*max(t.len()+n, t.hint)))
	if span >= limit {
		return false
	}
	// The array at least doubles each time it grows, so keys that leave
	// it on alternate sides cannot make it regrow at one size, up to a
	// cap of twice the rule's span. The room beyond the keys goes the way
	// they grew — below them when they grew down, above them otherwise —
	// except at the cap, where it is split evenly, so that the keys must
	// move the span on by half the cap's room before the next regrowth:
	// after two, the span has passed the rule. Never past the ends of
	// int64.
	size := max(span+1, 2*uint64(len(t.dir)), keyTableMinSlots)
	atCap := size >= 2*limit
	if atCap {
		size = 2 * limit
	}
	extra := size - (span + 1)
	var down uint64
	switch {
	case atCap:
		down = min(extra/2, uint64(lo)^1<<63) // the values below lo
	case grewDown:
		down = min(extra, uint64(lo)^1<<63)
	}
	if above := uint64(math.MaxInt64) - uint64(hi); extra-down > above {
		down = extra - above
	}
	base := int64(uint64(lo) - down)
	dir := make([]int32, size)
	if len(t.dir) > 0 {
		used := t.dir[uint64(t.kmin)-uint64(t.lo) : uint64(t.kmax)-uint64(t.lo)+1]
		copy(dir[uint64(t.kmin)-uint64(base):], used)
	}
	t.dir, t.lo, t.kmin, t.kmax = dir, base, lo, hi
	return true
}

// selRow is the page row of position i of sel, or i itself when sel is
// nil.
func selRow(sel []int, i int) int {
	if sel != nil {
		return sel[i]
	}
	return i
}

// find sets ids[i] to the id of row i's key, or -1 when the table does
// not hold it. It does not modify the table.
func (t *keyTable) find(sc *keyScratch, page *column.Page, cols []int, ids []int32) {
	for from := 0; from < len(ids); from += keyChunk {
		to := min(from+keyChunk, len(ids))
		t.load(sc, page, cols, nil, from, to, false)
		if !t.hashed {
			t.findDirect(sc, ids[from:to])
			continue
		}
		for i := range ids[from:to] {
			ids[from+i] = t.lookup(sc, i)
		}
	}
}

// findDirect is find's loop over a loaded chunk for a direct table. A
// direct table holds no key with a NULL first column.
func (t *keyTable) findDirect(sc *keyScratch, ids []int32) {
	w, lo, n := t.width, uint64(t.lo), uint64(len(t.dir))
	for i := range ids {
		ids[i] = -1
		off := sc.words[i*w+t.lead] - lo
		if sc.words[i*w]&1 != 0 || off >= n {
			continue
		}
		if e := t.dir[off]; e != 0 && (w == 2 || t.equal(sc, i, int(e-1))) {
			ids[i] = e - 1
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

// insert copies row i's key into the arena under the next id, and
// indexes it by hash when the table is hashed.
func (t *keyTable) insert(sc *keyScratch, i int) int32 {
	w := t.width
	if len(t.words)+w > cap(t.words) {
		// Double in one step, instead of leaving it to append's smaller
		// increments. (Fourfold steps, as the arena took when it followed
		// the hash index's slots, allocate more per benchmark cycle: most
		// tables are small.)
		t.words = slices.Grow(t.words, max(len(t.words), keyTableMinSlots*w))
	}
	t.words = append(t.words, sc.words[i*w:(i+1)*w]...)
	if t.hashed {
		t.index.add(sc.hashes[i])
	}
	return int32(len(t.words)/w - 1)
}

// load writes the keys of positions [from, to) — rows sel[from:to], or
// rows [from, to) themselves when sel is nil — into sc in the table's
// layout, and hashes them when the table is hashed, interning the
// strings it meets when intern is set. The words are filled a column at
// a time, so the kind dispatch happens once per column per chunk.
func (t *keyTable) load(sc *keyScratch, page *column.Page, cols []int, sel []int, from, to int, intern bool) {
	n := to - from
	w := t.width
	nullWords := w - len(cols)
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
	if t.hashed {
		t.hashChunk(sc)
	}
}

// hashChunk hashes the keys loaded into sc.
func (t *keyTable) hashChunk(sc *keyScratch) {
	w := t.width
	sc.hashes = resize(sc.hashes, len(sc.words)/w)
	for i := range sc.hashes {
		sc.hashes[i] = hashKey(sc.words[i*w : (i+1)*w])
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
