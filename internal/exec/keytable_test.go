package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// q3Schema is the join and aggregate input at Q3's shape.
var q3Schema = types.NewSchema(
	types.Column{Name: "orderkey", Type: types.Int64},
	types.Column{Name: "orderdate", Type: types.Date},
	types.Column{Name: "revenue", Type: types.Float64},
)

// keptKey reports whether key k survives a filter keeping about pct % of
// keys: the build's date filter, or the bloom probe on the probe side.
func keptKey(k, pct int) bool { return uint32(k*2654435761)>>8%100 < uint32(pct) }

// splitOrderedPages lays Q3's rows out as the splits deliver them: split
// f holds orderkeys f×perFile … (f+1)×perFile−1 in ascending order, each
// `repeat` times in a row, and the splits arrive in the given order, in
// pages of at most 4096 rows that never cross a split. With pct < 100
// only keptKey's keys are laid out.
func splitOrderedPages(order []int, perFile, pct, repeat int) []*column.Page {
	var pages []*column.Page
	for _, f := range order {
		page := column.NewPage(q3Schema)
		for r := 0; r < perFile; r++ {
			k := f*perFile + r
			if !keptKey(k, pct) {
				continue
			}
			for range repeat {
				if page.NumRows() == 4096 {
					pages = append(pages, page)
					page = column.NewPage(q3Schema)
				}
				page.AppendRow(types.IntValue(int64(k)), types.DateValue(int64(8000+k%2400)), types.FloatValue(float64(r)))
			}
		}
		if page.NumRows() > 0 {
			pages = append(pages, page)
		}
	}
	return pages
}

// keptRows is the selection of the page rows whose first column keptKey
// keeps.
func keptRows(page *column.Page, pct int) []int {
	var sel []int
	for row, k := range page.Vectors[0].Ints {
		if keptKey(int(k), pct) {
			sel = append(sel, row)
		}
	}
	return sel
}

// TestKeyTableStaysDirect pins which tables the span rule keeps direct:
// the key shapes of Q3's build, Q3's leaf aggregate and Laghos's
// aggregate end their builds direct, whatever order their splits arrive
// in, and a keyspace of 2^40 converts on its first chunk. A retuned rule
// that converts one of them, or keeps the sparse one, fails here.
func TestKeyTableStaysDirect(t *testing.T) {
	const files, perFile = 8, 32768
	rnd := rand.New(rand.NewSource(46))
	orders := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1, 0}, {0, 7, 3}, {6, 1}}
	for range 4 {
		orders = append(orders, rnd.Perm(files))
	}

	// Q3's build: the orders the date filter keeps (~29 %), drained and
	// then indexed at once through reserve.
	for _, order := range orders {
		table, err := BuildJoinTable(NewPageSource(q3Schema, splitOrderedPages(order, perFile, 29, 1)), []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if table.index.hashed {
			t.Errorf("Q3 build over splits %v: converted to hashing at %d keys", order, table.index.len())
		}
	}

	// Q3's leaf aggregate on (orderkey, orderdate): every lineitem row of
	// a split arrives, and the bloom probe's selection keeps ~29 %.
	for _, order := range orders {
		table := newKeyTable([]types.Kind{types.Int64, types.Date})
		var sc keyScratch
		for _, page := range splitOrderedPages(order, perFile, 100, 1) {
			sel := keptRows(page, 29)
			table.assign(&sc, page, []int{0, 1}, sel, make([]int32, len(sel)))
		}
		if table.hashed {
			t.Errorf("Q3 leaf aggregate over splits %v: converted to hashing at %d keys", order, table.len())
		}
	}

	// Laghos: each file cycles 8 times through its 2,048 vertex ids, and
	// the range filter keeps ~22 % of the vertices.
	const vertices = 2048
	schema := types.NewSchema(types.Column{Name: "vertex_id", Type: types.Int64})
	for _, order := range orders {
		table := newKeyTable([]types.Kind{types.Int64})
		var sc keyScratch
		for _, f := range order {
			page := column.NewPage(schema)
			for r := 0; r < 8*vertices; r++ {
				page.AppendRow(types.IntValue(int64(f*vertices + r%vertices)))
			}
			sel := keptRows(page, 22)
			table.assign(&sc, page, []int{0}, sel, make([]int32, len(sel)))
		}
		if table.hashed {
			t.Errorf("Laghos aggregate over files %v: converted to hashing at %d keys", order, table.len())
		}
	}

	// A keyspace of 2^40: the first chunk's span is far beyond the rule.
	sparse := column.NewPage(schema)
	for r := 0; r < keyChunk; r++ {
		sparse.AppendRow(types.IntValue(int64(r) << 32))
	}
	table := newKeyTable([]types.Kind{types.Int64})
	var sc keyScratch
	table.assign(&sc, sparse, []int{0}, nil, make([]int32, keyChunk))
	if !table.hashed || table.dir != nil {
		t.Errorf("a first chunk spanning 2^40 left the table direct")
	}

	// The floor: two keys directFloor−1 apart stay direct, directFloor
	// apart do not.
	for _, c := range []struct {
		gap    int64
		hashed bool
	}{{directFloor - 1, false}, {directFloor, true}} {
		page := column.NewPage(schema)
		page.AppendRow(types.IntValue(-1))
		page.AppendRow(types.IntValue(-1 + c.gap))
		table := newKeyTable([]types.Kind{types.Int64})
		table.assign(&sc, page, []int{0}, nil, make([]int32, 2))
		if table.hashed != c.hashed {
			t.Errorf("two keys %d apart: hashed %v, want %v", c.gap, table.hashed, c.hashed)
		}
	}
}

// TestKeyTableQ1Codes pins Q1's key shape, returnflag and linestatus in
// dictionary form over 3 and 2 entries: once a page has named its
// groups, a page carrying the same two Dicts assigns them through the
// code cache with no allocation, loading no key and leaving the hash
// index and the string interner as they were. At the cap, one Dict of
// 255 entries (256 combined codes, NULL's among them) and two of 15 take
// the cache; one of 256 and two of 16 take the row path.
func TestKeyTableQ1Codes(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "returnflag", Type: types.String}, types.Column{Name: "linestatus", Type: types.String})
	flags, statuses := []string{"A", "N", "R"}, []string{"F", "O"}
	page := func(flagDict, statusDict []string, n int) *column.Page {
		f := &column.Vector{Kind: types.String, Dict: flagDict, Codes: make([]int32, n)}
		s := &column.Vector{Kind: types.String, Dict: statusDict, Codes: make([]int32, n)}
		for r := range n {
			f.Codes[r], s.Codes[r] = int32(r*7%len(flagDict)), int32(r*3%len(statusDict))
		}
		return &column.Page{Schema: schema, Vectors: []*column.Vector{f, s}}
	}
	cols := []int{0, 1}
	table := newKeyTable([]types.Kind{types.String, types.String})
	var sc keyScratch
	first := make([]int32, 4096)
	table.assign(&sc, page(flags, statuses, 4096), cols, nil, first)
	if table.len() != 6 || len(sc.fresh) != 6 {
		t.Fatalf("the first page opened %d groups (%d fresh rows), want 6", table.len(), len(sc.fresh))
	}

	second := page(flags, statuses, 4096)
	sel := make([]int, 0, 2048)
	for r := 0; r < 4096; r += 2 {
		sel = append(sel, r)
	}
	slots, strs, strSlots := slices.Clone(table.index.slots), slices.Clone(table.strs.strs), slices.Clone(table.strs.index.slots)
	ids := make([]int32, len(sel))
	sc.words = nil // a row loaded into the scratch would remake it
	if allocs := testing.AllocsPerRun(20, func() { table.assign(&sc, second, cols, sel, ids) }); allocs != 0 {
		t.Errorf("a page over the same Dicts allocated %v times per assign, want 0", allocs)
	}
	if sc.words != nil {
		t.Errorf("a page of known keys was loaded into the scratch")
	}
	for i, row := range sel {
		if ids[i] != first[row] {
			t.Fatalf("row %d: id %d, the first page gave its key %d", row, ids[i], first[row])
		}
	}
	if len(sc.fresh) != 0 || table.len() != 6 {
		t.Errorf("a page of known keys opened %d groups, the table holds %d", len(sc.fresh), table.len())
	}
	if !slices.Equal(table.index.slots, slots) || !slices.Equal(table.strs.strs, strs) || !slices.Equal(table.strs.index.slots, strSlots) {
		t.Errorf("a page of known keys touched the hash index or the string interner")
	}

	// The cap: combined codes over keyChunk take the row path, which
	// leaves a new scratch's code cache unmade.
	entries := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("entry %d", i)
		}
		return out
	}
	for _, c := range []struct {
		dicts  [][]string
		cached bool
	}{
		{[][]string{entries(255)}, true},
		{[][]string{entries(256)}, false},
		{[][]string{entries(15), entries(15)}, true},
		{[][]string{entries(16), entries(16)}, false},
	} {
		p := page(c.dicts[0], c.dicts[len(c.dicts)-1], 600)
		p.Vectors = p.Vectors[:len(c.dicts)]
		kinds := make([]types.Kind, len(c.dicts))
		for i := range kinds {
			kinds[i] = types.String
			p.Vectors[i].Nulls = make([]bool, 600)
			p.Vectors[i].Nulls[599-i] = true
		}
		table := newKeyTable(kinds)
		var sc keyScratch
		ids := make([]int32, 600)
		table.assign(&sc, p, cols[:len(c.dicts)], nil, ids)
		if cached := sc.codeIDs != nil; cached != c.cached {
			t.Errorf("Dicts of %d and %d entries: code cache used %v, want %v", len(c.dicts[0]), len(c.dicts[len(c.dicts)-1]), cached, c.cached)
		}
	}
}

// keyStream is a fuzzed stream of key pages: the key columns are the
// page's columns, in order, each page with an optional selection. plain
// holds the same pages with every String column in plain form.
type keyStream struct {
	kinds []types.Kind
	pages []*column.Page
	plain []*column.Page
	sels  [][]int
}

// dictEntry is entry i of the dictionaries a key stream's String columns
// draw from: six strings, under, at and over eight bytes, "" among them,
// each repeated every sixth entry, so that a Dict of seven entries or
// more numbers one string twice.
func dictEntry(i int) string {
	return []string{"", "s1", "1234567", "12345678", "a string of eight bytes or more, #0", "a string of eight bytes or more, #1"}[i%6]
}

// A dictionary stream's codes: under 8 in a shared Dict of 8 entries,
// under 32 in a page's own Dict.
const (
	sharedDictLen = 8
	pageDictCodes = 32
)

// First-column operations of a key stream, one byte each: the low three
// bits pick the operation, the rest is its argument a.
const (
	opNull    = iota // NULL
	opRaw            // the next eight bytes, little-endian
	opDown           // the previous key − a
	opExtreme        // MinInt64 + a/2 for even a, MaxInt64 − a/2 for odd
	opUp             // the previous key + a; so are 4–7
)

// decodeKeyStream reads a key stream. Byte 0 picks the columns: bit 0
// the first's kind, Int64 or Date; bits 1–2 how many follow it, up to
// two; and bits 3–4 and 5–6 their kinds, Date, Int64, String or plain
// String. Bit 7 makes it a dictionary stream: the first column is a
// String, and every String column but a plain String is in dictionary
// form — with, when bit 0 is set, one Dict of sharedDictLen entries per
// column shared by the pages, except that column c has a Dict of its own
// on page p when (p+c)%3 is 2, and otherwise a Dict per page and column,
// as long as its greatest code needs. A page's own Dict numbers the
// entries from an offset of its own, so one code names different strings
// on different pages. Then each page starts with a header byte h —
// 1 + 4×(h>>1) rows, a selection when h is odd — and each row is one
// byte per column: an operation byte for an integer first column, and a
// value byte for every other (255 is NULL, whose code is 0). A page ends
// early where the input does.
func decodeKeyStream(in []byte) keyStream {
	var s keyStream
	if len(in) == 0 {
		return s
	}
	cfg := in[0]
	in = in[1:]
	dict := cfg&128 != 0
	shared := dict && cfg&1 != 0
	s.kinds = []types.Kind{types.Int64}
	encoded := []bool{dict}
	switch {
	case dict:
		s.kinds[0] = types.String
	case cfg&1 != 0:
		s.kinds[0] = types.Date
	}
	for c := 1; c < 1+int(cfg>>1&3)%3; c++ {
		k := int(cfg >> (1 + 2*c) & 3)
		s.kinds = append(s.kinds, []types.Kind{types.Date, types.Int64, types.String, types.String}[k])
		encoded = append(encoded, dict && k == 2)
	}
	cols := make([]types.Column, len(s.kinds))
	for c, k := range s.kinds {
		cols[c] = types.Column{Name: fmt.Sprintf("k%d", c), Type: k}
	}
	schema := types.NewSchema(cols...)
	sharedDicts := make([][]string, len(s.kinds))
	for c := range sharedDicts {
		for j := range sharedDictLen {
			sharedDicts[c] = append(sharedDicts[c], dictEntry(j))
		}
	}
	var prev int64
	for len(in) > 0 {
		h := in[0]
		in = in[1:]
		p := len(s.pages)
		// offsets number the page's own Dicts; 0 is a shared one's.
		offsets := make([]int, len(s.kinds))
		for c := range offsets {
			if !shared || (p+c)%3 == 2 {
				offsets[c] = 1 + p
			}
		}
		page := column.NewPage(schema)
		codes := make([][]int32, len(s.kinds))
		row := make([]types.Value, len(s.kinds))
		// value is column c's value for value byte v, and its code.
		value := func(c int, v byte) (types.Value, int32) {
			switch {
			case v == 255:
				return types.NullValue(s.kinds[c]), 0
			case encoded[c]:
				code := int(v) % pageDictCodes
				if shared {
					code = int(v) % sharedDictLen
				}
				return types.StringValue(dictEntry(code + offsets[c])), int32(code)
			case s.kinds[c] == types.String && v&4 != 0:
				return types.StringValue(fmt.Sprintf("a string of eight bytes or more, #%d", v%4)), 0
			case s.kinds[c] == types.String:
				return types.StringValue(fmt.Sprintf("s%d", v%4)), 0
			default:
				return types.Value{Kind: s.kinds[c], I: int64(v % 4)}, 0
			}
		}
	rows:
		for n := 1 + 4*int(h>>1); n > 0 && len(in) >= len(s.kinds); n-- {
			first := 0
			if !dict {
				first = 1
				op, a := in[0]&7, int64(in[0]>>3)
				in = in[1:]
				switch {
				case op == opNull:
					row[0] = types.NullValue(s.kinds[0])
				case op == opRaw:
					if len(in) < 8+len(s.kinds)-1 {
						break rows
					}
					prev = int64(binary.LittleEndian.Uint64(in))
					in = in[8:]
				case op == opDown:
					prev -= a
				case op == opExtreme && a%2 == 0:
					prev = math.MinInt64 + a/2
				case op == opExtreme:
					prev = math.MaxInt64 - a/2
				default:
					prev += a
				}
				if op != opNull {
					row[0] = types.Value{Kind: s.kinds[0], I: prev}
				}
			}
			for c := first; c < len(s.kinds); c++ {
				var code int32
				row[c], code = value(c, in[0])
				codes[c] = append(codes[c], code)
				in = in[1:]
			}
			page.AppendRow(row...)
		}
		var sel []int
		if h&1 != 0 {
			sel = []int{}
			for r := range page.NumRows() {
				if (r*7+int(h))%3 != 0 {
					sel = append(sel, r)
				}
			}
		}
		s.plain = append(s.plain, page)
		s.pages = append(s.pages, dictPage(page, encoded, codes, sharedDicts, offsets))
		s.sels = append(s.sels, sel)
	}
	return s
}

// dictPage is page with each encoded column c in dictionary form, its
// rows' codes given: under the shared Dict when offsets[c] is 0, else
// under a Dict of its own, as long as the greatest code needs, numbered
// from offsets[c].
func dictPage(page *column.Page, encoded []bool, codes [][]int32, shared [][]string, offsets []int) *column.Page {
	if !slices.Contains(encoded, true) {
		return page
	}
	out := &column.Page{Schema: page.Schema, Vectors: slices.Clone(page.Vectors)}
	for c, enc := range encoded {
		if !enc {
			continue
		}
		dict := shared[c]
		if offsets[c] != 0 {
			n := 1
			for _, code := range codes[c] {
				n = max(n, int(code)+1)
			}
			dict = make([]string, n)
			for j := range dict {
				dict[j] = dictEntry(j + offsets[c])
			}
		}
		out.Vectors[c] = &column.Vector{Kind: types.String, Nulls: page.Vectors[c].Nulls, Codes: codes[c], Dict: dict}
	}
	return out
}

// run sends pages, the stream's pages in one form or the other, through
// t with a scratch of its own: before each page is assigned, its keys
// are found, then assigned; ids and fresh collect each call's ids, and
// the rows that added a key after each assign.
func (s keyStream) run(t *keyTable, pages []*column.Page, ids [][]int32, fresh [][]int) {
	cols := make([]int, len(s.kinds))
	for c := range cols {
		cols[c] = c
	}
	var sc keyScratch
	for p, page := range pages {
		found, assigned := ids[2*p], ids[2*p+1]
		t.find(&sc, page, cols, nil, found)
		t.assign(&sc, page, cols, s.sels[p], assigned)
		fresh[p] = append(fresh[p][:0], sc.fresh...)
	}
}

// results allocates run's outputs for the stream, and counts its rows.
func (s keyStream) results() (ids [][]int32, fresh [][]int, rows int) {
	for p, page := range s.pages {
		n := page.NumRows()
		if s.sels[p] != nil {
			n = len(s.sels[p])
		}
		ids = append(ids, make([]int32, page.NumRows()), make([]int32, n))
		fresh = append(fresh, make([]int, 0, n))
		rows += page.NumRows()
	}
	return ids, fresh, rows
}

// keyTableAllocBound is the most heap a table that chooses its own mode
// may take for a stream of rows rows and width-word keys. The span rule's
// limit L is at most max(directFloor, directFactor × rows). Below its cap
// of 2L the direct array at least doubles each time it grows, so those
// arrays add up to under 4L entries; at the cap each regrowth follows a
// move of the span by at least L/2, and the span stays under L, so those
// add up to at most 6L: 10L entries of 4 bytes. The rest is per row: the
// arena, the hash index of a converted table, the interner and the
// scratch.
func keyTableAllocBound(rows, width int) uint64 {
	direct := 40 * max(directFloor, directFactor*(rows+keyChunk))
	return uint64(direct + 128*width*(rows+keyChunk) + 16<<10)
}

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

// keyPage writes one page of a key stream: its header and its rows,
// padded with copies of pad to the next row count a header gives.
func keyPage(sel bool, pad []byte, rows ...[]byte) []byte {
	for len(rows)%4 != 1 {
		rows = append(rows, pad)
	}
	h := byte((len(rows)-1)/4) << 1
	if sel {
		h |= 1
	}
	out := []byte{h}
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// repeatRows is n copies of the rows.
func repeatRows(n int, rows ...[]byte) [][]byte {
	var out [][]byte
	for range n {
		out = append(out, rows...)
	}
	return out
}

// FuzzKeyTableModes holds the direct mode and the dictionary codes to
// the hash mode over plain strings: a table left to choose its mode and
// fed the stream as decoded, and one forced to hash from the start and
// fed every string in plain form, find and assign the same ids, and
// report the same rows as adding keys, for any key stream of one to
// three columns with an Int64 or Date first, or a dictionary-form String
// first; and the table that chooses allocates within keyTableAllocBound.
// The seeds break the dense ascending keys at row 0, mid-chunk and at a
// chunk boundary, with each surprise: a far outlier, a negative key,
// MinInt64, MaxInt64, a NULL first key, a repeated first word with a new
// second word and descending keys. The dictionary seeds give each page
// Dicts of its own, or share Dicts across pages with a page of its own
// between, with NULL rows (whose code is 0) and selections, a plain
// column beside the dictionary ones, and codes that combine in more ways
// than keyChunk.
func FuzzKeyTableModes(f *testing.F) {
	up, down, same := []byte{opUp | 1<<3}, []byte{opDown | 1<<3}, []byte{opUp}
	raw := func(k int64) []byte { return binary.LittleEndian.AppendUint64([]byte{opRaw}, uint64(k)) }
	breaks := [][][]byte{
		{raw(1 << 40)},          // a far outlier
		{raw(-5)},               // a negative key
		{{opExtreme}},           // MinInt64
		{{opExtreme | 1<<3}},    // MaxInt64
		{{opNull}},              // a NULL first key
		repeatRows(300, down),   // descending keys
		{raw(directFloor + 40)}, // just beyond the floor
	}
	for _, b := range breaks {
		for _, at := range []int{0, 100, keyChunk} {
			// The first page breaks the ascending keys at row at; the
			// second grows the span past them, meets the break again and
			// walks back down over the first page's keys to key 0.
			first := append(repeatRows(at, up), b...)
			first = append(first, repeatRows(30, up)...)
			second := append([][]byte{raw(int64(at + 40))}, b...)
			second = append(second, repeatRows(60, down)...)
			second = append(second, raw(0))
			f.Add(slices.Concat([]byte{0}, keyPage(false, same, first...), keyPage(false, same, second...)))
		}
	}
	// Keys that leave the array on alternate sides, one page at a time.
	swing := slices.Concat([]byte{0}, keyPage(false, same, raw(0), raw(100000)))
	for i := int64(1); i <= 20; i++ {
		swing = slices.Concat(swing, keyPage(false, same, raw(-i)), keyPage(false, same, raw(100000+i)))
	}
	f.Add(swing)
	// Two columns, Int64 then Date: one first word repeats with a new
	// second word, at each position, once in the page that added it and
	// once in the next.
	for _, at := range []int{0, 100, keyChunk} {
		rows := append(repeatRows(at, []byte{opUp | 1<<3, 1}), []byte{opUp, 2})
		f.Add(slices.Concat([]byte{1 << 1}, keyPage(false, []byte{opUp, 1}, rows...), keyPage(false, []byte{opUp, 3}, []byte{opUp, 3})))
	}
	// Two Int64 columns through a selection, a NULL second word among them.
	f.Add(slices.Concat([]byte{1<<1 | 1<<3}, keyPage(true, []byte{opUp, 3}, repeatRows(30, []byte{opUp | 1<<3, 3}, []byte{opUp, 3}, []byte{opUp, 255})...)))
	// Three columns, Date, String, Int64, NULLs behind the first.
	f.Add(slices.Concat([]byte{1 | 2<<1 | 2<<3 | 1<<5}, keyPage(false, []byte{opUp, 1, 0}, repeatRows(60, []byte{opUp | 1<<3, 4, 255}, []byte{opDown | 2<<3, 1, 0})...)))

	// Dictionary streams: byte 0 is dictStream | bit 0 for shared Dicts |
	// the other columns, and a row is one value byte per column.
	const dictStream, oneMore, twoMore = 1 << 7, 1 << 1, 2 << 1
	const encoded, plainInt, plainString = 2, 1, 3
	q1 := repeatRows(6, []byte{0, 1}, []byte{1, 0}, []byte{2, 1}, []byte{255, 0}, []byte{0, 0}, []byte{0, 255}, []byte{255, 255})
	wide := repeatRows(4, []byte{0, 1}, []byte{7, 1}, []byte{13, 0}, []byte{20, 255}, []byte{6, 2})
	over := repeatRows(4, []byte{31, 0}, []byte{3, 31}, []byte{255, 9}, []byte{30, 1})
	pad := []byte{0, 0}
	// A Dict per page, Q1's shape: one code names another string on the
	// next page; then codes 6 apart name one string, and codes over the
	// cap are declined between pages under it.
	f.Add(slices.Concat([]byte{dictStream | oneMore | encoded<<3}, keyPage(false, pad, q1...), keyPage(true, pad, q1...),
		keyPage(false, pad, wide...), keyPage(true, pad, over...), keyPage(false, pad, q1...)))
	// Shared Dicts, but for the second column's own on the second and
	// fifth pages and the first column's own on the third: the cache is
	// kept, reset when either column's Dict changes, and reset again
	// when both are shared once more.
	f.Add(slices.Concat([]byte{dictStream | 1 | oneMore | encoded<<3}, keyPage(false, pad, q1...), keyPage(true, pad, wide...),
		keyPage(false, pad, q1...), keyPage(false, pad, wide...), keyPage(true, pad, over...)))
	// Three Dicts, two shared and the third column's own on the first
	// page, combine in 9 × 9 × 7 ways, over the cap.
	f.Add(slices.Concat([]byte{dictStream | 1 | twoMore | encoded<<3 | encoded<<5},
		keyPage(false, []byte{0, 0, 0}, repeatRows(30, []byte{1, 2, 3}, []byte{7, 255, 0}, []byte{1, 2, 3}, []byte{255, 6, 5})...)))
	// A dictionary column beside a plain Int64, and two beside a plain
	// String.
	f.Add(slices.Concat([]byte{dictStream | oneMore | plainInt<<3}, keyPage(true, pad, q1...), keyPage(false, pad, wide...)))
	f.Add(slices.Concat([]byte{dictStream | 1 | twoMore | encoded<<3 | plainString<<5},
		keyPage(false, []byte{0, 0, 0}, repeatRows(30, []byte{1, 2, 5}, []byte{7, 255, 0}, []byte{255, 2, 255})...)))
	// One dictionary column over more than a chunk of rows.
	f.Add(slices.Concat([]byte{dictStream}, keyPage(false, []byte{0}, repeatRows(80, []byte{3}, []byte{255}, []byte{9}, []byte{0})...),
		keyPage(true, []byte{0}, repeatRows(80, []byte{3}, []byte{255}, []byte{9}, []byte{30})...)))

	f.Fuzz(func(t *testing.T, in []byte) {
		s := decodeKeyStream(in)
		if len(s.pages) == 0 {
			return
		}
		hashIDs, hashFresh, rows := s.results()
		hashed := newKeyTable(s.kinds)
		hashed.toHash()
		s.run(hashed, s.plain, hashIDs, hashFresh)

		ids, fresh, _ := s.results()
		var table *keyTable
		got := leastAlloc(func() {
			table = newKeyTable(s.kinds)
			s.run(table, s.pages, ids, fresh)
		})
		for i := range ids {
			if !slices.Equal(ids[i], hashIDs[i]) {
				p, what := i/2, []string{"find", "assign"}[i%2]
				t.Fatalf("page %d %s: ids %v (hashed %v), hashed table %v", p, what, ids[i], table.hashed, hashIDs[i])
			}
		}
		for p := range fresh {
			if !slices.Equal(fresh[p], hashFresh[p]) {
				t.Fatalf("page %d: rows adding a key %v (hashed %v), hashed table %v", p, fresh[p], table.hashed, hashFresh[p])
			}
		}
		if table.len() != hashed.len() {
			t.Fatalf("%d keys (hashed %v), hashed table %d", table.len(), table.hashed, hashed.len())
		}
		if bound := keyTableAllocBound(rows, table.width); got > bound {
			t.Fatalf("%d rows of %d-word keys allocated %d bytes, bound %d", rows, table.width, got, bound)
		}
	})
}
