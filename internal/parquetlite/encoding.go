package parquetlite

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// This file implements the value encodings for column chunks. Every
// encoding starts from the same framing: a validity bitmap (LSB-first,
// 1 = valid) followed by an encoding-specific payload for the valid and
// invalid slots alike (NULL slots carry the zero value, as in Arrow).

// appendValidity appends the n-row validity bitmap for nulls (nil means no
// NULLs) to buf.
func appendValidity(buf []byte, nulls []bool, n int) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	bits := buf[at:]
	for i := 0; i < n; i++ {
		if nulls == nil || !nulls[i] {
			bits[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return buf
}

// minMax returns the least and the greatest non-NULL value and the number
// of NULLs.
func minMax[T cmp.Ordered](vals []T, nulls []bool) (lo, hi T, nullCount int64) {
	seen := false
	for i, x := range vals {
		switch {
		case nulls != nil && nulls[i]:
			nullCount++
		case !seen:
			lo, hi, seen = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
	}
	return lo, hi, nullCount
}

// buildDict numbers the distinct strings in first-seen order (NULL slots
// count with the string they hold), into the encoder's scratch. It
// returns nil when there are more than n/4+1 of them, where a dictionary
// stops paying. An empty dictionary, a chunk of no rows', is not used.
func (e *groupEncoder) buildDict(strs []string) (dict []string, ids []uint32) {
	index, dict, ids := e.dictScratch(len(strs))
	for i, s := range strs {
		id, ok := index[s]
		if !ok {
			if len(dict) > len(strs)/4 {
				return nil, nil
			}
			id = uint32(len(dict))
			index[s] = id
			dict = append(dict, s)
		}
		ids[i] = id
	}
	e.dict = dict
	return dict, ids
}

// numberCodes is buildDict for a dictionary-form vector: it numbers the
// strings its rows read as — a NULL row as "", whatever code lies under
// it — in first-seen order, and stops at the same n/4+1 cutoff, so the
// result is buildDict's over the flattened rows, for a Dict with repeated
// or unused entries too. It looks a string up only where its code is
// first seen; byCode, indexed by code with one more slot for the NULL
// rows, holds the id from then on. It also returns the least and the
// greatest string a non-NULL row reads as, and the NULL rows' count.
func (e *groupEncoder) numberCodes(vec *column.Vector) (dict []string, ids []uint32, lo, hi string, nulls int64) {
	n, nullCode := len(vec.Codes), len(vec.Dict)
	index, dict, ids := e.dictScratch(n)
	e.byCode = slices.Grow(e.byCode[:0], nullCode+1)[:nullCode+1]
	for i := range e.byCode {
		e.byCode[i] = -1
	}
	seen := false
	for i, c := range vec.Codes {
		k := int(c)
		if vec.Nulls != nil && vec.Nulls[i] {
			k, nulls = nullCode, nulls+1
		}
		if e.byCode[k] < 0 {
			s := ""
			if k != nullCode {
				switch s = vec.Dict[k]; {
				case !seen:
					lo, hi, seen = s, s, true
				case s < lo:
					lo = s
				case s > hi:
					hi = s
				}
			}
			id, ok := index[s]
			if !ok {
				if len(dict) > n/4 {
					return nil, nil, "", "", 0
				}
				id = uint32(len(dict))
				index[s] = id
				dict = append(dict, s)
			}
			e.byCode[k] = int32(id)
		}
		ids[i] = uint32(e.byCode[k])
	}
	e.dict = dict
	return dict, ids, lo, hi, nulls
}

// dictScratch returns the encoder's string index, emptied, its dictionary
// buffer, emptied, and its id buffer sized for n rows.
func (e *groupEncoder) dictScratch(n int) (map[string]uint32, []string, []uint32) {
	if e.index == nil {
		e.index = make(map[string]uint32)
	}
	clear(e.index)
	e.ids = slices.Grow(e.ids[:0], n)[:n]
	return e.index, e.dict[:0], e.ids
}

// encodeChunk serializes the vector into the encoder's scratch — the
// pre-compression chunk body — and returns it with the encoding it chose
// and the chunk's statistics, all from typed loops over the vector's
// payload slice: dictionary for strings with few distinct values, RLE for
// integer columns with long runs, plain otherwise. Min and max are the
// first least and first greatest value under types.Compare's order. A
// String vector in dictionary form is numbered by its codes and gives the
// bytes and statistics of its flattened rows.
func (e *groupEncoder) encodeChunk(vec *column.Vector) (Encoding, expr.ZoneMap, []byte) {
	n := vec.Len()
	st := expr.ZoneMap{Min: types.NullValue(vec.Kind), Max: types.NullValue(vec.Kind), NumValues: int64(n)}
	// Room for an 8-byte-wide body at once: grown by appends, the first
	// chunk's scratch was copied a dozen times on its way to 32 KiB.
	buf := slices.Grow(e.scratch[:0], 4+(n+7)/8+8*n)
	buf = appendValidity(binary.LittleEndian.AppendUint32(buf, uint32(n)), vec.Nulls, n)
	enc := Plain
	switch vec.Kind {
	case types.Int64, types.Date:
		ints := vec.Ints
		lo, hi, nulls := minMax(ints, vec.Nulls)
		if st.NullCount = nulls; nulls < int64(n) {
			st.Min, st.Max = types.Value{Kind: vec.Kind, I: lo}, types.Value{Kind: vec.Kind, I: hi}
		}
		runs := 0
		for i, x := range ints {
			if i == 0 || x != ints[i-1] {
				runs++
			}
		}
		if n > 0 && runs*4 <= n {
			// (varint runLength, fixed64 value) pairs.
			enc = RLE
			for i := 0; i < n; {
				j := i + 1
				for j < n && ints[j] == ints[i] {
					j++
				}
				buf = binary.AppendUvarint(buf, uint64(j-i))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(ints[i]))
				i = j
			}
			break
		}
		for _, x := range ints {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case types.Float64:
		var lo, hi float64
		seen := false
		for i, x := range vec.Floats {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			switch {
			case vec.IsNull(i):
				st.NullCount++
			case !seen:
				lo, hi, seen = x, x, true
			case types.CompareFloat(x, lo) < 0:
				lo = x
			case types.CompareFloat(x, hi) > 0:
				hi = x
			}
		}
		if seen {
			st.Min, st.Max = types.FloatValue(lo), types.FloatValue(hi)
		}
	case types.Bool:
		at := len(buf)
		buf = append(buf, make([]byte, (n+7)/8)...)
		var anyFalse, anyTrue bool
		for i, b := range vec.Bools {
			if b {
				buf[at+i/8] |= 1 << (uint(i) % 8)
			}
			switch {
			case vec.IsNull(i):
				st.NullCount++
			case b:
				anyTrue = true
			default:
				anyFalse = true
			}
		}
		if anyFalse || anyTrue {
			st.Min, st.Max = types.BoolValue(!anyFalse), types.BoolValue(anyTrue)
		}
	case types.String:
		var strs, dict []string
		var ids []uint32
		var lo, hi string
		var nulls int64
		if vec.Dict != nil {
			dict, ids, lo, hi, nulls = e.numberCodes(vec)
		}
		if len(dict) == 0 {
			// Plain strings, or a dictionary-form chunk past the cutoff.
			strs = vec.StringSlice()
			lo, hi, nulls = minMax(strs, vec.Nulls)
			if vec.Dict == nil {
				dict, ids = e.buildDict(strs)
			}
		}
		if st.NullCount = nulls; nulls < int64(n) {
			st.Min, st.Max = types.StringValue(lo), types.StringValue(hi)
		}
		if len(dict) > 0 {
			// The dictionary, then a u32 index per row.
			enc = Dict
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dict)))
			for _, s := range dict {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
			for _, id := range ids {
				buf = binary.LittleEndian.AppendUint32(buf, id)
			}
			break
		}
		// n+1 u32 end offsets, then the bytes.
		off := uint32(0)
		buf = binary.LittleEndian.AppendUint32(buf, off)
		for _, s := range strs {
			off += uint32(len(s))
			buf = binary.LittleEndian.AppendUint32(buf, off)
		}
		for _, s := range strs {
			buf = append(buf, s...)
		}
	}
	return enc, st, buf
}

// decodeChunk reverses encodeChunk.
func decodeChunk(data []byte, kind types.Kind, enc Encoding) (*column.Vector, error) {
	if len(data) < 4 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	vb := (n + 7) / 8
	if len(data) < vb {
		return nil, ErrCorrupt
	}
	validity := data[:vb]
	data = data[vb:]

	// Decode the validity bitmap once up front, then fill the typed
	// payload slices directly: this is the scan path that feeds the
	// vectorized kernels, so it must not box a types.Value per cell.
	vec := column.NewVector(kind)
	vec.Nulls = decodeValidity(validity, n)

	switch enc {
	case Plain:
		switch kind {
		case types.Int64, types.Date:
			if len(data) < 8*n {
				return nil, ErrCorrupt
			}
			vec.Ints = make([]int64, n)
			for i, src := 0, data[:8*n]; len(src) >= 8; i, src = i+1, src[8:] {
				vec.Ints[i] = int64(binary.LittleEndian.Uint64(src))
			}
		case types.Float64:
			if len(data) < 8*n {
				return nil, ErrCorrupt
			}
			vec.Floats = make([]float64, n)
			for i, src := 0, data[:8*n]; len(src) >= 8; i, src = i+1, src[8:] {
				vec.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
			}
		case types.Bool:
			if len(data) < (n+7)/8 {
				return nil, ErrCorrupt
			}
			vec.Bools = make([]bool, n)
			for i := range vec.Bools {
				vec.Bools[i] = data[i/8]&(1<<(uint(i)%8)) != 0
			}
		case types.String:
			// Offsets (n+1 x u32) read on the fly — no materialized slice.
			need := 4 * (n + 1)
			if len(data) < need {
				return nil, ErrCorrupt
			}
			offs := data[:need]
			body := data[need:]
			total := binary.LittleEndian.Uint32(offs[4*n:])
			if int(total) > len(body) {
				return nil, ErrCorrupt
			}
			vec.Strings = make([]string, n)
			prev := binary.LittleEndian.Uint32(offs)
			for i := 0; i < n; i++ {
				cur := binary.LittleEndian.Uint32(offs[4*(i+1):])
				if prev > cur || cur > total {
					return nil, ErrCorrupt
				}
				vec.Strings[i] = string(body[prev:cur])
				prev = cur
			}
		default:
			return nil, ErrCorrupt
		}
	case Dict:
		if kind != types.String {
			return nil, ErrCorrupt
		}
		if len(data) < 4 {
			return nil, ErrCorrupt
		}
		dictLen := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		// Every entry has a 4-byte length: a count the remaining bytes
		// cannot hold is rejected before it sizes the dictionary.
		if dictLen > len(data)/4 {
			return nil, ErrCorrupt
		}
		dict := make([]string, dictLen)
		for i := range dict {
			if len(data) < 4 {
				return nil, ErrCorrupt
			}
			sl := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if len(data) < sl {
				return nil, ErrCorrupt
			}
			dict[i] = string(data[:sl])
			data = data[sl:]
		}
		if len(data) < 4*n {
			return nil, ErrCorrupt
		}
		// The vector keeps the chunk's numbering: codes plus the shared
		// dictionary, not a string per row (column.Vector's dictionary form).
		vec.Dict = dict
		vec.Codes = make([]int32, n)
		for i := range vec.Codes {
			id := binary.LittleEndian.Uint32(data[4*i:])
			if int(id) >= dictLen {
				return nil, ErrCorrupt
			}
			vec.Codes[i] = int32(id)
		}
	case RLE:
		if kind != types.Int64 && kind != types.Date {
			return nil, ErrCorrupt
		}
		// Runs expand, so n is not bounded by the payload's length: walk
		// the runs once to see that they add up to n before allocating it.
		for rest, left := data, uint64(n); left > 0; {
			run, sz := binary.Uvarint(rest)
			if sz <= 0 || len(rest) < sz+8 || run == 0 || run > left {
				return nil, ErrCorrupt
			}
			rest, left = rest[sz+8:], left-run
		}
		vec.Ints = make([]int64, n)
		for i := 0; i < n; {
			run, sz := binary.Uvarint(data)
			v := int64(binary.LittleEndian.Uint64(data[sz:]))
			data = data[sz+8:]
			dst := vec.Ints[i : i+int(run)]
			for k := range dst {
				dst[k] = v
			}
			i += int(run)
		}
	default:
		return nil, ErrCorrupt
	}
	zeroNullSlots(vec)
	return vec, nil
}

// decodeValidity expands an n-row validity bitmap (LSB-first, 1 = valid)
// into a null mask, or into nil when every row is valid — which costs a
// chunk without NULLs n/64 comparisons and no allocation. Bits past n are
// ignored.
func decodeValidity(validity []byte, n int) []bool {
	tail := byte(1)<<(uint(n)%8) - 1 // the last partial byte's rows
	if allOnes(validity[:n/8]) && (tail == 0 || validity[n/8]&tail == tail) {
		return nil
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = validity[i/8]&(1<<(uint(i)%8)) == 0
	}
	return nulls
}

// allOnes reports whether every bit of b is set, eight bytes at a time.
func allOnes(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != math.MaxUint64 {
			return false
		}
	}
	for _, x := range b {
		if x != 0xFF {
			return false
		}
	}
	return true
}

// zeroNullSlots normalizes the payload under NULL slots to the zero value,
// matching vectors built with Append. Nothing reads those slots, but the
// invariant keeps decoded vectors bit-identical regardless of what the
// writer stored there. A dictionary-form vector keeps the code it read:
// its NULL rows read as "" wherever they are materialized.
func zeroNullSlots(vec *column.Vector) {
	for i, isNull := range vec.Nulls {
		if !isNull {
			continue
		}
		switch vec.Kind {
		case types.Int64, types.Date:
			vec.Ints[i] = 0
		case types.Float64:
			vec.Floats[i] = 0
		case types.String:
			if vec.Dict == nil {
				vec.Strings[i] = ""
			}
		case types.Bool:
			vec.Bools[i] = false
		}
	}
}
