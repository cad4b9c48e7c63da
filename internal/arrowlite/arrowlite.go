// Package arrowlite implements an Apache Arrow-like columnar encoding:
// a schema message and record batch messages, each batch encoded as
// validity bitmaps plus typed little-endian value buffers (offsets + data
// for strings). OCS returns query results in this form — the storage node
// sends one record batch message per page, and the Presto-OCS
// connector's PageSourceProvider decodes them back into engine pages
// against the schema both sides derive from the plan — mirroring the
// paper's Arrow result path.
//
// Message layout:
//
//	schema: u32 columns | per column: u8 kind | u32 nameLen | name
//	batch:  u32 rows    | per column: u32 bitmapLen | validity bitmap | values
//
// Serialize and Deserialize carry the same messages in one buffer, each
// behind a u32 length: the schema message, then one batch message per
// page. All integers are little-endian. Validity bitmaps are LSB-first
// packed bits, 1 = valid (Arrow convention).
package arrowlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// ErrCorrupt reports a malformed message or buffer.
var ErrCorrupt = errors.New("arrowlite: corrupt stream")

// kindCode maps types.Kind to a stable on-wire code.
func kindCode(k types.Kind) (uint8, error) {
	switch k {
	case types.Int64:
		return 1, nil
	case types.Float64:
		return 2, nil
	case types.String:
		return 3, nil
	case types.Bool:
		return 4, nil
	case types.Date:
		return 5, nil
	default:
		return 0, fmt.Errorf("arrowlite: unsupported kind %v", k)
	}
}

func codeKind(c uint8) (types.Kind, error) {
	switch c {
	case 1:
		return types.Int64, nil
	case 2:
		return types.Float64, nil
	case 3:
		return types.String, nil
	case 4:
		return types.Bool, nil
	case 5:
		return types.Date, nil
	default:
		return types.Unknown, fmt.Errorf("arrowlite: unknown kind code %d", c)
	}
}

// appendSchema appends an encoded schema message to dst and returns the
// extended slice.
func appendSchema(dst []byte, s *types.Schema) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Len()))
	for _, c := range s.Columns {
		code, err := kindCode(c.Type)
		if err != nil {
			return nil, err
		}
		dst = append(dst, code)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Name)))
		dst = append(dst, c.Name...)
	}
	return dst, nil
}

// decodeSchemaMsg decodes one schema message (the first message of a
// Serialize buffer).
func decodeSchemaMsg(b []byte) (*types.Schema, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Every column takes at least five bytes: the count cannot size
	// anything the message does not back.
	if uint64(n) > uint64(len(b)/5) {
		return nil, ErrCorrupt
	}
	cols := make([]types.Column, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 5 {
			return nil, ErrCorrupt
		}
		kind, err := codeKind(b[0])
		if err != nil {
			return nil, err
		}
		nameLen := binary.LittleEndian.Uint32(b[1:5])
		b = b[5:]
		if uint32(len(b)) < nameLen {
			return nil, ErrCorrupt
		}
		cols = append(cols, types.Column{Name: string(b[:nameLen]), Type: kind})
		b = b[nameLen:]
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return types.NewSchema(cols...), nil
}

// AppendBatch appends one encoded record batch message to dst and returns
// the extended slice. sel, when given, names the rows of page to encode
// (sorted, non-repeating); none encodes every row. The message is the one
// a page of just those rows would give. Bitmaps are packed directly into
// dst with no intermediate slices, so pairing this with GetBuf/PutBuf
// makes the per-chunk serialize path allocation-free in steady state.
func AppendBatch(dst []byte, page *column.Page, sel ...int) ([]byte, error) {
	n := page.NumRows()
	if sel != nil {
		n = len(sel)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, v := range page.Vectors {
		// Validity bitmap: 1 = valid, packed LSB-first straight into dst.
		bmLen := (n + 7) / 8
		dst = binary.LittleEndian.AppendUint32(dst, uint32(bmLen))
		base := len(dst)
		for i := 0; i < bmLen; i++ {
			dst = append(dst, 0)
		}
		for i := 0; i < n; i++ {
			if !v.IsNull(column.SelRow(sel, i)) {
				dst[base+i/8] |= 1 << (uint(i) % 8)
			}
		}

		switch v.Kind {
		case types.Int64, types.Date:
			for i := 0; i < n; i++ {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Ints[column.SelRow(sel, i)]))
			}
		case types.Float64:
			for i := 0; i < n; i++ {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Floats[column.SelRow(sel, i)]))
			}
		case types.Bool:
			base := len(dst)
			for i := 0; i < bmLen; i++ {
				dst = append(dst, 0)
			}
			for i := 0; i < n; i++ {
				if v.Bools[column.SelRow(sel, i)] {
					dst[base+i/8] |= 1 << (uint(i) % 8)
				}
			}
		case types.String:
			// Offsets (n+1 x u32) then concatenated bytes.
			off := uint32(0)
			dst = binary.LittleEndian.AppendUint32(dst, off)
			if v.Dict != nil {
				// Straight from the codes, the bytes a plain vector would
				// send: a NULL row's string is empty.
				for i := 0; i < n; i++ {
					if row := column.SelRow(sel, i); !v.IsNull(row) {
						off += uint32(len(v.Dict[v.Codes[row]]))
					}
					dst = binary.LittleEndian.AppendUint32(dst, off)
				}
				for i := 0; i < n; i++ {
					if row := column.SelRow(sel, i); !v.IsNull(row) {
						dst = append(dst, v.Dict[v.Codes[row]]...)
					}
				}
				break
			}
			for i := 0; i < n; i++ {
				off += uint32(len(v.Strings[column.SelRow(sel, i)]))
				dst = binary.LittleEndian.AppendUint32(dst, off)
			}
			for i := 0; i < n; i++ {
				dst = append(dst, v.Strings[column.SelRow(sel, i)]...)
			}
		default:
			return nil, fmt.Errorf("arrowlite: unsupported vector kind %v", v.Kind)
		}
	}
	return dst, nil
}

// DecodeBatchMsg decodes one record batch message against a known schema.
// It is safe to call on a pooled or otherwise reused buffer: every value
// (including strings) is copied out of b.
func DecodeBatchMsg(b []byte, schema *types.Schema) (*column.Page, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	page := &column.Page{Schema: schema, Vectors: make([]*column.Vector, schema.Len())}
	for ci, col := range schema.Columns {
		if len(b) < 4 {
			return nil, ErrCorrupt
		}
		bmLen := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		// The bitmap must be present and cover n rows: this is what bounds
		// n by the bytes that actually arrived before anything is sized
		// from it.
		if len(b) < bmLen || bmLen < (n+7)/8 {
			return nil, ErrCorrupt
		}
		// Expand the validity bitmap once, then fill the typed slice
		// directly — no types.Value per cell. NULL cells get the zero
		// payload whatever the sender had under them.
		vec := &column.Vector{Kind: col.Type, Nulls: decodeNulls(b[:bmLen], n)}
		b = b[bmLen:]
		switch col.Type {
		case types.Int64, types.Date:
			if len(b) < 8*n {
				return nil, ErrCorrupt
			}
			vec.Ints = make([]int64, n)
			for i := range vec.Ints {
				vec.Ints[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
			zeroNulls(vec.Ints, vec.Nulls)
			b = b[8*n:]
		case types.Float64:
			if len(b) < 8*n {
				return nil, ErrCorrupt
			}
			vec.Floats = make([]float64, n)
			for i := range vec.Floats {
				vec.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			zeroNulls(vec.Floats, vec.Nulls)
			b = b[8*n:]
		case types.Bool:
			bb := (n + 7) / 8
			if len(b) < bb {
				return nil, ErrCorrupt
			}
			vec.Bools = make([]bool, n)
			for i := range vec.Bools {
				vec.Bools[i] = b[i/8]&(1<<(uint(i)%8)) != 0
			}
			zeroNulls(vec.Bools, vec.Nulls)
			b = b[bb:]
		case types.String:
			// Offsets (n+1 x u32) read on the fly, no materialized slice.
			need := 4 * (n + 1)
			if len(b) < need {
				return nil, ErrCorrupt
			}
			offs := b[:need]
			b = b[need:]
			total := int(binary.LittleEndian.Uint32(offs[4*n:]))
			if len(b) < total {
				return nil, ErrCorrupt
			}
			// One copy out of the (possibly pooled) message for the whole
			// column; the values are substrings of it.
			data := string(b[:total])
			b = b[total:]
			vec.Strings = make([]string, n)
			prev := binary.LittleEndian.Uint32(offs)
			for i := range vec.Strings {
				cur := binary.LittleEndian.Uint32(offs[4*(i+1):])
				if prev > cur || int(cur) > total {
					return nil, ErrCorrupt
				}
				vec.Strings[i] = data[prev:cur]
				prev = cur
			}
			zeroNulls(vec.Strings, vec.Nulls)
		default:
			return nil, fmt.Errorf("arrowlite: unsupported kind %v", col.Type)
		}
		page.Vectors[ci] = vec
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return page, nil
}

// decodeNulls expands the first n bits of an LSB-first validity bitmap
// (1 = valid) into a NULL mask, or nil when every row is valid. Fully
// valid bytes — the common case — are skipped eight rows at a time.
func decodeNulls(bm []byte, n int) []bool {
	var nulls []bool
	for base := 0; base < n; base += 8 {
		bits := bm[base/8]
		if bits == 0xff {
			continue
		}
		for i := base; i < base+8 && i < n; i++ {
			if bits&(1<<(uint(i)%8)) == 0 {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
		}
	}
	return nulls
}

// zeroNulls resets the payload under every NULL cell.
func zeroNulls[T any](vals []T, nulls []bool) {
	var zero T
	for i, null := range nulls {
		if null {
			vals[i] = zero
		}
	}
}

// Serialize encodes pages into one buffer: the schema message, then each
// page's batch message, each behind its u32 length.
func Serialize(schema *types.Schema, pages []*column.Page) ([]byte, error) {
	out, err := appendSchema(make([]byte, 4), schema)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	for _, p := range pages {
		if p.NumCols() != schema.Len() {
			return nil, fmt.Errorf("arrowlite: batch has %d cols, schema has %d", p.NumCols(), schema.Len())
		}
		at := len(out)
		if out, err = AppendBatch(append(out, 0, 0, 0, 0), p); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	}
	return out, nil
}

// Deserialize decodes a Serialize buffer into its schema and pages. The
// messages are slices of data: no length prefix sizes an allocation.
func Deserialize(data []byte) (*types.Schema, []*column.Page, error) {
	msg, data, err := nextMsg(data)
	if err != nil {
		return nil, nil, err
	}
	schema, err := decodeSchemaMsg(msg)
	if err != nil {
		return nil, nil, err
	}
	var pages []*column.Page
	for len(data) > 0 {
		if msg, data, err = nextMsg(data); err != nil {
			return nil, nil, err
		}
		page, err := DecodeBatchMsg(msg, schema)
		if err != nil {
			return nil, nil, err
		}
		pages = append(pages, page)
	}
	return schema, pages, nil
}

// nextMsg splits data into the message behind its u32 length and the rest.
func nextMsg(data []byte) (msg, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n) > uint64(len(data)) {
		return nil, nil, ErrCorrupt
	}
	return data[:n], data[n:], nil
}
