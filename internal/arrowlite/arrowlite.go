// Package arrowlite implements an Apache Arrow-like columnar IPC stream:
// a schema message followed by record batches, each encoded as validity
// bitmaps plus typed little-endian value buffers (offsets + data for
// strings). OCS returns query results in this format and the Presto-OCS
// connector's PageSourceProvider deserializes it back into engine pages,
// mirroring the paper's Arrow result path.
//
// Stream layout:
//
//	magic "ARL1"
//	u32 schemaLen | schema message
//	repeated: u32 batchLen | batch message   (batchLen > 0)
//	u32 0  — end-of-stream marker
//
// All integers are little-endian. Validity bitmaps are LSB-first packed
// bits, 1 = valid (Arrow convention).
package arrowlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Magic identifies an arrowlite stream.
var Magic = []byte("ARL1")

// ErrCorrupt reports a malformed stream.
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

// Writer emits an arrowlite stream.
type Writer struct {
	w       io.Writer
	schema  *types.Schema
	closed  bool
	n       int64  // bytes written
	scratch []byte // reused batch-encode buffer
}

// NewWriter writes the magic and schema message and returns a batch writer.
func NewWriter(w io.Writer, schema *types.Schema) (*Writer, error) {
	aw := &Writer{w: w, schema: schema}
	if err := aw.writeRaw(Magic); err != nil {
		return nil, err
	}
	msg, err := encodeSchema(schema)
	if err != nil {
		return nil, err
	}
	if err := aw.writeBlock(msg); err != nil {
		return nil, err
	}
	return aw, nil
}

// BytesWritten returns the total bytes emitted so far.
func (w *Writer) BytesWritten() int64 { return w.n }

func (w *Writer) writeRaw(b []byte) error {
	n, err := w.w.Write(b)
	w.n += int64(n)
	return err
}

func (w *Writer) writeBlock(b []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(b)))
	if err := w.writeRaw(lenBuf[:]); err != nil {
		return err
	}
	return w.writeRaw(b)
}

// WriteBatch appends one record batch. The page's schema must match the
// writer's schema kinds.
func (w *Writer) WriteBatch(page *column.Page) error {
	if w.closed {
		return errors.New("arrowlite: write after Close")
	}
	if page.NumCols() != w.schema.Len() {
		return fmt.Errorf("arrowlite: batch has %d cols, schema has %d", page.NumCols(), w.schema.Len())
	}
	msg, err := AppendBatch(w.scratch[:0], page)
	if err != nil {
		return err
	}
	w.scratch = msg
	if len(msg) == 0 {
		// A zero block length is the end marker; pad empty batches so
		// they stay distinguishable. AppendBatch always emits the row
		// count, so this cannot happen, but guard anyway.
		return errors.New("arrowlite: empty batch message")
	}
	return w.writeBlock(msg)
}

// Close writes the end-of-stream marker.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var z [4]byte
	return w.writeRaw(z[:])
}

func encodeSchema(s *types.Schema) ([]byte, error) {
	return AppendSchema(nil, s)
}

// AppendSchema appends an encoded schema message to dst and returns the
// extended slice. It is the allocation-free form of the schema encoder,
// usable with GetBuf for streaming one message per RPC chunk.
func AppendSchema(dst []byte, s *types.Schema) ([]byte, error) {
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

// DecodeSchemaMsg decodes one schema message (the payload of the first
// stream chunk in the OCS result protocol).
func DecodeSchemaMsg(b []byte) (*types.Schema, error) {
	return decodeSchema(b)
}

func decodeSchema(b []byte) (*types.Schema, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
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
// the extended slice. Bitmaps are packed directly into dst with no
// intermediate slices, so pairing this with GetBuf/PutBuf makes the
// per-chunk serialize path allocation-free in steady state.
func AppendBatch(dst []byte, page *column.Page) ([]byte, error) {
	n := page.NumRows()
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
			if !v.IsNull(i) {
				dst[base+i/8] |= 1 << (uint(i) % 8)
			}
		}

		switch v.Kind {
		case types.Int64, types.Date:
			for _, x := range v.Ints {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
			}
		case types.Float64:
			for _, x := range v.Floats {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		case types.Bool:
			bb := (len(v.Bools) + 7) / 8
			base := len(dst)
			for i := 0; i < bb; i++ {
				dst = append(dst, 0)
			}
			for i, b := range v.Bools {
				if b {
					dst[base+i/8] |= 1 << (uint(i) % 8)
				}
			}
		case types.String:
			// Offsets (n+1 x u32) then concatenated bytes.
			off := uint32(0)
			dst = binary.LittleEndian.AppendUint32(dst, off)
			for _, s := range v.Strings {
				off += uint32(len(s))
				dst = binary.LittleEndian.AppendUint32(dst, off)
			}
			for _, s := range v.Strings {
				dst = append(dst, s...)
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
	return decodeBatch(b, schema)
}

func decodeBatch(b []byte, schema *types.Schema) (*column.Page, error) {
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

// Reader consumes an arrowlite stream.
type Reader struct {
	r      io.Reader
	schema *types.Schema
	done   bool
	n      int64
}

// NewReader validates the magic and reads the schema message.
func NewReader(r io.Reader) (*Reader, error) {
	ar := &Reader{r: r}
	magic := make([]byte, len(Magic))
	if err := ar.readFull(magic); err != nil {
		return nil, fmt.Errorf("arrowlite: reading magic: %w", err)
	}
	if string(magic) != string(Magic) {
		return nil, ErrCorrupt
	}
	block, err := ar.readBlock()
	if err != nil {
		return nil, err
	}
	if block == nil {
		return nil, ErrCorrupt // end marker in place of schema
	}
	schema, err := decodeSchema(block)
	if err != nil {
		return nil, err
	}
	ar.schema = schema
	return ar, nil
}

// Schema returns the stream schema.
func (r *Reader) Schema() *types.Schema { return r.schema }

// BytesRead returns the total bytes consumed so far.
func (r *Reader) BytesRead() int64 { return r.n }

func (r *Reader) readFull(b []byte) error {
	n, err := io.ReadFull(r.r, b)
	r.n += int64(n)
	return err
}

// readBlock returns nil, nil at the end-of-stream marker.
func (r *Reader) readBlock() ([]byte, error) {
	var lenBuf [4]byte
	if err := r.readFull(lenBuf[:]); err != nil {
		return nil, fmt.Errorf("arrowlite: reading block length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 {
		return nil, nil
	}
	block := make([]byte, n)
	if err := r.readFull(block); err != nil {
		return nil, fmt.Errorf("arrowlite: reading block body: %w", err)
	}
	return block, nil
}

// Next returns the next record batch, or io.EOF after the end marker.
func (r *Reader) Next() (*column.Page, error) {
	if r.done {
		return nil, io.EOF
	}
	block, err := r.readBlock()
	if err != nil {
		return nil, err
	}
	if block == nil {
		r.done = true
		return nil, io.EOF
	}
	return decodeBatch(block, r.schema)
}

// Serialize encodes pages into a single in-memory stream.
func Serialize(schema *types.Schema, pages []*column.Page) ([]byte, error) {
	var buf sliceWriter
	w, err := NewWriter(&buf, schema)
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		if err := w.WriteBatch(p); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf, nil
}

// Deserialize decodes a full stream into its schema and pages.
func Deserialize(data []byte) (*types.Schema, []*column.Page, error) {
	r, err := NewReader(&byteReader{data: data})
	if err != nil {
		return nil, nil, err
	}
	var pages []*column.Page
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		pages = append(pages, p)
	}
	return r.Schema(), pages, nil
}

type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}
