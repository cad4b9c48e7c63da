// Package protowire implements the Protocol Buffers wire format from
// scratch: varints, zigzag, fixed-width fields, length-delimited fields
// and field tags. The substrait package builds its plan serialization on
// top of it, mirroring how real Substrait plans are protobuf messages.
//
// Only the subset needed here is implemented (wire types 0, 1, 2 and 5);
// groups are rejected. Unknown fields can be skipped, so messages are
// forward-compatible the same way real protobuf is.
package protowire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type is a protobuf wire type.
type Type uint8

const (
	// VarintType is wire type 0 (int32/int64/uint/bool/enum, zigzag).
	VarintType Type = 0
	// Fixed64Type is wire type 1 (fixed64, double).
	Fixed64Type Type = 1
	// BytesType is wire type 2 (length-delimited: bytes, string, messages).
	BytesType Type = 2
	// Fixed32Type is wire type 5 (fixed32, float).
	Fixed32Type Type = 5
)

// ErrTruncated reports input that ends mid-field.
var ErrTruncated = errors.New("protowire: truncated message")

// Encoder appends protobuf-encoded fields to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Encoded returns the encoded message.
func (e *Encoder) Encoded() []byte { return e.buf }

// Len returns the current encoded size.
func (e *Encoder) Len() int { return len(e.buf) }

func (e *Encoder) tag(field int, t Type) {
	e.uvarint(uint64(field)<<3 | uint64(t))
}

func (e *Encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf = append(e.buf, tmp[:n]...)
}

// Uint64 writes field as a varint.
func (e *Encoder) Uint64(field int, v uint64) {
	e.tag(field, VarintType)
	e.uvarint(v)
}

// Int64 writes field as a zigzag-encoded varint (sint64 semantics).
func (e *Encoder) Int64(field int, v int64) {
	e.Uint64(field, zigzag(v))
}

// Bool writes field as varint 0/1. False is still written explicitly —
// this wire dialect has no proto3 default-omission, keeping round-trips
// exact.
func (e *Encoder) Bool(field int, v bool) {
	var u uint64
	if v {
		u = 1
	}
	e.Uint64(field, u)
}

// Double writes field as fixed64 (IEEE-754 bits).
func (e *Encoder) Double(field int, v float64) {
	e.tag(field, Fixed64Type)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	e.buf = append(e.buf, tmp[:]...)
}

// Fixed32 writes field as a 4-byte little-endian value.
func (e *Encoder) Fixed32(field int, v uint32) {
	e.tag(field, Fixed32Type)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	e.buf = append(e.buf, tmp[:]...)
}

// Bytes writes field as a length-delimited byte string.
func (e *Encoder) Bytes(field int, v []byte) {
	e.tag(field, BytesType)
	e.uvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String writes field as a length-delimited string.
func (e *Encoder) String(field int, v string) {
	e.tag(field, BytesType)
	e.uvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Message writes field as a nested message built by fn.
func (e *Encoder) Message(field int, fn func(*Encoder)) {
	nested := NewEncoder()
	fn(nested)
	e.Bytes(field, nested.Encoded())
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// MaxDepth bounds how deep messages may nest. Decoders built on this
// package recurse once per nesting level, and a level costs an attacker
// three bytes: without a bound a few megabytes of input exhaust the
// goroutine stack, which is fatal rather than an error. Real plans nest a
// handful of relations and one level per operand of an expression.
const MaxDepth = 10_000

// ErrTooDeep reports a message nested beyond MaxDepth.
var ErrTooDeep = errors.New("protowire: message nesting too deep")

// Decoder walks the fields of an encoded message.
type Decoder struct {
	buf   []byte
	pos   int
	depth int // nesting level of this message; 0 for NewDecoder's
}

// NewDecoder wraps an encoded message.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Done reports whether all input has been consumed.
func (d *Decoder) Done() bool { return d.pos >= len(d.buf) }

// Next reads the next field tag. It returns the field number and wire type.
func (d *Decoder) Next() (field int, t Type, err error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	t = Type(u & 0x7)
	field = int(u >> 3)
	if field == 0 {
		return 0, 0, errors.New("protowire: field number 0")
	}
	switch t {
	case VarintType, Fixed64Type, BytesType, Fixed32Type:
		return field, t, nil
	default:
		return 0, 0, fmt.Errorf("protowire: unsupported wire type %d", t)
	}
}

func (d *Decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.pos += n
	return u, nil
}

// Uint64 reads a varint payload.
func (d *Decoder) Uint64() (uint64, error) { return d.uvarint() }

// Int64 reads a zigzag varint payload.
func (d *Decoder) Int64() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

// Bool reads a varint payload as a bool.
func (d *Decoder) Bool() (bool, error) {
	u, err := d.uvarint()
	return u != 0, err
}

// Double reads a fixed64 payload as a float64.
func (d *Decoder) Double() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v), nil
}

// Fixed32 reads a fixed32 payload.
func (d *Decoder) Fixed32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// Bytes reads a length-delimited payload. The returned slice aliases the
// input buffer.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, ErrTruncated
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

// String reads a length-delimited payload as a string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Message reads a length-delimited payload and returns a sub-decoder,
// or ErrTooDeep past MaxDepth levels of nesting.
func (d *Decoder) Message() (*Decoder, error) {
	if d.depth >= MaxDepth {
		return nil, ErrTooDeep
	}
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return &Decoder{buf: b, depth: d.depth + 1}, nil
}

// Skip discards the payload of a field with the given wire type, enabling
// forward compatibility with unknown fields.
func (d *Decoder) Skip(t Type) error {
	switch t {
	case VarintType:
		_, err := d.uvarint()
		return err
	case Fixed64Type:
		_, err := d.Double()
		return err
	case Fixed32Type:
		_, err := d.Fixed32()
		return err
	case BytesType:
		_, err := d.Bytes()
		return err
	default:
		return fmt.Errorf("protowire: cannot skip wire type %d", t)
	}
}
