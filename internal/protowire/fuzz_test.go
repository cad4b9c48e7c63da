package protowire

import (
	"bytes"
	"testing"
)

// walkMessage reads every field of a message the way the decoders built
// on this package do — by wire type, a length-delimited field tried as a
// nested message too — re-encoding what it reads. It returns the number
// of sub-decoders it was handed and whether the message was well formed
// to the end.
func walkMessage(t *testing.T, d *Decoder, enc *Encoder, input int) (subs int, ok bool) {
	for !d.Done() {
		before := d.pos
		field, typ, err := d.Next()
		if err != nil {
			return subs, false
		}
		switch typ {
		case VarintType:
			v, err := d.Uint64()
			if err != nil {
				return subs, false
			}
			enc.Uint64(field, v)
		case Fixed64Type:
			v, err := d.Double()
			if err != nil {
				return subs, false
			}
			enc.Double(field, v)
		case Fixed32Type:
			v, err := d.Fixed32()
			if err != nil {
				return subs, false
			}
			enc.Fixed32(field, v)
		case BytesType:
			// The same payload three ways: skipped, as bytes, as a message.
			skip, sub := *d, *d
			if err := skip.Skip(typ); err != nil {
				return subs, false
			}
			b, err := d.Bytes()
			if err != nil || d.pos != skip.pos {
				t.Fatalf("Skip moved to %d, Bytes to %d (err %v)", skip.pos, d.pos, err)
			}
			if len(b) > input {
				t.Fatalf("a %d-byte payload out of %d bytes of input", len(b), input)
			}
			enc.Bytes(field, b)
			if nested, err := sub.Message(); err == nil {
				n, _ := walkMessage(t, nested, NewEncoder(), input)
				subs += 1 + n
			} else if err != ErrTooDeep && err != ErrTruncated {
				t.Fatalf("Message on a payload Bytes accepted: %v", err)
			}
		}
		if d.pos <= before || d.pos > len(d.buf) {
			t.Fatalf("position went from %d to %d of %d", before, d.pos, len(d.buf))
		}
	}
	return subs, true
}

// FuzzDecoder walks arbitrary bytes as a message: the decoder may stop
// with an error, but it never panics, never moves backwards or past the
// end, never hands out more bytes than came in, creates at most one
// sub-decoder per two bytes of input (a nested message costs its tag and
// its length), and a message it reads to the end, written back field by
// field, reads the same again.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder()
	e.Uint64(1, 300)
	e.Int64(2, -5)
	e.Double(3, 1.5)
	e.Fixed32(4, 7)
	e.String(5, "scan")
	e.Message(6, func(m *Encoder) {
		m.Bool(1, true)
		m.Message(2, func(mm *Encoder) { mm.Bytes(1, []byte{0xff, 0}) })
	})
	f.Add(e.Encoded())
	f.Add(e.Encoded()[:e.Len()-2])
	f.Add([]byte{0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // length 2^64-1
	f.Add([]byte{0x0a, 0x02, 0x0a, 0x00})                                           // nested, empty inside
	f.Add([]byte{0x00})                                                             // field number 0
	f.Add([]byte{0x0b})                                                             // wire type 3
	f.Add(bytes.Repeat([]byte{0x0a, 0x7f}, 40))                                     // lengths that overrun
	f.Fuzz(func(t *testing.T, in []byte) {
		enc := NewEncoder()
		subs, ok := walkMessage(t, NewDecoder(in), enc, len(in))
		if subs > len(in)/2 {
			t.Fatalf("%d sub-decoders from %d bytes", subs, len(in))
		}
		if !ok {
			return
		}
		// What was read, written back, reads the same again.
		again := NewEncoder()
		if _, ok := walkMessage(t, NewDecoder(enc.Encoded()), again, enc.Len()); !ok || !bytes.Equal(again.Encoded(), enc.Encoded()) {
			t.Fatalf("re-encoded message does not read back: %x, then %x", enc.Encoded(), again.Encoded())
		}
	})
}
