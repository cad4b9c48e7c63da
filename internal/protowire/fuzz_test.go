package protowire

import (
	"bytes"
	"math"
	"runtime"
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

// decodeAll reads every field of a message as walkMessage does — a
// length-delimited field tried as a nested message too — and keeps
// nothing, so what it allocates is the decoder's own cost.
func decodeAll(d *Decoder) {
	for !d.Done() {
		_, typ, err := d.Next()
		if err != nil {
			return
		}
		if typ == BytesType {
			sub := *d
			if nested, err := sub.Message(); err == nil {
				decodeAll(nested)
			}
		}
		if d.Skip(typ) != nil {
			return
		}
	}
}

// decodeAllocBound is the most heap decodeAll may take over n bytes of
// input. A nested message costs a 48-byte sub-decoder for at least two
// bytes (its tag and its length), 24 heap bytes a byte; one that fails
// on an unsupported wire type adds its error, 112 bytes for three bytes
// of input, 37.3 heap bytes a byte, the costliest input measured. Under
// the race detector fmt's buffer pool drops entries at random, and the
// same input measured 56 to 59 a byte; the bound leaves room for every
// formatted error to miss the pool.
func decodeAllocBound(n int) uint64 { return 128*uint64(n) + 1<<10 }

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

// FuzzDecoder walks arbitrary bytes as a message: the decoder may stop
// with an error, but it never panics, never moves backwards or past the
// end, never hands out more bytes than came in, creates at most one
// sub-decoder per two bytes of input (a nested message costs its tag and
// its length), allocates within decodeAllocBound of its input, and a
// message it reads to the end, written back field by field, reads the
// same again.
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
	f.Add(bytes.Repeat([]byte{0x0a, 0x00}, 512))                                    // empty nested messages
	f.Add(bytes.Repeat([]byte{0x0a, 0x01, 0x0b}, 512))                              // nested, each a wire-type error
	f.Fuzz(func(t *testing.T, in []byte) {
		if got, bound := leastAlloc(func() { decodeAll(NewDecoder(in)) }), decodeAllocBound(len(in)); got > bound {
			t.Fatalf("%d input bytes allocated %d bytes to decode, bound %d", len(in), got, bound)
		}
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
