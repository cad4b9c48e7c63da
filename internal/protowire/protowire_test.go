package protowire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint64(1, 300)
	e.Int64(2, -12345)
	e.Bool(3, true)
	e.Bool(4, false)
	e.Double(5, 3.14159)
	e.Fixed32(6, 0xdeadbeef)
	e.String(7, "hello")
	e.Bytes(8, []byte{0, 1, 2})

	d := NewDecoder(e.Encoded())
	expect := func(wantField int, wantType Type) {
		t.Helper()
		f, ty, err := d.Next()
		if err != nil || f != wantField || ty != wantType {
			t.Fatalf("Next = %d,%d,%v; want %d,%d", f, ty, err, wantField, wantType)
		}
	}
	expect(1, VarintType)
	if v, _ := d.Uint64(); v != 300 {
		t.Errorf("field1 = %d", v)
	}
	expect(2, VarintType)
	if v, _ := d.Int64(); v != -12345 {
		t.Errorf("field2 = %d", v)
	}
	expect(3, VarintType)
	if v, _ := d.Bool(); !v {
		t.Error("field3 = false")
	}
	expect(4, VarintType)
	if v, _ := d.Bool(); v {
		t.Error("field4 = true")
	}
	expect(5, Fixed64Type)
	if v, _ := d.Double(); v != 3.14159 {
		t.Errorf("field5 = %v", v)
	}
	expect(6, Fixed32Type)
	if v, _ := d.Fixed32(); v != 0xdeadbeef {
		t.Errorf("field6 = %x", v)
	}
	expect(7, BytesType)
	if v, _ := d.String(); v != "hello" {
		t.Errorf("field7 = %q", v)
	}
	expect(8, BytesType)
	if v, _ := d.Bytes(); len(v) != 3 || v[2] != 2 {
		t.Errorf("field8 = %v", v)
	}
	if !d.Done() {
		t.Error("decoder not exhausted")
	}
}

func TestNestedMessage(t *testing.T) {
	e := NewEncoder()
	e.Message(1, func(inner *Encoder) {
		inner.Uint64(1, 7)
		inner.Message(2, func(deep *Encoder) {
			deep.String(1, "deep")
		})
	})
	d := NewDecoder(e.Encoded())
	_, _, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := d.Message()
	if err != nil {
		t.Fatal(err)
	}
	f, _, _ := inner.Next()
	if f != 1 {
		t.Fatalf("inner field = %d", f)
	}
	if v, _ := inner.Uint64(); v != 7 {
		t.Errorf("inner value = %d", v)
	}
	inner.Next()
	deep, err := inner.Message()
	if err != nil {
		t.Fatal(err)
	}
	deep.Next()
	if s, _ := deep.String(); s != "deep" {
		t.Errorf("deep = %q", s)
	}
}

func TestMessageNestingIsBounded(t *testing.T) {
	nest := func(levels int) []byte {
		var msg []byte
		for i := 0; i < levels; i++ {
			e := NewEncoder()
			e.Bytes(1, msg)
			msg = e.Encoded()
		}
		return msg
	}
	descend := func(msg []byte) (levels int, err error) {
		d := NewDecoder(msg)
		for !d.Done() {
			if _, _, err = d.Next(); err != nil {
				return levels, err
			}
			if d, err = d.Message(); err != nil {
				return levels, err
			}
			levels++
		}
		return levels, nil
	}
	if levels, err := descend(nest(MaxDepth)); err != nil || levels != MaxDepth {
		t.Errorf("%d levels: descended %d, %v", MaxDepth, levels, err)
	}
	if levels, err := descend(nest(MaxDepth + 1)); err != ErrTooDeep || levels != MaxDepth {
		t.Errorf("%d levels: descended %d, %v; want %v at level %d", MaxDepth+1, levels, err, ErrTooDeep, MaxDepth)
	}
}

func TestSkipUnknownFields(t *testing.T) {
	e := NewEncoder()
	e.Uint64(1, 5)
	e.Double(2, 1.5)
	e.String(3, "skip me")
	e.Fixed32(4, 9)
	e.Uint64(5, 6)

	d := NewDecoder(e.Encoded())
	var got []uint64
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == 1 || f == 5 {
			v, _ := d.Uint64()
			got = append(got, v)
			continue
		}
		if err := d.Skip(ty); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("got %v", got)
	}
}

func TestTruncatedInputs(t *testing.T) {
	e := NewEncoder()
	e.String(1, "hello world")
	buf := e.Encoded()
	for cut := 1; cut < len(buf); cut++ {
		d := NewDecoder(buf[:cut])
		_, ty, err := d.Next()
		if err != nil {
			continue // truncation detected at the tag
		}
		if _, err := d.Bytes(); err == nil {
			t.Errorf("cut=%d: truncated bytes decoded", cut)
		}
		_ = ty
	}
	// Truncated fixed64 / fixed32.
	d := NewDecoder([]byte{0x09, 1, 2, 3}) // field1, fixed64, 3 payload bytes
	d.Next()
	if _, err := d.Double(); err == nil {
		t.Error("truncated double decoded")
	}
	d = NewDecoder([]byte{0x0d, 1}) // field1, fixed32, 1 payload byte
	d.Next()
	if _, err := d.Fixed32(); err == nil {
		t.Error("truncated fixed32 decoded")
	}
}

func TestInvalidWireTypeAndFieldZero(t *testing.T) {
	// Wire type 3 (start group) unsupported.
	d := NewDecoder([]byte{0x0b})
	if _, _, err := d.Next(); err == nil {
		t.Error("group wire type accepted")
	}
	// Field number 0 invalid.
	d = NewDecoder([]byte{0x00})
	if _, _, err := d.Next(); err == nil {
		t.Error("field 0 accepted")
	}
	if err := NewDecoder(nil).Skip(Type(3)); err == nil {
		t.Error("skip of group type accepted")
	}
}

func TestZigzagBoundaries(t *testing.T) {
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -64, 63} {
		e := NewEncoder()
		e.Int64(1, v)
		d := NewDecoder(e.Encoded())
		d.Next()
		got, err := d.Int64()
		if err != nil || got != v {
			t.Errorf("zigzag(%d) = %d, %v", v, got, err)
		}
	}
}

// Property: arbitrary (uint64, int64, float64, string) tuples round-trip.
func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, s string, b []byte) bool {
		e := NewEncoder()
		e.Uint64(1, u)
		e.Int64(2, i)
		e.Double(3, fl)
		e.String(4, s)
		e.Bytes(5, b)
		d := NewDecoder(e.Encoded())
		d.Next()
		gu, err := d.Uint64()
		if err != nil || gu != u {
			return false
		}
		d.Next()
		gi, err := d.Int64()
		if err != nil || gi != i {
			return false
		}
		d.Next()
		gf, err := d.Double()
		if err != nil || (gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl))) {
			return false
		}
		d.Next()
		gs, err := d.String()
		if err != nil || gs != s {
			return false
		}
		d.Next()
		gb, err := d.Bytes()
		if err != nil || string(gb) != string(b) {
			return false
		}
		return d.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
