package column

import (
	"fmt"
	"testing"
	"testing/quick"

	"prestocs/internal/types"
)

func intVec(vals ...int64) *Vector {
	v := NewVector(types.Int64)
	for _, x := range vals {
		v.Append(types.IntValue(x))
	}
	return v
}

func TestVectorAppendAndValue(t *testing.T) {
	v := intVec(1, 2, 3)
	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Value(1); got.I != 2 {
		t.Errorf("Value(1) = %v", got)
	}
	v.Append(types.NullValue(types.Int64))
	if v.Len() != 4 || !v.IsNull(3) || v.IsNull(2) {
		t.Error("null append wrong")
	}
	if !v.HasNulls() {
		t.Error("HasNulls = false")
	}
	if !intVec(1).Value(0).Kind.Numeric() {
		t.Error("kind lost")
	}
}

func TestVectorAllKinds(t *testing.T) {
	vals := []types.Value{
		types.IntValue(7),
		types.FloatValue(2.5),
		types.StringValue("x"),
		types.BoolValue(true),
		types.DateValue(100),
	}
	for _, val := range vals {
		v := NewVector(val.Kind)
		v.Append(val)
		v.Append(types.NullValue(val.Kind))
		if !types.Equal(v.Value(0), val) {
			t.Errorf("kind %v: got %v want %v", val.Kind, v.Value(0), val)
		}
		if !v.Value(1).Null {
			t.Errorf("kind %v: null lost", val.Kind)
		}
	}
}

func TestVectorAppendKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("append of wrong kind must panic")
		}
	}()
	NewVector(types.Int64).Append(types.StringValue("x"))
}

func TestVectorAppendVector(t *testing.T) {
	a := intVec(1, 2)
	b := intVec(3)
	b.Append(types.NullValue(types.Int64))
	a.AppendVector(b)
	if a.Len() != 4 || a.Value(2).I != 3 || !a.IsNull(3) {
		t.Errorf("AppendVector wrong: %v nulls=%v", a.Ints, a.Nulls)
	}
	// Appending a null-free vector onto a vector with nulls must extend
	// the validity slice.
	c := intVec(9)
	a.AppendVector(c)
	if a.IsNull(4) || len(a.Nulls) != 5 {
		t.Error("validity slice not extended")
	}
}

func TestVectorFilterGatherSlice(t *testing.T) {
	v := intVec(10, 20, 30, 40)
	g := v.Gather([]int{3, 3, 0})
	if g.Len() != 3 || g.Ints[0] != 40 || g.Ints[2] != 10 {
		t.Errorf("Gather = %v", g.Ints)
	}
	s := v.Slice(1, 3)
	if s.Len() != 2 || s.Ints[0] != 20 {
		t.Errorf("Slice = %v", s.Ints)
	}
}

func TestVectorByteSize(t *testing.T) {
	if got := intVec(1, 2, 3).ByteSize(); got != 24 {
		t.Errorf("int ByteSize = %d", got)
	}
	sv := NewVector(types.String)
	sv.Append(types.StringValue("abcd"))
	if got := sv.ByteSize(); got != 8 {
		t.Errorf("string ByteSize = %d", got)
	}
}

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "name", Type: types.String},
	)
}

func testPage() *Page {
	p := NewPage(testSchema())
	p.AppendRow(types.IntValue(1), types.FloatValue(1.5), types.StringValue("a"))
	p.AppendRow(types.IntValue(2), types.FloatValue(2.5), types.StringValue("b"))
	p.AppendRow(types.IntValue(3), types.FloatValue(3.5), types.StringValue("c"))
	return p
}

func TestPageBasics(t *testing.T) {
	p := testPage()
	if p.NumRows() != 3 || p.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", p.NumRows(), p.NumCols())
	}
	row := p.Row(1)
	if row[0].I != 2 || row[1].F != 2.5 || row[2].S != "b" {
		t.Errorf("Row(1) = %v", row)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
	empty := NewPage(types.NewSchema())
	if empty.NumRows() != 0 {
		t.Error("empty page rows != 0")
	}
}

func TestPageAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong arity must panic")
		}
	}()
	testPage().AppendRow(types.IntValue(1))
}

func TestPageFilterGatherSliceProject(t *testing.T) {
	p := testPage()
	g := p.Gather([]int{2, 0})
	if g.NumRows() != 2 || g.Row(0)[0].I != 3 {
		t.Errorf("Gather wrong")
	}
	s := p.Slice(0, 1)
	if s.NumRows() != 1 || s.Row(0)[0].I != 1 {
		t.Errorf("Slice wrong")
	}
	pr := p.Project([]int{2, 0})
	if pr.NumCols() != 2 || pr.Schema.Columns[0].Name != "name" || pr.Row(1)[1].I != 2 {
		t.Errorf("Project wrong")
	}
}

func TestPageAppendPage(t *testing.T) {
	a, b := testPage(), testPage()
	a.AppendPage(b)
	if a.NumRows() != 6 || a.Row(5)[0].I != 3 {
		t.Errorf("AppendPage wrong: %d rows", a.NumRows())
	}
}

// Property: FilterSel keeps exactly the selected rows, in order.
func TestQuickFilterPreservesOrder(t *testing.T) {
	f := func(vals []int64, seed uint16) bool {
		p := &Page{Schema: types.NewSchema(types.Column{Name: "i", Type: types.Int64}), Vectors: []*Vector{intVec(vals...)}}
		var sel []int
		var want []int64
		for i := range vals {
			if (uint(seed)>>(uint(i)%16))&1 == 1 {
				sel = append(sel, i)
				want = append(want, vals[i])
			}
		}
		got := p.FilterSel(sel).Vectors[0]
		if got.Len() != len(want) {
			return false
		}
		for i, w := range want {
			if got.Ints[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Slice(0,n) is the identity.
func TestQuickSliceIdentity(t *testing.T) {
	f := func(vals []int64) bool {
		v := intVec(vals...)
		s := v.Slice(0, v.Len())
		if s.Len() != v.Len() {
			return false
		}
		for i := range vals {
			if s.Ints[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// dictVec is a String vector in dictionary form: rows "b", NULL (coded to
// "x", which must never show), "a", "b", "c".
func dictVec() *Vector {
	return &Vector{
		Kind:  types.String,
		Nulls: []bool{false, true, false, false, false},
		Dict:  []string{"b", "x", "a", "c"},
		Codes: []int32{0, 1, 2, 0, 3},
	}
}

func rowsOf(v *Vector) []string {
	out := make([]string, v.Len())
	for i := range out {
		if val := v.Value(i); val.Null {
			out[i] = "NULL"
		} else {
			out[i] = val.S
		}
	}
	return out
}

// TestDictVector holds the dictionary form to the plain form's rows
// through every operation that moves codes (Gather, Window, Slice,
// AppendVector from the same Dict) and every one that has to
// materialize (StringSlice, Append, AppendVector from another Dict or a
// plain vector), and checks which form each one leaves behind.
func TestDictVector(t *testing.T) {
	same := func(name string, v *Vector, dict bool, want ...string) {
		t.Helper()
		if got := rowsOf(v); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows %q, want %q", name, got, want)
		}
		if (v.Dict != nil) != dict {
			t.Errorf("%s: dictionary form %v, want %v", name, v.Dict != nil, dict)
		}
	}
	v := dictVec()
	same("decoded", v, true, "b", "NULL", "a", "b", "c")
	if got := v.StringSlice(); fmt.Sprint(got) != fmt.Sprint([]string{"b", "", "a", "b", "c"}) {
		t.Errorf("StringSlice = %q: NULL rows must read as the empty string", got)
	}
	same("Gather", v.Gather([]int{4, 1, 0, 0}), true, "c", "NULL", "b", "b")
	same("Window", v.Window(1, 4), true, "NULL", "a", "b")
	same("Slice", v.Slice(2, 5), true, "a", "b", "c")
	if g := v.Gather([]int{0}); !SameDict(g.Dict, v.Dict) {
		t.Error("Gather copied the dictionary instead of sharing it")
	}

	shared := NewVector(types.String)
	shared.AppendVector(v.Window(0, 2))
	shared.AppendVector(v.Gather([]int{4}))
	same("AppendVector, one Dict", shared, true, "b", "NULL", "c")

	other := dictVec()
	other.Dict = []string{"q", "r", "s", "t"} // same codes, other strings
	mixed := NewVector(types.String)
	mixed.AppendVector(v.Window(0, 2))
	mixed.AppendVector(other)
	same("AppendVector, two Dicts", mixed, false, "b", "NULL", "q", "NULL", "s", "q", "t")
	mixed.AppendVector(v.Window(2, 3))
	same("AppendVector after materializing", mixed, false, "b", "NULL", "q", "NULL", "s", "q", "t", "a")

	plain := NewVector(types.String)
	plain.Append(types.StringValue("p"))
	plain.AppendVector(v.Window(3, 5))
	same("AppendVector onto plain", plain, false, "p", "b", "c")
	reserved := NewVector(types.String)
	reserved.Reserve(8)
	reserved.AppendVector(v.Window(0, 1))
	same("AppendVector onto a reserved vector", reserved, false, "b")

	appended := v.Slice(0, 2)
	appended.Append(types.StringValue("z"))
	appended.Append(types.NullValue(types.String))
	same("Append", appended, false, "b", "NULL", "z", "NULL")
	appendedNull := v.Slice(0, 1)
	appendedNull.Append(types.NullValue(types.String))
	same("Append NULL", appendedNull, false, "b", "NULL")

	// Five 4-byte codes, plus each entry once (its bytes and 4).
	if got, want := v.ByteSize(), int64(5*4+4*(1+4)+5); got != want {
		t.Errorf("ByteSize = %d, want %d", got, want)
	}
}
