package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Int64:   "BIGINT",
		Float64: "DOUBLE",
		String:  "VARCHAR",
		Bool:    "BOOLEAN",
		Date:    "DATE",
		Unknown: "UNKNOWN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"BIGINT", Int64}, {"INT", Int64}, {"INTEGER", Int64},
		{"DOUBLE", Float64}, {"FLOAT", Float64}, {"REAL", Float64},
		{"VARCHAR", String}, {"STRING", String}, {"TEXT", String},
		{"BOOLEAN", Bool}, {"BOOL", Bool},
		{"DATE", Date},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestKindPredicates(t *testing.T) {
	if !Int64.Numeric() || !Float64.Numeric() || !Date.Numeric() {
		t.Error("Int64/Float64/Date must be numeric")
	}
	if String.Numeric() || Bool.Numeric() {
		t.Error("String/Bool must not be numeric")
	}
	if Unknown.Valid() || !Date.Valid() {
		t.Error("Valid() wrong for Unknown/Date")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Column{"a", Int64}, Column{"b", Float64}, Column{"c", String})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IndexOf("b") != 1 || s.IndexOf("zzz") != -1 {
		t.Error("IndexOf wrong")
	}
	if got := s.String(); got != "(a BIGINT, b DOUBLE, c VARCHAR)" {
		t.Errorf("String() = %q", got)
	}
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Errorf("Project wrong: %v", p)
	}
	if !s.Equal(NewSchema(s.Columns...)) {
		t.Error("Equal(self copy) = false")
	}
	if s.Equal(p) {
		t.Error("Equal(different) = true")
	}
	names, kinds := s.Names(), s.Kinds()
	if names[2] != "c" || kinds[1] != Float64 {
		t.Error("Names/Kinds wrong")
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{IntValue(-42), "-42"},
		{FloatValue(2.5), "2.5"},
		{StringValue("hi"), "hi"},
		{BoolValue(true), "true"},
		{NullValue(Int64), "NULL"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	v, err := DateFromString("1998-09-02")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "1998-09-02" {
		t.Errorf("date formats as %q", got)
	}
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Error("bad date should fail")
	}
}

func TestCompareSameKind(t *testing.T) {
	if Compare(IntValue(1), IntValue(2)) != -1 ||
		Compare(IntValue(2), IntValue(1)) != 1 ||
		Compare(IntValue(3), IntValue(3)) != 0 {
		t.Error("int compare wrong")
	}
	if Compare(StringValue("a"), StringValue("b")) != -1 {
		t.Error("string compare wrong")
	}
	if Compare(BoolValue(false), BoolValue(true)) != -1 {
		t.Error("bool compare wrong")
	}
	if Compare(FloatValue(1.5), FloatValue(1.5)) != 0 {
		t.Error("float compare wrong")
	}
}

// TestCompareIntAgainstDate: Int64 and Date compare as the integers they
// hold, exactly — past 2^53, where float64 would merge neighbours — as the
// comparison kernels do; against Float64 either compares as a float.
func TestCompareIntAgainstDate(t *testing.T) {
	big := int64(1)<<62 + 1
	if Compare(IntValue(big), Value{Kind: Date, I: big - 1}) != 1 || Compare(Value{Kind: Date, I: big}, IntValue(big)) != 0 {
		t.Error("Int64 against Date is not exact")
	}
	if Compare(Value{Kind: Date, I: 2}, FloatValue(2.5)) != -1 {
		t.Error("Date against Float64 is not numeric")
	}
}

func TestCompareNulls(t *testing.T) {
	n := NullValue(Int64)
	if Compare(n, IntValue(0)) != -1 {
		t.Error("NULL must sort before values")
	}
	if Compare(IntValue(0), n) != 1 {
		t.Error("value must sort after NULL")
	}
	if Compare(n, NullValue(Int64)) != 0 {
		t.Error("NULL == NULL under Compare")
	}
	if !Equal(n, NullValue(Int64)) {
		t.Error("Equal(NULL, NULL) = false")
	}
}

func TestCompareNaN(t *testing.T) {
	nan := FloatValue(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN must equal NaN for total ordering")
	}
	if Compare(nan, FloatValue(1)) != 1 || Compare(FloatValue(1), nan) != -1 {
		t.Error("NaN must sort after numbers")
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(IntValue(2), FloatValue(2.5)) != -1 {
		t.Error("int vs float compare wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("comparing VARCHAR to BIGINT must panic")
		}
	}()
	Compare(StringValue("x"), IntValue(1))
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(IntValue(3), Float64)
	if err != nil || v.F != 3.0 {
		t.Errorf("int->float: %v %v", v, err)
	}
	v, err = Coerce(FloatValue(3.9), Int64)
	if err != nil || v.I != 3 {
		t.Errorf("float->int: %v %v", v, err)
	}
	v, err = Coerce(NullValue(Int64), Float64)
	if err != nil || !v.Null || v.Kind != Float64 {
		t.Errorf("null coerce: %v %v", v, err)
	}
	if _, err = Coerce(BoolValue(true), Int64); err == nil {
		t.Error("bool->int must fail")
	}
	d, _ := DateFromString("2020-01-01")
	v, err = Coerce(d, Int64)
	if err != nil || v.Kind != Int64 {
		t.Errorf("date->int: %v %v", v, err)
	}
}

func TestCommonKind(t *testing.T) {
	k, err := CommonKind(Int64, Float64)
	if err != nil || k != Float64 {
		t.Errorf("CommonKind(int,float) = %v, %v", k, err)
	}
	k, err = CommonKind(Date, Int64)
	if err != nil || k != Int64 {
		t.Errorf("CommonKind(date,int) = %v, %v", k, err)
	}
	if _, err = CommonKind(String, Int64); err == nil {
		t.Error("CommonKind(string,int) must fail")
	}
	k, err = CommonKind(String, String)
	if err != nil || k != String {
		t.Errorf("CommonKind(string,string) = %v, %v", k, err)
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{
		IntValue(-7), FloatValue(1.25), StringValue("abc"),
		BoolValue(false), DateValue(10000), NullValue(Float64),
	}
	for _, v := range vals {
		got, err := ParseValue(v.String(), v.Kind)
		if err != nil {
			t.Fatalf("ParseValue(%q, %v): %v", v.String(), v.Kind, err)
		}
		if !Equal(got, v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := ParseValue("xyz", Int64); err == nil {
		t.Error("bad int parse must fail")
	}
	if _, err := ParseValue("xyz", Bool); err == nil {
		t.Error("bad bool parse must fail")
	}
}

// Property: Compare is antisymmetric and ParseValue∘String is identity for
// int64 values.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(IntValue(a), IntValue(b)) == -Compare(IntValue(b), IntValue(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloatStringRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true // NaN does not round-trip through ParseFloat equality
		}
		v, err := ParseValue(FloatValue(x).String(), Float64)
		return err == nil && v.F == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCoerceIntFloatExact(t *testing.T) {
	f := func(x int32) bool {
		v, err := Coerce(IntValue(int64(x)), Float64)
		return err == nil && v.F == float64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
