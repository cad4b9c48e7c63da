// Package types defines the SQL type system shared by the engine, the
// storage formats and the OCS embedded engine: scalar types, schemas and
// value-level operations (comparison, coercion, parsing, formatting).
//
// The type system is deliberately small — BIGINT, DOUBLE, VARCHAR, BOOLEAN
// and DATE — matching the types exercised by the paper's workloads (Laghos,
// Deep Water Impact, TPC-H Q1). DOUBLE is a first-class citizen: unlike
// real S3 Select, every layer of this system supports double-precision
// floating point, which the paper calls out as a requirement for
// scientific datasets.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the scalar SQL types supported across the system.
type Kind uint8

const (
	// Unknown is the zero Kind; it is never valid in a schema.
	Unknown Kind = iota
	// Int64 is SQL BIGINT.
	Int64
	// Float64 is SQL DOUBLE.
	Float64
	// String is SQL VARCHAR.
	String
	// Bool is SQL BOOLEAN.
	Bool
	// Date is a calendar date stored as days since the Unix epoch.
	Date
)

// String returns the SQL spelling of the type.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	case Date:
		return "DATE"
	default:
		return "UNKNOWN"
	}
}

// Valid reports whether k is one of the defined scalar types.
func (k Kind) Valid() bool { return k >= Int64 && k <= Date }

// Numeric reports whether the type participates in arithmetic.
func (k Kind) Numeric() bool { return k == Int64 || k == Float64 || k == Date }

// Orderable reports whether values of the type can be compared with < / >.
func (k Kind) Orderable() bool { return k != Unknown }

// ParseKind converts a SQL type name (case-sensitive upper) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "BIGINT", "INT", "INTEGER":
		return Int64, nil
	case "DOUBLE", "FLOAT", "REAL":
		return Float64, nil
	case "VARCHAR", "STRING", "TEXT":
		return String, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	case "DATE":
		return Date, nil
	default:
		return Unknown, fmt.Errorf("types: unknown type name %q", s)
	}
}

// Column describes one column of a table or intermediate schema.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// IndexOf returns the position of the named column, or -1.
func (s *Schema) IndexOf(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Kinds returns the column types in order.
func (s *Schema) Kinds() []Kind {
	kinds := make([]Kind, len(s.Columns))
	for i, c := range s.Columns {
		kinds[i] = c.Type
	}
	return kinds
}

// Project returns a new schema containing the columns at the given indices.
func (s *Schema) Project(indices []int) *Schema {
	out := make([]Column, len(indices))
	for i, idx := range indices {
		out[i] = s.Columns[idx]
	}
	return &Schema{Columns: out}
}

// Equal reports whether two schemas have the same column names and types.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(a BIGINT, b DOUBLE)".
func (s *Schema) String() string {
	out := "("
	for i, c := range s.Columns {
		if i > 0 {
			out += ", "
		}
		out += c.Name + " " + c.Type.String()
	}
	return out + ")"
}

// Value is a dynamically typed SQL scalar. The zero Value is SQL NULL.
// Exactly one of the payload fields is meaningful, selected by Kind;
// Null overrides all.
type Value struct {
	Kind Kind
	Null bool
	I    int64   // Int64, Date (days since epoch)
	F    float64 // Float64
	S    string  // String
	B    bool    // Bool
}

// NullValue returns a typed NULL.
func NullValue(k Kind) Value { return Value{Kind: k, Null: true} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Kind: Int64, I: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Kind: Float64, F: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Kind: String, S: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value { return Value{Kind: Bool, B: v} }

// DateValue wraps a day count since the Unix epoch.
func DateValue(days int64) Value { return Value{Kind: Date, I: days} }

// DateFromString parses "YYYY-MM-DD" into a Date value.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("types: bad date %q: %w", s, err)
	}
	return DateValue(t.Unix() / 86400), nil
}

// AsFloat converts a numeric value to float64. It panics on non-numeric
// kinds; callers must type-check first.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case Int64, Date:
		return float64(v.I)
	case Float64:
		return v.F
	default:
		panic("types: AsFloat on " + v.Kind.String())
	}
}

// String formats the value for display (CSV/CLI). NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	case Bool:
		return strconv.FormatBool(v.B)
	case Date:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// Compare orders two values of the same kind: -1, 0 or +1. NULLs sort
// before all non-NULL values (NULLS FIRST), matching the engine's sort
// semantics. Comparing values of different kinds panics, except that
// numeric kinds compare numerically: Int64 and Date exactly, as the
// integers they hold, and either against Float64 as floats.
func Compare(a, b Value) int {
	if a.Null || b.Null {
		switch {
		case a.Null && b.Null:
			return 0
		case a.Null:
			return -1
		default:
			return 1
		}
	}
	if a.Kind != b.Kind {
		switch {
		case !a.Kind.Numeric() || !b.Kind.Numeric():
			panic(fmt.Sprintf("types: comparing %s to %s", a.Kind, b.Kind))
		case a.Kind == Float64 || b.Kind == Float64:
			return compareFloat(a.AsFloat(), b.AsFloat())
		}
		// Int64 against Date: their integers compare below.
	}
	switch a.Kind {
	case Int64, Date:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	case Float64:
		return compareFloat(a.F, b.F)
	case String:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	case Bool:
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		default:
			return 0
		}
	default:
		panic("types: comparing unknown kind")
	}
}

// CompareFloat orders two float64s under the engine's total order: NaN
// sorts after everything and equal to itself. Exported so the vectorized
// kernels (internal/expr) produce bit-identical results to Compare.
func CompareFloat(a, b float64) int { return compareFloat(a, b) }

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaNs order after everything else, and equal to each other, so
	// sorting is total.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// Equal reports value equality under Compare semantics (NULL == NULL).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce converts v to the target kind where an implicit SQL conversion
// exists (int↔float, date→int). It returns an error for lossy or
// undefined conversions other than int→float.
func Coerce(v Value, target Kind) (Value, error) {
	if v.Kind == target {
		return v, nil
	}
	if v.Null {
		return NullValue(target), nil
	}
	switch {
	case v.Kind == Int64 && target == Float64:
		return FloatValue(float64(v.I)), nil
	case v.Kind == Float64 && target == Int64:
		return IntValue(int64(v.F)), nil
	case v.Kind == Date && target == Int64:
		return IntValue(v.I), nil
	case v.Kind == Int64 && target == Date:
		return DateValue(v.I), nil
	case v.Kind == String && target == Date:
		return DateFromString(v.S)
	default:
		return Value{}, fmt.Errorf("types: cannot coerce %s to %s", v.Kind, target)
	}
}

// CommonKind returns the type two operands should be promoted to for
// arithmetic or comparison, or an error when no promotion exists.
func CommonKind(a, b Kind) (Kind, error) {
	if a == b {
		return a, nil
	}
	if a.Numeric() && b.Numeric() {
		if a == Float64 || b == Float64 {
			return Float64, nil
		}
		// Date vs Int64 promotes to Int64 (day arithmetic).
		return Int64, nil
	}
	return Unknown, fmt.Errorf("types: no common type for %s and %s", a, b)
}

// ParseValue parses the textual form produced by Value.String back into a
// typed value; used by the CSV (S3 Select-style) result path.
func ParseValue(s string, k Kind) (Value, error) {
	if s == "NULL" {
		return NullValue(k), nil
	}
	switch k {
	case Int64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: bad BIGINT %q: %w", s, err)
		}
		return IntValue(i), nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("types: bad DOUBLE %q: %w", s, err)
		}
		return FloatValue(f), nil
	case String:
		return StringValue(s), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("types: bad BOOLEAN %q: %w", s, err)
		}
		return BoolValue(b), nil
	case Date:
		return DateFromString(s)
	default:
		return Value{}, fmt.Errorf("types: cannot parse kind %v", k)
	}
}
