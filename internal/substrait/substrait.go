// Package substrait implements the Substrait-like intermediate
// representation used for query-plan exchange between the Presto-OCS
// connector and the OCS storage system. Like real Substrait, plans are
// trees of relational operators (read, filter, project, aggregate, sort,
// fetch) with embedded scalar expressions, referencing functions through a
// stable named namespace, serialized as protobuf messages (here via
// internal/protowire).
//
// The connector translates pushdown operators into a Plan; the OCS
// frontend deserializes and validates it, and storage nodes execute it
// with the embedded engine.
package substrait

import (
	"fmt"
	"strings"

	"prestocs/internal/bloom"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// Version is the IR version stamped into serialized plans.
const Version = "prestocs-substrait/1"

// AggFunc names an aggregate function in the registry.
type AggFunc string

// The aggregate function namespace. AVG is intentionally absent from the
// storage-executable set: the connector rewrites avg(x) into sum(x) +
// count(x) partials so distributed results stay exact (DESIGN.md §4).
const (
	AggSum       AggFunc = "sum"
	AggMin       AggFunc = "min"
	AggMax       AggFunc = "max"
	AggCount     AggFunc = "count"      // count(x): non-null count
	AggCountStar AggFunc = "count_star" // count(*)
)

// ValidAggFunc reports whether f is in the registry.
func ValidAggFunc(f AggFunc) bool {
	switch f {
	case AggSum, AggMin, AggMax, AggCount, AggCountStar:
		return true
	}
	return false
}

// ResultKind returns the output type of the aggregate given its input
// type.
func (f AggFunc) ResultKind(input types.Kind) (types.Kind, error) {
	switch f {
	case AggCount, AggCountStar:
		return types.Int64, nil
	case AggSum:
		switch input {
		case types.Int64:
			return types.Int64, nil
		case types.Float64:
			return types.Float64, nil
		default:
			return types.Unknown, fmt.Errorf("substrait: sum over %s", input)
		}
	case AggMin, AggMax:
		if !input.Orderable() || !input.Valid() {
			return types.Unknown, fmt.Errorf("substrait: %s over %s", f, input)
		}
		return input, nil
	default:
		return types.Unknown, fmt.Errorf("substrait: unknown aggregate %q", f)
	}
}

// Measure is one aggregate computation in an AggregateRel.
type Measure struct {
	Func AggFunc
	// Arg is the input-column ordinal; -1 for count_star.
	Arg int
	// Name labels the output column.
	Name string
}

// SortKey orders by one input column.
type SortKey struct {
	Column     int
	Descending bool
}

// Rel is a relational operator node.
type Rel interface {
	// OutputSchema computes the operator's result schema.
	OutputSchema() (*types.Schema, error)
	isRel()
}

// ReadRel scans stored objects (a named table in real Substrait): each
// listed object in turn, the rest of the plan run over each one on its own
// (a storage node never merges rows across objects).
type ReadRel struct {
	Bucket string
	// Objects names the objects to scan, in order; at least one, none
	// empty.
	Objects []string
	// BaseSchema is the full object schema.
	BaseSchema *types.Schema
	// Projection selects column ordinals to emit; nil means all columns.
	Projection []int
}

func (r *ReadRel) isRel() {}

// OutputSchema returns the projected schema.
func (r *ReadRel) OutputSchema() (*types.Schema, error) {
	if r.BaseSchema == nil {
		return nil, fmt.Errorf("substrait: read without base schema")
	}
	if len(r.Objects) == 0 {
		return nil, fmt.Errorf("substrait: read lists no objects")
	}
	for _, o := range r.Objects {
		if o == "" {
			return nil, fmt.Errorf("substrait: read lists an empty object name")
		}
	}
	if r.Projection == nil {
		return r.BaseSchema, nil
	}
	for _, i := range r.Projection {
		if i < 0 || i >= r.BaseSchema.Len() {
			return nil, fmt.Errorf("substrait: projection ordinal %d out of range", i)
		}
	}
	return r.BaseSchema.Project(r.Projection), nil
}

// FilterRel keeps input rows satisfying Condition.
type FilterRel struct {
	Input     Rel
	Condition expr.Expr
}

func (r *FilterRel) isRel() {}

// OutputSchema passes the input schema through.
func (r *FilterRel) OutputSchema() (*types.Schema, error) {
	if r.Condition == nil {
		return nil, fmt.Errorf("substrait: filter without condition")
	}
	if r.Condition.Type() != types.Bool {
		return nil, fmt.Errorf("substrait: filter condition has type %s", r.Condition.Type())
	}
	in, err := r.Input.OutputSchema()
	if err != nil {
		return nil, err
	}
	if err := checkRefs(r.Condition, in); err != nil {
		return nil, err
	}
	return in, nil
}

// checkRefs holds every column reference in e to the input it reads: its
// ordinal in range, its kind that column's, and its name that column's up
// to case (SQL identifiers are case-insensitive).
func checkRefs(e expr.Expr, in *types.Schema) error {
	var err error
	expr.Walk(e, func(x expr.Expr) {
		c, ok := x.(*expr.ColumnRef)
		if !ok || err != nil {
			return
		}
		switch {
		case c.Index < 0 || c.Index >= in.Len():
			err = fmt.Errorf("substrait: column %s ordinal %d out of range (%d cols)", c.Name, c.Index, in.Len())
		case c.Kind != in.Columns[c.Index].Type:
			err = fmt.Errorf("substrait: column %s read as %s, input column %d is %s", c.Name, c.Kind, c.Index, in.Columns[c.Index].Type)
		case !strings.EqualFold(c.Name, in.Columns[c.Index].Name):
			err = fmt.Errorf("substrait: column %s at ordinal %d, input column is %s", c.Name, c.Index, in.Columns[c.Index].Name)
		}
	})
	return err
}

// ProjectRel computes expressions over the input.
type ProjectRel struct {
	Input       Rel
	Expressions []expr.Expr
	Names       []string
}

func (r *ProjectRel) isRel() {}

// OutputSchema derives column types from the expressions.
func (r *ProjectRel) OutputSchema() (*types.Schema, error) {
	if len(r.Expressions) == 0 {
		return nil, fmt.Errorf("substrait: project without expressions")
	}
	if len(r.Names) != len(r.Expressions) {
		return nil, fmt.Errorf("substrait: project has %d names for %d expressions", len(r.Names), len(r.Expressions))
	}
	in, err := r.Input.OutputSchema()
	if err != nil {
		return nil, err
	}
	cols := make([]types.Column, len(r.Expressions))
	for i, e := range r.Expressions {
		if err := checkRefs(e, in); err != nil {
			return nil, err
		}
		cols[i] = types.Column{Name: r.Names[i], Type: e.Type()}
	}
	return types.NewSchema(cols...), nil
}

// AggregateRel groups by key columns and computes measures. Output schema
// is group keys (in order) followed by measures.
type AggregateRel struct {
	Input     Rel
	GroupKeys []int
	Measures  []Measure
}

func (r *AggregateRel) isRel() {}

// OutputSchema returns keys then measures.
func (r *AggregateRel) OutputSchema() (*types.Schema, error) {
	in, err := r.Input.OutputSchema()
	if err != nil {
		return nil, err
	}
	return AggregateSchema(in, r.GroupKeys, r.Measures, false)
}

// AggregateSchema is the one rule for an aggregation's output over in: the
// group keys, in order, then one column per measure of its result kind.
// A final aggregation reads partial states — the keys, then one state
// column per measure, in measure order — so a measure's input kind is its
// state column's, and a count's state, which merges by summation, must be
// BIGINT.
func AggregateSchema(in *types.Schema, keys []int, measures []Measure, final bool) (*types.Schema, error) {
	var cols []types.Column
	for _, k := range keys {
		if k < 0 || k >= in.Len() {
			return nil, fmt.Errorf("substrait: group key ordinal %d out of range", k)
		}
		cols = append(cols, in.Columns[k])
	}
	for i, m := range measures {
		if !ValidAggFunc(m.Func) {
			return nil, fmt.Errorf("substrait: unknown aggregate %q", m.Func)
		}
		inKind := types.Int64
		switch {
		case final:
			state := len(keys) + i
			if state >= in.Len() {
				return nil, fmt.Errorf("substrait: final aggregate input missing state column %d", state)
			}
			inKind = in.Columns[state].Type
			if (m.Func == AggCount || m.Func == AggCountStar) && inKind != types.Int64 {
				return nil, fmt.Errorf("substrait: final %s over a %s state column", m.Func, inKind)
			}
		case m.Func != AggCountStar:
			if m.Arg < 0 || m.Arg >= in.Len() {
				return nil, fmt.Errorf("substrait: measure arg ordinal %d out of range", m.Arg)
			}
			inKind = in.Columns[m.Arg].Type
		}
		outKind, err := m.Func.ResultKind(inKind)
		if err != nil {
			return nil, err
		}
		cols = append(cols, types.Column{Name: m.Name, Type: outKind})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("substrait: aggregate with no keys or measures")
	}
	return types.NewSchema(cols...), nil
}

// BloomFilterRel keeps input rows whose Column value may be a member of
// the attached bloom filter — the wire form of a join's build-side
// semi-filter pushed into the probe-side scan. Bits is the raw bit
// array; NumHash the double-hashing probe count, or 0 for the direct
// form, whose bit v − Lo stands for the BIGINT or DATE key v (Lo is
// meaningless in the hashed form). The hash functions are fixed by the
// IR contract (see internal/bloom), so engine and storage node agree
// bit-for-bit. It always sits above any FilterRel so the filter-on-read
// row-group pruning fusion stays intact.
type BloomFilterRel struct {
	Input   Rel
	Column  int
	NumHash int
	Bits    []byte
	Lo      int64
}

func (r *BloomFilterRel) isRel() {}

// OutputSchema passes the input schema through after validating the
// filter shape; a direct filter must key a BIGINT or DATE column.
func (r *BloomFilterRel) OutputSchema() (*types.Schema, error) {
	in, err := r.Input.OutputSchema()
	if err != nil {
		return nil, err
	}
	if r.Column < 0 || r.Column >= in.Len() {
		return nil, fmt.Errorf("substrait: bloom filter column ordinal %d out of range", r.Column)
	}
	if err := bloom.CheckShape(len(r.Bits), r.NumHash); err != nil {
		return nil, fmt.Errorf("substrait: %w", err)
	}
	if kind := in.Columns[r.Column].Type; r.NumHash == 0 && kind != types.Int64 && kind != types.Date {
		return nil, fmt.Errorf("substrait: direct bloom filter over %s column %d", kind, r.Column)
	}
	return in, nil
}

// SortRel orders the input.
type SortRel struct {
	Input Rel
	Keys  []SortKey
}

func (r *SortRel) isRel() {}

// OutputSchema passes the input schema through.
func (r *SortRel) OutputSchema() (*types.Schema, error) {
	in, err := r.Input.OutputSchema()
	if err != nil {
		return nil, err
	}
	if len(r.Keys) == 0 {
		return nil, fmt.Errorf("substrait: sort without keys")
	}
	for _, k := range r.Keys {
		if k.Column < 0 || k.Column >= in.Len() {
			return nil, fmt.Errorf("substrait: sort key ordinal %d out of range", k.Column)
		}
	}
	return in, nil
}

// FetchRel limits output to its first Count rows. Together with a SortRel
// input it expresses top-N. Offset keeps its place on the wire, but no
// executor skips rows, so a plan is valid only with Offset 0.
type FetchRel struct {
	Input  Rel
	Offset int64
	Count  int64
}

func (r *FetchRel) isRel() {}

// OutputSchema passes the input schema through.
func (r *FetchRel) OutputSchema() (*types.Schema, error) {
	if r.Count < 0 {
		return nil, fmt.Errorf("substrait: negative fetch count")
	}
	if r.Offset != 0 {
		return nil, fmt.Errorf("substrait: fetch offset %d unsupported", r.Offset)
	}
	return r.Input.OutputSchema()
}

// Plan is a complete IR plan.
type Plan struct {
	Version string
	Root    Rel
}

// NewPlan wraps a root relation with the current version.
func NewPlan(root Rel) *Plan { return &Plan{Version: Version, Root: root} }

// Validate type-checks the whole plan and returns its output schema.
func (p *Plan) Validate() (*types.Schema, error) {
	if p.Root == nil {
		return nil, fmt.Errorf("substrait: plan without root")
	}
	if p.Version != Version {
		return nil, fmt.Errorf("substrait: version mismatch: %q (want %q)", p.Version, Version)
	}
	return p.Root.OutputSchema()
}

// WalkRels visits every relation bottom-up.
func WalkRels(r Rel, fn func(Rel)) {
	switch t := r.(type) {
	case *FilterRel:
		WalkRels(t.Input, fn)
	case *BloomFilterRel:
		WalkRels(t.Input, fn)
	case *ProjectRel:
		WalkRels(t.Input, fn)
	case *AggregateRel:
		WalkRels(t.Input, fn)
	case *SortRel:
		WalkRels(t.Input, fn)
	case *FetchRel:
		WalkRels(t.Input, fn)
	}
	fn(r)
}

// String renders a one-line plan summary like
// "Read(bucket/obj) -> Filter -> Aggregate[keys=1, measures=2]".
func (p *Plan) String() string {
	var parts []string
	WalkRels(p.Root, func(r Rel) {
		switch t := r.(type) {
		case *ReadRel:
			parts = append(parts, fmt.Sprintf("Read(%s/%s)", t.Bucket, strings.Join(t.Objects, ",")))
		case *FilterRel:
			parts = append(parts, "Filter")
		case *BloomFilterRel:
			form := fmt.Sprintf("hashed k=%d", t.NumHash)
			if t.NumHash == 0 {
				form = fmt.Sprintf("direct lo=%d", t.Lo)
			}
			parts = append(parts, fmt.Sprintf("BloomFilter[c%d, %dB, %s]", t.Column, len(t.Bits), form))
		case *ProjectRel:
			parts = append(parts, fmt.Sprintf("Project[%d]", len(t.Expressions)))
		case *AggregateRel:
			parts = append(parts, fmt.Sprintf("Aggregate[keys=%d, measures=%d]", len(t.GroupKeys), len(t.Measures)))
		case *SortRel:
			parts = append(parts, fmt.Sprintf("Sort[%d]", len(t.Keys)))
		case *FetchRel:
			parts = append(parts, fmt.Sprintf("Fetch[%d]", t.Count))
		}
	})
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " -> "
		}
		out += p
	}
	return out
}
