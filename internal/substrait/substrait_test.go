package substrait

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/types"
)

func baseSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "y", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
		types.Column{Name: "tag", Type: types.String},
	)
}

// laghosLikePlan builds Read -> Filter -> Aggregate -> Sort -> Fetch,
// mirroring the paper's Laghos query shape.
func laghosLikePlan(t *testing.T) *Plan {
	t.Helper()
	read := &ReadRel{Bucket: "lanl", Objects: []string{"part-000.pql"}, BaseSchema: baseSchema()}
	cond, err := expr.NewBetween(
		expr.Col(1, "x", types.Float64),
		expr.Lit(types.FloatValue(0.8)),
		expr.Lit(types.FloatValue(3.2)))
	if err != nil {
		t.Fatal(err)
	}
	filter := &FilterRel{Input: read, Condition: cond}
	agg := &AggregateRel{
		Input:     filter,
		GroupKeys: []int{0},
		Measures: []Measure{
			{Func: AggMin, Arg: 1, Name: "min_x"},
			{Func: AggSum, Arg: 3, Name: "sum_e"},
			{Func: AggCount, Arg: 3, Name: "cnt_e"},
			{Func: AggCountStar, Arg: -1, Name: "cnt"},
		},
	}
	sort := &SortRel{Input: agg, Keys: []SortKey{{Column: 2, Descending: false}}}
	fetch := &FetchRel{Input: sort, Count: 100}
	return NewPlan(fetch)
}

func TestOutputSchemas(t *testing.T) {
	p := laghosLikePlan(t)
	schema, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	want := "(vertex_id BIGINT, min_x DOUBLE, sum_e DOUBLE, cnt_e BIGINT, cnt BIGINT)"
	if got := schema.String(); got != want {
		t.Errorf("schema = %s, want %s", got, want)
	}
}

func TestReadProjection(t *testing.T) {
	r := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema(), Projection: []int{4, 0}}
	s, err := r.OutputSchema()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Columns[0].Name != "tag" {
		t.Errorf("projected schema = %v", s)
	}
	bad := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema(), Projection: []int{99}}
	if _, err := bad.OutputSchema(); err == nil {
		t.Error("out-of-range projection accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	read := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema()}
	cases := map[string]Rel{
		"filter non-bool": &FilterRel{Input: read, Condition: expr.Col(0, "vertex_id", types.Int64)},
		"filter nil cond": &FilterRel{Input: read},
		"project empty":   &ProjectRel{Input: read},
		"project name mismatch": &ProjectRel{Input: read,
			Expressions: []expr.Expr{expr.Col(0, "vertex_id", types.Int64)}, Names: []string{"a", "b"}},
		"agg bad key":     &AggregateRel{Input: read, GroupKeys: []int{77}},
		"agg no outputs":  &AggregateRel{Input: read},
		"agg bad func":    &AggregateRel{Input: read, Measures: []Measure{{Func: "median", Arg: 0, Name: "m"}}},
		"agg sum varchar": &AggregateRel{Input: read, Measures: []Measure{{Func: AggSum, Arg: 4, Name: "s"}}},
		"agg bad arg":     &AggregateRel{Input: read, Measures: []Measure{{Func: AggSum, Arg: 9, Name: "s"}}},
		"sort no keys":    &SortRel{Input: read},
		"sort bad key":    &SortRel{Input: read, Keys: []SortKey{{Column: 42}}},
		"fetch negative":  &FetchRel{Input: read, Count: -1},
		"fetch offset":    &FetchRel{Input: read, Offset: 5, Count: 3},
	}
	for name, rel := range cases {
		if _, err := NewPlan(rel).Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	if _, err := (&Plan{Version: Version}).Validate(); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := (&Plan{Version: "other", Root: read}).Validate(); err == nil {
		t.Error("version mismatch accepted")
	}
}

func TestAggResultKinds(t *testing.T) {
	if k, err := AggSum.ResultKind(types.Int64); err != nil || k != types.Int64 {
		t.Error("sum(int) wrong")
	}
	if k, err := AggSum.ResultKind(types.Float64); err != nil || k != types.Float64 {
		t.Error("sum(float) wrong")
	}
	if k, err := AggCount.ResultKind(types.String); err != nil || k != types.Int64 {
		t.Error("count(varchar) wrong")
	}
	if k, err := AggMin.ResultKind(types.String); err != nil || k != types.String {
		t.Error("min(varchar) wrong")
	}
	if _, err := AggFunc("stddev").ResultKind(types.Float64); err == nil {
		t.Error("unknown func accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := laghosLikePlan(t)
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Compare by validated output schema and plan summary.
	s1, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("schemas differ: %v vs %v", s1, s2)
	}
	// Decode hands out the schema Validate derives, with the same plan.
	decoded, s3, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Equal(s1) || decoded.String() != got.String() {
		t.Errorf("Decode = %q with %v, Unmarshal %q with %v", decoded, s3, got, s1)
	}
	if p.String() != got.String() {
		t.Errorf("plan summaries differ: %q vs %q", p.String(), got.String())
	}
	// Structure survives: fetch -> sort -> agg -> filter -> read.
	fetch, ok := got.Root.(*FetchRel)
	if !ok || fetch.Count != 100 {
		t.Fatalf("root = %T", got.Root)
	}
	sort, ok := fetch.Input.(*SortRel)
	if !ok || len(sort.Keys) != 1 || sort.Keys[0].Column != 2 {
		t.Fatalf("sort = %+v", fetch.Input)
	}
	agg, ok := sort.Input.(*AggregateRel)
	if !ok || len(agg.Measures) != 4 || agg.Measures[3].Func != AggCountStar {
		t.Fatalf("agg = %+v", sort.Input)
	}
	filter, ok := agg.Input.(*FilterRel)
	if !ok || filter.Condition.String() != "(x BETWEEN 0.8 AND 3.2)" {
		t.Fatalf("filter = %+v", agg.Input)
	}
	read, ok := filter.Input.(*ReadRel)
	if !ok || read.Bucket != "lanl" || len(read.Objects) != 1 || read.Objects[0] != "part-000.pql" {
		t.Fatalf("read = %+v", filter.Input)
	}
}

func TestMarshalBloomFilterRoundTrip(t *testing.T) {
	read := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema()}
	cond, err := expr.NewCompare(expr.Gt,
		expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	bloomRel := &BloomFilterRel{
		Input:   &FilterRel{Input: read, Condition: cond},
		Column:  0,
		NumHash: 7,
		Bits:    []byte{0x01, 0x80, 0xFF, 0x00, 0x42, 0x00, 0x00, 0x00},
	}
	p := NewPlan(bloomRel)
	if _, err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.Root.(*BloomFilterRel)
	if !ok {
		t.Fatalf("root = %T, want BloomFilterRel", got.Root)
	}
	if b.Column != 0 || b.NumHash != 7 || string(b.Bits) != string(bloomRel.Bits) {
		t.Fatalf("round trip lost fields: %+v", b)
	}
	if _, ok := b.Input.(*FilterRel); !ok {
		t.Fatalf("bloom input = %T, want FilterRel", b.Input)
	}
	if !strings.Contains(got.String(), "BloomFilter[c0, 8B]") {
		t.Errorf("plan summary %q missing bloom stage", got.String())
	}

	// Validation rejects malformed bloom rels.
	bad := []*BloomFilterRel{
		{Input: read, Column: 99, NumHash: 4, Bits: []byte{1}},
		{Input: read, Column: 0, NumHash: 0, Bits: []byte{1}},
		{Input: read, Column: 0, NumHash: 4},
	}
	for i, rel := range bad {
		if _, err := NewPlan(rel).Validate(); err == nil {
			t.Errorf("bad bloom rel %d accepted", i)
		}
	}
}

func TestMarshalProjectAndAllExprKinds(t *testing.T) {
	read := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema(), Projection: []int{0, 1, 3}}
	// Build an expression exercising every node kind.
	add, _ := expr.NewArith(expr.Add, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(1)))
	mod, _ := expr.NewArith(expr.Mod, expr.Col(0, "vertex_id", types.Int64), expr.Lit(types.IntValue(500)))
	cmp, _ := expr.NewCompare(expr.Ge, add, expr.Lit(types.FloatValue(0)))
	isn := &expr.IsNull{E: expr.Col(2, "e", types.Float64), Negate: true}
	logic, _ := expr.NewLogic(expr.Or, cmp, isn)
	not, _ := expr.NewNot(logic)
	btw, _ := expr.NewBetween(expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(0)), expr.Lit(types.FloatValue(5)))
	cast := &expr.Cast{E: mod, To: types.Float64}

	proj := &ProjectRel{
		Input:       read,
		Expressions: []expr.Expr{cast, btw, not},
		Names:       []string{"c", "b", "n"},
	}
	p := NewPlan(proj)
	if _, err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.Root.(*ProjectRel)
	if len(gp.Expressions) != 3 {
		t.Fatalf("exprs = %d", len(gp.Expressions))
	}
	if gp.Expressions[0].String() != cast.String() ||
		gp.Expressions[1].String() != btw.String() ||
		gp.Expressions[2].String() != not.String() {
		t.Errorf("expr round trip mismatch:\n%v\n%v\n%v", gp.Expressions[0], gp.Expressions[1], gp.Expressions[2])
	}
	gr := gp.Input.(*ReadRel)
	if len(gr.Projection) != 3 || gr.Projection[2] != 3 {
		t.Errorf("projection = %v", gr.Projection)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	p := laghosLikePlan(t)
	data, _ := Marshal(p)
	if _, err := Unmarshal(data[:len(data)/2]); err == nil {
		t.Error("truncated plan accepted")
	}
	if _, err := Unmarshal([]byte{0xFF, 0xFF}); err == nil {
		t.Error("garbage accepted")
	}
	// An empty message decodes to a plan with no root -> validation error.
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestUnmarshalRejectsDeepNesting: three bytes buy one level of decoder
// recursion, so 21 MB of nested FilterRels used to overflow the goroutine
// stack of whichever storage node received them — fatal, not an error.
func TestUnmarshalRejectsDeepNesting(t *testing.T) {
	const depth = 200_000
	sizes := make([]int, depth+1) // sizes[i]: a relation nested i deep
	for i := 1; i <= depth; i++ {
		sizes[i] = 3 + len(binary.AppendUvarint(nil, uint64(sizes[i-1]))) + sizes[i-1]
	}
	msg := binary.AppendUvarint([]byte{2<<3 | 2}, uint64(sizes[depth])) // Plan.Root
	for i := depth; i >= 1; i-- {
		msg = append(msg, 1<<3|0, relFilter, 7<<3|2) // kind = filter; input = …
		msg = binary.AppendUvarint(msg, uint64(sizes[i-1]))
	}
	if _, err := Unmarshal(msg); !errors.Is(err, protowire.ErrTooDeep) {
		t.Errorf("a plan nested %d deep: %v, want %v", depth, err, protowire.ErrTooDeep)
	}
}

func TestPlanString(t *testing.T) {
	p := laghosLikePlan(t)
	s := p.String()
	for _, part := range []string{"Read(lanl/part-000.pql)", "Filter", "Aggregate[keys=1, measures=4]", "Sort[1]", "Fetch[100]"} {
		if !strings.Contains(s, part) {
			t.Errorf("plan string %q missing %q", s, part)
		}
	}
	idx := strings.Index(s, "Read")
	if idx != 0 {
		t.Errorf("plan string should start with Read: %q", s)
	}
}

func TestValidAggFunc(t *testing.T) {
	for _, f := range []AggFunc{AggSum, AggMin, AggMax, AggCount, AggCountStar} {
		if !ValidAggFunc(f) {
			t.Errorf("%s must be valid", f)
		}
	}
	if ValidAggFunc("avg") {
		t.Error("avg must not be storage-executable (rewritten to sum+count)")
	}
}

// Property: plans with random filter thresholds and fetch counts
// round-trip through Marshal/Unmarshal with identical summaries and
// schemas.
func TestQuickPlanRoundTrip(t *testing.T) {
	f := func(threshold float64, count uint16, desc bool, keyPick uint8) bool {
		read := &ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: baseSchema()}
		cond, err := expr.NewCompare(expr.Gt, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(threshold)))
		if err != nil {
			return false
		}
		key := int(keyPick) % baseSchema().Len()
		plan := NewPlan(&FetchRel{
			Input: &SortRel{
				Input: &FilterRel{Input: read, Condition: cond},
				Keys:  []SortKey{{Column: key, Descending: desc}},
			},
			Count: int64(count),
		})
		if _, err := plan.Validate(); err != nil {
			return false
		}
		data, err := Marshal(plan)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		gf := got.Root.(*FetchRel)
		gs := gf.Input.(*SortRel)
		return gf.Count == int64(count) &&
			gs.Keys[0].Column == key && gs.Keys[0].Descending == desc &&
			got.String() == plan.String()
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
