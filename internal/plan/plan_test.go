package plan

import (
	"strings"
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// stubHandle is a minimal TableHandle for plan tests.
type stubHandle struct {
	schema *types.Schema
	proj   []int
}

func (h *stubHandle) ConnectorName() string { return "stub" }
func (h *stubHandle) String() string        { return "stub" }
func (h *stubHandle) ScanSchema() *types.Schema {
	if h.proj == nil {
		return h.schema
	}
	return h.schema.Project(h.proj)
}
func (h *stubHandle) WithProjection(cols []int) TableHandle {
	return &stubHandle{schema: h.schema, proj: cols}
}

func baseSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "g", Type: types.String},
	)
}

func scanNode() *TableScan {
	return &TableScan{Catalog: "c", Table: "t", Handle: &stubHandle{schema: baseSchema()}}
}

func TestOutputSchemas(t *testing.T) {
	scan := scanNode()
	if !scan.OutputSchema().Equal(baseSchema()) {
		t.Error("scan schema wrong")
	}
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "a", types.Int64), expr.Lit(types.IntValue(0)))
	filter := &Filter{Input: scan, Condition: pred}
	if !filter.OutputSchema().Equal(baseSchema()) {
		t.Error("filter must pass schema through")
	}
	proj := &Project{
		Input:       filter,
		Expressions: []expr.Expr{expr.Col(1, "b", types.Float64)},
		Names:       []string{"bb"},
	}
	if got := proj.OutputSchema().String(); got != "(bb DOUBLE)" {
		t.Errorf("project schema = %s", got)
	}
	agg := &Aggregate{
		Input: scan,
		Keys:  []int{2},
		Measures: []substrait.Measure{
			{Func: substrait.AggSum, Arg: 1, Name: "s"},
			{Func: substrait.AggCountStar, Arg: -1, Name: "c"},
		},
		Step: AggSingle,
	}
	if got := agg.OutputSchema().String(); got != "(g VARCHAR, s DOUBLE, c BIGINT)" {
		t.Errorf("agg schema = %s", got)
	}
	out := &Output{Input: proj, Names: []string{"renamed"}}
	if got := out.OutputSchema().Columns[0].Name; got != "renamed" {
		t.Errorf("output name = %s", got)
	}
	topn := &TopN{Input: scan, Keys: []SortKey{{Column: 0}}, Count: 5}
	if !topn.OutputSchema().Equal(baseSchema()) {
		t.Error("topn schema wrong")
	}
	ex := &Exchange{Input: scan}
	if !ex.OutputSchema().Equal(baseSchema()) {
		t.Error("exchange schema wrong")
	}
	lim := &Limit{Input: scan, Count: 1}
	srt := &Sort{Input: lim, Keys: []SortKey{{Column: 0}}}
	if !srt.OutputSchema().Equal(baseSchema()) {
		t.Error("sort schema wrong")
	}
}

func TestAggFinalSchemaUsesStateColumns(t *testing.T) {
	// Final aggregation input: key + partial state columns.
	partialOut := types.NewSchema(
		types.Column{Name: "g", Type: types.String},
		types.Column{Name: "s", Type: types.Float64},
	)
	scan := &TableScan{Catalog: "c", Table: "t", Handle: &stubHandle{schema: partialOut}}
	final := &Aggregate{
		Input:    scan,
		Keys:     []int{0},
		Measures: []substrait.Measure{{Func: substrait.AggSum, Arg: 1, Name: "s"}},
		Step:     AggFinal,
	}
	if got := final.OutputSchema().String(); got != "(g VARCHAR, s DOUBLE)" {
		t.Errorf("final agg schema = %s", got)
	}
}

func TestWalkAndFindScan(t *testing.T) {
	scan := scanNode()
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "a", types.Int64), expr.Lit(types.IntValue(0)))
	root := &Output{Input: &Exchange{Input: &Filter{Input: scan, Condition: pred}}}
	var count int
	Walk(root, func(Node) { count++ })
	if count != 4 {
		t.Errorf("walked %d nodes", count)
	}
	if FindScan(root) != scan {
		t.Error("FindScan missed")
	}
	if FindScan(&Exchange{Input: &Exchange{Input: &Exchange{Input: scanNode()}}}) == nil {
		t.Error("deep FindScan missed")
	}
}

func TestReplaceChild(t *testing.T) {
	scan := scanNode()
	scan2 := scanNode()
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "a", types.Int64), expr.Lit(types.IntValue(0)))
	nodes := []Node{
		&Filter{Input: scan, Condition: pred},
		&Project{Input: scan, Expressions: []expr.Expr{expr.Col(0, "a", types.Int64)}, Names: []string{"a"}},
		&Aggregate{Input: scan, Keys: []int{0}, Step: AggSingle},
		&Sort{Input: scan, Keys: []SortKey{{Column: 0}}},
		&TopN{Input: scan, Keys: []SortKey{{Column: 0}}, Count: 3},
		&Limit{Input: scan, Count: 3},
		&Exchange{Input: scan},
		&Output{Input: scan, Names: []string{"a", "b", "g"}},
	}
	for _, n := range nodes {
		replaced, err := withChildren(n, scan2)
		if err != nil {
			t.Fatalf("%T: %v", n, err)
		}
		if replaced.Children()[0] != Node(scan2) {
			t.Errorf("%T: child not replaced", n)
		}
		// Original untouched.
		if n.Children()[0] != Node(scan) {
			t.Errorf("%T: original mutated", n)
		}
	}
	if _, err := withChildren(scan, scan2); err == nil {
		t.Error("replacing child of a scan must fail")
	}
	join := &Join{Probe: scan, Build: scan, ProbeKeys: []int{0}, BuildKeys: []int{0}}
	replaced, err := withChildren(join, scan2, scan)
	if err != nil {
		t.Fatal(err)
	}
	if kids := replaced.Children(); kids[0] != Node(scan2) || kids[1] != Node(scan) {
		t.Error("join inputs not replaced")
	}
	if _, err := withChildren(join, scan2); err == nil {
		t.Error("a join must get two inputs")
	}
}

func TestFormatTree(t *testing.T) {
	scan := scanNode()
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(0, "a", types.Int64), expr.Lit(types.IntValue(0)))
	root := &Output{Input: &Exchange{Input: &Filter{Input: scan, Condition: pred}}, Names: nil}
	text := Format(root)
	for _, frag := range []string{"Output", "Exchange", "Filter[(a > 0)]", "TableScan[c.t"} {
		if !strings.Contains(text, frag) {
			t.Errorf("format missing %q:\n%s", frag, text)
		}
	}
	// Indentation increases downward.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 4 || strings.Index(lines[3], "-") <= strings.Index(lines[0], "-") {
		t.Errorf("indentation wrong:\n%s", text)
	}
}

func TestDescribeForms(t *testing.T) {
	scan := scanNode()
	agg := &Aggregate{Input: scan, Keys: []int{0}, Measures: []substrait.Measure{{Func: substrait.AggSum, Arg: 1, Name: "s"}}, Step: AggPartial}
	if !strings.Contains(agg.Describe(), "PARTIAL") {
		t.Errorf("agg describe = %s", agg.Describe())
	}
	topn := &TopN{Input: scan, Count: 9, Partial: true}
	if !strings.Contains(topn.Describe(), "PARTIAL") || !strings.Contains(topn.Describe(), "9") {
		t.Errorf("topn describe = %s", topn.Describe())
	}
	if AggSingle.String() != "SINGLE" || AggFinal.String() != "FINAL" {
		t.Error("step strings wrong")
	}
}
