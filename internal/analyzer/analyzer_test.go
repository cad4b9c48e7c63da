package analyzer

import (
	"fmt"
	"strings"
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/types"
)

type stubHandle struct{ schema *types.Schema }

func (h *stubHandle) ConnectorName() string     { return "stub" }
func (h *stubHandle) String() string            { return "stub" }
func (h *stubHandle) ScanSchema() *types.Schema { return h.schema }

type stubResolver struct{ tables map[string]*types.Schema }

func (r *stubResolver) ResolveTable(catalog, table string) (plan.TableHandle, error) {
	s, ok := r.tables[catalog+"."+table]
	if !ok {
		return nil, fmt.Errorf("no table %s.%s", catalog, table)
	}
	return &stubHandle{schema: s}, nil
}

func resolver() *stubResolver {
	lineitem := types.NewSchema(
		types.Column{Name: "quantity", Type: types.Float64},
		types.Column{Name: "extendedprice", Type: types.Float64},
		types.Column{Name: "discount", Type: types.Float64},
		types.Column{Name: "tax", Type: types.Float64},
		types.Column{Name: "returnflag", Type: types.String},
		types.Column{Name: "linestatus", Type: types.String},
		types.Column{Name: "shipdate", Type: types.Date},
	)
	mesh := types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
	)
	return &stubResolver{tables: map[string]*types.Schema{
		"tpch.lineitem": lineitem,
		"lanl.mesh":     mesh,
	}}
}

func analyze(t *testing.T, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	root, err := Analyze(stmt, resolver(), "lanl")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func analyzeErr(t *testing.T, sql string) error {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(stmt, resolver(), "lanl")
	if err == nil {
		t.Fatalf("Analyze(%q) succeeded", sql)
	}
	return err
}

func TestSimpleProjection(t *testing.T) {
	root := analyze(t, "SELECT x, e FROM mesh WHERE vertex_id > 5")
	text := plan.Format(root)
	for _, frag := range []string{"Output", "Project[x, e]", "Filter[(vertex_id > 5)]", "TableScan"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plan missing %q:\n%s", frag, text)
		}
	}
	if got := root.OutputSchema().String(); got != "(x DOUBLE, e DOUBLE)" {
		t.Errorf("schema = %s", got)
	}
}

func TestAvgDecomposition(t *testing.T) {
	root := analyze(t, "SELECT vertex_id, avg(e) AS m FROM mesh GROUP BY vertex_id")
	var agg *plan.Aggregate
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
	})
	if agg == nil {
		t.Fatal("no aggregate node")
	}
	// avg(e) must become sum(e) + count(e); no "avg" measure exists.
	if len(agg.Measures) != 2 {
		t.Fatalf("measures = %+v", agg.Measures)
	}
	names := string(agg.Measures[0].Func) + "," + string(agg.Measures[1].Func)
	if names != "sum,count" {
		t.Errorf("measures = %s", names)
	}
	// The final projection computes the division.
	var proj *plan.Project
	plan.Walk(root, func(n plan.Node) {
		if p, ok := n.(*plan.Project); ok && proj == nil {
			proj = p
		}
	})
	if proj == nil || !strings.Contains(proj.Expressions[1].String(), "/") {
		t.Errorf("avg division missing: %v", proj.Expressions)
	}
	if got := root.OutputSchema().String(); got != "(vertex_id BIGINT, m DOUBLE)" {
		t.Errorf("schema = %s", got)
	}
}

// finalProject returns the aggregate query's Aggregate and the Project
// that computes its select list.
func finalProject(t *testing.T, root plan.Node) (*plan.Aggregate, *plan.Project) {
	t.Helper()
	var agg *plan.Aggregate
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
	})
	proj, ok := root.(*plan.Output).Input.(*plan.Project)
	if agg == nil || !ok || proj.Input != agg {
		t.Fatalf("want Output → Project → Aggregate:\n%s", plan.Format(root))
	}
	return agg, proj
}

func TestSharedAggregateDeduped(t *testing.T) {
	// avg(e) is sum(e) and count(e); beside both it adds no measure, and
	// each item reads the shared ones.
	agg, proj := finalProject(t, analyze(t, "SELECT sum(e) AS s, avg(e) AS a, count(e) AS c FROM mesh"))
	if len(agg.Measures) != 2 || agg.Measures[0].Func != "sum" || agg.Measures[1].Func != "count" {
		t.Fatalf("measures should dedupe to sum+count, got %+v", agg.Measures)
	}
	want := []string{"$agg0", "(CAST($agg0 AS DOUBLE) / CAST($agg1 AS DOUBLE))", "$agg1"}
	for i, e := range proj.Expressions {
		if e.String() != want[i] {
			t.Errorf("item %d = %s, want %s", i, e, want[i])
		}
	}
	if refs := expr.ReferencedColumns(proj.Expressions[1]); fmt.Sprint(refs) != "[0 1]" {
		t.Errorf("avg reads ordinals %v, want [0 1]", refs)
	}
}

func TestSameAggregateTwiceInOneItem(t *testing.T) {
	agg, proj := finalProject(t, analyze(t, "SELECT vertex_id, max(x * 2) - max(x * 2) / sum(e) AS d FROM mesh GROUP BY vertex_id"))
	if len(agg.Measures) != 2 {
		t.Fatalf("measures = %+v, want max and sum once each", agg.Measures)
	}
	if refs := expr.ReferencedColumns(proj.Expressions[1]); fmt.Sprint(refs) != "[1 2]" {
		t.Errorf("item reads ordinals %v, want [1 2] (key at 0)", refs)
	}
	// x*2 is not a bare column, so a pre-projection computes it once per
	// measure that reads it.
	if pre, ok := agg.Input.(*plan.Project); !ok || len(pre.Expressions) != 3 {
		t.Errorf("aggregate input = %s, want a pre-projection of key, x*2 and e", agg.Input.Describe())
	}
}

func TestPreAggregationProjection(t *testing.T) {
	// Aggregate over an expression requires the pre-projection node
	// (the paper's "expression projection").
	sql := "SELECT returnflag, SUM(extendedprice * (1 - discount)) AS s FROM tpch.lineitem GROUP BY returnflag"
	root := analyze(t, sql)
	text := plan.Format(root)
	// Two projects: pre-agg (expression) and final.
	if strings.Count(text, "Project[") != 2 {
		t.Errorf("expected pre- and post-aggregation projections:\n%s", text)
	}
	var agg *plan.Aggregate
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
	})
	if _, ok := agg.Input.(*plan.Project); !ok {
		t.Errorf("aggregate input is %T, want pre-projection", agg.Input)
	}
}

func TestNoPreProjectionForPlainColumns(t *testing.T) {
	root := analyze(t, "SELECT vertex_id, min(x) AS m FROM mesh GROUP BY vertex_id")
	var agg *plan.Aggregate
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
	})
	if _, ok := agg.Input.(*plan.TableScan); !ok {
		t.Errorf("aggregate over plain columns should scan directly, got %T", agg.Input)
	}
}

func TestOrderByAliasAndPosition(t *testing.T) {
	root := analyze(t, "SELECT vertex_id, avg(e) AS m FROM mesh GROUP BY vertex_id ORDER BY m DESC LIMIT 3")
	text := plan.Format(root)
	if !strings.Contains(text, "Sort") || !strings.Contains(text, "Limit[3]") {
		t.Errorf("sort/limit missing:\n%s", text)
	}
	var srt *plan.Sort
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Sort); ok {
			srt = s
		}
	})
	if srt.Keys[0].Column != 1 || !srt.Keys[0].Descending {
		t.Errorf("sort key = %+v", srt.Keys)
	}
	// Positional ORDER BY 1.
	root = analyze(t, "SELECT x, e FROM mesh ORDER BY 1")
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Sort); ok {
			srt = s
		}
	})
	if srt.Keys[0].Column != 0 {
		t.Errorf("positional sort key = %+v", srt.Keys)
	}
}

func TestDateIntervalArithmetic(t *testing.T) {
	sql := "SELECT count(*) AS c FROM tpch.lineitem WHERE shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY"
	root := analyze(t, sql)
	var filter *plan.Filter
	plan.Walk(root, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			filter = f
		}
	})
	if filter == nil {
		t.Fatal("no filter")
	}
	// Constant folding turns DATE - INTERVAL into a literal.
	cmp, ok := filter.Condition.(*expr.Compare)
	if !ok {
		t.Fatalf("condition = %T", filter.Condition)
	}
	lit, ok := cmp.R.(*expr.Literal)
	if !ok {
		t.Fatalf("rhs = %T (not folded)", cmp.R)
	}
	want, _ := types.DateFromString("1998-09-02")
	if lit.Value.I != want.I {
		t.Errorf("folded date = %v, want %v", lit.Value, want)
	}
}

func TestCaseInsensitiveColumns(t *testing.T) {
	root := analyze(t, "SELECT VERTEX_ID FROM mesh")
	if root.OutputSchema().Columns[0].Name != "VERTEX_ID" {
		// Output name is the item text; resolution must still work.
		t.Logf("schema = %s", root.OutputSchema())
	}
}

func TestDefaultCatalog(t *testing.T) {
	// Unqualified "mesh" resolves via default catalog lanl.
	analyze(t, "SELECT x FROM mesh")
	// Qualified resolves explicitly.
	analyze(t, "SELECT quantity FROM tpch.lineitem")
}

func TestAnalyzerErrors(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT nope FROM mesh", "unknown column"},
		{"SELECT x FROM nosuch", ""},
		{"SELECT x FROM other.mesh", ""},
		{"SELECT x FROM mesh WHERE e", ""},                                                // non-boolean WHERE
		{"SELECT sum(returnflag) AS s FROM tpch.lineitem", ""},                            // sum over varchar
		{"SELECT x FROM mesh GROUP BY x + 1", "columns only"},                             // non-column group key
		{"SELECT x, min(e) AS m FROM mesh GROUP BY vertex_id", "must appear in GROUP BY"}, // x not grouped
		{"SELECT stddev(x) AS s FROM mesh", "unknown function"},
		{"SELECT min(x, e) AS m FROM mesh", "one argument"},
		{"SELECT avg(returnflag) AS a FROM tpch.lineitem", "avg over"},
		{"SELECT sum(*) AS s FROM mesh", "is not valid"},
		{"SELECT x FROM mesh ORDER BY nope", ""},
		{"SELECT x FROM mesh WHERE x + 1", ""},   // non-bool predicate
		{"SELECT x FROM mesh WHERE x = 'a'", ""}, // type mismatch
		// An aggregate's argument and every clause but the select list
		// resolve with no measure list, so an aggregate there is refused.
		{"SELECT sum(max(x)) AS s FROM mesh", `aggregate "max" not allowed`},
		{"SELECT x FROM mesh WHERE sum(e) > 1", `aggregate "sum" not allowed`},
		{"SELECT count(*) AS n FROM mesh GROUP BY max(x)", `aggregate "max" not allowed`},
		{"SELECT a.x FROM mesh AS a JOIN mesh AS b ON a.vertex_id = min(b.vertex_id)", `aggregate "min" not allowed`},
		// A base column under arithmetic with an aggregate is still a
		// column outside GROUP BY.
		{"SELECT x + sum(e) AS s FROM mesh", `column "x" must appear in GROUP BY`},
	}
	for _, c := range cases {
		if err := analyzeErr(t, c.sql); !strings.Contains(err.Error(), c.want) {
			t.Errorf("Analyze(%q) = %v, want an error containing %q", c.sql, err, c.want)
		}
	}
}

func TestCountStarAndGlobalAggregate(t *testing.T) {
	root := analyze(t, "SELECT count(*) AS n, max(e) AS m FROM mesh WHERE x > 1.0")
	var agg *plan.Aggregate
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
	})
	if len(agg.Keys) != 0 || len(agg.Measures) != 2 {
		t.Errorf("global agg = keys %v measures %+v", agg.Keys, agg.Measures)
	}
	if agg.Measures[0].Func != "count_star" {
		t.Errorf("measure 0 = %v", agg.Measures[0].Func)
	}
}

func TestConstantFoldingInWhere(t *testing.T) {
	root := analyze(t, "SELECT x FROM mesh WHERE x > 1 + 2")
	var filter *plan.Filter
	plan.Walk(root, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			filter = f
		}
	})
	if !strings.Contains(filter.Condition.String(), "3") {
		t.Errorf("constant not folded: %s", filter.Condition)
	}
}

func TestBetweenAndLogicalOperators(t *testing.T) {
	root := analyze(t, "SELECT x FROM mesh WHERE x BETWEEN 0.5 AND 1.5 AND NOT e > 10 OR vertex_id = 3")
	var filter *plan.Filter
	plan.Walk(root, func(n plan.Node) {
		if f, ok := n.(*plan.Filter); ok {
			filter = f
		}
	})
	s := filter.Condition.String()
	for _, frag := range []string{"BETWEEN", "NOT", "OR"} {
		if !strings.Contains(s, frag) {
			t.Errorf("condition %q missing %s", s, frag)
		}
	}
}

func TestArithmeticInSelectOverAgg(t *testing.T) {
	// Arithmetic combining aggregates and literals in the select list.
	root := analyze(t, "SELECT sum(e) / count(*) + 1 AS weird FROM mesh")
	if got := root.OutputSchema().String(); got != "(weird DOUBLE)" {
		t.Errorf("schema = %s", got)
	}
}
