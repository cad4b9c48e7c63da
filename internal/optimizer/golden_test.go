package optimizer_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"prestocs/internal/analyzer"
	"prestocs/internal/connector/hive"
	"prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/optimizer"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/substrait"
	"prestocs/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

const goldenPath = "testdata/plans.golden"

// The three join shapes of ISSUE 19: a conjunct on the probe side only,
// on the build side only, and on both. %s is the catalog.
const (
	joinProbeConjunct = `SELECT l.orderkey AS k, o.orderdate AS d FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ` +
		`ON l.orderkey = o.orderkey WHERE l.quantity < 10`
	joinBuildConjunct = `SELECT l.orderkey AS k, o.orderdate AS d FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ` +
		`ON l.orderkey = o.orderkey WHERE o.orderdate < DATE '1993-01-01'`
	joinBothConjuncts = `SELECT l.orderkey AS k, o.orderdate AS d FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ` +
		`ON l.orderkey = o.orderkey WHERE l.quantity < 10 AND o.orderdate < DATE '1993-01-01'`
)

// What ISSUE 21's narrowing must get right beyond those: a conjunct over
// both sides stays above the join and keeps its columns alive on each; a
// select list that reads every column leaves the plan as it was.
const (
	joinCrossResidual = `SELECT l.orderkey AS k, o.orderpriority AS p FROM ocs.lineitem AS l JOIN ocs.orders AS o ` +
		`ON l.orderkey = o.orderkey WHERE l.shipdate > o.orderdate`
	joinSelectAll = `SELECT * FROM ocs.lineitem AS l JOIN ocs.orders AS o ON l.orderkey = o.orderkey`
)

// q3Hive is Q3 over the baseline catalog.
var q3Hive = strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o", "FROM hive.lineitem AS l JOIN hive.orders AS o", 1)

// planQueries is the planner's query table (the queries.go idiom): every
// plan shape the engine runs, each planned under every pushdown mode.
var planQueries = []struct{ name, sql string }{
	{"laghos", workload.LaghosQuery},
	{"deepwater", workload.DeepWaterQuery},
	{"tpch_q1", workload.TPCHQuery},
	{"tpch_q3", workload.TPCHQ3Query},
	{"point", `SELECT vertex_id, e FROM laghos WHERE vertex_id BETWEEN 40 AND 47`},
	{"order_by_limit", `SELECT vertex_id, x, e FROM laghos WHERE x > 1.5 ORDER BY e DESC LIMIT 20`},
	{"bare_limit", `SELECT vertex_id, e FROM laghos LIMIT 5`},
	{"global_aggregate", `SELECT count(*) AS n, sum(e) AS s FROM laghos WHERE x < 2.0`},
	{"join_probe_conjunct", fmt.Sprintf(joinProbeConjunct, "ocs")},
	{"join_build_conjunct", fmt.Sprintf(joinBuildConjunct, "ocs")},
	{"join_both_conjuncts", fmt.Sprintf(joinBothConjuncts, "ocs")},
	{"join_cross_residual", joinCrossResidual},
	{"join_select_all", joinSelectAll},
	{"tpch_q3_hive", q3Hive},
}

var planModes = []string{"none", "filter", "filter_project", "filter_agg", "all", "auto"}

// planFixture is the fixed resolver the planner tests analyze against:
// the four generated tables at a small scale, registered under the ocs
// and hive catalogs. Nothing is uploaded; planning reads only metadata.
type planFixture struct {
	ocs  *ocs.Connector
	hive *hive.Connector
}

func (f *planFixture) ResolveTable(catalog, table string) (plan.TableHandle, error) {
	if catalog == "hive" {
		return f.hive.TableHandle(catalog, table)
	}
	return f.ocs.TableHandle(catalog, table)
}

func newPlanFixture(tb testing.TB) *planFixture {
	tb.Helper()
	cfg := workload.Config{Files: 2, RowsPerFile: 512, Seed: 7}
	ms := metastore.New()
	for _, gen := range []func(workload.Config) (*workload.Dataset, error){
		workload.Laghos, workload.DeepWater, workload.TPCH, workload.TPCHOrders,
	} {
		d, err := gen(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		for _, catalog := range []string{"ocs", "hive"} {
			if err := d.Register(ms, catalog); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return &planFixture{ocs: ocs.New("ocs", ms, nil), hive: hive.New("hive", ms, nil)}
}

// planFor runs the planning pipeline — parse, analyze, global optimizer,
// connector optimizer of the probe scan's catalog — and returns the
// analyzed and the optimized tree.
func (f *planFixture) planFor(sql, mode string) (analyzed, optimized plan.Node, err error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if analyzed, err = analyzer.Analyze(stmt, f, "ocs"); err != nil {
		return nil, nil, err
	}
	if optimized, err = optimizer.Optimize(analyzed); err != nil {
		return nil, nil, err
	}
	local := f.ocs.PlanOptimizer()
	if plan.FindScans(optimized)[0].Catalog == "hive" {
		local = f.hive.PlanOptimizer()
	}
	optimized, err = local.Optimize(optimized, engine.NewSession().Set(ocs.SessionPushdown, mode))
	return analyzed, optimized, err
}

// describePlan renders what the golden file pins for one (query, mode):
// the optimized tree, and per scan the pushed operators, the scan schema,
// the Selectivity Analyzer's estimated selectivity (auto mode only) and a
// digest of the Substrait plan for split 0.
func describePlan(root plan.Node) (string, error) {
	var sb strings.Builder
	sb.WriteString(plan.Format(root))
	// Describe prints column names; the ordinals the residual nodes carry
	// are what the narrowing rules rewrite, so pin them too.
	sb.WriteString("ordinals:")
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Filter:
			fmt.Fprintf(&sb, " Filter%v", expr.ReferencedColumns(t.Condition))
		case *plan.Project:
			sb.WriteString(" Project[")
			for _, e := range t.Expressions {
				fmt.Fprint(&sb, expr.ReferencedColumns(e))
			}
			sb.WriteString("]")
		case *plan.Aggregate:
			fmt.Fprintf(&sb, " Aggregate%v[", t.Keys)
			for _, m := range t.Measures {
				fmt.Fprintf(&sb, "%d ", m.Arg)
			}
			sb.WriteString("]")
		case *plan.Sort:
			fmt.Fprintf(&sb, " Sort%v", t.Keys)
		case *plan.TopN:
			fmt.Fprintf(&sb, " TopN%v", t.Keys)
		}
	})
	sb.WriteString("\n")
	for i, scan := range plan.FindScans(root) {
		fmt.Fprintf(&sb, "scan %d %s.%s pushed=%v schema=%s", i, scan.Catalog, scan.Table,
			scan.Handle.(engine.PushdownReporter).PushedOperators(), scan.Handle.ScanSchema())
		if h, ok := scan.Handle.(*ocs.Handle); ok && h.Push != nil {
			ir, err := ocs.BuildSubstrait(h, h.Table.Objects[0])
			if err != nil {
				return "", err
			}
			wire, err := substrait.Marshal(ir)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, " est=%g substrait=%dB:%x",
				h.Push.EstSelectivity, len(wire), sha256.Sum256(wire))
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// TestGoldenPlans pins the planner's output for every (query, pushdown
// mode). The golden file was generated at d3ebe12, the commit before the
// plan toolkit; the differences since are the Exchange line above a
// join's build branch (PR 19) and, in the join rows only, both scans
// projected to what the plan reads of them (PR 21: cols=N, the scan
// schemas, the ordinals above the join, the Substrait digests). The ocs
// scan lines have since lost their adaptive=… flag: with no per-split
// policy, an auto plan carries its whole decision. In the join rows
// alone, the probe's Exchange has since moved above the join, and in
// Q3's above its aggregate, which the zone maps prove complete per split,
// with a TopN(PARTIAL) below it. The same rule now holds over a scan: in
// the laghos and deepwater rows alone, every mode plans the aggregate
// complete below the Exchange (laghos [all] and [auto] as before, the
// connector no longer rewriting the final stage to get there).
func TestGoldenPlans(t *testing.T) {
	f := newPlanFixture(t)
	var sb strings.Builder
	for _, q := range planQueries {
		for _, mode := range planModes {
			_, root, err := f.planFor(q.sql, mode)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.name, mode, err)
			}
			text, err := describePlan(root)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.name, mode, err)
			}
			fmt.Fprintf(&sb, "=== %s [%s]\n%s\n", q.name, mode, text)
		}
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s\n(run with -update after checking the change is intended)", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s in length: got %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}
