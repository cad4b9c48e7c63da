package ocs

import (
	"math"
	"strings"
	"testing"

	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/optimizer"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// sixModes is the golden file's mode axis.
var sixModes = []string{"none", "filter", "filter_project", "filter_agg", "all", "auto"}

// extractorFixture builds leaf-stage candidates over statsTable (10000
// rows; v uniform-ish 0..100 with 5000 distinct values, g with 100) by
// hand, with no plan around them: the prefix step reads a candidate's node
// and input schema and nothing else.
type extractorFixture struct {
	t     *testing.T
	base  *types.Schema
	v, g  *expr.ColumnRef
	input *types.Schema // what the next candidate reads
	seq   []candidate
}

func newExtractorFixture(t *testing.T) *extractorFixture {
	base := statsTable().Columns
	return &extractorFixture{
		t: t, base: base, input: base,
		v: expr.Col(0, "v", types.Float64), g: expr.Col(1, "g", types.Int64),
	}
}

func (f *extractorFixture) add(n plan.Node, output *types.Schema) *extractorFixture {
	f.seq = append(f.seq, candidate{node: n, input: f.input})
	f.input = output
	return f
}

// filterBelow keeps v < cut: about 4 % of the rows at 20, 96 % at 80.
func (f *extractorFixture) filterBelow(cut float64) *extractorFixture {
	cond, err := expr.NewCompare(expr.Lt, f.v, expr.Lit(types.FloatValue(cut)))
	if err != nil {
		f.t.Fatal(err)
	}
	return f.add(&plan.Filter{Condition: cond}, f.input)
}

func (f *extractorFixture) project(exprs ...expr.Expr) *extractorFixture {
	names := make([]string, len(exprs))
	for i, e := range exprs {
		names[i] = "expr"
		if ref, ok := e.(*expr.ColumnRef); ok {
			names[i] = ref.Name // a passed-through column keeps its statistics
		}
	}
	return f.add(&plan.Project{Expressions: exprs, Names: names}, plan.ProjectSchema(exprs, names))
}

// costly is v divided by itself nine times: 32 cost units, over the cap.
func (f *extractorFixture) costly() expr.Expr {
	var e expr.Expr = f.v
	for i := 0; i < 9; i++ {
		div, err := expr.NewArith(expr.Div, e, f.v)
		if err != nil {
			f.t.Fatal(err)
		}
		e = div
	}
	if e.Cost() <= projectCostCap {
		f.t.Fatalf("costly expression costs %v, cap %v", e.Cost(), float64(projectCostCap))
	}
	return e
}

// aggBy groups by one ordinal of the current input and counts.
func (f *extractorFixture) aggBy(key int) *extractorFixture {
	measures := []substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "n"}}
	return f.add(&plan.Aggregate{Keys: []int{key}, Measures: measures, Step: plan.AggPartial},
		plan.AggregateSchema(f.input, []int{key}, measures, plan.AggPartial))
}

func (f *extractorFixture) limit(count int64) *extractorFixture {
	return f.add(&plan.Limit{Count: count}, f.input)
}

// TestPrefixPerMode runs the prefix step alone over hand-built candidate
// sequences under the six modes: how many candidates are pushed, and in
// auto mode the estimated selectivity handed to the per-split policy.
func TestPrefixPerMode(t *testing.T) {
	cases := []struct {
		name string
		seq  func(f *extractorFixture) *extractorFixture
		// want is the prefix length per mode, in sixModes order.
		want    [6]int
		autoEst float64
	}{
		{
			name: "nothing to push",
			seq:  func(f *extractorFixture) *extractorFixture { return f },
		},
		{
			name:    "selective filter",
			seq:     func(f *extractorFixture) *extractorFixture { return f.filterBelow(20) },
			want:    [6]int{0, 1, 1, 1, 1, 1},
			autoEst: 0.0359,
		},
		{
			name: "weak filter is carried, then dropped",
			seq:  func(f *extractorFixture) *extractorFixture { return f.filterBelow(80) },
			want: [6]int{0, 1, 1, 1, 1, 0},
		},
		{
			// The projection keeps both columns: no cut on its own merits.
			// A static mode without the project flag stops there; auto
			// carries it — and the weak filter — to the aggregate's cut.
			name: "projection carried by a later aggregate",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.filterBelow(80).project(f.v, f.g).aggBy(1)
			},
			want:    [6]int{0, 1, 2, 1, 3, 3},
			autoEst: 0.01,
		},
		{
			name: "projection with no aggregate to justify it",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.filterBelow(20).project(f.v, f.g)
			},
			want:    [6]int{0, 1, 2, 1, 2, 1},
			autoEst: 0.0359,
		},
		{
			// Half the width, so worth pushing but for its cost; the filter
			// below it already cleared the threshold and stays the cut.
			name: "projection over the cost cap",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.filterBelow(20).project(f.costly())
			},
			want:    [6]int{0, 1, 2, 1, 2, 1},
			autoEst: 0.0359,
		},
		{
			name: "narrowing projection under the cap moves the cut up",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.filterBelow(20).project(f.g)
			},
			want:    [6]int{0, 1, 2, 1, 2, 2},
			autoEst: 0.0359,
		},
		{
			// No filter: a static mode without the project flag stops at
			// the first node, and only "all" has the flag the limit needs.
			name: "projection and bare limit",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.project(f.g).limit(5)
			},
			want:    [6]int{0, 0, 1, 0, 2, 2},
			autoEst: 0.0005,
		},
		{
			name: "aggregate with too many groups",
			seq: func(f *extractorFixture) *extractorFixture {
				return f.filterBelow(80).aggBy(0) // 5000 groups of 9600 rows
			},
			want:    [6]int{0, 1, 1, 2, 2, 2},
			autoEst: 0.5,
		},
	}
	for _, tc := range cases {
		seq := tc.seq(newExtractorFixture(t)).seq
		for i, name := range sixModes {
			mode, err := ParseMode(name)
			if err != nil {
				t.Fatal(err)
			}
			a := &selectivityAnalyzer{table: statsTable(), mode: mode}
			n, est := a.prefix(seq)
			if n != tc.want[i] {
				t.Errorf("%s [%s]: prefix = %d of %d candidates, want %d", tc.name, name, n, len(seq), tc.want[i])
			}
			wantEst := 0.0
			if mode.Auto && n > 0 {
				wantEst = tc.autoEst
			}
			if math.Abs(est-wantEst) > 0.0005 {
				t.Errorf("%s [%s]: estimated selectivity = %v, want %v", tc.name, name, est, wantEst)
			}
		}
	}
}

// TestAbsorbFinalPerMode gives the extractor the leaf stage the global
// optimizer produces for a filtered GROUP BY … ORDER BY … LIMIT and asks
// what each mode pushes. Over a split-disjoint key the optimizer places
// the aggregate, the projection above it and a partial Top-N below the
// Exchange, and the extractor absorbs as much of that as the mode — its
// flags, or in auto the estimates — takes; over any other key the leaf
// stage ends at a partial aggregate. Either way the final stage comes
// back exactly as the optimizer left it.
func TestAbsorbFinalPerMode(t *testing.T) {
	table := statsTable()
	// g's zone maps do not overlap across the two objects, so the table
	// derives it split-disjoint; v is a Float64, which never is.
	g := func(min, max int64) map[string]metastore.ColumnStats {
		return map[string]metastore.ColumnStats{"g": {ZoneMap: expr.ZoneMap{
			Min: types.IntValue(min), Max: types.IntValue(max), NumValues: 5000}}}
	}
	table.Objects = []string{"part-0", "part-1"}
	table.ObjectStats = map[string]map[string]metastore.ColumnStats{"part-0": g(0, 49), "part-1": g(50, 99)}
	const withFinal = "filter+aggregation+final-project+topn"
	cases := []struct {
		name  string
		key   int // the aggregate's group key, a scan ordinal
		count int64
		want  [6]string // pushed operators per mode, in sixModes order
	}{
		{"disjoint keys", 1, 100,
			[6]string{"", "filter", "filter", "filter+aggregation", withFinal, withFinal}},
		{"keys not split-disjoint", 0, 100,
			[6]string{"", "filter", "filter", "filter+aggregation", "filter+aggregation", "filter+aggregation"}},
		// A partial Top-N never adds rows: auto takes it with the
		// aggregate's cut whatever its count.
		{"disjoint keys, TopN keeps most rows", 1, 9000,
			[6]string{"", "filter", "filter", "filter+aggregation", withFinal, withFinal}},
	}
	cond, err := expr.NewCompare(expr.Lt, expr.Col(0, "v", types.Float64), expr.Lit(types.FloatValue(20)))
	if err != nil {
		t.Fatal(err)
	}
	measures := []substrait.Measure{{Func: substrait.AggCountStar, Arg: -1, Name: "n"}}
	for _, tc := range cases {
		key := table.Columns.Columns[tc.key]
		analyzed, err := plan.Stack([]plan.Node{
			&plan.Output{Names: []string{key.Name, "n"}},
			&plan.TopN{Keys: []plan.SortKey{{Column: 1, Descending: true}}, Count: tc.count},
			&plan.Project{Expressions: []expr.Expr{expr.Col(0, key.Name, key.Type), expr.Col(1, "n", types.Int64)}, Names: []string{key.Name, "n"}},
			&plan.Aggregate{Keys: []int{tc.key}, Measures: measures, Step: plan.AggSingle},
			&plan.Filter{Condition: cond},
		}, &plan.TableScan{Catalog: "ocs", Table: "t", Handle: &Handle{Table: table}})
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := optimizer.Optimize(analyzed)
		if err != nil {
			t.Fatal(err)
		}
		final := finalStage(optimized)
		for i, name := range sixModes {
			pushed, err := (&localOptimizer{}).Optimize(optimized, engine.NewSession().Set(SessionPushdown, name))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(plan.FindScan(pushed).Handle.(*Handle).PushedOperators(), "+"); got != tc.want[i] {
				t.Errorf("%s [%s]: pushed %q, want %q", tc.name, name, got, tc.want[i])
			}
			if got := finalStage(pushed); got != final {
				t.Errorf("%s [%s]: final stage %s, the optimizer planned %s", tc.name, name, got, final)
			}
		}
	}
}

// finalStage describes the root spine down to and including its first
// Exchange.
func finalStage(root plan.Node) string {
	spine, _ := plan.Spine(root)
	var parts []string
	for _, n := range spine {
		parts = append(parts, n.Describe())
		if _, ok := n.(*plan.Exchange); ok {
			break
		}
	}
	return strings.Join(parts, " → ")
}

// TestCandidatesFollowPipelineOrder pins the structural walk: candidates
// are taken bottom-up only while they come in the order storage runs them.
func TestCandidatesFollowPipelineOrder(t *testing.T) {
	f := newExtractorFixture(t)
	scan := &plan.TableScan{Handle: &Handle{Table: statsTable()}}
	cond, _ := expr.NewCompare(expr.Lt, f.v, expr.Lit(types.FloatValue(20)))
	stack := func(nodes ...plan.Node) []plan.Node { // root first, as Spine returns them
		root, err := plan.Stack(nodes, scan)
		if err != nil {
			t.Fatal(err)
		}
		stage, _ := plan.Spine(root)
		return stage
	}
	filter := &plan.Filter{Condition: cond}
	project := &plan.Project{Expressions: []expr.Expr{f.g}, Names: []string{"g"}}
	partial := &plan.Aggregate{Keys: []int{0}, Step: plan.AggPartial}
	cases := []struct {
		name  string
		stage []plan.Node
		want  int
	}{
		{"filter project aggregate", stack(partial, project, filter), 3},
		{"second filter stays in the engine", stack(filter, filter), 1},
		{"projection above the aggregate", stack(project, partial, filter), 3},
		{"second projection above the aggregate", stack(project, project, partial, filter), 3},
		{"complete aggregate, its projection and a partial top-n",
			stack(&plan.TopN{Count: 3, Partial: true}, project, &plan.Aggregate{Keys: []int{0}, Step: plan.AggSingle}, filter), 4},
		{"final aggregate is not a leaf operator", stack(&plan.Aggregate{Keys: []int{0}, Step: plan.AggFinal}, filter), 1},
		{"partial top-n over plain rows ends the walk", stack(&plan.TopN{Count: 3, Partial: true}, filter), 1},
		{"final top-n is not a leaf operator", stack(&plan.TopN{Count: 3}, partial, filter), 2},
		{"limit above a projection", stack(&plan.Limit{Count: 5}, project), 2},
		{"nothing above a limit", stack(project, &plan.Limit{Count: 5}), 1},
	}
	for _, tc := range cases {
		seq := candidates(tc.stage, f.base)
		if len(seq) != tc.want {
			t.Errorf("%s: %d candidates, want %d", tc.name, len(seq), tc.want)
			continue
		}
		// Each candidate reads what the one below it produces.
		for i, c := range seq {
			if want := c.node.Children()[0].OutputSchema(); !c.input.Equal(want) {
				t.Errorf("%s: candidate %d reads %s, its input produces %s", tc.name, i, c.input, want)
			}
		}
	}
}
