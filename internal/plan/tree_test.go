package plan

import (
	"reflect"
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func gtZero(col int, name string) expr.Expr {
	pred, _ := expr.NewCompare(expr.Gt, expr.Col(col, name, types.Int64), expr.Lit(types.IntValue(0)))
	return pred
}

// joinTree is Output(Limit(Join(Exchange(Filter(scan)), Exchange(scan)))).
func joinTree() (root Node, join *Join) {
	join = &Join{
		Probe:     &Exchange{Input: &Filter{Input: scanNode(), Condition: gtZero(0, "a")}},
		Build:     &Exchange{Input: scanNode()},
		ProbeKeys: []int{0}, BuildKeys: []int{0},
	}
	return &Output{Input: &Limit{Input: join, Count: 3}}, join
}

func TestSpineEndsAtScanOrJoinAndStackInverts(t *testing.T) {
	root, join := joinTree()
	spine, end := Spine(root)
	if len(spine) != 2 || end != Node(join) {
		t.Fatalf("spine of a join plan = %d nodes ending on %T, want 2 ending on the join", len(spine), end)
	}
	probeSpine, probeEnd := Spine(join.Probe)
	if _, isScan := probeEnd.(*TableScan); len(probeSpine) != 2 || !isScan {
		t.Fatalf("probe spine = %d nodes ending on %T, want [Exchange, Filter] ending on a scan", len(probeSpine), probeEnd)
	}
	if spine, end := Spine(probeEnd); len(spine) != 0 || end != probeEnd {
		t.Error("a scan is its own empty spine")
	}
	again, err := Stack(spine, end)
	if err != nil {
		t.Fatal(err)
	}
	if Format(again) != Format(root) {
		t.Errorf("Stack(Spine(root)) =\n%s\nwant\n%s", Format(again), Format(root))
	}
	if again == root || root.Children()[0].Children()[0] != Node(join) {
		t.Error("Stack must copy the spine and leave the original untouched")
	}
	// A rewritten spine may hold nodes that have no input yet.
	fresh, err := Stack([]Node{&Output{}, &TopN{Count: 3}}, end)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Children()[0].Children()[0]; got != end {
		t.Errorf("fresh spine not stacked over end: %T", got)
	}
}

func TestMapBranchesVisitsEveryScanRootedBranch(t *testing.T) {
	root, join := joinTree()
	var seen []Node
	mark := func(branch Node) (Node, error) {
		seen = append(seen, branch)
		return &Limit{Input: branch, Count: 9}, nil
	}
	mapped, err := MapBranches(root, mark)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != join.Probe || seen[1] != join.Build {
		t.Fatalf("branches of a join plan = %v, want probe then build", seen)
	}
	got := FindJoin(mapped)
	for _, kid := range got.Children() {
		if lim, ok := kid.(*Limit); !ok || lim.Count != 9 {
			t.Errorf("join input not replaced: %T", kid)
		}
	}
	if !reflect.DeepEqual(got.ProbeKeys, join.ProbeKeys) || FindJoin(root) != join {
		t.Error("join copied wrongly or original mutated")
	}

	seen = nil
	single := &Output{Input: &Exchange{Input: scanNode()}}
	if _, err := MapBranches(single, mark); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != Node(single) {
		t.Errorf("the branch of a single-table plan is the whole tree, got %v", seen)
	}
}

func TestNarrowColumns(t *testing.T) {
	// Output(Aggregate[key g(2), sum a(0)](Filter[a > 0])) over (a, b, g):
	// b is never read, so the input narrows to (a, g) and g becomes 1.
	agg := &Aggregate{Keys: []int{2}, Measures: []substrait.Measure{
		{Func: substrait.AggSum, Arg: 0, Name: "s"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "n"},
	}}
	nodes := []Node{&Output{}, agg, &Filter{Condition: gtZero(0, "a")}}
	cols, narrowed, err := NarrowColumns(nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []int{0, 2}) {
		t.Fatalf("cols = %v, want [0 2]", cols)
	}
	got := narrowed[1].(*Aggregate)
	if got.Keys[0] != 1 || got.Measures[0].Arg != 0 || got.Measures[1].Arg != -1 {
		t.Errorf("aggregate not remapped: keys %v measures %+v", got.Keys, got.Measures)
	}
	if agg.Keys[0] != 2 || narrowed[0] != nodes[0] {
		t.Error("input nodes mutated, or a node above the rebuilder rewritten")
	}

	// Nothing to narrow: no rebuilder, every column read, or an ordering
	// node below the rebuilder.
	for name, nodes := range map[string][]Node{
		"no rebuilder": {&Output{}, &Filter{Condition: gtZero(0, "a")}},
		"all read": {&Project{
			Expressions: []expr.Expr{expr.Col(0, "a", types.Int64), expr.Col(1, "b", types.Float64), expr.Col(2, "g", types.String)},
			Names:       []string{"a", "b", "g"},
		}},
		"sort below": {agg, &Sort{Keys: []SortKey{{Column: 1}}}},
	} {
		cols, same, err := NarrowColumns(nodes, 3)
		if err != nil || cols != nil || !reflect.DeepEqual(same, nodes) {
			t.Errorf("%s: cols %v err %v, want the nodes back unchanged", name, cols, err)
		}
	}
}
