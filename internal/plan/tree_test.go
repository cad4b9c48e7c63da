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

// plainHandle cannot project: NarrowJoin must leave its side whole.
type plainHandle struct{ schema *types.Schema }

func (h *plainHandle) ConnectorName() string     { return "plain" }
func (h *plainHandle) String() string            { return "plain" }
func (h *plainHandle) ScanSchema() *types.Schema { return h.schema }

func colRef(i int, s *types.Schema) expr.Expr {
	return expr.Col(i, s.Columns[i].Name, s.Columns[i].Type)
}

// joinOutput is (a, b, g) ++ (a, b, g): ordinals 0–2 probe, 3–5 build.
func joinOutput() *types.Schema {
	return (&Join{Probe: scanNode(), Build: scanNode()}).OutputSchema()
}

func scanColumns(t *testing.T, side Node) string {
	t.Helper()
	return FindScan(side).OutputSchema().String()
}

func TestNarrowJoin(t *testing.T) {
	out := joinOutput()
	project := func(ords ...int) *Project {
		p := &Project{}
		for _, o := range ords {
			p.Expressions = append(p.Expressions, colRef(o, out))
			p.Names = append(p.Names, out.Columns[o].Name)
		}
		return p
	}
	refs := func(n Node) (got []int) {
		for _, e := range n.(*Project).Expressions {
			got = append(got, expr.ReferencedColumns(e)...)
		}
		return got
	}

	t.Run("key kept when unread above", func(t *testing.T) {
		// Project reads probe b(1) and build g(5); keys a(0) = a(0) are
		// read by nothing above but the join itself.
		join := &Join{Probe: scanNode(), Build: scanNode(), ProbeKeys: []int{0}, BuildKeys: []int{0}}
		spine, got, err := NarrowJoin([]Node{&Output{}, project(1, 5)}, join)
		if err != nil {
			t.Fatal(err)
		}
		if p, b := scanColumns(t, got.Probe), scanColumns(t, got.Build); p != "(a BIGINT, b DOUBLE)" || b != "(a BIGINT, g VARCHAR)" {
			t.Fatalf("sides = %s / %s", p, b)
		}
		if !reflect.DeepEqual(got.ProbeKeys, []int{0}) || !reflect.DeepEqual(got.BuildKeys, []int{0}) {
			t.Errorf("keys = %v / %v", got.ProbeKeys, got.BuildKeys)
		}
		if r := refs(spine[1]); !reflect.DeepEqual(r, []int{1, 3}) {
			t.Errorf("project reads %v of the narrowed join, want [1 3]", r)
		}
		if !spine[1].(*Project).OutputSchema().Equal(project(1, 5).OutputSchema()) {
			t.Error("narrowing changed the project's output schema")
		}
		if join.Probe.OutputSchema().Len() != 3 || len(join.ProbeKeys) != 1 {
			t.Error("input join mutated")
		}
	})

	t.Run("side filters and a cross-side filter", func(t *testing.T) {
		// Probe filters on g(2), build on b(1); the residual above the
		// join compares probe b(1) with build b(4); the project reads
		// only probe a(0).
		cross, _ := expr.NewCompare(expr.Lt, colRef(1, out), colRef(4, out))
		probeF, _ := expr.NewCompare(expr.Eq, expr.Col(2, "g", types.String), expr.Lit(types.StringValue("x")))
		buildF, _ := expr.NewCompare(expr.Gt, expr.Col(1, "b", types.Float64), expr.Lit(types.FloatValue(0)))
		join := &Join{
			Probe:     &Filter{Input: scanNode(), Condition: probeF},
			Build:     &Filter{Input: scanNode(), Condition: buildF},
			ProbeKeys: []int{0}, BuildKeys: []int{2},
		}
		spine, got, err := NarrowJoin([]Node{project(0), &Filter{Condition: cross}}, join)
		if err != nil {
			t.Fatal(err)
		}
		// Probe keeps everything (a key, b cross, g own filter): unchanged.
		if got.Probe != join.Probe {
			t.Errorf("probe side needs every column and must come back itself")
		}
		if b := scanColumns(t, got.Build); b != "(b DOUBLE, g VARCHAR)" {
			t.Fatalf("build scan = %s, want (b, g)", b)
		}
		if !reflect.DeepEqual(got.BuildKeys, []int{1}) {
			t.Errorf("build key = %v, want [1]", got.BuildKeys)
		}
		if c := expr.ReferencedColumns(got.Build.(*Filter).Condition); !reflect.DeepEqual(c, []int{0}) {
			t.Errorf("build filter reads %v, want [0]", c)
		}
		if c := expr.ReferencedColumns(spine[1].(*Filter).Condition); !reflect.DeepEqual(c, []int{1, 3}) {
			t.Errorf("cross filter reads %v of the narrowed join, want [1 3]", c)
		}
	})

	t.Run("multi-key join", func(t *testing.T) {
		join := &Join{Probe: scanNode(), Build: scanNode(), ProbeKeys: []int{2, 0}, BuildKeys: []int{2, 1}}
		_, got, err := NarrowJoin([]Node{project(2)}, join)
		if err != nil {
			t.Fatal(err)
		}
		if p, b := scanColumns(t, got.Probe), scanColumns(t, got.Build); p != "(a BIGINT, g VARCHAR)" || b != "(b DOUBLE, g VARCHAR)" {
			t.Fatalf("sides = %s / %s", p, b)
		}
		if !reflect.DeepEqual(got.ProbeKeys, []int{1, 0}) || !reflect.DeepEqual(got.BuildKeys, []int{1, 0}) {
			t.Errorf("keys = %v / %v, want [1 0] / [1 0]", got.ProbeKeys, got.BuildKeys)
		}
	})

	t.Run("non-projectable side", func(t *testing.T) {
		plain := &TableScan{Catalog: "c", Table: "p", Handle: &plainHandle{schema: baseSchema()}}
		join := &Join{Probe: plain, Build: scanNode(), ProbeKeys: []int{0}, BuildKeys: []int{0}}
		spine, got, err := NarrowJoin([]Node{project(1, 4)}, join)
		if err != nil {
			t.Fatal(err)
		}
		if got.Probe != Node(plain) {
			t.Error("a side that cannot project must come back itself")
		}
		if b := scanColumns(t, got.Build); b != "(a BIGINT, b DOUBLE)" {
			t.Errorf("build scan = %s, want (a, b)", b)
		}
		if r := refs(spine[0]); !reflect.DeepEqual(r, []int{1, 4}) {
			t.Errorf("project reads %v, want [1 4] (probe width unchanged)", r)
		}
	})

	// Nothing to narrow: spine and join come back as they were.
	join := &Join{Probe: scanNode(), Build: scanNode(), ProbeKeys: []int{0}, BuildKeys: []int{0}}
	for name, spine := range map[string][]Node{
		"no rebuilder":  {&Output{}, &Limit{Count: 3}},
		"topn stop":     {project(1), &TopN{Keys: []SortKey{{Column: 4}}, Count: 3}},
		"every column":  {project(0, 1, 2, 3, 4, 5)},
		"nothing above": nil,
	} {
		same, got, err := NarrowJoin(spine, join)
		if err != nil || got != join || !reflect.DeepEqual(same, spine) {
			t.Errorf("%s: join %p (want %p) err %v, want spine and join back unchanged", name, got, join, err)
		}
	}
}
