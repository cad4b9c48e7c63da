package plan

import (
	"fmt"

	"prestocs/internal/expr"
	"prestocs/internal/substrait"
)

// The tree toolkit: the global optimizer, the connector optimizers and
// the engine's stage runner take plans apart and put them back with
// these functions and nothing else.

// Spine returns root's single-input nodes, root first, and the node they
// end on: the first with ≠ 1 inputs — a TableScan or a Join.
func Spine(root Node) (spine []Node, end Node) {
	end = root
	for {
		kids := end.Children()
		if len(kids) != 1 {
			return spine, end
		}
		spine = append(spine, end)
		end = kids[0]
	}
}

// Stack is Spine's inverse: it re-stacks copies of the spine's nodes
// (root first) over end. Each node's own input is ignored, so a rewritten
// spine may hold freshly built nodes that have none yet.
func Stack(spine []Node, end Node) (Node, error) {
	for i := len(spine) - 1; i >= 0; i-- {
		next, err := withChildren(spine[i], end)
		if err != nil {
			return nil, err
		}
		end = next
	}
	return end, nil
}

// MapBranches applies fn to every scan-rooted branch — the whole tree
// when its spine ends on a TableScan, else each input of the Join the
// spine ends on — and re-stacks the results.
func MapBranches(root Node, fn func(branch Node) (Node, error)) (Node, error) {
	spine, end := Spine(root)
	kids := end.Children()
	if len(kids) == 0 {
		return fn(root)
	}
	mapped := make([]Node, len(kids))
	for i, kid := range kids {
		var err error
		if mapped[i], err = MapBranches(kid, fn); err != nil {
			return nil, err
		}
	}
	end, err := withChildren(end, mapped...)
	if err != nil {
		return nil, err
	}
	return Stack(spine, end)
}

// withChildren returns a structural copy of parent over new inputs.
func withChildren(parent Node, kids ...Node) (Node, error) {
	if len(kids) != len(parent.Children()) || len(kids) == 0 {
		return nil, fmt.Errorf("plan: cannot give %T %d inputs", parent, len(kids))
	}
	switch t := parent.(type) {
	case *Filter:
		return &Filter{Input: kids[0], Condition: t.Condition}, nil
	case *Project:
		return &Project{Input: kids[0], Expressions: t.Expressions, Names: t.Names}, nil
	case *Aggregate:
		return &Aggregate{Input: kids[0], Keys: t.Keys, Measures: t.Measures, Step: t.Step}, nil
	case *Sort:
		return &Sort{Input: kids[0], Keys: t.Keys}, nil
	case *TopN:
		return &TopN{Input: kids[0], Keys: t.Keys, Count: t.Count, Partial: t.Partial}, nil
	case *Limit:
		return &Limit{Input: kids[0], Count: t.Count}, nil
	case *Exchange:
		return &Exchange{Input: kids[0]}, nil
	case *Output:
		return &Output{Input: kids[0], Names: t.Names}, nil
	case *Join:
		return &Join{Probe: kids[0], Build: kids[1], ProbeKeys: t.ProbeKeys, BuildKeys: t.BuildKeys, Strategy: t.Strategy}, nil
	default:
		return nil, fmt.Errorf("plan: cannot replace inputs of %T", parent)
	}
}

// NarrowColumns is the column-narrowing rule. nodes is a root-first run
// of single-input nodes reading an input of width columns. The rule
// collects the input ordinals they reference, bottom-up to the first
// schema rebuilder (Project or Aggregate; above it the input's columns
// are out of sight), and when those are a proper subset returns them,
// ascending, with a copy of nodes whose ordinals address the narrowed
// input. cols is nil when nothing can be narrowed: no rebuilder (every
// column stays visible) or every column read.
func NarrowColumns(nodes []Node, width int) (cols []int, narrowed []Node, err error) {
	needed := map[int]bool{}
	rebuilder := readColumns(nodes, needed)
	if rebuilder < 0 || len(needed) >= width {
		return nil, nodes, nil
	}
	cols, mapping := keepColumns(needed, width)
	narrowed, err = remapNodes(nodes, rebuilder, mapping)
	return cols, narrowed, err
}

// NarrowJoin carries the rule through a Join: spine is the root-first run
// of nodes above join. What the spine reads of the join's output up to
// its first rebuilder, plus both sides' keys (kept even when nothing
// above reads them), is split by side at the probe width; each side — a
// [Filter…] → TableScan branch — adds what its own filters read, its scan
// becomes WithProjection of that, and its filters, the join's keys and
// the spine are remapped onto the narrowed schemas. A side that is not
// such a branch, or whose handle cannot project, keeps every column while
// the other is still narrowed. When neither side narrows — no rebuilder
// above the join, an ordering node below it, every column read — spine
// and join come back as they were.
func NarrowJoin(spine []Node, join *Join) ([]Node, *Join, error) {
	needed := map[int]bool{}
	rebuilder := readColumns(spine, needed)
	if rebuilder < 0 {
		return spine, join, nil
	}
	probeWidth := join.Probe.OutputSchema().Len()
	for _, k := range join.ProbeKeys {
		needed[k] = true
	}
	for _, k := range join.BuildKeys {
		needed[probeWidth+k] = true
	}
	probe, probeCols, err := narrowSide(join.Probe, needed, 0)
	if err != nil {
		return nil, nil, err
	}
	build, buildCols, err := narrowSide(join.Build, needed, probeWidth)
	if err != nil {
		return nil, nil, err
	}
	if probe == join.Probe && build == join.Build {
		return spine, join, nil
	}
	mapping := make(map[int]int, len(probeCols)+len(buildCols))
	for i, c := range probeCols {
		mapping[c] = i
	}
	for i, c := range buildCols {
		mapping[probeWidth+c] = len(probeCols) + i
	}
	narrowed := &Join{
		Probe: probe, Build: build, Strategy: join.Strategy,
		ProbeKeys: make([]int, len(join.ProbeKeys)), BuildKeys: make([]int, len(join.BuildKeys)),
	}
	for i, k := range join.ProbeKeys {
		narrowed.ProbeKeys[i] = mapping[k]
	}
	for i, k := range join.BuildKeys {
		narrowed.BuildKeys[i] = mapping[probeWidth+k] - len(probeCols)
	}
	spine, err = remapNodes(spine, rebuilder, mapping)
	return spine, narrowed, err
}

// narrowSide narrows one join input to the join-output ordinals in needed
// that fall on it (the side starts at offset) plus what its own filters
// read, and returns it with the side ordinals it kept, ascending. A side
// that cannot or need not narrow comes back itself, with every ordinal.
func narrowSide(side Node, needed map[int]bool, offset int) (Node, []int, error) {
	width := side.OutputSchema().Len()
	filters, end := Spine(side)
	keep := map[int]bool{}
	readColumns(filters, keep)
	for c := 0; c < width; c++ {
		if needed[offset+c] {
			keep[c] = true
		}
	}
	scan, narrowable := end.(*TableScan)
	for _, n := range filters {
		if _, ok := n.(*Filter); !ok {
			narrowable = false
		}
	}
	var projectable ProjectableHandle
	if narrowable {
		projectable, _ = scan.Handle.(ProjectableHandle)
	}
	if projectable == nil || len(keep) >= width {
		all := make([]int, width)
		for c := range all {
			all[c] = c
		}
		return side, all, nil
	}
	cols, mapping := keepColumns(keep, width)
	filters, err := remapNodes(filters, 0, mapping)
	if err != nil {
		return nil, nil, err
	}
	narrowed, err := Stack(filters, &TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: projectable.WithProjection(cols)})
	return narrowed, cols, err
}

// readColumns is the rule's needed-set walk: it adds to needed the input
// ordinals nodes (root first) reference, bottom-up to the first schema
// rebuilder, and returns that rebuilder's index. It returns -1 when there
// is none, or when a Sort or TopN sits below it — those order by input
// ordinals the rule does not rewrite, so their input must keep its shape.
func readColumns(nodes []Node, needed map[int]bool) (rebuilder int) {
	for i := len(nodes) - 1; i >= 0; i-- {
		switch t := nodes[i].(type) {
		case *Filter:
			for _, c := range expr.ReferencedColumns(t.Condition) {
				needed[c] = true
			}
		case *Project:
			for _, e := range t.Expressions {
				for _, c := range expr.ReferencedColumns(e) {
					needed[c] = true
				}
			}
			return i
		case *Aggregate:
			for _, k := range t.Keys {
				needed[k] = true
			}
			for _, m := range t.Measures {
				if m.Arg >= 0 {
					needed[m.Arg] = true
				}
			}
			return i
		case *Sort, *TopN:
			return -1
		}
	}
	return -1
}

// keepColumns lists the needed ordinals below width, ascending, and maps
// each to its position in that list.
func keepColumns(needed map[int]bool, width int) (cols []int, mapping map[int]int) {
	mapping = make(map[int]int, len(needed))
	for c := 0; c < width; c++ {
		if needed[c] {
			mapping[c] = len(cols)
			cols = append(cols, c)
		}
	}
	return cols, mapping
}

// remapNodes is the rule's rewrite: a copy of nodes in which every node
// from index from down addresses its input through mapping. Nodes above
// from (beyond a rebuilder) are shared, not copied.
func remapNodes(nodes []Node, from int, mapping map[int]int) ([]Node, error) {
	remapped := append([]Node(nil), nodes...)
	for i := from; i < len(nodes); i++ {
		switch t := nodes[i].(type) {
		case *Filter:
			cond, err := expr.Remap(t.Condition, mapping)
			if err != nil {
				return nil, err
			}
			remapped[i] = &Filter{Condition: cond}
		case *Project:
			exprs := make([]expr.Expr, len(t.Expressions))
			for j, e := range t.Expressions {
				var err error
				if exprs[j], err = expr.Remap(e, mapping); err != nil {
					return nil, err
				}
			}
			remapped[i] = &Project{Expressions: exprs, Names: t.Names}
		case *Aggregate:
			keys := make([]int, len(t.Keys))
			for j, k := range t.Keys {
				keys[j] = mapping[k]
			}
			measures := append([]substrait.Measure(nil), t.Measures...)
			for j := range measures {
				if measures[j].Arg >= 0 {
					measures[j].Arg = mapping[measures[j].Arg]
				}
			}
			remapped[i] = &Aggregate{Keys: keys, Measures: measures, Step: t.Step}
		}
	}
	return remapped, nil
}
