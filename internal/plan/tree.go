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
	rebuilder := -1
	for i := len(nodes) - 1; i >= 0 && rebuilder < 0; i-- {
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
			rebuilder = i
		case *Aggregate:
			for _, k := range t.Keys {
				needed[k] = true
			}
			for _, m := range t.Measures {
				if m.Arg >= 0 {
					needed[m.Arg] = true
				}
			}
			rebuilder = i
		case *Sort, *TopN:
			return nil, nodes, nil // orders by input ordinals this rule does not rewrite
		}
	}
	if rebuilder < 0 || len(needed) >= width {
		return nil, nodes, nil
	}
	mapping := make(map[int]int, len(needed))
	for c := 0; c < width; c++ {
		if needed[c] {
			mapping[c] = len(cols)
			cols = append(cols, c)
		}
	}
	narrowed = append([]Node(nil), nodes...)
	for i := rebuilder; i < len(nodes); i++ {
		switch t := nodes[i].(type) {
		case *Filter:
			cond, err := expr.Remap(t.Condition, mapping)
			if err != nil {
				return nil, nil, err
			}
			narrowed[i] = &Filter{Condition: cond}
		case *Project:
			exprs := make([]expr.Expr, len(t.Expressions))
			for j, e := range t.Expressions {
				if exprs[j], err = expr.Remap(e, mapping); err != nil {
					return nil, nil, err
				}
			}
			narrowed[i] = &Project{Expressions: exprs, Names: t.Names}
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
			narrowed[i] = &Aggregate{Keys: keys, Measures: measures, Step: t.Step}
		}
	}
	return cols, narrowed, nil
}
