// Package optimizer implements the engine's global (rule-based) optimizer,
// the phase the paper's Figure 3 labels "Logical Optimization". Rules:
//
//  1. FuseSortLimit: Limit(Sort(x)) → TopN, the form OCS can execute.
//  2. NarrowJoin: a join's two scans read only the columns the plan above
//     the join reads, plus the join keys and what each side's own filters
//     test.
//  3. PruneColumns: push column projection into the table scan handle so
//     storage reads only referenced columns (object storage's selective
//     column retrieval, §2.2).
//  4. AddExchange: decompose the plan into a distributed leaf stage (per
//     split, on workers) and a final stage (coordinator) — Aggregate
//     splits into partial+final, TopN and Limit replicate, Sort stays
//     final. The connector's local optimizer then runs on the leaf stage.
package optimizer

import (
	"fmt"

	"prestocs/internal/plan"
)

// Optimize applies the global rules in order: FuseSortLimit and NarrowJoin
// to the tree, then PruneColumns and AddExchange to every scan-rooted
// branch. A join is not a separate path: each of its inputs is a branch,
// so both scans sit under an Exchange — the probe side is the distributed
// stage the connector pushes filters (and later the build side's bloom)
// into, the build side runs as a leaf stage too and is drained into the
// hash table before any probe split — and everything above the join
// (cross-side filters, aggregation, ordering) stays on the final stage.
func Optimize(root plan.Node) (plan.Node, error) {
	root, err := fuseSortLimit(root)
	if err != nil {
		return nil, err
	}
	if root, err = narrowJoin(root); err != nil {
		return nil, err
	}
	return plan.MapBranches(root, func(branch plan.Node) (plan.Node, error) {
		branch, err := pruneColumns(branch)
		if err != nil {
			return nil, err
		}
		return addExchange(branch)
	})
}

// fuseSortLimit rewrites Limit(Sort(x)) into TopN(x). Sort and Limit only
// ever sit on the root spine: a join's inputs carry nothing but filters.
func fuseSortLimit(root plan.Node) (plan.Node, error) {
	spine, end := plan.Spine(root)
	var out []plan.Node
	for i := 0; i < len(spine); i++ {
		if lim, ok := spine[i].(*plan.Limit); ok && i+1 < len(spine) {
			if srt, ok := spine[i+1].(*plan.Sort); ok {
				out = append(out, &plan.TopN{Keys: srt.Keys, Count: lim.Count})
				i++ // skip the sort
				continue
			}
		}
		out = append(out, spine[i])
	}
	return plan.Stack(out, end)
}

// narrowJoin projects both scans of a join plan down to what the plan
// reads of them (plan.NarrowJoin). The projection lands in the scan
// handles, so both inputs stay [Filter…] → TableScan branches: the
// connector still pushes their filters, and the bloom key the engine hands
// the probe scan is ProbeKeys[0] over the projected scan schema.
func narrowJoin(root plan.Node) (plan.Node, error) {
	spine, end := plan.Spine(root)
	join, ok := end.(*plan.Join)
	if !ok {
		return root, nil
	}
	spine, join, err := plan.NarrowJoin(spine, join)
	if err != nil {
		return nil, err
	}
	return plan.Stack(spine, join)
}

// pruneColumns narrows the branch's scan to the columns referenced by the
// leaf filters and the first schema-rebuilding node (plan.NarrowColumns).
// Requires the handle to support projection.
func pruneColumns(branch plan.Node) (plan.Node, error) {
	spine, end := plan.Spine(branch)
	scan := end.(*plan.TableScan)
	projectable, ok := scan.Handle.(plan.ProjectableHandle)
	if !ok {
		return branch, nil
	}
	cols, spine, err := plan.NarrowColumns(spine, scan.Handle.ScanSchema().Len())
	if err != nil || cols == nil {
		return branch, err
	}
	return plan.Stack(spine, &plan.TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: projectable.WithProjection(cols)})
}

// addExchange splits the branch into leaf and final stages.
func addExchange(branch plan.Node) (plan.Node, error) {
	spine, scan := plan.Spine(branch)
	// Filters and projections above the scan run per split.
	cut := len(spine)
	for ; cut > 0; cut-- {
		switch spine[cut-1].(type) {
		case *plan.Filter, *plan.Project:
			continue
		}
		break
	}
	above, leaf := spine[:cut], spine[cut:]
	// The next node up runs on both sides when it can be split: one half
	// per split, the other re-merging the union right above the exchange.
	// Anything else (Sort, Output) is final-stage only.
	boundary := []plan.Node{&plan.Exchange{}}
	split := func(finalHalf, leafHalf plan.Node) {
		above, boundary = spine[:cut-1], []plan.Node{finalHalf, &plan.Exchange{}, leafHalf}
	}
	if cut > 0 {
		switch t := spine[cut-1].(type) {
		case *plan.Aggregate:
			if t.Step != plan.AggSingle {
				return nil, fmt.Errorf("optimizer: unexpected %s aggregate before exchange insertion", t.Step)
			}
			finalKeys := make([]int, len(t.Keys))
			for j := range t.Keys {
				finalKeys[j] = j
			}
			split(&plan.Aggregate{Keys: finalKeys, Measures: t.Measures, Step: plan.AggFinal},
				&plan.Aggregate{Keys: t.Keys, Measures: t.Measures, Step: plan.AggPartial})
		case *plan.TopN:
			split(&plan.TopN{Keys: t.Keys, Count: t.Count}, &plan.TopN{Keys: t.Keys, Count: t.Count, Partial: true})
		case *plan.Limit:
			split(t, t)
		}
	}
	staged := append(append(append([]plan.Node(nil), above...), boundary...), leaf...)
	return plan.Stack(staged, scan)
}
