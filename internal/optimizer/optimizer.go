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
//     split, on workers) and a final stage (coordinator) at one Exchange
//     on the root spine. Filters and projections above a scan, or above a
//     join, run per split; a join's probe runs in the leaf workers and its
//     build side is a leaf stage of its own, under its own Exchange. An
//     Aggregate that is complete per split — a group key traces to a
//     column of the leaf chain's scan (a join's probe scan) that the zone
//     maps prove split-disjoint — moves whole into the leaf stage, with
//     the filters and projections above it. The next node up is split
//     across the Exchange when it can be: an Aggregate over a scan that is
//     not complete into partial+final; TopN into partial+final; Limit
//     replicates. Sort, Output and an incomplete aggregate over a join
//     stay final. The connector's local optimizer then runs on the leaf
//     stage and leaves the final stage as it is.
package optimizer

import (
	"fmt"

	"prestocs/internal/plan"
)

// Optimize applies the global rules in order: FuseSortLimit and NarrowJoin
// to the tree, PruneColumns to every scan-rooted branch (the whole tree,
// or each input of a join), then AddExchange to the tree.
func Optimize(root plan.Node) (plan.Node, error) {
	root, err := fuseSortLimit(root)
	if err != nil {
		return nil, err
	}
	if root, err = narrowJoin(root); err != nil {
		return nil, err
	}
	if root, err = plan.MapBranches(root, pruneColumns); err != nil {
		return nil, err
	}
	return addExchange(root)
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

// addExchange splits the plan into leaf and final stages.
func addExchange(root plan.Node) (plan.Node, error) {
	spine, end := plan.Spine(root)
	join, _ := end.(*plan.Join)
	if join != nil {
		// The build side is drained before any probe split starts: a leaf
		// stage of its own.
		end = &plan.Join{Probe: join.Probe, Build: &plan.Exchange{Input: join.Build}, ProbeKeys: join.ProbeKeys, BuildKeys: join.BuildKeys}
	}
	// Filters and projections above the scan or the join run per split,
	// and so does an aggregate that is complete per split, with the
	// filters and projections above it.
	cut := rowwiseCut(spine, len(spine))
	if cut > 0 {
		if agg, ok := spine[cut-1].(*plan.Aggregate); ok && agg.Step == plan.AggSingle && disjointKey(agg.Keys, spine[cut:], end) {
			cut = rowwiseCut(spine, cut-1)
		}
	}
	above, leaf := spine[:cut], spine[cut:]
	// The next node up runs on both sides when it can be split: one half
	// per split, the other re-merging the union right above the exchange.
	// Anything else (Sort, Output, an aggregate over a join that is not
	// complete per split) runs in the final stage only.
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
			if join != nil {
				break
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
	return plan.Stack(staged, end)
}

// rowwiseCut moves cut up the spine past the filters and projections
// directly above it: they run per split, row by row.
func rowwiseCut(spine []plan.Node, cut int) int {
	for ; cut > 0; cut-- {
		switch spine[cut-1].(type) {
		case *plan.Filter, *plan.Project:
			continue
		}
		break
	}
	return cut
}

// disjointKey reports whether an aggregate over end — the leaf chain's
// scan, or a join — is complete per split: whether one of its keys —
// ordinals over the output of below, the root-first run of filters and
// projections between it and end — traces through column references to
// a column of the leaf chain's scan (of a join, the probe scan) whose
// handle proves it split-disjoint. One key is enough: rows that agree on
// every key agree on that one, so they share a split.
func disjointKey(keys []int, below []plan.Node, end plan.Node) bool {
	width := end.OutputSchema().Len()
	var probe []plan.Node
	if join, ok := end.(*plan.Join); ok {
		width = join.Probe.OutputSchema().Len() // the probe's columns lead the join's output
		probe, end = plan.Spine(join.Probe)
	}
	scan, _ := end.(*plan.TableScan)
	if scan == nil {
		return false
	}
	handle, ok := scan.Handle.(plan.DisjointHandle)
	if !ok {
		return false
	}
	for _, k := range keys {
		if col := plan.SourceColumn(below, k); col >= 0 && col < width && handle.SplitDisjoint(plan.SourceColumn(probe, col)) {
			return true
		}
	}
	return false
}
