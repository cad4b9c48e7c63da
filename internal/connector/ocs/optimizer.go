package ocs

import (
	"math"
	"strconv"

	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/plan"
	"prestocs/internal/types"
)

// localOptimizer is the connector's ConnectorPlanOptimizer: the pushdown
// planner (Selectivity Analyzer + Operator Extractor) that runs in the
// engine's local-optimization phase.
type localOptimizer struct {
	conn *Connector
}

// Optimize runs the Operator Extractor over every scan-rooted branch of
// the plan. A join's inputs are each an [Exchange, Filter…, Scan] branch,
// so their filters push into their own scan handles. Each scan's schema —
// already projected by the global optimizer to what the plan reads, the
// join keys included — is preserved, and the join-key ordinals with it,
// because a filter-only leaf never triggers output narrowing: a column
// only the branch's own filter reads is still returned (consuming it in
// storage would take an extractor that sees across the join). Nodes above
// a join are left untouched — cross-table operators cannot execute inside
// one object's storage node.
func (o *localOptimizer) Optimize(root plan.Node, session *engine.Session) (plan.Node, error) {
	mode, err := ParseMode(session.Get(SessionPushdown))
	if err != nil {
		return nil, err
	}
	// History feedback: when recent pushdown executions have mostly been
	// failing (e.g. a flaky storage node), auto mode falls back to plain
	// scans rather than keep routing work into a broken path. This is the
	// plan-time half of the adaptive policy; the per-split half runs at
	// schedule time inside Connector.CreatePageSource.
	if mode.Auto && o.conn != nil && o.conn.policy != nil && !o.conn.policy.AdvisePlanPushdown() {
		return root, nil
	}
	return plan.MapBranches(root, func(branch plan.Node) (plan.Node, error) {
		return extract(branch, mode, session)
	})
}

// extract walks one branch bottom-up from its TableScan, absorbing
// pushdown-eligible operators into a modified scan handle, exactly the
// flow of §3.4 step (1). chain is the branch's spine, root first; the
// leaf stage is what lies below its Exchange.
func extract(branch plan.Node, mode Mode, session *engine.Session) (plan.Node, error) {
	chain, end := plan.Spine(branch)
	scan := end.(*plan.TableScan)
	handle, ok := scan.Handle.(*Handle)
	if !ok {
		return branch, nil
	}
	exchangeIdx := -1
	for i, n := range chain {
		if _, ok := n.(*plan.Exchange); ok {
			exchangeIdx = i
		}
	}
	if exchangeIdx < 0 {
		return branch, nil
	}

	analyzer := newSelectivityAnalyzer(handle.Table, session)
	push := &Pushdown{}
	absorbed := len(chain) // nodes chain[absorbed:] removed (none yet)

	// Structural walk: collect the absorbable leaf sequence
	// (filter-above-scan, then projections, then one partial aggregate).
	// Pushed operators must be a contiguous prefix because each executes
	// on its predecessor's output inside storage.
	type leafCandidate struct {
		index  int
		kind   string // "filter", "project", "agg"
		schema *types.Schema
	}
	var seq []leafCandidate
	walkSchema := handle.baseScanSchema()
structWalk:
	for i := len(chain) - 1; i > exchangeIdx; i-- {
		switch t := chain[i].(type) {
		case *plan.Filter:
			if len(seq) > 0 {
				break structWalk
			}
			seq = append(seq, leafCandidate{index: i, kind: "filter", schema: walkSchema})
		case *plan.Project:
			if len(seq) > 0 && seq[len(seq)-1].kind == "agg" {
				break structWalk
			}
			seq = append(seq, leafCandidate{index: i, kind: "project", schema: walkSchema})
			walkSchema = t.OutputSchema()
		case *plan.Aggregate:
			if t.Step != plan.AggPartial {
				break structWalk
			}
			if len(seq) > 0 && seq[len(seq)-1].kind == "agg" {
				break structWalk
			}
			seq = append(seq, leafCandidate{index: i, kind: "agg", schema: walkSchema})
			walkSchema = t.OutputSchema()
		case *plan.Limit:
			// The replicated leaf-side LIMIT (no ordering): each split
			// may return at most Count rows, so pushing it is always
			// sound; the residual final Limit truncates the union.
			seq = append(seq, leafCandidate{index: i, kind: "limit", schema: walkSchema})
		default:
			break structWalk
		}
	}

	// Decide the prefix length.
	prefix := 0
	if mode.Auto {
		// Longest prefix whose cumulative estimated reduction clears the
		// threshold. A projection is only worth pushing on its own merits
		// (width reduction + complexity cap), but is carried along when a
		// later aggregation justifies the whole prefix.
		rows := float64(handle.Table.RowCount)
		est := rows
		best := -1
		bestEst := rows
		for idx, cand := range seq {
			node := chain[cand.index]
			switch cand.kind {
			case "filter":
				est *= analyzer.EstimateFilterSelectivity(node.(*plan.Filter).Condition, cand.schema)
			case "agg":
				groups := analyzer.EstimateGroups(node.(*plan.Aggregate).Keys, cand.schema)
				if groups < est {
					est = groups
				}
			case "project":
				p := node.(*plan.Project)
				if !analyzer.ShouldPushProject(p.Expressions, cand.schema) {
					continue // not a cut point by itself
				}
			case "limit":
				if count := float64(node.(*plan.Limit).Count); count < est {
					est = count
				}
			}
			if rows > 0 && 1-est/rows >= analyzer.threshold {
				best = idx
				bestEst = est
			}
		}
		prefix = best + 1
		if prefix > 0 && rows > 0 {
			push.EstSelectivity = bestEst / rows
		}
	} else {
		for _, cand := range seq {
			ok := (cand.kind == "filter" && mode.Filter) ||
				(cand.kind == "project" && mode.Project) ||
				(cand.kind == "agg" && mode.Agg) ||
				(cand.kind == "limit" && mode.TopN)
			if !ok {
				break
			}
			prefix++
		}
	}

	// Materialize the chosen prefix into the pushdown spec.
	for _, cand := range seq[:prefix] {
		switch t := chain[cand.index].(type) {
		case *plan.Filter:
			push.Filter = t.Condition
		case *plan.Project:
			push.Project = &ProjectSpec{Expressions: t.Expressions, Names: t.Names}
		case *plan.Aggregate:
			push.Agg = &AggSpec{
				Keys:     t.Keys,
				Measures: t.Measures,
				Complete: keysSplitDisjoint(handle.Table, cand.schema, t.Keys),
			}
		case *plan.Limit:
			push.Limit = t.Count
		}
		absorbed = cand.index
	}

	// Optional full-chain absorption above the exchange: AggFinal
	// [→ Project] → TopN collapses into the scan when per-split
	// aggregation is complete, leaving only a residual re-merge TopN.
	finalAbsorbedTo := -1 // index in chain up to which final nodes are absorbed
	var residualTopN *plan.TopN
	if push.Agg != nil && push.Agg.Complete &&
		(mode.TopN || mode.Auto) {
		i := exchangeIdx - 1
		if i >= 0 {
			if aggFinal, ok := chain[i].(*plan.Aggregate); ok && aggFinal.Step == plan.AggFinal {
				j := i - 1
				var fproj *ProjectSpec
				if j >= 0 {
					if p, ok := chain[j].(*plan.Project); ok {
						fproj = &ProjectSpec{Expressions: p.Expressions, Names: p.Names}
						j--
					}
				}
				if j >= 0 {
					if topn, ok := chain[j].(*plan.TopN); ok && !topn.Partial {
						if mode.TopN || analyzer.ShouldPushTopN(topn.Count) {
							push.FinalProject = fproj
							push.TopN = &TopNSpec{Keys: topn.Keys, Count: topn.Count}
							residualTopN = &plan.TopN{Keys: topn.Keys, Count: topn.Count}
							finalAbsorbedTo = j
						}
					}
				}
			}
		}
	}

	if push.Empty() {
		return branch, nil
	}

	// Keep everything above the absorptions; the new scan goes below.
	kept := chain[:absorbed]
	if finalAbsorbedTo >= 0 {
		// Everything above chain[finalAbsorbedTo] (exclusive) is kept,
		// then residual TopN, then Exchange, then scan.
		kept = append(append([]plan.Node(nil), chain[:finalAbsorbedTo]...), residualTopN, chain[exchangeIdx])
	}

	// With a filter-only pushdown, columns referenced solely by the
	// pushed predicate are consumed in-storage: narrow the returned rows
	// to what the residual leaf stage needs and remap its ordinals.
	if push.Filter != nil && push.Project == nil && push.Agg == nil {
		cols, leaf, err := plan.NarrowColumns(kept[exchangeIdx+1:], handle.baseScanSchema().Len())
		if err != nil {
			return nil, err
		}
		push.OutputCols = cols
		kept = append(append([]plan.Node(nil), kept[:exchangeIdx+1]...), leaf...)
	}

	newHandle := &Handle{Table: handle.Table, Projection: handle.Projection, Push: push, pin: handle.pin}
	if mode.Auto {
		newHandle.Adaptive = adaptiveParams(session)
	}
	return plan.Stack(kept, &plan.TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: newHandle})
}

// selectivityAnalyzer implements the paper's §4 estimation rules over
// metastore statistics.
type selectivityAnalyzer struct {
	table     *metastore.Table
	threshold float64 // minimum data-reduction ratio to push (auto mode)
	costCap   float64 // maximum projection expression cost (auto mode)
}

func newSelectivityAnalyzer(table *metastore.Table, session *engine.Session) *selectivityAnalyzer {
	a := &selectivityAnalyzer{table: table, threshold: 0.5, costCap: 25}
	if v := session.Get(SessionSelectivityThreshold); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 && f <= 1 {
			a.threshold = f
		}
	}
	if v := session.Get(SessionComplexityCap); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			a.costCap = f
		}
	}
	return a
}

// adaptiveParams reads the auto-mode repricing knobs from the session.
func adaptiveParams(session *engine.Session) *AdaptiveParams {
	p := &AdaptiveParams{LoadCutoff: DefaultLoadCutoff, FlipMargin: DefaultFlipMargin}
	if v := session.Get(SessionAdaptiveLoadCutoff); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 0 {
			p.LoadCutoff = f
		}
	}
	if v := session.Get(SessionAdaptiveFlipMargin); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 1 {
			p.FlipMargin = f
		}
	}
	return p
}

// EstimateFilterSelectivity returns the estimated fraction of rows a
// predicate keeps, assuming normally distributed values between the
// column's min and max (the paper's §4 assumption, with its stated
// limitation for skewed data).
func (a *selectivityAnalyzer) EstimateFilterSelectivity(pred expr.Expr, schema *types.Schema) float64 {
	switch t := pred.(type) {
	case *expr.Logic:
		l := a.EstimateFilterSelectivity(t.L, schema)
		r := a.EstimateFilterSelectivity(t.R, schema)
		if t.Op == expr.And {
			return l * r
		}
		return math.Min(1, l+r)
	case *expr.Not:
		return 1 - a.EstimateFilterSelectivity(t.E, schema)
	case *expr.Between:
		col, okC := t.E.(*expr.ColumnRef)
		lo, okL := t.Lo.(*expr.Literal)
		hi, okH := t.Hi.(*expr.Literal)
		if !okC || !okL || !okH {
			return 0.33
		}
		return a.rangeProbability(schema, col, lo.Value, hi.Value)
	case *expr.Compare:
		col, okC := t.L.(*expr.ColumnRef)
		lit, okL := t.R.(*expr.Literal)
		op := t.Op
		if !okC || !okL {
			col, okC = t.R.(*expr.ColumnRef)
			lit, okL = t.L.(*expr.Literal)
			if !okC || !okL {
				return 0.33
			}
			op = mirrorCmp(op)
		}
		st, ok := a.columnStats(schema, col)
		if !ok || st.Min.Null || st.Max.Null || lit.Value.Null {
			return 0.33
		}
		switch op {
		case expr.Eq:
			if st.NDV > 0 {
				return 1 / float64(st.NDV)
			}
			return 0.1
		case expr.Ne:
			if st.NDV > 0 {
				return 1 - 1/float64(st.NDV)
			}
			return 0.9
		case expr.Lt, expr.Le:
			return a.cdf(st, lit.Value)
		case expr.Gt, expr.Ge:
			return 1 - a.cdf(st, lit.Value)
		}
		return 0.33
	default:
		return 0.33
	}
}

func mirrorCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.Lt:
		return expr.Gt
	case expr.Le:
		return expr.Ge
	case expr.Gt:
		return expr.Lt
	case expr.Ge:
		return expr.Le
	default:
		return op
	}
}

func (a *selectivityAnalyzer) columnStats(schema *types.Schema, col *expr.ColumnRef) (metastore.ColumnStats, bool) {
	if col.Index < 0 || col.Index >= schema.Len() {
		return metastore.ColumnStats{}, false
	}
	return a.table.Stats(schema.Columns[col.Index].Name)
}

// cdf evaluates the normal-approximation CDF at v for a column with the
// given stats: mean = (min+max)/2, sigma = (max-min)/6.
func (a *selectivityAnalyzer) cdf(st metastore.ColumnStats, v types.Value) float64 {
	if !st.Min.Kind.Numeric() || !v.Kind.Numeric() {
		return 0.33
	}
	lo, hi, x := st.Min.AsFloat(), st.Max.AsFloat(), v.AsFloat()
	if hi <= lo {
		if x >= hi {
			return 1
		}
		return 0
	}
	mean := (lo + hi) / 2
	sigma := (hi - lo) / 6
	z := (x - mean) / (sigma * math.Sqrt2)
	return 0.5 * (1 + math.Erf(z))
}

func (a *selectivityAnalyzer) rangeProbability(schema *types.Schema, col *expr.ColumnRef, lo, hi types.Value) float64 {
	st, ok := a.columnStats(schema, col)
	if !ok || st.Min.Null || st.Max.Null {
		return 0.33
	}
	p := a.cdf(st, hi) - a.cdf(st, lo)
	if p < 0 {
		return 0
	}
	return p
}

// ShouldPushProject pushes projections only when they shrink the row
// width enough and stay under the complexity cap — expression-heavy
// projections that don't reduce bytes are kept on the (faster) compute
// node, the paper's Q2 lesson.
func (a *selectivityAnalyzer) ShouldPushProject(exprs []expr.Expr, schema *types.Schema) bool {
	var cost float64
	for _, e := range exprs {
		cost += e.Cost()
	}
	if cost > a.costCap {
		return false
	}
	widthIn := float64(schema.Len())
	widthOut := float64(len(exprs))
	if widthIn == 0 {
		return false
	}
	return 1-widthOut/widthIn >= a.threshold
}

// ShouldPushAgg estimates output cardinality as rowCount / NDV(keys) per
// the paper and pushes when the reduction clears the threshold.
func (a *selectivityAnalyzer) ShouldPushAgg(keys []int, schema *types.Schema) bool {
	rows := float64(a.table.RowCount)
	if rows == 0 {
		return false
	}
	groups := a.EstimateGroups(keys, schema)
	return 1-groups/rows >= a.threshold
}

// EstimateGroups multiplies key NDVs (capped at the row count).
func (a *selectivityAnalyzer) EstimateGroups(keys []int, schema *types.Schema) float64 {
	groups := 1.0
	for _, k := range keys {
		if k < 0 || k >= schema.Len() {
			return float64(a.table.RowCount)
		}
		st, ok := a.table.Stats(schema.Columns[k].Name)
		if !ok || st.NDV <= 0 {
			return float64(a.table.RowCount)
		}
		groups *= float64(st.NDV)
	}
	if rows := float64(a.table.RowCount); groups > rows {
		return rows
	}
	return groups
}

// ShouldPushTopN uses the explicit LIMIT as the output cardinality.
func (a *selectivityAnalyzer) ShouldPushTopN(count int64) bool {
	rows := float64(a.table.RowCount)
	if rows == 0 {
		return false
	}
	return 1-float64(count)/rows >= a.threshold
}
