package ocs

import (
	"math"
	"slices"

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
// the plan. A join's inputs are [Filter…, Scan] on the probe side, which
// runs in the leaf workers under the Exchange above the join, and
// [Exchange, Filter…, Scan] on the build side, so their filters push into
// their own scan handles. Each scan's schema —
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
	return plan.MapBranches(root, func(branch plan.Node) (plan.Node, error) {
		return extract(branch, mode)
	})
}

// extract absorbs one branch's pushdown-eligible operators into a modified
// scan handle — §3.4 step (1) — in three steps over the leaf stage (what
// lies below the branch's Exchange; all of a join's probe branch, which
// has none): candidates lists what storage could run, prefix decides how
// much of it is pushed, materialise writes that into the Pushdown. chain
// is the branch's spine, root first.
func extract(branch plan.Node, mode Mode) (plan.Node, error) {
	chain, end := plan.Spine(branch)
	scan := end.(*plan.TableScan)
	handle, ours := scan.Handle.(*Handle)
	if !ours {
		return branch, nil // a foreign scan
	}
	exchange := slices.IndexFunc(chain, func(n plan.Node) bool { _, ok := n.(*plan.Exchange); return ok })
	analyzer := &selectivityAnalyzer{table: handle.Table, mode: mode}
	stage, base := chain[exchange+1:], handle.baseScanSchema()
	seq := candidates(stage, base)
	n, est := analyzer.prefix(seq)
	push := materialise(handle, seq[:n], est)

	// What stays in the engine: everything down to the Exchange, and the
	// part of the leaf stage the prefix did not reach.
	above, leaf := chain[:exchange+1], stage[:len(stage)-n]
	if len(leaf) == 0 && exchange >= 0 {
		above = analyzer.absorbFinal(above, push)
	}
	if push.Empty() {
		return branch, nil
	}
	// With a filter-only pushdown, columns referenced solely by the
	// pushed predicate are consumed in-storage: narrow the returned rows
	// to what the residual leaf stage needs and remap its ordinals. This
	// is the one writer of OutputCols (see Pushdown.narrows).
	if push.Filter != nil && push.Project == nil && push.Agg == nil {
		cols, narrowed, err := plan.NarrowColumns(leaf, base.Len())
		if err != nil {
			return nil, err
		}
		push.OutputCols, leaf = cols, narrowed
	}
	pushed := handle.clone()
	pushed.Push = push
	kept := append(append([]plan.Node(nil), above...), leaf...)
	return plan.Stack(kept, &plan.TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: pushed})
}

// candidate is one leaf-stage node storage could execute, with the schema
// of the rows it reads (the space its ordinals address).
type candidate struct {
	node  plan.Node
	input *types.Schema
}

// candidates is the structural walk: bottom-up from the scan (whose schema
// is input), stage's nodes for as long as they come in the order
// BuildSubstrait runs them — a filter, a projection, a partial aggregate, a
// bare limit, each at most once. What is pushed is a prefix of this
// sequence: each operator executes on its predecessor's output in storage.
func candidates(stage []plan.Node, input *types.Schema) []candidate {
	var seq []candidate
	last := 0
	for i := len(stage) - 1; i >= 0; i-- {
		order := pipelineOrder(stage[i])
		if order <= last {
			break
		}
		seq = append(seq, candidate{node: stage[i], input: input})
		input, last = stage[i].OutputSchema(), order
	}
	return seq
}

// pipelineOrder is a node's position in the pushed pipeline, 0 for a node
// storage does not run in the leaf stage. The replicated leaf-side Limit
// (no ordering) comes last: each split may return at most Count rows, so
// pushing it is always sound; the residual final Limit truncates the union.
func pipelineOrder(n plan.Node) int {
	switch t := n.(type) {
	case *plan.Filter:
		return 1
	case *plan.Project:
		return 2
	case *plan.Aggregate:
		if t.Step == plan.AggPartial {
			return 3
		}
	case *plan.Limit:
		return 4
	}
	return 0
}

// verdict is what the prefix step says of one candidate.
type verdict int

const (
	stop  verdict = iota // the prefix ends below this candidate
	carry                // pushed only if a later candidate is cut
	cut                  // the prefix may end here
)

// prefix decides how many leading candidates are pushed: up to the last
// one judged a cut before the first stop. In auto mode it also returns the
// estimated fraction of the table's rows that leaves the prefix; static
// modes make no estimate.
func (a *selectivityAnalyzer) prefix(seq []candidate) (n int, estSelectivity float64) {
	rows := float64(a.table.RowCount)
	est, cutEst := rows, rows
	for i, c := range seq {
		var v verdict
		if v, est = a.judge(c, est); v == stop {
			break
		}
		if v == cut {
			n, cutEst = i+1, est
		}
	}
	if a.mode.Auto && n > 0 {
		estSelectivity = cutEst / rows
	}
	return n, estSelectivity
}

// judge is the one verdict function, asked of every candidate and of the
// final stage's TopN. A static mode cuts where its flag allows the operator
// and stops at the first it does not. Auto mode never stops: it cuts where
// the cumulative estimate — est rows reach the candidate, the returned
// count leaves it — clears the reduction threshold, inclusively, and
// carries the rest: a projection is a cut only on its own merits
// (ShouldPushProject) but rides along when a later aggregate cuts.
func (a *selectivityAnalyzer) judge(c candidate, est float64) (verdict, float64) {
	if !a.mode.Auto {
		if a.mode.allows(c.node) {
			return cut, est
		}
		return stop, est
	}
	switch t := c.node.(type) {
	case *plan.Filter:
		est *= a.EstimateFilterSelectivity(t.Condition, c.input)
	case *plan.Project:
		if !a.ShouldPushProject(t.Expressions, c.input) {
			return carry, est
		}
	case *plan.Aggregate:
		est = math.Min(est, a.EstimateGroups(t.Keys, c.input))
	case *plan.Limit:
		est = math.Min(est, float64(t.Count))
	case *plan.TopN:
		est = float64(t.Count) // the explicit LIMIT is the output cardinality
	}
	if rows := float64(a.table.RowCount); rows > 0 && 1-est/rows >= autoThreshold {
		return cut, est
	}
	return carry, est
}

// allows reports whether a static mode pushes the node's kind.
func (m Mode) allows(n plan.Node) bool {
	switch n.(type) {
	case *plan.Filter:
		return m.Filter
	case *plan.Project:
		return m.Project
	case *plan.Aggregate:
		return m.Agg
	case *plan.Limit, *plan.TopN:
		return m.TopN
	}
	return false
}

// materialise writes the chosen prefix and its estimate into the spec.
func materialise(h *Handle, prefix []candidate, est float64) *Pushdown {
	push := &Pushdown{EstSelectivity: est}
	for i, c := range prefix {
		switch t := c.node.(type) {
		case *plan.Filter:
			push.Filter = t.Condition
		case *plan.Project:
			push.Project = &ProjectSpec{Expressions: t.Expressions, Names: t.Names}
		case *plan.Aggregate:
			push.Agg = &AggSpec{
				Keys:     t.Keys,
				Measures: t.Measures,
				Complete: keysSplitDisjoint(h, prefix[:i], t.Keys),
			}
		case *plan.Limit:
			push.Limit = t.Count
		}
	}
	return push
}

// absorbFinal is the optional absorption above the exchange: when the
// pushed aggregate is complete per split, AggFinal [→ Project] → TopN
// collapses into the scan and only a residual re-merge TopN stays in its
// place. above is the chain down to and including the Exchange; it comes
// back rewritten, or as it was.
func (a *selectivityAnalyzer) absorbFinal(above []plan.Node, push *Pushdown) []plan.Node {
	if push.Agg == nil || !push.Agg.Complete {
		return above
	}
	at := func(i int) plan.Node {
		if i < 0 {
			return nil
		}
		return above[i]
	}
	i := len(above) - 2 // directly above the Exchange
	if final, ok := at(i).(*plan.Aggregate); !ok || final.Step != plan.AggFinal {
		return above
	}
	i--
	project, _ := at(i).(*plan.Project)
	if project != nil {
		i--
	}
	topn, ok := at(i).(*plan.TopN)
	if !ok || topn.Partial {
		return above
	}
	if v, _ := a.judge(candidate{node: topn}, 0); v != cut {
		return above
	}
	if project != nil {
		push.FinalProject = &ProjectSpec{Expressions: project.Expressions, Names: project.Names}
	}
	push.TopN = &TopNSpec{Keys: topn.Keys, Count: topn.Count}
	residual := &plan.TopN{Keys: topn.Keys, Count: topn.Count}
	return append(append([]plan.Node(nil), above[:i]...), residual, above[len(above)-1])
}

// selectivityAnalyzer implements the paper's §4 estimation rules over
// metastore statistics, and the pushdown verdicts built on them.
type selectivityAnalyzer struct {
	table *metastore.Table
	mode  Mode
}

// autoThreshold is the least estimated data-reduction ratio auto mode
// pushes for, inclusive; projectCostCap is the most expression cost
// (expr.Cost units) it pushes in one projection.
const (
	autoThreshold  = 0.5
	projectCostCap = 25
)

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
		st, ok := a.boundedStats(schema, col)
		if !okC || !okL || !okH || !ok {
			return 0.33
		}
		return math.Max(0, a.cdf(st, hi.Value)-a.cdf(st, lo.Value))
	case *expr.Compare:
		col, op, lit, ok := t.ColumnLiteral()
		if !ok {
			return 0.33
		}
		st, ok := a.boundedStats(schema, col)
		if !ok || lit.Null {
			return 0.33
		}
		eq := 0.1 // equality keeps one value's share of the rows
		if st.NDV > 0 {
			eq = 1 / float64(st.NDV)
		}
		switch op {
		case expr.Eq:
			return eq
		case expr.Ne:
			return 1 - eq
		case expr.Lt, expr.Le:
			return a.cdf(st, lit)
		default: // Gt, Ge
			return 1 - a.cdf(st, lit)
		}
	default:
		return 0.33
	}
}

// boundedStats returns the statistics of the column col names in schema
// when they record both its minimum and its maximum.
func (a *selectivityAnalyzer) boundedStats(schema *types.Schema, col *expr.ColumnRef) (metastore.ColumnStats, bool) {
	if col == nil || col.Index < 0 || col.Index >= schema.Len() {
		return metastore.ColumnStats{}, false
	}
	st, ok := a.table.Stats(schema.Columns[col.Index].Name)
	return st, ok && !st.Min.Null && !st.Max.Null
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

// ShouldPushProject pushes projections only when they shrink the row
// width enough and stay under the complexity cap — expression-heavy
// projections that don't reduce bytes are kept on the (faster) compute
// node, the paper's Q2 lesson.
func (a *selectivityAnalyzer) ShouldPushProject(exprs []expr.Expr, schema *types.Schema) bool {
	var cost float64
	for _, e := range exprs {
		cost += e.Cost()
	}
	if cost > projectCostCap {
		return false
	}
	widthIn := float64(schema.Len())
	widthOut := float64(len(exprs))
	if widthIn == 0 {
		return false
	}
	return 1-widthOut/widthIn >= autoThreshold
}

// EstimateGroups multiplies key NDVs (capped at the row count).
func (a *selectivityAnalyzer) EstimateGroups(keys []int, schema *types.Schema) float64 {
	rows, groups := float64(a.table.RowCount), 1.0
	for _, k := range keys {
		if k < 0 || k >= schema.Len() {
			return rows
		}
		st, ok := a.table.Stats(schema.Columns[k].Name)
		if !ok || st.NDV <= 0 {
			return rows
		}
		groups *= float64(st.NDV)
	}
	return math.Min(groups, rows)
}
