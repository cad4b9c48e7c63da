// Package plan defines the engine's logical plan tree, mirroring Presto's
// PlanNode hierarchy for the operators this system supports: TableScan,
// Filter, Project, Aggregate (single/partial/final), Sort, TopN, Limit
// and Output, plus the Exchange marker separating the distributed leaf
// stage (per split, on workers) from the final stage (on the
// coordinator). Connector plan optimizers rewrite this tree during the
// local-optimization phase, absorbing pushdown-eligible nodes into the
// TableScan's connector handle.
package plan

import (
	"fmt"
	"strings"

	"prestocs/internal/bloom"
	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// TableHandle is the connector-owned, opaque description of a scan. The
// OCS connector stores its pushdown spec here (like Presto's
// ConnectorTableHandle).
type TableHandle interface {
	fmt.Stringer
	// ConnectorName identifies the owning connector.
	ConnectorName() string
	// ScanSchema is the schema the scan produces, which pushdown can
	// change (e.g. partial-aggregate columns).
	ScanSchema() *types.Schema
}

// ProjectableHandle is implemented by handles that can restrict the scan
// to a subset of columns (selective column retrieval). WithProjection
// returns a new handle whose ScanSchema is the base schema projected to
// cols (base-schema ordinals, ascending).
type ProjectableHandle interface {
	TableHandle
	WithProjection(cols []int) TableHandle
}

// BloomJoinHandle is implemented by handles that can evaluate a join
// build side's bloom filter inside the storage scan. WithJoinBloom
// returns a new handle whose scan drops rows the filter proves absent
// from the build side; column is the key ordinal over ScanSchema and
// buildKeys the distinct-key count behind the filter, for a handle that
// prices the filter's selectivity. ok=false declines the filter — e.g. when pushed
// operators rebuild the schema and the key ordinal cannot be mapped —
// and the engine keeps the filter on its side instead.
type BloomJoinHandle interface {
	TableHandle
	WithJoinBloom(column int, filter *bloom.Filter, buildKeys int64) (h TableHandle, ok bool)
}

// Node is a logical plan node.
type Node interface {
	// OutputSchema is the node's result schema.
	OutputSchema() *types.Schema
	// Children returns input nodes: none for a TableScan, probe then build
	// for a Join, one for everything else.
	Children() []Node
	// Describe renders a one-line summary.
	Describe() string
}

// TableScan reads from a connector.
type TableScan struct {
	Catalog string
	Table   string
	Handle  TableHandle
}

// OutputSchema implements Node.
func (n *TableScan) OutputSchema() *types.Schema { return n.Handle.ScanSchema() }

// Children implements Node.
func (n *TableScan) Children() []Node { return nil }

// Describe implements Node.
func (n *TableScan) Describe() string {
	return fmt.Sprintf("TableScan[%s.%s, %s]", n.Catalog, n.Table, n.Handle)
}

// Filter keeps rows matching Condition.
type Filter struct {
	Input     Node
	Condition expr.Expr
}

// OutputSchema implements Node.
func (n *Filter) OutputSchema() *types.Schema { return n.Input.OutputSchema() }

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Filter) Describe() string { return "Filter[" + n.Condition.String() + "]" }

// Project computes expressions.
type Project struct {
	Input       Node
	Expressions []expr.Expr
	Names       []string
}

// OutputSchema implements Node.
func (n *Project) OutputSchema() *types.Schema { return ProjectSchema(n.Expressions, n.Names) }

// ProjectSchema is the schema a projection of exprs named names produces;
// connectors that execute an absorbed Project derive their scan schema
// with it.
func ProjectSchema(exprs []expr.Expr, names []string) *types.Schema {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Type: e.Type()}
	}
	return types.NewSchema(cols...)
}

// Children implements Node.
func (n *Project) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Project) Describe() string { return "Project[" + expr.Format(n.Expressions) + "]" }

// AggStep mirrors Presto's aggregation steps.
type AggStep uint8

const (
	// AggSingle computes complete aggregates in one pass.
	AggSingle AggStep = iota
	// AggPartial emits mergeable partial states (leaf stage).
	AggPartial
	// AggFinal merges partial states (final stage).
	AggFinal
)

func (s AggStep) String() string {
	return [...]string{"SINGLE", "PARTIAL", "FINAL"}[s]
}

// Aggregate groups by key ordinals and computes measures. Output schema
// is keys then measures (matching exec.HashAggregate).
type Aggregate struct {
	Input    Node
	Keys     []int
	Measures []substrait.Measure
	Step     AggStep
}

// OutputSchema implements Node.
func (n *Aggregate) OutputSchema() *types.Schema {
	return AggregateSchema(n.Input.OutputSchema(), n.Keys, n.Measures, n.Step)
}

// AggregateSchema is the schema an aggregation over in produces: keys
// then measures. A final step reads its measures' kinds off the partial
// state columns.
func AggregateSchema(in *types.Schema, keys []int, measures []substrait.Measure, step AggStep) *types.Schema {
	var cols []types.Column
	for _, k := range keys {
		cols = append(cols, in.Columns[k])
	}
	for i, m := range measures {
		inKind := types.Int64
		if step == AggFinal {
			inKind = in.Columns[len(keys)+i].Type
		} else if m.Func != substrait.AggCountStar {
			inKind = in.Columns[m.Arg].Type
		}
		outKind, err := m.Func.ResultKind(inKind)
		if err != nil {
			outKind = types.Unknown
		}
		cols = append(cols, types.Column{Name: m.Name, Type: outKind})
	}
	return types.NewSchema(cols...)
}

// Children implements Node.
func (n *Aggregate) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Aggregate) Describe() string {
	parts := make([]string, len(n.Measures))
	for i, m := range n.Measures {
		parts[i] = string(m.Func)
	}
	return fmt.Sprintf("Aggregate(%s)[keys=%d, %s]", n.Step, len(n.Keys), strings.Join(parts, ","))
}

// SortKey orders by an output ordinal; the plan, the Substrait IR and the
// operator library share one definition.
type SortKey = substrait.SortKey

// Sort fully orders the input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// OutputSchema implements Node.
func (n *Sort) OutputSchema() *types.Schema { return n.Input.OutputSchema() }

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Sort) Describe() string { return fmt.Sprintf("Sort[%d keys]", len(n.Keys)) }

// TopN is Sort+Limit fused.
type TopN struct {
	Input Node
	Keys  []SortKey
	Count int64
	// Partial marks the leaf-stage local top-N; the final stage re-runs
	// a full TopN over the union (always sound, see DESIGN.md §4).
	Partial bool
}

// OutputSchema implements Node.
func (n *TopN) OutputSchema() *types.Schema { return n.Input.OutputSchema() }

// Children implements Node.
func (n *TopN) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *TopN) Describe() string {
	phase := "FINAL"
	if n.Partial {
		phase = "PARTIAL"
	}
	return fmt.Sprintf("TopN(%s)[%d]", phase, n.Count)
}

// Limit truncates output.
type Limit struct {
	Input Node
	Count int64
}

// OutputSchema implements Node.
func (n *Limit) OutputSchema() *types.Schema { return n.Input.OutputSchema() }

// Children implements Node.
func (n *Limit) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Limit) Describe() string { return fmt.Sprintf("Limit[%d]", n.Count) }

// JoinStrategy is how a hash join distributes its build side.
type JoinStrategy uint8

const (
	// JoinAuto defers the choice to the engine, which measures the built
	// table and applies the cost model's broadcast threshold.
	JoinAuto JoinStrategy = iota
	// JoinBroadcast replicates the built hash table to every leaf worker,
	// probing inside the leaf stage.
	JoinBroadcast
	// JoinFinalStage keeps the built table on the coordinator and probes
	// the exchange stream in the final stage.
	JoinFinalStage
)

func (s JoinStrategy) String() string {
	return [...]string{"AUTO", "BROADCAST", "FINAL_STAGE"}[s]
}

// Join is an inner hash equi-join. The build side is fully drained into a
// hash table keyed by BuildKeys before the probe side streams; output is
// the probe columns followed by the build columns. ProbeKeys index the
// probe child's schema, BuildKeys the build child's; pairs match
// positionally.
type Join struct {
	Probe Node
	Build Node
	// ProbeKeys/BuildKeys are equi-key ordinals, positionally paired.
	ProbeKeys []int
	BuildKeys []int
	Strategy  JoinStrategy
}

// OutputSchema implements Node: probe columns then build columns.
func (n *Join) OutputSchema() *types.Schema {
	p, b := n.Probe.OutputSchema(), n.Build.OutputSchema()
	cols := make([]types.Column, 0, p.Len()+b.Len())
	cols = append(cols, p.Columns...)
	cols = append(cols, b.Columns...)
	return types.NewSchema(cols...)
}

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.Probe, n.Build} }

// Describe implements Node.
func (n *Join) Describe() string {
	return fmt.Sprintf("Join(INNER,%s)[probe=%v build=%v]", n.Strategy, n.ProbeKeys, n.BuildKeys)
}

// Exchange marks the leaf/final stage boundary: everything below runs per
// split on workers, everything above runs once on the coordinator.
type Exchange struct {
	Input Node
}

// OutputSchema implements Node.
func (n *Exchange) OutputSchema() *types.Schema { return n.Input.OutputSchema() }

// Children implements Node.
func (n *Exchange) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Exchange) Describe() string { return "Exchange" }

// Output names the final result columns.
type Output struct {
	Input Node
	Names []string
}

// OutputSchema implements Node.
func (n *Output) OutputSchema() *types.Schema {
	in := n.Input.OutputSchema()
	cols := make([]types.Column, in.Len())
	for i, c := range in.Columns {
		name := c.Name
		if i < len(n.Names) && n.Names[i] != "" {
			name = n.Names[i]
		}
		cols[i] = types.Column{Name: name, Type: c.Type}
	}
	return types.NewSchema(cols...)
}

// Children implements Node.
func (n *Output) Children() []Node { return []Node{n.Input} }

// Describe implements Node.
func (n *Output) Describe() string { return "Output[" + strings.Join(n.Names, ", ") + "]" }

// Format renders the tree indented, scan at the deepest level — the shape
// Presto's EXPLAIN prints.
func Format(root Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString("- " + n.Describe() + "\n")
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}

// Walk visits nodes top-down.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// FindScan returns the first TableScan in Walk order — the only scan of
// a single-table plan, the probe scan of a join (nil when absent).
func FindScan(root Node) *TableScan {
	if scans := FindScans(root); len(scans) > 0 {
		return scans[0]
	}
	return nil
}

// FindScans returns every TableScan in the tree, in Walk (top-down,
// probe-before-build) order.
func FindScans(root Node) []*TableScan {
	var scans []*TableScan
	Walk(root, func(n Node) {
		if s, ok := n.(*TableScan); ok {
			scans = append(scans, s)
		}
	})
	return scans
}

// FindJoin returns the tree's Join node (nil when absent; this engine
// plans at most one join per query).
func FindJoin(root Node) *Join {
	var join *Join
	Walk(root, func(n Node) {
		if j, ok := n.(*Join); ok {
			join = j
		}
	})
	return join
}
