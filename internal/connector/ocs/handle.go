// Package ocs implements the Presto-OCS connector — the paper's
// contribution. It plugs into the engine's Connector SPI and:
//
//   - extends the local-optimizer phase with a pushdown planner that walks
//     the plan bottom-up, uses the Selectivity Analyzer (metastore min/max,
//     NDV and row counts, §4) to score operators, and absorbs eligible
//     Filter / expression-Project / Aggregation / Top-N nodes into a
//     modified TableScan handle (the Operator Extractor);
//   - translates the extracted operators into Substrait IR in its
//     PageSourceProvider and ships them to OCS over the RPC layer;
//   - deserializes Arrow results back into engine pages and leaves
//     residual operators (final aggregation, re-merged Top-N) to the
//     engine.
package ocs

import (
	"fmt"
	"strings"

	"prestocs/internal/bloom"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// SessionPushdown is the session property selecting the pushdown mode:
// "none", "filter", "filter_project", "filter_agg", "filter_project_agg",
// "all" or "auto" (Selectivity Analyzer decides). Default "all".
const SessionPushdown = "ocs.pushdown"

// Mode is a parsed pushdown configuration.
type Mode struct {
	Filter  bool
	Project bool // expression (pre-aggregation) projection
	Agg     bool
	TopN    bool
	Auto    bool
}

// ParseMode interprets the SessionPushdown property.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "all":
		return Mode{Filter: true, Project: true, Agg: true, TopN: true}, nil
	case "none":
		return Mode{}, nil
	case "filter":
		return Mode{Filter: true}, nil
	case "filter_project":
		return Mode{Filter: true, Project: true}, nil
	case "filter_agg":
		return Mode{Filter: true, Agg: true}, nil
	case "filter_project_agg":
		return Mode{Filter: true, Project: true, Agg: true}, nil
	case "auto":
		return Mode{Auto: true}, nil
	default:
		return Mode{}, fmt.Errorf("ocs: unknown pushdown mode %q", s)
	}
}

// ProjectSpec is an extracted projection.
type ProjectSpec struct {
	Expressions []expr.Expr
	Names       []string
}

// AggSpec is an extracted aggregation.
type AggSpec struct {
	Keys     []int
	Measures []substrait.Measure
}

// TopNSpec is an extracted top-N.
type TopNSpec struct {
	Keys  []plan.SortKey
	Count int64
}

// BloomSpec is a join build side's membership filter attached to the
// probe scan: storage tests each scanned row's key column against the
// bits, hashed or direct (bloom.Filter's two forms), and drops proven
// non-members before they cross the network. The filter is conservative
// (false positives only), so the engine's hash join stays the
// correctness authority.
type BloomSpec struct {
	// Column is the join-key ordinal over the scan output schema (the
	// projected one: the join's ProbeKeys[0]).
	Column int
	Filter *bloom.Filter
}

// Pushdown is the Operator Extractor's output: the operators absorbed
// into the modified TableScan, in execution order.
type Pushdown struct {
	Filter expr.Expr // over the projected scan schema
	// OutputCols narrows the rows returned after a pushed filter to the
	// columns the residual plan still needs (ordinals over the projected
	// scan schema): columns referenced only by the pushed filter are
	// consumed in-storage and never cross the network. Project and Agg
	// define the output themselves, and the extractor — the one writer —
	// sets this on a filter-only pushdown alone: readers ask narrows().
	OutputCols []int
	// Project is the pre-aggregation expression projection.
	Project *ProjectSpec
	Agg     *AggSpec
	// FinalProject is the post-aggregation projection (avg division).
	// Only an aggregate complete per split has one in the leaf stage.
	FinalProject *ProjectSpec
	TopN         *TopNSpec
	// Limit is a bare LIMIT (no ordering) pushed per split: each storage
	// node returns at most Limit rows and the engine's residual Limit
	// truncates the union — always sound. 0 when absent.
	Limit int64
	// EstSelectivity is the Selectivity Analyzer's plan-time estimate of
	// the fraction of scanned rows the pushed pipeline keeps (0 when the
	// planner produced no estimate; static modes make none).
	EstSelectivity float64
	// Bloom is a join build-side semi-filter, evaluated right after the
	// pushed filter. Set by the engine (via WithJoinBloom) after the
	// build side is drained, never by the plan-time extractor.
	Bloom *BloomSpec
}

// Operators lists the pushed operator kinds in order; a nil Pushdown
// pushes nothing.
func (p *Pushdown) Operators() []string {
	if p == nil {
		return nil
	}
	var ops []string
	if p.Filter != nil {
		ops = append(ops, "filter")
	}
	if p.Bloom != nil {
		ops = append(ops, "bloom")
	}
	if p.Project != nil {
		ops = append(ops, "project")
	}
	if p.Agg != nil {
		ops = append(ops, "aggregation")
	}
	if p.FinalProject != nil {
		ops = append(ops, "final-project")
	}
	if p.TopN != nil {
		ops = append(ops, "topn")
	}
	if p.Limit > 0 {
		ops = append(ops, "limit")
	}
	return ops
}

// narrows reports whether the scan returns a column subset of the rows the
// pushed filter kept; OutputCols says why this is the whole test.
func (p *Pushdown) narrows() bool { return p.OutputCols != nil }

// Empty reports whether nothing is pushed (true of a nil Pushdown).
func (p *Pushdown) Empty() bool { return len(p.Operators()) == 0 }

// OrderDeterministic reports whether the pushed pipeline's output order
// is a pure function of the stored object: filter, projection and limit
// preserve the row-group scan order (which the storage node's parallel
// scanner merges order-preservingly), while partial aggregation and
// top-N emit in hash/heap order. Only an order-deterministic pipeline
// can be resumed after a mid-stream failure by replaying locally and
// skipping rows already delivered.
func (p *Pushdown) OrderDeterministic() bool { return p.Agg == nil && p.TopN == nil }

// Handle is the OCS connector's table handle: table metadata, column
// projection and the pushdown spec.
type Handle struct {
	Table      *metastore.Table
	Projection []int // base-schema ordinals; nil = all
	Push       *Pushdown
	// pin holds the metastore snapshot this handle's Table was read at;
	// every copy the optimizer or join machinery makes shares it, and the
	// engine releases it exactly once when the query finishes. Nil for
	// handles built outside the pinned path (tests, direct construction).
	pin *metastore.Pin
}

// ReleaseSnapshot implements engine.SnapshotHandle: it releases the
// metastore pin taken at plan time, allowing compaction to physically
// delete objects this snapshot referenced. Idempotent; shared by all
// copies of the handle.
func (h *Handle) ReleaseSnapshot() { h.pin.Release() }

// ConnectorName implements plan.TableHandle.
func (h *Handle) ConnectorName() string { return h.Table.Schema }

// baseScanSchema is the projected object schema before pushed operators.
func (h *Handle) baseScanSchema() *types.Schema {
	if h.Projection == nil {
		return h.Table.Columns
	}
	return h.Table.Columns.Project(h.Projection)
}

// ScanSchema implements plan.TableHandle: the schema of pages the scan
// produces after in-storage execution of the pushed operators.
func (h *Handle) ScanSchema() *types.Schema {
	schema := h.baseScanSchema()
	if h.Push == nil {
		return schema
	}
	if h.Push.narrows() {
		schema = schema.Project(h.Push.OutputCols)
	}
	if h.Push.Project != nil {
		schema = plan.ProjectSchema(h.Push.Project.Expressions, h.Push.Project.Names)
	}
	if h.Push.Agg != nil {
		// Storage nodes run every aggregate as PARTIAL: a SINGLE one
		// pushed here has keys, so its rows and schema are the same.
		schema = plan.AggregateSchema(schema, h.Push.Agg.Keys, h.Push.Agg.Measures, plan.AggPartial)
	}
	if h.Push.FinalProject != nil {
		schema = plan.ProjectSchema(h.Push.FinalProject.Expressions, h.Push.FinalProject.Names)
	}
	return schema
}

// clone returns a copy of the handle for the caller to change one field
// of. The copy shares everything else — the snapshot pin included, which
// is released once for all copies.
func (h *Handle) clone() *Handle {
	c := *h
	return &c
}

// WithProjection implements plan.ProjectableHandle.
func (h *Handle) WithProjection(cols []int) plan.TableHandle {
	c := h.clone()
	c.Projection = cols
	return c
}

// WithJoinBloom implements plan.BloomJoinHandle: a copy of the handle
// whose scan evaluates the build side's bloom filter in storage, right
// after the pushed filter. It declines when the pushed pipeline
// rebuilds rows (project/agg/top-N/limit) — a join probe branch never
// carries those, but a foreign plan shape must not silently mis-map the
// key ordinal.
func (h *Handle) WithJoinBloom(column int, filter *bloom.Filter, _ int64) (plan.TableHandle, bool) {
	if filter == nil || column < 0 || column >= h.ScanSchema().Len() {
		return nil, false
	}
	if h.Push != nil && (h.Push.Project != nil || h.Push.Agg != nil ||
		h.Push.FinalProject != nil || h.Push.TopN != nil || h.Push.Limit > 0) {
		return nil, false
	}
	c := h.clone()
	c.Push = &Pushdown{}
	if h.Push != nil {
		*c.Push = *h.Push
	}
	c.Push.Bloom = &BloomSpec{Column: column, Filter: filter}
	return c, true
}

// PushedOperators implements engine.PushdownReporter.
func (h *Handle) PushedOperators() []string { return h.Push.Operators() }

// String implements fmt.Stringer.
func (h *Handle) String() string {
	parts := []string{h.Table.QualifiedName()}
	if h.Projection != nil {
		parts = append(parts, fmt.Sprintf("cols=%d", len(h.Projection)))
	}
	if !h.Push.Empty() {
		parts = append(parts, "pushdown="+strings.Join(h.Push.Operators(), "+"))
	}
	return "ocs:" + strings.Join(parts, ", ")
}

// SplitDisjoint implements plan.DisjointHandle from the pinned table's
// zone maps (metastore.Table.SplitDisjoint). It answers for a scan that
// pushes nothing, the one the global optimizer plans over.
func (h *Handle) SplitDisjoint(col int) bool {
	schema := h.ScanSchema()
	return h.Push.Empty() && col >= 0 && col < schema.Len() && h.Table.SplitDisjoint(schema.Columns[col].Name)
}
