// Package exec implements the vectorized operator library shared by the
// compute-side query engine (internal/engine) and the OCS embedded SQL
// engine (internal/ocsserver): scan sources, filter, project, hash
// aggregation (single/partial/final), sort, top-N and limit.
//
// Operators form pull-based pipelines: Next returns the next page or nil
// when exhausted. Every operator meters the rows it processes and the
// abstract CPU units it spends into a shared Meter, which the cost model
// later prices using the hardware profile of whichever node ran the
// pipeline (this is how the paper's "weak storage CPU" effect emerges).
package exec

import (
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// Meter accumulates work done by operators in one pipeline.
type Meter struct {
	// Rows is the total rows processed across operators.
	Rows int64
	// Units is abstract CPU work (expression cost × rows, comparison
	// counts for sorts, hash probes for aggregation).
	Units float64
}

// Add merges another meter into this one.
func (m *Meter) Add(o Meter) {
	m.Rows += o.Rows
	m.Units += o.Units
}

func (m *Meter) charge(rows int, unitsPerRow float64) {
	if m == nil {
		return
	}
	m.Rows += int64(rows)
	m.Units += float64(rows) * unitsPerRow
}

// Operator is a pull-based page producer.
type Operator interface {
	// Schema describes the pages produced.
	Schema() *types.Schema
	// Next returns the next page, or nil when the operator is exhausted.
	Next() (*column.Page, error)
}

// Close releases an operator that holds external resources. Operators are
// pull-based with no mandatory lifecycle, so those that need cleanup
// (streaming page sources, and what wraps them) expose an optional Close.
func Close(op Operator) error {
	if c, ok := op.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// PageSource replays a fixed set of pages (used for tests and as the
// bridge from storage readers and deserialized Arrow results).
type PageSource struct {
	schema *types.Schema
	pages  []*column.Page
	pos    int
}

// NewPageSource wraps pages that all share schema.
func NewPageSource(schema *types.Schema, pages []*column.Page) *PageSource {
	return &PageSource{schema: schema, pages: pages}
}

// Schema implements Operator.
func (s *PageSource) Schema() *types.Schema { return s.schema }

// Next implements Operator.
func (s *PageSource) Next() (*column.Page, error) {
	if s.pos >= len(s.pages) {
		return nil, nil
	}
	p := s.pages[s.pos]
	s.pos++
	return p, nil
}

// FuncSource pulls pages from a callback until it returns nil.
type FuncSource struct {
	schema *types.Schema
	fn     func() (*column.Page, error)
}

// NewFuncSource wraps a pull callback.
func NewFuncSource(schema *types.Schema, fn func() (*column.Page, error)) *FuncSource {
	return &FuncSource{schema: schema, fn: fn}
}

// Schema implements Operator.
func (s *FuncSource) Schema() *types.Schema { return s.schema }

// Next implements Operator.
func (s *FuncSource) Next() (*column.Page, error) { return s.fn() }

// SelSource is an Operator that can hand pages over with a pending
// selection vector instead of materializing the surviving rows. Filter,
// BloomProbe, Project and HashJoinProbe (over a unique build side)
// implement it; the consumers that read through a selection (a chained
// Filter or BloomProbe, Project, HashAggregate) detect it, so between a
// scan, or a join's probe, and its group-by no filtered page is ever
// built. Dense pages are materialized only at an operator boundary that
// needs them (sort, top-N, a join's probe input, the network).
type SelSource interface {
	Operator
	// NextSel returns the next page plus the selection of live rows.
	// A nil selection means every row is live. Pages with an empty
	// selection are never returned; exhaustion is (nil, nil, nil).
	// The selection is valid until the next call only — a source may reuse
	// its buffer — so a consumer reads it before it pulls again and never
	// keeps it. So is a page handed over with a non-nil selection: it is
	// lent, its vectors may be buffers the source rewrites on the next
	// call (Project's computed columns and a join's build columns are),
	// and only its selected rows hold values. A page with a nil selection
	// is the consumer's to keep, which is why Filter and BloomProbe may
	// forward such a page as it is.
	NextSel() (*column.Page, []int, error)
}

// nextSel pulls the next page and its selection from in: through NextSel
// when in is a SelSource, else a page with every row live.
func nextSel(in Operator) (*column.Page, []int, error) {
	if sel, ok := in.(SelSource); ok {
		return sel.NextSel()
	}
	page, err := in.Next()
	return page, nil, err
}

// materialize is Next for a SelSource: its next page with the selection
// applied, or the page itself when every row is live.
func materialize(src SelSource) (*column.Page, error) {
	page, sel, err := src.NextSel()
	if err != nil || page == nil || sel == nil {
		return page, err
	}
	return page.FilterSel(sel), nil
}

// liveRows is the number of rows of page that sel (nil: all) names.
func liveRows(page *column.Page, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return page.NumRows()
}

// Filter drops rows not satisfying the predicate. It evaluates the
// predicate through the vectorized selection path (expr.Predicate):
// typed kernels over whole column buffers, with AND/OR short-circuiting
// over surviving rows only, and a computed operand evaluated into storage
// the predicate keeps from page to page.
type Filter struct {
	input Operator
	pred  *expr.Predicate
	cost  float64
	meter *Meter
	// selBuf holds the selection NextSel hands out, one page after the
	// other: it is the consumer's until the next call, as SelSource says.
	selBuf []int
}

// NewFilter validates the predicate against the input schema.
func NewFilter(input Operator, pred expr.Expr, meter *Meter) (*Filter, error) {
	p, err := expr.NewPredicate(pred)
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	return &Filter{input: input, pred: p, cost: pred.Cost(), meter: meter}, nil
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.input.Schema() }

// NextSel implements SelSource: the input page is returned untouched with
// the predicate folded into the selection vector.
func (f *Filter) NextSel() (*column.Page, []int, error) {
	for {
		page, sel, err := nextSel(f.input)
		if err != nil || page == nil {
			return nil, nil, err
		}
		live := liveRows(page, sel)
		if cap(f.selBuf) < live {
			f.selBuf = make([]int, live)
		}
		out, err := f.pred.SelectInto(page, sel, f.selBuf)
		if err != nil {
			return nil, nil, err
		}
		f.meter.charge(live, f.cost)
		if len(out) == page.NumRows() {
			// Every row survived: report "all live" so downstream
			// evaluation stays zero-copy.
			return page, nil, nil
		}
		if len(out) > 0 {
			return page, out, nil
		}
		// All rows filtered; pull the next page rather than emitting an
		// empty one.
	}
}

// Next implements Operator, materializing the selection.
func (f *Filter) Next() (*column.Page, error) { return materialize(f) }

// Project evaluates expressions into a new schema. It is a SelSource: it
// hands on its input's selection with one vector per expression, indexed
// by the input page's rows (expr.Projection) — a column reference is the
// input's vector itself, and a computed expression is evaluated only at
// the selected rows (a subexpression the list repeats, once) into buffers
// the Project rewrites on the next pull. Under a nil selection the
// vectors are new and the consumer keeps them.
type Project struct {
	input  Operator
	proj   *expr.Projection
	schema *types.Schema
	meter  *Meter
	cost   float64
}

// NewProject validates expressions and names.
func NewProject(input Operator, exprs []expr.Expr, names []string, meter *Meter) (*Project, error) {
	if len(exprs) == 0 {
		return nil, fmt.Errorf("exec: project with no expressions")
	}
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: project has %d exprs, %d names", len(exprs), len(names))
	}
	cols := make([]types.Column, len(exprs))
	var cost float64
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Type: e.Type()}
		cost += e.Cost()
	}
	proj, err := expr.NewProjection(exprs, input.Schema())
	if err != nil {
		return nil, err
	}
	return &Project{
		input:  input,
		proj:   proj,
		schema: types.NewSchema(cols...),
		meter:  meter,
		cost:   cost,
	}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// NextSel implements SelSource.
func (p *Project) NextSel() (*column.Page, []int, error) {
	page, sel, err := nextSel(p.input)
	if err != nil || page == nil {
		return nil, nil, err
	}
	if len(sel) == page.NumRows() {
		// Every row live: the vectors are the consumer's to keep, so
		// Filter and BloomProbe may forward the page as it is.
		sel = nil
	}
	vecs, err := p.proj.EvalRows(page, sel)
	if err != nil {
		return nil, nil, err
	}
	p.meter.charge(liveRows(page, sel), p.cost)
	return &column.Page{Schema: p.schema, Vectors: vecs}, sel, nil
}

// Next implements Operator, materializing the selection.
func (p *Project) Next() (*column.Page, error) { return materialize(p) }

// Limit stops after n rows.
type Limit struct {
	input     Operator
	remaining int64
}

// NewLimit caps output at n rows.
func NewLimit(input Operator, n int64) *Limit {
	return &Limit{input: input, remaining: n}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.input.Schema() }

// Next implements Operator.
func (l *Limit) Next() (*column.Page, error) {
	if l.remaining <= 0 {
		return nil, nil
	}
	page, err := l.input.Next()
	if err != nil || page == nil {
		return nil, err
	}
	if int64(page.NumRows()) > l.remaining {
		page = page.Slice(0, int(l.remaining))
	}
	l.remaining -= int64(page.NumRows())
	return page, nil
}

// Drain pulls an operator to exhaustion, returning all pages.
func Drain(op Operator) ([]*column.Page, error) {
	var out []*column.Page
	for {
		p, err := op.Next()
		if err != nil {
			return nil, err
		}
		if p == nil {
			return out, nil
		}
		out = append(out, p)
	}
}

// DrainToPage pulls an operator to exhaustion and concatenates the result
// into a single page (empty page when no rows).
func DrainToPage(op Operator) (*column.Page, error) {
	pages, err := Drain(op)
	if err != nil {
		return nil, err
	}
	out := column.NewPage(op.Schema())
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	out.Reserve(total)
	for _, p := range pages {
		out.AppendPage(p)
	}
	return out, nil
}
