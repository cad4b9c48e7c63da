// Package exec implements the vectorized operator library shared by the
// compute-side query engine (internal/engine) and the OCS embedded SQL
// engine (internal/ocsserver): scan sources, filter, project, hash
// aggregation (single/partial/final), sort, top-N and limit.
//
// Operators form pull-based pipelines with one pull (Operator.Next): rows
// move between operators as selections over the page where they lie, and
// only an operator that holds rows past the next pull copies them. Every
// operator meters the rows it processes and the abstract CPU units it
// spends into a shared Meter, which the cost model later prices using the
// hardware profile of whichever node ran the pipeline (this is how the
// paper's "weak storage CPU" effect emerges).
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
	// Next returns the next page and the selection of its live rows
	// (sorted; nil means every row, and an empty one is never returned),
	// or a nil page once the operator is exhausted. Both are lent until
	// the next pull, and only the selected rows hold values. A consumer
	// that holds rows past that pull (Sort, TopN, a join's build, Drain,
	// the engine's exchange) copies them: column.Page.Keep.
	Next() (*column.Page, []int, error)
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
func (s *PageSource) Next() (*column.Page, []int, error) {
	if s.pos >= len(s.pages) {
		return nil, nil, nil
	}
	p := s.pages[s.pos]
	s.pos++
	return p, nil, nil
}

// FuncSource pulls pages from a callback until it returns nil: each page
// with every row live.
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
func (s *FuncSource) Next() (*column.Page, []int, error) {
	page, err := s.fn()
	return page, nil, err
}

// liveRows is the number of rows of page that sel (nil: all) names.
func liveRows(page *column.Page, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return page.NumRows()
}

// poison, when set (the package's tests set it), makes Project and the
// lending HashJoinProbe scribble over the buffers they lent before every
// pull, so that a consumer that holds a lent page past its next pull
// reads garbage and fails loudly.
var poison bool

// Filter drops rows not satisfying the predicate. It evaluates the
// predicate through the vectorized selection path (expr.Predicate):
// typed kernels over whole column buffers, with AND/OR short-circuiting
// over surviving rows only, and a computed operand evaluated into storage
// the predicate keeps from page to page. The input page goes on untouched
// with the predicate folded into its selection.
type Filter struct {
	input Operator
	pred  *expr.Predicate
	cost  float64
	meter *Meter
	// selBuf holds the selection Next hands out, one page after the other.
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

// Next implements Operator.
func (f *Filter) Next() (*column.Page, []int, error) {
	for {
		page, sel, err := f.input.Next()
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
			return page, nil, nil
		}
		if len(out) > 0 {
			return page, out, nil
		}
		// All rows filtered; pull the next page rather than emitting an
		// empty one.
	}
}

// Project evaluates expressions into a new schema. It hands on its
// input's selection with one vector per expression, indexed by the input
// page's rows (expr.Projection): a column reference is the input's vector
// itself, and a computed expression is evaluated only at the selected
// rows (a subexpression the list repeats, once) into buffers the Project
// rewrites on the next pull, so its page is Reused. A Project of column
// references only is Reused exactly when its input's page is.
type Project struct {
	input  Operator
	proj   *expr.Projection
	schema *types.Schema
	meter  *Meter
	cost   float64
	// computes is whether any expression is not a column reference; page
	// is the page handed out while Reused.
	computes bool
	page     column.Page
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
	computes := false
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Type: e.Type()}
		cost += e.Cost()
		if _, ok := e.(*expr.ColumnRef); !ok {
			computes = true
		}
	}
	proj, err := expr.NewProjection(exprs, input.Schema())
	if err != nil {
		return nil, err
	}
	schema := types.NewSchema(cols...)
	return &Project{
		input:    input,
		proj:     proj,
		schema:   schema,
		meter:    meter,
		cost:     cost,
		computes: computes,
		page:     column.Page{Schema: schema, Vectors: make([]*column.Vector, len(exprs)), Reused: true},
	}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// Next implements Operator.
func (p *Project) Next() (*column.Page, []int, error) {
	if poison {
		p.proj.Scribble()
	}
	page, sel, err := p.input.Next()
	if err != nil || page == nil {
		return nil, nil, err
	}
	out := &p.page
	if !p.computes && !page.Reused {
		// Input columns that stay as they are: a page a consumer may keep.
		out = &column.Page{Schema: p.schema, Vectors: make([]*column.Vector, len(p.page.Vectors))}
	}
	if err := p.proj.Eval(out.Vectors, page, sel); err != nil {
		return nil, nil, err
	}
	p.meter.charge(liveRows(page, sel), p.cost)
	return out, sel, nil
}

// Limit stops after n rows: it cuts the selection of the page that
// reaches the n-th row.
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
func (l *Limit) Next() (*column.Page, []int, error) {
	if l.remaining <= 0 {
		return nil, nil, nil
	}
	page, sel, err := l.input.Next()
	if err != nil || page == nil {
		return nil, nil, err
	}
	switch {
	case int64(liveRows(page, sel)) <= l.remaining:
	case sel != nil:
		sel = sel[:l.remaining]
	default:
		sel = make([]int, l.remaining)
		for i := range sel {
			sel[i] = i
		}
	}
	l.remaining -= int64(liveRows(page, sel))
	return page, sel, nil
}

// Drain pulls an operator to exhaustion, returning all pages, each one
// the caller keeps (column.Page.Keep).
func Drain(op Operator) ([]*column.Page, error) {
	var out []*column.Page
	for {
		p, sel, err := op.Next()
		if err != nil {
			return nil, err
		}
		if p == nil {
			return out, nil
		}
		out = append(out, p.Keep(sel))
	}
}

// DrainToPage pulls an operator to exhaustion and appends the live rows
// of every page into a single page (empty page when no rows).
func DrainToPage(op Operator) (*column.Page, error) {
	out := column.NewPage(op.Schema())
	for {
		p, sel, err := op.Next()
		if err != nil {
			return nil, err
		}
		if p == nil {
			return out, nil
		}
		out.AppendPage(p, sel)
	}
}
