// Package expr defines the expression tree shared by the SQL analyzer, the
// logical plan, the Substrait translator and both execution engines
// (compute-side and OCS-side), plus a vectorized evaluator over
// column.Pages.
//
// Expressions are resolved: column references carry the input ordinal, so
// an expression can be evaluated against any page whose schema matches the
// plan node's input. Cost accounting (Cost) feeds both the connector's
// Selectivity Analyzer (expression-complexity cap) and the hardware cost
// model (CPU units per row).
package expr

import (
	"fmt"
	"strings"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// Expr is a typed, resolved scalar expression.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.Kind
	// String renders a SQL-ish debug form.
	String() string
	// Cost returns abstract CPU units consumed per row evaluated; used by
	// the cost model and the pushdown complexity cap.
	Cost() float64
}

// ColumnRef references an input column by ordinal.
type ColumnRef struct {
	Index int
	Name  string
	Kind  types.Kind
}

// Col builds a column reference.
func Col(index int, name string, kind types.Kind) *ColumnRef {
	return &ColumnRef{Index: index, Name: name, Kind: kind}
}

func (c *ColumnRef) Type() types.Kind { return c.Kind }
func (c *ColumnRef) String() string   { return c.Name }
func (c *ColumnRef) Cost() float64    { return 0.5 }

// Literal is a constant.
type Literal struct {
	Value types.Value
}

// Lit builds a literal.
func Lit(v types.Value) *Literal { return &Literal{Value: v} }

func (l *Literal) Type() types.Kind { return l.Value.Kind }
func (l *Literal) String() string {
	if l.Value.Kind == types.String && !l.Value.Null {
		return "'" + l.Value.S + "'"
	}
	return l.Value.String()
}
func (l *Literal) Cost() float64 { return 0 }

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith is a binary arithmetic expression. Result type is the common
// numeric promotion of the operands (Mod requires integers).
type Arith struct {
	Op   ArithOp
	L, R Expr
	kind types.Kind
}

// NewArith type-checks and builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) (*Arith, error) {
	k, err := types.CommonKind(l.Type(), r.Type())
	if err != nil {
		return nil, fmt.Errorf("expr: %s %s %s: %w", l, op, r, err)
	}
	if !k.Numeric() {
		return nil, fmt.Errorf("expr: arithmetic on %s", k)
	}
	if op == Mod && k != types.Int64 {
		return nil, fmt.Errorf("expr: %% requires BIGINT operands, got %s", k)
	}
	if k == types.Date {
		// Date arithmetic yields day counts.
		k = types.Int64
	}
	return &Arith{Op: op, L: l, R: r, kind: k}, nil
}

func (a *Arith) Type() types.Kind { return a.kind }
func (a *Arith) String() string   { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }
func (a *Arith) Cost() float64 {
	c := a.L.Cost() + a.R.Cost() + 1
	if a.Op == Div || a.Op == Mod {
		c += 2 // division is markedly more expensive per element
	}
	return c
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[op] }

// Negate returns the complementary operator (for predicate rewrites).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	default:
		return Lt
	}
}

// Mirror flips the operator across its operands: l OP r holds exactly
// when r OP.Mirror() l does. Eq and Ne are symmetric.
func (op CmpOp) Mirror() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op
	}
}

// Compare is a binary comparison yielding BOOLEAN.
type Compare struct {
	Op   CmpOp
	L, R Expr
}

// NewCompare type-checks and builds a comparison node.
func NewCompare(op CmpOp, l, r Expr) (*Compare, error) {
	lk, rk := l.Type(), r.Type()
	if lk != rk {
		if _, err := types.CommonKind(lk, rk); err != nil {
			return nil, fmt.Errorf("expr: %s %s %s: %w", l, op, r, err)
		}
	}
	return &Compare{Op: op, L: l, R: r}, nil
}

func (c *Compare) Type() types.Kind { return types.Bool }
func (c *Compare) String() string   { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }
func (c *Compare) Cost() float64    { return c.L.Cost() + c.R.Cost() + 1 }

// ColumnLiteral reads a comparison between a column and a literal, written
// either way round, as column OP literal: `5 < x` comes back as (x, >, 5).
// ok is false for any other pair of operands.
func (c *Compare) ColumnLiteral() (col *ColumnRef, op CmpOp, lit types.Value, ok bool) {
	l, r, op := c.L, c.R, c.Op
	if _, literalFirst := l.(*Literal); literalFirst {
		l, r, op = r, l, op.Mirror()
	}
	col, okCol := l.(*ColumnRef)
	right, okLit := r.(*Literal)
	if !okCol || !okLit {
		return nil, 0, types.Value{}, false
	}
	return col, op, right.Value, true
}

// LogicOp enumerates boolean connectives.
type LogicOp uint8

const (
	And LogicOp = iota
	Or
)

func (op LogicOp) String() string { return [...]string{"AND", "OR"}[op] }

// Logic is AND/OR over boolean operands (SQL three-valued logic).
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// NewLogic type-checks and builds a logic node.
func NewLogic(op LogicOp, l, r Expr) (*Logic, error) {
	if l.Type() != types.Bool || r.Type() != types.Bool {
		return nil, fmt.Errorf("expr: %s requires BOOLEAN operands", op)
	}
	return &Logic{Op: op, L: l, R: r}, nil
}

func (l *Logic) Type() types.Kind { return types.Bool }
func (l *Logic) String() string   { return fmt.Sprintf("(%s %s %s)", l.L, l.Op, l.R) }
func (l *Logic) Cost() float64    { return l.L.Cost() + l.R.Cost() + 0.5 }

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// NewNot type-checks and builds a NOT node.
func NewNot(e Expr) (*Not, error) {
	if e.Type() != types.Bool {
		return nil, fmt.Errorf("expr: NOT requires BOOLEAN operand")
	}
	return &Not{E: e}, nil
}

func (n *Not) Type() types.Kind { return types.Bool }
func (n *Not) String() string   { return fmt.Sprintf("(NOT %s)", n.E) }
func (n *Not) Cost() float64    { return n.E.Cost() + 0.5 }

// Between is e BETWEEN lo AND hi (inclusive), kept as a dedicated node so
// the Selectivity Analyzer can recognize range predicates directly.
type Between struct {
	E, Lo, Hi Expr
}

// NewBetween type-checks and builds a BETWEEN node.
func NewBetween(e, lo, hi Expr) (*Between, error) {
	for _, pair := range [][2]Expr{{e, lo}, {e, hi}} {
		if _, err := types.CommonKind(pair[0].Type(), pair[1].Type()); err != nil && pair[0].Type() != pair[1].Type() {
			return nil, fmt.Errorf("expr: BETWEEN type mismatch: %w", err)
		}
	}
	return &Between{E: e, Lo: lo, Hi: hi}, nil
}

func (b *Between) Type() types.Kind { return types.Bool }
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}
func (b *Between) Cost() float64 { return b.E.Cost() + b.Lo.Cost() + b.Hi.Cost() + 2 }

// Cast converts an expression to a target kind.
type Cast struct {
	E  Expr
	To types.Kind
}

func (c *Cast) Type() types.Kind { return c.To }
func (c *Cast) String() string   { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }
func (c *Cast) Cost() float64    { return c.E.Cost() + 1 }

// IsNull tests for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool // IS NOT NULL
}

func (n *IsNull) Type() types.Kind { return types.Bool }
func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}
func (n *IsNull) Cost() float64 { return n.E.Cost() + 0.5 }

// Walk calls fn for every node in the expression tree, pre-order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range children(e) {
		Walk(c, fn)
	}
}

// children lists a node's operands, left to right.
func children(e Expr) []Expr {
	switch t := e.(type) {
	case *Arith:
		return []Expr{t.L, t.R}
	case *Compare:
		return []Expr{t.L, t.R}
	case *Logic:
		return []Expr{t.L, t.R}
	case *Not:
		return []Expr{t.E}
	case *Between:
		return []Expr{t.E, t.Lo, t.Hi}
	case *Cast:
		return []Expr{t.E}
	case *IsNull:
		return []Expr{t.E}
	}
	return nil
}

// ReferencedColumns returns the sorted set of input ordinals the expression
// reads.
func ReferencedColumns(e Expr) []int {
	seen := map[int]bool{}
	Walk(e, func(n Expr) {
		if c, ok := n.(*ColumnRef); ok {
			seen[c.Index] = true
		}
	})
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Remap returns a copy of the expression with column ordinals rewritten
// through mapping (old index -> new index). Unmapped references are an
// error.
func Remap(e Expr, mapping map[int]int) (Expr, error) {
	var err error
	var remap func(Expr) Expr
	remap = func(e Expr) Expr {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return mapChildren(e, remap)
		}
		ni, ok := mapping[ref.Index]
		if !ok {
			if err == nil {
				err = fmt.Errorf("expr: column %s (#%d) not available after remap", ref.Name, ref.Index)
			}
			return ref
		}
		return &ColumnRef{Index: ni, Name: ref.Name, Kind: ref.Kind}
	}
	out := remap(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Conjuncts splits a predicate on top-level ANDs.
func Conjuncts(e Expr) []Expr {
	if l, ok := e.(*Logic); ok && l.Op == And {
		return append(Conjuncts(l.L), Conjuncts(l.R)...)
	}
	return []Expr{e}
}

// AndAll combines predicates with AND; nil for an empty slice.
func AndAll(preds []Expr) Expr {
	var out Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &Logic{Op: And, L: out, R: p}
		}
	}
	return out
}

// Format renders a list of expressions comma-separated.
func Format(exprs []Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Eval evaluates the expression over every row of the page, returning a
// result vector of e.Type(). Evaluation is vectorized: typed kernels
// (kernels.go) process whole column buffers with null-bitmap propagation,
// falling back to the row-wise evalRow for nodes without kernels. The
// result may share buffers with the page (a bare column reference is zero
// copy); vectors are immutable by convention.
func Eval(e Expr, page *column.Page) (*column.Vector, error) {
	return evalVec(e, page, nil)
}

// EvalConst evaluates a column-free expression (a VALUES item); a column
// reference is an error, there being no row to read it from.
func EvalConst(e Expr) (types.Value, error) {
	return evalRow(e, column.NewPage(types.NewSchema()), 0)
}

// evalRow evaluates the expression for a single row. It is unexported so
// that no operator outside this package can evaluate row by row.
func evalRow(e Expr, page *column.Page, i int) (types.Value, error) {
	switch t := e.(type) {
	case *ColumnRef:
		if t.Index < 0 || t.Index >= page.NumCols() {
			return types.Value{}, fmt.Errorf("expr: column ordinal %d out of range (%d cols)", t.Index, page.NumCols())
		}
		return page.Vectors[t.Index].Value(i), nil
	case *Literal:
		return t.Value, nil
	case *Arith:
		l, err := evalRow(t.L, page, i)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(t.R, page, i)
		if err != nil {
			return types.Value{}, err
		}
		return evalArith(t, l, r)
	case *Compare:
		l, err := evalRow(t.L, page, i)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(t.R, page, i)
		if err != nil {
			return types.Value{}, err
		}
		if l.Null || r.Null {
			return types.NullValue(types.Bool), nil
		}
		return types.BoolValue(cmpHolds(t.Op, types.Compare(l, r))), nil
	case *Logic:
		l, err := evalRow(t.L, page, i)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(t.R, page, i)
		if err != nil {
			return types.Value{}, err
		}
		return evalLogic(t.Op, l, r), nil
	case *Not:
		v, err := evalRow(t.E, page, i)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null {
			return v, nil
		}
		return types.BoolValue(!v.B), nil
	case *Between:
		v, err := evalRow(t.E, page, i)
		if err != nil {
			return types.Value{}, err
		}
		lo, err := evalRow(t.Lo, page, i)
		if err != nil {
			return types.Value{}, err
		}
		hi, err := evalRow(t.Hi, page, i)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null || lo.Null || hi.Null {
			return types.NullValue(types.Bool), nil
		}
		return types.BoolValue(types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0), nil
	case *Cast:
		v, err := evalRow(t.E, page, i)
		if err != nil {
			return types.Value{}, err
		}
		return types.Coerce(v, t.To)
	case *IsNull:
		v, err := evalRow(t.E, page, i)
		if err != nil {
			return types.Value{}, err
		}
		return types.BoolValue(v.Null != t.Negate), nil
	default:
		return types.Value{}, fmt.Errorf("expr: eval: unknown node %T", e)
	}
}

func evalArith(t *Arith, l, r types.Value) (types.Value, error) {
	if l.Null || r.Null {
		return types.NullValue(t.kind), nil
	}
	if t.kind == types.Float64 {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch t.Op {
		case Add:
			return types.FloatValue(lf + rf), nil
		case Sub:
			return types.FloatValue(lf - rf), nil
		case Mul:
			return types.FloatValue(lf * rf), nil
		case Div:
			if rf == 0 {
				return types.Value{}, fmt.Errorf("expr: division by zero")
			}
			return types.FloatValue(lf / rf), nil
		default:
			return types.Value{}, fmt.Errorf("expr: %% on DOUBLE")
		}
	}
	li, ri := l.I, r.I
	switch t.Op {
	case Add:
		return types.IntValue(li + ri), nil
	case Sub:
		return types.IntValue(li - ri), nil
	case Mul:
		return types.IntValue(li * ri), nil
	case Div:
		if ri == 0 {
			return types.Value{}, fmt.Errorf("expr: division by zero")
		}
		return types.IntValue(li / ri), nil
	case Mod:
		if ri == 0 {
			return types.Value{}, fmt.Errorf("expr: modulo by zero")
		}
		return types.IntValue(li % ri), nil
	default:
		return types.Value{}, fmt.Errorf("expr: unknown arith op")
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// evalLogic implements SQL three-valued AND/OR.
func evalLogic(op LogicOp, l, r types.Value) types.Value {
	if op == And {
		switch {
		case !l.Null && !l.B, !r.Null && !r.B:
			return types.BoolValue(false)
		case l.Null || r.Null:
			return types.NullValue(types.Bool)
		default:
			return types.BoolValue(true)
		}
	}
	switch {
	case !l.Null && l.B, !r.Null && r.B:
		return types.BoolValue(true)
	case l.Null || r.Null:
		return types.NullValue(types.Bool)
	default:
		return types.BoolValue(false)
	}
}

// EvalPredicate evaluates a boolean expression into a keep-mask; NULL
// results are treated as false (SQL WHERE semantics). It evaluates
// through the selection-vector path, so AND/OR short-circuit: rows
// already rejected by the left side never evaluate the right side (and
// never surface its runtime errors). Callers that want the selection
// directly should use EvalSelection.
func EvalPredicate(e Expr, page *column.Page) ([]bool, error) {
	sel, err := EvalSelection(e, page)
	if err != nil {
		return nil, err
	}
	return column.SelToMask(sel, page.NumRows()), nil
}

// FoldConstants rewrites constant subtrees into literals. Errors during
// constant evaluation (e.g. division by zero) leave the subtree unfolded so
// runtime semantics are preserved.
func FoldConstants(e Expr) Expr {
	folded := foldChildren(e)
	if _, ok := folded.(*Literal); ok {
		return folded
	}
	if len(ReferencedColumns(folded)) > 0 {
		return folded
	}
	empty := column.NewPage(types.NewSchema())
	// Evaluate against a synthetic single-row page with no columns.
	v, err := evalRowConst(folded, empty)
	if err != nil {
		return folded
	}
	return Lit(v)
}

func evalRowConst(e Expr, p *column.Page) (types.Value, error) { return evalRow(e, p, 0) }

func foldChildren(e Expr) Expr { return mapChildren(e, FoldConstants) }

// mapChildren returns a copy of e with every direct child replaced by
// f(child); a leaf, or a node of a kind this package does not know, is
// returned as it is.
func mapChildren(e Expr, f func(Expr) Expr) Expr {
	switch t := e.(type) {
	case *Arith:
		return &Arith{Op: t.Op, L: f(t.L), R: f(t.R), kind: t.kind}
	case *Compare:
		return &Compare{Op: t.Op, L: f(t.L), R: f(t.R)}
	case *Logic:
		return &Logic{Op: t.Op, L: f(t.L), R: f(t.R)}
	case *Not:
		return &Not{E: f(t.E)}
	case *Between:
		return &Between{E: f(t.E), Lo: f(t.Lo), Hi: f(t.Hi)}
	case *Cast:
		return &Cast{E: f(t.E), To: t.To}
	case *IsNull:
		return &IsNull{E: f(t.E), Negate: t.Negate}
	default:
		return e
	}
}
