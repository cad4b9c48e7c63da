// Package analyzer performs semantic analysis: it resolves a parsed
// SELECT statement against the catalog, type-checks every expression and
// produces the logical plan (TableScan → Filter → Project → Aggregate →
// Sort/Limit → Output) that the optimizer and connectors then rewrite.
//
// Two rewrites happen here because they must be engine-wide invariants:
//
//   - AVG decomposition: avg(x) becomes sum(x) and count(x) measures plus
//     a final division projection, so distributed (and pushed-down)
//     aggregation stays exact.
//   - Aggregate-argument projection: when an aggregate's argument is a
//     non-column expression (TPC-H Q1's sum(extendedprice*(1-discount))),
//     a pre-aggregation Project computes it — the "expression projection"
//     operator the paper's Deep Water and TPC-H plans contain.
package analyzer

import (
	"fmt"
	"slices"
	"strings"

	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Resolver supplies connector table handles during analysis (implemented
// by the engine's catalog registry).
type Resolver interface {
	// ResolveTable returns the handle for catalog.table. The handle's
	// ScanSchema is the table's full schema at this point.
	ResolveTable(catalog, table string) (plan.TableHandle, error)
}

// Analyze builds a logical plan for the statement. defaultCatalog is used
// for unqualified table names. The steps run in order, each over the plan
// the previous one built: FROM (scopes, join, WHERE), the select list,
// the aggregate, ORDER BY/LIMIT, and the output.
func Analyze(stmt *sqlparser.SelectStmt, resolver Resolver, defaultCatalog string) (plan.Node, error) {
	a := &analysis{stmt: stmt}
	root, err := a.from(resolver, defaultCatalog)
	if err != nil {
		return nil, err
	}
	items, names, err := a.selectList()
	if err != nil {
		return nil, err
	}
	if root, err = a.aggregate(root, items, names); err != nil {
		return nil, err
	}
	if root, err = a.orderLimit(root, names); err != nil {
		return nil, err
	}
	return &plan.Output{Input: root, Names: names}, nil
}

type analysis struct {
	stmt *sqlparser.SelectStmt
	// base is the column list every expression resolves against: the
	// FROM-clause tables' columns concatenated in source order, each
	// scope recording its ordinal offset into it.
	base   []types.Column
	scopes []scope
	// measures are the aggregates the select list registered, in first-use
	// order; measure i is referenced as ordinal len(base)+i until
	// aggregate remaps it onto the Aggregate's output.
	measures []measure
}

// scope is one FROM-clause table visible to name resolution.
type scope struct {
	alias  string // "" when the table was not aliased
	table  string
	schema *types.Schema
	offset int
}

// matches reports whether a qualifier refers to this scope: the alias
// when one was declared, else the table name (standard SQL hides the
// table name behind an alias).
func (s scope) matches(qualifier string) bool {
	if s.alias != "" {
		return strings.EqualFold(s.alias, qualifier)
	}
	return strings.EqualFold(s.table, qualifier)
}

// measure is one aggregate computation; avg arrives as a sum and a count.
type measure struct {
	fn   substrait.AggFunc
	arg  expr.Expr // nil for count(*)
	text string    // arg's rendering, the dedup key beside fn
}

// from resolves the FROM clause into scopes and plans the scan below the
// select list: one table filtered by WHERE, or a join with WHERE routed
// by scope.
func (a *analysis) from(resolver Resolver, defaultCatalog string) (plan.Node, error) {
	if len(a.stmt.Joins) > 1 {
		return nil, fmt.Errorf("analyzer: at most one JOIN per query is supported")
	}
	refs := []sqlparser.TableRef{a.stmt.From}
	if len(a.stmt.Joins) == 1 {
		refs = append(refs, a.stmt.Joins[0].Table)
	}
	var scans []*plan.TableScan
	for _, ref := range refs {
		catalog := ref.Name.Schema
		if catalog == "" {
			catalog = defaultCatalog
		}
		handle, err := resolver.ResolveTable(catalog, ref.Name.Table)
		if err != nil {
			return nil, err
		}
		schema := handle.ScanSchema()
		a.scopes = append(a.scopes, scope{alias: ref.Alias, table: ref.Name.Table, schema: schema, offset: len(a.base)})
		a.base = append(a.base, schema.Columns...)
		scans = append(scans, &plan.TableScan{Catalog: catalog, Table: ref.Name.Table, Handle: handle})
	}
	if len(scans) == 2 {
		return a.join(scans[0], scans[1])
	}
	if a.stmt.Where == nil {
		return scans[0], nil
	}
	cond, err := a.resolveWhere()
	if err != nil {
		return nil, err
	}
	return &plan.Filter{Input: scans[0], Condition: cond}, nil
}

// resolveWhere resolves the WHERE clause against the base columns and
// type-checks it to boolean.
func (a *analysis) resolveWhere() (expr.Expr, error) {
	cond, err := a.resolveScalar(a.stmt.Where, nil)
	if err != nil {
		return nil, fmt.Errorf("analyzer: WHERE: %w", err)
	}
	cond = expr.FoldConstants(cond)
	if cond.Type() != types.Bool {
		return nil, fmt.Errorf("analyzer: WHERE clause has type %s", cond.Type())
	}
	return cond, nil
}

// join plans `FROM left JOIN right ON ...` with the WHERE clause
// split by scope: conjuncts touching only one table become a Filter
// directly above that table's scan (so connector pushdown sees them),
// mixed conjuncts filter above the join. The ON clause must be a
// conjunction of equality comparisons between one column from each side.
func (a *analysis) join(probe, build *plan.TableScan) (plan.Node, error) {
	leftWidth := a.scopes[1].offset

	// ON: extract positionally-paired equi-keys.
	on, err := a.resolveScalar(a.stmt.Joins[0].On, nil)
	if err != nil {
		return nil, fmt.Errorf("analyzer: ON: %w", err)
	}
	var probeKeys, buildKeys []int
	for _, c := range expr.Conjuncts(on) {
		cmp, ok := c.(*expr.Compare)
		if !ok || cmp.Op != expr.Eq {
			return nil, fmt.Errorf("analyzer: ON supports equality conjunctions only, got %s", c)
		}
		l, lok := cmp.L.(*expr.ColumnRef)
		r, rok := cmp.R.(*expr.ColumnRef)
		if !lok || !rok {
			return nil, fmt.Errorf("analyzer: ON keys must be plain columns, got %s", c)
		}
		if r.Index < leftWidth && l.Index >= leftWidth {
			l, r = r, l // normalize to left = probe side
		}
		if l.Index >= leftWidth || r.Index < leftWidth {
			return nil, fmt.Errorf("analyzer: ON must compare one column from each table, got %s", c)
		}
		if l.Kind != r.Kind {
			return nil, fmt.Errorf("analyzer: ON key type mismatch: %s is %s, %s is %s", l.Name, l.Kind, r.Name, r.Kind)
		}
		probeKeys = append(probeKeys, l.Index)
		buildKeys = append(buildKeys, r.Index-leftWidth)
	}

	// WHERE: route each conjunct to the narrowest scope that covers it.
	var probeConj, buildConj, crossConj []expr.Expr
	if a.stmt.Where != nil {
		cond, err := a.resolveWhere()
		if err != nil {
			return nil, err
		}
		buildRemap := make(map[int]int, len(a.base)-leftWidth)
		for i := 0; i < len(a.base)-leftWidth; i++ {
			buildRemap[leftWidth+i] = i
		}
		for _, c := range expr.Conjuncts(cond) {
			refs := expr.ReferencedColumns(c)
			onProbe, onBuild := false, false
			for _, idx := range refs {
				if idx < leftWidth {
					onProbe = true
				} else {
					onBuild = true
				}
			}
			switch {
			case onBuild && !onProbe:
				remapped, err := expr.Remap(c, buildRemap)
				if err != nil {
					return nil, err
				}
				buildConj = append(buildConj, remapped)
			case onProbe && onBuild:
				crossConj = append(crossConj, c)
			default: // probe-only (and constant) conjuncts
				probeConj = append(probeConj, c)
			}
		}
	}

	var probeSide plan.Node = probe
	if p := expr.AndAll(probeConj); p != nil {
		probeSide = &plan.Filter{Input: probeSide, Condition: p}
	}
	var buildSide plan.Node = build
	if p := expr.AndAll(buildConj); p != nil {
		buildSide = &plan.Filter{Input: buildSide, Condition: p}
	}
	var root plan.Node = &plan.Join{
		Probe:     probeSide,
		Build:     buildSide,
		ProbeKeys: probeKeys,
		BuildKeys: buildKeys,
	}
	if p := expr.AndAll(crossConj); p != nil {
		root = &plan.Filter{Input: root, Condition: p}
	}
	return root, nil
}

// selectList resolves every select item against the base columns in one
// pass. `*` expands to every base column in order; an aggregate call
// registers its measures and resolves to placeholder refs (aggregateRef).
func (a *analysis) selectList() ([]expr.Expr, []string, error) {
	var exprs []expr.Expr
	var names []string
	for _, item := range a.stmt.Items {
		if _, isStar := item.Expr.(*sqlparser.Star); isStar {
			for i, c := range a.base {
				exprs = append(exprs, expr.Col(i, c.Name, c.Type))
				names = append(names, c.Name)
			}
			continue
		}
		e, err := a.resolveScalar(item.Expr, &a.measures)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(item))
	}
	return exprs, names, nil
}

// aggregateRef resolves an aggregate call in the select list. The
// argument is resolved with no measure list, so a nested aggregate is an
// error. The call becomes a ref to its measure, and avg becomes
// CAST(sum AS DOUBLE) / CAST(count AS DOUBLE) over two.
func (a *analysis) aggregateRef(call *sqlparser.FuncCall, measures *[]measure) (expr.Expr, error) {
	fn, ok := aggFuncName(call.Name)
	if !ok {
		return nil, fmt.Errorf("analyzer: unknown function %q", call.Name)
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("analyzer: %s takes one argument", call.Name)
	}
	if _, isStar := call.Args[0].(*sqlparser.Star); isStar {
		if fn != "count" {
			return nil, fmt.Errorf("analyzer: %s(*) is not valid", call.Name)
		}
		return a.measureRef(measures, substrait.AggCountStar, nil), nil
	}
	arg, err := a.resolveScalar(call.Args[0], nil)
	if err != nil {
		return nil, err
	}
	arg = expr.FoldConstants(arg)
	if fn == "avg" {
		if !arg.Type().Numeric() {
			return nil, fmt.Errorf("analyzer: avg over %s", arg.Type())
		}
		sum := a.measureRef(measures, substrait.AggSum, arg)
		count := a.measureRef(measures, substrait.AggCount, arg)
		return expr.NewArith(expr.Div,
			&expr.Cast{E: sum, To: types.Float64},
			&expr.Cast{E: count, To: types.Float64})
	}
	if _, err := substrait.AggFunc(fn).ResultKind(arg.Type()); err != nil {
		return nil, err
	}
	return a.measureRef(measures, substrait.AggFunc(fn), arg), nil
}

// measureRef registers fn(arg) in measures unless the same function over
// the same argument text is already there, and returns the placeholder
// ref for it: ordinal len(base)+i, named $agg<i>, of the measure's result
// kind.
func (a *analysis) measureRef(measures *[]measure, fn substrait.AggFunc, arg expr.Expr) *expr.ColumnRef {
	m := measure{fn: fn, arg: arg}
	inKind := types.Int64
	if arg != nil {
		m.text, inKind = arg.String(), arg.Type()
	}
	i := slices.IndexFunc(*measures, func(o measure) bool { return o.fn == m.fn && o.text == m.text })
	if i < 0 {
		i = len(*measures)
		*measures = append(*measures, m)
	}
	kind, _ := fn.ResultKind(inKind) // every caller has checked fn over arg
	return expr.Col(len(a.base)+i, fmt.Sprintf("$agg%d", i), kind)
}

// aggregate puts the resolved select list over root. A query with no
// measure and no GROUP BY is one Project of the folded items. Otherwise
// it plans a single-step Aggregate — behind a pre-projection when some
// measure argument is not a bare column — and a final Project: the select
// list remapped onto the Aggregate's output, group-key ordinals to
// 0..k-1 and measure placeholders len(base)+i to k+i.
func (a *analysis) aggregate(root plan.Node, items []expr.Expr, names []string) (plan.Node, error) {
	if len(a.measures) == 0 && len(a.stmt.GroupBy) == 0 {
		for i, e := range items {
			items[i] = expr.FoldConstants(e)
		}
		return &plan.Project{Input: root, Expressions: items, Names: names}, nil
	}
	var keyCols []*expr.ColumnRef
	for _, g := range a.stmt.GroupBy {
		e, err := a.resolveScalar(g, nil)
		if err != nil {
			return nil, fmt.Errorf("analyzer: GROUP BY: %w", err)
		}
		col, ok := e.(*expr.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("analyzer: GROUP BY supports columns only, got %s", e)
		}
		keyCols = append(keyCols, col)
	}

	agg := &plan.Aggregate{Input: root, Step: plan.AggSingle}
	var pre *plan.Project
	if slices.ContainsFunc(a.measures, func(m measure) bool {
		_, col := m.arg.(*expr.ColumnRef)
		return m.arg != nil && !col
	}) {
		pre = &plan.Project{Input: root}
		agg.Input = pre
	}
	// place returns the Aggregate-input ordinal of a key or measure
	// argument: its base ordinal when the Aggregate reads root directly,
	// else the pre-projection column it is appended as.
	place := func(e expr.Expr, name string) int {
		if pre == nil {
			return e.(*expr.ColumnRef).Index
		}
		pre.Expressions = append(pre.Expressions, e)
		pre.Names = append(pre.Names, name)
		return len(pre.Expressions) - 1
	}

	final := make(map[int]int, len(keyCols)+len(a.measures))
	for i, k := range keyCols {
		if _, dup := final[k.Index]; !dup {
			final[k.Index] = i
		}
		agg.Keys = append(agg.Keys, place(k, k.Name))
	}
	for i, m := range a.measures {
		final[len(a.base)+i] = len(keyCols) + i
		sm := substrait.Measure{Func: m.fn, Arg: -1, Name: fmt.Sprintf("$agg%d", i)}
		if m.arg != nil {
			sm.Arg = place(m.arg, fmt.Sprintf("$arg%d", i))
		}
		agg.Measures = append(agg.Measures, sm)
	}

	for i, e := range items {
		for _, idx := range expr.ReferencedColumns(e) {
			if _, ok := final[idx]; !ok {
				return nil, fmt.Errorf("analyzer: column %q must appear in GROUP BY or inside an aggregate", a.base[idx].Name)
			}
		}
		var err error
		if items[i], err = expr.Remap(e, final); err != nil {
			return nil, err
		}
	}
	return &plan.Project{Input: agg, Expressions: items, Names: names}, nil
}

// orderLimit adds ORDER BY, resolved against the output names (a select
// alias, a select-item name or a bare 1-based position), and LIMIT.
func (a *analysis) orderLimit(root plan.Node, names []string) (plan.Node, error) {
	byName := map[string]int{}
	for i, n := range names {
		byName[strings.ToLower(n)] = i
	}
	var keys []plan.SortKey
	for _, item := range a.stmt.OrderBy {
		var ordinal = -1
		switch t := item.Expr.(type) {
		case *sqlparser.Ident:
			// Try the rendered form first so `ORDER BY l.orderkey` matches
			// the unaliased select item "l.orderkey"; fall back to the bare
			// column name for aliases.
			if idx, ok := byName[strings.ToLower(t.String())]; ok {
				ordinal = idx
			} else if idx, ok := byName[strings.ToLower(t.Name)]; ok {
				ordinal = idx
			}
		case *sqlparser.NumberLit:
			var n int
			if _, err := fmt.Sscanf(t.Text, "%d", &n); err == nil && n >= 1 && n <= len(names) {
				ordinal = n - 1
			}
		}
		if ordinal < 0 {
			return nil, fmt.Errorf("analyzer: ORDER BY %s does not match any output column", item.Expr)
		}
		keys = append(keys, plan.SortKey{Column: ordinal, Descending: item.Desc})
	}
	if len(keys) > 0 {
		root = &plan.Sort{Input: root, Keys: keys}
	}
	if a.stmt.Limit >= 0 {
		root = &plan.Limit{Input: root, Count: a.stmt.Limit}
	}
	return root, nil
}

// resolveScalar converts an AST expression against the base columns.
// measures is the aggregate hook: nil where an aggregate is not allowed,
// else the list an aggregate call registers its measures in (see
// aggregateRef).
func (a *analysis) resolveScalar(node sqlparser.Node, measures *[]measure) (expr.Expr, error) {
	switch t := node.(type) {
	case *sqlparser.Ident:
		idx, err := a.resolveInScopes(t)
		if err != nil {
			return nil, err
		}
		return expr.Col(idx, a.base[idx].Name, a.base[idx].Type), nil
	case *sqlparser.NumberLit:
		if strings.ContainsAny(t.Text, ".eE") {
			v, err := types.ParseValue(t.Text, types.Float64)
			if err != nil {
				return nil, err
			}
			return expr.Lit(v), nil
		}
		v, err := types.ParseValue(t.Text, types.Int64)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case *sqlparser.StringLit:
		return expr.Lit(types.StringValue(t.Value)), nil
	case *sqlparser.BoolLit:
		return expr.Lit(types.BoolValue(t.Value)), nil
	case *sqlparser.NullLit:
		return expr.Lit(types.NullValue(types.Unknown)), nil
	case *sqlparser.DateLit:
		v, err := types.DateFromString(t.Text)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case *sqlparser.IntervalLit:
		// Interval-days participate in date arithmetic as plain integers.
		return expr.Lit(types.IntValue(t.Days)), nil
	case *sqlparser.Binary:
		l, err := a.resolveScalar(t.L, measures)
		if err != nil {
			return nil, err
		}
		r, err := a.resolveScalar(t.R, measures)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sqlparser.Unary:
		inner, err := a.resolveScalar(t.E, measures)
		if err != nil {
			return nil, err
		}
		return combineUnary(t.Op, inner)
	case *sqlparser.BetweenNode:
		e, err := a.resolveScalar(t.E, measures)
		if err != nil {
			return nil, err
		}
		lo, err := a.resolveScalar(t.Lo, measures)
		if err != nil {
			return nil, err
		}
		hi, err := a.resolveScalar(t.Hi, measures)
		if err != nil {
			return nil, err
		}
		b, err := expr.NewBetween(e, lo, hi)
		if err != nil {
			return nil, err
		}
		if t.Negate {
			return expr.NewNot(b)
		}
		return b, nil
	case *sqlparser.IsNullNode:
		e, err := a.resolveScalar(t.E, measures)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: e, Negate: t.Negate}, nil
	case *sqlparser.CastNode:
		e, err := a.resolveScalar(t.E, measures)
		if err != nil {
			return nil, err
		}
		kind, err := types.ParseKind(t.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: e, To: kind}, nil
	case *sqlparser.FuncCall:
		if measures == nil {
			return nil, fmt.Errorf("analyzer: aggregate %q not allowed here", t.Name)
		}
		return a.aggregateRef(t, measures)
	case *sqlparser.Star:
		return nil, fmt.Errorf("analyzer: * not allowed here")
	default:
		return nil, fmt.Errorf("analyzer: unsupported expression %T", node)
	}
}

// indexIn finds a column by name, exact match first then
// case-insensitive.
func indexIn(schema *types.Schema, name string) int {
	if idx := schema.IndexOf(name); idx >= 0 {
		return idx
	}
	for i, c := range schema.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// resolveInScopes resolves an identifier against the FROM-clause tables,
// returning its base-schema ordinal.
func (a *analysis) resolveInScopes(id *sqlparser.Ident) (int, error) {
	if id.Qualifier != "" {
		for _, s := range a.scopes {
			if !s.matches(id.Qualifier) {
				continue
			}
			if i := indexIn(s.schema, id.Name); i >= 0 {
				return s.offset + i, nil
			}
			return -1, fmt.Errorf("analyzer: unknown column %q in table %q", id.Name, id.Qualifier)
		}
		return -1, fmt.Errorf("analyzer: unknown table or alias %q", id.Qualifier)
	}
	found, matches := -1, 0
	for _, s := range a.scopes {
		if i := indexIn(s.schema, id.Name); i >= 0 {
			found = s.offset + i
			matches++
		}
	}
	switch {
	case matches > 1:
		return -1, fmt.Errorf("analyzer: column %q is ambiguous; qualify it with a table alias", id.Name)
	case found < 0:
		return -1, fmt.Errorf("analyzer: unknown column %q", id.Name)
	}
	return found, nil
}

func combineBinary(op string, l, r expr.Expr) (expr.Expr, error) {
	switch op {
	case "+":
		return expr.NewArith(expr.Add, l, r)
	case "-":
		return expr.NewArith(expr.Sub, l, r)
	case "*":
		return expr.NewArith(expr.Mul, l, r)
	case "/":
		return expr.NewArith(expr.Div, l, r)
	case "%":
		return expr.NewArith(expr.Mod, l, r)
	case "=":
		return expr.NewCompare(expr.Eq, l, r)
	case "<>":
		return expr.NewCompare(expr.Ne, l, r)
	case "<":
		return expr.NewCompare(expr.Lt, l, r)
	case "<=":
		return expr.NewCompare(expr.Le, l, r)
	case ">":
		return expr.NewCompare(expr.Gt, l, r)
	case ">=":
		return expr.NewCompare(expr.Ge, l, r)
	case "AND":
		return expr.NewLogic(expr.And, l, r)
	case "OR":
		return expr.NewLogic(expr.Or, l, r)
	default:
		return nil, fmt.Errorf("analyzer: unknown operator %q", op)
	}
}

func combineUnary(op string, e expr.Expr) (expr.Expr, error) {
	switch op {
	case "NOT":
		return expr.NewNot(e)
	case "-":
		if e.Type() == types.Float64 {
			return expr.NewArith(expr.Sub, expr.Lit(types.FloatValue(0)), e)
		}
		return expr.NewArith(expr.Sub, expr.Lit(types.IntValue(0)), e)
	default:
		return nil, fmt.Errorf("analyzer: unknown unary %q", op)
	}
}

// aggFuncName recognizes aggregate function names ("avg" included; it is
// decomposed before reaching execution).
func aggFuncName(name string) (string, bool) {
	switch name {
	case "min", "max", "sum", "count", "avg":
		return name, true
	default:
		return "", false
	}
}

func itemName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	return item.Expr.String()
}
