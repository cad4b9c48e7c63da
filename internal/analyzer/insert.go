package analyzer

import (
	"fmt"
	"strings"

	"prestocs/internal/expr"
	"prestocs/internal/sqlparser"
	"prestocs/internal/types"
)

// AnalyzeInsert resolves an INSERT statement's VALUES tuples against the
// target table schema: constant expressions are folded, mapped onto the
// listed columns (unlisted columns become typed NULLs), and each value
// is coerced to its column's declared type. The result is full-width
// rows in schema order, ready for the ingest buffer.
func AnalyzeInsert(stmt *sqlparser.InsertStmt, schema *types.Schema) ([][]types.Value, error) {
	var target []int // VALUES slot → schema ordinal
	if len(stmt.Columns) == 0 {
		target = make([]int, schema.Len())
		for i := range target {
			target[i] = i
		}
	} else {
		seen := make(map[int]bool, len(stmt.Columns))
		for _, name := range stmt.Columns {
			ci := indexIn(schema, name)
			if ci < 0 {
				return nil, fmt.Errorf("analyzer: INSERT column %q not in table schema %s", name, schema)
			}
			if seen[ci] {
				return nil, fmt.Errorf("analyzer: INSERT column %q listed twice", name)
			}
			seen[ci] = true
			target = append(target, ci)
		}
	}

	// VALUES expressions are constants: they may not reference columns.
	rows := make([][]types.Value, 0, len(stmt.Rows))
	for ri, tuple := range stmt.Rows {
		if len(tuple) != len(target) {
			return nil, fmt.Errorf("analyzer: VALUES tuple %d has %d expressions for %d columns", ri+1, len(tuple), len(target))
		}
		out := make([]types.Value, schema.Len())
		for i, c := range schema.Columns {
			out[i] = types.NullValue(c.Type)
		}
		for j, node := range tuple {
			e, err := resolveConst(node)
			if err != nil {
				return nil, fmt.Errorf("analyzer: VALUES tuple %d: %w", ri+1, err)
			}
			v, err := expr.EvalConst(e)
			if err != nil {
				return nil, fmt.Errorf("analyzer: VALUES tuple %d: %w", ri+1, err)
			}
			col := schema.Columns[target[j]]
			cv, err := types.Coerce(v, col.Type)
			if err != nil {
				return nil, fmt.Errorf("analyzer: VALUES tuple %d, column %q: %w", ri+1, col.Name, err)
			}
			out[target[j]] = cv
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// resolveConst converts a constant AST expression (literals, unary
// minus/NOT, arithmetic over literals, CAST) to an evaluable expr.
// Column references are rejected — INSERT VALUES carries no row scope.
func resolveConst(node sqlparser.Node) (expr.Expr, error) {
	switch t := node.(type) {
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
		return expr.Lit(types.IntValue(t.Days)), nil
	case *sqlparser.Unary:
		inner, err := resolveConst(t.E)
		if err != nil {
			return nil, err
		}
		return combineUnary(t.Op, inner)
	case *sqlparser.Binary:
		l, err := resolveConst(t.L)
		if err != nil {
			return nil, err
		}
		r, err := resolveConst(t.R)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sqlparser.CastNode:
		inner, err := resolveConst(t.E)
		if err != nil {
			return nil, err
		}
		kind, err := types.ParseKind(t.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: inner, To: kind}, nil
	default:
		return nil, fmt.Errorf("non-constant expression %s in VALUES", node)
	}
}
