package expr

import (
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

// The oracle: a row-at-a-time interpreter the kernels are held to. It
// spells out SQL's semantics one value at a time, with none of the
// kernels' shapes, and lives in a test file so that nothing outside the
// tests can evaluate row by row.

// evalRow evaluates the expression for a single row.
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
