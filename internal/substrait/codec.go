package substrait

import (
	"fmt"

	"prestocs/internal/expr"
	"prestocs/internal/protowire"
	"prestocs/internal/types"
)

// This file serializes Plans to and from the protobuf wire format. Decoded
// expressions are rebuilt through the expr constructors, so a decoded plan
// is re-type-checked as a side effect — malformed plans fail to decode,
// which is the OCS frontend's first line of validation.

// Expression node kind codes (field 1 of an expression message).
const (
	exprColumnRef = 1
	exprLiteral   = 2
	exprArith     = 3
	exprCompare   = 4
	exprLogic     = 5
	exprNot       = 6
	exprBetween   = 7
	exprCast      = 8
	exprIsNull    = 9
)

// Relation kind codes (field 1 of a relation message).
const (
	relRead      = 1
	relFilter    = 2
	relProject   = 3
	relAggregate = 4
	relSort      = 5
	relFetch     = 6
	relBloom     = 7
)

// Marshal serializes a plan.
func Marshal(p *Plan) ([]byte, error) {
	e := protowire.NewEncoder()
	e.String(1, p.Version)
	var encodeErr error
	e.Message(2, func(m *protowire.Encoder) {
		encodeErr = encodeRel(m, p.Root)
	})
	if encodeErr != nil {
		return nil, encodeErr
	}
	return e.Encoded(), nil
}

// Unmarshal deserializes and re-type-checks a plan.
func Unmarshal(data []byte) (*Plan, error) {
	p, _, err := Decode(data)
	return p, err
}

// Decode deserializes and re-type-checks a plan, and returns it with its
// validated output schema (Plan.Validate's), so that a reader that needs
// both checks the plan once.
func Decode(data []byte) (*Plan, *types.Schema, error) {
	d := protowire.NewDecoder(data)
	p := &Plan{}
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, nil, err
		}
		switch f {
		case 1:
			p.Version, err = d.String()
		case 2:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				p.Root, err = decodeRel(m)
			}
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	schema, err := p.Validate()
	if err != nil {
		return nil, nil, err
	}
	return p, schema, nil
}

func encodeSchema(e *protowire.Encoder, field int, s *types.Schema) {
	for _, c := range s.Columns {
		col := c
		e.Message(field, func(m *protowire.Encoder) {
			m.String(1, col.Name)
			m.Uint64(2, uint64(col.Type))
		})
	}
}

func decodeSchemaCol(d *protowire.Decoder) (types.Column, error) {
	var col types.Column
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return col, err
		}
		switch f {
		case 1:
			col.Name, err = d.String()
		case 2:
			var u uint64
			u, err = d.Uint64()
			col.Type = types.Kind(u)
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return col, err
		}
	}
	return col, nil
}

func encodeValue(e *protowire.Encoder, field int, v types.Value) {
	e.Message(field, func(m *protowire.Encoder) {
		m.Uint64(1, uint64(v.Kind))
		m.Bool(2, v.Null)
		switch v.Kind {
		case types.Int64, types.Date:
			m.Int64(3, v.I)
		case types.Float64:
			m.Double(4, v.F)
		case types.String:
			m.String(5, v.S)
		case types.Bool:
			m.Bool(6, v.B)
		}
	})
}

func decodeValue(d *protowire.Decoder) (types.Value, error) {
	var v types.Value
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return v, err
		}
		switch f {
		case 1:
			var u uint64
			u, err = d.Uint64()
			v.Kind = types.Kind(u)
		case 2:
			v.Null, err = d.Bool()
		case 3:
			v.I, err = d.Int64()
		case 4:
			v.F, err = d.Double()
		case 5:
			v.S, err = d.String()
		case 6:
			v.B, err = d.Bool()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return v, err
		}
	}
	if !v.Kind.Valid() {
		return v, fmt.Errorf("substrait: literal with invalid kind %d", v.Kind)
	}
	return v, nil
}

// EncodeExpr appends an expression message to field of e.
func EncodeExpr(e *protowire.Encoder, field int, x expr.Expr) error {
	var encErr error
	e.Message(field, func(m *protowire.Encoder) {
		encErr = encodeExprBody(m, x)
	})
	return encErr
}

func encodeExprBody(m *protowire.Encoder, x expr.Expr) error {
	switch t := x.(type) {
	case *expr.ColumnRef:
		m.Uint64(1, exprColumnRef)
		m.Int64(2, int64(t.Index))
		m.String(3, t.Name)
		m.Uint64(4, uint64(t.Kind))
	case *expr.Literal:
		m.Uint64(1, exprLiteral)
		encodeValue(m, 5, t.Value)
	case *expr.Arith:
		m.Uint64(1, exprArith)
		m.Uint64(6, uint64(t.Op))
		if err := EncodeExpr(m, 7, t.L); err != nil {
			return err
		}
		return EncodeExpr(m, 8, t.R)
	case *expr.Compare:
		m.Uint64(1, exprCompare)
		m.Uint64(6, uint64(t.Op))
		if err := EncodeExpr(m, 7, t.L); err != nil {
			return err
		}
		return EncodeExpr(m, 8, t.R)
	case *expr.Logic:
		m.Uint64(1, exprLogic)
		m.Uint64(6, uint64(t.Op))
		if err := EncodeExpr(m, 7, t.L); err != nil {
			return err
		}
		return EncodeExpr(m, 8, t.R)
	case *expr.Not:
		m.Uint64(1, exprNot)
		return EncodeExpr(m, 7, t.E)
	case *expr.Between:
		m.Uint64(1, exprBetween)
		if err := EncodeExpr(m, 7, t.E); err != nil {
			return err
		}
		if err := EncodeExpr(m, 8, t.Lo); err != nil {
			return err
		}
		return EncodeExpr(m, 9, t.Hi)
	case *expr.Cast:
		m.Uint64(1, exprCast)
		m.Uint64(4, uint64(t.To))
		return EncodeExpr(m, 7, t.E)
	case *expr.IsNull:
		m.Uint64(1, exprIsNull)
		m.Bool(10, t.Negate)
		return EncodeExpr(m, 7, t.E)
	default:
		return fmt.Errorf("substrait: cannot encode expression %T", x)
	}
	return nil
}

// DecodeExpr reads one expression message.
func DecodeExpr(d *protowire.Decoder) (expr.Expr, error) {
	var (
		kind             uint64
		index            int64
		name             string
		typeKind         types.Kind
		value            types.Value
		haveValue        bool
		op               uint64
		sub1, sub2, sub3 expr.Expr
		negate           bool
	)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			kind, err = d.Uint64()
		case 2:
			index, err = d.Int64()
		case 3:
			name, err = d.String()
		case 4:
			var u uint64
			u, err = d.Uint64()
			typeKind = types.Kind(u)
		case 5:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				value, err = decodeValue(m)
				haveValue = true
			}
		case 6:
			op, err = d.Uint64()
		case 7:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				sub1, err = DecodeExpr(m)
			}
		case 8:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				sub2, err = DecodeExpr(m)
			}
		case 9:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				sub3, err = DecodeExpr(m)
			}
		case 10:
			negate, err = d.Bool()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	switch kind {
	case exprColumnRef:
		if !typeKind.Valid() {
			return nil, fmt.Errorf("substrait: column ref with invalid type")
		}
		return expr.Col(int(index), name, typeKind), nil
	case exprLiteral:
		if !haveValue {
			return nil, fmt.Errorf("substrait: literal without value")
		}
		return expr.Lit(value), nil
	case exprArith:
		if sub1 == nil || sub2 == nil {
			return nil, fmt.Errorf("substrait: arith missing operands")
		}
		if op > uint64(expr.Mod) {
			return nil, fmt.Errorf("substrait: bad arith op %d", op)
		}
		return expr.NewArith(expr.ArithOp(op), sub1, sub2)
	case exprCompare:
		if sub1 == nil || sub2 == nil {
			return nil, fmt.Errorf("substrait: compare missing operands")
		}
		if op > uint64(expr.Ge) {
			return nil, fmt.Errorf("substrait: bad compare op %d", op)
		}
		return expr.NewCompare(expr.CmpOp(op), sub1, sub2)
	case exprLogic:
		if sub1 == nil || sub2 == nil {
			return nil, fmt.Errorf("substrait: logic missing operands")
		}
		if op > uint64(expr.Or) {
			return nil, fmt.Errorf("substrait: bad logic op %d", op)
		}
		return expr.NewLogic(expr.LogicOp(op), sub1, sub2)
	case exprNot:
		if sub1 == nil {
			return nil, fmt.Errorf("substrait: NOT missing operand")
		}
		return expr.NewNot(sub1)
	case exprBetween:
		if sub1 == nil || sub2 == nil || sub3 == nil {
			return nil, fmt.Errorf("substrait: BETWEEN missing operands")
		}
		return expr.NewBetween(sub1, sub2, sub3)
	case exprCast:
		if sub1 == nil || !typeKind.Valid() {
			return nil, fmt.Errorf("substrait: bad cast")
		}
		return &expr.Cast{E: sub1, To: typeKind}, nil
	case exprIsNull:
		if sub1 == nil {
			return nil, fmt.Errorf("substrait: IS NULL missing operand")
		}
		return &expr.IsNull{E: sub1, Negate: negate}, nil
	default:
		return nil, fmt.Errorf("substrait: unknown expression kind %d", kind)
	}
}

func encodeRel(m *protowire.Encoder, r Rel) error {
	switch t := r.(type) {
	case *ReadRel:
		m.Uint64(1, relRead)
		m.String(2, t.Bucket)
		for _, o := range t.Objects {
			m.String(3, o)
		}
		encodeSchema(m, 4, t.BaseSchema)
		for _, p := range t.Projection {
			m.Int64(5, int64(p))
		}
		m.Bool(6, t.Projection != nil)
	case *FilterRel:
		m.Uint64(1, relFilter)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		return EncodeExpr(m, 8, t.Condition)
	case *ProjectRel:
		m.Uint64(1, relProject)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		for _, e := range t.Expressions {
			if err := EncodeExpr(m, 9, e); err != nil {
				return err
			}
		}
		for _, n := range t.Names {
			m.String(10, n)
		}
	case *AggregateRel:
		m.Uint64(1, relAggregate)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		for _, k := range t.GroupKeys {
			m.Int64(11, int64(k))
		}
		m.Bool(13, true) // marker distinguishing zero keys from absent field
		for _, meas := range t.Measures {
			mm := meas
			m.Message(12, func(me *protowire.Encoder) {
				me.String(1, string(mm.Func))
				me.Int64(2, int64(mm.Arg))
				me.String(3, mm.Name)
			})
		}
	case *BloomFilterRel:
		m.Uint64(1, relBloom)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		m.Int64(17, int64(t.Column))
		m.Int64(18, int64(t.NumHash))
		m.Bytes(19, t.Bits)
	case *SortRel:
		m.Uint64(1, relSort)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		for _, k := range t.Keys {
			kk := k
			m.Message(14, func(ke *protowire.Encoder) {
				ke.Int64(1, int64(kk.Column))
				ke.Bool(2, kk.Descending)
			})
		}
	case *FetchRel:
		m.Uint64(1, relFetch)
		if err := encodeRelField(m, 7, t.Input); err != nil {
			return err
		}
		m.Int64(15, t.Offset)
		m.Int64(16, t.Count)
	default:
		return fmt.Errorf("substrait: cannot encode relation %T", r)
	}
	return nil
}

func encodeRelField(m *protowire.Encoder, field int, r Rel) error {
	var err error
	m.Message(field, func(inner *protowire.Encoder) {
		err = encodeRel(inner, r)
	})
	return err
}

func decodeRel(d *protowire.Decoder) (Rel, error) {
	var (
		kind       uint64
		bucket     string
		objects    []string
		schema     = types.NewSchema()
		projection []int
		hasProj    bool
		input      Rel
		condition  expr.Expr
		exprs      []expr.Expr
		names      []string
		groupKeys  []int
		measures   []Measure
		sortKeys   []SortKey
		offset     int64
		count      int64
		bloomCol   int64
		bloomHash  int64
		bloomBits  []byte
	)
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1:
			kind, err = d.Uint64()
		case 2:
			bucket, err = d.String()
		case 3:
			var o string
			o, err = d.String()
			objects = append(objects, o)
		case 4:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				var col types.Column
				col, err = decodeSchemaCol(m)
				if err == nil {
					schema.Columns = append(schema.Columns, col)
				}
			}
		case 5:
			var v int64
			v, err = d.Int64()
			projection = append(projection, int(v))
		case 6:
			hasProj, err = d.Bool()
		case 7:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				input, err = decodeRel(m)
			}
		case 8:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				condition, err = DecodeExpr(m)
			}
		case 9:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				var e expr.Expr
				e, err = DecodeExpr(m)
				exprs = append(exprs, e)
			}
		case 10:
			var s string
			s, err = d.String()
			names = append(names, s)
		case 11:
			var v int64
			v, err = d.Int64()
			groupKeys = append(groupKeys, int(v))
		case 12:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				var meas Measure
				meas, err = decodeMeasure(m)
				measures = append(measures, meas)
			}
		case 13:
			_, err = d.Bool()
		case 14:
			var m *protowire.Decoder
			m, err = d.Message()
			if err == nil {
				var k SortKey
				k, err = decodeSortKey(m)
				sortKeys = append(sortKeys, k)
			}
		case 15:
			offset, err = d.Int64()
		case 16:
			count, err = d.Int64()
		case 17:
			bloomCol, err = d.Int64()
		case 18:
			bloomHash, err = d.Int64()
		case 19:
			bloomBits, err = d.Bytes()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, err
		}
	}
	switch kind {
	case relRead:
		r := &ReadRel{Bucket: bucket, Objects: objects, BaseSchema: schema}
		if hasProj {
			if projection == nil {
				projection = []int{}
			}
			r.Projection = projection
		}
		return r, nil
	case relFilter:
		if input == nil || condition == nil {
			return nil, fmt.Errorf("substrait: filter missing input or condition")
		}
		return &FilterRel{Input: input, Condition: condition}, nil
	case relProject:
		if input == nil {
			return nil, fmt.Errorf("substrait: project missing input")
		}
		return &ProjectRel{Input: input, Expressions: exprs, Names: names}, nil
	case relAggregate:
		if input == nil {
			return nil, fmt.Errorf("substrait: aggregate missing input")
		}
		return &AggregateRel{Input: input, GroupKeys: groupKeys, Measures: measures}, nil
	case relBloom:
		if input == nil {
			return nil, fmt.Errorf("substrait: bloom filter missing input")
		}
		return &BloomFilterRel{Input: input, Column: int(bloomCol), NumHash: int(bloomHash), Bits: bloomBits}, nil
	case relSort:
		if input == nil {
			return nil, fmt.Errorf("substrait: sort missing input")
		}
		return &SortRel{Input: input, Keys: sortKeys}, nil
	case relFetch:
		if input == nil {
			return nil, fmt.Errorf("substrait: fetch missing input")
		}
		return &FetchRel{Input: input, Offset: offset, Count: count}, nil
	default:
		return nil, fmt.Errorf("substrait: unknown relation kind %d", kind)
	}
}

func decodeMeasure(d *protowire.Decoder) (Measure, error) {
	var m Measure
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return m, err
		}
		switch f {
		case 1:
			var s string
			s, err = d.String()
			m.Func = AggFunc(s)
		case 2:
			var v int64
			v, err = d.Int64()
			m.Arg = int(v)
		case 3:
			m.Name, err = d.String()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return m, err
		}
	}
	return m, nil
}

func decodeSortKey(d *protowire.Decoder) (SortKey, error) {
	var k SortKey
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return k, err
		}
		switch f {
		case 1:
			var v int64
			v, err = d.Int64()
			k.Column = int(v)
		case 2:
			k.Descending, err = d.Bool()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return k, err
		}
	}
	return k, nil
}
