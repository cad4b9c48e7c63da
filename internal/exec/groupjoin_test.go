package exec

import (
	"fmt"
	"math"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// Tests of the join over a unique build side: the probe lends its pages
// (HashJoinProbe.Next) and an aggregate above it numbers its groups by
// the join's key ids (HashAggregate.GroupByJoin).

// groupJoinKey maps one fuzz byte to a join key of kind: NULL, or one of
// 16 values per kind — for floats −0.0 and +0.0, which are two keys, and
// two NaN payloads, which are one; for strings values under and over the
// eight bytes a key word holds.
func groupJoinKey(kind types.Kind, b byte) types.Value {
	v := int(b % 17)
	if v == 16 {
		return types.NullValue(kind)
	}
	switch kind {
	case types.Float64:
		switch v {
		case 0:
			return types.FloatValue(math.Copysign(0, -1))
		case 1:
			return types.FloatValue(0)
		case 2:
			return types.FloatValue(math.Float64frombits(0x7ff8000000000001))
		case 3:
			return types.FloatValue(math.Float64frombits(0x7ff8000000000002))
		}
		return types.FloatValue(float64(v) / 4)
	case types.String:
		if v < 8 {
			return types.StringValue(fmt.Sprintf("k%d", v))
		}
		return types.StringValue(fmt.Sprintf("a longer key %d", v))
	}
	return types.IntValue(int64(v) - 4)
}

var groupJoinKinds = []types.Kind{types.Int64, types.Float64, types.String}

// groupJoinCase is a fuzz input decoded: a unique build side (k, d DATE
// with NULLs, w DOUBLE) and probe pages (k, v DOUBLE), both keyed by kind.
// Byte 0 picks the kind (bits 0–1), whether the probe's strings are in
// dictionary form (bit 2), whether a residual Filter sits between the
// projection and the aggregate (bit 3) and the grouping (bits 4–5);
// byte 1 the build rows and byte 2 the probe page size; every further
// byte a build key, then a probe key.
type groupJoinCase struct {
	kind          types.Kind
	build, probe  []*column.Page
	dict, residue bool
	keys          []int // over the projection above the join (groupJoinKeys)
}

// groupJoinKeys are the groupings over the projection above the join
// (of probe k, v, then build k, d, w): probe k, build k, build d, build
// w, v × 2. Each holds the join key and build columns only.
var groupJoinKeys = [][]int{{0, 2}, {1, 2}, {0}, {3, 2, 1}}

func decodeGroupJoin(in []byte) *groupJoinCase {
	if len(in) < 3 {
		return nil
	}
	c := &groupJoinCase{
		kind:    groupJoinKinds[int(in[0]&3)%len(groupJoinKinds)],
		dict:    in[0]&4 != 0,
		residue: in[0]&8 != 0,
		keys:    groupJoinKeys[in[0]>>4&3],
	}
	nBuild, pageRows := int(in[1]), 1+int(in[2]%16)*4
	rest := in[3:]
	nBuild = min(nBuild, len(rest))
	buildSchema, probeSchema := c.buildSchema(), c.probeSchema()

	// The build side: each key once (NULL keys are never indexed, so
	// they may repeat), in pages of at most 16 rows.
	seen := map[string]bool{}
	page := column.NewPage(buildSchema)
	for i, b := range rest[:nBuild] {
		k := groupJoinKey(c.kind, b)
		word := string(encodeGroupKey(nil, pageOf(buildSchema, k), []int{0}, 0))
		if !k.Null && seen[word] {
			continue
		}
		seen[word] = true
		d := types.DateValue(int64(9000 + i*7%5))
		if i%3 == 2 {
			d = types.NullValue(types.Date)
		}
		page.AppendRow(k, d, types.FloatValue(float64(i)/8))
		if page.NumRows() == 16 {
			c.build, page = append(c.build, page), column.NewPage(buildSchema)
		}
	}
	if page.NumRows() > 0 {
		c.build = append(c.build, page)
	}

	page = column.NewPage(probeSchema)
	for i, b := range rest[nBuild:] {
		page.AppendRow(groupJoinKey(c.kind, b), types.FloatValue(float64(i%13)/4))
		if page.NumRows() == pageRows {
			c.probe, page = append(c.probe, page), column.NewPage(probeSchema)
		}
	}
	if page.NumRows() > 0 {
		c.probe = append(c.probe, page)
	}
	if c.dict && c.kind == types.String {
		c.probe = dictPages(c.probe)
	}
	return c
}

// pageOf is a one-row, one-column page holding v.
func pageOf(schema *types.Schema, v types.Value) *column.Page {
	p := column.NewPage(types.NewSchema(schema.Columns[0]))
	p.AppendRow(v)
	return p
}

// aggregate compiles the case's chain above a join onto input, whose
// schema is the join's: Project, the residual Filter if any, then the
// aggregate, grouped by j's key ids when j is not nil.
func (c *groupJoinCase) aggregate(t *testing.T, input Operator, j *HashJoinProbe) Operator {
	t.Helper()
	in := input.Schema()
	col := func(s *types.Schema, i int) expr.Expr { return expr.Col(i, s.Columns[i].Name, s.Columns[i].Type) }
	twice := mustExpr(expr.NewArith(expr.Mul, col(in, 1), expr.Lit(types.FloatValue(2))))
	op := mustOp(NewProject(input, []expr.Expr{col(in, 0), col(in, 2), col(in, 3), col(in, 4), twice},
		[]string{"pk", "bk", "d", "w", "v2"}, nil))
	if c.residue {
		// A probe column against a build column, or a build column NULL.
		out := op.Schema()
		pred := mustExpr(expr.NewLogic(expr.Or, mustExpr(expr.NewCompare(expr.Gt, col(out, 4), col(out, 3))),
			&expr.IsNull{E: col(out, 2)}))
		op = mustOp(NewFilter(op, pred, nil))
	}
	measures := []substrait.Measure{
		{Func: substrait.AggSum, Arg: 4, Name: "s"},
		{Func: substrait.AggCountStar, Arg: -1, Name: "n"},
		{Func: substrait.AggMin, Arg: 2, Name: "m"},
	}
	agg, err := NewHashAggregate(op, c.keys, measures, AggSingle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j != nil {
		if err := agg.GroupByJoin(j); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// FuzzGroupJoin holds the join over a unique build side to a nested loop,
// and the aggregate above it to the key table: on any unique build and
// probe of BIGINT, DOUBLE (both zeros, NaN payloads) or VARCHAR keys
// (plain or in dictionary form), with NULL keys on both sides, the lent
// join materializes to the nested loop's rows, and HashJoinProbe →
// Project (→ a residual Filter) → HashAggregate gives the same page,
// byte for byte, grouped by the join's key ids, by a key table over the
// lent pages and by a key table over the materialized join.
func FuzzGroupJoin(f *testing.F) {
	f.Add([]byte{0x00, 8, 3, 0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 1, 9, 16, 2, 7, 7, 3})
	f.Add([]byte{0x19, 6, 0, 0, 1, 2, 3, 16, 16, 3, 2, 1, 0, 16, 5, 2})          // DOUBLE: zeros, NaNs
	f.Add([]byte{0x26, 10, 1, 0, 9, 1, 10, 2, 11, 16, 8, 3, 9, 9, 0, 11, 1, 16}) // VARCHAR in dictionary form
	f.Add([]byte{0x3a, 4, 15, 15, 16, 14, 13, 13, 14, 16, 15, 12, 13})           // residual filter, no match for 12
	f.Add([]byte{0x08, 0, 2, 1, 2, 3})                                           // empty build
	f.Fuzz(func(t *testing.T, in []byte) {
		c := decodeGroupJoin(in)
		if c == nil {
			return
		}
		buildSchema, probeSchema := c.buildSchema(), c.probeSchema()
		table, err := BuildJoinTable(NewPageSource(buildSchema, c.build), []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !table.Unique() {
			t.Fatal("a build side with each key once is not unique")
		}

		// The join, materialized, against a nested loop.
		j, err := NewHashJoinProbe(NewPageSource(probeSchema, c.probe), table, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		got, want := column.NewPage(j.Schema()), column.NewPage(j.Schema())
		for _, p := range joined {
			got.AppendPage(p, nil)
		}
		for _, pp := range c.probe {
			for pr := 0; pr < pp.NumRows(); pr++ {
				if pp.Vectors[0].IsNull(pr) {
					continue
				}
				pk := encodeGroupKey(nil, pp, []int{0}, pr)
				for _, bp := range c.build {
					for br := 0; br < bp.NumRows(); br++ {
						if string(encodeGroupKey(nil, bp, []int{0}, br)) == string(pk) {
							want.AppendRow(append(pp.Row(pr), bp.Row(br)...)...)
						}
					}
				}
			}
		}
		requireIdentical(t, "join", got, want)

		run := func(op Operator) *column.Page {
			t.Helper()
			out, err := DrainToPage(op)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		lent, err := NewHashJoinProbe(NewPageSource(probeSchema, c.probe), table, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		byJoin := run(c.aggregate(t, lent, lent))
		lent, err = NewHashJoinProbe(NewPageSource(probeSchema, c.probe), table, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "key table over the lent join", run(c.aggregate(t, lent, nil)), byJoin)
		requireIdentical(t, "key table over the materialized join", run(c.aggregate(t, NewPageSource(j.Schema(), joined), nil)), byJoin)
	})
}

func (c *groupJoinCase) buildSchema() *types.Schema {
	return types.NewSchema(types.Column{Name: "k", Type: c.kind}, types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "w", Type: types.Float64})
}

func (c *groupJoinCase) probeSchema() *types.Schema {
	return types.NewSchema(types.Column{Name: "k", Type: c.kind}, types.Column{Name: "v", Type: types.Float64})
}

// TestJoinLendsWithoutAllocating pins the lend path's storage: once a
// probe page of 1,024 rows has been pulled, pulling it again allocates
// nothing, under a sparse selection — a third of its rows match — and
// under none, when every row matched: the build columns, NULL mask and
// dictionary codes among them, are written into the buffers of the page
// before, and so are the page and its selection. Nor does a Project of a
// computed column above the join, over a page on which every row matched.
func TestJoinLendsWithoutAllocating(t *testing.T) {
	buildSchema := types.NewSchema(types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "d", Type: types.Date},
		types.Column{Name: "s", Type: types.String})
	build := column.NewPage(buildSchema)
	for k := 0; k < 1024; k += 3 {
		d := types.DateValue(int64(9000 + k%11))
		if k%5 == 0 {
			d = types.NullValue(types.Date)
		}
		build.AppendRow(types.IntValue(int64(k)), d, types.StringValue([]string{"1-URGENT", "2-HIGH", "5-LOW"}[k%3]))
	}
	build = dictPages([]*column.Page{build})[0]
	table, err := BuildJoinTable(NewPageSource(buildSchema, []*column.Page{build}), []int{0}, nil)
	if err != nil || !table.Unique() {
		t.Fatalf("build: %v, unique %v", err, table.Unique())
	}
	probeSchema := types.NewSchema(types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "v", Type: types.Float64})
	probeOf := func(step int) *column.Page {
		probe := column.NewPage(probeSchema)
		for r := 0; r < 1024; r += step {
			probe.AppendRow(types.IntValue(int64(r)), types.FloatValue(float64(r)))
		}
		return probe
	}
	joinOver := func(probe *column.Page) *HashJoinProbe {
		j, err := NewHashJoinProbe(NewFuncSource(probeSchema, func() (*column.Page, error) { return probe, nil }), table, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	warmAllocs := func(what string, op Operator) {
		t.Helper()
		if _, _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := op.Next(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.0f allocations on a warm page, want 0", what, allocs)
		}
	}

	j := joinOver(probeOf(1))
	page, sel, err := j.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != build.NumRows() || page.Vectors[3].Nulls == nil || page.Vectors[4].Dict == nil || !page.Reused {
		t.Fatalf("%d rows selected, want %d; build columns lent as %+v; Reused %v", len(sel), build.NumRows(), page.Vectors[3:], page.Reused)
	}
	for _, row := range sel {
		if page.Vectors[3].Value(row) != build.Vectors[1].Value(row/3) || page.Vectors[4].Value(row) != build.Vectors[2].Value(row/3) {
			t.Fatalf("row %d: build columns %v %v, want %v %v", row, page.Vectors[3].Value(row), page.Vectors[4].Value(row),
				build.Vectors[1].Value(row/3), build.Vectors[2].Value(row/3))
		}
	}
	warmAllocs("a probe page under a sparse selection", j)

	dense := probeOf(3)
	j = joinOver(dense)
	if page, sel, err = j.Next(); err != nil || sel != nil || !page.Reused {
		t.Fatalf("every row matched: selection %v, Reused %v, %v; want nil, true", sel, page.Reused, err)
	}
	for row := range dense.NumRows() {
		if page.Vectors[3].Value(row) != build.Vectors[1].Value(row) || page.Vectors[4].Value(row) != build.Vectors[2].Value(row) {
			t.Fatalf("row %d: build columns %v %v, want %v %v", row, page.Vectors[3].Value(row), page.Vectors[4].Value(row),
				build.Vectors[1].Value(row), build.Vectors[2].Value(row))
		}
	}
	warmAllocs("a probe page on which every row matched", j)
	twice := mustExpr(expr.NewArith(expr.Mul, expr.Col(1, "v", types.Float64), expr.Lit(types.FloatValue(2))))
	proj, err := NewProject(joinOver(dense), []expr.Expr{expr.Col(0, "k", types.Int64), twice}, []string{"k", "v2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmAllocs("a computed column over a join on which every row matched", proj)
}
