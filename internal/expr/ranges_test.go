package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/types"
)

func col(i int, k types.Kind) *ColumnRef {
	return &ColumnRef{Index: i, Name: fmt.Sprintf("c%d", i), Kind: k}
}
func lit(v types.Value) *Literal { return &Literal{Value: v} }

func cmpOp(op CmpOp, l, r Expr) *Compare { return &Compare{Op: op, L: l, R: r} }

func TestAnalyzeRangesComparisons(t *testing.T) {
	x := col(0, types.Int64)
	cases := []struct {
		name string
		pred Expr
		want ColRange
	}{
		{"lt", cmpOp(Lt, x, lit(types.IntValue(5))), ColRange{Hi: types.IntValue(5), HiOpen: true, NonNullOK: true}},
		{"le", cmpOp(Le, x, lit(types.IntValue(5))), ColRange{Hi: types.IntValue(5), NonNullOK: true}},
		{"gt", cmpOp(Gt, x, lit(types.IntValue(5))), ColRange{Lo: types.IntValue(5), LoOpen: true, NonNullOK: true}},
		{"ge", cmpOp(Ge, x, lit(types.IntValue(5))), ColRange{Lo: types.IntValue(5), NonNullOK: true}},
		{"eq", cmpOp(Eq, x, lit(types.IntValue(5))), ColRange{Lo: types.IntValue(5), Hi: types.IntValue(5), NonNullOK: true}},
		{"ne", cmpOp(Ne, x, lit(types.IntValue(5))), ColRange{NonNullOK: true}},
		// Mirrored operand order: 5 < x means x > 5.
		{"mirror", cmpOp(Lt, lit(types.IntValue(5)), x), ColRange{Lo: types.IntValue(5), LoOpen: true, NonNullOK: true}},
		{"between", &Between{E: x, Lo: lit(types.IntValue(2)), Hi: lit(types.IntValue(8))}, ColRange{Lo: types.IntValue(2), Hi: types.IntValue(8), NonNullOK: true}},
		{"is-null", &IsNull{E: x}, ColRange{NullOK: true}},
		{"is-not-null", &IsNull{E: x, Negate: true}, ColRange{NonNullOK: true}},
		// NOT(x < 5) keeps non-NULL x >= 5 under 3VL.
		{"not-lt", &Not{E: cmpOp(Lt, x, lit(types.IntValue(5)))}, ColRange{Lo: types.IntValue(5), NonNullOK: true}},
		{"not-between", &Not{E: &Between{E: x, Lo: lit(types.IntValue(2)), Hi: lit(types.IntValue(8))}}, ColRange{NonNullOK: true}},
		{"not-is-null", &Not{E: &IsNull{E: x}}, ColRange{NonNullOK: true}},
	}
	for _, tc := range cases {
		r := AnalyzeRanges(tc.pred)
		if r.Never {
			t.Fatalf("%s: unexpected Never", tc.name)
		}
		got, ok := r.Cols[0]
		if !ok {
			t.Fatalf("%s: no range for column 0", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeRangesLogic(t *testing.T) {
	x := col(0, types.Int64)
	y := col(1, types.Int64)

	// AND intersects: 2 <= x AND x < 8 → [2, 8).
	and := &Logic{Op: And, L: cmpOp(Ge, x, lit(types.IntValue(2))), R: cmpOp(Lt, x, lit(types.IntValue(8)))}
	r := AnalyzeRanges(and)
	want := ColRange{Lo: types.IntValue(2), Hi: types.IntValue(8), HiOpen: true, NonNullOK: true}
	if r.Cols[0] != want {
		t.Errorf("and: got %v want %v", r.Cols[0], want)
	}

	// Contradictory AND is Never.
	never := &Logic{Op: And, L: cmpOp(Lt, x, lit(types.IntValue(2))), R: cmpOp(Gt, x, lit(types.IntValue(8)))}
	if r := AnalyzeRanges(never); !r.Never {
		t.Errorf("contradiction not detected: %+v", r)
	}

	// x = 5 AND x = 5 keeps the point; x < 5 AND x >= 5 is Never (open
	// boundary collapse).
	touch := &Logic{Op: And, L: cmpOp(Lt, x, lit(types.IntValue(5))), R: cmpOp(Ge, x, lit(types.IntValue(5)))}
	if r := AnalyzeRanges(touch); !r.Never {
		t.Errorf("open boundary collapse not detected: %+v", r)
	}

	// OR takes the hull on shared columns: x < 2 OR x > 8 → unbounded but
	// still non-NULL-only.
	or := &Logic{Op: Or, L: cmpOp(Lt, x, lit(types.IntValue(2))), R: cmpOp(Gt, x, lit(types.IntValue(8)))}
	r = AnalyzeRanges(or)
	if got := r.Cols[0]; got != (ColRange{NonNullOK: true}) {
		t.Errorf("or hull: got %v", got)
	}

	// OR drops columns constrained on only one side: (x < 2 OR y > 8)
	// constrains neither column usefully... x may be anything when y > 8.
	mixed := &Logic{Op: Or, L: cmpOp(Lt, x, lit(types.IntValue(2))), R: cmpOp(Gt, y, lit(types.IntValue(8)))}
	if r := AnalyzeRanges(mixed); len(r.Cols) != 0 || r.Never {
		t.Errorf("mixed-column OR should constrain nothing, got %+v", r)
	}

	// OR with one Never branch keeps the other branch's constraints.
	orNever := &Logic{Op: Or, L: cmpOp(Lt, x, lit(types.NullValue(types.Int64))), R: cmpOp(Gt, x, lit(types.IntValue(8)))}
	r = AnalyzeRanges(orNever)
	if got := r.Cols[0]; got != (ColRange{Lo: types.IntValue(8), LoOpen: true, NonNullOK: true}) {
		t.Errorf("or-never: got %v", got)
	}

	// AND on different columns keeps both constraints.
	both := &Logic{Op: And, L: cmpOp(Lt, x, lit(types.IntValue(2))), R: cmpOp(Gt, y, lit(types.IntValue(8)))}
	r = AnalyzeRanges(both)
	if len(r.Cols) != 2 {
		t.Errorf("two-column AND: got %+v", r)
	}
}

func TestAnalyzeRangesNullLiterals(t *testing.T) {
	x := col(0, types.Int64)
	// x < NULL is NULL everywhere → Never.
	if r := AnalyzeRanges(cmpOp(Lt, x, lit(types.NullValue(types.Int64)))); !r.Never {
		t.Errorf("x < NULL should be Never, got %+v", r)
	}
	// x BETWEEN 1 AND NULL → Never.
	if r := AnalyzeRanges(&Between{E: x, Lo: lit(types.IntValue(1)), Hi: lit(types.NullValue(types.Int64))}); !r.Never {
		t.Errorf("BETWEEN with NULL bound should be Never, got %+v", r)
	}
	// BETWEEN with inverted bounds is empty.
	if r := AnalyzeRanges(&Between{E: x, Lo: lit(types.IntValue(9)), Hi: lit(types.IntValue(1))}); !r.Never {
		t.Errorf("inverted BETWEEN should be Never, got %+v", r)
	}
	// WHERE FALSE / WHERE NULL.
	if r := AnalyzeRanges(lit(types.BoolValue(false))); !r.Never {
		t.Errorf("WHERE FALSE should be Never")
	}
	if r := AnalyzeRanges(lit(types.NullValue(types.Bool))); !r.Never {
		t.Errorf("WHERE NULL should be Never")
	}
}

func TestMayMatchBoundaries(t *testing.T) {
	// Closed bounds exactly equal to the chunk min/max must NOT prune.
	ge := AnalyzeRanges(cmpOp(Ge, col(0, types.Int64), lit(types.IntValue(10)))).Cols[0]
	if !ge.MayMatch(types.IntValue(0), types.IntValue(10), false, true) {
		t.Errorf("x >= 10 pruned a chunk with max exactly 10")
	}
	le := AnalyzeRanges(cmpOp(Le, col(0, types.Int64), lit(types.IntValue(10)))).Cols[0]
	if !le.MayMatch(types.IntValue(10), types.IntValue(99), false, true) {
		t.Errorf("x <= 10 pruned a chunk with min exactly 10")
	}
	// Open bounds at the boundary DO prune.
	gt := AnalyzeRanges(cmpOp(Gt, col(0, types.Int64), lit(types.IntValue(10)))).Cols[0]
	if gt.MayMatch(types.IntValue(0), types.IntValue(10), false, true) {
		t.Errorf("x > 10 kept a chunk with max exactly 10")
	}
	// Unknown stats (Null min/max) never prune by value.
	if !ge.MayMatch(types.NullValue(types.Int64), types.NullValue(types.Int64), false, true) {
		t.Errorf("unknown stats must not prune")
	}
	// All-NULL chunk: any comparison prunes it, IS NULL keeps it.
	if ge.MayMatch(types.NullValue(types.Int64), types.NullValue(types.Int64), true, false) {
		t.Errorf("x >= 10 kept an all-NULL chunk")
	}
	isNull := AnalyzeRanges(&IsNull{E: col(0, types.Int64)}).Cols[0]
	if !isNull.MayMatch(types.NullValue(types.Int64), types.NullValue(types.Int64), true, false) {
		t.Errorf("IS NULL pruned an all-NULL chunk")
	}
	if isNull.MayMatch(types.IntValue(0), types.IntValue(9), false, true) {
		t.Errorf("IS NULL kept a chunk with no NULLs")
	}
	isNotNull := AnalyzeRanges(&IsNull{E: col(0, types.Int64), Negate: true}).Cols[0]
	if isNotNull.MayMatch(types.NullValue(types.Int64), types.NullValue(types.Int64), true, false) {
		t.Errorf("IS NOT NULL kept an all-NULL chunk")
	}
}

func TestMayMatchNaN(t *testing.T) {
	nan := types.FloatValue(math.NaN())
	// Under the total order NaN sorts after every number: x > NaN keeps
	// nothing, x >= NaN keeps only NaN, x <= NaN keeps everything non-NULL.
	gtNaN := AnalyzeRanges(cmpOp(Gt, col(0, types.Float64), lit(nan))).Cols[0]
	if gtNaN.MayMatch(types.FloatValue(0), types.FloatValue(1e300), false, true) {
		t.Errorf("x > NaN kept a finite chunk")
	}
	if gtNaN.MayMatch(nan, nan, false, true) {
		t.Errorf("x > NaN kept an all-NaN chunk (NaN is not > NaN)")
	}
	geNaN := AnalyzeRanges(cmpOp(Ge, col(0, types.Float64), lit(nan))).Cols[0]
	if !geNaN.MayMatch(types.FloatValue(0), nan, false, true) {
		t.Errorf("x >= NaN pruned a chunk whose max is NaN")
	}
	if geNaN.MayMatch(types.FloatValue(0), types.FloatValue(1), false, true) {
		t.Errorf("x >= NaN kept a finite chunk")
	}
	ltNaN := AnalyzeRanges(cmpOp(Lt, col(0, types.Float64), lit(nan))).Cols[0]
	if !ltNaN.MayMatch(types.FloatValue(-1), types.FloatValue(1), false, true) {
		t.Errorf("x < NaN pruned a finite chunk")
	}
}

// randPredicate builds a random predicate over a single Int64/Float64
// column pair, exercising comparisons, BETWEEN, IS [NOT] NULL, AND, OR
// and NOT to the given depth.
func randPredicate(rng *rand.Rand, depth int) Expr {
	kinds := []types.Kind{types.Int64, types.Float64}
	randLit := func(k types.Kind) *Literal {
		switch rng.Intn(6) {
		case 0:
			return lit(types.NullValue(k))
		default:
			if k == types.Int64 {
				return lit(types.IntValue(int64(rng.Intn(21) - 10)))
			}
			if rng.Intn(8) == 0 {
				return lit(types.FloatValue(math.NaN()))
			}
			return lit(types.FloatValue(float64(rng.Intn(21)-10) / 2))
		}
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		ci := rng.Intn(2)
		c := col(ci, kinds[ci])
		switch rng.Intn(4) {
		case 0:
			return &IsNull{E: c, Negate: rng.Intn(2) == 0}
		case 1:
			return &Between{E: c, Lo: randLit(c.Kind), Hi: randLit(c.Kind)}
		default:
			ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
			op := ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				return cmpOp(op, c, randLit(c.Kind))
			}
			return cmpOp(op, randLit(c.Kind), c)
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &Not{E: randPredicate(rng, depth-1)}
	case 1:
		return &Logic{Op: And, L: randPredicate(rng, depth-1), R: randPredicate(rng, depth-1)}
	default:
		return &Logic{Op: Or, L: randPredicate(rng, depth-1), R: randPredicate(rng, depth-1)}
	}
}

// TestAnalyzeRangesSoundness is the core safety property behind all three
// pruning levels: if the vectorized evaluator keeps a row, then a chunk
// whose stats describe exactly that row can never be pruned by the
// derived ranges.
func TestAnalyzeRangesSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := types.NewSchema(
		types.Column{Name: "c0", Type: types.Int64},
		types.Column{Name: "c1", Type: types.Float64},
	)
	intVals := []types.Value{
		types.NullValue(types.Int64),
		types.IntValue(-10), types.IntValue(-1), types.IntValue(0),
		types.IntValue(1), types.IntValue(5), types.IntValue(10),
	}
	floatVals := []types.Value{
		types.NullValue(types.Float64),
		types.FloatValue(math.Inf(-1)), types.FloatValue(-2.5), types.FloatValue(0),
		types.FloatValue(2.5), types.FloatValue(math.Inf(1)), types.FloatValue(math.NaN()),
	}
	page := column.NewPage(schema)
	for _, iv := range intVals {
		for _, fv := range floatVals {
			page.AppendRow(iv, fv)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		pred := randPredicate(rng, 3)
		keep, err := keepMask(pred, page)
		if err != nil {
			continue // ill-typed tree; the analyzer need not handle it
		}
		ranges := AnalyzeRanges(pred)
		for row := 0; row < page.NumRows(); row++ {
			if !keep[row] {
				continue
			}
			if ranges.Never {
				t.Fatalf("trial %d: predicate %s keeps row %v but analysis says Never",
					trial, pred.String(), page.Row(row))
			}
			for ci, cr := range ranges.Cols {
				v := page.Vectors[ci].Value(row)
				// A chunk containing exactly this value has min=max=v.
				var min, max types.Value
				hasNull := v.Null
				hasNonNull := !v.Null
				if !v.Null {
					min, max = v, v
				} else {
					min = types.NullValue(v.Kind)
					max = min
				}
				if !cr.MayMatch(min, max, hasNull, hasNonNull) {
					t.Fatalf("trial %d: predicate %s keeps row %v but range %v prunes a chunk holding col %d value %v",
						trial, pred.String(), page.Row(row), cr, ci, v)
				}
			}
		}
	}
}

// TestZoneMapMerge: counts add, all-NULL parts leave the bounds alone,
// the bounds follow types.Compare (NaN is the greatest float) and the
// first of two equal bounds is kept.
func TestZoneMapMerge(t *testing.T) {
	nan := types.FloatValue(math.NaN())
	z := ZoneMap{Min: types.NullValue(types.Float64), Max: types.NullValue(types.Float64)}
	for _, part := range []ZoneMap{
		{Min: types.FloatValue(0), Max: types.FloatValue(5), NullCount: 2, NumValues: 10},
		{Min: types.NullValue(types.Float64), Max: types.NullValue(types.Float64), NullCount: 3, NumValues: 3},
		{Min: types.FloatValue(math.Copysign(0, -1)), Max: nan, NumValues: 4},
		{Min: types.FloatValue(1), Max: types.FloatValue(2), NullCount: 1, NumValues: 2},
	} {
		z.Merge(part)
	}
	if z.Min.Null || z.Min.F != 0 || math.Signbit(z.Min.F) || z.Max.Null || !math.IsNaN(z.Max.F) || z.NullCount != 6 || z.NumValues != 19 {
		t.Errorf("merged = %+v, want [+0, NaN] with 6 NULLs of 19 values", z)
	}
	empty := ZoneMap{Min: types.NullValue(types.Int64), Max: types.NullValue(types.Int64)}
	empty.Merge(ZoneMap{Min: types.NullValue(types.Int64), Max: types.NullValue(types.Int64), NullCount: 4, NumValues: 4})
	if !empty.Min.Null || !empty.Max.Null || empty.NullCount != 4 {
		t.Errorf("all-NULL merge = %+v, want NULL bounds and 4 NULLs", empty)
	}
}

// TestRangesMayMatch: a zone map that refutes one constrained column
// prunes, an unknown column (ok=false) keeps, and Never prunes before
// any lookup.
func TestRangesMayMatch(t *testing.T) {
	r := AnalyzeRanges(AndAll([]Expr{cmpOp(Gt, col(0, types.Int64), lit(types.IntValue(10))), cmpOp(Lt, col(1, types.Int64), lit(types.IntValue(3)))}))
	zones := map[int]ZoneMap{
		0: {Min: types.IntValue(0), Max: types.IntValue(50), NumValues: 8},
		1: {Min: types.IntValue(5), Max: types.IntValue(9), NumValues: 8},
	}
	known := func(col int) (ZoneMap, bool) { z, ok := zones[col]; return z, ok }
	if r.MayMatch(known) {
		t.Error("c1 in [5, 9] did not refute c1 < 3")
	}
	delete(zones, 1)
	if !r.MayMatch(known) {
		t.Error("an unknown c1 pruned")
	}
	lookups := 0
	never := AnalyzeRanges(lit(types.BoolValue(false)))
	if never.MayMatch(func(int) (ZoneMap, bool) { lookups++; return ZoneMap{}, false }) || lookups != 0 {
		t.Errorf("WHERE false kept, or looked up %d columns", lookups)
	}
}
