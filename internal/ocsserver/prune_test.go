package ocsserver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

func pruneSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float64},
		types.Column{Name: "n", Type: types.Float64},
	)
}

// pruneObject builds a 12-row-group object designed to make pruning
// decisions interesting: id ascending (tight per-group ranges), f random
// with NULLs, NaNs and infinities, n entirely NULL.
func pruneObject(t testing.TB, rng *rand.Rand) []byte {
	t.Helper()
	schema := pruneSchema()
	page := column.NewPage(schema)
	for i := 0; i < 12*16; i++ {
		f := types.FloatValue(float64(rng.Intn(41)-20) / 2)
		switch rng.Intn(10) {
		case 0:
			f = types.NullValue(types.Float64)
		case 1:
			f = types.FloatValue(math.NaN())
		case 2:
			f = types.FloatValue(math.Inf(1 - 2*rng.Intn(2)))
		}
		page.AppendRow(types.IntValue(int64(i)), f, types.NullValue(types.Float64))
	}
	img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 16}, page)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// randPrunePredicate builds a random well-typed predicate over the three
// columns, exercising every construct the range analyzer understands
// (and some it must ignore).
func randPrunePredicate(rng *rand.Rand, depth int) expr.Expr {
	idc := func() expr.Expr { return expr.Col(0, "id", types.Int64) }
	fc := func() expr.Expr { return expr.Col(1, "f", types.Float64) }
	nc := func() expr.Expr { return expr.Col(2, "n", types.Float64) }
	randCol := func() expr.Expr {
		switch rng.Intn(3) {
		case 0:
			return idc()
		case 1:
			return fc()
		default:
			return nc()
		}
	}
	randLit := func(c expr.Expr) expr.Expr {
		if c.Type() == types.Int64 {
			if rng.Intn(8) == 0 {
				return expr.Lit(types.NullValue(types.Int64))
			}
			return expr.Lit(types.IntValue(int64(rng.Intn(240) - 24)))
		}
		switch rng.Intn(8) {
		case 0:
			return expr.Lit(types.NullValue(types.Float64))
		case 1:
			return expr.Lit(types.FloatValue(math.NaN()))
		default:
			return expr.Lit(types.FloatValue(float64(rng.Intn(41)-20) / 2))
		}
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		c := randCol()
		switch rng.Intn(4) {
		case 0:
			return &expr.IsNull{E: c, Negate: rng.Intn(2) == 0}
		case 1:
			b, err := expr.NewBetween(c, randLit(c), randLit(c))
			if err != nil {
				return &expr.IsNull{E: c}
			}
			return b
		default:
			ops := []expr.CmpOp{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
			l, r := c, randLit(c)
			if rng.Intn(2) == 0 {
				l, r = r, l
			}
			cmp, err := expr.NewCompare(ops[rng.Intn(len(ops))], l, r)
			if err != nil {
				return &expr.IsNull{E: c}
			}
			return cmp
		}
	}
	switch rng.Intn(3) {
	case 0:
		n, err := expr.NewNot(randPrunePredicate(rng, depth-1))
		if err != nil {
			return randPrunePredicate(rng, depth-1)
		}
		return n
	default:
		op := expr.And
		if rng.Intn(2) == 0 {
			op = expr.Or
		}
		l, err := expr.NewLogic(op, randPrunePredicate(rng, depth-1), randPrunePredicate(rng, depth-1))
		if err != nil {
			return randPrunePredicate(rng, depth-1)
		}
		return l
	}
}

// renderPages flattens a page sequence into a canonical string: page
// boundaries, null masks and exact values (NaN included) all preserved,
// so two runs compare byte-identically.
func renderPages(pages []*column.Page) string {
	var b strings.Builder
	for pi, p := range pages {
		fmt.Fprintf(&b, "page %d (%d rows):\n", pi, p.NumRows())
		for i := 0; i < p.NumRows(); i++ {
			for _, v := range p.Row(i) {
				if v.Null {
					b.WriteString("NULL|")
					continue
				}
				// %b renders floats exactly (NaN payloads aside).
				if v.Kind == types.Float64 {
					fmt.Fprintf(&b, "%b|", v.F)
				} else {
					fmt.Fprintf(&b, "%s|", v.String())
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestPruneDifferentialProperty is the correctness guard for zone-map
// pruning: for randomized predicates over data with NULL, NaN and ±Inf
// edge cases, the pruned execution must return byte-identical pages to
// the full (noPrune) execution. exec.Filter never emits an all-filtered
// page, so a sound pruner changes nothing about the output sequence.
func TestPruneDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := objstore.NewStore()
	store.Put("b", "o", pruneObject(t, rng))
	schema := pruneSchema()
	for trial := 0; trial < 250; trial++ {
		pred := randPrunePredicate(rng, 3)
		read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: schema}
		plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: pred})
		// Pool 1 reads one row group at a time; every 5th trial reads
		// four at once, and the merge must preserve file order.
		pool := 1
		if trial%5 == 0 {
			pool = 4
		}
		pruned, _, errP := execute(store, plan, openOpts{pool: newScanPool(pool)})
		full, _, errF := execute(store, plan, openOpts{pool: newScanPool(pool), noPrune: true})
		if (errP == nil) != (errF == nil) {
			t.Fatalf("trial %d (%s): pruned err=%v full err=%v", trial, pred.String(), errP, errF)
		}
		if errP != nil {
			continue
		}
		if got, want := renderPages(pruned), renderPages(full); got != want {
			t.Fatalf("trial %d: predicate %s: pruned output differs from full scan\npruned:\n%s\nfull:\n%s",
				trial, pred.String(), got, want)
		}
	}
}

// TestPruneDifferentialWithProjection exercises the ordinal remap: the
// predicate refers to read-output ordinals of a reordered projection.
func TestPruneDifferentialWithProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := objstore.NewStore()
	store.Put("b", "o", pruneObject(t, rng))
	// Projection [1 0]: output ordinal 0 is column f, ordinal 1 is id.
	cond, err := expr.NewCompare(expr.Lt, expr.Col(1, "id", types.Int64), expr.Lit(types.IntValue(16)))
	if err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: pruneSchema(), Projection: []int{1, 0}}
	plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
	pruned, _, err := execute(store, plan, openOpts{pool: newScanPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := execute(store, plan, openOpts{pool: newScanPool(1), noPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderPages(pruned), renderPages(full); got != want {
		t.Fatalf("projected pruned output differs\npruned:\n%s\nfull:\n%s", got, want)
	}
	// id < 16 covers exactly the first of 12 row groups.
	if rows := countRows(pruned); rows != 16 {
		t.Fatalf("expected 16 rows, got %d", rows)
	}
}

func countRows(pages []*column.Page) int {
	n := 0
	for _, p := range pages {
		n += p.NumRows()
	}
	return n
}

// TestPruneCountersAndTrace checks the observability contract: pruning
// increments ocs_scan_rowgroups_pruned_total and
// ocs_scan_bytes_skipped_total on the ambient registry and leaves a
// scan.prune span with one event per skipped group.
func TestPruneCountersAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := objstore.NewStore()
	store.Put("b", "o", pruneObject(t, rng))
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	ctx := telemetry.WithRegistry(context.Background(), reg)
	ctx = telemetry.WithTracer(ctx, tracer)
	ctx, root := telemetry.StartSpan(ctx, "test.query")

	cond, err := expr.NewCompare(expr.Lt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(16)))
	if err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: pruneSchema()}
	plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
	if _, _, err := execute(store, plan, openOpts{pool: newScanPool(1), ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	root.End()

	if got := reg.CounterValue(telemetry.MetricScanRowGroupsPruned); got != 11 {
		t.Errorf("rowgroups_pruned = %d, want 11", got)
	}
	if got := reg.CounterValue(telemetry.MetricScanBytesSkipped); got <= 0 {
		t.Errorf("bytes_skipped = %d, want > 0", got)
	}
	if !strings.Contains(reg.Render(), telemetry.MetricScanRowGroupsPruned) {
		t.Errorf("metrics exposition does not contain %s", telemetry.MetricScanRowGroupsPruned)
	}
	spans := tracer.TraceSpans(root.Trace)
	var pruneSpan *telemetry.SpanView
	for i := range spans {
		if spans[i].Name == "scan.prune" {
			pruneSpan = &spans[i]
		}
	}
	if pruneSpan == nil {
		t.Fatalf("no scan.prune span in trace (spans: %v)", spanNames(spans))
	}
	if len(pruneSpan.Events) != 11 {
		t.Errorf("scan.prune has %d events, want 11 (one per pruned group)", len(pruneSpan.Events))
	}
	if pruneSpan.Attrs["bytes_skipped"] == "" || pruneSpan.Attrs["rowgroups_pruned"] != "11" {
		t.Errorf("scan.prune attrs incomplete: %v", pruneSpan.Attrs)
	}
}

func spanNames(spans []telemetry.SpanView) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}
