package ocsserver

import (
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// constObject builds a small object whose every x value is v, so a result
// unambiguously identifies which object version produced it.
func constObject(t testing.TB, v int64, rows int) []byte {
	t.Helper()
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	page := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		page.AppendRow(types.IntValue(v))
	}
	img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 16}, page)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestCacheDifferentialExecution is the acceptance differential for the
// caching tier: cached execution (cold, then warm from the footer and
// page caches) must return byte-identical pages to uncached execution —
// NULLs, NaNs and page boundaries included — for randomized predicates,
// reading one row group at a time and four at once.
func TestCacheDifferentialExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	store := objstore.NewStore()
	store.Put("b", "o", pruneObject(t, rng))
	caches := scan.NewCaches(1<<20, 8<<20)
	reg := telemetry.NewRegistry()
	caches.Instrument(reg, "node", "test")

	for trial := 0; trial < 100; trial++ {
		pred := randPrunePredicate(rng, 3)
		read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: pruneSchema()}
		plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: pred})
		pool := 1
		if trial%5 == 0 {
			pool = 4
		}
		uncached, _, errU := ExecuteLocalCached(store, plan, pool, nil)
		cold, _, errC := ExecuteLocalCached(store, plan, pool, caches)
		warm, _, errW := ExecuteLocalCached(store, plan, pool, caches)
		if (errU == nil) != (errC == nil) || (errU == nil) != (errW == nil) {
			t.Fatalf("trial %d (%s): uncached err=%v cold err=%v warm err=%v",
				trial, pred.String(), errU, errC, errW)
		}
		if errU != nil {
			continue
		}
		want := renderPages(uncached)
		if got := renderPages(cold); got != want {
			t.Fatalf("trial %d: predicate %s: cold cached output differs from uncached\ncached:\n%s\nuncached:\n%s",
				trial, pred.String(), got, want)
		}
		if got := renderPages(warm); got != want {
			t.Fatalf("trial %d: predicate %s: warm cached output differs from uncached\ncached:\n%s\nuncached:\n%s",
				trial, pred.String(), got, want)
		}
	}
	if h := reg.CounterValue(telemetry.MetricFooterCacheHits, "node", "test"); h == 0 {
		t.Error("footer cache never hit across 100 warm re-executions")
	}
	if h := reg.CounterValue(telemetry.MetricPageCacheHits, "node", "test"); h == 0 {
		t.Error("page cache never hit across 100 warm re-executions")
	}
}

// TestCacheInvalidationOnRePut proves version-keyed invalidation end to
// end: after an object is overwritten, a warm cache must serve the new
// bytes, byte-identical to an uncached read — never a stale page.
func TestCacheInvalidationOnRePut(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", constObject(t, 1, 64))
	caches := scan.NewCaches(1<<20, 8<<20)

	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: types.NewSchema(types.Column{Name: "x", Type: types.Int64})}
	cond, err := expr.NewCompare(expr.Ge, expr.Col(0, "x", types.Int64), expr.Lit(types.IntValue(0)))
	if err != nil {
		t.Fatal(err)
	}
	plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})

	run := func(label string) string {
		t.Helper()
		pages, _, err := ExecuteLocalCached(store, plan, 1, caches)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return renderPages(pages)
	}
	v1 := run("v1 cold")
	if got := run("v1 warm"); got != v1 {
		t.Fatal("warm v1 read differs from cold v1 read")
	}

	// Overwrite with all-2s. The generation key changes, so the warm
	// cache must not serve any v1 footer or page.
	store.Put("b", "o", constObject(t, 2, 64))
	uncached, _, err := ExecuteLocalCached(store, plan, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPages(uncached)
	if want == v1 {
		t.Fatal("test bug: v2 object renders identically to v1")
	}
	if got := run("v2 after re-put"); got != want {
		t.Fatalf("cached read after re-put differs from uncached\ncached:\n%s\nuncached:\n%s", got, want)
	}
	if got := run("v2 warm"); got != want {
		t.Fatal("warm v2 read differs from uncached v2 read")
	}
}
