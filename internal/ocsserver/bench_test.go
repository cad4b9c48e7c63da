package ocsserver

import (
	"fmt"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// sweepRows is sized so the object has 64 row groups of 2048 rows: a
// predicate selecting k% of the clustered key column touches ~k% of the
// groups, which is what the pruned/unpruned comparison measures.
const (
	sweepRows      = 64 * 2048
	sweepGroupSize = 2048
)

func sweepSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v0", Type: types.Float64},
		types.Column{Name: "v1", Type: types.Float64},
		types.Column{Name: "v2", Type: types.Float64},
	)
}

func sweepObject(b *testing.B) []byte {
	b.Helper()
	schema := sweepSchema()
	page := column.NewPage(schema)
	for i := 0; i < sweepRows; i++ {
		page.AppendRow(
			types.IntValue(int64(i)), // clustered: each row group covers a tight id range
			types.FloatValue(float64(i)*0.5),
			types.FloatValue(float64(i%97)),
			types.FloatValue(float64(i%13)),
		)
	}
	img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: sweepGroupSize}, page)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkPruneSweep measures the zone-map win end to end on the
// storage executor: the same filtered scan with and without row-group
// pruning, at 0.1%, 1% and 10% selectivity over a clustered key. The
// pruned/1% case must beat unpruned by well over 2× — the acceptance
// bar for this optimization.
func BenchmarkPruneSweep(b *testing.B) {
	store := objstore.NewStore()
	store.Put("b", "sweep", sweepObject(b))
	for _, sel := range []float64{0.001, 0.01, 0.1} {
		hi := int64(float64(sweepRows) * sel)
		cond, err := expr.NewCompare(expr.Lt, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(hi)))
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			noPrune bool
		}{{"pruned", false}, {"unpruned", true}} {
			b.Run(fmt.Sprintf("sel=%g%%/%s", sel*100, mode.name), func(b *testing.B) {
				var rows int
				for i := 0; i < b.N; i++ {
					read := &substrait.ReadRel{Bucket: "b", Objects: []string{"sweep"}, BaseSchema: sweepSchema()}
					plan := substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
					pages, _, err := execute(store, plan, openOpts{pool: newScanPool(1), noPrune: mode.noPrune})
					if err != nil {
						b.Fatal(err)
					}
					rows = countRows(pages)
				}
				if int64(rows) != hi {
					b.Fatalf("result rows %d, want %d", rows, hi)
				}
				b.ReportMetric(float64(rows), "rows/query")
			})
		}
	}
}

// zstdSweepObject is sweepObject with zstd-compressed chunks, so a cache
// miss pays both the codec and the decode cost a hot page would skip.
func zstdSweepObject(b *testing.B) []byte {
	b.Helper()
	schema := sweepSchema()
	page := column.NewPage(schema)
	for i := 0; i < sweepRows; i++ {
		page.AppendRow(
			types.IntValue(int64(i)),
			types.FloatValue(float64(i)*0.5),
			types.FloatValue(float64(i%97)),
			types.FloatValue(float64(i%13)),
		)
	}
	img, err := parquetlite.WritePages(schema,
		parquetlite.WriterOptions{RowGroupSize: sweepGroupSize, Codec: compress.Zstd}, page)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkHotCache measures the caching tier's win on a repeated scan
// of one hot object: Cold re-decodes footer and every zstd column chunk
// each iteration (nil caches, the pre-PR6 behavior); Hot serves decoded
// pages from a warmed footer+page cache. The acceptance bar is a ≥5×
// ns/op ratio, with bytes-decoded/op collapsing to ~0 on the hot path.
func BenchmarkHotCache(b *testing.B) {
	store := objstore.NewStore()
	store.Put("b", "hot", zstdSweepObject(b))
	cond, err := expr.NewCompare(expr.Ge, expr.Col(0, "id", types.Int64), expr.Lit(types.IntValue(0)))
	if err != nil {
		b.Fatal(err)
	}
	newPlan := func() *substrait.Plan {
		read := &substrait.ReadRel{Bucket: "b", Objects: []string{"hot"}, BaseSchema: sweepSchema()}
		return substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
	}

	b.Run("cold", func(b *testing.B) {
		var decoded int64
		for i := 0; i < b.N; i++ {
			pages, stats, err := ExecuteLocalCached(store, newPlan(), 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if countRows(pages) != sweepRows {
				b.Fatal("row count mismatch")
			}
			decoded = stats.BytesDecompressed
		}
		b.ReportMetric(float64(decoded), "bytes-decoded/op")
	})

	b.Run("hot", func(b *testing.B) {
		caches := scan.NewCaches(scan.DefaultFooterCacheBytes, scan.DefaultPageCacheBytes)
		// Warm outside the timed region: one cold pass populates footer
		// and page entries for every row group.
		if _, _, err := ExecuteLocalCached(store, newPlan(), 1, caches); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var decoded int64
		for i := 0; i < b.N; i++ {
			pages, stats, err := ExecuteLocalCached(store, newPlan(), 1, caches)
			if err != nil {
				b.Fatal(err)
			}
			if countRows(pages) != sweepRows {
				b.Fatal("row count mismatch")
			}
			decoded = stats.BytesDecompressed
		}
		b.ReportMetric(float64(decoded), "bytes-decoded/op")
	})
}
