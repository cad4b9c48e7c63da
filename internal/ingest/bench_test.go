package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// The write-path microbenchmarks use the shape of the repository
// benchmark's `events` table (bench/setup.go): an ingest-ordered seq, a
// sensor uniform in [0, 4096), a float and one of five tags, in 4096-row
// Snappy batches — 16 of them per compaction.
const benchBatchRows, benchBatches = 4096, 16

var benchSchema = types.NewSchema(
	types.Column{Name: "seq", Type: types.Int64},
	types.Column{Name: "sensor", Type: types.Int64},
	types.Column{Name: "val", Type: types.Float64},
	types.Column{Name: "tag", Type: types.String},
)

var benchOpts = parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: benchBatchRows}

func benchBatch(batch int) [][]types.Value {
	rnd := rand.New(rand.NewSource(int64(batch)))
	tags := []string{"ok", "warn", "fault", "idle", "calib"}
	rows := make([][]types.Value, benchBatchRows)
	for i := range rows {
		rows[i] = []types.Value{
			types.IntValue(int64(batch*benchBatchRows + i)),
			types.IntValue(rnd.Int63n(4096)),
			types.FloatValue(rnd.Float64() * 100),
			types.StringValue(tags[rnd.Intn(len(tags))]),
		}
	}
	return rows
}

var benchSealed SealedObject

// BenchmarkBuilderAppendRows is one commit's CPU: 4096 rows through
// AppendRow, then Seal.
func BenchmarkBuilderAppendRows(b *testing.B) {
	rows := benchBatch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewObjectBuilder(benchSchema, benchOpts)
		for _, row := range rows {
			if err := builder.AppendRow(row...); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if benchSealed, err = builder.Seal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderAppendPage is the same batch arriving as a page, the
// way generators and the compactor feed the builder.
func BenchmarkBuilderAppendPage(b *testing.B) {
	page := column.NewPage(benchSchema)
	for _, row := range benchBatch(0) {
		page.AppendRow(row...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewObjectBuilder(benchSchema, benchOpts)
		if err := builder.AppendPage(page); err != nil {
			b.Fatal(err)
		}
		var err error
		if benchSealed, err = builder.Seal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngesterCommit is one commit as the repository benchmark's
// commit_ms_lo times it: a 4096-row batch through Ingester.Append, which
// seals, stores and commits it as one object at FlushRows, then Flush.
// Each iteration starts, untimed, from an empty table over an empty
// store.
func BenchmarkIngesterCommit(b *testing.B) {
	ctx := context.Background()
	rows := benchBatch(0)
	spec := TableSpec{Schema: "default", Name: "events", Bucket: "events", Columns: benchSchema, Codec: compress.Snappy}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ing := NewIngester(metastore.New(), newFakeStore(), Options{FlushRows: benchBatchRows})
		if err := ing.CreateTable(spec); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		n, err := ing.Append(ctx, "default", "events", rows)
		if err == nil {
			err = ing.Flush(ctx, "default", "events")
		}
		if err != nil || n != benchBatchRows {
			b.Fatalf("accepted %d of %d rows: %v", n, benchBatchRows, err)
		}
	}
}

var benchOrder []int

// BenchmarkClusterOrder is one compaction's sort: 65,536 rows keyed by an
// integer uniform in [0, 4096) (the radix sort's two passes), by a float
// (up to eight passes) and by strings that share an 8-byte prefix (one
// run of tied keys, sorted by comparison).
func BenchmarkClusterOrder(b *testing.B) {
	const n = benchBatchRows * benchBatches
	rnd := rand.New(rand.NewSource(1))
	ints, floats, strs := column.NewVector(types.Int64), column.NewVector(types.Float64), column.NewVector(types.String)
	for i := 0; i < n; i++ {
		ints.Ints = append(ints.Ints, rnd.Int63n(4096))
		floats.Floats = append(floats.Floats, rnd.NormFloat64()*100)
		strs.Strings = append(strs.Strings, fmt.Sprintf("sensor-%05d", rnd.Intn(n)))
	}
	for _, key := range []struct {
		name string
		vec  *column.Vector
	}{{"int4096", ints}, {"float", floats}, {"prefixed_string", strs}} {
		page := &column.Page{Vectors: []*column.Vector{key.vec}}
		b.Run(key.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOrder = clusterOrder(page, 0)
			}
		})
	}
}

// BenchmarkCompactMerge is one compaction: 16 ingest-ordered objects read
// back, clustered by sensor and written as one object. Every iteration
// merges the same 16 objects: a pinned snapshot keeps the compactor from
// deleting them, and its output is deleted instead.
func BenchmarkCompactMerge(b *testing.B) {
	ctx := context.Background()
	store := newFakeStore()
	spec := TableSpec{Schema: "default", Name: "events", Bucket: "events", Columns: benchSchema, Codec: compress.Snappy}
	var keys []string
	var objs []SealedObject
	for batch := 0; batch < benchBatches; batch++ {
		builder := NewObjectBuilder(benchSchema, benchOpts)
		for _, row := range benchBatch(batch) {
			if err := builder.AppendRow(row...); err != nil {
				b.Fatal(err)
			}
		}
		sealed, err := builder.Seal()
		if err != nil {
			b.Fatal(err)
		}
		key := "events-ingest-" + string(rune('a'+batch)) + ".pql"
		if err := store.Put(ctx, spec.Bucket, key, sealed.Image); err != nil {
			b.Fatal(err)
		}
		keys, objs = append(keys, key), append(objs, sealed)
	}
	tbl, err := AssembleTable(spec, keys, objs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := metastore.New()
		if err := ms.Register(tbl); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ms.GetPinned("default", "events"); err != nil {
			b.Fatal(err)
		}
		comp := NewCompactor(ms, store, CompactorOptions{MaxMerge: benchBatches, ClusterBy: "sensor"})
		res, err := comp.RunOnce(ctx, "default", "events")
		if err != nil || len(res.Merged) != benchBatches {
			b.Fatalf("merged %d objects: %v", len(res.Merged), err)
		}
		if err := store.Delete(ctx, spec.Bucket, res.Output); err != nil {
			b.Fatal(err)
		}
	}
}
