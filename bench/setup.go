package main

import (
	"context"
	"fmt"
	"math/rand"

	"prestocs/internal/compress"
	"prestocs/internal/harness"
	"prestocs/internal/ingest"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

const (
	eventsTable  = "events"
	eventsBucket = "bench"
	batchRows    = 4096
	batchPool    = 16
	// compactEvery is both the compactor's MaxMerge and the commit
	// count between RunOnce calls, so a run merges exactly the 16
	// newest small objects each time.
	compactEvery = 16
	sensors      = 4096
	pointsPer    = 8
	pointSpan    = 16 // vertex ids per point lookup; 8 rows each
	pointRows    = pointSpan * 8
)

// Generated table shapes: decoded working set ≈ 30 MB, under the
// 64 MiB per-node page cache, so the hot workloads fit and "cold" means
// a flushed cache, i.e. a cache of size zero.
const (
	tableFiles    = 8
	laghosRows    = 16384
	deepwaterRows = 32768
	tpchRows      = 16384
)

var eventsSchema = types.NewSchema(
	types.Column{Name: "seq", Type: types.Int64},
	types.Column{Name: "sensor", Type: types.Int64},
	types.Column{Name: "val", Type: types.Float64},
	types.Column{Name: "tag", Type: types.String},
)

var eventTags = []string{"ok", "warn", "fault", "idle", "calib"}

// bench is one set-up deployment plus the client-side state of the
// closed loop: the seeded RNG, the batch pool and the golden answers.
type bench struct {
	wl   workloadSpec
	c    *harness.Cluster
	ing  *ingest.Ingester
	comp *ingest.Compactor
	cal  *calibrator

	// rawBytes is the uncompressed volume of the four generated tables.
	rawBytes int64
	// points draws the point-lookup keys.
	points *rand.Rand
	// batches is the pool of pre-built event batches; only their seq
	// column is rewritten per use, so the generator costs almost nothing
	// inside the loop. batchRaw is the raw size of each.
	batches  [][][]types.Value
	batchRaw []int64

	nextSeq int64
	commits int
	// eventRaw is the raw volume committed to events so far.
	eventRaw int64
	// golden is each suite query's first answer, canonically ordered.
	golden map[string][][]types.Value
	// vertices is the laghos vertex-id domain size.
	vertices int64
	// pinsPeak is the most snapshot pins seen outstanding at idle.
	pinsPeak int
}

// tableSeed derives the generator seed of the k-th table from -seed.
func tableSeed(seed int64, k int) int64 { return seed*1000003 + int64(k)*7907 }

// generate builds the four read-only tables for a seed.
func generate(seed int64) ([]*workload.Dataset, error) {
	cfg := func(k, rows int) workload.Config {
		return workload.Config{Files: tableFiles, RowsPerFile: rows, Codec: compress.Snappy, Seed: tableSeed(seed, k)}
	}
	gens := []func() (*workload.Dataset, error){
		func() (*workload.Dataset, error) { return workload.Laghos(cfg(0, laghosRows)) },
		func() (*workload.Dataset, error) { return workload.DeepWater(cfg(1, deepwaterRows)) },
		func() (*workload.Dataset, error) { return workload.TPCH(cfg(2, tpchRows)) },
		func() (*workload.Dataset, error) { return workload.TPCHOrders(cfg(3, tpchRows)) },
	}
	out := make([]*workload.Dataset, 0, len(gens))
	for _, g := range gens {
		d, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// eventBatches builds the batch pool for a seed.
func eventBatches(seed int64) ([][][]types.Value, []int64) {
	rnd := rand.New(rand.NewSource(tableSeed(seed, 4)))
	batches := make([][][]types.Value, batchPool)
	raw := make([]int64, batchPool)
	for b := range batches {
		rows := make([][]types.Value, batchRows)
		for r := range rows {
			tag := eventTags[rnd.Intn(len(eventTags))]
			rows[r] = []types.Value{
				types.IntValue(0),
				types.IntValue(rnd.Int63n(sensors)),
				types.FloatValue(rnd.Float64() * 100),
				types.StringValue(tag),
			}
			raw[b] += 3*8 + int64(len(tag)) + 8
		}
		batches[b] = rows
	}
	return batches, raw
}

// setUp is the benchmark's set-up, the thing setup_s times: generate the
// four tables and the batch pool for the seed, then deploy them.
func setUp(wl workloadSpec, seed int64, cfg harness.Config, cal *calibrator) (*bench, error) {
	data, err := generate(seed)
	if err != nil {
		return nil, err
	}
	return deploy(wl, seed, data, cfg, cal)
}

// deploy starts the cluster, loads the tables, creates the events table
// with its ingester and compactor, and runs the first warm-up cycle (so
// anything the program initialises lazily on first use is inside the
// timed set-up, and the golden answers exist).
func deploy(wl workloadSpec, seed int64, data []*workload.Dataset, cfg harness.Config, cal *calibrator) (*bench, error) {
	c, err := harness.StartClusterWith(1, cfg)
	if err != nil {
		return nil, err
	}
	b := &bench{
		wl:       wl,
		c:        c,
		cal:      cal,
		points:   rand.New(rand.NewSource(tableSeed(seed, 5))),
		golden:   make(map[string][][]types.Value),
		vertices: tableFiles * laghosRows / 8,
	}
	for _, d := range data {
		if err := c.Load(d); err != nil {
			b.close()
			return nil, err
		}
		b.rawBytes += d.TotalRawBytes
	}
	b.ing = c.NewIngester(ingest.Options{FlushRows: batchRows})
	if err := b.ing.CreateTable(ingest.TableSpec{
		Schema: harness.CatalogOCS, Name: eventsTable, Bucket: eventsBucket,
		Columns: eventsSchema, Codec: compress.Snappy,
	}); err != nil {
		b.close()
		return nil, err
	}
	// SmallBytes 512 KiB: a merge of 16 batches writes ≈ 740 KB, which is
	// then never a candidate again, so every RunOnce does the same work.
	// (With the default 1 MiB the output re-enters the candidate list and
	// compactions alternate between two costs.)
	b.comp = c.NewCompactor(ingest.CompactorOptions{SmallBytes: 512 << 10, MaxMerge: compactEvery, ClusterBy: "sensor"})
	b.batches, b.batchRaw = eventBatches(seed)
	if err := b.warmUp(1); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warmUp runs n unmeasured cycles; any failed op is a set-up error.
func (b *bench) warmUp(n int) error {
	rec := newRecorder()
	for i := 0; i < n; i++ {
		b.cycle(rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed, first: %v", rec.failed, rec.attempted, rec.firstErr)
	}
	return nil
}

func (b *bench) close() { b.c.Close() }

var background = context.Background()
