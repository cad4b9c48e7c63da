package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/substrait"
	"prestocs/internal/workload"
)

// benchDataset builds one of the paper workloads at benchmark scale.
func benchDataset(b *testing.B, name string) *workload.Dataset {
	b.Helper()
	var (
		d   *workload.Dataset
		err error
	)
	switch name {
	case "laghos":
		d, err = workload.Laghos(workload.Config{Files: 2, RowsPerFile: 16384, Seed: 21, Codec: compress.Snappy})
	case "deepwater":
		d, err = workload.DeepWater(workload.Config{Files: 2, RowsPerFile: 32768, Seed: 22, Codec: compress.Snappy})
	case "tpch":
		d, err = workload.TPCH(workload.Config{Files: 2, RowsPerFile: 16384, Seed: 23, Codec: compress.Snappy})
	default:
		b.Fatalf("unknown dataset %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchCluster(b *testing.B, datasets ...*workload.Dataset) *Cluster {
	b.Helper()
	c, err := StartCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for _, d := range datasets {
		if err := c.Load(d); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkStreamingVsBuffered measures what the streaming result
// protocol buys. "buffered" emulates the old unary protocol, where the
// storage node materialized the whole Arrow result before the first byte
// reached the client: time-to-first-page equals a full drain. "streaming"
// is the chunk-per-row-group path, where the first page is usable while
// the node is still scanning later row groups.
//
// first-page is the latency the paper's residual operators observe before
// they can start; e2e runs each paper query through the full engine and
// must be no worse than the buffered baseline.
func BenchmarkStreamingVsBuffered(b *testing.B) {
	dw := benchDataset(b, "deepwater")

	b.Run("DeepWater/first-page", func(b *testing.B) {
		c := benchCluster(b, dw)
		scan := &substrait.ReadRel{
			Bucket:     dw.Table.Bucket,
			Objects:    dw.Table.Objects[:1],
			BaseSchema: dw.Table.Columns,
		}
		plan := substrait.NewPlan(scan)

		b.Run("buffered", func(b *testing.B) {
			// Full materialization before the first page is available.
			for i := 0; i < b.N; i++ {
				rs, err := c.OCSCli.ExecuteStream(context.Background(), plan)
				if err != nil {
					b.Fatal(err)
				}
				var pages []*column.Page
				for {
					page, err := rs.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					pages = append(pages, page)
				}
				rs.Close()
				if len(pages) == 0 || pages[0].NumRows() == 0 {
					b.Fatal("empty result")
				}
			}
		})
		b.Run("streaming", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rs, err := c.OCSCli.ExecuteStream(context.Background(), plan)
				if err != nil {
					b.Fatal(err)
				}
				page, err := rs.Next()
				if err != nil || page.NumRows() == 0 {
					b.Fatalf("first page: %v", err)
				}
				rs.Close()
			}
		})
	})

	// End-to-end paper queries through the engine: streaming must be no
	// worse than full buffering here, even when the query drains
	// everything anyway.
	for _, name := range []string{"laghos", "deepwater", "tpch"} {
		d := benchDataset(b, name)
		b.Run(fmt.Sprintf("%s/e2e", name), func(b *testing.B) {
			c := benchCluster(b, d)
			for i := 0; i < b.N; i++ {
				if _, err := c.Run("bench", d.Query, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Full-drain comparison at the protocol level on Deep Water: chunked
	// streaming versus what the buffered path moved, same bytes total.
	b.Run("DeepWater/full-drain/streaming", func(b *testing.B) {
		c := benchCluster(b, dw)
		scan := &substrait.ReadRel{
			Bucket:     dw.Table.Bucket,
			Objects:    dw.Table.Objects[:1],
			BaseSchema: dw.Table.Columns,
		}
		plan := substrait.NewPlan(scan)
		for i := 0; i < b.N; i++ {
			rs, err := c.OCSCli.ExecuteStream(context.Background(), plan)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := rs.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTracingOverhead prices end-to-end tracing: the same paper
// query through the full topology with spans on and off. The acceptance
// bar is overhead-pct ≤ 3; `make bench` archives the numbers in
// BENCH_PR4.json so the gap is tracked over time.
//
// Methodology — three choices that matter on shared hardware:
//
//   - ONE cluster, toggling the engine tracer between modes, instead of
//     two clusters built with different configs. Distinct configurations
//     allocate in different orders, and the resulting heap layouts alone
//     bias query wall time by far more than the telemetry delta (both
//     signs, up to ~25% observed) — a lottery that is sticky per process,
//     so it does not average out. A single cluster holds the layout
//     fixed. Nilling the engine tracer disables span creation in every
//     layer: with no root span no trace ID crosses the wire, and the rpc
//     server only adopts its own tracer for requests that arrive traced.
//   - Modes INTERLEAVE batch by batch, so machine-load drift lands on
//     both equally; sequential A-then-B phases sample different load.
//   - The per-mode figure is the MEDIAN per-query latency, which a
//     handful of GC pauses or noisy-neighbor stalls cannot drag around
//     the way a mean can.
func BenchmarkTracingOverhead(b *testing.B) {
	d := benchDataset(b, "laghos")
	c, err := StartClusterWith(2, Config{Telemetry: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	if err := c.Load(d); err != nil {
		b.Fatal(err)
	}
	tracer, metrics := c.Engine.Tracer, c.Engine.Metrics
	set := func(on bool) {
		if on {
			c.Engine.Tracer, c.Engine.Metrics = tracer, metrics
		} else {
			c.Engine.Tracer, c.Engine.Metrics = nil, nil
		}
	}
	defer set(true)
	modes := []bool{false, true} // [0] disabled, [1] enabled
	// Warm up pools, page caches and the GC steady state before timing;
	// cold-start costs are not what this measures.
	for j := 0; j < 20; j++ {
		for _, on := range modes {
			set(on)
			if _, err := c.Run("warmup", d.Query, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	samples := [2][]time.Duration{
		make([]time.Duration, 0, b.N),
		make([]time.Duration, 0, b.N),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, on := range modes {
			set(on)
			start := time.Now()
			if _, err := c.Run("bench", d.Query, nil); err != nil {
				b.Fatal(err)
			}
			samples[j] = append(samples[j], time.Since(start))
		}
	}
	b.StopTimer()
	var median [2]float64
	for j, s := range samples {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		median[j] = float64(s[len(s)/2].Nanoseconds())
	}
	b.ReportMetric(median[0], "disabled-ns/op")
	b.ReportMetric(median[1], "enabled-ns/op")
	b.ReportMetric((median[1]-median[0])/median[0]*100, "overhead-pct")
}
