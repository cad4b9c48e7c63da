// Package prestocs's root benchmarks regenerate the paper's evaluation
// artifacts under `go test -bench`: one benchmark per table and figure
// (DESIGN.md §5). Each iteration runs a full query through the real
// topology (engine + OCS frontend and storage nodes over loopback TCP); reported
// custom metrics are the cost-model outputs:
//
//	modeled-ms/op   modeled execution time on the paper's testbed
//	moved-KB/op     data movement between compute and storage
//
// Shape expectations (who wins, by roughly what factor) are asserted by
// the unit tests in internal/harness; the benchmarks report the numbers.
package prestocs_test

import (
	"fmt"
	"testing"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/workload"
)

// benchCluster builds a loaded cluster once per benchmark.
func benchCluster(b *testing.B, make func() (*workload.Dataset, error)) (*harness.Cluster, *workload.Dataset) {
	b.Helper()
	c, err := harness.StartCluster(1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	d, err := make()
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		b.Fatal(err)
	}
	return c, d
}

func benchLaghos(codec compress.Codec) func() (*workload.Dataset, error) {
	return func() (*workload.Dataset, error) {
		return workload.Laghos(workload.Config{Files: 8, RowsPerFile: 8192, Seed: 42, Codec: codec})
	}
}

func benchDeepWater(codec compress.Codec) func() (*workload.Dataset, error) {
	return func() (*workload.Dataset, error) {
		return workload.DeepWater(workload.Config{Files: 8, RowsPerFile: 16384, Seed: 42, Codec: codec})
	}
}

func benchTPCH(codec compress.Codec) func() (*workload.Dataset, error) {
	return func() (*workload.Dataset, error) {
		return workload.TPCH(workload.Config{Files: 8, RowsPerFile: 16384, Seed: 42, Codec: codec})
	}
}

func runCell(b *testing.B, c *harness.Cluster, d *workload.Dataset, mode string) {
	b.Helper()
	session := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
	var lastModeled float64
	var lastMoved float64
	for i := 0; i < b.N; i++ {
		cell, err := c.Run(mode, d.Query, session)
		if err != nil {
			b.Fatal(err)
		}
		lastModeled = float64(cell.Modeled.Total.Microseconds()) / 1000
		lastMoved = float64(cell.BytesMoved) / 1024
	}
	b.ReportMetric(lastModeled, "modeled-ms/op")
	b.ReportMetric(lastMoved, "moved-KB/op")
}

// BenchmarkFig5aLaghos sweeps the paper's Figure 5(a) x-axis.
func BenchmarkFig5aLaghos(b *testing.B) {
	c, d := benchCluster(b, benchLaghos(compress.None))
	for _, step := range harness.Fig5Steps("laghos") {
		step := step
		b.Run(step.Mode, func(b *testing.B) { runCell(b, c, d, step.Mode) })
	}
}

// BenchmarkFig5bDeepWater sweeps Figure 5(b).
func BenchmarkFig5bDeepWater(b *testing.B) {
	c, d := benchCluster(b, benchDeepWater(compress.None))
	for _, step := range harness.Fig5Steps("deepwater") {
		step := step
		b.Run(step.Mode, func(b *testing.B) { runCell(b, c, d, step.Mode) })
	}
}

// BenchmarkFig5cTPCH sweeps Figure 5(c) over TPC-H Q1.
func BenchmarkFig5cTPCH(b *testing.B) {
	c, d := benchCluster(b, benchTPCH(compress.None))
	for _, step := range harness.Fig5Steps("tpch") {
		step := step
		b.Run(step.Mode, func(b *testing.B) { runCell(b, c, d, step.Mode) })
	}
}

// BenchmarkFig6Compression sweeps Figure 6: codec × {filter, all-op}.
func BenchmarkFig6Compression(b *testing.B) {
	for _, codec := range compress.Codecs() {
		codec := codec
		b.Run(codec.String(), func(b *testing.B) {
			c, d := benchCluster(b, benchDeepWater(codec))
			for _, mode := range []string{"filter", "filter_project_agg"} {
				mode := mode
				b.Run(mode, func(b *testing.B) { runCell(b, c, d, mode) })
			}
		})
	}
}

// BenchmarkTable2Selectivity measures each paper query end to end with
// full pushdown (the configuration Table 2's selectivity describes).
func BenchmarkTable2Selectivity(b *testing.B) {
	cases := []struct {
		name string
		make func() (*workload.Dataset, error)
	}{
		{"laghos", benchLaghos(compress.None)},
		{"deepwater", benchDeepWater(compress.None)},
		{"tpch", benchTPCH(compress.None)},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			c, d := benchCluster(b, tc.make)
			runCell(b, c, d, "all")
		})
	}
}

// BenchmarkTable3Breakdown measures the connector-overhead stages the
// paper's Table 3 reports: plan analysis and Substrait IR generation per
// query, as shares of total execution.
func BenchmarkTable3Breakdown(b *testing.B) {
	c, d := benchCluster(b, func() (*workload.Dataset, error) {
		return workload.Laghos(workload.Config{Files: 1, RowsPerFile: 16384, Seed: 42})
	})
	var planPct, irPct float64
	for i := 0; i < b.N; i++ {
		br, err := c.RunTable3(d)
		if err != nil {
			b.Fatal(err)
		}
		planPct = 100 * float64(br.PlanAnalysis) / float64(br.Total)
		irPct = 100 * float64(br.SubstraitGen) / float64(br.Total)
	}
	b.ReportMetric(planPct, "plan-analysis-%")
	b.ReportMetric(irPct, "substrait-gen-%")
}

// BenchmarkAblationResultFormat compares Arrow (OCS) against CSV (S3
// Select-like) result transfer for the same filter-only pushdown — the
// design choice DESIGN.md §11 calls out.
func BenchmarkAblationResultFormat(b *testing.B) {
	c, d := benchCluster(b, benchDeepWater(compress.None))
	b.Run("arrow", func(b *testing.B) { runCell(b, c, d, "filter") })
	b.Run("csv", func(b *testing.B) {
		hiveQuery := "SELECT MAX((rowid % 250000) / 500) AS m, timestep FROM hive.deepwater WHERE v02 > 0.1 GROUP BY timestep"
		var lastModeled, lastMoved float64
		for i := 0; i < b.N; i++ {
			cell, err := c.Run("csv", hiveQuery, engine.NewSession())
			if err != nil {
				b.Fatal(err)
			}
			lastModeled = float64(cell.Modeled.Total.Microseconds()) / 1000
			lastMoved = float64(cell.BytesMoved) / 1024
		}
		b.ReportMetric(lastModeled, "modeled-ms/op")
		b.ReportMetric(lastMoved, "moved-KB/op")
	})
}

// BenchmarkAblationRowGroupPruning toggles the statistics-based row-group
// pruning benefit by comparing a selective filter against a full scan of
// the same columns.
func BenchmarkAblationRowGroupPruning(b *testing.B) {
	c, d := benchCluster(b, benchLaghos(compress.None))
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	selective := "SELECT vertex_id, e FROM laghos WHERE vertex_id < 64"
	broad := "SELECT vertex_id, e FROM laghos WHERE vertex_id >= 0"
	_ = d
	b.Run("pruned", func(b *testing.B) {
		var io float64
		for i := 0; i < b.N; i++ {
			cell, err := c.Run("pruned", selective, session)
			if err != nil {
				b.Fatal(err)
			}
			io = float64(cell.Stats.Scan.Snapshot().StorageWork.BytesRead) / 1024
		}
		b.ReportMetric(io, "storage-read-KB/op")
	})
	b.Run("unpruned", func(b *testing.B) {
		var io float64
		for i := 0; i < b.N; i++ {
			cell, err := c.Run("unpruned", broad, session)
			if err != nil {
				b.Fatal(err)
			}
			io = float64(cell.Stats.Scan.Snapshot().StorageWork.BytesRead) / 1024
		}
		b.ReportMetric(io, "storage-read-KB/op")
	})
}

// BenchmarkAblationAutoVsForced compares the Selectivity Analyzer's auto
// decisions against forced full pushdown.
func BenchmarkAblationAutoVsForced(b *testing.B) {
	c, d := benchCluster(b, benchLaghos(compress.None))
	for _, mode := range []string{"auto", "all", "none"} {
		mode := mode
		b.Run(mode, func(b *testing.B) { runCell(b, c, d, mode) })
	}
}

// Example of the printed sweep for documentation; not a benchmark.
func ExampleFig5Steps() {
	for _, s := range harness.Fig5Steps("laghos") {
		fmt.Println(s.Label)
	}
	// Output:
	// no pushdown
	// filter
	// filter+agg
	// filter+agg+topn
}
