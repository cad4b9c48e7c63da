package harness

import (
	"testing"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ocsserver"
	"prestocs/internal/telemetry"
	"prestocs/internal/workload"
)

// TestSuiteOpensOneRequestPerWorker pins the request count of the
// benchmark's suite shape — Laghos, Deep Water, Q1 and Q3 over tables of
// eight objects each, 40 splits in all — at two leaf workers: each scan
// is one ocs.Execute stream per worker, 10 for the suite, not one per
// split. Q3's probe requests each carry the join's bloom filter, so its
// ocs.Execute request bytes at two workers must be at least 3.5× below
// those at eight, where every worker's share is a single split — the
// one-request-per-split shape.
func TestSuiteOpensOneRequestPerWorker(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cfg := func(rows int, seed int64) workload.Config {
		return workload.Config{Files: 8, RowsPerFile: rows, Codec: compress.Snappy, Seed: seed}
	}
	for _, gen := range []func() (*workload.Dataset, error){
		func() (*workload.Dataset, error) { return workload.Laghos(cfg(1024, 1)) },
		func() (*workload.Dataset, error) { return workload.DeepWater(cfg(1024, 2)) },
		func() (*workload.Dataset, error) { return workload.TPCH(cfg(4096, 3)) },
		func() (*workload.Dataset, error) { return workload.TPCHOrders(cfg(4096, 3)) },
	} {
		d, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	streams := func() int64 {
		return c.Metrics.HistogramCount(telemetry.MetricRPCClientLatency, "method", ocsserver.MethodExecute)
	}
	sent := func() int64 {
		return c.Metrics.CounterValue(telemetry.MetricRPCClientSentBytes, "method", ocsserver.MethodExecute)
	}
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "all")
	run := func(workers int, query string) (splits int, opened, bytes int64) {
		t.Helper()
		c.Engine.Workers = workers
		s0, b0 := streams(), sent()
		cell, err := c.Run("suite", query, session)
		if err != nil {
			t.Fatal(err)
		}
		return cell.Stats.Splits, streams() - s0, sent() - b0
	}

	var splits int
	var opened, q3Grouped int64
	for _, q := range []string{workload.LaghosQuery, workload.DeepWaterQuery, workload.TPCHQuery, workload.TPCHQ3Query} {
		n, o, b := run(2, q)
		splits += n
		opened += o
		q3Grouped = b
	}
	if splits != 40 || opened != 10 {
		t.Errorf("suite at 2 workers: %d splits in %d ocs.Execute streams, want 40 in 10", splits, opened)
	}
	_, perSplit, q3PerSplit := run(8, workload.TPCHQ3Query)
	if perSplit != 16 {
		t.Errorf("Q3 at 8 workers opened %d streams, want one per split (16)", perSplit)
	}
	ratio := float64(q3PerSplit) / float64(q3Grouped)
	t.Logf("Q3 ocs.Execute request bytes: %d at 8 workers, %d at 2 (%.2f×)", q3PerSplit, q3Grouped, ratio)
	if ratio < 3.5 {
		t.Errorf("Q3 ocs.Execute request bytes: %d at 8 workers, %d at 2 (%.2f×), want at least 3.5× fewer", q3PerSplit, q3Grouped, ratio)
	}
}
