package main

import (
	"fmt"
	"math"
)

// workloadSpec is one row of the workload table (README.md, "Workloads").
// Every workload runs the same cycle; only these parameters differ.
type workloadSpec struct {
	name string
	// pushdown is the ocs.pushdown session value of every query.
	pushdown string
	// cold flushes the storage-node caches before every query.
	cold bool
	// commits is B, the Append+Flush count per cycle.
	commits int
	// cyclesPerSecond sizes a run: the measured phase is a FIXED count
	// of round(cyclesPerSecond × -seconds) cycles, so every count metric
	// repeats exactly for a seed and a faster program simply finishes
	// sooner. The values are what this box does in its fast regime.
	cyclesPerSecond float64
	why             string
}

var workloads = []workloadSpec{
	{"pushdown_cold", "all", true, 2, 6.0,
		"the paper's configuration: storage-side decode, decompress, filter and aggregate are ~95% of every scan and almost nothing crosses the wire"},
	{"raw_cold", "none", true, 2, 4.4,
		"no-pushdown baseline and fallback path: 4x the bytes cross rpc as whole objects and exec decodes, filters and aggregates engine-side; filter and aggregate pushdown code is bypassed"},
	{"pushdown_hot", "all", false, 2, 9.6,
		"same queries with decode and decompress removed by the footer and page caches: what is left is expr kernels, join, planning, substrait and rpc hand-offs"},
	{"ingest_heavy", "all", false, 16, 3.5,
		"writes beside reads: 16 commits and one compaction per cycle are ~70% of the cycle, so a write-path gain that costs reads (or the reverse) shows here only"},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// Cycle counts are multiples of 8, so that every workload commits a
// multiple of 16 batches and write_amp has levelled off whatever the
// run size; and at least 32, since 25 cycles make the 200 point lookups
// that leave ten samples beyond a p95.
const (
	cycleStep = 8
	minCycles = 32
)

// cycles is the measured cycle count of a run sized for the given
// seconds.
func (w workloadSpec) cycles(seconds int) int {
	n := int(math.Round(w.cyclesPerSecond*float64(seconds)/cycleStep)) * cycleStep
	if n < minCycles {
		n = minCycles
	}
	return n
}

const (
	warmupCycles = 10
	// tracedCycles is the cycle count of the traced phase of a -trace
	// run, half of them with spans on and a layer walk behind them.
	tracedCycles = 30
	// setupReps is how many times a run sets up from scratch; setup_s
	// is the median.
	setupReps = 3
)

// metricSpec names one metric. bound is 0 for per-layer metrics.
type metricSpec struct {
	name, unit string
	bound      float64
}

// endToEnd lists the gated metrics (all: lower is better). Every
// workload reports all of them with -trace 0. BENCHMARK.json carries
// the same list; TestBenchmarkJSONMatches keeps them equal. README.md,
// "Bounds", says where the numbers come from.
var endToEnd = []metricSpec{
	{"setup_s", "s", 0.25},
	{"laghos_ms_lo", "ms", 0.20},
	{"deepwater_ms_lo", "ms", 0.20},
	{"q1_ms_lo", "ms", 0.20},
	{"q3_ms_lo", "ms", 0.20},
	{"point_ms_lo", "ms", 0.20},
	{"commit_ms_lo", "ms", 0.20},
	{"compact_ms_lo", "ms", 0.20},
	{"cycle_cpu_ms_lo", "ms", 0.20},
	{"alloc_mb_per_cycle", "MB", 0.02},
	{"moved_mb_per_suite", "MB", 0.03},
	{"write_amp", "ratio", 0.01},
	{"stored_bytes_per_raw_byte", "ratio", 0.01},
	{"peak_rss_mb", "MB", 0.15},
}

// suiteOps and the other op names index the recorder's samples.
var suiteOps = []string{"laghos", "deepwater", "q1", "q3"}

const (
	opPoint   = "point"
	opCommit  = "commit"
	opFresh   = "fresh"
	opCompact = "compact"
	opCycle   = "cycle"
)

// untracedLayer lists the ungated metrics a -trace 1 run takes from its
// untraced phase, the same code path as a -trace 0 run.
var untracedLayer = []metricSpec{
	{name: "engine.plan_us_per_suite", unit: "us"},
	{name: "engine.exec_ms_per_suite", unit: "ms"},
	{name: "engine.transfer_ms_per_suite", unit: "ms"},
	{name: "engine.residual_share", unit: "ratio"},
	{name: "engine.q3_residual_share", unit: "ratio"},
	{name: "connector.point_splits_pruned_share", unit: "ratio"},
	{name: "ingest.compact_rows_per_s", unit: "1/s"},
	{name: "ingest.compact_share_of_write_time", unit: "ratio"},
	{name: "metastore.pins_peak", unit: "count"},
	{name: "metastore.tombstones_end", unit: "count"},
	{name: "objstore.live_mb_end", unit: "MB"},
	{name: "objstore.objects_end", unit: "count"},
	{name: "runtime.gc_cycles_per_cycle", unit: "count"},
	{name: "runtime.gc_pause_ms_per_cycle", unit: "ms"},
	{name: "runtime.peak_heap_mb", unit: "MB"},
	{name: "harness.laghos_ms_p50", unit: "ms"},
	{name: "harness.deepwater_ms_p50", unit: "ms"},
	{name: "harness.q1_ms_p50", unit: "ms"},
	{name: "harness.q3_ms_p50", unit: "ms"},
	{name: "harness.point_ms_p50", unit: "ms"},
	{name: "harness.point_ms_p95", unit: "ms"},
	{name: "harness.commit_ms_p50", unit: "ms"},
	{name: "harness.compact_ms_p50", unit: "ms"},
	{name: "harness.cycle_ms_p50", unit: "ms"},
	{name: "harness.fresh_ms_p50", unit: "ms"},
	{name: "harness.ulp_mismatch_share", unit: "ratio"},
	{name: "calib.cpu_unit_ms_p50", unit: "ms"},
	{name: "calib.rtt_unit_ms_p50", unit: "ms"},
}

// tracedLayer lists the ones from its traced phase and layer walk.
var tracedLayer = []metricSpec{
	{name: "sqlparser.parse_us_per_suite", unit: "us"},
	{name: "analyzer.analyze_us_per_suite", unit: "us"},
	{name: "optimizer.optimize_us_per_suite", unit: "us"},
	{name: "connector.optimize_us_per_suite", unit: "us"},
	{name: "substrait.encode_us_per_suite", unit: "us"},
	{name: "substrait.decode_us_per_suite", unit: "us"},
	{name: "substrait.plan_bytes_per_suite", unit: "bytes"},
	{name: "ocsserver.rowgroups_pruned_share", unit: "ratio"},
	{name: "ocsserver.scan_ms_per_suite", unit: "ms"},
	{name: "ocsserver.rows_out_share", unit: "ratio"},
	{name: "parquetlite.decode_ms_per_suite", unit: "ms"},
	{name: "parquetlite.decoded_mb_per_suite", unit: "MB"},
	{name: "compress.decode_ms_per_suite", unit: "ms"},
	{name: "expr.filter_ms_per_suite", unit: "ms"},
	{name: "expr.filter_rows_kept_share", unit: "ratio"},
	{name: "cache.page_hit_share", unit: "ratio"},
	{name: "cache.footer_hit_share", unit: "ratio"},
	{name: "cache.page_mb_end", unit: "MB"},
	{name: "bloom.rows_filtered_share", unit: "ratio"},
	{name: "arrowlite.encode_ms_per_suite", unit: "ms"},
	{name: "arrowlite.decode_ms_per_suite", unit: "ms"},
	{name: "arrowlite.mb_per_suite", unit: "MB"},
	{name: "rpc.stream_ms_per_suite", unit: "ms"},
	{name: "rpc.overhead_ms_per_suite", unit: "ms"},
	{name: "rpc.calls_per_suite", unit: "count"},
	{name: "ingest.append_us_per_row", unit: "us"},
	{name: "ingest.seal_ms_per_batch", unit: "ms"},
	{name: "ocsserver.put_ms_per_batch", unit: "ms"},
	{name: "metastore.commit_us", unit: "us"},
	{name: "trace.overhead_pct", unit: "%"},
}

// perLayer is everything a -trace 1 run reports.
var perLayer = append(append([]metricSpec(nil), untracedLayer...), tracedLayer...)
