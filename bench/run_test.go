package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"prestocs/internal/harness"
	"prestocs/internal/workload"
)

const testSeed = 1

var (
	dataOnce sync.Once
	dataSet  []*workload.Dataset
	dataErr  error
)

// testBench deploys the workload over tables generated once per test
// binary; generated tables are read-only, so deployments can share them.
func testBench(t *testing.T, name string, cfg harness.Config) *bench {
	t.Helper()
	dataOnce.Do(func() { dataSet, dataErr = generate(testSeed) })
	if dataErr != nil {
		t.Fatal(dataErr)
	}
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cal.close)
	b, err := deploy(wl, testSeed, dataSet, cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	return b
}

// runCycles measures n cycles and fails the test on any failed op.
func runCycles(t *testing.T, b *bench, n int) *recorder {
	t.Helper()
	rec := newRecorder()
	for i := 0; i < n; i++ {
		b.cycle(rec)
	}
	if rec.failed > 0 {
		t.Fatalf("%s: %d of %d ops failed, first: %v", b.wl.name, rec.failed, rec.attempted, rec.firstErr)
	}
	return rec
}

func TestSameSeedSameRun(t *testing.T) {
	const cycles = 12
	var runs [2]values
	var attempted [2]int
	var nextKey [2]int64
	for i := range runs {
		b := testBench(t, "pushdown_hot", harness.Config{})
		rec := runCycles(t, b, cycles)
		runs[i] = endToEndValues(b, rec, []float64{1})
		attempted[i] = rec.attempted
		nextKey[i] = b.points.Int63()
	}
	// 13 cycles (one of warm-up) of 2 commits: one compaction, inside
	// the measured 12.
	if want := cycles*(len(suiteOps)+pointsPer+2*2) + 1; attempted[0] != want {
		t.Errorf("attempted %d ops, want %d", attempted[0], want)
	}
	if attempted[0] != attempted[1] || nextKey[0] != nextKey[1] {
		t.Errorf("two runs of one seed diverged: %d vs %d ops, next point key %d vs %d",
			attempted[0], attempted[1], nextKey[0], nextKey[1])
	}
	for _, name := range []string{"moved_mb_per_suite", "write_amp", "stored_bytes_per_raw_byte"} {
		a, b := runs[0][name], runs[1][name]
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	a, rawA := eventBatches(7)
	b, rawB := eventBatches(7)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(rawA, rawB) {
		t.Error("the same seed built different batch pools")
	}
	c, _ := eventBatches(8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds built the same batch pool")
	}
	if tableSeed(7, 5) == tableSeed(8, 5) || tableSeed(7, 0) == tableSeed(7, 1) {
		t.Error("tableSeed collides across seeds or tables")
	}
}

func TestIngestHeavySmoke(t *testing.T) {
	b := testBench(t, "ingest_heavy", harness.Config{})
	rec := runCycles(t, b, 2)
	// 16 commits per cycle: a compaction in every cycle.
	if got := len(rec.ms[opCompact]); got != 2 {
		t.Errorf("%d compactions in 2 cycles, want 2", got)
	}
	v := endToEndValues(b, rec, []float64{1})
	if err := emit(io.Discard, endToEnd, v, rec.attempted, rec.failed); err != nil {
		t.Error(err)
	}
	if w := v["write_amp"]; w < 1.7 || w > 1.9 {
		t.Errorf("write_amp %v outside 1.7–1.9: a compaction no longer merges 16 batches into one object, once", w)
	}
	layer := untracedLayerValues(b, rec)
	for _, spec := range untracedLayer {
		x, ok := layer[spec.name]
		if spec.name == "harness.point_ms_p95" {
			continue // 16 lookups have no tail
		}
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s = %v (measured: %v)", spec.name, x, ok)
		}
	}
}

// TestTracedPhase drives the layer walk on the raw and the pushdown path,
// with the caches flushed before every query.
func TestTracedPhase(t *testing.T) {
	for _, name := range []string{"raw_cold", "pushdown_cold"} {
		b := testBench(t, name, harness.Config{Telemetry: true})
		dir := t.TempDir()
		v, rec, path, err := measureTraced(b, testSeed, 2, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.failed > 0 {
			t.Fatalf("%s: %d of %d ops failed", name, rec.failed, rec.attempted)
		}
		for _, spec := range tracedLayer {
			x, ok := v[spec.name]
			if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%s: %s = %v (measured: %v)", name, spec.name, x, ok)
			}
		}
		if got := v["cache.page_hit_share"]; got != 0 {
			t.Errorf("%s: page hit share %v on a workload that flushes before every query", name, got)
		}
		if name == "raw_cold" && v["expr.filter_ms_per_suite"] != 0 {
			t.Errorf("raw_cold pushed a filter: expr.filter_ms_per_suite = %v", v["expr.filter_ms_per_suite"])
		}
		if name == "pushdown_cold" && v["substrait.plan_bytes_per_suite"] == 0 {
			t.Error("pushdown_cold shipped no Substrait plan")
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Spans) == 0 {
			t.Fatalf("%s: trace file has no spans", name)
		}
		for _, s := range file.Spans {
			if s.EndUs < s.StartUs || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", name, s)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads,
// equal to the tables the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, got.Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program has %s [%s]", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound || g.Better != "lower") {
				t.Errorf("%s: bound or direction differs from the program's %v, lower", w.name, w.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
