package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"

	"prestocs/internal/harness"
)

const mb = 1e6

// values maps metric name → measured value.
type values map[string]float64

// endToEndValues computes the gated metrics of a finished run (README.md,
// "End-to-end metrics"). setupS holds one wall-time sample per set-up.
func endToEndValues(b *bench, rec *recorder, setupS []float64) values {
	cpu, rtt := median(rec.unitCPU), median(rec.unitRTT)
	compute, handoff := machineFactor(computeShare, cpu, rtt), machineFactor(handoffShare, cpu, rtt)
	computeBound := func(op string) float64 { return lo(rec.ms[op]) / compute }
	handoffBound := func(op string) float64 { return lo(rec.ms[op]) / handoff }
	cycles := float64(rec.cycles())
	v := values{
		"setup_s":            median(setupS) / compute,
		"point_ms_lo":        handoffBound(opPoint),
		"commit_ms_lo":       handoffBound(opCommit),
		"compact_ms_lo":      computeBound(opCompact),
		"cycle_cpu_ms_lo":    lo(rec.cpuMs) / compute,
		"alloc_mb_per_cycle": float64(rec.allocBytes) / mb / cycles,
		"moved_mb_per_suite": float64(rec.movedBytes) / mb / cycles,
		"write_amp":          float64(rec.ingestBytes+rec.compactBytes) / float64(rec.ingestBytes),
		"peak_rss_mb":        peakRSSMB(),
	}
	for _, op := range suiteOps {
		v[op+"_ms_lo"] = computeBound(op)
	}
	var stored int64
	for _, t := range []string{"laghos", "deepwater", "lineitem", "orders", eventsTable} {
		stored += b.storedBytes(t)
	}
	v["stored_bytes_per_raw_byte"] = float64(stored) / float64(b.rawBytes+b.eventRaw)
	return v
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

// share is part/whole, 0 when there was nothing to take a share of.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// untracedLayerValues computes the per-layer metrics that come from the
// untraced phase: raw latencies, QueryStats sums, runtime and store state.
func untracedLayerValues(b *bench, rec *recorder) values {
	cycles := float64(rec.cycles())
	compactMs, commitMs := sum(rec.ms[opCompact]), sum(rec.ms[opCommit])
	objects, liveBytes := b.storeUsage()
	v := values{
		"engine.plan_us_per_suite":            median(rec.planUs),
		"engine.exec_ms_per_suite":            median(rec.execMs),
		"engine.transfer_ms_per_suite":        median(rec.transferMs),
		"engine.residual_share":               share(rec.engineUnits, rec.engineUnits+rec.storageUnits),
		"engine.q3_residual_share":            share(rec.q3EngineUnits, rec.q3EngineUnits+rec.q3StorageUnits),
		"connector.point_splits_pruned_share": share(float64(rec.pointPruned), float64(rec.pointSplits)),
		"ingest.compact_rows_per_s":           share(float64(rec.compactRows), compactMs/1e3),
		"ingest.compact_share_of_write_time":  share(compactMs, compactMs+commitMs),
		"metastore.pins_peak":                 float64(b.pinsPeak),
		"metastore.tombstones_end":            float64(b.c.Meta.TombstoneCount(harness.CatalogOCS, eventsTable)),
		"objstore.live_mb_end":                float64(liveBytes) / mb,
		"objstore.objects_end":                float64(objects),
		"runtime.gc_cycles_per_cycle":         float64(rec.gcCycles) / cycles,
		"runtime.gc_pause_ms_per_cycle":       float64(rec.gcPauseNs) / 1e6 / cycles,
		"runtime.peak_heap_mb":                float64(rec.peakHeap) / mb,
		"harness.ulp_mismatch_share":          share(float64(rec.ulpMismatches), float64(rec.suiteAnswers)),
		"calib.cpu_unit_ms_p50":               median(rec.unitCPU),
		"calib.rtt_unit_ms_p50":               median(rec.unitRTT),
	}
	for _, op := range append([]string{opPoint, opCommit, opCompact, opCycle, opFresh}, suiteOps...) {
		v["harness."+op+"_ms_p50"] = median(rec.ms[op])
		if t, ok := p95(rec.ms[op]); ok {
			v["harness."+op+"_ms_p95"] = t
		}
	}
	return v
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// storeUsage counts the objects and bytes the storage node holds.
func (b *bench) storeUsage() (objects int, bytes int64) {
	store := b.c.OCS.Nodes[0].Store()
	for _, bucket := range store.Buckets() {
		keys, err := store.List(bucket, "")
		if err != nil {
			continue
		}
		for _, k := range keys {
			objects++
			bytes += store.Size(bucket, k)
		}
	}
	return objects, bytes
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every measured value by name with its unit — listed
// metrics first, in table order, then whatever else the run could
// support (p95s need 200 samples) — and ends with the one-line JSON
// object holding exactly the listed metrics.
func emit(w io.Writer, specs []metricSpec, v values, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(specs))}
	listed := make(map[string]bool, len(specs))
	for _, s := range specs {
		x, ok := v[s.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		listed[s.name] = true
		res.Metrics[s.name] = metricValue{x, s.unit}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", s.name, x, s.unit)
	}
	for _, name := range sortedKeys(v) {
		if !listed[name] { // the p95s beyond harness.point_ms_p95
			fmt.Fprintf(w, "%-40s %14.6g ms\n", name, v[name])
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys(v values) []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
