// Command bench is the repository's benchmark: a calibrated end-to-end
// and per-layer measurement of the query engine and its object-based
// computational storage, sized to agree with itself on a shared 2-vCPU
// box. README.md describes the workloads, the metrics and the noise
// study behind the design.
//
//	go run -C bench . -workload pushdown_hot -seed 1            # end-to-end metrics
//	go run -C bench . -workload pushdown_hot -seed 1 -trace 1   # per-layer metrics + trace file
//	go run -C bench . -selfcheck -runs 5                        # does the ruler agree with itself?
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"prestocs/internal/harness"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: pushdown_cold, raw_cold, pushdown_hot or ingest_heavy")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 15, "run size: the measured phase is a fixed cycle count that takes about this long")
		trace     = flag.Int("trace", 0, "1 = report the per-layer metrics (untraced phase + traced phase) and write a trace file")
		out       = flag.String("out", "out", "directory for trace files")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two interleaved sets of fresh processes and compare their medians")
		runs      = flag.Int("runs", 5, "with -selfcheck: runs per set")
	)
	flag.Parse()
	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case *selfcheck:
		err = selfCheck(*name, *runs, *seed, *seconds)
	default:
		err = run(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()

	reps := setupReps
	if traced {
		reps = 1 // setup_s is not reported by a traced run
	}
	b, rec, setupS, err := measure(wl, seed, wl.cycles(seconds), reps, cal)
	if err != nil {
		return err
	}
	warnOffRef(rec)
	if !traced {
		v := endToEndValues(b, rec, setupS)
		b.close()
		return emit(os.Stdout, endToEnd, v, rec.attempted, rec.failed)
	}
	v := untracedLayerValues(b, rec)
	b.close()
	runtime.GC()

	tb, err := setUp(wl, seed, harness.Config{Telemetry: true}, cal)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer tb.close()
	tv, trec, path, err := measureTraced(tb, seed, tracedCycles, outDir)
	if err != nil {
		return err
	}
	for k, x := range tv {
		v[k] = x
	}
	fmt.Fprintln(os.Stderr, "bench: trace written to", path)
	return emit(os.Stdout, perLayer, v, rec.attempted+trec.attempted, rec.failed+trec.failed)
}

// measure is the untraced run: set up reps times (keeping the last),
// warm up, collect garbage, then the fixed count of measured cycles on a
// cluster with every setting at its default. The caller closes the bench.
func measure(wl workloadSpec, seed int64, cycles, reps int, cal *calibrator) (*bench, *recorder, []float64, error) {
	var b *bench
	var setupS []float64
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if b, err = setUp(wl, seed, harness.Config{}, cal); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if err := b.warmUp(warmupCycles - 1); err != nil {
		b.close()
		return nil, nil, nil, err
	}
	runtime.GC()
	rec := newRecorder()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		b.cycle(rec)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d cycles in %.1f s after %d set-ups of %.1f s; cpu_unit %.2f ms, rtt_unit %.3f ms\n",
		wl.name, cycles, time.Since(start).Seconds(), reps, median(setupS), median(rec.unitCPU), median(rec.unitRTT))
	if rec.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed, first: %v\n", rec.failed, rec.attempted, rec.firstErr)
	}
	return b, rec, setupS, nil
}

// measureTraced is the traced phase: the same cycles on a cluster set up
// with telemetry, alternating the engine's tracer off and on (one
// cluster, interleaved, so neither heap layout nor machine drift can pose
// as tracing cost); every traced cycle is followed by the layer walk.
func measureTraced(b *bench, seed int64, cycles int, outDir string) (values, *recorder, string, error) {
	t := newTracer()
	if err := t.prepare(b); err != nil {
		return nil, nil, "", err
	}
	if err := b.warmUp(warmupCycles - 1); err != nil {
		return nil, nil, "", err
	}
	runtime.GC()

	tracerOn, metricsOn := b.c.Engine.Tracer, b.c.Engine.Metrics
	off, on := newRecorder(), newRecorder()
	before := readCounters(b)
	for i := 0; i < cycles; i++ {
		// Both kinds of cycle start from a collected heap: the walk's
		// garbage must not be charged to the untraced cycle after it.
		runtime.GC()
		if i%2 == 0 {
			b.c.Engine.Tracer, b.c.Engine.Metrics = nil, nil
			b.cycle(off)
			continue
		}
		b.c.Engine.Tracer, b.c.Engine.Metrics = tracerOn, metricsOn
		b.cycle(on)
		if err := t.walk(b, i); err != nil {
			return nil, nil, "", err
		}
	}
	after := readCounters(b)
	base := median(off.ms[opCycle])
	overhead := (median(on.ms[opCycle]) - base) / base * 100
	path, err := t.write(outDir, b.wl.name, seed)
	if err != nil {
		return nil, nil, "", err
	}
	on.attempted += off.attempted
	on.failed += off.failed
	return tracedLayerValues(b, t, before, after, overhead), on, path, nil
}

// warnOffRef flags a run whose reference units sat more than 30 % off
// their nominal cost: the machine factor was fitted on regimes up to
// about there and holds less well the further out a run is.
func warnOffRef(rec *recorder) {
	for _, u := range []struct {
		name     string
		got, ref float64
	}{{"cpu_unit", median(rec.unitCPU), refCPUMs}, {"rtt_unit", median(rec.unitRTT), refRTTMs}} {
		if d := u.got/u.ref - 1; d > 0.3 || d < -0.3 {
			fmt.Fprintf(os.Stderr, "bench: warning: %s median %.3f ms is %+.0f%% off its reference %.2f ms\n", u.name, u.got, d*100, u.ref)
		}
	}
}
