package harness

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/workload"
)

// mixedCase is one mixed-traffic scenario: the pushdown mode of the heavy
// queries and the shape of the small table.
type mixedCase struct {
	name      string
	heavyMode string
	small     workload.Config
}

var mixedCases = []mixedCase{
	// The heavy queries read whole objects with GETs, so none of their row
	// groups enters the node's scan pool, and the small table is one row
	// group, read inline: this case measures engine admission and CPU
	// contention.
	{"none", "none", workload.Config{Files: 1, RowsPerFile: 512, Seed: 12, Codec: compress.None}},
	// The heavy queries push their filter, so every one of their row
	// groups takes a slot of the node's scan pool, and so does each of the
	// small table's four: this case measures how long a small scan waits
	// behind heavy ones for the pool.
	{"filter", "filter", workload.Config{Files: 1, RowsPerFile: 1024, RowGroupSize: 256, Seed: 12, Codec: compress.None}},
}

// mixedCluster stands up the mixed-traffic topology: admission bounded
// well above the load (so nothing sheds), the default scan pool of the
// node, which heavy and small queries share.
func mixedCluster(t testing.TB, mc mixedCase) (*Cluster, *workload.Dataset, *workload.Dataset) {
	t.Helper()
	c, err := StartClusterWith(1, Config{
		Telemetry: true,
		Admission: engine.AdmissionConfig{MaxConcurrent: 16, MaxQueued: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// Small row groups keep a pool slot's hold short: a small query's row
	// group never waits behind a multi-thousand-row read.
	heavy, err := workload.Laghos(workload.Config{Files: 8, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	small, err := workload.DeepWater(mc.small)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(heavy); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(small); err != nil {
		t.Fatal(err)
	}
	return c, heavy, small
}

// submitWait runs one query through the handle API and returns its wall
// time.
func submitWait(t testing.TB, c *Cluster, sql, mode string, opts ...engine.SubmitOption) time.Duration {
	t.Helper()
	session := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
	opts = append(opts, engine.WithSession(session))
	start := time.Now()
	q, err := c.Engine.Submit(context.Background(), sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Result(); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// mixedTrafficSmallLatencies drives 4 heavy scans, in the case's pushdown
// mode, and the small selective queries concurrently and returns the
// small queries' latencies.
func mixedTrafficSmallLatencies(t testing.TB, c *Cluster, heavyMode string, heavy, small *workload.Dataset) []time.Duration {
	t.Helper()
	const heavyQueries = 4
	var wg sync.WaitGroup
	for i := 0; i < heavyQueries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			submitWait(t, c, heavy.Query, heavyMode)
		}()
	}
	lat := smallLatencies(t, c, small)
	wg.Wait()
	return lat
}

// contendedSmallLatencies is the CPU-contention baseline: the same small
// queries while GOMAXPROCS goroutines spin, with no heavy scan, so every
// query pays the run-queue depth and nothing else.
func contendedSmallLatencies(t testing.TB, c *Cluster, small *workload.Dataset) []time.Duration {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
			}
		}()
	}
	lat := smallLatencies(t, c, small)
	stop.Store(true)
	wg.Wait()
	return lat
}

// smallLatencies runs 64 small selective queries on 4 workers and
// returns their latencies.
func smallLatencies(t testing.TB, c *Cluster, small *workload.Dataset) []time.Duration {
	t.Helper()
	const (
		smallQueries = 64
		smallWorkers = 4
	)
	latencies := make([]time.Duration, smallQueries)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < smallWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < smallQueries; i = int(next.Add(1) - 1) {
				latencies[i] = submitWait(t, c, small.Query, "all")
			}
		}()
	}
	wg.Wait()
	return latencies
}

// TestMixedTrafficNoStarvation: 4 heavy queries must not starve 64 small
// selective ones. The small-query p99 under load must stay within 3x its
// solo p99 or within starvationRatio x its p99 under pure CPU contention.
// One remeasure is allowed to absorb scheduler noise on loaded CI
// machines. Each of mixedCases runs on a cluster of its own: in "none"
// no row group enters the node's scan pool, in "filter" the heavy and the
// small queries' row groups all queue for it.
func TestMixedTrafficNoStarvation(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-traffic load test")
	}
	for _, mc := range mixedCases {
		t.Run(mc.name, func(t *testing.T) { noStarvation(t, mc) })
	}
}

func noStarvation(t *testing.T, mc mixedCase) {
	c, heavy, small := mixedCluster(t, mc)

	// Solo baseline: the small query alone on an idle cluster.
	var solo []time.Duration
	for i := 0; i < 8; i++ {
		solo = append(solo, submitWait(t, c, small.Query, "all"))
	}
	soloP99 := percentile(solo, 0.99)

	// On a machine with a couple of cores the heavy queries' work
	// saturates the CPU outright, and every query — however fairly
	// scheduled — inflates by the run-queue depth; that is CPU
	// contention, not starvation. The contention baseline measures that
	// inflation on this machine, under this build (-race included),
	// instead of assuming a wall-clock constant. Starvation under the old
	// per-query pools, whose scans queued whole objects, showed up as
	// multi-second tails, well above it.
	const starvationRatio = 4
	for attempt := 0; ; attempt++ {
		contended := contendedSmallLatencies(t, c, small)
		contendedP99 := percentile(contended, 0.99)
		lat := mixedTrafficSmallLatencies(t, c, mc.heavyMode, heavy, small)
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		t.Logf("small query latency: solo p50 %v p99 %v; contended p50 %v p99 %v; mixed p50 %v p99 %v",
			percentile(solo, 0.50), soloP99, percentile(contended, 0.50), contendedP99, p50, p99)
		if p99 <= 3*soloP99 || p99 <= starvationRatio*contendedP99 {
			return
		}
		if attempt >= 1 {
			t.Fatalf("small-query p99 %v exceeds 3x solo p99 %v and %dx contended p99 %v under mixed traffic",
				p99, soloP99, starvationRatio, contendedP99)
		}
		t.Logf("p99 ratio above bound, remeasuring once")
	}
}

// BenchmarkMixedTraffic reports the mixed-traffic latency profile of each
// of mixedCases: small-query p50/p99 while 4 heavy scans run
// concurrently, as custom metrics alongside ns/op.
func BenchmarkMixedTraffic(b *testing.B) {
	for _, mc := range mixedCases {
		b.Run(mc.name, func(b *testing.B) {
			c, heavy, small := mixedCluster(b, mc)
			b.ResetTimer()
			var all []time.Duration
			for i := 0; i < b.N; i++ {
				all = append(all, mixedTrafficSmallLatencies(b, c, mc.heavyMode, heavy, small)...)
			}
			b.ReportMetric(float64(percentile(all, 0.50).Microseconds())/1000, "small-p50-ms")
			b.ReportMetric(float64(percentile(all, 0.99).Microseconds())/1000, "small-p99-ms")
		})
	}
}
