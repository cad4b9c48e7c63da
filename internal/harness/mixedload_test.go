package harness

import (
	"context"
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

// mixedCase is one mixed-traffic scenario: the pushdown mode and the
// shape of the heavy table, and the shape of the small one. Heavy row
// groups are small, so a pool slot's hold is short: a small query's row
// group never waits behind a multi-thousand-row read.
type mixedCase struct {
	name      string
	heavyMode string
	heavy     workload.Config
	small     workload.Config
}

var mixedCases = []mixedCase{
	// The heavy queries read whole objects with GETs, so none of their row
	// groups enters the node's scan pool; the small table's one row group
	// takes a slot of a pool nothing else holds: this case measures engine
	// admission and CPU contention.
	{"none", "none",
		workload.Config{Files: 8, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None},
		workload.Config{Files: 1, RowsPerFile: 512, Seed: 12, Codec: compress.None}},
	// The heavy queries push their filter, so every one of their row
	// groups takes a slot of the node's scan pool, and so does each of the
	// small table's four: this case measures how long a small scan waits
	// behind heavy ones for the pool. Each heavy query is one object of
	// 128 row groups, so a scan that held its slot for a whole object would
	// hold it for most of a heavy query.
	{"filter", "filter",
		workload.Config{Files: 1, RowsPerFile: 65536, RowGroupSize: 512, Seed: 11, Codec: compress.None},
		workload.Config{Files: 1, RowsPerFile: 1024, RowGroupSize: 256, Seed: 12, Codec: compress.None}},
}

// mixedCluster stands up the mixed-traffic topology: admission bounded
// well above the load (so nothing sheds), the default scan pool of the
// node, which heavy and small queries share.
func mixedCluster(t testing.TB, mc mixedCase) (*Cluster, *workload.Dataset, *workload.Dataset) {
	t.Helper()
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Engine.SetAdmission(engine.AdmissionConfig{MaxConcurrent: 16, MaxQueued: 256})
	heavy, err := workload.Laghos(mc.heavy)
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

// mixedTraffic drives 4 heavy scans, in the case's pushdown mode, and the
// small selective queries concurrently and returns the small queries'
// latencies and the heavy ones'.
func mixedTraffic(t testing.TB, c *Cluster, heavyMode string, heavy, small *workload.Dataset) (smallLat, heavyLat []time.Duration) {
	t.Helper()
	const heavyQueries = 4
	heavyLat = make([]time.Duration, heavyQueries)
	var wg sync.WaitGroup
	for i := range heavyLat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heavyLat[i] = submitWait(t, c, heavy.Query, heavyMode)
		}()
	}
	smallLat = smallLatencies(t, c, small)
	wg.Wait()
	return smallLat, heavyLat
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
// selective ones. A small query that waited behind whole heavy objects in
// the scan pool, or behind whole heavy queries at admission, would take
// about as long as a heavy query; so the small-query p99 must stay under
// starvationShare of the heavy queries' median latency, both measured in
// the same run, which scales the bound with the machine and the build
// (-race included). One remeasure is allowed to absorb scheduler noise on
// loaded CI machines. Each of mixedCases runs on a cluster of its own: in
// "none" no heavy row group enters the node's scan pool, in "filter" the
// heavy and the small queries' row groups all queue for it.
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

	// Solo baseline, and warm-up: the small query alone on an idle cluster.
	var solo []time.Duration
	for i := 0; i < 8; i++ {
		solo = append(solo, submitWait(t, c, small.Query, "all"))
	}

	// On a machine with a couple of cores the heavy queries saturate the
	// CPU, and every small query, however fairly scheduled, inflates by
	// the run-queue depth: that is CPU contention, not starvation. On 2
	// cores the small p99 stayed under 0.6 of the heavy median in both
	// cases, plain and under -race; with each heavy scan holding its pool
	// slot for its whole object, the "filter" case's was above 0.7.
	const starvationShare = 2.0 / 3
	for attempt := 0; ; attempt++ {
		lat, heavyLat := mixedTraffic(t, c, mc.heavyMode, heavy, small)
		p50, p99, heavyP50 := percentile(lat, 0.50), percentile(lat, 0.99), percentile(heavyLat, 0.50)
		t.Logf("small query latency: solo p50 %v; mixed p50 %v p99 %v; heavy query p50 %v (p99 share %.2f)",
			percentile(solo, 0.50), p50, p99, heavyP50, float64(p99)/float64(heavyP50))
		if float64(p99) <= starvationShare*float64(heavyP50) {
			return
		}
		if attempt >= 1 {
			t.Fatalf("small-query p99 %v exceeds %.2f of the heavy-query p50 %v under mixed traffic",
				p99, starvationShare, heavyP50)
		}
		t.Logf("p99 above bound, remeasuring once")
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
				lat, _ := mixedTraffic(b, c, mc.heavyMode, heavy, small)
				all = append(all, lat...)
			}
			b.ReportMetric(float64(percentile(all, 0.50).Microseconds())/1000, "small-p50-ms")
			b.ReportMetric(float64(percentile(all, 0.99).Microseconds())/1000, "small-p99-ms")
		})
	}
}
