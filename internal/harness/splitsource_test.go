package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/faultnet"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/workload"
)

// splitRun is one worker's share of a pushdown scan, opened on a fresh
// client so that every connection it uses is its own.
type splitRun struct {
	t      *testing.T
	cli    *ocsserver.Client
	reg    *telemetry.Registry
	stats  engine.ScanStats
	srcs   []exec.Operator
	cancel context.CancelFunc
}

func openRun(t *testing.T, c *Cluster, addr string, h *ocsconn.Handle, splits []engine.Split) *splitRun {
	t.Helper()
	reg := telemetry.NewRegistry()
	r := &splitRun{t: t, cli: ocsserver.NewClient(addr, ocsserver.WithMetrics(reg)), reg: reg}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	t.Cleanup(func() {
		cancel()
		r.cli.Close()
	})
	srcs, err := ocsconn.New(CatalogOCS, c.Meta, r.cli).CreatePageSources(ctx, h, splits, &r.stats)
	if err != nil {
		t.Fatal(err)
	}
	r.srcs = srcs
	return r
}

// read returns the rows of split k's next n pages, or of all its pages
// to its end when n < 0, rendered whole.
func (r *splitRun) read(k, n int) []string {
	r.t.Helper()
	var rows []string
	for ; n != 0; n-- {
		p, sel, err := r.srcs[k].Next()
		if err != nil {
			r.t.Fatalf("split %d: %v", k, err)
		}
		if p == nil {
			if n > 0 {
				r.t.Fatalf("split %d ended %d pages early", k, n)
			}
			break
		}
		p = p.Keep(sel)
		rows = appendRows(rows, p)
	}
	return rows
}

// streams counts the ocs.Execute requests the run's client opened.
func (r *splitRun) streams() int64 {
	return r.reg.HistogramCount(telemetry.MetricRPCClientLatency, "method", ocsserver.MethodExecute)
}

func appendRows(dst []string, p *column.Page) []string {
	for i := 0; i < p.NumRows(); i++ {
		dst = append(dst, fmt.Sprint(p.Row(i)))
	}
	return dst
}

// waitFor polls ok for up to five seconds and fails the test with what,
// and every goroutine's stack, if it never holds.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			t.Fatalf("%s, 5s on:\n%s", what, stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEverySplitExitLeaksNothingAfterCloseCancelOrKill ends a two-object
// pushdown share in each way a split can end early: a split closed before
// it started, one closed mid-object whose rest is drained, one closed
// mid-object whose rest is too long to drain, a cancelled query, and a
// connection killed mid-object. Each time the splits that go on return
// the unfaulted rows over the expected number of requests, and once every
// source is closed no stream holds a client connection, and closing the
// client brings the goroutines back to their count before the run: no
// result stream, relay, node handler or replay scan is left behind. The
// count is taken less one goroutine (the node's reader) per connection
// idle in the frontend's pool of node connections, which a run may shrink
// or refill.
func TestEverySplitExitLeaksNothingAfterCloseCancelOrKill(t *testing.T) {
	// 64 row groups an object, one page each: after one page, more chunks
	// are left than Close's drain budget of 32.
	d, err := workload.Laghos(workload.Config{Files: 2, RowsPerFile: 32768, RowGroupSize: 512, Seed: 5, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t)
	// The cluster's registry holds the gauge of the frontend's idle node
	// connections; no application client reports into it.
	reg := telemetry.NewRegistry()
	ocsCluster, err := ocsserver.StartClusterWith(1, ocsserver.ClusterConfig{StreamWindow: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(ocsCluster.Addr)
	if err != nil {
		ocsCluster.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	c := clusterAround(t, ocsCluster, ocsCluster.Addr)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	h := laghosFilterHandle(t, c, 9)
	splits := []engine.Split{{Object: d.Table.Objects[0], Index: 0}, {Object: d.Table.Objects[1], Index: 1}}
	// The unfaulted read: each object's rows, and the first object's page
	// count.
	ref := openRun(t, c, proxy.Addr(), h, splits)
	want := [2][]string{ref.read(0, -1), ref.read(1, -1)}
	pages0 := len(want[0]) / 512
	ref.cli.Close()
	goroutines := func() int {
		return runtime.NumGoroutine() - int(reg.GaugeValue(telemetry.MetricRPCPoolIdle))
	}

	for _, tc := range []struct {
		name               string
		streams, fallbacks int64
		run                func(t *testing.T, r *splitRun)
	}{
		// Object 1's slice of the stream is never read: closing its
		// unstarted source abandons the stream.
		{"close-before-start", 1, 0, func(t *testing.T, r *splitRun) {
			assertRowsEqual(t, "object 0", r.read(0, -1), want[0])
			exec.Close(r.srcs[0])
			exec.Close(r.srcs[1])
		}},
		// Only object 0's end chunk is left: Close drains it, and object 1
		// rides the same stream.
		{"early-close-drained", 1, 0, func(t *testing.T, r *splitRun) {
			assertRowsEqual(t, "object 0", r.read(0, pages0), want[0])
			exec.Close(r.srcs[0])
			assertRowsEqual(t, "object 1 after a drained close", r.read(1, -1), want[1])
		}},
		// 63 chunks are left: Close abandons the stream, and object 1
		// reopens a request.
		{"early-close-abandoned", 2, 0, func(t *testing.T, r *splitRun) {
			r.read(0, 1)
			exec.Close(r.srcs[0])
			assertRowsEqual(t, "object 1 after an abandoned drain", r.read(1, -1), want[1])
		}},
		// The cancelled split fails with the query's error, not a
		// fallback, and so does the next split's start; both then report
		// their end.
		{"cancelled-context", 1, 0, func(t *testing.T, r *splitRun) {
			r.read(0, 1)
			r.cancel()
			for {
				p, _, err := r.srcs[0].Next()
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("split 0 after cancel: %v", err)
					}
					break
				}
				if p == nil {
					t.Fatal("split 0 ended without the cancellation")
				}
			}
			if _, _, err := r.srcs[1].Next(); !errors.Is(err, context.Canceled) {
				t.Fatalf("split 1 started after cancel: %v", err)
			}
			for k := range r.srcs {
				if p, _, err := r.srcs[k].Next(); p != nil || err != nil {
					t.Fatalf("split %d after its failure = %v, %v; want its end", k, p, err)
				}
			}
		}},
		// Object 0 resumes on its replay; object 1 reopens a request.
		{"mid-stream-kill", 2, 1, func(t *testing.T, r *splitRun) {
			got := r.read(0, 1)
			proxy.KillOnce(1)
			assertRowsEqual(t, "object 0 resumed", append(got, r.read(0, -1)...), want[0])
			assertRowsEqual(t, "object 1", r.read(1, -1), want[1])
			if proxy.Killed() == 0 {
				t.Fatal("the kill never fired")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			waitFor(t, "connections of an earlier run still open", func() bool { return proxy.ActiveConns() == 0 })
			before := goroutines()
			r := openRun(t, c, proxy.Addr(), h, splits)
			tc.run(t, r)
			for _, src := range r.srcs {
				exec.Close(src)
			}
			if got := r.streams(); got != tc.streams {
				t.Errorf("ocs.Execute streams = %d, want %d", got, tc.streams)
			}
			if got := r.stats.Snapshot().FallbackSplits; got != tc.fallbacks {
				t.Errorf("fallback splits = %d, want %d", got, tc.fallbacks)
			}
			// Every connection still open is idle in a pool: no stream
			// holds one.
			waitFor(t, "a closed source still holds a connection", func() bool {
				return proxy.ActiveConns() == r.cli.IdleConns()
			})
			r.cli.Close()
			waitFor(t, fmt.Sprintf("goroutines not back to %d", before), func() bool {
				return goroutines() <= before
			})
		})
	}
}

// TestKilledStreamWithoutReplayFailsTheSplit kills a pushdown stream
// mid-object after the object was deleted: the fallback's GET finds
// nothing, so the split fails with both the stream's error and the
// replay's, counts no fallback, and then reports its end.
func TestKilledStreamWithoutReplayFailsTheSplit(t *testing.T) {
	d, err := workload.Laghos(workload.Config{Files: 1, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	c, proxy := killableCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	var stats engine.ScanStats
	src, err := openSplit(context.Background(), c, laghosFilterHandle(t, c, 9), split, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close(src)
	if p, _, err := src.Next(); p == nil || err != nil {
		t.Fatalf("first page = %v, %v", p, err)
	}
	c.OCS.Nodes[0].Store().Delete(d.Table.Bucket, split.Object)
	proxy.KillOnce(1)
	for {
		p, _, err := src.Next()
		if err != nil {
			if !errors.Is(err, rpc.ErrUnavailable) || !errors.Is(err, rpc.ErrNotFound) {
				t.Errorf("split error = %v; want the kill and the missing object", err)
			}
			break
		}
		if p == nil {
			t.Fatal("split ended without an error")
		}
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed connections = %d, want 1", proxy.Killed())
	}
	if got := stats.Snapshot().FallbackSplits; got != 0 {
		t.Errorf("fallback splits = %d, want 0", got)
	}
	if p, _, err := src.Next(); p != nil || err != nil {
		t.Errorf("split after its failure = %v, %v; want its end", p, err)
	}
}

// TestKilledStreamResumesMidPage serves a split from a frontend that cuts
// each of the node's pages in two, as one that bounds its Arrow batches
// would, and dies after the first half of the first page. The replay cuts
// its pages at row groups, so its first page begins with the rows already
// delivered: it skips them mid-page, and the split returns the unfaulted
// rows, with one fallback.
func TestKilledStreamResumesMidPage(t *testing.T) {
	d, err := workload.Laghos(workload.Config{Files: 1, RowsPerFile: 4096, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	h := laghosFilterHandle(t, c, 9)
	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	want := openRun(t, c, c.OCS.Addr, h, []engine.Split{split}).read(0, -1)

	store := c.OCS.Nodes[0].Store()
	srv := rpc.NewServer()
	objstore.Mount(srv, store, nil)
	srv.RegisterStream(ocsserver.MethodExecute, func(_ context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
		plan, _, err := substrait.Decode(payload)
		if err != nil {
			return nil, err
		}
		ls, err := ocsserver.ExecuteLocalStream(store, plan, split.Object, 0)
		if err != nil {
			return nil, err
		}
		defer ls.Close()
		page, sel, err := ls.Next()
		if page == nil || err != nil {
			return nil, fmt.Errorf("stub: first page = %v, %v", page, err)
		}
		page = page.Keep(sel)
		msg, err := arrowlite.AppendBatch(nil, page.Slice(0, page.NumRows()/2))
		if err != nil {
			return nil, err
		}
		if err := send(msg); err != nil {
			return nil, err
		}
		return nil, rpc.WithCode(errors.New("stub: node lost mid-page"), rpc.CodeUnavailable)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	r := openRun(t, c, addr, h, []engine.Split{split})
	half := r.read(0, 1)
	if len(half) == 0 || len(half) >= len(want) {
		t.Fatalf("the stub's first page holds %d of %d rows", len(half), len(want))
	}
	assertRowsEqual(t, "resumed mid-page", append(half, r.read(0, -1)...), want)
	if got := r.stats.Snapshot().FallbackSplits; got != 1 {
		t.Errorf("fallback splits = %d, want 1", got)
	}
}

// TestGroupedShareRunFaultFallsBackPerObject reads a two-object share
// whose objects sit on different storage nodes, so the frontend forwards
// it as two runs, and the second node's execute path is down: the second
// run fails before its first chunk, after the first run's object arrived
// whole. The frontend calls each node once and the client does not retry
// a request that already delivered chunks, so the second object alone is
// replayed — the share returns the unfaulted rows, with one fallback.
func TestGroupedShareRunFaultFallsBackPerObject(t *testing.T) {
	d, err := workload.Laghos(workload.Config{Files: 4, RowsPerFile: 2048, RowGroupSize: 512, Seed: 13, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartClusterWith(2, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// The first object on node 0, then the first on node 1.
	var splits []engine.Split
	for n, node := range c.OCS.Nodes {
		for i, o := range d.Table.Objects {
			if _, err := node.Store().Get(d.Table.Bucket, o); err == nil {
				splits = append(splits, engine.Split{Object: o, Index: i})
				break
			}
		}
		if len(splits) != n+1 {
			t.Fatalf("no object of the table is on node %d", n)
		}
	}
	h := laghosFilterHandle(t, c, 9)
	ref := openRun(t, c, c.OCS.Addr, h, splits)
	want := [2][]string{ref.read(0, -1), ref.read(1, -1)}
	if len(want[0]) == 0 || len(want[1]) == 0 {
		t.Fatalf("unfaulted objects return %d and %d rows", len(want[0]), len(want[1]))
	}
	nodeCalls := func() int64 {
		return c.Metrics.HistogramCount(telemetry.MetricRPCClientLatency, "method", ocsserver.NodeMethodExecute)
	}

	c.OCS.Nodes[1].SetExecuteFault(errors.New("compute unit offline"))
	calls := nodeCalls()
	r := openRun(t, c, c.OCS.Addr, h, splits)
	assertRowsEqual(t, "object on node 0", r.read(0, -1), want[0])
	assertRowsEqual(t, "object on node 1, replayed", r.read(1, -1), want[1])
	if got := r.streams(); got != 1 {
		t.Errorf("ocs.Execute streams = %d, want 1", got)
	}
	if got := nodeCalls() - calls; got != 2 {
		t.Errorf("node execute calls = %d, want one per run (2)", got)
	}
	if got := r.stats.Snapshot().FallbackSplits; got != 1 {
		t.Errorf("fallback splits = %d, want 1", got)
	}
}
