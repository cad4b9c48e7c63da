package harness

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/faultnet"
	"prestocs/internal/ocsserver"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// killableCluster starts a one-node cluster behind a fault proxy, with a
// one-chunk credit window: each chunk (one row group) costs a full credit
// round trip, so the proxy forwards the schema and the first chunks
// individually, and a kill armed once the client holds a page severs the
// connection mid-stream — the resume path, not the open-retry path a kill
// at open would take.
func killableCluster(t *testing.T) (*Cluster, *faultnet.Proxy) {
	t.Helper()
	checkGoroutines(t)
	ocsCluster, err := ocsserver.StartClusterWith(1, ocsserver.ClusterConfig{StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(ocsCluster.Addr)
	if err != nil {
		ocsCluster.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return clusterAround(t, ocsCluster, proxy.Addr()), proxy
}

// laghosFilterHandle builds a filter-pushdown handle over the loaded
// laghos table: `x < cut` over the full schema.
func laghosFilterHandle(t *testing.T, c *Cluster, cut float64) *ocsconn.Handle {
	t.Helper()
	th, err := c.OCSConn.TableHandle(CatalogOCS, "laghos")
	if err != nil {
		t.Fatal(err)
	}
	h := th.(*ocsconn.Handle)
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(cut)))
	if err != nil {
		t.Fatal(err)
	}
	h.Push = &ocsconn.Pushdown{Filter: cmp}
	return h
}

// openSplit opens one split through the connector, as a one-split share
// of a scan.
func openSplit(ctx context.Context, c *Cluster, h *ocsconn.Handle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	srcs, err := c.OCSConn.CreatePageSources(ctx, h, []engine.Split{split}, stats)
	if err != nil {
		return nil, err
	}
	return srcs[0], nil
}

// readSplit opens one split through the connector's page source and
// returns column 0 of every row it delivers, in order, and the split's
// fallback count. With kill set, the connection under the stream is
// severed once the first page is in hand.
func readSplit(t *testing.T, c *Cluster, proxy *faultnet.Proxy, h *ocsconn.Handle, split engine.Split, kill bool) ([]string, int64) {
	t.Helper()
	var stats engine.ScanStats
	src, err := openSplit(context.Background(), c, h, split, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close(src)
	var rows []string
	for page := 0; ; page++ {
		if kill && page == 1 {
			proxy.KillOnce(1)
		}
		p, sel, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return rows, stats.Snapshot().FallbackSplits
		}
		rows = collectColumn(t, p.Keep(sel), rows)
	}
}

// requireResumed checks a killed stream against the unfaulted one: the
// replay skipped the delivered prefix exactly once, so the two sequences
// are equal row for row, and the split counts as one fallback.
func requireResumed(t *testing.T, proxy *faultnet.Proxy, got, want []string, fallbacks int64) {
	t.Helper()
	if proxy.Killed() != 1 {
		t.Fatalf("killed connections = %d, want 1", proxy.Killed())
	}
	if fallbacks != 1 {
		t.Errorf("fallback splits = %d, want 1", fallbacks)
	}
	if len(got) != len(want) {
		t.Fatalf("killed stream delivered %d rows, unfaulted stream %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: killed stream = %s, unfaulted stream = %s", i, got[i], want[i])
		}
	}
}

// TestKilledPushdownStreamResumesOnReplay exercises the mid-stream resume
// at two levels. One split: a pushdown stream severed after its first page
// resumes on the local replay, which skips the delivered prefix and yields
// exactly the unfaulted stream's row sequence. One query: an auto-mode
// query whose connection dies mid-stream still returns the raw path's
// rows, through a fallback replay.
func TestKilledPushdownStreamResumesOnReplay(t *testing.T) {
	// Many small row groups: the split streams as many chunks, so the kill
	// lands strictly mid-stream.
	d, err := workload.Laghos(workload.Config{Files: 2, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	c, proxy := killableCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	h := laghosFilterHandle(t, c, 9) // keeps every row: the longest stream
	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	want, _ := readSplit(t, c, proxy, h, split, false)
	got, fallbacks := readSplit(t, c, proxy, h, split, true)
	requireResumed(t, proxy, got, want, fallbacks)

	// The query's kill is placed by a measured unfaulted run: half the
	// mean ocs.Execute stream, in response bytes. The client retries a
	// request until its first chunk, so the kill must land after it and
	// before the stream's end; with small row groups (one chunk each) a
	// first chunk is a sixteenth of an object.
	d, err = workload.Laghos(workload.Config{Files: 4, RowsPerFile: 8192, RowGroupSize: 512, Seed: 11, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	selective := `SELECT vertex_id, e FROM laghos WHERE x < 1.5`
	auto := engine.NewSession().Set(ocsconn.SessionPushdown, "auto")
	c, _ = killableCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	meter := c.OCSCli.Meter()
	received, calls := meter.Received(), meter.Calls()
	unfaulted, err := c.Run("unfaulted", selective, auto)
	if err != nil {
		t.Fatal(err)
	}
	streams := meter.Calls() - calls
	if streams == 0 || unfaulted.Stats.Scan.Snapshot().FallbackSplits != 0 {
		t.Fatalf("unfaulted run: %d streams, %d fallbacks; want streams and no fallback", streams, unfaulted.Stats.Scan.Snapshot().FallbackSplits)
	}
	cut := (meter.Received() - received) / streams / 2
	t.Logf("%d streams, %d response bytes in all: kill at %d", streams, meter.Received()-received, cut)

	// A fresh cluster, with the kill armed before any query so that no
	// pooled connection is already past the cut (the proxy counts response
	// bytes from a connection's birth; Load's Put answers are a few bytes).
	c, proxy = killableCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	proxy.KillOnce(cut)
	cell, err := c.Run("killed", selective, auto)
	if err != nil {
		t.Fatalf("auto query with killed connection = %v", err)
	}
	baseline, err := c.Run("baseline", selective, engine.NewSession().Set(ocsconn.SessionPushdown, "none"))
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed connections = %d, want 1", proxy.Killed())
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
	if !slices.Contains(cell.Pushed, "filter") {
		t.Errorf("auto pushed %v for a selective filter, want the filter among them", cell.Pushed)
	}
	if cell.Stats.Scan.Snapshot().FallbackSplits == 0 {
		t.Errorf("killed connection produced no fallback replay")
	}
}

// TestReplaySpanCoversTheReplay pins the replay span's lifetime on the
// tracer ring: the replay streams lazily, so its span must still be open
// when the opener returns and be delivered exactly once when the stream
// is exhausted or closed — whichever comes first, however often. The
// replay is opened by a storage node that refuses every execution.
func TestReplaySpanCoversTheReplay(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	c.OCS.Nodes[0].SetExecuteFault(errors.New("compute unit offline"))
	tracer := telemetry.NewTracer(0)
	ctx := telemetry.WithTracer(context.Background(), tracer)
	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	finished := func() int {
		n := 0
		for _, sp := range tracer.Spans() {
			if sp.Name == "connector.fallback_scan" {
				if sp.Attrs["object"] != split.Object {
					t.Errorf("replay span attrs = %v", sp.Attrs)
				}
				n++
			}
		}
		return n
	}
	for i, end := range []string{"exhaust", "close"} {
		var stats engine.ScanStats
		src, err := openSplit(ctx, c, laghosFilterHandle(t, c, 9), split, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if n := stats.Snapshot().FallbackSplits; n != 1 {
			t.Fatalf("%s: fallback splits = %d, want 1", end, n)
		}
		closer := src.(interface{ Close() error })
		if got := finished(); got != i {
			t.Fatalf("%s: %d replay spans finished when the opener returned, want %d", end, got, i)
		}
		page, _, err := src.Next()
		if err != nil || page == nil {
			t.Fatalf("%s: first page = %v, %v", end, page, err)
		}
		if got := finished(); got != i {
			t.Fatalf("%s: replay span finished mid-stream", end)
		}
		if end == "exhaust" {
			for page != nil {
				if page, _, err = src.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}
		closer.Close()
		closer.Close()
		if got := finished(); got != i+1 {
			t.Fatalf("%s: %d replay spans finished after the stream ended, want %d", end, got, i+1)
		}
	}
}

// collectColumn appends page column 0 (vertex_id) to dst, rendered as
// strings for simple order-sensitive comparison.
func collectColumn(t *testing.T, page *column.Page, dst []string) []string {
	t.Helper()
	vec := page.Vectors[0]
	for i := 0; i < vec.Len(); i++ {
		dst = append(dst, fmt.Sprint(vec.Value(i)))
	}
	return dst
}

// groupedKillCase is one killed-connection scenario over a grouped
// stream: four objects in one ocs.Execute request, the connection severed
// after the response bytes that carry what keep reports true for.
type groupedKillCase struct {
	name string
	push func(t *testing.T, c *Cluster) *ocsconn.Handle
	// keep reports, before source k's (pages+1)-th Next, whether the
	// connection must still carry the next chunk; the first false arms
	// the kill at the bytes received so far.
	keep func(k, pages int) bool
}

// laghosAggHandle pushes a partial aggregate over laghos: count(*) and
// sum(x) per vertex_id, whose output order is the hash table's, not the
// scan's.
func laghosAggHandle(t *testing.T, c *Cluster) *ocsconn.Handle {
	t.Helper()
	th, err := c.OCSConn.TableHandle(CatalogOCS, "laghos")
	if err != nil {
		t.Fatal(err)
	}
	h := th.(*ocsconn.Handle)
	h.Push = &ocsconn.Pushdown{Agg: &ocsconn.AggSpec{Keys: []int{0}, Measures: []substrait.Measure{
		{Func: substrait.AggCountStar, Arg: -1, Name: "n"},
		{Func: substrait.AggSum, Arg: 1, Name: "sx"},
	}}}
	return h
}

// readGrouped opens splits as one worker's share on a fresh client (so
// its first ocs.Execute connection is born for this read) and reads the
// sources in order. It returns every row rendered whole, the fallback
// count, the ocs.Execute streams the client opened, and the ocs.Execute
// response bytes received when keep first reported false (-1 if never).
func readGrouped(t *testing.T, c *Cluster, addr string, h *ocsconn.Handle, splits []engine.Split, keep func(k, pages int) bool) ([]string, int64, int64, int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cli := ocsserver.NewClient(addr, ocsserver.WithMetrics(reg))
	defer cli.Close()
	conn := ocsconn.New(CatalogOCS, c.Meta, cli)
	var stats engine.ScanStats
	srcs, err := conn.CreatePageSources(context.Background(), h, splits, &stats)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	cut := int64(-1)
	for k, src := range srcs {
		for pages := 0; ; pages++ {
			if cut < 0 && !keep(k, pages) {
				cut = reg.CounterValue(telemetry.MetricRPCClientRecvBytes, "method", ocsserver.MethodExecute)
			}
			p, sel, err := src.Next()
			if err != nil {
				t.Fatalf("source %d: %v", k, err)
			}
			if p == nil {
				break
			}
			p = p.Keep(sel)
			for r := 0; r < p.NumRows(); r++ {
				rows = append(rows, fmt.Sprint(p.Row(r)))
			}
		}
		exec.Close(src)
	}
	return rows, stats.Snapshot().FallbackSplits, reg.HistogramCount(telemetry.MetricRPCClientLatency, "method", ocsserver.MethodExecute), cut
}

// TestKilledGroupedStreamReplaysOneObject severs a grouped stream — four
// objects in one ocs.Execute request — at an object boundary, mid-object
// under a filter-only (order-deterministic) pushdown, and mid-object under
// a pushed aggregate before any of the object's rows is delivered. Each
// time the object the break lands in replays locally (the one fallback),
// the objects after it ride one reopened request (two ocs.Execute streams
// in all), and the rows are those of the unfaulted read, byte for byte.
func TestKilledGroupedStreamReplaysOneObject(t *testing.T) {
	d, err := workload.Laghos(workload.Config{Files: 4, RowsPerFile: 2048, RowGroupSize: 512, Seed: 5, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	filter := func(t *testing.T, c *Cluster) *ocsconn.Handle { return laghosFilterHandle(t, c, 9) }
	for _, tc := range []groupedKillCase{
		// The break lands after object 0's end chunk, before object 1's
		// first batch.
		{"object-boundary", filter, func(k, _ int) bool { return k < 1 }},
		// Object 1 has delivered one page.
		{"mid-object-filter", filter, func(k, pages int) bool { return k < 1 || pages < 1 }},
		// Object 1's one partial-aggregate batch is lost.
		{"mid-object-aggregate", laghosAggHandle, func(k, _ int) bool { return k < 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, proxy := killableCluster(t)
			if err := c.Load(d); err != nil {
				t.Fatal(err)
			}
			h := tc.push(t, c)
			var splits []engine.Split
			for i, o := range d.Table.Objects {
				splits = append(splits, engine.Split{Object: o, Index: i})
			}
			want, fallbacks, streams, cut := readGrouped(t, c, proxy.Addr(), h, splits, tc.keep)
			if fallbacks != 0 || streams != 1 || cut <= 0 {
				t.Fatalf("unfaulted read: %d fallbacks, %d streams, cut at %d bytes; want 0, 1 and a cut", fallbacks, streams, cut)
			}
			// The proxy counts a connection's response bytes from its
			// birth, and a fresh client's first ocs.Execute connection
			// carries nothing else: the kill drops the first chunk past
			// the cut.
			proxy.KillOnce(cut + 1)
			got, fallbacks, streams, _ := readGrouped(t, c, proxy.Addr(), h, splits, func(int, int) bool { return true })
			if proxy.Killed() != 1 {
				t.Fatalf("killed connections = %d, want 1", proxy.Killed())
			}
			if fallbacks != 1 {
				t.Errorf("fallback splits = %d, want exactly the object the break landed in", fallbacks)
			}
			if streams != 2 {
				t.Errorf("ocs.Execute streams = %d, want the broken one and one reopened for the objects after the break", streams)
			}
			assertRowsEqual(t, tc.name, got, want)
		})
	}
}
