package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/faultnet"
	"prestocs/internal/ocsserver"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// killableCluster starts a one-node cluster behind a fault proxy, with
// small stream chunks and a one-chunk credit window: each chunk costs a
// full credit round trip, so the proxy forwards the schema and the first
// chunks individually, and a kill armed once the client holds a page
// severs the connection mid-stream — the resume path, not the open-retry
// path a kill at open would take.
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
	return clusterAround(t, ocsCluster, proxy.Addr(), ocsserver.WithChunkRows(512)), proxy
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

// readSplit opens one split through the connector's page source and
// returns column 0 of every row it delivers, in order, and the split's
// fallback count. With kill set, the connection under the stream is
// severed once the first page is in hand.
func readSplit(t *testing.T, c *Cluster, proxy *faultnet.Proxy, h *ocsconn.Handle, split engine.Split, kill bool) ([]string, int64) {
	t.Helper()
	var stats engine.ScanStats
	src, err := c.OCSConn.CreatePageSource(context.Background(), h, split, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close(src)
	var rows []string
	for page := 0; ; page++ {
		if kill && page == 1 {
			proxy.KillOnce(1)
		}
		p, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return rows, stats.Snapshot().FallbackSplits
		}
		rows = collectColumn(t, p, rows)
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

	// A fresh cluster, with the kill armed before any query so that no
	// pooled connection is already past the threshold (the proxy counts
	// response bytes from birth).
	d = smallLaghos(t, compress.None)
	c, proxy = killableCluster(t)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	selective := `SELECT vertex_id, e FROM laghos WHERE x < 1.5`
	auto := engine.NewSession().
		Set(ocsconn.SessionPushdown, "auto").
		Set(ocsconn.SessionSelectivityThreshold, "0")
	proxy.KillOnce(16384)
	cell, err := c.Run("killed", selective, auto)
	if err != nil {
		t.Fatalf("auto query with killed connection = %v", err)
	}
	baseline, err := c.Run("baseline", selective, engine.NewSession().Set(ocsconn.SessionPushdown, "never"))
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed connections = %d, want 1", proxy.Killed())
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
	if len(cell.Pushed) == 0 {
		t.Errorf("auto planned no pushdown for a selective filter")
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
		src, err := c.OCSConn.CreatePageSource(ctx, laghosFilterHandle(t, c, 9), split, &stats)
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
		page, err := src.Next()
		if err != nil || page == nil {
			t.Fatalf("%s: first page = %v, %v", end, page, err)
		}
		if got := finished(); got != i {
			t.Fatalf("%s: replay span finished mid-stream", end)
		}
		if end == "exhaust" {
			for page != nil {
				if page, err = src.Next(); err != nil {
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
