package ocsserver

import (
	"context"
	"io"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/parquetlite"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// bigMeshObject writes rows of the mesh schema in 64-row groups: enough
// chunks that a full scan far exceeds any small credit window.
func bigMeshObject(t *testing.T, rows int) []byte {
	t.Helper()
	p := column.NewPage(meshSchema())
	for i := 0; i < rows; i++ {
		p.AppendRow(
			types.IntValue(int64(i%10)),
			types.FloatValue(float64(i)/100),
			types.FloatValue(float64(i)),
		)
	}
	data, err := parquetlite.WritePages(meshSchema(), parquetlite.WriterOptions{Codec: compress.None, RowGroupSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// windowedCluster starts a one-node cluster with a shared registry and a
// small credit window, so backpressure effects are observable.
func windowedCluster(t *testing.T, window int) (*Cluster, *Client, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cluster, err := StartClusterWith(1, ClusterConfig{Metrics: reg, ScanPool: 2, StreamWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cluster.Addr, WithMetrics(reg))
	t.Cleanup(func() {
		cli.Close()
		cluster.Shutdown()
	})
	return cluster, cli, reg
}

// TestSlowClientBoundedNodeMemory holds a stream open without reading and
// checks the credit window caps in-flight chunks end to end: the node
// stalls after its window, the frontend after its own, and the scan does
// not run ahead of either — node memory stays bounded by the window, not
// by the result size.
func TestSlowClientBoundedNodeMemory(t *testing.T) {
	const window = 2
	_, cli, reg := windowedCluster(t, window)
	if err := cli.Put(context.Background(), "b", "o", bigMeshObject(t, 4096)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	// Stop reading. Give producers time to run as far as credits allow.
	time.Sleep(300 * time.Millisecond)
	// Two server-side streams share the registry (node->frontend and
	// frontend->client): each may hold up to its window unacked.
	if got := reg.GaugeValue(telemetry.MetricRPCStreamInflight); got > 2*window {
		t.Errorf("inflight chunks while stalled = %d, want <= %d", got, 2*window)
	}
	if reg.CounterValue(telemetry.MetricRPCStreamStalls) == 0 {
		t.Error("producers never stalled despite a stopped reader")
	}
	rows := 64 // first page already consumed
	for {
		p, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += p.NumRows()
	}
	if rows != 4096 {
		t.Errorf("rows after resume = %d, want 4096", rows)
	}
	waitGaugeZero(t, reg, telemetry.MetricRPCStreamInflight)
}

// TestKilledClientMidStreamReleasesScanSlots kills the application
// connection after one chunk and checks the whole chain unwinds: the
// frontend's producer dies on the broken pipe, the node's stream is torn
// down, its queued row groups leave the node's scan pool, and the next
// query runs normally.
func TestKilledClientMidStreamReleasesScanSlots(t *testing.T) {
	_, cli, reg := windowedCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", bigMeshObject(t, 4096)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	rs.Close() // kill the stream with thousands of rows unread

	waitGaugeZero(t, reg, telemetry.MetricRPCStreamInflight)
	waitGaugeZero(t, reg, telemetry.MetricScanPoolQueued)
	waitGaugeZero(t, reg, telemetry.MetricScanPoolActive)

	// The node must serve the next query from its (still shared) pool
	// without leftover tasks in the way.
	res, err := drain(context.Background(), cli, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total == 0 {
		t.Error("follow-up query returned no rows")
	}
}

func waitGaugeZero(t *testing.T, reg *telemetry.Registry, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.GaugeValue(name) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gauge %s stuck at %d", name, reg.GaugeValue(name))
}
