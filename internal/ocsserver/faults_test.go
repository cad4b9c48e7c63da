package ocsserver

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/compress"
	"prestocs/internal/faultnet"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// proxiedCluster stands up a one-node cluster with a fault proxy between
// the client and the frontend.
func proxiedCluster(t *testing.T, opts ...Option) (*Cluster, *faultnet.Proxy, *Client) {
	t.Helper()
	cluster, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(cluster.Addr)
	if err != nil {
		cluster.Shutdown()
		t.Fatal(err)
	}
	cli := NewClient(proxy.Addr(), opts...)
	t.Cleanup(func() {
		cli.Close()
		proxy.Close()
		cluster.Shutdown()
	})
	return cluster, proxy, cli
}

// TestExecuteRetriesThroughKilledConnection: a stream killed at open on
// a connection's first use is not the transport's to replay — the server
// may have seen the request — so the client's retry loop heals it: one
// retry, no redial.
func TestExecuteRetriesThroughKilledConnection(t *testing.T) {
	_, proxy, cli := proxiedCluster(t)
	ctx := context.Background()
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	// The Put pooled cli's connection; a fresh client opens the stream on
	// a first-use connection.
	reg := telemetry.NewRegistry()
	fresh := NewClient(proxy.Addr(), WithMetrics(reg))
	defer fresh.Close()
	// Arm a one-shot kill: the Execute's first response bytes sever the
	// connection before the first chunk lands, the retry dials fresh and
	// the disarmed proxy lets it through.
	proxy.KillOnce(1)
	res, err := drain(telemetry.WithRegistry(ctx, reg), fresh, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatalf("execute with one-shot kill = %v", err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("rows after retry = %d", total)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	if n := reg.CounterValue(telemetry.MetricRetryAttempts); n != 1 {
		t.Errorf("retry attempts = %d, want 1", n)
	}
	if n := reg.CounterValue(telemetry.MetricRPCPoolRedials); n != 0 {
		t.Errorf("pool redials = %d, want 0", n)
	}
}

// TestStreamRedialHealsPooledKill is the counterpart: on a pooled
// connection the transport itself redials once when the failure precedes
// any response bytes, so the request never reaches the retry loop.
func TestStreamRedialHealsPooledKill(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, proxy, cli := proxiedCluster(t, WithMetrics(reg))
	ctx := telemetry.WithRegistry(context.Background(), reg)
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	proxy.KillOnce(1)
	res, err := drain(ctx, cli, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatalf("execute over killed pooled conn = %v", err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("rows after redial = %d", total)
	}
	if n := reg.CounterValue(telemetry.MetricRPCPoolRedials); n != 1 {
		t.Errorf("pool redials = %d, want 1", n)
	}
	if n := reg.CounterValue(telemetry.MetricRetryAttempts); n != 0 {
		t.Errorf("retry attempts = %d, want 0", n)
	}
}

func TestCancelMidStreamReleasesConnection(t *testing.T) {
	// A node that emits two chunks then stalls until its context ends
	// pins the stream genuinely mid-flight, so the cancel cannot race a
	// fully buffered result.
	addr := fakeNode(t, func(ctx context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		send(batchMsg(t, 3))
		send(batchMsg(t, 3))
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cli := frontendFor(t, addr)
	qctx, cancel := context.WithCancel(context.Background())
	rs, err := cli.ExecuteStream(qctx, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = rs.Next()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Next kept succeeding after cancel")
		}
	}
	if err == io.EOF || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream error = %v", err)
	}
	rs.Close()
	if idle := cli.IdleConns(); idle != 0 {
		t.Errorf("cancelled stream pooled its connection, idle=%d", idle)
	}
}

// TestKilledClientMidScanLeaksNoGoroutines kills the client's connection
// while the node is still scanning: the frontend's relay, the node's
// handler and every row-group task of the abandoned scan must exit, so
// once a follow-up query has replaced the killed connections the
// process's goroutine count is back to what it was before the kill.
func TestKilledClientMidScanLeaksNoGoroutines(t *testing.T) {
	_, proxy, cli := proxiedCluster(t)
	ctx := context.Background()
	if err := cli.Put(ctx, "b", "o", bigMeshObject(t, 4096)); err != nil {
		t.Fatal(err)
	}
	plan := substrait.NewPlan(&substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()})
	// A whole query first, so the connections the next one uses exist.
	if _, err := drain(ctx, cli, plan); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	rs, err := cli.ExecuteStream(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	proxy.KillActive()
	rs.Close()
	// The kill closed the connections the baseline counted; a query that
	// completes dials their replacements.
	if _, err := drain(ctx, cli, plan); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 5s after the kill, %d before the query:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeadlineExceededThroughBlackhole(t *testing.T) {
	_, proxy, cli := proxiedCluster(t)
	ctx := context.Background()
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	proxy.SetBlackhole(true)
	qctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := drain(qctx, cli, filterPlan(t, "b", "o"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("black-holed execute error = %v", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("black-holed execute returned after %v", elapsed)
	}
	if idle := cli.IdleConns(); idle != 0 {
		t.Errorf("timed-out execute pooled its connection, idle=%d", idle)
	}
}

// TestExecuteFaultIsUnavailableButDataPathHealthy: a node whose execute
// path is down answers Unavailable, and is called once per attempt of the
// client's one retry loop — three calls for one ExecuteStream — while its
// object path still serves.
func TestExecuteFaultIsUnavailableButDataPathHealthy(t *testing.T) {
	cluster, cli := startCluster(t, 1)
	ctx := context.Background()
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	node := cluster.Nodes[0]
	var calls atomic.Int64
	node.rpc.RegisterStream(NodeMethodExecute, func(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
		calls.Add(1)
		return node.handleExecute(ctx, payload, send)
	})
	node.SetExecuteFault(errors.New("compute unit offline"))
	_, err := drain(ctx, cli, filterPlan(t, "b", "o"))
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("faulted execute error = %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("node execute calls = %d, want 3", n)
	}
	// The storage path is still healthy: the raw-scan fallback can GET.
	data, _, err := cli.Get(ctx, "b", "o")
	if err != nil || len(data) == 0 {
		t.Fatalf("Get during execute fault = %d bytes, %v", len(data), err)
	}
	// Clearing the fault restores pushdown.
	node.SetExecuteFault(nil)
	if _, err := drain(ctx, cli, filterPlan(t, "b", "o")); err != nil {
		t.Fatalf("execute after clearing fault = %v", err)
	}
}

// nodeBehindProxy starts one storage node behind a fault proxy and a
// frontend over the proxy, reporting into reg, and returns the proxy and
// a client of the frontend.
func nodeBehindProxy(t *testing.T, reg *telemetry.Registry) (*faultnet.Proxy, *Client) {
	t.Helper()
	node := NewStorageNode(0)
	nodeAddr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	proxy, err := faultnet.New(nodeAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	front, err := NewFrontend([]string{proxy.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	front.Metrics = reg
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	cli := NewClient(addr, WithMetrics(reg))
	t.Cleanup(func() { cli.Close() })
	return proxy, cli
}

// TestFrontendRetriesNodeStreamOpen: the frontend relays each call once,
// and its pooled node connection, killed before any chunk flows, is
// redialed by the transport — so the request succeeds without a retry.
func TestFrontendRetriesNodeStreamOpen(t *testing.T) {
	reg := telemetry.NewRegistry()
	proxy, cli := nodeBehindProxy(t, reg)
	ctx := telemetry.WithRegistry(context.Background(), reg)
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	proxy.KillOnce(1)
	res, err := drain(ctx, cli, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatalf("execute with killed node conn = %v", err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("rows = %d", total)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	if n := reg.CounterValue(telemetry.MetricRPCPoolRedials); n != 1 {
		t.Errorf("pool redials = %d, want the frontend's one", n)
	}
	if n := reg.CounterValue(telemetry.MetricRetryAttempts); n != 0 {
		t.Errorf("retry attempts = %d, want 0", n)
	}
}

// TestRefusedNodeLinkFaultDialedOncePerClientAttempt: a frontend whose
// link to the node refuses every connection tries it once per attempt of
// the client's retry loop — three connections per Get and per List.
func TestRefusedNodeLinkFaultDialedOncePerClientAttempt(t *testing.T) {
	proxy, cli := nodeBehindProxy(t, nil)
	proxy.SetRefuseNew(true)
	ctx := context.Background()
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"get", func() error { _, _, err := cli.Get(ctx, "b", "o"); return err }},
		{"list", func() error { _, err := cli.List(ctx, "b", ""); return err }},
	} {
		before := proxy.Accepted()
		if err := op.call(); !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("%s over a refused node link = %v", op.name, err)
		}
		if n := proxy.Accepted() - before; n != 3 {
			t.Errorf("%s: %d node connections, want 3", op.name, n)
		}
	}
}
