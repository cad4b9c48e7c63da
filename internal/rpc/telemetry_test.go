package rpc

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"prestocs/internal/telemetry"
)

// restartServer closes s and binds a fresh echo server on the same
// address, so pooled client connections go stale.
func restartServer(t *testing.T, s *Server, addr string) *Server {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer()
	s2.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { s2.Close() })
	return s2
}

// TestCallRedialsStalePooledConn is the satellite-a fix: a server restart
// between calls leaves the client holding a dead pooled connection; the
// failure happens before any response bytes, so Call transparently
// redials once and the call succeeds.
func TestCallRedialsStalePooledConn(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	c.Metrics = telemetry.NewRegistry()
	defer c.Close()

	if _, err := c.Call(context.Background(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if c.IdleConns() != 1 {
		t.Fatalf("idle = %d, want 1 pooled conn", c.IdleConns())
	}
	restartServer(t, s, addr)

	resp, err := c.Call(context.Background(), "echo", []byte("after restart"))
	if err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if string(resp) != "after restart" {
		t.Errorf("resp = %q", resp)
	}
	if got := c.Metrics.CounterValue(telemetry.MetricRPCPoolRedials); got != 1 {
		t.Errorf("redials = %d, want 1", got)
	}
}

// TestCallRedialBudgetIsOne: when the redial target is also dead the
// second failure surfaces as a real transport error, not another retry.
func TestCallRedialBudgetIsOne(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	c.Metrics = telemetry.NewRegistry()
	defer c.Close()
	if _, err := c.Call(context.Background(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	s.Close() // no restart: both the pooled conn and the redial must fail

	if _, err := c.Call(context.Background(), "echo", nil); err == nil {
		t.Fatal("call to dead server succeeded")
	} else if _, ok := err.(*redialableError); ok {
		t.Fatal("redialableError escaped Call")
	}
	if got := c.Metrics.CounterValue(telemetry.MetricRPCPoolRedials); got != 1 {
		t.Errorf("redials = %d, want exactly 1", got)
	}
}

// setFrameLimit shrinks the wire frame ceiling for the test and restores
// it at cleanup, so oversize paths can run without gigabyte payloads.
func setFrameLimit(t *testing.T, limit uint32) {
	t.Helper()
	old := maxFrameLimit.Load()
	maxFrameLimit.Store(limit)
	t.Cleanup(func() { maxFrameLimit.Store(old) })
}

// TestOversizeRequestRejectedSendSide is the satellite-b fix: a request
// frame above the limit errors clearly on the sender before any byte
// hits the wire, and the connection stays pooled and usable.
func TestOversizeRequestRejectedSendSide(t *testing.T) {
	setFrameLimit(t, 256)
	_, c := startEcho(t)
	c.Metrics = telemetry.NewRegistry()
	if _, err := c.Call(context.Background(), "echo", []byte("small")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Call(context.Background(), "echo", bytes.Repeat([]byte{1}, 1024))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if ErrorCode(err) != CodeInvalid {
		t.Errorf("code = %v, want CodeInvalid (never retried)", ErrorCode(err))
	}
	if c.IdleConns() != 1 {
		t.Errorf("idle = %d, want the clean conn back in the pool", c.IdleConns())
	}
	if got := c.Metrics.CounterValue(telemetry.MetricRPCOversizeFrames); got != 1 {
		t.Errorf("oversize frames = %d, want 1", got)
	}
	// The pooled conn is genuinely clean: the next call reuses it.
	if _, err := c.Call(context.Background(), "echo", []byte("still fine")); err != nil {
		t.Fatalf("call after oversize rejection: %v", err)
	}
}

// TestOversizeResponseBecomesRemoteError: a handler response above the
// limit is converted into a clean error frame instead of wedging the
// client, and the connection survives.
func TestOversizeResponseBecomesRemoteError(t *testing.T) {
	setFrameLimit(t, 256)
	s, c := startEcho(t)
	s.Metrics = telemetry.NewRegistry()
	_, err := c.Call(context.Background(), "double", bytes.Repeat([]byte{2}, 200))
	if err == nil {
		t.Fatal("oversize response succeeded")
	}
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %T %v, want RemoteError", err, err)
	}
	if got := s.Metrics.CounterValue(telemetry.MetricRPCOversizeFrames); got != 1 {
		t.Errorf("server oversize frames = %d, want 1", got)
	}
	if _, err := c.Call(context.Background(), "echo", []byte("ok")); err != nil {
		t.Fatalf("call after oversize response: %v", err)
	}
}

// TestOversizeTrailerBecomesRemoteError: a trailer over the limit, after
// a chunk has gone out, ends the call with a clean invalid-request error
// frame — a size refusal no retry can heal — and the connection carries
// the next call.
func TestOversizeTrailerBecomesRemoteError(t *testing.T) {
	setFrameLimit(t, 256)
	checkGoroutines(t)
	s := NewServer()
	s.RegisterStream("bigtrailer", func(_ context.Context, _ []byte, send func([]byte) error) ([]byte, error) {
		if err := send([]byte("chunk")); err != nil {
			return nil, err
		}
		return bytes.Repeat([]byte{3}, 512), nil
	})
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "bigtrailer", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Recv()
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeInvalid {
		t.Fatalf("err = %T %v, want a RemoteError with CodeInvalid", err, err)
	}
	if resp, err := c.Call(context.Background(), "echo", []byte("next")); err != nil || string(resp) != "next" {
		t.Fatalf("call after oversize trailer: %q, %v", resp, err)
	}
}

// TestTracePropagatesAcrossWire: the trace and parent span IDs travel in
// the request frame header, so the server's span joins the client's
// trace with the rpc.call span as its parent.
func TestTracePropagatesAcrossWire(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	s.Tracer = telemetry.NewTracer(0)
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()

	tr := telemetry.NewTracer(0)
	ctx := telemetry.WithTracer(context.Background(), tr)
	ctx, root := telemetry.StartSpan(ctx, "root")
	if _, err := c.Call(ctx, "echo", []byte("traced")); err != nil {
		t.Fatal(err)
	}
	root.End()

	var callSpan telemetry.SpanView
	for _, v := range tr.TraceSpans(root.Trace) {
		if v.Name == "rpc.call echo" {
			callSpan = v
		}
	}
	if callSpan.ID == 0 {
		t.Fatal("client tracer has no rpc.call span")
	}
	if callSpan.Parent != root.ID {
		t.Errorf("rpc.call parent = %d, want root %d", callSpan.Parent, root.ID)
	}
	serverSpans := s.Tracer.TraceSpans(root.Trace)
	if len(serverSpans) != 1 {
		t.Fatalf("server recorded %d spans for the trace, want 1", len(serverSpans))
	}
	sv := serverSpans[0]
	if sv.Name != "rpc.server echo" {
		t.Errorf("server span = %q", sv.Name)
	}
	if sv.Parent != callSpan.ID {
		t.Errorf("server span parent = %d, want client call span %d", sv.Parent, callSpan.ID)
	}
	// Without trace context in the request the server starts no span.
	if _, err := c.Call(context.Background(), "echo", []byte("untraced")); err != nil {
		t.Fatal(err)
	}
	if got := s.Tracer.Total(); got != 1 {
		t.Errorf("server span total = %d, want 1 (untraced call must not start one)", got)
	}
}
