package rpc

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/telemetry"
)

// startWindowServer registers a "flood" stream method that sends
// payload[0] chunks, counting successful sends in sent, and returns a
// client wired to a metrics registry.
func startWindowServer(t *testing.T, window int, sent *atomic.Int64) (*Server, *Client, *telemetry.Registry) {
	t.Helper()
	checkGoroutines(t)
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.StreamWindow = window
	s.Metrics = reg
	s.RegisterStream("flood", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		n := int(p[0])
		for i := 0; i < n; i++ {
			if err := send(make([]byte, 64)); err != nil {
				return nil, err
			}
			sent.Add(1)
		}
		return []byte("done"), nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c, reg
}

// TestStreamBackpressureWindow verifies the credit window: a producer
// streaming 32 chunks to a client that has not called Recv yet may get at
// most StreamWindow chunks ahead, and catches up as Recv issues credits.
func TestStreamBackpressureWindow(t *testing.T) {
	const window, chunks = 2, 32
	var sent atomic.Int64
	_, c, reg := startWindowServer(t, window, &sent)

	st, err := c.Stream(context.Background(), "flood", []byte{chunks})
	if err != nil {
		t.Fatal(err)
	}
	// Give the producer every chance to run ahead before the first Recv.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := sent.Load(); n > window {
			t.Fatalf("producer sent %d chunks with no credits issued; window = %d", n, window)
		}
		time.Sleep(10 * time.Millisecond)
	}
	got := 0
	for {
		_, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != chunks {
		t.Fatalf("received %d chunks, want %d", got, chunks)
	}
	if n := sent.Load(); n != chunks {
		t.Fatalf("producer completed %d sends, want %d", n, chunks)
	}
	if v := reg.CounterValue(telemetry.MetricRPCStreamStalls); v == 0 {
		t.Error("expected at least one window stall with an idle client")
	}
	if v := reg.GaugeValue(telemetry.MetricRPCStreamInflight); v != 0 {
		t.Errorf("inflight gauge = %d after clean end, want 0", v)
	}
}

// TestStreamBackpressureKilledClientReleasesProducer kills the client
// connection while the producer is paused on a full window. The producer
// must observe a send error promptly (credits will never arrive) instead
// of waiting forever, and the inflight gauge must drain.
func TestStreamBackpressureKilledClientReleasesProducer(t *testing.T) {
	checkGoroutines(t)
	const window = 1
	var sent atomic.Int64
	done := make(chan error, 1)
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.StreamWindow = window
	s.Metrics = reg
	s.RegisterStream("flood", func(_ context.Context, _ []byte, send func([]byte) error) ([]byte, error) {
		for {
			if err := send(make([]byte, 64)); err != nil {
				done <- err
				return nil, err
			}
			sent.Add(1)
		}
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "flood", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatal(err)
	}
	// Wait until the producer is ahead by the window, then vanish without
	// draining: the credit the producer is waiting on will never come.
	waitUntil(t, time.Second, func() bool { return sent.Load() >= 1 })
	st.Close()

	select {
	case err := <-done:
		if !errors.Is(err, errFlowBroken) && !errors.Is(err, ErrUnavailable) {
			// A raw write error is also acceptable: the race between the
			// window wait and the TCP write noticing the close is fair.
			t.Logf("producer released with: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked 5s after the client connection died")
	}
	waitUntil(t, time.Second, func() bool {
		return reg.GaugeValue(telemetry.MetricRPCStreamInflight) == 0
	})
}

// TestStreamCreditReadDeadline: a producer waiting on a full window is
// bounded by the request deadline. When it expires before the client
// sends a byte, send reports context.DeadlineExceeded and the connection
// is still clean: the handler's error frame goes out as the call's
// terminal frame.
func TestStreamCreditReadDeadline(t *testing.T) {
	checkGoroutines(t)
	released := make(chan error, 1)
	s := NewServer()
	s.StreamWindow = 1
	s.RegisterStream("stuck", func(_ context.Context, _ []byte, send func([]byte) error) ([]byte, error) {
		err := send([]byte("a"))
		if err == nil {
			err = send([]byte("b"))
		}
		released <- err
		return nil, err
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	st, err := c.Stream(ctx, "stuck", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// No Recv: the window of one stays full and no credit ever arrives.
	select {
	case err := <-released:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("send past the deadline = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer still waiting for a credit 5s past the deadline")
	}
	waitUntil(t, time.Second, func() bool { return s.Meter.Calls() == 1 })
}

// TestOverloadedCodeRoundTrip checks the new stable code crosses the wire
// and matches ErrOverloaded under errors.Is on the client side.
func TestOverloadedCodeRoundTrip(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	s.Register("shed", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, WithCode(errors.New("admission queue full"), CodeOverloaded)
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()
	_, err = c.Call(context.Background(), "shed", nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeOverloaded {
		t.Fatalf("err = %#v, want RemoteError with CodeOverloaded", err)
	}
}

// waitUntil polls cond until it holds or the budget expires.
func waitUntil(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
