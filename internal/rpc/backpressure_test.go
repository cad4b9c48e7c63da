package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/telemetry"
)

// chunksRequest asks a "chunks" method for count chunks of size bytes.
func chunksRequest(count, size int) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(count)), uint32(size))
}

// startChunkServer serves "chunks" (see chunksRequest) with the given
// credit window and a metrics registry, chunk i filled with byte i, and
// returns the server and its address. sent, when non-nil, counts the sends
// that returned.
func startChunkServer(tb testing.TB, window int, sent *atomic.Int64) (*Server, string) {
	tb.Helper()
	s := NewServer()
	s.StreamWindow = window
	s.Metrics = telemetry.NewRegistry()
	s.RegisterStream("chunks", func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		count, size := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
		for i := range count {
			if err := send(bytes.Repeat([]byte{byte(i)}, int(size))); err != nil {
				return nil, err
			}
			if sent != nil {
				sent.Add(1)
			}
		}
		return []byte("done"), nil
	})
	return s, listen(tb, s)
}

// startRelay serves "chunks" by forwarding each call to the server at
// upstream and relaying its chunks one by one, as the OCS frontend's
// forward does, under its own credit window.
func startRelay(tb testing.TB, window int, upstream string) string {
	tb.Helper()
	up := Dial(upstream)
	tb.Cleanup(func() { up.Close() })
	s := NewServer()
	s.StreamWindow = window
	s.RegisterStream("chunks", func(ctx context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		st, err := up.Stream(ctx, "chunks", p)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		for {
			chunk, err := st.Recv()
			if err == io.EOF {
				return st.Trailer(), nil
			}
			if err != nil {
				return nil, err
			}
			if err := send(chunk); err != nil {
				return nil, err
			}
		}
	})
	return listen(tb, s)
}

// listen starts s on an ephemeral port, closed when the test ends.
func listen(tb testing.TB, s *Server) string {
	tb.Helper()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return addr
}

// TestStreamBackpressureWindow verifies the credit window: a producer
// streaming 32 chunks to a client that has not called Recv yet may get at
// most StreamWindow chunks ahead, and catches up as Recv issues credits.
func TestStreamBackpressureWindow(t *testing.T) {
	const window, chunks = 2, 32
	checkGoroutines(t)
	var sent atomic.Int64
	s, addr := startChunkServer(t, window, &sent)
	reg := s.Metrics
	c := Dial(addr)
	defer c.Close()

	st, err := c.Stream(context.Background(), "chunks", chunksRequest(chunks, 64))
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

// TestStreamBackpressureDeferredCredits: the client holds the credits it
// owes until a read could block, and that never deadlocks the window. For
// windows 1, 2 and 8, chunks of 1 byte, just under and just over the read
// buffer, and three buffers' worth, read by a consumer that sleeps between
// Recvs and by one that does not, straight from the producer and through a
// relay, every chunk arrives in order and the producer never runs further
// ahead than the credit windows between it and the consumer allow.
func TestStreamBackpressureDeferredCredits(t *testing.T) {
	checkGoroutines(t)
	for _, window := range []int{1, 2, 8} {
		for _, size := range []int{1, readBufferSize - 16, readBufferSize + 16, 3 * readBufferSize} {
			for _, relay := range []bool{false, true} {
				for _, pause := range []time.Duration{0, time.Millisecond} {
					name := fmt.Sprintf("window=%d/size=%d/relay=%t/pause=%s", window, size, relay, pause)
					t.Run(name, func(t *testing.T) {
						var sent atomic.Int64
						_, addr := startChunkServer(t, window, &sent)
						// Credits go out only for chunks a Recv has handed
						// over, so the producer runs at most a window ahead
						// per hop of what the consumer has been handed.
						ahead := int64(window)
						if relay {
							addr = startRelay(t, window, addr)
							ahead = int64(2 * window)
						}
						c := Dial(addr)
						defer c.Close()
						ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
						defer cancel()
						count := 4*window + 3
						st, err := c.Stream(ctx, "chunks", chunksRequest(count, size))
						if err != nil {
							t.Fatal(err)
						}
						for got := 0; ; got++ {
							chunk, err := st.Recv()
							if err == io.EOF {
								if got != count {
									t.Fatalf("%d chunks before EOF, want %d", got, count)
								}
								break
							}
							if err != nil {
								t.Fatalf("chunk %d: %v", got, err)
							}
							if len(chunk) != size || chunk[0] != byte(got) || chunk[size-1] != byte(got) {
								t.Fatalf("chunk %d: %d bytes of %d, want %d of %d", got, len(chunk), chunk[0], size, byte(got))
							}
							if n := sent.Load(); n > int64(got)+ahead {
								t.Fatalf("producer sent %d chunks with %d handed over before chunk %d; at most %d may be ahead", n, got, got, ahead)
							}
							time.Sleep(pause)
						}
						if string(st.Trailer()) != "done" {
							t.Fatalf("trailer = %q", st.Trailer())
						}
					})
				}
			}
		}
	}
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
