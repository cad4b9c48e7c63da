package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"prestocs/internal/telemetry"
)

// checkGoroutines fails the test unless, once its cleanups have closed
// every client and server it started, the goroutine count settles back to
// what it was when checkGoroutines was called, within a second. Call it
// before starting any server or client, so its cleanup runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				stacks := make([]byte, 1<<16)
				t.Errorf("%d goroutines after close, %d before:\n%s",
					runtime.NumGoroutine(), before, stacks[:runtime.Stack(stacks, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func startEcho(t *testing.T) (*Server, *Client) {
	t.Helper()
	checkGoroutines(t)
	s := NewServer()
	s.Metrics = telemetry.NewRegistry()
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	s.Register("fail", func(_ context.Context, p []byte) ([]byte, error) { return nil, errors.New("boom") })
	s.Register("double", func(_ context.Context, p []byte) ([]byte, error) { return append(p, p...), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c
}

func TestUnaryCall(t *testing.T) {
	_, c := startEcho(t)
	resp, err := c.Call(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Errorf("resp = %q", resp)
	}
	resp, err = c.Call(context.Background(), "double", []byte("ab"))
	if err != nil || string(resp) != "abab" {
		t.Errorf("double = %q, %v", resp, err)
	}
}

func TestEmptyPayload(t *testing.T) {
	_, c := startEcho(t)
	resp, err := c.Call(context.Background(), "echo", nil)
	if err != nil || len(resp) != 0 {
		t.Errorf("empty echo = %v, %v", resp, err)
	}
}

func TestLargePayload(t *testing.T) {
	_, c := startEcho(t)
	big := bytes.Repeat([]byte{0xAB}, 4<<20)
	resp, err := c.Call(context.Background(), "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Error("large payload corrupted")
	}
}

func TestRemoteError(t *testing.T) {
	_, c := startEcho(t)
	_, err := c.Call(context.Background(), "fail", []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	if re.Message != "boom" || re.Method != "fail" {
		t.Errorf("remote error = %+v", re)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c := startEcho(t)
	_, err := c.Call(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, c := startEcho(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := c.Call(context.Background(), "echo", msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("mismatch: %q vs %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMeters(t *testing.T) {
	s, c := startEcho(t)
	c.Meter.Reset()
	payload := bytes.Repeat([]byte{1}, 1000)
	if _, err := c.Call(context.Background(), "echo", payload); err != nil {
		t.Fatal(err)
	}
	if c.Meter.Sent() < 1000 || c.Meter.Received() < 1000 {
		t.Errorf("meter: sent=%d received=%d", c.Meter.Sent(), c.Meter.Received())
	}
	if c.Meter.Calls() != 1 {
		t.Errorf("calls = %d", c.Meter.Calls())
	}
	if s.Meter.Received() < 1000 {
		t.Errorf("server meter received = %d", s.Meter.Received())
	}
	c.Meter.Reset()
	if c.Meter.Sent() != 0 || c.Meter.Calls() != 0 {
		t.Error("reset failed")
	}
}

func TestClientAfterClose(t *testing.T) {
	_, c := startEcho(t)
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(context.Background(), "echo", []byte("x")); !errors.Is(err, ErrShutdown) {
		t.Errorf("call after close = %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialBadAddress(t *testing.T) {
	checkGoroutines(t)
	c := Dial("127.0.0.1:1") // nothing listens on port 1
	if _, err := c.Call(context.Background(), "echo", nil); err == nil {
		t.Error("call to dead address succeeded")
	}
}

func TestConnectionReuse(t *testing.T) {
	_, c := startEcho(t)
	for i := 0; i < 10; i++ {
		if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 1 {
		t.Errorf("sequential calls should reuse one connection, idle=%d", idle)
	}
}

func TestRegisterAfterListen(t *testing.T) {
	checkGoroutines(t)
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Register("late", func(_ context.Context, p []byte) ([]byte, error) { return []byte("ok"), nil })
	c := Dial(addr)
	defer c.Close()
	resp, err := c.Call(context.Background(), "late", nil)
	if err != nil || string(resp) != "ok" {
		t.Errorf("late-registered method: %q, %v", resp, err)
	}
}

func BenchmarkUnaryCall(b *testing.B) {
	s := NewServer()
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c := Dial(addr)
	defer c.Close()
	payload := bytes.Repeat([]byte{7}, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamChunks streams 64 chunks of 16 KiB over one stream under
// the default credit window, straight from the producer and through one
// relay hop shaped like the OCS frontend's forward.
func BenchmarkStreamChunks(b *testing.B) {
	const chunks, size = 64, 16 << 10
	for _, relay := range []bool{false, true} {
		b.Run(map[bool]string{false: "direct", true: "relay"}[relay], func(b *testing.B) {
			_, addr := startChunkServer(b, 0, nil)
			if relay {
				addr = startRelay(b, 0, addr)
			}
			c := Dial(addr)
			defer c.Close()
			req := chunksRequest(chunks, size)
			b.SetBytes(chunks * size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.Stream(context.Background(), "chunks", req)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := st.Recv(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
