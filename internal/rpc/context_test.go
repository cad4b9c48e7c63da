package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// startBlocking serves methods that exercise cancellation: "block" parks
// until the handler context ends, "slowstream" emits chunks forever with
// a small pause, "coded" fails with a tagged error.
func startBlocking(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	s.Register("block", func(ctx context.Context, p []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s.Register("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	s.Register("coded", func(_ context.Context, p []byte) ([]byte, error) {
		return nil, WithCode(errors.New("object is gone"), CodeNotFound)
	})
	s.RegisterStream("slowstream", func(ctx context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		for i := 0; ; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := send([]byte{byte(i)}); err != nil {
				return nil, err
			}
			time.Sleep(2 * time.Millisecond)
		}
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
	return s, c
}

func TestCallDeadlinePropagatesToServer(t *testing.T) {
	_, c := startBlocking(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, "block", nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline call error = %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline call took %v, watchdog did not fire", elapsed)
	}
}

func TestCallCancelReturnsPromptlyAndDiscardsConn(t *testing.T) {
	_, c := startBlocking(t)
	// Warm the pool so the cancelled call reuses a pooled connection.
	if _, err := c.Call(context.Background(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if c.IdleConns() != 1 {
		t.Fatalf("idle after warm-up = %d", c.IdleConns())
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Call(ctx, "block", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call error = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled call took %v", elapsed)
	}
	if idle := c.IdleConns(); idle != 0 {
		t.Errorf("cancelled call must not pool its connection, idle=%d", idle)
	}
	// The client recovers with a fresh connection.
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestCallPreCancelledContext(t *testing.T) {
	_, c := startBlocking(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call error = %v", err)
	}
	if _, err := c.Stream(ctx, "slowstream", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled stream error = %v", err)
	}
}

func TestStreamCancelMidStreamDiscardsConn(t *testing.T) {
	_, c := startBlocking(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := c.Stream(ctx, "slowstream", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = st.Recv()
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Recv kept succeeding after cancel")
		}
	}
	if err == io.EOF || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream error = %v", err)
	}
	if idle := c.IdleConns(); idle != 0 {
		t.Errorf("cancelled stream must not pool its connection, idle=%d", idle)
	}
	if _, err := c.Call(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteErrorCodeRoundTrip(t *testing.T) {
	_, c := startBlocking(t)
	_, err := c.Call(context.Background(), "coded", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	if re.Code != CodeNotFound || re.Message != "object is gone" {
		t.Errorf("remote error = %+v", re)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Error("coded remote error must match ErrNotFound")
	}
	if errors.Is(err, ErrUnavailable) {
		t.Error("not-found must not match ErrUnavailable")
	}
}

func TestUnknownMethodIsNotFound(t *testing.T) {
	_, c := startBlocking(t)
	_, err := c.Call(context.Background(), "no-such-method", nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestDialFailureIsUnavailable(t *testing.T) {
	c := Dial("127.0.0.1:1")
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial-refused error = %v", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "dial" {
		t.Errorf("dial error shape = %v", err)
	}
}

func TestErrorCodeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeUnknown},
		{errors.New("plain"), CodeUnknown},
		{WithCode(errors.New("x"), CodeInvalid), CodeInvalid},
		{WithCode(errors.New("x"), CodeOverLimit), CodeOverLimit},
		{fmt.Errorf("wrapped: %w", ErrOverLimit), CodeOverLimit},
		{&RemoteError{Code: CodeUnavailable}, CodeUnavailable},
		{&TransportError{Op: "recv", Err: io.EOF}, CodeUnavailable},
		{context.Canceled, CodeCanceled},
		{context.DeadlineExceeded, CodeDeadlineExceeded},
	}
	for _, tc := range cases {
		if got := ErrorCode(tc.err); got != tc.want {
			t.Errorf("ErrorCode(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestOverLimitSurvivesTheWire: the size-cap refusal keeps its identity
// across an error frame, and is not mistaken for an invalid request.
func TestOverLimitSurvivesTheWire(t *testing.T) {
	sent := WithCode(errors.New("filter 64 bytes exceeds cap 8"), CodeOverLimit)
	got := decodeRemoteError("m", errorPayload(sent))
	if !errors.Is(got, ErrOverLimit) || errors.Is(got, ErrInvalid) || got.Code.String() != "over-limit" {
		t.Errorf("decoded = %+v", got)
	}
}

func TestDecodeRemoteErrorBadCode(t *testing.T) {
	re := decodeRemoteError("m", []byte{200, 'h', 'i'})
	if re.Code != CodeUnknown || re.Message != "hi" {
		t.Errorf("decoded = %+v", re)
	}
	if re := decodeRemoteError("m", nil); re.Code != CodeUnknown {
		t.Errorf("empty payload code = %v", re.Code)
	}
}

func TestServerCloseUnblocksHandlers(t *testing.T) {
	s := NewServer()
	entered := make(chan struct{})
	s.Register("block", func(ctx context.Context, p []byte) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(addr)
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "block", nil)
		errCh <- err
	}()
	<-entered
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung on an in-flight handler")
	}
	if err := <-errCh; err == nil {
		t.Error("call against closed server must fail")
	}
}
