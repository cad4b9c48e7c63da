package retry

import (
	"context"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"

	"prestocs/internal/rpc"
	"prestocs/internal/telemetry"
)

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Do(context.Background(), func() error {
		calls++
		if calls < attempts {
			return &rpc.TransportError{Op: "recv", Err: io.EOF}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != attempts {
		t.Errorf("calls = %d, want %d", calls, attempts)
	}
}

// TestDoExhaustsBudget: a failure that never heals is tried three times,
// two retries and one giveup counted in the context's registry.
func TestDoExhaustsBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	calls := 0
	boom := &rpc.TransportError{Op: "dial", Err: syscall.ECONNREFUSED}
	err := Do(telemetry.WithRegistry(context.Background(), reg), func() error {
		calls++
		return boom
	})
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("exhausted error = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if n := reg.CounterValue(telemetry.MetricRetryAttempts); n != 2 {
		t.Errorf("retry attempts = %d, want 2", n)
	}
	if n := reg.CounterValue(telemetry.MetricRetryGiveups); n != 1 {
		t.Errorf("retry giveups = %d, want 1", n)
	}
}

// TestDoStopsOnNonTransient: a remote verdict, and a plain error such as
// a stream that ended before its first chunk, are returned as they are
// after one call.
func TestDoStopsOnNonTransient(t *testing.T) {
	for _, fail := range []error{
		&rpc.RemoteError{Method: "Execute", Code: rpc.CodeInvalid, Message: "bad plan"},
		errors.New("ocs: result stream ended before its first chunk"),
	} {
		calls := 0
		err := Do(context.Background(), func() error {
			calls++
			return fail
		})
		if calls != 1 {
			t.Errorf("%v retried: calls = %d", fail, calls)
		}
		if err != fail {
			t.Errorf("error = %v, want %v", err, fail)
		}
	}
}

func TestDoContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, func() error {
		calls++
		cancel()
		return &rpc.TransportError{Op: "recv", Err: io.ErrUnexpectedEOF}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d after a cancel during the first backoff, want 1", calls)
	}
}

func TestDoPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Do(ctx, func() error { called = true; return nil })
	if !errors.Is(err, context.Canceled) || called {
		t.Errorf("err = %v, called = %v", err, called)
	}
}

// TestDelayGrowsAndCaps: the backoff starts at 5 ms, doubles, and stops
// growing at 250 ms, each value within ±20 %.
func TestDelayGrowsAndCaps(t *testing.T) {
	want := []time.Duration{5, 10, 20, 40, 80, 160, 250, 250, 250}
	for i, w := range want {
		w *= time.Millisecond
		for range 50 {
			if got := delay(i); got < w*8/10 || got > w*12/10 {
				t.Fatalf("delay(%d) = %v, want %v ± 20%%", i, got, w)
			}
		}
	}
}

// TestDelayJitterBounded: the jitter spreads the delays of one attempt,
// so simultaneous failures do not retry in lockstep.
func TestDelayJitterBounded(t *testing.T) {
	seen := map[time.Duration]bool{}
	for range 200 {
		seen[delay(0)] = true
	}
	if len(seen) < 10 {
		t.Errorf("200 jittered delays took %d distinct values", len(seen))
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"shutdown", rpc.ErrShutdown, false},
		{"transport", &rpc.TransportError{Op: "recv", Err: io.EOF}, true},
		{"remote-unavailable", &rpc.RemoteError{Code: rpc.CodeUnavailable}, true},
		{"remote-invalid", &rpc.RemoteError{Code: rpc.CodeInvalid}, false},
		{"remote-notfound", &rpc.RemoteError{Code: rpc.CodeNotFound}, false},
		{"remote-unknown", &rpc.RemoteError{Code: rpc.CodeUnknown}, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"econnrefused", syscall.ECONNREFUSED, true},
		{"econnreset", syscall.ECONNRESET, true},
		{"plain", errors.New("whatever"), false},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
