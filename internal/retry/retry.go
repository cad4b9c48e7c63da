// Package retry implements capped exponential backoff with jitter plus
// the transient/permanent error classification shared by the OCS client,
// the frontend fan-out and the connector fallback path. The model
// follows PushdownDB's degradation story: retry what may heal (peer
// unreachable, connection killed mid-call), give up immediately on what
// will not (invalid plans, missing objects, cancelled contexts) so the
// caller can fail fast or fall back to the no-pushdown path.
package retry

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"syscall"
	"time"

	"prestocs/internal/rpc"
	"prestocs/internal/telemetry"
)

// Policy describes a bounded retry loop.
type Policy struct {
	// MaxAttempts is the total number of tries, the first call
	// included. Values below 1 mean a single attempt (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff.
	MaxDelay time.Duration
	// Multiplier grows the delay each attempt; values below 1 mean 2.
	Multiplier float64
	// Jitter is the random fraction (0..1) by which each delay is
	// perturbed in both directions, de-synchronizing retry storms.
	Jitter float64
}

// Default is the policy used across the OCS path. The budget is kept
// small — three attempts, sub-second total — because a storage node that
// stays dead must surface quickly enough for the connector to fall back
// to the raw-scan path instead of wedging the query.
func Default() Policy {
	return Policy{
		MaxAttempts: 3,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// None disables retries: one attempt, no backoff.
func None() Policy { return Policy{MaxAttempts: 1} }

// Delay returns the backoff before retry number attempt (0-based),
// capped and jittered.
func (p Policy) Delay(attempt int) time.Duration {
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	for i := 0; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d += d * p.Jitter * (2*rand.Float64() - 1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// permanentError marks an error as not retryable regardless of its
// underlying classification.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns the original
// error. Use it inside an op when a failure is detected that retrying
// cannot fix (e.g. a stream that ended cleanly but too early).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs op until it succeeds, returns a non-transient or Permanent
// error, the attempt budget is exhausted, or ctx is done. Backoff sleeps
// are interruptible by ctx. Retries are observable through the context:
// each retried attempt bumps the retry_attempts counter in the ambient
// telemetry registry and lands as a "retry" event on the ambient span,
// and an exhausted budget bumps retry_giveups.
func (p Policy) Do(ctx context.Context, op func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := telemetry.RegistryFrom(ctx)
	span := telemetry.SpanFrom(ctx)
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		err := op()
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if err == nil || !Transient(err) {
			return err
		}
		if attempt+1 >= attempts {
			if attempts > 1 {
				reg.Counter(telemetry.MetricRetryGiveups).Inc()
				span.Event("retry-giveup", err.Error())
			}
			return err
		}
		reg.Counter(telemetry.MetricRetryAttempts).Inc()
		span.Event("retry", err.Error())
		t := time.NewTimer(p.Delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Call is Do around one unary RPC: method is called on c until it answers
// or fails in a way a retry cannot heal. Use it only for idempotent
// methods — an attempt whose connection died may have been applied.
func (p Policy) Call(ctx context.Context, c *rpc.Client, method string, payload []byte) ([]byte, error) {
	var resp []byte
	err := p.Do(ctx, func() error {
		var err error
		resp, err = c.Call(ctx, method, payload)
		return err
	})
	return resp, err
}

// Transient reports whether err looks like a failure that a retry (or a
// pushdown fallback) could heal: the peer is unreachable or died
// mid-call. Context errors, shutdown, and remote logic errors (invalid
// plan, missing object) are not transient.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) {
		return false
	}
	// Covers *rpc.TransportError (dial/send/recv failures) and remote
	// errors carrying CodeUnavailable, both of which Is-match the
	// sentinel.
	if errors.Is(err, rpc.ErrUnavailable) {
		return true
	}
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		return false // the server answered; its verdict will not change
	}
	// Raw network-level failures from callers outside the rpc client.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	return false
}
