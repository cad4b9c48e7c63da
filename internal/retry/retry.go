// Package retry is the one retry loop of the OCS path and the
// transient/permanent error classification it shares with the
// connector's fallback. The edge client retries a request until its first
// chunk (ocsserver.Client.ExecuteStream) or its answer (objstore.Client);
// the frontend relays each call once and leaves healing to that loop. The
// model follows PushdownDB's degradation story: retry what may heal (peer
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

// The rule has no knobs. The budget is small — three attempts,
// sub-second total — because a storage node that stays dead must surface
// quickly enough for the connector to fall back to the raw-scan path
// instead of wedging the query.
const (
	attempts  = 3                      // tries, the first call included
	baseDelay = 5 * time.Millisecond   // the backoff before the first retry
	maxDelay  = 250 * time.Millisecond // the cap on the grown backoff
	growth    = 2                      // the factor each retry grows it by
	jitter    = 0.2                    // ± fraction that de-synchronizes retry storms
)

// delay returns the backoff before retry number attempt (0-based),
// capped and jittered.
func delay(attempt int) time.Duration {
	d := baseDelay
	for i := 0; i < attempt && d < maxDelay; i++ {
		d *= growth
	}
	d = min(d, maxDelay)
	return d + time.Duration(float64(d)*jitter*(2*rand.Float64()-1))
}

// Do runs op until it succeeds, returns an error that is not Transient,
// the attempt budget is exhausted, or ctx is done. Backoff sleeps are
// interruptible by ctx. Retries are observable through the context: each
// retried attempt bumps the retry_attempts counter in the ambient
// telemetry registry and lands as a "retry" event on the ambient span,
// and an exhausted budget bumps retry_giveups.
func Do(ctx context.Context, op func() error) error {
	reg := telemetry.RegistryFrom(ctx)
	span := telemetry.SpanFrom(ctx)
	for attempt := 0; ; attempt++ {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		err := op()
		if err == nil || !Transient(err) {
			return err
		}
		if attempt+1 >= attempts {
			reg.Counter(telemetry.MetricRetryGiveups).Inc()
			span.Event("retry-giveup", err.Error())
			return err
		}
		reg.Counter(telemetry.MetricRetryAttempts).Inc()
		span.Event("retry", err.Error())
		t := time.NewTimer(delay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
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
