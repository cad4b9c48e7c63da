package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"prestocs/internal/telemetry"
)

// StreamHandler serves one call. It receives the request payload and a
// send function that ships one chunk frame to the client. Returning nil
// ends the call cleanly with the returned trailer payload; returning an
// error ends it with an error frame, which is valid even after chunks
// have been sent. If send itself fails the handler should stop and
// return; the connection is already dead, except for two clean refusals
// that leave it usable: an oversized chunk (rejected before touching the
// wire) and a request deadline that expired while the window was full
// (context.DeadlineExceeded). Returning the send error then reaches the
// client as an error frame. The context carries the caller's deadline and
// is cancelled on server shutdown; handlers should check it between
// chunks. send must be called from one goroutine at a time.
type StreamHandler func(ctx context.Context, payload []byte, send func(chunk []byte) error) (trailer []byte, err error)

// RegisterStream installs a handler for a method name, replacing any
// handler the name had.
func (s *Server) RegisterStream(method string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[method] = h
}

// serverCall is the send side of the call a connection is serving and its
// credit window. It lives on the connection's goroutine,
// which owns every read on the connection, so send may read credits off
// its reader directly.
type serverCall struct {
	s        *Server
	w        *wire
	deadline time.Time // the request deadline; zero = none
	window   int
	inflight int  // chunks sent and not yet credited
	broken   bool // a write or credit read failed: conn is unusable

	sentBytes     *telemetry.Counter
	inflightGauge *telemetry.Gauge
	stalls        *telemetry.Counter
}

func (s *Server) newCall(w *wire, method string, deadline time.Time) *serverCall {
	window := s.StreamWindow
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return &serverCall{
		s: s, w: w, deadline: deadline, window: window,
		sentBytes:     s.Metrics.Counter(telemetry.MetricRPCServerSentBytes, "method", method),
		inflightGauge: s.Metrics.Gauge(telemetry.MetricRPCStreamInflight),
		stalls:        s.Metrics.Counter(telemetry.MetricRPCStreamStalls),
	}
}

// errFlowBroken reports that the client connection failed while the
// producer was reading credits; no terminal frame can land.
var errFlowBroken = errors.New("rpc: stream flow broken: client connection lost")

// send ships one chunk. Backpressure point: with the credit window full
// it first reads credits, so a slow Recv caller pauses the producer here
// instead of the chunks piling up in the socket.
func (c *serverCall) send(chunk []byte) error {
	if c.broken {
		return errFlowBroken
	}
	if c.inflight >= c.window {
		if err := c.awaitCredit(); err != nil {
			return err
		}
	}
	if err := c.write(frameChunk, chunk); err != nil {
		return err
	}
	c.inflight++
	c.inflightGauge.Add(1)
	return nil
}

// awaitCredit reads the credit the full window waits for, bounded by the
// request deadline. The client batches its credits, so the rest of a
// batch is usually already in the reader and costs no read. A deadline
// that expires before any byte of the frame arrives leaves the connection
// clean and is reported as context.DeadlineExceeded; any other failure
// breaks the flow.
func (c *serverCall) awaitCredit() error {
	c.stalls.Inc()
	if !c.deadline.IsZero() {
		c.w.conn.SetReadDeadline(c.deadline)
		defer c.w.conn.SetReadDeadline(time.Time{})
	}
	kind, _, _, n, err := readFrame(c.w.r)
	c.s.Meter.received.Add(n)
	if err != nil && n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	if err != nil || kind != frameCredit {
		c.broken = true
		return errFlowBroken
	}
	c.inflight--
	c.inflightGauge.Add(-1)
	return nil
}

// write ships one response frame. An oversized frame never touches the
// wire and leaves the connection usable; any other write failure breaks
// it.
func (c *serverCall) write(kind byte, payload []byte) error {
	n, err := c.w.writeFrame(kind, "", nil, payload)
	c.s.Meter.sent.Add(n)
	c.sentBytes.Add(n)
	if errors.Is(err, ErrFrameTooLarge) {
		c.s.Metrics.Counter(telemetry.MetricRPCOversizeFrames).Inc()
	} else if err != nil {
		c.broken = true
	}
	return err
}

// finish ends the call with its terminal frame — the end frame carrying
// the trailer, or an error frame — and reports whether the connection can
// carry the next call. A trailer over the frame limit becomes an error
// frame. Chunks still uncredited leave the inflight gauge; serveConn skips
// their credits.
func (c *serverCall) finish(span *telemetry.Span, trailer []byte, err error) bool {
	c.inflightGauge.Add(-int64(c.inflight))
	if c.broken {
		return false
	}
	if err == nil {
		if err = c.write(frameEnd, trailer); err != nil && !errors.Is(err, ErrFrameTooLarge) {
			return false
		}
	}
	if err != nil {
		span.Event("error", err.Error())
		if c.write(frameError, errorPayload(err)) != nil {
			return false
		}
	}
	c.s.Meter.calls.Add(1)
	return true
}

// ClientStream is the receive side of a call. Recv returns chunks in
// order and io.EOF after the end frame; the trailer is then available via
// Trailer. Close releases the connection and is safe to call at any
// point, including after EOF.
type ClientStream struct {
	c       *Client
	ctx     context.Context
	release func() error
	w       *wire
	method  string
	payload []byte // the request payload, kept for one stale-pool replay
	span    *telemetry.Span
	start   time.Time
	trailer []byte
	// owed counts the chunks Recv has handed over and not yet credited.
	owed int
	// replayable: the connection came from the idle pool and no response
	// byte has arrived on it, so a failure may be a stale connection.
	replayable bool
	done       bool
	err        error
}

// Stream opens a call whose chunks the caller receives one Recv at a
// time. The returned stream must be drained to EOF or Closed, or the
// underlying connection leaks. The ctx governs the whole stream: its
// deadline travels to the server, and cancelling it wakes a blocked Recv
// and discards the connection. A stale pooled connection (the peer closed
// it while idle) that fails before any response bytes arrive is redialed
// once — on open here, or on the first Recv. The request is not yet
// observable as executed, so the replay is safe even for non-idempotent
// methods.
func (c *Client) Stream(ctx context.Context, method string, payload []byte) (*ClientStream, error) {
	return c.open(ctx, "rpc.stream ", method, payload)
}

// open starts a call under a client span named spanPrefix+method.
func (c *Client) open(ctx context.Context, spanPrefix, method string, payload []byte) (*ClientStream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, spanPrefix+method)
	st := &ClientStream{c: c, ctx: ctx, method: method, payload: payload, span: span, start: time.Now()}
	if err := st.redial(st.send(false)); err != nil {
		st.fail(err)
		return nil, err
	}
	return st, nil
}

// redialableError wraps a failure on a stale pooled connection that
// happened before any response bytes were read: the call is replayed
// exactly once on a fresh connection.
type redialableError struct{ err error }

func (e *redialableError) Error() string { return e.err.Error() }
func (e *redialableError) Unwrap() error { return e.err }

// redial answers a *redialableError by shipping the request again on a
// fresh connection; any other error it returns as it is.
func (st *ClientStream) redial(err error) error {
	rd, ok := err.(*redialableError)
	if !ok {
		return err
	}
	st.span.Event("redial", rd.err.Error())
	st.c.Metrics.Counter(telemetry.MetricRPCPoolRedials).Inc()
	return st.send(true)
}

// send takes a connection and ships the request frame on it.
func (st *ClientStream) send(fresh bool) error {
	c := st.c
	w, pooled, err := c.getConn(st.ctx, fresh)
	if err != nil {
		return err
	}
	release := watchConn(st.ctx, w.conn)
	deadline, _ := st.ctx.Deadline()
	trace, parent := telemetry.Inject(st.ctx)
	sent, err := w.writeRequest(st.method, deadline, trace, parent, st.payload)
	c.Meter.sent.Add(sent)
	c.Metrics.Counter(telemetry.MetricRPCClientSentBytes, "method", st.method).Add(sent)
	if err != nil {
		release()
		if errors.Is(err, ErrFrameTooLarge) {
			// Rejected before any byte hit the wire: the conn is clean.
			c.Metrics.Counter(telemetry.MetricRPCOversizeFrames).Inc()
			c.putConn(w)
			return err
		}
		c.discard(w)
		err = callError(st.ctx, st.method, "send", err)
		if pooled && st.ctx.Err() == nil {
			return &redialableError{err: err}
		}
		return err
	}
	st.w, st.release, st.replayable = w, release, pooled
	return nil
}

// observeLatency records the call's latency, open to terminal frame (or
// failure), in the per-method histogram.
func (st *ClientStream) observeLatency() {
	st.c.Metrics.Histogram(telemetry.MetricRPCClientLatency, "method", st.method).
		ObserveDuration(time.Since(st.start))
}

// Recv returns the next chunk, io.EOF on clean end of stream, or an error.
// After a non-EOF error the stream is dead.
func (st *ClientStream) Recv() ([]byte, error) {
	if st.done {
		if st.err != nil {
			return nil, st.err
		}
		return nil, io.EOF
	}
	if st.owed > 0 && !holdsFrame(st.w.r) {
		st.sendCredits()
	}
	k, _, payload, n, err := readFrame(st.w.r)
	st.c.Meter.received.Add(n)
	st.c.Metrics.Counter(telemetry.MetricRPCClientRecvBytes, "method", st.method).Add(n)
	if err != nil {
		err = callError(st.ctx, st.method, "recv", err)
		if n == 0 && st.replayable && st.ctx.Err() == nil {
			// The peer hung up without a single response byte: the
			// request never ran.
			st.release()
			st.c.discard(st.w)
			st.w = nil
			if err = st.redial(&redialableError{err: err}); err == nil {
				return st.Recv()
			}
		}
		st.fail(err)
		return nil, err
	}
	st.replayable = false
	if k == frameError {
		st.end(decodeRemoteError(st.method, payload))
		return nil, st.err
	}
	if k != frameChunk && k != frameEnd {
		st.fail(fmt.Errorf("rpc: bad frame (kind %d, %d bytes) in %s call", k, len(payload), st.method))
		return nil, st.err
	}
	if k == frameEnd {
		st.trailer = payload
		st.end(nil)
		return nil, io.EOF
	}
	// Flow-control credit: the chunk is owed one only once it is in hand,
	// which is what makes a slow Recv caller slow the producer.
	st.owed++
	return payload, nil
}

// sendCredits writes the credits owed in one write. Recv calls it just
// before a read that could block, so the reader never waits on the
// producer while the producer may be waiting on it. A failed write means
// the conn is dying; the read that follows surfaces the failure.
func (st *ClientStream) sendCredits() {
	cn, _ := st.w.writeCredits(st.owed)
	st.owed = 0
	st.c.Meter.sent.Add(cn)
	st.c.Metrics.Counter(telemetry.MetricRPCClientSentBytes, "method", st.method).Add(cn)
}

// end retires the call at its terminal frame, an end frame (err == nil)
// or an error frame: the connection is in step again, so it rejoins the
// pool — unless the context fired meanwhile and may have poisoned its
// deadline, or its reader holds bytes past the terminal frame, which no
// call on it could own. Credits still owed are never sent: the server
// skips late credits anyway.
func (st *ClientStream) end(err error) {
	st.c.Meter.calls.Add(1)
	if st.release() != nil || st.w.r.Buffered() > 0 {
		st.c.discard(st.w)
	} else {
		st.c.putConn(st.w)
	}
	st.w = nil
	st.finish(err)
}

// fail retires the call on a failure that leaves the connection out of
// step, discarding it.
func (st *ClientStream) fail(err error) {
	if st.w != nil {
		st.release()
		st.c.discard(st.w)
		st.w = nil
	}
	st.finish(err)
}

// finish records the call's outcome.
func (st *ClientStream) finish(err error) {
	st.err = err
	st.done = true
	if err != nil {
		st.span.Event("error", err.Error())
		st.c.Metrics.Counter(telemetry.MetricRPCClientErrors, "method", st.method).Inc()
	}
	st.span.End()
	st.observeLatency()
}

// Trailer returns the end-frame payload. Valid only after Recv returned
// io.EOF.
func (st *ClientStream) Trailer() []byte { return st.trailer }

// TryDrain attempts to consume the remainder of the stream within the
// given budget so the trailer (and its stats) are not lost on early
// stop. It reads at most maxChunks further chunk frames and spends at
// most timeout blocked on the socket, returning the chunk payload bytes
// it consumed and whether it reached its stop: the clean end of stream,
// or — when last is non-nil — a chunk for which last reports true, which
// is consumed too and leaves the stream open for the chunks after it
// (unless last read on to the stream's end, within the same budget). On
// false the stream is closed and the connection discarded. The common
// early-stop case — a pushed-down LIMIT where the storage node finished
// right after the client stopped reading — completes in one or two reads
// because the end frame is already in the socket buffer.
func (st *ClientStream) TryDrain(maxChunks int, timeout time.Duration, last func(chunk []byte) bool) (int64, bool) {
	if st.done {
		return 0, st.err == nil
	}
	if st.w == nil {
		return 0, false
	}
	// Bound the whole drain; the deadline is cleared when the conn is
	// pooled again (getConn resets deadlines on reuse as well), or below
	// when the stream stays open past last's chunk.
	conn := st.w.conn
	conn.SetReadDeadline(time.Now().Add(timeout))
	var drained int64
	for i := 0; i <= maxChunks; i++ {
		chunk, err := st.Recv()
		if err == io.EOF {
			return drained, true
		}
		if err != nil {
			return drained, false
		}
		drained += int64(len(chunk))
		if last != nil && last(chunk) {
			if st.done {
				// last read on to the end of the stream itself.
				return drained, st.err == nil
			}
			conn.SetReadDeadline(time.Time{})
			if st.ctx.Err() != nil {
				// The watchdog may have fired before the deadline was
				// lifted: put its verdict back.
				conn.SetDeadline(time.Unix(1, 0))
			}
			return drained, true
		}
	}
	st.Close()
	return drained, false
}

// Close releases the stream. If the stream has not reached a clean end the
// connection is discarded rather than pooled, since unread chunk frames
// may still be in flight.
func (st *ClientStream) Close() error {
	if st.w != nil {
		st.release()
		st.c.discard(st.w)
		st.w = nil
		st.span.Event("closed-early", "")
	}
	if !st.done {
		st.span.End()
		st.observeLatency()
	}
	st.done = true
	if st.err == nil {
		st.err = io.EOF
	}
	return nil
}
