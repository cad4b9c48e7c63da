// Package rpc implements the framed TCP RPC transport that stands in for
// gRPC (see DESIGN.md §2). A server registers named methods; a client
// dials and issues unary calls. Every frame that crosses the wire is
// metered, which is how the experiment harness measures data movement
// between the compute and storage layers.
//
// Frame layout (little-endian):
//
//	u32 frameLen | u8 kind | u32 methodLen | method | payload
//
// kind 0 = request, 1 = response-ok, 2 = response-error (payload is one
// code byte followed by the error message), 3 = stream-chunk, 4 =
// stream-end (payload is the stream trailer). A request payload begins
// with a fixed header — u64 deadline (unix microseconds, 0 = none), u64
// trace ID and u64 parent span ID (0 = no trace) — that the server turns
// into the handler's context deadline and trace context; the caller's
// payload follows. Chunk and end payloads begin with a u32 server-load
// hint (published by the handler via SetStreamLoad, surfaced by
// ClientStream.Load) followed by the chunk bytes or stream trailer, so
// load feedback piggybacks on data frames instead of costing extra
// round trips. Responses echo an empty method name. A unary call is one
// request frame answered by one ok/error frame; a streaming call is one
// request frame answered by any number of chunk frames terminated by an
// end frame — or by an error frame, which is valid mid-stream and aborts
// the stream. A single TCP connection carries sequential calls; the
// client pools connections for concurrency. Every frame is metered
// individually, so the harness sees streamed bytes as they flow.
//
// Cancellation: Call and Stream take a context. While a call is in
// flight a watchdog goroutine waits on ctx.Done and poisons the
// connection deadline, waking any blocked read/write; the connection is
// then discarded instead of pooled, so a cancelled call can never leak a
// half-drained stream back into the pool.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prestocs/internal/telemetry"
)

const (
	frameRequest = 0
	frameOK      = 1
	frameError   = 2
	frameChunk   = 3
	frameEnd     = 4
	// frameCredit flows client -> server during a streaming call: one
	// empty credit frame per chunk frame consumed. The server holds at
	// most StreamWindow unacknowledged chunks in flight, so a slow Recv
	// caller pauses the producer instead of ballooning socket buffers
	// and storage-node memory.
	frameCredit   = 5
	maxFrameBytes = 1 << 30

	// reqHeaderSize prefixes every request payload: u64 unix-micro
	// deadline (0 = none), u64 trace ID and u64 parent span ID (0 = no
	// trace).
	reqHeaderSize = 24
)

// maxFrameLimit is the enforced frame-length ceiling, an atomic so tests
// can exercise the oversize path without allocating gigabyte payloads
// (and without racing still-draining server goroutines).
var maxFrameLimit atomic.Uint32

func init() { maxFrameLimit.Store(maxFrameBytes) }

// ErrShutdown reports use of a closed client or server.
var ErrShutdown = errors.New("rpc: connection shut down")

// Handler processes one request payload and returns the response payload.
// The context carries the caller's deadline (propagated in the frame
// header) and is cancelled when the server shuts down.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// Meter accumulates transport byte counts. Both client and server update
// their own meters; the harness reads the client side as "data movement".
type Meter struct {
	sent, received atomic.Int64
	calls          atomic.Int64
}

// Sent returns total payload bytes sent.
func (m *Meter) Sent() int64 { return m.sent.Load() }

// Received returns total payload bytes received.
func (m *Meter) Received() int64 { return m.received.Load() }

// Calls returns the number of completed calls.
func (m *Meter) Calls() int64 { return m.calls.Load() }

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.sent.Store(0)
	m.received.Store(0)
	m.calls.Store(0)
}

// writeFrame ships one frame. Oversized frames are rejected before any
// byte hits the wire — writing a frame the peer's readFrame would refuse
// poisons the connection with a confusing remote "bad frame length", so
// the clear error happens on the sending side and the connection stays
// usable. On partial header or payload writes the bytes actually written
// are still returned, so transport meters never undercount.
func writeFrame(w io.Writer, kind byte, method string, payload []byte) (int64, error) {
	frameLen := 1 + 4 + len(method) + len(payload)
	if uint64(frameLen) > uint64(maxFrameLimit.Load()) {
		return 0, oversizeError(frameLen)
	}
	hdr := make([]byte, 0, 9+len(method))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(frameLen))
	hdr = append(hdr, kind)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(method)))
	hdr = append(hdr, method...)
	n, err := w.Write(hdr)
	if err != nil {
		return int64(n), err
	}
	pn, err := w.Write(payload)
	if err != nil {
		return int64(n + pn), err
	}
	return int64(4 + frameLen), nil
}

// streamLoadSize prefixes every chunk and end frame payload: a u32
// server-load hint the client surfaces via ClientStream.Load.
const streamLoadSize = 4

// writeStreamFrame ships one chunk or end frame, prefixing the payload
// with the u32 load hint without copying the payload (the prefix rides
// in the header buffer; method is always empty on response frames).
func writeStreamFrame(w io.Writer, kind byte, load uint32, payload []byte) (int64, error) {
	frameLen := 1 + 4 + streamLoadSize + len(payload)
	if uint64(frameLen) > uint64(maxFrameLimit.Load()) {
		return 0, oversizeError(frameLen)
	}
	hdr := make([]byte, 0, 9+streamLoadSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(frameLen))
	hdr = append(hdr, kind)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // empty method
	hdr = binary.LittleEndian.AppendUint32(hdr, load)
	n, err := w.Write(hdr)
	if err != nil {
		return int64(n), err
	}
	pn, err := w.Write(payload)
	if err != nil {
		return int64(n + pn), err
	}
	return int64(4 + frameLen), nil
}

// writeRequest sends a request frame whose payload is prefixed with the
// caller's deadline and trace context so the server can honor both on
// its side of the wire.
func writeRequest(w io.Writer, method string, deadline time.Time, trace telemetry.TraceID, parent telemetry.SpanID, payload []byte) (int64, error) {
	body := make([]byte, 0, reqHeaderSize+len(payload))
	var micros uint64
	if !deadline.IsZero() {
		micros = uint64(deadline.UnixMicro())
	}
	body = binary.LittleEndian.AppendUint64(body, micros)
	body = binary.LittleEndian.AppendUint64(body, uint64(trace))
	body = binary.LittleEndian.AppendUint64(body, uint64(parent))
	body = append(body, payload...)
	return writeFrame(w, frameRequest, method, body)
}

// splitRequest strips the deadline + trace prefix from a request payload.
func splitRequest(payload []byte) (time.Time, telemetry.TraceID, telemetry.SpanID, []byte, error) {
	if len(payload) < reqHeaderSize {
		return time.Time{}, 0, 0, nil, fmt.Errorf("rpc: request frame missing header")
	}
	micros := binary.LittleEndian.Uint64(payload[:8])
	trace := telemetry.TraceID(binary.LittleEndian.Uint64(payload[8:16]))
	parent := telemetry.SpanID(binary.LittleEndian.Uint64(payload[16:24]))
	var deadline time.Time
	if micros != 0 {
		deadline = time.UnixMicro(int64(micros))
	}
	return deadline, trace, parent, payload[reqHeaderSize:], nil
}

// frameReadStep is how much of a frame readFrame allocates on the word of
// the length prefix alone. Beyond it the buffer doubles only once what has
// arrived fills it, so a peer that claims a gigabyte and sends four bytes
// costs a megabyte, and one frame never holds more than twice its bytes
// received (plus this). Frames up to the step — the result chunks and
// whole objects of ordinary traffic — are read into one exact allocation.
const frameReadStep = 1 << 20

// readFrame reads one frame. total reports bytes consumed from r even on
// error, so callers can keep their meters truthful and distinguish "the
// peer vanished before answering" (total == 0) from a mid-frame failure.
func readFrame(r io.Reader) (kind byte, method string, payload []byte, total int64, err error) {
	var lenBuf [4]byte
	n, err := io.ReadFull(r, lenBuf[:])
	if err != nil {
		return 0, "", nil, int64(n), err
	}
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen < 5 || frameLen > maxFrameLimit.Load() {
		return 0, "", nil, 4, fmt.Errorf("rpc: bad frame length %d", frameLen)
	}
	body := make([]byte, min(frameLen, frameReadStep))
	n, err = io.ReadFull(r, body)
	for err == nil && uint32(len(body)) < frameLen {
		grown := make([]byte, min(frameLen, 2*uint32(len(body))))
		copy(grown, body)
		var more int
		more, err = io.ReadFull(r, grown[len(body):])
		n += more
		body = grown
	}
	if err != nil {
		return 0, "", nil, int64(4 + n), err
	}
	kind = body[0]
	mLen := binary.LittleEndian.Uint32(body[1:5])
	if mLen > frameLen-5 {
		return 0, "", nil, int64(4 + frameLen), fmt.Errorf("rpc: bad method length %d", mLen)
	}
	method = string(body[5 : 5+mLen])
	payload = body[5+mLen:]
	return kind, method, payload, int64(4 + frameLen), nil
}

// DefaultStreamWindow is the per-stream chunk credit window when
// Server.StreamWindow is zero: the producer keeps at most this many
// chunks sent-but-unacknowledged before pausing.
const DefaultStreamWindow = 8

// Server dispatches incoming calls to registered handlers.
type Server struct {
	Meter Meter

	// StreamWindow bounds the chunks a streaming handler may have in
	// flight (sent but not yet credited by the client's Recv). Zero
	// selects DefaultStreamWindow; negative disables flow control. Set
	// before Listen.
	StreamWindow int

	// Metrics, when set, receives per-method server latency and byte
	// counts. Set before Listen.
	Metrics *telemetry.Registry
	// Tracer, when set, records a server span for every request that
	// carries trace context in its frame header; the span (and the
	// tracer) ride the handler context so deeper layers extend the
	// caller's trace. Set before Listen.
	Tracer *telemetry.Tracer

	mu       sync.RWMutex
	handlers map[string]Handler
	streams  map[string]StreamHandler
	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handlers:   make(map[string]Handler),
		streams:    make(map[string]StreamHandler),
		conns:      make(map[net.Conn]bool),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
}

func (s *Server) trackConn(conn net.Conn, add bool) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		if s.closed.Load() {
			return false
		}
		s.conns[conn] = true
		return true
	}
	delete(s.conns, conn)
	return true
}

// Register installs a handler for a method name. Registering after Serve
// has started is safe.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Listen binds to addr ("127.0.0.1:0" for an ephemeral port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// requestContext derives the handler context from the server lifetime
// and the deadline carried in the request frame.
func (s *Server) requestContext(deadline time.Time) (context.Context, context.CancelFunc) {
	if !deadline.IsZero() {
		return context.WithDeadline(s.baseCtx, deadline)
	}
	return context.WithCancel(s.baseCtx)
}

// streamWindow resolves the effective per-stream credit window.
func (s *Server) streamWindow() int {
	switch {
	case s.StreamWindow > 0:
		return s.StreamWindow
	case s.StreamWindow < 0:
		return 0 // flow control disabled
	default:
		return DefaultStreamWindow
	}
}

// serveConn is the per-connection reader loop, and it owns every read on
// conn. Unary calls are served inline (the protocol is sequential, so
// nothing else arrives while a handler runs). A streaming call is served
// in its own goroutine so this loop can keep reading the client's credit
// frames and route them to the stream's flow-control window; the next
// request is not dispatched until the active stream has fully finished.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn, true) {
		return // server already closed
	}
	defer s.trackConn(conn, false)
	var cur *streamFlow
	defer func() {
		if cur != nil {
			// The conn reader is going away (client gone or server
			// closing): wake a producer blocked on the window and wait for
			// the stream goroutine to let go of the conn.
			cur.breakFlow()
			<-cur.finished
		}
	}()
	for {
		kind, method, payload, n, err := readFrame(conn)
		s.Meter.received.Add(n)
		if err != nil {
			return
		}
		if kind == frameCredit {
			// One chunk consumed by the client's Recv. Credits for an
			// already-finished stream (in flight when the terminal frame
			// crossed them on the wire) are harmless no-ops.
			if cur != nil {
				cur.credit()
			}
			continue
		}
		s.Metrics.Counter(telemetry.MetricRPCServerRecvBytes, "method", method).Add(n)
		if kind != frameRequest {
			return
		}
		if cur != nil {
			// The client's next request orders after our terminal frame on
			// the wire, so this wait is immediate in practice.
			<-cur.finished
			usable := cur.usable
			cur = nil
			if !usable {
				return
			}
		}
		deadline, trace, parent, body, err := splitRequest(payload)
		if err != nil {
			return
		}
		ctx, cancel := s.requestContext(deadline)
		span := s.Tracer.StartRemote(trace, parent, "rpc.server "+method)
		if span != nil {
			ctx = telemetry.WithSpan(telemetry.WithTracer(ctx, s.Tracer), span)
		}
		if s.Metrics != nil {
			ctx = telemetry.WithRegistry(ctx, s.Metrics)
		}
		start := time.Now()
		s.mu.RLock()
		h, ok := s.handlers[method]
		sh, sok := s.streams[method]
		s.mu.RUnlock()
		if sok {
			flow := newStreamFlow(s.streamWindow(),
				s.Metrics.Gauge(telemetry.MetricRPCStreamInflight),
				s.Metrics.Counter(telemetry.MetricRPCStreamStalls))
			cur = flow
			ctx = withStreamLoad(ctx, &flow.load)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveStream(ctx, conn, sh, body, method, flow)
				cancel()
				s.observe(method, start)
				span.End()
			}()
			continue
		}
		var respKind byte
		var resp []byte
		if !ok {
			respKind = frameError
			resp = errorPayload(WithCode(fmt.Errorf("unknown method %q", method), CodeNotFound))
		} else if out, herr := h(ctx, body); herr != nil {
			respKind = frameError
			resp = errorPayload(herr)
			span.Event("error", herr.Error())
		} else {
			respKind = frameOK
			resp = out
		}
		cancel()
		sent, err := writeFrame(conn, respKind, "", resp)
		if err != nil && errors.Is(err, ErrFrameTooLarge) {
			// Nothing hit the wire; tell the client instead of wedging it.
			s.Metrics.Counter(telemetry.MetricRPCOversizeFrames).Inc()
			span.Event("oversize-response", err.Error())
			sent, err = writeFrame(conn, frameError, "", errorPayload(err))
		}
		s.Meter.sent.Add(sent)
		s.observe(method, start)
		span.End()
		if err != nil {
			return
		}
		s.Metrics.Counter(telemetry.MetricRPCServerSentBytes, "method", method).Add(sent)
		s.Meter.calls.Add(1)
	}
}

// observe records one served request's latency.
func (s *Server) observe(method string, start time.Time) {
	s.Metrics.Histogram(telemetry.MetricRPCServerLatency, "method", method).
		ObserveDuration(time.Since(start))
}

// Close stops the listener, cancels all in-flight handler contexts,
// tears down open connections (including idle pooled ones that would
// otherwise block in a read forever) and waits for serving goroutines to
// exit.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.baseCancel()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// Client issues unary calls to one server, pooling TCP connections.
type Client struct {
	Meter Meter

	// DialTimeout bounds connection establishment; zero means the
	// context deadline (if any) is the only bound.
	DialTimeout time.Duration

	// Metrics, when set, receives per-method call latency and byte
	// counts plus pool dial/discard/redial counters. Set before use.
	Metrics *telemetry.Registry

	addr   string
	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// Dial creates a client for the server at addr. Connections are created
// lazily.
func Dial(addr string) *Client {
	return &Client{addr: addr}
}

// Addr returns the address this client dials.
func (c *Client) Addr() string { return c.addr }

// getConn hands out a connection and reports whether it came from the
// idle pool. A pooled connection may have been closed by the peer while
// idle; callers that fail on one before reading any response bytes may
// safely retry once on a fresh connection (fresh == true skips the
// pool). Fresh conns bypass any poisoned deadline; pooled ones have
// theirs cleared here, since a bounded drain may have left a read
// deadline behind.
func (c *Client) getConn(ctx context.Context, fresh bool) (conn net.Conn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if n := len(c.idle); n > 0 && !fresh {
		conn = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.gaugeIdleLocked()
		c.mu.Unlock()
		conn.SetDeadline(time.Time{})
		return conn, true, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.DialTimeout}
	conn, derr := d.DialContext(ctx, "tcp", c.addr)
	if derr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, fmt.Errorf("rpc: dial %s: %w", c.addr, ctxErr)
		}
		return nil, false, &TransportError{Op: "dial", Err: derr}
	}
	c.Metrics.Counter(telemetry.MetricRPCPoolDials).Inc()
	conn.SetDeadline(time.Time{})
	return conn, false, nil
}

// gaugeIdleLocked publishes the pool depth; callers hold c.mu.
func (c *Client) gaugeIdleLocked() {
	c.Metrics.Gauge(telemetry.MetricRPCPoolIdle).Set(int64(len(c.idle)))
}

func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.gaugeIdleLocked()
}

// discard closes a connection that must not rejoin the pool (poisoned
// deadline, failed mid-call, half-drained stream) and counts it.
func (c *Client) discard(conn net.Conn) {
	conn.Close()
	c.Metrics.Counter(telemetry.MetricRPCPoolDiscards).Inc()
}

// IdleConns reports the number of pooled connections; tests use it to
// verify that cancelled calls discard rather than pool their connection.
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// watchConn arms a watchdog that poisons conn's deadline when ctx is
// cancelled, waking any blocked read or write. The returned stop
// function disarms the watchdog (idempotent) and reports ctx's error so
// the caller knows whether the connection may have been poisoned.
func watchConn(ctx context.Context, conn net.Conn) func() error {
	done := ctx.Done()
	if done == nil {
		return func() error { return nil }
	}
	stop := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-done:
			// A deadline in the past fails all pending and future I/O
			// on the conn immediately.
			conn.SetDeadline(time.Unix(1, 0))
		case <-stop:
		}
	}()
	var once sync.Once
	return func() error {
		once.Do(func() {
			close(stop)
			<-finished
		})
		return ctx.Err()
	}
}

// callError maps an I/O failure to either the context's error (when the
// watchdog fired) or a TransportError.
func callError(ctx context.Context, method, op string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("rpc: %s %s: %w", op, method, ctxErr)
	}
	return &TransportError{Method: method, Op: op, Err: err}
}

// Call performs one unary RPC, honoring ctx for dialing, sending and
// awaiting the response. The ctx deadline and trace context travel in
// the frame header so the server bounds its handler with the same
// deadline and extends the same trace. A stale pooled connection (the
// peer closed it while idle) that fails before any response bytes were
// read is transparently redialed once — the request is not yet
// observable as executed, so the retry is safe even for non-idempotent
// methods.
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "rpc.call "+method)
	defer span.End()
	start := time.Now()
	resp, err := c.callOnce(ctx, method, payload, false)
	if rd, ok := err.(*redialableError); ok {
		span.Event("redial", rd.err.Error())
		c.Metrics.Counter(telemetry.MetricRPCPoolRedials).Inc()
		resp, err = c.callOnce(ctx, method, payload, true)
	}
	if re, ok := err.(*redialableError); ok {
		err = re.err // second attempt exhausted; surface the real failure
	}
	h := c.Metrics.Histogram(telemetry.MetricRPCClientLatency, "method", method)
	h.ObserveDuration(time.Since(start))
	if err != nil {
		span.Event("error", err.Error())
		c.Metrics.Counter(telemetry.MetricRPCClientErrors, "method", method).Inc()
	}
	return resp, err
}

// redialableError wraps a failure on a stale pooled connection that
// happened before any response bytes were read: Call retries exactly
// once on a fresh connection.
type redialableError struct{ err error }

func (e *redialableError) Error() string { return e.err.Error() }
func (e *redialableError) Unwrap() error { return e.err }

// callOnce runs one attempt of a unary call on one connection.
func (c *Client) callOnce(ctx context.Context, method string, payload []byte, fresh bool) ([]byte, error) {
	conn, pooled, err := c.getConn(ctx, fresh)
	if err != nil {
		return nil, err
	}
	release := watchConn(ctx, conn)
	deadline, _ := ctx.Deadline()
	trace, parent := telemetry.Inject(ctx)
	sent, err := writeRequest(conn, method, deadline, trace, parent, payload)
	c.Meter.sent.Add(sent)
	c.Metrics.Counter(telemetry.MetricRPCClientSentBytes, "method", method).Add(sent)
	if err != nil {
		release()
		if errors.Is(err, ErrFrameTooLarge) {
			// Rejected before any byte hit the wire: the conn is clean.
			c.Metrics.Counter(telemetry.MetricRPCOversizeFrames).Inc()
			c.putConn(conn)
			return nil, err
		}
		c.discard(conn)
		err = callError(ctx, method, "send", err)
		if pooled && ctx.Err() == nil {
			return nil, &redialableError{err: err}
		}
		return nil, err
	}
	kind, _, resp, n, err := readFrame(conn)
	c.Meter.received.Add(n)
	c.Metrics.Counter(telemetry.MetricRPCClientRecvBytes, "method", method).Add(n)
	if err != nil {
		release()
		c.discard(conn)
		cerr := callError(ctx, method, "recv", err)
		if n == 0 && pooled && ctx.Err() == nil {
			// The peer hung up without a single response byte: the
			// request was never processed on a live connection.
			return nil, &redialableError{err: cerr}
		}
		return nil, cerr
	}
	c.Meter.calls.Add(1)
	if release() != nil {
		// The watchdog may have poisoned the deadline after the response
		// landed; the response is good but the conn is not poolable.
		c.discard(conn)
	} else {
		c.putConn(conn)
	}
	switch kind {
	case frameOK:
		return resp, nil
	case frameError:
		return nil, decodeRemoteError(method, resp)
	default:
		return nil, fmt.Errorf("rpc: unexpected frame kind %d", kind)
	}
}

// Close tears down pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
	return nil
}
