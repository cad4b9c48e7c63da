// Package rpc implements the framed TCP RPC transport that stands in for
// gRPC (see DESIGN.md §2). A server registers named methods; a client
// dials and calls them. Every frame that crosses the wire is metered,
// which is how the experiment harness measures data movement between the
// compute and storage layers.
//
// Frame layout (little-endian):
//
//	u32 frameLen | u8 kind | u32 methodLen | method | payload
//
// kind 0 = request, 2 = error (payload is one code byte followed by the
// error message), 3 = chunk, 4 = end (payload is the call's trailer), 5 =
// credit (empty). A request payload begins with a fixed header — u64
// deadline (unix microseconds, 0 = none), u64 trace ID and u64 parent span
// ID (0 = no trace) — that the server turns into the handler's context
// deadline and trace context; the caller's payload follows. Chunk and end
// payloads are the handler's bytes as they are. Responses echo an empty
// method name.
//
// There is one call type: a request frame answered by any number of chunk
// frames and then one terminal frame — an end frame, or an error frame,
// which is valid mid-stream. A unary call is a call whose handler sends no
// chunks; its reply is the end frame's trailer. The client owes one credit
// frame for every chunk Recv hands over, and the server's producer keeps
// at most StreamWindow chunks uncredited: with the window full, its send
// reads the credits off the connection itself. The client sends what it
// owes in one write, as back-to-back credit frames, just before a read
// that could block — one its reader does not already hold a whole frame
// for — so a reader that stops calling Recv stalls the producer at the
// window, and credits still owed at the end frame are never sent. Calls on
// one connection are sequential, so each connection is served on one
// goroutine that owns every read and write on it. Each connection has one
// buffered reader, owned with the connection — by that goroutine on the
// server, by the pool entry on the client — so a frame, its body and any
// credits queued behind it arrive in one read; a frame goes out in one
// vectored write. The client pools connections for concurrency; a call
// that ended in a terminal frame returns its connection to the pool when
// its reader holds no unread byte. Every frame is metered individually, so
// the harness sees streamed bytes as they flow.
//
// Cancellation: Call and Stream take a context. While a call is in
// flight a watchdog goroutine waits on ctx.Done and poisons the
// connection deadline, waking any blocked read/write; the connection is
// then discarded instead of pooled, so a cancelled call can never leak a
// half-drained stream back into the pool.
package rpc

import (
	"bufio"
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
	frameError   = 2
	frameChunk   = 3
	frameEnd     = 4
	// frameCredit flows client -> server during a call: one empty credit
	// frame per chunk frame consumed, those owed batched into one write.
	// The server holds at most StreamWindow unacknowledged chunks in
	// flight, so a slow Recv caller pauses the producer instead of
	// ballooning socket buffers and storage-node memory.
	frameCredit   = 5
	maxFrameBytes = 1 << 30

	// reqHeaderSize prefixes every request payload: u64 unix-micro
	// deadline (0 = none), u64 trace ID and u64 parent span ID (0 = no
	// trace).
	reqHeaderSize = 24
)

// creditFrame is the whole wire form of a credit: frame length 5, kind
// frameCredit, an empty method and no payload.
var creditFrame = []byte{5, 0, 0, 0, frameCredit, 0, 0, 0, 0}

// maxFrameLimit is the enforced frame-length ceiling, an atomic so tests
// can exercise the oversize path without allocating gigabyte payloads
// (and without racing still-draining server goroutines).
var maxFrameLimit atomic.Uint32

func init() { maxFrameLimit.Store(maxFrameBytes) }

// ErrShutdown reports use of a closed client or server.
var ErrShutdown = errors.New("rpc: connection shut down")

// Handler serves one unary call: it receives the request payload and
// returns the reply, which travels as the end frame's trailer. The context
// carries the caller's deadline (propagated in the frame header) and is
// cancelled when the server shuts down.
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

// wire is one end of a connection as its single owner uses it: every read
// goes through r, the connection's one buffered reader, and every write
// goes out through the embedded frameWriter to the raw conn.
type wire struct {
	conn net.Conn
	r    *bufio.Reader
	frameWriter
}

// readBufferSize sizes each connection's reader, bufio's default: a frame
// header, a small frame's body and the credits queued behind it fit one
// read, and a larger frame is read past the buffer into its own
// allocation. Every open connection holds one, at both ends.
const readBufferSize = 4096

// newWire gives conn its reader and its frame writer.
func newWire(conn net.Conn) *wire {
	return &wire{conn: conn, r: bufio.NewReaderSize(conn, readBufferSize), frameWriter: frameWriter{w: conn}}
}

// frameWriter ships frames to w, each in one write: the header is built in
// a scratch buffer reused from frame to frame, and header and payload go
// out together through net.Buffers, which is one writev when w is the raw
// *net.TCPConn — a wrapper type hides writev, and net.Buffers then falls
// back to one write per buffer. Its owner writes from one goroutine at a
// time.
type frameWriter struct {
	w    io.Writer
	hdr  []byte
	vec  net.Buffers
	pair [2][]byte
}

// writeFrame ships one frame. head — a request's header — rides in the
// frame-header buffer, so the payload goes out
// uncopied. Oversized frames are rejected before any byte hits the wire —
// writing a frame the peer's readFrame would refuse poisons the
// connection with a confusing remote "bad frame length", so the clear
// error happens on the sending side and the connection stays usable. On a
// partial write the bytes actually written are still returned, so
// transport meters never undercount.
func (fw *frameWriter) writeFrame(kind byte, method string, head, payload []byte) (int64, error) {
	frameLen := 1 + 4 + len(method) + len(head) + len(payload)
	if uint64(frameLen) > uint64(maxFrameLimit.Load()) {
		return 0, oversizeError(frameLen)
	}
	hdr := binary.LittleEndian.AppendUint32(fw.hdr[:0], uint32(frameLen))
	hdr = append(hdr, kind)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(method)))
	hdr = append(hdr, method...)
	hdr = append(hdr, head...)
	fw.hdr = hdr
	fw.pair = [2][]byte{hdr, payload}
	fw.vec = fw.pair[:]
	n, err := fw.vec.WriteTo(fw.w)
	fw.pair[1] = nil // the payload is the caller's
	return n, err
}

// writeRequest sends a request frame whose payload is prefixed with the
// caller's deadline and trace context so the server can honor both on
// its side of the wire.
func (fw *frameWriter) writeRequest(method string, deadline time.Time, trace telemetry.TraceID, parent telemetry.SpanID, payload []byte) (int64, error) {
	var micros uint64
	if !deadline.IsZero() {
		micros = uint64(deadline.UnixMicro())
	}
	var head [reqHeaderSize]byte
	binary.LittleEndian.PutUint64(head[0:], micros)
	binary.LittleEndian.PutUint64(head[8:], uint64(trace))
	binary.LittleEndian.PutUint64(head[16:], uint64(parent))
	return fw.writeFrame(frameRequest, method, head[:], payload)
}

// writeCredits sends n credits in one write, as n credit frames back to
// back.
func (fw *frameWriter) writeCredits(n int) (int64, error) {
	fw.hdr = fw.hdr[:0]
	for range n {
		fw.hdr = append(fw.hdr, creditFrame...)
	}
	wn, err := fw.w.Write(fw.hdr)
	return int64(wn), err
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

// holdsFrame reports whether r already holds one whole frame, so reading
// it cannot block. It looks at Buffered before it peeks: a Peek on an
// empty buffer would itself wait on the connection.
func holdsFrame(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < 4 {
		return false
	}
	prefix, _ := r.Peek(4)
	return uint64(n-4) >= uint64(binary.LittleEndian.Uint32(prefix))
}

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

// DefaultStreamWindow is the per-call chunk credit window when
// Server.StreamWindow is zero: the producer keeps at most this many
// chunks sent-but-unacknowledged before reading credits.
const DefaultStreamWindow = 8

// Server dispatches incoming calls to registered handlers.
type Server struct {
	Meter Meter

	// StreamWindow bounds the chunks a handler may have in flight (sent
	// but not yet credited by the client's Recv). Zero selects
	// DefaultStreamWindow. Set before Listen.
	StreamWindow int

	// Metrics, when set, receives per-method server latency and byte
	// counts. Set before Listen.
	Metrics *telemetry.Registry
	// Tracer, when set, records a server span for every request that
	// carries trace context in its frame header; the span (and the
	// tracer) ride the handler context so deeper layers extend the
	// caller's trace. Set before Listen.
	Tracer *telemetry.Tracer

	mu      sync.RWMutex
	methods map[string]StreamHandler
	ln      net.Listener
	wg      sync.WaitGroup
	closed  atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		methods:    make(map[string]StreamHandler),
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

// Register installs a unary handler for a method name: a call that sends
// no chunks. Registering after Serve has started is safe.
func (s *Server) Register(method string, h Handler) {
	s.RegisterStream(method, func(ctx context.Context, payload []byte, _ func([]byte) error) ([]byte, error) {
		return h(ctx, payload)
	})
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

// serveConn serves one connection's calls, in order, on this goroutine,
// which owns the connection's reader: it reads a request, runs its handler
// — whose send reads the client's credits off the connection when the
// window is full — and writes the terminal frame, then reads the next
// request. Credits that arrive after a call's terminal frame (in flight
// when it crossed them on the wire) are skipped.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn, true) {
		return // server already closed
	}
	defer s.trackConn(conn, false)
	w := newWire(conn)
	for {
		kind, method, payload, n, err := readFrame(w.r)
		s.Meter.received.Add(n)
		if err != nil {
			return
		}
		if kind == frameCredit {
			continue
		}
		s.Metrics.Counter(telemetry.MetricRPCServerRecvBytes, "method", method).Add(n)
		if kind != frameRequest || !s.serve(w, method, payload) {
			return
		}
	}
}

// serve runs one call and reports whether conn can carry the next.
func (s *Server) serve(w *wire, method string, payload []byte) bool {
	deadline, trace, parent, body, err := splitRequest(payload)
	if err != nil {
		return false
	}
	ctx, cancel := s.requestContext(deadline)
	defer cancel()
	span := s.Tracer.StartRemote(trace, parent, "rpc.server "+method)
	defer span.End()
	if span != nil {
		ctx = telemetry.WithSpan(telemetry.WithTracer(ctx, s.Tracer), span)
	}
	if s.Metrics != nil {
		ctx = telemetry.WithRegistry(ctx, s.Metrics)
	}
	defer s.observe(method, time.Now())
	call := s.newCall(w, method, deadline)
	s.mu.RLock()
	h, ok := s.methods[method]
	s.mu.RUnlock()
	var trailer []byte
	if ok {
		trailer, err = h(ctx, body, call.send)
	} else {
		err = WithCode(fmt.Errorf("unknown method %q", method), CodeNotFound)
	}
	return call.finish(span, trailer, err)
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

// Client issues calls to one server, pooling TCP connections.
type Client struct {
	Meter Meter

	// Metrics, when set, receives per-method call latency and byte
	// counts plus pool dial/discard/redial counters. Set before use.
	Metrics *telemetry.Registry

	addr string
	mu   sync.Mutex
	// idle holds pooled connections, each with the reader that owns its
	// inbound bytes: the two are never split.
	idle   []*wire
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
// idle; a call that fails on one before reading any response bytes may
// safely be replayed once on a fresh connection (fresh == true skips the
// pool). Fresh conns bypass any poisoned deadline; pooled ones have
// theirs cleared here, since a bounded drain may have left a read
// deadline behind.
func (c *Client) getConn(ctx context.Context, fresh bool) (w *wire, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if n := len(c.idle); n > 0 && !fresh {
		w = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.gaugeIdleLocked()
		c.mu.Unlock()
		w.conn.SetDeadline(time.Time{})
		return w, true, nil
	}
	c.mu.Unlock()
	var d net.Dialer // bounded by ctx alone
	conn, derr := d.DialContext(ctx, "tcp", c.addr)
	if derr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, false, fmt.Errorf("rpc: dial %s: %w", c.addr, ctxErr)
		}
		return nil, false, &TransportError{Op: "dial", Err: derr}
	}
	c.Metrics.Counter(telemetry.MetricRPCPoolDials).Inc()
	conn.SetDeadline(time.Time{})
	return newWire(conn), false, nil
}

// gaugeIdleLocked publishes the pool depth; callers hold c.mu.
func (c *Client) gaugeIdleLocked() {
	c.Metrics.Gauge(telemetry.MetricRPCPoolIdle).Set(int64(len(c.idle)))
}

func (c *Client) putConn(w *wire) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		w.conn.Close()
		return
	}
	c.idle = append(c.idle, w)
	c.gaugeIdleLocked()
}

// discard closes a connection that must not rejoin the pool (poisoned
// deadline, failed mid-call, half-drained stream, unread bytes behind a
// terminal frame) and counts it.
func (c *Client) discard(w *wire) {
	w.conn.Close()
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

// Call performs one unary call: it opens the call, expects the end frame
// with no chunk before it, and returns the trailer. The ctx deadline and
// trace context travel in the frame header so the server bounds its
// handler with the same deadline and extends the same trace. A stale
// pooled connection is redialed once, as for Stream.
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	st, err := c.open(ctx, "rpc.call ", method, payload)
	if err != nil {
		return nil, err
	}
	if _, err := st.Recv(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("rpc: %s answered a unary call with a chunk", method)
			st.fail(err)
		}
		return nil, err
	}
	return st.Trailer(), nil
}

// Close tears down pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, w := range c.idle {
		w.conn.Close()
	}
	c.idle = nil
	return nil
}
