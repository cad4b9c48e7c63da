// Package telemetry is the stdlib-only observability layer: distributed
// tracing (trace/span IDs with parent links, propagated across the RPC
// frame header) and a metrics registry (counters, gauges, log-scale
// histograms) shared by the engine, the connector, the RPC transport and
// the OCS servers. One query produces a single trace spanning
// connector → rpc client → frontend → storage-node scan pool →
// per-row-group scan; the same registry backs the harness's Table-3
// numbers and the live /metrics endpoint, so the two can never disagree
// (DESIGN.md §5c).
//
// Everything is nil-safe: a nil *Tracer, *Span or *Registry is a no-op,
// so instrumented code paths never branch on "is telemetry enabled" and
// the disabled-tracing overhead stays within the noise floor (see
// BenchmarkTracingOverhead).
package telemetry

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// TraceID identifies one end-to-end operation (one query). Zero means
// "no trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no parent".
type SpanID uint64

// Event is a timestamped annotation on a span (a retry attempt, a
// pushdown fallback, a redial).
type Event struct {
	When time.Time
	Name string
	Attr string // optional free-form detail
}

// Span is one timed stage of a trace. Spans are created through a Tracer
// (or StartSpan) and delivered to the tracer's ring buffer on End.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time

	tracer *Tracer

	mu     sync.Mutex
	end    time.Time
	events []Event
	attrs  map[string]string
	durs   map[string]time.Duration
	ended  bool
}

// Event records an annotation. Safe on a nil span.
func (s *Span) Event(name, attr string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, Event{When: time.Now(), Name: name, Attr: attr})
	s.mu.Unlock()
}

// SetAttr attaches a string attribute. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// AddDuration accumulates a named duration on the span. Stages that are
// interleaved with other work (per-chunk transfer waits, Arrow
// deserialize) are recorded this way instead of as thousands of
// sub-spans; the query profile reports them next to the span tree.
// Safe on a nil span.
func (s *Span) AddDuration(key string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.durs == nil {
		s.durs = make(map[string]time.Duration)
	}
	s.durs[key] += d
	s.mu.Unlock()
}

// End finishes the span and delivers it to its tracer. Idempotent and
// safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.record(s.view())
	}
}

// view snapshots the span for the tracer's buffer.
func (s *Span) view() SpanView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SpanView{
		Trace:  s.Trace,
		ID:     s.ID,
		Parent: s.Parent,
		Name:   s.Name,
		Start:  s.Start,
		End:    s.end,
		Events: append([]Event(nil), s.events...),
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for k, val := range s.attrs {
			v.Attrs[k] = val
		}
	}
	if len(s.durs) > 0 {
		v.Durations = make(map[string]time.Duration, len(s.durs))
		for k, val := range s.durs {
			v.Durations[k] = val
		}
	}
	return v
}

// SpanView is an immutable completed span.
type SpanView struct {
	Trace     TraceID
	ID        SpanID
	Parent    SpanID
	Name      string
	Start     time.Time
	End       time.Time
	Events    []Event
	Attrs     map[string]string
	Durations map[string]time.Duration
}

// Duration is the span's wall time.
func (v SpanView) Duration() time.Duration { return v.End.Sub(v.Start) }

// Tracer collects completed spans into a bounded ring buffer. Each
// process component (engine, frontend, each storage node) owns one; a
// query's trace is the union of the spans its trace ID collected across
// all of them, exactly as in a distributed deployment.
type Tracer struct {
	mu    sync.Mutex
	buf   []SpanView
	next  int
	full  bool
	seed  *rand.Rand
	total int64
}

// DefaultTraceCapacity bounds a tracer's span ring buffer.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer retaining the last capacity completed spans
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		buf:  make([]SpanView, capacity),
		seed: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (t *Tracer) id() uint64 {
	for {
		v := t.seed.Uint64()
		if v != 0 {
			return v
		}
	}
}

// start creates a live span. trace == 0 allocates a fresh trace ID
// (a root span).
func (t *Tracer) start(trace TraceID, parent SpanID, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if trace == 0 {
		trace = TraceID(t.id())
	}
	id := SpanID(t.id())
	t.mu.Unlock()
	return &Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: time.Now(), tracer: t}
}

// StartRemote begins a span continuing a trace that arrived over the
// wire: the RPC server calls it with the trace and parent span IDs from
// the request frame header. Safe on a nil tracer.
func (t *Tracer) StartRemote(trace TraceID, parent SpanID, name string) *Span {
	if t == nil || trace == 0 {
		return nil
	}
	return t.start(trace, parent, name)
}

func (t *Tracer) record(v SpanView) {
	t.mu.Lock()
	t.buf[t.next] = v
	t.next = (t.next + 1) % len(t.buf)
	if t.next == 0 {
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns the retained completed spans, oldest first.
func (t *Tracer) Spans() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanView
	if t.full {
		out = append(out, t.buf[t.next:]...)
	}
	return append(out, t.buf[:t.next]...)
}

// TraceSpans returns the retained spans of one trace, in start order.
func (t *Tracer) TraceSpans(id TraceID) []SpanView {
	var out []SpanView
	for _, v := range t.Spans() {
		if v.Trace == id {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Total reports the lifetime completed-span count (spans may have been
// evicted from the ring).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Context plumbing. The tracer and the current span both travel in the
// context so deeply nested layers (retry loops, the rpc client) can
// create children without new parameters on every function.

type tracerKey struct{}
type spanKey struct{}
type registryKey struct{}

// WithTracer returns ctx carrying the tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the context's tracer (nil when absent).
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WithSpan returns ctx carrying span as the current span.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the context's current span (nil when absent).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithRegistry returns ctx carrying the metrics registry, so layers
// without explicit wiring (the retry loop) can still emit.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey{}, r)
}

// RegistryFrom extracts the context's registry (nil when absent).
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(registryKey{}).(*Registry)
	return r
}

// StartSpan begins a span under the context's tracer, as a child of the
// context's current span when one exists. With no tracer in ctx it
// returns (ctx, nil): every Span method is nil-safe, so callers never
// branch. The returned context carries the new span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var trace TraceID
	var parent SpanID
	if p := SpanFrom(ctx); p != nil {
		trace, parent = p.Trace, p.ID
	}
	s := t.start(trace, parent, name)
	return WithSpan(ctx, s), s
}

// Inject reads the wire propagation IDs for the context's current span:
// the rpc client writes them into the request frame header. (0, 0) when
// no span is active.
func Inject(ctx context.Context) (TraceID, SpanID) {
	s := SpanFrom(ctx)
	if s == nil {
		return 0, 0
	}
	return s.Trace, s.ID
}
