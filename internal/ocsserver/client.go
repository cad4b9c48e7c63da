package ocsserver

import (
	"context"
	"fmt"
	"io"
	"time"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/objstore"
	"prestocs/internal/retry"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Client is the application-side handle to an OCS frontend. The
// Presto-OCS connector's PageSourceProvider holds one of these. All
// calls take a context: its deadline travels to the frontend (and on to
// the storage node) in the RPC frame header, and cancelling it abandons
// in-flight work and discards the connection. Transient failures —
// unreachable frontend, connection killed before the first result chunk
// — are retried under the client's retry policy.
//
// The object operations (Put, Get, List, Delete, and Close and Meter) are
// those of the embedded object client, built over this client's connection
// pool and retry policy: the frontend serves the object protocol like any
// object server. (It does not serve obj.Select; Select answers NotFound.)
type Client struct {
	*objstore.Client
	rpc   *rpc.Client
	retry retry.Policy
}

// Option configures a Client.
type Option func(*Client)

// WithRetryPolicy replaces the default transient-failure retry policy.
// retry.None() disables retries.
func WithRetryPolicy(p retry.Policy) Option {
	return func(c *Client) { c.retry = p }
}

// WithMetrics attaches a metrics registry to the client's transport, so
// per-method RPC latency, byte and pool counters are recorded. Tracing
// needs no option: the rpc client picks the tracer up from each call's
// context.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(c *Client) { c.rpc.Metrics = reg }
}

// NewClient dials an OCS frontend. With no options it behaves like the
// historical client plus a default retry policy.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{rpc: rpc.Dial(addr), retry: retry.Default()}
	for _, opt := range opts {
		opt(c)
	}
	c.Client = objstore.NewClientOver(c.rpc, c.retry)
	return c
}

// IdleConns reports pooled connections; tests use it to check that
// cancelled streams discard rather than pool their connection.
func (c *Client) IdleConns() int { return c.rpc.IdleConns() }

// ResultStream is an incremental in-storage execution result over the
// objects the plan lists: the schema is available as soon as the first
// chunk lands, then each object's pages arrive one Next call at a time
// while the storage node is still scanning, each object ending in an
// io.EOF after which Stats holds that object's work.
type ResultStream struct {
	cs      *rpc.ClientStream
	schema  *types.Schema
	objects int // the objects the request listed
	ended   int // the objects whose end has been read
	stats   objstore.WorkStats
	bytes   int64
	decode  time.Duration
	done    bool
}

// ExecuteStream marshals the plan, ships it to OCS as the request payload
// and returns the result stream. The caller must drain it to its last
// object's io.EOF or Close it. Opening the stream — up to and including
// the schema chunk — is retried on transient failure; once the schema has
// landed, failures surface to the caller, who decides between retry and
// fallback.
func (c *Client) ExecuteStream(ctx context.Context, plan *substrait.Plan) (*ResultStream, error) {
	payload, err := substrait.Marshal(plan)
	if err != nil {
		return nil, err
	}
	objects := len(readRel(plan).Objects)
	var rs *ResultStream
	err = c.retry.Do(ctx, func() error {
		cs, err := c.rpc.Stream(ctx, MethodExecute, payload)
		if err != nil {
			return err
		}
		// Chunk 0 is always the schema message.
		first, err := cs.Recv()
		if err != nil {
			cs.Close()
			if err == io.EOF {
				return retry.Permanent(fmt.Errorf("ocs: result stream ended before schema"))
			}
			return err
		}
		schema, err := arrowlite.DecodeSchemaMsg(first)
		if err != nil {
			cs.Close()
			return retry.Permanent(err)
		}
		rs = &ResultStream{cs: cs, schema: schema, objects: objects, bytes: int64(len(first))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Schema returns the result schema (available immediately).
func (rs *ResultStream) Schema() *types.Schema { return rs.schema }

// Next returns the next page of the current object, or io.EOF once that
// object has ended — at its object-end chunk, or at the end frame for the
// last object listed — at which point Stats holds its work. The call after
// an io.EOF reads the next object; once the last one has ended, every
// call returns io.EOF and ArrowBytes is final.
func (rs *ResultStream) Next() (*column.Page, error) {
	if rs.done {
		return nil, io.EOF
	}
	chunk, err := rs.cs.Recv()
	if err == io.EOF {
		return nil, rs.endObject(rs.cs.Trailer(), false)
	}
	if err != nil {
		rs.done = true
		return nil, err
	}
	rs.bytes += int64(len(chunk))
	if isObjectEnd(chunk) {
		return nil, rs.endObject(chunk, true)
	}
	start := time.Now()
	page, err := arrowlite.DecodeBatchMsg(chunk, rs.schema)
	rs.decode += time.Since(start)
	return page, err
}

// endObject retires the current object at its end — an object-end chunk,
// or the trailer — and returns io.EOF, or the error that the end is not
// where the request's object list puts it or does not decode.
func (rs *ResultStream) endObject(b []byte, chunk bool) error {
	var err error
	switch {
	case chunk && rs.ended+1 >= rs.objects:
		err = fmt.Errorf("ocs: object-end chunk after the request's %d objects", rs.objects)
	case !chunk && rs.ended+1 != rs.objects:
		err = fmt.Errorf("ocs: result stream ended after %d of %d objects", rs.ended+1, rs.objects)
	case chunk:
		rs.stats, err = decodeObjectEnd(b)
	default:
		rs.stats, err = decodeWorkTrailer(b)
	}
	if err != nil {
		rs.done = true
		rs.cs.Close()
		return err
	}
	rs.ended++
	rs.done = !chunk
	return io.EOF
}

// DecodeTime is the cumulative wall time spent deserializing Arrow batch
// messages, a subset of the time Next calls take; the connector reports
// it as the arrow_deserialize stage of the scan span.
func (rs *ResultStream) DecodeTime() time.Duration { return rs.decode }

// Stats returns the work of the object that ended last; final for an
// object once Next returned its io.EOF.
func (rs *ResultStream) Stats() objstore.WorkStats { return rs.stats }

// ArrowBytes returns the Arrow payload bytes received so far.
func (rs *ResultStream) ArrowBytes() int64 { return rs.bytes }

// TryDrain consumes the remainder of the current object within the given
// budget so its end — and with it the storage-side Stats — is read even
// when the caller stops early (a LIMIT satisfied mid-stream). It reports
// whether the object's end was reached, leaving the stream at the next
// object; otherwise the stream is closed. Drained chunk bytes count
// toward ArrowBytes since they did cross the network.
func (rs *ResultStream) TryDrain(maxChunks int, timeout time.Duration) bool {
	if rs.done {
		return true
	}
	var endErr error
	n, ok := rs.cs.TryDrain(maxChunks, timeout, func(chunk []byte) bool {
		if !isObjectEnd(chunk) {
			return false
		}
		endErr = rs.endObject(chunk, true)
		return true
	})
	rs.bytes += n
	if !ok {
		rs.done = true
		return false
	}
	if endErr == nil {
		endErr = rs.endObject(rs.cs.Trailer(), false)
	}
	return endErr == io.EOF
}

// Close releases the stream; if it has not been drained the underlying
// connection is discarded.
func (rs *ResultStream) Close() error {
	rs.done = true
	return rs.cs.Close()
}

// Cluster bundles an in-process OCS deployment: storage nodes plus a
// frontend, all listening on loopback TCP. Tests, examples and the
// experiment harness use it to stand up the full distributed topology.
type Cluster struct {
	Nodes    []*StorageNode
	Front    *Frontend
	Addr     string // frontend address
	NodeAddr []string

	// Metrics is the shared registry all components write into (nil when
	// the cluster was started without telemetry); Tracers maps component
	// labels ("frontend", "node0", ...) to their tracers, ready for
	// telemetry.NewMux.
	Metrics *telemetry.Registry
	Tracers map[string]*telemetry.Tracer
}

// ClusterConfig configures telemetry for an in-process cluster.
type ClusterConfig struct {
	// Metrics, when non-nil, receives transport, chunk and scan-pool
	// metrics from every component.
	Metrics *telemetry.Registry
	// Tracing gives every component its own tracer so a query's trace
	// connects across the frontend and all storage nodes.
	Tracing bool
	// ScanPool sizes each node's scan-scheduler worker pool (0 = the
	// cost-model storage-node core count).
	ScanPool int
	// StreamWindow sets the per-stream credit window on every node and
	// the frontend (0 = rpc.DefaultStreamWindow).
	StreamWindow int
	// MaxBloomBytes caps pushed bloom-filter sizes on every node
	// (0 = DefaultMaxBloomBytes, negative disables the cap).
	MaxBloomBytes int
}

// StartCluster launches n storage nodes and a frontend on loopback.
func StartCluster(n int) (*Cluster, error) {
	return StartClusterWith(n, ClusterConfig{})
}

// StartClusterWith is StartCluster with telemetry wiring: every component
// shares cfg.Metrics, and with cfg.Tracing each gets its own tracer,
// exposed in Cluster.Tracers.
func StartClusterWith(n int, cfg ClusterConfig) (*Cluster, error) {
	c := &Cluster{Metrics: cfg.Metrics, Tracers: map[string]*telemetry.Tracer{}}
	for i := 0; i < n; i++ {
		node := NewStorageNode(i)
		node.Metrics = cfg.Metrics
		node.ScanPool = cfg.ScanPool
		node.StreamWindow = cfg.StreamWindow
		node.MaxBloomBytes = cfg.MaxBloomBytes
		if cfg.Tracing {
			node.Tracer = telemetry.NewTracer(0)
			c.Tracers[node.nodeLabel()] = node.Tracer
		}
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
		c.NodeAddr = append(c.NodeAddr, addr)
	}
	front, err := NewFrontend(c.NodeAddr)
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	front.Metrics = cfg.Metrics
	front.StreamWindow = cfg.StreamWindow
	if cfg.Tracing {
		front.Tracer = telemetry.NewTracer(0)
		c.Tracers["frontend"] = front.Tracer
	}
	c.Front = front
	addr, err := c.Front.Listen("127.0.0.1:0")
	if err != nil {
		c.Shutdown()
		return nil, err
	}
	c.Addr = addr
	return c, nil
}

// Shutdown stops the frontend and all nodes.
func (c *Cluster) Shutdown() {
	if c.Front != nil {
		c.Front.Close()
	}
	for _, n := range c.Nodes {
		n.Close()
	}
}
