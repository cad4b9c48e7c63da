package ocsserver

import (
	"context"
	"fmt"
	"io"
	"time"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/objstore"
	"prestocs/internal/protowire"
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
	rpc       *rpc.Client
	retry     retry.Policy
	chunkRows int
}

// Option configures a Client.
type Option func(*Client)

// WithRetryPolicy replaces the default transient-failure retry policy.
// retry.None() disables retries.
func WithRetryPolicy(p retry.Policy) Option {
	return func(c *Client) { c.retry = p }
}

// WithChunkRows asks storage nodes to coalesce result chunks to at least
// n rows for this client's queries; 0 keeps the node's own default.
func WithChunkRows(n int) Option {
	return func(c *Client) { c.chunkRows = n }
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

// Execute request envelope fields. The plan travels in field 7, beside
// the client's chunk-rows preference in field 8.
const (
	execReqPlanField      = 7
	execReqChunkRowsField = 8
)

// encodeExecuteRequest wraps a marshalled plan and the client's
// chunk-rows preference into an ocs.Execute payload.
func encodeExecuteRequest(planBytes []byte, chunkRows int) []byte {
	e := protowire.NewEncoder()
	e.Bytes(execReqPlanField, planBytes)
	if chunkRows > 0 {
		e.Int64(execReqChunkRowsField, int64(chunkRows))
	}
	return e.Encoded()
}

// decodeExecuteRequest splits an ocs.Execute payload into plan bytes and
// the requested chunk rows. A payload that does not decode, or carries no
// plan field, is an error.
func decodeExecuteRequest(payload []byte) (planBytes []byte, chunkRows int, err error) {
	d := protowire.NewDecoder(payload)
	var rows int64
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return nil, 0, err
		}
		switch f {
		case execReqPlanField:
			planBytes, err = d.Bytes()
		case execReqChunkRowsField:
			rows, err = d.Int64()
		default:
			err = d.Skip(ty)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if planBytes == nil {
		return nil, 0, fmt.Errorf("execute request carries no plan (field %d)", execReqPlanField)
	}
	return planBytes, int(rows), nil
}

// Result is a decoded in-storage execution result.
type Result struct {
	Schema *types.Schema
	Pages  []*column.Page
	// Stats is the storage-side work the query performed.
	Stats objstore.WorkStats
	// ArrowBytes is the size of the serialized Arrow stream received.
	ArrowBytes int64
}

// ResultStream is an incremental in-storage execution result: the schema
// is available as soon as the first chunk lands, pages arrive one Next
// call at a time while the storage node is still scanning, and the work
// stats become available once Next returns io.EOF.
type ResultStream struct {
	cs     *rpc.ClientStream
	schema *types.Schema
	stats  objstore.WorkStats
	bytes  int64
	decode time.Duration
	done   bool
}

// ExecuteStream marshals the plan, ships it to OCS and returns the result
// stream. The caller must drain it to io.EOF or Close it. Opening the
// stream — up to and including the schema chunk — is retried on transient
// failure; once the schema has landed, failures surface to the caller,
// who decides between retry and fallback.
func (c *Client) ExecuteStream(ctx context.Context, plan *substrait.Plan) (*ResultStream, error) {
	planBytes, err := substrait.Marshal(plan)
	if err != nil {
		return nil, err
	}
	payload := encodeExecuteRequest(planBytes, c.chunkRows)
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
		rs = &ResultStream{cs: cs, schema: schema, bytes: int64(len(first))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Schema returns the result schema (available immediately).
func (rs *ResultStream) Schema() *types.Schema { return rs.schema }

// Next returns the next result page, or io.EOF once the stream ends
// cleanly, at which point Stats and ArrowBytes are final.
func (rs *ResultStream) Next() (*column.Page, error) {
	if rs.done {
		return nil, io.EOF
	}
	chunk, err := rs.cs.Recv()
	if err == io.EOF {
		rs.done = true
		if terr := rs.decodeTrailer(); terr != nil {
			return nil, terr
		}
		return nil, io.EOF
	}
	if err != nil {
		rs.done = true
		return nil, err
	}
	rs.bytes += int64(len(chunk))
	start := time.Now()
	page, err := arrowlite.DecodeBatchMsg(chunk, rs.schema)
	rs.decode += time.Since(start)
	return page, err
}

// DecodeTime is the cumulative wall time spent deserializing Arrow batch
// messages, a subset of the time Next calls take; the connector reports
// it as the arrow_deserialize stage of the scan span.
func (rs *ResultStream) DecodeTime() time.Duration { return rs.decode }

// decodeTrailer reads the end-frame trailer: the node's WorkStats message
// in field 1.
func (rs *ResultStream) decodeTrailer() error {
	d := protowire.NewDecoder(rs.cs.Trailer())
	for !d.Done() {
		f, ty, err := d.Next()
		if err != nil {
			return err
		}
		if f != 1 {
			if err := d.Skip(ty); err != nil {
				return err
			}
			continue
		}
		msg, err := d.Bytes()
		if err != nil {
			return err
		}
		if rs.stats, err = objstore.DecodeStats(msg); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the storage-side work stats; final after Next returned
// io.EOF.
func (rs *ResultStream) Stats() objstore.WorkStats { return rs.stats }

// ArrowBytes returns the Arrow payload bytes received so far.
func (rs *ResultStream) ArrowBytes() int64 { return rs.bytes }

// TryDrain consumes the remainder of the stream within the given budget
// so the trailer — and with it the storage-side Stats — becomes final
// even when the caller stops early (a LIMIT satisfied mid-stream). It
// reports whether the clean end of stream was reached; drained chunk
// bytes count toward ArrowBytes since they did cross the network.
func (rs *ResultStream) TryDrain(maxChunks int, timeout time.Duration) bool {
	if rs.done {
		return true
	}
	n, ok := rs.cs.TryDrain(maxChunks, timeout)
	rs.bytes += n
	if !ok {
		return false
	}
	rs.done = true
	return rs.decodeTrailer() == nil
}

// Close releases the stream; if it has not been drained the underlying
// connection is discarded.
func (rs *ResultStream) Close() error {
	rs.done = true
	return rs.cs.Close()
}

// Execute runs a plan and buffers the whole result, draining the stream.
// Kept for callers that want the materialized form; the connector's page
// source consumes ExecuteStream directly.
func (c *Client) Execute(ctx context.Context, plan *substrait.Plan) (*Result, error) {
	rs, err := c.ExecuteStream(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	var pages []*column.Page
	for {
		page, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		pages = append(pages, page)
	}
	return &Result{Schema: rs.Schema(), Pages: pages, Stats: rs.Stats(), ArrowBytes: rs.ArrowBytes()}, nil
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
