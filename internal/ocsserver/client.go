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
// unreachable frontend or node, connection killed before the first result
// chunk — are retried here, under retry.Do: the frontend relays each call
// once, so this is the one retry loop on the path.
//
// The object operations (Put, Get, List, Delete, and Close and Meter) are
// those of the embedded object client, built over this client's connection
// pool: the frontend routes the object protocol, the S3 Select baseline
// (Select) included, to the node that holds each object.
type Client struct {
	*objstore.Client
	rpc *rpc.Client
}

// Option configures a Client.
type Option func(*Client)

// WithMetrics attaches a metrics registry to the client's transport, so
// per-method RPC latency, byte and pool counters are recorded. Tracing
// needs no option: the rpc client picks the tracer up from each call's
// context.
func WithMetrics(reg *telemetry.Registry) Option {
	return func(c *Client) { c.rpc.Metrics = reg }
}

// NewClient dials an OCS frontend.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{rpc: rpc.Dial(addr)}
	for _, opt := range opts {
		opt(c)
	}
	c.Client = objstore.NewClientOver(c.rpc)
	return c
}

// IdleConns reports pooled connections; tests use it to check that
// cancelled streams discard rather than pool their connection.
func (c *Client) IdleConns() int { return c.rpc.IdleConns() }

// ResultStream is an incremental in-storage execution result over the
// objects the plan lists: the schema is the plan's own, then each object's
// pages arrive one Next call at a time while the storage node is still
// scanning, each object ending in an io.EOF after which Stats holds that
// object's work.
type ResultStream struct {
	cs      *rpc.ClientStream
	schema  *types.Schema
	first   []byte // the chunk ExecuteStream read, until Next takes it
	objects int    // the objects the request listed
	ended   int    // the objects whose end has been read
	stats   objstore.WorkStats
	bytes   int64
	decode  time.Duration
	done    bool
}

// ExecuteStream validates the plan, ships it to OCS as the request payload
// and returns the result stream, whose schema is the one Validate derives
// — the storage node's own derivation, against which it checks every page
// it sends. The caller must drain the stream to its last object's io.EOF
// or Close it. Opening the stream — up to and including its first chunk —
// is retried on transient failure; once a chunk has landed, failures
// surface to the caller, who decides between retry and fallback.
func (c *Client) ExecuteStream(ctx context.Context, plan *substrait.Plan) (*ResultStream, error) {
	schema, err := plan.Validate()
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("ocs: invalid plan: %w", err), rpc.CodeInvalid)
	}
	payload, err := substrait.Marshal(plan)
	if err != nil {
		return nil, err
	}
	objects := len(readRel(plan).Objects)
	var rs *ResultStream
	err = retry.Do(ctx, func() error {
		cs, err := c.rpc.Stream(ctx, MethodExecute, payload)
		if err != nil {
			return err
		}
		// Every listed object ends in a chunk of its own, so a stream
		// without one broke the protocol, which no retry heals.
		first, err := cs.Recv()
		if err != nil {
			cs.Close()
			if err == io.EOF {
				return fmt.Errorf("ocs: result stream ended before its first chunk")
			}
			return err
		}
		rs = &ResultStream{cs: cs, schema: schema, first: first, objects: objects, bytes: int64(len(first))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// Schema returns the result schema (available immediately).
func (rs *ResultStream) Schema() *types.Schema { return rs.schema }

// Next returns the next page of the current object, or io.EOF at that
// object's end chunk, at which point Stats holds its work. The call after
// an io.EOF reads the next object; once the last one has ended, every
// call returns io.EOF and ArrowBytes is final.
func (rs *ResultStream) Next() (*column.Page, error) {
	if rs.done {
		return nil, io.EOF
	}
	chunk := rs.first
	rs.first = nil
	if chunk == nil {
		var err error
		if chunk, err = rs.cs.Recv(); err != nil {
			rs.done = true
			if err == io.EOF {
				return nil, fmt.Errorf("ocs: result stream ended after %d of %d objects", rs.ended, rs.objects)
			}
			return nil, err
		}
		rs.bytes += int64(len(chunk))
	}
	if isObjectEnd(chunk) {
		return nil, rs.endObject(chunk)
	}
	start := time.Now()
	page, err := arrowlite.DecodeBatchMsg(chunk, rs.schema)
	rs.decode += time.Since(start)
	return page, err
}

// endObject retires the current object at its object-end chunk and
// returns io.EOF. The last object's end is the last chunk, so endObject
// then reads the end frame, which returns the connection to the pool. A
// chunk that does not decode, or one past the last object's end, is an
// error, and the stream is closed.
func (rs *ResultStream) endObject(chunk []byte) error {
	var err error
	if rs.stats, err = decodeObjectEnd(chunk); err == nil {
		rs.ended++
		if rs.ended < rs.objects {
			return io.EOF
		}
		err = rs.readEnd()
	}
	rs.done = true
	if err != nil {
		rs.cs.Close()
		return err
	}
	return io.EOF
}

// readEnd reads the end frame that must follow the last object's end.
func (rs *ResultStream) readEnd() error {
	chunk, err := rs.cs.Recv()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	rs.bytes += int64(len(chunk))
	return fmt.Errorf("ocs: chunk after the request's %d objects", rs.objects)
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
	if first := rs.first; first != nil {
		rs.first = nil
		if isObjectEnd(first) {
			return rs.endObject(first) == io.EOF
		}
	}
	var endErr error
	n, ok := rs.cs.TryDrain(maxChunks, timeout, func(chunk []byte) bool {
		if !isObjectEnd(chunk) {
			return false
		}
		endErr = rs.endObject(chunk)
		return true
	})
	rs.bytes += n
	if !ok || endErr == nil {
		// Out of budget, or the stream ended without this object's end.
		rs.Close()
		return false
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
	// ScanPool sizes each node's scan pool (0 = the cost-model
	// storage-node core count).
	ScanPool int
	// StreamWindow sets the per-stream credit window on every node and
	// the frontend (0 = rpc.DefaultStreamWindow).
	StreamWindow int
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
