package ocsserver

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/objstore"
	"prestocs/internal/rpc"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// NodeMethodExecute is the one method a storage node adds to the object
// protocol (objstore.Method*), which it serves with objstore's handlers.
const NodeMethodExecute = "ocsnode.Execute"

// StorageNode is an object store — it serves the whole object protocol,
// the S3 Select baseline included — that can also execute a Substrait plan
// over an object it holds, with the embedded SQL engine, and that caches
// the footers and pages those plans read. In the paper this is the
// resource-constrained 16-core node; the cost model prices the WorkStats
// it reports with that profile.
type StorageNode struct {
	ID    int
	store *objstore.Store
	rpc   *rpc.Server

	// ScanPool bounds the row-group reads the node runs at once, across
	// all its queries; 0 selects the cost-model storage-node core count.
	// Set before Listen.
	ScanPool int
	// StreamWindow bounds unacknowledged stream chunks per query (the
	// credit window): a slow reader stalls the producer after this many
	// chunks instead of buffering the scan in node memory. 0 selects
	// rpc.DefaultStreamWindow. Set before Listen.
	StreamWindow int

	// Metrics receives transport, chunk-throughput and scan-pool metrics;
	// Tracer continues traces arriving in request headers, covering the
	// node's execute handler and per-row-group scans. Both are optional
	// and must be set before Listen.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer

	// Caches holds the node's footer and hot-page caches (DESIGN.md §6).
	// NewStorageNode installs defaults; replace (or nil out) before the
	// first query to resize or disable. Listen binds its counters to
	// Metrics under this node's label.
	Caches *scan.Caches

	// pool is the node's scan pool (newScanPool), built by Listen from
	// ScanPool and shared by every query's row-group reads.
	pool chan struct{}

	faultMu   sync.Mutex
	execFault error
}

// SetExecuteFault injects err as the outcome of every subsequent Execute
// call until cleared with nil. It simulates the computational unit of an
// OCS node being down while the object path (Put/Get/List/Select) stays
// healthy — the degradation scenario where the engine must fall back to
// the paper's no-pushdown configuration.
func (n *StorageNode) SetExecuteFault(err error) {
	n.faultMu.Lock()
	n.execFault = err
	n.faultMu.Unlock()
}

func (n *StorageNode) executeFault() error {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	return n.execFault
}

// NewStorageNode creates a node with an empty store and default-sized
// footer and hot-page caches.
func NewStorageNode(id int) *StorageNode {
	n := &StorageNode{
		ID:     id,
		store:  objstore.NewStore(),
		rpc:    rpc.NewServer(),
		Caches: scan.NewCaches(scan.DefaultFooterCacheBytes, scan.DefaultPageCacheBytes),
	}
	n.rpc.RegisterStream(NodeMethodExecute, n.handleExecute)
	// An overwritten or deleted object releases its cached footers and
	// pages at once. The store generation in every cache key already makes
	// a stale hit impossible; this frees the budget early. Caches is read
	// per call because callers may replace it before the first query.
	objstore.Mount(n.rpc, n.store, func(bucket, key string) { n.Caches.InvalidateObject(bucket, key) })
	return n
}

// Store exposes the node's local store (for in-process setup in tests).
func (n *StorageNode) Store() *objstore.Store { return n.store }

// Listen builds the node's scan pool and binds its RPC server.
func (n *StorageNode) Listen(addr string) (string, error) {
	n.pool = newScanPool(n.ScanPool)
	n.rpc.Metrics = n.Metrics
	n.rpc.Tracer = n.Tracer
	n.rpc.StreamWindow = n.StreamWindow
	n.Caches.Instrument(n.Metrics, "node", n.nodeLabel())
	return n.rpc.Listen(addr)
}

// nodeLabel is the metric label value identifying this node.
func (n *StorageNode) nodeLabel() string { return fmt.Sprintf("node%d", n.ID) }

// Close shuts the node down: the RPC server drains its in-flight
// handlers, and each handler's teardown settles its scan's pending row
// groups and waits for its in-flight reads.
func (n *StorageNode) Close() error { return n.rpc.Close() }

// handleExecute parses a Substrait plan, runs it locally over each object
// its ReadRel lists, in turn, and streams the results: per object, one
// arrowlite record-batch message per page, then an object-end chunk
// carrying that object's work stats; the end frame's trailer is empty.
// The client derives the result schema from the plan it sent, as this
// handler does, and every page is checked against it here. Batches leave
// the node as the executor produces them, so the engine consumes row
// group 1 while row group N (or object k+1) is still being scanned. Each
// object is its own pipeline: nothing is merged across objects. Errors
// after the first chunk surface as mid-stream error frames, which the
// client turns into query errors.
func (n *StorageNode) handleExecute(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
	if fault := n.executeFault(); fault != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: %w", n.ID, fault), rpc.CodeUnavailable)
	}
	ctx, span := telemetry.StartSpan(ctx, "node.execute")
	defer span.End()
	span.SetAttr("node", n.nodeLabel())
	chunksSent := n.Metrics.Counter(telemetry.MetricNodeChunksSent, "node", n.nodeLabel())
	chunkBytes := n.Metrics.Counter(telemetry.MetricNodeChunkBytes, "node", n.nodeLabel())
	plan, planSchema, err := substrait.Decode(payload)
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: invalid plan: %w", n.ID, err), rpc.CodeInvalid)
	}
	objects := readRel(plan).Objects
	span.SetAttr("objects", strconv.Itoa(len(objects)))

	buf := arrowlite.GetBuf()
	defer arrowlite.PutBuf(buf)
	emit := func(msg []byte) error {
		*buf = msg
		chunksSent.Inc()
		chunkBytes.Add(int64(len(msg)))
		return send(msg)
	}
	sendBatch := func(page *column.Page, sel []int) error {
		if !page.Schema.Equal(planSchema) {
			return fmt.Errorf("node %d: page schema %s, plan schema %s", n.ID, page.Schema, planSchema)
		}
		msg, err := arrowlite.AppendBatch((*buf)[:0], page, sel...)
		if err != nil {
			return err
		}
		return emit(msg)
	}
	var total objstore.WorkStats
	for _, object := range objects {
		st, err := n.streamObject(ctx, plan, object, sendBatch)
		if err != nil {
			return nil, err
		}
		total.Add(st)
		if err := emit(appendObjectEnd((*buf)[:0], st)); err != nil {
			return nil, err
		}
	}
	span.SetAttr("bytes_read", fmt.Sprint(total.BytesRead))
	span.SetAttr("rows_processed", fmt.Sprint(total.RowsProcessed))
	return nil, nil
}

// streamObject runs the plan over one object, handing each page and its
// selection to send as they come, and returns the object's work.
func (n *StorageNode) streamObject(ctx context.Context, plan *substrait.Plan, object string, send func(*column.Page, []int) error) (objstore.WorkStats, error) {
	ls, err := open(n.store, plan, openOpts{object: object, pool: n.pool, caches: n.Caches, ctx: ctx})
	if err != nil {
		return objstore.WorkStats{}, fmt.Errorf("node %d: %w", n.ID, err)
	}
	defer ls.Close()
	for {
		// A cancelled caller stops the scan between pages; the stream
		// error frame carries the context verdict back.
		if err := ctx.Err(); err != nil {
			return objstore.WorkStats{}, fmt.Errorf("node %d: %w", n.ID, err)
		}
		page, sel, err := ls.Next()
		if err != nil {
			return objstore.WorkStats{}, fmt.Errorf("node %d: %w", n.ID, err)
		}
		if page == nil {
			return *ls.Work(), nil
		}
		if err := send(page, sel); err != nil {
			return objstore.WorkStats{}, err
		}
	}
}

// objectEndMarker opens an object-end chunk. A record batch message
// starts with its row count, and no page reaches 2^32 − 1 rows, so the
// four bytes tell the two chunk kinds apart.
var objectEndMarker = [4]byte{0xff, 0xff, 0xff, 0xff}

// appendObjectEnd appends to dst the object-end chunk of an object whose
// work was st: the marker, then the WorkStats message.
func appendObjectEnd(dst []byte, st objstore.WorkStats) []byte {
	return append(append(dst, objectEndMarker[:]...), objstore.EncodeStats(st)...)
}

// isObjectEnd reports whether a result chunk is an object-end chunk.
func isObjectEnd(chunk []byte) bool {
	return len(chunk) >= len(objectEndMarker) && [4]byte(chunk[:4]) == objectEndMarker
}

// decodeObjectEnd reads an object-end chunk's work stats; unknown fields
// of the WorkStats message are skipped.
func decodeObjectEnd(chunk []byte) (objstore.WorkStats, error) {
	if !isObjectEnd(chunk) {
		return objstore.WorkStats{}, fmt.Errorf("ocs: malformed object-end chunk")
	}
	return objstore.DecodeStats(chunk[len(objectEndMarker):])
}
