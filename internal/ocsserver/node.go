package ocsserver

import (
	"context"
	"fmt"
	"sync"

	"prestocs/internal/arrowlite"
	"prestocs/internal/cache"
	"prestocs/internal/column"
	"prestocs/internal/objstore"
	"prestocs/internal/protowire"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// NodeMethodExecute is the one method a storage node adds to the object
// protocol (objstore.Method*), which it serves with objstore's handlers.
const NodeMethodExecute = "ocsnode.Execute"

// StorageNode is an object store that can also execute a Substrait plan
// over an object it holds, with the embedded SQL engine, and that caches
// the footers and pages those plans read. In the paper this is the
// resource-constrained 16-core node; the cost model prices the WorkStats
// it reports with that profile.
type StorageNode struct {
	ID    int
	store *objstore.Store
	rpc   *rpc.Server

	// ScanPool sizes the row-group scan worker pool; 0 selects the
	// cost-model storage-node core count, 1 forces sequential scans.
	// Set before the first query.
	ScanPool int
	// ChunkRows coalesces result pages until a stream chunk carries at
	// least this many rows; 0 streams one Arrow batch per row group.
	// Clients may override per query via the execute-request envelope.
	// Set before the first query.
	ChunkRows int
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
	Caches *cache.Storage

	// MaxBloomBytes caps the bloom-filter bit arrays a pushed plan may
	// attach (per BloomFilterRel). Oversize filters are refused with an
	// invalid-plan error — the engine strips the filter and retries rather
	// than shipping megabytes of bits to every split. 0 selects
	// DefaultMaxBloomBytes; negative disables the cap. Set before Listen.
	MaxBloomBytes int

	// sched is the node-wide fair-share scan scheduler: one worker pool
	// (sized by the first query's resolved ScanPool) round-robining
	// row-group tasks across all active queries, so a heavy scan cannot
	// starve small selective ones.
	sched *scanScheduler

	faultMu   sync.Mutex
	execFault error
}

// SetExecuteFault injects err as the outcome of every subsequent Execute
// call until cleared with nil. It simulates the computational unit of an
// OCS node being down while the object path (Put/Get/List) stays healthy
// — the degradation scenario where the engine must fall back to the
// paper's no-pushdown configuration.
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
		Caches: cache.NewStorage(cache.DefaultFooterCacheBytes, cache.DefaultPageCacheBytes),
		sched:  newScanScheduler(), // vet-concurrency:allow the node-wide scheduler, shared by every query
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

// Listen binds the node's RPC server.
func (n *StorageNode) Listen(addr string) (string, error) {
	n.rpc.Metrics = n.Metrics
	n.rpc.Tracer = n.Tracer
	n.rpc.StreamWindow = n.StreamWindow
	n.Caches.Instrument(n.Metrics, "node", n.nodeLabel())
	return n.rpc.Listen(addr)
}

// nodeLabel is the metric label value identifying this node.
func (n *StorageNode) nodeLabel() string { return fmt.Sprintf("node%d", n.ID) }

// Close shuts the node down: the RPC server first (draining in-flight
// handlers, whose scan queues empty through the scheduler), then the
// scan workers.
func (n *StorageNode) Close() error {
	err := n.rpc.Close()
	n.sched.close()
	return err
}

// DefaultMaxBloomBytes is the bloom bit-array cap applied when
// MaxBloomBytes is zero: 256 KiB holds ~200k build keys at the default
// 10 bits/key, well past the broadcast-join threshold, while keeping a
// degenerate plan from shipping an arbitrarily large array per split.
const DefaultMaxBloomBytes = 256 << 10

// checkBloomSize enforces MaxBloomBytes on every BloomFilterRel in the
// plan. The error is CodeOverLimit — not transient, and not the plan's
// fault — so the connector retries without the filter instead of falling
// back off pushdown entirely. Only the RPC path enforces the cap: local replay
// (ExecuteLocalStream) runs whatever the engine already committed to.
func (n *StorageNode) checkBloomSize(plan *substrait.Plan) error {
	limit := n.MaxBloomBytes
	if limit == 0 {
		limit = DefaultMaxBloomBytes
	}
	if limit < 0 {
		return nil
	}
	var reject error
	substrait.WalkRels(plan.Root, func(r substrait.Rel) {
		if b, ok := r.(*substrait.BloomFilterRel); ok && len(b.Bits) > limit && reject == nil {
			reject = rpc.WithCode(fmt.Errorf("node %d: bloom filter %d bytes exceeds cap %d", n.ID, len(b.Bits), limit), rpc.CodeOverLimit)
		}
	})
	return reject
}

// handleExecute parses a Substrait plan, runs it locally and streams the
// result: chunk 0 is an arrowlite schema message, every further chunk is
// one arrowlite record-batch message, and the end-frame trailer carries
// the work stats. Batches leave the node as the executor produces them,
// so the engine consumes row group 1 while row group N is still being
// scanned. Errors after the first chunk surface as mid-stream error
// frames, which the client turns into query errors.
func (n *StorageNode) handleExecute(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
	if fault := n.executeFault(); fault != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: %w", n.ID, fault), rpc.CodeUnavailable)
	}
	ctx, span := telemetry.StartSpan(ctx, "node.execute")
	defer span.End()
	span.SetAttr("node", n.nodeLabel())
	chunksSent := n.Metrics.Counter(telemetry.MetricNodeChunksSent, "node", n.nodeLabel())
	chunkBytes := n.Metrics.Counter(telemetry.MetricNodeChunkBytes, "node", n.nodeLabel())
	planBytes, chunkRows, err := decodeExecuteRequest(payload)
	if chunkRows <= 0 {
		chunkRows = n.ChunkRows
	}
	var plan *substrait.Plan
	if err == nil {
		plan, err = substrait.Unmarshal(planBytes)
	}
	if err != nil {
		return nil, rpc.WithCode(fmt.Errorf("node %d: invalid plan: %w", n.ID, err), rpc.CodeInvalid)
	}
	if err := n.checkBloomSize(plan); err != nil {
		return nil, err
	}
	ls, err := open(n.store, plan, openOpts{scanPool: n.ScanPool, sched: n.sched, caches: n.Caches, ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", n.ID, err)
	}
	defer ls.Close()

	buf := arrowlite.GetBuf()
	defer arrowlite.PutBuf(buf)
	sentSchema := false
	sendSchema := func(schema *types.Schema) error {
		msg, err := arrowlite.AppendSchema((*buf)[:0], schema)
		if err != nil {
			return err
		}
		*buf = msg
		sentSchema = true
		chunksSent.Inc()
		chunkBytes.Add(int64(len(msg)))
		return send(msg)
	}
	sendBatch := func(page *column.Page) error {
		msg, err := arrowlite.AppendBatch((*buf)[:0], page)
		if err != nil {
			return err
		}
		*buf = msg
		chunksSent.Inc()
		chunkBytes.Add(int64(len(msg)))
		return send(msg)
	}

	var staged *column.Page // coalescing buffer when chunkRows > 0
	for {
		// A cancelled caller stops the scan between pages; the stream
		// error frame carries the context verdict back.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("node %d: %w", n.ID, err)
		}
		page, err := ls.Next()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n.ID, err)
		}
		if page == nil {
			break
		}
		if !sentSchema {
			if err := sendSchema(page.Schema); err != nil {
				return nil, err
			}
		}
		if chunkRows > 0 {
			if staged == nil {
				staged = column.NewPage(page.Schema)
				// Pages after a selective filter are small; reserve the
				// chunk up front so coalescing appends never regrow.
				staged.Reserve(chunkRows)
			}
			staged.AppendPage(page)
			if staged.NumRows() < chunkRows {
				continue
			}
			page, staged = staged, nil
		}
		if err := sendBatch(page); err != nil {
			return nil, err
		}
	}
	if staged != nil && staged.NumRows() > 0 {
		if err := sendBatch(staged); err != nil {
			return nil, err
		}
	}
	// Partial aggregation changes the output schema (it is still keys +
	// one column per measure, same names/kinds for our function set), so
	// the first page's schema is authoritative once a page exists; the
	// validated plan schema covers the zero-page case.
	if !sentSchema {
		if err := sendSchema(ls.planSchema); err != nil {
			return nil, err
		}
	}
	st := ls.Work()
	span.SetAttr("bytes_read", fmt.Sprint(st.BytesRead))
	span.SetAttr("rows_processed", fmt.Sprint(st.RowsProcessed))
	e := protowire.NewEncoder()
	e.Bytes(1, objstore.EncodeStats(*st))
	return e.Encoded(), nil
}
