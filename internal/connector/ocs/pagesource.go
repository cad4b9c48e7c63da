package ocs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/plan"
	"prestocs/internal/retry"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Connector is the Presto-OCS connector instance for one catalog.
type Connector struct {
	catalog string
	meta    *metastore.Metastore
	client  *ocsserver.Client
	// ingester, when attached, enables the write path (engine.Ingest)
	// on this catalog.
	ingester *ingest.Ingester
}

// New creates a connector bound to a metastore and an OCS frontend.
func New(catalog string, meta *metastore.Metastore, client *ocsserver.Client) *Connector {
	return &Connector{catalog: catalog, meta: meta, client: client}
}

// Name implements engine.Connector.
func (c *Connector) Name() string { return c.catalog }

// TableHandle implements engine.Connector. The handle pins the metastore
// snapshot it resolved, freezing the object set a racing ingest or
// compaction could otherwise mutate out from under the scan; the engine
// releases the pin when the query finishes (see Handle.ReleaseSnapshot).
func (c *Connector) TableHandle(schema, table string) (plan.TableHandle, error) {
	t, pin, err := c.meta.GetPinned(schema, table)
	if err != nil {
		return nil, err
	}
	return &Handle{Table: t, pin: pin}, nil
}

// PlanOptimizer implements engine.Connector.
func (c *Connector) PlanOptimizer() engine.ConnectorPlanOptimizer {
	return &localOptimizer{conn: c}
}

// CreatePageSources implements engine.Connector: the paper's
// PageSourceProvider. What a split runs was decided at plan time, in every
// mode: without a pushdown spec each split is the paper's no-pushdown
// configuration (whole-object GET, local scan), opened one by one; with
// one, the extracted operators go to OCS as one Substrait plan listing
// every split's object, and one Arrow result stream comes back, cut into
// one source per object at the object's end (requestGroup). Either way
// the first split opens now.
func (c *Connector) CreatePageSources(ctx context.Context, handle plan.TableHandle, splits []engine.Split, stats *engine.ScanStats) ([]exec.Operator, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	if h.Push.Empty() {
		return engine.OpenEach(ctx, h, splits, stats, func(ctx context.Context, _ plan.TableHandle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
			return engine.ScanWholeObject(ctx, c.client.Client, h.Table.Bucket, split.Object, h.Table.Columns, h.Projection, stats)
		})
	}
	g := &requestGroup{ctx: ctx, conn: c, h: h, schema: h.ScanSchema(), splits: splits, stats: stats}
	sources := make([]exec.Operator, len(splits))
	for k := range splits {
		sources[k] = &objectSource{g: g, k: k}
	}
	if len(sources) > 0 {
		if err := sources[0].(*objectSource).start(); err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// requestGroup is one leaf worker's share of a pushdown scan, served by
// one ocs.Execute request whose plan lists every split's object in order:
// one plan encode, one bloom filter on the wire, one stream. Its sources
// read the stream one after the other, each up to its object's end. When
// the stream breaks in object k, object k replays locally (streamPart.
// resume) and the objects after it reopen one request, lazily, once the
// next of them starts; an early Close drains object k to its end within a
// small budget or abandons the stream in the same way.
type requestGroup struct {
	ctx    context.Context
	conn   *Connector
	h      *Handle
	schema *types.Schema
	splits []engine.Split
	stats  *engine.ScanStats

	rs         *ocsserver.ResultStream // the open request, or nil
	at         int                     // the split rs's current object is
	prevBytes  int64
	prevDecode time.Duration
}

// open starts the request for splits k onward. A failure is returned,
// and the caller decides between the replay and the query error.
func (g *requestGroup) open(ctx context.Context, k int) error {
	objects := make([]string, len(g.splits)-k)
	for i, split := range g.splits[k:] {
		objects[i] = split.Object
	}
	irPlan, err := generatePlan(ctx, g.h, objects, g.stats)
	if err != nil {
		return err
	}
	// Transfer time is charged only while blocked waiting on storage
	// (stream open plus per-batch waits), so the Table 3 breakdown keeps
	// its meaning while residual operators overlap the scan.
	start := time.Now()
	openCtx, openSpan := telemetry.StartSpan(ctx, "connector.stream_open")
	openSpan.SetAttr("objects", strconv.Itoa(len(objects)))
	rs, err := g.conn.client.ExecuteStream(openCtx, irPlan)
	openSpan.End()
	if err != nil {
		return err
	}
	g.stats.AddTransfer(time.Since(start))
	g.rs, g.at, g.prevBytes, g.prevDecode = rs, k, 0, 0
	return nil
}

// ended retires the stream's current object; the stream is released once
// its last object has ended.
func (g *requestGroup) ended() {
	g.stats.AddStorageWork(g.rs.Stats())
	g.at++
	if g.at == len(g.splits) {
		g.abandon()
	}
}

// abandon releases the stream; the next split to start reopens one.
func (g *requestGroup) abandon() {
	if g.rs != nil {
		g.rs.Close()
		g.rs = nil
	}
}

func (g *requestGroup) accountBytes() {
	if b := g.rs.ArrowBytes(); b > g.prevBytes {
		g.stats.AddBytesMoved(b - g.prevBytes)
		g.prevBytes = b
	}
}

// generatePlan translates the extracted operators into Substrait IR over
// the given objects (timed for Table 3); ExecuteStream validates it.
func generatePlan(ctx context.Context, h *Handle, objects []string, stats *engine.ScanStats) (*substrait.Plan, error) {
	start := time.Now()
	_, span := telemetry.StartSpan(ctx, "connector.substrait_gen")
	defer span.End()
	irPlan, err := BuildSubstrait(h, objects...)
	if err != nil {
		return nil, err
	}
	stats.AddSubstraitGen(time.Since(start))
	return irPlan, nil
}

// present re-labels a result page under the handle's scan schema (names
// may differ in case only) after checking that its width is that schema's.
func present(page *column.Page, schema *types.Schema) (*column.Page, error) {
	if page.NumCols() != schema.Len() {
		return nil, fmt.Errorf("ocs: result has %d columns, scan schema %s", page.NumCols(), schema)
	}
	return &column.Page{Schema: schema, Vectors: page.Vectors}, nil
}

// objectSource is split k of a requestGroup; it starts on its first Next
// (split 0 at once). Under its own connector.scan span it serves its
// object's slice of the group's stream, which the sources before it,
// consumed in order, have left at object k; with no stream open it opens
// one for splits k onward. When that request cannot be opened for a
// transient reason even after the client's retries, it serves the
// object's local replay instead, recorded as a fallback.
type objectSource struct {
	g      *requestGroup
	k      int
	src    exec.Operator
	closed bool
}

func (o *objectSource) Schema() *types.Schema { return o.g.schema }

func (o *objectSource) start() error {
	g := o.g
	split := g.splits[o.k]
	// The scan span covers this split's whole pushdown lifetime; its
	// children are the Table-3 stages of a request the split opens
	// (Substrait generation, stream open) and its accumulated durations
	// the split's transfer waits and Arrow deserialize time. It passes to
	// the streamPart, which ends it at the object's end or on Close.
	ctx, span := telemetry.StartSpan(g.ctx, "connector.scan")
	span.SetAttr("object", split.Object)
	var src exec.Operator
	if g.rs == nil {
		if err := g.open(ctx, o.k); err != nil {
			if ctx.Err() != nil || !retry.Transient(err) {
				span.End()
				return fmt.Errorf("ocs: executing pushdown for %s: %w", split.Object, err)
			}
			span.Event("pushdown-fallback", err.Error())
			fb, err := g.conn.replaySource(ctx, g.h, split, g.stats, 0)
			span.End()
			if err != nil {
				return err
			}
			src = fb
		}
	}
	if src == nil {
		if g.h.Push.Bloom != nil {
			g.stats.AddJoinBloomSplit()
		}
		src = &streamPart{g: g, k: o.k, ctx: ctx, span: span}
	}
	o.src = src
	return nil
}

func (o *objectSource) Next() (*column.Page, error) {
	if o.closed {
		return nil, nil
	}
	if o.src == nil {
		if err := o.start(); err != nil {
			o.closed = true
			return nil, err
		}
	}
	return o.src.Next()
}

// Close releases what the source serves. A source closed before it
// started belongs to a worker that is quitting, so the rest of the
// group's stream is not wanted either.
func (o *objectSource) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	if o.src == nil {
		o.g.abandon()
		return nil
	}
	return exec.Close(o.src)
}

// streamPart is one object's slice of its group's result stream, adapted
// to an exec.Operator: pages up to the object's end. It accounts bytes
// moved, transfer-blocked time, deserialize work and storage-side stats
// incrementally as chunks land, and implements Close so the engine can
// release the object when a pipeline stops early. When the stream dies
// transiently mid-object it degrades to the raw-scan fallback, replaying
// the pushed operators over this object locally and skipping the rows
// already delivered (sound only while the pushed pipeline is
// order-deterministic).
type streamPart struct {
	g    *requestGroup
	k    int
	ctx  context.Context
	span *telemetry.Span

	rowsDelivered int64
	fb            exec.Operator
	done          bool
}

func (p *streamPart) Schema() *types.Schema { return p.g.schema }

func (p *streamPart) Next() (*column.Page, error) {
	if p.fb != nil {
		page, err := p.fb.Next()
		if page == nil {
			p.span.End()
		}
		return page, err
	}
	if p.done {
		return nil, nil
	}
	g := p.g
	start := time.Now()
	page, err := g.rs.Next()
	wall := time.Since(start)
	g.stats.AddTransfer(wall)
	// Split the wait between the wire and the decoder for the span: the
	// stats charge the whole wall as transfer (established Table-3
	// semantics), the span separates the deserialize share.
	decode := g.rs.DecodeTime() - g.prevDecode
	g.prevDecode = g.rs.DecodeTime()
	p.span.AddDuration("transfer_wait", wall-decode)
	p.span.AddDuration("arrow_deserialize", decode)
	g.accountBytes()
	if err == io.EOF {
		p.done = true
		g.ended()
		p.span.End()
		return nil, nil
	}
	if err != nil {
		if p.canFallBack(err) && p.resume(err) {
			return p.Next()
		}
		p.done = true
		g.abandon()
		p.span.Event("error", err.Error())
		p.span.End()
		return nil, fmt.Errorf("ocs: pushdown stream for %s: %w", g.splits[p.k].Object, err)
	}
	if page, err = present(page, g.schema); err != nil {
		p.done = true
		g.abandon()
		p.span.End()
		return nil, err
	}
	// Arrow deserialization into engine pages: columnar buffer adoption
	// plus validity expansion (1.5 ingest units/cell, half the CSV text
	// parse cost).
	rows := int64(page.NumRows())
	g.stats.AddDeserialize(float64(rows)*float64(g.schema.Len())*1.5, rows)
	p.rowsDelivered += rows
	return page, nil
}

// canFallBack decides whether a mid-stream failure can be absorbed by the
// local replay: the failure is transient (not a plan error, not our own
// cancellation) and either no rows of this object have been delivered yet
// or the pushed pipeline is order-deterministic, so the replay can skip
// exactly the rows the engine already consumed.
func (p *streamPart) canFallBack(cause error) bool {
	return p.ctx.Err() == nil && retry.Transient(cause) &&
		(p.rowsDelivered == 0 || p.g.h.Push.OrderDeterministic())
}

// resume abandons the stream after cause for the local replay of this
// object, which skips the rows already delivered, and records the
// fallback on the scan span; the objects after this one reopen a request.
// The replay is built before the stream is released: when it cannot be,
// nothing has changed and the caller returns the stream's error.
func (p *streamPart) resume(cause error) bool {
	fb, err := p.g.conn.replaySource(p.ctx, p.g.h, p.g.splits[p.k], p.g.stats, p.rowsDelivered)
	if err != nil {
		return false
	}
	p.span.Event("pushdown-fallback", cause.Error())
	p.g.abandon()
	p.done, p.fb = true, fb
	return true
}

// Bounds for the early-stop drain in Close: enough to consume a few
// in-flight chunks plus the object's end when the node has already
// finished it, small enough that an actively producing stream is
// abandoned quickly.
const (
	closeDrainChunks  = 32
	closeDrainTimeout = 50 * time.Millisecond
)

// Close releases the object when a pipeline stops early (a satisfied
// LIMIT). An active fallback operator is closed in place of the — then
// already abandoned — stream. Otherwise Close first attempts a bounded
// drain to the object's end, so its storage-side stats are flushed into
// the scan stats instead of silently dropped and the stream stays usable
// for the next object; failing that it abandons the stream. Either way it
// accounts the bytes received, keeping the movement meters truthful.
func (p *streamPart) Close() error {
	defer p.span.End()
	if p.fb != nil {
		fb := p.fb
		p.fb = nil
		return exec.Close(fb)
	}
	if p.done {
		return nil
	}
	p.done = true
	g := p.g
	drained := g.rs.TryDrain(closeDrainChunks, closeDrainTimeout)
	g.accountBytes()
	if !drained {
		g.abandon()
		return nil
	}
	p.span.Event("drained-on-close", "")
	g.ended()
	return nil
}

// replaySource is the fallback for a split whose pushdown execution failed
// after retries, at stream open or mid-stream: the connector fetches the
// whole object (the GET path is served even when a node's computational
// unit is down) and replays the pushed operators locally with the storage
// node's own compiler (ocsserver.ExecuteLocalStream), producing bit-identical
// pages. The replay streams — the residual plan pulls pages as the local
// scan produces them, the same overlap the raw no-pushdown path gets,
// instead of materializing the whole split before the first page — and
// its span stays open until the stream is exhausted or closed, so traces
// attribute the scan and not just the GET. skipRows drops rows a dead
// stream already delivered; callers only pass a nonzero skip when the
// pushed pipeline is order-deterministic. The split is recorded as a
// fallback so the overhead breakdown still adds up: the full object counts
// as bytes moved, and the local replay's CPU is charged as compute-side
// deserialize work.
func (c *Connector) replaySource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats, skipRows int64) (src exec.Operator, err error) {
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, "connector.fallback_scan")
	// On success the span passes to the stream, which ends it.
	defer func() {
		if err != nil {
			sp.End()
		}
	}()
	sp.SetAttr("object", split.Object)
	data, work, err := c.client.Get(ctx, h.Table.Bucket, split.Object)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback get %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(data)))
	stats.AddStorageWork(work)
	stats.AddFallback()

	irPlan, err := BuildSubstrait(h, split.Object)
	if err != nil {
		return nil, err
	}
	local := objstore.NewStore()
	local.Put(h.Table.Bucket, split.Object, data)
	ls, err := ocsserver.ExecuteLocalStream(local, irPlan, split.Object, 0)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback scan %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	return &replayStream{
		schema: h.ScanSchema(), ls: ls, span: sp,
		stats: stats, skipRows: skipRows, object: split.Object,
	}, nil
}

// replayStream adapts a lazily-drained local execution to the page-source
// contract: per-page skip accounting for mid-stream resume, schema
// normalization, and the end-of-stream bookkeeping — replay CPU charged as
// compute-side work.
type replayStream struct {
	schema   *types.Schema
	ls       *ocsserver.LocalStream
	span     *telemetry.Span
	stats    *engine.ScanStats
	object   string
	skipRows int64
	finished bool
}

func (r *replayStream) Schema() *types.Schema { return r.schema }

func (r *replayStream) Next() (*column.Page, error) {
	for {
		page, err := r.ls.Next()
		if err != nil {
			r.finish()
			return nil, fmt.Errorf("ocs: fallback scan %s: %w", r.object, err)
		}
		if page == nil {
			r.finish()
			return nil, nil
		}
		rows := int64(page.NumRows())
		if r.skipRows >= rows {
			r.skipRows -= rows
			continue
		}
		if r.skipRows > 0 {
			page = page.Slice(int(r.skipRows), page.NumRows())
			r.skipRows = 0
		}
		if page.NumCols() != r.schema.Len() {
			r.finish()
			return nil, fmt.Errorf("ocs: fallback result has %d columns, scan schema %s", page.NumCols(), r.schema)
		}
		r.stats.AddDeserialize(0, int64(page.NumRows()))
		return &column.Page{Schema: r.schema, Vectors: page.Vectors}, nil
	}
}

// Close releases the local execution when the pipeline stops early.
func (r *replayStream) Close() error {
	r.finish()
	return nil
}

func (r *replayStream) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.ls.Close()
	// The replay ran on engine cores, not in storage: charge its CPU as
	// compute-side work.
	r.stats.AddDeserialize(r.ls.Work().CPUUnits, 0)
	r.span.End()
}

// BuildSubstrait reconstructs the handle's pushdown spec as a Substrait
// plan over the given objects, in order — the connector's SQL→Substrait
// translation (§3.4 step 3). Exported for the overhead breakdown
// benchmark.
func BuildSubstrait(h *Handle, objects ...string) (*substrait.Plan, error) {
	var rel substrait.Rel = &substrait.ReadRel{
		Bucket:     h.Table.Bucket,
		Objects:    objects,
		BaseSchema: h.Table.Columns,
		Projection: h.Projection,
	}
	p := h.Push
	if p.Filter != nil {
		rel = &substrait.FilterRel{Input: rel, Condition: p.Filter}
	}
	if p.Bloom != nil {
		// Above the filter (preserving the filter-on-read pruning fusion)
		// and below any column narrowing, so the key ordinal — given over
		// the scan output schema — maps back to projected-base-schema
		// space. WithJoinBloom declines schema-rebuilding pushdowns, so
		// OutputCols is the only mapping in play.
		column := p.Bloom.Column
		if p.narrows() {
			column = p.OutputCols[column]
		}
		rel = &substrait.BloomFilterRel{
			Input:   rel,
			Column:  column,
			NumHash: p.Bloom.Filter.NumHash(),
			Bits:    p.Bloom.Filter.Bits(),
		}
	}
	if p.narrows() {
		// Drop columns only the pushed filter needed: a plain column
		// projection executed in-storage after the filter.
		scanSchema := h.baseScanSchema()
		exprs := make([]expr.Expr, len(p.OutputCols))
		names := make([]string, len(p.OutputCols))
		for i, c := range p.OutputCols {
			col := scanSchema.Columns[c]
			exprs[i] = expr.Col(c, col.Name, col.Type)
			names[i] = col.Name
		}
		rel = &substrait.ProjectRel{Input: rel, Expressions: exprs, Names: names}
	}
	if p.Project != nil {
		rel = &substrait.ProjectRel{Input: rel, Expressions: p.Project.Expressions, Names: p.Project.Names}
	}
	if p.Agg != nil {
		rel = &substrait.AggregateRel{Input: rel, GroupKeys: p.Agg.Keys, Measures: p.Agg.Measures}
	}
	if p.FinalProject != nil {
		rel = &substrait.ProjectRel{Input: rel, Expressions: p.FinalProject.Expressions, Names: p.FinalProject.Names}
	}
	if p.TopN != nil {
		rel = &substrait.FetchRel{
			Input: &substrait.SortRel{Input: rel, Keys: p.TopN.Keys},
			Count: p.TopN.Count,
		}
	}
	if p.Limit > 0 {
		rel = &substrait.FetchRel{Input: rel, Count: p.Limit}
	}
	return substrait.NewPlan(rel), nil
}
