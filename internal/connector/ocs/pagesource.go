package ocs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"prestocs/internal/cache"
	"prestocs/internal/column"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/plan"
	"prestocs/internal/retry"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Connector is the Presto-OCS connector instance for one catalog.
type Connector struct {
	catalog string
	meta    *metastore.Metastore
	tables  *cache.TableCache
	client  *ocsserver.Client
	policy  *Policy
	// ingester, when attached, enables the write path (engine.Ingest)
	// on this catalog.
	ingester *ingest.Ingester
}

// New creates a connector bound to a metastore and an OCS frontend.
// Table metadata (definitions, schemas, per-object stats) is served
// through a versioned cache sized at cache.DefaultTableCacheEntries;
// resize with SetTableCacheEntries.
func New(catalog string, meta *metastore.Metastore, client *ocsserver.Client) *Connector {
	return &Connector{
		catalog: catalog,
		meta:    meta,
		tables:  cache.NewTableCache(meta, cache.DefaultTableCacheEntries),
		client:  client,
		policy:  NewPolicy(costmodel.Default()),
	}
}

// Name implements engine.Connector.
func (c *Connector) Name() string { return c.catalog }

// Policy returns the connector's adaptive pushdown policy. Register it
// with the engine via AddEventListener: completed queries feed its
// plan-time advice.
func (c *Connector) Policy() *Policy { return c.policy }

// SetTableCacheEntries resizes the table-metadata cache (0 disables
// caching). Call before serving queries.
func (c *Connector) SetTableCacheEntries(n int) {
	c.tables = cache.NewTableCache(c.meta, n)
}

// SetMetrics binds the table-metadata cache counters and the adaptive
// policy's decision/flip/load series to a registry; call before serving
// queries.
func (c *Connector) SetMetrics(reg *telemetry.Registry) {
	c.tables.Instrument(reg, "catalog", c.catalog)
	c.policy.SetMetrics(reg)
}

// TableHandle implements engine.Connector; lookups go through the
// versioned metadata cache, so N concurrent queries for a hot table cost
// one metastore round trip plus N cheap version checks. The handle
// additionally pins the metastore snapshot it resolved, freezing the
// object set a racing ingest or compaction could otherwise mutate out
// from under the scan; the engine releases the pin when the query
// finishes (see Handle.ReleaseSnapshot).
func (c *Connector) TableHandle(schema, table string) (plan.TableHandle, error) {
	t, pin, err := c.tables.GetPinned(schema, table)
	if err != nil {
		return nil, err
	}
	return &Handle{Table: t, pin: pin}, nil
}

// Splits implements engine.Connector. The engine asks SplitsWithStats
// (splitprune.go), which this is without the pruning counter.
func (c *Connector) Splits(handle plan.TableHandle) ([]engine.Split, error) {
	return c.SplitsWithStats(handle, nil)
}

// PlanOptimizer implements engine.Connector.
func (c *Connector) PlanOptimizer() engine.ConnectorPlanOptimizer {
	return &localOptimizer{conn: c}
}

// CreatePageSource implements engine.Connector: the paper's
// PageSourceProvider, and the connector's one per-split decision point.
// Static pushdown modes (and pushdown-free plans) pass through unchanged,
// so the paper's fixed configurations stay exactly reproducible; auto-mode
// handles are marked Adaptive and priced by the policy against history and
// live load (decide, policy.go), and only those choices are counted.
func (c *Connector) CreatePageSource(ctx context.Context, handle plan.TableHandle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	pushdown, reason := true, "static"
	if h.Adaptive && !h.Push.Empty() {
		pushdown, reason = c.policy.decide(h)
		stats.AddSplitDecision(pushdown)
	}
	return c.openSplit(ctx, h, split, pushdown, reason, stats)
}

// OpenSplit opens one split on a caller-chosen path, bypassing the policy
// (and its decision counters): tests use it to force the pushdown stream
// or the local replay deterministically. It is not part of the SPI.
func (c *Connector) OpenSplit(ctx context.Context, h *Handle, split engine.Split, pushdown bool, stats *engine.ScanStats) (exec.Operator, error) {
	return c.openSplit(ctx, h, split, pushdown, "forced", stats)
}

// openSplit is the three-way opener. Without a pushdown spec the split is
// the paper's no-pushdown configuration (whole-object GET, local scan).
// With one, pushdown reconstructs the extracted operators as a Substrait
// plan, ships it to OCS over RPC and deserializes the Arrow result — and
// degrades to the local replay, recorded as a fallback, when execution
// fails transiently even after the client's retries — while !pushdown
// replays the pushed operators locally over a whole-object GET, so the
// residual plan sees the same schema either way. reason labels the
// decision on the split's span.
func (c *Connector) openSplit(ctx context.Context, h *Handle, split engine.Split, pushdown bool, reason string, stats *engine.ScanStats) (exec.Operator, error) {
	if h.Push.Empty() {
		return engine.ScanWholeObject(ctx, c.client.Client, h.Table.Bucket, split.Object, h.Table.Columns, h.Projection, stats)
	}
	if !pushdown {
		return c.replaySource(ctx, h, split, stats, 0, causeAdaptive, reason)
	}
	return c.pushdownSource(ctx, h, split, reason, stats)
}

// pushdownSource opens the in-storage execution path for one split.
func (c *Connector) pushdownSource(ctx context.Context, h *Handle, split engine.Split, reason string, stats *engine.ScanStats) (src exec.Operator, err error) {
	// The scan span covers this split's whole pushdown lifetime; its
	// children are the Table-3 stages (Substrait generation, stream open)
	// and its accumulated durations the per-chunk transfer waits and
	// Arrow deserialize time. On success it passes to the stream, which
	// ends it when the source is exhausted or closed.
	ctx, scanSpan := telemetry.StartSpan(ctx, "connector.scan")
	defer func() {
		if err != nil {
			scanSpan.End()
		}
	}()
	scanSpan.SetAttr("object", split.Object)
	scanSpan.SetAttr("decision", reason)
	irPlan, err := generatePlan(ctx, h, split.Object, stats)
	if err != nil {
		return nil, err
	}

	// Open the result stream: residual operators start consuming batch 1
	// while the storage node is still scanning later row groups. Transfer
	// time is charged only while blocked waiting on storage (stream open
	// plus per-batch waits), so the Table 3 breakdown keeps its meaning
	// under overlap.
	start := time.Now()
	openCtx, openSpan := telemetry.StartSpan(ctx, "connector.stream_open")
	rs, err := c.client.ExecuteStream(openCtx, irPlan)
	openSpan.End()
	live := ctx.Err() == nil // else the failure is this query's own cancellation
	switch {
	case err == nil:
	case live && h.Push.Bloom != nil && errors.Is(err, rpc.ErrOverLimit):
		// The node refused the filter (its size cap), not the plan: retry
		// the same split without the bloom and re-apply it engine-side,
		// so the join still probes a pre-filtered stream. Any other
		// refusal — an invalid plan is a connector bug — must not retry.
		scanSpan.Event("bloom-rejected", err.Error())
		scanSpan.End()
		stats.AddJoinBloomRejected()
		if src, err = c.pushdownSource(ctx, h.withBloom(nil), split, reason, stats); err != nil {
			return nil, err
		}
		return exec.NewBloomProbe(src, h.Push.Bloom.Column, h.Push.Bloom.Filter, nil, nil)
	case live && retry.Transient(err):
		scanSpan.Event("pushdown-fallback", err.Error())
		defer scanSpan.End()
		return c.replaySource(ctx, h, split, stats, 0, causeFallback, "")
	default:
		return nil, fmt.Errorf("ocs: executing pushdown for %s: %w", split.Object, err)
	}
	if h.Push.Bloom != nil {
		stats.AddJoinBloomSplit()
	}
	stats.AddTransfer(time.Since(start))
	return &streamSource{
		ctx: ctx, conn: c, h: h, split: split, span: scanSpan,
		rs: rs, schema: h.ScanSchema(), stats: stats,
	}, nil
}

// generatePlan translates the extracted operators into Substrait IR and
// validates it (timed for Table 3).
func generatePlan(ctx context.Context, h *Handle, object string, stats *engine.ScanStats) (*substrait.Plan, error) {
	start := time.Now()
	_, span := telemetry.StartSpan(ctx, "connector.substrait_gen")
	defer span.End()
	irPlan, err := BuildSubstrait(h, object)
	if err != nil {
		return nil, err
	}
	if _, err := irPlan.Validate(); err != nil {
		return nil, fmt.Errorf("ocs: generated invalid Substrait plan: %w", err)
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

// streamSource adapts an OCS result stream to an exec.Operator. It
// accounts bytes moved, transfer-blocked time, deserialize work and
// storage-side stats incrementally as chunks land, and implements Close
// so the engine can release the stream when a pipeline stops early.
// When the stream dies transiently mid-flight it degrades to the
// raw-scan fallback, replaying the pushed operators locally and skipping
// the rows already delivered (sound only while the pushed pipeline is
// order-deterministic).
type streamSource struct {
	ctx   context.Context
	conn  *Connector
	h     *Handle
	split engine.Split

	rs            *ocsserver.ResultStream
	schema        *types.Schema
	stats         *engine.ScanStats
	span          *telemetry.Span
	prevBytes     int64
	prevDecode    time.Duration
	rowsDelivered int64
	fb            exec.Operator
	done          bool
}

func (s *streamSource) Schema() *types.Schema { return s.schema }

func (s *streamSource) Next() (*column.Page, error) {
	if s.fb != nil {
		page, err := s.fb.Next()
		if page == nil {
			s.span.End()
		}
		return page, err
	}
	if s.done {
		return nil, nil
	}
	// Adaptive mid-stream flip: with storage saturated and the delivered
	// rows already pricing the pushdown out, abandon the stream and resume
	// on the local replay path (order-deterministic pipelines only). A
	// replay that cannot be built just keeps streaming.
	if s.rowsDelivered > 0 && s.conn.policy.ShouldFlip(s.h, s.rowsDelivered) &&
		s.resume(causeAdaptive, "adaptive-flip", fmt.Sprintf("after %d rows", s.rowsDelivered)) {
		s.stats.AddAdaptiveFlip()
		s.conn.policy.noteFlip()
		return s.Next()
	}
	start := time.Now()
	page, err := s.rs.Next()
	wall := time.Since(start)
	s.stats.AddTransfer(wall)
	// Split the wait between the wire and the decoder for the span: the
	// stats charge the whole wall as transfer (established Table-3
	// semantics), the span separates the deserialize share.
	decode := s.rs.DecodeTime() - s.prevDecode
	s.prevDecode = s.rs.DecodeTime()
	s.span.AddDuration("transfer_wait", wall-decode)
	s.span.AddDuration("arrow_deserialize", decode)
	s.accountBytes()
	// Every frame carries the node's scan backlog: feed the policy's
	// storage-load estimate.
	s.conn.policy.ObserveLoad(s.rs.Load())
	if err == io.EOF {
		s.done = true
		s.stats.AddStorageWork(s.rs.Stats())
		s.conn.policy.ObserveSplit(s.h, s.rowsDelivered)
		s.span.End()
		return nil, nil
	}
	if err != nil {
		if s.canFallBack(err) && s.resume(causeFallback, "pushdown-fallback", err.Error()) {
			s.conn.policy.ObserveFallback(s.h)
			return s.Next()
		}
		s.done = true
		s.span.Event("error", err.Error())
		s.span.End()
		return nil, fmt.Errorf("ocs: pushdown stream for %s: %w", s.split.Object, err)
	}
	if page, err = present(page, s.schema); err != nil {
		s.done = true
		s.rs.Close()
		return nil, err
	}
	// Arrow deserialization into engine pages: columnar buffer adoption
	// plus validity expansion (1.5 ingest units/cell, half the CSV text
	// parse cost).
	rows := int64(page.NumRows())
	s.stats.AddDeserialize(float64(rows)*float64(s.schema.Len())*1.5, rows)
	s.rowsDelivered += rows
	return page, nil
}

// canFallBack decides whether a mid-stream failure can be absorbed by the
// local replay: the failure is transient (not a plan error, not our own
// cancellation) and either no rows have been delivered yet or the pushed
// pipeline is order-deterministic, so the replay can skip exactly the rows
// the engine already consumed.
func (s *streamSource) canFallBack(cause error) bool {
	return s.ctx.Err() == nil && retry.Transient(cause) &&
		(s.rowsDelivered == 0 || s.h.Push.OrderDeterministic())
}

// resume abandons the stream for the local replay, which skips the rows
// already delivered, and records why on the scan span. The replay is built
// before the stream is released: when it cannot be, nothing has changed
// and the caller carries on with the stream (or with its error).
func (s *streamSource) resume(cause replayCause, event, detail string) bool {
	fb, err := s.conn.replaySource(s.ctx, s.h, s.split, s.stats, s.rowsDelivered, cause, "")
	if err != nil {
		return false
	}
	s.span.Event(event, detail)
	s.rs.Close()
	s.done, s.fb = true, fb
	return true
}

func (s *streamSource) accountBytes() {
	b := s.rs.ArrowBytes()
	if b > s.prevBytes {
		s.stats.AddBytesMoved(b - s.prevBytes)
		s.prevBytes = b
	}
}

// Bounds for the early-stop drain in Close: enough to consume a few
// in-flight chunks plus the end frame when the node has already
// finished, small enough that an actively producing stream is abandoned
// quickly.
const (
	closeDrainChunks  = 32
	closeDrainTimeout = 50 * time.Millisecond
)

// Close releases the stream when a pipeline stops early (a satisfied
// LIMIT). An active fallback operator is closed in place of the — then
// already dead — remote stream. Otherwise Close first attempts a bounded
// drain so the trailer's storage-side stats are flushed into the scan
// stats instead of silently dropped, then accounts bytes received but
// not consumed, keeping the movement meters truthful.
func (s *streamSource) Close() error {
	defer s.span.End()
	if s.fb != nil {
		fb := s.fb
		s.fb = nil
		return exec.Close(fb)
	}
	if !s.done {
		s.done = true
		if s.rs.TryDrain(closeDrainChunks, closeDrainTimeout) {
			s.stats.AddStorageWork(s.rs.Stats())
			s.span.Event("drained-on-close", "")
		}
		s.accountBytes()
		return s.rs.Close()
	}
	return nil
}

// replayCause is why a split with pushed operators is served by the local
// replay instead of storage; its value is the replay span's name.
type replayCause string

const (
	// causeFallback: pushdown execution failed after retries (at stream
	// open or mid-stream). The graceful-degradation path; the split is
	// recorded as a fallback so the overhead breakdown still adds up.
	causeFallback replayCause = "connector.fallback_scan"
	// causeAdaptive: the policy priced the split off the pushdown path,
	// at schedule time or by flipping it mid-stream. Not a failure.
	causeAdaptive replayCause = "connector.adaptive_raw_scan"
)

// replaySource is the one local replay: the connector fetches the whole
// object (the GET path is served even when a node's computational unit is
// down) and replays the pushed operators locally with the storage node's
// own compiler (ocsserver.ExecuteLocalStream), producing bit-identical
// pages. The replay streams — the residual plan pulls pages as the local
// scan produces them, the same overlap the raw no-pushdown path gets,
// instead of materializing the whole split before the first page — and
// its span stays open until the stream is exhausted or closed, so traces
// attribute the scan and not just the GET. skipRows drops rows a dead or
// abandoned stream already delivered; callers only pass a nonzero skip
// when the pushed pipeline is order-deterministic. The full object counts
// as bytes moved, and the local replay's CPU is charged as compute-side
// deserialize work. reason, when set, labels a schedule-time decision.
func (c *Connector) replaySource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats, skipRows int64, cause replayCause, reason string) (src exec.Operator, err error) {
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, string(cause))
	// On success the span passes to the stream, which ends it.
	defer func() {
		if err != nil {
			sp.End()
		}
	}()
	sp.SetAttr("object", split.Object)
	if reason != "" {
		sp.SetAttr("decision", reason)
	}
	data, work, err := c.client.Get(ctx, h.Table.Bucket, split.Object)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback get %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(data)))
	stats.AddStorageWork(work)
	if cause == causeFallback {
		stats.AddFallback()
	}

	irPlan, err := BuildSubstrait(h, split.Object)
	if err != nil {
		return nil, err
	}
	local := objstore.NewStore()
	local.Put(h.Table.Bucket, split.Object, data)
	ls, err := ocsserver.ExecuteLocalStream(local, irPlan, 0)
	if err != nil {
		return nil, fmt.Errorf("ocs: fallback scan %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	return &replayStream{
		schema: h.ScanSchema(), ls: ls, conn: c, h: h, span: sp,
		stats: stats, skipRows: skipRows, object: split.Object,
	}, nil
}

// replayStream adapts a lazily-drained local execution to the page-source
// contract: per-page skip accounting for mid-stream resume, schema
// normalization, and the end-of-stream bookkeeping the eager path did up
// front — replay CPU charged as compute-side work and the split's full
// output fed to the policy as a selectivity observation (only on a
// complete drain; an abandoned replay has not seen the whole split).
type replayStream struct {
	schema   *types.Schema
	ls       *ocsserver.LocalStream
	conn     *Connector
	h        *Handle
	span     *telemetry.Span
	stats    *engine.ScanStats
	object   string
	skipRows int64
	rows     int64
	finished bool
}

func (r *replayStream) Schema() *types.Schema { return r.schema }

func (r *replayStream) Next() (*column.Page, error) {
	for {
		page, err := r.ls.Next()
		if err != nil {
			r.finish(false)
			return nil, fmt.Errorf("ocs: fallback scan %s: %w", r.object, err)
		}
		if page == nil {
			r.finish(true)
			return nil, nil
		}
		rows := int64(page.NumRows())
		r.rows += rows
		if r.skipRows >= rows {
			r.skipRows -= rows
			continue
		}
		if r.skipRows > 0 {
			page = page.Slice(int(r.skipRows), page.NumRows())
			r.skipRows = 0
		}
		if page.NumCols() != r.schema.Len() {
			r.finish(false)
			return nil, fmt.Errorf("ocs: fallback result has %d columns, scan schema %s", page.NumCols(), r.schema)
		}
		r.stats.AddDeserialize(0, int64(page.NumRows()))
		return &column.Page{Schema: r.schema, Vectors: page.Vectors}, nil
	}
}

// Close releases the local execution when the pipeline stops early.
func (r *replayStream) Close() error {
	r.finish(false)
	return nil
}

func (r *replayStream) finish(complete bool) {
	if r.finished {
		return
	}
	r.finished = true
	r.ls.Close()
	// The replay ran on engine cores, not in storage: charge its CPU as
	// compute-side work.
	r.stats.AddDeserialize(r.ls.Work().CPUUnits, 0)
	if complete {
		r.conn.policy.ObserveSplit(r.h, r.rows)
	}
	r.span.End()
}

// BuildSubstrait reconstructs the handle's pushdown spec as a Substrait
// plan over one object — the connector's SQL→Substrait translation
// (§3.4 step 3). Exported for the overhead breakdown benchmark.
func BuildSubstrait(h *Handle, object string) (*substrait.Plan, error) {
	var rel substrait.Rel = &substrait.ReadRel{
		Bucket:     h.Table.Bucket,
		Object:     object,
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
