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
// one source per object at the object's end (requestGroup, splitSource).
// Either way the first split opens now.
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
		sources[k] = &splitSource{g: g, k: k}
	}
	if len(sources) > 0 {
		if err := sources[0].(*splitSource).start(); err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// requestGroup is one leaf worker's share of a pushdown scan, served by
// one ocs.Execute request whose plan lists every split's object in order:
// one plan encode, one bloom filter on the wire, one stream. Its sources
// (splitSource) read the stream one after the other, each up to its
// object's end. When the stream breaks in object k, object k replays
// locally (splitSource.fallBack) and the objects after it reopen one
// request, lazily, once the next of them starts; an early Close drains
// object k to its end within a small budget or abandons the stream in the
// same way.
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

// present re-labels a result page, streamed or replayed, under the
// handle's scan schema (names may differ in case only) after checking
// that its width is that schema's.
func present(page *column.Page, schema *types.Schema) (*column.Page, error) {
	if page.NumCols() != schema.Len() {
		return nil, fmt.Errorf("ocs: result has %d columns, scan schema %s", page.NumCols(), schema)
	}
	return &column.Page{Schema: schema, Vectors: page.Vectors, Reused: page.Reused}, nil
}

// splitState is where a splitSource is in its life. It only moves
// forward, notStarted → streaming → replaying → done, and a split that
// needs no replay skips that state.
type splitState uint8

const (
	notStarted splitState = iota
	streaming             // its object's slice of the group's stream
	replaying             // its object's local replay
	done
)

// splitSource is split k of a requestGroup, the one page source of a
// pushdown split. It starts on its first Next (split 0 at once) under its
// own connector.scan span, which ends when the split ends, whichever path
// it took. Started, it serves its object's slice of the group's stream,
// which the sources before it, consumed in order, have left at object k;
// with no stream open it opens one for splits k onward. When the request
// cannot be opened, or the stream breaks mid-object, fallBack decides
// whether the object replays locally.
type splitSource struct {
	g     *requestGroup
	k     int
	state splitState
	ctx   context.Context
	span  *telemetry.Span

	delivered int64 // rows the stream has delivered for this object

	// While replaying: the local execution, its connector.fallback_scan
	// span, and the delivered rows it has still to skip.
	replay     *ocsserver.LocalStream
	replaySpan *telemetry.Span
	skip       int64
}

func (s *splitSource) Schema() *types.Schema { return s.g.schema }

// start opens the split's scan span and, with no stream open, the request
// for splits k onward. The span's children are the Table-3 stages of a
// request the split opens (Substrait generation, stream open), and its
// accumulated durations the split's transfer waits and Arrow deserialize
// time.
func (s *splitSource) start() error {
	g := s.g
	s.ctx, s.span = telemetry.StartSpan(g.ctx, "connector.scan")
	s.span.SetAttr("object", g.splits[s.k].Object)
	s.state = streaming
	if g.rs == nil {
		if err := g.open(s.ctx, s.k); err != nil {
			return s.fallBack(err)
		}
	}
	if g.h.Push.Bloom != nil {
		g.stats.AddJoinBloomSplit()
	}
	return nil
}

func (s *splitSource) Next() (*column.Page, []int, error) {
	for {
		var page *column.Page
		var sel []int
		var err error
		switch s.state {
		case notStarted:
			err = s.start()
		case streaming:
			page, err = s.streamed()
		case replaying:
			page, sel, err = s.replayed()
		case done:
			return nil, nil, nil
		}
		if page != nil || err != nil {
			return page, sel, err
		}
	}
}

// streamed reads the stream's next page of this object. It accounts bytes
// moved, transfer-blocked time, deserialize work and, at the object's end,
// the storage-side stats as chunks land.
func (s *splitSource) streamed() (*column.Page, error) {
	g := s.g
	start := time.Now()
	page, err := g.rs.Next()
	wall := time.Since(start)
	g.stats.AddTransfer(wall)
	// Split the wait between the wire and the decoder for the span: the
	// stats charge the whole wall as transfer (established Table-3
	// semantics), the span separates the deserialize share.
	decode := g.rs.DecodeTime() - g.prevDecode
	g.prevDecode = g.rs.DecodeTime()
	s.span.AddDuration("transfer_wait", wall-decode)
	s.span.AddDuration("arrow_deserialize", decode)
	g.accountBytes()
	if err == io.EOF {
		g.ended()
		return nil, s.end(nil)
	}
	if err != nil {
		return nil, s.fallBack(err)
	}
	if page, err = present(page, g.schema); err != nil {
		g.abandon()
		return nil, s.end(err)
	}
	// Arrow deserialization into engine pages: columnar buffer adoption
	// plus validity expansion (1.5 ingest units/cell, half the CSV text
	// parse cost).
	rows := int64(page.NumRows())
	g.stats.AddDeserialize(float64(rows)*float64(g.schema.Len())*1.5, rows)
	s.delivered += rows
	return page, nil
}

// fallBack answers a failed request for this object — one that could not
// be opened, even after the client's retries, or that broke mid-object —
// with one rule: the object replays locally when the query is still live,
// the failure is transient (not a plan error, not our own cancellation),
// and either the stream has delivered none of the object's rows or the
// pushed pipeline is order-deterministic, so the replay can skip exactly
// the rows the engine already consumed. The stream is released either
// way; the objects after this one reopen a request once the next of them
// starts. fallBack returns nil once the split replays, and otherwise ends
// the split with the error.
func (s *splitSource) fallBack(cause error) error {
	g := s.g
	g.abandon()
	object := g.splits[s.k].Object
	if s.ctx.Err() != nil || !retry.Transient(cause) || (s.delivered > 0 && !g.h.Push.OrderDeterministic()) {
		return s.end(fmt.Errorf("ocs: pushdown for %s: %w", object, cause))
	}
	s.span.Event("pushdown-fallback", cause.Error())
	ls, span, err := g.replay(s.ctx, object)
	if err != nil {
		return s.end(fmt.Errorf("ocs: pushdown for %s: %w; %w", object, cause, err))
	}
	s.state, s.replay, s.replaySpan, s.skip = replaying, ls, span, s.delivered
	return nil
}

// replayed reads the replay's next page and its selection, dropping the
// rows the stream delivered before it broke. A page that is all skipped
// comes back nil with the split still replaying.
func (s *splitSource) replayed() (*column.Page, []int, error) {
	page, sel, err := s.replay.Next()
	if err != nil {
		return nil, nil, s.end(fmt.Errorf("ocs: fallback scan %s: %w", s.g.splits[s.k].Object, err))
	}
	if page == nil {
		return nil, nil, s.end(nil)
	}
	rows := int64(page.NumRows())
	if sel != nil {
		rows = int64(len(sel))
	}
	if s.skip >= rows {
		s.skip -= rows
		return nil, nil, nil
	}
	if s.skip > 0 {
		// Once a replay: the rest of the page the stream broke in.
		page, sel = page.Keep(sel).Slice(int(s.skip), int(rows)), nil
		rows, s.skip = rows-s.skip, 0
	}
	if page, err = present(page, s.g.schema); err != nil {
		return nil, nil, s.end(err)
	}
	s.g.stats.AddDeserialize(0, rows)
	return page, sel, nil
}

// end retires a started split: it closes the replay if one runs, records
// err on the scan span and ends the span. It returns err.
func (s *splitSource) end(err error) error {
	if s.state == replaying {
		s.replay.Close()
		// The replay ran on engine cores, not in storage: charge its CPU
		// as compute-side work.
		s.g.stats.AddDeserialize(s.replay.Work().CPUUnits, 0)
		s.replaySpan.End()
	}
	if err != nil {
		s.span.Event("error", err.Error())
	}
	s.span.End()
	s.state = done
	return err
}

// Bounds for the early-stop drain in Close: enough to consume a few
// in-flight chunks plus the object's end when the node has already
// finished it, small enough that an actively producing stream is
// abandoned quickly.
const (
	closeDrainChunks  = 32
	closeDrainTimeout = 50 * time.Millisecond
)

// Close ends the split by its state, once. A source closed before it
// started belongs to a worker that is quitting, so the rest of the
// group's stream is not wanted either: Close abandons it. A replaying
// source closes its replay. A streaming one, stopped early (a satisfied
// LIMIT), first drains its object to the end within a small budget, so
// the object's storage-side stats reach the scan stats instead of being
// dropped and the stream stays usable for the next object; failing that
// it abandons the stream. Either way it accounts the bytes received,
// keeping the movement meters truthful.
func (s *splitSource) Close() error {
	g := s.g
	switch s.state {
	case notStarted:
		g.abandon()
		s.state = done
	case streaming:
		drained := g.rs.TryDrain(closeDrainChunks, closeDrainTimeout)
		g.accountBytes()
		if drained {
			s.span.Event("drained-on-close", "")
			g.ended()
		} else {
			g.abandon()
		}
		s.end(nil)
	case replaying:
		s.end(nil)
	}
	return nil
}

// replay opens the fallback for an object whose pushdown request failed
// after retries, at open or mid-stream: the connector fetches the whole
// object (the GET path is served even when a node's computational unit is
// down) and replays the pushed operators over it locally with the storage
// node's own compiler (ocsserver.ExecuteLocalStream), producing
// bit-identical pages. The replay streams — the residual plan pulls pages
// as the local scan produces them, the same overlap the raw no-pushdown
// path gets — and the connector.fallback_scan span it returns stays open
// until the split ends, so traces attribute the scan and not just the GET.
// The split is recorded as a fallback so the overhead breakdown still adds
// up: the whole object counts as bytes moved, and the replay's CPU is
// charged as compute-side deserialize work when it ends.
func (g *requestGroup) replay(ctx context.Context, object string) (_ *ocsserver.LocalStream, _ *telemetry.Span, err error) {
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, "connector.fallback_scan")
	defer func() {
		if err != nil {
			sp.End()
		}
	}()
	sp.SetAttr("object", object)
	bucket := g.h.Table.Bucket
	data, work, err := g.conn.client.Get(ctx, bucket, object)
	if err != nil {
		return nil, nil, fmt.Errorf("ocs: fallback get %s/%s: %w", bucket, object, err)
	}
	g.stats.AddTransfer(time.Since(start))
	g.stats.AddBytesMoved(int64(len(data)))
	g.stats.AddStorageWork(work)
	g.stats.AddFallback()

	irPlan, err := BuildSubstrait(g.h, object)
	if err != nil {
		return nil, nil, err
	}
	local := objstore.NewStore()
	local.Put(bucket, object, data)
	ls, err := ocsserver.ExecuteLocalStream(local, irPlan, object, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("ocs: fallback scan %s/%s: %w", bucket, object, err)
	}
	return ls, sp, nil
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
			Lo:      p.Bloom.Filter.Lo(),
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
