package ocs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/telemetry"
)

// This file is the connector's single pushdown decision point: plan-time
// advice (AdvisePlanPushdown), per-split pricing (decide, asked only by
// CreatePageSource) and mid-stream flips (ShouldFlip) live side by side
// here so they cannot drift apart across files.

// Policy defaults.
const (
	// defaultMaxShapes bounds the per-(table, predicate-shape) history;
	// least-recently-touched shapes are evicted past it.
	defaultMaxShapes = 128
	// selEWMAAlpha weights a new per-split selectivity observation into
	// the shape's running estimate.
	selEWMAAlpha = 0.3
	// loadEWMAAlpha weights a new storage-backlog observation (one per
	// stream chunk) into the running load estimate. Load moves faster
	// than selectivity, so it gets the heavier weight.
	loadEWMAAlpha = 0.4
	// flipLoadCutoff is the storage-backlog EWMA below which mid-query
	// flips are not considered: repricing an already-flowing stream is
	// only worth it when storage is visibly saturated.
	flipLoadCutoff = 4
	// flipMargin is how many times cheaper the raw path must price before
	// an in-flight pushdown stream is abandoned mid-query; the flip repeats
	// the object GET, so it needs clear headroom.
	flipMargin = 1.5
)

// shapeHistory is the observed runtime behavior of one (table,
// predicate-shape) pair.
type shapeHistory struct {
	selectivity float64 // EWMA of output rows / input rows per split
	samples     int64
}

// Policy prices pushdown vs raw scan per split from three inputs: the
// cost model's hardware profile (Table 1), the observed per-shape
// selectivity history, and the live storage-load signal piggybacked on
// stream RPC frames. It is also the connector's engine.EventListener:
// completed queries feed the success rate behind AdvisePlanPushdown. (The
// per-query history itself — what was pushed, fallbacks, pruned splits —
// is the engine's ProcessList.Recent.)
type Policy struct {
	params costmodel.Params

	mu        sync.Mutex
	shapes    map[string]*shapeHistory
	order     []string // LRU, least recently touched first
	maxShapes int
	queries   int64
	successes int64
	loadEWMA  float64
	metrics   *telemetry.Registry
}

// NewPolicy creates a policy pricing with the default hardware profile.
func NewPolicy() *Policy {
	return &Policy{
		params:    costmodel.Default(),
		shapes:    make(map[string]*shapeHistory),
		maxShapes: defaultMaxShapes,
	}
}

// SetMetrics mirrors decisions, flips, load and per-shape selectivity
// into reg as the ocs_pushdown_* / ocs_storage_load series.
func (p *Policy) SetMetrics(reg *telemetry.Registry) {
	p.mu.Lock()
	p.metrics = reg
	p.mu.Unlock()
}

func (p *Policy) metricsReg() *telemetry.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// AdvisePlanPushdown is the plan-time feedback loop: once enough queries
// have run, a low success rate (e.g. a flaky storage node failing
// pushdown executions) advises auto mode to plan plain scans until
// reliability recovers.
func (p *Policy) AdvisePlanPushdown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queries < 4 {
		return true
	}
	return 2*p.successes >= p.queries
}

// QueryCompleted implements engine.EventListener: one finished query's
// outcome feeds the success rate AdvisePlanPushdown reads.
func (p *Policy) QueryCompleted(ev engine.QueryEvent) {
	p.mu.Lock()
	p.queries++
	if ev.Err == nil {
		p.successes++
	}
	p.mu.Unlock()
}

// ObserveLoad folds one storage-backlog word (read off a stream frame)
// into the load estimate.
func (p *Policy) ObserveLoad(load uint32) {
	p.mu.Lock()
	p.loadEWMA = (1-loadEWMAAlpha)*p.loadEWMA + loadEWMAAlpha*float64(load)
	ewma := p.loadEWMA
	reg := p.metrics
	p.mu.Unlock()
	reg.Gauge(telemetry.MetricStorageLoad).Set(int64(ewma + 0.5))
}

// LoadEWMA returns the current storage-backlog estimate.
func (p *Policy) LoadEWMA() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadEWMA
}

// ObserveSplit records one finished split's actual selectivity: rows the
// pushed pipeline produced over rows the split holds. Static modes
// observe too, so history is warm when a session switches to auto.
func (p *Policy) ObserveSplit(h *Handle, rowsDelivered int64) {
	rowsIn := rowsPerSplit(h)
	if rowsIn <= 0 || h.Push.Empty() {
		return
	}
	sel := min(float64(rowsDelivered)/rowsIn, 1)
	key := predicateShape(h)
	p.mu.Lock()
	sh := p.touchLocked(key)
	if sh.samples == 0 {
		sh.selectivity = sel
	} else {
		sh.selectivity = (1-selEWMAAlpha)*sh.selectivity + selEWMAAlpha*sel
	}
	sh.samples++
	reg := p.metrics
	p.mu.Unlock()
	reg.Histogram(telemetry.MetricPushdownShapeSelectivity, "shape", key).Observe(int64(sel * 100))
}

// ShapeSelectivity returns the observed selectivity EWMA for the
// handle's shape and whether any samples exist.
func (p *Policy) ShapeSelectivity(h *Handle) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sh, ok := p.shapes[predicateShape(h)]; ok && sh.samples > 0 {
		return sh.selectivity, true
	}
	return 0, false
}

// touchLocked returns the history for key, creating it (and evicting the
// least-recently-touched shape past maxShapes) as needed. Caller holds
// p.mu.
func (p *Policy) touchLocked(key string) *shapeHistory {
	if sh, ok := p.shapes[key]; ok {
		if i := slices.Index(p.order, key); i >= 0 {
			p.order = slices.Delete(p.order, i, i+1)
		}
		p.order = append(p.order, key)
		return sh
	}
	if len(p.shapes) >= p.maxShapes && len(p.order) > 0 {
		evict := p.order[0]
		p.order = p.order[1:]
		delete(p.shapes, evict)
	}
	sh := &shapeHistory{}
	p.shapes[key] = sh
	p.order = append(p.order, key)
	return sh
}

// decide prices one split both ways and picks the cheaper path; reason
// names where the selectivity estimate came from.
func (p *Policy) decide(h *Handle) (pushdown bool, reason string) {
	sel, reason := p.selectivity(h)
	pushCost, rawCost := p.price(h, sel, loadPerWorker(p.LoadEWMA()))
	pushdown = pushCost <= rawCost
	choice := "raw"
	if pushdown {
		choice = "pushdown"
	}
	p.metricsReg().Counter(telemetry.MetricPushdownDecisions, "choice", choice).Inc()
	return pushdown, reason
}

// ShouldFlip reprices an in-flight pushdown stream against what it has
// actually delivered so far. A flip abandons the stream and replays the
// pushed operators locally, skipping delivered rows — sound only for
// order-deterministic pipelines (the PR 2 resume invariant) — so it
// needs saturated storage (load cutoff) and clear pricing headroom
// (flip margin) before triggering.
func (p *Policy) ShouldFlip(h *Handle, rowsDelivered int64) bool {
	if !h.Adaptive || h.Push.Empty() {
		return false
	}
	if !h.Push.OrderDeterministic() || rowsDelivered <= 0 {
		return false
	}
	rowsIn := rowsPerSplit(h)
	if rowsIn <= 0 {
		return false
	}
	load := p.LoadEWMA()
	if load < flipLoadCutoff {
		return false
	}
	// Rows delivered so far is a lower bound on the split's selectivity;
	// with storage saturated and even the lower bound pricing pushdown
	// out, the stream is not worth finishing.
	sel := min(float64(rowsDelivered)/rowsIn, 1)
	pushCost, rawCost := p.price(h, sel, loadPerWorker(load))
	return rawCost.Seconds()*flipMargin < pushCost.Seconds()
}

// noteFlip counts one executed mid-stream flip.
func (p *Policy) noteFlip() {
	p.metricsReg().Counter(telemetry.MetricPushdownFlips).Inc()
}

// selectivity resolves the expected fraction of rows the pushed pipeline
// keeps: observed shape history first, the planner's estimate second, an
// agnostic 0.5 otherwise. A join bloom filter scales the plan-time
// priors by its own estimate (build keys over probe NDV); history needs
// no scaling because the shape key already includes the bloom marker,
// so bloom-filtered splits accumulate their own observations.
func (p *Policy) selectivity(h *Handle) (float64, string) {
	if sel, ok := p.ShapeSelectivity(h); ok {
		return sel, "history"
	}
	sel, source := 0.5, "default"
	if h.Push != nil && h.Push.EstSelectivity > 0 {
		sel, source = h.Push.EstSelectivity, "prior"
	}
	if h.Push != nil && h.Push.Bloom != nil && h.Push.Bloom.EstSelectivity > 0 {
		sel *= h.Push.Bloom.EstSelectivity
		source += "+bloom"
	}
	return sel, source
}

// loadPerWorker converts a backlog EWMA into queueing depth per storage
// scan worker: 0 = idle, 1 = every worker has one task waiting behind its
// current one, and so on.
func loadPerWorker(load float64) float64 {
	return load / float64(costmodel.StorageScanParallelism())
}

// price models one split both ways with the cost-model hardware profile
// (Table 1). The pushdown side charges the storage scan at the slow
// storage cores inflated by the observed queueing depth, then moves and
// ingests only the surviving rows; the raw side moves the whole object
// and charges the scan (and full-width ingest) to the fast compute
// cores. This is PushdownDB's pricing argument with live inputs.
func (p *Policy) price(h *Handle, sel, loadPerWorker float64) (pushCost, rawCost time.Duration) {
	rowsIn := rowsPerSplit(h)
	objBytes := perSplit(h, h.Table.TotalBytes)
	widthIn := float64(h.baseScanSchema().Len())
	widthOut := float64(h.ScanSchema().Len())
	scanUnits := rowsIn * widthIn * 2.0 // decode + predicate per cell
	if h.Push != nil && h.Push.Bloom != nil {
		// Bloom evaluation runs on the storage cores: one hash chain plus
		// NumHash membership probes per scanned row.
		scanUnits += rowsIn * float64(1+h.Push.Bloom.Filter.NumHash())
	}

	pushM := costmodel.Measured{
		StorageBytesRead: int64(objBytes),
		StorageCPUUnits:  scanUnits * (1 + loadPerWorker),
		BytesMoved:       int64(sel * rowsIn * widthOut * 8),
		IngestUnits:      sel * rowsIn * widthOut * 1.5,
		RoundTrips:       1,
	}
	rawM := costmodel.Measured{
		StorageBytesRead: int64(objBytes),
		BytesMoved:       int64(objBytes),
		ComputeCPUUnits:  scanUnits,
		IngestUnits:      rowsIn * widthIn * 1.5,
		RoundTrips:       1,
	}
	return p.params.Model(pushM).Total, p.params.Model(rawM).Total
}

// rowsPerSplit estimates the rows one split (object) holds.
func rowsPerSplit(h *Handle) float64 { return perSplit(h, h.Table.RowCount) }

// perSplit is a table total's even share for one of its objects.
func perSplit(h *Handle, total int64) float64 {
	return float64(total) / float64(max(len(h.Table.Objects), 1))
}

// predicateShape keys the history: table identity, pushed operator set
// and the structural rendering of the pushed filter (operators and
// column ordinals, literals erased — `x < 10` and `x < 90` share a
// shape, so one sweep warms the other's history).
func predicateShape(h *Handle) string {
	shape := h.Table.QualifiedName()
	if h.Push != nil {
		shape += "|" + strings.Join(h.Push.Operators(), "+")
		if h.Push.Filter != nil {
			shape += "|" + exprShape(h.Push.Filter)
		}
	}
	return shape
}

// exprShape renders an expression's structure with literals erased.
func exprShape(e expr.Expr) string {
	switch t := e.(type) {
	case *expr.Logic:
		return "(" + exprShape(t.L) + " " + strings.ToLower(t.Op.String()) + " " + exprShape(t.R) + ")"
	case *expr.Not:
		return "not(" + exprShape(t.E) + ")"
	case *expr.Between:
		return "between(" + exprShape(t.E) + ")"
	case *expr.Compare:
		return fmt.Sprintf("cmp%v(%s,%s)", t.Op, exprShape(t.L), exprShape(t.R))
	case *expr.ColumnRef:
		return fmt.Sprintf("c%d", t.Index)
	case *expr.Literal:
		return "?"
	default:
		return fmt.Sprintf("%T", e)
	}
}
