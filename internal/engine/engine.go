package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prestocs/internal/analyzer"
	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/optimizer"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Engine is the coordinator: it owns the connector registry, plans
// queries and drives distributed execution.
type Engine struct {
	mu         sync.RWMutex
	connectors map[string]Connector

	// DefaultCatalog resolves unqualified table names.
	DefaultCatalog string
	// Workers is the leaf-stage parallelism (like Presto task
	// concurrency). Defaults to GOMAXPROCS.
	Workers int

	// Tracer, when set, gives every query a root span with one child per
	// coordinator stage; the trace continues across RPC boundaries into
	// the frontend and storage nodes. Metrics, when set, receives one
	// observation per query for the engine_query_* series. Both may stay
	// nil (no-op).
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry

	// procs is the live-query registry and admission controller behind
	// Submit; see processlist.go.
	procs *ProcessList
}

// New returns an engine with no connectors.
func New() *Engine {
	e := &Engine{connectors: make(map[string]Connector), Workers: runtime.GOMAXPROCS(0)}
	e.procs = newProcessList(e)
	return e
}

// Processes exposes the live-query registry (for /debug/queries and
// operational tooling).
func (e *Engine) Processes() *ProcessList { return e.procs }

// SetAdmission installs admission budgets; see AdmissionConfig. The
// zero value (the default) admits everything immediately.
func (e *Engine) SetAdmission(cfg AdmissionConfig) { e.procs.SetAdmission(cfg) }

// AddConnector registers a connector under its catalog name.
func (e *Engine) AddConnector(c Connector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.connectors[c.Name()] = c
}

func (e *Engine) connector(name string) (Connector, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.connectors[name]
	if !ok {
		return nil, fmt.Errorf("engine: no connector for catalog %q", name)
	}
	return c, nil
}

// ResolveTable implements analyzer.Resolver.
func (e *Engine) ResolveTable(catalog, table string) (plan.TableHandle, error) {
	c, err := e.connector(catalog)
	if err != nil {
		return nil, err
	}
	return c.TableHandle(catalog, table)
}

// SessionJoinBloom is the session property controlling join bloom-filter
// pushdown into the probe-side scan; set to "off" to disable (the
// benchmark sweep measures both arms this way). Any other value — or
// unset — leaves it on.
const SessionJoinBloom = "engine.join_bloom"

// Result is a completed query.
type Result struct {
	Schema *types.Schema
	Page   *column.Page
	Stats  *QueryStats
}

// Submit enqueues one SQL query and returns its handle. Admission
// control (SetAdmission) may queue the query or shed it synchronously
// with an error matching rpc.ErrOverloaded; an admitted query runs in
// its own goroutine and the handle's Result blocks for the outcome.
// The context governs the whole query: cancelling it (or hitting its
// deadline) stops the leaf-stage workers, closes every open page source
// and finishes the query promptly with the context's error. The deadline
// also propagates to storage RPCs issued by connectors.
func (e *Engine) Submit(ctx context.Context, sql string, opts ...SubmitOption) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o submitOpts
	for _, f := range opts {
		f(&o)
	}
	if o.session == nil {
		o.session = NewSession()
	}
	q := &Query{
		sql:      sql,
		session:  o.session,
		eng:      e,
		submit:   time.Now(),
		stats:    &QueryStats{},
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
	}
	q.ctx, q.cancel = context.WithCancel(ctx)
	if err := e.procs.admit(q); err != nil {
		q.cancel()
		return nil, err
	}
	go q.run()
	return q, nil
}

// runQuery executes one admitted query end to end: parse, analyze,
// optimize, connector optimization, then distributed execution. It is
// the body behind the Query handle; q.ctx governs cancellation.
func (e *Engine) runQuery(q *Query) (*Result, error) {
	ctx, sql, session, stats := q.ctx, q.sql, q.session, q.stats
	q.setState(StatePlanning)
	startTotal := time.Now()

	// Root query span: the ambient tracer, registry and span travel in
	// the context from here on, so the connector, retry loop and rpc
	// client attach their spans and metrics without extra plumbing, and
	// the trace continues across the wire into frontend and nodes.
	ctx = telemetry.WithTracer(ctx, e.Tracer)
	ctx = telemetry.WithRegistry(ctx, e.Metrics)
	ctx, qspan := telemetry.StartSpan(ctx, "query")
	if qspan != nil {
		stats.TraceID = qspan.Trace
	}
	fail := func(err error) (*Result, error) {
		e.observeQuery(qspan, stats, err)
		return nil, err
	}

	// 1-2. Parse + analyze.
	start := time.Now()
	_, stageSpan := telemetry.StartSpan(ctx, "engine.parse_analyze")
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		stageSpan.End()
		return fail(err)
	}
	// Table resolution goes through a per-query resolver so every handle
	// that pinned a metastore snapshot releases it when this query is
	// done — however the query ends. Until then, compaction defers the
	// physical deletion of any object the pinned snapshots reference.
	resolver := &queryResolver{eng: e}
	defer resolver.releaseAll()
	logical, err := analyzer.Analyze(stmt, resolver, e.DefaultCatalog)
	stageSpan.End()
	if err != nil {
		return fail(err)
	}
	stats.ParseAnalyze = time.Since(start)

	// 3. Global optimization.
	start = time.Now()
	_, stageSpan = telemetry.StartSpan(ctx, "engine.global_opt")
	optimized, err := optimizer.Optimize(logical)
	stageSpan.End()
	if err != nil {
		return fail(err)
	}
	stats.GlobalOpt = time.Since(start)

	// 4. Connector-specific (local) optimization, driven by the connector
	// of the first scan — a join's probe side.
	scan := plan.FindScan(optimized)
	if scan == nil {
		return fail(fmt.Errorf("engine: plan has no table scan"))
	}
	conn, err := e.connector(scan.Handle.ConnectorName())
	if err != nil {
		return fail(err)
	}
	start = time.Now()
	_, stageSpan = telemetry.StartSpan(ctx, "engine.connector_opt")
	if opt := conn.PlanOptimizer(); opt != nil {
		optimized, err = opt.Optimize(optimized, session)
		if err != nil {
			stageSpan.End()
			return fail(err)
		}
	}
	stageSpan.End()
	stats.ConnectorOpt = time.Since(start)
	stats.PlanText = plan.Format(optimized)

	// 5-6. Split generation, scheduling, execution. Pushdown reporting
	// reads the (probe) scan the connector optimizer left behind.
	if scan = plan.FindScan(optimized); scan == nil {
		return fail(fmt.Errorf("engine: optimized plan lost its scan"))
	}
	if ph, ok := scan.Handle.(PushdownReporter); ok {
		stats.PushedDown = ph.PushedOperators()
	}
	start = time.Now()
	q.setState(StateRunning)
	execCtx, execSpan := telemetry.StartSpan(ctx, "engine.execution")
	page, schema, err := e.run(execCtx, optimized, session, stats)
	execSpan.End()
	stats.Execution = time.Since(start)
	stats.Total = time.Since(startTotal)
	if err == nil {
		stats.ResultRows = page.NumRows()
	}
	e.observeQuery(qspan, stats, err)

	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Page: page, Stats: stats}, nil
}

// PushdownReporter lets handles report which operators they absorbed.
type PushdownReporter interface {
	PushedOperators() []string
}

// run executes an optimized plan in its one form: what lies above the
// spine's first Exchange is the final chain, run on the coordinator over
// the exchange's output; below it is the leaf chain, compiled per split
// on the worker pool over its scan's page sources. A leaf chain that
// passes through a Join runs on down the probe side to the probe scan,
// and the join's build side — a leaf stage of its own — is drained into
// the hash table every worker probes before the first probe split starts.
func (e *Engine) run(ctx context.Context, root plan.Node, session *Session, stats *QueryStats) (*column.Page, *types.Schema, error) {
	final, leaf, err := stages(root)
	if err != nil {
		return nil, nil, err
	}
	if leaf.join != nil {
		if err := e.buildJoin(ctx, leaf, session, stats); err != nil {
			return nil, nil, err
		}
	}
	stage, err := e.startLeafStage(ctx, leaf, stats)
	if err != nil {
		return nil, nil, err
	}
	return e.finishFinalStage(stage, leaf.schema, final, stats)
}

// leafChain is what runs below an Exchange: chain, root first, compiled
// per split over the page sources of scan, feeding the Exchange pages of
// schema. Through a Join the chain continues down the probe side; table
// is the join's hash table once buildJoin has drained the build side, and
// groupBy the aggregate above the join that groups by the table's key
// ids (groupJoin), if any.
type leafChain struct {
	schema  *types.Schema
	chain   []plan.Node
	scan    *plan.TableScan
	join    *plan.Join
	table   *exec.JoinTable
	groupBy *plan.Aggregate
}

// stages takes a plan apart at its spine's first Exchange: the final
// chain above it (root first) and the leaf chain below it.
func stages(root plan.Node) ([]plan.Node, *leafChain, error) {
	spine, end := plan.Spine(root)
	at := slices.IndexFunc(spine, func(n plan.Node) bool { _, ok := n.(*plan.Exchange); return ok })
	if at < 0 {
		return nil, nil, fmt.Errorf("engine: plan has no exchange")
	}
	leaf := &leafChain{schema: spine[at].OutputSchema(), chain: spine[at+1:]}
	if join, ok := end.(*plan.Join); ok {
		probe, probeEnd := plan.Spine(join.Probe)
		leaf.chain = append(append(slices.Clone(leaf.chain), join), probe...)
		leaf.join, end = join, probeEnd
	}
	scan, ok := end.(*plan.TableScan)
	if !ok {
		return nil, nil, fmt.Errorf("engine: leaf stage must end on a scan, not %T", end)
	}
	leaf.scan = scan
	return spine[:at], leaf, nil
}

// buildJoin runs the build side of the leaf chain's join as its own leaf
// stage and drains it into a hash table on the coordinator, pushes — when
// the join has a single key and the probe side is filter-only over a
// BloomJoinHandle — a bloom filter over the build keys into the probe
// scan so storage drops non-matching rows before they cross the network,
// and hands the table to the leaf chain. The table is read-only once
// built, so every worker probes the same one: nothing is copied per
// worker. The build is the join's work, below the Exchange, so it is
// metered with the leaf stage.
func (e *Engine) buildJoin(ctx context.Context, leaf *leafChain, session *Session, stats *QueryStats) error {
	join := leaf.join
	_, build, err := stages(join.Build) // an Exchange over filters over a scan
	if err != nil {
		return err
	}
	// BuildJoinTable returns a truncated table without error when workers
	// failed, so the stage error wins.
	buildStage, err := e.startLeafStage(ctx, build, stats)
	if err != nil {
		return err
	}
	var meter exec.Meter
	table, err := exec.BuildJoinTable(exec.NewFuncSource(build.schema, buildStage.Next), join.BuildKeys, &meter)
	buildStage.Drain() // every build worker has exited past this point
	stats.LeafMeter.Add(meter)
	if werr := buildStage.Err(); werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	stats.Join = true
	stats.JoinBuildRows = int64(table.Rows())
	leaf.table = table
	leaf.groupBy = groupJoin(leaf.chain, join, table)
	stats.JoinGroupedByBuild = leaf.groupBy != nil

	// Bloom pushdown into the probe scan. A filter-only probe side passes
	// the scan's schema through — projected to what the plan reads
	// (plan.NarrowJoin), keys included — so ProbeKeys[0] is the key's
	// ordinal over the handle's ScanSchema.
	probe := leaf.chain[slices.Index(leaf.chain, plan.Node(join))+1:]
	for _, n := range probe {
		if _, ok := n.(*plan.Filter); !ok {
			return nil
		}
	}
	bh, ok := leaf.scan.Handle.(plan.BloomJoinHandle)
	if !ok || len(join.BuildKeys) != 1 || session.Get(SessionJoinBloom) == "off" {
		return nil
	}
	if f, err := table.BuildBloom(bloom.DefaultBitsPerKey); err == nil {
		if nh, ok := bh.WithJoinBloom(join.ProbeKeys[0], f, int64(table.Rows())); ok {
			leaf.scan = &plan.TableScan{Catalog: leaf.scan.Catalog, Table: leaf.scan.Table, Handle: nh}
			if ph, ok := nh.(PushdownReporter); ok {
				stats.PushedDown = ph.PushedOperators()
			}
		}
	}
	return nil
}

// leafStage is one scan's distributed fan-out in flight, consumed in
// split order: every split's pages go to that split's own queue, and Next
// drains queue 0 to its close, then queue 1, and so on. What the final
// stage (or the join build) folds is therefore a function of the snapshot
// alone — not of which worker finished first — so float sums and the
// ORDER BY … LIMIT tie-break (split, row ordinal) are byte-identical
// across runs, worker counts and pushdown modes. Err is valid only after
// Next has returned nil.
type leafStage struct {
	queues  []chan *column.Page // one per split, closed by its worker
	drained []chan struct{}     // one per split, closed once Next is past it
	next    int                 // the lowest split not yet drained
	done    chan struct{}       // closed once every worker has exited
	errFn   func() error
}

// Next returns the stage's next page in (split, emission) order, or nil
// once every split is drained and every worker has exited. It never
// deadlocks: split j waits only for split j − 2W to be drained, so the
// lowest undrained split can always start, and its worker (which runs its
// splits in index order) has already retired its earlier ones, which lie
// below it.
func (ls *leafStage) Next() (*column.Page, error) {
	for ls.next < len(ls.queues) {
		if page, ok := <-ls.queues[ls.next]; ok {
			return page, nil
		}
		close(ls.drained[ls.next])
		ls.next++
	}
	<-ls.done
	return nil, nil
}

// Err returns the first worker error; call only after Next returned nil.
func (ls *leafStage) Err() error { return ls.errFn() }

// Drain discards any unconsumed pages (and so unblocks workers) until
// every split is retired.
func (ls *leafStage) Drain() {
	for page, _ := ls.Next(); page != nil; page, _ = ls.Next() {
	}
}

// splitQueuePages bounds one split's queue: with at most two splits per
// worker started ahead of the consumer, a stage buffers at most
// 2 × workers × splitQueuePages pages.
const splitQueuePages = 2

// startLeafStage launches the worker pool over the splits of the leaf
// chain's scan, compiling the chain onto each split's page source, and
// returns the stage. Worker w of W takes splits w, w+W, … in that order
// and opens them with one CreatePageSources call, so a connector can
// serve a worker's share as one request. Worker operator time lands in
// stats.LeafMeter and the split count adds to stats.Splits.
func (e *Engine) startLeafStage(ctx context.Context, leaf *leafChain, stats *QueryStats) (*leafStage, error) {
	scan := leaf.scan
	conn, err := e.connector(scan.Handle.ConnectorName())
	if err != nil {
		return nil, err
	}
	splits, err := conn.SplitsWithStats(scan.Handle, &stats.Scan)
	if err != nil {
		return nil, err
	}
	stats.Splits += len(splits)

	workers := max(e.Workers, 1)
	workers = min(workers, len(splits))

	// Every split retires into its own queue. Split j may start only once
	// split j − 2W has been drained: a per-split gate that keeps workers
	// from running further ahead of the consumer than it can buffer.
	queues := make([]chan *column.Page, len(splits))
	drained := make([]chan struct{}, len(splits))
	for i := range splits {
		queues[i] = make(chan *column.Page, splitQueuePages)
		drained[i] = make(chan struct{})
	}

	var workerErr error
	var errOnce sync.Once
	var failed atomic.Bool
	fail := func(err error) {
		errOnce.Do(func() { workerErr = err })
		failed.Store(true)
	}
	var wg sync.WaitGroup
	var meterMu sync.Mutex

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var meter exec.Meter
			defer func() {
				meterMu.Lock()
				stats.LeafMeter.Add(meter)
				meterMu.Unlock()
			}()
			var mine []Split
			for i := w; i < len(splits); i += workers {
				mine = append(mine, splits[i])
			}
			// On any exit, the splits not run retire unstarted: their
			// sources close (releasing, e.g., an open OCS result stream)
			// and their queues close so the consumer moves past them.
			var sources []exec.Operator
			ran := 0
			defer func() {
				for k := ran; k < len(mine); k++ {
					if k < len(sources) {
						exec.Close(sources[k])
					}
					close(queues[w+k*workers])
				}
			}()
			// runSplit processes one split into its queue; the deferred
			// calls close the queue and release the source even when the
			// pipeline stops early.
			runSplit := func(i int, source exec.Operator) bool {
				defer close(queues[i])
				defer exec.Close(source)
				pipeline, err := compileChain(leaf.chain, source, leaf.table, leaf.groupBy, &meter)
				if err != nil {
					fail(err)
					return false
				}
				for {
					page, sel, err := pipeline.Next()
					if err != nil {
						fail(err)
						return false
					}
					if page == nil {
						return true
					}
					// After a failure elsewhere, stop streaming pages:
					// the final stage may already have stopped draining.
					if failed.Load() {
						return false
					}
					// The exchange holds the page past the next pull: it
					// keeps the live rows, copied unless the page is whole
					// and stays as it is.
					select {
					case queues[i] <- page.Keep(sel):
					case <-ctx.Done():
						fail(ctx.Err())
						return false
					}
				}
			}
			var err error
			if sources, err = conn.CreatePageSources(ctx, scan.Handle, mine, &stats.Scan); err != nil {
				fail(err)
				return
			}
			if len(sources) != len(mine) {
				fail(fmt.Errorf("engine: %s opened %d sources for %d splits", conn.Name(), len(sources), len(mine)))
				return
			}
			for k := range mine {
				i := w + k*workers
				if i >= 2*workers {
					select {
					case <-drained[i-2*workers]:
					case <-ctx.Done():
						fail(ctx.Err())
						return
					}
				}
				// Fast-fail: once any worker errors or the query context
				// ends, remaining splits are pointless work — the query
				// is already doomed.
				if failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				ran++
				if !runSplit(i, sources[k]) {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	return &leafStage{
		queues:  queues,
		drained: drained,
		done:    done,
		errFn:   func() error { return workerErr },
	}, nil
}

// finishFinalStage consumes a leaf stage's exchange output through the
// final chain (root first) on the coordinator.
func (e *Engine) finishFinalStage(stage *leafStage, exchangeSchema *types.Schema, finalChain []plan.Node, stats *QueryStats) (*column.Page, *types.Schema, error) {
	source := exec.NewFuncSource(exchangeSchema, stage.Next)
	finalOp, err := compileChain(finalChain, source, nil, nil, &stats.FinalMeter)
	if err != nil {
		// Drain workers before returning so goroutines do not leak.
		stage.Drain()
		return nil, nil, err
	}
	result, err := exec.DrainToPage(finalOp)
	stage.Drain() // drain any remainder (e.g. final Limit stopped early)
	if werr := stage.Err(); werr != nil {
		return nil, nil, werr
	}
	if err != nil {
		return nil, nil, err
	}
	return result, result.Schema, nil
}

// groupJoin returns the aggregate of a leaf chain (root first) that may
// number its groups by join's key ids (exec.HashAggregate.GroupByJoin),
// or nil. It must be the first node above the join that is not a Filter
// or a Project, table must be unique, and each of its keys must resolve,
// through Projects that pass it on as a column reference and through the
// Filters, to one of the join's keys, on either side, or to a build
// column — with every join key among them.
func groupJoin(chain []plan.Node, join *plan.Join, table *exec.JoinTable) *plan.Aggregate {
	if !table.Unique() {
		return nil
	}
	at := slices.Index(chain, plan.Node(join))
	above := at - 1
	for ; above >= 0; above-- {
		switch chain[above].(type) {
		case *plan.Filter, *plan.Project:
			continue
		}
		break
	}
	if above < 0 {
		return nil
	}
	agg, ok := chain[above].(*plan.Aggregate)
	if !ok || len(agg.Keys) == 0 {
		return nil
	}
	probeWidth := join.Probe.OutputSchema().Len()
	covered := make([]bool, len(join.ProbeKeys))
	for _, k := range agg.Keys {
		// An ordinal of the join's output: the probe's columns, then the
		// build's.
		col := plan.SourceColumn(chain[above+1:at], k)
		if col < 0 {
			return nil
		}
		isKey := false
		for i, pk := range join.ProbeKeys {
			if col == pk || col == probeWidth+join.BuildKeys[i] {
				covered[i], isKey = true, true
			}
		}
		if !isKey && col < probeWidth {
			return nil
		}
	}
	if slices.Contains(covered, false) {
		return nil
	}
	return agg
}

// compileChain lowers a root-first node chain onto a source operator. A
// Join in the chain probes table, the hash table of its drained build
// side, and groupBy, when not nil, is the aggregate above it that groups
// by the table's key ids.
func compileChain(chain []plan.Node, source exec.Operator, table *exec.JoinTable, groupBy *plan.Aggregate, meter *exec.Meter) (exec.Operator, error) {
	op := source
	var probe *exec.HashJoinProbe
	var err error
	for i := len(chain) - 1; i >= 0; i-- {
		switch t := chain[i].(type) {
		case *plan.Filter:
			op, err = exec.NewFilter(op, t.Condition, meter)
		case *plan.Project:
			op, err = exec.NewProject(op, t.Expressions, t.Names, meter)
		case *plan.Aggregate:
			mode := exec.AggSingle
			switch t.Step {
			case plan.AggPartial:
				mode = exec.AggPartial
			case plan.AggFinal:
				mode = exec.AggFinal
			}
			var agg *exec.HashAggregate
			if agg, err = exec.NewHashAggregate(op, t.Keys, t.Measures, mode, meter); err == nil && t == groupBy {
				err = agg.GroupByJoin(probe)
			}
			op = agg
		case *plan.Sort:
			op, err = exec.NewSort(op, t.Keys, meter)
		case *plan.TopN:
			op, err = exec.NewTopN(op, t.Keys, t.Count, meter)
		case *plan.Limit:
			op = exec.NewLimit(op, t.Count)
		case *plan.Join:
			probe, err = exec.NewHashJoinProbe(op, table, t.ProbeKeys, meter)
			op = probe
		case *plan.Output:
			op = &rename{input: op, schema: t.OutputSchema()}
		default:
			return nil, fmt.Errorf("engine: cannot compile %T", t)
		}
		if err != nil {
			return nil, err
		}
	}
	return op, nil
}

// rename relabels columns without copying data (Output node).
type rename struct {
	input  exec.Operator
	schema *types.Schema
}

func (r *rename) Schema() *types.Schema { return r.schema }

func (r *rename) Next() (*column.Page, []int, error) {
	page, sel, err := r.input.Next()
	if err != nil || page == nil {
		return nil, nil, err
	}
	return &column.Page{Schema: r.schema, Vectors: page.Vectors, Reused: page.Reused}, sel, nil
}
