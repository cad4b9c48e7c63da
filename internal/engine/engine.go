package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prestocs/internal/analyzer"
	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/costmodel"
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
	listeners  []EventListener

	// DefaultCatalog resolves unqualified table names.
	DefaultCatalog string
	// Workers is the leaf-stage parallelism (like Presto task
	// concurrency). Defaults to GOMAXPROCS.
	Workers int

	// Cost parameterizes engine-side planning decisions, currently the
	// broadcast-vs-final-stage join strategy. The zero value falls back
	// to costmodel.Default() thresholds.
	Cost costmodel.Params

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

// AddEventListener registers a query-completion listener.
func (e *Engine) AddEventListener(l EventListener) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.listeners = append(e.listeners, l)
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
		priority: o.priority,
		memory:   o.memory,
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
		stats.UsedPushdown = len(stats.PushedDown) > 0
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

	event := QueryEvent{SQL: sql, Catalog: scan.Catalog, Table: scan.Table, Stats: stats, Err: err}
	e.mu.RLock()
	listeners := append([]EventListener(nil), e.listeners...)
	e.mu.RUnlock()
	for _, l := range listeners {
		l.QueryCompleted(event)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Page: page, Stats: stats}, nil
}

// PushdownReporter lets handles report which operators they absorbed.
type PushdownReporter interface {
	PushedOperators() []string
}

// run executes an optimized plan with the one stage sequence: a leaf
// stage per split on the worker pool, the final stage on the coordinator,
// pipelined through a channel. The final-stage spine ends at an Exchange
// or at a Join; a Join first runs its build stage, adds its probe hook
// and hands back its probe branch as the leaf stage to start.
func (e *Engine) run(ctx context.Context, root plan.Node, session *Session, stats *QueryStats) (*column.Page, *types.Schema, error) {
	final, end := plan.Spine(root)
	var branch plan.Node
	for i, n := range final {
		if _, ok := n.(*plan.Exchange); ok {
			final, branch = final[:i], n
			break
		}
	}
	var probe joinProbe
	join, _ := end.(*plan.Join)
	if branch == nil {
		if join == nil {
			return nil, nil, fmt.Errorf("engine: plan has no exchange")
		}
		var err error
		if probe, err = e.buildJoin(ctx, join, session, stats); err != nil {
			return nil, nil, err
		}
		branch = join.Probe
	}
	stage, exchangeSchema, err := e.startLeafStage(ctx, branch, stats, probe.inLeaf)
	if err != nil {
		return nil, nil, err
	}
	if probe.inLeaf != nil {
		exchangeSchema = join.OutputSchema() // workers ship joined rows
	}
	return e.finishFinalStage(stage, exchangeSchema, final, probe.inFinal, stats)
}

// joinProbe is what a Join adds to the stage sequence: the probe over
// the built table, placed by strategy. Broadcast replicates the (small,
// read-only) table into every leaf worker so probing parallelizes with
// the scan (inLeaf); final-stage keeps the table on the coordinator and
// probes the exchange stream (inFinal). Exactly one is set.
type joinProbe struct {
	inLeaf  func(exec.Operator, *exec.Meter) (exec.Operator, error)
	inFinal func(exec.Operator) (exec.Operator, error)
}

// buildJoin runs the build branch as its own leaf stage and drains it
// into a hash table on the coordinator, picks the probe strategy, and —
// when the join has a single key and the probe branch is filter-only over
// a BloomJoinHandle — pushes a bloom filter over the build keys into the
// probe scan so storage drops non-matching rows before they cross the
// network.
func (e *Engine) buildJoin(ctx context.Context, join *plan.Join, session *Session, stats *QueryStats) (joinProbe, error) {
	// BuildJoinTable returns a truncated table without error when workers
	// failed, so the stage error wins.
	buildStage, buildSchema, err := e.startLeafStage(ctx, join.Build, stats, nil)
	if err != nil {
		return joinProbe{}, err
	}
	buildSrc := exec.NewFuncSource(buildSchema, buildStage.Next)
	table, err := exec.BuildJoinTable(buildSrc, join.BuildKeys, &stats.FinalMeter)
	buildStage.Drain()
	if werr := buildStage.Err(); werr != nil {
		return joinProbe{}, werr
	}
	if err != nil {
		return joinProbe{}, err
	}
	stats.JoinBuildRows = int64(table.Rows())

	// Bloom pushdown into the probe scan. A filter-only probe branch
	// passes the scan's schema through — projected to what the plan reads
	// (plan.NarrowJoin), keys included — so ProbeKeys[0] is the key's
	// ordinal over the handle's ScanSchema.
	_, probeLeaf, probeScan, err := leafBranch(join.Probe)
	if err != nil {
		return joinProbe{}, err
	}
	filterOnly := true
	for _, n := range probeLeaf {
		if _, ok := n.(*plan.Filter); !ok {
			filterOnly = false
		}
	}
	if bh, ok := probeScan.Handle.(plan.BloomJoinHandle); ok && filterOnly && len(join.BuildKeys) == 1 && session.Get(SessionJoinBloom) != "off" {
		if f, err := table.BuildBloom(bloom.DefaultBitsPerKey); err == nil {
			if nh, ok := bh.WithJoinBloom(join.ProbeKeys[0], f, int64(table.Rows())); ok {
				probeScan.Handle = nh
				if ph, ok := nh.(PushdownReporter); ok {
					stats.PushedDown = ph.PushedOperators()
					stats.UsedPushdown = len(stats.PushedDown) > 0
				}
			}
		}
	}

	strategy := join.Strategy
	if strategy == plan.JoinAuto {
		strategy = plan.JoinFinalStage
		if e.Cost.BroadcastJoin(int64(table.Rows()), table.Bytes()) {
			strategy = plan.JoinBroadcast
		}
	}
	if strategy == plan.JoinBroadcast {
		stats.JoinStrategy = "broadcast"
		return joinProbe{inLeaf: func(op exec.Operator, meter *exec.Meter) (exec.Operator, error) {
			return exec.NewHashJoinProbe(op, table, join.ProbeKeys, meter)
		}}, nil
	}
	stats.JoinStrategy = "final-stage"
	return joinProbe{inFinal: func(src exec.Operator) (exec.Operator, error) {
		return exec.NewHashJoinProbe(src, table, join.ProbeKeys, &stats.FinalMeter)
	}}, nil
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
	queues []chan *column.Page // one per split, closed by whoever retires the split
	next   int                 // the lowest split not yet drained
	window chan struct{}       // a token per split workers may start ahead of next
	done   chan struct{}       // closed once every worker has exited
	errFn  func() error
}

// Next returns the stage's next page in (split, emission) order, or nil
// once every split is drained and every worker has exited. It never
// deadlocks: workers take splits in index order, so the lowest undrained
// split is either running or the next one a free worker starts.
func (ls *leafStage) Next() (*column.Page, error) {
	for ls.next < len(ls.queues) {
		if page, ok := <-ls.queues[ls.next]; ok {
			return page, nil
		}
		ls.next++
		ls.window <- struct{}{}
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

// splitQueuePages bounds one split's queue: with the window of two splits
// per worker, a stage buffers at most 2 × workers × splitQueuePages pages.
const splitQueuePages = 2

// leafBranch takes an Exchange-rooted branch apart: the Exchange, the
// leaf-stage nodes below it (root first) and the scan they end on.
func leafBranch(branch plan.Node) (*plan.Exchange, []plan.Node, *plan.TableScan, error) {
	spine, end := plan.Spine(branch)
	if scan, ok := end.(*plan.TableScan); ok && len(spine) > 0 {
		if exchange, ok := spine[0].(*plan.Exchange); ok {
			return exchange, spine[1:], scan, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("engine: leaf stage must be an exchange over a scan, not %T over %T", branch, end)
}

// startLeafStage launches the worker pool over the splits of an
// Exchange-rooted branch's scan, compiling the branch's leaf nodes onto
// each split's page source, and returns the stage with the schema of the
// pages it feeds the exchange. wrap, when set, is applied per worker on
// top of the compiled pipeline — the broadcast hash join probes inside
// the workers this way. Worker operator time lands in stats.LeafMeter and
// the split count adds to stats.Splits.
func (e *Engine) startLeafStage(ctx context.Context, branch plan.Node, stats *QueryStats, wrap func(exec.Operator, *exec.Meter) (exec.Operator, error)) (*leafStage, *types.Schema, error) {
	exchange, chain, scan, err := leafBranch(branch)
	if err != nil {
		return nil, nil, err
	}
	conn, err := e.connector(scan.Handle.ConnectorName())
	if err != nil {
		return nil, nil, err
	}
	var splits []Split
	if ss, ok := conn.(SplitSource); ok {
		splits, err = ss.SplitsWithStats(scan.Handle, &stats.Scan)
	} else {
		splits, err = conn.Splits(scan.Handle)
	}
	if err != nil {
		return nil, nil, err
	}
	stats.Splits += len(splits)

	workers := e.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(splits) {
		workers = len(splits)
	}
	if workers == 0 {
		workers = 1
	}

	// Workers take splits in index order and retire each into its own
	// queue; the window keeps them from running further ahead of the
	// consumer than it can buffer (the consumer refills it split by split).
	splitCh := make(chan int, len(splits))
	queues := make([]chan *column.Page, len(splits))
	for i := range splits {
		splitCh <- i
		queues[i] = make(chan *column.Page, splitQueuePages)
	}
	close(splitCh)
	// Sized so the consumer's refill never blocks, even for splits a
	// failed stage retires without ever starting them.
	window := make(chan struct{}, len(splits)+workers*2)
	for i := 0; i < workers*2; i++ {
		window <- struct{}{}
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
			// runSplit processes one split into its queue; the deferred
			// calls close the queue and release sources that hold external
			// resources (e.g. an open OCS result stream) even when the
			// pipeline stops early.
			runSplit := func(i int) bool {
				defer close(queues[i])
				source, err := conn.CreatePageSource(ctx, scan.Handle, splits[i], &stats.Scan)
				if err != nil {
					fail(err)
					return false
				}
				defer exec.Close(source)
				pipeline, err := compileChain(chain, source, &meter)
				if err != nil {
					fail(err)
					return false
				}
				if wrap != nil {
					if pipeline, err = wrap(pipeline, &meter); err != nil {
						fail(err)
						return false
					}
				}
				for {
					page, err := pipeline.Next()
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
					select {
					case queues[i] <- page:
					case <-ctx.Done():
						fail(ctx.Err())
						return false
					}
				}
			}
			for {
				select {
				case <-window:
				case <-ctx.Done():
					fail(ctx.Err())
					return
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
				i, ok := <-splitCh
				if !ok || !runSplit(i) {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		// Splits a failed or cancelled stage never started.
		for i := range splitCh {
			close(queues[i])
		}
		close(done)
	}()

	return &leafStage{
		queues: queues,
		window: window,
		done:   done,
		errFn:  func() error { return workerErr },
	}, exchange.OutputSchema(), nil
}

// finishFinalStage consumes a leaf stage's exchange output through the
// final chain (root first) on the coordinator. extra, when set, is
// inserted between the exchange and the final chain (the final-stage
// hash join probe).
func (e *Engine) finishFinalStage(stage *leafStage, exchangeSchema *types.Schema, finalChain []plan.Node, extra func(exec.Operator) (exec.Operator, error), stats *QueryStats) (*column.Page, *types.Schema, error) {
	source := exec.Operator(exec.NewFuncSource(exchangeSchema, stage.Next))
	var err error
	if extra != nil {
		if source, err = extra(source); err != nil {
			stage.Drain()
			return nil, nil, err
		}
	}
	finalOp, err := compileChain(finalChain, source, &stats.FinalMeter)
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

// compileChain lowers a root-first node chain onto a source operator.
func compileChain(chain []plan.Node, source exec.Operator, meter *exec.Meter) (exec.Operator, error) {
	op := source
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
			op, err = exec.NewHashAggregate(op, t.Keys, t.Measures, mode, meter)
		case *plan.Sort:
			op, err = exec.NewSort(op, t.Keys, meter)
		case *plan.TopN:
			op, err = exec.NewTopN(op, t.Keys, t.Count, meter)
		case *plan.Limit:
			op = exec.NewLimit(op, t.Count)
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

func (r *rename) Next() (*column.Page, error) {
	page, err := r.input.Next()
	if err != nil || page == nil {
		return nil, err
	}
	return &column.Page{Schema: r.schema, Vectors: page.Vectors}, nil
}
