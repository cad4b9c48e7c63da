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
	// broadcast-vs-partitioned join strategy. The zero value falls back
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

	// 4. Connector-specific (local) optimization. For joins, the probe
	// side's connector drives local optimization and pushdown reporting.
	scan := plan.FindScan(optimized)
	if join := plan.FindJoin(optimized); join != nil {
		scan = plan.FindScan(join.Probe)
	}
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

	// 5-6. Split generation, scheduling, execution.
	scan = plan.FindScan(optimized)
	join := plan.FindJoin(optimized)
	if join != nil {
		scan = plan.FindScan(join.Probe)
	}
	if scan == nil {
		return fail(fmt.Errorf("engine: optimized plan lost its scan"))
	}
	if ph, ok := scan.Handle.(PushdownReporter); ok {
		stats.PushedDown = ph.PushedOperators()
		stats.UsedPushdown = len(stats.PushedDown) > 0
	}
	start = time.Now()
	q.setState(StateRunning)
	execCtx, execSpan := telemetry.StartSpan(ctx, "engine.execution")
	var page *column.Page
	var schema *types.Schema
	if join != nil {
		page, schema, err = e.runJoin(execCtx, optimized, join, scan, conn, session, stats)
	} else {
		page, schema, err = e.run(execCtx, optimized, scan, conn, stats)
	}
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

// run executes a single-table physical plan: leaf stage per split on
// the worker pool, final stage on the coordinator, pipelined through a
// channel.
func (e *Engine) run(ctx context.Context, root plan.Node, scan *plan.TableScan, conn Connector, stats *QueryStats) (*column.Page, *types.Schema, error) {
	leafChain, finalChain, err := splitAtExchange(root)
	if err != nil {
		return nil, nil, err
	}
	stage, nsplits, err := e.startLeafStage(ctx, leafChain, scan, conn, stats, nil)
	if err != nil {
		return nil, nil, err
	}
	stats.Splits = nsplits
	exchangeSchema := leafOutputSchema(leafChain, scan)
	return e.finishFinalStage(stage, exchangeSchema, finalChain, nil, stats)
}

// runJoin executes a plan containing one inner equi-join. The build
// side runs first as its own leaf stage and is indexed into a hash
// table on the coordinator. Strategy then picks where the probe
// happens: broadcast replicates the (small) table into every leaf
// worker so probing parallelizes with the scan; partitioned keeps the
// table on the coordinator and probes the exchange stream in the final
// stage. When the build side has a single key and the probe branch is
// filter-only over a BloomJoinHandle, a bloom filter over the build
// keys is pushed into the probe scan so storage drops non-matching rows
// before they cross the network.
func (e *Engine) runJoin(ctx context.Context, root plan.Node, join *plan.Join, probeScan *plan.TableScan, probeConn Connector, session *Session, stats *QueryStats) (*column.Page, *types.Schema, error) {
	above, err := chainToJoin(root)
	if err != nil {
		return nil, nil, err
	}
	probeLeaf, probeFinal, err := splitAtExchange(join.Probe)
	if err != nil {
		return nil, nil, err
	}
	if len(probeFinal) > 0 {
		return nil, nil, fmt.Errorf("engine: join probe has operators above its exchange")
	}

	// Build stage: run the whole build branch on the worker pool, drain
	// it into the hash table. BuildJoinTable returns a truncated table
	// without error when workers failed, so the stage error wins.
	buildScan := plan.FindScan(join.Build)
	if buildScan == nil {
		return nil, nil, fmt.Errorf("engine: join build side has no scan")
	}
	buildConn, err := e.connector(buildScan.Handle.ConnectorName())
	if err != nil {
		return nil, nil, err
	}
	buildChain, err := branchChain(join.Build)
	if err != nil {
		return nil, nil, err
	}
	buildStage, buildSplits, err := e.startLeafStage(ctx, buildChain, buildScan, buildConn, stats, nil)
	if err != nil {
		return nil, nil, err
	}
	buildSrc := exec.NewFuncSource(leafOutputSchema(buildChain, buildScan), func() (*column.Page, error) {
		page, ok := <-buildStage.Pages
		if !ok {
			return nil, nil
		}
		return page, nil
	})
	table, err := exec.BuildJoinTable(buildSrc, join.BuildKeys, &stats.FinalMeter)
	buildStage.Drain()
	if werr := buildStage.Err(); werr != nil {
		return nil, nil, werr
	}
	if err != nil {
		return nil, nil, err
	}
	stats.JoinBuildRows = int64(table.Rows())

	strategy := join.Strategy
	if strategy == plan.JoinAuto {
		if e.Cost.BroadcastJoin(int64(table.Rows()), table.Bytes()) {
			strategy = plan.JoinBroadcast
		} else {
			strategy = plan.JoinPartitioned
		}
	}

	// Bloom pushdown into the probe scan. Filter-only probe branches
	// keep scan-schema ordinals intact, so the join key ordinal maps
	// straight onto the handle.
	if len(join.BuildKeys) == 1 && session.Get(SessionJoinBloom) != "off" && filterOnly(probeLeaf) {
		if bh, ok := probeScan.Handle.(plan.BloomJoinHandle); ok {
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
	}

	// Probe stage.
	var wrap func(exec.Operator, *exec.Meter) (exec.Operator, error)
	var extra func(exec.Operator) (exec.Operator, error)
	var exchangeSchema *types.Schema
	switch strategy {
	case plan.JoinBroadcast:
		stats.JoinStrategy = "broadcast"
		// The table is read-only after build; every worker probes it.
		wrap = func(op exec.Operator, meter *exec.Meter) (exec.Operator, error) {
			return exec.NewHashJoinProbe(op, table, join.ProbeKeys, meter)
		}
		exchangeSchema = join.OutputSchema()
	default:
		stats.JoinStrategy = "partitioned"
		extra = func(src exec.Operator) (exec.Operator, error) {
			return exec.NewHashJoinProbe(src, table, join.ProbeKeys, &stats.FinalMeter)
		}
		exchangeSchema = leafOutputSchema(probeLeaf, probeScan)
	}
	probeStage, probeSplits, err := e.startLeafStage(ctx, probeLeaf, probeScan, probeConn, stats, wrap)
	if err != nil {
		return nil, nil, err
	}
	stats.Splits = probeSplits + buildSplits
	return e.finishFinalStage(probeStage, exchangeSchema, above, extra, stats)
}

// chainToJoin returns the single-child spine strictly above the plan's
// join, bottom-up.
func chainToJoin(root plan.Node) ([]plan.Node, error) {
	var above []plan.Node
	n := root
	for {
		if _, ok := n.(*plan.Join); ok {
			break
		}
		kids := n.Children()
		if len(kids) != 1 {
			return nil, fmt.Errorf("engine: unsupported plan shape above join (%T)", n)
		}
		above = append(above, n)
		n = kids[0]
	}
	for i, j := 0, len(above)-1; i < j; i, j = i+1, j-1 {
		above[i], above[j] = above[j], above[i]
	}
	return above, nil
}

// branchChain returns an exchange-free join branch's nodes strictly
// above its scan, bottom-up.
func branchChain(root plan.Node) ([]plan.Node, error) {
	var chain []plan.Node
	n := root
	for {
		if _, ok := n.(*plan.TableScan); ok {
			break
		}
		kids := n.Children()
		if len(kids) != 1 {
			return nil, fmt.Errorf("engine: non-linear join branch (%T)", n)
		}
		chain = append(chain, n)
		n = kids[0]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// filterOnly reports whether every node in the chain is a Filter (the
// shape under which scan-schema column ordinals survive unchanged).
func filterOnly(chain []plan.Node) bool {
	for _, n := range chain {
		if _, ok := n.(*plan.Filter); !ok {
			return false
		}
	}
	return true
}

// leafStage is one scan's distributed fan-out in flight: Pages streams
// worker output and closes when every split is done (or the stage
// failed). Err is valid only after Pages closes.
type leafStage struct {
	Pages  chan *column.Page
	failed *atomic.Bool
	errFn  func() error
}

// Err returns the first worker error; call only after Pages has closed.
func (ls *leafStage) Err() error { return ls.errFn() }

// Drain discards any unconsumed pages (and so unblocks workers) until
// Pages closes.
func (ls *leafStage) Drain() {
	for range ls.Pages {
	}
}

// startLeafStage launches the worker pool over the scan's splits,
// compiling chain (bottom-up, exchange-free) onto each split's page
// source. wrap, when set, is applied per worker on top of the compiled
// pipeline — the broadcast hash join probes inside the workers this way.
// Worker operator time lands in stats.LeafMeter.
func (e *Engine) startLeafStage(ctx context.Context, chain []plan.Node, scan *plan.TableScan, conn Connector, stats *QueryStats, wrap func(exec.Operator, *exec.Meter) (exec.Operator, error)) (*leafStage, int, error) {
	var splits []Split
	var err error
	if ss, ok := conn.(SplitSource); ok {
		splits, err = ss.SplitsWithStats(scan.Handle, &stats.Scan)
	} else {
		splits, err = conn.Splits(scan.Handle)
	}
	if err != nil {
		return nil, 0, err
	}

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

	splitCh := make(chan Split, len(splits))
	for _, s := range splits {
		splitCh <- s
	}
	close(splitCh)

	pageCh := make(chan *column.Page, workers*2)
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
			// runSplit processes one split; the deferred close releases
			// sources that hold external resources (e.g. an open OCS
			// result stream) even when the pipeline stops early.
			runSplit := func(split Split) bool {
				source, err := conn.CreatePageSource(ctx, scan.Handle, split, &stats.Scan)
				if err != nil {
					fail(err)
					return false
				}
				defer closeSource(source)
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
					case pageCh <- page:
					case <-ctx.Done():
						fail(ctx.Err())
						return false
					}
				}
			}
			for split := range splitCh {
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
				if !runSplit(split) {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(pageCh)
	}()

	return &leafStage{
		Pages:  pageCh,
		failed: &failed,
		errFn:  func() error { return workerErr },
	}, len(splits), nil
}

// finishFinalStage consumes a leaf stage's exchange output through the
// final chain on the coordinator. extra, when set, is inserted between
// the exchange and the final chain (the partitioned hash join probe).
func (e *Engine) finishFinalStage(stage *leafStage, exchangeSchema *types.Schema, finalChain []plan.Node, extra func(exec.Operator) (exec.Operator, error), stats *QueryStats) (*column.Page, *types.Schema, error) {
	source := exec.Operator(exec.NewFuncSource(exchangeSchema, func() (*column.Page, error) {
		page, ok := <-stage.Pages
		if !ok {
			return nil, nil
		}
		return page, nil
	}))
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

// closeSource releases a page source that holds external resources.
// Operators are pull-based with no mandatory lifecycle, so sources that
// need cleanup (streaming connectors) expose an optional Close.
func closeSource(source exec.Operator) {
	if c, ok := source.(interface{ Close() error }); ok {
		c.Close()
	}
}

// splitAtExchange returns the node chains below and above the Exchange,
// each ordered bottom-up (scan side first) and excluding the scan and the
// exchange themselves.
func splitAtExchange(root plan.Node) (leaf, final []plan.Node, err error) {
	var chain []plan.Node
	n := root
	for {
		chain = append(chain, n)
		kids := n.Children()
		if len(kids) == 0 {
			break
		}
		if len(kids) > 1 {
			return nil, nil, fmt.Errorf("engine: non-linear plan")
		}
		n = kids[0]
	}
	// chain is root-first; find exchange and scan.
	exchangeIdx := -1
	for i, node := range chain {
		if _, ok := node.(*plan.Exchange); ok {
			exchangeIdx = i
			break
		}
	}
	if exchangeIdx < 0 {
		return nil, nil, fmt.Errorf("engine: plan has no exchange")
	}
	if _, ok := chain[len(chain)-1].(*plan.TableScan); !ok {
		return nil, nil, fmt.Errorf("engine: plan leaf is not a scan")
	}
	// Leaf: nodes strictly between scan and exchange, bottom-up.
	for i := len(chain) - 2; i > exchangeIdx; i-- {
		leaf = append(leaf, chain[i])
	}
	// Final: nodes strictly above exchange, bottom-up.
	for i := exchangeIdx - 1; i >= 0; i-- {
		final = append(final, chain[i])
	}
	return leaf, final, nil
}

// leafOutputSchema computes the schema pages have when they reach the
// exchange.
func leafOutputSchema(leafChain []plan.Node, scan *plan.TableScan) *types.Schema {
	if len(leafChain) == 0 {
		return scan.Handle.ScanSchema()
	}
	return leafChain[len(leafChain)-1].OutputSchema()
}

// compileChain lowers a bottom-up node chain onto a source operator.
func compileChain(chain []plan.Node, source exec.Operator, meter *exec.Meter) (exec.Operator, error) {
	op := source
	var err error
	for _, node := range chain {
		switch t := node.(type) {
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
			op, err = exec.NewSort(op, plan.SortSpecs(t.Keys), meter)
		case *plan.TopN:
			op, err = exec.NewTopN(op, plan.SortSpecs(t.Keys), t.Count, meter)
		case *plan.Limit:
			op = exec.NewLimit(op, t.Count)
		case *plan.Output:
			op, err = newRename(op, t.Names)
		default:
			return nil, fmt.Errorf("engine: cannot compile %T", node)
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

func newRename(input exec.Operator, names []string) (exec.Operator, error) {
	in := input.Schema()
	cols := make([]types.Column, in.Len())
	for i, c := range in.Columns {
		name := c.Name
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		cols[i] = types.Column{Name: name, Type: c.Type}
	}
	return &rename{input: input, schema: types.NewSchema(cols...)}, nil
}

func (r *rename) Schema() *types.Schema { return r.schema }

func (r *rename) Next() (*column.Page, error) {
	page, err := r.input.Next()
	if err != nil || page == nil {
		return nil, err
	}
	return &column.Page{Schema: r.schema, Vectors: page.Vectors}, nil
}
