// Package ocsserver implements the Object-based Computational Storage
// system: a frontend node that accepts Substrait plans over RPC and
// dispatches them to storage nodes, each of which holds objects and runs
// an embedded SQL engine (built from internal/exec) directly over its
// parquetlite objects, returning Apache Arrow-style columnar results.
// This mirrors the paper's OCS architecture (§2.3, §5.1).
package ocsserver

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"prestocs/internal/bloom"
	"prestocs/internal/cache"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/costmodel"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// openOpts are the inputs of one local plan execution beyond the store
// and the plan. The zero value is the in-process default: uncached, no
// telemetry, cost-model scan pool, an ephemeral scheduler.
type openOpts struct {
	// scanPool sizes the row-group scan pool; <= 0 selects the cost-model
	// storage-node core count, 1 forces the sequential scanner.
	scanPool int

	// sched is the fair-share scan scheduler the execution submits its
	// row-group tasks to: the node's shared scheduler for RPC queries. Nil
	// gives the execution an ephemeral one that its LocalStream owns and
	// closes (in-process callers have no node to share one with).
	sched *scanScheduler

	// noPrune disables statistics-driven row-group pruning; the
	// differential property tests compare pruned runs against it.
	noPrune bool

	// caches holds the node's footer and hot-page caches; nil runs fully
	// uncached (in-process callers and the connector's replay, which must
	// not touch node caches it cannot see).
	caches *cache.Storage

	// ctx carries the ambient tracer, span and metrics registry of the
	// request this execution serves; nil means no telemetry (in-process
	// callers).
	ctx context.Context
}

// execEnv carries the shared state of one local plan execution: its
// inputs, the operator meter, the work-stats sink (guarded by mu because
// the parallel scanner merges reader I/O from several goroutines) and the
// cleanup hooks that stop scanner workers when the pipeline is drained or
// abandoned.
type execEnv struct {
	openOpts
	meter   exec.Meter
	mu      sync.Mutex
	stats   objstore.WorkStats
	closers []func()

	// ownSched marks an ephemeral scheduler the stream's teardown closes.
	ownSched bool
}

// context returns the env's request context, never nil.
func (env *execEnv) context() context.Context {
	if env.ctx == nil {
		return context.Background()
	}
	return env.ctx
}

func newExecEnv(o openOpts) *execEnv {
	env := &execEnv{openOpts: o}
	if env.scanPool <= 0 {
		env.scanPool = costmodel.StorageScanParallelism()
	}
	if env.sched == nil {
		env.sched = newScanScheduler() // vet-concurrency:allow in-process entry point; no node-wide scheduler exists to share
		env.ownSched = true
	}
	return env
}

// addStatsDelta merges one row group's reader I/O into the shared sink.
func (env *execEnv) addStatsDelta(bytesRead, bytesDecompressed int64, cpuUnits float64) {
	env.mu.Lock()
	env.stats.BytesRead += bytesRead
	env.stats.BytesDecompressed += bytesDecompressed
	env.stats.CPUUnits += cpuUnits
	env.mu.Unlock()
}

// close stops scanner workers and waits for them to exit. Safe to call
// more than once.
func (env *execEnv) close() {
	for _, fn := range env.closers {
		fn()
	}
	env.closers = nil
}

// finish folds the operator meter into the stats snapshot and returns it.
// Call after the pipeline has been drained and closed.
func (env *execEnv) finish() *objstore.WorkStats {
	env.mu.Lock()
	defer env.mu.Unlock()
	st := env.stats
	st.RowsProcessed = env.meter.Rows
	st.CPUUnits += env.meter.Units
	return &st
}

// compilePlan lowers a validated Substrait plan into an exec pipeline over
// the local store. The env's meter accumulates storage-side CPU work;
// reader I/O is merged into env.stats incrementally as row groups are
// read.
//
// Row-group pruning: when a FilterRel sits directly on the ReadRel, the
// filter condition is remapped to full-schema ordinals and used to prune
// row groups via chunk statistics before any column data is read.
func compilePlan(store *objstore.Store, plan *substrait.Plan, env *execEnv) (exec.Operator, error) {
	return compileRel(store, plan.Root, env)
}

func compileRel(store *objstore.Store, rel substrait.Rel, env *execEnv) (exec.Operator, error) {
	switch t := rel.(type) {
	case *substrait.ReadRel:
		return compileRead(store, t, nil, env)
	case *substrait.FilterRel:
		if read, ok := t.Input.(*substrait.ReadRel); ok {
			// Fuse filter into the scan so pruning can use the predicate.
			// The filter evaluates through the vectorized selection path
			// over the scanner's row-group pages; when a Project or a
			// second Filter sits above it, the selection is handed over
			// unmaterialized (exec.SelSource) and dense pages are only
			// built at the stream/aggregate boundary.
			src, err := compileRead(store, read, t.Condition, env)
			if err != nil {
				return nil, err
			}
			return exec.NewFilter(src, t.Condition, &env.meter)
		}
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(input, t.Condition, &env.meter)
	case *substrait.BloomFilterRel:
		// Join semi-filter pushed from the engine: hash each probe row's
		// key against the build side's bloom bits and drop proven misses
		// before they reach the wire. Sits above FilterRel by IR contract,
		// so filter-on-read fusion (row-group pruning) still fires below.
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		f, err := bloom.FromBits(t.Bits, t.NumHash)
		if err != nil {
			return nil, rpc.WithCode(fmt.Errorf("ocsserver: bad bloom filter: %w", err), rpc.CodeInvalid)
		}
		reg := telemetry.RegistryFrom(env.context())
		tested := reg.Counter(telemetry.MetricStorageBloomRowsTested)
		filtered := reg.Counter(telemetry.MetricStorageBloomRowsFiltered)
		return exec.NewBloomProbe(input, t.Column, f, &env.meter, func(in, kept int) {
			tested.Add(int64(in))
			filtered.Add(int64(in - kept))
		})
	case *substrait.ProjectRel:
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		return exec.NewProject(input, t.Expressions, t.Names, &env.meter)
	case *substrait.AggregateRel:
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		// Storage nodes always produce partial aggregates; the engine
		// merges them (DESIGN.md §4).
		return exec.NewHashAggregate(input, t.GroupKeys, t.Measures, exec.AggPartial, &env.meter)
	case *substrait.SortRel:
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		return exec.NewSort(input, t.Keys, &env.meter)
	case *substrait.FetchRel:
		// Sort+Fetch compiles to TopN; bare Fetch to Limit.
		if sortRel, ok := t.Input.(*substrait.SortRel); ok {
			input, err := compileRel(store, sortRel.Input, env)
			if err != nil {
				return nil, err
			}
			return exec.NewTopN(input, sortRel.Keys, t.Offset+t.Count, &env.meter)
		}
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(input, t.Offset+t.Count), nil
	default:
		return nil, fmt.Errorf("ocsserver: unsupported relation %T", rel)
	}
}

// compileRead builds a page source over the object, applying column
// projection and (when pruneWith is non-nil) row-group pruning. With a
// scan pool larger than one and several surviving row groups, the source
// scans row groups concurrently with an order-preserving merge.
func compileRead(store *objstore.Store, read *substrait.ReadRel, pruneWith expr.Expr, env *execEnv) (exec.Operator, error) {
	data, ver, err := store.GetVersioned(read.Bucket, read.Object)
	if err != nil {
		return nil, err // the store's lookup errors carry rpc.CodeNotFound
	}
	// The object key embeds the store generation, so footers and pages
	// cached for an earlier version of a re-put object can never be hit.
	objKey := cache.ObjectKey(read.Bucket, read.Object, ver)
	r, err := env.caches.Footer().Open(objKey, data)
	if err != nil {
		return nil, fmt.Errorf("ocsserver: %s/%s: %w", read.Bucket, read.Object, err)
	}
	fileSchema := r.Schema()
	outSchema, err := read.OutputSchema()
	if err != nil {
		return nil, err
	}
	// The plan's base schema must agree with the stored object.
	if !read.BaseSchema.Equal(fileSchema) {
		return nil, fmt.Errorf("ocsserver: plan schema %s does not match object schema %s", read.BaseSchema, fileSchema)
	}
	cols := read.Projection
	if cols == nil {
		cols = make([]int, fileSchema.Len())
		for i := range cols {
			cols[i] = i
		}
	}

	// Remap the predicate from read-output ordinals to full-schema
	// ordinals for pruning; skip pruning when the mapping is partial.
	// Pruning-heavy scans (at least half the groups skipped) switch the
	// page cache to two-touch admission: a highly selective workload
	// rarely re-reads the same surviving chunks, so first sightings go to
	// the ghost list instead of evicting genuinely hot pages.
	groups := make([]int, len(r.Meta().RowGroups))
	for i := range groups {
		groups[i] = i
	}
	twoTouch := false
	if pruneWith != nil && !env.noPrune {
		mapping := make(map[int]int, len(cols))
		for outIdx, fullIdx := range cols {
			mapping[outIdx] = fullIdx
		}
		if remapped, err := expr.Remap(pruneWith, mapping); err == nil {
			if ranges := expr.AnalyzeRanges(remapped); ranges.Constrained() {
				keep, pruned, skipped := r.PruneRowGroupsRanges(ranges, cols)
				if len(pruned) > 0 {
					recordPrune(env, read.Object, pruned, skipped)
					groups = keep
					twoTouch = 2*len(pruned) >= len(r.Meta().RowGroups)
				}
			}
		}
	}

	// Multi-group scans on a node's shared scheduler always go through it —
	// even at ScanPool=1, where there is no intra-scan parallelism, the
	// scheduler is what round-robins concurrent queries fairly and what the
	// node's storage-load signal (scheduler backlog) is sampled from; an
	// inline scan would be invisible to both. An env that owns an ephemeral
	// scheduler (in-process entry points, the connector's replay paths) has
	// neither concern, so it only pays the per-task handoff when it buys
	// real parallelism.
	if len(groups) > 1 && (!env.ownSched || env.scanPool > 1) {
		return parallelScan(env, data, r.Meta(), objKey, groups, cols, twoTouch, outSchema), nil
	}

	idx := 0
	projSchema := r.Meta().Schema.Project(cols)
	scanned := telemetry.RegistryFrom(env.context()).Counter(telemetry.MetricScanPoolRowGroups)
	return exec.NewFuncSource(outSchema, func() (*column.Page, error) {
		if idx >= len(groups) {
			return nil, nil
		}
		rg := groups[idx]
		idx++
		_, sp := telemetry.StartSpan(env.context(), "scan.rowgroup")
		sp.SetAttr("group", strconv.Itoa(rg))
		page, err := env.readGroup(r, objKey, rg, cols, projSchema, twoTouch)
		sp.End()
		scanned.Inc()
		if err != nil {
			return nil, err
		}
		return page, nil
	}), nil
}

// readGroup materializes one row group's projected columns, serving
// individual chunks from the node's hot-page cache when possible. It is
// the single post-prune decode site: every rg comes from a keep list.
// Cache hits cost no storage I/O or decompression, so only the chunks
// actually decoded are merged into the work stats — which is exactly the
// bytes-decoded drop BenchmarkHotCache measures.
func (env *execEnv) readGroup(r *parquetlite.Reader, objKey string, rg int, cols []int, schema *types.Schema, twoTouch bool) (*column.Page, error) {
	pc := env.caches.Pages()
	prevRead, prevDec := r.BytesRead, r.BytesDecompressed
	page := &column.Page{Schema: schema, Vectors: make([]*column.Vector, len(cols))}
	for i, c := range cols {
		var key string
		if pc != nil {
			key = cache.PageKey(objKey, rg, c)
			if vec, ok := pc.Get(key); ok {
				page.Vectors[i] = vec
				continue
			}
		}
		vec, err := r.ReadColumn(rg, c) // vet-pruning:allow rg comes from the post-prune keep list
		if err != nil {
			return nil, err
		}
		if pc != nil {
			pc.Put(key, vec, twoTouch)
		}
		page.Vectors[i] = vec
	}
	// Merge reader I/O counters incrementally so stats stay correct even
	// if the pipeline stops early (e.g. under a Limit) and when several
	// reads share one stats sink.
	if deltaDec := r.BytesDecompressed - prevDec; deltaDec > 0 || r.BytesRead > prevRead {
		env.addStatsDelta(r.BytesRead-prevRead, deltaDec,
			float64(deltaDec)*compress.DecompressCostPerByte(r.Meta().Codec))
	}
	return page, nil
}

// recordPrune publishes one object's row-group pruning decision: the
// counters feed /metrics, and the trace gets one scan.prune span per
// object with an event per skipped group, sitting next to the
// scan.rowgroup spans of the groups that were actually read.
func recordPrune(env *execEnv, object string, pruned []int, bytesSkipped int64) {
	reg := telemetry.RegistryFrom(env.context())
	reg.Counter(telemetry.MetricScanRowGroupsPruned).Add(int64(len(pruned)))
	reg.Counter(telemetry.MetricScanBytesSkipped).Add(bytesSkipped)
	_, sp := telemetry.StartSpan(env.context(), "scan.prune")
	sp.SetAttr("object", object)
	sp.SetAttr("rowgroups_pruned", strconv.Itoa(len(pruned)))
	sp.SetAttr("bytes_skipped", strconv.FormatInt(bytesSkipped, 10))
	for _, g := range pruned {
		sp.Event("rowgroup-pruned", "group "+strconv.Itoa(g))
	}
	sp.End()
}

// LocalStream is one local plan execution, pulled page by page: the
// storage node's RPC handler streams it to the wire, the connector's
// local replay overlaps residual execution with it exactly like the raw
// no-pushdown path does, and ExecuteLocalCached drains it. The final nil
// page (or Close, when the consumer abandons the stream) tears down the
// scan workers and, when the stream owns it, the ephemeral scheduler;
// Work is valid after either.
type LocalStream struct {
	op         exec.Operator
	env        *execEnv
	planSchema *types.Schema
	done       bool
	work       *objstore.WorkStats
}

// open is the single way a plan is run against a local store: it
// validates the plan, builds the execution env and compiles the pipeline.
// A plan that fails validation is reported with rpc.CodeInvalid.
func open(store *objstore.Store, plan *substrait.Plan, o openOpts) (*LocalStream, error) {
	planSchema, err := plan.Validate()
	if err != nil {
		return nil, rpc.WithCode(err, rpc.CodeInvalid)
	}
	s := &LocalStream{env: newExecEnv(o), planSchema: planSchema}
	op, err := compilePlan(store, plan, s.env)
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.op = op
	return s, nil
}

// ExecuteLocalStream opens a plan against a local store fully uncached —
// the connector's replay paths depend on this to bypass (never corrupt)
// node caches they have no view of. pool <= 0 selects the cost-model
// default.
func ExecuteLocalStream(store *objstore.Store, plan *substrait.Plan, pool int) (*LocalStream, error) {
	return open(store, plan, openOpts{scanPool: pool})
}

// ExecuteLocalCached runs a plan to completion with an explicit cache
// bundle and returns the result pages plus storage-side work stats: the
// entry point for in-process callers (tests, the layer benchmarks); a nil
// bundle is the uncached path, pool as for ExecuteLocalStream.
func ExecuteLocalCached(store *objstore.Store, plan *substrait.Plan, pool int, caches *cache.Storage) ([]*column.Page, *objstore.WorkStats, error) {
	return execute(store, plan, openOpts{scanPool: pool, caches: caches})
}

// execute is open + drain.
func execute(store *objstore.Store, plan *substrait.Plan, o openOpts) ([]*column.Page, *objstore.WorkStats, error) {
	s, err := open(store, plan, o)
	if err != nil {
		return nil, nil, err
	}
	pages, err := exec.Drain(s)
	if err != nil {
		return nil, nil, err
	}
	return pages, s.Work(), nil
}

// Schema implements exec.Operator.
func (s *LocalStream) Schema() *types.Schema { return s.op.Schema() }

// Next implements exec.Operator; exhaustion and errors release the
// execution's workers.
func (s *LocalStream) Next() (*column.Page, error) {
	if s.done {
		return nil, nil
	}
	page, err := s.op.Next()
	if err != nil || page == nil {
		s.teardown()
		return nil, err
	}
	return page, nil
}

// Close releases the execution when the consumer abandons the stream
// mid-way (the engine's optional page-source cleanup hook). Idempotent.
func (s *LocalStream) Close() error {
	s.teardown()
	return nil
}

// Work returns the execution's accumulated storage-work stats; call only
// after the stream is exhausted or closed.
func (s *LocalStream) Work() *objstore.WorkStats { return s.work }

func (s *LocalStream) teardown() {
	if s.done {
		return
	}
	s.done = true
	s.env.close()
	if s.env.ownSched {
		s.env.sched.close()
	}
	s.work = s.env.finish()
}
