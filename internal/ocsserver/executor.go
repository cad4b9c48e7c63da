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

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/rpc"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// openOpts are the inputs of one local plan execution beyond the store
// and the plan. The zero value is the in-process default: uncached, no
// telemetry, a scan pool of the execution's own at the cost-model size.
type openOpts struct {
	// object is the one object, of those the plan's ReadRel lists, that
	// this execution scans.
	object string

	// pool bounds the row-group reads running at once (newScanPool): the
	// node's pool for RPC queries. Nil gives the execution a pool of its
	// own at the cost-model size.
	pool chan struct{}

	// noPrune disables statistics-driven row-group pruning; the
	// differential property tests compare pruned runs against it.
	noPrune bool

	// caches holds the node's footer and hot-page caches; nil runs fully
	// uncached (in-process callers and the connector's replay, which must
	// not touch node caches it cannot see).
	caches *scan.Caches

	// ctx carries the ambient tracer, span and metrics registry of the
	// request this execution serves; nil means no telemetry (in-process
	// callers).
	ctx context.Context
}

// execEnv carries the shared state of one local plan execution: its
// inputs, the operator meter, the object read (whose I/O the work stats
// report) and the cleanup hooks that stop scan tasks when the pipeline is
// drained or abandoned.
type execEnv struct {
	openOpts
	meter   exec.Meter
	obj     *scan.Object
	closers []func()
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
	if env.pool == nil {
		env.pool = newScanPool(0)
	}
	return env
}

// close stops scan tasks and waits for them to exit. Safe to call more
// than once.
func (env *execEnv) close() {
	for _, fn := range env.closers {
		fn()
	}
	env.closers = nil
}

// finish folds the object read's I/O and the operator meter into the
// execution's work stats. Call after the pipeline has been drained and
// closed, so no scan task is still reading.
func (env *execEnv) finish() *objstore.WorkStats {
	st := objstore.WorkStats{RowsProcessed: env.meter.Rows, CPUUnits: env.meter.Units}
	if env.obj != nil {
		io := env.obj.IO()
		st.BytesRead, st.BytesDecompressed = io.BytesRead, io.BytesDecompressed
		st.CPUUnits += io.CPUUnits
	}
	return &st
}

// compilePlan lowers a validated Substrait plan into an exec pipeline over
// the local store. The env's meter accumulates storage-side CPU work;
// the object read counts its own I/O as row groups are read.
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
			// over the scanner's row-group pages and hands the selection
			// on unmaterialized (exec.SelSource): a Project above it
			// passes it on with its columns indexed by the page's rows, and
			// the aggregate reads through it, so a dense page is built
			// only where the stream pulls Next.
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
		// Join semi-filter pushed from the engine: test each probe row's
		// key against the build side's bloom bits, hashed or direct, and
		// drop proven misses before they reach the wire. Sits above FilterRel by IR contract,
		// so filter-on-read fusion (row-group pruning) still fires below.
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		f, err := bloom.FromBits(t.Bits, t.NumHash, t.Lo)
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
		// merges them, unless the group keys are split-disjoint and the
		// partial is already complete (DESIGN.md §4).
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
			return exec.NewTopN(input, sortRel.Keys, t.Count, &env.meter)
		}
		input, err := compileRel(store, t.Input, env)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(input, t.Count), nil
	default:
		return nil, fmt.Errorf("ocsserver: unsupported relation %T", rel)
	}
}

// compileRead builds a page source over the object through scan.Open,
// which projects and (when pruneWith is non-nil) prunes row groups. The
// source reads the surviving row groups through the node's scan pool with
// an order-preserving merge.
func compileRead(store *objstore.Store, read *substrait.ReadRel, pruneWith expr.Expr, env *execEnv) (exec.Operator, error) {
	data, ver, err := store.GetVersioned(read.Bucket, env.object)
	if err != nil {
		return nil, err // the store's lookup errors carry rpc.CodeNotFound
	}
	if env.noPrune {
		pruneWith = nil
	}
	// The object key embeds the store generation, so footers and pages
	// cached for an earlier version of a re-put object can never be hit.
	objKey := scan.ObjectKey(read.Bucket, env.object, ver)
	obj, err := scan.Open(env.caches, objKey, data, read.BaseSchema, read.Projection, pruneWith)
	if err != nil {
		return nil, fmt.Errorf("ocsserver: %s/%s: %w", read.Bucket, env.object, err)
	}
	env.obj = obj
	if pruned, skipped := obj.Pruned(); len(pruned) > 0 {
		recordPrune(env, env.object, pruned, skipped)
	}

	// Every read goes through the pool — even a one-group object and even
	// at one slot, where there is no intra-scan parallelism, the pool is
	// what bounds the node's scan work across concurrent queries.
	return parallelScan(env, obj), nil
}

// readGroup reads the i-th surviving row group of obj under a
// scan.rowgroup span naming its file ordinal.
func readGroup(env *execEnv, obj *scan.Object, i int) (*column.Page, error) {
	_, sp := telemetry.StartSpan(env.context(), "scan.rowgroup")
	sp.SetAttr("group", strconv.Itoa(obj.Group(i)))
	defer sp.End()
	return obj.Read(i)
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

// LocalStream is one local plan execution over one object, pulled page
// by page: the storage node's RPC handler streams one per listed object
// to the wire, the connector's local replay overlaps residual execution
// with it exactly like the raw no-pushdown path does, and
// ExecuteLocalCached drains one per listed object. The final nil
// page (or Close, when the consumer abandons the stream) tears down the
// scan tasks; Work is valid after either.
type LocalStream struct {
	op   exec.Operator
	env  *execEnv
	done bool
	work *objstore.WorkStats
}

// open is the single way a plan is run against a local store: it builds
// the execution env and compiles the pipeline over o.object. The plan has
// been validated, once, by the entry point that calls it.
func open(store *objstore.Store, plan *substrait.Plan, o openOpts) (*LocalStream, error) {
	s := &LocalStream{env: newExecEnv(o)}
	op, err := compilePlan(store, plan, s.env)
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.op = op
	return s, nil
}

// ExecuteLocalStream opens a plan over one object against a local store
// fully uncached — the connector's replay paths depend on this to bypass
// (never corrupt) node caches they have no view of. pool <= 0 selects the
// cost-model default. A plan that fails validation is reported with
// rpc.CodeInvalid.
func ExecuteLocalStream(store *objstore.Store, plan *substrait.Plan, object string, pool int) (*LocalStream, error) {
	if _, err := plan.Validate(); err != nil {
		return nil, rpc.WithCode(err, rpc.CodeInvalid)
	}
	return open(store, plan, openOpts{object: object, pool: newScanPool(pool)})
}

// ExecuteLocalCached runs a plan to completion with an explicit cache
// bundle and returns the result pages plus storage-side work stats: the
// entry point for in-process callers (tests, the layer benchmarks); a nil
// bundle is the uncached path, pool as for ExecuteLocalStream.
func ExecuteLocalCached(store *objstore.Store, plan *substrait.Plan, pool int, caches *scan.Caches) ([]*column.Page, *objstore.WorkStats, error) {
	return execute(store, plan, openOpts{pool: newScanPool(pool), caches: caches})
}

// execute runs open + drain over each object the plan lists, in order,
// and returns the pages in that order with the work summed.
func execute(store *objstore.Store, plan *substrait.Plan, o openOpts) ([]*column.Page, *objstore.WorkStats, error) {
	if _, err := plan.Validate(); err != nil {
		return nil, nil, rpc.WithCode(err, rpc.CodeInvalid)
	}
	var pages []*column.Page
	var work objstore.WorkStats
	for _, object := range readRel(plan).Objects {
		o.object = object
		s, err := open(store, plan, o)
		if err != nil {
			return nil, nil, err
		}
		got, err := exec.Drain(s)
		if err != nil {
			return nil, nil, err
		}
		pages = append(pages, got...)
		work.Add(*s.Work())
	}
	return pages, &work, nil
}

// readRel returns the plan's ReadRel (nil when it has none, which a
// decoded plan never lacks).
func readRel(plan *substrait.Plan) *substrait.ReadRel {
	var read *substrait.ReadRel
	substrait.WalkRels(plan.Root, func(r substrait.Rel) {
		if rd, ok := r.(*substrait.ReadRel); ok {
			read = rd
		}
	})
	return read
}

// Schema implements exec.Operator.
func (s *LocalStream) Schema() *types.Schema { return s.op.Schema() }

// Next implements exec.Operator; exhaustion and errors release the
// execution's scan tasks.
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
	s.work = s.env.finish()
}
