package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"prestocs/internal/analyzer"
	"prestocs/internal/arrowlite"
	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/harness"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/optimizer"
	"prestocs/internal/parquetlite"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

const (
	scratchTable = "bench_scratch"
	nodeLabel    = "node0"
)

// span is one timed call into a layer. Spans of one walked query share
// Trace ("<cycle>/<op>"); Parent is the ID of the enclosing span, 0 for a
// root. Times are microseconds since the tracer started.
type span struct {
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer records spans from the benchmark's side of each layer boundary
// and, per traced cycle, the sums the per-layer metrics are medians of.
type tracer struct {
	t0    time.Time
	trace string
	stack []int
	spans []span

	// cur accumulates the current cycle's sums by metric key; cycles
	// holds the finished ones.
	cur    map[string]float64
	cycles []map[string]float64

	// uncompressed holds a Codec: None image of every generated object,
	// keyed by object name: decoding it against the Snappy original
	// isolates the decompress share.
	uncompressed map[string][]byte
	scratchSeq   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: make(map[string]float64), uncompressed: make(map[string][]byte)}
}

// in runs fn inside a span and returns its duration in milliseconds.
func (t *tracer) in(name string, fn func() error) (float64, error) {
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name})
	t.stack = append(t.stack, id)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.StartUs = float64(start.Sub(t.t0).Nanoseconds()) / 1e3
	s.EndUs = float64(end.Sub(t.t0).Nanoseconds()) / 1e3
	return float64(end.Sub(start).Nanoseconds()) / 1e6, err
}

// endCycle closes the current cycle's sums.
func (t *tracer) endCycle() {
	t.cycles = append(t.cycles, t.cur)
	t.cur = make(map[string]float64)
}

// perCycle is the median over traced cycles of one sum.
func (t *tracer) perCycle(key string) float64 {
	x := make([]float64, len(t.cycles))
	for i, c := range t.cycles {
		x[i] = c[key]
	}
	return median(x)
}

// total is one sum over all traced cycles.
func (t *tracer) total(key string) float64 {
	var s float64
	for _, c := range t.cycles {
		s += c[key]
	}
	return s
}

// selfUs is each span name's self time: its spans' durations minus the
// part their child spans cover.
func (t *tracer) selfUs() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.EndUs - s.StartUs
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Name] -= s.EndUs - s.StartUs
		}
	}
	return self
}

// write stores the spans and their self times as JSON.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfUs   map[string]float64 `json:"self_us_by_name"`
		Spans    []span             `json:"spans"`
	}{workload, seed, t.selfUs(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// prepare builds what the walk needs beyond a plain set-up: the
// uncompressed object copies and the scratch table the write-path walk
// commits to.
func (t *tracer) prepare(b *bench) error {
	store := b.c.OCS.Nodes[0].Store()
	for _, name := range []string{"laghos", "deepwater", "lineitem", "orders"} {
		tbl, err := b.c.Meta.Get(harness.CatalogOCS, name)
		if err != nil {
			return err
		}
		for _, obj := range tbl.Objects {
			img, err := store.Get(tbl.Bucket, obj)
			if err != nil {
				return err
			}
			pages, err := readAll(img, nil)
			if err != nil {
				return err
			}
			t.uncompressed[obj], err = parquetlite.WritePages(tbl.Columns,
				parquetlite.WriterOptions{Codec: compress.None, RowGroupSize: 4096}, pages...)
			if err != nil {
				return err
			}
		}
	}
	return b.ing.CreateTable(ingest.TableSpec{
		Schema: harness.CatalogOCS, Name: scratchTable, Bucket: eventsBucket,
		Columns: eventsSchema, Codec: compress.Snappy,
	})
}

// readAll decodes the given columns (nil = all) of an object image.
func readAll(img []byte, cols []int) ([]*column.Page, error) {
	r, err := parquetlite.NewReader(img)
	if err != nil {
		return nil, err
	}
	if cols == nil {
		cols = make([]int, r.Schema().Len())
		for i := range cols {
			cols[i] = i
		}
	}
	return r.ReadAll(cols)
}

// walk takes the four suite queries and one write batch through the
// program one layer at a time, from outside, through each layer's public
// functions.
func (t *tracer) walk(b *bench, cycle int) error {
	for i, op := range suiteOps {
		t.trace = fmt.Sprintf("%d/%s", cycle, op)
		if _, err := t.in("walk."+op, func() error { return t.walkQuery(b, suiteSQL[i]) }); err != nil {
			return fmt.Errorf("walk %s: %w", op, err)
		}
	}
	t.trace = fmt.Sprintf("%d/write", cycle)
	if _, err := t.in("walk.write", func() error { return t.walkWrite(b, cycle) }); err != nil {
		return fmt.Errorf("walk write: %w", err)
	}
	t.endCycle()
	return nil
}

func (t *tracer) walkQuery(b *bench, sql string) error {
	var stmt *sqlparser.SelectStmt
	ms, err := t.in("sqlparser.Parse", func() (err error) { stmt, err = sqlparser.Parse(sql); return })
	if err != nil {
		return err
	}
	t.cur["parse_us"] += ms * 1e3

	var root plan.Node
	ms, err = t.in("analyzer.Analyze", func() (err error) {
		root, err = analyzer.Analyze(stmt, b.c.Engine, harness.CatalogOCS)
		return
	})
	if err != nil {
		return err
	}
	t.cur["analyze_us"] += ms * 1e3
	// Analysis pinned a metastore snapshot per table; copies the
	// optimizers make share the pin, so releasing these is enough.
	for _, scan := range plan.FindScans(root) {
		if h, ok := scan.Handle.(engine.SnapshotHandle); ok {
			defer h.ReleaseSnapshot()
		}
	}

	ms, err = t.in("optimizer.Optimize", func() (err error) { root, err = optimizer.Optimize(root); return })
	if err != nil {
		return err
	}
	t.cur["optimize_us"] += ms * 1e3

	session := engine.NewSession().Set(ocsconn.SessionPushdown, b.wl.pushdown)
	ms, err = t.in("connector.Optimize", func() (err error) {
		root, err = b.c.OCSConn.PlanOptimizer().Optimize(root, session)
		return
	})
	if err != nil {
		return err
	}
	t.cur["connector_optimize_us"] += ms * 1e3

	join := plan.FindJoin(root)
	if join == nil {
		_, err := t.walkScan(b, plan.FindScan(root))
		return err
	}
	// A join drains its build side first, then pushes a bloom filter over
	// the build keys into the probe scan — in every pushdown mode — so the
	// walk does the same.
	build, probe := plan.FindScan(join.Build), plan.FindScan(join.Probe)
	built, err := t.walkScan(b, build)
	if err != nil {
		return fmt.Errorf("build side: %w", err)
	}
	if filter, keys, ok := joinBloom(join, built); ok {
		if bh, ok := probe.Handle.(plan.BloomJoinHandle); ok {
			if h, ok := bh.WithJoinBloom(join.ProbeKeys[0], filter, keys); ok {
				probe = &plan.TableScan{Catalog: probe.Catalog, Table: probe.Table, Handle: h}
			}
		}
	}
	if _, err = t.walkScan(b, probe); err != nil {
		return fmt.Errorf("probe side: %w", err)
	}
	return nil
}

// joinBloom builds the filter the engine would push for a join whose
// build scan returned the given pages: the rows that pass whatever
// filters the plan kept above the build scan, keyed on the build key.
// ok is false for a build branch the walk cannot evaluate.
func joinBloom(join *plan.Join, built []*column.Page) (*bloom.Filter, int64, bool) {
	if len(join.BuildKeys) != 1 {
		return nil, 0, false
	}
	var residual []expr.Expr
	for n := join.Build; ; {
		switch x := n.(type) {
		case *plan.Filter:
			residual = append(residual, x.Condition)
			n = x.Input
			continue
		case *plan.Exchange:
			n = x.Input
			continue
		case *plan.TableScan:
		default:
			return nil, 0, false
		}
		break
	}
	var keys []*column.Vector
	rows := 0
	for _, p := range built {
		for _, cond := range residual {
			sel, err := expr.EvalSelection(cond, p)
			if err != nil {
				return nil, 0, false
			}
			p = p.FilterSel(sel)
		}
		keys = append(keys, p.Vectors[join.BuildKeys[0]])
		rows += p.NumRows()
	}
	filter := bloom.New(rows, bloom.DefaultBitsPerKey)
	for _, v := range keys {
		if err := filter.AddVector(v); err != nil {
			return nil, 0, false
		}
	}
	return filter, int64(rows), true
}

// walkScan drives one table scan split by split. With operators pushed
// it is the pushdown path: Substrait out, the storage executor, Arrow
// back, and the same plan again over the wire. With nothing pushed it is
// the raw path: a whole-object GET, decoded engine-side. It returns the
// pages the scan hands the engine either way.
func (t *tracer) walkScan(b *bench, scan *plan.TableScan) ([]*column.Page, error) {
	h, ok := scan.Handle.(*ocsconn.Handle)
	if !ok {
		return nil, fmt.Errorf("scan has handle %T", scan.Handle)
	}
	var result []*column.Page
	var splits []engine.Split
	if _, err := t.in("connector.SplitsWithStats", func() (err error) {
		splits, err = b.c.OCSConn.SplitsWithStats(h, &engine.ScanStats{})
		return
	}); err != nil {
		return nil, err
	}
	node := b.c.OCS.Nodes[0]
	pushed := h.Push != nil && !h.Push.Empty()
	for _, split := range splits {
		t.cur["rpc_calls"]++
		// decodeShare is the part of the object's pages the scan had to
		// decode itself: all of them on the raw path, the page-cache
		// misses on the pushdown path.
		decodeShare := 1.0
		if pushed {
			share, out, err := t.walkPushdown(b, node, h, split.Object)
			if err != nil {
				return nil, err
			}
			decodeShare = share
			result = append(result, out...)
		} else {
			ms, err := t.in("rpc.Get", func() error {
				_, _, err := b.c.OCSCli.Get(background, h.Table.Bucket, split.Object)
				return err
			})
			if err != nil {
				return nil, err
			}
			t.cur["stream_ms"] += ms
			t.cur["rpc_overhead_ms"] += ms
		}

		img, err := node.Store().Get(h.Table.Bucket, split.Object)
		if err != nil {
			return nil, err
		}
		var pages []*column.Page
		full, err := t.in("parquetlite.ReadAll", func() (err error) { pages, err = readAll(img, h.Projection); return })
		if err != nil {
			return nil, err
		}
		plain, err := t.in("parquetlite.ReadAll(uncompressed)", func() error {
			_, err := readAll(t.uncompressed[split.Object], h.Projection)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.cur["decode_ms"] += full * decodeShare
		if full > plain {
			t.cur["decompress_ms"] += (full - plain) * decodeShare
		}
		for _, p := range pages {
			t.cur["decoded_bytes"] += float64(p.ByteSize()) * decodeShare
		}
		if !pushed {
			result = append(result, pages...)
		}

		if pushed && h.Push.Filter != nil {
			ms, err := t.in("expr.EvalSelection", func() error {
				for _, p := range pages {
					sel, err := expr.EvalSelection(h.Push.Filter, p)
					if err != nil {
						return err
					}
					t.cur["filter_rows_in"] += float64(p.NumRows())
					t.cur["filter_rows_kept"] += float64(len(sel))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			t.cur["filter_ms"] += ms
		}
	}
	return result, nil
}

// walkPushdown runs one split's pushed plan through the storage executor
// without the wire, then through the wire, and returns the share of page
// reads the executor could not serve from the node's page cache, and the
// executor's output.
func (t *tracer) walkPushdown(b *bench, node *ocsserver.StorageNode, h *ocsconn.Handle, object string) (float64, []*column.Page, error) {
	var ir *substrait.Plan
	if _, err := t.in("connector.BuildSubstrait", func() (err error) { ir, err = ocsconn.BuildSubstrait(h, object); return }); err != nil {
		return 0, nil, err
	}
	var wire []byte
	ms, err := t.in("substrait.Marshal", func() (err error) { wire, err = substrait.Marshal(ir); return })
	if err != nil {
		return 0, nil, err
	}
	t.cur["substrait_encode_us"] += ms * 1e3
	t.cur["substrait_bytes"] += float64(len(wire))
	ms, err = t.in("substrait.Unmarshal", func() (err error) { ir, err = substrait.Unmarshal(wire); return })
	if err != nil {
		return 0, nil, err
	}
	t.cur["substrait_decode_us"] += ms * 1e3

	if b.wl.cold {
		b.c.FlushNodeCaches()
	}
	before := readCounters(b)
	var out []*column.Page
	scanMs, err := t.in("ocsserver.ExecuteLocalCached", func() error {
		pages, work, err := ocsserver.ExecuteLocalCached(node.Store(), ir, 0, node.Caches)
		if err != nil {
			return err
		}
		out = pages
		t.cur["scan_rows_in"] += float64(work.RowsProcessed)
		for _, p := range pages {
			t.cur["scan_rows_out"] += float64(p.NumRows())
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	after := readCounters(b)
	t.cur["scan_ms"] += scanMs

	var arrow []byte
	schema, err := ir.Validate()
	if err != nil {
		return 0, nil, err
	}
	encMs, err := t.in("arrowlite.Serialize", func() (err error) { arrow, err = arrowlite.Serialize(schema, out); return })
	if err != nil {
		return 0, nil, err
	}
	decMs, err := t.in("arrowlite.Deserialize", func() error { _, _, err := arrowlite.Deserialize(arrow); return err })
	if err != nil {
		return 0, nil, err
	}
	t.cur["arrow_encode_ms"] += encMs
	t.cur["arrow_decode_ms"] += decMs
	t.cur["arrow_bytes"] += float64(len(arrow))

	if b.wl.cold {
		b.c.FlushNodeCaches()
	}
	streamMs, err := t.in("rpc.ExecuteStream", func() error {
		rs, err := b.c.OCSCli.ExecuteStream(background, ir)
		if err != nil {
			return err
		}
		defer rs.Close()
		for {
			if _, err := rs.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, nil, err
	}
	t.cur["stream_ms"] += streamMs
	// What the wire adds to the same plan: transport, framing, stream
	// credits and scheduler hops. Pipelining can make it negative.
	t.cur["rpc_overhead_ms"] += streamMs - scanMs - encMs - decMs

	hits, misses := after.pageHits-before.pageHits, after.pageMisses-before.pageMisses
	if hits+misses == 0 {
		return 1, out, nil
	}
	return float64(misses) / float64(hits+misses), out, nil
}

// walkWrite takes one 4096-row batch through the write path's layers.
func (t *tracer) walkWrite(b *bench, cycle int) error {
	rows := b.batches[cycle%batchPool]
	builder := ingest.NewObjectBuilder(eventsSchema, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 4096})
	ms, err := t.in("ingest.AppendRow", func() error {
		for _, row := range rows {
			if err := builder.AppendRow(row...); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.cur["append_us_per_row"] += ms * 1e3 / float64(len(rows))

	var sealed ingest.SealedObject
	ms, err = t.in("ingest.Seal", func() (err error) { sealed, err = builder.Seal(); return })
	if err != nil {
		return err
	}
	t.cur["seal_ms"] += ms

	t.scratchSeq++
	key := fmt.Sprintf("%s-%06d.pql", scratchTable, t.scratchSeq)
	ms, err = t.in("ocsserver.Put", func() error { return b.c.OCSCli.Put(background, eventsBucket, key, sealed.Image) })
	if err != nil {
		return err
	}
	t.cur["put_ms"] += ms

	ms, err = t.in("metastore.CommitObjects", func() error {
		_, err := b.c.Meta.CommitObjects(harness.CatalogOCS, scratchTable,
			[]metastore.ObjectAdd{{Key: key, Bytes: sealed.Bytes, Rows: sealed.Rows, Stats: sealed.Stats}}, nil)
		return err
	})
	if err != nil {
		return err
	}
	t.cur["commit_us"] += ms * 1e3
	return nil
}

// counters is a snapshot of the registry counters the ratios come from.
type counters struct {
	pageHits, pageMisses, footerHits, footerMisses int64
	groupsScanned, groupsPruned                    int64
	bloomTested, bloomFiltered                     int64
}

func readCounters(b *bench) counters {
	reg := b.c.Metrics
	node := func(name string) int64 { return reg.CounterValue(name, "node", nodeLabel) }
	return counters{
		pageHits:      node(telemetry.MetricPageCacheHits),
		pageMisses:    node(telemetry.MetricPageCacheMisses),
		footerHits:    node(telemetry.MetricFooterCacheHits),
		footerMisses:  node(telemetry.MetricFooterCacheMisses),
		groupsScanned: reg.CounterValue(telemetry.MetricScanPoolRowGroups),
		groupsPruned:  reg.CounterValue(telemetry.MetricScanRowGroupsPruned),
		bloomTested:   reg.CounterValue(telemetry.MetricStorageBloomRowsTested),
		bloomFiltered: reg.CounterValue(telemetry.MetricStorageBloomRowsFiltered),
	}
}

// tracedLayerValues computes the per-layer metrics of the traced phase:
// medians over traced cycles of the walk's per-suite sums, and ratios of
// registry counters over the whole phase. overheadPct compares the cycle
// time with spans on and off.
func tracedLayerValues(b *bench, t *tracer, before, after counters, overheadPct float64) values {
	ratio := func(part, rest int64) float64 { return share(float64(part), float64(part+rest)) }
	return values{
		"sqlparser.parse_us_per_suite":     t.perCycle("parse_us"),
		"analyzer.analyze_us_per_suite":    t.perCycle("analyze_us"),
		"optimizer.optimize_us_per_suite":  t.perCycle("optimize_us"),
		"connector.optimize_us_per_suite":  t.perCycle("connector_optimize_us"),
		"substrait.encode_us_per_suite":    t.perCycle("substrait_encode_us"),
		"substrait.decode_us_per_suite":    t.perCycle("substrait_decode_us"),
		"substrait.plan_bytes_per_suite":   t.perCycle("substrait_bytes"),
		"ocsserver.rowgroups_pruned_share": ratio(after.groupsPruned-before.groupsPruned, after.groupsScanned-before.groupsScanned),
		"ocsserver.scan_ms_per_suite":      t.perCycle("scan_ms"),
		"ocsserver.rows_out_share":         share(t.total("scan_rows_out"), t.total("scan_rows_in")),
		"parquetlite.decode_ms_per_suite":  t.perCycle("decode_ms"),
		"parquetlite.decoded_mb_per_suite": t.perCycle("decoded_bytes") / mb,
		"compress.decode_ms_per_suite":     t.perCycle("decompress_ms"),
		"expr.filter_ms_per_suite":         t.perCycle("filter_ms"),
		"expr.filter_rows_kept_share":      share(t.total("filter_rows_kept"), t.total("filter_rows_in")),
		"cache.page_hit_share":             ratio(after.pageHits-before.pageHits, after.pageMisses-before.pageMisses),
		"cache.footer_hit_share":           ratio(after.footerHits-before.footerHits, after.footerMisses-before.footerMisses),
		"cache.page_mb_end":                float64(b.c.OCS.Nodes[0].Caches.Pages().Bytes()) / mb,
		"bloom.rows_filtered_share":        share(float64(after.bloomFiltered-before.bloomFiltered), float64(after.bloomTested-before.bloomTested)),
		"arrowlite.encode_ms_per_suite":    t.perCycle("arrow_encode_ms"),
		"arrowlite.decode_ms_per_suite":    t.perCycle("arrow_decode_ms"),
		"arrowlite.mb_per_suite":           t.perCycle("arrow_bytes") / mb,
		"rpc.stream_ms_per_suite":          t.perCycle("stream_ms"),
		"rpc.overhead_ms_per_suite":        t.perCycle("rpc_overhead_ms"),
		"rpc.calls_per_suite":              t.perCycle("rpc_calls"),
		"ingest.append_us_per_row":         t.perCycle("append_us_per_row"),
		"ingest.seal_ms_per_batch":         t.perCycle("seal_ms"),
		"ocsserver.put_ms_per_batch":       t.perCycle("put_ms"),
		"metastore.commit_us":              t.perCycle("commit_us"),
		"trace.overhead_pct":               overheadPct,
	}
}
