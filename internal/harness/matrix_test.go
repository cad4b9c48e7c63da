package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/analyzer"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/connector/hive"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/optimizer"
	"prestocs/internal/parquetlite"
	"prestocs/internal/plan"
	"prestocs/internal/sqlparser"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// The harness's differential tests are one query matrix, in
// go-mysql-server's enginetest idiom: one runner, queryMatrix, runs each
// query of a family in every cell of the configuration axes below. Every
// cell must return its query's reference answer byte for byte, row order
// included — the final stage folds leaf output in split order (DESIGN.md
// §9), so no cell gets a tolerance — and pass runMatrix's conservation
// checks. The reference is the first cell run (ocs., ocs.pushdown=none,
// bloom on, one leaf worker, one storage node, caches cold), held to the
// query's row-at-a-time answer where it has one. A cell that plans like
// an earlier cell of its query, with the same bloom setting, workers and
// nodes, is planned but not run. Each family is one test, so a failure
// names its family and -run picks one.
//
// To add a query, add one matrixQuery to its family's list (a new table
// is one more dataset of the family; a new family is one more function
// and one test that passes it to queryMatrix). To add a configuration,
// add one value to one axis.
var (
	matrixNodes    = []int{1, 3}
	matrixCatalogs = []string{CatalogOCS, CatalogHive}
	matrixModes    = []string{"none", "filter", "filter_project", "filter_agg", "filter_project_agg", "all", "auto"}
	matrixBlooms   = []string{"on", "off"} // queries with a join only
	matrixWorkers  = []int{1, 4}
	matrixCaches   = []string{"cold", "warm"} // a warm cell reruns the cold one
)

// matrixQuery is one entry of the table. %[1]s in sql is the catalog, and
// every table the query reads is named %[1]s.<table>.
type matrixQuery struct {
	name, sql string
	// want is the answer worked out row-at-a-time, in result order, or
	// sorted if unordered (an ORDER BY that is not a total order); nil if
	// the query has none.
	want      []string
	unordered bool
	fails     bool // every cell must fail
	repeat    int  // runs of each cell; 0 is one
	check     func(t *testing.T, label string, res *engine.Result)
}

func TestQuickPushdownSoundness(t *testing.T)               { queryMatrix(t, randomFamily) }
func TestSoundnessAcrossCodecs(t *testing.T)                { queryMatrix(t, paperFamily) }
func TestJoinDifferentialAcrossConfigurations(t *testing.T) { queryMatrix(t, joinFamily) }
func TestTopNTieOrderAcrossSplits(t *testing.T)             { queryMatrix(t, tieFamily) }
func TestDictionaryVectorsDifferential(t *testing.T)        { queryMatrix(t, dictFamily) }

// queryMatrix loads a family's tables into a cluster of each size and
// runs each of its queries in every cell.
func queryMatrix(t *testing.T, family func(*testing.T) ([]*workload.Dataset, []matrixQuery)) {
	datasets, queries := family(t)
	refs := make([][]string, len(queries))
	for _, nodes := range matrixNodes {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			checkGoroutines(t)
			c, err := StartCluster(nodes)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			for _, d := range datasets {
				if err := c.Load(d); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range queries {
				t.Run(q.name, func(t *testing.T) { runMatrix(t, c, q, &refs[i]) })
			}
		})
	}
}

var scannedTable = regexp.MustCompile(`%\[1\]s\.(\w+)`)

// runMatrix runs one query in every cell of the cluster and holds each to
// *ref, which the first cell sets if it is nil.
func runMatrix(t *testing.T, c *Cluster, q matrixQuery, ref *[]string) {
	blooms := matrixBlooms[:1]
	if strings.Contains(q.sql, " JOIN ") {
		blooms = matrixBlooms
	}
	objects := 0
	for _, m := range scannedTable.FindAllStringSubmatch(q.sql, -1) {
		tbl, err := c.Meta.Get(CatalogOCS, m[1])
		if err != nil {
			t.Fatal(err)
		}
		objects += len(tbl.Objects)
	}
	received := c.OCSCli.Meter().Received
	runCell := func(label, sql, planned string, session *engine.Session) {
		before := received()
		res, err := execute(context.Background(), c.Engine, sql, session)
		if n := c.Meta.PinnedCount(); n != 0 {
			t.Errorf("%s: %d snapshot pins held after the query", label, n)
		}
		if live := c.Engine.Processes().List(); len(live) != 0 {
			t.Errorf("%s: %d queries still live after the query", label, len(live))
		}
		if q.fails {
			if err == nil {
				t.Errorf("%s: succeeded, want an error", label)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Stats.PlanText != planned {
			t.Fatalf("%s: ran\n%s\nplanned\n%s", label, res.Stats.PlanText, planned)
		}
		scan := res.Stats.Scan.Snapshot()
		if n := res.Stats.Splits + int(scan.SplitsPruned); n != objects {
			t.Errorf("%s: %d splits run + %d pruned, want the %d objects scanned", label, res.Stats.Splits, scan.SplitsPruned, objects)
		}
		if moved := received() - before; scan.BytesMoved > moved {
			t.Errorf("%s: %d bytes moved, but the clients received %d", label, scan.BytesMoved, moved)
		}
		got := orderedRows(res.Page)
		if *ref == nil {
			if q.unordered {
				assertRowsEqual(t, label+" against the row-at-a-time answer", rowMultisetPage(res.Page), q.want)
			} else if q.want != nil {
				assertRowsEqual(t, label+" against the row-at-a-time answer", got, q.want)
			}
			*ref = got
		}
		assertRowsEqual(t, label, got, *ref)
		if q.check != nil {
			q.check(t, label, res)
		}
	}
	ran := map[string]bool{}
	for _, catalog := range matrixCatalogs {
		sql := fmt.Sprintf(q.sql, catalog)
		for _, mode := range matrixModes {
			// The bloom is the engine's choice at run time, not the plan's.
			planned := planText(t, c, sql, engine.NewSession().Set(ocsconn.SessionPushdown, mode))
			for _, bloom := range blooms {
				session := engine.NewSession().Set(ocsconn.SessionPushdown, mode).Set(engine.SessionJoinBloom, bloom)
				for _, workers := range matrixWorkers {
					key := fmt.Sprint(planned, bloom, workers)
					if ran[key] {
						continue
					}
					ran[key] = true
					c.Engine.Workers = workers
					c.FlushNodeCaches()
					for _, caches := range matrixCaches {
						for run := range max(q.repeat, 1) {
							runCell(fmt.Sprintf("%s [%s, %s, bloom %s, %d workers, %d nodes, caches %s, run %d]",
								q.name, catalog, mode, bloom, workers, len(c.OCS.Nodes), caches, run), sql, planned, session)
						}
					}
				}
			}
		}
	}
}

// planText plans sql under session as the engine does — analyze, the
// global optimizer, the connector optimizer of the first scan — without
// running it, and returns the plan as QueryStats.PlanText shows it.
func planText(t *testing.T, c *Cluster, sql string, session *engine.Session) string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := analyzer.Analyze(stmt, c.Engine, c.Engine.DefaultCatalog)
	if err != nil {
		t.Fatal(err)
	}
	for _, scan := range plan.FindScans(analyzed) { // release the pins resolution took
		if h, ok := scan.Handle.(engine.SnapshotHandle); ok {
			defer h.ReleaseSnapshot()
		}
	}
	optimized, err := optimizer.Optimize(analyzed)
	if err != nil {
		t.Fatal(err)
	}
	opt := map[string]engine.ConnectorPlanOptimizer{
		CatalogOCS:  c.OCSConn.PlanOptimizer(),
		CatalogHive: hive.New(CatalogHive, nil, nil).PlanOptimizer(),
	}[plan.FindScan(optimized).Handle.ConnectorName()]
	if optimized, err = opt.Optimize(optimized, session); err != nil {
		t.Fatal(err)
	}
	return plan.Format(optimized)
}

// orderedRows renders a result page row by row, in result order.
func orderedRows(p *column.Page) []string {
	out := make([]string, p.NumRows())
	for i := range out {
		out[i] = renderRow(p.Row(i))
	}
	return out
}

func renderRow(row []types.Value) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(v.String() + "|")
	}
	return sb.String()
}

// rowMultisetPage renders a result page row by row, sorted.
func rowMultisetPage(p *column.Page) []string {
	out := orderedRows(p)
	sort.Strings(out)
	return out
}

func assertRowsEqual(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", label, i, got[i], want[i])
		}
	}
}

// rowTable seals objects × perObject rows, row(seq) the row at seq in
// table order, as the fixture table name, rowGroup rows to a row group,
// and assembles them as the workload generators do; it returns the
// dataset, ready for Cluster.Load, with its rows.
func rowTable(t *testing.T, name string, cols []types.Column, objects, perObject, rowGroup int, row func(seq int) []types.Value) (*workload.Dataset, [][]types.Value) {
	t.Helper()
	spec := ingest.TableSpec{Schema: CatalogOCS, Name: name, Bucket: name, Columns: types.NewSchema(cols...)}
	d := &workload.Dataset{Name: name, Objects: map[string][]byte{}}
	var rows [][]types.Value
	var keys []string
	var objs []ingest.SealedObject
	for f := range objects {
		page := column.NewPage(spec.Columns)
		for range perObject {
			r := row(len(rows))
			page.AppendRow(r...)
			rows = append(rows, r)
		}
		b := ingest.NewObjectBuilder(spec.Columns, parquetlite.WriterOptions{RowGroupSize: rowGroup})
		if err := b.AppendPage(page); err != nil {
			t.Fatal(err)
		}
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s-%d.pql", name, f)
		d.Objects[key] = sealed.Image
		keys, objs = append(keys, key), append(objs, sealed)
	}
	var err error
	if d.Table, err = ingest.AssembleTable(spec, keys, objs); err != nil {
		t.Fatal(err)
	}
	return d, rows
}

// randomFamily is randtbl — a split-disjoint key (object f holds k in
// [10f, 10f+9], which the zone maps prove), mixed types and NULLs — with
// 25 seeded random queries over it, and the queries the hive. select path
// and whole-object scan must answer alike: a filter, grouping with no
// WHERE, a filtered Top-N and a count over nothing; and nulltbl's
// aggregates over NULLs (nullFamily).
func randomFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	rnd := rand.New(rand.NewSource(2025))
	d, _ := rowTable(t, "randtbl", []types.Column{{Name: "k", Type: types.Int64}, {Name: "a", Type: types.Int64},
		{Name: "b", Type: types.Float64}, {Name: "s", Type: types.String}}, 3, 200, 64, func(seq int) []types.Value {
		row := []types.Value{
			types.IntValue(int64(seq/200*10 + rnd.Intn(10))),
			types.IntValue(int64(rnd.Intn(100))),
			types.FloatValue(float64(rnd.Intn(1000)) / 10),
			types.StringValue(fmt.Sprintf("tag%d", rnd.Intn(5))),
		}
		if rnd.Intn(20) == 0 {
			row[1] = types.NullValue(types.Int64)
		}
		return row
	})
	queries := []matrixQuery{
		{name: "select filter", sql: "SELECT k, a, b, s FROM %[1]s.randtbl WHERE b BETWEEN 10.0 AND 20.0"},
		{name: "select grouping", sql: "SELECT s, count(*) AS c, sum(b) AS sb FROM %[1]s.randtbl GROUP BY s ORDER BY s"},
		{name: "select top-n", sql: "SELECT k FROM %[1]s.randtbl WHERE s = 'tag1' ORDER BY k DESC LIMIT 7"},
		{name: "select count of nothing", sql: "SELECT count(*) AS c FROM %[1]s.randtbl WHERE k < 0"},
	}
	for i := range 25 {
		q := randomQuery(rnd)
		q.name = fmt.Sprintf("random %02d", i)
		queries = append(queries, q)
	}
	nulls, nullQueries := nullFamily(t)
	return []*workload.Dataset{d, nulls}, append(queries, nullQueries...)
}

// nullFamily is nulltbl — groups g = 0 and 1 in every row group, so an
// aggregate over them runs as partial and final wherever it is pushed; v
// is NULL on every row of group 0 and on every third of group 1, and
// between 5 and 15 elsewhere — with MIN, MAX, SUM, COUNT(v) and COUNT(*)
// over it, grouped, filtered and global, each answered row at a time. A
// NULL that an aggregate let through would read as 0 (decoders zero a
// NULL's slot), below every value v holds.
func nullFamily(t *testing.T) (*workload.Dataset, []matrixQuery) {
	d, rows := rowTable(t, "nulltbl", []types.Column{{Name: "seq", Type: types.Int64}, {Name: "g", Type: types.Int64},
		{Name: "v", Type: types.Int64}}, 3, 48, 16, func(seq int) []types.Value {
		v := types.IntValue(int64(5 + seq*7%11))
		if seq%2 == 0 || seq%3 == 0 {
			v = types.NullValue(types.Int64)
		}
		return []types.Value{types.IntValue(int64(seq)), types.IntValue(int64(seq % 2)), v}
	})
	// answer is min, max, sum, count(v) and count(*) over the rows of
	// group g from seq from on.
	answer := func(g, from int64) []types.Value {
		mn, mx, sum := types.NullValue(types.Int64), types.NullValue(types.Int64), types.NullValue(types.Int64)
		var cv, n int64
		for _, r := range rows {
			if r[1].I != g || r[0].I < from {
				continue
			}
			n++
			if v := r[2]; !v.Null {
				cv++
				if mn.Null || v.I < mn.I {
					mn = v
				}
				if mx.Null || v.I > mx.I {
					mx = v
				}
				if sum.Null {
					sum = types.IntValue(0)
				}
				sum.I += v.I
			}
		}
		return []types.Value{mn, mx, sum, types.IntValue(cv), types.IntValue(n)}
	}
	grouped := func(from int64) []string {
		var want []string
		for g := range int64(2) {
			want = append(want, renderRow(append([]types.Value{types.IntValue(g)}, answer(g, from)...)))
		}
		return want
	}
	const measures = "min(v) AS mn, max(v) AS mx, sum(v) AS sv, count(v) AS cv, count(*) AS n FROM %[1]s.nulltbl"
	return d, []matrixQuery{
		{name: "nulls grouped", want: grouped(0), check: aggregateCheck(false, 0, 3),
			sql: "SELECT g, " + measures + " GROUP BY g ORDER BY g"},
		{name: "nulls grouped and filtered", want: grouped(7), check: aggregateCheck(false, 0, 3),
			sql: "SELECT g, " + measures + " WHERE seq >= 7 GROUP BY g ORDER BY g"},
		{name: "nulls global", want: []string{renderRow(answer(0, 0))}, check: aggregateCheck(false, 0, 3),
			sql: "SELECT " + measures + " WHERE g = 0"},
	}
}

// randomQuery composes a random-but-valid SQL query over randtbl; a
// grouped one comes with aggregateCheck.
func randomQuery(rnd *rand.Rand) matrixQuery {
	var where string
	switch rnd.Intn(4) {
	case 0:
		where = fmt.Sprintf("WHERE a > %d", rnd.Intn(100))
	case 1:
		where = fmt.Sprintf("WHERE b BETWEEN %.1f AND %.1f", float64(rnd.Intn(40)), float64(60+rnd.Intn(40)))
	case 2:
		where = fmt.Sprintf("WHERE s = 'tag%d' AND a IS NOT NULL", rnd.Intn(5))
	}
	switch rnd.Intn(3) {
	case 0: // plain projection
		q := "SELECT k, a, b FROM %[1]s.randtbl " + where
		if rnd.Intn(2) == 0 {
			q += fmt.Sprintf(" ORDER BY %d LIMIT %d", 1+rnd.Intn(3), 1+rnd.Intn(20))
		}
		return matrixQuery{sql: q}
	case 1: // grouped on the disjoint key (full pushdown eligible)
		q := "SELECT k, sum(b) AS sb, count(*) AS n, avg(b) AS ab, min(a) AS mn, max(a) AS mx FROM %[1]s.randtbl " +
			where + " GROUP BY k"
		limit := 0
		if rnd.Intn(2) == 0 {
			limit = 1 + rnd.Intn(10)
			q += fmt.Sprintf(" ORDER BY sb DESC LIMIT %d", limit)
		}
		return matrixQuery{sql: q, check: aggregateCheck(true, limit, 3)}
	default: // grouped on a key that is not disjoint
		return matrixQuery{sql: "SELECT s, sum(a) AS sa, count(a) AS ca, avg(b) AS ab FROM %[1]s.randtbl " + where + " GROUP BY s ORDER BY s",
			check: aggregateCheck(false, 0, 3)}
	}
}

// aggregateCheck holds a cell's plan to the one rule for complete
// aggregates: the aggregate — and, under a LIMIT, a partial Top-N — sits
// below the root spine's Exchange, run by the leaf workers or pushed into
// the scan, exactly when its key is split-disjoint; and then the final
// stage reads at most limit rows from each of the scan's objects splits.
// limit 0 is a query without one.
func aggregateCheck(disjoint bool, limit, objects int) func(*testing.T, string, *engine.Result) {
	return func(t *testing.T, label string, res *engine.Result) {
		final, leaf, _ := strings.Cut(res.Stats.PlanText, "Exchange")
		if complete := !strings.Contains(final, "Aggregate"); complete != disjoint {
			t.Errorf("%s: aggregate below the exchange = %v, want %v:\n%s", label, complete, disjoint, res.Stats.PlanText)
		}
		if limit == 0 {
			return
		}
		if partial := strings.Contains(leaf, "TopN(PARTIAL)") || strings.Contains(leaf, "topn"); partial != disjoint {
			t.Errorf("%s: partial top-n below the exchange = %v, want %v:\n%s", label, partial, disjoint, res.Stats.PlanText)
		}
		if disjoint && res.Stats.FinalMeter.Rows > int64(limit*objects) {
			t.Errorf("%s: the final stage read %d rows, want at most %d", label, res.Stats.FinalMeter.Rows, limit*objects)
		}
	}
}

// paperFamily is the paper's Laghos and Deep Water queries (Table 2) over
// tables stored under each codec. Each groups by a key its generator
// keeps split-disjoint (key), so each aggregate completes below the
// Exchange; Laghos's LIMIT 100 (limit) bounds what the final stage reads.
func paperFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	const files = 2
	var datasets []*workload.Dataset
	var queries []matrixQuery
	for _, codec := range []compress.Codec{compress.None, compress.Snappy, compress.Zstd} {
		for _, paper := range []struct {
			gen   func(workload.Config) (*workload.Dataset, error)
			key   string
			limit int
		}{{workload.Laghos, "vertex_id", 100}, {workload.DeepWater, "timestep", 0}} {
			d, err := paper.gen(workload.Config{Files: files, RowsPerFile: 1024, Seed: 5, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if !d.Table.SplitDisjoint(paper.key) {
				t.Fatalf("%s: zone maps do not derive %s split-disjoint", d.Name, paper.key)
			}
			name := d.Name + "_" + codec.String()
			d.Table.Name, d.Table.Bucket = name, name
			sql := strings.Replace(strings.ReplaceAll(d.Query, "%", "%%"), "FROM "+d.Name, "FROM %[1]s."+name, 1)
			datasets = append(datasets, d)
			queries = append(queries, matrixQuery{name: name, sql: sql, check: aggregateCheck(true, paper.limit, files)})
		}
	}
	return datasets, queries
}

// joinFamily is lineitem ⋈ orders — five join shapes, each answered
// row-at-a-time, and Q3 — Q1 over lineitem, and the aggregate over a join
// with each aggProbe table. Every build side but one keys dense orderkeys
// and ships the bloom's direct form; "join sparse build" keeps ≈ 1 % of
// orders over the whole span and ships the hashed form
// (TestJoinBloomFormOnTheWire).
func joinFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	line, ords := q3Datasets(t)
	lineRows, ordRows := readRows(t, line), readRows(t, ords)
	cutoff, err := types.DateFromString("1993-01-01")
	if err != nil {
		t.Fatal(err)
	}
	sparseCutoff, err := types.DateFromString("1992-02-01")
	if err != nil {
		t.Fatal(err)
	}
	// join answers a shape the slow, obvious way: probe rows in table
	// order, each against its build matches in table order; emit returns
	// a pair's row, or nil where the WHERE drops the pair.
	join := func(emit func(l, o []types.Value) []types.Value) (out []string) {
		matches := map[int64][][]types.Value{}
		for _, o := range ordRows {
			matches[o[oOrderkey].I] = append(matches[o[oOrderkey].I], o)
		}
		for _, l := range lineRows {
			for _, o := range matches[l[lOrderkey].I] {
				if row := emit(l, o); row != nil {
					out = append(out, renderRow(row))
				}
			}
		}
		if len(out) == 0 {
			t.Fatal("a join shape's answer is empty")
		}
		return out
	}
	kqd := func(where func(l, o []types.Value) bool) []string {
		return join(func(l, o []types.Value) []types.Value {
			if !where(l, o) {
				return nil
			}
			return []types.Value{l[lOrderkey], l[lQuantity], o[oOrderdate]}
		})
	}
	small := func(l []types.Value) bool { return l[lQuantity].F < 10 }
	early := func(o []types.Value) bool { return o[oOrderdate].I < cutoff.I }
	const from = "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey "
	const kqdSelect = "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from
	queries := []matrixQuery{
		{name: "join probe conjunct", sql: kqdSelect + "WHERE l.quantity < 10",
			want: kqd(func(l, o []types.Value) bool { return small(l) })},
		{name: "join build conjunct", sql: kqdSelect + "WHERE o.orderdate < DATE '1993-01-01'",
			want: kqd(func(l, o []types.Value) bool { return early(o) })},
		{name: "join both conjuncts", sql: kqdSelect + "WHERE l.quantity < 10 AND o.orderdate < DATE '1993-01-01'",
			want: kqd(func(l, o []types.Value) bool { return small(l) && early(o) })},
		{name: "join sparse build", sql: kqdSelect + "WHERE o.orderdate < DATE '1992-02-01'",
			want: kqd(func(l, o []types.Value) bool { return o[oOrderdate].I < sparseCutoff.I })},
		// The residual reads a column of each side that the select list
		// does not: narrowing must keep both, and only for the filter.
		{name: "join cross residual", sql: "SELECT l.orderkey AS k, o.orderpriority AS p " + from + "WHERE l.shipdate > o.orderdate AND l.quantity < 25",
			want: join(func(l, o []types.Value) []types.Value {
				if l[lShipdate].I > o[oOrderdate].I && l[lQuantity].F < 25 {
					return []types.Value{l[lOrderkey], o[oPriority]}
				}
				return nil
			})},
		{name: "tpch q3", sql: strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o", "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o", 1),
			want: q3Reference(t, line, ords), unordered: true},
		{name: "tpch q1", sql: strings.Replace(workload.TPCHQuery, "FROM lineitem", "FROM %[1]s.lineitem", 1)},
	}
	datasets := []*workload.Dataset{line, ords}
	for _, disjoint := range []bool{true, false} {
		d, q := aggProbe(t, disjoint, ordRows)
		datasets, queries = append(datasets, d), append(queries, q)
	}
	d, q := groupJoinQueries(t, lineRows, ordRows)
	return append(datasets, d...), append(queries, q...)
}

// Float keys of the group-join tables: the probe holds two NaN payloads,
// the build a third, so an emitted key shows which side it came from.
// probeNaN is Go's own NaN, the value "NaN" parses to, so that the S3
// Select path's text round trip keeps it.
var (
	probeNaN, probeNaN2, buildNaN = math.NaN(), math.Float64frombits(0x7ff8000000000003), math.Float64frombits(0x7ff8000000000002)
	negZero                       = math.Copysign(0, -1)
)

// groupJoinQueries are aggregates over a join — grouped by the join key
// and build columns, the grouping the engine numbers by the build's key
// ids when the build side is unique, or not — each answered
// row-at-a-time: over a build side with repeated keys, grouped by a build
// column alone, with a residual filter between the join and the
// aggregate, on a VARCHAR key, on a DOUBLE key holding −0.0, +0.0 and NaN
// payloads (beside a BIGINT one), and with NULL probe keys. gjprobe is
// their probe side: k BIGINT, s VARCHAR and f DOUBLE keys, NULL in
// places, and v, summed, in quarters, so that every sum is exact in any
// order. Each object holds k and s values of its own, and only the last
// has NULLs there, so the zone maps prove both split-disjoint and an
// aggregate grouped by either runs below the Exchange, where the join is.
func groupJoinQueries(t *testing.T, lineRows, ordRows [][]types.Value) ([]*workload.Dataset, []matrixQuery) {
	strs := [][]string{{"a longer string key", "ab"}, {"cd", "missing"}, {"xylophone keys", "zz-top-priority"}}
	floats := []float64{negZero, 0, probeNaN, probeNaN2, 1.5, 3.5}
	probe, probeRows := rowTable(t, "gjprobe", []types.Column{{Name: "k", Type: types.Int64}, {Name: "s", Type: types.String},
		{Name: "f", Type: types.Float64}, {Name: "v", Type: types.Float64}}, 3, 24, 8, func(seq int) []types.Value {
		obj := seq / 24
		row := []types.Value{types.IntValue(int64(obj*5 + seq%5 - 1)), types.StringValue(strs[obj][seq%2]),
			types.FloatValue(floats[seq/5%6]), types.FloatValue(float64(seq%7) / 4)}
		if obj == 2 && seq%7 == 3 {
			row[0] = types.NullValue(types.Int64)
		}
		if obj == 2 && seq%4 == 1 {
			row[1] = types.NullValue(types.String)
		}
		if seq%9 == 4 {
			row[2] = types.NullValue(types.Float64)
		}
		return row
	})
	dup, dupRows := rowTable(t, "gjdup", []types.Column{{Name: "k", Type: types.Int64}, {Name: "tag", Type: types.String}}, 2, 10, 8,
		func(seq int) []types.Value {
			return []types.Value{types.IntValue(int64(seq % 10)), types.StringValue([]string{"first", "second"}[seq/10])}
		})
	str, strRows := rowTable(t, "gjstr", []types.Column{{Name: "s", Type: types.String}, {Name: "grade", Type: types.Int64}}, 1, 4, 8,
		func(seq int) []types.Value {
			return []types.Value{types.StringValue([]string{"ab", "a longer string key", "zz-top-priority", "never probed"}[seq]), types.IntValue(int64(seq * 10))}
		})
	dbl, dblRows := rowTable(t, "gjdbl", []types.Column{{Name: "k", Type: types.Int64}, {Name: "f", Type: types.Float64}, {Name: "label", Type: types.String}}, 1, 7, 8,
		func(seq int) []types.Value {
			return []types.Value{types.IntValue([]int64{0, 0, 0, 5, 5, 9, 12}[seq]), types.FloatValue([]float64{negZero, 0, buildNaN, negZero, buildNaN, 0, 2.5}[seq]),
				types.StringValue([]string{"neg zero", "pos zero", "nan", "neg zero", "nan", "pos zero", "never probed"}[seq])}
		})

	col := func(c int) func([]types.Value) types.Value {
		return func(row []types.Value) types.Value { return row[c] }
	}
	cols := func(cs ...int) []func([]types.Value) types.Value {
		var out []func([]types.Value) types.Value
		for _, c := range cs {
			out = append(out, col(c))
		}
		return out
	}
	on := func(pairs ...[2]int) func(p, b []types.Value) bool {
		return func(p, b []types.Value) bool {
			for _, pair := range pairs {
				if !sameJoinKey(p[pair[0]], b[pair[1]]) {
					return false
				}
			}
			return true
		}
	}
	const sums = " COUNT(*) AS n, SUM(p.v) AS t FROM %[1]s.gjprobe AS p JOIN "
	return []*workload.Dataset{probe, dup, str, dbl}, []matrixQuery{
		{name: "join duplicate build keys",
			sql: "SELECT l.orderkey AS k, d.tag AS tag, COUNT(*) AS n, SUM(l.quantity) AS q FROM %[1]s.lineitem AS l JOIN %[1]s.gjdup AS d ON l.orderkey = d.k " +
				"GROUP BY l.orderkey, d.tag ORDER BY k, tag",
			want: joinAggregate(lineRows, dupRows, on([2]int{lOrderkey, 0}), cols(lOrderkey), cols(1), col(lQuantity))},
		{name: "join group by build column",
			sql: "SELECT o.orderpriority AS p, COUNT(*) AS n, SUM(l.quantity) AS q FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey " +
				"WHERE l.quantity < 25 GROUP BY o.orderpriority ORDER BY p",
			want: joinAggregate(lineRows, ordRows, func(l, o []types.Value) bool { return on([2]int{lOrderkey, oOrderkey})(l, o) && l[lQuantity].F < 25 },
				nil, cols(oPriority), col(lQuantity))},
		{name: "join residual before the aggregate",
			sql: "SELECT l.orderkey AS k, o.orderdate AS d, COUNT(*) AS n, SUM(l.quantity) AS q FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey " +
				"WHERE l.shipdate > o.orderdate GROUP BY l.orderkey, o.orderdate ORDER BY k",
			want: joinAggregate(lineRows, ordRows, func(l, o []types.Value) bool {
				return on([2]int{lOrderkey, oOrderkey})(l, o) && l[lShipdate].I > o[oOrderdate].I
			},
				cols(lOrderkey), cols(oOrderdate), col(lQuantity))},
		{name: "join on a VARCHAR key",
			sql:  "SELECT p.s AS s, g.grade AS g," + sums + "%[1]s.gjstr AS g ON p.s = g.s GROUP BY p.s, g.grade ORDER BY s",
			want: joinAggregate(probeRows, strRows, on([2]int{1, 0}), cols(1), cols(1), col(3))},
		{name: "join on a DOUBLE key",
			sql: "SELECT p.k AS k, p.f AS f, b.label AS label," + sums + "%[1]s.gjdbl AS b ON p.k = b.k AND p.f = b.f " +
				"GROUP BY p.k, p.f, b.label ORDER BY k, f, label",
			want:  joinAggregate(probeRows, dblRows, on([2]int{0, 0}, [2]int{2, 1}), cols(0, 2), cols(2), col(3)),
			check: probeNaNKept},
		{name: "join NULL probe keys",
			sql:  "SELECT p.k AS k, o.orderdate AS d," + sums + "%[1]s.orders AS o ON p.k = o.orderkey GROUP BY p.k, o.orderdate ORDER BY k",
			want: joinAggregate(probeRows, ordRows, on([2]int{0, oOrderkey}), cols(0), cols(oOrderdate), col(3))},
	}
}

// sameJoinKey reports whether two join key values match as the engine's
// key table has them: NULL matches nothing, and floats match by bit
// pattern with every NaN one key, so −0.0 does not match +0.0.
func sameJoinKey(a, b types.Value) bool {
	return !a.Null && !b.Null && keyWord(a) == keyWord(b)
}

// keyWord spells a key value so that two values are one key exactly when
// their words are equal, NULL being a key of its own.
func keyWord(v types.Value) string {
	switch {
	case v.Null:
		return "null"
	case v.Kind == types.Float64 && v.F != v.F:
		return "NaN"
	case v.Kind == types.Float64:
		return fmt.Sprint(math.Float64bits(v.F))
	}
	return v.String()
}

// probeNaNKept checks the NaN group of "join on a DOUBLE key": its key,
// grouped by the probe's column, carries a probe payload, never the
// build's.
func probeNaNKept(t *testing.T, label string, res *engine.Result) {
	keys := res.Page.Vectors[0]
	for row, f := range keys.Floats {
		if keys.IsNull(row) || f == f {
			continue
		}
		if bits := math.Float64bits(f); bits != math.Float64bits(probeNaN) && bits != math.Float64bits(probeNaN2) {
			t.Errorf("%s: the NaN group's key is %#x, not one of the probe's payloads", label, bits)
		}
	}
}

// joinAggregate answers SELECT <probe keys>, <build keys>, COUNT(*),
// SUM(<val>) FROM probe JOIN build ON <on> GROUP BY those keys ORDER BY
// them the slow, obvious way: every pair of rows, in table order, that on
// holds for (the join's condition and any WHERE). Group keys are equal
// as keyWord spells them.
func joinAggregate(probe, build [][]types.Value, on func(p, b []types.Value) bool,
	probeKeys, buildKeys []func([]types.Value) types.Value, val func([]types.Value) types.Value) []string {
	type group struct {
		keys []types.Value
		n    int64
		sum  float64
		seen bool // a non-NULL value summed
	}
	var groups []*group
	at := map[string]*group{}
	for _, p := range probe {
		for _, b := range build {
			if !on(p, b) {
				continue
			}
			var keys []types.Value
			for _, k := range probeKeys {
				keys = append(keys, k(p))
			}
			for _, k := range buildKeys {
				keys = append(keys, k(b))
			}
			id := ""
			for _, k := range keys {
				id += keyWord(k) + "|"
			}
			g := at[id]
			if g == nil {
				g = &group{keys: keys}
				at[id] = g
				groups = append(groups, g)
			}
			g.n++
			if v := val(p); !v.Null {
				g.sum, g.seen = g.sum+v.F, true
			}
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		for k := range groups[i].keys {
			if c := types.Compare(groups[i].keys[k], groups[j].keys[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	var out []string
	for _, g := range groups {
		sum := types.FloatValue(g.sum)
		if !g.seen {
			sum = types.NullValue(types.Float64)
		}
		out = append(out, renderRow(append(g.keys, types.IntValue(g.n), sum)))
	}
	return out
}

// aggProbe is a probe table for a Q3-shaped aggregate over the join — k
// joins orders' orderkey and is the group key, v is summed — and that
// query. Each of its four objects holds 24 keys, four rows each,
// interleaved, with v from a small set of fractions so that sums depend
// on their order and tie. dprobe (disjoint) gives each object a key range
// of its own, which the zone maps prove split-disjoint, so the aggregate
// and a partial Top-N run below the Exchange and the final stage reads at
// most the limit's rows per split; in oprobe neighbouring objects share
// most keys and the aggregate stays in the final stage (aggregateCheck).
func aggProbe(t *testing.T, disjoint bool, ords [][]types.Value) (*workload.Dataset, matrixQuery) {
	name := map[bool]string{true: "dprobe", false: "oprobe"}[disjoint]
	const objects = 4
	d, rows := rowTable(t, name, []types.Column{{Name: "k", Type: types.Int64}, {Name: "v", Type: types.Float64}},
		objects, 96, 32, func(seq int) []types.Value {
			f, k := seq/96, int64(seq%96*5%24)*3 // 24 keys, each on every 24th row
			if disjoint {
				k += int64(f) * 400
			} else {
				k += int64(f % 2)
			}
			return []types.Value{types.IntValue(k), types.FloatValue(float64(seq*7%10) / 10)}
		})
	if d.Table.SplitDisjoint("k") != disjoint {
		t.Fatalf("%s: zone maps derive k split-disjoint = %v, want %v", name, !disjoint, disjoint)
	}

	// The answer the slow, obvious way: groups in order of first
	// appearance over the rows in table order, each summed in row order,
	// then stably sorted by the sum — ties keep that order, which is
	// (split, row ordinal) — and cut at the limit.
	cutoff, err := types.DateFromString("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	dates := map[int64]types.Value{}
	for _, o := range ords {
		if o[oOrderdate].I < cutoff.I {
			dates[o[oOrderkey].I] = o[oOrderdate]
		}
	}
	var groups [][]types.Value // k, orderdate, sum
	at := map[int64]int{}
	for _, row := range rows {
		if date, ok := dates[row[0].I]; ok {
			g, seen := at[row[0].I]
			if !seen {
				g, at[row[0].I] = len(groups), len(groups)
				groups = append(groups, []types.Value{row[0], date, types.FloatValue(0)})
			}
			groups[g][2].F += row[1].F
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i][2].F > groups[j][2].F })
	var want []string
	for _, g := range groups[:min(10, len(groups))] {
		want = append(want, renderRow(g))
	}
	return d, matrixQuery{name: name, want: want,
		sql: `SELECT p.k AS k, o.orderdate AS d, SUM(p.v) AS s FROM %[1]s.` + name + ` AS p JOIN %[1]s.orders AS o ON p.k = o.orderkey ` +
			`WHERE o.orderdate < DATE '1994-01-01' GROUP BY p.k, o.orderdate ORDER BY s DESC LIMIT 10`,
		check: aggregateCheck(disjoint, 10, objects)}
}

// tieFamily is tietbl — four objects of three row groups each, seq the
// row's (split, row) ordinal, a an ordering key of five values and NULLs
// spread over every split, b a second key that ties within a — and ORDER
// BY … LIMIT over keys that tie across splits: among equals the rows
// earliest in (split, row ordinal) order win, the stable sort of the
// table in scan order cut at the limit, whether the Top-N ran in storage,
// in the leaf workers or on the coordinator. Each cell runs three times.
func tieFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	d, rows := rowTable(t, "tietbl", []types.Column{{Name: "seq", Type: types.Int64}, {Name: "a", Type: types.Int64},
		{Name: "b", Type: types.Float64}}, 4, 96, 32, func(seq int) []types.Value {
		row := []types.Value{types.IntValue(int64(seq)), types.IntValue(int64(seq * 7 % 5)), types.FloatValue(float64(seq%3) / 2)}
		if seq%11 == 3 {
			row[1] = types.NullValue(types.Int64)
		}
		return row
	})
	type key struct {
		col  int
		desc bool
	}
	// ties answers ORDER BY keys LIMIT limit over the rows from seq
	// minSeq on, returning the columns cols.
	ties := func(name, sql string, minSeq, limit int, cols []int, keys ...key) matrixQuery {
		kept := slices.Clone(rows[minSeq:])
		sort.SliceStable(kept, func(i, j int) bool {
			for _, k := range keys {
				if cmp := types.Compare(kept[i][k.col], kept[j][k.col]); cmp != 0 {
					return (cmp < 0) != k.desc
				}
			}
			return false
		})
		var want []string
		for _, row := range kept[:limit] {
			var out []types.Value
			for _, col := range cols {
				out = append(out, row[col])
			}
			want = append(want, renderRow(out))
		}
		return matrixQuery{name: name, sql: sql, want: want, repeat: 3}
	}
	return []*workload.Dataset{d}, []matrixQuery{
		// NULLs sort first: the NULLs of split 0 win, then split 1's.
		ties("ties nulls first", "SELECT seq, a FROM %[1]s.tietbl ORDER BY a LIMIT 9", 0, 9, []int{0, 1}, key{1, false}),
		// The top value ties across all four splits.
		ties("ties descending", "SELECT seq, a FROM %[1]s.tietbl ORDER BY a DESC LIMIT 9", 0, 9, []int{0, 1}, key{1, true}),
		// Two keys, ties on both, a filter in front.
		ties("ties two keys", "SELECT seq, a, b FROM %[1]s.tietbl WHERE seq >= 5 ORDER BY a DESC, b LIMIT 40", 5, 40, []int{0, 1, 2},
			key{1, true}, key{2, false}),
	}
}

const (
	dictRowGroup = 64
	dFlag        = 1
	dStatus      = 2
	dName        = 3
	dQty         = 4
)

// dictFamily is string grouping, every string predicate shape and a join
// on a string key over dictionary-encoded chunks. dicttbl has three
// objects of two row groups each; a row group's flag and status take
// their values in an order rotated by the row group, so every chunk
// numbers them differently; every seventh flag is NULL; in the fifth row
// group every odd row's flag is unique, which takes that chunk past
// n/4+1 distinct values, to plain encoding. Strings are short (packed
// into the key word) and long (interned), "" among them. dictdim is the
// join's build side. Every query filters each scan, so that hive. reads
// CSV results: plain strings.
func dictFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	flags := []string{"A", "B", "C", "D", ""}
	statuses := []string{"OPEN", "SHIPPED-IN-PART", "RETURNED-IN-FULL"}
	names := []string{"alpha", "bravo", "a name of some length", "x"}
	tbl, rows := rowTable(t, "dicttbl", []types.Column{{Name: "seq", Type: types.Int64}, {Name: "flag", Type: types.String},
		{Name: "status", Type: types.String}, {Name: "name", Type: types.String}, {Name: "qty", Type: types.Float64}},
		3, 2*dictRowGroup, dictRowGroup, func(seq int) []types.Value {
			g, i := seq/dictRowGroup, seq%dictRowGroup
			flag := types.StringValue(flags[(i+g)%len(flags)])
			switch {
			case seq%7 == 3:
				flag = types.NullValue(types.String)
			case g == 4 && i%2 == 1:
				flag = types.StringValue(fmt.Sprintf("X%02d", i))
			}
			return []types.Value{types.IntValue(int64(seq)), flag, types.StringValue(statuses[(i/3+2*g)%len(statuses)]),
				types.StringValue(names[(i*5+g)%len(names)]), types.FloatValue(float64(seq % 10))}
		})
	checkDictFixture(t, tbl)
	dimFlags := []string{"D", "A", "", "C", "Z"}
	dim, _ := rowTable(t, "dictdim", []types.Column{{Name: "flag", Type: types.String}, {Name: "label", Type: types.String},
		{Name: "rank", Type: types.Int64}}, 1, 24, 32, func(i int) []types.Value {
		flag := types.NullValue(types.String)
		if k := i % 6; k < len(dimFlags) {
			flag = types.StringValue(dimFlags[k])
		}
		return []types.Value{flag, types.StringValue(fmt.Sprintf("label-%d", i)), types.IntValue(int64(i))}
	})

	// A grouping's answer, row at a time: a group per distinct value of
	// the key columns, NULL a value of its own, ordered by the keys as
	// ORDER BY orders them, each group's row its keys and then what agg
	// makes of its rows.
	grouped := func(keys []int, agg func(group [][]types.Value) []types.Value) []string {
		at := map[string]int{}
		var groups [][][]types.Value
		for _, r := range rows {
			var key strings.Builder
			for _, c := range keys {
				fmt.Fprintf(&key, "%t%q", r[c].Null, r[c].S)
			}
			g, ok := at[key.String()]
			if !ok {
				g, at[key.String()] = len(groups), len(groups)
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], r)
		}
		sort.Slice(groups, func(i, j int) bool {
			for _, c := range keys {
				if cmp := types.Compare(groups[i][0][c], groups[j][0][c]); cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		var want []string
		for _, g := range groups {
			var out []types.Value
			for _, c := range keys {
				out = append(out, g[0][c])
			}
			want = append(want, renderRow(append(out, agg(g)...)))
		}
		return want
	}
	countSum := func(g [][]types.Value) []types.Value {
		q := 0.0
		for _, r := range g {
			q += r[dQty].F
		}
		return []types.Value{types.IntValue(int64(len(g))), types.FloatValue(q)}
	}
	countMinMax := func(g [][]types.Value) []types.Value {
		lo, hi := g[0][dName], g[0][dName]
		for _, r := range g {
			lo.S, hi.S = min(lo.S, r[dName].S), max(hi.S, r[dName].S)
		}
		return []types.Value{types.IntValue(int64(len(g))), lo, hi}
	}

	queries := []matrixQuery{
		{name: "group by one string key", want: grouped([]int{dFlag}, countSum),
			sql: "SELECT flag, count(*) AS n, sum(qty) AS q FROM %[1]s.dicttbl WHERE seq >= 0 GROUP BY flag ORDER BY flag"},
		{name: "group by two string keys", want: grouped([]int{dFlag, dStatus}, countMinMax),
			sql: "SELECT flag, status, count(*) AS n, min(name) AS lo, max(name) AS hi FROM %[1]s.dicttbl WHERE seq >= 0 GROUP BY flag, status ORDER BY flag, status"},
		{name: "join on a string key", sql: "SELECT d.seq AS seq, d.flag AS flag, m.label AS label FROM %[1]s.dicttbl AS d JOIN %[1]s.dictdim AS m ON d.flag = m.flag WHERE d.seq >= 0 AND m.rank >= 0 ORDER BY seq, label"},
	}
	// A predicate's answer is the rows a row-at-a-time filter keeps.
	predicate := func(where string, keep func(r []types.Value) bool) {
		var want []string
		for _, r := range rows {
			if keep(r) {
				want = append(want, renderRow([]types.Value{r[0], r[dFlag], r[dStatus]}))
			}
		}
		queries = append(queries, matrixQuery{name: where, want: want,
			sql: "SELECT seq, flag, status FROM %[1]s.dicttbl WHERE " + where + " ORDER BY seq"})
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, lit := range []string{"B", "", "X07"} {
			predicate("flag "+op+" '"+lit+"'", func(r []types.Value) bool { return stringCmp(r[dFlag], op, lit) })
		}
	}
	predicate("'B' < flag", func(r []types.Value) bool { return stringCmp(r[dFlag], ">", "B") })
	predicate("flag BETWEEN 'A' AND 'C'", func(r []types.Value) bool { return stringCmp(r[dFlag], ">=", "A") && stringCmp(r[dFlag], "<=", "C") })
	predicate("(flag = 'A' OR flag = 'D' OR flag = 'X07' OR flag = 'nope')", func(r []types.Value) bool {
		return stringCmp(r[dFlag], "=", "A") || stringCmp(r[dFlag], "=", "D") || stringCmp(r[dFlag], "=", "X07")
	})
	predicate("flag IS NULL", func(r []types.Value) bool { return r[dFlag].Null })
	predicate("flag IS NOT NULL", func(r []types.Value) bool { return !r[dFlag].Null })
	predicate("flag < status", func(r []types.Value) bool { return stringCmp(r[dFlag], "<", r[dStatus].S) })
	predicate("flag > 'A' AND status <> 'OPEN'", func(r []types.Value) bool {
		return stringCmp(r[dFlag], ">", "A") && stringCmp(r[dStatus], "<>", "OPEN")
	})
	// Value context on the storage node: a comparison, IS NULL and NOT
	// as projected columns, evaluated under a pushed filter's selection;
	// and a pushed predicate with a computed operand.
	var values, computed []string
	for _, r := range rows {
		lt := types.NullValue(types.Bool)
		if !r[dFlag].Null {
			lt = types.BoolValue(r[dFlag].S < r[dStatus].S)
		}
		values = append(values, renderRow([]types.Value{r[0], lt, types.BoolValue(r[dFlag].Null), types.BoolValue(!(r[dQty].F > 1))}))
		if r[dQty].F*2 > 3 {
			computed = append(computed, renderRow(r[:1]))
		}
	}
	queries = append(queries,
		matrixQuery{name: "comparisons as values", want: values,
			sql: "SELECT seq, flag < status AS lt, flag IS NULL AS fn, NOT (qty > 1.0) AS nq FROM %[1]s.dicttbl WHERE seq >= 0 ORDER BY seq"},
		matrixQuery{name: "qty * 2.0 > 3.0", want: computed,
			sql: "SELECT seq FROM %[1]s.dicttbl WHERE qty * 2.0 > 3.0 ORDER BY seq"})
	return []*workload.Dataset{tbl, dim}, queries
}

// checkDictFixture holds dicttbl to what the dictionary queries need: the
// flag chunks include a plain one and dictionary ones that number the
// same strings differently, and NULL rows.
func checkDictFixture(t *testing.T, d *workload.Dataset) {
	t.Helper()
	var plain int
	var orders [][]string
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		for rg := range r.Meta().RowGroups {
			vec, err := r.ReadColumn(rg, dFlag)
			switch {
			case err != nil:
				t.Fatal(err)
			case !vec.HasNulls():
				t.Fatalf("%s row group %d: the flag chunk has no NULL row", key, rg)
			case vec.Dict == nil:
				plain++
			case !slices.ContainsFunc(orders, func(o []string) bool { return slices.Equal(o, vec.Dict) }):
				orders = append(orders, vec.Dict)
			}
		}
	}
	if plain != 1 || len(orders) < 2 {
		t.Fatalf("flag chunks: %d plain, %d distinct dictionary orders; the fixture wants 1 and several", plain, len(orders))
	}
}

// stringCmp is SQL's comparison of a string value with a literal: NULL
// compares false.
func stringCmp(v types.Value, op, lit string) bool {
	c := strings.Compare(v.S, lit)
	return !v.Null && map[string]bool{"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]
}

// driftFamily is drifttbl, a Deep Water table whose first object is a
// Laghos object: the catalog says one schema, the object holds another,
// and every scan path — the storage node's, in every pushdown mode, the
// S3 Select path and the engine-side whole-object scan, which hive.
// takes for a query with no WHERE — must fail the query rather than
// misread columns.
func driftFamily(t *testing.T) ([]*workload.Dataset, []matrixQuery) {
	cfg := workload.Config{Files: 2, RowsPerFile: 1024, Seed: 12}
	d, err := workload.DeepWater(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := workload.Laghos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Table.Name, d.Table.Bucket = "drifttbl", "drifttbl"
	d.Objects[d.Table.Objects[0]] = other.Objects[other.Table.Objects[0]]
	return []*workload.Dataset{d}, []matrixQuery{
		{name: "schema drift", sql: "SELECT MAX(rowid) AS m, timestep FROM %[1]s.drifttbl GROUP BY timestep", fails: true},
		{name: "schema drift filtered", sql: "SELECT MAX(rowid) AS m, timestep FROM %[1]s.drifttbl WHERE v02 > 0.1 GROUP BY timestep", fails: true},
	}
}
