package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// The final stage folds leaf output in split order (engine.leafStage), so
// an answer — row order included — is a function of the snapshot alone.
// These tests hold every configuration to one row-at-a-time reference,
// row for row and in order; `make determinism` repeats them at
// -cpu 1,2,4.

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

// readRows decodes a dataset row-at-a-time, objects in table order.
func readRows(t *testing.T, d *workload.Dataset) [][]types.Value {
	t.Helper()
	all := make([]int, d.Table.Columns.Len())
	for i := range all {
		all[i] = i
	}
	var rows [][]types.Value
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll(all)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				rows = append(rows, p.Row(i))
			}
		}
	}
	return rows
}

// lineitem and orders ordinals the join shapes read.
const (
	lOrderkey, lQuantity, lShipdate  = 0, 1, 7
	oOrderkey, oOrderdate, oPriority = 0, 1, 2
)

// joinShape is one join query with its answer spelled out row-at-a-time:
// which probe rows, build rows and matched pairs survive, and what a
// surviving pair emits. %[1]s in sql is the catalog.
type joinShape struct {
	name, sql string
	probe     func(l []types.Value) bool
	build     func(o []types.Value) bool
	pair      func(l, o []types.Value) bool
	emit      func(l, o []types.Value) []types.Value
}

func joinShapes(t *testing.T) []joinShape {
	cutoff, err := types.DateFromString("1993-01-01")
	if err != nil {
		t.Fatal(err)
	}
	const from = "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey "
	kqd := func(l, o []types.Value) []types.Value {
		return []types.Value{l[lOrderkey], l[lQuantity], o[oOrderdate]}
	}
	smallQuantity := func(l []types.Value) bool { return l[lQuantity].F < 10 }
	earlyOrder := func(o []types.Value) bool { return o[oOrderdate].I < cutoff.I }
	return []joinShape{
		{name: "probe conjunct", sql: "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10",
			probe: smallQuantity, emit: kqd},
		{name: "build conjunct", sql: "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE o.orderdate < DATE '1993-01-01'",
			build: earlyOrder, emit: kqd},
		{name: "both conjuncts", sql: "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10 AND o.orderdate < DATE '1993-01-01'",
			probe: smallQuantity, build: earlyOrder, emit: kqd},
		// The residual reads a column of each side that the select list
		// does not: narrowing must keep both, and only for the filter.
		{name: "cross residual", sql: "SELECT l.orderkey AS k, o.orderpriority AS p " + from + "WHERE l.shipdate > o.orderdate AND l.quantity < 25",
			probe: func(l []types.Value) bool { return l[lQuantity].F < 25 },
			pair:  func(l, o []types.Value) bool { return l[lShipdate].I > o[oOrderdate].I },
			emit:  func(l, o []types.Value) []types.Value { return []types.Value{l[lOrderkey], o[oPriority]} }},
	}
}

// reference is the shape's answer the slow, obvious way: probe rows in
// table order, each against its build matches in table order.
func (s joinShape) reference(line, ords [][]types.Value) []string {
	matches := map[int64][][]types.Value{}
	for _, o := range ords {
		if s.build == nil || s.build(o) {
			matches[o[oOrderkey].I] = append(matches[o[oOrderkey].I], o)
		}
	}
	var out []string
	for _, l := range line {
		if s.probe != nil && !s.probe(l) {
			continue
		}
		for _, o := range matches[l[lOrderkey].I] {
			if s.pair == nil || s.pair(l, o) {
				out = append(out, renderRow(s.emit(l, o)))
			}
		}
	}
	return out
}

// aggProbe is a probe table for a Q3-shaped aggregate over the join: k
// joins orders' orderkey and is the group key, v is summed. Each of its
// four objects holds 24 keys, four rows each, interleaved, with v from a
// small set of fractions so that sums depend on their order and tie.
// disjoint gives each object a key range of its own, which the zone maps
// prove split-disjoint; otherwise every object spans the same keys.
type aggProbe struct {
	name     string
	disjoint bool
	rows     [][]types.Value
	objects  int
}

const aggProbeQuery = `SELECT p.k AS k, o.orderdate AS d, SUM(p.v) AS s ` +
	`FROM %[1]s.%[2]s AS p JOIN %[1]s.orders AS o ON p.k = o.orderkey ` +
	`WHERE o.orderdate < DATE '1994-01-01' GROUP BY p.k, o.orderdate ORDER BY s DESC LIMIT 10`

func loadAggProbe(t *testing.T, c *Cluster, name string, disjoint bool) *aggProbe {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	probe := &aggProbe{name: name, disjoint: disjoint, objects: 4}
	var pages []*column.Page
	for f := 0; f < probe.objects; f++ {
		page := column.NewPage(schema)
		for r := 0; r < 96; r++ {
			k := int64(r*5%24) * 3 // 24 keys, each on every 24th row
			if disjoint {
				k += int64(f) * 400
			} else {
				k += int64(f % 2) // neighbouring objects share most keys
			}
			seq := len(probe.rows)
			row := []types.Value{types.IntValue(k), types.FloatValue(float64(seq*7%10) / 10)}
			page.AppendRow(row...)
			probe.rows = append(probe.rows, row)
		}
		pages = append(pages, page)
	}
	d := sealDataset(t, ingest.TableSpec{Schema: CatalogOCS, Name: name, Bucket: name, Columns: schema}, 32, pages)
	if d.Table.SplitDisjoint("k") != disjoint {
		t.Fatalf("%s: zone maps derive k split-disjoint = %v, want %v", name, !disjoint, disjoint)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	return probe
}

// reference is the aggregate the slow, obvious way: groups in order of
// first appearance over the probe rows in table order, each summed in row
// order, then stably sorted by the sum — ties keep that order, which is
// (split, row ordinal) — and cut at the limit.
func (p *aggProbe) reference(t *testing.T, ords [][]types.Value) []string {
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
	type group struct {
		k, d types.Value
		s    float64
	}
	var groups []group
	at := map[int64]int{}
	for _, row := range p.rows {
		d, ok := dates[row[0].I]
		if !ok {
			continue
		}
		g, seen := at[row[0].I]
		if !seen {
			g = len(groups)
			at[row[0].I] = g
			groups = append(groups, group{k: row[0], d: d})
		}
		groups[g].s += row[1].F
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].s > groups[j].s })
	var out []string
	for _, g := range groups[:min(10, len(groups))] {
		out = append(out, renderRow([]types.Value{g.k, g.d, types.FloatValue(g.s)}))
	}
	return out
}

// TestJoinDifferentialAcrossConfigurations runs Q3, the join shapes and
// an aggregate over each aggProbe table over ocs. under every pushdown
// mode × bloom on/off, and over hive., each at one leaf worker and at four
// (every worker probes the one shared table), and compares each answer
// with the row-at-a-time reference — the shapes and the aggregates row for
// row in order, Q3 (whose order is its ORDER BY) as rendered rows. Over
// the disjoint probe the aggregate runs to completion in the leaf
// workers, a partial Top-N below the Exchange, and the final stage sees
// at most the limit's rows per split; over the overlapping probe it stays
// in the final stage.
// Both scans are projected to what each plan reads (plan.NarrowJoin), so
// this is also the proof that narrowing changes no answer.
func TestJoinDifferentialAcrossConfigurations(t *testing.T) {
	c := testCluster(t)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	lineRows, ordRows := readRows(t, line), readRows(t, ords)
	probes := []*aggProbe{loadAggProbe(t, c, "dprobe", true), loadAggProbe(t, c, "oprobe", false)}
	q3 := strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o", "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o", 1)
	q3Want := q3Reference(t, line, ords)

	type config struct {
		catalog, mode, bloom string
		workers              int
	}
	var configs []config
	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"none", "filter", "all", "auto"} {
			for _, bloom := range []string{"on", "off"} {
				configs = append(configs, config{CatalogOCS, mode, bloom, workers})
			}
		}
		configs = append(configs, config{CatalogHive, "all", "on", workers})
	}
	for _, cfg := range configs {
		c.Engine.Workers = cfg.workers
		session := engine.NewSession().Set(ocsconn.SessionPushdown, cfg.mode).Set(engine.SessionJoinBloom, cfg.bloom)
		run := func(name, sql string) (*engine.Result, string) {
			label := fmt.Sprintf("%s over %s [%s, bloom %s, %d workers]", name, cfg.catalog, cfg.mode, cfg.bloom, cfg.workers)
			res, err := execute(context.Background(), c.Engine, fmt.Sprintf(sql, cfg.catalog), session)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return res, label
		}
		for _, shape := range joinShapes(t) {
			want := shape.reference(lineRows, ordRows)
			if len(want) == 0 {
				t.Fatalf("%s: the reference answer is empty", shape.name)
			}
			res, label := run(shape.name, shape.sql)
			assertRowsEqual(t, label, orderedRows(res.Page), want)
		}
		res, label := run("q3", q3)
		assertRowsEqual(t, label, rowMultisetPage(res.Page), q3Want)
		for _, p := range probes {
			res, label := run(p.name, strings.ReplaceAll(aggProbeQuery, "%[2]s", p.name))
			assertRowsEqual(t, label, orderedRows(res.Page), p.reference(t, ordRows))
			plan := res.Stats.PlanText
			exchange, partial := strings.Index(plan, "Exchange"), strings.Index(plan, "TopN(PARTIAL)")
			if fired := partial > exchange && exchange >= 0; fired != p.disjoint {
				t.Errorf("%s: aggregate moved below the exchange = %v, want %v:\n%s", label, fired, p.disjoint, plan)
			}
			if limit := int64(10 * p.objects); p.disjoint && res.Stats.FinalMeter.Rows > limit {
				t.Errorf("%s: the final stage read %d rows, want at most %d", label, res.Stats.FinalMeter.Rows, limit)
			}
		}
	}
}

// putTable seals each page as one object of spec's bucket, in row
// groups of rowGroup rows, stores it on the OCS cluster and registers the
// table ingest.AssembleTable makes of the objects, with exact NDV — the
// path the workload generators take.
func putTable(t *testing.T, c *Cluster, spec ingest.TableSpec, rowGroup int, pages []*column.Page) *metastore.Table {
	t.Helper()
	d := sealDataset(t, spec, rowGroup, pages)
	if err := d.Upload(context.Background(), c.OCSCli); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(c.Meta, spec.Schema); err != nil {
		t.Fatal(err)
	}
	return d.Table
}

// sealDataset seals each page as one object of spec's bucket, in row
// groups of rowGroup rows, and assembles the table of the objects with
// exact NDV, ready for Cluster.Load or an upload of its own.
func sealDataset(t *testing.T, spec ingest.TableSpec, rowGroup int, pages []*column.Page) *workload.Dataset {
	t.Helper()
	distinct := ingest.NewDistinctSets(spec.Columns)
	d := &workload.Dataset{Name: spec.Name, Objects: map[string][]byte{}}
	var keys []string
	var objs []ingest.SealedObject
	for i, page := range pages {
		b := ingest.NewObjectBuilder(spec.Columns, parquetlite.WriterOptions{RowGroupSize: rowGroup})
		if err := b.AppendPage(page); err != nil {
			t.Fatal(err)
		}
		b.MergeDistinctInto(distinct)
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s-%d.pql", spec.Bucket, i)
		d.Objects[key] = sealed.Image
		keys, objs = append(keys, key), append(objs, sealed)
	}
	ndv := make(map[string]int64, spec.Columns.Len())
	for i, col := range spec.Columns.Columns {
		ndv[col.Name] = distinct.Count(i)
	}
	tbl, err := ingest.AssembleTable(spec, keys, objs, ndv)
	if err != nil {
		t.Fatal(err)
	}
	d.Table = tbl
	return d
}

// tieTable registers ocs.tietbl: four objects of three row groups each,
// with seq the row's (split, row) ordinal, a an ordering key of five
// values and NULLs — every value and the NULLs spread over every split —
// and b a second key that ties within a.
func tieTable(t *testing.T, c *Cluster) [][]types.Value {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "seq", Type: types.Int64},
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
	)
	var rows [][]types.Value
	var pages []*column.Page
	for f := 0; f < 4; f++ {
		page := column.NewPage(schema)
		for r := 0; r < 96; r++ {
			seq := int64(len(rows))
			row := []types.Value{types.IntValue(seq), types.IntValue((seq * 7) % 5), types.FloatValue(float64(seq%3) / 2)}
			if seq%11 == 3 {
				row[1] = types.NullValue(types.Int64)
			}
			page.AppendRow(row...)
			rows = append(rows, row)
		}
		pages = append(pages, page)
	}
	putTable(t, c, ingest.TableSpec{Schema: CatalogOCS, Name: "tietbl", Bucket: "tie", Columns: schema}, 32, pages)
	return rows
}

// TestTopNTieOrderAcrossSplits: ORDER BY … LIMIT over keys that tie (and
// are NULL) across splits keeps, among equals, the rows earliest in
// (split, row ordinal) order — the stable sort of the table in scan order,
// cut at the limit — on every run, with one worker or several, in every
// pushdown mode, whether the Top-N ran in storage, in the leaf workers or
// on the coordinator.
func TestTopNTieOrderAcrossSplits(t *testing.T) {
	c := testCluster(t)
	rows := tieTable(t, c)
	queries := []struct {
		sql    string
		minSeq int64 // the WHERE clause, if any: seq >= minSeq
		cols   []int
		keys   []tieKey
		limit  int
	}{
		// NULLs sort first: the NULLs of split 0 win, then split 1's.
		{"SELECT seq, a FROM tietbl ORDER BY a LIMIT 9", 0, []int{0, 1}, []tieKey{{1, false}}, 9},
		// The top value ties across all four splits.
		{"SELECT seq, a FROM tietbl ORDER BY a DESC LIMIT 9", 0, []int{0, 1}, []tieKey{{1, true}}, 9},
		// Two keys, ties on both, a filter in front.
		{"SELECT seq, a, b FROM tietbl WHERE seq >= 5 ORDER BY a DESC, b LIMIT 40", 5, []int{0, 1, 2}, []tieKey{{1, true}, {2, false}}, 40},
	}
	for _, q := range queries {
		kept := append([][]types.Value(nil), rows[q.minSeq:]...) // seq is the row's index
		sort.SliceStable(kept, func(i, j int) bool {
			for _, k := range q.keys {
				if cmp := types.Compare(kept[i][k.col], kept[j][k.col]); cmp != 0 {
					return (cmp < 0) != k.desc
				}
			}
			return false
		})
		var want []string
		for _, row := range kept[:q.limit] {
			out := make([]types.Value, len(q.cols))
			for i, col := range q.cols {
				out[i] = row[col]
			}
			want = append(want, renderRow(out))
		}
		for run := 0; run < 20; run++ {
			for _, workers := range []int{1, 4} {
				c.Engine.Workers = workers
				for _, mode := range []string{"none", "filter", "all", "auto"} {
					res, err := execute(context.Background(), c.Engine, q.sql, engine.NewSession().Set(ocsconn.SessionPushdown, mode))
					if err != nil {
						t.Fatalf("%q [%s, %d workers]: %v", q.sql, mode, workers, err)
					}
					assertRowsEqual(t, fmt.Sprintf("%q [%s, %d workers, run %d, pushed %v]", q.sql, mode, workers, run, res.Stats.PushedDown),
						orderedRows(res.Page), want)
				}
			}
		}
	}
}

// tieKey is one ORDER BY key of a tie-order query: the table column and
// its direction.
type tieKey struct {
	col  int
	desc bool
}
