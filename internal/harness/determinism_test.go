package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/column"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
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

// TestJoinDifferentialAcrossConfigurations runs Q3 and the join shapes
// over ocs. under every pushdown mode × bloom on/off × broadcast and
// final-stage probe, and over hive. under both probe placements, and
// compares each answer with the row-at-a-time reference — the shapes row
// for row in order, Q3 (whose order is its ORDER BY) as rendered rows.
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
	q3 := strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o", "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o", 1)
	q3Want := q3Reference(t, line, ords)

	type config struct{ catalog, mode, bloom, strategy string }
	var configs []config
	for _, strategy := range []string{"broadcast", "final-stage"} {
		for _, mode := range []string{"none", "filter", "all", "auto"} {
			for _, bloom := range []string{"on", "off"} {
				configs = append(configs, config{CatalogOCS, mode, bloom, strategy})
			}
		}
		configs = append(configs, config{CatalogHive, "all", "on", strategy})
	}
	for _, cfg := range configs {
		c.Engine.Cost = costmodel.Params{} // the default thresholds broadcast a build side this small
		if cfg.strategy == "final-stage" {
			c.Engine.Cost.BroadcastJoinMaxRows = 1
		}
		session := engine.NewSession().Set(ocsconn.SessionPushdown, cfg.mode).Set(engine.SessionJoinBloom, cfg.bloom)
		run := func(name, sql string) (*engine.Result, string) {
			label := fmt.Sprintf("%s over %s [%s, bloom %s, %s]", name, cfg.catalog, cfg.mode, cfg.bloom, cfg.strategy)
			res, err := execute(context.Background(), c.Engine, fmt.Sprintf(sql, cfg.catalog), session)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Stats.JoinStrategy != cfg.strategy {
				t.Fatalf("%s: probed %s", label, res.Stats.JoinStrategy)
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
	}
}

// putObjects seals each page as one object of bucket on the OCS cluster,
// in row groups of rowGroup rows, and returns the keys and the images.
func putObjects(t *testing.T, c *Cluster, bucket string, rowGroup int, pages []*column.Page) (objects []string, images [][]byte) {
	t.Helper()
	for i, page := range pages {
		img, err := parquetlite.WritePages(page.Schema, parquetlite.WriterOptions{RowGroupSize: rowGroup}, page)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s-%d.pql", bucket, i)
		if err := c.OCSCli.Put(context.Background(), bucket, key, img); err != nil {
			t.Fatal(err)
		}
		objects, images = append(objects, key), append(images, img)
	}
	return objects, images
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
	objects, images := putObjects(t, c, "tie", 32, pages)
	rowCount, total, stats, err := metastore.StatsFromObjects(schema, images)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Meta.Register(&metastore.Table{
		Schema: CatalogOCS, Name: "tietbl", Columns: schema, Bucket: "tie", Objects: objects,
		RowCount: rowCount, TotalBytes: total, ColumnStats: stats,
	}); err != nil {
		t.Fatal(err)
	}
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
