package ocs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/engine"
	"prestocs/internal/metastore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// fixture: a Laghos-like table of 4 objects × 60 rows. vertex_id is
// split-disjoint (each object owns its own id range), enabling full
// pushdown.
func setup(t *testing.T) (*engine.Engine, *Connector) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
		types.Column{Name: "rowid", Type: types.Int64},
	)
	cluster, err := ocsserver.StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	cli := ocsserver.NewClient(cluster.Addr)
	t.Cleanup(func() {
		cli.Close()
		cluster.Shutdown()
	})

	var objects []string
	var images [][]byte
	n := 0
	for o := 0; o < 4; o++ {
		p := column.NewPage(schema)
		for r := 0; r < 60; r++ {
			p.AppendRow(
				types.IntValue(int64(o*20+r%20)), // 20 distinct ids per object, disjoint ranges
				types.FloatValue(float64(n%100)/25),
				types.FloatValue(float64(n)),
				types.IntValue(int64(n)),
			)
			n++
		}
		img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{Codec: compress.None, RowGroupSize: 32}, p)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("part-%d.pql", o)
		if err := cli.Put(context.Background(), "lanl", key, img); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, key)
		images = append(images, img)
	}

	rows, bytes, colStats, err := metastore.StatsFromObjects(schema, images)
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]metastore.ColumnStats{}
	ndv := map[string]int64{"vertex_id": 80, "x": 100, "e": 240, "rowid": 240}
	for name, cs := range colStats {
		cs.NDV = ndv[name]
		stats[name] = cs
	}
	ms := metastore.New()
	if err := ms.Register(&metastore.Table{
		Schema: "ocs", Name: "mesh", Columns: schema,
		Bucket: "lanl", Objects: objects, Codec: compress.None,
		RowCount: rows, TotalBytes: bytes, ColumnStats: stats,
		DisjointKeys: []string{"vertex_id"},
	}); err != nil {
		t.Fatal(err)
	}

	conn := New("ocs", ms, cli)
	e := engine.New()
	e.DefaultCatalog = "ocs"
	e.Workers = 2
	e.AddConnector(conn)
	return e, conn
}

func rowMultiset(p *column.Page) []string {
	out := make([]string, p.NumRows())
	for i := range out {
		s := ""
		for _, v := range p.Row(i) {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

const laghosQuery = `SELECT min(vertex_id) AS vid, min(x) AS mx, avg(e) AS E
  FROM mesh WHERE x BETWEEN 0.8 AND 3.2 GROUP BY vertex_id ORDER BY E LIMIT 10`

const deepWaterQuery = `SELECT MAX((rowid % 100) / 10) AS m, vertex_id
  FROM mesh WHERE x > 0.1 GROUP BY vertex_id`

// allModes is the paper's progressive pushdown sweep.
var allModes = []string{"none", "filter", "filter_project", "filter_agg", "filter_project_agg", "all"}

func session(mode string) *engine.Session {
	return engine.NewSession().Set(SessionPushdown, mode)
}

// TestPushdownSoundness is the load-bearing invariant: every pushdown
// configuration returns exactly the rows "none" returns.
func TestPushdownSoundness(t *testing.T) {
	e, _ := setup(t)
	for _, q := range []string{laghosQuery, deepWaterQuery} {
		baseline, err := execute(context.Background(), e, q, session("none"))
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		want := rowMultiset(baseline.Page)
		for _, mode := range allModes[1:] {
			res, err := execute(context.Background(), e, q, session(mode))
			if err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
			got := rowMultiset(res.Page)
			if len(got) != len(want) {
				t.Fatalf("mode %s: %d rows vs %d", mode, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("mode %s row %d: %q vs %q", mode, i, got[i], want[i])
				}
			}
		}
	}
}

func TestProgressivePushdownReducesMovement(t *testing.T) {
	e, _ := setup(t)
	moved := map[string]int64{}
	for _, mode := range []string{"none", "filter", "filter_agg", "all"} {
		res, err := execute(context.Background(), e, laghosQuery, session(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		moved[mode] = res.Stats.Scan.Snapshot().BytesMoved
	}
	if !(moved["none"] > moved["filter"] && moved["filter"] > moved["filter_agg"] && moved["filter_agg"] >= moved["all"]) {
		t.Errorf("movement not monotone: %v", moved)
	}
}

func TestPushedOperatorsPerMode(t *testing.T) {
	e, _ := setup(t)
	cases := map[string][]string{
		"none":       nil,
		"filter":     {"filter"},
		"filter_agg": {"filter", "aggregation"},
		"all":        {"filter", "aggregation", "final-project", "topn"},
	}
	for mode, want := range cases {
		res, err := execute(context.Background(), e, laghosQuery, session(mode))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		got := strings.Join(res.Stats.PushedDown, ",")
		if got != strings.Join(want, ",") {
			t.Errorf("mode %s pushed %q, want %q", mode, got, strings.Join(want, ","))
		}
	}
	// Deep-water-like query has a pre-aggregation projection.
	res, err := execute(context.Background(), e, deepWaterQuery, session("filter_project_agg"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.Stats.PushedDown, ",")
	if got != "filter,project,aggregation" {
		t.Errorf("deepwater pushed %q", got)
	}
}

func TestAggWithoutProjectCannotSkip(t *testing.T) {
	// filter_agg on a plan with a pre-aggregation projection must stop at
	// the projection (contiguity), pushing the filter only.
	e, _ := setup(t)
	res, err := execute(context.Background(), e, deepWaterQuery, session("filter_agg"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.Stats.PushedDown, ",")
	if got != "filter" {
		t.Errorf("pushed %q, want filter only", got)
	}
}

func TestTopNRequiresDisjointKeys(t *testing.T) {
	e, conn := setup(t)
	// Rebuild the table without disjoint keys: full pushdown must refuse
	// topN (keeping results exact) and keep the final aggregation.
	tbl, err := conn.meta.Get("ocs", "mesh")
	if err != nil {
		t.Fatal(err)
	}
	clone := *tbl
	clone.Name = "mesh2"
	clone.DisjointKeys = nil
	if err := conn.meta.Register(&clone); err != nil {
		t.Fatal(err)
	}
	q := strings.Replace(laghosQuery, "FROM mesh", "FROM mesh2", 1)
	res, err := execute(context.Background(), e, q, session("all"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Stats.PushedDown {
		if op == "topn" {
			t.Error("topn pushed despite non-disjoint keys")
		}
	}
	// Results still match the baseline.
	baseline, err := execute(context.Background(), e, q, session("none"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowMultiset(res.Page), rowMultiset(baseline.Page)
	if len(a) != len(b) {
		t.Fatalf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestAutoModeDecisions(t *testing.T) {
	e, _ := setup(t)
	res, err := execute(context.Background(), e, laghosQuery, session("auto"))
	if err != nil {
		t.Fatal(err)
	}
	// Auto should at least push the aggregation (80 groups / 240 rows
	// ≈ 67% reduction > 50% threshold) — and must stay sound.
	baseline, _ := execute(context.Background(), e, laghosQuery, session("none"))
	a, b := rowMultiset(res.Page), rowMultiset(baseline.Page)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("auto mode changed results")
		}
	}
	found := false
	for _, op := range res.Stats.PushedDown {
		if op == "aggregation" {
			found = true
		}
	}
	if !found {
		t.Errorf("auto did not push aggregation: %v", res.Stats.PushedDown)
	}
}

func TestSubstraitGenTimed(t *testing.T) {
	e, _ := setup(t)
	res, err := execute(context.Background(), e, laghosQuery, session("all"))
	if err != nil {
		t.Fatal(err)
	}
	scan := res.Stats.Scan.Snapshot()
	if scan.SubstraitGen <= 0 {
		t.Error("substrait generation not timed")
	}
	if scan.Transfer <= 0 {
		t.Error("transfer not timed")
	}
	if scan.StorageWork.RowsProcessed <= 0 {
		t.Error("storage work not recorded")
	}
}

// TestRecentCarriesPushdownHistory: the engine's finished-query ring is the
// pushdown history — what each query pushed and moved is readable from it.
func TestRecentCarriesPushdownHistory(t *testing.T) {
	e, _ := setup(t)
	for i := 0; i < 3; i++ {
		if _, err := execute(context.Background(), e, laghosQuery, session("all")); err != nil {
			t.Fatal(err)
		}
	}
	recs := e.Processes().Recent()
	if len(recs) != 3 {
		t.Fatalf("recent = %d records", len(recs))
	}
	for _, r := range recs {
		if r.Error != "" || r.BytesMoved <= 0 || len(r.Pushed) == 0 || r.SQL != laghosQuery {
			t.Errorf("record = %+v, want a successful pushed-down laghos query", r)
		}
	}
}

func TestParseModeErrors(t *testing.T) {
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
	m, err := ParseMode("")
	if err != nil || !m.Filter || !m.TopN {
		t.Error("default mode should be all")
	}
	e, _ := setup(t)
	if _, err := execute(context.Background(), e, laghosQuery, session("bogus")); err == nil {
		t.Error("bogus session mode accepted")
	}
}

func TestBareLimitPushdown(t *testing.T) {
	e, _ := setup(t)
	q := "SELECT vertex_id, e FROM mesh WHERE x > 0.5 LIMIT 7"
	res, err := execute(context.Background(), e, q, session("all"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 7 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	found := false
	for _, op := range res.Stats.PushedDown {
		if op == "limit" {
			found = true
		}
	}
	if !found {
		t.Errorf("limit not pushed: %v", res.Stats.PushedDown)
	}
	// With the limit pushed, storage returns at most 7 rows per split.
	if rows := res.Stats.Scan.Snapshot().ResultRows; rows > 4*7 {
		t.Errorf("storage returned %d rows, want ≤ 28", rows)
	}
	// Filter mode leaves the limit on the engine: same answer count.
	res2, err := execute(context.Background(), e, q, session("filter"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Page.NumRows() != 7 {
		t.Errorf("filter-mode rows = %d", res2.Page.NumRows())
	}
}

// execute submits one query and blocks for its result.
func execute(ctx context.Context, e *engine.Engine, sql string, session *engine.Session) (*engine.Result, error) {
	q, err := e.Submit(ctx, sql, engine.WithSession(session))
	if err != nil {
		return nil, err
	}
	return q.Result()
}
