package hive

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/engine"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// fixture: 4 objects × 50 rows of (id, v, g) in an object store + catalog.
func setup(t *testing.T) (*engine.Engine, *objstore.Client) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "g", Type: types.String},
	)
	srv := objstore.NewServer(objstore.NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := objstore.NewClient(addr)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})

	var objects []string
	var images [][]byte
	n := 0
	for o := 0; o < 4; o++ {
		p := column.NewPage(schema)
		for r := 0; r < 50; r++ {
			p.AppendRow(
				types.IntValue(int64(n)),
				types.FloatValue(float64(n)*0.25),
				types.StringValue([]string{"x", "y"}[n%2]),
			)
			n++
		}
		img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 16}, p)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("part-%d.pql", o)
		if err := cli.Put(context.Background(), "data", key, img); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, key)
		images = append(images, img)
	}

	rows, bytes, colStats, err := metastore.StatsFromObjects(schema, images)
	if err != nil {
		t.Fatal(err)
	}
	ms := metastore.New()
	stats := map[string]metastore.ColumnStats{}
	for name, cs := range colStats {
		cs.NDV = 100
		stats[name] = cs
	}
	if err := ms.Register(&metastore.Table{
		Schema: "hive", Name: "t", Columns: schema,
		Bucket: "data", Objects: objects, Codec: compress.Snappy,
		RowCount: rows, TotalBytes: bytes, ColumnStats: stats,
	}); err != nil {
		t.Fatal(err)
	}

	e := engine.New()
	e.DefaultCatalog = "hive"
	e.Workers = 3
	e.AddConnector(New("hive", ms, cli))
	return e, cli
}

func TestFilterPushdownViaSelect(t *testing.T) {
	e, _ := setup(t)
	res, err := execute(context.Background(), e, "SELECT id, v FROM t WHERE id >= 190", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	if len(res.Stats.PushedDown) == 0 {
		t.Errorf("no pushdown recorded: %+v", res.Stats.PushedDown)
	}
	// Data movement should be far below the full dataset (CSV of 10 rows).
	moved := res.Stats.Scan.Snapshot().BytesMoved
	if moved > 2000 {
		t.Errorf("bytes moved = %d, expected small CSV", moved)
	}
}

func TestNoPushdownFullTransfer(t *testing.T) {
	e, _ := setup(t)
	session := engine.NewSession().Set(SessionSelectPushdown, "false")
	res, err := execute(context.Background(), e, "SELECT id, v FROM t WHERE id >= 190", session)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 10 {
		t.Fatalf("rows = %d", res.Page.NumRows())
	}
	if res.Stats.UsedPushdown && contains(res.Stats.PushedDown, "filter") {
		t.Error("filter pushed despite session off")
	}
	// Full objects were transferred.
	moved := res.Stats.Scan.Snapshot().BytesMoved
	if moved < 4000 {
		t.Errorf("bytes moved = %d, expected full objects", moved)
	}
}

// rowMultiset renders each row as a string and sorts them.
func rowMultiset(p *column.Page) []string {
	out := make([]string, p.NumRows())
	for i := range out {
		row := p.Row(i)
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func TestPushdownEqualsNoPushdown(t *testing.T) {
	e, _ := setup(t)
	queries := []string{
		"SELECT id, v, g FROM t WHERE v BETWEEN 10.0 AND 20.0",
		"SELECT g, count(*) AS c, sum(v) AS s FROM t GROUP BY g ORDER BY g",
		"SELECT id FROM t WHERE g = 'x' ORDER BY id DESC LIMIT 7",
		"SELECT count(*) AS c FROM t WHERE id < 0",
	}
	off := engine.NewSession().Set(SessionSelectPushdown, "false")
	for _, q := range queries {
		with, err := execute(context.Background(), e, q, nil)
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q, err)
		}
		without, err := execute(context.Background(), e, q, off)
		if err != nil {
			t.Fatalf("%s (no pushdown): %v", q, err)
		}
		// Unordered queries may return rows in any order (parallel
		// splits); compare as multisets of rendered rows.
		a := rowMultiset(with.Page)
		b := rowMultiset(without.Page)
		if len(a) != len(b) {
			t.Fatalf("%s: rows %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s row %d: %q vs %q", q, i, a[i], b[i])
			}
		}
	}
}

func TestAggregationStaysOnCompute(t *testing.T) {
	// The Hive connector must never absorb aggregation — it runs engine
	// side over select results.
	e, _ := setup(t)
	res, err := execute(context.Background(), e, "SELECT g, min(v) AS m FROM t WHERE id >= 100 GROUP BY g ORDER BY g", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page.NumRows() != 2 {
		t.Fatalf("groups = %d", res.Page.NumRows())
	}
	for _, op := range res.Stats.PushedDown {
		if op == "aggregation" || op == "topn" {
			t.Errorf("hive connector pushed %q", op)
		}
	}
	if res.Page.Row(0)[1].F != 25.0 { // min v for g=x with id>=100 is id=100 -> 25.0
		t.Errorf("min = %v", res.Page.Row(0)[1])
	}
}

func TestHandleString(t *testing.T) {
	e, _ := setup(t)
	res, err := execute(context.Background(), e, "SELECT v FROM t WHERE v > 1.0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanText == "" {
		t.Error("plan text empty")
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
