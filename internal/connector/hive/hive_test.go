package hive

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
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
	srv := rpc.NewServer()
	objstore.Mount(srv, objstore.NewStore(), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := objstore.NewClient(addr)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})

	var keys []string
	var objs []ingest.SealedObject
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
		b := ingest.NewObjectBuilder(schema, parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 16})
		if err := b.AppendPage(p); err != nil {
			t.Fatal(err)
		}
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("part-%d.pql", o)
		if err := cli.Put(context.Background(), "data", key, sealed.Image); err != nil {
			t.Fatal(err)
		}
		keys, objs = append(keys, key), append(objs, sealed)
	}

	tbl, err := ingest.AssembleTable(ingest.TableSpec{
		Schema: "hive", Name: "t", Bucket: "data", Columns: schema, Codec: compress.Snappy,
	}, keys, objs)
	if err != nil {
		t.Fatal(err)
	}
	ms := metastore.New()
	if err := ms.Register(tbl); err != nil {
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

// TestPushdownEqualsNoPushdown holds the S3 Select path to the
// whole-object scan: a scan under a filter reads the CSV results of the
// pushed filter, a scan with none reads whole objects. Each pushed query
// must return, in order, the rows of its whole-object counterpart that
// keep keeps (keep nil: the WHERE keeps every row).
func TestPushdownEqualsNoPushdown(t *testing.T) {
	e, _ := setup(t)
	cases := []struct {
		pushed, whole string
		keep          func(row []types.Value) bool
	}{
		{"SELECT id, v, g FROM t WHERE v BETWEEN 10.0 AND 20.0", "SELECT id, v, g FROM t",
			func(r []types.Value) bool { return r[1].F >= 10 && r[1].F <= 20 }},
		{"SELECT g, count(*) AS c, sum(v) AS s FROM t WHERE id >= 0 GROUP BY g ORDER BY g",
			"SELECT g, count(*) AS c, sum(v) AS s FROM t GROUP BY g ORDER BY g", nil},
		{"SELECT id, g FROM t WHERE g = 'x' ORDER BY id DESC", "SELECT id, g FROM t ORDER BY id DESC",
			func(r []types.Value) bool { return r[1].S == "x" }},
		{"SELECT id, v FROM t WHERE id < 0", "SELECT id, v FROM t",
			func(r []types.Value) bool { return r[0].I < 0 }},
	}
	for _, tc := range cases {
		pushed, err := execute(context.Background(), e, tc.pushed, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.pushed, err)
		}
		whole, err := execute(context.Background(), e, tc.whole, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.whole, err)
		}
		if !slices.Contains(pushed.Stats.PushedDown, "filter") || slices.Contains(whole.Stats.PushedDown, "filter") {
			t.Fatalf("%s: pushed %v, its whole-object counterpart %v", tc.pushed, pushed.Stats.PushedDown, whole.Stats.PushedDown)
		}
		var want []string
		for i := range whole.Page.NumRows() {
			if row := whole.Page.Row(i); tc.keep == nil || tc.keep(row) {
				want = append(want, fmt.Sprint(row))
			}
		}
		var got []string
		for i := range pushed.Page.NumRows() {
			got = append(got, fmt.Sprint(pushed.Page.Row(i)))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: rows %d, want %d", tc.pushed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s row %d: %q, want %q", tc.pushed, i, got[i], want[i])
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
