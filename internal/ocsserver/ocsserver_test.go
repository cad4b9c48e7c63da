package ocsserver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
	"prestocs/internal/scan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func meshSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "vertex_id", Type: types.Int64},
		types.Column{Name: "x", Type: types.Float64},
		types.Column{Name: "e", Type: types.Float64},
	)
}

// meshObject builds a deterministic object: 200 rows, vertex_id = i%10,
// x = i/100.0, e = i.
func meshObject(t *testing.T, codec compress.Codec) []byte {
	t.Helper()
	p := column.NewPage(meshSchema())
	for i := 0; i < 200; i++ {
		p.AppendRow(
			types.IntValue(int64(i%10)),
			types.FloatValue(float64(i)/100),
			types.FloatValue(float64(i)),
		)
	}
	data, err := parquetlite.WritePages(meshSchema(), parquetlite.WriterOptions{Codec: codec, RowGroupSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func filterPlan(t *testing.T, bucket, object string) *substrait.Plan {
	t.Helper()
	read := &substrait.ReadRel{Bucket: bucket, Objects: []string{object}, BaseSchema: meshSchema()}
	cond, err := expr.NewBetween(expr.Col(1, "x", types.Float64),
		expr.Lit(types.FloatValue(0.5)), expr.Lit(types.FloatValue(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	return substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond})
}

func TestExecuteLocalFilter(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	pages, stats, err := ExecuteLocalCached(store, filterPlan(t, "b", "o"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	// x in [0.5, 1.0] -> i in [50,100] -> 51 rows.
	if total != 51 {
		t.Errorf("filtered rows = %d, want 51", total)
	}
	if stats.BytesRead <= 0 || stats.RowsProcessed <= 0 || stats.CPUUnits <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestExecuteLocalRowGroupPruning(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	// x BETWEEN 0.5 AND 1.0 hits row groups 0 (rows 0-63) and 1 (64-127)
	// only; groups 2,3 must be pruned, reducing BytesRead.
	_, statsPruned, err := ExecuteLocalCached(store, filterPlan(t, "b", "o"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An always-true filter reads everything.
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	cond, _ := expr.NewCompare(expr.Ge, expr.Col(1, "x", types.Float64), expr.Lit(types.FloatValue(-1)))
	_, statsFull, err := ExecuteLocalCached(store, substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if statsPruned.BytesRead >= statsFull.BytesRead {
		t.Errorf("pruning did not reduce reads: %d vs %d", statsPruned.BytesRead, statsFull.BytesRead)
	}
}

func TestExecuteLocalAggregatePartial(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.Snappy))
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	agg := &substrait.AggregateRel{
		Input:     read,
		GroupKeys: []int{0},
		Measures: []substrait.Measure{
			{Func: substrait.AggSum, Arg: 2, Name: "sum_e"},
			{Func: substrait.AggCountStar, Arg: -1, Name: "cnt"},
		},
	}
	pages, stats, err := ExecuteLocalCached(store, substrait.NewPlan(agg), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 || pages[0].NumRows() != 10 {
		t.Fatalf("groups = %v", pages)
	}
	// Each vertex_id group has 20 rows; counts must say so.
	for i := 0; i < pages[0].NumRows(); i++ {
		if pages[0].Row(i)[2].I != 20 {
			t.Errorf("group %d count = %v", i, pages[0].Row(i)[2])
		}
	}
	if stats.BytesDecompressed <= stats.BytesRead {
		t.Errorf("snappy object should decompress larger: read=%d dec=%d", stats.BytesRead, stats.BytesDecompressed)
	}
}

func TestExecuteLocalTopNAndProject(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	mod, err := expr.NewArith(expr.Mod, expr.Col(0, "vertex_id", types.Int64), expr.Lit(types.IntValue(3)))
	if err != nil {
		t.Fatal(err)
	}
	proj := &substrait.ProjectRel{
		Input:       read,
		Expressions: []expr.Expr{mod, expr.Col(2, "e", types.Float64)},
		Names:       []string{"m", "e"},
	}
	topn := &substrait.FetchRel{
		Input: &substrait.SortRel{Input: proj, Keys: []substrait.SortKey{{Column: 1, Descending: true}}},
		Count: 5,
	}
	pages, _, err := ExecuteLocalCached(store, substrait.NewPlan(topn), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := column.NewPage(pages[0].Schema)
	for _, p := range pages {
		out.AppendPage(p, nil)
	}
	if out.NumRows() != 5 {
		t.Fatalf("topN rows = %d", out.NumRows())
	}
	if out.Row(0)[1].F != 199 || out.Row(4)[1].F != 195 {
		t.Errorf("topN values: %v ... %v", out.Row(0)[1], out.Row(4)[1])
	}
}

func TestExecuteLocalBareFetch(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.None))
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	pages, _, err := ExecuteLocalCached(store, substrait.NewPlan(&substrait.FetchRel{Input: read, Count: 7}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += p.NumRows()
	}
	if total != 7 {
		t.Errorf("limit rows = %d", total)
	}
}

func TestExecuteLocalErrors(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "corrupt", []byte("nope"))
	if _, _, err := ExecuteLocalCached(store, filterPlan(t, "b", "missing"), 0, nil); err == nil {
		t.Error("missing object accepted")
	}
	if _, _, err := ExecuteLocalCached(store, filterPlan(t, "b", "corrupt"), 0, nil); err == nil {
		t.Error("corrupt object accepted")
	}
	// Schema mismatch between plan and object.
	store.Put("b", "o", meshObject(t, compress.None))
	wrongSchema := types.NewSchema(types.Column{Name: "other", Type: types.Int64})
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: wrongSchema}
	cond, _ := expr.NewCompare(expr.Gt, expr.Col(0, "other", types.Int64), expr.Lit(types.IntValue(0)))
	if _, _, err := ExecuteLocalCached(store, substrait.NewPlan(&substrait.FilterRel{Input: read, Condition: cond}), 0, nil); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func startCluster(t *testing.T, n int) (*Cluster, *Client) {
	t.Helper()
	cluster, err := StartCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cluster.Addr)
	t.Cleanup(func() {
		cli.Close()
		cluster.Shutdown()
	})
	return cluster, cli
}

func TestClusterExecute(t *testing.T) {
	_, cli := startCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	res, err := drain(context.Background(), cli, filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("cluster filter rows = %d", total)
	}
	if res.ArrowBytes <= 0 || res.Stats.RowsProcessed <= 0 {
		t.Errorf("result metadata missing: %+v", res)
	}
	if res.Schema.IndexOf("x") < 0 {
		t.Errorf("result schema = %v", res.Schema)
	}
}

func TestClusterMultiNodePlacement(t *testing.T) {
	cluster, cli := startCluster(t, 3)
	// Spread 12 objects; every node should get some.
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("part-%03d.pql", i)
		if err := cli.Put(context.Background(), "lanl", key, meshObject(t, compress.None)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := cli.List(context.Background(), "lanl", "part-")
	if err != nil || len(keys) != 12 {
		t.Fatalf("List = %d keys, %v", len(keys), err)
	}
	nonEmpty := 0
	for _, node := range cluster.Nodes {
		if ks, err := node.Store().List("lanl", ""); err == nil && len(ks) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("placement not spread: %d/3 nodes hold objects", nonEmpty)
	}
	// Execute against an object on whichever node holds it.
	res, err := drain(context.Background(), cli, filterPlan(t, "lanl", "part-007.pql"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) == 0 {
		t.Error("no pages returned")
	}
	// Get routes correctly too.
	data, st, err := cli.Get(context.Background(), "lanl", "part-003.pql")
	if err != nil || len(data) == 0 || st.BytesRead != int64(len(data)) {
		t.Errorf("routed Get failed: %d bytes, %v", len(data), err)
	}
}

// TestShardedListOfSparseBucket is the regression test for List on more
// than one node: a bucket exists on a node only once one of its objects
// hashed there, so with a single object every other node answers NotFound.
// The merged listing must treat those as empty — and be NotFound itself
// only when no node has seen the bucket.
func TestShardedListOfSparseBucket(t *testing.T) {
	ctx := context.Background()
	for _, nodes := range []int{2, 3} {
		_, cli := startCluster(t, nodes)
		if err := cli.Put(ctx, "sparse", "only.pql", []byte("x")); err != nil {
			t.Fatal(err)
		}
		keys, err := cli.List(ctx, "sparse", "")
		if err != nil || len(keys) != 1 || keys[0] != "only.pql" {
			t.Errorf("%d nodes: List = %v, %v; want [only.pql]", nodes, keys, err)
		}
		if _, err := cli.List(ctx, "never-put", ""); !errors.Is(err, rpc.ErrNotFound) {
			t.Errorf("%d nodes: List of a bucket no node has seen: %v, want %v", nodes, err, rpc.ErrNotFound)
		}
	}
}

func TestClusterExecuteErrors(t *testing.T) {
	_, cli := startCluster(t, 1)
	if _, err := drain(context.Background(), cli, filterPlan(t, "b", "missing")); err == nil {
		t.Error("execute against missing object succeeded")
	}
	// Plan with no read rel is rejected by the frontend... cannot build
	// one through the typed API; instead check invalid plan bytes via a
	// raw call: covered by substrait tests. Here: frontend rejects a Get
	// without bucket/key.
	if _, _, err := cli.Get(context.Background(), "", ""); err == nil {
		t.Error("empty get accepted")
	}
}

// The load-bearing invariant: OCS in-storage execution returns the same
// rows as reading the whole object and executing the same operators
// compute-side.
func TestInStorageEqualsLocalExecution(t *testing.T) {
	_, cli := startCluster(t, 1)
	obj := meshObject(t, compress.Gzip)
	if err := cli.Put(context.Background(), "b", "o", obj); err != nil {
		t.Fatal(err)
	}

	plan := filterPlan(t, "b", "o")
	res, err := drain(context.Background(), cli, plan)
	if err != nil {
		t.Fatal(err)
	}
	got := column.NewPage(res.Schema)
	for _, p := range res.Pages {
		got.AppendPage(p, nil)
	}

	// Compute-side: full GET + local scan + same filter.
	data, _, err := cli.Get(context.Background(), "b", "o")
	if err != nil {
		t.Fatal(err)
	}
	r, err := parquetlite.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := r.ReadAll([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cond := plan.Root.(*substrait.FilterRel).Condition
	f, err := exec.NewFilter(exec.NewPageSource(meshSchema(), pages), cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.DrainToPage(f)
	if err != nil {
		t.Fatal(err)
	}

	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", got.NumRows(), want.NumRows())
	}
	for i := 0; i < got.NumRows(); i++ {
		for c := range got.Row(i) {
			if !types.Equal(got.Row(i)[c], want.Row(i)[c]) {
				t.Errorf("row %d col %d: %v vs %v", i, c, got.Row(i)[c], want.Row(i)[c])
			}
		}
	}
}

// TestNodeRejectsFetchOffset sends a top-N plan with a nonzero
// FetchRel.Offset through the codec to a node: no executor skips rows, so
// the node must refuse the plan as invalid rather than return the first
// Offset+Count rows.
func TestNodeRejectsFetchOffset(t *testing.T) {
	_, cli := startCluster(t, 1)
	ctx := context.Background()
	if err := cli.Put(ctx, "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	sorted := &substrait.SortRel{Input: read, Keys: []substrait.SortKey{{Column: 2, Descending: true}}}
	for _, rel := range []substrait.Rel{
		&substrait.FetchRel{Input: sorted, Offset: 5, Count: 3},
		&substrait.FetchRel{Input: read, Offset: 5, Count: 3},
	} {
		_, err := drain(ctx, cli, substrait.NewPlan(rel))
		if rpc.ErrorCode(err) != rpc.CodeInvalid {
			t.Errorf("%s: error %v, want a CodeInvalid rejection", substrait.NewPlan(rel), err)
		}
	}
}

func TestFrontendRejectsGarbagePlan(t *testing.T) {
	cluster, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	raw := NewClient(cluster.Addr)
	defer raw.Close()
	// Call Execute with garbage payload through the raw rpc client.
	_, err = raw.rpc.Call(context.Background(), MethodExecute, []byte{0xde, 0xad})
	if err == nil || !strings.Contains(err.Error(), "rejecting plan") {
		t.Errorf("garbage plan error = %v", err)
	}
}

// TestNodeRPCEqualsExecuteLocalCached pins the single-open contract: the
// node's RPC handler and the in-process entry point run the same env +
// pipeline, so for one plan they return the same pages and the same work
// stats — including what the caches save: the in-process side gets a cache
// bundle of its own and sees the plans in the same order, so the second
// plan hits warm footers and pages on both sides. Pool 1 keeps the float
// work-unit sums in file order.
func TestNodeRPCEqualsExecuteLocalCached(t *testing.T) {
	cluster, err := StartClusterWith(1, ClusterConfig{ScanPool: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cluster.Addr)
	defer func() {
		cli.Close()
		cluster.Shutdown()
	}()
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.Gzip)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	plans := []*substrait.Plan{
		filterPlan(t, "b", "o"),
		substrait.NewPlan(&substrait.AggregateRel{
			Input:     read,
			GroupKeys: []int{0},
			Measures:  []substrait.Measure{{Func: substrait.AggSum, Arg: 2, Name: "sum_e"}},
		}),
	}
	node := cluster.Nodes[0]
	caches := scan.NewCaches(scan.DefaultFooterCacheBytes, scan.DefaultPageCacheBytes)
	for _, plan := range plans {
		name := plan.String()
		res, err := drain(context.Background(), cli, plan)
		if err != nil {
			t.Fatalf("%s: rpc: %v", name, err)
		}
		pages, work, err := ExecuteLocalCached(node.Store(), plan, 1, caches)
		if err != nil {
			t.Fatalf("%s: in-process: %v", name, err)
		}
		if got, want := renderPages(res.Pages), renderPages(pages); got != want {
			t.Errorf("%s: rpc pages differ from in-process pages\nrpc:\n%s\nin-process:\n%s", name, got, want)
		}
		if res.Stats != *work {
			t.Errorf("%s: rpc work %+v, in-process work %+v", name, res.Stats, *work)
		}
	}
}

// TestInvalidPlansRefusedAtTheFrontend: a plan whose filter reads a column
// the scan does not have, or reads one as the wrong kind, and one whose
// bloom filter is a word over bloom.MaxBytes, each fail validation, so the
// frontend refuses them as invalid before any node is asked. A cap-sized
// filter is valid and runs.
func TestInvalidPlansRefusedAtTheFrontend(t *testing.T) {
	c, cli := startCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	payloads := recordPayloads(c.Nodes[0])
	read := func() *substrait.ReadRel {
		return &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	}
	filterOn := func(col *expr.ColumnRef, lit types.Value) *substrait.Plan {
		cond, err := expr.NewCompare(expr.Eq, col, expr.Lit(lit))
		if err != nil {
			t.Fatal(err)
		}
		return substrait.NewPlan(&substrait.FilterRel{Input: read(), Condition: cond})
	}
	bloomed := func(bytes int) *substrait.Plan {
		bits := make([]byte, bytes)
		for i := range bits {
			bits[i] = 0xff
		}
		return substrait.NewPlan(&substrait.BloomFilterRel{Input: filterPlan(t, "b", "o").Root, Column: 0, NumHash: 3, Bits: bits})
	}
	front := rpc.Dial(c.Addr)
	defer front.Close()
	for name, plan := range map[string]*substrait.Plan{
		"column 7 of 3":      filterOn(expr.Col(7, "x", types.Float64), types.FloatValue(0.5)),
		"DOUBLE as VARCHAR":  filterOn(expr.Col(1, "x", types.String), types.StringValue("a")),
		"bloom over the cap": bloomed(bloom.MaxBytes + 8),
	} {
		if _, err := plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepts the plan", name)
		}
		payload, err := substrait.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := front.Call(context.Background(), MethodExecute, payload); !errors.Is(err, rpc.ErrInvalid) {
			t.Errorf("%s: frontend answered %v, want an invalid plan", name, err)
		}
		if _, err := drain(context.Background(), cli, plan); !errors.Is(err, rpc.ErrInvalid) {
			t.Errorf("%s: client answered %v, want an invalid plan", name, err)
		}
	}
	if n := len(payloads()); n != 0 {
		t.Errorf("the node was sent %d invalid plans", n)
	}

	plan := bloomed(bloom.MaxBytes)
	if _, err := plan.Validate(); err != nil {
		t.Fatalf("cap-sized bloom: %v", err)
	}
	res, err := drain(context.Background(), cli, plan)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, p := range res.Pages {
		rows += p.NumRows()
	}
	if rows != 51 {
		t.Errorf("an all-ones cap-sized bloom kept %d of the filter's 51 rows", rows)
	}
}
