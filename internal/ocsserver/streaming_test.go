package ocsserver

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

func TestExecuteStreamIncremental(t *testing.T) {
	_, cli := startCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	// Full scan: 200 rows in 4 row groups of 64.
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Schema().IndexOf("x") < 0 {
		t.Fatalf("stream schema = %v", rs.Schema())
	}
	var pages, rows int
	for {
		p, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pages++
		rows += p.NumRows()
	}
	if rows != 200 {
		t.Errorf("streamed rows = %d", rows)
	}
	// One Arrow batch per row group: the node must not have buffered the
	// result into one big chunk.
	if pages != 4 {
		t.Errorf("streamed batches = %d, want 4 (one per row group)", pages)
	}
	if rs.Stats().BytesRead <= 0 || rs.ArrowBytes() <= 0 {
		t.Errorf("trailer stats missing: %+v bytes=%d", rs.Stats(), rs.ArrowBytes())
	}
}

func TestExecuteStreamChunkRowsCoalescing(t *testing.T) {
	cluster, cli := startCluster(t, 1)
	cluster.Nodes[0].ChunkRows = 1000 // larger than the object: one chunk
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var pages, rows int
	for {
		p, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pages++
		rows += p.NumRows()
	}
	if pages != 1 || rows != 200 {
		t.Errorf("coalesced stream = %d pages / %d rows, want 1 / 200", pages, rows)
	}
}

func TestExecuteStreamAbandonReleasesCleanly(t *testing.T) {
	_, cli := startCluster(t, 1)
	if err := cli.Put(context.Background(), "b", "o", meshObject(t, compress.None)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	rs.Close() // abandon after one page
	// The client must remain usable on a fresh connection.
	res, err := cli.Execute(context.Background(), filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range res.Pages {
		total += p.NumRows()
	}
	if total != 51 {
		t.Errorf("rows after abandoned stream = %d", total)
	}
}

func TestNewFrontendZeroNodes(t *testing.T) {
	if _, err := NewFrontend(nil); err == nil {
		t.Fatal("frontend with zero storage nodes must be rejected")
	}
	if _, err := StartCluster(0); err == nil {
		t.Fatal("zero-node cluster must be rejected")
	}
}

// fakeNode stands in for a storage node whose Execute stream misbehaves.
func fakeNode(t *testing.T, handler rpc.StreamHandler) string {
	t.Helper()
	s := rpc.NewServer()
	s.RegisterStream(NodeMethodExecute, handler)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func frontendFor(t *testing.T, nodeAddr string) *Client {
	t.Helper()
	front, err := NewFrontend([]string{nodeAddr})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(addr)
	t.Cleanup(func() {
		cli.Close()
		front.Close()
	})
	return cli
}

func schemaMsg(t *testing.T) []byte {
	t.Helper()
	msg, err := arrowlite.AppendSchema(nil, meshSchema())
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func batchMsg(t *testing.T, rows int) []byte {
	t.Helper()
	p := column.NewPage(meshSchema())
	for i := 0; i < rows; i++ {
		p.AppendRow(types.IntValue(int64(i)), types.FloatValue(float64(i)), types.FloatValue(float64(i)))
	}
	msg, err := arrowlite.AppendBatch(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestStreamErrorFrameAfterBatches(t *testing.T) {
	// The node streams a schema and two good batches, then fails: the
	// query must surface the error, not hang or return a short result.
	addr := fakeNode(t, func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		send(schemaMsg(t))
		send(batchMsg(t, 3))
		send(batchMsg(t, 3))
		return nil, fmt.Errorf("disk on fire")
	})
	cli := frontendFor(t, addr)
	_, err := cli.Execute(context.Background(), filterPlan(t, "b", "o"))
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("mid-stream node failure = %v", err)
	}
}

func TestStreamNodeDiesMidStream(t *testing.T) {
	// The node sends the schema and one batch, then its process dies
	// (connection drops with no end frame). The client must get an error.
	nodeSrv := rpc.NewServer()
	proceed := make(chan struct{})
	nodeSrv.RegisterStream(NodeMethodExecute, func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		send(schemaMsg(t))
		send(batchMsg(t, 3))
		<-proceed // hold the stream open until the server is torn down
		return nil, fmt.Errorf("unreachable")
	})
	addr, err := nodeSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := frontendFor(t, addr)
	rs, err := cli.ExecuteStream(context.Background(), filterPlan(t, "b", "o"))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}
	// Kill the node's connections while the stream is mid-flight, then
	// unblock the handler so Close can finish.
	close(proceed)
	nodeSrv.Close()
	for {
		_, err := rs.Next()
		if err == io.EOF {
			t.Fatal("dead node produced a clean end of stream")
		}
		if err != nil {
			break // surfaced as a query error — correct
		}
	}
}

func TestStreamCorruptChunkPayload(t *testing.T) {
	// A node that emits garbage instead of a schema message must produce
	// a decode error at the client, not a hang.
	addr := fakeNode(t, func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		send([]byte{0xde, 0xad})
		return nil, nil
	})
	cli := frontendFor(t, addr)
	if _, err := cli.Execute(context.Background(), filterPlan(t, "b", "o")); err == nil {
		t.Fatal("corrupt schema chunk accepted")
	}
}

func TestStreamEmptyStreamNoSchema(t *testing.T) {
	// A node that ends the stream without any chunk violates the result
	// protocol; the client must reject it.
	addr := fakeNode(t, func(_ context.Context, p []byte, send func([]byte) error) ([]byte, error) {
		return nil, nil
	})
	cli := frontendFor(t, addr)
	if _, err := cli.Execute(context.Background(), filterPlan(t, "b", "o")); err == nil {
		t.Fatal("schema-less stream accepted")
	}
}

// rowsOf flattens pages into printable rows for order-sensitive
// comparison.
func rowsOf(pages []*column.Page) []string {
	var out []string
	for _, p := range pages {
		for i := 0; i < p.NumRows(); i++ {
			out = append(out, fmt.Sprint(p.Row(i)))
		}
	}
	return out
}

// TestParallelScanMatchesSequential is the pushdown-soundness property
// test: for every pushdown configuration and codec, the parallel
// row-group scanner must return exactly the rows, in exactly the order,
// of the sequential scanner.
func TestParallelScanMatchesSequential(t *testing.T) {
	baseRead := func() *substrait.ReadRel {
		return &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	}
	between := func(t *testing.T) expr.Expr {
		cond, err := expr.NewBetween(expr.Col(1, "x", types.Float64),
			expr.Lit(types.FloatValue(0.5)), expr.Lit(types.FloatValue(1.5)))
		if err != nil {
			t.Fatal(err)
		}
		return cond
	}
	configs := []struct {
		name string
		plan func(t *testing.T) *substrait.Plan
	}{
		{"scan", func(t *testing.T) *substrait.Plan {
			return substrait.NewPlan(baseRead())
		}},
		{"projection", func(t *testing.T) *substrait.Plan {
			r := baseRead()
			r.Projection = []int{2, 0}
			return substrait.NewPlan(r)
		}},
		{"filter", func(t *testing.T) *substrait.Plan {
			return substrait.NewPlan(&substrait.FilterRel{Input: baseRead(), Condition: between(t)})
		}},
		{"filter+project", func(t *testing.T) *substrait.Plan {
			f := &substrait.FilterRel{Input: baseRead(), Condition: between(t)}
			mod, err := expr.NewArith(expr.Mod, expr.Col(0, "vertex_id", types.Int64), expr.Lit(types.IntValue(3)))
			if err != nil {
				t.Fatal(err)
			}
			return substrait.NewPlan(&substrait.ProjectRel{
				Input:       f,
				Expressions: []expr.Expr{mod, expr.Col(2, "e", types.Float64)},
				Names:       []string{"m", "e"},
			})
		}},
		{"aggregate", func(t *testing.T) *substrait.Plan {
			return substrait.NewPlan(&substrait.AggregateRel{
				Input:     baseRead(),
				GroupKeys: []int{0},
				Measures: []substrait.Measure{
					{Func: substrait.AggSum, Arg: 2, Name: "sum_e"},
					{Func: substrait.AggCountStar, Arg: -1, Name: "cnt"},
				},
			})
		}},
		{"filter+aggregate", func(t *testing.T) *substrait.Plan {
			f := &substrait.FilterRel{Input: baseRead(), Condition: between(t)}
			return substrait.NewPlan(&substrait.AggregateRel{
				Input:     f,
				GroupKeys: []int{0},
				Measures:  []substrait.Measure{{Func: substrait.AggMin, Arg: 1, Name: "min_x"}},
			})
		}},
		{"topn", func(t *testing.T) *substrait.Plan {
			return substrait.NewPlan(&substrait.FetchRel{
				Input: &substrait.SortRel{Input: baseRead(), Keys: []substrait.SortKey{{Column: 2, Descending: true}}},
				Count: 9,
			})
		}},
		{"limit", func(t *testing.T) *substrait.Plan {
			return substrait.NewPlan(&substrait.FetchRel{Input: baseRead(), Count: 70})
		}},
	}
	for _, codec := range []compress.Codec{compress.None, compress.Snappy, compress.Gzip} {
		store := objstore.NewStore()
		store.Put("b", "o", meshObject(t, codec))
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s", codec, cfg.name), func(t *testing.T) {
				seqPages, _, err := ExecuteLocalCached(store, cfg.plan(t), 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				parPages, _, err := ExecuteLocalCached(store, cfg.plan(t), 8, nil)
				if err != nil {
					t.Fatal(err)
				}
				seq, par := rowsOf(seqPages), rowsOf(parPages)
				if len(seq) != len(par) {
					t.Fatalf("row counts differ: sequential=%d parallel=%d", len(seq), len(par))
				}
				for i := range seq {
					if seq[i] != par[i] {
						t.Fatalf("row %d differs:\n  sequential: %s\n  parallel:   %s", i, seq[i], par[i])
					}
				}
			})
		}
	}
}

// TestParallelScanStatsComplete checks that a fully drained parallel scan
// reports the same I/O totals as the sequential scan.
func TestParallelScanStatsComplete(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", meshObject(t, compress.Snappy))
	read := &substrait.ReadRel{Bucket: "b", Object: "o", BaseSchema: meshSchema()}
	_, seqStats, err := ExecuteLocalCached(store, substrait.NewPlan(read), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, parStats, err := ExecuteLocalCached(store, substrait.NewPlan(read), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.BytesRead != parStats.BytesRead || seqStats.BytesDecompressed != parStats.BytesDecompressed {
		t.Errorf("I/O stats differ: sequential=%+v parallel=%+v", seqStats, parStats)
	}
}
