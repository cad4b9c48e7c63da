package ocsserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/arrowlite"
	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// offsetMeshObject is meshObject with every vertex_id and e shifted by
// offset, so each object's rows are its own.
func offsetMeshObject(t *testing.T, offset int) []byte {
	t.Helper()
	p := column.NewPage(meshSchema())
	for i := 0; i < 200; i++ {
		p.AppendRow(
			types.IntValue(int64(offset+i%10)),
			types.FloatValue(float64(i)/100),
			types.FloatValue(float64(offset+i)),
		)
	}
	data, err := parquetlite.WritePages(meshSchema(), parquetlite.WriterOptions{Codec: compress.Snappy, RowGroupSize: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// groupedPlan is filterPlan over several objects.
func groupedPlan(t *testing.T, objects []string) *substrait.Plan {
	t.Helper()
	p := filterPlan(t, "b", "o")
	substrait.WalkRels(p.Root, func(r substrait.Rel) {
		if rd, ok := r.(*substrait.ReadRel); ok {
			rd.Objects = objects
		}
	})
	return p
}

// objectsOnNodes names objects of bucket "b" whose placement on a
// nodes-node frontend follows want, in order.
func objectsOnNodes(t *testing.T, f *Frontend, want []int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < len(want); i++ {
		name := fmt.Sprintf("o%d", i)
		if f.nodeFor("b", name) == want[len(out)] {
			out = append(out, name)
		}
		if i > 10000 {
			t.Fatalf("no placement found for %v", want)
		}
	}
	return out
}

// readObjects executes a grouped plan and returns, per object, the Arrow
// bytes of its batches and its work stats.
func readObjects(t *testing.T, cli *Client, plan *substrait.Plan, objects int) ([][]byte, []objstore.WorkStats) {
	t.Helper()
	rs, err := cli.ExecuteStream(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	out := make([][]byte, objects)
	stats := make([]objstore.WorkStats, objects)
	for k := 0; k < objects; k++ {
		for {
			page, err := rs.Next()
			if err == io.EOF {
				stats[k] = rs.Stats()
				break
			}
			if err != nil {
				t.Fatalf("object %d: %v", k, err)
			}
			if out[k], err = arrowlite.AppendBatch(out[k], page); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := rs.Next(); err != io.EOF {
		t.Fatalf("after the last object: %v, want io.EOF", err)
	}
	return out, stats
}

// drained is a whole in-storage execution result.
type drained struct {
	Schema *types.Schema
	Pages  []*column.Page
	// Stats sums the work of every object.
	Stats      objstore.WorkStats
	ArrowBytes int64
}

// drain runs a plan through ExecuteStream and reads the stream to its end.
func drain(ctx context.Context, cli *Client, plan *substrait.Plan) (*drained, error) {
	rs, err := cli.ExecuteStream(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	res := &drained{Schema: rs.Schema()}
	for !rs.done {
		page, err := rs.Next()
		if err == io.EOF {
			res.Stats.Add(rs.Stats())
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Pages = append(res.Pages, page)
	}
	res.ArrowBytes = rs.ArrowBytes()
	return res, nil
}

// recordPayloads wraps a node's execute handler so the test sees every
// request payload the node is sent.
func recordPayloads(n *StorageNode) func() [][]byte {
	var mu sync.Mutex
	var got [][]byte
	n.rpc.RegisterStream(NodeMethodExecute, func(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
		mu.Lock()
		got = append(got, bytes.Clone(payload))
		mu.Unlock()
		return n.handleExecute(ctx, payload, send)
	})
	return func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return got
	}
}

// TestGroupedRequestAcrossNodes sends one request over objects held by all
// three nodes of a cluster, in runs 0,0,1,2,2,0,1: the frontend forwards
// each in-order run to its node, so every object's batches and work
// stats come back in list order, byte-identical to a one-node cluster's.
// A request whose objects all sit on one node reaches that node as the
// very payload the client sent.
func TestGroupedRequestAcrossNodes(t *testing.T) {
	three, err := StartCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer three.Shutdown()
	one, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Shutdown()
	placement := []int{0, 0, 1, 2, 2, 0, 1}
	objects := objectsOnNodes(t, three.Front, placement)
	cli3, cli1 := NewClient(three.Addr), NewClient(one.Addr)
	defer cli3.Close()
	defer cli1.Close()
	for i, o := range objects {
		img := offsetMeshObject(t, 1000*i)
		if err := cli3.Put(context.Background(), "b", o, img); err != nil {
			t.Fatal(err)
		}
		if err := cli1.Put(context.Background(), "b", o, img); err != nil {
			t.Fatal(err)
		}
	}
	for n, node := range three.Nodes {
		for i, o := range objects {
			if _, err := node.Store().Get("b", o); (err == nil) != (placement[i] == n) {
				t.Fatalf("object %s on node %d: %v, placement says node %d", o, n, err, placement[i])
			}
		}
	}
	payloads := recordPayloads(three.Nodes[1])

	plan := groupedPlan(t, objects)
	got, gotStats := readObjects(t, cli3, plan, len(objects))
	want, wantStats := readObjects(t, cli1, plan, len(objects))
	for k := range objects {
		if len(want[k]) == 0 {
			t.Fatalf("object %d returned no rows", k)
		}
		if !bytes.Equal(got[k], want[k]) {
			t.Errorf("object %d: 3-node batches differ from the 1-node cluster's", k)
		}
		if gotStats[k] != wantStats[k] {
			t.Errorf("object %d: 3-node stats %+v, 1-node %+v", k, gotStats[k], wantStats[k])
		}
	}
	// Node 1 holds two runs of one object each: it got two one-object
	// plans, in list order.
	if len(payloads()) != 2 {
		t.Fatalf("node 1 was sent %d plans, want one per run it holds (2)", len(payloads()))
	}
	for i, p := range payloads() {
		sub, err := substrait.Unmarshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{objects[2], objects[6]}[i]; readRel(sub).Objects[0] != want || len(readRel(sub).Objects) != 1 {
			t.Errorf("node 1 run %d lists %v, want [%s]", i, readRel(sub).Objects, want)
		}
	}

	// All on node 2: forwarded byte for byte.
	payloads = recordPayloads(three.Nodes[2])
	sameNode := []string{objects[3], objects[4]}
	sent, err := substrait.Marshal(groupedPlan(t, sameNode))
	if err != nil {
		t.Fatal(err)
	}
	readObjects(t, cli3, groupedPlan(t, sameNode), len(sameNode))
	if p := payloads(); len(p) != 1 || !bytes.Equal(p[0], sent) {
		t.Errorf("one-node request reached the node as %d payloads, want the client's bytes once", len(p))
	}
}

// TestGroupedRequestFaultRelaysEachRunOnce: the frontend calls each run's
// node once. A run that fails — before any chunk of its own or after its
// first batch — fails the request after the chunks already relayed: the
// client, which holds run 1's first chunk, does not retry, and sees run
// 1's object whole and then the node's failure.
func TestGroupedRequestFaultRelaysEachRunOnce(t *testing.T) {
	c, err := StartCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	objects := objectsOnNodes(t, c.Front, []int{0, 1})
	cli := NewClient(c.Addr)
	defer cli.Close()
	for i, o := range objects {
		if err := cli.Put(context.Background(), "b", o, offsetMeshObject(t, 1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := readObjects(t, cli, groupedPlan(t, objects), len(objects))

	for _, tc := range []struct {
		name      string
		failAfter int // chunks the node's first call sends before failing
	}{
		{"before-any-chunk", 0},
		{"after-first-batch", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := c.Nodes[1]
			var calls atomic.Int64
			node.rpc.RegisterStream(NodeMethodExecute, func(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
				if calls.Add(1) > 1 {
					return node.handleExecute(ctx, payload, send)
				}
				sent := 0
				return node.handleExecute(ctx, payload, func(chunk []byte) error {
					if sent == tc.failAfter {
						return rpc.WithCode(errors.New("injected node failure"), rpc.CodeUnavailable)
					}
					sent++
					return send(chunk)
				})
			})
			defer node.rpc.RegisterStream(NodeMethodExecute, node.handleExecute)
			rs, err := cli.ExecuteStream(context.Background(), groupedPlan(t, objects))
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			var got [2][]byte
			for k := range got {
				for {
					page, err := rs.Next()
					if err == io.EOF && k == 0 {
						break
					}
					if err != nil {
						if k == 0 || !errors.Is(err, rpc.ErrUnavailable) {
							t.Fatalf("object %d: %v, want object 0 whole and then the node's failure", k, err)
						}
						break
					}
					if got[k], err = arrowlite.AppendBatch(got[k], page); err != nil {
						t.Fatal(err)
					}
				}
			}
			if calls.Load() != 1 {
				t.Errorf("node calls = %d, want 1", calls.Load())
			}
			if !bytes.Equal(got[0], want[0]) {
				t.Error("run 1's object differs from the unfaulted one")
			}
			if (len(got[1]) > 0) != (tc.failAfter > 0) || !bytes.HasPrefix(want[1], got[1]) {
				t.Errorf("run 2 relayed %d bytes before failing, want its first %d batches of the unfaulted answer", len(got[1]), tc.failAfter)
			}
		})
	}
}

// scriptedFrontend answers every ocs.Execute with the given chunks and an
// empty trailer, whatever the plan.
func scriptedFrontend(t *testing.T, chunks [][]byte) *Client {
	t.Helper()
	srv := rpc.NewServer()
	srv.RegisterStream(MethodExecute, func(_ context.Context, _ []byte, send func([]byte) error) ([]byte, error) {
		for _, c := range chunks {
			if err := send(c); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(addr)
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli
}

// TestResultStreamRejectsBadObjectEnds: the client holds a grouped
// stream's object ends to the request's object list — an object-end chunk
// that does not decode, a chunk once the listed objects are used up, and
// an end frame that arrives before them are each an error, never a
// silently shifted or truncated result.
func TestResultStreamRejectsBadObjectEnds(t *testing.T) {
	end := appendObjectEnd(nil, objstore.WorkStats{RowsProcessed: 7})
	batch := batchMsg(t, 3)
	for _, tc := range []struct {
		name    string
		objects []string
		chunks  [][]byte
		want    string
	}{
		{"well-formed", []string{"a", "b"}, [][]byte{batch, end, end}, ""},
		{"malformed end chunk", []string{"a", "b"}, [][]byte{append(bytes.Clone(objectEndMarker[:]), 0x08, 0xff), end}, "truncated"},
		{"end chunk past the objects", []string{"a"}, [][]byte{end, end}, "after the request's 1 objects"},
		{"three ends for two objects", []string{"a", "b"}, [][]byte{batch, end, end, end}, "after the request's 2 objects"},
		{"batch past the objects", []string{"a", "b"}, [][]byte{end, end, batch}, "after the request's 2 objects"},
		{"stream ends early", []string{"a", "b", "c"}, [][]byte{batch, end, end}, "ended after 2 of 3 objects"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli := scriptedFrontend(t, tc.chunks)
			res, err := drain(context.Background(), cli, groupedPlan(t, tc.objects))
			if tc.want == "" {
				if err != nil || res.Stats.RowsProcessed != 14 || len(res.Pages) != 1 {
					t.Fatalf("well-formed stream: %v, %+v", err, res)
				}
				if cli.IdleConns() != 1 {
					t.Errorf("%d idle connections after the last object's end, want the stream's one pooled", cli.IdleConns())
				}
				return
			}
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestResultStreamTryDrainReachesObjectEnds: a reader that stops early
// drains the rest of the current object to its end chunk — held first
// chunk included — and gets its stats; the next object still reads whole,
// and draining the last object reads the end frame too, so the
// connection is pooled again.
func TestResultStreamTryDrainReachesObjectEnds(t *testing.T) {
	cluster, cli := startCluster(t, 1)
	objects := []string{"o0", "o1"}
	for i, o := range objects {
		if err := cli.Put(context.Background(), "b", o, offsetMeshObject(t, 1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := groupedPlan(t, objects)
	want, wantStats := readObjects(t, cli, plan, len(objects))
	// The reference read filled the page cache; read cold again so the
	// drained stats charge the same decodes.
	cluster.Nodes[0].Caches.Flush()
	rs, err := cli.ExecuteStream(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if !rs.TryDrain(32, time.Second) || rs.Stats() != wantStats[0] {
		t.Fatalf("draining object 0 before any Next: stats %+v, want %+v", rs.Stats(), wantStats[0])
	}
	var got []byte
	for {
		page, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, err = arrowlite.AppendBatch(got, page); err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 {
			break // stop early in the last object
		}
	}
	if !bytes.HasPrefix(want[1], got) || len(got) == 0 {
		t.Fatal("object 1's first batch differs from a whole read's")
	}
	if !rs.TryDrain(32, time.Second) || rs.Stats() != wantStats[1] {
		t.Fatalf("draining object 1: stats %+v, want %+v", rs.Stats(), wantStats[1])
	}
	if _, err := rs.Next(); err != io.EOF {
		t.Fatalf("after the last object: %v, want io.EOF", err)
	}
	if cli.IdleConns() != 1 {
		t.Errorf("%d idle connections after draining the last object, want the stream's one pooled", cli.IdleConns())
	}
}

// collect makes one raw call and returns its chunks and trailer.
func collect(t *testing.T, addr, method string, plan *substrait.Plan) ([][]byte, []byte) {
	t.Helper()
	payload, err := substrait.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	cli := rpc.Dial(addr)
	defer cli.Close()
	st, err := cli.Stream(context.Background(), method, payload)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var chunks [][]byte
	for {
		chunk, err := st.Recv()
		if err == io.EOF {
			return chunks, st.Trailer()
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, bytes.Clone(chunk))
	}
}

// TestExecuteWireShape: an ocs.Execute answer is, per listed object, that
// object's batches and then one object-end chunk — no schema chunk, the
// last object's end included — and an empty trailer. Through a two-node
// frontend, a request whose objects sit on nodes 0, 1, 0 comes back as
// the three per-node runs' chunks, in order and unmodified.
func TestExecuteWireShape(t *testing.T) {
	c, err := StartCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	placement := []int{0, 1, 0}
	objects := objectsOnNodes(t, c.Front, placement)
	cli := NewClient(c.Addr)
	defer cli.Close()
	for i, o := range objects {
		if err := cli.Put(context.Background(), "b", o, offsetMeshObject(t, 1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		for _, n := range c.Nodes {
			n.Caches.Flush()
		}
	}
	for _, listed := range [][]string{objects[:1], objects} {
		plan := groupedPlan(t, listed)
		schema, err := plan.Validate()
		if err != nil {
			t.Fatal(err)
		}
		flush()
		chunks, trailer := collect(t, c.Addr, MethodExecute, plan)
		if len(trailer) != 0 {
			t.Errorf("%d objects: trailer of %d bytes, want none", len(listed), len(trailer))
		}
		ends := 0
		for i, chunk := range chunks {
			if isObjectEnd(chunk) {
				if _, err := decodeObjectEnd(chunk); err != nil {
					t.Fatalf("%d objects: chunk %d: %v", len(listed), i, err)
				}
				ends++
				continue
			}
			if _, err := arrowlite.DecodeBatchMsg(chunk, schema); err != nil {
				t.Fatalf("%d objects: chunk %d is neither a batch of the plan's schema nor an object end: %v", len(listed), i, err)
			}
		}
		if ends != len(listed) || len(chunks) == 0 || !isObjectEnd(chunks[len(chunks)-1]) {
			t.Fatalf("%d objects: %d object-end chunks of %d chunks, want one per object, the last chunk among them", len(listed), ends, len(chunks))
		}
		if len(listed) == 1 {
			continue
		}
		// Each object is its own run here; the node's answer to the run's
		// plan is what the frontend relayed for it.
		var runs [][]byte
		for i, o := range listed {
			flush()
			part, trailer := collect(t, c.NodeAddr[placement[i]], NodeMethodExecute, groupedPlan(t, []string{o}))
			if len(trailer) != 0 {
				t.Errorf("node run %d: trailer of %d bytes, want none", i, len(trailer))
			}
			runs = append(runs, part...)
		}
		if len(runs) != len(chunks) {
			t.Fatalf("frontend relayed %d chunks, the runs sent %d", len(chunks), len(runs))
		}
		for i := range runs {
			if !bytes.Equal(runs[i], chunks[i]) {
				t.Errorf("chunk %d differs from the node's", i)
			}
		}
	}
}

// TestReadRelObjectListIsInvalidWhenEmpty: a ReadRel that lists no object,
// or an empty object name, is refused as an invalid plan before any node
// is asked.
func TestReadRelObjectListIsInvalidWhenEmpty(t *testing.T) {
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cli := NewClient(c.Addr)
	defer cli.Close()
	if err := cli.Put(context.Background(), "b", "o", offsetMeshObject(t, 0)); err != nil {
		t.Fatal(err)
	}
	for _, objects := range [][]string{nil, {""}, {"o", ""}} {
		_, err := drain(context.Background(), cli, groupedPlan(t, objects))
		if !errors.Is(err, rpc.ErrInvalid) {
			t.Errorf("objects %q: error = %v, want an invalid plan", objects, err)
		}
	}
}

// FuzzDecodeObjectEnd: an object-end chunk comes off the wire, so its
// decoder may reject any input but must never panic, and never allocates
// more than the fixed cost of its result and an error (a length field it
// reads sizes nothing).
func FuzzDecodeObjectEnd(f *testing.F) {
	f.Add(appendObjectEnd(nil, objstore.WorkStats{BytesRead: 1 << 20, BytesDecompressed: 3 << 20, CPUUnits: 12.5, RowsProcessed: 4096}))
	f.Add(appendObjectEnd(nil, objstore.WorkStats{}))
	f.Add(append(bytes.Clone(objectEndMarker[:]), 0x2a, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add(append(bytes.Clone(objectEndMarker[:]), 0x12, 0x01, 0x00))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, chunk []byte) {
		st, err := decodeObjectEnd(chunk)
		if got := leastAlloc(func() { _, _ = decodeObjectEnd(chunk) }); got > objectEndAllocBound {
			t.Fatalf("a %d-byte chunk allocated %d bytes to decode, bound %d (err %v)", len(chunk), got, objectEndAllocBound, err)
		}
		if err != nil {
			return
		}
		// What decodes re-encodes to a chunk that decodes the same.
		again, err := decodeObjectEnd(appendObjectEnd(nil, st))
		if err != nil || !sameStats(again, st) {
			t.Fatalf("re-encoded stats %+v decode as %+v, %v", st, again, err)
		}
	})
}

// objectEndAllocBound is the most heap an object-end chunk's decode may
// take, whatever its length: the decoder's state and one error.
const objectEndAllocBound = 512

// leastAlloc is the fewest heap bytes f allocated over three runs (the
// fewest, so another goroutine's allocation does not count).
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// sameStats compares work stats, NaN CPU units included.
func sameStats(a, b objstore.WorkStats) bool {
	return a.BytesRead == b.BytesRead && a.BytesDecompressed == b.BytesDecompressed &&
		a.RowsProcessed == b.RowsProcessed && (a.CPUUnits == b.CPUUnits || a.CPUUnits != a.CPUUnits && b.CPUUnits != b.CPUUnits)
}
