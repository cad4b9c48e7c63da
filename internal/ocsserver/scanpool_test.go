package ocsserver

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/exec"
	"prestocs/internal/objstore"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
)

// openWhole opens a plain scan of one object over a local store.
func openWhole(t *testing.T, store *objstore.Store, object string, o openOpts) *LocalStream {
	t.Helper()
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{object}, BaseSchema: meshSchema()}
	o.object = object
	ls, err := open(store, substrait.NewPlan(read), o)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestScanPoolQueuesScansInArrivalOrder pins the pool's bound on waiting:
// with the pool's one slot held, a 16-group scan queues its lookahead, a
// two-group scan queues behind it, and once the slot frees the second
// scan's groups run after at most 2 x pool of the first scan's — the
// rest of the first scan is submitted later, and queues behind them.
func TestScanPoolQueuesScansInArrivalOrder(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "heavy", bigMeshObject(t, 1024))
	store.Put("b", "small", bigMeshObject(t, 128))
	tracer := telemetry.NewTracer(0)
	pool := make(chan struct{}, 1)
	pool <- struct{}{}

	traces := map[string]telemetry.TraceID{}
	var wg sync.WaitGroup
	for _, object := range []string{"heavy", "small"} {
		ctx, root := telemetry.StartSpan(telemetry.WithTracer(context.Background(), tracer), "test."+object)
		traces[object] = root.Trace
		ls := openWhole(t, store, object, openOpts{pool: pool, ctx: ctx})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := exec.Drain(ls); err != nil {
				t.Error(err)
			}
		}()
		// Let this scan's tasks wait on the pool before the next arrives.
		time.Sleep(20 * time.Millisecond)
	}
	<-pool
	wg.Wait()

	var reads []telemetry.SpanView
	for _, sp := range tracer.Spans() {
		if sp.Name == "scan.rowgroup" {
			reads = append(reads, sp)
		}
	}
	if len(reads) != 18 {
		t.Fatalf("%d row groups read, want 18", len(reads))
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].Start.Before(reads[j].Start) })
	heavyFirst, smallLeft := 0, 2
	for _, sp := range reads {
		if smallLeft == 0 {
			break
		}
		if sp.Trace == traces["small"] {
			smallLeft--
		} else {
			heavyFirst++
		}
	}
	if bound := 2 * cap(pool); heavyFirst > bound {
		t.Errorf("%d of the heavy scan's row groups ran before the small scan's last, want at most %d", heavyFirst, bound)
	}
}

// TestOneGroupReadTakesPoolSlot: an object of one row group is read
// through the pool like any other, so with the pool's one slot held its
// scan waits, and it finishes once the slot is released.
func TestOneGroupReadTakesPoolSlot(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "one", bigMeshObject(t, 64))
	pool := make(chan struct{}, 1)
	pool <- struct{}{}
	ls := openWhole(t, store, "one", openOpts{pool: pool})
	if n := ls.env.obj.Len(); n != 1 {
		t.Fatalf("object has %d row groups, want 1", n)
	}
	type drained struct {
		rows int
		err  error
	}
	done := make(chan drained, 1)
	go func() {
		pages, err := exec.Drain(ls)
		rows := 0
		for _, p := range pages {
			rows += p.NumRows()
		}
		done <- drained{rows, err}
	}()
	select {
	case <-done:
		t.Fatal("a one-group read finished while the pool's only slot was held")
	case <-time.After(50 * time.Millisecond):
	}
	<-pool
	select {
	case d := <-done:
		if d.err != nil || d.rows != 64 {
			t.Fatalf("read %d rows, err %v; want 64 rows", d.rows, d.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-group read still waiting 5s after the slot was released")
	}
}

// gatedCtx blocks every Value call once armed, until gate closes: a read
// looks up its tracer through it, so an armed context parks an in-flight
// read while it holds its pool slot.
type gatedCtx struct {
	context.Context
	armed   atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (c *gatedCtx) Value(key any) any {
	if c.armed.Load() {
		c.entered <- struct{}{}
		<-c.gate
	}
	return c.Context.Value(key)
}

// TestSchedulerQueueCloseDropsPendingWaitsInflight checks the two close
// guarantees the scanner relies on: a closed scan's pending row groups
// are never read, and close returns only after its in-flight reads
// finish (their I/O must be counted before env.finish).
func TestSchedulerQueueCloseDropsPendingWaitsInflight(t *testing.T) {
	store := objstore.NewStore()
	store.Put("b", "o", bigMeshObject(t, 1024))
	reg := telemetry.NewRegistry()
	ctx := &gatedCtx{
		Context: telemetry.WithRegistry(context.Background(), reg),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	pool := make(chan struct{}, 1)
	pool <- struct{}{}
	ls := openWhole(t, store, "o", openOpts{pool: pool, ctx: ctx})

	// Both lookahead tasks wait on the held slot; free it with the context
	// armed, and the first to take it parks mid-read.
	ctx.armed.Store(true)
	<-pool
	<-ctx.entered
	ctx.armed.Store(false)

	closed := make(chan struct{})
	go func() {
		ls.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while a read was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(ctx.gate)
	<-closed
	if got := reg.CounterValue(telemetry.MetricScanPoolRowGroups); got != 1 {
		t.Errorf("%d row groups read, want 1 (a pending group must not be read after close)", got)
	}
	if got := ls.Work().BytesRead; got == 0 {
		t.Error("the in-flight read's I/O was not counted")
	}
	if len(pool) != 0 {
		t.Errorf("%d pool slots still held after close", len(pool))
	}
	for _, g := range []string{telemetry.MetricScanPoolQueued, telemetry.MetricScanPoolActive} {
		if got := reg.GaugeValue(g); got != 0 {
			t.Errorf("gauge %s = %d after close, want 0", g, got)
		}
	}
}

// TestSchedulerCloseAbortsPending checks node shutdown: closing a node
// while a scan still has unstarted row groups unblocks the consumer with
// an error, and leaves no row group queued or reading.
func TestSchedulerCloseAbortsPending(t *testing.T) {
	reg := telemetry.NewRegistry()
	cluster, err := StartClusterWith(1, ClusterConfig{Metrics: reg, ScanPool: 1, StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(cluster.Addr)
	t.Cleanup(func() {
		cli.Close()
		cluster.Shutdown()
	})
	if err := cli.Put(context.Background(), "b", "o", bigMeshObject(t, 4096)); err != nil {
		t.Fatal(err)
	}
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: meshSchema()}
	rs, err := cli.ExecuteStream(context.Background(), substrait.NewPlan(read))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Next(); err != nil {
		t.Fatal(err)
	}

	// The stalled stream leaves most of the object's 64 row groups
	// unstarted when the node goes down.
	nodeClosed := make(chan struct{})
	go func() {
		cluster.Nodes[0].Close()
		close(nodeClosed)
	}()
	select {
	case <-nodeClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("node close still blocked after 5s")
	}
	consumed := make(chan error, 1)
	go func() {
		for {
			if _, err := rs.Next(); err != nil {
				consumed <- err
				return
			}
		}
	}()
	select {
	case err := <-consumed:
		if err == io.EOF {
			t.Fatalf("consumer ended with a clean EOF after the node closed mid-scan")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still blocked 5s after the node closed")
	}
	waitGaugeZero(t, reg, telemetry.MetricScanPoolQueued)
	waitGaugeZero(t, reg, telemetry.MetricScanPoolActive)
}
