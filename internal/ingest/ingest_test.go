package ingest

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// fakeStore is an in-memory CompactorStore with injectable Put failures
// (the killed-ingest scenario: the object never reaches storage, so the
// commit must not happen either), Delete failures (the next failDeletes
// calls fail and delete nothing) and a hook every Get runs first.
type fakeStore struct {
	mu          sync.Mutex
	objects     map[string][]byte
	failPut     error
	failDeletes int
	deletes     int
	onGet       func()
}

func newFakeStore() *fakeStore { return &fakeStore{objects: make(map[string][]byte)} }

func (s *fakeStore) Put(_ context.Context, bucket, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failPut != nil {
		return s.failPut
	}
	s.objects[bucket+"/"+key] = append([]byte(nil), data...)
	return nil
}

func (s *fakeStore) Get(_ context.Context, bucket, key string) ([]byte, objstore.WorkStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.onGet != nil {
		s.onGet()
	}
	data, ok := s.objects[bucket+"/"+key]
	if !ok {
		return nil, objstore.WorkStats{}, fmt.Errorf("fakeStore: no object %s/%s", bucket, key)
	}
	return data, objstore.WorkStats{}, nil
}

func (s *fakeStore) Delete(_ context.Context, bucket, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failDeletes > 0 {
		s.failDeletes--
		return fmt.Errorf("fakeStore: delete %s/%s: connection killed", bucket, key)
	}
	delete(s.objects, bucket+"/"+key)
	s.deletes++
	return nil
}

func (s *fakeStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

func eventSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "name", Type: types.String},
	)
}

func eventSpec() TableSpec {
	return TableSpec{Schema: "default", Name: "events", Bucket: "events", Columns: eventSchema()}
}

func newTestIngester(t *testing.T, flushRows int) (*Ingester, *metastore.Metastore, *fakeStore) {
	t.Helper()
	ms := metastore.New()
	store := newFakeStore()
	ing := NewIngester(ms, store, Options{FlushRows: flushRows})
	if err := ing.CreateTable(eventSpec()); err != nil {
		t.Fatal(err)
	}
	return ing, ms, store
}

// tableVersion reads the events table's registration version through a
// snapshot pin, released at once.
func tableVersion(t *testing.T, ms *metastore.Metastore) uint64 {
	t.Helper()
	_, pin, err := ms.GetPinned("default", "events")
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	return pin.Version()
}

func intRow(id int64, name string) []types.Value {
	return []types.Value{types.IntValue(id), types.StringValue(name)}
}

func TestIngestBuilderStats(t *testing.T) {
	b := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	rows := [][]types.Value{
		intRow(5, "a"),
		intRow(1, "b"),
		intRow(9, "a"),
		{types.IntValue(3), types.NullValue(types.String)},
	}
	for _, r := range rows {
		if err := b.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Rows != 4 || int64(len(sealed.Image)) != sealed.Bytes {
		t.Errorf("sealed rows=%d bytes=%d image=%d", sealed.Rows, sealed.Bytes, len(sealed.Image))
	}
	id := sealed.Stats["id"]
	if id.Min.I != 1 || id.Max.I != 9 || id.NumValues != 4 || id.NullCount != 0 || id.NDV != 4 {
		t.Errorf("id stats = %+v", id)
	}
	name := sealed.Stats["name"]
	if name.Min.S != "a" || name.Max.S != "b" || name.NullCount != 1 || name.NDV != 2 {
		t.Errorf("name stats = %+v", name)
	}
	// The image round-trips through the reader it'll be scanned with.
	r, err := parquetlite.NewReader(sealed.Image)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 4 {
		t.Errorf("reader rows = %d", r.NumRows())
	}
}

func TestIngestBuilderArity(t *testing.T) {
	b := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	if err := b.AppendRow(types.IntValue(1)); err == nil {
		t.Error("short row accepted")
	}
}

// TestAppendRejectsWrongKindValue: a VARCHAR value in a BIGINT column is
// an error naming the column and both kinds, not a panic, and the rows
// before it are accepted: one object flushed at FlushRows, one row
// buffered. A DATE value in the BIGINT column and a BIGINT NULL in the
// VARCHAR one fit, as Vector.Append takes them.
func TestAppendRejectsWrongKindValue(t *testing.T) {
	ing, ms, _ := newTestIngester(t, 2)
	ctx := context.Background()
	rows := [][]types.Value{
		intRow(1, "a"),
		{types.DateValue(2), types.NullValue(types.Int64)},
		intRow(3, "c"),
		{types.StringValue("4"), types.StringValue("d")},
		intRow(5, "e"),
	}
	n, err := ing.Append(ctx, "default", "events", rows)
	if err == nil || n != 3 {
		t.Fatalf("Append = %d, %v; want 3 rows and an error", n, err)
	}
	for _, want := range []string{"id", "BIGINT", "VARCHAR"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if got := ing.BufferedRows("default", "events"); got != 1 {
		t.Errorf("buffered = %d, want 1", got)
	}
	if err := ing.Flush(ctx, "default", "events"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := ms.Get("default", "events")
	id, name := tbl.ColumnStats["id"], tbl.ColumnStats["name"]
	if len(tbl.Objects) != 2 || tbl.RowCount != 3 || id.Max.I != 3 || name.NullCount != 1 {
		t.Errorf("table = %d objects, %d rows, id %+v, name %+v", len(tbl.Objects), tbl.RowCount, id, name)
	}
}

func TestIngestFlushThreshold(t *testing.T) {
	ing, ms, store := newTestIngester(t, 4)
	ctx := context.Background()
	var rows [][]types.Value
	for i := 0; i < 10; i++ {
		rows = append(rows, intRow(int64(i), fmt.Sprintf("n%d", i)))
	}
	n, err := ing.Append(ctx, "default", "events", rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("accepted %d rows", n)
	}
	// 10 rows at FlushRows=4 → two sealed objects, two rows buffered.
	tbl, _ := ms.Get("default", "events")
	if len(tbl.Objects) != 2 || tbl.RowCount != 8 {
		t.Errorf("after append: %d objects, %d rows", len(tbl.Objects), tbl.RowCount)
	}
	if got := ing.BufferedRows("default", "events"); got != 2 {
		t.Errorf("buffered = %d", got)
	}
	if err := ing.Flush(ctx, "default", "events"); err != nil {
		t.Fatal(err)
	}
	tbl, _ = ms.Get("default", "events")
	if len(tbl.Objects) != 3 || tbl.RowCount != 10 {
		t.Errorf("after flush: %d objects, %d rows", len(tbl.Objects), tbl.RowCount)
	}
	if store.count() != 3 {
		t.Errorf("store has %d objects", store.count())
	}
	// Every committed object carries a zone map covering its rows.
	for _, o := range tbl.Objects {
		st, ok := tbl.ObjectStats[o]
		if !ok || st["id"].NumValues == 0 {
			t.Errorf("object %s missing stats", o)
		}
	}
	// Table-level accounting matches the union.
	if got := tbl.ColumnStats["id"]; got.Min.I != 0 || got.Max.I != 9 || got.NumValues != 10 {
		t.Errorf("table id stats = %+v", got)
	}
}

func TestIngestKilledBeforeCommitLeavesTableUnchanged(t *testing.T) {
	ing, ms, store := newTestIngester(t, 100)
	ctx := context.Background()
	store.failPut = fmt.Errorf("connection killed")

	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{intRow(1, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, "default", "events"); err == nil {
		t.Fatal("flush over a dead store succeeded")
	}
	// Put-then-commit: the failed store write means no catalog entry; the
	// table is byte-for-byte the empty table it was.
	tbl, _ := ms.Get("default", "events")
	if len(tbl.Objects) != 0 || tbl.RowCount != 0 {
		t.Errorf("table changed by killed ingest: %d objects, %d rows", len(tbl.Objects), tbl.RowCount)
	}
	if v := tableVersion(t, ms); v != 1 {
		t.Errorf("version = %d", v)
	}

	// The store recovers; fresh appends work, the dropped batch is gone.
	store.failPut = nil
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{intRow(2, "y")}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, "default", "events"); err != nil {
		t.Fatal(err)
	}
	tbl, _ = ms.Get("default", "events")
	if tbl.RowCount != 1 || tbl.ColumnStats["id"].Min.I != 2 {
		t.Errorf("recovered table = %d rows, min id %v", tbl.RowCount, tbl.ColumnStats["id"].Min)
	}
}

func TestCompactMergeSharpensZoneMaps(t *testing.T) {
	ing, ms, store := newTestIngester(t, 4)
	ctx := context.Background()
	// Two objects with interleaved id ranges: each covers nearly the full
	// domain, so per-object pruning is useless before compaction.
	var rows [][]types.Value
	for i := 0; i < 8; i++ {
		id := int64(i%2)*100 + int64(i) // 0,101,2,103,4,105,6,107
		rows = append(rows, intRow(id, "x"))
	}
	if _, err := ing.Append(ctx, "default", "events", rows); err != nil {
		t.Fatal(err)
	}
	before, _ := ms.Get("default", "events")
	if len(before.Objects) != 2 {
		t.Fatalf("setup: %d objects", len(before.Objects))
	}

	comp := NewCompactor(ms, store, CompactorOptions{ClusterBy: "id"})
	res, err := comp.RunOnce(ctx, "default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged) != 2 || res.Output == "" {
		t.Fatalf("result = %+v", res)
	}
	after, _ := ms.Get("default", "events")
	if len(after.Objects) != 1 || after.RowCount != 8 {
		t.Errorf("after compaction: %d objects, %d rows", len(after.Objects), after.RowCount)
	}
	// The merged object is sorted by id: reading it back yields ascending
	// values, and its zone map covers the exact data range.
	img, _, err := store.Get(ctx, "events", res.Output)
	if err != nil {
		t.Fatal(err)
	}
	r, err := parquetlite.NewReader(img)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := r.ReadAll([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, p := range pages {
		for i := 0; i < p.NumRows(); i++ {
			v := p.Vectors[0].Value(i)
			if v.I < prev {
				t.Fatalf("merged object not sorted: %d after %d", v.I, prev)
			}
			prev = v.I
		}
	}
	st := after.ObjectStats[res.Output]["id"]
	if st.Min.I != 0 || st.Max.I != 107 || st.NumValues != 8 {
		t.Errorf("merged zone map = %+v", st)
	}
	// No pins outstanding → the replaced objects were physically deleted.
	if res.Reclaimed != 2 || store.count() != 1 {
		t.Errorf("reclaimed=%d, store has %d objects", res.Reclaimed, store.count())
	}
	// A second run finds a single (non-small? still small, but alone)
	// object: nothing to merge.
	res2, err := comp.RunOnce(ctx, "default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Merged) != 0 {
		t.Errorf("second run merged %v", res2.Merged)
	}
}

func TestCompactSnapshotDefersPhysicalDelete(t *testing.T) {
	ing, ms, store := newTestIngester(t, 2)
	ctx := context.Background()
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
		intRow(1, "a"), intRow(2, "b"), intRow(3, "c"), intRow(4, "d"),
	}); err != nil {
		t.Fatal(err)
	}

	// A long-running scan pins the pre-compaction snapshot.
	snap, pin, err := ms.GetPinned("default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Objects) != 2 {
		t.Fatalf("snapshot has %d objects", len(snap.Objects))
	}

	comp := NewCompactor(ms, store, CompactorOptions{})
	res, err := comp.RunOnce(ctx, "default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged) != 2 {
		t.Fatalf("merge did not happen: %+v", res)
	}
	// The swap committed, but the pinned snapshot's objects must still be
	// readable from storage: nothing reclaimed, all three objects present.
	if res.Reclaimed != 0 {
		t.Errorf("reclaimed %d objects under an active pin", res.Reclaimed)
	}
	if store.count() != 3 {
		t.Errorf("store has %d objects, want 3 (2 pinned + 1 merged)", store.count())
	}
	for _, o := range snap.Objects {
		if _, _, err := store.Get(ctx, "events", o); err != nil {
			t.Errorf("pinned object %s gone from storage: %v", o, err)
		}
	}

	// Scan finishes → pin released → next run garbage-collects.
	pin.Release()
	res2, err := comp.RunOnce(ctx, "default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reclaimed != 2 || store.count() != 1 {
		t.Errorf("after release: reclaimed=%d, store=%d", res2.Reclaimed, store.count())
	}
}

// A tombstone whose physical delete fails must not be lost: the next runs
// retry it until the object is gone, and a pinned snapshot still defers
// the reap however many deletes failed before.
func TestCompactFailedDeleteIsRetried(t *testing.T) {
	ing, ms, store := newTestIngester(t, 2)
	ctx := context.Background()
	objectsBefore := store.count()
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
		intRow(1, "a"), intRow(2, "b"), intRow(3, "c"), intRow(4, "d"),
	}); err != nil {
		t.Fatal(err)
	}
	_, pin, err := ms.GetPinned("default", "events")
	if err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(ms, store, CompactorOptions{})
	run := func() CompactionResult {
		t.Helper()
		res, err := comp.RunOnce(ctx, "default", "events")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	store.failDeletes = 2
	if res := run(); len(res.Merged) != 2 || res.Reclaimed != 0 || store.failDeletes != 2 {
		t.Fatalf("under a pin: %+v, %d failing deletes left (none may be tried)", res, store.failDeletes)
	}
	pin.Release()
	// Both deletes fail: nothing reclaimed, both tombstones kept.
	if res := run(); res.Reclaimed != 0 || ms.TombstoneCount("default", "events") != 2 {
		t.Fatalf("failing deletes: reclaimed %d, %d tombstones", res.Reclaimed, ms.TombstoneCount("default", "events"))
	}
	// The store recovers: the retry reclaims both.
	if res := run(); res.Reclaimed != 2 {
		t.Fatalf("retry reclaimed %d, want 2", res.Reclaimed)
	}
	if n := ms.TombstoneCount("default", "events"); n != 0 {
		t.Errorf("%d tombstones left", n)
	}
	// Only the merged object is left: the two sources are not leaked.
	if got := store.count(); got != objectsBefore+1 {
		t.Errorf("store has %d objects, want %d", got, objectsBefore+1)
	}
}

func TestCompactSkipsLargeObjects(t *testing.T) {
	ing, ms, store := newTestIngester(t, 4)
	ctx := context.Background()
	var rows [][]types.Value
	for i := 0; i < 8; i++ {
		rows = append(rows, intRow(int64(i), "x"))
	}
	if _, err := ing.Append(ctx, "default", "events", rows); err != nil {
		t.Fatal(err)
	}
	// Threshold below any object size → no candidates, no merge.
	comp := NewCompactor(ms, store, CompactorOptions{SmallBytes: 1})
	res, err := comp.RunOnce(ctx, "default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged) != 0 || res.Output != "" {
		t.Errorf("merged large objects: %+v", res)
	}
}

// A compaction whose commit is refused — a candidate was removed between
// the compactor's read and its commit — deletes the object it stored, so
// nothing is left that no catalog entry or tombstone names.
func TestCompactRefusedCommitDeletesOutput(t *testing.T) {
	ing, ms, store := newTestIngester(t, 2)
	ctx := context.Background()
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
		intRow(1, "a"), intRow(2, "b"), intRow(3, "c"), intRow(4, "d"),
	}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := ms.Get("default", "events")
	before := store.count()
	var once sync.Once
	store.onGet = func() {
		once.Do(func() {
			if _, err := ms.CommitObjects("default", "events", nil, tbl.Objects[:1]); err != nil {
				t.Error(err)
			}
		})
	}
	if _, err := NewCompactor(ms, store, CompactorOptions{}).RunOnce(ctx, "default", "events"); err == nil {
		t.Fatal("compaction over a removed candidate committed")
	}
	if got := store.count(); got != before {
		t.Errorf("store has %d objects after the refused commit, want %d", got, before)
	}
}

// A ClusterBy that names no column fails the run before anything is
// read or written, instead of leaving the output unclustered.
func TestCompactUnknownClusterColumnFails(t *testing.T) {
	ing, ms, store := newTestIngester(t, 2)
	ctx := context.Background()
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
		intRow(1, "a"), intRow(2, "b"), intRow(3, "c"), intRow(4, "d"),
	}); err != nil {
		t.Fatal(err)
	}
	before, version := store.count(), tableVersion(t, ms)
	_, err := NewCompactor(ms, store, CompactorOptions{ClusterBy: "nope"}).RunOnce(ctx, "default", "events")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("RunOnce = %v, want an error naming the column", err)
	}
	if store.count() != before || tableVersion(t, ms) != version {
		t.Errorf("failed run changed the store (%d objects, want %d) or the catalog", store.count(), before)
	}
}

// A source object whose stored schema drifted from the table's — a
// column fewer, a column of another kind, a renamed column — fails the
// compaction with an error naming it, before anything is written,
// committed or deleted.
func TestCompactDriftedSourceFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *types.Schema
		row    []types.Value
	}{
		{"column fewer", types.NewSchema(types.Column{Name: "id", Type: types.Int64}),
			[]types.Value{types.IntValue(9)}},
		{"kind changed", types.NewSchema(types.Column{Name: "id", Type: types.Int64}, types.Column{Name: "name", Type: types.Float64}),
			[]types.Value{types.IntValue(9), types.FloatValue(0.5)}},
		{"renamed", types.NewSchema(types.Column{Name: "id", Type: types.Int64}, types.Column{Name: "label", Type: types.String}),
			[]types.Value{types.IntValue(9), types.StringValue("z")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing, ms, store := newTestIngester(t, 2)
			ctx := context.Background()
			if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
				intRow(1, "a"), intRow(2, "b"), intRow(3, "c"), intRow(4, "d"),
			}); err != nil {
				t.Fatal(err)
			}
			tbl, _ := ms.Get("default", "events")
			drifted := tbl.Objects[1]
			page := column.NewPage(tc.schema)
			page.AppendRow(tc.row...)
			img, err := parquetlite.WritePages(tc.schema, parquetlite.WriterOptions{}, page)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(ctx, tbl.Bucket, drifted, img); err != nil {
				t.Fatal(err)
			}
			store.mu.Lock()
			before := maps.Clone(store.objects)
			store.mu.Unlock()
			version := tableVersion(t, ms)

			_, err = NewCompactor(ms, store, CompactorOptions{}).RunOnce(ctx, "default", "events")
			if err == nil || !strings.Contains(err.Error(), drifted) {
				t.Fatalf("RunOnce = %v, want an error naming %s", err, drifted)
			}
			store.mu.Lock()
			after := maps.Clone(store.objects)
			store.mu.Unlock()
			if !reflect.DeepEqual(after, before) || tableVersion(t, ms) != version {
				t.Errorf("failed run changed the store (%d objects, want %d) or the catalog", len(after), len(before))
			}
		})
	}
}

func TestIngestAssembleTableRejectsMismatch(t *testing.T) {
	if _, err := AssembleTable(eventSpec(), []string{"a"}, nil); err == nil {
		t.Error("key/object mismatch accepted")
	}
}

func TestIngestCreateTableNeedsBucket(t *testing.T) {
	ing := NewIngester(metastore.New(), newFakeStore(), Options{})
	spec := eventSpec()
	spec.Bucket = ""
	if err := ing.CreateTable(spec); err == nil {
		t.Error("bucketless table accepted")
	}
}

func TestIngestFlushAllAndBackgroundCompactorLoop(t *testing.T) {
	ing, ms, store := newTestIngester(t, 100)
	ctx := context.Background()
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{
		intRow(1, "a"), intRow(2, "b"), intRow(3, "c"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := ing.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ing.FlushAll(ctx); err != nil { // empty buffers are a no-op
		t.Fatal(err)
	}
	tbl, _ := ms.Get("default", "events")
	if tbl.RowCount != 3 {
		t.Fatalf("FlushAll committed %d rows", tbl.RowCount)
	}
	// More small objects for the loop to fold.
	if _, err := ing.Append(ctx, "default", "events", [][]types.Value{intRow(4, "d")}); err != nil {
		t.Fatal(err)
	}
	if err := ing.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	comp := NewCompactor(ms, store, CompactorOptions{Telemetry: reg})
	comp.Start(ctx, "default", "events", time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		tbl, _ = ms.Get("default", "events")
		if len(tbl.Objects) == 1 && ms.TombstoneCount("default", "events") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never converged: %d objects", len(tbl.Objects))
		}
		time.Sleep(time.Millisecond)
	}
	comp.Stop()
	comp.Stop() // idempotent
	if tbl.RowCount != 4 {
		t.Errorf("rows after background compaction = %d", tbl.RowCount)
	}
	if reg.CounterValue(telemetry.MetricCompactRuns, "table", "events") == 0 {
		t.Error("compaction runs counter never moved")
	}
}

func TestIngestBuilderRawBytesAndDistinctMerge(t *testing.T) {
	a := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	b := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	if err := a.AppendRow(intRow(1, "xy")...); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(intRow(1, "zw")...); err != nil {
		t.Fatal(err)
	}
	// Both rows are still in their writer's pending row group when Seal
	// reads the sketches, which have counted them already.
	var objs []SealedObject
	for _, bb := range []*ObjectBuilder{a, b} {
		sealed, err := bb.Seal()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, sealed)
	}
	tbl, err := AssembleTable(eventSpec(), []string{"a.pql", "b.pql"}, objs)
	if err != nil {
		t.Fatal(err)
	}
	// Both rows share id=1; names differ.
	if id, name := tbl.ColumnStats["id"].NDV, tbl.ColumnStats["name"].NDV; id != 1 || name != 2 {
		t.Errorf("merged NDV = %d, %d; want 1, 2", id, name)
	}
}

// TestIngestAssembleTableCountsSharedValuesOnce: two objects holding the
// same four ids and one name make a table of four ids and one name, not
// of the sum of the objects' counts.
func TestIngestAssembleTableCountsSharedValuesOnce(t *testing.T) {
	a := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	b := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{})
	for i := int64(0); i < 4; i++ {
		if err := a.AppendRow(intRow(i, "s")...); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendRow(intRow(i, "s")...); err != nil { // same ids again
			t.Fatal(err)
		}
	}
	sa, err := a.Seal()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := AssembleTable(eventSpec(), []string{"x-000.pql", "x-001.pql"}, []SealedObject{sa, sb})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.ColumnStats["id"].NDV; got != 4 {
		t.Errorf("id NDV = %d, want 4", got)
	}
	if got := tbl.ColumnStats["name"].NDV; got != 1 {
		t.Errorf("name NDV = %d, want 1", got)
	}
	if tbl.RowCount != 8 || len(tbl.Objects) != 2 {
		t.Errorf("assembled table = %d rows, %d objects", tbl.RowCount, len(tbl.Objects))
	}
	if err := metastore.New().Register(tbl); err != nil {
		t.Errorf("Register: %v", err)
	}
}

// TestAssembledTableMatchesCommittedTable: the same sealed objects give
// the same table whether AssembleTable builds it in one go or they are
// committed to an empty table — in one commit or one commit each —
// rows, bytes, objects, zone maps and NDV alike.
func TestAssembledTableMatchesCommittedTable(t *testing.T) {
	var keys []string
	var objs []SealedObject
	var adds []metastore.ObjectAdd
	for o := int64(0); o < 3; o++ {
		b := NewObjectBuilder(eventSchema(), parquetlite.WriterOptions{RowGroupSize: 4})
		for i := int64(0); i < 10; i++ {
			row := intRow(o*7+i%5, fmt.Sprintf("n%d", (o+i)%4))
			if o == 2 || i%3 == 0 {
				row[1] = types.NullValue(types.String) // object 2's names are all NULL
			}
			if err := b.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("events-%06d.pql", o)
		keys, objs = append(keys, key), append(objs, sealed)
		adds = append(adds, metastore.ObjectAdd{Key: key, Bytes: sealed.Bytes, Rows: sealed.Rows, Stats: sealed.Stats})
	}
	want, err := AssembleTable(eventSpec(), keys, objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, commits := range [][][]metastore.ObjectAdd{{adds}, {adds[:1], adds[1:2], adds[2:]}} {
		_, ms, _ := newTestIngester(t, 100) // CreateTable(eventSpec())
		var got *metastore.Table
		for _, c := range commits {
			if got, err = ms.CommitObjects("default", "events", c, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got.RowCount != want.RowCount || got.TotalBytes != want.TotalBytes {
			t.Errorf("%d commits: rows %d bytes %d, assembled %d and %d", len(commits), got.RowCount, got.TotalBytes, want.RowCount, want.TotalBytes)
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Objects", got.Objects, want.Objects},
			{"ObjectStats", got.ObjectStats, want.ObjectStats},
			{"ObjectBytes", got.ObjectBytes, want.ObjectBytes},
			{"ColumnStats", got.ColumnStats, want.ColumnStats},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%d commits: %s = %+v, assembled %+v", len(commits), f.name, f.got, f.want)
			}
		}
	}
}
