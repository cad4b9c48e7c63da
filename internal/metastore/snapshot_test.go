package metastore

import (
	"fmt"
	"sync"
	"testing"

	"prestocs/internal/types"
)

// snapshotTable builds a two-object table with full per-object
// bookkeeping, the shape the ingest writer always produces.
func snapshotTable() *Table {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	return &Table{
		Schema:  "default",
		Name:    "events",
		Columns: schema,
		Bucket:  "events",
		Objects: []string{"events-part-000.pql", "events-part-001.pql"},
		ObjectStats: map[string]map[string]ColumnStats{
			"events-part-000.pql": {
				"id": {Min: types.IntValue(0), Max: types.IntValue(99), NumValues: 100, NDV: 100},
				"v":  {Min: types.FloatValue(0), Max: types.FloatValue(1), NumValues: 100, NDV: 90},
			},
			"events-part-001.pql": {
				"id": {Min: types.IntValue(100), Max: types.IntValue(199), NumValues: 100, NDV: 100},
				"v":  {Min: types.FloatValue(1), Max: types.FloatValue(2), NumValues: 100, NDV: 90},
			},
		},
		ObjectBytes: map[string]int64{"events-part-000.pql": 4000, "events-part-001.pql": 4100},
		RowCount:    200,
		TotalBytes:  8100,
		ColumnStats: map[string]ColumnStats{
			"id": {Min: types.IntValue(0), Max: types.IntValue(199), NumValues: 200, NDV: 200},
			"v":  {Min: types.FloatValue(0), Max: types.FloatValue(2), NumValues: 200, NDV: 180},
		},
	}
}

func addFor(key string, lo, hi int64, rows int64, bytes int64) ObjectAdd {
	return ObjectAdd{
		Key:   key,
		Bytes: bytes,
		Rows:  rows,
		Stats: map[string]ColumnStats{
			"id": {Min: types.IntValue(lo), Max: types.IntValue(hi), NumValues: rows, NDV: rows},
			"v":  {Min: types.FloatValue(0), Max: types.FloatValue(3), NumValues: rows, NDV: rows / 2},
		},
	}
}

func TestSnapshotCommitAppend(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	v0 := m.Version("default", "events")
	old, _ := m.Get("default", "events")

	next, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-ingest-000003.pql", 200, 299, 100, 4200)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Version("default", "events"); got != v0+1 {
		t.Errorf("version = %d, want %d", got, v0+1)
	}
	if len(next.Objects) != 3 || next.RowCount != 300 || next.TotalBytes != 12300 {
		t.Errorf("next = %d objects, %d rows, %d bytes", len(next.Objects), next.RowCount, next.TotalBytes)
	}
	// The old *Table is untouched: snapshot readers keep a frozen view.
	if len(old.Objects) != 2 || old.RowCount != 200 {
		t.Errorf("old table mutated: %d objects, %d rows", len(old.Objects), old.RowCount)
	}
	cs := next.ColumnStats["id"]
	if cs.Max.I != 299 || cs.NumValues != 300 {
		t.Errorf("merged id stats = %+v", cs)
	}
	// Pure append: NDV grows by the new object's estimate.
	if cs.NDV != 300 {
		t.Errorf("append NDV = %d, want 300", cs.NDV)
	}
	if m.TombstoneCount("default", "events") != 0 {
		t.Error("append produced tombstones")
	}
}

func TestSnapshotCommitRewrite(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	// Compaction shape: both parts merge into one object, same rows.
	merged := ObjectAdd{
		Key:   "events-compact-000002.pql",
		Bytes: 7000,
		Rows:  200,
		Stats: map[string]ColumnStats{
			"id": {Min: types.IntValue(0), Max: types.IntValue(199), NumValues: 200, NDV: 200},
			"v":  {Min: types.FloatValue(0), Max: types.FloatValue(2), NumValues: 200, NDV: 150},
		},
	}
	next, err := m.CommitObjects("default", "events",
		[]ObjectAdd{merged}, []string{"events-part-000.pql", "events-part-001.pql"})
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Objects) != 1 || next.RowCount != 200 || next.TotalBytes != 7000 {
		t.Errorf("next = %d objects, %d rows, %d bytes", len(next.Objects), next.RowCount, next.TotalBytes)
	}
	// Rewrite: table NDV unchanged — merging objects does not change the
	// value distribution.
	if got := next.ColumnStats["v"].NDV; got != 180 {
		t.Errorf("rewrite NDV = %d, want 180", got)
	}
	if got := m.TombstoneCount("default", "events"); got != 2 {
		t.Errorf("tombstones = %d, want 2", got)
	}
}

func TestSnapshotCommitValidation(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitObjects("default", "nope", nil, nil); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := m.CommitObjects("default", "events", nil, []string{"ghost.pql"}); err == nil {
		t.Error("removing a non-live object accepted")
	}
	if _, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-part-000.pql", 0, 9, 10, 100)}, nil); err == nil {
		t.Error("adding an already-live key accepted")
	}
	noStats := ObjectAdd{Key: "bare.pql", Bytes: 10, Rows: 1}
	if _, err := m.CommitObjects("default", "events", []ObjectAdd{noStats}, nil); err == nil {
		t.Error("add without object stats accepted")
	}
}

func TestSnapshotPinDefersReap(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	// A scan pins the pre-compaction snapshot.
	pinned, pin, err := m.GetPinned("default", "events")
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Objects) != 2 {
		t.Fatalf("pinned snapshot has %d objects", len(pinned.Objects))
	}
	if m.PinnedCount() != 1 {
		t.Errorf("PinnedCount = %d", m.PinnedCount())
	}

	if _, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-compact-000002.pql", 0, 199, 200, 7000)},
		[]string{"events-part-000.pql", "events-part-001.pql"}); err != nil {
		t.Fatal(err)
	}

	// The pin predates the removal, so nothing reaps.
	if got := reapAll(m); len(got) != 0 {
		t.Fatalf("reaped %v while pinned", got)
	}
	if got := m.TombstoneCount("default", "events"); got != 2 {
		t.Errorf("tombstones = %d, want 2", got)
	}

	pin.Release()
	pin.Release() // idempotent
	if m.PinnedCount() != 0 {
		t.Errorf("PinnedCount after release = %d", m.PinnedCount())
	}
	reaped := reapAll(m)
	if len(reaped) != 2 || reaped[0].Key != "events-part-000.pql" || reaped[1].Key != "events-part-001.pql" {
		t.Errorf("reaped = %v", reaped)
	}
	if reaped[0].Bucket != "events" {
		t.Errorf("tombstone bucket = %q", reaped[0].Bucket)
	}
	if m.TombstoneCount("default", "events") != 0 {
		t.Error("tombstones remain after reap")
	}
}

// reapAll reaps the events table with a delete that always succeeds and
// returns what was offered.
func reapAll(m *Metastore) []Tombstone {
	var got []Tombstone
	m.ReapTombstones("default", "events", func(ts Tombstone) error {
		got = append(got, ts)
		return nil
	})
	return got
}

// A tombstone whose physical delete fails must survive the reap and be
// offered again, while its neighbour that was deleted is dropped.
func TestSnapshotReapKeepsTombstoneWhoseDeleteFailed(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-compact-000002.pql", 0, 199, 200, 7000)},
		[]string{"events-part-000.pql", "events-part-001.pql"}); err != nil {
		t.Fatal(err)
	}
	n := m.ReapTombstones("default", "events", func(ts Tombstone) error {
		if ts.Key == "events-part-000.pql" {
			return fmt.Errorf("store unreachable")
		}
		return nil
	})
	if n != 1 || m.TombstoneCount("default", "events") != 1 {
		t.Fatalf("dropped %d, %d left; want 1 and 1", n, m.TombstoneCount("default", "events"))
	}
	if got := reapAll(m); len(got) != 1 || got[0].Key != "events-part-000.pql" {
		t.Errorf("second reap offered %v", got)
	}
	if m.TombstoneCount("default", "events") != 0 {
		t.Error("tombstone remains after its delete succeeded")
	}
}

func TestSnapshotPinAfterRemovalReaps(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-compact-000002.pql", 0, 199, 200, 7000)},
		[]string{"events-part-000.pql"}); err != nil {
		t.Fatal(err)
	}
	// This pin is at the post-removal version: it can never reference the
	// tombstoned object, so reaping proceeds.
	_, pin, err := m.GetPinned("default", "events")
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	if got := reapAll(m); len(got) != 1 {
		t.Errorf("reaped %d tombstones, want 1", len(got))
	}
}

func TestSnapshotNextObjectSeq(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	// Live set tops out at part-001 → first issued seq is 2.
	if got := m.NextObjectSeq("default", "events"); got != 2 {
		t.Errorf("first seq = %d, want 2", got)
	}
	if got := m.NextObjectSeq("default", "events"); got != 3 {
		t.Errorf("second seq = %d, want 3", got)
	}
}

func TestSnapshotSeqSkipsTombstones(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	// Compact everything into one high-numbered object, leaving
	// tombstones for part-000/part-001, then drop the in-memory counter
	// state by reaping nothing: a fresh metastore process would seed off
	// the live set AND the tombstones.
	if _, err := m.CommitObjects("default", "events",
		[]ObjectAdd{addFor("events-compact-000009.pql", 0, 199, 200, 7000)},
		[]string{"events-part-000.pql", "events-part-001.pql"}); err != nil {
		t.Fatal(err)
	}
	// Counter must seed above the tombstoned suffixes and the live
	// compact-000009 suffix — never reissuing a key whose deferred
	// physical delete would destroy fresh data.
	if got := m.NextObjectSeq("default", "events"); got != 10 {
		t.Errorf("seq after compaction = %d, want 10", got)
	}
}

func TestSnapshotConcurrentCommitAndPin(t *testing.T) {
	m := New()
	if err := m.Register(snapshotTable()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers, readers = 4, 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("events-ingest-%03d-%03d.pql", w, m.NextObjectSeq("default", "events"))
				if _, err := m.CommitObjects("default", "events",
					[]ObjectAdd{addFor(key, 0, 9, 10, 100)}, nil); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tbl, pin, err := m.GetPinned("default", "events")
				if err != nil {
					t.Errorf("pin: %v", err)
					return
				}
				// A pinned snapshot is internally consistent no matter how
				// many commits race it: accounting matches the object list.
				var rows int64
				for _, o := range tbl.Objects {
					rows += objectRows(tbl, o)
				}
				if rows != tbl.RowCount {
					t.Errorf("snapshot rows %d != table RowCount %d", rows, tbl.RowCount)
				}
				pin.Release()
			}
		}()
	}
	wg.Wait()
	if m.PinnedCount() != 0 {
		t.Errorf("PinnedCount = %d after all releases", m.PinnedCount())
	}
	tbl, _ := m.Get("default", "events")
	if want := 200 + int64(writers*25*10); tbl.RowCount != want {
		t.Errorf("final RowCount = %d, want %d", tbl.RowCount, want)
	}
}
