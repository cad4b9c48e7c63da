package metastore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

func sampleTable() *Table {
	return &Table{
		Schema: "lanl",
		Name:   "laghos",
		Columns: types.NewSchema(
			types.Column{Name: "vertex_id", Type: types.Int64},
			types.Column{Name: "x", Type: types.Float64},
		),
		Bucket:   "lanl",
		Objects:  []string{"part-000.pql", "part-001.pql"},
		Codec:    compress.Snappy,
		RowCount: 1000,
		ColumnStats: map[string]ColumnStats{
			"vertex_id": {ZoneMap: expr.ZoneMap{Min: types.IntValue(0), Max: types.IntValue(499)}, NDV: 500},
			"x":         {ZoneMap: expr.ZoneMap{Min: types.FloatValue(0), Max: types.FloatValue(4)}, NDV: 900},
		},
	}
}

func TestRegisterGetListDrop(t *testing.T) {
	m := New()
	if err := m.Register(sampleTable()); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("LANL", "Laghos") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if got.QualifiedName() != "lanl.laghos" {
		t.Errorf("name = %s", got.QualifiedName())
	}
	if _, err := m.Get("lanl", "nope"); err == nil {
		t.Error("missing table accepted")
	}
	if list := m.List(); len(list) != 1 || list[0] != "lanl.laghos" {
		t.Errorf("List = %v", list)
	}
	m.Drop("lanl", "laghos")
	if len(m.List()) != 0 {
		t.Error("drop failed")
	}
}

func TestRegisterValidation(t *testing.T) {
	m := New()
	if err := m.Register(&Table{Name: "x"}); err == nil {
		t.Error("missing schema accepted")
	}
	if err := m.Register(&Table{Schema: "s", Name: "x"}); err == nil {
		t.Error("missing columns accepted")
	}
}

func TestStatsLookup(t *testing.T) {
	tbl := sampleTable()
	cs, ok := tbl.Stats("vertex_id")
	if !ok || cs.NDV != 500 {
		t.Errorf("stats = %+v, %v", cs, ok)
	}
	if _, ok := tbl.Stats("zzz"); ok {
		t.Error("missing column stats found")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New()
	if err := m.Register(sampleTable()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Get("lanl", "laghos")
	if err != nil {
		t.Fatal(err)
	}
	if got.RowCount != 1000 || got.Codec != compress.Snappy || len(got.Objects) != 2 {
		t.Errorf("loaded table = %+v", got)
	}
	cs, _ := got.Stats("x")
	if cs.Max.F != 4 || cs.NDV != 900 {
		t.Errorf("loaded stats = %+v", cs)
	}
	if !got.Columns.Equal(sampleTable().Columns) {
		t.Errorf("loaded schema = %v", got.Columns)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("loading absent file succeeded")
	}
}

// zone is a column's statistics as a catalog records them.
func zone(min, max types.Value, nulls, ndv, values int64) ColumnStats {
	return ColumnStats{ZoneMap: expr.ZoneMap{Min: min, Max: max, NullCount: nulls, NumValues: values}, NDV: ndv}
}

// pinnedEvents is the table testdata/catalog.json describes: each column
// of its table stats carries the sketch of the values behind its NDV.
func pinnedEvents() *Table {
	t := eventsBeforeSketches()
	for name, vals := range map[string][]types.Value{
		"id":  {types.IntValue(-3), types.IntValue(0), types.IntValue(9), types.IntValue(12), types.IntValue(20), types.IntValue(40)},
		"tag": {types.StringValue("a"), types.StringValue("m"), types.StringValue("z")},
	} {
		cs := t.ColumnStats[name]
		cs.Sketch = NewSketch()
		for _, v := range vals {
			cs.Sketch.Add(v)
		}
		t.ColumnStats[name] = cs
	}
	return t
}

// eventsBeforeSketches is pinnedEvents as catalogs saved before table
// sketches describe it.
func eventsBeforeSketches() *Table {
	noTag := types.NullValue(types.String)
	return &Table{
		Schema: "ocs", Name: "events",
		Columns: types.NewSchema(
			types.Column{Name: "id", Type: types.Int64},
			types.Column{Name: "tag", Type: types.String},
		),
		Bucket: "ev", Objects: []string{"ev-000001.pql", "ev-000002.pql"},
		Codec: compress.Snappy, RowCount: 7, TotalBytes: 900,
		ColumnStats: map[string]ColumnStats{
			"id":  zone(types.IntValue(-3), types.IntValue(40), 1, 6, 7),
			"tag": zone(types.StringValue("a"), types.StringValue("z"), 2, 3, 7),
		},
		ObjectStats: map[string]map[string]ColumnStats{
			"ev-000001.pql": {
				"id":  zone(types.IntValue(-3), types.IntValue(9), 1, 3, 4),
				"tag": zone(types.StringValue("a"), types.StringValue("m"), 2, 2, 4),
			},
			"ev-000002.pql": {
				"id":  zone(types.IntValue(12), types.IntValue(40), 0, 3, 3),
				"tag": zone(noTag, noTag, 3, 0, 3),
			},
		},
		ObjectBytes: map[string]int64{"ev-000001.pql": 500, "ev-000002.pql": 400},
	}
}

// TestCatalogFormatIsPinned: testdata/catalog.json is a catalog as Save
// writes it, with every column-stats field and the per-object stats and
// sizes set. It loads to the table it describes and saves back byte for
// byte, so a JSON key renamed, dropped or reordered by a change to the
// stats types fails here, not against a catalog already on disk.
func TestCatalogFormatIsPinned(t *testing.T) {
	want := pinnedEvents()
	const pinned = "testdata/catalog.json"
	m, err := Load(pinned)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("ocs", "events")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v\nwant %+v", got, want)
	}
	for name, cs := range got.ColumnStats {
		if n := cs.Sketch.Estimate(); n != cs.NDV {
			t.Errorf("%s: sketch estimates %d, NDV %d", name, n, cs.NDV)
		}
	}
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if orig, err := os.ReadFile(pinned); err != nil || !bytes.Equal(saved, orig) {
		t.Errorf("Save wrote\n%s\nwant %s (err %v)", saved, pinned, err)
	}
}

// TestLoadCatalogWithDeclaredKeys: catalogs saved before split-disjointness
// was derived from zone maps carry a "disjoint_keys" list per table
// (testdata/catalog_disjoint_keys.json is testdata/catalog.json as it
// was then). They still load, to the same table, the list ignored: the
// zone maps say the same thing about id and more about tag.
func TestLoadCatalogWithDeclaredKeys(t *testing.T) {
	m, err := Load("testdata/catalog_disjoint_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("ocs", "events")
	if err != nil {
		t.Fatal(err)
	}
	if want := eventsBeforeSketches(); !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v\nwant %+v", got, want)
	}
	if !got.SplitDisjoint("id") || got.SplitDisjoint("tag") {
		t.Errorf("derived disjointness: id %v, tag %v; want true, false", got.SplitDisjoint("id"), got.SplitDisjoint("tag"))
	}
}

// TestLoadCatalogWithExactNDV: catalogs saved before table sketches
// (testdata/catalog_exact_ndv.json is testdata/catalog.json as it was
// then) still load, with the NDVs they stored and no sketch; a commit to
// such a table keeps its NDV, since the union of its objects' values is
// unknown.
func TestLoadCatalogWithExactNDV(t *testing.T) {
	m, err := Load("testdata/catalog_exact_ndv.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("ocs", "events")
	if err != nil {
		t.Fatal(err)
	}
	if want := eventsBeforeSketches(); !reflect.DeepEqual(got, want) {
		t.Errorf("loaded %+v\nwant %+v", got, want)
	}
	id, tag := zone(types.IntValue(50), types.IntValue(51), 0, 2, 2), zone(types.StringValue("q"), types.StringValue("q"), 0, 1, 2)
	id.Sketch, tag.Sketch = NewSketch(), NewSketch() // sealed objects carry sketches
	add := ObjectAdd{Key: "ev-000003.pql", Bytes: 300, Rows: 2, Stats: map[string]ColumnStats{"id": id, "tag": tag}}
	next, err := m.CommitObjects("ocs", "events", []ObjectAdd{add}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, tag := next.ColumnStats["id"], next.ColumnStats["tag"]; id.NDV != 6 || tag.NDV != 3 || id.Sketch != nil || tag.Sketch != nil {
		t.Errorf("after an append: id NDV %d sketch %v, tag NDV %d sketch %v; want 6 and 3, no sketches", id.NDV, id.Sketch != nil, tag.NDV, tag.Sketch != nil)
	}
}

// Save replaces the catalog by rename, so at every instant the path holds
// one complete catalog: a reader that opened the file before a Save keeps
// reading the whole previous catalog (an in-place rewrite would truncate
// it under the reader), a torn temporary left by a crashed Save is never
// what Load reads, and a Save that fails leaves the previous catalog and
// no temporary behind.
func TestSaveReplacesCatalogAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	m := New()
	if err := m.Register(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	previous, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// A Save that died after writing half of its temporary file.
	torn := filepath.Join(dir, "catalog.json.tmp-crashed")
	if err := os.WriteFile(torn, previous[:len(previous)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if m2, err := Load(path); err != nil || len(m2.List()) != 1 {
		t.Fatalf("Load beside a torn temporary: %v", err)
	}

	second := sampleTable()
	second.Name = "laghos2"
	if err := m.Register(second); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if seen, err := io.ReadAll(reader); err != nil || !bytes.Equal(seen, previous) {
		t.Errorf("a reader of the previous catalog saw %d bytes (err %v), want the %d it opened", len(seen), err, len(previous))
	}
	if m2, err := Load(path); err != nil || len(m2.List()) != 2 {
		t.Fatalf("Load after the second Save: %v", err)
	}

	// A Save whose rename fails (the target is a non-empty directory).
	blocked := filepath.Join(dir, "blocked.json")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(blocked); err == nil {
		t.Error("Save over a directory succeeded")
	}
	if m2, err := Load(path); err != nil || len(m2.List()) != 2 {
		t.Fatalf("Load after a failed Save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != "catalog.json" && n != "catalog.json.tmp-crashed" && n != "blocked.json" {
			t.Errorf("Save left %s behind", n)
		}
	}
}
