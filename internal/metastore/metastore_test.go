package metastore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/parquetlite"
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
			"vertex_id": {Min: types.IntValue(0), Max: types.IntValue(499), NDV: 500},
			"x":         {Min: types.FloatValue(0), Max: types.FloatValue(4), NDV: 900},
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

func TestStatsFromObjects(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
	)
	mk := func(lo, hi int) []byte {
		p := column.NewPage(schema)
		for i := lo; i <= hi; i++ {
			p.AppendRow(types.IntValue(int64(i)), types.FloatValue(float64(i)*1.5))
		}
		img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 16}, p)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	rows, bytes, stats, err := StatsFromObjects(schema, [][]byte{mk(0, 49), mk(50, 99)})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 100 || bytes <= 0 {
		t.Errorf("rows=%d bytes=%d", rows, bytes)
	}
	if stats["a"].Min.I != 0 || stats["a"].Max.I != 99 {
		t.Errorf("a stats = %+v", stats["a"])
	}
	if stats["b"].Max.F != 99*1.5 {
		t.Errorf("b stats = %+v", stats["b"])
	}
	// Mismatched schema rejected.
	other := types.NewSchema(types.Column{Name: "z", Type: types.Int64})
	if _, _, _, err := StatsFromObjects(other, [][]byte{mk(0, 1)}); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, _, _, err := StatsFromObjects(schema, [][]byte{[]byte("junk")}); err == nil {
		t.Error("corrupt object accepted")
	}
}
