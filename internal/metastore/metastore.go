// Package metastore implements the Hive-metastore-like catalog: schemas,
// tables, their object layout (which bucket/objects hold the data) and
// column statistics (min/max, NDV, null count, row count). The Presto-OCS
// connector's Selectivity Analyzer consumes these statistics exactly as
// the paper describes (§4: min/max for range-filter selectivity, NDV for
// aggregation cardinality, row count for reduction ratios). A table's NDV
// is the estimate of its objects' merged HyperLogLog sketches (Sketch).
package metastore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// ColumnStats describes one column of a table (or of one object, when
// held in Table.ObjectStats): its zone map plus a distinct-value count.
type ColumnStats struct {
	expr.ZoneMap
	// NDV is the estimated number of distinct non-NULL values, capped at
	// the value count in a table's stats.
	NDV int64 `json:"ndv"`
	// Sketch is what NDV estimates from: a sealed object's or a table's
	// (the object entries of Table.ObjectStats keep none). Nil in a table
	// saved before sketches or registered by hand: NDV stays as registered.
	Sketch Sketch `json:"sketch,omitempty"`
}

// MarshalJSON keeps the catalog's key order, ndv between null_count and
// num_values, which the embedded ZoneMap alone would move to the end
// (TestCatalogFormatIsPinned holds the bytes).
func (cs ColumnStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Min       types.Value `json:"min"`
		Max       types.Value `json:"max"`
		NullCount int64       `json:"null_count"`
		NDV       int64       `json:"ndv"`
		NumValues int64       `json:"num_values,omitempty"`
		Sketch    Sketch      `json:"sketch,omitempty"`
	}{cs.Min, cs.Max, cs.NullCount, cs.NDV, cs.NumValues, cs.Sketch})
}

// Table is a catalog entry.
type Table struct {
	Schema  string        `json:"schema"`
	Name    string        `json:"name"`
	Columns *types.Schema `json:"columns"`
	// Bucket and Objects give the object-store layout: one object per
	// file, each a parquetlite image. Objects are the unit of split
	// generation.
	Bucket  string   `json:"bucket"`
	Objects []string `json:"objects"`
	// Codec records the column-chunk compression.
	Codec compress.Codec `json:"codec"`
	// RowCount is the total row count across objects.
	RowCount int64 `json:"row_count"`
	// TotalBytes is the stored (compressed) size across objects.
	TotalBytes int64 `json:"total_bytes"`
	// ColumnStats is keyed by column name.
	ColumnStats map[string]ColumnStats `json:"column_stats"`
	// ObjectStats holds per-object column statistics (object key →
	// column name → stats), the zone maps the connector intersects with
	// a pushed-down filter to drop whole splits before scheduling them.
	// Optional: tables registered without it simply never prune splits.
	ObjectStats map[string]map[string]ColumnStats `json:"object_stats,omitempty"`
	// ObjectBytes records each object's stored size, which the compactor
	// uses to pick small objects without fetching them and CommitObjects
	// uses to keep TotalBytes exact across removals. Optional for legacy
	// catalogs; the ingest path always records it.
	ObjectBytes map[string]int64 `json:"object_bytes,omitempty"`
}

// QualifiedName returns "schema.name".
func (t *Table) QualifiedName() string { return t.Schema + "." + t.Name }

// Stats returns the stats for a column, with ok=false when absent.
func (t *Table) Stats(column string) (ColumnStats, bool) {
	cs, ok := t.ColumnStats[column]
	return cs, ok
}

// SplitDisjoint reports whether no value of the column occurs in two of
// the table's objects — so every group of a GROUP BY on it lives in one
// split, and per-split aggregation is complete. It is derived from the
// per-object zone maps, nothing is declared: every object records one
// for the column, the non-NULL [Min, Max] intervals sorted by Min
// strictly increase under types.Compare (a Max equal to the next Min is
// an overlap), and NULLs, which group together, occur in at most one
// object. A Float64 column never qualifies: NaN and ±0 make an interval
// no proof of which values group together.
func (t *Table) SplitDisjoint(column string) bool {
	col := t.Columns.IndexOf(column)
	if col < 0 || t.Columns.Columns[col].Type == types.Float64 {
		return false
	}
	intervals := make([]expr.ZoneMap, 0, len(t.Objects))
	nullObjects := 0
	for _, obj := range t.Objects {
		z, ok := t.ObjectStats[obj][column]
		if !ok || z.NumValues == 0 {
			return false // no zone map, or one that does not count its rows
		}
		if z.NullCount > 0 {
			nullObjects++
		}
		if z.NumValues > z.NullCount {
			if z.Min.Null || z.Max.Null {
				return false
			}
			intervals = append(intervals, z.ZoneMap)
		}
	}
	if nullObjects > 1 {
		return false
	}
	sort.Slice(intervals, func(i, j int) bool { return types.Compare(intervals[i].Min, intervals[j].Min) < 0 })
	for i := 1; i < len(intervals); i++ {
		if types.Compare(intervals[i-1].Max, intervals[i].Min) >= 0 {
			return false
		}
	}
	return true
}

// Metastore is a thread-safe catalog.
type Metastore struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// versions counts registration changes per table key. Register,
	// CommitObjects and Drop bump it; a snapshot pin records the version
	// it was taken at, and tombstones the version that removed them, so
	// reaping can tell which removed objects a pinned scan may still read.
	// Versions survive drops: re-registering a dropped table continues
	// its counter.
	versions map[string]uint64
	// pins refcounts outstanding snapshot pins per table key and pinned
	// version; tombstones at versions above a live pin are not reaped.
	pins     map[string]map[uint64]int
	pinCount int
	// tombstones holds removed object keys awaiting physical deletion
	// (see snapshot.go).
	tombstones map[string][]Tombstone
	// objSeq issues process-monotonic object-name sequence numbers per
	// table (see NextObjectSeq).
	objSeq map[string]uint64
}

// New returns an empty metastore.
func New() *Metastore {
	return &Metastore{tables: make(map[string]*Table), versions: make(map[string]uint64)}
}

// Register adds or replaces a table, bumping its version.
func (m *Metastore) Register(t *Table) error {
	if t.Schema == "" || t.Name == "" {
		return fmt.Errorf("metastore: table needs schema and name")
	}
	if t.Columns == nil || t.Columns.Len() == 0 {
		return fmt.Errorf("metastore: table %s has no columns", t.QualifiedName())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(t.QualifiedName())
	m.versions[key]++
	m.tables[key] = t
	return nil
}

// Get looks a table up by schema and name (case-insensitive).
func (m *Metastore) Get(schema, name string) (*Table, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tables[strings.ToLower(schema+"."+name)]
	if !ok {
		return nil, fmt.Errorf("metastore: no such table %s.%s", schema, name)
	}
	return t, nil
}

// List returns all qualified table names, sorted.
func (m *Metastore) List() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, t := range m.tables {
		out = append(out, t.QualifiedName())
	}
	sort.Strings(out)
	return out
}

// Drop removes a table, bumping its version.
func (m *Metastore) Drop(schema, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(schema + "." + name)
	if _, ok := m.tables[key]; ok {
		m.versions[key]++
	}
	delete(m.tables, key)
}

// Save persists the catalog as JSON, replacing path atomically: a crash
// or a full disk at any point leaves either the previous catalog or the
// new one at path, never a torn file.
func (m *Metastore) Save(path string) error {
	m.mu.RLock()
	tables := make([]*Table, 0, len(m.tables))
	for _, t := range m.tables {
		tables = append(tables, t)
	}
	m.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].QualifiedName() < tables[j].QualifiedName() })
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes data to a temporary file beside path, makes it
// durable, renames it over path and makes the rename durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads a catalog saved by Save.
func Load(path string) (*Metastore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tables, err := decodeCatalog(data)
	if err != nil {
		return nil, fmt.Errorf("metastore: parsing %s: %w", path, err)
	}
	m := New()
	for _, t := range tables {
		if err := m.Register(t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// decodeCatalog parses a catalog's bytes, rejecting any table sketch that
// Sketch cannot have produced, so that no merge or estimate reads one.
func decodeCatalog(data []byte) ([]*Table, error) {
	var tables []*Table
	if err := json.Unmarshal(data, &tables); err != nil {
		return nil, err
	}
	for _, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("null table entry")
		}
		for name, cs := range t.ColumnStats {
			if cs.Sketch == nil {
				continue
			}
			if err := cs.Sketch.check(); err != nil {
				return nil, fmt.Errorf("table %s, column %s: %w", t.QualifiedName(), name, err)
			}
		}
	}
	return tables, nil
}
