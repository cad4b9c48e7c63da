// Package metastore implements the Hive-metastore-like catalog: schemas,
// tables, their object layout (which bucket/objects hold the data) and
// column statistics (min/max, NDV, null count, row count). The Presto-OCS
// connector's Selectivity Analyzer consumes these statistics exactly as
// the paper describes (§4: min/max for range-filter selectivity, NDV for
// aggregation cardinality, row count for reduction ratios).
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
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// ColumnStats describes one column of a table (or of one object, when
// held in Table.ObjectStats).
type ColumnStats struct {
	Min       types.Value `json:"min"`
	Max       types.Value `json:"max"`
	NullCount int64       `json:"null_count"`
	// NDV is the number of distinct values (exact when computed by the
	// generator, else an estimate).
	NDV int64 `json:"ndv"`
	// NumValues is the number of stored values including NULLs; zero
	// means the count was not recorded, so consumers must treat the
	// stats as unreliable rather than as proof of emptiness.
	NumValues int64 `json:"num_values,omitempty"`
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
	// DisjointKeys lists columns whose values never span objects (e.g.
	// mesh subdomain ids in simulation outputs). Grouping by such columns
	// makes per-object aggregation complete, which the OCS connector
	// requires before pushing post-aggregation operators.
	DisjointKeys []string `json:"disjoint_keys,omitempty"`
}

// QualifiedName returns "schema.name".
func (t *Table) QualifiedName() string { return t.Schema + "." + t.Name }

// Stats returns the stats for a column, with ok=false when absent.
func (t *Table) Stats(column string) (ColumnStats, bool) {
	cs, ok := t.ColumnStats[column]
	return cs, ok
}

// Metastore is a thread-safe catalog.
type Metastore struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// versions counts registration changes per table key. Register,
	// CommitObjects and Drop bump it, so a cached table definition
	// (internal/cache) detects staleness with one Version call instead of
	// a full re-read. Versions survive drops: re-registering a dropped
	// table continues its counter.
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

// Version returns the table's registration version (0 when the table was
// never registered). It is the cheap staleness check the metadata cache
// performs on every hit.
func (m *Metastore) Version(schema, name string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.versions[strings.ToLower(schema+"."+name)]
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

// Drop removes a table, bumping its version so cached entries invalidate.
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
	var tables []*Table
	if err := json.Unmarshal(data, &tables); err != nil {
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

// StatsFromObjects aggregates table statistics by reading the footers of
// object images. NDV is estimated per column by merging chunk-level
// min/max heuristics; callers that know exact NDVs (the data generators)
// should overwrite them.
func StatsFromObjects(schema *types.Schema, images [][]byte) (rowCount, totalBytes int64, colStats map[string]ColumnStats, err error) {
	colStats = make(map[string]ColumnStats, schema.Len())
	for _, c := range schema.Columns {
		colStats[c.Name] = ColumnStats{
			Min: types.NullValue(c.Type),
			Max: types.NullValue(c.Type),
		}
	}
	for _, img := range images {
		r, rerr := parquetlite.NewReader(img)
		if rerr != nil {
			return 0, 0, nil, rerr
		}
		if !r.Schema().Equal(schema) {
			return 0, 0, nil, fmt.Errorf("metastore: object schema %s does not match table %s", r.Schema(), schema)
		}
		rowCount += r.NumRows()
		totalBytes += int64(len(img))
		for ci, c := range schema.Columns {
			st := r.ColumnStats(ci)
			agg := colStats[c.Name]
			agg.NullCount += st.NullCount
			agg.NumValues += st.NumValues
			if !st.Min.Null && (agg.Min.Null || types.Compare(st.Min, agg.Min) < 0) {
				agg.Min = st.Min
			}
			if !st.Max.Null && (agg.Max.Null || types.Compare(st.Max, agg.Max) > 0) {
				agg.Max = st.Max
			}
			colStats[c.Name] = agg
		}
	}
	return rowCount, totalBytes, colStats, nil
}
