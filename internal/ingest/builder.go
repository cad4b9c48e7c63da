// Package ingest implements the write path: buffering rows into
// parquetlite objects with complete statistics (ObjectBuilder), the
// streaming append endpoint behind engine.Ingest (Ingester), and the
// background small-object compactor with snapshot-safe garbage
// collection (Compactor). It is the only package allowed to assemble
// and register metastore tables — the `vet-ingest` gate enforces that
// every catalog registration flows through here, so no table ever
// enters the metastore without fresh per-object zone maps.
package ingest

import (
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// ObjectBuilder accumulates rows into one parquetlite object while
// tracking everything the metastore needs to make the object prunable
// the moment it is registered: per-column min/max and null counts come
// from the file footer, and exact distinct-value counts come from the
// builder's own typed sets (footers do not carry NDV). A row is
// transposed once, into the writer's pending row group; a page is taken
// column at a time and never boxed into rows. This is the single writer
// implementation: engine ingest, the compactor and the workload
// generators all produce objects through it.
type ObjectBuilder struct {
	schema   *types.Schema
	w        *parquetlite.Writer
	rows     int64
	raw      int64
	distinct DistinctSets
}

// NewObjectBuilder starts an object with the given schema.
func NewObjectBuilder(schema *types.Schema, opts parquetlite.WriterOptions) *ObjectBuilder {
	return &ObjectBuilder{
		schema:   schema,
		w:        parquetlite.NewWriter(schema, opts),
		distinct: NewDistinctSets(schema),
	}
}

// AppendRow buffers one row; the row that fills a row group has the
// group encoded.
func (b *ObjectBuilder) AppendRow(vals ...types.Value) error {
	if len(vals) != b.schema.Len() {
		return fmt.Errorf("ingest: row has %d values, schema has %d columns", len(vals), b.schema.Len())
	}
	for _, v := range vals {
		b.raw += rawSize(v)
	}
	b.distinct.addRow(vals)
	b.rows++
	return b.w.WriteRow(vals...)
}

// AppendPage appends all rows of a page. The distinct values are counted
// on a goroutine of their own while the writer encodes: both only read
// the page, and nothing else is shared.
func (b *ObjectBuilder) AppendPage(p *column.Page) error {
	if err := parquetlite.CheckPage(b.schema, p); err != nil {
		return err
	}
	counted := make(chan struct{})
	go func() {
		defer close(counted)
		b.distinct.addPage(p)
	}()
	err := b.w.WritePage(p)
	<-counted
	if err != nil {
		return err
	}
	b.rows += int64(p.NumRows())
	for _, vec := range p.Vectors {
		b.raw += 8 * int64(vec.Len())
		for i, s := range vec.Strings {
			if !vec.IsNull(i) {
				b.raw += int64(len(s))
			}
		}
	}
	return nil
}

// Rows reports the buffered row count.
func (b *ObjectBuilder) Rows() int64 { return b.rows }

// RawBytes reports the approximate uncompressed volume buffered so far
// (for flush thresholds and reporting).
func (b *ObjectBuilder) RawBytes() int64 { return b.raw }

// MergeDistinctInto folds this object's distinct-value sets, which count
// every row appended so far, into table-wide sets, so callers building
// many objects (the workload generators) can compute exact table-level
// NDV.
func (b *ObjectBuilder) MergeDistinctInto(global DistinctSets) {
	for i := range b.distinct {
		global[i].merge(&b.distinct[i])
	}
}

// SealedObject is a finished object image plus the bookkeeping the
// metastore commit needs.
type SealedObject struct {
	Image []byte
	Rows  int64
	Bytes int64
	// Stats is the per-column zone map, with exact NDV for the rows in
	// this object.
	Stats map[string]metastore.ColumnStats
}

// Seal finishes the file and computes its zone map from the footer it
// just wrote (one source of truth) plus the tracked distinct counts.
// The builder must not be reused afterwards.
func (b *ObjectBuilder) Seal() (SealedObject, error) {
	img, err := b.w.Finish()
	if err != nil {
		return SealedObject{}, err
	}
	r, err := parquetlite.NewReader(img)
	if err != nil {
		return SealedObject{}, err
	}
	stats := make(map[string]metastore.ColumnStats, b.schema.Len())
	for ci, c := range b.schema.Columns {
		st := r.ColumnStats(ci)
		stats[c.Name] = metastore.ColumnStats{
			Min:       st.Min,
			Max:       st.Max,
			NullCount: st.NullCount,
			NumValues: st.NumValues,
			NDV:       b.distinct.Count(ci),
		}
	}
	return SealedObject{Image: img, Rows: b.rows, Bytes: int64(len(img)), Stats: stats}, nil
}

// rawSize approximates the in-memory width of one value, mirroring
// column.Vector accounting closely enough for flush thresholds.
func rawSize(v types.Value) int64 {
	if v.Kind == types.String {
		return int64(len(v.S)) + 8
	}
	return 8
}

// TableSpec names and shapes a table being assembled from sealed
// objects.
type TableSpec struct {
	Schema       string
	Name         string
	Bucket       string
	Columns      *types.Schema
	Codec        compress.Codec
	DisjointKeys []string
}

// AssembleTable builds a registerable catalog entry from sealed
// objects: per-object zone maps, per-object sizes, and table-level
// column stats merged across objects. exactNDV overrides the table
// NDV per column (the generators track distincts across all objects);
// when nil, NDV falls back to the sum of per-object NDVs capped at the
// value count — an overestimate when values span objects, but safe for
// selectivity purposes. keys and objs are parallel.
func AssembleTable(spec TableSpec, keys []string, objs []SealedObject, exactNDV map[string]int64) (*metastore.Table, error) {
	if len(keys) != len(objs) {
		return nil, fmt.Errorf("ingest: %d keys for %d sealed objects", len(keys), len(objs))
	}
	t := &metastore.Table{
		Schema:       spec.Schema,
		Name:         spec.Name,
		Columns:      spec.Columns,
		Bucket:       spec.Bucket,
		Codec:        spec.Codec,
		DisjointKeys: spec.DisjointKeys,
		ColumnStats:  make(map[string]metastore.ColumnStats, spec.Columns.Len()),
		ObjectStats:  make(map[string]map[string]metastore.ColumnStats, len(keys)),
		ObjectBytes:  make(map[string]int64, len(keys)),
	}
	for i, key := range keys {
		t.Objects = append(t.Objects, key)
		t.ObjectStats[key] = objs[i].Stats
		t.ObjectBytes[key] = objs[i].Bytes
		t.RowCount += objs[i].Rows
		t.TotalBytes += objs[i].Bytes
	}
	for _, c := range spec.Columns.Columns {
		merged := metastore.ColumnStats{
			Min: types.NullValue(c.Type),
			Max: types.NullValue(c.Type),
		}
		for i := range objs {
			st := objs[i].Stats[c.Name]
			merged.NullCount += st.NullCount
			merged.NumValues += st.NumValues
			if !st.Min.Null && (merged.Min.Null || types.Compare(st.Min, merged.Min) < 0) {
				merged.Min = st.Min
			}
			if !st.Max.Null && (merged.Max.Null || types.Compare(st.Max, merged.Max) > 0) {
				merged.Max = st.Max
			}
			merged.NDV += st.NDV
		}
		if n, ok := exactNDV[c.Name]; ok {
			merged.NDV = n
		}
		if merged.NDV > merged.NumValues {
			merged.NDV = merged.NumValues
		}
		t.ColumnStats[c.Name] = merged
	}
	return t, nil
}

// RegisterTable installs an assembled table in the metastore. It exists
// so callers outside this package register catalogs through the ingest
// path (the vet-ingest gate bans direct registration elsewhere).
func RegisterTable(ms *metastore.Metastore, t *metastore.Table) error {
	return ms.Register(t)
}
