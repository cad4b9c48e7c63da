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
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// ObjectBuilder accumulates rows into one parquetlite object while
// tracking everything the metastore needs to make the object prunable
// the moment it is registered: per-column min/max and null counts come
// from the file footer, and distinct-value counts from one
// metastore.Sketch per column (footers do not carry NDV). A row is
// transposed once, into the writer's pending row group; a page is taken
// column at a time and never boxed into rows. This is the single writer
// implementation: engine ingest, the compactor and the workload
// generators all produce objects through it.
type ObjectBuilder struct {
	schema   *types.Schema
	w        *parquetlite.Writer
	rows     int64
	raw      int64
	sketches []metastore.Sketch // per column
}

// NewObjectBuilder starts an object with the given schema.
func NewObjectBuilder(schema *types.Schema, opts parquetlite.WriterOptions) *ObjectBuilder {
	b := &ObjectBuilder{
		schema:   schema,
		w:        parquetlite.NewWriter(schema, opts),
		sketches: make([]metastore.Sketch, schema.Len()),
	}
	for i := range b.sketches {
		b.sketches[i] = metastore.NewSketch()
	}
	return b
}

// AppendRow buffers one row; the row that fills a row group has the
// group encoded.
func (b *ObjectBuilder) AppendRow(vals ...types.Value) error {
	if len(vals) != b.schema.Len() {
		return fmt.Errorf("ingest: row has %d values, schema has %d columns", len(vals), b.schema.Len())
	}
	for i, v := range vals {
		b.raw += rawSize(v)
		b.sketches[i].Add(v)
	}
	b.rows++
	return b.w.WriteRow(vals...)
}

// AppendPage appends all rows of a page.
func (b *ObjectBuilder) AppendPage(p *column.Page) error {
	if err := parquetlite.CheckPage(b.schema, p); err != nil {
		return err
	}
	if err := b.w.WritePage(p); err != nil {
		return err
	}
	b.rows += int64(p.NumRows())
	for c, vec := range p.Vectors {
		b.sketches[c].AddVector(vec)
		b.raw += 8*int64(vec.Len()) + stringBytes(vec)
	}
	return nil
}

// stringBytes sums the lengths of a vector's non-NULL strings, reading a
// dictionary-form vector's through its Dict.
func stringBytes(vec *column.Vector) int64 {
	var n int64
	if vec.Dict != nil {
		for i, c := range vec.Codes {
			if !vec.IsNull(i) {
				n += int64(len(vec.Dict[c]))
			}
		}
		return n
	}
	for i, s := range vec.Strings {
		if !vec.IsNull(i) {
			n += int64(len(s))
		}
	}
	return n
}

// SealedObject is a finished object image plus the bookkeeping the
// metastore commit needs.
type SealedObject struct {
	Image []byte
	Rows  int64
	Bytes int64
	// Stats is the per-column zone map, with the sketch of this
	// object's values and its NDV estimate.
	Stats map[string]metastore.ColumnStats
}

// Seal finishes the file and computes its zone map from the footer it
// just wrote (one source of truth) plus the column sketches.
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
		stats[c.Name] = metastore.ColumnStats{ZoneMap: r.ColumnStats(ci), NDV: b.sketches[ci].Estimate(), Sketch: b.sketches[ci]}
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
	Schema  string
	Name    string
	Bucket  string
	Columns *types.Schema
	Codec   compress.Codec
}

// AssembleTable builds a registerable catalog entry from sealed
// objects: metastore.NextTable adds them to an empty table, exactly as
// CommitObjects would, so a table assembled here and one committed
// object by object carry the same totals and statistics, the NDV of
// their merged sketches among them. keys and objs are parallel.
func AssembleTable(spec TableSpec, keys []string, objs []SealedObject) (*metastore.Table, error) {
	if len(keys) != len(objs) {
		return nil, fmt.Errorf("ingest: %d keys for %d sealed objects", len(keys), len(objs))
	}
	empty := &metastore.Table{
		Schema:      spec.Schema,
		Name:        spec.Name,
		Columns:     spec.Columns,
		Bucket:      spec.Bucket,
		Codec:       spec.Codec,
		ColumnStats: make(map[string]metastore.ColumnStats, spec.Columns.Len()),
	}
	for _, c := range spec.Columns.Columns {
		empty.ColumnStats[c.Name] = metastore.ColumnStats{ZoneMap: expr.ZoneMap{Min: types.NullValue(c.Type), Max: types.NullValue(c.Type)}}
	}
	adds := make([]metastore.ObjectAdd, len(objs))
	for i, o := range objs {
		adds[i] = metastore.ObjectAdd{Key: keys[i], Bytes: o.Bytes, Rows: o.Rows, Stats: o.Stats}
	}
	return metastore.NextTable(empty, adds, nil), nil
}
