package ingest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// ObjectWriter is the storage dependency of the ingester: Put through
// the OCS frontend (ocsserver.Client) or any equivalent store.
type ObjectWriter interface {
	Put(ctx context.Context, bucket, key string, data []byte) error
}

// Options tunes an Ingester.
type Options struct {
	// FlushRows caps buffered rows per table before a flush seals an
	// object (default 4096). Small on purpose: fresh data becomes
	// queryable quickly and the compactor merges the small objects later.
	FlushRows int
	// RowGroupSize is passed to the parquetlite writer (default 4096,
	// matching the workload generators).
	RowGroupSize int
	// Telemetry, when set, receives ingest counters.
	Telemetry *telemetry.Registry
}

// Ingester buffers appended rows per table and turns them into
// parquetlite objects registered with fresh zone maps. Durability
// ordering is put-then-commit: the object is stored before the
// metastore commit makes it visible, so an ingest killed between the
// two leaves only an invisible orphan — never a catalog entry pointing
// at missing data, and never a partial object in the live set.
type Ingester struct {
	meta  *metastore.Metastore
	store ObjectWriter
	opts  Options

	mu   sync.Mutex
	bufs map[string]*tableBuffer
}

type tableBuffer struct {
	schema  string
	name    string
	builder *ObjectBuilder
}

// NewIngester builds an ingester writing through store and committing
// to meta.
func NewIngester(meta *metastore.Metastore, store ObjectWriter, opts Options) *Ingester {
	if opts.FlushRows <= 0 {
		opts.FlushRows = 4096
	}
	if opts.RowGroupSize <= 0 {
		opts.RowGroupSize = 4096
	}
	return &Ingester{meta: meta, store: store, opts: opts, bufs: make(map[string]*tableBuffer)}
}

// CreateTable registers an empty table the ingest path can append to.
func (ing *Ingester) CreateTable(spec TableSpec) error {
	if spec.Bucket == "" {
		return fmt.Errorf("ingest: table %s.%s needs a bucket", spec.Schema, spec.Name)
	}
	t, err := AssembleTable(spec, nil, nil)
	if err != nil {
		return err
	}
	return ing.meta.Register(t)
}

// Append buffers rows for the table, sealing and committing an object
// every FlushRows rows. Rows must match the table schema in arity and
// kind (the analyzer coerces INSERT literals before they get here): a
// NULL of any kind fits any column, and BIGINT and DATE values fit
// either's column. Each stretch of rows up to the next flush point is
// transposed into one typed page for ObjectBuilder.AppendPage. A row that
// does not fit is an error, not a panic; the rows before it are
// accepted. Returns the number of rows accepted.
func (ing *Ingester) Append(ctx context.Context, schema, name string, rows [][]types.Value) (int64, error) {
	t, err := ing.meta.Get(schema, name)
	if err != nil {
		return 0, err
	}
	key := schema + "." + name
	ing.mu.Lock()
	defer ing.mu.Unlock()
	buf := ing.bufs[key]
	if buf == nil {
		buf = &tableBuffer{schema: schema, name: name}
		ing.bufs[key] = buf
	}
	var accepted int64
	for len(rows) > 0 {
		// flushLocked spends the builder; start a fresh object lazily.
		if buf.builder == nil {
			buf.builder = ing.newBuilder(t)
		}
		// A builder whose flush failed may be full; it takes a row at a
		// time, as it did before, and each retries the flush.
		room := max(int64(ing.opts.FlushRows)-buf.builder.rows, 1)
		stretch := rows[:min(int64(len(rows)), room)]
		rows = rows[len(stretch):]
		page, good, bad := pageOfRows(t.Columns, stretch)
		if good > 0 {
			if err := buf.builder.AppendPage(page); err != nil {
				return accepted, err
			}
			accepted += int64(good)
		}
		if bad != nil {
			return accepted, bad
		}
		if buf.builder.rows >= int64(ing.opts.FlushRows) {
			if err := ing.flushLocked(ctx, buf); err != nil {
				return accepted, err
			}
		}
	}
	return accepted, nil
}

// pageOfRows transposes rows into one page of the schema, one typed loop
// per column, with a NULL mask only for a column that holds a NULL. It
// stops at the first row that does not fit the schema: the page holds the
// good rows before it, and err says why it does not fit.
func pageOfRows(schema *types.Schema, rows [][]types.Value) (page *column.Page, good int, err error) {
	good = len(rows)
	for r, row := range rows {
		if err = fits(schema, row); err != nil {
			good = r
			break
		}
	}
	rows = rows[:good]
	page = &column.Page{Schema: schema, Vectors: make([]*column.Vector, schema.Len())}
	for c, col := range schema.Columns {
		vec := &column.Vector{Kind: col.Type}
		for r, row := range rows {
			if row[c].Null {
				if vec.Nulls == nil {
					vec.Nulls = make([]bool, good)
				}
				vec.Nulls[r] = true
			}
		}
		// NULL rows keep the zero value, as Vector.Append leaves them.
		switch col.Type {
		case types.Int64, types.Date:
			vec.Ints = make([]int64, good)
			for r, row := range rows {
				if !row[c].Null {
					vec.Ints[r] = row[c].I
				}
			}
		case types.Float64:
			vec.Floats = make([]float64, good)
			for r, row := range rows {
				if !row[c].Null {
					vec.Floats[r] = row[c].F
				}
			}
		case types.String:
			vec.Strings = make([]string, good)
			for r, row := range rows {
				if !row[c].Null {
					vec.Strings[r] = row[c].S
				}
			}
		case types.Bool:
			vec.Bools = make([]bool, good)
			for r, row := range rows {
				if !row[c].Null {
					vec.Bools[r] = row[c].B
				}
			}
		}
		page.Vectors[c] = vec
	}
	return page, good, err
}

// fits returns an error unless row fits the schema as Vector.Append
// accepts a value: one value per column, each NULL or of the column's
// kind, BIGINT and DATE standing for each other.
func fits(schema *types.Schema, row []types.Value) error {
	if len(row) != schema.Len() {
		return fmt.Errorf("ingest: row has %d values, schema has %d columns", len(row), schema.Len())
	}
	for c, col := range schema.Columns {
		v := row[c]
		if !v.Null && v.Kind != col.Type && !(isInteger(v.Kind) && isInteger(col.Type)) {
			return fmt.Errorf("ingest: column %s is %s, value is %s", col.Name, col.Type, v.Kind)
		}
	}
	return nil
}

func isInteger(k types.Kind) bool { return k == types.Int64 || k == types.Date }

// Flush seals and commits any buffered rows for the table, making them
// queryable. No-op when the buffer is empty.
func (ing *Ingester) Flush(ctx context.Context, schema, name string) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	buf := ing.bufs[schema+"."+name]
	if buf == nil || buf.builder == nil || buf.builder.rows == 0 {
		return nil
	}
	return ing.flushLocked(ctx, buf)
}

// FlushAll flushes every table with buffered rows.
func (ing *Ingester) FlushAll(ctx context.Context) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for _, buf := range ing.bufs {
		if buf.builder == nil || buf.builder.rows == 0 {
			continue
		}
		if err := ing.flushLocked(ctx, buf); err != nil {
			return err
		}
	}
	return nil
}

// BufferedRows reports rows accepted but not yet committed for the
// table (visible to tests and the CLI).
func (ing *Ingester) BufferedRows(schema, name string) int64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	buf := ing.bufs[schema+"."+name]
	if buf == nil || buf.builder == nil {
		return 0
	}
	return buf.builder.rows
}

func (ing *Ingester) newBuilder(t *metastore.Table) *ObjectBuilder {
	return NewObjectBuilder(t.Columns, parquetlite.WriterOptions{
		Codec:        t.Codec,
		RowGroupSize: ing.opts.RowGroupSize,
	})
}

// flushLocked seals the buffer into an object, stores it, then commits
// it to the metastore — in that order. Caller holds ing.mu.
func (ing *Ingester) flushLocked(ctx context.Context, buf *tableBuffer) error {
	start := time.Now()
	t, err := ing.meta.Get(buf.schema, buf.name)
	if err != nil {
		return err
	}
	sealed, err := buf.builder.Seal()
	if err != nil {
		return err
	}
	// The builder is spent whether or not the store/commit below
	// succeeds; a failed flush drops the batch (the caller sees the
	// error) rather than re-sealing a finished writer.
	buf.builder = nil
	key := fmt.Sprintf("%s-ingest-%06d.pql", buf.name, ing.meta.NextObjectSeq(buf.schema, buf.name))
	if err := ing.store.Put(ctx, t.Bucket, key, sealed.Image); err != nil {
		return fmt.Errorf("ingest: storing %s/%s: %w", t.Bucket, key, err)
	}
	add := metastore.ObjectAdd{Key: key, Bytes: sealed.Bytes, Rows: sealed.Rows, Stats: sealed.Stats}
	if _, err := ing.meta.CommitObjects(buf.schema, buf.name, []metastore.ObjectAdd{add}, nil); err != nil {
		return err
	}
	if reg := ing.opts.Telemetry; reg != nil {
		label := []string{"table", buf.name}
		reg.Counter(telemetry.MetricIngestRows, label...).Add(sealed.Rows)
		reg.Counter(telemetry.MetricIngestObjects, label...).Inc()
		reg.Counter(telemetry.MetricIngestBytes, label...).Add(sealed.Bytes)
		reg.Histogram(telemetry.MetricIngestFlushUs, label...).ObserveDuration(time.Since(start))
	}
	return nil
}
