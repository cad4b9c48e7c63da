package parquetlite

import (
	"encoding/binary"
	"fmt"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/types"
)

// WriterOptions configures file writing.
type WriterOptions struct {
	// Codec compresses every column chunk. Default None.
	Codec compress.Codec
	// RowGroupSize caps rows per row group. Default 65536.
	RowGroupSize int
}

// Writer cuts the rows and pages it is given into row groups and
// produces a parquetlite file image.
type Writer struct {
	schema  *types.Schema
	opts    WriterOptions
	buf     []byte
	pending *column.Page // the rows after the last whole group
	scratch []byte       // one chunk body before compression, reused
	meta    FileMeta
}

// NewWriter starts a file with the given schema.
func NewWriter(schema *types.Schema, opts WriterOptions) *Writer {
	if opts.RowGroupSize <= 0 {
		opts.RowGroupSize = 65536
	}
	w := &Writer{
		schema:  schema,
		opts:    opts,
		pending: column.NewPage(schema),
		meta:    FileMeta{Schema: schema, Codec: opts.Codec},
	}
	w.buf = append(w.buf, Magic...)
	return w
}

// WriteRow appends one row to the pending group, which is encoded when
// this row fills it.
func (w *Writer) WriteRow(vals ...types.Value) error {
	if len(vals) != w.schema.Len() {
		return fmt.Errorf("parquetlite: row has %d values, schema has %d columns", len(vals), w.schema.Len())
	}
	w.pending.AppendRow(vals...)
	if w.pending.NumRows() >= w.opts.RowGroupSize {
		return w.flushPending()
	}
	return nil
}

// WritePage appends all rows of a page whose vectors match the schema in
// arity and kind. A stretch of the page that fills a whole row group is
// encoded where it lies; only the rows around such stretches are copied,
// into the pending group.
func (w *Writer) WritePage(p *column.Page) error {
	if len(p.Vectors) != w.schema.Len() {
		return fmt.Errorf("parquetlite: page has %d columns, schema has %d", len(p.Vectors), w.schema.Len())
	}
	for i, c := range w.schema.Columns {
		if p.Vectors[i].Kind != c.Type {
			return fmt.Errorf("parquetlite: column %s is %s, page vector is %s", c.Name, c.Type, p.Vectors[i].Kind)
		}
	}
	size := w.opts.RowGroupSize
	for from, n := 0, p.NumRows(); from < n; {
		held := w.pending.NumRows()
		if held == 0 && n-from >= size {
			if err := w.writeGroup(p, from, from+size); err != nil {
				return err
			}
			from += size
			continue
		}
		to := min(n, from+size-held)
		for i, vec := range p.Vectors {
			w.pending.Vectors[i].AppendVector(vec.Window(from, to))
		}
		if held+to-from == size {
			if err := w.flushPending(); err != nil {
				return err
			}
		}
		from = to
	}
	return nil
}

func (w *Writer) flushPending() error {
	p := w.pending
	if p.NumRows() == 0 {
		return nil
	}
	w.pending = column.NewPage(w.schema)
	return w.writeGroup(p, 0, p.NumRows())
}

// writeGroup encodes rows [from, to) of p as one row group.
func (w *Writer) writeGroup(p *column.Page, from, to int) error {
	rg := RowGroupMeta{NumRows: int64(to - from), Chunks: make([]ChunkMeta, len(p.Vectors))}
	for i, vec := range p.Vectors {
		enc, stats, raw := encodeChunk(w.scratch, vec.Window(from, to))
		w.scratch = raw
		comp, err := compress.Encode(w.opts.Codec, raw)
		if err != nil {
			return err
		}
		rg.Chunks[i] = ChunkMeta{
			Offset:           int64(len(w.buf)),
			CompressedSize:   int64(len(comp)),
			UncompressedSize: int64(len(raw)),
			Encoding:         enc,
			Stats:            stats,
		}
		w.buf = append(w.buf, comp...)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.NumRows += rg.NumRows
	return nil
}

// Finish flushes pending rows, appends the footer and returns the
// complete file image. The writer must not be reused afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if err := w.flushPending(); err != nil {
		return nil, err
	}
	footer, err := encodeFooter(&w.meta)
	if err != nil {
		return nil, err
	}
	w.buf = append(w.buf, footer...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(footer)))
	w.buf = append(w.buf, Magic...)
	return w.buf, nil
}

// WritePages is a convenience helper producing a complete file from pages.
func WritePages(schema *types.Schema, opts WriterOptions, pages ...*column.Page) ([]byte, error) {
	w := NewWriter(schema, opts)
	for _, p := range pages {
		if err := w.WritePage(p); err != nil {
			return nil, err
		}
	}
	return w.Finish()
}
