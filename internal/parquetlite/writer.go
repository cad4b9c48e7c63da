package parquetlite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	enc     groupEncoder // encodes the groups written inline
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
		enc:     groupEncoder{codec: opts.Codec},
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

// CheckPage returns an error unless the page's vectors match the schema
// in arity and kind, as WritePage requires.
func CheckPage(schema *types.Schema, p *column.Page) error {
	if len(p.Vectors) != schema.Len() {
		return fmt.Errorf("parquetlite: page has %d columns, schema has %d", len(p.Vectors), schema.Len())
	}
	for i, c := range schema.Columns {
		if p.Vectors[i].Kind != c.Type {
			return fmt.Errorf("parquetlite: column %s is %s, page vector is %s", c.Name, c.Type, p.Vectors[i].Kind)
		}
	}
	return nil
}

// WritePage appends all rows of a page that passes CheckPage. The rows
// that complete the pending group are copied into it; the whole row
// groups after them are encoded where they lie, by writeGroups; the rows
// left over are copied into the pending group.
func (w *Writer) WritePage(p *column.Page) error {
	if err := CheckPage(w.schema, p); err != nil {
		return err
	}
	size := w.opts.RowGroupSize
	from, n := 0, p.NumRows()
	if held := w.pending.NumRows(); held > 0 {
		from = min(n, size-held)
		if err := w.hold(p, 0, from); err != nil {
			return err
		}
	}
	groups := (n - from) / size
	if err := w.writeGroups(p, from, groups); err != nil {
		return err
	}
	return w.hold(p, from+groups*size, n)
}

// hold copies rows [from, to) of p into the pending group and encodes the
// group if they fill it.
func (w *Writer) hold(p *column.Page, from, to int) error {
	if from == to {
		return nil
	}
	for i, vec := range p.Vectors {
		w.pending.Vectors[i].AppendVector(vec.Window(from, to))
	}
	if w.pending.NumRows() == w.opts.RowGroupSize {
		return w.flushPending()
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

// writeGroup encodes rows [from, to) of p as one row group, inline.
func (w *Writer) writeGroup(p *column.Page, from, to int) error {
	buf, rg, err := w.enc.encode(w.buf, p, from, to)
	if err != nil {
		return err
	}
	w.buf = buf
	w.addGroup(rg)
	return nil
}

func (w *Writer) addGroup(rg RowGroupMeta) {
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.NumRows += rg.NumRows
}

// writeGroups encodes the given number of whole row groups of p that
// start at row from. A single group (every commit's) is encoded inline.
// More are handed out one at a time to min(GOMAXPROCS, groups) workers,
// each encoding into its own buffer with its own scratch; the groups are
// then appended to the image in row order, so the image is the same
// whichever worker encoded which group.
func (w *Writer) writeGroups(p *column.Page, from, groups int) error {
	size := w.opts.RowGroupSize
	workers := min(runtime.GOMAXPROCS(0), groups)
	if workers <= 1 {
		for g := 0; g < groups; g++ {
			if err := w.writeGroup(p, from+g*size, from+(g+1)*size); err != nil {
				return err
			}
		}
		return nil
	}
	type encoded struct {
		rg         RowGroupMeta // chunk offsets count from the start of bufs[worker]
		worker     int
		start, end int // the group's bytes in bufs[worker]
	}
	done := make([]encoded, groups)
	bufs := make([][]byte, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc := groupEncoder{codec: w.opts.Codec}
			for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
				d := &done[g]
				d.worker, d.start = k, len(bufs[k])
				bufs[k], d.rg, errs[k] = enc.encode(bufs[k], p, from+g*size, from+(g+1)*size)
				if errs[k] != nil {
					return
				}
				d.end = len(bufs[k])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	total := 0
	for _, d := range done {
		total += d.end - d.start
	}
	// One allocation for the groups, with a sixteenth more for what
	// usually follows them: the footer, a few dozen bytes per chunk.
	w.buf = slices.Grow(w.buf, total+total/16)
	for _, d := range done {
		shift := int64(len(w.buf) - d.start)
		for i := range d.rg.Chunks {
			d.rg.Chunks[i].Offset += shift
		}
		w.buf = append(w.buf, bufs[d.worker][d.start:d.end]...)
		w.addGroup(d.rg)
	}
	return nil
}

// groupEncoder encodes row groups, reusing one chunk-body buffer from
// chunk to chunk.
type groupEncoder struct {
	codec   compress.Codec
	scratch []byte
}

// encode appends rows [from, to) of p to dst as one row group's chunks.
// It returns the extended dst and the group's metadata, in which each
// chunk's Offset counts from the start of dst.
func (e *groupEncoder) encode(dst []byte, p *column.Page, from, to int) ([]byte, RowGroupMeta, error) {
	rg := RowGroupMeta{NumRows: int64(to - from), Chunks: make([]ChunkMeta, len(p.Vectors))}
	for i, vec := range p.Vectors {
		enc, stats, raw := encodeChunk(e.scratch, vec.Window(from, to))
		e.scratch = raw
		at := len(dst)
		var err error
		if dst, err = compress.EncodeAppend(e.codec, dst, raw); err != nil {
			return nil, rg, err
		}
		rg.Chunks[i] = ChunkMeta{
			Offset:           int64(at),
			CompressedSize:   int64(len(dst) - at),
			UncompressedSize: int64(len(raw)),
			Encoding:         enc,
			Stats:            stats,
		}
	}
	return dst, rg, nil
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
