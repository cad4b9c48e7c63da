package parquetlite

import (
	"encoding/binary"
	"fmt"
	"sync"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// decodeBufPool recycles scratch buffers for decompressing column chunks.
// decodeChunk copies every value out of the raw buffer (ints into vector
// storage, strings via string()), so the buffer can be recycled as soon
// as the chunk is decoded. A fresh buffer is empty: DecodeAppend grows it
// to the chunk, never past the footer's UncompressedSize, so a chunk read
// on an emptied pool allocates what it decodes and no fixed amount more.
var decodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Reader provides random access to a parquetlite file image: footer
// metadata, selective column-chunk reads and row-group pruning. It is
// immutable once opened, so one reader serves concurrent reads; the
// bytes a read costs are in the footer's chunk sizes.
type Reader struct {
	data []byte
	meta *FileMeta
}

// NewReader parses the footer of a file image.
func NewReader(data []byte) (*Reader, error) {
	tail := len(Magic) + 4
	if len(data) < len(Magic)+tail {
		return nil, ErrCorrupt
	}
	if string(data[:len(Magic)]) != string(Magic) ||
		string(data[len(data)-len(Magic):]) != string(Magic) {
		return nil, ErrCorrupt
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-tail:]))
	footerEnd := len(data) - tail
	footerStart := footerEnd - footerLen
	if footerStart < len(Magic) {
		return nil, ErrCorrupt
	}
	meta, err := decodeFooter(data[footerStart:footerEnd])
	if err != nil {
		return nil, fmt.Errorf("parquetlite: decoding footer: %w", err)
	}
	for _, rg := range meta.RowGroups {
		if len(rg.Chunks) != meta.Schema.Len() {
			return nil, ErrCorrupt
		}
		for _, ch := range rg.Chunks {
			if ch.Offset < int64(len(Magic)) || ch.CompressedSize < 0 || ch.CompressedSize > int64(footerStart)-ch.Offset {
				return nil, ErrCorrupt
			}
		}
	}
	return &Reader{data: data, meta: meta}, nil
}

// NewReaderWithMeta opens a file image with an already-decoded footer,
// skipping the footer decode and chunk-bounds validation that NewReader
// performs — the injected-footer path the storage node's footer cache
// uses. meta must have been produced by NewReader over a byte-identical
// image (the cache guarantees this by keying footers on the object
// version), so only the cheap magic framing is re-checked here.
func NewReaderWithMeta(data []byte, meta *FileMeta) (*Reader, error) {
	if len(data) < 2*len(Magic)+4 ||
		string(data[:len(Magic)]) != string(Magic) ||
		string(data[len(data)-len(Magic):]) != string(Magic) {
		return nil, ErrCorrupt
	}
	if meta == nil {
		return nil, fmt.Errorf("parquetlite: NewReaderWithMeta requires a footer")
	}
	return &Reader{data: data, meta: meta}, nil
}

// Meta returns the decoded footer.
func (r *Reader) Meta() *FileMeta { return r.meta }

// Schema returns the file schema.
func (r *Reader) Schema() *types.Schema { return r.meta.Schema }

// NumRows returns the total row count.
func (r *Reader) NumRows() int64 { return r.meta.NumRows }

// ReadColumn decompresses and decodes one column chunk.
func (r *Reader) ReadColumn(rowGroup, col int) (*column.Vector, error) {
	if rowGroup < 0 || rowGroup >= len(r.meta.RowGroups) {
		return nil, fmt.Errorf("parquetlite: row group %d out of range", rowGroup)
	}
	rg := r.meta.RowGroups[rowGroup]
	if col < 0 || col >= len(rg.Chunks) {
		return nil, fmt.Errorf("parquetlite: column %d out of range", col)
	}
	ch := rg.Chunks[col]
	comp := r.data[ch.Offset : ch.Offset+ch.CompressedSize]
	var raw []byte
	var scratch *[]byte
	if r.meta.Codec == compress.None {
		// Identity codec: decode straight from the file image. decodeChunk
		// copies every value out, so no aliasing escapes.
		raw = comp
	} else {
		scratch = decodeBufPool.Get().(*[]byte)
		var err error
		raw, err = compress.DecodeAppend(r.meta.Codec, comp, (*scratch)[:0], int(ch.UncompressedSize))
		if err != nil {
			decodeBufPool.Put(scratch)
			return nil, fmt.Errorf("parquetlite: chunk rg=%d col=%d: %w", rowGroup, col, err)
		}
	}
	// A chunk that decompresses to another length than the footer records
	// is not the chunk the footer describes.
	var vec *column.Vector
	err := ErrCorrupt
	if int64(len(raw)) == ch.UncompressedSize {
		vec, err = decodeChunk(raw, r.meta.Schema.Columns[col].Type, ch.Encoding)
	}
	if scratch != nil {
		if cap(raw) > cap(*scratch) {
			*scratch = raw[:0]
		}
		decodeBufPool.Put(scratch)
	}
	if err != nil {
		return nil, fmt.Errorf("parquetlite: chunk rg=%d col=%d: %w", rowGroup, col, err)
	}
	if int64(vec.Len()) != rg.NumRows {
		return nil, ErrCorrupt
	}
	return vec, nil
}

// ReadAll materializes the given columns of every row group, a page per
// group. cols is a list of schema ordinals; each page's schema is the
// projection in that order.
func (r *Reader) ReadAll(cols []int) ([]*column.Page, error) {
	schema := r.meta.Schema.Project(cols)
	pages := make([]*column.Page, len(r.meta.RowGroups))
	for rg := range pages {
		page := &column.Page{Schema: schema, Vectors: make([]*column.Vector, len(cols))}
		for i, c := range cols {
			vec, err := r.ReadColumn(rg, c)
			if err != nil {
				return nil, err
			}
			page.Vectors[i] = vec
		}
		pages[rg] = page
	}
	return pages, nil
}

// PruneRowGroupsRanges prunes with a precomputed range analysis, so one
// analysis can be shared across files and row groups. cols lists the
// schema ordinals the scan would decode; it is used only to account the
// compressed bytes a pruned group would have read. Returns the surviving
// group ordinals (in file order, preserving the deterministic merge order
// of the parallel scanner), the pruned ordinals, and the bytes skipped.
func (r *Reader) PruneRowGroupsRanges(ranges expr.Ranges, cols []int) (keep, pruned []int, bytesSkipped int64) {
	keep = make([]int, 0, len(r.meta.RowGroups))
	for i, group := range r.meta.RowGroups {
		// A column outside the schema, or a chunk whose stats were never
		// recorded (no values counted over rows present), keeps the group.
		if ranges.MayMatch(func(col int) (expr.ZoneMap, bool) {
			if col < 0 || col >= len(group.Chunks) {
				return expr.ZoneMap{}, false
			}
			st := group.Chunks[col].Stats
			return st, st.NumValues > 0 || group.NumRows == 0
		}) {
			keep = append(keep, i)
			continue
		}
		pruned = append(pruned, i)
		for _, c := range cols {
			if c >= 0 && c < len(group.Chunks) {
				bytesSkipped += group.Chunks[c].CompressedSize
			}
		}
	}
	return keep, pruned, bytesSkipped
}

// ColumnStats merges the chunk zone maps of one column across all row
// groups: the object's zone map for that column.
func (r *Reader) ColumnStats(col int) expr.ZoneMap {
	kind := r.meta.Schema.Columns[col].Type
	z := expr.ZoneMap{Min: types.NullValue(kind), Max: types.NullValue(kind)}
	for _, group := range r.meta.RowGroups {
		z.Merge(group.Chunks[col].Stats)
	}
	return z
}
