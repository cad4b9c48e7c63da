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
// as the chunk is decoded.
var decodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<16)
		return &b
	},
}

// Reader provides random access to a parquetlite file image: footer
// metadata, selective column-chunk reads and row-group pruning. It also
// meters the bytes it touches (compressed reads and decompressed output)
// so the cost model can price storage I/O and decompression.
type Reader struct {
	data []byte
	meta *FileMeta

	// BytesRead accumulates compressed chunk bytes actually read.
	BytesRead int64
	// BytesDecompressed accumulates post-decompression chunk bytes.
	BytesDecompressed int64
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
	r.BytesRead += ch.CompressedSize
	var raw []byte
	var scratch *[]byte
	if r.meta.Codec == compress.None {
		// Identity codec: decode straight from the file image. decodeChunk
		// copies every value out, so no aliasing escapes.
		raw = comp
	} else {
		scratch = decodeBufPool.Get().(*[]byte)
		var err error
		raw, err = compress.DecodeAppend(r.meta.Codec, comp, (*scratch)[:0])
		if err != nil {
			decodeBufPool.Put(scratch)
			return nil, fmt.Errorf("parquetlite: chunk rg=%d col=%d: %w", rowGroup, col, err)
		}
	}
	r.BytesDecompressed += int64(len(raw))
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

// ReadRowGroup materializes the given columns of one row group as a page.
// cols is a list of schema ordinals; the resulting page's schema is the
// projection in that order.
func (r *Reader) ReadRowGroup(rowGroup int, cols []int) (*column.Page, error) {
	schema := r.meta.Schema.Project(cols)
	page := &column.Page{Schema: schema, Vectors: make([]*column.Vector, len(cols))}
	for i, c := range cols {
		vec, err := r.ReadColumn(rowGroup, c)
		if err != nil {
			return nil, err
		}
		page.Vectors[i] = vec
	}
	return page, nil
}

// ReadAll materializes the given columns of every row group.
func (r *Reader) ReadAll(cols []int) ([]*column.Page, error) {
	pages := make([]*column.Page, 0, len(r.meta.RowGroups))
	for rg := range r.meta.RowGroups {
		p, err := r.ReadRowGroup(rg, cols)
		if err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// PruneRowGroups returns the row groups that may contain rows matching
// the predicate, using chunk min/max/null statistics via the expr range
// analyzer (zone-map skipping). A nil predicate keeps everything.
func (r *Reader) PruneRowGroups(pred expr.Expr) []int {
	if pred == nil {
		keep := make([]int, len(r.meta.RowGroups))
		for i := range keep {
			keep[i] = i
		}
		return keep
	}
	keep, _, _ := r.PruneRowGroupsRanges(expr.AnalyzeRanges(pred), nil)
	return keep
}

// PruneRowGroupsRanges prunes with a precomputed range analysis, so one
// analysis can be shared across files and row groups. cols lists the
// schema ordinals the scan would decode (nil means every column); it is
// used only to account the compressed bytes a pruned group would have
// read. Returns the surviving group ordinals (in file order, preserving
// the deterministic merge order of the parallel scanner), the pruned
// ordinals, and the bytes skipped.
func (r *Reader) PruneRowGroupsRanges(ranges expr.Ranges, cols []int) (keep, pruned []int, bytesSkipped int64) {
	keep = make([]int, 0, len(r.meta.RowGroups))
	for i := range r.meta.RowGroups {
		if r.rowGroupMayMatch(i, ranges) {
			keep = append(keep, i)
			continue
		}
		pruned = append(pruned, i)
		bytesSkipped += r.rowGroupBytes(i, cols)
	}
	return keep, pruned, bytesSkipped
}

// rowGroupMayMatch tests one row group's chunk statistics against the
// derived ranges. Conservative on every unknown: a column outside the
// schema, or a chunk whose stats were never recorded, keeps the group.
func (r *Reader) rowGroupMayMatch(rg int, ranges expr.Ranges) bool {
	if ranges.Never {
		return false
	}
	group := r.meta.RowGroups[rg]
	for col, cr := range ranges.Cols {
		if col < 0 || col >= len(group.Chunks) {
			continue
		}
		st := group.Chunks[col].Stats
		if st.NumValues == 0 && group.NumRows > 0 {
			// Stats absent (e.g. footer written without them): never prune
			// on a chunk we know nothing about.
			continue
		}
		hasNull := st.NullCount > 0
		hasNonNull := st.NumValues > st.NullCount
		if !cr.MayMatch(st.Min, st.Max, hasNull, hasNonNull) {
			return false
		}
	}
	return true
}

// rowGroupBytes sums the compressed size of the projected chunks of one
// row group (nil cols means all chunks).
func (r *Reader) rowGroupBytes(rg int, cols []int) int64 {
	group := r.meta.RowGroups[rg]
	var n int64
	if cols == nil {
		for _, ch := range group.Chunks {
			n += ch.CompressedSize
		}
		return n
	}
	for _, c := range cols {
		if c >= 0 && c < len(group.Chunks) {
			n += group.Chunks[c].CompressedSize
		}
	}
	return n
}

func (r *Reader) chunkStats(rg, col int) *Stats {
	if rg < 0 || rg >= len(r.meta.RowGroups) {
		return nil
	}
	chunks := r.meta.RowGroups[rg].Chunks
	if col < 0 || col >= len(chunks) {
		return nil
	}
	return &chunks[col].Stats
}

// ColumnStats aggregates chunk statistics across all row groups for one
// column: global min/max, null count and value count. Used when
// registering tables in the metastore.
func (r *Reader) ColumnStats(col int) Stats {
	agg := Stats{
		Min: types.NullValue(r.meta.Schema.Columns[col].Type),
		Max: types.NullValue(r.meta.Schema.Columns[col].Type),
	}
	for rg := range r.meta.RowGroups {
		st := r.chunkStats(rg, col)
		agg.NullCount += st.NullCount
		agg.NumValues += st.NumValues
		if !st.Min.Null && (agg.Min.Null || types.Compare(st.Min, agg.Min) < 0) {
			agg.Min = st.Min
		}
		if !st.Max.Null && (agg.Max.Null || types.Compare(st.Max, agg.Max) > 0) {
			agg.Max = st.Max
		}
	}
	return agg
}
