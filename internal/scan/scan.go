// Package scan is the one storage read of a parquetlite object, under
// every entry point: the storage node's pushdown scan (ocsserver), the
// S3 Select baseline (objstore), the no-pushdown whole-object scan
// (engine) and compaction's read of its sources (ingest). Open decodes
// the footer (through the node's footer cache when one is given), checks
// the stored schema, prunes row groups by their zone maps and returns an
// Object that exposes only the survivors; Read decodes one survivor's
// column subset (through the hot-page cache when one is given) and
// charges the chunks it decoded to the Object's I/O. The two caches
// (cache.go) are filled and read nowhere else.
//
// A pruned row group cannot be decoded: Read indexes the keep-list, not
// the file. This package, ingest and workload are the only ones that
// import internal/parquetlite (make vet-scan checks it), so no other read
// can go around the pruning step.
package scan

import (
	"fmt"
	"sync/atomic"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/expr"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// Object is one read of one object: the stored footer, the columns the
// read decodes and the row groups that survived pruning. It is safe for
// concurrent Read calls; the parquetlite reader under it is immutable.
type Object struct {
	r      *parquetlite.Reader
	pages  *level
	key    string
	cols   []int
	schema *types.Schema
	groups []int

	pruned       []int
	bytesSkipped int64

	bytesRead, bytesDecompressed atomic.Int64
}

// IO is the storage work an Object's reads have charged so far: the
// compressed and decompressed sizes the footer lists for every chunk
// decoded (page-cache hits charge nothing) and the CPU the codec spent.
type IO struct {
	BytesRead         int64
	BytesDecompressed int64
	CPUUnits          float64
}

// Open opens the object image data for a read of the columns cols
// (full-schema ordinals, in output order; nil reads every column).
//
// caches is the node's cache bundle (nil reads uncached) and key the
// object version's cache key (ObjectKey). want, when not nil, must
// equal the stored schema. pred, when not nil, is a predicate over the
// read's output ordinals: Open remaps it to full-schema ordinals and
// drops the row groups whose zone maps prove it false.
func Open(caches *Caches, key string, data []byte, want *types.Schema, cols []int, pred expr.Expr) (*Object, error) {
	r, err := caches.openFooter(key, data)
	if err != nil {
		return nil, err
	}
	stored := r.Schema()
	if want != nil && !want.Equal(stored) {
		return nil, fmt.Errorf("scan: expected schema %s does not match object schema %s", want, stored)
	}
	if cols == nil {
		cols = make([]int, stored.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= stored.Len() {
			return nil, fmt.Errorf("scan: column %d outside a %d-column object", c, stored.Len())
		}
	}
	o := &Object{r: r, pages: caches.Pages(), key: key, cols: cols, schema: stored.Project(cols)}
	o.groups = make([]int, len(r.Meta().RowGroups))
	for i := range o.groups {
		o.groups[i] = i
	}
	if pred == nil {
		return o, nil
	}
	// A predicate that does not remap onto the read's columns prunes
	// nothing.
	mapping := make(map[int]int, len(cols))
	for out, full := range cols {
		mapping[out] = full
	}
	remapped, err := expr.Remap(pred, mapping)
	if err != nil {
		return o, nil
	}
	if ranges := expr.AnalyzeRanges(remapped); ranges.Constrained() {
		keep, pruned, skipped := r.PruneRowGroupsRanges(ranges, cols)
		if len(pruned) > 0 {
			o.groups, o.pruned, o.bytesSkipped = keep, pruned, skipped
		}
	}
	return o, nil
}

// Schema is the read's output schema: the stored columns cols named.
func (o *Object) Schema() *types.Schema { return o.schema }

// Len is the number of row groups that survived pruning.
func (o *Object) Len() int { return len(o.groups) }

// Group is the file ordinal of the i-th surviving row group.
func (o *Object) Group(i int) int { return o.groups[i] }

// Pruned lists the row groups pruning dropped, in file order, and the
// compressed bytes of the read's columns they would have cost.
func (o *Object) Pruned() ([]int, int64) { return o.pruned, o.bytesSkipped }

// Read decodes the read's columns of the i-th surviving row group
// (0 <= i < Len()) into a page of Schema(). Chunks come from the page
// cache when it holds them and go into it when decoded.
func (o *Object) Read(i int) (*column.Page, error) {
	rg := o.groups[i]
	chunks := o.r.Meta().RowGroups[rg].Chunks
	page := &column.Page{Schema: o.schema, Vectors: make([]*column.Vector, len(o.cols))}
	for j, c := range o.cols {
		var key string
		if o.pages != nil {
			key = pageKey(o.key, rg, c)
			if vec, ok := o.pages.get(key); ok {
				page.Vectors[j] = vec.(*column.Vector)
				continue
			}
		}
		vec, err := o.r.ReadColumn(rg, c)
		if err != nil {
			return nil, err
		}
		o.bytesRead.Add(chunks[c].CompressedSize)
		o.bytesDecompressed.Add(chunks[c].UncompressedSize)
		if o.pages != nil {
			// ByteSize walks a string chunk's values: an uncached read
			// does not pay it.
			o.pages.put(key, vec, vec.ByteSize()+int64(len(key)))
		}
		page.Vectors[j] = vec
	}
	return page, nil
}

// IO reports the work the reads so far have charged.
func (o *Object) IO() IO {
	dec := o.bytesDecompressed.Load()
	return IO{
		BytesRead:         o.bytesRead.Load(),
		BytesDecompressed: dec,
		CPUUnits:          float64(dec) * compress.DecompressCostPerByte(o.r.Meta().Codec),
	}
}
