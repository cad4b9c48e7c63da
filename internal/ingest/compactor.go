package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/scan"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// CompactorStore is the storage dependency of the compactor: it reads
// small objects back, writes the merged object, and physically deletes
// reaped tombstones. ocsserver.Client satisfies it.
type CompactorStore interface {
	ObjectWriter
	Get(ctx context.Context, bucket, key string) ([]byte, objstore.WorkStats, error)
	Delete(ctx context.Context, bucket, key string) error
}

// CompactorOptions tunes a Compactor.
type CompactorOptions struct {
	// SmallBytes marks objects below this stored size as merge
	// candidates (default 1 MiB).
	SmallBytes int64
	// MaxMerge caps source objects folded per run (default 16).
	MaxMerge int
	// ClusterBy names the column the merged object is re-sorted on to
	// sharpen its zone map. Empty picks the table's first column.
	ClusterBy string
	// Telemetry, when set, receives compaction counters and the
	// snapshot-pins gauge.
	Telemetry *telemetry.Registry
}

// CompactionResult reports one compaction run.
type CompactionResult struct {
	// Merged lists the source objects folded into Output (empty when
	// there was nothing to do).
	Merged []string
	// Output is the new object key ("" when no merge happened).
	Output string
	// OutputBytes is the merged object's stored size.
	OutputBytes int64
	// Reclaimed counts tombstoned objects physically deleted this run.
	Reclaimed int
}

// Compactor merges small objects into larger re-sorted ones in the
// background. A run is snapshot-safe by construction: the merged data
// is written under a NEW key, the object-set swap is one atomic
// metastore commit, and the replaced objects are only physically
// deleted after every query pin taken before the swap has been
// released — a scan planned against the old object set keeps reading
// the old objects untouched.
type Compactor struct {
	meta  *metastore.Metastore
	store CompactorStore
	opts  CompactorOptions

	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once
}

// NewCompactor builds a compactor over meta and store.
func NewCompactor(meta *metastore.Metastore, store CompactorStore, opts CompactorOptions) *Compactor {
	if opts.SmallBytes <= 0 {
		opts.SmallBytes = 1 << 20
	}
	if opts.MaxMerge <= 0 {
		opts.MaxMerge = 16
	}
	return &Compactor{meta: meta, store: store, opts: opts, stop: make(chan struct{})}
}

// RunOnce performs at most one merge on the table, then garbage-collects
// any tombstones no snapshot can still reference.
func (c *Compactor) RunOnce(ctx context.Context, schema, name string) (CompactionResult, error) {
	var res CompactionResult
	t, err := c.meta.Get(schema, name)
	if err != nil {
		return res, err
	}
	cluster := c.clusterColumn(t)
	ci := t.Columns.IndexOf(cluster)
	if ci < 0 {
		return res, fmt.Errorf("ingest: cluster column %q is not a column of %s.%s", cluster, schema, name)
	}
	cands := c.candidates(t)
	if len(cands) >= 2 {
		out, outBytes, err := c.merge(ctx, t, cands, ci, schema, name)
		if err != nil {
			return res, err
		}
		res.Merged, res.Output, res.OutputBytes = cands, out, outBytes
	}
	res.Reclaimed = c.collectGarbage(ctx, schema, name)
	if reg := c.opts.Telemetry; reg != nil {
		label := []string{"table", name}
		reg.Counter(telemetry.MetricCompactRuns, label...).Inc()
		reg.Counter(telemetry.MetricCompactMerged, label...).Add(int64(len(res.Merged)))
		reg.Counter(telemetry.MetricCompactBytes, label...).Add(res.OutputBytes)
		reg.Counter(telemetry.MetricCompactReclaimed, label...).Add(int64(res.Reclaimed))
		reg.Gauge(telemetry.MetricSnapshotPins).Set(int64(c.meta.PinnedCount()))
	}
	return res, nil
}

// candidates picks the small objects to merge, oldest-first in live-set
// order. Objects without recorded sizes (legacy catalogs) are skipped.
func (c *Compactor) candidates(t *metastore.Table) []string {
	var out []string
	for _, o := range t.Objects {
		b, ok := t.ObjectBytes[o]
		if !ok || b >= c.opts.SmallBytes {
			continue
		}
		out = append(out, o)
		if len(out) == c.opts.MaxMerge {
			break
		}
	}
	return out
}

// merge reads the candidate objects, re-sorts their union by column ci,
// writes the merged object under a fresh key and commits the swap.
func (c *Compactor) merge(ctx context.Context, t *metastore.Table, cands []string, ci int, schema, name string) (string, int64, error) {
	page, err := c.mergedPage(ctx, t, cands, ci)
	if err != nil {
		return "", 0, err
	}
	// The sorted page is whole, so the writer sees every output row group
	// at once and encodes them on all cores.
	builder := NewObjectBuilder(t.Columns, parquetlite.WriterOptions{Codec: t.Codec, RowGroupSize: 4096})
	if err := builder.AppendPage(page); err != nil {
		return "", 0, err
	}
	sealed, err := builder.Seal()
	if err != nil {
		return "", 0, err
	}
	out := fmt.Sprintf("%s-compact-%06d.pql", name, c.meta.NextObjectSeq(schema, name))
	if err := c.store.Put(ctx, t.Bucket, out, sealed.Image); err != nil {
		return "", 0, fmt.Errorf("ingest: storing compacted %s/%s: %w", t.Bucket, out, err)
	}
	add := metastore.ObjectAdd{Key: out, Bytes: sealed.Bytes, Rows: sealed.Rows, Stats: sealed.Stats}
	if _, err := c.meta.CommitObjects(schema, name, []metastore.ObjectAdd{add}, cands); err != nil {
		// The commit was refused (a candidate was removed meanwhile), so no
		// catalog entry or tombstone will ever name the output: delete it
		// now. If this delete fails too, the object is an orphan.
		_ = c.store.Delete(ctx, t.Bucket, out)
		return "", 0, err
	}
	return out, sealed.Bytes, nil
}

// mergedPage reads the candidate objects and returns their rows as one
// page sorted by column ci: the page merge writes.
func (c *Compactor) mergedPage(ctx context.Context, t *metastore.Table, cands []string, ci int) (*column.Page, error) {
	sources, err := c.readSources(ctx, t, cands)
	if err != nil {
		return nil, err
	}
	var pages []*column.Page
	for _, ps := range sources {
		pages = append(pages, ps...)
	}
	page := concat(t.Columns, pages)
	return page.Gather(clusterOrder(page, ci)), nil
}

// concat joins pages of the schema, in order, into one page. A String
// column whose every source vector is in dictionary form stays in it
// (unionDicts); any other column is appended as Page.AppendPage appends
// it, into a vector reserved for all the rows.
func concat(schema *types.Schema, pages []*column.Page) *column.Page {
	rows := 0
	for _, p := range pages {
		rows += p.NumRows()
	}
	out := &column.Page{Schema: schema, Vectors: make([]*column.Vector, schema.Len())}
	srcs := make([]*column.Vector, len(pages))
	for c, col := range schema.Columns {
		for i, p := range pages {
			srcs[i] = p.Vectors[c]
		}
		if vec := unionDicts(srcs, rows); vec != nil {
			out.Vectors[c] = vec
			continue
		}
		vec := column.NewVector(col.Type)
		vec.Reserve(rows)
		for _, src := range srcs {
			vec.AppendVector(src, nil)
		}
		out.Vectors[c] = vec
	}
	return out
}

// unionDicts concatenates vectors in dictionary form into one whose Dict
// is the union of theirs, in first-seen order: one map lookup per
// dictionary entry, and each source's codes remapped through an array.
// It returns nil unless every vector is in dictionary form.
func unionDicts(srcs []*column.Vector, rows int) *column.Vector {
	if len(srcs) == 0 {
		return nil
	}
	withNulls := false
	for _, src := range srcs {
		if src.Dict == nil {
			return nil
		}
		withNulls = withNulls || src.Nulls != nil
	}
	out := &column.Vector{Kind: types.String, Codes: make([]int32, 0, rows)}
	if withNulls {
		out.Nulls = make([]bool, 0, rows)
	}
	index := make(map[string]int32)
	var remap []int32
	for _, src := range srcs {
		remap = remap[:0]
		for _, s := range src.Dict {
			code, ok := index[s]
			if !ok {
				code = int32(len(out.Dict))
				index[s] = code
				out.Dict = append(out.Dict, s)
			}
			remap = append(remap, code)
		}
		for _, code := range src.Codes {
			out.Codes = append(out.Codes, remap[code])
		}
		if withNulls {
			if src.Nulls == nil {
				out.Nulls = append(out.Nulls, make([]bool, len(src.Codes))...)
			} else {
				out.Nulls = append(out.Nulls, src.Nulls...)
			}
		}
	}
	return out
}

// readSources fetches and decodes the candidates concurrently, one
// goroutine each (at most MaxMerge), and returns each one's pages in
// candidate order. Each is read through scan.Open against the table's
// schema, so a source whose stored schema drifted fails the run instead
// of being merged under the table's names. The first failure in
// candidate order is returned.
func (c *Compactor) readSources(ctx context.Context, t *metastore.Table, cands []string) ([][]*column.Page, error) {
	sources := make([][]*column.Page, len(cands))
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	for i, key := range cands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if sources[i], err = c.readSource(ctx, t, key); err != nil {
				errs[i] = fmt.Errorf("ingest: compaction read %s/%s: %w", t.Bucket, key, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// readSource reads every row group of one candidate.
func (c *Compactor) readSource(ctx context.Context, t *metastore.Table, key string) ([]*column.Page, error) {
	img, _, err := c.store.Get(ctx, t.Bucket, key)
	if err != nil {
		return nil, err
	}
	obj, err := scan.Open(nil, "", img, t.Columns, nil, nil)
	if err != nil {
		return nil, err
	}
	pages := make([]*column.Page, obj.Len())
	for i := range pages {
		if pages[i], err = obj.Read(i); err != nil {
			return nil, err
		}
	}
	return pages, nil
}

// clusterColumn names the column merged objects are sorted on, so that
// their zone maps cover a tight range instead of the union of their
// sources.
func (c *Compactor) clusterColumn(t *metastore.Table) string {
	if c.opts.ClusterBy != "" {
		return c.opts.ClusterBy
	}
	return t.Columns.Columns[0].Name
}

// sortEntry is one non-NULL row of the cluster column: a 64-bit key whose
// unsigned order is the column's order (for a string, its first eight
// bytes), and the row's ordinal in the merged input.
type sortEntry struct {
	key uint64
	row int
}

// clusterOrder returns the page's row ordinals sorted by column ci: NULLs
// first, then types.Compare's order on the value (for floats the total
// order in which -0 equals +0 and every NaN is equal and greatest), ties
// in input order — the order a stable sort under types.Compare gives.
// Every compaction input is in ingest order, not cluster order, so there
// is one sort and no merge of sorted runs: a radix sort on the keys, and
// for strings a comparison sort of each run whose first eight bytes tie.
func clusterOrder(page *column.Page, ci int) []int {
	n := page.NumRows()
	order := make([]int, 0, n)
	vec := page.Vectors[ci]
	var strs []string
	if vec.Kind == types.String {
		strs = vec.StringSlice()
	}
	ents := make([]sortEntry, 0, n)
	for i := 0; i < n; i++ {
		if vec.IsNull(i) {
			order = append(order, i)
			continue
		}
		var key uint64
		switch vec.Kind {
		case types.Int64, types.Date:
			key = uint64(vec.Ints[i]) ^ 1<<63
		case types.Float64:
			switch f := vec.Floats[i]; {
			case f != f:
				key = math.MaxUint64
			case f >= 0: // -0 gets +0's key
				key = math.Float64bits(f) | 1<<63
			default:
				key = ^math.Float64bits(f)
			}
		case types.Bool:
			if vec.Bools[i] {
				key = 1
			}
		case types.String:
			var head [8]byte
			copy(head[:], strs[i])
			key = binary.BigEndian.Uint64(head[:])
		}
		ents = append(ents, sortEntry{key, i})
	}
	ents = radixSort(ents, make([]sortEntry, len(ents)))
	if vec.Kind == types.String {
		sortHeadRuns(ents, strs)
	}
	for _, e := range ents {
		order = append(order, e.row)
	}
	return order
}

// radixSort sorts ents by key, stably, and returns the sorted slice,
// which is either ents or tmp (as long as ents). It is an LSD radix sort:
// one pass counts all eight key bytes, then each byte, lowest first,
// scatters the entries by its value — except a byte that is the same in
// every key, which would leave the order as it is and gets no pass. A
// cluster key in [0, 4096), say, takes two passes.
func radixSort(ents, tmp []sortEntry) []sortEntry {
	var counts [8][256]int
	for _, e := range ents {
		k := e.key // unrolled: a loop over the eight bytes shifts by a variable and is slower
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for b := range counts {
		c := &counts[b]
		if len(ents) == 0 || c[byte(ents[0].key>>(8*b))] == len(ents) {
			continue
		}
		at := 0
		for v, k := range c {
			c[v], at = at, at+k
		}
		for _, e := range ents {
			d := byte(e.key >> (8 * b))
			tmp[c[d]] = e
			c[d]++
		}
		ents, tmp = tmp, ents
	}
	return ents
}

// sortHeadRuns finishes a string column's order: after radixSort, each
// run of entries whose keys (first eight bytes) tie is sorted by the full
// string, ties by row, which is the input order the radix sort kept.
func sortHeadRuns(ents []sortEntry, strs []string) {
	byString := func(a, b sortEntry) int {
		if c := strings.Compare(strs[a.row], strs[b.row]); c != 0 {
			return c
		}
		return a.row - b.row
	}
	for lo := 0; lo < len(ents); {
		hi := lo + 1
		for hi < len(ents) && ents[hi].key == ents[lo].key {
			hi++
		}
		if run := ents[lo:hi]; !slices.IsSortedFunc(run, byString) {
			slices.SortFunc(run, byString)
		}
		lo = hi
	}
}

// collectGarbage physically deletes tombstoned objects no outstanding
// pin can reference. A tombstone is dropped only once its object is gone
// from storage; one whose delete failed is retried by the next run.
func (c *Compactor) collectGarbage(ctx context.Context, schema, name string) int {
	return c.meta.ReapTombstones(schema, name, func(ts metastore.Tombstone) error {
		return c.store.Delete(ctx, ts.Bucket, ts.Key)
	})
}

// Start launches a background loop compacting the table every interval
// until Stop (or ctx cancellation).
func (c *Compactor) Start(ctx context.Context, schema, name string, interval time.Duration) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.stop:
				return
			case <-tick.C:
				// Errors are reported through telemetry-visible absence of
				// progress; the loop keeps trying.
				_, _ = c.RunOnce(ctx, schema, name)
			}
		}
	}()
}

// Stop halts background loops and waits for them to exit.
func (c *Compactor) Stop() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}
