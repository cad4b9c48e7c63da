package scan

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
)

// The storage node's two cache levels (DESIGN.md §6) sit between repeated
// reads and the decode work they would otherwise redo:
//
//   - the footer level holds decoded parquetlite footers (FileMeta,
//     including the chunk statistics zone-map pruning consumes), keyed by
//     object version, so Open prunes without re-decoding;
//   - the page level holds decoded column chunks keyed by (object
//     version, row group, column).
//
// Both are one level type: a byte-budget LRU with its counters and gauges.
// Every decoded value that fits the budget enters its level on first put;
// recency alone decides what stays.
//
// Shared-value safety: cached *parquetlite.FileMeta and *column.Vector
// values are immutable by convention — the exec operator library never
// mutates input vectors in place (filter, gather, slice and append all
// copy) — which is what makes handing the same cached value to concurrent
// queries sound.
//
// There is no singleflight on footer decodes: no workload opens one cold
// object from two requests at once, and when one does the cost is one
// extra footer decode of tens of microseconds.

// Default budgets, overridable via cmd/ocsd flags.
const (
	// DefaultFooterCacheBytes bounds the per-node decoded-footer cache.
	DefaultFooterCacheBytes = 8 << 20
	// DefaultPageCacheBytes bounds the per-node decoded-chunk cache.
	DefaultPageCacheBytes = 64 << 20
)

// ObjectKey names one version of one object: "bucket/object@generation".
// The generation comes from the object store and is bumped on every Put,
// so a re-put object can never hit a stale footer or page entry — keys for
// the old version simply stop being requested and age out of the LRU.
func ObjectKey(bucket, object string, version uint64) string {
	return bucket + "/" + object + "@" + strconv.FormatUint(version, 10)
}

// pageKey names one decoded column chunk of one object version.
func pageKey(objectKey string, rowGroup, col int) string {
	return objectKey + "#" + strconv.Itoa(rowGroup) + ":" + strconv.Itoa(col)
}

// objectPrefix covers every version of one object, for early invalidation.
func objectPrefix(bucket, object string) string {
	return bucket + "/" + object + "@"
}

// level is one cache level: a thread-safe LRU map bounded by a byte budget
// rather than an entry count, so one level can hold values of very
// different sizes (a 2 KiB footer next to a 1 MiB column chunk) without
// tuning. A nil *level caches nothing: get misses and put drops.
type level struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // element value is *entry

	nHits, nMisses          atomic.Int64
	hits, misses, evictions *telemetry.Counter
	bytesG, hitRatio        *telemetry.Gauge
}

type entry struct {
	key  string
	val  any
	size int64
}

// newLevel builds a level with the given byte budget; budget <= 0 returns
// nil, a disabled level.
func newLevel(budget int64) *level {
	if budget <= 0 {
		return nil
	}
	return &level{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// instrument binds the level's hits, misses, evictions, bytes and
// hit-ratio instruments, named in that order.
func (l *level) instrument(reg *telemetry.Registry, labels []string, hits, misses, evictions, bytes, ratio string) {
	if l == nil {
		return
	}
	l.hits = reg.Counter(hits, labels...)
	l.misses = reg.Counter(misses, labels...)
	l.evictions = reg.Counter(evictions, labels...)
	l.bytesG = reg.Gauge(bytes, labels...)
	l.hitRatio = reg.Gauge(ratio, labels...)
}

// get returns the cached value, refreshes its recency and counts the
// lookup.
func (l *level) get(key string) (any, bool) {
	if l == nil {
		return nil, false
	}
	var val any
	l.mu.Lock()
	el, ok := l.items[key]
	if ok {
		l.ll.MoveToFront(el)
		val = el.Value.(*entry).val
	}
	l.mu.Unlock()
	if !ok {
		l.misses.Inc()
		l.nMisses.Add(1)
		l.setRatio()
		return nil, false
	}
	l.hits.Inc()
	l.nHits.Add(1)
	l.setRatio()
	return val, true
}

func (l *level) setRatio() {
	h, m := l.nHits.Load(), l.nMisses.Load()
	if h+m > 0 {
		l.hitRatio.Set(h * 100 / (h + m))
	}
}

// put inserts or refreshes an entry, evicting from the cold end until the
// budget holds. A value larger than the entire budget is rejected instead
// of flushing the whole level for one entry.
func (l *level) put(key string, val any, size int64) bool {
	if l == nil || size > l.budget {
		return false
	}
	l.mu.Lock()
	if el, ok := l.items[key]; ok {
		e := el.Value.(*entry)
		l.used += size - e.size
		e.val, e.size = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&entry{key: key, val: val, size: size})
		l.used += size
	}
	evicted := 0
	for l.used > l.budget {
		el := l.ll.Back()
		e := el.Value.(*entry)
		l.ll.Remove(el)
		delete(l.items, e.key)
		l.used -= e.size
		evicted++
	}
	l.bytesG.Set(l.used)
	l.mu.Unlock()
	if evicted > 0 {
		l.evictions.Add(int64(evicted))
	}
	return true
}

// invalidatePrefix drops every entry whose key starts with prefix (used
// to release all versions of one object early; version-embedded keys
// already guarantee stale entries can never be hit).
func (l *level) invalidatePrefix(prefix string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, el := range l.items {
		if strings.HasPrefix(key, prefix) {
			l.used -= el.Value.(*entry).size
			l.ll.Remove(el)
			delete(l.items, key)
		}
	}
	l.bytesG.Set(l.used)
}

// purge drops every entry. It is an explicit flush,
// not capacity pressure, so nothing counts as evicted; lifetime hit and
// miss counts are kept.
func (l *level) purge() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ll.Init()
	l.items = make(map[string]*list.Element)
	l.used = 0
	l.bytesG.Set(0)
}

// Bytes reports the current budget usage (0 on a disabled level).
func (l *level) Bytes() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Caches bundles the storage node's footer and page levels. A nil
// *Caches, or a disabled level inside one, behaves exactly like the
// uncached read.
type Caches struct {
	footers *level
	pages   *level
}

// NewCaches builds the storage-node cache bundle; a zero or negative
// budget disables that level.
func NewCaches(footerBytes, pageBytes int64) *Caches {
	return &Caches{footers: newLevel(footerBytes), pages: newLevel(pageBytes)}
}

func (c *Caches) footer() *level {
	if c == nil {
		return nil
	}
	return c.footers
}

// Pages returns the page level (disabled on a nil bundle).
func (c *Caches) Pages() *level {
	if c == nil {
		return nil
	}
	return c.pages
}

// Instrument binds both levels' telemetry instruments; call before the
// node serves queries.
func (c *Caches) Instrument(reg *telemetry.Registry, labels ...string) {
	if c == nil {
		return
	}
	c.footers.instrument(reg, labels, telemetry.MetricFooterCacheHits, telemetry.MetricFooterCacheMisses,
		telemetry.MetricFooterCacheEvictions, telemetry.MetricFooterCacheBytes, telemetry.MetricFooterCacheHitRatio)
	c.pages.instrument(reg, labels, telemetry.MetricPageCacheHits, telemetry.MetricPageCacheMisses,
		telemetry.MetricPageCacheEvictions, telemetry.MetricPageCacheBytes, telemetry.MetricPageCacheHitRatio)
}

// openFooter returns a reader over data, serving the decoded footer from
// the footer level when this object version was opened before. key must
// come from ObjectKey so it changes whenever the stored bytes change.
// Without a footer level the footer is decoded from the image.
func (c *Caches) openFooter(key string, data []byte) (*parquetlite.Reader, error) {
	l := c.footer()
	if l == nil {
		return parquetlite.NewReader(data)
	}
	if v, ok := l.get(key); ok {
		return parquetlite.NewReaderWithMeta(data, v.(*parquetlite.FileMeta))
	}
	r, err := parquetlite.NewReader(data)
	if err != nil {
		return nil, err
	}
	l.put(key, r.Meta(), footerSize(r.Meta()))
	return r, nil
}

// footerSize estimates the in-memory footprint of a decoded footer: fixed
// schema overhead plus per-chunk metadata (offsets, sizes, min/max stats).
func footerSize(meta *parquetlite.FileMeta) int64 {
	n := int64(256)
	for _, rg := range meta.RowGroups {
		n += 32 + int64(len(rg.Chunks))*112
	}
	return n
}

// Flush empties both levels; lifetime
// hit/miss counters are preserved. The harness flushes node caches
// before each measured experiment cell so paper-figure reproductions
// keep their cold-scan semantics.
func (c *Caches) Flush() {
	c.footer().purge()
	c.Pages().purge()
}

// InvalidateObject drops every cached footer and page of every version
// of one object. Version-embedded keys already guarantee a re-put object
// never hits stale entries; invalidation just releases the budget early
// instead of waiting for LRU aging.
func (c *Caches) InvalidateObject(bucket, object string) {
	prefix := objectPrefix(bucket, object)
	c.footer().invalidatePrefix(prefix)
	c.Pages().invalidatePrefix(prefix)
}
