package cache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"prestocs/internal/metastore"
	"prestocs/internal/telemetry"
)

// TableSource is what the metadata cache fronts: the metastore's lookup
// plus its per-table version counter. Version must be cheap (a map read)
// — the cache calls it on every hit to detect staleness.
type TableSource interface {
	Get(schema, name string) (*metastore.Table, error)
	Version(schema, name string) uint64
}

// TableCache caches table definitions — schema, object layout, column
// and per-object statistics, everything hanging off *metastore.Table —
// behind versioned invalidation. A cached entry carries the version it
// was read at; a hit re-validates with one Version call, and a bumped
// version drops the entry and reloads through singleflight so N
// concurrent queries for the same table trigger one source round trip.
type TableCache struct {
	src TableSource
	max int // entry bound; <= 0 disables caching (pure passthrough)

	mu    sync.Mutex
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // element value is *tableEntry

	sf flight

	// Local hit/miss tallies feed the hit-ratio gauge; the telemetry
	// instruments are bound by Instrument (before the first Get) and are
	// nil-safe no-ops until then.
	nHits, nMisses              atomic.Int64
	hits, misses, invalidations *telemetry.Counter
	hitRatio                    *telemetry.Gauge
}

type tableEntry struct {
	key     string
	table   *metastore.Table
	version uint64
}

// NewTableCache builds a cache over src holding at most maxEntries
// tables; maxEntries <= 0 disables caching but keeps the call shape.
func NewTableCache(src TableSource, maxEntries int) *TableCache {
	return &TableCache{
		src:   src,
		max:   maxEntries,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Instrument binds the cache's telemetry instruments. Call once, before
// the cache serves queries. Labels are alternating key, value pairs
// (e.g. "catalog", "ocs").
func (c *TableCache) Instrument(reg *telemetry.Registry, labels ...string) {
	if c == nil {
		return
	}
	c.hits = reg.Counter(telemetry.MetricMetaCacheHits, labels...)
	c.misses = reg.Counter(telemetry.MetricMetaCacheMisses, labels...)
	c.invalidations = reg.Counter(telemetry.MetricMetaCacheInvalidations, labels...)
	c.hitRatio = reg.Gauge(telemetry.MetricMetaCacheHitRatio, labels...)
}

// Get returns the table, serving from cache when the metastore version
// still matches the version the entry was read at.
func (c *TableCache) Get(schema, name string) (*metastore.Table, error) {
	if c.max <= 0 {
		return c.src.Get(schema, name)
	}
	key := strings.ToLower(schema + "." + name)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*tableEntry)
		if c.src.Version(schema, name) == e.version {
			c.ll.MoveToFront(el)
			t := e.table // store rewrites the entry in place under mu
			c.mu.Unlock()
			c.hit()
			return t, nil
		}
		// Stale: the table was re-registered (or dropped) since this entry
		// was read. Drop it and fall through to a coalesced reload.
		c.ll.Remove(el)
		delete(c.items, key)
		c.invalidations.Inc()
	}
	c.mu.Unlock()
	c.miss()
	v, _, err := c.sf.do(key, func() (any, error) {
		// Read the version BEFORE the table: if a re-registration lands
		// between the two reads, the entry pairs the new table with the old
		// version and self-invalidates on the next access. The reverse
		// order could pair a stale table with the current version — an
		// entry that would validate forever.
		ver := c.src.Version(schema, name)
		t, err := c.src.Get(schema, name)
		if err != nil {
			return nil, err
		}
		c.store(key, t, ver)
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*metastore.Table), nil
}

// pinnedSource is the optional source capability behind GetPinned: an
// atomic read-and-pin of the (table, version) pair. The metastore
// implements it.
type pinnedSource interface {
	GetPinned(schema, name string) (*metastore.Table, *metastore.Pin, error)
}

// GetPinned returns the table together with a snapshot pin taken
// atomically at the version of the returned instance, so compaction
// cannot physically delete objects the caller's scan still references.
// The cached read runs first (warming the cache and keeping hit/miss
// accounting identical to Get); the pinned instance then comes from the
// source in one atomic step — a cached pointer cannot be paired with a
// pin taken at a different version. Sources without pin support fall
// back to a plain Get with a nil pin.
func (c *TableCache) GetPinned(schema, name string) (*metastore.Table, *metastore.Pin, error) {
	ps, ok := c.src.(pinnedSource)
	if !ok {
		t, err := c.Get(schema, name)
		return t, nil, err
	}
	if c.max > 0 {
		if _, err := c.Get(schema, name); err != nil {
			return nil, nil, err
		}
	}
	t, pin, err := ps.GetPinned(schema, name)
	if err != nil {
		return nil, nil, err
	}
	if c.max > 0 {
		c.store(strings.ToLower(schema+"."+name), t, pin.Version())
	}
	return t, pin, nil
}

// store inserts or refreshes an entry, evicting the least recently used
// table past the entry bound.
func (c *TableCache) store(key string, t *metastore.Table, ver uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*tableEntry)
		e.table, e.version = t, ver
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&tableEntry{key: key, table: t, version: ver})
	for len(c.items) > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*tableEntry).key)
	}
}

// Len reports the cached entry count.
func (c *TableCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *TableCache) hit() {
	c.hits.Inc()
	c.nHits.Add(1)
	c.updateRatio()
}

func (c *TableCache) miss() {
	c.misses.Inc()
	c.nMisses.Add(1)
	c.updateRatio()
}

func (c *TableCache) updateRatio() {
	h, m := c.nHits.Load(), c.nMisses.Load()
	if h+m > 0 {
		c.hitRatio.Set(h * 100 / (h + m))
	}
}
