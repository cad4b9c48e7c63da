// Snapshot-consistent catalog mutations. Tables are immutable once
// registered: every change replaces the whole *Table pointer under one
// version bump, so a reader holding a pointer sees a frozen object set.
// This file adds the three pieces the write path needs on top of that:
//
//   - CommitObjects: an atomic object-set transition (add new objects,
//     remove compacted ones, merge stats) that produces a fresh *Table
//     and bumps the version exactly once, so the PR 6 caches invalidate
//     on the next hit.
//   - Pins: a query pins the (table, version) pair it planned against.
//     While any pin at version < W exists, objects removed at version W
//     must stay in storage, because a pinned scan may still fetch them.
//   - Tombstones: removed object keys wait here until every pin that
//     could reference them is released, then ReapTombstones hands them
//     to the caller for physical deletion.
package metastore

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"prestocs/internal/types"
)

// ObjectAdd describes one new object entering a table's live set.
type ObjectAdd struct {
	Key   string
	Bytes int64
	Rows  int64
	// Stats is the per-column zone map for the object (min/max, nulls,
	// value counts, and an NDV estimate from the writer's distinct
	// tracking). Required: the ingest path exists so split pruning keeps
	// working on fresh data.
	Stats map[string]ColumnStats
}

// Tombstone names an object that left a table's live set at RemovedAt
// and is awaiting physical deletion from storage.
type Tombstone struct {
	Bucket    string
	Key       string
	RemovedAt uint64
}

// Pin holds a table version live: tombstones at versions above the pin
// are not reaped until it is released. Release is idempotent.
type Pin struct {
	m        *Metastore
	key      string
	version  uint64
	released atomic.Bool
}

// Version reports the table version the pin was taken at.
func (p *Pin) Version() uint64 { return p.version }

// Release drops the pin. Safe to call more than once; only the first
// call has an effect.
func (p *Pin) Release() {
	if p == nil || !p.released.CompareAndSwap(false, true) {
		return
	}
	p.m.mu.Lock()
	defer p.m.mu.Unlock()
	refs := p.m.pins[p.key]
	if refs == nil {
		return
	}
	refs[p.version]--
	if refs[p.version] <= 0 {
		delete(refs, p.version)
	}
	if len(refs) == 0 {
		delete(p.m.pins, p.key)
	}
	p.m.pinCount--
}

// GetPinned atomically reads a table and pins the version it was read
// at, so compaction cannot physically delete objects this snapshot still
// references. Callers must Release the pin when the read finishes.
func (m *Metastore) GetPinned(schema, name string) (*Table, *Pin, error) {
	key := strings.ToLower(schema + "." + name)
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tables[key]
	if !ok {
		return nil, nil, fmt.Errorf("metastore: no such table %s.%s", schema, name)
	}
	v := m.versions[key]
	if m.pins == nil {
		m.pins = make(map[string]map[uint64]int)
	}
	if m.pins[key] == nil {
		m.pins[key] = make(map[uint64]int)
	}
	m.pins[key][v]++
	m.pinCount++
	return t, &Pin{m: m, key: key, version: v}, nil
}

// PinnedCount reports the number of outstanding pins across all tables
// (the snapshot-pins gauge).
func (m *Metastore) PinnedCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.pinCount
}

// minPinnedLocked returns the smallest pinned version for key, with
// ok=false when nothing is pinned. Caller holds m.mu.
func (m *Metastore) minPinnedLocked(key string) (uint64, bool) {
	refs := m.pins[key]
	if len(refs) == 0 {
		return 0, false
	}
	first := true
	var min uint64
	for v := range refs {
		if first || v < min {
			min, first = v, false
		}
	}
	return min, true
}

// CommitObjects atomically transitions a table's object set: adds enter
// the live set, removes leave it (becoming tombstones), per-object and
// table-level statistics are re-merged, and the version bumps exactly
// once. The previous *Table is left untouched, so snapshots that pinned
// it keep a consistent view. Returns the new table.
//
// Row and byte accounting for removals relies on the per-object
// bookkeeping (ObjectBytes and object-stat value counts) that the
// ingest writer always records.
func (m *Metastore) CommitObjects(schema, name string, adds []ObjectAdd, removes []string) (*Table, error) {
	key := strings.ToLower(schema + "." + name)
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.tables[key]
	if !ok {
		return nil, fmt.Errorf("metastore: no such table %s.%s", schema, name)
	}
	live := make(map[string]bool, len(old.Objects))
	for _, o := range old.Objects {
		live[o] = true
	}
	for _, r := range removes {
		if !live[r] {
			return nil, fmt.Errorf("metastore: commit removes %q which is not a live object of %s", r, old.QualifiedName())
		}
	}
	for _, a := range adds {
		if live[a.Key] {
			return nil, fmt.Errorf("metastore: commit adds %q which is already a live object of %s", a.Key, old.QualifiedName())
		}
		if len(a.Stats) == 0 {
			return nil, fmt.Errorf("metastore: commit adds %q without object stats; ingest must register fresh zone maps", a.Key)
		}
	}

	next := m.buildNextTable(old, adds, removes)
	newVersion := m.versions[key] + 1
	m.versions[key] = newVersion
	m.tables[key] = next
	if len(removes) > 0 {
		if m.tombstones == nil {
			m.tombstones = make(map[string][]Tombstone)
		}
		for _, r := range removes {
			m.tombstones[key] = append(m.tombstones[key], Tombstone{Bucket: old.Bucket, Key: r, RemovedAt: newVersion})
		}
	}
	return next, nil
}

// buildNextTable assembles the successor table value for CommitObjects.
// Caller holds m.mu.
func (m *Metastore) buildNextTable(old *Table, adds []ObjectAdd, removes []string) *Table {
	removed := make(map[string]bool, len(removes))
	for _, r := range removes {
		removed[r] = true
	}
	next := &Table{
		Schema:       old.Schema,
		Name:         old.Name,
		Columns:      old.Columns,
		Bucket:       old.Bucket,
		Codec:        old.Codec,
		DisjointKeys: old.DisjointKeys,
		ObjectStats:  make(map[string]map[string]ColumnStats, len(old.ObjectStats)+len(adds)),
		ObjectBytes:  make(map[string]int64, len(old.ObjectBytes)+len(adds)),
		ColumnStats:  make(map[string]ColumnStats, len(old.ColumnStats)),
	}
	for _, o := range old.Objects {
		if removed[o] {
			continue
		}
		next.Objects = append(next.Objects, o)
		if st, ok := old.ObjectStats[o]; ok {
			next.ObjectStats[o] = st
		}
		if b, ok := old.ObjectBytes[o]; ok {
			next.ObjectBytes[o] = b
		}
	}
	for _, a := range adds {
		next.Objects = append(next.Objects, a.Key)
		next.ObjectStats[a.Key] = a.Stats
		next.ObjectBytes[a.Key] = a.Bytes
	}

	// Row/byte totals: carry the old totals, subtract what the removed
	// objects accounted for, add the new objects.
	next.RowCount = old.RowCount
	next.TotalBytes = old.TotalBytes
	for _, r := range removes {
		next.RowCount -= objectRows(old, r)
		next.TotalBytes -= old.ObjectBytes[r]
	}
	for _, a := range adds {
		next.RowCount += a.Rows
		next.TotalBytes += a.Bytes
	}

	// Table-level column stats: min/max/nulls/value counts re-merge
	// exactly from the surviving zone maps. NDV cannot be re-derived from
	// per-object estimates without double counting values that span
	// objects, so: pure appends grow it by the new objects' NDV (capped
	// at the value count), while rewrites (compaction) keep it — merging
	// objects does not change the value distribution.
	for name, oldCS := range old.ColumnStats {
		merged := ColumnStats{Min: oldCS.Min, Max: oldCS.Max, NDV: oldCS.NDV}
		merged.Min.Null, merged.Max.Null = true, true
		for _, key := range next.Objects {
			st, ok := next.ObjectStats[key][name]
			if !ok {
				continue
			}
			merged.NullCount += st.NullCount
			merged.NumValues += st.NumValues
			if !st.Min.Null && (merged.Min.Null || types.Compare(st.Min, merged.Min) < 0) {
				merged.Min = st.Min
			}
			if !st.Max.Null && (merged.Max.Null || types.Compare(st.Max, merged.Max) > 0) {
				merged.Max = st.Max
			}
		}
		if len(removes) == 0 {
			for _, a := range adds {
				merged.NDV += a.Stats[name].NDV
			}
		}
		if merged.NDV > merged.NumValues {
			merged.NDV = merged.NumValues
		}
		next.ColumnStats[name] = merged
	}
	return next
}

// objectRows reports the row count of one object from its zone map
// (every column stores NumValues == rows including NULLs); zero when the
// object has no recorded stats.
func objectRows(t *Table, key string) int64 {
	st, ok := t.ObjectStats[key]
	if !ok || t.Columns == nil || t.Columns.Len() == 0 {
		return 0
	}
	return st[t.Columns.Columns[0].Name].NumValues
}

// ReapTombstones passes to del, in key order, every tombstone of the
// table that no outstanding pin can still reference — i.e. whose
// RemovedAt version is at or below every pinned version — and drops those
// del returned nil for. A tombstone whose physical delete fails stays and
// is offered again by the next call, so no object is leaked by one failed
// delete. del runs without the metastore's lock held. Returns the number
// dropped.
func (m *Metastore) ReapTombstones(schema, name string, del func(Tombstone) error) int {
	key := strings.ToLower(schema + "." + name)
	m.mu.RLock()
	minPinned, pinned := m.minPinnedLocked(key)
	var reap []Tombstone
	for _, ts := range m.tombstones[key] {
		if !pinned || ts.RemovedAt <= minPinned {
			reap = append(reap, ts)
		}
	}
	m.mu.RUnlock()
	sort.Slice(reap, func(i, j int) bool { return reap[i].Key < reap[j].Key })
	gone := make(map[Tombstone]bool, len(reap))
	for _, ts := range reap {
		if del(ts) == nil {
			gone[ts] = true
		}
	}
	if len(gone) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := m.tombstones[key][:0]
	for _, ts := range m.tombstones[key] {
		if !gone[ts] {
			keep = append(keep, ts)
		}
	}
	if len(keep) == 0 {
		delete(m.tombstones, key)
	} else {
		m.tombstones[key] = keep
	}
	return len(gone)
}

// TombstoneCount reports how many objects of the table await physical
// deletion.
func (m *Metastore) TombstoneCount(schema, name string) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tombstones[strings.ToLower(schema+"."+name)])
}

// NextObjectSeq issues a monotonic sequence number for naming new
// objects of the table. The first call seeds the counter above every
// numeric suffix found in the live object set AND the tombstones, and
// numbers are never reissued while the process lives — reusing a
// tombstoned key would let the deferred physical delete destroy
// freshly ingested data.
func (m *Metastore) NextObjectSeq(schema, name string) uint64 {
	key := strings.ToLower(schema + "." + name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.objSeq == nil {
		m.objSeq = make(map[string]uint64)
	}
	if _, ok := m.objSeq[key]; !ok {
		var max uint64
		if t, live := m.tables[key]; live {
			for _, o := range t.Objects {
				if n := trailingSeq(o); n > max {
					max = n
				}
			}
		}
		for _, ts := range m.tombstones[key] {
			if n := trailingSeq(ts.Key); n > max {
				max = n
			}
		}
		m.objSeq[key] = max
	}
	m.objSeq[key]++
	return m.objSeq[key]
}

// trailingSeq extracts the last run of digits in an object key (ignoring
// the extension), or 0.
func trailingSeq(key string) uint64 {
	end := -1
	for i := len(key) - 1; i >= 0; i-- {
		c := key[i]
		if c >= '0' && c <= '9' {
			if end < 0 {
				end = i + 1
			}
			continue
		}
		if end >= 0 {
			var n uint64
			for _, d := range key[i+1 : end] {
				n = n*10 + uint64(d-'0')
			}
			return n
		}
	}
	return 0
}
