// Package cache implements the storage node's two-level caching tier
// (DESIGN.md §6) that sits between repeated queries and the decode work
// they would otherwise redo from scratch:
//
//   - FooterCache: storage-node decoded parquetlite footers (FileMeta,
//     including the chunk statistics zone-map pruning consumes), keyed by
//     object version so scan.Open prunes without re-decoding.
//   - PageCache: storage-node decoded column chunks keyed by
//     (object version, row group, column) with byte-budget LRU eviction
//     and two-touch admission on pruning-heavy scans.
//
// Shared-value safety: cached *parquetlite.FileMeta and *column.Vector
// values are immutable by convention — the exec operator library never
// mutates input vectors in place (filter, gather, slice and append all
// copy) — which is what makes handing the same cached value to concurrent
// queries sound.
//
// Every constructor accepts a zero/negative budget to mean "disabled",
// and every method is safe on a nil receiver, so call sites never branch
// on whether caching is on.
package cache

import "strconv"

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

// PageKey names one decoded column chunk of one object version.
func PageKey(objectKey string, rowGroup, col int) string {
	return objectKey + "#" + strconv.Itoa(rowGroup) + ":" + strconv.Itoa(col)
}

// objectPrefix covers every version of one object, for early invalidation.
func objectPrefix(bucket, object string) string {
	return bucket + "/" + object + "@"
}
