// Package objstore implements the S3/MinIO-like object storage substrate:
// buckets of immutable objects with GET/PUT/LIST/DELETE plus an
// S3 Select-style SelectObjectContent API that evaluates a WHERE predicate
// and column projection against a parquetlite object and streams back
// row-oriented CSV — the filter-only pushdown baseline the paper compares
// against. (Unlike real S3 Select, DOUBLE columns are fully supported;
// the row-oriented result format is kept because its parse cost is part
// of what the paper's OCS/Arrow path improves on.)
//
// The server runs over internal/rpc, so all traffic is metered. Every
// response carries a WorkStats trailer describing the storage-side work
// performed (bytes read from media, bytes after decompression, CPU
// units), which the cost model prices with the storage node's hardware
// profile.
package objstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prestocs/internal/rpc"
)

// Store is the in-memory bucket/object map shared by server methods.
// Objects are immutable once put (like S3); Put overwrites atomically.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]map[string][]byte
	// gens tracks a per-object generation, bumped on every Put and
	// Delete. Cache keys embed it (the etag/version of the cache tier),
	// so a re-put object can never hit a stale footer or page entry.
	gens map[string]uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{buckets: make(map[string]map[string][]byte), gens: make(map[string]uint64)}
}

// genKey is the generation-map key for bucket/key.
func genKey(bucket, key string) string { return bucket + "\x00" + key }

// CreateBucket makes a bucket (idempotent).
func (s *Store) CreateBucket(bucket string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[bucket]; !ok {
		s.buckets[bucket] = make(map[string][]byte)
	}
}

// Put stores an object, creating the bucket if needed.
func (s *Store) Put(bucket, key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		s.buckets[bucket] = b
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b[key] = cp
	s.gens[genKey(bucket, key)]++
}

// Get fetches an object.
func (s *Store) Get(bucket, key string) ([]byte, error) {
	data, _, err := s.GetVersioned(bucket, key)
	return data, err
}

// Delete removes an object (no error if absent, like S3).
func (s *Store) Delete(bucket, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.buckets[bucket]; ok {
		if _, existed := b[key]; existed {
			s.gens[genKey(bucket, key)]++
		}
		delete(b, key)
	}
}

// errNoBucket is the one not-found rule's bucket half: a lookup in a bucket
// no Put has created. Like errNoObject it carries rpc.CodeNotFound, so
// every handler that returns a Store error answers NotFound on the wire.
func errNoBucket(bucket string) error {
	return rpc.WithCode(fmt.Errorf("objstore: no such bucket %q", bucket), rpc.CodeNotFound)
}

func errNoObject(bucket, key string) error {
	return rpc.WithCode(fmt.Errorf("objstore: no such object %q/%q", bucket, key), rpc.CodeNotFound)
}

// GetVersioned fetches an object together with its generation, the
// version cache keys embed. The generation changes on every Put, so two
// equal generations imply byte-identical content.
func (s *Store) GetVersioned(bucket, key string) ([]byte, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, 0, errNoBucket(bucket)
	}
	data, ok := b[key]
	if !ok {
		return nil, 0, errNoObject(bucket, key)
	}
	return data, s.gens[genKey(bucket, key)], nil
}

// List returns the sorted keys in a bucket with the given prefix.
func (s *Store) List(bucket, prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucket]
	if !ok {
		return nil, errNoBucket(bucket)
	}
	var keys []string
	for k := range b {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Buckets returns the sorted bucket names.
func (s *Store) Buckets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for b := range s.buckets {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Size returns the stored byte size of an object, or -1.
func (s *Store) Size(bucket, key string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.buckets[bucket]; ok {
		if data, ok := b[key]; ok {
			return int64(len(data))
		}
	}
	return -1
}

// WorkStats describes storage-side work performed for one request. The
// cost model prices it with the storage node's hardware profile.
type WorkStats struct {
	// BytesRead is compressed bytes read from media.
	BytesRead int64
	// BytesDecompressed is bytes produced by codec decode.
	BytesDecompressed int64
	// CPUUnits is abstract compute spent (expression evaluation etc.).
	CPUUnits float64
	// RowsProcessed is rows scanned.
	RowsProcessed int64
}

// Add merges o into s.
func (w *WorkStats) Add(o WorkStats) {
	w.BytesRead += o.BytesRead
	w.BytesDecompressed += o.BytesDecompressed
	w.CPUUnits += o.CPUUnits
	w.RowsProcessed += o.RowsProcessed
}
