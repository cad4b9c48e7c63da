package cache

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

func TestByteLRUEvictsColdEnd(t *testing.T) {
	var evicted []string
	c := newByteLRU(30, func(key string, _ int64) { evicted = append(evicted, key) })
	c.put("a", 1, 10)
	c.put("b", 2, 10)
	c.put("c", 3, 10)
	// Touch "a" so "b" is the cold end, then push it out.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("d", 4, 10)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if c.bytes() != 30 || c.entries() != 3 {
		t.Errorf("bytes=%d entries=%d, want 30/3", c.bytes(), c.entries())
	}
}

func TestByteLRURejectsOversized(t *testing.T) {
	c := newByteLRU(10, nil)
	c.put("small", 1, 5)
	if ok := c.put("huge", 2, 11); ok {
		t.Fatal("value larger than the whole budget was admitted")
	}
	if _, ok := c.get("small"); !ok {
		t.Error("oversized put flushed an existing entry")
	}
}

func TestByteLRUUpdateResizes(t *testing.T) {
	c := newByteLRU(100, nil)
	c.put("k", 1, 40)
	c.put("k", 2, 60)
	if c.bytes() != 60 || c.entries() != 1 {
		t.Fatalf("bytes=%d entries=%d after update, want 60/1", c.bytes(), c.entries())
	}
	if v, _ := c.get("k"); v.(int) != 2 {
		t.Fatalf("get after update = %v, want 2", v)
	}
}

func TestByteLRUInvalidatePrefixAndPurge(t *testing.T) {
	c := newByteLRU(100, nil)
	c.put("b/o@1#0:0", 1, 10)
	c.put("b/o@1#0:1", 2, 10)
	c.put("b/o@2#0:0", 3, 10)
	c.put("b/other@1#0:0", 4, 10)
	c.invalidatePrefix("b/o@")
	if c.entries() != 1 {
		t.Fatalf("entries after prefix invalidation = %d, want 1", c.entries())
	}
	if _, ok := c.get("b/other@1#0:0"); !ok {
		t.Error("unrelated object dropped by prefix invalidation")
	}
	c.purge()
	if c.entries() != 0 || c.bytes() != 0 {
		t.Errorf("purge left entries=%d bytes=%d", c.entries(), c.bytes())
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var f flight
	var calls atomic.Int64
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	const n = 16
	results := make([]int, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, _, err := f.do("k", func() (any, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v.(int)
		}(i)
	}
	// Let the callers pile onto the in-flight execution, then release the
	// leader. A caller scheduled after the leader finished runs fn itself
	// (and returns immediately, release being closed), so a straggler or
	// two is tolerated — what the test rules out is N independent runs.
	started.Wait()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := calls.Load(); got > 2 {
		t.Errorf("fn ran %d times for %d concurrent callers", got, n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

func testImage(t *testing.T, rows int) []byte {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	page := column.NewPage(schema)
	for i := 0; i < rows; i++ {
		page.AppendRow(types.IntValue(int64(i)), types.FloatValue(float64(i)*0.5))
	}
	img, err := parquetlite.WritePages(schema, parquetlite.WriterOptions{RowGroupSize: 8}, page)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestFooterCacheServesDecodedMeta(t *testing.T) {
	img := testImage(t, 64)
	reg := telemetry.NewRegistry()
	f := NewFooterCache(1 << 20)
	f.Instrument(reg, "node", "n0")

	r1, err := f.Open("b/o@1", img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Open("b/o@1", img)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Meta() != r2.Meta() {
		t.Error("second open decoded a fresh footer instead of sharing the cached one")
	}
	if h := reg.CounterValue(telemetry.MetricFooterCacheHits, "node", "n0"); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := reg.CounterValue(telemetry.MetricFooterCacheMisses, "node", "n0"); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
	if b := reg.GaugeValue(telemetry.MetricFooterCacheBytes, "node", "n0"); b <= 0 {
		t.Errorf("bytes gauge = %d, want > 0", b)
	}

	// A different version key is a separate entry — no stale sharing.
	r3, err := f.Open("b/o@2", img)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Meta() == r1.Meta() {
		t.Error("different version keys shared one footer")
	}

	// Nil cache falls through to plain decoding.
	var nilF *FooterCache
	if _, err := nilF.Open("b/o@1", img); err != nil {
		t.Fatal(err)
	}
}

func intVector(n int) *column.Vector {
	v := column.NewVector(types.Int64)
	for i := 0; i < n; i++ {
		v.Append(types.IntValue(int64(i)))
	}
	return v
}

func TestPageCacheTwoTouchAdmission(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPageCache(1 << 20)
	p.Instrument(reg, "node", "n0")
	vec := intVector(16)

	// First sighting under two-touch: rejected into the ghost list.
	p.Put("k1", vec, true)
	if _, ok := p.Get("k1"); ok {
		t.Fatal("chunk admitted on first touch despite twoTouch")
	}
	if rej := reg.CounterValue(telemetry.MetricPageCacheRejected, "node", "n0"); rej != 1 {
		t.Errorf("rejected = %d, want 1", rej)
	}
	// Second sighting: admitted.
	p.Put("k1", vec, true)
	if _, ok := p.Get("k1"); !ok {
		t.Fatal("chunk not admitted on second touch")
	}
	// Without twoTouch admission is immediate.
	p.Put("k2", vec, false)
	if _, ok := p.Get("k2"); !ok {
		t.Fatal("chunk not admitted without twoTouch")
	}
	if p.Entries() != 2 {
		t.Errorf("entries = %d, want 2", p.Entries())
	}
	if p.Bytes() <= 0 {
		t.Error("bytes accounting missing")
	}

	// Nil cache is a no-op.
	var nilP *PageCache
	nilP.Put("k", vec, false)
	if _, ok := nilP.Get("k"); ok {
		t.Error("nil cache returned a value")
	}
}

func TestStorageFlushAndInvalidate(t *testing.T) {
	img := testImage(t, 64)
	s := NewStorage(1<<20, 1<<20)
	s.Instrument(telemetry.NewRegistry(), "node", "n0")
	if _, err := s.Footer().Open(ObjectKey("b", "o", 1), img); err != nil {
		t.Fatal(err)
	}
	s.Pages().Put(PageKey(ObjectKey("b", "o", 1), 0, 0), intVector(8), false)
	s.Pages().Put(PageKey(ObjectKey("b", "other", 1), 0, 0), intVector(8), false)

	s.InvalidateObject("b", "o")
	if _, ok := s.Pages().Get(PageKey(ObjectKey("b", "o", 1), 0, 0)); ok {
		t.Error("invalidated object still cached")
	}
	if _, ok := s.Pages().Get(PageKey(ObjectKey("b", "other", 1), 0, 0)); !ok {
		t.Error("invalidation dropped an unrelated object")
	}

	s.Flush()
	if s.Pages().Entries() != 0 || s.Footer().lru.entries() != 0 {
		t.Error("flush left entries behind")
	}

	// Nil bundle: every accessor and method is a no-op.
	var nilS *Storage
	nilS.Flush()
	nilS.InvalidateObject("b", "o")
	if nilS.Footer() != nil || nilS.Pages() != nil {
		t.Error("nil bundle returned non-nil levels")
	}
	if r, err := nilS.Footer().Open("k", img); err != nil || r == nil {
		t.Errorf("nil footer cache open: r=%v err=%v", r, err)
	}
}

// TestMetricNamesInManifest is the satellite-6 gate: every metric the
// cache tier registers must be declared in telemetry/names.go, so the
// /metrics surface stays discoverable from one file.
func TestMetricNamesInManifest(t *testing.T) {
	src, err := os.ReadFile("../telemetry/names.go")
	if err != nil {
		t.Fatal(err)
	}
	manifest := string(src)
	for _, name := range MetricNames() {
		if !strings.Contains(manifest, `"`+name+`"`) {
			t.Errorf("metric %q is registered by the cache tier but not declared in telemetry/names.go", name)
		}
	}
}

func TestKeySchemes(t *testing.T) {
	k := ObjectKey("b", "o", 3)
	if k != "b/o@3" {
		t.Errorf("ObjectKey = %q", k)
	}
	if got := PageKey(k, 2, 5); got != "b/o@3#2:5" {
		t.Errorf("PageKey = %q", got)
	}
	if !strings.HasPrefix(k, objectPrefix("b", "o")) {
		t.Error("objectPrefix does not cover ObjectKey")
	}
}
