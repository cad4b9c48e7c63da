package scan

import (
	"os"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// entries reports the level's entry count.
func (l *level) entries() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// testLevel is a level instrumented as the footer level of node n0.
func testLevel(budget int64) (*level, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	c := NewCaches(budget, 0)
	c.Instrument(reg, "node", "n0")
	return c.footers, reg
}

func TestByteLRUEvictsColdEnd(t *testing.T) {
	c, reg := testLevel(30)
	c.put("a", 1, 10)
	c.put("b", 2, 10)
	c.put("c", 3, 10)
	// Touch "a" so "b" is the cold end, then push it out.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("d", 4, 10)
	if _, ok := c.get("b"); ok || reg.CounterValue(telemetry.MetricFooterCacheEvictions, "node", "n0") != 1 {
		t.Fatal("evicted something other than exactly [b]")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Bytes() != 30 || c.entries() != 3 {
		t.Errorf("bytes=%d entries=%d, want 30/3", c.Bytes(), c.entries())
	}
}

func TestByteLRURejectsOversized(t *testing.T) {
	c := newLevel(10)
	c.put("small", 1, 5)
	if ok := c.put("huge", 2, 11); ok {
		t.Fatal("value larger than the whole budget was admitted")
	}
	if _, ok := c.get("small"); !ok {
		t.Error("oversized put flushed an existing entry")
	}
}

func TestByteLRUUpdateResizes(t *testing.T) {
	c := newLevel(100)
	c.put("k", 1, 40)
	c.put("k", 2, 60)
	if c.Bytes() != 60 || c.entries() != 1 {
		t.Fatalf("bytes=%d entries=%d after update, want 60/1", c.Bytes(), c.entries())
	}
	if v, _ := c.get("k"); v.(int) != 2 {
		t.Fatalf("get after update = %v, want 2", v)
	}
}

func TestByteLRUInvalidatePrefixAndPurge(t *testing.T) {
	c := newLevel(100)
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
	if c.entries() != 0 || c.Bytes() != 0 {
		t.Errorf("purge left entries=%d bytes=%d", c.entries(), c.Bytes())
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
	f := NewCaches(1<<20, 0)
	f.Instrument(reg, "node", "n0")

	r1, err := f.openFooter("b/o@1", img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.openFooter("b/o@1", img)
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
	r3, err := f.openFooter("b/o@2", img)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Meta() == r1.Meta() {
		t.Error("different version keys shared one footer")
	}

	// Nil cache falls through to plain decoding.
	var nilF *Caches
	if _, err := nilF.openFooter("b/o@1", img); err != nil {
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

// TestPageCacheAdmitsOnFirstPut: the page level has one admission rule,
// recency — a chunk enters on its first put, counted in the level's bytes.
func TestPageCacheAdmitsOnFirstPut(t *testing.T) {
	c := NewCaches(0, 1<<20)
	c.Instrument(telemetry.NewRegistry(), "node", "n0")
	p := c.Pages()
	vec := intVector(16)

	for _, key := range []string{"k1", "k2"} {
		p.put(key, vec, vec.ByteSize())
		if _, ok := p.get(key); !ok {
			t.Fatalf("chunk %s not admitted on its first put", key)
		}
	}
	if p.entries() != 2 {
		t.Errorf("entries = %d, want 2", p.entries())
	}
	if p.Bytes() <= 0 {
		t.Error("bytes accounting missing")
	}

	// Nil cache is a no-op.
	var nilP *level
	nilP.put("k", vec, vec.ByteSize())
	if _, ok := nilP.get("k"); ok {
		t.Error("nil cache returned a value")
	}
}

func TestStorageFlushAndInvalidate(t *testing.T) {
	img := testImage(t, 64)
	s := NewCaches(1<<20, 1<<20)
	s.Instrument(telemetry.NewRegistry(), "node", "n0")
	if _, err := s.openFooter(ObjectKey("b", "o", 1), img); err != nil {
		t.Fatal(err)
	}
	s.Pages().put(pageKey(ObjectKey("b", "o", 1), 0, 0), intVector(8), 64)
	s.Pages().put(pageKey(ObjectKey("b", "other", 1), 0, 0), intVector(8), 64)

	s.InvalidateObject("b", "o")
	if _, ok := s.Pages().get(pageKey(ObjectKey("b", "o", 1), 0, 0)); ok {
		t.Error("invalidated object still cached")
	}
	if _, ok := s.Pages().get(pageKey(ObjectKey("b", "other", 1), 0, 0)); !ok {
		t.Error("invalidation dropped an unrelated object")
	}

	s.Flush()
	if s.Pages().entries() != 0 || s.footer().entries() != 0 {
		t.Error("flush left entries behind")
	}

	// Nil bundle: every accessor and method is a no-op.
	var nilS *Caches
	nilS.Flush()
	nilS.InvalidateObject("b", "o")
	if nilS.footer() != nil || nilS.Pages() != nil {
		t.Error("nil bundle returned non-nil levels")
	}
	if r, err := nilS.openFooter("k", img); err != nil || r == nil {
		t.Errorf("nil footer cache open: r=%v err=%v", r, err)
	}
}

// TestMetricNamesInManifest: every metric the cache levels register must
// be declared in telemetry/names.go, so the /metrics surface stays
// discoverable from one file.
func TestMetricNamesInManifest(t *testing.T) {
	src, err := os.ReadFile("../telemetry/names.go")
	if err != nil {
		t.Fatal(err)
	}
	manifest := string(src)
	for _, name := range []string{
		telemetry.MetricFooterCacheHits,
		telemetry.MetricFooterCacheMisses,
		telemetry.MetricFooterCacheEvictions,
		telemetry.MetricFooterCacheBytes,
		telemetry.MetricFooterCacheHitRatio,
		telemetry.MetricPageCacheHits,
		telemetry.MetricPageCacheMisses,
		telemetry.MetricPageCacheEvictions,
		telemetry.MetricPageCacheBytes,
		telemetry.MetricPageCacheHitRatio,
	} {
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
	if got := pageKey(k, 2, 5); got != "b/o@3#2:5" {
		t.Errorf("pageKey = %q", got)
	}
	if !strings.HasPrefix(k, objectPrefix("b", "o")) {
		t.Error("objectPrefix does not cover ObjectKey")
	}
}
