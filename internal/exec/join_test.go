package exec

import (
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
)

func buildTable(t *testing.T, keys []int, pages ...*column.Page) *JoinTable {
	t.Helper()
	var m Meter
	table, err := BuildJoinTable(sourceOf(pages...), keys, &m)
	if err != nil {
		t.Fatalf("BuildJoinTable: %v", err)
	}
	return table
}

func probeAll(t *testing.T, table *JoinTable, keys []int, pages ...*column.Page) *column.Page {
	t.Helper()
	var m Meter
	j, err := NewHashJoinProbe(sourceOf(pages...), table, keys, &m)
	if err != nil {
		t.Fatalf("NewHashJoinProbe: %v", err)
	}
	out, err := DrainToPage(j)
	if err != nil {
		t.Fatalf("probe drain: %v", err)
	}
	return out
}

func TestHashJoinBasic(t *testing.T) {
	build := makePage([][3]interface{}{{1, 10.0, "b1"}, {3, 30.0, "b3"}})
	table := buildTable(t, []int{0}, build)
	if table.Rows() != 2 {
		t.Fatalf("table rows = %d, want 2", table.Rows())
	}
	probe := makePage([][3]interface{}{{1, 1.0, "p1"}, {2, 2.0, "p2"}, {3, 3.0, "p3"}})
	out := probeAll(t, table, []int{0}, probe)
	if out.NumRows() != 2 {
		t.Fatalf("joined %d rows, want 2", out.NumRows())
	}
	if got := out.Schema.Len(); got != 6 {
		t.Fatalf("output schema has %d columns, want 6 (probe⊕build)", got)
	}
	// First match: probe row (1, 1.0, "p1") ⊕ build row (1, 10.0, "b1").
	if out.Vectors[0].Ints[0] != 1 || out.Vectors[3].Ints[0] != 1 ||
		out.Vectors[2].Strings[0] != "p1" || out.Vectors[5].Strings[0] != "b1" {
		t.Errorf("bad first join row: %v", out)
	}
	if out.Vectors[0].Ints[1] != 3 || out.Vectors[5].Strings[1] != "b3" {
		t.Errorf("bad second join row: %v", out)
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	table := buildTable(t, []int{0}, makePage(nil))
	if table.Rows() != 0 {
		t.Fatalf("empty build indexed %d rows", table.Rows())
	}
	probe := makePage([][3]interface{}{{1, 1.0, "a"}, {2, 2.0, "b"}})
	out := probeAll(t, table, []int{0}, probe)
	if out.NumRows() != 0 {
		t.Fatalf("empty build side joined %d rows, want 0", out.NumRows())
	}
	// And the bloom filter over an empty build rejects everything too.
	f, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		t.Fatalf("BuildBloom: %v", err)
	}
	sel, err := f.TestVector(probe.Vectors[0], nil, nil)
	if err != nil || len(sel) != 0 {
		t.Fatalf("empty-build bloom passed %d rows (%v), want 0", len(sel), err)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	// NULL build keys are dropped from the index; NULL probe keys miss.
	build := makePage([][3]interface{}{{1, 10.0, "b1"}, {nil, 20.0, "bnull"}})
	table := buildTable(t, []int{0}, build)
	if table.Rows() != 1 {
		t.Fatalf("NULL-key build row indexed: %d rows, want 1", table.Rows())
	}
	probe := makePage([][3]interface{}{{nil, 1.0, "pnull"}, {1, 2.0, "p1"}})
	out := probeAll(t, table, []int{0}, probe)
	if out.NumRows() != 1 {
		t.Fatalf("joined %d rows, want 1 (NULL ⋈ NULL must not match)", out.NumRows())
	}
	if out.Vectors[2].Strings[0] != "p1" || out.Vectors[5].Strings[0] != "b1" {
		t.Errorf("unexpected surviving row: %v", out)
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	// Two build rows share key 7: each matching probe row emits twice.
	build := makePage([][3]interface{}{{7, 70.0, "b-a"}, {7, 71.0, "b-b"}, {8, 80.0, "b-c"}})
	table := buildTable(t, []int{0}, build)
	probe := makePage([][3]interface{}{{7, 1.0, "p"}, {9, 2.0, "q"}})
	out := probeAll(t, table, []int{0}, probe)
	if out.NumRows() != 2 {
		t.Fatalf("joined %d rows, want 2 (inner-join multiplicity)", out.NumRows())
	}
	got := map[string]bool{out.Vectors[5].Strings[0]: true, out.Vectors[5].Strings[1]: true}
	if !got["b-a"] || !got["b-b"] {
		t.Errorf("duplicate-key matches = %v, want b-a and b-b", got)
	}
	for row := 0; row < 2; row++ {
		if out.Vectors[2].Strings[row] != "p" {
			t.Errorf("probe side of row %d = %q, want p", row, out.Vectors[2].Strings[row])
		}
	}
}

func TestHashJoinMultiKeyAndStringKeys(t *testing.T) {
	build := makePage([][3]interface{}{{1, 10.0, "x"}, {1, 11.0, "y"}})
	table := buildTable(t, []int{0, 2}, build)
	probe := makePage([][3]interface{}{{1, 1.0, "x"}, {1, 2.0, "z"}})
	out := probeAll(t, table, []int{0, 2}, probe)
	if out.NumRows() != 1 || out.Vectors[4].Floats[0] != 10.0 {
		t.Fatalf("multi-key join = %d rows (%v), want exactly (1,x) pair", out.NumRows(), out)
	}
}

func TestHashJoinErrors(t *testing.T) {
	var m Meter
	if _, err := BuildJoinTable(sourceOf(), nil, &m); err == nil {
		t.Error("no-key build accepted")
	}
	if _, err := BuildJoinTable(sourceOf(), []int{5}, &m); err == nil {
		t.Error("out-of-range build key accepted")
	}
	table := buildTable(t, []int{0}, makePage([][3]interface{}{{1, 1.0, "a"}}))
	if _, err := NewHashJoinProbe(sourceOf(), table, []int{0, 1}, &m); err == nil {
		t.Error("key arity mismatch accepted")
	}
	if _, err := NewHashJoinProbe(sourceOf(), table, []int{1}, &m); err == nil {
		t.Error("key type mismatch accepted (float probe vs int build)")
	}
	if _, err := NewHashJoinProbe(sourceOf(), table, []int{9}, &m); err == nil {
		t.Error("out-of-range probe key accepted")
	}
}

func TestJoinTableBloomFiltersProbe(t *testing.T) {
	rows := make([][3]interface{}, 0, 64)
	for i := 0; i < 64; i++ {
		rows = append(rows, [3]interface{}{i * 2, float64(i), "b"})
	}
	table := buildTable(t, []int{0}, makePage(rows))
	f, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		t.Fatalf("BuildBloom: %v", err)
	}
	probeRows := make([][3]interface{}, 0, 256)
	for i := 0; i < 256; i++ {
		probeRows = append(probeRows, [3]interface{}{i, float64(i), "p"})
	}
	probe := makePage(probeRows)
	sel, err := f.TestVector(probe.Vectors[0], nil, nil)
	if err != nil {
		t.Fatalf("TestVector: %v", err)
	}
	// All 64 true members must survive (no false negatives)...
	member := map[int64]bool{}
	for i := 0; i < 64; i++ {
		member[int64(i*2)] = true
	}
	kept := map[int64]bool{}
	for _, row := range sel {
		kept[probe.Vectors[0].Ints[row]] = true
	}
	for k := range member {
		if !kept[k] {
			t.Fatalf("bloom false negative for key %d", k)
		}
	}
	// ...and the filter must measurably cut non-members (10 bits/key
	// gives ~1%% FP; 50%% is a generous sanity bound).
	if len(sel) > 128 {
		t.Fatalf("bloom kept %d of 256 rows; expected close to the 64 members", len(sel))
	}
}

func TestBloomProbeOperator(t *testing.T) {
	table := buildTable(t, []int{0}, makePage([][3]interface{}{{1, 1.0, "a"}, {3, 3.0, "c"}}))
	f, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		t.Fatalf("BuildBloom: %v", err)
	}
	if f.NumHash() != 0 || f.Lo() != 1 {
		t.Fatalf("keys 1 and 3 built a filter with k=%d from %d, want the direct form from 1", f.NumHash(), f.Lo())
	}
	input := makePage([][3]interface{}{{1, 1.0, "p1"}, {2, 2.0, "p2"}, {nil, 9.0, "pn"}, {3, 3.0, "p3"}})
	var tested, keptRows int
	var m Meter
	bp, err := NewBloomProbe(sourceOf(input), 0, f, &m, func(in, kept int) {
		tested += in
		keptRows += kept
	})
	if err != nil {
		t.Fatalf("NewBloomProbe: %v", err)
	}
	out, err := DrainToPage(bp)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("bloom probe kept %d rows, want 2 (members only, NULL dropped)", out.NumRows())
	}
	if out.Vectors[2].Strings[0] != "p1" || out.Vectors[2].Strings[1] != "p3" {
		t.Errorf("wrong survivors: %v", out.Vectors[2].Strings)
	}
	if tested != 4 || keptRows != 2 {
		t.Errorf("observer saw tested=%d kept=%d, want 4/2", tested, keptRows)
	}
	if m.Rows != 4 || m.Units != 4 {
		t.Errorf("meter charged %d rows and %v units, want 4 rows at one probe each", m.Rows, m.Units)
	}
}

func TestBloomProbeSelHandover(t *testing.T) {
	// When every row survives, the page is handed through with a nil
	// selection — no copy.
	table := buildTable(t, []int{0}, makePage([][3]interface{}{{1, 1.0, "a"}, {2, 2.0, "b"}}))
	f, err := table.BuildBloom(bloom.DefaultBitsPerKey)
	if err != nil {
		t.Fatalf("BuildBloom: %v", err)
	}
	input := makePage([][3]interface{}{{1, 1.0, "x"}, {2, 2.0, "y"}})
	bp, err := NewBloomProbe(sourceOf(input), 0, f, nil, nil)
	if err != nil {
		t.Fatalf("NewBloomProbe: %v", err)
	}
	page, sel, err := bp.NextSel()
	if err != nil || page != input || sel != nil {
		t.Fatalf("NextSel = (%p, %v, %v), want input page with nil sel", page, sel, err)
	}
	if _, err := NewBloomProbe(sourceOf(input), 9, f, nil, nil); err == nil {
		t.Error("out-of-range bloom column accepted")
	}
}

func TestBloomFromBitsRoundTrip(t *testing.T) {
	f := bloom.New(100, bloom.DefaultBitsPerKey)
	for i := int64(0); i < 100; i += 2 {
		f.AddHash(bloom.HashInt64(i))
	}
	g, err := bloom.FromBits(f.Bits(), f.NumHash(), f.Lo())
	if err != nil {
		t.Fatalf("FromBits: %v", err)
	}
	for i := int64(0); i < 100; i += 2 {
		if !g.TestHash(bloom.HashInt64(i)) {
			t.Fatalf("round-tripped filter lost key %d", i)
		}
	}
	if _, err := bloom.FromBits(nil, 4, 0); err == nil {
		t.Error("empty bits accepted")
	}
	if _, err := bloom.FromBits(make([]byte, 8), -1, 0); err == nil {
		t.Error("negative hash count accepted")
	}
}
