package parquetlite

import (
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/expr"
	"prestocs/internal/types"
)

// buildPruneFile writes a two-column file with four row groups of four
// rows each:
//
//	group 0: id 0..3,   v all NULL
//	group 1: id 10..13, v non-NULL
//	group 2: id 20..23, v mixed NULL/non-NULL
//	group 3: id 30..33, v non-NULL
func buildPruneFile(t *testing.T) *Reader {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	page := column.NewPage(schema)
	for g := 0; g < 4; g++ {
		for i := 0; i < 4; i++ {
			id := types.IntValue(int64(g*10 + i))
			v := types.FloatValue(float64(g*10 + i))
			switch {
			case g == 0:
				v = types.NullValue(types.Float64)
			case g == 2 && i%2 == 0:
				v = types.NullValue(types.Float64)
			}
			page.AppendRow(id, v)
		}
	}
	img, err := WritePages(schema, WriterOptions{RowGroupSize: 4}, page)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	r, err := NewReader(img)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(r.Meta().RowGroups) != 4 {
		t.Fatalf("expected 4 row groups, got %d", len(r.Meta().RowGroups))
	}
	return r
}

func idCol() *expr.ColumnRef { return &expr.ColumnRef{Index: 0, Name: "id", Kind: types.Int64} }
func vCol() *expr.ColumnRef  { return &expr.ColumnRef{Index: 1, Name: "v", Kind: types.Float64} }

func intLit(v int64) *expr.Literal { return &expr.Literal{Value: types.IntValue(v)} }

// keepGroups lists the row groups PruneRowGroupsRanges keeps for pred.
func keepGroups(r *Reader, pred expr.Expr) []int {
	keep, _, _ := r.PruneRowGroupsRanges(expr.AnalyzeRanges(pred), nil)
	return keep
}

func groupsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPruneBoundaryEquality(t *testing.T) {
	r := buildPruneFile(t)
	// Group 1 holds id 10..13. A closed bound exactly on the chunk min or
	// max must keep the group.
	cases := []struct {
		name string
		pred expr.Expr
		want []int
	}{
		{"ge-max", &expr.Compare{Op: expr.Ge, L: idCol(), R: intLit(13)}, []int{1, 2, 3}},
		{"le-min", &expr.Compare{Op: expr.Le, L: idCol(), R: intLit(10)}, []int{0, 1}},
		{"eq-min", &expr.Compare{Op: expr.Eq, L: idCol(), R: intLit(10)}, []int{1}},
		{"eq-max", &expr.Compare{Op: expr.Eq, L: idCol(), R: intLit(13)}, []int{1}},
		// Open bounds exactly on the boundary do prune.
		{"gt-max", &expr.Compare{Op: expr.Gt, L: idCol(), R: intLit(13)}, []int{2, 3}},
		{"lt-min", &expr.Compare{Op: expr.Lt, L: idCol(), R: intLit(10)}, []int{0}},
		{"between-edges", &expr.Between{E: idCol(), Lo: intLit(13), Hi: intLit(20)}, []int{1, 2}},
	}
	for _, tc := range cases {
		got := keepGroups(r, tc.pred)
		if !groupsEqual(got, tc.want) {
			t.Errorf("%s: kept %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestPruneAllNullChunk(t *testing.T) {
	r := buildPruneFile(t)
	// Any ordinary comparison on v rejects NULLs, so the all-NULL group 0
	// is pruned; the mixed group 2 survives.
	got := keepGroups(r, &expr.Compare{Op: expr.Ge, L: vCol(), R: &expr.Literal{Value: types.FloatValue(0)}})
	if !groupsEqual(got, []int{1, 2, 3}) {
		t.Errorf("v >= 0 kept %v, want [1 2 3] (all-NULL group pruned)", got)
	}
	// IS NULL keeps only groups that contain NULLs.
	got = keepGroups(r, &expr.IsNull{E: vCol()})
	if !groupsEqual(got, []int{0, 2}) {
		t.Errorf("v IS NULL kept %v, want [0 2]", got)
	}
	// IS NOT NULL prunes the all-NULL group but keeps mixed ones.
	got = keepGroups(r, &expr.IsNull{E: vCol(), Negate: true})
	if !groupsEqual(got, []int{1, 2, 3}) {
		t.Errorf("v IS NOT NULL kept %v, want [1 2 3]", got)
	}
}

func TestPruneColumnWithoutStats(t *testing.T) {
	r := buildPruneFile(t)
	// Erase the stats of the id chunks, as if the footer had been written
	// without them: pruning on id must keep every group.
	for g := range r.meta.RowGroups {
		r.meta.RowGroups[g].Chunks[0].Stats = expr.ZoneMap{}
	}
	got := keepGroups(r, &expr.Compare{Op: expr.Eq, L: idCol(), R: intLit(999)})
	if !groupsEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("missing stats pruned groups: kept %v", got)
	}
	// A predicate on a column ordinal outside the schema also keeps all.
	wide := &expr.Compare{Op: expr.Eq, L: &expr.ColumnRef{Index: 9, Name: "ghost", Kind: types.Int64}, R: intLit(1)}
	got = keepGroups(r, wide)
	if !groupsEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("out-of-schema column pruned groups: kept %v", got)
	}
}

func TestPruneRangesAccounting(t *testing.T) {
	r := buildPruneFile(t)
	ranges := expr.AnalyzeRanges(&expr.Compare{Op: expr.Lt, L: idCol(), R: intLit(10)})
	keep, pruned, skipped := r.PruneRowGroupsRanges(ranges, []int{0, 1})
	if !groupsEqual(keep, []int{0}) || !groupsEqual(pruned, []int{1, 2, 3}) {
		t.Fatalf("kept %v pruned %v", keep, pruned)
	}
	var want int64
	for _, g := range pruned {
		for _, ch := range r.Meta().RowGroups[g].Chunks {
			want += ch.CompressedSize
		}
	}
	if skipped != want || skipped == 0 {
		t.Errorf("bytes skipped %d, want %d", skipped, want)
	}
	// Never-predicates prune everything.
	never := expr.AnalyzeRanges(&expr.Literal{Value: types.BoolValue(false)})
	keep, pruned, _ = r.PruneRowGroupsRanges(never, nil)
	if len(keep) != 0 || len(pruned) != 4 {
		t.Errorf("WHERE FALSE: kept %v pruned %v", keep, pruned)
	}
}
