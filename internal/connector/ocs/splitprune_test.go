package ocs

import (
	"testing"

	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/types"
)

// splitPruneTable builds a three-object table whose per-object id ranges
// are disjoint: obj-0 holds [0,99], obj-1 [100,199], obj-2 [200,299].
// Object obj-1 additionally has an all-NULL column "v".
func splitPruneTable() *metastore.Table {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	objStats := map[string]map[string]metastore.ColumnStats{}
	for i := 0; i < 3; i++ {
		obj := []string{"obj-0", "obj-1", "obj-2"}[i]
		vStats := expr.ZoneMap{Min: types.FloatValue(0), Max: types.FloatValue(1), NumValues: 100}
		if i == 1 {
			vStats = expr.ZoneMap{
				Min: types.NullValue(types.Float64), Max: types.NullValue(types.Float64),
				NullCount: 100, NumValues: 100,
			}
		}
		objStats[obj] = map[string]metastore.ColumnStats{
			"id": {ZoneMap: expr.ZoneMap{
				Min: types.IntValue(int64(i * 100)), Max: types.IntValue(int64(i*100 + 99)),
				NumValues: 100,
			}},
			"v": {ZoneMap: vStats},
		}
	}
	return &metastore.Table{
		Schema: "default", Name: "parts", Columns: schema,
		Bucket: "b", Objects: []string{"obj-0", "obj-1", "obj-2"},
		RowCount: 300, ObjectStats: objStats,
	}
}

func idRef() *expr.ColumnRef { return expr.Col(0, "id", types.Int64) }

func pruneSplits(t *testing.T, table *metastore.Table, filter expr.Expr) ([]engine.Split, int64) {
	t.Helper()
	c := New("ocs", metastore.New(), nil)
	h := &Handle{Table: table, Push: &Pushdown{Filter: filter}}
	var stats engine.ScanStats
	splits, err := c.SplitsWithStats(h, &stats)
	if err != nil {
		t.Fatal(err)
	}
	return splits, stats.Snapshot().SplitsPruned
}

func TestSplitPruning(t *testing.T) {
	table := splitPruneTable()

	// id < 100 keeps only obj-0.
	lt, err := expr.NewCompare(expr.Lt, idRef(), expr.Lit(types.IntValue(100)))
	if err != nil {
		t.Fatal(err)
	}
	splits, pruned := pruneSplits(t, table, lt)
	if len(splits) != 1 || splits[0].Object != "obj-0" || pruned != 2 {
		t.Fatalf("id < 100: splits %v pruned %d", splits, pruned)
	}
	// Split indexes keep their original table ordinals.
	if splits[0].Index != 0 {
		t.Errorf("split index = %d, want 0", splits[0].Index)
	}

	// Boundary: id >= 199 keeps obj-1 (its max is exactly 199) and obj-2.
	ge, err := expr.NewCompare(expr.Ge, idRef(), expr.Lit(types.IntValue(199)))
	if err != nil {
		t.Fatal(err)
	}
	splits, pruned = pruneSplits(t, table, ge)
	if len(splits) != 2 || splits[0].Object != "obj-1" || pruned != 1 {
		t.Fatalf("id >= 199: splits %v pruned %d", splits, pruned)
	}

	// All-NULL column: any comparison on v prunes obj-1, IS NULL keeps
	// only obj-1.
	vRef := expr.Col(1, "v", types.Float64)
	vCmp, err := expr.NewCompare(expr.Gt, vRef, expr.Lit(types.FloatValue(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	splits, pruned = pruneSplits(t, table, vCmp)
	if len(splits) != 2 || pruned != 1 || splits[0].Object != "obj-0" || splits[1].Object != "obj-2" {
		t.Fatalf("v > 0.5: splits %v pruned %d", splits, pruned)
	}
	splits, pruned = pruneSplits(t, table, &expr.IsNull{E: vRef})
	if len(splits) != 1 || splits[0].Object != "obj-1" || pruned != 2 {
		t.Fatalf("v IS NULL: splits %v pruned %d", splits, pruned)
	}
}

func TestSplitPruningConservative(t *testing.T) {
	table := splitPruneTable()
	lt, err := expr.NewCompare(expr.Lt, idRef(), expr.Lit(types.IntValue(100)))
	if err != nil {
		t.Fatal(err)
	}

	// No ObjectStats: nothing is pruned.
	bare := *table
	bare.ObjectStats = nil
	splits, pruned := pruneSplits(t, &bare, lt)
	if len(splits) != 3 || pruned != 0 {
		t.Fatalf("no stats: splits %v pruned %d", splits, pruned)
	}

	// An object missing from ObjectStats is kept.
	partial := splitPruneTable()
	delete(partial.ObjectStats, "obj-2")
	splits, pruned = pruneSplits(t, partial, lt)
	if len(splits) != 2 || pruned != 1 {
		t.Fatalf("partial stats: splits %v pruned %d", splits, pruned)
	}

	// A column absent from an object's stats never prunes that object.
	noCol := splitPruneTable()
	delete(noCol.ObjectStats["obj-1"], "id")
	splits, pruned = pruneSplits(t, noCol, lt)
	if len(splits) != 2 || pruned != 1 {
		t.Fatalf("missing column stats: splits %v pruned %d", splits, pruned)
	}

	// Stats without value counts (NumValues == 0) are unreliable: keep.
	zero := splitPruneTable()
	cs := zero.ObjectStats["obj-1"]["id"]
	cs.NumValues = 0
	zero.ObjectStats["obj-1"]["id"] = cs
	splits, pruned = pruneSplits(t, zero, lt)
	if len(splits) != 2 || pruned != 1 {
		t.Fatalf("zero NumValues: splits %v pruned %d", splits, pruned)
	}

	// No pushed filter: plain split generation.
	c := New("ocs", metastore.New(), nil)
	var stats engine.ScanStats
	splits, err = c.SplitsWithStats(&Handle{Table: table}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 || stats.Snapshot().SplitsPruned != 0 {
		t.Fatalf("no filter: splits %v stats %+v", splits, stats.Snapshot())
	}
}

// TestSplitPruningProjection checks ordinal resolution under a handle
// projection: with Projection [1], filter ordinal 0 refers to column v.
func TestSplitPruningProjection(t *testing.T) {
	table := splitPruneTable()
	c := New("ocs", metastore.New(), nil)
	vCmp, err := expr.NewCompare(expr.Gt, expr.Col(0, "v", types.Float64), expr.Lit(types.FloatValue(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	h := &Handle{Table: table, Projection: []int{1}, Push: &Pushdown{Filter: vCmp}}
	var stats engine.ScanStats
	splits, err := c.SplitsWithStats(h, &stats)
	if err != nil {
		t.Fatal(err)
	}
	// v > 0.5 prunes the all-NULL obj-1.
	if len(splits) != 2 || stats.Snapshot().SplitsPruned != 1 {
		t.Fatalf("projected filter: splits %v stats %+v", splits, stats.Snapshot())
	}
}
