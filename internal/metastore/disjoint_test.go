package metastore_test

import (
	"fmt"
	"testing"

	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// zones is one column's per-object zone maps, in object order; a nil
// entry is an object with no zone map for the column.
type zones []*expr.ZoneMap

// ints is the zone map of an object with rows values of which nulls are
// NULL and the rest span [min, max].
func ints(min, max int64, nulls, rows int64) *expr.ZoneMap {
	z := &expr.ZoneMap{Min: types.IntValue(min), Max: types.IntValue(max), NullCount: nulls, NumValues: rows}
	if nulls == rows {
		z.Min, z.Max = types.NullValue(types.Int64), types.NullValue(types.Int64)
	}
	return z
}

// table registers one column of kind under the given zone maps.
func table(kind types.Kind, objects zones) *metastore.Table {
	t := &metastore.Table{
		Schema: "ocs", Name: "t",
		Columns:     types.NewSchema(types.Column{Name: "c", Type: kind}),
		ObjectStats: map[string]map[string]metastore.ColumnStats{},
	}
	for i, z := range objects {
		key := fmt.Sprintf("part-%d", i)
		t.Objects = append(t.Objects, key)
		t.ObjectStats[key] = map[string]metastore.ColumnStats{}
		if z != nil {
			t.ObjectStats[key]["c"] = metastore.ColumnStats{ZoneMap: *z}
		}
	}
	return t
}

func TestSplitDisjointDerivedFromZoneMaps(t *testing.T) {
	floats := func(min, max float64) *expr.ZoneMap {
		return &expr.ZoneMap{Min: types.FloatValue(min), Max: types.FloatValue(max), NumValues: 4}
	}
	cases := []struct {
		name    string
		kind    types.Kind
		objects zones
		want    bool
	}{
		{"disjoint ranges", types.Int64, zones{ints(0, 9, 0, 4), ints(10, 19, 0, 4), ints(20, 29, 0, 4)}, true},
		{"disjoint out of object order", types.Int64, zones{ints(20, 29, 0, 4), ints(0, 9, 0, 4), ints(10, 19, 0, 4)}, true},
		{"overlapping ranges", types.Int64, zones{ints(0, 10, 0, 4), ints(5, 19, 0, 4)}, false},
		{"one range inside another", types.Int64, zones{ints(0, 100, 0, 4), ints(40, 50, 0, 4)}, false},
		{"touching ranges", types.Int64, zones{ints(0, 10, 0, 4), ints(10, 19, 0, 4)}, false},
		{"NULLs in two objects", types.Int64, zones{ints(0, 9, 1, 4), ints(10, 19, 2, 4)}, false},
		{"NULLs in one object", types.Int64, zones{ints(0, 9, 1, 4), ints(10, 19, 0, 4)}, true},
		{"an all-NULL object", types.Int64, zones{ints(0, 9, 0, 4), ints(0, 0, 4, 4), ints(10, 19, 0, 4)}, true},
		{"an all-NULL object beside other NULLs", types.Int64, zones{ints(0, 9, 1, 4), ints(0, 0, 4, 4)}, false},
		{"an object with no zone map", types.Int64, zones{ints(0, 9, 0, 4), nil}, false},
		{"a zone map with no value count", types.Int64, zones{ints(0, 9, 0, 4), ints(10, 19, 0, 0)}, false},
		{"a Float64 column", types.Float64, zones{floats(0, 1), floats(2, 3)}, false},
		{"one object", types.Int64, zones{ints(0, 9, 3, 4)}, true},
		{"an empty table", types.Int64, zones{}, true},
		{"string ranges", types.String, zones{
			{Min: types.StringValue("a"), Max: types.StringValue("f"), NumValues: 4},
			{Min: types.StringValue("g"), Max: types.StringValue("z"), NumValues: 4},
		}, true},
	}
	for _, tc := range cases {
		if got := table(tc.kind, tc.objects).SplitDisjoint("c"); got != tc.want {
			t.Errorf("%s: SplitDisjoint = %v, want %v", tc.name, got, tc.want)
		}
	}
	if table(types.Int64, zones{ints(0, 9, 0, 4)}).SplitDisjoint("absent") {
		t.Error("a column the table does not have is split-disjoint")
	}
}

// The generated datasets declare nothing; the zone maps alone make their
// per-file keys split-disjoint and leave everything else alone.
func TestSplitDisjointOfGeneratedTables(t *testing.T) {
	cfg := workload.Config{Files: 4, RowsPerFile: 512, Seed: 3}
	cases := []struct {
		gen      func(workload.Config) (*workload.Dataset, error)
		disjoint []string
		not      []string
	}{
		{workload.Laghos, []string{"vertex_id"}, []string{"x", "e"}},
		{workload.DeepWater, []string{"timestep"}, []string{"rowid", "v02"}},
		{workload.TPCH, []string{"orderkey"}, []string{"returnflag", "linestatus", "shipdate"}},
	}
	for _, tc := range cases {
		d, err := tc.gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range tc.disjoint {
			if !d.Table.SplitDisjoint(c) {
				t.Errorf("%s.%s: not derived split-disjoint", d.Name, c)
			}
		}
		for _, c := range tc.not {
			if d.Table.SplitDisjoint(c) {
				t.Errorf("%s.%s: derived split-disjoint", d.Name, c)
			}
		}
	}
}
