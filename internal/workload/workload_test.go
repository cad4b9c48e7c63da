package workload

import (
	"math"
	"testing"

	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/sqlparser"
	"prestocs/internal/types"
)

// withinSketchError reports whether a sketched NDV lies within three
// standard errors (1.04/√1024 each) of the exact count, or one value of
// it: two values sharing a register read as one.
func withinSketchError(got, exact int64) bool {
	return math.Abs(float64(got-exact)) <= max(1, 3*1.04/32*float64(exact))
}

// TestDatasetNDVWithinSketchError: every column of the four generated
// tables reads an NDV within the sketch's error of the exact count, taken
// here with a map over the values the objects hold, keyed as the sketch
// keys them (a float by its bit pattern, every NaN one value).
func TestDatasetNDVWithinSketchError(t *testing.T) {
	cfg := Config{Files: 4, RowsPerFile: 4096, Seed: 5}
	for name, gen := range map[string]func(Config) (*Dataset, error){
		"laghos": Laghos, "deepwater": DeepWater, "orders": TPCHOrders, "lineitem": TPCH,
	} {
		d, err := gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			w uint64
			s string
		}
		exact := make([]map[key]bool, d.Table.Columns.Len())
		cols := make([]int, len(exact))
		for c := range exact {
			exact[c], cols[c] = map[key]bool{}, c
		}
		for _, img := range d.Objects {
			r, err := parquetlite.NewReader(img)
			if err != nil {
				t.Fatal(err)
			}
			pages, err := r.ReadAll(cols)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pages {
				for i := 0; i < p.NumRows(); i++ {
					for c, v := range p.Row(i) {
						switch {
						case v.Null:
						case v.Kind == types.String:
							exact[c][key{s: v.S}] = true
						case v.Kind == types.Float64 && v.F != v.F:
							exact[c][key{w: math.Float64bits(math.NaN())}] = true
						case v.Kind == types.Float64:
							exact[c][key{w: math.Float64bits(v.F)}] = true
						case v.Kind == types.Bool && v.B:
							exact[c][key{w: 1}] = true
						case v.Kind == types.Bool:
							exact[c][key{}] = true
						default:
							exact[c][key{w: uint64(v.I)}] = true
						}
					}
				}
			}
		}
		for c, col := range d.Table.Columns.Columns {
			want := int64(len(exact[c]))
			if got := d.Table.ColumnStats[col.Name].NDV; !withinSketchError(got, want) {
				t.Errorf("%s.%s: NDV %d, exact %d", name, col.Name, got, want)
			}
		}
	}
}

func smallCfg() Config {
	return Config{Files: 4, RowsPerFile: 512, Seed: 1}
}

func TestLaghosShape(t *testing.T) {
	d, err := Laghos(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d.Table.Columns.Len() != 10 {
		t.Errorf("laghos columns = %d, want 10 (paper)", d.Table.Columns.Len())
	}
	if d.Table.RowCount != 4*512 {
		t.Errorf("rows = %d", d.Table.RowCount)
	}
	if len(d.Table.Objects) != 4 || len(d.Objects) != 4 {
		t.Errorf("objects = %d", len(d.Table.Objects))
	}
	// vertex_id is split-disjoint: RowsPerFile/8 vertices per file.
	cs, ok := d.Table.Stats("vertex_id")
	if !ok || !withinSketchError(cs.NDV, 4*512/8) {
		t.Errorf("vertex_id NDV = %d, want %d within the sketch's error", cs.NDV, 4*512/8)
	}
	if !d.Table.SplitDisjoint("vertex_id") {
		t.Error("vertex_id zone maps overlap across objects")
	}
	// Coordinates span [0,4).
	xs, _ := d.Table.Stats("x")
	if xs.Min.F < 0 || xs.Max.F >= 4.0 {
		t.Errorf("x range = [%v, %v]", xs.Min, xs.Max)
	}
}

func TestLaghosDeterministic(t *testing.T) {
	a, err := Laghos(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Laghos(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for key := range a.Objects {
		if string(a.Objects[key]) != string(b.Objects[key]) {
			t.Fatalf("object %s differs between runs", key)
		}
	}
	c, err := Laghos(Config{Files: 4, RowsPerFile: 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for key := range a.Objects {
		if string(a.Objects[key]) != string(c.Objects[key]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestLaghosVertexDisjointness(t *testing.T) {
	d, err := Laghos(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]string{}
	for key, img := range d.Objects {
		r, err := parquetlite.NewReader(img)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll([]int{0})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				vid := p.Row(i)[0].I
				if owner, ok := seen[vid]; ok && owner != key {
					t.Fatalf("vertex %d appears in both %s and %s", vid, owner, key)
				}
				seen[vid] = key
			}
		}
	}
}

func TestDeepWaterShape(t *testing.T) {
	d, err := DeepWater(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if d.Table.Columns.Len() != 4 {
		t.Errorf("deepwater columns = %d, want 4 (paper)", d.Table.Columns.Len())
	}
	// One timestep per file.
	cs, _ := d.Table.Stats("timestep")
	if cs.NDV != 4 {
		t.Errorf("timestep NDV = %d, want 4", cs.NDV)
	}
	// Filter keep rate ~18% (paper: 5.37/30 GB ≈ 18%).
	var pass, total int
	for _, img := range d.Objects {
		r, _ := parquetlite.NewReader(img)
		pages, _ := r.ReadAll([]int{1})
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				total++
				if p.Row(i)[0].F > 0.1 {
					pass++
				}
			}
		}
	}
	rate := float64(pass) / float64(total)
	if rate < 0.14 || rate > 0.22 {
		t.Errorf("v02 > 0.1 keep rate = %v, want ~0.18", rate)
	}
}

func TestTPCHShape(t *testing.T) {
	d, err := TPCH(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rf, _ := d.Table.Stats("returnflag")
	ls, _ := d.Table.Stats("linestatus")
	if rf.NDV != 3 || ls.NDV != 2 {
		t.Errorf("NDV returnflag=%d linestatus=%d, want 3/2", rf.NDV, ls.NDV)
	}
	// Q1 filter keeps ~96-99% of rows.
	cutoffVal, err := types.DateFromString("1998-09-02")
	if err != nil {
		t.Fatal(err)
	}
	cutoff := cutoffVal.I
	var pass, total int
	for _, img := range d.Objects {
		r, _ := parquetlite.NewReader(img)
		pages, _ := r.ReadAll([]int{7})
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				total++
				if p.Row(i)[0].I <= cutoff {
					pass++
				}
			}
		}
	}
	rate := float64(pass) / float64(total)
	if rate < 0.93 || rate > 1.0 {
		t.Errorf("shipdate filter keep rate = %v, want ~0.97", rate)
	}
	// orderkey is a per-file range; returnflag repeats in every file.
	if !d.Table.SplitDisjoint("orderkey") || d.Table.SplitDisjoint("returnflag") {
		t.Errorf("derived disjointness: orderkey %v, returnflag %v; want true, false",
			d.Table.SplitDisjoint("orderkey"), d.Table.SplitDisjoint("returnflag"))
	}
}

func TestQueriesParse(t *testing.T) {
	for _, q := range []string{LaghosQuery, DeepWaterQuery, TPCHQuery} {
		if _, err := sqlparser.Parse(q); err != nil {
			t.Errorf("query %q does not parse: %v", q, err)
		}
	}
}

func TestRegister(t *testing.T) {
	d, err := DeepWater(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	ms := metastore.New()
	if err := d.Register(ms, "ocs"); err != nil {
		t.Fatal(err)
	}
	tbl, err := ms.Get("ocs", "deepwater")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema != "ocs" {
		t.Errorf("catalog = %s", tbl.Schema)
	}
	// Registration must not mutate the dataset's own table.
	if d.Table.Schema != "default" {
		t.Error("Register mutated source table")
	}
}

func TestCompressionRatios(t *testing.T) {
	sizes := map[compress.Codec]int64{}
	for _, codec := range compress.Codecs() {
		d, err := DeepWater(Config{Files: 2, RowsPerFile: 4096, Seed: 3, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		sizes[codec] = d.Table.TotalBytes
	}
	if !(sizes[compress.Zstd] <= sizes[compress.Gzip] &&
		sizes[compress.Gzip] < sizes[compress.None] &&
		sizes[compress.Snappy] < sizes[compress.None]) {
		t.Errorf("codec size ordering wrong: %v", sizes)
	}
}
