package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prestocs/internal/compress"
	"prestocs/internal/metastore"
	"prestocs/internal/parquetlite"
	"prestocs/internal/types"
)

// withinSketchError reports whether a sketched NDV lies within three
// standard errors (1.04/√1024 each) of the exact count, or one value of
// it: two values sharing a register read as one.
func withinSketchError(got, exact int64) bool {
	return math.Abs(float64(got-exact)) <= max(1, 3*1.04/32*float64(exact))
}

// TestTableNDVHoldsUnderAppendsAndCompaction: twenty commits each append
// an object holding the same three ids and three names, then one
// compaction folds the twenty into one. The table reads NDV 3 for both
// columns after every step: its sketch is the union of its objects', not
// a sum of their counts.
func TestTableNDVHoldsUnderAppendsAndCompaction(t *testing.T) {
	ctx := context.Background()
	ing, ms, store := newTestIngester(t, 1000)
	check := func(step string) {
		t.Helper()
		tbl, err := ms.Get("default", "events")
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"id", "name"} {
			if got := tbl.ColumnStats[col].NDV; got != 3 {
				t.Fatalf("after %s: %s NDV = %d, want 3", step, col, got)
			}
		}
	}
	const appends = 20
	for k := range appends {
		var rows [][]types.Value
		for i := range 6 {
			rows = append(rows, intRow(int64(i%3), []string{"a", "b", "c"}[i%3]))
		}
		if _, err := ing.Append(ctx, "default", "events", rows); err != nil {
			t.Fatal(err)
		}
		if err := ing.Flush(ctx, "default", "events"); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("append %d", k+1))
	}
	res, err := NewCompactor(ms, store, CompactorOptions{MaxMerge: appends}).RunOnce(ctx, "default", "events")
	if err != nil || len(res.Merged) != appends {
		t.Fatalf("compaction merged %d objects, want %d (err %v)", len(res.Merged), appends, err)
	}
	check("compaction")
}

// TestTableSketchIgnoresSplitAndOrder: one set of rows, shuffled, cut into
// objects at random points, written through AppendRow or AppendPage and
// committed in random groups to an empty table, ends in byte-identical
// table sketches every time, whose NDVs are those AssembleTable gives the
// same objects.
func TestTableSketchIgnoresSplitAndOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(47))
	rows := randomRows(rnd, 2000)
	var want map[string]metastore.ColumnStats
	for trial := range 6 {
		rnd.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		var keys []string
		var objs []SealedObject
		for at := 0; at < len(rows); {
			end := min(len(rows), at+1+rnd.Intn(600))
			b := NewObjectBuilder(allKinds, parquetlite.WriterOptions{RowGroupSize: 128})
			if rnd.Intn(2) == 0 {
				if err := b.AppendPage(pageOf(allKinds, rows[at:end])); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, row := range rows[at:end] {
					if err := b.AppendRow(row...); err != nil {
						t.Fatal(err)
					}
				}
			}
			sealed, err := b.Seal()
			if err != nil {
				t.Fatal(err)
			}
			keys, objs = append(keys, fmt.Sprintf("t-%d.pql", len(keys))), append(objs, sealed)
			at = end
		}
		spec := TableSpec{Schema: "default", Name: "t", Bucket: "t", Columns: allKinds, Codec: compress.None}
		ms := metastore.New()
		if err := NewIngester(ms, newFakeStore(), Options{}).CreateTable(spec); err != nil {
			t.Fatal(err)
		}
		var got *metastore.Table
		for order := rnd.Perm(len(objs)); len(order) > 0; {
			n := 1 + rnd.Intn(len(order))
			adds := make([]metastore.ObjectAdd, n)
			for i, o := range order[:n] {
				adds[i] = metastore.ObjectAdd{Key: keys[o], Bytes: objs[o].Bytes, Rows: objs[o].Rows, Stats: objs[o].Stats}
			}
			order = order[n:]
			var err error
			if got, err = ms.CommitObjects("default", "t", adds, nil); err != nil {
				t.Fatal(err)
			}
		}
		assembled, err := AssembleTable(spec, keys, objs)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = got.ColumnStats
		}
		for _, col := range allKinds.Columns {
			g := got.ColumnStats[col.Name]
			if !bytes.Equal(g.Sketch, want[col.Name].Sketch) {
				t.Fatalf("trial %d: %s's table sketch differs from trial 0's", trial, col.Name)
			}
			if a := assembled.ColumnStats[col.Name].NDV; g.NDV != a || g.NDV != want[col.Name].NDV {
				t.Fatalf("trial %d: %s NDV %d committed, %d assembled, %d at trial 0", trial, col.Name, g.NDV, a, want[col.Name].NDV)
			}
		}
	}
}

// TestSketchKeysFloatsByBitPattern: NaNs of every payload and sign are one
// value, while -0 and +0, which compare equal, are two; through AppendRow
// and AppendPage alike.
func TestSketchKeysFloatsByBitPattern(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "f", Type: types.Float64})
	var rows [][]types.Value
	for _, f := range []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
		math.Float64frombits(0x7ff0000000000001), math.Copysign(0, -1), 0, 1.5, math.NaN(), 0,
	} {
		rows = append(rows, []types.Value{types.FloatValue(f)})
	}
	for _, viaPage := range []bool{false, true} {
		b := NewObjectBuilder(schema, parquetlite.WriterOptions{})
		if viaPage {
			if err := b.AppendPage(pageOf(schema, rows)); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, row := range rows {
				if err := b.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
			}
		}
		sealed, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if got := sealed.Stats["f"].NDV; got != 4 { // NaN, -0, +0, 1.5
			t.Errorf("page %v: NDV = %d, want 4", viaPage, got)
		}
	}
}
