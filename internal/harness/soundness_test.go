package harness

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// randomDataset builds a table with a split-disjoint key — file f holds k
// in [10f, 10f+9], so the metastore derives it from the zone maps — plus
// mixed-type columns, uploaded to OCS and the object store under both
// catalogs.
func randomDataset(t *testing.T, c *Cluster, rnd *rand.Rand) *metastore.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64}, // split-disjoint
		types.Column{Name: "a", Type: types.Int64},
		types.Column{Name: "b", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	files := 3
	rows := 200
	var pages []*column.Page
	for f := 0; f < files; f++ {
		page := column.NewPage(schema)
		for r := 0; r < rows; r++ {
			vals := []types.Value{
				types.IntValue(int64(f*10 + rnd.Intn(10))),
				types.IntValue(int64(rnd.Intn(100))),
				types.FloatValue(float64(rnd.Intn(1000)) / 10),
				types.StringValue(fmt.Sprintf("tag%d", rnd.Intn(5))),
			}
			if rnd.Intn(20) == 0 {
				vals[1] = types.NullValue(types.Int64)
			}
			page.AppendRow(vals...)
		}
		pages = append(pages, page)
	}
	return putTable(t, c, ingest.TableSpec{
		Schema: CatalogOCS, Name: "randtbl", Bucket: "rand", Columns: schema,
	}, 64, pages)
}

// randomQuery composes a random-but-valid SQL query over the table.
func randomQuery(rnd *rand.Rand) string {
	var where string
	switch rnd.Intn(4) {
	case 0:
		where = fmt.Sprintf("WHERE a > %d", rnd.Intn(100))
	case 1:
		where = fmt.Sprintf("WHERE b BETWEEN %.1f AND %.1f", float64(rnd.Intn(40)), float64(60+rnd.Intn(40)))
	case 2:
		where = fmt.Sprintf("WHERE s = 'tag%d' AND a IS NOT NULL", rnd.Intn(5))
	default:
		where = ""
	}
	switch rnd.Intn(3) {
	case 0: // plain projection
		q := "SELECT k, a, b FROM randtbl " + where
		if rnd.Intn(2) == 0 {
			q += fmt.Sprintf(" ORDER BY %d LIMIT %d", 1+rnd.Intn(3), 1+rnd.Intn(20))
		}
		return q
	case 1: // grouped aggregation on the disjoint key (full pushdown eligible)
		q := "SELECT k, sum(b) AS sb, count(*) AS n, avg(b) AS ab, min(a) AS mn, max(a) AS mx FROM randtbl " +
			where + " GROUP BY k"
		if rnd.Intn(2) == 0 {
			q += fmt.Sprintf(" ORDER BY sb DESC LIMIT %d", 1+rnd.Intn(10))
		}
		return q
	default: // grouped aggregation on a non-disjoint key
		return "SELECT s, sum(a) AS sa, count(a) AS ca, avg(b) AS ab FROM randtbl " + where +
			" GROUP BY s ORDER BY s"
	}
}

// TestQuickPushdownSoundness is DESIGN.md §10's load-bearing invariant:
// for randomly generated queries and data, every pushdown configuration
// (including auto) returns exactly the same multiset of rows as no
// pushdown.
func TestQuickPushdownSoundness(t *testing.T) {
	c := testCluster(t)
	rnd := rand.New(rand.NewSource(2025))
	randomDataset(t, c, rnd)

	modes := []string{"filter", "filter_project", "filter_agg", "filter_project_agg", "all", "auto"}
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		query := randomQuery(rnd)
		baseline, err := execute(context.Background(), c.Engine, query, engine.NewSession().Set(ocsconn.SessionPushdown, "none"))
		if err != nil {
			t.Fatalf("trial %d baseline %q: %v", trial, query, err)
		}
		want := rowMultisetPage(baseline.Page)
		for _, mode := range modes {
			res, err := execute(context.Background(), c.Engine, query, engine.NewSession().Set(ocsconn.SessionPushdown, mode))
			if err != nil {
				t.Fatalf("trial %d mode %s %q: %v", trial, mode, query, err)
			}
			got := rowMultisetPage(res.Page)
			if len(got) != len(want) {
				t.Fatalf("trial %d mode %s %q: %d rows vs %d\npushed: %v",
					trial, mode, query, len(got), len(want), res.Stats.PushedDown)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d mode %s %q row %d:\n  got  %q\n  want %q\npushed: %v",
						trial, mode, query, i, got[i], want[i], res.Stats.PushedDown)
				}
			}
		}
	}
}

// TestSoundnessAcrossCodecs repeats the invariant for each codec on the
// real workloads (smaller sweep; the full matrix runs in Fig6).
func TestSoundnessAcrossCodecs(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Snappy, compress.Zstd} {
		c := testCluster(t)
		d, err := workload.Laghos(workload.Config{Files: 2, RowsPerFile: 2048, Seed: 5, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
		baseline, err := execute(context.Background(), c.Engine, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "none"))
		if err != nil {
			t.Fatal(err)
		}
		full, err := execute(context.Background(), c.Engine, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "all"))
		if err != nil {
			t.Fatal(err)
		}
		a, b := rowMultisetPage(baseline.Page), rowMultisetPage(full.Page)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("codec %s row %d: %q vs %q", codec, i, a[i], b[i])
			}
		}
		c.Close()
	}
}
