package harness

import (
	"context"
	"sort"
	"testing"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/workload"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func smallLaghos(t *testing.T, codec compress.Codec) *workload.Dataset {
	t.Helper()
	d, err := workload.Laghos(workload.Config{Files: 4, RowsPerFile: 8192, Seed: 11, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallDeepWater(t *testing.T, codec compress.Codec) *workload.Dataset {
	t.Helper()
	d, err := workload.DeepWater(workload.Config{Files: 4, RowsPerFile: 4096, Seed: 12, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFig5aLaghosShape asserts DESIGN.md's acceptance criteria for
// Fig. 5(a): every added operator reduces movement and modeled time; full
// pushdown moves ≤ 0.1% of filter-only.
func TestFig5aLaghosShape(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	cells, err := c.RunFig5(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i].BytesMoved > cells[i-1].BytesMoved {
			t.Errorf("movement increased %s->%s: %d -> %d",
				cells[i-1].Label, cells[i].Label, cells[i-1].BytesMoved, cells[i].BytesMoved)
		}
		if cells[i].Modeled.Total > cells[i-1].Modeled.Total {
			t.Errorf("modeled time increased %s->%s: %v -> %v",
				cells[i-1].Label, cells[i].Label, cells[i-1].Modeled.Total, cells[i].Modeled.Total)
		}
	}
	// At test scale (4 files × 8K rows) the separations are smaller than
	// the paper's 24 GB run but the same shape must hold: full pushdown
	// moves ≤10%% of filter-only and is ≥1.2× faster.
	full, filter := cells[3], cells[1]
	if float64(full.BytesMoved) > 0.10*float64(filter.BytesMoved) {
		t.Errorf("full pushdown moves %d bytes, filter-only %d; want ≤10%%",
			full.BytesMoved, filter.BytesMoved)
	}
	if ratio := float64(filter.Modeled.Total) / float64(full.Modeled.Total); ratio < 1.2 {
		t.Errorf("full-vs-filter speedup = %.2fx, want ≥1.2x", ratio)
	}
	// Result correctness: 100 rows from the LIMIT.
	if full.Rows != 100 {
		t.Errorf("laghos rows = %d, want 100", full.Rows)
	}
}

// TestFig5bDeepWaterShape asserts Fig. 5(b)'s distinctive feature: adding
// expression-projection pushdown slows the query down, and adding
// aggregation recovers it.
func TestFig5bDeepWaterShape(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	cells, err := c.RunFig5(d)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*Cell{}
	for _, cell := range cells {
		byLabel[cell.Label] = cell
	}
	none := byLabel["no pushdown"]
	filter := byLabel["filter"]
	proj := byLabel["filter+project"]
	agg := byLabel["filter+project+agg"]

	if filter.Modeled.Total >= none.Modeled.Total {
		t.Errorf("filter pushdown should beat none: %v vs %v", filter.Modeled.Total, none.Modeled.Total)
	}
	if proj.Modeled.Total <= filter.Modeled.Total {
		t.Errorf("projection pushdown should slow down (paper Q2): %v vs %v",
			proj.Modeled.Total, filter.Modeled.Total)
	}
	if agg.Modeled.Total >= filter.Modeled.Total {
		t.Errorf("aggregation pushdown should recover: %v vs filter %v",
			agg.Modeled.Total, filter.Modeled.Total)
	}
	if float64(agg.BytesMoved) > 0.01*float64(filter.BytesMoved) {
		t.Errorf("agg movement %d vs filter %d; want ≤1%%", agg.BytesMoved, filter.BytesMoved)
	}
	// One group per timestep file.
	if agg.Rows != 4 {
		t.Errorf("deepwater groups = %d, want 4", agg.Rows)
	}
}

// TestFig5AllConfigsSameResults: pushdown must never change answers.
func TestFig5AllConfigsSameResults(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, step := range Fig5Steps("laghos") {
		session := engine.NewSession().Set(ocsconn.SessionPushdown, step.Mode)
		cell, err := c.Run(step.Label, d.Query, session)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, cell.Rows)
	}
	sort.Ints(rows)
	if rows[0] != rows[len(rows)-1] {
		t.Errorf("row counts differ across configs: %v", rows)
	}
}

// TestFig6Shape asserts the compression study's orderings: within a
// codec, all-operator pushdown beats filter-only; compressed filter-only
// (zstd) beats uncompressed all-operator; stronger codecs are faster.
func TestFig6Shape(t *testing.T) {
	type point struct{ filter, all *Cell }
	results := map[compress.Codec]point{}
	for _, codec := range compress.Codecs() {
		c := testCluster(t)
		d := smallDeepWater(t, codec)
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
		f, err := c.RunFig6Cell(d, "filter")
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.RunFig6Cell(d, "filter_project_agg")
		if err != nil {
			t.Fatal(err)
		}
		results[codec] = point{filter: f, all: a}
		c.Close()
	}
	for codec, p := range results {
		if p.all.Modeled.Total >= p.filter.Modeled.Total {
			t.Errorf("%s: all-op (%v) should beat filter-only (%v)",
				codec, p.all.Modeled.Total, p.filter.Modeled.Total)
		}
	}
	// Compression reduces filter-only time versus uncompressed.
	if results[compress.Zstd].filter.Modeled.Total >= results[compress.None].filter.Modeled.Total {
		t.Errorf("zstd filter-only (%v) should beat uncompressed filter-only (%v)",
			results[compress.Zstd].filter.Modeled.Total, results[compress.None].filter.Modeled.Total)
	}
	// The paper's headline Q3 observation: compressed data with basic
	// filter-only pushdown outperforms uncompressed data with full
	// operator pushdown (451.7s vs 530.4s).
	if results[compress.Zstd].filter.Modeled.Total >= results[compress.None].all.Modeled.Total {
		t.Errorf("zstd filter-only (%v) should beat uncompressed all-op (%v)",
			results[compress.Zstd].filter.Modeled.Total, results[compress.None].all.Modeled.Total)
	}
}

func TestTable3Breakdown(t *testing.T) {
	c := testCluster(t)
	d, err := workload.Laghos(workload.Config{Files: 1, RowsPerFile: 4096, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	b, err := c.RunTable3(d)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 {
		t.Fatal("no total time")
	}
	planShare := float64(b.PlanAnalysis) / float64(b.Total)
	irShare := float64(b.SubstraitGen) / float64(b.Total)
	if planShare+irShare > 0.10 {
		t.Errorf("pushdown overhead share = %.1f%%, paper says <3%%",
			100*(planShare+irShare))
	}
	if b.Transfer <= 0 {
		t.Error("transfer stage empty")
	}
}

func TestSelectivityMetric(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "all")
	cell, err := c.Run("sel", d.Query, session)
	if err != nil {
		t.Fatal(err)
	}
	sel := Selectivity(cell, d)
	if sel <= 0 || sel > 0.05 {
		t.Errorf("laghos selectivity = %v, want tiny fraction", sel)
	}
}

// TestHiveVsOCSFilterAblation: the CSV (S3 Select) path must move more
// bytes and cost more modeled time than the Arrow path for the same
// filter-only pushdown — the paper's motivation for columnar results.
func TestHiveVsOCSFilterAblation(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	ocsCell, err := c.Run("ocs-filter", d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "filter"))
	if err != nil {
		t.Fatal(err)
	}
	hiveQuery := "SELECT MAX((rowid % 250000) / 500) AS m, timestep FROM hive.deepwater WHERE v02 > 0.1 GROUP BY timestep"
	hiveCell, err := c.Run("hive-filter", hiveQuery, engine.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	if hiveCell.Rows != ocsCell.Rows {
		t.Fatalf("row mismatch: %d vs %d", hiveCell.Rows, ocsCell.Rows)
	}
	if hiveCell.Modeled.Total <= ocsCell.Modeled.Total {
		t.Errorf("CSV path (%v) should cost more than Arrow path (%v)",
			hiveCell.Modeled.Total, ocsCell.Modeled.Total)
	}
}

// execute submits one query and blocks for its result.
func execute(ctx context.Context, e *engine.Engine, sql string, session *engine.Session) (*engine.Result, error) {
	q, err := e.Submit(ctx, sql, engine.WithSession(session))
	if err != nil {
		return nil, err
	}
	return q.Result()
}
