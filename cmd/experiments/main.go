// Command experiments regenerates every table and figure in the paper's
// evaluation section (DESIGN.md §5): Table 1 (hardware profiles), Table 2
// (queries and selectivity), Figure 5 a/b/c (progressive pushdown over
// Laghos, Deep Water and TPC-H Q1), Figure 6 (compression × pushdown) and
// Table 3 (single-query overhead breakdown).
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig5a|fig5b|fig5c|fig6|table3]
//	            [-files N] [-rows N] [-nodes N] [-v]
//
// Each experiment stands up the full topology in-process (engine, OCS
// frontend + storage nodes over loopback TCP), generates
// the dataset, runs the sweep and prints paper-style rows with both
// modeled time (Table 1 hardware, see internal/costmodel) and measured
// data movement.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/harness"
	"prestocs/internal/workload"
)

var (
	expFlag   = flag.String("exp", "all", "experiment: all, table1, table2, fig5a, fig5b, fig5c, fig6, table3")
	filesFlag = flag.Int("files", 0, "override object count per dataset (0 = experiment default)")
	rowsFlag  = flag.Int("rows", 0, "override rows per object (0 = experiment default)")
	nodesFlag = flag.Int("nodes", 1, "OCS storage nodes")
	verbose   = flag.Bool("v", false, "print per-cell stage breakdowns")
)

func main() {
	flag.Parse()
	runners := map[string]func() error{
		"table1": table1,
		"table2": table2,
		"fig5a":  fig5a,
		"fig5b":  fig5b,
		"fig5c":  fig5c,
		"fig6":   fig6,
		"table3": table3,
	}
	order := []string{"table1", "table2", "fig5a", "fig5b", "fig5c", "fig6", "table3"}
	if *expFlag != "all" {
		if _, ok := runners[*expFlag]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
			os.Exit(2)
		}
		order = []string{*expFlag}
	}
	for _, name := range order {
		if err := runners[name](); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func cfg(defFiles, defRows int, codec compress.Codec) workload.Config {
	c := workload.Config{Files: defFiles, RowsPerFile: defRows, Codec: codec, Seed: 42}
	if *filesFlag > 0 {
		c.Files = *filesFlag
	}
	if *rowsFlag > 0 {
		c.RowsPerFile = *rowsFlag
	}
	return c
}

func header(title string) {
	fmt.Println("======================================================================")
	fmt.Println(title)
	fmt.Println("======================================================================")
}

// table1 prints the hardware profiles the cost model uses.
func table1() error {
	header("Table 1: Hardware specifications (cost-model profiles)")
	p := costmodel.Default()
	row := func(n costmodel.NodeProfile) {
		fmt.Printf("  %-10s %3d cores @ %.1f GHz, %4d GB RAM  (capacity %.1f core-GHz)\n",
			n.Name, n.Cores, n.GHz, n.MemGB, n.Capacity())
	}
	row(p.Compute)
	row(p.Frontend)
	row(p.Storage)
	fmt.Printf("  network    10 GbE (%.2f GB/s)\n", p.NetworkBytesPerSec/1e9)
	fmt.Printf("  media      NVMe (%.1f GB/s read)\n", p.MediaBytesPerSec/1e9)
	return nil
}

func loadDataset(c *harness.Cluster, kind string, codec compress.Codec) (*workload.Dataset, error) {
	var d *workload.Dataset
	var err error
	switch kind {
	case "laghos":
		d, err = workload.Laghos(cfg(16, 16384, codec))
	case "deepwater":
		d, err = workload.DeepWater(cfg(16, 32768, codec))
	case "tpch":
		d, err = workload.TPCH(cfg(8, 32768, codec))
	default:
		return nil, fmt.Errorf("unknown dataset %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return d, c.Load(d)
}

// table2 prints each query, its execution plan shape and measured
// selectivity.
func table2() error {
	header("Table 2: Queries, plans and measured selectivity")
	c, err := harness.StartCluster(*nodesFlag)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, kind := range []string{"laghos", "deepwater", "tpch"} {
		d, err := loadDataset(c, kind, compress.None)
		if err != nil {
			return err
		}
		cell, err := c.Run(kind, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "none"))
		if err != nil {
			return err
		}
		sel := harness.Selectivity(cell, d)
		fmt.Printf("Dataset: %s (%d objects, %d rows, %.1f MB stored)\n",
			d.Name, len(d.Table.Objects), d.Table.RowCount, float64(d.Table.TotalBytes)/1e6)
		fmt.Printf("  Query: %s\n", d.Query)
		fmt.Printf("  Selectivity: %.7f%%  (result %d rows)\n", sel*100, cell.Rows)
		if *verbose {
			fmt.Printf("  Plan:\n%s", indent(cell.Stats.PlanText))
		}
	}
	return nil
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "    " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

func runFig5(name, kind string, paperNote string) error {
	header(fmt.Sprintf("Figure 5(%s): progressive pushdown — %s", name, kind))
	fmt.Println(paperNote)
	c, err := harness.StartCluster(*nodesFlag)
	if err != nil {
		return err
	}
	defer c.Close()
	d, err := loadDataset(c, kind, compress.None)
	if err != nil {
		return err
	}
	cells, err := c.RunFig5(d)
	if err != nil {
		return err
	}
	printCells(cells)
	base := cells[1] // filter-only baseline, as in the paper's speedup claims
	last := cells[len(cells)-1]
	fmt.Printf("  => full pushdown vs filter-only: %.2fx modeled speedup, %.2f%% movement reduction\n",
		ratio(base.Modeled.Total, last.Modeled.Total),
		100*(1-float64(last.BytesMoved)/float64(base.BytesMoved)))
	return nil
}

func printCells(cells []*harness.Cell) {
	fmt.Printf("  %-20s %14s %14s %12s %8s %s\n",
		"pushdown", "modeled time", "wall time", "moved", "rows", "pushed-ops")
	for _, cell := range cells {
		fmt.Printf("  %-20s %14v %14v %12s %8d %v\n",
			cell.Label, cell.Modeled.Total.Round(time.Microsecond),
			cell.Wall.Round(time.Microsecond), byteCount(cell.BytesMoved), cell.Rows, cell.Pushed)
		if *verbose {
			fmt.Printf("      %s\n", cell.Modeled)
		}
	}
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func byteCount(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func fig5a() error {
	return runFig5("a", "laghos",
		"Paper: 2710s none / 1015s filter / 828s +agg / 450s full; movement 24GB -> 0.5MB.")
}

func fig5b() error {
	return runFig5("b", "deepwater",
		"Paper: 1033s none / 441s filter / 473s +project (slowdown) / 335s +agg; movement 30GB -> 1MB.")
}

func fig5c() error {
	return runFig5("c", "tpch",
		"Paper: 11s none / 9s filter / 14s +project (slowdown) / 2.21s +agg; movement 194MB -> 0.5MB.")
}

// fig6 sweeps codecs × {filter-only, all-operator} over Deep Water.
func fig6() error {
	header("Figure 6: compression × pushdown — deepwater")
	fmt.Println("Paper: within each codec all-op beats filter-only (1.22x-1.39x);")
	fmt.Println("compressed filter-only (zstd, 451.7s) beats uncompressed all-op (530.4s).")
	fmt.Printf("  %-8s %-12s %14s %14s %12s\n", "codec", "pushdown", "modeled time", "wall time", "moved")
	type key struct {
		codec compress.Codec
		mode  string
	}
	totals := map[key]time.Duration{}
	for _, codec := range compress.Codecs() {
		c, err := harness.StartCluster(*nodesFlag)
		if err != nil {
			return err
		}
		d, err := loadDataset(c, "deepwater", codec)
		if err != nil {
			c.Close()
			return err
		}
		for _, mode := range []string{"filter", "filter_project_agg"} {
			cell, err := c.RunFig6Cell(d, mode)
			if err != nil {
				c.Close()
				return err
			}
			label := "filter-only"
			if mode != "filter" {
				label = "all-op"
			}
			totals[key{codec, mode}] = cell.Modeled.Total
			fmt.Printf("  %-8s %-12s %14v %14v %12s\n",
				codec, label, cell.Modeled.Total.Round(time.Microsecond),
				cell.Wall.Round(time.Microsecond), byteCount(cell.BytesMoved))
		}
		c.Close()
	}
	for _, codec := range compress.Codecs() {
		f := totals[key{codec, "filter"}]
		a := totals[key{codec, "filter_project_agg"}]
		fmt.Printf("  => %s: all-op vs filter-only speedup %.2fx\n", codec, ratio(f, a))
	}
	return nil
}

// table3 breaks a single-object query into the paper's stages.
func table3() error {
	header("Table 3: execution-time breakdown, single query on one object")
	c, err := harness.StartCluster(1)
	if err != nil {
		return err
	}
	defer c.Close()
	d, err := workload.Laghos(cfg(1, 65536, compress.None))
	if err != nil {
		return err
	}
	if err := c.Load(d); err != nil {
		return err
	}
	b, err := c.RunTable3(d)
	if err != nil {
		return err
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(b.Total) }
	fmt.Printf("  %-30s %12s %8s\n", "stage", "time", "share")
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Logical plan analysis", b.PlanAnalysis.Round(time.Microsecond), pct(b.PlanAnalysis))
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Substrait IR generation", b.SubstraitGen.Round(time.Microsecond), pct(b.SubstraitGen))
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Pushdown & result transfer", b.Transfer.Round(time.Microsecond), pct(b.Transfer))
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Engine execution (post-scan)", b.Residual.Round(time.Microsecond), pct(b.Residual))
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Others", b.Other.Round(time.Microsecond), pct(b.Other))
	fmt.Printf("  %-30s %12v %7.2f%%\n", "Total", b.Total.Round(time.Microsecond), 100.0)
	fmt.Println("  (paper: 0.06% plan analysis, 1.94% IR generation, 40.1% pushdown+transfer, 47.9% Presto execution)")
	return nil
}
