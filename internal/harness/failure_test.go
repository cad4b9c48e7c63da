package harness

import (
	"context"
	"sort"
	"strings"
	"testing"

	"prestocs/internal/column"
	"prestocs/internal/compress"
	"prestocs/internal/connector/hive"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/workload"
)

// Failure injection: the full stack must surface storage-layer faults as
// query errors, never as wrong or partial results.

func TestCorruptObjectFailsQuery(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// Overwrite one object with garbage through the OCS frontend.
	key := d.Table.Objects[2]
	if err := c.OCSCli.Put(context.Background(), d.Table.Bucket, key, []byte("this is not a parquet file")); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"none", "filter", "filter_project_agg"} {
		_, err := c.Run(mode, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, mode))
		if err == nil {
			t.Errorf("mode %s: query over corrupt object succeeded", mode)
		}
	}
}

func TestTruncatedObjectFailsQuery(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.Snappy)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	key := d.Table.Objects[0]
	img := d.Objects[key]
	if err := c.OCSCli.Put(context.Background(), d.Table.Bucket, key, img[:len(img)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("trunc", d.Query, engine.NewSession()); err == nil {
		t.Error("query over truncated object succeeded")
	}
}

func TestMissingObjectFailsQuery(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// Register a table whose object list references a key never uploaded.
	tbl := *d.Table
	tbl.Schema = CatalogOCS
	tbl.Name = "ghost"
	tbl.Objects = append([]string(nil), tbl.Objects...)
	tbl.Objects[1] = "does-not-exist.pql"
	if err := c.Meta.Register(&tbl); err != nil {
		t.Fatal(err)
	}
	q := strings.Replace(d.Query, "FROM deepwater", "FROM ghost", 1)
	if _, err := c.Run("ghost", q, engine.NewSession()); err == nil {
		t.Error("query over missing object succeeded")
	}
}

func TestDeadStorageNodeFailsQuery(t *testing.T) {
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// Kill the storage node; frontend RPCs must fail, and the engine must
	// propagate that as a query error.
	c.OCS.Nodes[0].Close()
	if _, err := c.Run("dead", d.Query, engine.NewSession()); err == nil {
		t.Error("query against dead storage node succeeded")
	}
}

func TestSchemaDriftFailsQuery(t *testing.T) {
	// Catalog says one schema, object stores another: every scan path —
	// the OCS embedded engine and the engine-side whole-object scan alike
	// — must fail the query instead of misinterpreting columns.
	c := testCluster(t)
	d := smallDeepWater(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	other := smallLaghos(t, compress.None)
	// Replace a deepwater object with a laghos object (different schema)
	// in both stores.
	ctx, img := context.Background(), other.Objects[other.Table.Objects[0]]
	if err := c.OCSCli.Put(ctx, d.Table.Bucket, d.Table.Objects[0], img); err != nil {
		t.Fatal(err)
	}
	if err := c.ObjCli.Put(ctx, d.Table.Bucket, d.Table.Objects[0], img); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"none", "filter", "all", "auto"} {
		if _, err := c.Run(mode, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, mode)); err == nil {
			t.Errorf("ocs pushdown %s: schema drift went undetected", mode)
		}
	}
	q := strings.Replace(d.Query, "FROM deepwater", "FROM hive.deepwater", 1)
	if _, err := c.Run("hive", q, engine.NewSession().Set(hive.SessionSelectPushdown, "false")); err == nil {
		t.Error("hive whole-object scan: schema drift went undetected")
	}
}

func TestMultiNodeCluster(t *testing.T) {
	c, err := StartCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := workload.Laghos(workload.Config{Files: 9, RowsPerFile: 2048, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// Objects must be spread across nodes.
	populated := 0
	for _, node := range c.OCS.Nodes {
		if keys, err := node.Store().List(d.Table.Bucket, ""); err == nil && len(keys) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("placement not spread: %d/3 nodes populated", populated)
	}
	// Full pushdown across nodes returns the same answer as none.
	baseline, err := execute(context.Background(), c.Engine, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "none"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := execute(context.Background(), c.Engine, d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "all"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := rowMultisetPage(baseline.Page), rowMultisetPage(full.Page)
	if len(a) != len(b) {
		t.Fatalf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func rowMultisetPage(p *column.Page) []string {
	out := orderedRows(p)
	sort.Strings(out)
	return out
}
