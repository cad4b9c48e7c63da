package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/parquetlite"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// sqlLit renders one typed value as a SQL literal that parses back to
// the identical value: floats via strconv's shortest round-trip form,
// dates as DATE literals, strings with quote doubling.
func sqlLit(v types.Value) string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case types.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case types.Date:
		return "DATE '" + v.String() + "'"
	default:
		return v.String()
	}
}

// datasetRows decodes every row of a generated dataset, in object order.
// The dataset acts purely as a row source here — nothing is pre-loaded.
func datasetRows(t testing.TB, d *workload.Dataset) [][]types.Value {
	t.Helper()
	all := make([]int, d.Table.Columns.Len())
	for i := range all {
		all[i] = i
	}
	var rows [][]types.Value
	for _, key := range d.Table.Objects {
		r, err := parquetlite.NewReader(d.Objects[key])
		if err != nil {
			t.Fatal(err)
		}
		pages, err := r.ReadAll(all)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			for i := 0; i < p.NumRows(); i++ {
				rows = append(rows, p.Row(i))
			}
		}
	}
	return rows
}

// insertSQL builds one multi-tuple INSERT statement.
func insertSQL(table string, rows [][]types.Value) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(table)
	sb.WriteString(" VALUES ")
	for i, row := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(sqlLit(v))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// ingestSpec shapes an ingest-path table after a generated dataset,
// without registering the dataset's own objects. Whether a key is
// split-disjoint is derived from the per-object zone maps the ingest
// path records, as for any table: nothing is carried over.
func ingestSpec(d *workload.Dataset) ingest.TableSpec {
	return ingest.TableSpec{
		Schema:  CatalogOCS,
		Name:    d.Table.Name,
		Bucket:  d.Table.Bucket,
		Columns: d.Table.Columns,
		Codec:   d.Table.Codec,
	}
}

// ingestDatasetSQL pushes every dataset row through engine.Ingest as
// INSERT statements, batch tuples at a time — the full write path:
// parse, constant folding, coercion, ingest buffer, object seal,
// storage put, metastore commit.
func ingestDatasetSQL(t testing.TB, c *Cluster, d *workload.Dataset, batch int) {
	t.Helper()
	rows := datasetRows(t, d)
	var total int64
	for at := 0; at < len(rows); at += batch {
		end := at + batch
		if end > len(rows) {
			end = len(rows)
		}
		res, err := c.Engine.Ingest(context.Background(), insertSQL(d.Table.Name, rows[at:end]))
		if err != nil {
			t.Fatalf("ingest %s rows [%d,%d): %v", d.Table.Name, at, end, err)
		}
		total += res.Rows
	}
	if total != int64(len(rows)) {
		t.Fatalf("ingested %d of %d rows", total, len(rows))
	}
}

// scanPinnedHandle reads every row the handle's pinned snapshot
// references, raw off storage, as a sorted row multiset. The handle's
// object list is the snapshot: objects compacted away after the pin was
// taken must still be readable.
func scanPinnedHandle(t *testing.T, c *Cluster, h *ocsconn.Handle) []string {
	t.Helper()
	var out []string
	var stats engine.ScanStats
	for i, key := range h.Table.Objects {
		src, err := openSplit(context.Background(), c, h, engine.Split{Object: key, Index: i}, &stats)
		if err != nil {
			t.Fatalf("open pinned split %s: %v", key, err)
		}
		for {
			page, sel, err := src.Next()
			if err != nil {
				t.Fatalf("pinned scan %s: %v", key, err)
			}
			if page == nil {
				break
			}
			page = page.Keep(sel)
			for r := 0; r < page.NumRows(); r++ {
				s := ""
				for _, v := range page.Row(r) {
					s += v.String() + "|"
				}
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestIngestQ3EndToEndWithConcurrentCompaction is the PR's acceptance
// test: both Q3 tables are built entirely through the ingest path — SQL
// INSERT statements through engine.Ingest, no datagen pre-load — and the
// Q3-shaped join, with split pruning and the node caches active and
// a compactor racing the queries, returns exactly the row-at-a-time
// reference answer before, during and after compaction.
func TestIngestQ3EndToEndWithConcurrentCompaction(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	want := q3Reference(t, line, ords)

	ing := c.NewIngester(ingest.Options{})
	for _, d := range []*workload.Dataset{line, ords} {
		if err := ing.CreateTable(ingestSpec(d)); err != nil {
			t.Fatal(err)
		}
		ingestDatasetSQL(t, c, d, 128)
	}
	// Each INSERT statement sealed one object: plenty of small objects
	// for the compactor to chew on while queries run.
	tbl, err := c.Meta.Get(CatalogOCS, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	objectsBefore := len(tbl.Objects)
	if objectsBefore < 4 {
		t.Fatalf("ingest produced %d lineitem objects, want ≥ 4", objectsBefore)
	}

	runQ3 := func(label string) {
		t.Helper()
		res, err := execute(context.Background(), c.Engine, workload.TPCHQ3Query, engine.NewSession())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertRowsEqual(t, label, rowMultisetPage(res.Page), want)
	}
	runQ3("pre-compaction")

	// Race a compactor against repeated executions of the query. MaxMerge
	// 4 forces multiple merge rounds, so object-set swaps land while
	// queries are in flight; every answer must still be the reference.
	comp := c.NewCompactor(ingest.CompactorOptions{MaxMerge: 4, ClusterBy: "orderkey"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"lineitem", "orders"} {
				if _, err := comp.RunOnce(context.Background(), CatalogOCS, name); err != nil {
					t.Errorf("compaction: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		runQ3(fmt.Sprintf("during-compaction-%d", i))
	}
	close(stop)
	wg.Wait()

	// Drain remaining merges and tombstones, then verify steady state:
	// fewer live objects, the same answer, and nothing left to reap.
	for i := 0; i < 6; i++ {
		if _, err := comp.RunOnce(context.Background(), CatalogOCS, "lineitem"); err != nil {
			t.Fatal(err)
		}
		if _, err := comp.RunOnce(context.Background(), CatalogOCS, "orders"); err != nil {
			t.Fatal(err)
		}
	}
	runQ3("post-compaction")
	tbl, err = c.Meta.Get(CatalogOCS, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Objects) >= objectsBefore {
		t.Errorf("compaction left %d objects, started with %d", len(tbl.Objects), objectsBefore)
	}
	if tbl.RowCount != int64(3*q3Config.Files*q3Config.RowsPerFile)/3 {
		t.Errorf("lineitem rows = %d, want %d", tbl.RowCount, q3Config.Files*q3Config.RowsPerFile)
	}
	if n := c.Meta.TombstoneCount(CatalogOCS, "lineitem"); n != 0 {
		t.Errorf("%d lineitem tombstones awaiting GC with no pins outstanding", n)
	}
	if c.Meta.PinnedCount() != 0 {
		t.Errorf("%d pins leaked", c.Meta.PinnedCount())
	}

	// The write path reported itself: rows ingested on both tables,
	// compaction runs recorded.
	wantRows := int64(2 * q3Config.Files * q3Config.RowsPerFile)
	gotRows := c.Metrics.CounterValue(telemetry.MetricIngestRows, "table", "lineitem") +
		c.Metrics.CounterValue(telemetry.MetricIngestRows, "table", "orders")
	if gotRows != wantRows {
		t.Errorf("%s = %v, want %v", telemetry.MetricIngestRows, gotRows, wantRows)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricCompactMerged, "table", "lineitem"); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricCompactMerged)
	}
}

// TestSnapshotPinnedScanSurvivesIngestAndCompaction is the snapshot
// differential: a scan that resolves its handle before an
// ingest+compaction cycle must read byte-identical results afterwards —
// the pinned object set stays physically present until the pin releases,
// and only then does garbage collection reclaim it.
func TestSnapshotPinnedScanSurvivesIngestAndCompaction(t *testing.T) {
	c, err := StartCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	d, err := workload.TPCHOrders(workload.Config{Files: 2, RowsPerFile: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ing := c.NewIngester(ingest.Options{FlushRows: 256})
	if err := ing.CreateTable(ingestSpec(d)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, datasetRows(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
		t.Fatal(err)
	}

	// The long-running scan plans now: its handle pins this snapshot.
	th, err := c.OCSConn.TableHandle(CatalogOCS, d.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	pinned := th.(*ocsconn.Handle)
	pinnedObjects := append([]string(nil), pinned.Table.Objects...)
	before := scanPinnedHandle(t, c, pinned)
	if len(before) != 512 {
		t.Fatalf("pinned scan read %d rows", len(before))
	}

	// An ingest+compaction cycle races the scan: new rows arrive and the
	// compactor rewrites the object set the scan still references.
	var extra [][]types.Value
	for i := 0; i < 100; i++ {
		extra = append(extra, []types.Value{
			types.IntValue(int64(1_000_000 + i)),
			types.DateValue(9000 + int64(i)),
			types.StringValue("5-LOW"),
		})
	}
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, extra); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
		t.Fatal(err)
	}
	comp := c.NewCompactor(ingest.CompactorOptions{ClusterBy: "orderkey"})
	res, err := comp.RunOnce(ctx, CatalogOCS, d.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merged) < 2 {
		t.Fatalf("compaction merged %v", res.Merged)
	}
	// The pin defers every physical delete.
	if res.Reclaimed != 0 {
		t.Errorf("reclaimed %d objects under an active pin", res.Reclaimed)
	}
	if n := c.Meta.TombstoneCount(CatalogOCS, d.Table.Name); n == 0 {
		t.Error("no tombstones recorded for the compacted objects")
	}

	// Byte-identical: the pinned snapshot neither lost rows to the
	// rewrite nor gained the freshly ingested ones.
	after := scanPinnedHandle(t, c, pinned)
	assertRowsEqual(t, "pinned-snapshot", after, before)

	// A handle resolved now sees the post-mutation table.
	th2, err := c.OCSConn.TableHandle(CatalogOCS, d.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	fresh := th2.(*ocsconn.Handle)
	if got := scanPinnedHandle(t, c, fresh); len(got) != len(before)+100 {
		t.Errorf("fresh scan read %d rows, want %d", len(got), len(before)+100)
	}
	fresh.ReleaseSnapshot()

	// Scan done → pin released → the next compaction run reclaims, and
	// the tombstoned objects really leave storage.
	pinned.ReleaseSnapshot()
	pinned.ReleaseSnapshot() // release is idempotent
	res2, err := comp.RunOnce(ctx, CatalogOCS, d.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reclaimed == 0 {
		t.Error("nothing reclaimed after the pin released")
	}
	gone := 0
	for _, key := range pinnedObjects {
		if _, _, err := c.OCSCli.Get(ctx, d.Table.Bucket, key); err != nil {
			gone++
		}
	}
	if gone == 0 {
		t.Error("every pre-compaction object still in storage after GC")
	}
}

// TestCompactionSparesObjectsHiveReads: Load registers one upload under
// both catalogs, so compacting ocs.orders tombstones objects hive.orders
// still lists. Reaping leaves them in storage — the compaction reclaims
// nothing, however often it runs — and hive.orders returns its
// pre-compaction rows, as ocs.orders returns the same rows from the
// compacted object.
func TestCompactionSparesObjectsHiveReads(t *testing.T) {
	c := testCluster(t)
	d, err := workload.TPCHOrders(workload.Config{Files: 4, RowsPerFile: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const query = "SELECT orderkey, orderdate, orderpriority FROM %s.orders ORDER BY orderkey"
	read := func(catalog string) []string {
		t.Helper()
		res, err := execute(ctx, c.Engine, fmt.Sprintf(query, catalog), nil)
		if err != nil {
			t.Fatalf("%s.orders: %v", catalog, err)
		}
		return orderedRows(res.Page)
	}
	want := read(CatalogHive)
	if len(want) != 4*256 {
		t.Fatalf("hive.orders read %d rows before compaction", len(want))
	}

	comp := c.NewCompactor(ingest.CompactorOptions{ClusterBy: "orderkey"})
	for run := 0; run < 2; run++ {
		res, err := comp.RunOnce(ctx, CatalogOCS, "orders")
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 && len(res.Merged) != len(d.Table.Objects) {
			t.Fatalf("compaction merged %v, want every loaded object", res.Merged)
		}
		if res.Reclaimed != 0 {
			t.Errorf("run %d reclaimed %d objects that hive.orders lists", run, res.Reclaimed)
		}
	}
	if n := c.Meta.TombstoneCount(CatalogOCS, "orders"); n != len(d.Table.Objects) {
		t.Errorf("%d tombstones kept, want one per merged object", n)
	}
	for _, key := range d.Table.Objects {
		if _, _, err := c.OCSCli.Get(ctx, d.Table.Bucket, key); err != nil {
			t.Errorf("object %s hive.orders lists: %v", key, err)
		}
	}
	assertRowsEqual(t, "hive.orders after compaction", read(CatalogHive), want)
	assertRowsEqual(t, "ocs.orders after compaction", read(CatalogOCS), want)
}

// TestIngestKilledConnectionFault drives the ingest flush over a fault
// proxy. A connection killed mid-Put is absorbed by the client's retry —
// the flush still commits exactly once. A blackholed store fails the
// flush; put-then-commit ordering guarantees the catalog is untouched,
// and the ingester recovers once the network heals.
func TestIngestKilledConnectionFault(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d, err := workload.TPCHOrders(workload.Config{Files: 1, RowsPerFile: 128, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ing := c.NewIngester(ingest.Options{FlushRows: 4096})
	if err := ing.CreateTable(ingestSpec(d)); err != nil {
		t.Fatal(err)
	}
	rows := datasetRows(t, d)
	ctx := context.Background()

	// Arm a one-shot kill that trips on the Put's ack: the connection
	// dies before the client learns the object landed, forcing a retry
	// of an already-applied (idempotent) write.
	proxy.KillOnce(1)
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, rows[:64]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
		t.Fatalf("flush with killed connection: %v", err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	tbl, _ := c.Meta.Get(CatalogOCS, d.Table.Name)
	if tbl.RowCount != 64 || len(tbl.Objects) != 1 {
		t.Errorf("after killed-connection flush: %d rows in %d objects", tbl.RowCount, len(tbl.Objects))
	}

	// Blackhole: the flush fails, and the catalog must not move — a
	// killed ingest leaves at worst an invisible orphan, never a table
	// version pointing at missing data.
	proxy.SetBlackhole(true)
	version := func() uint64 {
		_, pin, err := c.Meta.GetPinned(CatalogOCS, d.Table.Name)
		if err != nil {
			t.Fatal(err)
		}
		defer pin.Release()
		return pin.Version()
	}
	versionBefore := version()
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, rows[64:96]); err != nil {
		t.Fatal(err)
	}
	deadCtx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	if err := ing.Flush(deadCtx, CatalogOCS, d.Table.Name); err == nil {
		t.Fatal("flush through a blackhole succeeded")
	}
	cancel()
	proxy.SetBlackhole(false)
	if got := version(); got != versionBefore {
		t.Errorf("killed ingest moved the table version %d → %d", versionBefore, got)
	}
	tbl, _ = c.Meta.Get(CatalogOCS, d.Table.Name)
	if tbl.RowCount != 64 {
		t.Errorf("killed ingest changed row count to %d", tbl.RowCount)
	}

	// Healed: fresh appends work and the table stays consistent. The
	// blackholed batch was dropped with the error — rows 64:96 are gone
	// by contract, not silently resurrected.
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, rows[96:128]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
		t.Fatal(err)
	}
	tbl, _ = c.Meta.Get(CatalogOCS, d.Table.Name)
	if tbl.RowCount != 96 || len(tbl.Objects) != 2 {
		t.Errorf("after recovery: %d rows in %d objects", tbl.RowCount, len(tbl.Objects))
	}
	res, err := execute(ctx, c.Engine, "SELECT COUNT(*) AS n FROM orders", engine.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Page.Row(0)[0].I; got != 96 {
		t.Errorf("queryable rows = %d, want 96", got)
	}
}

// TestCompactionKilledConnectionMidRun severs a compactor connection
// mid-run. The client retry absorbs the kill; whether a given run
// completes or fails, the object-set swap is atomic — so the table the
// queries see is always either fully pre- or fully post-compaction, and
// a scan returns the same rows throughout.
func TestCompactionKilledConnectionMidRun(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d, err := workload.TPCHOrders(workload.Config{Files: 2, RowsPerFile: 256, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ing := c.NewIngester(ingest.Options{FlushRows: 128})
	if err := ing.CreateTable(ingestSpec(d)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, datasetRows(t, d)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
		t.Fatal(err)
	}
	countRows := func(label string) int64 {
		t.Helper()
		res, err := execute(ctx, c.Engine, "SELECT COUNT(*) AS n FROM orders", engine.NewSession())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res.Page.Row(0)[0].I
	}
	want := countRows("baseline")
	if want != 512 {
		t.Fatalf("baseline rows = %d", want)
	}

	// Kill the first compactor connection that streams past the
	// threshold — mid-read of a candidate object.
	proxy.KillOnce(2048)
	comp := c.NewCompactor(ingest.CompactorOptions{ClusterBy: "orderkey"})
	if _, err := comp.RunOnce(ctx, CatalogOCS, d.Table.Name); err != nil {
		// A failed run must leave the catalog fully pre-compaction.
		tbl, _ := c.Meta.Get(CatalogOCS, d.Table.Name)
		if tbl.RowCount != 512 {
			t.Errorf("failed compaction corrupted row count: %d", tbl.RowCount)
		}
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	if got := countRows("after-kill"); got != want {
		t.Errorf("rows after killed compaction = %d, want %d", got, want)
	}

	// Let compaction finish cleanly; the data is unchanged.
	for i := 0; i < 4; i++ {
		if _, err := comp.RunOnce(ctx, CatalogOCS, d.Table.Name); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := c.Meta.Get(CatalogOCS, d.Table.Name)
	if len(tbl.Objects) != 1 || tbl.RowCount != 512 {
		t.Errorf("steady state: %d objects, %d rows", len(tbl.Objects), tbl.RowCount)
	}
	if got := countRows("post-compaction"); got != want {
		t.Errorf("rows post-compaction = %d, want %d", got, want)
	}
}

// BenchmarkIngestThroughput measures the write path: rows/s through
// Append+Flush and the statement's time-to-queryable, with compaction
// off and with a compactor folding the freshly written objects after
// each round. `make bench` archives the numbers in BENCH_PR10.json.
func BenchmarkIngestThroughput(b *testing.B) {
	d, err := workload.TPCHOrders(workload.Config{Files: 4, RowsPerFile: 4096, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	rows := datasetRows(b, d)
	for _, arm := range []struct {
		name    string
		compact bool
	}{{"compaction-off", false}, {"compaction-on", true}} {
		b.Run(arm.name, func(b *testing.B) {
			c, err := StartCluster(1)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ing := c.NewIngester(ingest.Options{FlushRows: 2048})
			spec := ingestSpec(d)
			if err := ing.CreateTable(spec); err != nil {
				b.Fatal(err)
			}
			comp := c.NewCompactor(ingest.CompactorOptions{ClusterBy: "orderkey"})
			ctx := context.Background()
			var ingested, ingestNs, queryableNs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := ing.Append(ctx, CatalogOCS, d.Table.Name, rows); err != nil {
					b.Fatal(err)
				}
				if err := ing.Flush(ctx, CatalogOCS, d.Table.Name); err != nil {
					b.Fatal(err)
				}
				// Time-to-queryable: the flush returned, so every row is
				// committed and visible to a new query.
				queryable := time.Since(start)
				if arm.compact {
					if _, err := comp.RunOnce(ctx, CatalogOCS, d.Table.Name); err != nil {
						b.Fatal(err)
					}
				}
				ingested += float64(len(rows))
				ingestNs += float64(time.Since(start).Nanoseconds())
				queryableNs += float64(queryable.Nanoseconds())
			}
			b.StopTimer()
			if ingestNs > 0 {
				b.ReportMetric(ingested/(ingestNs/1e9), "rows/s")
			}
			b.ReportMetric(queryableNs/float64(b.N)/1e6, "ms-to-queryable/op")
		})
	}
}
