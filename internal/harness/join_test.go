package harness

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/parquetlite"
	"prestocs/internal/rpc"
	"prestocs/internal/substrait"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
	"prestocs/internal/workload"
)

// q3Config is the shared scale for the two TPC-H Q3 tables. Lineitem and
// orders must be generated at the same Files × RowsPerFile so orderkeys
// align 1:1 (one lineitem row per order).
var q3Config = workload.Config{Files: 3, RowsPerFile: 512, Seed: 41, Codec: compress.None}

func q3Datasets(t *testing.T) (*workload.Dataset, *workload.Dataset) {
	t.Helper()
	line, err := workload.TPCH(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	ords, err := workload.TPCHOrders(q3Config)
	if err != nil {
		t.Fatal(err)
	}
	return line, ords
}

// q3Reference computes the Q3 answer row-at-a-time from the raw parquet
// objects — a hash join the slow, obvious way — and renders it in
// rowMultisetPage form. Because orderkeys are unique on both sides, each
// output group is a single lineitem row and the revenue arithmetic
// (extendedprice × (1 − discount), summed from zero) is bitwise identical
// to the engine's, so the comparison is exact, not approximate.
func q3Reference(t *testing.T, line, ords *workload.Dataset) []string {
	t.Helper()
	cutoff, err := types.DateFromString("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	dates := map[int64]types.Value{} // build side: orders before the cutoff
	for _, o := range readRows(t, ords) {
		if o[oOrderdate].I < cutoff.I {
			dates[o[oOrderkey].I] = o[oOrderdate]
		}
	}
	var groups [][]types.Value // probe side: revenue per matched orderkey
	for _, l := range readRows(t, line) {
		if date, ok := dates[l[lOrderkey].I]; ok {
			groups = append(groups, []types.Value{l[lOrderkey], date, types.FloatValue(l[lExtendedprice].F * (1 - l[lDiscount].F))})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][2].F > groups[j][2].F })
	var out []string
	for _, g := range groups[:min(10, len(groups))] {
		out = append(out, renderRow(g))
	}
	sort.Strings(out)
	return out
}

// lineitem and orders ordinals the join answers read.
const (
	lOrderkey, lQuantity, lExtendedprice, lDiscount, lShipdate = 0, 1, 2, 3, 7
	oOrderkey, oOrderdate, oPriority                           = 0, 1, 2
)

// readRows decodes a dataset row-at-a-time, objects in table order.
func readRows(t *testing.T, d *workload.Dataset) [][]types.Value {
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
			for i := range p.NumRows() {
				rows = append(rows, p.Row(i))
			}
		}
	}
	return rows
}

// TestJoinQ3DifferentialAcrossModes holds the bloom arm of the Q3-shaped
// lineitem ⋈ orders query to its effect — it visibly cuts the probe rows
// and bytes crossing the compute/storage boundary — and to its metrics.
// That every arm returns the same answer is the query matrix's
// (TestJoinDifferentialAcrossConfigurations).
func TestJoinQ3DifferentialAcrossModes(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	run := func(label string, session *engine.Session) *engine.Result {
		t.Helper()
		c.FlushNodeCaches()
		res, err := execute(context.Background(), c.Engine, workload.TPCHQ3Query, session)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	bloomOn := run("bloom-on", engine.NewSession())
	bloomOff := run("bloom-off", engine.NewSession().Set(engine.SessionJoinBloom, "off"))

	// The bloom arm pushed a filter into every probe split and moved
	// strictly fewer rows and bytes off storage: the date cutoff keeps
	// ≈29% of orders, so ≈71% of probe rows vanish inside the scan.
	onScan := bloomOn.Stats.Scan.Snapshot()
	offScan := bloomOff.Stats.Scan.Snapshot()
	if int(onScan.JoinBloomSplits) != q3Config.Files {
		t.Errorf("bloom splits = %d, want %d", onScan.JoinBloomSplits, q3Config.Files)
	}
	if onScan.ResultRows >= offScan.ResultRows {
		t.Errorf("bloom-on storage rows = %d, not below bloom-off %d",
			onScan.ResultRows, offScan.ResultRows)
	}
	if onScan.BytesMoved >= offScan.BytesMoved {
		t.Errorf("bloom-on moved %d bytes, not below bloom-off %d",
			onScan.BytesMoved, offScan.BytesMoved)
	}

	// Decisions and storage-side work are on /metrics.
	if n := c.Metrics.CounterValue(telemetry.MetricJoinBloomPushdown); int(n) != q3Config.Files {
		t.Errorf("%s = %d, want %d", telemetry.MetricJoinBloomPushdown, n, q3Config.Files)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricQueryJoins); n != 2 {
		t.Errorf("%s = %d, want 2, one per query", telemetry.MetricQueryJoins, n)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsTested); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsTested)
	}
	if n := c.Metrics.CounterValue(telemetry.MetricStorageBloomRowsFiltered); n == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricStorageBloomRowsFiltered)
	}
}

// TestJoinBloomFormOnTheWire reads the probe requests of two of the join
// family's queries off the wire, through a relay in front of the OCS
// frontend: Q3's build side (orders before 1994, ≈ 29 % of the dense
// orderkeys) ships the bloom's direct form, and "join sparse build"'s
// (≈ 1 % of orders, spread over the whole span, so the span is more bits
// than the hashed filter) the hashed form.
func TestJoinBloomFormOnTheWire(t *testing.T) {
	datasets, queries := joinFamily(t)
	c := testCluster(t)
	for _, d := range datasets {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu     sync.Mutex
		blooms []string // the plan text of every request carrying a bloom
	)
	up := rpc.Dial(c.OCS.Addr)
	t.Cleanup(func() { up.Close() })
	relay := rpc.NewServer()
	forward := func(method string) rpc.StreamHandler {
		return func(ctx context.Context, payload []byte, send func([]byte) error) ([]byte, error) {
			if method == ocsserver.MethodExecute {
				if p, err := substrait.Unmarshal(payload); err == nil && strings.Contains(p.String(), "BloomFilter[") {
					mu.Lock()
					blooms = append(blooms, p.String())
					mu.Unlock()
				}
			}
			st, err := up.Stream(ctx, method, payload)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			for {
				chunk, err := st.Recv()
				if err == io.EOF {
					return st.Trailer(), nil
				}
				if err != nil {
					return nil, err
				}
				if err := send(chunk); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, method := range []string{ocsserver.MethodExecute, objstore.MethodGet, objstore.MethodSelect} {
		relay.RegisterStream(method, forward(method))
	}
	relay.Register(objstore.MethodList, func(ctx context.Context, payload []byte) ([]byte, error) {
		return up.Call(ctx, objstore.MethodList, payload)
	})
	addr, err := relay.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	cli := ocsserver.NewClient(addr)
	t.Cleanup(func() { cli.Close() })
	eng := engine.New()
	eng.DefaultCatalog = CatalogOCS
	eng.AddConnector(ocsconn.New(CatalogOCS, c.Meta, cli))

	for _, tc := range []struct{ query, form string }{
		{"join sparse build", "hashed k="},
		{"tpch q3", "direct lo="},
	} {
		i := slices.IndexFunc(queries, func(q matrixQuery) bool { return q.name == tc.query })
		for _, mode := range []string{"none", "all"} {
			mu.Lock()
			blooms = nil
			mu.Unlock()
			session := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
			if _, err := execute(context.Background(), eng, fmt.Sprintf(queries[i].sql, CatalogOCS), session); err != nil {
				t.Fatalf("%s [%s]: %v", tc.query, mode, err)
			}
			mu.Lock()
			seen := blooms
			mu.Unlock()
			if len(seen) == 0 {
				t.Fatalf("%s [%s]: no request carried a bloom filter", tc.query, mode)
			}
			for _, text := range seen {
				if !strings.Contains(text, "BloomFilter[c0, ") || !strings.Contains(text, tc.form) {
					t.Errorf("%s [%s]: probe request %s, want the %s form", tc.query, mode, text, strings.Fields(tc.form)[0])
				}
			}
		}
	}
}

// TestJoinAggregateGroupsByBuildRows reads from QueryStats which
// aggregates over a join number their groups by the build side's key ids
// (exec.HashAggregate.GroupByJoin), in every pushdown mode over both
// catalogs: Q3 and the join family's aggregates over a unique build,
// grouped by the join key and build columns, do; an aggregate over a
// build side with repeated keys does not, nor one grouped by a probe
// column beside the join key — both run below the Exchange, where the
// join is, so it is the rule and not the plan that turns them away — nor
// one in the final stage.
func TestJoinAggregateGroupsByBuildRows(t *testing.T) {
	datasets, queries := joinFamily(t)
	c := testCluster(t)
	for _, d := range datasets {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	sqlOf := func(name string) string {
		i := slices.IndexFunc(queries, func(q matrixQuery) bool { return q.name == name })
		if i < 0 {
			t.Fatalf("no query %q in the join family", name)
		}
		return queries[i].sql
	}
	const probeColumn = "SELECT l.orderkey AS k, l.shipdate AS s, o.orderdate AS d, SUM(l.quantity) AS q " +
		"FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey GROUP BY l.orderkey, l.shipdate, o.orderdate"
	for _, tc := range []struct {
		name, sql  string
		leaf, want bool // the aggregate below the Exchange; grouped by build rows
	}{
		{"tpch q3", sqlOf("tpch q3"), true, true},
		{"join residual before the aggregate", sqlOf("join residual before the aggregate"), true, true},
		{"join on a VARCHAR key", sqlOf("join on a VARCHAR key"), true, true},
		{"join on a DOUBLE key", sqlOf("join on a DOUBLE key"), true, true},
		{"join NULL probe keys", sqlOf("join NULL probe keys"), true, true},
		{"dprobe", sqlOf("dprobe"), true, true},
		{"join duplicate build keys", sqlOf("join duplicate build keys"), true, false},
		{"grouped by a probe column", probeColumn, true, false},
		{"join group by build column", sqlOf("join group by build column"), false, false},
		{"oprobe", sqlOf("oprobe"), false, false},
	} {
		for _, catalog := range matrixCatalogs {
			for _, mode := range matrixModes {
				label := fmt.Sprintf("%s [%s, %s]", tc.name, catalog, mode)
				res, err := execute(context.Background(), c.Engine, fmt.Sprintf(tc.sql, catalog), engine.NewSession().Set(ocsconn.SessionPushdown, mode))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				final, _, _ := strings.Cut(res.Stats.PlanText, "Exchange")
				if leaf := !strings.Contains(final, "Aggregate"); leaf != tc.leaf {
					t.Fatalf("%s: aggregate below the exchange = %v, want %v:\n%s", label, leaf, tc.leaf, res.Stats.PlanText)
				}
				if got := res.Stats.JoinGroupedByBuild; got != tc.want {
					t.Errorf("%s: grouped by build rows = %v, want %v", label, got, tc.want)
				}
			}
		}
	}
}

// TestJoinHiveMatchesOCS runs the join shapes and Q3 over hive. and over
// ocs. — one copy of the objects, one frontend — and holds each catalog to
// its own methods: ocs. reads through ocs.Execute (and obj.Get for a scan
// with nothing to push), never obj.Select; hive. through obj.Select (and
// obj.Get for a scan with no filter), never ocs.Execute. So the query
// matrix's catalog axis compares two paths, not one path twice. Both must
// give the same rows in the same order.
func TestJoinHiveMatchesOCS(t *testing.T) {
	c, err := StartClusterWith(1, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	line, ords := q3Datasets(t)
	for _, d := range []*workload.Dataset{line, ords} {
		if err := c.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	const from = "FROM %[1]s.lineitem AS l JOIN %[1]s.orders AS o ON l.orderkey = o.orderkey "
	shapes := map[string]string{
		"probe conjunct": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10",
		"build conjunct": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE o.orderdate < DATE '1993-01-01'",
		"both conjuncts": "SELECT l.orderkey AS k, l.quantity AS q, o.orderdate AS d " + from + "WHERE l.quantity < 10 AND o.orderdate < DATE '1993-01-01'",
		"q3":             strings.Replace(workload.TPCHQ3Query, "FROM lineitem AS l JOIN orders AS o ON l.orderkey = o.orderkey ", from, 1),
	}
	// own and foreign name, per catalog, the method its path must read
	// through and the one it must never call.
	own := map[string]string{CatalogOCS: ocsserver.MethodExecute, CatalogHive: objstore.MethodSelect}
	foreign := map[string]string{CatalogOCS: objstore.MethodSelect, CatalogHive: ocsserver.MethodExecute}
	recv := func(method string) int64 {
		return c.Metrics.CounterValue(telemetry.MetricRPCClientRecvBytes, "method", method)
	}
	for name, sql := range shapes {
		rows := map[string][]string{}
		for _, catalog := range []string{CatalogOCS, CatalogHive} {
			ownBefore, foreignBefore := recv(own[catalog]), recv(foreign[catalog])
			res, err := execute(context.Background(), c.Engine, fmt.Sprintf(sql, catalog), nil)
			if err != nil {
				t.Fatalf("%s over %s: %v", name, catalog, err)
			}
			if res.Page.NumRows() == 0 {
				t.Fatalf("%s over %s: no rows", name, catalog)
			}
			ownBytes, foreignBytes := recv(own[catalog])-ownBefore, recv(foreign[catalog])-foreignBefore
			if ownBytes == 0 || foreignBytes != 0 {
				t.Errorf("%s over %s: %d bytes from %s, %d from %s", name, catalog, ownBytes, own[catalog], foreignBytes, foreign[catalog])
			}
			rows[catalog] = orderedRows(res.Page)
		}
		assertRowsEqual(t, name, rows[CatalogHive], rows[CatalogOCS])
	}
}

// TestJoinBloomProbeKilledMidStream severs a bloom-carrying probe
// pushdown stream after its first page: the connector replays locally,
// and the replayed plan must evaluate the same BloomFilterRel — so the
// delivered sequence equals the unfaulted stream's, row for row, with the
// delivered prefix skipped exactly once.
func TestJoinBloomProbeKilledMidStream(t *testing.T) {
	c, proxy := killableCluster(t)
	// Many small row groups: the stream yields multiple chunks, so the
	// kill lands strictly mid-stream.
	const rowsPerFile = 4096
	d, err := workload.TPCH(workload.Config{Files: 2, RowsPerFile: rowsPerFile, RowGroupSize: 512, Seed: 43, Codec: compress.None})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}

	// A keep-everything filter plus a bloom over the even orderkeys: the
	// stream is long, and only the bloom thins it.
	th, err := c.OCSConn.TableHandle(CatalogOCS, "lineitem")
	if err != nil {
		t.Fatal(err)
	}
	h := th.(*ocsconn.Handle)
	cmp, err := expr.NewCompare(expr.Lt, expr.Col(1, "quantity", types.Float64),
		expr.Lit(types.FloatValue(1e9)))
	if err != nil {
		t.Fatal(err)
	}
	h.Push = &ocsconn.Pushdown{Filter: cmp}
	keys := int64(2 * rowsPerFile)
	f := bloom.New(int(keys/2), bloom.DefaultBitsPerKey)
	for k := int64(0); k < keys; k += 2 {
		f.AddHash(bloom.HashInt64(k))
	}
	bloomed, ok := h.WithJoinBloom(0, f, keys/2)
	if !ok {
		t.Fatal("WithJoinBloom declined a filter-only handle")
	}

	split := engine.Split{Object: d.Table.Objects[0], Index: 0}
	want, _ := readSplit(t, c, proxy, bloomed.(*ocsconn.Handle), split, false)
	if len(want) >= rowsPerFile {
		t.Fatalf("the bloom kept %d of %d rows; the test needs it to drop some", len(want), rowsPerFile)
	}
	got, fallbacks := readSplit(t, c, proxy, bloomed.(*ocsconn.Handle), split, true)
	requireResumed(t, proxy, got, want, fallbacks)
}

func q3Arms() []struct{ Name, Bloom string } {
	return []struct{ Name, Bloom string }{
		{"bloom-on", ""},
		{"bloom-off", "off"},
	}
}

// BenchmarkJoinBloomSweep is the PR's evaluation sweep: the Q3-shaped
// join with bloom pushdown on and off. bytes-moved and storage-rows are
// the measures that matter — the bloom arm must move strictly fewer probe
// rows off storage. `make bench` archives the numbers in BENCH_PR9.json.
func BenchmarkJoinBloomSweep(b *testing.B) {
	cfg := workload.Config{Files: 2, RowsPerFile: 8192, Seed: 31, Codec: compress.Snappy}
	line, err := workload.TPCH(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ords, err := workload.TPCHOrders(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCluster(b, line, ords)

	for _, arm := range q3Arms() {
		b.Run(arm.Name, func(b *testing.B) {
			var bytesMoved, storageRows, buildRows float64
			for i := 0; i < b.N; i++ {
				session := engine.NewSession()
				if arm.Bloom != "" {
					session.Set(engine.SessionJoinBloom, arm.Bloom)
				}
				cell, err := c.Run(arm.Name, workload.TPCHQ3Query, session)
				if err != nil {
					b.Fatal(err)
				}
				if cell.Rows == 0 {
					b.Fatal("empty result")
				}
				scan := cell.Stats.Scan.Snapshot()
				bytesMoved += float64(cell.BytesMoved)
				storageRows += float64(scan.ResultRows)
				buildRows += float64(cell.Stats.JoinBuildRows)
			}
			n := float64(b.N)
			b.ReportMetric(bytesMoved/n, "bytes-moved/op")
			b.ReportMetric(storageRows/n, "storage-rows/op")
			b.ReportMetric(buildRows/n, "build-rows/op")
		})
	}
}
