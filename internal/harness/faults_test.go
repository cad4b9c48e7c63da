package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/faultnet"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
)

// proxiedCluster mirrors StartCluster but routes the engine's OCS client
// through a fault proxy sitting in front of the frontend.
func proxiedCluster(t *testing.T, storageNodes int) (*Cluster, *faultnet.Proxy) {
	t.Helper()
	checkGoroutines(t)
	ocsCluster, err := ocsserver.StartCluster(storageNodes)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(ocsCluster.Addr)
	if err != nil {
		ocsCluster.Shutdown()
		t.Fatal(err)
	}
	c := clusterAround(t, ocsCluster, proxy.Addr())
	t.Cleanup(func() { proxy.Close() })
	return c, proxy
}

// nodeProxiedCluster places a fault proxy between the frontend and each
// storage node, so node-side faults can be injected per node.
func nodeProxiedCluster(t *testing.T, storageNodes int) (*Cluster, []*faultnet.Proxy) {
	t.Helper()
	checkGoroutines(t)
	ocsCluster := &ocsserver.Cluster{}
	var proxies []*faultnet.Proxy
	var proxyAddrs []string
	for i := 0; i < storageNodes; i++ {
		node := ocsserver.NewStorageNode(i)
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ocsCluster.Nodes = append(ocsCluster.Nodes, node)
		ocsCluster.NodeAddr = append(ocsCluster.NodeAddr, addr)
		proxy, err := faultnet.New(addr)
		if err != nil {
			t.Fatal(err)
		}
		proxies = append(proxies, proxy)
		proxyAddrs = append(proxyAddrs, proxy.Addr())
		p := proxy
		t.Cleanup(func() { p.Close() })
	}
	front, err := ocsserver.NewFrontend(proxyAddrs)
	if err != nil {
		t.Fatal(err)
	}
	ocsCluster.Front = front
	ocsCluster.Addr, err = front.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := clusterAround(t, ocsCluster, ocsCluster.Addr)
	return c, proxies
}

// clusterAround assembles the harness topology on top of an existing OCS
// cluster, dialing the frontend at dialAddr (possibly a proxy); cliOpts
// configure the OCS client (chunk coalescing, metrics, ...). Callers call
// checkGoroutines before starting that cluster, so the leak check's
// baseline predates every goroutine the test starts.
func clusterAround(t *testing.T, ocsCluster *ocsserver.Cluster, dialAddr string, cliOpts ...ocsserver.Option) *Cluster {
	t.Helper()
	c := &Cluster{Meta: metastore.New(), OCS: ocsCluster}
	c.OCSCli = ocsserver.NewClient(dialAddr, cliOpts...)
	c.ObjSrv = objstore.NewServer(objstore.NewStore())
	objAddr, err := c.ObjSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.ObjCli = objstore.NewClient(objAddr)
	c.Engine = engine.New()
	c.Engine.DefaultCatalog = CatalogOCS
	c.OCSConn = ocsconn.New(CatalogOCS, c.Meta, c.OCSCli)
	c.Engine.AddConnector(c.OCSConn)
	t.Cleanup(c.Close)
	return c
}

func TestQuerySurvivesKilledFrontendConnection(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := func() *engine.Session {
		return engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	}
	baseline, err := c.Run("baseline", d.Query, session())
	if err != nil {
		t.Fatal(err)
	}
	// One-shot kill: some Execute connection is severed once response
	// bytes cross the threshold — mid-stream for a result of this size.
	proxy.KillOnce(4096)
	cell, err := c.Run("killed", d.Query, session())
	if err != nil {
		t.Fatalf("query with killed connection = %v", err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
}

func TestQuerySurvivesStorageNodeKilledMidStream(t *testing.T) {
	c, proxies := nodeProxiedCluster(t, 2)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := func() *engine.Session {
		return engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	}
	baseline, err := c.Run("baseline", d.Query, session())
	if err != nil {
		t.Fatal(err)
	}
	// Sever the first node connection that streams past the threshold:
	// a storage node dying mid-result. Frontend retry or connector
	// fallback must absorb it.
	for _, p := range proxies {
		p.KillOnce(4096)
	}
	cell, err := c.Run("node-killed", d.Query, session())
	if err != nil {
		t.Fatalf("query with killed node stream = %v", err)
	}
	var killed int64
	for _, p := range proxies {
		killed += p.Killed()
	}
	if killed < 1 {
		t.Errorf("no node connection was killed; fault never fired")
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
}

func TestPushdownFallsBackWhenComputeUnitDown(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := func() *engine.Session {
		return engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	}
	baseline, err := c.Run("baseline", d.Query, session())
	if err != nil {
		t.Fatal(err)
	}
	// Storage nodes keep serving PUT/GET but their compute units refuse
	// Execute: every split must degrade to the raw-scan path.
	for _, node := range c.OCS.Nodes {
		node.SetExecuteFault(fmt.Errorf("compute unit offline"))
	}
	cell, err := c.Run("degraded", d.Query, session())
	if err != nil {
		t.Fatalf("query with compute units down = %v", err)
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("degraded rows = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
	scan := cell.Stats.Scan.Snapshot()
	if scan.FallbackSplits != int64(cell.Stats.Splits) {
		t.Errorf("FallbackSplits = %d, want %d (all splits degraded)",
			scan.FallbackSplits, cell.Stats.Splits)
	}
	// The query history records the degradation.
	recent := c.Engine.Processes().Recent()
	last := recent[len(recent)-1]
	if last.FallbackSplits != scan.FallbackSplits {
		t.Errorf("history FallbackSplits = %d, want %d", last.FallbackSplits, scan.FallbackSplits)
	}
	if last.Error != "" {
		t.Errorf("history recorded the degraded query as failed: %s", last.Error)
	}
	// Recovery: clearing the fault restores pushdown with no fallbacks.
	for _, node := range c.OCS.Nodes {
		node.SetExecuteFault(nil)
	}
	cell, err = c.Run("recovered", d.Query, session())
	if err != nil {
		t.Fatal(err)
	}
	if fb := cell.Stats.Scan.Snapshot().FallbackSplits; fb != 0 {
		t.Errorf("recovered query still fell back on %d splits", fb)
	}
}

// TestSplitPruningSurvivesKilledConnectionFallback checks that zone-map
// split pruning composes with mid-stream fallback replay: a query whose
// pushed filter prunes half the splits must return the same rows when a
// connection is severed mid-result, and the pruning statistics must
// survive the degraded execution.
func TestSplitPruningSurvivesKilledConnectionFallback(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	// vertex_id is split-disjoint: file f holds [f*1024, (f+1)*1024), so
	// this filter covers exactly the first two of four objects and the
	// per-object statistics prune the other two before scheduling.
	query := `SELECT vertex_id, x, e FROM laghos WHERE vertex_id < 2048`
	session := func() *engine.Session {
		return engine.NewSession().Set(ocsconn.SessionPushdown, "filter")
	}
	baseline, err := c.Run("baseline", query, session())
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline.Stats.Scan.Snapshot().SplitsPruned; got != 2 {
		t.Fatalf("baseline SplitsPruned = %d, want 2", got)
	}
	if baseline.Rows != 2*8192 {
		t.Fatalf("baseline rows = %d, want %d", baseline.Rows, 2*8192)
	}
	// Sever a streaming connection mid-result; the retry/fallback path
	// must replay only the surviving (unpruned) splits.
	proxy.KillOnce(4096)
	cell, err := c.Run("killed", query, session())
	if err != nil {
		t.Fatalf("pruned query with killed connection = %v", err)
	}
	if proxy.Killed() != 1 {
		t.Errorf("killed = %d", proxy.Killed())
	}
	if cell.Rows != baseline.Rows {
		t.Errorf("rows with fault = %d, baseline = %d", cell.Rows, baseline.Rows)
	}
	scan := cell.Stats.Scan.Snapshot()
	if scan.SplitsPruned != 2 {
		t.Errorf("SplitsPruned with fault = %d, want 2", scan.SplitsPruned)
	}
	// The query history keeps the pruning count for the degraded run.
	recent := c.Engine.Processes().Recent()
	last := recent[len(recent)-1]
	if last.SplitsPruned != scan.SplitsPruned {
		t.Errorf("history SplitsPruned = %d, want %d", last.SplitsPruned, scan.SplitsPruned)
	}
}

func TestQueryDeadlineWithBlackholedStorage(t *testing.T) {
	c, proxy := proxiedCluster(t, 1)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	idleBefore := c.OCSCli.IdleConns()
	proxy.SetBlackhole(true)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.RunCtx(ctx, "blackhole", d.Query, engine.NewSession())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("black-holed query error = %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("black-holed query returned after %v, deadline was 300ms", elapsed)
	}
	if idle := c.OCSCli.IdleConns(); idle > idleBefore {
		t.Errorf("timed-out query grew the connection pool: %d -> %d", idleBefore, idle)
	}
	// The stack recovers once the network heals.
	proxy.SetBlackhole(false)
	if _, err := c.Run("healed", d.Query, engine.NewSession()); err != nil {
		t.Fatalf("query after un-black-holing = %v", err)
	}
}

func TestCancelledQueryReleasesResources(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunCtx(ctx, "cancelled", d.Query, engine.NewSession()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query error = %v", err)
	}
	// A healthy query still runs afterwards.
	if _, err := c.Run("after", d.Query, engine.NewSession()); err != nil {
		t.Fatal(err)
	}
}
