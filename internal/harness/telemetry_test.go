package harness

import (
	"strings"
	"testing"
	"time"

	"prestocs/internal/compress"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/telemetry"
)

// closedTrace merges the spans of one trace across every component
// tracer — exactly what /debug/traces does in a real deployment — once
// the trace's tree has closed. A span reaches its tracer when it ends,
// and the server side of a stream ends its spans a moment after the
// client has read the last frame; so right after a query returns, a child
// (node.execute) can be on record before its parent (the node's
// rpc.server span). Poll until no span is missing its parent.
func closedTrace(c *Cluster, id telemetry.TraceID) []telemetry.SpanView {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var spans []telemetry.SpanView
		for _, tr := range c.Tracers {
			spans = append(spans, tr.TraceSpans(id)...)
		}
		recorded := map[telemetry.SpanID]bool{0: true}
		for _, v := range spans {
			recorded[v.ID] = true
		}
		open := false
		for _, v := range spans {
			open = open || !recorded[v.Parent]
		}
		if !open || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryProducesConnectedTrace is the tentpole acceptance test: one
// query through the full in-process cluster (engine, rpc client, OCS
// frontend, storage nodes, scan pool) yields a single connected trace,
// the engine stage spans account for the query wall time, and the root
// span's Table-3 stage totals equal ScanStats exactly.
func TestQueryProducesConnectedTrace(t *testing.T) {
	c, err := StartClusterWith(2, Config{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "all")
	cell, err := c.Run("trace", d.Query, session)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Stats.TraceID == 0 {
		t.Fatal("query stats carry no trace ID")
	}

	spans := closedTrace(c, cell.Stats.TraceID)
	byID := map[telemetry.SpanID]telemetry.SpanView{}
	for _, v := range spans {
		byID[v.ID] = v
	}
	var root telemetry.SpanView
	roots := 0
	for _, v := range spans {
		if v.Parent == 0 {
			root = v
			roots++
			continue
		}
		if _, ok := byID[v.Parent]; !ok {
			t.Errorf("span %q (component-recorded) has unknown parent %d: trace is disconnected", v.Name, v.Parent)
		}
	}
	if roots != 1 || root.Name != "query" {
		t.Fatalf("trace has %d roots (root=%q), want exactly one %q span", roots, root.Name, "query")
	}

	// Every layer must contribute: the Table-3 stages on the engine side,
	// the transport, the frontend and the storage-node scan pool.
	names := map[string]int{}
	for _, v := range spans {
		names[v.Name]++
	}
	for _, want := range []string{
		"engine.parse_analyze", "engine.global_opt", "engine.connector_opt",
		"engine.execution", "connector.scan", "connector.substrait_gen",
		"connector.stream_open", "rpc.stream ocs.Execute",
		"rpc.server ocs.Execute", "frontend.forward", "node.execute",
		"scan.rowgroup",
	} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; got %v", want, names)
		}
	}
	if names["connector.scan"] != cell.Stats.Splits {
		t.Errorf("connector.scan spans = %d, want one per split (%d)",
			names["connector.scan"], cell.Stats.Splits)
	}

	// The engine stage spans are sequential children of the root; their
	// sum must account for the query wall time within 5%.
	var stages time.Duration
	for _, v := range spans {
		if v.Parent == root.ID && strings.HasPrefix(v.Name, "engine.") {
			stages += v.Duration()
		}
	}
	wall := root.Duration()
	if gap := wall - stages; gap < 0 || gap > wall/20+time.Millisecond {
		t.Errorf("stage spans sum to %v of %v wall (gap %v), want within 5%%", stages, wall, wall-stages)
	}

	// Table-3 exact match: the root span carries the same stage totals
	// the harness breakdown reads from ScanStats — not a re-measurement.
	scan := cell.Stats.Scan.Snapshot()
	if got := root.Durations["substrait_gen"]; got != scan.SubstraitGen {
		t.Errorf("root substrait_gen = %v, ScanStats = %v; must match exactly", got, scan.SubstraitGen)
	}
	if got := root.Durations["transfer"]; got != scan.Transfer {
		t.Errorf("root transfer = %v, ScanStats = %v; must match exactly", got, scan.Transfer)
	}
	if got := root.Attrs["bytes_moved"]; got == "" {
		t.Error("root span missing bytes_moved attribute")
	}

	// The shared registry saw the same query from every layer.
	reg := c.Metrics
	if got := reg.CounterValue(telemetry.MetricQueryTotal); got != 1 {
		t.Errorf("engine_queries_total = %d, want 1", got)
	}
	if got := reg.CounterValue(telemetry.MetricQueryBytesMoved); got != scan.BytesMoved {
		t.Errorf("engine_query_bytes_moved_total = %d, ScanStats = %d", got, scan.BytesMoved)
	}
	if reg.CounterValue(telemetry.MetricScanPoolRowGroups) == 0 {
		t.Error("scan pool recorded no row groups")
	}
	if reg.HistogramCount(telemetry.MetricRPCClientLatency, "method", "ocs.Execute") == 0 {
		t.Error("rpc client latency histogram empty for ocs.Execute")
	}
	// Scan-pool gauges are deltas shared across queries: after the query
	// finishes both must be back to zero.
	if got := reg.GaugeValue(telemetry.MetricScanPoolActive); got != 0 {
		t.Errorf("scan pool active workers = %d after query, want 0", got)
	}
	if got := reg.GaugeValue(telemetry.MetricScanPoolQueued); got != 0 {
		t.Errorf("scan pool queued groups = %d after query, want 0", got)
	}

	// The registry renders for /metrics with the query series present.
	if out := reg.Render(); !strings.Contains(out, telemetry.MetricQueryTotal) {
		t.Error("registry render missing engine_queries_total")
	}
}

// TestTelemetryOffByDefault: the plain StartCluster path records nothing
// and carries no trace IDs, so existing callers see zero change.
func TestTelemetryOffByDefault(t *testing.T) {
	c := testCluster(t)
	d := smallLaghos(t, compress.None)
	if err := c.Load(d); err != nil {
		t.Fatal(err)
	}
	cell, err := c.Run("plain", d.Query, engine.NewSession().Set(ocsconn.SessionPushdown, "all"))
	if err != nil {
		t.Fatal(err)
	}
	if cell.Stats.TraceID != 0 {
		t.Errorf("trace ID = %d without telemetry, want 0", cell.Stats.TraceID)
	}
	if c.Metrics != nil || c.Tracers != nil {
		t.Error("telemetry objects allocated without Config.Telemetry")
	}
}
