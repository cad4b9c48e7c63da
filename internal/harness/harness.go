// Package harness stands up the full reproduction topology in-process —
// engine (coordinator + workers), OCS cluster (frontend + storage nodes)
// and a plain object store, all over loopback TCP — loads generated
// datasets into both storage systems, runs (query, pushdown-config,
// codec) cells and prices each execution with the cost model. Both
// cmd/experiments and the repository benchmarks drive it; every table and
// figure in the paper maps to one of its Run* helpers (DESIGN.md §5).
package harness

import (
	"context"
	"fmt"
	"time"

	"prestocs/internal/connector/hive"
	ocsconn "prestocs/internal/connector/ocs"
	"prestocs/internal/costmodel"
	"prestocs/internal/engine"
	"prestocs/internal/ingest"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/ocsserver"
	"prestocs/internal/telemetry"
	"prestocs/internal/workload"
)

// Catalog names the harness registers.
const (
	CatalogOCS  = "ocs"
	CatalogHive = "hive"
)

// Cluster is the full in-process deployment.
type Cluster struct {
	Engine  *engine.Engine
	Meta    *metastore.Metastore
	OCS     *ocsserver.Cluster
	OCSCli  *ocsserver.Client
	ObjSrv  *objstore.Server
	ObjCli  *objstore.Client
	OCSConn *ocsconn.Connector
	Params  costmodel.Params

	// Pushdown is the default ocs.pushdown mode applied by RunCtx (from
	// Config.Pushdown; empty = leave sessions untouched).
	Pushdown string

	// Metrics is the shared registry every layer writes into, and Tracers
	// maps component labels ("engine", "frontend", "node0", ...) to their
	// tracers. Both are nil unless the cluster was started with
	// Config.Telemetry.
	Metrics *telemetry.Registry
	Tracers map[string]*telemetry.Tracer
}

// Config controls optional harness features.
type Config struct {
	// Telemetry threads one shared metrics registry and per-component
	// tracers through the engine, the OCS cluster, the client transport
	// and the connector, so a query produces a single connected trace and
	// every layer counts into the same /metrics series.
	Telemetry bool
	// Admission installs engine admission budgets (zero value keeps the
	// engine fully permissive).
	Admission engine.AdmissionConfig
	// ScanPool sizes each storage node's scan-scheduler worker pool
	// (0 = the cost-model storage-node core count).
	ScanPool int
	// StreamWindow sets the per-stream credit window on the OCS nodes
	// and frontend (0 = rpc.DefaultStreamWindow).
	StreamWindow int
	// MaxBloomBytes caps pushed join bloom filters on the storage nodes
	// (0 = ocsserver.DefaultMaxBloomBytes, negative disables).
	MaxBloomBytes int
	// Pushdown, when non-empty, is the default ocs.pushdown session mode
	// RunCtx applies to sessions that don't set one: "always", "never",
	// "auto", or any other ParseMode value.
	Pushdown string
}

// StartCluster launches the topology with the given storage-node count.
func StartCluster(storageNodes int) (*Cluster, error) {
	return StartClusterWith(storageNodes, Config{})
}

// StartClusterWith is StartCluster with feature configuration.
func StartClusterWith(storageNodes int, cfg Config) (*Cluster, error) {
	if cfg.Pushdown != "" {
		if _, err := ocsconn.ParseMode(cfg.Pushdown); err != nil {
			return nil, err
		}
	}
	c := &Cluster{Meta: metastore.New(), Params: costmodel.Default(), Pushdown: cfg.Pushdown}

	var ocsCfg ocsserver.ClusterConfig
	if cfg.Telemetry {
		c.Metrics = telemetry.NewRegistry()
		ocsCfg = ocsserver.ClusterConfig{Metrics: c.Metrics, Tracing: true}
	}
	ocsCfg.ScanPool = cfg.ScanPool
	ocsCfg.StreamWindow = cfg.StreamWindow
	ocsCfg.MaxBloomBytes = cfg.MaxBloomBytes
	ocsCluster, err := ocsserver.StartClusterWith(storageNodes, ocsCfg)
	if err != nil {
		return nil, err
	}
	c.OCS = ocsCluster
	var cliOpts []ocsserver.Option
	if cfg.Telemetry {
		cliOpts = append(cliOpts, ocsserver.WithMetrics(c.Metrics))
	}
	c.OCSCli = ocsserver.NewClient(ocsCluster.Addr, cliOpts...)

	c.ObjSrv = objstore.NewServer(objstore.NewStore())
	c.ObjSrv.Metrics = c.Metrics
	objAddr, err := c.ObjSrv.Listen("127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.ObjCli = objstore.NewClient(objAddr)

	c.Engine = engine.New()
	c.Engine.DefaultCatalog = CatalogOCS
	c.Engine.SetAdmission(cfg.Admission)
	c.OCSConn = ocsconn.New(CatalogOCS, c.Meta, c.OCSCli)
	c.Engine.AddConnector(c.OCSConn)
	hiveConn := hive.New(CatalogHive, c.Meta, c.ObjCli)
	c.Engine.AddConnector(hiveConn)
	if cfg.Telemetry {
		c.Engine.Metrics = c.Metrics
		c.Engine.Tracer = telemetry.NewTracer(0)
		c.Tracers = map[string]*telemetry.Tracer{"engine": c.Engine.Tracer}
		for label, tr := range ocsCluster.Tracers {
			c.Tracers[label] = tr
		}
		c.OCSConn.SetMetrics(c.Metrics)
		hiveConn.SetMetrics(c.Metrics)
	}
	return c, nil
}

// NewIngester builds an ingester writing through the cluster's OCS
// frontend and committing to its metastore, and attaches it to the OCS
// connector so engine.Ingest routes INSERT statements through it.
func (c *Cluster) NewIngester(opts ingest.Options) *ingest.Ingester {
	if opts.Telemetry == nil {
		opts.Telemetry = c.Metrics
	}
	ing := ingest.NewIngester(c.Meta, c.OCSCli, opts)
	c.OCSConn.AttachIngester(ing)
	return ing
}

// NewCompactor builds a compactor over the cluster's OCS frontend and
// metastore. Callers drive it with RunOnce or Start/Stop.
func (c *Cluster) NewCompactor(opts ingest.CompactorOptions) *ingest.Compactor {
	if opts.Telemetry == nil {
		opts.Telemetry = c.Metrics
	}
	return ingest.NewCompactor(c.Meta, c.OCSCli, opts)
}

// FlushNodeCaches empties the footer and hot-page caches of every OCS
// storage node, restoring cold-scan conditions for a measurement.
func (c *Cluster) FlushNodeCaches() {
	if c.OCS == nil {
		return
	}
	for _, n := range c.OCS.Nodes {
		n.Caches.Flush()
	}
}

// Close shuts everything down.
func (c *Cluster) Close() {
	if c.OCSCli != nil {
		c.OCSCli.Close()
	}
	if c.OCS != nil {
		c.OCS.Shutdown()
	}
	if c.ObjCli != nil {
		c.ObjCli.Close()
	}
	if c.ObjSrv != nil {
		c.ObjSrv.Close()
	}
}

// Load uploads a dataset to both storage systems and registers it under
// both catalogs.
func (c *Cluster) Load(d *workload.Dataset) error {
	ctx := context.Background()
	if err := d.Upload(ctx, c.OCSCli); err != nil {
		return err
	}
	if err := d.Upload(ctx, c.ObjCli); err != nil {
		return err
	}
	if err := d.Register(c.Meta, CatalogOCS); err != nil {
		return err
	}
	return d.Register(c.Meta, CatalogHive)
}

// Cell is one measured experiment point.
type Cell struct {
	Label string
	// Wall is the real in-process execution time.
	Wall time.Duration
	// Modeled prices the metered execution with Table 1 hardware.
	Modeled costmodel.Breakdown
	// BytesMoved crossed the compute/storage boundary.
	BytesMoved int64
	// Rows is the result row count.
	Rows int
	// Pushed lists operators absorbed by the connector.
	Pushed []string
	// Stats is the engine's full report.
	Stats *engine.QueryStats
}

// Run executes one query under a session and prices it. It is a
// convenience wrapper over RunCtx with a background context.
func (c *Cluster) Run(label, query string, session *engine.Session) (*Cell, error) {
	return c.RunCtx(context.Background(), label, query, session)
}

// RunCtx executes one query under a session and prices it, honoring ctx
// for cancellation and deadlines. Storage-node caches are flushed first:
// the paper's figures measure cold scans, and at 24 GB scale no working
// set fits a 64 MiB page cache anyway — so measured cells must not
// inherit footers or pages a previous cell decoded. Tests that exercise
// warm-cache behavior call Engine.Submit directly.
func (c *Cluster) RunCtx(ctx context.Context, label, query string, session *engine.Session) (*Cell, error) {
	if session == nil {
		session = engine.NewSession()
	}
	if c.Pushdown != "" && session.Get(ocsconn.SessionPushdown) == "" {
		session.Set(ocsconn.SessionPushdown, c.Pushdown)
	}
	c.FlushNodeCaches()
	start := time.Now()
	var res *engine.Result
	q, err := c.Engine.Submit(ctx, query, engine.WithSession(session))
	if err == nil {
		res, err = q.Result()
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", label, err)
	}
	wall := time.Since(start)
	scan := res.Stats.Scan.Snapshot()
	measured := costmodel.Measured{
		StorageBytesRead: scan.StorageWork.BytesRead,
		StorageCPUUnits:  scan.StorageWork.CPUUnits,
		BytesMoved:       scan.BytesMoved,
		ComputeCPUUnits:  res.Stats.LeafMeter.Units + res.Stats.FinalMeter.Units,
		IngestUnits:      scan.DeserializeUnits,
		RoundTrips:       int64(res.Stats.Splits),
	}
	return &Cell{
		Label:      label,
		Wall:       wall,
		Modeled:    c.Params.Model(measured),
		BytesMoved: scan.BytesMoved,
		Rows:       res.Page.NumRows(),
		Pushed:     res.Stats.PushedDown,
		Stats:      res.Stats,
	}, nil
}

// PushdownStep is one x-axis position of Figure 5.
type PushdownStep struct {
	Label string
	Mode  string // ocs.pushdown session value
}

// Fig5Steps returns the paper's progressive sweep for a dataset. Laghos
// has no expression projection, so its steps go filter → +agg → +topn;
// Deep Water and TPC-H go filter → +project → +agg.
func Fig5Steps(dataset string) []PushdownStep {
	switch dataset {
	case "laghos":
		return []PushdownStep{
			{"no pushdown", "none"},
			{"filter", "filter"},
			{"filter+agg", "filter_agg"},
			{"filter+agg+topn", "all"},
		}
	default:
		return []PushdownStep{
			{"no pushdown", "none"},
			{"filter", "filter"},
			{"filter+project", "filter_project"},
			{"filter+project+agg", "filter_project_agg"},
		}
	}
}

// RunFig5 sweeps the progressive pushdown configurations over a dataset.
func (c *Cluster) RunFig5(d *workload.Dataset) ([]*Cell, error) {
	var cells []*Cell
	for _, step := range Fig5Steps(d.Name) {
		session := engine.NewSession().Set(ocsconn.SessionPushdown, step.Mode)
		cell, err := c.Run(step.Label, d.Query, session)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// RunFig6Cell runs one compression×pushdown point over Deep Water.
func (c *Cluster) RunFig6Cell(d *workload.Dataset, mode string) (*Cell, error) {
	session := engine.NewSession().Set(ocsconn.SessionPushdown, mode)
	return c.Run(d.Table.Codec.String()+"/"+mode, d.Query, session)
}

// Selectivity computes Table 2's metric for a finished cell: result bytes
// over stored input bytes.
func Selectivity(cell *Cell, d *workload.Dataset) float64 {
	if d.Table.TotalBytes == 0 {
		return 0
	}
	var resultBytes int64
	if cell.Stats != nil {
		resultBytes = int64(cell.Rows) * avgRowBytes(d)
	}
	return float64(resultBytes) / float64(d.Table.TotalBytes)
}

func avgRowBytes(d *workload.Dataset) int64 {
	// Rough fixed-width estimate: 8 bytes per column.
	return int64(d.Table.Columns.Len()) * 8
}

// Breakdown is Table 3: stage shares for a single query.
type Breakdown struct {
	PlanAnalysis time.Duration // logical plan traversal (connector opt)
	SubstraitGen time.Duration
	Transfer     time.Duration // pushdown execution + result transfer
	Residual     time.Duration // engine execution after the scan
	Other        time.Duration
	Total        time.Duration
}

// RunTable3 executes the Laghos query over a single-object dataset and
// splits its wall time into the paper's stages.
func (c *Cluster) RunTable3(d *workload.Dataset) (*Breakdown, error) {
	session := engine.NewSession().Set(ocsconn.SessionPushdown, "all")
	cell, err := c.Run("table3", d.Query, session)
	if err != nil {
		return nil, err
	}
	scan := cell.Stats.Scan.Snapshot()
	b := &Breakdown{
		PlanAnalysis: cell.Stats.ConnectorOpt,
		SubstraitGen: scan.SubstraitGen,
		Transfer:     scan.Transfer,
		Total:        cell.Stats.Total,
	}
	b.Residual = cell.Stats.Execution - scan.Transfer - scan.SubstraitGen
	if b.Residual < 0 {
		b.Residual = 0
	}
	b.Other = b.Total - b.PlanAnalysis - b.SubstraitGen - b.Transfer - b.Residual
	if b.Other < 0 {
		b.Other = 0
	}
	return b, nil
}
