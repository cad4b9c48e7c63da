// Package hive implements the baseline connector modeled on Presto's Hive
// connector over S3-compatible object storage: catalog metadata comes
// from the metastore, one split per object, and pushdown is limited to
// WHERE-clause filtering and column projection through the S3 Select-like
// API (row-oriented CSV results) — exactly the capability ceiling the
// paper attributes to conventional object storage (§2.4). Everything else
// (aggregation, top-N, sorting) stays on the compute side.
package hive

import (
	"context"
	"fmt"
	"strings"
	"time"

	"prestocs/internal/cache"
	"prestocs/internal/column"
	"prestocs/internal/engine"
	"prestocs/internal/exec"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/objstore"
	"prestocs/internal/plan"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// SessionSelectPushdown toggles the S3 Select path ("true"/"false",
// default true). With it off, every split is a whole-object GET.
const SessionSelectPushdown = "hive.select_pushdown"

// Connector is the Hive-like connector instance for one catalog.
type Connector struct {
	catalog string
	meta    *metastore.Metastore
	tables  *cache.TableCache
	client  *objstore.Client
}

// New creates a connector bound to a metastore and object store endpoint.
// Table metadata is served through the same versioned cache as the OCS
// connector (the baseline engine benefits from metadata caching too).
func New(catalog string, meta *metastore.Metastore, client *objstore.Client) *Connector {
	return &Connector{
		catalog: catalog,
		meta:    meta,
		tables:  cache.NewTableCache(meta, cache.DefaultTableCacheEntries),
		client:  client,
	}
}

// SetTableCacheEntries resizes the table-metadata cache (0 disables
// caching). Call before serving queries.
func (c *Connector) SetTableCacheEntries(n int) {
	c.tables = cache.NewTableCache(c.meta, n)
}

// SetMetrics binds the table-metadata cache counters to a registry; call
// before serving queries.
func (c *Connector) SetMetrics(reg *telemetry.Registry) {
	c.tables.Instrument(reg, "catalog", c.catalog)
}

// Name implements engine.Connector.
func (c *Connector) Name() string { return c.catalog }

// Handle is the Hive table handle: base table plus projection and an
// optional pushed filter.
type Handle struct {
	Table      *metastore.Table
	Projection []int     // base-schema ordinals; nil = all
	Filter     expr.Expr // over the projected scan schema
	// UseSelect records whether the S3 Select path is active.
	UseSelect bool
}

// ConnectorName implements plan.TableHandle.
func (h *Handle) ConnectorName() string { return h.Table.Schema }

// ScanSchema implements plan.TableHandle.
func (h *Handle) ScanSchema() *types.Schema {
	if h.Projection == nil {
		return h.Table.Columns
	}
	return h.Table.Columns.Project(h.Projection)
}

// WithProjection implements plan.ProjectableHandle.
func (h *Handle) WithProjection(cols []int) plan.TableHandle {
	return &Handle{Table: h.Table, Projection: cols, Filter: h.Filter, UseSelect: h.UseSelect}
}

// PushedOperators implements engine.PushdownReporter.
func (h *Handle) PushedOperators() []string {
	var ops []string
	if h.Projection != nil {
		ops = append(ops, "columns")
	}
	if h.Filter != nil {
		ops = append(ops, "filter")
	}
	return ops
}

// String implements fmt.Stringer.
func (h *Handle) String() string {
	parts := []string{h.Table.QualifiedName()}
	if h.Projection != nil {
		parts = append(parts, fmt.Sprintf("cols=%d", len(h.Projection)))
	}
	if h.Filter != nil {
		parts = append(parts, "filter="+h.Filter.String())
	}
	return "hive:" + strings.Join(parts, ", ")
}

// TableHandle implements engine.Connector; lookups go through the
// versioned metadata cache.
func (c *Connector) TableHandle(schema, table string) (plan.TableHandle, error) {
	t, err := c.tables.Get(schema, table)
	if err != nil {
		return nil, err
	}
	return &Handle{Table: t}, nil
}

// Splits implements engine.Connector: one split per object.
func (c *Connector) Splits(handle plan.TableHandle) ([]engine.Split, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("hive: foreign handle %T", handle)
	}
	splits := make([]engine.Split, len(h.Table.Objects))
	for i, obj := range h.Table.Objects {
		splits[i] = engine.Split{Object: obj, Index: i}
	}
	return splits, nil
}

// PlanOptimizer implements engine.Connector: the Hive local optimizer
// absorbs at most the Filter directly above the scan (S3 Select's WHERE).
func (c *Connector) PlanOptimizer() engine.ConnectorPlanOptimizer { return &localOptimizer{} }

type localOptimizer struct{}

// Optimize absorbs, in every scan-rooted branch, the Filter directly above
// the scan into the handle when the session enables select pushdown. Both
// sides of a join qualify: each filters its own objects.
func (o *localOptimizer) Optimize(root plan.Node, session *engine.Session) (plan.Node, error) {
	if session.Get(SessionSelectPushdown) == "false" {
		return root, nil
	}
	return plan.MapBranches(root, func(branch plan.Node) (plan.Node, error) {
		spine, end := plan.Spine(branch)
		scan := end.(*plan.TableScan)
		h, ok := scan.Handle.(*Handle)
		if !ok || h.Filter != nil || len(spine) == 0 {
			return branch, nil
		}
		filter, ok := spine[len(spine)-1].(*plan.Filter)
		if !ok {
			return branch, nil
		}
		newHandle := &Handle{Table: h.Table, Projection: h.Projection, Filter: filter.Condition, UseSelect: true}
		return plan.Stack(spine[:len(spine)-1], &plan.TableScan{Catalog: scan.Catalog, Table: scan.Table, Handle: newHandle})
	})
}

// CreatePageSource implements engine.Connector.
func (c *Connector) CreatePageSource(ctx context.Context, handle plan.TableHandle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("hive: foreign handle %T", handle)
	}
	if h.Filter != nil || (h.UseSelect && h.Projection != nil) {
		return c.selectSource(ctx, h, split, stats)
	}
	return engine.ScanWholeObject(ctx, c.client, h.Table.Bucket, split.Object, h.Table.Columns, h.Projection, stats)
}

// selectSource uses the S3 Select-like path: storage-side filter +
// projection, CSV transfer, compute-side parse.
func (c *Connector) selectSource(ctx context.Context, h *Handle, split engine.Split, stats *engine.ScanStats) (exec.Operator, error) {
	scanSchema := h.ScanSchema()
	cols := make([]string, scanSchema.Len())
	for i, col := range scanSchema.Columns {
		cols[i] = col.Name
	}
	// The handle's filter references scan-schema ordinals; the Select API
	// wants full-schema ordinals.
	var pred expr.Expr
	if h.Filter != nil {
		pred = h.Filter
		if h.Projection != nil {
			mapping := make(map[int]int, len(h.Projection))
			for scanIdx, fullIdx := range h.Projection {
				mapping[scanIdx] = fullIdx
			}
			remapped, err := expr.Remap(h.Filter, mapping)
			if err != nil {
				return nil, err
			}
			pred = remapped
		}
	}
	start := time.Now()
	csvData, work, err := c.client.Select(ctx, h.Table.Bucket, split.Object, cols, pred)
	if err != nil {
		return nil, fmt.Errorf("hive: select %s/%s: %w", h.Table.Bucket, split.Object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(csvData)))
	stats.AddStorageWork(work)

	page, parseUnits, err := objstore.ParseSelectCSV(csvData, h.Table.Columns)
	if err != nil {
		return nil, err
	}
	// CSV is the most expensive result format to ingest: per-cell text
	// parsing (3 ingest units/cell).
	stats.AddDeserialize(parseUnits*3.0, int64(page.NumRows()))
	// Reorder CSV columns into scan-schema order (Select preserves the
	// requested order, so this is the identity; verify defensively).
	if !page.Schema.Equal(scanSchema) {
		return nil, fmt.Errorf("hive: select returned schema %s, want %s", page.Schema, scanSchema)
	}
	return exec.NewPageSource(scanSchema, []*column.Page{page}), nil
}
