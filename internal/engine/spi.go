// Package engine implements the Presto-like distributed SQL engine: a
// coordinator that parses, analyzes and optimizes queries (including the
// connector-specific local-optimization phase, Figure 3 step 4), splits
// the scan into per-object units, runs the leaf stage on a worker pool
// and the final stage on the coordinator, and exposes the Connector SPI
// that the Hive-like and OCS connectors plug into.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/exec"
	"prestocs/internal/objstore"
	"prestocs/internal/plan"
	"prestocs/internal/scan"
	"prestocs/internal/telemetry"
	"prestocs/internal/types"
)

// Split is one schedulable unit of a table scan (one object).
type Split struct {
	// Object is the object key within the table's bucket.
	Object string
	// Index is the split's ordinal within the table.
	Index int
}

// ScanStats accumulates connector-side metrics for one query. Connectors
// update it from their page sources; it is safe for concurrent use.
type ScanStats struct {
	mu sync.Mutex
	// BytesMoved is payload bytes that crossed the compute/storage
	// network boundary (the paper's "data movement").
	BytesMoved int64
	// StorageWork is work performed inside the storage layer.
	StorageWork objstore.WorkStats
	// SubstraitGen is time spent translating pushdown operators to
	// Substrait IR (Table 3 row 2).
	SubstraitGen time.Duration
	// Transfer is time spent in storage RPCs, including in-storage
	// execution (Table 3 row 3).
	Transfer time.Duration
	// DeserializeUnits is compute-side CPU work spent decoding results
	// (Arrow decode or CSV parse), in abstract units.
	DeserializeUnits float64
	// ResultRows is rows received from storage.
	ResultRows int64
	// FallbackSplits counts splits whose pushdown execution failed and
	// that were served by the raw-scan fallback (the paper's no-pushdown
	// configuration) instead.
	FallbackSplits int64
	// SplitsPruned counts splits dropped before scheduling because the
	// metastore's per-object statistics proved the pushed-down filter
	// false for the whole object (zone-map split pruning).
	SplitsPruned int64
	// JoinBloomSplits counts probe splits that shipped a join build-side
	// bloom filter into storage.
	JoinBloomSplits int64
}

// AddBytesMoved records network payload bytes.
func (s *ScanStats) AddBytesMoved(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.BytesMoved += n
}

// LiveCounters reads the rows and payload bytes received from storage so
// far; the process list polls it to report progress on running queries.
func (s *ScanStats) LiveCounters() (rows, bytesMoved int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ResultRows, s.BytesMoved
}

// AddStorageWork merges storage-side work.
func (s *ScanStats) AddStorageWork(w objstore.WorkStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.StorageWork.Add(w)
}

// AddSubstraitGen records IR-generation time.
func (s *ScanStats) AddSubstraitGen(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SubstraitGen += d
}

// AddTransfer records RPC round-trip time.
func (s *ScanStats) AddTransfer(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Transfer += d
}

// AddDeserialize records result-decode work.
func (s *ScanStats) AddDeserialize(units float64, rows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.DeserializeUnits += units
	s.ResultRows += rows
}

// AddFallback records one split degraded to the raw-scan path.
func (s *ScanStats) AddFallback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.FallbackSplits++
}

// AddSplitsPruned records splits dropped by statistics before scheduling.
func (s *ScanStats) AddSplitsPruned(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.SplitsPruned += n
}

// AddJoinBloomSplit records one probe split opened with a bloom filter
// pushed into storage.
func (s *ScanStats) AddJoinBloomSplit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.JoinBloomSplits++
}

// Snapshot returns a copy for reporting.
func (s *ScanStats) Snapshot() ScanStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ScanStats{
		BytesMoved:       s.BytesMoved,
		StorageWork:      s.StorageWork,
		SubstraitGen:     s.SubstraitGen,
		Transfer:         s.Transfer,
		DeserializeUnits: s.DeserializeUnits,
		ResultRows:       s.ResultRows,
		FallbackSplits:   s.FallbackSplits,
		SplitsPruned:     s.SplitsPruned,
		JoinBloomSplits:  s.JoinBloomSplits,
	}
}

// ScanWholeObject is the no-pushdown scan of one split, the same for every
// connector: the whole object crosses the network in one GET and is decoded
// here through scan.Open, a row group per page, with nothing to prune by
// and no cache. columns is the table's schema, which the object's stored
// schema must equal, and projection the ordinals to read (nil = all). The
// GET is charged as transfer, bytes moved and storage work; the local
// parquet decode and page building as 1.5 ingest units per cell.
func ScanWholeObject(ctx context.Context, client *objstore.Client, bucket, object string, columns *types.Schema, projection []int, stats *ScanStats) (exec.Operator, error) {
	start := time.Now()
	getCtx, sp := telemetry.StartSpan(ctx, "connector.raw_get")
	sp.SetAttr("object", object)
	data, work, err := client.Get(getCtx, bucket, object)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("engine: get %s/%s: %w", bucket, object, err)
	}
	stats.AddTransfer(time.Since(start))
	stats.AddBytesMoved(int64(len(data)))
	stats.AddStorageWork(work)

	obj, err := scan.Open(nil, "", data, columns, projection, nil)
	if err != nil {
		return nil, fmt.Errorf("engine: %s/%s: %w", bucket, object, err)
	}
	cells := float64(obj.Schema().Len())
	rg := 0
	return exec.NewFuncSource(obj.Schema(), func() (*column.Page, error) {
		if rg >= obj.Len() {
			return nil, nil
		}
		page, err := obj.Read(rg)
		rg++
		if err != nil {
			return nil, err
		}
		stats.AddDeserialize(float64(page.NumRows())*cells*1.5, int64(page.NumRows()))
		return page, nil
	}), nil
}

// Session carries per-query configuration, notably connector session
// properties like the OCS pushdown mode.
type Session struct {
	props map[string]string
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{props: map[string]string{}} }

// Set assigns a property.
func (s *Session) Set(key, value string) *Session {
	s.props[key] = value
	return s
}

// Get reads a property ("" when unset).
func (s *Session) Get(key string) string { return s.props[key] }

// ConnectorPlanOptimizer is the SPI hook the paper's connector extends:
// it runs after global optimization and may rewrite the plan, typically
// absorbing leaf-stage operators into the scan handle.
type ConnectorPlanOptimizer interface {
	Optimize(root plan.Node, session *Session) (plan.Node, error)
}

// Connector is the storage plugin interface (Presto's Connector SPI,
// reduced to what this engine needs).
type Connector interface {
	// Name is the catalog name this connector serves.
	Name() string
	// TableHandle resolves a table to an opaque scan handle.
	TableHandle(schema, table string) (plan.TableHandle, error)
	// SplitsWithStats enumerates the scan units for a handle. A connector
	// that keeps table statistics drops the splits they prove cannot
	// match the handle's pushed-down filter, and records the count via
	// stats.AddSplitsPruned.
	SplitsWithStats(handle plan.TableHandle, stats *ScanStats) ([]Split, error)
	// PlanOptimizer returns the connector's local optimizer (nil for
	// connectors without pushdown logic beyond projection).
	PlanOptimizer() ConnectorPlanOptimizer
	// CreatePageSources is the one way the engine opens splits: one leaf
	// worker's share of a scan, in the order the worker runs them. It
	// returns one source per split, in that order. The caller consumes
	// them one after the other — it calls source i+1's Next only once
	// source i has returned nil or been closed — and closes every one,
	// run or not. How the splits are served — in storage or raw, one
	// request per split or one for them all, as the handle's plan-time
	// pushdown decided — is the connector's business; every source yields
	// pages in handle.ScanSchema() order and records its metrics in
	// stats. The context covers the whole life of the sources: cancelling
	// it must make pending and future Next calls return promptly.
	CreatePageSources(ctx context.Context, handle plan.TableHandle, splits []Split, stats *ScanStats) ([]exec.Operator, error)
}

// OpenEach is CreatePageSources for a connector that opens its splits one
// by one with open, under the same contract: the first split opens now,
// so an error opening it is returned here, and each later split opens on
// its source's first Next.
func OpenEach(ctx context.Context, handle plan.TableHandle, splits []Split, stats *ScanStats, open func(context.Context, plan.TableHandle, Split, *ScanStats) (exec.Operator, error)) ([]exec.Operator, error) {
	sources := make([]exec.Operator, len(splits))
	for i, split := range splits {
		sources[i] = &lazySource{schema: handle.ScanSchema(), open: func() (exec.Operator, error) {
			return open(ctx, handle, split, stats)
		}}
	}
	if len(sources) > 0 {
		if err := sources[0].(*lazySource).start(); err != nil {
			return nil, err
		}
	}
	return sources, nil
}

// lazySource is one split of OpenEach: it opens on its first Next, and
// Close releases what it opened (nothing if it never did).
type lazySource struct {
	schema *types.Schema
	open   func() (exec.Operator, error)
	src    exec.Operator
	closed bool
}

func (s *lazySource) Schema() *types.Schema { return s.schema }

func (s *lazySource) start() error {
	src, err := s.open()
	if err != nil {
		return err
	}
	s.src = src
	return nil
}

func (s *lazySource) Next() (*column.Page, error) {
	if s.closed {
		return nil, nil
	}
	if s.src == nil {
		if err := s.start(); err != nil {
			return nil, err
		}
	}
	return s.src.Next()
}

func (s *lazySource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return exec.Close(s.src)
}

// QueryStats is the engine's per-query report; the harness and Table 3
// read from it.
type QueryStats struct {
	// Stage timings.
	ParseAnalyze time.Duration
	GlobalOpt    time.Duration
	ConnectorOpt time.Duration
	Execution    time.Duration
	Total        time.Duration

	// Connector-side metrics.
	Scan ScanStats

	// Compute-side operator work by stage.
	LeafMeter  exec.Meter
	FinalMeter exec.Meter

	Splits     int
	ResultRows int
	PlanText   string
	PushedDown []string // operator kinds absorbed by the connector

	// Join execution (zero values for single-table queries): Join marks
	// a query that built a join table, JoinBuildRows the rows indexed
	// from its build side, and JoinGroupedByBuild one whose aggregate
	// above the join numbered its groups by the build rows' key ids —
	// a unique build side, grouped by the join key and build columns.
	Join               bool
	JoinBuildRows      int64
	JoinGroupedByBuild bool

	// TraceID identifies the query's trace when the engine has a tracer
	// (zero otherwise); prestolite's -profile flag renders it.
	TraceID telemetry.TraceID
}
