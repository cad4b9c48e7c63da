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
	"prestocs/internal/parquetlite"
	"prestocs/internal/plan"
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
// update it from CreatePageSource; it is safe for concurrent use.
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
	// PushdownSplits and RawSplits count the per-split pushdown-vs-raw
	// choices an adaptive connector made inside CreatePageSource.
	PushdownSplits int64
	RawSplits      int64
	// AdaptiveFlips counts splits that started pushed down and switched
	// mid-stream to the local resume path because the adaptive policy
	// repriced them against live selectivity and storage load.
	AdaptiveFlips int64
	// JoinBloomSplits counts probe splits that shipped a join build-side
	// bloom filter into storage; JoinBloomRejected counts splits where
	// the node refused the filter (size cap) and the scan retried without
	// it, re-applying the filter engine-side.
	JoinBloomSplits   int64
	JoinBloomRejected int64
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

// AddSplitDecision records one adaptive per-split choice.
func (s *ScanStats) AddSplitDecision(pushdown bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pushdown {
		s.PushdownSplits++
	} else {
		s.RawSplits++
	}
}

// AddAdaptiveFlip records one mid-stream pushdown→raw switch.
func (s *ScanStats) AddAdaptiveFlip() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.AdaptiveFlips++
}

// AddJoinBloomSplit records one probe split opened with a bloom filter
// pushed into storage.
func (s *ScanStats) AddJoinBloomSplit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.JoinBloomSplits++
}

// AddJoinBloomRejected records one storage-side bloom refusal (the scan
// retried without the filter).
func (s *ScanStats) AddJoinBloomRejected() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.JoinBloomRejected++
}

// Snapshot returns a copy for reporting.
func (s *ScanStats) Snapshot() ScanStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ScanStats{
		BytesMoved:        s.BytesMoved,
		StorageWork:       s.StorageWork,
		SubstraitGen:      s.SubstraitGen,
		Transfer:          s.Transfer,
		DeserializeUnits:  s.DeserializeUnits,
		ResultRows:        s.ResultRows,
		FallbackSplits:    s.FallbackSplits,
		SplitsPruned:      s.SplitsPruned,
		PushdownSplits:    s.PushdownSplits,
		RawSplits:         s.RawSplits,
		AdaptiveFlips:     s.AdaptiveFlips,
		JoinBloomSplits:   s.JoinBloomSplits,
		JoinBloomRejected: s.JoinBloomRejected,
	}
}

// ScanWholeObject is the no-pushdown scan of one split, the same for every
// connector: the whole object crosses the network in one GET and is decoded
// here, a row group per page, with nothing to prune by. columns is the
// object's schema and projection the ordinals to read (nil = all). The GET
// is charged as transfer, bytes moved and storage work; the local parquet
// decode and page building as 1.5 ingest units per cell.
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

	reader, err := parquetlite.NewReader(data)
	if err != nil {
		return nil, err
	}
	schema, cols := columns, projection
	if cols != nil {
		schema = columns.Project(cols)
	} else {
		cols = make([]int, columns.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	rg := 0
	return exec.NewFuncSource(schema, func() (*column.Page, error) {
		if rg >= len(reader.Meta().RowGroups) {
			return nil, nil
		}
		page, err := reader.ReadRowGroup(rg, cols)
		rg++
		if err != nil {
			return nil, err
		}
		stats.AddDeserialize(float64(page.NumRows())*float64(len(cols))*1.5, int64(page.NumRows()))
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
	// Splits enumerates the scan units for a handle.
	Splits(handle plan.TableHandle) ([]Split, error)
	// PlanOptimizer returns the connector's local optimizer (nil for
	// connectors without pushdown logic beyond projection).
	PlanOptimizer() ConnectorPlanOptimizer
	// CreatePageSource is the one way the engine opens a split. How the
	// split is served — in storage, raw, or priced per split against
	// runtime history — is the connector's business; whichever path it
	// picks yields pages in handle.ScanSchema() order and records its
	// metrics (including the choice) in stats. The context covers the
	// whole life of the source: cancelling it must make pending and
	// future Next calls return promptly.
	CreatePageSource(ctx context.Context, handle plan.TableHandle, split Split, stats *ScanStats) (exec.Operator, error)
}

// SplitSource is an optional Connector extension: connectors that can
// prune splits with table statistics implement it, and the engine
// prefers it over plain Splits so the pruning decision is recorded in
// the query's ScanStats.
type SplitSource interface {
	// SplitsWithStats enumerates the scan units for a handle, dropping
	// splits whose object statistics prove the handle's pushed-down
	// filter false, and records the count via stats.AddSplitsPruned.
	SplitsWithStats(handle plan.TableHandle, stats *ScanStats) ([]Split, error)
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

	Splits       int
	ResultRows   int
	PlanText     string
	PushedDown   []string // operator kinds absorbed by the connector
	UsedPushdown bool

	// Join execution (zero values for single-table queries).
	// JoinStrategy is "broadcast" or "final-stage"; JoinBuildRows the
	// rows indexed from the build side.
	JoinStrategy  string
	JoinBuildRows int64

	// TraceID identifies the query's trace when the engine has a tracer
	// (zero otherwise); prestolite's -profile flag renders it.
	TraceID telemetry.TraceID
}

// QueryEvent is delivered to event listeners after each query (the
// connector's monitoring hook, §4 "Pushdown Monitoring").
type QueryEvent struct {
	SQL     string
	Catalog string
	Table   string
	Stats   *QueryStats
	Err     error
}

// EventListener observes completed queries.
type EventListener interface {
	QueryCompleted(QueryEvent)
}
