// Package costmodel prices measured query executions with the paper's
// Table 1 hardware profiles, producing deterministic "modeled" times that
// reproduce the evaluation's shape on scaled-down datasets (see DESIGN.md
// §2, testbed substitution).
//
// Every experiment runs for real — the engine executes against OCS and
// object-store servers over loopback TCP, and every byte moved, byte read
// from media and abstract CPU unit spent is metered. The cost model then
// answers: "how long would this have taken on the paper's testbed?" by
// pricing
//
//	storage I/O      at the storage node's media bandwidth,
//	storage CPU      at 16 cores × 2.0 GHz,
//	network transfer at 10 GbE,
//	compute CPU      at 64 cores × 2.9 GHz,
//
// and summing the stages. Because expression work is metered in the same
// abstract units on both sides, pushing compute-heavy operators to the
// weak storage node gets 5.8× more expensive per unit — which is exactly
// how the paper's "projection pushdown slowdown" (Q2) emerges here.
package costmodel

import (
	"fmt"
	"runtime"
	"time"
)

// NodeProfile describes one machine class from Table 1.
type NodeProfile struct {
	Name  string
	Cores int
	GHz   float64
	MemGB int
}

// Capacity returns the node's abstract compute capacity (core-GHz).
func (n NodeProfile) Capacity() float64 { return float64(n.Cores) * n.GHz }

// Table 1 hardware profiles.
var (
	// DefaultComputeNode is the Presto coordinator+worker machine
	// (Xeon Gold 6226R).
	DefaultComputeNode = NodeProfile{Name: "compute", Cores: 64, GHz: 2.9, MemGB: 384}
	// DefaultFrontendNode is the OCS frontend (Xeon Silver 4410Y).
	DefaultFrontendNode = NodeProfile{Name: "frontend", Cores: 48, GHz: 3.9, MemGB: 64}
	// DefaultStorageNode is the resource-constrained OCS storage node.
	DefaultStorageNode = NodeProfile{Name: "storage", Cores: 16, GHz: 2.0, MemGB: 64}
)

// Params bundles the testbed constants.
type Params struct {
	Compute  NodeProfile
	Frontend NodeProfile
	Storage  NodeProfile
	// NetworkBytesPerSec is the compute↔storage link (10 GbE).
	NetworkBytesPerSec float64
	// MediaBytesPerSec is the storage node's NVMe read bandwidth.
	MediaBytesPerSec float64
	// SecondsPerUnit converts one abstract CPU unit on a 1 core-GHz
	// machine into seconds. All relative results are insensitive to it;
	// it sets the absolute scale.
	SecondsPerUnit float64
	// RPCOverheadSec is fixed per-request latency (connection + frame
	// handling) charged per storage round trip.
	RPCOverheadSec float64
	// IngestOverhead multiplies compute-side result-ingestion units.
	// It models the distributed engine's per-row cost of turning
	// transferred bytes into engine pages (JVM object churn, page
	// building, type conversion, exchange handling) — the reason the
	// paper's Table 3 shows "Presto execution" dominating even after
	// pushdown, and the mechanism by which shipping fewer rows to the
	// engine saves far more than raw wire time.
	IngestOverhead float64
}

// Default returns the paper-testbed parameters.
func Default() Params {
	return Params{
		Compute:            DefaultComputeNode,
		Frontend:           DefaultFrontendNode,
		Storage:            DefaultStorageNode,
		NetworkBytesPerSec: 10e9 / 8, // 10 GbE
		MediaBytesPerSec:   0.5e9,    // SATA-SSD-class read (Table 1: data tier is the 512 GB SATA SSD)
		SecondsPerUnit:     100e-9,   // 100 ns per unit per core-GHz
		RPCOverheadSec:     100e-6,   // 100 µs per round trip
		IngestOverhead:     40.0,
	}
}

// StorageScanParallelism returns the worker-pool size for the storage
// node's intra-object row-group scan: the modeled storage node's core
// count (Table 1), capped by what the host actually offers so the
// reproduction never oversubscribes real cores with modeled ones.
func StorageScanParallelism() int {
	n := DefaultStorageNode.Cores
	if host := runtime.GOMAXPROCS(0); host < n {
		n = host
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Measured is the metered footprint of one query execution.
type Measured struct {
	// StorageBytesRead is compressed bytes read from media.
	StorageBytesRead int64
	// StorageCPUUnits is abstract CPU spent inside storage (filtering,
	// aggregation, decompression, CSV formatting).
	StorageCPUUnits float64
	// BytesMoved is payload bytes across the network boundary.
	BytesMoved int64
	// ComputeCPUUnits is abstract CPU spent by engine operators on the
	// compute node (residual filters/projections/aggregation/top-N).
	ComputeCPUUnits float64
	// IngestUnits is compute-side result-ingestion work (parquet decode,
	// Arrow deserialization or CSV parsing into engine pages); priced
	// with the IngestOverhead multiplier.
	IngestUnits float64
	// RoundTrips is the number of storage RPCs.
	RoundTrips int64
}

// Breakdown is the modeled wall time per stage.
type Breakdown struct {
	StorageIO  time.Duration
	StorageCPU time.Duration
	Network    time.Duration
	ComputeCPU time.Duration
	Ingest     time.Duration
	RPC        time.Duration
	Total      time.Duration
}

// Model prices a measured execution. Stages are summed (a conservative
// no-overlap pipeline); the paper's trends depend on ratios between
// configurations, which summation preserves.
func (p Params) Model(m Measured) Breakdown {
	var b Breakdown
	if p.MediaBytesPerSec > 0 {
		b.StorageIO = seconds(float64(m.StorageBytesRead) / p.MediaBytesPerSec)
	}
	if cap := p.Storage.Capacity(); cap > 0 {
		b.StorageCPU = seconds(m.StorageCPUUnits * p.SecondsPerUnit / cap)
	}
	if p.NetworkBytesPerSec > 0 {
		b.Network = seconds(float64(m.BytesMoved) / p.NetworkBytesPerSec)
	}
	if cap := p.Compute.Capacity(); cap > 0 {
		b.ComputeCPU = seconds(m.ComputeCPUUnits * p.SecondsPerUnit / cap)
		b.Ingest = seconds(m.IngestUnits * p.IngestOverhead * p.SecondsPerUnit / cap)
	}
	b.RPC = seconds(float64(m.RoundTrips) * p.RPCOverheadSec)
	b.Total = b.StorageIO + b.StorageCPU + b.Network + b.ComputeCPU + b.Ingest + b.RPC
	return b
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// String renders the breakdown as a table row.
func (b Breakdown) String() string {
	return fmt.Sprintf("io=%v scpu=%v net=%v ccpu=%v ingest=%v rpc=%v total=%v",
		b.StorageIO, b.StorageCPU, b.Network, b.ComputeCPU, b.Ingest, b.RPC, b.Total)
}
