package telemetry

// Canonical metric names. Every instrument the system registers is
// declared here, and `make vet-telemetry` fails the build when a name in
// this manifest has no registration site outside this package — so an
// rpc method, retry policy or fallback path cannot be added (or its
// instrumentation deleted) without the gate noticing.
//
// Naming convention: <component>_<what>_<unit-or-total>. Histograms are
// in microseconds unless the name says bytes.
const (
	// RPC client (per-method labels: method).
	MetricRPCClientLatency   = "rpc_client_latency_us"
	MetricRPCClientSentBytes = "rpc_client_sent_bytes_total"
	MetricRPCClientRecvBytes = "rpc_client_recv_bytes_total"
	MetricRPCClientErrors    = "rpc_client_errors_total"

	// RPC connection pool.
	MetricRPCPoolIdle     = "rpc_pool_idle_conns"
	MetricRPCPoolDials    = "rpc_pool_dials_total"
	MetricRPCPoolDiscards = "rpc_pool_discards_total"
	// MetricRPCPoolRedials counts transparent retries of a call whose
	// stale pooled connection failed before any response bytes arrived.
	MetricRPCPoolRedials = "rpc_pool_redials_total"

	// RPC frame layer.
	MetricRPCOversizeFrames = "rpc_oversize_frames_total"

	// RPC stream flow control (chunk-level backpressure). Stalls counts
	// the times a producer hit a full credit window and paused; inflight
	// gauges the chunks sent but not yet credited across live streams.
	MetricRPCStreamStalls   = "rpc_stream_window_stalls_total"
	MetricRPCStreamInflight = "rpc_stream_inflight_chunks"

	// RPC server (per-method labels: method).
	MetricRPCServerLatency   = "rpc_server_latency_us"
	MetricRPCServerSentBytes = "rpc_server_sent_bytes_total"
	MetricRPCServerRecvBytes = "rpc_server_recv_bytes_total"

	// Retry loop (labels: none; counts attempts beyond the first).
	MetricRetryAttempts = "retry_attempts_total"
	MetricRetryGiveups  = "retry_giveups_total"

	// Storage node (labels: node).
	MetricNodeChunksSent    = "ocs_node_chunks_sent_total"
	MetricNodeChunkBytes    = "ocs_node_chunk_bytes_total"
	MetricScanPoolActive    = "ocs_scan_pool_active_workers"
	MetricScanPoolQueued    = "ocs_scan_pool_queued_groups"
	MetricScanPoolRowGroups = "ocs_scan_rowgroups_total"
	// MetricScanSchedQueries gauges the queries with a registered queue
	// on the node-wide fair-share scan scheduler.
	MetricScanSchedQueries = "ocs_scan_sched_active_queries"
	// Zone-map pruning on the storage node: row groups skipped because
	// footer stats proved the filter false, and the compressed bytes
	// those groups would have read.
	MetricScanRowGroupsPruned = "ocs_scan_rowgroups_pruned_total"
	MetricScanBytesSkipped    = "ocs_scan_bytes_skipped_total"
	// Join bloom-filter evaluation on the storage node: probe rows hashed
	// against a pushed build-side filter, and the subset it proved absent
	// from the build (dropped before leaving the node).
	MetricStorageBloomRowsTested   = "ocs_bloom_rows_tested_total"
	MetricStorageBloomRowsFiltered = "ocs_bloom_rows_filtered_total"

	// Engine admission control and the live-query process list.
	// Queued gauges queries waiting for an admission slot; rejected
	// counts synchronous sheds (ErrOverloaded); wait is the queue time of
	// admitted queries; active gauges queries past admission and not yet
	// done; memory gauges the sum of admitted queries' reservations.
	MetricAdmissionQueued   = "engine_admission_queued_queries"
	MetricAdmissionRejected = "engine_admission_rejected_total"
	MetricAdmissionWait     = "engine_admission_wait_us"
	MetricQueriesActive     = "engine_queries_active"
	MetricQueryMemReserved  = "engine_query_memory_reserved_bytes"

	// Engine query stage metrics (one observation per query).
	MetricQueryTotal        = "engine_queries_total"
	MetricQueryErrors       = "engine_query_errors_total"
	MetricQueryLatency      = "engine_query_latency_us"
	MetricQueryBytesMoved   = "engine_query_bytes_moved_total"
	MetricQueryFallbacks    = "engine_query_fallback_splits_total"
	MetricQueryResultRows   = "engine_query_result_rows_total"
	MetricQueryPushdown     = "engine_query_pushdown_total"
	MetricQuerySubstraitGen = "engine_query_substrait_gen_us"
	MetricQueryTransfer     = "engine_query_transfer_us"
	// MetricQuerySplitsPruned counts splits dropped before scheduling by
	// per-object statistics (zone-map split pruning).
	MetricQuerySplitsPruned = "engine_query_splits_pruned_total"
	// Join execution: queries that ran a hash join, the build-side rows
	// indexed across them, and the per-query split of broadcast vs
	// final-stage probe strategies (labels: strategy).
	MetricQueryJoins         = "engine_join_queries_total"
	MetricJoinBuildRows      = "engine_join_build_rows_total"
	MetricJoinStrategyChosen = "engine_join_strategy_total"
	// Bloom pushdown accounting: probe splits that carried a build-side
	// bloom filter into storage, and splits where the node rejected the
	// filter (size cap) and the scan retried without it.
	MetricJoinBloomPushdown = "engine_join_bloom_splits_total"
	MetricJoinBloomRejected = "engine_join_bloom_rejected_total"

	// Engine-side table-metadata cache (labels: catalog). Hit ratios are
	// lifetime percentages (0-100).
	MetricMetaCacheHits          = "cache_meta_hits_total"
	MetricMetaCacheMisses        = "cache_meta_misses_total"
	MetricMetaCacheInvalidations = "cache_meta_invalidations_total"
	MetricMetaCacheHitRatio      = "cache_meta_hit_ratio_pct"

	// Storage-node decoded-footer cache (labels: node).
	MetricFooterCacheHits      = "ocs_cache_footer_hits_total"
	MetricFooterCacheMisses    = "ocs_cache_footer_misses_total"
	MetricFooterCacheEvictions = "ocs_cache_footer_evictions_total"
	MetricFooterCacheBytes     = "ocs_cache_footer_bytes"
	MetricFooterCacheHitRatio  = "ocs_cache_footer_hit_ratio_pct"

	// Storage-node hot-page (decoded column chunk) cache (labels: node).
	// Rejected counts chunks the two-touch admission policy declined to
	// cache on their first sighting during pruning-heavy scans.
	MetricPageCacheHits      = "ocs_cache_page_hits_total"
	MetricPageCacheMisses    = "ocs_cache_page_misses_total"
	MetricPageCacheEvictions = "ocs_cache_page_evictions_total"
	MetricPageCacheBytes     = "ocs_cache_page_bytes"
	MetricPageCacheHitRatio  = "ocs_cache_page_hit_ratio_pct"
	MetricPageCacheRejected  = "ocs_cache_page_admission_rejected_total"

	// Write path: streaming ingestion (labels: table). Rows/objects/bytes
	// count committed data — a killed ingest that never reached its
	// metastore commit contributes nothing. Flush latency is the seal +
	// put + commit time per object, in microseconds.
	MetricIngestRows    = "ingest_rows_total"
	MetricIngestObjects = "ingest_objects_total"
	MetricIngestBytes   = "ingest_bytes_total"
	MetricIngestFlushUs = "ingest_flush_us"

	// Background compaction (labels: table). Merged counts source objects
	// folded into compacted outputs; reclaimed counts tombstoned objects
	// physically deleted after every pinned snapshot released them.
	MetricCompactRuns      = "compact_runs_total"
	MetricCompactMerged    = "compact_merged_objects_total"
	MetricCompactBytes     = "compact_bytes_written_total"
	MetricCompactReclaimed = "compact_reclaimed_objects_total"

	// Snapshot pins outstanding across all tables: queries pin the table
	// version they planned against; compaction defers physical deletes
	// past the oldest pin.
	MetricSnapshotPins = "metastore_snapshot_pins"
)
