//! Execution metrics.
//!
//! `bytes_scanned` is the reproduction of the paper's billing metric
//! ("Athena charges a fixed amount per TB scanned"): every scan adds the
//! encoded size of the columns it actually reads, after partition pruning
//! and column pruning. Figure 2 of the paper is
//! `bytes_scanned(optimized) / bytes_scanned(baseline)` per query.
//!
//! `peak_state_bytes` tracks the high-water mark of materialized operator
//! state (hash tables, sort buffers); Section V.C observes that removing a
//! duplicated common subexpression halves this and avoids spilling.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use fusion_common::{FusionError, Result};

/// Shared, thread-safe execution metrics.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    bytes_scanned: AtomicU64,
    rows_scanned: AtomicU64,
    rows_produced: AtomicU64,
    partitions_read: AtomicU64,
    partitions_pruned: AtomicU64,
    current_state_bytes: AtomicI64,
    peak_state_bytes: AtomicI64,
    /// Working-memory budget in bytes (0 = unlimited). Crossing it while
    /// reserving state counts a simulated spill — the §V.C observation
    /// that duplicated common subexpressions push the engine into
    /// spilling which fusion avoids.
    memory_budget: AtomicI64,
    spills: AtomicU64,
    /// Scan read attempts that were retried after a transient failure.
    retries: AtomicU64,
    /// Faults the [`crate::fault::FaultPolicy`] injected (transient or
    /// fatal), whether or not a retry later succeeded.
    faults_injected: AtomicU64,
    /// Times the engine degraded a fused plan back to the unfused
    /// baseline after an execution or validation failure.
    fallbacks: AtomicU64,
    /// Partition-granular morsels claimed and processed by parallel
    /// workers (pruned morsels included — this counts scheduling units,
    /// not reads; `partitions_read` counts reads).
    morsels_executed: AtomicU64,
    /// Rows rejected by the vectorized (columnar) predicate pass before
    /// row materialization.
    rows_filtered_vectorized: AtomicU64,
    /// Scan→filter→project(→agg) chains compiled into push-based
    /// [`crate::pipeline::FusedPipeline`] operators.
    pipelines_compiled: AtomicU64,
    /// Intermediate row batches a fused pipeline never materialized — the
    /// chunks the pull-based operator chain would have allocated and
    /// copied at each elided operator boundary.
    batches_elided: AtomicU64,
    /// Rows evaluated through the columnar expression kernels
    /// (`fusion_expr::vector`) instead of the row-at-a-time evaluator.
    rows_evaluated_vectorized: AtomicU64,
    /// Sum of per-worker busy time across all parallel stages.
    parallel_cpu_nanos: AtomicU64,
    /// Wall-clock time spent inside parallel stages (spawn to last join).
    /// `parallel_cpu_nanos / parallel_wall_nanos` is the effective
    /// parallelism achieved.
    parallel_wall_nanos: AtomicU64,
    /// Consumer splices served from the shared-subplan result cache
    /// (each avoided re-execution of a cached subplan counts once).
    reuse_cache_hits: AtomicU64,
    /// Entries removed from the shared-subplan cache, whether displaced
    /// by the LRU budget or invalidated by a table-version bump.
    reuse_cache_evictions: AtomicU64,
    /// Cached subplan results refreshed in place after a pure append to a
    /// dependency table: the delta was executed (or merged) instead of
    /// evicting the entry and recomputing from scratch.
    reuse_cache_refreshes: AtomicU64,
    /// Consumer splices served from a cached result whose subplan strictly
    /// subsumes the consumer's (a compensating filter over the cached rows
    /// recovers the exact answer).
    subsumption_hits: AtomicU64,
    /// Shared subplans the workload optimizer executed once on behalf of
    /// two or more consuming queries (cache hits do not count — nothing
    /// executed).
    shared_subplans_executed: AtomicU64,
    /// Queries that ran in a window: every slot of a `Session::run_batch`
    /// or service window, and every lone `Session::sql` (a window of one).
    queries_batched: AtomicU64,
    /// Queries in a batch that finished with a typed error in their
    /// `BatchResult` slot while the rest of the batch completed (per-query
    /// fault domains).
    batch_query_failures: AtomicU64,
    /// Shared-group executions that failed permanently (after retries) and
    /// forced their consumers to detach and run unshared.
    shared_group_failures: AtomicU64,
    /// Consumers that detached from a shared group — because the group's
    /// one-shot execution failed or their own splice could not be applied —
    /// and re-executed independently from their un-spliced originals.
    consumers_detached: AtomicU64,
    /// Cache entries evicted because their row-content checksum no longer
    /// matched at lookup (a poisoned entry was caught before serving).
    cache_poison_evictions: AtomicU64,
    /// Per-fingerprint circuit breakers that transitioned to open after
    /// repeated shared-execution failures.
    circuit_breaker_trips: AtomicU64,
    /// Reuse-layer rewrites (splices, subsumption serves, incremental
    /// refreshes) granted a soundness certificate before serving rows.
    reuse_certificates_issued: AtomicU64,
    /// Reuse-layer rewrites refused a certificate; the rewrite reverted to
    /// cold execution (detach, evict-and-recompute) with a typed reason.
    reuse_certificates_rejected: AtomicU64,
    /// Queries the multi-tenant service accepted into its admission queue.
    queries_admitted: AtomicU64,
    /// Queries the service refused at admission (tenant queue depth,
    /// in-flight cap, or memory budget exhausted) with a typed
    /// `FUSION_ADMISSION_REJECTED` error.
    queries_rejected: AtomicU64,
    /// Batch windows the service dispatcher closed and executed.
    windows_dispatched: AtomicU64,
    /// Cumulative queries packed into dispatched windows; divided by
    /// `windows_dispatched` this is the mean window occupancy.
    window_occupancy: AtomicU64,
    /// Total time queries spent parked in the admission queue before
    /// their window was dispatched.
    queue_wait_nanos: AtomicU64,
    /// Longest single admission-queue wait observed (a max, not a sum).
    queue_wait_nanos_max: AtomicU64,
    /// Queries whose window execution served them through a shared group
    /// or cache splice — the coalescing payoff the service exists for.
    queries_coalesced_shared: AtomicU64,
}

impl ExecMetrics {
    pub fn new() -> Arc<Self> {
        Arc::new(ExecMetrics::default())
    }

    /// Metrics with a simulated working-memory budget.
    pub fn with_budget(bytes: u64) -> Arc<Self> {
        let m = ExecMetrics::default();
        m.memory_budget.store(bytes as i64, Ordering::Relaxed);
        Arc::new(m)
    }

    pub fn add_bytes_scanned(&self, bytes: u64) {
        self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn add_rows_scanned(&self, rows: u64) {
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_rows_produced(&self, rows: u64) {
        self.rows_produced.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_partitions(&self, read: u64, pruned: u64) {
        self.partitions_read.fetch_add(read, Ordering::Relaxed);
        self.partitions_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Record `bytes` of newly materialized operator state; updates the
    /// high-water mark. Pair with [`ExecMetrics::release_state`].
    pub fn reserve_state(&self, bytes: i64) {
        let prev = self.current_state_bytes.fetch_add(bytes, Ordering::Relaxed);
        let cur = prev + bytes;
        self.peak_state_bytes.fetch_max(cur, Ordering::Relaxed);
        let budget = self.memory_budget.load(Ordering::Relaxed);
        if budget > 0 && cur > budget && prev <= budget {
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn release_state(&self, bytes: i64) {
        self.current_state_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn add_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_morsel(&self) {
        self.morsels_executed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_rows_filtered_vectorized(&self, rows: u64) {
        self.rows_filtered_vectorized.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_pipeline_compiled(&self) {
        self.pipelines_compiled.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_batches_elided(&self, batches: u64) {
        self.batches_elided.fetch_add(batches, Ordering::Relaxed);
    }

    pub fn add_rows_evaluated_vectorized(&self, rows: u64) {
        self.rows_evaluated_vectorized.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_parallel_cpu_nanos(&self, nanos: u64) {
        self.parallel_cpu_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn add_parallel_wall_nanos(&self, nanos: u64) {
        self.parallel_wall_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn add_reuse_cache_hit(&self) {
        self.reuse_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_reuse_cache_eviction(&self) {
        self.reuse_cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_reuse_cache_refresh(&self) {
        self.reuse_cache_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_subsumption_hit(&self) {
        self.subsumption_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_shared_subplan_executed(&self) {
        self.shared_subplans_executed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_queries_batched(&self, n: u64) {
        self.queries_batched.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_batch_query_failure(&self) {
        self.batch_query_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_shared_group_failure(&self) {
        self.shared_group_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_consumer_detached(&self) {
        self.consumers_detached.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_cache_poison_eviction(&self) {
        self.cache_poison_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_circuit_breaker_trip(&self) {
        self.circuit_breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_reuse_certificate_issued(&self) {
        self.reuse_certificates_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_reuse_certificate_rejected(&self) {
        self.reuse_certificates_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_query_admitted(&self) {
        self.queries_admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_query_rejected(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a dispatched window of `occupancy` queries.
    pub fn add_window_dispatched(&self, occupancy: u64) {
        self.windows_dispatched.fetch_add(1, Ordering::Relaxed);
        self.window_occupancy.fetch_add(occupancy, Ordering::Relaxed);
    }

    /// Record one query's admission-queue wait (accumulates the total and
    /// updates the max).
    pub fn add_queue_wait_nanos(&self, nanos: u64) {
        self.queue_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.queue_wait_nanos_max.fetch_max(nanos, Ordering::Relaxed);
    }

    pub fn add_query_coalesced_shared(&self) {
        self.queries_coalesced_shared.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned.load(Ordering::Relaxed)
    }

    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    pub fn rows_produced(&self) -> u64 {
        self.rows_produced.load(Ordering::Relaxed)
    }

    pub fn partitions_read(&self) -> u64 {
        self.partitions_read.load(Ordering::Relaxed)
    }

    pub fn partitions_pruned(&self) -> u64 {
        self.partitions_pruned.load(Ordering::Relaxed)
    }

    pub fn peak_state_bytes(&self) -> i64 {
        self.peak_state_bytes.load(Ordering::Relaxed)
    }

    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    pub fn morsels_executed(&self) -> u64 {
        self.morsels_executed.load(Ordering::Relaxed)
    }

    pub fn rows_filtered_vectorized(&self) -> u64 {
        self.rows_filtered_vectorized.load(Ordering::Relaxed)
    }

    pub fn pipelines_compiled(&self) -> u64 {
        self.pipelines_compiled.load(Ordering::Relaxed)
    }

    pub fn batches_elided(&self) -> u64 {
        self.batches_elided.load(Ordering::Relaxed)
    }

    pub fn rows_evaluated_vectorized(&self) -> u64 {
        self.rows_evaluated_vectorized.load(Ordering::Relaxed)
    }

    pub fn parallel_cpu_nanos(&self) -> u64 {
        self.parallel_cpu_nanos.load(Ordering::Relaxed)
    }

    pub fn parallel_wall_nanos(&self) -> u64 {
        self.parallel_wall_nanos.load(Ordering::Relaxed)
    }

    pub fn reuse_cache_hits(&self) -> u64 {
        self.reuse_cache_hits.load(Ordering::Relaxed)
    }

    pub fn reuse_cache_evictions(&self) -> u64 {
        self.reuse_cache_evictions.load(Ordering::Relaxed)
    }

    pub fn reuse_cache_refreshes(&self) -> u64 {
        self.reuse_cache_refreshes.load(Ordering::Relaxed)
    }

    pub fn subsumption_hits(&self) -> u64 {
        self.subsumption_hits.load(Ordering::Relaxed)
    }

    pub fn shared_subplans_executed(&self) -> u64 {
        self.shared_subplans_executed.load(Ordering::Relaxed)
    }

    pub fn queries_batched(&self) -> u64 {
        self.queries_batched.load(Ordering::Relaxed)
    }

    pub fn batch_query_failures(&self) -> u64 {
        self.batch_query_failures.load(Ordering::Relaxed)
    }

    pub fn shared_group_failures(&self) -> u64 {
        self.shared_group_failures.load(Ordering::Relaxed)
    }

    pub fn consumers_detached(&self) -> u64 {
        self.consumers_detached.load(Ordering::Relaxed)
    }

    pub fn cache_poison_evictions(&self) -> u64 {
        self.cache_poison_evictions.load(Ordering::Relaxed)
    }

    pub fn circuit_breaker_trips(&self) -> u64 {
        self.circuit_breaker_trips.load(Ordering::Relaxed)
    }

    pub fn reuse_certificates_issued(&self) -> u64 {
        self.reuse_certificates_issued.load(Ordering::Relaxed)
    }

    pub fn reuse_certificates_rejected(&self) -> u64 {
        self.reuse_certificates_rejected.load(Ordering::Relaxed)
    }

    pub fn queries_admitted(&self) -> u64 {
        self.queries_admitted.load(Ordering::Relaxed)
    }

    pub fn queries_rejected(&self) -> u64 {
        self.queries_rejected.load(Ordering::Relaxed)
    }

    pub fn windows_dispatched(&self) -> u64 {
        self.windows_dispatched.load(Ordering::Relaxed)
    }

    pub fn window_occupancy(&self) -> u64 {
        self.window_occupancy.load(Ordering::Relaxed)
    }

    pub fn queue_wait_nanos(&self) -> u64 {
        self.queue_wait_nanos.load(Ordering::Relaxed)
    }

    pub fn queue_wait_nanos_max(&self) -> u64 {
        self.queue_wait_nanos_max.load(Ordering::Relaxed)
    }

    pub fn queries_coalesced_shared(&self) -> u64 {
        self.queries_coalesced_shared.load(Ordering::Relaxed)
    }

    /// The *currently* reserved operator state (not the peak), clamped at
    /// zero. Used for enforced-budget admission checks.
    pub fn current_state_bytes(&self) -> u64 {
        self.current_state_bytes.load(Ordering::Relaxed).max(0) as u64
    }

    /// Snapshot for reporting.
    ///
    /// **Relaxed semantics:** each counter is loaded independently with
    /// `Ordering::Relaxed`, so a snapshot taken while workers are still
    /// running is *not* a consistent cut — it can observe, say,
    /// `rows_produced` ahead of `rows_scanned` (a "torn read"). Snapshots
    /// are only mutually consistent once every worker has been joined;
    /// the engine therefore snapshots strictly at query completion
    /// (operator-tree drop joins all morsel workers before results are
    /// returned). Mid-flight snapshots are fine for progress displays but
    /// must not be used for invariant checks.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_scanned: self.bytes_scanned(),
            rows_scanned: self.rows_scanned(),
            rows_produced: self.rows_produced(),
            partitions_read: self.partitions_read(),
            partitions_pruned: self.partitions_pruned(),
            peak_state_bytes: self.peak_state_bytes().max(0) as u64,
            spills: self.spills(),
            retries: self.retries(),
            faults_injected: self.faults_injected(),
            fallbacks: self.fallbacks(),
            morsels_executed: self.morsels_executed(),
            rows_filtered_vectorized: self.rows_filtered_vectorized(),
            pipelines_compiled: self.pipelines_compiled(),
            batches_elided: self.batches_elided(),
            rows_evaluated_vectorized: self.rows_evaluated_vectorized(),
            parallel_cpu_nanos: self.parallel_cpu_nanos(),
            parallel_wall_nanos: self.parallel_wall_nanos(),
            reuse_cache_hits: self.reuse_cache_hits(),
            reuse_cache_evictions: self.reuse_cache_evictions(),
            reuse_cache_refreshes: self.reuse_cache_refreshes(),
            subsumption_hits: self.subsumption_hits(),
            shared_subplans_executed: self.shared_subplans_executed(),
            queries_batched: self.queries_batched(),
            batch_query_failures: self.batch_query_failures(),
            shared_group_failures: self.shared_group_failures(),
            consumers_detached: self.consumers_detached(),
            cache_poison_evictions: self.cache_poison_evictions(),
            circuit_breaker_trips: self.circuit_breaker_trips(),
            reuse_certificates_issued: self.reuse_certificates_issued(),
            reuse_certificates_rejected: self.reuse_certificates_rejected(),
            queries_admitted: self.queries_admitted(),
            queries_rejected: self.queries_rejected(),
            windows_dispatched: self.windows_dispatched(),
            window_occupancy: self.window_occupancy(),
            queue_wait_nanos: self.queue_wait_nanos(),
            queue_wait_nanos_max: self.queue_wait_nanos_max(),
            queries_coalesced_shared: self.queries_coalesced_shared(),
        }
    }
}

/// A point-in-time copy of the metrics, for reports and assertions.
///
/// See [`ExecMetrics::snapshot`] for the consistency caveat: the fields
/// are only mutually consistent when the snapshot was taken after all
/// workers were joined (which is when the engine takes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub bytes_scanned: u64,
    pub rows_scanned: u64,
    pub rows_produced: u64,
    pub partitions_read: u64,
    pub partitions_pruned: u64,
    pub peak_state_bytes: u64,
    pub spills: u64,
    pub retries: u64,
    pub faults_injected: u64,
    pub fallbacks: u64,
    pub morsels_executed: u64,
    pub rows_filtered_vectorized: u64,
    /// Push-based pipeline counters (see `DESIGN.md` §14): chains
    /// compiled into `FusedPipeline` operators, intermediate batches those
    /// pipelines never materialized, and rows run through the columnar
    /// expression kernels.
    pub pipelines_compiled: u64,
    pub batches_elided: u64,
    pub rows_evaluated_vectorized: u64,
    pub parallel_cpu_nanos: u64,
    pub parallel_wall_nanos: u64,
    /// Workload-reuse counters (see the `fusion-reuse` crate). Like every
    /// other field these are completion-only: the engine snapshots after
    /// the batch (shared executions *and* all per-query residual plans)
    /// has fully finished.
    pub reuse_cache_hits: u64,
    pub reuse_cache_evictions: u64,
    /// Entries kept warm by re-executing/merging only an append's delta.
    pub reuse_cache_refreshes: u64,
    /// Splices served from a cached superset through a compensating filter.
    pub subsumption_hits: u64,
    pub shared_subplans_executed: u64,
    pub queries_batched: u64,
    /// Blast-radius isolation counters (see `DESIGN.md` §13): per-query
    /// batch failures, shared-group execution failures, consumers that
    /// detached and re-executed unshared, poisoned cache entries caught by
    /// the row-checksum check, and circuit breakers that tripped open.
    pub batch_query_failures: u64,
    pub shared_group_failures: u64,
    pub consumers_detached: u64,
    pub cache_poison_evictions: u64,
    pub circuit_breaker_trips: u64,
    /// Reuse-soundness prover counters (see `DESIGN.md` §16): rewrites
    /// that were granted a certificate before serving rows, and rewrites
    /// refused one (reverted to cold execution with a typed reason).
    pub reuse_certificates_issued: u64,
    pub reuse_certificates_rejected: u64,
    /// Multi-tenant service counters (see `DESIGN.md` §17): admission
    /// outcomes, dispatched batch windows and their cumulative occupancy,
    /// admission-queue wait (total and max), and queries that a coalesced
    /// window actually served through shared work.
    pub queries_admitted: u64,
    pub queries_rejected: u64,
    pub windows_dispatched: u64,
    pub window_occupancy: u64,
    pub queue_wait_nanos: u64,
    pub queue_wait_nanos_max: u64,
    pub queries_coalesced_shared: u64,
}

impl MetricsSnapshot {
    /// The per-query share of batch metrics: everything this snapshot
    /// accumulated since `base` was taken on the same sink.
    ///
    /// Additive counters subtract (saturating, so a torn pre-snapshot can
    /// never underflow); `peak_state_bytes` is a high-water mark, not a
    /// sum, so the later snapshot's value is kept as-is. Used by
    /// `Session::run_batch` to attribute work to individual queries
    /// correctly even when an earlier query in the batch failed partway —
    /// cumulative prefixes would re-attribute the failed query's partial
    /// work to whichever query completed next.
    pub fn delta_since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_scanned: self.bytes_scanned.saturating_sub(base.bytes_scanned),
            rows_scanned: self.rows_scanned.saturating_sub(base.rows_scanned),
            rows_produced: self.rows_produced.saturating_sub(base.rows_produced),
            partitions_read: self.partitions_read.saturating_sub(base.partitions_read),
            partitions_pruned: self.partitions_pruned.saturating_sub(base.partitions_pruned),
            peak_state_bytes: self.peak_state_bytes,
            spills: self.spills.saturating_sub(base.spills),
            retries: self.retries.saturating_sub(base.retries),
            faults_injected: self.faults_injected.saturating_sub(base.faults_injected),
            fallbacks: self.fallbacks.saturating_sub(base.fallbacks),
            morsels_executed: self.morsels_executed.saturating_sub(base.morsels_executed),
            rows_filtered_vectorized: self
                .rows_filtered_vectorized
                .saturating_sub(base.rows_filtered_vectorized),
            pipelines_compiled: self.pipelines_compiled.saturating_sub(base.pipelines_compiled),
            batches_elided: self.batches_elided.saturating_sub(base.batches_elided),
            rows_evaluated_vectorized: self
                .rows_evaluated_vectorized
                .saturating_sub(base.rows_evaluated_vectorized),
            parallel_cpu_nanos: self.parallel_cpu_nanos.saturating_sub(base.parallel_cpu_nanos),
            parallel_wall_nanos: self
                .parallel_wall_nanos
                .saturating_sub(base.parallel_wall_nanos),
            reuse_cache_hits: self.reuse_cache_hits.saturating_sub(base.reuse_cache_hits),
            reuse_cache_evictions: self
                .reuse_cache_evictions
                .saturating_sub(base.reuse_cache_evictions),
            reuse_cache_refreshes: self
                .reuse_cache_refreshes
                .saturating_sub(base.reuse_cache_refreshes),
            subsumption_hits: self.subsumption_hits.saturating_sub(base.subsumption_hits),
            shared_subplans_executed: self
                .shared_subplans_executed
                .saturating_sub(base.shared_subplans_executed),
            queries_batched: self.queries_batched.saturating_sub(base.queries_batched),
            batch_query_failures: self
                .batch_query_failures
                .saturating_sub(base.batch_query_failures),
            shared_group_failures: self
                .shared_group_failures
                .saturating_sub(base.shared_group_failures),
            consumers_detached: self.consumers_detached.saturating_sub(base.consumers_detached),
            cache_poison_evictions: self
                .cache_poison_evictions
                .saturating_sub(base.cache_poison_evictions),
            circuit_breaker_trips: self
                .circuit_breaker_trips
                .saturating_sub(base.circuit_breaker_trips),
            reuse_certificates_issued: self
                .reuse_certificates_issued
                .saturating_sub(base.reuse_certificates_issued),
            reuse_certificates_rejected: self
                .reuse_certificates_rejected
                .saturating_sub(base.reuse_certificates_rejected),
            queries_admitted: self.queries_admitted.saturating_sub(base.queries_admitted),
            queries_rejected: self.queries_rejected.saturating_sub(base.queries_rejected),
            windows_dispatched: self
                .windows_dispatched
                .saturating_sub(base.windows_dispatched),
            window_occupancy: self.window_occupancy.saturating_sub(base.window_occupancy),
            queue_wait_nanos: self.queue_wait_nanos.saturating_sub(base.queue_wait_nanos),
            // Like `peak_state_bytes`, a high-water mark: keep the later
            // snapshot's value rather than subtracting.
            queue_wait_nanos_max: self.queue_wait_nanos_max,
            queries_coalesced_shared: self
                .queries_coalesced_shared
                .saturating_sub(base.queries_coalesced_shared),
        }
    }

    /// Accumulate another snapshot into this one: additive counters sum,
    /// high-water marks (`peak_state_bytes`, `queue_wait_nanos_max`) take
    /// the max. Used by the multi-tenant service to roll each tenant's
    /// per-window *deltas* into that tenant's own cumulative snapshot —
    /// never mixing in another tenant's share of the shared batch sink.
    pub fn absorb(&mut self, delta: &MetricsSnapshot) {
        let merged_peak = self.peak_state_bytes.max(delta.peak_state_bytes);
        let merged_wait_max = self.queue_wait_nanos_max.max(delta.queue_wait_nanos_max);
        macro_rules! add {
            ($($field:ident),* $(,)?) => {
                $(self.$field = self.$field.saturating_add(delta.$field);)*
            };
        }
        add!(
            bytes_scanned,
            rows_scanned,
            rows_produced,
            partitions_read,
            partitions_pruned,
            spills,
            retries,
            faults_injected,
            fallbacks,
            morsels_executed,
            rows_filtered_vectorized,
            pipelines_compiled,
            batches_elided,
            rows_evaluated_vectorized,
            parallel_cpu_nanos,
            parallel_wall_nanos,
            reuse_cache_hits,
            reuse_cache_evictions,
            reuse_cache_refreshes,
            subsumption_hits,
            shared_subplans_executed,
            queries_batched,
            batch_query_failures,
            shared_group_failures,
            consumers_detached,
            cache_poison_evictions,
            circuit_breaker_trips,
            reuse_certificates_issued,
            reuse_certificates_rejected,
            queries_admitted,
            queries_rejected,
            windows_dispatched,
            window_occupancy,
            queue_wait_nanos,
            queries_coalesced_shared,
        );
        self.peak_state_bytes = merged_peak;
        self.queue_wait_nanos_max = merged_wait_max;
    }
}

/// RAII guard for reserved operator state.
///
/// [`StateReservation::new`] creates an *unenforced* reservation: it
/// meters state (peaks and soft-budget spill counting) but never fails.
/// [`StateReservation::with_enforced_budget`] admission-checks the
/// initial bytes against an enforced budget — and, crucially,
/// [`StateReservation::grow`] re-checks the same budget, so a mid-query
/// growth past it raises [`FusionError::ResourceExhausted`] instead of
/// silently overshooting the high-water mark.
pub struct StateReservation {
    metrics: Arc<ExecMetrics>,
    bytes: i64,
    enforced_budget: Option<usize>,
}

impl StateReservation {
    pub fn new(metrics: Arc<ExecMetrics>, bytes: i64) -> Self {
        metrics.reserve_state(bytes);
        StateReservation {
            metrics,
            bytes,
            enforced_budget: None,
        }
    }

    /// A reservation whose initial bytes *and every later growth* are
    /// checked against `budget` bytes of total reserved state.
    pub fn with_enforced_budget(
        metrics: Arc<ExecMetrics>,
        bytes: i64,
        budget: usize,
    ) -> Result<Self> {
        check_enforced(&metrics, bytes, Some(budget))?;
        metrics.reserve_state(bytes);
        Ok(StateReservation {
            metrics,
            bytes,
            enforced_budget: Some(budget),
        })
    }

    /// Grow the reservation by `more` bytes, applying the same enforced
    /// budget check as construction. A failed grow leaves the
    /// reservation unchanged.
    pub fn grow(&mut self, more: i64) -> Result<()> {
        check_enforced(&self.metrics, more, self.enforced_budget)?;
        self.metrics.reserve_state(more);
        self.bytes += more;
        Ok(())
    }
}

fn check_enforced(metrics: &ExecMetrics, more: i64, budget: Option<usize>) -> Result<()> {
    if let Some(budget) = budget {
        let requested =
            metrics.current_state_bytes().saturating_add(more.max(0) as u64) as usize;
        if requested > budget {
            return Err(FusionError::ResourceExhausted { budget, requested });
        }
    }
    Ok(())
}

impl Drop for StateReservation {
    fn drop(&mut self) {
        self.metrics.release_state(self.bytes);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ExecMetrics::new();
        m.add_bytes_scanned(100);
        m.add_bytes_scanned(50);
        m.add_rows_scanned(7);
        assert_eq!(m.bytes_scanned(), 150);
        assert_eq!(m.rows_scanned(), 7);
    }

    #[test]
    fn peak_state_tracks_high_water_mark() {
        let m = ExecMetrics::new();
        {
            let _a = StateReservation::new(m.clone(), 100);
            {
                let _b = StateReservation::new(m.clone(), 200);
                assert_eq!(m.peak_state_bytes(), 300);
            }
            // b released, peak stays.
            assert_eq!(m.peak_state_bytes(), 300);
        }
        assert_eq!(m.peak_state_bytes(), 300);
        let _c = StateReservation::new(m.clone(), 50);
        assert_eq!(m.peak_state_bytes(), 300);
    }

    #[test]
    fn budget_crossings_count_spills() {
        let m = ExecMetrics::with_budget(150);
        {
            let _a = StateReservation::new(m.clone(), 100); // under budget
            assert_eq!(m.spills(), 0);
            let _b = StateReservation::new(m.clone(), 100); // crosses: spill
            assert_eq!(m.spills(), 1);
            let _c = StateReservation::new(m.clone(), 10); // already over
            assert_eq!(m.spills(), 1);
        }
        // Dropping back under and crossing again counts a second spill.
        let _d = StateReservation::new(m.clone(), 200);
        assert_eq!(m.spills(), 2);
    }

    #[test]
    fn reservation_can_grow() {
        let m = ExecMetrics::new();
        let mut r = StateReservation::new(m.clone(), 10);
        r.grow(90).unwrap();
        assert_eq!(m.peak_state_bytes(), 100);
        drop(r);
        let snap = m.snapshot();
        assert_eq!(snap.peak_state_bytes, 100);
    }

    #[test]
    fn enforced_grow_raises_resource_exhausted() {
        let m = ExecMetrics::new();
        let mut r = StateReservation::with_enforced_budget(m.clone(), 60, 100).unwrap();
        match r.grow(60) {
            Err(FusionError::ResourceExhausted { budget, requested }) => {
                assert_eq!(budget, 100);
                assert_eq!(requested, 120);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // The failed grow must not move the high-water mark past the
        // budget — the bug was exactly that silent overshoot.
        assert_eq!(m.peak_state_bytes(), 60);
        r.grow(40).unwrap();
        assert_eq!(m.peak_state_bytes(), 100);
    }

    #[test]
    fn delta_since_subtracts_additive_counters_and_keeps_peak() {
        let m = ExecMetrics::new();
        m.add_bytes_scanned(100);
        m.add_retry();
        m.reserve_state(500);
        let base = m.snapshot();
        m.add_bytes_scanned(40);
        m.add_consumer_detached();
        let delta = m.snapshot().delta_since(&base);
        assert_eq!(delta.bytes_scanned, 40);
        assert_eq!(delta.retries, 0);
        assert_eq!(delta.consumers_detached, 1);
        // Peak is a high-water mark: the later snapshot's value survives.
        assert_eq!(delta.peak_state_bytes, 500);
        // A stale (larger) base never underflows.
        let zero = base.delta_since(&m.snapshot());
        assert_eq!(zero.bytes_scanned, 0);
    }

    #[test]
    fn enforced_new_rejects_over_budget() {
        let m = ExecMetrics::new();
        assert!(matches!(
            StateReservation::with_enforced_budget(m, 200, 100),
            Err(FusionError::ResourceExhausted { .. })
        ));
    }
}
