//! Execution metrics.
//!
//! Every counter is declared once, in the `counters!` table below (name,
//! merge kind, optional adder). The table generates the [`ExecMetrics`]
//! atomics, adders and snapshot, the [`MetricsSnapshot`] fields,
//! `delta_since` and `absorb`. A new counter is one table line.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use fusion_common::{FusionError, Result};

/// Merge kinds: a `sum` delta subtracts (saturating: a torn base never underflows)
/// and absorbing adds; a `max` (high-water mark) delta keeps the later value and
/// absorbing takes the max.
macro_rules! merge {
    (sum, delta, $later:expr, $base:expr) => { $later.saturating_sub($base) };
    (sum, absorb, $acc:expr, $more:expr) => { $acc.saturating_add($more) };
    (max, delta, $later:expr, $base:expr) => { $later };
    (max, absorb, $acc:expr, $more:expr) => { $acc.max($more) };
}

/// An adder's increment: one, or its argument.
macro_rules! amount {
    () => { 1 };
    ($n:ident) => { $n };
}

/// The counter table: `name: kind => adder(arg);`, where `kind` is `sum` or
/// `max` and the adder, which counts one or adds its argument, is optional.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $kind:ident $(=> $adder:ident($($n:ident)?))?;)*) => {
        /// Shared, thread-safe execution metrics: one relaxed atomic per
        /// declared counter, plus the operator state reserved right now.
        #[derive(Debug, Default)]
        pub struct ExecMetrics {
            $($name: AtomicU64,)*
            current_state_bytes: AtomicI64,
            /// Working-memory budget in bytes (0 = unlimited). Crossing it while
            /// reserving state counts a simulated spill — the §V.C observation
            /// that duplicated common subexpressions push the engine into spilling.
            memory_budget: AtomicI64,
        }

        impl ExecMetrics {
            $($(
                pub fn $adder(&self $(, $n: u64)?) {
                    self.$name.fetch_add(amount!($($n)?), Ordering::Relaxed);
                }
            )?)*

            /// Snapshot for reporting. Each counter loads on its own (`Relaxed`),
            /// so a snapshot taken while workers run is not a consistent cut (it
            /// can see more rows produced than scanned). The engine snapshots at
            /// query completion, after every morsel worker was joined; mid-flight
            /// snapshots suit progress displays, not invariant checks.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        /// A point-in-time copy of the metrics, for reports and assertions
        /// (see [`ExecMetrics::snapshot`] for when its fields agree).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl MetricsSnapshot {
            /// Everything this snapshot accumulated since `base` was taken on
            /// the same sink. `Session::run_batch` charges each query its
            /// delta, so an earlier query's partial work (it failed partway)
            /// is never charged to whichever query completed next.
            pub fn delta_since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: merge!($kind, delta, self.$name, base.$name),)*
                }
            }

            /// Accumulate another snapshot into this one: the service rolls each
            /// tenant's per-window *deltas* into that tenant's own snapshot.
            pub fn absorb(&mut self, delta: &MetricsSnapshot) {
                $(self.$name = merge!($kind, absorb, self.$name, delta.$name);)*
            }
        }
    };
}

counters! {
    /// The paper's billing metric ("Athena charges a fixed amount per TB
    /// scanned"): the encoded size of the columns every scan reads, after
    /// partition and column pruning. Fig. 2 is its optimized/baseline ratio.
    bytes_scanned: sum => add_bytes_scanned(bytes);
    rows_scanned: sum => add_rows_scanned(rows);
    rows_produced: sum => add_rows_produced(rows);
    partitions_read: sum;
    partitions_pruned: sum;
    /// High-water mark of materialized operator state (hash tables, sort
    /// buffers); Section V.C observes that removing a duplicated common
    /// subexpression halves it and avoids spilling.
    peak_state_bytes: max;
    /// Simulated spill count: crossings of the working-memory budget while
    /// reserving state (see [`ExecMetrics::with_budget`]).
    spills: sum;
    /// Scan read attempts that were retried after a transient failure.
    retries: sum => add_retry();
    /// Faults the [`crate::fault::FaultPolicy`] injected (transient or
    /// fatal), whether or not a retry later succeeded.
    faults_injected: sum => add_fault_injected();
    /// Times the engine degraded a fused plan back to the unfused
    /// baseline after an execution or validation failure.
    fallbacks: sum => add_fallback();
    /// Partition-granular morsels claimed and processed by parallel
    /// workers (pruned morsels included — this counts scheduling units,
    /// not reads).
    morsels_executed: sum => add_morsel();
    /// Rows rejected by the vectorized (columnar) predicate pass before
    /// row materialization.
    rows_filtered_vectorized: sum => add_rows_filtered_vectorized(rows);
    // Push-based pipeline counters (see `DESIGN.md` §14).
    /// Scan→filter→project(→agg) chains compiled into push-based
    /// [`crate::pipeline::FusedPipeline`] operators.
    pipelines_compiled: sum => add_pipeline_compiled();
    /// Hash-join probes compiled as a stage of such a pipeline.
    probe_stages: sum => add_probe_stage();
    /// Intermediate row batches a fused pipeline never materialized — the
    /// chunks the pull-based operator chain would have allocated and
    /// copied at each elided operator boundary.
    batches_elided: sum => add_batches_elided(batches);
    /// Rows evaluated through the columnar expression kernels
    /// (`fusion_expr::vector`) instead of the row-at-a-time evaluator.
    rows_evaluated_vectorized: sum => add_rows_evaluated_vectorized(rows);
    /// Sum of per-worker busy time across all parallel stages.
    parallel_cpu_nanos: sum => add_parallel_cpu_nanos(nanos);
    /// Wall-clock time spent inside parallel stages (spawn to last join).
    /// CPU over wall is the effective parallelism achieved.
    parallel_wall_nanos: sum => add_parallel_wall_nanos(nanos);
    // Workload-reuse counters (see the `fusion-reuse` crate).
    /// Consumer splices served from the shared-subplan result cache
    /// (each avoided re-execution of a cached subplan counts once).
    reuse_cache_hits: sum => add_reuse_cache_hit();
    /// Entries removed from the shared-subplan cache, whether displaced
    /// by the LRU budget or invalidated by a table-version bump.
    reuse_cache_evictions: sum => add_reuse_cache_eviction();
    /// Cached subplan results refreshed in place after a pure append to a
    /// dependency table: the delta was executed (or merged) instead of
    /// evicting the entry and recomputing from scratch.
    reuse_cache_refreshes: sum => add_reuse_cache_refresh();
    /// Consumer splices served from a cached result whose subplan strictly
    /// subsumes the consumer's (a compensating filter over the cached rows
    /// recovers the exact answer).
    subsumption_hits: sum => add_subsumption_hit();
    /// Shared subplans the workload optimizer executed once on behalf of
    /// two or more consuming queries (cache hits do not count — nothing
    /// executed).
    shared_subplans_executed: sum => add_shared_subplan_executed();
    /// Queries that ran in a window: every slot of a `Session::run_batch`
    /// or service window, and every lone `Session::sql` (a window of one).
    queries_batched: sum => add_queries_batched(n);
    // Blast-radius isolation counters (see `DESIGN.md` §13).
    /// Queries in a batch that finished with a typed error in their
    /// `BatchResult` slot while the rest of the batch completed (per-query
    /// fault domains).
    batch_query_failures: sum => add_batch_query_failure();
    /// Shared-group executions that failed permanently (after retrying) and
    /// forced their consumers to detach and run unshared.
    shared_group_failures: sum => add_shared_group_failure();
    /// Consumers that detached from a shared group — because the group's
    /// one-shot execution failed or their own splice could not be applied —
    /// and re-executed independently from their un-spliced originals.
    consumers_detached: sum => add_consumer_detached();
    /// Cache entries evicted because their row-content checksum no longer
    /// matched at lookup (a poisoned entry was caught before serving).
    cache_poison_evictions: sum => add_cache_poison_eviction();
    /// Per-fingerprint circuit breakers that transitioned to open after
    /// repeated shared-execution failures.
    circuit_breaker_trips: sum => add_circuit_breaker_trip();
    // Reuse-soundness prover counters (see `DESIGN.md` §16).
    /// Reuse-layer rewrites (splices, subsumption serves, incremental
    /// refreshes) granted a soundness certificate before serving rows.
    reuse_certificates_issued: sum => add_reuse_certificate_issued();
    /// Reuse-layer rewrites refused a certificate; the rewrite reverted to
    /// cold execution (detach, evict-and-recompute) with a typed reason.
    reuse_certificates_rejected: sum => add_reuse_certificate_rejected();
    // Multi-tenant service counters (see `DESIGN.md` §17).
    /// Queries the multi-tenant service accepted into its admission queue.
    queries_admitted: sum => add_query_admitted();
    /// Queries the service refused at admission (tenant queue depth,
    /// in-flight cap, or memory budget exhausted) with a typed
    /// `FUSION_ADMISSION_REJECTED` error.
    queries_rejected: sum => add_query_rejected();
    /// Batch windows the service dispatcher executed, and the queries packed
    /// into them (their quotient is the mean window occupancy).
    windows_dispatched: sum;
    window_occupancy: sum;
    /// Total time queries spent parked in the admission queue before
    /// their window was dispatched, and the longest single wait.
    queue_wait_nanos: sum;
    queue_wait_nanos_max: max;
    /// Queries whose window execution served them through a shared group
    /// or cache splice — the coalescing payoff the service exists for.
    queries_coalesced_shared: sum => add_query_coalesced_shared();
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

    pub fn add_partitions(&self, read: u64, pruned: u64) {
        self.partitions_read.fetch_add(read, Ordering::Relaxed);
        self.partitions_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Record `bytes` of newly materialized operator state; updates the
    /// high-water mark. Pair with [`ExecMetrics::release_state`].
    pub fn reserve_state(&self, bytes: i64) {
        let prev = self.current_state_bytes.fetch_add(bytes, Ordering::Relaxed);
        let cur = prev + bytes;
        self.peak_state_bytes.fetch_max(cur.max(0) as u64, Ordering::Relaxed);
        let budget = self.memory_budget.load(Ordering::Relaxed);
        if budget > 0 && cur > budget && prev <= budget {
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn release_state(&self, bytes: i64) {
        self.current_state_bytes.fetch_sub(bytes, Ordering::Relaxed);
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

    /// The *currently* reserved operator state (not the peak), clamped at
    /// zero. Used for enforced-budget admission checks.
    pub fn current_state_bytes(&self) -> u64 {
        self.current_state_bytes.load(Ordering::Relaxed).max(0) as u64
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
        let mut r = StateReservation {
            metrics,
            bytes: 0,
            enforced_budget: Some(budget),
        };
        r.grow(bytes)?;
        Ok(r)
    }

    /// Grow the reservation by `more` bytes, applying the same enforced
    /// budget check as construction. A failed grow leaves the
    /// reservation unchanged.
    pub fn grow(&mut self, more: i64) -> Result<()> {
        if let Some(budget) = self.enforced_budget {
            let current = self.metrics.current_state_bytes();
            let requested = current.saturating_add(more.max(0) as u64) as usize;
            if requested > budget {
                return Err(FusionError::ResourceExhausted { budget, requested });
            }
        }
        self.metrics.reserve_state(more);
        self.bytes += more;
        Ok(())
    }
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
        assert_eq!((m.snapshot().bytes_scanned, m.snapshot().rows_scanned), (150, 7));
    }

    #[test]
    fn peak_state_tracks_high_water_mark() {
        let m = ExecMetrics::new();
        {
            let _a = StateReservation::new(m.clone(), 100);
            {
                let _b = StateReservation::new(m.clone(), 200);
                assert_eq!(m.snapshot().peak_state_bytes, 300);
            }
            // b released, peak stays.
            assert_eq!(m.snapshot().peak_state_bytes, 300);
        }
        assert_eq!(m.snapshot().peak_state_bytes, 300);
        let _c = StateReservation::new(m.clone(), 50);
        assert_eq!(m.snapshot().peak_state_bytes, 300);
    }

    #[test]
    fn budget_crossings_count_spills() {
        let m = ExecMetrics::with_budget(150);
        {
            let _a = StateReservation::new(m.clone(), 100); // under budget
            assert_eq!(m.snapshot().spills, 0);
            let _b = StateReservation::new(m.clone(), 100); // crosses: spill
            assert_eq!(m.snapshot().spills, 1);
            let _c = StateReservation::new(m.clone(), 10); // already over
            assert_eq!(m.snapshot().spills, 1);
        }
        // Dropping back under and crossing again counts a second spill.
        let _d = StateReservation::new(m.clone(), 200);
        assert_eq!(m.snapshot().spills, 2);
    }

    #[test]
    fn reservation_can_grow() {
        let m = ExecMetrics::new();
        let mut r = StateReservation::new(m.clone(), 10);
        r.grow(90).unwrap();
        drop(r);
        assert_eq!(m.snapshot().peak_state_bytes, 100);
    }

    #[test]
    fn enforced_grow_raises_resource_exhausted() {
        let m = ExecMetrics::new();
        let mut r = StateReservation::with_enforced_budget(m.clone(), 60, 100).unwrap();
        let want = FusionError::ResourceExhausted { budget: 100, requested: 120 };
        assert_eq!(r.grow(60), Err(want));
        // The failed grow must not move the high-water mark past the
        // budget — the bug was exactly that silent overshoot.
        assert_eq!(m.snapshot().peak_state_bytes, 60);
        r.grow(40).unwrap();
        assert_eq!(m.snapshot().peak_state_bytes, 100);
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
        let counts = (delta.bytes_scanned, delta.retries, delta.consumers_detached);
        assert_eq!(counts, (40, 0, 1));
        // Peak is a high-water mark: the later snapshot's value survives.
        assert_eq!(delta.peak_state_bytes, 500);
        // A stale (larger) base never underflows.
        let zero = base.delta_since(&m.snapshot());
        assert_eq!(zero.bytes_scanned, 0);
    }

    #[test]
    fn absorb_inverts_delta_and_maxes_high_water_marks() {
        let m = ExecMetrics::new();
        m.add_bytes_scanned(100);
        m.add_queue_wait_nanos(70);
        drop(StateReservation::new(m.clone(), 500));
        let mut base = m.snapshot();
        m.add_bytes_scanned(40);
        m.add_queue_wait_nanos(90);
        m.reserve_state(800);
        let later = m.snapshot();
        let mut rolled = base;
        rolled.absorb(&later.delta_since(&base));
        assert_eq!(rolled, later);
        // Another share: the sum adds, the high-water marks take the max.
        let other = MetricsSnapshot {
            bytes_scanned: 5,
            queue_wait_nanos_max: 30,
            peak_state_bytes: 200,
            ..MetricsSnapshot::default()
        };
        base.absorb(&other);
        let got = (base.bytes_scanned, base.queue_wait_nanos_max, base.peak_state_bytes);
        assert_eq!(got, (105, 70, 500));
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
