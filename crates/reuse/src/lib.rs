//! Workload-level computation reuse for the athena-fusion engine.
//!
//! The paper's `Fuse` primitive eliminates duplicate work *within* one
//! query. This crate lifts the same machinery *across* queries — the
//! workload dimension Athena's CSE motivation ultimately points at:
//! dashboards and reporting workloads re-submit near-identical subplans
//! constantly, so computing a shared subplan once and dispatching each
//! consumer through its compensating filter and mapping multiplies the
//! payoff of fusion by the number of consumers.
//!
//! Three layers:
//!
//! 1. [`fingerprint`] — canonical plan serialization and stable 64-bit
//!    fingerprints: alias-insensitive, instance-insensitive, and
//!    order-insensitive exactly where relational semantics are; plus
//!    [`fingerprint::match_subplans`], which classifies a pair of
//!    subplans as equivalent / subsuming / fusable / distinct.
//! 2. [`workload`] — the cross-query optimizer: enumerate shareable
//!    subplans across a batch, group them by fingerprint (exact groups)
//!    or by folding `Fuse` over shape-compatible near-matches (fused
//!    groups), execute each shared plan once, and splice every consumer
//!    as `Project_M(Filter_C(leaf))`, the leaf reading the one shared
//!    result in place. Every shared plan and every spliced consumer is
//!    re-checked by the semantic plan analyzer; failures revert to
//!    unshared execution.
//! 3. [`cache`] — an LRU shared-subplan result cache keyed by
//!    fingerprint, with catalog-version invalidation, budget-backed
//!    memory accounting, and frequency-gated admission.
//!
//! [`ReuseManager`] bundles the three behind one thread-safe facade the
//! engine session owns.

pub mod breaker;
pub mod cache;
pub mod fingerprint;
pub mod workload;

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use fusion_common::IdGen;
use fusion_exec::{Catalog, ExecContext, ExecMetrics};
use fusion_plan::LogicalPlan;

pub use breaker::FailureBreaker;
pub use cache::{rows_checksum, CachedRows, DepStamps, MaintainShape, ReuseCache, ReuseCacheConfig};
pub use fingerprint::{
    canonical_form, fingerprint, match_subplans, Canon, CanonicalForm, Fingerprint, SubplanMatch,
};
pub use workload::{GroupReport, OptimizeFn, WorkloadOutcome, WorkloadReport};

/// Combined configuration for workload reuse.
#[derive(Debug, Clone, Default)]
pub struct ReuseConfig {
    pub cache: ReuseCacheConfig,
}

/// Thread-safe facade over the workload optimizer, the shared-subplan
/// cache, and the per-fingerprint circuit breaker. One per engine
/// session.
pub struct ReuseManager {
    cfg: ReuseConfig,
    cache: Mutex<ReuseCache>,
    breaker: Mutex<FailureBreaker>,
}

impl ReuseManager {
    pub fn new(cfg: ReuseConfig) -> Self {
        let cache = Mutex::new(ReuseCache::new(cfg.cache.clone()));
        let breaker = Mutex::new(FailureBreaker::default());
        ReuseManager {
            cfg,
            cache,
            breaker,
        }
    }

    /// Plan a batch of queries for shared execution. See
    /// [`workload::plan_workload`], which takes the plans by value: a
    /// borrowed batch is copied once, an owned one not at all.
    pub fn plan_batch<'b>(
        &self,
        plans: impl Into<Cow<'b, [LogicalPlan]>>,
        catalog: &Catalog,
        ctx: &Arc<ExecContext>,
        gen: &IdGen,
        metrics: &ExecMetrics,
        optimize: Option<workload::OptimizeFn<'_>>,
    ) -> WorkloadOutcome {
        let plans = plans.into().into_owned();
        match (self.cache.lock(), self.breaker.lock()) {
            (Ok(mut cache), Ok(mut breaker)) => workload::plan_workload(
                &mut cache,
                &mut breaker,
                plans,
                catalog,
                ctx,
                gen,
                metrics,
                optimize,
            ),
            _ => WorkloadOutcome::unshared(plans),
        }
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().map(|c| c.len()).unwrap_or(0)
    }

    /// Dependency stamps of every live cache entry (tests/diagnostics):
    /// each inner vector is one entry's `(table, version)` pairs.
    pub fn cache_entry_deps(&self) -> Vec<Vec<(String, u64)>> {
        self.cache.lock().map(|c| c.entry_deps()).unwrap_or_default()
    }

    /// Drop all cached results, observation counts, and breaker state.
    pub fn clear_cache(&self) {
        if let Ok(mut c) = self.cache.lock() {
            c.clear();
        }
        if let Ok(mut b) = self.breaker.lock() {
            b.clear();
        }
    }

    pub fn config(&self) -> &ReuseConfig {
        &self.cfg
    }
}

impl Default for ReuseManager {
    fn default() -> Self {
        ReuseManager::new(ReuseConfig::default())
    }
}
