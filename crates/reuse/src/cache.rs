//! Shared-subplan result cache — layer 3 of workload reuse.
//!
//! An LRU cache of materialized subplan results keyed by
//! [`Fingerprint`]. Entries remember which base tables (and which
//! catalog *versions* of them) they were computed from, so re-registering
//! a table invalidates every dependent entry at its next lookup.
//!
//! Memory is accounted through the executor's budget machinery: the cache
//! owns an [`ExecContext`] whose hard budget is the configured
//! `max_bytes`, and every entry holds a [`BudgetedReservation`] against
//! it. When an admission would overflow the budget, least-recently-used
//! entries are evicted until the reservation fits (or the cache is empty
//! and the candidate is simply not admitted).
//!
//! Admission is gated on a reuse-frequency heuristic: a fingerprint must
//! have been *observed* at least `admit_min_uses` times. Observations are
//! counted per **successfully served consumer** — a consumer only counts
//! once the shared execution completed, validated, and its splice passed
//! the analyzer — so failed executions and reverted splices never push a
//! fingerprint toward admission. A subplan cleanly shared by two queries
//! still qualifies immediately with the default of 2.
//!
//! Poisoning defenses: a result is only admitted after its execution
//! finished completely and validated (admission happens strictly after
//! the executor returned and never mid-flight), every entry stores an
//! FNV-1a checksum of its row contents computed at admission, and every
//! hit re-verifies that checksum — a mismatch (bit rot, a chaos-injected
//! corruption, any writer bypassing admission) evicts the entry and
//! reports a miss, so a poisoned entry is never served.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use fusion_common::Value;
use fusion_core::analysis::{certify_maintainability, render_violations, ReuseCertificate};
use fusion_exec::ops::agg::Acc;
use fusion_exec::{
    execute_plan_profiled, BudgetedReservation, Catalog, ExecContext, ExecMetrics, Row,
};
use fusion_expr::AggFunc;
use fusion_plan::LogicalPlan;

use crate::fingerprint::Fingerprint;

pub use fusion_common::rows_checksum;
pub use fusion_core::analysis::MaintainShape;

/// Configuration for the shared-subplan cache.
#[derive(Debug, Clone)]
pub struct ReuseCacheConfig {
    /// Total bytes of cached rows, enforced via [`BudgetedReservation`].
    pub max_bytes: usize,
    /// Per-entry row ceiling: results larger than this are never admitted.
    pub max_entry_rows: usize,
    /// Minimum observation count before a fingerprint is cache-worthy.
    pub admit_min_uses: u64,
}

impl Default for ReuseCacheConfig {
    fn default() -> Self {
        ReuseCacheConfig {
            max_bytes: 64 << 20,
            max_entry_rows: 1 << 20,
            admit_min_uses: 2,
        }
    }
}

/// A cache hit: shared rows plus the canonical slot strings describing
/// their column layout (see [`crate::fingerprint::CanonicalForm::slots`]).
#[derive(Debug, Clone)]
pub struct CachedRows {
    pub rows: Arc<Vec<Row>>,
    /// [`rows_checksum`] of `rows`, verified against them on this hit.
    pub checksum: u64,
    pub slots: Vec<String>,
    /// When this hit was served by an in-place append refresh: the number
    /// of delta rows that were executed (and appended or merged) to bring
    /// the entry current. `None` for plain warm hits.
    pub refreshed_delta_rows: Option<usize>,
}

struct Entry {
    encoding: String,
    rows: Arc<Vec<Row>>,
    slots: Vec<String>,
    /// The shared subplan whose execution produced `rows` (in the layout
    /// described by `slots`). Kept so a stale entry can be *refreshed*
    /// in place by re-running the plan over only an append's delta
    /// partitions, and so subsumption lookups can match a consumer
    /// against resident supersets.
    plan: Arc<LogicalPlan>,
    /// Canonical `(table, catalog version at execution time)` stamps for
    /// every base table the cached subplan read.
    deps: DepStamps,
    /// FNV-1a checksum of `rows` at admission time; re-verified on every
    /// hit so corrupted contents are evicted instead of served.
    checksum: u64,
    last_used: u64,
    /// Holds the entry's bytes against the cache budget; dropping the
    /// entry releases them. Replaced when a refresh changes the entry's
    /// size.
    reservation: BudgetedReservation,
}

/// Canonical dependency stamps: `(table, catalog version)` pairs in
/// strictly ascending table order, lowercased to the catalog's casing,
/// exactly one stamp per table. The single constructor canonicalizes, so
/// a non-canonical stamp vector — the PR-8 class of bug where interleaved
/// or mixed-case scans produced duplicate stamps that could never all
/// match the version map — is unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepStamps(Vec<(String, u64)>);

impl DepStamps {
    /// Canonicalize raw stamps: lowercase every table name, sort, and
    /// dedup (sort *before* dedup so multi-cased references to the same
    /// table collapse to one stamp).
    pub fn new(mut deps: Vec<(String, u64)>) -> Self {
        for (t, _) in &mut deps {
            *t = t.to_ascii_lowercase();
        }
        deps.sort();
        deps.dedup();
        debug_assert!(
            deps.windows(2).all(|w| w[0].0 < w[1].0),
            "canonical dep stamps must be strictly ascending by table: {deps:?}"
        );
        DepStamps(deps)
    }

    /// Stamp a plan against the current catalog versions: one stamp per
    /// scanned base table at its current version. `None` when the plan
    /// reads a table the version map does not know — an unversionable
    /// result must not be cached at all.
    pub fn for_plan(plan: &LogicalPlan, versions: &HashMap<String, u64>) -> Option<DepStamps> {
        let deps = plan
            .scanned_tables()
            .iter()
            .map(|t| {
                let key = t.to_ascii_lowercase();
                versions.get(&key).map(|v| (key.clone(), *v))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(DepStamps::new(deps))
    }

    pub fn as_slice(&self) -> &[(String, u64)] {
        &self.0
    }
}

/// Group-wise merge of cached aggregate rows with a delta partial:
/// existing groups combine value-by-value through the executor's own
/// [`Acc::merge`], new groups append, and the result is re-sorted by
/// group key — the executor's deterministic output order — so the merged
/// rows match a cold recompute exactly. `None` on any value a finished
/// accumulator cannot be rebuilt from (the caller falls back to
/// evict-and-recompute).
fn merge_aggregate_rows(
    cached: &[Row],
    delta: Vec<Row>,
    arity: usize,
    key_positions: &[usize],
    agg_positions: &[(usize, AggFunc)],
) -> Option<Vec<Row>> {
    let key = |row: &Row| -> Vec<Value> {
        key_positions.iter().map(|&p| row[p].clone()).collect()
    };
    let mut groups: BTreeMap<Vec<Value>, Row> = BTreeMap::new();
    for row in cached {
        if row.len() != arity {
            return None;
        }
        groups.insert(key(row), row.clone());
    }
    for row in delta {
        if row.len() != arity {
            return None;
        }
        match groups.entry(key(&row)) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let merged = e.get_mut();
                for &(pos, func) in agg_positions {
                    let mut acc = Acc::from_finished(func, &merged[pos])?;
                    acc.merge(&Acc::from_finished(func, &row[pos])?);
                    merged[pos] = acc.finish();
                }
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(row);
            }
        }
    }
    // BTreeMap iterates in ascending key order over the `group_by`-order
    // key — exactly the executor's `keys.sort()` over `Vec<Value>`,
    // preserved through any column-only projection on top.
    Some(groups.into_values().collect())
}

/// LRU shared-subplan result cache with version invalidation and
/// budget-backed admission.
pub struct ReuseCache {
    cfg: ReuseCacheConfig,
    /// Budget domain for reservations; the cache's own metrics sink, not
    /// the per-query one.
    ctx: Arc<ExecContext>,
    entries: HashMap<u64, Entry>,
    uses: HashMap<u64, u64>,
    clock: u64,
    /// Typed certificate rejections (e.g. a refresh refused because the
    /// cached shape is not maintainable) accumulated since the last
    /// drain; the workload layer folds them into its EXPLAIN notes.
    rejections: Vec<String>,
}

impl ReuseCache {
    pub fn new(cfg: ReuseCacheConfig) -> Self {
        let ctx = ExecContext::builder(ExecMetrics::new())
            .hard_budget(cfg.max_bytes)
            .build();
        ReuseCache {
            cfg,
            ctx,
            entries: HashMap::new(),
            uses: HashMap::new(),
            clock: 0,
            rejections: Vec::new(),
        }
    }

    /// Drain the typed certificate-rejection notes accumulated by lookups
    /// and refreshes since the last call.
    pub fn drain_rejections(&mut self) -> Vec<String> {
        std::mem::take(&mut self.rejections)
    }

    /// Record one observation of a fingerprint and return the cumulative
    /// count. Callers must only observe a *successfully served* consumer
    /// — after the shared execution completed and the consumer's spliced
    /// plan validated — so failed executions never count toward the
    /// `admit_min_uses` admission gate.
    pub fn observe(&mut self, fp: Fingerprint) -> u64 {
        let c = self.uses.entry(fp.0).or_insert(0);
        *c += 1;
        *c
    }

    /// Cumulative observation count for a fingerprint.
    pub fn uses(&self, fp: Fingerprint) -> u64 {
        self.uses.get(&fp.0).copied().unwrap_or(0)
    }

    /// Whether an entry for this encoding is resident, valid or not:
    /// group formation sends every such subplan to
    /// [`lookup`](Self::lookup), which serves it, refreshes it in place or
    /// evicts it (typed), never leaves a dead entry behind.
    pub fn contains(&self, fp: Fingerprint, encoding: &str) -> bool {
        self.entries.get(&fp.0).is_some_and(|e| e.encoding == encoding)
    }

    /// Look up a fingerprint. A stale entry (any dependency's catalog
    /// version moved) is *refreshed in place* when every moved dependency
    /// moved by pure appends and the subplan shape is maintainable —
    /// otherwise it is evicted on sight and counted on `metrics`. An
    /// encoding mismatch (64-bit collision) is treated as a miss; an
    /// entry whose row contents no longer match their admission checksum
    /// is *poisoned* — it is evicted (counted in both
    /// `cache_poison_evictions` and `reuse_cache_evictions`) and reported
    /// as a miss so the caller falls through to cold execution instead of
    /// serving wrong rows.
    pub fn lookup(
        &mut self,
        fp: Fingerprint,
        encoding: &str,
        catalog: &Catalog,
        versions: &HashMap<String, u64>,
        metrics: &ExecMetrics,
    ) -> Option<CachedRows> {
        let entry = self.entries.get(&fp.0)?;
        if entry.encoding != encoding {
            return None;
        }
        let stale = entry
            .deps
            .as_slice()
            .iter()
            .any(|(t, v)| versions.get(t).copied().unwrap_or(0) != *v);
        if stale {
            return self.refresh(fp, catalog, metrics);
        }
        if rows_checksum(&entry.rows) != entry.checksum {
            self.entries.remove(&fp.0);
            metrics.add_cache_poison_eviction();
            metrics.add_reuse_cache_eviction();
            return None;
        }
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&fp.0)?;
        entry.last_used = clock;
        Some(CachedRows {
            rows: Arc::clone(&entry.rows),
            checksum: entry.checksum,
            slots: entry.slots.clone(),
            refreshed_delta_rows: None,
        })
    }

    /// Serve a consumer from the first of `fps` still resident, in the
    /// order given: the entries whose subplans the caller's subsumption
    /// certificate found strictly subsuming the consumer (their rows are
    /// a superset recoverable through the consumer's own filter),
    /// ascending for determinism. Each goes through the full
    /// [`lookup`](Self::lookup) validation (staleness/refresh, checksum),
    /// so a stale-but-refreshable superset is refreshed before serving.
    /// Returns the hit together with the serving entry's fingerprint.
    pub fn lookup_subsuming(
        &mut self,
        fps: impl IntoIterator<Item = Fingerprint>,
        catalog: &Catalog,
        versions: &HashMap<String, u64>,
        metrics: &ExecMetrics,
    ) -> Option<(CachedRows, Fingerprint)> {
        for fp in fps {
            let Some(encoding) = self.entries.get(&fp.0).map(|e| e.encoding.clone()) else {
                continue; // evicted by an earlier candidate's refresh
            };
            if let Some(hit) = self.lookup(fp, &encoding, catalog, versions, metrics) {
                return Some((hit, fp));
            }
        }
        None
    }

    /// Every resident entry's fingerprint and plan, in ascending
    /// fingerprint order: what a window certifies subsumption serves
    /// against. The plans are shared with the entries, not copied.
    pub fn resident_plans(&self) -> Vec<(Fingerprint, Arc<LogicalPlan>)> {
        let mut resident: Vec<(Fingerprint, Arc<LogicalPlan>)> = self
            .entries
            .iter()
            .map(|(fp, e)| (Fingerprint(*fp), Arc::clone(&e.plan)))
            .collect();
        resident.sort_unstable_by_key(|(fp, _)| *fp);
        resident
    }

    /// Refresh a stale entry in place: execute its plan over only the
    /// delta partitions of its appended dependencies, fold the delta into
    /// the cached rows per the entry's [`MaintainShape`], and restamp
    /// checksum and dependency versions. Any failure — broken append
    /// lineage, non-maintainable shape, poisoned rows, delta execution
    /// error, budget overflow — evicts the entry (counted) and reports a
    /// miss, which is exactly the old evict-on-stale behavior.
    fn refresh(
        &mut self,
        fp: Fingerprint,
        catalog: &Catalog,
        metrics: &ExecMetrics,
    ) -> Option<CachedRows> {
        let entry = self.entries.remove(&fp.0)?;
        match self.refresh_entry(entry, catalog, metrics) {
            Ok((entry, delta_rows)) => {
                let hit = CachedRows {
                    rows: Arc::clone(&entry.rows),
                    checksum: entry.checksum,
                    slots: entry.slots.clone(),
                    refreshed_delta_rows: Some(delta_rows),
                };
                self.entries.insert(fp.0, entry);
                metrics.add_reuse_cache_refresh();
                Some(hit)
            }
            Err(poisoned) => {
                if poisoned {
                    metrics.add_cache_poison_eviction();
                }
                metrics.add_reuse_cache_eviction();
                None
            }
        }
    }

    /// The fallible core of [`refresh`](Self::refresh). `Err(poisoned)`
    /// means the entry must stay evicted; `poisoned` reports whether the
    /// failure was a checksum mismatch.
    fn refresh_entry(
        &mut self,
        entry: Entry,
        catalog: &Catalog,
        metrics: &ExecMetrics,
    ) -> Result<(Entry, usize), bool> {
        // The refresh only runs on a *certified* maintain shape, derived
        // from the stored plan by the reuse-soundness prover. A rejection
        // is the typed fallback to evict-and-recompute (always sound),
        // recorded for EXPLAIN and counted on the metrics.
        let shape = match certify_maintainability(&entry.plan) {
            Ok(ReuseCertificate::Maintain(shape)) => {
                metrics.add_reuse_certificate_issued();
                shape
            }
            Ok(_) => return Err(false),
            Err(v) => {
                metrics.add_reuse_certificate_rejected();
                self.rejections.push(format!(
                    "incremental refresh rejected ({}): {}",
                    entry.plan.op_name(),
                    render_violations(&v)
                ));
                return Err(false);
            }
        };
        // Verify integrity *before* building on the cached rows: merging
        // onto poisoned rows would launder the corruption into a freshly
        // restamped checksum.
        if rows_checksum(&entry.rows) != entry.checksum {
            return Err(true);
        }
        // Every dependency must have moved by pure appends (an empty
        // range for dependencies that did not move at all).
        let mut deltas: Vec<(String, std::ops::Range<usize>)> = Vec::new();
        let mut any_delta = false;
        for (t, v) in entry.deps.as_slice() {
            let range = catalog.delta_partitions_since(t, *v).ok_or(false)?;
            any_delta |= !range.is_empty();
            deltas.push((t.clone(), range));
        }
        if !any_delta {
            // Versions moved but no partitions did: lineage is
            // inconsistent with the version map; do not guess.
            return Err(false);
        }
        // Delta catalog: each dependency reduced to only its delta
        // partitions — empty for dependencies that did not move, so a
        // multi-table plan does not double-count their rows.
        let mut delta_catalog = Catalog::new();
        for (t, range) in &deltas {
            let full = catalog.get(t).map_err(|_| false)?;
            delta_catalog.register(full.with_partition_range(range.clone()));
        }
        let (output, _) = execute_plan_profiled(&entry.plan, &delta_catalog, &self.ctx)
            .map_err(|_| false)?;
        let delta_count = output.rows.len();

        let new_rows: Vec<Row> = match shape {
            MaintainShape::AppendRows => {
                let mut rows = entry.rows.as_ref().clone();
                rows.extend(output.rows);
                rows
            }
            MaintainShape::MergeAggregate {
                arity,
                key_positions,
                agg_positions,
            } => merge_aggregate_rows(
                &entry.rows,
                output.rows,
                arity,
                &key_positions,
                &agg_positions,
            )
            .ok_or(false)?,
        };

        if new_rows.len() > self.cfg.max_entry_rows {
            return Err(false);
        }
        let bytes: usize = new_rows
            .iter()
            .map(|r| r.iter().map(|v| v.encoded_size()).sum::<usize>())
            .sum::<usize>()
            .max(1);
        if bytes > self.cfg.max_bytes {
            return Err(false);
        }
        let Entry {
            encoding,
            slots,
            plan,
            reservation,
            ..
        } = entry;
        // Release the old reservation before sizing the new one: the
        // refreshed entry replaces the old, it does not stack on it.
        drop(reservation);
        let reservation = loop {
            match BudgetedReservation::try_new(Arc::clone(&self.ctx), bytes as i64) {
                Ok(r) => break r,
                Err(_) => {
                    if !self.evict_lru(metrics) {
                        return Err(false);
                    }
                }
            }
        };
        // Restamp: the refreshed rows are exactly what a cold run over
        // the current versions would produce. The constructor keeps the
        // stamps canonical.
        let deps = DepStamps::new(
            deltas
                .iter()
                .map(|(t, _)| (t.clone(), catalog.table_version(t)))
                .collect(),
        );
        self.clock += 1;
        let checksum = rows_checksum(&new_rows);
        Ok((
            Entry {
                encoding,
                rows: Arc::new(new_rows),
                slots,
                plan,
                deps,
                checksum,
                last_used: self.clock,
                reservation,
            },
            delta_count,
        ))
    }

    /// Try to admit a result. Returns `true` if the entry is (now)
    /// cached. Eviction of colder entries is counted on `metrics`.
    ///
    /// Callers must only admit **complete, validated** results: the
    /// shared execution finished (every operator drained, all workers
    /// joined) and the plan passed the semantic analyzer. A mid-flight or
    /// partial result admitted here would poison every future warm hit;
    /// the checksum computed below would faithfully certify the wrong
    /// rows.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        fp: Fingerprint,
        encoding: &str,
        rows: Arc<Vec<Row>>,
        slots: Vec<String>,
        plan: &LogicalPlan,
        deps: DepStamps,
        metrics: &ExecMetrics,
    ) -> bool {
        if self.uses(fp) < self.cfg.admit_min_uses {
            return false;
        }
        if let Some(e) = self.entries.get_mut(&fp.0) {
            if e.encoding == encoding {
                if rows_checksum(&e.rows) != e.checksum {
                    // The resident entry was poisoned since admission:
                    // evict it and fall through to re-admit the fresh,
                    // just-validated rows instead of refreshing the
                    // corrupt copy's LRU position.
                    self.entries.remove(&fp.0);
                    metrics.add_cache_poison_eviction();
                    metrics.add_reuse_cache_eviction();
                } else {
                    self.clock += 1;
                    e.last_used = self.clock;
                    return true;
                }
            } else {
                return false;
            }
        }
        if rows.len() > self.cfg.max_entry_rows {
            return false;
        }
        let bytes: usize = rows
            .iter()
            .map(|r| r.iter().map(|v| v.encoded_size()).sum::<usize>())
            .sum::<usize>()
            .max(1);
        if bytes > self.cfg.max_bytes {
            return false;
        }
        let reservation = loop {
            match BudgetedReservation::try_new(Arc::clone(&self.ctx), bytes as i64) {
                Ok(r) => break r,
                Err(_) => {
                    if !self.evict_lru(metrics) {
                        return false;
                    }
                }
            }
        };
        self.clock += 1;
        let checksum = rows_checksum(&rows);
        self.entries.insert(
            fp.0,
            Entry {
                encoding: encoding.to_string(),
                rows,
                slots,
                plan: Arc::new(plan.clone()),
                deps,
                checksum,
                last_used: self.clock,
                reservation,
            },
        );
        true
    }

    /// The dependency stamps of every resident entry, for tests asserting
    /// stamping invariants (exactly one dep per table, catalog-cased).
    pub fn entry_deps(&self) -> Vec<Vec<(String, u64)>> {
        self.entries
            .values()
            .map(|e| e.deps.as_slice().to_vec())
            .collect()
    }

    /// Corrupt a cached entry's rows *without* touching its checksum —
    /// the chaos-harness hook behind [`ReuseFaultSite::CacheCorrupt`][cc]
    /// (also usable directly in tests). Flips the first value of the
    /// first row, or appends a phantom row when the entry is empty; both
    /// mutations change [`rows_checksum`], so the next lookup detects the
    /// poison and evicts. Returns `false` when no such entry exists.
    ///
    /// [cc]: fusion_exec::ReuseFaultSite::CacheCorrupt
    pub fn corrupt_entry(&mut self, fp: Fingerprint) -> bool {
        let Some(entry) = self.entries.get_mut(&fp.0) else {
            return false;
        };
        let rows = Arc::make_mut(&mut entry.rows);
        match rows.first_mut().and_then(|r| r.first_mut()) {
            Some(v) => {
                *v = match v {
                    fusion_common::Value::Int64(n) => fusion_common::Value::Int64(!*n),
                    fusion_common::Value::Float64(f) => fusion_common::Value::Float64(-*f - 1.0),
                    fusion_common::Value::Boolean(b) => fusion_common::Value::Boolean(!*b),
                    fusion_common::Value::Utf8(s) => {
                        fusion_common::Value::Utf8(format!("{s}\u{0}corrupt"))
                    }
                    fusion_common::Value::Date(d) => fusion_common::Value::Date(!*d),
                    fusion_common::Value::Null => fusion_common::Value::Int64(0),
                };
            }
            None => rows.push(vec![fusion_common::Value::Null]),
        }
        true
    }

    /// Drop a resident entry (counted as an eviction) so that the result
    /// its fingerprint names can be computed and admitted afresh.
    pub fn evict(&mut self, fp: Fingerprint, metrics: &ExecMetrics) {
        if self.entries.remove(&fp.0).is_some() {
            metrics.add_reuse_cache_eviction();
        }
    }

    fn evict_lru(&mut self, metrics: &ExecMetrics) -> bool {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k);
        match victim {
            Some(k) => {
                self.entries.remove(&k);
                metrics.add_reuse_cache_eviction();
                true
            }
            None => false,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
        self.uses.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use fusion_common::Value;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n)
    }

    fn rows(n: usize, v: i64) -> Arc<Vec<Row>> {
        Arc::new((0..n).map(|_| vec![Value::Int64(v)]).collect())
    }

    fn versions(v: u64) -> HashMap<String, u64> {
        let mut m = HashMap::new();
        m.insert("t".to_string(), v);
        m
    }

    /// A trivial non-maintainable plan: staleness always falls back to
    /// evict-and-recompute, preserving the pre-refresh test semantics.
    fn plan() -> LogicalPlan {
        let empty = fusion_plan::ConstantTable::new(Vec::new(), Vec::new()).unwrap();
        LogicalPlan::ConstantTable(empty)
    }

    /// An empty catalog: no append lineage, so no refresh path engages.
    fn cat() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn admission_requires_min_uses() {
        let mut c = ReuseCache::new(ReuseCacheConfig::default());
        let m = ExecMetrics::new();
        let deps = DepStamps::new(vec![("t".to_string(), 1)]);
        assert!(!c.admit(fp(1), "e1", rows(4, 7), vec!["s".into()], &plan(), deps.clone(), &m));
        c.observe(fp(1));
        c.observe(fp(1));
        assert!(c.admit(fp(1), "e1", rows(4, 7), vec!["s".into()], &plan(), deps, &m));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lookup_hits_and_respects_versions() {
        let mut c = ReuseCache::new(ReuseCacheConfig::default());
        let m = ExecMetrics::new();
        c.observe(fp(1));
        c.observe(fp(1));
        assert!(c.admit(
            fp(1),
            "e1",
            rows(4, 7),
            vec!["s".into()],
            &plan(),
            DepStamps::new(vec![("t".to_string(), 1)]),
            &m
        ));
        assert!(c.lookup(fp(1), "e1", &cat(), &versions(1), &m).is_some());
        // Encoding mismatch (hash collision) is a miss, not a hit.
        assert!(c.lookup(fp(1), "other", &cat(), &versions(1), &m).is_none());
        // Version bump invalidates and evicts.
        assert!(c.lookup(fp(1), "e1", &cat(), &versions(2), &m).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(m.snapshot().reuse_cache_evictions, 1);
    }

    #[test]
    fn budget_overflow_evicts_lru() {
        let mut c = ReuseCache::new(ReuseCacheConfig {
            // Each Int64 row encodes to ~9 bytes; 3 x 10-row entries
            // overflow a 200-byte budget.
            max_bytes: 200,
            max_entry_rows: 1000,
            admit_min_uses: 1,
        });
        let m = ExecMetrics::new();
        for i in 0..3u64 {
            c.observe(fp(i));
            assert!(c.admit(
                fp(i),
                "e",
                rows(10, i as i64),
                vec!["s".into()],
                &plan(),
                DepStamps::new(vec![("t".to_string(), 1)]),
                &m
            ));
        }
        assert!(c.len() < 3, "budget must have forced an eviction");
        assert!(m.snapshot().reuse_cache_evictions >= 1);
        // The most recently admitted entry survived.
        assert!(c.lookup(fp(2), "e", &cat(), &versions(1), &m).is_some());
    }

    #[test]
    fn poisoned_entry_is_evicted_never_served() {
        let mut c = ReuseCache::new(ReuseCacheConfig {
            admit_min_uses: 1,
            ..ReuseCacheConfig::default()
        });
        let m = ExecMetrics::new();
        c.observe(fp(1));
        assert!(c.admit(
            fp(1),
            "e",
            rows(4, 7),
            vec!["s".into()],
            &plan(),
            DepStamps::new(vec![("t".to_string(), 1)]),
            &m
        ));
        assert!(c.lookup(fp(1), "e", &cat(), &versions(1), &m).is_some());

        assert!(c.corrupt_entry(fp(1)), "entry exists to corrupt");
        // The poisoned hit is detected, evicted, and reported as a miss.
        assert!(c.lookup(fp(1), "e", &cat(), &versions(1), &m).is_none());
        assert_eq!(c.len(), 0);
        let snap = m.snapshot();
        assert_eq!(snap.cache_poison_evictions, 1);
        assert!(snap.reuse_cache_evictions >= 1);
        // Once evicted, later lookups are plain misses (no double count).
        assert!(c.lookup(fp(1), "e", &cat(), &versions(1), &m).is_none());
        assert_eq!(m.snapshot().cache_poison_evictions, 1);
    }

    #[test]
    fn corrupting_empty_entry_still_detected() {
        let mut c = ReuseCache::new(ReuseCacheConfig {
            admit_min_uses: 1,
            ..ReuseCacheConfig::default()
        });
        let m = ExecMetrics::new();
        c.observe(fp(2));
        assert!(c.admit(
            fp(2),
            "e",
            Arc::new(Vec::new()),
            vec!["s".into()],
            &plan(),
            DepStamps::new(vec![("t".to_string(), 1)]),
            &m
        ));
        assert!(c.corrupt_entry(fp(2)));
        assert!(c.lookup(fp(2), "e", &cat(), &versions(1), &m).is_none());
        assert_eq!(m.snapshot().cache_poison_evictions, 1);
    }

    #[test]
    fn readmission_replaces_poisoned_resident_entry() {
        let mut c = ReuseCache::new(ReuseCacheConfig {
            admit_min_uses: 1,
            ..ReuseCacheConfig::default()
        });
        let m = ExecMetrics::new();
        let deps = DepStamps::new(vec![("t".to_string(), 1)]);
        c.observe(fp(1));
        assert!(c.admit(fp(1), "e", rows(4, 7), vec!["s".into()], &plan(), deps.clone(), &m));
        assert!(c.corrupt_entry(fp(1)));
        // Re-admitting fresh rows must not refresh the corrupt copy.
        assert!(c.admit(fp(1), "e", rows(4, 7), vec!["s".into()], &plan(), deps, &m));
        let hit = c.lookup(fp(1), "e", &cat(), &versions(1), &m).unwrap();
        assert_eq!(hit.rows.len(), 4);
        assert_eq!(hit.rows[0][0], Value::Int64(7), "fresh rows served");
        assert_eq!(m.snapshot().cache_poison_evictions, 1);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = ReuseCache::new(ReuseCacheConfig {
            max_bytes: 1 << 20,
            max_entry_rows: 5,
            admit_min_uses: 1,
        });
        let m = ExecMetrics::new();
        c.observe(fp(1));
        assert!(!c.admit(
            fp(1),
            "e",
            rows(6, 0),
            vec!["s".into()],
            &plan(),
            DepStamps::new(vec![("t".to_string(), 1)]),
            &m
        ));
        assert!(c.is_empty());
    }

    /// Regression for the PR-8 stamping bug class: interleaved and
    /// mixed-case references to the same table must collapse to a single
    /// catalog-cased stamp at *construction* time — the constructor
    /// canonicalizes, so a non-canonical stamp vector is unrepresentable.
    #[test]
    fn dep_stamps_canonicalize_mixed_case_duplicates() {
        let stamps = DepStamps::new(vec![
            ("Orders".to_string(), 3),
            ("customers".to_string(), 1),
            ("ORDERS".to_string(), 3),
            ("orders".to_string(), 3),
        ]);
        assert_eq!(
            stamps.as_slice(),
            &[("customers".to_string(), 1), ("orders".to_string(), 3)]
        );

        // `for_plan` stamps scanned tables at their current versions and
        // refuses to stamp a plan reading an unversioned table.
        let gen = fusion_common::IdGen::new();
        let b = fusion_plan::PlanBuilder::scan(
            &gen,
            "Orders",
            &[fusion_plan::builder::ColumnDef::new(
                "a",
                fusion_common::DataType::Int64,
                false,
            )],
        );
        let scan = b.build();
        let mut vers = HashMap::new();
        assert!(DepStamps::for_plan(&scan, &vers).is_none(), "unknown table");
        vers.insert("orders".to_string(), 7);
        let stamped = DepStamps::for_plan(&scan, &vers).unwrap();
        assert_eq!(stamped.as_slice(), &[("orders".to_string(), 7)]);
    }
}
