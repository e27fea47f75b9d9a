//! Cross-query fusion and shared-subplan execution — layer 2 of workload
//! reuse.
//!
//! [`plan_workload`] takes a batch of logical plans (one per concurrent
//! query), finds subplans that can be computed once and shared, executes
//! each shared subplan a single time, and rewrites every consuming query
//! to read the materialized rows instead — through the paper's
//! compensation machinery: consumer `i` becomes
//!
//! ```text
//! Project_{M_i(outCols_i)}( Filter_{C_i}( ConstantTable(rows of P) ) )
//! ```
//!
//! where `P` is the shared plan, `C_i` the consumer's compensating filter
//! and `M_i` its column mapping — exactly the `(P, M, L, R)` contract of
//! `Fuse`, lifted from two queries to a reuse *group* by folding:
//! fusing a new member into `P` ANDs the fold's `L` onto every prior
//! member's compensation (prior columns survive in the fused plan under
//! their ids, so prior mappings stay valid).
//!
//! Reuse groups come in two flavors:
//!
//! * **exact** — members share a canonical fingerprint; rows are spliced
//!   directly, aligned position-by-position via canonical slots;
//! * **fused** — members share a shape (root operator + scanned tables)
//!   but differ in predicates/columns; `fuse` builds the covering plan.
//!
//! Every shared plan is re-validated by the semantic plan analyzer before
//! execution, and every spliced consumer is re-validated before it
//! replaces the original plan; any violation reverts that consumer to its
//! unshared form.
//!
//! **Fault isolation** (see `DESIGN.md` §13): a shared group is one
//! failure domain shared by every consumer, so its execution is fenced.
//! Transient failures retry under the batch [`ExecContext`]'s
//! `RetryPolicy` — the same merged deadline/budget every query in the
//! batch runs under — and a *permanent* failure detaches all consumers:
//! each keeps its un-spliced original plan and re-executes independently
//! (counted in `consumers_detached`), exactly the fallback path single
//! queries already had. Repeated failures of the same fingerprint trip a
//! per-fingerprint [`FailureBreaker`] that stops re-forming the group.
//! The [`FaultPolicy`]'s [`ReuseFaultSite`] fault points inject
//! deterministic failures into shared execution, consumer splicing, and
//! cache admission/lookup/contents so the batch chaos harness can drive
//! every one of these paths.

use std::collections::HashMap;
use std::sync::Arc;

use fusion_common::{Field, IdGen};
use fusion_core::analysis::{
    certify_exact_splice, certify_fused_splice, certify_stamps, certify_subsumption,
    render_violations,
};
use fusion_core::{analyze_plan, fuse, FuseContext};
use fusion_exec::{
    execute_plan_profiled, Catalog, ExecContext, ExecMetrics, FaultPolicy, ReuseFaultSite, Row,
};
use fusion_expr::{simplify_filter, Expr};
use fusion_plan::{ConstantTable, Filter, LogicalPlan, Project, ProjExpr};

use crate::breaker::FailureBreaker;
use crate::cache::{DepStamps, ReuseCache};
use crate::fingerprint::{canonical_form, position_map, CanonicalForm};

/// Tuning knobs for the workload optimizer.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Smallest subplan (in plan nodes) considered for sharing. The
    /// default of 2 excludes bare table scans: sharing a full-table
    /// materialization costs more memory than it saves work.
    pub min_nodes: usize,
    /// Ceiling on cross-query `fuse` attempts per batch.
    pub max_fuse_attempts: usize,
    /// Consecutive shared-execution failures of one fingerprint before
    /// its circuit breaker opens and groups stop forming for it
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Batches an open breaker swallows before half-opening one probe
    /// group.
    pub breaker_cool_after: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            min_nodes: 2,
            max_fuse_attempts: 64,
            breaker_threshold: 3,
            breaker_cool_after: 4,
        }
    }
}

/// The outcome of workload planning for a batch.
pub struct WorkloadOutcome {
    /// One plan per input query, rewritten where sharing applied.
    pub plans: Vec<LogicalPlan>,
    /// Human-readable per-query reuse notes (rendered under
    /// `-- workload reuse --` in EXPLAIN ANALYZE).
    pub notes: Vec<Vec<String>>,
    /// Certificate rejections from the reuse-soundness prover: splice,
    /// subsumption, or dependency-stamp claims that failed certification.
    /// Each rejected rewrite reverted to cold execution; under strict
    /// analysis the engine fails the batch instead.
    /// Maintainability fallbacks (e.g. float-SUM refresh refusals) are
    /// deliberately *not* here — they are correct typed fallbacks, not
    /// soundness failures — and surface in `notes` only.
    pub rejections: Vec<String>,
    /// Per-group accounting.
    pub report: WorkloadReport,
}

/// Batch-level reuse accounting.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub groups: Vec<GroupReport>,
}

impl WorkloadReport {
    /// Number of shared subplans that were actually executed (not served
    /// from cache).
    pub fn shared_executions(&self) -> usize {
        self.groups.iter().filter(|g| g.executed).count()
    }

    /// Total consumers spliced across all groups.
    pub fn consumers_spliced(&self) -> usize {
        self.groups.iter().map(|g| g.spliced).sum()
    }

    /// Distinct batch queries served by at least one reuse group — the
    /// numerator of a coalescing window's share rate.
    pub fn queries_sharing(&self) -> usize {
        let mut queries = std::collections::BTreeSet::new();
        for group in &self.groups {
            queries.extend(group.queries.iter().copied());
        }
        queries.len()
    }

    /// Fraction of a `window_queries`-sized window served through a
    /// shared group or cache splice (0.0 for an empty window). The
    /// service's `coalesced_share_rate` is this, aggregated over windows.
    pub fn share_rate(&self, window_queries: usize) -> f64 {
        if window_queries == 0 {
            0.0
        } else {
            self.queries_sharing() as f64 / window_queries as f64
        }
    }

    /// Groups served from the shared-subplan cache (warm hits) rather
    /// than executed in this window.
    pub fn cache_hits(&self) -> usize {
        self.groups.iter().filter(|g| g.cache_hit).count()
    }
}

/// Accounting for one reuse group.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Fingerprint of the shared plan, rendered.
    pub fingerprint: String,
    /// Queries (by batch index) with at least one member in the group.
    pub queries: Vec<usize>,
    /// Consumers successfully rewritten to read the shared result.
    pub spliced: usize,
    /// Whether the group needed cross-query fusion (vs. exact match).
    pub fused: bool,
    /// Whether the shared rows came from the cache.
    pub cache_hit: bool,
    /// Whether the shared plan was executed in this batch.
    pub executed: bool,
    /// Rows produced by (or cached for) the shared plan.
    pub rows: usize,
    /// Plan nodes in the shared subplan.
    pub subplan_nodes: usize,
}

/// One occurrence of a shareable subplan inside a query.
struct Candidate {
    query: usize,
    /// Child-index path from the query root to the subplan root.
    path: Vec<usize>,
    plan: LogicalPlan,
    form: CanonicalForm,
}

/// A reuse group ready for execution: a shared plan plus its consumers.
struct Group {
    plan: LogicalPlan,
    form: CanonicalForm,
    fused: bool,
    /// `(candidate index, compensating filter over plan's columns,
    /// mapping from consumer output ids into plan's column ids)`.
    /// Exact-group members have no entry here; they splice via slots.
    members: Vec<GroupMember>,
}

struct GroupMember {
    cand: usize,
    /// Compensating filter over the shared plan's columns (TRUE for exact
    /// members).
    comp: Expr,
    /// Consumer output id -> shared plan column id. `None` for exact
    /// members, which align by canonical slots instead.
    mapping: Option<HashMap<fusion_common::ColumnId, fusion_common::ColumnId>>,
}

/// An optional single-plan optimizer the caller (the engine session)
/// lends the workload optimizer so shared subplans run with pushdown and
/// pruning applied. The optimized form is only used when it validates and
/// preserves the shared plan's output schema (ids, order, types) — the
/// slots and compensations are expressed against that schema.
pub type OptimizeFn<'a> = &'a dyn Fn(&LogicalPlan) -> LogicalPlan;

/// Plan a batch: detect reuse groups, execute each shared subplan once
/// (or serve it from `cache`), and rewrite consumers. Shared executions
/// and cache traffic are counted on `metrics`; rewritten plans that fail
/// validation or the semantic analyzer are reverted, never returned.
#[allow(clippy::too_many_arguments)]
pub fn plan_workload(
    cfg: &WorkloadConfig,
    cache: &mut ReuseCache,
    breaker: &mut FailureBreaker,
    plans: &[LogicalPlan],
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
    gen: &IdGen,
    metrics: &ExecMetrics,
    optimize: Option<OptimizeFn<'_>>,
) -> WorkloadOutcome {
    let mut out = WorkloadOutcome {
        plans: plans.to_vec(),
        notes: vec![Vec::new(); plans.len()],
        rejections: Vec::new(),
        report: WorkloadReport::default(),
    };
    if plans.len() < 2 && cache.is_empty() {
        return out;
    }

    let candidates = collect_candidates(plans, cfg.min_nodes);
    let versions = catalog.table_versions();
    let groups = form_groups(cfg, cache, &candidates, catalog, &versions, plans.len(), gen);

    for group in groups {
        execute_group(
            group,
            &candidates,
            cache,
            breaker,
            catalog,
            ctx,
            gen,
            metrics,
            &versions,
            optimize,
            &mut out,
        );
    }

    // Subsumption pass: a consumer no exact or fused group served may
    // still be answerable from a cached *superset* — its own filter over
    // the cached rows recovers the exact result. Spliced regions contain
    // no scans, so candidate collection naturally skips them.
    let fault = ctx.fault_policy();
    for q in 0..out.plans.len() {
        let (rewritten, notes, rejections) = apply_subsumption(
            cfg,
            cache,
            &out.plans[q],
            catalog,
            &versions,
            fault,
            metrics,
        );
        out.plans[q] = rewritten;
        out.notes[q].extend(notes);
        out.notes[q].extend(rejections.iter().cloned());
        out.rejections.extend(rejections);
    }
    out
}

/// Rewrite a single query plan against the warm cache only (no batch, no
/// shared execution). Used by the engine's single-query path so a query
/// arriving after a batch still benefits from cached shared subplans.
pub fn apply_cache(
    cfg: &WorkloadConfig,
    cache: &mut ReuseCache,
    plan: &LogicalPlan,
    catalog: &Catalog,
    fault: &FaultPolicy,
    metrics: &ExecMetrics,
) -> (LogicalPlan, Vec<String>) {
    if cache.is_empty() {
        return (plan.clone(), Vec::new());
    }
    let versions = catalog.table_versions();
    let candidates = collect_candidates(std::slice::from_ref(plan), cfg.min_nodes);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&x, &y| {
        candidates[y]
            .plan
            .node_count()
            .cmp(&candidates[x].plan.node_count())
            .then_with(|| candidates[x].path.cmp(&candidates[y].path))
    });
    let mut result = plan.clone();
    let mut notes = Vec::new();
    let mut taken: Vec<Vec<usize>> = Vec::new();
    for i in order {
        let c = &candidates[i];
        if taken.iter().any(|p| paths_overlap(p, &c.path)) {
            continue;
        }
        // Same CacheLookup fault point as the batch path: a forced miss
        // leaves the query on its cold plan.
        if fault
            .inject_reuse(
                ReuseFaultSite::CacheLookup,
                &c.form.fingerprint.to_string(),
                0,
            )
            .is_err()
        {
            metrics.add_fault_injected();
            continue;
        }
        let hit = cache.lookup(c.form.fingerprint, &c.form.encoding, catalog, &versions, metrics);
        notes.extend(cache.drain_rejections());
        let Some(hit) = hit else {
            continue;
        };
        // Certificate gate: re-prove the exact-splice claim from the
        // consumer plan itself before any cached row is served.
        match certify_exact_splice(&c.plan, &c.form.encoding, &hit.slots) {
            Ok(_) => metrics.add_reuse_certificate_issued(),
            Err(v) => {
                metrics.add_reuse_certificate_rejected();
                notes.push(format!(
                    "cache hit {} rejected by reuse prover ({}); running cold",
                    c.form.fingerprint,
                    render_violations(&v)
                ));
                continue;
            }
        }
        let Some(replacement) = splice_exact(&c.plan, &c.form.slots, &hit.slots, &hit.rows) else {
            continue;
        };
        let rewritten = replace_at(&result, &c.path, replacement);
        if rewritten.validate().is_ok() && analyze_plan(&rewritten).is_empty() {
            metrics.add_reuse_cache_hit();
            notes.push(format!(
                "cache hit {}: {} node subplan served from shared-subplan cache ({} rows{})",
                c.form.fingerprint,
                c.plan.node_count(),
                hit.rows.len(),
                refresh_note(&hit),
            ));
            result = rewritten;
            taken.push(c.path.clone());
        }
    }
    // Exact misses may still be answerable from a cached superset. The
    // single-query path has no batch to strict-fail, so certificate
    // rejections surface as typed notes and the query stays cold.
    let (result, sub_notes, sub_rejections) =
        apply_subsumption(cfg, cache, &result, catalog, &versions, fault, metrics);
    notes.extend(sub_notes);
    notes.extend(sub_rejections);
    (result, notes)
}

/// Render the delta-refresh suffix for a cache-hit note.
fn refresh_note(hit: &crate::cache::CachedRows) -> String {
    match hit.refreshed_delta_rows {
        Some(n) => format!(", refreshed in place over {n} delta rows"),
        None => String::new(),
    }
}

/// Rewrite `plan` against cached entries that strictly *subsume* one of
/// its Filter-rooted subplans: the consumer's own predicate over the
/// cached superset rows recovers its exact result (σ_p over σ_q rows
/// with q ⊆ p). Every splice is re-validated and analyzer-gated with
/// revert-on-violation, like all other splices. Returns
/// `(plan, notes, rejections)`: rejections are subsumption claims the
/// reuse prover refused — the consumer stayed cold, and strict batches
/// fail on them.
fn apply_subsumption(
    cfg: &WorkloadConfig,
    cache: &mut ReuseCache,
    plan: &LogicalPlan,
    catalog: &Catalog,
    versions: &HashMap<String, u64>,
    fault: &FaultPolicy,
    metrics: &ExecMetrics,
) -> (LogicalPlan, Vec<String>, Vec<String>) {
    if cache.is_empty() {
        return (plan.clone(), Vec::new(), Vec::new());
    }
    let candidates = collect_candidates(std::slice::from_ref(plan), cfg.min_nodes);
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&x, &y| {
        candidates[y]
            .plan
            .node_count()
            .cmp(&candidates[x].plan.node_count())
            .then_with(|| candidates[x].path.cmp(&candidates[y].path))
    });
    let mut result = plan.clone();
    let mut notes = Vec::new();
    let mut rejections = Vec::new();
    let mut taken: Vec<Vec<usize>> = Vec::new();
    for i in order {
        let c = &candidates[i];
        if !matches!(c.plan, LogicalPlan::Filter(_)) {
            continue;
        }
        if taken.iter().any(|p| paths_overlap(p, &c.path)) {
            continue;
        }
        // Same CacheLookup fault point as exact lookups: a forced miss
        // leaves the consumer on its cold plan.
        if fault
            .inject_reuse(
                ReuseFaultSite::CacheLookup,
                &format!("subsume/{}", c.form.fingerprint),
                0,
            )
            .is_err()
        {
            metrics.add_fault_injected();
            continue;
        }
        let looked = cache.lookup_subsuming(&c.plan, catalog, versions, metrics);
        notes.extend(cache.drain_rejections());
        let Some((hit, fp)) = looked else {
            continue;
        };
        // Certificate gate: re-derive the subsumption proof against the
        // cached entry's *plan* (not its match metadata) before serving.
        match cache.entry_plan(fp).map(|p| certify_subsumption(p, &c.plan)) {
            Some(Ok(_)) => metrics.add_reuse_certificate_issued(),
            Some(Err(v)) => {
                metrics.add_reuse_certificate_rejected();
                rejections.push(format!(
                    "subsumption serve {fp} rejected by reuse prover ({}); running cold",
                    render_violations(&v)
                ));
                continue;
            }
            // Entry vanished between lookup and certification: stay cold.
            None => continue,
        }
        let Some(replacement) = splice_subsumed(&c.plan, &hit) else {
            continue;
        };
        let rewritten = replace_at(&result, &c.path, replacement);
        if rewritten.validate().is_ok() && analyze_plan(&rewritten).is_empty() {
            metrics.add_subsumption_hit();
            notes.push(format!(
                "subsumption hit {fp}: certified; consumer served from cached superset through \
                 compensating filter ({} rows{})",
                hit.rows.len(),
                refresh_note(&hit),
            ));
            result = rewritten;
            taken.push(c.path.clone());
        }
    }
    (result, notes, rejections)
}

/// Splice for a subsumption hit: the consumer is `Filter_p(Input)` and
/// the cached rows are `Filter_q(Input)` with q's conjuncts a strict
/// subset of p's. Materialize the cached rows under the consumer's own
/// input schema (aligned by canonical slots) and re-apply the consumer's
/// *full* predicate — σ_p(σ_q(I)) = σ_p(I) — so no predicate surgery is
/// needed and row order matches a cold run (a filtered subsequence of
/// the same partition-ordered stream).
fn splice_subsumed(consumer: &LogicalPlan, hit: &crate::cache::CachedRows) -> Option<LogicalPlan> {
    let LogicalPlan::Filter(f) = consumer else {
        return None;
    };
    let input_form = canonical_form(&f.input);
    let map = position_map(&input_form.slots, &hit.slots)?;
    let fields: Vec<Field> = f.input.schema().fields().to_vec();
    if fields.len() != map.len() {
        return None;
    }
    let identity = map.iter().enumerate().all(|(j, &k)| j == k);
    let rows: Vec<Row> = if identity {
        hit.rows.as_ref().clone()
    } else {
        hit.rows
            .iter()
            .map(|row| {
                map.iter()
                    .map(|&k| row.get(k).cloned().unwrap_or(fusion_common::Value::Null))
                    .collect()
            })
            .collect()
    };
    Some(LogicalPlan::Filter(Filter {
        input: Box::new(LogicalPlan::ConstantTable(ConstantTable { fields, rows })),
        predicate: f.predicate.clone(),
    }))
}

// ---------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------

/// Whether a plan node may root a shared subplan.
fn shareable_root(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Filter(_)
            | LogicalPlan::Project(_)
            | LogicalPlan::Join(_)
            | LogicalPlan::Aggregate(_)
            | LogicalPlan::Window(_)
            | LogicalPlan::MarkDistinct(_)
            | LogicalPlan::UnionAll(_)
            | LogicalPlan::EnforceSingleRow(_)
            | LogicalPlan::Scan(_)
    )
}

fn contains_scan(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan(_) => true,
        _ => plan.children().into_iter().any(contains_scan),
    }
}

fn collect_candidates(plans: &[LogicalPlan], min_nodes: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (query, plan) in plans.iter().enumerate() {
        let mut path = Vec::new();
        walk(plan, query, &mut path, min_nodes, &mut out);
    }
    out
}

fn walk(
    plan: &LogicalPlan,
    query: usize,
    path: &mut Vec<usize>,
    min_nodes: usize,
    out: &mut Vec<Candidate>,
) {
    if shareable_root(plan) && plan.node_count() >= min_nodes && contains_scan(plan) {
        out.push(Candidate {
            query,
            path: path.clone(),
            plan: plan.clone(),
            form: canonical_form(plan),
        });
    }
    for (i, child) in plan.children().into_iter().enumerate() {
        path.push(i);
        walk(child, query, path, min_nodes, out);
        path.pop();
    }
}

/// Two paths overlap when one is a prefix of the other (same subtree or
/// nested subtrees).
fn paths_overlap(a: &[usize], b: &[usize]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n]
}

// ---------------------------------------------------------------------
// Group formation
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn form_groups(
    cfg: &WorkloadConfig,
    cache: &ReuseCache,
    candidates: &[Candidate],
    catalog: &Catalog,
    versions: &HashMap<String, u64>,
    n_queries: usize,
    gen: &IdGen,
) -> Vec<Group> {
    // Size-descending greedy order: prefer sharing the largest subplans.
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&x, &y| {
        candidates[y]
            .plan
            .node_count()
            .cmp(&candidates[x].plan.node_count())
            .then_with(|| candidates[x].query.cmp(&candidates[y].query))
            .then_with(|| candidates[x].path.cmp(&candidates[y].path))
    });

    // Which encodings qualify for exact sharing: seen in >= 2 distinct
    // queries, or already cached and valid.
    let mut query_span: HashMap<&str, Vec<usize>> = HashMap::new();
    for c in candidates {
        let qs = query_span.entry(c.form.encoding.as_str()).or_default();
        if !qs.contains(&c.query) {
            qs.push(c.query);
        }
    }

    let mut taken: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n_queries];
    let mut exact: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut exact_order: Vec<&str> = Vec::new();

    for &i in &order {
        let c = &candidates[i];
        let enc = c.form.encoding.as_str();
        let spans = query_span.get(enc).map(|q| q.len()).unwrap_or(0);
        // Servable = valid, or refreshable in place after a pure append —
        // either way a lookup during execution will produce rows.
        let cached = cache.contains_servable(c.form.fingerprint, enc, catalog, versions);
        if spans < 2 && !cached {
            continue;
        }
        if taken[c.query].iter().any(|p| paths_overlap(p, &c.path)) {
            continue;
        }
        taken[c.query].push(c.path.clone());
        let members = exact.entry(enc).or_default();
        if members.is_empty() {
            exact_order.push(enc);
        }
        members.push(i);
    }

    let mut groups = Vec::new();
    for enc in exact_order {
        let Some(members) = exact.remove(enc) else {
            continue;
        };
        let cached = members
            .first()
            .map(|&i| {
                cache.contains_servable(candidates[i].form.fingerprint, enc, catalog, versions)
            })
            .unwrap_or(false);
        if members.len() < 2 && !cached {
            // Conflicts whittled the group below the sharing threshold;
            // release its regions so fusion can still use them.
            for &i in &members {
                let c = &candidates[i];
                taken[c.query].retain(|p| p != &c.path);
            }
            continue;
        }
        let rep = &candidates[members[0]];
        groups.push(Group {
            plan: rep.plan.clone(),
            form: rep.form.clone(),
            fused: false,
            members: members
                .into_iter()
                .map(|i| GroupMember {
                    cand: i,
                    comp: Expr::boolean(true),
                    mapping: None,
                })
                .collect(),
        });
    }

    // Fusion pass over the remaining candidates: bucket by shape (root
    // operator + scanned table set), fold `fuse` across distinct queries.
    let fuse_ctx = FuseContext::new(gen.clone());
    let mut attempts = 0usize;
    let shape_of = |c: &Candidate| {
        let mut tables = c.plan.scanned_tables();
        tables.dedup();
        format!("{}|{}", c.plan.op_name(), tables.join(","))
    };
    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    let mut bucket_order: Vec<String> = Vec::new();
    for &i in &order {
        let c = &candidates[i];
        if taken[c.query].iter().any(|p| paths_overlap(p, &c.path)) {
            continue;
        }
        let key = shape_of(c);
        let b = buckets.entry(key.clone()).or_default();
        if b.is_empty() {
            bucket_order.push(key);
        }
        b.push(i);
    }

    for key in bucket_order {
        let Some(bucket) = buckets.remove(&key) else {
            continue;
        };
        let mut distinct: Vec<usize> = Vec::new();
        let mut seen_queries: Vec<usize> = Vec::new();
        for &i in &bucket {
            let c = &candidates[i];
            if seen_queries.contains(&c.query) {
                continue;
            }
            if taken[c.query].iter().any(|p| paths_overlap(p, &c.path)) {
                continue;
            }
            seen_queries.push(c.query);
            distinct.push(i);
        }
        if distinct.len() < 2 {
            continue;
        }
        let base = distinct[0];
        let mut plan = candidates[base].plan.clone();
        let mut members = vec![GroupMember {
            cand: base,
            comp: Expr::boolean(true),
            mapping: None,
        }];
        for &i in &distinct[1..] {
            if attempts >= cfg.max_fuse_attempts {
                break;
            }
            attempts += 1;
            let Some(f) = fuse(&plan, &candidates[i].plan, &fuse_ctx) else {
                continue;
            };
            // Folding: P's columns survive under their ids, so prior
            // compensations/mappings remain valid once restricted by L.
            for m in &mut members {
                m.comp = simplify_filter(&m.comp.clone().and(f.left.clone()));
            }
            members.push(GroupMember {
                cand: i,
                comp: simplify_filter(&f.right),
                mapping: Some(f.mapping.clone()),
            });
            plan = f.plan;
        }
        if members.len() < 2 {
            continue;
        }
        // Representative members of a fused group need an explicit
        // (identity) mapping so they splice through the compensation
        // path rather than slot alignment.
        for m in &mut members {
            if m.mapping.is_none() {
                m.mapping = Some(HashMap::new());
            }
        }
        for m in &members {
            let c = &candidates[m.cand];
            taken[c.query].push(c.path.clone());
        }
        let form = canonical_form(&plan);
        groups.push(Group {
            plan,
            form,
            fused: true,
            members,
        });
    }

    groups
}

// ---------------------------------------------------------------------
// Group execution and splicing
// ---------------------------------------------------------------------

/// Whether `optimized` produces the same positional row layout as
/// `original`: equal arity with equal types per position. Column ids and
/// names may differ — splicing aligns rows by position, never by id.
fn layout_preserved(optimized: &LogicalPlan, original: &LogicalPlan) -> bool {
    let a = optimized.schema();
    let b = original.schema();
    a.fields().len() == b.fields().len()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.data_type == y.data_type)
}

#[allow(clippy::too_many_arguments)]
fn execute_group(
    group: Group,
    candidates: &[Candidate],
    cache: &mut ReuseCache,
    breaker: &mut FailureBreaker,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
    gen: &IdGen,
    metrics: &ExecMetrics,
    versions: &HashMap<String, u64>,
    optimize: Option<OptimizeFn<'_>>,
    out: &mut WorkloadOutcome,
) {
    // The shared plan must satisfy both the structural validator and the
    // semantic analyzer before we spend anything executing it.
    if group.plan.validate().is_err() {
        return;
    }
    let violations = analyze_plan(&group.plan);
    if !violations.is_empty() {
        for m in &group.members {
            let q = candidates[m.cand].query;
            out.notes[q].push(format!(
                "reuse group {} rejected by analyzer ({} violations)",
                group.form.fingerprint,
                violations.len()
            ));
        }
        return;
    }

    let fp = group.form.fingerprint;
    let fp_key = fp.to_string();

    // Circuit breaker: a fingerprint whose shared executions keep failing
    // stops forming groups; consumers simply run their originals.
    if !breaker.allows(fp.0) {
        for m in &group.members {
            let q = candidates[m.cand].query;
            out.notes[q].push(format!(
                "reuse group {fp}: circuit breaker open after repeated shared failures; running unshared"
            ));
        }
        return;
    }

    let mut queries: Vec<usize> = group
        .members
        .iter()
        .map(|m| candidates[m.cand].query)
        .collect();
    queries.sort_unstable();
    queries.dedup();

    let fault = ctx.fault_policy();
    // CacheLookup fault point: a forced miss — fall through to cold
    // execution rather than trusting the warm entry.
    let hit = if fault
        .inject_reuse(ReuseFaultSite::CacheLookup, &fp_key, 0)
        .is_err()
    {
        metrics.add_fault_injected();
        None
    } else {
        cache.lookup(fp, &group.form.encoding, catalog, versions, metrics)
    };
    // Maintainability fallbacks recorded during the lookup (e.g. a
    // float-SUM entry that could not be refreshed in place) are typed
    // notes for every consumer, never strict failures.
    for note in cache.drain_rejections() {
        for &q in &queries {
            out.notes[q].push(note.clone());
        }
    }
    let cache_hit = hit.is_some();
    let refreshed_delta_rows = hit.as_ref().and_then(|h| h.refreshed_delta_rows);
    let (rows, slots): (Arc<Vec<Row>>, Vec<String>) = match hit {
        Some(h) => (h.rows, h.slots),
        None => {
            // Run the shared plan through the caller's optimizer when the
            // result keeps the output layout (slots and compensations are
            // positional, so field order and types must survive; ids and
            // names are free to change under rewrites).
            let exec_plan = optimize
                .map(|f| f(&group.plan))
                .filter(|o| {
                    layout_preserved(o, &group.plan)
                        && o.validate().is_ok()
                        && analyze_plan(o).is_empty()
                })
                .unwrap_or_else(|| group.plan.clone());
            let executed = match execute_shared(&exec_plan, catalog, ctx, metrics, &fp_key) {
                Ok(output) => output,
                Err(e) => {
                    // The group is one failure domain; fence it off. Every
                    // consumer detaches — keeps its un-spliced original
                    // plan and re-executes independently — so one bad
                    // shared plan never takes down the whole batch.
                    metrics.add_shared_group_failure();
                    // Cancellation, deadlines, and budgets are verdicts on
                    // the *batch*, not on this fingerprint; only failures
                    // the fallback path can absorb count toward the
                    // breaker.
                    if e.allows_fallback() && breaker.record_failure(fp.0) {
                        metrics.add_circuit_breaker_trip();
                    }
                    for m in &group.members {
                        let q = candidates[m.cand].query;
                        metrics.add_consumer_detached();
                        out.notes[q].push(format!(
                            "shared subplan {fp} failed ({e}); consumer detached, re-executing unshared"
                        ));
                    }
                    return;
                }
            };
            breaker.record_success(fp.0);
            metrics.add_shared_subplan_executed();
            (Arc::new(executed.rows), group.form.slots.clone())
        }
    };

    let mut spliced = 0usize;
    for (i, m) in group.members.iter().enumerate() {
        let c = &candidates[m.cand];
        // Splice fault point: detaches just this consumer; the rest of
        // the group keeps sharing.
        if fault
            .inject_reuse(ReuseFaultSite::Splice, &format!("{fp_key}/{i}"), 0)
            .is_err()
        {
            metrics.add_fault_injected();
            metrics.add_consumer_detached();
            out.notes[c.query].push(format!(
                "reuse group {fp}: injected splice fault; consumer detached, running unshared"
            ));
            continue;
        }
        // Certificate gate: every splice must be re-proven sound from the
        // consumer and shared plans themselves before any row is served.
        // Exact members re-derive canonical equality; fused members
        // discharge the mapping/compensation obligations of §III.A.
        let certificate = match &m.mapping {
            None => certify_exact_splice(&c.plan, &group.form.encoding, &slots),
            Some(mapping) => certify_fused_splice(&c.plan, &group.plan, mapping, &m.comp),
        };
        if let Err(v) = certificate {
            metrics.add_reuse_certificate_rejected();
            metrics.add_consumer_detached();
            let msg = format!(
                "reuse group {fp}: splice rejected by reuse prover ({}); \
                 consumer detached, running unshared",
                render_violations(&v)
            );
            out.notes[c.query].push(msg.clone());
            out.rejections.push(msg);
            continue;
        }
        metrics.add_reuse_certificate_issued();
        let replacement = match &m.mapping {
            None => splice_exact(&c.plan, &c.form.slots, &slots, &rows),
            Some(mapping) => splice_fused(&c.plan, &group.plan, mapping, &m.comp, &rows, gen),
        };
        let Some(replacement) = replacement else {
            metrics.add_consumer_detached();
            out.notes[c.query].push(format!(
                "reuse group {fp}: consumer could not be aligned; running unshared"
            ));
            continue;
        };
        let rewritten = replace_at(&out.plans[c.query], &c.path, replacement);
        if rewritten.validate().is_ok() && analyze_plan(&rewritten).is_empty() {
            if cache_hit {
                metrics.add_reuse_cache_hit();
            }
            // Admission pressure (`admit_min_uses`) counts only consumers
            // that were actually served a validated splice.
            cache.observe(fp);
            out.notes[c.query].push(format!(
                "{} {}: {} node subplan shared across queries {:?} ({} rows, certified{}{})",
                if group.fused { "fused" } else { "shared" },
                fp,
                c.plan.node_count(),
                queries,
                rows.len(),
                if cache_hit { ", cached" } else { "" },
                match refreshed_delta_rows {
                    Some(n) => format!(", refreshed in place over {n} delta rows"),
                    None => String::new(),
                },
            ));
            out.plans[c.query] = rewritten;
            spliced += 1;
        } else {
            metrics.add_consumer_detached();
            out.notes[c.query].push(format!(
                "reuse group {fp}: spliced plan failed validation; reverted"
            ));
        }
    }

    // Admission happens strictly after the complete, validated execution
    // and after splicing — never mid-flight — gated by the CacheAdmit
    // fault point (a skipped admission only costs future batches a warm
    // hit). The CacheCorrupt point then silently flips a cached value so
    // chaos runs exercise the checksum defense on the next lookup.
    if !cache_hit {
        if fault
            .inject_reuse(ReuseFaultSite::CacheAdmit, &fp_key, 0)
            .is_err()
        {
            metrics.add_fault_injected();
        } else if let Some(deps) = DepStamps::for_plan(&group.plan, versions) {
            // Certificate gate: the canonical stamps must be re-proven
            // consistent with the plan's scanned tables and the live
            // catalog before the entry becomes servable to future batches.
            match certify_stamps(&group.plan, deps.as_slice(), versions) {
                Ok(_) => {
                    metrics.add_reuse_certificate_issued();
                    cache.admit(
                        fp,
                        &group.form.encoding,
                        Arc::clone(&rows),
                        group.form.slots.clone(),
                        &group.plan,
                        deps,
                        metrics,
                    );
                    if fault
                        .inject_reuse(ReuseFaultSite::CacheCorrupt, &fp_key, 0)
                        .is_err()
                    {
                        metrics.add_fault_injected();
                        cache.corrupt_entry(fp);
                    }
                }
                Err(v) => {
                    metrics.add_reuse_certificate_rejected();
                    let msg = format!(
                        "reuse group {fp}: admission stamps rejected by reuse prover ({}); \
                         result not cached",
                        render_violations(&v)
                    );
                    for &q in &queries {
                        out.notes[q].push(msg.clone());
                    }
                    out.rejections.push(msg);
                }
            }
        }
    }

    out.report.groups.push(GroupReport {
        fingerprint: fp.to_string(),
        queries,
        spliced,
        fused: group.fused,
        cache_hit,
        executed: !cache_hit,
        rows: rows.len(),
        subplan_nodes: group.plan.node_count(),
    });
}

/// Execute a shared subplan under the batch context's [`RetryPolicy`]:
/// transient failures (injected [`ReuseFaultSite::SharedExec`] faults or
/// real transient I/O) retry with exponential backoff, re-checking
/// cancellation and the merged deadline between attempts. Fatal errors
/// and exhausted retries propagate — the caller detaches every consumer.
fn execute_shared(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
    metrics: &ExecMetrics,
    fp_key: &str,
) -> fusion_common::Result<fusion_exec::QueryOutput> {
    let fault = ctx.fault_policy();
    let retry = ctx.retry_policy();
    let mut attempt: u32 = 0;
    loop {
        ctx.check()?;
        let injected = fault.inject_reuse(ReuseFaultSite::SharedExec, fp_key, attempt);
        if injected.is_err() {
            metrics.add_fault_injected();
        }
        let outcome =
            injected.and_then(|()| execute_plan_profiled(plan, catalog, ctx).map(|(o, _)| o));
        match outcome {
            Ok(output) => return Ok(output),
            Err(e) => {
                if !e.is_retryable() || attempt >= retry.max_retries {
                    return Err(e);
                }
                attempt += 1;
                metrics.add_retry();
                std::thread::sleep(retry.backoff(attempt));
            }
        }
    }
}

/// Splice for an exact member: the consumer's subplan is canonically
/// identical to the shared plan, so its rows are the shared rows permuted
/// into the consumer's output layout, under the consumer's own ids.
fn splice_exact(
    consumer: &LogicalPlan,
    consumer_slots: &[String],
    shared_slots: &[String],
    rows: &Arc<Vec<Row>>,
) -> Option<LogicalPlan> {
    let map = position_map(consumer_slots, shared_slots)?;
    let fields: Vec<Field> = consumer.schema().fields().to_vec();
    if fields.len() != map.len() {
        return None;
    }
    let identity = map.iter().enumerate().all(|(j, &k)| j == k);
    let rows: Vec<Row> = if identity {
        rows.as_ref().clone()
    } else {
        rows.iter()
            .map(|row| {
                map.iter()
                    .map(|&k| row.get(k).cloned().unwrap_or(fusion_common::Value::Null))
                    .collect()
            })
            .collect()
    };
    Some(LogicalPlan::ConstantTable(ConstantTable { fields, rows }))
}

/// Splice for a fused member: materialize the shared plan's schema under
/// fresh ids, filter by the member's compensation, and project the
/// member's output columns through its mapping — the paper's
/// `Project_M(outCols)(Filter_C(P))` reconstruction.
fn splice_fused(
    consumer: &LogicalPlan,
    shared: &LogicalPlan,
    mapping: &HashMap<fusion_common::ColumnId, fusion_common::ColumnId>,
    comp: &Expr,
    rows: &Arc<Vec<Row>>,
    gen: &IdGen,
) -> Option<LogicalPlan> {
    let shared_schema = shared.schema();
    // Fresh ids per splice instance: the same shared schema is spliced
    // into several queries, and column ids must stay unique per plan.
    let fresh: HashMap<fusion_common::ColumnId, fusion_common::ColumnId> = shared_schema
        .fields()
        .iter()
        .map(|f| (f.id, gen.fresh()))
        .collect();
    let ct_fields: Vec<Field> = shared_schema
        .fields()
        .iter()
        .map(|f| {
            Some(Field::new(
                *fresh.get(&f.id)?,
                f.name.clone(),
                f.data_type,
                f.nullable,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let table = LogicalPlan::ConstantTable(ConstantTable {
        fields: ct_fields,
        rows: rows.as_ref().clone(),
    });
    let comp = comp.map_columns(&fresh);
    let filtered = if comp.is_true_literal() {
        table
    } else {
        LogicalPlan::Filter(Filter {
            input: Box::new(table),
            predicate: comp,
        })
    };
    let exprs: Vec<ProjExpr> = consumer
        .schema()
        .fields()
        .iter()
        .map(|f| {
            let src = mapping.get(&f.id).copied().unwrap_or(f.id);
            let src = fresh.get(&src).copied()?;
            Some(ProjExpr::new(f.id, f.name.clone(), Expr::Column(src)))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(LogicalPlan::Project(Project {
        input: Box::new(filtered),
        exprs,
    }))
}

/// Replace the subtree at `path` (child-index steps from the root).
fn replace_at(plan: &LogicalPlan, path: &[usize], replacement: LogicalPlan) -> LogicalPlan {
    match path.split_first() {
        None => replacement,
        Some((&step, rest)) => {
            let mut children: Vec<LogicalPlan> =
                plan.children().into_iter().cloned().collect();
            if let Some(child) = children.get_mut(step) {
                *child = replace_at(child, rest, replacement);
            }
            plan.with_new_children(children)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn paths_overlap_is_prefix_relation() {
        assert!(paths_overlap(&[], &[0, 1]));
        assert!(paths_overlap(&[0, 1], &[0]));
        assert!(paths_overlap(&[0, 1], &[0, 1]));
        assert!(!paths_overlap(&[0, 1], &[0, 2]));
        assert!(!paths_overlap(&[1], &[0, 1]));
    }

    #[test]
    fn report_share_rate_counts_distinct_queries() {
        let group = |queries: Vec<usize>, cache_hit: bool| GroupReport {
            fingerprint: String::new(),
            queries,
            spliced: 2,
            fused: false,
            cache_hit,
            executed: !cache_hit,
            rows: 0,
            subplan_nodes: 1,
        };
        let report = WorkloadReport {
            groups: vec![group(vec![0, 1], false), group(vec![1, 3], true)],
        };
        // Query 1 is in both groups but counts once.
        assert_eq!(report.queries_sharing(), 3);
        assert!((report.share_rate(4) - 0.75).abs() < 1e-9);
        assert_eq!(report.share_rate(0), 0.0);
        assert_eq!(report.cache_hits(), 1);
    }
}
