//! Cross-query fusion and shared-subplan execution — layer 2 of workload
//! reuse.
//!
//! [`plan_workload`] takes a batch of logical plans (one per concurrent
//! query), finds subplans that can be computed once and shared, executes
//! each shared subplan a single time, and rewrites every consuming query
//! to read that one result — through the paper's compensation machinery:
//! consumer `i` becomes
//!
//! ```text
//! Project_{M_i(outCols_i)}( Filter_{C_i}( leaf over the rows of P ) )
//! ```
//!
//! where `P` is the shared plan, `C_i` the consumer's compensating filter
//! and `M_i` its column mapping — exactly the `(P, M, L, R)` contract of
//! `Fuse`, lifted from two queries to a reuse *group* by folding:
//! fusing a new member into `P` ANDs the fold's `L` onto every prior
//! member's compensation (prior columns survive in the fused plan under
//! their ids, so prior mappings stay valid). The leaf is a
//! [`ConstantTable`] that *points at* the rows — the shared execution's
//! allocation, which is also the cache's — with each column bound to a
//! stored position by canonical slot string, never by position.
//!
//! Reuse groups come in two flavors:
//!
//! * **exact** — members share a canonical fingerprint; the leaf carries
//!   the member's own columns;
//! * **fused** — members share a shape (root operator + scanned tables)
//!   but differ in predicates/columns; `fuse` builds the covering plan,
//!   whose column order follows the fold while its cache key does not.
//!
//! A lone query is a window of one: it meets the cache through the same
//! groups, so a resident entry under one of its subplans is served,
//! refreshed, or evicted and re-admitted exactly as in a larger window.
//! Group members and subsumption serves all pass one gate, `serve`:
//! certify, splice, validate, or leave the query as it was.
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

use fusion_common::{rows_checksum, ColumnId, Field, IdGen};
use fusion_core::analysis::{
    certify_exact_splice, certify_fused_splice, certify_stamps, certify_subsumption,
    render_violations,
};
use fusion_core::{analyze_plan, fuse, FuseContext};
use fusion_exec::{
    execute_plan_profiled, Catalog, ExecContext, ExecMetrics, FaultPolicy, ReuseFaultSite,
};
use fusion_expr::{simplify_filter, Expr};
use fusion_plan::{ConstantTable, Filter, LogicalPlan, Project, ProjExpr};

use crate::breaker::FailureBreaker;
use crate::cache::{CachedRows, DepStamps, ReuseCache};
use crate::fingerprint::{canonical_form, position_map, CanonicalForm};

/// Smallest subplan (in plan nodes) considered for sharing. Two
/// excludes bare table scans: sharing a full-table materialization costs
/// more memory than it saves work.
const MIN_NODES: usize = 2;

/// Ceiling on cross-query `fuse` attempts per batch.
const MAX_FUSE_ATTEMPTS: usize = 64;

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

impl WorkloadOutcome {
    /// Every query on its own plan: nothing shared, nothing to report.
    pub fn unshared(plans: Vec<LogicalPlan>) -> Self {
        WorkloadOutcome {
            notes: vec![Vec::new(); plans.len()],
            plans,
            rejections: Vec::new(),
            report: WorkloadReport::default(),
        }
    }
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
    /// Built by folding `fuse` (members read it through their
    /// compensation and mapping) rather than by exact match (members
    /// *are* the plan, canonically).
    fused: bool,
    members: Vec<GroupMember>,
}

struct GroupMember {
    cand: usize,
    /// Compensating filter over the shared plan's columns (TRUE for exact
    /// members).
    comp: Expr,
    /// Consumer output id -> shared plan column id; ids it does not name
    /// (all of them, for an exact member or a fold's first) are their own.
    mapping: HashMap<ColumnId, ColumnId>,
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
    cache: &mut ReuseCache,
    breaker: &mut FailureBreaker,
    plans: &[LogicalPlan],
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
    gen: &IdGen,
    metrics: &ExecMetrics,
    optimize: Option<OptimizeFn<'_>>,
) -> WorkloadOutcome {
    let mut out = WorkloadOutcome::unshared(plans.to_vec());
    if plans.len() < 2 && cache.is_empty() {
        return out;
    }

    let candidates = collect_candidates(plans);
    let versions = catalog.table_versions();
    let groups = form_groups(cache, &candidates, plans.len(), gen);

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
        let (rewritten, notes, rejections) =
            apply_subsumption(cache, &out.plans[q], catalog, &versions, fault, metrics);
        out.plans[q] = rewritten;
        out.notes[q].extend(notes);
        out.notes[q].extend(rejections.iter().cloned());
        out.rejections.extend(rejections);
    }
    out
}

/// Whether the fault policy fires at `site` for `key` (counted).
fn injected(fault: &FaultPolicy, site: ReuseFaultSite, key: &str, metrics: &ExecMetrics) -> bool {
    let fired = fault.inject_reuse(site, key, 0).is_err();
    if fired {
        metrics.add_fault_injected();
    }
    fired
}

/// Render the delta-refresh suffix for a cache-hit note.
fn refresh_note(hit: &CachedRows) -> String {
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
    let candidates = collect_candidates(std::slice::from_ref(plan));
    let mut result = plan.clone();
    let mut notes = Vec::new();
    let mut rejections = Vec::new();
    let mut taken = Taken::new(1);
    for i in largest_first(&candidates) {
        let c = &candidates[i];
        if !matches!(c.plan, LogicalPlan::Filter(_)) || taken.overlaps(c) {
            continue;
        }
        // Same CacheLookup fault point as exact lookups: a forced miss
        // leaves the consumer on its cold plan.
        let key = format!("subsume/{}", c.form.fingerprint);
        if injected(fault, ReuseFaultSite::CacheLookup, &key, metrics) {
            continue;
        }
        let looked = cache.lookup_subsuming(&c.plan, catalog, versions, metrics);
        notes.extend(cache.drain_rejections());
        let Some((hit, fp)) = looked else {
            continue;
        };
        // The proof is re-derived against the cached entry's *plan* (not
        // its match metadata); an entry that vanished between lookup and
        // certification leaves the consumer cold.
        let Some(cached) = cache.entry_plan(fp) else {
            continue;
        };
        match serve(&result, c, Claim::Subsumed { cached }, &hit, metrics) {
            Ok(rewritten) => {
                metrics.add_subsumption_hit();
                notes.push(format!(
                    "subsumption hit {fp}: certified; consumer served from cached superset through \
                     compensating filter ({} rows{})",
                    hit.rows.len(),
                    refresh_note(&hit),
                ));
                result = rewritten;
                taken.claim(c);
            }
            Err(refusal) if refusal.uncertified => rejections.push(format!(
                "subsumption serve {fp} {}; running cold",
                refusal.why
            )),
            Err(_) => {}
        }
    }
    (result, notes, rejections)
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

fn collect_candidates(plans: &[LogicalPlan]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (query, plan) in plans.iter().enumerate() {
        let mut path = Vec::new();
        walk(plan, query, &mut path, &mut out);
    }
    out
}

fn walk(plan: &LogicalPlan, query: usize, path: &mut Vec<usize>, out: &mut Vec<Candidate>) {
    if shareable_root(plan) && plan.node_count() >= MIN_NODES && contains_scan(plan) {
        out.push(Candidate {
            query,
            path: path.clone(),
            plan: plan.clone(),
            form: canonical_form(plan),
        });
    }
    for (i, child) in plan.children().into_iter().enumerate() {
        path.push(i);
        walk(child, query, path, out);
        path.pop();
    }
}

/// Two paths overlap when one is a prefix of the other (same subtree or
/// nested subtrees).
fn paths_overlap(a: &[usize], b: &[usize]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n]
}

/// The greedy order every pass visits candidates in: largest subplan
/// first, ties by query, then by path.
fn largest_first(candidates: &[Candidate]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&x, &y| {
        let (x, y) = (&candidates[x], &candidates[y]);
        (y.plan.node_count().cmp(&x.plan.node_count()))
            .then_with(|| x.query.cmp(&y.query))
            .then_with(|| x.path.cmp(&y.path))
    });
    order
}

/// The regions of each query a splice or a group has already claimed; a
/// candidate inside, or around, one of them is skipped.
struct Taken(Vec<Vec<Vec<usize>>>);

impl Taken {
    fn new(n_queries: usize) -> Self {
        Taken(vec![Vec::new(); n_queries])
    }

    fn overlaps(&self, c: &Candidate) -> bool {
        self.0[c.query].iter().any(|p| paths_overlap(p, &c.path))
    }

    fn claim(&mut self, c: &Candidate) {
        self.0[c.query].push(c.path.clone());
    }

    fn release(&mut self, c: &Candidate) {
        self.0[c.query].retain(|p| p != &c.path);
    }
}

// ---------------------------------------------------------------------
// Group formation
// ---------------------------------------------------------------------

fn form_groups(
    cache: &ReuseCache,
    candidates: &[Candidate],
    n_queries: usize,
    gen: &IdGen,
) -> Vec<Group> {
    // Greedy: prefer sharing the largest subplans.
    let order = largest_first(candidates);

    // Which encodings qualify for exact sharing: seen in >= 2 distinct
    // queries, or resident in the cache (the lookup then serves,
    // refreshes or evicts it).
    let mut query_span: HashMap<&str, Vec<usize>> = HashMap::new();
    for c in candidates {
        let qs = query_span.entry(c.form.encoding.as_str()).or_default();
        if !qs.contains(&c.query) {
            qs.push(c.query);
        }
    }

    let mut taken = Taken::new(n_queries);
    let mut exact: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut exact_order: Vec<&str> = Vec::new();

    for &i in &order {
        let c = &candidates[i];
        let enc = c.form.encoding.as_str();
        let spans = query_span.get(enc).map(|q| q.len()).unwrap_or(0);
        let cached = cache.contains(c.form.fingerprint, enc);
        if spans < 2 && !cached {
            continue;
        }
        if taken.overlaps(c) {
            continue;
        }
        taken.claim(c);
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
            .is_some_and(|&i| cache.contains(candidates[i].form.fingerprint, enc));
        if members.len() < 2 && !cached {
            // Conflicts whittled the group below the sharing threshold;
            // release its regions so fusion can still use them.
            for &i in &members {
                taken.release(&candidates[i]);
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
                    mapping: HashMap::new(),
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
        if taken.overlaps(c) {
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
            if taken.overlaps(c) {
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
            mapping: HashMap::new(),
        }];
        for &i in &distinct[1..] {
            if attempts >= MAX_FUSE_ATTEMPTS {
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
                mapping: f.mapping.clone(),
            });
            plan = f.plan;
        }
        if members.len() < 2 {
            continue;
        }
        for m in &members {
            taken.claim(&candidates[m.cand]);
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
    let fp = group.form.fingerprint;
    let fp_key = fp.to_string();
    let mut queries: Vec<usize> = group
        .members
        .iter()
        .map(|m| candidates[m.cand].query)
        .collect();
    queries.sort_unstable();
    queries.dedup();
    // A note about the group as a whole, on every query it serves.
    let note_all = |out: &mut WorkloadOutcome, note: String| {
        for &q in &queries {
            out.notes[q].push(note.clone());
        }
    };

    let violations = analyze_plan(&group.plan);
    if !violations.is_empty() {
        let n = violations.len();
        note_all(out, format!("reuse group {fp} rejected by analyzer ({n} violations)"));
        return;
    }

    // Circuit breaker: a fingerprint whose shared executions keep failing
    // stops forming groups; consumers simply run their originals.
    if !breaker.allows(fp.0) {
        note_all(
            out,
            format!(
                "reuse group {fp}: circuit breaker open after repeated shared failures; \
                 running unshared"
            ),
        );
        return;
    }

    let fault = ctx.fault_policy();
    // CacheLookup fault point: a forced miss — fall through to cold
    // execution rather than trusting the warm entry.
    let hit = if injected(fault, ReuseFaultSite::CacheLookup, &fp_key, metrics) {
        None
    } else {
        cache.lookup(fp, &group.form.encoding, catalog, versions, metrics)
    };
    // Maintainability fallbacks recorded during the lookup (e.g. a
    // float-SUM entry that could not be refreshed in place) are typed
    // notes for every consumer, never strict failures.
    for note in cache.drain_rejections() {
        note_all(out, note);
    }
    // A resident entry whose columns cannot be matched, slot for slot,
    // to the group plan's is not this plan's result, whatever its key
    // says: a miss. Drop it, run cold and re-admit.
    let hit = match hit {
        Some(h) if !same_columns(&group.form.slots, &h.slots) => {
            cache.evict(fp, metrics);
            note_all(
                out,
                format!(
                    "reuse group {fp}: cached entry's columns do not match the shared plan's; \
                     evicted, executing cold"
                ),
            );
            None
        }
        hit => hit,
    };
    let cache_hit = hit.is_some();
    let shared = match hit {
        Some(hit) => hit,
        None => {
            // Run the shared plan through the caller's optimizer when the
            // result keeps the output layout (the slots describe it by
            // position, so field order and types must survive; ids and
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
                    group.members.iter().for_each(|_| metrics.add_consumer_detached());
                    note_all(
                        out,
                        format!(
                            "shared subplan {fp} failed ({e}); consumer detached, \
                             re-executing unshared"
                        ),
                    );
                    return;
                }
            };
            breaker.record_success(fp.0);
            metrics.add_shared_subplan_executed();
            CachedRows {
                checksum: rows_checksum(&executed.rows),
                rows: Arc::new(executed.rows),
                slots: group.form.slots.clone(),
                refreshed_delta_rows: None,
            }
        }
    };

    let mut spliced = 0usize;
    for (i, m) in group.members.iter().enumerate() {
        let c = &candidates[m.cand];
        // Splice fault point: detaches just this consumer; the rest of
        // the group keeps sharing.
        if injected(fault, ReuseFaultSite::Splice, &format!("{fp_key}/{i}"), metrics) {
            metrics.add_consumer_detached();
            out.notes[c.query].push(format!(
                "reuse group {fp}: injected splice fault; consumer detached, running unshared"
            ));
            continue;
        }
        // Exact members re-derive canonical equality; fused members
        // discharge the mapping/compensation obligations of §III.A.
        let claim = if group.fused {
            Claim::Fused {
                shared: &group.plan,
                slots: &group.form.slots,
                mapping: &m.mapping,
                comp: &m.comp,
                gen,
            }
        } else {
            Claim::Exact {
                encoding: &group.form.encoding,
            }
        };
        match serve(&out.plans[c.query], c, claim, &shared, metrics) {
            Ok(rewritten) => {
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
                    shared.rows.len(),
                    if cache_hit { ", cached" } else { "" },
                    refresh_note(&shared),
                ));
                out.plans[c.query] = rewritten;
                spliced += 1;
            }
            Err(refusal) => {
                metrics.add_consumer_detached();
                let msg = format!(
                    "reuse group {fp}: splice {}; consumer detached, running unshared",
                    refusal.why
                );
                out.notes[c.query].push(msg.clone());
                if refusal.uncertified {
                    out.rejections.push(msg);
                }
            }
        }
    }

    // Admission happens strictly after the complete, validated execution
    // and after splicing — never mid-flight — gated by the CacheAdmit
    // fault point (a skipped admission only costs future batches a warm
    // hit). The CacheCorrupt point then silently flips a cached value so
    // chaos runs exercise the checksum defense on the next lookup.
    let admit = !cache_hit && !injected(fault, ReuseFaultSite::CacheAdmit, &fp_key, metrics);
    if let Some(deps) = DepStamps::for_plan(&group.plan, versions).filter(|_| admit) {
        // Certificate gate: the canonical stamps must be re-proven
        // consistent with the plan's scanned tables and the live
        // catalog before the entry becomes servable to future batches.
        match certify_stamps(&group.plan, deps.as_slice(), versions) {
            Ok(_) => {
                metrics.add_reuse_certificate_issued();
                cache.admit(
                    fp,
                    &group.form.encoding,
                    Arc::clone(&shared.rows),
                    group.form.slots.clone(),
                    &group.plan,
                    deps,
                    metrics,
                );
                if injected(fault, ReuseFaultSite::CacheCorrupt, &fp_key, metrics) {
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
                note_all(out, msg.clone());
                out.rejections.push(msg);
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
        rows: shared.rows.len(),
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

/// Whether two slot lists name the same columns, each as often, in any
/// order.
fn same_columns(a: &[String], b: &[String]) -> bool {
    a.len() == b.len() && position_map(a, b).is_some()
}

/// What a consumer claims about a shared result, for the prover to
/// certify and [`splice`] to build.
enum Claim<'a> {
    /// The consumer is canonically the plan that produced the rows: the
    /// leaf carries the consumer's own columns, no `C`, no `M`.
    Exact { encoding: &'a str },
    /// The consumer is `σ_p(I)` and the rows are the cached plan's
    /// `σ_q(I)`, q's conjuncts a strict subset of p's: the leaf carries
    /// `I`'s columns and `C` is all of p — σ_p(σ_q(I)) = σ_p(I), so no
    /// predicate surgery, and row order matches a cold run.
    Subsumed { cached: &'a LogicalPlan },
    /// The consumer is one member of the fused plan `shared` (whose
    /// columns are `slots`): the leaf carries those under fresh ids (one
    /// schema is spliced into several queries, and ids stay unique per
    /// plan), `C` is `comp` and `M` is `mapping`.
    Fused {
        shared: &'a LogicalPlan,
        slots: &'a [String],
        mapping: &'a HashMap<ColumnId, ColumnId>,
        comp: &'a Expr,
        gen: &'a IdGen,
    },
}

/// Why a consumer keeps its own plan; `uncertified` when it was the
/// prover that refused the claim (strict batches fail on those).
struct Refusal {
    uncertified: bool,
    why: String,
}

/// Serve the consumer `c` of `query` from `stored`: certify the claim,
/// splice, check the rewritten query. On a refusal `query` stays as it is.
fn serve(
    query: &LogicalPlan,
    c: &Candidate,
    claim: Claim<'_>,
    stored: &CachedRows,
    metrics: &ExecMetrics,
) -> Result<LogicalPlan, Refusal> {
    // Re-proven from the plans themselves before any shared row is served.
    let certificate = match &claim {
        Claim::Exact { encoding } => certify_exact_splice(&c.plan, encoding, &stored.slots),
        Claim::Subsumed { cached } => certify_subsumption(cached, &c.plan),
        Claim::Fused {
            shared,
            mapping,
            comp,
            ..
        } => certify_fused_splice(&c.plan, shared, &stored.slots, mapping, comp),
    };
    let refuse = |uncertified, why| Refusal { uncertified, why };
    if let Err(v) = certificate {
        metrics.add_reuse_certificate_rejected();
        let why = format!("rejected by reuse prover ({})", render_violations(&v));
        return Err(refuse(true, why));
    }
    metrics.add_reuse_certificate_issued();
    let replacement = splice(c, &claim, stored)
        .map_err(|e| refuse(false, format!("could not be aligned ({e})")))?;
    let rewritten = replace_at(query, &c.path, replacement);
    if rewritten.validate().is_ok() && analyze_plan(&rewritten).is_empty() {
        Ok(rewritten)
    } else {
        Err(refuse(false, "failed validation".into()))
    }
}

/// The paper's `Project_M(Filter_C(P))` over the one stored computation
/// of `P`: a leaf that reads the stored rows in place, each of its
/// columns bound to the stored position with the same canonical slot,
/// under the claim's `C` and `M` where it has them.
fn splice(c: &Candidate, claim: &Claim<'_>, stored: &CachedRows) -> Result<LogicalPlan, String> {
    let input_form;
    let (fields, slots, filter, project): (Vec<Field>, &[String], _, _) = match claim {
        Claim::Exact { .. } => (c.plan.schema().fields().to_vec(), &c.form.slots, None, None),
        Claim::Subsumed { .. } => {
            let LogicalPlan::Filter(f) = &c.plan else {
                return Err("a subsumed consumer must be filter-rooted".into());
            };
            input_form = canonical_form(&f.input);
            let fields = f.input.schema().fields().to_vec();
            (fields, &input_form.slots, Some(f.predicate.clone()), None)
        }
        Claim::Fused {
            shared,
            slots,
            mapping,
            comp,
            gen,
        } => {
            let schema = shared.schema();
            let fresh: HashMap<ColumnId, ColumnId> =
                schema.fields().iter().map(|f| (f.id, gen.fresh())).collect();
            let fields = schema
                .fields()
                .iter()
                .map(|f| Field::new(fresh[&f.id], f.name.clone(), f.data_type, f.nullable))
                .collect();
            let exprs = c
                .plan
                .schema()
                .fields()
                .iter()
                .map(|f| {
                    let src = mapping.get(&f.id).copied().unwrap_or(f.id);
                    let src = fresh.get(&src).ok_or_else(|| {
                        format!("column {}#{} maps outside the shared plan", f.name, f.id.0)
                    })?;
                    Ok(ProjExpr::new(f.id, f.name.clone(), Expr::Column(*src)))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let comp = (!comp.is_true_literal()).then(|| comp.map_columns(&fresh));
            (fields, *slots, comp, Some(exprs))
        }
    };
    let columns = position_map(slots, &stored.slots)
        .filter(|columns| columns.len() == fields.len())
        .ok_or("its slots are not among the stored ones")?;
    let leaf = ConstantTable::shared(
        fields,
        columns,
        Arc::clone(&stored.rows),
        stored.checksum,
        stored.slots.len(),
    )
    .map_err(|e| e.to_string())?;
    let mut plan = LogicalPlan::ConstantTable(leaf);
    if let Some(predicate) = filter {
        plan = LogicalPlan::Filter(Filter {
            input: Box::new(plan),
            predicate,
        });
    }
    if let Some(exprs) = project {
        plan = LogicalPlan::Project(Project {
            input: Box::new(plan),
            exprs,
        });
    }
    Ok(plan)
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
