//! The reuse-soundness prover.
//!
//! The workload-reuse layer (`fusion-reuse`) performs result-substituting
//! rewrites: a consumer's subplan is replaced by
//! `Project_M(Filter_C(leaf over the shared rows))`, a consumer is served
//! from a cached *superset* through its own filter, and a stale cache
//! entry is refreshed in place by merging a delta execution. Each of those
//! rewrites is exactly where a silent wrong answer would fan out to every
//! consumer in a batch, so none of them may serve rows on the strength of
//! the reuse layer's own bookkeeping. This module is the independent
//! checker: it re-derives, from the plans alone, a typed
//! [`ReuseCertificate`] for every claimed rewrite, and the reuse layer
//! refuses the rewrite (falling back to cold execution) whenever
//! certification fails.
//!
//! Certificate families:
//!
//! * **splice** — [`certify_exact_splice`] proves a consumer subplan
//!   canonically equal to the shared plan with a total slot alignment;
//!   [`certify_fused_splice`] proves the stored rows hold exactly the
//!   fused superset's columns (in whatever fold order they were written)
//!   and the compensation/mapping pair reconstructs the consumer from
//!   them, re-using the
//!   §III.A contract machinery (mapping totality and typing, compensation
//!   reference/typing discipline, and *bidirectional* residual implication
//!   — forward kills widened or swapped compensations, reverse kills
//!   over-narrow ones);
//! * **subsumption** — [`certify_subsumption`] proves the cached plan's
//!   conjunct set is a strict subset of the consumer's over the same base
//!   relation, rendered in canonical slot space so projection-narrowed
//!   supersets with *computed* output expressions are in scope: a slot
//!   string *is* the rendered expression computing that position, so
//!   conjuncts over projected columns and conjuncts over the base compare
//!   in one string space, and `Project` preserves row count and order;
//! * **maintainability** — [`certify_maintainability`] derives how a
//!   cached result can be kept warm under a pure append: row-stream
//!   append for lattice-certified append-distributive single-table
//!   chains, group-wise merge for aggregates whose every function passes
//!   the [`aggregate_mergeable`] function × type table. Float `SUM`,
//!   `AVG` and `DISTINCT` are rejected with typed reasons;
//! * **stamps** — [`certify_stamps`] proves a cache entry's dependency
//!   stamps are canonical (sorted, deduped, catalog-cased) and are
//!   exactly the scanned-table set at the current catalog versions.
//!
//! Every rejection carries a stable `FUSION_ANALYSIS_REUSE_*` code
//! ([`AnalysisCode::ReuseSplice`] and friends) so EXPLAIN traces, the
//! mutation self-test, and CI can match on the family that fired.

use std::collections::{BTreeSet, HashMap};

use fusion_common::{ColumnId, DataType};
use fusion_expr::{AggFunc, Expr};
use fusion_plan::LogicalPlan;

use super::canon::{
    self, canonical_form, position_map, rendered_conjuncts, resolve_of,
};
use super::contract::{check_aggregate_side, check_direction, conjunct_exprs, implied, types_compatible};
use super::lattice::props;
use super::{AnalysisCode, Violation};
use crate::fuse::Fused;

/// How a cached subplan's result can be maintained under a pure append to
/// its base table(s). Derived by [`certify_maintainability`]; the reuse
/// cache executes whatever shape the prover certifies. See `DESIGN.md`
/// §16 for the decision table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainShape {
    /// Append-distributive single-table chain (certified through the
    /// property lattice): re-executing over only the delta partitions and
    /// appending the delta rows reproduces a cold run exactly (appended
    /// partitions land at the end of the partition order).
    AppendRows,
    /// Aggregate — bare, or under column-only `Project`s — over an
    /// append-distributive input whose aggregate functions all merge
    /// losslessly from *finished* values: group-wise merge of the cached
    /// rows with the delta's partial aggregate, re-sorted by group key to
    /// match the executor's deterministic output order. Positions are in
    /// the cached row layout (post-projection when a `Project` sits on
    /// top), so the merge works directly on the rows as cached.
    MergeAggregate {
        /// Expected cached/delta row arity.
        arity: usize,
        /// Positions of the grouping columns, in `group_by` order — the
        /// merge key, and the sort key a cold run orders output by.
        key_positions: Vec<usize>,
        /// Positions carrying finished aggregate values, with the merge
        /// function for each.
        agg_positions: Vec<(usize, AggFunc)>,
    },
}

/// A discharged proof obligation for one reuse rewrite. Carries enough of
/// the derivation to be asserted on in tests and rendered in traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseCertificate {
    /// Consumer subplan proven canonically equal to the shared plan;
    /// `positions[j]` is the shared output position feeding consumer
    /// position `j`.
    ExactSplice { positions: Vec<usize> },
    /// Compensation/mapping pair proven to reconstruct the consumer from
    /// the fused superset, whose stored rows are proven to hold exactly
    /// the superset's columns.
    FusedSplice {
        /// `positions[j]` is the stored position holding the shared
        /// plan's output column `j` — by slot identity, whatever order the
        /// fold that produced the stored rows laid them out in.
        positions: Vec<usize>,
        /// Consumer output columns proven mapped and type-compatible.
        mapped_columns: usize,
        /// Conjuncts of the consumer's (mapped) predicate discharged
        /// against the compensated side (0 for non-filter roots).
        residual_conjuncts: usize,
    },
    /// Cached superset proven to strictly subsume the consumer.
    Subsumption {
        /// Consumer conjuncts beyond the cached set (≥ 1 by strictness).
        extra_conjuncts: usize,
        /// `Project` levels peeled (cached side + consumer side) to reach
        /// the common filtered base relation.
        peeled_projects: usize,
    },
    /// Refresh shape proven maintainable under pure appends.
    Maintain(MaintainShape),
    /// Dependency stamps proven canonical and current.
    Stamps {
        /// Distinct base tables stamped.
        tables: usize,
    },
}

impl ReuseCertificate {
    /// Short human-readable tag for EXPLAIN notes.
    pub fn describe(&self) -> String {
        match self {
            ReuseCertificate::ExactSplice { positions } => {
                format!("exact-splice[{} cols]", positions.len())
            }
            ReuseCertificate::FusedSplice {
                mapped_columns,
                residual_conjuncts,
                ..
            } => format!(
                "fused-splice[{mapped_columns} cols, {residual_conjuncts} residual conjuncts]"
            ),
            ReuseCertificate::Subsumption {
                extra_conjuncts,
                peeled_projects,
            } => format!(
                "subsumption[{extra_conjuncts} extra conjuncts, {peeled_projects} projections]"
            ),
            ReuseCertificate::Maintain(MaintainShape::AppendRows) => "maintain[append-rows]".into(),
            ReuseCertificate::Maintain(MaintainShape::MergeAggregate { agg_positions, .. }) => {
                format!("maintain[merge-aggregate, {} agg cols]", agg_positions.len())
            }
            ReuseCertificate::Stamps { tables } => format!("stamps[{tables} tables]"),
        }
    }
}

fn reject(code: AnalysisCode, msg: impl Into<String>) -> Vec<Violation> {
    vec![Violation::new(code, msg)]
}

// ---------------------------------------------------------------------
// Splice certificates
// ---------------------------------------------------------------------

/// Certify an *exact* splice: the consumer's subplan is claimed
/// canonically identical to the shared plan whose rows (in the layout of
/// `shared_slots`) will replace it. The claim is re-derived from the
/// consumer plan itself — the caller's cached `CanonicalForm` is not
/// trusted — and discharged by encoding equality plus a total slot
/// alignment covering every consumer output position.
pub fn certify_exact_splice(
    consumer: &LogicalPlan,
    shared_encoding: &str,
    shared_slots: &[String],
) -> Result<ReuseCertificate, Vec<Violation>> {
    let form = canonical_form(consumer);
    if form.encoding != shared_encoding {
        return Err(reject(
            AnalysisCode::ReuseSplice,
            "consumer subplan is not canonically equal to the shared plan \
             (encoding mismatch); direct row substitution would serve a \
             different relation",
        ));
    }
    let Some(positions) = position_map(&form.slots, shared_slots) else {
        return Err(reject(
            AnalysisCode::ReuseSplice,
            format!(
                "consumer output slots are not a sub-multiset of the shared \
                 plan's {} slots; row alignment is not total",
                shared_slots.len()
            ),
        ));
    };
    if positions.len() != consumer.schema().fields().len() {
        return Err(reject(
            AnalysisCode::ReuseSplice,
            format!(
                "slot alignment covers {} positions but the consumer schema \
                 has {}",
                positions.len(),
                consumer.schema().fields().len()
            ),
        ));
    }
    Ok(ReuseCertificate::ExactSplice { positions })
}

/// Certify a *fused* splice: the consumer is claimed reconstructible from
/// the fused superset `shared` as `Project_M(Filter_comp(shared rows))`,
/// the rows being stored in the layout `stored_slots` describes.
///
/// Obligations, in order:
///
/// 1. `stored_slots` is a permutation of the shared plan's own slots,
///    re-derived here. A fused plan's canonical encoding — the cache key —
///    does not depend on the order its members were folded in, but its
///    column order does: a warm entry may hold the same columns in
///    another fold's order, and is read by slot, never by position. An
///    entry that lacks a column, or holds one the plan does not produce,
///    is not this plan's result;
/// 2. `M` total and type-preserving: every consumer output column maps
///    (identity where unmapped) onto a column the shared plan produces, of
///    compatible type;
/// 3. `comp` references only shared outputs and is boolean over the
///    shared schema;
/// 4. filter-rooted residual equality, **both directions**: every
///    conjunct of the consumer's mapped predicate is implied by
///    `comp ∧ shared predicate` (forward — a widened, swapped, or
///    wrong-literal compensation loses a conjunct here), and every
///    conjunct of `comp` is implied by the mapped predicate conjoined
///    with the shared predicate (reverse — an over-narrow compensation
///    would silently drop rows the consumer expects);
/// 5. aggregate-rooted members go through the §III.A aggregate-side
///    check (same function, argument, DISTINCT-ness; masks at least as
///    strict) against a synthetic `Fused` built from the claimed
///    mapping/compensation.
pub fn certify_fused_splice(
    consumer: &LogicalPlan,
    shared: &LogicalPlan,
    stored_slots: &[String],
    mapping: &HashMap<ColumnId, ColumnId>,
    comp: &Expr,
) -> Result<ReuseCertificate, Vec<Violation>> {
    let mut v = Vec::new();
    let shared_schema = shared.schema();

    // 1. The stored rows hold the shared plan's columns, each exactly once.
    let shared_slots = canonical_form(shared).slots;
    let positions = position_map(&shared_slots, stored_slots)
        .filter(|p| p.len() == stored_slots.len())
        .unwrap_or_else(|| {
            v.push(Violation::new(
                AnalysisCode::ReuseSplice,
                format!(
                    "the {} stored slots are not a permutation of the shared \
                     plan's {} output slots; the rows cannot be read as its result",
                    stored_slots.len(),
                    shared_slots.len()
                ),
            ));
            Vec::new()
        });

    // 2. Mapping totality and typing over the consumer's output schema.
    let mut mapped_columns = 0usize;
    for f in consumer.schema().fields() {
        let src = mapping.get(&f.id).copied().unwrap_or(f.id);
        match shared_schema.field_by_id(src) {
            None => v.push(Violation::new(
                AnalysisCode::ReuseSplice,
                format!(
                    "consumer column {}#{} maps to #{} which the shared plan \
                     does not produce",
                    f.name, f.id.0, src.0
                ),
            )),
            Some(sf) if !types_compatible(f.data_type, sf.data_type) => {
                v.push(Violation::new(
                    AnalysisCode::ReuseSplice,
                    format!(
                        "consumer column {}#{} ({:?}) maps to #{} of \
                         incompatible type {:?}",
                        f.name, f.id.0, f.data_type, src.0, sf.data_type
                    ),
                ));
            }
            Some(_) => mapped_columns += 1,
        }
    }

    // 3. Compensation reference and typing discipline.
    for c in comp.columns() {
        if !shared_schema.contains(c) {
            v.push(Violation::new(
                AnalysisCode::ReuseSplice,
                format!(
                    "compensation references column #{} outside the shared \
                     schema",
                    c.0
                ),
            ));
        }
    }
    match comp.data_type(&shared_schema) {
        Ok(DataType::Boolean) => {}
        Ok(other) => v.push(Violation::new(
            AnalysisCode::ReuseSplice,
            format!("compensation has type {other:?}, expected Boolean"),
        )),
        Err(e) => {
            if comp.columns().iter().all(|c| shared_schema.contains(*c)) {
                v.push(Violation::new(
                    AnalysisCode::ReuseSplice,
                    format!("compensation does not type-check: {e}"),
                ));
            }
        }
    }

    // 4. Bidirectional residual equality for filter-rooted members.
    let mut residual_conjuncts = 0usize;
    if let (LogicalPlan::Filter(cf), LogicalPlan::Filter(sf)) = (consumer, shared) {
        let mapped_pred = cf.predicate.map_columns(mapping);
        let before = v.len();
        check_direction("reuse", &mapped_pred, comp, &sf.predicate, &mut v);
        let forward_ok = v.len() == before;
        if forward_ok {
            residual_conjuncts = conjunct_exprs(&mapped_pred).map(|c| c.len()).unwrap_or(0);
        }
        // Reverse: comp must not filter harder than the consumer asked.
        if let (Some(targets), Some(avail)) = (
            conjunct_exprs(comp),
            conjunct_exprs(&mapped_pred.clone().and(sf.predicate.clone())),
        ) {
            let available: BTreeSet<String> = avail.iter().map(|c| c.to_string()).collect();
            for t in targets {
                if !implied(&t, &available) {
                    v.push(Violation::new(
                        AnalysisCode::ReuseSplice,
                        format!(
                            "compensation conjunct `{t}` is not implied by the \
                             consumer's own predicate over the shared rows; \
                             the splice would drop rows the consumer expects"
                        ),
                    ));
                }
            }
        }
    }

    // 5. Aggregate-rooted members: reuse the contract's aggregate check
    //    through a synthetic Fused carrying the claimed mapping/comp.
    if let (LogicalPlan::Aggregate(ca), LogicalPlan::Aggregate(sa)) = (consumer, shared) {
        let synthetic = Fused {
            plan: shared.clone(),
            mapping: mapping.clone(),
            left: Expr::boolean(true),
            right: comp.clone(),
        };
        let before = v.len();
        check_aggregate_side("consumer", ca, Some(&synthetic), sa, &mut v);
        // Re-code the contract-layer violations under the reuse family so
        // rejection notes carry FUSION_ANALYSIS_REUSE_SPLICE.
        for viol in v.iter_mut().skip(before) {
            viol.code = AnalysisCode::ReuseSplice;
        }
    }

    if v.is_empty() {
        Ok(ReuseCertificate::FusedSplice {
            positions,
            mapped_columns,
            residual_conjuncts,
        })
    } else {
        Err(v)
    }
}

// ---------------------------------------------------------------------
// Subsumption certificates
// ---------------------------------------------------------------------

/// Certify a subsumption serve: the `cached` plan's rows are claimed a
/// strict superset of the `consumer`'s, recoverable by re-applying the
/// consumer's own predicate.
///
/// Derivation: peel `Project`s off the cached plan to its filter
/// `σ_q(Y)`; the consumer must be `σ_p(X)` where `X` — possibly under its
/// own `Project` stack — canonically equals `Y`. Conjuncts of `q`
/// (rendered over `Y`'s slots) and of `p` (rendered over `X`'s slots,
/// which *are* rendered expressions over the same base) then live in one
/// canonical string space, and the obligation is strict containment
/// `q ⊊ p`: every cached conjunct is carried by the consumer, and the
/// consumer filters strictly harder. Finally the consumer's input slots
/// must all be recoverable from the cached plan's output slots, so the
/// serving splice can align rows position-by-position. `Project` is
/// row-count- and order-preserving, so
/// `σ_p(π_E(σ_q(I))) = σ_p(π_E(I))` whenever `q ⊆ p` — which covers
/// projection-narrowed supersets with computed output expressions, not
/// just column-only narrowing.
pub fn certify_subsumption(
    cached: &LogicalPlan,
    consumer: &LogicalPlan,
) -> Result<ReuseCertificate, Vec<Violation>> {
    let mut v = Vec::new();
    let mut sup = cached;
    let mut peeled = 0usize;
    while let LogicalPlan::Project(p) = sup {
        sup = &p.input;
        peeled += 1;
    }
    let LogicalPlan::Filter(fq) = sup else {
        return Err(reject(
            AnalysisCode::ReuseSubsumption,
            "cached plan is not filter-rooted under its projections; its rows \
             carry no conjunct set to subsume through",
        ));
    };
    let LogicalPlan::Filter(fp) = consumer else {
        return Err(reject(
            AnalysisCode::ReuseSubsumption,
            "consumer is not filter-rooted; it cannot recover an exact result \
             from a superset by re-filtering",
        ));
    };

    let (q_enc, q_slots) = canon::encode(&fq.input);
    // Descend the consumer's filter input through its own projections
    // until it canonically matches the cached filter's input. Trying the
    // un-peeled input first keeps the plain `σ_p(I)` vs `σ_q(I)` case
    // exact even when `I` itself contains projections.
    let mut x: &LogicalPlan = &fp.input;
    loop {
        if canon::encode(x).0 == q_enc {
            break;
        }
        match x {
            LogicalPlan::Project(p) => {
                x = &p.input;
                peeled += 1;
            }
            _ => {
                return Err(reject(
                    AnalysisCode::ReuseSubsumption,
                    "consumer and cached subplans do not filter the same \
                     canonical base relation",
                ));
            }
        }
    }

    let (_, x_slots) = canon::encode(&fp.input);
    let rp = resolve_of(&fp.input, &x_slots);
    let rq = resolve_of(&fq.input, &q_slots);
    let p_set = rendered_conjuncts(&fp.predicate, &rp);
    let q_set = rendered_conjuncts(&fq.predicate, &rq);
    for c in &q_set {
        if !p_set.contains(c) {
            v.push(Violation::new(
                AnalysisCode::ReuseSubsumption,
                format!(
                    "cached conjunct `{c}` is not carried by the consumer's \
                     predicate; the cached rows already dropped rows the \
                     consumer may need"
                ),
            ));
        }
    }
    if v.is_empty() && p_set.len() <= q_set.len() {
        v.push(Violation::new(
            AnalysisCode::ReuseSubsumption,
            "consumer predicate is not strictly narrower than the cached \
             predicate; an equal set is an exact match, not a subsumption",
        ));
    }
    // Serving alignment: every consumer input slot must be recoverable
    // from the cached plan's (possibly projection-narrowed) outputs.
    let (_, cached_slots) = canon::encode(cached);
    if position_map(&x_slots, &cached_slots).is_none() {
        v.push(Violation::new(
            AnalysisCode::ReuseSubsumption,
            "cached projection dropped columns the consumer's filter input \
             needs; rows cannot be aligned",
        ));
    }
    if !v.is_empty() {
        return Err(v);
    }
    Ok(ReuseCertificate::Subsumption {
        extra_conjuncts: p_set.len() - q_set.len(),
        peeled_projects: peeled,
    })
}

// ---------------------------------------------------------------------
// Maintainability certificates
// ---------------------------------------------------------------------

/// The per-aggregate mergeability table, keyed by function × argument
/// type: `Ok(())` when finished values of `func` over an argument of `ty`
/// merge losslessly with a delta partial (bit-identical to a cold
/// recompute), `Err(reason)` otherwise.
///
/// | function            | argument type | mergeable | why not |
/// |---------------------|---------------|-----------|---------|
/// | COUNT / COUNT(*)    | any           | yes       | |
/// | MIN / MAX           | any           | yes       | |
/// | SUM                 | Int64         | yes       | |
/// | SUM                 | Float64       | no        | `old + delta` regroups float additions; not bit-identical to a left-to-right fold |
/// | AVG                 | any           | no        | finished means carry no counts to reweight |
/// | any DISTINCT        | any           | no        | finished values carry no per-group value sets |
pub fn aggregate_mergeable(
    func: AggFunc,
    distinct: bool,
    ty: Option<DataType>,
) -> Result<(), String> {
    if distinct {
        return Err(format!(
            "DISTINCT {func} cannot merge from finished values (per-group \
             value sets were not retained)"
        ));
    }
    match func {
        AggFunc::Count | AggFunc::CountStar | AggFunc::Min | AggFunc::Max => Ok(()),
        AggFunc::Sum => match ty {
            Some(DataType::Int64) => Ok(()),
            other => Err(format!(
                "SUM over {other:?} does not merge bit-identically: \
                 `old_total + delta_total` regroups the additions relative to \
                 a cold left-to-right fold"
            )),
        },
        AggFunc::Avg => Err(
            "AVG cannot merge from finished values (needs the per-group \
             counts to reweight the mean)"
            .into(),
        ),
    }
}

/// What a chain of `Project`s bottoms out in, for maintainability
/// classification.
enum Chain<'a> {
    /// Column-only projections over an `Aggregate`: per output position of
    /// the chain root, the aggregate-schema column id it carries.
    Aggregate(Vec<ColumnId>, &'a fusion_plan::Aggregate),
    /// Some projection level computes an expression over an
    /// aggregate-rooted chain (merging finished values through arithmetic
    /// is not possible).
    ComputedOverAggregate,
    /// A grouping column was dropped by the projections (cached groups
    /// could collide in the row layout).
    DroppedGroupKey,
    /// The chain does not bottom out in an `Aggregate`; the row-stream
    /// path decides.
    NotAggregate,
}

fn project_chain(plan: &LogicalPlan) -> Chain<'_> {
    match plan {
        LogicalPlan::Aggregate(a) => {
            let ids = a
                .group_by
                .iter()
                .copied()
                .chain(a.aggregates.iter().map(|x| x.id))
                .collect();
            Chain::Aggregate(ids, a)
        }
        LogicalPlan::Project(p) => {
            let inner = project_chain(&p.input);
            let Chain::Aggregate(inner_src, agg) = inner else {
                return inner;
            };
            let inner_schema = p.input.schema();
            let mut out = Vec::with_capacity(p.exprs.len());
            for pe in &p.exprs {
                let Expr::Column(id) = &pe.expr else {
                    return Chain::ComputedOverAggregate;
                };
                let Some(j) = inner_schema.fields().iter().position(|f| f.id == *id) else {
                    return Chain::NotAggregate; // dangling ref; not maintainable
                };
                out.push(inner_src[j]);
            }
            // Every grouping column must survive the projection level.
            if agg.group_by.iter().any(|g| !out.contains(g)) {
                return Chain::DroppedGroupKey;
            }
            Chain::Aggregate(out, agg)
        }
        _ => Chain::NotAggregate,
    }
}

/// Derive the maintainability certificate for a cached subplan: how (if
/// at all) its result can be refreshed in place under a pure append.
/// Non-maintainable shapes get typed [`AnalysisCode::ReuseMaintain`]
/// reasons; the cache records them and falls back to
/// evict-and-recompute, which is always sound.
pub fn certify_maintainability(
    plan: &LogicalPlan,
) -> Result<ReuseCertificate, Vec<Violation>> {
    match project_chain(plan) {
        Chain::Aggregate(src_ids, agg) => {
            let mut v = Vec::new();
            if !props(&agg.input).append_distributive {
                v.push(Violation::new(
                    AnalysisCode::ReuseMaintain,
                    format!(
                        "aggregate input ({}) does not distribute over \
                         appends; a delta execution cannot reproduce its rows",
                        agg.input.op_name()
                    ),
                ));
            }
            let input_schema = agg.input.schema();
            let mut funcs = Vec::with_capacity(agg.aggregates.len());
            for a in &agg.aggregates {
                let ty = a
                    .agg
                    .arg
                    .as_ref()
                    .and_then(|e| e.data_type(&input_schema).ok());
                match aggregate_mergeable(a.agg.func, a.agg.distinct, ty) {
                    Ok(()) => funcs.push(a.agg.func),
                    Err(reason) => v.push(Violation::new(
                        AnalysisCode::ReuseMaintain,
                        format!("aggregate {}#{}: {reason}", a.name, a.id.0),
                    )),
                }
            }
            if !v.is_empty() {
                return Err(v);
            }
            let mut key_positions = Vec::with_capacity(agg.group_by.len());
            for gid in &agg.group_by {
                match src_ids.iter().position(|id| id == gid) {
                    Some(p) => key_positions.push(p),
                    None => {
                        return Err(reject(
                            AnalysisCode::ReuseMaintain,
                            "grouping column missing from the cached row \
                             layout; distinct groups could collide on merge",
                        ));
                    }
                }
            }
            let mut agg_positions = Vec::new();
            for (pos, id) in src_ids.iter().enumerate() {
                if let Some(j) = agg.aggregates.iter().position(|a| a.id == *id) {
                    agg_positions.push((pos, funcs[j]));
                }
            }
            Ok(ReuseCertificate::Maintain(MaintainShape::MergeAggregate {
                arity: src_ids.len(),
                key_positions,
                agg_positions,
            }))
        }
        Chain::ComputedOverAggregate => Err(reject(
            AnalysisCode::ReuseMaintain,
            "projection computes an expression over aggregate outputs; \
             finished values cannot be merged through arithmetic",
        )),
        Chain::DroppedGroupKey => Err(reject(
            AnalysisCode::ReuseMaintain,
            "projection drops a grouping column; distinct groups could \
             collide in the cached row layout",
        )),
        Chain::NotAggregate => {
            if !props(plan).append_distributive {
                return Err(reject(
                    AnalysisCode::ReuseMaintain,
                    format!(
                        "{} does not distribute over appends; delta rows \
                         cannot simply be appended to the cached result",
                        plan.op_name()
                    ),
                ));
            }
            let mut tables = plan.scanned_tables();
            tables.sort();
            tables.dedup();
            if tables.len() != 1 {
                return Err(reject(
                    AnalysisCode::ReuseMaintain,
                    format!(
                        "row stream reads {} base tables; a delta execution \
                         cannot reproduce the cold run's interleaving",
                        tables.len()
                    ),
                ));
            }
            Ok(ReuseCertificate::Maintain(MaintainShape::AppendRows))
        }
    }
}

/// Verify a *claimed* maintain shape against the derived one — the
/// defense against a cache whose stored classification drifted from its
/// stored plan (or was corrupted outright).
pub fn check_maintain_claim(
    plan: &LogicalPlan,
    claimed: &MaintainShape,
) -> Result<(), Vec<Violation>> {
    match certify_maintainability(plan) {
        Ok(ReuseCertificate::Maintain(derived)) if &derived == claimed => Ok(()),
        Ok(ReuseCertificate::Maintain(derived)) => Err(reject(
            AnalysisCode::ReuseMaintain,
            format!(
                "claimed maintain shape {claimed:?} but the plan derives \
                 {derived:?}"
            ),
        )),
        Ok(_) => Err(reject(
            AnalysisCode::ReuseMaintain,
            "maintainability derivation returned a non-maintain certificate",
        )),
        Err(v) => Err(v),
    }
}

// ---------------------------------------------------------------------
// Dependency-stamp certificates
// ---------------------------------------------------------------------

/// Certify a cache entry's dependency stamps against its plan and the
/// current catalog versions. Canonical form is load-bearing: lookup
/// compares stamps pairwise against the version map, so duplicated,
/// mis-cased, missing, or phantom stamps each open a distinct
/// wrong-validity hole (an entry that never invalidates, or one that is
/// permanently stale).
pub fn certify_stamps(
    plan: &LogicalPlan,
    deps: &[(String, u64)],
    versions: &HashMap<String, u64>,
) -> Result<ReuseCertificate, Vec<Violation>> {
    let mut v = Vec::new();
    let mut expected: Vec<String> = plan
        .scanned_tables()
        .iter()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    expected.sort();
    expected.dedup();

    for w in deps.windows(2) {
        if w[0].0 >= w[1].0 {
            v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!(
                    "dep stamps not in strictly ascending table order: \
                     `{}` then `{}`",
                    w[0].0, w[1].0
                ),
            ));
        }
    }
    for (t, ver) in deps {
        if *t != t.to_ascii_lowercase() {
            v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!("dep stamp `{t}` is not catalog-cased (lowercase)"),
            ));
        }
        if !expected.iter().any(|e| e == &t.to_ascii_lowercase()) {
            v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!("dep stamp `{t}` names a table the plan never scans"),
            ));
        }
        match versions.get(&t.to_ascii_lowercase()) {
            Some(cur) if cur == ver => {}
            Some(cur) => v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!(
                    "dep stamp `{t}` carries version {ver} but the catalog \
                     is at {cur}"
                ),
            )),
            None => v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!("dep stamp `{t}` names a table missing from the catalog"),
            )),
        }
    }
    for e in &expected {
        if !deps.iter().any(|(t, _)| t == e) {
            v.push(Violation::new(
                AnalysisCode::ReuseStamp,
                format!("scanned table `{e}` has no dep stamp; the entry would never invalidate on its changes"),
            ));
        }
    }
    if !v.is_empty() {
        return Err(v);
    }
    Ok(ReuseCertificate::Stamps {
        tables: expected.len(),
    })
}
