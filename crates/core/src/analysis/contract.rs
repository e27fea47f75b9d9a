//! The Fuse contract checker.
//!
//! `Fuse(P1, P2) → (P, M, L, R)` promises (paper §III.A):
//!
//! 1. `M` is total over `P2`'s schema and type-preserving: every output
//!    column of `P2` maps to a column `P` actually produces, of a
//!    compatible type;
//! 2. `P1`'s columns appear in `P` under their own identities (the left
//!    side keeps its column ids), again type-compatibly;
//! 3. the compensating filters `L` and `R` reference only `P`'s outputs
//!    and are boolean-typed over `P`'s schema;
//! 4. filtering `P` by `L` (resp. `M∘R`) reconstructs `P1` (resp. `P2`):
//!    for filter-rooted fusions the original predicate must be *implied*
//!    by the compensation conjoined with the fused predicate, and for
//!    aggregate-rooted fusions every original masked aggregate must
//!    reappear with the same function/argument and a mask that keeps the
//!    original's conjuncts and adds only conjuncts of the original's own
//!    input filters.
//!
//! Checks 1–3 are exact. Check 4 is a sound approximation built on the
//! engine's expression normalizer: a reconstruction obligation is
//! discharged when each conjunct of the original predicate/mask is
//! implied by the conjunct set of the fused side (set membership after
//! normalization, plus the absorption rule `A ⊨ A ∨ B` that
//! simplification introduces). A legitimate fusion always passes because
//! the fusion paths construct `L`/`R`/masks by conjoining exactly these
//! conjuncts; a corrupted one (swapped or widened compensation, widened
//! mask, retyped aggregate) loses a conjunct, or (a mask read through a
//! crossed mapping) gains one, and is flagged.
//!
//! Conjunct sets, renderings and equivalences come from an [`ExprMemo`]:
//! `Fuse` checks every result at every depth of its recursion, and the
//! memo it carries lets each expression be normalized once per
//! `optimize` call however often it is checked.

use std::collections::{HashMap, HashSet};

use fusion_common::{ColumnId, DataType, Field};
use fusion_expr::{split_conjuncts, Expr};
use fusion_plan::{JoinType, LogicalPlan};

use super::{AnalysisCode, Violation};
use crate::fuse::memo::Conjunct;
use crate::fuse::{ExprMemo, Fused};

/// Check a raw `Fuse` result against the contract, deriving expression
/// forms through `memo`. Empty result = OK.
pub(crate) fn check(
    p1: &LogicalPlan,
    p2: &LogicalPlan,
    f: &Fused,
    memo: &ExprMemo,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let fused_schema = f.plan.schema();
    let p1_schema = p1.schema();
    let p2_schema = p2.schema();
    // The first field of each id, as `Schema::field_by_id` finds it.
    let mut fused_fields: HashMap<ColumnId, &Field> = HashMap::new();
    for ff in fused_schema.fields() {
        fused_fields.entry(ff.id).or_insert(ff);
    }

    // 1. M total and type-preserving over P2's schema.
    for f2 in p2_schema.fields() {
        let target = f.mapped_id(f2.id);
        match fused_fields.get(&target) {
            None => v.push(Violation::new(
                AnalysisCode::MappingNotTotal,
                format!(
                    "P2 column {}#{} maps to #{} which the fused plan does not produce",
                    f2.name, f2.id.0, target.0
                ),
            )),
            Some(ff) if !types_compatible(f2.data_type, ff.data_type) => {
                v.push(Violation::new(
                    AnalysisCode::MappingType,
                    format!(
                        "P2 column {}#{} ({:?}) maps to #{} of incompatible type {:?}",
                        f2.name, f2.id.0, f2.data_type, target.0, ff.data_type
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    // 2. P1's columns survive under their own identities.
    for f1 in p1_schema.fields() {
        match fused_fields.get(&f1.id) {
            None => v.push(Violation::new(
                AnalysisCode::ReconstructLeft,
                format!(
                    "P1 column {}#{} is missing from the fused plan",
                    f1.name, f1.id.0
                ),
            )),
            Some(ff) if !types_compatible(f1.data_type, ff.data_type) => {
                v.push(Violation::new(
                    AnalysisCode::ReconstructLeft,
                    format!(
                        "P1 column {}#{} changed type {:?} -> {:?} in the fused plan",
                        f1.name, f1.id.0, f1.data_type, ff.data_type
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    // 3. L and R reference only P's outputs and are boolean.
    for (side, comp) in [("L", &f.left), ("R", &f.right)] {
        for c in comp.columns() {
            if !fused_fields.contains_key(&c) {
                v.push(Violation::new(
                    AnalysisCode::CompensationRefs,
                    format!(
                        "compensation {side} references column #{} outside the fused schema",
                        c.0
                    ),
                ));
            }
        }
        match comp.data_type(&fused_schema) {
            Ok(DataType::Boolean) => {}
            Ok(other) => v.push(Violation::new(
                AnalysisCode::CompensationType,
                format!("compensation {side} has type {other:?}, expected Boolean"),
            )),
            // Unknown-column type errors are already reported above; an
            // otherwise untypable compensation is still a violation.
            Err(e) => {
                if comp.columns().iter().all(|c| fused_fields.contains_key(c)) {
                    v.push(Violation::new(
                        AnalysisCode::CompensationType,
                        format!("compensation {side} does not type-check: {e}"),
                    ));
                }
            }
        }
    }

    // 4a. Filter-rooted reconstruction: C1 ⊑ L ∧ P.predicate and
    //     M(C2) ⊑ R ∧ P.predicate.
    if let LogicalPlan::Filter(pf) = &f.plan {
        if let LogicalPlan::Filter(f1) = p1 {
            check_direction("L", &f1.predicate, &f.left, &pf.predicate, &mut v, memo);
        }
        if let LogicalPlan::Filter(f2) = p2 {
            let mapped = f.map(&f2.predicate);
            check_direction("R", &mapped, &f.right, &pf.predicate, &mut v, memo);
        }
    }

    // 4b. Aggregate-rooted reconstruction: keys, functions, arguments and
    //     mask discipline.
    if let LogicalPlan::Aggregate(ga) = &f.plan {
        if let LogicalPlan::Aggregate(g1) = p1 {
            check_aggregate_side("P1", g1, None, ga, &mut v, memo);
        }
        if let LogicalPlan::Aggregate(g2) = p2 {
            check_aggregate_side("P2", g2, Some(f), ga, &mut v, memo);
        }
    }

    v
}

/// Same relaxation as structural validation: numeric widening is allowed.
pub(crate) fn types_compatible(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

/// Whether a normalized conjunct set holds a conjunct rendered as `text`
/// (the available sides are a few conjuncts, so a scan beats a set).
pub(crate) fn holds(set: &[Conjunct], text: &str) -> bool {
    set.iter().any(|c| &*c.text == text)
}

/// Require every conjunct of `original` to be implied by
/// `comp ∧ fused_pred`.
pub(crate) fn check_direction(
    side: &str,
    original: &Expr,
    comp: &Expr,
    fused_pred: &Expr,
    v: &mut Vec<Violation>,
    memo: &ExprMemo,
) {
    let Some(targets) = memo.conjuncts(original) else {
        return; // original side provably empty
    };
    let Some(available) = memo.conjuncts(&comp.clone().and(fused_pred.clone())) else {
        return; // compensated side provably empty: selects ⊆ ∅ trivially
    };
    for t in targets.iter() {
        if !t.implied(&|s| holds(&available, s)) {
            v.push(Violation::new(
                AnalysisCode::Direction,
                format!(
                    "compensation {side} does not reconstruct the original filter: \
                     conjunct `{}` is not implied by `{comp} AND {fused_pred}`",
                    t.text
                ),
            ));
        }
    }
}

/// Check one original GroupBy against the fused GroupBy: grouping keys
/// must survive (left: same ids; right: modulo `M`), and each original
/// masked aggregate must reappear with the same function and argument,
/// and a mask that keeps the original's conjuncts and adds only those of
/// the original's input filters.
pub(crate) fn check_aggregate_side(
    side: &str,
    orig: &fusion_plan::Aggregate,
    map_through: Option<&Fused>,
    fused: &fusion_plan::Aggregate,
    v: &mut Vec<Violation>,
    memo: &ExprMemo,
) {
    let fused_groups: HashSet<_> = fused.group_by.iter().copied().collect();
    let remap = |id| match map_through {
        Some(fu) => fu.mapped_id(id),
        None => id,
    };
    for k in &orig.group_by {
        if !fused_groups.contains(&remap(*k)) {
            v.push(Violation::new(
                AnalysisCode::Keys,
                format!(
                    "{side} grouping key #{} (fused #{}) is not a grouping key of the fused GroupBy",
                    k.0,
                    remap(*k).0
                ),
            ));
        }
    }
    if map_through.is_none() && fused.group_by.len() != orig.group_by.len() {
        v.push(Violation::new(
            AnalysisCode::Keys,
            format!(
                "fused GroupBy has {} grouping keys, P1 has {}",
                fused.group_by.len(),
                orig.group_by.len()
            ),
        ));
    }

    // Conjuncts of the filter (if any) directly under the fused GroupBy:
    // an original filter conjunct may be discharged there instead of in
    // the masks.
    let spine = match fused.input.as_ref() {
        LogicalPlan::Filter(ff) => memo.conjuncts(&ff.predicate),
        _ => None,
    };
    let on_spine = |s: &str| spine.as_deref().is_some_and(|cs| holds(cs, s));

    let map_expr = |e: &Expr| match map_through {
        Some(fu) => fu.map(e),
        None => e.clone(),
    };
    // What every row the original GroupBy reads already satisfies: the
    // filters of its input, in the fused plan's columns.
    let mut own_filters = Vec::new();
    row_filters(&orig.input, &mut own_filters);
    // `None` when some filter is provably FALSE: the side reads no rows.
    let own_filters: Option<Vec<_>> = own_filters
        .into_iter()
        .map(|p| match map_through {
            Some(fu) => memo.conjuncts(&fu.map(p)),
            None => memo.conjuncts(p),
        })
        .collect();

    // The first aggregate of each id, as a scan in order finds it.
    let mut fused_aggs = HashMap::new();
    for fa in &fused.aggregates {
        fused_aggs.entry(fa.id).or_insert(fa);
    }
    let mut mask_sets = Vec::new();
    for a in &orig.aggregates {
        let target_id = remap(a.id);
        let Some(fa) = fused_aggs.get(&target_id) else {
            // Missing output ids are already reported by the schema
            // reconstruction checks.
            continue;
        };
        if fa.agg.func != a.agg.func {
            v.push(Violation::new(
                AnalysisCode::Aggregate,
                format!(
                    "{side} aggregate {}#{} changed function {} -> {}",
                    a.name, a.id.0, a.agg.func, fa.agg.func
                ),
            ));
        }
        if fa.agg.distinct != a.agg.distinct {
            v.push(Violation::new(
                AnalysisCode::Aggregate,
                format!(
                    "{side} aggregate {}#{} changed DISTINCT {} -> {}",
                    a.name, a.id.0, a.agg.distinct, fa.agg.distinct
                ),
            ));
        }
        let orig_arg = a.agg.arg.as_ref().map(map_expr);
        match (&orig_arg, &fa.agg.arg) {
            (None, None) => {}
            (Some(oa), Some(na)) if memo.equiv(oa, na) => {}
            _ => v.push(Violation::new(
                AnalysisCode::Aggregate,
                format!(
                    "{side} aggregate {}#{} argument changed under fusion",
                    a.name, a.id.0
                ),
            )),
        }
        // Mask discipline, both ways. The fused mask must keep every
        // conjunct of the original mask, and each of its own conjuncts must
        // be one the original side applies itself, in its mask or its input
        // filters. A stricter fused mask counts only some of the side's
        // rows: another member's aggregate read through a crossed mapping.
        let orig_mask = map_expr(&a.agg.mask);
        if let (Some(targets), Some(available)) =
            (memo.conjuncts(&orig_mask), memo.conjuncts(&fa.agg.mask))
        {
            for t in targets.iter() {
                if !t.implied(&|s| holds(&available, s)) {
                    v.push(Violation::new(
                        AnalysisCode::Mask,
                        format!(
                            "{side} aggregate {}#{} lost mask conjunct `{}` \
                             (fused mask `{}`)",
                            a.name, a.id.0, t.text, fa.agg.mask
                        ),
                    ));
                }
            }
            let own =
                |s: &str| holds(&targets, s) || own_filters.iter().flatten().any(|f| holds(f, s));
            if own_filters.is_some() && !available.iter().all(|t| t.implied(&own)) {
                // Columns the original input does not produce (a nested
                // fusion's compensating counts) are the fused plan's own,
                // and were checked where they were made.
                let own_columns: HashSet<ColumnId> = orig
                    .input
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| remap(f.id))
                    .collect();
                for c in split_conjuncts(&fa.agg.mask) {
                    if !c.columns().iter().all(|id| own_columns.contains(id)) {
                        continue;
                    }
                    let Some(extra) = memo.conjuncts(&c) else {
                        continue;
                    };
                    for t in extra.iter().filter(|t| !t.implied(&own)) {
                        v.push(Violation::new(
                            AnalysisCode::Mask,
                            format!(
                                "{side} aggregate {}#{} fused mask conjunct `{}` is \
                                 neither its own mask nor a filter of its input",
                                a.name, a.id.0, t.text
                            ),
                        ));
                    }
                }
            }
            mask_sets.push(available);
        }
    }

    // Scalar aggregates have no grouping keys and trivial compensations,
    // so an original filter under a scalar GroupBy must be absorbed into
    // the fused plan: either on the filter spine below the fused GroupBy
    // or — per derived aggregate — into that aggregate's mask. The mask
    // check is per-aggregate because masks from the same side may be
    // mutually exclusive (each one still implies the side's disjoined
    // filter on its own); an aggregate whose mask is provably FALSE
    // counts nothing and is vacuously safe.
    if orig.is_scalar() && !orig.aggregates.is_empty() {
        if let LogicalPlan::Filter(of) = orig.input.as_ref() {
            let orig_pred = map_expr(&of.predicate);
            if let Some(targets) = memo.conjuncts(&orig_pred) {
                for t in targets.iter() {
                    let absorbed = on_spine(&t.text)
                        || mask_sets
                            .iter()
                            .all(|m| t.implied(&|s| on_spine(s) || holds(m, s)));
                    if !absorbed {
                        v.push(Violation::new(
                            AnalysisCode::Mask,
                            format!(
                                "{side} scalar-aggregate filter conjunct `{}` was \
                                 absorbed neither by the fused filter spine nor by \
                                 every derived aggregate mask",
                                t.text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Collect the predicates every output row of `plan` satisfies: those of
/// the filters reached through operators that pass rows through
/// unchanged, and through both sides of an inner join but only the
/// preserved side of an outer or semi join.
fn row_filters<'a>(plan: &'a LogicalPlan, out: &mut Vec<&'a Expr>) {
    match plan {
        LogicalPlan::Filter(f) => {
            out.push(&f.predicate);
            row_filters(&f.input, out);
        }
        LogicalPlan::Project(p) => row_filters(&p.input, out),
        LogicalPlan::MarkDistinct(m) => row_filters(&m.input, out),
        LogicalPlan::EnforceSingleRow(e) => row_filters(&e.input, out),
        LogicalPlan::Join(j) => {
            row_filters(&j.left, out);
            if matches!(j.join_type, JoinType::Inner | JoinType::Cross) {
                row_filters(&j.right, out);
            }
        }
        _ => {}
    }
}
