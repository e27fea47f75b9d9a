//! Plan canonicalization and fingerprinting — layer 1 of workload reuse.
//!
//! The canonical encoder itself lives in `fusion_core::analysis::canon`
//! (the reuse-soundness prover certifies rewrites in the same canonical
//! string space the cache keys on, so both must share one encoder); this
//! module re-exports it and layers the reuse-relationship classification
//! on top:
//!
//! * [`Fingerprint`] / [`CanonicalForm`] — a stable 64-bit hash of the
//!   canonical serialization plus per-position slot strings, alias-,
//!   instance- and (where semantics allow) order-insensitive;
//! * [`Canon`] — the per-window memo that derives each subtree's form
//!   once, which the workload layer and the prover read every form from;
//! * [`match_subplans`] — classify two subplans from exact equivalence
//!   through subsumption down to a `Fuse` result or `⊥`.
//!
//! Whether a cached plan's rows strictly contain a consumer's is the
//! prover's call alone: the workload layer serves a subsumption exactly
//! when [`fusion_core::analysis::certify_subsumption`] issues a
//! certificate.

use fusion_core::analysis::canon::{rendered_conjuncts, resolve_of};
use fusion_core::{fuse, FuseContext, Fused};
use fusion_plan::LogicalPlan;

pub use fusion_core::analysis::canon::{
    canonical_form, fingerprint, position_map, Canon, CanonicalForm, Fingerprint,
};

/// How two subplans relate, from exact equivalence down to `⊥`.
#[derive(Debug)]
pub enum SubplanMatch {
    /// Canonically identical: same fingerprint and encoding. Rows of one
    /// can serve the other directly (after slot alignment).
    Equivalent,
    /// The left plan's rows are a superset of the right's: `right` is the
    /// same relation under strictly more filter conjuncts. Left's result
    /// can serve right through a compensating filter.
    LeftSubsumesRight,
    /// Symmetric case: right's rows are a superset of left's.
    RightSubsumesLeft,
    /// Not equivalent and neither subsumes, but the paper's `Fuse`
    /// primitive found a common covering plan with compensations.
    Fused(Box<Fused>),
    /// No reuse relationship found (`⊥`).
    Distinct,
}

/// Classify the reuse relationship between two subplans: fingerprint
/// equality first, then a conjunct-set subsumption check for filter roots
/// over canonically-equal inputs, then fall back to [`fuse`].
pub fn match_subplans(p1: &LogicalPlan, p2: &LogicalPlan, ctx: &FuseContext) -> SubplanMatch {
    let canon = Canon::new();
    if canon.form(p1).encoding == canon.form(p2).encoding {
        return SubplanMatch::Equivalent;
    }
    if let Some(m) = filter_subsumption(&canon, p1, p2) {
        return m;
    }
    match fuse(p1, p2, ctx) {
        Some(f) => SubplanMatch::Fused(Box::new(f)),
        None => SubplanMatch::Distinct,
    }
}

/// Subsumption fast path: both plans filter the same canonical input, and
/// one side's conjunct set strictly contains the other's. The inputs'
/// forms are memo hits: `canon` encoded both roots already.
fn filter_subsumption<'p>(
    canon: &Canon<'p>,
    p1: &'p LogicalPlan,
    p2: &'p LogicalPlan,
) -> Option<SubplanMatch> {
    let (LogicalPlan::Filter(f1), LogicalPlan::Filter(f2)) = (p1, p2) else {
        return None;
    };
    let (in1, in2) = (canon.form(&f1.input), canon.form(&f2.input));
    if in1.encoding != in2.encoding {
        return None;
    }
    let r1 = resolve_of(&f1.input, &in1.slots);
    let r2 = resolve_of(&f2.input, &in2.slots);
    let c1 = rendered_conjuncts(&f1.predicate, &r1);
    let c2 = rendered_conjuncts(&f2.predicate, &r2);
    let contains = |sup: &[String], sub: &[String]| sub.iter().all(|c| sup.contains(c));
    if contains(&c1, &c2) && c1.len() > c2.len() {
        // p1 filters harder: p2's rows ⊇ p1's rows.
        return Some(SubplanMatch::RightSubsumesLeft);
    }
    if contains(&c2, &c1) && c2.len() > c1.len() {
        return Some(SubplanMatch::LeftSubsumesRight);
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use fusion_common::{ColumnId, DataType, IdGen};
    use fusion_core::analysis::certify_subsumption;

    fn subsumes(superset: &LogicalPlan, subset: &LogicalPlan) -> bool {
        certify_subsumption(&Canon::new(), superset, subset).is_ok()
    }
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, PlanBuilder};

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("a", DataType::Int64, false),
            ColumnDef::new("b", DataType::Int64, false),
            ColumnDef::new("c", DataType::Float64, true),
        ]
    }

    fn scan(gen: &IdGen) -> (LogicalPlan, Vec<ColumnId>) {
        let b = PlanBuilder::scan(gen, "t", &cols());
        let ids = b.plan().schema().ids();
        (b.build(), ids)
    }

    #[test]
    fn identical_plans_same_fingerprint_fresh_ids() {
        let gen = IdGen::new();
        let (p1, ids1) = scan(&gen);
        let (p2, ids2) = scan(&gen);
        assert_ne!(ids1, ids2, "instances mint fresh ids");
        assert_eq!(fingerprint(&p1), fingerprint(&p2));
    }

    #[test]
    fn predicate_order_does_not_change_fingerprint() {
        let gen = IdGen::new();
        let (s1, ids1) = scan(&gen);
        let (s2, ids2) = scan(&gen);
        let f1 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s1),
            predicate: col(ids1[0]).gt(lit(5i64)).and(col(ids1[1]).lt(lit(9i64))),
        });
        let f2 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s2),
            predicate: col(ids2[1]).lt(lit(9i64)).and(col(ids2[0]).gt(lit(5i64))),
        });
        assert_eq!(fingerprint(&f1), fingerprint(&f2));
    }

    #[test]
    fn different_predicates_different_fingerprint() {
        let gen = IdGen::new();
        let (s1, ids1) = scan(&gen);
        let (s2, ids2) = scan(&gen);
        let f1 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s1),
            predicate: col(ids1[0]).gt(lit(5i64)),
        });
        let f2 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s2),
            predicate: col(ids2[0]).gt(lit(6i64)),
        });
        assert_ne!(fingerprint(&f1), fingerprint(&f2));
    }

    #[test]
    fn join_operand_swap_same_fingerprint_permuted_slots() {
        let gen = IdGen::new();
        let (t1, ids1) = scan(&gen);
        let b1 = PlanBuilder::scan(&gen, "u", &[ColumnDef::new("k", DataType::Int64, false)]);
        let uid1 = b1.plan().schema().ids()[0];
        let u1 = b1.build();

        let (t2, ids2) = scan(&gen);
        let b2 = PlanBuilder::scan(&gen, "u", &[ColumnDef::new("k", DataType::Int64, false)]);
        let uid2 = b2.plan().schema().ids()[0];
        let u2 = b2.build();

        let j1 = LogicalPlan::Join(fusion_plan::Join {
            left: Box::new(t1),
            right: Box::new(u1),
            join_type: JoinType::Inner,
            condition: col(ids1[0]).eq_to(col(uid1)),
        });
        let j2 = LogicalPlan::Join(fusion_plan::Join {
            left: Box::new(u2),
            right: Box::new(t2),
            join_type: JoinType::Inner,
            condition: col(uid2).eq_to(col(ids2[0])),
        });
        let c1 = canonical_form(&j1);
        let c2 = canonical_form(&j2);
        assert_eq!(c1.fingerprint, c2.fingerprint);
        assert_eq!(c1.encoding, c2.encoding);
        // Output layouts are permutations of one another.
        let map = position_map(&c2.slots, &c1.slots).unwrap();
        assert_eq!(map, vec![3, 0, 1, 2]);
    }

    #[test]
    fn self_join_sides_stay_distinct() {
        let gen = IdGen::new();
        let mk = |cross_cols: bool| {
            let (l, lids) = scan(&gen);
            let (r, rids) = scan(&gen);
            let cond = if cross_cols {
                col(lids[0]).eq_to(col(rids[0]))
            } else {
                col(lids[0]).eq_to(col(lids[1]))
            };
            LogicalPlan::Join(fusion_plan::Join {
                left: Box::new(l),
                right: Box::new(r),
                join_type: JoinType::Inner,
                condition: cond,
            })
        };
        assert_ne!(fingerprint(&mk(true)), fingerprint(&mk(false)));
    }

    #[test]
    fn filter_subsumption_detected() {
        let gen = IdGen::new();
        let (s1, ids1) = scan(&gen);
        let (s2, ids2) = scan(&gen);
        let narrow = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s1),
            predicate: col(ids1[0]).gt(lit(5i64)).and(col(ids1[1]).lt(lit(9i64))),
        });
        let wide = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s2),
            predicate: col(ids2[1]).lt(lit(9i64)),
        });
        let ctx = FuseContext::new(gen.clone());
        assert!(matches!(
            match_subplans(&narrow, &wide, &ctx),
            SubplanMatch::RightSubsumesLeft
        ));
        assert!(matches!(
            match_subplans(&wide, &narrow, &ctx),
            SubplanMatch::LeftSubsumesRight
        ));
    }

    #[test]
    fn near_match_falls_back_to_fuse() {
        let gen = IdGen::new();
        let (s1, ids1) = scan(&gen);
        let (s2, ids2) = scan(&gen);
        let f1 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s1),
            predicate: col(ids1[0]).gt(lit(5i64)),
        });
        let f2 = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(s2),
            predicate: col(ids2[0]).lt(lit(0i64)),
        });
        let ctx = FuseContext::new(gen.clone());
        match match_subplans(&f1, &f2, &ctx) {
            SubplanMatch::Fused(f) => {
                assert!(!f.left.is_true_literal());
                assert!(!f.right.is_true_literal());
            }
            other => panic!("expected Fused, got {other:?}"),
        }
    }

    #[test]
    fn subsumption_covers_computed_projection_narrowing() {
        // The cached superset projects a *computed* expression (a*b) over
        // its filter; the consumer filters the same projection harder.
        // Pre-certificate `subsumes` refused any non-column projection;
        // the prover now accepts it (and refuses a mismatched expression).
        let gen = IdGen::new();
        let mk = |mul: bool, extra: bool| {
            let (s, ids) = scan(&gen);
            let expr = if mul {
                col(ids[0]).mul(col(ids[1]))
            } else {
                col(ids[0]).add(col(ids[1]))
            };
            let filtered = LogicalPlan::Filter(fusion_plan::Filter {
                input: Box::new(s.clone()),
                predicate: col(ids[0]).gt(lit(5i64)),
            });
            let cached = LogicalPlan::Project(fusion_plan::Project {
                input: Box::new(filtered),
                exprs: vec![
                    fusion_plan::ProjExpr::new(gen.fresh(), "a", col(ids[0])),
                    fusion_plan::ProjExpr::new(gen.fresh(), "w", expr.clone()),
                ],
            });
            let inner = LogicalPlan::Project(fusion_plan::Project {
                input: Box::new(s),
                exprs: vec![
                    fusion_plan::ProjExpr::new(gen.fresh(), "a", col(ids[0])),
                    fusion_plan::ProjExpr::new(gen.fresh(), "w", expr),
                ],
            });
            let out = inner.schema().ids();
            let pred = if extra {
                col(out[0]).gt(lit(5i64)).and(col(out[1]).lt(lit(100i64)))
            } else {
                col(out[0]).gt(lit(5i64))
            };
            let consumer = LogicalPlan::Filter(fusion_plan::Filter {
                input: Box::new(inner),
                predicate: pred,
            });
            (cached, consumer)
        };
        let (cached, consumer) = mk(true, true);
        assert!(subsumes(&cached, &consumer));
        // Equal conjunct sets are an exact match, not a subsumption.
        let (cached_eq, consumer_eq) = mk(true, false);
        assert!(!subsumes(&cached_eq, &consumer_eq));
        // A cached a+b cannot serve a consumer computing a*b.
        let (cached_add, _) = mk(false, true);
        assert!(!subsumes(&cached_add, &consumer));
    }
    /// A spliced consumer's encoding is O(fields): the rows behind its
    /// leaf enter as (checksum, count), not verbatim — yet two leaves
    /// encode alike exactly when they show the same rows.
    #[test]
    fn spliced_leaf_encoding_does_not_grow_with_its_rows() {
        let gen = IdGen::new();
        let fields: Vec<fusion_common::Field> = ["k", "n", "s"]
            .iter()
            .map(|n| fusion_common::Field::new(gen.fresh(), *n, DataType::Int64, false))
            .collect();
        let rows = |n: i64, last: i64| -> Vec<Vec<fusion_common::Value>> {
            (0..n)
                .map(|i| [i, 2 * i, if i + 1 == n { last } else { 0 }].map(Into::into).to_vec())
                .collect()
        };
        let spliced = |rows: Vec<Vec<fusion_common::Value>>| {
            let leaf = fusion_plan::ConstantTable::new(fields.clone(), rows).unwrap();
            canonical_form(&LogicalPlan::Filter(fusion_plan::Filter {
                input: Box::new(LogicalPlan::ConstantTable(leaf)),
                predicate: col(fields[1].id).gt(lit(3i64)),
            }))
            .encoding
        };
        let (small, large) = (spliced(rows(10, 0)), spliced(rows(10_000, 0)));
        assert!(large.len() <= small.len(), "{} > {}", large.len(), small.len());
        assert_eq!(large.len(), spliced(rows(20_000, 0)).len());
        assert_eq!(large, spliced(rows(10_000, 0)), "same rows, another allocation");
        assert_ne!(large, spliced(rows(10_000, 1)), "one value apart");
        assert_ne!(small, spliced(rows(10, 1)), "tag-sized tables are spelled out");
    }
}
