//! Fusing aggregations (§III.E).

use std::collections::HashSet;

use fusion_common::ColumnId;
use fusion_expr::{AggFunc, AggregateExpr, Expr};
use fusion_plan::{AggAssign, Aggregate, LogicalPlan};

use super::{FuseContext, Fused};

/// `Fuse(GroupBy_{K1,A1}(P1), GroupBy_{K2,A2}(P2))`.
///
/// The inputs fuse to `(P, M, L, R)`; the grouping keys must be equal
/// modulo `M`. Each aggregate of `A1` gets its mask tightened with `L`,
/// each aggregate of `A2` is mapped through `M` and tightened with `R`;
/// equivalent aggregate/mask pairs are deduplicated via the mapping.
///
/// For non-scalar GroupBys with a non-trivial compensation, a group whose
/// rows were all rejected by the compensation must not produce an output
/// row for that side — so compensating `COUNT(*) FILTER(L)` (resp. `R`)
/// aggregates are added, and the returned compensating filters become
/// `countL > 0` (resp. `countR > 0`).
pub fn fuse_aggregates(g1: &Aggregate, g2: &Aggregate, ctx: &FuseContext) -> Option<Fused> {
    let fused = super::fuse(&g1.input, &g2.input, ctx)?;

    // Grouping keys must match modulo the mapping (as id sets).
    let k1: HashSet<ColumnId> = g1.group_by.iter().copied().collect();
    let k2_mapped: HashSet<ColumnId> = g2.group_by.iter().map(|c| fused.mapped_id(*c)).collect();
    if k1 != k2_mapped {
        return None;
    }

    // Distinct aggregates cannot have their mask tightened (the dedup set
    // would still be polluted by the other side's rows is *not* true —
    // masks gate before dedup — but DISTINCT + mask interacts with the
    // MarkDistinct lowering, so we only allow it when the compensation for
    // that side is trivial).
    let mut mapping = fused.mapping.clone();
    let mut new_aggs: Vec<AggAssign> = Vec::with_capacity(g1.aggregates.len());

    // Aggregates share masks (a fused side's aggregates all carry its
    // filter), so each distinct mask is tightened once.
    let mut tightened: Vec<(&Expr, Expr)> = Vec::new();
    for a in &g1.aggregates {
        if a.agg.distinct && !fused.left.is_true_literal() {
            return None;
        }
        let mask = match tightened.iter().find(|(m, _)| m.identical(&a.agg.mask)) {
            Some((_, t)) => t.clone(),
            None => {
                let t = ctx.simp(a.agg.mask.clone().and(fused.left.clone()));
                tightened.push((&a.agg.mask, t.clone()));
                t
            }
        };
        new_aggs.push(AggAssign::new(
            a.id,
            a.name.clone(),
            AggregateExpr {
                func: a.agg.func,
                arg: a.agg.arg.clone(),
                distinct: a.agg.distinct,
                mask,
            },
        ));
    }

    for a in &g2.aggregates {
        if a.agg.distinct && !fused.right.is_true_literal() {
            return None;
        }
        let mapped_arg = a.agg.arg.as_ref().map(|e| fused.map(e));
        let mask = ctx.simp(fused.map(&a.agg.mask).and(fused.right.clone()));
        let candidate = AggregateExpr {
            func: a.agg.func,
            arg: mapped_arg,
            distinct: a.agg.distinct,
            mask,
        };
        match new_aggs.iter().find(|existing| {
            existing.agg.func == candidate.agg_func()
                && existing.agg.distinct == candidate.distinct
                && args_equiv(ctx, &existing.agg.arg, &candidate.arg)
                && ctx.equiv(&existing.agg.mask, &candidate.mask)
        }) {
            Some(existing) => {
                mapping.insert(a.id, existing.id);
            }
            None => {
                new_aggs.push(AggAssign::new(a.id, a.name.clone(), candidate));
            }
        }
    }

    // Compensating COUNT(*) aggregates for non-scalar GroupBys (§III.E).
    let scalar = g1.group_by.is_empty();
    let comp_left = compensation(&mut new_aggs, &fused.left, scalar, ctx, "$countL");
    let comp_right = compensation(&mut new_aggs, &fused.right, scalar, ctx, "$countR");

    Some(Fused {
        plan: LogicalPlan::Aggregate(Aggregate {
            input: Box::new(fused.plan),
            group_by: g1.group_by.clone(),
            aggregates: new_aggs,
        }),
        mapping,
        left: comp_left,
        right: comp_right,
    })
}

trait AggFuncOf {
    fn agg_func(&self) -> AggFunc;
}
impl AggFuncOf for AggregateExpr {
    fn agg_func(&self) -> AggFunc {
        self.func
    }
}

fn args_equiv(ctx: &FuseContext, a: &Option<Expr>, b: &Option<Expr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => ctx.equiv(x, y),
        _ => false,
    }
}

/// Build the compensating filter for one side. Reuses an existing
/// `COUNT(*)` with an equivalent mask when one is already present.
fn compensation(
    aggs: &mut Vec<AggAssign>,
    comp: &Expr,
    scalar: bool,
    ctx: &FuseContext,
    name: &str,
) -> Expr {
    if scalar || comp.is_true_literal() {
        return Expr::boolean(true);
    }
    let count_id = match aggs.iter().find(|a| {
        a.agg.func == AggFunc::CountStar && !a.agg.distinct && ctx.equiv(&a.agg.mask, comp)
    }) {
        Some(existing) => existing.id,
        None => {
            let id = ctx.gen.fresh();
            aggs.push(AggAssign::new(
                id,
                name,
                AggregateExpr::count_star().with_mask(comp.clone()),
            ));
            id
        }
    };
    fusion_expr::col(count_id).gt(fusion_expr::lit(0i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::{fuse, FuseContext};
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn item_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("i_item_sk", DataType::Int64, false),
            ColumnDef::new("i_brand_id", DataType::Int64, true),
            ColumnDef::new("i_category_id", DataType::Int64, true),
            ColumnDef::new("i_color", DataType::Utf8, true),
            ColumnDef::new("i_size", DataType::Utf8, true),
        ]
    }

    /// The §III.E example: `MIN(i_brand_id)` grouped by item over
    /// `i_color = 'red'`, fused with `AVG(i_category_id) FILTER (i_size =
    /// 'm')` grouped by item over the unfiltered table. The fused GroupBy
    /// carries both aggregates with tightened masks plus a compensating
    /// `COUNT(*) FILTER (i_color = 'red')`, and `L` becomes `count > 0`.
    #[test]
    fn masked_fusion_with_compensating_count() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let (a_sk, a_brand, a_color) = (
            a.col("i_item_sk").unwrap(),
            a.col("i_brand_id").unwrap(),
            a.col("i_color").unwrap(),
        );
        let g1 = a
            .filter(col(a_color).eq_to(lit("red")))
            .aggregate(
                vec![a_sk],
                vec![("mi", AggregateExpr::min(col(a_brand)))],
            )
            .build();

        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let (b_sk, b_cat, b_size) = (
            b.col("i_item_sk").unwrap(),
            b.col("i_category_id").unwrap(),
            b.col("i_size").unwrap(),
        );
        let g2 = b
            .aggregate(
                vec![b_sk],
                vec![(
                    "avgc",
                    AggregateExpr::avg(col(b_cat)).with_mask(col(b_size).eq_to(lit("m"))),
                )],
            )
            .build();

        let f = fuse(&g1, &g2, &ctx).unwrap();
        f.plan.validate().unwrap();

        // L = countL > 0, R = TRUE.
        assert!(f.left.to_string().contains("> 0"));
        assert!(f.right.is_true_literal());

        let agg = match &f.plan {
            LogicalPlan::Aggregate(agg) => agg,
            other => panic!("expected Aggregate, got {}", other.op_name()),
        };
        // mi (masked by red), avgc (masked by size), countL (masked by red)
        assert_eq!(agg.aggregates.len(), 3);
        let mi = &agg.aggregates[0];
        assert!(mi.agg.mask.to_string().contains("red"));
        let countl = &agg.aggregates[2];
        assert_eq!(countl.agg.func, AggFunc::CountStar);
        assert!(countl.agg.mask.to_string().contains("red"));
    }

    /// The abstract §III.E example:
    /// `G1 = GroupBy{a}, x:=(SUM(b), TRUE)(Filter c=1(T))`
    /// `G2 = GroupBy{a}, y:=(AVG(b), d=1)(T)`
    /// fuses into one GroupBy with masks `c=1`, `d=1`, plus
    /// `z:=(COUNT(*), c=1)`, and `L = z > 0`.
    #[test]
    fn paper_example_shapes() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let cols = vec![
            ColumnDef::new("a", DataType::Int64, true),
            ColumnDef::new("b", DataType::Int64, true),
            ColumnDef::new("c", DataType::Int64, true),
            ColumnDef::new("d", DataType::Int64, true),
        ];
        let t1 = PlanBuilder::scan(&gen, "t", &cols);
        let (a1, b1, c1) = (
            t1.col("a").unwrap(),
            t1.col("b").unwrap(),
            t1.col("c").unwrap(),
        );
        let g1 = t1
            .filter(col(c1).eq_to(lit(1i64)))
            .aggregate(vec![a1], vec![("x", AggregateExpr::sum(col(b1)))])
            .build();

        let t2 = PlanBuilder::scan(&gen, "t", &cols);
        let (a2, b2, d2) = (
            t2.col("a").unwrap(),
            t2.col("b").unwrap(),
            t2.col("d").unwrap(),
        );
        let g2 = t2
            .aggregate(
                vec![a2],
                vec![(
                    "y",
                    AggregateExpr::avg(col(b2)).with_mask(col(d2).eq_to(lit(1i64))),
                )],
            )
            .build();

        let f = fuse(&g1, &g2, &ctx).unwrap();
        f.plan.validate().unwrap();
        let agg = match &f.plan {
            LogicalPlan::Aggregate(agg) => agg,
            _ => panic!("expected Aggregate"),
        };
        assert_eq!(agg.group_by, vec![a1]);
        assert_eq!(agg.aggregates.len(), 3); // x, y, z
        assert!(f.left.to_string().contains("> 0"));
        assert!(f.right.is_true_literal());
        // y is reachable via the mapping with its own id (it was new).
        let y_id = g2.schema().field(1).id;
        assert!(f.plan.schema().contains(f.mapped_id(y_id)));
    }

    /// Scalar aggregates over keyed aggregates with different filters: the
    /// outer masks read the inner fusion's compensating counts, columns
    /// neither side produces, and the contract checker still accepts the
    /// result (its mask check skips what the fusion made itself).
    #[test]
    fn aggregates_over_fused_keyed_aggregates_fuse() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let side = |bound: i64| {
            let t = PlanBuilder::scan(&gen, "item", &item_cols());
            let (sk, brand) = (t.col("i_item_sk").unwrap(), t.col("i_brand_id").unwrap());
            let inner = t
                .filter(col(brand).gt(lit(bound)))
                .aggregate(vec![sk], vec![("s", AggregateExpr::sum(col(brand)))]);
            let s = inner.col("s").unwrap();
            inner
                .aggregate(vec![], vec![("a", AggregateExpr::avg(col(s)))])
                .build()
        };
        let f = fuse(&side(5), &side(50), &ctx).expect("nested aggregates fuse");
        f.plan.validate().unwrap();
        let LogicalPlan::Aggregate(outer) = &f.plan else {
            panic!("expected Aggregate, got {}", f.plan.op_name());
        };
        assert!(outer
            .aggregates
            .iter()
            .all(|a| a.agg.mask.to_string().contains("> 0")));
    }

    /// Identical aggregates deduplicate through the mapping.
    #[test]
    fn identical_aggregates_deduplicate() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |gen: &IdGen| {
            let t = PlanBuilder::scan(gen, "item", &item_cols());
            let (sk, brand) = (t.col("i_item_sk").unwrap(), t.col("i_brand_id").unwrap());
            t.aggregate(vec![sk], vec![("s", AggregateExpr::sum(col(brand)))])
                .build()
        };
        let g1 = mk(&gen);
        let g2 = mk(&gen);
        let f = fuse(&g1, &g2, &ctx).unwrap();
        assert!(f.trivial());
        let agg = match &f.plan {
            LogicalPlan::Aggregate(agg) => agg,
            _ => panic!(),
        };
        assert_eq!(agg.aggregates.len(), 1);
        let s2 = g2.schema().field(1).id;
        assert_eq!(f.mapped_id(s2), g1.schema().field(1).id);
    }

    /// Different grouping keys do not fuse.
    #[test]
    fn different_groupings_rejected() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "item", &item_cols());
        let sk1 = t1.col("i_item_sk").unwrap();
        let g1 = t1
            .aggregate(vec![sk1], vec![("n", AggregateExpr::count_star())])
            .build();
        let t2 = PlanBuilder::scan(&gen, "item", &item_cols());
        let brand2 = t2.col("i_brand_id").unwrap();
        let g2 = t2
            .aggregate(vec![brand2], vec![("n", AggregateExpr::count_star())])
            .build();
        assert!(fuse(&g1, &g2, &ctx).is_none());
    }

    /// Scalar aggregates fuse without compensating counts: the masks do
    /// all the work, and both compensating filters stay TRUE.
    #[test]
    fn scalar_aggregates_need_no_compensation() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "item", &item_cols());
        let b1 = t1.col("i_brand_id").unwrap();
        let g1 = t1
            .filter(col(b1).gt(lit(100i64)))
            .aggregate(vec![], vec![("c", AggregateExpr::count_star())])
            .build();
        let t2 = PlanBuilder::scan(&gen, "item", &item_cols());
        let b2 = t2.col("i_brand_id").unwrap();
        let g2 = t2
            .filter(col(b2).lt(lit(50i64)))
            .aggregate(vec![], vec![("c", AggregateExpr::count_star())])
            .build();

        let f = fuse(&g1, &g2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(f.trivial());
        let agg = match &f.plan {
            LogicalPlan::Aggregate(agg) => agg,
            _ => panic!(),
        };
        assert!(agg.is_scalar());
        assert_eq!(agg.aggregates.len(), 2);
        // Each count carries its side's filter as a mask.
        assert!(agg.aggregates[0].agg.mask.to_string().contains("> 100"));
        assert!(agg.aggregates[1].agg.mask.to_string().contains("< 50"));
    }
}
