//! Fusing joins (§III.D).

use fusion_expr::Expr;
use fusion_plan::{Join, JoinType, LogicalPlan};

use super::{FuseContext, Fused};

/// `Fuse(JL1 ⨝_C1 JR1, JL2 ⨝_C2 JR2)`: pairwise fuse the two sides,
/// union the (non-overlapping) mappings, and require the join conditions
/// to be equivalent modulo the mapping. The compensating filters are the
/// conjunctions of the per-side filters — valid because for inner joins a
/// side-local filter commutes with the join.
///
/// For non-inner variants the compensations must be trivial: filtering an
/// outer join's padded rows (or a semi join's projected-away right side)
/// with a side-local residual is not equivalent to filtering the input.
///
/// Different join *orders* do not fuse — as the paper notes, CTE-derived
/// duplicates and canonicalized join trees make this a minor limitation
/// in practice; n-ary matching is future work there and here.
pub fn fuse_joins(j1: &Join, j2: &Join, ctx: &FuseContext) -> Option<Fused> {
    if j1.join_type != j2.join_type {
        return None;
    }
    let fl = super::fuse(&j1.left, &j2.left, ctx)?;
    let fr = super::fuse(&j1.right, &j2.right, ctx)?;

    match j1.join_type {
        JoinType::Inner | JoinType::Cross => {}
        JoinType::Left => {
            // Right-side compensation would mis-handle padded rows.
            if !fr.trivial() {
                return None;
            }
        }
        JoinType::Semi => {
            // The right side is projected away, so its compensations
            // could never be applied downstream.
            if !fr.trivial() {
                return None;
            }
        }
    }

    let mut mapping = fl.mapping.clone();
    mapping.extend(fr.mapping.iter().map(|(k, v)| (*k, *v)));
    if !ctx.equiv(&j1.condition, &j2.condition.map_columns(&mapping)) {
        return None;
    }

    let left = ctx.simp(fl.left.and(fr.left));
    let right = ctx.simp(fl.right.and(fr.right));
    // Cross joins must carry the canonical literal TRUE: keeping
    // `j1.condition` verbatim would let a residual like `TRUE AND TRUE`
    // through, which strict per-rewrite validation rejects before the
    // cleanup phase gets a chance to normalize it.
    let condition = if j1.join_type == JoinType::Cross {
        Expr::boolean(true)
    } else {
        j1.condition.clone()
    };
    Some(Fused {
        plan: LogicalPlan::Join(Join {
            left: Box::new(fl.plan),
            right: Box::new(fr.plan),
            join_type: j1.join_type,
            condition,
        }),
        mapping,
        left,
        right,
    })
}

#[cfg(test)]
mod tests {
    use crate::fuse::{fuse, FuseContext};
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit, Expr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, LogicalPlan, PlanBuilder};

    fn sales_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("ss_item_sk", DataType::Int64, true),
            ColumnDef::new("ss_store_sk", DataType::Int64, true),
            ColumnDef::new("ss_addr_sk", DataType::Int64, true),
            ColumnDef::new("ss_quantity", DataType::Int64, true),
        ]
    }

    fn item_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("i_item_sk", DataType::Int64, false),
            ColumnDef::new("i_size", DataType::Utf8, true),
        ]
    }

    type FilterBuilder<'a> = &'a dyn Fn(&PlanBuilder, &PlanBuilder) -> Expr;

    fn join_fragment(gen: &IdGen, extra_filter: Option<FilterBuilder>) -> LogicalPlan {
        let s = PlanBuilder::scan(gen, "store_sales", &sales_cols());
        let i = PlanBuilder::scan(gen, "item", &item_cols());
        let cond = col(s.col("ss_item_sk").unwrap()).eq_to(col(i.col("i_item_sk").unwrap()));
        let filter = extra_filter.map(|f| f(&s, &i));
        let mut b = s.join(i.build(), JoinType::Inner, cond);
        if let Some(f) = filter {
            b = b.filter(f);
        }
        b.build()
    }

    /// The §III.D example: two joins of the same tables on the same key,
    /// with different residual filters above — the fused join carries the
    /// disjunction, and L/R restore each side.
    #[test]
    fn same_shape_joins_fuse_with_filter_disjunction() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let p1 = join_fragment(&gen, Some(&|s, i| {
            col(s.col("ss_addr_sk").unwrap())
                .gt(lit(20i64))
                .and(Expr::InList {
                    expr: Box::new(col(i.col("i_size").unwrap())),
                    list: vec![lit("m"), lit("l")],
                    negated: false,
                })
        }));
        let p2 = join_fragment(&gen, Some(&|_, i| {
            col(i.col("i_size").unwrap()).eq_to(lit("l"))
        }));

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(!f.left.is_true_literal());
        assert!(f.left.to_string().contains("> 20"));
        assert!(f.right.to_string().contains("'l'"));
    }

    #[test]
    fn identical_joins_fuse_trivially() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let p1 = join_fragment(&gen, None);
        let p2 = join_fragment(&gen, None);
        let f = fuse(&p1, &p2, &ctx).unwrap();
        assert!(f.trivial());
        // Every right-side output column maps into the fused plan.
        let schema = f.plan.schema();
        for id in p2.schema().ids() {
            assert!(schema.contains(f.mapped_id(id)));
        }
    }

    #[test]
    fn different_join_conditions_do_not_fuse() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let s1 = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
        let i1 = PlanBuilder::scan(&gen, "item", &item_cols());
        let cond1 =
            col(s1.col("ss_item_sk").unwrap()).eq_to(col(i1.col("i_item_sk").unwrap()));
        let p1 = s1.join(i1.build(), JoinType::Inner, cond1).build();

        let s2 = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
        let i2 = PlanBuilder::scan(&gen, "item", &item_cols());
        // Joins on a different column.
        let cond2 =
            col(s2.col("ss_store_sk").unwrap()).eq_to(col(i2.col("i_item_sk").unwrap()));
        let p2 = s2.join(i2.build(), JoinType::Inner, cond2).build();

        assert!(fuse(&p1, &p2, &ctx).is_none());
    }

    #[test]
    fn different_join_types_do_not_fuse() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let s1 = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
        let i1 = PlanBuilder::scan(&gen, "item", &item_cols());
        let cond1 =
            col(s1.col("ss_item_sk").unwrap()).eq_to(col(i1.col("i_item_sk").unwrap()));
        let p1 = s1.join(i1.build(), JoinType::Inner, cond1).build();

        let s2 = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
        let i2 = PlanBuilder::scan(&gen, "item", &item_cols());
        let cond2 =
            col(s2.col("ss_item_sk").unwrap()).eq_to(col(i2.col("i_item_sk").unwrap()));
        let p2 = s2.join(i2.build(), JoinType::Left, cond2).build();

        assert!(fuse(&p1, &p2, &ctx).is_none());
    }

    #[test]
    fn semi_join_with_nontrivial_right_compensation_rejected() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        // Two semi joins whose right sides differ by a filter: the fused
        // right would need a compensation that a semi join cannot apply.
        let make = |pred: Option<Expr>| {
            let s = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
            let i = PlanBuilder::scan(&gen, "item", &item_cols());
            let right = match pred {
                Some(p) => {
                    let size = i.col("i_size").unwrap();
                    let _ = size;
                    i.filter(p).build()
                }
                None => i.build(),
            };
            let k = right.schema().field_by_name("i_item_sk").unwrap().id;
            let cond = col(s.col("ss_item_sk").unwrap()).eq_to(col(k));
            s.join(right, JoinType::Semi, cond).build()
        };
        let i_probe = PlanBuilder::scan(&gen, "item", &item_cols());
        let size_col = i_probe.col("i_size").unwrap();
        let _ = size_col;
        let p1 = make(None);
        // Build p2's filter against its own scan instance.
        let s2 = PlanBuilder::scan(&gen, "store_sales", &sales_cols());
        let i2 = PlanBuilder::scan(&gen, "item", &item_cols());
        let i2_size = i2.col("i_size").unwrap();
        let i2f = i2.filter(col(i2_size).eq_to(lit("l")));
        let k2 = i2f.col("i_item_sk").unwrap();
        let cond2 = col(s2.col("ss_item_sk").unwrap()).eq_to(col(k2));
        let p2 = s2.join(i2f.build(), JoinType::Semi, cond2).build();

        assert!(fuse(&p1, &p2, &ctx).is_none());
    }
}
