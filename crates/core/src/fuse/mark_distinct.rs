//! Fusing `MarkDistinct` operators (§III.F).

use fusion_plan::{LogicalPlan, MarkDistinct};

use super::{FuseContext, Fused};

/// `Fuse(MarkDistinct_{d1,D1}(P1), MarkDistinct_{d2,D2}(P2))`.
///
/// With trivial child compensations the two marks simply stack (the right
/// one over mapped columns). Otherwise each mark's native mask (the
/// §III.F extension, implemented here instead of the basic
/// projected-column scheme) is tightened with the side's compensating
/// filter, so each mark distinguishes first occurrences *within its own
/// side's rows* — restoring each original mark stream under the
/// compensating filter.
pub fn fuse_mark_distinct(
    m1: &MarkDistinct,
    m2: &MarkDistinct,
    ctx: &FuseContext,
) -> Option<Fused> {
    let fused = super::fuse(&m1.input, &m2.input, ctx)?;
    let d2_mapped: Vec<_> = m2.columns.iter().map(|c| fused.mapped_id(*c)).collect();

    // Each side's mark must only consider its own rows: tighten the
    // (mapped) native masks with the compensating filters. With trivial
    // compensations this is a no-op — the paper's "skip the extra
    // columns" optimization falls out of simplification.
    let mask2 = ctx.simp(fused.map(&m2.mask).and(fused.right.clone()));
    let inner_md = LogicalPlan::MarkDistinct(MarkDistinct {
        input: Box::new(fused.plan.clone()),
        columns: d2_mapped,
        mark_id: m2.mark_id,
        mark_name: m2.mark_name.clone(),
        mask: mask2,
    });

    let mask1 = ctx.simp(m1.mask.clone().and(fused.left.clone()));
    let outer_md = LogicalPlan::MarkDistinct(MarkDistinct {
        input: Box::new(inner_md),
        columns: m1.columns.clone(),
        mark_id: m1.mark_id,
        mark_name: m1.mark_name.clone(),
        mask: mask1,
    });

    Some(Fused {
        plan: outer_md,
        mapping: fused.mapping,
        left: fused.left,
        right: fused.right,
    })
}

#[cfg(test)]
mod tests {
    use crate::fuse::{fuse, FuseContext};
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{LogicalPlan, PlanBuilder};

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("a", DataType::Int64, true),
            ColumnDef::new("b", DataType::Int64, true),
            ColumnDef::new("c", DataType::Int64, true),
        ]
    }

    /// Trivial compensations: the marks stack with mapped columns and no
    /// extra mask columns.
    #[test]
    fn trivial_fusion_stacks_marks() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "t", &cols());
        let b1 = t1.col("b").unwrap();
        let p1 = t1.mark_distinct(vec![b1], "db").build();

        let t2 = PlanBuilder::scan(&gen, "t", &cols());
        let c2 = t2.col("c").unwrap();
        let p2 = t2.mark_distinct(vec![c2], "dc").build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(f.trivial());
        // Outer MD is p1's, inner is p2's over mapped columns.
        let outer = match &f.plan {
            LogicalPlan::MarkDistinct(md) => md,
            _ => panic!("expected MarkDistinct root"),
        };
        assert_eq!(outer.columns, vec![b1]);
        let inner = match outer.input.as_ref() {
            LogicalPlan::MarkDistinct(md) => md,
            _ => panic!("expected inner MarkDistinct"),
        };
        // c2 mapped to the left instance's c.
        assert_ne!(inner.columns, vec![c2]);
        assert_eq!(inner.columns.len(), 1);
        // Both marks are present in the fused schema.
        let schema = f.plan.schema();
        assert!(schema.field_by_name("db").is_some());
        assert!(schema.field_by_name("dc").is_some());
    }

    /// Non-trivial compensations land in the marks' native masks.
    #[test]
    fn compensated_fusion_tightens_native_masks() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "t", &cols());
        let (a1, b1) = (t1.col("a").unwrap(), t1.col("b").unwrap());
        let p1 = t1
            .filter(col(a1).gt(lit(0i64)))
            .mark_distinct(vec![b1], "db")
            .build();

        let t2 = PlanBuilder::scan(&gen, "t", &cols());
        let (a2, c2) = (t2.col("a").unwrap(), t2.col("c").unwrap());
        let p2 = t2
            .filter(col(a2).lt(lit(0i64)))
            .mark_distinct(vec![c2], "dc")
            .build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(!f.trivial());
        let outer = match &f.plan {
            LogicalPlan::MarkDistinct(md) => md,
            _ => panic!("expected MarkDistinct root"),
        };
        // Key sets stay as-is; the compensations live in the native masks.
        assert_eq!(outer.columns.len(), 1);
        assert!(outer.mask.to_string().contains("> 0"));
        let inner = match outer.input.as_ref() {
            LogicalPlan::MarkDistinct(md) => md,
            _ => panic!("expected inner MarkDistinct"),
        };
        assert_eq!(inner.columns.len(), 1);
        assert!(inner.mask.to_string().contains("< 0"));
    }

    /// §III.G: MarkDistinct on one side is skipped and re-added, rather
    /// than blocking fusion.
    #[test]
    fn mark_distinct_root_mismatch_skips_and_readds() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "t", &cols());
        let b1 = t1.col("b").unwrap();
        let p1 = t1.mark_distinct(vec![b1], "db").build();
        let p2 = PlanBuilder::scan(&gen, "t", &cols()).build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(matches!(f.plan, LogicalPlan::MarkDistinct(_)));
        // All of p2's outputs reachable through the mapping.
        let schema = f.plan.schema();
        for id in p2.schema().ids() {
            assert!(schema.contains(f.mapped_id(id)));
        }
    }
}
