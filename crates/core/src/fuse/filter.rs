//! Fusing filters (§III.B).

use fusion_plan::{Filter, LogicalPlan};

use super::{FuseContext, Fused};

/// `Fuse(Filter_C1(P1), Filter_C2(P2))`: recursively fuse the inputs, then
/// either keep a single equivalent condition, or take the disjunction and
/// tighten the compensating filters:
///
/// ```text
/// (Filter_{C1 OR M(C2)}(P), M, L AND C1, R AND M(C2))
/// ```
pub fn fuse_filters(f1: &Filter, f2: &Filter, ctx: &FuseContext) -> Option<Fused> {
    let fused = super::fuse(&f1.input, &f2.input, ctx)?;
    let c1 = f1.predicate.clone();
    let c2m = fused.map(&f2.predicate);
    if ctx.equiv(&c1, &c2m) {
        return Some(Fused {
            plan: LogicalPlan::Filter(Filter {
                input: Box::new(fused.plan),
                predicate: c1,
            }),
            mapping: fused.mapping,
            left: fused.left,
            right: fused.right,
        });
    }
    let predicate = ctx.simp(c1.clone().or(c2m.clone()));
    let left = ctx.simp(fused.left.and(c1));
    let right = ctx.simp(fused.right.and(c2m));
    Some(Fused {
        plan: LogicalPlan::Filter(Filter {
            input: Box::new(fused.plan),
            predicate,
        }),
        mapping: fused.mapping,
        left,
        right,
    })
}

#[cfg(test)]
mod tests {
    use crate::fuse::{fuse, FuseContext};
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, equiv, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{LogicalPlan, PlanBuilder};

    fn item_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("i_item_desc", DataType::Utf8, true),
            ColumnDef::new("i_category", DataType::Utf8, true),
            ColumnDef::new("i_brand_id", DataType::Int64, true),
        ]
    }

    /// The §III.B example: same scan, `category = 'Music' AND brand > 1000`
    /// vs `category = 'Music' AND brand < 50`. The fused filter is the
    /// disjunction; L and R restore each side.
    #[test]
    fn disjoint_filters_fuse_with_disjunction() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let (a_cat, a_brand) = (a.col("i_category").unwrap(), a.col("i_brand_id").unwrap());
        let p1 = a
            .filter(
                col(a_cat)
                    .eq_to(lit("Music"))
                    .and(col(a_brand).gt(lit(1000i64))),
            )
            .build();

        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let (b_cat, b_brand) = (b.col("i_category").unwrap(), b.col("i_brand_id").unwrap());
        let p2 = b
            .filter(
                col(b_cat)
                    .eq_to(lit("Music"))
                    .and(col(b_brand).lt(lit(50i64))),
            )
            .build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        // L restores side 1: brand > 1000 (AND category = Music).
        assert!(f.left.to_string().contains("> 1000"));
        assert!(f.right.to_string().contains("< 50"));
        // The fused predicate contains the disjunction over left-side ids.
        if let LogicalPlan::Filter(filter) = &f.plan {
            let s = filter.predicate.to_string();
            assert!(s.contains("OR"), "fused predicate should be a disjunction: {s}");
            assert!(!filter.predicate.columns().contains(&b_brand));
        } else {
            panic!("expected Filter root");
        }
    }

    /// Equivalent conditions collapse to a single filter with trivial
    /// compensations.
    #[test]
    fn equivalent_filters_fuse_trivially() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let a_cat = a.col("i_category").unwrap();
        let p1 = a.filter(col(a_cat).eq_to(lit("Music"))).build();

        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let b_cat = b.col("i_category").unwrap();
        // Commuted operand order — still recognized as equivalent.
        let p2 = b.filter(lit("Music").eq_to(col(b_cat))).build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        assert!(f.trivial());
        assert!(matches!(f.plan, LogicalPlan::Filter(_)));
    }

    /// §III.G: filter on one side only — a trivial TRUE filter is
    /// manufactured, making L = TRUE side-compensation possible.
    #[test]
    fn filter_vs_bare_scan_uses_trivial_filter_adapter() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let a_brand = a.col("i_brand_id").unwrap();
        let p1 = a.filter(col(a_brand).gt(lit(10i64))).build();
        let p2 = PlanBuilder::scan(&gen, "item", &item_cols()).build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        // Fused keeps everything (TRUE OR pred == TRUE simplifies away the
        // filter predicate), left compensation restores the filtered side.
        assert!(equiv(&f.left, &col(a_brand).gt(lit(10i64))));
        assert!(f.right.is_true_literal());
    }
}
