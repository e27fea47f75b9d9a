//! Fusing projections (§III.C).

use fusion_plan::{LogicalPlan, Project, ProjExpr};

use super::{comp_columns, FuseContext, Fused};

/// `Fuse(Project_A1(P1), Project_A2(P2))`: fuse the inputs; the fused
/// projection carries all of `A1`'s assignments, and each assignment of
/// `A2` either maps onto an equivalent existing assignment (extending `M`)
/// or is appended (keeping its own identity).
///
/// One detail the rewrite rules rely on: the compensating filters `L`/`R`
/// are expressed over the fused *child* columns, so any column they
/// reference must survive the projection — we pass such columns through
/// explicitly (they are "additional output columns", which the fused
/// result's schema contract explicitly allows).
pub fn fuse_projects(p1: &Project, p2: &Project, ctx: &FuseContext) -> Option<Fused> {
    let fused = super::fuse(&p1.input, &p2.input, ctx)?;
    let mut exprs = p1.exprs.clone();
    let mut mapping = fused.mapping.clone();

    for pe2 in &p2.exprs {
        let mapped = fused.map(&pe2.expr);
        match exprs.iter().find(|pe| ctx.equiv(&pe.expr, &mapped)) {
            Some(existing) => {
                mapping.insert(pe2.id, existing.id);
            }
            None => {
                exprs.push(ProjExpr::new(pe2.id, pe2.name.clone(), mapped));
                // Override any child-level mapping entry for this id (the
                // identity-projection adapter reuses child identities as
                // projection outputs): the column is now exposed directly.
                mapping.insert(pe2.id, pe2.id);
            }
        }
    }

    // Carry compensation columns through the projection.
    let child_schema = fused.plan.schema();
    for cid in comp_columns(&fused.left, &fused.right) {
        let already = exprs
            .iter()
            .any(|pe| pe.id == cid && pe.expr == fusion_expr::col(cid));
        if !already {
            if let Some(field) = super::field_of(&child_schema, cid) {
                exprs.push(ProjExpr::passthrough(&field));
            } else {
                return None; // compensation references a dropped column
            }
        }
    }

    Some(Fused {
        plan: LogicalPlan::Project(Project {
            input: Box::new(fused.plan),
            exprs,
        }),
        mapping,
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

    fn item_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("i_brand_id", DataType::Int64, true),
            ColumnDef::new("i_size", DataType::Utf8, true),
        ]
    }

    /// The §III.C example: `SELECT i_brand_id + 1 AS brand_plus_one` fused
    /// with `SELECT new_brand_id + 1 AS x, 'new brand' AS y` (where
    /// new_brand_id renames i_brand_id through an inner projection).
    /// `x` maps onto `brand_plus_one`; `y` is appended.
    #[test]
    fn matching_assignments_map_new_ones_append() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let a_brand = a.col("i_brand_id").unwrap();
        let p1 = a
            .project(vec![("brand_plus_one", col(a_brand).add(lit(1i64)))])
            .build();
        let p1_out = p1.schema().field(0).id;

        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let b_brand = b.col("i_brand_id").unwrap();
        let inner = b.project(vec![("new_brand_id", col(b_brand))]);
        let new_brand = inner.col("new_brand_id").unwrap();
        let p2 = inner
            .project(vec![
                ("x", col(new_brand).add(lit(1i64))),
                ("y", lit("new brand")),
            ])
            .build();
        let (x_id, y_id) = {
            let s = p2.schema();
            (s.field(0).id, s.field(1).id)
        };

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        assert!(f.trivial());
        assert_eq!(f.mapping.get(&x_id), Some(&p1_out));
        // y is carried with its own identity.
        let schema = f.plan.schema();
        assert!(schema.contains(y_id));
        assert_eq!(schema.len(), 2);
    }

    /// §III.G adapter: project on one side, bare scan on the other.
    #[test]
    fn project_vs_scan_uses_identity_adapter() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let a_brand = a.col("i_brand_id").unwrap();
        let p1 = a
            .project(vec![("bp1", col(a_brand).add(lit(1i64)))])
            .build();
        let p2 = PlanBuilder::scan(&gen, "item", &item_cols()).build();
        let p2_ids = p2.schema().ids();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        let schema = f.plan.schema();
        // Fused projection carries bp1 plus both raw columns of the scan.
        assert_eq!(schema.len(), 3);
        for id in p2_ids {
            // Every right-side output is reachable through the mapping.
            let mapped = f.mapped_id(id);
            assert!(schema.contains(mapped));
        }
    }

    /// Compensation columns referenced by L/R survive the projection.
    #[test]
    fn compensation_columns_pass_through() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let (a_brand, a_size) = (a.col("i_brand_id").unwrap(), a.col("i_size").unwrap());
        let p1 = a
            .filter(col(a_size).eq_to(lit("m")))
            .project(vec![("b1", col(a_brand))])
            .build();

        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let (b_brand, b_size) = (b.col("i_brand_id").unwrap(), b.col("i_size").unwrap());
        let p2 = b
            .filter(col(b_size).eq_to(lit("l")))
            .project(vec![("b2", col(b_brand))])
            .build();

        let f = fuse(&p1, &p2, &ctx).unwrap();
        f.plan.validate().unwrap();
        // L references i_size, which must therefore be projected through.
        assert!(!f.left.is_true_literal());
        let schema = f.plan.schema();
        for c in f.left.columns() {
            assert!(schema.contains(c), "L column {c} must survive projection");
        }
        if let LogicalPlan::Project(p) = &f.plan {
            assert!(p.exprs.len() >= 2);
        } else {
            panic!("expected Project root");
        }
    }
}
