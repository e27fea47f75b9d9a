//! The `UnionAll` fusion rule (§IV.D).
//!
//! Pattern: `UnionAll(P1, ..., Pn)` whose branches all fuse into one plan
//! `P`. The union is replaced by a cross join of `P` with a constant tag
//! table `(1),...,(n)`; a filter `(tag=1 AND L1) OR ... OR (tag=n AND Ln)`
//! reconstructs each branch's rows from its compensating filter, and a
//! projection selects, per output slot, the right source column for each
//! tag via CASE.
//!
//! Extensions implemented from the paper: n-ary unions are fused natively
//! (folding branch-by-branch) rather than pairwise; CASE collapses to a
//! plain column when all branches map a slot to the same fused column;
//! and when the compensating filters are mutually exclusive
//! (`L AND R ≡ FALSE`, detected by the contradiction checker) the
//! replication is skipped entirely — a single filtered pass suffices.

use fusion_common::{ColumnId, DataType, Field, Value};
use fusion_expr::{disjoin, is_contradiction, Expr};
use fusion_plan::{
    ConstantTable, Filter, Join, JoinType, LogicalPlan, Project, ProjExpr, UnionAll,
};

use super::Rule;
use crate::fuse::{fuse, FuseContext};

pub struct UnionAllFusion;

/// Per-branch reconstruction state while folding the branches.
struct Branch {
    /// Compensating filter restoring this branch from the fused plan.
    comp: Expr,
    /// For each union output slot, the fused-plan column feeding it.
    slots: Vec<ColumnId>,
}

impl Rule for UnionAllFusion {
    fn name(&self) -> &'static str {
        "UnionAllFusion"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        let union = match plan {
            LogicalPlan::UnionAll(u) if u.inputs.len() >= 2 => u,
            _ => return None,
        };

        // Fold the branches into one fused plan.
        let mut fused_plan = union.inputs[0].clone();
        let mut branches = vec![Branch {
            comp: Expr::boolean(true),
            slots: union.inputs[0].schema().ids(),
        }];
        for input in &union.inputs[1..] {
            let f = fuse(&fused_plan, input, ctx)?;
            // The fused plan keeps the previous plan's columns, but every
            // earlier branch is now further gated by the new L.
            for b in &mut branches {
                b.comp = ctx.simp(b.comp.clone().and(f.left.clone()));
            }
            branches.push(Branch {
                comp: f.right.clone(),
                slots: input.schema().ids().iter().map(|id| f.mapped_id(*id)).collect(),
            });
            fused_plan = f.plan;
        }

        Some(build_replacement(union, fused_plan, branches, ctx))
    }
}

fn build_replacement(
    union: &UnionAll,
    fused_plan: LogicalPlan,
    branches: Vec<Branch>,
    ctx: &FuseContext,
) -> LogicalPlan {
    let n = branches.len();

    // Disjoint binary case: no replication needed.
    if n == 2 && is_contradiction(&branches[0].comp.clone().and(branches[1].comp.clone())) {
        let filtered = LogicalPlan::Filter(Filter {
            input: Box::new(fused_plan),
            predicate: ctx.simp(branches[0].comp.clone().or(branches[1].comp.clone())),
        });
        let exprs = union
            .fields
            .iter()
            .enumerate()
            .map(|(slot, field)| {
                let c0 = branches[0].slots[slot];
                let c1 = branches[1].slots[slot];
                let expr = if c0 == c1 {
                    Expr::Column(c0)
                } else {
                    Expr::Case {
                        branches: vec![(branches[0].comp.clone(), Expr::Column(c0))],
                        else_expr: Some(Box::new(Expr::Column(c1))),
                    }
                };
                ProjExpr::new(field.id, field.name.clone(), expr)
            })
            .collect();
        return LogicalPlan::Project(Project {
            input: Box::new(filtered),
            exprs,
        });
    }

    // General case: cross join with a constant tag table.
    let tag_id = ctx.gen.fresh();
    let tag_table = LogicalPlan::ConstantTable(
        ConstantTable::new(
            vec![Field::new(tag_id, "$tag", DataType::Int64, false)],
            (1..=n as i64).map(|i| vec![Value::Int64(i)]).collect(),
        )
        .expect("one Int64 value per row under one Int64 field"),
    );
    let crossed = LogicalPlan::Join(Join {
        left: Box::new(fused_plan),
        right: Box::new(tag_table),
        join_type: JoinType::Cross,
        condition: Expr::boolean(true),
    });
    let predicate = ctx.simp(disjoin(branches.iter().enumerate().map(|(i, b)| {
        fusion_expr::col(tag_id)
            .eq_to(fusion_expr::lit(i as i64 + 1))
            .and(b.comp.clone())
    })));
    let filtered = LogicalPlan::Filter(Filter {
        input: Box::new(crossed),
        predicate,
    });

    let exprs = union
        .fields
        .iter()
        .enumerate()
        .map(|(slot, field)| {
            let first = branches[0].slots[slot];
            let all_same = branches.iter().all(|b| b.slots[slot] == first);
            let expr = if all_same {
                Expr::Column(first)
            } else {
                // CASE WHEN tag=1 THEN c1 ... ELSE cn END
                let mut case_branches = Vec::with_capacity(n - 1);
                for (i, b) in branches.iter().enumerate().take(n - 1) {
                    case_branches.push((
                        fusion_expr::col(tag_id).eq_to(fusion_expr::lit(i as i64 + 1)),
                        Expr::Column(b.slots[slot]),
                    ));
                }
                Expr::Case {
                    branches: case_branches,
                    else_expr: Some(Box::new(Expr::Column(branches[n - 1].slots[slot]))),
                }
            };
            ProjExpr::new(field.id, field.name.clone(), expr)
        })
        .collect();
    LogicalPlan::Project(Project {
        input: Box::new(filtered),
        exprs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn cte_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("customer_id", DataType::Int64, false),
            ColumnDef::new("fname", DataType::Utf8, true),
            ColumnDef::new("lname", DataType::Utf8, true),
            ColumnDef::new("amount", DataType::Int64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "cte",
            vec![
                TableColumn {
                    name: "customer_id".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "fname".into(),
                    data_type: DataType::Utf8,
                    nullable: true,
                },
                TableColumn {
                    name: "lname".into(),
                    data_type: DataType::Utf8,
                    nullable: true,
                },
                TableColumn {
                    name: "amount".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
            ],
        );
        let data = [
            (1i64, "John", "Doe", 10i64),
            (2, "John", "Smith", 20), // matches BOTH branches
            (3, "Jane", "Smith", 30),
            (4, "Mark", "Twain", 40),
        ];
        for (id, f, l, a) in data {
            b.add_row(vec![
                Value::Int64(id),
                Value::Utf8(f.into()),
                Value::Utf8(l.into()),
                Value::Int64(a),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    /// The paper's introduction example:
    /// `SELECT customer_id FROM cte WHERE fname='John'
    ///  UNION ALL SELECT customer_id FROM cte WHERE lname='Smith'`.
    /// Overlapping predicates ⇒ tag-table replication; the row matching
    /// both branches must appear twice.
    #[test]
    fn overlapping_branches_use_tag_table() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |pred_col: &str, value: &str| {
            let t = PlanBuilder::scan(&gen, "cte", &cte_cols());
            let c = t.col(pred_col).unwrap();
            let id = t.col("customer_id").unwrap();
            t.filter(col(c).eq_to(lit(value)))
                .project(vec![("customer_id", col(id))])
                .build()
        };
        let b1 = mk("fname", "John");
        let b2 = mk("lname", "Smith");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();

        let rewritten =
            apply_everywhere(&UnionAllFusion, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(rewritten.scanned_tables().len(), 1);
        assert!(rewritten.any(&|p| matches!(p, LogicalPlan::ConstantTable(_))));

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        // ids 1, 2 from branch 1; ids 2, 3 from branch 2.
        assert_eq!(base.rows.len(), 4);
    }

    /// Disjoint predicates take the simplified form: no tag table.
    #[test]
    fn disjoint_branches_skip_replication() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |lo: i64, hi: i64, out: &str| {
            let t = PlanBuilder::scan(&gen, "cte", &cte_cols());
            let a = t.col("amount").unwrap();
            let id = t.col("customer_id").unwrap();
            t.filter(col(a).gt_eq(lit(lo)).and(col(a).lt_eq(lit(hi))))
                .project(vec![(out, col(id))])
                .build()
        };
        let b1 = mk(0, 15, "cid");
        let b2 = mk(16, 35, "cid");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();

        let rewritten =
            apply_everywhere(&UnionAllFusion, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert!(
            !rewritten.any(&|p| matches!(p, LogicalPlan::ConstantTable(_))),
            "disjoint branches must not replicate:\n{}",
            rewritten.display()
        );

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert_eq!(base.rows.len(), 3);
    }

    /// Three branches with different projections fuse natively (n-ary).
    #[test]
    fn nary_union_fuses_in_one_shot() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |pred: i64, out_col: &str| {
            let t = PlanBuilder::scan(&gen, "cte", &cte_cols());
            let a = t.col("amount").unwrap();
            let id = t.col("customer_id").unwrap();
            let o = t.col(out_col).unwrap();
            t.filter(col(a).gt(lit(pred)))
                .project(vec![("k", col(id)), ("v", col(o))])
                .build()
        };
        let b1 = mk(0, "fname");
        let b2 = mk(15, "lname");
        let b3 = mk(25, "fname");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2, b3])
            .unwrap()
            .build();

        let rewritten =
            apply_everywhere(&UnionAllFusion, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(rewritten.scanned_tables().len(), 1);

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert_eq!(base.rows.len(), 4 + 3 + 2);
    }

    /// Branches over different tables do not fuse — the rule must decline.
    #[test]
    fn different_tables_not_fused() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t1 = PlanBuilder::scan(&gen, "cte", &cte_cols());
        let id1 = t1.col("customer_id").unwrap();
        let b1 = t1.project(vec![("k", col(id1))]).build();
        let t2 = PlanBuilder::scan(&gen, "other", &cte_cols());
        let id2 = t2.col("customer_id").unwrap();
        let b2 = t2.project(vec![("k", col(id2))]).build();
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();
        assert!(apply_everywhere(&UnionAllFusion, &plan, &ctx).is_none());
    }
}
