//! The `UnionAllOnJoin` rule (§IV.C).
//!
//! Pattern: a `UnionAll` whose branches are (projections over) joins that
//! differ on one side but share the other:
//! `UnionAll(P1 ⋉_C1 Z1, P2 ⋉_C2 Z2)` with `Fuse(Z1, Z2)` successful and
//! the join conditions matching modulo the mapping. The union is pushed
//! below the join: branches are tagged, the left-hand sides of the join
//! equalities are projected as explicit columns (`UA1`/`UA2` in the
//! paper), and the join predicate is rebuilt with a tag dispatch
//! `(tag=1 AND L) OR (tag=2 AND R)` selecting each branch's compensating
//! filter over the fused right side.
//!
//! Both semi joins (the paper's exposition) and inner joins (needed to
//! finish the Q23 chain by fusing `date_dim`) are handled; the rule
//! applies recursively as each shared subquery is peeled off.

use std::collections::HashSet;

use fusion_common::{ColumnId, Field};
use fusion_expr::{conjoin, split_conjuncts, BinaryOp, Expr};
use fusion_plan::{Filter, Join, JoinType, LogicalPlan, Project, ProjExpr, UnionAll};

use super::Rule;
use crate::fuse::{fuse, root_name, simp, FuseContext, FuseEvent};

pub struct UnionAllOnJoin;

impl Rule for UnionAllOnJoin {
    fn name(&self) -> &'static str {
        "UnionAllOnJoin"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        let union = match plan {
            LogicalPlan::UnionAll(u) if u.inputs.len() >= 2 => u,
            _ => return None,
        };
        let n = union.inputs.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(new_branch) = try_pair(union, i, j, ctx) {
                    if n == 2 {
                        // The whole union is consumed: restore its output
                        // identities over the new branch.
                        let exprs = union
                            .fields
                            .iter()
                            .zip(new_branch.schema().fields())
                            .map(|(out, src)| {
                                ProjExpr::new(out.id, out.name.clone(), Expr::Column(src.id))
                            })
                            .collect();
                        return Some(LogicalPlan::Project(Project {
                            input: Box::new(new_branch),
                            exprs,
                        }));
                    }
                    let mut inputs = union.inputs.clone();
                    inputs[i] = new_branch;
                    inputs.remove(j);
                    return Some(LogicalPlan::UnionAll(UnionAll {
                        inputs,
                        fields: union.fields.clone(),
                    }));
                }
            }
        }
        None
    }
}

/// A branch decomposed as `Project_π(pre-filters(P ⋈ Z))`.
struct BranchParts {
    proj: Vec<ProjExpr>,
    join_type: JoinType,
    p_side: LogicalPlan,
    z_side: LogicalPlan,
    /// Equality pairs `(lhs over P, rhs column of Z)`.
    pairs: Vec<(Expr, ColumnId)>,
    /// Conjuncts local to the P side.
    p_local: Vec<Expr>,
}

fn peel(branch: &LogicalPlan) -> Option<BranchParts> {
    let (proj, mut node): (Vec<ProjExpr>, &LogicalPlan) = match branch {
        LogicalPlan::Project(p) => (p.exprs.clone(), p.input.as_ref()),
        other => (
            other
                .schema()
                .fields()
                .iter()
                .map(ProjExpr::passthrough)
                .collect(),
            other,
        ),
    };
    let mut pre_filters: Vec<Expr> = Vec::new();
    let join = loop {
        match node {
            LogicalPlan::Filter(f) => {
                pre_filters.extend(split_conjuncts(&f.predicate));
                node = f.input.as_ref();
            }
            LogicalPlan::Join(j)
                if matches!(j.join_type, JoinType::Semi | JoinType::Inner | JoinType::Cross) =>
            {
                break j;
            }
            _ => return None,
        }
    };

    let p_schema = join.left.schema();
    let z_schema = join.right.schema();
    let p_ids: HashSet<ColumnId> = p_schema.ids().into_iter().collect();
    let z_ids: HashSet<ColumnId> = z_schema.ids().into_iter().collect();

    let mut pairs = Vec::new();
    let mut p_local = Vec::new();
    let mut z_local = Vec::new();
    let mut all = split_conjuncts(&join.condition);
    all.retain(|c| !c.is_true_literal());
    all.extend(pre_filters);
    for c in all {
        let cols = c.columns();
        let in_p = cols.iter().all(|id| p_ids.contains(id));
        let in_z = cols.iter().all(|id| z_ids.contains(id));
        if in_p && !cols.is_empty() {
            p_local.push(c);
            continue;
        }
        if in_z {
            z_local.push(c);
            continue;
        }
        // Must be an equality `lhs(P) = col(Z)` in either operand order.
        let (l, r) = match &c {
            Expr::Binary {
                op: BinaryOp::Eq,
                left,
                right,
            } => (left.as_ref().clone(), right.as_ref().clone()),
            _ => return None,
        };
        let l_cols = l.columns();
        let r_cols = r.columns();
        let l_in_p = l_cols.iter().all(|id| p_ids.contains(id));
        let r_in_p = r_cols.iter().all(|id| p_ids.contains(id));
        if l_in_p {
            match r {
                Expr::Column(rc) if z_ids.contains(&rc) => pairs.push((l, rc)),
                _ => return None,
            }
        } else if r_in_p {
            match l {
                Expr::Column(lc) if z_ids.contains(&lc) => pairs.push((r, lc)),
                _ => return None,
            }
        } else {
            return None;
        }
    }

    // Push Z-local conjuncts into the Z side so they take part in fusion.
    let z_side = if z_local.is_empty() {
        join.right.as_ref().clone()
    } else {
        LogicalPlan::Filter(Filter {
            input: Box::new(join.right.as_ref().clone()),
            predicate: conjoin(z_local),
        })
    };
    // A cross join with equality pre-filters is an inner join.
    let join_type = if join.join_type == JoinType::Cross {
        JoinType::Inner
    } else {
        join.join_type
    };
    Some(BranchParts {
        proj,
        join_type,
        p_side: join.left.as_ref().clone(),
        z_side,
        pairs,
        p_local,
    })
}


fn try_pair(
    union: &UnionAll,
    i: usize,
    j: usize,
    ctx: &FuseContext,
) -> Option<LogicalPlan> {
    let b1 = peel(&union.inputs[i])?;
    let b2 = peel(&union.inputs[j])?;
    if b1.join_type != b2.join_type || b1.pairs.len() != b2.pairs.len() || b1.pairs.is_empty() {
        return None;
    }

    // Slot expressions must be P-side only (semi joins guarantee this;
    // for inner joins it is a documented v1 restriction).
    let p1_ids: HashSet<ColumnId> = b1.p_side.schema().ids().into_iter().collect();
    let p2_ids: HashSet<ColumnId> = b2.p_side.schema().ids().into_iter().collect();
    if !b1
        .proj
        .iter()
        .all(|pe| pe.expr.columns().iter().all(|c| p1_ids.contains(c)))
        || !b2
            .proj
            .iter()
            .all(|pe| pe.expr.columns().iter().all(|c| p2_ids.contains(c)))
    {
        return None;
    }

    // Fuse the shared sides.
    let fused = fuse(&b1.z_side, &b2.z_side, ctx)?;

    // Match the equality pairs modulo the mapping: for every pair of
    // branch 1 there must be exactly one pair of branch 2 whose right side
    // maps onto it.
    let mut matched: Vec<(Expr, Expr, ColumnId)> = Vec::new(); // (l1, l2, r1)
    let mut used = vec![false; b2.pairs.len()];
    for (l1, r1) in &b1.pairs {
        let pos = b2
            .pairs
            .iter()
            .enumerate()
            .position(|(k, (_, r2))| !used[k] && fused.mapped_id(*r2) == *r1)?;
        used[pos] = true;
        matched.push((l1.clone(), b2.pairs[pos].0.clone(), *r1));
    }

    // Build the pushed-down union's branches.
    let nslots = union.fields.len();
    let build_branch = |parts: &BranchParts, tag: i64, lhs: Vec<Expr>| -> LogicalPlan {
        let input = if parts.p_local.is_empty() {
            parts.p_side.clone()
        } else {
            LogicalPlan::Filter(Filter {
                input: Box::new(parts.p_side.clone()),
                predicate: conjoin(parts.p_local.clone()),
            })
        };
        let mut exprs: Vec<ProjExpr> = parts
            .proj
            .iter()
            .map(|pe| ProjExpr::new(ctx.gen.fresh(), pe.name.clone(), pe.expr.clone()))
            .collect();
        // Internal names carry their fresh id so stacked applications of
        // this rule (branches that already contain `$b…`/`$tag…` columns
        // from an earlier fusion) never emit duplicate internal names,
        // which strict Project validation rejects. The `$tag` prefix is
        // what the analysis lattice keys its domain tracking on.
        for (m, l) in lhs.into_iter().enumerate() {
            let id = ctx.gen.fresh();
            exprs.push(ProjExpr::new(id, format!("$b{m}_{}", id.0), l));
        }
        let tag_id = ctx.gen.fresh();
        exprs.push(ProjExpr::new(
            tag_id,
            format!("$tag{}", tag_id.0),
            fusion_expr::lit(tag),
        ));
        LogicalPlan::Project(Project {
            input: Box::new(input),
            exprs,
        })
    };
    let branch1 = build_branch(&b1, 1, matched.iter().map(|(l1, _, _)| l1.clone()).collect());
    let branch2 = build_branch(&b2, 2, matched.iter().map(|(_, l2, _)| l2.clone()).collect());

    // Union output fields: slots + $b columns + $tag, typed from branch 1.
    let b1_schema = branch1.schema();
    let fields: Vec<Field> = b1_schema
        .fields()
        .iter()
        .map(|f| Field::new(ctx.gen.fresh(), f.name.clone(), f.data_type, true))
        .collect();
    let inner_union = LogicalPlan::UnionAll(UnionAll {
        inputs: vec![branch1, branch2],
        fields: fields.clone(),
    });
    if inner_union.validate().is_err() {
        return None;
    }

    // Rebuild the join condition: $b_m = r_m, plus the tag dispatch over
    // the compensating filters when the fusion was not exact.
    let tag_col = fields.last().expect("tag field").id;
    let mut conds: Vec<Expr> = matched
        .iter()
        .enumerate()
        .map(|(m, (_, _, r1))| {
            let b_col = fields[nslots + m].id;
            fusion_expr::col(b_col).eq_to(fusion_expr::col(*r1))
        })
        .collect();
    if !fused.trivial() {
        let dispatch = fusion_expr::col(tag_col)
            .eq_to(fusion_expr::lit(1i64))
            .and(fused.left.clone())
            .or(fusion_expr::col(tag_col)
                .eq_to(fusion_expr::lit(2i64))
                .and(fused.right.clone()));
        conds.push(simp(dispatch));
    }

    let joined = LogicalPlan::Join(Join {
        left: Box::new(inner_union),
        right: Box::new(fused.plan),
        join_type: b1.join_type,
        condition: conjoin(conds),
    });

    // Keep only the slot columns, positionally.
    let out_schema = joined.schema();
    let exprs: Vec<ProjExpr> = (0..nslots)
        .map(|s| ProjExpr::passthrough(out_schema.field(s)))
        .collect();
    let result = LogicalPlan::Project(Project {
        input: Box::new(joined),
        exprs,
    });
    // A rejected rewrite lands in the fuse trace (and therefore EXPLAIN),
    // next to the event of the shared-side fusion it was built from.
    let reject = |detail: String| {
        ctx.trace.record(FuseEvent {
            left: root_name(&union.inputs[i]).into(),
            right: root_name(&union.inputs[j]).into(),
            fused: false,
            detail,
        });
        None
    };
    if let Err(e) = result.validate() {
        return reject(format!("UnionAllOnJoin rewrite fails validation: {e}"));
    }
    // Semantic discharge: the tag dispatch built above must cover every
    // branch of the inner union exactly once (the analyzer derives the
    // tag domain from the union's `$tag` projections).
    let violations = crate::analysis::analyze_plan(&result);
    if !violations.is_empty() {
        return reject(format!(
            "UnionAllOnJoin rewrite fails analysis: {}",
            crate::analysis::render_violations(&violations)
        ));
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn fact_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("qty", DataType::Int64, true),
            ColumnDef::new("cust", DataType::Int64, true),
            ColumnDef::new("date_sk", DataType::Int64, true),
        ]
    }

    fn dim_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("d_sk", DataType::Int64, false),
            ColumnDef::new("d_year", DataType::Int64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for fact in ["catalog_sales", "web_sales"] {
            let mut b = TableBuilder::new(
                fact,
                vec![
                    TableColumn {
                        name: "qty".into(),
                        data_type: DataType::Int64,
                        nullable: true,
                    },
                    TableColumn {
                        name: "cust".into(),
                        data_type: DataType::Int64,
                        nullable: true,
                    },
                    TableColumn {
                        name: "date_sk".into(),
                        data_type: DataType::Int64,
                        nullable: true,
                    },
                ],
            );
            let base = if fact == "catalog_sales" { 0 } else { 100 };
            for k in 0..20i64 {
                b.add_row(vec![
                    Value::Int64(base + k),
                    Value::Int64(k % 7),
                    Value::Int64(k % 5),
                ])
                .unwrap();
            }
            c.register(b.build());
        }
        let mut b = TableBuilder::new(
            "best_customer",
            vec![TableColumn {
                name: "bc".into(),
                data_type: DataType::Int64,
                nullable: true,
            }],
        );
        for k in [1i64, 3, 5] {
            b.add_row(vec![Value::Int64(k)]).unwrap();
        }
        c.register(b.build());
        let mut b = TableBuilder::new(
            "date_dim",
            vec![
                TableColumn {
                    name: "d_sk".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "d_year".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
            ],
        );
        for k in 0..5i64 {
            b.add_row(vec![Value::Int64(k), Value::Int64(1999 + (k % 2))])
                .unwrap();
        }
        c.register(b.build());
        c
    }

    fn bc_cols() -> Vec<ColumnDef> {
        vec![ColumnDef::new("bc", DataType::Int64, true)]
    }

    /// The paper's simple example: two semi joins against the same
    /// subquery; the union is pushed below the semi join.
    #[test]
    fn semi_join_union_pushes_union_below() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |fact: &str| {
            let f = PlanBuilder::scan(&gen, fact, &fact_cols());
            let (q, cu) = (f.col("qty").unwrap(), f.col("cust").unwrap());
            let z = PlanBuilder::scan(&gen, "best_customer", &bc_cols());
            let zk = z.col("bc").unwrap();
            f.join(z.build(), JoinType::Semi, col(cu).eq_to(col(zk)))
                .project(vec![("sales", col(q))])
                .build()
        };
        let b1 = mk("catalog_sales");
        let b2 = mk("web_sales");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();
        plan.validate().unwrap();
        // Baseline scans best_customer twice.
        assert_eq!(
            plan.scanned_tables()
                .iter()
                .filter(|t| *t == "best_customer")
                .count(),
            2
        );

        let rewritten =
            apply_everywhere(&UnionAllOnJoin, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(
            rewritten
                .scanned_tables()
                .iter()
                .filter(|t| *t == "best_customer")
                .count(),
            1
        );

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert!(!base.rows.is_empty());
    }

    /// Q23 shape: branches also share an inner-joined dimension with a
    /// dimension-side filter. Repeated application fuses the semi-join
    /// subquery first, then the dimension join.
    #[test]
    fn q23_chain_fuses_subquery_then_dimension() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |fact: &str| {
            let f = PlanBuilder::scan(&gen, fact, &fact_cols());
            let (q, cu, ds) = (
                f.col("qty").unwrap(),
                f.col("cust").unwrap(),
                f.col("date_sk").unwrap(),
            );
            let d = PlanBuilder::scan(&gen, "date_dim", &dim_cols());
            let (dk, dy) = (d.col("d_sk").unwrap(), d.col("d_year").unwrap());
            let z = PlanBuilder::scan(&gen, "best_customer", &bc_cols());
            let zk = z.col("bc").unwrap();
            f.cross_join(d.build())
                .filter(
                    col(ds)
                        .eq_to(col(dk))
                        .and(col(dy).eq_to(lit(1999i64))),
                )
                .join(z.build(), JoinType::Semi, col(cu).eq_to(col(zk)))
                .project(vec![("sales", col(q))])
                .build()
        };
        let b1 = mk("catalog_sales");
        let b2 = mk("web_sales");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();
        plan.validate().unwrap();

        // Apply to fixpoint.
        let mut current = plan.clone();
        let mut fired = 0;
        while let Some(next) = apply_everywhere(&UnionAllOnJoin, &current, &ctx) {
            current = next;
            fired += 1;
            assert!(fired < 10, "must converge");
        }
        assert!(fired >= 1, "expected the chain to fire");
        current.validate().unwrap();
        let tables = current.scanned_tables();
        assert_eq!(tables.iter().filter(|t| *t == "best_customer").count(), 1);
        assert_eq!(tables.iter().filter(|t| *t == "date_dim").count(), 1);

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&current, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert!(!base.rows.is_empty());
    }

    /// Branches whose shared sides differ (different subqueries) decline.
    #[test]
    fn unrelated_subqueries_decline() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |fact: &str, sub: &str| {
            let f = PlanBuilder::scan(&gen, fact, &fact_cols());
            let (q, cu) = (f.col("qty").unwrap(), f.col("cust").unwrap());
            let z = PlanBuilder::scan(&gen, sub, &bc_cols());
            let zk = z.col("bc").unwrap();
            f.join(z.build(), JoinType::Semi, col(cu).eq_to(col(zk)))
                .project(vec![("sales", col(q))])
                .build()
        };
        let b1 = mk("catalog_sales", "best_customer");
        let b2 = mk("web_sales", "other_customers");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2])
            .unwrap()
            .build();
        assert!(apply_everywhere(&UnionAllOnJoin, &plan, &ctx).is_none());
    }
}


#[cfg(test)]
mod nary_tests {
    use super::*;
    use crate::fuse::FuseContext;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen};
    use fusion_expr::col;
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    /// A 3-branch UnionAll where two branches share a subquery: the rule
    /// must fuse the pair and keep the third branch intact.
    #[test]
    fn pairs_fuse_within_larger_unions() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let fact_cols = || {
            vec![
                ColumnDef::new("qty", DataType::Int64, true),
                ColumnDef::new("cust", DataType::Int64, true),
            ]
        };
        let bc_cols = || vec![ColumnDef::new("bc", DataType::Int64, true)];
        let mk = |fact: &str, sub: &str| {
            let f = PlanBuilder::scan(&gen, fact, &fact_cols());
            let (q, cu) = (f.col("qty").unwrap(), f.col("cust").unwrap());
            let z = PlanBuilder::scan(&gen, sub, &bc_cols());
            let zk = z.col("bc").unwrap();
            f.join(z.build(), JoinType::Semi, col(cu).eq_to(col(zk)))
                .project(vec![("sales", col(q))])
                .build()
        };
        // Branches 1 and 3 share `best_customer`; branch 2 uses another
        // subquery and must survive untouched.
        let b1 = mk("catalog_sales", "best_customer");
        let b2 = mk("store_sales", "other_list");
        let b3 = mk("web_sales", "best_customer");
        let plan = PlanBuilder::from_plan(&gen, b1)
            .union_all(vec![b2, b3])
            .unwrap()
            .build();
        assert_eq!(
            plan.scanned_tables()
                .iter()
                .filter(|t| *t == "best_customer")
                .count(),
            2
        );

        let rewritten =
            apply_everywhere(&UnionAllOnJoin, &plan, &ctx).expect("pair should fuse");
        rewritten.validate().unwrap();
        let tables = rewritten.scanned_tables();
        assert_eq!(tables.iter().filter(|t| *t == "best_customer").count(), 1);
        assert_eq!(tables.iter().filter(|t| *t == "other_list").count(), 1);
        // Still a UnionAll (2 branches now).
        let mut union_sizes = vec![];
        rewritten.visit(&mut |p| {
            if let LogicalPlan::UnionAll(u) = p {
                union_sizes.push(u.inputs.len());
            }
        });
        assert!(union_sizes.contains(&2));
    }
}
