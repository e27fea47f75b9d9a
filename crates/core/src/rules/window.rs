//! The `GroupByJoinToWindow` rule (§IV.A).
//!
//! Pattern: `P1 ⨝_C GroupBy_{K,A}(P2)` where `Fuse(P1, P2)` succeeds and
//! the join condition equates the grouping columns with their mapped
//! twins. The aggregate-and-join-back is replaced by a window aggregate
//! partitioned on the keys over the single fused input — evaluating and
//! reading the common expression once. Non-trivial compensations are
//! handled per the paper's footnote 4: the window aggregates are masked
//! with `R`, a windowed `COUNT(*) FILTER (R) > 0` certifies that the
//! join partner exists, and `L` filters the probe side.
//!
//! The rule operates on the flattened n-ary join (§IV.E), so the two
//! fusable inputs may be separated by other joins, as in the paper's Q01
//! walkthrough. Key-equality conjuncts are left in the pool: after the
//! rewrite they degenerate to `k = k`, whose SQL semantics (`NULL = NULL`
//! is not TRUE) provide exactly the `IS NOT NULL` compensation the paper
//! prescribes.

use std::borrow::Cow;

use fusion_expr::WindowExpr;
use fusion_plan::{Aggregate, LogicalPlan, Project, ProjExpr, Window};

use super::graph::JoinGraph;
use super::Rule;
use crate::fuse::{fuse, FuseContext};

pub struct GroupByJoinToWindow;

impl Rule for GroupByJoinToWindow {
    fn name(&self) -> &'static str {
        "GroupByJoinToWindow"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        let atoms = JoinGraph::atoms(plan)?;
        let candidate = |p: &&LogicalPlan| match p {
            LogicalPlan::Aggregate(a) => !a.group_by.is_empty() && window_expressible(a),
            _ => false,
        };
        if atoms.len() < 2 || !atoms.iter().any(candidate) {
            return None;
        }
        let graph = JoinGraph::from_plan(plan)?;
        let n = graph.inputs.len();
        if n < 2 {
            return None;
        }
        for j in 0..n {
            let agg = match graph.inputs[j].as_ref() {
                LogicalPlan::Aggregate(a) if !a.group_by.is_empty() => a,
                _ => continue,
            };
            if !window_expressible(agg) {
                continue;
            }
            for i in 0..n {
                if i == j {
                    continue;
                }
                if let Some(replacement) =
                    try_pair(&graph, &graph.inputs[i], &graph.inputs[j], agg, ctx)
                {
                    let mut g = graph.clone();
                    g.inputs[i] = Cow::Owned(replacement);
                    g.inputs.remove(j);
                    return Some(g.rebuild());
                }
            }
        }
        None
    }
}

/// Window execution supports masked (but not distinct) aggregates.
fn window_expressible(agg: &Aggregate) -> bool {
    !agg.aggregates.is_empty() && agg.aggregates.iter().all(|a| !a.agg.distinct)
}

/// Try `p1` against `agg_plan`, the GroupBy `agg`.
fn try_pair(
    graph: &JoinGraph,
    p1: &LogicalPlan,
    agg_plan: &LogicalPlan,
    agg: &Aggregate,
    ctx: &FuseContext,
) -> Option<LogicalPlan> {
    // The GroupBy's output must really be keyed by its grouping columns —
    // discharged via the property lattice so a malformed aggregate (or a
    // future rule emitting one) cannot smuggle a row-multiplying join
    // into the window rewrite.
    if !crate::analysis::plan_has_key(agg_plan, &agg.group_by) {
        return None;
    }

    let fused = fuse(p1, &agg.input, ctx)?;

    // Every grouping column must be equated with its mapped twin in the
    // fused plan by the conjunct pool.
    let mut partition = Vec::with_capacity(agg.group_by.len());
    for k in &agg.group_by {
        let mk = fused.mapped_id(*k);
        if !graph.columns_equated(*k, mk) {
            return None;
        }
        partition.push(mk);
    }

    // Window aggregates over the fused plan. With non-trivial
    // compensations (footnote 4 of the paper) the aggregates only see the
    // P2 side's rows via masks, mirroring non-scalar aggregate fusion.
    let window_assigns: Vec<(fusion_common::ColumnId, fusion_plan::WindowAssign)> = agg
        .aggregates
        .iter()
        .map(|a| {
            let w_id = ctx.gen.fresh();
            let mask = ctx.simp(fused.map(&a.agg.mask).and(fused.right.clone()));
            (
                a.id,
                fusion_plan::WindowAssign {
                    id: w_id,
                    name: format!("$w_{}", a.name),
                    window: WindowExpr::new(
                        a.agg.func,
                        a.agg.arg.as_ref().map(|e| fused.map(e)),
                        partition.clone(),
                    )
                    .with_mask(mask),
                },
            )
        })
        .collect();

    // Compensations (analogous to the compensating COUNT(*) of §III.E):
    // a windowed COUNT(*) FILTER(R) > 0 certifies the join partner
    // exists; the L filter keeps only P1's rows.
    let mut window_exprs: Vec<fusion_plan::WindowAssign> =
        window_assigns.iter().map(|(_, w)| w.clone()).collect();
    let mut post_filters: Vec<fusion_expr::Expr> = Vec::new();
    if !fused.right.is_true_literal() {
        let count_id = ctx.gen.fresh();
        window_exprs.push(fusion_plan::WindowAssign {
            id: count_id,
            name: "$w_countR".into(),
            window: WindowExpr::new(fusion_expr::AggFunc::CountStar, None, partition.clone())
                .with_mask(fused.right.clone()),
        });
        post_filters.push(fusion_expr::col(count_id).gt(fusion_expr::lit(0i64)));
    }
    if !fused.left.is_true_literal() {
        post_filters.push(fused.left.clone());
    }

    let mut windowed = LogicalPlan::Window(Window {
        input: Box::new(fused.plan.clone()),
        exprs: window_exprs,
    });
    if !post_filters.is_empty() {
        windowed = LogicalPlan::Filter(fusion_plan::Filter {
            input: Box::new(windowed),
            predicate: fusion_expr::conjoin(post_filters),
        });
    }

    // Restore the aggregate's output identities: group columns map to
    // their fused twins, aggregate outputs to the window columns. All
    // fused/window outputs pass through so residual conditions and other
    // join conjuncts keep working.
    let mut exprs: Vec<ProjExpr> = windowed
        .schema()
        .fields()
        .iter()
        .map(ProjExpr::passthrough)
        .collect();
    let agg_schema = agg_plan.schema();
    for field in agg_schema.fields() {
        if exprs.iter().any(|pe| pe.id == field.id) {
            continue; // identity-mapped group column already exposed
        }
        if let Some((_, w)) = window_assigns.iter().find(|(orig, _)| *orig == field.id) {
            exprs.push(ProjExpr::new(
                field.id,
                field.name.clone(),
                fusion_expr::col(w.id),
            ));
        } else {
            // A group column mapped to a different fused column.
            let src = fused.mapped_id(field.id);
            exprs.push(ProjExpr::new(
                field.id,
                field.name.clone(),
                fusion_expr::col(src),
            ));
        }
    }

    Some(LogicalPlan::Project(Project {
        input: Box::new(windowed),
        exprs,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, PlanBuilder};

    fn sales_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("store", DataType::Int64, true),
            ColumnDef::new("item", DataType::Int64, true),
            ColumnDef::new("price", DataType::Float64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "sales",
            vec![
                fusion_exec::table::TableColumn {
                    name: "store".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                fusion_exec::table::TableColumn {
                    name: "item".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                fusion_exec::table::TableColumn {
                    name: "price".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        let rows: Vec<(Option<i64>, i64, f64)> = vec![
            (Some(1), 10, 5.0),
            (Some(1), 11, 15.0),
            (Some(2), 10, 7.0),
            (Some(2), 12, 9.0),
            (Some(2), 13, 2.0),
            (None, 14, 4.0), // NULL store: must vanish from the join
        ];
        for (s, i, p) in rows {
            b.add_row(vec![
                s.map(Value::Int64).unwrap_or(Value::Null),
                Value::Int64(i),
                Value::Float64(p),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    /// The motivating Q65-like shape: per-(store,item) revenue joined with
    /// per-store AVG of that same revenue.
    fn q65_like(gen: &IdGen) -> fusion_plan::LogicalPlan {
        // sc: GroupBy(store,item) SUM(price)
        let sc = PlanBuilder::scan(gen, "sales", &sales_cols());
        let (s1, i1, p1) = (
            sc.col("store").unwrap(),
            sc.col("item").unwrap(),
            sc.col("price").unwrap(),
        );
        let sc = sc.aggregate(
            vec![s1, i1],
            vec![("revenue", AggregateExpr::sum(col(p1)))],
        );
        let revenue = sc.col("revenue").unwrap();

        // sb: GroupBy(store) AVG(revenue) over the same subexpression.
        let sa = PlanBuilder::scan(gen, "sales", &sales_cols());
        let (s2, i2, p2) = (
            sa.col("store").unwrap(),
            sa.col("item").unwrap(),
            sa.col("price").unwrap(),
        );
        let sa = sa.aggregate(
            vec![s2, i2],
            vec![("revenue", AggregateExpr::sum(col(p2)))],
        );
        let rev2 = sa.col("revenue").unwrap();
        let sb = sa.aggregate(vec![s2], vec![("ave", AggregateExpr::avg(col(rev2)))]);
        let ave = sb.col("ave").unwrap();

        // Join on store, keep rows with revenue <= ave.
        sc.join(sb.build(), JoinType::Inner, col(s1).eq_to(col(s2)))
            .filter(col(revenue).lt_eq(col(ave)))
            .build()
    }

    #[test]
    fn rewrites_group_join_to_window_and_preserves_results() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let plan = q65_like(&gen);
        plan.validate().unwrap();

        let rewritten = apply_everywhere(&GroupByJoinToWindow, &plan, &ctx)
            .expect("rule should fire");
        rewritten.validate().unwrap();

        // The rewrite removes one of the two aggregate pipelines: the
        // base table is now scanned once.
        assert_eq!(plan.scanned_tables().len(), 2);
        assert_eq!(rewritten.scanned_tables().len(), 1);
        assert!(rewritten.any(&|p| matches!(p, LogicalPlan::Window(_))));

        // Results identical.
        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert!(!base.rows.is_empty());
    }

    #[test]
    fn does_not_fire_without_fusable_inputs() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        // Join with an aggregate over a *different* table.
        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let s1 = a.col("store").unwrap();
        let other = PlanBuilder::scan(&gen, "returns", &sales_cols());
        let (s2, p2) = (other.col("store").unwrap(), other.col("price").unwrap());
        let agg = other.aggregate(vec![s2], vec![("t", AggregateExpr::sum(col(p2)))]);
        let plan = a
            .join(agg.build(), JoinType::Inner, col(s1).eq_to(col(s2)))
            .build();
        assert!(apply_everywhere(&GroupByJoinToWindow, &plan, &ctx).is_none());
    }

    #[test]
    fn does_not_fire_when_keys_not_joined() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s1, i1) = (a.col("store").unwrap(), a.col("item").unwrap());
        let b = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s2, p2) = (b.col("store").unwrap(), b.col("price").unwrap());
        let agg = b.aggregate(vec![s2], vec![("t", AggregateExpr::sum(col(p2)))]);
        // Join on item = store — not the grouping key pairing.
        let plan = a
            .join(agg.build(), JoinType::Inner, col(i1).eq_to(col(s2)))
            .build();
        let _ = s1;
        assert!(apply_everywhere(&GroupByJoinToWindow, &plan, &ctx).is_none());
    }
}

#[cfg(test)]
mod footnote4_tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, PlanBuilder};

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("store", DataType::Int64, true),
            ColumnDef::new("qty", DataType::Int64, true),
            ColumnDef::new("price", DataType::Float64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "sales",
            vec![
                TableColumn {
                    name: "store".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "qty".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "price".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        let rows: Vec<(Option<i64>, i64, f64)> = vec![
            (Some(1), 5, 10.0),
            (Some(1), 50, 20.0),
            (Some(2), 5, 30.0),
            (Some(2), 7, 40.0),
            (Some(3), 60, 50.0), // store 3 has no qty<20 rows
            (None, 5, 60.0),
        ];
        for (s, q, p) in rows {
            b.add_row(vec![
                s.map(Value::Int64).unwrap_or(Value::Null),
                Value::Int64(q),
                Value::Float64(p),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    /// Footnote 4: P1 and the aggregate's input differ by a filter. The
    /// rewrite must use masked window aggregates plus the COUNT(*) > 0
    /// existence compensation, and the L-filter for the probe side.
    #[test]
    fn nontrivial_compensations_use_masked_windows() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        // P1: sales rows with qty >= 10.
        let a = PlanBuilder::scan(&gen, "sales", &cols());
        let (s1, q1, p1c) = (
            a.col("store").unwrap(),
            a.col("qty").unwrap(),
            a.col("price").unwrap(),
        );
        let left = a.filter(col(q1).gt_eq(lit(10i64)));
        let _ = p1c;

        // P2: AVG(price) per store over rows with qty < 20.
        let b = PlanBuilder::scan(&gen, "sales", &cols());
        let (s2, q2, p2c) = (
            b.col("store").unwrap(),
            b.col("qty").unwrap(),
            b.col("price").unwrap(),
        );
        let agg = b
            .filter(col(q2).lt(lit(20i64)))
            .aggregate(vec![s2], vec![("avg_p", AggregateExpr::avg(col(p2c)))])
            .build();

        let plan = left
            .join(agg, JoinType::Inner, col(s1).eq_to(col(s2)))
            .build();
        plan.validate().unwrap();

        let rewritten =
            apply_everywhere(&GroupByJoinToWindow, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(rewritten.scanned_tables().len(), 1);
        // The window aggregates must carry masks.
        let mut masked = 0;
        rewritten.visit(&mut |p| {
            if let LogicalPlan::Window(w) = p {
                masked += w.exprs.iter().filter(|a| !a.window.unmasked()).count();
            }
        });
        assert!(masked >= 2, "AVG mask + COUNT compensation expected:\n{}", rewritten.display());

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        // Store 1: qty>=10 row joins avg over its qty<20 rows; store 3's
        // qty>=10 row must NOT appear (no qty<20 partner).
        assert!(!base.rows.is_empty());
        assert!(base
            .rows
            .iter()
            .all(|r| r[0] != Value::Int64(3)));
    }

    /// Masked source aggregates (FILTER clauses) are also expressible.
    #[test]
    fn masked_source_aggregates_supported() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk_scan = || PlanBuilder::scan(&gen, "sales", &cols());
        let a = mk_scan();
        let (s1, _q1) = (a.col("store").unwrap(), a.col("qty").unwrap());
        let b = mk_scan();
        let (s2, q2, p2c) = (
            b.col("store").unwrap(),
            b.col("qty").unwrap(),
            b.col("price").unwrap(),
        );
        let agg = b
            .aggregate(
                vec![s2],
                vec![(
                    "sum_small",
                    AggregateExpr::sum(col(p2c)).with_mask(col(q2).lt(lit(10i64))),
                )],
            )
            .build();
        let plan = a
            .join(agg, JoinType::Inner, col(s1).eq_to(col(s2)))
            .build();

        let rewritten =
            apply_everywhere(&GroupByJoinToWindow, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
    }
}
