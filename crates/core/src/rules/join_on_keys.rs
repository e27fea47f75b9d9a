//! The `JoinOnKeys` rule (§IV.B).
//!
//! When two keyed subplans of a join fuse, and the join condition equates
//! their keys, each left row matches at most one right row — so the join
//! merely *extends* rows with the other side's columns. The fused plan
//! already holds both sides' columns per key, so the join collapses to a
//! filter over the fused plan.
//!
//! Athena lacks general key propagation, so (as in the paper) the rule is
//! implemented for the cases where keys are guaranteed:
//!
//! * **Keyed GroupBys** — the grouping columns are a key of each side.
//!   Works for DISTINCTs too (GroupBys with no aggregates), which is what
//!   finishes the Q95 rewrite chain.
//! * **Scalar aggregates under a cross product** — both sides are
//!   single-row relations (scalar aggregates, possibly wrapped in
//!   `EnforceSingleRow`/`Project`), the Q09/Q28/Q88 pattern.
//!
//! Key-equality conjuncts are left in the conjunct pool; after the rewrite
//! they degenerate to `k = k`, which is exactly the
//! `cl IS NOT NULL` compensation of the paper (SQL equality rejects NULL).

use std::borrow::Cow;
use std::collections::HashSet;

use fusion_common::ColumnId;
use fusion_plan::{Aggregate, Filter, LogicalPlan, Project, ProjExpr};

use super::graph::JoinGraph;
use super::Rule;
use crate::fuse::{fuse, FuseContext, Fused};

pub struct JoinOnKeys;

impl Rule for JoinOnKeys {
    fn name(&self) -> &'static str {
        "JoinOnKeys"
    }

    /// Fuses pair after pair on one graph and rebuilds the plan once. After
    /// each pair the next one is looked for in the graph the rebuilt plan
    /// would flatten to, scanning from the first pair again — exactly the
    /// pairs, in exactly the order, that re-applying the rule to its own
    /// output tried when it fused one pair per application.
    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        // A pair needs two keyed GroupBys or two single-row inputs.
        let atoms = JoinGraph::atoms(plan)?;
        let keyed = |p: &&&LogicalPlan| as_groupby(p).is_some_and(|g| !g.group_by.is_empty());
        let single = |p: &&&LogicalPlan| is_single_row(p);
        if atoms.iter().filter(keyed).count() < 2 && atoms.iter().filter(single).count() < 2 {
            return None;
        }
        let mut graph = JoinGraph::from_plan(plan)?;
        let (i, j, replacement) = first_fusing_pair(&graph, ctx)?;
        graph.inputs[i] = Cow::Owned(replacement);
        graph.inputs.remove(j);
        loop {
            match graph.reflatten_with(|next| first_fusing_pair(next, ctx)) {
                Ok((next, (i, j, replacement))) => {
                    graph = next;
                    graph.inputs[i] = Cow::Owned(replacement);
                    graph.inputs.remove(j);
                }
                Err(done) => return Some(done.rebuild()),
            }
        }
    }

    fn runs_to_fixpoint(&self) -> bool {
        true
    }
}

/// The first pair `(i, j)` in quadratic order (§IV.E) whose inputs fuse,
/// with the plan replacing input `i` (input `j` is dropped).
fn first_fusing_pair(graph: &JoinGraph, ctx: &FuseContext) -> Option<(usize, usize, LogicalPlan)> {
    let n = graph.inputs.len();
    if n < 2 {
        return None;
    }
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let replacement = try_keyed_groupbys(graph, i, j, ctx)
                .or_else(|| try_scalar_singletons(graph, i, j, ctx));
            if let Some(replacement) = replacement {
                return Some((i, j, replacement));
            }
        }
    }
    None
}

/// Keyed-GroupBy variant: both inputs are non-scalar GroupBys, their keys
/// are pairwise equated by the join.
fn try_keyed_groupbys(
    graph: &JoinGraph,
    i: usize,
    j: usize,
    ctx: &FuseContext,
) -> Option<LogicalPlan> {
    let g1 = as_groupby(&graph.inputs[i])?;
    let g2 = as_groupby(&graph.inputs[j])?;
    if g1.group_by.is_empty() || g2.group_by.is_empty() {
        return None;
    }
    // Statically discharge the rule's key precondition via the property
    // lattice instead of trusting the operator shape alone: the grouping
    // columns must be provable distinct keys of each side's output.
    if !crate::analysis::plan_has_key(&graph.inputs[i], &g1.group_by)
        || !crate::analysis::plan_has_key(&graph.inputs[j], &g2.group_by)
    {
        return None;
    }
    let fused = fuse(&graph.inputs[i], &graph.inputs[j], ctx)?;
    // Every right key must be equated with its mapped twin.
    for k2 in &g2.group_by {
        let mk = fused.mapped_id(*k2);
        if !graph.columns_equated(*k2, mk) {
            return None;
        }
    }
    Some(build_replacement(fused, &graph.inputs[j].schema(), ctx))
}

/// Scalar variant: both inputs are single-row relations; the (implicit)
/// cross product pairs the two single rows, so the fused single-row plan
/// replaces both.
fn try_scalar_singletons(
    graph: &JoinGraph,
    i: usize,
    j: usize,
    ctx: &FuseContext,
) -> Option<LogicalPlan> {
    if !is_single_row(&graph.inputs[i]) || !is_single_row(&graph.inputs[j]) {
        return None;
    }
    // The property lattice must agree that both sides are single-row
    // before the join is eliminated (its derivation is independent of the
    // syntactic matcher above).
    if !crate::analysis::plan_is_single_row(&graph.inputs[i])
        || !crate::analysis::plan_is_single_row(&graph.inputs[j])
    {
        return None;
    }
    let fused = fuse(&graph.inputs[i], &graph.inputs[j], ctx)?;
    // Single-row fusion must be exact (scalar aggregates guarantee this:
    // the compensations land in the masks, not in L/R).
    if !fused.trivial() {
        return None;
    }
    Some(build_replacement(fused, &graph.inputs[j].schema(), ctx))
}

fn as_groupby(plan: &LogicalPlan) -> Option<&Aggregate> {
    match plan {
        LogicalPlan::Aggregate(a) => Some(a),
        _ => None,
    }
}

/// A relation statically known to produce exactly one row.
fn is_single_row(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Aggregate(a) => a.is_scalar() && !a.aggregates.is_empty(),
        LogicalPlan::EnforceSingleRow(_) => true,
        LogicalPlan::Project(p) => is_single_row(&p.input),
        _ => false,
    }
}

/// Filter by the compensations, then restore the removed input's output
/// identities on top of the fused plan (everything else passes through so
/// the remaining conjuncts keep resolving).
fn build_replacement(
    fused: Fused,
    removed_schema: &fusion_common::Schema,
    ctx: &FuseContext,
) -> LogicalPlan {
    let comp = ctx.simp(fused.left.clone().and(fused.right.clone()));
    let mapped: Vec<_> = removed_schema.fields().iter().map(|f| fused.mapped_id(f.id)).collect();
    let filtered = if comp.is_true_literal() {
        fused.plan
    } else {
        LogicalPlan::Filter(Filter {
            input: Box::new(fused.plan),
            predicate: comp,
        })
    };
    let mut exprs: Vec<ProjExpr> = filtered
        .schema()
        .fields()
        .iter()
        .map(ProjExpr::passthrough)
        .collect();
    let mut present: HashSet<ColumnId> = exprs.iter().map(|pe| pe.id).collect();
    for (field, src) in removed_schema.fields().iter().zip(mapped) {
        if !present.insert(field.id) {
            continue;
        }
        exprs.push(ProjExpr::new(
            field.id,
            field.name.clone(),
            fusion_expr::col(src),
        ));
    }
    LogicalPlan::Project(Project {
        input: Box::new(filtered),
        exprs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, PlanBuilder};

    fn sales_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("store", DataType::Int64, true),
            ColumnDef::new("qty", DataType::Int64, true),
            ColumnDef::new("profit", DataType::Float64, true),
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
                    name: "profit".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        let rows: Vec<(Option<i64>, i64, f64)> = vec![
            (Some(1), 5, 1.5),
            (Some(1), 25, -0.5),
            (Some(2), 7, 3.0),
            (Some(3), 30, 2.0),
            (None, 9, 1.0),
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

    /// Self-join of two differently-filtered GroupBys on their key.
    #[test]
    fn keyed_groupbys_collapse_to_single_aggregate() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s1, q1) = (a.col("store").unwrap(), a.col("qty").unwrap());
        let left = a
            .filter(col(q1).lt(lit(20i64)))
            .aggregate(vec![s1], vec![("small", AggregateExpr::count_star())]);

        let b = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s2, q2) = (b.col("store").unwrap(), b.col("qty").unwrap());
        let right = b
            .filter(col(q2).gt_eq(lit(20i64)))
            .aggregate(vec![s2], vec![("big", AggregateExpr::count_star())])
            .build();

        let plan = left
            .join(right, JoinType::Inner, col(s1).eq_to(col(s2)))
            .build();
        plan.validate().unwrap();

        let rewritten =
            apply_everywhere(&JoinOnKeys, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(rewritten.scanned_tables().len(), 1);

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        // Store 1 is the only one with both a small and a big sale.
        assert_eq!(base.rows.len(), 1);
    }

    /// The Q09 pattern: scalar aggregates over overlapping subsets of the
    /// same table, cross-joined; all collapse into one multi-masked scan.
    #[test]
    fn scalar_aggregates_merge_across_cross_joins() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());

        let mk = |lo: i64, hi: i64| {
            let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
            let (q, p) = (t.col("qty").unwrap(), t.col("profit").unwrap());
            t.filter(col(q).gt_eq(lit(lo)).and(col(q).lt_eq(lit(hi))))
                .aggregate(
                    vec![],
                    vec![
                        ("cnt", AggregateExpr::count_star()),
                        ("avg_p", AggregateExpr::avg(col(p))),
                    ],
                )
                .enforce_single_row()
                .build()
        };
        let b1 = mk(1, 20);
        let b2 = mk(21, 40);
        let b3 = mk(41, 60);
        let plan = PlanBuilder::from_plan(&gen, b1)
            .cross_join(b2)
            .cross_join(b3)
            .build();
        plan.validate().unwrap();
        assert_eq!(plan.scanned_tables().len(), 3);

        // Apply to fixpoint (pairwise merging).
        let mut current = plan.clone();
        while let Some(next) = apply_everywhere(&JoinOnKeys, &current, &ctx) {
            current = next;
        }
        current.validate().unwrap();
        assert_eq!(current.scanned_tables().len(), 1, "{}", current.display());

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&current, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert_eq!(base.rows.len(), 1);
        assert_eq!(base.rows[0].len(), 6);
    }

    /// DISTINCT dedup: two identical distinct subplans joined on their key
    /// collapse (the tail of the Q95 chain).
    #[test]
    fn duplicate_distincts_collapse() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let probe = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let pk = probe.col("store").unwrap();

        let d1 = {
            let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
            let s = t.col("store").unwrap();
            (t.distinct_on(vec![s]).build(), s)
        };
        let d2 = {
            let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
            let s = t.col("store").unwrap();
            (t.distinct_on(vec![s]).build(), s)
        };
        let plan = probe
            .join(d1.0, JoinType::Inner, col(pk).eq_to(col(d1.1)))
            .join(d2.0, JoinType::Inner, col(pk).eq_to(col(d2.1)))
            .build();
        plan.validate().unwrap();
        assert_eq!(plan.scanned_tables().len(), 3);

        let rewritten =
            apply_everywhere(&JoinOnKeys, &plan, &ctx).expect("rule should fire");
        rewritten.validate().unwrap();
        assert_eq!(rewritten.scanned_tables().len(), 2);

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        // NULL store rows are dropped by the join in both plans.
        assert_eq!(base.rows.len(), 4);
    }

    /// The rule keeps fusing on its own graph: after each pair, the graph
    /// it scans next is exactly the one flattening the rebuilt plan gives
    /// — here under a renaming projection and a filter that keep the
    /// output and the conjunct pool non-trivial.
    #[test]
    fn reflattening_matches_flattening_the_rebuilt_plan() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |lo: i64, hi: i64| {
            let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
            let (q, p) = (t.col("qty").unwrap(), t.col("profit").unwrap());
            t.filter(col(q).gt_eq(lit(lo)).and(col(q).lt_eq(lit(hi))))
                .aggregate(
                    vec![],
                    vec![
                        ("cnt", AggregateExpr::count_star()),
                        ("avg_p", AggregateExpr::avg(col(p))),
                    ],
                )
                .build()
        };
        let (b1, b2, b3) = (mk(1, 20), mk(21, 40), mk(1, 20));
        let (c1, c3) = (b1.schema().field(0).id, b3.schema().field(1).id);
        let joined = PlanBuilder::from_plan(&gen, b1).cross_join(b2).cross_join(b3);
        let plan = joined
            .filter(col(c1).gt(lit(0i64)))
            .project(vec![("n", col(c1)), ("avg", col(c3))])
            .build();

        let mut graph = JoinGraph::from_plan(&plan).unwrap();
        let mut pairs = 0;
        while let Some((i, j, replacement)) = first_fusing_pair(&graph, &ctx) {
            graph.inputs[i] = Cow::Owned(replacement);
            graph.inputs.remove(j);
            pairs += 1;
            let rebuilt = graph.clone().rebuild();
            match JoinGraph::from_plan(&rebuilt) {
                Some(flattened) => assert_eq!(graph.reflattened(), flattened),
                None => assert_eq!(graph.inputs.len(), 1),
            }
            graph = match graph.reflatten_with(|_| Some(())) {
                Ok((next, ())) => next,
                Err(_) => unreachable!("the pick always picks"),
            };
            if let Some(flattened) = JoinGraph::from_plan(&rebuilt) {
                assert_eq!(graph, flattened);
            }
        }
        assert_eq!(pairs, 2);
    }

    #[test]
    fn does_not_fire_on_unkeyed_join() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s1, p1) = (a.col("store").unwrap(), a.col("profit").unwrap());
        let left = a.aggregate(vec![s1], vec![("x", AggregateExpr::sum(col(p1)))]);
        let b = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s2, p2) = (b.col("store").unwrap(), b.col("profit").unwrap());
        let right = b
            .aggregate(vec![s2], vec![("y", AggregateExpr::sum(col(p2)))])
            .build();
        let y = right.schema().field(1).id;
        // Join on an aggregate value, not the keys.
        let x = left.col("x").unwrap();
        let plan = left
            .join(right, JoinType::Inner, col(x).eq_to(col(y)))
            .build();
        assert!(apply_everywhere(&JoinOnKeys, &plan, &ctx).is_none());
    }
}
