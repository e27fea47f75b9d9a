//! Normalization rules: expression simplification, filter merging,
//! trivial-operator removal.
//!
//! These run before and after the fusion phase. Because fused results are
//! plain relational plans, this pass cleans up whatever the fusion rules
//! produce (e.g. `mask AND TRUE`, `C OR C`, `Filter TRUE`) with no
//! fusion-specific code — the composability property the paper claims
//! over Blitz/Resin.

use std::sync::Arc;

use fusion_expr::{simplify_memo, Expr};
use fusion_plan::{Filter, LogicalPlan, Project};

use super::Rule;
use crate::fuse::FuseContext;

/// Simplify every expression in the plan.
pub struct SimplifyExpressions;

impl Rule for SimplifyExpressions {
    fn name(&self) -> &'static str {
        "SimplifyExpressions"
    }

    /// Fires when some expression of this node simplifies to something
    /// else; the comparison is per expression, never over the subtree.
    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        // Filter predicates, join conditions, masks and scan filters sit in
        // null-rejecting positions, so the stronger contradiction-folding
        // variant applies; projection/sort/argument expressions must keep
        // exact Kleene semantics and get the strict one.
        let exprs = node_exprs(plan);
        let simplified: Vec<Arc<Expr>> = exprs
            .iter()
            .map(|&(e, filter_position)| match filter_position {
                true => ctx.memo.simplify_filter(e),
                false => Arc::new(simplify_memo(e, &*ctx.memo)),
            })
            .collect();
        if exprs.iter().zip(&simplified).all(|((e, _), s)| **s == **e) {
            return None;
        }
        let mut node = plan.clone();
        for (slot, s) in node_exprs_mut(&mut node).into_iter().zip(simplified) {
            *slot = Expr::clone(&s);
        }
        Some(node)
    }
}

/// The expressions `SimplifyExpressions` rewrites in one node, each with
/// whether it sits in a filter position.
fn node_exprs(plan: &LogicalPlan) -> Vec<(&Expr, bool)> {
    match plan {
        LogicalPlan::Filter(f) => vec![(&f.predicate, true)],
        LogicalPlan::Project(p) => p.exprs.iter().map(|pe| (&pe.expr, false)).collect(),
        LogicalPlan::Join(j) => vec![(&j.condition, true)],
        LogicalPlan::Aggregate(a) => a
            .aggregates
            .iter()
            .flat_map(|x| {
                let arg = x.agg.arg.iter().map(|e| (e, false));
                std::iter::once((&x.agg.mask, true)).chain(arg)
            })
            .collect(),
        LogicalPlan::Window(w) => {
            let args = w.exprs.iter().filter_map(|x| x.window.arg.as_ref());
            args.map(|e| (e, false)).collect()
        }
        LogicalPlan::Sort(s) => s.keys.iter().map(|k| (&k.expr, false)).collect(),
        LogicalPlan::MarkDistinct(m) => vec![(&m.mask, true)],
        LogicalPlan::Scan(s) => s.filters.iter().map(|e| (e, true)).collect(),
        _ => Vec::new(),
    }
}

/// [`node_exprs`], mutably and in the same order.
fn node_exprs_mut(plan: &mut LogicalPlan) -> Vec<&mut Expr> {
    match plan {
        LogicalPlan::Filter(f) => vec![&mut f.predicate],
        LogicalPlan::Project(p) => p.exprs.iter_mut().map(|pe| &mut pe.expr).collect(),
        LogicalPlan::Join(j) => vec![&mut j.condition],
        LogicalPlan::Aggregate(a) => a
            .aggregates
            .iter_mut()
            .flat_map(|x| std::iter::once(&mut x.agg.mask).chain(x.agg.arg.as_mut()))
            .collect(),
        LogicalPlan::Window(w) => {
            w.exprs.iter_mut().filter_map(|x| x.window.arg.as_mut()).collect()
        }
        LogicalPlan::Sort(s) => s.keys.iter_mut().map(|k| &mut k.expr).collect(),
        LogicalPlan::MarkDistinct(m) => vec![&mut m.mask],
        LogicalPlan::Scan(s) => s.filters.iter_mut().collect(),
        _ => Vec::new(),
    }
}

/// Merge stacked filters and drop trivial ones.
pub struct MergeFilters;

impl Rule for MergeFilters {
    fn name(&self) -> &'static str {
        "MergeFilters"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan> {
        let f = match plan {
            LogicalPlan::Filter(f) => f,
            _ => return None,
        };
        if f.predicate.is_true_literal() {
            return Some(f.input.as_ref().clone());
        }
        if let LogicalPlan::Filter(inner) = f.input.as_ref() {
            return Some(LogicalPlan::Filter(Filter {
                input: inner.input.clone(),
                predicate: ctx.simp(f.predicate.clone().and(inner.predicate.clone())),
            }));
        }
        None
    }
}

/// Remove projections that are exact identities of their input.
pub struct RemoveTrivialProjections;

impl Rule for RemoveTrivialProjections {
    fn name(&self) -> &'static str {
        "RemoveTrivialProjections"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &FuseContext) -> Option<LogicalPlan> {
        let p = match plan {
            LogicalPlan::Project(p) => p,
            _ => return None,
        };
        // Only a projection of each column onto itself can be an identity;
        // decide that before deriving the input's schema.
        if !p.exprs.iter().all(|pe| pe.expr == fusion_expr::col(pe.id)) {
            return None;
        }
        let input_schema = p.input.schema();
        if p.exprs.len() != input_schema.len() {
            return None;
        }
        let identity = p
            .exprs
            .iter()
            .zip(input_schema.fields())
            .all(|(pe, f)| pe.id == f.id && pe.expr == fusion_expr::col(f.id));
        identity.then(|| p.input.as_ref().clone())
    }
}

/// Collapse `Project(Project(x))` by inlining the inner assignments.
pub struct MergeProjections;

impl Rule for MergeProjections {
    fn name(&self) -> &'static str {
        "MergeProjections"
    }

    fn apply(&self, plan: &LogicalPlan, _ctx: &FuseContext) -> Option<LogicalPlan> {
        let outer = match plan {
            LogicalPlan::Project(p) => p,
            _ => return None,
        };
        let inner = match outer.input.as_ref() {
            LogicalPlan::Project(p) => p,
            _ => return None,
        };
        let inner_map: std::collections::HashMap<_, _> = inner
            .exprs
            .iter()
            .map(|pe| (pe.id, pe.expr.clone()))
            .collect();
        let exprs = outer
            .exprs
            .iter()
            .map(|pe| {
                fusion_plan::ProjExpr::new(pe.id, pe.name.clone(), pe.expr.substitute(&inner_map))
            })
            .collect();
        Some(LogicalPlan::Project(Project {
            input: inner.input.clone(),
            exprs,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::apply_everywhere;
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit, Expr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("a", DataType::Int64, false),
            ColumnDef::new("b", DataType::Int64, true),
        ]
    }

    #[test]
    fn filters_merge_and_trivial_drop() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t = PlanBuilder::scan(&gen, "t", &cols());
        let a = t.col("a").unwrap();
        let plan = t
            .filter(col(a).gt(lit(0i64)))
            .filter(col(a).lt(lit(10i64)))
            .filter(Expr::boolean(true))
            .build();
        let mut current = plan;
        while let Some(next) = apply_everywhere(&MergeFilters, &current, &ctx) {
            current = next;
        }
        // One filter remains, with the conjunction.
        assert_eq!(current.node_count(), 2);
        if let LogicalPlan::Filter(f) = &current {
            assert!(f.predicate.to_string().contains("AND"));
        } else {
            panic!("expected Filter");
        }
    }

    #[test]
    fn identity_projection_removed() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t = PlanBuilder::scan(&gen, "t", &cols());
        let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
        let scan = t.plan().clone();
        let plan = LogicalPlan::Project(Project {
            input: Box::new(scan.clone()),
            exprs: scan
                .schema()
                .fields()
                .iter()
                .map(fusion_plan::ProjExpr::passthrough)
                .collect(),
        });
        let _ = (a, b);
        let out = apply_everywhere(&RemoveTrivialProjections, &plan, &ctx).unwrap();
        assert_eq!(out, scan);
    }

    #[test]
    fn projections_merge_with_inlining() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t = PlanBuilder::scan(&gen, "t", &cols());
        let a = t.col("a").unwrap();
        let p1 = t.project(vec![("x", col(a).add(lit(1i64)))]);
        let x = p1.col("x").unwrap();
        let plan = p1.project(vec![("y", col(x).mul(lit(2i64)))]).build();
        let merged = apply_everywhere(&MergeProjections, &plan, &ctx).unwrap();
        assert_eq!(merged.node_count(), 2);
        if let LogicalPlan::Project(p) = &merged {
            assert_eq!(p.exprs[0].expr, col(a).add(lit(1i64)).mul(lit(2i64)));
        } else {
            panic!("expected Project");
        }
    }

    #[test]
    fn simplification_rewrites_masks() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let t = PlanBuilder::scan(&gen, "t", &cols());
        let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
        let plan = t
            .aggregate(
                vec![a],
                vec![(
                    "s",
                    fusion_expr::AggregateExpr::sum(col(b))
                        .with_mask(col(b).gt(lit(0i64)).and(Expr::boolean(true))),
                )],
            )
            .build();
        let out = apply_everywhere(&SimplifyExpressions, &plan, &ctx).unwrap();
        if let LogicalPlan::Aggregate(agg) = &out {
            assert_eq!(agg.aggregates[0].agg.mask, col(b).gt(lit(0i64)));
        } else {
            panic!("expected Aggregate");
        }
    }
}
