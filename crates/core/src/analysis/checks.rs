//! Whole-plan semantic checks driven by the property lattice.
//!
//! [`analyze_plan`] walks a plan bottom-up once, deriving
//! [`lattice::PlanProps`] per node and checking every expression position
//! against the derived facts:
//!
//! * **tag dispatch coverage** — wherever a filter predicate or join
//!   condition contains a disjunction whose branches each pin an internal
//!   `$tag` column to an integer literal, the dispatched values must cover
//!   the tag's derived domain exactly once each: no branch dropped, none
//!   duplicated, none outside the domain;
//! * **tag domain membership** — any equality `$tag = k` anywhere in the
//!   plan (filters, join conditions, masks, projections) with `k` outside
//!   the derived domain can never be TRUE and indicates a corrupted
//!   rewrite (e.g. a retyped tag literal);
//! * **mask typing** — aggregate, window and mark-distinct masks must be
//!   boolean over their input schema (belt-and-braces on top of
//!   structural validation).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

use fusion_common::{ColumnId, DataType, Value};
use fusion_expr::{split_conjuncts, split_disjuncts, BinaryOp, Expr};
use fusion_plan::LogicalPlan;

use super::lattice::{self, PlanProps};
use super::{AnalysisCode, Violation};

/// Run all semantic checks over a plan. Empty result = OK.
pub fn analyze_plan(plan: &LogicalPlan) -> Vec<Violation> {
    let mut v = Vec::new();
    walk(plan, &mut v);
    v
}

fn walk(plan: &LogicalPlan, v: &mut Vec<Violation>) -> PlanProps {
    let children: Vec<PlanProps> = plan
        .children()
        .into_iter()
        .map(|c| walk(c, v))
        .collect();
    match plan {
        LogicalPlan::Filter(f) => {
            let domains = merged_domains(&children);
            check_dispatch(&f.predicate, &domains, v);
            check_domains(&f.predicate, &domains, v);
        }
        LogicalPlan::Join(j) => {
            let domains = merged_domains(&children);
            check_dispatch(&j.condition, &domains, v);
            check_domains(&j.condition, &domains, v);
        }
        LogicalPlan::Project(p) => {
            let domains = merged_domains(&children);
            for pe in &p.exprs {
                check_domains(&pe.expr, &domains, v);
            }
        }
        LogicalPlan::Aggregate(g) => {
            let domains = merged_domains(&children);
            let input_schema = g.input.schema();
            for a in &g.aggregates {
                check_dispatch(&a.agg.mask, &domains, v);
                check_domains(&a.agg.mask, &domains, v);
                check_boolean_mask(&a.agg.mask, &input_schema, &a.name, v);
            }
        }
        LogicalPlan::Window(w) => {
            let domains = merged_domains(&children);
            let input_schema = w.input.schema();
            for we in &w.exprs {
                check_dispatch(&we.window.mask, &domains, v);
                check_domains(&we.window.mask, &domains, v);
                check_boolean_mask(&we.window.mask, &input_schema, &we.name, v);
            }
        }
        LogicalPlan::MarkDistinct(m) => {
            let domains = merged_domains(&children);
            check_domains(&m.mask, &domains, v);
            check_boolean_mask(&m.mask, &m.input.schema(), &m.mark_name, v);
        }
        _ => {}
    }
    lattice::node_props(plan, &children)
}

fn merged_domains(children: &[PlanProps]) -> HashMap<ColumnId, BTreeSet<i64>> {
    let mut out = HashMap::new();
    for c in children {
        out.extend(c.tag_domains.iter().map(|(k, d)| (*k, d.clone())));
    }
    out
}

fn check_boolean_mask(mask: &Expr, schema: &fusion_common::Schema, owner: &str, v: &mut Vec<Violation>) {
    match mask.data_type(schema) {
        Ok(DataType::Boolean) | Err(_) => {} // type errors are validate's job
        Ok(other) => v.push(Violation::new(
            AnalysisCode::Mask,
            format!("mask of `{owner}` has type {other:?}, expected Boolean"),
        )),
    }
}

/// `col = int-literal` (either orientation) at a conjunct's top level.
fn tag_equalities(e: &Expr) -> HashMap<ColumnId, i64> {
    let mut out = HashMap::new();
    for c in split_conjuncts(e) {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = &c
        {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(id), Expr::Literal(Value::Int64(k)))
                | (Expr::Literal(Value::Int64(k)), Expr::Column(id)) => {
                    out.insert(*id, *k);
                }
                _ => {}
            }
        }
    }
    out
}

/// Dispatch coverage: for each conjunct of `pred` that is a disjunction
/// where every disjunct pins the same domained tag column, the dispatched
/// values must be exactly the domain, once each.
fn check_dispatch(
    pred: &Expr,
    domains: &HashMap<ColumnId, BTreeSet<i64>>,
    v: &mut Vec<Violation>,
) {
    if domains.is_empty() {
        return;
    }
    for conjunct in split_conjuncts(pred) {
        let disjuncts = split_disjuncts(&conjunct);
        if disjuncts.len() < 2 {
            continue;
        }
        let eqs: Vec<HashMap<ColumnId, i64>> = disjuncts.iter().map(tag_equalities).collect();
        let Some(first) = eqs.first() else { continue };
        for tag in first.keys() {
            let Some(domain) = domains.get(tag) else {
                continue;
            };
            // Only a full dispatch (every branch pins this tag) is checked.
            let Some(values) = eqs
                .iter()
                .map(|m| m.get(tag).copied())
                .collect::<Option<Vec<i64>>>()
            else {
                continue;
            };
            let mut seen = BTreeSet::new();
            for val in &values {
                if !domain.contains(val) {
                    v.push(Violation::new(
                        AnalysisCode::TagDispatch,
                        format!(
                            "dispatch on tag #{} selects value {val} outside its domain {domain:?}",
                            tag.0
                        ),
                    ));
                }
                if !seen.insert(*val) {
                    v.push(Violation::new(
                        AnalysisCode::TagDispatch,
                        format!("dispatch on tag #{} selects value {val} more than once", tag.0),
                    ));
                }
            }
            for missing in domain.iter().filter(|d| !seen.contains(d)) {
                v.push(Violation::new(
                    AnalysisCode::TagDispatch,
                    format!(
                        "dispatch on tag #{} never selects branch value {missing}",
                        tag.0
                    ),
                ));
            }
        }
    }
}

/// Flag any equality pinning a domained tag column to a value outside its
/// domain, anywhere in the expression tree (CASE conditions, masks, ...).
fn check_domains(
    expr: &Expr,
    domains: &HashMap<ColumnId, BTreeSet<i64>>,
    v: &mut Vec<Violation>,
) {
    if domains.is_empty() {
        return;
    }
    let hits: RefCell<Vec<(ColumnId, i64)>> = RefCell::new(Vec::new());
    // `transform` visits every node; returning None leaves the tree
    // unchanged, so this is a read-only walk.
    let _ = expr.transform(&|e| {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = e
        {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(id), Expr::Literal(Value::Int64(k)))
                | (Expr::Literal(Value::Int64(k)), Expr::Column(id)) => {
                    if let Some(domain) = domains.get(id) {
                        if !domain.contains(k) {
                            hits.borrow_mut().push((*id, *k));
                        }
                    }
                }
                _ => {}
            }
        }
        None
    });
    for (id, k) in hits.into_inner() {
        v.push(Violation::new(
            AnalysisCode::TagDispatch,
            format!(
                "comparison `#{} = {k}` can never be TRUE: value outside the tag domain",
                id.0
            ),
        ));
    }
}
