//! Expression simplification.
//!
//! Fusion produces expressions like `C OR C`, `mask AND TRUE`, or
//! `(tag=1 AND L) OR (tag=2 AND R)` with contradictory `L AND R`; the
//! optimizer runs this pass over every rewritten plan so fused results stay
//! clean. Because fusion emits only standard operators, this pass needs no
//! fusion-specific cases — exactly the composability argument of the paper.

use std::cmp::Ordering;

use fusion_common::Value;

use crate::eval;
use crate::expr::{conjoin, disjoin, operands, split_conjuncts, BinaryOp, Expr};

/// Simplify an expression: constant folding, boolean algebra
/// (TRUE/FALSE/duplicate elimination in AND/OR chains), double negation,
/// and trivial CASE reduction. AND/OR chains are flattened and their
/// operands put in a canonical deterministic order, so two predicates
/// built from the same bag of conjuncts simplify to equal expressions —
/// the property plan fingerprinting and `equiv` build on.
///
/// This pass is sound under full Kleene three-valued semantics: for every
/// row, `eval(simplify(e)) == eval(e)` exactly — including NULL results.
/// It therefore does NOT fold contradictory conjunctions to FALSE
/// (`x > 5 AND x < 3` is NULL, not FALSE, when `x` is NULL); use
/// [`simplify_filter`] for predicates in null-rejecting positions.
pub fn simplify(expr: &Expr) -> Expr {
    simplify_memo(expr, &NoMemo)
}

/// A cache of [`simplify`] results, keyed by the expression simplified.
/// Simplification is bottom-up, so an AND/OR chain is re-simplified level
/// by level wherever it appears; a memo that remembers the chain answers
/// every later expression containing it in one lookup.
pub trait SimplifyMemo {
    fn lookup(&self, e: &Expr) -> Option<Expr>;
    fn record(&self, e: &Expr, simplified: &Expr);
}

/// The memo that remembers nothing: [`simplify`] itself.
pub(crate) struct NoMemo;

impl SimplifyMemo for NoMemo {
    fn lookup(&self, _: &Expr) -> Option<Expr> {
        None
    }

    fn record(&self, _: &Expr, _: &Expr) {}
}

/// [`simplify`], bottom-up, consulting `memo` at every AND/OR node (where
/// simplification does its work).
pub fn simplify_memo(expr: &Expr, memo: &dyn SimplifyMemo) -> Expr {
    let chain = matches!(
        expr,
        Expr::Binary {
            op: BinaryOp::And | BinaryOp::Or,
            ..
        }
    );
    if chain {
        if let Some(hit) = memo.lookup(expr) {
            return hit;
        }
    }
    let rebuilt = expr.map_children(&mut |c| simplify_memo(c, memo));
    let out = simplify_node(&rebuilt).unwrap_or(rebuilt);
    if chain {
        memo.record(expr, &out);
    }
    out
}

/// Simplify a predicate used where NULL and FALSE coincide — filter
/// predicates, join conditions, aggregate masks. On top of [`simplify`],
/// folds unsatisfiable conjunctions to FALSE along the AND/OR spine of the
/// predicate (never under NOT or inside comparisons, where the NULL≡FALSE
/// equivalence stops holding).
pub fn simplify_filter(expr: &Expr) -> Expr {
    simplify_filter_memo(expr, &NoMemo)
}

/// [`simplify_filter`] over [`simplify_memo`].
pub fn simplify_filter_memo(expr: &Expr, memo: &dyn SimplifyMemo) -> Expr {
    fold_null_rejecting(&simplify_memo(expr, memo))
}

/// Top-down contradiction folding, restricted to positions reachable
/// through AND/OR only. AND and OR are monotone in Kleene logic, so
/// replacing a never-TRUE subtree (NULL-or-FALSE valued) with literal
/// FALSE cannot change whether the whole predicate accepts a row.
fn fold_null_rejecting(e: &Expr) -> Expr {
    match e {
        Expr::Binary {
            op: BinaryOp::And, ..
        } => {
            let conjuncts: Vec<Expr> = operands(e, BinaryOp::And)
                .into_iter()
                .map(fold_null_rejecting)
                .collect();
            if conjuncts.iter().any(Expr::is_false_literal) || conjuncts_contradict(&conjuncts) {
                return Expr::boolean(false);
            }
            conjoin(conjuncts)
        }
        Expr::Binary {
            op: BinaryOp::Or, ..
        } => {
            let disjuncts: Vec<Expr> = operands(e, BinaryOp::Or)
                .into_iter()
                .map(fold_null_rejecting)
                .filter(|d| !d.is_false_literal())
                .collect();
            disjoin(disjuncts)
        }
        other => other.clone(),
    }
}

fn simplify_node(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => Some(simplify_and(e)),
            BinaryOp::Or => Some(simplify_or(e)),
            _ => fold_binary(*op, left, right),
        },
        Expr::Not(inner) => match inner.as_ref() {
            Expr::Literal(Value::Boolean(b)) => Some(Expr::boolean(!b)),
            Expr::Literal(Value::Null) => Some(Expr::Literal(Value::Null)),
            Expr::Not(inner2) => Some(inner2.as_ref().clone()),
            _ => None,
        },
        Expr::IsNull(inner) => match inner.as_ref() {
            Expr::Literal(v) => Some(Expr::boolean(v.is_null())),
            _ => None,
        },
        Expr::IsNotNull(inner) => match inner.as_ref() {
            Expr::Literal(v) => Some(Expr::boolean(!v.is_null())),
            _ => None,
        },
        Expr::Case {
            branches,
            else_expr,
        } => simplify_case(branches, else_expr.as_deref()),
        Expr::Cast { expr, to } => match expr.as_ref() {
            Expr::Literal(v) => eval::cast(v.clone(), *to).ok().map(Expr::Literal),
            _ => None,
        },
        _ => None,
    }
}

fn fold_binary(op: BinaryOp, left: &Expr, right: &Expr) -> Option<Expr> {
    if let (Expr::Literal(_), Expr::Literal(_)) = (left, right) {
        let e = Expr::Binary {
            op,
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
        };
        let no_columns = |_: fusion_common::ColumnId| -> fusion_common::Result<Value> {
            Err(fusion_common::FusionError::Internal("no columns".into()))
        };
        return eval::eval(&e, &no_columns).ok().map(Expr::Literal);
    }
    None
}

/// Deterministic total order for AND/OR operand lists.
///
/// Conjunct/disjunct chains are *bags*: their evaluation is
/// order-insensitive under Kleene semantics, so we are free to pick one
/// canonical order. Sorting by the rendered form makes structurally
/// identical predicates compare `==` regardless of how the planner or a
/// fusion rule happened to assemble them — which is what plan
/// fingerprinting and the `out.contains` dedup above rely on. The
/// rendered form is a faithful serialization (ids, ops and literals all
/// print), so ties only occur between structurally equal expressions.
pub(crate) fn order_operands<E: std::borrow::Borrow<Expr>>(ops: &mut [E]) {
    ops.sort_by_cached_key(|e| e.borrow().to_string());
}

fn simplify_and(e: &Expr) -> Expr {
    let mut out: Vec<&Expr> = Vec::new();
    for c in operands(e, BinaryOp::And) {
        if c.is_true_literal() {
            continue;
        }
        if c.is_false_literal() {
            return Expr::boolean(false);
        }
        if !out.contains(&c) {
            out.push(c);
        }
    }
    order_operands(&mut out);
    // Absorption: `A AND (A OR B) = A` (valid in Kleene logic). The n-ary
    // fusion fold produces exactly these shapes when it repeatedly ANDs a
    // branch's filter with the growing disjunction of all branches.
    let snapshot = out.clone();
    out.retain(|&c| {
        if let Expr::Binary {
            op: BinaryOp::Or, ..
        } = c
        {
            let disjuncts = operands(c, BinaryOp::Or);
            // Drop `c` if some other conjunct is one of its disjuncts or
            // implies one of them (conjunction subset).
            !snapshot.iter().any(|&other| {
                other != c
                    && disjuncts.iter().any(|&d| {
                        d == other
                            || operands(d, BinaryOp::And)
                                .iter()
                                .all(|&dc| snapshot.iter().any(|&o2| o2 != c && o2 == dc))
                    })
            })
        } else {
            true
        }
    });
    conjoin(out.into_iter().cloned())
}

fn simplify_or(e: &Expr) -> Expr {
    let mut out: Vec<&Expr> = Vec::new();
    for d in operands(e, BinaryOp::Or) {
        if d.is_false_literal() {
            continue;
        }
        if d.is_true_literal() {
            return Expr::boolean(true);
        }
        if !out.contains(&d) {
            out.push(d);
        }
    }
    order_operands(&mut out);
    factor_common_conjuncts(out)
}

/// `(A AND B) OR (A AND C)` → `A AND (B OR C)` — sound under Kleene
/// three-valued logic (distributivity holds). Fusion produces exactly
/// this shape when disjoining per-branch filters that share predicates;
/// factoring lets the shared part push down to the scans.
fn factor_common_conjuncts(disjuncts: Vec<&Expr>) -> Expr {
    if disjuncts.len() < 2 {
        return disjoin(disjuncts.into_iter().cloned());
    }
    let per_disjunct: Vec<Vec<&Expr>> =
        disjuncts.iter().map(|d| operands(d, BinaryOp::And)).collect();
    let mut common: Vec<&Expr> = per_disjunct[0].clone();
    for cs in &per_disjunct[1..] {
        common.retain(|c| cs.contains(c));
    }
    if common.is_empty() {
        return disjoin(disjuncts.into_iter().cloned());
    }
    let remainders: Vec<Expr> = per_disjunct
        .into_iter()
        .map(|cs| conjoin(cs.into_iter().filter(|c| !common.contains(c)).cloned()))
        .collect();
    let mut common: Vec<Expr> = common.into_iter().cloned().collect();
    // TRUE remainder means one disjunct was exactly the common part:
    // absorption collapses the whole disjunction to it.
    if !remainders.iter().any(|r| r.is_true_literal()) {
        let mut unique = Vec::new();
        for r in remainders {
            if !unique.contains(&r) {
                unique.push(r);
            }
        }
        let rest = disjoin(unique);
        if !rest.is_true_literal() {
            common.push(rest);
        }
    }
    order_operands(&mut common);
    conjoin(common)
}

fn simplify_case(branches: &[(Expr, Expr)], else_expr: Option<&Expr>) -> Option<Expr> {
    // Drop branches with literal-FALSE conditions; stop at literal-TRUE.
    let mut kept: Vec<(Expr, Expr)> = Vec::new();
    for (c, v) in branches {
        if c.is_false_literal() {
            continue;
        }
        if c.is_true_literal() {
            if kept.is_empty() {
                return Some(v.clone());
            }
            return Some(Expr::Case {
                branches: kept,
                else_expr: Some(Box::new(v.clone())),
            });
        }
        kept.push((c.clone(), v.clone()));
    }
    if kept.is_empty() {
        return Some(
            else_expr
                .cloned()
                .unwrap_or(Expr::Literal(Value::Null)),
        );
    }
    if kept.len() == branches.len() {
        return None; // nothing changed
    }
    Some(Expr::Case {
        branches: kept,
        else_expr: else_expr.map(|e| Box::new(e.clone())),
    })
}

/// Best-effort check whether `expr` is unsatisfiable (`expr ≡ FALSE`).
///
/// This is the test used by the UnionAll fusion rule to pick its simplified
/// form when the two compensating filters are mutually exclusive
/// (`L AND R ≡ FALSE`). It understands literal FALSE and single-column
/// interval/equality contradictions within a conjunction.
pub fn is_contradiction(expr: &Expr) -> bool {
    let s = simplify_filter(expr);
    if s.is_false_literal() {
        return true;
    }
    conjuncts_contradict(&split_conjuncts(&s))
}

/// Interval analysis over a conjunct list: per column, intersect the ranges
/// implied by comparisons against literals; empty intersection means the
/// conjunction can never be TRUE.
fn conjuncts_contradict(conjuncts: &[Expr]) -> bool {
    use std::collections::HashMap;

    #[derive(Clone)]
    struct Range {
        lo: Option<(Value, bool)>, // (bound, inclusive)
        hi: Option<(Value, bool)>,
        not_eq: Vec<Value>,
        in_set: Option<Vec<Value>>,
    }
    impl Range {
        fn new() -> Self {
            Range {
                lo: None,
                hi: None,
                not_eq: vec![],
                in_set: None,
            }
        }
        fn empty(&self) -> bool {
            if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (&self.lo, &self.hi) {
                match lo.sql_cmp(hi) {
                    Some(Ordering::Greater) => return true,
                    Some(Ordering::Equal) if !(*lo_inc && *hi_inc) => return true,
                    None => return false, // incomparable types: stay safe
                    _ => {}
                }
            }
            if let Some(set) = &self.in_set {
                let feasible = set.iter().any(|v| self.admits(v));
                if !feasible {
                    return true;
                }
            }
            // Point range excluded by a NotEq.
            if let (Some((lo, true)), Some((hi, true))) = (&self.lo, &self.hi) {
                if lo.sql_cmp(hi) == Some(Ordering::Equal)
                    && self
                        .not_eq
                        .iter()
                        .any(|v| v.sql_cmp(lo) == Some(Ordering::Equal))
                {
                    return true;
                }
            }
            false
        }
        fn admits(&self, v: &Value) -> bool {
            if let Some((lo, inc)) = &self.lo {
                match v.sql_cmp(lo) {
                    Some(Ordering::Less) => return false,
                    Some(Ordering::Equal) if !inc => return false,
                    None => return true,
                    _ => {}
                }
            }
            if let Some((hi, inc)) = &self.hi {
                match v.sql_cmp(hi) {
                    Some(Ordering::Greater) => return false,
                    Some(Ordering::Equal) if !inc => return false,
                    None => return true,
                    _ => {}
                }
            }
            !self
                .not_eq
                .iter()
                .any(|n| n.sql_cmp(v) == Some(Ordering::Equal))
        }
        fn add_lo(&mut self, v: Value, inclusive: bool) {
            let replace = match &self.lo {
                None => true,
                Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                    Some(Ordering::Greater) => true,
                    Some(Ordering::Equal) => *cur_inc && !inclusive,
                    _ => false,
                },
            };
            if replace {
                self.lo = Some((v, inclusive));
            }
        }
        fn add_hi(&mut self, v: Value, inclusive: bool) {
            let replace = match &self.hi {
                None => true,
                Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                    Some(Ordering::Less) => true,
                    Some(Ordering::Equal) => *cur_inc && !inclusive,
                    _ => false,
                },
            };
            if replace {
                self.hi = Some((v, inclusive));
            }
        }
        fn add_in_set(&mut self, vs: Vec<Value>) {
            self.in_set = Some(match self.in_set.take() {
                None => vs,
                Some(prev) => prev
                    .into_iter()
                    .filter(|p| vs.iter().any(|v| v.sql_cmp(p) == Some(Ordering::Equal)))
                    .collect(),
            });
        }
    }

    let mut ranges: HashMap<fusion_common::ColumnId, Range> = HashMap::new();
    for c in conjuncts {
        let (id, op, v) = match as_column_literal_cmp(c) {
            Some(t) => t,
            None => {
                if let Expr::InList {
                    expr,
                    list,
                    negated: false,
                } = c
                {
                    if let Expr::Column(id) = expr.as_ref() {
                        let vals: Option<Vec<Value>> = list
                            .iter()
                            .map(|e| match e {
                                Expr::Literal(v) if !v.is_null() => Some(v.clone()),
                                _ => None,
                            })
                            .collect();
                        if let Some(vals) = vals {
                            ranges.entry(*id).or_insert_with(Range::new).add_in_set(vals);
                        }
                    }
                }
                continue;
            }
        };
        let r = ranges.entry(id).or_insert_with(Range::new);
        match op {
            BinaryOp::Eq => {
                r.add_lo(v.clone(), true);
                r.add_hi(v, true);
            }
            BinaryOp::NotEq => r.not_eq.push(v),
            BinaryOp::Lt => r.add_hi(v, false),
            BinaryOp::LtEq => r.add_hi(v, true),
            BinaryOp::Gt => r.add_lo(v, false),
            BinaryOp::GtEq => r.add_lo(v, true),
            _ => {}
        }
    }
    ranges.values().any(|r| r.empty())
}

/// Match `col <op> literal` or `literal <op> col` (normalizing direction).
fn as_column_literal_cmp(e: &Expr) -> Option<(fusion_common::ColumnId, BinaryOp, Value)> {
    if let Expr::Binary { op, left, right } = e {
        if !op.is_comparison() {
            return None;
        }
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column(id), Expr::Literal(v)) if !v.is_null() => Some((*id, *op, v.clone())),
            (Expr::Literal(v), Expr::Column(id)) if !v.is_null() => {
                op.commuted().map(|op| (*id, op, v.clone()))
            }
            _ => None,
        }
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use fusion_common::ColumnId;

    fn c(i: u32) -> Expr {
        col(ColumnId(i))
    }

    #[test]
    fn boolean_identities() {
        assert_eq!(simplify(&c(1).and(Expr::boolean(true))), c(1));
        assert!(simplify(&c(1).and(Expr::boolean(false))).is_false_literal());
        assert_eq!(simplify(&c(1).or(Expr::boolean(false))), c(1));
        assert!(simplify(&c(1).or(Expr::boolean(true))).is_true_literal());
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        let p = c(1).gt(lit(5i64));
        assert_eq!(simplify(&p.clone().and(p.clone())), p);
        assert_eq!(simplify(&p.clone().or(p.clone())), p);
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simplify(&lit(2i64).add(lit(3i64))), lit(5i64));
        assert!(simplify(&lit(2i64).gt(lit(3i64))).is_false_literal());
        assert_eq!(
            simplify(&Expr::Not(Box::new(Expr::Not(Box::new(c(1)))))),
            c(1)
        );
    }

    #[test]
    fn equality_contradiction_detected() {
        // a = 1 AND a = 2 => FALSE
        let e = c(1).eq_to(lit(1i64)).and(c(1).eq_to(lit(2i64)));
        assert!(is_contradiction(&e));
        // Only the filter-context variant may fold to FALSE: with a NULL
        // column the expression evaluates to NULL, so strict `simplify`
        // must leave it alone.
        assert!(simplify_filter(&e).is_false_literal());
        assert!(!simplify(&e).is_false_literal());
    }

    #[test]
    fn range_contradiction_detected() {
        // a > 5 AND a < 3
        assert!(is_contradiction(
            &c(1).gt(lit(5i64)).and(c(1).lt(lit(3i64)))
        ));
        // a >= 5 AND a < 5
        assert!(is_contradiction(
            &c(1).gt_eq(lit(5i64)).and(c(1).lt(lit(5i64)))
        ));
        // a >= 5 AND a <= 5 is satisfiable
        assert!(!is_contradiction(
            &c(1).gt_eq(lit(5i64)).and(c(1).lt_eq(lit(5i64)))
        ));
    }

    #[test]
    fn absorption_collapses_redundant_disjunctions() {
        let a = c(1).gt_eq(lit(1i64));
        let b = c(1).lt_eq(lit(20i64));
        let other = c(1).gt_eq(lit(21i64));
        // A AND (A OR O) => A
        let e = a.clone().and(a.clone().or(other.clone()));
        assert_eq!(simplify(&e), a);
        // (A AND B) AND ((A AND B) OR O) => A AND B
        let ab = a.clone().and(b.clone());
        let e = ab.clone().and(ab.clone().or(other.clone()));
        assert_eq!(simplify(&e), simplify(&ab));
        // The n-ary fusion shape: A ∧ B ∧ ((A ∧ B) ∨ O1) ∧ ((A∧B) ∨ O1 ∨ O2)
        let e = a
            .clone()
            .and(b.clone())
            .and(ab.clone().or(other.clone()))
            .and(ab.clone().or(other.clone()).or(c(2).eq_to(lit(5i64))));
        assert_eq!(simplify(&e), simplify(&ab));
    }

    #[test]
    fn factoring_extracts_common_conjuncts() {
        let a = c(1).eq_to(lit(3i64));
        let b1 = c(2).gt(lit(0i64));
        let b2 = c(2).lt(lit(-5i64));
        // (A AND B1) OR (A AND B2) => A AND (B2 OR B1) — the disjuncts
        // land in canonical (rendered-form) order, which puts B2 first.
        let e = a.clone().and(b1.clone()).or(a.clone().and(b2.clone()));
        let s = simplify(&e);
        assert_eq!(s, a.and(b2.or(b1)));
    }

    #[test]
    fn conjunct_order_is_canonical() {
        // The same bag of conjuncts simplifies to the same expression no
        // matter how the chain was assembled or nested.
        let p = c(1).gt(lit(0i64));
        let q = c(2).lt(lit(5i64));
        let r = c(3).eq_to(lit(7i64));
        let a = p.clone().and(q.clone()).and(r.clone());
        let b = r.clone().and(p.clone().and(q.clone()));
        let d = q.clone().and(r.clone()).and(p.clone());
        assert_eq!(simplify(&a), simplify(&b));
        assert_eq!(simplify(&a), simplify(&d));
        // Same property for disjunctions.
        let a = p.clone().or(q.clone()).or(r.clone());
        let b = r.or(q.or(p));
        assert_eq!(simplify(&a), simplify(&b));
    }

    #[test]
    fn nested_conjunctions_flatten_deterministically() {
        let p = c(1).gt(lit(0i64));
        let q = c(2).lt(lit(5i64));
        let r = c(3).eq_to(lit(7i64));
        // ((p AND q) AND r) and (p AND (q AND r)) flatten to one chain.
        let left = p.clone().and(q.clone()).and(r.clone());
        let right = p.clone().and(q.clone().and(r.clone()));
        let s = simplify(&left);
        assert_eq!(s, simplify(&right));
        assert_eq!(split_conjuncts(&s).len(), 3);
    }

    #[test]
    fn tag_dispatch_contradiction() {
        // tag = 1 AND tag = 2 — the UnionAll-rule shape.
        let e = c(9).eq_to(lit(1i64)).and(c(9).eq_to(lit(2i64)));
        assert!(is_contradiction(&e));
    }

    #[test]
    fn in_list_contradiction() {
        // a IN ('x','y') AND a = 'z'
        let e = Expr::InList {
            expr: Box::new(c(1)),
            list: vec![lit("x"), lit("y")],
            negated: false,
        }
        .and(c(1).eq_to(lit("z")));
        assert!(is_contradiction(&e));
        // a IN ('x','y') AND a = 'x' is fine
        let e = Expr::InList {
            expr: Box::new(c(1)),
            list: vec![lit("x"), lit("y")],
            negated: false,
        }
        .and(c(1).eq_to(lit("x")));
        assert!(!is_contradiction(&e));
    }

    #[test]
    fn point_range_excluded_by_not_eq() {
        let e = c(1)
            .gt_eq(lit(5i64))
            .and(c(1).lt_eq(lit(5i64)))
            .and(c(1).not_eq_to(lit(5i64)));
        assert!(is_contradiction(&e));
    }

    #[test]
    fn satisfiable_mixed_columns() {
        let e = c(1).gt(lit(5i64)).and(c(2).lt(lit(3i64)));
        assert!(!is_contradiction(&e));
    }

    #[test]
    fn case_with_literal_conditions() {
        let e = Expr::Case {
            branches: vec![
                (Expr::boolean(false), lit(1i64)),
                (Expr::boolean(true), lit(2i64)),
            ],
            else_expr: Some(Box::new(lit(3i64))),
        };
        assert_eq!(simplify(&e), lit(2i64));
    }

    #[test]
    fn reversed_comparison_normalized() {
        // 5 < a AND a < 3 => contradiction (5 < a means a > 5)
        let e = lit(5i64).lt(c(1)).and(c(1).lt(lit(3i64)));
        assert!(is_contradiction(&e));
    }
}
