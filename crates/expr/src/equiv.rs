//! Structural equivalence of expressions.
//!
//! `Fuse` repeatedly asks "is `C1` equivalent to `M(C2)`?" — `C2` with
//! its columns rewritten through the fused mapping — of join conditions,
//! grouping keys, aggregate pairs and filter conditions. We
//! answer with a normalization-based test: simplify, canonically order
//! commutative operands and AND/OR chains, then compare structurally.
//! This is sound (never claims equivalence wrongly) but incomplete, the
//! same engineering trade-off production rewriters make.

use crate::expr::{conjoin, disjoin, operands, BinaryOp, Expr};
use crate::simplify::{order_operands, simplify_memo, NoMemo, SimplifyMemo};

/// Normalize an expression to a canonical form for comparison.
pub fn normalize(expr: &Expr) -> Expr {
    normalize_memo(expr, &NoMemo)
}

/// [`normalize`], simplifying through `memo`.
pub fn normalize_memo(expr: &Expr, memo: &dyn SimplifyMemo) -> Expr {
    canon(&simplify_memo(expr, memo))
}

fn canon(e: &Expr) -> Expr {
    match e {
        Expr::Binary {
            op: BinaryOp::And, ..
        } => {
            // `simplify` already orders raw conjuncts; re-sort here
            // because canonizing children (operand commuting below) can
            // change their rendered form, and with it the sort key.
            let mut cs: Vec<Expr> = operands(e, BinaryOp::And).into_iter().map(canon).collect();
            order_operands(&mut cs);
            cs.dedup();
            conjoin(cs)
        }
        Expr::Binary {
            op: BinaryOp::Or, ..
        } => {
            let mut ds: Vec<Expr> = operands(e, BinaryOp::Or).into_iter().map(canon).collect();
            order_operands(&mut ds);
            ds.dedup();
            disjoin(ds)
        }
        Expr::Binary { op, left, right } => {
            let l = canon(left);
            let r = canon(right);
            // Put the lexicographically smaller operand on the left for
            // commutative/flippable operators.
            if let Some(flipped) = op.commuted() {
                if l.to_string() > r.to_string() {
                    return Expr::Binary {
                        op: flipped,
                        left: Box::new(r),
                        right: Box::new(l),
                    };
                }
            }
            Expr::Binary {
                op: *op,
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        Expr::Not(inner) => Expr::Not(Box::new(canon(inner))),
        Expr::Negate(inner) => Expr::Negate(Box::new(canon(inner))),
        Expr::IsNull(inner) => Expr::IsNull(Box::new(canon(inner))),
        Expr::IsNotNull(inner) => Expr::IsNotNull(Box::new(canon(inner))),
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (canon(c), canon(v)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(canon(e))),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut items: Vec<Expr> = list.iter().map(canon).collect();
            items.sort_by_cached_key(|i| i.to_string());
            items.dedup();
            Expr::InList {
                expr: Box::new(canon(expr)),
                list: items,
                negated: *negated,
            }
        }
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(canon(expr)),
            to: *to,
        },
        Expr::ScalarFunction { func, args } => Expr::ScalarFunction {
            func: *func,
            args: args.iter().map(canon).collect(),
        },
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
    }
}

/// Are the two expressions equivalent (best-effort, sound)?
pub fn equiv(a: &Expr, b: &Expr) -> bool {
    normalize(a) == normalize(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, ColumnMap};
    use fusion_common::ColumnId;

    fn c(i: u32) -> Expr {
        col(ColumnId(i))
    }

    #[test]
    fn commuted_equality_is_equivalent() {
        assert!(equiv(&c(1).eq_to(c(2)), &c(2).eq_to(c(1))));
        assert!(equiv(&c(1).lt(c(2)), &c(2).gt(c(1))));
        assert!(!equiv(&c(1).lt(c(2)), &c(2).lt(c(1))));
    }

    #[test]
    fn and_order_does_not_matter() {
        let a = c(1).gt(lit(0i64)).and(c(2).lt(lit(5i64)));
        let b = c(2).lt(lit(5i64)).and(c(1).gt(lit(0i64)));
        assert!(equiv(&a, &b));
    }

    #[test]
    fn equiv_mod_maps_right_side() {
        let mut m = ColumnMap::new();
        m.insert(ColumnId(10), ColumnId(1));
        m.insert(ColumnId(20), ColumnId(2));
        let a = c(1).eq_to(c(2));
        let b = c(10).eq_to(c(20));
        // `Fuse` compares `C1` with `M(C2)`: `b` rewritten through `M`.
        assert!(equiv(&a, &b.map_columns(&m)));
        assert!(!equiv(&a, &b));
    }

    #[test]
    fn simplification_feeds_equivalence() {
        // (x AND TRUE) == x
        assert!(equiv(&c(1).and(Expr::boolean(true)), &c(1)));
        // 1 + 2 == 3
        assert!(equiv(&lit(1i64).add(lit(2i64)), &lit(3i64)));
    }

    #[test]
    fn in_list_order_insensitive() {
        let a = Expr::InList {
            expr: Box::new(c(1)),
            list: vec![lit("m"), lit("l")],
            negated: false,
        };
        let b = Expr::InList {
            expr: Box::new(c(1)),
            list: vec![lit("l"), lit("m")],
            negated: false,
        };
        assert!(equiv(&a, &b));
    }

    #[test]
    fn different_predicates_not_equivalent() {
        assert!(!equiv(&c(1).gt(lit(0i64)), &c(1).gt_eq(lit(0i64))));
    }
}
