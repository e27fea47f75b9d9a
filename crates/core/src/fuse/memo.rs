//! The per-`optimize` expression memo.
//!
//! `Fuse` and its contract checker keep asking the same questions about
//! the same expressions: is this mask equivalent to that one, what does
//! this predicate simplify to, which normalized conjuncts does it hold.
//! A fold of n scalar subqueries asks them about the whole accumulated
//! side at each of its n − 1 steps. [`ExprMemo`] answers each question
//! once per distinct expression and looks the answer up after that, the
//! "normalize once, then look up" treatment of common subexpressions in
//! Roy et al.'s multi-query optimizer.
//!
//! Every entry is a pure function of its key, so a hit returns exactly
//! what recomputing would: the memo changes no decision. Keys compare by
//! [`Expr::identical`], not `==`: `Expr`'s equality treats `1` and `1.0`
//! as equal, and those simplify to different plans.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fusion_expr::{
    normalize_memo, simplify_filter_memo, split_conjuncts, split_disjuncts, Expr, SimplifyMemo,
};

/// One normalized, non-trivial conjunct of a filter-position predicate,
/// as the contract checker compares it: by rendering.
#[derive(Debug)]
pub struct Conjunct {
    pub text: Arc<str>,
    /// For a disjunction, each disjunct's conjuncts: the checker also
    /// counts the disjunction as implied when one disjunct is wholly
    /// available (absorption, `A ⊨ A ∨ B`). Empty otherwise.
    pub absorbed_by: Vec<Vec<Arc<str>>>,
}

impl Conjunct {
    /// Whether the available conjuncts (`has` answers membership by
    /// rendering) imply this one.
    pub fn implied(&self, has: &dyn Fn(&str) -> bool) -> bool {
        has(&self.text) || self.absorbed_by.iter().any(|d| d.iter().all(|c| has(c)))
    }
}

/// Memo of the forms derived from expressions during one `optimize` call.
#[derive(Debug, Default)]
pub struct ExprMemo {
    forms: Mutex<Forms>,
}

#[derive(Debug, Default)]
struct Forms {
    /// `simplify` of the AND/OR subtrees met while simplifying.
    chains: Table<Expr>,
    filter_simplified: Table<Arc<Expr>>,
    normalized: Table<Arc<Expr>>,
    rendered: Table<Arc<str>>,
    conjuncts: Table<Option<Arc<[Conjunct]>>>,
}

/// Expression-keyed entries, bucketed by hash so a lookup borrows its key.
#[derive(Debug)]
struct Table<V>(HashMap<u64, Vec<(Expr, V)>>);

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table(HashMap::new())
    }
}

impl<V: Clone> Table<V> {
    fn get(&self, hash: u64, e: &Expr) -> Option<V> {
        let bucket = self.0.get(&hash)?;
        bucket
            .iter()
            .find(|(k, _)| k.identical(e))
            .map(|(_, v)| v.clone())
    }

    fn insert(&mut self, hash: u64, e: &Expr, v: V) {
        self.0.entry(hash).or_default().push((e.clone(), v));
    }
}

impl<V> Table<V> {
    fn keys(&self) -> impl Iterator<Item = Expr> + '_ {
        self.0.values().flatten().map(|(k, _)| k.clone())
    }
}

impl ExprMemo {
    /// Forget every entry (the optimizer starts each call empty).
    pub fn clear(&self) {
        *self.lock() = Forms::default();
    }

    /// Every expression the memo holds some form of, so a caller can
    /// check each form against recomputing it.
    pub fn expressions(&self) -> Vec<Expr> {
        let f = self.lock();
        f.chains
            .keys()
            .chain(f.filter_simplified.keys())
            .chain(f.normalized.keys())
            .chain(f.rendered.keys())
            .chain(f.conjuncts.keys())
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, Forms> {
        // Entries are immutable once inserted, so a table a panicking
        // thread held is still consistent.
        self.forms.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized `compute(e)`. The lock is not held while computing,
    /// so a computation may consult the memo itself. Columns and literals
    /// are their own simplified and normal forms; looking them up would
    /// cost more than deriving.
    fn memoized<V: Clone>(
        &self,
        table: fn(&mut Forms) -> &mut Table<V>,
        e: &Expr,
        compute: impl FnOnce() -> V,
    ) -> V {
        if matches!(e, Expr::Column(_) | Expr::Literal(_)) {
            return compute();
        }
        let hash = hash_of(e);
        if let Some(v) = table(&mut self.lock()).get(hash, e) {
            return v;
        }
        let v = compute();
        table(&mut self.lock()).insert(hash, e, v.clone());
        v
    }

    /// [`fusion_expr::simplify_filter`]`(e)`.
    pub fn simplify_filter(&self, e: &Expr) -> Arc<Expr> {
        self.memoized(
            |f| &mut f.filter_simplified,
            e,
            || Arc::new(simplify_filter_memo(e, self)),
        )
    }

    /// [`fusion_expr::normalize`]`(e)`: the canonical form
    /// [`ExprMemo::equiv`] compares.
    pub fn normalize(&self, e: &Expr) -> Arc<Expr> {
        self.memoized(
            |f| &mut f.normalized,
            e,
            || Arc::new(normalize_memo(e, self)),
        )
    }

    /// `e.to_string()`.
    pub fn render(&self, e: &Expr) -> Arc<str> {
        self.memoized(|f| &mut f.rendered, e, || e.to_string().into())
    }

    /// [`fusion_expr::equiv()`]`(a, b)`, from memoized normal forms.
    pub fn equiv(&self, a: &Expr, b: &Expr) -> bool {
        self.normalize(a) == self.normalize(b)
    }

    /// The normalized, non-trivial conjuncts of a filter-position
    /// predicate (simplified first, so NULL≡FALSE folding applies).
    /// `None` means the predicate is provably FALSE.
    pub fn conjuncts(&self, e: &Expr) -> Option<Arc<[Conjunct]>> {
        self.memoized(
            |f| &mut f.conjuncts,
            e,
            || {
                let n = self.normalize(&self.simplify_filter(e));
                if n.is_false_literal() {
                    return None;
                }
                Some(
                    split_conjuncts(&n)
                        .into_iter()
                        .filter(|c| !c.is_true_literal())
                        .map(|c| {
                            let disjuncts = split_disjuncts(&c);
                            let absorbed_by = if disjuncts.len() < 2 {
                                Vec::new()
                            } else {
                                disjuncts
                                    .iter()
                                    .map(|d| {
                                        split_conjuncts(d)
                                            .iter()
                                            .map(|dc| self.render(dc))
                                            .collect()
                                    })
                                    .collect()
                            };
                            Conjunct {
                                text: self.render(&c),
                                absorbed_by,
                            }
                        })
                        .collect(),
                )
            },
        )
    }
}

impl SimplifyMemo for ExprMemo {
    fn lookup(&self, e: &Expr) -> Option<Expr> {
        self.lock().chains.get(hash_of(e), e)
    }

    fn record(&self, e: &Expr, simplified: &Expr) {
        self.lock().chains.insert(hash_of(e), e, simplified.clone());
    }
}

fn hash_of(e: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::{ColumnId, Value};
    use fusion_expr::{col, lit, normalize, simplify, simplify_filter, simplify_memo};

    #[test]
    fn hits_return_what_recomputing_would() {
        let memo = ExprMemo::default();
        let a = col(ColumnId(1)).gt(lit(5i64)).and(Expr::boolean(true));
        for _ in 0..2 {
            assert_eq!(*memo.simplify_filter(&a), simplify_filter(&a));
            assert_eq!(simplify_memo(&a, &memo), simplify(&a));
            assert_eq!(*memo.normalize(&a), normalize(&a));
            assert_eq!(&*memo.render(&a), a.to_string());
        }
        let texts: Vec<String> = memo
            .conjuncts(&a)
            .unwrap()
            .iter()
            .map(|c| c.text.to_string())
            .collect();
        assert_eq!(texts, ["(#1 > 5)"]);
        let never = col(ColumnId(1))
            .gt(lit(5i64))
            .and(col(ColumnId(1)).lt(lit(3i64)));
        assert!(memo.conjuncts(&never).is_none());
    }

    /// `1` and `1.0` are `==` but keep separate entries: each simplifies
    /// to its own literal type.
    #[test]
    fn keys_are_exact_not_numerically_equal() {
        let memo = ExprMemo::default();
        let int = col(ColumnId(1)).gt(lit(1i64)).and(Expr::boolean(true));
        let float = col(ColumnId(1)).gt(lit(1.0)).and(Expr::boolean(true));
        assert_eq!(int, float);
        let as_int = memo.simplify_filter(&int);
        let as_float = memo.simplify_filter(&float);
        assert!(as_int.identical(&col(ColumnId(1)).gt(Expr::Literal(Value::Int64(1)))));
        assert!(as_float.identical(&col(ColumnId(1)).gt(Expr::Literal(Value::Float64(1.0)))));
    }
}
