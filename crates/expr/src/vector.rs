//! Column-at-a-time expression evaluation over selection vectors.
//!
//! The row-based evaluator in [`crate::eval`] resolves one column value at
//! a time through a [`crate::eval::Resolver`]; the kernels here evaluate a
//! whole expression over a **selection vector** of row indices into shared
//! columnar arrays, visiting one expression node per *batch* instead of
//! per *row*. The push-based pipeline operator in the executor drives
//! every filter, projection and aggregate input through [`ColumnBatch`].
//!
//! Semantics are bit-identical to the scalar evaluator, including SQL
//! three-valued logic and short-circuit *evaluation sites*: `AND` does not
//! evaluate its right side for rows whose left side is `FALSE` (it does
//! for `NULL`, exactly like the scalar path), `CASE` evaluates each branch
//! only over the rows no earlier branch matched, and `IN` stops testing
//! list items for rows that already matched. A row the scalar evaluator
//! would never touch with a sub-expression is never touched here either,
//! so data-dependent type errors surface identically on both paths.
//!
//! Predicates — filters, aggregate masks, and every AND/OR/NOT, comparison
//! and NULL test [`ColumnBatch::eval`] meets — go through one selection
//! kernel: it splits a selection into the rows where the predicate is
//! TRUE and where it is NULL as bit sets over the rows, combining
//! AND/OR/NOT with word operations and reading columns compared against
//! literals in place, so no value array is built per node.
//! [`ColumnBatch::filter`] keeps the TRUE rows; `eval` turns the two sets
//! back into values.
//!
//! The module also hosts the deterministic hash-key kernels shared by the
//! hash-join probe and hash-aggregate grouping: [`hash_key`] (row-wise)
//! and [`hash_columns`] (column-wise) compute the **same** function, and
//! [`HashedKey`] caches the hash alongside the key so probes hash once.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use fusion_common::{ColumnId, FusionError, Result, Value};

use crate::eval::{arith, cast, compare};
use crate::expr::{BinaryOp, Expr, ScalarFunc};

/// A batch of columnar arrays sharing one row-index domain, addressed by
/// the `ColumnId`s an expression references. Rows are selected by index;
/// the arrays themselves are borrowed, never copied.
#[derive(Debug, Default)]
pub struct ColumnBatch<'a> {
    columns: Vec<&'a [Value]>,
    positions: HashMap<ColumnId, usize>,
}

impl<'a> ColumnBatch<'a> {
    pub fn new() -> Self {
        ColumnBatch::default()
    }

    /// Register `column` as the array backing `id`. Later registrations
    /// of the same id win (mirroring shadowed projections).
    pub fn push(&mut self, id: ColumnId, column: &'a [Value]) {
        match self.positions.get(&id) {
            Some(&p) => self.columns[p] = column,
            None => {
                self.positions.insert(id, self.columns.len());
                self.columns.push(column);
            }
        }
    }

    /// The array registered for `id`.
    pub fn column(&self, id: ColumnId) -> Result<&'a [Value]> {
        self.positions
            .get(&id)
            .map(|&p| self.columns[p])
            .ok_or_else(|| FusionError::Execution(format!("no column {id}")))
    }

    /// Evaluate `expr` for every row in `sel` (ascending, as every
    /// selection vector is); the result is aligned with `sel` (`out[i]` is
    /// the value for row `sel[i]`).
    pub fn eval(&self, expr: &Expr, sel: &[usize]) -> Result<Vec<Value>> {
        match expr {
            Expr::Column(id) => {
                let col = self.column(*id)?;
                Ok(sel.iter().map(|&r| col[r].clone()).collect())
            }
            Expr::Literal(v) => Ok(vec![v.clone(); sel.len()]),
            // Three-valued logic has one implementation, the selection
            // kernel; here its TRUE/NULL rows become values.
            Expr::IsNull(_) | Expr::IsNotNull(_) => self.truth_values(expr, sel),
            e if three_valued(e) => self.truth_values(e, sel),
            Expr::Binary { op, left, right } => {
                let lv = self.eval(left, sel)?;
                let rv = self.eval(right, sel)?;
                lv.into_iter()
                    .zip(rv)
                    .map(|(l, r)| {
                        if l.is_null() || r.is_null() {
                            return Ok(Value::Null);
                        }
                        arith(*op, &l, &r)
                    })
                    .collect()
            }
            Expr::Not(e) => self
                .eval(e, sel)?
                .into_iter()
                .map(|v| match v {
                    Value::Null => Ok(Value::Null),
                    Value::Boolean(b) => Ok(Value::Boolean(!b)),
                    v => Err(FusionError::Type(format!("NOT applied to {v}"))),
                })
                .collect(),
            Expr::Negate(e) => self
                .eval(e, sel)?
                .into_iter()
                .map(|v| match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int64(i) => Ok(Value::Int64(-i)),
                    Value::Float64(f) => Ok(Value::Float64(-f)),
                    v => Err(FusionError::Type(format!("negation applied to {v}"))),
                })
                .collect(),
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut out = vec![Value::Null; sel.len()];
                // Output positions (indices into `sel`) no branch matched.
                let mut remaining: Vec<usize> = (0..sel.len()).collect();
                for (cond, value) in branches {
                    if remaining.is_empty() {
                        break;
                    }
                    let rows: Vec<usize> = remaining.iter().map(|&j| sel[j]).collect();
                    let conds = self.eval(cond, &rows)?;
                    let matched: Vec<usize> = remaining
                        .iter()
                        .zip(&conds)
                        .filter(|(_, c)| c.as_bool() == Some(true))
                        .map(|(&j, _)| j)
                        .collect();
                    if !matched.is_empty() {
                        let rows: Vec<usize> = matched.iter().map(|&j| sel[j]).collect();
                        let vals = self.eval(value, &rows)?;
                        for (&j, v) in matched.iter().zip(vals) {
                            out[j] = v;
                        }
                    }
                    remaining = remaining
                        .into_iter()
                        .zip(conds)
                        .filter(|(_, c)| c.as_bool() != Some(true))
                        .map(|(j, _)| j)
                        .collect();
                }
                if let (Some(e), false) = (else_expr, remaining.is_empty()) {
                    let rows: Vec<usize> = remaining.iter().map(|&j| sel[j]).collect();
                    let vals = self.eval(e, &rows)?;
                    for (j, v) in remaining.into_iter().zip(vals) {
                        out[j] = v;
                    }
                }
                Ok(out)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let scrutinee = self.eval(expr, sel)?;
                let mut out = vec![Value::Null; sel.len()];
                // NULL scrutinees are NULL without touching the list
                // (scalar semantics); everything else keeps testing items
                // until it matches.
                let mut remaining: Vec<usize> = scrutinee
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_null())
                    .map(|(j, _)| j)
                    .collect();
                let mut saw_null = vec![false; sel.len()];
                for item in list {
                    if remaining.is_empty() {
                        break;
                    }
                    let rows: Vec<usize> = remaining.iter().map(|&j| sel[j]).collect();
                    let items = self.eval(item, &rows)?;
                    let mut still = Vec::with_capacity(remaining.len());
                    for (&j, iv) in remaining.iter().zip(&items) {
                        match scrutinee[j].sql_cmp(iv) {
                            Some(Ordering::Equal) => out[j] = Value::Boolean(!negated),
                            other => {
                                if other.is_none() {
                                    saw_null[j] = true;
                                }
                                still.push(j);
                            }
                        }
                    }
                    remaining = still;
                }
                for j in remaining {
                    out[j] = if saw_null[j] {
                        Value::Null
                    } else {
                        Value::Boolean(*negated)
                    };
                }
                Ok(out)
            }
            Expr::Cast { expr, to } => self
                .eval(expr, sel)?
                .into_iter()
                .map(|v| cast(v, *to))
                .collect(),
            Expr::ScalarFunction { func, args } => match func {
                ScalarFunc::Coalesce => {
                    let mut out = vec![Value::Null; sel.len()];
                    let mut remaining: Vec<usize> = (0..sel.len()).collect();
                    for a in args {
                        if remaining.is_empty() {
                            break;
                        }
                        let rows: Vec<usize> = remaining.iter().map(|&j| sel[j]).collect();
                        let vals = self.eval(a, &rows)?;
                        let mut still = Vec::with_capacity(remaining.len());
                        for (&j, v) in remaining.iter().zip(vals) {
                            if v.is_null() {
                                still.push(j);
                            } else {
                                out[j] = v;
                            }
                        }
                        remaining = still;
                    }
                    Ok(out)
                }
                ScalarFunc::Abs => {
                    let vals = match args.first() {
                        Some(a) => self.eval(a, sel)?,
                        None => vec![Value::Null; sel.len()],
                    };
                    vals.into_iter()
                        .map(|v| match v {
                            Value::Int64(i) => Ok(Value::Int64(i.abs())),
                            Value::Float64(f) => Ok(Value::Float64(f.abs())),
                            Value::Null => Ok(Value::Null),
                            other => {
                                Err(FusionError::Type(format!("ABS applied to {other}")))
                            }
                        })
                        .collect()
                }
            },
        }
    }

    /// [`ColumnBatch::eval`] of a predicate the selection kernel
    /// combines: its TRUE and NULL rows as values, FALSE elsewhere.
    fn truth_values(&self, expr: &Expr, sel: &[usize]) -> Result<Vec<Value>> {
        let s = self.select_rows(expr, &RowSet::of(sel))?;
        Ok(sel
            .iter()
            .map(|&r| match (s.truth.contains(r), s.null.contains(r)) {
                (true, _) => Value::Boolean(true),
                (_, true) => Value::Null,
                _ => Value::Boolean(false),
            })
            .collect())
    }

    /// Narrow `sel` (ascending) to the rows where `expr` is TRUE (SQL
    /// filter semantics: NULL drops the row).
    pub fn filter(&self, expr: &Expr, sel: &[usize]) -> Result<Vec<usize>> {
        Ok(self.select_rows(expr, &RowSet::of(sel))?.truth.to_vec())
    }

    /// The three-valued selection kernel: split `sel` into the rows where
    /// the predicate `expr` is TRUE and where it is NULL (the rest are
    /// FALSE) without building a value per row and node. AND narrows, OR
    /// unions, NOT swaps TRUE and FALSE — word operations on row sets —
    /// and comparisons of columns and literals read the column arrays in
    /// place.
    ///
    /// Evaluation sites are the scalar evaluator's: the right side of AND
    /// is evaluated only for rows whose left side is TRUE or NULL, the
    /// right side of OR only where the left is FALSE or NULL, every row in
    /// ascending order, so a data-dependent error surfaces exactly where
    /// it does row by row. Sub-expressions that are not predicates go
    /// through [`ColumnBatch::eval`]; a value that is not a boolean counts
    /// as NULL, as it does to scalar AND/OR.
    fn select_rows(&self, expr: &Expr, sel: &RowSet) -> Result<Tri> {
        match expr {
            Expr::Binary { op, left, right } if *op == BinaryOp::And => {
                let l = self.select_rows(left, sel)?;
                let r = self.select_rows(right, &l.truth.or(&l.null))?;
                // TRUE needs both sides TRUE; NULL is a NULL right side, or
                // a TRUE right side under a NULL left.
                Ok(Tri {
                    truth: l.truth.and(&r.truth),
                    null: r.null.or(&l.null.and(&r.truth)),
                })
            }
            Expr::Binary { op, left, right } if *op == BinaryOp::Or => {
                let l = self.select_rows(left, sel)?;
                let r = self.select_rows(right, &sel.and_not(&l.truth))?;
                // TRUE on either side is TRUE; NULL is a NULL right side, or
                // a NULL left under a right side that is not TRUE.
                Ok(Tri {
                    truth: l.truth.or(&r.truth),
                    null: r.null.or(&l.null.and_not(&r.truth)),
                })
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                match (self.operand(left)?, self.operand(right)?) {
                    (Some(l), Some(r)) => compare_in_place(*op, &l, &r, sel),
                    _ => {
                        let rows = sel.to_vec();
                        let (lv, rv) = (self.eval(left, &rows)?, self.eval(right, &rows)?);
                        let mut pairs = lv.iter().zip(&rv);
                        Tri::classify(sel, |_| match pairs.next() {
                            Some((l, r)) => compare_values(*op, l, r),
                            None => Ok(None),
                        })
                    }
                }
            }
            // NOT of a predicate swaps TRUE and FALSE; NOT of anything else
            // must reject non-boolean values, which `eval` does.
            Expr::Not(e) if is_predicate(e) => {
                let s = self.select_rows(e, sel)?;
                Ok(Tri {
                    truth: sel.and_not(&s.truth).and_not(&s.null),
                    null: s.null,
                })
            }
            Expr::IsNull(e) | Expr::IsNotNull(e) => {
                let want_null = matches!(expr, Expr::IsNull(_));
                match e.as_ref() {
                    Expr::Column(id) => {
                        let col = self.column(*id)?;
                        Tri::classify(sel, |row| Ok(Some(col[row].is_null() == want_null)))
                    }
                    e => {
                        let vals = self.eval(e, &sel.to_vec())?;
                        let mut vals = vals.iter();
                        Tri::classify(sel, |_| Ok(vals.next().map(|v| v.is_null() == want_null)))
                    }
                }
            }
            Expr::Literal(v) => Ok(Tri::uniform(v.as_bool(), sel)),
            Expr::Column(id) => {
                let col = self.column(*id)?;
                Tri::classify(sel, |row| Ok(col[row].as_bool()))
            }
            _ => {
                let vals = self.eval(expr, &sel.to_vec())?;
                let mut vals = vals.iter();
                Tri::classify(sel, |_| Ok(vals.next().and_then(Value::as_bool)))
            }
        }
    }

    /// A comparison operand the kernel reads without evaluating: a
    /// column's array or a literal.
    fn operand<'e>(&self, e: &'e Expr) -> Result<Option<Operand<'a, 'e>>> {
        Ok(match e {
            Expr::Column(id) => Some(Operand::Column(self.column(*id)?)),
            Expr::Literal(v) => Some(Operand::Literal(v)),
            _ => None,
        })
    }
}

/// A set of row indices, one bit per row of the batch.
#[derive(Debug, Clone)]
struct RowSet(Vec<u64>);

impl RowSet {
    /// The set of `rows`.
    fn of(rows: &[usize]) -> Self {
        let mut set = RowSet(vec![0; rows.iter().max().map_or(0, |&r| r / 64 + 1)]);
        for &r in rows {
            set.0[r / 64] |= 1 << (r % 64);
        }
        set
    }

    fn zip(&self, other: &RowSet, f: impl Fn(u64, u64) -> u64) -> RowSet {
        RowSet(self.0.iter().zip(&other.0).map(|(&a, &b)| f(a, b)).collect())
    }

    fn and(&self, other: &RowSet) -> RowSet {
        self.zip(other, |a, b| a & b)
    }

    fn or(&self, other: &RowSet) -> RowSet {
        self.zip(other, |a, b| a | b)
    }

    fn and_not(&self, other: &RowSet) -> RowSet {
        self.zip(other, |a, b| a & !b)
    }

    fn contains(&self, row: usize) -> bool {
        self.0.get(row / 64).is_some_and(|w| w & (1 << (row % 64)) != 0)
    }

    /// The rows, ascending.
    fn to_vec(&self) -> Vec<usize> {
        let mut rows = Vec::with_capacity(self.0.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                rows.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        rows
    }
}

/// A selection split by a predicate: its TRUE rows and its NULL rows.
struct Tri {
    truth: RowSet,
    null: RowSet,
}

impl Tri {
    /// Every row of `sel` TRUE, FALSE or (for `None`) NULL.
    fn uniform(value: Option<bool>, sel: &RowSet) -> Self {
        let none = RowSet(vec![0; sel.0.len()]);
        match value {
            Some(true) => Tri {
                truth: sel.clone(),
                null: none,
            },
            Some(false) => Tri {
                truth: none.clone(),
                null: none,
            },
            None => Tri {
                truth: none,
                null: sel.clone(),
            },
        }
    }

    /// Split `sel` by `value(row)` for each row in ascending order,
    /// stopping at the first error.
    #[inline]
    fn classify(
        sel: &RowSet,
        mut value: impl FnMut(usize) -> Result<Option<bool>>,
    ) -> Result<Self> {
        let mut truth = Vec::with_capacity(sel.0.len());
        let mut null = Vec::with_capacity(sel.0.len());
        for (w, &word) in sel.0.iter().enumerate() {
            let (mut t, mut n, mut bits) = (0u64, 0u64, word);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                match value(w * 64 + b as usize)? {
                    Some(true) => t |= 1 << b,
                    Some(false) => {}
                    None => n |= 1 << b,
                }
            }
            truth.push(t);
            null.push(n);
        }
        Ok(Tri {
            truth: RowSet(truth),
            null: RowSet(null),
        })
    }
}

/// Whether the selection kernel combines `e` itself — AND, OR,
/// comparisons, NOT of a predicate, NULL tests — rather than handing it
/// to [`ColumnBatch::eval`]; `eval` answers exactly these through it.
fn three_valued(e: &Expr) -> bool {
    match e {
        Expr::Binary { op, .. } => {
            matches!(op, BinaryOp::And | BinaryOp::Or) || op.is_comparison()
        }
        Expr::Not(inner) => is_predicate(inner),
        Expr::IsNull(_) | Expr::IsNotNull(_) => true,
        _ => false,
    }
}

/// Whether `e` evaluates to a boolean or NULL on every row (or fails),
/// so NOT over it can swap TRUE and FALSE instead of checking values.
fn is_predicate(e: &Expr) -> bool {
    three_valued(e)
        || matches!(
            e,
            Expr::InList { .. } | Expr::Literal(Value::Boolean(_) | Value::Null)
        )
}

enum Operand<'a, 'e> {
    Column(&'a [Value]),
    Literal(&'e Value),
}

impl Operand<'_, '_> {
    fn at(&self, row: usize) -> &Value {
        match self {
            Operand::Column(col) => &col[row],
            Operand::Literal(v) => v,
        }
    }
}

/// A comparison of two in-place operands over `sel`.
fn compare_in_place(op: BinaryOp, l: &Operand, r: &Operand, sel: &RowSet) -> Result<Tri> {
    match (l, r) {
        (Operand::Literal(v), _) | (_, Operand::Literal(v)) if v.is_null() => {
            Ok(Tri::uniform(None, sel))
        }
        // One instance per operator, so the comparison's test is not a
        // branch inside the row loop.
        (Operand::Column(col), Operand::Literal(v))
        | (Operand::Literal(v), Operand::Column(col)) => {
            let left = matches!(l, Operand::Literal(_));
            match op {
                BinaryOp::Eq => compare_column(col, v, left, Ordering::is_eq, sel),
                BinaryOp::NotEq => compare_column(col, v, left, Ordering::is_ne, sel),
                BinaryOp::Lt => compare_column(col, v, left, Ordering::is_lt, sel),
                BinaryOp::LtEq => compare_column(col, v, left, Ordering::is_le, sel),
                BinaryOp::Gt => compare_column(col, v, left, Ordering::is_gt, sel),
                _ => compare_column(col, v, left, Ordering::is_ge, sel),
            }
        }
        _ => Tri::classify(sel, |row| compare_values(op, l.at(row), r.at(row))),
    }
}

/// `col <op> literal` (or `literal <op> col`) over `sel`, reading the
/// column in place; `keep` is the operator's test on the ordering of the
/// left operand against the right.
fn compare_column(
    col: &[Value],
    literal: &Value,
    literal_left: bool,
    keep: impl Fn(Ordering) -> bool,
    sel: &RowSet,
) -> Result<Tri> {
    Tri::classify(sel, |row| {
        let v = &col[row];
        let ord = match (v, literal) {
            (Value::Int64(a), Value::Int64(b)) if !literal_left => a.cmp(b),
            (Value::Null, _) => return Ok(None),
            _ => {
                let (l, r) = if literal_left { (literal, v) } else { (v, literal) };
                l.sql_cmp(r)
                    .ok_or_else(|| FusionError::Type(format!("cannot compare {l} with {r}")))?
            }
        };
        Ok(Some(keep(ord)))
    })
}

/// Scalar comparison semantics: NULL if either side is NULL, a type error
/// if the two cannot be compared.
fn compare_values(op: BinaryOp, l: &Value, r: &Value) -> Result<Option<bool>> {
    if l.is_null() || r.is_null() {
        return Ok(None);
    }
    let ord = l
        .sql_cmp(r)
        .ok_or_else(|| FusionError::Type(format!("cannot compare {l} with {r}")))?;
    Ok(Some(compare(op, ord)))
}

/// FNV-1a offset basis / prime for key-hash folding.
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic hash of one value (`DefaultHasher` with its fixed keys;
/// [`Value`]'s `Hash` impl normalizes floats so `1.0` and `1` collide
/// consistently across the scalar and columnar paths).
pub fn hash_value(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Row-wise key hash: fold the per-value hashes FNV-1a style. The scalar
/// twin of [`hash_columns`].
pub fn hash_key(key: &[Value]) -> u64 {
    key.iter().fold(HASH_SEED, |h, v| {
        (h ^ hash_value(v)).wrapping_mul(HASH_PRIME)
    })
}

/// Column-wise key hashes for every row in `sel`: one pass per key
/// column, folding into the accumulator exactly as [`hash_key`] does, so
/// `hash_columns(cols, sel)[i] == hash_key(&row_key(sel[i]))`.
pub fn hash_columns(cols: &[&[Value]], sel: &[usize]) -> Vec<u64> {
    let mut out = vec![HASH_SEED; sel.len()];
    for col in cols {
        for (h, &r) in out.iter_mut().zip(sel) {
            *h = (*h ^ hash_value(&col[r])).wrapping_mul(HASH_PRIME);
        }
    }
    out
}

/// A join/group key carrying its precomputed hash: `Hash` writes only the
/// cached `u64` (so probe-side hashing is one `write_u64`), equality
/// compares the key values.
#[derive(Debug, Clone)]
pub struct HashedKey {
    pub hash: u64,
    pub key: Vec<Value>,
}

impl HashedKey {
    pub fn new(key: Vec<Value>) -> Self {
        let hash = hash_key(&key);
        HashedKey { hash, key }
    }

    /// Wrap a key whose hash was already computed (e.g. by
    /// [`hash_columns`]). The caller guarantees `hash == hash_key(&key)`.
    pub fn with_hash(hash: u64, key: Vec<Value>) -> Self {
        HashedKey { hash, key }
    }
}

impl PartialEq for HashedKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HashedKey {}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Resolver};
    use crate::expr::{col, lit};

    /// Resolver over the same columns a `ColumnBatch` sees, for
    /// scalar/columnar equivalence checks.
    struct RowView<'a> {
        cols: &'a [(ColumnId, Vec<Value>)],
        row: usize,
    }
    impl Resolver for RowView<'_> {
        fn value(&self, id: ColumnId) -> Result<Value> {
            self.cols
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, c)| c[self.row].clone())
                .ok_or_else(|| FusionError::Execution(format!("no column {id}")))
        }
    }

    fn batch(cols: &[(ColumnId, Vec<Value>)]) -> ColumnBatch<'_> {
        let mut b = ColumnBatch::new();
        for (id, c) in cols {
            b.push(*id, c);
        }
        b
    }

    fn ints(vals: &[Option<i64>]) -> Vec<Value> {
        vals.iter()
            .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
            .collect()
    }

    #[test]
    fn vector_eval_matches_scalar_row_by_row() {
        let cols = vec![
            (ColumnId(1), ints(&[Some(1), None, Some(3), Some(-4)])),
            (
                ColumnId(2),
                vec![
                    Value::Utf8("a".into()),
                    Value::Utf8("b".into()),
                    Value::Null,
                    Value::Utf8("a".into()),
                ],
            ),
        ];
        let exprs = vec![
            col(ColumnId(1)).gt(lit(1i64)).and(col(ColumnId(2)).eq_to(lit("a"))),
            col(ColumnId(1)).is_null().or(col(ColumnId(2)).eq_to(lit("b"))),
            col(ColumnId(1)).add(lit(10i64)).mul(col(ColumnId(1))),
            Expr::Case {
                branches: vec![
                    (col(ColumnId(1)).lt(lit(0i64)), lit("neg")),
                    (col(ColumnId(1)).gt(lit(1i64)), lit("big")),
                ],
                else_expr: Some(Box::new(col(ColumnId(2)))),
            },
            Expr::InList {
                expr: Box::new(col(ColumnId(1))),
                list: vec![lit(3i64), Expr::Literal(Value::Null), lit(1i64)],
                negated: true,
            },
        ];
        let b = batch(&cols);
        let sel: Vec<usize> = (0..4).collect();
        for e in &exprs {
            let vec_vals = b.eval(e, &sel).expect("vector eval");
            for (i, &r) in sel.iter().enumerate() {
                let scalar = eval(e, &RowView { cols: &cols, row: r }).expect("scalar eval");
                assert_eq!(vec_vals[i], scalar, "row {r} of {e:?}");
            }
        }
    }

    #[test]
    fn filter_keeps_only_true_rows() {
        let cols = vec![(ColumnId(1), ints(&[Some(1), None, Some(3), Some(5)]))];
        let b = batch(&cols);
        let sel: Vec<usize> = (0..4).collect();
        let kept = b
            .filter(&col(ColumnId(1)).gt(lit(1i64)), &sel)
            .expect("filter");
        assert_eq!(kept, vec![2, 3]);
    }

    #[test]
    fn and_short_circuit_skips_right_on_false_left() {
        // Right side divides by the column; scalar AND never evaluates it
        // when the left is FALSE, and neither may the vectorized path.
        let cols = vec![(ColumnId(1), ints(&[Some(0), Some(2)]))];
        let b = batch(&cols);
        let e = col(ColumnId(1))
            .gt(lit(0i64))
            .and(lit(10i64).div(col(ColumnId(1))).gt(lit(1i64)));
        let vals = b.eval(&e, &[0, 1]).expect("eval");
        assert_eq!(vals[0], Value::Boolean(false));
        assert_eq!(vals[1], Value::Boolean(true));
    }

    #[test]
    fn columnar_hashes_match_scalar_hashes() {
        let c1 = ints(&[Some(1), None, Some(3)]);
        let c2 = vec![
            Value::Utf8("x".into()),
            Value::Float64(2.5),
            Value::Null,
        ];
        let cols: Vec<&[Value]> = vec![&c1, &c2];
        let sel = vec![0, 1, 2];
        let columnar = hash_columns(&cols, &sel);
        for (i, &r) in sel.iter().enumerate() {
            let key = vec![c1[r].clone(), c2[r].clone()];
            assert_eq!(columnar[i], hash_key(&key), "row {r}");
            assert_eq!(
                HashedKey::new(key.clone()),
                HashedKey::with_hash(columnar[i], key)
            );
        }
    }

    #[test]
    fn int_and_equal_float_hash_identically() {
        // Value's Hash normalizes integral floats, so mixed-type keys
        // land in the same bucket on both paths.
        assert_eq!(
            hash_key(&[Value::Int64(7)]),
            hash_key(&[Value::Float64(7.0)])
        );
    }
}
