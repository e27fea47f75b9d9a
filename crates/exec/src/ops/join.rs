//! Join operators: hash join for equi-conditions, nested-loop fallback,
//! cross join.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fusion_common::{Result, Schema, Value};
use fusion_expr::{hash_columns, split_conjuncts, BinaryOp, Expr, HashedKey};
use fusion_plan::JoinType;

use crate::context::{BudgetedReservation, ExecContext, IntoContext};
use crate::ops::exchange::collect_morsels;
use crate::ops::scan::ScanFragment;
use crate::ops::{drain, row_bytes, BoxedOp, Operator, RowDrain, RowIndex};
use crate::profile::OpSpan;
use crate::{Chunk, Row};

/// One morsel's contribution to a parallel hash-join build: the partial
/// key → rows map and the state bytes it reserves.
type BuildPartial = (HashMap<HashedKey, Vec<Row>>, i64);

/// Split a join condition into equi-key pairs `(left_expr, right_expr)`
/// and a residual predicate, given the column sets of both sides.
pub fn split_join_condition(
    condition: &Expr,
    left: &Schema,
    right: &Schema,
) -> (Vec<(Expr, Expr)>, Vec<Expr>) {
    let left_ids: std::collections::HashSet<_> = left.fields().iter().map(|f| f.id).collect();
    let right_ids: std::collections::HashSet<_> = right.fields().iter().map(|f| f.id).collect();
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for c in split_conjuncts(condition) {
        if c.is_true_literal() {
            continue;
        }
        let mut placed = false;
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left: l,
            right: r,
        } = &c
        {
            let l_cols = l.columns();
            let r_cols = r.columns();
            let l_in_left = !l_cols.is_empty() && l_cols.iter().all(|c| left_ids.contains(c));
            let l_in_right = !l_cols.is_empty() && l_cols.iter().all(|c| right_ids.contains(c));
            let r_in_left = !r_cols.is_empty() && r_cols.iter().all(|c| left_ids.contains(c));
            let r_in_right = !r_cols.is_empty() && r_cols.iter().all(|c| right_ids.contains(c));
            if l_in_left && r_in_right {
                keys.push((l.as_ref().clone(), r.as_ref().clone()));
                placed = true;
            } else if l_in_right && r_in_left {
                keys.push((r.as_ref().clone(), l.as_ref().clone()));
                placed = true;
            }
        }
        if !placed {
            residual.push(c);
        }
    }
    (keys, residual)
}

/// Hash join: builds the right side, probes with the left.
///
/// Supports Inner, Left (outer) and Semi joins. Rows whose key contains a
/// NULL never match. The build-side hash table is metered as operator
/// state, which is what the paper's §V.C memory observation is about.
pub struct HashJoinExec {
    left: BoxedOp,
    right: Option<BoxedOp>,
    join_type: JoinType,
    key_exprs: Vec<(Expr, Expr)>,
    residual: Vec<Expr>,
    left_index: RowIndex,
    combined_index: RowIndex,
    schema: Schema,
    right_width: usize,
    build: Option<HashMap<HashedKey, Vec<Row>>>,
    _reservation: Option<BudgetedReservation>,
    ctx: Arc<ExecContext>,
    /// Probe buffer: output rows not yet emitted.
    pending: RowDrain,
    /// When the build side is a plain table scan, build it morsel-parallel
    /// instead of draining a `right` operator.
    parallel_build: Option<(Arc<ScanFragment>, usize)>,
    span: Option<Arc<OpSpan>>,
}

impl HashJoinExec {
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        join_type: JoinType,
        key_exprs: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        let left_index = RowIndex::new(left.schema());
        let combined = left.schema().join(right.schema());
        let combined_index = RowIndex::new(&combined);
        let right_width = right.schema().len();
        HashJoinExec {
            left,
            right: Some(right),
            join_type,
            key_exprs,
            residual,
            left_index,
            combined_index,
            schema,
            right_width,
            build: None,
            _reservation: None,
            ctx: ctx.into_ctx(),
            pending: RowDrain::default(),
            parallel_build: None,
            span: None,
        }
    }

    /// Hash join whose build side is read morsel-parallel straight from a
    /// table scan fragment rather than drained from a child operator.
    #[allow(clippy::too_many_arguments)]
    pub fn with_parallel_build(
        left: BoxedOp,
        fragment: Arc<ScanFragment>,
        workers: usize,
        join_type: JoinType,
        key_exprs: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        let left_index = RowIndex::new(left.schema());
        let combined = left.schema().join(fragment.schema());
        let combined_index = RowIndex::new(&combined);
        let right_width = fragment.schema().len();
        HashJoinExec {
            left,
            right: None,
            join_type,
            key_exprs,
            residual,
            left_index,
            combined_index,
            schema,
            right_width,
            build: None,
            _reservation: None,
            ctx: ctx.into_ctx(),
            pending: RowDrain::default(),
            parallel_build: Some((fragment, workers.max(1))),
            span: None,
        }
    }

    /// Insert one build row into the hash table, skipping null keys;
    /// returns the bytes the row added to build state.
    fn insert_build_row(
        key_exprs: &[(Expr, Expr)],
        right_index: &RowIndex,
        map: &mut HashMap<HashedKey, Vec<Row>>,
        row: Row,
    ) -> Result<i64> {
        let mut key = Vec::with_capacity(key_exprs.len());
        let mut has_null = false;
        for (_, rk) in key_exprs {
            let v = right_index.eval(rk, &row)?;
            has_null |= v.is_null();
            key.push(v);
        }
        if has_null {
            return Ok(0); // null keys never match
        }
        let bytes = row_bytes(&row) + row_bytes(&key);
        map.entry(HashedKey::new(key)).or_default().push(row);
        Ok(bytes)
    }

    fn build_side(&mut self) -> Result<()> {
        if self.build.is_some() {
            return Ok(());
        }
        // Build-side hashing is attributed to the join as CPU time; a
        // parallel build's scan records its own partition stats through
        // the fragment's span.
        let build_start = Instant::now();
        if let Some((fragment, workers)) = self.parallel_build.take() {
            let right_index = RowIndex::new(fragment.schema());
            let key_exprs = &self.key_exprs;
            let partials = collect_morsels(
                &self.ctx,
                fragment.num_partitions(),
                workers,
                |m| -> Result<Option<BuildPartial>> {
                    let rows = match fragment.scan_partition(m)? {
                        None => return Ok(None),
                        Some(rows) => rows,
                    };
                    if rows.is_empty() {
                        return Ok(None);
                    }
                    let mut map: HashMap<HashedKey, Vec<Row>> = HashMap::new();
                    let mut bytes = 0i64;
                    for row in rows {
                        bytes += Self::insert_build_row(key_exprs, &right_index, &mut map, row)?;
                    }
                    Ok(Some((map, bytes)))
                },
            )?;
            // Merge in partition-index order so each key's row vector has
            // exactly the sequential build's row order.
            let mut map: HashMap<HashedKey, Vec<Row>> = HashMap::new();
            let mut bytes = 0i64;
            for (_, (part_map, part_bytes)) in partials {
                bytes += part_bytes;
                for (k, rows) in part_map {
                    map.entry(k).or_default().extend(rows);
                }
            }
            let mut reservation = BudgetedReservation::try_new(self.ctx.clone(), bytes)?;
            if let Some(span) = &self.span {
                span.add_cpu_nanos(build_start.elapsed().as_nanos() as u64);
                reservation.set_span(span.clone());
            }
            self._reservation = Some(reservation);
            self.build = Some(map);
            return Ok(());
        }
        let mut right = self
            .right
            .take()
            .expect("hash-join build side consumed exactly once: build_side runs behind build.is_none()");
        let right_index = RowIndex::new(right.schema());
        let rows = drain(right.as_mut())?;
        let mut bytes = 0i64;
        let mut map: HashMap<HashedKey, Vec<Row>> = HashMap::new();
        for row in rows {
            bytes += Self::insert_build_row(&self.key_exprs, &right_index, &mut map, row)?;
        }
        let mut reservation = BudgetedReservation::try_new(self.ctx.clone(), bytes)?;
        if let Some(span) = &self.span {
            span.add_cpu_nanos(build_start.elapsed().as_nanos() as u64);
            reservation.set_span(span.clone());
        }
        self._reservation = Some(reservation);
        self.build = Some(map);
        Ok(())
    }

    /// Probe the hash table with a whole chunk. Key expressions are
    /// evaluated column-at-a-time and hashed with the vectorized kernel
    /// ([`hash_columns`]), which computes exactly the row-wise
    /// `HashedKey::new` fold — probe hashes match build hashes bit for bit.
    fn probe_chunk(&self, chunk: &Chunk, out: &mut Vec<Row>) -> Result<()> {
        let build = self
            .build
            .as_ref()
            .expect("hash table was built before probing: next_chunk calls build_side first");
        let mut key_cols: Vec<Vec<Value>> = Vec::with_capacity(self.key_exprs.len());
        for (lk, _) in &self.key_exprs {
            let mut col = Vec::with_capacity(chunk.len());
            for row in chunk {
                col.push(self.left_index.eval(lk, row)?);
            }
            key_cols.push(col);
        }
        let sel: Vec<usize> = (0..chunk.len()).collect();
        let col_refs: Vec<&[Value]> = key_cols.iter().map(|c| c.as_slice()).collect();
        let hashes = hash_columns(&col_refs, &sel);
        self.ctx
            .metrics()
            .add_rows_evaluated_vectorized(chunk.len() as u64);
        for (i, left_row) in chunk.iter().enumerate() {
            let has_null = key_cols.iter().any(|c| c[i].is_null());
            let matches = if has_null {
                None
            } else {
                // Each slot is consumed exactly once; Null left behind is
                // never read again.
                let key: Vec<Value> = key_cols
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[i], Value::Null))
                    .collect();
                build.get(&HashedKey::with_hash(hashes[i], key))
            };
            let mut matched = false;
            if let Some(rows) = matches {
                'matches: for right_row in rows {
                    let mut combined = left_row.clone();
                    combined.extend(right_row.iter().cloned());
                    let residual_ok = self
                        .residual
                        .iter()
                        .map(|e| self.combined_index.eval_pred(e, &combined))
                        .collect::<Result<Vec<bool>>>()?
                        .into_iter()
                        .all(|b| b);
                    if !residual_ok {
                        continue;
                    }
                    matched = true;
                    match self.join_type {
                        JoinType::Inner | JoinType::Left => out.push(combined),
                        JoinType::Semi => {
                            out.push(left_row.clone());
                            break 'matches;
                        }
                        JoinType::Cross => unreachable!("cross join uses CrossJoinExec"),
                    }
                }
            }
            if !matched && self.join_type == JoinType::Left {
                let mut padded = left_row.clone();
                padded.extend(std::iter::repeat_n(Value::Null, self.right_width));
                out.push(padded);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        self.ctx.check()?;
        self.build_side()?;
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            match self.left.next_chunk()? {
                None => return Ok(None),
                Some(chunk) => {
                    let mut out = Vec::with_capacity(chunk.len());
                    self.probe_chunk(&chunk, &mut out)?;
                    self.pending = RowDrain::new(out);
                }
            }
        }
    }
}

/// Nested-loop join for non-equi conditions (Inner/Left/Semi).
pub struct NestedLoopJoinExec {
    left: BoxedOp,
    right: Option<BoxedOp>,
    join_type: JoinType,
    condition: Expr,
    combined_index: RowIndex,
    schema: Schema,
    right_width: usize,
    right_rows: Option<Vec<Row>>,
    _reservation: Option<BudgetedReservation>,
    ctx: Arc<ExecContext>,
    pending: RowDrain,
    span: Option<Arc<OpSpan>>,
}

impl NestedLoopJoinExec {
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        join_type: JoinType,
        condition: Expr,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        let combined = left.schema().join(right.schema());
        let combined_index = RowIndex::new(&combined);
        let right_width = right.schema().len();
        NestedLoopJoinExec {
            left,
            right: Some(right),
            join_type,
            condition,
            combined_index,
            schema,
            right_width,
            right_rows: None,
            _reservation: None,
            ctx: ctx.into_ctx(),
            pending: RowDrain::default(),
            span: None,
        }
    }

    fn materialize_right(&mut self) -> Result<()> {
        if self.right_rows.is_some() {
            return Ok(());
        }
        let mut right = self
            .right
            .take()
            .expect("nested-loop right side consumed exactly once: runs behind right_rows.is_none()");
        let rows = drain(right.as_mut())?;
        let bytes: i64 = rows.iter().map(|r| row_bytes(r)).sum();
        let mut reservation = BudgetedReservation::try_new(self.ctx.clone(), bytes)?;
        if let Some(span) = &self.span {
            reservation.set_span(span.clone());
        }
        self._reservation = Some(reservation);
        self.right_rows = Some(rows);
        Ok(())
    }
}

impl Operator for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        self.ctx.check()?;
        self.materialize_right()?;
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            match self.left.next_chunk()? {
                None => return Ok(None),
                Some(chunk) => {
                    let right_rows = self
                        .right_rows
                        .as_ref()
                        .expect("right side was materialized above");
                    let mut out = Vec::new();
                    for left_row in &chunk {
                        let mut matched = false;
                        for right_row in right_rows {
                            let mut combined = left_row.clone();
                            combined.extend(right_row.iter().cloned());
                            if self
                                .combined_index
                                .eval_pred(&self.condition, &combined)?
                            {
                                matched = true;
                                match self.join_type {
                                    JoinType::Inner | JoinType::Left => out.push(combined),
                                    JoinType::Semi => {
                                        out.push(left_row.clone());
                                        break;
                                    }
                                    JoinType::Cross => out.push(combined),
                                }
                            }
                        }
                        if !matched && self.join_type == JoinType::Left {
                            let mut padded = left_row.clone();
                            padded
                                .extend(std::iter::repeat_n(Value::Null, self.right_width));
                            out.push(padded);
                        }
                    }
                    self.pending = RowDrain::new(out);
                }
            }
        }
    }
}

/// Cross join: cartesian product (right side materialized).
pub struct CrossJoinExec {
    inner: NestedLoopJoinExec,
}

impl CrossJoinExec {
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        CrossJoinExec {
            inner: NestedLoopJoinExec::new(
                left,
                right,
                JoinType::Inner,
                Expr::boolean(true),
                schema,
                ctx,
            ),
        }
    }
}

impl Operator for CrossJoinExec {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.inner.attach_span(span);
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        self.inner.next_chunk()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use fusion_common::{ColumnId, DataType, Field, FusionError};
    use fusion_expr::{col, lit};

    fn side(ids: &[u32], rows: Vec<Vec<i64>>) -> BoxedOp {
        let schema = Schema::new(
            ids.iter()
                .map(|i| Field::new(ColumnId(*i), format!("c{i}"), DataType::Int64, true))
                .collect(),
        );
        Box::new(ConstantTableExec::new(
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int64).collect())
                .collect(),
            schema,
        ))
    }

    fn null_row(ids: &[u32]) -> Row {
        ids.iter().map(|_| Value::Null).collect()
    }

    #[test]
    fn split_condition_finds_keys_and_residual() {
        let left = Schema::new(vec![Field::new(ColumnId(1), "a", DataType::Int64, false)]);
        let right = Schema::new(vec![Field::new(ColumnId(2), "b", DataType::Int64, false)]);
        let cond = col(ColumnId(1))
            .eq_to(col(ColumnId(2)))
            .and(col(ColumnId(2)).gt(lit(5i64)));
        let (keys, residual) = split_join_condition(&cond, &left, &right);
        assert_eq!(keys.len(), 1);
        assert_eq!(residual.len(), 1);
        // Reversed operand order is also recognized.
        let cond = col(ColumnId(2)).eq_to(col(ColumnId(1)));
        let (keys, residual) = split_join_condition(&cond, &left, &right);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, col(ColumnId(1)));
        assert!(residual.is_empty());
    }

    #[test]
    fn inner_hash_join_matches() {
        let l = side(&[1], vec![vec![1], vec![2], vec![3]]);
        let r = side(&[2], vec![vec![2], vec![3], vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let mut rows = drain(&mut j).unwrap();
        rows.sort();
        assert_eq!(rows.len(), 3); // 2-2, 3-3, 3-3
    }

    #[test]
    fn left_join_pads_nulls() {
        let l = side(&[1], vec![vec![1], vec![2]]);
        let r = side(&[2], vec![vec![2]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Left,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let mut rows = drain(&mut j).unwrap();
        rows.sort();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int64(1), Value::Null]);
    }

    #[test]
    fn semi_join_emits_left_once() {
        let l = side(&[1], vec![vec![1], vec![2]]);
        let r = side(&[2], vec![vec![2], vec![2], vec![2]]);
        let schema = l.schema().clone();
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Semi,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(2)]]);
    }

    #[test]
    fn null_keys_never_match() {
        let l: BoxedOp = Box::new(ConstantTableExec::new(
            vec![null_row(&[1]), vec![Value::Int64(1)]],
            Schema::new(vec![Field::new(ColumnId(1), "a", DataType::Int64, true)]),
        ));
        let r: BoxedOp = Box::new(ConstantTableExec::new(
            vec![null_row(&[2]), vec![Value::Int64(1)]],
            Schema::new(vec![Field::new(ColumnId(2), "b", DataType::Int64, true)]),
        ));
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows.len(), 1); // only 1-1
    }

    #[test]
    fn residual_filters_matches() {
        let l = side(&[1, 3], vec![vec![1, 10], vec![1, 20]]);
        let r = side(&[2], vec![vec![1]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![col(ColumnId(3)).gt(lit(15i64))],
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Int64(20));
    }

    #[test]
    fn nested_loop_handles_non_equi() {
        let l = side(&[1], vec![vec![1], vec![5]]);
        let r = side(&[2], vec![vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = NestedLoopJoinExec::new(
            l,
            r,
            JoinType::Inner,
            col(ColumnId(1)).gt(col(ColumnId(2))),
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(5), Value::Int64(3)]]);
    }

    #[test]
    fn cross_join_is_cartesian() {
        let l = side(&[1], vec![vec![1], vec![2]]);
        let r = side(&[2], vec![vec![10], vec![20]]);
        let schema = l.schema().join(r.schema());
        let mut j = CrossJoinExec::new(l, r, schema, ExecMetrics::new());
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn build_side_is_metered_as_state() {
        let m = ExecMetrics::new();
        let l = side(&[1], vec![vec![1]]);
        let r = side(&[2], vec![vec![1], vec![2], vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            m.clone(),
        );
        drain(&mut j).unwrap();
        assert!(m.peak_state_bytes() > 0);
        drop(j);
    }

    #[test]
    fn build_side_over_hard_budget_is_resource_exhausted() {
        let ctx = ExecContext::builder(ExecMetrics::new()).hard_budget(8).build();
        let l = side(&[1], vec![vec![1]]);
        let r = side(&[2], vec![vec![1], vec![2], vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ctx,
        );
        assert!(matches!(
            drain(&mut j),
            Err(FusionError::ResourceExhausted { .. })
        ));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod edge_tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use fusion_common::{ColumnId, DataType, Field};
    use fusion_expr::col;

    fn side(ids: &[u32], rows: Vec<Vec<Option<i64>>>) -> BoxedOp {
        let schema = Schema::new(
            ids.iter()
                .map(|i| Field::new(ColumnId(*i), format!("c{i}"), DataType::Int64, true))
                .collect(),
        );
        Box::new(ConstantTableExec::new(
            rows.into_iter()
                .map(|r| {
                    r.into_iter()
                        .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                        .collect()
                })
                .collect(),
            schema,
        ))
    }

    #[test]
    fn empty_build_side_inner_join_is_empty() {
        let l = side(&[1], vec![vec![Some(1)], vec![Some(2)]]);
        let r = side(&[2], vec![]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        assert!(crate::ops::drain(&mut j).unwrap().is_empty());
    }

    #[test]
    fn empty_build_side_left_join_pads_everything() {
        let l = side(&[1], vec![vec![Some(1)], vec![Some(2)]]);
        let r = side(&[2], vec![]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Left,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let rows = crate::ops::drain(&mut j).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[1] == Value::Null));
    }

    #[test]
    fn nested_loop_left_join_pads_unmatched() {
        let l = side(&[1], vec![vec![Some(1)], vec![Some(9)]]);
        let r = side(&[2], vec![vec![Some(5)]]);
        let schema = l.schema().join(r.schema());
        let mut j = NestedLoopJoinExec::new(
            l,
            r,
            JoinType::Left,
            col(ColumnId(1)).gt(col(ColumnId(2))),
            schema,
            ExecMetrics::new(),
        );
        let mut rows = crate::ops::drain(&mut j).unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1), Value::Null],
                vec![Value::Int64(9), Value::Int64(5)],
            ]
        );
    }

    #[test]
    fn nested_loop_semi_join_dedups() {
        let l = side(&[1], vec![vec![Some(9)], vec![Some(0)]]);
        let r = side(&[2], vec![vec![Some(5)], vec![Some(1)]]);
        let schema = l.schema().clone();
        let mut j = NestedLoopJoinExec::new(
            l,
            r,
            JoinType::Semi,
            col(ColumnId(1)).gt(col(ColumnId(2))),
            schema,
            ExecMetrics::new(),
        );
        let rows = crate::ops::drain(&mut j).unwrap();
        // 9 > 5 and 9 > 1, but 9 emitted once; 0 matches nothing.
        assert_eq!(rows, vec![vec![Value::Int64(9)]]);
    }

    #[test]
    fn composite_keys_with_partial_nulls_never_match() {
        let l = side(&[1, 2], vec![vec![Some(1), None], vec![Some(1), Some(2)]]);
        let r = side(&[3, 4], vec![vec![Some(1), None], vec![Some(1), Some(2)]]);
        let schema = l.schema().join(r.schema());
        let mut j = HashJoinExec::new(
            l,
            r,
            JoinType::Inner,
            vec![
                (col(ColumnId(1)), col(ColumnId(3))),
                (col(ColumnId(2)), col(ColumnId(4))),
            ],
            vec![],
            schema,
            ExecMetrics::new(),
        );
        let rows = crate::ops::drain(&mut j).unwrap();
        // Only the fully non-null key pair matches.
        assert_eq!(rows.len(), 1);
    }
}
