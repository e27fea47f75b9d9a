//! Join operators: hash join for equi-conditions, and a nested-loop join
//! for the rest — cross joins included.
//!
//! Every equi hash join builds one [`JoinTable`] and probes it one
//! columnar morsel at a time with [`JoinTable::probe`]. Two drivers feed
//! it: a [`crate::pipeline::FusedPipeline`] runs the probe as a stage of
//! its scan's loop, and [`HashJoinExec`] pulls row chunks from a probe
//! side that is not such a chain (a union, a cross join, a window).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use fusion_common::{ColumnId, FusionError, Result, Schema, Value};
use fusion_expr::{hash_columns, hash_key, split_conjuncts, BinaryOp, ColumnBatch, Expr};
use fusion_plan::JoinType;

use crate::context::{BudgetedReservation, ExecContext, IntoContext};
use crate::ops::scan::{ColumnarMorsel, JoinKeyFilter};
use crate::ops::{drain, row_bytes, BoxedOp, Operator, RowDrain, RowIndex};
use crate::profile::OpSpan;
use crate::{Chunk, Row};

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

/// What one equi hash join computes, resolved against its two input
/// schemas: the part of the join both drivers share.
pub(crate) struct JoinSpec {
    pub(crate) join_type: JoinType,
    /// Equi-key pairs `(probe-side, build-side)`.
    pub(crate) keys: Vec<(Expr, Expr)>,
    /// Non-equi conjuncts over the probe columns followed by the build
    /// columns.
    residual: Vec<Expr>,
    /// Field ids of the probe input, parallel to a probe morsel's columns.
    probe_ids: Vec<ColumnId>,
    build_ids: Vec<ColumnId>,
    /// Scalar evaluation of the build-side keys over a build row.
    build_index: RowIndex,
    /// Scan filters fed the build values of key `.0` once the build
    /// finishes (dynamic partition pruning).
    pub(crate) filters: Vec<(usize, Arc<JoinKeyFilter>)>,
}

impl JoinSpec {
    pub(crate) fn new(
        join_type: JoinType,
        keys: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        probe: &Schema,
        build: &Schema,
    ) -> Self {
        JoinSpec {
            join_type,
            keys,
            residual,
            probe_ids: probe.fields().iter().map(|f| f.id).collect(),
            build_ids: build.fields().iter().map(|f| f.id).collect(),
            build_index: RowIndex::new(build),
            filters: Vec::new(),
        }
    }
}

/// The end of a [`JoinTable`] hash chain.
const NO_ROW: u32 = u32::MAX;

/// Hasher for keys that are already hashes: [`hash_key`] values index
/// the chains as they are. Hashing them again would add no protection:
/// `hash_key` is itself unkeyed, so colliding values collide either way.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("join-table keys are u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A finished hash-join build: the build rows whose keys hold no NULL,
/// in build order, chained by key hash. Its bytes are operator state on
/// the join's span.
pub(crate) struct JoinTable {
    spec: JoinSpec,
    rows: Vec<Row>,
    /// Row `b`'s key values: `keys[b * k .. (b + 1) * k]` for `k` keys.
    keys: Vec<Value>,
    /// Key hash → the first and last build row with that hash.
    heads: HashMap<u64, (u32, u32), BuildHasherDefault<PreHashed>>,
    /// The next build row with the same hash, [`NO_ROW`] at a chain's end.
    next: Vec<u32>,
    ctx: Arc<ExecContext>,
    span: Option<Arc<OpSpan>>,
    _reservation: BudgetedReservation,
}

impl JoinTable {
    /// Hash the drained build side, reserve its bytes, and publish each
    /// fed key's build values. Only the hashing is the join's CPU time:
    /// draining the build child is the child's.
    pub(crate) fn build(
        spec: JoinSpec,
        input: Vec<Row>,
        ctx: &Arc<ExecContext>,
        span: &Option<Arc<OpSpan>>,
    ) -> Result<Self> {
        let start = Instant::now();
        let width = spec.keys.len();
        let mut rows = Vec::with_capacity(input.len());
        let mut keys = Vec::with_capacity(input.len() * width);
        let mut heads: HashMap<u64, (u32, u32), BuildHasherDefault<PreHashed>> = HashMap::default();
        let mut next = Vec::with_capacity(input.len());
        let mut bytes = 0i64;
        let mut key = Vec::with_capacity(width);
        for row in input {
            key.clear();
            for (_, bk) in &spec.keys {
                key.push(spec.build_index.eval(bk, &row)?);
            }
            if key.iter().any(Value::is_null) {
                continue; // null keys never match
            }
            bytes += row_bytes(&row) + row_bytes(&key);
            let b = u32::try_from(rows.len())
                .ok()
                .filter(|&b| b != NO_ROW)
                .ok_or_else(|| FusionError::Execution("hash-join build over 2^32 rows".into()))?;
            match heads.entry(hash_key(&key)) {
                Entry::Occupied(mut e) => {
                    let last = &mut e.get_mut().1;
                    next[*last as usize] = b;
                    *last = b;
                }
                Entry::Vacant(e) => {
                    e.insert((b, b));
                }
            }
            next.push(NO_ROW);
            keys.append(&mut key);
            rows.push(row);
        }
        let mut reservation = BudgetedReservation::try_new(ctx.clone(), bytes)?;
        if let Some(span) = span {
            reservation.set_span(span.clone());
        }
        for (k, filter) in &spec.filters {
            filter.publish(keys.iter().skip(*k).step_by(width).cloned().collect());
        }
        if let Some(span) = span {
            span.add_cpu_nanos(start.elapsed().as_nanos() as u64);
        }
        Ok(JoinTable {
            spec,
            rows,
            keys,
            heads,
            next,
            ctx: ctx.clone(),
            span: span.clone(),
            _reservation: reservation,
        })
    }

    /// The probe kernel: every `(probe row, build row)` pair of equal
    /// keys over the probe rows in `sel`, in probe order and then build
    /// order within a key. `key_cols` are full-length key arrays. A NULL
    /// probe key matches nothing, since no build key holds one.
    fn matches(&self, key_cols: &[&[Value]], sel: &[usize]) -> (Vec<usize>, Vec<u32>) {
        let width = key_cols.len();
        let mut probe = Vec::with_capacity(sel.len());
        let mut build = Vec::with_capacity(sel.len());
        for (&r, hash) in sel.iter().zip(hash_columns(key_cols, sel)) {
            let Some(&(mut b, _)) = self.heads.get(&hash) else {
                continue;
            };
            while b != NO_ROW {
                let key = &self.keys[b as usize * width..][..width];
                if key.iter().zip(key_cols).all(|(k, c)| *k == c[r]) {
                    probe.push(r);
                    build.push(b);
                }
                b = self.next[b as usize];
            }
        }
        (probe, build)
    }

    /// The join's output columns for output rows `(probe[i], build[i])`;
    /// a [`NO_ROW`] build side pads with NULLs.
    fn gather(&self, m: &ColumnarMorsel, probe: &[usize], build: &[u32]) -> Vec<Arc<Vec<Value>>> {
        let probe_cols = m
            .columns
            .iter()
            .map(|c| Arc::new(probe.iter().map(|&r| c[r].clone()).collect()));
        let build_cols = (0..self.spec.build_ids.len()).map(|c| {
            Arc::new(
                build
                    .iter()
                    .map(|&b| match b {
                        NO_ROW => Value::Null,
                        b => self.rows[b as usize][c].clone(),
                    })
                    .collect(),
            )
        });
        probe_cols.chain(build_cols).collect()
    }

    /// Turn a probe-side morsel into the join's output over it, in probe
    /// order: a semi join narrows the selection; inner and left joins
    /// gather one row per surviving match, a left join one NULL-padded
    /// row per probe row with none.
    pub(crate) fn probe(&self, m: &mut ColumnarMorsel) -> Result<()> {
        let start = Instant::now();
        let out = self.probe_inner(m);
        if let Some(span) = &self.span {
            span.add_cpu_nanos(start.elapsed().as_nanos() as u64);
        }
        out
    }

    fn probe_inner(&self, m: &mut ColumnarMorsel) -> Result<()> {
        let spec = &self.spec;
        let metrics = self.ctx.metrics();
        metrics.add_rows_evaluated_vectorized(m.selection.len() as u64);
        let (mut probe, mut build) = {
            let batch = m.batch(&spec.probe_ids);
            // Computed keys are scattered into full-length arrays so every
            // key column is read by row index alike.
            let len = m.selection.last().map_or(0, |&r| r + 1);
            let mut computed: Vec<Vec<Value>> = Vec::new();
            for (pk, _) in &spec.keys {
                if !matches!(pk, Expr::Column(_)) {
                    let mut full = vec![Value::Null; len];
                    for (v, &r) in batch.eval(pk, &m.selection)?.into_iter().zip(&m.selection) {
                        full[r] = v;
                    }
                    computed.push(full);
                }
            }
            let mut computed = computed.iter();
            let key_cols = spec
                .keys
                .iter()
                .map(|(pk, _)| match pk {
                    Expr::Column(id) => batch.column(*id),
                    _ => Ok(computed.next().map_or(&[][..], Vec::as_slice)),
                })
                .collect::<Result<Vec<&[Value]>>>()?;
            self.matches(&key_cols, &m.selection)
        };
        if !spec.residual.is_empty() {
            let combined = self.gather(m, &probe, &build);
            let mut batch = ColumnBatch::new();
            for (id, c) in spec.probe_ids.iter().chain(&spec.build_ids).zip(&combined) {
                batch.push(*id, c.as_slice());
            }
            let mut keep: Vec<usize> = (0..probe.len()).collect();
            for e in &spec.residual {
                metrics.add_rows_evaluated_vectorized(keep.len() as u64);
                keep = batch.filter(e, &keep)?;
            }
            if spec.join_type == JoinType::Inner {
                m.columns = combined;
                m.selection = keep;
                return Ok(());
            }
            probe = keep.iter().map(|&i| probe[i]).collect();
            build = keep.iter().map(|&i| build[i]).collect();
        }
        match spec.join_type {
            JoinType::Semi => {
                probe.dedup();
                m.selection = probe;
            }
            JoinType::Inner => {
                m.columns = self.gather(m, &probe, &build);
                m.selection = (0..probe.len()).collect();
            }
            JoinType::Left => {
                let (mut out_probe, mut out_build) = (Vec::new(), Vec::new());
                let mut i = 0;
                for &r in &m.selection {
                    let first = i;
                    while probe.get(i) == Some(&r) {
                        i += 1;
                    }
                    if i == first {
                        out_probe.push(r);
                        out_build.push(NO_ROW);
                    } else {
                        out_probe.extend_from_slice(&probe[first..i]);
                        out_build.extend_from_slice(&build[first..i]);
                    }
                }
                m.columns = self.gather(m, &out_probe, &out_build);
                m.selection = (0..out_probe.len()).collect();
            }
            JoinType::Cross => unreachable!("cross joins compile to NestedLoopJoinExec"),
        }
        Ok(())
    }
}

/// Hash join pulled row chunk by row chunk: builds the right side on the
/// first pull, then probes the [`JoinTable`] with each left chunk. Used
/// where the probe side is not a pipeline chain; see the module docs.
pub struct HashJoinExec {
    left: BoxedOp,
    /// The build side and what to build from it, until the first pull.
    right: Option<(BoxedOp, JoinSpec)>,
    table: Option<JoinTable>,
    schema: Schema,
    ctx: Arc<ExecContext>,
    /// Probe buffer: output rows not yet emitted.
    pending: RowDrain,
    span: Option<Arc<OpSpan>>,
}

impl HashJoinExec {
    pub(crate) fn new(
        left: BoxedOp,
        right: BoxedOp,
        spec: JoinSpec,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        HashJoinExec {
            left,
            right: Some((right, spec)),
            table: None,
            schema,
            ctx: ctx.into_ctx(),
            pending: RowDrain::default(),
            span: None,
        }
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
        if let Some((mut right, spec)) = self.right.take() {
            let rows = drain(right.as_mut())?;
            self.table = Some(JoinTable::build(spec, rows, &self.ctx, &self.span)?);
        }
        let Some(table) = &self.table else {
            return Err(FusionError::Execution(
                "hash join pulled again after its build failed".into(),
            ));
        };
        let width = self.left.schema().len();
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            let Some(chunk) = self.left.next_chunk()? else {
                return Ok(None);
            };
            let mut m = ColumnarMorsel::from_rows(chunk, width);
            table.probe(&mut m)?;
            self.pending = RowDrain::new(m.into_rows());
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

    /// A pulled hash join over two operators, keys split as compiled.
    pub(super) fn hash_join(
        left: BoxedOp,
        right: BoxedOp,
        join_type: JoinType,
        keys: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> HashJoinExec {
        let spec = JoinSpec::new(join_type, keys, residual, left.schema(), right.schema());
        HashJoinExec::new(left, right, spec, schema, ctx)
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
        let mut j = NestedLoopJoinExec::new(
            l,
            r,
            JoinType::Cross,
            Expr::boolean(true),
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut j).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn build_side_is_metered_as_state() {
        let m = ExecMetrics::new();
        let l = side(&[1], vec![vec![1]]);
        let r = side(&[2], vec![vec![1], vec![2], vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = hash_join(
            l,
            r,
            JoinType::Inner,
            vec![(col(ColumnId(1)), col(ColumnId(2)))],
            vec![],
            schema,
            m.clone(),
        );
        drain(&mut j).unwrap();
        assert!(m.snapshot().peak_state_bytes > 0);
        drop(j);
    }

    #[test]
    fn build_side_over_hard_budget_is_resource_exhausted() {
        let ctx = ExecContext::builder(ExecMetrics::new()).hard_budget(8).build();
        let l = side(&[1], vec![vec![1]]);
        let r = side(&[2], vec![vec![1], vec![2], vec![3]]);
        let schema = l.schema().join(r.schema());
        let mut j = hash_join(
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
    use super::tests::hash_join;
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
        let mut j = hash_join(
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
