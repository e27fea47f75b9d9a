//! Table scan with partition pruning, byte metering, and vectorized
//! (columnar) predicate evaluation.
//!
//! The scan is split in two layers:
//!
//! * [`ScanFragment`] — an immutable, `Send + Sync` description of the
//!   scan that reads **one partition at a time** ([`ScanFragment::
//!   scan_partition`]): pruning, fault injection, metering, the
//!   vectorized predicate pass over the columnar arrays, and row
//!   materialization. A partition is the morsel of the parallel executor.
//! * [`ScanExec`] — the pull operator: streams the fragment's partitions
//!   in index order through [`Morsels`], on the caller's thread alone
//!   with one worker, joined by spawned workers with more.
//!
//! A fragment also prunes by [`JoinKeyFilter`]s, the build keys of the
//! joins above whose probe key is its partition column: a partition
//! holding none of them is never read, never faulted.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fusion_common::{ColumnId, FusionError, Result, Schema, Value};
use fusion_expr::{BinaryOp, ColumnBatch, Expr};

use crate::context::{ExecContext, IntoContext};
use crate::ops::exchange::Morsels;
use crate::ops::{Operator, RowDrain};
use crate::profile::OpSpan;
use crate::table::Table;
use crate::{Chunk, Row};

/// A `col <op> literal` conjunct evaluated column-at-a-time on the
/// partition arrays, before any row is materialized.
#[derive(Debug, Clone)]
struct VectorPredicate {
    /// Position in the scan's output schema / `column_indices`.
    pos: usize,
    op: BinaryOp,
    literal: Value,
}

/// Columnar output of one scanned partition: the partition's arrays in
/// output-schema order (shared with the table — no copy) plus the
/// selection vector of rows surviving the pushed-down filters. This is
/// the unit a [`crate::pipeline::FusedPipeline`] pushes through its
/// operator chain; the batch-at-a-time path gathers it into rows via
/// [`ColumnarMorsel::into_rows`].
pub struct ColumnarMorsel {
    /// One array per scan-output column, parallel to the scan schema.
    pub columns: Vec<Arc<Vec<Value>>>,
    /// Row indices into `columns` that survived pruning and filters,
    /// ascending.
    pub selection: Vec<usize>,
}

impl ColumnarMorsel {
    /// The columns as the kernels address them: `ids[i]` names
    /// `columns[i]`.
    pub fn batch(&self, ids: &[ColumnId]) -> ColumnBatch<'_> {
        let mut batch = ColumnBatch::new();
        for (id, col) in ids.iter().zip(&self.columns) {
            batch.push(*id, col.as_slice());
        }
        batch
    }

    /// A morsel over pulled rows, every row selected. The values move
    /// into the arrays; none is cloned.
    pub(crate) fn from_rows(rows: Vec<Row>, width: usize) -> Self {
        let n = rows.len();
        let mut columns = vec![Vec::with_capacity(n); width];
        for row in rows {
            for (column, v) in columns.iter_mut().zip(row) {
                column.push(v);
            }
        }
        ColumnarMorsel {
            columns: columns.into_iter().map(Arc::new).collect(),
            selection: (0..n).collect(),
        }
    }

    /// Materialize the selected rows (the batch-at-a-time path). Values
    /// move out of arrays this morsel alone holds; arrays shared with
    /// the table are cloned from.
    pub fn into_rows(self) -> Vec<Row> {
        let mut columns: Vec<_> = self.columns.into_iter().map(Arc::try_unwrap).collect();
        self.selection
            .iter()
            .map(|&r| {
                columns
                    .iter_mut()
                    .map(|c| match c {
                        Ok(owned) => std::mem::replace(&mut owned[r], Value::Null),
                        Err(shared) => shared[r].clone(),
                    })
                    .collect()
            })
            .collect()
    }
}

/// The distinct non-null build-side values of one equi-join key,
/// published once when the join's build finishes. Until then nothing is
/// excluded; a published empty set excludes every partition.
#[derive(Debug, Default)]
pub(crate) struct JoinKeyFilter(OnceLock<Vec<Value>>);

impl JoinKeyFilter {
    /// Publish the key set (any order, duplicates allowed).
    pub(crate) fn publish(&self, mut keys: Vec<Value>) {
        keys.sort();
        keys.dedup();
        let _ = self.0.set(keys);
    }

    /// Whether no published key lies in `[min, max]`. Join keys match by
    /// `Value` equality, which `Value`'s total order agrees with, so a
    /// partition this excludes holds no row the join could keep.
    fn excludes(&self, min: &Value, max: &Value) -> bool {
        self.0.get().is_some_and(|keys| {
            let i = keys.partition_point(|k| k < min);
            keys.get(i).is_none_or(|k| k > max)
        })
    }
}

/// Immutable partition-granular scan: shared by [`ScanExec`] and every
/// other partition loop, whichever worker runs it.
pub struct ScanFragment {
    table: Arc<Table>,
    /// Base-table ordinals to read, parallel to `schema` fields.
    column_indices: Vec<usize>,
    schema: Schema,
    /// (op, literal) conjuncts over the partition column, for pruning.
    prune_predicates: Vec<(BinaryOp, Value)>,
    /// Conjuncts evaluable column-at-a-time (selection-vector pass).
    vector_predicates: Vec<VectorPredicate>,
    /// Remaining filters, re-applied row-wise on the selection.
    residual_filters: Vec<Expr>,
    /// Build-key sets of the hash joins whose probe key is this scan's
    /// partition column (dynamic partition pruning); set before the
    /// fragment is shared.
    pub(crate) join_filters: Vec<Arc<JoinKeyFilter>>,
    ctx: Arc<ExecContext>,
    /// Profiling span of the scan's plan node. The fragment records rows
    /// scanned/emitted per partition and its busy time; whichever worker
    /// scans a morsel, the counts land on the same span.
    span: Option<Arc<OpSpan>>,
}

impl ScanFragment {
    pub fn new(
        table: Arc<Table>,
        column_indices: Vec<usize>,
        schema: Schema,
        filters: Vec<Expr>,
        ctx: impl IntoContext,
    ) -> Self {
        let prune_predicates = match table.partition_column {
            Some(pc) => extract_prune_predicates(&filters, &schema, &column_indices, pc),
            None => vec![],
        };
        let (vector_predicates, residual_filters) = split_vector_predicates(&filters, &schema);
        ScanFragment {
            table,
            column_indices,
            schema,
            prune_predicates,
            vector_predicates,
            residual_filters,
            join_filters: Vec::new(),
            ctx: ctx.into_ctx(),
            span: None,
        }
    }

    /// Attach the profiling span of the scan's plan node (called before
    /// the fragment is shared across workers).
    pub fn set_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn num_partitions(&self) -> usize {
        self.table.partitions.len()
    }

    pub fn ctx(&self) -> &Arc<ExecContext> {
        &self.ctx
    }

    fn partition_pruned(&self, part: usize) -> bool {
        if self.prune_predicates.is_empty() {
            return false;
        }
        let p = &self.table.partitions[part];
        let (min, max) = match (&p.part_min, &p.part_max) {
            (Some(a), Some(b)) => (a, b),
            _ => return false,
        };
        self.prune_predicates
            .iter()
            .any(|(op, lit)| !Table::partition_may_match(min, max, *op, lit))
    }

    /// Whether a join's build keys exclude partition `part`.
    fn pruned_by_join(&self, part: usize) -> bool {
        let p = &self.table.partitions[part];
        let (Some(min), Some(max)) = (&p.part_min, &p.part_max) else {
            return false;
        };
        self.join_filters.iter().any(|f| f.excludes(min, max))
    }

    /// Scan one partition to completion: prune (returning `None`), apply
    /// the fault policy with retry, meter bytes/rows, run the vectorized
    /// predicate pass on the columnar arrays, then materialize only the
    /// surviving rows.
    pub fn scan_partition(&self, part_idx: usize) -> Result<Option<Vec<Row>>> {
        Ok(self
            .scan_partition_columnar(part_idx)?
            .map(ColumnarMorsel::into_rows))
    }

    /// Scan one partition without materializing any row: prune (returning
    /// `None`), apply the fault policy with retry, meter bytes/rows, then
    /// narrow a selection vector over the partition's columnar arrays —
    /// first with the `col op literal` fast path, then with the general
    /// columnar kernels for every residual pushed filter. The arrays are
    /// shared into the morsel by `Arc`, never copied.
    pub fn scan_partition_columnar(&self, part_idx: usize) -> Result<Option<ColumnarMorsel>> {
        self.ctx.check()?;
        let pruned = self.partition_pruned(part_idx);
        if pruned || self.pruned_by_join(part_idx) {
            self.ctx.metrics().add_partitions(0, 1);
            if let (false, Some(span)) = (pruned, &self.span) {
                span.add_join_pruned();
            }
            return Ok(None);
        }
        // First (and only) touch of this partition: apply the fault
        // policy (with retry/backoff for transient failures), then meter
        // the bytes the scan actually reads.
        let start = Instant::now();
        self.ctx
            .faulted_read(&self.table.name, part_idx, || Ok(()))?;
        let part = &self.table.partitions[part_idx];
        let bytes: u64 = self
            .column_indices
            .iter()
            .map(|&c| part.column_bytes[c])
            .sum();
        let metrics = self.ctx.metrics();
        metrics.add_bytes_scanned(bytes);
        metrics.add_rows_scanned(part.num_rows as u64);
        metrics.add_partitions(1, 0);

        // Vectorized pass: narrow the selection one column at a time.
        let mut selection: Vec<usize> = (0..part.num_rows).collect();
        for vp in &self.vector_predicates {
            let column: &[Value] = &part.columns[self.column_indices[vp.pos]];
            let mut kept = Vec::with_capacity(selection.len());
            for &r in &selection {
                let v = &column[r];
                if v.is_null() {
                    continue; // NULL comparison is NULL: row rejected
                }
                match v.sql_cmp(&vp.literal) {
                    Some(ord) => {
                        if cmp_matches(vp.op, ord) {
                            kept.push(r);
                        }
                    }
                    None => {
                        return Err(FusionError::Type(format!(
                            "cannot compare {v} with {}",
                            vp.literal
                        )))
                    }
                }
            }
            selection = kept;
        }
        if !self.vector_predicates.is_empty() {
            metrics.add_rows_filtered_vectorized((part.num_rows - selection.len()) as u64);
        }

        // Residual filters run through the general columnar kernels on
        // the surviving selection — same three-valued semantics and
        // evaluation sites as the scalar path, one expression node per
        // batch instead of per row.
        if !self.residual_filters.is_empty() {
            let mut batch = ColumnBatch::new();
            for (pos, field) in self.schema.fields().iter().enumerate() {
                batch.push(field.id, &part.columns[self.column_indices[pos]]);
            }
            for f in &self.residual_filters {
                metrics.add_rows_evaluated_vectorized(selection.len() as u64);
                selection = batch.filter(f, &selection)?;
            }
        }
        if let Some(span) = &self.span {
            span.add_cpu_nanos(start.elapsed().as_nanos() as u64);
            span.record_partition(part_idx, part.num_rows as u64, selection.len() as u64);
        }
        Ok(Some(ColumnarMorsel {
            columns: self
                .column_indices
                .iter()
                .map(|&c| part.columns[c].clone())
                .collect(),
            selection,
        }))
    }
}

fn cmp_matches(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("vector predicates are comparisons"),
    }
}

/// Split pushed filters into vectorizable `col <op> literal` conjuncts
/// (either operand order, non-null literal) and residual expressions.
/// A filter whose conjuncts are all vectorized contributes nothing to the
/// residual; mixed filters keep their non-vectorizable conjuncts there.
fn split_vector_predicates(
    filters: &[Expr],
    schema: &Schema,
) -> (Vec<VectorPredicate>, Vec<Expr>) {
    let mut vector = Vec::new();
    let mut residual = Vec::new();
    for f in filters {
        for c in fusion_expr::split_conjuncts(f) {
            let vectorized = column_vs_literal(&c)
                .and_then(|(id, op, v)| Some((schema.index_of(id)?, op, v.clone())));
            match vectorized {
                Some((pos, op, literal)) => vector.push(VectorPredicate { pos, op, literal }),
                None => residual.push(c),
            }
        }
    }
    (vector, residual)
}

/// A `col <op> literal` comparison (either operand order, non-null
/// literal), as `(col, op, literal)` with the column first.
fn column_vs_literal(c: &Expr) -> Option<(ColumnId, BinaryOp, &Value)> {
    let Expr::Binary { op, left, right } = c else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(id), Expr::Literal(v)) if !v.is_null() => Some((*id, *op, v)),
        (Expr::Literal(v), Expr::Column(id)) if !v.is_null() => Some((*id, op.commuted()?, v)),
        _ => None,
    }
}

/// Scan operator: streams a [`ScanFragment`]'s surviving rows partition
/// by partition, in partition-index order at every worker count.
pub struct ScanExec {
    fragment: Arc<ScanFragment>,
    morsels: Morsels<Vec<Row>>,
    /// Materialized rows of the current partition not yet emitted.
    pending: RowDrain,
}

impl ScanExec {
    pub fn new(
        table: Arc<Table>,
        column_indices: Vec<usize>,
        schema: Schema,
        filters: Vec<Expr>,
        ctx: impl IntoContext,
    ) -> Self {
        let fragment = ScanFragment::new(table, column_indices, schema, filters, ctx);
        ScanExec::from_fragment(Arc::new(fragment), 1)
    }

    /// Scan `fragment` with `workers` threads (1 = the caller's).
    pub fn from_fragment(fragment: Arc<ScanFragment>, workers: usize) -> Self {
        let source = Arc::clone(&fragment);
        let morsels = Morsels::new(
            &fragment.ctx,
            fragment.num_partitions(),
            workers,
            move |p| Ok(source.scan_partition(p)?.filter(|rows| !rows.is_empty())),
        );
        ScanExec {
            fragment,
            morsels,
            pending: RowDrain::default(),
        }
    }
}

impl Operator for ScanExec {
    fn schema(&self) -> &Schema {
        self.fragment.schema()
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        self.fragment.ctx.check()?;
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            match self.morsels.next().transpose()? {
                Some(rows) => self.pending = RowDrain::new(rows),
                None => return Ok(None),
            }
        }
    }
}

/// Conjuncts of the pushed filters of form `part_col <op> literal`
/// (either operand order), usable for partition pruning.
fn extract_prune_predicates(
    filters: &[Expr],
    schema: &Schema,
    column_indices: &[usize],
    partition_col: usize,
) -> Vec<(BinaryOp, Value)> {
    // Which instance column id corresponds to the partition ordinal?
    let part_field = schema
        .fields()
        .iter()
        .zip(column_indices)
        .find(|(_, &ord)| ord == partition_col)
        .map(|(f, _)| f.id);
    let part_id = match part_field {
        Some(id) => id,
        None => return vec![],
    };
    let mut out = Vec::new();
    for f in filters {
        for c in fusion_expr::split_conjuncts(f) {
            if let Some((id, op, v)) = column_vs_literal(&c) {
                if id == part_id {
                    out.push((op, v.clone()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fault::{FaultPolicy, RetryPolicy};
    use crate::metrics::ExecMetrics;
    use crate::ops::drain;
    use crate::table::{TableBuilder, TableColumn};
    use fusion_common::{ColumnId, DataType, Field, FusionError};
    use fusion_expr::{col, lit};

    fn table() -> Table {
        let mut b = TableBuilder::new(
            "t",
            vec![
                TableColumn {
                    name: "sk".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "v".into(),
                    data_type: DataType::Utf8,
                    nullable: true,
                },
            ],
        )
        .partition_by("sk", 10)
        .unwrap();
        for i in 0..100i64 {
            b.add_row(vec![Value::Int64(i), Value::Utf8(format!("r{i}"))])
                .unwrap();
        }
        b.build()
    }

    fn schema_for(ids: &[u32]) -> Schema {
        Schema::new(vec![
            Field::new(ColumnId(ids[0]), "sk", DataType::Int64, false),
            Field::new(ColumnId(ids[1]), "v", DataType::Utf8, true),
        ])
    }

    #[test]
    fn full_scan_reads_everything() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        let mut scan = ScanExec::new(t, vec![0, 1], schema_for(&[1, 2]), vec![], m.clone());
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(m.snapshot().rows_scanned, 100);
        assert_eq!(m.snapshot().partitions_read, 10);
        assert_eq!(m.snapshot().partitions_pruned, 0);
    }

    #[test]
    fn partition_pruning_skips_bytes() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        // sk >= 90 keeps only the last partition.
        let filter = col(ColumnId(1)).gt_eq(lit(90i64));
        let mut scan = ScanExec::new(
            t.clone(),
            vec![0, 1],
            schema_for(&[1, 2]),
            vec![filter],
            m.clone(),
        );
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(m.snapshot().partitions_read, 1);
        assert_eq!(m.snapshot().partitions_pruned, 9);
        // Bytes metered = only that partition's two columns.
        let expected: u64 = t.partitions.last().unwrap().column_bytes.iter().sum();
        assert_eq!(m.snapshot().bytes_scanned, expected);
    }

    #[test]
    fn column_pruning_meters_fewer_bytes() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        let schema = Schema::new(vec![Field::new(ColumnId(1), "sk", DataType::Int64, false)]);
        let mut scan = ScanExec::new(t.clone(), vec![0], schema, vec![], m.clone());
        drain(&mut scan).unwrap();
        assert_eq!(m.snapshot().bytes_scanned, 100 * 8);
    }

    #[test]
    fn row_level_filters_apply_after_pruning() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        // sk >= 90 AND sk < 95: one partition read, 5 rows out.
        let f1 = col(ColumnId(1)).gt_eq(lit(90i64));
        let f2 = col(ColumnId(1)).lt(lit(95i64));
        let mut scan = ScanExec::new(t, vec![0, 1], schema_for(&[1, 2]), vec![f1, f2], m);
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        // 30% per-attempt failure rate: with 3 retries the chance any of
        // the 10 partitions fails 4 times in a row is < 1% per partition,
        // and the schedule is deterministic anyway — seed 4 recovers.
        let ctx = ExecContext::builder(m.clone())
            .fault_policy(FaultPolicy::transient(4, 0.3))
            .retry_policy(RetryPolicy::default())
            .build();
        let mut scan = ScanExec::new(t, vec![0, 1], schema_for(&[1, 2]), vec![], ctx);
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 100, "all rows survive under retries");
        let snap = m.snapshot();
        assert!(snap.faults_injected > 0, "seed 3 must inject at least once");
        assert_eq!(snap.retries, snap.faults_injected);
        // Metering must not double-count retried partitions.
        assert_eq!(snap.rows_scanned, 100);
        assert_eq!(snap.partitions_read, 10);
    }

    #[test]
    fn poisoned_partition_fails_the_scan_fatally() {
        let t = Arc::new(table());
        let ctx = ExecContext::builder(ExecMetrics::new())
            .fault_policy(FaultPolicy::default().with_poison("t", 4))
            .build();
        let mut scan = ScanExec::new(t, vec![0, 1], schema_for(&[1, 2]), vec![], ctx);
        match drain(&mut scan) {
            Err(FusionError::DataCorruption(msg)) => assert!(msg.contains("partition 4")),
            other => panic!("expected DataCorruption, got {other:?}"),
        }
    }

    #[test]
    fn pruned_partitions_are_never_faulted() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        // Poison partition 0, but prune it away: the scan must succeed.
        let ctx = ExecContext::builder(m.clone())
            .fault_policy(FaultPolicy::default().with_poison("t", 0))
            .build();
        let filter = col(ColumnId(1)).gt_eq(lit(90i64));
        let mut scan = ScanExec::new(t, vec![0, 1], schema_for(&[1, 2]), vec![filter], ctx);
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(m.snapshot().faults_injected, 0);
    }

    /// The dynamic twin: a join's build keys (95, 97) exclude the
    /// poisoned partition 0, so it is pruned, never read or faulted.
    #[test]
    fn join_pruned_partitions_are_never_faulted() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m.clone())
            .fault_policy(FaultPolicy::default().with_poison("t", 0))
            .build();
        let filter = Arc::new(JoinKeyFilter::default());
        filter.publish(vec![Value::Int64(97), Value::Int64(95), Value::Int64(97)]);
        let mut fragment = ScanFragment::new(t, vec![0, 1], schema_for(&[1, 2]), vec![], ctx);
        let span = Arc::new(OpSpan::default());
        fragment.set_span(span.clone());
        fragment.join_filters = vec![filter];
        let rows = drain(&mut ScanExec::from_fragment(Arc::new(fragment), 1)).unwrap();
        assert_eq!(rows.len(), 10, "partition 9 is read whole");
        assert_eq!(m.snapshot().faults_injected, 0);
        assert_eq!((m.snapshot().partitions_read, m.snapshot().partitions_pruned), (1, 9));
        assert_eq!(span.join_pruned.load(std::sync::atomic::Ordering::Relaxed), 9);
    }

    /// An unpublished key set excludes nothing; an empty one, everything.
    #[test]
    fn join_key_filter_excludes_ranges_without_keys() {
        let (lo, hi) = (Value::Int64(10), Value::Int64(19));
        let filter = JoinKeyFilter::default();
        assert!(!filter.excludes(&lo, &hi));
        filter.publish(vec![Value::Int64(5), Value::Int64(25)]);
        assert!(filter.excludes(&lo, &hi), "a hole between two keys");
        assert!(!filter.excludes(&Value::Int64(0), &Value::Int64(5)));
        assert!(!filter.excludes(&Value::Int64(25), &Value::Int64(30)));
        let empty = JoinKeyFilter::default();
        empty.publish(vec![]);
        assert!(empty.excludes(&lo, &hi));
    }
}
