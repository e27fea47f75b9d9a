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
//! * [`ScanExec`] — the sequential pull operator: iterates the fragment's
//!   partitions on the caller's thread. The morsel-parallel counterpart
//!   is [`crate::ops::exchange::GatherExec`], which drives the same
//!   fragment from a worker pool.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

use fusion_common::{FusionError, Result, Schema, Value};
use fusion_expr::{BinaryOp, ColumnBatch, Expr};

use crate::context::{ExecContext, IntoContext};
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
/// [`ColumnarMorsel::gather_rows`].
pub struct ColumnarMorsel {
    /// One array per scan-output column, parallel to the scan schema.
    pub columns: Vec<Arc<Vec<Value>>>,
    /// Row indices into `columns` that survived pruning and filters,
    /// ascending.
    pub selection: Vec<usize>,
    /// The partition this morsel was scanned from.
    pub partition: usize,
}

impl ColumnarMorsel {
    /// Materialize the selected rows (the batch-at-a-time path).
    pub fn gather_rows(&self) -> Vec<Row> {
        self.selection
            .iter()
            .map(|&r| self.columns.iter().map(|c| c[r].clone()).collect())
            .collect()
    }
}

/// Immutable partition-granular scan: shared by the sequential
/// [`ScanExec`] and every morsel-parallel operator.
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

    /// Scan one partition to completion: prune (returning `None`), apply
    /// the fault policy with retry, meter bytes/rows, run the vectorized
    /// predicate pass on the columnar arrays, then materialize only the
    /// surviving rows.
    pub fn scan_partition(&self, part_idx: usize) -> Result<Option<Vec<Row>>> {
        Ok(self
            .scan_partition_columnar(part_idx)?
            .map(|m| m.gather_rows()))
    }

    /// Scan one partition without materializing any row: prune (returning
    /// `None`), apply the fault policy with retry, meter bytes/rows, then
    /// narrow a selection vector over the partition's columnar arrays —
    /// first with the `col op literal` fast path, then with the general
    /// columnar kernels for every residual pushed filter. The arrays are
    /// shared into the morsel by `Arc`, never copied.
    pub fn scan_partition_columnar(&self, part_idx: usize) -> Result<Option<ColumnarMorsel>> {
        self.ctx.check()?;
        if self.partition_pruned(part_idx) {
            self.ctx.metrics().add_partitions(0, 1);
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
            partition: part_idx,
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
            let mut vectorized = false;
            if let Expr::Binary { op, left, right } = &c {
                if op.is_comparison() {
                    match (left.as_ref(), right.as_ref()) {
                        (Expr::Column(id), Expr::Literal(v)) if !v.is_null() => {
                            if let Some(pos) = schema.index_of(*id) {
                                vector.push(VectorPredicate {
                                    pos,
                                    op: *op,
                                    literal: v.clone(),
                                });
                                vectorized = true;
                            }
                        }
                        (Expr::Literal(v), Expr::Column(id)) if !v.is_null() => {
                            if let (Some(pos), Some(flipped)) =
                                (schema.index_of(*id), op.commuted())
                            {
                                vector.push(VectorPredicate {
                                    pos,
                                    op: flipped,
                                    literal: v.clone(),
                                });
                                vectorized = true;
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !vectorized {
                residual.push(c);
            }
        }
    }
    (vector, residual)
}

/// Sequential scan operator: drives a [`ScanFragment`] partition by
/// partition on the caller's thread.
pub struct ScanExec {
    fragment: Arc<ScanFragment>,
    next_partition: usize,
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
        ScanExec::from_fragment(Arc::new(ScanFragment::new(
            table,
            column_indices,
            schema,
            filters,
            ctx,
        )))
    }

    pub fn from_fragment(fragment: Arc<ScanFragment>) -> Self {
        ScanExec {
            fragment,
            next_partition: 0,
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
            if self.next_partition >= self.fragment.num_partitions() {
                return Ok(None);
            }
            let part_idx = self.next_partition;
            self.next_partition += 1;
            if let Some(rows) = self.fragment.scan_partition(part_idx)? {
                self.pending = RowDrain::new(rows);
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
            if let Expr::Binary { op, left, right } = &c {
                if !op.is_comparison() {
                    continue;
                }
                match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(id), Expr::Literal(v)) if *id == part_id && !v.is_null() => {
                        out.push((*op, v.clone()));
                    }
                    (Expr::Literal(v), Expr::Column(id)) if *id == part_id && !v.is_null() => {
                        if let Some(flipped) = op.commuted() {
                            out.push((flipped, v.clone()));
                        }
                    }
                    _ => {}
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
        assert_eq!(m.rows_scanned(), 100);
        assert_eq!(m.partitions_read(), 10);
        assert_eq!(m.partitions_pruned(), 0);
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
        assert_eq!(m.partitions_read(), 1);
        assert_eq!(m.partitions_pruned(), 9);
        // Bytes metered = only that partition's two columns.
        let expected: u64 = t.partitions.last().unwrap().column_bytes.iter().sum();
        assert_eq!(m.bytes_scanned(), expected);
    }

    #[test]
    fn column_pruning_meters_fewer_bytes() {
        let t = Arc::new(table());
        let m = ExecMetrics::new();
        let schema = Schema::new(vec![Field::new(ColumnId(1), "sk", DataType::Int64, false)]);
        let mut scan = ScanExec::new(t.clone(), vec![0], schema, vec![], m.clone());
        drain(&mut scan).unwrap();
        assert_eq!(m.bytes_scanned(), 100 * 8);
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
        assert_eq!(m.faults_injected(), 0);
    }
}
