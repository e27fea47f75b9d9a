//! Simple streaming operators: Filter, Project, Limit, UnionAll,
//! ConstantTable, EnforceSingleRow.
//!
//! Every operator that pulls from an input carries an [`ExecContext`] and
//! calls [`ExecContext::check`] at chunk boundaries, so cancellation and
//! deadlines are observed even in pipelines whose leaves are cheap
//! (`ConstantTableExec`, the only context-free operator here, only copies
//! rows out of memory).

use std::sync::Arc;

use fusion_common::{FusionError, Result, Schema, Value};
use fusion_expr::Expr;

use crate::context::{ExecContext, IntoContext};
use crate::ops::{drain, BoxedOp, Operator, RowIndex};
use crate::{Chunk, Row, CHUNK_SIZE};

/// Keep rows where the predicate is TRUE.
pub struct FilterExec {
    input: BoxedOp,
    predicate: Expr,
    index: RowIndex,
    schema: Schema,
    ctx: Arc<ExecContext>,
}

impl FilterExec {
    pub fn new(input: BoxedOp, predicate: Expr, ctx: impl IntoContext) -> Self {
        let schema = input.schema().clone();
        let index = RowIndex::new(&schema);
        FilterExec {
            input,
            predicate,
            index,
            schema,
            ctx: ctx.into_ctx(),
        }
    }
}

impl Operator for FilterExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        while let Some(chunk) = self.input.next_chunk()? {
            self.ctx.check()?;
            let mut out = Vec::with_capacity(chunk.len());
            for row in chunk {
                if self.index.eval_pred(&self.predicate, &row)? {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// A compiled projection expression: bare column references become direct
/// positional copies (CTE expansion produces long pass-through
/// projections, so this fast path matters).
enum CompiledExpr {
    /// Bare column reference. The *last* projection reading a given input
    /// position (`take: true`) moves the value out of the input row
    /// instead of cloning it; earlier readers of the same position clone.
    Position { pos: usize, take: bool },
    Eval(Expr),
}

/// Evaluate projection expressions per row. Bare column references reuse
/// the input row's buffers (values are moved, not cloned), and a
/// projection that is exactly the identity passes chunks through
/// untouched.
pub struct ProjectExec {
    input: BoxedOp,
    exprs: Vec<CompiledExpr>,
    /// True when the projection is position 0..n over an n-wide input —
    /// chunks are forwarded as-is.
    identity: bool,
    index: RowIndex,
    schema: Schema,
    ctx: Arc<ExecContext>,
}

impl ProjectExec {
    pub fn new(
        input: BoxedOp,
        exprs: Vec<Expr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        let index = RowIndex::new(input.schema());
        let input_width = input.schema().fields().len();
        let mut exprs: Vec<CompiledExpr> = exprs
            .into_iter()
            .map(|e| match &e {
                Expr::Column(id) => match index.position(*id) {
                    Ok(pos) => CompiledExpr::Position { pos, take: false },
                    Err(_) => CompiledExpr::Eval(e),
                },
                _ => CompiledExpr::Eval(e),
            })
            .collect();
        // Mark the last reader of each input position: it may move the
        // value out of the input row instead of cloning it.
        let mut taken = vec![false; input_width];
        for e in exprs.iter_mut().rev() {
            if let CompiledExpr::Position { pos, take } = e {
                if !taken[*pos] {
                    taken[*pos] = true;
                    *take = true;
                }
            }
        }
        let identity = exprs.len() == input_width
            && exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, CompiledExpr::Position { pos, .. } if *pos == i));
        ProjectExec {
            input,
            exprs,
            identity,
            index,
            schema,
            ctx: ctx.into_ctx(),
        }
    }
}

impl Operator for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        match self.input.next_chunk()? {
            None => Ok(None),
            Some(chunk) => {
                self.ctx.check()?;
                if self.identity {
                    // Pure pass-through: no per-row work at all.
                    return Ok(Some(chunk));
                }
                let mut out = Vec::with_capacity(chunk.len());
                for mut row in chunk {
                    // Computed expressions first, while the row is intact;
                    // then bare columns, the last reader of each position
                    // moving the value out instead of cloning.
                    let mut evaluated = Vec::new();
                    for e in &self.exprs {
                        if let CompiledExpr::Eval(expr) = e {
                            evaluated.push(self.index.eval(expr, &row)?);
                        }
                    }
                    let mut evaluated = evaluated.into_iter();
                    let mut new_row = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        new_row.push(match e {
                            CompiledExpr::Position { pos, take: true } => {
                                std::mem::replace(&mut row[*pos], Value::Null)
                            }
                            CompiledExpr::Position { pos, take: false } => row[*pos].clone(),
                            CompiledExpr::Eval(_) => evaluated
                                .next()
                                .unwrap_or(Value::Null),
                        });
                    }
                    out.push(new_row);
                }
                Ok(Some(out))
            }
        }
    }
}

/// Stop after `fetch` rows.
pub struct LimitExec {
    input: BoxedOp,
    remaining: usize,
    schema: Schema,
    ctx: Arc<ExecContext>,
}

impl LimitExec {
    pub fn new(input: BoxedOp, fetch: usize, ctx: impl IntoContext) -> Self {
        let schema = input.schema().clone();
        LimitExec {
            input,
            remaining: fetch,
            schema,
            ctx: ctx.into_ctx(),
        }
    }
}

impl Operator for LimitExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.ctx.check()?;
        match self.input.next_chunk()? {
            None => Ok(None),
            Some(mut chunk) => {
                if chunk.len() > self.remaining {
                    chunk.truncate(self.remaining);
                }
                self.remaining -= chunk.len();
                Ok(Some(chunk))
            }
        }
    }
}

/// Concatenate the inputs, in order.
pub struct UnionAllExec {
    inputs: Vec<BoxedOp>,
    current: usize,
    schema: Schema,
    ctx: Arc<ExecContext>,
}

impl UnionAllExec {
    pub fn new(inputs: Vec<BoxedOp>, schema: Schema, ctx: impl IntoContext) -> Self {
        UnionAllExec {
            inputs,
            current: 0,
            schema,
            ctx: ctx.into_ctx(),
        }
    }
}

impl Operator for UnionAllExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        while self.current < self.inputs.len() {
            self.ctx.check()?;
            if let Some(chunk) = self.inputs[self.current].next_chunk()? {
                return Ok(Some(chunk));
            }
            self.current += 1;
        }
        Ok(None)
    }
}

/// Emit a constant relation: `rows` read through `columns` (output
/// position `i` is stored position `columns[i]`), a chunk at a time. The
/// rows stay where they are — a spliced consumer reads the reuse cache's
/// own allocation — and this copy into chunks is the only one made.
pub struct ConstantTableExec {
    rows: Arc<Vec<Row>>,
    columns: Vec<usize>,
    next: usize,
    schema: Schema,
}

impl ConstantTableExec {
    /// Rows laid out as `schema` says.
    pub fn new(rows: Vec<Row>, schema: Schema) -> Self {
        Self::view(Arc::new(rows), (0..schema.len()).collect(), schema)
    }

    pub fn view(rows: Arc<Vec<Row>>, columns: Vec<usize>, schema: Schema) -> Self {
        ConstantTableExec {
            rows,
            columns,
            next: 0,
            schema,
        }
    }
}

impl Operator for ConstantTableExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        let end = self.rows.len().min(self.next + CHUNK_SIZE);
        if self.next == end {
            return Ok(None);
        }
        let chunk = self.rows[self.next..end]
            .iter()
            .map(|row| self.columns.iter().map(|&k| row[k].clone()).collect())
            .collect();
        self.next = end;
        Ok(Some(chunk))
    }
}

/// Enforce scalar-subquery cardinality: exactly one row passes through;
/// zero rows produce a single all-NULL row (SQL scalar subquery
/// semantics); more than one row fails the query.
pub struct EnforceSingleRowExec {
    input: BoxedOp,
    schema: Schema,
    done: bool,
    ctx: Arc<ExecContext>,
}

impl EnforceSingleRowExec {
    pub fn new(input: BoxedOp, ctx: impl IntoContext) -> Self {
        let schema = input.schema().clone();
        EnforceSingleRowExec {
            input,
            schema,
            done: false,
            ctx: ctx.into_ctx(),
        }
    }
}

impl Operator for EnforceSingleRowExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        self.ctx.check()?;
        let rows = drain(self.input.as_mut())?;
        match rows.len() {
            0 => Ok(Some(vec![vec![Value::Null; self.schema.len()]])),
            1 => Ok(Some(rows)),
            n => Err(FusionError::SingleRowViolation(n)),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use fusion_common::{ColumnId, DataType, Field};
    use fusion_expr::{col, lit};

    fn one_col_schema(id: u32) -> Schema {
        Schema::new(vec![Field::new(ColumnId(id), "x", DataType::Int64, false)])
    }

    fn source(id: u32, values: &[i64]) -> BoxedOp {
        Box::new(ConstantTableExec::new(
            values.iter().map(|v| vec![Value::Int64(*v)]).collect(),
            one_col_schema(id),
        ))
    }

    #[test]
    fn filter_keeps_true_rows() {
        let mut f = FilterExec::new(
            source(1, &[1, 5, 10]),
            col(ColumnId(1)).gt(lit(4i64)),
            ExecMetrics::new(),
        );
        let rows = drain(&mut f).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(5)], vec![Value::Int64(10)]]);
    }

    #[test]
    fn project_computes_expressions() {
        let schema = Schema::new(vec![Field::new(ColumnId(9), "y", DataType::Int64, false)]);
        let mut p = ProjectExec::new(
            source(1, &[1, 2]),
            vec![col(ColumnId(1)).add(lit(10i64))],
            schema,
            ExecMetrics::new(),
        );
        let rows = drain(&mut p).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(11)], vec![Value::Int64(12)]]);
    }

    #[test]
    fn project_identity_passes_chunks_through() {
        let mut p = ProjectExec::new(
            source(1, &[1, 2, 3]),
            vec![col(ColumnId(1))],
            one_col_schema(1),
            ExecMetrics::new(),
        );
        assert!(p.identity);
        let rows = drain(&mut p).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1)],
                vec![Value::Int64(2)],
                vec![Value::Int64(3)]
            ]
        );
    }

    #[test]
    fn project_duplicated_column_clones_then_moves() {
        // The same input position projected twice: the first occurrence
        // clones, the last takes — both must see the original value, and
        // a computed expression over the column must too.
        let schema = Schema::new(vec![
            Field::new(ColumnId(7), "a", DataType::Int64, false),
            Field::new(ColumnId(8), "b", DataType::Int64, false),
            Field::new(ColumnId(9), "c", DataType::Int64, false),
        ]);
        let mut p = ProjectExec::new(
            source(1, &[5]),
            vec![
                col(ColumnId(1)),
                col(ColumnId(1)),
                col(ColumnId(1)).add(lit(1i64)),
            ],
            schema,
            ExecMetrics::new(),
        );
        assert!(!p.identity);
        let rows = drain(&mut p).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(5), Value::Int64(5), Value::Int64(6)]]
        );
    }

    #[test]
    fn limit_truncates() {
        let mut l = LimitExec::new(source(1, &[1, 2, 3, 4]), 2, ExecMetrics::new());
        assert_eq!(drain(&mut l).unwrap().len(), 2);
        let mut l = LimitExec::new(source(1, &[1]), 5, ExecMetrics::new());
        assert_eq!(drain(&mut l).unwrap().len(), 1);
    }

    #[test]
    fn union_concatenates_in_order() {
        let mut u = UnionAllExec::new(
            vec![source(1, &[1]), source(2, &[2, 3])],
            one_col_schema(7),
            ExecMetrics::new(),
        );
        let rows = drain(&mut u).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::Int64(1)]);
        assert_eq!(rows[2], vec![Value::Int64(3)]);
    }

    #[test]
    fn enforce_single_row_semantics() {
        let mut ok = EnforceSingleRowExec::new(source(1, &[42]), ExecMetrics::new());
        assert_eq!(drain(&mut ok).unwrap(), vec![vec![Value::Int64(42)]]);

        let mut empty = EnforceSingleRowExec::new(source(1, &[]), ExecMetrics::new());
        assert_eq!(drain(&mut empty).unwrap(), vec![vec![Value::Null]]);

        let mut many = EnforceSingleRowExec::new(source(1, &[1, 2]), ExecMetrics::new());
        assert!(matches!(
            drain(&mut many),
            Err(FusionError::SingleRowViolation(2))
        ));
    }

    #[test]
    fn cancelled_context_stops_the_pipeline() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        ctx.cancel_token().cancel();
        let mut f = FilterExec::new(
            source(1, &[1, 5, 10]),
            col(ColumnId(1)).gt(lit(0i64)),
            ctx,
        );
        assert_eq!(drain(&mut f), Err(FusionError::Cancelled));
    }
}
