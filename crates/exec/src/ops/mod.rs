//! Pull-based streaming operators.

pub mod agg;
pub mod basic;
pub mod distinct;
pub mod exchange;
pub mod join;
pub mod scan;
pub mod sort;

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use fusion_common::{ColumnId, FusionError, Result, Schema, Value};
use fusion_expr::{Expr, Resolver};

use crate::profile::OpSpan;
use crate::{Chunk, Row, CHUNK_SIZE};

/// A streaming operator: repeatedly yields chunks of rows until exhausted.
pub trait Operator {
    fn schema(&self) -> &Schema;
    fn next_chunk(&mut self) -> Result<Option<Chunk>>;

    /// Attach the operator's profiling span. Stateful operators route
    /// their memory reservations through it so the profile can report a
    /// per-operator peak; the default is a no-op for operators that hold
    /// no metered state.
    fn attach_span(&mut self, _span: Arc<OpSpan>) {}
}

/// Boxed operator, the unit of plan composition.
pub type BoxedOp = Box<dyn Operator>;

/// Drain an operator to completion.
pub fn drain(op: &mut dyn Operator) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(chunk) = op.next_chunk()? {
        out.extend(chunk);
    }
    Ok(out)
}

/// Hands a materialized `Vec<Row>` out in `CHUNK_SIZE` chunks, moving each
/// row out exactly once (never cloning, never shifting the remainder).
#[derive(Default)]
pub(crate) struct RowDrain(std::vec::IntoIter<Row>);

impl RowDrain {
    pub(crate) fn new(rows: Vec<Row>) -> Self {
        RowDrain(rows.into_iter())
    }

    /// The next chunk, or `None` once every row has been handed out.
    pub(crate) fn next_chunk(&mut self) -> Option<Chunk> {
        let chunk: Chunk = self.0.by_ref().take(CHUNK_SIZE).collect();
        (!chunk.is_empty()).then_some(chunk)
    }
}

/// Column-identity → row-position index for one operator input.
#[derive(Debug, Clone)]
pub struct RowIndex {
    map: HashMap<ColumnId, usize>,
}

impl RowIndex {
    pub fn new(schema: &Schema) -> Self {
        RowIndex {
            map: schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| (f.id, i))
                .collect(),
        }
    }

    pub fn position(&self, id: ColumnId) -> Result<usize> {
        self.map.get(&id).copied().ok_or_else(|| {
            FusionError::Execution(format!("column {id} not found in operator input"))
        })
    }

    /// Evaluate an expression against a row.
    pub fn eval(&self, expr: &Expr, row: &[Value]) -> Result<Value> {
        fusion_expr::eval(expr, &RowRef { index: self, row })
    }

    /// Evaluate a predicate (NULL counts as false) via the borrowing
    /// evaluation path — no per-column `Value` clones for comparisons.
    pub fn eval_pred(&self, expr: &Expr, row: &[Value]) -> Result<bool> {
        let r = RowRef { index: self, row };
        Ok(fusion_expr::eval_cow(expr, &r)?.as_bool() == Some(true))
    }
}

/// Resolver over a borrowed row.
pub struct RowRef<'a> {
    pub index: &'a RowIndex,
    pub row: &'a [Value],
}

impl Resolver for RowRef<'_> {
    fn value(&self, id: ColumnId) -> Result<Value> {
        let pos = self.index.position(id)?;
        Ok(self.row[pos].clone())
    }

    fn value_ref(&self, id: ColumnId) -> Result<Cow<'_, Value>> {
        let pos = self.index.position(id)?;
        Ok(Cow::Borrowed(&self.row[pos]))
    }
}

/// Estimated in-memory size of a row, for the state-bytes meter.
pub fn row_bytes(row: &[Value]) -> i64 {
    row.iter().map(|v| v.encoded_size() as i64 + 8).sum()
}
