//! Sort operator.

use std::cmp::Ordering;
use std::sync::Arc;

use fusion_common::{Result, Schema, Value};
use fusion_plan::SortKey;

use crate::context::{BudgetedReservation, ExecContext, IntoContext};
use crate::ops::{drain, row_bytes, BoxedOp, Operator, RowDrain, RowIndex};
use crate::profile::OpSpan;
use crate::{Chunk, Row};

/// Fully materializing sort.
pub struct SortExec {
    input: Option<BoxedOp>,
    keys: Vec<SortKey>,
    index: RowIndex,
    schema: Schema,
    ctx: Arc<ExecContext>,
    output: Option<RowDrain>,
    span: Option<Arc<OpSpan>>,
}

impl SortExec {
    pub fn new(input: BoxedOp, keys: Vec<SortKey>, ctx: impl IntoContext) -> Self {
        let schema = input.schema().clone();
        let index = RowIndex::new(&schema);
        SortExec {
            input: Some(input),
            keys,
            index,
            schema,
            ctx: ctx.into_ctx(),
            output: None,
            span: None,
        }
    }

    fn compute(&mut self) -> Result<Vec<Row>> {
        self.ctx.check()?;
        let mut input = self
            .input
            .take()
            .expect("sort input consumed exactly once: compute runs behind output.is_none()");
        let rows = drain(input.as_mut())?;
        let bytes: i64 = rows.iter().map(|r| row_bytes(r)).sum();
        let mut reservation = BudgetedReservation::try_new(self.ctx.clone(), bytes)?;
        if let Some(span) = &self.span {
            reservation.set_span(span.clone());
        }
        let _reservation = reservation;

        // Precompute key tuples to avoid re-evaluating during comparisons.
        let mut keyed: Vec<(Vec<Value>, Row)> = rows
            .into_iter()
            .map(|row| {
                let keys: Result<Vec<Value>> = self
                    .keys
                    .iter()
                    .map(|k| self.index.eval(&k.expr, &row))
                    .collect();
                keys.map(|k| (k, row))
            })
            .collect::<Result<_>>()?;

        let specs: Vec<(bool, bool)> = self.keys.iter().map(|k| (k.asc, k.nulls_first)).collect();
        keyed.sort_by(|(ka, _), (kb, _)| {
            for (i, (asc, nulls_first)) in specs.iter().enumerate() {
                let a = &ka[i];
                let b = &kb[i];
                let ord = match (a.is_null(), b.is_null()) {
                    (true, true) => Ordering::Equal,
                    (true, false) => {
                        if *nulls_first {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                    (false, true) => {
                        if *nulls_first {
                            Ordering::Greater
                        } else {
                            Ordering::Less
                        }
                    }
                    (false, false) => {
                        let o = a.cmp(b);
                        if *asc {
                            o
                        } else {
                            o.reverse()
                        }
                    }
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        Ok(keyed.into_iter().map(|(_, r)| r).collect())
    }
}

impl Operator for SortExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.output.is_none() {
            self.output = Some(RowDrain::new(self.compute()?));
        }
        Ok(self.output.as_mut().and_then(RowDrain::next_chunk))
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use fusion_common::{ColumnId, DataType, Field};
    use fusion_expr::col;

    fn source(values: Vec<Value>) -> BoxedOp {
        let schema = Schema::new(vec![Field::new(ColumnId(1), "x", DataType::Int64, true)]);
        Box::new(ConstantTableExec::new(
            values.into_iter().map(|v| vec![v]).collect(),
            schema,
        ))
    }

    #[test]
    fn ascending_sort_nulls_last_by_default() {
        let mut s = SortExec::new(
            source(vec![Value::Int64(3), Value::Null, Value::Int64(1)]),
            vec![SortKey::asc(col(ColumnId(1)))],
            ExecMetrics::new(),
        );
        let rows = drain(&mut s).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(1)], vec![Value::Int64(3)], vec![Value::Null]]
        );
    }

    #[test]
    fn descending_sort() {
        let mut s = SortExec::new(
            source(vec![Value::Int64(1), Value::Int64(3), Value::Int64(2)]),
            vec![SortKey::desc(col(ColumnId(1)))],
            ExecMetrics::new(),
        );
        let rows = drain(&mut s).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(3)], vec![Value::Int64(2)], vec![Value::Int64(1)]]
        );
    }

    #[test]
    fn nulls_first_when_requested() {
        let mut key = SortKey::asc(col(ColumnId(1)));
        key.nulls_first = true;
        let mut s = SortExec::new(
            source(vec![Value::Int64(1), Value::Null]),
            vec![key],
            ExecMetrics::new(),
        );
        let rows = drain(&mut s).unwrap();
        assert_eq!(rows[0], vec![Value::Null]);
    }
}
