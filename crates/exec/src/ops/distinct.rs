//! The `MarkDistinct` operator (§III.F).

use std::collections::HashSet;
use std::sync::Arc;

use fusion_common::{ColumnId, Result, Schema, Value};
use fusion_expr::Expr;

use crate::context::{BudgetedReservation, ExecContext, IntoContext};
use crate::ops::{row_bytes, BoxedOp, Operator, RowIndex};
use crate::profile::OpSpan;
use crate::Chunk;

/// Streams the input through, appending a boolean column that is TRUE the
/// first time each combination of the marked columns is observed and
/// FALSE for every subsequent occurrence. Combined with aggregate masks
/// this implements distinct aggregates without self-joins.
pub struct MarkDistinctExec {
    input: BoxedOp,
    positions: Vec<usize>,
    /// Native mask (§III.F extension): rows failing it are marked FALSE
    /// and excluded from first-occurrence tracking.
    mask: Option<Expr>,
    index: RowIndex,
    seen: HashSet<Vec<Value>>,
    schema: Schema,
    ctx: Arc<ExecContext>,
    reservation: BudgetedReservation,
}

impl MarkDistinctExec {
    pub fn new(
        input: BoxedOp,
        columns: &[ColumnId],
        mask: Expr,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Result<Self> {
        let ctx = ctx.into_ctx();
        let index = RowIndex::new(input.schema());
        let positions = columns
            .iter()
            .map(|c| index.position(*c))
            .collect::<Result<Vec<_>>>()?;
        let mask = if mask.is_true_literal() { None } else { Some(mask) };
        let reservation = BudgetedReservation::try_new(ctx.clone(), 0)?;
        Ok(MarkDistinctExec {
            input,
            positions,
            mask,
            index,
            seen: HashSet::new(),
            schema,
            ctx,
            reservation,
        })
    }
}

impl Operator for MarkDistinctExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        // The seen-set reservation exists from construction; attaching
        // the span retroactively credits its current bytes too.
        self.reservation.set_span(span);
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        match self.input.next_chunk()? {
            None => Ok(None),
            Some(chunk) => {
                self.ctx.check()?;
                let mut out = Vec::with_capacity(chunk.len());
                for mut row in chunk {
                    let masked_out = match &self.mask {
                        Some(m) => !self.index.eval_pred(m, &row)?,
                        None => false,
                    };
                    let first = if masked_out {
                        false
                    } else {
                        let key: Vec<Value> = self
                            .positions
                            .iter()
                            .map(|&p| row[p].clone())
                            .collect();
                        if self.seen.contains(&key) {
                            false
                        } else {
                            self.reservation.try_grow(row_bytes(&key))?;
                            self.seen.insert(key);
                            true
                        }
                    };
                    row.push(Value::Boolean(first));
                    out.push(row);
                }
                Ok(Some(out))
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
    use crate::ops::drain;
    use fusion_common::{DataType, Field};

    fn source(values: &[i64]) -> BoxedOp {
        let schema = Schema::new(vec![Field::new(ColumnId(1), "x", DataType::Int64, true)]);
        Box::new(ConstantTableExec::new(
            values.iter().map(|v| vec![Value::Int64(*v)]).collect(),
            schema,
        ))
    }

    fn out_schema() -> Schema {
        Schema::new(vec![
            Field::new(ColumnId(1), "x", DataType::Int64, true),
            Field::new(ColumnId(2), "d", DataType::Boolean, false),
        ])
    }

    #[test]
    fn first_occurrence_marked_true() {
        let mut md = MarkDistinctExec::new(
            source(&[5, 5, 7, 5, 7]),
            &[ColumnId(1)],
            Expr::boolean(true),
            out_schema(),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut md).unwrap();
        let marks: Vec<bool> = rows
            .iter()
            .map(|r| r[1].as_bool().unwrap())
            .collect();
        assert_eq!(marks, vec![true, false, true, false, false]);
    }

    #[test]
    fn nulls_form_their_own_group() {
        let schema = Schema::new(vec![Field::new(ColumnId(1), "x", DataType::Int64, true)]);
        let input: BoxedOp = Box::new(ConstantTableExec::new(
            vec![vec![Value::Null], vec![Value::Null], vec![Value::Int64(1)]],
            schema,
        ));
        let mut md =
            MarkDistinctExec::new(input, &[ColumnId(1)], Expr::boolean(true), out_schema(), ExecMetrics::new())
                .unwrap();
        let rows = drain(&mut md).unwrap();
        let marks: Vec<bool> = rows.iter().map(|r| r[1].as_bool().unwrap()).collect();
        assert_eq!(marks, vec![true, false, true]);
    }

    /// Native masks (§III.F extension): rows failing the mask are marked
    /// FALSE and do not consume first occurrences.
    #[test]
    fn masked_rows_do_not_claim_first_occurrence() {
        use fusion_expr::{col, lit};
        // Values: 5 (masked out), 5, 7, 5, 7 — mask: x > 4 is true for
        // all; use x <> 5 to mask out the 5s except... use x > 6.
        let mut md = MarkDistinctExec::new(
            source(&[5, 5, 7, 5, 7]),
            &[ColumnId(1)],
            col(ColumnId(1)).gt(lit(6i64)),
            out_schema(),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut md).unwrap();
        let marks: Vec<bool> = rows.iter().map(|r| r[1].as_bool().unwrap()).collect();
        // Only the first 7 is marked; every 5 is masked out.
        assert_eq!(marks, vec![false, false, true, false, false]);
    }

    #[test]
    fn state_is_metered() {
        let m = ExecMetrics::new();
        let mut md =
            MarkDistinctExec::new(source(&[1, 2, 3]), &[ColumnId(1)], Expr::boolean(true), out_schema(), m.clone())
                .unwrap();
        drain(&mut md).unwrap();
        assert!(m.snapshot().peak_state_bytes > 0);
    }
}
