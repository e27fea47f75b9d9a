//! Masked aggregate and window expressions.
//!
//! Following Section III.E of the paper, every aggregate in a GroupBy is a
//! pair `(a, m)`: a traditional aggregate function `a` and a boolean *mask*
//! `m`. Only input rows satisfying the mask feed the aggregate; different
//! aggregates in the same GroupBy can aggregate different subsets of the
//! input. This is the representational device that lets `Fuse` merge two
//! GroupBys into one: each side's aggregates get their masks tightened with
//! the corresponding compensating filter.

use std::fmt;

use fusion_common::{ColumnId, DataType, FusionError, Result, Schema};

use crate::expr::{ColumnMap, Expr};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows (mask-filtered).
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Result type given the argument type.
    pub fn output_type(&self, arg: Option<DataType>) -> Result<DataType> {
        match self {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Sum => match arg {
                Some(DataType::Int64) => Ok(DataType::Int64),
                Some(DataType::Float64) => Ok(DataType::Float64),
                other => Err(FusionError::Type(format!("SUM over {other:?}"))),
            },
            AggFunc::Avg => match arg {
                Some(t) if t.is_numeric() => Ok(DataType::Float64),
                other => Err(FusionError::Type(format!("AVG over {other:?}"))),
            },
            AggFunc::Min | AggFunc::Max => {
                arg.ok_or_else(|| FusionError::Type("MIN/MAX need an argument".into()))
            }
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// A masked (optionally distinct) aggregate: the `(a, m)` pair of §III.E.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateExpr {
    pub func: AggFunc,
    /// Argument expression; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    /// `AGG(DISTINCT x)`. The planner can lower this onto `MarkDistinct`
    /// (see `fusion_plan::LogicalPlan::MarkDistinct`).
    pub distinct: bool,
    /// The mask: rows where this is not TRUE are ignored by the aggregate.
    pub mask: Expr,
}

impl AggregateExpr {
    pub fn new(func: AggFunc, arg: Option<Expr>) -> Self {
        AggregateExpr {
            func,
            arg,
            distinct: false,
            mask: Expr::boolean(true),
        }
    }

    pub fn with_mask(mut self, mask: Expr) -> Self {
        self.mask = mask;
        self
    }

    pub fn with_distinct(mut self, distinct: bool) -> Self {
        self.distinct = distinct;
        self
    }

    pub fn count_star() -> Self {
        AggregateExpr::new(AggFunc::CountStar, None)
    }

    pub fn sum(arg: Expr) -> Self {
        AggregateExpr::new(AggFunc::Sum, Some(arg))
    }

    pub fn avg(arg: Expr) -> Self {
        AggregateExpr::new(AggFunc::Avg, Some(arg))
    }

    pub fn min(arg: Expr) -> Self {
        AggregateExpr::new(AggFunc::Min, Some(arg))
    }

    pub fn max(arg: Expr) -> Self {
        AggregateExpr::new(AggFunc::Max, Some(arg))
    }

    pub fn count(arg: Expr) -> Self {
        AggregateExpr::new(AggFunc::Count, Some(arg))
    }

    /// Whether the mask is the trivial `TRUE`.
    pub fn unmasked(&self) -> bool {
        self.mask.is_true_literal()
    }

    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        let arg_type = match &self.arg {
            Some(e) => Some(e.data_type(schema)?),
            None => None,
        };
        self.func.output_type(arg_type)
    }

    /// Result is nullable unless it is a COUNT (which yields 0 for empty
    /// groups).
    pub fn output_nullable(&self) -> bool {
        !matches!(self.func, AggFunc::Count | AggFunc::CountStar)
    }

    /// Column ids referenced by argument and mask.
    pub fn columns(&self) -> std::collections::HashSet<ColumnId> {
        let mut out = self.mask.columns();
        if let Some(a) = &self.arg {
            out.extend(a.columns());
        }
        out
    }

    /// Rewrite through a column→column map.
    pub fn map_columns(&self, m: &ColumnMap) -> AggregateExpr {
        AggregateExpr {
            func: self.func,
            arg: self.arg.as_ref().map(|e| e.map_columns(m)),
            distinct: self.distinct,
            mask: self.mask.map_columns(m),
        }
    }
}

impl fmt::Display for AggregateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.func, &self.arg) {
            (AggFunc::CountStar, _) => f.write_str("COUNT(*)")?,
            (func, Some(arg)) => write!(
                f,
                "{func}({}{arg})",
                if self.distinct { "DISTINCT " } else { "" }
            )?,
            (func, None) => write!(f, "{func}()")?,
        }
        if !self.unmasked() {
            write!(f, " FILTER (WHERE {})", self.mask)?;
        }
        Ok(())
    }
}

/// A partition-wide window aggregate: `AGG(x) OVER (PARTITION BY k...)`.
///
/// No ordering or frame is supported — the `GroupByJoinToWindow` rewrite
/// only needs whole-partition aggregates broadcast back to every row.
/// Like plain aggregates, window aggregates carry a *mask* (the paper's
/// footnote-4 extension): only rows satisfying it feed the partition's
/// accumulator, though every row still receives the partition value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
    pub partition_by: Vec<ColumnId>,
    pub mask: Expr,
}

impl WindowExpr {
    pub fn new(func: AggFunc, arg: Option<Expr>, partition_by: Vec<ColumnId>) -> Self {
        WindowExpr {
            func,
            arg,
            partition_by,
            mask: Expr::boolean(true),
        }
    }

    pub fn with_mask(mut self, mask: Expr) -> Self {
        self.mask = mask;
        self
    }

    /// Whether the mask is the trivial `TRUE`.
    pub fn unmasked(&self) -> bool {
        self.mask.is_true_literal()
    }

    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        let arg_type = match &self.arg {
            Some(e) => Some(e.data_type(schema)?),
            None => None,
        };
        self.func.output_type(arg_type)
    }

    pub fn columns(&self) -> std::collections::HashSet<ColumnId> {
        let mut out: std::collections::HashSet<ColumnId> =
            self.partition_by.iter().copied().collect();
        if let Some(a) = &self.arg {
            out.extend(a.columns());
        }
        out.extend(self.mask.columns());
        out
    }

    pub fn map_columns(&self, m: &ColumnMap) -> WindowExpr {
        WindowExpr {
            func: self.func,
            arg: self.arg.as_ref().map(|e| e.map_columns(m)),
            partition_by: self
                .partition_by
                .iter()
                .map(|c| *m.get(c).unwrap_or(c))
                .collect(),
            mask: self.mask.map_columns(m),
        }
    }
}

impl fmt::Display for WindowExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({a})", self.func)?,
            None => write!(f, "{}", self.func)?,
        }
        if !self.unmasked() {
            write!(f, " FILTER (WHERE {})", self.mask)?;
        }
        f.write_str(" OVER (PARTITION BY ")?;
        for (i, c) in self.partition_by.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use fusion_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(ColumnId(1), "a", DataType::Int64, false),
            Field::new(ColumnId(2), "b", DataType::Float64, true),
        ])
    }

    #[test]
    fn output_types() {
        let s = schema();
        assert_eq!(
            AggregateExpr::sum(col(ColumnId(1))).output_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggregateExpr::avg(col(ColumnId(1))).output_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggregateExpr::count_star().output_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggregateExpr::min(col(ColumnId(2))).output_type(&s).unwrap(),
            DataType::Float64
        );
    }

    #[test]
    fn mask_participates_in_columns_and_mapping() {
        let agg = AggregateExpr::sum(col(ColumnId(1))).with_mask(col(ColumnId(2)).gt(lit(0.0)));
        let cols = agg.columns();
        assert!(cols.contains(&ColumnId(1)) && cols.contains(&ColumnId(2)));

        let mut m = ColumnMap::new();
        m.insert(ColumnId(1), ColumnId(10));
        m.insert(ColumnId(2), ColumnId(20));
        let mapped = agg.map_columns(&m);
        assert_eq!(mapped.arg, Some(col(ColumnId(10))));
        assert_eq!(mapped.mask, col(ColumnId(20)).gt(lit(0.0)));
    }

    #[test]
    fn display_shows_filter_clause() {
        let agg = AggregateExpr::avg(col(ColumnId(1))).with_mask(col(ColumnId(2)).gt(lit(0.0)));
        assert_eq!(agg.to_string(), "AVG(#1) FILTER (WHERE (#2 > 0))");
        assert_eq!(AggregateExpr::count_star().to_string(), "COUNT(*)");
    }

    #[test]
    fn window_maps_partition_columns() {
        let w = WindowExpr::new(AggFunc::Avg, Some(col(ColumnId(1))), vec![ColumnId(2)]);
        let mut m = ColumnMap::new();
        m.insert(ColumnId(2), ColumnId(20));
        let mapped = w.map_columns(&m);
        assert_eq!(mapped.partition_by, vec![ColumnId(20)]);
        assert_eq!(
            w.to_string(),
            "AVG(#1) OVER (PARTITION BY #2)"
        );
    }

    #[test]
    fn count_is_not_nullable() {
        assert!(!AggregateExpr::count_star().output_nullable());
        assert!(AggregateExpr::sum(col(ColumnId(1))).output_nullable());
    }
}
