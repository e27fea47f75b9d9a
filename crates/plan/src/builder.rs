//! Fluent construction of logical plans.
//!
//! The builder owns a shared [`IdGen`]; every scan instantiation and every
//! projected/aggregated output allocates fresh column identities through
//! it, so plans built for the same session never collide.

use fusion_common::{ColumnId, DataType, Field, FusionError, IdGen, Result, Value};
use fusion_expr::{AggregateExpr, Expr, WindowExpr};

use crate::plan::{
    AggAssign, Aggregate, ConstantTable, EnforceSingleRow, Filter, Join, JoinType, Limit,
    LogicalPlan, MarkDistinct, Project, ProjExpr, Scan, Sort, SortKey, UnionAll, Window,
    WindowAssign,
};

/// Column definition of a base table, used when instantiating scans.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType, nullable: bool) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable,
        }
    }
}

/// Fluent plan builder.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: LogicalPlan,
    gen: IdGen,
}

impl PlanBuilder {
    /// Instantiate a scan of `table` with fresh column identities.
    pub fn scan(gen: &IdGen, table: impl Into<String>, columns: &[ColumnDef]) -> Self {
        let fields = columns
            .iter()
            .map(|c| Field::new(gen.fresh(), c.name.clone(), c.data_type, c.nullable))
            .collect();
        PlanBuilder {
            plan: LogicalPlan::Scan(Scan {
                table: table.into(),
                fields,
                column_indices: (0..columns.len()).collect(),
                filters: vec![],
            }),
            gen: gen.clone(),
        }
    }

    /// Wrap an existing plan.
    pub fn from_plan(gen: &IdGen, plan: LogicalPlan) -> Self {
        PlanBuilder {
            plan,
            gen: gen.clone(),
        }
    }

    /// An inline constant table (`VALUES`); the rows must match the
    /// columns' types and hold no NULL.
    pub fn values(
        gen: &IdGen,
        columns: &[(&str, DataType)],
        rows: Vec<Vec<Value>>,
    ) -> Result<Self> {
        let fields = columns
            .iter()
            .map(|(n, t)| Field::new(gen.fresh(), *n, *t, false))
            .collect();
        Ok(PlanBuilder {
            plan: LogicalPlan::ConstantTable(ConstantTable::new(fields, rows)?),
            gen: gen.clone(),
        })
    }

    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    pub fn build(self) -> LogicalPlan {
        self.plan
    }

    pub fn id_gen(&self) -> &IdGen {
        &self.gen
    }

    /// The output schema of the plan built so far.
    pub fn schema(&self) -> fusion_common::Schema {
        self.plan.schema()
    }

    /// Resolve a column by name (case-insensitive) in the current output.
    pub fn col(&self, name: &str) -> Result<ColumnId> {
        let schema = self.plan.schema();
        let mut hits = schema.fields_by_name(name);
        match (hits.next(), hits.next()) {
            (Some(f), None) => Ok(f.id),
            (Some(_), Some(_)) => Err(FusionError::Plan(format!("ambiguous column `{name}`"))),
            (None, _) => Err(FusionError::Plan(format!("unknown column `{name}`"))),
        }
    }

    /// Column-reference expression by name.
    pub fn col_expr(&self, name: &str) -> Result<Expr> {
        Ok(Expr::Column(self.col(name)?))
    }

    pub fn filter(self, predicate: Expr) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Filter(Filter {
                input: Box::new(self.plan),
                predicate,
            }),
            gen: self.gen,
        }
    }

    /// Project expressions to named outputs with fresh identities.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Self {
        let exprs = exprs
            .into_iter()
            .map(|(name, expr)| ProjExpr::new(self.gen.fresh(), name, expr))
            .collect();
        PlanBuilder {
            plan: LogicalPlan::Project(Project {
                input: Box::new(self.plan),
                exprs,
            }),
            gen: self.gen,
        }
    }

    pub fn join(self, right: LogicalPlan, join_type: JoinType, condition: Expr) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Join(Join {
                left: Box::new(self.plan),
                right: Box::new(right),
                join_type,
                condition,
            }),
            gen: self.gen,
        }
    }

    pub fn cross_join(self, right: LogicalPlan) -> Self {
        self.join(right, JoinType::Cross, Expr::boolean(true))
    }

    /// GroupBy on columns with named aggregates (fresh identities).
    pub fn aggregate(self, group_by: Vec<ColumnId>, aggs: Vec<(&str, AggregateExpr)>) -> Self {
        let aggregates = aggs
            .into_iter()
            .map(|(name, agg)| AggAssign::new(self.gen.fresh(), name, agg))
            .collect();
        PlanBuilder {
            plan: LogicalPlan::Aggregate(Aggregate {
                input: Box::new(self.plan),
                group_by,
                aggregates,
            }),
            gen: self.gen,
        }
    }

    /// DISTINCT over the given columns (GroupBy with no aggregates).
    pub fn distinct_on(self, columns: Vec<ColumnId>) -> Self {
        self.aggregate(columns, vec![])
    }

    /// Append window aggregates.
    pub fn window(self, exprs: Vec<(&str, WindowExpr)>) -> Self {
        let exprs = exprs
            .into_iter()
            .map(|(name, window)| WindowAssign {
                id: self.gen.fresh(),
                name: name.into(),
                window,
            })
            .collect();
        PlanBuilder {
            plan: LogicalPlan::Window(Window {
                input: Box::new(self.plan),
                exprs,
            }),
            gen: self.gen,
        }
    }

    /// Append a MarkDistinct column over `columns`.
    pub fn mark_distinct(self, columns: Vec<ColumnId>, mark_name: &str) -> Self {
        let mark_id = self.gen.fresh();
        PlanBuilder {
            plan: LogicalPlan::MarkDistinct(MarkDistinct {
                input: Box::new(self.plan),
                columns,
                mark_id,
                mark_name: mark_name.into(),
                mask: Expr::boolean(true),
            }),
            gen: self.gen,
        }
    }

    /// Bag-union this plan with others (positional); output columns take
    /// the names/types of the first input with fresh identities.
    pub fn union_all(self, others: Vec<LogicalPlan>) -> Result<Self> {
        let first = self.plan.schema();
        let mut inputs = vec![self.plan];
        inputs.extend(others);
        let fields = first
            .fields()
            .iter()
            .map(|f| {
                Field::new(
                    self.gen.fresh(),
                    f.name.clone(),
                    f.data_type,
                    // Conservative: nullable if any input's column is.
                    true,
                )
            })
            .collect();
        let plan = LogicalPlan::UnionAll(UnionAll { inputs, fields });
        plan.validate()?;
        Ok(PlanBuilder {
            plan,
            gen: self.gen,
        })
    }

    pub fn enforce_single_row(self) -> Self {
        PlanBuilder {
            plan: LogicalPlan::EnforceSingleRow(EnforceSingleRow {
                input: Box::new(self.plan),
            }),
            gen: self.gen,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Sort(Sort {
                input: Box::new(self.plan),
                keys,
            }),
            gen: self.gen,
        }
    }

    pub fn limit(self, fetch: usize) -> Self {
        PlanBuilder {
            plan: LogicalPlan::Limit(Limit {
                input: Box::new(self.plan),
                fetch,
            }),
            gen: self.gen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_expr::{col, lit};

    fn item_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("i_item_sk", DataType::Int64, false),
            ColumnDef::new("i_brand", DataType::Utf8, true),
            ColumnDef::new("i_size", DataType::Utf8, true),
        ]
    }

    #[test]
    fn two_scans_of_same_table_get_distinct_identities() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        assert_ne!(a.col("i_item_sk").unwrap(), b.col("i_item_sk").unwrap());
    }

    #[test]
    fn fluent_pipeline_builds_valid_plan() {
        let gen = IdGen::new();
        let b = PlanBuilder::scan(&gen, "item", &item_cols());
        let sk = b.col("i_item_sk").unwrap();
        let plan = b
            .filter(col(sk).gt(lit(10i64)))
            .aggregate(vec![sk], vec![("n", AggregateExpr::count_star())])
            .limit(5)
            .build();
        plan.validate().unwrap();
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn union_all_validates_and_names_from_first() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let b = PlanBuilder::scan(&gen, "item", &item_cols()).build();
        let u = a.union_all(vec![b]).unwrap();
        let schema = u.schema();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.field(0).name, "i_item_sk");
    }

    #[test]
    fn union_all_arity_mismatch_fails() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let b = PlanBuilder::scan(
            &gen,
            "store",
            &[ColumnDef::new("s_store_sk", DataType::Int64, false)],
        )
        .build();
        assert!(a.union_all(vec![b]).is_err());
    }

    #[test]
    fn values_builder() {
        let gen = IdGen::new();
        let t = PlanBuilder::values(
            &gen,
            &[("tag", DataType::Int64)],
            vec![vec![Value::Int64(1)], vec![Value::Int64(2)]],
        )
        .unwrap();
        let plan = t.build();
        plan.validate().unwrap();
        assert_eq!(plan.schema().len(), 1);
    }

    #[test]
    fn ambiguous_column_detected() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "item", &item_cols());
        let b = PlanBuilder::scan(&gen, "item", &item_cols()).build();
        let j = a.cross_join(b);
        assert!(j.col("i_brand").is_err());
    }
}
