//! AST → logical plan.

mod expr;
mod scope;
mod select;

use std::collections::HashMap;

use fusion_common::{DataType, FusionError, IdGen, Result};
use fusion_plan::builder::ColumnDef;
use fusion_plan::{Join, JoinType, LogicalPlan, PlanBuilder, Sort, SortKey};

use crate::ast::{JoinKind, OrderItem, Query, SetExpr, TableRef};
pub(crate) use scope::{Scope, ScopeItem};

/// Column definitions of one base table, as exposed to the planner.
#[derive(Debug, Clone)]
pub struct TableSchema {
    pub columns: Vec<(String, DataType, bool)>,
}

impl TableSchema {
    pub fn column_defs(&self) -> Vec<ColumnDef> {
        self.columns
            .iter()
            .map(|(n, t, null)| ColumnDef::new(n.clone(), *t, *null))
            .collect()
    }
}

/// Source of base-table schemas (implemented by the engine's catalog).
pub trait SchemaProvider {
    fn table_schema(&self, name: &str) -> Option<TableSchema>;
}

/// Plan a parsed query against a schema provider.
pub fn plan_query(
    query: &Query,
    provider: &dyn SchemaProvider,
    gen: &IdGen,
) -> Result<LogicalPlan> {
    let mut planner = Planner {
        provider,
        gen: gen.clone(),
        cte_stack: Vec::new(),
        depth: 0,
    };
    let (plan, _) = planner.plan_query(query)?;
    plan.validate()?;
    Ok(plan)
}

pub(crate) struct Planner<'a> {
    pub provider: &'a dyn SchemaProvider,
    pub gen: IdGen,
    /// Stack of CTE definition scopes; inner queries see outer CTEs.
    pub cte_stack: Vec<HashMap<String, Query>>,
    pub depth: usize,
}

impl Planner<'_> {
    pub(crate) fn plan_query(&mut self, query: &Query) -> Result<(LogicalPlan, Scope)> {
        self.depth += 1;
        if self.depth > 64 {
            return Err(FusionError::Sql("query nesting too deep".into()));
        }
        let mut cte_scope = HashMap::new();
        for (name, q) in &query.ctes {
            cte_scope.insert(name.to_ascii_lowercase(), q.clone());
        }
        self.cte_stack.push(cte_scope);

        let result = self.plan_query_inner(query);

        self.cte_stack.pop();
        self.depth -= 1;
        result
    }

    fn plan_query_inner(&mut self, query: &Query) -> Result<(LogicalPlan, Scope)> {
        let (mut plan, scope) = self.plan_set_expr(&query.body)?;

        if !query.order_by.is_empty() {
            let keys = query
                .order_by
                .iter()
                .map(|OrderItem { expr, asc }| {
                    // ORDER BY resolves against the output columns.
                    let planned = expr::plan_output_expr(expr, &scope)?;
                    Ok(SortKey {
                        expr: planned,
                        asc: *asc,
                        nulls_first: false,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            plan = LogicalPlan::Sort(Sort {
                input: Box::new(plan),
                keys,
            });
        }
        if let Some(n) = query.limit {
            plan = LogicalPlan::Limit(fusion_plan::Limit {
                input: Box::new(plan),
                fetch: n as usize,
            });
        }
        Ok((plan, scope))
    }

    fn plan_set_expr(&mut self, body: &SetExpr) -> Result<(LogicalPlan, Scope)> {
        match body {
            SetExpr::Select(s) => self.plan_select(s),
            SetExpr::UnionAll(l, r) => {
                // Flatten the union chain into an n-ary UnionAll.
                let mut branches = Vec::new();
                collect_union_branches(body, &mut branches);
                let mut plans = Vec::new();
                let mut first_scope = None;
                for b in branches {
                    let (p, s) = self.plan_set_expr_leaf(b)?;
                    if first_scope.is_none() {
                        first_scope = Some(s);
                    }
                    plans.push(p);
                }
                let _ = (l, r);
                let first = plans.remove(0);
                let scope = first_scope.expect("at least one branch");
                let builder = PlanBuilder::from_plan(&self.gen, first).union_all(plans)?;
                let union_schema = builder.schema();
                let out_scope = Scope {
                    items: union_schema
                        .fields()
                        .iter()
                        .map(|f| ScopeItem {
                            qualifier: None,
                            name: f.name.clone(),
                            id: f.id,
                        })
                        .collect(),
                };
                let _ = scope;
                Ok((builder.build(), out_scope))
            }
        }
    }

    fn plan_set_expr_leaf(&mut self, body: &SetExpr) -> Result<(LogicalPlan, Scope)> {
        match body {
            SetExpr::Select(s) => self.plan_select(s),
            SetExpr::UnionAll(..) => self.plan_set_expr(body),
        }
    }

    /// Plan a FROM item list (comma = cross join).
    pub(crate) fn plan_from(&mut self, from: &[TableRef]) -> Result<(LogicalPlan, Scope)> {
        if from.is_empty() {
            // SELECT without FROM: a single empty row.
            let plan =
                LogicalPlan::ConstantTable(fusion_plan::ConstantTable::new(vec![], vec![vec![]])?);
            return Ok((plan, Scope::default()));
        }
        let mut iter = from.iter();
        let first = iter.next().expect("non-empty FROM list checked above");
        let (mut plan, mut scope) = self.plan_table_ref(first)?;
        for tr in iter {
            let (right, right_scope) = self.plan_table_ref(tr)?;
            plan = LogicalPlan::Join(Join {
                left: Box::new(plan),
                right: Box::new(right),
                join_type: JoinType::Cross,
                condition: fusion_expr::Expr::boolean(true),
            });
            scope.items.extend(right_scope.items);
        }
        Ok((plan, scope))
    }

    fn plan_table_ref(&mut self, tr: &TableRef) -> Result<(LogicalPlan, Scope)> {
        match tr {
            TableRef::Table { name, alias } => {
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                // CTE reference? Inline it with fresh identities — the
                // streaming-engine behavior the fusion rules target.
                if let Some(cte) = self.lookup_cte(name) {
                    let (plan, scope) = self.plan_query(&cte)?;
                    return Ok((plan, scope.requalified(&qualifier)));
                }
                let schema = self.provider.table_schema(name).ok_or_else(|| {
                    FusionError::Sql(format!("table `{name}` not found"))
                })?;
                let builder = PlanBuilder::scan(&self.gen, name.clone(), &schema.column_defs());
                let plan_schema = builder.schema();
                let scope = Scope {
                    items: plan_schema
                        .fields()
                        .iter()
                        .map(|f| ScopeItem {
                            qualifier: Some(qualifier.to_ascii_lowercase()),
                            name: f.name.clone(),
                            id: f.id,
                        })
                        .collect(),
                };
                Ok((builder.build(), scope))
            }
            TableRef::Subquery { query, alias } => {
                let (plan, scope) = self.plan_query(query)?;
                Ok((plan, scope.requalified(alias)))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.plan_table_ref(left)?;
                let (rp, rs) = self.plan_table_ref(right)?;
                let mut combined = ls;
                combined.items.extend(rs.items);
                let (join_type, condition) = match (kind, on) {
                    (JoinKind::Cross, _) | (_, None) => {
                        (JoinType::Cross, fusion_expr::Expr::boolean(true))
                    }
                    (JoinKind::Inner, Some(e)) => {
                        (JoinType::Inner, expr::plan_scalar(e, &combined)?)
                    }
                    (JoinKind::Left, Some(e)) => {
                        (JoinType::Left, expr::plan_scalar(e, &combined)?)
                    }
                };
                let plan = LogicalPlan::Join(Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    join_type,
                    condition,
                });
                Ok((plan, combined))
            }
        }
    }

    fn lookup_cte(&self, name: &str) -> Option<Query> {
        let key = name.to_ascii_lowercase();
        for scope in self.cte_stack.iter().rev() {
            if let Some(q) = scope.get(&key) {
                return Some(q.clone());
            }
        }
        None
    }
}

fn collect_union_branches<'a>(body: &'a SetExpr, out: &mut Vec<&'a SetExpr>) {
    match body {
        SetExpr::UnionAll(l, r) => {
            collect_union_branches(l, out);
            collect_union_branches(r, out);
        }
        leaf => out.push(leaf),
    }
}
