//! Column pruning.
//!
//! A whole-plan top-down pass: each node receives the set of columns its
//! parent requires and rebuilds itself reading only what is needed. At
//! the leaves this narrows table scans, which — together with partition
//! pruning — is what the bytes-scanned meter (the paper's billing metric)
//! observes. Fused plans benefit automatically: a fused scan whose extra
//! columns turn out unused gets re-narrowed here.

use std::collections::HashSet;

use fusion_common::ColumnId;
use fusion_plan::{
    Aggregate, EnforceSingleRow, Filter, Join, Limit, LogicalPlan,
    MarkDistinct, Project, Scan, Sort, UnionAll, Window,
};

/// Prune the whole plan to its own output columns.
pub fn prune_columns(plan: &LogicalPlan) -> LogicalPlan {
    let required: HashSet<ColumnId> = plan.schema().ids().into_iter().collect();
    prune(plan, &required)
}

fn prune(plan: &LogicalPlan, required: &HashSet<ColumnId>) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan(s) => {
            let mut needed: HashSet<ColumnId> = required.clone();
            for f in &s.filters {
                needed.extend(f.columns());
            }
            let mut fields = Vec::new();
            let mut indices = Vec::new();
            for (f, &ord) in s.fields.iter().zip(&s.column_indices) {
                if needed.contains(&f.id) {
                    fields.push(f.clone());
                    indices.push(ord);
                }
            }
            if fields.is_empty() {
                // Row counts must be preserved: keep the narrowest column.
                let pick = s
                    .fields
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, f)| f.data_type.fixed_width().unwrap_or(16))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                fields.push(s.fields[pick].clone());
                indices.push(s.column_indices[pick]);
            }
            LogicalPlan::Scan(Scan {
                table: s.table.clone(),
                fields,
                column_indices: indices,
                filters: s.filters.clone(),
            })
        }
        LogicalPlan::Filter(f) => {
            let mut child_req = required.clone();
            child_req.extend(f.predicate.columns());
            LogicalPlan::Filter(Filter {
                input: Box::new(prune(&f.input, &child_req)),
                predicate: f.predicate.clone(),
            })
        }
        LogicalPlan::Project(p) => {
            let mut kept: Vec<_> = p
                .exprs
                .iter()
                .filter(|pe| required.contains(&pe.id))
                .cloned()
                .collect();
            if kept.is_empty() {
                // Preserve cardinality with the cheapest expression.
                let pick = p
                    .exprs
                    .iter()
                    .find(|pe| matches!(pe.expr, fusion_expr::Expr::Column(_)))
                    .or_else(|| p.exprs.first())
                    .cloned();
                if let Some(pe) = pick {
                    kept.push(pe);
                }
            }
            let mut child_req = HashSet::new();
            for pe in &kept {
                child_req.extend(pe.expr.columns());
            }
            LogicalPlan::Project(Project {
                input: Box::new(prune(&p.input, &child_req)),
                exprs: kept,
            })
        }
        LogicalPlan::Join(j) => {
            let left_schema = j.left.schema();
            let right_schema = j.right.schema();
            let cond_cols = j.condition.columns();
            let mut left_req: HashSet<ColumnId> = required
                .iter()
                .chain(cond_cols.iter())
                .copied()
                .filter(|id| left_schema.contains(*id))
                .collect();
            let mut right_req: HashSet<ColumnId> = required
                .iter()
                .chain(cond_cols.iter())
                .copied()
                .filter(|id| right_schema.contains(*id))
                .collect();
            if left_req.is_empty() {
                if let Some(f) = left_schema.fields().first() {
                    left_req.insert(f.id);
                }
            }
            if right_req.is_empty() {
                if let Some(f) = right_schema.fields().first() {
                    right_req.insert(f.id);
                }
            }
            LogicalPlan::Join(Join {
                left: Box::new(prune(&j.left, &left_req)),
                right: Box::new(prune(&j.right, &right_req)),
                join_type: j.join_type,
                condition: j.condition.clone(),
            })
        }
        LogicalPlan::Aggregate(a) => {
            let mut kept: Vec<_> = a
                .aggregates
                .iter()
                .filter(|assign| required.contains(&assign.id))
                .cloned()
                .collect();
            if kept.is_empty() && a.group_by.is_empty() && !a.aggregates.is_empty() {
                // A scalar aggregate must keep one output to stay well
                // formed.
                kept.push(a.aggregates[0].clone());
            }
            let mut child_req: HashSet<ColumnId> = a.group_by.iter().copied().collect();
            for assign in &kept {
                child_req.extend(assign.agg.columns());
            }
            LogicalPlan::Aggregate(Aggregate {
                input: Box::new(prune(&a.input, &child_req)),
                group_by: a.group_by.clone(),
                aggregates: kept,
            })
        }
        LogicalPlan::Window(w) => {
            let kept: Vec<_> = w
                .exprs
                .iter()
                .filter(|assign| required.contains(&assign.id))
                .cloned()
                .collect();
            let input_schema = w.input.schema();
            let mut child_req: HashSet<ColumnId> = required
                .iter()
                .copied()
                .filter(|id| input_schema.contains(*id))
                .collect();
            for assign in &kept {
                child_req.extend(assign.window.columns());
            }
            if kept.is_empty() {
                // The window only appends columns; drop it entirely.
                return prune_nonempty(&w.input, child_req);
            }
            LogicalPlan::Window(Window {
                input: Box::new(prune_keep_nonempty(&w.input, child_req)),
                exprs: kept,
            })
        }
        LogicalPlan::MarkDistinct(m) => {
            if !required.contains(&m.mark_id) {
                // The mark is unused and MarkDistinct preserves
                // cardinality: drop the operator.
                let input_schema = m.input.schema();
                let child_req: HashSet<ColumnId> = required
                    .iter()
                    .copied()
                    .filter(|id| input_schema.contains(*id))
                    .collect();
                return prune_nonempty(&m.input, child_req);
            }
            let mut child_req: HashSet<ColumnId> = required
                .iter()
                .copied()
                .filter(|id| *id != m.mark_id)
                .collect();
            child_req.extend(m.columns.iter().copied());
            child_req.extend(m.mask.columns());
            LogicalPlan::MarkDistinct(MarkDistinct {
                input: Box::new(prune_keep_nonempty(&m.input, child_req)),
                columns: m.columns.clone(),
                mark_id: m.mark_id,
                mark_name: m.mark_name.clone(),
                mask: m.mask.clone(),
            })
        }
        LogicalPlan::UnionAll(u) => {
            let mut positions: Vec<usize> = u
                .fields
                .iter()
                .enumerate()
                .filter(|(_, f)| required.contains(&f.id))
                .map(|(i, _)| i)
                .collect();
            if positions.is_empty() {
                positions.push(0);
            }
            let fields: Vec<_> = positions.iter().map(|&i| u.fields[i].clone()).collect();
            let inputs = u
                .inputs
                .iter()
                .map(|input| {
                    let schema = input.schema();
                    let kept_ids: Vec<ColumnId> =
                        positions.iter().map(|&i| schema.field(i).id).collect();
                    let child =
                        prune(input, &kept_ids.iter().copied().collect::<HashSet<_>>());
                    // Positional alignment: project exactly the kept
                    // columns in order.
                    let child_schema = child.schema();
                    let aligned = child_schema.ids() == kept_ids;
                    if aligned {
                        child
                    } else {
                        let exprs = kept_ids
                            .iter()
                            .map(|id| {
                                let f = child_schema
                                    .field_by_id(*id)
                                    .or_else(|| schema.field_by_id(*id))
                                    .expect("pruned union branch column");
                                fusion_plan::ProjExpr::passthrough(f)
                            })
                            .collect();
                        LogicalPlan::Project(Project {
                            input: Box::new(child),
                            exprs,
                        })
                    }
                })
                .collect();
            LogicalPlan::UnionAll(UnionAll { inputs, fields })
        }
        LogicalPlan::ConstantTable(c) => {
            let mut positions: Vec<usize> = c
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| required.contains(&f.id))
                .map(|(i, _)| i)
                .collect();
            if positions.is_empty() && !c.fields().is_empty() {
                positions.push(0);
            }
            LogicalPlan::ConstantTable(c.project(&positions))
        }
        LogicalPlan::EnforceSingleRow(e) => {
            let input_schema = e.input.schema();
            let child_req: HashSet<ColumnId> = required
                .iter()
                .copied()
                .filter(|id| input_schema.contains(*id))
                .collect();
            LogicalPlan::EnforceSingleRow(EnforceSingleRow {
                input: Box::new(prune_keep_nonempty(&e.input, child_req)),
            })
        }
        LogicalPlan::Sort(s) => {
            let mut child_req = required.clone();
            for k in &s.keys {
                child_req.extend(k.expr.columns());
            }
            LogicalPlan::Sort(Sort {
                input: Box::new(prune(&s.input, &child_req)),
                keys: s.keys.clone(),
            })
        }
        LogicalPlan::Limit(l) => LogicalPlan::Limit(Limit {
            input: Box::new(prune(&l.input, required)),
            fetch: l.fetch,
        }),
    }
}

/// Prune with a possibly-empty requirement set (leaf guards keep one
/// column to preserve row counts).
fn prune_nonempty(plan: &LogicalPlan, required: HashSet<ColumnId>) -> LogicalPlan {
    prune(plan, &required)
}

fn prune_keep_nonempty(plan: &LogicalPlan, required: HashSet<ColumnId>) -> LogicalPlan {
    prune(plan, &required)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn wide_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("k", DataType::Int64, false),
            ColumnDef::new("v", DataType::Int64, true),
            ColumnDef::new("s", DataType::Utf8, true),
            ColumnDef::new("w", DataType::Float64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            vec![
                TableColumn {
                    name: "k".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "v".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "s".into(),
                    data_type: DataType::Utf8,
                    nullable: true,
                },
                TableColumn {
                    name: "w".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        for i in 0..10i64 {
            b.add_row(vec![
                Value::Int64(i),
                Value::Int64(i * 2),
                Value::Utf8(format!("a-very-long-string-{i}")),
                Value::Float64(i as f64),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    #[test]
    fn pruned_scan_reads_fewer_bytes_same_result() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "t", &wide_cols());
        let (k, v) = (t.col("k").unwrap(), t.col("v").unwrap());
        let plan = t
            .filter(col(k).gt(lit(2i64)))
            .project(vec![("double_v", col(v).mul(lit(2i64)))])
            .build();

        let pruned = prune_columns(&plan);
        pruned.validate().unwrap();

        let catalog = catalog();
        let m1 = ExecMetrics::new();
        let base = execute_plan(&plan, &catalog, &m1).unwrap();
        let m2 = ExecMetrics::new();
        let opt = execute_plan(&pruned, &catalog, &m2).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert!(
            m2.bytes_scanned() < m1.bytes_scanned(),
            "pruned {} vs base {}",
            m2.bytes_scanned(),
            m1.bytes_scanned()
        );
    }

    #[test]
    fn count_star_keeps_narrowest_column() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "t", &wide_cols());
        let plan = t
            .aggregate(vec![], vec![("n", AggregateExpr::count_star())])
            .build();
        let pruned = prune_columns(&plan);
        pruned.validate().unwrap();
        let mut width = usize::MAX;
        pruned.visit(&mut |p| {
            if let LogicalPlan::Scan(s) = p {
                assert_eq!(s.fields.len(), 1);
                width = s.fields[0].data_type.fixed_width().unwrap_or(16);
            }
        });
        assert!(width <= 8);

        let catalog = catalog();
        let out = execute_plan(&pruned, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(10)]]);
    }

    #[test]
    fn unused_aggregates_dropped_but_groups_kept() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "t", &wide_cols());
        let (k, v, w) = (
            t.col("k").unwrap(),
            t.col("v").unwrap(),
            t.col("w").unwrap(),
        );
        let agg = t.aggregate(
            vec![k],
            vec![
                ("sv", AggregateExpr::sum(col(v))),
                ("sw", AggregateExpr::sum(col(w))),
            ],
        );
        let sv = agg.col("sv").unwrap();
        let plan = agg.project(vec![("out", col(sv))]).build();
        let pruned = prune_columns(&plan);
        pruned.validate().unwrap();
        pruned.visit(&mut |p| {
            if let LogicalPlan::Aggregate(a) = p {
                assert_eq!(a.aggregates.len(), 1);
                assert_eq!(a.group_by.len(), 1);
            }
        });
    }

    #[test]
    fn union_branches_prune_positionally() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "t", &wide_cols());
        let b = PlanBuilder::scan(&gen, "t", &wide_cols()).build();
        let u = a.union_all(vec![b]).unwrap();
        let k_out = u.schema().field(0).id;
        let plan = u.project(vec![("kk", col(k_out))]).build();

        let pruned = prune_columns(&plan);
        pruned.validate().unwrap();
        pruned.visit(&mut |p| {
            if let LogicalPlan::Scan(s) = p {
                assert_eq!(s.fields.len(), 1);
            }
            if let LogicalPlan::UnionAll(u) = p {
                assert_eq!(u.fields.len(), 1);
            }
        });

        let catalog = catalog();
        let base = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        let opt = execute_plan(&pruned, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
    }

    #[test]
    fn unused_mark_distinct_dropped() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "t", &wide_cols());
        let (k, v) = (t.col("k").unwrap(), t.col("v").unwrap());
        let md = t.mark_distinct(vec![v], "d");
        let plan = md.project(vec![("kk", col(k))]).build();
        let pruned = prune_columns(&plan);
        pruned.validate().unwrap();
        assert!(!pruned.any(&|p| matches!(p, LogicalPlan::MarkDistinct(_))));
    }
}
