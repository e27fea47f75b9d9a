//! Compilation of logical plans into streaming operator trees.

use std::sync::Arc;

use fusion_common::{ColumnId, Field, FusionError, Result, Schema};
use fusion_expr::Expr;
use fusion_plan::plan::{Join, ProjExpr, Scan};
use fusion_plan::{JoinType, LogicalPlan};

use crate::context::ExecContext;
use crate::metrics::ExecMetrics;
use crate::ops::agg::{AggInput, AggSpec, HashAggregateExec, WindowExec};
use crate::ops::basic::{
    ConstantTableExec, EnforceSingleRowExec, FilterExec, LimitExec, ProjectExec, UnionAllExec,
};
use crate::ops::distinct::MarkDistinctExec;
use crate::ops::join::{split_join_condition, HashJoinExec, JoinSpec, NestedLoopJoinExec};
use crate::ops::scan::{JoinKeyFilter, ScanExec, ScanFragment};
use crate::ops::sort::SortExec;
use crate::ops::{drain, BoxedOp};
use crate::profile::{OpSpan, ProfileNode, QueryProfile, SpannedOp};
use crate::table::Catalog;
use crate::Row;

/// The result of running a query: output schema and materialized rows.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl QueryOutput {
    /// Rows sorted by total value order — canonical form for comparing
    /// result multisets across plans.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

/// Compile a logical plan into an operator tree with an unbounded
/// [`ExecContext`] (no deadline, budget, or fault injection).
pub fn compile(
    plan: &LogicalPlan,
    catalog: &Catalog,
    metrics: &Arc<ExecMetrics>,
) -> Result<BoxedOp> {
    compile_ctx(plan, catalog, &ExecContext::new(metrics.clone()))
}

/// Compile a logical plan into an operator tree under an explicit
/// execution context; every operator in the tree shares it.
pub fn compile_ctx(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
) -> Result<BoxedOp> {
    Ok(compile_profiled(plan, catalog, ctx)?.0)
}

/// Compile a logical plan into an instrumented operator tree plus the
/// live [`ProfileNode`] tree that mirrors it.
///
/// Every operator gets a stable `op_id` — its pre-order index over the
/// logical plan, matching the line order of `plan::display` — and a
/// shared [`OpSpan`] metering rows, batches, wall/CPU time, and peak
/// state. Capture the profile with [`QueryProfile::capture`] only after
/// the operator tree has been dropped (workers joined).
pub fn compile_profiled(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
) -> Result<(BoxedOp, ProfileNode)> {
    let mut c = Compiler {
        catalog,
        ctx,
        next: 0,
        join_filters: Vec::new(),
    };
    compile_node(&mut c, plan)
}

/// Attach the span to the operator (for state/CPU accounting it does
/// itself) and wrap it so rows out, batches, and inclusive wall time are
/// metered on every `next_chunk`.
pub(crate) fn spanned(mut op: BoxedOp, span: &Arc<OpSpan>) -> BoxedOp {
    op.attach_span(span.clone());
    Box::new(SpannedOp::new(op, span.clone()))
}

fn profile_node(
    op_id: usize,
    plan: &LogicalPlan,
    span: Arc<OpSpan>,
    inlined: bool,
    children: Vec<ProfileNode>,
) -> ProfileNode {
    ProfileNode {
        op_id,
        label: plan.node_label(),
        span,
        inlined,
        children,
    }
}

pub(crate) fn compile_node(c: &mut Compiler, plan: &LogicalPlan) -> Result<(BoxedOp, ProfileNode)> {
    // Pipelineable chains compile to a single push-based operator; the
    // compiler claims the same pre-order ids either way.
    if let Some(compiled) = crate::pipeline::try_compile(c, plan)? {
        return Ok(compiled);
    }
    // Pre-order id: the node claims its id before its children compile,
    // in `children()` order — the same walk `display_annotated` uses.
    let (op_id, span) = c.claim();
    let ctx = c.ctx;
    let schema = plan.schema();
    let (op, children): (BoxedOp, Vec<ProfileNode>) = match plan {
        LogicalPlan::Scan(s) => {
            let (fragment, workers) = c.scan_fragment(s, span.clone())?;
            let op = Box::new(ScanExec::from_fragment(fragment, workers));
            (op, vec![])
        }
        LogicalPlan::Filter(f) => {
            let (input, child) = compile_node(c, &f.input)?;
            let op = Box::new(FilterExec::new(input, f.predicate.clone(), ctx.clone()));
            (op, vec![child])
        }
        LogicalPlan::Project(p) => {
            let (input, child) = compile_node(c, &p.input)?;
            let exprs = p.exprs.iter().map(|pe| pe.expr.clone()).collect();
            let op = Box::new(ProjectExec::new(input, exprs, schema, ctx.clone()));
            (op, vec![child])
        }
        LogicalPlan::Join(j) => {
            let spec = join_spec(j).map(|mut spec| {
                c.feed_scans(j, &mut spec);
                spec
            });
            let (left, left_node) = compile_node(c, &j.left)?;
            let (right, right_node) = compile_node(c, &j.right)?;
            let op: BoxedOp = match (j.join_type, spec) {
                (JoinType::Cross, _) => Box::new(NestedLoopJoinExec::new(
                    left,
                    right,
                    JoinType::Cross,
                    Expr::boolean(true),
                    schema,
                    ctx.clone(),
                )),
                (_, Some(spec)) => {
                    Box::new(HashJoinExec::new(left, right, spec, schema, ctx.clone()))
                }
                (jt, None) => Box::new(NestedLoopJoinExec::new(
                    left,
                    right,
                    jt,
                    j.condition.clone(),
                    schema,
                    ctx.clone(),
                )),
            };
            (op, vec![left_node, right_node])
        }
        LogicalPlan::Aggregate(a) => {
            // Directly over a scan the aggregate owns the fragment and
            // folds per partition at every worker count, so its rows do
            // not depend on the worker count (the scan is inlined — no
            // wrapping operator, its profile node reads the
            // fragment-side counters).
            let (input, child) = if let LogicalPlan::Scan(s) = &*a.input {
                let (scan_id, scan_span) = c.claim();
                let (fragment, workers) = c.scan_fragment(s, scan_span.clone())?;
                (
                    AggInput::Partitions(fragment, workers),
                    profile_node(scan_id, &a.input, scan_span, true, vec![]),
                )
            } else {
                let (input, child) = compile_node(c, &a.input)?;
                (AggInput::Rows(input), child)
            };
            let spec = AggSpec::for_plan(a, input.schema())?;
            let op = Box::new(HashAggregateExec::with_spec(
                input,
                spec,
                schema,
                ctx.clone(),
            ));
            (op, vec![child])
        }
        LogicalPlan::Window(w) => {
            let (input, child) = compile_node(c, &w.input)?;
            let exprs = w.exprs.iter().map(|x| x.window.clone()).collect();
            let op = Box::new(WindowExec::new(input, exprs, schema, ctx.clone()));
            (op, vec![child])
        }
        LogicalPlan::MarkDistinct(m) => {
            let (input, child) = compile_node(c, &m.input)?;
            let op = Box::new(MarkDistinctExec::new(
                input,
                &m.columns,
                m.mask.clone(),
                schema,
                ctx.clone(),
            )?);
            (op, vec![child])
        }
        LogicalPlan::UnionAll(u) => {
            let mut inputs = Vec::with_capacity(u.inputs.len());
            let mut children = Vec::with_capacity(u.inputs.len());
            for i in &u.inputs {
                let (op, node) = compile_node(c, i)?;
                inputs.push(op);
                children.push(node);
            }
            let op = Box::new(UnionAllExec::new(inputs, schema, ctx.clone()));
            (op, children)
        }
        LogicalPlan::ConstantTable(c) => {
            let op = Box::new(ConstantTableExec::view(
                Arc::clone(c.rows()),
                c.columns().to_vec(),
                schema,
            ));
            (op, vec![])
        }
        LogicalPlan::EnforceSingleRow(e) => {
            let (input, child) = compile_node(c, &e.input)?;
            let op = Box::new(EnforceSingleRowExec::new(input, ctx.clone()));
            (op, vec![child])
        }
        LogicalPlan::Sort(s) => {
            let (input, child) = compile_node(c, &s.input)?;
            let op = Box::new(SortExec::new(input, s.keys.clone(), ctx.clone()));
            (op, vec![child])
        }
        LogicalPlan::Limit(l) => {
            let (input, child) = compile_node(c, &l.input)?;
            let op = Box::new(LimitExec::new(input, l.fetch, ctx.clone()));
            (op, vec![child])
        }
    };
    Ok((spanned(op, &span), profile_node(op_id, plan, span, false, children)))
}

/// The equi hash join `j` runs as, or `None` for a cross join and for a
/// condition without an equi key (a nested-loop join).
pub(crate) fn join_spec(j: &Join) -> Option<JoinSpec> {
    if j.join_type == JoinType::Cross {
        return None;
    }
    let (left, right) = (j.left.schema(), j.right.schema());
    let (keys, residual) = split_join_condition(&j.condition, &left, &right);
    (!keys.is_empty()).then(|| JoinSpec::new(j.join_type, keys, residual, &left, &right))
}

/// One compilation: the pre-order id counter, and the join key filters
/// registered for scans not compiled yet.
pub(crate) struct Compiler<'a> {
    catalog: &'a Catalog,
    pub(crate) ctx: &'a Arc<ExecContext>,
    next: usize,
    /// Probe-side scan nodes (by address in the plan being compiled) and
    /// the filters the joins above them feed.
    join_filters: Vec<(*const Scan, Arc<JoinKeyFilter>)>,
}

impl Compiler<'_> {
    /// Claim the next pre-order id, with a fresh span.
    pub(crate) fn claim(&mut self) -> (usize, Arc<OpSpan>) {
        let id = self.next;
        self.next += 1;
        (id, Arc::new(OpSpan::default()))
    }

    /// Dynamic partition pruning, set up at compile time: each key of an
    /// inner or semi join whose probe side is a bare column that reads a
    /// partitioned scan's partition column gets a filter, which the join
    /// publishes its build values to and those scans prune by. A left
    /// join keeps every probe row, so it never prunes.
    pub(crate) fn feed_scans(&mut self, j: &Join, spec: &mut JoinSpec) {
        if !matches!(spec.join_type, JoinType::Inner | JoinType::Semi) {
            return;
        }
        for k in 0..spec.keys.len() {
            let Expr::Column(id) = spec.keys[k].0 else {
                continue;
            };
            let mut scans = Vec::new();
            self.partition_scans(&j.left, id, &mut scans);
            if scans.is_empty() {
                continue;
            }
            let filter = Arc::new(JoinKeyFilter::default());
            spec.filters.push((k, filter.clone()));
            for s in scans {
                self.join_filters.push((s as *const Scan, filter.clone()));
            }
        }
    }

    /// The scans under `plan` whose partition column its output column
    /// `id` carries row for row: through filters, pass-through
    /// projections, distinct marks keyed on it (a row a join drops then
    /// shares its mark key only with rows the join drops too), the probe
    /// side of inner and semi joins, and every branch of a union, by
    /// position.
    fn partition_scans<'p>(&self, plan: &'p LogicalPlan, id: ColumnId, out: &mut Vec<&'p Scan>) {
        match plan {
            LogicalPlan::Scan(s) => {
                let ordinal = s
                    .fields
                    .iter()
                    .position(|f| f.id == id)
                    .and_then(|pos| s.column_indices.get(pos).copied());
                let table = self.catalog.get(&s.table).ok();
                if ordinal.is_some() && ordinal == table.and_then(|t| t.partition_column) {
                    out.push(s);
                }
            }
            LogicalPlan::Filter(f) => self.partition_scans(&f.input, id, out),
            LogicalPlan::Project(p) => {
                if let Some(ProjExpr {
                    expr: Expr::Column(source),
                    ..
                }) = p.exprs.iter().find(|pe| pe.id == id)
                {
                    self.partition_scans(&p.input, *source, out);
                }
            }
            LogicalPlan::MarkDistinct(md) if md.columns.contains(&id) => {
                self.partition_scans(&md.input, id, out)
            }
            LogicalPlan::Join(j) if matches!(j.join_type, JoinType::Inner | JoinType::Semi) => {
                self.partition_scans(&j.left, id, out)
            }
            LogicalPlan::UnionAll(u) => {
                let Some(pos) = u.fields.iter().position(|f| f.id == id) else {
                    return;
                };
                for input in &u.inputs {
                    if let Some(field) = input.schema().fields().get(pos) {
                        self.partition_scans(input, field.id, out);
                    }
                }
            }
            _ => {}
        }
    }

    /// Validate a scan node against the catalog and build its
    /// [`ScanFragment`] — pruned by the join key filters registered for
    /// it — returning the fragment together with the worker count the
    /// context grants for its partition count (1 = sequential).
    ///
    /// Validation checks the plan's binding for real: arity (every field
    /// needs an ordinal — `zip` would silently truncate a mismatch),
    /// ordinal range, and that each bound column's data type matches the
    /// base table's. Field *names* may legitimately diverge after
    /// rewrites, so they are not checked.
    pub(crate) fn scan_fragment(
        &mut self,
        s: &Scan,
        span: Arc<OpSpan>,
    ) -> Result<(Arc<ScanFragment>, usize)> {
        let table = self.catalog.get(&s.table)?;
        validate_scan_binding(&s.table, &s.fields, &s.column_indices, &table.columns)?;
        let workers = self.ctx.workers_for(table.partitions.len());
        let mut fragment = ScanFragment::new(
            table,
            s.column_indices.clone(),
            Schema::new(s.fields.clone()),
            s.filters.clone(),
            self.ctx.clone(),
        );
        fragment.set_span(span);
        fragment.join_filters = self
            .join_filters
            .iter()
            .filter(|(scan, _)| std::ptr::eq(*scan, s))
            .map(|(_, filter)| filter.clone())
            .collect();
        Ok((Arc::new(fragment), workers))
    }
}

fn validate_scan_binding(
    table_name: &str,
    fields: &[Field],
    column_indices: &[usize],
    columns: &[crate::table::TableColumn],
) -> Result<()> {
    if fields.len() != column_indices.len() {
        return Err(FusionError::Plan(format!(
            "scan of {table_name}: {} fields bound to {} column ordinals",
            fields.len(),
            column_indices.len()
        )));
    }
    for (field, &ord) in fields.iter().zip(column_indices) {
        if ord >= columns.len() {
            return Err(FusionError::Plan(format!(
                "scan of {table_name}: column ordinal {ord} out of range"
            )));
        }
        let base = &columns[ord];
        if base.data_type != field.data_type {
            return Err(FusionError::Plan(format!(
                "scan of {table_name}: column {} (ordinal {ord}) has type {:?} \
                 but the plan binds it as {:?}",
                base.name, base.data_type, field.data_type
            )));
        }
    }
    Ok(())
}

/// Drain an operator tree into materialized rows.
pub fn collect(mut op: BoxedOp) -> Result<QueryOutput> {
    let schema = op.schema().clone();
    let rows = drain(op.as_mut())?;
    Ok(QueryOutput { schema, rows })
}

/// Compile and run a logical plan end to end with an unbounded context.
pub fn execute_plan(
    plan: &LogicalPlan,
    catalog: &Catalog,
    metrics: &Arc<ExecMetrics>,
) -> Result<QueryOutput> {
    execute_plan_ctx(plan, catalog, &ExecContext::new(metrics.clone()))
}

/// Compile and run a logical plan end to end under an explicit context
/// (deadline, cancellation, enforced budget, fault injection).
pub fn execute_plan_ctx(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
) -> Result<QueryOutput> {
    execute_plan_profiled(plan, catalog, ctx).map(|(out, _)| out)
}

/// Compile and run a logical plan, returning its rows together with the
/// per-operator [`QueryProfile`].
///
/// The profile is captured strictly after [`collect`] returns: `collect`
/// consumes the operator tree, and dropping it joins every morsel
/// worker, so the relaxed span counters are mutually consistent by the
/// time they are read (see `profile` module docs).
pub fn execute_plan_profiled(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
) -> Result<(QueryOutput, QueryProfile)> {
    let (op, node) = compile_profiled(plan, catalog, ctx)?;
    let out = collect(op)?;
    ctx.metrics().add_rows_produced(out.rows.len() as u64);
    Ok((out, QueryProfile::capture(&node)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::table::{TableBuilder, TableColumn};
    use fusion_common::{DataType, IdGen, Value};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "sales",
            vec![
                TableColumn {
                    name: "store".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "amount".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
            ],
        );
        for (s, a) in [(1i64, 10i64), (1, 20), (2, 5), (2, 15), (3, 7)] {
            b.add_row(vec![Value::Int64(s), Value::Int64(a)]).unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    fn sales_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("store", DataType::Int64, false),
            ColumnDef::new("amount", DataType::Int64, true),
        ]
    }

    #[test]
    fn end_to_end_filter_aggregate() {
        let catalog = catalog();
        let gen = IdGen::new();
        let b = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let store = b.col("store").unwrap();
        let amount = b.col("amount").unwrap();
        let plan = b
            .filter(col(amount).gt(lit(6i64)))
            .aggregate(
                vec![store],
                vec![("total", AggregateExpr::sum(col(amount)))],
            )
            .build();
        plan.validate().unwrap();
        let out = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(
            out.sorted_rows(),
            vec![
                vec![Value::Int64(1), Value::Int64(30)],
                vec![Value::Int64(2), Value::Int64(15)],
                vec![Value::Int64(3), Value::Int64(7)],
            ]
        );
    }

    #[test]
    fn self_join_reads_table_twice() {
        let catalog = catalog();
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let b = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let ka = a.col("store").unwrap();
        let kb = b.col("store").unwrap();
        let plan = a
            .join(
                b.build(),
                fusion_plan::JoinType::Inner,
                col(ka).eq_to(col(kb)),
            )
            .build();
        let m = ExecMetrics::new();
        let out = execute_plan(&plan, &catalog, &m).unwrap();
        // (2 rows store1)^2 + (2 rows store2)^2 + 1 = 4+4+1
        assert_eq!(out.rows.len(), 9);
        // Streaming engine: the table's bytes are scanned twice.
        assert_eq!(m.snapshot().rows_scanned, 10);
    }

    #[test]
    fn union_all_runs_positionally() {
        let catalog = catalog();
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let b = PlanBuilder::scan(&gen, "sales", &sales_cols()).build();
        let plan = a.union_all(vec![b]).unwrap().build();
        let out = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();
        assert_eq!(out.rows.len(), 10);
    }
}
