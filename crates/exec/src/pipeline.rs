//! Push-based fused pipelines.
//!
//! [`try_compile`] detects maximal `Scan → Filter* / Project* /
//! MarkDistinct* (→ Aggregate)` chains in the logical plan and compiles
//! each into a single [`FusedPipeline`] operator. Instead of pulling
//! materialized row batches through one operator per plan node, the
//! pipeline *pushes* each scanned partition's columnar arrays (a
//! [`ColumnarMorsel`]) through the whole chain: filters narrow the
//! selection vector in place, projections re-share or compute columns,
//! distinct markers append their flag column, and an optional aggregate
//! consumes the surviving positions directly — no intermediate
//! `Vec<Row>` is built between chain operators (metered by
//! `batches_elided`).
//!
//! Pipeline *breakers* stay exactly where the batch engine has them: hash
//! join builds, the aggregate merge, sort, and the gather exchange. A
//! chain therefore never spans a breaker — detection stops at any node
//! that is not a Filter, Project, MarkDistinct, or the terminal
//! Aggregate/Scan.
//!
//! Determinism contract (`FUSION_PIPELINES=0/1` must be bit-identical):
//!
//! * Expression evaluation uses the [`ColumnBatch`] kernels, which
//!   reproduce the scalar evaluator's three-valued logic, short-circuit
//!   row subsets, and error sites (see `fusion_expr::vector`).
//! * The aggregate folds into the same `GroupTable` as the pull
//!   operator and picks its fold shape by the same rule: one table per
//!   partition, merged in partition-index order with deferred DISTINCT,
//!   *only* when the aggregate sits directly over the scan with multiple
//!   workers; any interior stage means a single table accumulated on the
//!   driver in partition order with inline DISTINCT (where the pull
//!   operators would aggregate above a gather). Float sums therefore
//!   fold in the same order as the pull path at every thread count.
//! * `MarkDistinct` is stateful — its first-occurrence set spans the
//!   whole input. The chain splits at the first such stage: everything
//!   below it still scans morsel-parallel, the stateful suffix (and the
//!   aggregate) runs on the driver in partition-index order — the exact
//!   row order the batch path's gather would feed `MarkDistinctExec`.
//! * Profile `op_id`s are claimed in the same pre-order walk as
//!   `compile_node`, and every chain node's span reports the same row
//!   counts the batch operators would — golden profiles do not change.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use fusion_common::{ColumnId, Result, Schema, Value};
use fusion_expr::{ColumnBatch, Expr};
use fusion_plan::LogicalPlan;

use crate::context::{BudgetedReservation, ExecContext};
use crate::ops::agg::{fold_partitions, AggSpec, GroupTable};
use crate::ops::exchange::collect_morsels;
use crate::ops::scan::{ColumnarMorsel, ScanFragment};
use crate::ops::{row_bytes, BoxedOp, Operator, RowDrain};
use crate::physical::{scan_fragment, spanned};
use crate::profile::{OpSpan, ProfileNode};
use crate::table::Catalog;
use crate::{Chunk, Row, CHUNK_SIZE};

/// One fused chain operator between the scan and the optional aggregate.
struct Stage {
    kind: StageKind,
    /// Field ids of the stage's input schema, parallel to the incoming
    /// column vector; registered into the per-morsel [`ColumnBatch`].
    input_ids: Vec<ColumnId>,
    /// The plan node's profiling span. Interior stages meter their own
    /// `rows_out` per morsel; the chain's top node is metered by the
    /// `SpannedOp` wrapping the whole pipeline.
    span: Arc<OpSpan>,
    meter: bool,
}

enum StageKind {
    Filter(Expr),
    Project(Vec<ProjectedCol>),
    /// Appends the first-occurrence flag column (`MarkDistinctExec`
    /// semantics). `slot` indexes the pipeline's [`MarkState`] table —
    /// the seen-set is shared across every morsel of the input.
    MarkDistinct {
        positions: Vec<usize>,
        mask: Option<Expr>,
        slot: usize,
    },
}

/// A projection output: either a pass-through of an input column (the
/// array is re-shared by `Arc`, never copied) or a computed expression.
enum ProjectedCol {
    Pass(usize),
    Eval(Expr),
}

/// Cross-morsel state of one `MarkDistinct` stage.
struct MarkState {
    seen: HashSet<Vec<Value>>,
    reservation: BudgetedReservation,
}

/// Apply one stage to a morsel in place. `mark_states` carries the
/// cross-morsel seen-sets of any `MarkDistinct` stages in the list (the
/// morsel-parallel prefix never contains one, so it passes an empty
/// slice).
fn apply_stage(
    stage: &Stage,
    mark_states: &mut [MarkState],
    m: &mut ColumnarMorsel,
    ctx: &ExecContext,
) -> Result<()> {
    let metrics = ctx.metrics();
    match &stage.kind {
        StageKind::Filter(pred) => {
            let mut batch = ColumnBatch::new();
            for (id, col) in stage.input_ids.iter().zip(&m.columns) {
                batch.push(*id, col.as_slice());
            }
            metrics.add_rows_evaluated_vectorized(m.selection.len() as u64);
            m.selection = batch.filter(pred, &m.selection)?;
        }
        StageKind::Project(cols) => {
            if cols.iter().all(|c| matches!(c, ProjectedCol::Pass(_))) {
                // Pure column shuffle: re-share the arrays, keep the
                // selection — zero copies.
                m.columns = cols
                    .iter()
                    .map(|c| match c {
                        ProjectedCol::Pass(p) => m.columns[*p].clone(),
                        ProjectedCol::Eval(_) => {
                            unreachable!("all-pass projection checked above")
                        }
                    })
                    .collect();
            } else {
                let mut batch = ColumnBatch::new();
                for (id, col) in stage.input_ids.iter().zip(&m.columns) {
                    batch.push(*id, col.as_slice());
                }
                let n = m.selection.len();
                let new_cols = cols
                    .iter()
                    .map(|c| -> Result<Arc<Vec<Value>>> {
                        Ok(Arc::new(match c {
                            ProjectedCol::Pass(p) => m
                                .selection
                                .iter()
                                .map(|&r| m.columns[*p][r].clone())
                                .collect(),
                            ProjectedCol::Eval(e) => {
                                metrics.add_rows_evaluated_vectorized(n as u64);
                                batch.eval(e, &m.selection)?
                            }
                        }))
                    })
                    .collect::<Result<Vec<_>>>()?;
                m.columns = new_cols;
                m.selection = (0..n).collect();
            }
        }
        StageKind::MarkDistinct {
            positions,
            mask,
            slot,
        } => {
            let state = &mut mark_states[*slot];
            let mask_vals: Option<Vec<bool>> = match mask {
                None => None,
                Some(e) => {
                    let mut batch = ColumnBatch::new();
                    for (id, col) in stage.input_ids.iter().zip(&m.columns) {
                        batch.push(*id, col.as_slice());
                    }
                    metrics.add_rows_evaluated_vectorized(m.selection.len() as u64);
                    let vs = batch.eval(e, &m.selection)?;
                    Some(vs.iter().map(|v| v.as_bool() == Some(true)).collect())
                }
            };
            // The flag column is full-length so it aligns with the
            // morsel's other arrays; unselected rows never materialize.
            let n = m.columns.first().map(|c| c.len()).unwrap_or(0);
            let mut marks = vec![Value::Boolean(false); n];
            for (j, &r) in m.selection.iter().enumerate() {
                if let Some(mv) = &mask_vals {
                    if !mv[j] {
                        continue; // masked out: stays FALSE, not tracked
                    }
                }
                let key: Vec<Value> = positions.iter().map(|&p| m.columns[p][r].clone()).collect();
                if state.seen.contains(&key) {
                    continue; // stays FALSE
                }
                state.reservation.try_grow(row_bytes(&key))?;
                state.seen.insert(key);
                marks[r] = Value::Boolean(true);
            }
            m.columns.push(Arc::new(marks));
        }
    }
    Ok(())
}

/// Push one morsel through a stage list, counting the row batches the
/// chain did *not* materialize at its internal operator boundaries.
fn run_stage_list(
    stages: &[Stage],
    mark_states: &mut [MarkState],
    m: &mut ColumnarMorsel,
    ctx: &ExecContext,
    span: &Option<Arc<OpSpan>>,
) -> Result<u64> {
    let start = Instant::now();
    let mut elided = 0u64;
    for stage in stages {
        elided += m.selection.len().div_ceil(CHUNK_SIZE) as u64;
        apply_stage(stage, mark_states, m, ctx)?;
        if stage.meter {
            stage.span.add_rows_out(m.selection.len() as u64);
        }
    }
    if let Some(span) = span {
        span.add_cpu_nanos(start.elapsed().as_nanos() as u64);
    }
    Ok(elided)
}

/// Scan partition `p` and push it through the stateless prefix of the
/// chain; `None` for a pruned partition. Safe on any worker: the prefix
/// never holds cross-morsel state.
fn scan_prefix(
    fragment: &ScanFragment,
    par_stages: &[Stage],
    ctx: &ExecContext,
    span: &Option<Arc<OpSpan>>,
    p: usize,
) -> Result<Option<(ColumnarMorsel, u64)>> {
    let Some(mut m) = fragment.scan_partition_columnar(p)? else {
        return Ok(None);
    };
    let elided = run_stage_list(par_stages, &mut [], &mut m, ctx, span)?;
    Ok(Some((m, elided)))
}

/// A compiled `Scan → Filter*/Project*/MarkDistinct* (→ Aggregate)`
/// chain, driven push-based over columnar morsels. Sequentially the
/// pipeline streams one partition at a time; with more workers (or an
/// aggregate sink) it materializes — morsel-parallel where the pull
/// operators are parallel, partition-ordered on the driver where they
/// are sequential — so output is bit-identical at every thread count.
pub struct FusedPipeline {
    fragment: Arc<ScanFragment>,
    workers: usize,
    /// Stages below the first stateful stage — run morsel-parallel.
    par_stages: Vec<Stage>,
    /// The first stateful (`MarkDistinct`) stage and everything above
    /// it — run on the driver in partition-index order.
    seq_stages: Vec<Stage>,
    mark_states: Vec<MarkState>,
    /// The aggregate terminating the chain, when present: surviving
    /// positions fold straight into a [`GroupTable`].
    agg: Option<AggSpec>,
    schema: Schema,
    ctx: Arc<ExecContext>,
    /// Sequential streaming state: the next partition to scan and the
    /// current partition's rows not yet emitted.
    next_partition: usize,
    pending: RowDrain,
    /// Materialized output (aggregate or parallel mode).
    output: Option<RowDrain>,
    span: Option<Arc<OpSpan>>,
}

impl FusedPipeline {
    fn compute_all(&mut self) -> Result<Vec<Row>> {
        let FusedPipeline {
            fragment,
            workers,
            par_stages,
            seq_stages,
            mark_states,
            agg,
            ctx,
            span,
            ..
        } = self;
        let (fragment, ctx, span, workers) = (&**fragment, &*ctx, &*span, *workers);
        let metrics = ctx.metrics();
        let partitions = fragment.num_partitions();
        let prefix = |p| scan_prefix(fragment, par_stages, ctx, span, p);

        if workers > 1 && seq_stages.is_empty() {
            match agg {
                // Aggregate directly over the scan: the per-partition
                // fold. Only this shape aggregates in parallel — any
                // interior stage puts the pull operators' aggregate above
                // a gather, so the pipeline folds on the driver too.
                Some(spec) if par_stages.is_empty() => {
                    return fold_partitions(
                        spec,
                        ctx,
                        span,
                        partitions,
                        workers,
                        |p| {
                            let m = fragment.scan_partition_columnar(p)?;
                            if let Some(m) = &m {
                                metrics.add_batches_elided(
                                    m.selection.len().div_ceil(CHUNK_SIZE) as u64,
                                );
                            }
                            Ok(m.filter(|m| !m.selection.is_empty()))
                        },
                        |table, m| table.accumulate_morsel(m),
                    );
                }
                // Stateless non-aggregate chain: rows gather inside the
                // workers and concatenate in partition-index order.
                None => {
                    let results = collect_morsels(ctx, partitions, workers, |p| {
                        let Some((m, elided)) = prefix(p)? else {
                            return Ok(None);
                        };
                        metrics.add_batches_elided(elided);
                        let rows = m.gather_rows();
                        Ok((!rows.is_empty()).then_some(rows))
                    })?;
                    return Ok(results.into_iter().flat_map(|(_, rows)| rows).collect());
                }
                Some(_) => {}
            }
        }

        // The driver fold: every morsel leaves the stateless prefix —
        // morsel-parallel with several workers, scanned one partition at
        // a time with one, so nothing but the current morsel is resident —
        // and then runs the stateful suffix and the sink on this thread in
        // partition-index order, the row order a gather would produce.
        let morsels: Box<dyn Iterator<Item = Result<(ColumnarMorsel, u64)>> + '_> = if workers > 1 {
            let scanned = collect_morsels(ctx, partitions, workers, prefix)?;
            Box::new(scanned.into_iter().map(|(_, m)| Ok(m)))
        } else {
            Box::new((0..partitions).filter_map(|p| prefix(p).transpose()))
        };
        let mut table = match agg {
            Some(spec) => Some(GroupTable::new(spec, ctx, span, true)?),
            None => None,
        };
        let mut rows = Vec::new();
        for morsel in morsels {
            let (mut m, mut elided) = morsel?;
            ctx.check()?;
            elided += run_stage_list(seq_stages, mark_states, &mut m, ctx, span)?;
            match &mut table {
                Some(table) => {
                    elided += m.selection.len().div_ceil(CHUNK_SIZE) as u64;
                    metrics.add_batches_elided(elided);
                    table.accumulate_morsel(&m)?;
                }
                None => {
                    metrics.add_batches_elided(elided);
                    rows.extend(m.gather_rows());
                }
            }
        }
        Ok(match table {
            Some(table) => table.finish(),
            None => rows,
        })
    }
}

impl Operator for FusedPipeline {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        self.ctx.check()?;
        if self.agg.is_some() || self.workers > 1 {
            if self.output.is_none() {
                self.output = Some(RowDrain::new(self.compute_all()?));
            }
            return Ok(self.output.as_mut().and_then(RowDrain::next_chunk));
        }
        // Sequential streaming: one partition at a time, emitted in
        // CHUNK_SIZE chunks like the pull scan. Stateful stages carry
        // their seen-sets across partitions, which arrive in order.
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            if self.next_partition >= self.fragment.num_partitions() {
                return Ok(None);
            }
            let p = self.next_partition;
            self.next_partition += 1;
            let FusedPipeline {
                fragment,
                par_stages,
                seq_stages,
                mark_states,
                ctx,
                span,
                ..
            } = &mut *self;
            if let Some((mut m, mut elided)) = scan_prefix(fragment, par_stages, ctx, span, p)? {
                elided += run_stage_list(seq_stages, mark_states, &mut m, ctx, span)?;
                ctx.metrics().add_batches_elided(elided);
                self.pending = RowDrain::new(m.gather_rows());
            }
        }
    }
}

/// Try to compile `plan` as a fused pipeline. Returns `Ok(None)` when the
/// plan does not start with a pipelineable chain (or pipelines are
/// disabled on the context) — the caller falls through to the
/// operator-at-a-time path. `next` is advanced exactly as the batch
/// compiler would advance it for the same nodes, so `op_id`s are stable
/// either way.
pub(crate) fn try_compile(
    plan: &LogicalPlan,
    catalog: &Catalog,
    ctx: &Arc<ExecContext>,
    next: &mut usize,
) -> Result<Option<(BoxedOp, ProfileNode)>> {
    if !ctx.pipelines() {
        return Ok(None);
    }
    let mut agg_plan: Option<&fusion_plan::plan::Aggregate> = None;
    let mut cursor: &LogicalPlan = plan;
    if let LogicalPlan::Aggregate(a) = cursor {
        agg_plan = Some(a);
        cursor = &a.input;
    }
    let mut stage_plans: Vec<&LogicalPlan> = Vec::new(); // top → bottom
    let scan = loop {
        match cursor {
            LogicalPlan::Filter(f) => {
                stage_plans.push(cursor);
                cursor = &f.input;
            }
            LogicalPlan::Project(p) => {
                stage_plans.push(cursor);
                cursor = &p.input;
            }
            LogicalPlan::MarkDistinct(md) => {
                stage_plans.push(cursor);
                cursor = &md.input;
            }
            LogicalPlan::Scan(s) => break s,
            _ => return Ok(None),
        }
    };
    let scan_plan = cursor;
    if agg_plan.is_none() && stage_plans.is_empty() {
        // A bare scan gains nothing from pipelining.
        return Ok(None);
    }

    // Resolve the aggregate before claiming any op id, so a rejection
    // leaves the id counter untouched for the operator path (which then
    // surfaces the plan error).
    let agg = match agg_plan {
        None => None,
        Some(a) => match AggSpec::for_plan(a, &a.input.schema()) {
            Ok(spec) => Some(spec),
            Err(_) => return Ok(None),
        },
    };

    // Resolve MarkDistinct key positions bottom-up before claiming ids,
    // for the same reason.
    {
        let mut input_schema: Schema = scan_plan.schema();
        for sp in stage_plans.iter().rev() {
            if let LogicalPlan::MarkDistinct(md) = sp {
                for c in &md.columns {
                    if input_schema.index_of(*c).is_none() {
                        return Ok(None);
                    }
                }
            }
            input_schema = sp.schema();
        }
    }

    // Claim pre-order ids top → bottom — the same walk compile_node does
    // over this chain (each node has exactly one child).
    let node_plans: Vec<&LogicalPlan> = {
        let mut v = Vec::new();
        if agg_plan.is_some() {
            v.push(plan);
        }
        v.extend(stage_plans.iter().copied());
        v.push(scan_plan);
        v
    };
    let metas: Vec<(usize, Arc<OpSpan>)> = node_plans
        .iter()
        .map(|_| {
            let id = *next;
            *next += 1;
            (id, Arc::new(OpSpan::default()))
        })
        .collect();
    let scan_meta = metas.len() - 1;
    let (fragment, workers) = scan_fragment(
        catalog,
        ctx,
        scan,
        scan_plan.schema(),
        metas[scan_meta].1.clone(),
    )?;

    // Build stages bottom-up, threading each node's input schema.
    let mut stages: Vec<Stage> = Vec::with_capacity(stage_plans.len());
    let mut mark_states: Vec<MarkState> = Vec::new();
    let mut input_schema: Schema = scan_plan.schema();
    for (k, sp) in stage_plans.iter().enumerate().rev() {
        let meta_idx = if agg_plan.is_some() { k + 1 } else { k };
        let input_ids: Vec<ColumnId> = input_schema.fields().iter().map(|f| f.id).collect();
        let kind = match sp {
            LogicalPlan::Filter(f) => StageKind::Filter(f.predicate.clone()),
            LogicalPlan::Project(p) => StageKind::Project(
                p.exprs
                    .iter()
                    .map(|pe| match &pe.expr {
                        Expr::Column(id) => match input_schema.index_of(*id) {
                            Some(pos) => ProjectedCol::Pass(pos),
                            None => ProjectedCol::Eval(pe.expr.clone()),
                        },
                        e => ProjectedCol::Eval(e.clone()),
                    })
                    .collect(),
            ),
            LogicalPlan::MarkDistinct(md) => {
                let positions = md
                    .columns
                    .iter()
                    .filter_map(|c| input_schema.index_of(*c))
                    .collect();
                let mask = if md.mask.is_true_literal() {
                    None
                } else {
                    Some(md.mask.clone())
                };
                let slot = mark_states.len();
                let mut reservation = BudgetedReservation::try_new(ctx.clone(), 0)?;
                reservation.set_span(metas[meta_idx].1.clone());
                mark_states.push(MarkState {
                    seen: HashSet::new(),
                    reservation,
                });
                StageKind::MarkDistinct {
                    positions,
                    mask,
                    slot,
                }
            }
            _ => unreachable!("chain stages are filters, projects, and distinct marks"),
        };
        stages.push(Stage {
            kind,
            input_ids,
            span: metas[meta_idx].1.clone(),
            // The chain's top node is metered by the SpannedOp wrapper.
            meter: agg_plan.is_some() || k != 0,
        });
        input_schema = sp.schema();
    }

    // Split at the first stateful stage: everything from there up runs
    // on the driver in partition-index order.
    let first_stateful = stages
        .iter()
        .position(|s| matches!(s.kind, StageKind::MarkDistinct { .. }));
    let seq_stages = match first_stateful {
        Some(i) => stages.split_off(i),
        None => Vec::new(),
    };

    // Profile tree: scan leaf (inlined — its rows come from the
    // fragment-side counters) wrapped bottom-up by the chain nodes.
    let mut node = ProfileNode {
        op_id: metas[scan_meta].0,
        label: scan_plan.node_label(),
        span: metas[scan_meta].1.clone(),
        inlined: true,
        children: vec![],
    };
    for (k, sp) in stage_plans.iter().enumerate().rev() {
        let meta_idx = if agg_plan.is_some() { k + 1 } else { k };
        node = ProfileNode {
            op_id: metas[meta_idx].0,
            label: sp.node_label(),
            span: metas[meta_idx].1.clone(),
            inlined: false,
            children: vec![node],
        };
    }
    if agg_plan.is_some() {
        node = ProfileNode {
            op_id: metas[0].0,
            label: plan.node_label(),
            span: metas[0].1.clone(),
            inlined: false,
            children: vec![node],
        };
    }

    ctx.metrics().add_pipeline_compiled();
    let top_span = metas[0].1.clone();
    let op = FusedPipeline {
        fragment,
        workers,
        par_stages: stages,
        seq_stages,
        mark_states,
        agg,
        schema: plan.schema(),
        ctx: ctx.clone(),
        next_partition: 0,
        pending: RowDrain::default(),
        output: None,
        span: None,
    };
    Ok(Some((spanned(Box::new(op), &top_span), node)))
}
