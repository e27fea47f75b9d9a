//! Push-based fused pipelines.
//!
//! [`try_compile`] detects maximal `Scan → Filter* / Project* /
//! MarkDistinct* / probe* (→ Aggregate)` chains in the logical plan and
//! compiles each into a single [`FusedPipeline`] operator. Instead of
//! pulling materialized row batches through one operator per plan node,
//! the pipeline *pushes* each scanned partition's columnar arrays (a
//! [`ColumnarMorsel`]) through the whole chain: filters narrow the
//! selection vector in place, projections re-share or compute columns,
//! distinct markers append their flag column, hash-join probes narrow
//! (semi) or gather (inner, left) rows, and an optional aggregate
//! consumes the surviving positions directly — no intermediate
//! `Vec<Row>` is built between chain operators (metered by
//! `batches_elided`).
//!
//! A chain continues from an equi hash join into its probe (left) input.
//! The build (right) input compiles like any other subtree; it is the
//! only breaker, drained top-most join first (as the pull operators
//! build) before the first morsel, so its published keys prune the
//! chain's scan (see `ops::scan`). A star join is thus one pipeline.
//! Chains stop at every other node: sort, window, union, cross or
//! nested-loop join, an aggregate below the top.
//!
//! A pipeline drives its partitions through [`Morsels`], the executor's
//! one ordered source, in one of two ways (see [`FusedPipeline`]): the
//! per-partition fold, or the ordered loop — the stateless prefix runs
//! where each morsel is scanned (on the workers), the stateful suffix and
//! the sink on the driver in partition-index order. The build sides and
//! the aggregate are the only points that materialize; without an
//! aggregate, rows leave morsel by morsel.
//!
//! Determinism contract (`FUSION_PIPELINES=0/1` must be bit-identical):
//!
//! * Expression evaluation uses the [`fusion_expr::ColumnBatch`] kernels, which
//!   reproduce the scalar evaluator's three-valued logic, short-circuit
//!   row subsets, and error sites (see `fusion_expr::vector`).
//! * Both drivers probe the same [`JoinTable`] with the same kernel, so
//!   join output is in probe order, then build order within a key, either
//!   way.
//! * The aggregate folds into the same `GroupTable` as the pull
//!   operator and picks its fold shape by the same rule, which reads the
//!   plan and never the worker count: one table per partition, merged in
//!   partition-index order with deferred DISTINCT, *only* when the
//!   aggregate sits directly over the scan; any interior stage means a
//!   single table accumulated on the driver in partition order with
//!   inline DISTINCT (where the pull operators would aggregate above a
//!   streamed scan). Float sums therefore fold in the same order as the
//!   pull path, and in the same order at every thread count.
//! * `MarkDistinct` is stateful — its first-occurrence set spans the
//!   whole input. The chain splits at the first such stage: everything
//!   below it still runs on the workers, the stateful suffix (and the
//!   aggregate) runs on the driver in partition-index order — the exact
//!   row order the batch path's scan feeds `MarkDistinctExec`.
//! * Profile `op_id`s are claimed in the same pre-order walk as
//!   `compile_node`, and every chain node's span reports the same row
//!   counts the batch operators would — golden profiles do not change.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusion_common::{ColumnId, FusionError, Result, Schema, Value};
use fusion_expr::Expr;
use fusion_plan::LogicalPlan;

use crate::context::{BudgetedReservation, ExecContext};
use crate::ops::agg::{fold_partitions, AggSpec, GroupTable};
use crate::ops::exchange::Morsels;
use crate::ops::join::{JoinSpec, JoinTable};
use crate::ops::scan::{ColumnarMorsel, ScanFragment};
use crate::ops::{drain, row_bytes, BoxedOp, Operator, RowDrain};
use crate::physical::{compile_node, join_spec, spanned, Compiler};
use crate::profile::{OpSpan, ProfileNode};
use crate::{Chunk, Row, CHUNK_SIZE};

/// One fused chain operator between the scan and the optional aggregate.
struct Stage {
    kind: StageKind,
    /// Field ids of the stage's input schema, parallel to the incoming
    /// column vector; registered into the per-morsel [`fusion_expr::ColumnBatch`].
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
    /// The probe half of an equi hash join: its table, once built.
    Probe(Option<Box<JoinTable>>),
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
            metrics.add_rows_evaluated_vectorized(m.selection.len() as u64);
            m.selection = m.batch(&stage.input_ids).filter(pred, &m.selection)?;
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
                let batch = m.batch(&stage.input_ids);
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
            // The rows the mask accepts (all of them without one).
            let accepted = match mask {
                None => None,
                Some(e) => {
                    metrics.add_rows_evaluated_vectorized(m.selection.len() as u64);
                    Some(m.batch(&stage.input_ids).filter(e, &m.selection)?)
                }
            };
            // The flag column is full-length so it aligns with the
            // morsel's other arrays; unselected rows never materialize.
            let n = m.columns.first().map(|c| c.len()).unwrap_or(0);
            let mut marks = vec![Value::Boolean(false); n];
            for &r in accepted.as_ref().unwrap_or(&m.selection) {
                // Masked-out rows stay FALSE and are not tracked.
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
        StageKind::Probe(table) => match table {
            Some(table) => table.probe(m)?,
            None => return Err(FusionError::Execution("probe before its build".into())),
        },
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
    // A probe meters its own CPU on its join's span.
    let mut probing = Duration::ZERO;
    let mut elided = 0u64;
    for stage in stages {
        elided += m.selection.len().div_ceil(CHUNK_SIZE) as u64;
        let stage_start = Instant::now();
        apply_stage(stage, mark_states, m, ctx)?;
        if let StageKind::Probe(_) = stage.kind {
            probing += stage_start.elapsed();
        }
        if stage.meter {
            stage.span.add_rows_out(m.selection.len() as u64);
        }
    }
    if let Some(span) = span {
        span.add_cpu_nanos(start.elapsed().saturating_sub(probing).as_nanos() as u64);
    }
    Ok(elided)
}

/// What the ordered loop's task hands the driver for one partition.
enum Piece {
    /// The stateless prefix's output and the batches it elided, for the
    /// stateful suffix and the sink on the driver.
    Morsel(ColumnarMorsel, u64),
    /// The rows of a chain that leaves the driver nothing to run,
    /// materialized where the morsel was scanned.
    Rows(Vec<Row>),
}

/// A compiled `Scan → Filter*/Project*/MarkDistinct*/probe* (→ Aggregate)`
/// chain, driven push-based over columnar morsels in one of two ways:
///
/// * **the per-partition fold** — an aggregate directly over the scan
///   with several workers: one partial table per partition, merged in
///   partition-index order ([`fold_partitions`]);
/// * **the ordered loop** — every other chain: [`Morsels`] runs the scan
///   and the stateless prefix on the workers (the caller's thread among
///   them), and the driver pushes each morsel, in partition-index order,
///   through the stateful suffix into the sink. Without an aggregate the
///   rows leave morsel by morsel, so a consumer that stops pulling stops
///   the scan.
///
/// Both match the pull operators' row order and float fold order at
/// every thread count.
pub struct FusedPipeline {
    fragment: Arc<ScanFragment>,
    workers: usize,
    /// Stages below the first stateful stage — run where the morsel is
    /// scanned. They move into the task on the first pull.
    par_stages: Vec<Stage>,
    /// The first stateful (`MarkDistinct`) stage and everything above
    /// it — run on the driver in partition-index order.
    seq_stages: Vec<Stage>,
    mark_states: Vec<MarkState>,
    /// The aggregate terminating the chain, when present: surviving
    /// positions fold straight into a [`GroupTable`].
    agg: Option<Arc<AggSpec>>,
    /// The build sides of the chain's probe stages, top-most join first,
    /// until the first pull drains them.
    builds: Vec<(BoxedOp, JoinSpec, Arc<OpSpan>)>,
    schema: Schema,
    ctx: Arc<ExecContext>,
    span: Option<Arc<OpSpan>>,
    /// Whether the first pull has built the joins and chosen the drive.
    started: bool,
    /// The ordered loop's source, until it is drained.
    morsels: Option<Morsels<Piece>>,
    /// The ordered loop's aggregate table, until its input is drained.
    table: Option<GroupTable>,
    /// Rows ready to leave: the current morsel's, or the aggregate's.
    pending: RowDrain,
}

impl FusedPipeline {
    /// Drain every build side into its probe stage's table, top-most
    /// join first — the order the pull operators build in.
    fn build_joins(&mut self) -> Result<()> {
        let FusedPipeline {
            par_stages,
            seq_stages,
            builds,
            ctx,
            ..
        } = self;
        let probes = seq_stages
            .iter_mut()
            .rev()
            .chain(par_stages.iter_mut().rev())
            .filter_map(|s| match &mut s.kind {
                StageKind::Probe(table) => Some(table),
                _ => None,
            });
        for (table, (mut input, spec, span)) in probes.zip(std::mem::take(builds)) {
            let rows = drain(input.as_mut())?;
            *table = Some(Box::new(JoinTable::build(spec, rows, ctx, &Some(span))?));
        }
        Ok(())
    }

    /// The first pull: build the joins, then run the per-partition fold
    /// or set up the ordered loop.
    fn start(&mut self) -> Result<()> {
        self.started = true;
        self.build_joins()?;
        let (fragment, ctx, span) = (self.fragment.clone(), self.ctx.clone(), self.span.clone());
        let partitions = fragment.num_partitions();
        let stages = std::mem::take(&mut self.par_stages);
        if let Some(spec) = &self.agg {
            // Aggregate directly over the scan: the per-partition fold, at
            // every worker count. Only this shape folds per partition — any
            // interior stage puts the pull operators' aggregate above a
            // streamed scan, folding on the driver, so the pipeline folds
            // there too.
            if stages.is_empty() && self.seq_stages.is_empty() {
                let metrics = ctx.metrics().clone();
                let rows = fold_partitions(
                    spec,
                    &ctx,
                    &span,
                    partitions,
                    self.workers,
                    move |p| {
                        let m = fragment.scan_partition_columnar(p)?;
                        if let Some(m) = &m {
                            let batches = m.selection.len().div_ceil(CHUNK_SIZE);
                            metrics.add_batches_elided(batches as u64);
                        }
                        Ok(m.filter(|m| !m.selection.is_empty()))
                    },
                    |table, m| table.accumulate_morsel(m),
                )?;
                self.pending = RowDrain::new(rows);
                return Ok(());
            }
            self.table = Some(GroupTable::new(spec, &ctx, &span, true)?);
        }
        let rows_on_workers = self.table.is_none() && self.seq_stages.is_empty();
        let task_ctx = ctx.clone();
        self.morsels = Some(Morsels::new(&ctx, partitions, self.workers, move |p| {
            let Some(mut m) = fragment.scan_partition_columnar(p)? else {
                return Ok(None);
            };
            let elided = run_stage_list(&stages, &mut [], &mut m, &task_ctx, &span)?;
            if !rows_on_workers {
                return Ok(Some(Piece::Morsel(m, elided)));
            }
            task_ctx.metrics().add_batches_elided(elided);
            let rows = m.into_rows();
            Ok((!rows.is_empty()).then_some(Piece::Rows(rows)))
        }));
        Ok(())
    }

    /// Run one morsel through the stateful suffix into the sink: the
    /// aggregate table, or the rows about to leave.
    fn push(&mut self, piece: Piece) -> Result<()> {
        let (mut m, mut elided) = match piece {
            Piece::Rows(rows) => {
                self.pending = RowDrain::new(rows);
                return Ok(());
            }
            Piece::Morsel(m, elided) => (m, elided),
        };
        self.ctx.check()?;
        let ctx = &self.ctx;
        elided += run_stage_list(&self.seq_stages, &mut self.mark_states, &mut m, ctx, &self.span)?;
        match &mut self.table {
            Some(table) => {
                elided += m.selection.len().div_ceil(CHUNK_SIZE) as u64;
                ctx.metrics().add_batches_elided(elided);
                table.accumulate_morsel(&m)
            }
            None => {
                ctx.metrics().add_batches_elided(elided);
                self.pending = RowDrain::new(m.into_rows());
                Ok(())
            }
        }
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
        if !self.started {
            self.start()?;
        }
        loop {
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            let Some(morsels) = &mut self.morsels else {
                return Ok(None);
            };
            match morsels.next().transpose()? {
                Some(piece) => self.push(piece)?,
                None => {
                    self.morsels = None;
                    if let Some(table) = self.table.take() {
                        self.pending = RowDrain::new(table.finish());
                    }
                }
            }
        }
    }
}

/// Try to compile `plan` as a fused pipeline. Returns `Ok(None)` when the
/// plan does not start with a pipelineable chain (or pipelines are
/// disabled on the context) — the caller falls through to the
/// operator-at-a-time path. Ids are claimed exactly as the batch
/// compiler would claim them for the same nodes, so `op_id`s are stable
/// either way.
pub(crate) fn try_compile(
    c: &mut Compiler,
    plan: &LogicalPlan,
) -> Result<Option<(BoxedOp, ProfileNode)>> {
    if !c.ctx.pipelines() {
        return Ok(None);
    }
    let ctx = c.ctx;
    let mut agg_plan: Option<&fusion_plan::plan::Aggregate> = None;
    let mut cursor: &LogicalPlan = plan;
    if let LogicalPlan::Aggregate(a) = cursor {
        agg_plan = Some(a);
        cursor = &a.input;
    }
    let mut stage_plans: Vec<&LogicalPlan> = Vec::new(); // top → bottom
    let mut joins: Vec<(&fusion_plan::plan::Join, JoinSpec)> = Vec::new(); // top → bottom
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
            LogicalPlan::Join(j) => {
                let Some(spec) = join_spec(j) else {
                    return Ok(None);
                };
                joins.push((j, spec));
                stage_plans.push(cursor);
                cursor = &j.left;
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

    // Committed: the joins' key filters now find the chain's scan.
    for (j, spec) in &mut joins {
        c.feed_scans(j, spec);
    }

    // Claim pre-order ids top → bottom — the same walk compile_node does
    // over this chain (each node's first child continues it).
    let metas: Vec<(usize, Arc<OpSpan>)> = (0..agg_plan.iter().len() + stage_plans.len() + 1)
        .map(|_| c.claim())
        .collect();
    let scan_meta = metas.len() - 1;
    let (fragment, workers) = c.scan_fragment(scan, metas[scan_meta].1.clone())?;

    // Build stages bottom-up, threading each node's input schema, and
    // wrap the scan's profile leaf (inlined — its rows come from the
    // fragment-side counters) in each chain node's. A join's build side
    // compiles here, bottom-most join first: each join's right subtree
    // follows its left one in pre-order.
    let mut node = ProfileNode {
        op_id: metas[scan_meta].0,
        label: scan_plan.node_label(),
        span: metas[scan_meta].1.clone(),
        inlined: true,
        children: vec![],
    };
    let mut stages: Vec<Stage> = Vec::with_capacity(stage_plans.len());
    let mut mark_states: Vec<MarkState> = Vec::new();
    let mut builds: Vec<(BoxedOp, JoinSpec, Arc<OpSpan>)> = Vec::new();
    let mut input_schema: Schema = scan_plan.schema();
    for (k, sp) in stage_plans.iter().enumerate().rev() {
        let (op_id, span) = metas[if agg_plan.is_some() { k + 1 } else { k }].clone();
        let mut children = vec![node];
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
                reservation.set_span(span.clone());
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
            LogicalPlan::Join(j) => {
                let (right, right_node) = compile_node(c, &j.right)?;
                children.push(right_node);
                let (_, spec) = joins.pop().expect("one spec per chain join");
                builds.push((right, spec, span.clone()));
                ctx.metrics().add_probe_stage();
                StageKind::Probe(None)
            }
            _ => unreachable!("chain stages are filters, projects, distinct marks and probes"),
        };
        stages.push(Stage {
            kind,
            input_ids,
            span: span.clone(),
            // The chain's top node is metered by the SpannedOp wrapper.
            meter: agg_plan.is_some() || k != 0,
        });
        node = ProfileNode {
            op_id,
            label: sp.node_label(),
            span,
            inlined: false,
            children,
        };
        input_schema = sp.schema();
    }
    // Drained top-most join first.
    builds.reverse();

    // Split at the first stateful stage: everything from there up runs
    // on the driver in partition-index order.
    let first_stateful = stages
        .iter()
        .position(|s| matches!(s.kind, StageKind::MarkDistinct { .. }));
    let seq_stages = match first_stateful {
        Some(i) => stages.split_off(i),
        None => Vec::new(),
    };
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
        agg: agg.map(Arc::new),
        builds,
        schema: plan.schema(),
        ctx: ctx.clone(),
        span: None,
        started: false,
        morsels: None,
        table: None,
        pending: RowDrain::default(),
    };
    Ok(Some((spanned(Box::new(op), &top_span), node)))
}
