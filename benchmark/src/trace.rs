//! The traced run: spans recorded by the benchmark around its own calls
//! into each layer's public functions, and the per-layer sums they feed.
//!
//! Nothing inside the engine is instrumented. A traced operation is first
//! run through the public entry point a user calls (`Session::sql`,
//! `Session::run_batch`) and timed as the operation's root span; the
//! benchmark then *replays* the same work as the sequence of public
//! per-layer calls the entry point makes internally, one child span each.
//! `trace.coverage` = Σ child spans ÷ Σ root spans says how faithful the
//! replay is; what it does not cover is charged to `engine`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use fusion_engine::Session;
use fusion_exec::{collect, compile_profiled, ExecContext, ExecMetrics, OpProfile, QueryProfile};
use fusion_plan::LogicalPlan;
use fusion_reuse::{canonical_form, ReuseManager};

use crate::workloads::PARALLELISM;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one. A replayed child starts
    /// after its root has ended: it re-runs the root's work.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    next_op: u64,
    /// Per-layer sums (milliseconds and counts); divided by `ops` at the
    /// end to give means per operation.
    pub sums: BTreeMap<&'static str, f64>,
    pub ops: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
            sums: BTreeMap::new(),
            ops: 0.0,
        }
    }

    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a span over an interval measured elsewhere.
    pub fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span. Returns its value, the span's index and its
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let idx = self.push(name, op, parent, start, end);
        (value, idx, (end - start).as_secs_f64() * 1e3)
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Mean per operation of a summed quantity.
    pub fn mean(&self, key: &str) -> f64 {
        if self.ops > 0.0 {
            self.sum(key) / self.ops
        } else {
            0.0
        }
    }

    /// One JSON object per line: name, start ns, end ns, parent, op.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

/// Operator families of the `exec` layer's self-time split.
fn family(label: &str) -> &'static str {
    let head = label.split(':').next().unwrap_or(label).trim();
    if head.ends_with("Join") {
        "exec.join_self_ms"
    } else if head == "Aggregate" || head == "MarkDistinct" {
        "exec.agg_self_ms"
    } else if head == "Window" || head == "Sort" {
        "exec.sort_self_ms"
    } else {
        "exec.scan_self_ms"
    }
}

/// Whether `p` is the top of a push pipeline: a single-child chain down
/// to a scan whose inner nodes carry no time of their own (the pipeline
/// operator meters the whole chain on its top node).
fn is_pipeline_top(p: &OpProfile) -> bool {
    let mut node = p;
    loop {
        match node.children.as_slice() {
            [] => return node.label.starts_with("Scan") && !std::ptr::eq(node, p),
            [child] if child.wall_nanos == 0 => node = child,
            _ => return false,
        }
    }
}

/// Add each operator's self time (inclusive wall minus its children's) to
/// its family. A fused pipeline counts as scan+pipeline whatever its top
/// node is, because the chain's scan work is metered there.
fn add_family_self_times(tr: &mut Tracer, p: &OpProfile) {
    let children: u64 = p.children.iter().map(|c| c.wall_nanos).sum();
    let own = p.wall_nanos.saturating_sub(children) as f64 / 1e6;
    let key = if is_pipeline_top(p) {
        "exec.scan_self_ms"
    } else {
        family(&p.label)
    };
    tr.add(key, own);
    for c in &p.children {
        add_family_self_times(tr, c);
    }
}

/// Compile and run `plan` as `execute_plan_profiled` does, with a span on
/// each half. With `count`, the run feeds the `exec.*` layer sums.
/// Returns compile + run milliseconds, or `None` if either failed.
pub fn exec_plan(
    tr: &mut Tracer,
    session: &Session,
    plan: &LogicalPlan,
    op: u64,
    parent: Option<usize>,
    workers: usize,
    count: bool,
) -> Option<f64> {
    let metrics = ExecMetrics::new();
    let ctx = ExecContext::builder(metrics.clone())
        .parallelism(workers)
        .pipelines(true)
        .build();
    let suffix = if count { "" } else { ".1w" };
    let (compiled, _, compile_ms) = tr.time(&format!("exec.compile{suffix}"), op, parent, || {
        compile_profiled(plan, session.catalog(), &ctx)
    });
    let (tree, node) = compiled.ok()?;
    let (out, _, run_ms) = tr.time(&format!("exec.run{suffix}"), op, parent, || collect(tree));
    black_box(out.ok()?);
    if count {
        let snap = metrics.snapshot();
        tr.add("exec.compile_ms", compile_ms);
        tr.add("exec.run_ms", run_ms);
        tr.add("exec.rows_scanned", snap.rows_scanned as f64);
        tr.add("exec.bytes_scanned", snap.bytes_scanned as f64);
        tr.add("exec.morsels", snap.morsels_executed as f64);
        tr.add("exec.pipelines_compiled", snap.pipelines_compiled as f64);
        add_family_self_times(tr, &QueryProfile::capture(&node).root);
    }
    Some(compile_ms + run_ms)
}

/// `parse_statement` and `Session::plan_sql` on one query text. The parse
/// span is filed under the `plan_sql` span, which parses again itself.
/// Returns the plan and `plan_sql`'s milliseconds.
fn replay_front_end(
    tr: &mut Tracer,
    session: &Session,
    sql: &str,
    op: u64,
    root: usize,
) -> Option<(LogicalPlan, f64)> {
    let (parsed, parse_idx, parse_ms) =
        tr.time("sql.parse", op, None, || fusion_sql::parse_statement(sql));
    black_box(parsed.ok()?);
    let (plan, plan_idx, plan_ms) =
        tr.time("sql.plan_sql", op, Some(root), || session.plan_sql(sql));
    tr.spans[parse_idx].parent = Some(plan_idx);
    tr.add("sql.parse_ms", parse_ms);
    tr.add("sql.plan_ms", (plan_ms - parse_ms).max(0.0));
    Some((plan.ok()?, plan_ms))
}

fn replay_optimize(
    tr: &mut Tracer,
    session: &Session,
    plan: &LogicalPlan,
    op: u64,
    root: usize,
) -> (LogicalPlan, f64) {
    let ((optimized, report), _, ms) =
        tr.time("core.optimize", op, Some(root), || session.optimize(plan));
    tr.add("core.optimize_ms", ms);
    tr.add("core.rules_fired", report.fired.len() as f64);
    tr.add("core.plan_nodes_in", plan.node_count() as f64);
    tr.add("core.plan_nodes_out", optimized.node_count() as f64);
    (optimized, ms)
}

/// Replay what `Session::sql` did for `sql` (reuse disabled): plan,
/// optimize, compile, run. With `one_worker`, the plan is also run on one
/// worker for `exec.par_efficiency`. Returns Σ child milliseconds.
pub fn replay_sql(
    tr: &mut Tracer,
    session: &Session,
    sql: &str,
    op: u64,
    root: usize,
    one_worker: bool,
) -> Option<f64> {
    let (plan, plan_ms) = replay_front_end(tr, session, sql, op, root)?;
    let (optimized, optimize_ms) = replay_optimize(tr, session, &plan, op, root);
    let exec_ms = exec_plan(tr, session, &optimized, op, Some(root), PARALLELISM, true)?;
    if one_worker {
        let one = exec_plan(tr, session, &optimized, op, Some(root), 1, false)?;
        tr.add("par.one_worker_ms", one);
        tr.add("par.two_worker_ms", exec_ms);
    }
    Some(plan_ms + optimize_ms + exec_ms)
}

/// Replay what `Session::run_batch` did for `sqls`, with `manager`
/// standing in for the session's own reuse manager (the caller decides
/// whether its cache is cold or warm). Returns Σ child milliseconds.
///
/// Shared subplans execute *inside* `ReuseManager::plan_batch`, where no
/// outside call can time them; the optimizer callback lent to it sees
/// each shared plan just before it runs, so the replay keeps those plans
/// and runs them again afterwards. That second run is the estimate
/// subtracted from `plan_batch` to give the reuse layer's self time.
pub fn replay_batch(
    tr: &mut Tracer,
    session: &Session,
    manager: &ReuseManager,
    sqls: &[&str],
    op: u64,
    root: usize,
) -> Option<f64> {
    let mut covered = 0.0;
    let mut plans = Vec::with_capacity(sqls.len());
    for sql in sqls {
        let (plan, plan_ms) = replay_front_end(tr, session, sql, op, root)?;
        covered += plan_ms;
        plans.push(plan);
    }

    let (_, fingerprint_idx, fingerprint_ms) = tr.time("reuse.fingerprint", op, None, || {
        for p in &plans {
            black_box(canonical_form(p));
        }
    });
    tr.add("reuse.fingerprint_ms", fingerprint_ms);

    let metrics = ExecMetrics::new();
    let ctx = ExecContext::builder(metrics.clone())
        .parallelism(PARALLELISM)
        .pipelines(true)
        .build();
    // (optimized shared plan, milliseconds the callback took)
    let lent: RefCell<Vec<(LogicalPlan, f64)>> = RefCell::new(Vec::new());
    let optimize = |p: &LogicalPlan| {
        let start = Instant::now();
        let optimized = session.optimize(p).0;
        lent.borrow_mut()
            .push((optimized.clone(), start.elapsed().as_secs_f64() * 1e3));
        optimized
    };
    let (outcome, batch_idx, batch_ms) = tr.time("reuse.plan_batch", op, Some(root), || {
        manager.plan_batch(
            &plans,
            session.catalog(),
            &ctx,
            session.id_gen(),
            &metrics,
            Some(&optimize),
        )
    });
    tr.spans[fingerprint_idx].parent = Some(batch_idx);
    covered += batch_ms;
    let snap = metrics.snapshot();
    tr.add("reuse.plan_batch_ms", batch_ms);
    tr.add("reuse.groups", outcome.report.groups.len() as f64);
    tr.add(
        "reuse.shared_executed",
        snap.shared_subplans_executed as f64,
    );
    tr.add("reuse.certs_issued", snap.reuse_certificates_issued as f64);
    tr.add(
        "reuse.certs_rejected",
        snap.reuse_certificates_rejected as f64,
    );
    tr.add("cache.hits", snap.reuse_cache_hits as f64);
    tr.add("cache.refreshes", snap.reuse_cache_refreshes as f64);
    tr.add("cache.evictions", snap.reuse_cache_evictions as f64);
    tr.add("cache.subsumption_hits", snap.subsumption_hits as f64);

    let mut inside = 0.0;
    for (shared, callback_ms) in lent.into_inner() {
        tr.add("core.optimize_ms", callback_ms);
        inside += callback_ms;
        inside += exec_plan(tr, session, &shared, op, Some(batch_idx), PARALLELISM, true)?;
    }
    tr.add("reuse.self_ms", (batch_ms - inside).max(0.0));

    for plan in &outcome.plans {
        let (optimized, optimize_ms) = replay_optimize(tr, session, plan, op, root);
        covered +=
            optimize_ms + exec_plan(tr, session, &optimized, op, Some(root), PARALLELISM, true)?;
    }
    Some(covered)
}
