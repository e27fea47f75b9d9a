//! End-to-end engine facade.
//!
//! A [`Session`] owns a table catalog, a column-id generator and an
//! optimizer configuration, and runs the full pipeline:
//!
//! ```text
//! SQL ──parse──▶ AST ──plan──▶ LogicalPlan ──optimize──▶ LogicalPlan ──execute──▶ rows + metrics
//! ```
//!
//! The session can be configured with fusion on (default) or off (the
//! paper's baseline), which is all the benchmark harness needs to
//! reproduce the Section V experiments.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fusion_common::{DataType, Field, FusionError, IdGen, Result, Schema, Value};
use fusion_core::{Optimizer, OptimizerConfig, OptimizerReport};
use fusion_exec::metrics::MetricsSnapshot;
use fusion_exec::profile::{annotation, OpProfile};
use fusion_exec::{
    execute_plan_profiled, CancelToken, Catalog, ExecContext, ExecMetrics, FaultPolicy,
    QueryProfile, RetryPolicy, Table,
};
use fusion_plan::LogicalPlan;
use fusion_reuse::{ReuseConfig, ReuseManager, WorkloadOutcome, WorkloadReport};
use fusion_sql::{plan_query, SchemaProvider, Statement, TableSchema};

pub mod admission;
pub use admission::{Admitted, AdmissionConfig, AdmissionQueue, TenantId};

/// A configured engine instance.
pub struct Session {
    catalog: Catalog,
    gen: IdGen,
    config: OptimizerConfig,
    /// Simulated working-memory budget (bytes); crossing it during
    /// execution counts spills in the metrics (the §V.C effect).
    memory_budget: Option<u64>,
    /// Enforced working-memory budget (bytes); crossing it aborts the
    /// query with [`FusionError::ResourceExhausted`] instead of counting
    /// a simulated spill.
    enforced_budget: Option<usize>,
    /// Per-execution-attempt wall-clock limit.
    timeout: Option<Duration>,
    fault_policy: FaultPolicy,
    retry_policy: RetryPolicy,
    cancel: CancelToken,
    /// Worker threads for morsel-parallel operators (1 = sequential).
    parallelism: usize,
    /// Whether scan→filter→project(→aggregate) chains compile to
    /// push-based fused pipelines instead of batch-at-a-time operators.
    pipelines: bool,
    /// Profile of the last query this session executed, for the bench
    /// harness ([`Session::last_profile`]).
    last_profile: Mutex<Option<QueryProfile>>,
    /// Workload-level reuse: plan fingerprinting, cross-query fusion and
    /// the shared-subplan cache ([`Session::run_batch`]).
    reuse: ReuseManager,
    /// Whether batches exploit cross-query reuse and single queries
    /// consult the shared-subplan cache.
    reuse_enabled: bool,
    /// Opt-in all-or-nothing batches: the first per-query failure aborts
    /// the whole batch instead of landing in that query's slot.
    batch_fail_fast: bool,
    /// Admission queue for deferred batch execution
    /// ([`Session::enqueue`] / [`Session::run_queued`]): a one-tenant
    /// view of the same [`admission::AdmissionQueue`] the multi-tenant
    /// service dispatches windows from.
    queue: admission::AdmissionQueue<String>,
}

/// Default session parallelism: the `FUSION_PARALLELISM` environment
/// variable when set to a positive integer, else 1 (sequential). Lets CI
/// run the whole suite with the parallel operators engaged.
fn env_parallelism() -> usize {
    std::env::var("FUSION_PARALLELISM")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Default pipeline mode: on unless the `FUSION_PIPELINES` environment
/// variable is set to `0`, `false`, or `off`. Lets CI run the whole
/// suite on the batch-at-a-time path to prove both paths agree.
fn env_pipelines() -> bool {
    !matches!(
        std::env::var("FUSION_PIPELINES")
            .unwrap_or_default()
            .trim()
            .to_ascii_lowercase()
            .as_str(),
        "0" | "false" | "off"
    )
}

/// Everything a query run produces.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
    pub metrics: MetricsSnapshot,
    pub latency: Duration,
    /// The plan before optimization (after SQL planning).
    pub initial_plan: LogicalPlan,
    /// The plan that actually ran.
    pub optimized_plan: LogicalPlan,
    pub report: OptimizerReport,
    /// Per-operator execution profile of the plan that ran. `None` only
    /// for `EXPLAIN` (without `ANALYZE`), which does not execute.
    pub profile: Option<QueryProfile>,
}

impl QueryResult {
    /// Result rows in canonical (sorted) order for comparisons.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }

    /// Whether the fused plan failed and the rows came from the unfused
    /// baseline instead (the reason is in `report.fallback`).
    pub fn degraded(&self) -> bool {
        self.report.fallback.is_some()
    }

    /// Whether this query consumed a shared subplan (cross-query fusion
    /// or a shared-subplan cache hit).
    pub fn reused(&self) -> bool {
        !self.report.reuse.is_empty()
    }
}

/// Which pipeline stage a batched query failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStage {
    /// SQL parsing / logical planning.
    Plan,
    /// Optimization or execution (after any fallback attempt).
    Execute,
}

/// A typed per-slot failure in a batch: the query at `query` failed while
/// every other query in the batch kept running (see
/// [`Session::run_batch`]).
#[derive(Debug, Clone)]
pub struct BatchQueryError {
    /// Index of the failed query, in submission order.
    pub query: usize,
    /// Where in the pipeline it failed.
    pub stage: BatchStage,
    /// The underlying error, with its stable `FUSION_*` code intact.
    pub error: FusionError,
}

impl std::fmt::Display for BatchQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = match self.stage {
            BatchStage::Plan => "planning",
            BatchStage::Execute => "execution",
        };
        write!(f, "query {} failed during {stage}: {}", self.query, self.error)
    }
}

/// Everything a batch run produces ([`Session::run_batch`]).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One slot per submitted query, in submission order. Each query is
    /// its own fault domain: a slot holds either the query's result or
    /// the typed error that took *that query* down — never the batch.
    ///
    /// The `metrics` embedded in each successful result are that query's
    /// **deltas** of the shared batch sink (counters accumulated between
    /// the query starting and finishing, with `peak_state_bytes` carrying
    /// the batch high-water mark). Work done once for the whole batch —
    /// shared subplan executions, cache admissions — happens before the
    /// first query runs and is attributed only to the batch-level
    /// [`BatchResult::metrics`], which is the authoritative total.
    pub results: Vec<std::result::Result<QueryResult, BatchQueryError>>,
    /// Batch-wide metrics, snapshotted only after every query finished
    /// (completion-only semantics).
    pub metrics: MetricsSnapshot,
    /// Per-group reuse accounting: which subplans were shared, by which
    /// queries, whether fusion or the cache served them.
    pub report: WorkloadReport,
}

impl BatchResult {
    /// The result of query `i`, if it succeeded.
    pub fn query(&self, i: usize) -> Option<&QueryResult> {
        self.results.get(i).and_then(|r| r.as_ref().ok())
    }

    /// The error of query `i`, if it failed.
    pub fn error(&self, i: usize) -> Option<&BatchQueryError> {
        self.results.get(i).and_then(|r| r.as_ref().err())
    }

    /// Successful queries with their submission indices, in order.
    pub fn successes(&self) -> impl Iterator<Item = (usize, &QueryResult)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, r.as_ref().ok()?)))
    }

    /// The failed slots, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &BatchQueryError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// Whether every query in the batch succeeded.
    pub fn all_succeeded(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

impl Session {
    pub fn new() -> Self {
        Session {
            catalog: Catalog::new(),
            gen: IdGen::new(),
            config: OptimizerConfig::default(),
            memory_budget: None,
            enforced_budget: None,
            timeout: None,
            fault_policy: FaultPolicy::default(),
            retry_policy: RetryPolicy::default(),
            cancel: CancelToken::new(),
            parallelism: env_parallelism(),
            pipelines: env_pipelines(),
            last_profile: Mutex::new(None),
            reuse: ReuseManager::default(),
            reuse_enabled: true,
            batch_fail_fast: false,
            queue: admission::AdmissionQueue::new(admission::AdmissionConfig::unbounded()),
        }
    }

    /// A session with the paper's baseline configuration (fusion off).
    pub fn baseline() -> Self {
        let mut s = Session::new();
        s.config = OptimizerConfig::baseline();
        s
    }

    /// Simulate a working-memory budget: executions whose materialized
    /// operator state crosses it record spills in the result metrics.
    pub fn set_memory_budget(&mut self, bytes: Option<u64>) {
        self.memory_budget = bytes;
    }

    /// *Enforce* a working-memory budget: an execution whose materialized
    /// operator state would cross it aborts with
    /// [`FusionError::ResourceExhausted`]. Independent of the simulated
    /// (spill-counting) budget above.
    pub fn set_enforced_memory_budget(&mut self, bytes: Option<usize>) {
        self.enforced_budget = bytes;
    }

    /// Wall-clock limit per execution attempt; an attempt running past it
    /// fails with [`FusionError::DeadlineExceeded`].
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Fault schedule applied to every table scan this session runs.
    pub fn set_fault_policy(&mut self, policy: FaultPolicy) {
        self.fault_policy = policy;
    }

    /// Retry/backoff behavior for transient scan failures.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The token that cancels queries run by this session. Cancellation is
    /// sticky: once cancelled, every later query fails immediately.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Number of worker threads granted to morsel-parallel operators
    /// (scans of partitioned tables, partitioned aggregate and join
    /// builds). `1` (the default) keeps execution fully sequential.
    /// Initialized from the `FUSION_PARALLELISM` environment variable
    /// when set, so a whole test suite can be forced parallel.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
    }

    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Enable or disable push-based fused pipelines for this session's
    /// queries. On by default; initialized from the `FUSION_PIPELINES`
    /// environment variable (`0`/`false`/`off` disables), so a whole test
    /// suite can be forced onto the batch-at-a-time path. Both paths are
    /// bit-identical by contract — this knob exists for benchmarking and
    /// for proving that contract in CI.
    pub fn set_pipelines_enabled(&mut self, enabled: bool) {
        self.pipelines = enabled;
    }

    pub fn pipelines_enabled(&self) -> bool {
        self.pipelines
    }

    fn fresh_metrics(&self) -> Arc<ExecMetrics> {
        match self.memory_budget {
            Some(b) => ExecMetrics::with_budget(b),
            None => ExecMetrics::new(),
        }
    }

    fn exec_context(&self, metrics: &Arc<ExecMetrics>) -> Arc<ExecContext> {
        let mut b = ExecContext::builder(metrics.clone())
            .cancel_token(self.cancel.clone())
            .fault_policy(self.fault_policy.clone())
            .retry_policy(self.retry_policy.clone())
            .parallelism(self.parallelism)
            .pipelines(self.pipelines);
        if let Some(t) = self.timeout {
            b = b.timeout(t);
        }
        if let Some(bytes) = self.enforced_budget {
            b = b.hard_budget(bytes);
        }
        b.build()
    }

    pub fn set_config(&mut self, config: OptimizerConfig) {
        self.config = config;
    }

    pub fn set_fusion_enabled(&mut self, enabled: bool) {
        self.config.enable_fusion = enabled;
    }

    pub fn fusion_enabled(&self) -> bool {
        self.config.enable_fusion
    }

    pub fn register_table(&mut self, table: Table) {
        self.catalog.register(table);
    }

    /// Append rows to an existing table as one new partition. Bumps the
    /// table's catalog version — like re-registration — but records
    /// append lineage, so cached shared-subplan results over maintainable
    /// shapes are *refreshed in place* over just these rows at their next
    /// lookup instead of being evicted. Returns the new table version.
    pub fn append_table(&mut self, name: &str, rows: Vec<Vec<Value>>) -> Result<u64> {
        let table = self.catalog.get(name)?;
        let partition = table.partition_from_rows(rows)?;
        self.catalog.append(name, vec![partition])
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn id_gen(&self) -> &IdGen {
        &self.gen
    }

    /// Parse and plan a SQL query (no optimization, no execution).
    pub fn plan_sql(&self, sql: &str) -> Result<LogicalPlan> {
        let ast = fusion_sql::parse(sql)?;
        plan_query(&ast, &CatalogProvider(&self.catalog), &self.gen)
    }

    /// Optimize a plan with this session's configuration.
    pub fn optimize(&self, plan: &LogicalPlan) -> (LogicalPlan, OptimizerReport) {
        let optimizer = Optimizer::new(self.gen.clone(), self.config.clone());
        optimizer.optimize(plan)
    }

    /// Full pipeline: parse, plan, optimize, execute.
    ///
    /// `EXPLAIN <query>` returns the optimized plan and the optimizer
    /// trace as rows (one line per row, single `plan` column) without
    /// executing. `EXPLAIN ANALYZE <query>` executes the query and
    /// annotates every operator with its profile (rows, batches,
    /// timings, peak state).
    pub fn sql(&self, sql: &str) -> Result<QueryResult> {
        match fusion_sql::parse_statement(sql)? {
            Statement::Query(ast) => {
                let initial_plan = plan_query(&ast, &CatalogProvider(&self.catalog), &self.gen)?;
                self.run_plan(initial_plan)
            }
            Statement::Explain { analyze, query } => {
                let initial_plan = plan_query(&query, &CatalogProvider(&self.catalog), &self.gen)?;
                if analyze {
                    self.explain_analyze_plan(initial_plan)
                } else {
                    self.explain_plan(initial_plan)
                }
            }
        }
    }

    /// `EXPLAIN`: optimize only, render the plan plus the optimizer
    /// trace. No execution happens, so `profile` is `None`.
    fn explain_plan(&self, initial_plan: LogicalPlan) -> Result<QueryResult> {
        let start = Instant::now();
        let (optimized_plan, report) = self.optimize(&initial_plan);
        let mut text = optimized_plan.display();
        push_trace_sections(&mut text, &report, None);
        Ok(QueryResult {
            schema: self.plan_text_schema(),
            rows: text_rows(&text),
            metrics: self.fresh_metrics().snapshot(),
            latency: start.elapsed(),
            initial_plan,
            optimized_plan,
            report,
            profile: None,
        })
    }

    /// `EXPLAIN ANALYZE`: run the query, then render the plan that
    /// actually ran with each operator annotated from its profile.
    fn explain_analyze_plan(&self, initial_plan: LogicalPlan) -> Result<QueryResult> {
        let result = self.run_plan(initial_plan)?;
        let mut text = match &result.profile {
            Some(profile) => {
                // `op_id` is allocated in the same pre-order walk
                // `display_annotated` numbers nodes with, so the flat
                // profile indexes directly by annotation position.
                let flat = flatten_profile(&profile.root);
                result.optimized_plan.display_annotated(|idx, _| {
                    flat.iter()
                        .find(|p| p.op_id == idx as u64)
                        .map(|p| annotation(p, true))
                })
            }
            None => result.optimized_plan.display(),
        };
        push_trace_sections(&mut text, &result.report, Some(&result.metrics));
        Ok(QueryResult {
            schema: self.plan_text_schema(),
            rows: text_rows(&text),
            ..result
        })
    }

    /// Single-column schema for EXPLAIN output rows.
    fn plan_text_schema(&self) -> Schema {
        Schema::new(vec![Field::new(
            self.gen.fresh(),
            "plan",
            DataType::Utf8,
            false,
        )])
    }

    /// Profile of the most recent query this session executed, as
    /// captured by [`fusion_exec::execute_plan_profiled`]. `None` until
    /// the first successful execution. The bench harness serializes this
    /// via [`QueryProfile::to_json`].
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn store_profile(&self, profile: &QueryProfile) {
        *self
            .last_profile
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(profile.clone());
    }

    /// Optimize and execute an already-built logical plan.
    ///
    /// Degrades gracefully: if the optimized plan fails post-optimization
    /// validation or dies during execution with an error that
    /// [`FusionError::allows_fallback`], and fusion was enabled, the query
    /// is re-optimized with fusion off and re-executed as the baseline
    /// plan. The fallback is recorded in `report.fallback` and counted in
    /// the metrics, which accumulate across both attempts (the failed
    /// fused work was really performed).
    pub fn run_plan(&self, initial_plan: LogicalPlan) -> Result<QueryResult> {
        let metrics = self.fresh_metrics();
        let (exec_plan, reuse_notes) = if self.reuse_enabled {
            self.reuse
                .apply_cache(&initial_plan, &self.catalog, &self.fault_policy, &metrics)
        } else {
            (initial_plan.clone(), Vec::new())
        };
        self.run_plan_inner(initial_plan, exec_plan, metrics, reuse_notes)
    }

    /// Shared tail of [`Session::run_plan`] and [`Session::run_batch_plans`]:
    /// optimize `exec_plan` (the possibly reuse-rewritten form of
    /// `initial_plan`), execute it, and fall back to the unfused baseline
    /// of the *original* plan on recoverable failure — so a bad splice or
    /// a bad fusion can never be the final word on a query.
    fn run_plan_inner(
        &self,
        initial_plan: LogicalPlan,
        exec_plan: LogicalPlan,
        metrics: Arc<ExecMetrics>,
        reuse_notes: Vec<String>,
    ) -> Result<QueryResult> {
        let reused = !reuse_notes.is_empty();
        let (optimized_plan, mut report) = self.optimize(&exec_plan);
        report.reuse = reuse_notes;
        let start = Instant::now();
        let attempt = match &report.validation_error {
            Some(msg) => Err(FusionError::Internal(format!(
                "optimized plan failed validation: {msg}"
            ))),
            None => {
                execute_plan_profiled(&optimized_plan, &self.catalog, &self.exec_context(&metrics))
            }
        };
        let failure = match attempt {
            Ok((out, profile)) => {
                self.store_profile(&profile);
                return Ok(QueryResult {
                    schema: out.schema,
                    rows: out.rows,
                    metrics: metrics.snapshot(),
                    latency: start.elapsed(),
                    initial_plan,
                    optimized_plan,
                    report,
                    profile: Some(profile),
                });
            }
            Err(e) if (self.config.enable_fusion || reused) && e.allows_fallback() => e,
            Err(e) => return Err(e),
        };

        metrics.add_fallback();
        report.fallback = Some(format!("{}: {failure}", failure.code()));
        let mut cfg = self.config.clone();
        cfg.enable_fusion = false;
        let (base_plan, base_report) = Optimizer::new(self.gen.clone(), cfg).optimize(&initial_plan);
        if let Some(msg) = &base_report.validation_error {
            return Err(FusionError::Internal(format!(
                "baseline plan failed validation during fallback: {msg}"
            )));
        }
        let (out, profile) =
            execute_plan_profiled(&base_plan, &self.catalog, &self.exec_context(&metrics))?;
        self.store_profile(&profile);
        Ok(QueryResult {
            schema: out.schema,
            rows: out.rows,
            metrics: metrics.snapshot(),
            latency: start.elapsed(),
            initial_plan,
            optimized_plan: base_plan,
            report,
            profile: Some(profile),
        })
    }

    /// Run a batch of concurrent queries with workload-level reuse: parse
    /// and plan each query, detect subplans shared across the batch
    /// (exact fingerprint matches and `Fuse`-able near-matches), execute
    /// each shared subplan **once**, and rewrite every consumer to read
    /// the materialized rows through its compensating filter and column
    /// mapping. Results are bit-identical to running each query alone.
    ///
    /// Each query is its own fault domain: a query that fails — bad SQL,
    /// an injected fault, a blown deadline or budget — lands as a typed
    /// [`BatchQueryError`] in its slot of [`BatchResult::results`] while
    /// every other query completes. The pre-isolation all-or-nothing
    /// behavior is opt-in via [`Session::set_batch_fail_fast`].
    ///
    /// Shared executions surface as `shared_subplans_executed` in the
    /// batch metrics; cached servings as `reuse_cache_hits`; per-query
    /// failures as `batch_query_failures`.
    pub fn run_batch(&self, sqls: &[&str]) -> Result<BatchResult> {
        let mut slots = Vec::with_capacity(sqls.len());
        for (i, sql) in sqls.iter().enumerate() {
            match self.plan_sql(sql) {
                Ok(plan) => slots.push(Ok(plan)),
                Err(error) => {
                    if self.batch_fail_fast {
                        return Err(error);
                    }
                    slots.push(Err(BatchQueryError {
                        query: i,
                        stage: BatchStage::Plan,
                        error,
                    }));
                }
            }
        }
        self.run_batch_slots(slots)
    }

    /// [`Session::run_batch`] over already-planned queries.
    pub fn run_batch_plans(&self, plans: Vec<LogicalPlan>) -> Result<BatchResult> {
        self.run_batch_slots(plans.into_iter().map(Ok).collect())
    }

    /// Shared tail of the batch paths: run the plannable slots with
    /// workload reuse, confining every failure to its own slot.
    fn run_batch_slots(
        &self,
        slots: Vec<std::result::Result<LogicalPlan, BatchQueryError>>,
    ) -> Result<BatchResult> {
        let metrics = self.fresh_metrics();
        metrics.add_queries_batched(slots.len() as u64);
        for slot in &slots {
            if slot.is_err() {
                metrics.add_batch_query_failure();
            }
        }
        let plans: Vec<LogicalPlan> = slots.iter().filter_map(|s| s.as_ref().ok().cloned()).collect();
        let outcome = if self.reuse_enabled {
            let ctx = self.exec_context(&metrics);
            let optimize = |p: &LogicalPlan| self.optimize(p).0;
            self.reuse.plan_batch(
                &plans,
                &self.catalog,
                &ctx,
                &self.gen,
                &metrics,
                Some(&optimize),
            )
        } else {
            WorkloadOutcome::unshared(&plans)
        };
        self.check_certified(&outcome.rejections)?;
        let mut rewritten = outcome.plans.into_iter().zip(outcome.notes);
        let mut results = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let initial = match slot {
                Ok(plan) => plan,
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
            };
            let Some((exec, notes)) = rewritten.next() else {
                // plan_workload returns one plan per input by contract;
                // running the original unshared keeps the query correct
                // even if that contract is ever broken.
                results.push(Err(BatchQueryError {
                    query: i,
                    stage: BatchStage::Execute,
                    error: FusionError::Internal(
                        "workload optimizer dropped a batch slot".into(),
                    ),
                }));
                continue;
            };
            // Per-query metrics are deltas of the shared sink, so a
            // failing or skipped query never smears its counters into a
            // neighbor's result.
            let before = metrics.snapshot();
            match self.run_plan_inner(initial, exec, Arc::clone(&metrics), notes) {
                Ok(mut r) => {
                    r.metrics = r.metrics.delta_since(&before);
                    results.push(Ok(r));
                }
                Err(error) => {
                    metrics.add_batch_query_failure();
                    if self.batch_fail_fast {
                        return Err(error);
                    }
                    results.push(Err(BatchQueryError {
                        query: i,
                        stage: BatchStage::Execute,
                        error,
                    }));
                }
            }
        }
        Ok(BatchResult {
            results,
            metrics: metrics.snapshot(),
            report: outcome.report,
        })
    }

    /// Uncertified reuse rewrites already reverted to cold execution (the
    /// batch stays correct); under strict analysis — this session's
    /// `OptimizerConfig::strict_analysis`, which `FUSION_ANALYZE=strict`
    /// only defaults — a certificate rejection is a hard error on the
    /// whole batch, the same contract strict mode applies to analyzer
    /// violations.
    fn check_certified(&self, rejections: &[String]) -> Result<()> {
        if self.config.strict_analysis && !rejections.is_empty() {
            return Err(FusionError::Internal(format!(
                "strict analysis: {} reuse rewrite(s) failed certification: {}",
                rejections.len(),
                rejections.join("; "),
            )));
        }
        Ok(())
    }

    /// Restore the pre-isolation all-or-nothing batch contract: the first
    /// planning or execution failure aborts the whole batch with `Err`
    /// instead of landing in that query's slot.
    pub fn set_batch_fail_fast(&mut self, enabled: bool) {
        self.batch_fail_fast = enabled;
    }

    pub fn batch_fail_fast(&self) -> bool {
        self.batch_fail_fast
    }

    /// Queue a query for deferred batch execution. Queued queries run
    /// together — and share work — when [`Session::run_queued`] drains
    /// the queue. Thin one-tenant wrapper over the same
    /// [`admission::AdmissionQueue`] the multi-tenant service uses; the
    /// session queue is unbounded and never closed, so admission cannot
    /// fail here.
    pub fn enqueue(&self, sql: impl Into<String>) {
        let admitted = self.queue.admit(admission::TenantId::local(), sql.into());
        debug_assert!(admitted.is_ok(), "unbounded session queue rejected a query");
    }

    /// Number of queries waiting in the admission queue.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Drain the admission queue and run everything in it as one batch.
    /// The queue is emptied even if planning fails partway (a malformed
    /// query does not wedge the queue).
    pub fn run_queued(&self) -> Result<BatchResult> {
        let sqls: Vec<String> = self
            .queue
            .drain_all()
            .into_iter()
            .map(|e| e.payload)
            .collect();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        self.run_batch(&refs)
    }

    /// Enable or disable workload reuse (cross-query fusion in batches
    /// and shared-subplan cache consultation for single queries).
    /// Independent of [`Session::set_fusion_enabled`], which governs
    /// intra-query fusion.
    pub fn set_reuse_enabled(&mut self, enabled: bool) {
        self.reuse_enabled = enabled;
    }

    pub fn reuse_enabled(&self) -> bool {
        self.reuse_enabled
    }

    /// Replace the reuse configuration (drops the current cache).
    pub fn set_reuse_config(&mut self, cfg: ReuseConfig) {
        self.reuse = ReuseManager::new(cfg);
    }

    /// Live entries in the shared-subplan cache.
    pub fn reuse_cache_len(&self) -> usize {
        self.reuse.cache_len()
    }

    /// Dependency stamps of every live cache entry (tests/diagnostics).
    pub fn reuse_cache_entry_deps(&self) -> Vec<Vec<(String, u64)>> {
        self.reuse.cache_entry_deps()
    }

    /// Drop all cached shared-subplan results and observation counts.
    pub fn clear_reuse_cache(&self) {
        self.reuse.clear_cache();
    }

    /// Render the optimized plan for a SQL query (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let plan = self.plan_sql(sql)?;
        let (optimized, _) = self.optimize(&plan);
        Ok(optimized.display())
    }

    /// Run `EXPLAIN ANALYZE <sql>` and return the rendered text directly
    /// (convenience over [`Session::sql`] with an `EXPLAIN ANALYZE`
    /// prefix).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let initial_plan = self.plan_sql(sql)?;
        let result = self.explain_analyze_plan(initial_plan)?;
        Ok(result
            .rows
            .iter()
            .filter_map(|r| match r.first() {
                Some(Value::Utf8(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n"))
    }
}

/// Append the optimizer-trace, workload-reuse and fallback sections to
/// EXPLAIN output. `metrics` is the execution snapshot for `EXPLAIN
/// ANALYZE` (plain `EXPLAIN` does not execute and passes `None`); any
/// nonzero fault-domain counter is rendered under `-- workload reuse --`.
fn push_trace_sections(text: &mut String, report: &OptimizerReport, metrics: Option<&MetricsSnapshot>) {
    let trace = report.trace.render();
    if !trace.is_empty() {
        text.push_str("-- optimizer trace --\n");
        text.push_str(&trace);
    }
    let faults = metrics.filter(|m| {
        m.batch_query_failures
            + m.shared_group_failures
            + m.consumers_detached
            + m.cache_poison_evictions
            + m.circuit_breaker_trips
            > 0
    });
    let warm = metrics.filter(|m| m.reuse_cache_refreshes + m.subsumption_hits > 0);
    let certs = metrics.filter(|m| {
        m.reuse_certificates_issued + m.reuse_certificates_rejected > 0
    });
    if !report.reuse.is_empty() || faults.is_some() || warm.is_some() || certs.is_some() {
        text.push_str("-- workload reuse --\n");
        for note in &report.reuse {
            text.push_str(note);
            text.push('\n');
        }
        if let Some(m) = warm {
            text.push_str(&format!(
                "incremental reuse: reuse_cache_refreshes={} subsumption_hits={}\n",
                m.reuse_cache_refreshes, m.subsumption_hits,
            ));
        }
        if let Some(m) = certs {
            text.push_str(&format!(
                "reuse prover: certificates_issued={} certificates_rejected={}\n",
                m.reuse_certificates_issued, m.reuse_certificates_rejected,
            ));
        }
        if let Some(m) = faults {
            text.push_str(&format!(
                "fault domains: batch_query_failures={} shared_group_failures={} \
                 consumers_detached={} cache_poison_evictions={} circuit_breaker_trips={}\n",
                m.batch_query_failures,
                m.shared_group_failures,
                m.consumers_detached,
                m.cache_poison_evictions,
                m.circuit_breaker_trips,
            ));
        }
    }
    if let Some(m) = metrics.filter(|m| m.pipelines_compiled > 0) {
        text.push_str("-- pipelines --\n");
        text.push_str(&format!(
            "pipelines_compiled={} batches_elided={} rows_evaluated_vectorized={}\n",
            m.pipelines_compiled, m.batches_elided, m.rows_evaluated_vectorized,
        ));
    }
    if let Some(fallback) = &report.fallback {
        text.push_str("-- fallback --\n");
        text.push_str(fallback);
        text.push('\n');
    }
}

/// One `Value::Utf8` row per line of rendered EXPLAIN text.
fn text_rows(text: &str) -> Vec<Vec<Value>> {
    text.lines().map(|l| vec![Value::Utf8(l.into())]).collect()
}

/// Flatten a profile tree pre-order (the same order `op_id` was
/// allocated in during compilation).
fn flatten_profile(root: &OpProfile) -> Vec<&OpProfile> {
    fn walk<'a>(p: &'a OpProfile, out: &mut Vec<&'a OpProfile>) {
        out.push(p);
        for c in &p.children {
            walk(c, out);
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// Adapts the executor catalog to the SQL planner's schema interface.
struct CatalogProvider<'a>(&'a Catalog);

impl SchemaProvider for CatalogProvider<'_> {
    fn table_schema(&self, name: &str) -> Option<TableSchema> {
        let table = self.0.get(name).ok()?;
        Some(TableSchema {
            columns: table
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.data_type, c.nullable))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::DataType;
    use fusion_exec::table::TableColumn;
    use fusion_exec::TableBuilder;

    fn session() -> Session {
        let mut s = Session::new();
        let mut b = TableBuilder::new(
            "orders",
            vec![
                TableColumn {
                    name: "o_id".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "o_cust".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "o_total".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        for i in 0..20i64 {
            b.add_row(vec![
                Value::Int64(i),
                Value::Int64(i % 4),
                Value::Float64((i % 7) as f64 * 10.0),
            ])
            .unwrap();
        }
        s.register_table(b.build());
        s
    }

    /// Like [`session`] but with `orders` partitioned on `o_id` into
    /// blocks of five rows (4 partitions over 20 rows).
    fn partitioned_session() -> Session {
        let mut s = Session::new();
        let mut b = TableBuilder::new(
            "orders",
            vec![
                TableColumn {
                    name: "o_id".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "o_total".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        )
        .partition_by("o_id", 5)
        .unwrap();
        for i in 0..20i64 {
            b.add_row(vec![Value::Int64(i), Value::Float64((i % 7) as f64 * 10.0)])
                .unwrap();
        }
        s.register_table(b.build());
        s
    }

    #[test]
    fn basic_sql_round_trip() {
        let s = session();
        let r = s
            .sql("SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust ORDER BY o_cust")
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.schema.field(0).name, "o_cust");
        assert!(r.metrics.bytes_scanned > 0);
    }

    #[test]
    fn cte_union_query_fuses() {
        let s = session();
        let sql = "WITH cte AS (SELECT o_id, o_cust, o_total FROM orders) \
                   SELECT o_id FROM cte WHERE o_cust = 1 \
                   UNION ALL SELECT o_id FROM cte WHERE o_total > 30";
        let r = s.sql(sql).unwrap();
        assert!(r.report.fusion_applied, "fusion should fire on the CTE union");
        assert_eq!(r.optimized_plan.scanned_tables().len(), 1);

        // Baseline produces identical results while scanning twice.
        let mut base = session();
        base.set_fusion_enabled(false);
        let rb = base.sql(sql).unwrap();
        assert_eq!(rb.initial_plan.scanned_tables().len(), 2);
        assert_eq!(r.sorted_rows(), rb.sorted_rows());
        assert!(r.metrics.bytes_scanned < rb.metrics.bytes_scanned);
    }

    #[test]
    fn explain_renders_plan() {
        let s = session();
        let text = s.explain("SELECT o_id FROM orders WHERE o_id > 5").unwrap();
        assert!(text.contains("Scan: orders"));
    }

    #[test]
    fn explain_statement_returns_plan_rows_without_executing() {
        let s = session();
        let r = s.sql("EXPLAIN SELECT o_id FROM orders WHERE o_id > 5").unwrap();
        assert_eq!(r.schema.fields().len(), 1);
        assert_eq!(r.schema.field(0).name, "plan");
        assert!(r.profile.is_none(), "EXPLAIN must not execute");
        assert!(s.last_profile().is_none());
        let text = explain_text(&r);
        assert!(text.contains("Scan: orders"), "plan body present: {text}");
        assert!(
            text.contains("-- optimizer trace --"),
            "trace section present: {text}"
        );
    }

    #[test]
    fn explain_analyze_annotates_operators_with_profile() {
        let s = session();
        let sql = "WITH cte AS (SELECT o_id, o_cust, o_total FROM orders) \
                   SELECT o_id FROM cte WHERE o_cust = 1 \
                   UNION ALL SELECT o_id FROM cte WHERE o_total > 30";
        let r = s.sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let profile = r.profile.as_ref().expect("EXPLAIN ANALYZE executes");
        let text = explain_text(&r);
        assert!(text.contains("[id=0"), "root operator annotated: {text}");
        assert!(text.contains("rows_out="), "row counts rendered: {text}");
        assert!(text.contains("wall_ms="), "timings rendered: {text}");
        assert!(
            text.contains("[fuse] Fuse("),
            "fuse attempts traced: {text}"
        );
        // The scan feeding the fused plan really counted its rows. Its
        // rows_out is post-pushdown (the fused disjunctive filter runs
        // inside the scan), so just require it to be nonzero and no
        // larger than the table.
        let counts = profile.row_counts();
        let scan = counts
            .iter()
            .find(|(_, label, _, _)| label.starts_with("Scan"))
            .expect("profile includes the scan");
        assert!(scan.3 > 0 && scan.3 <= 20, "scan row count sane: {scan:?}");
    }

    #[test]
    fn last_profile_round_trips_through_json() {
        use fusion_exec::QueryProfile;
        let s = session();
        s.sql("SELECT o_cust, SUM(o_total) FROM orders GROUP BY o_cust")
            .unwrap();
        let profile = s.last_profile().expect("execution stored a profile");
        let json = profile.to_json();
        let parsed = QueryProfile::from_json(&json).unwrap();
        assert_eq!(parsed, profile, "profile JSON round-trips");
    }

    #[test]
    fn explain_analyze_reports_fallback_cause() {
        use fusion_exec::FaultPolicy;
        let sql = "WITH cte AS (SELECT o_id, o_total FROM orders) \
                   SELECT o_id FROM cte WHERE o_id < 5 \
                   UNION ALL SELECT o_id FROM cte WHERE o_id >= 15";
        let mut s = partitioned_session();
        s.set_fault_policy(FaultPolicy::default().with_poison("orders", 2));
        let r = s.sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert!(r.degraded());
        let text = explain_text(&r);
        assert!(
            text.contains("-- fallback --") && text.contains("FUSION_DATA_CORRUPTION"),
            "fallback section carries the stable code: {text}"
        );
        // The profile describes the baseline plan that actually ran.
        assert!(r.profile.is_some());
    }

    /// Reassemble EXPLAIN output rows into one string.
    fn explain_text(r: &QueryResult) -> String {
        r.rows
            .iter()
            .filter_map(|row| match row.first() {
                Some(Value::Utf8(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The degradation scenario the fault model is built for: the fused
    /// plan scans *more* partitions than either baseline branch (the
    /// shared scan's pushed filter is a disjunction, which cannot prune),
    /// so a poisoned middle partition kills only the fused attempt. The
    /// session falls back to the baseline plan, whose per-branch filters
    /// prune the poison away, and still returns correct rows.
    #[test]
    fn poisoned_partition_degrades_to_baseline() {
        use fusion_exec::FaultPolicy;
        let sql = "WITH cte AS (SELECT o_id, o_total FROM orders) \
                   SELECT o_id FROM cte WHERE o_id < 5 \
                   UNION ALL SELECT o_id FROM cte WHERE o_id >= 15";
        let expected = partitioned_session().sql(sql).unwrap();
        assert!(!expected.degraded());
        assert_eq!(expected.rows.len(), 10);

        let mut s = partitioned_session();
        // Partition 2 holds o_id 10..15 — touched by neither branch.
        s.set_fault_policy(FaultPolicy::default().with_poison("orders", 2));
        let r = s.sql(sql).unwrap();
        assert!(r.degraded(), "fused plan must fall back: {:?}", r.report);
        let reason = r.report.fallback.as_ref().unwrap();
        assert!(
            reason.contains("FUSION_DATA_CORRUPTION"),
            "fallback reason carries the stable code: {reason}"
        );
        assert_eq!(r.metrics.fallbacks, 1);
        assert_eq!(r.sorted_rows(), expected.sorted_rows());
    }

    #[test]
    fn cancelled_session_fails_without_fallback() {
        use fusion_common::FusionError;
        let s = session();
        s.cancel_token().cancel();
        match s.sql("SELECT o_id FROM orders") {
            Err(FusionError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn run_batch_shares_identical_subplans() {
        let s = session();
        let sql = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";
        let single = s.sql(sql).unwrap();
        let batch = s.run_batch(&[sql, sql]).unwrap();
        assert_eq!(batch.results.len(), 2);
        assert!(batch.all_succeeded());
        for (_, r) in batch.successes() {
            assert_eq!(r.sorted_rows(), single.sorted_rows());
            assert!(r.reused(), "reuse notes: {:?}", r.report.reuse);
        }
        assert_eq!(batch.metrics.queries_batched, 2);
        assert_eq!(batch.metrics.shared_subplans_executed, 1);
        assert_eq!(batch.report.shared_executions(), 1);
        assert_eq!(batch.report.consumers_spliced(), 2);
    }

    #[test]
    fn admission_queue_drains_as_one_batch() {
        let s = session();
        let sql = "SELECT o_id FROM orders WHERE o_total > 30";
        s.enqueue(sql);
        s.enqueue(sql);
        assert_eq!(s.queued_len(), 2);
        let batch = s.run_queued().unwrap();
        assert_eq!(s.queued_len(), 0);
        assert_eq!(batch.results.len(), 2);
        assert_eq!(batch.metrics.queries_batched, 2);
        assert_eq!(
            batch.query(0).unwrap().sorted_rows(),
            batch.query(1).unwrap().sorted_rows()
        );
    }

    #[test]
    fn reuse_cache_serves_single_query_after_batch() {
        let s = session();
        let sql = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";
        let batch = s.run_batch(&[sql, sql]).unwrap();
        assert!(batch.metrics.shared_subplans_executed >= 1);
        assert!(s.reuse_cache_len() >= 1, "batch admitted the shared result");
        // A later single query hits the warm cache: no bytes scanned.
        let r = s.sql(sql).unwrap();
        assert_eq!(r.sorted_rows(), batch.query(0).unwrap().sorted_rows());
        assert!(r.reused(), "reuse notes: {:?}", r.report.reuse);
        assert_eq!(r.metrics.reuse_cache_hits, 1);
        assert_eq!(r.metrics.bytes_scanned, 0, "served from cache, no scan");
    }

    #[test]
    fn correlated_subquery_decorrelates_and_windows() {
        let s = session();
        let sql = "SELECT o_id FROM orders o1 \
                   WHERE o1.o_total > (SELECT AVG(o2.o_total) FROM orders o2 \
                                       WHERE o2.o_cust = o1.o_cust)";
        let r = s.sql(sql).unwrap();
        // GroupByJoinToWindow should eliminate the second scan.
        assert!(r.report.fusion_applied);
        assert_eq!(r.optimized_plan.scanned_tables().len(), 1);

        let mut base = session();
        base.set_fusion_enabled(false);
        let rb = base.sql(sql).unwrap();
        assert_eq!(r.sorted_rows(), rb.sorted_rows());
        assert!(!r.rows.is_empty());
    }

    /// Strictness is the session's own configuration, whatever
    /// `FUSION_ANALYZE` says: a session made strict through `set_config`
    /// fails a batch with uncertified reuse rewrites, and a session made
    /// lenient keeps it (the rewrites already reverted to cold execution)
    /// even when the process runs under `FUSION_ANALYZE=strict`.
    #[test]
    fn certificate_rejections_follow_the_session_config() {
        let rejections = vec!["reuse group 0x1: splice rejected by reuse prover".to_string()];
        let mut s = session();
        for strict in [true, false] {
            s.set_config(OptimizerConfig {
                strict_analysis: strict,
                ..OptimizerConfig::default()
            });
            assert_eq!(s.check_certified(&rejections).is_err(), strict);
            assert!(s.check_certified(&[]).is_ok());
        }
    }
}
