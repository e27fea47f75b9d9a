//! The measurement loops: closed loops over `Session::sql`,
//! `Session::run_batch` and `Session::append_table`, and the open loop
//! through `QueryService`. Every response is checked against the
//! reference rows. With a [`Tracer`], each operation is also replayed
//! layer by layer (see `trace.rs`).

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fusion_engine::{BatchResult, Session};
use fusion_exec::metrics::MetricsSnapshot;
use fusion_reuse::ReuseManager;
use fusion_service::{QueryService, ServiceConfig, Ticket};

use crate::stats::{percentile, sorted};
use crate::trace::{replay_batch, replay_sql, Tracer};
use crate::workloads::{
    self, Arrival, Query, ServiceSpec, Shape, Workload, INGEST_VERIFY_EVERY, TENANTS,
};
use crate::world::{comparison_session, reference_rows, rows_match, Rows, World};

/// What a run observed from outside: timings per operation kind and per
/// query, and the attempted/failed counts.
#[derive(Default)]
pub struct Recorder {
    /// Wall milliseconds of each operation, by kind.
    pub kinds: BTreeMap<String, Vec<f64>>,
    /// Latency in milliseconds of each query, from when it was due.
    pub query_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub queries: u64,
    /// `(bytes scanned, queries)` per operation kind, where each operation
    /// reports its own counters (the closed loops).
    pub kind_counts: BTreeMap<String, (u64, u64)>,
    /// Set by the open loop, whose counters are service-wide.
    pub bytes_per_query: Option<f64>,
    /// Degradations the engine reported on its own (fault injection is off).
    pub fallbacks: u64,
    pub retries: u64,
    /// Seconds the throughput is taken over: Σ operation wall in a closed
    /// loop (checking responses is not on the clock), the timed interval
    /// in an open loop.
    pub busy_s: f64,
    pub first_failure: Option<String>,
    /// Named sample series of the traced run (fusion-off and solo timings).
    pub series: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    /// An operation of `kind` that carried `queries` queries, each of
    /// which waited the whole operation.
    fn op(&mut self, kind: &str, wall: Duration, queries: u64, counters: Option<&MetricsSnapshot>) {
        let ms = wall.as_secs_f64() * 1e3;
        self.kinds.entry(kind.to_string()).or_default().push(ms);
        self.query_ms
            .extend(std::iter::repeat_n(ms, queries as usize));
        self.queries += queries;
        self.busy_s += wall.as_secs_f64();
        let per_kind = self.kind_counts.entry(kind.to_string()).or_default();
        per_kind.0 += counters.map_or(0, |c| c.bytes_scanned);
        per_kind.1 += queries;
        if let Some(c) = counters {
            self.count(c);
        }
    }

    fn count(&mut self, counters: &MetricsSnapshot) {
        self.fallbacks += counters.fallbacks;
        self.retries += counters.retries;
    }

    /// One response (or refusal): `Err` says what was wrong with it.
    fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    fn sample(&mut self, series: String, value: f64) {
        self.series.entry(series).or_default().push(value);
    }
}

fn check_rows(kind: &str, rows: Rows, expected: &Rows) -> Result<(), String> {
    if rows_match(rows, expected) {
        Ok(())
    } else {
        Err(format!("{kind}: rows differ from the reference"))
    }
}

/// One operation of a closed loop per call, round-robin.
trait Stepper {
    fn step(&mut self, rec: &mut Recorder, tr: Option<&mut Tracer>);
}

/// Open a traced operation whose root span is the interval just measured
/// around the public call.
fn root_span(tr: &mut Tracer, kind: &str, start: Instant, end: Instant) -> (u64, usize) {
    let op = tr.begin_op();
    let root = tr.push(&format!("op:{kind}"), op, None, start, end);
    tr.ops += 1.0;
    tr.add("op.wall_ms", (end - start).as_secs_f64() * 1e3);
    (op, root)
}

struct Adhoc<'a> {
    world: &'a World,
    pool: &'a [Query],
    next: usize,
    /// Fusion off, everything else equal: the paper's baseline (traced run).
    unfused: Option<Session>,
}

impl Stepper for Adhoc<'_> {
    fn step(&mut self, rec: &mut Recorder, tr: Option<&mut Tracer>) {
        let (i, cycle) = (self.next % self.pool.len(), self.next / self.pool.len());
        self.next += 1;
        let q = &self.pool[i];
        let session = &self.world.session;
        let start = Instant::now();
        let result = session.sql(&q.sql);
        let end = Instant::now();
        let counters = result.as_ref().ok().map(|r| r.metrics);
        rec.op(&q.kind, end - start, 1, counters.as_ref());
        rec.check(match result {
            Ok(r) => check_rows(&q.kind, r.rows, &self.world.expected[i]),
            Err(e) => Err(format!("{}: {e}", q.kind)),
        });
        let Some(tr) = tr else { return };
        let (op, root) = root_span(tr, &q.kind, start, end);
        // The comparisons (one worker, fusion off) triple an operation's
        // cost, so they run on every fourth cycle only.
        let compare = cycle % 4 == 0;
        if let Some(covered) = replay_sql(tr, session, &q.sql, op, root, compare) {
            tr.add("op.covered_ms", covered);
        }
        if let (true, Some(unfused)) = (compare, &self.unfused) {
            let (base, _, base_ms) = tr.time("unfused.sql", op, None, || unfused.sql(&q.sql));
            if let (Ok(base), Some(fused)) = (base, counters) {
                rec.sample(
                    format!("fused_ms:{}", q.kind),
                    (end - start).as_secs_f64() * 1e3,
                );
                rec.sample(format!("unfused_ms:{}", q.kind), base_ms);
                rec.sample(
                    format!("fused_bytes:{}", q.kind),
                    fused.bytes_scanned as f64,
                );
                rec.sample(
                    format!("unfused_bytes:{}", q.kind),
                    base.metrics.bytes_scanned as f64,
                );
            }
        }
    }
}

/// Check each slot of a batch against the reference rows of the pool
/// query it ran. Returns the batch-wide counters.
fn check_batch(
    rec: &mut Recorder,
    batch: fusion_common::Result<BatchResult>,
    queries: &[(&Query, &Rows)],
) -> Option<MetricsSnapshot> {
    match batch {
        Ok(batch) => {
            let counters = batch.metrics;
            for (slot, (q, expected)) in batch.results.into_iter().zip(queries) {
                rec.check(match slot {
                    Ok(r) => check_rows(&q.kind, r.rows, expected),
                    Err(e) => Err(format!("{}: {e}", q.kind)),
                });
            }
            Some(counters)
        }
        Err(e) => {
            for (q, _) in queries {
                rec.check(Err(format!("{}: batch failed: {e}", q.kind)));
            }
            None
        }
    }
}

struct Batch<'a> {
    world: &'a World,
    pool: &'a [Query],
    windows: &'a [(&'static str, Vec<usize>)],
    next: usize,
    /// Stands in for the session's reuse manager in the replay.
    manager: ReuseManager,
    /// Reuse off: what each query costs alone (traced run).
    solo: Option<Session>,
}

impl Stepper for Batch<'_> {
    fn step(&mut self, rec: &mut Recorder, tr: Option<&mut Tracer>) {
        let (name, members) = &self.windows[self.next % self.windows.len()];
        self.next += 1;
        let session = &self.world.session;
        let sqls: Vec<&str> = members.iter().map(|&i| self.pool[i].sql.as_str()).collect();
        // Cold cache every window: sharing is found and paid for each time.
        session.clear_reuse_cache();
        let start = Instant::now();
        let batch = session.run_batch(&sqls);
        let end = Instant::now();
        let queries: Vec<_> = members
            .iter()
            .map(|&i| (&self.pool[i], &self.world.expected[i]))
            .collect();
        let counters = check_batch(rec, batch, &queries);
        rec.op(name, end - start, sqls.len() as u64, counters.as_ref());
        let Some(tr) = tr else { return };
        let (op, root) = root_span(tr, name, start, end);
        self.manager.clear_cache();
        if let Some(covered) = replay_batch(tr, session, &self.manager, &sqls, op, root) {
            tr.add("op.covered_ms", covered);
        }
        if let Some(solo) = &self.solo {
            rec.sample(
                format!("window_ms:{name}"),
                (end - start).as_secs_f64() * 1e3,
            );
            let mut alone = 0.0;
            for sql in &sqls {
                let (result, _, ms) = tr.time("solo.sql", op, None, || solo.sql(sql));
                if result.is_ok() {
                    alone += ms;
                }
            }
            rec.sample(format!("solo_ms:{name}"), alone);
        }
    }
}

struct Ingest<'a> {
    world: &'a mut World,
    pool: &'a [Query],
    /// Pool indices of the dashboard run after every append.
    dashboard: &'a [usize],
    seed: u64,
    round: u64,
    appended: bool,
    /// Stands in for the session's reuse manager in the replay; kept
    /// across rounds, as the session's is, so it is refreshed in place too.
    manager: ReuseManager,
}

impl Stepper for Ingest<'_> {
    fn step(&mut self, rec: &mut Recorder, tr: Option<&mut Tracer>) {
        let world = &mut *self.world;
        if !self.appended {
            self.appended = true;
            self.round += 1;
            let cfg = &world.config;
            let rows = workloads::append_rows(
                self.seed,
                self.round,
                cfg.items(),
                cfg.customers(),
                cfg.stores(),
            );
            // The oracle ingests the same rows, off the clock.
            let mirrored = world.reference.append_table("store_sales", rows.clone());
            let start = Instant::now();
            let result = world.session.append_table("store_sales", rows);
            let end = Instant::now();
            rec.op("append", end - start, 0, None);
            rec.check(
                result
                    .and(mirrored)
                    .map(|_| ())
                    .map_err(|e| format!("append: {e}")),
            );
            if let Some(tr) = tr {
                // `append_table` has no public parts to replay: its time
                // is all charged to `engine` (which here includes the
                // partition building in `exec::table`).
                root_span(tr, "append", start, end);
            }
            return;
        }
        self.appended = false;
        let dashboard: Vec<&Query> = self.dashboard.iter().map(|&i| &self.pool[i]).collect();
        let sqls: Vec<&str> = dashboard.iter().map(|q| q.sql.as_str()).collect();
        let start = Instant::now();
        let batch = world.session.run_batch(&sqls);
        let end = Instant::now();
        let counters = if self.round.is_multiple_of(INGEST_VERIFY_EVERY) {
            let recomputed: Vec<Rows> = dashboard
                .iter()
                .map(|q| reference_rows(&world.reference, q).unwrap_or_default())
                .collect();
            let queries: Vec<_> = dashboard.iter().copied().zip(&recomputed).collect();
            check_batch(rec, batch, &queries)
        } else {
            // Unverified rounds still count errors and refusals.
            match batch {
                Ok(batch) => {
                    for (slot, q) in batch.results.iter().zip(&dashboard) {
                        rec.check(
                            slot.as_ref()
                                .map(|_| ())
                                .map_err(|e| format!("{}: {e}", q.kind)),
                        );
                    }
                    Some(batch.metrics)
                }
                Err(e) => {
                    rec.check(Err(format!("dash: batch failed: {e}")));
                    None
                }
            }
        };
        rec.op("dash", end - start, sqls.len() as u64, counters.as_ref());
        if let Some(tr) = tr {
            let (op, root) = root_span(tr, "dash", start, end);
            if let Some(covered) = replay_batch(tr, &world.session, &self.manager, &sqls, op, root)
            {
                tr.add("op.covered_ms", covered);
            }
        }
    }
}

fn closed_loop(
    stepper: &mut dyn Stepper,
    warmup: Duration,
    timed: Duration,
    mut tr: Option<&mut Tracer>,
) -> Recorder {
    // Warm-up fills caches and lazy state; only its failures are kept.
    let mut warm = Recorder::default();
    let end = Instant::now() + warmup;
    while Instant::now() < end {
        stepper.step(&mut warm, None);
    }
    let mut rec = Recorder {
        attempted: warm.attempted,
        failed: warm.failed,
        first_failure: warm.first_failure,
        ..Recorder::default()
    };
    let end = Instant::now() + timed;
    while Instant::now() < end {
        stepper.step(&mut rec, tr.as_deref_mut());
    }
    rec
}

/// What only an open loop reports. Informational, except that an invalid
/// run fails the suite.
pub struct ServiceInfo {
    pub offered_qps: f64,
    /// How late the generator submitted, p95 in milliseconds.
    pub gen_lag_p95_ms: f64,
    /// `QueryService::queued_total()` after the last submission.
    pub backlog_end: usize,
    /// False if the generator lagged by more than a third of the median
    /// latency or the backlog outgrew two windows: the numbers then
    /// describe the generator or a diverging queue, not the service.
    pub valid: bool,
    pub refused: u64,
    pub windows: u64,
    pub mean_occupancy: f64,
    pub share_rate: f64,
    pub queue_wait_mean_ms: f64,
    pub queue_wait_max_ms: f64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub shared_executed: u64,
}

struct Done {
    arrival: usize,
    at: Instant,
    verdict: Result<(), String>,
}

/// Snapshot pair taken by the generator when the timed interval begins.
struct Boundary {
    service: MetricsSnapshot,
    execution: MetricsSnapshot,
}

fn open_loop(
    world: World,
    workload: &Workload,
    spec: ServiceSpec,
    seed: u64,
    warmup: Duration,
    timed: Duration,
    mut tr: Option<&mut Tracer>,
) -> (Recorder, ServiceInfo) {
    let World {
        session, expected, ..
    } = world;
    let pool = &workload.pool;
    let warmup_s = warmup.as_secs_f64();
    let arrivals = workloads::schedule(
        seed,
        spec.rate_qps,
        spec.zipf,
        pool.len(),
        warmup_s,
        timed.as_secs_f64(),
    );
    let service = QueryService::start(Arc::new(session), ServiceConfig::default());
    let clients: Vec<_> = (0..TENANTS)
        .map(|t| service.client(format!("tenant-{t}").as_str()))
        .collect();
    // Fill the reuse cache before the clock starts. The cache admits a
    // result only when a window shares it, so every template is submitted
    // twice in a row, two rounds over. A cold start at a high offered rate
    // builds a backlog that outlasts the warm-up interval.
    let mut prewarm = Recorder::default();
    for _ in 0..2 {
        let twice = || pool.iter().zip(&expected).flat_map(|pair| [pair, pair]);
        let tickets: Vec<_> = twice()
            .enumerate()
            .map(|(i, (q, _))| clients[i % TENANTS].submit(q.sql.clone()))
            .collect();
        for ((q, rows), ticket) in twice().zip(tickets) {
            prewarm.check(match ticket.and_then(Ticket::wait) {
                Ok(r) => check_rows(&q.kind, r.rows, rows),
                Err(e) => Err(format!("{}: {e}", q.kind)),
            });
        }
    }
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |a: &Arrival| t0 + Duration::from_secs_f64(a.due_s);

    // One generator that never waits for a result, and one collector per
    // tenant: the service answers each tenant in submission order, so a
    // collector waiting in order stamps every completion when it happens.
    // (A single in-order collector would stamp late whenever the
    // weighted-fair packer serves tenants out of arrival order.)
    let (done, lags, refused, boundary, backlog_end) = std::thread::scope(|scope| {
        let (senders, collectors): (Vec<_>, Vec<_>) = (0..TENANTS)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
                let (arrivals, expected) = (&arrivals, &expected);
                let collector = scope.spawn(move || {
                    let mut out = Vec::new();
                    for (arrival, ticket) in rx {
                        let result = ticket.wait();
                        let at = Instant::now();
                        let q = arrivals[arrival].query;
                        let verdict = match result {
                            Ok(r) => check_rows(&pool[q].kind, r.rows, &expected[q]),
                            Err(e) => Err(format!("{}: {e}", pool[q].kind)),
                        };
                        out.push(Done {
                            arrival,
                            at,
                            verdict,
                        });
                    }
                    out
                });
                (tx, collector)
            })
            .unzip();
        let generator = scope.spawn(|| {
            let mut lags = Vec::with_capacity(arrivals.len());
            let mut refused = Vec::new();
            let mut boundary = None;
            for (i, a) in arrivals.iter().enumerate() {
                let sql = pool[a.query].sql.clone();
                let due = due(a);
                // Sleep in steps of at most a millisecond: after a long
                // sleep an idle virtual CPU wakes up to a millisecond late.
                while let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait.min(Duration::from_millis(1)));
                }
                if boundary.is_none() && a.due_s >= warmup_s {
                    boundary = Some(Boundary {
                        service: service.service_metrics(),
                        execution: service.execution_metrics(),
                    });
                }
                let at = Instant::now();
                match clients[a.tenant].submit(sql) {
                    Ok(ticket) => senders[a.tenant]
                        .send((i, ticket))
                        .expect("collector outlives the generator"),
                    Err(e) => refused.push((i, e.to_string())),
                }
                lags.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            let backlog_end = service.queued_total();
            drop(senders);
            (lags, refused, boundary, backlog_end)
        });
        let (lags, refused, boundary, backlog_end) =
            generator.join().expect("generator thread panicked");
        let done: Vec<Done> = collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread panicked"))
            .collect();
        (done, lags, refused, boundary, backlog_end)
    });

    let after_service = service.service_metrics();
    let after_execution = service.execution_metrics();
    let boundary = boundary.unwrap_or(Boundary {
        service: after_service,
        execution: after_execution,
    });
    let in_service = after_service.delta_since(&boundary.service);
    let in_execution = after_execution.delta_since(&boundary.execution);
    let answered = after_service.window_occupancy;

    // Throughput is taken from the start of the timed interval to the last
    // completion.
    let timed_start = t0 + warmup;
    let last_done = done.iter().map(|d| d.at).max().unwrap_or(timed_start);
    let mut rec = Recorder {
        busy_s: last_done
            .saturating_duration_since(timed_start)
            .as_secs_f64(),
        ..prewarm
    };
    // Bytes are counted over the service's whole life, pre-warming
    // included: once the cache is warm a query scans nothing, and the
    // metric is what filling and keeping it warm cost per query answered.
    rec.count(&after_execution);
    rec.bytes_per_query = Some(after_execution.bytes_scanned as f64 / answered.max(1) as f64);
    for (i, why) in refused {
        rec.check(Err(format!(
            "{}: refused: {why}",
            pool[arrivals[i].query].kind
        )));
    }
    let mut timed_queries = Vec::new();
    for d in done {
        rec.check(d.verdict);
        let a = &arrivals[d.arrival];
        if a.due_s < warmup_s {
            continue;
        }
        let ms = d.at.saturating_duration_since(due(a)).as_secs_f64() * 1e3;
        rec.kinds
            .entry(pool[a.query].kind.clone())
            .or_default()
            .push(ms);
        rec.query_ms.push(ms);
        rec.queries += 1;
        timed_queries.push(a.query);
        if let Some(tr) = tr.as_deref_mut() {
            let op = tr.begin_op();
            tr.push(
                &format!("op:{}", pool[a.query].kind),
                op,
                None,
                due(a),
                d.at,
            );
        }
    }

    let timed_lags = sorted(&lags[arrivals.iter().take_while(|a| a.due_s < warmup_s).count()..]);
    let gen_lag_p95_ms = if timed_lags.is_empty() {
        0.0
    } else {
        percentile(&timed_lags, 95.0)
    };
    let latency_p50 = if rec.query_ms.is_empty() {
        0.0
    } else {
        percentile(&sorted(&rec.query_ms), 50.0)
    };
    let max_window = ServiceConfig::default().admission.max_window_queries;
    let per = |total: u64, n: u64| if n > 0 { total as f64 / n as f64 } else { 0.0 };
    let info = ServiceInfo {
        offered_qps: spec.rate_qps,
        gen_lag_p95_ms,
        backlog_end,
        valid: gen_lag_p95_ms <= latency_p50 / 3.0 && backlog_end <= 2 * max_window,
        refused: in_service.queries_rejected,
        windows: in_service.windows_dispatched,
        mean_occupancy: per(in_service.window_occupancy, in_service.windows_dispatched),
        share_rate: per(
            in_service.queries_coalesced_shared,
            in_service.queries_admitted,
        ),
        queue_wait_mean_ms: per(in_service.queue_wait_nanos, in_service.window_occupancy) / 1e6,
        queue_wait_max_ms: after_service.queue_wait_nanos_max as f64 / 1e6,
        cache_hits: in_execution.reuse_cache_hits,
        cache_evictions: in_execution.reuse_cache_evictions,
        shared_executed: in_execution.shared_subplans_executed,
    };

    if let Some(tr) = tr {
        replay_windows(tr, &service, pool, &timed_queries, &info, spec);
    }
    service.shutdown();
    (rec, info)
}

/// The traced half of a service run. The service's windows cannot be
/// seen from outside, so after the open loop the benchmark re-forms
/// windows of the observed mean occupancy from the queries it sent, in
/// order, runs each through `Session::run_batch` on the service's own
/// (warm) session as the root span, and replays it layer by layer. The
/// sums are per window: a query waits for its whole window.
fn replay_windows(
    tr: &mut Tracer,
    service: &QueryService,
    pool: &[Query],
    sent: &[usize],
    info: &ServiceInfo,
    spec: ServiceSpec,
) {
    let session = service.session();
    let manager = ReuseManager::new(spec.reuse_config());
    // Warm the replay's cache as the service's was: every template twice
    // in a window, two rounds over. These spans and sums are discarded.
    let mut warming = Tracer::new();
    for _ in 0..2 {
        for chunk in pool.chunks(4) {
            let sqls: Vec<&str> = chunk.iter().flat_map(|q| [q.sql.as_str(); 2]).collect();
            let op = warming.begin_op();
            let root = warming.push("replay:warm", op, None, Instant::now(), Instant::now());
            replay_batch(&mut warming, session, &manager, &sqls, op, root);
        }
    }
    let size = (info.mean_occupancy.round() as usize).max(1);
    let budget = Instant::now() + Duration::from_secs(3);
    for window in sent.chunks(size) {
        if Instant::now() >= budget {
            break;
        }
        let sqls: Vec<&str> = window.iter().map(|&q| pool[q].sql.as_str()).collect();
        let start = Instant::now();
        let batch = session.run_batch(&sqls);
        let end = Instant::now();
        if batch.is_err() {
            continue;
        }
        let op = tr.begin_op();
        let root = tr.push("replay:window", op, None, start, end);
        tr.ops += 1.0;
        tr.add("op.wall_ms", (end - start).as_secs_f64() * 1e3);
        if let Some(covered) = replay_batch(tr, session, &manager, &sqls, op, root) {
            tr.add("op.covered_ms", covered);
        }
    }
}

/// Run `workload` for `warmup` untimed then `timed`, with or without a
/// tracer. Consumes the world: the service takes the session over.
pub fn run(
    mut world: World,
    workload: &Workload,
    seed: u64,
    warmup: Duration,
    timed: Duration,
    tr: Option<&mut Tracer>,
) -> (Recorder, Option<ServiceInfo>) {
    let traced = tr.is_some();
    match &workload.shape {
        Shape::Adhoc => {
            let unfused =
                traced.then(|| comparison_session(&world.session, |s| s.set_fusion_enabled(false)));
            let mut stepper = Adhoc {
                world: &world,
                pool: &workload.pool,
                next: 0,
                unfused,
            };
            (closed_loop(&mut stepper, warmup, timed, tr), None)
        }
        Shape::Batch(windows) => {
            let solo = traced.then(|| comparison_session(&world.session, |_| {}));
            let mut stepper = Batch {
                world: &world,
                pool: &workload.pool,
                windows,
                next: 0,
                manager: ReuseManager::default(),
                solo,
            };
            (closed_loop(&mut stepper, warmup, timed, tr), None)
        }
        Shape::Ingest(dashboard) => {
            let mut stepper = Ingest {
                world: &mut world,
                pool: &workload.pool,
                dashboard,
                seed,
                round: 0,
                appended: false,
                manager: ReuseManager::default(),
            };
            (closed_loop(&mut stepper, warmup, timed, tr), None)
        }
        Shape::Service(spec) => {
            let (rec, info) = open_loop(world, workload, *spec, seed, warmup, timed, tr);
            (rec, Some(info))
        }
    }
}

/// Closed-loop capacity probe of a service workload's configuration:
/// `clients` threads each submit-and-wait for `seconds`, drawing queries
/// as the workload does. Returns completed queries per second. Used once,
/// by `--calibrate`, to choose the frozen offered rates.
pub fn capacity(world: World, workload: &Workload, seed: u64, clients: usize, seconds: f64) -> f64 {
    let Shape::Service(ServiceSpec { zipf, .. }) = &workload.shape else {
        return 0.0;
    };
    let pool = &workload.pool;
    let service = QueryService::start(Arc::new(world.session), ServiceConfig::default());
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    // Half the interval warms the cache; the second half is counted.
    let counted_from = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let completed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = service.client(format!("tenant-{}", c % TENANTS).as_str());
                // A long pre-drawn sequence per client, wrapped around.
                let draws =
                    workloads::schedule(seed + c as u64, 1000.0, *zipf, pool.len(), 0.0, 20.0);
                scope.spawn(move || {
                    let mut n = 0;
                    for a in draws.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        if client.query(pool[a.query].sql.clone()).is_ok()
                            && Instant::now() >= counted_from
                        {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum()
    });
    service.shutdown();
    completed as f64 / (seconds / 2.0)
}
