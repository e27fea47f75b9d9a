//! Multi-tenant query service: admission control + batch-window
//! coalescing over the fusion engine.
//!
//! The engine's reuse-via-fusion wins only materialize when many queries
//! execute together, but [`fusion_engine::Session::run_batch`] makes the
//! *caller* assemble the batch. This crate closes that gap with a
//! long-running front end:
//!
//! ```text
//! ClientHandle::submit ──▶ admission (caps, budget) ──▶ AdmissionQueue
//!                                                           │
//!                        dispatcher thread, whenever free: ◀┘
//!                        pack what is parked (parks itself only
//!                        while the queue is empty; at most
//!                        max_window_queries, weighted-fair)
//!                                    │
//!                          Session::run_batch(window)
//!                         (reuse groups, shared cache,
//!                          circuit breaker — all fire here)
//!                                    │
//!                 per-slot results routed back to each waiter
//!                 (typed errors stay in their slot; per-tenant
//!                  metrics deltas absorbed into tenant snapshots)
//! ```
//!
//! Dispatch is batch-while-busy: an idle service runs a lone query at
//! once, and whatever arrives while a window executes becomes the next
//! window, so occupancy rises with load and no query waits on a timer.
//! Queries from *different tenants* that land in the same window share
//! work exactly like a hand-assembled batch would: group formation is
//! plan-driven and tenant-blind, while accounting and governance are
//! tenant-scoped. See DESIGN.md §17 for the architecture.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use fusion_common::{FusionError, Result};
use fusion_engine::{QueryResult, Session};
use fusion_exec::metrics::{MetricsSnapshot, StateReservation};
use fusion_exec::ExecMetrics;

mod admission;
mod tenant;
pub mod wire;

use admission::{Admitted, AdmissionQueue};
pub use admission::{AdmissionConfig, TenantId};
pub use tenant::TenantConfig;
use tenant::TenantState;

/// Service-wide configuration: window formation plus per-tenant
/// governance defaults and overrides.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Window formation (`max_window_queries`). Per-tenant queue caps
    /// are governed by [`TenantConfig::max_queued`]; leave
    /// [`AdmissionConfig::max_queued_per_tenant`] at 0 here.
    pub admission: AdmissionConfig,
    /// Governance applied to tenants without an explicit override.
    pub default_tenant: TenantConfig,
    /// Per-tenant governance overrides, keyed by tenant name.
    pub tenant_overrides: Vec<(String, TenantConfig)>,
    /// Bytes charged against a tenant's memory budget for each admitted
    /// query, held from admission until its response is routed.
    pub per_query_memory_cost: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            default_tenant: TenantConfig::default(),
            tenant_overrides: Vec::new(),
            per_query_memory_cost: 1 << 20,
        }
    }
}

impl ServiceConfig {
    fn tenant_config(&self, tenant: &TenantId) -> TenantConfig {
        self.tenant_overrides
            .iter()
            .find(|(name, _)| name == tenant.as_str())
            .map(|(_, cfg)| cfg.clone())
            .unwrap_or_else(|| self.default_tenant.clone())
    }

    /// Register a governance override for one tenant.
    pub fn with_tenant(mut self, name: impl Into<String>, cfg: TenantConfig) -> Self {
        self.tenant_overrides.push((name.into(), cfg));
        self
    }
}

/// One parked query: its SQL, the waiter's response channel, and the
/// tenant-budget reservation held until the response is routed.
struct Job {
    sql: String,
    responder: mpsc::SyncSender<Result<QueryResult>>,
    /// Dropping the job releases the tenant's admission-level memory
    /// charge ([`ServiceConfig::per_query_memory_cost`]).
    _reservation: Option<StateReservation>,
}

/// A submitted query's claim on its future result.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryResult>>,
}

impl Ticket {
    /// Block until the query's window executes and its slot is routed
    /// back. Never hangs: graceful shutdown drains every parked query,
    /// and a torn-down dispatcher surfaces as a typed internal error
    /// rather than a stuck waiter.
    pub fn wait(self) -> Result<QueryResult> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(FusionError::Internal("query service dropped the response channel".into())))
    }
}

struct Inner {
    session: Arc<Session>,
    queue: AdmissionQueue<Job>,
    config: ServiceConfig,
    tenants: Mutex<HashMap<TenantId, TenantState>>,
    /// Held by the dispatcher while it forms a window, and by
    /// [`QueryService::hold`] to keep a backlog parked meanwhile.
    gate: Mutex<()>,
    /// Service-wide admission/window counters (tenant-scoped copies live
    /// in each [`TenantState`]'s governance sink).
    metrics: Arc<ExecMetrics>,
    /// Service-wide execution counters: each window's batch-wide metrics
    /// (shared executions, cache hits, scans — a fresh per-batch sink in
    /// the engine) absorbed across windows.
    execution: Mutex<MetricsSnapshot>,
}

impl Inner {
    fn new(session: Arc<Session>, config: ServiceConfig) -> Arc<Self> {
        Arc::new(Inner {
            session,
            queue: AdmissionQueue::new(config.admission.clone()),
            config,
            tenants: Mutex::new(HashMap::new()),
            gate: Mutex::new(()),
            metrics: ExecMetrics::new(),
            execution: Mutex::new(MetricsSnapshot::default()),
        })
    }

    fn lock_tenants(&self) -> MutexGuard<'_, HashMap<TenantId, TenantState>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission: cap + budget checks, then park the job. O(1): the SQL
    /// is not looked at on the caller's thread. Lock order is strictly
    /// tenants → queue, here and in [`Inner::form_window`].
    fn submit(&self, tenant: TenantId, sql: String) -> Result<Ticket> {
        let (tenant_metrics, reservation) = {
            let mut tenants = self.lock_tenants();
            let state = tenants
                .entry(tenant.clone())
                .or_insert_with(|| TenantState::new(self.config.tenant_config(&tenant)));
            let cap = state.config.max_queued;
            if cap > 0 && state.queued >= cap {
                state.metrics.add_query_rejected();
                self.metrics.add_query_rejected();
                return Err(FusionError::AdmissionRejected {
                    tenant: tenant.to_string(),
                    reason: format!("queue depth cap reached ({cap} queries parked)"),
                });
            }
            let reservation = match state.config.memory_budget {
                Some(budget) => {
                    let cost = self.config.per_query_memory_cost as i64;
                    match StateReservation::with_enforced_budget(state.metrics.clone(), cost, budget) {
                        Ok(r) => Some(r),
                        Err(FusionError::ResourceExhausted { budget, requested }) => {
                            state.metrics.add_query_rejected();
                            self.metrics.add_query_rejected();
                            return Err(FusionError::AdmissionRejected {
                                tenant: tenant.to_string(),
                                reason: format!(
                                    "memory budget exhausted ({requested} bytes outstanding against a {budget}-byte budget)"
                                ),
                            });
                        }
                        Err(other) => return Err(other),
                    }
                }
                None => None,
            };
            state.queued += 1;
            (state.metrics.clone(), reservation)
        };
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            sql,
            responder: tx,
            _reservation: reservation,
        };
        if let Err(err) = self.queue.admit(tenant.clone(), job) {
            let mut tenants = self.lock_tenants();
            if let Some(state) = tenants.get_mut(&tenant) {
                state.queued = state.queued.saturating_sub(1);
                state.metrics.add_query_rejected();
            }
            self.metrics.add_query_rejected();
            return Err(err);
        }
        tenant_metrics.add_query_admitted();
        self.metrics.add_query_admitted();
        Ok(Ticket { rx })
    }

    /// Pack the next window from whatever is parked and move its queries
    /// from queued to in flight. Each tenant's share is proportional to
    /// its weight among the tenants with queries parked *now* (never
    /// below one slot) and capped by its `max_inflight`. The tenant map
    /// stays locked across the pack, so quotas, lanes and counts are one
    /// consistent view and every parked tenant is in the map.
    fn form_window(&self) -> Vec<Admitted<Job>> {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let mut tenants = self.lock_tenants();
        let total_weight: usize = tenants
            .values()
            .filter(|s| s.queued > 0)
            .map(|s| s.config.weight.max(1))
            .sum::<usize>()
            .max(1);
        let base = (self.config.admission.max_window_queries / total_weight).max(1);
        let quota_for = |cfg: &TenantConfig| {
            let q = cfg.weight.max(1).saturating_mul(base);
            if cfg.max_inflight > 0 {
                q.min(cfg.max_inflight)
            } else {
                q
            }
        };
        let window = self
            .queue
            .pack_window(|t| tenants.get(t).map_or(1, |s| quota_for(&s.config)));
        let dispatched_at = Instant::now();
        for entry in &window {
            let wait = dispatched_at
                .saturating_duration_since(entry.enqueued_at)
                .as_nanos() as u64;
            self.metrics.add_queue_wait_nanos(wait);
            if let Some(state) = tenants.get_mut(&entry.tenant) {
                state.metrics.add_queue_wait_nanos(wait);
                state.queued = state.queued.saturating_sub(1);
                state.inflight += 1;
            }
        }
        self.metrics.add_window_dispatched(window.len() as u64);
        window
    }

    /// Execute one window through the engine's batch path and route each
    /// slot back to its waiter. Typed per-query errors stay in
    /// their slot; a batch-wide failure (fail-fast, strict mode) is
    /// cloned to every waiter in the window.
    fn run_window(&self, window: Vec<Admitted<Job>>) {
        let sqls: Vec<&str> = window.iter().map(|e| e.payload.sql.as_str()).collect();
        let batch = self.session.run_batch(&sqls);
        // One `Result` per slot: a batch-wide failure is every slot's.
        let slots: Vec<Result<QueryResult>> = match batch {
            Ok(batch) => {
                self.execution
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .absorb(&batch.metrics);
                let results = batch.results.into_iter();
                results.map(|slot| slot.map_err(|failure| failure.error)).collect()
            }
            Err(err) => vec![Err(err); window.len()],
        };
        let mut tenants = self.lock_tenants();
        let mut window_deltas: HashMap<TenantId, MetricsSnapshot> = HashMap::new();
        for (entry, slot) in window.into_iter().zip(slots) {
            if let Some(state) = tenants.get_mut(&entry.tenant) {
                state.inflight = state.inflight.saturating_sub(1);
                if let Ok(result) = &slot {
                    if result.reused() {
                        self.metrics.add_query_coalesced_shared();
                        state.metrics.add_query_coalesced_shared();
                    }
                    // Slot metrics are per-query deltas (batch
                    // fault-domain semantics), so absorbing them keeps
                    // tenant snapshots free of other tenants' counters.
                    state.cumulative.absorb(&result.metrics);
                    window_deltas
                        .entry(entry.tenant.clone())
                        .or_default()
                        .absorb(&result.metrics);
                }
            }
            let _ = entry.payload.responder.send(slot);
        }
        for (tenant, delta) in window_deltas {
            if let Some(state) = tenants.get_mut(&tenant) {
                state.last_window = Some(delta);
            }
        }
    }

    /// Batch-while-busy: park only while nothing is queued; otherwise
    /// run what is there. Arrivals during `run_window` form the next
    /// window. Ends once the queue is closed and fully drained, when
    /// every waiter has its response.
    fn dispatch_loop(&self) {
        while self.queue.wait_nonempty() {
            let window = self.form_window();
            self.run_window(window);
        }
    }
}

/// The dispatcher's exit guard, owned by its thread's closure. However
/// the dispatcher ends — queue closed and drained, a panic inside a
/// window, or a thread that never spawned (the unrun closure is dropped,
/// and the guard with it) — no [`Ticket`] is left waiting: the queue is
/// closed, so later `submit`s are refused, and every job still parked is
/// answered with a typed internal error.
struct DispatcherExit(Arc<Inner>);

impl Drop for DispatcherExit {
    fn drop(&mut self) {
        self.0.queue.close();
        loop {
            let parked = self.0.queue.pack_window(|_| usize::MAX);
            if parked.is_empty() {
                break;
            }
            for entry in parked {
                let _ = entry.payload.responder.send(Err(FusionError::Internal(
                    "query service dispatcher exited before running this query".into(),
                )));
            }
        }
    }
}

/// The long-running, multi-tenant query front end. Owns the dispatcher
/// thread; hand out per-tenant [`ClientHandle`]s with
/// [`QueryService::client`].
pub struct QueryService {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl QueryService {
    /// Start the service over a fully-configured session (register tables
    /// *before* wrapping it in `Arc` — the catalog is immutable once
    /// shared). Spawns the dispatcher thread immediately.
    pub fn start(session: Arc<Session>, config: ServiceConfig) -> Self {
        let inner = Inner::new(session, config);
        let exit = DispatcherExit(Arc::clone(&inner));
        let dispatcher = std::thread::Builder::new()
            .name("fusion-service-dispatcher".into())
            .spawn(move || {
                // Bind the whole guard, so it drops with this closure
                // whether the closure runs, unwinds or is never run.
                let exit = exit;
                exit.0.dispatch_loop();
            })
            .ok();
        QueryService {
            inner,
            dispatcher: Mutex::new(dispatcher),
        }
    }

    /// A client handle bound to one tenant. Handles are cheap; spawn one
    /// per connection/thread.
    pub fn client(&self, tenant: impl Into<TenantId>) -> ClientHandle {
        ClientHandle {
            inner: Arc::clone(&self.inner),
            tenant: tenant.into(),
        }
    }

    /// Hold the dispatcher between windows: a window already executing
    /// finishes, but the next one is not formed until the guard drops, so
    /// everything submitted meanwhile leaves as one backlog. Drop the
    /// guard before calling [`QueryService::shutdown`], which waits for
    /// the dispatcher.
    pub fn hold(&self) -> MutexGuard<'_, ()> {
        self.inner.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared engine session (for catalog inspection in tests/bench).
    pub fn session(&self) -> &Arc<Session> {
        &self.inner.session
    }

    /// Total queries currently parked in the admission queue.
    pub fn queued_total(&self) -> usize {
        self.inner.queue.len()
    }

    /// Service-wide admission/window counters.
    pub fn service_metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Service-wide execution counters: every window's batch-wide
    /// metrics (shared-subplan executions, cache hits, scan volume)
    /// absorbed across windows. Shared work is accounted here — it
    /// belongs to the window, not to any single tenant's slot.
    pub fn execution_metrics(&self) -> MetricsSnapshot {
        *self.inner.execution.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One tenant's cumulative view: execution deltas absorbed from its
    /// own batch slots plus its governance counters — never another
    /// tenant's numbers. `None` until the tenant has submitted.
    pub fn tenant_metrics(&self, tenant: &TenantId) -> Option<MetricsSnapshot> {
        let tenants = self.inner.lock_tenants();
        tenants.get(tenant).map(|s| {
            let mut merged = s.cumulative;
            merged.absorb(&s.metrics.snapshot());
            merged
        })
    }

    /// The per-tenant execution delta of the most recent window that
    /// carried this tenant's queries (`delta_since`-based: each slot's
    /// metrics are already per-query deltas).
    pub fn tenant_window_metrics(&self, tenant: &TenantId) -> Option<MetricsSnapshot> {
        let tenants = self.inner.lock_tenants();
        tenants.get(tenant).and_then(|s| s.last_window)
    }

    /// Graceful shutdown: refuse new admissions, drain every parked query
    /// through final windows, route all responses, then join the
    /// dispatcher. No waiter is lost or left hanging.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        let handle = {
            let mut guard = self.dispatcher.lock().unwrap_or_else(PoisonError::into_inner);
            guard.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// The `-- service --` report: EXPLAIN ANALYZE-style rendering of the
    /// admission, window, and fairness counters, with one line per
    /// tenant (sorted for stable output).
    pub fn service_report(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.service_metrics();
        let mut out = String::new();
        out.push_str("-- service --\n");
        let share_pct = if snap.queries_admitted > 0 {
            100.0 * snap.queries_coalesced_shared as f64 / snap.queries_admitted as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "queries: admitted={} rejected={} coalesced_shared={} ({share_pct:.1}% share rate)",
            snap.queries_admitted, snap.queries_rejected, snap.queries_coalesced_shared
        );
        let mean_occ = if snap.windows_dispatched > 0 {
            snap.window_occupancy as f64 / snap.windows_dispatched as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "windows: dispatched={} mean_occupancy={mean_occ:.1}",
            snap.windows_dispatched
        );
        let _ = writeln!(
            out,
            "queue wait: total={:.3}ms mean={:.3}ms max={:.3}ms",
            snap.queue_wait_nanos as f64 / 1e6,
            snap.queue_wait_nanos as f64 / 1e6 / snap.window_occupancy.max(1) as f64,
            snap.queue_wait_nanos_max as f64 / 1e6
        );
        let exec = self.execution_metrics();
        let _ = writeln!(
            out,
            "engine: shared_subplans_executed={} cache_hits={} subsumption_hits={} scanned={}B",
            exec.shared_subplans_executed,
            exec.reuse_cache_hits,
            exec.subsumption_hits,
            exec.bytes_scanned
        );
        let tenants = self.inner.lock_tenants();
        let mut names: Vec<&TenantId> = tenants.keys().collect();
        names.sort();
        for name in names {
            if let Some(state) = tenants.get(name) {
                let gov = state.metrics.snapshot();
                let _ = writeln!(
                    out,
                    "tenant {name}: admitted={} rejected={} coalesced_shared={} queued={} inflight={} \
                     wait_max={:.3}ms rows={} scanned={}B",
                    gov.queries_admitted,
                    gov.queries_rejected,
                    gov.queries_coalesced_shared,
                    state.queued,
                    state.inflight,
                    gov.queue_wait_nanos_max as f64 / 1e6,
                    state.cumulative.rows_produced,
                    state.cumulative.bytes_scanned,
                );
            }
        }
        out
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A tenant-tagged connection to the service.
#[derive(Clone)]
pub struct ClientHandle {
    inner: Arc<Inner>,
    tenant: TenantId,
}

impl ClientHandle {
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// Submit a query through admission control. Returns a [`Ticket`]
    /// immediately, or a typed `FUSION_ADMISSION_REJECTED` error if the
    /// tenant's queue-depth cap or memory budget refuses it.
    pub fn submit(&self, sql: impl Into<String>) -> Result<Ticket> {
        self.inner.submit(self.tenant.clone(), sql.into())
    }

    /// Submit and block for the result: the window the query lands in
    /// coalesces it with whatever else is in flight.
    pub fn query(&self, sql: impl Into<String>) -> Result<QueryResult> {
        self.submit(sql)?.wait()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    /// A service core with no dispatcher thread: jobs only ever park.
    fn parked(config: ServiceConfig) -> Arc<Inner> {
        Inner::new(Arc::new(Session::new()), config)
    }

    #[test]
    fn first_window_after_idle_is_packed_by_weight() {
        let weighted = |weight| TenantConfig {
            weight,
            ..TenantConfig::default()
        };
        let inner = parked(
            ServiceConfig::default()
                .with_tenant("light", weighted(1))
                .with_tenant("heavy", weighted(3)),
        );
        // Nobody was queued, or even known, before this burst.
        for tenant in ["light", "heavy"] {
            for _ in 0..8 {
                inner.submit(TenantId::new(tenant), "SELECT 1".into()).unwrap();
            }
        }
        let window = inner.form_window();
        let count = |name| window.iter().filter(|e| e.tenant.as_str() == name).count();
        assert_eq!((count("light"), count("heavy")), (2, 6));
        assert_eq!(inner.queue.len(), 8);
    }

    #[test]
    fn dispatcher_exit_answers_every_parked_ticket() {
        let inner = parked(ServiceConfig::default());
        let tickets: Vec<Ticket> = ["a", "b", "a"]
            .into_iter()
            .map(|t| inner.submit(TenantId::new(t), "SELECT 1".into()).unwrap())
            .collect();
        drop(DispatcherExit(Arc::clone(&inner)));
        for ticket in tickets {
            match ticket.wait() {
                Err(FusionError::Internal(why)) => assert!(why.contains("dispatcher exited"), "{why}"),
                other => panic!("expected a typed internal error, got {other:?}"),
            }
        }
        assert_eq!(inner.queue.len(), 0);
        let late = inner.submit(TenantId::new("a"), "SELECT 1".into()).unwrap_err();
        assert_eq!(late.code().as_str(), "FUSION_ADMISSION_REJECTED");
    }
}
