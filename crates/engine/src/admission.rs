//! Tenant-tagged admission queue with batch-window coalescing.
//!
//! This is the **single queueing implementation** behind both entry
//! points into deferred batch execution:
//!
//! * [`crate::Session::enqueue`] / [`crate::Session::run_queued`] — the
//!   original single-session queue, now a one-tenant [`AdmissionQueue`]
//!   drained in one window;
//! * the multi-tenant `fusion-service` front end, whose dispatcher thread
//!   parks in [`AdmissionQueue::wait_nonempty`] only while nothing is
//!   queued and otherwise packs whatever is parked, up to
//!   [`AdmissionConfig::max_window_queries`] with weighted-fair
//!   per-tenant quotas ([`AdmissionQueue::pack_window`]). Entries that
//!   arrive while a window executes form the next one, so window size
//!   tracks load; nothing on this path waits on a timer.
//!
//! Entries park per tenant in arrival order. Window packing is a
//! round-robin over tenants (one entry per tenant per round, bounded by
//! the caller-supplied per-tenant quota), so a chatty tenant's backlog
//! cannot crowd a quiet tenant out of a window; the tenant rotation
//! advances between windows so no tenant is permanently first. Per-tenant
//! queue depth is capped at admission with a typed
//! [`FusionError::AdmissionRejected`] (`FUSION_ADMISSION_REJECTED`)
//! instead of unbounded queueing.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fusion_common::FusionError;

/// A tenant identity: the unit of admission caps, memory budgets, fair
/// window packing, and metrics attribution. Cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The implicit tenant of a bare [`crate::Session`] queue.
    pub fn local() -> Self {
        TenantId::new("local")
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId::new(s)
    }
}

/// Window-formation and admission-cap knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// The most queries one window carries; the rest stay parked for the
    /// next one.
    pub max_window_queries: usize,
    /// Read by nothing: windows are no longer held open on a timer. The
    /// field survives only because `benchmark/src/main.rs` stamps it into
    /// its settings and a gain-claiming change may not edit `benchmark/`;
    /// the next `benchmark` change removes both.
    pub max_window_wait: Duration,
    /// Per-tenant cap on parked queries (`0` = unlimited). Crossing it
    /// rejects the submission with `FUSION_ADMISSION_REJECTED`.
    pub max_queued_per_tenant: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_window_queries: 8,
            max_window_wait: Duration::ZERO,
            max_queued_per_tenant: 0,
        }
    }
}

impl AdmissionConfig {
    /// The configuration of a bare session queue: no window size limit —
    /// [`AdmissionQueue::drain_all`] is the only consumer.
    pub fn unbounded() -> Self {
        AdmissionConfig {
            max_window_queries: usize::MAX,
            max_window_wait: Duration::ZERO,
            max_queued_per_tenant: 0,
        }
    }
}

/// One parked query.
#[derive(Debug)]
pub struct Admitted<T> {
    pub tenant: TenantId,
    pub payload: T,
    /// When the entry was admitted; the dispatcher turns this into
    /// queue-wait metrics at window formation.
    pub enqueued_at: Instant,
}

struct Inner<T> {
    /// Per-tenant FIFO lanes in first-arrival order; the front lane is
    /// the next round-robin turn. Lanes persist while a tenant has
    /// waiters and are dropped when drained empty.
    lanes: VecDeque<(TenantId, VecDeque<Admitted<T>>)>,
    len: usize,
    closed: bool,
}

impl<T> Inner<T> {
    fn lane_len(&self, tenant: &TenantId) -> usize {
        self.lanes
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, q)| q.len())
            .unwrap_or(0)
    }
}

/// The shared admission queue. `T` is the parked payload: a SQL string
/// for the session queue, a full job (SQL + result channel) for the
/// service.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    cond: Condvar,
    config: AdmissionConfig,
}

impl<T> AdmissionQueue<T> {
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                lanes: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            config,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Park a payload for `tenant`. Fails typed when the queue is closed
    /// or the tenant's queue-depth cap is exhausted.
    pub fn admit(&self, tenant: TenantId, payload: T) -> Result<(), FusionError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(FusionError::AdmissionRejected {
                tenant: tenant.to_string(),
                reason: "service is shutting down".into(),
            });
        }
        let cap = self.config.max_queued_per_tenant;
        if cap > 0 && inner.lane_len(&tenant) >= cap {
            return Err(FusionError::AdmissionRejected {
                tenant: tenant.to_string(),
                reason: format!("tenant queue full ({cap} queries already parked)"),
            });
        }
        let entry = Admitted {
            tenant: tenant.clone(),
            payload,
            enqueued_at: Instant::now(),
        };
        match inner.lanes.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, lane)) => lane.push_back(entry),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(entry);
                inner.lanes.push_back((tenant, lane));
            }
        }
        inner.len += 1;
        self.cond.notify_all();
        Ok(())
    }

    /// Total parked entries.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parked entries for one tenant.
    pub fn tenant_len(&self, tenant: &TenantId) -> usize {
        self.lock().lane_len(tenant)
    }

    /// Close the queue: further [`AdmissionQueue::admit`] calls reject and
    /// a blocked [`AdmissionQueue::wait_nonempty`] wakes up. Parked
    /// entries are *not* dropped — `wait_nonempty` keeps returning `true`
    /// until the dispatcher has packed them all (graceful shutdown never
    /// loses a waiter).
    pub fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Park the caller until at least one entry is queued. Returns
    /// `false` only when the queue is closed *and* fully drained.
    pub fn wait_nonempty(&self) -> bool {
        let mut inner = self.lock();
        while inner.len == 0 {
            if inner.closed {
                return false;
            }
            inner = self
                .cond
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        true
    }

    /// Pack what is parked right now into one window of at most
    /// `max_window_queries` entries, weighted-fair: round-robin over
    /// tenant lanes, one entry per lane per round, each tenant bounded by
    /// `quota(tenant)` entries this window. Never blocks; what does not
    /// fit stays parked.
    pub fn pack_window(&self, quota: impl Fn(&TenantId) -> usize) -> Vec<Admitted<T>> {
        let mut inner = self.lock();
        Self::pack(&mut inner, self.config.max_window_queries, &quota)
    }

    /// Weighted-fair packing over the tenant lanes. Advances the lane
    /// rotation so the tenant served first this window goes last next
    /// window.
    fn pack(
        inner: &mut Inner<T>,
        max_queries: usize,
        quota: &impl Fn(&TenantId) -> usize,
    ) -> Vec<Admitted<T>> {
        let mut window = Vec::new();
        let lanes = inner.lanes.len();
        let mut taken: Vec<usize> = vec![0; lanes];
        let mut progressed = true;
        while window.len() < max_queries && progressed {
            progressed = false;
            for (i, (tenant, lane)) in inner.lanes.iter_mut().enumerate() {
                if window.len() >= max_queries {
                    break;
                }
                if lane.is_empty() || taken[i] >= quota(tenant) {
                    continue;
                }
                if let Some(entry) = lane.pop_front() {
                    window.push(entry);
                    taken[i] += 1;
                    progressed = true;
                }
            }
        }
        inner.len -= window.len();
        inner.lanes.retain(|(_, lane)| !lane.is_empty());
        inner.lanes.rotate_left(if inner.lanes.is_empty() { 0 } else { 1 });
        window
    }

    /// Drain every parked entry immediately (no window formation), in
    /// round-robin tenant order. The session's `run_queued` path.
    pub fn drain_all(&self) -> Vec<Admitted<T>> {
        let mut inner = self.lock();
        Self::pack(&mut inner, usize::MAX, &|_| usize::MAX)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_drain_preserves_per_tenant_fifo() {
        let q = AdmissionQueue::new(AdmissionConfig::unbounded());
        q.admit(TenantId::local(), 1).unwrap();
        q.admit(TenantId::local(), 2).unwrap();
        q.admit(TenantId::local(), 3).unwrap();
        assert_eq!(q.len(), 3);
        let drained: Vec<u32> = q.drain_all().into_iter().map(|e| e.payload).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_cap_rejects_typed() {
        let q = AdmissionQueue::new(AdmissionConfig {
            max_queued_per_tenant: 2,
            ..AdmissionConfig::default()
        });
        q.admit(TenantId::new("a"), 1).unwrap();
        q.admit(TenantId::new("a"), 2).unwrap();
        match q.admit(TenantId::new("a"), 3) {
            Err(FusionError::AdmissionRejected { tenant, .. }) => assert_eq!(tenant, "a"),
            other => panic!("expected AdmissionRejected, got {other:?}"),
        }
        // Another tenant still has room.
        q.admit(TenantId::new("b"), 1).unwrap();
        assert_eq!(q.len(), 3);
    }

    fn queue_with_window(max_window_queries: usize) -> AdmissionQueue<u32> {
        AdmissionQueue::new(AdmissionConfig {
            max_window_queries,
            ..AdmissionConfig::default()
        })
    }

    fn count_of(window: &[Admitted<u32>], tenant: &str) -> usize {
        window.iter().filter(|e| e.tenant.as_str() == tenant).count()
    }

    #[test]
    fn window_packs_round_robin_across_tenants() {
        let q = queue_with_window(4);
        for i in 0..5 {
            q.admit(TenantId::new("chatty"), i).unwrap();
        }
        q.admit(TenantId::new("quiet"), 100).unwrap();
        let window = q.pack_window(|_| usize::MAX);
        // Round-robin: quiet's single query makes the window despite
        // chatty's five-deep backlog.
        assert_eq!(window.len(), 4);
        assert_eq!(count_of(&window, "quiet"), 1);
        assert_eq!(count_of(&window, "chatty"), 3);
    }

    #[test]
    fn per_window_quota_caps_a_tenant() {
        let q = queue_with_window(8);
        for i in 0..6 {
            q.admit(TenantId::new("chatty"), i).unwrap();
        }
        q.admit(TenantId::new("quiet"), 100).unwrap();
        let window = q.pack_window(|t| if t.as_str() == "chatty" { 2 } else { usize::MAX });
        assert_eq!(count_of(&window, "chatty"), 2);
        assert_eq!(count_of(&window, "quiet"), 1);
        // The un-taken backlog stays parked.
        assert_eq!(q.tenant_len(&TenantId::new("chatty")), 4);
    }

    #[test]
    fn window_is_capped_at_max_window_queries() {
        let q = queue_with_window(2);
        for i in 0..5 {
            q.admit(TenantId::new("a"), i).unwrap();
        }
        // A backlog leaves two at a time, in arrival order, without
        // waiting for anything: 5 parked = windows of 2, 2, 1.
        let windows: Vec<Vec<u32>> = std::iter::from_fn(|| {
            let window = q.pack_window(|_| usize::MAX);
            (!window.is_empty()).then(|| window.into_iter().map(|e| e.payload).collect())
        })
        .collect();
        assert_eq!(windows, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn closed_queue_rejects_then_drains_then_ends() {
        let q = AdmissionQueue::new(AdmissionConfig::default());
        q.admit(TenantId::new("a"), 1).unwrap();
        q.close();
        assert!(matches!(
            q.admit(TenantId::new("a"), 2),
            Err(FusionError::AdmissionRejected { .. })
        ));
        // The parked entry still comes out...
        assert!(q.wait_nonempty());
        assert_eq!(q.pack_window(|_| usize::MAX).len(), 1);
        // ...and only then does the stream end.
        assert!(!q.wait_nonempty());
    }

    #[test]
    fn wait_nonempty_wakes_on_admission() {
        let q = Arc::new(queue_with_window(1));
        let q2 = Arc::clone(&q);
        // Whether the waiter parks before or after the admission, it
        // returns with the entry.
        let waiter = std::thread::spawn(move || {
            assert!(q2.wait_nonempty());
            q2.pack_window(|_| usize::MAX)
        });
        q.admit(TenantId::new("a"), 7).unwrap();
        let window = waiter.join().unwrap();
        assert_eq!(window[0].payload, 7);
    }
}
