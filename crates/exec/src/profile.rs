//! Per-operator observability: spans and the query profile tree.
//!
//! Every physical operator compiled by [`crate::physical::compile_profiled`]
//! gets a stable `op_id` (pre-order over the logical plan, matching the
//! line order of `plan::display`) and an [`OpSpan`] — a set of atomic
//! counters recording rows in/out, batches, wall/CPU nanos, and peak
//! state bytes. Scan leaves additionally record one entry per partition
//! actually read; those per-partition spans are merged in
//! **partition-index order** when the profile is captured, so fused and
//! baseline profiles report deterministic row counts at any parallelism.
//!
//! Span counters are written with `Ordering::Relaxed` and are only
//! mutually consistent once every worker has been joined. The engine
//! therefore captures a [`QueryProfile`] (and the global
//! [`crate::metrics::MetricsSnapshot`]) strictly *after* execution
//! completes — `collect` drops the operator tree, which joins all morsel
//! workers, before the capture runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fusion_common::{Result, Schema};

use crate::ops::{BoxedOp, Operator};
use crate::Chunk;

/// Live, thread-shared counters for one physical operator.
///
/// All counters use relaxed atomics: workers on different morsels bump
/// them concurrently and no ordering between counters is implied while
/// the query is running (a mid-flight read may observe `rows_out` ahead
/// of `rows_in`). Totals are exact once the workers are joined, and row
/// counts are sums — independent of the interleaving — so profiles are
/// bit-identical across thread counts.
#[derive(Debug, Default)]
pub struct OpSpan {
    rows_out: AtomicU64,
    batches: AtomicU64,
    wall_nanos: AtomicU64,
    cpu_nanos: AtomicU64,
    /// Rows entering the operator from storage (scan leaves only).
    rows_in: AtomicU64,
    /// Rows emitted by the scan fragment after pushed-down filtering.
    /// Used as `rows_out` for scans inlined into a pipeline or a parallel
    /// aggregation (which have no wrapping operator to meter their output).
    scan_rows_out: AtomicU64,
    /// Partitions a scan skipped because a join's build keys excluded
    /// them (scan leaves only; static pruning is not counted here).
    pub(crate) join_pruned: AtomicU64,
    cur_state: AtomicI64,
    peak_state: AtomicI64,
    /// Per-partition row counts, keyed by partition index so capture
    /// serializes them in partition-index order regardless of which
    /// worker scanned which morsel.
    partitions: Mutex<BTreeMap<usize, PartitionSpan>>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PartitionSpan {
    rows_scanned: u64,
    rows_out: u64,
}

impl OpSpan {
    pub fn add_rows_out(&self, n: u64) {
        self.rows_out.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_wall_nanos(&self, n: u64) {
        self.wall_nanos.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_cpu_nanos(&self, n: u64) {
        self.cpu_nanos.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_join_pruned(&self) {
        self.join_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one scanned partition: `scanned` rows read from storage,
    /// `emitted` rows surviving the pushed-down filters. A poisoned map
    /// lock (a worker panicked mid-scan) is recovered rather than
    /// propagated: the counters in it are still structurally valid, and
    /// the query itself fails through the worker-join error path.
    pub fn record_partition(&self, partition: usize, scanned: u64, emitted: u64) {
        self.rows_in.fetch_add(scanned, Ordering::Relaxed);
        self.scan_rows_out.fetch_add(emitted, Ordering::Relaxed);
        let mut map = self
            .partitions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let e = map.entry(partition).or_default();
        e.rows_scanned += scanned;
        e.rows_out += emitted;
    }

    /// Track `delta` bytes of operator state (positive = reserve,
    /// negative = release) against the per-operator high-water mark.
    pub fn state_delta(&self, delta: i64) {
        let cur = self.cur_state.fetch_add(delta, Ordering::Relaxed) + delta;
        self.peak_state.fetch_max(cur, Ordering::Relaxed);
    }
}

/// Live profile tree, built at compile time; mirrors the logical plan.
#[derive(Debug)]
pub struct ProfileNode {
    pub op_id: usize,
    pub label: String,
    pub span: Arc<OpSpan>,
    /// True when the node has no wrapping physical operator (a scan
    /// inlined into a pipeline or a parallel aggregation);
    /// its `rows_out` then comes from the fragment-side counter.
    pub inlined: bool,
    pub children: Vec<ProfileNode>,
}

/// Operator wrapper that meters rows out, batches, and inclusive wall
/// time for every `next_chunk` call against the node's span.
pub struct SpannedOp {
    inner: BoxedOp,
    span: Arc<OpSpan>,
}

impl SpannedOp {
    pub fn new(inner: BoxedOp, span: Arc<OpSpan>) -> Self {
        SpannedOp { inner, span }
    }
}

impl Operator for SpannedOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        let start = Instant::now();
        let out = self.inner.next_chunk();
        self.span
            .add_wall_nanos(start.elapsed().as_nanos() as u64);
        if let Ok(Some(chunk)) = &out {
            self.span.add_batch();
            self.span.add_rows_out(chunk.len() as u64);
        }
        out
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.inner.attach_span(span);
    }
}

/// Immutable per-operator profile, captured after execution completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    pub op_id: u64,
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub batches: u64,
    pub wall_nanos: u64,
    pub cpu_nanos: u64,
    pub peak_state_bytes: i64,
    /// Per-partition scan counts, sorted by partition index. Empty for
    /// non-scan operators.
    pub partitions: Vec<PartitionProfile>,
    /// Partitions pruned by a join's build keys (scans only).
    pub join_pruned: u64,
    pub children: Vec<OpProfile>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionProfile {
    pub partition: u64,
    pub rows_scanned: u64,
    pub rows_out: u64,
}

/// The profile of one executed query: an [`OpProfile`] tree mirroring
/// the optimized plan, plus rendering helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    pub root: OpProfile,
}

impl QueryProfile {
    /// Snapshot a live profile tree. Must only be called once every
    /// worker has been joined (i.e. after the operator tree is dropped);
    /// see the module docs for the consistency argument.
    pub fn capture(node: &ProfileNode) -> QueryProfile {
        QueryProfile {
            root: capture_node(node),
        }
    }

    /// Flatten to `(op_id, label, rows_in, rows_out)` in pre-order — the
    /// parallelism-invariant portion of the profile, used by tests that
    /// assert per-operator row counts are identical across thread counts.
    pub fn row_counts(&self) -> Vec<(u64, String, u64, u64)> {
        fn walk(p: &OpProfile, out: &mut Vec<(u64, String, u64, u64)>) {
            out.push((p.op_id, p.label.clone(), p.rows_in, p.rows_out));
            for c in &p.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Render the profile as an indented tree with full span detail
    /// (timings and state are nondeterministic run to run).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, true, &mut out);
        out
    }

    /// Render only the deterministic portion of the profile: operator
    /// ids, labels, and row counts. Stable across runs and thread
    /// counts — the form golden-file tests compare.
    pub fn render_stable(&self) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, false, &mut out);
        out
    }
}

fn capture_node(node: &ProfileNode) -> OpProfile {
    let children: Vec<OpProfile> = node.children.iter().map(capture_node).collect();
    let s = &node.span;
    let rows_out = if node.inlined {
        s.scan_rows_out.load(Ordering::Relaxed)
    } else {
        s.rows_out.load(Ordering::Relaxed)
    };
    // Leaves report the rows they pulled from storage; interior operators
    // consume exactly what their children emitted.
    let rows_in = if children.is_empty() {
        s.rows_in.load(Ordering::Relaxed)
    } else {
        children.iter().map(|c| c.rows_out).sum()
    };
    let partitions = s
        .partitions
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&idx, p)| PartitionProfile {
            partition: idx as u64,
            rows_scanned: p.rows_scanned,
            rows_out: p.rows_out,
        })
        .collect();
    OpProfile {
        op_id: node.op_id as u64,
        label: node.label.clone(),
        rows_in,
        rows_out,
        batches: s.batches.load(Ordering::Relaxed),
        wall_nanos: s.wall_nanos.load(Ordering::Relaxed),
        cpu_nanos: s.cpu_nanos.load(Ordering::Relaxed),
        peak_state_bytes: s.peak_state.load(Ordering::Relaxed),
        partitions,
        join_pruned: s.join_pruned.load(Ordering::Relaxed),
        children,
    }
}

fn render_node(p: &OpProfile, indent: usize, timings: bool, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str(&p.label);
    out.push_str(&annotation(p, timings));
    out.push('\n');
    for c in &p.children {
        render_node(c, indent + 1, timings, out);
    }
}

/// The `[...]` span annotation appended to a plan line for this
/// operator. With `timings` the full span is shown; without, only the
/// deterministic row counts.
pub fn annotation(p: &OpProfile, timings: bool) -> String {
    let mut s = format!(
        " [id={} rows_in={} rows_out={}",
        p.op_id, p.rows_in, p.rows_out
    );
    if timings {
        s.push_str(&format!(
            " batches={} wall_ms={:.3} cpu_ms={:.3} peak_state={}B",
            p.batches,
            p.wall_nanos as f64 / 1e6,
            p.cpu_nanos as f64 / 1e6,
            p.peak_state_bytes
        ));
        if !p.partitions.is_empty() {
            s.push_str(&format!(" partitions={}", p.partitions.len()));
        }
        if p.join_pruned > 0 {
            s.push_str(&format!(" join_pruned={}", p.join_pruned));
        }
    }
    s.push(']');
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn leaf(op_id: u64, label: &str) -> OpProfile {
        OpProfile {
            op_id,
            label: label.into(),
            rows_in: 100,
            rows_out: 42,
            batches: 3,
            wall_nanos: 1_234_567,
            cpu_nanos: 890_123,
            peak_state_bytes: 4096,
            partitions: vec![
                PartitionProfile {
                    partition: 0,
                    rows_scanned: 60,
                    rows_out: 20,
                },
                PartitionProfile {
                    partition: 1,
                    rows_scanned: 40,
                    rows_out: 22,
                },
            ],
            join_pruned: 5,
            children: vec![],
        }
    }

    #[test]
    fn span_tracks_peak_state() {
        let span = OpSpan::default();
        span.state_delta(100);
        span.state_delta(200);
        span.state_delta(-250);
        span.state_delta(10);
        assert_eq!(span.peak_state.load(Ordering::Relaxed), 300);
        assert_eq!(span.cur_state.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn capture_merges_partitions_in_index_order() {
        let span = Arc::new(OpSpan::default());
        // Record out of partition order, as parallel workers would.
        span.record_partition(2, 30, 10);
        span.record_partition(0, 10, 5);
        span.record_partition(1, 20, 7);
        let node = ProfileNode {
            op_id: 0,
            label: "Scan: t cols=[]".into(),
            span,
            inlined: true,
            children: vec![],
        };
        let p = QueryProfile::capture(&node);
        assert_eq!(p.root.rows_in, 60);
        assert_eq!(p.root.rows_out, 22);
        let idx: Vec<u64> = p.root.partitions.iter().map(|x| x.partition).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn row_counts_flattens_preorder() {
        let p = QueryProfile {
            root: OpProfile {
                children: vec![leaf(1, "a"), leaf(2, "b")],
                ..leaf(0, "root")
            },
        };
        let ids: Vec<u64> = p.row_counts().iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn stable_render_has_no_timings() {
        let p = QueryProfile { root: leaf(0, "Scan: t") };
        let stable = p.render_stable();
        assert!(stable.contains("rows_in=100"));
        assert!(stable.contains("rows_out=42"));
        assert!(!stable.contains("wall_ms"));
        assert!(p.render().contains("wall_ms"));
        assert!(p.render().contains("join_pruned=5"));
    }
}
