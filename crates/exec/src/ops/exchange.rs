//! Morsel-driven parallel execution.
//!
//! The unit of parallel work (the *morsel*) is one table partition —
//! the same granularity Athena uses for S3 objects. Workers claim
//! morsels from a shared atomic counter (no work stealing: claiming is
//! a single `fetch_add`), run the partition-granular task, and either
//! stream results over a bounded channel ([`GatherExec`]) or accumulate
//! them locally for a deterministic merge ([`collect_morsels`]).
//!
//! Two invariants hold everywhere in this module:
//!
//! * **Determinism** — results are merged in partition-index order, so a
//!   parallel run is bit-identical to the sequential one regardless of
//!   worker scheduling (including float aggregation order).
//! * **Unified failure** — the first error aborts every worker (shared
//!   abort flag plus channel teardown) and surfaces as a single typed
//!   [`FusionError`]; workers are always joined before the error is
//!   returned, so no thread outlives its query.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fusion_common::{FusionError, Result, Schema};

use crate::context::ExecContext;
use crate::metrics::ExecMetrics;
use crate::ops::scan::ScanFragment;
use crate::ops::{Operator, RowDrain};
use crate::{Chunk, Row};

/// Run one task per morsel on `workers` threads and return the non-empty
/// results sorted by morsel index.
///
/// The task returns `Ok(None)` for morsels that produce nothing (e.g. a
/// pruned partition). The first task error sets the shared abort flag —
/// remaining workers stop claiming morsels — and is returned after every
/// worker has been joined. Used for partitioned aggregate builds and
/// parallel hash-join build sides, where the caller needs *all* partials
/// before it can merge.
pub(crate) fn collect_morsels<T, F>(
    ctx: &Arc<ExecContext>,
    morsels: usize,
    workers: usize,
    task: F,
) -> Result<Vec<(usize, T)>>
where
    T: Send,
    F: Fn(usize) -> Result<Option<T>> + Sync,
{
    let metrics = ctx.metrics();
    let started = Instant::now();
    let queue = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let worker_results: Vec<Result<Vec<(usize, T)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| -> Result<Vec<(usize, T)>> {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            return Ok(local);
                        }
                        let m = queue.fetch_add(1, Ordering::Relaxed);
                        if m >= morsels {
                            return Ok(local);
                        }
                        let t0 = Instant::now();
                        let out = task(m);
                        metrics.add_morsel();
                        metrics.add_parallel_cpu_nanos(t0.elapsed().as_nanos() as u64);
                        match out {
                            Ok(Some(v)) => local.push((m, v)),
                            Ok(None) => {}
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                return Err(e);
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A worker that panicked (rather than returning an error)
                // is a reachable failure after e.g. a poisoned lock in a
                // task closure: surface it as a typed internal error
                // instead of propagating the panic into the query thread.
                h.join().unwrap_or_else(|_| {
                    abort.store(true, Ordering::Relaxed);
                    Err(FusionError::Internal(
                        "morsel worker panicked; query aborted".into(),
                    ))
                })
            })
            .collect()
    });
    metrics.add_parallel_wall_nanos(started.elapsed().as_nanos() as u64);
    let mut merged: Vec<(usize, T)> = Vec::new();
    for r in worker_results {
        merged.extend(r?);
    }
    merged.sort_by_key(|(i, _)| *i);
    Ok(merged)
}

/// One message from a scan worker: the partition index and its surviving
/// rows (empty for pruned / fully-filtered partitions — every partition
/// is reported so the gatherer knows when the in-order emit can advance).
type WorkerMsg = Result<(usize, Vec<Row>)>;

/// Worker threads plus the shared abort flag; joining is tied to drop so
/// no exit path can leak a thread.
struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    abort: Arc<AtomicBool>,
    started: Instant,
    metrics: Arc<ExecMetrics>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.abort.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.metrics
            .add_parallel_wall_nanos(self.started.elapsed().as_nanos() as u64);
    }
}

/// Field order matters: `rx` must drop before `pool`, so a worker blocked
/// on a full channel sees the disconnect (its `send` fails), exits, and
/// the join in `WorkerPool::drop` cannot hang.
struct Running {
    rx: Receiver<WorkerMsg>,
    _pool: WorkerPool,
}

enum GatherState {
    NotStarted,
    Running(Running),
    Finished,
}

/// Morsel-parallel scan: the exchange/gather operator pair collapsed
/// into one pull operator.
///
/// Workers are spawned lazily on the first `next_chunk` call (a query
/// whose consumer never pulls — e.g. behind an early LIMIT — spawns
/// nothing), claim partitions from a shared counter, and push scanned
/// rows through a bounded channel. The gatherer re-orders arrivals by
/// partition index before emitting, so downstream operators observe
/// exactly the sequential scan's row order.
pub struct GatherExec {
    fragment: Arc<ScanFragment>,
    workers: usize,
    state: GatherState,
    /// Partitions that arrived ahead of the in-order emit cursor.
    buffer: BTreeMap<usize, Vec<Row>>,
    /// Next partition index to emit.
    next_emit: usize,
    /// Rows of the partition currently being emitted.
    pending: RowDrain,
}

impl GatherExec {
    pub fn new(fragment: Arc<ScanFragment>, workers: usize) -> Self {
        GatherExec {
            fragment,
            workers: workers.max(1),
            state: GatherState::NotStarted,
            buffer: BTreeMap::new(),
            next_emit: 0,
            pending: RowDrain::default(),
        }
    }

    fn spawn_workers(&self) -> Running {
        let queue = Arc::new(AtomicUsize::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<WorkerMsg>(self.workers * 2);
        let metrics = Arc::clone(self.fragment.ctx().metrics());
        let num_partitions = self.fragment.num_partitions();
        let started = Instant::now();
        let mut handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let fragment = Arc::clone(&self.fragment);
            let queue = Arc::clone(&queue);
            let abort = Arc::clone(&abort);
            let metrics = Arc::clone(&metrics);
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let p = queue.fetch_add(1, Ordering::Relaxed);
                if p >= num_partitions {
                    return;
                }
                let t0 = Instant::now();
                let out = fragment.scan_partition(p);
                metrics.add_morsel();
                metrics.add_parallel_cpu_nanos(t0.elapsed().as_nanos() as u64);
                let msg: WorkerMsg = match out {
                    Ok(rows) => Ok((p, rows.unwrap_or_default())),
                    Err(e) => Err(e),
                };
                let failed = msg.is_err();
                // A send error means the gatherer went away (query
                // cancelled or dropped): just exit.
                if tx.send(msg).is_err() || failed {
                    return;
                }
            }));
        }
        Running {
            rx,
            _pool: WorkerPool {
                handles,
                abort,
                started,
                metrics,
            },
        }
    }
}

impl Operator for GatherExec {
    fn schema(&self) -> &Schema {
        self.fragment.schema()
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        loop {
            // Emit the current partition's rows in CHUNK_SIZE slices.
            if let Some(chunk) = self.pending.next_chunk() {
                return Ok(Some(chunk));
            }
            match self.state {
                GatherState::Finished => return Ok(None),
                GatherState::NotStarted => {
                    self.fragment.ctx().check()?;
                    self.state = GatherState::Running(self.spawn_workers());
                }
                GatherState::Running(_) => {}
            }
            // Advance the in-order cursor through buffered partitions.
            if let Some(rows) = self.buffer.remove(&self.next_emit) {
                self.next_emit += 1;
                self.pending = RowDrain::new(rows);
                continue;
            }
            if self.next_emit >= self.fragment.num_partitions() {
                // Tears down Running: rx drops first, then the pool joins.
                self.state = GatherState::Finished;
                return Ok(None);
            }
            let msg = match &mut self.state {
                GatherState::Running(run) => run.rx.recv(),
                _ => unreachable!("gather state checked above"),
            };
            match msg {
                Ok(Ok((p, rows))) => {
                    self.buffer.insert(p, rows);
                }
                Ok(Err(e)) => {
                    self.state = GatherState::Finished;
                    return Err(e);
                }
                Err(_) => {
                    self.state = GatherState::Finished;
                    return Err(FusionError::Execution(
                        "parallel scan workers exited before delivering all partitions".into(),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use crate::fault::{FaultPolicy, RetryPolicy};
    use crate::metrics::ExecMetrics;
    use crate::ops::drain;
    use crate::ops::scan::ScanExec;
    use crate::table::{Table, TableBuilder, TableColumn};
    use fusion_common::{ColumnId, DataType, Field, Value};
    use fusion_expr::{col, lit};
    use std::time::Duration;

    fn table() -> Arc<Table> {
        let mut b = TableBuilder::new(
            "t",
            vec![
                TableColumn {
                    name: "sk".into(),
                    data_type: DataType::Int64,
                    nullable: false,
                },
                TableColumn {
                    name: "v".into(),
                    data_type: DataType::Utf8,
                    nullable: true,
                },
            ],
        )
        .partition_by("sk", 10)
        .unwrap();
        for i in 0..100i64 {
            b.add_row(vec![Value::Int64(i), Value::Utf8(format!("r{i}"))])
                .unwrap();
        }
        Arc::new(b.build())
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(ColumnId(1), "sk", DataType::Int64, false),
            Field::new(ColumnId(2), "v", DataType::Utf8, true),
        ])
    }

    fn fragment(ctx: Arc<ExecContext>, filters: Vec<fusion_expr::Expr>) -> Arc<ScanFragment> {
        Arc::new(ScanFragment::new(table(), vec![0, 1], schema(), filters, ctx))
    }

    #[test]
    fn gather_matches_sequential_scan_order() {
        for workers in [1, 2, 4, 8] {
            let m = ExecMetrics::new();
            let ctx = ExecContext::builder(m.clone()).parallelism(workers).build();
            let frag = fragment(ctx, vec![]);
            let mut gather = GatherExec::new(frag.clone(), workers);
            let parallel = drain(&mut gather).unwrap();

            let m2 = ExecMetrics::new();
            let seq_frag = fragment(ExecContext::builder(m2).build(), vec![]);
            let mut seq = ScanExec::from_fragment(seq_frag);
            let sequential = drain(&mut seq).unwrap();

            assert_eq!(parallel, sequential, "workers={workers}");
            assert_eq!(m.morsels_executed(), 10);
            assert_eq!(m.rows_scanned(), 100);
            assert_eq!(m.partitions_read(), 10);
        }
    }

    #[test]
    fn gather_prunes_and_filters_like_sequential() {
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m.clone()).parallelism(4).build();
        let filter = col(ColumnId(1)).gt_eq(lit(55i64));
        let frag = fragment(ctx, vec![filter]);
        let mut gather = GatherExec::new(frag, 4);
        let rows = drain(&mut gather).unwrap();
        assert_eq!(rows.len(), 45);
        assert_eq!(m.partitions_pruned(), 5);
        assert_eq!(m.partitions_read(), 5);
        // sk >= 55 over partition [50,60) filters 5 of 10 rows
        // column-at-a-time; the other 4 partitions pass all rows.
        assert_eq!(m.rows_filtered_vectorized(), 5);
    }

    #[test]
    fn worker_error_aborts_all_and_surfaces_typed() {
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m)
            .fault_policy(FaultPolicy::default().with_poison("t", 4))
            .parallelism(4)
            .build();
        let frag = fragment(ctx, vec![]);
        let mut gather = GatherExec::new(frag, 4);
        match drain(&mut gather) {
            Err(FusionError::DataCorruption(msg)) => assert!(msg.contains("partition 4")),
            other => panic!("expected DataCorruption, got {other:?}"),
        }
        // Dropping/finishing must have joined every worker (no hang) —
        // reaching this line at all is the assertion.
    }

    #[test]
    fn deadline_aborts_all_workers_with_single_error() {
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m)
            .fault_policy(FaultPolicy::default().with_read_latency(Duration::from_millis(20)))
            .retry_policy(RetryPolicy::default())
            .timeout(Duration::from_millis(5))
            .parallelism(4)
            .build();
        let frag = fragment(ctx, vec![]);
        let mut gather = GatherExec::new(frag, 4);
        match drain(&mut gather) {
            Err(FusionError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn dropping_gather_mid_stream_joins_workers() {
        let ctx = ExecContext::builder(ExecMetrics::new()).parallelism(4).build();
        let frag = fragment(ctx, vec![]);
        let mut gather = GatherExec::new(frag, 4);
        // Pull one chunk, then drop with workers potentially blocked on
        // the bounded channel: Drop must not hang or leak threads.
        let first = gather.next_chunk().unwrap();
        assert!(first.is_some());
        drop(gather);
    }

    #[test]
    fn collect_morsels_merges_in_morsel_order() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        let out = collect_morsels(&ctx, 16, 4, |m| {
            if m % 3 == 0 {
                Ok(None)
            } else {
                Ok(Some(m * 10))
            }
        })
        .unwrap();
        let idx: Vec<usize> = out.iter().map(|(i, _)| *i).collect();
        let expect: Vec<usize> = (0..16).filter(|m| m % 3 != 0).collect();
        assert_eq!(idx, expect);
        assert!(out.iter().all(|(i, v)| *v == i * 10));
    }

    #[test]
    fn collect_morsels_surfaces_first_error() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        let err = collect_morsels::<(), _>(&ctx, 32, 4, |m| {
            if m == 7 {
                Err(FusionError::Execution("morsel 7 failed".into()))
            } else {
                Ok(None)
            }
        })
        .unwrap_err();
        match err {
            FusionError::Execution(msg) => assert!(msg.contains("morsel 7")),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
