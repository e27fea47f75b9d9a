//! Morsel-driven execution: the one ordered source every partition loop
//! streams through.
//!
//! The unit of work (the *morsel*) is one table partition — the same
//! granularity Athena uses for S3 objects. [`Morsels`] runs a
//! per-partition task and yields its non-empty results in
//! partition-index order. With one worker the task runs inline, one
//! partition per pull. With more, the workers spawn on the first pull
//! (a consumer that never pulls spawns nothing), claim partitions in
//! index order from a shared counter (no work stealing), and park each
//! result in a reorder buffer until the emit cursor reaches it. No
//! partition is claimed 2 × workers or more past the emit cursor, which
//! bounds the reorder buffer and the partitions a consumer that stops
//! pulling (an early `LIMIT`) leaves read behind it.
//!
//! Two invariants hold for every caller:
//!
//! * **Determinism** — results leave in partition-index order, so a
//!   parallel run is bit-identical to the sequential one regardless of
//!   worker scheduling (including float aggregation order).
//! * **Unified failure** — the first error, or a panicking task, aborts
//!   every worker (no further claims) and surfaces once as a typed
//!   [`FusionError`] when the emit cursor reaches it, as it would run
//!   sequentially; workers are joined before the error is returned and
//!   whenever the source is dropped, so no thread outlives its query.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use fusion_common::{FusionError, Result};

use crate::context::ExecContext;
use crate::metrics::ExecMetrics;

/// How many partitions per worker may be claimed ahead of the emit
/// cursor.
const RUN_AHEAD: usize = 2;

/// An ordered source of per-partition results: an iterator over the
/// task's non-empty outputs in partition-index order. It ends after the
/// first error.
pub(crate) struct Morsels<T> {
    shared: Arc<Shared<T>>,
    workers: usize,
    /// The next partition to run inline; `partitions` once the source
    /// has ended.
    next: usize,
    /// The spawned workers and when they started, from the first
    /// parallel pull until the source ends.
    handles: Vec<JoinHandle<()>>,
    started: Option<Instant>,
}

impl<T: Send + 'static> Morsels<T> {
    /// `task` runs once per partition and returns `Ok(None)` for one
    /// that yields nothing (pruned, or nothing survived).
    pub(crate) fn new(
        ctx: &ExecContext,
        partitions: usize,
        workers: usize,
        task: impl Fn(usize) -> Result<Option<T>> + Send + Sync + 'static,
    ) -> Self {
        let shared = Shared {
            task: Box::new(task),
            metrics: Arc::clone(ctx.metrics()),
            partitions,
            ahead: RUN_AHEAD * workers,
            queue: Mutex::new(Queue {
                claimed: 0,
                emitted: 0,
                ready: BTreeMap::new(),
                abort: false,
            }),
            arrived: Condvar::new(),
            advanced: Condvar::new(),
        };
        Morsels {
            shared: Arc::new(shared),
            workers,
            next: 0,
            handles: Vec::new(),
            started: None,
        }
    }
}

impl<T> Morsels<T> {
    /// Abort the spawned workers, join them, and meter the wall time
    /// they ran.
    fn stop(&mut self) {
        let Some(started) = self.started.take() else {
            return;
        };
        self.shared.lock().abort = true;
        self.shared.advanced.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        let wall = started.elapsed().as_nanos() as u64;
        self.shared.metrics.add_parallel_wall_nanos(wall);
    }
}

impl<T: Send + 'static> Iterator for Morsels<T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Result<T>> {
        let shared = &self.shared;
        let out = if self.next >= shared.partitions {
            None
        } else if self.workers > 1 {
            if self.started.is_none() {
                self.started = Some(Instant::now());
                self.handles = (1..self.workers)
                    .map(|_| {
                        let shared = shared.clone();
                        std::thread::spawn(move || shared.work())
                    })
                    .collect();
            }
            shared.next()
        } else {
            (self.next..shared.partitions).find_map(|p| {
                self.next = p + 1;
                (shared.task)(p).transpose()
            })
        };
        if !matches!(out, Some(Ok(_))) {
            // The end, or the first error: stop, and join the workers.
            self.next = self.shared.partitions;
            self.stop();
        }
        out
    }
}

/// Joining is tied to drop, so no exit path can leak a thread.
impl<T> Drop for Morsels<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The claim and emit cursors and the reorder buffer.
struct Queue<T> {
    /// The next partition to claim.
    claimed: usize,
    /// The emit cursor: the first partition whose result has not been
    /// consumed.
    emitted: usize,
    /// Finished partitions at or past the cursor, by index.
    ready: BTreeMap<usize, Result<Option<T>>>,
    /// Set by the first failure and by `stop`: nothing is claimed after.
    abort: bool,
}

/// What the driver — the thread pulling — and the spawned workers share.
/// The driver is one of the workers: while the result at the cursor is
/// not ready it runs partitions itself, so `workers` threads in all do
/// the work and none idles beside them.
struct Shared<T> {
    task: Box<dyn Fn(usize) -> Result<Option<T>> + Send + Sync>,
    metrics: Arc<ExecMetrics>,
    partitions: usize,
    /// How far past the emit cursor a partition may be claimed.
    ahead: usize,
    queue: Mutex<Queue<T>>,
    /// The driver waits here for the result at the emit cursor.
    arrived: Condvar,
    /// Workers parked at the run-ahead bound wait here for the cursor to
    /// move or the source to stop.
    advanced: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The driver: the next non-empty result in partition order, or
    /// `None` at the end. Every partition below a failed one was claimed
    /// before it, so the first failure in partition order surfaces, as
    /// it would run sequentially.
    fn next(&self) -> Option<Result<T>> {
        let mut queue = self.lock();
        loop {
            let at = queue.emitted;
            if let Some(out) = queue.ready.remove(&at) {
                queue.emitted += 1;
                if queue.claimed >= at + self.ahead {
                    // Workers may be parked at the bound the cursor held.
                    self.advanced.notify_all();
                }
                match out.transpose() {
                    Some(out) => return Some(out),
                    None => continue,
                }
            }
            if at >= self.partitions {
                return None;
            }
            queue = match self.claim(&mut queue) {
                Some(p) => self.run(queue, p),
                None => wait(&self.arrived, queue),
            };
        }
    }

    /// A spawned worker: claim and run partitions until every one is
    /// claimed or the source stops, parking at the run-ahead bound.
    fn work(&self) {
        let mut queue = self.lock();
        loop {
            queue = match self.claim(&mut queue) {
                Some(p) => self.run(queue, p),
                None if queue.abort || queue.claimed >= self.partitions => return,
                None => wait(&self.advanced, queue),
            };
        }
    }

    /// Claim the next partition, unless it lies past the run-ahead bound,
    /// every partition is claimed, or the source stopped.
    fn claim(&self, queue: &mut Queue<T>) -> Option<usize> {
        if queue.abort || queue.claimed >= self.partitions.min(queue.emitted + self.ahead) {
            return None;
        }
        queue.claimed += 1;
        Some(queue.claimed - 1)
    }

    /// Run partition `p`'s task with the lock released, then park the
    /// result, waking the driver if it is the cursor's.
    fn run<'a>(&'a self, queue: MutexGuard<'a, Queue<T>>, p: usize) -> MutexGuard<'a, Queue<T>> {
        drop(queue);
        let start = Instant::now();
        // A task that panics (rather than returning an error) is a
        // reachable failure, e.g. after a poisoned lock inside it:
        // surface it typed instead of taking the query thread down.
        let out = catch_unwind(AssertUnwindSafe(|| (self.task)(p))).unwrap_or_else(|_| {
            Err(FusionError::Internal("morsel worker panicked; query aborted".into()))
        });
        self.metrics.add_morsel();
        self.metrics.add_parallel_cpu_nanos(start.elapsed().as_nanos() as u64);
        let mut queue = self.lock();
        queue.abort |= out.is_err();
        queue.ready.insert(p, out);
        if p == queue.emitted {
            self.arrived.notify_one();
        }
        queue
    }
}

fn wait<'a, Q>(on: &Condvar, queue: MutexGuard<'a, Q>) -> MutexGuard<'a, Q> {
    on.wait(queue).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fault::{FaultPolicy, RetryPolicy};
    use crate::ops::scan::{ScanExec, ScanFragment};
    use crate::ops::{drain, Operator};
    use crate::table::{Table, TableBuilder, TableColumn};
    use fusion_common::{ColumnId, DataType, Field, Schema, Value};
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

    /// A parallel scan gathers its workers' partitions in index order.
    #[test]
    fn gather_matches_sequential_scan_order() {
        for workers in [1, 2, 4, 8] {
            let m = ExecMetrics::new();
            let ctx = ExecContext::builder(m.clone()).parallelism(workers).build();
            let frag = fragment(ctx, vec![]);
            let mut scan = ScanExec::from_fragment(frag.clone(), workers);
            let parallel = drain(&mut scan).unwrap();

            let m2 = ExecMetrics::new();
            let seq_frag = fragment(ExecContext::builder(m2).build(), vec![]);
            let mut seq = ScanExec::from_fragment(seq_frag, 1);
            let sequential = drain(&mut seq).unwrap();

            assert_eq!(parallel, sequential, "workers={workers}");
            // Morsels are metered on workers only.
            let parallel_morsels = if workers > 1 { 10 } else { 0 };
            assert_eq!(m.snapshot().morsels_executed, parallel_morsels);
            assert_eq!(m.snapshot().rows_scanned, 100);
            assert_eq!(m.snapshot().partitions_read, 10);
        }
    }

    #[test]
    fn gather_prunes_and_filters_like_sequential() {
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m.clone()).parallelism(4).build();
        let filter = col(ColumnId(1)).gt_eq(lit(55i64));
        let frag = fragment(ctx, vec![filter]);
        let mut scan = ScanExec::from_fragment(frag, 4);
        let rows = drain(&mut scan).unwrap();
        assert_eq!(rows.len(), 45);
        assert_eq!(m.snapshot().partitions_pruned, 5);
        assert_eq!(m.snapshot().partitions_read, 5);
        // sk >= 55 over partition [50,60) filters 5 of 10 rows
        // column-at-a-time; the other 4 partitions pass all rows.
        assert_eq!(m.snapshot().rows_filtered_vectorized, 5);
    }

    #[test]
    fn worker_error_aborts_all_and_surfaces_typed() {
        let m = ExecMetrics::new();
        let ctx = ExecContext::builder(m)
            .fault_policy(FaultPolicy::default().with_poison("t", 4))
            .parallelism(4)
            .build();
        let frag = fragment(ctx, vec![]);
        let mut scan = ScanExec::from_fragment(frag, 4);
        match drain(&mut scan) {
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
        let mut scan = ScanExec::from_fragment(frag, 4);
        match drain(&mut scan) {
            Err(FusionError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn dropping_gather_mid_stream_joins_workers() {
        let ctx = ExecContext::builder(ExecMetrics::new()).parallelism(4).build();
        let frag = fragment(ctx, vec![]);
        let mut scan = ScanExec::from_fragment(frag, 4);
        // Pull one chunk, then drop with workers potentially parked at
        // the run-ahead bound: Drop must not hang or leak threads.
        let first = scan.next_chunk().unwrap();
        assert!(first.is_some());
        drop(scan);
    }

    #[test]
    fn morsels_yield_in_partition_order() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        for workers in [1, 4] {
            let out: Vec<usize> =
                Morsels::new(&ctx, 16, workers, |m| Ok((m % 3 != 0).then_some(m * 10)))
                    .collect::<Result<_>>()
                    .unwrap();
            let expect: Vec<usize> = (0..16).filter(|m| m % 3 != 0).map(|m| m * 10).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn morsels_surface_first_error() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        for workers in [1, 4] {
            let mut morsels = Morsels::<()>::new(&ctx, 32, workers, |m| {
                if m == 7 {
                    Err(FusionError::Execution("morsel 7 failed".into()))
                } else {
                    Ok(None)
                }
            });
            match morsels.next() {
                Some(Err(FusionError::Execution(msg))) => assert!(msg.contains("morsel 7")),
                other => panic!("unexpected {other:?}"),
            }
            assert!(morsels.next().is_none(), "the source ends after its error");
        }
    }

    /// A panicking task aborts the workers and surfaces typed.
    #[test]
    fn panicking_task_surfaces_typed() {
        let ctx = ExecContext::builder(ExecMetrics::new()).build();
        let morsels = Morsels::<usize>::new(&ctx, 8, 2, |m| {
            assert_ne!(m, 3, "task failure under test");
            Ok(Some(m))
        });
        match morsels.collect::<Result<Vec<_>>>() {
            Err(FusionError::Internal(msg)) => assert!(msg.contains("panicked")),
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}
