// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Morsel-driven parallel execution integration tests: result equality
//! across thread counts (fused and baseline, with and without faults),
//! unified typed failure under deadlines / budgets / cancellation, and
//! clean worker teardown when a consumer stops early.
//!
//! Unlike `tests/resilience.rs`, the tables here are *partitioned*
//! (orders into 6 single-row partitions, customers into 3) so the
//! parallel operators actually engage at parallelism > 1.

use std::time::{Duration, Instant};

use fusion_common::{DataType, FusionError, Value};
use fusion_engine::Session;
use fusion_exec::table::TableColumn;
use fusion_exec::{FaultPolicy, TableBuilder};

fn col(name: &str, data_type: DataType, nullable: bool) -> TableColumn {
    TableColumn {
        name: name.into(),
        data_type,
        nullable,
    }
}

/// One orders row: `(id, cust, region, amount)`.
type OrderRow = (i64, Option<i64>, Option<&'static str>, Option<f64>);

/// The engine_sql micro-dataset, partitioned: orders by `id` (width 1 →
/// six partitions), customers by `cid` (width 10 → three partitions).
fn session(parallelism: usize) -> Session {
    let mut s = Session::new();
    s.set_parallelism(parallelism);
    let mut b = TableBuilder::new(
        "orders",
        vec![
            col("id", DataType::Int64, false),
            col("cust", DataType::Int64, true),
            col("region", DataType::Utf8, true),
            col("amount", DataType::Float64, true),
        ],
    )
    .partition_by("id", 1)
    .unwrap();
    let rows: Vec<OrderRow> = vec![
        (1, Some(10), Some("north"), Some(50.0)),
        (2, Some(10), Some("south"), Some(75.0)),
        (3, Some(20), Some("north"), Some(20.0)),
        (4, Some(20), None, Some(90.0)),
        (5, Some(30), Some("east"), None),
        (6, None, Some("north"), Some(10.0)),
    ];
    for (id, cust, region, amount) in rows {
        b.add_row(vec![
            Value::Int64(id),
            cust.map(Value::Int64).unwrap_or(Value::Null),
            region.map(|r| Value::Utf8(r.into())).unwrap_or(Value::Null),
            amount.map(Value::Float64).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    s.register_table(b.build());

    let mut b = TableBuilder::new(
        "customers",
        vec![
            col("cid", DataType::Int64, false),
            col("name", DataType::Utf8, true),
            col("tier", DataType::Int64, true),
        ],
    )
    .partition_by("cid", 10)
    .unwrap();
    for (cid, name, tier) in [(10i64, "ann", 1i64), (20, "bob", 2), (40, "cem", 1)] {
        b.add_row(vec![
            Value::Int64(cid),
            Value::Utf8(name.into()),
            Value::Int64(tier),
        ])
        .unwrap();
    }
    s.register_table(b.build());
    s
}

/// Every result-producing query from `tests/engine_sql.rs` (the same
/// corpus `tests/resilience.rs` runs under fault schedules).
const QUERIES: &[&str] = &[
    "SELECT id, id * 2 + 1 AS d FROM orders WHERE id <= 2 ORDER BY id",
    "SELECT id FROM orders WHERE amount > 0",
    "SELECT id FROM orders WHERE region IS NULL",
    "SELECT id FROM orders WHERE cust IS NOT NULL AND amount IS NOT NULL",
    "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders \
     WHERE cust IS NOT NULL GROUP BY cust HAVING COUNT(*) > 1 ORDER BY cust",
    "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id > 100",
    "SELECT COUNT(DISTINCT region) AS r FROM orders",
    "SELECT COUNT(*) FILTER (WHERE region = 'north') AS north, COUNT(*) AS all_rows FROM orders",
    "SELECT id, name FROM orders JOIN customers ON cust = cid ORDER BY id",
    "SELECT id, name FROM orders LEFT JOIN customers ON cust = cid ORDER BY id",
    "SELECT id, CASE WHEN amount BETWEEN 0 AND 50 THEN 'small' \
                     WHEN amount > 50 THEN 'big' ELSE 'unknown' END AS bucket \
     FROM orders WHERE region IN ('north', 'east') ORDER BY id",
    "SELECT DISTINCT region FROM orders WHERE region IS NOT NULL",
    "SELECT id FROM orders WHERE region = 'north' \
     UNION ALL SELECT id FROM orders WHERE amount > 40",
    "SELECT t.r, t.n FROM (SELECT region AS r, COUNT(*) AS n \
                           FROM orders GROUP BY region) t WHERE t.n > 1 ORDER BY t.r",
    "SELECT id FROM orders WHERE cust IN (SELECT cid FROM customers WHERE tier = 1)",
    "SELECT id FROM orders WHERE amount > (SELECT AVG(amount) FROM orders)",
    "SELECT id FROM orders o1 \
     WHERE o1.amount > (SELECT AVG(o2.amount) FROM orders o2 WHERE o2.cust = o1.cust)",
    "SELECT id, amount, AVG(amount) OVER (PARTITION BY cust) AS a \
     FROM orders WHERE cust IS NOT NULL ORDER BY id",
    "SELECT id, amount FROM orders WHERE amount IS NOT NULL ORDER BY amount DESC LIMIT 2",
    "WITH north AS (SELECT id, amount FROM orders WHERE region = 'north') \
     SELECT a.id FROM north a, north b WHERE a.amount < b.amount ORDER BY a.id",
    "SELECT 'it''s' AS s FROM orders WHERE id = 1",
    "SELECT CAST(amount AS BIGINT) AS a FROM orders WHERE id = 2",
    "SELECT o.id, c.cid FROM orders o, customers c WHERE o.id = 1",
    "SELECT o.* FROM orders o WHERE o.id = 1",
    "SELECT id % 2 AS parity, COUNT(*) AS n FROM orders GROUP BY id % 2 ORDER BY parity",
    "SELECT id, COALESCE(region, 'none') AS r, ABS(id - 4) AS d FROM orders ORDER BY id",
];

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Acceptance: fused and baseline agree at every thread count, and every
/// thread count reproduces the sequential answer exactly. The dataset's
/// float amounts are dyadic, so even float sums are bit-identical between
/// the sequential accumulation and the partition-order partial merge.
#[test]
fn fused_equals_baseline_at_every_thread_count() {
    for sql in QUERIES {
        let expected = session(1)
            .sql(sql)
            .unwrap_or_else(|e| panic!("sequential run failed: {e}\n{sql}"))
            .sorted_rows();
        for &t in THREADS {
            for fused in [true, false] {
                let mut s = session(t);
                s.set_fusion_enabled(fused);
                let r = s
                    .sql(sql)
                    .unwrap_or_else(|e| panic!("threads={t} fused={fused}: {e}\n{sql}"));
                assert_eq!(
                    r.sorted_rows(),
                    expected,
                    "threads={t} fused={fused}: {sql}"
                );
            }
        }
    }
}

/// Acceptance: per-operator row counts in the execution profile are
/// bit-identical across thread counts, fused and baseline. Partition
/// spans are merged in partition-index order and every non-LIMIT query
/// drains its input fully, so `(op_id, label, rows_in, rows_out)` must
/// not depend on how morsels were interleaved. LIMIT queries are
/// excluded: an early stop reaches the scan at a thread-dependent row.
#[test]
fn profile_row_counts_are_thread_count_invariant() {
    for sql in QUERIES {
        if sql.contains("LIMIT") {
            continue;
        }
        for fused in [true, false] {
            let mut s = session(1);
            s.set_fusion_enabled(fused);
            let expected = s
                .sql(sql)
                .unwrap()
                .profile
                .expect("every execution is profiled")
                .row_counts();
            for &t in THREADS {
                let mut s = session(t);
                s.set_fusion_enabled(fused);
                let counts = s
                    .sql(sql)
                    .unwrap()
                    .profile
                    .expect("every execution is profiled")
                    .row_counts();
                assert_eq!(counts, expected, "threads={t} fused={fused}: {sql}");
            }
        }
    }
}

/// The corpus under a seeded transient-fault schedule at every thread
/// count: retries absorb the faults on every worker and the answers stay
/// byte-identical to the fault-free sequential run. Fault injection
/// hashes (table, partition, attempt), so the schedule is the same
/// regardless of which worker claims a partition.
#[test]
fn seeded_fault_schedule_is_thread_count_invariant() {
    let mut total_retries = 0u64;
    let mut total_faults = 0u64;
    for sql in QUERIES {
        let expected = session(1).sql(sql).unwrap().sorted_rows();
        for &t in THREADS {
            for fused in [true, false] {
                let mut s = session(t);
                s.set_fusion_enabled(fused);
                s.set_fault_policy(FaultPolicy::transient(9, 0.25));
                let r = s.sql(sql).unwrap_or_else(|e| {
                    panic!("threads={t} fused={fused} under faults: {e}\n{sql}")
                });
                assert_eq!(
                    r.sorted_rows(),
                    expected,
                    "threads={t} fused={fused}: {sql}"
                );
                total_retries += r.metrics.retries;
                total_faults += r.metrics.faults_injected;
            }
        }
    }
    assert!(total_retries > 0, "seed 9 must force retries");
    assert_eq!(
        total_retries, total_faults,
        "every injected fault under seed 9 is recovered by one retry"
    );
}

/// Parallel runs actually engage the parallel operators and meter them:
/// every partition becomes a morsel, and the parallel region records
/// wall and per-worker busy time.
#[test]
fn parallel_metrics_are_recorded() {
    let s = session(4);
    let r = s
        .sql("SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust ORDER BY cust")
        .unwrap();
    assert!(
        r.metrics.morsels_executed >= 6,
        "all six orders partitions must run as morsels, got {}",
        r.metrics.morsels_executed
    );
    assert!(r.metrics.parallel_wall_nanos > 0);
    assert!(r.metrics.parallel_cpu_nanos > 0);

    // Sequential runs never touch the parallel counters.
    let r = session(1)
        .sql("SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust ORDER BY cust")
        .unwrap();
    assert_eq!(r.metrics.morsels_executed, 0);
    assert_eq!(r.metrics.parallel_wall_nanos, 0);
}

/// Vectorized scan filtering rejects rows column-at-a-time before any
/// row is materialized, and reports how many it dropped.
#[test]
fn vectorized_filter_counts_rejected_rows() {
    let s = session(4);
    let r = s.sql("SELECT id FROM orders WHERE region = 'north'").unwrap();
    assert_eq!(r.rows.len(), 3);
    // Six rows scanned, three rejected by the vectorized `region='north'`
    // pass (one NULL region row among them).
    assert_eq!(r.metrics.rows_filtered_vectorized, 3);
}

/// A deadline hit while several workers hold in-flight morsels must
/// abort all of them and surface exactly one typed error — promptly,
/// with every worker joined (a hang here would trip the outer timer).
#[test]
fn deadline_under_parallelism_aborts_all_workers() {
    let started = Instant::now();
    let mut s = session(4);
    s.set_fault_policy(FaultPolicy::default().with_read_latency(Duration::from_millis(20)));
    s.set_timeout(Some(Duration::from_millis(5)));
    match s.sql("SELECT id, region FROM orders") {
        Err(FusionError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "workers must abort and join promptly after the deadline"
    );
}

/// An enforced memory budget crossed by a parallel aggregate build
/// surfaces the typed ResourceExhausted error, not a hang or panic.
#[test]
fn budget_exhaustion_under_parallelism_is_typed() {
    let mut s = session(4);
    s.set_enforced_memory_budget(Some(8));
    match s.sql("SELECT cust, SUM(amount) AS t FROM orders GROUP BY cust") {
        Err(FusionError::ResourceExhausted { budget, .. }) => assert_eq!(budget, 8),
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}

/// A cancelled session fails parallel queries with the typed Cancelled
/// error without spawning runaway workers.
#[test]
fn cancellation_under_parallelism_is_typed() {
    let s = session(4);
    s.cancel_token().cancel();
    match s.sql("SELECT id FROM orders") {
        Err(FusionError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

/// A LIMIT that stops pulling mid-stream drops the gather operator while
/// workers may still be blocked on the bounded channel; teardown must
/// join them all without hanging.
#[test]
fn early_limit_drops_workers_cleanly() {
    let started = Instant::now();
    for _ in 0..16 {
        let s = session(8);
        let r = s.sql("SELECT id FROM orders LIMIT 1").unwrap();
        assert_eq!(r.rows.len(), 1);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "repeated early-drop queries must not leak or hang workers"
    );
    // 64 one-row partitions: the workers stop within their run-ahead
    // bound of the one partition the limit takes, on the bare scan and
    // on a pipeline alike.
    for workers in [2, 4] {
        let mut s = session(workers);
        let mut b = TableBuilder::new("wide", vec![col("k", DataType::Int64, false)])
            .partition_by("k", 1)
            .unwrap();
        for k in 0..64 {
            b.add_row(vec![Value::Int64(k)]).unwrap();
        }
        s.register_table(b.build());
        for sql in [
            "SELECT k FROM wide LIMIT 1",
            "SELECT k + 1 AS k1 FROM wide WHERE k + 1 > 0 LIMIT 1",
        ] {
            let r = s.sql(sql).unwrap();
            assert_eq!(r.rows.len(), 1);
            let read = r.metrics.partitions_read;
            assert!(
                read <= 2 * workers as u64 + 1,
                "{sql} at {workers} workers read {read}/64"
            );
        }
    }
}

/// Parallelism above the partition count is clamped to one worker per
/// morsel and still correct.
#[test]
fn parallelism_above_partition_count_is_clamped() {
    let expected = session(1).sql("SELECT id FROM orders").unwrap().sorted_rows();
    let s = session(64);
    let r = s.sql("SELECT id FROM orders").unwrap();
    assert_eq!(r.sorted_rows(), expected);
    assert_eq!(r.metrics.morsels_executed, 6);
}
