// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Batch chaos harness: blast-radius isolation under injected failure.
//!
//! The property under test (DESIGN.md §13): no matter which fault points
//! fire — scan faults, shared-group execution failures, splice faults,
//! cache admission/lookup faults, silent cache corruption — a batch
//! never hangs, never returns a wrong answer, and confines every failure
//! to the query that suffered it. Surviving queries' rows must be
//! bit-identical to independent unfused runs; failed queries must report
//! a typed [`BatchQueryError`] in their own slot.

use std::time::Duration;

use fusion_common::{DataType, FusionError, Value};
use fusion_engine::{BatchStage, Session};
use fusion_exec::table::TableColumn;
use fusion_exec::{FaultPolicy, RetryPolicy, ReuseFaultRates, TableBuilder};
use fusion_tpcds::{all_queries, generate_catalog, TpcdsConfig};
use proptest::prelude::*;

/// Small scale: every proptest case builds two fresh catalogs.
const SCALE: f64 = 0.05;

fn tpcds_session(fusion: bool, workers: usize) -> Session {
    let cfg = TpcdsConfig::with_scale(SCALE);
    let mut s = if fusion {
        Session::new()
    } else {
        Session::baseline()
    };
    for table in generate_catalog(&cfg).into_tables() {
        s.register_table(table);
    }
    s.set_parallelism(workers);
    s
}

fn sql_of(id: &str) -> String {
    all_queries()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("no corpus query named {id}"))
        .sql
}

/// The chaos batch: an identical pair (forms an exact shared group) plus
/// a distinct query (control — must never be polluted by the others).
fn chaos_batch() -> Vec<String> {
    vec![sql_of("INTRO"), sql_of("INTRO"), sql_of("C42")]
}

/// Map a drawn index to a fault-point rate: off, flaky, or certain.
fn rate_of(ix: u8) -> f64 {
    match ix % 3 {
        0 => 0.0,
        1 => 0.3,
        _ => 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized fault schedules over TPC-DS batches, fused and
    /// baseline, 1 and 4 workers: every slot either carries rows
    /// bit-identical to an independent unfused run of that query, or a
    /// typed error — and the batch itself always completes. With a
    /// partition of `item` poisoned, the control query (C42) fails in its
    /// own slot while the INTRO pair, which never reads `item`, survives.
    #[test]
    fn chaos_batches_never_wrong_never_hung(
        seed in 0u64..1_000_000,
        scan_ix in 0u8..3,
        shared_ix in 0u8..3,
        splice_ix in 0u8..3,
        admit_ix in 0u8..3,
        lookup_ix in 0u8..3,
        corrupt_ix in 0u8..3,
        fused in any::<bool>(),
        parallel in any::<bool>(),
        poisoned in any::<bool>(),
    ) {
        let workers = if parallel { 4 } else { 1 };
        let sqls = chaos_batch();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();

        // Ground truth: independent unfused runs, no faults, no reuse.
        let mut reference = tpcds_session(false, workers);
        reference.set_reuse_enabled(false);
        let expected: Vec<_> = refs.iter().map(|q| reference.sql(q).unwrap()).collect();

        let mut chaos = tpcds_session(fused, workers);
        // Scan faults stay mild so some queries survive their retries;
        // the reuse fault points sweep the full off/flaky/certain grid.
        let mut policy = FaultPolicy::transient(seed, [0.0, 0.05, 0.15][(scan_ix % 3) as usize])
            .with_reuse_faults(ReuseFaultRates {
                shared_exec: rate_of(shared_ix),
                splice: rate_of(splice_ix),
                cache_admit: rate_of(admit_ix),
                cache_lookup: rate_of(lookup_ix),
                cache_corrupt: rate_of(corrupt_ix),
            });
        if poisoned {
            policy = policy.with_poison("item", 0);
        }
        chaos.set_fault_policy(policy);

        // Two rounds: the first executes and (maybe) admits shared
        // results, the second exercises warm lookups against possibly
        // corrupted entries.
        for round in 0..2 {
            let batch = chaos.run_batch(&refs).unwrap();
            prop_assert_eq!(batch.results.len(), refs.len());
            for (i, slot) in batch.results.iter().enumerate() {
                match slot {
                    Ok(r) => prop_assert_eq!(
                        r.sorted_rows(),
                        expected[i].sorted_rows(),
                        "round {} query {} diverged (seed={}, fused={}, workers={})\nnotes: {:?}",
                        round, i, seed, fused, workers, r.report.reuse
                    ),
                    Err(e) => {
                        prop_assert_eq!(e.query, i, "error landed in the wrong slot");
                        prop_assert_eq!(e.stage, BatchStage::Execute);
                    }
                }
            }
            if poisoned {
                prop_assert!(
                    batch.results[2].is_err(),
                    "round {}: poisoned C42 returned rows (seed={}, fused={}, workers={})",
                    round, seed, fused, workers
                );
                for i in [0, 1] {
                    prop_assert!(
                        batch.results[i].is_ok(),
                        "round {}: poison on `item` leaked into INTRO slot {} \
                         (seed={}, fused={}, workers={})",
                        round, i, seed, fused, workers
                    );
                }
            }
            let failures = batch.failures().count() as u64;
            prop_assert_eq!(
                batch.metrics.batch_query_failures, failures,
                "failure counter must match failed slots (round {})", round
            );
        }
    }
}

// ---------------------------------------------------------------------
// Continuous ingest under chaos: appends between batch rounds
// ---------------------------------------------------------------------

fn ingest_row(i: i64) -> Vec<Value> {
    vec![
        Value::Int64(i),
        Value::Int64(i % 4),
        Value::Float64((i % 7) as f64 * 10.0),
    ]
}

/// `orders` with `base + extra` rows built cold in one shot — the ground
/// truth for a session that reached the same row count through appends.
fn ingest_session(total_rows: i64) -> Session {
    let mut s = Session::new();
    let mut b = TableBuilder::new(
        "orders",
        vec![
            col("o_id", DataType::Int64),
            col("o_cust", DataType::Int64),
            col("o_total", DataType::Float64),
        ],
    )
    .partition_by("o_id", 5)
    .unwrap();
    for i in 0..total_rows {
        b.add_row(ingest_row(i)).unwrap();
    }
    s.register_table(b.build());
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Rolling appends between batch rounds under randomized reuse-fault
    /// schedules: maintainable entries refresh in place, non-maintainable
    /// ones (float SUM) evict — either way, every surviving slot must be
    /// bit-identical to a cold independent run over the same cumulative
    /// rows, and the batch never hangs.
    #[test]
    fn appends_between_rounds_never_serve_stale(
        seed in 0u64..1_000_000,
        lookup_ix in 0u8..3,
        admit_ix in 0u8..3,
        corrupt_ix in 0u8..3,
        parallel in any::<bool>(),
    ) {
        let workers = if parallel { 4 } else { 1 };
        // Mergeable aggregate, distributive filter, and a float SUM that
        // must fall back to evict-and-recompute on every append.
        let queries = [
            "SELECT o_cust, COUNT(*) AS n, MAX(o_id) AS hi FROM orders GROUP BY o_cust",
            "SELECT o_id, o_cust FROM orders WHERE o_total > 20",
            Q_ORDERS,
            "SELECT o_cust, COUNT(*) AS n, MAX(o_id) AS hi FROM orders GROUP BY o_cust",
            "SELECT o_id, o_cust FROM orders WHERE o_total > 20",
            Q_ORDERS,
        ];

        let mut chaos = ingest_session(20);
        chaos.set_parallelism(workers);
        chaos.set_fault_policy(
            FaultPolicy::transient(seed, 0.0).with_reuse_faults(ReuseFaultRates {
                cache_lookup: rate_of(lookup_ix),
                cache_admit: rate_of(admit_ix),
                cache_corrupt: rate_of(corrupt_ix),
                ..ReuseFaultRates::default()
            }),
        );

        let mut total = 20i64;
        for round in 0..3 {
            let batch = chaos.run_batch(&queries).unwrap();
            prop_assert_eq!(batch.results.len(), queries.len());

            let mut reference = ingest_session(total);
            reference.set_reuse_enabled(false);
            reference.set_parallelism(workers);
            for (i, slot) in batch.results.iter().enumerate() {
                match slot {
                    Ok(r) => {
                        let expected = reference.sql(queries[i]).unwrap();
                        prop_assert_eq!(
                            r.sorted_rows(),
                            expected.sorted_rows(),
                            "round {} query {} diverged after appends \
                             (seed={}, workers={})\nnotes: {:?}",
                            round, i, seed, workers, r.report.reuse
                        );
                    }
                    Err(e) => {
                        prop_assert_eq!(e.query, i, "error landed in the wrong slot");
                    }
                }
            }

            let added = 3 + round as i64;
            chaos
                .append_table("orders", (total..total + added).map(ingest_row).collect())
                .unwrap();
            total += added;
        }
    }
}

// ---------------------------------------------------------------------
// Targeted scenarios over a micro-catalog (fast, deterministic)
// ---------------------------------------------------------------------

fn col(name: &str, data_type: DataType) -> TableColumn {
    TableColumn {
        name: name.into(),
        data_type,
        nullable: true,
    }
}

/// `orders(o_id, o_cust, o_total)`, partitioned by `o_id` into blocks of
/// five rows (4 partitions over 20 rows) so poison and latency faults
/// can target subsets of the scan.
fn orders_session() -> Session {
    let mut s = Session::new();
    let mut b = TableBuilder::new(
        "orders",
        vec![
            col("o_id", DataType::Int64),
            col("o_cust", DataType::Int64),
            col("o_total", DataType::Float64),
        ],
    )
    .partition_by("o_id", 5)
    .unwrap();
    for i in 0..20i64 {
        b.add_row(vec![
            Value::Int64(i),
            Value::Int64(i % 4),
            Value::Float64((i % 7) as f64 * 10.0),
        ])
        .unwrap();
    }
    s.register_table(b.build());
    let mut c = TableBuilder::new(
        "customers",
        vec![col("c_id", DataType::Int64), col("c_tier", DataType::Int64)],
    )
    .partition_by("c_id", 4)
    .unwrap();
    for i in 0..12i64 {
        c.add_row(vec![Value::Int64(i), Value::Int64(i % 3)]).unwrap();
    }
    s.register_table(c.build());
    s
}

const Q_ORDERS: &str = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";
const Q_CUSTOMERS: &str = "SELECT c_tier, COUNT(c_id) AS n FROM customers GROUP BY c_tier";

/// A permanently-failing query (poisoned partition survives the
/// fallback attempt too) is reported in its own slot; every other query
/// in the batch completes with correct rows.
#[test]
fn permanently_failing_query_is_isolated_to_its_slot() {
    let expected_orders = orders_session().sql(Q_ORDERS).unwrap();

    let mut s = orders_session();
    s.set_fault_policy(FaultPolicy::default().with_poison("customers", 1));
    let batch = s.run_batch(&[Q_ORDERS, Q_CUSTOMERS, Q_ORDERS]).unwrap();

    assert_eq!(batch.results.len(), 3);
    for i in [0, 2] {
        let r = batch.query(i).unwrap_or_else(|| panic!("query {i} must survive"));
        assert_eq!(r.sorted_rows(), expected_orders.sorted_rows());
    }
    let err = batch.error(1).expect("poisoned query fails in its slot");
    assert_eq!(err.query, 1);
    assert_eq!(err.stage, BatchStage::Execute);
    assert!(
        matches!(err.error, FusionError::DataCorruption(_)),
        "typed error survives: {}",
        err.error
    );
    assert_eq!(batch.metrics.batch_query_failures, 1);
    assert!(!batch.all_succeeded());
}

/// A malformed query fails at the planning stage without taking down the
/// plannable queries around it.
#[test]
fn plan_error_lands_in_its_slot() {
    let s = orders_session();
    let batch = s
        .run_batch(&[Q_ORDERS, "SELECT nope FROM nothing", Q_ORDERS])
        .unwrap();
    assert!(batch.query(0).is_some() && batch.query(2).is_some());
    let err = batch.error(1).unwrap();
    assert_eq!(err.stage, BatchStage::Plan);
    assert_eq!(batch.metrics.batch_query_failures, 1);
}

/// When a shared group's one-shot execution permanently fails, every
/// consumer detaches and re-executes its un-spliced original — all
/// queries succeed, visibly via `consumers_detached`.
#[test]
fn shared_group_failure_detaches_all_consumers() {
    let expected = orders_session().sql(Q_ORDERS).unwrap();

    let mut s = orders_session();
    s.set_fault_policy(
        FaultPolicy::transient(7, 0.0)
            .with_reuse_faults(ReuseFaultRates {
                shared_exec: 1.0,
                ..ReuseFaultRates::default()
            }),
    );
    let batch = s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();

    assert!(batch.all_succeeded(), "detached consumers re-execute unshared");
    for (_, r) in batch.successes() {
        assert_eq!(r.sorted_rows(), expected.sorted_rows());
    }
    assert_eq!(batch.metrics.shared_group_failures, 1);
    assert_eq!(batch.metrics.consumers_detached, 2);
    assert_eq!(batch.metrics.shared_subplans_executed, 0);
    assert!(
        batch.metrics.retries >= 1,
        "shared execution retried its transient faults before giving up"
    );
}

/// Repeated shared-execution failures of one fingerprint trip its
/// circuit breaker: the group stops forming, consumers run their
/// originals, and a later cooled-down probe closes the breaker again.
#[test]
fn circuit_breaker_stops_reforming_failing_groups() {
    let mut s = orders_session();
    s.set_retry_policy(RetryPolicy::none());
    s.set_fault_policy(
        FaultPolicy::transient(7, 0.0)
            .with_reuse_faults(ReuseFaultRates {
                shared_exec: 1.0,
                ..ReuseFaultRates::default()
            }),
    );

    // Default threshold is 3 consecutive failures.
    for round in 0..3 {
        let batch = s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
        assert!(batch.all_succeeded());
        assert_eq!(batch.metrics.shared_group_failures, 1, "round {round}");
        let expected_trips = u64::from(round == 2);
        assert_eq!(
            batch.metrics.circuit_breaker_trips, expected_trips,
            "breaker trips exactly on the third failure (round {round})"
        );
    }

    // Open breaker: no shared execution is attempted at all.
    let open = s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    assert!(open.all_succeeded());
    assert_eq!(open.metrics.shared_group_failures, 0);
    assert_eq!(open.metrics.consumers_detached, 0);
    assert!(
        open.query(0)
            .unwrap()
            .report
            .reuse
            .iter()
            .any(|n| n.contains("circuit breaker open")),
        "notes: {:?}",
        open.query(0).unwrap().report.reuse
    );

    // Heal the fault and wait out the cool-down (default 4 swallowed
    // batches), then the half-open probe succeeds and sharing resumes.
    s.set_fault_policy(FaultPolicy::default());
    for _ in 0..3 {
        s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    }
    let probe = s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    assert_eq!(
        probe.metrics.shared_subplans_executed + probe.metrics.reuse_cache_hits / 2,
        1,
        "probe batch shares again: {:?}",
        probe.report
    );
}

/// A cache entry corrupted after admission is detected by its checksum
/// on the next lookup, evicted, and never served: the query falls
/// through to cold execution and still returns correct rows.
#[test]
fn corrupted_cache_entry_is_evicted_never_served() {
    let expected = orders_session().sql(Q_ORDERS).unwrap();

    let mut s = orders_session();
    s.set_fault_policy(corrupt_every_admission());
    let batch = s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    assert!(batch.all_succeeded());
    assert!(s.reuse_cache_len() >= 1, "result admitted, then corrupted");

    let after = s.sql(Q_ORDERS).unwrap();
    assert_eq!(after.sorted_rows(), expected.sorted_rows(), "never served wrong rows");
    assert_eq!(after.metrics.reuse_cache_hits, 0, "poisoned entry is not a hit");
    assert_eq!(after.metrics.cache_poison_evictions, 1);
    assert!(after.metrics.bytes_scanned > 0, "fell through to cold execution");

    // The nonzero counter surfaces in EXPLAIN ANALYZE's reuse section.
    let mut explain = orders_session();
    explain.set_fault_policy(corrupt_every_admission());
    explain.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    let text = explain
        .explain_analyze(Q_ORDERS)
        .expect("explain analyze after corruption");
    assert!(
        text.contains("-- workload reuse --") && text.contains("cache_poison_evictions=1"),
        "fault counters rendered: {text}"
    );
}

/// Corrupts every cache entry right after it is admitted.
fn corrupt_every_admission() -> FaultPolicy {
    FaultPolicy::transient(3, 0.0).with_reuse_faults(ReuseFaultRates {
        cache_corrupt: 1.0,
        ..ReuseFaultRates::default()
    })
}

/// A lone query is a window of one, so a poisoned entry re-warms on lone
/// queries as it does in any window: the query that catches the poison
/// evicts the entry, executes the subplan once and re-admits the result,
/// and the next lone query is a warm hit.
#[test]
fn poisoned_entry_rewarms_on_lone_queries() {
    let expected = orders_session().sql(Q_ORDERS).unwrap();

    let mut s = orders_session();
    s.set_fault_policy(corrupt_every_admission());
    s.run_batch(&[Q_ORDERS, Q_ORDERS]).unwrap();
    assert_eq!(s.reuse_cache_len(), 1, "result admitted, then corrupted");
    s.set_fault_policy(FaultPolicy::default());

    let caught = s.sql(Q_ORDERS).unwrap();
    assert_eq!(caught.sorted_rows(), expected.sorted_rows(), "never served wrong rows");
    assert_eq!(caught.metrics.cache_poison_evictions, 1);
    assert_eq!(caught.metrics.reuse_cache_hits, 0);
    assert_eq!(
        caught.metrics.bytes_scanned, expected.metrics.bytes_scanned,
        "the subplan executed once, cold"
    );
    assert_eq!(s.reuse_cache_len(), 1, "the fresh result is re-admitted");

    let warm = s.sql(Q_ORDERS).unwrap();
    assert_eq!(warm.sorted_rows(), expected.sorted_rows());
    assert_eq!(warm.metrics.reuse_cache_hits, 1, "{:?}", warm.report.reuse);
    assert_eq!(warm.metrics.bytes_scanned, 0, "served warm");
}

/// Deadline expiry mid-batch: queries that finish under the per-query
/// deadline keep their results; the query that blows it gets a typed
/// `DeadlineExceeded` in its slot, and the batch returns promptly.
#[test]
fn deadline_expiry_mid_batch_keeps_completed_results() {
    // Prunable query reads 1 of 4 partitions (~40ms under injected
    // latency); the full scan needs all 4 (~160ms) and blows the 100ms
    // per-attempt deadline.
    let q_fast = "SELECT o_id FROM orders WHERE o_id < 5";
    let q_slow = Q_ORDERS;
    let expected_fast = orders_session().sql(q_fast).unwrap();

    let mut s = orders_session();
    s.set_reuse_enabled(false);
    // One worker, whatever FUSION_PARALLELISM says: the arithmetic above
    // is four sequential reads; four workers overlap them into ~40ms.
    s.set_parallelism(1);
    s.set_fault_policy(FaultPolicy::default().with_read_latency(Duration::from_millis(40)));
    s.set_timeout(Some(Duration::from_millis(100)));
    let batch = s.run_batch(&[q_fast, q_slow, q_fast]).unwrap();

    for i in [0, 2] {
        let r = batch.query(i).unwrap_or_else(|| panic!("pruned query {i} finishes in time"));
        assert_eq!(r.sorted_rows(), expected_fast.sorted_rows());
    }
    let err = batch.error(1).expect("full scan blows the deadline");
    assert_eq!(err.error, FusionError::DeadlineExceeded);
    assert_eq!(batch.metrics.batch_query_failures, 1);
}

/// Cancellation tears the whole batch down without hanging: every slot
/// reports the typed `Cancelled` error and the shared-group machinery
/// does not wedge on the cancelled context.
#[test]
fn cancelled_batch_tears_down_without_hanging() {
    let s = orders_session();
    s.cancel_token().cancel();
    let batch = s.run_batch(&[Q_ORDERS, Q_ORDERS, Q_CUSTOMERS]).unwrap();
    assert_eq!(batch.results.len(), 3);
    for i in 0..3 {
        let err = batch.error(i).expect("cancelled query reports its slot");
        assert_eq!(err.error, FusionError::Cancelled);
    }
    assert_eq!(batch.metrics.batch_query_failures, 3);
    assert_eq!(batch.metrics.shared_subplans_executed, 0);
}

/// Regression: per-query batch metrics are deltas, not cumulative
/// prefixes. Under a mid-batch failure, the last query's counters must
/// match the first query's (identical work), not absorb the failed
/// neighbor's scans.
#[test]
fn per_query_metrics_are_deltas_not_prefixes() {
    let mut s = orders_session();
    s.set_reuse_enabled(false);
    s.set_fault_policy(FaultPolicy::default().with_poison("customers", 1));
    let batch = s.run_batch(&[Q_ORDERS, Q_CUSTOMERS, Q_ORDERS]).unwrap();

    let first = batch.query(0).unwrap();
    let last = batch.query(2).unwrap();
    assert!(batch.error(1).is_some());
    assert!(first.metrics.bytes_scanned > 0);
    assert_eq!(
        first.metrics.bytes_scanned, last.metrics.bytes_scanned,
        "identical queries must report identical work"
    );
    assert_eq!(
        first.metrics.fallbacks + last.metrics.fallbacks,
        0,
        "the failed neighbor's fallback must not leak into survivors"
    );
    assert!(
        first.metrics.bytes_scanned < batch.metrics.bytes_scanned,
        "batch total stays authoritative"
    );
}
