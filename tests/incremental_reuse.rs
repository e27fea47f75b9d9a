// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Incremental reuse under appends: cached subplans whose dependencies
//! moved by *pure appends* must refresh in place (delta execution +
//! append or aggregate merge) instead of being evicted, refreshed rows
//! must be bit-identical to a cold recompute over the grown table, and
//! consumers strictly subsumed by a cached superset must be served
//! through their own compensating filter. Also pins the dependency
//! stamping fixes: one stamp per table regardless of scan interleaving,
//! and catalog-cased stamps for mixed-case SQL table references.

use fusion_common::{DataType, Value};
use fusion_engine::Session;
use fusion_exec::metrics::MetricsSnapshot;
use fusion_exec::table::TableColumn;
use fusion_exec::TableBuilder;

/// Base orders table: 40 rows, integer measures for mergeable aggregates
/// and a float column for the non-maintainable fallback case.
fn orders_columns() -> Vec<TableColumn> {
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
            name: "o_amt".into(),
            data_type: DataType::Int64,
            nullable: true,
        },
        TableColumn {
            name: "o_total".into(),
            data_type: DataType::Float64,
            nullable: true,
        },
    ]
}

fn order_row(i: i64) -> Vec<Value> {
    vec![
        Value::Int64(i),
        Value::Int64(i % 5),
        Value::Int64((i % 9) * 10),
        Value::Float64((i % 7) as f64 * 2.5),
    ]
}

const BASE_ROWS: i64 = 40;

fn orders_table(n: i64) -> fusion_exec::Table {
    let mut b = TableBuilder::new("orders", orders_columns());
    for i in 0..n {
        b.add_row(order_row(i)).unwrap();
    }
    b.build()
}

/// Delta continuing the base pattern; `start` past a multiple of 5
/// exercises both existing and (via `% 5`) recurring group keys.
fn delta_rows(start: i64, n: i64) -> Vec<Vec<Value>> {
    (start..start + n).map(order_row).collect()
}

fn warm_session(workers: usize) -> Session {
    let mut s = Session::new();
    s.register_table(orders_table(BASE_ROWS));
    s.set_parallelism(workers);
    s
}

/// A reuse-free session over the *grown* table built cold in one shot —
/// the ground truth a refreshed entry must be bit-identical to.
fn cold_session(total_rows: i64, fusion: bool, workers: usize) -> Session {
    let mut s = if fusion {
        Session::new()
    } else {
        Session::baseline()
    };
    s.set_reuse_enabled(false);
    s.register_table(orders_table(total_rows));
    s.set_parallelism(workers);
    s
}

/// Distributive subplan (projection over filter over scan): after an
/// append the cached entry refreshes in place — delta partitions only —
/// and serves rows identical to a cold run over the grown table.
#[test]
fn filter_subplan_refreshes_in_place_under_append() {
    let sql = "SELECT o_id, o_amt FROM orders WHERE o_amt > 20";
    let mut s = warm_session(1);
    s.run_batch(&[sql, sql]).unwrap();
    assert!(s.reuse_cache_len() >= 1, "batch admitted the shared result");

    s.append_table("orders", delta_rows(BASE_ROWS, 15)).unwrap();
    let warm = s.sql(sql).unwrap();
    assert_eq!(
        warm.metrics.reuse_cache_refreshes, 1,
        "append-only staleness refreshes instead of evicting: {:?}",
        warm.report.reuse
    );
    assert_eq!(warm.metrics.reuse_cache_hits, 1, "refreshed entry serves");
    assert_eq!(warm.metrics.reuse_cache_evictions, 0);

    let cold = cold_session(BASE_ROWS + 15, true, 1).sql(sql).unwrap();
    // Single worker: fully deterministic row order, so compare exactly.
    assert_eq!(warm.rows, cold.rows, "refreshed rows must be bit-identical");
}

/// Aggregate subplan with mergeable functions (COUNT, integer SUM, MIN,
/// MAX): the delta's partial aggregate merges group-wise into the cached
/// rows, bit-identical to recomputing over the grown table.
#[test]
fn aggregate_subplan_merges_delta_under_append() {
    let sql = "SELECT o_cust, COUNT(*) AS c, SUM(o_amt) AS s, MIN(o_id) AS lo, MAX(o_id) AS hi \
               FROM orders GROUP BY o_cust";
    let mut s = warm_session(1);
    s.run_batch(&[sql, sql]).unwrap();
    assert!(s.reuse_cache_len() >= 1);

    // Two rounds: a refreshed entry must itself stay refreshable.
    let mut total = BASE_ROWS;
    for round in 0..2 {
        s.append_table("orders", delta_rows(total, 11)).unwrap();
        total += 11;
        let warm = s.sql(sql).unwrap();
        assert_eq!(
            warm.metrics.reuse_cache_refreshes, 1,
            "round {round}: merge refresh expected: {:?}",
            warm.report.reuse
        );
        assert_eq!(warm.metrics.reuse_cache_evictions, 0, "round {round}");
        let cold = cold_session(total, true, 1).sql(sql).unwrap();
        assert_eq!(warm.rows, cold.rows, "round {round}: merged rows diverged");
    }
}

/// A float SUM cannot merge bit-identically (`old + delta` regroups the
/// additions), so the entry falls back to evict-and-recompute — the
/// pre-refresh behavior — and results stay correct.
#[test]
fn float_sum_falls_back_to_evict_and_recompute() {
    let sql = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";
    let mut s = warm_session(1);
    s.run_batch(&[sql, sql]).unwrap();
    assert!(s.reuse_cache_len() >= 1);

    s.append_table("orders", delta_rows(BASE_ROWS, 10)).unwrap();
    let warm = s.sql(sql).unwrap();
    assert_eq!(
        warm.metrics.reuse_cache_refreshes, 0,
        "float SUM must not claim an exact merge: {:?}",
        warm.report.reuse
    );
    assert_eq!(warm.metrics.reuse_cache_hits, 0);
    assert!(
        warm.metrics.reuse_cache_evictions >= 1,
        "non-maintainable shape falls back to eviction"
    );
    // The refusal is a typed maintainability-certificate rejection, not a
    // silent miss: counted on the metrics and rendered as a prover note.
    assert!(
        warm.metrics.reuse_certificates_rejected >= 1,
        "float SUM refresh refusal must be certificate-typed: {:?}",
        warm.report.reuse
    );
    assert!(
        warm.report
            .reuse
            .iter()
            .any(|n| n.contains("FUSION_ANALYSIS_REUSE_MAINTAIN")),
        "rejection note carries the typed code: {:?}",
        warm.report.reuse
    );
    let cold = cold_session(BASE_ROWS + 10, true, 1).sql(sql).unwrap();
    assert_eq!(warm.rows, cold.rows);
}

/// A consumer whose predicate strictly extends a cached superset's is
/// served from the cached rows through its own compensating filter.
#[test]
fn subsumption_hit_serves_consumer_from_cached_superset() {
    let sup = "SELECT * FROM orders WHERE o_amt > 20";
    let sub = "SELECT * FROM orders WHERE o_amt > 20 AND o_id < 25";
    let s = warm_session(1);
    s.run_batch(&[sup, sup]).unwrap();
    assert!(s.reuse_cache_len() >= 1);

    let hit = s.sql(sub).unwrap();
    assert_eq!(
        hit.metrics.subsumption_hits, 1,
        "consumer is strictly subsumed by the cached superset: {:?}",
        hit.report.reuse
    );
    let mut cold = cold_session(BASE_ROWS, true, 1);
    let cold = cold.sql(sub).unwrap();
    assert_eq!(hit.rows, cold.rows, "compensating filter must recover exact rows");
}

/// Subsumption and refresh compose: after an append, the superset entry
/// refreshes in place first, then serves the subsumed consumer.
#[test]
fn subsumption_serves_refreshed_superset_after_append() {
    let sup = "SELECT * FROM orders WHERE o_amt > 20";
    let sub = "SELECT * FROM orders WHERE o_amt > 20 AND o_id < 45";
    let mut s = warm_session(1);
    s.run_batch(&[sup, sup]).unwrap();

    s.append_table("orders", delta_rows(BASE_ROWS, 12)).unwrap();
    let hit = s.sql(sub).unwrap();
    assert_eq!(hit.metrics.subsumption_hits, 1, "{:?}", hit.report.reuse);
    assert_eq!(
        hit.metrics.reuse_cache_refreshes, 1,
        "superset refreshed before serving: {:?}",
        hit.report.reuse
    );
    let cold = cold_session(BASE_ROWS + 12, true, 1).sql(sub).unwrap();
    assert_eq!(hit.rows, cold.rows);
}

/// Re-registering (a rewrite) after appends clears append lineage: the
/// entry must evict, not refresh over bogus deltas.
#[test]
fn rewrite_after_append_clears_lineage_and_evicts() {
    let sql = "SELECT o_id, o_amt FROM orders WHERE o_amt > 20";
    let mut s = warm_session(1);
    s.run_batch(&[sql, sql]).unwrap();
    s.append_table("orders", delta_rows(BASE_ROWS, 5)).unwrap();

    // Rewrite: same schema, fewer rows — not an append.
    s.register_table(orders_table(30));
    let fresh = s.sql(sql).unwrap();
    assert_eq!(fresh.metrics.reuse_cache_refreshes, 0);
    assert_eq!(fresh.metrics.reuse_cache_hits, 0);
    assert!(fresh.metrics.reuse_cache_evictions >= 1);
    let cold = cold_session(30, true, 1).sql(sql).unwrap();
    assert_eq!(fresh.rows, cold.rows);
}

/// Acceptance property: under rolling appends, every query stays
/// bit-identical to a cold independent run over the grown table, across
/// fused/baseline optimizers and 1/4 workers — and the warm cache keeps
/// serving (hit rate > 0) instead of evicting on every append.
#[test]
fn rolling_appends_bit_identical_across_modes() {
    // Each query twice per round, like a dashboard re-submitting its
    // panels: round 1 shares and admits, later rounds serve warm.
    let queries = [
        "SELECT o_id, o_amt FROM orders WHERE o_amt > 20",
        "SELECT o_cust, COUNT(*) AS c, SUM(o_amt) AS s FROM orders GROUP BY o_cust",
        "SELECT o_id, o_amt FROM orders WHERE o_amt > 20",
        "SELECT o_cust, COUNT(*) AS c, SUM(o_amt) AS s FROM orders GROUP BY o_cust",
    ];
    for fusion in [true, false] {
        for workers in [1usize, 4] {
            let mut s = if fusion {
                Session::new()
            } else {
                Session::baseline()
            };
            s.register_table(orders_table(BASE_ROWS));
            s.set_parallelism(workers);

            let mut total = BASE_ROWS;
            let mut refreshes = 0u64;
            let mut hits = 0u64;
            for round in 0..3 {
                let batch = s.run_batch(&queries).unwrap();
                assert!(batch.all_succeeded());
                refreshes += batch.metrics.reuse_cache_refreshes;
                hits += batch.metrics.reuse_cache_hits;
                let mut cold = cold_session(total, fusion, workers);
                for (q, sql) in queries.iter().enumerate() {
                    let ind = cold.sql(sql).unwrap();
                    let got = batch.query(q).unwrap();
                    assert_eq!(
                        got.sorted_rows(),
                        ind.sorted_rows(),
                        "round {round} query {q} diverged \
                         (fusion={fusion}, workers={workers})\nnotes: {:?}",
                        got.report.reuse
                    );
                    if workers == 1 {
                        assert_eq!(got.rows, ind.rows, "round {round} query {q} order diverged");
                    }
                }
                s.append_table("orders", delta_rows(total, 9)).unwrap();
                total += 9;
            }
            assert!(
                hits > 0,
                "warm cache must keep serving under rolling appends \
                 (fusion={fusion}, workers={workers})"
            );
            assert!(
                refreshes > 0,
                "appends must be absorbed by in-place refreshes \
                 (fusion={fusion}, workers={workers})"
            );
        }
    }
}

/// Dependency stamping regression: a plan scanning the same table from
/// non-adjacent branches must stamp it once (`sort` before `dedup` —
/// `dedup` alone only removes *consecutive* duplicates).
#[test]
fn dep_stamps_deduplicate_interleaved_table_scans() {
    let mut s = Session::new();
    s.register_table(orders_table(BASE_ROWS));
    let mut b = TableBuilder::new(
        "refs",
        vec![TableColumn {
            name: "r_id".into(),
            data_type: DataType::Int64,
            nullable: false,
        }],
    );
    for i in 0..10i64 {
        b.add_row(vec![Value::Int64(i)]).unwrap();
    }
    s.register_table(b.build());

    // Scan order orders, refs, orders: the duplicate is not consecutive.
    let sql = "SELECT o_id FROM orders WHERE o_amt > 20 \
               UNION ALL SELECT r_id FROM refs WHERE r_id > 2 \
               UNION ALL SELECT o_id FROM orders WHERE o_amt > 60";
    s.run_batch(&[sql, sql]).unwrap();
    let deps = s.reuse_cache_entry_deps();
    assert!(!deps.is_empty(), "batch admitted the shared result");
    for entry in &deps {
        let mut names: Vec<&str> = entry.iter().map(|(t, _)| t.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            before,
            "one dependency stamp per table, got {entry:?}"
        );
    }
}

/// Dependency stamping regression: SQL may reference a table in any
/// casing; stamps must normalize to catalog casing so version checks
/// compare against real versions, and an unknown-cased stamp must never
/// make an entry immortal across re-registration.
#[test]
fn mixed_case_table_references_stamp_catalog_casing() {
    let sql = "SELECT o_id, o_amt FROM OrDeRs WHERE o_amt > 20";
    let mut s = Session::new();
    s.register_table(orders_table(BASE_ROWS));
    s.run_batch(&[sql, sql]).unwrap();

    let deps = s.reuse_cache_entry_deps();
    assert!(!deps.is_empty());
    for entry in &deps {
        for (t, v) in entry {
            assert_eq!(t, "orders", "stamp must use catalog casing, got {t}");
            assert!(*v >= 1, "stamp must carry the real version, got {v}");
        }
    }

    // The stamped entry must track the real table: a rewrite evicts it.
    s.register_table(orders_table(25));
    let fresh = s.sql(sql).unwrap();
    assert_eq!(fresh.metrics.reuse_cache_hits, 0, "{:?}", fresh.report.reuse);
    let cold = cold_session(25, true, 1).sql(sql).unwrap();
    assert_eq!(fresh.sorted_rows(), cold.sorted_rows());

    // And appends through the canonical name refresh it.
    s.run_batch(&[sql, sql]).unwrap();
    s.append_table("orders", delta_rows(25, 8)).unwrap();
    let warm = s.sql(sql).unwrap();
    assert_eq!(warm.metrics.reuse_cache_refreshes, 1, "{:?}", warm.report.reuse);
}

/// A single-plan batch with a warm cache still gets cache splices: batch
/// sizes below the sharing threshold must not skip the lookup path. And a
/// lone query is that window of one: `sql(q)` and `run_batch(&[q])` meet
/// the cache identically — same rows, same reuse notes, same counters —
/// whether the entry serves as it is, is refreshed in place over an
/// append, or subsumes the query.
#[test]
fn single_plan_batch_serves_from_warm_cache() {
    let exact = "SELECT o_cust, COUNT(*) AS c FROM orders GROUP BY o_cust";
    let sup = "SELECT * FROM orders WHERE o_amt > 20";
    let sub = "SELECT * FROM orders WHERE o_amt > 20 AND o_id < 25";
    // (query admitted by a window of two, rows appended after it, lone
    // query, its expected (hits, refreshes, subsumption hits))
    let cases = [
        (exact, 0, exact, (1, 0, 0)),
        (exact, 7, exact, (1, 1, 0)),
        (sup, 0, sub, (0, 0, 1)),
    ];
    let counters = |m: &MetricsSnapshot| {
        (m.reuse_cache_hits, m.reuse_cache_refreshes, m.subsumption_hits)
    };
    for (admitted, appended, q, expected) in cases {
        let warm = || {
            let mut s = warm_session(2);
            s.run_batch(&[admitted, admitted]).unwrap();
            assert!(s.reuse_cache_len() >= 1);
            if appended > 0 {
                s.append_table("orders", delta_rows(BASE_ROWS, appended)).unwrap();
            }
            s
        };
        let window = warm().run_batch(&[q]).unwrap();
        assert!(window.all_succeeded());
        let slot = window.query(0).unwrap();
        assert_eq!(counters(&window.metrics), expected, "{q}: {:?}", slot.report.reuse);

        let lone = warm().sql(q).unwrap();
        assert_eq!(lone.sorted_rows(), slot.sorted_rows(), "{q}");
        assert_eq!(lone.report.reuse, slot.report.reuse, "{q}");
        assert_eq!(counters(&lone.metrics), counters(&window.metrics), "{q}");
        assert_eq!(
            lone.metrics.reuse_certificates_issued, window.metrics.reuse_certificates_issued,
            "{q}"
        );
        let cold = cold_session(BASE_ROWS + appended, true, 1).sql(q).unwrap();
        assert_eq!(lone.sorted_rows(), cold.sorted_rows(), "{q}");
    }
}

/// A cached join + aggregate over a partitioned fact table whose build
/// side matches only old partitions. Joins do not distribute over
/// appends, so the prover refuses the in-place refresh and the entry is
/// recomputed; the recompute prunes the appended partition by the
/// join's build keys. It reads exactly the bytes the query read before
/// the append — no byte of the delta — and its rows equal a cold run.
#[test]
fn appended_partition_the_build_keys_exclude_costs_no_bytes() {
    fn session(fact_rows: i64, reuse: bool) -> Session {
        let mut fact = TableBuilder::new("fact", orders_columns())
            .partition_by("o_id", 10)
            .unwrap();
        for i in 0..fact_rows {
            fact.add_row(order_row(i)).unwrap();
        }
        let int = |name: &str| TableColumn {
            name: name.into(),
            data_type: DataType::Int64,
            nullable: false,
        };
        let mut dim = TableBuilder::new("dim", vec![int("d_id"), int("d_tag")]);
        for (id, tag) in [(3i64, 1i64), (7, 2), (12, 1), (25, 2)] {
            dim.add_row(vec![Value::Int64(id), Value::Int64(tag)])
                .unwrap();
        }
        let mut s = Session::new();
        s.set_reuse_enabled(reuse);
        s.register_table(fact.build());
        s.register_table(dim.build());
        s
    }
    let sql = "SELECT d_tag, COUNT(*) AS c, SUM(o_amt) AS s \
               FROM fact JOIN dim ON o_id = d_id GROUP BY d_tag";
    let mut s = session(BASE_ROWS, true);
    let before = s.run_batch(&[sql, sql]).unwrap().metrics.bytes_scanned;
    assert!(s.reuse_cache_len() >= 1, "batch admitted the shared result");

    s.append_table("fact", delta_rows(BASE_ROWS, 10)).unwrap();
    let warm = s.sql(sql).unwrap();
    assert_eq!(warm.metrics.reuse_cache_refreshes, 0);
    assert!(
        warm.report
            .reuse
            .iter()
            .any(|n| n.contains("does not distribute over appends")),
        "{:?}",
        warm.report.reuse
    );
    // Keys 3, 7, 12 and 25 live in the first three of five partitions.
    assert_eq!(warm.metrics.partitions_pruned, 2);
    assert_eq!(warm.metrics.bytes_scanned, before, "0 delta bytes");
    let cold = session(BASE_ROWS + 10, false).sql(sql).unwrap();
    assert_eq!(warm.rows, cold.rows);
}
