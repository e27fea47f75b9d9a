// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! End-to-end correctness of workload-level reuse: batches of TPC-DS
//! queries must produce results bit-identical to running each query
//! independently — with the fused and the baseline optimizer, across
//! worker counts — while shared subplans actually execute once, and the
//! shared-subplan cache must drop entries when a table is re-registered.

use std::sync::Arc;

use fusion_common::{DataType, Value};
use fusion_engine::Session;
use fusion_plan::LogicalPlan;
use fusion_exec::table::TableColumn;
use fusion_exec::TableBuilder;
use fusion_tpcds::{all_queries, generate_catalog, TpcdsConfig};

/// Smaller than the correctness suite's 0.12: each test here builds
/// several catalogs (solo + batch session per worker count).
const SCALE: f64 = 0.08;

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

/// The corpus batches: an identical pair (exact cross-query sharing), an
/// identical triple, and a mixed pair with no engineered overlap (the
/// optimizer must not manufacture wrong sharing).
fn corpus_batches() -> Vec<Vec<String>> {
    vec![
        vec![sql_of("INTRO"), sql_of("INTRO")],
        vec![sql_of("C42"), sql_of("C42"), sql_of("C42")],
        vec![sql_of("Q09"), sql_of("C55")],
    ]
}

/// Run every corpus batch through `run_batch` and through independent
/// `sql` calls (reuse disabled) and require bit-identical rows per query.
/// The same pair of sessions serves all batches, so later batches also
/// exercise warm-cache servings.
fn check_batches_match_independent(fusion: bool, workers: usize) {
    let mut solo = tpcds_session(fusion, workers);
    solo.set_reuse_enabled(false);
    let batcher = tpcds_session(fusion, workers);

    for (b, sqls) in corpus_batches().iter().enumerate() {
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let independent: Vec<_> = refs
            .iter()
            .map(|sql| solo.sql(sql).unwrap_or_else(|e| panic!("solo run: {e}")))
            .collect();
        let batch = batcher
            .run_batch(&refs)
            .unwrap_or_else(|e| panic!("batch {b} failed: {e}"));

        assert_eq!(batch.results.len(), refs.len());
        assert_eq!(batch.metrics.queries_batched, refs.len() as u64);
        assert!(batch.all_succeeded(), "no faults injected, no failures");
        for (i, (r, ind)) in batch.results.iter().zip(&independent).enumerate() {
            let r = r.as_ref().unwrap();
            assert_eq!(
                r.sorted_rows(),
                ind.sorted_rows(),
                "batch {b} query {i} diverged from its independent run \
                 (fusion={fusion}, workers={workers})\nreuse notes: {:?}",
                r.report.reuse
            );
        }
    }
}

#[test]
fn fused_batches_bit_identical_1_worker() {
    check_batches_match_independent(true, 1);
}

#[test]
fn fused_batches_bit_identical_2_workers() {
    check_batches_match_independent(true, 2);
}

#[test]
fn fused_batches_bit_identical_4_workers() {
    check_batches_match_independent(true, 4);
}

#[test]
fn baseline_batches_bit_identical_1_worker() {
    check_batches_match_independent(false, 1);
}

#[test]
fn baseline_batches_bit_identical_4_workers() {
    check_batches_match_independent(false, 4);
}

/// A batch of N identical queries executes the shared subplan once: the
/// shared-execution counter fires and the batch runs strictly fewer scan
/// morsels than N independent runs.
#[test]
fn identical_pair_executes_shared_subplan_once() {
    let mut solo = tpcds_session(true, 2);
    solo.set_reuse_enabled(false);
    let batcher = tpcds_session(true, 2);

    let sql = sql_of("INTRO");
    let refs = [sql.as_str(), sql.as_str()];
    let independent: Vec<_> = refs.iter().map(|q| solo.sql(q).unwrap()).collect();
    let batch = batcher.run_batch(&refs).unwrap();

    for (r, ind) in batch.results.iter().zip(&independent) {
        let r = r.as_ref().unwrap();
        assert_eq!(r.sorted_rows(), ind.sorted_rows());
        assert!(r.reused(), "reuse notes: {:?}", r.report.reuse);
    }
    assert!(
        batch.metrics.shared_subplans_executed >= 1,
        "expected a shared execution; report: {:?}",
        batch.report
    );
    assert!(batch.report.shared_executions() >= 1);
    assert!(batch.report.consumers_spliced() >= 2);
    // Every served splice carries a soundness certificate, and a pristine
    // batch never trips the prover.
    assert!(
        batch.metrics.reuse_certificates_issued >= batch.report.consumers_spliced() as u64,
        "each splice must be certified: issued={} spliced={}",
        batch.metrics.reuse_certificates_issued,
        batch.report.consumers_spliced()
    );
    assert_eq!(
        batch.metrics.reuse_certificates_rejected, 0,
        "pristine batch must not be rejected"
    );

    let solo_morsels: u64 = independent.iter().map(|r| r.metrics.morsels_executed).sum();
    assert!(
        batch.metrics.morsels_executed < solo_morsels,
        "sharing must reduce scan work: batch ran {} morsels vs {} independent",
        batch.metrics.morsels_executed,
        solo_morsels
    );
}

fn orders_table(totals_scale: f64) -> fusion_exec::Table {
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
    for i in 0..40i64 {
        b.add_row(vec![
            Value::Int64(i),
            Value::Int64(i % 5),
            Value::Float64((i % 9) as f64 * totals_scale),
        ])
        .unwrap();
    }
    b.build()
}

fn orders_session() -> Session {
    let mut s = Session::new();
    s.register_table(orders_table(10.0));
    s
}

/// Two *different* queries over the same scan+filter shape fuse across
/// the batch: the shared plan executes once and each consumer reads it
/// through its own compensating filter.
#[test]
fn different_filters_fuse_across_queries() {
    let q1 = "SELECT o_id FROM orders WHERE o_total > 30";
    let q2 = "SELECT o_id FROM orders WHERE o_total <= 30";

    let mut solo = orders_session();
    solo.set_reuse_enabled(false);
    let i1 = solo.sql(q1).unwrap();
    let i2 = solo.sql(q2).unwrap();
    assert_ne!(i1.sorted_rows(), i2.sorted_rows(), "disjoint filters");

    let batcher = orders_session();
    let batch = batcher.run_batch(&[q1, q2]).unwrap();
    assert_eq!(batch.query(0).unwrap().sorted_rows(), i1.sorted_rows());
    assert_eq!(batch.query(1).unwrap().sorted_rows(), i2.sorted_rows());
    assert!(
        batch.metrics.shared_subplans_executed >= 1,
        "expected cross-query fusion of the near-matching subplans; report: {:?}",
        batch.report
    );
    assert!(
        batch.report.groups.iter().any(|g| g.fused),
        "the shared group should come from Fuse, not an exact match: {:?}",
        batch.report
    );
    // Both fused consumers go through the mapping/compensation
    // certificate; a pristine fuse never trips the prover.
    assert!(
        batch.metrics.reuse_certificates_issued >= 2,
        "fused splices must be certified: {:?}",
        batch.metrics
    );
    assert_eq!(batch.metrics.reuse_certificates_rejected, 0);
}

/// Re-registering a table bumps its catalog version; cached results that
/// depend on it must be evicted, never served stale.
#[test]
fn cache_invalidated_by_table_reregistration() {
    let mut s = orders_session();
    let sql = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";

    let batch = s.run_batch(&[sql, sql]).unwrap();
    assert!(batch.metrics.shared_subplans_executed >= 1);
    assert!(s.reuse_cache_len() >= 1, "batch admitted the shared result");

    let warm = s.sql(sql).unwrap();
    assert_eq!(warm.metrics.reuse_cache_hits, 1, "warm cache serves the query");
    assert_eq!(warm.sorted_rows(), batch.query(0).unwrap().sorted_rows());

    // Same schema, different data: totals are halved.
    s.register_table(orders_table(5.0));

    let fresh = s.sql(sql).unwrap();
    assert_eq!(
        fresh.metrics.reuse_cache_hits, 0,
        "stale entry must not hit: {:?}",
        fresh.report.reuse
    );
    assert!(
        fresh.metrics.reuse_cache_evictions >= 1,
        "version mismatch evicts the stale entry"
    );
    assert!(fresh.metrics.bytes_scanned > 0, "query re-reads the table");
    assert_ne!(
        fresh.sorted_rows(),
        warm.sorted_rows(),
        "results reflect the new data, not the cached old rows"
    );

    // Cross-check against a reuse-free session over the same new data.
    let mut check = Session::new();
    check.set_reuse_enabled(false);
    check.register_table(orders_table(5.0));
    assert_eq!(fresh.sorted_rows(), check.sql(sql).unwrap().sorted_rows());
}

/// The admission queue drains as one batch and shares work between
/// queued queries.
#[test]
fn queued_queries_share_on_drain() {
    let s = orders_session();
    let sql = "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust";
    s.enqueue(sql);
    s.enqueue(sql);
    let batch = s.run_queued().unwrap();
    assert_eq!(s.queued_len(), 0);
    assert_eq!(batch.results.len(), 2);
    assert!(batch.metrics.shared_subplans_executed >= 1);
    assert_eq!(
        batch.query(0).unwrap().sorted_rows(),
        batch.query(1).unwrap().sorted_rows()
    );
}

// ---------------------------------------------------------------------
// Fold order: a fused entry is read by slot, whatever order wrote it
// ---------------------------------------------------------------------

/// One template, one literal: the members of a fused group differ only
/// in `X`, so the group's cache key is the same set of literals in any
/// arrival order while the fused plan's column order follows the fold.
fn returns_over(x: i64) -> String {
    format!(
        "SELECT sr_store_sk, COUNT(*), SUM(sr_return_amt) FROM store_returns \
         WHERE sr_return_amt > {x} GROUP BY sr_store_sk"
    )
}

/// Run `windows` (each a list of indices into `literals`) in order
/// through one session, so every window after the first meets the cache
/// the earlier ones left, and require every slot to be bit-identical to
/// the same query on a reuse-off session. At least `min_warm_hits`
/// windows must have been served from an entry an earlier one wrote.
fn check_window_sequence(
    workers: usize,
    literals: &[i64],
    windows: &[Vec<usize>],
    min_warm_hits: usize,
) {
    let sqls: Vec<String> = literals.iter().map(|&x| returns_over(x)).collect();
    let mut solo = tpcds_session(true, workers);
    solo.set_reuse_enabled(false);
    let expected: Vec<_> = sqls
        .iter()
        .map(|sql| solo.sql(sql).unwrap().sorted_rows())
        .collect();
    for (i, rows) in expected.iter().enumerate() {
        for other in &expected[..i] {
            assert_ne!(rows, other, "the literals must select different rows");
        }
    }

    let batcher = tpcds_session(true, workers);
    let mut warm_hits = 0;
    for (w, window) in windows.iter().enumerate() {
        let refs: Vec<&str> = window.iter().map(|&i| sqls[i].as_str()).collect();
        let batch = batcher.run_batch(&refs).unwrap();
        assert!(batch.all_succeeded());
        assert!(
            batch.report.groups.iter().any(|g| g.fused),
            "window {w} {window:?} should share through Fuse: {:?}",
            batch.report
        );
        warm_hits += batch.report.cache_hits();
        for (slot, &i) in window.iter().enumerate() {
            let r = batch.query(slot).unwrap();
            assert_eq!(
                r.sorted_rows(),
                expected[i],
                "window {w} {window:?} slot {slot} (X = {}) diverged from its reuse-off run \
                 ({workers} workers)\nreuse notes: {:?}",
                literals[i],
                r.report.reuse
            );
        }
    }
    assert!(
        warm_hits >= min_warm_hits,
        "{warm_hits} of {} windows read an entry an earlier window wrote, expected {min_warm_hits}",
        windows.len()
    );
}

/// The pair as windows (A,B) cold, (B,A) warm, (A,B) warm. Before the
/// fused splice bound columns by slot, the second window served each
/// query the other's rows.
fn check_pair_in_both_orders(workers: usize) {
    check_window_sequence(workers, &[230, 353], &[vec![0, 1], vec![1, 0], vec![0, 1]], 2);
}

#[test]
fn fused_pair_in_either_order_on_a_warm_cache_1_worker() {
    check_pair_in_both_orders(1);
}

#[test]
fn fused_pair_in_either_order_on_a_warm_cache_2_workers() {
    check_pair_in_both_orders(2);
}

/// Three literals through all six arrival orders on one warm cache. A
/// three-member fold's key still depends on which member is folded last,
/// so the six orders meet three entries, each written by one order and
/// read by the order that swaps its first two members.
fn check_triple_in_all_orders(workers: usize) {
    let orders = [
        vec![0, 1, 2],
        vec![0, 2, 1],
        vec![1, 0, 2],
        vec![1, 2, 0],
        vec![2, 0, 1],
        vec![2, 1, 0],
    ];
    check_window_sequence(workers, &[120, 230, 353], &orders, 3);
}

#[test]
fn fused_triple_in_all_six_orders_on_a_warm_cache_1_worker() {
    check_triple_in_all_orders(1);
}

#[test]
fn fused_triple_in_all_six_orders_on_a_warm_cache_2_workers() {
    check_triple_in_all_orders(2);
}

// ---------------------------------------------------------------------
// Shared rows are referenced, never copied into a plan
// ---------------------------------------------------------------------

/// The shared rows behind every `ConstantTable` leaf of a plan.
fn shared_leaves(plan: &LogicalPlan) -> Vec<Arc<Vec<Vec<Value>>>> {
    let mut out = Vec::new();
    fn walk(plan: &LogicalPlan, out: &mut Vec<Arc<Vec<Vec<Value>>>>) {
        if let LogicalPlan::ConstantTable(c) = plan {
            out.push(Arc::clone(c.rows()));
        }
        for child in plan.children() {
            walk(child, out);
        }
    }
    walk(plan, &mut out);
    out
}

/// C42 and C55 share a join: one execution, one allocation. Both
/// consumers' executed plans and the cache entry (observed through a
/// later warm hit, which reads the entry's own `Arc`) point at it, and
/// neither cloning a plan nor pruning its columns copies it.
#[test]
fn spliced_consumers_and_the_cache_share_one_allocation() {
    let s = tpcds_session(true, 2);
    let (c42, c55) = (sql_of("C42"), sql_of("C55"));
    let batch = s.run_batch(&[&c42, &c55]).unwrap();
    assert!(batch.all_succeeded());
    assert_eq!(batch.metrics.shared_subplans_executed, 1, "{:?}", batch.report);

    let plans: Vec<&LogicalPlan> = (0..2)
        .map(|i| &batch.query(i).unwrap().optimized_plan)
        .collect();
    let leaves: Vec<_> = plans.iter().map(|p| shared_leaves(p)).collect();
    assert_eq!(leaves[0].len(), 1, "C42 reads one shared result");
    assert_eq!(leaves[1].len(), 1, "C55 reads one shared result");
    let shared = &leaves[0][0];
    assert!(!shared.is_empty());
    assert!(Arc::ptr_eq(shared, &leaves[1][0]), "both consumers read one allocation");

    let warm = s.sql(&c42).unwrap();
    assert_eq!(warm.metrics.reuse_cache_hits, 1, "{:?}", warm.report.reuse);
    let warm_leaves = shared_leaves(&warm.optimized_plan);
    assert_eq!(warm_leaves.len(), 1);
    assert!(Arc::ptr_eq(shared, &warm_leaves[0]), "the cache holds that allocation");

    for plan in plans {
        let pruned = fusion_core::rules::pruning::prune_columns(&plan.clone());
        for leaf in shared_leaves(&pruned) {
            assert!(Arc::ptr_eq(shared, &leaf), "clone and prune_columns keep it");
        }
    }
}
