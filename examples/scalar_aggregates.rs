// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! The Q09/Q28 pattern (§V.B): many scalar-aggregate subqueries over
//! overlapping subsets of the same fact table. The `JoinOnKeys` scalar
//! variant merges all of them into a single multi-masked scan — the
//! pattern with the paper's largest wins (3–6× latency, 60–85% fewer
//! bytes).
//!
//! ```sh
//! cargo run --release --example scalar_aggregates
//! ```
//!
//! Besides the per-query comparison it prints two summary lines:
//!
//! * `optimize scaling: 60 subqueries / 15 subqueries = N.Nx` — optimizer
//!   time per call for the Q09 shape widened from 15 to 60 scalar
//!   subqueries (each the best of 10 samples, a sample averaging the calls
//!   that fit in 50 ms, so one scheduler stall cannot move the ratio). 4×
//!   the subqueries costs 4× when the optimizer is linear and 16× when it
//!   is quadratic; the example exits non-zero above 16×.
//! * `fusion speedup: Q09 N.NNx, Q28 N.NNx` — unfused wall time over fused
//!   wall time (best of 5 each), at the benchmark's settings (TPC-DS scale
//!   2, 2 workers). Below 1.0 fusion costs more CPU than it saves.

use std::time::{Duration, Instant};

use fusion_engine::Session;
use fusion_tpcds::{generate_catalog, queries, TpcdsConfig};

fn main() {
    let cfg = TpcdsConfig::with_scale(2.0);
    let session = |fusion: bool| {
        let mut s = if fusion { Session::new() } else { Session::baseline() };
        s.set_parallelism(2);
        for t in generate_catalog(&cfg).into_tables() {
            s.register_table(t);
        }
        s
    };
    let (fused, baseline) = (session(true), session(false));

    let mut speedups = Vec::new();
    for q in [queries::q09(), queries::q28(), queries::q88()] {
        let rb = baseline.sql(&q.sql).expect("baseline");
        let rf = fused.sql(&q.sql).expect("fused");
        assert_eq!(rf.sorted_rows(), rb.sorted_rows());

        let base_scans = rb.initial_plan.scanned_tables().len();
        let fused_scans = rf.optimized_plan.scanned_tables().len();
        let (tb, tf) = (best_of(5, || baseline.sql(&q.sql)), best_of(5, || fused.sql(&q.sql)));
        println!("== {} ({}) ==", q.id, q.family);
        println!(
            "  table scans : {base_scans} -> {fused_scans} (fusion merged {} scans)",
            base_scans - fused_scans
        );
        println!(
            "  latency     : baseline {tb:>9.2?} | fused {tf:>9.2?} | {:.2}x (best of 5)",
            tb.as_secs_f64() / tf.as_secs_f64()
        );
        println!(
            "  bytes read  : baseline {:>10} | fused {:>10} | {:.0}% of baseline",
            rb.metrics.bytes_scanned,
            rf.metrics.bytes_scanned,
            100.0 * rf.metrics.bytes_scanned as f64 / rb.metrics.bytes_scanned as f64
        );
        println!();
        if q.id != "Q88" {
            speedups.push(format!("{} {:.2}x", q.id, tb.as_secs_f64() / tf.as_secs_f64()));
        }
    }
    println!("(paper: these queries improve 3–6x in latency and 60–85% in bytes)");

    let optimize = |subqueries: usize| {
        let plan = fused.plan_sql(&q09_shape(subqueries)).expect("plan");
        let t = per_call(10, || {
            fused.optimize(&plan);
        });
        println!("optimize, Q09 shape with {subqueries} subqueries: {t:.2?} per call (best of 10)");
        t
    };
    let (small, large) = (optimize(15), optimize(60));
    let scaling = large.as_secs_f64() / small.as_secs_f64();
    println!("optimize scaling: 60 subqueries / 15 subqueries = {scaling:.1}x");
    println!("fusion speedup: {}", speedups.join(", "));
    assert!(
        scaling <= 16.0,
        "optimizing 60 subqueries took {scaling:.1}x 15 (limit 16x: quadratic)"
    );
}

/// Best wall time of `n` runs of `f`.
fn best_of<T, E: std::fmt::Debug>(n: usize, mut f: impl FnMut() -> Result<T, E>) -> Duration {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            f().expect("run");
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// Wall time per call of `f`: the best of `samples` samples, each the
/// mean of as many calls as fit in 50 ms.
fn per_call(samples: usize, mut f: impl FnMut()) -> Duration {
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0;
            while start.elapsed() < Duration::from_millis(50) {
                f();
                calls += 1;
            }
            start.elapsed() / calls
        })
        .min()
        .unwrap()
}

/// Q09 widened to `subqueries` scalar subqueries: `subqueries / 3`
/// quantity buckets over 1..=100, each a CASE over a COUNT, an AVG of the
/// discount and an AVG of the profit (Q09 itself is 5 buckets, 15
/// subqueries).
fn q09_shape(subqueries: usize) -> String {
    let buckets = subqueries / 3;
    let cases: Vec<String> = (0..buckets)
        .map(|i| {
            let (lo, hi) = (1 + i * 100 / buckets, (i + 1) * 100 / buckets);
            format!(
                "CASE WHEN (SELECT COUNT(*) FROM store_sales \
                            WHERE ss_quantity BETWEEN {lo} AND {hi}) > 1000 \
                      THEN (SELECT AVG(ss_ext_discount_amt) FROM store_sales \
                            WHERE ss_quantity BETWEEN {lo} AND {hi}) \
                      ELSE (SELECT AVG(ss_net_profit) FROM store_sales \
                            WHERE ss_quantity BETWEEN {lo} AND {hi}) END AS bucket{i}"
            )
        })
        .collect();
    format!("SELECT {} FROM reason WHERE r_reason_sk = 1", cases.join(", "))
}
