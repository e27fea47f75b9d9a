// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Certificate-coverage property for the reuse-soundness prover: every
//! reuse rewrite the engine actually serves — exact and fused splices,
//! subsumption serves, and incremental refreshes — must have been
//! granted a certificate, and a pristine workload (no seeded
//! corruptions, no non-maintainable shapes; the TPC-DS corpus among
//! them) must never be rejected.
//!
//! The invariant checked per query/batch result is
//!
//! ```text
//! certificates_issued >= splices + subsumption_hits + refreshes
//! ```
//!
//! (issued can exceed the sum: admissions also certify their dependency
//! stamps), together with `certificates_rejected == 0` across the whole
//! pristine corpus — the false-positive control for the prover.

use fusion_common::{DataType, Value};
use fusion_core::OptimizerConfig;
use fusion_engine::Session;
use fusion_exec::table::TableColumn;
use fusion_exec::TableBuilder;
use fusion_tpcds::{all_queries, generate_catalog, TpcdsConfig};

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
    ]
}

fn order_row(i: i64) -> Vec<Value> {
    vec![Value::Int64(i), Value::Int64(i % 5), Value::Int64((i % 9) * 10)]
}

const BASE_ROWS: i64 = 40;

fn orders_table(n: i64) -> fusion_exec::Table {
    let mut b = TableBuilder::new("orders", orders_columns());
    for i in 0..n {
        b.add_row(order_row(i)).unwrap();
    }
    b.build()
}

fn session() -> Session {
    strict_session(vec![orders_table(BASE_ROWS)])
}

/// Strict through the session's own configuration (never through the
/// `FUSION_ANALYZE` env var): a false-positive certificate rejection on
/// the pristine corpus would fail its whole batch, not just bump a counter.
fn strict_session(tables: Vec<fusion_exec::Table>) -> Session {
    let mut s = Session::new();
    for t in tables {
        s.register_table(t);
    }
    s.set_parallelism(1);
    s.set_config(OptimizerConfig {
        strict_analysis: true,
        ..OptimizerConfig::default()
    });
    s
}

/// Accumulated prover/rewrite counters across a run.
#[derive(Default)]
struct Tally {
    issued: u64,
    rejected: u64,
    rewrites: u64,
}

impl Tally {
    fn add_metrics(&mut self, m: &fusion_exec::MetricsSnapshot, splices: u64) {
        self.issued += m.reuse_certificates_issued;
        self.rejected += m.reuse_certificates_rejected;
        self.rewrites += splices + m.subsumption_hits + m.reuse_cache_refreshes;
    }
}

/// Sweep exact-splice, fused-splice, subsumption, and refresh workloads
/// and assert every served rewrite carried a certificate while the
/// pristine corpus produced zero rejections.
#[test]
fn every_served_rewrite_carries_a_certificate() {
    let mut s = session();
    let mut tally = Tally::default();

    // 1. Exact group: identical pair shares one execution; each splice
    //    is an exact-splice certificate, admission a stamps certificate.
    let exact = "SELECT * FROM orders WHERE o_amt > 20";
    let batch = s.run_batch(&[exact, exact]).unwrap();
    assert!(batch.report.consumers_spliced() >= 2, "{:?}", batch.report);
    tally.add_metrics(&batch.metrics, batch.report.consumers_spliced() as u64);

    // 2. Fused group: near-matching filters fuse; each consumer splice
    //    discharges the mapping/compensation obligations.
    let f1 = "SELECT o_id FROM orders WHERE o_amt > 30";
    let f2 = "SELECT o_id FROM orders WHERE o_amt <= 30";
    let batch = s.run_batch(&[f1, f2]).unwrap();
    tally.add_metrics(&batch.metrics, batch.report.consumers_spliced() as u64);

    // 3. Subsumption: a strictly narrower consumer is served from the
    //    cached superset admitted in step 1 through its own filter.
    let narrower = "SELECT * FROM orders WHERE o_amt > 20 AND o_id < 25";
    let sub = s.sql(narrower).unwrap();
    assert!(
        sub.metrics.subsumption_hits >= 1,
        "narrower consumer should be served by subsumption: {:?}",
        sub.report.reuse
    );
    tally.add_metrics(&sub.metrics, sub.metrics.reuse_cache_hits);

    // 4. Incremental refresh: append, then re-run the exact query — the
    //    entry refreshes in place under a maintainability certificate.
    s.append_table("orders", (BASE_ROWS..BASE_ROWS + 10).map(order_row).collect())
        .unwrap();
    let warm = s.sql(exact).unwrap();
    assert!(
        warm.metrics.reuse_cache_refreshes >= 1,
        "append-only staleness should refresh: {:?}",
        warm.report.reuse
    );
    tally.add_metrics(&warm.metrics, warm.metrics.reuse_cache_hits);

    // 5. Mergeable aggregate refresh: COUNT/SUM(int)/MIN/MAX merge the
    //    delta group-wise under the same certificate.
    let agg = "SELECT o_cust, COUNT(*) AS c, SUM(o_amt) AS s, MIN(o_id) AS lo, MAX(o_id) AS hi \
               FROM orders GROUP BY o_cust";
    let batch = s.run_batch(&[agg, agg]).unwrap();
    tally.add_metrics(&batch.metrics, batch.report.consumers_spliced() as u64);
    s.append_table("orders", (BASE_ROWS + 10..BASE_ROWS + 21).map(order_row).collect())
        .unwrap();
    let merged = s.sql(agg).unwrap();
    assert!(
        merged.metrics.reuse_cache_refreshes >= 1,
        "mergeable aggregate should refresh: {:?}",
        merged.report.reuse
    );
    tally.add_metrics(&merged.metrics, merged.metrics.reuse_cache_hits);

    // 6. The TPC-DS corpus, each query as an identical pair: exact groups
    //    over joins, masked and scalar aggregates, CTEs and unions.
    let tpcds = strict_session(generate_catalog(&TpcdsConfig::with_scale(0.01)).into_tables());
    for q in all_queries() {
        let batch = tpcds.run_batch(&[q.sql.as_str(), q.sql.as_str()]).unwrap();
        for slot in &batch.results {
            assert!(slot.is_ok(), "{}: {:?}", q.id, slot.as_ref().err());
        }
        tally.add_metrics(&batch.metrics, batch.report.consumers_spliced() as u64);
    }

    // The property: no served rewrite without a certificate, and no
    // false positives over the pristine corpus.
    assert!(tally.rewrites >= 5, "corpus exercised too few rewrites");
    assert!(
        tally.issued >= tally.rewrites,
        "every splice/subsumption/refresh must be certified: issued={} rewrites={}",
        tally.issued,
        tally.rewrites
    );
    assert_eq!(
        tally.rejected, 0,
        "pristine corpus must produce zero certificate rejections"
    );
}

/// Certified rewrites are visible in EXPLAIN ANALYZE: the workload-reuse
/// section carries the prover counters and the per-splice "certified"
/// markers.
#[test]
fn explain_analyze_renders_prover_counters() {
    let s = session();
    let exact = "SELECT * FROM orders WHERE o_amt > 20";
    s.run_batch(&[exact, exact]).unwrap();
    let text = s.explain_analyze(exact).unwrap();
    assert!(
        text.contains("-- workload reuse --"),
        "warm query should render the reuse section:\n{text}"
    );
    assert!(
        text.contains("certificates_issued="),
        "prover counters should render:\n{text}"
    );
}
