// Demo code: unwrap/panic on setup failure is the point, so the
// workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Workload-level reuse: a dashboard re-submits overlapping queries,
//! the batch executes the shared subplan once, later single queries are
//! served from the shared-subplan cache, appended rows refresh
//! maintainable entries in place (continuous ingest), and re-registering
//! the table invalidates the cache instead of serving stale rows. Ends
//! with what sharing a *large* result costs: two TPC-DS queries that
//! share a join, in one window, against each run alone (CI reads the
//! `splice ratio` line).
//!
//! ```sh
//! cargo run --example workload_reuse
//! ```

use std::time::{Duration, Instant};

use fusion_common::{DataType, Value};
use fusion_engine::Session;
use fusion_exec::table::TableColumn;
use fusion_exec::TableBuilder;
use fusion_tpcds::{all_queries, generate_catalog, TpcdsConfig};

fn build_sales(price: f64) -> fusion_exec::Table {
    let mut b = TableBuilder::new(
        "sales",
        vec![
            TableColumn {
                name: "region".into(),
                data_type: DataType::Int64,
                nullable: false,
            },
            TableColumn {
                name: "total".into(),
                data_type: DataType::Float64,
                nullable: true,
            },
        ],
    );
    for i in 0..1000i64 {
        b.add_row(vec![
            Value::Int64(i % 5),
            Value::Float64((i % 13) as f64 * price),
        ])
        .unwrap();
    }
    b.build()
}

/// C42 and C55 share the unfiltered `date_dim ⋈ store_sales ⋈ item` join
/// (tens of thousands of rows at scale 2), spliced into both as a leaf
/// over the one shared allocation. Prints the window's time over the two
/// queries' time alone, best of three each.
fn splice_ratio() {
    let mut session = Session::new();
    for table in generate_catalog(&TpcdsConfig::with_scale(2.0)).into_tables() {
        session.register_table(table);
    }
    session.set_parallelism(2);
    let sql_of = |id: &str| all_queries().into_iter().find(|q| q.id == id).unwrap().sql;
    let (c42, c55) = (sql_of("C42"), sql_of("C55"));
    let best_of_3 = |run: &dyn Fn()| -> Duration {
        (0..3)
            .map(|_| {
                session.clear_reuse_cache();
                let start = Instant::now();
                run();
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let alone = best_of_3(&|| {
        session.sql(&c42).unwrap();
        session.sql(&c55).unwrap();
    });
    let window = best_of_3(&|| {
        let batch = session.run_batch(&[&c42, &c55]).unwrap();
        assert!(batch.all_succeeded());
        assert_eq!(batch.report.consumers_spliced(), 2, "{:?}", batch.report);
    });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "splice ratio: C42+C55 one window {:.1} ms / run alone {:.1} ms = {:.1}x",
        ms(window),
        ms(alone),
        ms(window) / ms(alone)
    );
}

fn main() {
    let mut session = Session::new();
    session.register_table(build_sales(1.0));

    // The same report, submitted twice (plus a filtered variant the
    // optimizer covers with a compensating filter via Fuse).
    let dashboard = [
        "SELECT region, SUM(total) AS t FROM sales GROUP BY region",
        "SELECT region, SUM(total) AS t FROM sales GROUP BY region",
    ];

    println!("== batch: two identical reports ==");
    let batch = session.run_batch(&dashboard).unwrap();
    for (i, r) in batch.successes() {
        println!("query {i}: {} rows, notes {:?}", r.rows.len(), r.report.reuse);
    }
    println!(
        "queries batched {}, shared subplans executed {}, consumers spliced {}",
        batch.metrics.queries_batched,
        batch.metrics.shared_subplans_executed,
        batch.report.consumers_spliced(),
    );

    println!("\n== a later single query hits the warm cache ==");
    let warm = session.sql(dashboard[0]).unwrap();
    println!(
        "cache hits {}, bytes scanned {} (served without touching storage)",
        warm.metrics.reuse_cache_hits, warm.metrics.bytes_scanned
    );
    println!("\n{}", session.explain_analyze(dashboard[0]).unwrap());

    println!("== continuous ingest: appends refresh the entry in place ==");
    // COUNT is mergeable, so the cached aggregate absorbs the delta
    // instead of being evicted. (The float SUM above is deliberately
    // not: merged float additions need not be bit-identical to a cold
    // fold, so that shape falls back to evict-and-recompute.)
    let ingest = "SELECT region, COUNT(*) AS n FROM sales GROUP BY region";
    session.run_batch(&[ingest, ingest]).unwrap();
    session
        .append_table(
            "sales",
            (0..50i64)
                .map(|i| vec![Value::Int64(i % 5), Value::Float64(i as f64)])
                .collect(),
        )
        .unwrap();
    let refreshed = session.sql(ingest).unwrap();
    println!(
        "cache hits {}, refreshes {}, evictions {} — {:?}",
        refreshed.metrics.reuse_cache_hits,
        refreshed.metrics.reuse_cache_refreshes,
        refreshed.metrics.reuse_cache_evictions,
        refreshed.report.reuse
    );
    assert_eq!(refreshed.metrics.reuse_cache_refreshes, 1);

    println!("\n== re-registering the table invalidates the cache ==");
    session.register_table(build_sales(2.0));
    let fresh = session.sql(dashboard[0]).unwrap();
    println!(
        "cache hits {}, evictions {}, bytes scanned {} (stale entry dropped, re-executed)",
        fresh.metrics.reuse_cache_hits,
        fresh.metrics.reuse_cache_evictions,
        fresh.metrics.bytes_scanned
    );
    assert_ne!(
        warm.sorted_rows(),
        fresh.sorted_rows(),
        "new data, new answer"
    );

    println!("\n== sharing a large result: one window against run alone ==");
    splice_ratio();
}
