// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Plan snapshots: every TPC-DS workload query (`all_queries()` and
//! `pipeline_queries()`), optimized with fusion on and off, against
//! golden files under `tests/golden/plans/`. Each file holds the
//! optimized plan's `display()` and the rendered optimizer trace (rule
//! attempts and `Fuse` events), so a change that moves any plan or any
//! optimizer decision shows up as a reviewable diff.
//!
//! Each query is planned in a fresh session, so column ids do not depend
//! on which queries ran before it. Regenerate after an intentional plan
//! change with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p fusion-engine --test plan_snapshots
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use fusion_engine::Session;
use fusion_exec::Table;
use fusion_tpcds::queries::{all_queries, pipeline_queries};
use fusion_tpcds::{generate_catalog, TpcdsConfig};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/plans")
        .join(format!("{name}.txt"))
}

/// Compare `actual` against the golden file, or rewrite it when
/// `BLESS_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "plan for {name} diverged from {}; rerun with BLESS_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn optimized_plans_match_golden_files() {
    // Plans do not depend on the data, only on the schemas: one small
    // catalog serves every session.
    let catalog = generate_catalog(&TpcdsConfig::with_scale(0.01));
    let tables: Vec<Arc<Table>> = catalog
        .table_names()
        .iter()
        .map(|name| catalog.get(name).unwrap())
        .collect();
    let queries: Vec<_> = all_queries()
        .into_iter()
        .chain(pipeline_queries())
        .collect();
    assert_eq!(queries.len(), 20);
    for q in &queries {
        for fused in [true, false] {
            let mut s = Session::new();
            s.set_fusion_enabled(fused);
            for t in &tables {
                s.register_table(t.with_partition_range(0..t.partitions.len()));
            }
            let plan = s.plan_sql(&q.sql).unwrap();
            let (optimized, report) = s.optimize(&plan);
            let suffix = if fused { "fused" } else { "baseline" };
            assert_golden(
                &format!("{}_{suffix}", q.id),
                &format!(
                    "{}\n-- optimizer trace --\n{}",
                    optimized.display(),
                    report.trace.render()
                ),
            );
        }
    }
}
