// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Golden-file tests for `EXPLAIN ANALYZE`: the deterministic portion of
//! the execution profile (operator ids, labels, row counts) for three
//! corpus queries from `tests/engine_sql.rs`, fused and baseline.
//!
//! Timings, batch counts and state sizes vary run to run, so the golden
//! files hold [`QueryProfile::render_stable`] output — ids, labels and
//! row counts only — which is also invariant across thread counts (see
//! `tests/parallel.rs::profile_row_counts_are_thread_count_invariant`).
//!
//! Regenerate after an intentional plan or profile change with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p fusion-engine --test explain_analyze
//! ```

use fusion_common::{DataType, Value};
use fusion_engine::Session;
use fusion_exec::table::TableColumn;
use fusion_exec::TableBuilder;

fn col(name: &str, data_type: DataType, nullable: bool) -> TableColumn {
    TableColumn {
        name: name.into(),
        data_type,
        nullable,
    }
}

/// One orders row: `(id, cust, region, amount)`.
type OrderRow = (i64, Option<i64>, Option<&'static str>, Option<f64>);

/// The engine_sql micro-dataset: orders (6 rows) and customers (3 rows).
fn session(fused: bool) -> Session {
    let mut s = Session::new();
    s.set_fusion_enabled(fused);
    let mut b = TableBuilder::new(
        "orders",
        vec![
            col("id", DataType::Int64, false),
            col("cust", DataType::Int64, true),
            col("region", DataType::Utf8, true),
            col("amount", DataType::Float64, true),
        ],
    );
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
    );
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

/// Three representative corpus queries: a shared-scan UNION (the fusion
/// headline), a join with ordering, and a correlated scalar subquery
/// (the GroupByJoinToWindow shape).
const CASES: &[(&str, &str)] = &[
    (
        "union_shared_scan",
        "SELECT id FROM orders WHERE region = 'north' \
         UNION ALL SELECT id FROM orders WHERE amount > 40",
    ),
    (
        "join_order_by",
        "SELECT id, name FROM orders JOIN customers ON cust = cid ORDER BY id",
    ),
    (
        "correlated_subquery",
        "SELECT id FROM orders o1 \
         WHERE o1.amount > (SELECT AVG(o2.amount) FROM orders o2 WHERE o2.cust = o1.cust)",
    ),
];

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
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
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with BLESS_GOLDEN=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "profile for {name} diverged from {}; rerun with BLESS_GOLDEN=1 if intentional",
        path.display()
    );
}

#[test]
fn explain_analyze_profiles_match_golden_files() {
    for (name, sql) in CASES {
        for fused in [true, false] {
            let s = session(fused);
            let r = s.sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let profile = r.profile.as_ref().expect("EXPLAIN ANALYZE executes");
            let suffix = if fused { "fused" } else { "baseline" };
            assert_golden(&format!("{name}_{suffix}"), &profile.render_stable());
        }
    }
}

/// The rendered EXPLAIN ANALYZE text annotates every plan line with its
/// span and appends the optimizer trace.
#[test]
fn explain_analyze_text_annotates_every_operator() {
    for (_, sql) in CASES {
        let s = session(true);
        let r = s.sql(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let text: Vec<String> = r
            .rows
            .iter()
            .filter_map(|row| match row.first() {
                Some(Value::Utf8(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let trace_start = text
            .iter()
            .position(|l| l.starts_with("-- optimizer trace --"))
            .expect("trace section present");
        for line in &text[..trace_start] {
            assert!(
                line.contains("[id=") && line.contains("rows_out="),
                "plan line missing span annotation: {line}\n{sql}"
            );
        }
    }
}

/// The first operator, in pre-order, whose label contains `label`.
fn find<'a>(p: &'a fusion_exec::OpProfile, label: &str) -> Option<&'a fusion_exec::OpProfile> {
    if p.label.contains(label) {
        return Some(p);
    }
    p.children.iter().find_map(|c| find(c, label))
}

/// The window of the GroupByJoinToWindow shape folds through the
/// aggregate's hash table, and meters its CPU as the aggregate does.
#[test]
fn window_meters_cpu() {
    let (name, sql) = CASES[2];
    assert_eq!(name, "correlated_subquery");
    let r = session(true)
        .sql(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap();
    let profile = r.profile.as_ref().expect("EXPLAIN ANALYZE executes");
    let window = find(&profile.root, "Window:").expect("the subquery becomes a window");
    assert!(window.cpu_nanos > 0, "{}", profile.render());
}

/// A hash join's CPU time is its own hashing and probing, not its build
/// child's: over an aggregate of 60 000 rows into three groups, the
/// join's `cpu_ms` stays below that child's `wall_ms`.
#[test]
fn join_cpu_excludes_its_build_child() {
    let mut s = session(true);
    let mut b = TableBuilder::new(
        "big",
        vec![
            col("k", DataType::Int64, false),
            col("v", DataType::Int64, false),
        ],
    );
    for i in 0..60_000i64 {
        b.add_row(vec![Value::Int64(10 * (i % 3 + 1)), Value::Int64(i)])
            .unwrap();
    }
    s.register_table(b.build());
    s.sql(
        "SELECT o.id, t.total FROM orders o \
         JOIN (SELECT k, SUM(v) AS total FROM big GROUP BY k) t ON o.cust = t.k",
    )
    .unwrap();
    let profile = s.last_profile().unwrap();
    let join = find(&profile.root, "Join:").unwrap();
    let build = &join.children[1];
    assert!(build.label.starts_with("Aggregate"), "{}", profile.render());
    assert!(
        join.cpu_nanos < build.wall_nanos,
        "join cpu must exclude its build child's time:\n{}",
        profile.render()
    );
}
