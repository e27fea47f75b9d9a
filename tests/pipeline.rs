// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Push-based fused pipeline integration tests.
//!
//! The pipeline contract is *bit-identity*: at the same thread count,
//! `FUSION_PIPELINES=0` and `=1` must produce byte-for-byte identical
//! rows (not just equal multisets) for every query, fused and baseline,
//! with and without injected faults. On top of that, property tests pin
//! the vectorized expression kernels to the scalar evaluator — equal
//! values where the scalar path succeeds, an error wherever it errors —
//! including NULL propagation and AND/OR short-circuit subsets.

use proptest::prelude::*;

use fusion_common::{ColumnId, DataType, FusionError, Value};
use fusion_engine::Session;
use fusion_exec::table::TableColumn;
use fusion_exec::{FaultPolicy, TableBuilder};
use fusion_expr::{col, eval, hash_columns, hash_key, ColumnBatch, Expr};
use fusion_tpcds::{all_queries, generate_catalog, pipeline_queries, TpcdsConfig};

// ---------- session builders ----------

fn tpcds_session(fused: bool, parallelism: usize, pipelines: bool) -> Session {
    let cfg = TpcdsConfig::with_scale(0.12);
    let mut s = if fused {
        Session::new()
    } else {
        Session::baseline()
    };
    s.set_parallelism(parallelism);
    s.set_pipelines_enabled(pipelines);
    for table in generate_catalog(&cfg).into_tables() {
        s.register_table(table);
    }
    s
}

fn tcol(name: &str, data_type: DataType, nullable: bool) -> TableColumn {
    TableColumn {
        name: name.into(),
        data_type,
        nullable,
    }
}

/// One `orders` row: `(id, cust, region, amount)`.
type OrderRow = (i64, Option<i64>, Option<&'static str>, Option<f64>);

/// The `tests/parallel.rs` micro-dataset: orders in six single-row
/// partitions so the morsel-parallel pipeline path engages at
/// parallelism > 1.
fn orders_session(parallelism: usize, pipelines: bool) -> Session {
    let mut s = Session::new();
    s.set_parallelism(parallelism);
    s.set_pipelines_enabled(pipelines);
    let mut b = TableBuilder::new(
        "orders",
        vec![
            tcol("id", DataType::Int64, false),
            tcol("cust", DataType::Int64, true),
            tcol("region", DataType::Utf8, true),
            tcol("amount", DataType::Float64, true),
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

    // A small build side for the join-pruning cases: a NULL key, and two
    // tags whose key sets are {2} and {4, 5}.
    let mut b = TableBuilder::new(
        "keys",
        vec![
            tcol("k", DataType::Int64, true),
            tcol("tag", DataType::Utf8, true),
        ],
    );
    for (k, tag) in [(Some(2), "x"), (None, "x"), (Some(5), "y"), (Some(4), "y")] {
        b.add_row(vec![
            k.map(Value::Int64).unwrap_or(Value::Null),
            Value::Utf8(tag.into()),
        ])
        .unwrap();
    }
    s.register_table(b.build());
    s
}

const MICRO_QUERIES: &[&str] = &[
    "SELECT id, id * 2 + 1 AS d FROM orders WHERE id <= 2 ORDER BY id",
    "SELECT id FROM orders WHERE amount > 0",
    "SELECT id FROM orders WHERE cust IS NOT NULL AND amount IS NOT NULL",
    "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders \
     WHERE cust IS NOT NULL GROUP BY cust HAVING COUNT(*) > 1 ORDER BY cust",
    "SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id > 100",
    "SELECT COUNT(DISTINCT region) AS r FROM orders",
    "SELECT COUNT(*) FILTER (WHERE region = 'north') AS north, COUNT(*) AS all_rows FROM orders",
    "SELECT id, CASE WHEN amount BETWEEN 0 AND 50 THEN 'small' \
                     WHEN amount > 50 THEN 'big' ELSE 'unknown' END AS bucket \
     FROM orders WHERE region IN ('north', 'east') ORDER BY id",
];

// ---------- whole-corpus bit-identity ----------

/// Every TPC-DS benchmark query, fused and baseline, at one and four
/// threads: pipelines on must be *bit-identical* (ordered rows) to
/// pipelines off, and every configuration must equal the one-thread
/// baseline reference exactly as a multiset. The aggregate's fold shape
/// is chosen by the plan, never by the worker count, so float sums fold
/// in the same order at every thread count.
#[test]
fn tpcds_corpus_bit_identical_across_pipeline_modes() {
    // The full workload plus the scan-heavy pipeline benchmark set —
    // the latter exercises every chain shape (filter/project, grouped
    // and scalar aggregates, stateful distinct marks).
    let mut queries = all_queries();
    queries.extend(pipeline_queries());
    let mut pipelines_compiled = 0u64;
    let mut batches_elided = 0u64;
    let reference = tpcds_session(false, 1, false);
    let refs: Vec<_> = queries
        .iter()
        .map(|q| reference.sql(&q.sql).unwrap().sorted_rows())
        .collect();
    for threads in [1usize, 4] {
        for fused in [true, false] {
            let on = tpcds_session(fused, threads, true);
            let off = tpcds_session(fused, threads, false);
            for (q, reference_rows) in queries.iter().zip(&refs) {
                let r_on = on
                    .sql(&q.sql)
                    .unwrap_or_else(|e| panic!("{} pipelines on: {e}", q.id));
                let r_off = off
                    .sql(&q.sql)
                    .unwrap_or_else(|e| panic!("{} pipelines off: {e}", q.id));
                assert_eq!(
                    r_on.rows, r_off.rows,
                    "{}: pipelines on/off must be bit-identical (fused={fused}, threads={threads})",
                    q.id
                );
                assert_eq!(
                    &r_on.sorted_rows(),
                    reference_rows,
                    "{}: rows at {threads} threads diverge from the sequential reference \
                     (fused={fused})",
                    q.id
                );
                assert_eq!(
                    (r_on.metrics.bytes_scanned, r_on.metrics.partitions_pruned),
                    (r_off.metrics.bytes_scanned, r_off.metrics.partitions_pruned),
                    "{}: pipelines on/off must read and prune the same partitions \
                     (fused={fused}, threads={threads})",
                    q.id
                );
                pipelines_compiled += r_on.metrics.pipelines_compiled;
                batches_elided += r_on.metrics.batches_elided;
                assert_eq!(
                    r_off.metrics.pipelines_compiled, 0,
                    "{}: pipelines off must not compile pipelines",
                    q.id
                );
            }
        }
    }
    assert!(
        pipelines_compiled > 0,
        "the corpus must compile at least one fused pipeline"
    );
    assert!(
        batches_elided > 0,
        "fused pipelines must elide intermediate batches"
    );
}

/// The engine_sql micro-corpus over the partitioned orders table:
/// bit-identity pipelines on/off at both thread counts.
#[test]
fn micro_corpus_bit_identical_across_pipeline_modes() {
    for threads in [1usize, 4] {
        let on = orders_session(threads, true);
        let off = orders_session(threads, false);
        for q in MICRO_QUERIES {
            let r_on = on.sql(q).unwrap_or_else(|e| panic!("pipelines on: {e}\n{q}"));
            let r_off = off
                .sql(q)
                .unwrap_or_else(|e| panic!("pipelines off: {e}\n{q}"));
            assert_eq!(
                r_on.rows, r_off.rows,
                "pipelines on/off must be bit-identical at {threads} threads:\n{q}"
            );
        }
    }
}

// ---------- dynamic partition pruning ----------

/// Run `sql` and `reference` (the same join with its probe key wrapped
/// in `+ 0`, which no scan can prune by) at 1 and 4 threads, pipelines on
/// and off: rows agree everywhere, and the pruned query prunes the same
/// partitions in both drivers. Returns its `partitions_pruned`.
fn pruned_partitions(sql: &str, reference: &str, fusion: bool) -> u64 {
    let mut pruned = None;
    for threads in [1usize, 4] {
        for pipelines in [true, false] {
            let mut s = orders_session(threads, pipelines);
            s.set_fusion_enabled(fusion);
            let r = s.sql(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
            let expected = s.sql(reference).unwrap();
            assert_eq!(r.sorted_rows(), expected.sorted_rows(), "{sql}");
            let n = r.metrics.partitions_pruned;
            assert_eq!(
                *pruned.get_or_insert(n),
                n,
                "threads={threads} pipelines={pipelines}: {sql}"
            );
        }
    }
    pruned.unwrap()
}

/// The build keys of an inner or semi join prune the probe side's
/// partitions in both drivers: an empty build prunes every partition,
/// a NULL build key keeps none alive, a LEFT join prunes nothing, and a
/// UNION ALL probe side prunes in every branch.
#[test]
fn join_keys_prune_probe_partitions() {
    let join = |on: &str, tag: &str| {
        format!(
            "SELECT o.id, o.amount FROM orders o JOIN keys k ON {on} = k.k WHERE k.tag = '{tag}'"
        )
    };
    // Six single-id partitions. An empty build reads none of them.
    assert_eq!(
        pruned_partitions(&join("o.id", "none"), &join("o.id + 0", "none"), true),
        6
    );
    // Keys {2, NULL}: only partition 2 can match.
    assert_eq!(
        pruned_partitions(&join("o.id", "x"), &join("o.id + 0", "x"), true),
        5
    );
    let left =
        |on: &str| format!("SELECT o.id, k.tag FROM orders o LEFT JOIN keys k ON {on} = k.k");
    assert_eq!(pruned_partitions(&left("o.id"), &left("o.id + 0"), true), 0);
    let semi = |on: &str| {
        format!("SELECT id FROM orders WHERE {on} IN (SELECT k FROM keys WHERE tag = 'y')")
    };
    assert_eq!(pruned_partitions(&semi("id"), &semi("id + 0"), true), 4);
    // Keys {4, 5} under a two-branch union: each branch reads two.
    let union = |on: &str| {
        format!(
            "SELECT u.id FROM (SELECT id FROM orders WHERE amount > 0 \
             UNION ALL SELECT id FROM orders WHERE region = 'north') u \
             JOIN keys k ON {on} = k.k WHERE k.tag = 'y'"
        )
    };
    assert_eq!(
        pruned_partitions(&union("u.id"), &union("u.id + 0"), false),
        8
    );
    pruned_partitions(&union("u.id"), &union("u.id + 0"), true);
}

/// A build key set with holes — November across every year of
/// `date_dim` — prunes the fact table's partitions between them, and the
/// join's rows equal an unpruned run.
#[test]
fn build_keys_with_holes_prune_non_contiguous_partitions() {
    let sql = |key: &str| {
        format!(
            "SELECT d_year, COUNT(*) AS n, SUM(ss_quantity) AS q FROM store_sales \
             JOIN date_dim ON {key} = d_date_sk WHERE d_moy = 11 GROUP BY d_year ORDER BY d_year"
        )
    };
    let s = tpcds_session(true, 1, true);
    let expected = s.sql(&sql("ss_sold_date_sk + 0")).unwrap();
    let r = s.sql(&sql("ss_sold_date_sk")).unwrap();
    assert_eq!(r.rows, expected.rows);
    assert!(r.rows.len() >= 4, "November of several years: {:?}", r.rows);
    assert!(r.metrics.partitions_pruned > 0);
    assert!(r.metrics.bytes_scanned < expected.metrics.bytes_scanned);
    let profile = s.last_profile().unwrap();
    fn scan<'a>(p: &'a fusion_exec::OpProfile, table: &str) -> Option<&'a fusion_exec::OpProfile> {
        if p.label.starts_with(&format!("Scan: {table} ")) {
            return Some(p);
        }
        p.children.iter().find_map(|c| scan(c, table))
    }
    let fact = scan(&profile.root, "store_sales").unwrap();
    let read: Vec<u64> = fact.partitions.iter().map(|p| p.partition).collect();
    assert!(fact.join_pruned > 0);
    assert!(
        read.windows(2).filter(|w| w[1] > w[0] + 1).count() >= 3,
        "November partitions of four years are not contiguous: {read:?}"
    );
}

// ---------- EXPLAIN ANALYZE surface ----------

/// A pipelined chain reports its counters in a `-- pipelines --` section
/// of EXPLAIN ANALYZE; the batch path reports nothing.
#[test]
fn explain_analyze_reports_pipeline_counters() {
    let on = orders_session(1, true);
    let r = on
        .sql("EXPLAIN ANALYZE SELECT id, amount * 2 AS d FROM orders WHERE amount > 30")
        .unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Utf8(s) => s.clone(),
            other => panic!("EXPLAIN rows are text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        text.contains("-- pipelines --"),
        "missing pipelines section:\n{text}"
    );
    assert!(
        text.contains("pipelines_compiled=1"),
        "chain must compile to one pipeline:\n{text}"
    );
    assert!(
        !text.contains("batches_elided=0 "),
        "pipeline must elide batches:\n{text}"
    );
    assert!(r.metrics.batches_elided > 0);
    assert!(r.metrics.rows_evaluated_vectorized > 0);

    // A join's probe is a stage of the scan's pipeline, metered on the
    // join's line, and its build keys prune the scan.
    let text = on
        .explain_analyze("SELECT o.id FROM orders o JOIN keys k ON o.id = k.k WHERE k.tag = 'y'")
        .unwrap();
    assert!(text.contains("probe_stages=1 "), "{text}");
    let scan_line = text.lines().find(|l| l.contains("Scan: orders")).unwrap();
    assert!(scan_line.contains("join_pruned=4"), "{text}");
    let join_line = text.lines().find(|l| l.contains("Join:")).unwrap();
    assert!(join_line.contains("rows_out=2"), "{text}");

    let off = orders_session(1, false);
    let r = off
        .sql("EXPLAIN ANALYZE SELECT id, amount * 2 AS d FROM orders WHERE amount > 30")
        .unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Utf8(s) => s.clone(),
            other => panic!("EXPLAIN rows are text, got {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        !text.contains("-- pipelines --"),
        "batch path must not report pipelines:\n{text}"
    );
}

// ---------- chaos: faults mid-pipeline ----------

/// Transient scan faults strike inside the fused pipeline (the scan is
/// inlined in the chain): retries must leave results bit-identical to
/// the batch path under the *same* fault schedule.
#[test]
fn transient_faults_mid_pipeline_keep_bit_identity() {
    for threads in [1usize, 4] {
        for seed in [3u64, 7, 11] {
            let mut off = orders_session(threads, false);
            let mut on = orders_session(threads, true);
            off.set_fault_policy(FaultPolicy::transient(seed, 0.3));
            on.set_fault_policy(FaultPolicy::transient(seed, 0.3));
            for q in MICRO_QUERIES {
                let r_off = off.sql(q).unwrap();
                let r_on = on.sql(q).unwrap();
                assert_eq!(
                    r_on.rows, r_off.rows,
                    "faulted pipelines on/off diverge (threads={threads}, seed={seed}):\n{q}"
                );
            }
        }
    }
}

/// A permanently poisoned partition fails the pipelined query with the
/// same typed error the batch path reports.
#[test]
fn permanent_fault_mid_pipeline_fails_with_same_typed_error() {
    for threads in [1usize, 4] {
        for pipelines in [true, false] {
            let mut s = orders_session(threads, pipelines);
            s.set_fault_policy(FaultPolicy::default().with_poison("orders", 1));
            let out = s.sql("SELECT id, amount FROM orders WHERE amount > 0");
            assert!(
                matches!(out, Err(FusionError::DataCorruption(_))),
                "poisoned scan must surface DataCorruption \
                 (threads={threads}, pipelines={pipelines}): {out:?}"
            );
        }
    }
}

// ---------- property tests: vectorized == scalar ----------

const NUM_COLS: u32 = 3;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::Null), (-20i64..20).prop_map(Value::Int64)]
}

fn arb_numeric_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NUM_COLS).prop_map(|i| col(ColumnId(i))),
        (-20i64..20).prop_map(fusion_expr::lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (inner.clone(), inner, 0..4u8).prop_map(|(a, b, op)| match op {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b), // division by zero exercises error-site parity
        })
    })
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    let cmp = (arb_numeric_expr(), arb_numeric_expr(), 0..6u8).prop_map(|(a, b, op)| match op {
        0 => a.eq_to(b),
        1 => a.not_eq_to(b),
        2 => a.lt(b),
        3 => a.lt_eq(b),
        4 => a.gt(b),
        _ => a.gt_eq(b),
    });
    cmp.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.negated()),
        ]
    })
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), NUM_COLS as usize)
}

/// Rows paired with a selection flag, so the kernels are exercised over
/// arbitrary selection-vector subsets, not just full columns.
fn arb_table() -> impl Strategy<Value = Vec<(Vec<Value>, bool)>> {
    proptest::collection::vec((arb_row(), (0..2u8).prop_map(|b| b == 1)), 0..32)
}

fn resolver(row: &[Value]) -> impl Fn(ColumnId) -> Result<Value, FusionError> + '_ {
    move |id: ColumnId| {
        row.get(id.0 as usize)
            .cloned()
            .ok_or_else(|| FusionError::Execution(format!("no col {id}")))
    }
}

/// Transpose the generated rows into columns plus the selection vector.
fn columns_and_selection(table: &[(Vec<Value>, bool)]) -> (Vec<Vec<Value>>, Vec<usize>) {
    columns_of(table, NUM_COLS as usize)
}

/// [`columns_and_selection`] for rows `width` values wide.
fn columns_of(table: &[(Vec<Value>, bool)], width: usize) -> (Vec<Vec<Value>>, Vec<usize>) {
    let mut columns = vec![Vec::with_capacity(table.len()); width];
    let mut selection = Vec::new();
    for (i, (row, selected)) in table.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            columns[c].push(v.clone());
        }
        if *selected {
            selection.push(i);
        }
    }
    (columns, selection)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ColumnBatch::eval` over a selection equals per-row scalar
    /// evaluation: identical values when every row succeeds, an error
    /// whenever any selected row errors (NULLs and short-circuit subsets
    /// included).
    #[test]
    fn vectorized_eval_matches_scalar(e in arb_predicate(), table in arb_table()) {
        let (columns, selection) = columns_and_selection(&table);
        let mut batch = ColumnBatch::new();
        for (c, column) in columns.iter().enumerate() {
            batch.push(ColumnId(c as u32), column.as_slice());
        }
        let scalar: Result<Vec<Value>, FusionError> = selection
            .iter()
            .map(|&r| eval(&e, &resolver(&table[r].0)))
            .collect();
        let vector = batch.eval(&e, &selection);
        match (scalar, vector) {
            (Ok(s), Ok(v)) => prop_assert_eq!(s, v, "values diverge for {}", e),
            (Err(_), Err(_)) => {}
            (s, v) => prop_assert!(
                false,
                "success/error divergence for {}: scalar {:?} vs vector {:?}",
                e, s, v
            ),
        }
    }

    /// `ColumnBatch::filter` keeps exactly the rows the scalar
    /// `eval(..) == TRUE` test keeps, in order.
    #[test]
    fn vectorized_filter_matches_scalar(e in arb_predicate(), table in arb_table()) {
        let (columns, selection) = columns_and_selection(&table);
        let mut batch = ColumnBatch::new();
        for (c, column) in columns.iter().enumerate() {
            batch.push(ColumnId(c as u32), column.as_slice());
        }
        let scalar: Result<Vec<usize>, FusionError> = selection
            .iter()
            .filter_map(|&r| match eval(&e, &resolver(&table[r].0)) {
                Ok(v) => (v.as_bool() == Some(true)).then_some(Ok(r)),
                Err(err) => Some(Err(err)),
            })
            .collect();
        let vector = batch.filter(&e, &selection);
        match (scalar, vector) {
            (Ok(s), Ok(v)) => prop_assert_eq!(s, v, "selections diverge for {}", e),
            (Err(_), Err(_)) => {}
            (s, v) => prop_assert!(
                false,
                "success/error divergence for {}: scalar {:?} vs vector {:?}",
                e, s, v
            ),
        }
    }

    /// The columnar hash kernel computes exactly the row-wise key hash —
    /// the property that lets pipelined probes meet batch-path builds.
    #[test]
    fn columnar_hashes_match_row_hashes(table in arb_table()) {
        let (columns, selection) = columns_and_selection(&table);
        let col_refs: Vec<&[Value]> = columns.iter().map(|c| c.as_slice()).collect();
        let hashes = hash_columns(&col_refs, &selection);
        for (j, &r) in selection.iter().enumerate() {
            prop_assert_eq!(hashes[j], hash_key(&table[r].0));
        }
    }
}

// ---------- property tests: the selection kernel == scalar ----------

/// Typed nullable columns: `#0` Int64, `#1` Float64, `#2` Utf8, and `#3`,
/// which each test fills itself.
fn arb_typed_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![Just(Value::Null), (-5i64..5).prop_map(Value::Int64)],
        prop_oneof![Just(Value::Null), (-5.0..5.0).prop_map(Value::Float64)],
        prop_oneof![
            Just(Value::Null),
            (0u8..4).prop_map(|k| Value::Utf8(["a", "b", "c", "d"][k as usize].to_string()))
        ],
    )
        .prop_map(|(i, f, s)| vec![i, f, s, Value::Null])
}

fn arb_typed_table() -> impl Strategy<Value = Vec<(Vec<Value>, bool)>> {
    proptest::collection::vec((arb_typed_row(), (0..2u8).prop_map(|b| b == 1)), 0..40)
}

/// Predicates over the typed columns: comparisons against literals and
/// each other, NULL tests, BETWEEN ranges, boolean and NULL literals, and
/// comparisons of a string with a number (a type error on every non-NULL
/// row it is evaluated on), nested under AND, OR and NOT.
fn arb_typed_predicate() -> impl Strategy<Value = Expr> {
    let (i, f, s) = (col(ColumnId(0)), col(ColumnId(1)), col(ColumnId(2)));
    fn cmp(a: Expr, b: Expr, op: u8) -> Expr {
        match op {
            0 => a.eq_to(b),
            1 => a.not_eq_to(b),
            2 => a.lt(b),
            3 => a.lt_eq(b),
            4 => a.gt(b),
            _ => a.gt_eq(b),
        }
    }
    let atom = prop_oneof![
        ((-5i64..5), 0..6u8).prop_map({
            let i = i.clone();
            move |(k, op)| cmp(i.clone(), fusion_expr::lit(k), op)
        }),
        ((-5i64..5), 0..6u8).prop_map({
            let i = i.clone();
            move |(k, op)| cmp(fusion_expr::lit(k), i.clone(), op)
        }),
        ((-5.0..5.0), 0..6u8).prop_map({
            let f = f.clone();
            move |(k, op)| cmp(f.clone(), fusion_expr::lit(k), op)
        }),
        ((0u8..4), 0..6u8).prop_map({
            let s = s.clone();
            move |(k, op)| cmp(s.clone(), fusion_expr::lit(["a", "b", "c", "d"][k as usize]), op)
        }),
        (0..6u8).prop_map({
            let (i, f) = (i.clone(), f.clone());
            move |op| cmp(i.clone(), f.clone(), op)
        }),
        ((-5i64..5), (0i64..4)).prop_map({
            let i = i.clone();
            move |(lo, w)| {
                let (lo, hi) = (fusion_expr::lit(lo), fusion_expr::lit(lo + w));
                i.clone().gt_eq(lo).and(i.clone().lt_eq(hi))
            }
        }),
        ((-5.0..5.0), (0.0..4.0)).prop_map({
            let f = f.clone();
            move |(lo, w): (f64, f64)| {
                let (lo, hi) = (fusion_expr::lit(lo), fusion_expr::lit(lo + w));
                f.clone().gt_eq(lo).and(f.clone().lt_eq(hi))
            }
        }),
        (0..3u8).prop_map({
            let (i, f, s) = (i.clone(), f.clone(), s.clone());
            move |c| [i.clone(), f.clone(), s.clone()][c as usize].clone().is_null()
        }),
        (0..3u8).prop_map(move |c| {
            [i.clone(), f.clone(), s.clone()][c as usize].clone().is_not_null()
        }),
        (0..3u8).prop_map(|k| match k {
            0 => Expr::boolean(true),
            1 => Expr::boolean(false),
            _ => Expr::Literal(Value::Null),
        }),
        (0..6u8).prop_map(|op| cmp(col(ColumnId(2)), fusion_expr::lit(1i64), op)),
    ];
    atom.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.negated()),
        ]
    })
}

/// The scalar evaluator's value of `e` on each row of `selection`, or
/// its first error.
fn scalar_values(
    e: &Expr,
    table: &[(Vec<Value>, bool)],
    selection: &[usize],
) -> Result<Vec<Value>, FusionError> {
    selection.iter().map(|&r| eval(e, &resolver(&table[r].0))).collect()
}

/// The rows of `selection` whose value is TRUE.
fn true_rows(selection: &[usize], values: &[Value]) -> Vec<usize> {
    selection
        .iter()
        .zip(values)
        .filter(|(_, v)| v.as_bool() == Some(true))
        .map(|(&r, _)| r)
        .collect()
}

fn typed_batch(columns: &[Vec<Value>]) -> ColumnBatch<'_> {
    let mut batch = ColumnBatch::new();
    for (c, column) in columns.iter().enumerate() {
        batch.push(ColumnId(c as u32), column.as_slice());
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `ColumnBatch::eval` gives each row the scalar evaluator's value —
    /// its TRUE, NULL and FALSE rows are the selection kernel's split — and
    /// `ColumnBatch::filter` keeps exactly the TRUE rows; both fail exactly
    /// when the scalar evaluator fails on some selected row.
    #[test]
    fn selection_kernel_matches_scalar(e in arb_typed_predicate(), table in arb_typed_table()) {
        let (columns, selection) = columns_of(&table, 4);
        let batch = typed_batch(&columns);
        let filtered = batch.filter(&e, &selection);
        match (scalar_values(&e, &table, &selection), batch.eval(&e, &selection)) {
            (Ok(scalar), Ok(kernel)) => {
                prop_assert_eq!(&scalar, &kernel, "values diverge for {}", e);
                prop_assert_eq!(
                    filtered.ok(),
                    Some(true_rows(&selection, &scalar)),
                    "filtered rows diverge for {}", e
                );
            }
            (Err(_), Err(_)) => prop_assert!(filtered.is_err(), "filter succeeded for {}", e),
            (s, v) => prop_assert!(
                false,
                "success/error divergence for {}: scalar {:?} vs kernel {:?}",
                e, s, v
            ),
        }
    }

    /// AND evaluates its right side where the left is TRUE or NULL, OR
    /// where it is FALSE or NULL. `#3` holds a string — so `#3 > 0` is a
    /// type error — exactly on the rows where the left side `#0 > k` is
    /// NULL, or exactly where it is FALSE: the error must surface where
    /// the scalar evaluator reaches those rows and nowhere else.
    #[test]
    fn right_sides_fail_exactly_where_scalar_evaluates_them(
        table in arb_typed_table(),
        k in -5i64..5,
        poison_null in any::<bool>(),
    ) {
        let left = col(ColumnId(0)).gt(fusion_expr::lit(k));
        let right = col(ColumnId(3)).gt(fusion_expr::lit(0i64));
        let mut table = table;
        for (row, _) in &mut table {
            let poisoned = match row[0] {
                Value::Null => poison_null,
                Value::Int64(i) => !poison_null && i <= k,
                _ => false,
            };
            row[3] = if poisoned { Value::Utf8("x".into()) } else { Value::Int64(1) };
        }
        let (columns, selection) = columns_of(&table, 4);
        let batch = typed_batch(&columns);
        let reaches =
            |pred: &dyn Fn(&Value) -> bool| selection.iter().any(|&r| pred(&table[r].0[0]));
        let left_null = reaches(&|v| v.is_null());
        let left_false = reaches(&|v| matches!(v, Value::Int64(i) if *i <= k));
        for (e, fails) in [
            (left.clone().and(right.clone()), poison_null && left_null),
            (left.clone().or(right.clone()), if poison_null { left_null } else { left_false }),
            (
                left.clone().negated().and(right.clone()),
                if poison_null { left_null } else { left_false },
            ),
        ] {
            let scalar = scalar_values(&e, &table, &selection);
            let kernel = batch.eval(&e, &selection);
            prop_assert_eq!(scalar.is_err(), fails, "scalar outcome for {}", e);
            prop_assert_eq!(kernel.is_err(), fails, "kernel outcome for {}", e);
            prop_assert_eq!(batch.filter(&e, &selection).is_err(), fails, "filter outcome for {}", e);
            if let (Ok(scalar), Ok(kernel)) = (scalar, kernel) {
                prop_assert_eq!(scalar, kernel, "values diverge for {}", e);
            }
        }
    }
}
