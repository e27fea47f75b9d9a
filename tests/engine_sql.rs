// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! SQL-level engine tests: language-feature coverage through the whole
//! pipeline (parse → plan → optimize → execute) against a hand-checked
//! micro-dataset, with fusion both on and off.

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

/// orders: (id, cust, region, amount); customers: (cid, name, tier).
fn session() -> Session {
    let mut s = Session::new();
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

fn ints(rows: &[Vec<Value>]) -> Vec<Vec<i64>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| v.as_i64().unwrap_or(i64::MIN))
                .collect()
        })
        .collect()
}

/// Run on both configurations, assert identical results, return the rows.
fn both(sql: &str) -> Vec<Vec<Value>> {
    let fused = session().sql(sql).unwrap_or_else(|e| panic!("fused: {e}\n{sql}"));
    let mut baseline_session = session();
    baseline_session.set_fusion_enabled(false);
    let baseline = baseline_session
        .sql(sql)
        .unwrap_or_else(|e| panic!("baseline: {e}\n{sql}"));
    assert_eq!(fused.sorted_rows(), baseline.sorted_rows(), "{sql}");
    fused.sorted_rows()
}

#[test]
fn projection_and_arithmetic() {
    let rows = both("SELECT id, id * 2 + 1 AS d FROM orders WHERE id <= 2 ORDER BY id");
    assert_eq!(ints(&rows), vec![vec![1, 3], vec![2, 5]]);
}

#[test]
fn where_with_nulls_filters_unknown() {
    // amount > 0 is UNKNOWN for the NULL amount: row 5 is dropped.
    let rows = both("SELECT id FROM orders WHERE amount > 0");
    assert_eq!(rows.len(), 5);
}

#[test]
fn is_null_and_is_not_null() {
    let rows = both("SELECT id FROM orders WHERE region IS NULL");
    assert_eq!(ints(&rows), vec![vec![4]]);
    let rows = both("SELECT id FROM orders WHERE cust IS NOT NULL AND amount IS NOT NULL");
    assert_eq!(rows.len(), 4);
}

#[test]
fn group_by_with_having_and_order() {
    let rows = both(
        "SELECT cust, COUNT(*) AS n, SUM(amount) AS total \
         FROM orders WHERE cust IS NOT NULL \
         GROUP BY cust HAVING COUNT(*) > 1 ORDER BY cust",
    );
    assert_eq!(rows.len(), 2); // cust 10 and 20
    assert_eq!(rows[0][0], Value::Int64(10));
    assert_eq!(rows[0][2], Value::Float64(125.0));
}

#[test]
fn aggregates_over_empty_input() {
    let rows = both("SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id > 100");
    assert_eq!(rows, vec![vec![Value::Int64(0), Value::Null]]);
}

#[test]
fn count_distinct_via_mark_distinct() {
    let rows = both("SELECT COUNT(DISTINCT region) AS r FROM orders");
    assert_eq!(rows, vec![vec![Value::Int64(3)]]);
}

#[test]
fn filter_clause_on_aggregates() {
    let rows = both(
        "SELECT COUNT(*) FILTER (WHERE region = 'north') AS north, \
                COUNT(*) AS all_rows FROM orders",
    );
    assert_eq!(rows, vec![vec![Value::Int64(3), Value::Int64(6)]]);
}

#[test]
fn inner_join_and_left_join() {
    let inner = both(
        "SELECT id, name FROM orders JOIN customers ON cust = cid ORDER BY id",
    );
    assert_eq!(inner.len(), 4); // cust 30 and NULL have no customer
    let left = both(
        "SELECT id, name FROM orders LEFT JOIN customers ON cust = cid ORDER BY id",
    );
    assert_eq!(left.len(), 6);
    assert!(left.iter().any(|r| r[1] == Value::Null));
}

#[test]
fn in_list_and_between_and_case() {
    let rows = both(
        "SELECT id, CASE WHEN amount BETWEEN 0 AND 50 THEN 'small' \
                         WHEN amount > 50 THEN 'big' ELSE 'unknown' END AS bucket \
         FROM orders WHERE region IN ('north', 'east') ORDER BY id",
    );
    assert_eq!(rows.len(), 4);
    // sorted by id: 1 (50 → small), 3 (20 → small), 5 (NULL → unknown),
    // 6 (10 → small).
    assert_eq!(rows[0][1], Value::Utf8("small".into()));
    assert_eq!(rows[2][1], Value::Utf8("unknown".into()));
    assert_eq!(rows[3][1], Value::Utf8("small".into()));
}

#[test]
fn select_distinct() {
    let rows = both("SELECT DISTINCT region FROM orders WHERE region IS NOT NULL");
    assert_eq!(rows.len(), 3);
}

#[test]
fn union_all_keeps_duplicates() {
    let rows = both(
        "SELECT id FROM orders WHERE region = 'north' \
         UNION ALL SELECT id FROM orders WHERE amount > 40",
    );
    // north: 1, 3, 6; amount>40: 1, 2, 4 → 6 rows, id 1 twice.
    assert_eq!(rows.len(), 6);
    assert_eq!(
        rows.iter().filter(|r| r[0] == Value::Int64(1)).count(),
        2
    );
}

#[test]
fn subquery_in_from_with_alias() {
    let rows = both(
        "SELECT t.r, t.n FROM (SELECT region AS r, COUNT(*) AS n \
                               FROM orders GROUP BY region) t \
         WHERE t.n > 1 ORDER BY t.r",
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Utf8("north".into()));
}

#[test]
fn in_subquery_semi_join() {
    let rows = both(
        "SELECT id FROM orders WHERE cust IN (SELECT cid FROM customers WHERE tier = 1)",
    );
    assert_eq!(ints(&rows), vec![vec![1], vec![2]]);
}

#[test]
fn uncorrelated_scalar_subquery() {
    let rows = both(
        "SELECT id FROM orders WHERE amount > (SELECT AVG(amount) FROM orders)",
    );
    // avg = 49; rows with amount > 49: 1 (50), 2 (75), 4 (90).
    assert_eq!(ints(&rows), vec![vec![1], vec![2], vec![4]]);
}

#[test]
fn correlated_scalar_subquery_decorrelates() {
    let rows = both(
        "SELECT id FROM orders o1 \
         WHERE o1.amount > (SELECT AVG(o2.amount) FROM orders o2 \
                            WHERE o2.cust = o1.cust)",
    );
    // cust 10 avg 62.5 → id 2; cust 20 avg 55 → id 4.
    assert_eq!(ints(&rows), vec![vec![2], vec![4]]);
}

#[test]
fn window_partition_aggregate() {
    let rows = both(
        "SELECT id, amount, AVG(amount) OVER (PARTITION BY cust) AS a \
         FROM orders WHERE cust IS NOT NULL ORDER BY id",
    );
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0][2], Value::Float64(62.5));
}

#[test]
fn order_by_desc_and_limit() {
    let rows = {
        // ORDER is not preserved by sorted_rows(); check directly.
        let r = session()
            .sql(
                "SELECT id, amount FROM orders WHERE amount IS NOT NULL \
                 ORDER BY amount DESC LIMIT 2",
            )
            .unwrap();
        r.rows
    };
    assert_eq!(ints(&rows)[0][0], 4);
    assert_eq!(ints(&rows)[1][0], 2);
}

#[test]
fn with_cte_multiple_references() {
    let rows = both(
        "WITH north AS (SELECT id, amount FROM orders WHERE region = 'north') \
         SELECT a.id FROM north a, north b WHERE a.amount < b.amount ORDER BY a.id",
    );
    // north: (1,50),(3,20),(6,10): pairs with a.amount < b.amount: (3,1),(6,1),(6,3)
    assert_eq!(ints(&rows), vec![vec![3], vec![6], vec![6]]);
}

#[test]
fn quoted_strings_with_escapes() {
    let rows = both("SELECT 'it''s' AS s FROM orders WHERE id = 1");
    assert_eq!(rows[0][0], Value::Utf8("it's".into()));
}

#[test]
fn cast_expressions() {
    let rows = both("SELECT CAST(amount AS BIGINT) AS a FROM orders WHERE id = 2");
    assert_eq!(rows[0][0], Value::Int64(75));
}

#[test]
fn error_on_unknown_table_and_column() {
    let s = session();
    assert!(s.sql("SELECT x FROM missing").is_err());
    assert!(s.sql("SELECT nope FROM orders").is_err());
    assert!(s.sql("SELECT id FROM orders WHERE").is_err());
}

#[test]
fn error_on_ambiguous_column() {
    let s = session();
    let e = s.sql("SELECT cid FROM customers a, customers b");
    assert!(e.is_err());
}

#[test]
fn scalar_subquery_multiple_rows_fails_at_runtime() {
    let s = session();
    let e = s.sql("SELECT id FROM orders WHERE amount > (SELECT amount FROM orders)");
    assert!(e.is_err());
}

#[test]
fn cross_join_via_comma() {
    let rows = both("SELECT o.id, c.cid FROM orders o, customers c WHERE o.id = 1");
    assert_eq!(rows.len(), 3);
}

#[test]
fn qualified_wildcard() {
    let rows = both("SELECT o.* FROM orders o WHERE o.id = 1");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].len(), 4);
}

#[test]
fn group_by_expression() {
    let rows = both(
        "SELECT id % 2 AS parity, COUNT(*) AS n FROM orders GROUP BY id % 2 ORDER BY parity",
    );
    assert_eq!(ints(&rows), vec![vec![0, 3], vec![1, 3]]);
}

#[test]
fn scalar_functions_coalesce_and_abs() {
    let rows = both(
        "SELECT id, COALESCE(region, 'none') AS r, ABS(id - 4) AS d \
         FROM orders ORDER BY id",
    );
    assert_eq!(rows.len(), 6);
    // Row id=4 has NULL region -> 'none'; ABS(4-4)=0.
    let row4 = rows.iter().find(|r| r[0] == Value::Int64(4)).unwrap();
    assert_eq!(row4[1], Value::Utf8("none".into()));
    assert_eq!(row4[2], Value::Int64(0));
}

/// `QueryResult::latency` covers the optimizer: a query whose optimize
/// dwarfs its execution (twenty scalar subqueries over six rows) reports
/// at least half of the best of three `optimize` calls on the same plan.
#[test]
fn latency_includes_optimize() {
    let s = session();
    let subqueries: Vec<String> = (0..20)
        .map(|i| format!("(SELECT COUNT(*) FROM orders WHERE amount > {i}) AS c{i}"))
        .collect();
    let sql = format!("SELECT {} FROM customers WHERE cid = 10", subqueries.join(", "));
    let plan = s.plan_sql(&sql).unwrap();
    let optimize = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            s.optimize(&plan);
            start.elapsed()
        })
        .min()
        .unwrap();
    let latency = s.sql(&sql).unwrap().latency;
    assert!(
        latency * 2 >= optimize,
        "latency {latency:?} leaves out the optimizer (best optimize {optimize:?})"
    );
}
