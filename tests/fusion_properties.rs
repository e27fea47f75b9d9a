// Test code: unwrap/panic on setup or assertion failure is the point,
// so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Property-based tests for the fusion machinery.
//!
//! The central property is the paper's semantic contract for `Fuse`:
//!
//! ```text
//! P1 = Project_outCols(P1)( Filter_L( P ) )
//! P2 = Project_M(outCols(P2))( Filter_R( P ) )
//! ```
//!
//! We generate random plan pairs over a shared base table, fuse them, and
//! *execute* both sides of the equation, comparing result multisets.
//! Supporting properties cover expression simplification, normalization
//! and contradiction detection.

use proptest::prelude::*;

use fusion_common::{ColumnId, DataType, FusionError, IdGen, Value};
use fusion_core::fuse::{fuse, FuseContext};
use fusion_core::rules::union_fusion::UnionAllFusion;
use fusion_core::rules::{apply_everywhere, Rule};
use fusion_exec::table::TableColumn;
use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
use fusion_expr::{col, eval, is_contradiction, lit, normalize, simplify, AggregateExpr, Expr};
use fusion_plan::builder::ColumnDef;
use fusion_plan::{Filter, LogicalPlan, PlanBuilder, Project, ProjExpr};

// ---------- expression strategies ----------

const NUM_INT_COLS: u32 = 2;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int64),
    ]
}

fn arb_numeric_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NUM_INT_COLS).prop_map(|i| col(ColumnId(i))),
        (-20i64..20).prop_map(lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (inner.clone(), inner, 0..4u8).prop_map(|(a, b, op)| match op {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b),
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
    proptest::collection::vec(arb_value(), NUM_INT_COLS as usize)
}

fn resolver(row: &[Value]) -> impl Fn(ColumnId) -> Result<Value, FusionError> + '_ {
    move |id: ColumnId| {
        row.get(id.0 as usize)
            .cloned()
            .ok_or_else(|| FusionError::Execution(format!("no col {id}")))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simplification must preserve evaluation on every row.
    #[test]
    fn simplify_preserves_semantics(e in arb_predicate(), row in arb_row()) {
        let simplified = simplify(&e);
        let before = eval(&e, &resolver(&row)).unwrap();
        let after = eval(&simplified, &resolver(&row)).unwrap();
        prop_assert_eq!(before, after, "simplify({}) = {}", e, simplified);
    }

    /// Normalization (used by equivalence checks) preserves evaluation.
    #[test]
    fn normalize_preserves_semantics(e in arb_predicate(), row in arb_row()) {
        let normalized = normalize(&e);
        let before = eval(&e, &resolver(&row)).unwrap();
        let after = eval(&normalized, &resolver(&row)).unwrap();
        prop_assert_eq!(before, after, "normalize({}) = {}", e, normalized);
    }

    /// If the contradiction checker claims `e ≡ FALSE`, no row may make it
    /// TRUE (soundness — completeness is not claimed).
    #[test]
    fn contradiction_checker_is_sound(e in arb_predicate(), row in arb_row()) {
        if is_contradiction(&e) {
            let v = eval(&e, &resolver(&row)).unwrap();
            prop_assert_ne!(v, Value::Boolean(true), "claimed contradiction: {}", e);
        }
    }

    /// Substituting through a column map is a homomorphism w.r.t.
    /// evaluation: eval(map(e), row) == eval(e, permuted row).
    #[test]
    fn column_mapping_is_homomorphic(e in arb_predicate(), row in arb_row()) {
        let mut m = fusion_expr::ColumnMap::new();
        m.insert(ColumnId(0), ColumnId(1));
        m.insert(ColumnId(1), ColumnId(0));
        let mapped = e.map_columns(&m);
        let mut swapped = row.clone();
        swapped.swap(0, 1);
        let a = eval(&mapped, &resolver(&row)).unwrap();
        let b = eval(&e, &resolver(&swapped)).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Equivalence checking is sound: if normalize says two random
    /// predicates are equal, they must evaluate identically.
    #[test]
    fn equivalence_is_sound(
        e1 in arb_predicate(),
        e2 in arb_predicate(),
        row in arb_row(),
    ) {
        if fusion_expr::equiv(&e1, &e2) {
            let a = eval(&e1, &resolver(&row)).unwrap();
            let b = eval(&e2, &resolver(&row)).unwrap();
            prop_assert_eq!(a, b, "equiv claimed for {} and {}", e1, e2);
        }
    }
}

// ---------- plan-level fusion properties ----------

/// A recipe for one side of a fusion pair: filter bound, optional extra
/// projection, optional aggregation with an optional mask.
#[derive(Debug, Clone)]
struct PlanRecipe {
    filter_lo: i64,
    filter_hi: i64,
    project_offset: Option<i64>,
    aggregate: bool,
    agg_mask_bound: Option<i64>,
}

fn arb_recipe() -> impl Strategy<Value = PlanRecipe> {
    (
        -10i64..10,
        0i64..20,
        proptest::option::of(-5i64..5),
        any::<bool>(),
        proptest::option::of(0i64..10),
    )
        .prop_map(
            |(lo, span, project_offset, aggregate, agg_mask_bound)| PlanRecipe {
                filter_lo: lo,
                filter_hi: lo + span,
                project_offset,
                aggregate,
                agg_mask_bound,
            },
        )
}

fn table_cols() -> Vec<ColumnDef> {
    vec![
        ColumnDef::new("g", DataType::Int64, true),
        ColumnDef::new("x", DataType::Int64, true),
        ColumnDef::new("y", DataType::Int64, true),
    ]
}

type RowSpec = (Option<i64>, i64, i64);

fn build_catalog(rows: &[RowSpec]) -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            TableColumn {
                name: "g".into(),
                data_type: DataType::Int64,
                nullable: true,
            },
            TableColumn {
                name: "x".into(),
                data_type: DataType::Int64,
                nullable: true,
            },
            TableColumn {
                name: "y".into(),
                data_type: DataType::Int64,
                nullable: true,
            },
        ],
    );
    for (g, x, y) in rows {
        b.add_row(vec![
            g.map(Value::Int64).unwrap_or(Value::Null),
            Value::Int64(*x),
            Value::Int64(*y),
        ])
        .unwrap();
    }
    let mut c = Catalog::new();
    c.register(b.build());
    c
}

fn build_plan(recipe: &PlanRecipe, gen: &IdGen) -> LogicalPlan {
    let t = PlanBuilder::scan(gen, "t", &table_cols());
    let (g, x, y) = (
        t.col("g").unwrap(),
        t.col("x").unwrap(),
        t.col("y").unwrap(),
    );
    let mut b = t.filter(
        col(x)
            .gt_eq(lit(recipe.filter_lo))
            .and(col(x).lt_eq(lit(recipe.filter_hi))),
    );
    if let Some(off) = recipe.project_offset {
        b = b.project(vec![
            ("g", col(g)),
            ("x", col(x)),
            ("v", col(y).add(lit(off))),
        ]);
    }
    if recipe.aggregate {
        let group = b.col("g").unwrap();
        let arg = b.col("x").unwrap();
        let mut agg = AggregateExpr::sum(col(arg));
        if let Some(bound) = recipe.agg_mask_bound {
            agg = agg.with_mask(col(arg).gt(lit(bound)));
        }
        b = b.aggregate(
            vec![group],
            vec![("s", agg), ("n", AggregateExpr::count_star())],
        );
    }
    b.build()
}

/// Execute `Project_{ids}(Filter_comp(plan))` — the reconstruction side of
/// the fusion contract.
fn reconstruct(
    fused_plan: &LogicalPlan,
    comp: &Expr,
    out_ids: &[(ColumnId, ColumnId)],
    catalog: &Catalog,
) -> Vec<Vec<Value>> {
    let filtered = if comp.is_true_literal() {
        fused_plan.clone()
    } else {
        LogicalPlan::Filter(Filter {
            input: Box::new(fused_plan.clone()),
            predicate: comp.clone(),
        })
    };
    let exprs = out_ids
        .iter()
        .map(|(orig, src)| ProjExpr::new(*orig, format!("o{}", orig.0), Expr::Column(*src)))
        .collect();
    let projected = LogicalPlan::Project(Project {
        input: Box::new(filtered),
        exprs,
    });
    projected
        .validate()
        .unwrap_or_else(|e| panic!("reconstruction invalid: {e}\n{}", projected.display()));
    let mut rows = execute_plan(&projected, catalog, &ExecMetrics::new())
        .unwrap()
        .rows;
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's Fuse contract, executed: fusing two random pipelines
    /// over the same table and applying the compensating filters
    /// reconstructs both originals exactly.
    #[test]
    fn fuse_reconstructs_both_inputs(
        r1 in arb_recipe(),
        r2 in arb_recipe(),
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..4), -10i64..10, -10i64..10),
            0..40
        ),
    ) {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let p1 = build_plan(&r1, &gen);
        let p2 = build_plan(&r2, &gen);
        let catalog = build_catalog(&rows);

        if let Some(fused) = fuse(&p1, &p2, &ctx) {
            fused.plan.validate().unwrap_or_else(|e| {
                panic!("fused plan invalid: {e}\n{}", fused.plan.display())
            });

            let p1_ids: Vec<_> = p1.schema().ids().iter().map(|id| (*id, *id)).collect();
            let expect1 = execute_plan(&p1, &catalog, &ExecMetrics::new()).unwrap();
            let got1 = reconstruct(&fused.plan, &fused.left, &p1_ids, &catalog);
            prop_assert_eq!(
                expect1.sorted_rows(), got1,
                "P1 reconstruction failed\nP1:\n{}\nfused:\n{}\nL: {}",
                p1.display(), fused.plan.display(), &fused.left
            );

            let p2_ids: Vec<_> = p2
                .schema()
                .ids()
                .iter()
                .map(|id| (*id, fused.mapped_id(*id)))
                .collect();
            let expect2 = execute_plan(&p2, &catalog, &ExecMetrics::new()).unwrap();
            let got2 = reconstruct(&fused.plan, &fused.right, &p2_ids, &catalog);
            prop_assert_eq!(
                expect2.sorted_rows(), got2,
                "P2 reconstruction failed\nP2:\n{}\nfused:\n{}\nR: {}",
                p2.display(), fused.plan.display(), &fused.right
            );
        }
    }

    /// The UnionAll fusion rule preserves result multisets on random
    /// branch pairs (including overlapping and disjoint filters).
    #[test]
    fn union_fusion_preserves_multisets(
        r1 in arb_recipe(),
        r2 in arb_recipe(),
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..4), -10i64..10, -10i64..10),
            0..40
        ),
    ) {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let p1 = build_plan(&r1, &gen);
        let p2 = build_plan(&r2, &gen);
        prop_assume!(p1.schema().len() == p2.schema().len());

        let union = match PlanBuilder::from_plan(&gen, p1).union_all(vec![p2]) {
            Ok(b) => b.build(),
            Err(_) => return Ok(()),
        };
        let catalog = build_catalog(&rows);
        let expected = execute_plan(&union, &catalog, &ExecMetrics::new()).unwrap();

        if let Some(rewritten) = apply_everywhere(&UnionAllFusion, &union, &ctx) {
            rewritten.validate().unwrap();
            let got = execute_plan(&rewritten, &catalog, &ExecMetrics::new()).unwrap();
            prop_assert_eq!(expected.sorted_rows(), got.sorted_rows());
            prop_assert_eq!(rewritten.scanned_tables().len(), 1);
        }
    }

    /// Full optimizer equivalence on random single-table pipelines (the
    /// optimizer also validates each intermediate plan internally).
    #[test]
    fn optimizer_preserves_single_table_pipelines(
        r in arb_recipe(),
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..4), -10i64..10, -10i64..10),
            0..40
        ),
    ) {
        let gen = IdGen::new();
        let plan = build_plan(&r, &gen);
        let catalog = build_catalog(&rows);
        let expected = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();

        let optimizer =
            fusion_core::Optimizer::new(gen.clone(), fusion_core::OptimizerConfig::default());
        let (optimized, _) = optimizer.optimize(&plan);
        let got = execute_plan(&optimized, &catalog, &ExecMetrics::new()).unwrap();
        prop_assert_eq!(expected.sorted_rows(), got.sorted_rows());
    }

    /// Self-join of two random keyed pipelines: JoinOnKeys (when it
    /// fires through the full optimizer) must preserve the join result.
    #[test]
    fn optimizer_preserves_keyed_self_joins(
        r1 in arb_recipe(),
        r2 in arb_recipe(),
        rows in proptest::collection::vec(
            (proptest::option::of(0i64..4), -10i64..10, -10i64..10),
            0..30
        ),
    ) {
        // Force both sides to aggregate so the join is keyed.
        let mut r1 = r1;
        let mut r2 = r2;
        r1.aggregate = true;
        r2.aggregate = true;
        let gen = IdGen::new();
        let p1 = build_plan(&r1, &gen);
        let p2 = build_plan(&r2, &gen);
        let k1 = p1.schema().field(0).id;
        let k2 = p2.schema().field(0).id;
        let plan = PlanBuilder::from_plan(&gen, p1)
            .join(p2, fusion_plan::JoinType::Inner, col(k1).eq_to(col(k2)))
            .build();
        let catalog = build_catalog(&rows);
        let expected = execute_plan(&plan, &catalog, &ExecMetrics::new()).unwrap();

        let optimizer =
            fusion_core::Optimizer::new(gen.clone(), fusion_core::OptimizerConfig::default());
        let (optimized, _) = optimizer.optimize(&plan);
        let got = execute_plan(&optimized, &catalog, &ExecMetrics::new()).unwrap();
        prop_assert_eq!(
            expected.sorted_rows(), got.sorted_rows(),
            "plan:\n{}\noptimized:\n{}", plan.display(), optimized.display()
        );
    }
}

/// Sanity: the Rule trait objects used above are the real ones.
#[test]
fn rule_names() {
    assert_eq!(UnionAllFusion.name(), "UnionAllFusion");
}

// ---------- semantic analyzer properties ----------

/// Every TPC-DS corpus plan — fused and baseline, before and after
/// optimization — passes the semantic analyzer with zero violations.
/// The analyzer must be sound *and* quiet on legitimate plans: a false
/// positive here would silently disable fusion in strict mode.
#[test]
fn tpcds_corpus_plans_pass_the_analyzer() {
    use fusion_engine::Session;
    use fusion_tpcds::{generate_catalog, TpcdsConfig};

    let cfg = TpcdsConfig::with_scale(0.01);
    let mut fused = Session::new();
    for t in generate_catalog(&cfg).into_tables() {
        fused.register_table(t);
    }
    let mut baseline = Session::baseline();
    for t in generate_catalog(&cfg).into_tables() {
        baseline.register_table(t);
    }

    for q in fusion_tpcds::all_queries() {
        for (mode, session) in [("fused", &fused), ("baseline", &baseline)] {
            let plan = session
                .plan_sql(&q.sql)
                .unwrap_or_else(|e| panic!("{} ({mode}): planning failed: {e}", q.id));
            let (optimized, report) = session.optimize(&plan);
            assert!(
                report.validation_error.is_none(),
                "{} ({mode}): optimizer flagged plan: {:?}",
                q.id,
                report.validation_error
            );
            for (stage, p) in [("raw", &plan), ("optimized", &optimized)] {
                let violations = fusion_core::analyze_plan(p);
                assert!(
                    violations.is_empty(),
                    "{} ({mode}/{stage}): analyzer violations: {}\nplan:\n{}",
                    q.id,
                    fusion_core::analysis::render_violations(&violations),
                    p.display()
                );
            }
        }
    }
}
