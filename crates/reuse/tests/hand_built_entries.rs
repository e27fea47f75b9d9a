//! Hand-built cache entries the reuse layer must not trust: a warm entry
//! whose slots cannot be matched to the group plan's is a miss (run cold,
//! re-admit), and a stored row of the wrong arity detaches the consumers
//! it would have served — nothing is served by position, nothing padded.

#![allow(clippy::unwrap_used, clippy::panic)]

use std::sync::Arc;

use fusion_common::{DataType, IdGen, Value};
use fusion_exec::table::TableColumn;
use fusion_exec::{execute_plan_profiled, Catalog, ExecContext, ExecMetrics, Row, TableBuilder};
use fusion_expr::{lit, AggregateExpr};
use fusion_plan::builder::ColumnDef;
use fusion_plan::{LogicalPlan, PlanBuilder};
use fusion_reuse::workload::plan_workload;
use fusion_reuse::{
    canonical_form, DepStamps, FailureBreaker, Fingerprint, ReuseCache, ReuseCacheConfig,
    WorkloadOutcome,
};


/// `t(k, v)`: 40 rows, `v` = 0..40, `k` = `v % 4`.
fn catalog() -> Catalog {
    let column = |name: &str| TableColumn {
        name: name.into(),
        data_type: DataType::Int64,
        nullable: false,
    };
    let mut t = TableBuilder::new("t", vec![column("k"), column("v")]);
    for v in 0..40i64 {
        t.add_row(vec![Value::Int64(v % 4), Value::Int64(v)]).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(t.build());
    catalog
}

/// `SELECT k, COUNT(*), SUM(v) FROM t WHERE v > bound GROUP BY k`.
fn member(gen: &IdGen, bound: i64) -> LogicalPlan {
    let cols = [
        ColumnDef::new("k", DataType::Int64, false),
        ColumnDef::new("v", DataType::Int64, false),
    ];
    let scan = PlanBuilder::scan(gen, "t", &cols);
    let (k, v) = (scan.col("k").unwrap(), scan.col_expr("v").unwrap());
    scan.filter(v.clone().gt(lit(bound)))
        .aggregate(
            vec![k],
            vec![("n", AggregateExpr::count_star()), ("s", AggregateExpr::sum(v))],
        )
        .build()
}

/// One session's worth of reuse state around [`plan_workload`].
struct Bench {
    catalog: Catalog,
    cache: ReuseCache,
    breaker: FailureBreaker,
    gen: IdGen,
    metrics: Arc<ExecMetrics>,
}

impl Bench {
    fn new() -> Self {
        Bench {
            catalog: catalog(),
            cache: ReuseCache::new(ReuseCacheConfig::default()),
            breaker: FailureBreaker::new(3, 4),
            gen: IdGen::new(),
            metrics: ExecMetrics::new(),
        }
    }

    fn window(&mut self, bounds: &[i64]) -> (Vec<LogicalPlan>, WorkloadOutcome) {
        let plans: Vec<LogicalPlan> = bounds.iter().map(|&b| member(&self.gen, b)).collect();
        let out = plan_workload(
            &mut self.cache,
            &mut self.breaker,
            plans.clone(),
            &self.catalog,
            &ExecContext::new(Arc::clone(&self.metrics)),
            &self.gen,
            &self.metrics,
            None,
        );
        (plans, out)
    }

    fn rows(&self, plan: &LogicalPlan) -> Vec<Row> {
        let ctx = ExecContext::new(Arc::clone(&self.metrics));
        execute_plan_profiled(plan, &self.catalog, &ctx).unwrap().0.rows
    }

    /// Re-admit the entry the last window shared under `rows` and
    /// `slots` of the test's making, keeping its key, plan and
    /// stamps: a hand-built entry the cache takes for its own.
    fn overwrite_entry(
        &mut self,
        out: &WorkloadOutcome,
        rows: impl Fn(&mut Vec<Row>),
        slots: impl Fn(&mut Vec<String>),
    ) {
        let fp = &out.report.groups[0].fingerprint;
        let fp = Fingerprint(u64::from_str_radix(&fp[2..], 16).unwrap());
        let (_, plan) = self.cache.resident_plans().into_iter().find(|(f, _)| *f == fp).unwrap();
        let form = canonical_form(&plan);
        let versions = self.catalog.table_versions();
        let hit = self
            .cache
            .lookup(fp, &form.encoding, &self.catalog, &versions, &self.metrics)
            .unwrap();
        let (mut new_rows, mut new_slots) = (hit.rows.as_ref().clone(), hit.slots);
        rows(&mut new_rows);
        slots(&mut new_slots);
        self.cache.evict(fp, &self.metrics);
        assert!(self.cache.admit(
            fp,
            &form.encoding,
            Arc::new(new_rows),
            new_slots,
            &plan,
            DepStamps::for_plan(&plan, &versions).unwrap(),
            &self.metrics,
        ));
    }

    /// Every rewritten plan of `out` returns its original's rows.
    fn assert_rows_unchanged(&self, plans: &[LogicalPlan], out: &WorkloadOutcome) {
        for (original, rewritten) in plans.iter().zip(&out.plans) {
            assert_eq!(self.rows(rewritten), self.rows(original), "{:?}", out.notes);
        }
    }
}

/// A warm entry whose slots cannot be matched to the group plan's is
/// a miss: the group runs cold, serves every consumer and re-admits,
/// for an exact group (10, 10) and a fused one (10, 20) alike.
/// The hand-built rows are of the right shape, and wrong: serving
/// them would show.
#[test]
fn unalignable_warm_entry_is_a_miss_not_a_detach() {
    for bounds in [[10, 10], [10, 20]] {
        let mut b = Bench::new();
        let (_, cold) = b.window(&bounds);
        assert!(cold.report.groups[0].executed);
        b.overwrite_entry(
            &cold,
            |rows| rows.iter_mut().for_each(|r| r[1] = Value::Int64(-1)),
            |slots| slots[1] = "no such column".into(),
        );

        let before = b.metrics.snapshot();
        let (plans, out) = b.window(&bounds);
        let group = &out.report.groups[0];
        assert!(group.executed && !group.cache_hit, "{group:?}");
        assert_eq!(group.spliced, 2, "{:?}", out.notes);
        b.assert_rows_unchanged(&plans, &out);
        let delta = b.metrics.snapshot().delta_since(&before);
        assert_eq!(delta.consumers_detached, 0);
        assert_eq!(delta.shared_subplans_executed, 1);

        let (plans, warm) = b.window(&bounds);
        assert!(warm.report.groups[0].cache_hit, "the cold run re-admitted");
        b.assert_rows_unchanged(&plans, &warm);
    }
}

/// A stored row that is not as wide as the entry's slots say cannot
/// be put under any consumer's fields: each consumer keeps its own
/// plan, with the reason, and no value is invented to pad the row.
#[test]
fn stored_row_of_the_wrong_arity_detaches_the_consumer() {
    let mut b = Bench::new();
    let (_, cold) = b.window(&[10, 20]);
    b.overwrite_entry(&cold, |rows| rows[0].truncate(2), |_| {});

    let before = b.metrics.snapshot();
    let (plans, out) = b.window(&[10, 20]);
    assert_eq!(out.plans, plans, "both consumers keep their own plans");
    assert_eq!(out.report.groups[0].spliced, 0);
    for notes in &out.notes {
        assert!(
            notes.iter().any(|n| n.contains("row arity mismatch")),
            "{notes:?}"
        );
    }
    let delta = b.metrics.snapshot().delta_since(&before);
    assert_eq!(delta.consumers_detached, 2);
    assert_eq!(delta.shared_subplans_executed, 0, "the entry itself was a hit");
}
