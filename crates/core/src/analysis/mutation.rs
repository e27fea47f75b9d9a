//! Plan-mutation self-test: the analyzer's own regression suite.
//!
//! Each corruption below takes a *known-good* fusion artifact — a raw
//! `Fuse` result or an optimized tagged-dispatch plan — and applies one
//! seeded mutation of the kind a buggy rewrite would produce: drop a
//! mapping entry, swap or widen a compensating filter, widen an aggregate
//! mask, change an aggregate's function or argument, drop a grouping key,
//! retype or drop a tag-dispatch branch. The analyzer (contract checker +
//! structural validation + whole-plan checks) must reject every mutant;
//! a surviving mutant is a hole in the analyzer, reported by name for
//! triage. The tests at the bottom gate both corpora.

use std::collections::HashMap;

use fusion_common::{DataType, Field, IdGen, Value};
use fusion_expr::{col, lit, AggregateExpr, BinaryOp, Expr};
use fusion_plan::{
    AggAssign, Aggregate, Filter, LogicalPlan, Project, ProjExpr, Scan, UnionAll,
};

use super::canon::canonical_form;
use super::reuse::{
    certify_exact_splice, certify_fused_splice, certify_maintainability, certify_stamps,
    certify_subsumption, MaintainShape, ReuseCertificate,
};
use super::{analyze_plan, contract, render_violations, AnalysisCode, Violation};
use crate::fuse::{fuse, ExprMemo, FuseContext, Fused};
use crate::rules::union_fusion::UnionAllFusion;
use crate::rules::Rule;

/// Outcome of one seeded corruption.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    pub description: String,
    pub killed: bool,
    /// The violation (or validation error) that killed it, or that a
    /// pristine artifact was rejected with.
    pub detail: String,
}

/// Aggregated self-test result.
#[derive(Debug, Clone, Default)]
pub struct MutationReport {
    pub outcomes: Vec<MutationOutcome>,
}

impl MutationReport {
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    pub fn killed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.killed).count()
    }

    pub fn kill_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.killed() as f64 / self.total() as f64
    }

    /// Descriptions of mutants the analyzer failed to reject, and of
    /// pristine artifacts it rejected, with the violations it named.
    pub fn survivors(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .filter(|o| !o.killed)
            .map(|o| match o.detail.as_str() {
                "" => o.description.clone(),
                detail => format!("{} ({detail})", o.description),
            })
            .collect()
    }

    fn record_fused(
        &mut self,
        description: impl Into<String>,
        p1: &LogicalPlan,
        p2: &LogicalPlan,
        mutant: &Fused,
    ) {
        // A mutant is killed if any layer of the gate rejects it: the
        // contract checker, structural validation, or the plan checks.
        let mut detail = render_violations(&check_fuse_contract(p1, p2, mutant));
        if detail.is_empty() {
            if let Err(e) = mutant.plan.validate() {
                detail = e.to_string();
            }
        }
        if detail.is_empty() {
            detail = render_violations(&analyze_plan(&mutant.plan));
        }
        self.outcomes.push(MutationOutcome {
            description: description.into(),
            killed: !detail.is_empty(),
            detail,
        });
    }

    fn record_plan(&mut self, description: impl Into<String>, mutant: &LogicalPlan) {
        let mut detail = match mutant.validate() {
            Err(e) => e.to_string(),
            Ok(()) => String::new(),
        };
        if detail.is_empty() {
            detail = render_violations(&analyze_plan(mutant));
        }
        self.outcomes.push(MutationOutcome {
            description: description.into(),
            killed: !detail.is_empty(),
            detail,
        });
    }
}

/// Run the full corruption suite. Also asserts (as outcomes, not panics)
/// that the *uncorrupted* artifacts pass, so a false-positive analyzer
/// shows up as a mutation regression too.
pub fn run_self_test() -> MutationReport {
    let mut report = MutationReport::default();
    filter_fusion_mutants(&mut report);
    scalar_aggregate_mutants(&mut report);
    keyed_aggregate_mutants(&mut report);
    union_dispatch_mutants(&mut report);
    report
}

/// Run the reuse-corruption suite: seeded corruptions of known-good reuse
/// rewrites — exact and fused splices, subsumption serves, refresh shapes
/// and dependency stamps — that the reuse-soundness prover must reject.
/// Pristine artifacts are recorded too (inverted, "killed" = accepted) so
/// false positives show up as regressions alongside surviving mutants.
pub fn run_reuse_self_test() -> MutationReport {
    let mut report = MutationReport::default();
    exact_splice_mutants(&mut report);
    fused_splice_mutants(&mut report);
    subsumption_mutants(&mut report);
    maintainability_mutants(&mut report);
    stamp_mutants(&mut report);
    report
}

/// Check a raw `Fuse` result against the contract. Empty result = OK.
fn check_fuse_contract(p1: &LogicalPlan, p2: &LogicalPlan, f: &Fused) -> Vec<Violation> {
    contract::check(p1, p2, f, &ExprMemo::default())
}

/// Verify a *claimed* maintain shape against the one the plan derives:
/// a forged or stale claim must come back as a typed violation.
fn check_maintain_claim(plan: &LogicalPlan, claimed: &MaintainShape) -> Result<(), Vec<Violation>> {
    match certify_maintainability(plan) {
        Ok(ReuseCertificate::Maintain(derived)) if &derived == claimed => Ok(()),
        Ok(ReuseCertificate::Maintain(derived)) => Err(vec![Violation::new(
            AnalysisCode::ReuseMaintain,
            format!(
                "claimed maintain shape {claimed:?} but the plan derives \
                 {derived:?}"
            ),
        )]),
        Ok(_) => Err(vec![Violation::new(
            AnalysisCode::ReuseMaintain,
            "maintainability derivation returned a non-maintain certificate",
        )]),
        Err(v) => Err(v),
    }
}

/// `[x Int64, y Utf8, z Int64, b Boolean]` scan with fresh ids.
fn scan(gen: &IdGen, table: &str) -> LogicalPlan {
    let fields = vec![
        Field::new(gen.fresh(), "x", DataType::Int64, true),
        Field::new(gen.fresh(), "y", DataType::Utf8, true),
        Field::new(gen.fresh(), "z", DataType::Int64, true),
        Field::new(gen.fresh(), "b", DataType::Boolean, true),
    ];
    LogicalPlan::Scan(Scan {
        table: table.into(),
        fields,
        column_indices: vec![0, 1, 2, 3],
        filters: Vec::new(),
    })
}

fn field_id(plan: &LogicalPlan, name: &str) -> fusion_common::ColumnId {
    plan.schema()
        .fields()
        .iter()
        .find(|f| f.name == name)
        .map(|f| f.id)
        .unwrap_or(fusion_common::ColumnId(u32::MAX))
}

/// A good/bad sanity pair plus the corruption matrix for plain filter
/// fusion: `Filter(x>5)(t)` fused with `Filter(x<3)(t)`.
fn filter_fusion_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s1 = scan(&gen, "t");
    let s2 = scan(&gen, "t");
    let x1 = field_id(&s1, "x");
    let y1 = field_id(&s1, "y");
    let p1 = LogicalPlan::Filter(Filter {
        input: Box::new(s1.clone()),
        predicate: col(x1).gt(lit(5i64)),
    });
    let p2 = LogicalPlan::Filter(Filter {
        input: Box::new(s2.clone()),
        predicate: col(field_id(&s2, "x")).lt(lit(3i64)),
    });
    let ctx = FuseContext::new(gen);
    let Some(good) = fuse(&p1, &p2, &ctx) else {
        return sample_failed(report, "filter fusion");
    };

    // Baseline: the uncorrupted result must be accepted (recorded
    // inverted — "killed" here means the analyzer stayed quiet).
    let baseline = check_fuse_contract(&p1, &p2, &good);
    report.outcomes.push(MutationOutcome {
        description: "filter fusion: pristine result accepted".into(),
        killed: baseline.is_empty(),
        detail: render_violations(&baseline),
    });

    // Drop each mapping entry.
    for key in good.mapping.keys().copied().collect::<Vec<_>>() {
        let mut m = good.clone();
        m.mapping.remove(&key);
        report.record_fused(
            format!("filter fusion: drop mapping entry for #{}", key.0),
            &p1,
            &p2,
            &m,
        );
    }
    // Remap a column onto a fresh id the fused plan does not produce.
    if let Some(key) = good.mapping.keys().next().copied() {
        let mut m = good.clone();
        m.mapping.insert(key, ctx.gen.fresh());
        report.record_fused("filter fusion: remap onto unknown column", &p1, &p2, &m);
    }
    // Remap P2's Utf8 column onto P1's Int64 column.
    {
        let mut m = good.clone();
        m.mapping.insert(field_id(&s2, "y"), x1);
        report.record_fused("filter fusion: remap Utf8 column onto Int64", &p1, &p2, &m);
    }
    // Swap the compensating filters.
    {
        let mut m = good.clone();
        std::mem::swap(&mut m.left, &mut m.right);
        report.record_fused("filter fusion: swap L and R", &p1, &p2, &m);
    }
    // Widen each compensation to TRUE.
    for side in ["L", "R"] {
        let mut m = good.clone();
        if side == "L" {
            m.left = Expr::boolean(true);
        } else {
            m.right = Expr::boolean(true);
        }
        report.record_fused(format!("filter fusion: widen {side} to TRUE"), &p1, &p2, &m);
    }
    // Compensation referencing a column outside the fused schema.
    {
        let mut m = good.clone();
        m.left = col(ctx.gen.fresh()).gt(lit(0i64));
        report.record_fused("filter fusion: L references unknown column", &p1, &p2, &m);
    }
    // Non-boolean compensation.
    {
        let mut m = good.clone();
        m.right = col(x1).add(lit(1i64));
        report.record_fused("filter fusion: R is not boolean", &p1, &p2, &m);
    }
    // Drop one of P1's columns from the fused plan via a projection.
    {
        let mut m = good.clone();
        let keep: Vec<ProjExpr> = m
            .plan
            .schema()
            .fields()
            .iter()
            .filter(|f| f.id != y1)
            .map(|f| ProjExpr::new(f.id, f.name.clone(), col(f.id)))
            .collect();
        m.plan = LogicalPlan::Project(Project {
            input: Box::new(m.plan),
            exprs: keep,
        });
        report.record_fused("filter fusion: fused plan drops a P1 column", &p1, &p2, &m);
    }
}

/// Scalar aggregates over different filters: the filters must be absorbed
/// into every derived mask.
fn scalar_aggregate_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s1 = scan(&gen, "t");
    let s2 = scan(&gen, "t");
    let x1 = field_id(&s1, "x");
    let x2 = field_id(&s2, "x");
    let agg1 = gen.fresh();
    let agg2 = gen.fresh();
    let p1 = LogicalPlan::Aggregate(Aggregate {
        input: Box::new(LogicalPlan::Filter(Filter {
            input: Box::new(s1.clone()),
            predicate: col(x1).gt(lit(5i64)),
        })),
        group_by: vec![],
        aggregates: vec![AggAssign::new(agg1, "s", AggregateExpr::sum(col(x1)))],
    });
    let p2 = LogicalPlan::Aggregate(Aggregate {
        input: Box::new(LogicalPlan::Filter(Filter {
            input: Box::new(s2.clone()),
            predicate: col(x2).lt(lit(3i64)),
        })),
        group_by: vec![],
        aggregates: vec![AggAssign::new(agg2, "s", AggregateExpr::sum(col(x2)))],
    });
    let ctx = FuseContext::new(gen);
    let Some(good) = fuse(&p1, &p2, &ctx) else {
        return sample_failed(report, "scalar aggregate");
    };
    let baseline = check_fuse_contract(&p1, &p2, &good);
    report.outcomes.push(MutationOutcome {
        description: "scalar aggregates: pristine result accepted".into(),
        killed: baseline.is_empty(),
        detail: render_violations(&baseline),
    });

    // Widen each fused aggregate's mask to TRUE.
    let n_aggs = match &good.plan {
        LogicalPlan::Aggregate(g) => g.aggregates.len(),
        _ => 0,
    };
    for i in 0..n_aggs {
        let mut m = good.clone();
        if let LogicalPlan::Aggregate(g) = &mut m.plan {
            if let Some(a) = g.aggregates.get_mut(i) {
                a.agg.mask = Expr::boolean(true);
            }
        }
        report.record_fused(
            format!("scalar aggregates: widen mask of fused aggregate {i}"),
            &p1,
            &p2,
            &m,
        );
    }
    // Change the function / argument / DISTINCT-ness of a fused aggregate.
    for (what, change) in [
        ("function SUM->MAX", 0),
        ("argument x->z", 1),
        ("set DISTINCT", 2),
    ] {
        let mut m = good.clone();
        if let LogicalPlan::Aggregate(g) = &mut m.plan {
            if let Some(a) = g.aggregates.first_mut() {
                match change {
                    0 => a.agg.func = fusion_expr::AggFunc::Max,
                    1 => a.agg.arg = Some(col(field_id(&s1, "z"))),
                    _ => a.agg.distinct = true,
                }
            }
        }
        report.record_fused(format!("scalar aggregates: {what}"), &p1, &p2, &m);
    }
}

/// Keyed aggregates with masked source aggregates: masks may only get
/// stricter, grouping keys must survive.
fn keyed_aggregate_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s1 = scan(&gen, "t");
    let s2 = scan(&gen, "t");
    let k1 = field_id(&s1, "z");
    let k2 = field_id(&s2, "z");
    let b1 = field_id(&s1, "b");
    let b2 = field_id(&s2, "b");
    let agg1 = gen.fresh();
    let agg2 = gen.fresh();
    let p1 = LogicalPlan::Aggregate(Aggregate {
        input: Box::new(s1.clone()),
        group_by: vec![k1],
        aggregates: vec![AggAssign::new(
            agg1,
            "m",
            AggregateExpr::min(col(field_id(&s1, "x"))).with_mask(col(b1)),
        )],
    });
    let p2 = LogicalPlan::Aggregate(Aggregate {
        input: Box::new(s2.clone()),
        group_by: vec![k2],
        aggregates: vec![AggAssign::new(
            agg2,
            "m2",
            AggregateExpr::max(col(field_id(&s2, "x"))).with_mask(col(b2)),
        )],
    });
    let ctx = FuseContext::new(gen);
    let Some(good) = fuse(&p1, &p2, &ctx) else {
        return sample_failed(report, "keyed aggregate");
    };
    let baseline = check_fuse_contract(&p1, &p2, &good);
    report.outcomes.push(MutationOutcome {
        description: "keyed aggregates: pristine result accepted".into(),
        killed: baseline.is_empty(),
        detail: render_violations(&baseline),
    });

    // Widen the mask of the aggregate carrying P1's MIN.
    {
        let mut m = good.clone();
        if let LogicalPlan::Aggregate(g) = &mut m.plan {
            if let Some(a) = g.aggregates.iter_mut().find(|a| a.id == agg1) {
                a.agg.mask = Expr::boolean(true);
            }
        }
        report.record_fused("keyed aggregates: widen P1 mask", &p1, &p2, &m);
    }
    // Widen the mask of the aggregate carrying P2's MAX (found via M).
    {
        let mut m = good.clone();
        let target = m.mapped_id(agg2);
        if let LogicalPlan::Aggregate(g) = &mut m.plan {
            if let Some(a) = g.aggregates.iter_mut().find(|a| a.id == target) {
                a.agg.mask = Expr::boolean(true);
            }
        }
        report.record_fused("keyed aggregates: widen P2 mask", &p1, &p2, &m);
    }
    // Drop the grouping key.
    {
        let mut m = good.clone();
        if let LogicalPlan::Aggregate(g) = &mut m.plan {
            g.group_by.clear();
        }
        report.record_fused("keyed aggregates: drop grouping key", &p1, &p2, &m);
    }
    // Corrupt the mapping entry for P2's aggregate output. Same-table
    // fusions may carry P2's output under its own identity, in which
    // case *removing* the entry is a no-op (`mapped_id` falls back to
    // identity) — so the corruption points it at a column the fused
    // plan does not produce instead.
    {
        let mut m = good.clone();
        m.mapping.insert(agg2, ctx.gen.fresh());
        report.record_fused(
            "keyed aggregates: remap P2 output onto unknown column",
            &p1,
            &p2,
            &m,
        );
    }
}

/// Tag-dispatch corruption of an optimized 3-branch union fusion.
fn union_dispatch_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let mut inputs = Vec::new();
    let mut bounds = [10i64, 20, 30].iter();
    let mut fields = Vec::new();
    for i in 0..3 {
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        let bound = *bounds.next().unwrap_or(&0);
        if i == 0 {
            fields = s
                .schema()
                .fields()
                .iter()
                .map(|f| Field::new(gen.fresh(), f.name.clone(), f.data_type, f.nullable))
                .collect();
        }
        inputs.push(LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(bound)),
        }));
    }
    let union = LogicalPlan::UnionAll(UnionAll { inputs, fields });
    let ctx = FuseContext::new(gen);
    let Some(good) = UnionAllFusion.apply(&union, &ctx) else {
        report.outcomes.push(MutationOutcome {
            description: "union dispatch sample: rule did not fire".into(),
            killed: false,
            detail: String::new(),
        });
        return;
    };

    let baseline = analyze_plan(&good);
    report.outcomes.push(MutationOutcome {
        description: "union dispatch: pristine plan accepted".into(),
        killed: baseline.is_empty() && good.validate().is_ok(),
        detail: render_violations(&baseline),
    });

    // Retype a tag literal: `tag = 2` becomes `tag = 9`.
    report.record_plan(
        "union dispatch: retype tag literal 2 -> 9",
        &rewrite_filters(&good, &|pred| replace_tag_literal(pred, 2, 9)),
    );
    // Duplicate a branch: `tag = 2` becomes `tag = 1`.
    report.record_plan(
        "union dispatch: dispatch branch 1 twice, drop branch 2",
        &rewrite_filters(&good, &|pred| replace_tag_literal(pred, 2, 1)),
    );
    // Drop a dispatch branch entirely.
    report.record_plan(
        "union dispatch: drop dispatch branch for tag 3",
        &rewrite_filters(&good, &|pred| drop_tag_disjunct(pred, 3)),
    );
}

/// Rewrite every Filter predicate with `f` (first match wins).
fn rewrite_filters(plan: &LogicalPlan, f: &dyn Fn(&Expr) -> Option<Expr>) -> LogicalPlan {
    plan.transform_down(&mut |node| {
        if let LogicalPlan::Filter(flt) = node {
            f(&flt.predicate).map(|predicate| {
                LogicalPlan::Filter(Filter {
                    input: flt.input.clone(),
                    predicate,
                })
            })
        } else {
            None
        }
    })
    .unwrap_or_else(|| plan.clone())
}

/// Replace the first `col = from` equality with `col = to`.
fn replace_tag_literal(pred: &Expr, from: i64, to: i64) -> Option<Expr> {
    let changed = std::cell::Cell::new(false);
    let out = pred.transform(&|e| {
        if changed.get() {
            return None;
        }
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = e
        {
            if let (Expr::Column(id), Expr::Literal(Value::Int64(k))) =
                (left.as_ref(), right.as_ref())
            {
                if *k == from {
                    changed.set(true);
                    return Some(col(*id).eq_to(lit(to)));
                }
            }
        }
        None
    });
    changed.get().then_some(out)
}

/// Remove the disjunct dispatching `tag = which` from a top-level
/// disjunction.
fn drop_tag_disjunct(pred: &Expr, which: i64) -> Option<Expr> {
    let disjuncts = fusion_expr::split_disjuncts(pred);
    if disjuncts.len() < 2 {
        return None;
    }
    let keep: Vec<Expr> = disjuncts
        .iter()
        .filter(|d| {
            !fusion_expr::split_conjuncts(d).iter().any(|c| {
                matches!(
                    c,
                    Expr::Binary { op: BinaryOp::Eq, left, right }
                        if matches!(left.as_ref(), Expr::Column(_))
                            && matches!(right.as_ref(), Expr::Literal(Value::Int64(k)) if *k == which)
                )
            })
        })
        .cloned()
        .collect();
    (keep.len() < disjuncts.len() && !keep.is_empty()).then(|| fusion_expr::disjoin(keep))
}

// ---------------------------------------------------------------------
// Reuse-corruption corpus
// ---------------------------------------------------------------------

impl MutationReport {
    /// Record one certification attempt that must be *rejected*.
    fn record_cert<T>(&mut self, description: impl Into<String>, result: Result<T, Vec<Violation>>) {
        let (killed, detail) = match result {
            Ok(_) => (false, String::new()),
            Err(v) => (true, render_violations(&v)),
        };
        self.outcomes.push(MutationOutcome {
            description: description.into(),
            killed,
            detail,
        });
    }

    /// Record one stored layout that is a *permutation* of the shared
    /// plan's: the columns are all there, somewhere else. It is handled —
    /// killed — when the prover refuses it, or binds every shared column
    /// to the stored position with the same slot and so not position by
    /// position, which is how a permuted entry serves one consumer
    /// another's values.
    fn record_layout(
        &mut self,
        description: impl Into<String>,
        result: Result<ReuseCertificate, Vec<Violation>>,
        shared_slots: &[String],
        stored_slots: &[String],
    ) {
        let (killed, detail) = match result {
            Err(v) => (true, render_violations(&v)),
            Ok(ReuseCertificate::FusedSplice { positions, .. }) => {
                let by_slot = positions.len() == shared_slots.len()
                    && positions
                        .iter()
                        .zip(shared_slots)
                        .all(|(&k, slot)| stored_slots.get(k) == Some(slot));
                let positional = positions.iter().enumerate().all(|(j, &k)| j == k);
                (by_slot && !positional, format!("bound at {positions:?}"))
            }
            Ok(other) => (false, other.describe()),
        };
        self.outcomes.push(MutationOutcome {
            description: description.into(),
            killed,
            detail,
        });
    }

    /// Record one pristine artifact that must be *accepted* (inverted:
    /// "killed" means the prover stayed quiet).
    fn record_pristine<T>(
        &mut self,
        description: impl Into<String>,
        result: Result<T, Vec<Violation>>,
    ) {
        let (killed, detail) = match result {
            Ok(_) => (true, String::new()),
            Err(v) => (false, render_violations(&v)),
        };
        self.outcomes.push(MutationOutcome {
            description: description.into(),
            killed,
            detail,
        });
    }
}

/// `[x Int64, f Float64, z Int64, b Boolean]` scan with fresh ids, for
/// reuse corruptions that need a float column.
fn fscan(gen: &IdGen, table: &str) -> LogicalPlan {
    let fields = vec![
        Field::new(gen.fresh(), "x", DataType::Int64, true),
        Field::new(gen.fresh(), "f", DataType::Float64, true),
        Field::new(gen.fresh(), "z", DataType::Int64, true),
        Field::new(gen.fresh(), "b", DataType::Boolean, true),
    ];
    LogicalPlan::Scan(Scan {
        table: table.into(),
        fields,
        column_indices: vec![0, 1, 2, 3],
        filters: Vec::new(),
    })
}

/// Exact splices: the consumer must be canonically equal to the shared
/// plan, with a total slot alignment.
fn exact_splice_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s = scan(&gen, "t");
    let x = field_id(&s, "x");
    let consumer = LogicalPlan::Filter(Filter {
        input: Box::new(s),
        predicate: col(x).gt(lit(5i64)),
    });
    let form = canonical_form(&consumer);

    report.record_pristine(
        "exact splice: pristine consumer against its own form accepted",
        certify_exact_splice(&consumer, &form.encoding, &form.slots),
    );

    // Shared plan computed a different predicate (wrong literal).
    let other = {
        let gen = IdGen::new();
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        canonical_form(&LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(6i64)),
        }))
    };
    report.record_cert(
        "exact splice: shared plan filters x>6, consumer wants x>5",
        certify_exact_splice(&consumer, &other.encoding, &other.slots),
    );
    // Shared plan over a different base table.
    let other_table = {
        let gen = IdGen::new();
        let s = scan(&gen, "u");
        let x = field_id(&s, "x");
        canonical_form(&LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(5i64)),
        }))
    };
    report.record_cert(
        "exact splice: shared plan scans table u, consumer scans t",
        certify_exact_splice(&consumer, &other_table.encoding, &other_table.slots),
    );
    // Shared rows dropped a column the consumer needs (slot list
    // truncated while the claimed encoding still matches).
    report.record_cert(
        "exact splice: shared slots dropped a consumer column",
        certify_exact_splice(&consumer, &form.encoding, &form.slots[..form.slots.len() - 1]),
    );
    // Shared rows carry a retyped column in place of the consumer's.
    let mut retyped = form.slots.clone();
    if let Some(last) = retyped.last_mut() {
        *last = last.replace("Boolean", "Utf8");
    }
    report.record_cert(
        "exact splice: shared slot retyped Boolean -> Utf8",
        certify_exact_splice(&consumer, &form.encoding, &retyped),
    );
}

/// Fused splices: the mapping/compensation pair must reconstruct the
/// consumer from the fused superset, in both directions.
fn fused_splice_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s1 = scan(&gen, "t");
    let s2 = scan(&gen, "t");
    let x1 = field_id(&s1, "x");
    let x2 = field_id(&s2, "x");
    let z2 = field_id(&s2, "z");
    let p1 = LogicalPlan::Filter(Filter {
        input: Box::new(s1.clone()),
        predicate: col(x1).gt(lit(5i64)),
    });
    let p2 = LogicalPlan::Filter(Filter {
        input: Box::new(s2.clone()),
        predicate: col(x2).lt(lit(3i64)),
    });
    let ctx = FuseContext::new(gen);
    let Some(good) = fuse(&p1, &p2, &ctx) else {
        return sample_failed(report, "fused splice");
    };

    // The stored rows of these samples are the fused plan's own output.
    let slots = canonical_form(&good.plan).slots;

    report.record_pristine(
        "fused splice: pristine mapping/compensation accepted",
        certify_fused_splice(&p2, &good.plan, &slots, &good.mapping, &good.right),
    );

    // Swapped compensation: serve P2 through P1's residual.
    report.record_cert(
        "fused splice: compensations swapped (P2 served through L)",
        certify_fused_splice(&p2, &good.plan, &slots, &good.mapping, &good.left),
    );
    // Widened compensation: TRUE keeps the other member's rows.
    report.record_cert(
        "fused splice: compensation widened to TRUE",
        certify_fused_splice(&p2, &good.plan, &slots, &good.mapping, &Expr::boolean(true)),
    );
    // Wrong literal in the compensation.
    report.record_cert(
        "fused splice: compensation literal 3 -> 4",
        certify_fused_splice(
            &p2,
            &good.plan,
            &slots,
            &good.mapping,
            &col(good.mapped_id(x2)).lt(lit(4i64)),
        ),
    );
    // Over-narrow compensation — forward direction still holds, only the
    // reverse residual check can catch it.
    report.record_cert(
        "fused splice: compensation narrowed with an extra conjunct",
        certify_fused_splice(
            &p2,
            &good.plan,
            &slots,
            &good.mapping,
            &good
                .right
                .clone()
                .and(col(good.mapped_id(z2)).gt(lit(0i64))),
        ),
    );
    // Mapping corruptions over the consumer's output columns.
    for f in p2.schema().fields() {
        let mut m = good.mapping.clone();
        m.remove(&f.id);
        if m.len() < good.mapping.len() {
            report.record_cert(
                format!("fused splice: drop mapping entry for {}#{}", f.name, f.id.0),
                certify_fused_splice(&p2, &good.plan, &slots, &m, &good.right),
            );
        }
    }
    {
        let mut m = good.mapping.clone();
        m.insert(x2, ctx.gen.fresh());
        report.record_cert(
            "fused splice: remap consumer x onto unknown column",
            certify_fused_splice(&p2, &good.plan, &slots, &m, &good.right),
        );
    }
    {
        // Swap two mapping targets: x lands on y's Utf8 column.
        let mut m = good.mapping.clone();
        m.insert(x2, field_id(&s1, "y"));
        report.record_cert(
            "fused splice: remap consumer Int64 x onto Utf8 column",
            certify_fused_splice(&p2, &good.plan, &slots, &m, &good.right),
        );
    }
    // Compensation hygiene.
    report.record_cert(
        "fused splice: compensation references unknown column",
        certify_fused_splice(
            &p2,
            &good.plan,
            &slots,
            &good.mapping,
            &col(ctx.gen.fresh()).gt(lit(0i64)),
        ),
    );
    report.record_cert(
        "fused splice: compensation is not boolean",
        certify_fused_splice(&p2, &good.plan, &slots, &good.mapping, &col(x1).add(lit(1i64))),
    );

    // Two-conjunct consumer: dropping one conjunct from the compensation
    // must lose the forward residual.
    let gen = IdGen::new();
    let s1 = scan(&gen, "t");
    let s2 = scan(&gen, "t");
    let x1 = field_id(&s1, "x");
    let x2 = field_id(&s2, "x");
    let z2 = field_id(&s2, "z");
    let q1 = LogicalPlan::Filter(Filter {
        input: Box::new(s1),
        predicate: col(x1).gt(lit(5i64)),
    });
    let q2 = LogicalPlan::Filter(Filter {
        input: Box::new(s2),
        predicate: col(x2).lt(lit(3i64)).and(col(z2).gt(lit(0i64))),
    });
    let ctx = FuseContext::new(gen);
    let Some(good2) = fuse(&q1, &q2, &ctx) else {
        return sample_failed(report, "two-conjunct fused splice");
    };
    let slots2 = canonical_form(&good2.plan).slots;
    report.record_pristine(
        "fused splice: pristine two-conjunct compensation accepted",
        certify_fused_splice(&q2, &good2.plan, &slots2, &good2.mapping, &good2.right),
    );
    report.record_cert(
        "fused splice: compensation drops the z>0 conjunct",
        certify_fused_splice(
            &q2,
            &good2.plan,
            &slots2,
            &good2.mapping,
            &col(good2.mapped_id(x2)).lt(lit(3i64)),
        ),
    );

    member_permutation_mutants(report);
    stale_compensation_mutants(report);
}

/// `SELECT z, COUNT(*), SUM(x) FROM t WHERE x > bound GROUP BY z`: the
/// members of a fused reuse group that differ in one literal.
fn keyed_member(gen: &IdGen, bound: i64) -> LogicalPlan {
    let s = scan(gen, "t");
    let (x, z) = (field_id(&s, "x"), field_id(&s, "z"));
    LogicalPlan::Aggregate(Aggregate {
        input: Box::new(LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(bound)),
        })),
        group_by: vec![z],
        aggregates: vec![
            AggAssign::new(gen.fresh(), "n", AggregateExpr::count_star()),
            AggAssign::new(gen.fresh(), "s", AggregateExpr::sum(col(x))),
        ],
    })
}

fn sample_failed(report: &mut MutationReport, what: &str) {
    report.outcomes.push(MutationOutcome {
        description: format!("{what} sample failed to fuse"),
        killed: false,
        detail: String::new(),
    });
}

/// Member permutation: a fused plan's cache key does not depend on the
/// order its members were folded in, its column order does. A warm entry
/// written by the fold (A,B) and read by the fold (B,A) holds every
/// column the reader wants at another position, and most of those
/// positions have the same type — nothing but the slot strings tells
/// them apart.
fn member_permutation_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let (a, b, c) = (
        keyed_member(&gen, 230),
        keyed_member(&gen, 353),
        keyed_member(&gen, 400),
    );
    let ctx = FuseContext::new(gen);
    let (Some(ab), Some(ba), Some(ac)) =
        (fuse(&a, &b, &ctx), fuse(&b, &a, &ctx), fuse(&a, &c, &ctx))
    else {
        return sample_failed(report, "member permutation");
    };
    let (form_ab, form_ba) = (canonical_form(&ab.plan), canonical_form(&ba.plan));
    // Reader: member A of the fold (B,A), against whatever is stored.
    let read = |stored: &[String]| certify_fused_splice(&a, &ba.plan, stored, &ba.mapping, &ba.right);

    report.outcomes.push(MutationOutcome {
        description: "member permutation: both fold orders accepted under one cache key".into(),
        killed: form_ab.encoding == form_ba.encoding && read(&form_ba.slots).is_ok(),
        detail: String::new(),
    });
    report.record_layout(
        "member permutation: entry written by the fold (A,B), read by the fold (B,A)",
        read(&form_ab.slots),
        &form_ba.slots,
        &form_ab.slots,
    );
    // The smallest permutation types cannot see: the two COUNT(*)s.
    let counts: Vec<usize> = (0..form_ba.slots.len())
        .filter(|&i| ba.plan.schema().field(i).name == "n")
        .collect();
    let mut swapped = form_ba.slots.clone();
    if let [i, j] = counts[..] {
        swapped.swap(i, j);
    }
    report.record_layout(
        "member permutation: two same-typed stored positions swapped",
        read(&swapped),
        &form_ba.slots,
        &swapped,
    );
    // Not permutations: the entry is some other plan's result.
    let mut doubled = form_ab.slots.clone();
    if let [i, j] = counts[..] {
        doubled[i] = doubled[j].clone();
    }
    report.record_cert(
        "member permutation: one stored column holds another same-typed column's slot twice",
        read(&doubled),
    );
    report.record_cert(
        "member permutation: stored entry dropped a column",
        read(&form_ab.slots[..form_ab.slots.len() - 1]),
    );
    let mut widened = form_ab.slots.clone();
    widened.push(form_ab.slots[0].clone());
    report.record_cert(
        "member permutation: stored entry carries a column the plan does not produce",
        read(&widened),
    );
    report.record_cert(
        "member permutation: stored entry was written by a fold of other members (A,C)",
        read(&canonical_form(&ac.plan).slots),
    );
}

/// Stale compensation: a mapping paired with a compensation (or a plan)
/// that another fold produced; and a mapping crossed between members of
/// one fold.
fn stale_compensation_mutants(report: &mut MutationReport) {
    // Filter-rooted members over one base: the folds (P1,P2) and (P1,P3)
    // both keep P1's column ids, so one's compensation type-checks over
    // the other's plan.
    let gen = IdGen::new();
    let filter = |pred: fn(Expr) -> Expr| {
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: pred(col(x)),
        })
    };
    let p1 = filter(|x| x.gt(lit(5i64)));
    let p2 = filter(|x| x.lt(lit(3i64)));
    let p3 = filter(|x| x.lt(lit(1i64)));
    let ctx = FuseContext::new(gen.clone());
    let (Some(f12), Some(f13), Some(f21)) =
        (fuse(&p1, &p2, &ctx), fuse(&p1, &p3, &ctx), fuse(&p2, &p1, &ctx))
    else {
        return sample_failed(report, "stale compensation");
    };
    let slots12 = canonical_form(&f12.plan).slots;
    report.record_cert(
        "stale compensation: P2's mapping with the compensation of the fold (P1,P3)",
        certify_fused_splice(&p2, &f12.plan, &slots12, &f12.mapping, &f13.right),
    );
    report.record_cert(
        "stale compensation: P2's mapping with its compensation from the fold (P2,P1)",
        certify_fused_splice(&p2, &f12.plan, &slots12, &f12.mapping, &f21.left),
    );

    // Aggregate-rooted members (masks carry the predicates): a mapping
    // from the other fold order, and one member read through another's.
    let (a, b) = (keyed_member(&gen, 230), keyed_member(&gen, 353));
    let (Some(ab), Some(ba)) = (fuse(&a, &b, &ctx), fuse(&b, &a, &ctx)) else {
        return sample_failed(report, "stale aggregate mapping");
    };
    let slots_ab = canonical_form(&ab.plan).slots;
    report.record_pristine(
        "stale compensation: pristine member B of the fold (A,B) accepted",
        certify_fused_splice(&b, &ab.plan, &slots_ab, &ab.mapping, &ab.right),
    );
    report.record_cert(
        "stale compensation: plan of the fold (A,B) with B's mapping from the fold (B,A)",
        certify_fused_splice(&b, &ab.plan, &slots_ab, &ba.mapping, &ab.right),
    );
    // A keeps its ids in the fold (A,B); sending them through B's targets
    // reads B's masked aggregates as A's. B's mask `x > 353` keeps A's
    // `x > 230`, so only the check that every fused-mask conjunct is one
    // of A's own kills it.
    let crossed: HashMap<_, _> = a
        .schema()
        .fields()
        .iter()
        .zip(b.schema().fields())
        .map(|(fa, fb)| (fa.id, ab.mapped_id(fb.id)))
        .collect();
    report.record_cert(
        "crossed mapping: member A read through member B's masked aggregates",
        certify_fused_splice(&a, &ab.plan, &slots_ab, &crossed, &ab.left),
    );
}

/// Subsumption serves: strict conjunct containment over the same base,
/// with every consumer column recoverable.
fn subsumption_mutants(report: &mut MutationReport) {
    let mk_filter = |table: &str, extra: bool| {
        let gen = IdGen::new();
        let s = scan(&gen, table);
        let x = field_id(&s, "x");
        let z = field_id(&s, "z");
        let pred = if extra {
            col(x).gt(lit(5i64)).and(col(z).lt(lit(10i64)))
        } else {
            col(x).gt(lit(5i64))
        };
        LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: pred,
        })
    };

    let cached = mk_filter("t", false);
    let consumer = mk_filter("t", true);
    report.record_pristine(
        "subsumption: pristine strict-subset serve accepted",
        certify_subsumption(&cached, &consumer),
    );
    // Non-subset: the cached side filtered on a conjunct the consumer
    // does not carry.
    let cached_extra = {
        let gen = IdGen::new();
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        let b = field_id(&s, "b");
        LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(5i64)).and(col(b)),
        })
    };
    report.record_cert(
        "subsumption: cached carries conjunct b the consumer lacks",
        certify_subsumption(&cached_extra, &consumer),
    );
    // Equal sets claimed as subsumption: that is an exact match.
    report.record_cert(
        "subsumption: equal conjunct sets claimed as strict subsumption",
        certify_subsumption(&cached, &mk_filter("t", false)),
    );
    // Different base tables.
    report.record_cert(
        "subsumption: cached scans u, consumer scans t",
        certify_subsumption(&mk_filter("u", false), &consumer),
    );
    // Projection narrowing that drops a column the consumer reads.
    let narrowed = {
        let gen = IdGen::new();
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        let f = LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(x).gt(lit(5i64)),
        });
        LogicalPlan::Project(Project {
            input: Box::new(f),
            exprs: vec![ProjExpr::new(IdGen::new().fresh(), "x", col(x))],
        })
    };
    report.record_cert(
        "subsumption: cached projection dropped columns the consumer needs",
        certify_subsumption(&narrowed, &consumer),
    );

    // Computed-expression narrowing — the new coverage: cached is
    // `Project(x, x*z)` over the filter, consumer filters over the same
    // computed projection.
    let computed = |factor_add: bool| {
        let gen = IdGen::new();
        let s = scan(&gen, "t");
        let x = field_id(&s, "x");
        let z = field_id(&s, "z");
        let expr = if factor_add {
            col(x).add(col(z))
        } else {
            col(x).mul(col(z))
        };
        let proj = |input: LogicalPlan, gen: &IdGen| {
            LogicalPlan::Project(Project {
                input: Box::new(input),
                exprs: vec![
                    ProjExpr::new(gen.fresh(), "x", col(x)),
                    ProjExpr::new(gen.fresh(), "w", expr.clone()),
                ],
            })
        };
        let cached = proj(
            LogicalPlan::Filter(Filter {
                input: Box::new(s.clone()),
                predicate: col(x).gt(lit(5i64)),
            }),
            &gen,
        );
        let inner = proj(s, &gen);
        let (xo, wo) = {
            let f = inner.schema().fields().to_vec();
            (f[0].id, f[1].id)
        };
        let consumer = LogicalPlan::Filter(Filter {
            input: Box::new(inner),
            predicate: col(xo).gt(lit(5i64)).and(col(wo).lt(lit(100i64))),
        });
        (cached, consumer)
    };
    let (cached_mul, consumer_mul) = computed(false);
    report.record_pristine(
        "subsumption: pristine computed-projection (x*z) serve accepted",
        certify_subsumption(&cached_mul, &consumer_mul),
    );
    let (cached_add, _) = computed(true);
    report.record_cert(
        "subsumption: cached computes x+z, consumer needs x*z",
        certify_subsumption(&cached_add, &consumer_mul),
    );
}

/// Maintainability: refresh shapes must be re-derivable, and forged
/// claims must be rejected.
fn maintainability_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let s = fscan(&gen, "t");
    let x = field_id(&s, "x");
    let f = field_id(&s, "f");
    let z = field_id(&s, "z");

    // Pristine shapes.
    let filtered = LogicalPlan::Filter(Filter {
        input: Box::new(s.clone()),
        predicate: col(x).gt(lit(5i64)),
    });
    report.record_pristine(
        "maintainability: pristine Filter(Scan) append-rows accepted",
        certify_maintainability(&filtered),
    );
    let computed_proj = LogicalPlan::Project(Project {
        input: Box::new(s.clone()),
        exprs: vec![ProjExpr::new(gen.fresh(), "x1", col(x).add(lit(1i64)))],
    });
    report.record_pristine(
        "maintainability: computed projection over Scan still append-rows",
        certify_maintainability(&computed_proj),
    );
    let agg = |aggs: Vec<AggAssign>| {
        LogicalPlan::Aggregate(Aggregate {
            input: Box::new(s.clone()),
            group_by: vec![z],
            aggregates: aggs,
        })
    };
    let good_agg = agg(vec![
        AggAssign::new(gen.fresh(), "c", AggregateExpr::count_star()),
        AggAssign::new(gen.fresh(), "s", AggregateExpr::sum(col(x))),
        AggAssign::new(gen.fresh(), "m", AggregateExpr::min(col(f))),
    ]);
    report.record_pristine(
        "maintainability: pristine COUNT/SUM(int)/MIN(float) merge accepted",
        certify_maintainability(&good_agg),
    );

    // Non-mergeable aggregate functions.
    report.record_cert(
        "maintainability: float SUM classified mergeable",
        certify_maintainability(&agg(vec![AggAssign::new(
            gen.fresh(),
            "fs",
            AggregateExpr::sum(col(f)),
        )])),
    );
    report.record_cert(
        "maintainability: AVG classified mergeable",
        certify_maintainability(&agg(vec![AggAssign::new(
            gen.fresh(),
            "a",
            AggregateExpr::avg(col(x)),
        )])),
    );
    report.record_cert(
        "maintainability: COUNT(DISTINCT) classified mergeable",
        certify_maintainability(&agg(vec![AggAssign::new(
            gen.fresh(),
            "d",
            AggregateExpr::count(col(x)).with_distinct(true),
        )])),
    );
    // Computed projection over aggregate outputs.
    let (cid, csum) = (gen.fresh(), gen.fresh());
    let agg_for_proj = LogicalPlan::Aggregate(Aggregate {
        input: Box::new(s.clone()),
        group_by: vec![z],
        aggregates: vec![AggAssign::new(csum, "s", AggregateExpr::sum(col(x)))],
    });
    report.record_cert(
        "maintainability: computed projection over aggregate outputs",
        certify_maintainability(&LogicalPlan::Project(Project {
            input: Box::new(agg_for_proj.clone()),
            exprs: vec![
                ProjExpr::new(gen.fresh(), "z", col(z)),
                ProjExpr::new(cid, "s2", col(csum).add(lit(1i64))),
            ],
        })),
    );
    // Projection dropping the grouping key.
    report.record_cert(
        "maintainability: projection drops the grouping key",
        certify_maintainability(&LogicalPlan::Project(Project {
            input: Box::new(agg_for_proj),
            exprs: vec![ProjExpr::new(gen.fresh(), "s", col(csum))],
        })),
    );
    // Sorted and limited chains do not distribute over appends.
    report.record_cert(
        "maintainability: Sort chain classified append-distributive",
        certify_maintainability(&LogicalPlan::Sort(fusion_plan::Sort {
            input: Box::new(filtered.clone()),
            keys: vec![fusion_plan::SortKey {
                expr: col(x),
                asc: true,
                nulls_first: false,
            }],
        })),
    );
    // Two base tables cannot reproduce the cold interleaving.
    let two_tables = {
        let s2 = fscan(&gen, "u");
        let fields = s
            .schema()
            .fields()
            .iter()
            .map(|fl| Field::new(gen.fresh(), fl.name.clone(), fl.data_type, fl.nullable))
            .collect();
        LogicalPlan::UnionAll(UnionAll {
            inputs: vec![s.clone(), s2],
            fields,
        })
    };
    report.record_cert(
        "maintainability: two-table union classified single-table",
        certify_maintainability(&two_tables),
    );

    // Forged claims against a pristine mergeable aggregate.
    report.record_cert(
        "maintainability: aggregate forged as append-rows",
        check_maintain_claim(&good_agg, &MaintainShape::AppendRows),
    );
    let derived = match certify_maintainability(&good_agg) {
        Ok(super::reuse::ReuseCertificate::Maintain(m)) => Some(m),
        _ => None,
    };
    if let Some(MaintainShape::MergeAggregate {
        arity,
        key_positions,
        agg_positions,
    }) = derived
    {
        // Swap the key onto an aggregate position.
        report.record_cert(
            "maintainability: claim swaps key and aggregate positions",
            check_maintain_claim(
                &good_agg,
                &MaintainShape::MergeAggregate {
                    arity,
                    key_positions: vec![agg_positions[0].0],
                    agg_positions: agg_positions
                        .iter()
                        .enumerate()
                        .map(|(i, &(_, fun))| {
                            if i == 0 {
                                (key_positions[0], fun)
                            } else {
                                (agg_positions[i].0, fun)
                            }
                        })
                        .collect(),
                },
            ),
        );
        // Merge MIN as if it were SUM.
        report.record_cert(
            "maintainability: claim merges MIN with the SUM rule",
            check_maintain_claim(
                &good_agg,
                &MaintainShape::MergeAggregate {
                    arity,
                    key_positions,
                    agg_positions: agg_positions
                        .iter()
                        .map(|&(p, fun)| {
                            if fun == fusion_expr::AggFunc::Min {
                                (p, fusion_expr::AggFunc::Sum)
                            } else {
                                (p, fun)
                            }
                        })
                        .collect(),
                },
            ),
        );
    } else {
        report.outcomes.push(MutationOutcome {
            description: "maintainability: merge shape not derivable for forged-claim pair".into(),
            killed: false,
            detail: String::new(),
        });
    }
}

/// Dependency stamps: canonical form and catalog consistency.
fn stamp_mutants(report: &mut MutationReport) {
    let gen = IdGen::new();
    let t = scan(&gen, "t");
    let u = scan(&gen, "u");
    let fields = t
        .schema()
        .fields()
        .iter()
        .map(|f| Field::new(gen.fresh(), f.name.clone(), f.data_type, f.nullable))
        .collect();
    let plan = LogicalPlan::UnionAll(UnionAll {
        inputs: vec![t, u],
        fields,
    });
    let versions: HashMap<String, u64> = [("t".to_string(), 3u64), ("u".to_string(), 5u64), ("v".to_string(), 1u64)]
        .into_iter()
        .collect();
    let dep = |t: &str, v: u64| (t.to_string(), v);

    report.record_pristine(
        "dep stamps: pristine canonical stamps accepted",
        certify_stamps(&plan, &[dep("t", 3), dep("u", 5)], &versions),
    );
    report.record_cert(
        "dep stamps: stamps out of order",
        certify_stamps(&plan, &[dep("u", 5), dep("t", 3)], &versions),
    );
    report.record_cert(
        "dep stamps: duplicated stamp",
        certify_stamps(&plan, &[dep("t", 3), dep("t", 3), dep("u", 5)], &versions),
    );
    report.record_cert(
        "dep stamps: stamp not catalog-cased",
        certify_stamps(&plan, &[dep("T", 3), dep("u", 5)], &versions),
    );
    report.record_cert(
        "dep stamps: missing stamp for scanned table u",
        certify_stamps(&plan, &[dep("t", 3)], &versions),
    );
    report.record_cert(
        "dep stamps: stale version for t",
        certify_stamps(&plan, &[dep("t", 2), dep("u", 5)], &versions),
    );
    report.record_cert(
        "dep stamps: phantom stamp for unscanned table v",
        certify_stamps(&plan, &[dep("t", 3), dep("u", 5), dep("v", 1)], &versions),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analyzer's plan-mutation self-test: seeded corruptions of
    /// known good fusion artifacts (dropped mapping entries, swapped or
    /// widened compensations, widened masks, retyped tags, dropped
    /// dispatch branches) must be rejected at a ≥ 95% kill rate.
    /// Survivors are printed by name so a regression is immediately
    /// actionable.
    #[test]
    fn mutation_self_test_kills_at_least_95_percent() {
        let report = run_self_test();
        for survivor in report.survivors() {
            eprintln!("surviving mutant: {survivor}");
        }
        assert!(
            report.kill_rate() >= 0.95,
            "mutation kill rate {:.1}% ({} of {} killed); survivors: {:?}",
            report.kill_rate() * 100.0,
            report.killed(),
            report.total(),
            report.survivors()
        );
    }

    /// The reuse-soundness prover's own corruption suite: seeded
    /// corruptions of known-good reuse rewrites (wrong or swapped
    /// compensations, broken or crossed mappings, non-subset
    /// subsumptions, non-mergeable aggregates classified mergeable, stale
    /// or non-canonical dep stamps) must all be rejected, and every
    /// pristine artifact must certify. Pristine controls are recorded
    /// inverted ("killed" = accepted), so a false positive is a survivor
    /// too.
    #[test]
    fn reuse_mutation_self_test_kills_every_mutant() {
        let report = run_reuse_self_test();
        assert!(
            report.total() >= 25,
            "reuse corpus shrank to {} outcomes",
            report.total()
        );
        assert!(
            report.survivors().is_empty(),
            "reuse mutation kill rate {:.1}% ({} of {} killed); survivors: {:?}",
            report.kill_rate() * 100.0,
            report.killed(),
            report.total(),
            report.survivors()
        );
    }
}
