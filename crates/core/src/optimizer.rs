//! The pass-based optimizer driver.
//!
//! Mirrors the experimental setup of Section V: the same engine runs with
//! `enable_fusion` off (the baseline) or on (the instrumented compiler
//! with the Section IV rules). Everything else — normalization, predicate
//! pushdown, partition/column pruning — applies to both configurations,
//! so measured differences isolate the contribution of query fusion.

use fusion_common::IdGen;
use fusion_plan::LogicalPlan;

use crate::fuse::{FuseContext, FuseEvent};
use crate::rules::join_on_keys::JoinOnKeys;
use crate::rules::normalize::{
    MergeFilters, MergeProjections, RemoveTrivialProjections, SimplifyExpressions,
};
use crate::rules::pruning::prune_columns;
use crate::rules::pushdown::PushdownPredicates;
use crate::rules::semijoin::{DistinctPushdown, SemiToInnerDistinct};
use crate::rules::union_fusion::UnionAllFusion;
use crate::rules::union_on_join::UnionAllOnJoin;
use crate::rules::window::GroupByJoinToWindow;
use crate::rules::{apply_everywhere_traced, Rule};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Enable the fusion-based rules of Section IV. Off = the baseline of
    /// the paper's experiments.
    pub enable_fusion: bool,
    /// Rule names (see each rule's `Rule::name`) to skip — for per-rule
    /// ablation studies. Applies to both the fusion and cleanup phases.
    pub disabled_rules: Vec<String>,
    /// Validate the plan after every rule application (cheap at our plan
    /// sizes; invaluable when developing rules). Also runs the semantic
    /// analyzer (`crate::analysis`) on each rule's output, rejecting
    /// rewrites with `FUSION_ANALYSIS_*` violations.
    pub validate: bool,
    /// Treat analyzer violations on the *final* optimized plan as an
    /// optimization failure (engine falls back to the unoptimized plan)
    /// instead of merely recording them. Defaults to the
    /// `FUSION_ANALYZE=strict` environment switch.
    pub strict_analysis: bool,
    /// Cap on rule-phase iterations.
    pub max_iterations: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_fusion: true,
            disabled_rules: Vec::new(),
            validate: true,
            strict_analysis: crate::analysis::strict_from_env(),
            max_iterations: 12,
        }
    }
}

impl OptimizerConfig {
    pub fn baseline() -> Self {
        OptimizerConfig {
            enable_fusion: false,
            ..Default::default()
        }
    }

    /// Fusion on, with one named rule ablated.
    pub fn without_rule(rule: &str) -> Self {
        OptimizerConfig {
            disabled_rules: vec![rule.to_string()],
            ..Default::default()
        }
    }
}

/// What the optimizer did to a plan.
#[derive(Debug, Clone, Default)]
pub struct OptimizerReport {
    /// Rule names that fired, in order.
    pub fired: Vec<String>,
    /// Whether any fusion-based rule changed the plan (the paper's
    /// "queries that changed plans" population).
    pub fusion_applied: bool,
    /// Rule outputs that failed plan validation and were discarded. The
    /// optimizer keeps going with the pre-rule plan, so a buggy rule
    /// degrades to a no-op instead of taking the query down.
    pub rejected: Vec<RejectedRule>,
    /// Validation error on the *final* optimized plan, if any. Callers
    /// (the engine session) treat this as an execution failure and fall
    /// back to the baseline plan.
    pub validation_error: Option<String>,
    /// Why the engine degraded to the unfused baseline plan. Filled in by
    /// the session when a fused plan fails execution or validation; `None`
    /// when the optimized plan ran as planned.
    pub fallback: Option<String>,
    /// Full optimizer trace: one [`RuleAttempt`] per rule per phase
    /// iteration (no-matches only on the first iteration of each phase),
    /// plus every `Fuse(P1, P2)` attempt the fusion rules made.
    pub trace: OptimizerTrace,
    /// Workload-reuse notes for this query: shared subplans it consumed
    /// (cross-query fusion or cache hits) and group-level rejections.
    /// Filled in by the engine session; rendered as the
    /// `-- workload reuse --` section of EXPLAIN output.
    pub reuse: Vec<String>,
}

/// A rule application whose output failed validation and was discarded.
#[derive(Debug, Clone)]
pub struct RejectedRule {
    /// `Rule::name` of the offending rule.
    pub rule: String,
    /// The validation error its output produced.
    pub error: String,
}

/// The recorded history of one `optimize` call.
#[derive(Debug, Clone, Default)]
pub struct OptimizerTrace {
    /// Rule attempts in driver order.
    pub attempts: Vec<RuleAttempt>,
    /// `Fuse` primitive attempts (fired and bailed) recorded by the
    /// fusion rules, in call order.
    pub fuse_events: Vec<FuseEvent>,
}

impl OptimizerTrace {
    /// Render the trace as indented text for `EXPLAIN` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for a in &self.attempts {
            match &a.outcome {
                RuleOutcome::Fired => {
                    out.push_str(&format!("[{}] {} fired at:\n", a.phase, a.rule));
                    for n in &a.nodes {
                        out.push_str(&format!("    {n}\n"));
                    }
                }
                RuleOutcome::NoMatch => {
                    out.push_str(&format!("[{}] {} no match\n", a.phase, a.rule));
                }
                RuleOutcome::Rejected { error } => {
                    out.push_str(&format!(
                        "[{}] {} rejected: {error}\n",
                        a.phase, a.rule
                    ));
                }
            }
        }
        for e in &self.fuse_events {
            out.push_str(&format!(
                "[fuse] Fuse({}, {}) -> {}: {}\n",
                e.left,
                e.right,
                if e.fused { "fused" } else { "⊥" },
                e.detail
            ));
        }
        out
    }
}

/// One recorded rule attempt: what the driver tried and how it ended.
#[derive(Debug, Clone)]
pub struct RuleAttempt {
    /// Driver phase (`"normalize"`, `"fusion"`, `"cleanup"`).
    pub phase: &'static str,
    /// `Rule::name` of the attempted rule.
    pub rule: String,
    /// Labels of the plan nodes the rule fired at (empty unless `Fired`).
    pub nodes: Vec<String>,
    pub outcome: RuleOutcome,
}

/// How a recorded rule attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleOutcome {
    /// The rule rewrote the plan (and the rewrite validated).
    Fired,
    /// The rule matched nothing. Recorded only on the first iteration of
    /// each phase to bound the trace.
    NoMatch,
    /// The rule's output failed validation and was discarded.
    Rejected { error: String },
}

/// The rule-pipeline optimizer.
pub struct Optimizer {
    config: OptimizerConfig,
    ctx: FuseContext,
}

impl Optimizer {
    pub fn new(gen: IdGen, config: OptimizerConfig) -> Self {
        Optimizer {
            config,
            ctx: FuseContext::new(gen),
        }
    }

    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Optimize a plan, returning the new plan and a report.
    pub fn optimize(&self, plan: &LogicalPlan) -> (LogicalPlan, OptimizerReport) {
        let mut report = OptimizerReport::default();
        let mut current = plan.clone();
        // Drop any fuse events a previous optimize() on this context left
        // behind so the trace describes this call only.
        self.ctx.trace.take();

        // Phase 1: normalization.
        current = self.run_phase(
            current,
            &[
                &SimplifyExpressions,
                &MergeFilters,
                &RemoveTrivialProjections,
            ],
            &mut report,
            false,
            "normalize",
        );

        // Phase 2: fusion rules (§IV), before join reordering — which this
        // engine does not perform — and before pushdown/pruning, so scans
        // are still whole and fusable.
        if self.config.enable_fusion {
            current = self.run_phase(
                current,
                &[
                    &UnionAllFusion,
                    &UnionAllOnJoin,
                    &GroupByJoinToWindow,
                    &JoinOnKeys,
                    &SemiToInnerDistinct,
                    &DistinctPushdown,
                ],
                &mut report,
                true,
                "fusion",
            );
        }

        // Phase 3: cleanup — applies identically to baseline and fused
        // plans. FormJoins turns filter-over-cross-join shapes into
        // executable inner joins before predicates sink into scans.
        current = self.run_phase(
            current,
            &[
                &SimplifyExpressions,
                &MergeProjections,
                &RemoveTrivialProjections,
                &MergeFilters,
                &crate::rules::graph::FormJoins,
                &PushdownPredicates,
            ],
            &mut report,
            false,
            "cleanup",
        );
        current = prune_columns(&current);
        if self.config.validate {
            if let Err(e) = current.validate() {
                report.validation_error = Some(format!("{e} ({})", e.code()));
            } else {
                // Semantic sweep over the final plan. Per-rule rejection
                // above already keeps bad rewrites out, so violations here
                // mean a non-gated transformation (or the analyzer itself)
                // is wrong; strict mode turns them into a hard failure so
                // the engine falls back to the unoptimized plan.
                let violations = crate::analysis::analyze_plan(&current);
                if !violations.is_empty() {
                    let rendered = crate::analysis::render_violations(&violations);
                    report.rejected.push(RejectedRule {
                        rule: "final-analysis".to_string(),
                        error: rendered.clone(),
                    });
                    if self.config.strict_analysis {
                        report.validation_error = Some(rendered);
                    }
                }
            }
        }
        report.trace.fuse_events = self.ctx.trace.take();
        (current, report)
    }

    fn run_phase(
        &self,
        mut plan: LogicalPlan,
        rules: &[&dyn Rule],
        report: &mut OptimizerReport,
        fusion_phase: bool,
        phase: &'static str,
    ) -> LogicalPlan {
        for iteration in 0..self.config.max_iterations {
            let mut changed = false;
            for rule in rules {
                if self
                    .config
                    .disabled_rules
                    .iter()
                    .any(|d| d == rule.name())
                {
                    continue;
                }
                let (next, fired_at) = apply_everywhere_traced(*rule, &plan, &self.ctx);
                if let Some(next) = next {
                    if self.config.validate {
                        // Structural validation first, then the semantic
                        // analyzer: a rewrite must be both well-formed and
                        // consistent with the fusion invariants it claims.
                        let error = match next.validate() {
                            Err(e) => Some(e.to_string()),
                            Ok(()) => {
                                let violations = crate::analysis::analyze_plan(&next);
                                (!violations.is_empty())
                                    .then(|| crate::analysis::render_violations(&violations))
                            }
                        };
                        if let Some(error) = error {
                            // Discard the rule's output: the pre-rule plan
                            // is still valid, so the query survives a
                            // buggy rewrite at the cost of a missed
                            // optimization.
                            report.rejected.push(RejectedRule {
                                rule: rule.name().to_string(),
                                error: error.clone(),
                            });
                            report.trace.attempts.push(RuleAttempt {
                                phase,
                                rule: rule.name().to_string(),
                                nodes: fired_at,
                                outcome: RuleOutcome::Rejected { error },
                            });
                            continue;
                        }
                    }
                    report.fired.push(rule.name().to_string());
                    report.trace.attempts.push(RuleAttempt {
                        phase,
                        rule: rule.name().to_string(),
                        nodes: fired_at,
                        outcome: RuleOutcome::Fired,
                    });
                    if fusion_phase {
                        report.fusion_applied = true;
                    }
                    plan = next;
                    changed = true;
                } else if iteration == 0 {
                    // Record no-matches only once per phase: later
                    // iterations repeat the same rules and would bloat
                    // the trace without adding information.
                    report.trace.attempts.push(RuleAttempt {
                        phase,
                        rule: rule.name().to_string(),
                        nodes: Vec::new(),
                        outcome: RuleOutcome::NoMatch,
                    });
                }
            }
            if !changed {
                break;
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::{DataType, IdGen, Value};
    use fusion_exec::table::TableColumn;
    use fusion_exec::{execute_plan, Catalog, ExecMetrics, TableBuilder};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::{JoinType, PlanBuilder};

    fn sales_cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("store", DataType::Int64, true),
            ColumnDef::new("item", DataType::Int64, true),
            ColumnDef::new("price", DataType::Float64, true),
        ]
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "sales",
            vec![
                TableColumn {
                    name: "store".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "item".into(),
                    data_type: DataType::Int64,
                    nullable: true,
                },
                TableColumn {
                    name: "price".into(),
                    data_type: DataType::Float64,
                    nullable: true,
                },
            ],
        );
        for i in 0..50i64 {
            b.add_row(vec![
                Value::Int64(i % 5),
                Value::Int64(i % 11),
                Value::Float64((i % 7) as f64 + 0.5),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(b.build());
        c
    }

    fn q65_like(gen: &IdGen) -> fusion_plan::LogicalPlan {
        let sc = PlanBuilder::scan(gen, "sales", &sales_cols());
        let (s1, i1, p1) = (
            sc.col("store").unwrap(),
            sc.col("item").unwrap(),
            sc.col("price").unwrap(),
        );
        let sc = sc.aggregate(
            vec![s1, i1],
            vec![("revenue", AggregateExpr::sum(col(p1)))],
        );
        let revenue = sc.col("revenue").unwrap();

        let sa = PlanBuilder::scan(gen, "sales", &sales_cols());
        let (s2, i2, p2) = (
            sa.col("store").unwrap(),
            sa.col("item").unwrap(),
            sa.col("price").unwrap(),
        );
        let sa = sa.aggregate(
            vec![s2, i2],
            vec![("revenue", AggregateExpr::sum(col(p2)))],
        );
        let rev2 = sa.col("revenue").unwrap();
        let sb = sa.aggregate(vec![s2], vec![("ave", AggregateExpr::avg(col(rev2)))]);
        let ave = sb.col("ave").unwrap();

        let joined = sc
            .join(sb.build(), JoinType::Inner, col(s1).eq_to(col(s2)))
            .filter(col(revenue).lt_eq(col(ave).mul(lit(0.9))));
        let out_rev = revenue;
        joined
            .project(vec![("store", col(s1)), ("revenue", col(out_rev))])
            .build()
    }

    #[test]
    fn fusion_config_changes_plan_baseline_does_not() {
        let gen = IdGen::new();
        let plan = q65_like(&gen);

        let baseline = Optimizer::new(gen.clone(), OptimizerConfig::baseline());
        let (base_plan, base_report) = baseline.optimize(&plan);
        assert!(!base_report.fusion_applied);
        assert_eq!(base_plan.scanned_tables().len(), 2);

        let fused = Optimizer::new(gen.clone(), OptimizerConfig::default());
        let (fused_plan, report) = fused.optimize(&plan);
        assert!(report.fusion_applied);
        assert_eq!(fused_plan.scanned_tables().len(), 1);

        let catalog = catalog();
        let mb = ExecMetrics::new();
        let base = execute_plan(&base_plan, &catalog, &mb).unwrap();
        let mo = ExecMetrics::new();
        let opt = execute_plan(&fused_plan, &catalog, &mo).unwrap();
        assert_eq!(base.sorted_rows(), opt.sorted_rows());
        assert!(!base.rows.is_empty());
        // The fused plan reads roughly half the bytes.
        assert!(mo.bytes_scanned() < mb.bytes_scanned());
    }

    /// A deliberately buggy rule: wraps the first scan it sees in a
    /// projection that references a column id no plan ever defines.
    /// (Fires once — `transform_down` descends into replacement nodes, so
    /// an unconditional match would wrap its own output forever.)
    struct BrokenRule(std::cell::Cell<bool>);

    impl Rule for BrokenRule {
        fn name(&self) -> &'static str {
            "BrokenRule"
        }

        fn apply(
            &self,
            plan: &fusion_plan::LogicalPlan,
            _ctx: &crate::fuse::FuseContext,
        ) -> Option<fusion_plan::LogicalPlan> {
            use fusion_common::ColumnId;
            use fusion_plan::{LogicalPlan, ProjExpr, Project};
            if self.0.get() || !matches!(plan, LogicalPlan::Scan(_)) {
                return None;
            }
            self.0.set(true);
            Some(LogicalPlan::Project(Project {
                input: Box::new(plan.clone()),
                exprs: vec![ProjExpr::new(
                    ColumnId(999_999),
                    "bad".to_string(),
                    col(ColumnId(888_888)),
                )],
            }))
        }
    }

    #[test]
    fn invalid_rule_output_is_rejected_not_applied() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let plan = t.build();
        let optimizer = Optimizer::new(gen.clone(), OptimizerConfig::default());
        let mut report = OptimizerReport::default();
        let broken = BrokenRule(std::cell::Cell::new(false));
        let out = optimizer.run_phase(plan.clone(), &[&broken], &mut report, true, "fusion");
        // The broken output is discarded: the plan is unchanged, nothing
        // "fired", and the rejection is on the record.
        assert_eq!(out.display(), plan.display());
        assert!(report.fired.is_empty());
        assert!(!report.fusion_applied);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].rule, "BrokenRule");
    }

    #[test]
    fn non_applicable_plan_unchanged_by_fusion_phase() {
        let gen = IdGen::new();
        let t = PlanBuilder::scan(&gen, "sales", &sales_cols());
        let (s, p) = (t.col("store").unwrap(), t.col("price").unwrap());
        let plan = t
            .filter(col(p).gt(lit(1.0)))
            .aggregate(vec![s], vec![("total", AggregateExpr::sum(col(p)))])
            .build();
        let optimizer = Optimizer::new(gen.clone(), OptimizerConfig::default());
        let (_, report) = optimizer.optimize(&plan);
        assert!(!report.fusion_applied);
    }
}
