//! The `Fuse(P1, P2)` primitive (Section III).
//!
//! `Fuse` is a recursive procedure over logical plans. It requires the two
//! inputs to have the same root operator (per-operator definitions live in
//! the submodules), with the Section III.G extensions for mismatched
//! roots: a `MarkDistinct` root can be skipped and re-added, a missing
//! `Filter` can be manufactured as `TRUE`, and a missing `Project` can be
//! manufactured as the identity projection. The dispatcher tries the
//! alternatives in that order — the paper's example shows why skipping a
//! `MarkDistinct` must be preferred over injecting a trivial filter.

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod mark_distinct;
pub mod project;
pub mod scan;

use std::sync::{Arc, Mutex, PoisonError};

use fusion_common::{IdGen, Schema};
use fusion_expr::{ColumnMap, Expr};
use fusion_plan::{EnforceSingleRow, LogicalPlan, MarkDistinct, Project, ProjExpr};

/// Shared context for fusion: the session id generator, used to mint
/// compensating columns (counts, masks), plus the trace sink recording
/// every `Fuse` attempt for the optimizer trace.
#[derive(Debug, Clone)]
pub struct FuseContext {
    pub gen: IdGen,
    pub trace: Arc<FuseTrace>,
}

impl FuseContext {
    pub fn new(gen: IdGen) -> Self {
        FuseContext {
            gen,
            trace: Arc::new(FuseTrace::default()),
        }
    }
}

/// One recorded `Fuse(P1, P2)` attempt: which root operator pair was
/// tried and how it ended. Recursive attempts (on the inputs of the pair)
/// are recorded too, so a bailed fusion leaves the innermost reason on
/// the trace.
#[derive(Debug, Clone)]
pub struct FuseEvent {
    /// Root operator of `P1` (e.g. `"Aggregate"`).
    pub left: String,
    /// Root operator of `P2`.
    pub right: String,
    /// Whether this pair fused.
    pub fused: bool,
    /// Outcome detail: compensation triviality on success, the bail
    /// reason on `⊥`.
    pub detail: String,
}

/// Bounded, thread-shared sink for [`FuseEvent`]s. A poisoned lock is
/// recovered: events are append-only strings and stay structurally valid
/// even if a panicking thread held the lock.
#[derive(Debug, Default)]
pub struct FuseTrace {
    events: Mutex<Vec<FuseEvent>>,
}

/// Cap on recorded events so a pathological plan cannot balloon the
/// report; past the cap the trace silently stops growing.
const FUSE_TRACE_CAP: usize = 512;

impl FuseTrace {
    pub(crate) fn record(&self, event: FuseEvent) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if events.len() < FUSE_TRACE_CAP {
            events.push(event);
        }
    }

    /// Drain all recorded events, leaving the trace empty.
    pub fn take(&self) -> Vec<FuseEvent> {
        std::mem::take(
            &mut *self
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// Short root-operator name used in fuse trace events.
pub(crate) fn root_name(p: &LogicalPlan) -> &'static str {
    match p {
        LogicalPlan::Scan(_) => "Scan",
        LogicalPlan::Filter(_) => "Filter",
        LogicalPlan::Project(_) => "Project",
        LogicalPlan::Join(_) => "Join",
        LogicalPlan::Aggregate(_) => "Aggregate",
        LogicalPlan::Window(_) => "Window",
        LogicalPlan::MarkDistinct(_) => "MarkDistinct",
        LogicalPlan::UnionAll(_) => "UnionAll",
        LogicalPlan::ConstantTable(_) => "ConstantTable",
        LogicalPlan::EnforceSingleRow(_) => "EnforceSingleRow",
        LogicalPlan::Sort(_) => "Sort",
        LogicalPlan::Limit(_) => "Limit",
    }
}

/// The result of a successful fusion: the paper's `(P, M, L, R)` 4-tuple.
///
/// * `plan` (`P`) outputs all columns of `P1` plus, optionally, additional
///   columns needed to restore `P2`.
/// * `mapping` (`M`) maps output columns of `P2` to columns of `plan`;
///   columns absent from the map kept their identity.
/// * `left` (`L`) and `right` (`R`) are filters over `plan`'s output that
///   restore `P1` and `P2` respectively:
///   `P1 = Project_outCols(P1)(Filter_L(P))` and
///   `P2 = Project_M(outCols(P2))(Filter_R(P))`.
#[derive(Debug, Clone)]
pub struct Fused {
    pub plan: LogicalPlan,
    pub mapping: ColumnMap,
    pub left: Expr,
    pub right: Expr,
}

impl Fused {
    /// Rewrite an expression over `P2`'s columns into `plan`'s columns.
    pub fn map(&self, e: &Expr) -> Expr {
        e.map_columns(&self.mapping)
    }

    /// Whether both compensating filters are trivially TRUE (the inputs
    /// were equivalent up to the mapping).
    pub fn trivial(&self) -> bool {
        self.left.is_true_literal() && self.right.is_true_literal()
    }

    /// Restrict the mapping to entries for the given schema's columns
    /// (useful for reporting); identity entries are implied elsewhere.
    pub fn mapped_id(&self, id: fusion_common::ColumnId) -> fusion_common::ColumnId {
        *self.mapping.get(&id).unwrap_or(&id)
    }
}

/// Fuse two plans; `None` is the paper's `⊥`.
///
/// Every attempt — including the recursive ones on the pair's inputs —
/// is recorded on the context's [`FuseTrace`] so the optimizer report
/// can say which operator pair bailed and why.
pub fn fuse(p1: &LogicalPlan, p2: &LogicalPlan, ctx: &FuseContext) -> Option<Fused> {
    let result = fuse_inner(p1, p2, ctx);
    let (left, right) = (root_name(p1), root_name(p2));

    // Gate every successful fusion on the §III.A contract: a result with
    // a broken mapping, mis-typed compensation or widened mask is turned
    // back into ⊥ so the calling rule simply does not fire. The rejection
    // reason lands in the fuse trace (and therefore EXPLAIN).
    if let Some(f) = &result {
        let violations = crate::analysis::check_fuse_contract(p1, p2, f);
        if !violations.is_empty() {
            ctx.trace.record(FuseEvent {
                left: left.into(),
                right: right.into(),
                fused: false,
                detail: crate::analysis::render_violations(&violations),
            });
            return None;
        }
    }

    let event = match &result {
        Some(f) => FuseEvent {
            left: left.into(),
            right: right.into(),
            fused: true,
            detail: if f.trivial() {
                "trivial compensations".into()
            } else {
                "compensating filters required".into()
            },
        },
        None => FuseEvent {
            left: left.into(),
            right: right.into(),
            fused: false,
            detail: if left == right {
                format!("same-root {left} fusion rejected by its per-operator definition")
            } else {
                format!("mismatched roots {left}/{right}: no §III.G adapter applied")
            },
        },
    };
    ctx.trace.record(event);
    result
}

fn fuse_inner(p1: &LogicalPlan, p2: &LogicalPlan, ctx: &FuseContext) -> Option<Fused> {
    // Same-root definitions (Section III.A–III.F).
    let same_root = match (p1, p2) {
        (LogicalPlan::Scan(a), LogicalPlan::Scan(b)) => scan::fuse_scans(a, b),
        (LogicalPlan::Filter(a), LogicalPlan::Filter(b)) => filter::fuse_filters(a, b, ctx),
        (LogicalPlan::Project(a), LogicalPlan::Project(b)) => {
            project::fuse_projects(a, b, ctx)
        }
        (LogicalPlan::Join(a), LogicalPlan::Join(b)) => join::fuse_joins(a, b, ctx),
        (LogicalPlan::Aggregate(a), LogicalPlan::Aggregate(b)) => {
            aggregate::fuse_aggregates(a, b, ctx)
        }
        (LogicalPlan::MarkDistinct(a), LogicalPlan::MarkDistinct(b)) => {
            mark_distinct::fuse_mark_distinct(a, b, ctx)
        }
        (LogicalPlan::EnforceSingleRow(a), LogicalPlan::EnforceSingleRow(b)) => {
            fuse_enforce_single_row(a, b, ctx)
        }
        _ => None,
    };
    if same_root.is_some() {
        return same_root;
    }

    // §III.G mismatched-root extensions, best alternative first.
    // 1. Skip a MarkDistinct root and add it back onto the fused result.
    if let LogicalPlan::MarkDistinct(m1) = p1 {
        if !matches!(p2, LogicalPlan::MarkDistinct(_)) {
            if let Some(f) = fuse(&m1.input, p2, ctx) {
                return Some(readd_mark_distinct(m1, f, true, ctx));
            }
        }
    }
    if let LogicalPlan::MarkDistinct(m2) = p2 {
        if !matches!(p1, LogicalPlan::MarkDistinct(_)) {
            if let Some(f) = fuse(p1, &m2.input, ctx) {
                return Some(readd_mark_distinct(m2, f, false, ctx));
            }
        }
    }

    // 2. Manufacture an identity projection on the side lacking one.
    //
    // Ordering matters (the paper's §III.G example): this must be
    // preferred over the trivial-filter adapter. With
    // `P1 = Project(Filter(T))` and `P2 = Filter(T)`, peeling the
    // projection first lets the two real filters meet and fuse
    // trivially; manufacturing a TRUE filter first would compare
    // `TRUE` against `Filter(T)`'s condition at one level and the real
    // condition against `TRUE` at the next, leaving needless
    // compensating filters that block downstream rules.
    if let LogicalPlan::Project(_) = p1 {
        if !matches!(p2, LogicalPlan::Project(_)) {
            let identity = identity_projection(p2);
            if let (LogicalPlan::Project(a), LogicalPlan::Project(b)) = (p1, &identity) {
                if let Some(f) = project::fuse_projects(a, b, ctx) {
                    return Some(f);
                }
            }
        }
    }
    if let LogicalPlan::Project(_) = p2 {
        if !matches!(p1, LogicalPlan::Project(_)) {
            let identity = identity_projection(p1);
            if let (LogicalPlan::Project(a), LogicalPlan::Project(b)) = (&identity, p2) {
                if let Some(f) = project::fuse_projects(a, b, ctx) {
                    return Some(f);
                }
            }
        }
    }

    // 3. Manufacture a trivial TRUE filter on the side lacking one.
    if let LogicalPlan::Filter(_) = p1 {
        if !matches!(p2, LogicalPlan::Filter(_)) {
            let trivial = LogicalPlan::Filter(fusion_plan::Filter {
                input: Box::new(p2.clone()),
                predicate: Expr::boolean(true),
            });
            if let (LogicalPlan::Filter(a), LogicalPlan::Filter(b)) = (p1, &trivial) {
                return filter::fuse_filters(a, b, ctx);
            }
        }
    }
    if let LogicalPlan::Filter(_) = p2 {
        if !matches!(p1, LogicalPlan::Filter(_)) {
            let trivial = LogicalPlan::Filter(fusion_plan::Filter {
                input: Box::new(p1.clone()),
                predicate: Expr::boolean(true),
            });
            if let (LogicalPlan::Filter(a), LogicalPlan::Filter(b)) = (&trivial, p2) {
                return filter::fuse_filters(a, b, ctx);
            }
        }
    }

    None
}

/// `EnforceSingleRow` accepts the generic (default) fusion of §III.G: fuse
/// the children, check equivalence, put the operator back. Because the
/// operator asserts a single output row, fusion is only sound when the
/// children fused with trivial compensations (otherwise the fused child
/// could hold two distinct rows).
fn fuse_enforce_single_row(
    a: &EnforceSingleRow,
    b: &EnforceSingleRow,
    ctx: &FuseContext,
) -> Option<Fused> {
    let f = fuse(&a.input, &b.input, ctx)?;
    if !f.trivial() {
        return None;
    }
    Some(Fused {
        plan: LogicalPlan::EnforceSingleRow(EnforceSingleRow {
            input: Box::new(f.plan),
        }),
        mapping: f.mapping,
        left: f.left,
        right: f.right,
    })
}

/// Re-add a skipped MarkDistinct on top of the fused plan (§III.G step
/// iii). `left_side` says which original input carried the operator.
///
/// When the fused child carries a non-trivial compensation for that side,
/// the mark must only distinguish rows of the original input, so the
/// compensating filter is exposed as a projected boolean column and added
/// to the distinct key — the same device §III.F uses for same-root
/// MarkDistinct fusion.
fn readd_mark_distinct(m: &MarkDistinct, f: Fused, left_side: bool, _ctx: &FuseContext) -> Fused {
    let comp = if left_side {
        f.left.clone()
    } else {
        f.right.clone()
    };
    let (columns, mask): (Vec<_>, Expr) = if left_side {
        (m.columns.clone(), simp(m.mask.clone().and(comp)))
    } else {
        (
            m.columns.iter().map(|c| f.mapped_id(*c)).collect(),
            simp(f.map(&m.mask).and(comp)),
        )
    };
    Fused {
        plan: LogicalPlan::MarkDistinct(MarkDistinct {
            input: Box::new(f.plan.clone()),
            columns,
            mark_id: m.mark_id,
            mark_name: m.mark_name.clone(),
            mask,
        }),
        mapping: f.mapping,
        left: f.left,
        right: f.right,
    }
}

/// Identity projection over a plan's output (every field passed through
/// under its own identity).
pub fn identity_projection(plan: &LogicalPlan) -> LogicalPlan {
    let schema = plan.schema();
    LogicalPlan::Project(Project {
        input: Box::new(plan.clone()),
        exprs: schema.fields().iter().map(ProjExpr::passthrough).collect(),
    })
}

/// Utility shared by submodules: simplify a predicate and return it.
/// Every caller feeds this a filter-position expression (compensating
/// filters, masks, join/dispatch conditions), so the NULL≡FALSE folding
/// of `simplify_filter` is sound here.
pub(crate) fn simp(e: Expr) -> Expr {
    fusion_expr::simplify_filter(&e)
}

/// Utility: the set of columns two compensating filters reference.
pub(crate) fn comp_columns(l: &Expr, r: &Expr) -> std::collections::HashSet<fusion_common::ColumnId> {
    let mut cols = l.columns();
    cols.extend(r.columns());
    cols
}

/// Utility: schema lookup that tolerates missing fields (used when
/// carrying compensation columns through projections).
pub(crate) fn field_of(schema: &Schema, id: fusion_common::ColumnId) -> Option<fusion_common::Field> {
    schema.field_by_id(id).cloned()
}

#[cfg(test)]
mod dispatcher_tests {
    use super::*;
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit, AggregateExpr};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("a", DataType::Int64, true),
            ColumnDef::new("b", DataType::Int64, true),
        ]
    }

    /// EnforceSingleRow accepts the generic fusion when children fuse
    /// exactly (scalar aggregates with different filters: the filters
    /// land in masks, so the compensations stay trivial).
    #[test]
    fn enforce_single_row_fuses_scalar_aggregates() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |bound: i64| {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
            t.filter(col(a).gt(lit(bound)))
                .aggregate(vec![], vec![("s", AggregateExpr::sum(col(b)))])
                .enforce_single_row()
                .build()
        };
        let p1 = mk(0);
        let p2 = mk(100);
        let f = fuse(&p1, &p2, &ctx).expect("single-row plans fuse");
        f.plan.validate().unwrap();
        assert!(f.trivial());
        assert!(matches!(f.plan, LogicalPlan::EnforceSingleRow(_)));
    }

    /// EnforceSingleRow refuses fusion when the fused child could hold
    /// two rows (keyed aggregates with different groups per side).
    #[test]
    fn enforce_single_row_rejects_inexact_fusion() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |bound: i64| {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
            t.filter(col(b).gt(lit(bound)))
                .aggregate(vec![a], vec![("s", AggregateExpr::sum(col(b)))])
                .enforce_single_row()
                .build()
        };
        let p1 = mk(0);
        let p2 = mk(100);
        assert!(fuse(&p1, &p2, &ctx).is_none());
    }

    /// Distinct aggregates refuse mask tightening: fusing two
    /// differently-filtered GroupBys with a native-distinct aggregate
    /// must fail rather than silently corrupt the dedup scope.
    #[test]
    fn distinct_aggregate_with_nontrivial_compensation_rejected() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = |bound: i64| {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
            t.filter(col(b).gt(lit(bound)))
                .aggregate(
                    vec![a],
                    vec![(
                        "d",
                        AggregateExpr::count(col(b)).with_distinct(true),
                    )],
                )
                .build()
        };
        let p1 = mk(0);
        let p2 = mk(100);
        assert!(fuse(&p1, &p2, &ctx).is_none());
        // ... while identical inputs (trivial compensations) fuse fine.
        let p3 = mk(0);
        let p4 = {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
            t.filter(col(b).gt(lit(0i64)))
                .aggregate(
                    vec![a],
                    vec![("d", AggregateExpr::count(col(b)).with_distinct(true))],
                )
                .build()
        };
        assert!(fuse(&p3, &p4, &ctx).is_some());
    }

    /// Sort/Limit roots have no fusion definition: Fuse must return ⊥,
    /// never panic.
    #[test]
    fn unsupported_roots_return_bottom() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = || {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let a = t.col("a").unwrap();
            t.sort(vec![fusion_plan::SortKey::asc(col(a))]).limit(5).build()
        };
        assert!(fuse(&mk(), &mk(), &ctx).is_none());
    }

    /// Fusion is reflexive-ish: any supported plan fuses with a clone of
    /// itself (fresh ids) with trivial compensations.
    #[test]
    fn identical_pipelines_always_fuse_trivially() {
        let gen = IdGen::new();
        let ctx = FuseContext::new(gen.clone());
        let mk = || {
            let t = PlanBuilder::scan(&gen, "t", &cols());
            let (a, b) = (t.col("a").unwrap(), t.col("b").unwrap());
            t.filter(col(a).gt(lit(3i64)))
                .project(vec![("x", col(a)), ("y", col(b).add(lit(1i64)))])
                .aggregate(vec![], vec![("n", AggregateExpr::count_star())])
                .build()
        };
        let f = fuse(&mk(), &mk(), &ctx).expect("identical plans fuse");
        assert!(f.trivial());
    }
}
