//! Semantic plan analysis — the `fusion-analysis` pass.
//!
//! Structural validation (`fusion_plan::validate`) proves a plan is
//! *well-formed*: no dangling column references, boolean predicates,
//! unique ids. It cannot prove a rewrite is *right* — a fusion that emits
//! a type-correct but wrong column mapping, a widened aggregate mask, or
//! a tag dispatch that silently drops a branch all validate cleanly and
//! execute to wrong answers. This module closes that gap with three
//! cooperating pieces:
//!
//! * [`contract`] — checks every raw `Fuse` result
//!   against the paper's §III.A contract (`M` total and type-preserving,
//!   `L`/`R` over `P`'s outputs, reconstruction of both inputs);
//! * [`lattice`] — a bottom-up property derivation (keys, single-row,
//!   functional dependencies, tag domains, outer-join null introduction)
//!   that rules use to statically discharge their preconditions;
//! * [`checks::analyze_plan`] — whole-plan checks (tag dispatch coverage,
//!   domain membership, mask typing) run by the optimizer after every
//!   rule application and on the final plan.
//!
//! Violations carry stable `FUSION_ANALYSIS_*` codes and surface in
//! `OptimizerReport::rejected` and the EXPLAIN optimizer trace; a rewrite
//! that fails analysis is rejected and the optimizer keeps the previous
//! plan, mirroring the structural-validation path.
//!
//! The `mutation` test module is the analyzer's own regression suite:
//! seeded corruptions of known-good fused plans (dropped mapping entries,
//! swapped or widened compensations, widened masks, retyped tags) must
//! all be rejected — mutation-killing as a measure of analyzer strength.

pub mod canon;
pub mod checks;
pub mod contract;
pub mod lattice;
pub mod reuse;

use std::fmt;

use fusion_common::ColumnId;
use fusion_plan::LogicalPlan;

pub use checks::analyze_plan;
pub use lattice::{props, PlanProps};
pub use reuse::{
    aggregate_mergeable, certify_exact_splice, certify_fused_splice, certify_maintainability,
    certify_stamps, certify_subsumption, MaintainShape, ReuseCertificate,
};

/// Stable machine-readable analysis violation codes. Like
/// `fusion_common::ErrorCode` these are part of the crate contract: they
/// are matched on by tests and logged by CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisCode {
    /// `M` does not map some `P2` output onto a fused output.
    MappingNotTotal,
    /// `M` maps a column onto one of incompatible type.
    MappingType,
    /// `P1`'s columns do not survive in the fused plan under their ids.
    ReconstructLeft,
    /// `L`/`R` reference columns outside the fused schema.
    CompensationRefs,
    /// `L`/`R` are not boolean over the fused schema.
    CompensationType,
    /// Applying a compensation does not reconstruct the original filter
    /// (swapped or widened `L`/`R`).
    Direction,
    /// Aggregate mask discipline broken (widened or dropped mask).
    Mask,
    /// Fused aggregate changed function, argument or DISTINCT-ness.
    Aggregate,
    /// Grouping keys lost or not provably keys.
    Keys,
    /// Tag dispatch does not cover every branch exactly once, or compares
    /// a tag outside its domain.
    TagDispatch,
    /// A reuse splice (exact or fused) failed certification: encoding or
    /// slot-alignment mismatch, broken mapping, or a compensation that is
    /// not residual-equal to the consumer's predicate.
    ReuseSplice,
    /// A subsumption serve failed certification: cached conjuncts not
    /// carried by the consumer, non-strict containment, differing base
    /// relations, or unrecoverable projected columns.
    ReuseSubsumption,
    /// A cache entry is not maintainable in place under appends (typed
    /// fallback reason: float SUM/AVG/DISTINCT, multi-table, or a
    /// non-append-distributive operator).
    ReuseMaintain,
    /// A cache entry's dependency stamps are non-canonical, stale, or
    /// inconsistent with the plan's scanned tables.
    ReuseStamp,
}

impl AnalysisCode {
    pub fn as_str(&self) -> &'static str {
        match self {
            AnalysisCode::MappingNotTotal => "FUSION_ANALYSIS_MAPPING_NOT_TOTAL",
            AnalysisCode::MappingType => "FUSION_ANALYSIS_MAPPING_TYPE",
            AnalysisCode::ReconstructLeft => "FUSION_ANALYSIS_RECONSTRUCT_LEFT",
            AnalysisCode::CompensationRefs => "FUSION_ANALYSIS_COMP_REFS",
            AnalysisCode::CompensationType => "FUSION_ANALYSIS_COMP_TYPE",
            AnalysisCode::Direction => "FUSION_ANALYSIS_DIRECTION",
            AnalysisCode::Mask => "FUSION_ANALYSIS_MASK",
            AnalysisCode::Aggregate => "FUSION_ANALYSIS_AGGREGATE",
            AnalysisCode::Keys => "FUSION_ANALYSIS_KEYS",
            AnalysisCode::TagDispatch => "FUSION_ANALYSIS_TAG_DISPATCH",
            AnalysisCode::ReuseSplice => "FUSION_ANALYSIS_REUSE_SPLICE",
            AnalysisCode::ReuseSubsumption => "FUSION_ANALYSIS_REUSE_SUBSUMPTION",
            AnalysisCode::ReuseMaintain => "FUSION_ANALYSIS_REUSE_MAINTAIN",
            AnalysisCode::ReuseStamp => "FUSION_ANALYSIS_REUSE_STAMP",
        }
    }
}

impl fmt::Display for AnalysisCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis violation: a stable code plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub code: AnalysisCode,
    pub message: String,
}

impl Violation {
    pub fn new(code: AnalysisCode, message: impl Into<String>) -> Self {
        Violation {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Render a violation list as a single error string (`;`-joined).
pub fn render_violations(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Whether `FUSION_ANALYZE=strict` is set: analyzer violations on the
/// *final* optimized plan then fail optimization (triggering the engine's
/// graceful fallback) instead of only rejecting individual rewrites.
pub fn strict_from_env() -> bool {
    std::env::var("FUSION_ANALYZE")
        .map(|v| v.eq_ignore_ascii_case("strict"))
        .unwrap_or(false)
}

/// Statically discharge "these columns are really a distinct key of this
/// plan" via the property lattice.
pub fn plan_has_key(plan: &LogicalPlan, cols: &[ColumnId]) -> bool {
    props(plan).has_key(cols)
}

/// Statically discharge "this plan emits at most one row".
pub fn plan_is_single_row(plan: &LogicalPlan) -> bool {
    props(plan).single_row
}

#[cfg(test)]
mod mutation;
