//! Optimization rules (Section IV) and supporting rewrites.
//!
//! Each rule matches a plan node shape and produces a replacement built
//! from standard operators. Fusion-based rules handle n-ary operators via
//! the [`graph::JoinGraph`] flattening described in §IV.E: a join tree is
//! conceptually flattened into an n-ary join, pairs of inputs are tried
//! quadratically, and the tree is rebuilt.

pub mod graph;
pub mod join_on_keys;
pub mod normalize;
pub mod pruning;
pub mod pushdown;
pub mod semijoin;
pub mod union_fusion;
pub mod union_on_join;
pub mod window;

use fusion_plan::LogicalPlan;

use crate::fuse::FuseContext;

/// A rewrite rule. `apply` inspects one node (the rule may look arbitrarily
/// deep below it) and returns a replacement, or `None` if it does not
/// match. The optimizer walks the tree and re-applies to fixpoint. A rule
/// that declines should decide so by reading the plan, without building
/// anything.
pub trait Rule {
    fn name(&self) -> &'static str;
    fn apply(&self, plan: &LogicalPlan, ctx: &FuseContext) -> Option<LogicalPlan>;

    /// Whether `apply` already rewrites the node it matched to the rule's
    /// own fixpoint, so that applying it again to the replacement could
    /// only decline. [`apply_everywhere`] then skips that second
    /// application (it still walks the replacement's children).
    fn runs_to_fixpoint(&self) -> bool {
        false
    }
}

/// Apply a rule across the whole tree, top-down, returning `Some` if
/// anything changed.
pub fn apply_everywhere(
    rule: &dyn Rule,
    plan: &LogicalPlan,
    ctx: &FuseContext,
) -> Option<LogicalPlan> {
    apply_everywhere_traced(rule, plan, ctx).0
}

/// Like [`apply_everywhere`], additionally returning the labels of the
/// plan nodes the rule fired at (in top-down walk order) for the
/// optimizer trace.
pub fn apply_everywhere_traced(
    rule: &dyn Rule,
    plan: &LogicalPlan,
    ctx: &FuseContext,
) -> (Option<LogicalPlan>, Vec<String>) {
    let mut fired_at = Vec::new();
    // `transform_down` re-offers a replacement to the rule at the same node
    // right after it fired; a rule that runs to its fixpoint declines it.
    let mut just_fired = false;
    let rewritten = plan.transform_down(&mut |node| {
        if std::mem::take(&mut just_fired) && rule.runs_to_fixpoint() {
            return None;
        }
        let new = rule.apply(node, ctx)?;
        fired_at.push(node.node_label());
        just_fired = true;
        Some(new)
    });
    (rewritten, fired_at)
}
