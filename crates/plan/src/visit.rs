//! Plan tree traversal and rewriting helpers.

use crate::plan::LogicalPlan;

impl LogicalPlan {
    /// Bottom-up rewrite: children first, then `f` on the rebuilt node.
    /// `f` returns `Some(replacement)` to rewrite or `None` to keep.
    pub fn transform_up(&self, f: &mut dyn FnMut(&LogicalPlan) -> Option<LogicalPlan>) -> LogicalPlan {
        let new_children: Vec<LogicalPlan> = self
            .children()
            .into_iter()
            .map(|c| c.transform_up(f))
            .collect();
        let rebuilt = if new_children.is_empty() {
            self.clone()
        } else {
            self.with_new_children(new_children)
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// Top-down rewrite: `f` on the node first (repeatedly, until it
    /// declines), then recurse into the (possibly new) children. Returns
    /// `None` when `f` declined everywhere. Nodes are visited by reference:
    /// only the path from the root down to each rewritten node is rebuilt,
    /// so a walk that changes nothing clones nothing.
    pub fn transform_down(
        &self,
        f: &mut dyn FnMut(&LogicalPlan) -> Option<LogicalPlan>,
    ) -> Option<LogicalPlan> {
        let mut replaced: Option<LogicalPlan> = None;
        // Defensive cap against non-converging rewrites.
        for _ in 0..100 {
            match f(replaced.as_ref().unwrap_or(self)) {
                Some(next) => replaced = Some(next),
                None => break,
            }
        }
        let node = replaced.as_ref().unwrap_or(self);
        let new_children: Vec<Option<LogicalPlan>> = node
            .children()
            .into_iter()
            .map(|c| c.transform_down(f))
            .collect();
        if new_children.iter().all(Option::is_none) {
            return replaced;
        }
        Some(match replaced {
            Some(mut node) => {
                for (slot, new) in node.children_mut().into_iter().zip(new_children) {
                    if let Some(new) = new {
                        *slot = new;
                    }
                }
                node
            }
            None => self.with_new_children(
                self.children()
                    .into_iter()
                    .zip(new_children)
                    .map(|(old, new)| new.unwrap_or_else(|| old.clone()))
                    .collect(),
            ),
        })
    }

    /// Pre-order visit.
    pub fn visit(&self, f: &mut dyn FnMut(&LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Does any node in the tree satisfy the predicate?
    pub fn any(&self, f: &dyn Fn(&LogicalPlan) -> bool) -> bool {
        if f(self) {
            return true;
        }
        self.children().iter().any(|c| c.any(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Filter, Limit, Scan};
    use fusion_common::{DataType, Field, IdGen};
    use fusion_expr::{col, lit};

    fn sample(gen: &IdGen) -> LogicalPlan {
        let id = gen.fresh();
        let scan = LogicalPlan::Scan(Scan {
            table: "t".into(),
            fields: vec![Field::new(id, "a", DataType::Int64, false)],
            column_indices: vec![0],
            filters: vec![],
        });
        let filter = LogicalPlan::Filter(Filter {
            input: Box::new(scan),
            predicate: col(id).gt(lit(0i64)),
        });
        LogicalPlan::Limit(Limit {
            input: Box::new(filter),
            fetch: 10,
        })
    }

    #[test]
    fn transform_up_rewrites_bottom_first() {
        let gen = IdGen::new();
        let plan = sample(&gen);
        let mut order = Vec::new();
        plan.transform_up(&mut |p| {
            order.push(p.op_name());
            None
        });
        assert_eq!(order, vec!["Scan", "Filter", "Limit"]);
    }

    #[test]
    fn transform_up_replaces_nodes() {
        let gen = IdGen::new();
        let plan = sample(&gen);
        // Drop every Limit.
        let rewritten = plan.transform_up(&mut |p| match p {
            LogicalPlan::Limit(l) => Some(l.input.as_ref().clone()),
            _ => None,
        });
        assert_eq!(rewritten.op_name(), "Filter");
        assert_eq!(rewritten.node_count(), 2);
    }

    #[test]
    fn visit_and_any() {
        let gen = IdGen::new();
        let plan = sample(&gen);
        let mut n = 0;
        plan.visit(&mut |_| n += 1);
        assert_eq!(n, 3);
        assert!(plan.any(&|p| matches!(p, LogicalPlan::Scan(_))));
        assert!(!plan.any(&|p| matches!(p, LogicalPlan::Window(_))));
    }

    #[test]
    fn transform_down_sees_parent_first() {
        let gen = IdGen::new();
        let plan = sample(&gen);
        let mut order = Vec::new();
        let rewritten = plan.transform_down(&mut |p| {
            order.push(p.op_name());
            None
        });
        assert_eq!(order, vec!["Limit", "Filter", "Scan"]);
        assert!(rewritten.is_none(), "a walk that rewrites nothing returns None");
    }

    #[test]
    fn transform_down_rebuilds_only_the_rewritten_path() {
        let gen = IdGen::new();
        let plan = sample(&gen);
        // Raise the limit, then drop the filter below it: the replacement
        // node's own children are walked too.
        let rewritten = plan
            .transform_down(&mut |p| match p {
                LogicalPlan::Limit(l) if l.fetch == 10 => Some(LogicalPlan::Limit(Limit {
                    input: l.input.clone(),
                    fetch: 20,
                })),
                LogicalPlan::Filter(f) => Some(f.input.as_ref().clone()),
                _ => None,
            })
            .expect("two rewrites");
        assert_eq!(rewritten.node_count(), 2);
        match &rewritten {
            LogicalPlan::Limit(l) => {
                assert_eq!(l.fetch, 20);
                assert_eq!(l.input.op_name(), "Scan");
            }
            other => panic!("expected Limit, got {}", other.op_name()),
        }
    }
}
