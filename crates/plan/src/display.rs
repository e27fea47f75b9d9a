//! Explain output: indented, one operator per line.
//!
//! Two entry points share the per-node formatting:
//!
//! * [`LogicalPlan::display`] — the plain `EXPLAIN` tree.
//! * [`LogicalPlan::display_annotated`] — the same tree with a caller
//!   supplied suffix per line, keyed by the node's **pre-order index**.
//!   The executor assigns operator ids in the same pre-order, so
//!   `EXPLAIN ANALYZE` can append per-operator spans to the exact lines
//!   `display()` would print.

use std::fmt;

use crate::plan::LogicalPlan;

/// Wrapper whose `Display` renders the indented plan tree.
pub struct DisplayPlan<'a>(pub &'a LogicalPlan);

impl LogicalPlan {
    /// Render the plan as an indented tree (EXPLAIN-style).
    pub fn display(&self) -> String {
        format!("{}", DisplayPlan(self))
    }

    /// One-line description of this node alone — the exact line
    /// [`LogicalPlan::display`] prints for it, without indentation,
    /// children, or trailing newline.
    pub fn node_label(&self) -> String {
        let mut s = String::new();
        write_label(self, &mut s).expect("formatting a plan label into a String cannot fail");
        s
    }

    /// Render the plan tree with a per-line annotation. Nodes are visited
    /// in pre-order (the order `display()` prints them) and `annotate`
    /// receives that pre-order index together with the node; a returned
    /// string is appended to the node's line.
    pub fn display_annotated(
        &self,
        mut annotate: impl FnMut(usize, &LogicalPlan) -> Option<String>,
    ) -> String {
        fn walk(
            plan: &LogicalPlan,
            indent: usize,
            next: &mut usize,
            annotate: &mut impl FnMut(usize, &LogicalPlan) -> Option<String>,
            out: &mut String,
        ) {
            let idx = *next;
            *next += 1;
            for _ in 0..indent {
                out.push_str("  ");
            }
            out.push_str(&plan.node_label());
            if let Some(suffix) = annotate(idx, plan) {
                out.push_str(&suffix);
            }
            out.push('\n');
            for child in plan.children() {
                walk(child, indent + 1, next, annotate, out);
            }
        }
        let mut out = String::new();
        let mut next = 0;
        walk(self, 0, &mut next, &mut annotate, &mut out);
        out
    }
}

/// Write the one-line description of `plan` (no indent, no newline).
fn write_label(plan: &LogicalPlan, f: &mut impl fmt::Write) -> fmt::Result {
    match plan {
        LogicalPlan::Scan(s) => {
            write!(f, "Scan: {} cols=[", s.table)?;
            for (i, field) in s.fields.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}", field.name, field.id)?;
            }
            f.write_str("]")?;
            if !s.filters.is_empty() {
                f.write_str(" pushed=[")?;
                for (i, e) in s.filters.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("]")?;
            }
        }
        LogicalPlan::Filter(x) => write!(f, "Filter: {}", x.predicate)?,
        LogicalPlan::Project(p) => {
            f.write_str("Project: ")?;
            for (i, pe) in p.exprs.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}:={}", pe.name, pe.id, pe.expr)?;
            }
        }
        LogicalPlan::Join(j) => {
            write!(f, "{} Join", j.join_type)?;
            if !j.condition.is_true_literal() {
                write!(f, ": {}", j.condition)?;
            }
        }
        LogicalPlan::Aggregate(a) => {
            f.write_str("Aggregate: groupBy=[")?;
            for (i, g) in a.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
            f.write_str("] aggs=[")?;
            for (i, assign) in a.aggregates.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}:={}", assign.name, assign.id, assign.agg)?;
            }
            f.write_str("]")?;
        }
        LogicalPlan::Window(w) => {
            f.write_str("Window: ")?;
            for (i, assign) in w.exprs.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}:={}", assign.name, assign.id, assign.window)?;
            }
        }
        LogicalPlan::MarkDistinct(m) => {
            write!(f, "MarkDistinct: {}{} over [", m.mark_name, m.mark_id)?;
            for (i, c) in m.columns.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{c}")?;
            }
            f.write_str("]")?;
            if !m.mask.is_true_literal() {
                write!(f, " mask={}", m.mask)?;
            }
        }
        LogicalPlan::UnionAll(u) => {
            write!(f, "UnionAll: {} inputs", u.inputs.len())?;
        }
        LogicalPlan::ConstantTable(c) => {
            write!(f, "ConstantTable: {} rows", c.len())?;
        }
        LogicalPlan::EnforceSingleRow(_) => f.write_str("EnforceSingleRow")?,
        LogicalPlan::Sort(s) => {
            f.write_str("Sort: ")?;
            for (i, k) in s.keys.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{} {}", k.expr, if k.asc { "ASC" } else { "DESC" })?;
            }
        }
        LogicalPlan::Limit(l) => write!(f, "Limit: {}", l.fetch)?,
    }
    Ok(())
}

impl fmt::Display for DisplayPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_node(
            plan: &LogicalPlan,
            indent: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            for _ in 0..indent {
                f.write_str("  ")?;
            }
            write_label(plan, f)?;
            f.write_str("\n")?;
            for child in plan.children() {
                write_node(child, indent + 1, f)?;
            }
            Ok(())
        }
        write_node(self.0, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::{Filter, LogicalPlan, Scan};
    use fusion_common::{DataType, Field, IdGen};
    use fusion_expr::{col, lit};

    fn filter_over_scan() -> LogicalPlan {
        let gen = IdGen::new();
        let id = gen.fresh();
        LogicalPlan::Filter(Filter {
            input: Box::new(LogicalPlan::Scan(Scan {
                table: "item".into(),
                fields: vec![Field::new(id, "i_item_sk", DataType::Int64, false)],
                column_indices: vec![0],
                filters: vec![],
            })),
            predicate: col(id).gt(lit(5i64)),
        })
    }

    #[test]
    fn display_is_indented_tree() {
        let s = filter_over_scan().display();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Filter:"));
        assert!(lines[1].starts_with("  Scan: item"));
    }

    #[test]
    fn node_label_matches_display_lines() {
        let plan = filter_over_scan();
        let s = plan.display();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], plan.node_label());
        assert_eq!(lines[1].trim_start(), plan.children()[0].node_label());
    }

    #[test]
    fn display_annotated_numbers_preorder() {
        let plan = filter_over_scan();
        let s = plan.display_annotated(|idx, _| Some(format!(" [id={idx}]")));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Filter:") && lines[0].ends_with("[id=0]"));
        assert!(lines[1].trim_start().starts_with("Scan:") && lines[1].ends_with("[id=1]"));
    }
}
