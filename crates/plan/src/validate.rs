//! Structural plan validation.
//!
//! The optimizer validates plans after every rule application in debug
//! builds; a rule that produces a dangling column reference or a
//! duplicate identity is a bug, and catching it at the rewrite site makes
//! fusion rules far easier to develop.

use std::collections::HashSet;

use fusion_common::{ColumnId, DataType, FusionError, Result, Schema};
use fusion_expr::Expr;

use crate::plan::{JoinType, LogicalPlan};

impl LogicalPlan {
    /// Check structural invariants of the whole tree:
    /// * every expression references only columns of its node's input(s);
    /// * output schemas have unique column ids;
    /// * UnionAll inputs have matching arity and compatible types;
    /// * join conditions and filter predicates are boolean;
    /// * aggregate group-by ids exist in the input.
    pub fn validate(&self) -> Result<()> {
        self.validated().map(|_| ())
    }

    /// Validate the tree bottom-up, returning this node's schema: each
    /// node's schema is derived once, from its children's.
    fn validated(&self) -> Result<Schema> {
        let inputs = self
            .children()
            .into_iter()
            .map(LogicalPlan::validated)
            .collect::<Result<Vec<Schema>>>()?;
        let schema = self.schema_over(&inputs);
        schema.check_unique_ids()?;
        // Every node but a join has at most one input.
        let input = inputs.first().unwrap_or(&schema);
        let visible = Visible::of(&inputs);

        match self {
            LogicalPlan::Filter(f) => {
                visible.check("Filter", &f.predicate)?;
                check_boolean("Filter", &f.predicate, input)?;
            }
            LogicalPlan::Project(p) => {
                let mut names = HashSet::new();
                for pe in &p.exprs {
                    visible.check("Project", &pe.expr)?;
                    pe.expr.data_type(input).map_err(|e| {
                        FusionError::Plan(format!("Project expr {}: {e}", pe.name))
                    })?;
                    // Duplicate *internal* output names (not just ids) are
                    // checked too: user display names may legitimately
                    // repeat (`SELECT a.x, b.x`), but two `$`-prefixed
                    // columns sharing a name means a rewrite minted the
                    // same compensation/tag twice.
                    if pe.name.starts_with('$') && !names.insert(pe.name.as_str()) {
                        return Err(FusionError::Plan(format!(
                            "Project emits duplicate internal output name `{}`",
                            pe.name
                        )));
                    }
                }
            }
            LogicalPlan::Join(j) => {
                visible.check("Join", &j.condition)?;
                let combined = inputs[0].join(&inputs[1]);
                check_boolean("Join", &j.condition, &combined)?;
                if j.join_type == JoinType::Cross && !j.condition.is_true_literal() {
                    return Err(FusionError::Plan(
                        "cross join must have TRUE condition".into(),
                    ));
                }
            }
            LogicalPlan::Aggregate(a) => {
                for g in &a.group_by {
                    if !input.contains(*g) {
                        return Err(FusionError::Plan(format!(
                            "Aggregate group-by column {g} not in input"
                        )));
                    }
                }
                for assign in &a.aggregates {
                    if let Some(arg) = &assign.agg.arg {
                        visible.check("Aggregate arg", arg)?;
                    }
                    visible.check("Aggregate mask", &assign.agg.mask)?;
                    check_boolean("Aggregate mask", &assign.agg.mask, input)?;
                }
            }
            LogicalPlan::Window(w) => {
                for assign in &w.exprs {
                    if let Some(arg) = &assign.window.arg {
                        visible.check("Window arg", arg)?;
                    }
                    visible.check("Window mask", &assign.window.mask)?;
                    check_boolean("Window mask", &assign.window.mask, input)?;
                    for pc in &assign.window.partition_by {
                        if !input.contains(*pc) {
                            return Err(FusionError::Plan(format!(
                                "Window partition column {pc} not in input"
                            )));
                        }
                    }
                }
            }
            LogicalPlan::MarkDistinct(m) => {
                for c in &m.columns {
                    if !input.contains(*c) {
                        return Err(FusionError::Plan(format!(
                            "MarkDistinct column {c} not in input"
                        )));
                    }
                }
                // The marker must be a genuinely fresh identity; shadowing
                // an input column would make the mark unaddressable.
                if input.contains(m.mark_id) {
                    return Err(FusionError::Plan(format!(
                        "MarkDistinct marker column {} collides with an input column",
                        m.mark_id
                    )));
                }
                visible.check("MarkDistinct mask", &m.mask)?;
                check_boolean("MarkDistinct mask", &m.mask, input)?;
            }
            LogicalPlan::UnionAll(u) => {
                if u.inputs.is_empty() {
                    return Err(FusionError::Plan("UnionAll with no inputs".into()));
                }
                for (i, is) in inputs.iter().enumerate() {
                    if is.len() != u.fields.len() {
                        return Err(FusionError::Plan(format!(
                            "UnionAll input {i} arity {} != output arity {}",
                            is.len(),
                            u.fields.len()
                        )));
                    }
                    for (pos, (inf, outf)) in
                        is.fields().iter().zip(u.fields.iter()).enumerate()
                    {
                        if !types_compatible(inf.data_type, outf.data_type) {
                            return Err(FusionError::Plan(format!(
                                "UnionAll input {i} column {pos}: {} incompatible with {}",
                                inf.data_type, outf.data_type
                            )));
                        }
                        // Internal columns ($tag dispatch markers and the
                        // like) admit no numeric widening: a retyped tag
                        // breaks dispatch semantics even when the types
                        // are numerically compatible.
                        if (inf.name.starts_with('$') || outf.name.starts_with('$'))
                            && inf.data_type != outf.data_type
                        {
                            return Err(FusionError::Plan(format!(
                                "UnionAll input {i} internal column {pos} ({}): \
                                 type {} must match output type {} exactly",
                                outf.name, inf.data_type, outf.data_type
                            )));
                        }
                    }
                }
            }
            // Rows were checked against the fields when the table was
            // built, and neither can change since.
            LogicalPlan::ConstantTable(_) => {}
            LogicalPlan::Sort(s) => {
                for k in &s.keys {
                    visible.check("Sort", &k.expr)?;
                }
            }
            LogicalPlan::Scan(s) => {
                if s.fields.len() != s.column_indices.len() {
                    return Err(FusionError::Plan(format!(
                        "Scan {}: fields/column_indices arity mismatch",
                        s.table
                    )));
                }
                let visible = Visible::of(std::slice::from_ref(&schema));
                for e in &s.filters {
                    visible.check("Scan filter", e)?;
                }
            }
            LogicalPlan::EnforceSingleRow(_) | LogicalPlan::Limit(_) => {}
        }
        Ok(schema)
    }
}

fn types_compatible(a: DataType, b: DataType) -> bool {
    a == b || (a.is_numeric() && b.is_numeric())
}

/// The columns a node's expressions may reference: its inputs' outputs.
struct Visible(HashSet<ColumnId>);

impl Visible {
    fn of(inputs: &[Schema]) -> Self {
        Visible(inputs.iter().flat_map(|s| s.fields().iter().map(|f| f.id)).collect())
    }

    fn check(&self, ctx: &str, expr: &Expr) -> Result<()> {
        for c in expr.columns() {
            if !self.0.contains(&c) {
                return Err(FusionError::Plan(format!(
                    "{ctx}: expression `{expr}` references unknown column {c}"
                )));
            }
        }
        Ok(())
    }
}

fn check_boolean(ctx: &str, expr: &Expr, schema: &Schema) -> Result<()> {
    let dt = expr.data_type(schema)?;
    if dt != DataType::Boolean {
        return Err(FusionError::Plan(format!(
            "{ctx}: predicate `{expr}` has type {dt}, expected BOOLEAN"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::plan::{Filter, LogicalPlan, Scan, UnionAll};
    use fusion_common::{DataType, Field, IdGen};
    use fusion_expr::{col, lit};

    fn scan(gen: &IdGen, table: &str, dt: DataType) -> LogicalPlan {
        let id = gen.fresh();
        LogicalPlan::Scan(Scan {
            table: table.into(),
            fields: vec![Field::new(id, "a", dt, false)],
            column_indices: vec![0],
            filters: vec![],
        })
    }

    #[test]
    fn dangling_column_reference_rejected() {
        let gen = IdGen::new();
        let s = scan(&gen, "t", DataType::Int64);
        let bogus = gen.fresh();
        let f = LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(bogus).gt(lit(0i64)),
        });
        assert!(f.validate().is_err());
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        let gen = IdGen::new();
        let s = scan(&gen, "t", DataType::Int64);
        let id = s.schema().field(0).id;
        let f = LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(id).add(lit(1i64)),
        });
        assert!(f.validate().is_err());
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let gen = IdGen::new();
        let a = scan(&gen, "t", DataType::Int64);
        let b = scan(&gen, "u", DataType::Int64);
        let out = gen.fresh_n(2);
        let u = LogicalPlan::UnionAll(UnionAll {
            inputs: vec![a, b],
            fields: vec![
                Field::new(out[0], "x", DataType::Int64, false),
                Field::new(out[1], "y", DataType::Int64, false),
            ],
        });
        assert!(u.validate().is_err());
    }

    #[test]
    fn union_type_mismatch_rejected() {
        let gen = IdGen::new();
        let a = scan(&gen, "t", DataType::Int64);
        let b = scan(&gen, "u", DataType::Utf8);
        let out = gen.fresh();
        let u = LogicalPlan::UnionAll(UnionAll {
            inputs: vec![a, b],
            fields: vec![Field::new(out, "x", DataType::Int64, false)],
        });
        assert!(u.validate().is_err());
    }

    #[test]
    fn valid_plan_passes() {
        let gen = IdGen::new();
        let s = scan(&gen, "t", DataType::Int64);
        let id = s.schema().field(0).id;
        let f = LogicalPlan::Filter(Filter {
            input: Box::new(s),
            predicate: col(id).gt(lit(0i64)),
        });
        f.validate().unwrap();
    }
}
