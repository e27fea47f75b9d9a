//! N-ary join flattening (§IV.E).
//!
//! Join-based fusion rules need to see "conceptually an n-ary join": the
//! two fusable inputs are often separated by other joins (the paper's Q01
//! walkthrough). [`JoinGraph::from_plan`] flattens a tree of inner/cross
//! joins — looking through `Filter`s (whose predicates become conjuncts)
//! and through bare-column `Project`s (recorded as a substitution) — into
//! a list of atomic inputs plus a conjunct pool. After a rule replaces a
//! pair of inputs, [`JoinGraph::rebuild`] re-forms a left-deep join tree,
//! placing each conjunct at the lowest point where its columns are
//! available, and restores the original root's output columns with a
//! final projection.
//!
//! Inputs are borrowed from the flattened plan until a rule replaces one,
//! so flattening a join tree that no rule rewrites copies no subplan.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use fusion_common::{ColumnId, Field, Schema};
use fusion_expr::{conjoin, split_conjuncts, Expr};
use fusion_plan::{Filter, Join, JoinType, LogicalPlan, Project, ProjExpr};

/// A flattened inner-join tree.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinGraph<'a> {
    /// Atomic inputs (not inner/cross joins, filters, or bare projects).
    pub inputs: Vec<Cow<'a, LogicalPlan>>,
    /// Conjunctive predicate pool (join conditions + filter predicates),
    /// already rewritten through the flattening substitution.
    pub conjuncts: Vec<Expr>,
    /// The original root's output fields, each paired with the column
    /// that carries its value after flattening.
    pub output: Vec<(Field, ColumnId)>,
}

impl<'a> JoinGraph<'a> {
    /// Flatten `plan` if its root participates in an inner-join tree.
    /// The root may be the join itself or a chain of filters / bare-column
    /// projections above one — SQL planning leaves WHERE conjuncts (and
    /// thus the join's key equalities) in a filter above the join tree.
    /// Returns `None` for plans that are not join-like at the root.
    pub fn from_plan(plan: &'a LogicalPlan) -> Option<JoinGraph<'a>> {
        if !joins_at_root(plan) {
            return None;
        }
        let output = plan.schema().fields().to_vec();
        Some(Self::flattened(
            vec![Cow::Borrowed(plan)],
            Vec::new(),
            HashMap::new(),
            output,
        ))
    }

    /// The atomic inputs [`JoinGraph::from_plan`] would flatten `plan`
    /// into, found without building the graph: what a rule reads to
    /// decline before paying for one.
    pub fn atoms(plan: &LogicalPlan) -> Option<Vec<&LogicalPlan>> {
        fn walk<'p>(p: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
            if flattened(p) {
                for c in p.children() {
                    walk(c, out);
                }
            } else {
                out.push(p);
            }
        }
        if !joins_at_root(plan) {
            return None;
        }
        let mut out = Vec::new();
        walk(plan, &mut out);
        Some(out)
    }

    /// The graph [`JoinGraph::from_plan`] returns for this graph's
    /// [`JoinGraph::rebuild`], computed without building the plan; its
    /// inputs are borrowed from this graph. A rule that keeps rewriting
    /// after it replaced a pair looks for the next pair here — exactly
    /// where applying it again to its own output would look. Only
    /// meaningful with at least two inputs (fewer rebuild to no join).
    pub fn reflattened(&self) -> JoinGraph<'_> {
        let parts = self.inputs.iter().map(|p| Cow::Borrowed(p.as_ref())).collect();
        let (fields, subst) = self.rebuilt_root();
        JoinGraph::flattened(parts, self.conjuncts.clone(), subst, fields)
    }

    /// Let `pick` look at [`JoinGraph::reflattened`]. If it picks, that
    /// graph is returned owning its inputs — this graph's, flattened by
    /// value — together with the pick; otherwise this graph comes back.
    pub fn reflatten_with<T>(
        self,
        pick: impl FnOnce(&JoinGraph<'_>) -> Option<T>,
    ) -> Result<(JoinGraph<'a>, T), JoinGraph<'a>> {
        let view = self.reflattened();
        let picked = pick(&view);
        let JoinGraph {
            inputs: borrowed,
            conjuncts,
            output,
        } = view;
        drop(borrowed);
        let Some(picked) = picked else {
            return Err(self);
        };
        // The view's pool and output already hold what flattening the
        // inputs adds to them.
        let mut inputs = Vec::new();
        for part in self.inputs {
            flatten(part, &mut inputs, &mut Vec::new(), &mut HashMap::new());
        }
        let graph = JoinGraph {
            inputs,
            conjuncts,
            output,
        };
        Ok((graph, picked))
    }

    /// Flatten `parts` (left to right) on top of an existing conjunct pool
    /// and substitution, then rewrite the pool through the substitution,
    /// order it canonically (so rebuild() is a deterministic fixpoint) and
    /// resolve each output field to the column carrying it.
    fn flattened(
        parts: Vec<Cow<'a, LogicalPlan>>,
        mut conjuncts: Vec<Expr>,
        mut subst: HashMap<ColumnId, ColumnId>,
        output: Vec<Field>,
    ) -> JoinGraph<'a> {
        let mut inputs = Vec::new();
        for part in parts {
            flatten(part, &mut inputs, &mut conjuncts, &mut subst);
        }
        let mut conjuncts: Vec<Expr> = conjuncts.iter().map(|c| c.map_columns(&subst)).collect();
        conjuncts.sort_by_cached_key(|c| c.to_string());
        conjuncts.dedup();
        let output = output
            .into_iter()
            .map(|f| {
                let src = resolve(&subst, f.id);
                (f, src)
            })
            .collect();
        JoinGraph {
            inputs,
            conjuncts,
            output,
        }
    }

    /// The root fields of the rebuilt plan, and the substitution its
    /// output projection contributes when flattened (none when the join
    /// tree already produces the output and no projection is built).
    fn rebuilt_root(&self) -> (Vec<Field>, HashMap<ColumnId, ColumnId>) {
        let tree = Schema::new(
            self.inputs
                .iter()
                .flat_map(|p| p.schema().fields().to_vec())
                .collect(),
        );
        if is_identity(&self.output, tree.fields()) {
            return (tree.fields().to_vec(), HashMap::new());
        }
        let fields = Project::schema_over(&restore(&self.output), &tree)
            .fields()
            .to_vec();
        let subst = self
            .output
            .iter()
            .filter(|(f, src)| f.id != *src)
            .map(|(f, src)| (f.id, *src))
            .collect();
        (fields, subst)
    }

    /// Column equivalence classes induced by `a = b` conjuncts.
    pub fn equivalence_classes(&self) -> Vec<HashSet<ColumnId>> {
        let mut classes: Vec<HashSet<ColumnId>> = Vec::new();
        for c in &self.conjuncts {
            if let Expr::Binary {
                op: fusion_expr::BinaryOp::Eq,
                left,
                right,
            } = c
            {
                if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                    let ia = classes.iter().position(|s| s.contains(a));
                    let ib = classes.iter().position(|s| s.contains(b));
                    match (ia, ib) {
                        (Some(x), Some(y)) if x != y => {
                            let (hi, lo) = if x > y { (x, y) } else { (y, x) };
                            let merged = classes.remove(hi);
                            classes[lo].extend(merged);
                        }
                        (Some(x), None) => {
                            classes[x].insert(*b);
                        }
                        (None, Some(y)) => {
                            classes[y].insert(*a);
                        }
                        (None, None) => {
                            let mut s = HashSet::new();
                            s.insert(*a);
                            s.insert(*b);
                            classes.push(s);
                        }
                        _ => {}
                    }
                }
            }
        }
        classes
    }

    /// Are two columns equated (directly or transitively) by the pool?
    pub fn columns_equated(&self, a: ColumnId, b: ColumnId) -> bool {
        if a == b {
            return true;
        }
        self.equivalence_classes()
            .iter()
            .any(|s| s.contains(&a) && s.contains(&b))
    }

    /// Rebuild a plan: left-deep joins over `inputs` in order, conjuncts
    /// placed at the lowest point where their columns are available, and a
    /// final projection restoring the original output fields.
    pub fn rebuild(self) -> LogicalPlan {
        self.layout().build(self.inputs)
    }

    /// Where [`JoinGraph::rebuild`] puts each conjunct, decided from the
    /// inputs' schemas alone.
    fn layout(&self) -> Layout {
        let mut remaining = self.conjuncts.clone();
        let mut local = Vec::with_capacity(self.inputs.len());
        let mut joins = Vec::new();
        let mut tree: Vec<Field> = Vec::new();
        let mut tree_ids: HashSet<ColumnId> = HashSet::new();
        for (k, input) in self.inputs.iter().enumerate() {
            let schema = input.schema();
            // The conjuncts this input's own columns cover filter it.
            let own: HashSet<ColumnId> = schema.fields().iter().map(|f| f.id).collect();
            local.push(take_covered(&mut remaining, &own).map(conjoin));
            tree_ids.extend(&own);
            tree.extend(schema.fields().iter().cloned());
            if k == 0 {
                continue;
            }
            // Defensive: literal-TRUE residuals (e.g. from a scalar-join
            // elimination) must collapse to a canonical cross join, not an
            // inner join with a degenerate condition.
            let now: Vec<Expr> = take_covered(&mut remaining, &tree_ids)
                .unwrap_or_default()
                .into_iter()
                .filter(|c| !c.is_true_literal())
                .collect();
            joins.push(if now.is_empty() {
                (JoinType::Cross, Expr::boolean(true))
            } else {
                (JoinType::Inner, conjoin(now))
            });
        }
        let residual = (!remaining.is_empty()).then(|| conjoin(remaining));
        // Restore the original output columns (identity where possible).
        let project = (!is_identity(&self.output, &tree)).then(|| restore(&self.output));
        Layout {
            local,
            joins,
            residual,
            project,
        }
    }
}

/// The plan [`JoinGraph::rebuild`] builds, minus its inputs.
struct Layout {
    /// Per input: the filter over it holding the conjuncts its own
    /// columns cover.
    local: Vec<Option<Expr>>,
    /// Per input after the first: the join adding it to the tree.
    joins: Vec<(JoinType, Expr)>,
    /// A filter over the whole tree for conjuncts no join covers.
    residual: Option<Expr>,
    /// The projection restoring the original output; `None` when the
    /// tree already produces it.
    project: Option<Vec<ProjExpr>>,
}

impl Layout {
    fn build(self, inputs: Vec<Cow<'_, LogicalPlan>>) -> LogicalPlan {
        let filtered = |input: Cow<'_, LogicalPlan>, local: Option<Expr>| {
            let input = input.into_owned();
            match local {
                Some(predicate) => LogicalPlan::Filter(Filter {
                    input: Box::new(input),
                    predicate,
                }),
                None => input,
            }
        };
        let mut parts = inputs.into_iter().zip(self.local);
        let (first, local) = parts.next().expect("join graph must have inputs");
        let mut acc = filtered(first, local);
        for ((input, local), (join_type, condition)) in parts.zip(self.joins) {
            acc = LogicalPlan::Join(Join {
                left: Box::new(acc),
                right: Box::new(filtered(input, local)),
                join_type,
                condition,
            });
        }
        if let Some(predicate) = self.residual {
            acc = LogicalPlan::Filter(Filter {
                input: Box::new(acc),
                predicate,
            });
        }
        match self.project {
            Some(exprs) => LogicalPlan::Project(Project {
                input: Box::new(acc),
                exprs,
            }),
            None => acc,
        }
    }

    /// Whether `plan` already is the plan [`Layout::build`] would build
    /// over `inputs` — decided without building it. Inputs borrowed from
    /// `plan` itself compare by address.
    fn matches(&self, plan: &LogicalPlan, inputs: &[Cow<'_, LogicalPlan>]) -> bool {
        let filtered = |node: &LogicalPlan, input: &LogicalPlan, local: &Option<Expr>| {
            let node = match (node, local) {
                (LogicalPlan::Filter(f), Some(predicate)) if f.predicate == *predicate => &*f.input,
                (_, Some(_)) => return false,
                (node, None) => node,
            };
            std::ptr::eq(node, input) || node == input
        };
        let mut node = plan;
        if let Some(exprs) = &self.project {
            match node {
                LogicalPlan::Project(p) if p.exprs == *exprs => node = &p.input,
                _ => return false,
            }
        }
        if let Some(predicate) = &self.residual {
            match node {
                LogicalPlan::Filter(f) if f.predicate == *predicate => node = &f.input,
                _ => return false,
            }
        }
        for k in (1..inputs.len()).rev() {
            let (join_type, condition) = &self.joins[k - 1];
            match node {
                LogicalPlan::Join(j)
                    if j.join_type == *join_type
                        && j.condition == *condition
                        && filtered(&j.right, &inputs[k], &self.local[k]) =>
                {
                    node = &j.left
                }
                _ => return false,
            }
        }
        filtered(node, &inputs[0], &self.local[0])
    }
}

/// Remove from `remaining` the conjuncts whose columns all lie in `ids`;
/// `None` when there are none.
fn take_covered(remaining: &mut Vec<Expr>, ids: &HashSet<ColumnId>) -> Option<Vec<Expr>> {
    let (covered, rest): (Vec<Expr>, Vec<Expr>) = std::mem::take(remaining)
        .into_iter()
        .partition(|c| c.columns().iter().all(|id| ids.contains(id)));
    *remaining = rest;
    (!covered.is_empty()).then_some(covered)
}

/// The projection restoring `output` from the columns carrying it.
fn restore(output: &[(Field, ColumnId)]) -> Vec<ProjExpr> {
    output
        .iter()
        .map(|(f, src)| ProjExpr::new(f.id, f.name.clone(), Expr::Column(*src)))
        .collect()
}

/// Whether the join tree's own columns (`tree`) already are the output.
fn is_identity(output: &[(Field, ColumnId)], tree: &[Field]) -> bool {
    output.len() == tree.len()
        && output
            .iter()
            .zip(tree)
            .all(|((f, src), tf)| f.id == *src && tf.id == f.id)
}

/// Flatten one part of a join tree: inner/cross joins and filters add
/// their conjuncts, bare projections their renames, and anything else is
/// an atomic input. Owned parts are taken apart; borrowed ones stay
/// borrowed.
fn flatten<'a>(
    plan: Cow<'a, LogicalPlan>,
    inputs: &mut Vec<Cow<'a, LogicalPlan>>,
    conjuncts: &mut Vec<Expr>,
    subst: &mut HashMap<ColumnId, ColumnId>,
) {
    if !flattened(&plan) {
        inputs.push(plan);
        return;
    }
    let mut push_conjuncts = |e: &Expr| {
        conjuncts.extend(split_conjuncts(e).into_iter().filter(|c| !c.is_true_literal()));
    };
    match plan.as_ref() {
        LogicalPlan::Join(j) => push_conjuncts(&j.condition),
        LogicalPlan::Filter(f) => push_conjuncts(&f.predicate),
        LogicalPlan::Project(p) => {
            for pe in &p.exprs {
                if let Expr::Column(src) = pe.expr {
                    if pe.id != src {
                        subst.insert(pe.id, src);
                    }
                }
            }
        }
        _ => {}
    }
    let children: Vec<Cow<'a, LogicalPlan>> = match plan {
        Cow::Borrowed(p) => p.children().into_iter().map(Cow::Borrowed).collect(),
        Cow::Owned(p) => p.into_children().into_iter().map(Cow::Owned).collect(),
    };
    for child in children {
        flatten(child, inputs, conjuncts, subst);
    }
}

/// Whether flattening looks through this node: an inner or cross join,
/// a filter, or a projection of bare columns.
fn flattened(p: &LogicalPlan) -> bool {
    match p {
        LogicalPlan::Join(j) => matches!(j.join_type, JoinType::Inner | JoinType::Cross),
        LogicalPlan::Filter(_) => true,
        LogicalPlan::Project(p) => p.exprs.iter().all(|pe| matches!(pe.expr, Expr::Column(_))),
        _ => false,
    }
}

/// Whether `plan` is an inner/cross join, or a chain of filters and bare
/// projections over one — the roots [`JoinGraph::from_plan`] flattens.
fn joins_at_root(plan: &LogicalPlan) -> bool {
    let mut probe = plan;
    while flattened(probe) {
        match probe {
            LogicalPlan::Join(_) => return true,
            LogicalPlan::Filter(Filter { input, .. })
            | LogicalPlan::Project(Project { input, .. }) => probe = input,
            _ => return false,
        }
    }
    false
}

/// Cleanup rule: flatten a join tree (absorbing the filters above and
/// inside it) and rebuild it with every conjunct placed at the lowest
/// possible point — turning filter-over-cross-join shapes from SQL
/// planning into executable inner (hash) joins. Applies identically to
/// baseline and fused plans.
pub struct FormJoins;

impl super::Rule for FormJoins {
    fn name(&self) -> &'static str {
        "FormJoins"
    }

    fn apply(
        &self,
        plan: &LogicalPlan,
        _ctx: &crate::fuse::FuseContext,
    ) -> Option<LogicalPlan> {
        let graph = JoinGraph::from_plan(plan)?;
        let layout = graph.layout();
        (!layout.matches(plan, &graph.inputs)).then(|| layout.build(graph.inputs))
    }
}

fn resolve(subst: &HashMap<ColumnId, ColumnId>, mut id: ColumnId) -> ColumnId {
    let mut fuel = 64;
    while let Some(next) = subst.get(&id) {
        id = *next;
        fuel -= 1;
        if fuel == 0 {
            break;
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::{DataType, IdGen};
    use fusion_expr::{col, lit};
    use fusion_plan::builder::ColumnDef;
    use fusion_plan::PlanBuilder;

    fn cols(prefix: &str) -> Vec<ColumnDef> {
        vec![
            ColumnDef::new(format!("{prefix}_sk"), DataType::Int64, false),
            ColumnDef::new(format!("{prefix}_v"), DataType::Int64, true),
        ]
    }

    #[test]
    fn flattens_join_tree_with_filters() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "a", &cols("a"));
        let b = PlanBuilder::scan(&gen, "b", &cols("b"));
        let c = PlanBuilder::scan(&gen, "c", &cols("c"));
        let (ak, bk, ck) = (
            a.col("a_sk").unwrap(),
            b.col("b_sk").unwrap(),
            c.col("c_sk").unwrap(),
        );
        let plan = a
            .join(b.build(), JoinType::Inner, col(ak).eq_to(col(bk)))
            .filter(col(ak).gt(lit(5i64)))
            .join(c.build(), JoinType::Inner, col(bk).eq_to(col(ck)))
            .build();
        let g = JoinGraph::from_plan(&plan).unwrap();
        assert_eq!(g.inputs.len(), 3);
        assert_eq!(g.conjuncts.len(), 3);
        assert!(g.columns_equated(ak, ck)); // transitively via bk
    }

    #[test]
    fn rebuild_round_trips_semantics_shape() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "a", &cols("a"));
        let b = PlanBuilder::scan(&gen, "b", &cols("b"));
        let (ak, bk, bv) = (
            a.col("a_sk").unwrap(),
            b.col("b_sk").unwrap(),
            b.col("b_v").unwrap(),
        );
        let plan = a
            .join(
                b.build(),
                JoinType::Inner,
                col(ak).eq_to(col(bk)).and(col(bv).gt(lit(0i64))),
            )
            .build();
        let g = JoinGraph::from_plan(&plan).unwrap();
        let rebuilt = g.rebuild();
        rebuilt.validate().unwrap();
        // Same output ids in the same order.
        assert_eq!(rebuilt.schema().ids(), plan.schema().ids());
    }

    #[test]
    fn flattening_through_bare_project_records_substitution() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "a", &cols("a"));
        let ak = a.col("a_sk").unwrap();
        let renamed = a.project(vec![("x", col(ak))]);
        let x = renamed.col("x").unwrap();
        let b = PlanBuilder::scan(&gen, "b", &cols("b"));
        let bk = b.col("b_sk").unwrap();
        let plan = renamed
            .join(b.build(), JoinType::Inner, col(x).eq_to(col(bk)))
            .build();

        let g = JoinGraph::from_plan(&plan).unwrap();
        assert_eq!(g.inputs.len(), 2);
        // Conjunct rewritten to reference the underlying scan column.
        assert!(g.conjuncts[0].columns().contains(&ak));
        // Output restoration knows x comes from ak.
        let (f, src) = &g.output[0];
        assert_eq!(f.id, x);
        assert_eq!(*src, ak);
        let rebuilt = g.rebuild();
        rebuilt.validate().unwrap();
        assert_eq!(rebuilt.schema().ids(), plan.schema().ids());
    }

    #[test]
    fn semi_joins_are_atomic_inputs() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "a", &cols("a"));
        let b = PlanBuilder::scan(&gen, "b", &cols("b"));
        let c = PlanBuilder::scan(&gen, "c", &cols("c"));
        let (ak, bk, ck) = (
            a.col("a_sk").unwrap(),
            b.col("b_sk").unwrap(),
            c.col("c_sk").unwrap(),
        );
        let semi = a.join(b.build(), JoinType::Semi, col(ak).eq_to(col(bk)));
        let plan = semi
            .join(c.build(), JoinType::Inner, col(ak).eq_to(col(ck)))
            .build();
        let g = JoinGraph::from_plan(&plan).unwrap();
        assert_eq!(g.inputs.len(), 2);
        assert!(matches!(*g.inputs[0], LogicalPlan::Join(_)));
    }

    #[test]
    fn non_join_root_returns_none() {
        let gen = IdGen::new();
        let a = PlanBuilder::scan(&gen, "a", &cols("a")).build();
        assert!(JoinGraph::from_plan(&a).is_none());
    }
}
