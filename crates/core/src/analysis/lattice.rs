//! Bottom-up property derivation over logical plans.
//!
//! The analyzer walks a plan once and derives, per node, a small lattice of
//! semantic facts that rewrite rules implicitly rely on:
//!
//! * **distinct keys** — column sets guaranteed unique per output row
//!   (`GroupBy` keys, single-value constant tables, keys surviving 1:1
//!   operators), used to discharge the key preconditions of
//!   `JoinOnKeys` and `GroupByJoinToWindow`;
//! * **single-row** — whether the node provably emits at most one row
//!   (scalar aggregates, `EnforceSingleRow`, `LIMIT 1`, one-row constant
//!   tables), the precondition of the scalar-singleton join elimination;
//! * **tag-column domains** — the exact set of integer values an internal
//!   `$tag` dispatch column can take, seeded by the `ConstantTable` a
//!   `UnionAll` fusion introduces and used to prove that every branch of a
//!   tag dispatch is selected exactly once;
//! * **null-introducing sides of outer joins** — columns that may become
//!   NULL even when their source field is non-nullable, so downstream
//!   checks do not assume domain coverage implies non-null dispatch;
//! * **functional dependencies** — `group_by → aggregate output` FDs from
//!   `GroupBy`, plus the conditional uniqueness fact `MarkDistinct`
//!   establishes (its columns are unique *among marked rows*).
//!
//! Everything here is deliberately conservative: a missing fact is always
//! sound (the analyzer just cannot discharge a precondition), a present
//! fact must be true for every input. Domains are tracked only for
//! internal columns (names starting with `$tag`) so user data can never
//! produce a spurious dispatch violation.

use std::collections::{BTreeSet, HashMap, HashSet};

use fusion_common::{ColumnId, DataType, Value};
use fusion_expr::Expr;
use fusion_plan::{ConstantTable, JoinType, LogicalPlan};

/// Caps keep the lattice cheap on pathological plans; dropping facts is
/// always sound.
const MAX_KEYS: usize = 16;
const MAX_FDS: usize = 32;

/// A functional dependency `lhs → rhs` that holds on the node's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    pub lhs: BTreeSet<ColumnId>,
    pub rhs: ColumnId,
}

/// Derived semantic properties of one plan node's output.
#[derive(Debug, Clone, Default)]
pub struct PlanProps {
    /// Column sets that are distinct keys of the output (each combination
    /// of values appears on at most one row).
    pub keys: Vec<BTreeSet<ColumnId>>,
    /// The node provably emits at most one row.
    pub single_row: bool,
    /// Exact value domains for internal `$tag` dispatch columns.
    pub tag_domains: HashMap<ColumnId, BTreeSet<i64>>,
    /// Columns that an outer join may null out regardless of field
    /// nullability.
    pub null_introduced: HashSet<ColumnId>,
    /// Functional dependencies `lhs → rhs`.
    pub fds: Vec<Fd>,
    /// `MarkDistinct` facts: `(columns, mark_id)` meaning `columns` form a
    /// key among rows where the marker column is TRUE.
    pub marked_keys: Vec<(BTreeSet<ColumnId>, ColumnId)>,
    /// The node distributes over appends to its base tables: running it
    /// over only appended partitions yields exactly the rows a cold run
    /// appends after the cached prefix. Holds for `Scan`, and is preserved
    /// by per-row operators that neither reorder nor aggregate
    /// (`Filter`, `Project`) and by `UnionAll` of distributive children;
    /// joins, aggregates, sorts, limits, windows and `MarkDistinct` all
    /// clear it. Used by the reuse prover's maintainability certificates.
    pub append_distributive: bool,
}

impl PlanProps {
    /// Whether `cols` (as a set) is guaranteed unique per output row: some
    /// derived key is a subset of it, or the node is single-row.
    pub fn has_key(&self, cols: &[ColumnId]) -> bool {
        if self.single_row {
            return true;
        }
        let set: BTreeSet<ColumnId> = cols.iter().copied().collect();
        self.keys.iter().any(|k| k.is_subset(&set))
    }

    fn add_key(&mut self, key: BTreeSet<ColumnId>) {
        if self.keys.len() < MAX_KEYS && !self.keys.contains(&key) {
            self.keys.push(key);
        }
    }

    fn add_fd(&mut self, fd: Fd) {
        if self.fds.len() < MAX_FDS && !self.fds.contains(&fd) {
            self.fds.push(fd);
        }
    }
}

/// Whether a column name denotes an internal tag/dispatch column. Domain
/// tracking is restricted to these so arbitrary user `VALUES` tables never
/// feed the dispatch checker.
pub fn is_tag_name(name: &str) -> bool {
    name.starts_with("$tag")
}

/// Derive properties for a whole plan (recursive convenience wrapper).
pub fn props(plan: &LogicalPlan) -> PlanProps {
    let children: Vec<PlanProps> = plan.children().into_iter().map(props).collect();
    node_props(plan, &children)
}

/// Derive one node's properties from its children's. `children` must be in
/// [`LogicalPlan::children`] order.
pub fn node_props(plan: &LogicalPlan, children: &[PlanProps]) -> PlanProps {
    match plan {
        LogicalPlan::Scan(_) => PlanProps {
            append_distributive: true,
            ..PlanProps::default()
        },
        LogicalPlan::ConstantTable(t) => {
            let mut p = PlanProps {
                single_row: t.len() <= 1,
                ..PlanProps::default()
            };
            // Tag tables are small by construction; a larger leaf is a
            // spliced shared result and carries no dispatch column.
            if t.is_empty() || t.len() > ConstantTable::INLINE_ROWS {
                return p;
            }
            for (i, f) in t.fields().iter().enumerate() {
                if f.data_type != DataType::Int64 || !is_tag_name(&f.name) {
                    continue;
                }
                let mut values = BTreeSet::new();
                // Duplicate tag values would break the "one row per
                // branch" invariant; drop the fact.
                let ok = t.view().all(|row| match row[i] {
                    Value::Int64(v) => values.insert(*v),
                    _ => false,
                });
                if ok {
                    p.tag_domains.insert(f.id, values);
                    p.add_key([f.id].into_iter().collect());
                }
            }
            p
        }
        // Filters only drop rows: every uniqueness/domain fact survives,
        // and per-row filtering commutes with appending partitions.
        LogicalPlan::Filter(_) => child(children),
        // Sorting interleaves appended rows into the cached prefix.
        LogicalPlan::Sort(_) => {
            let mut p = child(children);
            p.append_distributive = false;
            p
        }
        LogicalPlan::Limit(l) => {
            let mut p = child(children);
            if l.fetch <= 1 {
                p.single_row = true;
            }
            // An already-satisfied limit must not grow under appends.
            p.append_distributive = false;
            p
        }
        LogicalPlan::EnforceSingleRow(_) => {
            let mut p = child(children);
            p.single_row = true;
            // Appends can push the input past one row.
            p.append_distributive = false;
            p
        }
        LogicalPlan::Project(proj) => {
            let c = child(children);
            // Images of each source column under bare-column projection.
            let mut images: HashMap<ColumnId, Vec<ColumnId>> = HashMap::new();
            for pe in &proj.exprs {
                if let Expr::Column(src) = &pe.expr {
                    images.entry(*src).or_default().push(pe.id);
                }
            }
            let first_image = |id: ColumnId| images.get(&id).and_then(|v| v.first()).copied();
            let map_set = |set: &BTreeSet<ColumnId>| -> Option<BTreeSet<ColumnId>> {
                set.iter().map(|id| first_image(*id)).collect()
            };
            let mut p = PlanProps {
                single_row: c.single_row,
                // Per-row projection (computed expressions included)
                // commutes with appending partitions.
                append_distributive: c.append_distributive,
                ..PlanProps::default()
            };
            for k in &c.keys {
                if let Some(mapped) = map_set(k) {
                    p.add_key(mapped);
                }
            }
            for fd in &c.fds {
                if let (Some(lhs), Some(rhs)) = (map_set(&fd.lhs), first_image(fd.rhs)) {
                    p.add_fd(Fd { lhs, rhs });
                }
            }
            for (cols, mark) in &c.marked_keys {
                if let (Some(cols), Some(mark)) = (map_set(cols), first_image(*mark)) {
                    p.marked_keys.push((cols, mark));
                }
            }
            for pe in &proj.exprs {
                match &pe.expr {
                    Expr::Column(src) => {
                        if let Some(dom) = c.tag_domains.get(src) {
                            p.tag_domains.insert(pe.id, dom.clone());
                        }
                        if c.null_introduced.contains(src) {
                            p.null_introduced.insert(pe.id);
                        }
                    }
                    Expr::Literal(Value::Int64(v)) if is_tag_name(&pe.name) => {
                        p.tag_domains.insert(pe.id, [*v].into_iter().collect());
                    }
                    e => {
                        if e.columns().iter().any(|c2| c.null_introduced.contains(c2)) {
                            p.null_introduced.insert(pe.id);
                        }
                    }
                }
            }
            p
        }
        LogicalPlan::Join(j) => {
            let l = children.first().cloned().unwrap_or_default();
            let r = children.get(1).cloned().unwrap_or_default();
            let mut p = PlanProps::default();
            match j.join_type {
                JoinType::Semi => {
                    // Left-side facts survive, but appends to the *right*
                    // table can resurrect previously-dropped left rows.
                    let mut p = l;
                    p.append_distributive = false;
                    return p;
                }
                JoinType::Inner | JoinType::Cross => {
                    p.single_row = l.single_row && r.single_row;
                    if l.single_row {
                        p.keys = r.keys.clone();
                    } else if r.single_row {
                        p.keys = l.keys.clone();
                    } else {
                        // The cross product of two keyed sides is keyed by
                        // the union of any key pair.
                        for kl in &l.keys {
                            for kr in &r.keys {
                                p.add_key(kl.union(kr).copied().collect());
                            }
                        }
                    }
                    p.fds.extend(l.fds.iter().chain(r.fds.iter()).cloned());
                    p.fds.truncate(MAX_FDS);
                    p.null_introduced
                        .extend(l.null_introduced.iter().chain(r.null_introduced.iter()));
                }
                JoinType::Left => {
                    // A left join emits every left row at least once; only
                    // a provably single-row right side preserves keys.
                    p.single_row = l.single_row && r.single_row;
                    if r.single_row {
                        p.keys = l.keys.clone();
                    }
                    p.fds = l.fds.clone();
                    p.null_introduced.extend(l.null_introduced.iter().copied());
                    // Every right-side column may be nulled by a miss.
                    p.null_introduced.extend(j.right.schema().ids());
                }
            }
            p.tag_domains.extend(l.tag_domains);
            p.tag_domains.extend(r.tag_domains);
            p
        }
        LogicalPlan::Aggregate(g) => {
            let c = child(children);
            let mut p = PlanProps::default();
            if g.is_scalar() {
                p.single_row = true;
                return p;
            }
            let group: BTreeSet<ColumnId> = g.group_by.iter().copied().collect();
            // Any input key contained in the grouping set is still a key
            // of the output (rows only collapse, never duplicate).
            for k in &c.keys {
                if k.is_subset(&group) {
                    p.add_key(k.clone());
                }
            }
            p.add_key(group.clone());
            for a in &g.aggregates {
                p.add_fd(Fd {
                    lhs: group.clone(),
                    rhs: a.id,
                });
            }
            for (id, dom) in &c.tag_domains {
                if group.contains(id) {
                    p.tag_domains.insert(*id, dom.clone());
                }
            }
            p.null_introduced = c
                .null_introduced
                .iter()
                .filter(|id| group.contains(id))
                .copied()
                .collect();
            p
        }
        // Window and MarkDistinct pass every input row through unchanged
        // and append columns, so all input facts survive — but both
        // compute over the whole input (frames, first-seen marks), so
        // appended rows can change existing outputs.
        LogicalPlan::Window(_) => {
            let mut p = child(children);
            p.append_distributive = false;
            p
        }
        LogicalPlan::MarkDistinct(m) => {
            let mut p = child(children);
            p.marked_keys
                .push((m.columns.iter().copied().collect(), m.mark_id));
            p.append_distributive = false;
            p
        }
        LogicalPlan::UnionAll(u) => {
            let mut p = PlanProps {
                append_distributive: !children.is_empty()
                    && children.iter().all(|c| c.append_distributive),
                ..PlanProps::default()
            };
            for (j, f) in u.fields.iter().enumerate() {
                if is_tag_name(&f.name) {
                    let mut dom = BTreeSet::new();
                    let mut ok = true;
                    for (i, cp) in children.iter().enumerate() {
                        let src = u.input_column_for_output(i, j);
                        match cp.tag_domains.get(&src) {
                            Some(d) => dom.extend(d.iter().copied()),
                            None => ok = false,
                        }
                    }
                    if ok && !children.is_empty() {
                        p.tag_domains.insert(f.id, dom);
                    }
                }
                for (i, cp) in children.iter().enumerate() {
                    if cp.null_introduced.contains(&u.input_column_for_output(i, j)) {
                        p.null_introduced.insert(f.id);
                    }
                }
            }
            p
        }
    }
}

fn child(children: &[PlanProps]) -> PlanProps {
    children.first().cloned().unwrap_or_default()
}

