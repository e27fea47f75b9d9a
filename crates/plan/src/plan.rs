//! Logical plan operators and schema propagation.

use std::sync::Arc;

use fusion_common::{
    rows_checksum, ColumnId, DataType, Field, FusionError, Result, Schema, Value,
};
use fusion_expr::{AggregateExpr, Expr, WindowExpr};

/// A logical query plan: a tree of relational operators.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    Scan(Scan),
    Filter(Filter),
    Project(Project),
    Join(Join),
    Aggregate(Aggregate),
    Window(Window),
    MarkDistinct(MarkDistinct),
    UnionAll(UnionAll),
    ConstantTable(ConstantTable),
    EnforceSingleRow(EnforceSingleRow),
    Sort(Sort),
    Limit(Limit),
}

/// A scan of a base table. Each instantiation allocates fresh column
/// identities; `column_indices[i]` records which base-table column (by
/// ordinal) produces output field `i`, which is what lets two instances of
/// the same table be matched positionally during fusion and lets the
/// column-pruning rule narrow the read set.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    pub table: String,
    pub fields: Vec<Field>,
    pub column_indices: Vec<usize>,
    /// Predicates pushed into the scan (conjunctive). Populated by the
    /// predicate-pushdown pass; used for partition pruning at execution.
    pub filters: Vec<Expr>,
}

/// `WHERE`/`HAVING`: keep rows where the predicate evaluates to TRUE.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    pub input: Box<LogicalPlan>,
    pub predicate: Expr,
}

/// One projected output: a fresh identity, a display name, an expression.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjExpr {
    pub id: ColumnId,
    pub name: String,
    pub expr: Expr,
}

impl ProjExpr {
    pub fn new(id: ColumnId, name: impl Into<String>, expr: Expr) -> Self {
        ProjExpr {
            id,
            name: name.into(),
            expr,
        }
    }

    /// A pass-through projection of an existing field under its own id.
    pub fn passthrough(field: &Field) -> Self {
        ProjExpr {
            id: field.id,
            name: field.name.clone(),
            expr: Expr::Column(field.id),
        }
    }
}

/// Projection: a sequence of assignments of expressions to columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Project {
    pub input: Box<LogicalPlan>,
    pub exprs: Vec<ProjExpr>,
}

impl Project {
    /// The schema `exprs` project over an input of schema `input`.
    pub fn schema_over(exprs: &[ProjExpr], input: &Schema) -> Schema {
        Schema::new(
            exprs
                .iter()
                .map(|pe| {
                    let dt = pe.expr.data_type(input).unwrap_or(DataType::Boolean);
                    Field::new(pe.id, pe.name.clone(), dt, pe.expr.nullable(input))
                })
                .collect(),
        )
    }
}

/// Join variants. `Semi` is a left semi-join (output = left columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Semi,
    Cross,
}

impl std::fmt::Display for JoinType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JoinType::Inner => "INNER",
            JoinType::Left => "LEFT",
            JoinType::Semi => "SEMI",
            JoinType::Cross => "CROSS",
        };
        f.write_str(s)
    }
}

/// Binary join with an arbitrary boolean condition (TRUE for cross joins).
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub left: Box<LogicalPlan>,
    pub right: Box<LogicalPlan>,
    pub join_type: JoinType,
    pub condition: Expr,
}

/// One aggregate output column: fresh identity, name, masked aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggAssign {
    pub id: ColumnId,
    pub name: String,
    pub agg: AggregateExpr,
}

impl AggAssign {
    pub fn new(id: ColumnId, name: impl Into<String>, agg: AggregateExpr) -> Self {
        AggAssign {
            id,
            name: name.into(),
            agg,
        }
    }
}

/// GroupBy with masked aggregates (§III.E). Grouping columns are plain
/// column references and **keep their input identities** in the output.
/// A `GroupBy` with no aggregates is a DISTINCT.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub input: Box<LogicalPlan>,
    pub group_by: Vec<ColumnId>,
    pub aggregates: Vec<AggAssign>,
}

impl Aggregate {
    /// A scalar aggregate has no grouping columns and returns exactly one
    /// row.
    pub fn is_scalar(&self) -> bool {
        self.group_by.is_empty()
    }

    /// A distinct is a GroupBy with no aggregate functions.
    pub fn is_distinct(&self) -> bool {
        self.aggregates.is_empty()
    }
}

/// One window output column.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAssign {
    pub id: ColumnId,
    pub name: String,
    pub window: WindowExpr,
}

/// Window operator: passes through all input columns and appends one
/// column per partition-wide window aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub input: Box<LogicalPlan>,
    pub exprs: Vec<WindowAssign>,
}

/// `MarkDistinct` (§III.F): passes through the input and appends a boolean
/// column that is TRUE the first time each combination of `columns` is
/// seen and FALSE afterwards. Together with aggregate masks this
/// implements distinct aggregates without self-joins.
///
/// The operator supports a native *mask* (the extension §III.F sketches):
/// rows whose mask is not TRUE are marked FALSE and do not participate in
/// first-occurrence tracking. Fusion uses this to scope each side's marks
/// to its compensating filter without manufacturing extra columns.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkDistinct {
    pub input: Box<LogicalPlan>,
    pub columns: Vec<ColumnId>,
    pub mark_id: ColumnId,
    pub mark_name: String,
    pub mask: Expr,
}

/// N-ary bag union. All inputs have the same arity and positionally
/// compatible types; the output carries fresh identities (`fields`).
#[derive(Debug, Clone, PartialEq)]
pub struct UnionAll {
    pub inputs: Vec<LogicalPlan>,
    pub fields: Vec<Field>,
}

impl UnionAll {
    /// The positional mapping `UM` for input `i`: output field `j` is fed
    /// by the input's `j`-th column.
    pub fn input_column_for_output(&self, input: usize, output_pos: usize) -> ColumnId {
        self.inputs[input].schema().field(output_pos).id
    }
}

/// A constant relation: the `VALUES` / `(1), (2)` tag tables the planner
/// and the UnionAll fusion rule manufacture, and the leaf through which a
/// spliced consumer reads a shared result.
///
/// The rows are not part of the plan's value. The leaf holds them behind
/// an `Arc` together with their [`rows_checksum`] and a column view
/// (`fields[i]` reads stored position `columns[i]`), so the reuse cache,
/// every consumer spliced onto one shared result and every clone of
/// their plans read one allocation. All of it is private and checked
/// once, in the constructor (arity, type, nullability); after that
/// `Clone`, `PartialEq`, validation, pruning and canonical encoding cost
/// O(fields), not O(rows).
#[derive(Clone)]
pub struct ConstantTable {
    fields: Vec<Field>,
    columns: Vec<usize>,
    rows: Arc<Vec<Vec<Value>>>,
    checksum: u64,
}

impl ConstantTable {
    /// Tables up to this many rows are `$tag`-sized: the canonical
    /// encoding renders them verbatim and the property lattice reads tag
    /// domains off them. Anything larger is opaque to both.
    pub const INLINE_ROWS: usize = 64;

    /// A table over its own rows: `fields[i]` is row position `i`.
    pub fn new(fields: Vec<Field>, rows: Vec<Vec<Value>>) -> Result<Self> {
        let (columns, arity) = ((0..fields.len()).collect(), fields.len());
        let checksum = rows_checksum(&rows);
        Self::shared(fields, columns, Arc::new(rows), checksum, arity)
    }

    /// A view over rows owned elsewhere (the reuse cache, a shared
    /// execution): `fields[i]` reads position `columns[i]` of rows that
    /// are all `arity` wide. `checksum` is the caller's
    /// [`rows_checksum`] of `rows`. The one walk over the rows happens
    /// here: a row of another arity, a value of another type than its
    /// field declares, or a NULL in a non-nullable field is an error.
    pub fn shared(
        fields: Vec<Field>,
        columns: Vec<usize>,
        rows: Arc<Vec<Vec<Value>>>,
        checksum: u64,
        arity: usize,
    ) -> Result<Self> {
        let bad = |what: String| Err(FusionError::Plan(format!("ConstantTable {what}")));
        if fields.len() != columns.len() {
            let (f, c) = (fields.len(), columns.len());
            return bad(format!("has {f} fields over {c} viewed positions"));
        }
        if let Some(k) = columns.iter().find(|&&k| k >= arity) {
            return bad(format!("views position {k} of {arity}-wide rows"));
        }
        for row in rows.iter() {
            if row.len() != arity {
                let n = row.len();
                return bad(format!("row arity mismatch: {n} values in a {arity}-wide table"));
            }
            for (f, &k) in fields.iter().zip(&columns) {
                match row[k].data_type() {
                    None if !f.nullable => {
                        return bad(format!("NULL in non-nullable column {}", f.name));
                    }
                    Some(dt) if dt != f.data_type => {
                        return bad(format!(
                            "column {}: value type {dt} does not match declared type {}",
                            f.name, f.data_type
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(ConstantTable {
            fields,
            columns,
            rows,
            checksum,
        })
    }

    /// The same rows seen through `positions` of this table's fields, in
    /// that order. Narrows the view; the rows are not touched.
    pub fn project(&self, positions: &[usize]) -> Self {
        ConstantTable {
            fields: positions.iter().map(|&i| self.fields[i].clone()).collect(),
            columns: positions.iter().map(|&i| self.columns[i]).collect(),
            rows: Arc::clone(&self.rows),
            checksum: self.checksum,
        }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Stored row position read by each field.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// The stored rows, un-viewed: read them through [`Self::columns`].
    pub fn rows(&self) -> &Arc<Vec<Vec<Value>>> {
        &self.rows
    }

    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as the fields see them. O(rows): for `$tag`-sized tables
    /// only.
    pub fn view(&self) -> impl Iterator<Item = Vec<&Value>> + '_ {
        self.rows
            .iter()
            .map(|row| self.columns.iter().map(|&k| &row[k]).collect())
    }
}

/// Two leaves over one allocation are equal when their views are; rows
/// of distinct allocations are compared by checksum first.
impl PartialEq for ConstantTable {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
            && self.columns == other.columns
            && (Arc::ptr_eq(&self.rows, &other.rows)
                || (self.checksum == other.checksum && self.rows == other.rows))
    }
}

/// Never prints the rows: a plan's `{:?}` stays O(operators).
impl std::fmt::Debug for ConstantTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConstantTable")
            .field("fields", &self.fields)
            .field("columns", &self.columns)
            .field("rows", &self.rows.len())
            .field("checksum", &format_args!("{:#018x}", self.checksum))
            .finish()
    }
}

/// Enforce that the input produces exactly one row (scalar subqueries).
#[derive(Debug, Clone, PartialEq)]
pub struct EnforceSingleRow {
    pub input: Box<LogicalPlan>,
}

/// Sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub asc: bool,
    pub nulls_first: bool,
}

impl SortKey {
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            asc: true,
            nulls_first: false,
        }
    }

    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            asc: false,
            nulls_first: false,
        }
    }
}

/// ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct Sort {
    pub input: Box<LogicalPlan>,
    pub keys: Vec<SortKey>,
}

/// LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Limit {
    pub input: Box<LogicalPlan>,
    pub fetch: usize,
}

impl LogicalPlan {
    /// Compute the output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            // Nodes whose schema is one input's, or reads no input.
            LogicalPlan::Filter(Filter { input, .. })
            | LogicalPlan::EnforceSingleRow(EnforceSingleRow { input })
            | LogicalPlan::Sort(Sort { input, .. })
            | LogicalPlan::Limit(Limit { input, .. }) => input.schema(),
            LogicalPlan::Join(Join {
                left,
                join_type: JoinType::Semi,
                ..
            }) => left.schema(),
            LogicalPlan::UnionAll(u) => Schema::new(u.fields.clone()),
            _ => {
                let inputs: Vec<Schema> = self.children().into_iter().map(Self::schema).collect();
                self.schema_over(&inputs)
            }
        }
    }

    /// This node's output schema over its children's output schemas
    /// (`inputs`, in the order of [`LogicalPlan::children`]) — one level
    /// of [`LogicalPlan::schema`], for walks that already hold them.
    pub fn schema_over(&self, inputs: &[Schema]) -> Schema {
        let input = || &inputs[0];
        match self {
            LogicalPlan::Scan(s) => Schema::new(s.fields.clone()),
            LogicalPlan::Filter(_)
            | LogicalPlan::EnforceSingleRow(_)
            | LogicalPlan::Sort(_)
            | LogicalPlan::Limit(_) => input().clone(),
            LogicalPlan::Project(p) => Project::schema_over(&p.exprs, input()),
            LogicalPlan::Join(j) => {
                let (left, right) = (&inputs[0], &inputs[1]);
                match j.join_type {
                    JoinType::Semi => left.clone(),
                    JoinType::Left => {
                        let mut fields = left.fields().to_vec();
                        // Right side becomes nullable under a left join.
                        fields.extend(right.fields().iter().map(|f| Field {
                            nullable: true,
                            ..f.clone()
                        }));
                        Schema::new(fields)
                    }
                    JoinType::Inner | JoinType::Cross => left.join(right),
                }
            }
            LogicalPlan::Aggregate(a) => {
                let input = input();
                let mut fields: Vec<Field> = a
                    .group_by
                    .iter()
                    .filter_map(|id| input.field_by_id(*id).cloned())
                    .collect();
                for assign in &a.aggregates {
                    let dt = assign
                        .agg
                        .output_type(input)
                        .unwrap_or(DataType::Float64);
                    fields.push(Field::new(
                        assign.id,
                        assign.name.clone(),
                        dt,
                        assign.agg.output_nullable(),
                    ));
                }
                Schema::new(fields)
            }
            LogicalPlan::Window(w) => {
                let input = input();
                let mut fields = input.fields().to_vec();
                for assign in &w.exprs {
                    let dt = assign
                        .window
                        .output_type(input)
                        .unwrap_or(DataType::Float64);
                    fields.push(Field::new(assign.id, assign.name.clone(), dt, true));
                }
                Schema::new(fields)
            }
            LogicalPlan::MarkDistinct(m) => {
                let mut fields = input().fields().to_vec();
                fields.push(Field::new(
                    m.mark_id,
                    m.mark_name.clone(),
                    DataType::Boolean,
                    false,
                ));
                Schema::new(fields)
            }
            LogicalPlan::UnionAll(u) => Schema::new(u.fields.clone()),
            LogicalPlan::ConstantTable(c) => Schema::new(c.fields.to_vec()),
        }
    }

    /// Immediate children, in order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan(_) | LogicalPlan::ConstantTable(_) => vec![],
            LogicalPlan::Filter(f) => vec![&f.input],
            LogicalPlan::Project(p) => vec![&p.input],
            LogicalPlan::Join(j) => vec![&j.left, &j.right],
            LogicalPlan::Aggregate(a) => vec![&a.input],
            LogicalPlan::Window(w) => vec![&w.input],
            LogicalPlan::MarkDistinct(m) => vec![&m.input],
            LogicalPlan::UnionAll(u) => u.inputs.iter().collect(),
            LogicalPlan::EnforceSingleRow(e) => vec![&e.input],
            LogicalPlan::Sort(s) => vec![&s.input],
            LogicalPlan::Limit(l) => vec![&l.input],
        }
    }

    /// Immediate children, mutably, in the order of
    /// [`LogicalPlan::children`].
    pub fn children_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan(_) | LogicalPlan::ConstantTable(_) => vec![],
            LogicalPlan::Filter(f) => vec![&mut f.input],
            LogicalPlan::Project(p) => vec![&mut p.input],
            LogicalPlan::Join(j) => vec![&mut j.left, &mut j.right],
            LogicalPlan::Aggregate(a) => vec![&mut a.input],
            LogicalPlan::Window(w) => vec![&mut w.input],
            LogicalPlan::MarkDistinct(m) => vec![&mut m.input],
            LogicalPlan::UnionAll(u) => u.inputs.iter_mut().collect(),
            LogicalPlan::EnforceSingleRow(e) => vec![&mut e.input],
            LogicalPlan::Sort(s) => vec![&mut s.input],
            LogicalPlan::Limit(l) => vec![&mut l.input],
        }
    }

    /// Take the immediate children out of this node, in the order of
    /// [`LogicalPlan::children`]; the node itself is dropped.
    pub fn into_children(self) -> Vec<LogicalPlan> {
        match self {
            LogicalPlan::Scan(_) | LogicalPlan::ConstantTable(_) => vec![],
            LogicalPlan::Filter(Filter { input, .. })
            | LogicalPlan::Project(Project { input, .. })
            | LogicalPlan::Aggregate(Aggregate { input, .. })
            | LogicalPlan::Window(Window { input, .. })
            | LogicalPlan::MarkDistinct(MarkDistinct { input, .. })
            | LogicalPlan::EnforceSingleRow(EnforceSingleRow { input })
            | LogicalPlan::Sort(Sort { input, .. })
            | LogicalPlan::Limit(Limit { input, .. }) => vec![*input],
            LogicalPlan::Join(j) => vec![*j.left, *j.right],
            LogicalPlan::UnionAll(u) => u.inputs,
        }
    }

    /// Rebuild this node with new children (must match the arity of
    /// [`LogicalPlan::children`]).
    pub fn with_new_children(&self, mut children: Vec<LogicalPlan>) -> LogicalPlan {
        let mut next = || Box::new(children.remove(0));
        match self {
            LogicalPlan::Scan(_) | LogicalPlan::ConstantTable(_) => self.clone(),
            LogicalPlan::Filter(f) => LogicalPlan::Filter(Filter {
                input: next(),
                predicate: f.predicate.clone(),
            }),
            LogicalPlan::Project(p) => LogicalPlan::Project(Project {
                input: next(),
                exprs: p.exprs.clone(),
            }),
            LogicalPlan::Join(j) => {
                let left = next();
                let right = next();
                LogicalPlan::Join(Join {
                    left,
                    right,
                    join_type: j.join_type,
                    condition: j.condition.clone(),
                })
            }
            LogicalPlan::Aggregate(a) => LogicalPlan::Aggregate(Aggregate {
                input: next(),
                group_by: a.group_by.clone(),
                aggregates: a.aggregates.clone(),
            }),
            LogicalPlan::Window(w) => LogicalPlan::Window(Window {
                input: next(),
                exprs: w.exprs.clone(),
            }),
            LogicalPlan::MarkDistinct(m) => LogicalPlan::MarkDistinct(MarkDistinct {
                input: next(),
                columns: m.columns.clone(),
                mark_id: m.mark_id,
                mark_name: m.mark_name.clone(),
                mask: m.mask.clone(),
            }),
            LogicalPlan::UnionAll(u) => LogicalPlan::UnionAll(UnionAll {
                inputs: std::mem::take(&mut children),
                fields: u.fields.clone(),
            }),
            LogicalPlan::EnforceSingleRow(_) => {
                LogicalPlan::EnforceSingleRow(EnforceSingleRow { input: next() })
            }
            LogicalPlan::Sort(s) => LogicalPlan::Sort(Sort {
                input: next(),
                keys: s.keys.clone(),
            }),
            LogicalPlan::Limit(l) => LogicalPlan::Limit(Limit {
                input: next(),
                fetch: l.fetch,
            }),
        }
    }

    /// Short operator name for explain output.
    pub fn op_name(&self) -> &'static str {
        match self {
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

    /// Total number of operators in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Names of base tables scanned, with multiplicity (sorted).
    pub fn scanned_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan(s) = p {
                out.push(s.table.clone());
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::IdGen;
    use fusion_expr::{col, lit, AggregateExpr};

    fn scan(gen: &IdGen) -> (LogicalPlan, Vec<ColumnId>) {
        let ids = gen.fresh_n(3);
        let fields = vec![
            Field::new(ids[0], "a", DataType::Int64, false),
            Field::new(ids[1], "b", DataType::Float64, true),
            Field::new(ids[2], "c", DataType::Utf8, true),
        ];
        (
            LogicalPlan::Scan(Scan {
                table: "t".into(),
                fields,
                column_indices: vec![0, 1, 2],
                filters: vec![],
            }),
            ids,
        )
    }

    #[test]
    fn scan_schema_reports_instance_fields() {
        let gen = IdGen::new();
        let (plan, ids) = scan(&gen);
        let schema = plan.schema();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.field(0).id, ids[0]);
    }

    #[test]
    fn aggregate_schema_keeps_group_ids_and_appends_aggs() {
        let gen = IdGen::new();
        let (plan, ids) = scan(&gen);
        let agg_id = gen.fresh();
        let agg = LogicalPlan::Aggregate(Aggregate {
            input: Box::new(plan),
            group_by: vec![ids[0]],
            aggregates: vec![AggAssign::new(
                agg_id,
                "s",
                AggregateExpr::sum(col(ids[1])),
            )],
        });
        let schema = agg.schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.field(0).id, ids[0]);
        assert_eq!(schema.field(1).id, agg_id);
        assert_eq!(schema.field(1).data_type, DataType::Float64);
    }

    #[test]
    fn semi_join_keeps_left_schema_only() {
        let gen = IdGen::new();
        let (l, lids) = scan(&gen);
        let (r, rids) = scan(&gen);
        let j = LogicalPlan::Join(Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type: JoinType::Semi,
            condition: col(lids[0]).eq_to(col(rids[0])),
        });
        assert_eq!(j.schema().len(), 3);
        assert_eq!(j.schema().field(0).id, lids[0]);
    }

    #[test]
    fn left_join_makes_right_nullable() {
        let gen = IdGen::new();
        let (l, lids) = scan(&gen);
        let (r, rids) = scan(&gen);
        let j = LogicalPlan::Join(Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type: JoinType::Left,
            condition: col(lids[0]).eq_to(col(rids[0])),
        });
        let schema = j.schema();
        assert!(!schema.field(0).nullable); // left `a` stays NOT NULL
        assert!(schema.field(3).nullable); // right `a` becomes nullable
    }

    #[test]
    fn mark_distinct_appends_non_null_bool() {
        let gen = IdGen::new();
        let (p, ids) = scan(&gen);
        let mark = gen.fresh();
        let md = LogicalPlan::MarkDistinct(MarkDistinct {
            input: Box::new(p),
            columns: vec![ids[2]],
            mark_id: mark,
            mark_name: "d".into(),
            mask: Expr::boolean(true),
        });
        let schema = md.schema();
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.field(3).data_type, DataType::Boolean);
        assert!(!schema.field(3).nullable);
    }

    #[test]
    fn with_new_children_round_trips() {
        let gen = IdGen::new();
        let (p, ids) = scan(&gen);
        let f = LogicalPlan::Filter(Filter {
            input: Box::new(p.clone()),
            predicate: col(ids[0]).gt(lit(1i64)),
        });
        let rebuilt = f.with_new_children(vec![p]);
        assert_eq!(f, rebuilt);
        assert_eq!(f.node_count(), 2);
    }

    #[test]
    fn constant_table_checks_rows_once_and_shares_them_after() {
        let gen = IdGen::new();
        let fields = vec![
            Field::new(gen.fresh(), "a", DataType::Int64, false),
            Field::new(gen.fresh(), "b", DataType::Utf8, true),
        ];
        let rows = Arc::new(vec![
            vec![Value::Boolean(true), Value::Utf8("x".into()), Value::Int64(1)],
            vec![Value::Boolean(false), Value::Null, Value::Int64(2)],
        ]);
        let checksum = rows_checksum(&rows);
        let view = |columns: Vec<usize>, arity| {
            ConstantTable::shared(fields.clone(), columns, Arc::clone(&rows), checksum, arity)
        };
        // `a` reads stored position 2, `b` position 1.
        let t = view(vec![2, 1], 3).unwrap();
        assert_eq!(t.view().nth(1).unwrap(), [&Value::Int64(2), &Value::Null]);
        for (bad, why) in [
            (view(vec![0, 1], 3), "value type"),
            (view(vec![2, 1], 4), "arity"),
            (view(vec![2, 3], 3), "position 3"),
            (view(vec![2], 3), "fields"),
            (view(vec![1, 1], 3), "value type"),
        ] {
            let e = bad.unwrap_err().to_string();
            assert!(e.contains(why), "{e}");
        }
        let null_in_a = vec![vec![Value::Null, Value::Null]];
        let e = ConstantTable::new(fields.clone(), null_in_a).unwrap_err().to_string();
        assert!(e.contains("non-nullable"), "{e}");

        // Clones and narrowed views read the same allocation, and equality
        // sees through distinct allocations of equal rows.
        let narrowed = t.clone().project(&[1]);
        assert!(Arc::ptr_eq(narrowed.rows(), &rows));
        assert_eq!(narrowed.fields(), &fields[1..]);
        assert_eq!(narrowed.columns(), [1]);
        let copy = Arc::new(rows.as_ref().clone());
        let same =
            ConstantTable::shared(fields.clone(), vec![2, 1], copy, t.checksum(), 3).unwrap();
        assert_eq!(t, same);
        assert_ne!(t, narrowed);
    }

    #[test]
    fn scanned_tables_with_multiplicity() {
        let gen = IdGen::new();
        let (l, lids) = scan(&gen);
        let (r, rids) = scan(&gen);
        let j = LogicalPlan::Join(Join {
            left: Box::new(l),
            right: Box::new(r),
            join_type: JoinType::Inner,
            condition: col(lids[0]).eq_to(col(rids[0])),
        });
        assert_eq!(j.scanned_tables(), vec!["t".to_string(), "t".to_string()]);
    }
}
