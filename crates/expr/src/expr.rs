//! Scalar expression trees.

use std::collections::{HashMap, HashSet};
use std::fmt;

use fusion_common::{ColumnId, DataType, FusionError, Result, Schema, Value};

/// A mapping from column identities to column identities — the `M`
/// component of a fused result. Lifted to expressions by
/// [`Expr::map_columns`].
pub type ColumnMap = HashMap<ColumnId, ColumnId>;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    And,
    Or,
}

impl BinaryOp {
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// `a op b == b (commute(op)) a` — used by normalization.
    pub fn commuted(&self) -> Option<BinaryOp> {
        match self {
            BinaryOp::Eq => Some(BinaryOp::Eq),
            BinaryOp::NotEq => Some(BinaryOp::NotEq),
            BinaryOp::Lt => Some(BinaryOp::Gt),
            BinaryOp::LtEq => Some(BinaryOp::GtEq),
            BinaryOp::Gt => Some(BinaryOp::Lt),
            BinaryOp::GtEq => Some(BinaryOp::LtEq),
            BinaryOp::Plus => Some(BinaryOp::Plus),
            BinaryOp::Multiply => Some(BinaryOp::Multiply),
            BinaryOp::And => Some(BinaryOp::And),
            BinaryOp::Or => Some(BinaryOp::Or),
            _ => None,
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    /// First non-NULL argument.
    Coalesce,
    /// Absolute value.
    Abs,
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScalarFunc::Coalesce => "COALESCE",
            ScalarFunc::Abs => "ABS",
        })
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a column by identity.
    Column(ColumnId),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Unary logical negation.
    Not(Box<Expr>),
    /// Unary numeric negation.
    Negate(Box<Expr>),
    /// `e IS NULL`.
    IsNull(Box<Expr>),
    /// `e IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `CASE WHEN c1 THEN v1 ... [ELSE e] END` (searched form).
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `e [NOT] IN (v1, ..., vn)` with a literal/expression list.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// Explicit cast.
    Cast { expr: Box<Expr>, to: DataType },
    /// Built-in scalar function call.
    ScalarFunction { func: ScalarFunc, args: Vec<Expr> },
}

/// Shorthand for a column reference.
pub fn col(id: ColumnId) -> Expr {
    Expr::Column(id)
}

/// Shorthand for a literal.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

// The arithmetic builder names (`add`, `sub`, ...) intentionally mirror
// SQL; they build expression trees rather than computing, so implementing
// `std::ops` would be misleading.
#[allow(clippy::should_implement_trait)]
impl Expr {
    pub fn boolean(b: bool) -> Expr {
        Expr::Literal(Value::Boolean(b))
    }

    pub fn is_true_literal(&self) -> bool {
        matches!(self, Expr::Literal(Value::Boolean(true)))
    }

    pub fn is_false_literal(&self) -> bool {
        matches!(self, Expr::Literal(Value::Boolean(false)))
    }

    fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }
    pub fn eq_to(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }
    pub fn not_eq_to(self, other: Expr) -> Expr {
        self.binary(BinaryOp::NotEq, other)
    }
    pub fn lt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Lt, other)
    }
    pub fn lt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::LtEq, other)
    }
    pub fn gt(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Gt, other)
    }
    pub fn gt_eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::GtEq, other)
    }
    pub fn add(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Plus, other)
    }
    pub fn sub(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Minus, other)
    }
    pub fn mul(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Multiply, other)
    }
    pub fn div(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Divide, other)
    }
    pub fn negated(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn is_not_null(self) -> Expr {
        Expr::IsNotNull(Box::new(self))
    }

    /// Exact structural identity: `==`, except that literals must also
    /// agree in type and bits — `Value`'s equality treats `1` and `1.0`
    /// (and `0.0` and `-0.0`) as equal, which renders and types apart.
    pub fn identical(&self, other: &Expr) -> bool {
        let all = |a: &[Expr], b: &[Expr]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.identical(y))
        };
        match (self, other) {
            (Expr::Column(a), Expr::Column(b)) => a == b,
            (Expr::Literal(a), Expr::Literal(b)) => match (a, b) {
                (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
                _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
            },
            (
                Expr::Binary { op, left, right },
                Expr::Binary {
                    op: op2,
                    left: left2,
                    right: right2,
                },
            ) => op == op2 && left.identical(left2) && right.identical(right2),
            (Expr::Not(a), Expr::Not(b))
            | (Expr::Negate(a), Expr::Negate(b))
            | (Expr::IsNull(a), Expr::IsNull(b))
            | (Expr::IsNotNull(a), Expr::IsNotNull(b)) => a.identical(b),
            (
                Expr::Case {
                    branches,
                    else_expr,
                },
                Expr::Case {
                    branches: branches2,
                    else_expr: else2,
                },
            ) => {
                branches.len() == branches2.len()
                    && branches
                        .iter()
                        .zip(branches2)
                        .all(|((c, v), (c2, v2))| c.identical(c2) && v.identical(v2))
                    && match (else_expr, else2) {
                        (Some(a), Some(b)) => a.identical(b),
                        (None, None) => true,
                        _ => false,
                    }
            }
            (
                Expr::InList {
                    expr,
                    list,
                    negated,
                },
                Expr::InList {
                    expr: expr2,
                    list: list2,
                    negated: negated2,
                },
            ) => negated == negated2 && expr.identical(expr2) && all(list, list2),
            (Expr::Cast { expr, to }, Expr::Cast { expr: expr2, to: to2 }) => {
                to == to2 && expr.identical(expr2)
            }
            (
                Expr::ScalarFunction { func, args },
                Expr::ScalarFunction {
                    func: func2,
                    args: args2,
                },
            ) => func == func2 && all(args, args2),
            _ => false,
        }
    }

    /// Collect the column ids referenced by this expression.
    pub fn columns(&self) -> HashSet<ColumnId> {
        let mut out = HashSet::new();
        self.collect_columns(&mut out);
        out
    }

    /// Append referenced column ids into `out`.
    pub fn collect_columns(&self, out: &mut HashSet<ColumnId>) {
        match self {
            Expr::Column(id) => {
                out.insert(*id);
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Negate(e) | Expr::IsNull(e) | Expr::IsNotNull(e) => {
                e.collect_columns(out)
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.collect_columns(out);
                    v.collect_columns(out);
                }
                if let Some(e) = else_expr {
                    e.collect_columns(out);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Cast { expr, .. } => expr.collect_columns(out),
            Expr::ScalarFunction { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Rewrite column references through a column→column map (the `M` of a
    /// fused result). Columns not present in the map are left unchanged.
    pub fn map_columns(&self, m: &ColumnMap) -> Expr {
        self.transform(&|e| match e {
            Expr::Column(id) => m.get(id).map(|new| Expr::Column(*new)),
            _ => None,
        })
    }

    /// Rewrite column references through a column→expression map (used to
    /// inline projections).
    pub fn substitute(&self, m: &HashMap<ColumnId, Expr>) -> Expr {
        self.transform(&|e| match e {
            Expr::Column(id) => m.get(id).cloned(),
            _ => None,
        })
    }

    /// Bottom-up transformation: `f` returns `Some(replacement)` to rewrite
    /// a node (children already rewritten) or `None` to keep it.
    pub fn transform(&self, f: &dyn Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = self.map_children(&mut |c| c.transform(f));
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// This node over `f` of each child, children visited in order (left
    /// before right, each CASE condition before its value).
    pub fn map_children(&self, f: &mut dyn FnMut(&Expr) -> Expr) -> Expr {
        match self {
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(f(left)),
                right: Box::new(f(right)),
            },
            Expr::Not(e) => Expr::Not(Box::new(f(e))),
            Expr::Negate(e) => Expr::Negate(Box::new(f(e))),
            Expr::IsNull(e) => Expr::IsNull(Box::new(f(e))),
            Expr::IsNotNull(e) => Expr::IsNotNull(Box::new(f(e))),
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches.iter().map(|(c, v)| (f(c), f(v))).collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(f(e))),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(f(expr)),
                list: list.iter().map(&mut *f).collect(),
                negated: *negated,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(f(expr)),
                to: *to,
            },
            Expr::ScalarFunction { func, args } => Expr::ScalarFunction {
                func: *func,
                args: args.iter().map(f).collect(),
            },
        }
    }

    /// Infer the result type against a schema.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(id) => Ok(schema.try_field_by_id(*id)?.data_type),
            Expr::Literal(v) => v
                .data_type()
                // An untyped NULL defaults to boolean; the planner casts
                // literals where a concrete type is needed.
                .map_or(Ok(DataType::Boolean), Ok),
            Expr::Binary { op, left, right } => {
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                if op.is_comparison() || *op == BinaryOp::And || *op == BinaryOp::Or {
                    Ok(DataType::Boolean)
                } else if *op == BinaryOp::Divide {
                    Ok(DataType::Float64)
                } else {
                    DataType::numeric_supertype(lt, rt).ok_or_else(|| {
                        FusionError::Type(format!("cannot apply {op} to {lt} and {rt}"))
                    })
                }
            }
            Expr::Not(_) | Expr::IsNull(_) | Expr::IsNotNull(_) | Expr::InList { .. } => {
                Ok(DataType::Boolean)
            }
            Expr::Negate(e) => e.data_type(schema),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (_, v) in branches {
                    let t = v.data_type(schema)?;
                    // First branch with a concrete (non-null-literal) type
                    // decides; mixed numeric widens to float.
                    if !matches!(v, Expr::Literal(Value::Null)) {
                        let mut out = t;
                        for (_, v2) in branches {
                            if let Ok(t2) = v2.data_type(schema) {
                                if let Some(s) = DataType::numeric_supertype(out, t2) {
                                    out = s;
                                }
                            }
                        }
                        if let Some(e) = else_expr {
                            if let Ok(t2) = e.data_type(schema) {
                                if let Some(s) = DataType::numeric_supertype(out, t2) {
                                    out = s;
                                }
                            }
                        }
                        return Ok(out);
                    }
                }
                if let Some(e) = else_expr {
                    return e.data_type(schema);
                }
                Ok(DataType::Boolean)
            }
            Expr::Cast { to, .. } => Ok(*to),
            Expr::ScalarFunction { func, args } => match func {
                ScalarFunc::Coalesce => args
                    .first()
                    .map(|a| a.data_type(schema))
                    .unwrap_or(Ok(DataType::Boolean)),
                ScalarFunc::Abs => args
                    .first()
                    .map(|a| a.data_type(schema))
                    .unwrap_or(Ok(DataType::Float64)),
            },
        }
    }

    /// Whether the expression may evaluate to NULL against a schema.
    pub fn nullable(&self, schema: &Schema) -> bool {
        match self {
            Expr::Column(id) => schema.field_by_id(*id).map(|f| f.nullable).unwrap_or(true),
            Expr::Literal(v) => v.is_null(),
            Expr::Binary { op, left, right } => {
                if *op == BinaryOp::And || *op == BinaryOp::Or {
                    // 3VL can still resolve nulls, but be conservative.
                    left.nullable(schema) || right.nullable(schema)
                } else {
                    left.nullable(schema) || right.nullable(schema)
                }
            }
            Expr::Not(e) | Expr::Negate(e) | Expr::Cast { expr: e, .. } => e.nullable(schema),
            Expr::IsNull(_) | Expr::IsNotNull(_) => false,
            Expr::Case {
                branches,
                else_expr,
            } => {
                else_expr.is_none()
                    || branches.iter().any(|(_, v)| v.nullable(schema))
                    || else_expr.as_ref().is_some_and(|e| e.nullable(schema))
            }
            Expr::InList { expr, list, .. } => {
                expr.nullable(schema) || list.iter().any(|e| e.nullable(schema))
            }
            Expr::ScalarFunction { func, args } => match func {
                // COALESCE is non-null if any argument is non-null.
                ScalarFunc::Coalesce => args.iter().all(|a| a.nullable(schema)),
                ScalarFunc::Abs => args.iter().any(|a| a.nullable(schema)),
            },
        }
    }
}

/// Split a predicate into its top-level conjuncts (flattening nested ANDs).
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    operands(expr, BinaryOp::And).into_iter().cloned().collect()
}

/// Split a predicate into its top-level disjuncts (flattening nested ORs).
pub fn split_disjuncts(expr: &Expr) -> Vec<Expr> {
    operands(expr, BinaryOp::Or).into_iter().cloned().collect()
}

/// The operands of `e`'s chain of `op` (AND or OR), borrowed and
/// flattened left to right.
pub(crate) fn operands(e: &Expr, op: BinaryOp) -> Vec<&Expr> {
    fn walk<'e>(e: &'e Expr, op: BinaryOp, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::Binary {
                op: o,
                left,
                right,
            } if *o == op => {
                walk(left, op, out);
                walk(right, op, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(e, op, &mut out);
    out
}

/// AND a list of predicates together; `TRUE` for the empty list.
pub fn conjoin(exprs: impl IntoIterator<Item = Expr>) -> Expr {
    let mut it = exprs.into_iter();
    match it.next() {
        None => Expr::boolean(true),
        Some(first) => it.fold(first, |acc, e| acc.and(e)),
    }
}

/// OR a list of predicates together; `FALSE` for the empty list.
pub fn disjoin(exprs: impl IntoIterator<Item = Expr>) -> Expr {
    let mut it = exprs.into_iter();
    match it.next() {
        None => Expr::boolean(false),
        Some(first) => it.fold(first, |acc, e| acc.or(e)),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(id) => write!(f, "{id}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Negate(e) => write!(f, "-{e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            Expr::Case {
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN {c} THEN {v}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::ScalarFunction { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(ColumnId(1), "a", DataType::Int64, false),
            Field::new(ColumnId(2), "b", DataType::Float64, true),
            Field::new(ColumnId(3), "s", DataType::Utf8, true),
        ])
    }

    #[test]
    fn columns_collects_all_references() {
        let e = col(ColumnId(1)).add(col(ColumnId(2))).gt(lit(3i64));
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert!(cols.contains(&ColumnId(1)) && cols.contains(&ColumnId(2)));
    }

    #[test]
    fn map_columns_rewrites_only_mapped() {
        let mut m = ColumnMap::new();
        m.insert(ColumnId(1), ColumnId(10));
        let e = col(ColumnId(1)).add(col(ColumnId(2)));
        let mapped = e.map_columns(&m);
        assert_eq!(mapped, col(ColumnId(10)).add(col(ColumnId(2))));
    }

    #[test]
    fn substitute_inlines_expressions() {
        let mut m = HashMap::new();
        m.insert(ColumnId(1), lit(5i64).add(col(ColumnId(2))));
        let e = col(ColumnId(1)).mul(lit(2i64));
        assert_eq!(
            e.substitute(&m),
            lit(5i64).add(col(ColumnId(2))).mul(lit(2i64))
        );
    }

    #[test]
    fn conjunct_splitting_flattens() {
        let e = col(ColumnId(1))
            .gt(lit(0i64))
            .and(col(ColumnId(2)).lt(lit(1.0)).and(col(ColumnId(3)).is_null()));
        let cs = split_conjuncts(&e);
        assert_eq!(cs.len(), 3);
        // conjoin is left-associative; re-splitting recovers the same list.
        assert_eq!(split_conjuncts(&conjoin(cs.clone())), cs);
    }

    #[test]
    fn conjoin_empty_is_true() {
        assert!(conjoin(vec![]).is_true_literal());
        assert!(disjoin(vec![]).is_false_literal());
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            col(ColumnId(1)).add(lit(1i64)).data_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            col(ColumnId(1)).add(col(ColumnId(2))).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            col(ColumnId(1)).gt(lit(0i64)).data_type(&s).unwrap(),
            DataType::Boolean
        );
        assert_eq!(
            col(ColumnId(1)).div(lit(2i64)).data_type(&s).unwrap(),
            DataType::Float64
        );
        assert!(col(ColumnId(3)).add(lit(1i64)).data_type(&s).is_err());
    }

    #[test]
    fn nullable_inference() {
        let s = schema();
        assert!(!col(ColumnId(1)).nullable(&s));
        assert!(col(ColumnId(2)).nullable(&s));
        assert!(!col(ColumnId(2)).is_null().nullable(&s));
    }

    #[test]
    fn display_round_trips_visually() {
        let e = col(ColumnId(1)).gt(lit(0i64)).and(col(ColumnId(3)).is_not_null());
        assert_eq!(e.to_string(), "((#1 > 0) AND #3 IS NOT NULL)");
    }
}
