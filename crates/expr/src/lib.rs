//! Expression IR for the athena-fusion engine.
//!
//! * [`Expr`] — scalar expression trees over [`fusion_common::ColumnId`]s
//!   , with SQL three-valued-logic evaluation.
//! * [`AggregateExpr`] — *masked* aggregates: each aggregate is a pair
//!   `(function, mask)` exactly as in Section III.E of the paper; the mask
//!   is a boolean expression and only rows satisfying it feed the
//!   aggregate. Distinct aggregates carry a `distinct` flag and can be
//!   lowered onto `MarkDistinct` by the planner.
//! * [`WindowExpr`] — partition-wide window aggregates
//!   (`AGG(x) OVER (PARTITION BY k1, ..., kn)`), the target shape of the
//!   `GroupByJoinToWindow` rule.
//! * [`mod@simplify`] — boolean/arithmetic simplification, including the
//!   conjunction-contradiction test (`L AND R ≡ FALSE`) the `UnionAll`
//!   rule uses to select its simplified form.
//! * [`mod@equiv`] — structural equivalence of expressions modulo a column
//!   mapping `M`, the test used throughout `Fuse`.

pub mod agg;
pub mod eval;
pub mod expr;
pub mod equiv;
pub mod simplify;
pub mod vector;

pub use agg::{AggFunc, AggregateExpr, WindowExpr};
pub use eval::{eval, eval_cow, eval_predicate, Resolver};
pub use equiv::{equiv, normalize, normalize_memo};
pub use expr::{
    col, conjoin, disjoin, lit, split_conjuncts, split_disjuncts, BinaryOp, ColumnMap, Expr,
    ScalarFunc,
};
pub use simplify::{
    is_contradiction, simplify, simplify_filter, simplify_filter_memo, simplify_memo, SimplifyMemo,
};
pub use vector::{hash_columns, hash_key, hash_value, ColumnBatch, HashedKey};
