//! Query fusion for the athena-fusion engine.
//!
//! This crate is the reproduction of the paper's contribution:
//!
//! * [`mod@fuse`] — the recursive `Fuse(P1, P2)` primitive of Section III.
//!   `Fuse` either fails (`None`, the paper's `⊥`) or returns a
//!   [`fuse::Fused`] 4-tuple `(P, M, L, R)`: a fused plan whose output
//!   covers both inputs, a column mapping from `P2`'s outputs into `P`'s,
//!   and two compensating filters that restore `P1` and `P2`:
//!
//!   ```text
//!   P1 = Project_outCols(P1)( Filter_L( P ) )
//!   P2 = Project_M(outCols(P2))( Filter_R( P ) )
//!   ```
//!
//! * [`rules`] — the Section IV optimization rules built on fusion:
//!   `GroupByJoinToWindow`, `JoinOnKeys` (keyed-GroupBy and scalar
//!   aggregate variants), `UnionAllOnJoin`, and `UnionAll` fusion — plus
//!   the supporting rewrites the paper leans on (expression
//!   simplification, filter merging, predicate pushdown, column pruning,
//!   semi-join dedup for the Q95 pattern).
//!
//! * [`optimizer`] — the pass-based driver with an `enable_fusion`
//!   switch so baseline and optimized plans can be compared, which is
//!   exactly the experiment of Section V.
//!
//! The defining property, inherited from the paper: fusion produces only
//! **standard relational operators** — no Blitz-style super-operators, no
//! Resin-style `ResinMap`/`ResinReduce` — so every orthogonal rule
//! composes with fused results with no extra code.

pub mod analysis;
pub mod fuse;
pub mod optimizer;
pub mod rules;

pub use analysis::{analyze_plan, AnalysisCode, Violation};
pub use fuse::{fuse, FuseContext, Fused};
pub use optimizer::{Optimizer, OptimizerConfig, OptimizerReport, RejectedRule};
