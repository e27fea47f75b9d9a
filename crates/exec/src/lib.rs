//! Streaming executor for the athena-fusion engine.
//!
//! The executor mirrors the architectural property the paper's rewrites
//! exploit: plans are **trees of streaming operators with no
//! materialization points**. A common subexpression that appears twice in
//! a plan really is evaluated twice (and its base tables scanned twice) —
//! which is exactly why the fusion rewrites pay off, and why the
//! bytes-scanned meter in [`metrics::ExecMetrics`] reproduces the paper's
//! Figure 2 metric faithfully.
//!
//! * [`table::Table`] — columnar, optionally date-partitioned in-memory
//!   tables; scans prune partitions with pushed-down predicates and meter
//!   the bytes of every column they actually read.
//! * [`ops`] — pull-based operators (`next_chunk`), one per logical
//!   operator, including the Athena-specific `MarkDistinct`.
//! * [`physical`] — compiles a `LogicalPlan` against a [`table::Catalog`]
//!   and runs it to completion.

pub mod context;
pub mod fault;
pub mod metrics;
pub mod ops;
pub mod physical;
pub mod pipeline;
pub mod profile;
pub mod table;

pub use context::{BudgetedReservation, CancelToken, ExecContext, IntoContext};
pub use fault::{FaultPolicy, RetryPolicy, ReuseFaultRates, ReuseFaultSite};
pub use metrics::{ExecMetrics, MetricsSnapshot};
pub use ops::scan::{ColumnarMorsel, ScanExec, ScanFragment};
pub use pipeline::FusedPipeline;
pub use physical::{
    collect, compile, compile_ctx, compile_profiled, execute_plan, execute_plan_ctx,
    execute_plan_profiled, QueryOutput,
};
pub use profile::{OpProfile, OpSpan, PartitionProfile, QueryProfile};
pub use table::{Catalog, Table, TableBuilder};

use fusion_common::Value;

/// A materialized row.
pub type Row = Vec<Value>;

/// A unit of streaming: a small batch of rows.
pub type Chunk = Vec<Row>;

/// Target chunk size for streaming operators.
pub const CHUNK_SIZE: usize = 4096;
