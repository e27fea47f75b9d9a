//! Shared foundation types for the athena-fusion query engine.
//!
//! This crate holds the vocabulary every other crate speaks:
//!
//! * [`DataType`] and [`Value`] — the scalar type system and runtime values,
//!   with total ordering and hashing so values can be used as group-by and
//!   join keys.
//! * [`ColumnId`] and [`IdGen`] — globally unique column identities. Every
//!   instantiation of a table scan allocates *fresh* identities, mirroring
//!   the convention described in the paper ("the engine follows the common
//!   practice of assigning new column identities to each instance of the
//!   same table"). Query fusion then reasons about mappings between
//!   identities rather than between names.
//! * [`Field`] / [`Schema`] — typed, identity-carrying schemas.
//! * [`FusionError`] / [`Result`] — the error type shared across crates.

pub mod error;
pub mod ident;
pub mod schema;
pub mod types;
pub mod value;

pub use error::{ErrorCode, FusionError, Result};
pub use ident::{ColumnId, IdGen};
pub use schema::{Field, Schema, SchemaRef};
pub use types::DataType;
pub use value::{rows_checksum, Value};
