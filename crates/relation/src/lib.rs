//! Relational data model for the RJoin reproduction.
//!
//! The paper ("Continuous Multi-Way Joins over Distributed Hash Tables",
//! EDBT 2008) assumes a plain relational model: data is inserted into the
//! network as tuples of append-only relations, several schemas may co-exist,
//! and continuous queries are SQL multi-way equi-joins.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`Value`] — a typed attribute value (integers and strings),
//! * [`Schema`] — a named relation schema (ordered attribute names),
//! * [`Tuple`] — a published tuple carrying its publication time,
//! * [`Catalog`] — a registry of schemas,
//! * [`Timestamp`] — logical simulation time used throughout the workspace.
//!
//! # Example
//!
//! ```
//! use rjoin_relation::{Catalog, Schema, Tuple, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Schema::new("R", ["A", "B", "C"]).unwrap()).unwrap();
//!
//! let tuple = Tuple::new("R", vec![Value::from(2), Value::from(5), Value::from(8)], 10);
//! assert_eq!(tuple.arity(), 3);
//! assert_eq!(tuple.value(1), Some(&Value::Int(5)));
//! catalog.validate_tuple(&tuple).unwrap();
//! ```

mod catalog;
mod decoded;
mod error;
mod name;
mod schema;
mod tuple;
mod value;

pub use catalog::Catalog;
pub use decoded::{write_prefixed, DecodedTable};
pub use error::RelationError;
pub use name::Name;
pub use schema::{AttrIndex, Schema};
pub use tuple::Tuple;
pub use value::Value;

/// Logical time used across the workspace (publication times, query
/// insertion times, simulation clock ticks).
///
/// The paper's model only relies on a totally ordered clock with a known
/// upper bound on message delay, so a plain `u64` tick counter suffices.
pub type Timestamp = u64;
