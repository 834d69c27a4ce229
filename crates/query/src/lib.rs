//! Query model for the RJoin reproduction.
//!
//! This crate contains everything RJoin needs to know about continuous
//! multi-way equi-join queries, independently of any network concern:
//!
//! * [`JoinQuery`] — the AST of a (possibly already rewritten) multi-way
//!   equi-join: a `SELECT` list, a set of remaining relations and a
//!   conjunction of equality predicates ([`Conjunct`]),
//! * [`parse_query`] — a small SQL parser for the continuous-query dialect
//!   used throughout the paper (`SELECT ... FROM ... WHERE a = b AND ...`,
//!   optional `DISTINCT`, optional `WINDOW` clause),
//! * [`rewrite`] — the incremental rewriting step at the heart of RJoin:
//!   substituting an incoming tuple into a query produces either a smaller
//!   query, a complete answer, or a mismatch,
//! * [`compile_trigger`] / [`compile_subjoin`] — compilation of that
//!   rewriting step into flat predicate programs,
//! * [`JoinPlan`] — a whole query compiled into slots and column offsets,
//!   for joins that bind tuple references inside one node (hypercube
//!   cells) instead of rewriting the query once per bound tuple,
//! * [`IndexKey`] / [`candidate_keys`] / [`KeyTemplate`] — derivation of the
//!   attribute-level and value-level DHT keys under which queries and
//!   tuples are indexed (Sections 3 and 6 of the paper), per query or once
//!   per query shape,
//! * [`plan`] — join-graph shape classification (GYO
//!   ear-removal, acyclic vs cyclic) and the per-query cost model choosing
//!   between the paper's pipeline-of-rewrites and a one-shot hypercube
//!   placement with per-attribute shares ([`plan_query`]),
//! * [`WindowSpec`] — sliding/tumbling window declarations (Section 5),
//! * [`fingerprint`] / [`subjoin_signature`] — canonical fingerprints of a
//!   query's sub-join structure (`FROM` + `WHERE` + window, `SELECT`
//!   abstracted away), the collision test used by shared multi-query
//!   evaluation.
//!
//! # The compile pipeline
//!
//! Query evaluation goes through three representations:
//!
//! 1. **AST** — [`JoinQuery`], produced by [`parse_query`] or by a rewrite
//!    step. Constructor-validated ([`JoinQuery::new`]) for user input;
//!    unchecked for engine-internal construction.
//! 2. **Validated IR** — at compile time every attribute reference is
//!    checked against the `FROM` list (orphaned residue from unchecked
//!    construction is rejected) and resolved to a column offset against the
//!    catalog schema, yielding flat [`EmitStep`]/[`SelectStep`] sequences.
//! 3. **Program** — a [`SubJoinProgram`] (the projection-agnostic and
//!    constant-agnostic `WHERE` rewrite template: one per sub-join *shape*,
//!    shared by every query that differs only in the values it was
//!    rewritten with — see [`shape_fingerprint`]) paired with a per-query
//!    `SELECT` plan in a [`CompiledTrigger`]. Executing a tuple for a
//!    stored query is then a linear scan: pre-folded constant filters
//!    first, then self-join filters, then template emission — no AST walk,
//!    no string comparison, no schema lookup. The program also carries the
//!    candidate index keys of the children it emits as [`KeyTemplate`]s.
//!
//! The AST interpreter ([`rewrite`]) remains the semantics oracle: the
//! engine never runs it, property tests assert program results (and the
//! hypercube cells' [`JoinPlan`] bindings) are byte-identical to it, and
//! shared sub-join evaluation
//! projects each subscriber's `SELECT` list with the name-based
//! [`project_select`] once, when the shared `WHERE` clause completes.
//!
//! # Example
//!
//! ```
//! use rjoin_query::{parse_query, rewrite, RewriteResult};
//! use rjoin_relation::{Schema, Tuple, Value};
//!
//! let q = parse_query(
//!     "SELECT S.B, M.A FROM R, S, M WHERE R.A = S.A AND S.B = M.B",
//! ).unwrap();
//! assert_eq!(q.join_count(), 2);
//!
//! // A tuple of R arrives; the query loses one join.
//! let schema_r = Schema::new("R", ["A", "B", "C"]).unwrap();
//! let t = Tuple::new("R", vec![Value::from(2), Value::from(5), Value::from(8)], 0);
//! match rewrite(&q, &t, &schema_r).unwrap() {
//!     RewriteResult::Partial(q1) => assert_eq!(q1.join_count(), 1),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

mod ast;
mod compile;
mod error;
mod fingerprint;
mod join_plan;
mod keys;
mod parser;
pub mod plan;
mod rewrite;
mod window;

pub use ast::{Conjunct, EmitStep, JoinQuery, QualifiedAttr, SelectItem, SelectStep};
pub use compile::{compile_subjoin, compile_trigger, probe_pins, CompiledTrigger, SubJoinProgram};
pub use error::QueryError;
pub use fingerprint::{
    fingerprint, shape_fingerprint, subjoin_signature, subjoin_signature_eq, Fingerprint,
};
pub use join_plan::{JoinPlan, SlotColumn};
pub use keys::{
    candidate_keys, tuple_index_key_iter, tuple_index_keys, IndexKey, IndexLevel, KeyTemplate,
};
pub use parser::parse_query;
pub use plan::{
    allocate_shares, classify_shape, plan_query, HypercubeAxis, HypercubePlan, JoinGraph,
    QueryPlan, QueryShape,
};
pub use rewrite::{project_select, rewrite, RewriteResult};
pub use window::{WindowKind, WindowSpec};
