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
//! * [`compile_subjoin`] — compilation of that rewriting step into a flat
//!   predicate program (the rewrite's compiled oracle),
//! * [`JoinPlan`] / [`RewritePlan`] — a whole query compiled once into
//!   slots and column offsets, joined by binding tuple references instead
//!   of rewriting the query once per bound tuple: a rewritten query is its
//!   input query's plan plus [`Bindings`],
//! * [`IndexKey`] / [`candidate_keys`] — derivation of the attribute-level
//!   and value-level DHT keys under which queries and tuples are indexed
//!   (Sections 3 and 6 of the paper),
//! * [`plan`] — join-graph shape classification (GYO
//!   ear-removal, acyclic vs cyclic) and the per-query cost model choosing
//!   between the paper's pipeline-of-rewrites and a one-shot hypercube
//!   placement with per-attribute shares ([`plan_query`]),
//! * [`WindowSpec`] — sliding/tumbling window declarations (Section 5),
//! * [`fingerprint`] / [`subjoin_signature`] — canonical fingerprints of a
//!   query's sub-join structure (`FROM` + `WHERE` + window, `SELECT`
//!   abstracted away), the collision test used by shared multi-query
//!   evaluation; [`SubJoin`] renders the same signature for a rewritten
//!   query seen through its plan.
//!
//! # Two representations of a rewritten query
//!
//! 1. **AST** — [`JoinQuery`], produced by [`parse_query`] or by a
//!    [`rewrite`] step. Constructor-validated ([`JoinQuery::new`]) for user
//!    input; unchecked for internal construction.
//! 2. **Plan plus bindings** — the input query compiled once into a
//!    [`RewritePlan`]: every attribute reference checked against the `FROM`
//!    list and resolved to a slot and column offset, constants and join
//!    edges in `WHERE` order. A rewritten query is that plan plus the tuples
//!    bound so far; a trigger is offset checks, an answer a projection, and
//!    everything that depends only on *which* slots are bound — the
//!    candidate keys above all — is derived once per bound mask.
//!
//! The AST interpreter ([`rewrite`]) is the semantics oracle: the engine
//! never runs it, and property tests assert that the plan's triggers,
//! answers, children, candidate keys, pins and signatures (and the
//! compiled programs' results) are those of the rewrite cascade. Shared
//! sub-join evaluation projects each subscriber's `SELECT` list with the
//! name-based [`project_select`] once, when the shared `WHERE` clause
//! completes.
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
pub use compile::{compile_subjoin, probe_pins, SubJoinProgram};
pub use error::QueryError;
pub use fingerprint::{
    fingerprint, subjoin_eq, subjoin_fingerprint, subjoin_signature, Fingerprint, SubJoin,
};
pub use join_plan::{Bindings, Bound, JoinPlan, PlanKey, RewritePlan, SlotColumn, Trigger};
pub use keys::{candidate_keys, tuple_index_key_iter, tuple_index_keys, IndexKey, IndexLevel};
pub use parser::parse_query;
pub use plan::{
    allocate_shares, classify_shape, plan_query, HypercubeAxis, HypercubePlan, JoinGraph,
    QueryPlan, QueryShape,
};
pub use rewrite::{project_select, rewrite, RewriteResult};
pub use window::{WindowKind, WindowSpec};
