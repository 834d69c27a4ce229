//! Messages exchanged by RJoin nodes and the query metadata they carry.

use rjoin_dht::{HashedKey, Id};
use rjoin_net::SimTime;
use rjoin_query::{IndexLevel, JoinQuery, KeyTemplate, SelectItem, SubJoinProgram};
use rjoin_relation::{Timestamp, Tuple, Value};
use serde::bin::BinError;
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A unique identifier for a submitted continuous query.
///
/// The paper builds `Key(q)` by concatenating the key of the submitting node
/// with a positive integer; this struct is the structured equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId {
    /// The node that submitted the query.
    pub owner: Id,
    /// Sequence number, unique per owner.
    pub seq: u64,
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.owner, self.seq)
    }
}

/// One continuation riding on a shared sub-join: the identity of an input
/// query whose evaluation has been merged into another, structurally
/// identical query, together with everything needed to fan a completed
/// answer back out to it — its owner node, its own insertion-time filter and
/// its (progressively resolved) `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subscriber {
    /// Identifier of the subscriber's original input query.
    pub id: QueryId,
    /// Node that submitted the subscriber's query (answers are sent here).
    pub owner: Id,
    /// Insertion time of the subscriber's query: tuples published earlier
    /// must not contribute to *this* subscriber's answers even when they
    /// trigger the shared entry for another subscriber.
    pub insert_time: Timestamp,
    /// The subscriber's `SELECT` list, resolved in lockstep with the shared
    /// query's rewriting (its select-resolution continuation).
    pub select: Vec<SelectItem>,
}

/// A hypercube-planned query's cell space: the synthetic base key its cells
/// are derived from and the total cell count.
///
/// The planner (`rjoin_query::plan`) gives a cyclic query a per-query
/// hypercube instead of a rewrite chain; the engine mints a synthetic base
/// key for it and every cell becomes one deterministic sub-key
/// ([`HashedKey::split_part`]), reusing the hot-key splitting key space.
/// Carrying the reference on the [`PendingQuery`] is what tells the node
/// procedures that the replica opens a cell: the join runs *inside* it,
/// over the cell's own tuple store, and nothing is re-indexed across the
/// network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HypercubeRef {
    /// The per-query synthetic base key.
    pub base: HashedKey,
    /// Total number of cells (`∏ s_i` of the plan's shares).
    pub cells: u32,
}

impl HypercubeRef {
    /// The interned key of cell `cell` (the base key itself for the
    /// degenerate single-cell plan — `split_part` requires at least two
    /// partitions).
    pub fn cell_key(&self, cell: u32) -> HashedKey {
        if self.cells <= 1 {
            self.base.clone()
        } else {
            self.base.split_part(cell, self.cells)
        }
    }
}

/// The compiled program that emitted a rewritten query, for as long as the
/// query stays inside the process that rewrote it: the program knows the
/// candidate keys of its children as templates, so re-indexing the query
/// instantiates them instead of deriving its candidates from scratch.
///
/// A hint, not part of the query: it always compares equal, is never
/// serialized (a query that crossed a wire re-derives its candidates) and is
/// dropped once the query has been dispatched.
#[derive(Debug, Clone, Default)]
pub struct EmittedBy(Option<Arc<SubJoinProgram>>);

impl EmittedBy {
    /// Marks a child `program` emitted.
    pub fn program(program: &Arc<SubJoinProgram>) -> Self {
        EmittedBy(Some(Arc::clone(program)))
    }

    /// The candidate-key templates of the marked query (see
    /// [`SubJoinProgram::child_keys`]), if it carries its emitter.
    pub fn child_keys(&self) -> Option<&[KeyTemplate]> {
        self.0.as_deref().map(SubJoinProgram::child_keys)
    }
}

impl PartialEq for EmittedBy {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for EmittedBy {}

impl Serialize for EmittedBy {
    fn serialize_json(&self) -> JsonValue {
        JsonValue::Null
    }

    fn serialize_bin(&self, _: &mut Vec<u8>) {}
}

impl Deserialize for EmittedBy {
    fn deserialize_json(_: &JsonValue) -> Result<Self, JsonError> {
        Ok(EmittedBy::default())
    }

    fn deserialize_bin(_: &mut &[u8]) -> Result<Self, BinError> {
        Ok(EmittedBy::default())
    }
}

/// A query in flight: an input query or one of its rewritten descendants,
/// together with the metadata RJoin needs to evaluate it.
///
/// With shared sub-join evaluation enabled, one `PendingQuery` can carry the
/// continuations of several input queries whose sub-join structure is
/// identical: the fields below describe the *primary* subscriber (the first
/// query to claim the shared entry, whose `SELECT` list lives in `query`),
/// and `extra_subscribers` lists the others. The shared `WHERE` clause is
/// rewritten and re-indexed once; answers fan back out to every subscriber.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingQuery {
    /// Identifier of the (primary) original input query.
    pub id: QueryId,
    /// Node that submitted the (primary) query (answers are sent here).
    pub owner: Id,
    /// Insertion time `insT(q)` of the (primary) original query; only tuples
    /// published at or after this time may contribute to answers.
    pub insert_time: Timestamp,
    /// Number of join conjuncts in the original input query (used for
    /// reporting; the remaining joins are visible in `query`).
    pub original_joins: usize,
    /// The window `start` parameter (Section 5): publication time of the
    /// tuple that created this rewritten query. `None` for input queries.
    pub window_start: Option<Timestamp>,
    /// Earliest publication time among the tuples that contributed to this
    /// rewritten query. Together with [`window_max`](Self::window_max) this
    /// tracks the exact span of the partial combination, which the Section 5
    /// `start` parameter alone cannot: `start` follows the *first* (Proc. 2)
    /// or *latest* (Proc. 3) contribution, so a combination that picks up an
    /// older stored/ALTT tuple late would pass the pairwise `|start - now|`
    /// test while its true span already exceeds the window. `None` until a
    /// tuple contributes.
    pub window_min: Option<Timestamp>,
    /// Latest publication time among the contributing tuples (see
    /// [`window_min`](Self::window_min)).
    pub window_max: Option<Timestamp>,
    /// The (possibly already rewritten) query itself.
    pub query: JoinQuery,
    /// Additional input queries sharing this sub-join (empty when sharing is
    /// disabled or no structurally identical query was merged).
    pub extra_subscribers: Vec<Subscriber>,
    /// The hypercube cell space this query evaluates in, when the planner
    /// chose a hypercube plan over the rewrite pipeline. `None` for
    /// pipeline-planned queries. It marks the whole evaluation as
    /// cell-local: a cell's partials are transient, so only input-query
    /// replicas ever carry it into a node's store.
    pub hypercube: Option<HypercubeRef>,
    /// The program that emitted this rewritten query (a process-local
    /// dispatch hint; empty for input queries and after any wire hop).
    pub emitted_by: EmittedBy,
}

impl PendingQuery {
    /// Wraps a freshly submitted input query.
    pub fn input(id: QueryId, owner: Id, insert_time: Timestamp, query: JoinQuery) -> Self {
        PendingQuery {
            id,
            owner,
            insert_time,
            original_joins: query.join_count(),
            window_start: None,
            window_min: None,
            window_max: None,
            query,
            extra_subscribers: Vec::new(),
            hypercube: None,
            emitted_by: EmittedBy::default(),
        }
    }

    /// Whether this is an input query (never rewritten yet).
    pub fn is_input(&self) -> bool {
        self.window_start.is_none() && self.query.join_count() == self.original_joins
    }

    /// Derives the pending metadata for a rewritten descendant created by a
    /// tuple published at `tuple_pub_time`, following the inheritance rules
    /// of Section 5 (`start` inheritance is handled by the caller because it
    /// differs between Procedure 2 and Procedure 3).
    ///
    /// Extra subscribers do **not** carry over: the rewriting procedures
    /// re-attach the subscribers that remain eligible for the triggering
    /// tuple (see `Procedures` — a subscriber whose query was submitted
    /// after the tuple's publication must not ride on the child).
    pub fn child(&self, query: JoinQuery, window_start: Option<Timestamp>) -> Self {
        PendingQuery {
            id: self.id,
            owner: self.owner,
            insert_time: self.insert_time,
            original_joins: self.original_joins,
            window_start,
            window_min: self.window_min,
            window_max: self.window_max,
            query,
            extra_subscribers: Vec::new(),
            hypercube: self.hypercube.clone(),
            emitted_by: EmittedBy::default(),
        }
    }

    /// Records one more contributing tuple's publication time, keeping the
    /// exact `[window_min, window_max]` span of the partial combination up
    /// to date (called on every child the rewriting procedures produce).
    pub fn note_contribution(&mut self, pub_time: Timestamp) {
        self.window_min = Some(self.window_min.map_or(pub_time, |m| m.min(pub_time)));
        self.window_max = Some(self.window_max.map_or(pub_time, |m| m.max(pub_time)));
    }

    /// The primary subscriber's view of this query, in [`Subscriber`] form
    /// (used when this query is merged into an existing shared entry).
    pub fn primary_subscriber(&self) -> Subscriber {
        Subscriber {
            id: self.id,
            owner: self.owner,
            insert_time: self.insert_time,
            select: self.query.select().to_vec(),
        }
    }

    /// The earliest insertion time across the primary and every extra
    /// subscriber: the publication-time filter of the *shared entry* (a
    /// tuple older than every subscriber triggers nothing; per-subscriber
    /// eligibility is re-checked when answers or children are produced).
    pub fn min_insert_time(&self) -> Timestamp {
        self.extra_subscribers.iter().map(|s| s.insert_time).fold(self.insert_time, Timestamp::min)
    }

    /// Total number of subscribers (primary + extras).
    pub fn subscriber_count(&self) -> usize {
        1 + self.extra_subscribers.len()
    }
}

/// A cached or piggy-backed RIC observation about one candidate key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RicInfo {
    /// The candidate key, interned (string hashed onto the ring once).
    pub key: HashedKey,
    /// Estimated number of tuple arrivals per RIC window.
    pub rate: u64,
    /// Simulation time at which the estimate was taken.
    pub observed_at: SimTime,
}

/// Messages routed between RJoin nodes.
///
/// Index keys travel as interned [`HashedKey`]s — canonical string plus
/// precomputed ring identifier — so receivers never re-derive or re-hash
/// them, and tuple payloads are shared behind an [`Arc`] so that the
/// `2 × arity` copies Procedure 1 fans out all point at one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RJoinMessage {
    /// A new tuple indexed under `key` (Procedure 1 → Procedure 2).
    NewTuple {
        /// The published tuple (shared across all its index-key copies).
        tuple: Arc<Tuple>,
        /// The index key under which this copy was sent.
        key: HashedKey,
        /// Whether the copy is an attribute-level or value-level copy.
        level: IndexLevel,
        /// The node that published the tuple.
        publisher: Id,
    },
    /// An input query being indexed at its first node.
    IndexQuery {
        /// The query and its metadata.
        pending: PendingQuery,
        /// The key under which it is being indexed.
        key: HashedKey,
        /// Whether `key` is attribute-level or value-level.
        level: IndexLevel,
    },
    /// A rewritten query being re-indexed (Procedure 3), carrying
    /// piggy-backed RIC information (Section 7).
    Eval {
        /// The rewritten query and its metadata.
        pending: PendingQuery,
        /// The key under which it is being indexed.
        key: HashedKey,
        /// Whether `key` is attribute-level or value-level.
        level: IndexLevel,
        /// RIC observations the sender already holds, forwarded so the
        /// receiver can reuse them for subsequent re-indexing decisions.
        carried_ric: Vec<RicInfo>,
    },
    /// An answer delivered directly to the node that submitted the query.
    Answer {
        /// The original query's identifier.
        query: QueryId,
        /// The answer row (fully resolved `SELECT` list).
        row: Vec<Value>,
        /// Simulation time at which the answer was produced.
        produced_at: SimTime,
    },
}

impl RJoinMessage {
    /// Short label used in debugging output.
    pub fn kind(&self) -> &'static str {
        match self {
            RJoinMessage::NewTuple { .. } => "NewTuple",
            RJoinMessage::IndexQuery { .. } => "IndexQuery",
            RJoinMessage::Eval { .. } => "Eval",
            RJoinMessage::Answer { .. } => "Answer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_query::parse_query;

    fn pending() -> PendingQuery {
        let q = parse_query("SELECT R.A, S.B FROM R, S WHERE R.A = S.A").unwrap();
        PendingQuery::input(QueryId { owner: Id(1), seq: 3 }, Id(1), 10, q)
    }

    #[test]
    fn query_id_display() {
        let id = QueryId { owner: Id(0xab), seq: 7 };
        assert_eq!(id.to_string(), "00000000000000ab#7");
    }

    #[test]
    fn input_query_metadata() {
        let p = pending();
        assert!(p.is_input());
        assert_eq!(p.original_joins, 1);
        assert_eq!(p.insert_time, 10);
        assert_eq!(p.window_start, None);
    }

    #[test]
    fn child_preserves_identity_and_times() {
        let p = pending();
        let rewritten = parse_query("SELECT 5, S.B FROM S WHERE S.A = 5").unwrap();
        let child = p.child(rewritten.clone(), Some(42));
        assert_eq!(child.id, p.id);
        assert_eq!(child.owner, p.owner);
        assert_eq!(child.insert_time, p.insert_time);
        assert_eq!(child.original_joins, 1);
        assert_eq!(child.window_start, Some(42));
        assert!(!child.is_input());
        assert_eq!(child.query, rewritten);
    }

    #[test]
    fn subscriber_helpers_track_min_insert_time() {
        let mut p = pending();
        assert_eq!(p.subscriber_count(), 1);
        assert_eq!(p.min_insert_time(), 10);
        let primary = p.primary_subscriber();
        assert_eq!(primary.id, p.id);
        assert_eq!(primary.insert_time, 10);
        assert_eq!(primary.select.len(), 2);

        p.extra_subscribers.push(Subscriber {
            id: QueryId { owner: Id(2), seq: 0 },
            owner: Id(2),
            insert_time: 4,
            select: vec![],
        });
        p.extra_subscribers.push(Subscriber {
            id: QueryId { owner: Id(3), seq: 0 },
            owner: Id(3),
            insert_time: 25,
            select: vec![],
        });
        assert_eq!(p.subscriber_count(), 3);
        assert_eq!(p.min_insert_time(), 4);
        // Children never inherit extras implicitly.
        let child = p.child(parse_query("SELECT 5, S.B FROM S WHERE S.A = 5").unwrap(), Some(1));
        assert!(child.extra_subscribers.is_empty());
    }

    #[test]
    fn hypercube_ref_cell_keys_are_deterministic_sub_keys() {
        let hc = HypercubeRef { base: HashedKey::new("hcube+0000000000000001+0"), cells: 8 };
        let k0 = hc.cell_key(0);
        let k7 = hc.cell_key(7);
        assert_eq!(k0.partition(), Some((0, 8)));
        assert_eq!(k7.partition(), Some((7, 8)));
        assert_eq!(k0.base_ring(), hc.base.ring());
        assert_ne!(k0.ring(), k7.ring());
        // The single-cell plan degenerates to the base key itself.
        let unit = HypercubeRef { base: hc.base.clone(), cells: 1 };
        assert_eq!(unit.cell_key(0), unit.base);
    }

    #[test]
    fn children_inherit_the_hypercube_reference() {
        let mut p = pending();
        assert!(p.hypercube.is_none());
        p.hypercube = Some(HypercubeRef { base: HashedKey::new("hcube+x+1"), cells: 4 });
        let child = p.child(parse_query("SELECT 5, S.B FROM S WHERE S.A = 5").unwrap(), Some(2));
        assert_eq!(child.hypercube, p.hypercube);
    }

    #[test]
    fn message_kinds() {
        let msg = RJoinMessage::Answer {
            query: QueryId { owner: Id(1), seq: 1 },
            row: vec![Value::from(1)],
            produced_at: 5,
        };
        assert_eq!(msg.kind(), "Answer");
    }
}
