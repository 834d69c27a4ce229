//! Messages exchanged by RJoin nodes and the query metadata they carry.

use rjoin_dht::{HashedKey, Id};
use rjoin_net::SimTime;
use rjoin_query::{Bindings, IndexLevel, JoinQuery, QueryError, RewritePlan, SelectItem, SubJoin};
use rjoin_relation::{write_prefixed, Catalog, DecodedTable, Timestamp, Tuple, Value};
use serde::bin::BinError;
use serde::json::{JsonError, JsonValue};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// One input query riding on a shared sub-join: its identity, its owner node,
/// its insertion-time filter and its `SELECT` list **as it stood when the
/// query merged** into the shared entry.
///
/// A subscriber is immutable from the merge on: the shared `WHERE` clause is
/// rewritten step by step, the subscriber's `SELECT` list is not — it is
/// projected once, when the `WHERE` clause completes, from the tuples its
/// [`SubscriberGroup`] has bound since the merge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subscriber {
    /// Identifier of the subscriber's original input query.
    pub id: QueryId,
    /// Node that submitted the subscriber's query (answers are sent here).
    pub owner: Id,
    /// Insertion time of the subscriber's query: a combination containing a
    /// tuple published earlier is not an answer of *this* subscriber, even
    /// when the tuple triggers the shared entry for another one.
    pub insert_time: Timestamp,
    /// The subscriber's `SELECT` list at the merge: items of relations the
    /// query consumed on its own way to the merge site are constants, the
    /// rest are attribute references the group's bound tuples resolve.
    pub select: Vec<SelectItem>,
}

/// Subscribers that merged into one stored entry, together with the tuples
/// the shared `WHERE` clause has consumed since — everything their `SELECT`
/// lists still need.
///
/// The subscriber set is immutable and `Arc`-shared by every descendant of
/// the entry; only the bound-tuple row (at most `joins − 1` handles) is
/// per-descendant, so deriving a child costs a few reference counts per
/// *group*, whatever the number of subscribers. Subscribers are kept in
/// insertion-time order, which makes the ones still served by a combination
/// a prefix (see [`eligible`](Self::eligible)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriberGroup {
    subscribers: Arc<Vec<Subscriber>>,
    bound: Vec<Arc<Tuple>>,
}

impl SubscriberGroup {
    /// A group of `subscribers` that has bound `bound` since they merged.
    pub fn new(mut subscribers: Vec<Subscriber>, bound: Vec<Arc<Tuple>>) -> Self {
        subscribers.sort_by_key(|s| s.insert_time);
        SubscriberGroup { subscribers: Arc::new(subscribers), bound }
    }

    /// Every subscriber of the group, earliest insertion time first.
    pub fn subscribers(&self) -> &[Subscriber] {
        &self.subscribers
    }

    /// The tuples bound since the subscribers merged, in trigger order.
    pub fn bound(&self) -> &[Arc<Tuple>] {
        &self.bound
    }

    /// The subscribers a combination serves whose earliest contributing
    /// tuple was published at `earliest`: those submitted no later.
    pub fn eligible(&self, earliest: Timestamp) -> &[Subscriber] {
        let end = self.subscribers.partition_point(|s| s.insert_time <= earliest);
        &self.subscribers[..end]
    }

    /// The group as carried by a child that `tuple` produced.
    fn bound_with(&self, tuple: &Arc<Tuple>) -> Self {
        let mut bound = Vec::with_capacity(self.bound.len() + 1);
        bound.extend(self.bound.iter().cloned());
        bound.push(Arc::clone(tuple));
        SubscriberGroup { subscribers: Arc::clone(&self.subscribers), bound }
    }

    /// Adds a subscriber that merges now, keeping insertion-time order (the
    /// set is copied first if a descendant already shares it).
    fn insert(&mut self, subscriber: Subscriber) {
        let subscribers = Arc::make_mut(&mut self.subscribers);
        let at = subscribers.partition_point(|s| s.insert_time <= subscriber.insert_time);
        subscribers.insert(at, subscriber);
    }
}

/// The subscribers riding on a shared sub-join besides its primary: a list
/// of [`SubscriberGroup`]s and the earliest insertion time among them.
///
/// Empty (one null pointer, nothing allocated) whenever sharing is disabled
/// or nothing merged. The cost of carrying the table through a trigger
/// depends on the number of groups — one per merge site on the way, plus
/// one per merged twin that brought bound tuples of its own — never on the
/// number of subscribers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriberTable(Option<Box<TableGroups>>);

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct TableGroups {
    groups: Vec<SubscriberGroup>,
    /// Earliest insertion time over every subscriber of every group,
    /// maintained by [`SubscriberTable::merge`].
    min_insert: Timestamp,
}

impl SubscriberTable {
    /// A table of `groups` (empty groups are dropped).
    pub fn from_groups(groups: impl IntoIterator<Item = SubscriberGroup>) -> Self {
        let groups: Vec<_> = groups.into_iter().filter(|g| !g.subscribers.is_empty()).collect();
        let min_insert = groups.iter().map(|g| g.subscribers[0].insert_time).min();
        SubscriberTable(min_insert.map(|min_insert| Box::new(TableGroups { groups, min_insert })))
    }

    /// Whether nobody rides besides the primary.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The groups of the table.
    pub fn groups(&self) -> &[SubscriberGroup] {
        self.0.as_deref().map_or(&[], |t| &t.groups)
    }

    /// Earliest insertion time among the table's subscribers.
    pub fn min_insert_time(&self) -> Option<Timestamp> {
        self.0.as_deref().map(|t| t.min_insert)
    }

    /// Number of subscribers a combination serves whose earliest
    /// contributing tuple was published at `earliest`.
    fn eligible_count(&self, earliest: Timestamp) -> usize {
        self.groups().iter().map(|g| g.eligible(earliest).len()).sum()
    }

    /// The table as carried by a child that `tuple` produced: every group
    /// binds the tuple, no subscriber is touched.
    fn bound_with(&self, tuple: &Arc<Tuple>) -> Self {
        SubscriberTable(self.0.as_deref().map(|t| {
            Box::new(TableGroups {
                groups: t.groups.iter().map(|g| g.bound_with(tuple)).collect(),
                min_insert: t.min_insert,
            })
        }))
    }

    /// Merges a twin into the entry this table belongs to: `newcomer` (the
    /// twin's primary) joins the group of subscribers that merged here and
    /// have bound nothing yet, the twin's own `riders` keep their groups —
    /// their bound tuples can differ from this entry's even though both
    /// reached the same key, signature and window state.
    fn merge(&mut self, newcomer: Subscriber, riders: SubscriberTable) {
        let table = self.0.get_or_insert_with(|| {
            Box::new(TableGroups { groups: Vec::new(), min_insert: Timestamp::MAX })
        });
        table.min_insert = table.min_insert.min(newcomer.insert_time);
        match table.groups.iter_mut().find(|g| g.bound.is_empty()) {
            Some(group) => group.insert(newcomer),
            None => table.groups.push(SubscriberGroup::new(vec![newcomer], Vec::new())),
        }
        if let Some(riders) = riders.0 {
            table.min_insert = table.min_insert.min(riders.min_insert);
            table.groups.extend(riders.groups);
        }
    }
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

/// The compiled plan of an input query, for as long as the query stays
/// inside one process: every descendant of an input query shares it.
///
/// Compiled where the query enters a process — at submission
/// ([`PendingQuery::submitted`]) or, for a query that arrives without one,
/// at [`NodeState::adopt`](crate::NodeState::adopt), once per [`QueryId`]
/// on each node — and read by everything after. Not part of the query: it
/// always compares equal and is never serialized.
#[derive(Debug, Clone, Default)]
pub struct PlanRef(OnceLock<Arc<RewritePlan>>);

impl PlanRef {
    /// The plan, once attached.
    pub fn get(&self) -> Option<&Arc<RewritePlan>> {
        self.0.get()
    }

    /// Attaches `plan` (a no-op when one is attached already: every plan
    /// of one query is the same).
    pub(crate) fn set(&self, plan: Arc<RewritePlan>) {
        let _ = self.0.set(plan);
    }
}

impl PartialEq for PlanRef {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for PlanRef {}

/// A submitted query and what every query it spawns shares with it: its
/// identity, owner and insertion time, its hypercube cell space and its
/// plan. Dereferences to the [`JoinQuery`] itself.
///
/// Every `Eval` of a descendant carries it. In the binary rendering the
/// query travels length-prefixed, so a receiver that decoded the same bytes
/// before, and still holds the result, shares that instead of decoding
/// them again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputQuery {
    /// Identifier of the input query.
    pub id: QueryId,
    /// Node that submitted the query (answers are sent here).
    pub owner: Id,
    /// Insertion time `insT(q)`; only tuples published at or after this
    /// time may contribute to its answers.
    pub insert_time: Timestamp,
    /// The query as submitted.
    pub query: Arc<JoinQuery>,
    /// The hypercube cell space the query evaluates in, when the planner
    /// chose a hypercube plan over the rewrite pipeline. `None` for
    /// pipeline-planned queries. It marks the whole evaluation as
    /// cell-local: a cell's partials are transient, so only input-query
    /// replicas ever carry it into a node's store.
    pub hypercube: Option<HypercubeRef>,
    /// The plan of `query`, compiled where the query entered this process
    /// (empty only until then: after [`PendingQuery::input`] and after a
    /// wire hop).
    pub plan: PlanRef,
}

impl std::ops::Deref for InputQuery {
    type Target = JoinQuery;

    fn deref(&self) -> &JoinQuery {
        &self.query
    }
}

/// An [`InputQuery`]'s fields as JSON renders them.
#[derive(Serialize, Deserialize)]
struct InputFields {
    id: QueryId,
    owner: Id,
    insert_time: Timestamp,
    query: Arc<JoinQuery>,
    hypercube: Option<HypercubeRef>,
}

impl Serialize for InputQuery {
    fn serialize_json(&self) -> JsonValue {
        let InputQuery { id, owner, insert_time, query, hypercube, plan: _ } = self;
        let (query, hypercube) = (Arc::clone(query), hypercube.clone());
        InputFields { id: *id, owner: *owner, insert_time: *insert_time, query, hypercube }
            .serialize_json()
    }

    fn serialize_bin(&self, out: &mut Vec<u8>) {
        self.id.serialize_bin(out);
        self.owner.serialize_bin(out);
        self.insert_time.serialize_bin(out);
        write_prefixed(out, &*self.query);
        self.hypercube.serialize_bin(out);
    }
}

impl Deserialize for InputQuery {
    fn deserialize_json(v: &JsonValue) -> Result<Self, JsonError> {
        let InputFields { id, owner, insert_time, query, hypercube } =
            InputFields::deserialize_json(v)?;
        Ok(InputQuery { id, owner, insert_time, query, hypercube, plan: PlanRef::default() })
    }

    fn deserialize_bin(input: &mut &[u8]) -> Result<Self, BinError> {
        let id = QueryId::deserialize_bin(input)?;
        let owner = Id::deserialize_bin(input)?;
        let insert_time = Timestamp::deserialize_bin(input)?;
        let query = DECODED_QUERIES.read(input)?;
        let hypercube = Option::<HypercubeRef>::deserialize_bin(input)?;
        Ok(InputQuery { id, owner, insert_time, query, hypercube, plan: PlanRef::default() })
    }
}

/// The input queries this process decoded (see [`DecodedTable`]): a node
/// receives its input query with every `Eval` of every descendant, and
/// decoding it would be most of decoding the `Eval`.
static DECODED_QUERIES: DecodedTable<JoinQuery, 4096> = DecodedTable::new();

/// A query in flight: an input query or one of its rewritten descendants,
/// together with the metadata RJoin needs to evaluate it.
///
/// A rewritten query is never built: it is its input query
/// ([`query`](Self::query), shared by every descendant) plus the tuples
/// bound so far ([`bound`](Self::bound), one per bound `FROM` slot), read
/// through the input query's [`RewritePlan`] — an input query too, with
/// nothing bound ([`RewritePlan::materialize`] builds the [`JoinQuery`]
/// either denotes).
///
/// With shared sub-join evaluation enabled, one `PendingQuery` can serve
/// several input queries whose rewritten sub-join structure is identical:
/// `query` is the *primary* subscriber's (the first query to claim the
/// shared entry), and `subscribers` is the table of the others. The shared
/// `WHERE` clause is evaluated and re-indexed once; when it completes,
/// answers fan back out to every subscriber submitted no later than the
/// combination's earliest tuple was published —
/// [`window_min`](Self::window_min), so nothing is filtered or copied per
/// subscriber on the way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingQuery {
    /// The (primary) input query, shared by every descendant.
    pub query: Arc<InputQuery>,
    /// The window `start` parameter, [`NO_START`] for none (see
    /// [`window_start`](Self::window_start)), stored without an `Option`
    /// tag: a stored query is mostly this struct. The contribution span
    /// ([`window_min`](Self::window_min),
    /// [`window_max`](Self::window_max)) is read off the bound tuples.
    start: Timestamp,
    /// The tuples bound to the input query's `FROM` slots so far (none for
    /// an input query).
    pub bound: Bindings,
    /// Additional input queries sharing this sub-join (empty when sharing is
    /// disabled or no structurally identical query was merged).
    pub subscribers: SubscriberTable,
}

impl PendingQuery {
    /// Wraps a freshly submitted input query, without its plan: the node
    /// it is handed to compiles one at [`adopt`](crate::NodeState::adopt).
    pub fn input(id: QueryId, owner: Id, insert_time: Timestamp, query: JoinQuery) -> Self {
        PendingQuery {
            query: Arc::new(InputQuery {
                id,
                owner,
                insert_time,
                query: Arc::new(query),
                hypercube: None,
                plan: PlanRef::default(),
            }),
            start: NO_START,
            bound: Bindings::default(),
            subscribers: SubscriberTable::default(),
        }
    }

    /// A query entering the network at submission: [`input`](Self::input)
    /// with its plan compiled against `catalog`, the one place a submitted
    /// query is compiled. Compiling checks everything
    /// [`JoinQuery::validate`] does, and more (a plan binds at most 64
    /// relations), so a query that could never trigger is refused here
    /// with the compile's error.
    pub fn submitted(
        id: QueryId,
        owner: Id,
        insert_time: Timestamp,
        query: JoinQuery,
        catalog: &Catalog,
    ) -> Result<Self, QueryError> {
        let pending = PendingQuery::input(id, owner, insert_time, query);
        let plan = RewritePlan::new(Arc::clone(&pending.query.query), catalog)?;
        pending.query.plan.set(Arc::new(plan));
        Ok(pending)
    }

    /// The input query planned into `hypercube`'s cells (see
    /// [`InputQuery::hypercube`]).
    pub fn with_hypercube(mut self, hypercube: Option<HypercubeRef>) -> Self {
        Arc::make_mut(&mut self.query).hypercube = hypercube;
        self
    }

    /// Whether this is an input query (never rewritten yet).
    pub fn is_input(&self) -> bool {
        self.bound.is_empty()
    }

    /// The plan this query is read through.
    ///
    /// # Panics
    /// Panics before the query entered a process: a query built by
    /// [`input`](Self::input) or decoded off a wire gets its plan at
    /// [`NodeState::adopt`](crate::NodeState::adopt).
    pub fn plan(&self) -> &Arc<RewritePlan> {
        self.query.plan.get().expect("a query's plan is compiled where it enters the process")
    }

    /// The rewritten sub-join, for signatures.
    pub fn subjoin(&self) -> SubJoin<'_> {
        SubJoin::Bound(self.plan(), &self.bound)
    }

    /// The `SELECT` list of the rewritten query.
    pub fn select_items(&self) -> Vec<SelectItem> {
        self.plan().select_at(&self.bound)
    }

    /// Derives the pending metadata of the descendant that binds `tuple` to
    /// `slot`, following the inheritance rules of Section 5 (`start`
    /// inheritance is handled by the caller because it differs between
    /// Procedure 2 and Procedure 3). The subscriber table does **not**
    /// carry over: its groups have to bind the tuple too, which
    /// [`triggered_child`](Self::triggered_child) does.
    ///
    /// # Panics
    /// Panics when `slot` is bound already.
    pub fn child_at(
        &self,
        slot: usize,
        tuple: &Arc<Tuple>,
        window_start: Option<Timestamp>,
    ) -> Self {
        PendingQuery {
            query: Arc::clone(&self.query),
            start: window_start.unwrap_or(NO_START),
            bound: self.bound.with(slot, tuple),
            subscribers: SubscriberTable::default(),
        }
    }

    /// [`child_at`](Self::child_at) the slot of `tuple`'s relation.
    ///
    /// # Panics
    /// Panics when the relation is not in `FROM`, or bound already.
    pub fn child(&self, tuple: &Arc<Tuple>, window_start: Option<Timestamp>) -> Self {
        let slot = self.query.relations().iter().position(|r| *r == *tuple.relation());
        self.child_at(slot.expect("the tuple's relation is in FROM"), tuple, window_start)
    }

    /// The descendant `tuple` produced by binding it to `slot`:
    /// [`child_at`](Self::child_at), with every subscriber group binding the
    /// tuple too. Whoever was submitted after the tuple was published stops
    /// being served from here on, which takes no work here: `window_min`,
    /// which now counts the tuple, is the whole filter.
    pub fn triggered_child(
        &self,
        slot: usize,
        tuple: &Arc<Tuple>,
        window_start: Option<Timestamp>,
    ) -> Self {
        let mut child = self.child_at(slot, tuple, window_start);
        child.subscribers = self.subscribers.bound_with(tuple);
        child
    }

    /// The window `start` parameter (Section 5): publication time of the
    /// tuple that created this rewritten query. `None` for input queries.
    pub fn window_start(&self) -> Option<Timestamp> {
        (self.start != NO_START).then_some(self.start)
    }

    /// Earliest publication time among the tuples that contributed to this
    /// rewritten query — its bound tuples. Together with
    /// [`window_max`](Self::window_max) this is the exact span of the
    /// partial combination, which the Section 5 `start` parameter alone is
    /// not: `start` follows the *first* (Proc. 2) or *latest* (Proc. 3)
    /// contribution, so a combination that picks up an older stored/ALTT
    /// tuple late would pass the pairwise `|start - now|` test while its
    /// true span already exceeds the window. `None` until a tuple
    /// contributes.
    pub fn window_min(&self) -> Option<Timestamp> {
        self.bound.tuples().iter().map(|tuple| tuple.pub_time()).min()
    }

    /// Latest publication time among the contributing tuples (see
    /// [`window_min`](Self::window_min)).
    pub fn window_max(&self) -> Option<Timestamp> {
        self.bound.tuples().iter().map(|tuple| tuple.pub_time()).max()
    }

    /// Merges a structurally identical `twin` — same key, signature and
    /// window state, confirmed by the caller — into this query: the twin's
    /// primary and everyone riding on it become subscribers here. The
    /// twin's `SELECT` list is taken as it stands (its bound slots resolved):
    /// the caller confirmed the signature, which needs what this needs.
    pub fn merge_twin(&mut self, twin: PendingQuery) {
        let newcomer = Subscriber {
            id: twin.query.id,
            owner: twin.query.owner,
            insert_time: twin.query.insert_time,
            select: twin.select_items(),
        };
        self.subscribers.merge(newcomer, twin.subscribers);
    }

    /// The earliest insertion time across the primary and the subscriber
    /// table: the publication-time filter of the *shared entry* (a tuple
    /// older than every subscriber triggers nothing). O(1) — the table
    /// caches its minimum.
    pub fn min_insert_time(&self) -> Timestamp {
        let primary = self.query.insert_time;
        self.subscribers.min_insert_time().map_or(primary, |t| t.min(primary))
    }

    /// Number of subscribers (primary included) this query still serves:
    /// those submitted no later than its earliest contributing tuple was
    /// published. Everyone, for an input query.
    pub fn subscriber_count(&self) -> usize {
        let earliest = self.window_min().unwrap_or(Timestamp::MAX);
        usize::from(self.query.insert_time <= earliest) + self.subscribers.eligible_count(earliest)
    }
}

/// A pending query's window `start` standing for "none": no publication
/// reaches it.
const NO_START: Timestamp = Timestamp::MAX;

/// A piggy-backed RIC observation about one candidate key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RicInfo {
    /// The candidate key's ring id: the candidate table's key, so the
    /// receiver never interns the key text.
    pub ring: u64,
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
        planned(PendingQuery::input(QueryId { owner: Id(1), seq: 3 }, Id(1), 10, q))
    }

    /// `pending` with its input query's plan attached.
    fn planned(pending: PendingQuery) -> PendingQuery {
        let mut catalog = rjoin_relation::Catalog::new();
        for rel in ["R", "S"] {
            catalog.register(rjoin_relation::Schema::new(rel, ["A", "B"]).unwrap()).unwrap();
        }
        let plan = RewritePlan::new(Arc::clone(&pending.query.query), &catalog).unwrap();
        pending.query.plan.set(Arc::new(plan));
        pending
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
        assert!(p.bound.is_empty());
        assert_eq!(p.query.insert_time, 10);
        assert_eq!(p.window_start(), None);
    }

    #[test]
    fn child_preserves_identity_and_times() {
        let p = pending();
        let rewritten = parse_query("SELECT 5, S.B FROM S WHERE S.A = 5").unwrap();
        let child = p.child(&r_tuple(42), Some(42));
        assert_eq!(child.query.id, p.query.id);
        assert_eq!(child.query.owner, p.query.owner);
        assert_eq!(child.query.insert_time, p.query.insert_time);
        assert_eq!(child.window_start(), Some(42));
        assert!(!child.is_input());
        assert!(Arc::ptr_eq(&child.query, &p.query), "the input query is shared");
        assert_eq!(child.bound.mask(), 0b01);
        assert_eq!(child.plan().materialize(&child.bound), rewritten);
    }

    fn twin(owner: u64, insert_time: Timestamp) -> PendingQuery {
        let q = parse_query("SELECT S.B FROM R, S WHERE R.A = S.A").unwrap();
        planned(PendingQuery::input(
            QueryId { owner: Id(owner), seq: 0 },
            Id(owner),
            insert_time,
            q,
        ))
    }

    fn r_tuple(pub_time: Timestamp) -> Arc<Tuple> {
        Arc::new(Tuple::new("R", vec![Value::from(5), Value::from(6)], pub_time))
    }

    #[test]
    fn subscriber_helpers_track_min_insert_time() {
        let mut p = pending();
        assert_eq!(p.subscriber_count(), 1);
        assert_eq!(p.min_insert_time(), 10);
        assert!(p.subscribers.is_empty());

        p.merge_twin(twin(2, 4));
        p.merge_twin(twin(3, 25));
        assert_eq!(p.subscriber_count(), 3);
        assert_eq!(p.min_insert_time(), 4);
        // Both merged here with nothing bound: one group, in insertion-time
        // order, each with its SELECT list as merged.
        let [group] = p.subscribers.groups() else { panic!("one merge site, one group") };
        assert!(group.bound().is_empty());
        let times: Vec<_> = group.subscribers().iter().map(|s| s.insert_time).collect();
        assert_eq!(times, [4, 25]);
        assert_eq!(group.subscribers()[0].select.len(), 1);
        // `child` alone never carries the table over.
        assert!(p.child(&r_tuple(1), Some(1)).subscribers.is_empty());
    }

    #[test]
    fn a_triggered_child_binds_the_tuple_and_shares_the_subscriber_sets() {
        let mut p = pending();
        p.merge_twin(twin(2, 4));
        p.merge_twin(twin(3, 25));
        let tuple = r_tuple(12);
        let child = p.triggered_child(0, &tuple, Some(12));
        assert_eq!((child.window_min(), child.window_max()), (Some(12), Some(12)));
        let [parent_group] = p.subscribers.groups() else { panic!("one group") };
        let [group] = child.subscribers.groups() else { panic!("one group") };
        assert!(Arc::ptr_eq(&group.subscribers, &parent_group.subscribers), "nothing is copied");
        assert!(Arc::ptr_eq(&group.bound()[0], &tuple));
        // Everyone still rides, but the one submitted after the tuple was
        // published is no longer served: eligibility is a prefix.
        assert_eq!(group.subscribers().len(), 2);
        assert_eq!(group.eligible(12).len(), 1);
        assert_eq!(child.subscriber_count(), 2, "primary (10) and the subscriber of time 4");
        assert_eq!(child.min_insert_time(), 4);

        // A later merge into the parent copies the shared set first: the
        // child in flight must not see the latecomer.
        p.merge_twin(twin(4, 7));
        assert_eq!(p.subscribers.groups()[0].subscribers().len(), 3);
        assert_eq!(child.subscribers.groups()[0].subscribers().len(), 2);

        // Merging a twin that carries riders of its own appends their groups
        // (different bound tuples) and opens a group for the twin's primary.
        let mut stored = pending().triggered_child(0, &r_tuple(12), Some(12));
        assert!(stored.subscribers.is_empty());
        stored.merge_twin(child);
        let bound: Vec<_> = stored.subscribers.groups().iter().map(|g| g.bound().len()).collect();
        assert_eq!(bound, [0, 1], "the twin's primary unbound, its riders with their tuple");
        assert_eq!(stored.min_insert_time(), 4);
        assert_eq!(stored.subscriber_count(), 3);
    }

    #[test]
    fn tables_built_from_groups_cache_their_minimum_and_drop_empty_groups() {
        let sub = |owner: u64, insert_time| Subscriber {
            id: QueryId { owner: Id(owner), seq: 1 },
            owner: Id(owner),
            insert_time,
            select: vec![],
        };
        assert!(SubscriberTable::from_groups([SubscriberGroup::new(vec![], vec![])]).is_empty());
        let table = SubscriberTable::from_groups([
            SubscriberGroup::new(vec![sub(1, 9), sub(2, 3)], vec![r_tuple(8)]),
            SubscriberGroup::new(vec![], vec![]),
            SubscriberGroup::new(vec![sub(3, 5)], vec![]),
        ]);
        assert_eq!(table.groups().len(), 2);
        assert_eq!(table.min_insert_time(), Some(3));
        assert_eq!(table.groups()[0].subscribers()[0].insert_time, 3, "sorted on construction");
        assert_eq!((table.eligible_count(2), table.eligible_count(5)), (0, 2));
        assert_eq!(table.eligible_count(Timestamp::MAX), 3);
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
        let p = pending();
        assert!(p.query.hypercube.is_none());
        let cube = HypercubeRef { base: HashedKey::new("hcube+x+1"), cells: 4 };
        let p = p.with_hypercube(Some(cube));
        let child = p.child(&r_tuple(2), Some(2));
        assert_eq!(child.query.hypercube, p.query.hypercube);
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
