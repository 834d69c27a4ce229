//! Per-node RJoin state: the stores one delivery reads and writes.
//!
//! A node's stored queries, value-level tuples, hypercube cells and ALTT
//! entries, with the counters kept alongside them. The other stages keep
//! their part of a node's state next to their code: expiry on the node's
//! deadline heap in [`crate::expiry`], the candidate table of cached RIC
//! observations in [`crate::ric`], cells' local joins in [`crate::cell`],
//! and draining and absorbing re-homed state in [`crate::rehome`].
//!
//! # Tuples in publication order
//!
//! Value-level tuples and ALTT entries are stored once, per ring, in one
//! shape: a [`TupleList`] ordered by a key carried inline — the publication
//! time of a value-level tuple, the retention deadline `pub + Δ` of an ALTT
//! entry (Δ is one per engine, so both keys order by publication). A ring
//! receives its tuples in publication order (publications enter in order
//! and every message takes δ), so an insert is an append; a late tuple goes
//! after the entries with an equal key, and an absorbed bucket is merged
//! in. An arriving query walks one binary-searched run of each bucket.
//! Tuples never leave alone, so they need no handles: value-level tuples
//! leave ring-at-a-time (churn drains, a hypercube replica adopting its
//! ring), ALTT entries from the front.

use crate::cell::Cell;
use crate::dedup::DedupFilter;
use crate::expiry::{query_expiry_deadline, window_deadline, DeadlineHeap, ExpiryToken};
use crate::messages::{InputQuery, PendingQuery, QueryId};
use crate::ric::CandidateTable;
use crate::shared::SubJoinRegistry;
use crate::slab::{Handle, Slab};
use crate::trigger_index::{Bucket, TriggerIndex};
use crate::{ArrivalLog, RicTracker};
use rjoin_dht::{HashedKey, Id, RingMap};
use rjoin_metrics::{CompileCounters, ProbeCounters, RicCounters, SharingCounters, StateCounters};
use rjoin_net::SimTime;
use rjoin_query::{
    signature_fingerprint, subjoin_fingerprint, subjoin_matches, subjoin_signature, IndexLevel,
    RewritePlan,
};
use rjoin_relation::{Catalog, Timestamp, Tuple};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// A query (input or rewritten) stored at a node, waiting for tuples.
///
/// A node holds millions of these under the paper's workloads, so the
/// entry is kept to seven words (56 bytes on 64-bit targets): the pending
/// query's four (input query, bindings, subscriber table, window start),
/// the key, the boxed dedup filter, and the bucket position with the level
/// and registry flag packed beside it. Its heap share is the binding's one
/// allocation and one slot of one trigger-index list.
#[derive(Debug, Clone)]
pub struct StoredQuery {
    /// The query and its metadata.
    pub pending: PendingQuery,
    /// The interned key under which it is stored.
    pub key: HashedKey,
    /// Whether the key is attribute-level or value-level.
    pub level: IndexLevel,
    /// Duplicate-elimination filter, present for `SELECT DISTINCT` queries.
    pub dedup: Option<Box<DedupFilter>>,
    /// Whether the entry was filed in the sub-join registry (stored through
    /// the shared path); its fingerprint is recomputed to unfile it.
    pub(crate) registered: bool,
    /// The entry's position in the one trigger-index list that files it
    /// (see [`crate::trigger_index`]), kept up to date by every list
    /// mutation (the entry `swap_remove` moves gets its position fixed), so
    /// unlinking one handle is O(1) instead of an O(bucket) rescan.
    pub(crate) bucket_pos: u32,
}

impl StoredQuery {
    /// Wraps a pending query for local storage.
    pub fn new(pending: PendingQuery, key: HashedKey, level: IndexLevel) -> Self {
        let dedup = pending.query.distinct().then(Box::default);
        StoredQuery { pending, key, level, dedup, registered: false, bucket_pos: 0 }
    }
}

/// A ring's tuples, ordered by the key each entry carries inline: the
/// publication time of a value-level tuple, the retention deadline
/// `pub + Δ` of an ALTT entry (see the module docs).
pub(crate) type TupleList = VecDeque<(Arc<Tuple>, Timestamp)>;

/// Files `tuple` under `key`: appended when it is in order, otherwise
/// after the entries with an equal key. Returns whether it became the
/// front.
fn insert_ordered(list: &mut TupleList, tuple: Arc<Tuple>, key: Timestamp) -> bool {
    let at = match list.back() {
        Some(&(_, last)) if last > key => list.partition_point(|&(_, k)| k <= key),
        _ => list.len(),
    };
    list.insert(at, (tuple, key));
    at == 0
}

/// Merges `incoming` into `list` in key order, `list`'s entries first among
/// equal keys. Both are ordered, so the stable sort is one linear merge of
/// two runs.
pub(crate) fn merge_ordered(
    list: &mut TupleList,
    incoming: impl IntoIterator<Item = (Arc<Tuple>, Timestamp)>,
) {
    list.extend(incoming);
    list.make_contiguous().sort_by_key(|&(_, key)| key);
}

/// The positions of `list` whose key lies in `[lo, hi]`: one run, found by
/// two binary searches (empty when `lo > hi`).
pub(crate) fn key_run(list: &TupleList, lo: Timestamp, hi: Timestamp) -> Range<usize> {
    let from = list.partition_point(|&(_, key)| key < lo);
    from..list.partition_point(|&(_, key)| key <= hi).max(from)
}

/// The input queries of the queries a node holds, by id (see
/// [`NodeState::adopt`]).
pub(crate) type InputRegistry = HashMap<QueryId, Arc<InputQuery>>;

/// The complete RJoin-level state of one network node.
///
/// The DHT-level routing state lives in `rjoin-dht`; this struct only holds
/// what the RJoin application layer needs: stored queries, stored value-level
/// tuples, the optional attribute-level tuple table (ALTT), the candidate
/// table of cached RIC information, and the node's own RIC tracker.
///
/// # O(active) storage layout
///
/// Stored queries live in a generational slab (`crate::slab::Slab`) and
/// the per-ring buckets hold stable `Handle`s: a windowed query leaves
/// alone, when its expiry token pops, in O(1) — the sub-join registry and
/// the trigger index point at handles, and references to a removed entry
/// go stale through the slab's generation counter. Tuples sit in
/// publication-ordered `TupleList`s (see the module docs).
///
/// All tables are keyed by the 64-bit **ring identifier** of the index key
/// (precomputed once in [`HashedKey`]), so the delivery hot path performs no
/// string hashing or allocation. Storage counters are maintained
/// incrementally by the mutating methods, which is why the tables themselves
/// are crate-private: [`current_storage_load`](Self::current_storage_load)
/// and friends are O(1) snapshots, not map scans.
#[derive(Debug, Clone, Default)]
pub struct NodeState {
    /// The node's identifier.
    pub id: Id,
    /// Slab of queries stored at this node.
    pub(crate) queries: Slab<StoredQuery>,
    /// Handles of stored queries, grouped by the ring id of the key they
    /// are indexed under, each group filing every handle once, in its
    /// trigger-index list.
    pub(crate) stored_queries: RingMap<Bucket>,
    /// Stored value-level tuples by index-key ring id, each bucket in
    /// publication order (keyed by publication time).
    pub(crate) stored_tuples: RingMap<TupleList>,
    /// Hypercube cells, by the ring id of the cell key: the join plan and
    /// indexed tuple store of each replica stored here. A ring is either a
    /// cell or a plain bucket of `stored_tuples`, never both.
    pub(crate) cells: RingMap<Cell>,
    /// The attribute-level tuple table: tuples kept until Δ ticks past
    /// their publication so that input queries delayed in the network do
    /// not miss them (Section 4), by ring id, each bucket keyed by that
    /// retention deadline.
    pub(crate) altt: RingMap<TupleList>,
    /// The node's deadline heap, in publication time: every windowed stored
    /// query, cell front and ALTT bucket front, filed under the publication
    /// time from which its removal is unobservable. A token filed at or
    /// before the heap's time (a rewritten query that arrives after its
    /// window closed) pops at the next
    /// [`advance_expiry`](Self::advance_expiry), whatever its target.
    pub(crate) deadlines: DeadlineHeap<ExpiryToken>,
    /// The publication watermark the deadline heap is advanced to: the highest
    /// publication time among tuples delivered here before
    /// `watermark_tick` (see the [`crate::expiry`] docs).
    pub(crate) pub_watermark: Timestamp,
    /// The delivery tick of the latest delivery handled here.
    pub(crate) watermark_tick: SimTime,
    /// The highest publication time among all tuples delivered here,
    /// including the current tick's; it becomes the watermark when a later
    /// tick starts.
    pub(crate) latest_pub: Timestamp,
    /// Counters of the stores and their expiry (occupancy gauges are filled
    /// in at snapshot time by [`state_counters`](Self::state_counters)).
    pub(crate) state_counters: StateCounters,
    /// Candidate table: cached RIC information per candidate-key ring id.
    pub(crate) candidate_table: CandidateTable,
    /// Where this node's RIC-aware dispatches of rewritten queries took
    /// their candidates' rates from: the candidate table, a chained RIC
    /// request, or nowhere (left unasked).
    pub(crate) ric_counters: RicCounters,
    /// Tracker of tuple arrivals used to answer RIC requests.
    ///
    /// Behind a shared lock because it is the one piece of node state read
    /// *across* shards: another shard's effect phase resolves an RIC rate
    /// request against this node, possibly on
    /// another thread while this node's own shard runs effects. Arrivals
    /// are only recorded in the handler phase, which a round finishes on
    /// every shard before any effect phase starts. All other tables are
    /// only ever touched by the shard that owns the node. The `Arc` lets
    /// the engine keep a directory of every node's tracker without aliasing
    /// the rest of the state; an uncontended lock costs a few nanoseconds.
    pub(crate) ric: Arc<Mutex<RicTracker>>,
    /// Log of rewritten-query (`Eval`) arrivals, the query-side twin of
    /// [`ric`](Self::ric): hot-key splitting compares the two streams to
    /// decide which side of a heavy hitter to partition. Only read by the
    /// driver thread between drains (never across shards), so it needs no
    /// lock.
    pub(crate) eval_ric: ArrivalLog,
    /// Sub-join registry: index from canonical sub-join identity to the
    /// stored entry sharing it (see [`crate::SubJoinRegistry`]).
    pub(crate) subjoins: SubJoinRegistry,
    /// Counters of the work the sub-join registry saved on this node.
    pub(crate) sharing: SharingCounters,
    /// The input queries of the queries that reached this node without
    /// their plan, by id (see [`adopt`](Self::adopt)).
    pub(crate) inputs: InputRegistry,
    /// Counters of the plan-driven trigger loop on this node.
    pub(crate) compile: CompileCounters,
    /// Value-partitioned trigger index over `stored_queries` (see
    /// [`crate::trigger_index`] for the maintenance contract): every site
    /// that links or unlinks a bucket handle does it through here, so a
    /// tuple arrival probes O(matching) entries instead of O(bucket).
    pub(crate) trigger_index: TriggerIndex,
    /// Scratch buffer reused by [`advance_expiry`](Self::advance_expiry).
    pub(crate) expiry_scratch: Vec<ExpiryToken>,
    /// Incremental count of stored *rewritten* queries.
    pub(crate) rewritten_count: usize,
    /// Incremental count of stored value-level tuples (plain buckets and
    /// cells).
    pub(crate) tuple_count: usize,
    /// Peak of `tuple_count`.
    pub(crate) tuple_peak: usize,
    /// Incremental count of ALTT entries, and its peak.
    pub(crate) altt_count: usize,
    pub(crate) altt_peak: usize,
}

impl NodeState {
    /// Creates the empty state of node `id`.
    pub fn new(id: Id) -> Self {
        NodeState { id, ..NodeState::default() }
    }

    /// Snapshot of this node's trigger-index probe counters.
    pub fn probe_counters(&self) -> ProbeCounters {
        self.trigger_index.counters()
    }

    /// Snapshot of this node's RIC placement counters.
    pub fn ric_counters(&self) -> RicCounters {
        self.ric_counters
    }

    /// Adds one RIC-aware dispatch's counters to this node's.
    pub fn note_ric(&mut self, dispatch: &RicCounters) {
        self.ric_counters.merge(dispatch);
    }

    /// Locked access to this node's RIC tracker.
    pub fn ric(&self) -> MutexGuard<'_, RicTracker> {
        self.ric.lock().expect("ric lock poisoned")
    }

    /// A shared handle to this node's RIC tracker (for the engine's
    /// cross-shard rate directory).
    pub(crate) fn ric_handle(&self) -> Arc<Mutex<RicTracker>> {
        Arc::clone(&self.ric)
    }

    /// Takes in a query that arrived here. One that comes with its plan
    /// (it never left this process) is taken as it is. One without (it
    /// crossed a wire, or was built by [`PendingQuery::input`] and handed
    /// to the node directly) is pointed at this node's copy of its input
    /// query, registered by the first to arrive with the plan compiled
    /// against `catalog` (counted in the node's [`CompileCounters`]; every
    /// later arrival counts a reuse): every query of one input query on the
    /// node shares one `JoinQuery` and one plan, however many copies the
    /// wire delivers. Returns `false` for a query that can never trigger:
    /// its plan does not compile, or a bound tuple does not fit its slot.
    pub fn adopt(&mut self, pending: &mut PendingQuery, catalog: &Catalog) -> bool {
        if pending.query.plan.get().is_some() {
            return true;
        }
        match self.inputs.entry(pending.query.id) {
            Entry::Occupied(known) => {
                pending.query = Arc::clone(known.get());
                self.compile.cache_hits += 1;
            }
            Entry::Vacant(slot) => {
                let input = &pending.query;
                let Ok(plan) = RewritePlan::new(Arc::clone(&input.query), catalog) else {
                    return false;
                };
                input.plan.set(Arc::new(plan));
                self.compile.programs_compiled += 1;
                slot.insert(Arc::clone(input));
            }
        }
        pending.plan().holds(&pending.bound)
    }

    /// Read access to this node's `Eval`-arrival log (the query-side heat
    /// signal of hot-key splitting).
    pub fn eval_ric(&self) -> &ArrivalLog {
        &self.eval_ric
    }

    /// Read access to this node's sharing counters.
    pub fn sharing(&self) -> &SharingCounters {
        &self.sharing
    }

    /// Read access to this node's plan and trigger counters.
    pub fn compile_counters(&self) -> &CompileCounters {
        &self.compile
    }

    /// Snapshot of this node's store gauges and expiry counters.
    pub fn state_counters(&self) -> StateCounters {
        let mut counters = self.state_counters;
        counters.query_slab_live = self.queries.len() as u64;
        counters.query_slab_high_water = self.queries.high_water() as u64;
        // The tuple count covers plain buckets and cells.
        counters.tuple_slab_live = self.tuple_count as u64;
        counters.tuple_slab_high_water = self.tuple_peak as u64;
        counters.altt_slab_live = self.altt_count as u64;
        counters.altt_slab_high_water = self.altt_peak as u64;
        counters.wheel_scheduled = self.deadlines.len() as u64;
        counters
    }

    /// Read access to this node's sub-join registry.
    pub fn subjoins(&self) -> &SubJoinRegistry {
        &self.subjoins
    }

    /// Books the removal of the stored query `removed` (slab handle
    /// `handle`, on ring `ring`): drops its registry slot, if that still
    /// points at it, and debits the rewritten-query count.
    pub(crate) fn unregister_query(&mut self, ring: u64, removed: &StoredQuery, handle: Handle) {
        if removed.registered {
            let fp = subjoin_fingerprint(removed.pending.subjoin());
            let window = (
                removed.pending.window_start(),
                removed.pending.window_min(),
                removed.pending.window_max(),
            );
            self.subjoins.unregister(ring, fp, window, handle);
        }
        if !removed.pending.is_input() {
            self.rewritten_count -= 1;
        }
    }

    /// Stores a query under its key.
    pub fn store_query(&mut self, stored: StoredQuery) {
        self.store_query_handle(stored);
    }

    fn store_query_handle(&mut self, stored: StoredQuery) -> Handle {
        if !stored.pending.is_input() {
            self.rewritten_count += 1;
        }
        let ring = stored.key.ring();
        let deadline = query_expiry_deadline(&stored);
        let handle = self.queries.insert(stored);
        let bucket = self.stored_queries.entry(ring).or_default();
        self.trigger_index.insert(bucket, handle, &mut self.queries);
        let stored = self.queries.get(handle).expect("inserted above");
        if stored.pending.query.hypercube.is_some() {
            // A hypercube replica opens its ring as a cell. Cell keys are
            // per-query, so a cell never sees a second replica.
            debug_assert!(!self.cells.contains_key(&ring), "one replica per hypercube cell");
            self.cells.entry(ring).or_insert_with(|| Cell::new(handle, stored.pending.plan()));
        }
        if let Some(deadline) = deadline {
            self.deadlines.insert(deadline, ExpiryToken::Query(handle));
        }
        handle
    }

    /// Stores a query, merging it into a structurally identical entry when
    /// `share` is enabled (the shared sub-join path of Procedures 2/3).
    ///
    /// A merge requires the same index key, the same canonical sub-join
    /// signature (relations, conjuncts, window, semantics flag — `SELECT`
    /// abstracted), the same index level and the same window state
    /// (`start` plus the exact `window_min`/`window_max` span);
    /// `DISTINCT` queries never merge (their duplicate-elimination filter
    /// depends on the `SELECT` list). On a merge the incoming query's
    /// subscribers join the entry's subscriber table — O(groups), see
    /// [`PendingQuery::merge_twin`](crate::PendingQuery::merge_twin) — and
    /// **no** new stored copy is created. Returns whether the query was
    /// merged.
    pub fn store_query_shared(&mut self, mut stored: StoredQuery, share: bool) -> bool {
        if !share || stored.pending.query.distinct() {
            self.store_query(stored);
            return false;
        }
        // Rendered once: its fingerprint finds the candidate twin, and the
        // twin's own rendering is checked against it.
        let signature = subjoin_signature(stored.pending.subjoin());
        let fp = signature_fingerprint(&signature);
        let ring = stored.key.ring();
        let ws = stored.pending.window_start();
        let window = (ws, stored.pending.window_min(), stored.pending.window_max());
        // One probe: the slot is held across the store (which never touches
        // the registry), so the registry is moved out while it is borrowed.
        let mut subjoins = std::mem::take(&mut self.subjoins);
        let slot = subjoins.slot(ring, fp, window);
        let twin = match &slot {
            Entry::Occupied(slot) => self.queries.get_mut(*slot.get()),
            Entry::Vacant(_) => None,
        }
        // A fingerprint hit is only a candidate: confirm structural
        // equality so a hash collision can never corrupt answers. The full
        // window state must match too — `window_start` drives expiry and
        // `window_min`/`window_max` drive the sliding-window span gate and
        // subscriber eligibility, so twins created by tuples with different
        // publication times must not share one entry.
        .filter(|entry| {
            entry.level == stored.level
                && entry.pending.window_start() == ws
                && entry.pending.window_min() == stored.pending.window_min()
                && entry.pending.window_max() == stored.pending.window_max()
                && !entry.pending.query.distinct()
                && subjoin_matches(entry.pending.subjoin(), &signature)
        });
        let merged = match twin {
            Some(entry) => {
                self.sharing.merged_queries += stored.pending.subscriber_count() as u64;
                entry.pending.merge_twin(stored.pending);
                true
            }
            None => {
                stored.registered = true;
                // (Re-)points the slot: a structurally distinct entry that
                // collided on the fingerprint loses it to the newcomer.
                slot.insert_entry(self.store_query_handle(stored));
                false
            }
        };
        self.subjoins = subjoins;
        merged
    }

    /// Stores a value-level tuple under the key with ring id `key` — in the
    /// ring's hypercube cell when it hosts one, otherwise in the plain
    /// bucket, in publication order.
    pub fn store_tuple(&mut self, key: u64, tuple: Arc<Tuple>) {
        self.tuple_count += 1;
        self.tuple_peak = self.tuple_peak.max(self.tuple_count);
        let pub_time = tuple.pub_time();
        if let Some(cell) = self.cells.get_mut(&key) {
            let deadline = window_deadline(cell.window(), pub_time);
            let becomes_front = cell.len() == 0;
            cell.push(tuple, deadline.unwrap_or(SimTime::MAX));
            // Eviction is front-only: one token for the front, re-armed by
            // `evict_cell_front` for each new front.
            if let (true, Some(deadline)) = (becomes_front, deadline) {
                self.deadlines.insert(deadline, ExpiryToken::Cell(key));
            }
            return;
        }
        insert_ordered(self.stored_tuples.entry(key).or_default(), tuple, pub_time);
    }

    /// Removes and returns the plain tuple bucket of ring `key`, in
    /// publication order (a hypercube replica registering on the ring
    /// adopts the copies that were routed here ahead of it).
    pub(crate) fn take_stored_tuples(&mut self, key: u64) -> Vec<Arc<Tuple>> {
        let bucket = self.stored_tuples.remove(&key).unwrap_or_default();
        self.tuple_count -= bucket.len();
        bucket.into_iter().map(|(tuple, _)| tuple).collect()
    }

    /// Inserts a tuple into the ALTT with the given expiry time (its
    /// publication time plus Δ). The entry is evicted once the publication
    /// watermark passes `expires_at`; until then an arriving query sees it
    /// if it is delivered no later than `expires_at`.
    pub fn altt_insert(&mut self, key: u64, tuple: Arc<Tuple>, expires_at: SimTime) {
        self.altt_count += 1;
        self.altt_peak = self.altt_peak.max(self.altt_count);
        if insert_ordered(self.altt.entry(key).or_default(), tuple, expires_at) {
            self.deadlines.insert(expires_at.saturating_add(1), ExpiryToken::Altt(key));
        }
    }

    /// Number of queries currently stored (input + rewritten). O(1).
    pub fn stored_query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of *rewritten* queries currently stored. O(1).
    pub fn stored_rewritten_count(&self) -> usize {
        self.rewritten_count
    }

    /// Number of value-level tuples currently stored. O(1).
    pub fn stored_tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Current storage load of the node as the paper defines it: stored
    /// rewritten queries plus stored tuples. O(1) — the counters are
    /// maintained incrementally as state is stored and expired.
    pub fn current_storage_load(&self) -> u64 {
        (self.rewritten_count + self.tuple_count) as u64
    }

    /// Recomputes the storage counters from the tables (test support: the
    /// incremental counters must always agree with a full scan). Also
    /// asserts that every tuple bucket is publication-ordered, that a
    /// value-level entry's key is its publication time, and that the
    /// incremental ALTT count and peak agree with the tables.
    #[cfg(test)]
    pub(crate) fn recount(&self) -> (usize, usize, usize) {
        let entries = || {
            self.stored_queries
                .values()
                .flat_map(Bucket::handles)
                .map(|h| self.queries.get(h).expect("bucket handles are live"))
        };
        let queries = entries().count();
        let rewritten = entries().filter(|s| !s.pending.is_input()).count();
        let ordered = |list: &TupleList| {
            list.iter()
                .zip(list.iter().skip(1))
                .all(|((a, ka), (b, kb))| ka <= kb && a.pub_time() <= b.pub_time())
        };
        assert!(self.stored_tuples.values().chain(self.altt.values()).all(ordered));
        assert!(self.stored_tuples.values().flatten().all(|(t, key)| t.pub_time() == *key));
        let plain: usize = self.stored_tuples.values().map(VecDeque::len).sum();
        let in_cells: usize = self.cells.values().map(Cell::len).sum();
        let retained: usize = self.altt.values().map(VecDeque::len).sum();
        assert_eq!(queries, self.queries.len(), "bucket handles and slab agree");
        assert_eq!(retained, self.altt_count, "ALTT count and tables agree");
        assert!(self.altt_peak >= self.altt_count, "ALTT peak bounds the count");
        (queries, rewritten, plain + in_cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::QueryId;
    use rjoin_query::parse_query;
    use rjoin_relation::Value;

    fn key(text: &str) -> HashedKey {
        HashedKey::new(text)
    }

    fn pending(distinct: bool) -> PendingQuery {
        let sql = if distinct {
            "SELECT DISTINCT R.A FROM R, S WHERE R.A = S.A"
        } else {
            "SELECT R.A FROM R, S WHERE R.A = S.A"
        };
        let input = PendingQuery::input(
            QueryId { owner: Id(1), seq: 0 },
            Id(1),
            0,
            parse_query(sql).unwrap(),
        );
        bound(input, &[], 0)
    }

    fn tuple(pub_time: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new("R", vec![Value::from(1), Value::from(2)], pub_time))
    }

    /// `input` with its plan attached and `tuples` bound, in order, each
    /// published at `start` (the rewritten query the rewrite cascade would
    /// reach by triggering `input` with them).
    fn bound(mut input: PendingQuery, tuples: &[(&str, [i64; 3])], start: u64) -> PendingQuery {
        let mut catalog = Catalog::new();
        for rel in ["R", "S", "J", "T"] {
            catalog.register(rjoin_relation::Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
        }
        assert!(NodeState::default().adopt(&mut input, &catalog), "the query compiles");
        for (relation, values) in tuples {
            let tuple = Tuple::new(*relation, values.map(Value::from).to_vec(), start);
            input = input.child(&Arc::new(tuple), Some(start));
        }
        input
    }

    #[test]
    fn stored_query_gets_dedup_only_when_distinct() {
        let s = StoredQuery::new(pending(false), key("R+A"), IndexLevel::Attribute);
        assert!(s.dedup.is_none());
        let s = StoredQuery::new(pending(true), key("R+A"), IndexLevel::Attribute);
        assert!(s.dedup.is_some());
    }

    #[test]
    fn storage_counts_exclude_input_queries() {
        let mut state = NodeState::new(Id(7));
        state.store_query(StoredQuery::new(pending(false), key("R+A"), IndexLevel::Attribute));
        let rewritten = bound(pending(false), &[("R", [5, 0, 0])], 3);
        state.store_query(StoredQuery::new(rewritten, key("S+A+i:5"), IndexLevel::Value));
        state.store_tuple(key("R+A+i:1").ring(), tuple(0));

        assert_eq!(state.stored_query_count(), 2);
        assert_eq!(state.stored_rewritten_count(), 1);
        assert_eq!(state.stored_tuple_count(), 1);
        assert_eq!(state.current_storage_load(), 2);
        assert_eq!(
            state.recount(),
            (
                state.stored_query_count(),
                state.stored_rewritten_count(),
                state.stored_tuple_count()
            )
        );
    }

    /// An expiry pop debits the storage counters of exactly the entry it
    /// removes: a windowed rewritten query expiring out of a bucket it
    /// shares with a never-expiring input query.
    #[test]
    fn debit_keeps_counters_consistent_with_tables() {
        let mut state = NodeState::new(Id(7));
        let k = key("J+B+i:3");
        state.store_query(StoredQuery::new(windowed_rewritten(1, 3), k.clone(), IndexLevel::Value));
        state.store_query(StoredQuery::new(pending(false), k.clone(), IndexLevel::Value));
        state.advance_expiry(100);

        assert_eq!(state.stored_query_count(), 1);
        assert_eq!(state.stored_rewritten_count(), 0);
        assert_eq!(
            state.recount(),
            (
                state.stored_query_count(),
                state.stored_rewritten_count(),
                state.stored_tuple_count()
            )
        );
    }

    fn input_from(owner: u64, insert_time: u64, sql: &str) -> PendingQuery {
        let id = QueryId { owner: Id(owner), seq: owner };
        bound(PendingQuery::input(id, Id(owner), insert_time, parse_query(sql).unwrap()), &[], 0)
    }

    #[test]
    fn shared_store_merges_identical_subjoins() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A");
        let a = input_from(1, 0, "SELECT R.A FROM R, S WHERE R.A = S.A");
        // Same sub-join, different SELECT list and later insertion time.
        let b = input_from(2, 5, "SELECT S.B, R.C FROM R, S WHERE R.A = S.A");
        assert!(
            !state.store_query_shared(StoredQuery::new(a, k.clone(), IndexLevel::Attribute), true)
        );
        assert!(
            state.store_query_shared(StoredQuery::new(b, k.clone(), IndexLevel::Attribute), true)
        );

        // One stored copy carrying both subscribers.
        assert_eq!(state.stored_query_count(), 1);
        let bucket: Vec<_> = state.stored_queries.get(&k.ring()).unwrap().handles().collect();
        assert_eq!(bucket.len(), 1);
        let entry = state.queries.get(bucket[0]).unwrap();
        assert_eq!(entry.pending.subscriber_count(), 2);
        assert_eq!(entry.pending.min_insert_time(), 0);
        assert_eq!(entry.pending.subscribers.groups()[0].subscribers()[0].insert_time, 5);
        assert_eq!(state.sharing().merged_queries, 1);
        assert_eq!(state.subjoins().len(), 1);
    }

    #[test]
    fn shared_store_respects_structure_window_start_and_distinct() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A");
        let base = input_from(1, 0, "SELECT R.A FROM R, S WHERE R.A = S.A");
        assert!(!state
            .store_query_shared(StoredQuery::new(base, k.clone(), IndexLevel::Attribute), true));

        // Different WHERE: no merge.
        let other = input_from(2, 0, "SELECT R.A FROM R, S WHERE R.B = S.A");
        assert!(!state
            .store_query_shared(StoredQuery::new(other, k.clone(), IndexLevel::Attribute), true));
        // DISTINCT: never merged, even with identical structure.
        let distinct = input_from(3, 0, "SELECT DISTINCT R.A FROM R, S WHERE R.A = S.A");
        assert!(!state.store_query_shared(
            StoredQuery::new(distinct, k.clone(), IndexLevel::Attribute),
            true
        ));
        // Different window start: no merge (expiry would diverge).
        let sql = "SELECT R.A, S.B FROM R, S, J WHERE R.A = S.A AND S.B = J.B";
        let rewritten_a = bound(input_from(4, 0, sql), &[("J", [0, 9, 0])], 3);
        let rewritten_b = bound(input_from(5, 0, sql), &[("J", [0, 9, 0])], 4);
        assert!(!state
            .store_query_shared(StoredQuery::new(rewritten_a, k.clone(), IndexLevel::Value), true));
        assert!(!state
            .store_query_shared(StoredQuery::new(rewritten_b, k.clone(), IndexLevel::Value), true));
        // With sharing disabled nothing ever merges.
        let twin = input_from(6, 0, "SELECT S.B FROM R, S WHERE R.A = S.A");
        assert!(!state
            .store_query_shared(StoredQuery::new(twin, k.clone(), IndexLevel::Attribute), false));

        assert_eq!(state.stored_query_count(), 6);
        assert_eq!(state.sharing().merged_queries, 0);
    }

    /// Regression: two rewritten twins with the same `window_start` but
    /// different contribution spans must not merge — the shared entry's
    /// sliding-window span gate would apply one twin's `[min, max]` to the
    /// other, losing (or wrongly admitting) answers.
    #[test]
    fn shared_store_requires_equal_window_span() {
        let mut state = NodeState::new(Id(7));
        let k = key("J+B+i:3");
        let input = input_from(
            1,
            0,
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
        );
        // The R tuple published at `pub_time`, the S tuple at 10.
        let rewritten = |pub_time: u64| {
            let r = Arc::new(Tuple::new("R", [1, 9, 0].map(Value::from).to_vec(), pub_time));
            let s = Arc::new(Tuple::new("S", [1, 3, 0].map(Value::from).to_vec(), 10));
            bound(input.clone(), &[], 10).child(&r, Some(10)).child(&s, Some(10))
        };
        // Same structure, same window_start (10), but spans [5,10] vs [9,10].
        let g1 = rewritten(5);
        let g2 = rewritten(9);
        assert!(!state.store_query_shared(StoredQuery::new(g1, k.clone(), IndexLevel::Value), true));
        assert!(
            !state.store_query_shared(StoredQuery::new(g2, k.clone(), IndexLevel::Value), true),
            "different contribution spans must not share one entry"
        );
        assert_eq!(state.stored_query_count(), 2);
        // An exact twin (same span) still merges.
        let g3 = rewritten(9);
        assert!(state.store_query_shared(StoredQuery::new(g3, k.clone(), IndexLevel::Value), true));
        assert_eq!(state.stored_query_count(), 2);
    }

    /// The publication times retained in `ring`'s ALTT bucket, front first.
    fn retained(state: &NodeState, ring: u64) -> Vec<u64> {
        state.altt.get(&ring).map_or(Vec::new(), |b| b.iter().map(|(t, _)| t.pub_time()).collect())
    }

    #[test]
    fn drain_and_absorb_keep_counters_consistent() {
        let mut donor = NodeState::new(Id(1));
        let k_q = key("R+A");
        let k_t = key("S+B+i:2");
        donor.store_query_shared(
            StoredQuery::new(
                input_from(1, 0, "SELECT R.A FROM R, S WHERE R.A = S.A"),
                k_q.clone(),
                IndexLevel::Attribute,
            ),
            true,
        );
        donor.store_query_shared(
            StoredQuery::new(
                input_from(2, 1, "SELECT R.B FROM R, S WHERE R.A = S.A"),
                k_q.clone(),
                IndexLevel::Attribute,
            ),
            true,
        );
        donor.store_tuple(k_t.ring(), tuple(3));
        donor.altt_insert(k_q.ring(), tuple(4), 99);

        // Drain only the tuple bucket first (simulating partial re-homing).
        let keep_ring = k_q.ring();
        let partial = donor.drain_misplaced(|ring| ring == keep_ring);
        assert_eq!(partial.tuples.len(), 1);
        assert_eq!(donor.stored_tuple_count(), 0);
        assert_eq!(donor.stored_query_count(), 1, "shared entry counts once");

        // Now everything.
        let rest = donor.into_drained();
        assert_eq!(rest.queries.len(), 1);
        assert_eq!(rest.queries[0].pending.subscriber_count(), 2);
        assert_eq!(rest.altt.len(), 1);

        // The receiver already holds newer tuples on both rings, one of
        // them late: the absorbed buckets are older than what it holds.
        let mut receiver = NodeState::new(Id(2));
        receiver.store_tuple(k_t.ring(), tuple(8));
        receiver.store_tuple(k_t.ring(), tuple(5));
        receiver.altt_insert(k_q.ring(), tuple(9), 104);
        receiver.altt_insert(k_q.ring(), tuple(6), 101);
        assert_eq!(receiver.recount(), (0, 0, 2));
        receiver.absorb(partial, true);
        receiver.absorb(rest, true);
        assert_eq!(receiver.stored_query_count(), 1);
        assert_eq!(receiver.stored_tuple_count(), 3);
        assert_eq!(retained(&receiver, k_q.ring()), [4, 6, 9]);
        assert_eq!(receiver.current_storage_load(), 3);
        assert_eq!(receiver.recount(), (1, 0, 3));
        assert_eq!(receiver.state_counters().altt_slab_high_water, 3);
        // The re-homed shared entry is registered again: a structurally
        // identical newcomer merges into it at the new home.
        let late = input_from(9, 2, "SELECT S.A FROM R, S WHERE R.A = S.A");
        assert!(receiver
            .store_query_shared(StoredQuery::new(late, k_q.clone(), IndexLevel::Attribute), true));
        assert_eq!(receiver.stored_query_count(), 1);
    }

    #[test]
    fn altt_expires_entries() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        state.altt_insert(k, tuple(5), 10);
        state.altt_insert(k, tuple(6), 20);
        // A query delivered at tick 15 no longer sees the first entry: its
        // run starts at the first deadline not before 15.
        let bucket = &state.altt[&k];
        assert_eq!(key_run(bucket, 15, Timestamp::MAX), 1..2);
        // Expiry removes both entries and the emptied bucket.
        state.advance_expiry(100);
        assert!(state.altt.is_empty());
        assert_eq!(state.state_counters().altt_slab_live, 0);
        assert_eq!(state.recount(), (0, 0, 0));
    }

    /// The ALTT run of a query with publication floor 6, delivered at tick
    /// 10 with Δ = 90, starts at deadline `6 + Δ` (the later of that and
    /// the delivery tick): the entry published at 5 lies before it.
    #[test]
    fn altt_matching_respects_min_pub_time() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        state.altt_insert(k, tuple(5), 95);
        state.altt_insert(k, tuple(9), 99);
        assert_eq!(key_run(&state.altt[&k], 6 + 90, Timestamp::MAX), 1..2);
    }

    /// Late inserts land after the entries with an equal deadline and an
    /// absorbed bucket merges in order. A late front arms its own token,
    /// so every entry still leaves once the watermark passes its deadline.
    #[test]
    fn late_and_absorbed_altt_entries_keep_publication_order() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        for pub_time in [5, 9, 7, 2] {
            state.altt_insert(k, tuple(pub_time), pub_time + 10);
        }
        let (late_twin, absorbed_twin) = (tuple(7), tuple(7));
        state.altt_insert(k, Arc::clone(&late_twin), 17);
        assert_eq!(retained(&state, k), [2, 5, 7, 7, 9]);
        // The late front armed its own token.
        state.advance_expiry(13);
        assert_eq!(retained(&state, k), [5, 7, 7, 9]);
        assert_eq!(state.overdue_entries(13), 0);
        let mut donor = NodeState::new(Id(1));
        for pub_time in [1, 12] {
            donor.altt_insert(k, tuple(pub_time), pub_time + 10);
        }
        donor.altt_insert(k, Arc::clone(&absorbed_twin), 17);
        state.absorb(donor.into_drained(), false);
        assert_eq!(retained(&state, k), [1, 5, 7, 7, 7, 9, 12]);
        // Equal deadlines keep arrival order: the held 7s, then the absorbed.
        let bucket = &state.altt[&k];
        assert!(Arc::ptr_eq(&bucket[3].0, &late_twin) && Arc::ptr_eq(&bucket[4].0, &absorbed_twin));
        assert_eq!(state.recount(), (0, 0, 0));
        // Deadlines before 16 are those of 1 (already overdue) and 5.
        state.advance_expiry(16);
        assert_eq!(retained(&state, k), [7, 7, 7, 9, 12]);
        assert_eq!(state.overdue_entries(16), 0);
        state.advance_expiry(23);
        assert!(state.altt.is_empty());
        let counters = state.state_counters();
        assert_eq!((counters.wheel_pops, counters.altt_slab_high_water), (8, 7));
        assert_eq!(state.recount(), (0, 0, 0));
    }

    /// A rewritten query with a sliding window anchored at `start`
    /// (`WINDOW SLIDING 8 TUPLES`: it admits publications up to `start + 7`,
    /// and the expiry deadline is `start + 8`).
    fn windowed_rewritten(owner: u64, start: u64) -> PendingQuery {
        let input = input_from(
            owner,
            0,
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
        );
        bound(input, &[("R", [1, 9, 0]), ("S", [1, 3, 0])], start)
    }

    #[test]
    fn wheel_pops_expired_windowed_queries() {
        let mut state = NodeState::new(Id(7));
        let k = key("J+B+i:3");
        state.store_query_shared(
            StoredQuery::new(windowed_rewritten(1, 10), k.clone(), IndexLevel::Value),
            true,
        );
        assert_eq!(state.stored_query_count(), 1);
        assert_eq!(state.subjoins().len(), 1);
        // Deadline is 10 + 8: one tick earlier nothing pops.
        state.advance_expiry(17);
        assert_eq!(state.stored_query_count(), 1);
        state.advance_expiry(18);
        assert_eq!(state.stored_query_count(), 0);
        assert_eq!(state.stored_rewritten_count(), 0);
        assert_eq!(state.queries.len(), 0, "slab entry reclaimed");
        assert!(!state.stored_queries.contains_key(&k.ring()), "empty bucket dropped");
        assert_eq!(state.subjoins().len(), 0, "registry slot unregistered");
        assert_eq!(state.state_counters().wheel_pops, 1);
        assert_eq!(state.recount(), (0, 0, 0));
    }

    /// A rewritten query that arrives after the heap has passed its
    /// deadline is filed at or before the heap's time: the next advance
    /// pops it even when its target does not move the heap (the engine's
    /// quiescent flush at an unchanged watermark).
    #[test]
    fn a_query_filed_past_its_deadline_pops_at_the_next_advance() {
        let mut state = NodeState::new(Id(7));
        state.advance_expiry(40);
        let k = key("J+B+i:3");
        state.store_query(StoredQuery::new(windowed_rewritten(1, 10), k, IndexLevel::Value));
        assert_eq!((state.stored_query_count(), state.overdue_entries(40)), (1, 1));
        state.advance_expiry(40);
        assert_eq!((state.stored_query_count(), state.overdue_entries(40)), (0, 0));
        assert_eq!(state.state_counters().wheel_pops, 1);
        assert_eq!(state.recount(), (0, 0, 0));
    }

    /// Two tuples delivered in the same tick, the later-published one
    /// handled first (the rounds' lineage order need not be
    /// publication order): the later one must not retire a stored query the
    /// earlier one still completes. It counts toward the publication
    /// watermark from the next tick on, which retires the query.
    #[test]
    fn a_later_published_tuple_of_the_same_tick_does_not_retire_state() {
        use crate::delivery::{handle_node_msg, TickEffect};
        use crate::messages::RJoinMessage;
        let mut catalog = rjoin_relation::Catalog::new();
        catalog.register(rjoin_relation::Schema::new("J", ["A", "B"]).unwrap()).unwrap();
        let config = crate::EngineConfig::default();
        let k = key("J+B+i:3");
        let mut state = NodeState::new(Id(7));
        // Window [10, 17]: the expiry deadline is publication time 18.
        state.store_query(StoredQuery::new(
            windowed_rewritten(1, 10),
            k.clone(),
            IndexLevel::Value,
        ));
        let mut deliver = |at: SimTime, pub_time: Timestamp| {
            let values = vec![Value::from(pub_time as i64), Value::from(3)];
            let tuple = Arc::new(Tuple::new("J", values, pub_time));
            let level = IndexLevel::Value;
            let msg = RJoinMessage::NewTuple { tuple, key: k.clone(), level, publisher: Id(1) };
            match handle_node_msg(&mut state, &catalog, &config, at, at, Id(7), msg) {
                TickEffect::Node { actions, .. } => (actions.len(), state.stored_query_count()),
                _ => unreachable!("a tuple delivery yields a node effect"),
            }
        };
        // Published at 50 (past the window and the expiry stride), handled
        // first in tick 60...
        assert_eq!(deliver(60, 50), (0, 1), "outside the window, and no removal yet");
        // ...so the tuple published at 12 in the same tick still completes it.
        assert_eq!(deliver(60, 12), (1, 1), "the earlier-published tuple still matches");
        // The next tick's delivery advances the heap to 50 and retires it.
        assert_eq!(deliver(61, 51), (0, 0));
    }

    #[test]
    fn wheel_pops_expired_altt_entries() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        state.altt_insert(k, tuple(5), 10);
        state.altt_insert(k, tuple(6), 20);
        // `expiry < now` is the removal rule: at 10 both entries survive.
        state.advance_expiry(10);
        assert_eq!(retained(&state, k), [5, 6]);
        state.advance_expiry(11);
        assert_eq!(retained(&state, k), [6]);
        state.advance_expiry(21);
        assert!(state.altt.is_empty(), "empty bucket dropped");
        assert_eq!(state.state_counters().wheel_pops, 2);
        assert_eq!(state.state_counters().wheel_scheduled, 0);
    }

    #[test]
    fn stale_wheel_tokens_are_skipped() {
        let mut state = NodeState::new(Id(7));
        let k = key("J+B+i:3");
        state.store_query(StoredQuery::new(
            windowed_rewritten(1, 10),
            k.clone(),
            IndexLevel::Value,
        ));
        // Churn got there first: the entry leaves with its drained bucket.
        let drained = state.drain_misplaced(|_| false);
        assert_eq!(drained.queries.len(), 1);
        // The heap still holds the token; popping it must be a no-op.
        state.advance_expiry(100);
        assert_eq!(state.stored_query_count(), 0);
        assert_eq!(state.state_counters().wheel_pops, 0, "stale tokens do not count as pops");
    }

    /// Churn re-homing: the donor's expiry tokens go stale
    /// with the drain, and the receiver re-schedules the absorbed state on
    /// its own deadline heap.
    #[test]
    fn absorbed_state_expires_on_the_receivers_wheel() {
        let mut donor = NodeState::new(Id(1));
        let k = key("J+B+i:3");
        donor.store_query_shared(
            StoredQuery::new(windowed_rewritten(1, 10), k.clone(), IndexLevel::Value),
            true,
        );
        donor.altt_insert(k.ring(), tuple(5), 12);
        let drained = donor.drain_misplaced(|_| false);
        assert_eq!(donor.stored_query_count(), 0);

        let mut receiver = NodeState::new(Id(2));
        receiver.absorb(drained, true);
        assert_eq!(receiver.stored_query_count(), 1);
        assert_eq!(receiver.subjoins().len(), 1, "re-registered at the new home");
        // The donor's heap still holds tokens for the migrated entries;
        // advancing it must not disturb anything (its stores are empty).
        donor.advance_expiry(1000);
        assert_eq!(donor.state_counters().wheel_pops, 0);
        // The receiver's heap owns the deadlines now.
        receiver.advance_expiry(1000);
        assert_eq!(receiver.stored_query_count(), 0);
        assert!(receiver.altt.is_empty());
        assert_eq!(receiver.subjoins().len(), 0);
        assert_eq!(receiver.state_counters().wheel_pops, 2);
    }

    /// A hypercube replica opens its ring as a cell: the ring's tuples are
    /// filed there (not in the plain bucket), evicted by the
    /// deadline heap at their window deadline, and re-homed with the replica.
    #[test]
    fn hypercube_replica_opens_a_cell_that_evicts_and_re_homes() {
        use crate::messages::HypercubeRef;
        let k = key("hcube+0000000000000001+0");
        let replica = input_from(
            1,
            0,
            "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C \
             WINDOW SLIDING 8 TUPLES",
        );
        let replica = replica.with_hypercube(Some(HypercubeRef { base: k.clone(), cells: 1 }));
        let mut donor = NodeState::new(Id(1));
        donor.store_tuple(k.ring(), tuple(3));
        assert_eq!(donor.stored_tuples[&k.ring()].len(), 1, "no cell yet: a plain bucket");
        assert_eq!(donor.take_stored_tuples(k.ring()).len(), 1);
        assert_eq!(donor.recount(), (0, 0, 0));

        donor.store_query(StoredQuery::new(replica, k.clone(), IndexLevel::Value));
        for pub_time in [10, 11, 30] {
            donor.store_tuple(k.ring(), tuple(pub_time));
        }
        assert!(donor.stored_tuples.is_empty(), "cell tuples stay out of the plain store");
        assert_eq!(donor.cells[&k.ring()].len(), 3);
        assert_eq!(donor.stored_tuple_count(), 3);
        // Deadlines are pub + 8: 18, 19 and 38.
        donor.advance_expiry(17);
        assert_eq!(donor.stored_tuple_count(), 3);
        donor.advance_expiry(19);
        assert_eq!(donor.stored_tuple_count(), 1);
        assert_eq!(donor.state_counters().wheel_pops, 2);
        assert_eq!(donor.state_counters().tuple_slab_high_water, 3);
        assert_eq!(donor.recount(), (1, 0, 1));

        let drained = donor.drain_misplaced(|_| false);
        assert_eq!((drained.queries.len(), drained.tuples.len()), (1, 1));
        assert!(donor.cells.is_empty());
        assert_eq!(donor.recount(), (0, 0, 0));
        let mut receiver = NodeState::new(Id(2));
        receiver.absorb(drained, true);
        assert_eq!(receiver.cells[&k.ring()].len(), 1, "the cell re-opened around its replica");
        assert_eq!(receiver.recount(), (1, 0, 1));
        // The donor's tokens lapse; the receiver's heap owns the deadline.
        donor.advance_expiry(100);
        receiver.advance_expiry(38);
        assert_eq!(receiver.stored_tuple_count(), 0);
        assert_eq!(receiver.stored_query_count(), 1, "the replica never expires");
    }

    /// A windowed cell keeps one expiry token, for its front tuple, however
    /// many tuples it stores: each eviction re-arms it for the new front,
    /// and every evicted tuple still counts as a pop (`wheel_pops`).
    #[test]
    fn a_cell_keeps_one_wheel_token_for_its_front() {
        use crate::messages::HypercubeRef;
        let k = key("hcube+0000000000000001+0");
        let replica = input_from(
            1,
            0,
            "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C \
             WINDOW SLIDING 8 TUPLES",
        );
        let replica = replica.with_hypercube(Some(HypercubeRef { base: k.clone(), cells: 1 }));
        let mut node = NodeState::new(Id(1));
        node.store_query(StoredQuery::new(replica, k.clone(), IndexLevel::Value));
        let scheduled = |node: &NodeState| node.state_counters().wheel_scheduled;
        assert_eq!(scheduled(&node), 0, "an input replica never expires");
        for pub_time in [10, 11, 12, 30] {
            node.store_tuple(k.ring(), tuple(pub_time));
        }
        assert_eq!(scheduled(&node), 1, "one token for four tuples");
        // Deadlines 18, 19, 20 and 38: the front's token pops at 18 and
        // re-arms at 19, whose pop at 25 takes 20 along.
        node.advance_expiry(18);
        assert_eq!((node.stored_tuple_count(), scheduled(&node)), (3, 1));
        node.advance_expiry(25);
        assert_eq!((node.stored_tuple_count(), scheduled(&node)), (1, 1));
        node.advance_expiry(38);
        assert_eq!((node.stored_tuple_count(), scheduled(&node)), (0, 0));
        assert_eq!(node.state_counters().wheel_pops, 4);
        // An emptied cell arms a token again at its next push.
        node.store_tuple(k.ring(), tuple(50));
        assert_eq!(scheduled(&node), 1);
    }
}
