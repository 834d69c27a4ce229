//! Per-node RJoin state.
//!
//! # Trigger-index maintenance contract
//!
//! Each stored-query [`Bucket`] carries the partition a value-partitioned
//! [`TriggerIndex`] keeps over its handles (see [`crate::trigger_index`]):
//! every site that links a handle into a bucket must file it in the index,
//! and the one site that unlinks a single handle — the wheel pop
//! ([`NodeState::advance_expiry`]) — must unfile it with the removed entry,
//! or indexed probes would hand out stale handles and miss live entries
//! (churn drains, [`NodeState::drain_misplaced`], drop the bucket whole).
//! Bucket compaction is `swap_remove`-based; the pop also fixes the moved
//! entry's [`StoredQuery::bucket_pos`] so unlinking stays O(1).
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
//!
//! # Expiry on publication time
//!
//! Section 5 deletes a rewritten query whose window a tuple exceeds. Here
//! the timer wheel carries that rule out: every windowed stored query,
//! cell tuple and ALTT entry is filed under a deadline in *publication*
//! time (cells and ALTT buckets through one token for their front, as
//! they evict from the front only), and the wheel is advanced to the
//! node's **publication
//! watermark** — the highest publication time among the tuples this node
//! received in an earlier delivery tick
//! ([`NodeState::expire_for_delivery`]). Tuples enter the network in
//! publication order and every message takes the same delay, so a tuple
//! delivered in a later tick was published no earlier than the watermark:
//! a deadline the watermark has passed can no longer be met, whichever
//! clock the driver runs. Deliveries of the *same* tick are excluded,
//! because their handling order (the rounds' lineage order) need
//! not be publication order.
//!
//! # Hypercube cells
//!
//! A ring that hosts the replica of a hypercube-planned query is a **cell**
//! (see [`crate::cell`]): storing the replica opens it, and from then on
//! [`NodeState::store_tuple`] files that ring's tuples in the cell's
//! indexed store instead of the plain bucket. The replica itself stays an
//! ordinary slab entry, so the storage counters, the trigger-index contract
//! and churn treat it like any other stored input query; churn drains a
//! cell as its replica plus its tuples in arrival order and the receiving
//! node re-opens it from exactly those two.

use crate::cell::Cell;
use crate::dedup::DedupFilter;
use crate::expiry::TimerWheel;
use crate::messages::{PendingQuery, RicInfo};
use crate::ric::RIC_VALIDITY;
use crate::shared::SubJoinRegistry;
use crate::slab::{Handle, Slab};
use crate::trigger_index::{Bucket, TriggerIndex};
use crate::{ArrivalLog, RicTracker};
use rjoin_dht::{HashedKey, Id, RingBuildHasher, RingMap};
use rjoin_metrics::{CompileCounters, ProbeCounters, SharingCounters, StateCounters};
use rjoin_net::SimTime;
use rjoin_query::{
    fingerprint, subjoin_signature_eq, CompiledTrigger, Fingerprint, IndexLevel, SubJoinProgram,
    WindowSpec,
};
use rjoin_relation::{Timestamp, Tuple};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// How far (in publication time) the per-delivery wheel advance may lag
/// behind the node's publication watermark (see
/// [`NodeState::expire_for_delivery`]). Physical removal timing never
/// decides an answer, so the stride only trades a little extra retained
/// state for one slot crossing per stride instead of one per delivery.
const EXPIRY_STRIDE: Timestamp = 32;

/// A query (input or rewritten) stored at a node, waiting for tuples.
#[derive(Debug, Clone)]
pub struct StoredQuery {
    /// The query and its metadata.
    pub pending: PendingQuery,
    /// The interned key under which it is stored.
    pub key: HashedKey,
    /// Whether the key is attribute-level or value-level.
    pub level: IndexLevel,
    /// Duplicate-elimination filter, present for `SELECT DISTINCT` queries.
    pub dedup: Option<DedupFilter>,
    /// The sub-join fingerprint, computed when the entry was stored through
    /// the shared path (`None` for unshared or `DISTINCT` entries).
    pub(crate) fingerprint: Option<Fingerprint>,
    /// The compiled trigger program for this entry, built lazily at first
    /// trigger (the trigger relation is only known once a tuple arrives).
    /// Stays valid for the entry's lifetime: nothing mutates the stored
    /// query in place (merges only touch subscriber lists).
    pub(crate) program: Option<CompiledTrigger>,
    /// The entry's current position in its ring bucket, kept up to date by
    /// every bucket mutation (`swap_remove` sites fix the moved entry), so
    /// unlinking one handle is O(1) instead of an O(bucket) rescan.
    pub(crate) bucket_pos: usize,
}

impl StoredQuery {
    /// Wraps a pending query for local storage.
    pub fn new(pending: PendingQuery, key: HashedKey, level: IndexLevel) -> Self {
        let dedup = if pending.query.distinct() { Some(DedupFilter::new()) } else { None };
        StoredQuery { pending, key, level, dedup, fingerprint: None, program: None, bucket_pos: 0 }
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
fn merge_ordered(
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

/// A deadline token on the node's timer wheel. Query tokens carry slab
/// handles, so a popped token whose entry was already removed (churn
/// migration) fails the generation check and is skipped for free; the
/// other two name a ring whose front is due, and find nothing once the
/// ring has been drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ExpiryToken {
    /// A windowed stored query; pops once the publication watermark has
    /// passed its window, which is Section 5's window-exceeded deletion.
    Query(Handle),
    /// The front entry of the ALTT bucket on this ring; pops once the
    /// watermark passes its retention Δ, and reclaims every front entry
    /// that is due. One token per bucket front, armed as for cells.
    Altt(u64),
    /// The front tuple of the hypercube cell on this ring; pops when no
    /// future publication can share a window with it. Cells evict from the
    /// front only, so a cell has one token at a time: scheduled when a tuple
    /// becomes the front (pushed into an empty cell, or left in front by an
    /// eviction), and a pop reclaims every front tuple that is due (see
    /// [`Cell::evict_due`]).
    Cell(u64),
}

/// The last publication time a tuple may carry and still fall inside the
/// window anchored at `start` — the wheel's expiry anchor. `None` for
/// unwindowed queries (they never expire).
pub(crate) fn last_window_pub(window: &WindowSpec, start: Timestamp) -> Option<Timestamp> {
    match window {
        WindowSpec::None => None,
        // `within(start, p)` holds for p up to start + duration - 1.
        WindowSpec::Sliding { duration, .. } => {
            Some(start.saturating_add(duration.saturating_sub(1)))
        }
        // A tumbling window admits exactly `start`'s bucket: publications up
        // to the bucket's last tick. Zero-length windows admit nothing; any
        // deadline at or before `start` retires the dead entry promptly.
        WindowSpec::Tumbling { duration, .. } => {
            if *duration == 0 {
                Some(start)
            } else {
                Some((start / duration + 1).saturating_mul(*duration).saturating_sub(1))
            }
        }
    }
}

/// The wheel deadline of a stored query, if it can expire at all: the first
/// publication time its window does not admit. Once the node's publication
/// watermark reaches it, no tuple still to be delivered can trigger the
/// query.
fn query_expiry_deadline(stored: &StoredQuery) -> Option<Timestamp> {
    let start = stored.pending.window_start?;
    let last_pub = last_window_pub(stored.pending.query.window(), start)?;
    Some(last_pub.saturating_add(1))
}

/// The wheel deadline of a tuple stored in a hypercube cell, if it can be
/// evicted at all — the stored-query deadline read from the tuple's side: a
/// later publication can only share a window with a tuple published at
/// `pub_time` up to `last_window_pub`.
fn cell_tuple_deadline(window: &WindowSpec, pub_time: Timestamp) -> Option<Timestamp> {
    Some(last_window_pub(window, pub_time)?.saturating_add(1))
}

/// Cache of compiled `WHERE`-side programs, keyed by
/// [`shape_fingerprint`](rjoin_query::shape_fingerprint): the sub-join with
/// its constants erased, so every rewritten query of one shape finds one
/// program. A fingerprint hit is a candidate only — entries confirm
/// structural equality via [`SubJoinProgram::matches_source`] before reuse,
/// so a hash collision costs one extra compile, never a wrong program.
pub(crate) type ProgramCache = RingMap<Vec<Arc<SubJoinProgram>>>;

/// A cached RIC observation (an entry of the candidate table of Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicEntry {
    /// Estimated arrivals per RIC window.
    pub rate: u64,
    /// When the estimate was taken.
    pub observed_at: SimTime,
}

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
/// alone, when its wheel token pops, in O(1) — the sub-join registry and
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
#[derive(Debug, Clone)]
pub struct NodeState {
    /// The node's identifier.
    pub id: Id,
    /// Slab of queries stored at this node.
    pub(crate) queries: Slab<StoredQuery>,
    /// Handles of stored queries, grouped by the ring id of the key they
    /// are indexed under, each group with its trigger-index partition.
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
    /// The node's timer wheel, in publication time: every windowed stored
    /// query, cell front and ALTT bucket front, indexed by the publication
    /// time from which its removal is unobservable.
    pub(crate) wheel: TimerWheel<ExpiryToken>,
    /// Tokens filed at a deadline the wheel had already passed (a rewritten
    /// query that arrives after its window closed): the next
    /// [`advance_expiry`](Self::advance_expiry) pops them, whatever its
    /// target.
    overdue: Vec<ExpiryToken>,
    /// The publication watermark the wheel is advanced to: the highest
    /// publication time among tuples delivered here before
    /// `watermark_tick` (see the module docs).
    pub_watermark: Timestamp,
    /// The delivery tick of the latest delivery handled here.
    watermark_tick: SimTime,
    /// The highest publication time among all tuples delivered here,
    /// including the current tick's; it becomes the watermark when a later
    /// tick starts.
    latest_pub: Timestamp,
    /// Counters of the store/wheel machinery (occupancy gauges are filled
    /// in at snapshot time by [`state_counters`](Self::state_counters)).
    pub(crate) state_counters: StateCounters,
    /// Candidate table: cached RIC information per candidate-key ring id.
    pub(crate) candidate_table: RingMap<RicEntry>,
    /// The clock at which the candidate table is next swept for entries
    /// past [`RIC_VALIDITY`].
    ric_sweep_at: SimTime,
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
    /// Cache of compiled `WHERE`-side programs, keyed by shape fingerprint.
    /// Shared engine-wide (every node of one engine holds a handle to the
    /// same cache): programs are pure functions of the sub-join structure
    /// and the trigger relation's schema, both of which are identical on
    /// every node of an engine, so a twin stored on another node reuses the
    /// program instead of recompiling. The lock is only taken when a stored
    /// entry's per-entry trigger slot misses — first trigger of an entry per
    /// relation — so contention between shard workers is negligible.
    pub(crate) programs: Arc<Mutex<ProgramCache>>,
    /// Counters of the compiled-rewrite hot loop on this node.
    pub(crate) compile: CompileCounters,
    /// Value-partitioned trigger index over `stored_queries` (see
    /// [`crate::trigger_index`] for the maintenance contract): every site
    /// that links or unlinks a bucket handle mirrors the change here, so a
    /// tuple arrival probes O(matching) entries instead of O(bucket).
    pub(crate) trigger_index: TriggerIndex,
    /// Scratch buffer reused by [`advance_expiry`](Self::advance_expiry).
    expiry_scratch: Vec<ExpiryToken>,
    /// Incremental count of stored queries (input + rewritten).
    query_count: usize,
    /// Incremental count of stored *rewritten* queries.
    rewritten_count: usize,
    /// Incremental count of stored value-level tuples (plain buckets and
    /// cells).
    tuple_count: usize,
    /// Peak of `tuple_count`.
    tuple_peak: usize,
    /// Incremental count of ALTT entries, and its peak.
    altt_count: usize,
    altt_peak: usize,
}

/// Unlinks `handle` from its ring bucket in O(1): `expected_pos` is the
/// entry's maintained [`StoredQuery::bucket_pos`], verified before use (a
/// positional scan remains as a defensive fallback for externally mutated
/// buckets). The entry `swap_remove` moves into the freed slot gets its
/// `bucket_pos` fixed up, preserving the invariant for later unlinks.
pub(crate) fn unlink_from_bucket(
    bucket: &mut Vec<Handle>,
    queries: &mut Slab<StoredQuery>,
    handle: Handle,
    expected_pos: usize,
) {
    let pos = match bucket.get(expected_pos) {
        Some(h) if *h == handle => Some(expected_pos),
        _ => bucket.iter().position(|h| *h == handle),
    };
    let Some(pos) = pos else { return };
    bucket.swap_remove(pos);
    if let Some(&moved) = bucket.get(pos) {
        if let Some(entry) = queries.get_mut(moved) {
            entry.bucket_pos = pos;
        }
    }
}

/// One drained ALTT bucket: the key ring id and its retained
/// `(tuple, expiry)` entries.
pub type DrainedAlttBucket = (u64, VecDeque<(Arc<Tuple>, SimTime)>);

/// Node state drained for re-homing during churn: the buckets a node no
/// longer owns (or all of them, when the node leaves), ready to be absorbed
/// by the nodes now responsible for the keys.
#[derive(Debug, Default)]
pub struct DrainedState {
    /// Stored queries (each carries its interned key, so the new owner can
    /// be resolved from `key.id()`).
    pub queries: Vec<StoredQuery>,
    /// Value-level tuple buckets, by key ring id.
    pub tuples: Vec<(u64, Vec<Arc<Tuple>>)>,
    /// ALTT buckets (tuple + expiry time), by key ring id.
    pub altt: Vec<DrainedAlttBucket>,
}

impl DrainedState {
    /// Total number of drained items (queries + tuples + ALTT entries).
    pub fn len(&self) -> usize {
        self.queries.len()
            + self.tuples.iter().map(|(_, b)| b.len()).sum::<usize>()
            + self.altt.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// Whether nothing was drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the drained items by the node `owner_of` names for each key
    /// (a query's key identifier, a bucket's ring id). An item whose lookup
    /// fails is left out; the lookup errors are returned alongside.
    pub fn group_by_owner<E>(
        self,
        mut owner_of: impl FnMut(Id) -> Result<Id, E>,
    ) -> (HashMap<Id, DrainedState, RingBuildHasher>, Vec<E>) {
        let mut shares: HashMap<Id, DrainedState, RingBuildHasher> = HashMap::default();
        let mut errors = Vec::new();
        let mut owner = |id: Id| owner_of(id).map_err(|e| errors.push(e)).ok();
        for stored in self.queries {
            if let Some(owner) = owner(stored.key.id()) {
                shares.entry(owner).or_default().queries.push(stored);
            }
        }
        for (ring, bucket) in self.tuples {
            if let Some(owner) = owner(Id(ring)) {
                shares.entry(owner).or_default().tuples.push((ring, bucket));
            }
        }
        for (ring, bucket) in self.altt {
            if let Some(owner) = owner(Id(ring)) {
                shares.entry(owner).or_default().altt.push((ring, bucket));
            }
        }
        (shares, errors)
    }
}

impl NodeState {
    /// Creates the empty state of node `id`.
    pub fn new(id: Id) -> Self {
        NodeState {
            id,
            queries: Slab::new(),
            stored_queries: RingMap::default(),
            stored_tuples: RingMap::default(),
            cells: RingMap::default(),
            altt: RingMap::default(),
            wheel: TimerWheel::new(),
            overdue: Vec::new(),
            pub_watermark: 0,
            watermark_tick: 0,
            latest_pub: 0,
            state_counters: StateCounters::new(),
            candidate_table: RingMap::default(),
            ric_sweep_at: 0,
            ric: Arc::new(Mutex::new(RicTracker::new())),
            eval_ric: ArrivalLog::default(),
            subjoins: SubJoinRegistry::new(),
            sharing: SharingCounters::new(),
            programs: Arc::new(Mutex::new(ProgramCache::default())),
            compile: CompileCounters::new(),
            trigger_index: TriggerIndex::new(),
            expiry_scratch: Vec::new(),
            query_count: 0,
            rewritten_count: 0,
            tuple_count: 0,
            tuple_peak: 0,
            altt_count: 0,
            altt_peak: 0,
        }
    }

    /// Snapshot of this node's trigger-index probe counters.
    pub fn probe_counters(&self) -> ProbeCounters {
        self.trigger_index.counters()
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

    /// Points this node at `cache` as its compiled-program cache. The engine
    /// calls this on every node it creates so the whole ring shares one
    /// cache (see the field docs on [`programs`](Self::programs)).
    pub(crate) fn share_programs(&mut self, cache: Arc<Mutex<ProgramCache>>) {
        self.programs = cache;
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

    /// Read access to this node's compiled-rewrite counters.
    pub fn compile_counters(&self) -> &CompileCounters {
        &self.compile
    }

    /// Snapshot of this node's store/wheel gauges and expiry counters.
    pub fn state_counters(&self) -> StateCounters {
        let mut counters = self.state_counters;
        counters.query_slab_live = self.queries.len() as u64;
        counters.query_slab_high_water = self.queries.high_water() as u64;
        // The tuple count covers plain buckets and cells.
        counters.tuple_slab_live = self.tuple_count as u64;
        counters.tuple_slab_high_water = self.tuple_peak as u64;
        counters.altt_slab_live = self.altt_count as u64;
        counters.altt_slab_high_water = self.altt_peak as u64;
        counters.wheel_scheduled = (self.wheel.len() + self.overdue.len()) as u64;
        counters
    }

    /// Read access to this node's sub-join registry.
    pub fn subjoins(&self) -> &SubJoinRegistry {
        &self.subjoins
    }

    /// Expires state ahead of one delivery at tick `at`: when `at` starts a
    /// new tick, the tuples of the earlier ticks become the publication
    /// watermark, and the wheel advances to it (stride-batched, see
    /// [`EXPIRY_STRIDE`]). `tuple_pub` is the publication time of the
    /// delivered tuple, if the delivery is one; it only counts from the next
    /// tick on, so a later-published tuple handled first within a tick
    /// cannot retire state an earlier-published one of the same tick still
    /// matches.
    pub(crate) fn expire_for_delivery(&mut self, at: SimTime, tuple_pub: Option<Timestamp>) {
        if at > self.watermark_tick {
            self.watermark_tick = at;
            self.pub_watermark = self.latest_pub;
        }
        if self.pub_watermark.saturating_sub(self.wheel.now()) >= EXPIRY_STRIDE {
            self.advance_expiry(self.pub_watermark);
        }
        if let Some(pub_time) = tuple_pub {
            self.latest_pub = self.latest_pub.max(pub_time);
        }
    }

    /// Advances the node's timer wheel to the publication time `target` and
    /// removes every stored query, cell tuple and ALTT entry whose deadline
    /// it reached, along with the overdue ones filed since the last
    /// advance. Called per delivery with the node's publication
    /// watermark ([`expire_for_delivery`](Self::expire_for_delivery)) and,
    /// at quiescence, with the engine's.
    ///
    /// The target must never exceed the publication time of a tuple still
    /// to be delivered here: the deadlines guarantee unobservability only
    /// for tuples published at or after them.
    pub(crate) fn advance_expiry(&mut self, target: Timestamp) {
        let mut due = std::mem::take(&mut self.expiry_scratch);
        due.append(&mut self.overdue);
        self.wheel.advance(target, &mut due);
        for token in due.drain(..) {
            let now = self.wheel.now();
            let evicted = match token {
                ExpiryToken::Query(handle) => self.pop_expired_query(handle),
                ExpiryToken::Altt(ring) => self.evict_altt_front(ring, now),
                ExpiryToken::Cell(ring) => self.evict_cell_front(ring, now),
            };
            self.state_counters.wheel_pops += evicted as u64;
        }
        self.expiry_scratch = due;
    }

    /// Applies one popped query deadline and returns how many entries it
    /// removed. A stale token (entry already removed by churn migration)
    /// fails the slab's generation check and costs nothing further.
    fn pop_expired_query(&mut self, handle: Handle) -> usize {
        let Some(expired) = self.queries.remove(handle) else { return 0 };
        let ring = expired.key.ring();
        if let Some(bucket) = self.stored_queries.get_mut(&ring) {
            unlink_from_bucket(&mut bucket.handles, &mut self.queries, handle, expired.bucket_pos);
            self.trigger_index.remove(bucket, handle, &expired);
            if bucket.handles.is_empty() {
                self.stored_queries.remove(&ring);
            }
        }
        self.unregister_subjoin(ring, &expired, handle);
        self.query_count -= 1;
        if !expired.pending.is_input() {
            self.rewritten_count -= 1;
        }
        1
    }

    /// Evicts the due front entries of the ALTT bucket on `ring` — those
    /// whose retention deadline lies before `now` — and, when the front
    /// moved, arms the wheel for the new one. Returns how many entries were
    /// evicted.
    fn evict_altt_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(bucket) = self.altt.get_mut(&ring) else { return 0 };
        let due = bucket.partition_point(|&(_, expires_at)| expires_at < now);
        bucket.drain(..due);
        match bucket.front().map(|&(_, expires_at)| expires_at) {
            None => {
                self.altt.remove(&ring);
            }
            Some(next) if due > 0 => self.schedule(next.saturating_add(1), ExpiryToken::Altt(ring)),
            Some(_) => {}
        }
        self.altt_count -= due;
        due
    }

    /// Evicts the due front tuples of the cell on `ring` (a popped token
    /// whose cell was drained by churn finds nothing) and, when the front
    /// moved, arms the wheel for the new one: a token per cell front, not
    /// per stored tuple. Returns how many tuples were evicted.
    fn evict_cell_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(cell) = self.cells.get_mut(&ring) else { return 0 };
        let evicted = cell.evict_due(now);
        let next = cell.front_deadline().filter(|&deadline| deadline != SimTime::MAX);
        if let (true, Some(deadline)) = (evicted > 0, next) {
            self.schedule(deadline, ExpiryToken::Cell(ring));
        }
        self.tuple_count -= evicted;
        evicted
    }

    /// Files `token` under `deadline`: on the wheel, or on the overdue list
    /// when the wheel has already passed it.
    fn schedule(&mut self, deadline: Timestamp, token: ExpiryToken) {
        if deadline <= self.wheel.now() {
            self.overdue.push(token);
        } else {
            self.wheel.insert(deadline, token);
        }
    }

    /// Drops the registry slot of a removed entry, if it still points at it.
    fn unregister_subjoin(&mut self, ring: u64, removed: &StoredQuery, handle: Handle) {
        if let Some(fp) = removed.fingerprint {
            let window = (
                removed.pending.window_start,
                removed.pending.window_min,
                removed.pending.window_max,
            );
            self.subjoins.unregister(ring, fp, window, handle);
        }
    }

    /// Stores a query under its key.
    pub fn store_query(&mut self, stored: StoredQuery) {
        self.store_query_handle(stored);
    }

    fn store_query_handle(&mut self, mut stored: StoredQuery) -> Handle {
        self.query_count += 1;
        if !stored.pending.is_input() {
            self.rewritten_count += 1;
        }
        let ring = stored.key.ring();
        let deadline = query_expiry_deadline(&stored);
        let bucket = self.stored_queries.entry(ring).or_default();
        stored.bucket_pos = bucket.handles.len();
        let handle = self.queries.insert(stored);
        bucket.handles.push(handle);
        self.trigger_index.insert(bucket, handle, &self.queries);
        let stored = self.queries.get(handle).expect("inserted above");
        if stored.pending.hypercube.is_some() {
            // A hypercube replica opens its ring as a cell. Cell keys are
            // per-query, so a cell never sees a second replica.
            debug_assert!(!self.cells.contains_key(&ring), "one replica per hypercube cell");
            self.cells.entry(ring).or_insert_with(|| Cell::new(handle, &stored.pending.query));
        }
        if let Some(deadline) = deadline {
            self.schedule(deadline, ExpiryToken::Query(handle));
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
        let ring = stored.key.ring();
        let fp = fingerprint(&stored.pending.query);
        let ws = stored.pending.window_start;
        let window = (ws, stored.pending.window_min, stored.pending.window_max);
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
                && entry.pending.window_start == ws
                && entry.pending.window_min == stored.pending.window_min
                && entry.pending.window_max == stored.pending.window_max
                && !entry.pending.query.distinct()
                && subjoin_signature_eq(&entry.pending.query, &stored.pending.query)
        });
        let merged = match twin {
            Some(entry) => {
                self.sharing.merged_queries += stored.pending.subscriber_count() as u64;
                entry.pending.merge_twin(stored.pending);
                true
            }
            None => {
                stored.fingerprint = Some(fp);
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
            let deadline = cell_tuple_deadline(&cell.window, pub_time);
            let becomes_front = cell.len() == 0;
            cell.push(tuple, deadline.unwrap_or(SimTime::MAX));
            // Eviction is front-only: one token for the front, re-armed by
            // `evict_cell_front` for each new front.
            if let (true, Some(deadline)) = (becomes_front, deadline) {
                self.schedule(deadline, ExpiryToken::Cell(key));
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
            self.schedule(expires_at.saturating_add(1), ExpiryToken::Altt(key));
        }
    }

    /// Number of live windowed entries — stored queries, cell tuples and
    /// ALTT entries — whose wheel deadline the publication time `watermark`
    /// has reached (diagnostic). Zero on every node after the engine's
    /// quiescent flush to its publication watermark: the wheel leaves no
    /// expired entry behind.
    pub fn overdue_entries(&self, watermark: Timestamp) -> usize {
        let overdue = |deadline: Option<Timestamp>| deadline.is_some_and(|d| d <= watermark);
        let queries = self
            .stored_queries
            .values()
            .flat_map(|bucket| &bucket.handles)
            .filter_map(|h| self.queries.get(*h))
            .filter(|stored| overdue(query_expiry_deadline(stored)))
            .count();
        let in_cells =
            self.cells.values().flat_map(Cell::deadlines).filter(|&d| d <= watermark).count();
        let retained =
            self.altt.values().flatten().filter(|&&(_, expires_at)| expires_at < watermark).count();
        queries + in_cells + retained
    }

    /// Drops every candidate-table entry past [`RIC_VALIDITY`], once per
    /// horizon: an entry no [`cached_ric`](Self::cached_ric) call at or
    /// after `now` would serve again. Between sweeps the table holds at most
    /// two horizons' worth of observations.
    fn reclaim_stale_ric(&mut self, now: SimTime) {
        if now >= self.ric_sweep_at {
            self.candidate_table.retain(|_, e| now.saturating_sub(e.observed_at) <= RIC_VALIDITY);
            self.ric_sweep_at = now.saturating_add(RIC_VALIDITY).saturating_add(1);
        }
    }

    /// Merges the RIC observations piggy-backed on a message handled at
    /// clock `now` into the candidate table, keeping the most recent
    /// estimate per key (Section 7).
    pub fn merge_ric(&mut self, infos: &[RicInfo], now: SimTime) {
        self.reclaim_stale_ric(now);
        for info in infos {
            let fresh = RicEntry { rate: info.rate, observed_at: info.observed_at };
            let entry = self.candidate_table.entry(info.key.ring()).or_insert(fresh);
            if info.observed_at >= entry.observed_at {
                *entry = fresh;
            }
        }
    }

    /// Looks up a cached RIC estimate that is still valid at `now`: observed
    /// no more than [`RIC_VALIDITY`] ticks earlier.
    pub fn cached_ric(&self, key: u64, now: SimTime) -> Option<RicEntry> {
        let entry = self.candidate_table.get(&key)?;
        (now.saturating_sub(entry.observed_at) <= RIC_VALIDITY).then_some(*entry)
    }

    /// Caches one RIC estimate, just observed, for a candidate key.
    pub fn cache_ric(&mut self, ring: u64, entry: RicEntry) {
        self.reclaim_stale_ric(entry.observed_at);
        self.candidate_table.insert(ring, entry);
    }

    /// Drains every bucket whose key ring id fails `keep` (the node is no
    /// longer responsible for it after a membership change), adjusting the
    /// storage counters and the sub-join registry. The drained state is
    /// returned so the engine can hand it to the new owners.
    ///
    /// Wheel tokens of drained entries are left to lapse: a query's slab
    /// removal bumps its generation, and a drained ring's front token finds
    /// no bucket, so the tokens are skipped for free at their deadline and
    /// can never touch the re-homed copies (which are re-scheduled by their
    /// new node's [`absorb`](Self::absorb)).
    pub fn drain_misplaced(&mut self, mut keep: impl FnMut(u64) -> bool) -> DrainedState {
        let mut drained = DrainedState::default();
        let rings: Vec<u64> = self.stored_queries.keys().copied().filter(|r| !keep(*r)).collect();
        for ring in rings {
            let bucket = self.stored_queries.remove(&ring).expect("ring collected above");
            self.trigger_index.forget(&bucket);
            for handle in bucket.handles {
                let stored = self.queries.remove(handle).expect("bucket handles are live");
                self.unregister_subjoin(ring, &stored, handle);
                self.query_count -= 1;
                if !stored.pending.is_input() {
                    self.rewritten_count -= 1;
                }
                drained.queries.push(stored);
            }
        }
        let rings: Vec<u64> = self.stored_tuples.keys().copied().filter(|r| !keep(*r)).collect();
        for ring in rings {
            drained.tuples.push((ring, self.take_stored_tuples(ring)));
        }
        // A cell re-homes as its replica (drained with the queries above)
        // plus its tuples in arrival order; plan and index are rebuilt
        // at the new owner, and this node's wheel tokens for it lapse.
        let rings: Vec<u64> = self.cells.keys().copied().filter(|r| !keep(*r)).collect();
        for ring in rings {
            let tuples = self.cells.remove(&ring).expect("ring collected above").into_tuples();
            self.tuple_count -= tuples.len();
            drained.tuples.push((ring, tuples));
        }
        let rings: Vec<u64> = self.altt.keys().copied().filter(|r| !keep(*r)).collect();
        for ring in rings {
            let bucket = self.altt.remove(&ring).expect("ring collected above");
            self.altt_count -= bucket.len();
            drained.altt.push((ring, bucket));
        }
        drained
    }

    /// Consumes the node's entire application state (graceful leave: the
    /// departing node hands everything to its successors).
    pub fn into_drained(mut self) -> DrainedState {
        self.drain_misplaced(|_| false)
    }

    /// Absorbs re-homed state from another node. Queries go through the
    /// shared path when `share` is enabled, so structurally identical
    /// entries re-merge at their new home; every windowed query, cell tuple
    /// and ALTT bucket front is re-scheduled on this node's wheel. Queries
    /// are absorbed first: a hypercube replica re-opens its cell, which the
    /// cell's tuples then land in. Every other bucket is merged into the
    /// ring's own in publication order.
    pub fn absorb(&mut self, drained: DrainedState, share: bool) {
        for mut stored in drained.queries {
            // The fingerprint slot is tied to the previous node's slab
            // handle; the shared path recomputes and re-registers it here.
            stored.fingerprint = None;
            self.store_query_shared(stored, share);
        }
        for (ring, bucket) in drained.tuples {
            if self.cells.contains_key(&ring) {
                for tuple in bucket {
                    self.store_tuple(ring, tuple);
                }
                continue;
            }
            self.tuple_count += bucket.len();
            self.tuple_peak = self.tuple_peak.max(self.tuple_count);
            let keyed = bucket.into_iter().map(|tuple| {
                let pub_time = tuple.pub_time();
                (tuple, pub_time)
            });
            merge_ordered(self.stored_tuples.entry(ring).or_default(), keyed);
        }
        for (ring, bucket) in drained.altt {
            self.altt_count += bucket.len();
            self.altt_peak = self.altt_peak.max(self.altt_count);
            let list = self.altt.entry(ring).or_default();
            merge_ordered(list, bucket);
            // The merged front may be older than the old one: arm for it (a
            // surplus token finds nothing due when it pops).
            if let Some(&(_, front)) = list.front() {
                self.schedule(front.saturating_add(1), ExpiryToken::Altt(ring));
            }
        }
    }

    /// Number of queries currently stored (input + rewritten). O(1).
    pub fn stored_query_count(&self) -> usize {
        self.query_count
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
                .flat_map(|bucket| bucket.handles.iter())
                .map(|h| self.queries.get(*h).expect("bucket handles are live"))
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
        PendingQuery::input(QueryId { owner: Id(1), seq: 0 }, Id(1), 0, parse_query(sql).unwrap())
    }

    fn tuple(pub_time: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new("R", vec![Value::from(1), Value::from(2)], pub_time))
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
        let rewritten =
            pending(false).child(parse_query("SELECT 5 FROM S WHERE S.A = 5").unwrap(), Some(3));
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

    /// A wheel pop debits the storage counters of exactly the entry it
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
        PendingQuery::input(
            QueryId { owner: Id(owner), seq: owner },
            Id(owner),
            insert_time,
            parse_query(sql).unwrap(),
        )
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
        let bucket = &state.stored_queries.get(&k.ring()).unwrap().handles;
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
        let rewritten_a =
            input_from(4, 0, "SELECT R.A, S.B FROM R, S, J WHERE R.A = S.A AND S.B = J.B")
                .child(parse_query("SELECT R.A, 9 FROM R, S WHERE R.A = S.A").unwrap(), Some(3));
        let rewritten_b =
            input_from(5, 0, "SELECT R.A, S.B FROM R, S, J WHERE R.A = S.A AND S.B = J.B")
                .child(parse_query("SELECT R.A, 8 FROM R, S WHERE R.A = S.A").unwrap(), Some(4));
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
        let rewritten = |pub_time: u64| {
            let mut child = input.child(
                parse_query("SELECT 9, J.A FROM J WHERE J.B = 3 WINDOW SLIDING 8 TUPLES").unwrap(),
                Some(10),
            );
            child.note_contribution(pub_time);
            child.note_contribution(10);
            child
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
        // The wheel removes both entries and the emptied bucket.
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
    /// (`WINDOW SLIDING 8 TUPLES`, so `last_window_pub = start + 7` and the
    /// wheel deadline is `start + 8`).
    fn windowed_rewritten(owner: u64, start: u64) -> PendingQuery {
        input_from(
            owner,
            0,
            "SELECT R.B, J.A FROM R, S, J WHERE R.A = S.A AND S.B = J.B WINDOW SLIDING 8 TUPLES",
        )
        .child(
            parse_query("SELECT 9, J.A FROM J WHERE J.B = 3 WINDOW SLIDING 8 TUPLES").unwrap(),
            Some(start),
        )
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

    /// Two tuples delivered in the same tick, the later-published one
    /// handled first (the rounds' lineage order need not be
    /// publication order): the later one must not retire a stored query the
    /// earlier one still completes. It counts toward the publication
    /// watermark from the next tick on, which retires the query.
    #[test]
    fn a_later_published_tuple_of_the_same_tick_does_not_retire_state() {
        use crate::engine::{handle_node_msg, TickEffect};
        use crate::messages::RJoinMessage;
        let mut catalog = rjoin_relation::Catalog::new();
        catalog.register(rjoin_relation::Schema::new("J", ["A", "B"]).unwrap()).unwrap();
        let config = crate::EngineConfig::default();
        let k = key("J+B+i:3");
        let mut state = NodeState::new(Id(7));
        // Window [10, 17]: the wheel deadline is publication time 18.
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
        // The next tick's delivery advances the wheel to 50 and retires it.
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
        // The wheel still holds the token; popping it must be a no-op.
        state.advance_expiry(100);
        assert_eq!(state.stored_query_count(), 0);
        assert_eq!(state.state_counters().wheel_pops, 0, "stale tokens do not count as pops");
    }

    /// Churn re-homing: the donor's wheel tokens go stale
    /// with the drain, and the receiver re-schedules the absorbed state on
    /// its own wheel.
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
        // The donor's wheel still holds tokens for the migrated entries;
        // advancing it must not disturb anything (its stores are empty).
        donor.advance_expiry(1000);
        assert_eq!(donor.state_counters().wheel_pops, 0);
        // The receiver's wheel owns the deadlines now.
        receiver.advance_expiry(1000);
        assert_eq!(receiver.stored_query_count(), 0);
        assert!(receiver.altt.is_empty());
        assert_eq!(receiver.subjoins().len(), 0);
        assert_eq!(receiver.state_counters().wheel_pops, 2);
    }

    /// A hypercube replica opens its ring as a cell: the ring's tuples are
    /// filed there (not in the plain bucket), evicted by the
    /// wheel at their window deadline, and re-homed with the replica.
    #[test]
    fn hypercube_replica_opens_a_cell_that_evicts_and_re_homes() {
        use crate::messages::HypercubeRef;
        let k = key("hcube+0000000000000001+0");
        let mut replica = input_from(
            1,
            0,
            "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C \
             WINDOW SLIDING 8 TUPLES",
        );
        replica.hypercube = Some(HypercubeRef { base: k.clone(), cells: 1 });
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
        // The donor's tokens lapse; the receiver's wheel owns the deadline.
        donor.advance_expiry(100);
        receiver.advance_expiry(38);
        assert_eq!(receiver.stored_tuple_count(), 0);
        assert_eq!(receiver.stored_query_count(), 1, "the replica never expires");
    }

    /// A windowed cell keeps one wheel token, for its front tuple, however
    /// many tuples it stores: each eviction re-arms it for the new front,
    /// and every evicted tuple still counts as a wheel pop.
    #[test]
    fn a_cell_keeps_one_wheel_token_for_its_front() {
        use crate::messages::HypercubeRef;
        let k = key("hcube+0000000000000001+0");
        let mut replica = input_from(
            1,
            0,
            "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C \
             WINDOW SLIDING 8 TUPLES",
        );
        replica.hypercube = Some(HypercubeRef { base: k.clone(), cells: 1 });
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

    #[test]
    fn candidate_table_keeps_most_recent_and_respects_validity() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A");
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 5, observed_at: 10 }], 10);
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 9, observed_at: 20 }], 20);
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 1, observed_at: 15 }], 21); // older, ignored
        let entry = state.cached_ric(k.ring(), 25).unwrap();
        assert_eq!(entry.rate, 9);
        assert_eq!(entry.observed_at, 20);
        // The validity horizon rejects stale entries.
        assert!(state.cached_ric(k.ring(), 20 + RIC_VALIDITY).is_some());
        assert!(state.cached_ric(k.ring(), 21 + RIC_VALIDITY).is_none());
        assert!(state.cached_ric(key("unknown").ring(), 0).is_none());
    }

    /// Entries past the validity horizon are reclaimed by later touches of
    /// the table: over three horizons of one fresh key per tick it never
    /// holds more than two horizons' worth, and every read answers as if
    /// nothing had been dropped.
    #[test]
    fn candidate_table_reclaims_entries_past_validity() {
        let mut state = NodeState::new(Id(7));
        let keys: Vec<HashedKey> =
            (0..=3 * RIC_VALIDITY).map(|t| key(&format!("R+A+i:{t}"))).collect();
        for now in 1..=3 * RIC_VALIDITY {
            let fresh = &keys[now as usize];
            if now % 2 == 0 {
                state.cache_ric(fresh.ring(), RicEntry { rate: now, observed_at: now });
            } else {
                state
                    .merge_ric(&[RicInfo { key: fresh.clone(), rate: now, observed_at: now }], now);
            }
            assert!(state.candidate_table.len() as u64 <= 2 * RIC_VALIDITY + 1, "at {now}");
            for seen in 1..=now {
                let cached = state.cached_ric(keys[seen as usize].ring(), now);
                assert_eq!(cached.map(|e| e.rate), (now - seen <= RIC_VALIDITY).then_some(seen));
            }
        }
    }
}
