//! Per-node RJoin state.
//!
//! # Trigger-index maintenance contract
//!
//! Each stored-query [`Bucket`] carries the partition a value-partitioned
//! [`TriggerIndex`] keeps over its handles (see [`crate::trigger_index`]):
//! every site that links a handle into a bucket must file it in the index,
//! and **every** site that unlinks one — wheel pops
//! ([`NodeState::advance_expiry`]), the sweep-mode collector
//! ([`NodeState::sweep_expired`]) and the procedures' contact-expiry
//! removals — must unfile it with the removed entry, or indexed probes
//! would hand out stale handles and miss live entries (churn drains,
//! [`NodeState::drain_misplaced`], drop the bucket whole). Bucket
//! compaction is `swap_remove`-based; each removal site also fixes the
//! moved entry's [`StoredQuery::bucket_pos`] so unlinking stays O(1).
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
use crate::shared::SubJoinRegistry;
use crate::slab::{Handle, Slab};
use crate::trigger_index::{Bucket, TriggerIndex};
use crate::{ArrivalLog, RicTracker};
use rjoin_dht::{HashedKey, Id, RingMap};
use rjoin_metrics::{CompileCounters, ProbeCounters, SharingCounters, StateCounters};
use rjoin_net::SimTime;
use rjoin_query::{
    fingerprint, subjoin_signature_eq, CompiledTrigger, Fingerprint, IndexLevel, SubJoinProgram,
    WindowSpec,
};
use rjoin_relation::{Timestamp, Tuple};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// How many ticks the per-delivery wheel advance may lag behind the
/// delivery clock (see [`NodeState::advance_expiry_batched`]). Physical
/// removal timing never decides an answer, so the stride only trades a few
/// ticks of extra retained state for one slot crossing per stride instead
/// of one per delivery tick.
const EXPIRY_STRIDE: SimTime = 32;

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

/// One retained attribute-level tuple: its bucket's ring id (so a wheel pop
/// can find the bucket), the shared payload and the retention deadline.
#[derive(Debug, Clone)]
pub(crate) struct AlttEntry {
    pub(crate) ring: u64,
    pub(crate) tuple: Arc<Tuple>,
    pub(crate) expires_at: SimTime,
}

/// A deadline token on the node's timer wheel. Tokens carry slab handles,
/// so a popped token whose entry was already removed (contact expiry,
/// churn migration) fails the generation check and is skipped for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ExpiryToken {
    /// A windowed stored query; pops when no future tuple can be inside its
    /// window anymore.
    Query(Handle),
    /// An ALTT entry; pops when its retention Δ has elapsed.
    Altt(Handle),
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

/// The wheel deadline of a stored query, if it can expire at all: the tick
/// by which every tuple still able to trigger it has been delivered.
/// Publication happens at `pub_time` and every message arrives within the
/// network's delay bound, so `last admissible pub + 1 + slack` (slack = δ)
/// is the first tick at which removal is provably unobservable.
fn query_expiry_deadline(stored: &StoredQuery, slack: SimTime) -> Option<SimTime> {
    let start = stored.pending.window_start?;
    let last_pub = last_window_pub(stored.pending.query.window(), start)?;
    Some(last_pub.saturating_add(1).saturating_add(slack))
}

/// The wheel deadline of a tuple stored in a hypercube cell, if it can be
/// evicted at all — the stored-query deadline read from the tuple's side: a
/// later publication can only share a window with a tuple published at
/// `pub_time` up to `last_window_pub`, and arrives within δ of that.
fn cell_tuple_deadline(
    window: &WindowSpec,
    pub_time: Timestamp,
    slack: SimTime,
) -> Option<SimTime> {
    let last_pub = last_window_pub(window, pub_time)?;
    Some(last_pub.saturating_add(1).saturating_add(slack))
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
/// The three mutable tuple/query stores are **slab-backed**: entries live in
/// per-node generational slabs (`crate::slab::Slab`) and the per-ring
/// buckets hold stable `Handle`s. Removing one entry is O(1) in the slab
/// plus O(bucket) to drop its handle — never O(all stored state): the
/// sub-join registry points at handles (no positional re-registration when
/// a bucket compacts) and the per-node **timer wheel** indexes every
/// windowed query and ALTT entry by its deadline, so expiry pops exactly
/// the dead entries instead of waiting for a walk to stumble over them.
/// External references to removed entries (wheel tokens, registry slots)
/// go stale atomically through the slab's generation counter and are
/// skipped for free.
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
    /// Slab of value-level tuples stored at this node.
    pub(crate) tuples: Slab<Arc<Tuple>>,
    /// Handles of stored value-level tuples, grouped by index-key ring id.
    pub(crate) stored_tuples: RingMap<Vec<Handle>>,
    /// Publication-time sidecar of `stored_tuples`: per ring, the bucket
    /// positions sorted by `(pub_time, position)`. Tuple buckets are
    /// append-only between whole-ring drains (see
    /// [`store_tuple`](Self::store_tuple)), so positions are stable and an
    /// arriving query can binary-search the admissible publication span
    /// instead of walking the full bucket (see
    /// [`crate::trigger_index`] — the eval-side twin of the trigger index).
    pub(crate) stored_tuple_times: RingMap<Vec<(Timestamp, u32)>>,
    /// Hypercube cells, by the ring id of the cell key: the join plan and
    /// indexed tuple store of each replica stored here. A ring is either a
    /// cell or a plain bucket of `stored_tuples`, never both.
    pub(crate) cells: RingMap<Cell>,
    /// Slab of attribute-level tuple table entries: tuples kept for Δ ticks
    /// so that input queries delayed in the network do not miss them
    /// (Section 4).
    pub(crate) altt_entries: Slab<AlttEntry>,
    /// ALTT bucket order (insertion order per ring id, which is expiry
    /// order — retention Δ is constant).
    pub(crate) altt: RingMap<VecDeque<Handle>>,
    /// The node's timer wheel: every windowed stored query and every ALTT
    /// entry, indexed by the tick its removal becomes unobservable.
    pub(crate) wheel: TimerWheel<ExpiryToken>,
    /// Whether wheel-driven expiry is active (`false` runs the legacy
    /// contact-sweep oracle: state is only reclaimed when a walk touches
    /// it).
    pub(crate) wheel_enabled: bool,
    /// The network's delivery-delay bound δ: a tuple published at `p` can
    /// arrive up to `p + slack`, so wheel deadlines are pushed out by it.
    pub(crate) expiry_slack: SimTime,
    /// Counters of the slab/wheel machinery (slab gauges are filled in at
    /// snapshot time by [`state_counters`](Self::state_counters)).
    pub(crate) state_counters: StateCounters,
    /// Candidate table: cached RIC information per candidate-key ring id.
    pub(crate) candidate_table: RingMap<RicEntry>,
    /// How long a candidate-table entry stays usable (`ct_validity`), and
    /// the clock at which the table is next swept for entries past it.
    ric_validity: Option<SimTime>,
    ric_sweep_at: SimTime,
    /// Tracker of tuple arrivals used to answer RIC requests.
    ///
    /// Behind a shared lock because it is the one piece of node state read
    /// *across* shards: under the sharded runtime, another shard's effect
    /// phase resolves an RIC rate request against this node, possibly on
    /// another thread while this node's own shard runs effects. Arrivals
    /// are only recorded in the handler phase, which a round finishes on
    /// every shard before any effect phase starts. All other tables are
    /// only ever touched by the shard that owns the node. The `Arc` lets
    /// the engine keep a directory of every node's tracker without aliasing
    /// the rest of the state; the uncontended lock costs a few nanoseconds
    /// on the sequential path.
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
    /// Scratch buffer reused by the span-bounded eval walk in
    /// [`crate::procedures`] (bucket positions inside the admissible span).
    pub(crate) span_scratch: Vec<u32>,
    /// Incremental count of stored queries (input + rewritten).
    query_count: usize,
    /// Incremental count of stored *rewritten* queries.
    rewritten_count: usize,
    /// Incremental count of stored value-level tuples (plain buckets and
    /// cells).
    tuple_count: usize,
    /// Peak of `tuple_count`.
    tuple_peak: usize,
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
}

impl NodeState {
    /// Creates the empty state of node `id`.
    pub fn new(id: Id) -> Self {
        NodeState {
            id,
            queries: Slab::new(),
            stored_queries: RingMap::default(),
            tuples: Slab::new(),
            stored_tuples: RingMap::default(),
            stored_tuple_times: RingMap::default(),
            cells: RingMap::default(),
            altt_entries: Slab::new(),
            altt: RingMap::default(),
            wheel: TimerWheel::new(),
            wheel_enabled: true,
            expiry_slack: 1,
            state_counters: StateCounters::new(),
            candidate_table: RingMap::default(),
            ric_validity: None,
            ric_sweep_at: 0,
            ric: Arc::new(Mutex::new(RicTracker::new())),
            eval_ric: ArrivalLog::default(),
            subjoins: SubJoinRegistry::new(),
            sharing: SharingCounters::new(),
            programs: Arc::new(Mutex::new(ProgramCache::default())),
            compile: CompileCounters::new(),
            trigger_index: TriggerIndex::new(),
            expiry_scratch: Vec::new(),
            span_scratch: Vec::new(),
            query_count: 0,
            rewritten_count: 0,
            tuple_count: 0,
            tuple_peak: 0,
        }
    }

    /// Selects the expiry mode and the deadline slack (the network's delay
    /// bound δ). The engine calls this on every node it creates.
    pub(crate) fn configure_expiry(&mut self, wheel: bool, slack: SimTime) {
        self.wheel_enabled = wheel;
        self.expiry_slack = slack;
    }

    /// Sets the validity horizon of cached RIC estimates (`ct_validity`):
    /// entries older than it are never served, so the table reclaims them.
    pub(crate) fn configure_ric_validity(&mut self, validity: Option<SimTime>) {
        self.ric_validity = validity;
    }

    /// Snapshot of this node's trigger-index probe counters.
    pub fn probe_counters(&self) -> ProbeCounters {
        self.trigger_index.counters()
    }

    /// Locked access to this node's RIC tracker.
    pub fn ric(&self) -> MutexGuard<'_, RicTracker> {
        self.ric.lock().expect("ric lock poisoned")
    }

    /// A shared handle to this node's RIC tracker (used by the sharded
    /// runtime's rate directory).
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

    /// Snapshot of this node's slab/wheel gauges and expiry counters.
    pub fn state_counters(&self) -> StateCounters {
        let mut counters = self.state_counters;
        counters.query_slab_live = self.queries.len() as u64;
        counters.query_slab_high_water = self.queries.high_water() as u64;
        // Cell tuples live outside the slab; the incremental count covers
        // both stores.
        counters.tuple_slab_live = self.tuple_count as u64;
        counters.tuple_slab_high_water = self.tuple_peak as u64;
        counters.altt_slab_live = self.altt_entries.len() as u64;
        counters.altt_slab_high_water = self.altt_entries.high_water() as u64;
        counters.wheel_scheduled = self.wheel.len() as u64;
        counters
    }

    /// Read access to this node's sub-join registry.
    pub fn subjoins(&self) -> &SubJoinRegistry {
        &self.subjoins
    }

    /// Per-delivery wheel advance, batched: deadline pops only reclaim
    /// memory early — answer validity is decided by the explicit window and
    /// retention filters on every walk (sweep mode never pops at all and is
    /// differentially verified equivalent) — so the delivery hot path lets
    /// the wheel lag up to [`EXPIRY_STRIDE`] ticks and pays the slot
    /// crossing once per stride instead of once per delivery tick.
    /// Drain-end flushes and the differential GC advance fully via
    /// [`advance_expiry`](Self::advance_expiry).
    pub(crate) fn advance_expiry_batched(&mut self, target: SimTime) {
        if target.saturating_sub(self.wheel.now()) < EXPIRY_STRIDE {
            return;
        }
        self.advance_expiry(target);
    }

    /// Advances the node's timer wheel to `target` and removes every stored
    /// query and ALTT entry whose deadline passed. Called by the drivers at
    /// each delivery's tick (idempotent per tick) and once more at the end
    /// of a drain; no-op in sweep mode.
    ///
    /// The target must never exceed the earliest tick of a delivery still
    /// to be handled at this node: deadlines guarantee unobservability only
    /// for deliveries strictly after them (which is why the drivers pass
    /// the delivery tick `at`, not a clock that may run ahead of it).
    pub(crate) fn advance_expiry(&mut self, target: SimTime) {
        if !self.wheel_enabled || target <= self.wheel.now() {
            return;
        }
        let mut due = std::mem::take(&mut self.expiry_scratch);
        self.wheel.advance(target, &mut due);
        for token in due.drain(..) {
            match token {
                ExpiryToken::Query(handle) => self.pop_expired_query(handle),
                ExpiryToken::Altt(handle) => self.pop_expired_altt(handle),
                ExpiryToken::Cell(ring) => {
                    let evicted = self.evict_cell_front(ring, self.wheel.now());
                    self.state_counters.wheel_pops += evicted as u64;
                }
            }
        }
        self.expiry_scratch = due;
    }

    /// Applies one popped query deadline. A stale token (entry already
    /// removed by contact expiry or churn migration) fails the slab's
    /// generation check and costs nothing further.
    fn pop_expired_query(&mut self, handle: Handle) {
        let Some(expired) = self.queries.remove(handle) else { return };
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
        self.state_counters.wheel_pops += 1;
    }

    /// Applies one popped ALTT deadline (stale tokens skipped as above).
    fn pop_expired_altt(&mut self, handle: Handle) {
        let Some(entry) = self.altt_entries.remove(handle) else { return };
        if let Some(bucket) = self.altt.get_mut(&entry.ring) {
            // Deadlines are monotone per bucket (retention Δ is constant)
            // and the wheel pops in deadline order, so the handle is the
            // front entry in all but pathological interleavings: pop it in
            // O(1) instead of scanning the bucket. The positional scan
            // stays as the fallback for out-of-order pops.
            if bucket.front() == Some(&handle) {
                bucket.pop_front();
            } else if let Some(pos) = bucket.iter().position(|h| *h == handle) {
                bucket.remove(pos);
            }
            if bucket.is_empty() {
                self.altt.remove(&entry.ring);
            }
        }
        self.state_counters.wheel_pops += 1;
    }

    /// Evicts the due front tuples of the cell on `ring` (a popped token
    /// whose cell was drained by churn finds nothing) and, when the front
    /// moved, arms the wheel for the new one: a token per cell front, not
    /// per stored tuple. Returns how many tuples were evicted.
    fn evict_cell_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(cell) = self.cells.get_mut(&ring) else { return 0 };
        let evicted = cell.evict_due(now);
        let next = cell.front_deadline().filter(|&deadline| deadline != SimTime::MAX);
        if let (true, true, Some(deadline)) = (self.wheel_enabled, evicted > 0, next) {
            self.wheel.insert(deadline, ExpiryToken::Cell(ring));
        }
        self.tuple_count -= evicted;
        evicted
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

    /// Removes every expired stored query and ALTT entry by scanning the
    /// full tables — the O(stored) sweep the timer wheel replaces. Kept as
    /// the sweep-mode garbage collector so differential harnesses can bring
    /// a sweep-mode engine to the same post-expiry state a wheel-mode
    /// engine maintains continuously (where it is a no-op after
    /// [`advance_expiry`](Self::advance_expiry)).
    pub(crate) fn sweep_expired(&mut self, now: SimTime) {
        let rings: Vec<u64> = self.stored_queries.keys().copied().collect();
        for ring in rings {
            let mut bucket = self.stored_queries.remove(&ring).expect("ring collected above");
            let mut idx = 0;
            while idx < bucket.handles.len() {
                let handle = bucket.handles[idx];
                let expired = self
                    .queries
                    .get(handle)
                    .and_then(|entry| query_expiry_deadline(entry, self.expiry_slack))
                    .is_some_and(|deadline| deadline <= now);
                if !expired {
                    idx += 1;
                    continue;
                }
                bucket.handles.swap_remove(idx);
                if let Some(&moved) = bucket.handles.get(idx) {
                    if let Some(entry) = self.queries.get_mut(moved) {
                        entry.bucket_pos = idx;
                    }
                }
                let removed = self.queries.remove(handle).expect("entry resolved above");
                self.trigger_index.remove(&mut bucket, handle, &removed);
                self.unregister_subjoin(ring, &removed, handle);
                self.query_count -= 1;
                if !removed.pending.is_input() {
                    self.rewritten_count -= 1;
                }
            }
            if !bucket.handles.is_empty() {
                self.stored_queries.insert(ring, bucket);
            }
        }
        let rings: Vec<u64> = self.cells.keys().copied().collect();
        for ring in rings {
            self.evict_cell_front(ring, now);
        }
        self.altt_gc(now);
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
        let deadline = if self.wheel_enabled {
            query_expiry_deadline(&stored, self.expiry_slack)
        } else {
            None
        };
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
            self.wheel.insert(deadline, ExpiryToken::Query(handle));
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

    /// Debits the storage counters after queries were removed directly from
    /// a bucket obtained via `stored_queries` (window-expiry removals in the
    /// procedures' trigger walks).
    pub(crate) fn debit_removed_queries(&mut self, total: usize, rewritten: usize) {
        self.query_count -= total;
        self.rewritten_count -= rewritten;
    }

    /// Stores a value-level tuple under the key with ring id `key` — in the
    /// ring's hypercube cell when it hosts one, in the plain bucket
    /// otherwise.
    ///
    /// Plain buckets are append-only: tuples are only ever removed
    /// ring-at-a-time ([`drain_misplaced`](Self::drain_misplaced),
    /// `take_stored_tuples`), so a tuple's bucket position is stable for
    /// its lifetime and the publication-time sidecar can refer to it by
    /// position.
    pub fn store_tuple(&mut self, key: u64, tuple: Arc<Tuple>) {
        self.tuple_count += 1;
        self.tuple_peak = self.tuple_peak.max(self.tuple_count);
        let pub_time = tuple.pub_time();
        if let Some(cell) = self.cells.get_mut(&key) {
            let deadline = cell_tuple_deadline(&cell.window, pub_time, self.expiry_slack);
            let becomes_front = cell.len() == 0;
            cell.push(tuple, deadline.unwrap_or(SimTime::MAX));
            // Eviction is front-only: one token for the front, re-armed by
            // `evict_cell_front` for each new front.
            if let (true, true, Some(deadline)) = (self.wheel_enabled, becomes_front, deadline) {
                self.wheel.insert(deadline, ExpiryToken::Cell(key));
            }
            return;
        }
        let handle = self.tuples.insert(tuple);
        let bucket = self.stored_tuples.entry(key).or_default();
        let pos = bucket.len() as u32;
        bucket.push(handle);
        let times = self.stored_tuple_times.entry(key).or_default();
        // Publications usually arrive in publication order, so appending is
        // the common case; a late tuple is binary-inserted. Equal pub_times
        // stay in position order because the new position is the largest.
        match times.last() {
            Some(&(t, _)) if t > pub_time => {
                let at = times.partition_point(|&(t2, _)| t2 <= pub_time);
                times.insert(at, (pub_time, pos));
            }
            _ => times.push((pub_time, pos)),
        }
    }

    /// Removes and returns the plain tuple bucket of ring `key`, in arrival
    /// order (a hypercube replica registering on the ring adopts the copies
    /// that were routed here ahead of it).
    pub(crate) fn take_stored_tuples(&mut self, key: u64) -> Vec<Arc<Tuple>> {
        self.stored_tuple_times.remove(&key);
        let bucket = self.stored_tuples.remove(&key).unwrap_or_default();
        let tuples: Vec<Arc<Tuple>> = bucket
            .into_iter()
            .map(|h| self.tuples.remove(h).expect("bucket handles are live"))
            .collect();
        self.tuple_count -= tuples.len();
        tuples
    }

    /// Inserts a tuple into the ALTT with the given expiry time.
    pub fn altt_insert(&mut self, key: u64, tuple: Arc<Tuple>, expires_at: SimTime) {
        let handle = self.altt_entries.insert(AlttEntry { ring: key, tuple, expires_at });
        self.altt.entry(key).or_default().push_back(handle);
        if self.wheel_enabled {
            // `expiry < now` is the removal rule: the first advance target
            // past `expires_at` pops the entry, exactly when the legacy
            // front-pop would have dropped it on contact.
            self.wheel.insert(expires_at.saturating_add(1), ExpiryToken::Altt(handle));
        }
    }

    /// Drops expired ALTT entries at the front of `key`'s bucket (entries
    /// are in expiry order — retention Δ is constant). This is the legacy
    /// contact-driven reclamation; under wheel expiry the same entries pop
    /// at their deadline and this becomes a cheap no-op.
    pub(crate) fn altt_prune(&mut self, key: u64, now: SimTime) {
        let Some(entries) = self.altt.get_mut(&key) else { return };
        while let Some(&handle) = entries.front() {
            match self.altt_entries.get(handle) {
                Some(entry) if entry.expires_at >= now => break,
                _ => {
                    entries.pop_front();
                    self.altt_entries.remove(handle);
                }
            }
        }
    }

    /// Drops expired ALTT entries for `key` and returns the tuples that are
    /// still retained and were published at or after `min_pub_time`.
    pub fn altt_matching(
        &mut self,
        key: u64,
        now: SimTime,
        min_pub_time: Timestamp,
    ) -> Vec<Arc<Tuple>> {
        self.altt_prune(key, now);
        let Some(entries) = self.altt.get(&key) else { return Vec::new() };
        entries
            .iter()
            .filter_map(|h| self.altt_entries.get(*h))
            .filter(|e| e.tuple.pub_time() >= min_pub_time)
            .map(|e| Arc::clone(&e.tuple))
            .collect()
    }

    /// Garbage-collects every expired ALTT entry by scanning all buckets
    /// (the sweep-mode collector; a wheel-mode node reclaims the same
    /// entries at their deadlines).
    pub fn altt_gc(&mut self, now: SimTime) {
        let slab = &mut self.altt_entries;
        for entries in self.altt.values_mut() {
            while let Some(&handle) = entries.front() {
                match slab.get(handle) {
                    Some(entry) if entry.expires_at >= now => break,
                    _ => {
                        entries.pop_front();
                        slab.remove(handle);
                    }
                }
            }
        }
        self.altt.retain(|_, v| !v.is_empty());
    }

    /// Number of ALTT buckets currently retained (diagnostic).
    pub fn altt_len(&self) -> usize {
        self.altt.len()
    }

    /// Drops every candidate-table entry past the validity horizon, once
    /// per horizon: an entry no [`cached_ric`](Self::cached_ric) call at or
    /// after `now` would serve again. Between sweeps the table holds at most
    /// two horizons' worth of observations.
    fn reclaim_stale_ric(&mut self, now: SimTime) {
        let Some(validity) = self.ric_validity else { return };
        if now >= self.ric_sweep_at {
            self.candidate_table.retain(|_, e| now.saturating_sub(e.observed_at) <= validity);
            self.ric_sweep_at = now.saturating_add(validity).saturating_add(1);
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

    /// Looks up a cached RIC estimate that is still valid at `now` given the
    /// configured validity horizon.
    pub fn cached_ric(
        &self,
        key: u64,
        now: SimTime,
        validity: Option<SimTime>,
    ) -> Option<RicEntry> {
        let entry = self.candidate_table.get(&key)?;
        match validity {
            Some(v) if now.saturating_sub(entry.observed_at) > v => None,
            _ => Some(*entry),
        }
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
    /// Wheel tokens of drained entries are left to lapse: the slab removal
    /// bumps each entry's generation, so the tokens are skipped for free at
    /// their deadline and can never touch the re-homed copies (which are
    /// re-scheduled by their new node's [`absorb`](Self::absorb)).
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
            let entries: VecDeque<(Arc<Tuple>, SimTime)> = bucket
                .into_iter()
                .map(|h| {
                    let e = self.altt_entries.remove(h).expect("bucket handles are live");
                    (e.tuple, e.expires_at)
                })
                .collect();
            drained.altt.push((ring, entries));
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
    /// and ALTT entry is re-scheduled on this node's wheel. Queries are
    /// absorbed first: a hypercube replica re-opens its cell, which the
    /// cell's tuples then land in.
    pub fn absorb(&mut self, drained: DrainedState, share: bool) {
        for mut stored in drained.queries {
            // The fingerprint slot is tied to the previous node's slab
            // handle; the shared path recomputes and re-registers it here.
            stored.fingerprint = None;
            self.store_query_shared(stored, share);
        }
        for (ring, bucket) in drained.tuples {
            for tuple in bucket {
                self.store_tuple(ring, tuple);
            }
        }
        for (ring, bucket) in drained.altt {
            for (tuple, expires_at) in bucket {
                self.altt_insert(ring, tuple, expires_at);
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
    /// incremental counters must always agree with a full scan).
    #[cfg(test)]
    fn recount(&self) -> (usize, usize, usize) {
        let entries = || {
            self.stored_queries
                .values()
                .flat_map(|bucket| bucket.handles.iter())
                .map(|h| self.queries.get(*h).expect("bucket handles are live"))
        };
        let queries = entries().count();
        let rewritten = entries().filter(|s| !s.pending.is_input()).count();
        let plain: usize = self.stored_tuples.values().map(Vec::len).sum();
        let in_cells: usize = self.cells.values().map(Cell::len).sum();
        assert_eq!(queries, self.queries.len(), "bucket handles and slab agree");
        assert_eq!(plain, self.tuples.len(), "tuple handles and slab agree");
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

    #[test]
    fn debit_keeps_counters_consistent_with_tables() {
        let mut state = NodeState::new(Id(7));
        let rewritten =
            pending(false).child(parse_query("SELECT 5 FROM S WHERE S.A = 5").unwrap(), Some(3));
        let k = key("S+A+i:5");
        state.store_query(StoredQuery::new(rewritten, k.clone(), IndexLevel::Value));
        state.store_query(StoredQuery::new(pending(false), k.clone(), IndexLevel::Value));
        // Simulate the procedures' expiry removal of the rewritten one: drop
        // its handle from the bucket, its entry from the slab, then debit.
        let handles = state.stored_queries.get(&k.ring()).unwrap().handles.clone();
        for handle in handles {
            if !state.queries.get(handle).unwrap().pending.is_input() {
                state.queries.remove(handle);
                let bucket = &mut state.stored_queries.get_mut(&k.ring()).unwrap().handles;
                let pos = bucket.iter().position(|h| *h == handle).unwrap();
                bucket.swap_remove(pos);
            }
        }
        state.debit_removed_queries(1, 1);

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

        let mut receiver = NodeState::new(Id(2));
        receiver.absorb(partial, true);
        receiver.absorb(rest, true);
        assert_eq!(receiver.stored_query_count(), 1);
        assert_eq!(receiver.stored_tuple_count(), 1);
        assert_eq!(receiver.altt_len(), 1);
        assert_eq!(receiver.current_storage_load(), 1);
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
        // At time 15 the first entry has expired.
        let matching = state.altt_matching(k, 15, 0);
        assert_eq!(matching.len(), 1);
        assert_eq!(matching[0].pub_time(), 6);
        // GC removes empty buckets.
        state.altt_gc(100);
        assert_eq!(state.altt_len(), 0);
        assert_eq!(state.altt_entries.len(), 0, "slab reclaimed too");
    }

    #[test]
    fn altt_matching_respects_min_pub_time() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        state.altt_insert(k, tuple(5), 100);
        state.altt_insert(k, tuple(9), 100);
        let matching = state.altt_matching(k, 10, 6);
        assert_eq!(matching.len(), 1);
        assert_eq!(matching[0].pub_time(), 9);
    }

    /// A rewritten query with a sliding window anchored at `start`
    /// (`WINDOW SLIDING 8 TUPLES`, so `last_window_pub = start + 7` and the
    /// wheel deadline is `start + 8 + slack`).
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
        // Deadline is 10 + 8 + 1 (slack): one tick earlier nothing pops.
        state.advance_expiry(18);
        assert_eq!(state.stored_query_count(), 1);
        state.advance_expiry(19);
        assert_eq!(state.stored_query_count(), 0);
        assert_eq!(state.stored_rewritten_count(), 0);
        assert_eq!(state.queries.len(), 0, "slab entry reclaimed");
        assert!(!state.stored_queries.contains_key(&k.ring()), "empty bucket dropped");
        assert_eq!(state.subjoins().len(), 0, "registry slot unregistered");
        assert_eq!(state.state_counters().wheel_pops, 1);
        assert_eq!(state.recount(), (0, 0, 0));
    }

    #[test]
    fn wheel_pops_expired_altt_entries() {
        let mut state = NodeState::new(Id(7));
        let k = key("R+A").ring();
        state.altt_insert(k, tuple(5), 10);
        state.altt_insert(k, tuple(6), 20);
        // `expiry < now` is the removal rule: at 10 both entries survive.
        state.advance_expiry(10);
        assert_eq!(state.altt_entries.len(), 2);
        state.advance_expiry(11);
        assert_eq!(state.altt_entries.len(), 1);
        state.advance_expiry(21);
        assert_eq!(state.altt_entries.len(), 0);
        assert_eq!(state.altt_len(), 0, "empty bucket dropped");
        assert_eq!(state.state_counters().wheel_pops, 2);
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
        // Contact expiry got there first: the entry leaves through the
        // bucket path, as the procedures' trigger walk would remove it.
        let handle = state.stored_queries.get(&k.ring()).unwrap().handles[0];
        state.queries.remove(handle);
        state.stored_queries.remove(&k.ring());
        state.debit_removed_queries(1, 1);
        // The wheel still holds the token; popping it must be a no-op.
        state.advance_expiry(100);
        assert_eq!(state.stored_query_count(), 0);
        assert_eq!(state.state_counters().wheel_pops, 0, "stale tokens do not count as pops");
    }

    #[test]
    fn sweep_mode_matches_wheel_after_gc() {
        let build = |wheel: bool| {
            let mut state = NodeState::new(Id(7));
            state.configure_expiry(wheel, 1);
            let k = key("J+B+i:3");
            state.store_query_shared(
                StoredQuery::new(windowed_rewritten(1, 10), k.clone(), IndexLevel::Value),
                true,
            );
            state.store_query_shared(
                StoredQuery::new(windowed_rewritten(2, 40), k.clone(), IndexLevel::Value),
                true,
            );
            state.altt_insert(k.ring(), tuple(5), 12);
            state.altt_insert(k.ring(), tuple(6), 60);
            // Advance + sweep: in wheel mode the sweep is a no-op after the
            // advance; in sweep mode the sweep does all the work.
            state.advance_expiry(30);
            state.sweep_expired(30);
            state
        };
        let wheel = build(true);
        let sweep = build(false);
        assert_eq!(wheel.stored_query_count(), 1);
        assert_eq!(sweep.stored_query_count(), wheel.stored_query_count());
        assert_eq!(sweep.stored_rewritten_count(), wheel.stored_rewritten_count());
        assert_eq!(sweep.altt_entries.len(), wheel.altt_entries.len());
        assert_eq!(wheel.state_counters().wheel_pops, 2, "one query + one ALTT entry popped");
        assert_eq!(sweep.state_counters().wheel_pops, 0);
        assert_eq!(sweep.state_counters().wheel_scheduled, 0, "sweep mode schedules nothing");
    }

    /// Churn re-homing through the slab: the donor's wheel tokens go stale
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
        // advancing it must not disturb anything (the slabs are empty).
        donor.advance_expiry(1000);
        assert_eq!(donor.state_counters().wheel_pops, 0);
        // The receiver's wheel owns the deadlines now.
        receiver.advance_expiry(1000);
        assert_eq!(receiver.stored_query_count(), 0);
        assert_eq!(receiver.altt_entries.len(), 0);
        assert_eq!(receiver.subjoins().len(), 0);
        assert_eq!(receiver.state_counters().wheel_pops, 2);
    }

    /// A hypercube replica opens its ring as a cell: the ring's tuples are
    /// filed there (not in the slab-backed plain bucket), evicted by the
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
        assert_eq!(donor.tuples.len(), 1, "no cell yet: a plain bucket");
        assert_eq!(donor.take_stored_tuples(k.ring()).len(), 1);
        assert_eq!(donor.recount(), (0, 0, 0));

        donor.store_query(StoredQuery::new(replica, k.clone(), IndexLevel::Value));
        for pub_time in [10, 11, 30] {
            donor.store_tuple(k.ring(), tuple(pub_time));
        }
        assert_eq!(donor.tuples.len(), 0, "cell tuples stay out of the plain store");
        assert_eq!(donor.cells[&k.ring()].len(), 3);
        assert_eq!(donor.stored_tuple_count(), 3);
        // Deadlines are pub + 8 + 1 (slack): 19, 20 and 39.
        donor.advance_expiry(18);
        assert_eq!(donor.stored_tuple_count(), 3);
        donor.advance_expiry(20);
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
        receiver.advance_expiry(39);
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
        // Deadlines 19, 20, 21 and 39: the front's token pops at 19 and
        // re-arms at 20, whose pop at 25 takes 21 along.
        node.advance_expiry(19);
        assert_eq!((node.stored_tuple_count(), scheduled(&node)), (3, 1));
        node.advance_expiry(25);
        assert_eq!((node.stored_tuple_count(), scheduled(&node)), (1, 1));
        node.advance_expiry(39);
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
        let entry = state.cached_ric(k.ring(), 25, None).unwrap();
        assert_eq!(entry.rate, 9);
        assert_eq!(entry.observed_at, 20);
        // Validity horizon rejects stale entries.
        assert!(state.cached_ric(k.ring(), 200, Some(50)).is_none());
        assert!(state.cached_ric(k.ring(), 60, Some(50)).is_some());
        assert!(state.cached_ric(key("unknown").ring(), 0, None).is_none());
    }

    /// Entries past the validity horizon are reclaimed by later touches of
    /// the table: over three horizons of one fresh key per tick it never
    /// holds more than two horizons' worth, and every read answers as if
    /// nothing had been dropped.
    #[test]
    fn candidate_table_reclaims_entries_past_validity() {
        const VALIDITY: SimTime = 50;
        let mut state = NodeState::new(Id(7));
        state.configure_ric_validity(Some(VALIDITY));
        let fresh = |tick: SimTime| key(&format!("R+A+i:{tick}"));
        for now in 1..=3 * VALIDITY {
            if now % 2 == 0 {
                state.cache_ric(fresh(now).ring(), RicEntry { rate: now, observed_at: now });
            } else {
                state.merge_ric(&[RicInfo { key: fresh(now), rate: now, observed_at: now }], now);
            }
            assert!(state.candidate_table.len() as u64 <= 2 * VALIDITY + 1, "at {now}");
            for seen in 1..=now {
                let cached = state.cached_ric(fresh(seen).ring(), now, Some(VALIDITY));
                assert_eq!(cached.map(|e| e.rate), (now - seen <= VALIDITY).then_some(seen));
            }
        }
        // Without a horizon nothing is ever stale, so nothing is dropped.
        let mut unbounded = NodeState::new(Id(8));
        for now in 1..=3 * VALIDITY {
            unbounded.cache_ric(fresh(now).ring(), RicEntry { rate: now, observed_at: now });
        }
        assert_eq!(unbounded.candidate_table.len() as u64, 3 * VALIDITY);
    }
}
