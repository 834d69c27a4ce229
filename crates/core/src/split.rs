//! Hot-key splitting: share-based partitioning for heavy-hitter keys.
//!
//! Identifier movement (Karger & Ruhl, `rjoin_dht::balance`) balances load
//! that is *spread over many keys* by letting lightly loaded nodes take over
//! part of a heavy node's arc. It is powerless against a **point mass**: a
//! single hot key hashes to one identifier, and whichever node owns that
//! identifier carries the key's entire load. Afrati, Ullman &
//! Vasilakopoulos's share-based partitioning solves exactly this case by
//! giving the heavy hitter a *share* of the network: the key is split into
//! `s` deterministic sub-keys ([`rjoin_dht::HashedKey::split_part`]), one
//! side of the join is **partitioned** over the sub-keys and the other side
//! is **replicated** to all of them.
//!
//! The share assignment follows the Shares/hypercube idea: a split key's
//! `s` sub-keys form a two-axis `r × c` [`HypercubeGrid`]. A tuple routes
//! to one *row* (axis 0) by content hash ([`partition_for_tuple`]) and is
//! indexed at that row's `c` cells; a query routes to one *column* (the
//! second axis) by identity hash ([`partition_for_query`]) and registers
//! at that column's `r` cells. The two sets intersect in exactly one cell, so
//! every `(stored query, tuple)` pair still meets exactly once — the one
//! rewrite/completion the unsplit run would have performed at the base key
//! happens at exactly one sub-key, and the answer stream is the same
//! multiset as the unsplit run
//! (`DISTINCT` duplicates are removed by the owner-side filter as before).
//! What changes is *where the work lands*: per cell, tuple deliveries
//! divide by `r` and `Eval` deliveries divide by `c`.
//!
//! The grid shape is the share: [`choose_grid`] apportions `s` between the
//! two dimensions in proportion to the key's observed tuple vs. `Eval`
//! rates (minimizing the dominant per-cell stream), so a tuple-hot key
//! gets an `(s, 1)` grid (pure tuple partitioning), an `Eval`-hot key gets
//! `(1, s)` (pure query partitioning), and a key heavy on both sides gets
//! a balanced rectangle — Afrati, Ullman & Vasilakopoulos's shares,
//! specialized to RJoin's two delivery streams.
//!
//! [`SplitMap`] is the engine-global registry of active splits. It is
//! mutated only between drains (split activation happens on the driver
//! thread, when a publication observes that a key's rate crossed the
//! configured threshold, or when a harness calls
//! [`RJoinEngine::split_key`]) and read-only during drains, which is what
//! makes the rounds' concurrent dispatch safe and deterministic. Activation
//! moves the base key's stored state to the sub-keys where future arrivals
//! will look for it, through the drain-and-absorb path churn uses (the
//! `rehome` module).
//!
//! # From 2-D grids to N-dimensional hypercubes
//!
//! A split key's grid is the two-axis case of the general **shares**
//! model. The hypercube query plan uses the same [`HypercubeGrid`] with `k`
//! axes (`rjoin_query::plan`): each axis is one join-attribute equivalence
//! class with share `s_i`, the grid spans `s_1 × … × s_k` cells, and the
//! share vector comes from the planner's `allocate_shares` — the
//! k-dimensional generalization of [`choose_grid`]'s rule of minimizing the
//! dominant per-cell stream.
//!
//! Routing generalizes the row/column rule to *subcubes*. A tuple hashes
//! each attribute its relation binds ([`partition_for_value`]) to pin a
//! coordinate on that axis, and is replicated across the axes it leaves
//! unbound: its copies land on the axis-aligned subcube
//! ([`HypercubeGrid::subcube`]) fixed by its bound coordinates. The
//! hypercube-planned query (the Eval side) replicates to **all** cells —
//! the `k`-axis analogue of a query registering at its column's whole row
//! set. Any full joining combination agrees on every class value, so it
//! pins every coordinate and its tuples co-occur in **exactly one** cell:
//! each answer is produced once globally, with no cross-cell coordination
//! and no per-cell dedup (`DISTINCT` still collapses owner-side). The
//! engine's registry of hypercube plans follows [`SplitMap`]'s discipline:
//! written at query submission, read-only while tuples are routed.

use crate::engine::RJoinEngine;
use crate::error::EngineError;
use crate::messages::{HypercubeRef, QueryId};
use crate::node_state::StoredQuery;
use crate::rehome::DrainedState;
use crate::ric::RIC_WINDOW;
use rjoin_dht::{HashedKey, RingMap};
use rjoin_metrics::PlannerCounters;
use rjoin_net::SimTime;
use rjoin_query::plan::HypercubePlan;
use rjoin_query::{IndexKey, IndexLevel, JoinQuery};
use rjoin_relation::{Catalog, Name, Tuple, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// An N-dimensional share grid: the cell space of a hypercube-planned
/// query, one axis per join-attribute equivalence class, or of a split hot
/// key, two axes (`rows × cols`, tuples pinned on axis 0, queries on axis
/// 1). It carries the share vector `s_1 … s_k` and linearizes cells in
/// row-major (mixed-radix, last axis fastest) order, so a split key's cell
/// `(row, col)` is `row · cols + col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypercubeGrid {
    shares: Vec<u32>,
}

impl HypercubeGrid {
    /// A grid with the given per-axis shares.
    ///
    /// # Panics
    /// Panics if any share is zero (an axis with no partitions has no
    /// coordinates). A zero-axis grid is allowed: it has one cell, the
    /// centralized degenerate case.
    pub fn new(shares: Vec<u32>) -> Self {
        assert!(shares.iter().all(|&s| s >= 1), "every axis share must be non-zero");
        HypercubeGrid { shares }
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.shares.len()
    }

    /// The per-axis shares.
    pub fn shares(&self) -> &[u32] {
        &self.shares
    }

    /// Total number of cells (`∏ s_i`; `1` for a zero-axis grid).
    pub fn cells(&self) -> u32 {
        self.shares.iter().product()
    }

    /// The linear index of the cell at `coords` (row-major, last axis
    /// fastest).
    ///
    /// # Panics
    /// Panics if `coords` has the wrong arity or a coordinate is out of its
    /// axis range.
    pub fn cell_of(&self, coords: &[u32]) -> u32 {
        assert_eq!(coords.len(), self.dims(), "coordinate arity must match the axis count");
        let mut cell = 0u32;
        for (i, (&c, &s)) in coords.iter().zip(&self.shares).enumerate() {
            assert!(c < s, "coordinate {c} out of range on axis {i} (share {s})");
            cell = cell * s + c;
        }
        cell
    }

    /// The linear indices of the axis-aligned subcube fixed by the bound
    /// coordinates: axes with `Some(c)` are pinned to `c`, axes with `None`
    /// range over their whole share. This is where a tuple's index copies
    /// land — `∏ s_i` over its unbound axes cells, in ascending linear
    /// order (deterministic everywhere).
    ///
    /// # Panics
    /// Panics if `bound` has the wrong arity or a pinned coordinate is out
    /// of range.
    pub fn subcube(&self, bound: &[Option<u32>]) -> Vec<u32> {
        assert_eq!(bound.len(), self.dims(), "binding arity must match the axis count");
        let copies: u32 =
            bound.iter().zip(&self.shares).map(|(b, &s)| if b.is_some() { 1 } else { s }).product();
        let mut cells = Vec::with_capacity(copies as usize);
        let mut coords: Vec<u32> = bound.iter().map(|b| b.unwrap_or(0)).collect();
        loop {
            cells.push(self.cell_of(&coords));
            // Odometer over the unbound axes, last axis fastest.
            let mut axis = self.dims();
            loop {
                if axis == 0 {
                    return cells;
                }
                axis -= 1;
                if bound[axis].is_some() {
                    continue;
                }
                coords[axis] += 1;
                if coords[axis] < self.shares[axis] {
                    break;
                }
                coords[axis] = 0;
            }
        }
    }
}

/// How a delivery (tuple copy or query) reaches a split key's cells: its
/// own partition's cell set — one cell when the other dimension is 1, a
/// row/column of cells otherwise.
pub type SplitRoute = Vec<HashedKey>;

/// One active split: the base key and its share grid.
#[derive(Debug, Clone)]
pub struct SplitEntry {
    /// The (unsplit) base key.
    pub key: HashedKey,
    /// The two-axis share grid: tuple-side rows × query-side columns.
    pub grid: HypercubeGrid,
    /// Simulation time at which the split was activated.
    pub split_at: SimTime,
}

/// Apportions `s` cells between the tuple and query dimensions in
/// proportion to the observed arrival rates: among the factor pairs
/// `(r, c)` with `r · c = s`, picks the one minimizing the dominant
/// per-cell stream `max(tuple_rate / r, eval_rate / c)`; ties break toward
/// the tuple side (larger `r`), whose stream is unbounded in a continuous
/// system. With a zero `Eval` rate this degenerates to `(s, 1)` (pure tuple
/// partitioning: queries register at every cell), with a zero tuple rate to
/// `(1, s)` (pure query partitioning).
pub fn choose_grid(s: u32, tuple_rate: u64, eval_rate: u64) -> HypercubeGrid {
    let s = s.max(2);
    let mut best: Option<(u64, u32)> = None;
    for rows in (1..=s).rev() {
        if !s.is_multiple_of(rows) {
            continue;
        }
        let cols = s / rows;
        let cost = (tuple_rate / rows as u64).max(eval_rate / cols as u64);
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, rows));
        }
    }
    let rows = best.expect("s >= 2 always has the (s, 1) factorization").1;
    HypercubeGrid::new(vec![rows, s / rows])
}

/// The sub-keys of `key` on the subcube of `grid` fixed by `bound`.
fn sub_keys(key: &HashedKey, grid: &HypercubeGrid, bound: &[Option<u32>]) -> SplitRoute {
    grid.subcube(bound).into_iter().map(|cell| key.split_part(cell, grid.cells())).collect()
}

/// The engine-global registry of split hot keys, indexed by the base key's
/// ring identifier.
#[derive(Debug, Clone, Default)]
pub struct SplitMap {
    entries: RingMap<SplitEntry>,
}

impl SplitMap {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the key with base ring identifier `base_ring` is split.
    pub fn is_split(&self, base_ring: u64) -> bool {
        self.entries.contains_key(&base_ring)
    }

    /// The split entry for `base_ring`, if the key is split.
    pub fn get(&self, base_ring: u64) -> Option<&SplitEntry> {
        self.entries.get(&base_ring)
    }

    /// Registers a split of `key` over the given share grid. Returns
    /// `false` (and changes nothing) if the key was already split.
    pub fn insert(&mut self, key: HashedKey, grid: HypercubeGrid, split_at: SimTime) -> bool {
        if self.entries.contains_key(&key.ring()) {
            return false;
        }
        assert!(key.partition().is_none(), "sub-keys cannot be split again");
        assert!(grid.dims() == 2 && grid.cells() >= 2, "a split grid has two axes and two cells");
        self.entries.insert(key.ring(), SplitEntry { key, grid, split_at });
        true
    }

    /// Number of split keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no key is split.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the active splits.
    pub fn iter(&self) -> impl Iterator<Item = &SplitEntry> {
        self.entries.values()
    }

    /// The cells a **tuple** index copy addressed to `key` must reach: its
    /// content row's `c` cells. Returns `None` in the unsplit case so
    /// callers pay nothing on the (overwhelmingly common) cold path.
    pub fn route_tuple(&self, key: &HashedKey, tuple: &Tuple) -> Option<SplitRoute> {
        let grid = &self.entries.get(&key.ring())?.grid;
        let row = partition_for_tuple(tuple, grid.shares()[0]);
        Some(sub_keys(key, grid, &[Some(row), None]))
    }

    /// The cells a **query** (input or rewritten) dispatched to `key` must
    /// register at: its identity column's `r` cells. `None` when unsplit.
    pub fn route_query(&self, key: &HashedKey, id: QueryId) -> Option<SplitRoute> {
        let grid = &self.entries.get(&key.ring())?.grid;
        let col = partition_for_query(id, grid.shares()[1]);
        Some(sub_keys(key, grid, &[None, Some(col)]))
    }
}

/// The engine-global registry of hypercube plans: each plan's cell key
/// space and share grid, and the plans every relation joins. Like
/// [`SplitMap`], it is mutated only on the driver thread (at query
/// submission, between drains) and read-only afterwards, so
/// publication-time routing is deterministic across drivers.
#[derive(Debug, Default)]
pub(crate) struct HypercubeMap {
    /// The registered plans, in submission order.
    plans: Vec<(HypercubeRef, HypercubeGrid)>,
    /// Per relation, the plans it participates in, in submission order
    /// (which is the order publication routes — and therefore sends — in):
    /// the plan's position in `plans` and the `(axis, column offset)` pairs
    /// a tuple of the relation binds (none: it pins no axis and replicates
    /// to every cell).
    routes: HashMap<Name, Vec<(usize, AxisBinds)>>,
}

/// The `(axis, column offset)` pairs a relation's tuples bind in one plan.
type AxisBinds = Vec<(usize, usize)>;

impl HypercubeMap {
    /// Registers `plan`, the hypercube plan chosen for query `id`: resolves
    /// each axis member to its column offset, books the plan's cells and
    /// shares in `counters`, and returns the cell key space the query's
    /// replicas carry.
    pub(crate) fn register(
        &mut self,
        id: QueryId,
        query: &JoinQuery,
        plan: &HypercubePlan,
        catalog: &Catalog,
        counters: &mut PlannerCounters,
    ) -> Result<HypercubeRef, EngineError> {
        // Per relation, the `(axis, column)` pairs its attributes bind, axis
        // by axis (`validate` checked every attribute).
        let mut bindings = Vec::with_capacity(query.relations().len());
        for relation in query.relations() {
            let schema = catalog.require_schema(relation)?;
            let members = plan.axes.iter().enumerate().flat_map(|(axis, hc_axis)| {
                hc_axis.members.iter().map(move |member| (axis, member))
            });
            let binds: AxisBinds = members
                .filter(|(_, member)| member.relation == *relation)
                .filter_map(|(axis, member)| Some((axis, schema.index_of(&member.attribute)?)))
                .collect();
            bindings.push((relation.clone(), binds));
        }
        let grid = HypercubeGrid::new(plan.shares());
        // A per-query synthetic base key: the `+` separator and hex owner
        // id keep it disjoint from every relation-derived index key.
        let base = HashedKey::new(format!("hcube+{:016x}+{}", id.owner.0, id.seq));
        let hcref = HypercubeRef { base, cells: grid.cells() };
        counters.hypercube_plans += 1;
        counters.cells_allocated += u64::from(grid.cells());
        counters.shares_allocated += grid.shares().iter().map(|&s| u64::from(s)).sum::<u64>();
        counters.replicated_evals += u64::from(grid.cells());
        for (relation, binds) in bindings {
            self.routes.entry(relation).or_default().push((self.plans.len(), binds));
        }
        self.plans.push((hcref.clone(), grid));
        Ok(hcref)
    }

    /// Routes `tuple` into every registered plan its relation joins, in
    /// submission order: its bound attributes are hashed to pin
    /// coordinates, and `send` gets the key of each cell of the resulting
    /// subcube (replication across the axes the relation leaves unbound).
    pub(crate) fn route_tuple(
        &self,
        tuple: &Tuple,
        counters: &mut PlannerCounters,
        mut send: impl FnMut(HashedKey),
    ) {
        for (plan, binds) in self.routes.get(tuple.relation()).into_iter().flatten() {
            let (hcref, grid) = &self.plans[*plan];
            let mut bound: Vec<Option<u32>> = vec![None; grid.dims()];
            // Two attributes of this tuple on one axis with different values
            // can never join this plan: the closure forces them equal in any
            // answer.
            let joinable = binds.iter().all(|&(axis, col)| {
                let coord = partition_for_value(&tuple.values()[col], grid.shares()[axis]);
                *bound[axis].get_or_insert(coord) == coord
            });
            if !joinable {
                continue;
            }
            let cells = grid.subcube(&bound);
            counters.tuples_routed += 1;
            counters.tuple_copies += cells.len() as u64;
            cells.into_iter().for_each(|cell| send(hcref.cell_key(cell)));
        }
    }
}

/// The partition a tuple belongs to among `parts` sub-keys of a split key:
/// an FNV-1a content hash over the tuple's relation, every attribute value
/// and the publication time, reduced mod `parts`.
///
/// Hashing the *whole* tuple (rather than the split key's own attribute
/// value) matters: for a value-level hot key every indexed tuple shares the
/// key's value, so only the remaining content can spread them. Publication
/// time is included so even fully identical payloads scatter. The function
/// is a pure content hash — independent of drivers, shard counts and
/// arrival order — so routing is deterministic everywhere.
pub fn partition_for_tuple(tuple: &Tuple, parts: u32) -> u32 {
    let h = fnv1a(FNV_OFFSET, tuple.relation().as_bytes());
    let h = tuple.values().iter().fold(h, fnv1a_value);
    (fnv1a(h, &tuple.pub_time().to_le_bytes()) % parts as u64) as u32
}

/// The axis coordinate a single attribute value pins among `share`
/// partitions: an FNV-1a hash over the tagged value bytes, reduced mod
/// `share`. This is the hypercube routing hash — two tuples agreeing on a
/// join attribute's value always pin the same coordinate on that class's
/// axis, whatever relation they come from, which is what makes a joining
/// combination meet in exactly one cell. Pure content hash: deterministic
/// across drivers, shard counts and arrival order.
pub fn partition_for_value(value: &Value, share: u32) -> u32 {
    (fnv1a_value(FNV_OFFSET, value) % share as u64) as u32
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from the hash state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over one value, continuing from `h`: a type tag byte, then the
/// value's bytes.
fn fnv1a_value(h: u64, value: &Value) -> u64 {
    match value {
        Value::Int(v) => fnv1a(fnv1a(h, &[0x01]), &v.to_le_bytes()),
        Value::Str(s) => fnv1a(fnv1a(h, &[0x02]), s.as_bytes()),
    }
}

/// The partition a query belongs to among `parts` sub-keys of a
/// query-partitioned split key: a mix of the query's identity (owner ring
/// id and per-owner sequence number) reduced mod `parts`. All rewritten
/// descendants of one input query share its [`QueryId`] and therefore its
/// partition, so a query's state for one split key never straddles
/// partitions; balance comes from the population of distinct queries.
pub fn partition_for_query(id: QueryId, parts: u32) -> u32 {
    (rjoin_dht::mix64(id.owner.0 ^ id.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % parts as u64)
        as u32
}

impl RJoinEngine {
    /// Heavy-hitter detection: splits every not-yet-split key in `keys`
    /// whose observed tuple rate over the last RIC window (read pure from
    /// the owning node's tracker) has reached the configured threshold.
    ///
    /// Runs only while the network is quiescent: like membership churn, a
    /// split re-homes stored state, and messages already in flight to the
    /// base key must not race the migration. Between drains every message
    /// referencing the base key has been delivered, so gating on
    /// `in_flight == 0` makes activation exact — and deterministic, because
    /// quiescence points and RIC state are identical across drivers.
    pub(crate) fn maybe_split_hot_keys(
        &mut self,
        keys: &[(HashedKey, IndexLevel)],
    ) -> Result<(), EngineError> {
        let Some(threshold) = self.config.hot_key_threshold else {
            return Ok(());
        };
        if self.network.in_flight() > 0 {
            return Ok(());
        }
        for (key, _) in keys {
            if self.splits.is_split(key.ring()) {
                continue;
            }
            let (rate, grid) = self.split_grid(key, self.config.hot_key_partitions)?;
            if rate >= threshold {
                self.activate_split(key.clone(), grid)?;
            }
        }
        Ok(())
    }

    /// The share grid that splits `key` over `partitions` cells, and the
    /// rate of the key's hotter stream: the owning node's tuple and `Eval`
    /// arrival rates over the last RIC window (read pure from its trackers)
    /// apportion the cells between the two streams in proportion (Afrati's
    /// shares applied to RJoin's two delivery streams, [`choose_grid`]).
    fn split_grid(
        &self,
        key: &HashedKey,
        partitions: u32,
    ) -> Result<(u64, HypercubeGrid), EngineError> {
        let owner = self.network.owner_of(key.id())?;
        let now = self.network.now();
        let (tuple_rate, eval_rate) = self.node_state(owner).map_or((0, 0), |s| {
            (
                s.ric().rate_at(key.ring(), now, RIC_WINDOW),
                s.eval_ric().rate_at(key.ring(), now, RIC_WINDOW),
            )
        });
        Ok((tuple_rate.max(eval_rate), choose_grid(partitions, tuple_rate, eval_rate)))
    }

    /// Activates a split of `key` over the share grid and migrates the base
    /// key's stored state: each stored query moves to its identity
    /// column's cells, each stored value-level tuple and ALTT entry to its
    /// content row's cells — exactly where future arrivals will look for
    /// them. The base key's buckets are drained, re-keyed by sub-key and
    /// absorbed by the sub-keys' owners, the re-homing path churn uses
    /// ([`crate::rehome`]). No-op if the key is already split.
    ///
    /// Exposed for harnesses via [`RJoinEngine::split_key`]; the engine
    /// itself calls it from the publication-time heat check.
    fn activate_split(&mut self, key: HashedKey, grid: HypercubeGrid) -> Result<(), EngineError> {
        if !self.splits.insert(key.clone(), grid.clone(), self.network.now()) {
            return Ok(());
        }
        self.split_counters.keys_split += 1;
        self.split_counters.partitions_created += grid.cells() as u64;

        let base_ring = key.ring();
        // Drop every cached RIC estimate for the base key: entries cached
        // before the split hold the pre-split hot rate, and the candidate
        // table would keep serving them for up to `RIC_VALIDITY` ticks,
        // shunning the freshly split key. Activation is a quiescent-point
        // operation, so walking the node map here is safe and cheap.
        for shard in &mut self.shards {
            for state in shard.nodes.values_mut() {
                state.candidate_table.remove(&base_ring);
            }
        }
        let owner = self.network.owner_of(key.id())?;
        let Some(state) = self.node_mut(owner) else {
            return Ok(());
        };
        let drained = state.drain_misplaced(|ring| ring != base_ring);
        let (splits, mut moved) = (&self.splits, DrainedState::default());
        for stored in drained.queries {
            for sub in splits.route_query(&key, stored.pending.id).into_iter().flatten() {
                moved.queries.push(StoredQuery { key: sub, ..stored.clone() });
            }
        }
        let mut tuples: BTreeMap<u64, Vec<Arc<Tuple>>> = BTreeMap::new();
        for tuple in drained.tuples.into_iter().flat_map(|(_, bucket)| bucket) {
            for sub in splits.route_tuple(&key, &tuple).into_iter().flatten() {
                tuples.entry(sub.ring()).or_default().push(Arc::clone(&tuple));
            }
        }
        let mut altt: BTreeMap<u64, VecDeque<(Arc<Tuple>, SimTime)>> = BTreeMap::new();
        for (tuple, expires_at) in drained.altt.into_iter().flat_map(|(_, bucket)| bucket) {
            for sub in splits.route_tuple(&key, &tuple).into_iter().flatten() {
                altt.entry(sub.ring()).or_default().push_back((Arc::clone(&tuple), expires_at));
            }
        }
        moved.tuples.extend(tuples);
        moved.altt.extend(altt);
        self.split_counters.migrated_queries += moved.queries.len() as u64;
        self.split_counters.migrated_tuples += (moved.len() - moved.queries.len()) as u64;
        self.absorb_drained(moved)
    }

    /// Splits `key` over `partitions` sub-keys right now, regardless of its
    /// observed rate (harness/experiment entry point; the engine's own
    /// threshold-driven activation uses the same machinery). The share grid
    /// is chosen from the key's current telemetry exactly like the
    /// automatic path. Requires a quiescent network — like churn, splitting
    /// re-homes stored state and must not race in-flight messages — and
    /// otherwise returns [`EngineError::NotQuiescent`] without changing
    /// anything.
    pub fn split_key(&mut self, key: &IndexKey, partitions: u32) -> Result<(), EngineError> {
        let in_flight = self.network.in_flight();
        if in_flight > 0 {
            return Err(EngineError::NotQuiescent { in_flight });
        }
        let hashed = key.hashed();
        let (_, grid) = self.split_grid(&hashed, partitions)?;
        self.activate_split(hashed, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_relation::Value;

    fn tuple(values: [i64; 3], pub_time: u64) -> Tuple {
        Tuple::new("R", values.iter().map(|v| Value::from(*v)).collect(), pub_time)
    }

    #[test]
    fn partitioning_is_deterministic_and_in_range() {
        let t = tuple([1, 2, 3], 7);
        let p = partition_for_tuple(&t, 8);
        assert_eq!(p, partition_for_tuple(&t, 8));
        assert!(p < 8);
        assert_eq!(partition_for_tuple(&t, 1), 0);
    }

    #[test]
    fn partitioning_spreads_distinct_tuples() {
        // 64 tuples sharing the same value in attribute 0 (a value-level hot
        // key scenario) must still spread over the partitions.
        let mut seen = [false; 4];
        for i in 0..64 {
            let t = tuple([7, i, i * 3], 100 + i as u64);
            seen[partition_for_tuple(&t, 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "content hashing must reach every partition");
    }

    fn qid(owner: u64, seq: u64) -> QueryId {
        QueryId { owner: rjoin_dht::Id(owner), seq }
    }

    #[test]
    fn tuple_grid_routes_tuples_single_and_replicates_queries() {
        let mut splits = SplitMap::new();
        let hot = HashedKey::new("R+A");
        let cold = HashedKey::new("S+B");
        assert!(splits.insert(hot.clone(), HypercubeGrid::new(vec![4, 1]), 10));
        assert!(
            !splits.insert(hot.clone(), HypercubeGrid::new(vec![1, 8]), 11),
            "double split is refused"
        );
        assert_eq!(splits.len(), 1);
        assert!(splits.is_split(hot.ring()));
        assert!(!splits.is_split(cold.ring()));
        assert_eq!(splits.get(hot.ring()).unwrap().grid.cells(), 4);
        assert_eq!(splits.get(hot.ring()).unwrap().split_at, 10);

        let t = tuple([1, 2, 3], 5);
        let tuple_route = splits.route_tuple(&hot, &t).unwrap();
        assert_eq!(tuple_route.len(), 1, "an (s, 1) grid routes each tuple to one cell");
        assert_eq!(tuple_route[0].partition(), Some((partition_for_tuple(&t, 4), 4)));
        assert_eq!(tuple_route[0].base_ring(), hot.ring());
        assert!(splits.route_tuple(&cold, &t).is_none(), "cold keys route unchanged");

        let query_route = splits.route_query(&hot, qid(1, 1)).unwrap();
        assert_eq!(query_route.len(), 4, "an (s, 1) grid registers each query everywhere");
        for (p, sub) in query_route.iter().enumerate() {
            assert_eq!(sub.partition(), Some((p as u32, 4)));
        }
        assert!(splits.route_query(&cold, qid(1, 1)).is_none());
    }

    #[test]
    fn query_grid_routes_queries_single_and_replicates_tuples() {
        let mut splits = SplitMap::new();
        let hot = HashedKey::new("R+A+i:0");
        assert!(splits.insert(hot.clone(), HypercubeGrid::new(vec![1, 4]), 3));

        let query_route = splits.route_query(&hot, qid(7, 2)).unwrap();
        assert_eq!(query_route.len(), 1);
        assert_eq!(query_route[0].partition(), Some((partition_for_query(qid(7, 2), 4), 4)));
        let t = tuple([0, 2, 3], 5);
        assert_eq!(splits.route_tuple(&hot, &t).unwrap().len(), 4);
    }

    /// The hypercube property: whatever the grid shape, a tuple's cell set
    /// and a query's cell set intersect in exactly one sub-key.
    #[test]
    fn rectangular_grid_meets_exactly_once() {
        let mut splits = SplitMap::new();
        let hot = HashedKey::new("R+A");
        assert!(splits.insert(hot.clone(), HypercubeGrid::new(vec![4, 2]), 0));
        for i in 0..24 {
            let t = tuple([i, i * 7, 3], 50 + i as u64);
            let t_cells = splits.route_tuple(&hot, &t).unwrap();
            assert_eq!(t_cells.len(), 2, "a (4, 2) grid indexes each tuple at its row's cells");
            for owner in 0..24u64 {
                let q_cells = splits.route_query(&hot, qid(owner * 31, owner)).unwrap();
                assert_eq!(q_cells.len(), 4, "each query registers at its column's cells");
                let meets = t_cells.iter().filter(|cell| q_cells.contains(cell)).count();
                assert_eq!(meets, 1, "every (query, tuple) pair must meet exactly once");
            }
        }
    }

    #[test]
    fn query_partitioning_is_deterministic_and_spreads() {
        assert_eq!(partition_for_query(qid(3, 9), 8), partition_for_query(qid(3, 9), 8));
        assert_eq!(partition_for_query(qid(3, 9), 1), 0);
        let mut seen = [false; 4];
        for owner in 0..32u64 {
            seen[partition_for_query(qid(owner * 977, owner), 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "query identities must reach every partition");
    }

    #[test]
    fn choose_grid_apportions_shares_by_rate() {
        let grid = |rows, cols| HypercubeGrid::new(vec![rows, cols]);
        // Pure tuple heat: all cells to the tuple side.
        assert_eq!(choose_grid(8, 100, 0), grid(8, 1));
        // Pure Eval heat: all cells to the query side.
        assert_eq!(choose_grid(8, 0, 100), grid(1, 8));
        // Balanced heat: a balanced rectangle.
        let g = choose_grid(8, 100, 100);
        let (rows, cols) = (g.shares()[0], g.shares()[1]);
        assert!(g.cells() == 8 && rows >= 2 && cols >= 2, "balanced heat gets a rectangle");
        assert_eq!(rows, 4, "ties break toward the tuple side");
        // Lopsided heat leans the grid accordingly.
        assert_eq!(choose_grid(8, 400, 90), grid(8, 1));
        assert_eq!(choose_grid(16, 400, 100), grid(8, 2));
        // A prime cell count still has the two pure factorizations.
        assert_eq!(choose_grid(7, 10, 1000), grid(1, 7));
        // The clamp: s < 2 is raised to 2.
        assert_eq!(choose_grid(1, 5, 0), grid(2, 1));
    }

    #[test]
    fn hypercube_grid_linearizes_row_major() {
        let g = HypercubeGrid::new(vec![2, 3, 2]);
        assert_eq!(g.dims(), 3);
        assert_eq!(g.cells(), 12);
        assert_eq!(g.cell_of(&[0, 0, 0]), 0);
        assert_eq!(g.cell_of(&[0, 0, 1]), 1);
        assert_eq!(g.cell_of(&[0, 1, 0]), 2);
        assert_eq!(g.cell_of(&[1, 2, 1]), 11);
    }

    #[test]
    fn hypercube_grid_matches_split_grid_linearization() {
        // A split key's two-axis grid numbers cell (row, col) as
        // row * cols + col.
        let g = HypercubeGrid::new(vec![4, 2]);
        for row in 0..4 {
            for col in 0..2 {
                assert_eq!(g.cell_of(&[row, col]), row * 2 + col);
            }
        }
        // A tuple pinned on axis 0 covers its grid row; a query pinned on
        // axis 1 covers its column.
        assert_eq!(g.subcube(&[Some(2), None]), vec![4, 5]);
        assert_eq!(g.subcube(&[None, Some(1)]), vec![1, 3, 5, 7]);
        // The split routes address exactly those cells as sub-keys.
        let mut splits = SplitMap::new();
        let hot = HashedKey::new("R+A");
        splits.insert(hot.clone(), g.clone(), 0);
        let t = tuple([1, 2, 3], 5);
        let cells = |route: SplitRoute| -> Vec<u32> {
            route.iter().map(|sub| sub.partition().expect("a sub-key").0).collect()
        };
        let row = partition_for_tuple(&t, 4);
        assert_eq!(cells(splits.route_tuple(&hot, &t).unwrap()), g.subcube(&[Some(row), None]));
        let col = partition_for_query(qid(5, 1), 2);
        assert_eq!(
            cells(splits.route_query(&hot, qid(5, 1)).unwrap()),
            g.subcube(&[None, Some(col)])
        );
    }

    #[test]
    fn subcube_enumerates_unbound_axes() {
        let g = HypercubeGrid::new(vec![2, 2, 2]);
        assert_eq!(g.subcube(&[Some(1), Some(0), Some(1)]), vec![5]);
        assert_eq!(g.subcube(&[Some(0), None, Some(1)]), vec![1, 3]);
        assert_eq!(g.subcube(&[None, None, None]), (0..8).collect::<Vec<_>>());
        // The degenerate zero-axis grid has the single centralized cell.
        let unit = HypercubeGrid::new(Vec::new());
        assert_eq!(unit.cells(), 1);
        assert_eq!(unit.subcube(&[]), vec![0]);
    }

    /// The meeting property in k dimensions: tuples bound on complementary
    /// axis subsets co-occur in exactly one cell when their pins agree.
    #[test]
    fn hypercube_subcubes_meet_exactly_once() {
        let g = HypercubeGrid::new(vec![3, 2, 4]);
        for a in 0..3 {
            for b in 0..2 {
                for c in 0..4 {
                    let t1 = g.subcube(&[Some(a), Some(b), None]);
                    let t2 = g.subcube(&[None, Some(b), Some(c)]);
                    let meets = t1.iter().filter(|cell| t2.contains(cell)).count();
                    assert_eq!(meets, 1, "agreeing pins must intersect in one cell");
                    let full = g.subcube(&[Some(a), Some(b), Some(c)]);
                    assert_eq!(full.len(), 1);
                    assert!(t1.contains(&full[0]) && t2.contains(&full[0]));
                }
            }
        }
    }

    #[test]
    fn value_partitioning_is_deterministic_and_spreads() {
        let v = Value::from(42);
        assert_eq!(partition_for_value(&v, 8), partition_for_value(&v, 8));
        assert_eq!(partition_for_value(&v, 1), 0);
        assert_eq!(
            partition_for_value(&Value::from(7), 8),
            partition_for_value(&Value::from(7), 8),
            "the coordinate depends only on the value, not the carrying tuple"
        );
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[partition_for_value(&Value::from(i), 4) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "value hashing must reach every partition");
        // Int and Str never alias (tagged hashing).
        assert!(
            (0..32).any(|i| partition_for_value(&Value::from(i), 64)
                != partition_for_value(&Value::from(i.to_string().as_str()), 64)),
            "tagged hashing must distinguish representations somewhere"
        );
    }

    #[test]
    #[should_panic(expected = "sub-keys cannot be split again")]
    fn split_map_rejects_sub_keys() {
        let mut splits = SplitMap::new();
        let sub = HashedKey::new("R+A").split_part(0, 2);
        splits.insert(sub, HypercubeGrid::new(vec![2, 1]), 0);
    }
}
