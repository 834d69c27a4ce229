//! The local join of one hypercube cell: the replica's positional
//! [`JoinPlan`], the tuples routed to the cell in arrival order,
//! and a `(slot, column, value)` hash index over the plan's join columns.
//!
//! A hypercube-planned query trades replicated communication (every tuple
//! is copied to the subcube its bound attributes pin) for one-round
//! placement: a joining combination co-occurs in exactly one cell. That
//! trade only pays if what is left inside the cell is an efficient local
//! join, so a cell stores nothing but its input-query replica and the
//! tuples routed to it, and the join itself is an **index-probe cascade
//! over tuple references**, driven by each arriving tuple ([`Cell::join`]):
//!
//! * **The plan.** The cell opens with its replica's plan — the input
//!   query's [`RewritePlan`], compiled where the query entered the process
//!   like any pipeline query's — whose [`JoinPlan`] has a slot per
//!   relation, constant filters and join edges as column offsets, the
//!   `SELECT` list as columns or constants. No query AST is built, cloned
//!   or dropped per tuple.
//! * **The probe.** An arrival that passes its slot's constant filters is
//!   bound to its slot, and every remaining slot is bound depth-first by
//!   probing the index with the [pins](JoinPlan::pins) the bound tuples
//!   force: the shortest pinned list over all unbound slots (a pinned value
//!   no stored tuple carries ends the branch), or a scan of one slot's
//!   tuples when no indexed column is pinned. A candidate is checked by
//!   offset against every join edge into the bound slots and against the
//!   window span; a full binding is projected straight into the answer row.
//! * **Exactly once.** Only tuples that arrived *earlier* are in the store
//!   while an arrival drives its cascade (it is filed afterwards), so every
//!   combination is assembled exactly once — at its latest member's
//!   arrival — and no partial result is ever stored.
//!
//! # Layout
//!
//! Tuples sit in a `VecDeque` in arrival order and are named by their
//! **arrival number** (`base` + position). A tuple is filed only under its
//! own slot's join columns, at the offsets the plan resolved once; each
//! column keeps arrival numbers per value digest, in ascending order.
//! Windowed cells evict from the front only ([`Cell::evict_due`]), which
//! keeps both sides O(1): the evicted tuple is the front of the deque *and*
//! the front of each of its index lists. A tuple whose deadline passed
//! while an older tuple with a later deadline still heads the deque simply
//! waits for it — physical removal never decides an answer (the cascade
//! tests the window on every candidate), it only bounds state by the window
//! instead of the epoch.
//! Every stored query carries its plan (`NodeState::adopt` gives one to
//! any query that arrives without it), so a cell opens indexed and files
//! each tuple as it is stored — a churn re-home through
//! `NodeState::absorb` included.
//!
//! # A cell in its node
//!
//! A ring that hosts the replica of a hypercube-planned query is a **cell**:
//! storing the replica ([`handle_hypercube_arrival`]) opens it, and from
//! then on the ring's tuple arrivals run the cell's join
//! ([`handle_cell_arrival`]) instead of Procedure 2, and
//! [`NodeState::store_tuple`] files them in the cell's indexed store
//! instead of the plain bucket. The replica itself stays an ordinary slab
//! entry, so the storage counters, the trigger-index contract and churn
//! treat it like any other stored input query; churn drains a cell as its
//! replica plus its tuples in arrival order and the receiving node re-opens
//! it from exactly those two.

use crate::messages::PendingQuery;
use crate::node_state::{NodeState, StoredQuery};
use crate::procedures::{Action, ProcCtx};
use crate::slab::Handle;
use crate::trigger_index::{value_digest, TriggerIndex};
use rjoin_dht::{HashedKey, RingMap};
use rjoin_net::SimTime;
use rjoin_query::{IndexLevel, JoinPlan, RewritePlan, SlotColumn, WindowSpec};
use rjoin_relation::{Timestamp, Tuple, Value};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One stored tuple copy, the tick from which its removal is unobservable
/// (`SimTime::MAX` for unwindowed queries), and the plan slot it is filed
/// under (`None` for a tuple the plan does not admit).
#[derive(Debug, Clone)]
struct Entry {
    tuple: Arc<Tuple>,
    deadline: SimTime,
    slot: Option<usize>,
}

/// The index of one join column: arrival numbers by value digest.
#[derive(Debug, Clone)]
struct Column {
    at: SlotColumn,
    by_value: RingMap<VecDeque<u64>>,
}

/// The state of one hypercube cell besides the replica itself (which is an
/// ordinary entry of the node's query slab, so counters and churn see it).
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// The input-query replica's handle in the node's query slab.
    pub(crate) replica: Handle,
    /// The replica's plan.
    plan: Arc<RewritePlan>,
    entries: VecDeque<Entry>,
    /// Arrival number of `entries.front()`.
    base: u64,
    /// One index per join column of the plan.
    columns: Vec<Column>,
}

impl Cell {
    /// An empty cell for the replica `replica`, read through its `plan`:
    /// one index column per join column.
    pub(crate) fn new(replica: Handle, plan: &Arc<RewritePlan>) -> Self {
        let columns = plan.plan().join_columns();
        Cell {
            replica,
            plan: Arc::clone(plan),
            entries: VecDeque::new(),
            base: 0,
            columns: columns
                .into_iter()
                .map(|at| Column { at, by_value: RingMap::default() })
                .collect(),
        }
    }

    /// The replica's window: what a stored tuple's eviction deadline is
    /// derived from.
    pub(crate) fn window(&self) -> &WindowSpec {
        self.plan.plan().window()
    }

    /// Number of tuples currently stored.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The eviction deadline of the oldest stored tuple, the only one
    /// eviction ever looks at.
    pub(crate) fn front_deadline(&self) -> Option<SimTime> {
        self.entries.front().map(|e| e.deadline)
    }

    /// The eviction deadlines of the stored tuples, in arrival order.
    pub(crate) fn deadlines(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.entries.iter().map(|e| e.deadline)
    }

    /// Appends a tuple, filed under its slot's join columns.
    pub(crate) fn push(&mut self, tuple: Arc<Tuple>, deadline: SimTime) {
        let arrival = self.base + self.entries.len() as u64;
        let slot = self.plan.plan().admit(&tuple);
        for column in self.columns.iter_mut().filter(|c| Some(c.at.slot) == slot) {
            let digest = value_digest(&tuple.values()[column.at.offset]);
            column.by_value.entry(digest).or_default().push_back(arrival);
        }
        self.entries.push_back(Entry { tuple, deadline, slot });
    }

    /// Joins an arriving copy of the cell with every combination of the
    /// tuples stored before it, through the replica's plan, handing each
    /// answer row to `emit` and booking each index probe in `probes`.
    /// Returns whether the copy must be stored for later arrivals: it was
    /// admitted to a slot of a plan with more than one (a one-relation
    /// replica answers on arrival).
    ///
    /// A tuple the plan does not admit — of a relation the replica does not
    /// join, or failing one of its constant selections — joins nothing.
    pub(crate) fn join(
        &self,
        tuple: &Tuple,
        probes: &mut TriggerIndex,
        emit: impl FnMut(Vec<Value>),
    ) -> bool {
        let plan = self.plan.plan();
        let Some(slot) = plan.admit(tuple) else { return false };
        let mut bound = vec![None; plan.relations().len()];
        bound[slot] = Some(tuple);
        let unbound = bound.len() - 1;
        let mut cascade = Cascade { cell: self, plan, bound, unbound, probes, emit };
        if unbound == 0 {
            (cascade.emit)(plan.project(&cascade.bound));
            return false;
        }
        cascade.extend(tuple.pub_time(), tuple.pub_time());
        true
    }

    /// Removes front tuples whose deadline is at or before `now` from store
    /// and index; returns how many were removed.
    pub(crate) fn evict_due(&mut self, now: SimTime) -> usize {
        let mut evicted = 0;
        while self.entries.front().is_some_and(|e| e.deadline <= now) {
            let entry = self.entries.pop_front().expect("front checked above");
            self.unfile(&entry);
            self.base += 1;
            evicted += 1;
        }
        evicted
    }

    /// Unfiles the front entry (arrival number `base`): index lists are in
    /// ascending arrival order, so it heads every list it is filed in.
    fn unfile(&mut self, entry: &Entry) {
        let Some(slot) = entry.slot else { return };
        for column in self.columns.iter_mut().filter(|c| c.at.slot == slot) {
            let digest = value_digest(&entry.tuple.values()[column.at.offset]);
            if let Some(list) = column.by_value.get_mut(&digest) {
                let front = list.pop_front();
                debug_assert_eq!(front, Some(self.base), "eviction is in arrival order");
                if list.is_empty() {
                    column.by_value.remove(&digest);
                }
            }
        }
    }

    /// Consumes the cell, returning its tuples in arrival order (churn
    /// re-homing: the new owner rebuilds the index from them).
    pub(crate) fn into_tuples(self) -> Vec<Arc<Tuple>> {
        self.entries.into_iter().map(|e| e.tuple).collect()
    }

    /// The stored tuple with arrival number `arrival`.
    fn tuple(&self, arrival: u64) -> Option<&Tuple> {
        let pos = arrival.checked_sub(self.base)?;
        self.entries.get(pos as usize).map(|e| &*e.tuple)
    }
}

/// One arrival's probe cascade: the bound tuple of every slot so far (the
/// arrival's and the candidates' on the current branch), on the stack.
struct Cascade<'a, F> {
    cell: &'a Cell,
    plan: &'a JoinPlan,
    bound: Vec<Option<&'a Tuple>>,
    /// Slots still unbound on this branch.
    unbound: usize,
    probes: &'a mut TriggerIndex,
    emit: F,
}

impl<'a, F: FnMut(Vec<Value>)> Cascade<'a, F> {
    /// Binds one more slot of a combination whose tuples were published over
    /// `[lo, hi]`: every pin on an indexed column is a necessary value, so
    /// the shortest pinned list bounds the candidates (the other pins are
    /// re-checked as join edges); with no indexed column pinned (the next
    /// slot shares no join attribute with the bound ones) the first unbound
    /// slot's tuples are scanned.
    fn extend(&mut self, lo: Timestamp, hi: Timestamp) {
        let cell = self.cell;
        let mut best: Option<(usize, &'a VecDeque<u64>)> = None;
        for (at, value) in self.plan.pins(&self.bound) {
            let Some(column) = cell.columns.iter().find(|c| c.at == at) else { continue };
            match column.by_value.get(&value_digest(value)) {
                None => return self.probes.note_tuple_probe(cell.len(), 0),
                Some(list) if best.is_none_or(|(_, b)| list.len() < b.len()) => {
                    best = Some((at.slot, list));
                }
                Some(_) => {}
            }
        }
        match best {
            Some((slot, arrivals)) => {
                self.probes.note_tuple_probe(cell.len(), arrivals.len());
                for candidate in arrivals.iter().filter_map(|&arrival| cell.tuple(arrival)) {
                    self.bind(slot, candidate, lo, hi);
                }
            }
            None => {
                let slot = self.bound.iter().position(Option::is_none).expect("a slot is unbound");
                // Finding the slot's tuples visits every stored one.
                self.probes.note_tuple_probe(cell.len(), cell.len());
                for entry in cell.entries.iter().filter(|e| e.slot == Some(slot)) {
                    self.bind(slot, &entry.tuple, lo, hi);
                }
            }
        }
    }

    /// Binds one stored tuple to `slot`: the window test first (the whole
    /// combination must fit one window — Section 5's validity rule applied
    /// to the exact contribution span, which only ever grows, so a branch
    /// that already exceeds the window is cut here), then the join edges
    /// into the bound slots; a full binding is an answer.
    fn bind(&mut self, slot: usize, candidate: &'a Tuple, lo: Timestamp, hi: Timestamp) {
        let pub_time = candidate.pub_time();
        let (lo, hi) = (lo.min(pub_time), hi.max(pub_time));
        let fits = self.plan.window().within(lo, hi);
        if !fits || !self.plan.joins(slot, candidate, &self.bound) {
            return;
        }
        self.bound[slot] = Some(candidate);
        if self.unbound == 1 {
            (self.emit)(self.plan.project(&self.bound));
        } else {
            self.unbound -= 1;
            self.extend(lo, hi);
            self.unbound += 1;
        }
        self.bound[slot] = None;
    }
}

/// A tuple copy arrives at a hypercube cell: the local join of the cell.
///
/// The cell joins the arrival with the tuples stored before it through the
/// replica's plan ([`Cell::join`]); only then is the
/// arrival itself stored. So the cascade only ever sees
/// tuples that arrived *before* its driver — every tuple subset is
/// assembled exactly once, at its latest member's arrival — and together
/// with the meeting property of the grid (a joining combination co-occurs
/// in exactly one cell) answers are bag-exact without cross-cell
/// coordination. `DISTINCT` collapses owner-side: equal *rows* can complete
/// in different cells.
///
/// A cell runs no trigger, so it books no rewrite counter; its time goes
/// to `eval_nanos` and its index probes to the probe counters.
///
/// A tuple that can never contribute — published before the query was
/// submitted, of a relation the query does not join, or failing one of the
/// replica's own constant selections — is neither joined nor stored.
pub(crate) fn handle_cell_arrival(
    state: &mut NodeState,
    tuple: &Arc<Tuple>,
    ring: u64,
) -> Vec<Action> {
    let mut actions = Vec::new();
    let Some(cell) = state.cells.get(&ring) else { return actions };
    let Some(replica) = state.queries.get(cell.replica).map(|stored| &stored.pending) else {
        return actions;
    };
    if tuple.pub_time() < replica.query.insert_time {
        return actions;
    }
    let walk = Instant::now();
    let (query, owner) = (replica.query.id, replica.query.owner);
    let stores = cell.join(tuple, &mut state.trigger_index, |row| {
        actions.push(Action::DeliverAnswer { query, owner, row })
    });
    state.compile.eval_nanos += walk.elapsed().as_nanos() as u64;
    if stores {
        state.store_tuple(ring, Arc::clone(tuple));
    }
    actions
}

/// Registers a hypercube cell replica of an input query: storing the
/// replica opens the cell, and the tuple copies that were routed to the
/// ring ahead of the registration are moved into it one by one, in arrival
/// order, each through the same cascade a live arrival runs
/// ([`handle_cell_arrival`]) — so a late registration produces exactly the
/// answers the cell would have produced had it been there first.
/// `DISTINCT` collapses owner-side, so the replica carries no dedup filter.
/// A replica [`NodeState::adopt`] refuses is dropped, as a pipeline query
/// is, and opens no cell.
pub(crate) fn handle_hypercube_arrival(
    state: &mut NodeState,
    ctx: &ProcCtx<'_>,
    mut pending: PendingQuery,
    key: &HashedKey,
    level: IndexLevel,
) -> Vec<Action> {
    let ring = key.ring();
    if !state.adopt(&mut pending, ctx.catalog) {
        return Vec::new();
    }
    let mut replica = StoredQuery::new(pending, key.clone(), level);
    replica.dedup = None;
    let early = state.take_stored_tuples(ring);
    state.store_query(replica);
    let mut actions = Vec::new();
    for tuple in &early {
        actions.append(&mut handle_cell_arrival(state, tuple, ring));
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_query::parse_query;
    use rjoin_relation::{Catalog, Schema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for rel in ["R", "S", "T"] {
            c.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
        }
        c
    }

    fn tuple(rel: &str, values: [i64; 3], pub_time: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new(rel, values.iter().map(|v| Value::from(*v)).collect(), pub_time))
    }

    const TRIANGLE: &str = "SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C";

    /// A cell of `sql` with nothing stored yet.
    fn compiled_cell(sql: &str) -> Cell {
        let q = parse_query(sql).unwrap();
        let plan = Arc::new(RewritePlan::new(Arc::new(q), &catalog()).unwrap());
        Cell::new(crate::slab::Slab::default().insert(()), &plan)
    }

    fn at(slot: usize, offset: usize) -> SlotColumn {
        SlotColumn { slot, offset }
    }

    /// The arrival numbers filed under `value` in the index column `at`.
    fn filed(cell: &Cell, at: SlotColumn, value: i64) -> Vec<u64> {
        let column = cell.columns.iter().find(|c| c.at == at).expect("an index column");
        let list = column.by_value.get(&value_digest(&Value::from(value)));
        list.map(|l| l.iter().copied().collect()).unwrap_or_default()
    }

    /// Drives one arrival through the cell's join; returns the answer rows
    /// and `(probes, candidates)` booked by it.
    fn arrive(cell: &Cell, t: &Tuple) -> (Vec<Vec<Value>>, u64, u64) {
        let mut probes = TriggerIndex::default();
        let mut rows = Vec::new();
        cell.join(t, &mut probes, |row| rows.push(row));
        let counters = probes.counters();
        (rows, counters.indexed_probes, counters.candidates_probed)
    }

    #[test]
    fn one_column_per_join_attribute() {
        let cell = compiled_cell(TRIANGLE);
        let columns: Vec<SlotColumn> = cell.columns.iter().map(|c| c.at).collect();
        // R.A, S.A, S.B, T.B, T.C, R.C as (slot, offset).
        assert_eq!(columns, [at(0, 0), at(1, 0), at(1, 1), at(2, 1), at(2, 2), at(0, 2)]);
    }

    #[test]
    fn probe_picks_the_shortest_pinned_list() {
        let mut cell = compiled_cell(TRIANGLE);
        cell.push(tuple("T", [0, 5, 9], 1), SimTime::MAX);
        cell.push(tuple("T", [0, 5, 8], 2), SimTime::MAX);
        cell.push(tuple("T", [0, 6, 9], 3), SimTime::MAX);
        for pub_time in 4..7 {
            cell.push(tuple("S", [1, 5, 0], pub_time), SimTime::MAX);
        }
        // R(1, _, 9) pins S.A = 1 (three tuples) and T.C = 9 (two): the T
        // list is probed first. T.B = 5 then pins S.B = 5 next to S.A = 1
        // (three each, the first pin wins), T.B = 6 pins S.B = 6, which no
        // tuple carries: that branch ends without candidates.
        let (rows, probes, candidates) = arrive(&cell, &tuple("R", [1, 0, 9], 7));
        assert_eq!(rows, vec![vec![Value::from(1)]; 3]);
        assert_eq!((probes, candidates), (3, 2 + 3));
        assert_eq!(filed(&cell, at(2, 2), 9), [0, 2], "T.C = 9");
        // A pinned value nobody carries kills the arrival's only branch.
        let (rows, probes, candidates) = arrive(&cell, &tuple("R", [2, 0, 9], 8));
        assert!(rows.is_empty());
        assert_eq!((probes, candidates), (1, 0));

        // A slot no join edge reaches from the bound ones is scanned: its
        // own tuples are the candidates, but finding them visits the store.
        let mut cell = compiled_cell("SELECT R.A, T.C FROM R, S, T WHERE R.A = S.A");
        cell.push(tuple("T", [0, 0, 3], 1), SimTime::MAX);
        cell.push(tuple("R", [1, 0, 0], 2), SimTime::MAX);
        cell.push(tuple("T", [0, 0, 4], 3), SimTime::MAX);
        let (rows, probes, candidates) = arrive(&cell, &tuple("S", [1, 0, 0], 4));
        assert_eq!(rows.len(), 2);
        assert_eq!((probes, candidates), (2, 1 + 3));
    }

    #[test]
    fn eviction_pops_store_and_index_from_the_front() {
        let mut cell = compiled_cell(TRIANGLE);
        cell.push(tuple("S", [1, 2, 0], 1), 10);
        cell.push(tuple("S", [1, 3, 0], 2), 30);
        cell.push(tuple("S", [1, 2, 0], 3), 20);
        let s_a = at(1, 0);
        assert_eq!(filed(&cell, s_a, 1), [0, 1, 2]);

        assert_eq!(cell.evict_due(9), 0);
        assert_eq!(cell.evict_due(10), 1);
        assert_eq!(filed(&cell, s_a, 1), [1, 2]);
        assert_eq!(cell.front_deadline(), Some(30));
        assert!(cell.tuple(0).is_none(), "evicted arrival numbers stop resolving");
        assert_eq!(cell.tuple(1).unwrap().pub_time(), 2);
        // Arrival 2 is due at 20 but waits behind arrival 1 (due at 30).
        assert_eq!(cell.evict_due(25), 0);
        assert_eq!(cell.evict_due(30), 2);
        assert_eq!(cell.len(), 0);
        assert_eq!(cell.front_deadline(), None);
        assert!(cell.columns.iter().all(|c| c.by_value.is_empty()), "empty lists are dropped");
        // Arrival numbers keep counting after the store drained.
        cell.push(tuple("S", [1, 2, 0], 40), SimTime::MAX);
        assert_eq!(filed(&cell, s_a, 1), [3]);
    }

    #[test]
    fn unindexed_tuples_survive_eviction_and_re_homing() {
        let mut cell = compiled_cell(TRIANGLE);
        // A tuple too short for its slot is not admitted: stored, unfiled.
        let short = |pub_time| Arc::new(Tuple::new("R", vec![Value::from(1)], pub_time));
        cell.push(tuple("R", [1, 0, 2], 1), 5);
        cell.push(short(2), 6);
        assert_eq!(filed(&cell, at(0, 0), 1), [0], "only the admitted tuple is filed");
        assert_eq!(cell.evict_due(6), 2, "an unfiled tuple is evicted without touching the index");
        assert!(cell.columns.iter().all(|c| c.by_value.is_empty()));
        cell.push(tuple("R", [4, 0, 2], 7), SimTime::MAX);
        cell.push(tuple("S", [4, 1, 0], 8), SimTime::MAX);
        cell.push(short(9), SimTime::MAX);
        // Each tuple is filed under its own slot's columns only.
        let (r_a, s_a) = (at(0, 0), at(1, 0));
        assert_eq!(filed(&cell, r_a, 4), [2]);
        assert_eq!(filed(&cell, s_a, 4), [3]);
        let moved: Vec<u64> = cell.into_tuples().iter().map(|t| t.pub_time()).collect();
        assert_eq!(moved, [7, 8, 9], "re-homed in arrival order");
    }
}
