//! The tuple store of one hypercube cell: arrival-ordered tuples with a
//! `(relation, column, value)` hash index over the join columns.
//!
//! A hypercube-planned query trades replicated communication (every tuple
//! is copied to the subcube its bound attributes pin) for one-round
//! placement: a joining combination co-occurs in exactly one cell. That
//! trade only pays if what is left inside the cell is an efficient local
//! join, so a cell stores nothing but its input-query replica and the
//! tuples routed to it, and the join itself is an **index-probe cascade**
//! driven by each arriving tuple (see `procedures::handle_new_tuple`):
//! the replica is rewritten once with the arrival, and every remaining
//! relation is bound by probing this index on a column the partial rewrite
//! has pinned to a value. Only tuples that arrived *earlier* are in the
//! store while an arrival drives its cascade (it is filed afterwards), so
//! every combination is assembled exactly once — at its latest member's
//! arrival — and no partial result is ever stored.
//!
//! # Layout
//!
//! Tuples sit in a `VecDeque` in arrival order and are named by their
//! **arrival number** (`base` + position). The index files arrival numbers
//! per join column and value digest, in ascending order. Windowed cells
//! evict from the front only ([`Cell::evict_due`]), which keeps both sides
//! O(1): the evicted tuple is the front of the deque *and* the front of
//! each of its index lists. A tuple whose deadline passed while an older
//! tuple with a later deadline still heads the deque simply waits for it —
//! physical removal never decides an answer (the cascade tests the window
//! on every candidate), it only bounds state by the window instead of the
//! epoch.
//!
//! Column offsets are resolved against the catalog lazily
//! ([`Cell::index_pending`]): churn re-homes a cell through
//! `NodeState::absorb`, which has no catalog at hand, so absorbed tuples
//! are appended un-indexed and filed at the cell's next arrival.

use crate::slab::Handle;
use crate::trigger_index::value_digest;
use rjoin_dht::RingMap;
use rjoin_net::SimTime;
use rjoin_query::{CompiledTrigger, Conjunct, JoinQuery, QualifiedAttr, WindowSpec};
use rjoin_relation::{Catalog, Name, Tuple, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// One stored tuple copy and the tick from which its removal is
/// unobservable (`SimTime::MAX` for unwindowed queries).
#[derive(Debug, Clone)]
struct Entry {
    tuple: Arc<Tuple>,
    deadline: SimTime,
}

/// The index of one join column: arrival numbers by value digest.
#[derive(Debug, Clone)]
struct Column {
    relation: Name,
    attribute: Name,
    /// The attribute's offset in the relation's schema, resolved when the
    /// first tuple of the relation is filed.
    offset: Option<usize>,
    by_value: RingMap<VecDeque<u64>>,
}

impl Column {
    fn indexes(&self, attr: &QualifiedAttr) -> bool {
        self.relation == attr.relation && self.attribute == attr.attribute
    }

    /// The value `tuple` is filed under in this column: `None` for tuples
    /// of other relations (and until the offset is resolved).
    fn value_in<'t>(&self, tuple: &'t Tuple) -> Option<&'t Value> {
        if self.relation != tuple.relation() {
            return None;
        }
        tuple.value(self.offset?)
    }
}

/// What a partial rewrite should be extended over.
pub(crate) enum Probe<'a> {
    /// The arrival numbers filed under a pinned column value — the
    /// shortest such list over all pins of the partial.
    Indexed(&'a VecDeque<u64>),
    /// No remaining relation is pinned on an indexed column (the next
    /// relation shares no join attribute with the ones bound so far): fall
    /// back to every stored tuple of this relation.
    Scan(&'a Name),
    /// A pinned value no stored tuple carries: the branch is dead.
    Empty,
}

/// The state of one hypercube cell besides the replica itself (which is an
/// ordinary entry of the node's query slab, so counters and churn see it).
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// The input-query replica's handle in the node's query slab.
    pub(crate) replica: Handle,
    /// The replica's compiled trigger programs, one per trigger relation
    /// (a cell triggers on every relation of its query), built lazily.
    pub(crate) programs: Vec<CompiledTrigger>,
    /// The replica's window: what a stored tuple's eviction deadline is
    /// derived from.
    pub(crate) window: WindowSpec,
    entries: VecDeque<Entry>,
    /// Arrival number of `entries.front()`.
    base: u64,
    /// How many entries, from the front, are filed in `columns`.
    indexed: usize,
    columns: Vec<Column>,
}

impl Cell {
    /// An empty cell for the replica `query`: one index column per distinct
    /// join attribute (both sides of every `JoinEq` conjunct).
    pub(crate) fn new(replica: Handle, query: &JoinQuery) -> Self {
        let mut columns: Vec<Column> = Vec::with_capacity(2 * query.join_count());
        for conjunct in query.conjuncts() {
            let Conjunct::JoinEq(a, b) = conjunct else { continue };
            for attr in [a, b] {
                if !columns.iter().any(|c| c.indexes(attr)) {
                    columns.push(Column {
                        relation: attr.relation.clone(),
                        attribute: attr.attribute.clone(),
                        offset: None,
                        by_value: RingMap::default(),
                    });
                }
            }
        }
        Cell {
            replica,
            programs: Vec::new(),
            window: *query.window(),
            entries: VecDeque::new(),
            base: 0,
            indexed: 0,
            columns,
        }
    }

    /// Number of tuples currently stored.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends a tuple (un-indexed until [`index_pending`] runs).
    ///
    /// [`index_pending`]: Cell::index_pending
    pub(crate) fn push(&mut self, tuple: Arc<Tuple>, deadline: SimTime) {
        self.entries.push_back(Entry { tuple, deadline });
    }

    /// Files every appended-but-unfiled tuple under its join-column values.
    /// A no-op when the index is current.
    pub(crate) fn index_pending(&mut self, catalog: &Catalog) {
        while self.indexed < self.entries.len() {
            let arrival = self.base + self.indexed as u64;
            let tuple = &self.entries[self.indexed].tuple;
            for column in &mut self.columns {
                if column.offset.is_none() && column.relation == tuple.relation() {
                    column.offset = catalog
                        .schema(tuple.relation())
                        .and_then(|s| s.index_of(&column.attribute));
                }
                if let Some(value) = column.value_in(tuple) {
                    column.by_value.entry(value_digest(value)).or_default().push_back(arrival);
                }
            }
            self.indexed += 1;
        }
    }

    /// Removes front tuples whose deadline is at or before `now` from store
    /// and index; returns how many were removed.
    pub(crate) fn evict_due(&mut self, now: SimTime) -> usize {
        let mut evicted = 0;
        while self.entries.front().is_some_and(|e| e.deadline <= now) {
            let entry = self.entries.pop_front().expect("front checked above");
            if self.indexed > 0 {
                self.indexed -= 1;
                self.unfile(&entry.tuple);
            }
            self.base += 1;
            evicted += 1;
        }
        evicted
    }

    /// Unfiles the front tuple (arrival number `base`): index lists are in
    /// ascending arrival order, so it heads every list it is filed in.
    fn unfile(&mut self, tuple: &Tuple) {
        for column in &mut self.columns {
            let Some(value) = column.value_in(tuple) else { continue };
            let digest = value_digest(value);
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
    pub(crate) fn tuple(&self, arrival: u64) -> Option<&Arc<Tuple>> {
        let pos = arrival.checked_sub(self.base)?;
        self.entries.get(pos as usize).map(|e| &e.tuple)
    }

    /// Every stored tuple of `relation`, in arrival order.
    pub(crate) fn tuples_of<'a>(
        &'a self,
        relation: &'a str,
    ) -> impl Iterator<Item = &'a Arc<Tuple>> + 'a {
        self.entries.iter().map(|e| &e.tuple).filter(move |t| t.relation() == relation)
    }

    /// Chooses how to extend `partial`: every `ConstEq` conjunct over an
    /// indexed column is a pin — any tuple completing the partial must carry
    /// that value — so the shortest pinned list bounds the candidates (the
    /// other pins are re-checked by the rewrite).
    pub(crate) fn probe<'a>(&'a self, partial: &'a JoinQuery) -> Probe<'a> {
        let mut best: Option<&VecDeque<u64>> = None;
        for conjunct in partial.conjuncts() {
            let Conjunct::ConstEq(attr, value) = conjunct else { continue };
            let Some(column) = self.columns.iter().find(|c| c.indexes(attr)) else { continue };
            match column.by_value.get(&value_digest(value)) {
                None => return Probe::Empty,
                Some(list) if best.is_none_or(|b| list.len() < b.len()) => best = Some(list),
                Some(_) => {}
            }
        }
        match (best, partial.relations().first()) {
            (Some(list), _) => Probe::Indexed(list),
            (None, Some(relation)) => Probe::Scan(relation),
            (None, None) => Probe::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_query::parse_query;
    use rjoin_relation::{Schema, Value};

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

    fn triangle_cell() -> Cell {
        let q = parse_query("SELECT R.A FROM R, S, T WHERE R.A = S.A AND S.B = T.B AND T.C = R.C")
            .unwrap();
        let handle = crate::slab::Slab::new().insert(());
        Cell::new(handle, &q)
    }

    fn arrivals(probe: Probe<'_>) -> Vec<u64> {
        match probe {
            Probe::Indexed(list) => list.iter().copied().collect(),
            Probe::Scan(_) => panic!("expected an indexed probe"),
            Probe::Empty => Vec::new(),
        }
    }

    #[test]
    fn one_column_per_join_attribute() {
        let cell = triangle_cell();
        let names: Vec<(&str, &str)> =
            cell.columns.iter().map(|c| (c.relation.as_str(), c.attribute.as_str())).collect();
        assert_eq!(names, [("R", "A"), ("S", "A"), ("S", "B"), ("T", "B"), ("T", "C"), ("R", "C")]);
    }

    #[test]
    fn probe_picks_the_shortest_pinned_list() {
        let catalog = catalog();
        let mut cell = triangle_cell();
        cell.push(tuple("T", [0, 5, 9], 1), SimTime::MAX);
        cell.push(tuple("T", [0, 5, 8], 2), SimTime::MAX);
        cell.push(tuple("T", [0, 6, 9], 3), SimTime::MAX);
        cell.push(tuple("T", [0, 5, 7], 4), SimTime::MAX);
        cell.index_pending(&catalog);
        // T.B = 5 holds three tuples, T.C = 9 two: probe the shorter list.
        let both = parse_query("SELECT 1 FROM T WHERE T.B = 5 AND T.C = 9").unwrap();
        assert_eq!(arrivals(cell.probe(&both)), [0, 2]);
        // A pinned value nobody carries kills the branch.
        let dead = parse_query("SELECT 1 FROM T WHERE T.B = 5 AND T.C = 1").unwrap();
        assert!(matches!(cell.probe(&dead), Probe::Empty));
        // A pin on a non-join column is not indexed; with no other pin the
        // probe falls back to the relation's tuples.
        let unpinned = parse_query("SELECT 1 FROM T WHERE T.A = 0").unwrap();
        assert!(matches!(cell.probe(&unpinned), Probe::Scan(rel) if rel == "T"));
        assert_eq!(cell.tuples_of("T").count(), 4);
        assert_eq!(cell.tuples_of("S").count(), 0);
    }

    #[test]
    fn eviction_pops_store_and_index_from_the_front() {
        let catalog = catalog();
        let mut cell = triangle_cell();
        cell.push(tuple("S", [1, 2, 0], 1), 10);
        cell.push(tuple("S", [1, 3, 0], 2), 30);
        cell.push(tuple("S", [1, 2, 0], 3), 20);
        cell.index_pending(&catalog);
        let pinned = parse_query("SELECT 1 FROM S WHERE S.A = 1").unwrap();
        assert_eq!(arrivals(cell.probe(&pinned)), [0, 1, 2]);

        assert_eq!(cell.evict_due(9), 0);
        assert_eq!(cell.evict_due(10), 1);
        assert_eq!(arrivals(cell.probe(&pinned)), [1, 2]);
        assert!(cell.tuple(0).is_none(), "evicted arrival numbers stop resolving");
        assert_eq!(cell.tuple(1).unwrap().pub_time(), 2);
        // Arrival 2 is due at 20 but waits behind arrival 1 (due at 30).
        assert_eq!(cell.evict_due(25), 0);
        assert_eq!(cell.evict_due(30), 2);
        assert_eq!(cell.len(), 0);
        assert!(cell.columns.iter().all(|c| c.by_value.is_empty()), "empty lists are dropped");
        // Arrival numbers keep counting after the store drained.
        cell.push(tuple("S", [1, 2, 0], 40), SimTime::MAX);
        cell.index_pending(&catalog);
        assert_eq!(arrivals(cell.probe(&pinned)), [3]);
    }

    #[test]
    fn unindexed_tuples_survive_eviction_and_re_homing() {
        let catalog = catalog();
        let mut cell = triangle_cell();
        cell.push(tuple("R", [1, 0, 2], 1), 5);
        cell.index_pending(&catalog);
        // Appended without a catalog at hand (the absorb path).
        cell.push(tuple("R", [1, 0, 3], 2), 6);
        assert_eq!(cell.evict_due(6), 2, "an unfiled tuple is evicted without touching the index");
        cell.push(tuple("R", [4, 0, 2], 7), SimTime::MAX);
        cell.push(tuple("S", [4, 1, 0], 8), SimTime::MAX);
        let pinned = parse_query("SELECT 1 FROM R WHERE R.A = 4").unwrap();
        assert!(matches!(cell.probe(&pinned), Probe::Empty), "not filed yet");
        cell.index_pending(&catalog);
        assert_eq!(arrivals(cell.probe(&pinned)), [2]);
        let moved: Vec<u64> = cell.into_tuples().iter().map(|t| t.pub_time()).collect();
        assert_eq!(moved, [7, 8], "re-homed in arrival order");
    }
}
