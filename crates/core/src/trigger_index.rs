//! Value-partitioned trigger index: probe O(matching) stored queries per
//! tuple instead of walking the whole bucket.
//!
//! Every stored query whose compiled rewrite pins a **tuple-resolvable
//! equality** — a `ConstEq` over the relation of its index key, i.e. a
//! constant predicate of the original query or a join value already bound
//! by an earlier rewrite — is filed under `(ring, column, value)`; queries
//! with no such pin (no constants over the key relation, `DISTINCT`
//! entries whose dedup filter mutates on contact) go to a per-ring
//! **residual** list that is always walked. A tuple arrival then probes
//! `residual ∪ index[(ring, column, tuple[column])]`: entries pinned to a
//! different value of a column the tuple resolves would have rewritten to
//! `Mismatch` anyway, so skipping them cannot change any answer.
//!
//! The partition lives in the ring's [`Bucket`], next to the handles it
//! shadows, and only once there is something to tell apart. At a
//! value-level key the pin `key attribute = key value` is **vacuous** —
//! every tuple routed to the key satisfies it — and the entries of most
//! keys are all pinned that way and no other (or not pinned at all). While
//! a bucket's entries are alike in this sense nothing is filed or
//! allocated: the bucket *is* the contact set. The first entry that differs
//! opens the partition and files the whole bucket, oldest first; from then
//! on it shadows the bucket entry for entry until the bucket empties.
//!
//! # Maintenance contract
//!
//! **Every** site that pushes a stored-query handle onto a bucket of
//! `NodeState::stored_queries` must `insert` it here, and every site that
//! unlinks one (the expiry pop) must `remove` it with the same entry —
//! the pin is a pure function of the entry's query, bound tuples, key text
//! and dedup state, none of which mutate while it is stored (a rewritten
//! query's plan is attached before it is stored; an input query's pins are
//! read without one), so removal recomputes
//! the pin and finds the one vector the insertion filed the handle under
//! (or an unpartitioned bucket, and nothing to unfile). Whole-ring teardown
//! (`drain_misplaced`) drops the bucket and tells the index with `forget`.
//! Bucket compaction is `swap_remove`-based; the pop also fixes the moved
//! entry's `StoredQuery::bucket_pos`, so unlinking one handle stays O(1).
//!
//! Hypercube cell replicas are filed like any other stored query (the
//! contract has no exceptions) but never probed: a cell ring's arrivals
//! are joined against the cell's own indexed tuple store (see
//! [`crate::cell`]), not against a bucket of stored queries.
//!
//! # Why skipping is sound
//!
//! The answer of a tuple arrival is defined entry by entry: every stored
//! query of the bucket rewritten with the tuple by `rjoin_query::rewrite`,
//! the reference semantics the plan-driven trigger is tested against. A skipped entry differs from a contacted one in one way only:
//! no `Mismatch` rewrite runs. By construction the skipped entry's pinned
//! constant filter rejects the tuple, so `rewrite` returns `Mismatch`: the
//! contact would have produced no action and mutated nothing (entries
//! whose contact *can* mutate state — `DISTINCT` dedup admission — are
//! residual; a contact never removes an entry, expiry does).
//!
//! Ring identifiers are 64-bit digests of the key text, so two key texts
//! may collide onto one ring and a bucket may mix entries of several keys.
//! Collisions stay sound: a probing tuple only skips columns of **its own
//! relation** that it resolves to a different value — foreign-relation
//! columns and columns its schema cannot resolve are walked in full,
//! exactly like the residual list.

use crate::node_state::StoredQuery;
use crate::slab::{Handle, Slab};
use rjoin_dht::{RingHasher, RingMap};
use rjoin_metrics::ProbeCounters;
use rjoin_query::probe_pins;
use rjoin_relation::{Name, Schema, Tuple, Value};
use std::hash::{Hash, Hasher};

/// 64-bit digest a value is filed under. Within-column digest collisions
/// are harmless: a colliding candidate's constant filter rejects the tuple
/// during the trigger, exactly as if it had been contacted unfiled.
pub(crate) fn value_digest(value: &Value) -> u64 {
    let mut hasher = RingHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The pin of a stored entry: the first tuple-resolvable constant equality
/// over the key's relation. No pin sends the entry to the residual list.
struct Pin<'a> {
    relation: &'a Name,
    attribute: &'a Name,
    value: &'a Value,
    /// Whether this is the key's own `(attribute, value)` pair: a later
    /// constant is preferred, the vacuous pin is only the fallback.
    vacuous: bool,
}

fn entry_pin(stored: &StoredQuery) -> Option<Pin<'_>> {
    if stored.dedup.is_some() {
        return None;
    }
    let mut parts = stored.key.as_str().splitn(3, '+');
    let key_rel = parts.next()?;
    let key_attr = parts.next();
    let key_frag = parts.next();
    let mut fallback = None;
    let pending = &stored.pending;
    // The rewritten query's selections over the key relation, in `WHERE`
    // order: read off the input query while nothing is bound, through the
    // plan once something is (a bound query without one — it did not
    // compile — is never triggered, so it can sit in the residual list).
    let (unbound, bound) = match pending.plan() {
        _ if pending.is_input() => (Some(probe_pins(&pending.query, key_rel)), None),
        Some(plan) => (None, Some(plan.pins(&pending.bound))),
        None => return None,
    };
    let bound = bound.into_iter().flatten().filter(|(_, attr, _)| attr.relation == *key_rel);
    let pins = unbound.into_iter().flatten().chain(bound.map(|(_, attr, value)| (attr, value)));
    for (attr, value) in pins {
        let vacuous = key_attr == Some(attr.attribute.as_str())
            && key_frag.is_some_and(|frag| value.is_key_fragment(frag));
        let pin = Pin { relation: &attr.relation, attribute: &attr.attribute, value, vacuous };
        if !vacuous {
            return Some(pin);
        }
        fallback = fallback.or(Some(pin));
    }
    fallback
}

/// One pinned column of a ring: the handles of every entry pinned on
/// `relation.attribute`, partitioned by pinned-value digest.
#[derive(Debug, Clone)]
struct ColumnIndex {
    relation: Name,
    attribute: Name,
    by_value: RingMap<Vec<Handle>>,
}

/// The partition of one ring's bucket.
#[derive(Debug, Clone, Default)]
struct RingIndex {
    /// Pinned entries, grouped by pin column (a handful per ring: queries
    /// stored under one key pin constants over the same few attributes).
    columns: Vec<ColumnIndex>,
    /// Entries with no tuple-resolvable pin; walked on every arrival.
    residual: Vec<Handle>,
    /// Entries pinned by the key's own value only. Every tuple routed to
    /// the key carries that value, so they are walked like the residual
    /// list instead of being sliced by digest — at their place among the
    /// columns, after the `vacuous_after` columns opened before them.
    vacuous: Vec<Handle>,
    vacuous_after: Option<usize>,
}

/// The stored queries of one ring: their handles — in arrival order, up to
/// `swap_remove` compaction — and the partition the index keeps over them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bucket {
    pub(crate) handles: Vec<Handle>,
    /// `None` while the entries are alike: none is pinned, or (`vacuous`)
    /// each is pinned by the key's own value only.
    partition: Option<Box<RingIndex>>,
    vacuous: bool,
}

/// Per-node trigger index over the stored-query buckets. See the module
/// docs for the maintenance contract and the soundness argument.
#[derive(Debug, Clone, Default)]
pub(crate) struct TriggerIndex {
    /// Handles currently filed across all partitions.
    live: usize,
    counters: ProbeCounters,
    /// Candidate buffer reused across tuple arrivals.
    pub(crate) scratch: Vec<Handle>,
}

impl TriggerIndex {
    /// Snapshot of the probe counters.
    pub(crate) fn counters(&self) -> ProbeCounters {
        self.counters
    }

    /// Files the stored entry `handle`, just pushed onto `bucket` (entries
    /// are resolved through `queries`). An unpartitioned bucket stays that
    /// way while the newcomer is like the entries it already holds; opening
    /// the partition files the whole bucket, oldest entry first.
    pub(crate) fn insert(
        &mut self,
        bucket: &mut Bucket,
        handle: Handle,
        queries: &Slab<StoredQuery>,
    ) {
        let mut newcomers = std::slice::from_ref(&handle);
        if bucket.partition.is_none() {
            // `None`: not pinned; `Some(vacuous)`: pinned.
            let newest = queries.get(handle).and_then(entry_pin).map(|pin| pin.vacuous);
            let alike = bucket.handles.len() == 1 || newest.is_some() == bucket.vacuous;
            if newest != Some(false) && alike {
                bucket.vacuous = newest.is_some();
                return;
            }
            newcomers = bucket.handles.as_slice();
        }
        let ring_index = bucket.partition.get_or_insert_default();
        for (handle, stored) in newcomers.iter().filter_map(|h| Some((*h, queries.get(*h)?))) {
            match entry_pin(stored) {
                None => ring_index.residual.push(handle),
                Some(Pin { vacuous: true, .. }) => {
                    ring_index.vacuous_after.get_or_insert(ring_index.columns.len());
                    ring_index.vacuous.push(handle);
                }
                Some(Pin { relation, attribute, value, .. }) => {
                    let pos = ring_index
                        .columns
                        .iter()
                        .position(|c| c.relation == *relation && c.attribute == *attribute);
                    let column = match pos {
                        Some(pos) => &mut ring_index.columns[pos],
                        None => {
                            ring_index.columns.push(ColumnIndex {
                                relation: relation.clone(),
                                attribute: attribute.clone(),
                                by_value: RingMap::default(),
                            });
                            ring_index.columns.last_mut().expect("pushed above")
                        }
                    };
                    column.by_value.entry(value_digest(value)).or_default().push(handle);
                }
            }
            self.live += 1;
        }
        self.counters.index_entries_high_water =
            self.counters.index_entries_high_water.max(self.live as u64);
    }

    /// Unfiles a removed entry's handle. `stored` must be the entry the
    /// handle was inserted with (the pin is recomputed from it).
    pub(crate) fn remove(&mut self, bucket: &mut Bucket, handle: Handle, stored: &StoredQuery) {
        let Some(ring_index) = &mut bucket.partition else { return };
        let found = match entry_pin(stored) {
            None => remove_handle(&mut ring_index.residual, handle),
            Some(Pin { vacuous: true, .. }) => remove_handle(&mut ring_index.vacuous, handle),
            Some(Pin { relation, attribute, value, .. }) => {
                let digest = value_digest(value);
                ring_index
                    .columns
                    .iter_mut()
                    .find(|c| c.relation == *relation && c.attribute == *attribute)
                    .is_some_and(|column| match column.by_value.get_mut(&digest) {
                        Some(slice) => {
                            let found = remove_handle(slice, handle);
                            if slice.is_empty() {
                                column.by_value.remove(&digest);
                            }
                            found
                        }
                        None => false,
                    })
            }
        };
        debug_assert!(found, "trigger-index maintenance contract violated: handle not filed");
        self.live -= usize::from(found);
    }

    /// Accounts for a bucket dropped whole (churn drained its ring).
    pub(crate) fn forget(&mut self, bucket: &Bucket) {
        if bucket.partition.is_some() {
            self.live -= bucket.handles.len();
        }
    }

    /// Collects the handles a tuple arrival at `bucket` must contact. Of a
    /// partitioned bucket: the residual list, the tuple's own slice of
    /// every column it resolves, and every column it cannot resolve
    /// (foreign relation, unknown attribute, arity-short tuple) in full.
    /// Of any other: all of it — nothing there discriminates. `schema` is
    /// the schema of `tuple`'s relation.
    pub(crate) fn collect_candidates(
        &mut self,
        bucket: &Bucket,
        tuple: &Tuple,
        schema: &Schema,
        out: &mut Vec<Handle>,
    ) {
        self.counters.indexed_probes += 1;
        self.counters.bucket_len_total += bucket.handles.len() as u64;
        let unpartitioned = RingIndex::default();
        let (residual, ring_index) = match &bucket.partition {
            None => (bucket.handles.as_slice(), &unpartitioned),
            Some(ring_index) => (ring_index.residual.as_slice(), &**ring_index),
        };
        let (vacuous, opened_after) = (&ring_index.vacuous, &ring_index.vacuous_after);
        out.extend_from_slice(residual);
        self.counters.residual_probed += (residual.len() + vacuous.len()) as u64;
        for (opened, column) in ring_index.columns.iter().enumerate() {
            if *opened_after == Some(opened) {
                out.extend_from_slice(vacuous);
            }
            let resolved = if column.relation == tuple.relation() {
                schema.index_of(&column.attribute).and_then(|offset| tuple.value(offset))
            } else {
                None
            };
            match resolved {
                Some(value) => {
                    if let Some(slice) = column.by_value.get(&value_digest(value)) {
                        out.extend_from_slice(slice);
                    }
                }
                None => {
                    for slice in column.by_value.values() {
                        out.extend_from_slice(slice);
                    }
                }
            }
        }
        if opened_after.is_some_and(|after| after >= ring_index.columns.len()) {
            out.extend_from_slice(vacuous);
        }
        self.counters.candidates_probed += out.len() as u64;
    }

    /// Books one bounded walk over stored *tuples*: `probed` of the
    /// `bucket_len` tuples stored under a key were contacted — an arriving
    /// query's binary-searched run over the publication-ordered bucket (the
    /// query-side twin of [`collect_candidates`](Self::collect_candidates))
    /// or one index probe of a hypercube cell's join cascade.
    pub(crate) fn note_tuple_probe(&mut self, bucket_len: usize, probed: usize) {
        self.counters.indexed_probes += 1;
        self.counters.bucket_len_total += bucket_len as u64;
        self.counters.candidates_probed += probed as u64;
    }

    /// Handles currently filed (test support).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

fn remove_handle(bucket: &mut Vec<Handle>, handle: Handle) -> bool {
    let pos = bucket.iter().position(|h| *h == handle);
    pos.map(|pos| bucket.swap_remove(pos)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{PendingQuery, QueryId};
    use rjoin_dht::{HashedKey, Id};
    use rjoin_query::{parse_query, IndexLevel};

    const PINNED_A2: &str = "SELECT S.B FROM R, S WHERE R.A = 2 AND R.C = S.C";
    const PINNED_A2_B7: &str = "SELECT S.B FROM R, S WHERE R.A = 2 AND R.B = 7 AND R.C = S.C";
    const UNPINNED: &str = "SELECT S.B FROM R, S WHERE R.C = S.C";

    fn stored(sql: &str, key: &str) -> StoredQuery {
        let owner = Id(1);
        let query = parse_query(sql).unwrap();
        let pending = PendingQuery::input(QueryId { owner, seq: 0 }, owner, 0, query);
        let level =
            if key.matches('+').count() == 2 { IndexLevel::Value } else { IndexLevel::Attribute };
        StoredQuery::new(pending, HashedKey::new(key), level)
    }

    fn pin(stored: &StoredQuery) -> Option<(&str, Value, bool)> {
        let pin = entry_pin(stored)?;
        Some((pin.attribute.as_str(), pin.value.clone(), pin.vacuous))
    }

    /// One ring of a node: entries are stored and unlinked the way
    /// `NodeState` does it (slab and bucket first, then the index).
    struct Ring {
        queries: Slab<StoredQuery>,
        bucket: Bucket,
        index: TriggerIndex,
    }

    impl Ring {
        fn new() -> Self {
            Ring {
                queries: Slab::default(),
                bucket: Bucket::default(),
                index: TriggerIndex::default(),
            }
        }

        fn store(&mut self, sql: &str, key: &str) -> Handle {
            let handle = self.queries.insert(stored(sql, key));
            self.bucket.handles.push(handle);
            self.index.insert(&mut self.bucket, handle, &self.queries);
            handle
        }

        fn unlink(&mut self, handle: Handle) {
            self.bucket.handles.retain(|h| *h != handle);
            let removed = self.queries.remove(handle).unwrap();
            self.index.remove(&mut self.bucket, handle, &removed);
            if self.bucket.handles.is_empty() {
                self.bucket = Bucket::default();
            }
        }

        /// The sorted contact set of a tuple `relation(values)`.
        fn probe(&mut self, relation: &str, values: [i64; 3]) -> Vec<Handle> {
            let schema = Schema::new(relation, ["A", "B", "C"]).unwrap();
            let tuple = Tuple::new(relation, values.map(Value::from).to_vec(), 0);
            let mut out = Vec::new();
            self.index.collect_candidates(&self.bucket, &tuple, &schema, &mut out);
            out.sort();
            out
        }
    }

    fn sorted<const N: usize>(mut handles: [Handle; N]) -> Vec<Handle> {
        handles.sort();
        handles.to_vec()
    }

    #[test]
    fn pin_prefers_first_constant_at_attribute_level() {
        assert_eq!(pin(&stored(PINNED_A2_B7, "R+C")), Some(("A", Value::from(2), false)));
    }

    #[test]
    fn pin_skips_the_vacuous_key_equality_at_value_level() {
        assert_eq!(pin(&stored(PINNED_A2_B7, "R+A+i:2")), Some(("B", Value::from(7), false)));
        // With the key equality as the only constant, the vacuous pin is the
        // fallback — and marked, so it opens no partition by itself.
        assert_eq!(pin(&stored(PINNED_A2, "R+A+i:2")), Some(("A", Value::from(2), true)));
        // The key's attribute pinned to another value is not vacuous.
        assert_eq!(pin(&stored(PINNED_A2, "R+A+s:2")), Some(("A", Value::from(2), false)));
        assert_eq!(pin(&stored(PINNED_A2, "R+A+i:20")), Some(("A", Value::from(2), false)));
    }

    #[test]
    fn distinct_and_unpinned_queries_are_residual() {
        let distinct = "SELECT DISTINCT S.B FROM R, S WHERE R.A = 2 AND R.C = S.C";
        assert!(pin(&stored(distinct, "R+C")).is_none(), "dedup admission mutates on contact");
        assert!(pin(&stored(UNPINNED, "R+C")).is_none(), "no constant over the key relation");
        let foreign = "SELECT S.B FROM R, S WHERE S.B = 3 AND R.C = S.C";
        assert!(
            pin(&stored(foreign, "R+C")).is_none(),
            "other relations' constants do not resolve"
        );
    }

    #[test]
    fn probes_return_residual_and_matching_slice_only() {
        let mut ring = Ring::new();
        let h2 = ring.store(PINNED_A2, "R+C");
        let h9 = ring.store("SELECT S.B FROM R, S WHERE R.A = 9 AND R.C = S.C", "R+C");
        let hr = ring.store(UNPINNED, "R+C");
        assert_eq!(ring.index.live(), 3);

        // An R tuple with A = 2 probes the residual plus the A = 2 slice.
        assert_eq!(ring.probe("R", [2, 0, 0]), sorted([hr, h2]));
        // A foreign-relation tuple cannot resolve the column: full walk.
        assert_eq!(ring.probe("S", [2, 0, 0]).len(), 3, "collision safety");

        let counters = ring.index.counters();
        assert_eq!(counters.indexed_probes, 2);
        assert_eq!(counters.bucket_len_total, 6);
        assert_eq!(counters.residual_probed, 2);
        assert_eq!(counters.candidates_probed, 5);
        assert_eq!(counters.index_entries_high_water, 3);

        // Removal unfiles exactly the handle's slice and empties the ring.
        for handle in [h2, h9, hr] {
            ring.unlink(handle);
        }
        assert_eq!(ring.index.live(), 0);
        assert!(ring.probe("R", [2, 0, 0]).is_empty());
    }

    /// Entries pinned by the key's own value file nothing; the first entry
    /// that differs opens a partition over the whole bucket, which closes
    /// again with the bucket.
    #[test]
    fn a_bucket_is_partitioned_only_once_its_entries_differ() {
        let mut ring = Ring::new();
        let v1 = ring.store(PINNED_A2, "R+A+i:2");
        let v2 = ring.store(PINNED_A2, "R+A+i:2");
        assert!(ring.bucket.partition.is_none() && ring.index.live() == 0, "nothing filed");
        assert_eq!(ring.probe("R", [2, 5, 0]), sorted([v1, v2]));
        assert_eq!(ring.index.counters().residual_probed, 2, "walked like a residual list");

        let d7 = ring.store(PINNED_A2_B7, "R+A+i:2");
        assert_eq!(ring.index.live(), 3, "opening the partition files the entries already there");
        assert_eq!(ring.probe("R", [2, 5, 0]), sorted([v1, v2]));
        assert_eq!(ring.probe("R", [2, 7, 0]), sorted([v1, v2, d7]));
        let v3 = ring.store(PINNED_A2, "R+A+i:2");
        assert_eq!(ring.index.live(), 4, "a partition shadows its bucket entry for entry");
        ring.unlink(d7);
        assert_eq!(ring.probe("R", [2, 7, 0]), sorted([v1, v2, v3]));
        for handle in [v1, v2, v3] {
            ring.unlink(handle);
        }
        // An unpinned entry and a vacuously pinned one differ too.
        let (u, v) = (ring.store(UNPINNED, "R+A+i:2"), ring.store(PINNED_A2, "R+A+i:2"));
        assert_eq!((ring.index.live(), ring.probe("R", [2, 0, 0])), (2, sorted([u, v])));
    }
}
