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
//! The partition lives in the ring's [`Bucket`], and only once there is
//! something to tell apart. At a value-level key the pin
//! `key attribute = key value` is **vacuous** — every tuple routed to the
//! key satisfies it — and the entries of most keys are all pinned that way
//! and no other (or not pinned at all). While a bucket's entries are alike
//! in this sense they sit in the bucket's own list and nothing else is
//! allocated: the bucket *is* the contact set. The first entry that differs
//! opens the partition and refiles the whole bucket, oldest first.
//!
//! # Layout: one list per handle
//!
//! A stored query's handle is filed in exactly one list of its ring:
//!
//! * the bucket's own list — every entry of an unpartitioned bucket, the
//!   residual entries of a partitioned one;
//! * the partition's vacuous list;
//! * the chain of its pinned value in its pinned column: one circular
//!   doubly linked chain per `(column, value digest)`, its links in one
//!   `Vec` per ring (16 bytes a handle, freed links reused), entered
//!   through the column's heads — listed while a column pins at most
//!   eight values, as most pin one, mapped beyond.
//!
//! Each list hands out its handles in filing order, compacted the way
//! `Vec::swap_remove` compacts (a chain moves its last entry into the
//! removed one's link), which is the contact order placement sees. The
//! entry's [`StoredQuery::bucket_pos`] is its position in its list (its
//! link, for a chain), so unlinking it is O(1) and a probe is O(matching).
//!
//! # Maintenance contract
//!
//! **Every** site that stores a query on a bucket of
//! `NodeState::stored_queries` files it with `insert`, and every site that
//! unlinks one (the expiry pop) does it with `remove` and the same entry —
//! the pin is a pure function of the entry's query, bound tuples, key text
//! and dedup state, none of which mutate while it is stored (a rewritten
//! query's plan is attached before it is stored; an input query's pins are
//! read without one), so removal recomputes the pin to find the one list
//! the insertion filed the handle in. Both fix the `bucket_pos` of every
//! entry they move. Whole-ring teardown (`drain_misplaced`) drops the
//! bucket and tells the index with `forget`.
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

/// No link: the end of the free list, and the `prev` of a free link.
const NIL: u32 = u32::MAX;

/// One pinned entry's place in its value's chain (see [`RingIndex::links`]).
#[derive(Debug, Clone, Copy)]
struct Link {
    handle: Handle,
    /// The previous link of the chain (its tail, at the head); `NIL` marks
    /// a free link.
    prev: u32,
    /// The next link of the chain (its head, at the tail), or the next
    /// free link.
    next: u32,
}

/// One pinned column of a ring: the chain head of every pinned value's
/// digest among the entries pinned on `relation.attribute`.
#[derive(Debug, Clone)]
struct ColumnIndex {
    relation: Name,
    attribute: Name,
    heads: Heads,
}

/// Most columns pin one value, and a map's smallest table costs five
/// times what one listed head does: a column lists its heads until it pins
/// this many values, and maps them from then on.
const LISTED_HEADS: usize = 8;

/// The chain heads of one column by value digest.
#[derive(Debug, Clone)]
enum Heads {
    /// At most [`LISTED_HEADS`] `(digest, head)` pairs, searched linearly.
    Listed(Vec<(u64, u32)>),
    Mapped(RingMap<u32>),
}

impl Heads {
    fn get(&self, digest: u64) -> Option<u32> {
        match self {
            Heads::Listed(list) => list.iter().find(|(d, _)| *d == digest).map(|&(_, head)| head),
            Heads::Mapped(map) => map.get(&digest).copied(),
        }
    }

    /// Files the head of a digest not filed yet.
    fn insert(&mut self, digest: u64, head: u32) {
        match self {
            Heads::Listed(list) if list.len() < LISTED_HEADS => {
                list.reserve_exact(1);
                list.push((digest, head));
            }
            Heads::Listed(list) => {
                let mut map: RingMap<u32> = list.drain(..).collect();
                map.insert(digest, head);
                *self = Heads::Mapped(map);
            }
            Heads::Mapped(map) => {
                map.insert(digest, head);
            }
        }
    }

    fn remove(&mut self, digest: u64) {
        match self {
            Heads::Listed(list) => list.retain(|(d, _)| *d != digest),
            Heads::Mapped(map) => {
                map.remove(&digest);
            }
        }
    }

    /// Every head, in no particular order.
    fn heads(&self) -> impl Iterator<Item = u32> + '_ {
        let (listed, mapped) = match self {
            Heads::Listed(list) => (list.as_slice(), None),
            Heads::Mapped(map) => (&[][..], Some(map)),
        };
        let mapped = mapped.into_iter().flat_map(|map| map.values().copied());
        listed.iter().map(|&(_, head)| head).chain(mapped)
    }
}

/// The partition of one ring's bucket: the lists of the entries the bucket
/// does not hold itself.
#[derive(Debug, Clone)]
struct RingIndex {
    /// Pinned columns, in the order they were opened (a handful per ring:
    /// queries stored under one key pin constants over the same few
    /// attributes).
    columns: Vec<ColumnIndex>,
    /// Every pinned entry, one link each: the entries of one column and
    /// value digest form a circular doubly linked chain in filing order,
    /// entered at its column's head. A link never moves while its entry is
    /// filed; freed links are reused.
    links: Vec<Link>,
    /// The first free link, `NIL` when none is.
    free: u32,
    /// Pinned entries currently filed.
    pinned: u32,
    /// Entries pinned by the key's own value only. Every tuple routed to
    /// the key carries that value, so they are walked like the residual
    /// list instead of being sliced by digest — at their place among the
    /// columns, after the `vacuous_after` columns opened before them.
    vacuous: Vec<Handle>,
    vacuous_after: Option<usize>,
}

impl RingIndex {
    fn new() -> Self {
        RingIndex {
            columns: Vec::new(),
            links: Vec::new(),
            free: NIL,
            pinned: 0,
            vacuous: Vec::new(),
            vacuous_after: None,
        }
    }

    /// Appends `handle` to the chain of `digest` in column `column` and
    /// returns its link.
    fn link(&mut self, column: usize, digest: u64, handle: Handle) -> u32 {
        let at = match self.free {
            NIL => {
                let at = u32::try_from(self.links.len()).expect("fewer than 2^32 links");
                self.links.push(Link { handle, prev: NIL, next: NIL });
                at
            }
            free => {
                self.free = self.links[free as usize].next;
                free
            }
        };
        let heads = &mut self.columns[column].heads;
        let (prev, next) = match heads.get(digest) {
            None => {
                heads.insert(digest, at);
                (at, at)
            }
            Some(head) => {
                let tail = self.links[head as usize].prev;
                self.links[tail as usize].next = at;
                self.links[head as usize].prev = at;
                (tail, head)
            }
        };
        self.links[at as usize] = Link { handle, prev, next };
        self.pinned += 1;
        at
    }

    /// Unfiles `handle` from the chain of `digest` in column `column`, the
    /// way `Vec::swap_remove` takes an element out: the chain's last entry
    /// takes its place (its `bucket_pos` follows), and the tail link is
    /// freed. `at` is the link the entry was filed under (its
    /// `bucket_pos`); `false` when it does not hold the entry.
    fn unlink(
        &mut self,
        column: usize,
        digest: u64,
        handle: Handle,
        at: usize,
        queries: &mut Slab<StoredQuery>,
    ) -> bool {
        let heads = &mut self.columns[column].heads;
        let Some(head) = heads.get(digest) else { return false };
        let links = &mut self.links;
        match links.get(at) {
            Some(link) if link.prev != NIL && link.handle == handle => {}
            _ => return false,
        }
        let at = at as u32;
        let tail = links[head as usize].prev;
        if at != tail {
            let moved = links[tail as usize].handle;
            links[at as usize].handle = moved;
            set_pos(queries, moved, at as usize);
        }
        if tail == head {
            heads.remove(digest);
        } else {
            let before = links[tail as usize].prev;
            links[before as usize].next = head;
            links[head as usize].prev = before;
        }
        links[tail as usize] = Link { handle, prev: NIL, next: self.free };
        self.free = tail;
        self.pinned -= 1;
        true
    }

    /// Appends the handles of the chain entered at `head`, in order.
    fn extend_chain(&self, head: u32, out: &mut Vec<Handle>) {
        out.extend(chain(&self.links, head).map(|i| self.links[i as usize].handle));
    }
}

/// The links of the chain entered at `head`, in order.
fn chain(links: &[Link], head: u32) -> impl Iterator<Item = u32> + '_ {
    let mut next = Some(head);
    std::iter::from_fn(move || {
        let at = next?;
        let following = links[at as usize].next;
        next = (following != head).then_some(following);
        Some(at)
    })
}

/// Records that the entry behind `handle` now sits at `pos` of its list.
fn set_pos(queries: &mut Slab<StoredQuery>, handle: Handle, pos: usize) {
    if let Some(entry) = queries.get_mut(handle) {
        entry.bucket_pos = pos as u32;
    }
}

/// Takes `handle` out of `list` with `swap_remove`: `pos` is where the
/// entry was filed, verified before use (a positional scan remains as a
/// defensive fallback); the entry moved into its place gets its
/// `bucket_pos` fixed.
fn unlink_from(
    list: &mut Vec<Handle>,
    handle: Handle,
    pos: usize,
    queries: &mut Slab<StoredQuery>,
) -> bool {
    let pos = match list.get(pos) {
        Some(h) if *h == handle => pos,
        _ => match list.iter().position(|h| *h == handle) {
            Some(pos) => pos,
            None => return false,
        },
    };
    list.swap_remove(pos);
    if let Some(&moved) = list.get(pos) {
        set_pos(queries, moved, pos);
    }
    true
}

/// The stored queries of one ring, each filed in exactly one list: its
/// handles — in arrival order, up to `swap_remove` compaction — while the
/// entries are alike, and otherwise the residual ones, with the partition
/// holding the rest.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bucket {
    /// Every entry while `partition` is `None`; the residual entries (no
    /// tuple-resolvable pin) once it is open.
    handles: Vec<Handle>,
    /// `None` while the entries are alike: none is pinned, or (`vacuous`)
    /// each is pinned by the key's own value only.
    partition: Option<Box<RingIndex>>,
    vacuous: bool,
}

impl Bucket {
    /// Number of entries stored on the ring.
    pub(crate) fn len(&self) -> usize {
        let partitioned = self.partition.as_ref();
        self.handles.len() + partitioned.map_or(0, |p| p.vacuous.len() + p.pinned as usize)
    }

    /// Whether the ring stores no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry's handle, once each (residual entries first).
    pub(crate) fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        let (vacuous, links) = match &self.partition {
            Some(p) => (p.vacuous.as_slice(), p.links.as_slice()),
            None => (&[][..], &[][..]),
        };
        let pinned = links.iter().filter(|link| link.prev != NIL).map(|link| link.handle);
        self.handles.iter().chain(vacuous).copied().chain(pinned)
    }
}

/// Per-node trigger index over the stored-query buckets. See the module
/// docs for the maintenance contract and the soundness argument.
#[derive(Debug, Clone, Default)]
pub(crate) struct TriggerIndex {
    /// Entries currently stored in partitioned buckets.
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

    /// Files the stored entry `handle` (already in `queries`) on `bucket`
    /// and records its list position in its `bucket_pos`. An unpartitioned
    /// bucket stays that way while the newcomer is like the entries it
    /// already holds; opening the partition refiles the whole bucket,
    /// oldest entry first, the newcomer last.
    pub(crate) fn insert(
        &mut self,
        bucket: &mut Bucket,
        handle: Handle,
        queries: &mut Slab<StoredQuery>,
    ) {
        if bucket.partition.is_some() {
            self.file(bucket, handle, queries);
        } else {
            // `None`: not pinned; `Some(vacuous)`: pinned.
            let newest = queries.get(handle).and_then(entry_pin).map(|pin| pin.vacuous);
            let alike = bucket.handles.is_empty() || newest.is_some() == bucket.vacuous;
            if newest != Some(false) && alike {
                bucket.vacuous = newest.is_some();
                set_pos(queries, handle, bucket.handles.len());
                bucket.handles.push(handle);
                return;
            }
            let mut entries = std::mem::take(&mut bucket.handles);
            entries.push(handle);
            bucket.partition = Some(Box::new(RingIndex::new()));
            for handle in entries {
                self.file(bucket, handle, queries);
            }
        }
        self.counters.index_entries_high_water =
            self.counters.index_entries_high_water.max(self.live as u64);
    }

    /// Files `handle` in its one list of the partitioned `bucket`.
    fn file(&mut self, bucket: &mut Bucket, handle: Handle, queries: &mut Slab<StoredQuery>) {
        let ring_index = bucket.partition.as_mut().expect("the bucket is partitioned");
        let stored = queries.get(handle).expect("bucket handles are live");
        let pos = match entry_pin(stored) {
            None => {
                bucket.handles.push(handle);
                bucket.handles.len() - 1
            }
            Some(Pin { vacuous: true, .. }) => {
                ring_index.vacuous_after.get_or_insert(ring_index.columns.len());
                ring_index.vacuous.push(handle);
                ring_index.vacuous.len() - 1
            }
            Some(Pin { relation, attribute, value, .. }) => {
                let columns = &mut ring_index.columns;
                let column = match columns
                    .iter()
                    .position(|c| c.relation == *relation && c.attribute == *attribute)
                {
                    Some(column) => column,
                    None => {
                        // Columns open rarely and mostly one per ring.
                        columns.reserve_exact(1);
                        columns.push(ColumnIndex {
                            relation: relation.clone(),
                            attribute: attribute.clone(),
                            heads: Heads::Listed(Vec::new()),
                        });
                        columns.len() - 1
                    }
                };
                ring_index.link(column, value_digest(value), handle) as usize
            }
        };
        set_pos(queries, handle, pos);
        self.live += 1;
    }

    /// Unfiles a removed entry: `stored` is the entry `handle` was inserted
    /// with (already out of `queries`; its pin is recomputed to find its
    /// list). The entry that takes its list position gets its `bucket_pos`
    /// fixed in `queries`.
    pub(crate) fn remove(
        &mut self,
        bucket: &mut Bucket,
        handle: Handle,
        stored: &StoredQuery,
        queries: &mut Slab<StoredQuery>,
    ) {
        let pos = stored.bucket_pos as usize;
        let Some(ring_index) = &mut bucket.partition else {
            unlink_from(&mut bucket.handles, handle, pos, queries);
            return;
        };
        let found = match entry_pin(stored) {
            None => unlink_from(&mut bucket.handles, handle, pos, queries),
            Some(Pin { vacuous: true, .. }) => {
                unlink_from(&mut ring_index.vacuous, handle, pos, queries)
            }
            Some(Pin { relation, attribute, value, .. }) => ring_index
                .columns
                .iter()
                .position(|c| c.relation == *relation && c.attribute == *attribute)
                .is_some_and(|column| {
                    ring_index.unlink(column, value_digest(value), handle, pos, queries)
                }),
        };
        debug_assert!(found, "trigger-index maintenance contract violated: handle not filed");
        self.live -= usize::from(found);
    }

    /// Accounts for a bucket dropped whole (churn drained its ring).
    pub(crate) fn forget(&mut self, bucket: &Bucket) {
        if bucket.partition.is_some() {
            self.live -= bucket.len();
        }
    }

    /// Collects the handles a tuple arrival at `bucket` must contact. Of a
    /// partitioned bucket: the residual list, the tuple's own chain of
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
        self.counters.bucket_len_total += bucket.len() as u64;
        out.extend_from_slice(&bucket.handles);
        let Some(ring_index) = &bucket.partition else {
            self.counters.residual_probed += bucket.handles.len() as u64;
            self.counters.candidates_probed += out.len() as u64;
            return;
        };
        let (vacuous, opened_after) = (&ring_index.vacuous, ring_index.vacuous_after);
        self.counters.residual_probed += (bucket.handles.len() + vacuous.len()) as u64;
        for (opened, column) in ring_index.columns.iter().enumerate() {
            if opened_after == Some(opened) {
                out.extend_from_slice(vacuous);
            }
            let resolved = if column.relation == tuple.relation() {
                schema.index_of(&column.attribute).and_then(|offset| tuple.value(offset))
            } else {
                None
            };
            match resolved {
                Some(value) => {
                    if let Some(head) = column.heads.get(value_digest(value)) {
                        ring_index.extend_chain(head, out);
                    }
                }
                None => {
                    for head in column.heads.heads() {
                        ring_index.extend_chain(head, out);
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

    /// Entries currently stored in partitioned buckets (test support).
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
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
    /// `NodeState` does it (slab first, then the bucket and its index).
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
            self.index.insert(&mut self.bucket, handle, &mut self.queries);
            handle
        }

        fn unlink(&mut self, handle: Handle) {
            let removed = self.queries.remove(handle).unwrap();
            self.index.remove(&mut self.bucket, handle, &removed, &mut self.queries);
            if self.bucket.is_empty() {
                self.bucket = Bucket::default();
            }
        }

        /// The contact set of a tuple `relation(values)`, in contact order.
        fn contacts(&mut self, relation: &str, values: [i64; 3]) -> Vec<Handle> {
            let schema = Schema::new(relation, ["A", "B", "C"]).unwrap();
            let tuple = Tuple::new(relation, values.map(Value::from).to_vec(), 0);
            let mut out = Vec::new();
            self.index.collect_candidates(&self.bucket, &tuple, &schema, &mut out);
            out
        }

        /// The sorted contact set of a tuple `relation(values)`.
        fn probe(&mut self, relation: &str, values: [i64; 3]) -> Vec<Handle> {
            let mut out = self.contacts(relation, values);
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

    /// Entries pinned by the key's own value stay in the bucket's own list;
    /// the first entry that differs opens a partition over the whole
    /// bucket, which closes again with the bucket.
    #[test]
    fn a_bucket_is_partitioned_only_once_its_entries_differ() {
        let mut ring = Ring::new();
        let v1 = ring.store(PINNED_A2, "R+A+i:2");
        let v2 = ring.store(PINNED_A2, "R+A+i:2");
        assert!(ring.bucket.partition.is_none() && ring.index.live() == 0, "nothing partitioned");
        assert_eq!(ring.probe("R", [2, 5, 0]), sorted([v1, v2]));
        assert_eq!(ring.index.counters().residual_probed, 2, "walked like a residual list");

        let d7 = ring.store(PINNED_A2_B7, "R+A+i:2");
        assert_eq!(ring.index.live(), 3, "opening the partition refiles the entries already there");
        assert!(ring.bucket.handles.is_empty(), "none is residual: each is in one partition list");
        assert_eq!(ring.probe("R", [2, 5, 0]), sorted([v1, v2]));
        assert_eq!(ring.probe("R", [2, 7, 0]), sorted([v1, v2, d7]));
        let v3 = ring.store(PINNED_A2, "R+A+i:2");
        assert_eq!(ring.index.live(), 4, "a partitioned bucket counts every entry it holds");
        ring.unlink(d7);
        assert_eq!(ring.probe("R", [2, 7, 0]), sorted([v1, v2, v3]));
        for handle in [v1, v2, v3] {
            ring.unlink(handle);
        }
        // An unpinned entry and a vacuously pinned one differ too.
        let (u, v) = (ring.store(UNPINNED, "R+A+i:2"), ring.store(PINNED_A2, "R+A+i:2"));
        assert_eq!((ring.index.live(), ring.probe("R", [2, 0, 0])), (2, sorted([u, v])));
    }

    /// The layout the contact order is specified by: one `Vec` per list
    /// (the bucket, the residual and vacuous lists, one per pinned value),
    /// each compacted by `swap_remove`. The index must hand out exactly its
    /// contact sequence: placement reads the candidates in that order.
    #[derive(Default)]
    struct Model {
        all: Vec<Handle>,
        vacuous_bucket: bool,
        partition: Option<ModelPartition>,
    }

    #[derive(Default)]
    struct ModelPartition {
        residual: Vec<Handle>,
        vacuous: Vec<Handle>,
        vacuous_after: Option<usize>,
        columns: Vec<(Name, Name, RingMap<Vec<Handle>>)>,
    }

    impl Model {
        fn insert(&mut self, handle: Handle, queries: &Slab<StoredQuery>) {
            self.all.push(handle);
            let mut newcomers = vec![handle];
            if self.partition.is_none() {
                let newest = entry_pin(queries.get(handle).unwrap()).map(|pin| pin.vacuous);
                let alike = self.all.len() == 1 || newest.is_some() == self.vacuous_bucket;
                if newest != Some(false) && alike {
                    self.vacuous_bucket = newest.is_some();
                    return;
                }
                newcomers = self.all.clone();
            }
            let partition = self.partition.get_or_insert_default();
            for handle in newcomers {
                match entry_pin(queries.get(handle).unwrap()) {
                    None => partition.residual.push(handle),
                    Some(Pin { vacuous: true, .. }) => {
                        partition.vacuous_after.get_or_insert(partition.columns.len());
                        partition.vacuous.push(handle);
                    }
                    Some(Pin { relation, attribute, value, .. }) => {
                        let columns = &mut partition.columns;
                        let at =
                            columns.iter().position(|(r, a, _)| r == relation && a == attribute);
                        let at = at.unwrap_or_else(|| {
                            columns.push((relation.clone(), attribute.clone(), RingMap::default()));
                            columns.len() - 1
                        });
                        columns[at].2.entry(value_digest(value)).or_default().push(handle);
                    }
                }
            }
        }

        fn remove(&mut self, handle: Handle, stored: &StoredQuery) {
            let take = |list: &mut Vec<Handle>| {
                let pos = list.iter().position(|h| *h == handle).unwrap();
                list.swap_remove(pos);
            };
            take(&mut self.all);
            if let Some(partition) = &mut self.partition {
                match entry_pin(stored) {
                    None => take(&mut partition.residual),
                    Some(Pin { vacuous: true, .. }) => take(&mut partition.vacuous),
                    Some(Pin { relation, attribute, value, .. }) => {
                        let column = partition
                            .columns
                            .iter_mut()
                            .find(|(r, a, _)| r == relation && a == attribute)
                            .unwrap();
                        let digest = value_digest(value);
                        let slice = column.2.get_mut(&digest).unwrap();
                        take(slice);
                        if slice.is_empty() {
                            column.2.remove(&digest);
                        }
                    }
                }
            }
            if self.all.is_empty() {
                *self = Model::default();
            }
        }

        fn contacts(&self, tuple: &Tuple, schema: &Schema) -> Vec<Handle> {
            let Some(partition) = &self.partition else { return self.all.clone() };
            let mut out = partition.residual.clone();
            for (opened, (relation, attribute, by_value)) in partition.columns.iter().enumerate() {
                if partition.vacuous_after == Some(opened) {
                    out.extend_from_slice(&partition.vacuous);
                }
                let resolved = (*relation == tuple.relation())
                    .then(|| schema.index_of(attribute).and_then(|at| tuple.value(at)))
                    .flatten();
                match resolved {
                    Some(value) => {
                        out.extend(by_value.get(&value_digest(value)).into_iter().flatten())
                    }
                    None => out.extend(by_value.values().flatten()),
                }
            }
            if partition.vacuous_after.is_some_and(|after| after >= partition.columns.len()) {
                out.extend_from_slice(&partition.vacuous);
            }
            out
        }
    }

    /// Every stored entry sits in exactly one list, at its `bucket_pos`,
    /// and every link in use is on exactly one chain.
    fn assert_filed_once(ring: &Ring, live: &[Handle]) {
        let bucket = &ring.bucket;
        let pos = |h: Handle| ring.queries.get(h).unwrap().bucket_pos as usize;
        let mut filed: Vec<Handle> = bucket.handles.clone();
        assert!(bucket.handles.iter().enumerate().all(|(at, h)| pos(*h) == at));
        if let Some(partition) = &bucket.partition {
            assert!(partition.vacuous.iter().enumerate().all(|(at, h)| pos(*h) == at));
            filed.extend_from_slice(&partition.vacuous);
            let mut chained = 0;
            for column in &partition.columns {
                for head in column.heads.heads() {
                    for at in chain(&partition.links, head) {
                        let link = partition.links[at as usize];
                        assert_eq!(pos(link.handle), at as usize, "a pinned entry's link");
                        filed.push(link.handle);
                        chained += 1;
                    }
                }
            }
            let in_use = partition.links.iter().filter(|link| link.prev != NIL).count();
            assert_eq!((chained, in_use), (partition.pinned as usize, chained));
        }
        filed.sort();
        let mut expected = live.to_vec();
        expected.sort();
        assert_eq!(filed, expected, "every live entry filed exactly once");
        let mut listed: Vec<Handle> = bucket.handles().collect();
        listed.sort();
        assert_eq!((listed, bucket.len()), (expected, live.len()));
    }

    /// The contact set a linear walk over every live entry yields: an entry
    /// is skipped only when the tuple resolves its (non-vacuous) pin's
    /// column to a value of another digest.
    fn linear_walk(ring: &Ring, live: &[Handle], tuple: &Tuple, schema: &Schema) -> Vec<Handle> {
        let mut out: Vec<Handle> = live
            .iter()
            .copied()
            .filter(|h| match entry_pin(ring.queries.get(*h).unwrap()) {
                Some(Pin { relation, attribute, value, vacuous: false }) => {
                    let resolved = (*relation == tuple.relation())
                        .then(|| schema.index_of(attribute).and_then(|at| tuple.value(at)))
                        .flatten();
                    resolved.is_none_or(|v| value_digest(v) == value_digest(value))
                }
                _ => true,
            })
            .collect();
        out.sort();
        out
    }

    /// Stored-query shapes over `R`, by the pin they take at the
    /// attribute-level key `R+C` / the value-level key `R+A+i:2`.
    fn shape(kind: usize, v: i64) -> String {
        let tail = "R.C = S.C";
        match kind {
            // residual / residual
            0 => format!("SELECT S.B FROM R, S WHERE {tail}"),
            // DISTINCT: residual everywhere
            1 => format!("SELECT DISTINCT S.B FROM R, S WHERE R.A = {v} AND {tail}"),
            // A = v / vacuous when v = 2
            2 => format!("SELECT S.B FROM R, S WHERE R.A = {v} AND {tail}"),
            // B = v / B = v
            3 => format!("SELECT S.B FROM R, S WHERE R.B = {v} AND {tail}"),
            // A = 2 / B = v
            4 => format!("SELECT S.B FROM R, S WHERE R.A = 2 AND R.B = {v} AND {tail}"),
            // A = 2 / vacuous
            _ => format!("SELECT S.B FROM R, S WHERE R.A = 2 AND {tail}"),
        }
    }

    proptest::proptest! {
        /// Random insert and remove sequences over residual, vacuous and
        /// pinned entries — opening partitions on the way, and emptying and
        /// reopening buckets — keep every live entry filed exactly once,
        /// and every probe contacts the linear walk's set, in the contact
        /// order of the one-`Vec`-per-list layout.
        #[test]
        fn probes_equal_the_linear_walk_and_every_entry_is_filed_once(
            value_level in proptest::arbitrary::any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0usize..64, 0i64..12, 0i64..12), 1..120),
        ) {
            let key = if value_level { "R+A+i:2" } else { "R+C" };
            let (mut ring, mut model, mut live) = (Ring::new(), Model::default(), Vec::new());
            let mut high_water = 0;
            for (op, pick, a, b) in ops {
                match op {
                    0 | 1 => {
                        let handle = ring.store(&shape(pick % 6, a), key);
                        model.insert(handle, &ring.queries);
                        live.push(handle);
                    }
                    2 if !live.is_empty() => {
                        let handle = live.swap_remove(pick % live.len());
                        let removed = ring.queries.get(handle).unwrap().clone();
                        ring.unlink(handle);
                        model.remove(handle, &removed);
                    }
                    _ => {
                        let relation = if pick % 4 == 0 { "S" } else { "R" };
                        let schema = Schema::new(relation, ["A", "B", "C"]).unwrap();
                        let tuple = Tuple::new(relation, [a, b, 0].map(Value::from).to_vec(), 0);
                        let (contacts, mut modelled) =
                            (ring.contacts(relation, [a, b, 0]), model.contacts(&tuple, &schema));
                        let mut set = contacts.clone();
                        set.sort();
                        if relation == "R" {
                            // Every column resolved: the order is specified.
                            proptest::prop_assert_eq!(&contacts, &modelled);
                        }
                        modelled.sort();
                        proptest::prop_assert_eq!(&set, &modelled);
                        proptest::prop_assert_eq!(set, linear_walk(&ring, &live, &tuple, &schema));
                    }
                }
                assert_filed_once(&ring, &live);
                let partitioned = if ring.bucket.partition.is_some() { live.len() } else { 0 };
                proptest::prop_assert_eq!(ring.index.live(), partitioned);
                high_water = high_water.max(partitioned);
                proptest::prop_assert_eq!(
                    ring.index.counters().index_entries_high_water,
                    high_water as u64
                );
            }
        }
    }
}
