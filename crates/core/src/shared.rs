//! The per-node **sub-join registry**: shared evaluation of structurally
//! identical (sub-)queries across input queries.
//!
//! # Why
//!
//! RJoin's incremental rewriting (Procedures 1–3) treats every stored query
//! independently. When several input queries share the same join structure —
//! the common case in multi-tenant workloads, and the redundancy targeted by
//! Dossinger & Michel's *Optimizing Multiple Multi-Way Stream Joins* — a
//! node ends up storing one copy of the same rewritten sub-query per input
//! query, and every triggering tuple rewrites and re-indexes each copy
//! separately: `k` overlapping queries cost `k×` storage, `k×` rewriting
//! work and `k×` `Eval` messages at every step of the join chain.
//!
//! # How
//!
//! The registry keys every stored query by its canonical sub-join
//! fingerprint ([`rjoin_query::fingerprint`]): `FROM` + normalized `WHERE` +
//! window, with the `SELECT` list abstracted away. When a query arrives at a
//! node that already stores a structurally identical query under the same
//! index key and with the same window state, the newcomer is **merged**: it
//! becomes a [`crate::Subscriber`] in the entry's
//! [`crate::SubscriberTable`] — identity, owner, insertion time and its
//! `SELECT` list *as it stands at that moment* — instead of a second stored
//! copy. From then on the shared entry is rewritten and re-indexed **once**
//! per triggering tuple, and a subscriber is never touched again until the
//! `WHERE` clause completes:
//!
//! * The table is a list of **groups**. A group is an immutable,
//!   `Arc`-shared set of subscribers that merged at one entry, plus the row
//!   of tuples the shared `WHERE` clause has consumed since (at most
//!   `joins − 1` `Arc<Tuple>` handles). A trigger hands every group to the
//!   child with the triggering tuple appended to its row — a few reference
//!   counts per group, nothing per subscriber, no `SELECT` list rewritten.
//! * Why groups, not one flat set: two children with the same signature,
//!   key and window state can come from **different tuples** that carry the
//!   same join value and publication time. They merge, yet their
//!   subscribers must be projected from different tuples. A merge therefore
//!   appends the newcomer's groups (with their own rows) and files the
//!   newcomer's primary under the entry's group of not-yet-bound
//!   subscribers — O(groups).
//! * When the `WHERE` clause completes, each eligible subscriber's `SELECT`
//!   list is projected once, straight into the answer row, from its group's
//!   row plus the completing tuple ([`rjoin_query::project_select`]), and
//!   one answer per subscriber fans back out to each owner.
//!
//! # Correctness
//!
//! Sharing preserves the unshared semantics exactly:
//!
//! * **Insertion-time filter** — a combination is an answer of a subscriber
//!   iff *every* tuple in it was published at or after the subscriber's
//!   insertion time, i.e. iff `insert_time ≤` the **earliest contributing
//!   publication time**. That minimum is already tracked on every rewritten
//!   query (`window_min`, read off its bound tuples), so nobody is
//!   filtered on the way: everyone rides along, and eligibility is one
//!   comparison per subscriber at fan-out (a prefix of each group, which is
//!   sorted by insertion time). The primary is judged the same way. The
//!   entry as a whole triggers on the earliest insertion time over all its
//!   subscribers — a minimum the table caches and a merge maintains — and a
//!   tuple passing it serves at least one subscriber, so a child is
//!   produced exactly when the per-step filter used to produce one.
//! * **Windows** — merging additionally requires identical window state
//!   (`start` *and* the exact contribution span `window_min`/`window_max`),
//!   so expiry decisions, sliding-window span gates and — through
//!   `window_min` — eligibility are identical for every subscriber of an
//!   entry, whichever group it came in.
//! * **`DISTINCT`** — set-semantics queries are never merged: their
//!   duplicate-elimination filter projects on the attributes referenced by
//!   the `SELECT` list, which sharing abstracts away.
//! * **Fingerprint collisions** — a fingerprint hit is only a candidate; the
//!   registry confirms structural equality (`FROM`, `WHERE`, window, flags)
//!   before merging, so a 64-bit collision can cost a missed merge but never
//!   a wrong answer.
//!
//! The registry maps `(key ring id, fingerprint, window state)` to the
//! entry's **slab handle** ([`crate::slab::Handle`]). Handles are stable for
//! the entry's whole lifetime, so nothing needs revalidation or rebuilding
//! when a bucket compacts: expiry removals unregister their own slot (and
//! only if it still points at the dying entry — a structurally distinct
//! twin that took the slot over on a fingerprint collision is left alone),
//! and every other slot stays exactly right.

use crate::slab::Handle;
use rjoin_query::Fingerprint;
use rjoin_relation::Timestamp;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The window state that must match exactly for two entries to share a
/// slot: `(window_start, window_min, window_max)` — `start` drives expiry,
/// the min/max pair drives the sliding-window span gate.
pub(crate) type WindowState = (Option<Timestamp>, Option<Timestamp>, Option<Timestamp>);

/// The lookup key of one shared slot: the index key's ring identifier, the
/// sub-join fingerprint and the full window state.
pub(crate) type SlotKey = (u64, u64, WindowState);

/// Index from sub-join identity to the stored entry's slab handle.
#[derive(Debug, Clone, Default)]
pub struct SubJoinRegistry {
    slots: HashMap<SlotKey, Handle>,
}

impl SubJoinRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered shared slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of a sub-join, found with one hashed probe: occupied by the
    /// candidate entry's handle — callers must confirm structural equality
    /// of the entry before merging (a fingerprint hit is only a candidate)
    /// and re-point the slot otherwise — or vacant, to be filled with the
    /// handle the newcomer is stored under.
    pub(crate) fn slot(
        &mut self,
        ring: u64,
        fp: Fingerprint,
        window: WindowState,
    ) -> Entry<'_, SlotKey, Handle> {
        self.slots.entry((ring, fp.0, window))
    }

    /// Removes the slot for a sub-join, but only if it still points at
    /// `handle`: on a fingerprint collision two structurally distinct
    /// entries contend for one slot, and the survivor's registration must
    /// not be torn down by the loser's removal.
    pub(crate) fn unregister(
        &mut self,
        ring: u64,
        fp: Fingerprint,
        window: WindowState,
        handle: Handle,
    ) {
        if let Entry::Occupied(slot) = self.slot(ring, fp, window) {
            if *slot.get() == handle {
                slot.remove();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;

    const WINDOW: WindowState = (Some(3), Some(3), Some(5));

    fn two_handles() -> (Handle, Handle) {
        let mut slab = Slab::default();
        (slab.insert(()), slab.insert(()))
    }

    #[test]
    fn a_slot_is_filled_found_and_re_pointed_in_place() {
        let (first, second) = two_handles();
        let mut registry = SubJoinRegistry::new();
        match registry.slot(9, Fingerprint(77), WINDOW) {
            Entry::Vacant(slot) => slot.insert(first),
            Entry::Occupied(_) => panic!("nothing registered yet"),
        };
        // Another window state, key or fingerprint is another slot.
        assert!(matches!(
            registry.slot(9, Fingerprint(77), (Some(3), None, None)),
            Entry::Vacant(_)
        ));
        assert!(matches!(registry.slot(8, Fingerprint(77), WINDOW), Entry::Vacant(_)));
        assert!(matches!(registry.slot(9, Fingerprint(78), WINDOW), Entry::Vacant(_)));
        assert_eq!(registry.len(), 1, "probing reserves nothing");
        // A structurally distinct twin that collided takes the slot over.
        match registry.slot(9, Fingerprint(77), WINDOW) {
            Entry::Occupied(slot) => {
                assert_eq!(*slot.get(), first);
                *slot.into_mut() = second;
            }
            Entry::Vacant(_) => panic!("registered above"),
        }
        assert_eq!(registry.len(), 1);
        assert!(matches!(
            registry.slot(9, Fingerprint(77), WINDOW),
            Entry::Occupied(slot) if *slot.get() == second
        ));
    }

    /// On a fingerprint collision two structurally distinct entries contend
    /// for one slot: the loser's removal must leave the survivor registered,
    /// the owner's removal must free the slot.
    #[test]
    fn unregister_only_removes_a_slot_that_still_points_at_the_handle() {
        let (loser, survivor) = two_handles();
        let mut registry = SubJoinRegistry::new();
        registry.slot(9, Fingerprint(77), WINDOW).insert_entry(survivor);
        registry.unregister(9, Fingerprint(77), WINDOW, loser);
        assert_eq!(registry.len(), 1, "the twin holding the slot keeps it");
        registry.unregister(9, Fingerprint(77), (None, None, None), survivor);
        assert_eq!(registry.len(), 1, "another window state is another slot");
        registry.unregister(9, Fingerprint(77), WINDOW, survivor);
        assert!(registry.is_empty());
        registry.unregister(9, Fingerprint(77), WINDOW, survivor);
        assert!(registry.is_empty(), "unregistering twice is harmless");
    }
}
