//! Re-homing: stored state moves to the node now responsible for its key.
//!
//! Three driver-level operations move state between nodes, all between
//! drains: a node joining (it takes over part of its successor's arc), a
//! node leaving (its successors take everything), and a hot-key split
//! (the base key's state moves to its sub-keys, see [`crate::split`]). Each
//! drains the affected buckets into a [`DrainedState`], groups it by the
//! node that now owns each key ([`DrainedState::group_by_owner`]) and hands
//! every share to its node's [`NodeState::absorb`], the one place that
//! knows how re-homed state re-enters a node. The TCP node process ships
//! its drained shares to their owners the same way.

use crate::engine::RJoinEngine;
use crate::error::EngineError;
use crate::expiry::ExpiryToken;
use crate::node_state::{merge_ordered, NodeState, StoredQuery};
use rjoin_dht::{Id, RingBuildHasher};
use rjoin_net::SimTime;
use rjoin_relation::Tuple;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

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
        let buckets: Vec<_> = self.stored_queries.extract_if(|ring, _| !keep(*ring)).collect();
        for (ring, bucket) in buckets {
            self.trigger_index.forget(&bucket);
            for handle in bucket.handles() {
                let stored = self.queries.remove(handle).expect("bucket handles are live");
                self.unregister_query(ring, &stored, handle);
                drained.queries.push(stored);
            }
        }
        for (ring, bucket) in self.stored_tuples.extract_if(|ring, _| !keep(*ring)) {
            self.tuple_count -= bucket.len();
            drained.tuples.push((ring, bucket.into_iter().map(|(tuple, _)| tuple).collect()));
        }
        // A cell re-homes as its replica (drained with the queries above)
        // plus its tuples in arrival order; plan and index are rebuilt
        // at the new owner, and this node's expiry tokens for it lapse.
        for (ring, cell) in self.cells.extract_if(|ring, _| !keep(*ring)) {
            let tuples = cell.into_tuples();
            self.tuple_count -= tuples.len();
            drained.tuples.push((ring, tuples));
        }
        for (ring, bucket) in self.altt.extract_if(|ring, _| !keep(*ring)) {
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
    /// and ALTT bucket front is re-scheduled on this node's deadline heap. Queries
    /// are absorbed first: a hypercube replica re-opens its cell, which the
    /// cell's tuples then land in. Every other bucket is merged into the
    /// ring's own in publication order.
    pub fn absorb(&mut self, drained: DrainedState, share: bool) {
        for mut stored in drained.queries {
            // The registry slot is tied to the previous node's slab
            // handle; the shared path re-registers the entry here.
            stored.registered = false;
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
                self.deadlines.insert(front.saturating_add(1), ExpiryToken::Altt(ring));
            }
        }
    }
}

impl RJoinEngine {
    /// Splits the drained state by current key owner and hands each share to
    /// that node via [`NodeState::absorb`] (the single place that knows how
    /// re-homed state re-enters a node — queries go through the shared path,
    /// so structurally identical entries re-merge at their new home).
    pub(crate) fn absorb_drained(&mut self, drained: DrainedState) -> Result<(), EngineError> {
        let share = self.config.share_subjoins;
        let (per_owner, errors) = drained.group_by_owner(|id| self.network.owner_of(id));
        if let Some(error) = errors.into_iter().next() {
            return Err(error.into());
        }
        for (owner, share_of_owner) in per_owner {
            if let Some(state) = self.node_mut(owner) {
                state.absorb(share_of_owner, share);
            }
        }
        Ok(())
    }

    /// After a membership change, moves every bucket that is no longer owned
    /// by the node holding it to the current owner (the handover a real DHT
    /// performs on join).
    pub(crate) fn rehome_misplaced_state(&mut self) -> Result<(), EngineError> {
        let network = &self.network;
        let mut moved: Vec<DrainedState> = Vec::new();
        for (node, state) in self.shards.iter_mut().flat_map(|s| s.nodes.iter_mut()) {
            let drained = state.drain_misplaced(|ring| {
                // On a lookup failure, keep the bucket where it is rather
                // than dropping state.
                network.owner_of(Id(ring)).map(|owner| owner == *node).unwrap_or(true)
            });
            if !drained.is_empty() {
                moved.push(drained);
            }
        }
        for drained in moved {
            self.absorb_drained(drained)?;
        }
        Ok(())
    }
}
