//! The sharded event-queue runtime: N per-shard queues advanced together,
//! one global tick round at a time.
//!
//! [`ShardedNetwork`] partitions the ring's nodes into `n` **shards** by
//! contiguous ring-identifier range. Each shard owns its own constant-δ
//! [`BucketQueue`], its own local virtual clock and its own traffic buffer.
//! Intra-shard messages are scheduled straight into the shard's own queue;
//! cross-shard messages go through the receiving shard's inbox.
//!
//! # The round
//!
//! The driver advances all shards together. One round
//!
//! 1. drains every shard's inbox into its queue and takes the smallest
//!    pending arrival tick `t` over all shards
//!    ([`ShardHandle::next_event_time`]); when no shard has one, the drain is
//!    quiescent;
//! 2. pops every shard's bucket due at `t` ([`ShardHandle::try_take_tick`])
//!    and runs its handlers;
//! 3. runs every shard's effects, whose sends arrive at `clock + δ`.
//!
//! Every link has the same delay δ ≥ 1, so no effect of round `t` can
//! produce an arrival at or before `t`: the global minimum is exactly the
//! tick the single queue would pop next. Every handler of tick `t` has run
//! on every shard before any effect of tick `t`, and no shard has handled a
//! later tick, so an effect may read another shard's node state (the
//! engine's RIC rate lookups) without waiting and sees the same state
//! whichever thread reads it. The phases of one round touch disjoint shard
//! state, so a driver may spread each phase over as many threads as it
//! likes, provided it separates the phases and the rounds.
//!
//! # Determinism
//!
//! The global `(at, seq)` order of the single-queue [`Network`] cannot be
//! reproduced without serializing the run, so the sharded runtime replaces
//! the sequence counter with a **lineage**: a 128-bit identity derived by
//! hash-chaining from the message's causal parent ([`root_lineage`] /
//! [`child_lineage`]). Lineages are a pure function of the dataflow — they
//! do not depend on the shard count or on thread interleaving — so sorting
//! each tick's bucket by lineage gives every node a delivery order that is
//! identical across shard counts and across repeated runs.
//!
//! [`Network`]: crate::Network

use crate::queue::BucketQueue;
use crate::{KeyRouter, SimTime, TrafficClass, Transport};
use rjoin_dht::{ChordNetwork, DhtError, Id, LookupResult};
use std::sync::Mutex;

/// The causal identity of one in-flight message under the sharded runtime:
/// a 128-bit hash chained from the message's parent. Within one tick,
/// deliveries are processed in ascending lineage order.
pub type Lineage = u128;

/// Sorts one drained bucket into ascending lineage order.
///
/// Message payloads are large (a pending query carries its whole rewritten
/// AST), so rather than letting a comparison sort shuffle them `n log n`
/// times, the 24-byte `(lineage, index)` pairs are sorted and the payloads
/// gathered once.
fn sort_by_lineage<M>(
    bucket: std::collections::VecDeque<ShardDelivery<M>>,
) -> Vec<ShardDelivery<M>> {
    if bucket.len() <= 1 {
        return bucket.into_iter().collect();
    }
    let mut slots: Vec<Option<ShardDelivery<M>>> = bucket.into_iter().map(Some).collect();
    let mut order: Vec<(Lineage, u32)> = slots
        .iter()
        .enumerate()
        .map(|(i, d)| (d.as_ref().expect("freshly filled").lineage, i as u32))
        .collect();
    order.sort_unstable();
    order
        .into_iter()
        .map(|(_, i)| slots[i as usize].take().expect("each index gathered once"))
        .collect()
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lineage of the `i`-th root message of a drain (the messages already in
/// flight when the sharded run starts, numbered in their global `(at, seq)`
/// order). Roots are numbered identically whatever the shard count, so root
/// lineages are shard-count-invariant by construction.
pub fn root_lineage(i: u64) -> Lineage {
    let lo = mix64(i ^ 0xA076_1D64_78BD_642F);
    let hi = mix64(i ^ 0xE703_7ED1_A0B4_28DB);
    ((hi as u128) << 64) | (lo as u128)
}

/// Lineage of the `k`-th message sent while processing the delivery with
/// lineage `parent`. Hash-chaining keeps the identity a pure function of
/// the dataflow, so it is stable across shard counts; 128 bits make a
/// collision (which would make the intra-tick sort order ambiguous)
/// astronomically unlikely even across billions of messages.
pub fn child_lineage(parent: Lineage, k: u64) -> Lineage {
    let salt = mix64(k ^ 0x8EBC_6AF0_9C88_C6E3);
    let lo = mix64((parent as u64) ^ salt);
    let hi = mix64(((parent >> 64) as u64) ^ mix64(salt ^ 0x5896_59B2_29A6_0AED));
    ((hi as u128) << 64) | (lo as u128)
}

/// A 64-bit seed derived from `(base seed, lineage, k)` — the per-decision
/// randomness source of lineage-deterministic drivers (the engine seeds one
/// placement RNG per decision from the triggering delivery's lineage, so
/// decisions are independent of execution order and shard count). Lives
/// next to the lineage constructors so all lineage-derived hashing shares
/// one mixer.
pub fn lineage_seed(base: u64, lineage: Lineage, k: u64) -> u64 {
    let lo = lineage as u64;
    let hi = (lineage >> 64) as u64;
    mix64(base ^ mix64(lo ^ mix64(hi ^ mix64(k))))
}

/// A delivery scheduled under the sharded runtime.
#[derive(Debug)]
pub struct ShardDelivery<M> {
    /// Arrival tick.
    pub at: SimTime,
    /// Causal identity; the intra-tick order key.
    pub lineage: Lineage,
    /// Receiving node.
    pub to: Id,
    /// Originating node.
    pub from: Id,
    /// The payload.
    pub msg: M,
}

/// Assignment of ring nodes to shards by contiguous identifier range.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// First node identifier of each shard's range, ascending. Identifiers
    /// below `starts[0]` wrap around to the last shard.
    starts: Vec<Id>,
}

impl ShardMap {
    /// Splits `node_ids` (any order) into `shards` contiguous ranges of
    /// near-equal node count. `shards` is clamped to `1..=node_ids.len()`.
    pub fn new(node_ids: &[Id], shards: usize) -> Self {
        let mut sorted: Vec<Id> = node_ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let shards = shards.clamp(1, sorted.len().max(1));
        let chunk = sorted.len().div_ceil(shards.max(1)).max(1);
        let starts: Vec<Id> = sorted.chunks(chunk).map(|c| c[0]).collect();
        ShardMap { starts: if starts.is_empty() { vec![Id(0)] } else { starts } }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len()
    }

    /// The shard responsible for ring identifier `id`. Identifiers below the
    /// first range start wrap to the last shard (ring order).
    pub fn shard_of(&self, id: Id) -> usize {
        let idx = self.starts.partition_point(|s| *s <= id);
        if idx == 0 {
            self.starts.len() - 1
        } else {
            idx - 1
        }
    }
}

/// The per-shard (driver-owned) half of one shard.
#[derive(Debug)]
pub struct ShardLocal<M> {
    shard: usize,
    queue: BucketQueue<ShardDelivery<M>>,
    /// Sequential-semantics clock: `max(floor, last processed tick)`. Sends
    /// are scheduled `clock + δ`, exactly as under the single queue.
    clock: SimTime,
    traffic: crate::TrafficStats,
    /// Ticks this shard processed.
    pub ticks: u64,
    /// Deliveries this shard processed.
    pub deliveries: u64,
}

/// The sharded event-queue runtime for one drain.
///
/// Built from the shared Chord ring plus the global queue's in-flight
/// messages; per-shard state is handed out via
/// [`take_local`](Self::take_local) and driven in rounds through
/// [`ShardHandle`]s.
#[derive(Debug)]
pub struct ShardedNetwork<'a, M> {
    dht: &'a ChordNetwork,
    delay: SimTime,
    map: ShardMap,
    inboxes: Vec<Mutex<Vec<ShardDelivery<M>>>>,
    locals: Vec<Option<ShardLocal<M>>>,
    roots: u64,
}

impl<'a, M> ShardedNetwork<'a, M> {
    /// Creates the runtime: `shards` per-shard queues over the nodes of
    /// `node_ids`, message delay `delay`, all clocks starting at `floor`
    /// (the global clock when the drain begins).
    pub fn new(
        dht: &'a ChordNetwork,
        delay: SimTime,
        floor: SimTime,
        node_ids: &[Id],
        shards: usize,
    ) -> Self {
        let map = ShardMap::new(node_ids, shards);
        let n = map.shards();
        ShardedNetwork {
            dht,
            delay: delay.max(1),
            map,
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            locals: (0..n)
                .map(|shard| {
                    Some(ShardLocal {
                        shard,
                        queue: BucketQueue::new(),
                        clock: floor,
                        traffic: crate::TrafficStats::new(),
                        ticks: 0,
                        deliveries: 0,
                    })
                })
                .collect(),
            roots: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// The shard that owns node `id`.
    pub fn shard_of(&self, id: Id) -> usize {
        self.map.shard_of(id)
    }

    /// Seeds one already-in-flight message (called before the first round,
    /// in the global `(at, seq)` pop order of the single queue so root
    /// lineages are shard-count-invariant).
    pub fn seed(&mut self, at: SimTime, to: Id, from: Id, msg: M) {
        let lineage = root_lineage(self.roots);
        self.roots += 1;
        let shard = self.map.shard_of(to);
        let local = self.locals[shard].as_mut().expect("seeding happens before take_local");
        local.queue.push(at, ShardDelivery { at, lineage, to, from, msg });
    }

    /// Hands out shard `i`'s driver-owned state. Panics if taken twice.
    pub fn take_local(&mut self, shard: usize) -> ShardLocal<M> {
        self.locals[shard].take().expect("each shard's local state is taken exactly once")
    }
}

/// The driver's view of one shard: its owned [`ShardLocal`] plus the shared
/// fabric. Implements [`Transport`] for the effect phase.
#[derive(Debug)]
pub struct ShardHandle<'n, 'a, M> {
    net: &'n ShardedNetwork<'a, M>,
    local: ShardLocal<M>,
    /// Lineage of the delivery whose effects are being applied.
    parent: Lineage,
    /// Sends performed while applying the current delivery's effects.
    children: u64,
}

impl<'n, 'a, M> ShardHandle<'n, 'a, M> {
    /// Wraps a taken [`ShardLocal`].
    pub fn new(net: &'n ShardedNetwork<'a, M>, local: ShardLocal<M>) -> Self {
        ShardHandle { net, local, parent: 0, children: 0 }
    }

    /// Returns the driver-owned state (after the drain, for merging).
    pub fn into_local(self) -> ShardLocal<M> {
        self.local
    }

    /// Read access to this shard's traffic buffer.
    pub fn traffic(&self) -> &crate::TrafficStats {
        &self.local.traffic
    }

    /// Sets the causal parent for subsequent sends: every message scheduled
    /// until the next call gets lineage `child_lineage(parent, k)` with `k`
    /// counting up from 0.
    pub fn begin_effect(&mut self, parent: Lineage) {
        self.parent = parent;
        self.children = 0;
    }

    /// Round start: moves the inbox into the local queue and returns the
    /// arrival time of this shard's earliest pending delivery, or `None`
    /// when the shard is empty. Call it only once every effect phase of the
    /// previous round has finished, so no cross-shard send is missed.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        let inbox = std::mem::take(&mut *self.net.inboxes[self.local.shard].lock().expect("inbox"));
        for d in inbox {
            self.local.queue.push(d.at, d);
        }
        self.local.queue.next_time()
    }

    /// Handler phase: pops this shard's next bucket **iff** it is due
    /// exactly at `tick`, the round's global minimum. The inbox is not
    /// re-drained: [`next_event_time`](Self::next_event_time) already did
    /// this round, and no send happens before the effect phase. Returns the
    /// floor-clamped clock and the lineage-sorted deliveries.
    pub fn try_take_tick(&mut self, tick: SimTime) -> Option<(SimTime, Vec<ShardDelivery<M>>)> {
        if self.local.queue.next_time() != Some(tick) {
            return None;
        }
        let (at, bucket) = self.local.queue.pop_bucket().expect("next_time returned Some");
        debug_assert_eq!(at, tick);
        let deliveries = sort_by_lineage(bucket);
        self.local.clock = self.local.clock.max(tick);
        self.local.ticks += 1;
        self.local.deliveries += deliveries.len() as u64;
        Some((self.local.clock, deliveries))
    }

    /// Schedules `msg` for delivery to node `to` one delay bound from now.
    fn schedule(&mut self, to: Id, from: Id, msg: M) {
        let at = self.local.clock + self.net.delay;
        let lineage = child_lineage(self.parent, self.children);
        self.children += 1;
        let delivery = ShardDelivery { at, lineage, to, from, msg };
        let target = self.net.map.shard_of(to);
        if target == self.local.shard {
            self.local.traffic.record_shard_hop(false);
            self.local.queue.push(at, delivery);
        } else {
            self.local.traffic.record_shard_hop(true);
            self.net.inboxes[target].lock().expect("inbox lock").push(delivery);
        }
    }
}

impl<M> KeyRouter for ShardHandle<'_, '_, M> {
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.net.dht.successor_of(key_id)
    }
}

impl<M> Transport<M> for ShardHandle<'_, '_, M> {
    fn now(&self) -> SimTime {
        self.local.clock
    }

    fn delay(&self) -> SimTime {
        self.net.delay
    }

    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.net.dht.lookup_stable(from, key_id)?;
        crate::traffic::account_route(&mut self.local.traffic, result.path(), class);
        self.local.traffic.record_received(result.owner);
        self.schedule(result.owner, from, msg);
        Ok(result)
    }

    /// The same forwarding tree as
    /// [`Network::multi_send`](crate::Network::multi_send), routed over the
    /// shared ring without mutating it; deliveries get consecutive child
    /// lineages in item order, exactly as independent sends would.
    fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        let mut dht = self.net.dht;
        let crate::network::Multicast { targets, mut routes } = crate::network::resolve_multicast(
            &mut dht,
            from,
            &items,
            |dht, key| dht.successor_of(key),
            |dht, key| dht.lookup_stable(from, key),
        )?;
        crate::traffic::account_multicast(&mut self.local.traffic, &mut routes, class);
        for ((_, msg), to) in items.into_iter().zip(targets) {
            self.local.traffic.record_received(to);
            self.schedule(to, from, msg);
        }
        Ok(())
    }

    fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        self.local.traffic.record_sent(from, class);
        self.local.traffic.record_received(to);
        self.schedule(to, from, msg);
    }

    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.net.dht.lookup_stable(from, key_id)?;
        crate::traffic::account_route(&mut self.local.traffic, result.path(), class);
        Ok(result)
    }

    fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.local.traffic.record_sent(from, class);
    }
}

impl<M> ShardLocal<M> {
    /// The shard's traffic buffer (merged into the global stats after the
    /// drain).
    pub fn traffic(&self) -> &crate::TrafficStats {
        &self.traffic
    }

    /// The shard's clock: the floor, or the last tick it processed if
    /// later. The largest over all shards is the global clock after the
    /// drain.
    pub fn clock(&self) -> SimTime {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineages_are_stable_and_distinct() {
        assert_eq!(root_lineage(7), root_lineage(7));
        assert_ne!(root_lineage(7), root_lineage(8));
        let p = root_lineage(3);
        assert_eq!(child_lineage(p, 0), child_lineage(p, 0));
        assert_ne!(child_lineage(p, 0), child_lineage(p, 1));
        assert_ne!(child_lineage(p, 0), child_lineage(root_lineage(4), 0));
    }

    #[test]
    fn shard_map_partitions_contiguously_and_covers_all_ids() {
        let ids: Vec<Id> = (0..40).map(|i| Id(i * 100 + 5)).collect();
        let map = ShardMap::new(&ids, 4);
        assert_eq!(map.shards(), 4);
        // Every node id maps to a shard; contiguous ids map to contiguous
        // shards in ring order.
        let shards: Vec<usize> = ids.iter().map(|id| map.shard_of(*id)).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(shards[0], 0);
        assert_eq!(*shards.last().unwrap(), 3);
        // Identifiers below the first node wrap to the last shard.
        assert_eq!(map.shard_of(Id(0)), 3);
        // Arbitrary (non-node) identifiers map deterministically.
        assert_eq!(map.shard_of(Id(12_345)), map.shard_of(Id(12_345)));
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let ids: Vec<Id> = (0..3).map(|i| Id(i + 1)).collect();
        assert_eq!(ShardMap::new(&ids, 16).shards(), 3);
        assert_eq!(ShardMap::new(&ids, 0).shards(), 1);
    }

    #[test]
    fn single_shard_drain_delivers_in_lineage_order() {
        let mut dht = ChordNetwork::new(4);
        let a = Id::hash_key("shard-test-a");
        let b = Id::hash_key("shard-test-b");
        dht.join(a).unwrap();
        dht.join(b).unwrap();
        dht.full_stabilize();

        let mut net: ShardedNetwork<'_, &str> = ShardedNetwork::new(&dht, 1, 0, &[a, b], 1);
        net.seed(1, a, b, "r1");
        net.seed(1, b, a, "r0");
        let local = net.take_local(0);
        let mut handle = ShardHandle::new(&net, local);

        assert_eq!(handle.next_event_time(), Some(1));
        assert!(handle.try_take_tick(0).is_none(), "nothing is due before the earliest tick");
        let (now, deliveries) = handle.try_take_tick(1).expect("the seeded tick");
        assert_eq!(now, 1);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries[0].lineage < deliveries[1].lineage);
        // Send a child during the effect phase: it lands one δ later.
        handle.begin_effect(deliveries[0].lineage);
        handle.send_direct(a, b, "child", 0);

        assert_eq!(handle.next_event_time(), Some(2));
        let (now, deliveries) = handle.try_take_tick(2).expect("the child tick");
        assert_eq!(now, 2);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].msg, "child");
        assert_eq!(deliveries[0].lineage, child_lineage(root_lineage(0).min(root_lineage(1)), 0));
        assert_eq!(handle.next_event_time(), None, "quiescent");
        let local = handle.into_local();
        assert_eq!((local.clock(), local.ticks, local.deliveries), (2, 2, 3));
    }

    #[test]
    fn cross_shard_sends_wait_in_the_inbox_until_the_next_round() {
        let mut dht = ChordNetwork::new(4);
        let ids: Vec<Id> = (0..4).map(|i| Id::hash_key(&format!("shard-test-{i}"))).collect();
        for id in &ids {
            dht.join(*id).unwrap();
        }
        dht.full_stabilize();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        let (near, far) = (sorted[0], sorted[3]);

        let mut net: ShardedNetwork<'_, &str> = ShardedNetwork::new(&dht, 3, 10, &ids, 2);
        assert_ne!(net.shard_of(near), net.shard_of(far));
        net.seed(11, near, far, "root");
        let (from, to) = (net.take_local(net.shard_of(near)), net.take_local(net.shard_of(far)));
        let mut sender = ShardHandle::new(&net, from);
        let mut receiver = ShardHandle::new(&net, to);

        assert_eq!(sender.next_event_time(), Some(11));
        assert_eq!(receiver.next_event_time(), None);
        let (now, root) = sender.try_take_tick(11).expect("the seeded tick");
        sender.begin_effect(root[0].lineage);
        sender.send_direct(near, far, "hop", 0);
        assert_eq!(sender.traffic().cross_shard_sent(), 1);
        assert!(receiver.try_take_tick(now + 3).is_none(), "the send is still in the inbox");

        assert_eq!(sender.next_event_time(), None);
        assert_eq!(receiver.next_event_time(), Some(now + 3));
        let (_, hop) = receiver.try_take_tick(now + 3).expect("the hop arrives one δ later");
        assert_eq!((hop[0].to, hop[0].msg), (far, "hop"));
    }
}
