//! Shards: lineages, the ring partition, and one shard's view of the
//! [`Network`](crate::Network) while a driver runs its rounds.
//!
//! The network partitions the ring's nodes into **shards** by contiguous
//! ring-identifier range ([`ShardMap`], fixed when the network is
//! partitioned). Each shard owns, for the network's lifetime, its own
//! constant-δ [`BucketQueue`], clock, traffic buffer and `(from, owner)`
//! route memo. A [`ShardHandle`] is one shard's view during a round:
//! intra-shard sends go straight into the shard's own queue, cross-shard
//! sends into the receiving shard's inbox.
//!
//! # The round
//!
//! A driver advances all shards together. One round
//!
//! 1. drains every shard's inbox into its queue and takes the smallest
//!    pending arrival tick `t` over all shards
//!    ([`ShardHandle::next_event_time`]); when no shard has one, the drain is
//!    quiescent;
//! 2. pops every shard's bucket due at `t` ([`ShardHandle::try_take_tick`])
//!    and runs its handlers;
//! 3. runs every shard's effects, whose sends arrive at `t + δ`.
//!
//! Every link has the same delay δ ≥ 1, so no effect of round `t` can
//! produce an arrival at or before `t`: rounds visit the ticks in order.
//! Every handler of tick `t` has run on every shard before any effect of
//! tick `t`, and no shard has handled a later tick, so an effect may read
//! another shard's node state (the engine's RIC rate lookups) without
//! waiting and sees the same state whichever thread reads it. The phases of
//! one round touch disjoint shard state, so a driver may spread each phase
//! over as many threads as it likes, provided it separates the phases and
//! the rounds.
//!
//! # Determinism
//!
//! Every delivery carries a **lineage**, a 128-bit causal identity, and
//! each tick's deliveries are handled in ascending lineage order. A message
//! sent while a round applies a delivery's effects gets a hash chained from
//! that delivery's lineage ([`child_lineage`]); a message sent from outside
//! any round — a driver's submissions and publications, a bare
//! [`Network::send`](crate::Network::send) — is a root, numbered in send
//! order by the network ([`root_lineage`]). Lineages are a pure function of
//! the dataflow: they depend neither on the shard count nor on thread
//! interleaving, so every node sees the same delivery order whatever the
//! shard and thread counts.

use crate::network::Delivery;
use crate::queue::BucketQueue;
use crate::{KeyRouter, SimTime, TrafficClass, TrafficStats, Transport};
use rjoin_dht::{ChordNetwork, DhtError, Id, LookupResult, RouteMemo};
use std::sync::Mutex;

/// The causal identity of one in-flight message: within one tick,
/// deliveries are processed in ascending lineage order.
pub type Lineage = u128;

/// One tick's deliveries in ascending `key` order (keys are distinct).
///
/// Message payloads are large (a pending query carries its whole rewritten
/// AST), so rather than letting a comparison sort shuffle them `n log n`
/// times, the `(key, index)` pairs are sorted and each payload is moved
/// out of its slot once, as the iterator reaches it.
pub(crate) fn sorted_by<M, K: Ord>(
    deliveries: Vec<Delivery<M>>,
    key: impl Fn(&Delivery<M>) -> K,
) -> impl ExactSizeIterator<Item = Delivery<M>> {
    let mut order: Vec<(K, u32)> =
        deliveries.iter().enumerate().map(|(i, d)| (key(d), i as u32)).collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut slots: Vec<Option<Delivery<M>>> = deliveries.into_iter().map(Some).collect();
    order.into_iter().map(move |(_, i)| slots[i as usize].take().expect("each slot taken once"))
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lineage of the `i`-th root message: one sent from outside any round,
/// numbered in send order by the network. The number is the high half, so
/// roots of one tick are handled in send order; the low half is a hash of
/// it, so the lineages chained from different roots differ in both halves.
pub fn root_lineage(i: u64) -> Lineage {
    ((i as u128) << 64) | (mix64(i ^ 0xA076_1D64_78BD_642F) as u128)
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

    /// The shard responsible for ring identifier `id` — any identifier,
    /// including those of nodes that join after the map was built.
    /// Identifiers below the first range start wrap to the last shard (ring
    /// order).
    pub fn shard_of(&self, id: Id) -> usize {
        let idx = self.starts.partition_point(|s| *s <= id);
        if idx == 0 {
            self.starts.len() - 1
        } else {
            idx - 1
        }
    }
}

/// What every shard reads and none owns: the ring, δ, the partition and the
/// inboxes cross-shard sends land in.
#[derive(Debug)]
pub(crate) struct Fabric<M> {
    pub(crate) dht: ChordNetwork,
    pub(crate) delay: SimTime,
    pub(crate) map: ShardMap,
    pub(crate) inboxes: Vec<Mutex<Vec<Delivery<M>>>>,
}

impl<M> Fabric<M> {
    /// Moves shard `shard`'s inbox into `queue`.
    pub(crate) fn collect_inbox(&self, shard: usize, queue: &mut BucketQueue<Delivery<M>>) {
        let inbox = std::mem::take(&mut *self.inboxes[shard].lock().expect("inbox lock"));
        for d in inbox {
            queue.push(d.at, d);
        }
    }
}

/// The state one shard owns for the network's lifetime.
#[derive(Debug)]
pub(crate) struct ShardLocal<M> {
    pub(crate) queue: BucketQueue<Delivery<M>>,
    /// `max(the network clock when the round began, the last tick this
    /// shard processed)`. Sends are scheduled `clock + δ`.
    pub(crate) clock: SimTime,
    /// Routes walked from this shard's nodes; dropped whenever the ring
    /// changes.
    pub(crate) routes: RouteMemo,
}

impl<M> ShardLocal<M> {
    pub(crate) fn new(clock: SimTime) -> Self {
        ShardLocal { queue: BucketQueue::new(), clock, routes: RouteMemo::default() }
    }
}

/// One shard's view of the [`Network`](crate::Network): its own queue,
/// clock and route memo, a traffic counter, and the shared fabric.
/// Implements [`Transport`] for the sends of a round's effect phase — and,
/// numbering every message as a root, for the network's own sends from
/// outside any round.
#[derive(Debug)]
pub struct ShardHandle<'n, M> {
    fabric: &'n Fabric<M>,
    shard: usize,
    local: &'n mut ShardLocal<M>,
    traffic: &'n mut TrafficStats,
    /// `Some` outside a round: every message is a root, numbered by this
    /// counter.
    roots: Option<&'n mut u64>,
    /// Lineage of the delivery whose effects are being applied.
    parent: Lineage,
    /// Sends performed while applying the current delivery's effects.
    children: u64,
}

impl<'n, M> ShardHandle<'n, M> {
    pub(crate) fn new(
        fabric: &'n Fabric<M>,
        shard: usize,
        local: &'n mut ShardLocal<M>,
        traffic: &'n mut TrafficStats,
        roots: Option<&'n mut u64>,
    ) -> Self {
        ShardHandle { fabric, shard, local, traffic, roots, parent: 0, children: 0 }
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
        self.fabric.collect_inbox(self.shard, &mut self.local.queue);
        self.local.queue.next_time()
    }

    /// Handler phase: pops this shard's next bucket **iff** it is due
    /// exactly at `tick`, the round's global minimum. The inbox is not
    /// re-drained: [`next_event_time`](Self::next_event_time) already did
    /// this round, and no send happens before the effect phase. Returns the
    /// shard's clock and the deliveries node by node, each node's in
    /// ascending lineage order. Which node comes first is immaterial: a
    /// handler touches only its own node, and the effects of different
    /// nodes commute.
    pub fn try_take_tick(
        &mut self,
        tick: SimTime,
    ) -> Option<(SimTime, impl ExactSizeIterator<Item = Delivery<M>>)> {
        if self.local.queue.next_time() != Some(tick) {
            return None;
        }
        let (_, bucket) = self.local.queue.pop_bucket().expect("next_time returned Some");
        self.local.clock = self.local.clock.max(tick);
        Some((self.local.clock, sorted_by(bucket.into(), |d| (d.to, d.lineage))))
    }

    /// Routes from `from` to the owner of `key` through this shard's memo.
    fn route(&mut self, from: Id, key: Id) -> Result<LookupResult, DhtError> {
        self.fabric.dht.lookup_memoized(from, key, &mut self.local.routes)
    }

    /// Schedules `msg` for delivery to node `to` one delay bound from now.
    fn schedule(&mut self, to: Id, from: Id, msg: M) {
        let at = self.local.clock + self.fabric.delay;
        let lineage = match self.roots.as_deref_mut() {
            Some(next) => {
                *next += 1;
                root_lineage(*next - 1)
            }
            None => {
                self.children += 1;
                child_lineage(self.parent, self.children - 1)
            }
        };
        let delivery = Delivery { at, lineage, to, from, msg };
        let target = self.fabric.map.shard_of(to);
        self.traffic.record_shard_hop(target != self.shard);
        if target == self.shard {
            self.local.queue.push(at, delivery);
        } else {
            self.fabric.inboxes[target].lock().expect("inbox lock").push(delivery);
        }
    }
}

impl<M> KeyRouter for ShardHandle<'_, M> {
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.fabric.dht.successor_of(key_id)
    }
}

impl<M> Transport<M> for ShardHandle<'_, M> {
    fn now(&self) -> SimTime {
        self.local.clock
    }

    fn delay(&self) -> SimTime {
        self.fabric.delay
    }

    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.route(from, key_id)?;
        crate::traffic::account_route(self.traffic, result.path(), class);
        self.traffic.record_received(result.owner);
        self.schedule(result.owner, from, msg);
        Ok(result)
    }

    /// Delivers each `(key_id, msg)` pair to `Successor(key_id)` through
    /// one forwarding tree rooted at `from` — the union of the items'
    /// unicast routes, one message per edge
    /// ([`account_multicast`](crate::account_multicast)), so items sharing
    /// their first hops share those messages and items for one owner share
    /// their whole route. Each item is still one delivery, scheduled in item
    /// order exactly as independent [`send`](Self::send)s would be. Every
    /// owner is resolved before anything is accounted or scheduled: a failed
    /// lookup sends nothing.
    fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        let Multicast { targets, mut routes } =
            Multicast::resolve(&self.fabric.dht, &mut self.local.routes, from, &items)?;
        crate::traffic::account_multicast(self.traffic, &mut routes, class);
        for ((_, msg), to) in items.into_iter().zip(targets) {
            self.traffic.record_received(to);
            self.schedule(to, from, msg);
        }
        Ok(())
    }

    fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        self.traffic.record_sent(from, class);
        self.traffic.record_received(to);
        self.schedule(to, from, msg);
    }

    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        let result = self.route(from, key_id)?;
        crate::traffic::account_route(self.traffic, result.path(), class);
        Ok(result)
    }

    fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.traffic.record_sent(from, class);
    }
}

/// One `multiSend`, resolved before anything is sent.
struct Multicast {
    /// The node each item is delivered to (its route's end), in item order.
    targets: Vec<Id>,
    /// One route per distinct owner, paired with the number of items it
    /// carries — the input of [`account_multicast`](crate::account_multicast).
    routes: Vec<(LookupResult, u64)>,
}

impl Multicast {
    /// Resolves one `multiSend` from `from` over `dht`: the ground-truth
    /// owner of every item's key, then one route per *distinct* owner
    /// (through `memo`, walked for the owner's first item) — on a stable
    /// ring a route depends on the key only through its owner. The routes
    /// come out with their owners in clockwise order from `from`, the order
    /// [`account_multicast`](crate::account_multicast) sorts them into.
    /// Fails on the first failed resolution, before the caller has sent
    /// anything.
    fn resolve<M>(
        dht: &ChordNetwork,
        memo: &mut RouteMemo,
        from: Id,
        items: &[(Id, M)],
    ) -> Result<Multicast, DhtError> {
        // (clockwise distance from just past `from` to the item's owner,
        // item index): a key `from` owns sorts last, as its route goes
        // round the ring.
        let mut by_owner = Vec::with_capacity(items.len());
        for (i, (key, _)) in items.iter().enumerate() {
            by_owner.push((dht.successor_of(*key)?.0.wrapping_sub(from.0).wrapping_sub(1), i));
        }
        by_owner.sort_unstable();
        let mut targets = vec![Id(0); items.len()];
        let mut routes: Vec<(LookupResult, u64)> = Vec::new();
        let mut last_owner = None;
        for (owner, i) in by_owner {
            if last_owner != Some(owner) {
                last_owner = Some(owner);
                routes.push((dht.lookup_memoized(from, items[i].0, memo)?, 0));
            }
            let (route, count) = routes.last_mut().expect("pushed for this owner");
            *count += 1;
            targets[i] = route.owner;
        }
        Ok(Multicast { targets, routes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkConfig};

    #[test]
    fn lineages_are_stable_and_distinct() {
        assert_eq!(root_lineage(7), root_lineage(7));
        assert_ne!(root_lineage(7), root_lineage(8));
        assert!(root_lineage(7) < root_lineage(8), "roots ascend in send order");
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
        let mut net: Network<&str> = Network::new(NetworkConfig::default());
        let ids = net.bootstrap(2, "shard-test");
        let (a, b) = (ids[0], ids[1]);
        net.send_direct(b, a, "r0", 0);
        net.send_direct(a, b, "r1", 0);
        let mut handles = net.handles();
        let handle = &mut handles[0];

        assert_eq!(handle.next_event_time(), Some(1));
        assert!(handle.try_take_tick(0).is_none(), "nothing is due before the earliest tick");
        let (now, deliveries) = handle.try_take_tick(1).expect("the roots' tick");
        let deliveries: Vec<_> = deliveries.collect();
        assert_eq!(now, 1);
        let order: Vec<_> = deliveries.iter().map(|d| (d.lineage, d.msg)).collect();
        assert_eq!(order, vec![(root_lineage(0), "r0"), (root_lineage(1), "r1")]);
        // Send a child during the effect phase: it lands one δ later.
        handle.begin_effect(deliveries[0].lineage);
        handle.send_direct(a, b, "child", 0);

        assert_eq!(handle.next_event_time(), Some(2));
        let (now, deliveries) = handle.try_take_tick(2).expect("the child tick");
        let deliveries: Vec<_> = deliveries.collect();
        assert_eq!(now, 2);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].msg, "child");
        assert_eq!(deliveries[0].lineage, child_lineage(root_lineage(0), 0));
        assert_eq!(handle.next_event_time(), None, "quiescent");
        drop(handles);
        net.settle();
        assert_eq!(net.now(), 2);
        assert_eq!(net.traffic().total_sent(), 3, "the round's traffic is folded in");
    }

    #[test]
    fn cross_shard_sends_wait_in_the_inbox_until_the_next_round() {
        let mut net: Network<&str> = Network::new(NetworkConfig { delay: 3 });
        let mut ids = net.bootstrap(4, "shard-test");
        net.partition(2);
        ids.sort_unstable();
        let (near, far) = (ids[0], ids[3]);
        assert_ne!(net.shard_of(near), net.shard_of(far));
        net.advance_to(8);
        net.send_direct(far, near, "root", 0);
        let (from, to) = (net.shard_of(near), net.shard_of(far));
        let mut handles = net.handles();

        assert_eq!(handles[from].next_event_time(), Some(11));
        assert_eq!(handles[to].next_event_time(), None);
        let (now, mut root) = handles[from].try_take_tick(11).expect("the root's tick");
        let root = root.next().expect("one root");
        handles[from].begin_effect(root.lineage);
        handles[from].send_direct(near, far, "hop", 0);
        assert!(handles[to].try_take_tick(now + 3).is_none(), "the send is still in the inbox");

        assert_eq!(handles[from].next_event_time(), None);
        assert_eq!(handles[to].next_event_time(), Some(now + 3));
        let (_, mut hop) = handles[to].try_take_tick(now + 3).expect("the hop arrives one δ later");
        let hop = hop.next().expect("one hop");
        assert_eq!((hop.to, hop.msg), (far, "hop"));
        drop(handles);
        net.settle();
        assert_eq!(net.traffic().cross_shard_sent(), 2, "the root crossed too");
    }
}
