//! The simulated network: DHT-routed delivery with bounded delay.

use crate::shard::{sorted_by, Fabric, ShardLocal};
use crate::{Lineage, ShardHandle, ShardMap, SimTime, TrafficClass, TrafficStats, Transport};
use rjoin_dht::{ChordNetwork, DhtError, Id, LookupResult};
use std::sync::Mutex;

/// Configuration of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Upper bound δ on the delivery delay of a single message, in ticks
    /// (at least 1). Every routed or direct message is delivered `delay`
    /// ticks after it is sent (the worst case allowed by the paper's system
    /// model).
    pub delay: SimTime,
    /// Length of the successor lists maintained by the Chord nodes.
    pub successor_list_len: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig { delay: 1, successor_list_len: 4 }
    }
}

/// A message delivered to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Simulation time at which the message arrives.
    pub at: SimTime,
    /// Causal identity: deliveries at the same tick are handled in
    /// ascending lineage order (see the [`shard`](crate::ShardHandle)
    /// docs).
    pub lineage: Lineage,
    /// The node receiving the message.
    pub to: Id,
    /// The node that originally sent the message.
    pub from: Id,
    /// The payload.
    pub msg: M,
}

/// The simulated network: a Chord ring, its partition into shards, one
/// event queue per shard and per-node traffic accounting.
///
/// A network starts as one shard; [`partition`](Self::partition) splits the
/// ring once, before anything is in flight, and the shards then live as
/// long as the network. Sends from outside any round — this type's own
/// send methods — are roots ([`root_lineage`](crate::root_lineage)),
/// accounted straight into [`traffic`](Self::traffic). A driver runs rounds
/// through [`handles`](Self::handles) (see the [`shard`](crate::ShardHandle)
/// docs) and folds them back with [`settle`](Self::settle);
/// [`pop_tick`](Self::pop_tick) is the round-less way to take deliveries
/// out, one tick at a time.
#[derive(Debug)]
pub struct Network<M> {
    fabric: Fabric<M>,
    shards: Vec<ShardLocal<M>>,
    /// Each shard's traffic during rounds, folded into `traffic` by
    /// [`settle`](Self::settle).
    buffers: Vec<TrafficStats>,
    traffic: TrafficStats,
    clock: SimTime,
    /// Roots sent so far: the next root's number.
    roots: u64,
}

impl<M> Network<M> {
    /// Creates an empty network of one shard. The delay bound is clamped to
    /// δ ≥ 1: a round's sends must land after its tick.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            fabric: Fabric {
                dht: ChordNetwork::new(config.successor_list_len),
                delay: config.delay.max(1),
                map: ShardMap::new(&[], 1),
                inboxes: vec![Mutex::new(Vec::new())],
            },
            shards: vec![ShardLocal::new(0)],
            buffers: vec![TrafficStats::new()],
            traffic: TrafficStats::new(),
            clock: 0,
            roots: 0,
        }
    }

    /// Adds `n` nodes with deterministic identifiers derived from `label`
    /// and fully stabilizes the ring. Returns the node identifiers.
    pub fn bootstrap(&mut self, n: usize, label: &str) -> Vec<Id> {
        let dht = self.dht_mut();
        let mut ids = Vec::with_capacity(n);
        let mut i = 0u64;
        while ids.len() < n {
            let id = Id::hash_key(&format!("{label}-{i}"));
            i += 1;
            if dht.join(id).is_ok() {
                ids.push(id);
            }
        }
        dht.full_stabilize();
        ids
    }

    /// Splits the current ring into `shards` contiguous identifier ranges
    /// of near-equal node count ([`ShardMap::new`]), each with its own
    /// queue, clock, traffic buffer and route memo. The partition stays
    /// fixed from then on: nodes that join later belong to the range their
    /// identifier falls in. Call it while nothing is in flight.
    pub fn partition(&mut self, shards: usize) {
        assert_eq!(self.in_flight(), 0, "partition before anything is sent");
        let ids: Vec<Id> = self.fabric.dht.node_ids().collect();
        self.fabric.map = ShardMap::new(&ids, shards);
        let n = self.fabric.map.shards();
        self.fabric.inboxes = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        self.shards = (0..n).map(|_| ShardLocal::new(self.clock)).collect();
        self.buffers = (0..n).map(|_| TrafficStats::new()).collect();
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.fabric.map.shards()
    }

    /// The shard that owns ring identifier `id`.
    pub fn shard_of(&self, id: Id) -> usize {
        self.fabric.map.shard_of(id)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock (used by drivers to model idle periods).
    pub fn advance_to(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
        for shard in &mut self.shards {
            shard.clock = self.clock;
        }
    }

    /// The per-message delay bound δ.
    pub fn delay(&self) -> SimTime {
        self.fabric.delay
    }

    /// Read access to the underlying Chord ring.
    pub fn dht(&self) -> &ChordNetwork {
        &self.fabric.dht
    }

    /// Write access to the underlying Chord ring (node churn, identifier
    /// movement). Drops every shard's route memo: the ring may change.
    pub fn dht_mut(&mut self) -> &mut ChordNetwork {
        for shard in &mut self.shards {
            shard.routes.clear();
        }
        &mut self.fabric.dht
    }

    /// Read access to the traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Write access to the traffic counters (reset between phases).
    pub fn traffic_mut(&mut self) -> &mut TrafficStats {
        &mut self.traffic
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        let queued: usize = self.shards.iter().map(|s| s.queue.len()).sum();
        let inboxed: usize =
            self.fabric.inboxes.iter().map(|i| i.lock().expect("inbox lock").len()).sum();
        queued + inboxed
    }

    /// Resolves the node currently responsible for `key_id` without sending
    /// anything and without accounting traffic (an oracle used by tests and
    /// by the engine for ownership checks).
    pub fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.fabric.dht.successor_of(key_id)
    }

    /// The handle of `from`'s shard for sends from outside any round: each
    /// message is a root, accounted straight into
    /// [`traffic`](Self::traffic). This type's own send methods go through
    /// it; a driver that needs the [`Transport`] itself (as an effect
    /// environment's transport) takes it here.
    pub fn root_handle(&mut self, from: Id) -> ShardHandle<'_, M> {
        let shard = self.fabric.map.shard_of(from);
        ShardHandle::new(
            &self.fabric,
            shard,
            &mut self.shards[shard],
            &mut self.traffic,
            Some(&mut self.roots),
        )
    }

    /// The number the next root will carry. A driver that draws randomness
    /// for a decision made outside any round seeds it from
    /// [`root_lineage`](crate::root_lineage) of this number, as a round
    /// seeds it from the delivery being handled.
    pub fn next_root(&self) -> u64 {
        self.roots
    }

    /// `send(msg, id)`: routes `msg` from node `from` to `Successor(key_id)`
    /// through the DHT, accounting one message per hop under `class`, and
    /// schedules its delivery after the delay bound. Returns the lookup
    /// result (owner and path).
    pub fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        self.root_handle(from).send(from, key_id, msg, class)
    }

    /// `multiSend(M, I)`: delivers each `(key_id, msg)` pair to
    /// `Successor(key_id)` through one forwarding tree rooted at `from`
    /// ([`ShardHandle`]'s `multi_send`).
    pub fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        self.root_handle(from).multi_send(from, items, class)
    }

    /// `sendDirect(msg, addr)`: delivers `msg` to a node whose address is
    /// already known, in one hop.
    pub fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        self.root_handle(from).send_direct(from, to, msg, class)
    }

    /// Accounts the traffic of routing one message from `from` to
    /// `Successor(key_id)` without scheduling a delivery. Used to model
    /// synchronous request/response exchanges (such as RIC-information
    /// requests) whose *content* the engine resolves immediately but whose
    /// *cost* must still be charged.
    pub fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        self.root_handle(from).charge_route(from, key_id, class)
    }

    /// Accounts one direct (single-hop) message from `from` without
    /// scheduling a delivery. Companion of [`charge_route`](Self::charge_route).
    pub fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.traffic.record_sent(from, class);
    }

    /// One handle per shard, in shard order, for a driver's rounds: sends
    /// are chained from the delivery set by
    /// [`begin_effect`](ShardHandle::begin_effect) and accounted into the
    /// shard's buffer. Call [`settle`](Self::settle) once the handles are
    /// dropped.
    pub fn handles(&mut self) -> Vec<ShardHandle<'_, M>> {
        let fabric = &self.fabric;
        self.shards
            .iter_mut()
            .zip(&mut self.buffers)
            .enumerate()
            .map(|(shard, (local, traffic))| ShardHandle::new(fabric, shard, local, traffic, None))
            .collect()
    }

    /// Ends a driver's rounds: folds every shard's traffic buffer into
    /// [`traffic`](Self::traffic) and moves the clock to the last tick any
    /// shard processed.
    pub fn settle(&mut self) {
        for buffer in &mut self.buffers {
            buffer.drain_into(&mut self.traffic);
        }
        let last = self.shards.iter().map(|s| s.clock).max().unwrap_or(self.clock);
        self.advance_to(last);
    }

    /// Drains *every* delivery of the earliest occupied tick at once, over
    /// all shards, advancing the clock to that tick. Returns `None` when no
    /// messages are in flight. The returned deliveries are in lineage
    /// order, so roots come out in send order.
    pub fn pop_tick(&mut self) -> Option<(SimTime, Vec<Delivery<M>>)> {
        for (shard, local) in self.shards.iter_mut().enumerate() {
            self.fabric.collect_inbox(shard, &mut local.queue);
        }
        let at = self.shards.iter().filter_map(|s| s.queue.next_time()).min()?;
        let mut due: Vec<Delivery<M>> = Vec::new();
        for local in &mut self.shards {
            if local.queue.next_time() == Some(at) {
                let bucket = local.queue.pop_bucket().expect("due at this tick").1;
                if due.is_empty() {
                    due = bucket.into();
                } else {
                    due.extend(bucket);
                }
            }
        }
        self.advance_to(at);
        Some((at, sorted_by(due, |d| d.lineage).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{root_lineage, BucketQueue};

    const CLASS_A: TrafficClass = 0;
    const CLASS_B: TrafficClass = 1;

    fn network(n: usize) -> (Network<&'static str>, Vec<Id>) {
        let mut net = Network::new(NetworkConfig { delay: 5, successor_list_len: 4 });
        let ids = net.bootstrap(n, "net-test");
        (net, ids)
    }

    /// Every pending delivery, one tick at a time.
    fn pop_all<M>(net: &mut Network<M>) -> Vec<Delivery<M>> {
        std::iter::from_fn(|| net.pop_tick()).flat_map(|(_, batch)| batch).collect()
    }

    #[test]
    fn bootstrap_creates_requested_nodes() {
        let (net, ids) = network(50);
        assert_eq!(ids.len(), 50);
        assert_eq!(net.dht().len(), 50);
    }

    #[test]
    fn send_delivers_to_owner_after_delay() {
        let (mut net, ids) = network(20);
        let key = Id::hash_key("some-key");
        let expected_owner = net.owner_of(key).unwrap();
        let result = net.send(ids[0], key, "hello", CLASS_A).unwrap();
        assert_eq!(result.owner, expected_owner);
        assert_eq!(net.in_flight(), 1);

        let (at, batch) = net.pop_tick().unwrap();
        let [delivery] = batch.as_slice() else { panic!("one delivery, got {}", batch.len()) };
        assert_eq!(delivery.to, expected_owner);
        assert_eq!(delivery.from, ids[0]);
        assert_eq!(delivery.msg, "hello");
        assert_eq!((at, delivery.at), (5, 5));
        assert_eq!(net.now(), 5);
        assert!(net.pop_tick().is_none());
    }

    #[test]
    fn traffic_counts_one_message_per_hop() {
        let (mut net, ids) = network(30);
        let key = Id::hash_key("another-key");
        let result = net.send(ids[0], key, "payload", CLASS_A).unwrap();
        let total = net.traffic().total_sent();
        assert_eq!(total, result.hops().max(1) as u64);
        // The sender is charged at least one message.
        assert!(net.traffic().sent_by(ids[0]) >= 1);
    }

    #[test]
    fn classes_are_accounted_separately() {
        let (mut net, ids) = network(30);
        net.send(ids[0], Id::hash_key("k1"), "a", CLASS_A).unwrap();
        net.send(ids[1], Id::hash_key("k2"), "b", CLASS_B).unwrap();
        let a = net.traffic().total_sent_class(CLASS_A);
        let b = net.traffic().total_sent_class(CLASS_B);
        assert!(a >= 1);
        assert!(b >= 1);
        assert_eq!(net.traffic().total_sent(), a + b);
    }

    #[test]
    fn multi_send_delivers_every_item() {
        let (mut net, ids) = network(25);
        let items = vec![
            (Id::hash_key("x"), "to-x"),
            (Id::hash_key("y"), "to-y"),
            (Id::hash_key("z"), "to-z"),
        ];
        net.multi_send(ids[2], items, CLASS_A).unwrap();
        assert_eq!(net.in_flight(), 3);
        let mut seen: Vec<&str> = pop_all(&mut net).into_iter().map(|d| d.msg).collect();
        seen.sort();
        assert_eq!(seen, vec!["to-x", "to-y", "to-z"]);
    }

    #[test]
    fn send_direct_costs_one_message() {
        let (mut net, ids) = network(10);
        net.send_direct(ids[0], ids[5], "direct", CLASS_B);
        assert_eq!(net.traffic().sent_by(ids[0]), 1);
        assert_eq!(net.traffic().total_sent(), 1);
        let (_, batch) = net.pop_tick().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].to, ids[5]);
        assert_eq!(batch[0].msg, "direct");
    }

    #[test]
    fn deliveries_are_ordered_by_time_then_fifo() {
        let (mut net, ids) = network(10);
        net.send_direct(ids[0], ids[1], "first", CLASS_A);
        net.send_direct(ids[0], ids[2], "second", CLASS_A);
        net.advance_to(100);
        net.send_direct(ids[0], ids[3], "third", CLASS_A);
        let order: Vec<&str> = pop_all(&mut net).into_iter().map(|d| d.msg).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn pop_tick_drains_one_tick_in_seq_order() {
        let (mut net, ids) = network(10);
        net.send_direct(ids[0], ids[1], "a", CLASS_A);
        net.send_direct(ids[0], ids[2], "b", CLASS_A);

        let (at, batch) = net.pop_tick().unwrap();
        assert_eq!(at, 5);
        assert_eq!(net.now(), 5);
        net.advance_to(100);
        net.send_direct(ids[0], ids[3], "later", CLASS_A);
        let msgs: Vec<&str> = batch.iter().map(|d| d.msg).collect();
        assert_eq!(msgs, vec!["a", "b"]);
        let lineages: Vec<_> = batch.iter().map(|d| d.lineage).collect();
        assert_eq!(lineages, vec![root_lineage(0), root_lineage(1)], "roots in send order");

        let (at, batch) = net.pop_tick().unwrap();
        assert_eq!(at, 105);
        assert_eq!(batch.len(), 1);
        assert!(net.pop_tick().is_none());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn pop_tick_takes_a_tick_from_every_shard() {
        let mut net = Network::new(NetworkConfig { delay: 2, successor_list_len: 4 });
        let ids = net.bootstrap(16, "pop-shards");
        net.partition(4);
        assert_eq!(net.shards(), 4);
        for (i, id) in ids.iter().enumerate() {
            net.send_direct(ids[0], *id, i, CLASS_A);
        }
        assert_eq!(net.in_flight(), ids.len(), "cross-shard roots wait in inboxes");
        let (at, batch) = net.pop_tick().unwrap();
        assert_eq!(at, 2);
        assert_eq!(
            batch.iter().map(|d| d.msg).collect::<Vec<_>>(),
            (0..ids.len()).collect::<Vec<_>>()
        );
        assert!(net.pop_tick().is_none());
    }

    #[test]
    fn out_of_order_push_is_still_delivered_in_time_order() {
        // No current caller schedules behind the queue tail (δ is constant
        // and the clock is monotone), but the bucket queue must stay correct
        // if one ever does.
        let delivery =
            |at, msg| Delivery { at, lineage: root_lineage(at), to: Id(1), from: Id(2), msg };
        let mut q: BucketQueue<Delivery<&str>> = BucketQueue::new();
        q.push(10, delivery(10, "late"));
        q.push(5, delivery(5, "early"));
        q.push(5, delivery(5, "early2"));
        q.push(7, delivery(7, "mid"));
        assert_eq!(q.len(), 4);
        let order: Vec<(SimTime, &str)> =
            std::iter::from_fn(|| q.pop_front().map(|(at, d)| (at, d.msg))).collect();
        assert_eq!(order, vec![(5, "early"), (5, "early2"), (7, "mid"), (10, "late")]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn charge_route_accounts_without_delivery() {
        let (mut net, ids) = network(30);
        let before = net.traffic().total_sent();
        net.charge_route(ids[0], Id::hash_key("ric-key"), CLASS_B).unwrap();
        assert!(net.traffic().total_sent() > before);
        assert_eq!(net.in_flight(), 0);
        net.charge_direct(ids[0], CLASS_B);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn clock_never_goes_backwards() {
        let (mut net, ids) = network(10);
        net.advance_to(50);
        net.send_direct(ids[0], ids[1], "late", CLASS_A);
        net.advance_to(10); // no-op
        assert_eq!(net.now(), 50);
        let (at, _) = net.pop_tick().unwrap();
        assert_eq!(at, 55);
        assert_eq!(net.now(), 55);
    }
}
