//! The simulated network: DHT-routed delivery with bounded delay.

use crate::queue::BucketQueue;
use crate::{KeyRouter, SimTime, TrafficClass, TrafficStats, Transport};
use rjoin_dht::{ChordNetwork, DhtError, Id, LookupResult};

/// Configuration of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Upper bound δ on the delivery delay of a single message, in ticks.
    /// Every routed or direct message is delivered `delay` ticks after it is
    /// sent (the worst case allowed by the paper's system model).
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
    /// Scheduling sequence number: deliveries at the same tick are ordered
    /// by it (FIFO in send order), and `(at, seq)` is a unique, totally
    /// ordered identity for every delivery of a run.
    pub seq: u64,
    /// The node receiving the message.
    pub to: Id,
    /// The node that originally sent the message.
    pub from: Id,
    /// The payload.
    pub msg: M,
}

/// Internal queue entry; buckets keep entries in (time, sequence) order.
///
/// Every message is scheduled `δ` ticks after the (monotone) clock, so
/// arrival times enter the [`BucketQueue`] in non-decreasing order and
/// entries within a bucket are FIFO by sequence number: draining a whole
/// bucket yields exactly the global `(at, seq)` order a binary heap would
/// have produced, at O(1) per event.
#[derive(Debug)]
struct Scheduled<M> {
    seq: u64,
    to: Id,
    from: Id,
    msg: M,
}

/// The simulated network: a Chord ring plus an event queue of in-flight
/// messages and per-node traffic accounting.
#[derive(Debug)]
pub struct Network<M> {
    dht: ChordNetwork,
    config: NetworkConfig,
    clock: SimTime,
    seq: u64,
    queue: BucketQueue<Scheduled<M>>,
    traffic: TrafficStats,
}

impl<M> Network<M> {
    /// Creates an empty network.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            dht: ChordNetwork::new(config.successor_list_len),
            config,
            clock: 0,
            seq: 0,
            queue: BucketQueue::new(),
            traffic: TrafficStats::new(),
        }
    }

    /// Adds `n` nodes with deterministic identifiers derived from `label`
    /// and fully stabilizes the ring. Returns the node identifiers.
    pub fn bootstrap(&mut self, n: usize, label: &str) -> Vec<Id> {
        let mut ids = Vec::with_capacity(n);
        let mut i = 0u64;
        while ids.len() < n {
            let id = Id::hash_key(&format!("{label}-{i}"));
            i += 1;
            if self.dht.join(id).is_ok() {
                ids.push(id);
            }
        }
        self.dht.full_stabilize();
        ids
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advances the clock (used by drivers to model idle periods).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// The configured per-message delay bound δ.
    pub fn delay(&self) -> SimTime {
        self.config.delay
    }

    /// Read access to the underlying Chord ring.
    pub fn dht(&self) -> &ChordNetwork {
        &self.dht
    }

    /// Write access to the underlying Chord ring (node churn, identifier
    /// movement).
    pub fn dht_mut(&mut self) -> &mut ChordNetwork {
        &mut self.dht
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
        self.queue.len()
    }

    /// Resolves the node currently responsible for `key_id` without sending
    /// anything and without accounting traffic (an oracle used by tests and
    /// by the engine for ownership checks).
    pub fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        self.dht.successor_of(key_id)
    }

    fn account_path(&mut self, path: &[Id], class: TrafficClass) {
        crate::traffic::account_route(&mut self.traffic, path, class);
    }

    fn schedule(&mut self, at: SimTime, to: Id, from: Id, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, Scheduled { seq, to, from, msg });
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
        let result = self.dht.lookup(from, key_id)?;
        self.account_path(result.path(), class);
        self.traffic.record_received(result.owner);
        let at = self.clock + self.config.delay;
        self.schedule(at, result.owner, from, msg);
        Ok(result)
    }

    /// `multiSend(M, I)`: delivers each `(key_id, msg)` pair to
    /// `Successor(key_id)` through one forwarding tree rooted at `from` —
    /// the union of the items' unicast routes, one message per edge
    /// ([`account_multicast`](crate::account_multicast)), so items sharing
    /// their first hops share those messages and items for one owner share
    /// their whole route. Each item is still one delivery, scheduled in item
    /// order exactly as independent [`send`](Self::send)s would be. Every
    /// owner is resolved before anything is accounted or scheduled: a failed
    /// lookup sends nothing.
    pub fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        let Multicast { targets, mut routes } = resolve_multicast(
            &mut self.dht,
            from,
            &items,
            |dht, key| dht.successor_of(key),
            |dht, key| dht.lookup(from, key),
        )?;
        crate::traffic::account_multicast(&mut self.traffic, &mut routes, class);
        let at = self.clock + self.config.delay;
        for ((_, msg), to) in items.into_iter().zip(targets) {
            self.traffic.record_received(to);
            self.schedule(at, to, from, msg);
        }
        Ok(())
    }

    /// `sendDirect(msg, addr)`: delivers `msg` to a node whose address is
    /// already known, in one hop.
    pub fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        self.traffic.record_sent(from, class);
        self.traffic.record_received(to);
        let at = self.clock + self.config.delay;
        self.schedule(at, to, from, msg);
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
        let result = self.dht.lookup(from, key_id)?;
        self.account_path(result.path(), class);
        Ok(result)
    }

    /// Accounts one direct (single-hop) message from `from` without
    /// scheduling a delivery. Companion of [`charge_route`](Self::charge_route).
    pub fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        self.traffic.record_sent(from, class);
    }

    /// The arrival tick of the earliest in-flight message, if any.
    pub fn next_delivery_time(&self) -> Option<SimTime> {
        self.queue.next_time()
    }

    /// Drains *every* delivery of the earliest occupied tick at once,
    /// advancing the clock to that tick. Returns `None` when no messages are
    /// in flight. The returned deliveries are in `(at, seq)` order, so
    /// repeated calls yield the queue's total delivery order one tick at a
    /// time.
    pub fn pop_tick(&mut self) -> Option<(SimTime, Vec<Delivery<M>>)> {
        let (at, bucket) = self.queue.pop_bucket()?;
        self.clock = self.clock.max(at);
        let deliveries = bucket
            .into_iter()
            .map(|s| Delivery { at, seq: s.seq, to: s.to, from: s.from, msg: s.msg })
            .collect();
        Some((at, deliveries))
    }

    /// Removes *every* in-flight message in `(at, seq)` order **without**
    /// advancing the clock. Used to hand the pending event set over to a
    /// [`ShardedNetwork`](crate::ShardedNetwork) drain: the sharded runtime
    /// re-schedules the messages into its per-shard queues and reports the
    /// final clock back via [`advance_to`](Self::advance_to).
    pub fn drain_in_flight(&mut self) -> Vec<Delivery<M>> {
        let mut drained = Vec::with_capacity(self.queue.len());
        while let Some((at, bucket)) = self.queue.pop_bucket() {
            drained.extend(bucket.into_iter().map(|s| Delivery {
                at,
                seq: s.seq,
                to: s.to,
                from: s.from,
                msg: s.msg,
            }));
        }
        drained
    }
}

/// One `multiSend`, resolved before anything is sent.
pub(crate) struct Multicast {
    /// The node each item is delivered to (its route's end), in item order.
    pub(crate) targets: Vec<Id>,
    /// One route per distinct owner, paired with the number of items it
    /// carries — the input of [`account_multicast`](crate::account_multicast).
    pub(crate) routes: Vec<(LookupResult, u64)>,
}

/// Resolves one `multiSend` from `from` over `dht`: the ground-truth owner
/// of every item's key (`owner_of`), then one route per *distinct* owner
/// (`route`, walked for the owner's first item) — on a stable ring a route
/// depends on the key only through its owner. The routes come out with
/// their owners in clockwise order from `from`, the order
/// [`account_multicast`](crate::account_multicast) sorts them into. Fails
/// on the first failed resolution, before the caller has sent anything.
pub(crate) fn resolve_multicast<D, M>(
    dht: &mut D,
    from: Id,
    items: &[(Id, M)],
    owner_of: impl Fn(&D, Id) -> Result<Id, DhtError>,
    mut route: impl FnMut(&mut D, Id) -> Result<LookupResult, DhtError>,
) -> Result<Multicast, DhtError> {
    // (clockwise distance from just past `from` to the item's owner, item
    // index): a key `from` owns sorts last, as its route goes round the ring.
    let mut by_owner = Vec::with_capacity(items.len());
    for (i, (key, _)) in items.iter().enumerate() {
        by_owner.push((owner_of(dht, *key)?.0.wrapping_sub(from.0).wrapping_sub(1), i));
    }
    by_owner.sort_unstable();
    let mut targets = vec![Id(0); items.len()];
    let mut routes: Vec<(LookupResult, u64)> = Vec::new();
    let mut last_owner = None;
    for (owner, i) in by_owner {
        if last_owner != Some(owner) {
            last_owner = Some(owner);
            routes.push((route(dht, items[i].0)?, 0));
        }
        let (route, count) = routes.last_mut().expect("pushed for this owner");
        *count += 1;
        targets[i] = route.owner;
    }
    Ok(Multicast { targets, routes })
}

impl<M> KeyRouter for Network<M> {
    fn owner_of(&self, key_id: Id) -> Result<Id, DhtError> {
        Network::owner_of(self, key_id)
    }
}

impl<M> Transport<M> for Network<M> {
    fn now(&self) -> SimTime {
        Network::now(self)
    }

    fn delay(&self) -> SimTime {
        Network::delay(self)
    }

    fn send(
        &mut self,
        from: Id,
        key_id: Id,
        msg: M,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        Network::send(self, from, key_id, msg, class)
    }

    fn multi_send(
        &mut self,
        from: Id,
        items: Vec<(Id, M)>,
        class: TrafficClass,
    ) -> Result<(), DhtError> {
        Network::multi_send(self, from, items, class)
    }

    fn send_direct(&mut self, from: Id, to: Id, msg: M, class: TrafficClass) {
        Network::send_direct(self, from, to, msg, class)
    }

    fn charge_route(
        &mut self,
        from: Id,
        key_id: Id,
        class: TrafficClass,
    ) -> Result<LookupResult, DhtError> {
        Network::charge_route(self, from, key_id, class)
    }

    fn charge_direct(&mut self, from: Id, class: TrafficClass) {
        Network::charge_direct(self, from, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        assert_eq!(net.next_delivery_time(), Some(5));
        let (at, batch) = net.pop_tick().unwrap();
        assert_eq!(at, 5);
        assert_eq!(net.now(), 5);
        net.advance_to(100);
        net.send_direct(ids[0], ids[3], "later", CLASS_A);
        let msgs: Vec<&str> = batch.iter().map(|d| d.msg).collect();
        assert_eq!(msgs, vec!["a", "b"]);
        assert!(batch.windows(2).all(|w| w[0].seq < w[1].seq), "FIFO by seq");

        let (at, batch) = net.pop_tick().unwrap();
        assert_eq!(at, 105);
        assert_eq!(batch.len(), 1);
        assert!(net.pop_tick().is_none());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn pop_tick_and_drain_in_flight_agree_on_order() {
        let build = |n: usize| {
            let mut net = Network::new(NetworkConfig { delay: 3, successor_list_len: 4 });
            let ids = net.bootstrap(n, "order-test");
            for round in 0..4u64 {
                net.advance_to(round * 2);
                for i in 0..5 {
                    net.send_direct(ids[i], ids[(i + 1) % n], (round, i), CLASS_A);
                }
            }
            net
        };
        let mut by_drain = build(8);
        let mut by_tick = build(8);
        let drained: Vec<(SimTime, u64, (u64, usize))> =
            by_drain.drain_in_flight().into_iter().map(|d| (d.at, d.seq, d.msg)).collect();
        let mut batched = Vec::new();
        while let Some((at, batch)) = by_tick.pop_tick() {
            for d in batch {
                batched.push((at, d.seq, d.msg));
            }
        }
        assert_eq!(drained, batched);
    }

    #[test]
    fn out_of_order_push_is_still_delivered_in_time_order() {
        // No current caller schedules behind the queue tail (δ is constant
        // and the clock is monotone), but the bucket queue must stay correct
        // if one ever does.
        let mut q: BucketQueue<Scheduled<&str>> = BucketQueue::new();
        q.push(10, Scheduled { seq: 0, to: Id(1), from: Id(2), msg: "late" });
        q.push(5, Scheduled { seq: 1, to: Id(1), from: Id(2), msg: "early" });
        q.push(5, Scheduled { seq: 2, to: Id(1), from: Id(2), msg: "early2" });
        q.push(7, Scheduled { seq: 3, to: Id(1), from: Id(2), msg: "mid" });
        assert_eq!(q.len(), 4);
        let order: Vec<(SimTime, &str)> =
            std::iter::from_fn(|| q.pop_front().map(|(at, s)| (at, s.msg))).collect();
        assert_eq!(order, vec![(5, "early"), (5, "early2"), (7, "mid"), (10, "late")]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_in_flight_empties_the_queue_without_advancing_the_clock() {
        let (mut net, ids) = network(10);
        net.send_direct(ids[0], ids[1], "a", CLASS_A);
        net.advance_to(40);
        net.send_direct(ids[0], ids[2], "b", CLASS_A);
        let drained = net.drain_in_flight();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].msg, "a");
        assert_eq!(drained[0].at, 5);
        assert_eq!(drained[1].at, 45);
        assert!(drained[0].seq < drained[1].seq);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.now(), 40, "draining must not move the clock");
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
