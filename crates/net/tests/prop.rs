//! Property-based tests for the simulated network: delivery ordering,
//! ownership and traffic accounting.

use proptest::prelude::*;
use rjoin_dht::{ChordNetwork, Id};
use rjoin_net::{root_lineage, Network, NetworkConfig, TrafficClass, TrafficStats, Transport};
use std::collections::BTreeMap;

const CLASS: TrafficClass = 0;

/// The messages each node sends when `keys` leave `origin` as one
/// `multiSend` and every node forwards hop by hop from its own routing
/// state: a node that received items keeps the ones it owns, groups the
/// rest by next hop (`successor()` when the key falls in `(node,
/// successor]`, else `closest_preceding_node(key)`) and sends one message
/// per group. The origin holds its items before any was routed, so a key it
/// owns goes the greedy walk's way round the ring, as a unicast `send`
/// does.
fn reference_tree(dht: &ChordNetwork, origin: Id, keys: &[Id]) -> BTreeMap<Id, u64> {
    let mut sent = BTreeMap::new();
    let mut messages = vec![(origin, keys.to_vec(), false)];
    while let Some((node, keys, received)) = messages.pop() {
        let chord = dht.node(node).expect("a live node");
        let successor = chord.successor();
        let mut groups: BTreeMap<Id, Vec<Id>> = BTreeMap::new();
        for key in keys {
            if received && dht.successor_of(key).unwrap() == node {
                continue;
            }
            let next = if key.in_open_closed_interval(node, successor) {
                successor
            } else {
                chord.closest_preceding_node(key).filter(|n| *n != node).unwrap_or(successor)
            };
            groups.entry(next).or_default().push(key);
        }
        for (next, keys) in groups {
            *sent.entry(node).or_insert(0) += 1;
            messages.push((next, keys, true));
        }
    }
    sent
}

/// Messages of [`CLASS`] each of `nodes` sent, in `nodes` order.
fn charges(traffic: &TrafficStats, nodes: &[Id]) -> Vec<u64> {
    nodes.iter().map(|id| traffic.sent_by_class(*id, CLASS)).collect()
}

/// `keys` plus duplicates of some of them and `owned` keys the origin owns
/// (just below its identifier), in a deterministic order.
fn multicast_keys(keys: &[u64], duplicates: &[usize], owned: u64, origin: Id) -> Vec<Id> {
    let mut all: Vec<Id> = keys.iter().map(|k| Id(*k)).collect();
    for d in duplicates {
        all.push(all[d % all.len()]);
    }
    all.extend((0..owned).map(|j| Id(origin.0.wrapping_sub(j))));
    all
}

proptest! {
    /// Every routed message is delivered to the ground-truth owner of its
    /// key, the hop count equals the accounted messages, and ticks come out
    /// in increasing time order, their deliveries in send order.
    #[test]
    fn routing_and_accounting_are_consistent(
        nodes in 2usize..40,
        delay in 1u64..20,
        keys in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let mut net: Network<usize> = Network::new(NetworkConfig { delay });
        let ids = net.bootstrap(nodes, "prop-net");
        let from = ids[0];

        let mut expected_owners = Vec::new();
        let mut total_hops = 0u64;
        for (i, key) in keys.iter().enumerate() {
            let key = Id(*key);
            let owner = net.owner_of(key).unwrap();
            let result = net.send(from, key, i, CLASS).unwrap();
            prop_assert_eq!(result.owner, owner);
            total_hops += result.hops().max(1) as u64;
            expected_owners.push(owner);
        }
        prop_assert_eq!(net.traffic().total_sent(), total_hops);
        prop_assert_eq!(net.in_flight(), keys.len());

        let mut last_time = 0;
        let mut last_lineage = None;
        let mut delivered = 0usize;
        while let Some((at, batch)) = net.pop_tick() {
            prop_assert!(at > last_time || delivered == 0);
            last_time = at;
            for delivery in batch {
                prop_assert_eq!(delivery.at, at);
                prop_assert!(last_lineage < Some(delivery.lineage), "FIFO within and across ticks");
                last_lineage = Some(delivery.lineage);
                prop_assert_eq!(delivery.to, expected_owners[delivery.msg]);
                prop_assert_eq!(delivery.from, from);
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, keys.len());
        prop_assert_eq!(net.now(), last_time);
    }

    /// Direct sends cost exactly one message each regardless of the ring
    /// size, and are delivered after exactly the delay bound.
    #[test]
    fn direct_sends_cost_one_message(nodes in 2usize..40, delay in 1u64..50, count in 1usize..30) {
        let mut net: Network<u32> = Network::new(NetworkConfig { delay });
        let ids = net.bootstrap(nodes, "prop-direct");
        for i in 0..count {
            net.send_direct(ids[i % ids.len()], ids[(i + 1) % ids.len()], i as u32, CLASS);
        }
        prop_assert_eq!(net.traffic().total_sent(), count as u64);
        let (at, batch) = net.pop_tick().expect("every direct send lands in one tick");
        prop_assert_eq!(at, delay);
        prop_assert!(batch.iter().all(|d| d.at == delay));
        prop_assert_eq!(batch.len(), count);
        prop_assert!(net.pop_tick().is_none());
    }

    /// `multiSend` from outside a round: every item is delivered once, to
    /// its owner, at the same `(at, lineage)` as independent sends;
    /// each node pays what the hop-by-hop reference forwarder pays; the
    /// tree never costs more than the unicast routes; and one key costs
    /// exactly one `send`.
    #[test]
    fn network_multi_send_is_one_forwarding_tree(
        nodes in 2usize..64,
        delay in 1u64..20,
        keys in proptest::collection::vec(any::<u64>(), 1..40),
        duplicates in proptest::collection::vec(any::<usize>(), 0..8),
        owned in 0u64..3,
    ) {
        let build = || {
            let mut net: Network<usize> =
                Network::new(NetworkConfig { delay });
            let ids = net.bootstrap(nodes, "prop-multi");
            (net, ids)
        };
        let (mut multi, ids) = build();
        let (mut unicast, _) = build();
        let (mut single, _) = build();
        let (mut single_send, _) = build();
        let from = ids[0];
        let keys = multicast_keys(&keys, &duplicates, owned, from);
        let expected = reference_tree(multi.dht(), from, &keys);

        let mut unicast_hops = 0u64;
        for (i, key) in keys.iter().enumerate() {
            unicast_hops += unicast.send(from, *key, i, CLASS).unwrap().hops().max(1) as u64;
        }
        multi.multi_send(from, keys.iter().copied().zip(0..).collect(), CLASS).unwrap();

        let deliveries = |net: &mut Network<usize>| {
            std::iter::from_fn(|| net.pop_tick())
                .flat_map(|(_, batch)| batch)
                .map(|d| (d.at, d.lineage, d.to, d.from, d.msg))
                .collect::<Vec<_>>()
        };
        let delivered = deliveries(&mut multi);
        prop_assert_eq!(&delivered, &deliveries(&mut unicast));
        prop_assert_eq!(delivered.len(), keys.len());
        for (_, _, to, _, item) in &delivered {
            prop_assert_eq!(*to, multi.owner_of(keys[*item]).unwrap());
        }
        let per_node = charges(multi.traffic(), &ids);
        let reference: Vec<u64> =
            ids.iter().map(|id| expected.get(id).copied().unwrap_or(0)).collect();
        prop_assert_eq!(per_node, reference);
        prop_assert!(multi.traffic().total_sent() <= unicast_hops);

        single.multi_send(from, vec![(keys[0], 0)], CLASS).unwrap();
        single_send.send(from, keys[0], 0, CLASS).unwrap();
        prop_assert_eq!(charges(single.traffic(), &ids), charges(single_send.traffic(), &ids));
    }

    /// The same properties inside a round, on a shard's handle, whose sends
    /// are chained from the delivery whose effects it applies.
    #[test]
    fn shard_multi_send_is_one_forwarding_tree(
        nodes in 2usize..64,
        delay in 1u64..20,
        keys in proptest::collection::vec(any::<u64>(), 1..40),
        duplicates in proptest::collection::vec(any::<usize>(), 0..8),
        owned in 0u64..3,
    ) {
        let mut net: Network<usize> = Network::new(NetworkConfig { delay });
        let ids = net.bootstrap(nodes, "prop-shard-multi");
        let from = ids[nodes / 2];
        let keys = multicast_keys(&keys, &duplicates, owned, from);
        let expected = reference_tree(net.dht(), from, &keys);

        // One network per run, each a single shard: a handle's first send
        // after `begin_effect` gets the same lineage in every run.
        type Sender<'a> = dyn Fn(&mut rjoin_net::ShardHandle<'_, usize>) + 'a;
        let run = |send: &Sender<'_>| {
            let mut fabric: Network<usize> =
                Network::new(NetworkConfig { delay });
            fabric.bootstrap(nodes, "prop-shard-multi");
            let mut handles = fabric.handles();
            let handle = &mut handles[0];
            handle.begin_effect(root_lineage(7));
            send(handle);
            let tick = handle.next_event_time().expect("items in flight");
            let (_, batch) = handle.try_take_tick(tick).expect("all due at one tick");
            prop_assert!(handle.next_event_time().is_none());
            let delivered: Vec<_> = batch.map(|d| (d.at, d.lineage, d.to, d.from, d.msg)).collect();
            drop(handles);
            fabric.settle();
            Ok((delivered, fabric.traffic().clone()))
        };
        let (delivered, traffic) = run(&|h| {
            h.multi_send(from, keys.iter().copied().zip(0..).collect(), CLASS).unwrap()
        })?;
        let (unicast_delivered, unicast_traffic) = run(&|h| {
            for (i, key) in keys.iter().enumerate() {
                h.send(from, *key, i, CLASS).unwrap();
            }
        })?;
        prop_assert_eq!(&delivered, &unicast_delivered);
        prop_assert_eq!(delivered.len(), keys.len());
        for (_, _, to, _, item) in &delivered {
            prop_assert_eq!(*to, net.owner_of(keys[*item]).unwrap());
        }
        let reference: Vec<u64> =
            ids.iter().map(|id| expected.get(id).copied().unwrap_or(0)).collect();
        prop_assert_eq!(charges(&traffic, &ids), reference);
        prop_assert!(traffic.total_sent() <= unicast_traffic.total_sent());

        let (_, single) = run(&|h| h.multi_send(from, vec![(keys[0], 0)], CLASS).unwrap())?;
        let (_, single_send) = run(&|h| {
            h.send(from, keys[0], 0, CLASS).unwrap();
        })?;
        prop_assert_eq!(charges(&single, &ids), charges(&single_send, &ids));
    }
}
