//! Property-based tests for the simulated network: delivery ordering,
//! ownership and traffic accounting.

use proptest::prelude::*;
use rjoin_dht::Id;
use rjoin_net::{Network, NetworkConfig, TrafficClass};

const CLASS: TrafficClass = 0;

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
        let mut net: Network<usize> = Network::new(NetworkConfig { delay, successor_list_len: 4 });
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
        let mut last_seq = None;
        let mut delivered = 0usize;
        while let Some((at, batch)) = net.pop_tick() {
            prop_assert!(at > last_time || delivered == 0);
            last_time = at;
            for delivery in batch {
                prop_assert_eq!(delivery.at, at);
                prop_assert!(last_seq < Some(delivery.seq), "FIFO within and across ticks");
                last_seq = Some(delivery.seq);
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
        let mut net: Network<u32> = Network::new(NetworkConfig { delay, successor_list_len: 4 });
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
}
