//! Property-based tests for the Chord ring: interval arithmetic, ownership
//! and lookup correctness on random rings.

use proptest::prelude::*;
use rjoin_dht::{ChordNetwork, Id, ID_BITS};

/// For every `(from, key)` pick: the memoized `lookup` equals a cold
/// `lookup_stable` walk, and so do the lookups of two other keys of the same
/// owner — the owner's own identifier and the first identifier of its arc.
fn assert_routes_depend_on_the_owner_only(
    net: &mut ChordNetwork,
    picks: &[(usize, u64)],
) -> Result<(), TestCaseError> {
    let ids: Vec<Id> = net.node_ids().collect();
    for &(from_pick, key) in picks {
        let (from, key) = (ids[from_pick % ids.len()], Id(key));
        let owner = net.successor_of(key).unwrap();
        let arc_start = Id(net.predecessor_of(owner).unwrap().0.wrapping_add(1));
        let cold = net.lookup_stable(from, key).unwrap();
        for same_owner in [key, owner, arc_start] {
            prop_assert_eq!(net.successor_of(same_owner).unwrap(), owner);
            let memoized = net.lookup(from, same_owner).unwrap();
            prop_assert_eq!(memoized.path(), cold.path());
            let walked = net.lookup_stable(from, same_owner).unwrap();
            prop_assert_eq!(walked.path(), cold.path());
        }
    }
    Ok(())
}

proptest! {
    /// `in_open_closed_interval` partitions the ring: for any `from != to`,
    /// every identifier is either in `(from, to]` or in `(to, from]`, never
    /// both and never neither.
    #[test]
    fn open_closed_intervals_partition_the_ring(from in any::<u64>(), to in any::<u64>(), x in any::<u64>()) {
        prop_assume!(from != to);
        let (from, to, x) = (Id(from), Id(to), Id(x));
        let in_first = x.in_open_closed_interval(from, to);
        let in_second = x.in_open_closed_interval(to, from);
        prop_assert!(in_first ^ in_second, "exactly one of the two half-open arcs must contain x");
    }

    /// Clockwise distances around the ring sum to a full revolution.
    #[test]
    fn distances_sum_to_full_circle(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let (a, b) = (Id(a), Id(b));
        prop_assert_eq!(a.distance_to(b).wrapping_add(b.distance_to(a)), 0u64);
    }

    /// The open interval is contained in the open-closed interval.
    #[test]
    fn open_subset_of_open_closed(from in any::<u64>(), to in any::<u64>(), x in any::<u64>()) {
        let (from, to, x) = (Id(from), Id(to), Id(x));
        if x.in_open_interval(from, to) {
            prop_assert!(x.in_open_closed_interval(from, to));
        }
    }

    /// Hashing is deterministic and, over a batch of distinct keys, produces
    /// distinct identifiers (no collisions at test scale).
    #[test]
    fn hashing_is_deterministic_and_collision_free(n in 2usize..64) {
        let ids: Vec<Id> = (0..n).map(|i| Id::hash_key(&format!("prop-key-{i}"))).collect();
        let again: Vec<Id> = (0..n).map(|i| Id::hash_key(&format!("prop-key-{i}"))).collect();
        prop_assert_eq!(&ids, &again);
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), ids.len());
    }

    /// On a fully stabilized ring of random size, `lookup` from any node
    /// returns the ground-truth successor of the key, and the hop count is
    /// bounded by the ring size.
    #[test]
    fn lookup_agrees_with_ground_truth(nodes in 2usize..48, key_seed in any::<u64>(), from_pick in any::<usize>()) {
        let mut net = ChordNetwork::new(4);
        for i in 0..nodes {
            net.join(Id::hash_key(&format!("prop-node-{i}"))).unwrap();
        }
        net.full_stabilize();
        let ids: Vec<Id> = net.node_ids().collect();
        let from = ids[from_pick % ids.len()];
        let key = Id(key_seed);
        let expected = net.successor_of(key).unwrap();
        let result = net.lookup(from, key).unwrap();
        prop_assert_eq!(result.owner, expected);
        prop_assert!(result.hops() <= nodes, "hops {} exceed ring size {}", result.hops(), nodes);
        prop_assert_eq!(result.path().first().copied(), Some(from));
        prop_assert_eq!(result.path().last().copied(), Some(expected));
    }

    /// Routes are memoized per `(from, owner)`: on stabilized rings of every
    /// size class the memo never disagrees with a cold walk and keys of one
    /// owner share one path — before and after joins, a graceful leave and a
    /// crash, once the protocol's own stabilization rounds repaired the ring.
    #[test]
    fn memoized_routes_depend_on_the_key_through_its_owner_only(
        size_class in 0usize..6,
        picks in proptest::collection::vec((any::<usize>(), any::<u64>()), 24),
    ) {
        let nodes = [1usize, 2, 3, 17, 64, 256][size_class];
        let mut net = ChordNetwork::new(4);
        let ids: Vec<Id> = (0..nodes).map(|i| Id::hash_key(&format!("memo-node-{i}"))).collect();
        for id in &ids {
            net.join(*id).unwrap();
        }
        net.full_stabilize();
        assert_routes_depend_on_the_owner_only(&mut net, &picks)?;
        net.join(Id::hash_key("memo-late")).unwrap();
        net.join(Id::hash_key("memo-later")).unwrap();
        net.leave(ids[nodes / 2]).unwrap();
        net.fail(Id::hash_key("memo-late")).unwrap();
        for _ in 0..ID_BITS {
            net.stabilize_round();
        }
        assert_routes_depend_on_the_owner_only(&mut net, &picks)?;
    }

    /// Every key is owned by exactly one node, and ownership moves to the
    /// successor when that node leaves.
    #[test]
    fn ownership_transfers_on_leave(nodes in 3usize..32, key_seed in any::<u64>()) {
        let mut net = ChordNetwork::new(4);
        for i in 0..nodes {
            net.join(Id::hash_key(&format!("leave-node-{i}"))).unwrap();
        }
        net.full_stabilize();
        let key = Id(key_seed);
        let owner = net.successor_of(key).unwrap();
        let next = net.successor_of(Id(owner.0.wrapping_add(1))).unwrap();
        net.leave(owner).unwrap();
        let new_owner = net.successor_of(key).unwrap();
        if next != owner {
            prop_assert_eq!(new_owner, next);
        }
    }
}
