//! Per-node traffic accounting.

use rjoin_dht::{Id, LookupResult, RingBuildHasher};
use std::collections::HashMap;

/// A caller-defined class of traffic.
///
/// The paper reports the *total* traffic per node as well as the portion
/// spent on requesting RIC information (e.g. Figure 2(a), Figure 3(a)), so
/// every accounted message carries a class tag. The RJoin engine defines its
/// own constants; this crate only fixes the representation.
pub type TrafficClass = u8;

/// Per-class counters of one node: a flat vector indexed by class, grown on
/// demand. The engine uses a handful of small, dense class tags, so this is
/// both smaller and far faster than a per-class hash map.
#[derive(Debug, Clone, Default)]
struct ClassCounts(Vec<u64>);

impl ClassCounts {
    #[inline]
    fn add(&mut self, class: TrafficClass, count: u64) {
        let idx = class as usize;
        if idx >= self.0.len() {
            self.0.resize(idx + 1, 0);
        }
        self.0[idx] += count;
    }

    #[inline]
    fn get(&self, class: TrafficClass) -> u64 {
        self.0.get(class as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Accounts one routed message along `path` into `traffic`: every hop is one
/// message sent by the node at the start of the hop (the originator counts
/// for creating + sending the message, each intermediate node for routing
/// it); a purely local delivery still counts as one message created.
///
/// This and [`account_multicast`] are the two definitions of the paper's
/// per-hop cost model — unicast and `multiSend` — for every sender of the
/// simulated [`Network`](crate::Network).
pub fn account_route(traffic: &mut TrafficStats, path: &[Id], class: TrafficClass) {
    if path.len() >= 2 {
        for sender in &path[..path.len() - 1] {
            traffic.record_sent(*sender, class);
        }
    } else if let Some(only) = path.first() {
        traffic.record_sent(*only, class);
    }
}

/// Accounts one `multiSend` as a forwarding tree: the origin sends one
/// message per distinct next hop, carrying every item routed behind it, and
/// each node on the way keeps the items it owns and forwards the rest the
/// same way. The tree is the union of the items' unicast routes, so it
/// costs one message — charged to its sender — per edge of their prefix
/// trie.
///
/// `routes` holds one route per distinct owner, paired with the number of
/// items delivered along it. The slice is sorted in place, lexicographically;
/// each route is then charged only past its longest common prefix with the
/// route before it, which counts every trie edge exactly once without
/// building the trie. Any fixed order of nodes makes the routes below each
/// shared prefix adjacent; the one used — clockwise distance from the first
/// route's origin — is the order greedy routes from one origin already come
/// in when listed by owner clockwise, so for a resolved `multiSend` the
/// (adaptive) sort is one pass.
///
/// A single-node route (on a one-node ring the origin owns every key and
/// walks nowhere) keeps [`account_route`]'s convention: one message created
/// per item; on a larger ring a key the origin owns is routed round the
/// ring like any other. A single
/// route of one item costs exactly what [`account_route`] charges for it.
pub fn account_multicast(
    traffic: &mut TrafficStats,
    routes: &mut [(LookupResult, u64)],
    class: TrafficClass,
) {
    let origin = routes.first().map_or(Id(0), |(route, _)| route.path()[0]);
    let clockwise = |id: &Id| id.0.wrapping_sub(origin.0);
    routes.sort_by(|a, b| a.0.path().iter().map(clockwise).cmp(b.0.path().iter().map(clockwise)));
    let mut prev: &[Id] = &[];
    for (route, items) in routes.iter() {
        let path = route.path();
        if let [only] = path {
            traffic.record_sent_n(*only, class, *items);
            continue;
        }
        let shared = prev.iter().zip(path).take_while(|(a, b)| a == b).count().max(1);
        for sender in &path[shared - 1..path.len() - 1] {
            traffic.record_sent(*sender, class);
        }
        prev = path;
    }
}

/// Per-node message counters, broken down by [`TrafficClass`].
///
/// Following the paper's definition, the traffic a node incurs is the number
/// of messages it has to **send**, which includes both the messages it
/// creates (RJoin-level messages) and the messages it forwards on behalf of
/// the DHT routing layer. Received messages are tracked separately for
/// diagnostics but are not part of the paper's traffic metric.
///
/// Accounting runs once per *hop*, making these the most frequently updated
/// counters in the simulation; node keys are ring identifiers (already
/// uniform), so the maps use the cheap [`RingBuildHasher`] instead of
/// SipHash.
///
/// The stats additionally record, per scheduled delivery, whether the
/// message stayed inside its sender's shard or crossed a shard boundary —
/// the shard-locality signal a multi-shard drain is tuned by (at one shard
/// nothing crosses).
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    sent: HashMap<Id, ClassCounts, RingBuildHasher>,
    received: HashMap<Id, u64, RingBuildHasher>,
    intra_shard: u64,
    cross_shard: u64,
}

impl TrafficStats {
    /// Creates an empty set of counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message sent by `node` (either created or routed).
    pub fn record_sent(&mut self, node: Id, class: TrafficClass) {
        self.sent.entry(node).or_default().add(class, 1);
    }

    /// Records `count` messages sent by `node`.
    pub fn record_sent_n(&mut self, node: Id, class: TrafficClass, count: u64) {
        if count > 0 {
            self.sent.entry(node).or_default().add(class, count);
        }
    }

    /// Records one message received by `node`. Under `multiSend` this
    /// counts delivered items: a forwarding-tree message that carries three
    /// items for `node` records three receptions, one per delivery.
    pub fn record_received(&mut self, node: Id) {
        *self.received.entry(node).or_insert(0) += 1;
    }

    /// Total messages sent by `node`, all classes combined.
    pub fn sent_by(&self, node: Id) -> u64 {
        self.sent.get(&node).map(ClassCounts::total).unwrap_or(0)
    }

    /// Messages of `class` sent by `node`.
    pub fn sent_by_class(&self, node: Id, class: TrafficClass) -> u64 {
        self.sent.get(&node).map(|m| m.get(class)).unwrap_or(0)
    }

    /// Messages received by `node`.
    pub fn received_by(&self, node: Id) -> u64 {
        self.received.get(&node).copied().unwrap_or(0)
    }

    /// Total messages sent across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.sent.values().map(ClassCounts::total).sum()
    }

    /// Total messages of `class` sent across all nodes.
    pub fn total_sent_class(&self, class: TrafficClass) -> u64 {
        self.sent.values().map(|m| m.get(class)).sum()
    }

    /// Per-node totals (all classes), for distribution plots.
    pub fn per_node_sent(&self) -> HashMap<Id, u64> {
        self.sent.iter().map(|(id, m)| (*id, m.total())).collect()
    }

    /// Number of nodes that sent at least one message.
    pub fn active_nodes(&self) -> usize {
        self.sent.values().filter(|m| m.total() > 0).count()
    }

    /// Records one scheduled delivery, tagged by whether it crossed a shard
    /// boundary.
    pub fn record_shard_hop(&mut self, cross_shard: bool) {
        if cross_shard {
            self.cross_shard += 1;
        } else {
            self.intra_shard += 1;
        }
    }

    /// Deliveries that stayed within their sender's shard.
    pub fn intra_shard_sent(&self) -> u64 {
        self.intra_shard
    }

    /// Deliveries that crossed a shard boundary.
    pub fn cross_shard_sent(&self) -> u64 {
        self.cross_shard
    }

    /// Resets all counters (used between experiment phases).
    pub fn reset(&mut self) {
        self.sent.clear();
        self.received.clear();
        self.intra_shard = 0;
        self.cross_shard = 0;
    }

    /// Adds every counter into `total` and zeroes this set, keeping its
    /// per-node entries allocated: for a buffer folded over and over.
    pub fn drain_into(&mut self, total: &mut TrafficStats) {
        total.merge(self);
        for classes in self.sent.values_mut() {
            classes.0.fill(0);
        }
        self.received.values_mut().for_each(|count| *count = 0);
        self.intra_shard = 0;
        self.cross_shard = 0;
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (id, classes) in &other.sent {
            let entry = self.sent.entry(*id).or_default();
            for (class, count) in classes.0.iter().enumerate() {
                entry.add(class as TrafficClass, *count);
            }
        }
        for (id, count) in &other.received {
            *self.received.entry(*id).or_insert(0) += count;
        }
        self.intra_shard += other.intra_shard;
        self.cross_shard += other.cross_shard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: TrafficClass = 0;
    const B: TrafficClass = 1;

    #[test]
    fn counters_accumulate_per_node_and_class() {
        let mut stats = TrafficStats::new();
        stats.record_sent(Id(1), A);
        stats.record_sent(Id(1), A);
        stats.record_sent(Id(1), B);
        stats.record_sent(Id(2), B);
        stats.record_received(Id(2));

        assert_eq!(stats.sent_by(Id(1)), 3);
        assert_eq!(stats.sent_by_class(Id(1), A), 2);
        assert_eq!(stats.sent_by_class(Id(1), B), 1);
        assert_eq!(stats.sent_by(Id(2)), 1);
        assert_eq!(stats.sent_by(Id(3)), 0);
        assert_eq!(stats.received_by(Id(2)), 1);
        assert_eq!(stats.total_sent(), 4);
        assert_eq!(stats.total_sent_class(B), 2);
        assert_eq!(stats.active_nodes(), 2);
    }

    #[test]
    fn record_sent_n_skips_zero() {
        let mut stats = TrafficStats::new();
        stats.record_sent_n(Id(1), A, 0);
        assert_eq!(stats.total_sent(), 0);
        stats.record_sent_n(Id(1), A, 5);
        assert_eq!(stats.sent_by(Id(1)), 5);
    }

    #[test]
    fn reset_clears_everything() {
        let mut stats = TrafficStats::new();
        stats.record_sent(Id(1), A);
        stats.record_received(Id(1));
        stats.reset();
        assert_eq!(stats.total_sent(), 0);
        assert_eq!(stats.received_by(Id(1)), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = TrafficStats::new();
        a.record_sent(Id(1), A);
        let mut b = TrafficStats::new();
        b.record_sent(Id(1), A);
        b.record_sent(Id(2), B);
        b.record_received(Id(1));
        a.merge(&b);
        assert_eq!(a.sent_by(Id(1)), 2);
        assert_eq!(a.sent_by(Id(2)), 1);
        assert_eq!(a.received_by(Id(1)), 1);
    }

    #[test]
    fn drain_into_moves_every_count_and_keeps_nothing() {
        let mut buffer = TrafficStats::new();
        buffer.record_sent(Id(1), B);
        buffer.record_received(Id(2));
        buffer.record_shard_hop(true);
        let mut total = TrafficStats::new();
        total.record_sent(Id(1), B);
        buffer.drain_into(&mut total);
        assert_eq!((total.sent_by_class(Id(1), B), total.received_by(Id(2))), (2, 1));
        assert_eq!(total.cross_shard_sent(), 1);
        assert_eq!((buffer.total_sent(), buffer.received_by(Id(2))), (0, 0));
        assert_eq!((buffer.active_nodes(), buffer.cross_shard_sent()), (0, 0));
        buffer.drain_into(&mut total);
        assert_eq!(total.total_sent(), 2, "a drained buffer adds nothing");
    }

    #[test]
    fn shard_hop_counters_accumulate_merge_and_reset() {
        let mut a = TrafficStats::new();
        a.record_shard_hop(false);
        a.record_shard_hop(true);
        a.record_shard_hop(true);
        assert_eq!(a.intra_shard_sent(), 1);
        assert_eq!(a.cross_shard_sent(), 2);
        let mut b = TrafficStats::new();
        b.record_shard_hop(false);
        b.merge(&a);
        assert_eq!(b.intra_shard_sent(), 2);
        assert_eq!(b.cross_shard_sent(), 2);
        b.reset();
        assert_eq!(b.intra_shard_sent(), 0);
        assert_eq!(b.cross_shard_sent(), 0);
    }

    #[test]
    fn account_route_charges_every_hop_sender() {
        let mut stats = TrafficStats::new();
        account_route(&mut stats, &[Id(1), Id(2), Id(3)], A);
        assert_eq!(stats.sent_by(Id(1)), 1);
        assert_eq!(stats.sent_by(Id(2)), 1);
        assert_eq!(stats.sent_by(Id(3)), 0, "the final receiver sends nothing");
        account_route(&mut stats, &[Id(9)], B);
        assert_eq!(stats.sent_by_class(Id(9), B), 1, "local delivery is one created message");
    }

    #[test]
    fn account_multicast_charges_each_tree_edge_once() {
        let mut ring = rjoin_dht::ChordNetwork::new(4);
        for i in 0..32 {
            ring.join(Id::hash_key(&format!("tree-{i}"))).unwrap();
        }
        ring.full_stabilize();
        let ids: Vec<Id> = ring.node_ids().collect();
        let origin = ids[0];
        let mut routes: Vec<(LookupResult, u64)> =
            ids[1..].iter().map(|owner| (ring.lookup(origin, *owner).unwrap(), 2)).collect();
        let mut edges = std::collections::BTreeSet::new();
        let mut unicast = 0;
        for (route, _) in &routes {
            let path = route.path();
            unicast += path.len() - 1;
            edges.extend((2..=path.len()).map(|end| path[..end].to_vec()));
        }
        let mut stats = TrafficStats::new();
        account_multicast(&mut stats, &mut routes, A);
        assert_eq!(stats.total_sent(), edges.len() as u64, "one message per trie edge");
        assert!(edges.len() < unicast, "routes from one origin share their first hops");

        let mut local = [(LookupResult::direct(origin, origin), 3)];
        account_multicast(&mut stats, &mut local, B);
        assert_eq!(stats.sent_by_class(origin, B), 3, "a local delivery is one message per item");
    }

    #[test]
    fn per_node_sent_reports_totals() {
        let mut stats = TrafficStats::new();
        stats.record_sent(Id(7), A);
        stats.record_sent(Id(7), B);
        let per_node = stats.per_node_sent();
        assert_eq!(per_node.get(&Id(7)), Some(&2));
    }
}
