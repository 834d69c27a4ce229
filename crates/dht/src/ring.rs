//! The Chord ring: membership, maintenance and lookups.
//!
//! # Routes depend on the key only through its owner
//!
//! Lookups are memoized per `(from, Successor(key))`, not per `(from, key)`.
//! A greedy Chord walk consults the key in two tests only — "is the key in
//! `(current, successor]`" and "does this finger lie in `(current, key)`" —
//! and both compare the key against *live node identifiers*. No live node
//! lies strictly between two keys of one owner (both sit in
//! `(Predecessor(owner), owner]`), so as long as every pointer a walk
//! consults is live, every such test gives the same answer for both keys
//! and the two walks are the same walk. That precondition is the stabilized
//! ring the engine drains on; whenever it may stop holding — membership
//! changes, stabilization steps, a walk that trips over a dead pointer and
//! repairs it — the memo is dropped wholesale. It holds at most one entry
//! per ordered pair of nodes.

use crate::key::RingBuildHasher;
use crate::{ChordNode, DhtError, Id, ID_BITS, SUCCESSOR_LIST_LEN};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Result of routing a lookup through the ring.
///
/// The visited path is shared behind an [`Arc`] with the route cache: a
/// memoized lookup hands out the cached walk without copying it, and the
/// accessors slice into the shared vector. `start` is non-zero for results
/// served from a cached suffix (the walk of a mid-path node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The node responsible for the key (`Successor(key)`).
    pub owner: Id,
    path: Arc<[Id]>,
    start: usize,
}

impl LookupResult {
    fn from_walk(path: Vec<Id>) -> Self {
        let owner = *path.last().expect("walked paths are non-empty");
        LookupResult { owner, path: path.into(), start: 0 }
    }

    /// A single-hop result: `from` resolved `owner` without walking the
    /// overlay. This is what a transport backed by a full membership view
    /// (every node knows every owner) reports — one hop, `path = [from,
    /// owner]` — and the degenerate self-lookup collapses to a zero-hop
    /// path.
    pub fn direct(from: Id, owner: Id) -> Self {
        if from == owner {
            LookupResult::from_walk(vec![owner])
        } else {
            LookupResult::from_walk(vec![from, owner])
        }
    }

    /// Every node the lookup visited, starting with the originating node
    /// and ending with the owner.
    pub fn path(&self) -> &[Id] {
        &self.path[self.start..]
    }

    /// Number of routing hops (`path().len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len() - 1 - self.start
    }
}

/// Initial capacity of a walk's path vector: Chord walks are `O(log N)`
/// hops, so a small up-front reservation makes per-hop pushes allocation
/// free for every realistic ring size (growth still handles the pathological
/// repair-heavy walks).
const PATH_CAPACITY: usize = 16;

/// A simulated Chord network.
///
/// All nodes live in one process, mirroring the paper's Java simulator. The
/// structure keeps the ground-truth ring membership in a sorted map (used
/// for ownership oracles and assertions) while each [`ChordNode`] keeps its
/// own — possibly stale — routing state (successor list, predecessor,
/// fingers) that is used for actual lookups and is repaired by periodic
/// stabilization, exactly as the Chord protocol prescribes.
#[derive(Debug, Clone)]
pub struct ChordNetwork {
    nodes: BTreeMap<Id, ChordNode>,
    /// The keys of `nodes` in ascending order: ownership is resolved by a
    /// binary search over it, every lookup's first step.
    ring: Vec<Id>,
    successor_list_len: usize,
    /// Upper bound on lookup path length before declaring the routing state
    /// broken.
    max_hops: usize,
    /// Memoized lookup routes, keyed `(from, owner of the key)` (the module
    /// docs say why the owner stands in for the key). On a stable ring the
    /// walk is a pure function of the routing state, and greedy routing is
    /// *memoryless* — each hop depends only on the current node and the
    /// key — so every proper suffix of a walked path is exactly the walk
    /// its first node would produce. One walk therefore seeds an entry for
    /// every node it visited (all sharing one `Arc`'d path), and later
    /// walks splice onto a cached tail the moment they touch any previously
    /// visited node. The cache is cleared whenever anything that can change
    /// a path changes: membership (join/leave/fail/move) and every
    /// stabilization or in-walk repair step.
    route_cache: RouteMemo,
}

/// Memoized lookup routes, keyed `(from, owner of the key)` (the module
/// docs say why the owner stands in for the key). Valid only while the
/// ring it was filled on is stable and unchanged: its owner drops it on
/// every change. [`ChordNetwork`] keeps one for [`lookup`](ChordNetwork::lookup);
/// callers that route over a shared `&ChordNetwork` keep their own for
/// [`lookup_memoized`](ChordNetwork::lookup_memoized).
#[derive(Debug, Clone, Default)]
pub struct RouteMemo(HashMap<(Id, Id), LookupResult, RingBuildHasher>);

impl RouteMemo {
    /// Drops every memoized route.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Number of memoized `(from, owner)` routes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no route is memoized.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn get(&self, from: Id, owner: Id) -> Option<&LookupResult> {
        self.0.get(&(from, owner))
    }

    /// Memoizes every proper suffix of a walked `result` under its first
    /// node: greedy routing is memoryless, so the tail starting at any
    /// visited node is exactly the walk that node would produce. The final
    /// element (the owner) is *not* a valid origin — a walk from the owner
    /// circles the ring rather than returning itself — except in the
    /// degenerate single-element path, which really was walked from that
    /// node. The entries share the result's own `Arc`'d path — no copies.
    fn seed(&mut self, result: &LookupResult) {
        let path = &result.path;
        for start in result.start..path.len().max(result.start + 2) - 1 {
            self.0.entry((path[start], result.owner)).or_insert_with(|| LookupResult {
                owner: result.owner,
                path: Arc::clone(path),
                start,
            });
        }
    }
}

impl ChordNetwork {
    /// Creates an empty network whose nodes maintain successor lists of
    /// `successor_list_len` entries (clamped to `1..=`[`SUCCESSOR_LIST_LEN`]).
    pub fn new(successor_list_len: usize) -> Self {
        ChordNetwork {
            nodes: BTreeMap::new(),
            ring: Vec::new(),
            successor_list_len: successor_list_len.clamp(1, SUCCESSOR_LIST_LEN),
            max_hops: 4 * ID_BITS as usize,
            route_cache: RouteMemo::default(),
        }
    }

    /// Removes a departed node from the sorted identifier list.
    fn forget_ring_member(&mut self, id: Id) {
        if let Ok(at) = self.ring.binary_search(&id) {
            self.ring.remove(at);
        }
    }

    /// Drops every memoized route. Called by every operation that can
    /// change a lookup path; cheap when the cache is already empty.
    fn invalidate_routes(&mut self) {
        self.route_cache.clear();
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `id` is a live node.
    pub fn contains(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Iterates over the live node identifiers in ring order.
    pub fn node_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.nodes.keys().copied()
    }

    /// Read access to a node's routing state.
    pub fn node(&self, id: Id) -> Option<&ChordNode> {
        self.nodes.get(&id)
    }

    /// Ground-truth owner of `key`: the first live node whose identifier is
    /// equal to or follows `key` clockwise.
    pub fn successor_of(&self, key: Id) -> Result<Id, DhtError> {
        let at = self.ring.partition_point(|id| *id < key);
        self.ring.get(at).or(self.ring.first()).copied().ok_or(DhtError::EmptyRing)
    }

    /// Ground-truth predecessor of `id` on the ring (the closest live node
    /// counter-clockwise, excluding `id` itself).
    pub fn predecessor_of(&self, id: Id) -> Result<Id, DhtError> {
        if self.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        Ok(self
            .nodes
            .range(..id)
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(i, _)| *i)
            .expect("non-empty ring"))
    }

    /// Adds a node to the ring.
    ///
    /// The join wires up the new node's successor list and its neighbours'
    /// immediate pointers (the effect of the join protocol's first
    /// stabilization exchange); finger tables start stale and are repaired
    /// by [`stabilize_round`](Self::stabilize_round) or
    /// [`full_stabilize`](Self::full_stabilize).
    pub fn join(&mut self, id: Id) -> Result<(), DhtError> {
        if self.nodes.contains_key(&id) {
            return Err(DhtError::NodeExists { id });
        }
        self.invalidate_routes();
        let mut node = ChordNode::new(id);
        if !self.nodes.is_empty() {
            let succ = self.successor_of(id)?;
            let pred = self.predecessor_of(id)?;
            node.set_successors(vec![succ]);
            node.set_predecessor(Some(pred));
            self.nodes.insert(id, node);
            // Immediate neighbours learn about the newcomer right away.
            if let Some(p) = self.nodes.get_mut(&pred) {
                let mut succs = vec![id];
                succs.extend(p.successor_list().iter().copied());
                p.set_successors(succs);
            }
            if let Some(s) = self.nodes.get_mut(&succ) {
                s.set_predecessor(Some(id));
            }
        } else {
            self.nodes.insert(id, node);
        }
        let at = self.ring.partition_point(|n| *n < id);
        self.ring.insert(at, id);
        Ok(())
    }

    /// Removes a node gracefully: its neighbours are informed and repair
    /// their pointers immediately.
    pub fn leave(&mut self, id: Id) -> Result<(), DhtError> {
        if !self.nodes.contains_key(&id) {
            return Err(DhtError::UnknownNode { id });
        }
        self.invalidate_routes();
        self.nodes.remove(&id);
        self.forget_ring_member(id);
        if self.nodes.is_empty() {
            return Ok(());
        }
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for nid in ids {
            if let Some(n) = self.nodes.get_mut(&nid) {
                n.forget(id);
            }
        }
        // Re-point the immediate neighbours at each other.
        let succ = self.successor_of(id)?;
        let pred = self.predecessor_of(id)?;
        if let Some(p) = self.nodes.get_mut(&pred) {
            let mut succs = vec![succ];
            succs.extend(p.successor_list().iter().copied());
            p.set_successors(succs);
        }
        if let Some(s) = self.nodes.get_mut(&succ) {
            s.set_predecessor(Some(pred));
        }
        Ok(())
    }

    /// Removes a node abruptly (a crash): other nodes keep stale pointers to
    /// it until they detect the failure during lookups or stabilization.
    pub fn fail(&mut self, id: Id) -> Result<(), DhtError> {
        if self.nodes.remove(&id).is_none() {
            return Err(DhtError::UnknownNode { id });
        }
        self.forget_ring_member(id);
        self.invalidate_routes();
        Ok(())
    }

    /// Runs one round of periodic maintenance on every node: `stabilize`
    /// (reconcile with the successor's predecessor pointer), successor-list
    /// refresh, failure detection, and one `fix_fingers` step.
    pub fn stabilize_round(&mut self) {
        self.invalidate_routes();
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for id in ids {
            self.stabilize_node(id);
            self.fix_one_finger(id);
        }
    }

    fn stabilize_node(&mut self, id: Id) {
        let Some(node) = self.nodes.get(&id) else { return };
        let mut successor = node.successor();

        // Drop dead successors until a live one is found.
        if !self.nodes.contains_key(&successor) && successor != id {
            let list: Vec<Id> = node.successor_list().to_vec();
            let next_live = list.iter().copied().find(|s| self.nodes.contains_key(s));
            let node = self.nodes.get_mut(&id).expect("node exists");
            node.forget(successor);
            successor = next_live.unwrap_or(id);
            node.set_successors(vec![successor]);
        }

        if successor == id {
            // Either a one-node ring or every known successor failed; fall
            // back to the ground-truth ring to model the node eventually
            // re-discovering a live peer via its other pointers.
            if self.nodes.len() > 1 {
                let true_succ = self
                    .nodes
                    .range((std::ops::Bound::Excluded(id), std::ops::Bound::Unbounded))
                    .next()
                    .or_else(|| self.nodes.iter().next())
                    .map(|(i, _)| *i)
                    .expect("non-empty");
                if true_succ != id {
                    successor = true_succ;
                    self.nodes.get_mut(&id).expect("node exists").set_successors(vec![successor]);
                }
            }
        }

        // stabilize(): ask the successor for its predecessor; adopt it if it
        // sits between us and the successor.
        if successor != id {
            let succ_pred = self.nodes.get(&successor).and_then(|s| s.predecessor());
            if let Some(x) = succ_pred {
                if self.nodes.contains_key(&x) && x.in_open_interval(id, successor) {
                    self.nodes.get_mut(&id).expect("node exists").set_successors(vec![x]);
                }
            }
            let successor = self.nodes.get(&id).expect("node exists").successor();
            // notify(): tell the successor about us.
            let adopt = match self.nodes.get(&successor).and_then(|s| s.predecessor()) {
                None => self.nodes.contains_key(&successor),
                Some(p) => !self.nodes.contains_key(&p) || id.in_open_interval(p, successor),
            };
            if adopt {
                if let Some(s) = self.nodes.get_mut(&successor) {
                    s.set_predecessor(Some(id));
                }
            }
            // Refresh the successor list from the successor's list.
            let succ_list: Vec<Id> =
                self.nodes.get(&successor).map(|s| s.successor_list().to_vec()).unwrap_or_default();
            let mut new_list = vec![successor];
            new_list.extend(succ_list.into_iter().filter(|s| *s != id));
            new_list.retain(|s| self.nodes.contains_key(s));
            new_list.truncate(self.successor_list_len);
            self.nodes.get_mut(&id).expect("node exists").set_successors(new_list);
        }

        // check_predecessor(): drop a dead predecessor.
        let pred = self.nodes.get(&id).and_then(|n| n.predecessor());
        if let Some(p) = pred {
            if !self.nodes.contains_key(&p) {
                self.nodes.get_mut(&id).expect("node exists").set_predecessor(None);
            }
        }
    }

    fn fix_one_finger(&mut self, id: Id) {
        let Some(node) = self.nodes.get_mut(&id) else { return };
        let k = node.take_next_finger();
        let start = id.finger_start(k);
        let target = match self.successor_of(start) {
            Ok(t) => t,
            Err(_) => return,
        };
        if let Some(node) = self.nodes.get_mut(&id) {
            node.fingers_mut().set(k as usize, Some(target));
        }
    }

    /// Brings every node's routing state to the fully stabilized fixpoint:
    /// correct successor lists, predecessors and finger tables. Equivalent
    /// to running enough stabilization rounds; used to set up experiments
    /// quickly.
    pub fn full_stabilize(&mut self) {
        self.invalidate_routes();
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for &id in &ids {
            let succ_list = self.truth_successor_list(id);
            let pred = self.predecessor_of(id).ok();
            let node = self.nodes.get_mut(&id).expect("node exists");
            node.set_successors(succ_list);
            node.set_predecessor(pred.filter(|p| *p != id));
        }
        for &id in &ids {
            for k in 0..ID_BITS {
                let start = id.finger_start(k);
                let target = self.successor_of(start).expect("non-empty ring");
                self.nodes
                    .get_mut(&id)
                    .expect("node exists")
                    .fingers_mut()
                    .set(k as usize, Some(target));
            }
        }
    }

    fn truth_successor_list(&self, id: Id) -> Vec<Id> {
        let mut list = Vec::with_capacity(self.successor_list_len);
        let mut current = id;
        for _ in 0..self.successor_list_len.min(self.nodes.len().saturating_sub(1)) {
            let next = self
                .nodes
                .range((std::ops::Bound::Excluded(current), std::ops::Bound::Unbounded))
                .next()
                .or_else(|| self.nodes.iter().next())
                .map(|(i, _)| *i)
                .expect("non-empty ring");
            if next == id {
                break;
            }
            list.push(next);
            current = next;
        }
        if list.is_empty() {
            list.push(id);
        }
        list
    }

    /// Routes a lookup for `key` starting at node `from`, following finger
    /// tables exactly as Chord's iterative lookup does, and repairing
    /// pointers to dead nodes it encounters along the way (modelling the
    /// timeout-and-retry behaviour of a real deployment).
    ///
    /// Returns the owner plus the full path taken, which the network layer
    /// uses to account routed messages per node.
    pub fn lookup(&mut self, from: Id, key: Id) -> Result<LookupResult, DhtError> {
        let Ok(owner) = self.successor_of(key) else {
            // An empty ring has no `from` either.
            return Err(DhtError::UnknownNode { id: from });
        };
        if let Some(hit) = self.route_cache.get(from, owner) {
            return Ok(hit.clone());
        }
        let mut repaired = false;
        let result = self.lookup_walk(from, key, owner, &mut repaired);
        if repaired {
            // The walk repaired routing pointers: every memoized path may
            // now be stale, including the one just computed (its early hops
            // predate the repair). Drop them all; subsequent walks re-fill.
            self.invalidate_routes();
        } else if let Ok(result) = &result {
            self.route_cache.seed(result);
        }
        result
    }

    /// The cold walk behind [`lookup`](Self::lookup). `memo_owner` is the
    /// ground-truth owner of `key`, the memo's key component.
    fn lookup_walk(
        &mut self,
        from: Id,
        key: Id,
        memo_owner: Id,
        repaired: &mut bool,
    ) -> Result<LookupResult, DhtError> {
        if !self.nodes.contains_key(&from) {
            return Err(DhtError::UnknownNode { id: from });
        }
        let mut path = Vec::with_capacity(PATH_CAPACITY);
        path.push(from);
        let mut current = from;
        for _ in 0..self.max_hops {
            let node = self.nodes.get(&current).expect("current node is live");
            let successor = node.successor();

            // Am I (or my successor) responsible for the key?
            if current == successor || key.in_open_closed_interval(current, successor) {
                let owner = if self.nodes.contains_key(&successor) {
                    successor
                } else {
                    // Successor died and has not been repaired yet: fall back
                    // to the ground truth after repairing the pointer.
                    *repaired = true;
                    self.nodes.get_mut(&current).expect("live").forget(successor);
                    self.successor_of(key)?
                };
                if owner != current {
                    path.push(owner);
                }
                return Ok(LookupResult::from_walk(path));
            }

            // Forward to the closest preceding live node.
            let mut next = None;
            loop {
                let candidate = self
                    .nodes
                    .get(&current)
                    .expect("current node is live")
                    .closest_preceding_node(key);
                match candidate {
                    Some(c) if self.nodes.contains_key(&c) => {
                        next = Some(c);
                        break;
                    }
                    Some(dead) => {
                        // Detected a failure: repair and retry.
                        *repaired = true;
                        self.nodes.get_mut(&current).expect("live").forget(dead);
                    }
                    None => break,
                }
            }
            let next = match next {
                Some(n) if n != current => n,
                _ => {
                    // No useful finger: fall back to the successor.
                    let succ = self.nodes.get(&current).expect("live").successor();
                    if succ == current || !self.nodes.contains_key(&succ) {
                        return Err(DhtError::LookupStuck { at: current, key });
                    }
                    succ
                }
            };
            path.push(next);
            current = next;
            // Splice onto a memoized tail: a cached entry for the node just
            // reached is exactly the remainder of this walk (routing is
            // memoryless), so the concatenation equals the full cold walk.
            // Skipped once a repair happened — the cache is stale then and
            // is about to be dropped wholesale.
            if !*repaired {
                if let Some(hit) = self.route_cache.get(current, memo_owner) {
                    path.extend_from_slice(&hit.path[hit.start + 1..]);
                    return Ok(LookupResult::from_walk(path));
                }
            }
        }
        Err(DhtError::LookupStuck { at: current, key })
    }

    /// Routes a lookup for `key` starting at node `from` **without mutating
    /// any routing state** — the shared-reference twin of
    /// [`lookup`](Self::lookup), for the simulated network's shards, which
    /// route concurrently over one ring from many worker threads.
    ///
    /// On a fully stabilized ring (no dead pointers) the walk, path and
    /// owner are identical to [`lookup`](Self::lookup) — this is the only
    /// regime the engine drains in, since membership changes re-stabilize
    /// the ring first. When a dead pointer *is* encountered, the walk skips
    /// it (modelling timeout-and-retry) but, unlike the `&mut` version,
    /// leaves the repair to the next stabilization round.
    pub fn lookup_stable(&self, from: Id, key: Id) -> Result<LookupResult, DhtError> {
        self.walk_stable(from, key, None)
    }

    /// The walk behind [`lookup_stable`](Self::lookup_stable), splicing onto
    /// a route of `splice` (a memo and the key's owner) the moment it
    /// reaches a node the memo has walked from (routing is memoryless, so
    /// the concatenation equals the full walk).
    fn walk_stable(
        &self,
        from: Id,
        key: Id,
        splice: Option<(&RouteMemo, Id)>,
    ) -> Result<LookupResult, DhtError> {
        if !self.nodes.contains_key(&from) {
            return Err(DhtError::UnknownNode { id: from });
        }
        let mut path = Vec::with_capacity(PATH_CAPACITY);
        path.push(from);
        let mut current = from;
        for _ in 0..self.max_hops {
            let node = self.nodes.get(&current).expect("current node is live");
            let successor = node.successor();

            if current == successor || key.in_open_closed_interval(current, successor) {
                let owner = if self.nodes.contains_key(&successor) {
                    successor
                } else {
                    // Successor died and has not been repaired yet: fall
                    // back to the ground truth (without repairing).
                    self.successor_of(key)?
                };
                if owner != current {
                    path.push(owner);
                }
                return Ok(LookupResult::from_walk(path));
            }

            // Forward to the closest preceding *live* node, skipping (but
            // not repairing) dead fingers.
            let next = node
                .closest_preceding_live_node(key, |c| self.nodes.contains_key(&c))
                .filter(|n| *n != current)
                .or_else(|| {
                    let succ = node.successor();
                    (succ != current && self.nodes.contains_key(&succ)).then_some(succ)
                });
            let Some(next) = next else {
                return Err(DhtError::LookupStuck { at: current, key });
            };
            path.push(next);
            current = next;
            if let Some(hit) = splice.and_then(|(memo, owner)| memo.get(current, owner)) {
                path.extend_from_slice(&hit.path()[1..]);
                return Ok(LookupResult::from_walk(path));
            }
        }
        Err(DhtError::LookupStuck { at: current, key })
    }

    /// [`lookup_stable`](Self::lookup_stable) through a caller-owned
    /// [`RouteMemo`]: a route already walked from `from` to the key's owner
    /// is handed out without walking, and a fresh walk seeds the memo with
    /// every suffix of its path. The caller drops the memo whenever the
    /// ring changes (membership, stabilization), exactly as
    /// [`lookup`](Self::lookup) drops its own.
    pub fn lookup_memoized(
        &self,
        from: Id,
        key: Id,
        memo: &mut RouteMemo,
    ) -> Result<LookupResult, DhtError> {
        let Ok(owner) = self.successor_of(key) else {
            return Err(DhtError::UnknownNode { id: from });
        };
        if let Some(hit) = memo.get(from, owner) {
            return Ok(hit.clone());
        }
        let result = self.walk_stable(from, key, Some((memo, owner)))?;
        memo.seed(&result);
        Ok(result)
    }

    /// Moves a node from `old_id` to `new_id` on the ring (identifier
    /// movement, the load-balancing primitive of Karger & Ruhl used in the
    /// paper's Figure 9 experiment). The node leaves gracefully and re-joins
    /// at its new position.
    pub fn move_node(&mut self, old_id: Id, new_id: Id) -> Result<(), DhtError> {
        if !self.nodes.contains_key(&old_id) {
            return Err(DhtError::UnknownNode { id: old_id });
        }
        if self.nodes.contains_key(&new_id) {
            return Err(DhtError::NodeExists { id: new_id });
        }
        self.leave(old_id)?;
        self.join(new_id)?;
        Ok(())
    }

    /// Average lookup path length measured over `samples` random keys
    /// starting from the first node (diagnostic helper used in tests and
    /// benches).
    pub fn average_lookup_hops(&mut self, samples: u64) -> f64 {
        let Some(from) = self.nodes.keys().next().copied() else { return 0.0 };
        let mut total = 0usize;
        for i in 0..samples {
            let key = Id::hash_key(&format!("sample-key-{i}"));
            if let Ok(res) = self.lookup(from, key) {
                total += res.hops();
            }
        }
        total as f64 / samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> (ChordNetwork, Vec<Id>) {
        let mut net = ChordNetwork::new(4);
        let ids: Vec<Id> = (0..n).map(|i| Id::hash_key(&format!("node-{i}"))).collect();
        for id in &ids {
            net.join(*id).unwrap();
        }
        net.full_stabilize();
        (net, ids)
    }

    #[test]
    fn successor_of_matches_sorted_order() {
        let (net, _) = build(16);
        let sorted: Vec<Id> = net.node_ids().collect();
        // A key equal to a node id is owned by that node.
        assert_eq!(net.successor_of(sorted[3]).unwrap(), sorted[3]);
        // A key just after a node is owned by the next node.
        assert_eq!(net.successor_of(Id(sorted[3].0 + 1)).unwrap(), sorted[4]);
        // Wrap-around: a key after the last node is owned by the first.
        assert_eq!(net.successor_of(Id(sorted.last().unwrap().0 + 1)).unwrap(), sorted[0]);
    }

    #[test]
    fn successor_of_tracks_membership() {
        let (mut net, ids) = build(16);
        net.leave(ids[2]).unwrap();
        net.fail(ids[5]).unwrap();
        net.move_node(ids[7], Id::hash_key("moved")).unwrap();
        let late = Id::hash_key("late");
        net.join(late).unwrap();
        let next = net.successor_of(Id(late.0.wrapping_add(1))).unwrap();
        assert_ne!(next, late);
        assert_eq!(net.node(late).unwrap().successor(), next, "a joiner points past itself");
        let members: Vec<Id> = net.node_ids().collect();
        for i in 0..64 {
            let key = Id::hash_key(&format!("owner-{i}"));
            let expected = members.iter().copied().find(|id| *id >= key).unwrap_or(members[0]);
            assert_eq!(net.successor_of(key).unwrap(), expected);
        }
        for id in net.node_ids().collect::<Vec<_>>() {
            net.leave(id).unwrap();
        }
        assert_eq!(net.successor_of(Id(1)), Err(DhtError::EmptyRing));
    }

    #[test]
    fn lookup_finds_correct_owner_from_every_node() {
        let (mut net, ids) = build(32);
        for i in 0..50 {
            let key = Id::hash_key(&format!("key-{i}"));
            let expected = net.successor_of(key).unwrap();
            for &from in ids.iter().step_by(7) {
                let result = net.lookup(from, key).unwrap();
                assert_eq!(result.owner, expected);
                assert_eq!(result.path().first(), Some(&from));
                assert_eq!(result.path().last(), Some(&expected));
                assert_eq!(result.hops(), result.path().len() - 1);
            }
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let (mut net, _) = build(256);
        let avg = net.average_lookup_hops(200);
        // log2(256) = 8; allow a generous margin but rule out linear scans.
        assert!(avg <= 16.0, "average hops {avg} too high");
        assert!(avg >= 1.0, "average hops {avg} suspiciously low");
    }

    /// The route cache is a memo: dropping it never changes a path.
    #[test]
    fn lookups_are_identical_before_and_after_a_cache_clear() {
        let (mut net, ids) = build(64);
        let keys: Vec<Id> = (0..40).map(|i| Id::hash_key(&format!("memo-{i}"))).collect();
        let walk = |net: &mut ChordNetwork| -> Vec<Vec<Id>> {
            keys.iter()
                .flat_map(|key| ids.iter().step_by(5).map(move |from| (*from, *key)))
                .map(|(from, key)| net.lookup(from, key).unwrap().path().to_vec())
                .collect()
        };
        let cold = walk(&mut net);
        assert!(!net.route_cache.is_empty(), "walks on a stable ring are memoized");
        assert!(net.route_cache.len() <= 64 * 64, "one entry per ordered pair of nodes at most");
        let warm = walk(&mut net);
        assert_eq!(warm, cold, "memoized routes equal the walks that seeded them");
        net.invalidate_routes();
        assert!(net.route_cache.is_empty());
        assert_eq!(walk(&mut net), cold, "a cleared cache re-walks to identical paths");

        let mut memo = RouteMemo::default();
        let mut memoized = |net: &ChordNetwork| -> Vec<Vec<Id>> {
            keys.iter()
                .flat_map(|key| ids.iter().step_by(5).map(move |from| (*from, *key)))
                .map(|(from, key)| {
                    net.lookup_memoized(from, key, &mut memo).unwrap().path().to_vec()
                })
                .collect()
        };
        assert_eq!(memoized(&net), cold, "a caller-owned memo fills with the same walks");
        assert_eq!(memoized(&net), cold, "and hands them out unchanged");
    }

    #[test]
    fn join_duplicate_is_rejected() {
        let (mut net, ids) = build(4);
        assert!(matches!(net.join(ids[0]), Err(DhtError::NodeExists { .. })));
    }

    #[test]
    fn leave_rewires_neighbours() {
        let (mut net, _) = build(16);
        let sorted: Vec<Id> = net.node_ids().collect();
        let victim = sorted[5];
        net.leave(victim).unwrap();
        assert!(!net.contains(victim));
        // The predecessor's successor skips the departed node.
        assert_eq!(net.node(sorted[4]).unwrap().successor(), sorted[6]);
        // Keys previously owned by the victim now belong to its successor.
        assert_eq!(net.successor_of(victim).unwrap(), sorted[6]);
    }

    #[test]
    fn lookups_survive_failures_after_stabilization() {
        let (mut net, ids) = build(64);
        // Crash 8 nodes without warning.
        for id in ids.iter().skip(3).step_by(8).take(8).copied().collect::<Vec<_>>() {
            net.fail(id).unwrap();
        }
        // A few stabilization rounds repair the ring.
        for _ in 0..(ID_BITS as usize) {
            net.stabilize_round();
        }
        for i in 0..30 {
            let key = Id::hash_key(&format!("post-failure-{i}"));
            let from = net.node_ids().next().unwrap();
            let result = net.lookup(from, key).unwrap();
            assert_eq!(result.owner, net.successor_of(key).unwrap());
        }
    }

    #[test]
    fn lookups_survive_failures_even_before_stabilization() {
        let (mut net, ids) = build(64);
        for id in ids.iter().take(4).copied().collect::<Vec<_>>() {
            net.fail(id).unwrap();
        }
        let from = net.node_ids().next().unwrap();
        for i in 0..20 {
            let key = Id::hash_key(&format!("eager-{i}"));
            let result = net.lookup(from, key).unwrap();
            assert_eq!(result.owner, net.successor_of(key).unwrap());
        }
    }

    #[test]
    fn stabilize_rounds_converge_to_full_stabilize() {
        let mut net = ChordNetwork::new(4);
        let ids: Vec<Id> = (0..32).map(|i| Id::hash_key(&format!("conv-{i}"))).collect();
        for id in &ids {
            net.join(*id).unwrap();
        }
        // Without full_stabilize, run plenty of protocol rounds.
        for _ in 0..(2 * ID_BITS as usize) {
            net.stabilize_round();
        }
        let mut reference = net.clone();
        reference.full_stabilize();
        for &id in &ids {
            assert_eq!(
                net.node(id).unwrap().successor(),
                reference.node(id).unwrap().successor(),
                "successor of {id} not converged"
            );
        }
        // Lookups are correct too.
        for i in 0..20 {
            let key = Id::hash_key(&format!("conv-key-{i}"));
            assert_eq!(net.lookup(ids[0], key).unwrap().owner, net.successor_of(key).unwrap());
        }
    }

    #[test]
    fn move_node_changes_ownership() {
        let (mut net, _) = build(8);
        let sorted: Vec<Id> = net.node_ids().collect();
        // Move node sorted[0] to just before sorted[4] so it takes over part
        // of sorted[4]'s arc.
        let new_id = Id(sorted[4].0 - 1);
        net.move_node(sorted[0], new_id).unwrap();
        net.full_stabilize();
        assert!(!net.contains(sorted[0]));
        assert!(net.contains(new_id));
        assert_eq!(net.successor_of(new_id).unwrap(), new_id);
        // Keys formerly owned by sorted[0] fall to its old successor now.
        assert_eq!(net.successor_of(sorted[0]).unwrap(), sorted[1]);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let mut net = ChordNetwork::new(4);
        let id = Id::hash_key("only");
        net.join(id).unwrap();
        net.full_stabilize();
        assert_eq!(net.successor_of(Id(0)).unwrap(), id);
        let res = net.lookup(id, Id(12345)).unwrap();
        assert_eq!(res.owner, id);
        assert_eq!(res.hops(), 0);
    }

    #[test]
    fn empty_ring_errors() {
        let net = ChordNetwork::new(4);
        assert!(matches!(net.successor_of(Id(1)), Err(DhtError::EmptyRing)));
        assert!(net.is_empty());
    }

    #[test]
    fn lookup_from_unknown_node_errors() {
        let (mut net, _) = build(4);
        let foreign = Id::hash_key("not-a-member");
        assert!(matches!(net.lookup(foreign, Id(0)), Err(DhtError::UnknownNode { .. })));
    }
}
