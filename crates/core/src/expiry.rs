//! Expiry: each node's windowed state, filed under the publication time
//! from which its removal is unobservable, and popped from one binary heap
//! of deadlines.
//!
//! # Expiry on publication time
//!
//! Section 5 deletes a rewritten query whose window a tuple exceeds. Here
//! the node's [`DeadlineHeap`] carries that rule out: every windowed stored
//! query, cell tuple and ALTT entry is filed under a deadline in
//! *publication* time (cells and ALTT buckets through one token for their
//! front, as they evict from the front only), and the heap is advanced to
//! the node's **publication watermark** — the highest publication time
//! among the tuples this node received in an earlier delivery tick
//! ([`NodeState::expire_for_delivery`]). Tuples enter the network in
//! publication order and every message takes the same delay, so a tuple
//! delivered in a later tick was published no earlier than the watermark:
//! a deadline the watermark has passed can no longer be met, whichever
//! clock the driver runs. Deliveries of the *same* tick are excluded,
//! because their handling order (the rounds' lineage order) need not be
//! publication order.
//!
//! An advance pops exactly the due deadlines, however much live or dead
//! state is stored elsewhere, and removals never search the heap: a stored
//! query's token whose generational-slab ([`crate::slab`]) handle no longer
//! matches is skipped, and a token for the front of a ring that has since
//! been drained finds nothing to evict.
//!
//! # Determinism
//!
//! [`DeadlineHeap::advance`] pops due tokens in the heap's order,
//! `(deadline, token)`, including tokens filed after the heap had already
//! passed their deadline. Pop order is therefore a pure function of the
//! heap's content and time — identical for any shard or worker count.

use crate::cell::Cell;
use crate::node_state::{NodeState, StoredQuery};
use crate::slab::Handle;
use crate::trigger_index::Bucket;
use rjoin_net::SimTime;
use rjoin_query::WindowSpec;
use rjoin_relation::Timestamp;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A min-heap of `(deadline, token)` pairs and the heap's time: the
/// highest target it has been advanced to.
#[derive(Debug, Clone)]
pub(crate) struct DeadlineHeap<T> {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, T)>>,
}

impl<T: Ord> Default for DeadlineHeap<T> {
    fn default() -> Self {
        DeadlineHeap { now: 0, heap: BinaryHeap::new() }
    }
}

impl<T: Copy + Ord> DeadlineHeap<T> {
    /// The heap's time: the highest target of any [`advance`].
    ///
    /// [`advance`]: DeadlineHeap::advance
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled entries (including stale ones not yet popped).
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are scheduled.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `token` to pop at the first advance whose target is
    /// `>= deadline`. Deadlines at or before the current time pop on the
    /// very next advance, whatever its target.
    pub(crate) fn insert(&mut self, deadline: u64, token: T) {
        self.heap.push(Reverse((deadline, token)));
    }

    /// Moves the heap's time to `target` (targets at or before it leave it
    /// unchanged) and appends every token whose deadline is at or before
    /// that time to `due`, in `(deadline, token)` order.
    pub(crate) fn advance(&mut self, target: u64, due: &mut Vec<T>) {
        self.now = self.now.max(target);
        while let Some(top) = self.heap.peek_mut() {
            if top.0 .0 > self.now {
                break;
            }
            due.push(PeekMut::pop(top).0 .1);
        }
    }
}

/// How far (in publication time) the per-delivery heap advance may lag
/// behind the node's publication watermark (see
/// [`NodeState::expire_for_delivery`]): one advance per stride instead of
/// one per delivery, for a little extra retained state.
///
/// The lag is also a lateness tolerance. For tuples that keep
/// [`publish_tuple`](crate::RJoinEngine::publish_tuple)'s publication
/// contract, removal timing decides no answer. A *late* tuple, published
/// after a later-timed one, still meets the windowed state whose deadline
/// lies past the heap's time, and the stride keeps that time up to
/// `EXPIRY_STRIDE - 1` behind the watermark. The property
/// `cell_join::any_interleaving_and_registration_point_gives_the_reference_bag`
/// relies on it: it delivers one publication unit of up to 16 ticks out of
/// order, and with the heap advanced at every watermark move it loses
/// answers.
const EXPIRY_STRIDE: Timestamp = 32;

/// A deadline token on the node's [`DeadlineHeap`]. Query tokens carry slab
/// handles, so a popped token whose entry was already removed (churn
/// migration) fails the generation check and is skipped for free; the
/// other two name a ring whose front is due, and find nothing once the
/// ring has been drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ExpiryToken {
    /// A windowed stored query; pops once the publication watermark has
    /// passed its window, which is Section 5's window-exceeded deletion.
    Query(Handle),
    /// The front entry of the ALTT bucket on this ring; pops once the
    /// watermark passes its retention Δ, and reclaims every front entry
    /// that is due. One token per bucket front, armed as for cells.
    Altt(u64),
    /// The front tuple of the hypercube cell on this ring; pops when no
    /// future publication can share a window with it. Cells evict from the
    /// front only, so a cell has one token at a time: scheduled when a tuple
    /// becomes the front (pushed into an empty cell, or left in front by an
    /// eviction), and a pop reclaims every front tuple that is due (see
    /// [`Cell::evict_due`]).
    Cell(u64),
}

/// The expiry deadline of an entry whose window is anchored at `start`: the
/// first publication time the window does not admit, so once the node's
/// publication watermark reaches it no tuple still to be delivered can
/// combine with the entry. A stored query's window is anchored at its
/// `window_start`, a hypercube cell tuple's at its own publication time.
/// `None` for unwindowed entries (they never expire).
pub(crate) fn window_deadline(window: &WindowSpec, start: Timestamp) -> Option<Timestamp> {
    let last_pub = match window {
        WindowSpec::None => return None,
        // `within(start, p)` holds for p up to start + duration - 1.
        WindowSpec::Sliding { duration, .. } => start.saturating_add(duration.saturating_sub(1)),
        // A tumbling window admits exactly `start`'s bucket: publications up
        // to the bucket's last tick. Zero-length windows admit nothing; any
        // deadline at or before `start` retires the dead entry promptly.
        WindowSpec::Tumbling { duration: 0, .. } => start,
        WindowSpec::Tumbling { duration, .. } => {
            (start / duration + 1).saturating_mul(*duration).saturating_sub(1)
        }
    };
    Some(last_pub.saturating_add(1))
}

/// The expiry deadline of a stored query, if it can expire at all.
pub(crate) fn query_expiry_deadline(stored: &StoredQuery) -> Option<Timestamp> {
    window_deadline(stored.pending.query.window(), stored.pending.window_start()?)
}

impl NodeState {
    /// Expires state ahead of one delivery at tick `at`: when `at` starts a
    /// new tick, the tuples of the earlier ticks become the publication
    /// watermark, and the deadline heap advances to it (stride-batched, see
    /// [`EXPIRY_STRIDE`]). `tuple_pub` is the publication time of the
    /// delivered tuple, if the delivery is one; it only counts from the next
    /// tick on, so a later-published tuple handled first within a tick
    /// cannot retire state an earlier-published one of the same tick still
    /// matches.
    pub(crate) fn expire_for_delivery(&mut self, at: SimTime, tuple_pub: Option<Timestamp>) {
        if at > self.watermark_tick {
            self.watermark_tick = at;
            self.pub_watermark = self.latest_pub;
        }
        if self.pub_watermark.saturating_sub(self.deadlines.now()) >= EXPIRY_STRIDE {
            self.advance_expiry(self.pub_watermark);
        }
        if let Some(pub_time) = tuple_pub {
            self.latest_pub = self.latest_pub.max(pub_time);
        }
    }

    /// Advances the node's deadline heap to the publication time `target`
    /// and removes every stored query, cell tuple and ALTT entry whose
    /// deadline the heap's time reached, including those filed after the
    /// heap had passed them (a target that does not move the heap still
    /// pops these). Called per delivery with the node's publication
    /// watermark ([`expire_for_delivery`](Self::expire_for_delivery)) and,
    /// at quiescence, with the engine's.
    ///
    /// The target must never exceed the publication time of a tuple still
    /// to be delivered here: the deadlines guarantee unobservability only
    /// for tuples published at or after them.
    pub(crate) fn advance_expiry(&mut self, target: Timestamp) {
        let mut due = std::mem::take(&mut self.expiry_scratch);
        self.deadlines.advance(target, &mut due);
        let now = self.deadlines.now();
        for token in due.drain(..) {
            let evicted = match token {
                ExpiryToken::Query(handle) => self.pop_expired_query(handle),
                ExpiryToken::Altt(ring) => self.evict_altt_front(ring, now),
                ExpiryToken::Cell(ring) => self.evict_cell_front(ring, now),
            };
            self.state_counters.wheel_pops += evicted as u64;
        }
        self.expiry_scratch = due;
    }

    /// Applies one popped query deadline and returns how many entries it
    /// removed. A stale token (entry already removed by churn migration)
    /// fails the slab's generation check and costs nothing further.
    fn pop_expired_query(&mut self, handle: Handle) -> usize {
        let Some(expired) = self.queries.remove(handle) else { return 0 };
        let ring = expired.key.ring();
        if let Some(bucket) = self.stored_queries.get_mut(&ring) {
            self.trigger_index.remove(bucket, handle, &expired, &mut self.queries);
            if bucket.is_empty() {
                self.stored_queries.remove(&ring);
            }
        }
        self.unregister_query(ring, &expired, handle);
        1
    }

    /// Evicts the due front entries of the ALTT bucket on `ring` — those
    /// whose retention deadline lies before `now` — and, when the front
    /// moved, arms a deadline for the new one. Returns how many entries were
    /// evicted.
    fn evict_altt_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(bucket) = self.altt.get_mut(&ring) else { return 0 };
        let due = bucket.partition_point(|&(_, expires_at)| expires_at < now);
        bucket.drain(..due);
        match bucket.front().map(|&(_, expires_at)| expires_at) {
            None => {
                self.altt.remove(&ring);
            }
            Some(next) if due > 0 => {
                self.deadlines.insert(next.saturating_add(1), ExpiryToken::Altt(ring))
            }
            Some(_) => {}
        }
        self.altt_count -= due;
        due
    }

    /// Evicts the due front tuples of the cell on `ring` (a popped token
    /// whose cell was drained by churn finds nothing) and, when the front
    /// moved, arms a deadline for the new one: a token per cell front, not
    /// per stored tuple. Returns how many tuples were evicted.
    fn evict_cell_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(cell) = self.cells.get_mut(&ring) else { return 0 };
        let evicted = cell.evict_due(now);
        let next = cell.front_deadline().filter(|&deadline| deadline != SimTime::MAX);
        if let (true, Some(deadline)) = (evicted > 0, next) {
            self.deadlines.insert(deadline, ExpiryToken::Cell(ring));
        }
        self.tuple_count -= evicted;
        evicted
    }

    /// Number of live windowed entries — stored queries, cell tuples and
    /// ALTT entries — whose expiry deadline the publication time `watermark`
    /// has reached (diagnostic). Zero on every node after the engine's
    /// quiescent flush to its publication watermark: the heap leaves no
    /// expired entry behind.
    pub fn overdue_entries(&self, watermark: Timestamp) -> usize {
        let overdue = |deadline: Option<Timestamp>| deadline.is_some_and(|d| d <= watermark);
        let queries = self
            .stored_queries
            .values()
            .flat_map(Bucket::handles)
            .filter_map(|h| self.queries.get(h))
            .filter(|stored| overdue(query_expiry_deadline(stored)))
            .count();
        let in_cells =
            self.cells.values().flat_map(Cell::deadlines).filter(|&d| d <= watermark).count();
        let retained =
            self.altt.values().flatten().filter(|&&(_, expires_at)| expires_at < watermark).count();
        queries + in_cells + retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(heap: &mut DeadlineHeap<u32>, target: u64) -> Vec<u32> {
        let mut due = Vec::new();
        heap.advance(target, &mut due);
        due
    }

    #[test]
    fn pops_at_exact_deadline() {
        let mut heap = DeadlineHeap::default();
        heap.insert(5, 1);
        assert_eq!(drain(&mut heap, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut heap, 5), vec![1]);
        assert!(heap.is_empty());
    }

    #[test]
    fn past_deadlines_pop_on_next_advance() {
        let mut heap = DeadlineHeap::default();
        heap.advance(100, &mut Vec::new());
        heap.insert(7, 1); // long dead
        heap.insert(100, 2); // dead exactly now
        assert_eq!(drain(&mut heap, 101), vec![1, 2]);
        // A target behind the heap's time still pops what is past due.
        heap.insert(50, 3);
        assert_eq!(drain(&mut heap, 20), vec![3]);
        assert_eq!(heap.now(), 101);
    }

    #[test]
    fn pop_order_is_deadline_then_token() {
        let mut heap = DeadlineHeap::default();
        heap.insert(10, 9);
        heap.insert(3, 5);
        heap.insert(10, 2);
        heap.insert(3, 8);
        assert_eq!(drain(&mut heap, 20), vec![5, 8, 2, 9]);
    }

    #[test]
    fn order_is_independent_of_advance_granularity() {
        // One big jump vs. tick-by-tick must pop the same sequence.
        let deadlines: Vec<(u64, u32)> = (0..200).map(|i| ((i * 37) % 150 + 1, i as u32)).collect();
        let mut big = DeadlineHeap::default();
        let mut small = DeadlineHeap::default();
        for &(d, t) in &deadlines {
            big.insert(d, t);
            small.insert(d, t);
        }
        let coarse = drain(&mut big, 160);
        let mut fine = Vec::new();
        for target in 1..=160 {
            small.advance(target, &mut fine);
        }
        assert_eq!(coarse, fine);
        assert!(big.is_empty() && small.is_empty());
    }

    #[test]
    fn long_delays_cascade_through_levels() {
        let mut heap = DeadlineHeap::default();
        // Deadlines from one tick to far beyond any window span: each pops
        // at its exact time, not a tick earlier.
        let deadlines = [63u64, 64, 4095, 4096, 262_143, 262_144, 20_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            heap.insert(d, i as u32);
        }
        assert_eq!(heap.len(), deadlines.len());
        for (i, &d) in deadlines.iter().enumerate() {
            assert_eq!(
                drain(&mut heap, d.saturating_sub(1)),
                Vec::<u32>::new(),
                "early pop of {d}"
            );
            assert_eq!(drain(&mut heap, d), vec![i as u32], "deadline {d}");
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn incremental_advance_matches_scheduling_across_bucket_boundaries() {
        // Insert while advancing, with deadlines spread ahead of a moving
        // `now`.
        let mut heap = DeadlineHeap::default();
        let mut due = Vec::new();
        let mut expected = Vec::new();
        for step in 0..500u64 {
            let deadline = step + 1 + (step * 13) % 300;
            heap.insert(deadline, step as u32);
            expected.push((deadline, step as u32));
            heap.advance(step + 1, &mut due);
        }
        heap.advance(2000, &mut due);
        expected.sort_unstable();
        let expected: Vec<u32> = expected.into_iter().map(|(_, t)| t).collect();
        assert_eq!(due, expected);
    }
}
