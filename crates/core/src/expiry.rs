//! Expiry: a hierarchical timer wheel (O(active) deadline expiry), and
//! each node's windowed state filed and popped on it.
//!
//! # Why a wheel
//!
//! Window and ALTT expiry used to be *contact-driven*: an entry was only
//! discovered to be dead when some later arrival walked the bucket it sat
//! in. That makes expiry cost proportional to **stored** state — every walk
//! visits every entry, live or dead, and entries in buckets that never see
//! another arrival are never reclaimed at all. Over a long horizon almost
//! all state is dead state, and the engine pays for it on every trigger.
//!
//! The wheel inverts the direction: every deadline-bearing entry is indexed
//! by *when it dies*, and advancing the wheel's time (for a node's wheel:
//! its publication watermark, see below) pops exactly the
//! entries whose deadline passed — O(pops + slots crossed), independent of how much
//! live or dead state exists elsewhere. Cancellation is free: a stored
//! query's token whose generational-slab ([`crate::slab`]) handle no longer
//! matches is simply skipped, and a token for the front of a ring that has
//! since been drained finds nothing to evict, so removals never search the
//! wheel.
//!
//! # Expiry on publication time
//!
//! Section 5 deletes a rewritten query whose window a tuple exceeds. Here
//! the timer wheel carries that rule out: every windowed stored query,
//! cell tuple and ALTT entry is filed under a deadline in *publication*
//! time (cells and ALTT buckets through one token for their front, as
//! they evict from the front only), and the wheel is advanced to the
//! node's **publication watermark** — the highest publication time among
//! the tuples this node received in an earlier delivery tick
//! ([`NodeState::expire_for_delivery`]). Tuples enter the network in
//! publication order and every message takes the same delay, so a tuple
//! delivered in a later tick was published no earlier than the watermark:
//! a deadline the watermark has passed can no longer be met, whichever
//! clock the driver runs. Deliveries of the *same* tick are excluded,
//! because their handling order (the rounds' lineage order) need not be
//! publication order.
//!
//! # Shape
//!
//! [`LEVELS`] levels of [`SLOTS`] slots each; level `l` buckets deadlines
//! by `time >> (6·l)`, so level 0 is tick-exact and each higher level is
//! 64× coarser. An entry is placed at the finest level whose horizon
//! covers its delay; when the clock crosses its coarse bucket the entry
//! cascades down to a finer level until it pops at its exact tick.
//! Deadlines beyond the wheel horizon (64⁴ ticks) sit in an overflow list
//! scanned only while non-empty — unreachable for real window/ALTT spans.
//!
//! # Determinism
//!
//! [`TimerWheel::advance`] returns due tokens sorted by `(deadline,
//! token)`. Pop order is therefore a pure function of wheel content and
//! target time — identical for any shard or worker count.

use crate::cell::Cell;
use crate::node_state::{NodeState, StoredQuery};
use crate::slab::{Handle, Slab};
use rjoin_net::SimTime;
use rjoin_query::WindowSpec;
use rjoin_relation::Timestamp;

const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; the wheel horizon is `SLOTS^LEVELS` ticks.
pub const LEVELS: usize = 4;

/// A hierarchical timer wheel over opaque, orderable tokens.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    now: u64,
    /// `LEVELS × SLOTS` slots, flattened.
    slots: Vec<Vec<(u64, T)>>,
    /// Deadlines beyond the wheel horizon (scanned lazily on advance).
    overflow: Vec<(u64, T)>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            now: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy + Ord> TimerWheel<T> {
    /// The wheel's current time (the target of the last [`advance`]).
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled entries (including stale ones not yet popped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `token` to pop at the first advance whose target is
    /// `>= deadline`. Deadlines at or before the current time pop on the
    /// very next advance.
    pub fn insert(&mut self, deadline: u64, token: T) {
        self.len += 1;
        // Past-due deadlines are parked one tick out; `advance` compares
        // against the *stored* deadline, so they still pop immediately.
        let delta = deadline.saturating_sub(self.now).max(1);
        let effective = self.now + delta;
        let Some(level) = (0..LEVELS).find(|l| (delta >> (SLOT_BITS * (*l as u32 + 1))) == 0)
        else {
            self.overflow.push((deadline, token));
            return;
        };
        let bucket = effective >> (SLOT_BITS * level as u32);
        let slot = level * SLOTS + (bucket as usize & (SLOTS - 1));
        self.slots[slot].push((deadline, token));
    }

    /// Advances the wheel to `target`, appending every token whose deadline
    /// is `<= target` to `due` in `(deadline, token)` order. Targets at or
    /// before the current time are no-ops.
    pub fn advance(&mut self, target: u64, due: &mut Vec<T>) {
        if target <= self.now {
            return;
        }
        let mut crossed: Vec<(u64, T)> = Vec::new();
        for level in 0..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let start = self.now >> shift;
            let end = target >> shift;
            if start == end {
                // Coarser levels share the bucket too — nothing crossed.
                break;
            }
            if end - start >= SLOTS as u64 {
                // Full revolution: every slot at this level is crossed.
                for slot in 0..SLOTS {
                    crossed.append(&mut self.slots[level * SLOTS + slot]);
                }
            } else {
                for bucket in (start + 1)..=end {
                    let slot = level * SLOTS + (bucket as usize & (SLOTS - 1));
                    crossed.append(&mut self.slots[slot]);
                }
            }
        }
        self.len -= crossed.len();
        self.now = target;
        let mut popped: Vec<(u64, T)> = Vec::new();
        for (deadline, token) in crossed {
            if deadline <= target {
                popped.push((deadline, token));
            } else {
                // Not due yet: cascade down to a finer level.
                self.insert(deadline, token);
            }
        }
        if !self.overflow.is_empty() {
            let far = std::mem::take(&mut self.overflow);
            self.len -= far.len();
            for (deadline, token) in far {
                if deadline <= target {
                    popped.push((deadline, token));
                } else {
                    // Re-files into the wheel proper once within horizon.
                    self.insert(deadline, token);
                }
            }
        }
        popped.sort_unstable();
        due.extend(popped.into_iter().map(|(_, token)| token));
    }
}

/// How far (in publication time) the per-delivery wheel advance may lag
/// behind the node's publication watermark (see
/// [`NodeState::expire_for_delivery`]). Physical removal timing never
/// decides an answer, so the stride only trades a little extra retained
/// state for one slot crossing per stride instead of one per delivery.
const EXPIRY_STRIDE: Timestamp = 32;

/// A deadline token on the node's timer wheel. Query tokens carry slab
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

/// The wheel deadline of an entry whose window is anchored at `start`: the
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

/// The wheel deadline of a stored query, if it can expire at all.
pub(crate) fn query_expiry_deadline(stored: &StoredQuery) -> Option<Timestamp> {
    window_deadline(stored.pending.query.window(), stored.pending.window_start?)
}

/// Unlinks `handle` from its ring bucket in O(1): `expected_pos` is the
/// entry's maintained [`StoredQuery::bucket_pos`], verified before use (a
/// positional scan remains as a defensive fallback for externally mutated
/// buckets). The entry `swap_remove` moves into the freed slot gets its
/// `bucket_pos` fixed up, preserving the invariant for later unlinks.
fn unlink_from_bucket(
    bucket: &mut Vec<Handle>,
    queries: &mut Slab<StoredQuery>,
    handle: Handle,
    expected_pos: usize,
) {
    let pos = match bucket.get(expected_pos) {
        Some(h) if *h == handle => Some(expected_pos),
        _ => bucket.iter().position(|h| *h == handle),
    };
    let Some(pos) = pos else { return };
    bucket.swap_remove(pos);
    if let Some(&moved) = bucket.get(pos) {
        if let Some(entry) = queries.get_mut(moved) {
            entry.bucket_pos = pos;
        }
    }
}

impl NodeState {
    /// Expires state ahead of one delivery at tick `at`: when `at` starts a
    /// new tick, the tuples of the earlier ticks become the publication
    /// watermark, and the wheel advances to it (stride-batched, see
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
        if self.pub_watermark.saturating_sub(self.wheel.now()) >= EXPIRY_STRIDE {
            self.advance_expiry(self.pub_watermark);
        }
        if let Some(pub_time) = tuple_pub {
            self.latest_pub = self.latest_pub.max(pub_time);
        }
    }

    /// Advances the node's timer wheel to the publication time `target` and
    /// removes every stored query, cell tuple and ALTT entry whose deadline
    /// it reached, along with the overdue ones filed since the last
    /// advance. Called per delivery with the node's publication
    /// watermark ([`expire_for_delivery`](Self::expire_for_delivery)) and,
    /// at quiescence, with the engine's.
    ///
    /// The target must never exceed the publication time of a tuple still
    /// to be delivered here: the deadlines guarantee unobservability only
    /// for tuples published at or after them.
    pub(crate) fn advance_expiry(&mut self, target: Timestamp) {
        let mut due = std::mem::take(&mut self.expiry_scratch);
        due.append(&mut self.overdue);
        self.wheel.advance(target, &mut due);
        for token in due.drain(..) {
            let now = self.wheel.now();
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
            unlink_from_bucket(&mut bucket.handles, &mut self.queries, handle, expired.bucket_pos);
            self.trigger_index.remove(bucket, handle, &expired);
            if bucket.handles.is_empty() {
                self.stored_queries.remove(&ring);
            }
        }
        self.unregister_query(ring, &expired, handle);
        1
    }

    /// Evicts the due front entries of the ALTT bucket on `ring` — those
    /// whose retention deadline lies before `now` — and, when the front
    /// moved, arms the wheel for the new one. Returns how many entries were
    /// evicted.
    fn evict_altt_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(bucket) = self.altt.get_mut(&ring) else { return 0 };
        let due = bucket.partition_point(|&(_, expires_at)| expires_at < now);
        bucket.drain(..due);
        match bucket.front().map(|&(_, expires_at)| expires_at) {
            None => {
                self.altt.remove(&ring);
            }
            Some(next) if due > 0 => self.schedule(next.saturating_add(1), ExpiryToken::Altt(ring)),
            Some(_) => {}
        }
        self.altt_count -= due;
        due
    }

    /// Evicts the due front tuples of the cell on `ring` (a popped token
    /// whose cell was drained by churn finds nothing) and, when the front
    /// moved, arms the wheel for the new one: a token per cell front, not
    /// per stored tuple. Returns how many tuples were evicted.
    fn evict_cell_front(&mut self, ring: u64, now: SimTime) -> usize {
        let Some(cell) = self.cells.get_mut(&ring) else { return 0 };
        let evicted = cell.evict_due(now);
        let next = cell.front_deadline().filter(|&deadline| deadline != SimTime::MAX);
        if let (true, Some(deadline)) = (evicted > 0, next) {
            self.schedule(deadline, ExpiryToken::Cell(ring));
        }
        self.tuple_count -= evicted;
        evicted
    }

    /// Files `token` under `deadline`: on the wheel, or on the overdue list
    /// when the wheel has already passed it.
    pub(crate) fn schedule(&mut self, deadline: Timestamp, token: ExpiryToken) {
        if deadline <= self.wheel.now() {
            self.overdue.push(token);
        } else {
            self.wheel.insert(deadline, token);
        }
    }

    /// Number of live windowed entries — stored queries, cell tuples and
    /// ALTT entries — whose wheel deadline the publication time `watermark`
    /// has reached (diagnostic). Zero on every node after the engine's
    /// quiescent flush to its publication watermark: the wheel leaves no
    /// expired entry behind.
    pub fn overdue_entries(&self, watermark: Timestamp) -> usize {
        let overdue = |deadline: Option<Timestamp>| deadline.is_some_and(|d| d <= watermark);
        let queries = self
            .stored_queries
            .values()
            .flat_map(|bucket| &bucket.handles)
            .filter_map(|h| self.queries.get(*h))
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

    fn drain(wheel: &mut TimerWheel<u32>, target: u64) -> Vec<u32> {
        let mut due = Vec::new();
        wheel.advance(target, &mut due);
        due
    }

    #[test]
    fn pops_at_exact_deadline() {
        let mut wheel = TimerWheel::default();
        wheel.insert(5, 1);
        assert_eq!(drain(&mut wheel, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut wheel, 5), vec![1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_pop_on_next_advance() {
        let mut wheel = TimerWheel::default();
        wheel.advance(100, &mut Vec::new());
        wheel.insert(7, 1); // long dead
        wheel.insert(100, 2); // dead exactly now
        assert_eq!(drain(&mut wheel, 101), vec![1, 2]);
    }

    #[test]
    fn pop_order_is_deadline_then_token() {
        let mut wheel = TimerWheel::default();
        wheel.insert(10, 9);
        wheel.insert(3, 5);
        wheel.insert(10, 2);
        wheel.insert(3, 8);
        assert_eq!(drain(&mut wheel, 20), vec![5, 8, 2, 9]);
    }

    #[test]
    fn order_is_independent_of_advance_granularity() {
        // One big jump vs. tick-by-tick must pop the same sequence.
        let deadlines: Vec<(u64, u32)> = (0..200).map(|i| ((i * 37) % 150 + 1, i as u32)).collect();
        let mut big = TimerWheel::default();
        let mut small = TimerWheel::default();
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
        let mut wheel = TimerWheel::default();
        // One entry per level scale, plus one beyond the horizon.
        let deadlines = [63u64, 64, 4095, 4096, 262_143, 262_144, 20_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.insert(d, i as u32);
        }
        assert_eq!(wheel.len(), deadlines.len());
        for (i, &d) in deadlines.iter().enumerate() {
            assert_eq!(
                drain(&mut wheel, d.saturating_sub(1)),
                Vec::<u32>::new(),
                "early pop of {d}"
            );
            assert_eq!(drain(&mut wheel, d), vec![i as u32], "deadline {d}");
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn incremental_advance_matches_scheduling_across_bucket_boundaries() {
        // Insert while advancing, with deadlines that straddle level
        // boundaries relative to a moving `now`.
        let mut wheel = TimerWheel::default();
        let mut due = Vec::new();
        let mut expected = Vec::new();
        for step in 0..500u64 {
            let deadline = step + 1 + (step * 13) % 300;
            wheel.insert(deadline, step as u32);
            expected.push((deadline, step as u32));
            wheel.advance(step + 1, &mut due);
        }
        wheel.advance(2000, &mut due);
        expected.sort_unstable();
        let expected: Vec<u32> = expected.into_iter().map(|(_, t)| t).collect();
        assert_eq!(due, expected);
    }
}
