//! The constant-δ bucket queue every shard of the network owns.
//!
//! Because every message is delivered a fixed δ after a monotone clock,
//! arrival times are pushed in (almost always) non-decreasing order; one
//! FIFO bucket per delivery tick gives O(1) push and pop where a binary
//! heap would pay O(log n) comparisons per event.

use crate::SimTime;
use std::collections::VecDeque;

/// A bucket queue of scheduled entries, one bucket per delivery tick.
///
/// Entries within a bucket are kept in push order (FIFO); the network sorts
/// a drained bucket into lineage order itself. Out-of-order pushes (not produced by
/// any current caller) are still handled correctly via binary search.
#[derive(Debug)]
pub struct BucketQueue<E> {
    buckets: VecDeque<(SimTime, VecDeque<E>)>,
    len: usize,
}

impl<E> Default for BucketQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BucketQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BucketQueue { buckets: VecDeque::new(), len: 0 }
    }

    /// Number of entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest scheduled delivery tick, if any entry is queued.
    pub fn next_time(&self) -> Option<SimTime> {
        self.buckets.front().map(|(at, _)| *at)
    }

    /// Schedules `entry` for tick `at`.
    pub fn push(&mut self, at: SimTime, entry: E) {
        self.len += 1;
        let behind_tail = match self.buckets.back_mut() {
            Some((t, bucket)) if *t == at => {
                bucket.push_back(entry);
                return;
            }
            Some((t, _)) => *t > at,
            None => false,
        };
        if !behind_tail {
            self.buckets.push_back((at, VecDeque::from([entry])));
            return;
        }
        // Slow path for a push behind the tail; appending within the found
        // bucket preserves push order.
        match self.buckets.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => self.buckets[i].1.push_back(entry),
            Err(i) => self.buckets.insert(i, (at, VecDeque::from([entry]))),
        }
    }

    /// Pops the globally earliest entry.
    pub fn pop_front(&mut self) -> Option<(SimTime, E)> {
        let (at, bucket) = self.buckets.front_mut()?;
        let at = *at;
        let entry = bucket.pop_front().expect("buckets are never left empty");
        if bucket.is_empty() {
            self.buckets.pop_front();
        }
        self.len -= 1;
        Some((at, entry))
    }

    /// Drains the entire earliest bucket in push order.
    pub fn pop_bucket(&mut self) -> Option<(SimTime, VecDeque<E>)> {
        let (at, bucket) = self.buckets.pop_front()?;
        self.len -= bucket.len();
        Some((at, bucket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_preserves_time_then_fifo_order() {
        let mut q: BucketQueue<&str> = BucketQueue::new();
        q.push(10, "late");
        q.push(5, "early");
        q.push(5, "early2");
        q.push(7, "mid");
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_time(), Some(5));
        let order: Vec<(SimTime, &str)> = std::iter::from_fn(|| q.pop_front()).collect();
        assert_eq!(order, vec![(5, "early"), (5, "early2"), (7, "mid"), (10, "late")]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_bucket_drains_whole_tick() {
        let mut q: BucketQueue<u32> = BucketQueue::new();
        q.push(3, 1);
        q.push(3, 2);
        q.push(9, 3);
        let (at, bucket) = q.pop_bucket().unwrap();
        assert_eq!(at, 3);
        assert_eq!(Vec::from(bucket), vec![1, 2]);
        assert_eq!(q.len(), 1);
    }
}
