//! Gauges and counters of the node stores and their expiry. The
//! `*_slab_*` and `wheel_*` names are historical: only stored queries live
//! in a slab, tuples and ALTT entries are counted as they are stored and
//! reclaimed, and each node's deadlines sit in a binary heap, not a timer
//! wheel.

use serde::{Deserialize, Serialize};

/// How the O(active) state machinery behaved.
///
/// Each node maintains one instance (the occupancy gauges are snapshotted
/// from the node's stores at read time, the pop counters accumulate); the
/// engine sums them into the run-level statistics snapshot.
///
/// Every dead entry is reclaimed by an expiry pop once the node's publication
/// watermark passes its deadline; nothing else reclaims, so
/// `contact_expirations` is always 0 (the field stays for readers of the
/// counter set). The `*_high_water` gauges bound peak state: with expiry
/// working, high water tracks the *active* working set rather than the
/// run's cumulative volume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateCounters {
    /// Stored queries live right now.
    pub query_slab_live: u64,
    /// Peak simultaneously live stored queries.
    pub query_slab_high_water: u64,
    /// Value-level tuples stored right now (plain buckets plus hypercube
    /// cell stores).
    pub tuple_slab_live: u64,
    /// Peak simultaneously stored value-level tuples.
    pub tuple_slab_high_water: u64,
    /// ALTT entries retained right now.
    pub altt_slab_live: u64,
    /// Peak simultaneously live ALTT entries.
    pub altt_slab_high_water: u64,
    /// Deadline entries currently scheduled on the node's deadline heap
    /// (including stale tokens of already-removed entries, skipped for free
    /// at pop).
    pub wheel_scheduled: u64,
    /// Entries reclaimed by an expiry pop at their deadline.
    pub wheel_pops: u64,
    /// Entries reclaimed because a bucket walk contacted them after their
    /// window had closed. Always 0: the deadline heap is the only reclamation
    /// path. Kept so existing readers of the counter set keep compiling.
    pub contact_expirations: u64,
}

impl StateCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another instance's counts into this one (per-node → run totals;
    /// `*_high_water` sums too, bounding total peak state across nodes).
    pub fn merge(&mut self, other: &StateCounters) {
        self.query_slab_live += other.query_slab_live;
        self.query_slab_high_water += other.query_slab_high_water;
        self.tuple_slab_live += other.tuple_slab_live;
        self.tuple_slab_high_water += other.tuple_slab_high_water;
        self.altt_slab_live += other.altt_slab_live;
        self.altt_slab_high_water += other.altt_slab_high_water;
        self.wheel_scheduled += other.wheel_scheduled;
        self.wheel_pops += other.wheel_pops;
        self.contact_expirations += other.contact_expirations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = StateCounters { query_slab_live: 1, wheel_pops: 2, ..Default::default() };
        let b = StateCounters {
            query_slab_live: 10,
            wheel_pops: 20,
            contact_expirations: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.query_slab_live, 11);
        assert_eq!(a.wheel_pops, 22);
        assert_eq!(a.contact_expirations, 5);
    }

    #[test]
    fn serde_round_trip() {
        let c = StateCounters { altt_slab_high_water: 7, wheel_scheduled: 3, ..Default::default() };
        let json = serde_json::to_string(&c).unwrap();
        let back: StateCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
