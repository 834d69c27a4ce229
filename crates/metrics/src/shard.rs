//! Observability counters for the sharded event-queue runtime.

use serde::{Deserialize, Serialize};

/// Counters describing how a sharded drain executed: how many shards ran
/// and how much work they performed. Complements the
/// intra/cross-shard message counts the traffic layer records per
/// scheduled delivery.
///
/// All counters are cumulative over every sharded drain of an engine run
/// and stay zero for single-queue runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRuntimeStats {
    /// Shard count of the most recent sharded drain (0 = never sharded).
    pub shards: usize,
    /// Number of sharded drains executed.
    pub drains: u64,
    /// Tick activations summed over all shards (one shard processing one
    /// tick bucket = one activation).
    pub ticks: u64,
    /// Deliveries processed by the shards.
    pub deliveries: u64,
}

impl ShardRuntimeStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the counters of one drain into the cumulative totals.
    pub fn absorb_drain(&mut self, shards: usize, ticks: u64, deliveries: u64) {
        self.shards = shards;
        self.drains += 1;
        self.ticks += ticks;
        self.deliveries += deliveries;
    }

    /// Average deliveries per tick activation — the effective batch size a
    /// shard sees (1.0 means purely thin cascades).
    pub fn deliveries_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.deliveries as f64 / self.ticks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_and_tracks_latest_shard_count() {
        let mut s = ShardRuntimeStats::new();
        assert_eq!(s.deliveries_per_tick(), 0.0);
        s.absorb_drain(4, 10, 40);
        s.absorb_drain(8, 5, 20);
        assert_eq!(s.shards, 8);
        assert_eq!(s.drains, 2);
        assert_eq!(s.ticks, 15);
        assert_eq!(s.deliveries, 60);
        assert!((s.deliveries_per_tick() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = ShardRuntimeStats::new();
        s.absorb_drain(2, 3, 9);
        let json = serde_json::to_string(&s).unwrap();
        let back: ShardRuntimeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
