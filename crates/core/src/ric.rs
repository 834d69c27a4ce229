//! RIC (Rate of Incoming tuple Count) tracking (Section 6).

use rjoin_dht::RingMap;
use rjoin_net::SimTime;
use std::collections::VecDeque;

/// Tracks, per index key, the arrival times of recent tuples so that a node
/// can answer "how many tuples arrived under this key during the last
/// observation window?" — the RIC information used to choose where to index
/// queries.
///
/// Keys are the 64-bit ring identifiers of the index keys (see
/// [`rjoin_dht::HashedKey`]): the identifier is computed once when a key
/// enters the system, so the tracker never hashes strings on the arrival
/// path.
///
/// Each arrival is recorded at `now`, the node's clock at arrival: the
/// timestamp the rate window is measured against. Two reads exist: the
/// sequential drain's pruning [`rate`](RicTracker::rate) and the pure
/// [`rate_at`](RicTracker::rate_at) that the sharded runtime's effect
/// phases call concurrently on a remote node's tracker. A sharded round runs
/// every handler of its tick before any effect, and no shard has handled a
/// later tick, so a remote read sees exactly the arrivals the node recorded
/// up to and including the reader's tick, whichever thread reads it.
///
/// The paper's prediction model is deliberately simple ("we observe what has
/// happened during the last time window and assume a similar behaviour for
/// the future"); more sophisticated predictors can be plugged in locally,
/// which is why this tracker is a standalone component.
#[derive(Debug, Clone, Default)]
pub struct RicTracker {
    arrivals: RingMap<VecDeque<SimTime>>,
    total_arrivals: u64,
}

impl RicTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the arrival of one tuple under the key with ring identifier
    /// `key` at clock time `now`.
    pub fn record_arrival(&mut self, key: u64, now: SimTime) {
        self.arrivals.entry(key).or_default().push_back(now);
        self.total_arrivals += 1;
    }

    /// Like [`record_arrival`](Self::record_arrival), but first drops
    /// arrivals recorded more than `horizon` ticks before `now`, keeping
    /// the per-key deque bounded by the arrival rate times the horizon.
    ///
    /// With `horizon >= window + 2δ` this is invisible to every read: a
    /// dropped entry is strictly below the cutoff of any [`rate`](Self::rate)
    /// call or [`rate_at`](Self::rate_at) call (reads never use a clock
    /// older than the recording node's).
    pub fn record_arrival_bounded(&mut self, key: u64, now: SimTime, horizon: SimTime) {
        let times = self.arrivals.entry(key).or_default();
        let cutoff = now.saturating_sub(horizon);
        while times.front().is_some_and(|&front| front < cutoff) {
            times.pop_front();
        }
        times.push_back(now);
        self.total_arrivals += 1;
    }

    /// Number of tuples that arrived under `key` during `(now - window, now]`.
    /// Also prunes arrivals that fell out of the window, and forgets a key
    /// whose last arrival did.
    ///
    /// This is the sequential driver's read: pruning is lossy on purpose
    /// (the tracker only keeps what the most recent window retained), which
    /// keeps the arrival deques short on the hot path.
    pub fn rate(&mut self, key: u64, now: SimTime, window: SimTime) -> u64 {
        let Some(times) = self.arrivals.get_mut(&key) else { return 0 };
        let cutoff = now.saturating_sub(window);
        while times.front().is_some_and(|&front| front <= cutoff && front != now) {
            times.pop_front();
        }
        if times.is_empty() {
            self.arrivals.remove(&key);
            return 0;
        }
        times.len() as u64
    }

    /// Pure (non-pruning) twin of [`rate`](Self::rate) used by the sharded
    /// runtime and the split decisions: counts the arrivals in
    /// `(now - window, now]` without mutating anything. Being read-only it
    /// is insensitive to the (non-deterministic) wall-clock order in which
    /// concurrent readers arrive, which the lossy pruning of
    /// [`rate`](Self::rate) is not.
    pub fn rate_at(&self, key: u64, now: SimTime, window: SimTime) -> u64 {
        let Some(times) = self.arrivals.get(&key) else { return 0 };
        // Entries are appended with non-decreasing clock, so both bounds are
        // partition points: count entries in `(now - window, now]` (the
        // `== now` window-0 exception collapses into the lower bound).
        let lower = now.saturating_sub(window).saturating_add(1).min(now);
        let lo = times.partition_point(|&t| t < lower);
        let hi = times.partition_point(|&t| t <= now);
        hi.saturating_sub(lo) as u64
    }

    /// Total arrivals ever recorded (diagnostic).
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Number of distinct keys with at least one retained arrival.
    pub fn tracked_keys(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether any arrival under `key` is retained (diagnostic).
    pub fn tracks(&self, key: u64) -> bool {
        self.arrivals.contains_key(&key)
    }
}

/// The arrival history of one node's `Eval` messages: the query-side heat
/// signal of hot-key splitting, the twin of the [`RicTracker`] that counts
/// tuple arrivals.
///
/// Nothing on the delivery path ever reads it — its only readers are the
/// split decisions the driver takes at quiescent points — and most keys
/// receive one rewritten query and never another. So instead of a deque per
/// key it is one log per node in arrival order: recording is a push, nothing
/// is allocated or probed per key, and a read scans the retention horizon.
#[derive(Debug, Clone, Default)]
pub struct ArrivalLog {
    /// `(key, clock)`, clock non-decreasing.
    arrivals: VecDeque<(u64, SimTime)>,
}

impl ArrivalLog {
    /// Records one arrival under `key` at clock time `now`, after dropping
    /// arrivals more than `horizon` ticks older than it. As with [`RicTracker::record_arrival_bounded`], a horizon of
    /// `window + 2δ` makes the pruning invisible: readers are never behind
    /// the node's own clock.
    pub fn record(&mut self, key: u64, now: SimTime, horizon: SimTime) {
        let cutoff = now.saturating_sub(horizon);
        while self.arrivals.front().is_some_and(|&(_, clock)| clock < cutoff) {
            self.arrivals.pop_front();
        }
        self.arrivals.push_back((key, now));
    }

    /// Arrivals under `key` during `(now - window, now]` —
    /// [`RicTracker::rate_at`]'s answer.
    pub fn rate_at(&self, key: u64, now: SimTime, window: SimTime) -> u64 {
        let lower = now.saturating_sub(window).saturating_add(1).min(now);
        self.arrivals
            .iter()
            .filter(|&&(k, clock)| k == key && (lower..=now).contains(&clock))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_dht::HashedKey;

    fn k(text: &str) -> u64 {
        HashedKey::new(text).ring()
    }

    #[test]
    fn counts_arrivals_within_window() {
        let mut t = RicTracker::new();
        for time in [10, 20, 30, 40] {
            t.record_arrival(k("R+A"), time);
        }
        assert_eq!(t.rate(k("R+A"), 40, 100), 4);
        assert_eq!(t.rate(k("R+A"), 40, 15), 2); // 30 and 40 are within (25, 40]
        assert_eq!(t.rate(k("R+A"), 40, 5), 1); // only 40
        assert_eq!(t.rate(k("S+B"), 40, 100), 0);
    }

    #[test]
    fn pruning_is_permanent() {
        let mut t = RicTracker::new();
        t.record_arrival(k("k"), 1);
        t.record_arrival(k("k"), 100);
        // A narrow window at t=100 prunes the old arrival...
        assert_eq!(t.rate(k("k"), 100, 10), 1);
        // ...so a later wide query no longer sees it (the tracker only keeps
        // what the most recent window retained).
        assert_eq!(t.rate(k("k"), 100, 1000), 1);
        assert_eq!(t.total_arrivals(), 2);
        assert_eq!(t.tracked_keys(), 1);
    }

    /// A key whose window rolled over completely leaves nothing behind —
    /// neither a deque nor its map slot — and answers exactly as before.
    #[test]
    fn a_key_is_forgotten_when_its_last_arrival_is_pruned() {
        let mut t = RicTracker::new();
        t.record_arrival(k("cold"), 10);
        t.record_arrival(k("warm"), 10);
        t.record_arrival(k("warm"), 95);
        assert_eq!(t.tracked_keys(), 2);
        // At 100 with a 20-tick window "cold" has rolled over, "warm" has not.
        assert_eq!(t.rate(k("cold"), 100, 20), 0);
        assert_eq!(t.rate(k("warm"), 100, 20), 1);
        assert_eq!(t.tracked_keys(), 1, "the emptied key is dropped, not kept as an empty deque");
        assert_eq!(t.rate(k("cold"), 100, 1000), 0);
        assert_eq!(t.rate_at(k("cold"), 100, 1000), 0);
        // A later arrival re-opens the key like any first arrival.
        t.record_arrival_bounded(k("cold"), 101, 40);
        assert_eq!(t.tracked_keys(), 2);
        assert_eq!(t.rate(k("cold"), 101, 20), 1);
        assert_eq!(t.rate_at(k("warm"), 101, 20), 1);
        assert_eq!(t.total_arrivals(), 4);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut t = RicTracker::new();
        t.record_arrival(k("a"), 5);
        t.record_arrival(k("b"), 5);
        t.record_arrival(k("b"), 6);
        assert_eq!(t.rate(k("a"), 10, 100), 1);
        assert_eq!(t.rate(k("b"), 10, 100), 2);
        assert_eq!(t.tracked_keys(), 2);
    }

    #[test]
    fn rate_at_same_tick_counts_current_arrival() {
        let mut t = RicTracker::new();
        t.record_arrival(k("k"), 50);
        // window of zero ticks still counts the arrival at `now` itself.
        assert_eq!(t.rate(k("k"), 50, 0), 1);
        assert_eq!(t.rate_at(k("k"), 50, 0), 1);
    }

    #[test]
    fn rate_at_is_pure() {
        let mut t = RicTracker::new();
        // Three arrivals sharing one clock, plus one genuinely later.
        t.record_arrival(k("k"), 50);
        t.record_arrival(k("k"), 50);
        t.record_arrival(k("k"), 50);
        t.record_arrival(k("k"), 60);
        // A reader at 50 does not see the later arrival (now-bounded).
        assert_eq!(t.rate_at(k("k"), 50, 100), 3);
        assert_eq!(t.rate_at(k("k"), 60, 100), 4);
        // Narrow windows apply to the recorded clock.
        assert_eq!(t.rate_at(k("k"), 60, 5), 1);
        // rate_at never pruned anything.
        assert_eq!(t.rate(k("k"), 60, 1000), 4);
    }

    /// The per-node log answers every read the way per-key deques did
    /// (reads are never behind the node's latest arrival).
    #[test]
    fn arrival_log_agrees_with_a_tracker_per_key() {
        let mut log = ArrivalLog::default();
        let mut tracker = RicTracker::new();
        let arrivals = [("a", 10), ("b", 10), ("a", 50), ("a", 50), ("b", 60)];
        for (key, now) in arrivals {
            log.record(k(key), now, 45);
            tracker.record_arrival_bounded(k(key), now, 45);
        }
        for key in ["a", "b", "never"] {
            for (now, window) in [(60, 20), (60, 0), (60, 43), (75, 43)] {
                assert_eq!(
                    log.rate_at(k(key), now, window),
                    tracker.rate_at(k(key), now, window),
                    "{key} at {now} over {window}"
                );
            }
        }
        assert_eq!(log.arrivals.len(), 3, "arrivals before 60 - 45 left with the horizon");
    }

    #[test]
    fn bounded_recording_drops_only_out_of_horizon_entries() {
        let mut t = RicTracker::new();
        t.record_arrival_bounded(k("k"), 10, 20);
        t.record_arrival_bounded(k("k"), 25, 20);
        // horizon 20 at now=35 drops the arrival at 10 (< 15), keeps 25.
        t.record_arrival_bounded(k("k"), 35, 20);
        assert_eq!(t.rate_at(k("k"), 35, 1000), 2);
        assert_eq!(t.total_arrivals(), 3, "totals count every arrival ever");
        // Reads inside the horizon are unaffected by the pruning.
        assert_eq!(t.rate_at(k("k"), 35, 20), 2);
        assert_eq!(t.rate(k("k"), 35, 20), 2);
    }
}
