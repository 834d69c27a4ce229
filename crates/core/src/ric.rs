//! RIC (Rate of Incoming tuple Count) tracking (Section 6), and each
//! node's candidate table of cached RIC observations (Section 7).

use crate::messages::RicInfo;
use crate::node_state::NodeState;
use rjoin_dht::RingMap;
use rjoin_net::SimTime;
use std::collections::VecDeque;

/// Length (in ticks) of the observation window behind every rate estimate:
/// the estimate for a key is the number of tuples that arrived under it
/// during the last `RIC_WINDOW` ticks ("we observe what has happened during
/// the last time window and assume a similar behaviour for the future",
/// Section 6).
pub const RIC_WINDOW: SimTime = 200;

/// Validity horizon (in ticks) of cached RIC information in a node's
/// candidate table: an older entry is refreshed with a new RIC request, as
/// described at the end of Section 7.
pub const RIC_VALIDITY: SimTime = 500;

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
/// timestamp the rate window is measured against. Recording drops what fell
/// behind a retention horizon, and the one read,
/// [`rate_at`](RicTracker::rate_at), is pure — so every driver reads rates
/// the same way, and the simulator's effect phases can call it
/// concurrently on a remote node's tracker. A round runs every
/// handler of its tick before any effect, and no shard has handled a later
/// tick, so a remote read sees exactly the arrivals the node recorded up to
/// and including the reader's tick, whichever thread reads it.
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
    /// `key` at clock time `now`, after dropping arrivals recorded more than
    /// `horizon` ticks before `now`: the per-key deque stays bounded by the
    /// arrival rate times the horizon.
    ///
    /// With `horizon >= window + 2δ` this is invisible to every read: a
    /// dropped entry is strictly below the cutoff of any
    /// [`rate_at`](Self::rate_at) call (reads never use a clock older than
    /// the recording node's).
    pub fn record_arrival_bounded(&mut self, key: u64, now: SimTime, horizon: SimTime) {
        let times = self.arrivals.entry(key).or_default();
        let cutoff = now.saturating_sub(horizon);
        while times.front().is_some_and(|&front| front < cutoff) {
            times.pop_front();
        }
        times.push_back(now);
        self.total_arrivals += 1;
    }

    /// Number of tuples that arrived under `key` during `(now - window, now]`
    /// (a zero window still counts the arrivals at `now`). Pure: being
    /// read-only it is insensitive to the (non-deterministic) wall-clock
    /// order in which concurrent readers arrive.
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

/// A cached RIC observation (an entry of the candidate table of Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RicEntry {
    /// Estimated arrivals per RIC window.
    pub rate: u64,
    /// When the estimate was taken.
    pub observed_at: SimTime,
}

impl NodeState {
    /// Drops every candidate-table entry past [`RIC_VALIDITY`], once per
    /// horizon: an entry no [`cached_ric`](Self::cached_ric) call at or
    /// after `now` would serve again. Between sweeps the table holds at most
    /// two horizons' worth of observations.
    fn reclaim_stale_ric(&mut self, now: SimTime) {
        if now >= self.ric_sweep_at {
            self.candidate_table.retain(|_, e| now.saturating_sub(e.observed_at) <= RIC_VALIDITY);
            self.ric_sweep_at = now.saturating_add(RIC_VALIDITY).saturating_add(1);
        }
    }

    /// Merges the RIC observations piggy-backed on a message handled at
    /// clock `now` into the candidate table, keeping the most recent
    /// estimate per key (Section 7).
    pub fn merge_ric(&mut self, infos: &[RicInfo], now: SimTime) {
        self.reclaim_stale_ric(now);
        for info in infos {
            let fresh = RicEntry { rate: info.rate, observed_at: info.observed_at };
            let entry = self.candidate_table.entry(info.key.ring()).or_insert(fresh);
            if info.observed_at >= entry.observed_at {
                *entry = fresh;
            }
        }
    }

    /// Looks up a cached RIC estimate that is still valid at `now`: observed
    /// no more than [`RIC_VALIDITY`] ticks earlier.
    pub fn cached_ric(&self, key: u64, now: SimTime) -> Option<RicEntry> {
        let entry = self.candidate_table.get(&key)?;
        (now.saturating_sub(entry.observed_at) <= RIC_VALIDITY).then_some(*entry)
    }

    /// Caches one RIC estimate, just observed, for a candidate key.
    pub fn cache_ric(&mut self, ring: u64, entry: RicEntry) {
        self.reclaim_stale_ric(entry.observed_at);
        self.candidate_table.insert(ring, entry);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RicInfo;
    use rjoin_dht::{HashedKey, Id};

    fn k(text: &str) -> u64 {
        HashedKey::new(text).ring()
    }

    /// Records every arrival with a horizon no read reaches past.
    fn record_all(t: &mut RicTracker, arrivals: &[(&str, SimTime)]) {
        for &(key, now) in arrivals {
            t.record_arrival_bounded(k(key), now, 1_000);
        }
    }

    #[test]
    fn counts_arrivals_within_window() {
        let mut t = RicTracker::new();
        record_all(&mut t, &[("R+A", 10), ("R+A", 20), ("R+A", 30), ("R+A", 40)]);
        assert_eq!(t.rate_at(k("R+A"), 40, 100), 4);
        assert_eq!(t.rate_at(k("R+A"), 40, 15), 2); // 30 and 40 are within (25, 40]
        assert_eq!(t.rate_at(k("R+A"), 40, 5), 1); // only 40
        assert_eq!(t.rate_at(k("S+B"), 40, 100), 0);
    }

    /// What the recording horizon drops is gone for every later read, and
    /// a key stays tracked as long as it keeps arriving.
    #[test]
    fn pruning_is_permanent() {
        let mut t = RicTracker::new();
        t.record_arrival_bounded(k("k"), 1, 10);
        t.record_arrival_bounded(k("k"), 100, 10);
        // The arrival at 100 dropped the one at 1 (behind 100 - 10)...
        assert_eq!(t.rate_at(k("k"), 100, 10), 1);
        // ...so a later wide read no longer sees it.
        assert_eq!(t.rate_at(k("k"), 100, 1000), 1);
        assert_eq!(t.total_arrivals(), 2);
        assert_eq!(t.tracked_keys(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut t = RicTracker::new();
        record_all(&mut t, &[("a", 5), ("b", 5), ("b", 6)]);
        assert_eq!(t.rate_at(k("a"), 10, 100), 1);
        assert_eq!(t.rate_at(k("b"), 10, 100), 2);
        assert_eq!(t.tracked_keys(), 2);
    }

    #[test]
    fn rate_at_same_tick_counts_current_arrival() {
        let mut t = RicTracker::new();
        record_all(&mut t, &[("k", 50)]);
        // window of zero ticks still counts the arrival at `now` itself.
        assert_eq!(t.rate_at(k("k"), 50, 0), 1);
    }

    #[test]
    fn rate_at_is_pure() {
        let mut t = RicTracker::new();
        // Three arrivals sharing one clock, plus one genuinely later.
        record_all(&mut t, &[("k", 50), ("k", 50), ("k", 50), ("k", 60)]);
        // A reader at 50 does not see the later arrival (now-bounded).
        assert_eq!(t.rate_at(k("k"), 50, 100), 3);
        assert_eq!(t.rate_at(k("k"), 60, 100), 4);
        // Narrow windows apply to the recorded clock.
        assert_eq!(t.rate_at(k("k"), 60, 5), 1);
        // rate_at never pruned anything.
        assert_eq!(t.rate_at(k("k"), 60, 1000), 4);
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
    }

    #[test]
    fn candidate_table_keeps_most_recent_and_respects_validity() {
        let mut state = NodeState::new(Id(7));
        let k = HashedKey::new("R+A");
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 5, observed_at: 10 }], 10);
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 9, observed_at: 20 }], 20);
        state.merge_ric(&[RicInfo { key: k.clone(), rate: 1, observed_at: 15 }], 21); // older, ignored
        let entry = state.cached_ric(k.ring(), 25).unwrap();
        assert_eq!(entry.rate, 9);
        assert_eq!(entry.observed_at, 20);
        // The validity horizon rejects stale entries.
        assert!(state.cached_ric(k.ring(), 20 + RIC_VALIDITY).is_some());
        assert!(state.cached_ric(k.ring(), 21 + RIC_VALIDITY).is_none());
        assert!(state.cached_ric(HashedKey::new("unknown").ring(), 0).is_none());
    }

    /// Entries past the validity horizon are reclaimed by later touches of
    /// the table: over three horizons of one fresh key per tick it never
    /// holds more than two horizons' worth, and every read answers as if
    /// nothing had been dropped.
    #[test]
    fn candidate_table_reclaims_entries_past_validity() {
        let mut state = NodeState::new(Id(7));
        let keys: Vec<HashedKey> =
            (0..=3 * RIC_VALIDITY).map(|t| HashedKey::new(format!("R+A+i:{t}"))).collect();
        for now in 1..=3 * RIC_VALIDITY {
            let fresh = &keys[now as usize];
            if now % 2 == 0 {
                state.cache_ric(fresh.ring(), RicEntry { rate: now, observed_at: now });
            } else {
                state
                    .merge_ric(&[RicInfo { key: fresh.clone(), rate: now, observed_at: now }], now);
            }
            assert!(state.candidate_table.len() as u64 <= 2 * RIC_VALIDITY + 1, "at {now}");
            for seen in 1..=now {
                let cached = state.cached_ric(keys[seen as usize].ring(), now);
                assert_eq!(cached.map(|e| e.rate), (now - seen <= RIC_VALIDITY).then_some(seen));
            }
        }
    }
}
