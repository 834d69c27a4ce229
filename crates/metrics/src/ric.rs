//! Counters of how RIC-aware placement learned its candidates' rates.

use serde::{Deserialize, Serialize};

/// Where the rates of a rewritten query's placement candidates came from.
///
/// Each node counts the RIC-aware dispatches of rewritten queries it makes;
/// the engine sums them into the run-level statistics snapshot. Every
/// candidate of a dispatch is counted exactly once, in one of three ways,
/// so `served + asked + unasked == candidates`:
///
/// * served by the node's candidate table (a still-valid cached rate);
/// * asked for its rate on the chained RIC request;
/// * left unasked because no answer could change the choice: the query has
///   a single candidate, or a known candidate sits at the floor (rate 0,
///   and value level or no value-level candidate unknown).
///
/// `asked / candidates` is the share of candidates that cost RIC messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RicCounters {
    /// RIC-aware dispatches of rewritten queries.
    pub dispatches: u64,
    /// Candidate keys those dispatches chose among.
    pub candidates: u64,
    /// Candidates whose rate the candidate table served.
    pub served: u64,
    /// Candidates asked for their rate on a chained RIC request.
    pub asked: u64,
    /// Candidates left unasked because no rate could change the choice.
    pub unasked: u64,
}

impl RicCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another instance's counts into this one (per-node → run totals).
    pub fn merge(&mut self, other: &RicCounters) {
        self.dispatches += other.dispatches;
        self.candidates += other.candidates;
        self.served += other.served;
        self.asked += other.asked;
        self.unasked += other.unasked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a =
            RicCounters { dispatches: 1, candidates: 3, served: 1, asked: 2, ..Default::default() };
        let b = RicCounters { dispatches: 2, candidates: 5, served: 2, asked: 1, unasked: 2 };
        a.merge(&b);
        assert_eq!(
            a,
            RicCounters { dispatches: 3, candidates: 8, served: 3, asked: 3, unasked: 2 }
        );
    }

    #[test]
    fn serde_round_trip() {
        let c = RicCounters { dispatches: 4, candidates: 9, served: 5, asked: 3, unasked: 1 };
        let json = serde_json::to_string(&c).unwrap();
        let back: RicCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
