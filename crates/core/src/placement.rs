//! Choice of the index key for a query among its candidates (Section 6),
//! and the candidate-rate model under hot-key splitting.
//!
//! # Two tiers of load balancing
//!
//! Placement is the upper half of a two-tier balancing story:
//!
//! * **Spread load** — many moderately warm keys landing on few nodes — is
//!   handled *below* RJoin by identifier movement
//!   ([`rjoin_dht::balance`]): nodes reposition on the ring so each owns a
//!   fair share of the per-key load. Placement helps by steering queries
//!   toward low-rate candidates in the first place.
//! * **Point-mass load** — one key hot enough to overwhelm whichever node
//!   owns it — cannot be fixed by either of the above: the key hashes to
//!   one identifier, so there is nothing to move and no colder candidate
//!   guaranteed to exist. That case is handled by **hot-key splitting**
//!   ([`crate::split`]): the key becomes `s` sub-keys, tuples route to one
//!   of them, queries register at all of them.
//!
//! Both tiers assume the query reached placement at all: cyclic join
//! graphs never do. They are diverted at submission by the two-plan
//! planner onto an n-dimensional cell grid
//! ([`crate::split::HypercubeGrid`]) whose per-cell replicas are fixed at
//! plan time — RIC-aware candidate choice only ever sees the pipeline's
//! rewritten queries.
//!
//! Candidate enumeration stays split-aware through
//! [`split_effective_rate`]: once a key is split, the unit that carries its
//! load is one *partition*, so the rate the placement decision should see
//! for that candidate is the maximum over its partitions (≈ `rate / s`
//! under the content hash) — a freshly split key becomes a viable
//! placement target again instead of being permanently shunned for its
//! pre-split history.

use crate::PlacementStrategy;
use rand::rngs::StdRng;
use rand::Rng;
use rjoin_query::IndexLevel;

/// The effective rate of a split candidate key, given the observed rates of
/// its partitions: the maximum — the per-node burden a query copy stored at
/// the hottest partition would actually experience. An empty slice (a
/// degenerate split) is rated 0.
pub fn split_effective_rate(partition_rates: &[u64]) -> u64 {
    partition_rates.iter().copied().max().unwrap_or(0)
}

/// Chooses which candidate key a query should be indexed under, given the
/// (estimated) rate of incoming tuples of each candidate.
///
/// `candidates` (the level of each candidate key — all a strategy looks at)
/// and `rates` are parallel slices. Returns the index of the chosen
/// candidate.
///
/// * [`PlacementStrategy::RicAware`] — lowest rate wins; ties are broken in
///   favour of *value-level* candidates (Section 3 indexes rewritten queries
///   at the value level by default because it both spreads load better and
///   guarantees that an earlier-stored tuple can still be found), then by
///   first occurrence;
/// * [`PlacementStrategy::Worst`] — highest rate wins (the adversarial
///   baseline of Figure 2);
/// * [`PlacementStrategy::Random`] — uniform random;
/// * [`PlacementStrategy::FirstInClause`] — always the first candidate.
///
/// The randomized tie-break also matters for shared sub-join evaluation: a
/// deterministic "first candidate" rule was tried for co-locating
/// structurally identical queries, but collapsing every twin onto one
/// placement path loses answers at scale (all subscribers explore the same
/// single continuation instead of an ensemble), so sharing relies on the
/// natural collisions at rewrite sites instead.
///
/// # Panics
/// Panics if `candidates` is empty or the slices have different lengths.
pub fn choose_candidate(
    candidates: &[IndexLevel],
    rates: &[u64],
    strategy: PlacementStrategy,
    rng: &mut StdRng,
) -> usize {
    assert!(!candidates.is_empty(), "placement requires at least one candidate");
    assert_eq!(candidates.len(), rates.len(), "candidates and rates must be parallel");
    match strategy {
        PlacementStrategy::RicAware => {
            let min_rate = *rates.iter().min().expect("non-empty rates");
            // Prefer value-level candidates among the minima (Section 3
            // indexes rewritten queries at the value level by default: it
            // spreads load better and lets the query find tuples that were
            // stored before it arrived). Remaining ties are broken randomly,
            // as the paper does when no further information is available —
            // a deterministic "first" rule would systematically favour the
            // lexicographically first relation, which under the Zipf
            // workload is also the hottest one.
            let at_value_level = |i: usize| candidates[i] == IndexLevel::Value;
            let value_minima = (0..rates.len()).any(|i| rates[i] == min_rate && at_value_level(i));
            let in_pool =
                |i: &usize| rates[*i] == min_rate && (!value_minima || at_value_level(*i));
            let pool = (0..rates.len()).filter(in_pool).count();
            let pick = rng.gen_range(0..pool);
            (0..rates.len()).filter(in_pool).nth(pick).expect("pick < pool size")
        }
        PlacementStrategy::Worst => {
            let mut worst = 0;
            for (i, &rate) in rates.iter().enumerate() {
                if rate > rates[worst] {
                    worst = i;
                }
            }
            worst
        }
        PlacementStrategy::Random => rng.gen_range(0..candidates.len()),
        PlacementStrategy::FirstInClause => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn candidates() -> Vec<IndexLevel> {
        vec![IndexLevel::Attribute, IndexLevel::Attribute, IndexLevel::Value]
    }

    #[test]
    fn ric_aware_picks_lowest_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        let idx =
            choose_candidate(&candidates(), &[10, 2, 7], PlacementStrategy::RicAware, &mut rng);
        assert_eq!(idx, 1);
    }

    #[test]
    fn ric_aware_breaks_ties_in_favour_of_value_level() {
        let mut rng = StdRng::seed_from_u64(0);
        // All rates equal: the value-level candidate (index 2) wins the tie.
        let idx =
            choose_candidate(&candidates(), &[3, 3, 3], PlacementStrategy::RicAware, &mut rng);
        assert_eq!(idx, 2);
        // A strictly lower-rate attribute-level candidate still beats a
        // value-level one.
        let idx =
            choose_candidate(&candidates(), &[3, 1, 3], PlacementStrategy::RicAware, &mut rng);
        assert_eq!(idx, 1);
    }

    #[test]
    fn ric_aware_attribute_level_ties_are_randomised() {
        // Among equal-rate attribute-level candidates the choice is random,
        // so over many draws every candidate must be picked at least once.
        let mut rng = StdRng::seed_from_u64(1);
        let attrs = [IndexLevel::Attribute; 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[choose_candidate(&attrs, &[3, 3, 3], PlacementStrategy::RicAware, &mut rng)] =
                true;
        }
        assert!(seen.iter().all(|s| *s), "tie-breaking should cover every candidate");
    }

    #[test]
    fn worst_picks_highest_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        let idx = choose_candidate(&candidates(), &[10, 2, 70], PlacementStrategy::Worst, &mut rng);
        assert_eq!(idx, 2);
    }

    #[test]
    fn first_in_clause_ignores_rates() {
        let mut rng = StdRng::seed_from_u64(0);
        let idx = choose_candidate(
            &candidates(),
            &[10, 2, 0],
            PlacementStrategy::FirstInClause,
            &mut rng,
        );
        assert_eq!(idx, 0);
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let idx =
                choose_candidate(&candidates(), &[1, 1, 1], PlacementStrategy::Random, &mut rng);
            seen[idx] = true;
        }
        assert!(seen.iter().all(|s| *s), "random placement should hit every candidate");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = choose_candidate(&[], &[], PlacementStrategy::Random, &mut rng);
    }

    #[test]
    fn split_effective_rate_is_the_partition_maximum() {
        assert_eq!(split_effective_rate(&[3, 9, 1, 4]), 9);
        assert_eq!(split_effective_rate(&[7]), 7);
        assert_eq!(split_effective_rate(&[]), 0);
    }
}
