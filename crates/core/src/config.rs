//! Engine configuration.

use rjoin_net::SimTime;
use serde::{Deserialize, Serialize};

/// How a node chooses, among the candidate keys of a query, the one under
/// which the query is (re-)indexed.
///
/// The paper's Figure 2 compares RJoin's RIC-aware choice against a random
/// choice and against an adversarial "always pick the worst candidate"
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PlacementStrategy {
    /// Ask candidate nodes for their rate of incoming tuples and pick the
    /// candidate with the lowest rate (the RJoin strategy, Section 6).
    #[default]
    RicAware,
    /// Pick a candidate uniformly at random (no RIC traffic).
    Random,
    /// Always pick the candidate with the *highest* incoming-tuple rate
    /// (the paper's worst-case baseline; uses oracle knowledge and is not
    /// charged RIC traffic).
    Worst,
    /// Always pick the first candidate in the `WHERE` clause order (the
    /// naive strategy used in Section 3 before RIC information is
    /// introduced).
    FirstInClause,
}

/// Configuration of an [`RJoinEngine`](crate::RJoinEngine) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Placement strategy for input and rewritten queries.
    pub placement: PlacementStrategy,
    /// Whether RIC information is piggy-backed on rewritten queries and
    /// cached in each node's candidate table (Section 7). When disabled,
    /// every (re-)indexing decision under [`PlacementStrategy::RicAware`]
    /// pays the full RIC-request cost again.
    pub reuse_ric: bool,
    /// Length of the observation window (in ticks) used to estimate the
    /// rate of incoming tuples: the estimate for a key is the number of
    /// tuples that arrived under that key during the last `ric_window`
    /// ticks ("we observe what has happened during the last time window and
    /// assume a similar behaviour for the future", Section 6).
    pub ric_window: SimTime,
    /// Validity horizon of cached RIC information in the candidate table:
    /// entries older than this are refreshed (one extra direct hop), as
    /// described at the end of Section 7. `None` disables expiry.
    pub ct_validity: Option<SimTime>,
    /// Retention time Δ of the attribute-level tuple table (ALTT,
    /// Section 4): a retained tuple stays matchable until Δ ticks past its
    /// *publication* time, so a query delivered at tick `a` sees exactly the
    /// recently published tuples with `pub + Δ >= a`. `None` disables the
    /// ALTT, i.e. tuples received at the attribute level are used to trigger
    /// stored queries and then discarded, as in the base algorithm.
    pub altt_delta: Option<SimTime>,
    /// When `true`, rewritten queries are only indexed under value-level
    /// keys, as in the base algorithm of Section 3. This guarantees that a
    /// rewritten query always finds matching tuples that arrived before it
    /// (they are stored at the value level), i.e. eventual completeness
    /// without the ALTT. When `false` (the default), the Section 6
    /// generalisation is used: rewritten queries may also be indexed at the
    /// attribute level if RIC information favours it.
    pub rewritten_value_level_only: bool,
    /// When `true`, nodes share the evaluation of structurally identical
    /// (sub-)queries: a query arriving at a node that already stores a query
    /// with the same sub-join fingerprint (same `FROM`/`WHERE`/window, any
    /// `SELECT` list) under the same key is merged into it as an extra
    /// subscriber instead of being stored and rewritten separately. The
    /// shared entry is rewritten and re-indexed once per triggering tuple
    /// and completed answers fan back out to every subscriber — the
    /// multi-query optimization of Dossinger & Michel. Off by default: the
    /// unshared path reproduces the paper's per-query accounting exactly.
    pub share_subjoins: bool,
    /// Per-message delivery delay bound δ of the simulated network.
    pub network_delay: SimTime,
    /// Successor-list length of the Chord nodes.
    pub successor_list_len: usize,
    /// Seed for the engine's internal randomness (random placement).
    pub seed: u64,
    /// Number of event-queue shards used by
    /// [`RJoinEngine::run_until_quiescent_parallel`](crate::RJoinEngine::run_until_quiescent_parallel).
    ///
    /// With `1` (the default) that call is the sequential drain,
    /// [`run_until_quiescent`](crate::RJoinEngine::run_until_quiescent). With `n > 1` the
    /// ring's nodes are split into `n` contiguous identifier ranges, each
    /// owning its own bucket queue and local virtual clock, and all ranges
    /// advance together in the global tick rounds of
    /// [`rjoin_net::ShardedNetwork`]. Sharded runs are deterministic and
    /// produce identical answers/loads/traffic for every `n > 1`; they can
    /// differ from the `n = 1` trace only through placement-RNG draws
    /// (derived per decision instead of from one global stream) and the
    /// pruning-free RIC reads.
    pub shards: usize,
    /// Number of threads that run the sharded drain's rounds, decoupled
    /// from the shard count. `None` (the default) resolves at drain time to
    /// the machine's available parallelism. The shards are dealt into that
    /// many contiguous chunks (never more than one per shard), one per
    /// thread; `1` runs every round on the calling thread. The choice never
    /// changes results — only how many threads run the same schedule.
    pub workers: Option<usize>,
    /// Heavy-hitter threshold for hot-key splitting: when a tuple
    /// publication observes that one of its index keys received at least
    /// this many tuples during the last [`ric_window`](Self::ric_window)
    /// ticks (read from the owning node's RIC tracker), the key is split
    /// into [`hot_key_partitions`](Self::hot_key_partitions) sub-keys.
    /// `None` (the default) disables splitting: the paper's base system.
    pub hot_key_threshold: Option<u64>,
    /// Number of sub-keys `s` a hot key is split into (the key's *share* in
    /// Afrati et al.'s terms). Ignored while
    /// [`hot_key_threshold`](Self::hot_key_threshold) is `None`.
    pub hot_key_partitions: u32,
    /// When `true` (the default), each node indexes every windowed stored
    /// query and ALTT entry by its deadline on a per-node timer wheel, and
    /// the drivers pop expired entries as the clock crosses their deadline —
    /// O(expired) reclamation, independent of how much state is stored.
    /// When `false`, dead state is only reclaimed when a later arrival walks
    /// the bucket it sits in (the legacy contact-driven sweep, retained as a
    /// differential oracle). Answer streams are identical either way —
    /// wheel deadlines are provably past the last tick at which an entry
    /// could still trigger, **provided tuples enter the network at their
    /// publication time** (`pub_time >= engine clock` when published, which
    /// is how every driver in this workspace publishes). A publisher that
    /// back-dates tuples behind the clock stretches delivery lag beyond the
    /// delay bound the deadlines account for and should run in sweep mode.
    pub wheel_expiry: bool,
    /// Cell budget of a hypercube plan: the planner allocates per-axis
    /// shares `s_1 × … × s_k` with `∏ s_i` at most this value.
    pub hypercube_cells: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            placement: PlacementStrategy::RicAware,
            reuse_ric: true,
            ric_window: 200,
            ct_validity: Some(500),
            altt_delta: None,
            rewritten_value_level_only: false,
            share_subjoins: false,
            network_delay: 1,
            successor_list_len: 4,
            seed: 0x8101_2008,
            shards: 1,
            workers: None,
            hot_key_threshold: None,
            hot_key_partitions: 8,
            wheel_expiry: true,
            hypercube_cells: 8,
        }
    }
}

/// Construction and quantitative tuning knobs.
///
/// Boolean feature toggles live in the [Features](#features) block below;
/// this block holds the constructors and the setters that take a magnitude
/// (a tick count, a shard count, a cell budget, …).
impl EngineConfig {
    /// The configuration used for the paper's main experiments: RIC-aware
    /// placement with reuse, no windows-specific settings (windows are per
    /// query), base algorithm without ALTT.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A configuration using the given placement strategy and otherwise
    /// default settings.
    pub fn with_placement(placement: PlacementStrategy) -> Self {
        EngineConfig { placement, ..Self::default() }
    }

    /// Enables the ALTT with retention Δ (for the message-delay experiments
    /// and completeness tests).
    pub fn with_altt(mut self, delta: SimTime) -> Self {
        self.altt_delta = Some(delta);
        self
    }

    /// Sets the network delay bound δ.
    pub fn with_delay(mut self, delay: SimTime) -> Self {
        self.network_delay = delay;
        self
    }

    /// Sets the number of event-queue shards the parallel driver uses
    /// (clamped to at least 1). `with_shards(1)` keeps the sequential drain.
    ///
    /// The sharded runtime's rounds need every send to land after the tick
    /// that made it, so it requires `network_delay >= 1`; with a
    /// zero-delay configuration the parallel driver runs the sequential
    /// drain regardless of the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Pins the number of threads the sharded drain's rounds run on
    /// (clamped to at least 1), independent of the shard count. Without
    /// this the drain uses the machine's available parallelism.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the hypercube cell budget (clamped to at least 2 — a one-cell
    /// budget would centralize every hypercube-planned query).
    pub fn with_hypercube_cells(mut self, cells: u32) -> Self {
        self.hypercube_cells = cells.max(2);
        self
    }

    /// Enables hot-key splitting: a key observed to receive at least
    /// `threshold` tuples per RIC window is split into `partitions`
    /// deterministic sub-keys — tuples route to exactly one sub-key,
    /// queries register at all of them, and the answer stream is identical
    /// to the unsplit run while the hot key's load spreads over
    /// `partitions` nodes. `partitions` is clamped to at least 2.
    pub fn with_hot_key_splitting(mut self, threshold: u64, partitions: u32) -> Self {
        self.hot_key_threshold = Some(threshold);
        self.hot_key_partitions = partitions.max(2);
        self
    }
}

/// # Features
///
/// Every boolean toggle has the same shape: `with_<feature>(bool)`, each
/// setter documents which value is the default, and chaining setters is
/// order-independent because each writes exactly one field. Three toggles
/// choose between variants of the protocol the paper itself compares (RIC
/// reuse, value-level-only placement) or a workload-level optimization
/// (sub-join sharing). The fourth, [`with_wheel_expiry`](Self::with_wheel_expiry),
/// is the one remaining implementation choice: its sweep mode is the only
/// one that stays correct when a publisher back-dates tuples behind the
/// clock.
impl EngineConfig {
    /// Selects RIC reuse (Section 7): `true` (the default) piggy-backs RIC
    /// information on rewritten queries and caches it in each node's
    /// candidate table, `false` pays the full RIC-request cost on every
    /// (re-)indexing decision — the ablation discussed in Section 7.
    pub fn with_ric_reuse(mut self, enabled: bool) -> Self {
        self.reuse_ric = enabled;
        self
    }

    /// Selects where rewritten queries may be indexed: `true` restricts
    /// them to value-level keys (the Section 3 base algorithm, which
    /// guarantees eventual completeness without the ALTT), `false` (the
    /// default) allows attribute-level placement when RIC information
    /// favours it (the Section 6 generalisation).
    pub fn with_value_level_only(mut self, enabled: bool) -> Self {
        self.rewritten_value_level_only = enabled;
        self
    }

    /// Selects shared sub-join evaluation (the multi-query optimization):
    /// `true` stores, rewrites and re-indexes structurally identical
    /// queries once, fanning answers back out per subscriber; `false` (the
    /// default) keeps the unshared path that reproduces the paper's
    /// per-query accounting exactly.
    pub fn with_subjoin_sharing(mut self, enabled: bool) -> Self {
        self.share_subjoins = enabled;
        self
    }

    /// Selects the expiry machinery: `true` (the default) pops expired
    /// windowed queries and ALTT entries from each node's timer wheel at
    /// their deadline, `false` leaves dead state in place until a bucket
    /// walk contacts it (the contact-driven sweep: the mode for publishers
    /// that back-date tuples, and the oracle of the expiry suites).
    pub fn with_wheel_expiry(mut self, wheel: bool) -> Self {
        self.wheel_expiry = wheel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ric_aware_with_reuse() {
        let c = EngineConfig::default();
        assert_eq!(c.placement, PlacementStrategy::RicAware);
        assert!(c.reuse_ric);
        assert!(c.altt_delta.is_none());
        assert!(!c.share_subjoins, "sharing is opt-in: the default reproduces the paper");
        assert!(EngineConfig::default().with_subjoin_sharing(true).share_subjoins);
        assert_eq!(c.shards, 1, "the default driver is the single-queue one");
        assert_eq!(EngineConfig::default().with_shards(8).shards, 8);
        assert_eq!(EngineConfig::default().with_shards(0).shards, 1, "shards clamp to >= 1");
        assert_eq!(c.workers, None, "worker count resolves at drain time by default");
        assert_eq!(EngineConfig::default().with_workers(3).workers, Some(3));
        assert_eq!(EngineConfig::default().with_workers(0).workers, Some(1));
        assert!(c.hot_key_threshold.is_none(), "splitting is opt-in: the default is the paper");
        assert!(c.wheel_expiry, "timer-wheel expiry is the default");
        assert!(!EngineConfig::default().with_wheel_expiry(false).wheel_expiry);
        assert_eq!(c.hypercube_cells, 8);
        assert_eq!(EngineConfig::default().with_hypercube_cells(16).hypercube_cells, 16);
        assert_eq!(
            EngineConfig::default().with_hypercube_cells(0).hypercube_cells,
            2,
            "the cell budget clamps to >= 2"
        );
    }

    #[test]
    fn feature_setters_take_explicit_bool() {
        let c = EngineConfig::default()
            .with_ric_reuse(false)
            .with_value_level_only(true)
            .with_subjoin_sharing(true);
        assert!(!c.reuse_ric);
        assert!(c.rewritten_value_level_only);
        assert!(c.share_subjoins);
        let back = c.with_ric_reuse(true).with_value_level_only(false).with_subjoin_sharing(false);
        assert!(back.reuse_ric);
        assert!(!back.rewritten_value_level_only);
        assert!(!back.share_subjoins);
    }

    #[test]
    fn hot_key_splitting_builder_sets_and_clamps() {
        let c = EngineConfig::default().with_hot_key_splitting(25, 4);
        assert_eq!(c.hot_key_threshold, Some(25));
        assert_eq!(c.hot_key_partitions, 4);
        let c = EngineConfig::default().with_hot_key_splitting(1, 0);
        assert_eq!(c.hot_key_partitions, 2, "a split needs at least two partitions");
    }

    #[test]
    fn builders_set_fields() {
        let c = EngineConfig::with_placement(PlacementStrategy::Worst)
            .with_altt(50)
            .with_delay(9)
            .with_ric_reuse(false);
        assert_eq!(c.placement, PlacementStrategy::Worst);
        assert_eq!(c.altt_delta, Some(50));
        assert_eq!(c.network_delay, 9);
        assert!(!c.reuse_ric);
    }

    #[test]
    fn serde_round_trip() {
        let c = EngineConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.placement, c.placement);
        assert_eq!(back.ric_window, c.ric_window);
    }
}
