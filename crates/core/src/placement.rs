//! Placement and dispatch (Sections 6–7): where a query is indexed, and
//! how it gets there.
//!
//! [`dispatch_query_in`] is the complete dispatch pipeline — candidate
//! keys, RIC collection and caching, the choice among the candidates
//! ([`choose_candidate`]), piggy-backing, the send — and
//! [`perform_actions_in`] applies a node handler's actions through it. Both
//! are generic over an [`EffectEnv`], so the simulator's effect phase and
//! the TCP node process run the same code.
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

use crate::config::{EngineConfig, PlacementStrategy};
use crate::error::EngineError;
use crate::messages::{PendingQuery, RJoinMessage, RicInfo};
use crate::procedures::Action;
use crate::ric::RicEntry;
use crate::split::SplitMap;
use crate::traffic_class;
use rand::rngs::StdRng;
use rand::Rng;
use rjoin_dht::{HashedKey, Id};
use rjoin_net::{KeyRouter, SimTime, Transport};
use rjoin_query::{candidate_keys, IndexKey, IndexLevel, RewritePlan};
use rjoin_relation::Catalog;
use std::cell::RefCell;
use std::sync::Arc;

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

/// The engine-global context an effect phase runs against: the transport it
/// sends through, the RIC information it reads, and the randomness its
/// placement decisions draw from.
///
/// The simulator's implementation is one shard's environment (per-decision
/// RNG derived from the triggering message's lineage, RIC rates read
/// through the pure [`RicTracker::rate_at`](crate::RicTracker::rate_at));
/// the TCP node process supplies its own. Keeping the *entire* Sections 6–7
/// dispatch logic in [`dispatch_query_in`], generic over this trait, is
/// what guarantees the two can never drift apart in cost accounting or
/// placement rules.
pub trait EffectEnv {
    /// The transport this environment sends through.
    type Net: Transport<RJoinMessage>;

    /// The transport handle.
    fn net(&mut self) -> &mut Self::Net;

    /// The clock placement decisions and answers are stamped with.
    fn now(&self) -> SimTime;

    /// A still-valid cached RIC estimate from `node`'s candidate table.
    fn cached_ric(&self, node: Id, ring: u64, now: SimTime) -> Option<RicEntry>;

    /// Caches an RIC observation in `node`'s candidate table.
    fn cache_ric(&mut self, node: Id, ring: u64, entry: RicEntry);

    /// The rate of incoming tuples `owner` observed for key `ring` during
    /// the [`RIC_WINDOW`](crate::RIC_WINDOW) ticks ending at `now` (the
    /// content of one RIC request).
    fn observed_rate(&mut self, owner: Id, ring: u64, now: SimTime) -> u64;

    /// Applies the placement strategy, drawing any random tie-breaks from
    /// this environment's randomness source.
    fn choose(
        &mut self,
        candidates: &[IndexLevel],
        rates: &[u64],
        strategy: PlacementStrategy,
    ) -> usize;

    /// The engine's hot-key split registry (read-only during drains).
    fn splits(&self) -> &SplitMap;

    /// Books `extra` additional query copies sent because the chosen key
    /// was split (a query registers at every partition).
    fn note_query_fanout(&mut self, extra: u64);
}

/// Applies the actions a node handler produced: answers travel by
/// `sendDirect`, rewritten queries are re-indexed through the full
/// placement pipeline. Generic over [`EffectEnv`] so the simulator and the
/// TCP node process share it verbatim.
pub fn perform_actions_in<E: EffectEnv>(
    env: &mut E,
    config: &EngineConfig,
    catalog: &Catalog,
    from: Id,
    actions: Vec<Action>,
) -> Result<(), EngineError> {
    for action in actions {
        match action {
            Action::DeliverAnswer { query, owner, row } => {
                let produced_at = env.now();
                env.net().send_direct(
                    from,
                    owner,
                    RJoinMessage::Answer { query, row, produced_at },
                    traffic_class::ANSWER,
                );
            }
            Action::Reindex { pending } => {
                dispatch_query_in(env, config, catalog, from, *pending, false)?;
            }
        }
    }
    Ok(())
}

/// Chooses the index key for a query (input or rewritten) and sends it
/// there, charging RIC traffic according to Sections 6 and 7. The complete
/// dispatch pipeline — candidate derivation, RIC collection and caching,
/// placement, piggy-backing, send — shared by every driver.
pub fn dispatch_query_in<E: EffectEnv>(
    env: &mut E,
    config: &EngineConfig,
    catalog: &Catalog,
    from: Id,
    pending: PendingQuery,
    is_input: bool,
) -> Result<(), EngineError> {
    // A hypercube-planned input query bypasses candidate placement
    // entirely: it registers one replicated copy at every cell of its plan
    // (the Eval side of the hypercube), and all further evaluation is
    // cell-local: a cell joins over its own tuple store and its partials
    // are transient, so nothing ever comes back through dispatch.
    if pending.query.hypercube.is_some() {
        debug_assert!(is_input, "a hypercube cell joins locally, nothing is re-dispatched");
        let hc = pending.query.hypercube.clone().expect("checked above");
        let mut pending = Some(pending);
        let copies = (0..hc.cells)
            .map(|cell| {
                let key = hc.cell_key(cell);
                let p = if cell + 1 == hc.cells {
                    pending.take().expect("taken once, on the last cell")
                } else {
                    pending.as_ref().expect("taken only on the last cell").clone()
                };
                (key.id(), RJoinMessage::IndexQuery { pending: p, key, level: IndexLevel::Value })
            })
            .collect();
        // No RIC exchange happens for cell placement, so the copies travel
        // by `multiSend` to the cell owners. The simulated transports
        // resolve every owner before sending, so a failed lookup installs
        // no cell rather than a partial cube, which would under-answer.
        env.net().multi_send(from, copies, traffic_class::QUERY_INDEX)?;
        return Ok(());
    }
    DISPATCH_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        place_and_send(env, config, catalog, from, pending, is_input, &mut scratch)
    })
}

/// The buffers one dispatch fills and the next one reuses: the candidates'
/// levels, their interned keys and their rates, position for position, and
/// the order the RIC chain visits them in.
#[derive(Default)]
struct DispatchScratch {
    levels: Vec<IndexLevel>,
    hashed: Vec<HashedKey>,
    rates: Vec<u64>,
    ric_order: Vec<(u64, usize)>,
}

thread_local! {
    static DISPATCH_SCRATCH: RefCell<DispatchScratch> = RefCell::new(DispatchScratch::default());
}

impl DispatchScratch {
    /// Loads the candidate keys of `pending`'s rewritten query in
    /// [`candidate_keys`] order: from its plan's per-mask memo once tuples
    /// are bound (a plan is compiled here only for a query that crossed a
    /// wire and was dispatched without being stored), from the input query
    /// itself otherwise — input queries are dispatched before any plan
    /// exists.
    fn load_candidates(
        &mut self,
        pending: &PendingQuery,
        catalog: &Catalog,
    ) -> Result<(), EngineError> {
        self.levels.clear();
        self.hashed.clear();
        let compiled;
        let first_relation = if pending.is_input() {
            let candidates = candidate_keys(&pending.query);
            self.levels.extend(candidates.iter().map(IndexKey::level));
            self.hashed.extend(candidates.iter().map(IndexKey::hashed));
            pending.query.relations().first()
        } else {
            let plan = match pending.plan() {
                Some(plan) => plan,
                None => {
                    compiled = RewritePlan::new(Arc::clone(&pending.query.query), catalog)?;
                    &compiled
                }
            };
            for key in plan.keys(pending.bound.mask()).iter() {
                self.levels.push(key.level());
                self.hashed.push(key.hashed(plan, &pending.bound));
            }
            plan.unbound_relations(pending.bound.mask()).next()
        };
        if self.hashed.is_empty() {
            // A query with no conjuncts left but remaining relations (e.g. a
            // single-relation scan): fall back to an attribute-level key of
            // the first remaining relation.
            let schema = first_relation.and_then(|rel| catalog.require_schema(rel).ok());
            let key = schema.and_then(|s| Some(IndexKey::attribute(s.relation(), s.attribute(0)?)));
            let key = key.ok_or(EngineError::NoCandidateKey)?;
            self.levels.push(key.level());
            self.hashed.push(key.hashed());
        }
        Ok(())
    }
}

/// [`dispatch_query_in`] for a pipeline-planned query: candidate keys, RIC
/// collection and caching, placement, piggy-backing, send.
fn place_and_send<E: EffectEnv>(
    env: &mut E,
    config: &EngineConfig,
    catalog: &Catalog,
    from: Id,
    pending: PendingQuery,
    is_input: bool,
    scratch: &mut DispatchScratch,
) -> Result<(), EngineError> {
    // Each candidate is interned exactly once: the ring identifier computed
    // here serves the rates loop, the candidate table, the piggy-backed RIC
    // information *and* the final send — no key is hashed twice.
    scratch.load_candidates(&pending, catalog)?;
    let DispatchScratch { levels, hashed, rates, ric_order } = scratch;
    if !is_input && config.rewritten_value_level_only && levels.contains(&IndexLevel::Value) {
        // Section 3 base algorithm: rewritten queries always go to the
        // value level (each rewrite introduces at least one value-level
        // candidate, so the filtered list is non-empty for chain joins).
        let mut at_value_level = levels.iter().map(|level| *level == IndexLevel::Value);
        hashed.retain(|_| at_value_level.next().expect("levels and keys are parallel"));
        levels.retain(|level| *level == IndexLevel::Value);
    }

    let strategy = config.placement;
    let now = env.now();
    rates.clear();
    rates.resize(hashed.len(), 0);

    if matches!(strategy, PlacementStrategy::RicAware | PlacementStrategy::Worst) {
        clockwise_from(from, hashed, ric_order);
        collect_rates(env, config, from, hashed, rates, ric_order)?;
    }

    let chosen = env.choose(levels, rates, strategy);
    let level = levels[chosen];
    let key = hashed[chosen].clone();
    let class = if is_input { traffic_class::QUERY_INDEX } else { traffic_class::EVAL };

    let carried_ric: Vec<RicInfo> =
        if !is_input && config.reuse_ric && strategy == PlacementStrategy::RicAware {
            hashed
                .iter()
                .zip(rates.iter())
                .map(|(k, r)| RicInfo { ring: k.ring(), rate: *r, observed_at: now })
                .collect()
        } else {
            Vec::new()
        };

    let send_copy = |env: &mut E, sub: HashedKey, pending: PendingQuery, ric: Vec<RicInfo>| {
        let sub_id = sub.id();
        let msg = if is_input {
            RJoinMessage::IndexQuery { pending, key: sub, level }
        } else {
            RJoinMessage::Eval { pending, key: sub, level, carried_ric: ric }
        };
        if strategy == PlacementStrategy::RicAware {
            // After the RIC exchange the chooser knows the address of every
            // candidate node (for split candidates: of every partition
            // owner), so each copy travels in one hop.
            let owner = env.net().owner_of(sub_id)?;
            env.net().send_direct(from, owner, msg, class);
        } else {
            env.net().send(from, sub_id, msg, class)?;
        }
        Ok::<(), EngineError>(())
    };
    // Share routing for split keys: the query registers at its identity
    // column's cells (tuples visit their content row's cells, and the two
    // sets intersect in exactly one sub-key), so every (query, tuple) pair
    // still meets exactly once and the answer stream is identical to the
    // unsplit run. Replicated copies are the split's cost, booked as
    // fan-out. The last copy moves the pending query; earlier ones clone it
    // (the unsplit common case never clones).
    let mut cells = env.splits().route_query(&key, pending.query.id).unwrap_or_default();
    env.note_query_fanout(cells.len().saturating_sub(1) as u64);
    let last = cells.pop().unwrap_or(key);
    for sub in cells {
        send_copy(env, sub, pending.clone(), carried_ric.clone())?;
    }
    send_copy(env, last, pending, carried_ric)
}

/// Orders the candidates clockwise from `from` into `order` (`(distance,
/// index)` pairs), the order the chained RIC request visits them in: a
/// chain that follows the ring goes round it at most once, where one in
/// candidate order wraps it between candidates.
fn clockwise_from(from: Id, hashed: &[HashedKey], order: &mut Vec<(u64, usize)>) {
    order.clear();
    order.extend(hashed.iter().enumerate().map(|(i, hkey)| (hkey.id().0.wrapping_sub(from.0), i)));
    order.sort_unstable();
}

/// Fills `rates` with every candidate's rate (Sections 6 and 7): cached RIC
/// information where the candidate table allows it, otherwise one chained
/// RIC request that visits the candidates in `order` (`(_, index)` pairs
/// into `hashed` and `rates`). Each rate lands in its candidate's slot, so
/// the order moves RIC messages, never the rates or the placement.
fn collect_rates<E: EffectEnv>(
    env: &mut E,
    config: &EngineConfig,
    from: Id,
    hashed: &[HashedKey],
    rates: &mut [u64],
    order: &[(u64, usize)],
) -> Result<(), EngineError> {
    let strategy = config.placement;
    let now = env.now();
    let mut prev_hop = from;
    let mut requests = 0usize;
    for &(_, i) in order {
        let (hkey, slot) = (&hashed[i], &mut rates[i]);
        // Reuse cached RIC information when allowed (Section 7). Cached
        // entries for split candidates are always split-aware: both
        // paths cache under the base ring identifier, and activation
        // purges every pre-split entry for the key, so whatever is
        // cached here was computed from the per-cell rates below.
        if strategy == PlacementStrategy::RicAware && config.reuse_ric {
            if let Some(entry) = env.cached_ric(from, hkey.ring(), now) {
                *slot = entry.rate;
                continue;
            }
        }
        // Split-aware candidate rate: for a split hot key the unit that
        // carries load is one *cell*, so the candidate's effective
        // rate is the maximum over its sub-keys (see
        // `placement::split_effective_rate`) — which is what makes a
        // freshly split key attractive again. Each cell owner is one
        // more chained RIC hop.
        let parts = env.splits().get(hkey.ring()).map(|e| e.grid.cells());
        let rate = match parts {
            None => {
                let owner = if strategy == PlacementStrategy::RicAware {
                    // Chained RIC request: previous hop forwards the
                    // request to the next candidate (k * O(log N)
                    // messages total); the route ends at its owner.
                    requests += 1;
                    env.net().charge_route(prev_hop, hkey.id(), traffic_class::RIC)?.owner
                } else {
                    env.net().owner_of(hkey.id())?
                };
                prev_hop = owner;
                env.observed_rate(owner, hkey.ring(), now)
            }
            Some(parts) => {
                let mut partition_rates = Vec::with_capacity(parts as usize);
                for p in 0..parts {
                    let sub = hkey.split_part(p, parts);
                    let owner = env.net().owner_of(sub.id())?;
                    partition_rates.push(env.observed_rate(owner, sub.ring(), now));
                    if strategy == PlacementStrategy::RicAware {
                        env.net().charge_route(prev_hop, sub.id(), traffic_class::RIC)?;
                        prev_hop = owner;
                        requests += 1;
                    }
                }
                split_effective_rate(&partition_rates)
            }
        };
        *slot = rate;
        if strategy == PlacementStrategy::RicAware && config.reuse_ric {
            env.cache_ric(from, hkey.ring(), RicEntry { rate, observed_at: now });
        }
        // The Worst baseline uses oracle knowledge: no traffic is
        // charged for it (it exists only to bound the design space).
    }
    if strategy == PlacementStrategy::RicAware && requests > 0 {
        // The last contacted candidate returns the collected RIC
        // information (and every candidate's address) in one hop.
        env.net().charge_direct(prev_hop, traffic_class::RIC);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RJoinEngine;
    use crate::shard_driver::ShardEnv;
    use rand::SeedableRng;
    use rjoin_net::root_lineage;

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

    /// One dispatch's rate collection on a fresh 64-node engine in which
    /// every candidate's owner has seen `i % 3` arrivals under candidate
    /// `i`: the rates, the candidate the placement chooses and the RIC
    /// messages charged, with the chain visiting the candidates in the
    /// order `order` builds.
    fn ric_walk(
        from_index: usize,
        keys: &[HashedKey],
        order: impl Fn(Id, &[HashedKey], &mut Vec<(u64, usize)>),
    ) -> (Vec<u64>, usize, u64) {
        let config = EngineConfig::default();
        let mut engine = RJoinEngine::simulated(config.clone(), Catalog::new(), 64);
        engine.advance_time(10);
        let now = engine.now();
        for (i, key) in keys.iter().enumerate() {
            let owner = engine.network.owner_of(key.id()).unwrap();
            for _ in 0..i % 3 {
                engine.node_state(owner).unwrap().ric().record_arrival_bounded(
                    key.ring(),
                    now,
                    1_000,
                );
            }
        }
        let from = engine.node_ids()[from_index];
        let levels: Vec<IndexLevel> = (0..keys.len())
            .map(|i| if i % 2 == 0 { IndexLevel::Value } else { IndexLevel::Attribute })
            .collect();
        let mut visit = Vec::new();
        order(from, keys, &mut visit);
        let mut rates = vec![0; keys.len()];
        let shard = engine.network.shard_of(from);
        let mut env = ShardEnv {
            handle: &mut engine.network.root_handle(from),
            nodes: &mut engine.shards[shard].nodes,
            ric_dir: &engine.ric_dir,
            splits: &engine.splits,
            query_fanout: &mut engine.split_counters.query_fanout,
            engine_seed: config.seed,
            lineage: root_lineage(0),
            decisions: 0,
        };
        collect_rates(&mut env, &config, from, keys, &mut rates, &visit).unwrap();
        let chosen = env.choose(&levels, &rates, config.placement);
        (rates, chosen, engine.traffic().total_sent_class(traffic_class::RIC))
    }

    /// Visiting the candidates clockwise from the dispatcher collects the
    /// same rates and leads to the same placement as visiting them in
    /// candidate order, and charges fewer RIC messages over the sixteen
    /// dispatches. Chord hop counts are not monotone in ring distance, so
    /// one dispatch may pay a hop more than the candidate-order chain; the
    /// saving is in the total.
    #[test]
    fn ring_order_ric_walk_moves_messages_not_placement() {
        let (mut ring_total, mut listed_total) = (0, 0);
        for round in 0..16 {
            let keys: Vec<HashedKey> =
                (0..2 + round % 7).map(|i| HashedKey::new(format!("R{round}+A+{i}"))).collect();
            let from_index = round * 5 % 64;
            let (ring_rates, ring_chosen, ring_msgs) = ric_walk(from_index, &keys, clockwise_from);
            let (listed_rates, listed_chosen, listed_msgs) =
                ric_walk(from_index, &keys, |_, keys, order| {
                    order.extend((0..keys.len()).map(|i| (0, i)));
                });
            assert_eq!(ring_rates, listed_rates, "round {round}: the order moves no rate");
            assert!(ring_rates.iter().any(|&rate| rate > 0), "round {round}: rates are observed");
            assert_eq!(ring_chosen, listed_chosen, "round {round}: the order moves no placement");
            ring_total += ring_msgs;
            listed_total += listed_msgs;
        }
        assert!(
            ring_total < listed_total,
            "the clockwise chain charged {ring_total} RIC messages, candidate order {listed_total}"
        );
    }
}
