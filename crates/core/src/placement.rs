//! Placement and dispatch (Sections 6–7): where a query is indexed, and
//! how it gets there.
//!
//! [`dispatch_query_in`] is the complete dispatch pipeline — candidate
//! keys, RIC collection and caching, the choice among the candidates
//! ([`choose_candidate`]), piggy-backing, the send — and
//! [`perform_actions_in`] applies a node handler's actions through it. Both
//! run against one [`DispatchEnv`] — the transport, the dispatching node's
//! state, the RIC trackers the process can read, the hot-key splits and the
//! tie-break seed — so the simulator's effect phase, the TCP node process
//! and the TCP client run the same code; they differ only in which
//! trackers they can read.
//!
//! # Asking only what can change the choice
//!
//! RIC-aware placement learns a candidate's rate from the dispatcher's
//! candidate table (Section 7) or by asking the candidate's owner on one
//! chained RIC request (Section 6). A rewritten query's dispatch reads the
//! table for every candidate first, and then asks only while an answer can
//! still change [`choose_candidate`]'s choice: never for a lone candidate,
//! and no further once a read candidate sits at the floor — rate 0, and
//! value level or no value-level candidate still unasked. The choice is
//! made among the asked candidates, so it lies in the tie pool that asking every
//! candidate would give, for no more RIC messages. Only rates that were
//! read are cached and piggy-backed. An input query still asks every
//! uncached candidate: its placement decides where a stream's queries are
//! installed. Each node counts where its dispatches' rates came from in
//! [`RicCounters`].
//!
//! A rate whose owner's tracker the process cannot read — over TCP, that
//! of any candidate another node owns — is unknown. It counts as 0 in the
//! choice, but it is never cached, never piggy-backed and never settles the
//! choice at the floor, so the next dispatch asks again.
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
use crate::node_state::NodeState;
use crate::procedures::Action;
use crate::ric::{RicEntry, RicTracker, RIC_WINDOW};
use crate::split::SplitMap;
use crate::traffic_class;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rjoin_dht::{HashedKey, Id, RingBuildHasher};
use rjoin_metrics::RicCounters;
use rjoin_net::{lineage_seed, Lineage, SimTime, Transport};
use rjoin_query::{IndexKey, IndexLevel};
use rjoin_relation::Catalog;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
/// and `rates` are parallel slices: the candidates whose rate is known (a
/// rewritten query's dispatch leaves out the ones it did not need to ask).
/// Returns the index of the chosen candidate.
///
/// * [`PlacementStrategy::RicAware`] — lowest rate wins; ties are broken in
///   favour of *value-level* candidates (Section 3 indexes rewritten queries
///   at the value level by default because it both spreads load better and
///   guarantees that an earlier-stored tuple can still be found), then
///   uniformly at random among the remaining tie pool. Rates are never
///   below 0, so once a known candidate has rate 0 and is at the value
///   level, or no value-level rate is unknown, the choice among the known
///   candidates lies in the full tie pool whatever the unknown rates are:
///   the floor at which dispatch stops asking;
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

/// Every node's RIC tracker, by node: what the simulator's dispatches read
/// a remote candidate's rate from (each tracker behind its own lock). The
/// engine builds it at construction and keeps it in step with membership.
pub(crate) type RicDirectory = HashMap<Id, Arc<Mutex<RicTracker>>, RingBuildHasher>;

/// What one dispatch runs against, in the simulator and over TCP alike: the
/// transport it sends through, the dispatching node's state (its candidate
/// table, its [`RicCounters`] and its own RIC tracker), the RIC trackers of
/// the other nodes that this process can read, the hot-key splits, a count
/// of the extra copies split keys cost, and the seed of its tie-breaks.
///
/// The simulator reads every node's tracker through the pure
/// [`RicTracker::rate_at`], so its rates are true. A TCP node process reads
/// only its own tracker, and the cluster client, which has no node state,
/// reads none. A rate the process cannot read is *unknown*: it counts as 0
/// in the dispatch's choice, but it is never cached, never piggy-backed
/// and never settles the choice at the floor.
///
/// Each tie-break draws from a fresh RNG seeded by `(seed, lineage,
/// decision index)`: in the simulator the lineage is the triggering
/// delivery's, so a decision does not depend on execution order or shard
/// count; a TCP process passes a lineage of its own (see
/// `rjoin_transport`).
pub struct DispatchEnv<'a, T: Transport<RJoinMessage>> {
    net: &'a mut T,
    /// The dispatching node's state; `None` at the TCP client.
    state: Option<&'a mut NodeState>,
    /// The trackers readable besides the dispatcher's own (`None`: none).
    trackers: Option<&'a RicDirectory>,
    /// The engine's hot-key split registry (`None` over TCP, which never
    /// splits). Frozen while the rounds run: splits only activate at
    /// quiescence.
    splits: Option<&'a SplitMap>,
    /// Extra query copies sent to partitions of split keys.
    pub(crate) fanout: u64,
    seed: u64,
    lineage: Lineage,
    /// Placement decisions made so far.
    decisions: u64,
}

impl<'a, T: Transport<RJoinMessage>> DispatchEnv<'a, T> {
    /// An environment that reads no RIC tracker but the dispatching node's
    /// own, through `state`, and sees no split key: a TCP node process's,
    /// or the cluster client's with no `state`.
    pub fn new(
        net: &'a mut T,
        state: Option<&'a mut NodeState>,
        seed: u64,
        lineage: Lineage,
    ) -> Self {
        DispatchEnv {
            net,
            state,
            trackers: None,
            splits: None,
            fanout: 0,
            seed,
            lineage,
            decisions: 0,
        }
    }

    /// The simulator's environment: every node's tracker is readable and
    /// the engine's split registry applies.
    pub(crate) fn simulated(
        net: &'a mut T,
        state: Option<&'a mut NodeState>,
        trackers: &'a RicDirectory,
        splits: &'a SplitMap,
        seed: u64,
        lineage: Lineage,
    ) -> Self {
        DispatchEnv {
            trackers: Some(trackers),
            splits: Some(splits),
            ..Self::new(net, state, seed, lineage)
        }
    }

    fn now(&self) -> SimTime {
        self.net.now()
    }

    /// A still-valid entry of the dispatcher's candidate table.
    fn cached_ric(&self, ring: u64, now: SimTime) -> Option<RicEntry> {
        self.state.as_ref()?.cached_ric(ring, now)
    }

    /// The rate of incoming tuples `owner` observed for key `ring` during
    /// the [`RIC_WINDOW`] ticks ending at `now` (the content of one RIC
    /// request), or `None` if this process cannot read `owner`'s tracker.
    fn observed_rate(&self, owner: Id, ring: u64, now: SimTime) -> Option<u64> {
        match &self.state {
            Some(state) if state.id == owner => Some(state.ric().rate_at(ring, now, RIC_WINDOW)),
            _ => {
                let tracker = self.trackers?.get(&owner)?;
                Some(tracker.lock().expect("ric lock").rate_at(ring, now, RIC_WINDOW))
            }
        }
    }

    /// Applies the placement strategy, drawing any random tie-break from
    /// this decision's RNG.
    fn choose(
        &mut self,
        candidates: &[IndexLevel],
        rates: &[u64],
        strategy: PlacementStrategy,
    ) -> usize {
        let seed = lineage_seed(self.seed, self.lineage, self.decisions);
        self.decisions += 1;
        choose_candidate(candidates, rates, strategy, &mut StdRng::seed_from_u64(seed))
    }

    /// The number of cells `ring` is split into, if it is split.
    fn split_cells(&self, ring: u64) -> Option<u32> {
        self.splits?.get(ring).map(|entry| entry.grid.cells())
    }
}

/// Applies the actions a node handler produced: answers travel by
/// `sendDirect`, rewritten queries are re-indexed through the full
/// placement pipeline. The simulator and the TCP node process share it
/// verbatim.
pub fn perform_actions_in<T: Transport<RJoinMessage>>(
    env: &mut DispatchEnv<'_, T>,
    config: &EngineConfig,
    catalog: &Catalog,
    from: Id,
    actions: Vec<Action>,
) -> Result<(), EngineError> {
    for action in actions {
        match action {
            Action::DeliverAnswer { query, owner, row } => {
                let produced_at = env.now();
                env.net.send_direct(
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
pub fn dispatch_query_in<T: Transport<RJoinMessage>>(
    env: &mut DispatchEnv<'_, T>,
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
        env.net.multi_send(from, copies, traffic_class::QUERY_INDEX)?;
        return Ok(());
    }
    DISPATCH_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        place_and_send(env, config, catalog, from, pending, is_input, &mut scratch)
    })
}

/// The buffers one dispatch fills and the next one reuses: the candidates'
/// levels, their interned keys, their rates and what the dispatch learned
/// of each, position for position, and the order the RIC chain visits them
/// in.
#[derive(Default)]
struct DispatchScratch {
    levels: Vec<IndexLevel>,
    hashed: Vec<HashedKey>,
    rates: Vec<u64>,
    learned: Vec<Learned>,
    ric_order: Vec<(u64, usize)>,
}

/// What a dispatch learned of one candidate's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Learned {
    /// Not asked: the candidate is left out of the choice.
    Unasked,
    /// Served by the candidate table or read from its owner's tracker: the
    /// rate is in the choice, cached, piggy-backed, and can settle the
    /// choice at the floor.
    Read,
    /// Asked, but its owner's tracker is not readable here: the rate is
    /// unknown and counts as 0 in the choice, and in nothing else.
    Unreadable,
}

thread_local! {
    static DISPATCH_SCRATCH: RefCell<DispatchScratch> = RefCell::new(DispatchScratch::default());
}

impl DispatchScratch {
    /// Loads the candidate keys of `pending`'s rewritten query (an input
    /// query's too: nothing bound), in order, from its plan's per-mask memo.
    fn load_candidates(
        &mut self,
        pending: &PendingQuery,
        catalog: &Catalog,
    ) -> Result<(), EngineError> {
        self.levels.clear();
        self.hashed.clear();
        let (plan, bound) = (pending.plan(), &pending.bound);
        for key in plan.keys(bound.mask()).iter() {
            self.levels.push(key.level());
            self.hashed.push(key.hashed(plan, bound));
        }
        if self.hashed.is_empty() {
            // A query with no conjuncts left but remaining relations (e.g. a
            // single-relation scan): fall back to an attribute-level key of
            // the first remaining relation.
            let first_relation = plan.unbound_relations(bound.mask()).next();
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
fn place_and_send<T: Transport<RJoinMessage>>(
    env: &mut DispatchEnv<'_, T>,
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
    let DispatchScratch { levels, hashed, .. } = scratch;
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
    scratch.rates.clear();
    scratch.rates.resize(scratch.hashed.len(), 0);
    scratch.learned.clear();
    scratch.learned.resize(scratch.hashed.len(), Learned::Read);

    if matches!(strategy, PlacementStrategy::RicAware | PlacementStrategy::Worst) {
        clockwise_from(from, &scratch.hashed, &mut scratch.ric_order);
        // Only a rewritten query's RIC-aware dispatch stops asking once no
        // answer can change its choice. An input query collects every rate:
        // its placement decides where the stream's queries are installed.
        let stop_at_floor = !is_input && strategy == PlacementStrategy::RicAware;
        scratch.collect_rates(env, config, from, stop_at_floor)?;
        scratch.drop_unasked();
    }
    let chosen = env.choose(&scratch.levels, &scratch.rates, strategy);
    let level = scratch.levels[chosen];
    let key = scratch.hashed[chosen].clone();
    let class = if is_input { traffic_class::QUERY_INDEX } else { traffic_class::EVAL };
    let carried_ric: Vec<RicInfo> =
        if !is_input && config.reuse_ric && strategy == PlacementStrategy::RicAware {
            scratch.carried_ric(now)
        } else {
            Vec::new()
        };

    let send_copy = |env: &mut DispatchEnv<'_, T>, sub: HashedKey, pending, ric| {
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
            let owner = env.net.owner_of(sub_id)?;
            env.net.send_direct(from, owner, msg, class);
        } else {
            env.net.send(from, sub_id, msg, class)?;
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
    let mut cells = env
        .splits
        .and_then(|splits| splits.route_query(&key, pending.query.id))
        .unwrap_or_default();
    env.fanout += cells.len().saturating_sub(1) as u64;
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

impl DispatchScratch {
    /// Learns the candidates' rates (Sections 6 and 7) into `rates`,
    /// marking in `learned` how it learned each.
    ///
    /// It reads the candidate table for every candidate first (Section 7's
    /// reuse), then sends one chained RIC request that visits the uncached
    /// candidates in `ric_order` (`(_, index)` pairs). Each rate lands in
    /// its candidate's slot, so the order moves RIC messages, never the
    /// rates or the placement. The last candidate contacted replies. A
    /// rate whose owner's tracker this process cannot read stays 0 and
    /// [`Learned::Unreadable`]: it is not cached.
    ///
    /// With `stop_at_floor` (a rewritten query's RIC-aware dispatch) the
    /// chain stops asking as soon as no answer can change the choice of
    /// [`choose_candidate`]: when there is a single candidate, or when a
    /// read candidate sits at the floor — rate 0 (no rate is lower), and
    /// value level or no value-level candidate still unasked (value level
    /// wins ties). The candidates it leaves unasked stay out of the choice,
    /// the candidate table and the piggy-backed RIC information. The choice
    /// then lands in the tie pool that asking every candidate would give,
    /// and the chain is a prefix of that full chain, so it charges no more
    /// RIC messages. The dispatch is counted in the dispatcher's
    /// [`RicCounters`].
    fn collect_rates<T: Transport<RJoinMessage>>(
        &mut self,
        env: &mut DispatchEnv<'_, T>,
        config: &EngineConfig,
        from: Id,
        stop_at_floor: bool,
    ) -> Result<(), EngineError> {
        let DispatchScratch { levels, hashed, rates, learned, ric_order } = self;
        let strategy = config.placement;
        let reuse = strategy == PlacementStrategy::RicAware && config.reuse_ric;
        let now = env.now();
        let mut count =
            RicCounters { dispatches: 1, candidates: hashed.len() as u64, ..RicCounters::new() };
        learned.fill(Learned::Unasked);
        if reuse {
            // Cached entries for split candidates are always split-aware:
            // both paths cache under the base ring identifier, and
            // activation purges every pre-split entry for the key, so
            // whatever is cached here was computed from the per-cell rates
            // below.
            for (i, hkey) in hashed.iter().enumerate() {
                if let Some(entry) = env.cached_ric(hkey.ring(), now) {
                    rates[i] = entry.rate;
                    learned[i] = Learned::Read;
                    count.served += 1;
                }
            }
        }
        let mut prev_hop = from;
        let mut requests = 0usize;
        for &(_, i) in ric_order.iter() {
            if learned[i] != Learned::Unasked {
                continue;
            }
            if stop_at_floor && (hashed.len() == 1 || at_floor(levels, rates, learned)) {
                break;
            }
            let hkey = &hashed[i];
            // Split-aware candidate rate: for a split hot key the unit that
            // carries load is one *cell*, so the candidate's effective
            // rate is the maximum over its sub-keys (see
            // `placement::split_effective_rate`) — which is what makes a
            // freshly split key attractive again. Each cell owner is one
            // more chained RIC hop.
            let rate = match env.split_cells(hkey.ring()) {
                None => {
                    let owner = if strategy == PlacementStrategy::RicAware {
                        // Chained RIC request: previous hop forwards the
                        // request to the next candidate (k * O(log N)
                        // messages total); the route ends at its owner.
                        requests += 1;
                        env.net.charge_route(prev_hop, hkey.id(), traffic_class::RIC)?.owner
                    } else {
                        // The Worst baseline uses oracle knowledge: no
                        // traffic is charged for it (it exists only to
                        // bound the design space).
                        env.net.owner_of(hkey.id())?
                    };
                    prev_hop = owner;
                    env.observed_rate(owner, hkey.ring(), now)
                }
                Some(parts) => {
                    let mut partition_rates = Vec::with_capacity(parts as usize);
                    let mut readable = true;
                    for p in 0..parts {
                        let sub = hkey.split_part(p, parts);
                        let owner = env.net.owner_of(sub.id())?;
                        match env.observed_rate(owner, sub.ring(), now) {
                            Some(rate) => partition_rates.push(rate),
                            None => readable = false,
                        }
                        if strategy == PlacementStrategy::RicAware {
                            env.net.charge_route(prev_hop, sub.id(), traffic_class::RIC)?;
                            prev_hop = owner;
                            requests += 1;
                        }
                    }
                    readable.then(|| split_effective_rate(&partition_rates))
                }
            };
            count.asked += 1;
            let Some(rate) = rate else {
                learned[i] = Learned::Unreadable;
                continue;
            };
            rates[i] = rate;
            learned[i] = Learned::Read;
            if let Some(state) = env.state.as_mut().filter(|_| reuse) {
                state.cache_ric(hkey.ring(), RicEntry { rate, observed_at: now });
            }
        }
        if strategy == PlacementStrategy::RicAware && requests > 0 {
            // The last contacted candidate returns the collected RIC
            // information (and every candidate's address) in one hop.
            env.net.charge_direct(prev_hop, traffic_class::RIC);
        }
        if stop_at_floor {
            count.unasked = count.candidates - count.served - count.asked;
            if let Some(state) = env.state.as_mut() {
                state.note_ric(&count);
            }
        }
        Ok(())
    }

    /// Drops the candidates [`collect_rates`](Self::collect_rates) left
    /// unasked, so the choice sees learned rates only. A lone candidate
    /// nobody asked stays: it is chosen without a rate.
    fn drop_unasked(&mut self) {
        let DispatchScratch { levels, hashed, rates, learned, .. } = self;
        let unasked = learned.iter().filter(|l| **l == Learned::Unasked).count();
        if unasked > 0 && unasked < learned.len() {
            retain_asked(levels, learned);
            retain_asked(hashed, learned);
            retain_asked(rates, learned);
            learned.retain(|l| *l != Learned::Unasked);
        }
    }

    /// The rates this dispatch read, observed at `now`, as the chosen
    /// query carries them (Section 7's piggy-backing): a rate that was not
    /// read, or a lone candidate nobody asked, carries nothing.
    fn carried_ric(&self, now: SimTime) -> Vec<RicInfo> {
        (0..self.hashed.len())
            .filter(|&i| self.learned[i] == Learned::Read)
            .map(|i| RicInfo { ring: self.hashed[i].ring(), rate: self.rates[i], observed_at: now })
            .collect()
    }
}

/// Keeps the items of `items` whose candidate in the parallel `learned` was
/// served or asked.
fn retain_asked<T>(items: &mut Vec<T>, learned: &[Learned]) {
    let mut keep = learned.iter();
    items.retain(|_| *keep.next().expect("parallel to the candidates") != Learned::Unasked);
}

/// Whether a read candidate sits at the floor no answer can go below: its
/// rate is 0, and it is at the value level or no value-level candidate is
/// still unasked. [`choose_candidate`]'s RIC-aware choice among the asked
/// candidates then lands in the tie pool of all of them.
fn at_floor(levels: &[IndexLevel], rates: &[u64], learned: &[Learned]) -> bool {
    let value_unasked =
        (0..levels.len()).any(|i| learned[i] == Learned::Unasked && levels[i] == IndexLevel::Value);
    (0..levels.len()).any(|i| {
        learned[i] == Learned::Read
            && rates[i] == 0
            && (levels[i] == IndexLevel::Value || !value_unasked)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RJoinEngine;
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

    /// A dispatcher's view of one rewritten query's candidates: candidate
    /// `i` is at level `levels[i]`, its owner has seen `rates[i]` arrivals
    /// under its key, and the dispatcher's candidate table holds that rate
    /// if `cached[i]`. The dispatch can read every owner's tracker if
    /// `remote_readable`, as in the simulator, else only its own, as over
    /// TCP.
    struct Fixture {
        keys: Vec<HashedKey>,
        levels: Vec<IndexLevel>,
        rates: Vec<u64>,
        cached: Vec<bool>,
        from_index: usize,
        remote_readable: bool,
    }

    /// What one dispatch's rate collection did.
    #[derive(Debug)]
    struct Walk {
        /// `(ring, rate)` of every candidate whose rate was read, in
        /// candidate order.
        read: Vec<(u64, u64)>,
        /// The rings of the candidates the dispatcher owns itself.
        own: Vec<u64>,
        /// The rings the dispatcher's candidate table holds afterwards.
        cached: Vec<u64>,
        /// The rings of the rates the chosen query would carry.
        carried: Vec<u64>,
        /// The ring of the chosen candidate.
        chosen: u64,
        /// RIC messages charged.
        ric_msgs: u64,
        /// The dispatcher's RIC counters after the dispatch.
        counters: RicCounters,
    }

    /// One rewritten query's RIC-aware rate collection and choice on a
    /// fresh 64-node engine set up as `fixture` says, with the chain
    /// visiting the candidates in the order `order` builds.
    fn ric_walk(
        fixture: &Fixture,
        stop_at_floor: bool,
        order: impl Fn(Id, &[HashedKey], &mut Vec<(u64, usize)>),
    ) -> Walk {
        let config = EngineConfig::default();
        let mut engine = RJoinEngine::simulated(config.clone(), Catalog::new(), 64);
        engine.advance_time(10);
        let now = engine.now();
        let from = engine.node_ids()[fixture.from_index];
        let shard = engine.network.shard_of(from);
        let mut own = Vec::new();
        for (i, key) in fixture.keys.iter().enumerate() {
            let owner = engine.network.owner_of(key.id()).unwrap();
            if owner == from {
                own.push(key.ring());
            }
            for _ in 0..fixture.rates[i] {
                engine.node_state(owner).unwrap().ric().record_arrival_bounded(
                    key.ring(),
                    now,
                    1_000,
                );
            }
            if fixture.cached[i] {
                let entry = RicEntry { rate: fixture.rates[i], observed_at: now };
                engine.shards[shard].nodes.get_mut(&from).unwrap().cache_ric(key.ring(), entry);
            }
        }
        let n = fixture.keys.len();
        let mut scratch = DispatchScratch {
            levels: fixture.levels.clone(),
            hashed: fixture.keys.clone(),
            rates: vec![0; n],
            learned: vec![Learned::Read; n],
            ric_order: Vec::new(),
        };
        order(from, &scratch.hashed, &mut scratch.ric_order);
        let mut handle = engine.network.root_handle(from);
        let state = engine.shards[shard].nodes.get_mut(&from);
        let mut env = if fixture.remote_readable {
            let (dir, splits) = (&engine.ric_dir, &engine.splits);
            DispatchEnv::simulated(&mut handle, state, dir, splits, config.seed, root_lineage(0))
        } else {
            DispatchEnv::new(&mut handle, state, config.seed, root_lineage(0))
        };
        scratch.collect_rates(&mut env, &config, from, stop_at_floor).unwrap();
        scratch.drop_unasked();
        let chosen = env.choose(&scratch.levels, &scratch.rates, config.placement);
        let read = (0..scratch.hashed.len())
            .filter(|&i| scratch.learned[i] == Learned::Read)
            .map(|i| (scratch.hashed[i].ring(), scratch.rates[i]))
            .collect();
        let carried = scratch.carried_ric(now).iter().map(|info| info.ring).collect();
        let table = engine.node_state(from).unwrap();
        let cached = fixture
            .keys
            .iter()
            .map(HashedKey::ring)
            .filter(|&r| table.cached_ric(r, now).is_some());
        Walk {
            read,
            own,
            cached: cached.collect(),
            carried,
            chosen: scratch.hashed[chosen].ring(),
            ric_msgs: engine.traffic().total_sent_class(traffic_class::RIC),
            counters: engine.node_state(from).unwrap().ric_counters(),
        }
    }

    /// The rings of the candidates RIC-aware placement may choose once
    /// every rate is known: the minima, narrowed to the value-level ones if
    /// any minimum is at the value level.
    fn full_tie_pool(keys: &[HashedKey], levels: &[IndexLevel], rates: &[u64]) -> Vec<u64> {
        let min = *rates.iter().min().unwrap();
        let minima: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] == min).collect();
        let value_minima: Vec<usize> =
            minima.iter().copied().filter(|&i| levels[i] == IndexLevel::Value).collect();
        let pool = if value_minima.is_empty() { minima } else { value_minima };
        pool.into_iter().map(|i| keys[i].ring()).collect()
    }

    /// Visiting the candidates clockwise from the dispatcher collects the
    /// same rates and leads to the same placement as visiting them in
    /// candidate order, and charges fewer RIC messages over the sixteen
    /// dispatches. Chord hop counts are not monotone in ring distance, so
    /// one dispatch may pay a hop more than the candidate-order chain; the
    /// saving is in the total. Every owner has seen at least one arrival,
    /// so no candidate is at the floor and both chains visit every
    /// candidate.
    #[test]
    fn ring_order_ric_walk_moves_messages_not_placement() {
        let (mut ring_total, mut listed_total) = (0, 0);
        for round in 0..16 {
            let n = 2 + round % 7;
            let fixture = Fixture {
                keys: (0..n).map(|i| HashedKey::new(format!("R{round}+A+{i}"))).collect(),
                levels: (0..n)
                    .map(|i| if i % 2 == 0 { IndexLevel::Value } else { IndexLevel::Attribute })
                    .collect(),
                rates: (0..n).map(|i| 1 + i as u64 % 3).collect(),
                cached: vec![false; n],
                from_index: round * 5 % 64,
                remote_readable: true,
            };
            let ring = ric_walk(&fixture, true, clockwise_from);
            let listed = ric_walk(&fixture, true, |_, keys, order| {
                order.extend((0..keys.len()).map(|i| (0, i)));
            });
            assert_eq!(ring.read.len(), n, "round {round}: the chain asks every candidate");
            assert_eq!(ring.read, listed.read, "round {round}: the order moves no rate");
            let rates: Vec<u64> = ring.read.iter().map(|(_, rate)| *rate).collect();
            assert_eq!(rates, fixture.rates, "round {round}: rates are observed");
            assert_eq!(ring.chosen, listed.chosen, "round {round}: the order moves no placement");
            ring_total += ring.ric_msgs;
            listed_total += listed.ric_msgs;
        }
        assert!(
            ring_total < listed_total,
            "the clockwise chain charged {ring_total} RIC messages, candidate order {listed_total}"
        );
    }

    proptest::proptest! {
        /// A rewritten query's dispatch that stops asking at the floor
        /// chooses a candidate in the tie pool asking every candidate gives,
        /// charges no more RIC messages than that full collection, reads
        /// only rates it was served or asked for, and counts every
        /// candidate once: served, asked or unasked.
        #[test]
        fn stopping_at_the_floor_keeps_the_choice_in_the_full_tie_pool(
            candidates in proptest::collection::vec((proptest::bool::ANY, 0u64..3, proptest::bool::ANY), 1..7),
            from_index in 0usize..64,
            round in 0u32..1_000,
        ) {
            let n = candidates.len();
            let fixture = Fixture {
                keys: (0..n).map(|i| HashedKey::new(format!("P{round}+A+{i}"))).collect(),
                levels: candidates
                    .iter()
                    .map(|(value, ..)| if *value { IndexLevel::Value } else { IndexLevel::Attribute })
                    .collect(),
                rates: candidates.iter().map(|(_, rate, _)| *rate).collect(),
                cached: candidates.iter().map(|(.., cached)| *cached).collect(),
                from_index,
                remote_readable: true,
            };
            let stopped = ric_walk(&fixture, true, clockwise_from);
            let full = ric_walk(&fixture, false, clockwise_from);
            let all: Vec<(u64, u64)> =
                fixture.keys.iter().zip(&fixture.rates).map(|(k, r)| (k.ring(), *r)).collect();
            proptest::prop_assert_eq!(&full.read, &all);
            let pool = full_tie_pool(&fixture.keys, &fixture.levels, &fixture.rates);
            proptest::prop_assert!(
                pool.contains(&stopped.chosen),
                "chose {} outside the full tie pool {:?}", stopped.chosen, pool
            );
            proptest::prop_assert!(stopped.ric_msgs <= full.ric_msgs);
            // Every known rate is a true rate.
            proptest::prop_assert!(stopped.read.iter().all(|pair| all.contains(pair)));

            let c = stopped.counters;
            let cached = fixture.cached.iter().filter(|c| **c).count() as u64;
            proptest::prop_assert_eq!((c.dispatches, c.candidates), (1, n as u64));
            proptest::prop_assert_eq!(c.served + c.asked + c.unasked, c.candidates);
            proptest::prop_assert_eq!(c.served, cached);
            proptest::prop_assert_eq!(stopped.read.len() as u64, c.served + c.asked);
            proptest::prop_assert_eq!(c.asked > 0, stopped.ric_msgs > 0);
            proptest::prop_assert_eq!(full.counters, RicCounters::new(), "full collection is not counted");
        }

        /// A dispatch that can read no tracker but its own, as over TCP,
        /// caches and piggy-backs only the rates of the candidates the
        /// dispatcher owns, and chooses as if every other candidate's rate
        /// were 0.
        #[test]
        fn an_unreadable_rate_is_unknown_not_zero(
            candidates in proptest::collection::vec((proptest::bool::ANY, 0u64..3), 1..7),
            from_index in 0usize..64,
            round in 0u32..1_000,
            stop_at_floor in proptest::bool::ANY,
        ) {
            let n = candidates.len();
            let fixture = Fixture {
                keys: (0..n).map(|i| HashedKey::new(format!("U{round}+A+{i}"))).collect(),
                levels: candidates
                    .iter()
                    .map(|(value, _)| if *value { IndexLevel::Value } else { IndexLevel::Attribute })
                    .collect(),
                rates: candidates.iter().map(|(_, rate)| *rate).collect(),
                cached: vec![false; n],
                from_index,
                remote_readable: false,
            };
            let walk = ric_walk(&fixture, stop_at_floor, clockwise_from);
            proptest::prop_assert!(walk.read.iter().all(|(ring, _)| walk.own.contains(ring)));
            proptest::prop_assert!(walk.cached.iter().all(|ring| walk.own.contains(ring)));
            proptest::prop_assert!(walk.carried.iter().all(|ring| walk.own.contains(ring)));
            let seen: Vec<u64> = fixture
                .keys
                .iter()
                .zip(&fixture.rates)
                .map(|(key, rate)| if walk.own.contains(&key.ring()) { *rate } else { 0 })
                .collect();
            let pool = full_tie_pool(&fixture.keys, &fixture.levels, &seen);
            proptest::prop_assert!(
                pool.contains(&walk.chosen),
                "chose {} outside the all-zero tie pool {:?}", walk.chosen, pool
            );
        }
    }
}
