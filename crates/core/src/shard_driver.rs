//! The sharded drain: per-shard queues advanced together in global tick
//! rounds.
//!
//! [`drain_sharded`] is the `shards > 1` implementation behind
//! [`RJoinEngine::run_until_quiescent_parallel`](crate::RJoinEngine::run_until_quiescent_parallel)
//! (at one shard that call is the sequential drain). It partitions the ring
//! into contiguous identifier ranges, each with its own
//! [`rjoin_net::ShardedNetwork`] queue, local clock and slice of the
//! engine's [`NodeState`](crate::NodeState)s, and advances all of them one
//! global-minimum tick per round. A round runs the same two phases the
//! sequential drain runs per tick, each on every shard due at the tick:
//!
//! 1. **handler phase** — Procedures 1–3 against the shard's own node
//!    states, in ascending lineage order;
//! 2. **effect phase** — load accounting, answer buffering and the full
//!    Sections 6–7 dispatch pipeline ([`dispatch_query_in`] via
//!    [`perform_actions_in`]), shared verbatim with the sequential drain
//!    through the [`EffectEnv`] trait.
//!
//! Engine-global observations are funneled through per-shard buffers —
//! answers tagged `(at, lineage)`, per-shard load maps and traffic stats —
//! and merged deterministically after the drain, so the drain's observable
//! results are a pure function of the workload for every shard count.
//!
//! The handler phase runs the compiled predicate-program hot loop
//! unchanged: each shard's `NodeState`s carry their own
//! [`CompileCounters`](rjoin_metrics::CompileCounters) (the program cache
//! is one engine-wide `Mutex`), so the engine's
//! [`compile_counters`](crate::RJoinEngine::compile_counters) aggregate is
//! a plain per-node merge after the drain, exactly like the sequential
//! driver.
//!
//! Two ingredients replace the global mutable state of the sequential
//! effect phase:
//!
//! * **per-decision randomness** — placement tie-breaks draw from a fresh
//!   RNG seeded by `(engine seed, triggering lineage, decision index)`
//!   instead of one global stream, making every decision independent of
//!   execution order and shard count;
//! * **pure RIC reads** — a rate request for a key owned by another shard
//!   reads the owner's tracker through the non-pruning
//!   [`RicTracker::rate_at`](crate::RicTracker::rate_at). Every handler of
//!   the round's tick has run on every shard before any effect phase
//!   starts, and no shard has handled a later tick, so the read never
//!   waits and returns the same count whichever thread makes it.
//!
//! # One schedule, a thread count
//!
//! [`EngineConfig::workers`] (default: the machine's available
//! parallelism) only says how many threads run the rounds. The shards are
//! dealt into that many contiguous chunks, at most one per shard; the
//! calling thread drives the first chunk and a scoped thread each of the
//! others, and a [`Barrier`] separates the round's tick choice, its handler
//! phase and its effect phase. A pool of one is the calling thread alone.
//! The phases of a round touch disjoint shard state and only perform pure
//! remote reads, so a workload's outputs depend neither on the machine nor
//! on the thread count.

use crate::answers::AnswerRecord;
use crate::config::{EngineConfig, PlacementStrategy};
use crate::engine::{
    handle_node_msg, perform_actions_in, EffectEnv, KeyLoadMap, NodeLoadMap, NodeMap, RJoinEngine,
    TickEffect,
};
use crate::error::EngineError;
use crate::messages::RJoinMessage;
use crate::node_state::RicEntry;
use crate::placement::choose_candidate;
use crate::split::SplitMap;
use crate::RicTracker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rjoin_dht::{Id, RingBuildHasher};
use rjoin_net::{
    lineage_seed, Lineage, ShardHandle, ShardLocal, ShardedNetwork, SimTime, Transport,
};
use rjoin_query::IndexLevel;
use rjoin_relation::Catalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Shared directory of every node's RIC tracker, the one piece of node
/// state readable across shards (each tracker behind its own lock).
type RicDirectory = HashMap<Id, Arc<Mutex<RicTracker>>, RingBuildHasher>;

/// The sharded driver's [`EffectEnv`]: shard-local transport and node
/// states, pure remote RIC reads, per-decision RNG.
struct ShardEnv<'e, 'n, 'a> {
    handle: &'e mut ShardHandle<'n, 'a, RJoinMessage>,
    nodes: &'e mut NodeMap,
    ric_dir: &'e RicDirectory,
    /// The engine's hot-key split registry — frozen for the whole drain
    /// (splits only activate between drains), so shared read-only access
    /// across threads is race-free and deterministic.
    splits: &'e SplitMap,
    /// This shard's share of the query fan-out counter (merged after the
    /// drain).
    query_fanout: &'e mut u64,
    engine_seed: u64,
    /// Lineage of the delivery whose effects are being applied.
    lineage: Lineage,
    /// Placement decisions made so far within this effect.
    decisions: u64,
}

impl<'n, 'a> EffectEnv for ShardEnv<'_, 'n, 'a> {
    type Net = ShardHandle<'n, 'a, RJoinMessage>;

    fn net(&mut self) -> &mut Self::Net {
        self.handle
    }

    fn now(&self) -> SimTime {
        Transport::<RJoinMessage>::now(&*self.handle)
    }

    fn cached_ric(
        &self,
        node: Id,
        ring: u64,
        now: SimTime,
        validity: Option<SimTime>,
    ) -> Option<RicEntry> {
        // The dispatching node always lives on this shard.
        self.nodes.get(&node).and_then(|s| s.cached_ric(ring, now, validity))
    }

    fn cache_ric(&mut self, node: Id, ring: u64, entry: RicEntry) {
        if let Some(state) = self.nodes.get_mut(&node) {
            state.cache_ric(ring, entry);
        }
    }

    fn observed_rate(&mut self, owner: Id, ring: u64, now: SimTime, window: SimTime) -> u64 {
        self.ric_dir
            .get(&owner)
            .map(|tracker| tracker.lock().expect("ric lock").rate_at(ring, now, window))
            .unwrap_or(0)
    }

    fn choose(
        &mut self,
        candidates: &[IndexLevel],
        rates: &[u64],
        strategy: PlacementStrategy,
    ) -> usize {
        let seed = lineage_seed(self.engine_seed, self.lineage, self.decisions);
        self.decisions += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        choose_candidate(candidates, rates, strategy, &mut rng)
    }

    fn splits(&self) -> &SplitMap {
        self.splits
    }

    fn note_query_fanout(&mut self, extra: u64) {
        *self.query_fanout += extra;
    }
}

/// Per-shard buffers of engine-global observations, merged after the drain.
#[derive(Default)]
struct ShardTally {
    /// Raw answer deliveries tagged with `(arrival tick, lineage)` for the
    /// deterministic global merge.
    answers: Vec<(SimTime, Lineage, AnswerRecord)>,
    qpl: NodeLoadMap,
    sl: NodeLoadMap,
    qpl_by_key: KeyLoadMap,
    sl_by_key: KeyLoadMap,
    /// Extra query copies this shard sent to partitions of split hot keys.
    query_fanout: u64,
    processed: u64,
    error: Option<EngineError>,
}

/// What every shard reads and none writes during a drain.
#[derive(Clone, Copy)]
struct DrainCtx<'e> {
    catalog: &'e Catalog,
    config: &'e EngineConfig,
    ric_dir: &'e RicDirectory,
    splits: &'e SplitMap,
}

/// One shard as the rounds drive it.
struct RoundShard<'n, 'a> {
    handle: ShardHandle<'n, 'a, RJoinMessage>,
    nodes: NodeMap,
    tally: ShardTally,
    /// Handler-phase output awaiting this round's effect phase.
    staged: Vec<(Lineage, TickEffect)>,
}

impl RoundShard<'_, '_> {
    /// Handler phase: Procedures 1–3 for this shard's deliveries due at
    /// `tick`, in lineage order, purely node-local.
    fn handle_tick(&mut self, ctx: DrainCtx<'_>, tick: SimTime) {
        let Some((now, deliveries)) = self.handle.try_take_tick(tick) else { return };
        self.tally.processed += deliveries.len() as u64;
        for d in deliveries {
            if !self.nodes.contains_key(&d.to) {
                // The node left after the message was sent: lost, exactly as
                // under the single-queue drivers.
                self.staged.push((d.lineage, TickEffect::Lost));
                continue;
            }
            let effect = match d.msg {
                RJoinMessage::Answer { query, row, produced_at } => {
                    TickEffect::Answer(AnswerRecord { query, row, produced_at, received_at: d.at })
                }
                msg => {
                    let state = self.nodes.get_mut(&d.to).expect("membership checked above");
                    handle_node_msg(state, ctx.catalog, ctx.config, now, d.at, d.to, msg)
                }
            };
            self.staged.push((d.lineage, effect));
        }
    }

    /// Effect phase: applies the staged effects in lineage order. Returns
    /// `false` once a dispatch failed (the error is kept in the tally).
    fn apply_effects(&mut self, ctx: DrainCtx<'_>) -> bool {
        let tally = &mut self.tally;
        for (lineage, effect) in self.staged.drain(..) {
            match effect {
                TickEffect::Lost => {}
                TickEffect::Answer(record) => {
                    tally.answers.push((record.received_at, lineage, record));
                }
                TickEffect::Node { node, load, actions } => {
                    if let Some(load) = load {
                        tally.qpl.incr(node);
                        tally.qpl_by_key.incr(load.key);
                        if load.sl {
                            tally.sl.incr(node);
                            tally.sl_by_key.incr(load.key);
                        }
                    }
                    if actions.is_empty() {
                        continue;
                    }
                    self.handle.begin_effect(lineage);
                    let mut env = ShardEnv {
                        handle: &mut self.handle,
                        nodes: &mut self.nodes,
                        ric_dir: ctx.ric_dir,
                        splits: ctx.splits,
                        query_fanout: &mut tally.query_fanout,
                        engine_seed: ctx.config.seed,
                        lineage,
                        decisions: 0,
                    };
                    if let Err(e) =
                        perform_actions_in(&mut env, ctx.config, ctx.catalog, node, actions)
                    {
                        tally.error = Some(e);
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The rendezvous of the threads that run one drain's rounds.
struct Rounds {
    barrier: Barrier,
    /// Each chunk's earliest pending tick (`u64::MAX`: none).
    chunk_mins: Vec<AtomicU64>,
    /// The round's tick as the barrier leader chose it (`u64::MAX`: stop).
    next_tick: AtomicU64,
    failed: AtomicBool,
}

impl Rounds {
    /// Drives `chunk` (chunk number `i`) through every round of the drain:
    /// publish the chunk's earliest tick, let the leader pick the global
    /// minimum, run the chunk's handlers, then its effects. A barrier
    /// separates each step, and the last one makes every send of a round
    /// visible to the next round's inbox drain.
    fn drive(&self, i: usize, chunk: &mut [RoundShard<'_, '_>], ctx: DrainCtx<'_>) {
        loop {
            let earliest = chunk.iter_mut().filter_map(|s| s.handle.next_event_time()).min();
            self.chunk_mins[i].store(earliest.unwrap_or(u64::MAX), Ordering::SeqCst);
            if self.barrier.wait().is_leader() {
                let tick = if self.failed.load(Ordering::SeqCst) {
                    u64::MAX
                } else {
                    self.chunk_mins
                        .iter()
                        .map(|m| m.load(Ordering::SeqCst))
                        .min()
                        .unwrap_or(u64::MAX)
                };
                self.next_tick.store(tick, Ordering::SeqCst);
            }
            self.barrier.wait();
            let tick = self.next_tick.load(Ordering::SeqCst);
            if tick == u64::MAX {
                return;
            }
            for shard in chunk.iter_mut() {
                shard.handle_tick(ctx, tick);
            }
            self.barrier.wait();
            for shard in chunk.iter_mut() {
                if !shard.apply_effects(ctx) {
                    self.failed.store(true, Ordering::SeqCst);
                }
            }
            self.barrier.wait();
        }
    }
}

/// The thread count of a sharded drain: [`EngineConfig::workers`], else the
/// machine's available parallelism. Purely an execution choice — results
/// are identical for every value.
fn resolve_workers(config: &EngineConfig) -> usize {
    config
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Drains the engine's event queue on the sharded runtime. See the module
/// docs for the architecture; the observable results (answers, loads,
/// traffic) are deterministic and shard-count-invariant for every
/// `shards > 1`.
pub(crate) fn drain_sharded(engine: &mut RJoinEngine) -> Result<u64, EngineError> {
    let pending = engine.network.drain_in_flight();
    if pending.is_empty() {
        // Nothing to deliver, but the clock may have moved since the last
        // drain (`advance_time`): flush like the sequential drain does.
        engine.flush_expiry();
        return Ok(0);
    }

    // Shared directory of RIC trackers (the only cross-shard node state).
    let ric_dir: RicDirectory =
        engine.nodes.iter().map(|(id, state)| (*id, state.ric_handle())).collect();

    let mut snet = ShardedNetwork::new(
        engine.network.dht(),
        engine.network.delay(),
        engine.network.now(),
        &engine.node_ids,
        engine.config.shards,
    );
    // Seed in global (at, seq) order: root lineages are numbered by the
    // position in this order, which no shard count can change.
    for d in pending {
        snet.seed(d.at, d.to, d.from, d.msg);
    }
    let shard_count = snet.shards();

    // Partition the node states by shard.
    let mut parts: Vec<NodeMap> = (0..shard_count).map(|_| NodeMap::default()).collect();
    for (id, state) in engine.nodes.drain() {
        parts[snet.shard_of(id)].insert(id, state);
    }
    let locals: Vec<ShardLocal<RJoinMessage>> =
        (0..shard_count).map(|i| snet.take_local(i)).collect();

    let ctx = DrainCtx {
        catalog: &engine.catalog,
        config: &engine.config,
        ric_dir: &ric_dir,
        splits: &engine.splits,
    };
    let mut shards: Vec<RoundShard<'_, '_>> = locals
        .into_iter()
        .zip(parts)
        .map(|(local, nodes)| RoundShard {
            handle: ShardHandle::new(&snet, local),
            nodes,
            tally: ShardTally::default(),
            staged: Vec::new(),
        })
        .collect();
    let chunk_size = shard_count.div_ceil(resolve_workers(ctx.config));
    let pool = shard_count.div_ceil(chunk_size);
    let rounds = Rounds {
        barrier: Barrier::new(pool),
        chunk_mins: (0..pool).map(|_| AtomicU64::new(u64::MAX)).collect(),
        next_tick: AtomicU64::new(u64::MAX),
        failed: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let mut chunks = shards.chunks_mut(chunk_size).enumerate();
        let (_, first) = chunks.next().expect("a sharded drain has at least one shard");
        for (i, chunk) in chunks {
            let rounds = &rounds;
            scope.spawn(move || rounds.drive(i, chunk, ctx));
        }
        rounds.drive(0, first, ctx);
    });
    let outcomes: Vec<(ShardLocal<RJoinMessage>, NodeMap, ShardTally)> =
        shards.into_iter().map(|s| (s.handle.into_local(), s.nodes, s.tally)).collect();
    drop(snet);
    drop(ric_dir);

    // Deterministic merge: states and order-insensitive counters first.
    let mut raw_answers: Vec<(SimTime, Lineage, AnswerRecord)> = Vec::new();
    let mut processed = 0u64;
    let mut ticks = 0u64;
    let mut deliveries = 0u64;
    let mut final_clock = engine.network.now();
    let mut error: Option<EngineError> = None;
    for (local, nodes, tally) in outcomes {
        engine.nodes.extend(nodes);
        engine.network.traffic_mut().merge(local.traffic());
        engine.qpl.merge(&tally.qpl);
        engine.sl.merge(&tally.sl);
        engine.qpl_by_key.merge(&tally.qpl_by_key);
        engine.sl_by_key.merge(&tally.sl_by_key);
        engine.split_counters.query_fanout += tally.query_fanout;
        processed += tally.processed;
        ticks += local.ticks;
        deliveries += local.deliveries;
        final_clock = final_clock.max(local.clock());
        raw_answers.extend(tally.answers);
        if error.is_none() {
            // Shards are visited in index order, so the reported error is
            // the lowest-shard one — deterministic.
            error = tally.error;
        }
    }
    engine.network.advance_to(final_clock);
    // Same post-drain expiry flush as the single-queue driver, so state
    // snapshots are identical across drivers at quiescence.
    engine.flush_expiry();
    engine.shard_runtime.absorb_drain(shard_count, ticks, deliveries);

    // Answers enter the global log in (arrival tick, lineage) order — the
    // sharded counterpart of the single queue's (at, seq) order.
    raw_answers.sort_unstable_by_key(|(at, lineage, _)| (*at, *lineage));
    for (_, _, record) in raw_answers {
        if engine.distinct_queries.contains(&record.query) {
            engine.answers.record_distinct(record);
        } else {
            engine.answers.record(record);
        }
    }

    match error {
        Some(e) => Err(e),
        None => Ok(processed),
    }
}
