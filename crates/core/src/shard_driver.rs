//! The drive loop: the network's shards advanced together in global tick
//! rounds.
//!
//! [`run_rounds`] is the one simulator drive loop behind
//! [`RJoinEngine::run_until_quiescent`](crate::RJoinEngine::run_until_quiescent),
//! [`run_until_quiescent_parallel`](crate::RJoinEngine::run_until_quiescent_parallel)
//! and [`step`](crate::RJoinEngine::step). The engine's
//! [`rjoin_net::Network`] is partitioned once, at construction, into
//! [`EngineConfig::shards`] contiguous identifier ranges, and the engine
//! keeps one [`EngineShard`] — the range's [`NodeState`](crate::NodeState)s
//! and per-key loads — next to each for its lifetime. A round takes the
//! global minimum pending tick and runs two phases, each on every shard due
//! at the tick:
//!
//! 1. **handler phase** — Procedures 1–3 against the shard's own node
//!    states, in ascending lineage order;
//! 2. **effect phase** — load accounting, answer buffering and the full
//!    Sections 6–7 dispatch pipeline ([`dispatch_query_in`] via
//!    [`perform_actions_in`]), shared verbatim with the TCP node process
//!    through one [`DispatchEnv`] per effect.
//!
//! Engine-global observations are funneled through per-shard buffers —
//! answers tagged `(at, node, lineage)`, per-node loads, traffic — and folded
//! after the rounds, so a drain's observable results are a pure function of
//! the workload for every shard count. Per-key loads stay with their shard
//! and are summed when read.
//!
//! Two ingredients keep effects independent of execution order:
//!
//! * **per-decision randomness** — placement tie-breaks draw from a fresh
//!   RNG seeded by `(engine seed, triggering lineage, decision index)`;
//! * **pure RIC reads** — a rate request reads the owner's tracker, through
//!   the engine's [`RicDirectory`], with the non-pruning
//!   [`RicTracker::rate_at`](crate::RicTracker::rate_at).
//!   Every handler of the round's tick has run on every shard before any
//!   effect phase starts, and no shard has handled a later tick, so the
//!   read never waits and returns the same count whichever thread makes it.
//!
//! # One schedule, a thread count
//!
//! The thread count only says how many threads run the rounds. The shards
//! are dealt into that many contiguous chunks, at most one per shard; the
//! calling thread drives the first chunk and a scoped thread each of the
//! others, and a [`Barrier`] separates the round's tick choice, its handler
//! phase and its effect phase. A pool of one is the calling thread alone,
//! with no barrier. The phases of a round touch disjoint shard state and
//! only perform pure remote reads, so a workload's outputs depend neither
//! on the machine nor on the thread count.

use crate::answers::AnswerRecord;
use crate::config::EngineConfig;
use crate::delivery::{handle_node_msg, TickEffect};
use crate::engine::{KeyLoadMap, NodeLoadMap, NodeMap, RJoinEngine};
use crate::error::EngineError;
use crate::messages::RJoinMessage;
use crate::placement::{perform_actions_in, DispatchEnv, RicDirectory};
use crate::split::SplitMap;
use rjoin_dht::Id;
use rjoin_net::{Lineage, ShardHandle, SimTime};
use rjoin_relation::Catalog;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// What the engine keeps next to one shard of its network, for its
/// lifetime: the shard's node states (moved only when a node joins or
/// leaves) and per-key loads, plus the buffers of the drain in progress.
#[derive(Debug, Default)]
pub(crate) struct EngineShard {
    pub(crate) nodes: NodeMap,
    /// This shard's share of the per-key loads; the engine sums the shards'
    /// maps when asked.
    pub(crate) qpl_by_key: KeyLoadMap,
    pub(crate) sl_by_key: KeyLoadMap,
    tally: DrainTally,
    /// Handler-phase output awaiting this round's effect phase.
    staged: Vec<(Lineage, TickEffect)>,
}

/// One drain's engine-global observations on one shard, folded after the
/// rounds.
#[derive(Debug, Default)]
struct DrainTally {
    /// Raw answer deliveries tagged with `(arrival tick, receiving node,
    /// lineage)` — the order this shard handles them in — for the
    /// deterministic global merge.
    answers: Vec<((SimTime, Id, Lineage), AnswerRecord)>,
    qpl: NodeLoadMap,
    sl: NodeLoadMap,
    /// Extra query copies this shard sent to partitions of split hot keys.
    query_fanout: u64,
    ticks: u64,
    processed: u64,
    error: Option<EngineError>,
}

/// What every shard reads and none writes during the rounds.
#[derive(Clone, Copy)]
struct DrainCtx<'e> {
    catalog: &'e Catalog,
    config: &'e EngineConfig,
    ric_dir: &'e RicDirectory,
    splits: &'e SplitMap,
}

/// One shard as the rounds drive it.
struct RoundShard<'e, 'n> {
    handle: ShardHandle<'n, RJoinMessage>,
    shard: &'e mut EngineShard,
}

impl RoundShard<'_, '_> {
    /// Handler phase: Procedures 1–3 for this shard's deliveries due at
    /// `tick`, in lineage order, purely node-local.
    fn handle_tick(&mut self, ctx: DrainCtx<'_>, tick: SimTime) {
        let Some((now, deliveries)) = self.handle.try_take_tick(tick) else { return };
        let shard = &mut *self.shard;
        shard.tally.ticks += 1;
        shard.tally.processed += deliveries.len() as u64;
        for d in deliveries {
            let Some(state) = shard.nodes.get_mut(&d.to) else {
                // The node left after the message was sent: the message is
                // lost, exactly as in a real deployment.
                shard.staged.push((d.lineage, TickEffect::Lost));
                continue;
            };
            let effect = match d.msg {
                RJoinMessage::Answer { query, row, produced_at } => {
                    TickEffect::Answer(AnswerRecord { query, row, produced_at, received_at: d.at })
                }
                msg => handle_node_msg(state, ctx.catalog, ctx.config, now, d.at, d.to, msg),
            };
            shard.staged.push((d.lineage, effect));
        }
    }

    /// Effect phase: applies the staged effects in lineage order. Returns
    /// `false` once a dispatch failed (the error is kept in the tally).
    fn apply_effects(&mut self, ctx: DrainCtx<'_>) -> bool {
        let EngineShard { nodes, qpl_by_key, sl_by_key, tally, staged } = &mut *self.shard;
        for (lineage, effect) in staged.drain(..) {
            match effect {
                TickEffect::Lost => {}
                TickEffect::Answer(record) => {
                    let owner = record.query.owner;
                    tally.answers.push(((record.received_at, owner, lineage), record));
                }
                TickEffect::Node { node, load, actions } => {
                    if let Some(load) = load {
                        tally.qpl.incr(node);
                        qpl_by_key.incr(load.key);
                        if load.sl {
                            tally.sl.incr(node);
                            sl_by_key.incr(load.key);
                        }
                    }
                    if actions.is_empty() {
                        continue;
                    }
                    self.handle.begin_effect(lineage);
                    let mut env = DispatchEnv::simulated(
                        &mut self.handle,
                        nodes.get_mut(&node),
                        ctx.ric_dir,
                        ctx.splits,
                        ctx.config.seed,
                        lineage,
                    );
                    let done = perform_actions_in(&mut env, ctx.config, ctx.catalog, node, actions);
                    tally.query_fanout += env.fanout;
                    if let Err(e) = done {
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
    /// `None` for a pool of one: the calling thread needs no rendezvous.
    barrier: Option<Barrier>,
    /// Each chunk's earliest pending tick (`u64::MAX`: none).
    chunk_mins: Vec<AtomicU64>,
    /// The round's tick as the leader chose it (`u64::MAX`: stop).
    next_tick: AtomicU64,
    failed: AtomicBool,
    /// Most rounds to run.
    limit: u64,
}

impl Rounds {
    /// Waits for every thread of the pool; `true` on exactly one of them.
    fn wait(&self) -> bool {
        self.barrier.as_ref().is_none_or(|b| b.wait().is_leader())
    }

    /// Drives `chunk` (chunk number `i`) through every round of the drain:
    /// publish the chunk's earliest tick, let the leader pick the global
    /// minimum, run the chunk's handlers, then its effects. A rendezvous
    /// separates each step, and the last one makes every send of a round
    /// visible to the next round's inbox drain. Returns the rounds run.
    fn drive(&self, i: usize, chunk: &mut [RoundShard<'_, '_>], ctx: DrainCtx<'_>) -> u64 {
        let mut rounds = 0;
        loop {
            let earliest = chunk.iter_mut().filter_map(|s| s.handle.next_event_time()).min();
            self.chunk_mins[i].store(earliest.unwrap_or(u64::MAX), Ordering::SeqCst);
            if self.wait() {
                let tick = if self.failed.load(Ordering::SeqCst) || rounds == self.limit {
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
            self.wait();
            let tick = self.next_tick.load(Ordering::SeqCst);
            if tick == u64::MAX {
                return rounds;
            }
            for shard in chunk.iter_mut() {
                shard.handle_tick(ctx, tick);
            }
            self.wait();
            for shard in chunk.iter_mut() {
                if !shard.apply_effects(ctx) {
                    self.failed.store(true, Ordering::SeqCst);
                }
            }
            self.wait();
            rounds += 1;
        }
    }
}

/// The thread count of a parallel drain: [`EngineConfig::workers`], else
/// the machine's available parallelism. Purely an execution choice —
/// results are identical for every value.
pub(crate) fn resolve_workers(config: &EngineConfig) -> usize {
    config
        .workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Runs at most `limit` global tick rounds of the engine's shards on
/// `workers` threads — stopping early at quiescence or after a failed
/// dispatch — then folds the drain into the engine: traffic and clock
/// ([`Network::settle`](rjoin_net::Network::settle)), per-node loads, split
/// fan-out, runtime counters, and the answers in `(arrival tick, receiving
/// node, lineage)` order. Returns the rounds run and the deliveries processed.
pub(crate) fn run_rounds(
    engine: &mut RJoinEngine,
    workers: usize,
    limit: u64,
) -> Result<(u64, u64), EngineError> {
    let ctx = DrainCtx {
        catalog: &engine.catalog,
        config: &engine.config,
        ric_dir: &engine.ric_dir,
        splits: &engine.splits,
    };
    let mut shards: Vec<RoundShard<'_, '_>> = engine
        .network
        .handles()
        .into_iter()
        .zip(engine.shards.iter_mut())
        .map(|(handle, shard)| RoundShard { handle, shard })
        .collect();
    let shard_count = shards.len();
    let chunk_size = shard_count.div_ceil(workers.max(1));
    let pool = shard_count.div_ceil(chunk_size);
    let rounds = Rounds {
        barrier: (pool > 1).then(|| Barrier::new(pool)),
        chunk_mins: (0..pool).map(|_| AtomicU64::new(u64::MAX)).collect(),
        next_tick: AtomicU64::new(u64::MAX),
        failed: AtomicBool::new(false),
        limit,
    };
    let ran = std::thread::scope(|scope| {
        let mut chunks = shards.chunks_mut(chunk_size).enumerate();
        let (_, first) = chunks.next().expect("a network has at least one shard");
        for (i, chunk) in chunks {
            let rounds = &rounds;
            scope.spawn(move || rounds.drive(i, chunk, ctx));
        }
        rounds.drive(0, first, ctx)
    });
    drop(shards);
    engine.network.settle();

    let mut answers: Vec<((SimTime, Id, Lineage), AnswerRecord)> = Vec::new();
    let (mut ticks, mut processed) = (0u64, 0u64);
    let mut error: Option<EngineError> = None;
    for shard in &mut engine.shards {
        // Emptied, not dropped: the buffers keep their capacity for the
        // next drain.
        let tally = &mut shard.tally;
        engine.qpl.merge(&tally.qpl);
        engine.sl.merge(&tally.sl);
        tally.qpl.reset();
        tally.sl.reset();
        engine.split_counters.query_fanout += std::mem::take(&mut tally.query_fanout);
        ticks += std::mem::take(&mut tally.ticks);
        processed += std::mem::take(&mut tally.processed);
        answers.append(&mut tally.answers);
        // Shards are visited in index order, so the reported error is the
        // lowest-shard one — deterministic.
        error = error.or(tally.error.take());
    }
    if ran > 0 {
        engine.shard_runtime.absorb_drain(shard_count, ticks, processed);
    }
    // Each shard's answers are already in order: a stable sort merges the
    // runs.
    answers.sort_by_key(|(key, _)| *key);
    for (_, record) in answers {
        engine.answers.record(record);
    }
    match error {
        Some(e) => Err(e),
        None => Ok((ran, processed)),
    }
}
