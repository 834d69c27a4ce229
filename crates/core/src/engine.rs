//! The RJoin engine: the simulation driver tying nodes, network and the
//! algorithm together.

use crate::answers::{AnswerLog, AnswerRecord};
use crate::config::{EngineConfig, PlacementStrategy};
use crate::error::EngineError;
use crate::messages::{HypercubeRef, PendingQuery, QueryId, RJoinMessage, RicInfo};
use crate::node_id::NodeId;
use crate::node_state::DrainedState;
use crate::node_state::{NodeState, ProgramCache, RicEntry};
use crate::procedures::{self, Action, ProcCtx};
use crate::ric::RIC_WINDOW;
use crate::shard_driver::{resolve_workers, run_rounds, EngineShard, RicDirectory, ShardEnv};
use crate::split::{
    choose_grid, partition_for_value, query_route, tuple_route, HypercubeGrid, SplitMap,
};
use crate::stats::ExperimentStats;
use crate::traffic_class;
use rjoin_dht::{HashedKey, Id, RingBuildHasher};
use rjoin_metrics::{
    CompileCounters, Distribution, LoadMap, PlannerCounters, ProbeCounters, ShardRuntimeStats,
    SharingCounters, SplitCounters, StateCounters,
};
use rjoin_net::{
    root_lineage, KeyRouter, Network, NetworkConfig, SimTime, TrafficStats, Transport,
};
use rjoin_query::plan;
use rjoin_query::{
    candidate_keys, tuple_index_key_iter, IndexKey, IndexLevel, JoinQuery, KeyTemplate,
};
use rjoin_relation::{Catalog, Name, Timestamp, Tuple};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Per-key load maps are keyed by precomputed ring identifiers, so they use
/// the cheap ring-id hasher instead of SipHash.
pub(crate) type KeyLoadMap = LoadMap<u64, RingBuildHasher>;

/// Per-node load maps and the node-state map itself are keyed by node
/// identifiers, which are ring identifiers too — same cheap hasher.
pub(crate) type NodeLoadMap = LoadMap<Id, RingBuildHasher>;
pub(crate) type NodeMap = HashMap<Id, NodeState, RingBuildHasher>;

/// One registered hypercube plan: the cell space of a hypercube-planned
/// query. Registered at submission (driver thread, between drains — the
/// same discipline as [`SplitMap`]) and read-only afterwards, so
/// publication-time routing is deterministic across drivers.
#[derive(Debug)]
struct HypercubePlacement {
    /// The plan's cell key space, as carried on its [`PendingQuery`].
    hcref: HypercubeRef,
    /// The share grid cells are linearized through.
    grid: HypercubeGrid,
}

/// How tuples of one relation enter one hypercube plan: the plan's position
/// in [`RJoinEngine::hypercubes`] and the `(axis, column offset)` pairs a
/// tuple of the relation binds (none: it pins no axis and replicates to
/// every cell).
#[derive(Debug)]
struct HypercubeRoute {
    placement: usize,
    binds: Vec<(usize, usize)>,
}

/// The query-processing / storage-load counter increments one delivery
/// charges, resolved during the handler phase and applied in the
/// deterministic effect phase.
#[derive(Debug)]
pub struct LoadDelta {
    /// Ring id of the index key the delivery was addressed to.
    pub key: u64,
    /// Whether the delivery also adds storage load (value-level tuple copy
    /// or a rewritten query being stored).
    pub sl: bool,
}

/// The deferred, engine-global effect of one delivery. Produced during a
/// round's handler phase (possibly on a worker thread), applied in the
/// effect phase afterwards, each node's in lineage order, so every shard
/// and thread count observes the same event order.
#[derive(Debug)]
pub enum TickEffect {
    /// The destination node left the ring; the message is lost.
    Lost,
    /// An answer reached the node that submitted the query.
    Answer(AnswerRecord),
    /// A node-local handler ran: apply its load counters and actions.
    Node { node: Id, load: Option<LoadDelta>, actions: Vec<Action> },
}

/// Runs the node-local part of one delivery (Procedures 1–3): mutates only
/// `state`, reads only the shared catalog/config. Shared by the simulator's
/// rounds and the TCP node process, so both produce identical effects.
pub fn handle_node_msg(
    state: &mut NodeState,
    catalog: &Catalog,
    config: &EngineConfig,
    now: SimTime,
    at: SimTime,
    node: Id,
    msg: RJoinMessage,
) -> TickEffect {
    // Pop expired state before the message is handled. The target is the
    // node's publication watermark, never a clock: the clock can run ahead
    // of publication (per-tuple drains of pre-stamped tuples, a shard's
    // clock), while no tuple still to be delivered was
    // published before the watermark.
    let tuple_pub = match &msg {
        RJoinMessage::NewTuple { tuple, .. } => Some(tuple.pub_time()),
        _ => None,
    };
    state.expire_for_delivery(at, tuple_pub);
    let ctx = ProcCtx { catalog, config, now, at };
    let (load, actions) = match msg {
        RJoinMessage::NewTuple { tuple, key, level, .. } => {
            // QPL: a tuple received in order to search for matching stored
            // queries; SL: value-level copies are stored.
            let load = LoadDelta { key: key.ring(), sl: level == IndexLevel::Value };
            let actions = procedures::handle_new_tuple(state, &ctx, &tuple, &key, level);
            (Some(load), actions)
        }
        RJoinMessage::IndexQuery { pending, key, level } => {
            let actions = procedures::handle_index_query(state, &ctx, pending, &key, level);
            (None, actions)
        }
        RJoinMessage::Eval { pending, key, level, carried_ric } => {
            // QPL: a rewritten query received in order to search stored
            // tuples; SL: the rewritten query is stored.
            let load = LoadDelta { key: key.ring(), sl: true };
            if config.reuse_ric {
                state.merge_ric(&carried_ric, now);
            }
            let actions = procedures::handle_eval(state, &ctx, pending, &key, level);
            (Some(load), actions)
        }
        RJoinMessage::Answer { .. } => {
            unreachable!("answers are engine-global and never reach a node handler")
        }
    };
    TickEffect::Node { node, load, actions }
}

/// Builds a [`NodeState`] the way the engine constructors build theirs,
/// but with a node-private compiled-program cache, for out-of-process
/// drivers (such as `rjoin_transport`'s node processes) that run
/// [`handle_node_msg`] themselves with `config`. Nodes built this way do
/// not share a program cache; each compiles its own rewrite templates on
/// first trigger. No field of the configuration shapes a node's state
/// today; a driver passes the one it runs the handlers with.
pub fn standalone_node_state(id: Id, _config: &EngineConfig) -> NodeState {
    NodeState::new(id)
}

/// The RJoin engine.
///
/// It owns a simulated Chord network (via [`rjoin_net::Network`]),
/// partitioned into [`EngineConfig::shards`] shards for the engine's
/// lifetime, one [`NodeState`] per node kept with its shard, and the metric
/// counters the paper's experiments report. Drivers submit continuous
/// queries, publish tuples and then drain the network with
/// [`run_until_quiescent`](Self::run_until_quiescent) (or the same rounds
/// on several threads,
/// [`run_until_quiescent_parallel`](Self::run_until_quiescent_parallel)).
#[derive(Debug)]
pub struct RJoinEngine {
    pub(crate) config: EngineConfig,
    pub(crate) catalog: Catalog,
    pub(crate) network: Network<RJoinMessage>,
    /// One entry per network shard: its node states and per-key loads.
    pub(crate) shards: Vec<EngineShard>,
    pub(crate) node_ids: Vec<Id>,
    /// Every node's RIC tracker, readable from any shard.
    pub(crate) ric_dir: RicDirectory,
    next_query_seq: u64,
    pub(crate) answers: AnswerLog,
    /// Queries submitted with `SELECT DISTINCT`: their answers pass through
    /// the owner-side duplicate filter.
    pub(crate) distinct_queries: HashSet<QueryId>,
    /// Cumulative query-processing load per node (paper definition).
    pub(crate) qpl: NodeLoadMap,
    /// Cumulative storage-load additions per node (paper definition).
    pub(crate) sl: NodeLoadMap,
    /// Cumulative drive-loop counters (all zero until a drain runs a round).
    pub(crate) shard_runtime: ShardRuntimeStats,
    /// Active hot-key splits. Mutated only between drains (split activation
    /// is a quiescent-point operation, like membership churn); read-only
    /// during drains, which keeps the rounds' concurrent dispatch
    /// deterministic.
    pub(crate) splits: SplitMap,
    /// Cumulative hot-key splitting counters.
    pub(crate) split_counters: SplitCounters,
    /// Active hypercube plans, in submission order. Like [`SplitMap`],
    /// mutated only on the driver thread (at query submission, between
    /// drains) and read-only during drains.
    hypercubes: Vec<HypercubePlacement>,
    /// The plans each relation participates in, in submission order (which
    /// is the order publication routes — and therefore sends — in), so a
    /// published tuple touches only its own relation's plans.
    hypercube_routes: HashMap<Name, Vec<HypercubeRoute>>,
    /// Cumulative two-plan planner counters. Updated only on the driver
    /// thread (plan choice at submission, tuple routing at publication), so
    /// no per-shard tally is needed.
    planner_counters: PlannerCounters,
    /// The engine-wide compiled-program cache every [`NodeState`] holds a
    /// handle to (kept here so nodes joining through churn adopt it too).
    programs: Arc<Mutex<ProgramCache>>,
    /// The engine's publication watermark: the highest publication time
    /// published so far, raised to the clock by
    /// [`advance_time`](Self::advance_time). No tuple published later may
    /// carry an earlier time, so at quiescence every node's wheel advances
    /// to it.
    pub_watermark: Timestamp,
}

impl RJoinEngine {
    /// The embedded-simulation convenience constructor: builds a simulated
    /// network from the configuration (delay bound, successor-list length),
    /// bootstraps `num_nodes` fully stabilized Chord nodes named
    /// `rjoin-node-{i}`, partitions them into [`EngineConfig::shards`]
    /// shards, and gives each node a configured [`NodeState`] on its shard,
    /// all sharing one compiled-program cache.
    ///
    /// The delay bound is clamped to δ ≥ 1 — whether `network_delay` came
    /// from [`EngineConfig::with_delay`] or a direct field write — and
    /// [`config`](Self::config) reports the clamped value. A round handles
    /// one tick and then applies its effects, so a round's sends must land
    /// after its tick.
    ///
    /// Real networked deployments run the same per-node pipeline out of
    /// process instead — see the [`pipeline`](crate::pipeline) module,
    /// which `rjoin_transport` drives over TCP.
    pub fn simulated(mut config: EngineConfig, catalog: Catalog, num_nodes: usize) -> Self {
        config.network_delay = config.network_delay.max(1);
        let mut network = Network::new(NetworkConfig {
            delay: config.network_delay,
            successor_list_len: config.successor_list_len,
        });
        let node_ids = network.bootstrap(num_nodes, "rjoin-node");
        network.partition(config.shards);
        let shards = (0..network.shards()).map(|_| EngineShard::default()).collect();
        let mut engine = RJoinEngine {
            config,
            catalog,
            network,
            shards,
            node_ids: Vec::with_capacity(node_ids.len()),
            ric_dir: RicDirectory::default(),
            next_query_seq: 0,
            answers: AnswerLog::new(),
            distinct_queries: HashSet::new(),
            qpl: NodeLoadMap::new(),
            sl: NodeLoadMap::new(),
            shard_runtime: ShardRuntimeStats::default(),
            splits: SplitMap::new(),
            split_counters: SplitCounters::new(),
            hypercubes: Vec::new(),
            hypercube_routes: HashMap::new(),
            planner_counters: PlannerCounters::new(),
            programs: Arc::new(Mutex::new(ProgramCache::default())),
            pub_watermark: 0,
        };
        for id in node_ids {
            engine.add_node_state(id);
        }
        engine
    }

    /// Gives node `id` a configured [`NodeState`] on its shard, sharing the
    /// engine's program cache, and lists its RIC tracker in the directory.
    fn add_node_state(&mut self, id: Id) {
        let mut state = standalone_node_state(id, &self.config);
        state.share_programs(Arc::clone(&self.programs));
        self.ric_dir.insert(id, state.ric_handle());
        self.shards[self.network.shard_of(id)].nodes.insert(id, state);
        self.node_ids.push(id);
    }

    fn node_mut(&mut self, id: Id) -> Option<&mut NodeState> {
        self.shards[self.network.shard_of(id)].nodes.get_mut(&id)
    }

    /// Every node's state, shard by shard.
    fn nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.shards.iter().flat_map(|shard| shard.nodes.values())
    }

    /// The per-key loads of every shard, summed.
    fn key_loads(&self, of: impl Fn(&EngineShard) -> &KeyLoadMap) -> KeyLoadMap {
        let mut total = KeyLoadMap::new();
        for shard in &self.shards {
            total.merge(of(shard));
        }
        total
    }

    /// The identifiers of all nodes, in join order.
    pub fn node_ids(&self) -> &[Id] {
        &self.node_ids
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.network.now()
    }

    /// Advances the simulation clock (models idle time between events).
    ///
    /// This is also a promise about publication: no tuple published from
    /// now on carries a publication time earlier than the new clock. The
    /// engine's publication watermark rises to it, so the next quiescent
    /// flush retires every windowed entry whose window closed before it.
    pub fn advance_time(&mut self, ticks: SimTime) {
        let target = self.network.now() + ticks;
        self.network.advance_to(target);
        self.pub_watermark = self.pub_watermark.max(target);
    }

    /// Read access to the network-level traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        self.network.traffic()
    }

    /// The answers delivered so far.
    pub fn answers(&self) -> &AnswerLog {
        &self.answers
    }

    /// Cumulative query-processing load per node.
    pub fn qpl_per_node(&self) -> &NodeLoadMap {
        &self.qpl
    }

    /// Cumulative storage load per node.
    pub fn sl_per_node(&self) -> &NodeLoadMap {
        &self.sl
    }

    /// Query-processing load per index key, keyed by the ring identifier the
    /// key hashes to (input for identifier-movement rebalancing).
    pub fn qpl_by_key_id(&self) -> BTreeMap<Id, u64> {
        self.key_loads(|s| &s.qpl_by_key).iter().map(|(k, v)| (Id(*k), v)).collect()
    }

    /// Storage load per index key, keyed by the ring identifier the key
    /// hashes to.
    pub fn sl_by_key_id(&self) -> BTreeMap<Id, u64> {
        self.key_loads(|s| &s.sl_by_key).iter().map(|(k, v)| (Id(*k), v)).collect()
    }

    /// Total query-processing load across all nodes.
    pub fn total_qpl(&self) -> u64 {
        self.qpl.total()
    }

    /// Total (cumulative) storage load across all nodes.
    pub fn total_sl(&self) -> u64 {
        self.sl.total()
    }

    /// Read access to a node's RJoin state (used by tests and examples).
    pub fn node_state(&self, id: Id) -> Option<&NodeState> {
        self.shards[self.network.shard_of(id)].nodes.get(&id)
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.network.in_flight()
    }

    /// Submits a continuous query from node `origin`. The query is validated
    /// against the catalog, planned (pipeline of rewrites vs hypercube
    /// placement, `rjoin_query::plan`) and indexed in the network; returns
    /// its id.
    pub fn submit_query(
        &mut self,
        origin: impl Into<NodeId>,
        query: JoinQuery,
    ) -> Result<QueryId, EngineError> {
        let origin = origin.into().id();
        if self.node_state(origin).is_none() {
            return Err(EngineError::UnknownNode { id: origin });
        }
        query.validate(&self.catalog)?;
        let id = QueryId { owner: origin, seq: self.next_query_seq };
        let hypercube = self.plan_submission(&query, id)?;
        self.next_query_seq += 1;
        if query.distinct() {
            self.distinct_queries.insert(id);
        }
        let mut pending = PendingQuery::input(id, origin, self.network.now(), query);
        pending.hypercube = hypercube;
        // Outside any round, the query's messages are roots, and its
        // placement draws from the lineage of the first of them.
        let lineage = root_lineage(self.network.next_root());
        let shard = self.network.shard_of(origin);
        let mut env = ShardEnv {
            handle: &mut self.network.root_handle(origin),
            nodes: &mut self.shards[shard].nodes,
            ric_dir: &self.ric_dir,
            splits: &self.splits,
            query_fanout: &mut self.split_counters.query_fanout,
            engine_seed: self.config.seed,
            lineage,
            decisions: 0,
        };
        dispatch_query_in(&mut env, &self.config, &self.catalog, origin, pending, true)?;
        Ok(id)
    }

    /// Runs the two-plan cost model for a validated query about to be
    /// submitted under `id`. Returns `None` when the query stays on the
    /// rewrite pipeline; otherwise registers the hypercube placement
    /// (resolving each axis member to its column offset) and returns the
    /// cell-space reference to carry on the [`PendingQuery`].
    fn plan_submission(
        &mut self,
        query: &JoinQuery,
        id: QueryId,
    ) -> Result<Option<HypercubeRef>, EngineError> {
        let graph = plan::JoinGraph::build(query);
        if graph.classes.is_empty() {
            self.planner_counters.pipeline_plans += 1;
            return Ok(None);
        }
        let shape = graph.shape();
        let hc_plan = graph.hypercube_plan(self.config.hypercube_cells.max(2));
        let take_hypercube = match plan::pipeline_cost(query, shape) {
            None => true,
            Some(pipe) => plan::hypercube_cost(&hc_plan) < pipe,
        };
        if !take_hypercube {
            self.planner_counters.pipeline_plans += 1;
            return Ok(None);
        }

        let grid = HypercubeGrid::new(hc_plan.shares());
        // A per-query synthetic base key: the `+` separator and hex owner
        // id keep it disjoint from every relation-derived index key.
        let base = HashedKey::new(format!("hcube+{:016x}+{}", id.owner.0, id.seq));
        let hcref = HypercubeRef { base, cells: grid.cells() };
        let mut bindings: Vec<(Name, Vec<(usize, usize)>)> =
            query.relations().iter().map(|rel| (rel.clone(), Vec::new())).collect();
        for (axis, hc_axis) in hc_plan.axes.iter().enumerate() {
            for member in &hc_axis.members {
                let schema = self.catalog.require_schema(&member.relation)?;
                let Some(col) = schema.index_of(&member.attribute) else {
                    // `validate` checked every attribute, so this is
                    // unreachable; losing one binding only costs replication.
                    continue;
                };
                if let Some((_, binds)) =
                    bindings.iter_mut().find(|(rel, _)| *rel == member.relation)
                {
                    binds.push((axis, col));
                }
            }
        }
        self.planner_counters.hypercube_plans += 1;
        self.planner_counters.cells_allocated += u64::from(grid.cells());
        self.planner_counters.shares_allocated +=
            grid.shares().iter().map(|&s| u64::from(s)).sum::<u64>();
        self.planner_counters.replicated_evals += u64::from(grid.cells());
        let placement = self.hypercubes.len();
        self.hypercubes.push(HypercubePlacement { hcref: hcref.clone(), grid });
        for (relation, binds) in bindings {
            self.hypercube_routes
                .entry(relation)
                .or_default()
                .push(HypercubeRoute { placement, binds });
        }
        Ok(Some(hcref))
    }

    /// Publishes a tuple from node `origin`: the tuple is validated and
    /// indexed under every attribute-level and value-level key (Procedure 1).
    ///
    /// The payload is moved into one shared [`Arc`]; the `2 × arity` index
    /// copies all reference it, and every index key is interned (string
    /// derived + SHA-1 hashed exactly once) before it enters the network.
    /// The index copies and any hypercube cell copies leave in one
    /// `multiSend`: one forwarding tree over their Chord routes, so copies
    /// whose routes share hops share those messages.
    ///
    /// With hot-key splitting enabled
    /// ([`EngineConfig::with_hot_key_splitting`]), publication is also where
    /// heavy hitters are detected: when the network is quiescent, each index
    /// key's observed tuple rate (the owning node's RIC tracker) is checked
    /// against the threshold and crossing keys are split before this tuple
    /// is routed. Index copies for a split key go to exactly one sub-key,
    /// chosen by a deterministic content hash of the tuple.
    ///
    /// # Publication contract
    ///
    /// Publication times never decrease across calls, and none is earlier
    /// than a clock promised by [`advance_time`](Self::advance_time): windows
    /// (Section 5) and their expiry run on publication time, and each node
    /// retires windowed state once a tuple published after the window has
    /// reached it. A tuple published later with an earlier time is *late*:
    /// it is routed and answered like any other, but it may miss windowed
    /// state that was already retired.
    pub fn publish_tuple(
        &mut self,
        origin: impl Into<NodeId>,
        tuple: Tuple,
    ) -> Result<(), EngineError> {
        let origin = origin.into().id();
        if self.node_state(origin).is_none() {
            return Err(EngineError::UnknownNode { id: origin });
        }
        self.catalog.validate_tuple(&tuple)?;
        // The simulation clock never runs behind publication times, so RIC
        // windows and window joins see consistent time.
        self.network.advance_to(tuple.pub_time());
        self.pub_watermark = self.pub_watermark.max(tuple.pub_time());
        let schema = self.catalog.require_schema(tuple.relation())?;
        let mut keys: Vec<(HashedKey, IndexLevel)> = Vec::with_capacity(tuple.arity() * 2);
        keys.extend(tuple_index_key_iter(&tuple, schema).map(|key| (key.hashed(), key.level())));
        self.maybe_split_hot_keys(&keys)?;
        let tuple = Arc::new(tuple);
        let mut items: Vec<(Id, RJoinMessage)> = Vec::with_capacity(keys.len());
        for (key, level) in keys {
            let mut send = |key: HashedKey| {
                let tuple = Arc::clone(&tuple);
                items.push((
                    key.id(),
                    RJoinMessage::NewTuple { tuple, key, level, publisher: origin },
                ));
            };
            match self.splits.route_tuple(&key, &tuple) {
                None => send(key),
                Some(cells) => {
                    self.split_counters.tuples_routed += 1;
                    self.split_counters.tuple_fanout += cells.len() as u64 - 1;
                    cells.into_iter().for_each(send);
                }
            }
        }
        // Hypercube routing: for every registered plan this tuple's relation
        // participates in, hash its bound attributes to pin coordinates and
        // send one value-level copy to each cell of the resulting subcube
        // (replication across the axes the relation leaves unbound).
        let routes = self.hypercube_routes.get(tuple.relation()).map(Vec::as_slice);
        for route in routes.unwrap_or_default() {
            let placement = &self.hypercubes[route.placement];
            let mut bound: Vec<Option<u32>> = vec![None; placement.grid.dims()];
            let mut joinable = true;
            for &(axis, col) in &route.binds {
                let coord =
                    partition_for_value(&tuple.values()[col], placement.grid.shares()[axis]);
                match bound[axis] {
                    None => bound[axis] = Some(coord),
                    Some(c) if c == coord => {}
                    Some(_) => {
                        // Two attributes of this tuple sit on one axis with
                        // different values: the closure forces them equal in
                        // any answer, so the tuple can never join this plan.
                        joinable = false;
                        break;
                    }
                }
            }
            if !joinable {
                continue;
            }
            let cells = placement.grid.subcube(&bound);
            self.planner_counters.tuples_routed += 1;
            self.planner_counters.tuple_copies += cells.len() as u64;
            for cell in cells {
                let key = placement.hcref.cell_key(cell);
                items.push((
                    key.id(),
                    RJoinMessage::NewTuple {
                        tuple: Arc::clone(&tuple),
                        key,
                        level: IndexLevel::Value,
                        publisher: origin,
                    },
                ));
            }
        }
        self.network.multi_send(origin, items, traffic_class::TUPLE)?;
        Ok(())
    }

    /// Heavy-hitter detection: splits every not-yet-split key in `keys`
    /// whose observed tuple rate over the last RIC window (read pure from
    /// the owning node's tracker) has reached the configured threshold.
    ///
    /// Runs only while the network is quiescent: like membership churn, a
    /// split re-homes stored state, and messages already in flight to the
    /// base key must not race the migration. Between drains every message
    /// referencing the base key has been delivered, so gating on
    /// `in_flight == 0` makes activation exact — and deterministic, because
    /// quiescence points and RIC state are identical across drivers.
    fn maybe_split_hot_keys(
        &mut self,
        keys: &[(HashedKey, IndexLevel)],
    ) -> Result<(), EngineError> {
        let Some(threshold) = self.config.hot_key_threshold else {
            return Ok(());
        };
        if self.network.in_flight() > 0 {
            return Ok(());
        }
        let partitions = self.config.hot_key_partitions.max(2);
        let now = self.network.now();
        let window = RIC_WINDOW;
        for (key, _) in keys {
            if self.splits.is_split(key.ring()) {
                continue;
            }
            let owner = self.network.owner_of(key.id())?;
            let Some((tuple_rate, eval_rate)) = self.node_state(owner).map(|s| {
                (
                    s.ric().rate_at(key.ring(), now, window),
                    s.eval_ric().rate_at(key.ring(), now, window),
                )
            }) else {
                continue;
            };
            if tuple_rate.max(eval_rate) >= threshold {
                // The share grid apportions the cells between the two
                // streams in proportion to their observed rates (Afrati's
                // shares applied to RJoin's two delivery streams).
                let grid = choose_grid(partitions, tuple_rate, eval_rate);
                self.activate_split(key.clone(), grid)?;
            }
        }
        Ok(())
    }

    /// Activates a split of `key` over the share grid and migrates the base
    /// key's stored state: each stored query moves to its identity
    /// column's cells, each stored value-level tuple and ALTT entry to its
    /// content row's cells — exactly where future arrivals will look for
    /// them. No-op if the key is already split.
    ///
    /// Exposed for harnesses via [`RJoinEngine::split_key`]; the engine
    /// itself calls it from the publication-time heat check.
    fn activate_split(&mut self, key: HashedKey, grid: HypercubeGrid) -> Result<(), EngineError> {
        let now = self.network.now();
        if !self.splits.insert(key.clone(), grid.clone(), now) {
            return Ok(());
        }
        self.split_counters.keys_split += 1;
        self.split_counters.partitions_created += grid.cells() as u64;

        let base_ring = key.ring();
        // Drop every cached RIC estimate for the base key: entries cached
        // before the split hold the pre-split hot rate, and the candidate
        // table would keep serving them for up to `RIC_VALIDITY` ticks,
        // shunning the freshly split key. Activation is a quiescent-point
        // operation, so walking the node map here is safe and cheap.
        for shard in &mut self.shards {
            for state in shard.nodes.values_mut() {
                state.candidate_table.remove(&base_ring);
            }
        }
        let owner = self.network.owner_of(key.id())?;
        let Some(state) = self.node_mut(owner) else {
            return Ok(());
        };
        let drained = state.drain_misplaced(|ring| ring != base_ring);
        let share = self.config.share_subjoins;
        for stored in drained.queries {
            for sub in query_route(&key, &grid, stored.pending.id) {
                let new_owner = self.network.owner_of(sub.id())?;
                let mut replica = stored.clone();
                replica.key = sub;
                replica.fingerprint = None;
                if let Some(target) = self.node_mut(new_owner) {
                    target.store_query_shared(replica, share);
                    self.split_counters.migrated_queries += 1;
                }
            }
        }
        for (_, bucket) in drained.tuples {
            for tuple in bucket {
                for sub in tuple_route(&key, &grid, &tuple) {
                    let new_owner = self.network.owner_of(sub.id())?;
                    if let Some(target) = self.node_mut(new_owner) {
                        target.store_tuple(sub.ring(), Arc::clone(&tuple));
                        self.split_counters.migrated_tuples += 1;
                    }
                }
            }
        }
        for (_, bucket) in drained.altt {
            for (tuple, expires_at) in bucket {
                for sub in tuple_route(&key, &grid, &tuple) {
                    let new_owner = self.network.owner_of(sub.id())?;
                    if let Some(target) = self.node_mut(new_owner) {
                        target.altt_insert(sub.ring(), Arc::clone(&tuple), expires_at);
                        self.split_counters.migrated_tuples += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Splits `key` over `partitions` sub-keys right now, regardless of its
    /// observed rate (harness/experiment entry point; the engine's own
    /// threshold-driven activation uses the same machinery). The share grid
    /// is chosen from the key's current telemetry exactly like the
    /// automatic path. Requires a quiescent network — like churn, splitting
    /// re-homes stored state and must not race in-flight messages — and
    /// otherwise returns [`EngineError::NotQuiescent`] without changing
    /// anything.
    pub fn split_key(
        &mut self,
        key: &rjoin_query::IndexKey,
        partitions: u32,
    ) -> Result<(), EngineError> {
        let in_flight = self.network.in_flight();
        if in_flight > 0 {
            return Err(EngineError::NotQuiescent { in_flight });
        }
        let hashed = key.hashed();
        let now = self.network.now();
        let window = RIC_WINDOW;
        let owner = self.network.owner_of(hashed.id())?;
        let (tuple_rate, eval_rate) = self
            .node_state(owner)
            .map(|s| {
                (
                    s.ric().rate_at(hashed.ring(), now, window),
                    s.eval_ric().rate_at(hashed.ring(), now, window),
                )
            })
            .unwrap_or((0, 0));
        let grid = choose_grid(partitions.max(2), tuple_rate, eval_rate);
        self.activate_split(hashed, grid)
    }

    /// Adds a node to the running network (churn): the identifier is derived
    /// from `label`, the ring is re-stabilized, and every bucket of
    /// application state whose key the new node now owns is handed over from
    /// its previous owner — the state transfer a real DHT performs when a
    /// node joins. Returns the new node's identifier.
    ///
    /// The new node's state goes to the shard whose identifier range its
    /// identifier falls in; no other node state moves between shards.
    ///
    /// Membership changes are driver-level operations: call them between
    /// rounds (between drains, or between [`step`](Self::step)s). A message
    /// already in flight to a node that subsequently leaves is lost, exactly
    /// as in a real deployment.
    pub fn join_node(&mut self, label: &str) -> Result<NodeId, EngineError> {
        let id = Id::hash_key(label);
        let dht = self.network.dht_mut();
        dht.join(id)?;
        dht.full_stabilize();
        self.add_node_state(id);
        self.rehome_misplaced_state()?;
        Ok(NodeId(id))
    }

    /// Gracefully removes a node from the network (churn): the ring is
    /// re-stabilized and the departing node's stored queries, value-level
    /// tuples and ALTT entries are handed to the nodes now responsible for
    /// their keys, so continuous queries keep producing answers. RIC
    /// history and cached candidate-table entries are dropped (they only
    /// affect placement quality, not soundness). Returns the number of
    /// re-homed items.
    pub fn leave_node(&mut self, id: impl Into<NodeId>) -> Result<usize, EngineError> {
        let id = id.into().id();
        if self.node_state(id).is_none() {
            return Err(EngineError::UnknownNode { id });
        }
        let dht = self.network.dht_mut();
        dht.leave(id)?;
        dht.full_stabilize();
        let shard = self.network.shard_of(id);
        let state = self.shards[shard].nodes.remove(&id).expect("membership checked above");
        self.ric_dir.remove(&id);
        self.node_ids.retain(|n| *n != id);
        let drained = state.into_drained();
        let moved = drained.len();
        self.absorb_drained(drained)?;
        Ok(moved)
    }

    /// Splits the drained state by current key owner and hands each share to
    /// that node via [`NodeState::absorb`] (the single place that knows how
    /// re-homed state re-enters a node — queries go through the shared path,
    /// so structurally identical entries re-merge at their new home).
    fn absorb_drained(&mut self, drained: DrainedState) -> Result<(), EngineError> {
        let share = self.config.share_subjoins;
        let (per_owner, errors) = drained.group_by_owner(|id| self.network.owner_of(id));
        if let Some(error) = errors.into_iter().next() {
            return Err(error.into());
        }
        for (owner, share_of_owner) in per_owner {
            if let Some(state) = self.node_mut(owner) {
                state.absorb(share_of_owner, share);
            }
        }
        Ok(())
    }

    /// After a membership change, moves every bucket that is no longer owned
    /// by the node holding it to the current owner (the handover a real DHT
    /// performs on join).
    fn rehome_misplaced_state(&mut self) -> Result<(), EngineError> {
        let network = &self.network;
        let mut moved: Vec<DrainedState> = Vec::new();
        for (node, state) in self.shards.iter_mut().flat_map(|s| s.nodes.iter_mut()) {
            let drained = state.drain_misplaced(|ring| {
                // On a lookup failure, keep the bucket where it is rather
                // than dropping state.
                network.owner_of(Id(ring)).map(|owner| owner == *node).unwrap_or(true)
            });
            if !drained.is_empty() {
                moved.push(drained);
            }
        }
        for drained in moved {
            self.absorb_drained(drained)?;
        }
        Ok(())
    }

    /// Runs one round on the calling thread: the deliveries of the earliest
    /// pending tick on every shard, handlers first, then effects. Returns
    /// `false` when no message was in flight.
    pub fn step(&mut self) -> Result<bool, EngineError> {
        let (rounds, _) = run_rounds(self, 1, 1)?;
        Ok(rounds > 0)
    }

    /// Runs rounds on the calling thread until no message is in flight.
    /// Returns the number of messages processed.
    pub fn run_until_quiescent(&mut self) -> Result<u64, EngineError> {
        self.quiesce(1)
    }

    /// Like [`run_until_quiescent`](Self::run_until_quiescent), with the
    /// rounds spread over [`EngineConfig::workers`] threads, each driving a
    /// contiguous chunk of the shards (at most one thread per shard). The
    /// thread count is an execution choice only: every observable — answers,
    /// loads, traffic — is identical for every shard and thread count.
    pub fn run_until_quiescent_parallel(&mut self) -> Result<u64, EngineError> {
        self.quiesce(resolve_workers(&self.config))
    }

    /// Runs rounds on `workers` threads until nothing is in flight, then
    /// flushes expiry.
    fn quiesce(&mut self, workers: usize) -> Result<u64, EngineError> {
        let drained = run_rounds(self, workers, u64::MAX);
        // Even a drain with nothing in flight flushes: the clock may have
        // moved since the last one (`advance_time`).
        self.flush_expiry();
        Ok(drained?.1)
    }

    /// Advances every node's timer wheel to the engine's publication
    /// watermark, so state snapshots taken between drains (stats,
    /// stored-query counts) reflect expiry even on nodes whose own
    /// watermark lags. Safe at quiescence: nothing is in flight, and no
    /// tuple published later may be earlier than the watermark.
    fn flush_expiry(&mut self) {
        for shard in &mut self.shards {
            for state in shard.nodes.values_mut() {
                state.advance_expiry(self.pub_watermark);
            }
        }
    }

    /// The engine's publication watermark: the highest publication time
    /// published so far, or the latest clock promised by
    /// [`advance_time`](Self::advance_time) if that is higher. Windowed
    /// state whose window closed before it is retired at the next quiescent
    /// point.
    pub fn pub_watermark(&self) -> Timestamp {
        self.pub_watermark
    }

    /// Cumulative shared sub-join savings across all live nodes.
    pub fn sharing_counters(&self) -> SharingCounters {
        let mut total = SharingCounters::new();
        for state in self.nodes() {
            total.merge(state.sharing());
        }
        total
    }

    /// Cumulative compiled-predicate counters across all live nodes:
    /// programs compiled, shape-cache hits, triggers run by a program, and
    /// nanoseconds spent in the per-delivery trigger walks.
    pub fn compile_counters(&self) -> CompileCounters {
        let mut total = CompileCounters::new();
        for state in self.nodes() {
            total.merge(state.compile_counters());
        }
        total
    }

    /// Store/wheel gauges and expiry counters summed across all live nodes:
    /// live and peak occupancy per store, scheduled wheel entries, and
    /// how many reclamations were wheel pops (the only reclamation path:
    /// `contact_expirations` is always 0).
    pub fn state_counters(&self) -> StateCounters {
        let mut total = StateCounters::new();
        for state in self.nodes() {
            total.merge(&state.state_counters());
        }
        total
    }

    /// Trigger-index probe counters summed across all live nodes: how many
    /// arrivals probed the index, candidates handed out vs the bucket
    /// lengths those probes covered, the residual share, and the peak number
    /// of indexed handles.
    pub fn probe_counters(&self) -> ProbeCounters {
        let mut total = ProbeCounters::new();
        for state in self.nodes() {
            total.merge(&state.probe_counters());
        }
        total
    }

    /// Total number of queries (input + rewritten) currently stored across
    /// all live nodes. A shared entry counts once regardless of how many
    /// subscribers ride on it — this is the stored-query load that sharing
    /// reduces.
    pub fn stored_queries_current(&self) -> u64 {
        self.nodes().map(|s| s.stored_query_count() as u64).sum()
    }

    /// Cumulative drive-loop counters: the shard count, the drains and
    /// steps that ran at least one round, per-shard tick activations and
    /// deliveries processed.
    pub fn shard_runtime_stats(&self) -> &ShardRuntimeStats {
        &self.shard_runtime
    }

    /// The active hot-key splits (empty unless
    /// [`EngineConfig::with_hot_key_splitting`] is enabled and a key
    /// crossed the threshold, or a harness called
    /// [`split_key`](Self::split_key)).
    pub fn split_map(&self) -> &SplitMap {
        &self.splits
    }

    /// Cumulative hot-key splitting counters.
    pub fn split_counters(&self) -> &SplitCounters {
        &self.split_counters
    }

    /// Cumulative two-plan planner counters: plans chosen per kind,
    /// hypercube cells/shares allocated, and the replication the hypercube
    /// plans cost (query copies per cell, tuple copies across unbound
    /// axes).
    pub fn planner_counters(&self) -> &PlannerCounters {
        &self.planner_counters
    }

    /// Builds a statistics snapshot in the units the paper's figures use.
    pub fn stats(&self) -> ExperimentStats {
        let traffic = self.network.traffic();
        let traffic_values: Vec<u64> =
            self.node_ids.iter().map(|id| traffic.sent_by(*id)).collect();
        let qpl_values: Vec<u64> = self.node_ids.iter().map(|id| self.qpl.get(id)).collect();
        let sl_values: Vec<u64> = self.node_ids.iter().map(|id| self.sl.get(id)).collect();
        let storage_values: Vec<u64> = self
            .node_ids
            .iter()
            .map(|id| self.node_state(*id).expect("a live node").current_storage_load())
            .collect();
        let qpl_dist = Distribution::from_values(qpl_values);
        let sl_dist = Distribution::from_values(sl_values);
        ExperimentStats {
            nodes: self.node_ids.len(),
            traffic_total: traffic.total_sent(),
            traffic_ric: traffic.total_sent_class(traffic_class::RIC),
            traffic_per_node: Distribution::from_values(traffic_values),
            qpl_participants: qpl_dist.participants(),
            sl_participants: sl_dist.participants(),
            qpl_total: self.qpl.total(),
            sl_total: self.sl.total(),
            qpl: qpl_dist,
            sl: sl_dist,
            current_storage: Distribution::from_values(storage_values),
            answers: self.answers.len() as u64,
            stored_queries_current: self.stored_queries_current(),
            sharing: self.sharing_counters(),
            intra_shard_messages: traffic.intra_shard_sent(),
            cross_shard_messages: traffic.cross_shard_sent(),
            shard_runtime: self.shard_runtime.clone(),
            key_heat: Distribution::from_values(self.key_loads(|s| &s.qpl_by_key).values()),
            splits: self.split_counters,
            planner: self.planner_counters,
            compile: self.compile_counters(),
            state: self.state_counters(),
            probe: self.probe_counters(),
        }
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
    /// the [`RIC_WINDOW`] ticks ending at `now` (the content of one RIC
    /// request).
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
    if pending.hypercube.is_some() {
        debug_assert!(is_input, "a hypercube cell joins locally, nothing is re-dispatched");
        let hc = pending.hypercube.clone().expect("checked above");
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
    /// Loads the candidate keys of `query` in [`candidate_keys`] order: from
    /// the templates of the program that emitted it when it still carries
    /// them, from the query itself otherwise (input queries, and queries
    /// that crossed a wire, which drops the program reference).
    fn load_candidates(
        &mut self,
        query: &JoinQuery,
        templates: Option<&[KeyTemplate]>,
        catalog: &Catalog,
    ) -> Result<(), EngineError> {
        self.levels.clear();
        self.hashed.clear();
        if let Some(keys) = templates {
            self.hashed.extend(keys.iter().map_while(|key| key.hashed(query)));
            // No templates at all: the fallback below applies. A template
            // that found no constant: the hint is not this query's.
            if !keys.is_empty() && self.hashed.len() == keys.len() {
                self.levels.extend(keys.iter().map(KeyTemplate::level));
                return Ok(());
            }
            self.hashed.clear();
        }
        let mut candidates = candidate_keys(query);
        if candidates.is_empty() {
            // A query with no conjuncts left but remaining relations (e.g. a
            // single-relation scan): fall back to an attribute-level key of
            // the first remaining relation.
            if let Some(rel) = query.relations().first() {
                if let Ok(schema) = catalog.require_schema(rel) {
                    if let Some(attr) = schema.attribute(0) {
                        candidates.push(IndexKey::attribute(rel.clone(), attr));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return Err(EngineError::NoCandidateKey);
        }
        self.levels.extend(candidates.iter().map(IndexKey::level));
        self.hashed.extend(candidates.iter().map(IndexKey::hashed));
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
    mut pending: PendingQuery,
    is_input: bool,
    scratch: &mut DispatchScratch,
) -> Result<(), EngineError> {
    // Each candidate is interned exactly once: the ring identifier computed
    // here serves the rates loop, the candidate table, the piggy-backed RIC
    // information *and* the final send — no key is hashed twice.
    let emitted_by = std::mem::take(&mut pending.emitted_by);
    scratch.load_candidates(&pending.query, emitted_by.child_keys(), catalog)?;
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
                .map(|(k, r)| RicInfo { key: k.clone(), rate: *r, observed_at: now })
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
    let mut cells = env.splits().route_query(&key, pending.id).unwrap_or_default();
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
                crate::placement::split_effective_rate(&partition_rates)
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

    /// δ ≥ 1 is a construction rule: a zero delay, set through the builder
    /// or by a direct field write, runs — and reports — one tick.
    #[test]
    fn simulated_clamps_the_delay_bound_to_one_tick() {
        let direct = EngineConfig { network_delay: 0, ..EngineConfig::default() };
        for config in [EngineConfig::default().with_delay(0), direct] {
            let engine = RJoinEngine::simulated(config, Catalog::new(), 4);
            assert_eq!(engine.config().network_delay, 1);
            assert_eq!(engine.network.delay(), 1);
        }
        let engine =
            RJoinEngine::simulated(EngineConfig::default().with_delay(3), Catalog::new(), 4);
        assert_eq!((engine.config().network_delay, engine.network.delay()), (3, 3));
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
