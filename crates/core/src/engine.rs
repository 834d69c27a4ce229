//! The RJoin engine: the simulation driver tying nodes, network and the
//! algorithm together.

use crate::answers::AnswerLog;
use crate::config::EngineConfig;
use crate::delivery::standalone_node_state;
use crate::error::EngineError;
use crate::messages::{HypercubeRef, PendingQuery, QueryId, RJoinMessage};
use crate::node_id::NodeId;
use crate::node_state::NodeState;
use crate::placement::{dispatch_query_in, DispatchEnv, RicDirectory};
use crate::shard_driver::{resolve_workers, run_rounds, EngineShard};
use crate::split::{HypercubeMap, SplitMap};
use crate::stats::ExperimentStats;
use crate::traffic_class;
use rjoin_dht::{HashedKey, Id, RingBuildHasher};
use rjoin_metrics::{
    CompileCounters, Distribution, LoadMap, PlannerCounters, ProbeCounters, RicCounters,
    ShardRuntimeStats, SharingCounters, SplitCounters, StateCounters,
};
use rjoin_net::{root_lineage, Network, NetworkConfig, SimTime, TrafficStats};
use rjoin_query::{plan_query, tuple_index_key_iter, IndexLevel, JoinQuery, QueryPlan};
use rjoin_relation::{Catalog, Timestamp, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Per-key load maps are keyed by precomputed ring identifiers, so they use
/// the cheap ring-id hasher instead of SipHash.
pub(crate) type KeyLoadMap = LoadMap<u64, RingBuildHasher>;

/// Per-node load maps and the node-state map itself are keyed by node
/// identifiers, which are ring identifiers too — same cheap hasher.
pub(crate) type NodeLoadMap = LoadMap<Id, RingBuildHasher>;
pub(crate) type NodeMap = HashMap<Id, NodeState, RingBuildHasher>;

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
    /// Cumulative query-processing load per node (paper definition).
    pub(crate) qpl: NodeLoadMap,
    /// Cumulative storage-load additions per node (paper definition).
    pub(crate) sl: NodeLoadMap,
    /// Cumulative drive-loop counters (all zero until a drain runs a round).
    pub(crate) shard_runtime: ShardRuntimeStats,
    /// The thread count of parallel drains, resolved at the first one
    /// ([`resolve_workers`] reads the machine's parallelism from the OS).
    workers: Option<usize>,
    /// Active hot-key splits. Mutated only between drains (split activation
    /// is a quiescent-point operation, like membership churn); read-only
    /// during drains, which keeps the rounds' concurrent dispatch
    /// deterministic.
    pub(crate) splits: SplitMap,
    /// Cumulative hot-key splitting counters.
    pub(crate) split_counters: SplitCounters,
    /// Active hypercube plans (written at query submission, read-only
    /// during drains, like [`SplitMap`]).
    hypercubes: HypercubeMap,
    /// Cumulative two-plan planner counters. Updated only on the driver
    /// thread (plan choice at submission, tuple routing at publication), so
    /// no per-shard tally is needed.
    planner_counters: PlannerCounters,
    /// The engine's publication watermark: the highest publication time
    /// published so far, raised to the clock by
    /// [`advance_time`](Self::advance_time). No tuple published later may
    /// carry an earlier time, so at quiescence every node's deadline heap
    /// advances to it.
    pub_watermark: Timestamp,
}

impl RJoinEngine {
    /// The embedded-simulation convenience constructor: builds a simulated
    /// network from the configuration (delay bound, successor-list length),
    /// bootstraps `num_nodes` fully stabilized Chord nodes named
    /// `rjoin-node-{i}`, partitions them into [`EngineConfig::shards`]
    /// shards, and gives each node a configured [`NodeState`] on its shard.
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
        let mut network = Network::new(NetworkConfig { delay: config.network_delay });
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
            qpl: NodeLoadMap::new(),
            sl: NodeLoadMap::new(),
            shard_runtime: ShardRuntimeStats::default(),
            workers: None,
            splits: SplitMap::new(),
            split_counters: SplitCounters::new(),
            hypercubes: HypercubeMap::default(),
            planner_counters: PlannerCounters::new(),
            pub_watermark: 0,
        };
        for id in node_ids {
            engine.add_node_state(id);
        }
        engine
    }

    /// Gives node `id` a configured [`NodeState`] on its shard and lists
    /// its RIC tracker in the directory.
    fn add_node_state(&mut self, id: Id) {
        let state = standalone_node_state(id, &self.config);
        self.ric_dir.insert(id, state.ric_handle());
        self.shards[self.network.shard_of(id)].nodes.insert(id, state);
        self.node_ids.push(id);
    }

    pub(crate) fn node_mut(&mut self, id: Id) -> Option<&mut NodeState> {
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
            self.answers.mark_distinct(id);
        }
        let pending =
            PendingQuery::input(id, origin, self.network.now(), query).with_hypercube(hypercube);
        // Outside any round, the query's messages are roots, and its
        // placement draws from the lineage of the first of them.
        let lineage = root_lineage(self.network.next_root());
        let shard = self.network.shard_of(origin);
        let mut handle = self.network.root_handle(origin);
        let mut env = DispatchEnv::simulated(
            &mut handle,
            self.shards[shard].nodes.get_mut(&origin),
            &self.ric_dir,
            &self.splits,
            self.config.seed,
            lineage,
        );
        let done = dispatch_query_in(&mut env, &self.config, &self.catalog, origin, pending, true);
        self.split_counters.query_fanout += env.fanout;
        done.map(|()| id)
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
        let QueryPlan::Hypercube(hc_plan) = plan_query(query, self.config.hypercube_cells.max(2))
        else {
            self.planner_counters.pipeline_plans += 1;
            return Ok(None);
        };
        self.hypercubes
            .register(id, query, &hc_plan, &self.catalog, &mut self.planner_counters)
            .map(Some)
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
        let mut send = |key: HashedKey, level: IndexLevel| {
            let (id, tuple) = (key.id(), Arc::clone(&tuple));
            items.push((id, RJoinMessage::NewTuple { tuple, key, level, publisher: origin }));
        };
        for (key, level) in keys {
            match self.splits.route_tuple(&key, &tuple) {
                None => send(key, level),
                Some(cells) => {
                    self.split_counters.tuples_routed += 1;
                    self.split_counters.tuple_fanout += cells.len() as u64 - 1;
                    cells.into_iter().for_each(|cell| send(cell, level));
                }
            }
        }
        // Hypercube routing: one value-level copy to each cell of the
        // subcube the tuple pins in every plan its relation joins.
        let planner = &mut self.planner_counters;
        self.hypercubes.route_tuple(&tuple, planner, |cell| send(cell, IndexLevel::Value));
        self.network.multi_send(origin, items, traffic_class::TUPLE)?;
        Ok(())
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
        let workers = *self.workers.get_or_insert_with(|| resolve_workers(&self.config));
        self.quiesce(workers)
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

    /// Advances every node's deadline heap to the engine's publication
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

    /// Cumulative plan counters across all live nodes: plans compiled, plan
    /// reuses, triggers run on a plan, and nanoseconds spent in the
    /// per-delivery trigger walks and cell joins.
    pub fn compile_counters(&self) -> CompileCounters {
        let mut total = CompileCounters::new();
        for state in self.nodes() {
            total.merge(state.compile_counters());
        }
        total
    }

    /// Store gauges and expiry counters summed across all live nodes:
    /// live and peak occupancy per store, scheduled expiry deadlines, and
    /// how many reclamations were expiry pops (the only reclamation path:
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

    /// RIC placement counters summed across all live nodes: the candidates
    /// of rewritten queries' RIC-aware dispatches, and how many of them the
    /// candidate tables served, a chained RIC request asked, or no request
    /// needed to ask.
    pub fn ric_counters(&self) -> RicCounters {
        let mut total = RicCounters::new();
        for state in self.nodes() {
            total.merge(&state.ric_counters());
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
            ric: self.ric_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
