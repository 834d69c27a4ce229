//! RJoin: continuous multi-way equi-joins on top of a DHT.
//!
//! This crate implements the paper's contribution — the **recursive join
//! (RJoin)** algorithm — on top of the substrates provided by the rest of
//! the workspace (`rjoin-dht` for Chord, `rjoin-net` for the simulated
//! messaging layer, `rjoin-query` for the query model).
//!
//! The algorithm in one paragraph: continuous queries wait in the network,
//! indexed under a key derived from their `WHERE` clause. Every published
//! tuple is indexed under 2·k keys (attribute level and value level for each
//! of its k attributes, Procedure 1). A tuple arriving at a node triggers the
//! queries stored there (Procedure 2): each triggered query is *rewritten*
//! into a query with one fewer join and re-indexed at the node responsible
//! for one of its remaining keys, chosen using RIC (rate of incoming tuples)
//! information (Sections 6–7); when a rewritten query's `WHERE` clause
//! becomes `true`, the answer is sent directly to the node that submitted the
//! original query. Rewritten queries arriving at a node are also matched
//! against value-level tuples already stored there (Procedure 3). Sliding
//! windows (Section 5), duplicate elimination for `DISTINCT` queries
//! (Section 4) and the ALTT extension for completeness under message delays
//! (Section 4) are all supported.
//!
//! # Hot-path architecture
//!
//! Five design decisions keep the per-message cost flat:
//!
//! * **A rewritten query is its input query plus bound tuples** — a
//!   [`PendingQuery`] holds the input query ([`InputQuery`], one `Arc`
//!   shared by every query it spawns), one `Arc<Tuple>` per bound `FROM`
//!   slot ([`rjoin_query::Bindings`]: one thin pointer to one allocation)
//!   and its window `start` (the contribution span is read off the bound
//!   tuples).
//!   Everything a rewritten `JoinQuery` used to be built for is read
//!   through the input query's [`rjoin_query::RewritePlan`], compiled once
//!   per query at submission ([`PendingQuery::submitted`]) and carried by
//!   every descendant; an input query is read through it too, with nothing
//!   bound. A trigger is the plan's `admit` + `joins` on the tuple's slot,
//!   a complete binding is projected into the answer row, a partial one
//!   becomes a child with one more bound slot, and a query's candidate
//!   keys come from the plan's memo for its bound mask. The plan never
//!   travels: a node that receives a query over a wire compiles it once
//!   per query ([`NodeState::adopt`]). A stored query is a 56-byte
//!   slab entry plus its binding's `8 + 8 × bound` bytes, where a rewritten
//!   `JoinQuery` was close to a kilobyte.
//! * **Interned key identities** — every index key is converted once into a
//!   [`rjoin_dht::HashedKey`] (one pointer to the canonical string and the
//!   ring identifier from a single SHA-1). Messages carry the interned key, and
//!   all per-node tables ([`NodeState`]'s stored queries/tuples, ALTT,
//!   candidate table, RIC tracker) and per-key load maps are keyed by the
//!   precomputed `u64` ring id, so the delivery path performs no string
//!   formatting, no re-hashing and no SipHash-over-string map probes.
//! * **Zero-copy tuple fan-out** — Procedure 1 indexes a tuple under
//!   `2 × arity` keys; the payload travels as one shared `Arc<Tuple>` and
//!   value-level stores/ALTT retain `Arc` handles, so publication performs a
//!   single allocation regardless of arity.
//! * **O(active) node state** — each node's stored queries live in a
//!   generational slab with stable handles (`slab` module); its value-level
//!   tuples and ALTT entries live once, per ring, in publication order, so
//!   an arriving query walks one binary-searched run of each bucket. Every
//!   windowed query, and the front of every ALTT bucket and hypercube cell,
//!   is filed under its deadline on a per-node binary heap (`expiry`
//!   module) that runs on publication time. Before handling a message a
//!   node advances its heap to its publication watermark (the
//!   highest publication time among the tuples it received in earlier
//!   ticks), popping exactly the entries whose window can no longer admit
//!   any tuple still to come — so expiry costs O(popped), is complete
//!   however far the clock runs ahead of publication, and removals
//!   (expiry, churn drains) invalidate external references (expiry tokens,
//!   sub-join registry slots) for free via the slab generation check
//!   instead of rebuilding indexes.
//! * **Two-phase rounds** — each shard of the network owns a constant-δ
//!   bucket queue; the engine drains one global tick per round, runs the
//!   purely node-local Procedures 1–3 for every delivery of the tick, and
//!   then applies all global effects — load counters, answer recording,
//!   RIC-aware placement and sends — each node's in lineage order.
//!
//! # One delivery, one module per stage
//!
//! The modules follow one delivery through the engine. In the handler
//! phase, `delivery` is the node-local entry every driver calls; it
//! advances the node's deadline heap first (`expiry`), then runs the trigger
//! and query-arrival walks of Procedures 2–3 (`procedures`) — or, on a
//! hypercube cell's ring, the cell's local join (`cell`) — against the
//! node's stores (`node_state`). In the effect phase, `placement` runs the
//! Sections 6–7 dispatch of every rewritten query, reading rates and the
//! candidate table from `ric`. Between drains, `rehome` moves state on
//! membership changes and `split` activates hot-key splits and keeps the
//! hypercube plans; `engine` is the driver, and `shard_driver` its rounds.
//!
//! # Shards
//!
//! The engine's network is cut once, at construction, into
//! [`EngineConfig::with_shards`] contiguous identifier ranges, each with
//! its own bucket queue, clock, traffic buffer and route memo
//! ([`rjoin_net::Network`]); the engine keeps each range's `NodeState`s
//! with it for its lifetime, moving a node's state only when the node joins
//! or leaves. Intra-shard messages never leave their shard; cross-shard
//! messages go through the receiving shard's inbox. Every drain —
//! [`RJoinEngine::run_until_quiescent`], [`RJoinEngine::step`] and
//! [`RJoinEngine::run_until_quiescent_parallel`] — runs the same global
//! tick rounds: every shard's handlers for the earliest pending tick, then
//! every shard's effects (see the `rjoin_net` docs); the parallel drain
//! spreads them over [`EngineConfig::workers`] threads, one of them the
//! caller's. Determinism holds by construction: each node's intra-tick
//! delivery order comes from hash-chained message *lineages*, placement
//! randomness is
//! derived per decision from the triggering lineage, and remote RIC reads
//! are pure snapshots taken after every handler of the tick — so every
//! observable (answers, loads, traffic) is identical across shard counts,
//! thread counts and repeated runs (`tests/determinism.rs`). Shard-aware
//! accounting (intra/cross-shard deliveries, tick activations) is reported
//! through [`ExperimentStats`] and [`RJoinEngine::shard_runtime_stats`].
//!
//! # Hot-key splitting (share-based partitioning)
//!
//! Identifier movement balances load that is spread over many keys, but a
//! single hot key is a point mass: it hashes to one identifier, and its
//! entire load lands on whichever node owns it. With
//! [`EngineConfig::with_hot_key_splitting`] the engine watches each index
//! key's tuple and `Eval` arrival rates (the existing RIC telemetry plus a
//! per-node `Eval` twin) at publication time, and a key crossing the
//! heavy-hitter threshold is split into `s` deterministic sub-keys salted
//! onto the ring ([`rjoin_dht::HashedKey::split_part`]). The sub-keys form
//! an `r × c` share grid (a two-axis [`HypercubeGrid`], shaped by the
//! observed tuple/`Eval` ratio): tuples route to one row, queries register at one
//! column, and the two meet in exactly one cell — so the answer stream is
//! **identical** to the unsplit run (oracle-checked under churn and under
//! every shard count in `tests/split.rs`) while the hot key's load
//! spreads over `s` nodes. Activation is a quiescent-point operation like
//! churn: stored state migrates to the cells where future arrivals will
//! look for it. This is the first optimization that changes *where work
//! lands* rather than how fast it runs; identifier movement
//! (`rjoin_dht::balance`) composes with it as the lower tier.
//!
//! # Two-plan query planner (hypercube placement for cyclic shapes)
//!
//! Every submitted query is classified at the driver by its join graph
//! ([`rjoin_query::plan::JoinGraph`], GYO ear removal): **acyclic** shapes
//! — everything the paper's figures use — run on the pipeline of rewrites
//! above, while **cyclic** shapes (triangles, 4-cycles, cliques), whose
//! rewriting cascade the pipeline cannot finish without re-visiting an
//! attribute, are placed as an *n-dimensional hypercube*
//! ([`split::HypercubeGrid`], generalizing the 2-D split grid): per-axis
//! shares `s_1 × … × s_k` are allocated from a cell budget
//! ([`EngineConfig::with_hypercube_cells`]), one query replica registers in
//! every cell at submission, and each published tuple is routed to the
//! subcube fixed by hashing its bound attributes
//! ([`split::partition_for_value`]) — so any joining combination meets in
//! exactly one cell and completes exactly once. Inside a cell the join is
//! local and incremental (`cell` module): the cell reads its replica
//! through the input query's plan, a positional [`rjoin_query::JoinPlan`]
//! (slots, column offsets, constant filters, join edges), and keeps the
//! tuples routed to it,
//! hash-indexed by `(slot, join column, value)`; an arriving tuple is bound
//! to its slot and the remaining slots are bound depth-first by probing
//! that index with the values the bound tuples pin, over the tuples that
//! arrived before it — so bindings are tuple references on the stack, no
//! rewritten query is built, nothing partial is stored, and there is no
//! `Eval` traffic. Windowed cells evict tuples on the node's deadline heap
//! once no future publication can share a window with them, which bounds a
//! cell by the window rather than the stream; `DISTINCT` collapses at the
//! owner. A cost model picks between the two plans for acyclic shapes
//! (pipeline ≈ one hop per join; hypercube ≈ one registration per cell);
//! cyclic shapes always take the hypercube. Planner decisions and
//! replication costs are reported in [`ExperimentStats::planner`].
//!
//! # Shared sub-join evaluation (multi-query optimization)
//!
//! With [`EngineConfig::with_subjoin_sharing`] enabled, every node keeps a
//! [`SubJoinRegistry`]: queries whose canonical sub-join structure
//! ([`rjoin_query::fingerprint`] — `FROM` + `WHERE` + window, `SELECT`
//! abstracted) matches an entry already stored under the same key are merged
//! into it as [`Subscriber`]s of its [`SubscriberTable`] instead of being
//! stored separately. The shared entry is rewritten and re-indexed **once**
//! per triggering tuple, at a cost that does not depend on how many
//! subscribers ride on it: the table is a handful of `Arc`-shared
//! [`SubscriberGroup`]s that only bind the triggering tuple, no subscriber's
//! `SELECT` list is rewritten on the way. When the `WHERE` clause completes,
//! one answer per subscriber fans back out, projected then and there from
//! the tuples its group bound. On overlapping workloads this cuts
//! stored-query load and `Eval`/RIC traffic roughly by the overlap factor
//! while producing the same per-query answers as the unshared engine
//! (`DISTINCT` queries are never shared; the insertion-time filter is
//! enforced per subscriber at fan-out, against the earliest publication
//! time of the whole combination — the module docs of `shared.rs` give the
//! argument). Savings are reported in [`ExperimentStats::sharing`].
//!
//! # Churn
//!
//! [`RJoinEngine::join_node`] and [`RJoinEngine::leave_node`] change ring
//! membership mid-run, re-homing the application state (stored queries,
//! value-level tuples, hypercube cells, ALTT entries) to the nodes now
//! responsible for the
//! keys — the state handover a real DHT performs. Combined with the ALTT the
//! engine keeps matching the centralized oracle while nodes come and go
//! (`tests/oracle.rs`).
//!
//! The main entry point is [`RJoinEngine`]:
//!
//! ```
//! use rjoin_core::{EngineConfig, RJoinEngine};
//! use rjoin_query::parse_query;
//! use rjoin_relation::{Schema, Catalog, Tuple, Value};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(Schema::new("R", ["A", "B"]).unwrap()).unwrap();
//! catalog.register(Schema::new("S", ["A", "B"]).unwrap()).unwrap();
//!
//! let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, 32);
//! let origin = engine.node_ids()[0];
//! let q = parse_query("SELECT R.B, S.B FROM R, S WHERE R.A = S.A").unwrap();
//! let qid = engine.submit_query(origin, q).unwrap();
//! engine.run_until_quiescent().unwrap();
//!
//! engine.publish_tuple(origin, Tuple::new("R", vec![Value::from(1), Value::from(10)], 1)).unwrap();
//! engine.publish_tuple(origin, Tuple::new("S", vec![Value::from(1), Value::from(20)], 2)).unwrap();
//! engine.run_until_quiescent().unwrap();
//!
//! let answers = engine.answers().rows_for(qid);
//! assert_eq!(answers, vec![vec![Value::from(10), Value::from(20)]]);
//! ```

mod answers;
mod cell;
mod config;
mod dedup;
mod delivery;
mod engine;
mod error;
mod expiry;
mod messages;
mod node_id;
mod node_state;
mod placement;
mod procedures;
mod rehome;
mod ric;
mod shard_driver;
mod shared;
mod slab;
pub mod split;
mod stats;
mod trigger_index;

pub use answers::{AnswerLog, AnswerRecord};
pub use config::{EngineConfig, PlacementStrategy};
pub use dedup::DedupFilter;
pub use engine::RJoinEngine;
pub use error::EngineError;
pub use messages::{
    HypercubeRef, InputQuery, PendingQuery, PlanRef, QueryId, RJoinMessage, RicInfo, Subscriber,
    SubscriberGroup, SubscriberTable,
};
pub use node_id::NodeId;
pub use node_state::{NodeState, StoredQuery};
pub use rehome::{DrainedAlttBucket, DrainedState};
pub use ric::{ArrivalLog, RicEntry, RicTracker, RIC_VALIDITY, RIC_WINDOW};
pub use shared::SubJoinRegistry;
pub use split::{partition_for_tuple, partition_for_value, HypercubeGrid, SplitEntry, SplitMap};
pub use stats::ExperimentStats;

/// The per-node processing pipeline, exposed for out-of-process drivers.
///
/// The engine's delivery loop is split into a *node-local* phase
/// ([`handle_node_msg`](pipeline::handle_node_msg), from the `delivery`
/// module: expiry, then Procedures 1–3 against one [`NodeState`]) and an
/// *effect* phase ([`perform_actions_in`](pipeline::perform_actions_in) /
/// [`dispatch_query_in`](pipeline::dispatch_query_in), from the
/// `placement` module: answer delivery and the complete Sections 6–7
/// placement pipeline, run against one [`DispatchEnv`](pipeline::DispatchEnv)
/// that holds the transport, the dispatching node's state, the RIC trackers
/// the process can read and the tie-break seed). The embedded engine drives
/// both phases over the simulated network; a networked deployment (the
/// `rjoin_transport` crate) drives the *same* functions in the same
/// environment over TCP — one node process per [`NodeState`] built with
/// [`standalone_node_state`](pipeline::standalone_node_state), so the two
/// modes can never drift apart in algorithm or cost accounting.
pub mod pipeline {
    pub use crate::delivery::{handle_node_msg, standalone_node_state, LoadDelta, TickEffect};
    pub use crate::placement::{dispatch_query_in, perform_actions_in, DispatchEnv};
    pub use crate::procedures::Action;
}

/// Traffic classes used when accounting messages, so that the share of
/// traffic spent on RIC requests can be reported separately (as the paper's
/// figures do).
pub mod traffic_class {
    use rjoin_net::TrafficClass;

    /// Tuple-indexing messages (Procedure 1).
    pub const TUPLE: TrafficClass = 0;
    /// Input-query indexing messages.
    pub const QUERY_INDEX: TrafficClass = 1;
    /// Rewritten-query re-indexing messages (`Eval`).
    pub const EVAL: TrafficClass = 2;
    /// Answers delivered to the querying node.
    pub const ANSWER: TrafficClass = 3;
    /// RIC-information requests and responses (Sections 6–7).
    pub const RIC: TrafficClass = 4;
}
