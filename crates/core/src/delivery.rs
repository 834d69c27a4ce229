//! One delivery, node-local: the handler phase every driver runs.
//!
//! [`handle_node_msg`] expires the node's due state, runs Procedures 1–3
//! against it and returns the delivery's [`TickEffect`]; the effect phase
//! then applies it — load counters, answers, and every rewritten query
//! through the placement pipeline of [`crate::placement`]. The simulator's
//! rounds and the TCP node process call the same function, so both
//! produce identical effects.

use crate::answers::AnswerRecord;
use crate::config::EngineConfig;
use crate::messages::RJoinMessage;
use crate::node_state::NodeState;
use crate::procedures::{self, Action, ProcCtx};
use rjoin_dht::Id;
use rjoin_net::SimTime;
use rjoin_query::IndexLevel;
use rjoin_relation::Catalog;

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
/// for out-of-process drivers (such as `rjoin_transport`'s node processes)
/// that run [`handle_node_msg`] themselves with `config`. Queries reach such
/// a node over a wire, without their plans; it compiles one per query
/// ([`NodeState::adopt`]). No field of the configuration shapes a
/// node's state today; a driver passes the one it runs the handlers with.
pub fn standalone_node_state(id: Id, _config: &EngineConfig) -> NodeState {
    NodeState::new(id)
}
