//! A node process reads rewritten queries through their input query's plan,
//! which never crosses the wire: every `Eval` arrives without it, and the
//! node compiles one plan per query, then reuses it for every later
//! arrival and trigger of that query, and hands it on to the children it
//! emits.

use rjoin_core::pipeline::{handle_node_msg, standalone_node_state, Action, TickEffect};
use rjoin_core::{EngineConfig, NodeState, PendingQuery, QueryId, RJoinMessage};
use rjoin_dht::Id;
use rjoin_query::{parse_query, IndexKey, IndexLevel};
use rjoin_relation::{Catalog, Schema, Tuple, Value};
use rjoin_transport::frame::{read_frame, write_frame};
use rjoin_transport::ServiceMessage;
use std::io::Cursor;
use std::sync::Arc;

fn tuple(relation: &str, values: [i64; 2], pub_time: u64) -> Arc<Tuple> {
    Arc::new(Tuple::new(relation, values.map(Value::from).to_vec(), pub_time))
}

/// `msg` as the receiving node process gets it: written to and read back
/// from a frame.
fn over_the_wire(msg: RJoinMessage) -> RJoinMessage {
    let mut frame = Vec::new();
    write_frame(&mut frame, &ServiceMessage::Engine { at: 1, msg }).unwrap();
    match read_frame(&mut Cursor::new(frame)).unwrap() {
        Some(ServiceMessage::Engine { msg, .. }) => msg,
        other => panic!("an engine frame reads back as one, got {other:?}"),
    }
}

fn deliver(state: &mut NodeState, catalog: &Catalog, at: u64, msg: RJoinMessage) -> Vec<Action> {
    let config = EngineConfig::default();
    match handle_node_msg(state, catalog, &config, at, at, state.id, over_the_wire(msg)) {
        TickEffect::Node { actions, .. } => actions,
        _ => unreachable!("a node message yields node effects"),
    }
}

#[test]
fn a_node_process_compiles_one_plan_per_query() {
    let mut catalog = Catalog::new();
    for relation in ["R0", "R1", "R2"] {
        catalog.register(Schema::new(relation, ["A0", "A1"]).unwrap()).unwrap();
    }
    let sql = "SELECT R0.A1, R2.A1 FROM R0, R1, R2 WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A0";
    let owner = Id(9);
    let inputs: Vec<PendingQuery> = (0..2)
        .map(|seq| PendingQuery::input(QueryId { owner, seq }, owner, 0, parse_query(sql).unwrap()))
        .collect();
    let mut state = standalone_node_state(Id(1), &EngineConfig::default());

    // Three rewritten queries of each input query, each bound by its own
    // R0 tuple, re-indexed here under the key their binding pins.
    let key = IndexKey::value("R1", "A0", Value::from(4));
    for input in &inputs {
        for (i, pub_time) in [2, 3, 4].into_iter().enumerate() {
            let child = input.child(&tuple("R0", [4, i as i64], pub_time), Some(pub_time));
            let eval = RJoinMessage::Eval {
                pending: child,
                key: key.hashed(),
                level: IndexLevel::Value,
                carried_ric: Vec::new(),
            };
            assert!(deliver(&mut state, &catalog, 5, eval).is_empty(), "nothing to join yet");
        }
    }
    assert_eq!(state.stored_rewritten_count(), 6);
    assert_eq!(state.compile_counters().programs_compiled, 2, "one plan per query");

    // An R1 tuple triggers all six: one child each, reading through the
    // node's plans — nothing more is compiled, and every child carries its
    // query's plan on.
    let arrival = RJoinMessage::NewTuple {
        tuple: tuple("R1", [4, 7], 6),
        key: key.hashed(),
        level: IndexLevel::Value,
        publisher: owner,
    };
    let actions = deliver(&mut state, &catalog, 6, arrival);
    assert_eq!(actions.len(), 6);
    let counters = state.compile_counters();
    assert_eq!(counters.programs_compiled, 2, "{counters:?}");
    assert!(counters.cache_hits >= 10, "four arrivals and six triggers reuse a plan: {counters:?}");
    let plans: Vec<_> = actions
        .iter()
        .map(|action| match action {
            Action::Reindex { pending } => Arc::clone(pending.plan().expect("carried on")),
            other => panic!("a partial join re-indexes, got {other:?}"),
        })
        .collect();
    for (i, plan) in plans.iter().enumerate() {
        let same_query = plans.iter().filter(|other| Arc::ptr_eq(plan, other)).count();
        assert_eq!(same_query, 3, "child {i}: the three children of a query share its plan");
    }
}

/// A rewritten query whose bound tuple does not fit its slot — it carries
/// too few columns for what the plan reads — is refused on arrival rather
/// than stored, where reading it would go out of bounds.
#[test]
fn a_binding_that_does_not_fit_its_slot_is_refused() {
    let mut catalog = Catalog::new();
    for relation in ["R0", "R1"] {
        catalog.register(Schema::new(relation, ["A0", "A1"]).unwrap()).unwrap();
    }
    let sql = "SELECT R0.A1, R1.A1 FROM R0, R1 WHERE R0.A0 = R1.A0";
    let input =
        PendingQuery::input(QueryId { owner: Id(9), seq: 0 }, Id(9), 0, parse_query(sql).unwrap());
    let short = Arc::new(Tuple::new("R0", vec![Value::from(4)], 2));
    let eval = RJoinMessage::Eval {
        pending: input.child(&short, Some(2)),
        key: IndexKey::value("R1", "A0", Value::from(4)).hashed(),
        level: IndexLevel::Value,
        carried_ric: Vec::new(),
    };
    let mut state = standalone_node_state(Id(1), &EngineConfig::default());
    assert!(deliver(&mut state, &catalog, 3, eval).is_empty());
    assert_eq!(state.stored_query_count(), 0, "refused, not stored");
}
