//! The local join inside a hypercube cell (`rjoin_core`'s `cell` module and
//! the probe cascade in `procedures`), checked against a brute-force
//! reference at two levels:
//!
//! * **one cell, by hand** — a single [`NodeState`] driven through
//!   [`handle_node_msg`], so the arrival interleaving and the point at which
//!   the replica registers are chosen by the test (a property test over
//!   triangles, 4-cycles, 4-cliques and a disconnected shape, plus
//!   hand-placed 4-cycle / 4-clique workloads that must produce answers);
//! * **the whole engine** — what a cell holds after a windowed run (its
//!   replica and a window's worth of tuples, nothing else), cliques on the
//!   planner's grid, and windowed triangles across mid-stream churn.
//!
//! `tests/cyclic.rs` keeps the oracle suite for the planner and placement;
//! this file is about what happens inside the cells.

mod common;

use common::{drain, oracle_answers, shard_counts, sorted};
use proptest::prelude::*;
use rjoin_core::pipeline::{handle_node_msg, standalone_node_state, Action, TickEffect};
use rjoin_core::{
    EngineConfig, HypercubeRef, NodeState, PendingQuery, QueryId, RJoinEngine, RJoinMessage,
};
use rjoin_dht::{HashedKey, Id};
use rjoin_query::{parse_query, IndexLevel, JoinQuery};
use rjoin_query::{QueryShape, WindowSpec};
use rjoin_relation::{Catalog, Timestamp, Tuple, Value};
use rjoin_workload::{Scenario, WorkloadSchema};
use std::sync::Arc;

// ---- one cell, by hand ------------------------------------------------------

/// One hypercube cell on one node: every copy and the replica go to the
/// same (single-cell) key.
struct OneCell {
    state: NodeState,
    catalog: Catalog,
    config: EngineConfig,
    key: HashedKey,
    tick: u64,
    rows: Vec<Vec<Value>>,
}

impl OneCell {
    fn new(catalog: Catalog, config: EngineConfig) -> Self {
        OneCell {
            state: standalone_node_state(Id(7), &config),
            catalog,
            config,
            key: HashedKey::new("hcube+0000000000000007+0"),
            tick: 1_000,
            rows: Vec::new(),
        }
    }

    /// Delivers one message to the cell, one tick after the previous one,
    /// and collects the answers it produces.
    fn deliver(&mut self, msg: RJoinMessage) {
        self.tick += 1;
        let (state, tick) = (&mut self.state, self.tick);
        match handle_node_msg(state, &self.catalog, &self.config, tick, tick, Id(7), msg) {
            TickEffect::Node { actions, .. } => {
                for action in actions {
                    match action {
                        Action::DeliverAnswer { row, .. } => self.rows.push(row),
                        Action::Reindex { .. } => panic!("a cell never re-indexes a partial"),
                    }
                }
            }
            _ => panic!("node messages resolve to node effects"),
        }
    }

    fn register(&mut self, query: &JoinQuery, insert_time: Timestamp) {
        let pending = PendingQuery::input(
            QueryId { owner: Id(7), seq: 0 },
            Id(7),
            insert_time,
            query.clone(),
        )
        .with_hypercube(Some(HypercubeRef { base: self.key.clone(), cells: 1 }));
        let msg =
            RJoinMessage::IndexQuery { pending, key: self.key.clone(), level: IndexLevel::Value };
        self.deliver(msg);
    }

    fn arrive(&mut self, tuple: &Tuple) {
        self.deliver(RJoinMessage::NewTuple {
            tuple: Arc::new(tuple.clone()),
            key: self.key.clone(),
            level: IndexLevel::Value,
            publisher: Id(7),
        });
    }
}

/// Runs `tuples` through one cell in `order`, registering the replica after
/// `register_after` arrivals; returns the sorted answer rows and the cell's
/// node state.
fn run_one_cell(
    query: &JoinQuery,
    insert_time: Timestamp,
    tuples: &[Tuple],
    order: &[usize],
    register_after: usize,
    config: EngineConfig,
) -> (Vec<Vec<Value>>, NodeState) {
    let mut cell = OneCell::new(schema().build_catalog(), config);
    for (arrived, &i) in order.iter().enumerate() {
        if arrived == register_after {
            cell.register(query, insert_time);
        }
        cell.arrive(&tuples[i]);
    }
    if register_after >= order.len() {
        cell.register(query, insert_time);
    }
    (sorted(cell.rows), cell.state)
}

/// Four relations `R0..R3` with attributes `A0..A3` (a 4-clique needs one
/// attribute per neighbour and one to spare for `SELECT`).
fn schema() -> WorkloadSchema {
    WorkloadSchema::new(4, 4, 3)
}

const TRIANGLE: &str = "SELECT R0.A3, R1.A3, R2.A3 FROM R0, R1, R2 \
     WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A1 AND R2.A2 = R0.A2";
/// After the first binding two neighbours are pinned and the opposite
/// relation is not: the cascade must start from a pinned one.
const FOUR_CYCLE: &str = "SELECT R0.A3, R1.A3, R2.A3, R3.A3 FROM R0, R1, R2, R3 \
     WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A1 AND R2.A2 = R3.A2 AND R3.A0 = R0.A1";
const FOUR_CLIQUE: &str = "SELECT R0.A3, R1.A3, R2.A3, R3.A3 FROM R0, R1, R2, R3 \
     WHERE R0.A0 = R1.A0 AND R0.A1 = R2.A1 AND R0.A2 = R3.A2 \
     AND R1.A1 = R2.A2 AND R1.A2 = R3.A0 AND R2.A0 = R3.A1";
/// Two joins that share no attribute: once one side is bound nothing pins
/// the other, so the cascade falls back to scanning that relation's tuples.
const DISCONNECTED: &str = "SELECT R0.A3, R1.A3, R2.A3, R3.A3 FROM R0, R1, R2, R3 \
     WHERE R0.A0 = R1.A0 AND R2.A1 = R3.A1";
const SHAPES: [&str; 4] = [TRIANGLE, FOUR_CYCLE, FOUR_CLIQUE, DISCONNECTED];

fn tuple(relation: usize, values: [i64; 4], pub_time: Timestamp) -> Tuple {
    Tuple::new(format!("R{relation}"), values.iter().map(|v| Value::from(*v)).collect(), pub_time)
}

proptest! {
    /// One publication unit (consecutive publication times) reaches a cell
    /// in a random order, and the replica registers at a random point of
    /// that order — before every copy, between two, or after all of them.
    /// Whatever the interleaving, the cell's answer bag is the reference's:
    /// every combination is assembled exactly once, at its latest member's
    /// arrival, or by the registration cascade over the copies that were
    /// there first.
    #[test]
    fn any_interleaving_and_registration_point_gives_the_reference_bag(
        shape in 0usize..SHAPES.len(),
        window in prop_oneof![
            Just(WindowSpec::None),
            (2u64..10).prop_map(WindowSpec::sliding_tuples),
            (2u64..10).prop_map(WindowSpec::tumbling_time),
        ],
        rows in proptest::collection::vec((0usize..4, proptest::collection::vec(0i64..2, 4)), 4..16),
        shuffle in proptest::collection::vec(0u32..1_000, 16),
        register_after in 0usize..17,
        insert_offset in 0u64..3,
    ) {
        let query = parse_query(SHAPES[shape]).unwrap().with_window(window);
        let base = 100;
        let tuples: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, (rel, vals))| tuple(*rel, [vals[0], vals[1], vals[2], vals[3]], base + i as u64))
            .collect();
        let mut order: Vec<usize> = (0..tuples.len()).collect();
        order.sort_by_key(|&i| (shuffle[i], i));
        let insert_time = base + insert_offset;
        let (actual, state) = run_one_cell(
            &query,
            insert_time,
            &tuples,
            &order,
            register_after % (tuples.len() + 1),
            EngineConfig::default(),
        );
        let expected = sorted(oracle_answers(&schema().build_catalog(), &query, insert_time, &tuples));
        prop_assert_eq!(actual, expected);
        prop_assert_eq!(state.stored_query_count(), 1, "the cell holds its replica");
        prop_assert_eq!(state.stored_rewritten_count(), 0, "and never a partial");
    }
}

/// Hand-placed 4-cycle and 4-clique workloads that are known to join: two
/// all-ones tuples per relation (every combination of them joins: 2⁴
/// answers) between noise tuples that match on some attributes only,
/// arriving newest-first with the replica registering mid-stream.
#[test]
fn hand_placed_four_cycle_and_four_clique_complete_every_combination() {
    let catalog = schema().build_catalog();
    let mut tuples = Vec::new();
    for relation in 0..4 {
        for (i, values) in
            [[1, 1, 1, 7], [1, 0, 1, 8], [1, 1, 1, 9], [0, 1, 0, 5]].iter().enumerate()
        {
            tuples.push(tuple(relation, *values, 50 + (relation * 4 + i) as u64));
        }
    }
    let newest_first: Vec<usize> = (0..tuples.len()).rev().collect();
    for (sql, at_least) in [(FOUR_CYCLE, 16), (FOUR_CLIQUE, 16)] {
        let query = parse_query(sql).unwrap();
        assert_eq!(rjoin_query::classify_shape(&query), QueryShape::Cyclic);
        let expected = sorted(oracle_answers(&catalog, &query, 0, &tuples));
        assert!(expected.len() >= at_least, "{sql}: only {} reference answers", expected.len());
        for register_after in [0, 7, tuples.len()] {
            let (actual, state) = run_one_cell(
                &query,
                0,
                &tuples,
                &newest_first,
                register_after,
                EngineConfig::default(),
            );
            assert_eq!(actual, expected, "{sql}, replica registered after {register_after} copies");
            assert_eq!(state.stored_tuple_count(), tuples.len(), "every copy is kept (no window)");
            let probes = state.probe_counters();
            assert!(
                probes.candidates_probed < probes.bucket_len_total,
                "{sql}: the cascade must probe, not scan ({probes:?})"
            );
        }
    }
}

// ---- the whole engine -------------------------------------------------------

/// Publishes `tuples` in `segments` equal parts: each part is stamped
/// `now + 1 ..` at its boundary (a mid-stream drain moves the clock past
/// pre-stamped times, which would break the delivery-slack contract window
/// expiry relies on), published without intermediate drains, drained, and
/// followed by `between(engine, part index)`. Returns the tuples as
/// published.
fn publish_in_segments(
    engine: &mut RJoinEngine,
    tuples: &[Tuple],
    segments: usize,
    mut between: impl FnMut(&mut RJoinEngine, usize),
) -> Vec<Tuple> {
    let mut published = Vec::with_capacity(tuples.len());
    for (part, chunk) in tuples.chunks(tuples.len().div_ceil(segments)).enumerate() {
        let base = engine.now() + 1;
        for (i, t) in chunk.iter().enumerate() {
            let stamped = t.with_pub_time(base + i as u64);
            let origin = engine.node_ids()[published.len() % engine.node_ids().len()];
            engine.publish_tuple(origin, stamped.clone()).unwrap();
            published.push(stamped);
        }
        drain(engine);
        between(engine, part);
    }
    published
}

fn submit_all(engine: &mut RJoinEngine, queries: &[JoinQuery]) -> Vec<QueryId> {
    let origins = engine.node_ids().to_vec();
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| engine.submit_query(origins[i % origins.len()], q.clone()).unwrap())
        .collect()
}

/// Every query's sorted answers equal the reference's; returns how many.
fn assert_matches_reference(
    tag: &str,
    engine: &RJoinEngine,
    catalog: &Catalog,
    queries: &[JoinQuery],
    qids: &[QueryId],
    published: &[Tuple],
) -> usize {
    let mut total = 0;
    for (query, qid) in queries.iter().zip(qids) {
        let expected = sorted(oracle_answers(catalog, query, 0, published));
        assert_eq!(sorted(engine.answers().rows_for(*qid)), expected, "{tag}: {query}");
        total += expected.len();
    }
    total
}

/// After a windowed run a cell holds exactly its replica — stored queries
/// are queries × cells, none of them rewritten — and its tuples are bounded
/// by the window, not by how long the stream ran.
#[test]
fn cells_hold_their_replica_and_a_window_of_tuples() {
    let window = 12u64;
    let scenario = Scenario {
        window: WindowSpec::sliding_tuples(window),
        tuples: 240,
        ..Scenario::cyclic_test()
    };
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    let mut engine =
        RJoinEngine::simulated(EngineConfig::default(), catalog.clone(), scenario.nodes);
    let qids = submit_all(&mut engine, &queries);
    engine.run_until_quiescent().unwrap();
    let published = publish_in_segments(&mut engine, &scenario.generate_tuples(0), 10, |_, _| {});
    let answers = assert_matches_reference("state", &engine, &catalog, &queries, &qids, &published);
    assert!(answers > 0, "the windowed workload must produce answers");

    let planner = *engine.planner_counters();
    assert_eq!(planner.hypercube_plans as usize, queries.len());
    assert_eq!(engine.stored_queries_current(), planner.cells_allocated, "one replica per cell");
    let states = || engine.node_ids().iter().map(|id| engine.node_state(*id).unwrap());
    assert_eq!(states().map(NodeState::stored_rewritten_count).sum::<usize>(), 0, "no partials");

    // Every published tuple keeps one value-level copy per attribute in the
    // plain stores (never evicted); the rest of the stored tuples are cell
    // copies. A copy outlives its publication by the window plus the
    // delivery slack δ, publication times are one per tick, and a tuple has
    // at most one copy per cell of every plan.
    let stored: usize = states().map(NodeState::stored_tuple_count).sum();
    let in_cells = (stored - published.len() * scenario.attributes) as u64;
    let bound = (window + engine.config().network_delay) * planner.cells_allocated;
    assert!(in_cells <= bound, "{in_cells} cell tuples exceed the window bound {bound}");
    assert!(
        planner.tuple_copies > 4 * in_cells,
        "cells must hold a window's worth of the {} copies routed, not {in_cells}",
        planner.tuple_copies
    );
}

/// 4-cliques on the planner's grid (six axes, every relation bound on
/// three): placement plus the cell cascade against the reference.
#[test]
fn four_cliques_match_the_reference() {
    let scenario =
        Scenario { relations: 4, attributes: 4, domain: 2, tuples: 64, ..Scenario::cyclic_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut generator = scenario.query_generator();
    let queries: Vec<JoinQuery> = (0..6).map(|_| generator.generate_clique(4)).collect();
    for shards in shard_counts() {
        let config = EngineConfig::default().with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let qids = submit_all(&mut engine, &queries);
        drain(&mut engine);
        let published =
            publish_in_segments(&mut engine, &scenario.generate_tuples(0), 1, |_, _| {});
        assert!(engine.planner_counters().any_hypercube());
        let answers =
            assert_matches_reference("clique", &engine, &catalog, &queries, &qids, &published);
        assert!(answers > 0, "the clique workload must produce answers (shards={shards})");
    }
}

/// Windowed triangles across mid-stream churn: two nodes join after the
/// first third of the stream and a node leaves after the second, re-homing
/// cells (replica + tuples in arrival order) whose windows are still open.
#[test]
fn windowed_triangles_survive_mid_stream_churn() {
    let scenario =
        Scenario { window: WindowSpec::sliding_tuples(30), tuples: 72, ..Scenario::cyclic_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    for shards in shard_counts() {
        let config = EngineConfig::default().with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let qids = submit_all(&mut engine, &queries);
        drain(&mut engine);
        let owners: Vec<_> = qids.iter().map(|q| q.owner).collect();
        let tuples = scenario.generate_tuples(0);
        let published = publish_in_segments(&mut engine, &tuples, 3, |engine, part| {
            if part == 0 {
                engine.join_node("cell-churn-join-a").unwrap();
                engine.join_node("cell-churn-join-b").unwrap();
            } else if part == 1 {
                // A query owner must not leave: answers are delivered to it.
                let leaver =
                    engine.node_ids().iter().copied().find(|id| !owners.contains(id)).unwrap();
                assert!(engine.leave_node(leaver).unwrap() > 0, "the leaver re-homes state");
            }
        });
        let answers =
            assert_matches_reference("churn", &engine, &catalog, &queries, &qids, &published);
        assert!(answers > 0, "the churned workload must produce answers (shards={shards})");
        // Windows span the churn points, so some answers combine tuples
        // from both sides of a re-homing.
        let unwindowed: usize = queries
            .iter()
            .map(|q| {
                oracle_answers(&catalog, &q.clone().with_window(WindowSpec::None), 0, &published)
                    .len()
            })
            .sum();
        assert!(unwindowed > answers, "the window must exclude some combination");
        assert_eq!(engine.stored_queries_current(), engine.planner_counters().cells_allocated);
    }
}
