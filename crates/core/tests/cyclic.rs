//! Oracle suite for cyclic query shapes: triangles, 4-cycles and cliques
//! are planned as replicated hypercubes, and their answers must be exactly
//! the centralized windowed oracle's — at every shard count of
//! `common::shard_counts()`, under graceful churn, and byte-identical
//! across shard counts. The suite also pins the two-plan cost model
//! (acyclic stays on the rewrite pipeline).

mod common;

use common::{drain, oracle_answers, shard_counts, sorted};
use rjoin_core::{traffic_class, EngineConfig, QueryId, RJoinEngine};
use rjoin_dht::{ChordNetwork, Id};
use rjoin_net::{Network, NetworkConfig};
use rjoin_query::parse_query;
use rjoin_relation::{Timestamp, Tuple, Value};
use rjoin_workload::Scenario;
use std::collections::BTreeMap;

/// Per-query sorted answer rows, in query-submission order.
type AnswersByQuery = Vec<(QueryId, Vec<Vec<Value>>)>;

/// Drives a scenario, optionally with graceful churn one third and two
/// thirds into the tuple stream. Returns the engine, the per-query sorted
/// answers in submission order, and the published tuples.
///
/// The stream is published without intermediate drains (churn boundaries
/// excepted — membership changes require a quiescent network): draining
/// after every tuple races the simulation clock arbitrarily far ahead of
/// publication times, which breaks the engine's delivery-slack contract —
/// windowed state would expire before in-window tuples are even
/// delivered.
fn run(
    scenario: &Scenario,
    config: EngineConfig,
    churn: bool,
) -> (RJoinEngine, AnswersByQuery, Vec<Tuple>) {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();

    let mut qids = Vec::new();
    let mut owners = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        let origin = origins[i % origins.len()];
        owners.push(origin);
        qids.push(engine.submit_query(origin, q).unwrap());
    }
    drain(&mut engine);

    let tuples = scenario.generate_tuples(engine.now() + 1);
    let churn_points = [tuples.len() / 3, 2 * tuples.len() / 3];
    for (i, t) in tuples.iter().enumerate() {
        if churn && i == churn_points[0] {
            drain(&mut engine);
            engine.join_node("cyclic-churn-join-a").unwrap();
            engine.join_node("cyclic-churn-join-b").unwrap();
        }
        if churn && i == churn_points[1] {
            drain(&mut engine);
            // A query owner must not leave: answers are delivered to it.
            let leaver = engine
                .node_ids()
                .iter()
                .copied()
                .find(|id| !owners.contains(id))
                .expect("the ring keeps non-owner nodes");
            engine.leave_node(leaver).unwrap();
        }
        let origin = engine.node_ids()[i % engine.node_ids().len()];
        engine.publish_tuple(origin, t.clone()).unwrap();
    }
    drain(&mut engine);

    let answers: AnswersByQuery =
        qids.into_iter().map(|qid| (qid, sorted(engine.answers().rows_for(qid)))).collect();
    (engine, answers, tuples)
}

/// Checks one scenario against the oracle under one shard count and returns
/// the answer map (for cross-shard-count identity checks).
fn check_against_oracle(scenario: &Scenario, shards: usize, churn: bool) -> AnswersByQuery {
    let config = EngineConfig::default().with_shards(shards);
    let (engine, answers, tuples) = run(scenario, config, churn);
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();

    assert!(
        engine.planner_counters().any_hypercube(),
        "cyclic workloads must take the hypercube plan (shards={shards})"
    );
    let mut total = 0usize;
    for ((qid, actual), query) in answers.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        assert_eq!(
            actual, &expected,
            "cyclic query {qid} diverges from the centralized oracle \
             (shards={shards}, churn={churn}): {query}"
        );
        total += expected.len();
    }
    assert!(total > 0, "the cyclic workload must produce at least one answer");
    answers
}

/// `(tuples_routed, tuple_copies)` of `Scenario::cyclic_test()`'s stream:
/// how many tuples entered a hypercube and how many cell copies they made —
/// the same counts one unicast route per copy produced.
const TUPLE_COPIES: (u64, u64) = (563, 1126);

/// The acceptance triangle, end to end: `R.A = S.A AND S.B = T.B AND
/// T.C = R.C` with hand-placed tuples whose joining combinations are known,
/// answers checked against the oracle at every shard count and required to
/// be identical across them.
#[test]
fn explicit_triangle_matches_oracle_and_is_shard_deterministic() {
    let schema = rjoin_workload::WorkloadSchema::new(3, 3, 16);
    let catalog = schema.build_catalog();
    let query = parse_query(
        "SELECT R0.A2, R2.A2 FROM R0, R1, R2 \
         WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A1 AND R2.A2 = R0.A2",
    )
    .unwrap();
    assert_eq!(rjoin_query::classify_shape(&query), rjoin_query::QueryShape::Cyclic);

    let tuple = |rel: &str, vals: [i64; 3], at: Timestamp| {
        Tuple::new(rel, vals.iter().map(|v| Value::from(*v)).collect(), at)
    };
    // Two full triangles (a = 1 and a = 2), one broken one (a = 3: the
    // closing T.C = R.C edge fails), plus noise rows per relation.
    let make_tuples = |base: Timestamp| -> Vec<Tuple> {
        vec![
            tuple("R0", [1, 9, 5], base),
            tuple("R1", [1, 4, 9], base + 1),
            tuple("R2", [9, 4, 5], base + 2),
            tuple("R0", [2, 9, 6], base + 3),
            tuple("R1", [2, 7, 9], base + 4),
            tuple("R2", [8, 7, 6], base + 5),
            tuple("R0", [3, 9, 7], base + 6),
            tuple("R1", [3, 5, 9], base + 7),
            tuple("R2", [8, 5, 12], base + 8),
            tuple("R0", [14, 9, 5], base + 9),
            tuple("R1", [15, 4, 9], base + 10),
            tuple("R2", [9, 15, 5], base + 11),
        ]
    };

    let mut per_shards: Vec<Vec<Vec<Value>>> = Vec::new();
    for shards in [1usize, 2, 4] {
        let config = EngineConfig::default().with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), 24);
        let origin = engine.node_ids()[0];
        let qid = engine.submit_query(origin, query.clone()).unwrap();
        drain(&mut engine);
        let tuples = make_tuples(engine.now() + 1);
        for (i, t) in tuples.iter().enumerate() {
            let origin = engine.node_ids()[i % engine.node_ids().len()];
            engine.publish_tuple(origin, t.clone()).unwrap();
        }
        drain(&mut engine);

        let expected = sorted(oracle_answers(&catalog, &query, 0, &tuples));
        assert_eq!(expected.len(), 2, "the hand-placed workload forms exactly two triangles");
        let actual = sorted(engine.answers().rows_for(qid));
        assert_eq!(actual, expected, "triangle answers diverge from the oracle at {shards} shards");

        let planner = engine.planner_counters();
        assert_eq!(planner.hypercube_plans, 1);
        assert_eq!(planner.pipeline_plans, 0);
        assert!(planner.cells_allocated > 0 && planner.replicated_evals > 0);
        assert!(planner.tuple_copies >= planner.tuples_routed);
        per_shards.push(actual);
    }
    assert!(
        per_shards.windows(2).all(|w| w[0] == w[1]),
        "triangle answers must be identical across shard counts 1, 2, 4"
    );
}

/// The cyclic preset (random triangles) against the oracle, per shard
/// count, with the answer maps identical across shard counts.
#[test]
fn cyclic_preset_matches_oracle_across_shard_counts() {
    let scenario = Scenario::cyclic_test();
    let runs: Vec<_> =
        shard_counts().into_iter().map(|s| check_against_oracle(&scenario, s, false)).collect();
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "cyclic answers must be identical across shard counts"
    );
}

/// Random 4-cycles against the oracle.
#[test]
fn four_cycles_match_oracle() {
    let scenario = Scenario {
        cycle: 4,
        queries: 8,
        tuples: 56,
        domain: 4,
        relations: 4,
        attributes: 3,
        ..Scenario::cyclic_test()
    };
    for shards in shard_counts() {
        check_against_oracle(&scenario, shards, false);
    }
}

/// A windowed triangle workload: the hypercube's cell-local partials must
/// respect sliding-window validity exactly like the pipeline does.
#[test]
fn windowed_triangles_match_windowed_oracle() {
    let scenario = Scenario {
        window: rjoin_query::WindowSpec::sliding_tuples(12),
        tuples: 72,
        ..Scenario::cyclic_test()
    };
    // Sanity: the window must actually exclude some combination, so compare
    // windowed vs unwindowed oracle totals on the first query.
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    let (_, answers, tuples) = run(&scenario, EngineConfig::default(), false);
    let mut windowed_total = 0usize;
    let mut unwindowed_total = 0usize;
    for ((qid, actual), query) in answers.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        assert_eq!(actual, &expected, "windowed cyclic query {qid} diverges from the oracle");
        windowed_total += expected.len();
        let unwindowed = query.clone().with_window(rjoin_query::WindowSpec::None);
        unwindowed_total += oracle_answers(&catalog, &unwindowed, 0, &tuples).len();
    }
    assert!(windowed_total > 0, "the windowed cyclic workload must produce answers");
    assert!(
        unwindowed_total > windowed_total,
        "the window must exclude at least one cyclic combination"
    );
}

/// Graceful churn mid-stream: hypercube cell state (replicated query
/// copies, routed tuple copies, cell-local partials) re-homes with ring
/// membership, and the answers still match the oracle exactly.
#[test]
fn cyclic_answers_survive_churn() {
    let scenario = Scenario { tuples: 45, ..Scenario::cyclic_test() };
    for shards in shard_counts() {
        check_against_oracle(&scenario, shards, true);
    }
}

/// The cost model's two legs, observable through the planner counters: an
/// acyclic chain stays on the pipeline (one hop per join beats a cell
/// budget's worth of replicas), a cyclic triangle must take the hypercube.
#[test]
fn cost_model_picks_pipeline_for_acyclic_and_hypercube_for_cyclic() {
    let scenario = Scenario::cyclic_test();
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let origin = engine.node_ids()[0];

    let chain =
        parse_query("SELECT R0.A1, R2.A1 FROM R0, R1, R2 WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A1")
            .unwrap();
    engine.submit_query(origin, chain).unwrap();
    let after_chain = *engine.planner_counters();
    assert_eq!(after_chain.pipeline_plans, 1);
    assert_eq!(after_chain.hypercube_plans, 0);

    let triangle = scenario.generate_queries().remove(0);
    engine.submit_query(origin, triangle).unwrap();
    let after_triangle = *engine.planner_counters();
    assert_eq!(after_triangle.pipeline_plans, 1);
    assert_eq!(after_triangle.hypercube_plans, 1);
    assert!(after_triangle.cells_allocated >= 2, "the default budget allocates multiple cells");
    // The planner's decisions surface through the stats snapshot too.
    engine.run_until_quiescent().unwrap();
    assert_eq!(engine.stats().planner, after_triangle);
}

/// The messages each node sends when items for `owners` leave `origin` as
/// one `multiSend` forwarded hop by hop: a node that received items keeps
/// the ones it owns, groups the rest by next hop (its successor when it
/// owns the key's predecessor interval, else its closest preceding node)
/// and sends one message per group.
fn reference_tree(dht: &ChordNetwork, origin: Id, owners: &[Id]) -> BTreeMap<Id, u64> {
    let mut sent = BTreeMap::new();
    let mut messages = vec![(origin, owners.to_vec(), false)];
    while let Some((node, owners, received)) = messages.pop() {
        let chord = dht.node(node).expect("a live node");
        let successor = chord.successor();
        let mut groups: BTreeMap<Id, Vec<Id>> = BTreeMap::new();
        for owner in owners.into_iter().filter(|owner| !(received && *owner == node)) {
            let next = if owner.in_open_closed_interval(node, successor) {
                successor
            } else {
                chord.closest_preceding_node(owner).filter(|n| *n != node).unwrap_or(successor)
            };
            groups.entry(next).or_default().push(owner);
        }
        for (next, owners) in groups {
            *sent.entry(node).or_insert(0) += 1;
            messages.push((next, owners, true));
        }
    }
    sent
}

/// A published tuple's index keys and hypercube cell copies leave as one
/// `multiSend`: the TUPLE-class messages each node sends equal the
/// hop-by-hop reference forwarder's for the items the tuple delivered,
/// while the copies themselves and the answers stay what they were.
#[test]
fn tuple_copies_travel_as_one_forwarding_tree() {
    let scenario = Scenario::cyclic_test();
    let catalog = scenario.workload_schema().build_catalog();
    let config = EngineConfig::default();
    // `simulated` bootstraps its ring from the `rjoin-node` label; the same
    // bootstrap rebuilds it for the reference forwarder.
    let mut ring: Network<()> = Network::new(NetworkConfig { delay: config.network_delay });
    let ids = ring.bootstrap(scenario.nodes, "rjoin-node");
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
    assert_eq!(engine.node_ids(), ids.as_slice());

    let queries = scenario.generate_queries();
    let qids: Vec<QueryId> =
        queries.iter().map(|q| engine.submit_query(ids[0], q.clone()).unwrap()).collect();
    drain(&mut engine);
    let tuples = scenario.generate_tuples(engine.now() + 1);
    let tuple_sent = |engine: &RJoinEngine| -> Vec<u64> {
        ids.iter().map(|id| engine.traffic().sent_by_class(*id, traffic_class::TUPLE)).collect()
    };
    for (i, tuple) in tuples.iter().enumerate() {
        let origin = ids[i % ids.len()];
        let sent_before = tuple_sent(&engine);
        let received_before: Vec<u64> =
            ids.iter().map(|id| engine.traffic().received_by(*id)).collect();
        engine.publish_tuple(origin, tuple.clone()).unwrap();
        // Each delivered item is one reception at its owner.
        let owners: Vec<Id> = ids
            .iter()
            .zip(received_before)
            .flat_map(|(id, before)| {
                std::iter::repeat_n(*id, (engine.traffic().received_by(*id) - before) as usize)
            })
            .collect();
        let tree = reference_tree(ring.dht(), origin, &owners);
        let sent: Vec<u64> = tuple_sent(&engine)
            .iter()
            .zip(sent_before)
            .map(|(after, before)| after - before)
            .collect();
        let expected: Vec<u64> = ids.iter().map(|id| tree.get(id).copied().unwrap_or(0)).collect();
        assert_eq!(sent, expected, "tuple {i}: TUPLE traffic is the forwarding tree's");
    }
    drain(&mut engine);

    let planner = engine.planner_counters();
    assert_eq!(
        (planner.tuples_routed, planner.tuple_copies),
        TUPLE_COPIES,
        "the tree moves messages, not copies"
    );
    let mut answers = 0;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        answers += expected.len();
        assert_eq!(sorted(engine.answers().rows_for(*qid)), expected, "query {qid}: {query}");
    }
    assert!(answers > 0, "the stream must produce answers");
}
