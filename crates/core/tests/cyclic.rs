//! Oracle suite for cyclic query shapes: triangles, 4-cycles and cliques
//! are planned as replicated hypercubes, and their answers must be exactly
//! the centralized windowed oracle's — under every driver the
//! `RJOIN_SHARDS` matrix selects, under graceful churn, and byte-identical
//! across shard counts. The suite also pins the two-plan cost model
//! (acyclic stays on the rewrite pipeline).

mod common;

use common::{drain, oracle_answers, shard_counts, sorted};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::parse_query;
use rjoin_relation::{Timestamp, Tuple, Value};
use rjoin_workload::Scenario;

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
/// windowed state would wheel-expire before in-window tuples are even
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

/// The acceptance triangle, end to end: `R.A = S.A AND S.B = T.B AND
/// T.C = R.C` with hand-placed tuples whose joining combinations are known,
/// answers checked against the oracle under every shard count in the
/// matrix and required to be identical across them.
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

/// The cyclic preset (random triangles) against the oracle, per shard-count
/// matrix leg, with the answer maps identical across legs.
#[test]
fn cyclic_preset_matches_oracle_across_shard_counts() {
    let scenario = Scenario::cyclic_test();
    let runs: Vec<_> =
        shard_counts().into_iter().map(|s| check_against_oracle(&scenario, s, false)).collect();
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "cyclic answers must be identical across the shard-count matrix"
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
