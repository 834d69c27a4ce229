//! Seed-determinism guarantees: the entire pipeline — workload generation,
//! network simulation, engine evaluation — is a pure function of the
//! scenario seed. Two runs from the same seed must agree byte-for-byte on
//! the generated workload and exactly on the engine's observable results.

use rjoin::prelude::*;

fn test_scenario() -> Scenario {
    Scenario {
        nodes: 32,
        queries: 120,
        tuples: 80,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 12,
        seed: 0xD5EE_D001,
        ..Scenario::small_test()
    }
}

/// Generated workloads are byte-identical across runs: the serialized JSON
/// of the full query and tuple lists matches exactly.
#[test]
fn same_seed_produces_byte_identical_workloads() {
    let scenario = test_scenario();

    let queries_a = serde_json::to_string(&scenario.generate_queries()).unwrap();
    let queries_b = serde_json::to_string(&scenario.generate_queries()).unwrap();
    assert_eq!(queries_a, queries_b, "query workload must be byte-identical");

    let tuples_a = serde_json::to_string(&scenario.generate_tuples(1)).unwrap();
    let tuples_b = serde_json::to_string(&scenario.generate_tuples(1)).unwrap();
    assert_eq!(tuples_a, tuples_b, "tuple workload must be byte-identical");

    // A fresh Scenario value with the same fields agrees too (nothing is
    // keyed off interior mutability or global state).
    let again = test_scenario();
    assert_eq!(queries_a, serde_json::to_string(&again.generate_queries()).unwrap());
    assert_eq!(tuples_a, serde_json::to_string(&again.generate_tuples(1)).unwrap());
}

/// The raw generators (not just the Scenario wrapper) are seed-deterministic
/// byte-for-byte.
#[test]
fn tuple_generator_is_byte_identical_across_runs() {
    let schema = WorkloadSchema::paper_default();
    let batch_a = TupleGenerator::new(schema.clone(), 0.9, 42).generate_batch(200, 1);
    let batch_b = TupleGenerator::new(schema, 0.9, 42).generate_batch(200, 1);
    assert_eq!(batch_a, batch_b);
    assert_eq!(serde_json::to_string(&batch_a).unwrap(), serde_json::to_string(&batch_b).unwrap());
}

fn run_engine(scenario: &Scenario) -> (u64, u64, u64, Vec<Vec<Value>>) {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();
    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();

    let stats = engine.stats();
    let mut all_rows: Vec<Vec<Value>> =
        qids.iter().flat_map(|qid| engine.answers().rows_for(*qid)).collect();
    all_rows.sort();
    (stats.answers, stats.qpl_total, stats.traffic_total, all_rows)
}

/// Two engine runs over the same scenario agree on answer counts, load and
/// traffic totals, and on the full multiset of delivered rows.
#[test]
fn same_seed_produces_identical_engine_results() {
    let scenario = test_scenario();
    let (answers_a, qpl_a, traffic_a, rows_a) = run_engine(&scenario);
    let (answers_b, qpl_b, traffic_b, rows_b) = run_engine(&scenario);

    assert!(answers_a > 0, "the determinism scenario should produce answers");
    assert_eq!(answers_a, answers_b, "answer counts must match across runs");
    assert_eq!(qpl_a, qpl_b, "query processing load must match across runs");
    assert_eq!(traffic_a, traffic_b, "traffic totals must match across runs");
    assert_eq!(rows_a, rows_b, "delivered rows must match across runs");
}

/// Every observable the suite compares, from one engine run: the answer
/// log in delivery order, QPL and SL (total and per node), traffic per node
/// and per class, and the sorted delivered-row multiset.
#[derive(Debug, PartialEq)]
struct Observables {
    answers: String,
    qpl_total: u64,
    sl_total: u64,
    qpl_per_node: Vec<u64>,
    sl_per_node: Vec<u64>,
    /// `traffic[class][node]`, nodes in join order.
    traffic: Vec<Vec<u64>>,
    rows: String,
}

/// One engine run at `shards` shards: queries installed and drained, then
/// every tuple published and drained, both drains through
/// `run_until_quiescent_parallel` on the configured worker count.
fn run_observables(scenario: &Scenario, config: EngineConfig, shards: usize) -> Observables {
    run_observables_with(scenario, config, shards, RJoinEngine::run_until_quiescent_parallel)
}

/// [`run_observables`] with a caller-chosen drain.
fn run_observables_with(
    scenario: &Scenario,
    config: EngineConfig,
    shards: usize,
    drain: fn(&mut RJoinEngine) -> Result<u64, rjoin::core::EngineError>,
) -> Observables {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config.with_shards(shards), catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();
    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
    }
    drain(&mut engine).unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    drain(&mut engine).unwrap();

    use rjoin::core::traffic_class::{ANSWER, EVAL, QUERY_INDEX, RIC, TUPLE};
    let traffic = [TUPLE, QUERY_INDEX, EVAL, ANSWER, RIC]
        .iter()
        .map(|class| nodes.iter().map(|id| engine.traffic().sent_by_class(*id, *class)).collect())
        .collect();
    let mut rows: Vec<Vec<Value>> =
        qids.iter().flat_map(|qid| engine.answers().rows_for(*qid)).collect();
    rows.sort();
    Observables {
        answers: format!("{:?}", engine.answers().records()),
        qpl_total: engine.total_qpl(),
        sl_total: engine.total_sl(),
        qpl_per_node: nodes.iter().map(|id| engine.qpl_per_node().get(id)).collect(),
        sl_per_node: nodes.iter().map(|id| engine.sl_per_node().get(id)).collect(),
        traffic,
        rows: serde_json::to_string(&rows).unwrap(),
    }
}

/// The sharded runtime is **byte-identical across shard counts**: under
/// every placement strategy, with and without the ALTT, shards {1, 2, 4, 8}
/// × workers {1, 2, 4} produce byte-identical observables. Placement
/// randomness is drawn per decision from the triggering message's lineage,
/// RIC reads are pure, and each node handles a tick's deliveries in lineage
/// order, so nothing the engine reports depends on how the ring is cut or
/// how many threads run the rounds.
#[test]
fn sharded_driver_is_byte_identical_across_shard_counts() {
    let scenario = test_scenario();
    let strategies = [
        PlacementStrategy::RicAware,
        PlacementStrategy::Random,
        PlacementStrategy::Worst,
        PlacementStrategy::FirstInClause,
    ];
    for strategy in strategies {
        for altt in [None, Some(100)] {
            let config = || {
                let config = EngineConfig::with_placement(strategy);
                altt.map_or(config.clone(), |retention| config.with_altt(retention))
            };
            let reference = run_observables(&scenario, config().with_workers(1), 1);
            assert!(!reference.rows.is_empty(), "the determinism scenario should answer");
            for shards in [1usize, 2, 4, 8] {
                for workers in [1usize, 2, 4] {
                    assert_eq!(
                        reference,
                        run_observables(&scenario, config().with_workers(workers), shards),
                        "{strategy:?}, ALTT {altt:?}: {shards} shards on {workers} workers \
                         must reproduce the one-shard trace"
                    );
                }
            }
        }
    }
}

/// Under the default configuration (RIC-aware placement, no ALTT), sharded
/// runs are repeatable and byte-identical to the one-shard run for every
/// shard count.
#[test]
fn sharded_default_config_agrees_across_shard_counts() {
    let scenario = test_scenario();
    let reference = run_observables(&scenario, EngineConfig::default(), 1);
    assert!(!reference.rows.is_empty(), "the determinism scenario should answer");
    for shards in [2usize, 4, 8] {
        let run_a = run_observables(&scenario, EngineConfig::default(), shards);
        let run_b = run_observables(&scenario, EngineConfig::default(), shards);
        assert_eq!(run_a, run_b, "repeated sharded runs at {shards} shards must be identical");
        assert_eq!(run_a, reference, "{shards} shards must reproduce the one-shard trace");
    }
}

/// `with_shards(1)` drained by `run_until_quiescent_parallel` is the plain
/// sequential drain: byte-identical to `run_until_quiescent` on the calling
/// thread under the default config.
#[test]
fn with_shards_one_is_the_sequential_driver() {
    let scenario = test_scenario();
    let sequential = run_observables_with(
        &scenario,
        EngineConfig::default(),
        1,
        RJoinEngine::run_until_quiescent,
    );
    let one_shard = run_observables(&scenario, EngineConfig::default(), 1);
    assert!(!sequential.rows.is_empty(), "the determinism scenario should answer");
    assert_eq!(sequential, one_shard);
}

/// The thread count is purely an execution choice: for every shard count,
/// a drain produces byte-identical observables whether its rounds run on
/// the calling thread alone (1 worker), on fewer threads than shards
/// (uneven chunks included), on one thread per shard, or with more workers
/// than shards.
#[test]
fn worker_count_never_changes_sharded_results() {
    let scenario = test_scenario();
    for shards in [2usize, 4, 8] {
        let run = |workers| {
            run_observables(&scenario, EngineConfig::default().with_workers(workers), shards)
        };
        let reference = run(1);
        assert!(reference.qpl_total > 0, "the determinism scenario should do work");
        for workers in [2usize, 3, 4, 16] {
            assert_eq!(
                reference,
                run(workers),
                "{workers} workers must not change any observable at {shards} shards"
            );
        }
    }
}

/// Different seeds produce observably different workloads (sanity check that
/// the seed is actually threaded through, not ignored).
#[test]
fn different_seeds_differ() {
    let a = test_scenario();
    let b = Scenario { seed: a.seed + 1, ..a.clone() };
    assert_ne!(
        serde_json::to_string(&a.generate_tuples(1)).unwrap(),
        serde_json::to_string(&b.generate_tuples(1)).unwrap(),
        "changing the seed must change the workload"
    );
}
