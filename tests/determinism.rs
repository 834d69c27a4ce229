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

/// One engine run with a caller-chosen driver: `shards == 0` uses the
/// sequential driver, any other count drains through
/// `run_until_quiescent_parallel` with that shard count. Returns every
/// observable the suite compares: answer count, loads, traffic, the sorted
/// per-node load/traffic vectors and the sorted delivered-row multiset.
fn run_observables(
    scenario: &Scenario,
    config: EngineConfig,
    shards: usize,
) -> (u64, u64, u64, Vec<u64>, Vec<u64>, String) {
    let catalog = scenario.workload_schema().build_catalog();
    let config = if shards == 0 { config } else { config.with_shards(shards) };
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let nodes = engine.node_ids().to_vec();
    let drain = |engine: &mut RJoinEngine| {
        if shards == 0 {
            engine.run_until_quiescent().unwrap();
        } else {
            engine.run_until_quiescent_parallel().unwrap();
        }
    };
    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(nodes[i % nodes.len()], q).unwrap());
    }
    drain(&mut engine);
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(nodes[i % nodes.len()], t).unwrap();
    }
    drain(&mut engine);

    let stats = engine.stats();
    let mut qpl_per_node: Vec<u64> = nodes.iter().map(|id| engine.qpl_per_node().get(id)).collect();
    qpl_per_node.sort_unstable();
    let mut traffic_per_node: Vec<u64> =
        nodes.iter().map(|id| engine.traffic().sent_by(*id)).collect();
    traffic_per_node.sort_unstable();
    let mut all_rows: Vec<Vec<Value>> =
        qids.iter().flat_map(|qid| engine.answers().rows_for(*qid)).collect();
    all_rows.sort();
    (
        stats.answers,
        stats.qpl_total,
        stats.traffic_total,
        qpl_per_node,
        traffic_per_node,
        serde_json::to_string(&all_rows).unwrap(),
    )
}

/// The sharded event-queue runtime is **byte-identical across shard counts
/// {1, 2, 4, 8}** — answers, QPL (total and per node), traffic (total and
/// per node) and the delivered-row multiset all match exactly, with shard
/// count 1 being the plain sequential driver.
///
/// The config pins down the two legitimate sources of divergence so the
/// identity is exact: `FirstInClause` placement consumes no randomness
/// (the sharded driver derives placement RNG per decision instead of from
/// the sequential global stream), and the ALTT makes same-tick
/// query/attribute-tuple arrivals order-symmetric (without it, an
/// attribute-level tuple is discarded by its handler, so whether a query
/// arriving in the *same tick* sees it depends on intra-tick order — the
/// exact completeness hole under delays that Section 4 introduces the ALTT
/// to close).
#[test]
fn sharded_driver_is_byte_identical_across_shard_counts() {
    let scenario = test_scenario();
    let config = || EngineConfig::with_placement(PlacementStrategy::FirstInClause).with_altt(100);
    let reference = run_observables(&scenario, config(), 0);
    assert!(reference.0 > 0, "the determinism scenario should produce answers");
    for shards in [1usize, 2, 4, 8] {
        let sharded = run_observables(&scenario, config(), shards);
        assert_eq!(
            reference, sharded,
            "shard count {shards} must be byte-identical to the sequential driver"
        );
    }
}

/// Under the default configuration (RIC-aware placement), sharded runs are
/// deterministic and **identical for every shard count > 1**, and their
/// answer multiset matches the sequential driver's (the RNG-stream and
/// RIC-pruning differences shift placement choices, i.e. traffic, but never
/// answers).
#[test]
fn sharded_default_config_agrees_across_shard_counts() {
    let scenario = test_scenario();
    let reference = run_observables(&scenario, EngineConfig::default(), 2);
    assert!(reference.0 > 0, "the determinism scenario should produce answers");
    for shards in [2usize, 4, 8] {
        let run_a = run_observables(&scenario, EngineConfig::default(), shards);
        let run_b = run_observables(&scenario, EngineConfig::default(), shards);
        assert_eq!(run_a, run_b, "repeated sharded runs at {shards} shards must be identical");
        assert_eq!(run_a, reference, "shard counts 2 and {shards} must agree exactly");
    }
    let sequential = run_observables(&scenario, EngineConfig::default(), 0);
    assert_eq!(
        sequential.5, reference.5,
        "sharded and sequential drivers must deliver the same answer multiset"
    );
}

/// `with_shards(1)` routes through the single-queue driver and stays
/// byte-identical to the plain sequential drain under the default config.
#[test]
fn with_shards_one_is_the_sequential_driver() {
    let scenario = test_scenario();
    let sequential = run_observables(&scenario, EngineConfig::default(), 0);
    let one_shard = run_observables(&scenario, EngineConfig::default(), 1);
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
        assert!(reference.0 > 0, "the determinism scenario should produce answers");
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
