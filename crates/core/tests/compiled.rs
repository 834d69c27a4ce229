//! Engine-level tests of the plan-driven trigger loop: for every
//! configuration variant and shard count, the per-query answers must be the
//! centralized oracle's — exactly where the configuration is complete
//! (value-level rewrites, or an ALTT that covers the run), as a sound,
//! duplicate-free sub-bag elsewhere — while the compile counters show one
//! plan per input query at work.
//!
//! Every run is repeated at each of `common::shard_counts()`.

mod common;

use common::{assert_sub_bag, drain, oracle_answers, shard_counts, sorted};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::JoinQuery;
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

fn workload() -> (Scenario, Vec<JoinQuery>, Vec<Tuple>) {
    let scenario = Scenario {
        nodes: 24,
        queries: 40,
        tuples: 50,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        ..Scenario::small_test()
    };
    // Overlapping queries give sharing twins to merge; the constant-heavy
    // generator mix exercises the plans' constant filters.
    let queries = scenario.generate_overlapping_queries(5);
    let tuples = scenario.generate_tuples(2);
    (scenario, queries, tuples)
}

/// The configuration variants the hot loop runs under in the rest of the
/// suite — default placement, value-level rewrites, shared sub-joins, ALTT
/// retention and hot-key splitting — each with whether it is complete on
/// this workload.
fn variants() -> Vec<(&'static str, EngineConfig, bool)> {
    vec![
        ("default", EngineConfig::default(), false),
        ("value_level", EngineConfig::default().with_value_level_only(true), true),
        (
            "shared",
            EngineConfig::default().with_value_level_only(true).with_subjoin_sharing(true),
            true,
        ),
        ("altt", EngineConfig::default().with_altt(200), true),
        ("split", EngineConfig::default().with_hot_key_splitting(4, 2), false),
    ]
}

fn run(config: EngineConfig, shards: usize) -> (RJoinEngine, Vec<QueryId>) {
    let (scenario, queries, tuples) = workload();
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config.with_shards(shards), catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in tuples.iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
    }
    drain(&mut engine);
    (engine, qids)
}

/// Across every configuration variant and shard count, the compiled engine
/// delivers the oracle's per-query answers: the whole bag where the
/// variant is complete, never an unsound or duplicate row elsewhere.
#[test]
fn compiled_answers_match_the_oracle() {
    let (scenario, queries, tuples) = workload();
    let catalog = scenario.workload_schema().build_catalog();
    for shards in shard_counts() {
        for (name, config, complete) in variants() {
            let (engine, qids) = run(config, shards);
            assert!(
                !engine.answers().is_empty(),
                "the {name} workload must deliver answers (shards={shards})"
            );
            for (qid, query) in qids.iter().zip(&queries) {
                let expected = oracle_answers(&catalog, query, 0, &tuples);
                let delivered = engine.answers().rows_for(*qid);
                let what = format!("{qid} under variant={name} shards={shards}");
                if complete {
                    assert_eq!(sorted(delivered), sorted(expected), "{what}");
                } else {
                    assert_sub_bag(expected, delivered, &what);
                }
            }
        }
    }
}

/// Triangle queries, which the planner sends to hypercube cells, published
/// and drained.
fn run_triangles(shards: usize) -> RJoinEngine {
    let scenario = Scenario::cyclic_test();
    let config = EngineConfig::default().with_shards(shards);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    drain(&mut engine);
    engine
}

/// The counters reflect the path each query takes. A pipeline query
/// compiles one plan, at its first trigger, and every later trigger of it
/// or of a descendant — which carries the plan — reuses it. Hypercube cells
/// join through their replica's plan (one per query on each node hosting
/// its cells) and run no trigger, while the eval timer and the probe
/// counters cover them.
#[test]
fn compile_counters_reflect_the_configured_path() {
    for shards in shard_counts() {
        let cells = run_triangles(shards);
        assert!(cells.planner_counters().any_hypercube());
        assert!(!cells.answers().is_empty(), "triangles must answer (shards={shards})");
        let c = cells.compile_counters();
        let tag = format!("shards={shards}: {c:?}");
        assert!(c.programs_compiled > 0, "cells take their replica's plan: {tag}");
        assert!(c.cache_hits > 0, "later arrivals reuse it: {tag}");
        assert_eq!(c.compiled_rewrites, 0, "{tag}");
        assert!(c.eval_nanos > 0, "the cell joins must be timed: {tag}");
        assert!(cells.probe_counters().candidates_probed > 0, "{tag}");

        let (pipeline, qids) = run(EngineConfig::default(), shards);
        let c = pipeline.compile_counters();
        assert!(c.programs_compiled > 0, "shards={shards}: {c:?}");
        assert!(
            c.programs_compiled <= qids.len() as u64,
            "at most one plan per input query: {c:?}"
        );
        assert!(c.cache_hits > c.programs_compiled, "triggers reuse the plans: {c:?}");
        assert!(c.compiled_rewrites > 0, "shards={shards}: {c:?}");
        assert!(c.eval_nanos > 0, "the trigger walks must be timed: {c:?}");
        assert_eq!(pipeline.stats().compile, c, "stats snapshot must carry the counters");
    }
}
