//! Engine-level differential tests of the compiled predicate-program hot
//! loop: for every configuration variant and shard count, the compiled
//! engine must deliver **byte-identical** per-query answers — same rows, in
//! the same delivery order — as the interpreter it replaces, while the
//! compile counters show that each run actually took the path it claims.
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment variable
//! (comma-separated, e.g. `RJOIN_SHARDS=1,4`), which is what the CI
//! shard-count matrix sets; the default covers `1,4`.

use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::JoinQuery;
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

/// Shard counts to exercise, from `RJOIN_SHARDS` (default `1,4`). A count
/// of 1 runs the single-queue driver, larger counts the sharded runtime.
fn shard_counts() -> Vec<usize> {
    std::env::var("RJOIN_SHARDS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4])
}

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
    // Overlapping queries give the fingerprint cache twins to hit; the
    // constant-heavy generator mix exercises the pre-folded filters.
    let queries = scenario.generate_overlapping_queries(5);
    let tuples = scenario.generate_tuples(2);
    (scenario, queries, tuples)
}

/// The configuration variants the hot loop runs under in the rest of the
/// suite: default placement, value-level rewrites, shared sub-joins, ALTT
/// retention and hot-key splitting.
fn variants() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("default", EngineConfig::default()),
        ("value_level", EngineConfig::default().with_value_level_only(true)),
        ("shared", EngineConfig::default().with_value_level_only(true).with_subjoin_sharing(true)),
        ("altt", EngineConfig::default().with_altt(200)),
        ("split", EngineConfig::default().with_hot_key_splitting(4, 2)),
    ]
}

fn run(config: EngineConfig, shards: usize, compiled: bool) -> (RJoinEngine, Vec<QueryId>) {
    let (scenario, queries, tuples) = workload();
    let config = config.with_shards(shards).with_compiled_predicates(compiled);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in tuples.iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
    }
    if shards > 1 {
        engine.run_until_quiescent_parallel().unwrap();
    } else {
        engine.run_until_quiescent().unwrap();
    }
    (engine, qids)
}

/// The acceptance gate of the compile PR: across every configuration
/// variant and shard count, compiled and interpreted runs deliver the same
/// per-query answer logs byte for byte.
#[test]
fn compiled_answers_are_byte_identical_to_the_interpreter() {
    for shards in shard_counts() {
        for (name, config) in variants() {
            let (compiled, qids) = run(config.clone(), shards, true);
            let (interpreted, qids_b) = run(config, shards, false);
            assert_eq!(qids, qids_b);
            assert!(
                !compiled.answers().is_empty(),
                "the {name} workload must deliver answers (shards={shards})"
            );
            for qid in &qids {
                assert_eq!(
                    compiled.answers().rows_for(*qid),
                    interpreted.answers().rows_for(*qid),
                    "compiled and interpreted answers diverge for {qid} \
                     under variant={name} shards={shards}"
                );
            }
        }
    }
}

/// Triangle queries, which the planner sends to hypercube cells, published
/// and drained under the given predicate path.
fn run_triangles(shards: usize, compiled: bool) -> RJoinEngine {
    let scenario = Scenario::cyclic_test();
    let config = EngineConfig::default().with_shards(shards).with_compiled_predicates(compiled);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    if shards > 1 {
        engine.run_until_quiescent_parallel().unwrap();
    } else {
        engine.run_until_quiescent().unwrap();
    }
    engine
}

/// Each run takes the path its configuration claims: compiled runs compile
/// programs and never fall back to the interpreter, interpreted runs never
/// compile. The fingerprint cache must see hits on the overlapping
/// workload, and the per-delivery timer must have accumulated. Hypercube
/// cells have one join path under either configuration — their compiled
/// join plan — so a triangle workload books neither rewrite counter and
/// compiles no program, while the timer and the probe counters cover it.
#[test]
fn compile_counters_reflect_the_configured_path() {
    for shards in shard_counts() {
        for compiled in [true, false] {
            let cells = run_triangles(shards, compiled);
            assert!(cells.planner_counters().any_hypercube());
            assert!(!cells.answers().is_empty(), "triangles must answer (shards={shards})");
            let c = cells.compile_counters();
            let tag = format!("shards={shards} compiled={compiled}: {c:?}");
            assert_eq!(c.programs_compiled, 0, "{tag}");
            assert_eq!(c.compiled_rewrites, 0, "{tag}");
            assert_eq!(c.interpreted_rewrites, 0, "{tag}");
            assert!(c.eval_nanos > 0, "the cell joins must be timed: {tag}");
            assert!(cells.probe_counters().candidates_probed > 0, "{tag}");
        }
    }

    for shards in shard_counts() {
        let (compiled, _) = run(EngineConfig::default(), shards, true);
        let c = compiled.compile_counters();
        assert!(c.programs_compiled > 0, "shards={shards}: {c:?}");
        assert!(c.cache_hits > 0, "overlapping twins must hit the cache: {c:?}");
        assert!(c.compiled_rewrites > 0, "shards={shards}: {c:?}");
        assert_eq!(c.interpreted_rewrites, 0, "shards={shards}: {c:?}");
        assert!(c.eval_nanos > 0, "the trigger walks must be timed: {c:?}");
        assert_eq!(compiled.stats().compile, c, "stats snapshot must carry the counters");

        let (interpreted, _) = run(EngineConfig::default(), shards, false);
        let i = interpreted.compile_counters();
        assert_eq!(i.programs_compiled, 0, "shards={shards}: {i:?}");
        assert_eq!(i.compiled_rewrites, 0, "shards={shards}: {i:?}");
        assert!(i.interpreted_rewrites > 0, "shards={shards}: {i:?}");
        assert!(!i.any_compiled(), "shards={shards}: {i:?}");
    }
}
