//! Machine-readable benchmark emitter: runs the criterion engine scenarios
//! in quick mode and writes per-benchmark ms/iter results as JSON, so CI can
//! track the performance trajectory across PRs.
//!
//! Usage: `cargo run --release -p rjoin-bench --bin bench_json -- [OUT.json]`
//! (default output path `BENCH_9.json`). Environment variables:
//!
//! * `BENCH_JSON_ITERS` — per-benchmark iteration count (default 5; CI uses
//!   a small count — the point is trajectory, not statistics);
//! * `BENCH_JSON_GROUPS` — comma-separated group filter (e.g.
//!   `sharding_runtime`), so special-purpose CI legs (the multicore runner)
//!   can re-record just the groups they exist for;
//! * `RJOIN_WORKERS` — worker-thread count of the sharded drains (read by
//!   the engine), decoupling worker count from shard count on multicore
//!   runners.

use rjoin_bench::{BenchReport, BenchResult};
use rjoin_core::{EngineConfig, PlacementStrategy, RJoinEngine};
use rjoin_workload::Scenario;
use std::time::Instant;

fn bench_scenario() -> Scenario {
    // Must stay in lockstep with `benches/engine.rs` so the JSON numbers are
    // comparable with the interactive criterion runs.
    Scenario { nodes: 48, queries: 300, tuples: 60, ..Scenario::small_test() }
}

/// Number of distinct sub-join patterns in the overlapping (multi-query)
/// scenario: 300 queries / 20 patterns = 15 queries per shared sub-join.
const OVERLAP_PATTERNS: usize = 20;

fn drive(
    engine: &mut RJoinEngine,
    queries: Vec<rjoin_query::JoinQuery>,
    scenario: &Scenario,
) -> u64 {
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in queries.into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    engine.total_qpl()
}

fn run(config: EngineConfig, scenario: &Scenario) -> u64 {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    drive(&mut engine, scenario.generate_queries(), scenario)
}

/// Same standard workload, drained through `run_until_quiescent_parallel`
/// (the sharded event-queue runtime when `config.shards > 1`).
fn run_parallel(config: EngineConfig, scenario: &Scenario) -> u64 {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent_parallel().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent_parallel().unwrap();
    engine.total_qpl()
}

/// The overlapping multi-query workload: same engine driving, but the
/// queries share [`OVERLAP_PATTERNS`] sub-join structures.
fn run_overlap(config: EngineConfig, scenario: &Scenario) -> u64 {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    drive(&mut engine, scenario.generate_overlapping_queries(OVERLAP_PATTERNS), scenario)
}

/// A reduced cut of [`Scenario::scale_test`] sized for bench iteration:
/// the same long-horizon shape (sliding windows, publication times spanning
/// ~125 window-lengths), small enough to iterate in seconds. The full-size
/// scenario is exercised by the `scale_smoke` example and the CI smoke step.
fn scale_scenario() -> Scenario {
    Scenario { nodes: 256, queries: 2_000, tuples: 8_000, ..Scenario::scale_test() }
}

/// Engine configuration of the `scale` group: sharing and the ALTT are on,
/// so all three state families (stored queries, value tuples, ALTT buckets)
/// carry load and expiry pressure.
fn scale_config() -> EngineConfig {
    EngineConfig::default().with_subjoin_sharing(true).with_altt(256)
}

/// Queries per shared sub-join pattern in the scale workload. The scale
/// regime is a *multi-query* population (Dossinger/Michel): thousands of
/// standing queries over a few hundred distinct structures. Without the
/// overlap every tuple would trigger every standing query at its ring —
/// O(tuples × queries) rewrites, which no storage layout can absorb.
const SCALE_OVERLAP: usize = 50;

fn run_scale(config: EngineConfig) -> u64 {
    let scenario = scale_scenario();
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let queries = scenario.generate_overlapping_queries(scenario.queries / SCALE_OVERLAP);
    drive(&mut engine, queries, &scenario)
}

/// Heavy-hitter threshold / partition count of the `skew` group's split
/// leg (the values the split-vs-unsplit oracle suite uses).
const SKEW_THRESHOLD: u64 = 12;
const SKEW_PARTITIONS: u32 = 16;

/// The skewed hot-key workload, driven the continuous way (drain after
/// every publication, so heat detection sees quiescent points). The
/// `unsplit`/`split` delta is the cost/benefit of hot-key splitting on a
/// point-mass workload.
fn run_skew(config: EngineConfig) -> u64 {
    let scenario = Scenario::skew_test(0.9);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
        engine.run_until_quiescent().unwrap();
    }
    engine.total_qpl()
}

/// The cyclic-shape workload pair of the two-plan planner. Both legs share
/// the dense 4-relation schema and counts of [`Scenario::cyclic_test`]; the
/// `pipeline` leg turns the cycle knob off (3-conjunct chain queries → the
/// rewrite pipeline), the `hypercube` leg keeps it on (every query takes
/// the hypercube plan). The delta is the price of cyclic shapes: replicated
/// cell placement plus tuple-copy fan-out instead of one rewrite chain.
fn cyclic_scenario(cycle: usize) -> Scenario {
    Scenario { cycle, queries: 60, tuples: 120, ..Scenario::cyclic_test() }
}

fn measure(group: &str, bench: &str, iters: u64, mut f: impl FnMut() -> u64) -> BenchResult {
    // One untimed warm-up iteration.
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    let mut total = 0.0f64;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
    }
    let result = BenchResult {
        group: group.to_string(),
        bench: bench.to_string(),
        ms_per_iter: total / iters as f64,
        ms_best: best,
        iters,
    };
    println!(
        "{}/{}: {:.3} ms/iter (best {:.3} ms, {} iters)",
        result.group, result.bench, result.ms_per_iter, result.ms_best, result.iters
    );
    result
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_9.json".to_string());
    let iters: u64 =
        std::env::var("BENCH_JSON_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    // Optional group filter: `BENCH_JSON_GROUPS=sharding_runtime,skew`.
    let groups: Option<Vec<String>> = std::env::var("BENCH_JSON_GROUPS")
        .ok()
        .map(|v| v.split(',').map(|g| g.trim().to_string()).filter(|g| !g.is_empty()).collect());
    let want = |group: &str| groups.as_ref().is_none_or(|gs| gs.iter().any(|g| g == group));
    let scenario = bench_scenario();

    let mut results = Vec::new();
    if want("placement_strategy") {
        for (name, strategy) in [
            ("ric_aware", PlacementStrategy::RicAware),
            ("random", PlacementStrategy::Random),
            ("worst", PlacementStrategy::Worst),
            ("first_in_clause", PlacementStrategy::FirstInClause),
        ] {
            results.push(measure("placement_strategy", name, iters, || {
                run(EngineConfig::with_placement(strategy), &scenario)
            }));
        }
    }
    if want("ric_reuse") {
        results.push(measure("ric_reuse", "with_reuse", iters, || {
            run(EngineConfig::default(), &scenario)
        }));
        results.push(measure("ric_reuse", "without_reuse", iters, || {
            run(EngineConfig::default().with_ric_reuse(false), &scenario)
        }));
    }
    if want("window_size") {
        for window in [10u64, 40] {
            let mut windowed = bench_scenario();
            windowed.window = rjoin_query::WindowSpec::sliding_tuples(window);
            results.push(measure("window_size", &format!("W{window}"), iters, || {
                run(EngineConfig::default(), &windowed)
            }));
        }
    }
    // Multi-query optimization: the same overlapping workload with and
    // without the shared sub-join registry. The delta is the sharing win.
    if want("sharing") {
        results.push(measure("sharing", "unshared", iters, || {
            run_overlap(EngineConfig::default(), &scenario)
        }));
        results.push(measure("sharing", "shared", iters, || {
            run_overlap(EngineConfig::default().with_subjoin_sharing(true), &scenario)
        }));
    }
    // Sharded event-queue runtime on the cascade-heavy standard workload:
    // single global queue vs per-shard clocks with conservative cross-shard
    // synchronization (threaded on multicore hosts, cooperative on one
    // core). Compare against placement_strategy/ric_aware — the PR 3
    // sequential baseline on the same workload.
    if want("sharding_runtime") {
        results.push(measure("sharding_runtime", "single_queue", iters, || {
            run_parallel(EngineConfig::default(), &scenario)
        }));
        for shards in [2usize, 4, 8] {
            results.push(measure("sharding_runtime", &format!("shards{shards}"), iters, || {
                run_parallel(EngineConfig::default().with_shards(shards), &scenario)
            }));
        }
    }
    // Compiled predicate programs on the overlapping workload (where the
    // fingerprint cache sees the most reuse): the `interpreted` leg walks
    // the rewrite AST per (tuple, stored query) pair, the `compiled` leg
    // runs the flat programs. The delta is the tentpole win of PR 6.
    if want("compiled") {
        results.push(measure("compiled", "interpreted", iters, || {
            run_overlap(EngineConfig::default().with_compiled_predicates(false), &scenario)
        }));
        results.push(measure("compiled", "compiled", iters, || {
            run_overlap(EngineConfig::default(), &scenario)
        }));
    }
    // The long-horizon scale workload: sliding windows over a publication
    // horizon of ~125 window-lengths, sharing and ALTT on. `engine` is the
    // default (timer-wheel) expiry path; `sweep` is the contact-sweep
    // oracle — answer-identical, but reclaiming only on contact, so its
    // stored state grows with the horizon while the wheel's stays O(active).
    if want("scale") {
        results.push(measure("scale", "engine", iters, || run_scale(scale_config())));
        results.push(measure("scale", "sweep", iters, || {
            run_scale(scale_config().with_wheel_expiry(false))
        }));
    }
    // Value-partitioned trigger index on the scale workload: the `linear`
    // leg walks every stored query under the contacted attribute-level key
    // per tuple and every stored tuple per arriving query (the differential
    // oracle), the `indexed` leg probes only pin-matching stored queries
    // plus the admissible publication span of stored tuples. Both legs
    // produce identical answer streams (oracle-checked in the
    // trigger_index suite); the delta is the tentpole win of PR 9.
    if want("probe") {
        results.push(measure("probe", "linear", iters, || {
            run_scale(scale_config().with_trigger_index(false))
        }));
        results.push(measure("probe", "indexed", iters, || run_scale(scale_config())));
    }
    // Hot-key splitting on the point-mass skew workload: the `split` leg
    // pays tuple routing, query fan-out and activation migration; the
    // answer stream is identical (oracle-checked in the split suite).
    if want("skew") {
        results.push(measure("skew", "unsplit", iters, || {
            run_skew(EngineConfig::default().with_altt(8_000))
        }));
        results.push(measure("skew", "split", iters, || {
            run_skew(
                EngineConfig::default()
                    .with_altt(8_000)
                    .with_hot_key_splitting(SKEW_THRESHOLD, SKEW_PARTITIONS),
            )
        }));
    }

    // Cyclic query shapes under the two-plan planner: the `pipeline` leg is
    // the matched acyclic chain workload (cycle knob off, same schema and
    // counts) evaluated by the rewrite pipeline; the `hypercube` leg is the
    // triangle workload evaluated as replicated cells with a cell-local
    // indexed join. The cost model routes each leg to its plan automatically.
    if want("cyclic") {
        results.push(measure("cyclic", "pipeline", iters, || {
            run(EngineConfig::default(), &cyclic_scenario(0))
        }));
        results.push(measure("cyclic", "hypercube", iters, || {
            run(EngineConfig::default(), &cyclic_scenario(3))
        }));
    }

    let report = BenchReport {
        // v8 adds the `probe` group (linear-walk oracle vs value-partitioned
        // trigger index + span-bounded eval walk on the scale workload).
        schema_version: 8,
        nodes: scenario.nodes,
        queries: scenario.queries,
        tuples: scenario.tuples,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("writing the report file succeeds");
    println!("wrote {out_path}");
}
