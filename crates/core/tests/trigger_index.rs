//! Differential tests of the value-partitioned trigger index against the
//! linear bucket walk it replaces: for sliding and tumbling windows, with
//! shared sub-joins, the ALTT, hot-key splitting and membership churn in
//! the mix (hypercube cells ride along to show they bypass both paths),
//! the indexed engine must deliver the same
//! per-query answer rows as the linear engine. Rows are compared **sorted**:
//! the index hands candidates out residual-first and column-by-column, so
//! intra-tick trigger order (and therefore answer order within a tick) may
//! legitimately differ from bucket order; the answer *set* per query may
//! not.
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment variable
//! (comma-separated, e.g. `RJOIN_SHARDS=1,4`), which is what the CI
//! shard-count matrix sets; the default covers `1,4`.

use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::WindowSpec;
use rjoin_relation::{Tuple, Value};
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

fn scenario(window: WindowSpec) -> Scenario {
    Scenario {
        nodes: 24,
        queries: 30,
        tuples: 60,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        window,
        ..Scenario::small_test()
    }
}

fn drain(engine: &mut RJoinEngine, shards: usize) {
    if shards > 1 {
        engine.run_until_quiescent_parallel().unwrap();
    } else {
        engine.run_until_quiescent().unwrap();
    }
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Runs the windowed workload — overlapping queries, two tuple waves with a
/// node joining between them and leaving after them (so re-homed state must
/// stay correctly indexed at its new home too) — with or without the
/// trigger index.
fn run(
    window: WindowSpec,
    base: EngineConfig,
    shards: usize,
    indexed: bool,
) -> (RJoinEngine, Vec<QueryId>) {
    let scenario = scenario(window);
    let queries = scenario.generate_overlapping_queries(5);
    let config = base.with_shards(shards).with_trigger_index(indexed);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    drain(&mut engine, shards);

    let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
    let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
    let publish = |engine: &mut RJoinEngine, wave: &[Tuple], shards: usize| {
        for (i, t) in wave.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        drain(engine, shards);
    };
    let wave = half.generate_tuples(engine.now() + 1);
    publish(&mut engine, &wave, shards);
    // Churn at the quiescent points: the joiner steals buckets mid-run
    // (their index entries move with the re-homed state), then leaves
    // again, re-homing everything a second time.
    let joined = engine.join_node("trigger-index-churn").unwrap();
    let wave = second.generate_tuples(engine.now() + 1);
    publish(&mut engine, &wave, shards);
    engine.leave_node(joined).unwrap();
    (engine, qids)
}

/// Asserts the two engines produced the same per-query answer sets and
/// that each took the probing path it claims. Returns the number of rows
/// produced so callers can require a non-vacuous workload.
fn assert_equivalent(
    tag: &str,
    indexed: &RJoinEngine,
    linear: &RJoinEngine,
    qids: &[QueryId],
) -> usize {
    let mut produced = 0usize;
    for qid in qids {
        let indexed_rows = sorted(indexed.answers().rows_for(*qid));
        let linear_rows = sorted(linear.answers().rows_for(*qid));
        assert_eq!(indexed_rows, linear_rows, "{tag}: answers diverge for {qid}");
        produced += indexed_rows.len();
    }

    let on = indexed.probe_counters();
    let off = linear.probe_counters();
    assert!(on.indexed_probes > 0, "{tag}: the indexed engine never probed the index");
    assert_eq!(on.linear_walks, 0, "{tag}: the indexed engine must not walk linearly");
    assert!(off.linear_walks > 0, "{tag}: the linear engine never walked a bucket");
    assert_eq!(off.indexed_probes, 0, "{tag}: the linear engine must not probe the index");
    assert!(
        on.candidates_probed <= on.bucket_len_total,
        "{tag}: the index must never hand out more candidates than a linear walk \
         would have scanned ({} > {})",
        on.candidates_probed,
        on.bucket_len_total,
    );
    produced
}

#[test]
fn indexed_probing_matches_linear_walk_differentially() {
    for shards in shard_counts() {
        for (kind, window) in [
            ("sliding", WindowSpec::sliding_tuples(16)),
            ("tumbling", WindowSpec::tumbling_time(16)),
        ] {
            for (variant, config) in [
                ("shared+altt", EngineConfig::default().with_subjoin_sharing(true).with_altt(64)),
                ("unshared+altt", EngineConfig::default().with_altt(64)),
                ("split+altt", EngineConfig::default().with_altt(32).with_hot_key_splitting(4, 2)),
            ] {
                let tag = format!("shards={shards} window={kind} variant={variant}");
                let (with_index, qids) = run(window, config.clone(), shards, true);
                let (without, linear_qids) = run(window, config.clone(), shards, false);
                assert_eq!(qids, linear_qids, "{tag}: query ids must line up");
                let produced = assert_equivalent(&tag, &with_index, &without, &qids);
                assert!(produced > 0, "{tag}: the workload should produce answers");
            }
        }
    }
}

/// Forced splitting interacting with churn: `split_key` re-homes stored
/// windowed state to the sub-key owners mid-run (the donor's index entries
/// are dropped ring-by-ring, the receivers re-file them under the split
/// sub-keys, which keep the original key text — so pins stay vacuous-aware),
/// a joining node steals some of it again, and the leave re-homes it a
/// third time. No stored query may be orphaned or double-filed along the
/// way: answers must match the linear oracle exactly.
#[test]
fn forced_split_and_churn_keep_the_index_consistent() {
    let window = WindowSpec::sliding_tuples(16);
    let run_split = |indexed: bool| -> (RJoinEngine, Vec<QueryId>) {
        let scenario = scenario(window);
        let config = EngineConfig::default()
            .with_subjoin_sharing(true)
            .with_altt(64)
            .with_trigger_index(indexed);
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in scenario.generate_overlapping_queries(5).into_iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
        let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
        let publish = |engine: &mut RJoinEngine, wave: Vec<Tuple>| {
            for (i, t) in wave.into_iter().enumerate() {
                engine.publish_tuple(origins[i % origins.len()], t).unwrap();
            }
            engine.run_until_quiescent().unwrap();
        };
        let wave = half.generate_tuples(engine.now() + 1);
        publish(&mut engine, wave);
        // Split every attribute key of the head relation while its buckets
        // hold live indexed entries, then churn the membership.
        for attr in ["A0", "A1", "A2", "A3"] {
            engine.split_key(&rjoin_query::IndexKey::attribute("R0", attr), 4).unwrap();
        }
        let joined = engine.join_node("trigger-index-split-churn").unwrap();
        let wave = second.generate_tuples(engine.now() + 1);
        publish(&mut engine, wave);
        engine.leave_node(joined).unwrap();
        (engine, qids)
    };

    let (with_index, qids) = run_split(true);
    let (without, linear_qids) = run_split(false);
    assert_eq!(qids, linear_qids);
    let produced = assert_equivalent("split+churn", &with_index, &without, &qids);
    assert!(produced > 0, "the split workload should produce answers");
}

/// Cyclic shapes on the hypercube plan never reach the trigger index: a
/// cell's arrivals are joined against the cell's own indexed tuple store,
/// whichever stored-query probing mode the engine runs. With churn
/// re-homing cell state mid-stream, both modes must give the same answers,
/// neither may walk or probe a stored-query bucket for a cell (nothing is
/// residual any more), and the cell probes must contact fewer tuples than
/// the scans they replace.
#[test]
fn hypercube_cells_bypass_the_trigger_index() {
    let scenario = Scenario { nodes: 24, queries: 6, tuples: 48, ..Scenario::cyclic_test() };
    let run_cyclic = |indexed: bool| -> (RJoinEngine, Vec<QueryId>) {
        let config = EngineConfig::default().with_trigger_index(indexed);
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::new(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q).unwrap());
        }
        engine.run_until_quiescent().unwrap();

        let tuples = scenario.generate_tuples(engine.now() + 1);
        let churn_point = tuples.len() / 2;
        for (i, t) in tuples.iter().enumerate() {
            if i == churn_point {
                engine.run_until_quiescent().unwrap();
                engine.join_node("trigger-index-cyclic-churn").unwrap();
            }
            let origin = engine.node_ids()[i % engine.node_ids().len()];
            engine.publish_tuple(origin, t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        (engine, qids)
    };

    let (with_index, qids) = run_cyclic(true);
    let (without, linear_qids) = run_cyclic(false);
    assert_eq!(qids, linear_qids);
    assert!(
        with_index.planner_counters().any_hypercube(),
        "the cyclic workload must take the hypercube plan"
    );
    let mut produced = 0usize;
    for qid in &qids {
        let rows = sorted(with_index.answers().rows_for(*qid));
        assert_eq!(rows, sorted(without.answers().rows_for(*qid)), "answers diverge for {qid}");
        produced += rows.len();
    }
    assert!(produced > 0, "the cyclic workload should produce answers");
    for (mode, engine) in [("indexed", &with_index), ("linear", &without)] {
        let counters = engine.probe_counters();
        assert_eq!(counters.linear_walks, 0, "{mode}: a cell is never walked as a bucket");
        assert_eq!(counters.residual_probed, 0, "{mode}: cell replicas are not residual entries");
        assert!(counters.indexed_probes > 0, "{mode}: the cell cascade probes the cell index");
        assert!(
            counters.candidates_probed < counters.bucket_len_total,
            "{mode}: index probes must contact fewer tuples than a scan of the cell ({} >= {})",
            counters.candidates_probed,
            counters.bucket_len_total,
        );
    }
}
