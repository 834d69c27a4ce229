//! The value-partitioned trigger index against the centralized oracle: for
//! sliding and tumbling windows, with shared sub-joins, the ALTT, hot-key
//! splitting and membership churn in the mix (hypercube cells ride along
//! to show they bypass the index), the indexed engine must deliver exactly
//! the oracle's per-query answer bags — every run here keeps an ALTT that
//! covers its windows, which makes it complete — and must never hand out
//! more candidates than its buckets hold.
//!
//! Every run is repeated at each of `common::shard_counts()`.

mod common;

use common::{drain, oracle_answers, shard_counts, sorted};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::{JoinQuery, WindowSpec};
use rjoin_relation::Tuple;
use rjoin_workload::Scenario;

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

/// One indexed run: the engine, its query ids, the queries and the tuples
/// as published.
type Run = (RJoinEngine, Vec<QueryId>, Vec<JoinQuery>, Vec<Tuple>);

/// Runs the windowed workload — overlapping queries, two tuple waves with a
/// node joining between them and leaving after them (so re-homed state must
/// stay correctly indexed at its new home too) — calling `between_waves` on
/// the quiescent engine after the first wave.
fn run(
    window: WindowSpec,
    config: EngineConfig,
    between_waves: impl FnOnce(&mut RJoinEngine),
) -> Run {
    let scenario = scenario(window);
    let queries = scenario.generate_overlapping_queries(5);
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    drain(&mut engine);

    let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
    let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
    let mut published = Vec::new();
    let mut publish = |engine: &mut RJoinEngine, wave: Vec<Tuple>| {
        for (i, t) in wave.into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
            published.push(t);
        }
        drain(engine);
    };
    let wave = half.generate_tuples(engine.now() + 1);
    publish(&mut engine, wave);
    between_waves(&mut engine);
    // Churn at the quiescent points: the joiner steals buckets mid-run
    // (their index entries move with the re-homed state), then leaves
    // again, re-homing everything a second time.
    let joined = engine.join_node("trigger-index-churn").unwrap();
    let wave = second.generate_tuples(engine.now() + 1);
    publish(&mut engine, wave);
    engine.leave_node(joined).unwrap();
    (engine, qids, queries, published)
}

/// Asserts the run delivered exactly the oracle's per-query answer bags and
/// that its probes stayed inside their buckets. Returns the number of rows
/// produced so callers can require a non-vacuous workload.
fn assert_matches_oracle(tag: &str, (engine, qids, queries, published): &Run) -> usize {
    let catalog = engine.catalog();
    let mut produced = 0usize;
    for (qid, query) in qids.iter().zip(queries) {
        let expected = sorted(oracle_answers(catalog, query, 0, published));
        assert_eq!(sorted(engine.answers().rows_for(*qid)), expected, "{tag}: {qid}");
        produced += expected.len();
    }
    let probes = engine.probe_counters();
    assert!(probes.indexed_probes > 0, "{tag}: the engine never probed the index");
    assert!(
        probes.candidates_probed <= probes.bucket_len_total,
        "{tag}: the index must never hand out more candidates than its buckets hold ({} > {})",
        probes.candidates_probed,
        probes.bucket_len_total,
    );
    produced
}

#[test]
fn indexed_probing_matches_the_oracle() {
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
                let run = run(window, config.with_shards(shards), |_| {});
                assert!(assert_matches_oracle(&tag, &run) > 0, "{tag}: no answers");
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
/// way: answers must match the oracle exactly.
#[test]
fn forced_split_and_churn_keep_the_index_consistent() {
    let config = EngineConfig::default().with_subjoin_sharing(true).with_altt(64);
    let run = run(WindowSpec::sliding_tuples(16), config, |engine| {
        // Split every attribute key of the head relation while its buckets
        // hold live indexed entries.
        for attr in ["A0", "A1", "A2", "A3"] {
            engine.split_key(&rjoin_query::IndexKey::attribute("R0", attr), 4).unwrap();
        }
    });
    assert!(run.0.split_counters().keys_split > 0, "the keys must be split");
    assert!(assert_matches_oracle("split+churn", &run) > 0, "the split workload must answer");
}

/// Cyclic shapes on the hypercube plan never reach the trigger index: a
/// cell's arrivals are joined against the cell's own indexed tuple store.
/// With churn re-homing cell state mid-stream the answers must be the
/// oracle's, nothing may be probed as a residual stored-query entry, and the
/// cell probes must contact fewer tuples than the scans they replace.
#[test]
fn hypercube_cells_bypass_the_trigger_index() {
    let scenario = Scenario { nodes: 24, queries: 6, tuples: 48, ..Scenario::cyclic_test() };
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    let mut engine =
        RJoinEngine::simulated(EngineConfig::default(), catalog.clone(), scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
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

    assert!(engine.planner_counters().any_hypercube(), "the workload must take the hypercube");
    let mut produced = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        assert_eq!(sorted(engine.answers().rows_for(*qid)), expected, "answers for {qid}");
        produced += expected.len();
    }
    assert!(produced > 0, "the cyclic workload should produce answers");
    let counters = engine.probe_counters();
    assert_eq!(counters.residual_probed, 0, "cell replicas are not residual entries");
    assert!(counters.indexed_probes > 0, "the cell cascade probes the cell index");
    assert!(
        counters.candidates_probed < counters.bucket_len_total,
        "index probes must contact fewer tuples than a scan of the cell ({} >= {})",
        counters.candidates_probed,
        counters.bucket_len_total,
    );
}
