//! Oracle suite for hot-key splitting: the split engine must deliver the
//! **identical answer set** to the unsplit engine on skewed workloads —
//! under both skew levels, under graceful churn and at every shard count of
//! `common::shard_counts()` — while demonstrably moving the hot key's
//! load off the busiest node.
//!
//! All runs enable the ALTT with a retention covering the whole run, which
//! makes answer completeness placement-independent (splitting changes RIC
//! rates and therefore placement choices; without the ALTT the answer set
//! of deep joins is placement-dependent, see ROADMAP).

mod common;

use common::{drain, shard_counts};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::WindowSpec;
use rjoin_relation::Value;
use rjoin_workload::Scenario;
use std::collections::BTreeMap;

/// Heavy-hitter threshold used throughout the suite: low enough that the
/// skew scenarios' hot keys cross it midway through the run, so the suite
/// covers state migration at activation, not just clean-slate splitting.
const THRESHOLD: u64 = 12;
const PARTITIONS: u32 = 16;

fn config(split: bool, shards: usize) -> EngineConfig {
    let config = EngineConfig::default().with_altt(2_000).with_shards(shards);
    if split {
        config.with_hot_key_splitting(THRESHOLD, PARTITIONS)
    } else {
        config
    }
}

/// Drains `engine` and checks that the wheel left no node holding a
/// windowed entry past its deadline.
fn drain_checked(engine: &mut RJoinEngine) {
    drain(engine);
    for id in engine.node_ids() {
        let overdue = engine.node_state(*id).unwrap().overdue_entries(engine.pub_watermark());
        assert_eq!(overdue, 0, "node {id} holds entries past their deadline");
    }
}

/// Drives a scenario the continuous way (drain after every publication, so
/// heat detection sees quiescent points), optionally with graceful churn
/// one third and two thirds into the tuple stream. Returns the engine and
/// the per-query sorted answer rows.
fn run(
    scenario: &Scenario,
    config: EngineConfig,
    churn: bool,
) -> (RJoinEngine, BTreeMap<QueryId, Vec<Vec<Value>>>) {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();

    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q).unwrap());
    }
    drain_checked(&mut engine);

    let tuples = scenario.generate_tuples(engine.now() + 1);
    let churn_points = [tuples.len() / 3, 2 * tuples.len() / 3];
    for (i, t) in tuples.into_iter().enumerate() {
        if churn && i == churn_points[0] {
            engine.join_node("split-churn-join-a").unwrap();
            engine.join_node("split-churn-join-b").unwrap();
        }
        if churn && i == churn_points[1] {
            let leaver = engine.node_ids()[5];
            engine.leave_node(leaver).unwrap();
        }
        let origin = engine.node_ids()[i % engine.node_ids().len()];
        engine.publish_tuple(origin, t).unwrap();
        drain_checked(&mut engine);
    }

    let answers = qids
        .into_iter()
        .map(|qid| {
            let mut rows = engine.answers().rows_for(qid);
            rows.sort();
            (qid, rows)
        })
        .collect();
    (engine, answers)
}

fn assert_answer_sets_equal(
    unsplit: &BTreeMap<QueryId, Vec<Vec<Value>>>,
    split: &BTreeMap<QueryId, Vec<Vec<Value>>>,
    label: &str,
) {
    assert_eq!(unsplit.len(), split.len());
    let mut total = 0usize;
    for (qid, rows) in unsplit {
        let split_rows = split.get(qid).unwrap_or_else(|| panic!("{label}: {qid} missing"));
        assert_eq!(
            rows, split_rows,
            "{label}: answer set for {qid} must be identical split vs unsplit"
        );
        total += rows.len();
    }
    assert!(total > 0, "{label}: the scenario must deliver answers");
}

/// The tentpole soundness property: at θ ∈ {{0.5, 0.9}} the split engine's
/// per-query answer sets are identical to the unsplit engine's, at every
/// shard count.
#[test]
fn split_answers_identical_to_unsplit_across_skews_and_drivers() {
    for shards in shard_counts() {
        for theta in [0.5, 0.9] {
            let scenario = Scenario::skew_test(theta);
            let (unsplit_engine, unsplit) = run(&scenario, config(false, shards), false);
            let (split_engine, split) = run(&scenario, config(true, shards), false);
            assert!(
                split_engine.split_counters().keys_split > 0,
                "the θ={theta} scenario must actually trip the splitter (shards={shards})"
            );
            assert_eq!(
                unsplit_engine.split_counters().keys_split,
                0,
                "the control run must not split"
            );
            // Stored queries and tuples (value-level and ALTT) re-homed onto
            // sub-keys at activation, per sub-key copy.
            let counters = split_engine.split_counters();
            let migrated = (counters.migrated_queries, counters.migrated_tuples);
            assert_eq!(migrated, if theta == 0.5 { (2345, 600) } else { (2259, 544) });
            assert_answer_sets_equal(&unsplit, &split, &format!("theta={theta}, shards={shards}"));
        }
    }
}

/// Same property while the ring is churning (graceful join/leave between
/// drains): re-homed sub-key state keeps producing the identical answers.
#[test]
fn split_answers_identical_to_unsplit_under_churn() {
    for shards in shard_counts() {
        for theta in [0.5, 0.9] {
            let scenario = Scenario::skew_test(theta);
            let (_, unsplit) = run(&scenario, config(false, shards), true);
            let (split_engine, split) = run(&scenario, config(true, shards), true);
            assert!(split_engine.split_counters().keys_split > 0);
            let counters = split_engine.split_counters();
            let migrated = (counters.migrated_queries, counters.migrated_tuples);
            assert_eq!(migrated, if theta == 0.5 { (2346, 600) } else { (2259, 544) });
            assert_answer_sets_equal(
                &unsplit,
                &split,
                &format!("churn, theta={theta}, shards={shards}"),
            );
        }
    }
}

/// Split activation over windowed state: on the θ = 0.9 skew scenario with
/// a sliding window, the splitter migrates windowed stored queries and ALTT
/// entries, and the sub-key owners that absorb them must arm their
/// deadlines on their own wheels. The answers equal the unsplit run's, and
/// after every drain no node holds an entry past its deadline (checked in
/// `run`).
#[test]
fn split_activation_over_windowed_state_rearms_every_deadline() {
    let scenario = Scenario { window: WindowSpec::sliding_tuples(16), ..Scenario::skew_test(0.9) };
    for shards in shard_counts() {
        let (_, unsplit) = run(&scenario, config(false, shards), false);
        let (split_engine, split) = run(&scenario, config(true, shards), false);
        let counters = split_engine.split_counters();
        assert!(counters.keys_split > 0, "the windowed run must trip the splitter");
        assert!(counters.migrated_queries > 0 && counters.migrated_tuples > 0);
        assert!(split_engine.state_counters().wheel_pops > 0, "windowed state must expire");
        assert_answer_sets_equal(&unsplit, &split, &format!("windowed, shards={shards}"));
    }
}

/// The split run is deterministic: repeating it reproduces the identical
/// answer log and counters.
#[test]
fn split_runs_are_deterministic() {
    for shards in shard_counts() {
        let scenario = Scenario::skew_test(0.9);
        let (engine_a, answers_a) = run(&scenario, config(true, shards), false);
        let (engine_b, answers_b) = run(&scenario, config(true, shards), false);
        assert_eq!(answers_a, answers_b, "split run must be deterministic (shards={shards})");
        assert_eq!(engine_a.split_counters(), engine_b.split_counters());
        assert_eq!(engine_a.split_map().len(), engine_b.split_map().len());
    }
}

/// Aggregates per-key loads onto a freshly bootstrapped reference ring
/// after up to `nodes / 4` identifier movements — the Figure 9 measurement.
fn idmove_distribution(
    nodes: usize,
    key_loads: &std::collections::BTreeMap<rjoin_dht::Id, u64>,
) -> rjoin_metrics::Distribution {
    let mut reference: rjoin_net::Network<()> =
        rjoin_net::Network::new(rjoin_net::NetworkConfig::default());
    reference.bootstrap(nodes, "rjoin-node");
    rjoin_dht::balance::rebalance(reference.dht_mut(), key_loads, nodes / 4)
        .expect("rebalance on a healthy ring");
    let loads = rjoin_dht::balance::node_loads(reference.dht(), key_loads)
        .expect("aggregation on a healthy ring");
    rjoin_metrics::Distribution::from_values(loads.values().copied())
}

/// The load story the tentpole promises on the θ = 0.9 skew scenario, in
/// the Figure 9 measurement: with identifier movement applied to *both*
/// arms, the two-tier system (splitting + identifier movement) carries at
/// most half the busiest-node load of the identifier-movement-only
/// baseline and strictly improves the Gini coefficient — because splitting
/// turns the indivisible point-mass keys into medium keys that identifier
/// movement can then actually balance. The split/heat counters are visible
/// in `ExperimentStats`.
#[test]
fn split_halves_the_busiest_node_and_reports_counters() {
    let scenario = Scenario::skew_test(0.9);
    let (unsplit_engine, _) = run(&scenario, config(false, 1), false);
    let (split_engine, _) = run(&scenario, config(true, 1), false);
    let unsplit = unsplit_engine.stats();
    let split = split_engine.stats();

    let baseline = idmove_distribution(scenario.nodes, &unsplit_engine.qpl_by_key_id());
    let two_tier = idmove_distribution(scenario.nodes, &split_engine.qpl_by_key_id());
    assert!(
        baseline.max() >= 2 * two_tier.max(),
        "two-tier busiest node must carry at most half the id-movement-only load ({} vs {})",
        baseline.max(),
        two_tier.max()
    );
    assert!(
        two_tier.gini() < baseline.gini(),
        "two-tier Gini must beat identifier movement alone ({:.3} vs {:.3})",
        two_tier.gini(),
        baseline.gini()
    );

    // Splitting already helps before identifier movement: the heaviest key
    // cools down and per-node balance improves.
    assert!(
        split.key_heat.max() < unsplit.key_heat.max(),
        "the heaviest key must cool down ({} vs {})",
        split.key_heat.max(),
        unsplit.key_heat.max()
    );
    assert!(
        split.qpl.gini() < unsplit.qpl.gini(),
        "per-node QPL Gini must improve ({:.3} vs {:.3})",
        split.qpl.gini(),
        unsplit.qpl.gini()
    );

    // The counters surface in the stats snapshot.
    assert!(split.splits.keys_split > 0);
    assert_eq!(split.splits.partitions_created, split.splits.keys_split * PARTITIONS as u64);
    assert!(split.splits.tuples_routed > 0, "tuples must route to sub-keys after a split");
    assert!(
        split.splits.query_fanout + split.splits.tuple_fanout > 0,
        "split keys must replicate the lighter side"
    );
    assert!(split.splits.migrated_queries > 0, "activation must migrate stored queries");
    assert_eq!(unsplit.splits, rjoin_metrics::SplitCounters::default());
    assert_eq!(split_engine.split_map().len(), split.splits.keys_split as usize);
}

/// Forced splitting via the harness entry point: `split_key` partitions a
/// key without any heat history, and the engine keeps producing identical
/// answers from a clean slate (no threshold configured at all).
#[test]
fn forced_split_key_is_answer_neutral() {
    let scenario = Scenario::skew_test(0.9);
    let (_, unsplit) = run(&scenario, config(false, 1), false);

    let catalog = scenario.workload_schema().build_catalog();
    let mut engine =
        RJoinEngine::simulated(EngineConfig::default().with_altt(2_000), catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    // Split every attribute key of the head relation up front (the preset
    // schema has 3 attributes).
    for attr in ["A0", "A1", "A2"] {
        let key = rjoin_query::IndexKey::attribute("R0", attr);
        engine.split_key(&key, 4).unwrap();
        // Activation purges stale cached RIC estimates for the base key on
        // every node — a pre-split rate must never steer placement away
        // from the freshly split key for the cache-validity horizon.
        let ring = key.hashed().ring();
        for id in engine.node_ids().to_vec() {
            let cached = engine.node_state(id).and_then(|s| s.cached_ric(ring, 0));
            assert!(cached.is_none(), "split activation must purge cached RIC for {attr}");
        }
    }
    assert_eq!(engine.split_map().len(), 3);
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        let origin = engine.node_ids()[i % engine.node_ids().len()];
        engine.publish_tuple(origin, t).unwrap();
        engine.run_until_quiescent().unwrap();
    }

    for qid in qids {
        let mut rows = engine.answers().rows_for(qid);
        rows.sort();
        assert_eq!(rows, unsplit[&qid], "forced split must not change {qid}'s answers");
    }
}
