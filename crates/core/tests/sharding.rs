//! Engine-level tests of the sharded event-queue runtime: mid-flight
//! membership churn checked against a brute-force oracle under both the
//! sequential and the sharded drivers, plus observability of the
//! shard-aware accounting.
//!
//! The shard counts exercised honor the `RJOIN_SHARDS` environment
//! variable (see `common::shard_counts`).

mod common;

use common::{assert_sub_bag, drain, oracle_answers, shard_counts};
use rjoin_core::{EngineConfig, PlacementStrategy, QueryId, RJoinEngine};
use rjoin_query::{JoinQuery, WindowSpec};
use rjoin_relation::{Catalog, Timestamp, Tuple};
use rjoin_workload::Scenario;

fn churn_scenario() -> Scenario {
    Scenario {
        nodes: 24,
        queries: 60,
        tuples: 50,
        joins: 2,
        relations: 5,
        attributes: 3,
        domain: 8,
        seed: 0xC4E5_0001,
        ..Scenario::small_test()
    }
}

/// Drives the churn workload: queries indexed, tuples published, then —
/// **while the tuple/Eval cascade is still in flight** — the sequential
/// driver single-steps partway into the cascade, two nodes join and one
/// leaves, and the remaining drain runs under the requested driver.
/// Returns the engine plus everything the oracle needs.
type ChurnRun = (RJoinEngine, Vec<(QueryId, JoinQuery, Timestamp)>, Vec<Tuple>, Catalog);

fn run_churn(shards: usize) -> ChurnRun {
    let scenario = churn_scenario();
    let catalog = scenario.workload_schema().build_catalog();
    let config = EngineConfig::with_placement(PlacementStrategy::FirstInClause)
        .with_altt(200)
        .with_shards(shards);
    let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();

    let mut submitted = Vec::new();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        let insert_time = engine.now();
        let qid = engine.submit_query(origins[i % origins.len()], q.clone()).unwrap();
        submitted.push((qid, q, insert_time));
    }
    engine.run_until_quiescent().unwrap();

    let tuples = scenario.generate_tuples(engine.now() + 1);
    for (i, t) in tuples.iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
    }

    // Step into the middle of the cascade: Eval/Index/NewTuple messages are
    // in flight when the membership changes below happen.
    for _ in 0..40 {
        if !engine.step().unwrap() {
            break;
        }
    }
    assert!(engine.in_flight() > 0, "churn must happen while messages are in flight");
    engine.join_node("churn-join-a").unwrap();
    engine.join_node("churn-join-b").unwrap();
    let leaver = engine.node_ids()[3];
    engine.leave_node(leaver).unwrap();
    assert!(engine.in_flight() > 0, "messages must still be in flight after churn");

    drain(&mut engine);
    (engine, submitted, tuples, catalog)
}

/// Mid-tick churn soundness oracle: with join/leave happening while
/// Eval/Index messages are in flight, every delivered answer must still be
/// an answer of the centralized oracle — under the sequential *and* the
/// sharded drivers. (Completeness may legitimately degrade: messages in
/// flight to a departed node are lost, exactly as in a real deployment.)
#[test]
fn mid_flight_churn_answers_stay_sound_under_all_drivers() {
    for shards in shard_counts() {
        let (engine, submitted, tuples, catalog) = run_churn(shards);
        assert!(
            !engine.answers().is_empty(),
            "churn scenario must deliver answers (shards={shards})"
        );
        for (qid, query, insert_time) in &submitted {
            // Bag inclusion: every delivered row must appear in the oracle's
            // bag at most as often as the oracle derives it (bag semantics —
            // distinct tuple combinations may project to equal rows).
            let allowed = oracle_answers(&catalog, query, *insert_time, &tuples);
            let what = format!("{qid} under shards={shards}");
            assert_sub_bag(allowed, engine.answers().rows_for(*qid), &what);
        }
    }
}

/// The mid-flight churn run is deterministic under the sharded driver:
/// repeating it yields the identical answer log.
#[test]
fn mid_flight_churn_is_deterministic() {
    for shards in shard_counts() {
        let (engine_a, submitted, _, _) = run_churn(shards);
        let (engine_b, _, _, _) = run_churn(shards);
        assert_eq!(engine_a.answers().len(), engine_b.answers().len());
        for (qid, _, _) in &submitted {
            assert_eq!(
                engine_a.answers().rows_for(*qid),
                engine_b.answers().rows_for(*qid),
                "churn run must be deterministic (shards={shards})"
            );
        }
    }
}

/// A zero-delay configuration (legal for the single queue) cannot run the
/// sharded rounds (a round's sends must land after its tick): the parallel
/// driver must run the sequential drain instead and stay byte-identical to
/// it.
#[test]
fn zero_delay_falls_back_to_the_single_queue_driver() {
    let scenario = churn_scenario();
    let run = |parallel: bool| {
        let catalog = scenario.workload_schema().build_catalog();
        let mut config = EngineConfig::default().with_shards(4);
        config.network_delay = 0;
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        for (i, q) in scenario.generate_queries().into_iter().enumerate() {
            engine.submit_query(origins[i % origins.len()], q).unwrap();
        }
        if parallel {
            engine.run_until_quiescent_parallel().unwrap();
        } else {
            engine.run_until_quiescent().unwrap();
        }
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t).unwrap();
        }
        if parallel {
            engine.run_until_quiescent_parallel().unwrap();
        } else {
            engine.run_until_quiescent().unwrap();
        }
        let stats = engine.stats();
        (stats.answers, stats.qpl_total, stats.traffic_total, stats.shard_runtime.drains)
    };
    let sequential = run(false);
    let parallel = run(true);
    assert_eq!(sequential.0, parallel.0, "answers must match under the fallback");
    assert_eq!(sequential.1, parallel.1, "QPL must match under the fallback");
    assert_eq!(sequential.2, parallel.2, "traffic must match under the fallback");
    assert_eq!(parallel.3, 0, "no sharded drain may run at zero delay");
}

/// The shard-aware accounting is observable: a sharded drain reports its
/// shard count, tick activations and intra/cross-shard delivery split, and
/// the split covers exactly the messages scheduled during sharded drains.
#[test]
fn sharded_runtime_counters_are_observable() {
    let scenario = churn_scenario();
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine =
        RJoinEngine::simulated(EngineConfig::default().with_shards(4), catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        engine.submit_query(origins[i % origins.len()], q).unwrap();
    }
    engine.run_until_quiescent_parallel().unwrap();
    for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t).unwrap();
    }
    engine.run_until_quiescent_parallel().unwrap();

    let stats = engine.stats();
    let runtime = &stats.shard_runtime;
    assert_eq!(runtime.shards, 4);
    assert_eq!(runtime.drains, 2);
    assert!(runtime.ticks > 0, "tick activations must be counted");
    assert!(runtime.deliveries > 0, "deliveries must be counted");
    assert!(runtime.deliveries_per_tick() >= 1.0);
    let scheduled = stats.intra_shard_messages + stats.cross_shard_messages;
    assert!(scheduled > 0, "shard-locality split must be populated");
    assert!(
        stats.cross_shard_messages > 0,
        "a 24-node ring at 4 shards must exchange cross-shard messages"
    );
    assert!(
        scheduled <= runtime.deliveries,
        "every scheduled message is eventually delivered or counted as seeded"
    );

    // The sequential driver leaves all sharded counters untouched.
    let catalog = scenario.workload_schema().build_catalog();
    let mut sequential = RJoinEngine::simulated(EngineConfig::default(), catalog, scenario.nodes);
    let origins: Vec<_> = sequential.node_ids().to_vec();
    for (i, q) in scenario.generate_queries().into_iter().enumerate() {
        sequential.submit_query(origins[i % origins.len()], q).unwrap();
    }
    sequential.run_until_quiescent().unwrap();
    let stats = sequential.stats();
    assert_eq!(stats.shard_runtime.drains, 0);
    assert_eq!(stats.intra_shard_messages + stats.cross_shard_messages, 0);
}

/// An idle drain flushes expiry under every driver: after `advance_time`
/// moves the clock past every window, a drain with nothing in flight must
/// leave only the input queries stored — sequentially and sharded alike.
#[test]
fn an_idle_drain_flushes_expired_state_under_every_driver() {
    let scenario = Scenario {
        nodes: 24,
        queries: 30,
        tuples: 60,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        window: WindowSpec::sliding_tuples(16),
        ..Scenario::small_test()
    };
    let stored_after_idle_drain = |shards: usize| {
        let catalog = scenario.workload_schema().build_catalog();
        let config = EngineConfig::default().with_altt(32).with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        for (i, q) in scenario.generate_overlapping_queries(5).into_iter().enumerate() {
            engine.submit_query(origins[i % origins.len()], q).unwrap();
        }
        drain(&mut engine);
        for (i, t) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t).unwrap();
        }
        drain(&mut engine);
        let live = engine.stored_queries_current();
        engine.advance_time(1_000);
        assert_eq!(drain(&mut engine), 0, "nothing is in flight (shards={shards})");
        (live, engine.stored_queries_current())
    };
    let (live, sequential) = stored_after_idle_drain(1);
    assert!(live > sequential, "the run must leave windowed rewritten queries ({live})");
    assert_eq!(sequential, scenario.queries as u64, "only the input queries never expire");
    for shards in [2, 4] {
        let (_, sharded) = stored_after_idle_drain(shards);
        assert_eq!(sharded, sequential, "an idle drain at {shards} shards must flush expiry");
    }
}
