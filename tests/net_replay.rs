//! The record/replay harness: the deterministic simulator as an oracle
//! for the TCP transport.
//!
//! Each test records a scenario on the simulated engine, replays the same
//! queries and tuples over a loopback-TCP cluster, and asserts per-query
//! answer-**set** equality (keyed by submission index — the two runs own
//! queries differently). The per-query comparison is written as CSV under
//! `target/net_smoke/` — the artifact the `net-smoke` CI job uploads.

use rjoin::prelude::*;
use rjoin::replay::{replay_over_tcp, ChurnEvent, ChurnOp, ReplaySpec};
use rjoin::transport::ClusterConfig as TransportClusterConfig;
use std::path::PathBuf;
use std::time::Duration;

/// The oracle suite's 4-way-join workload shape, shrunk to a node count a
/// single test process can host as TCP listeners.
fn net_scenario(queries: usize, tuples: usize) -> Scenario {
    Scenario {
        nodes: 6,
        queries,
        tuples,
        joins: 3,
        theta: 0.9,
        relations: 6,
        attributes: 4,
        domain: 8,
        ..Scenario::small_test()
    }
}

fn cluster_config() -> TransportClusterConfig {
    TransportClusterConfig {
        settle_timeout: Duration::from_secs(120),
        ..TransportClusterConfig::default()
    }
}

fn csv_path(name: &str) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("net_smoke").join(format!("{name}.csv"))
}

/// Simulated and TCP runs of the oracle's 4-way-join scenario must deliver
/// identical per-query answer sets.
#[test]
fn tcp_replay_matches_the_simulated_oracle_four_way() {
    let spec = ReplaySpec {
        scenario: net_scenario(12, 48),
        patterns: None,
        config: EngineConfig::default().with_value_level_only(true),
        churn: Vec::new(),
        cluster: cluster_config(),
    };
    let report = replay_over_tcp(&spec).expect("replay");
    report.write_csv(&csv_path("four_way")).expect("csv artifact");
    assert!(
        report.all_equal(),
        "answer sets diverge: sim={} tcp={} ({:?})",
        report.total_sim_rows(),
        report.total_tcp_rows(),
        report.outcomes.iter().filter(|o| !o.equal).collect::<Vec<_>>(),
    );
    assert!(report.total_sim_rows() > 0, "the workload should produce at least one answer");
}

/// The same equality must survive graceful churn on both sides: a join and
/// a leave interleaved with the tuple stream re-home live state without
/// losing or duplicating a single answer.
#[test]
fn tcp_replay_matches_the_simulated_oracle_under_graceful_churn() {
    let spec = ReplaySpec {
        scenario: net_scenario(15, 40),
        patterns: None,
        config: EngineConfig::default().with_value_level_only(true),
        churn: vec![
            ChurnEvent { after_tuple: 13, op: ChurnOp::Join },
            ChurnEvent { after_tuple: 27, op: ChurnOp::Leave },
        ],
        cluster: cluster_config(),
    };
    let report = replay_over_tcp(&spec).expect("replay");
    report.write_csv(&csv_path("churn")).expect("csv artifact");
    assert!(
        report.all_equal(),
        "answer sets diverge under churn: sim={} tcp={} ({:?})",
        report.total_sim_rows(),
        report.total_tcp_rows(),
        report.outcomes.iter().filter(|o| !o.equal).collect::<Vec<_>>(),
    );
    assert!(report.total_sim_rows() > 0, "the workload should produce at least one answer");
    assert!(report.moved > 0, "the graceful leave should re-home live state");
}

/// A burst: 512 tuples published back to back — the client never waits, so
/// every node's inbox stays busy and frames reach the wire many to a
/// segment — then a single `settle`. Coalescing is at the byte level only:
/// every per-query answer set must still equal the simulator's. The ALTT
/// retains every tuple, so completeness does not depend on arrival order.
#[test]
fn tcp_replay_matches_the_simulated_oracle_after_a_burst() {
    let spec = ReplaySpec {
        // A wider domain than the other tests: 85 tuples per relation would
        // otherwise complete ~10^5 answers per 4-way query.
        scenario: Scenario { nodes: 4, domain: 48, ..net_scenario(12, 512) },
        patterns: None,
        config: EngineConfig::default().with_altt(u64::MAX / 4),
        churn: Vec::new(),
        cluster: cluster_config(),
    };
    let report = replay_over_tcp(&spec).expect("replay");
    report.write_csv(&csv_path("burst")).expect("csv artifact");
    assert!(
        report.all_equal(),
        "answer sets diverge after a burst: sim={} tcp={} ({:?})",
        report.total_sim_rows(),
        report.total_tcp_rows(),
        report.outcomes.iter().filter(|o| !o.equal).collect::<Vec<_>>(),
    );
    assert!(report.total_sim_rows() > 0, "the workload should produce at least one answer");
}

/// Shared sub-join evaluation over real sockets: 16 window-less queries over
/// 4 sub-join patterns merge at their nodes, so the `Eval`s between node
/// processes carry subscriber tables (immutable subscriber sets plus the
/// tuples bound so far) through the binary codec, and the receiving node
/// projects every subscriber's answer from what came off the wire.
#[test]
fn tcp_replay_matches_the_simulated_oracle_with_shared_subjoins() {
    let spec = ReplaySpec {
        scenario: net_scenario(16, 48),
        patterns: Some(4),
        config: EngineConfig::default().with_value_level_only(true).with_subjoin_sharing(true),
        churn: Vec::new(),
        cluster: cluster_config(),
    };
    let report = replay_over_tcp(&spec).expect("replay");
    report.write_csv(&csv_path("shared")).expect("csv artifact");
    assert!(
        report.all_equal(),
        "answer sets diverge with sharing on: sim={} tcp={} ({:?})",
        report.total_sim_rows(),
        report.total_tcp_rows(),
        report.outcomes.iter().filter(|o| !o.equal).collect::<Vec<_>>(),
    );
    assert!(report.total_sim_rows() > 0, "the workload should produce at least one answer");
    let saved = report.sim_sharing;
    assert!(saved.evals_saved > 0, "shared Evals must have carried subscribers: {saved:?}");
    assert!(saved.fanout_answers > 0, "completions must have fanned out: {saved:?}");
}
