//! The experiment runner: builds an engine from a scenario, drives it and
//! captures the metrics the figures need.

use rjoin_core::{EngineConfig, ExperimentStats, RJoinEngine};
use rjoin_dht::Id;
use rjoin_workload::Scenario;
use std::collections::BTreeMap;

/// Everything a figure generator needs from one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final statistics after all tuples were processed.
    pub stats: ExperimentStats,
    /// Statistics snapshots taken after the requested numbers of tuples
    /// (`checkpoints` argument of [`run_experiment`]), in the same order.
    pub checkpoints: Vec<(usize, ExperimentStats)>,
    /// Query-processing load added by each published tuple (index = tuple
    /// order), used for cumulative plots.
    pub per_tuple_qpl: Vec<u64>,
    /// Storage load added by each published tuple.
    pub per_tuple_sl: Vec<u64>,
    /// Query-processing load per index key (keyed by the ring identifier the
    /// key hashes to), for load-balancing analysis.
    pub qpl_by_key: BTreeMap<Id, u64>,
    /// Storage load per index key.
    pub sl_by_key: BTreeMap<Id, u64>,
    /// Number of nodes in the network.
    pub nodes: usize,
    /// Number of tuples published.
    pub tuples: usize,
    /// Number of answers delivered.
    pub answers: u64,
}

/// Runs one experiment: bootstraps the network, submits every query of the
/// scenario (round-robin over the nodes), publishes every tuple one by one
/// (running the network to quiescence after each so per-tuple load deltas
/// are exact), and records statistics snapshots after the tuple counts
/// listed in `checkpoints`.
pub fn run_experiment(
    scenario: &Scenario,
    engine_config: EngineConfig,
    checkpoints: &[usize],
) -> RunResult {
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(engine_config, catalog, scenario.nodes);
    let origins: Vec<Id> = engine.node_ids().to_vec();

    let queries = scenario.generate_queries();
    for (i, q) in queries.iter().enumerate() {
        let origin = origins[i % origins.len()];
        engine
            .submit_query(origin, q.clone())
            .expect("generated queries validate against the generated catalog");
    }
    engine.run_until_quiescent().expect("query indexing cannot fail on a stable ring");

    let tuples = scenario.generate_tuples(engine.now() + 1);
    let mut per_tuple_qpl = Vec::with_capacity(tuples.len());
    let mut per_tuple_sl = Vec::with_capacity(tuples.len());
    let mut snapshots = Vec::with_capacity(checkpoints.len());
    let mut prev_qpl = engine.total_qpl();
    let mut prev_sl = engine.total_sl();

    for (i, t) in tuples.iter().enumerate() {
        let origin = origins[i % origins.len()];
        engine.publish_tuple(origin, t.clone()).expect("generated tuples are valid");
        engine.run_until_quiescent().expect("tuple processing cannot fail on a stable ring");
        let qpl = engine.total_qpl();
        let sl = engine.total_sl();
        per_tuple_qpl.push(qpl - prev_qpl);
        per_tuple_sl.push(sl - prev_sl);
        prev_qpl = qpl;
        prev_sl = sl;
        if checkpoints.contains(&(i + 1)) {
            snapshots.push((i + 1, engine.stats()));
        }
    }

    RunResult {
        stats: engine.stats(),
        checkpoints: snapshots,
        per_tuple_qpl,
        per_tuple_sl,
        qpl_by_key: engine.qpl_by_key_id(),
        sl_by_key: engine.sl_by_key_id(),
        nodes: scenario.nodes,
        tuples: tuples.len(),
        answers: engine.answers().len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_core::PlacementStrategy;

    fn smoke_scenario() -> Scenario {
        Scenario { nodes: 24, queries: 80, tuples: 40, ..Scenario::small_test() }
    }

    #[test]
    fn runner_produces_consistent_metrics() {
        let result = run_experiment(&smoke_scenario(), EngineConfig::default(), &[20, 40]);
        assert_eq!(result.tuples, 40);
        assert_eq!(result.per_tuple_qpl.len(), 40);
        assert_eq!(result.per_tuple_sl.len(), 40);
        assert_eq!(result.checkpoints.len(), 2);
        // Checkpoint totals are monotone and end at the final totals.
        let (_, mid) = &result.checkpoints[0];
        let (_, last) = &result.checkpoints[1];
        assert!(mid.qpl_total <= last.qpl_total);
        assert_eq!(last.qpl_total, result.stats.qpl_total);
        // Per-tuple deltas sum to the final totals.
        assert_eq!(result.per_tuple_qpl.iter().sum::<u64>(), result.stats.qpl_total);
        assert_eq!(result.per_tuple_sl.iter().sum::<u64>(), result.stats.sl_total);
        // Key-level loads sum to node-level loads.
        assert_eq!(result.qpl_by_key.values().sum::<u64>(), result.stats.qpl_total);
        assert_eq!(result.sl_by_key.values().sum::<u64>(), result.stats.sl_total);
        assert!(result.stats.traffic_total > 0);
    }

    #[test]
    fn ric_aware_produces_less_traffic_than_worst() {
        let scenario = smoke_scenario();
        let rjoin = run_experiment(&scenario, EngineConfig::default(), &[]);
        let worst =
            run_experiment(&scenario, EngineConfig::with_placement(PlacementStrategy::Worst), &[]);
        assert!(
            rjoin.stats.qpl_total < worst.stats.qpl_total,
            "RIC-aware placement should process fewer rewritten queries ({} vs {})",
            rjoin.stats.qpl_total,
            worst.stats.qpl_total
        );
    }
}
