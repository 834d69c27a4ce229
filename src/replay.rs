//! Record/replay: the deterministic simulator as an oracle for the TCP
//! transport.
//!
//! A [`ReplaySpec`] names a workload ([`Scenario`]), an engine
//! configuration, and an optional churn plan. [`replay_over_tcp`] runs the
//! workload twice:
//!
//! 1. **Record** — on the simulated engine ([`RJoinEngine::simulated`]),
//!    capturing the generated queries, tuples and per-query answers.
//! 2. **Replay** — on a loopback-TCP [`Cluster`], submitting the *same*
//!    queries and tuples (and applying the same churn plan) through the
//!    networked pipeline.
//!
//! The report compares per-query answer **sets**, keyed by submission
//! index: the two runs own queries differently (simulated queries are
//! owned by ring nodes, networked ones by the client endpoint) and
//! interleave deliveries differently, but Theorems 1 and 2 of the paper
//! promise the same answers — so set equality per query is exactly the
//! invariant a correct transport must preserve. Churn (graceful join and
//! leave with state re-homing) must not lose a single answer on either
//! side.

use crate::error::Error;
use rjoin_core::{EngineConfig, RJoinEngine};
use rjoin_dht::Id;
use rjoin_metrics::SharingCounters;
use rjoin_relation::Value;
use rjoin_transport::{Cluster, ClusterConfig};
use rjoin_workload::Scenario;
use std::io::{self, Write};
use std::path::Path;

/// A membership change applied between two tuple publications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// A node joins; buckets it now owns are re-homed to it.
    Join,
    /// A non-origin node leaves gracefully, draining all of its state.
    Leave,
}

/// One churn event: `op` is applied right before tuple `after_tuple` is
/// published.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// Index (into the scenario's tuple list) before which the change runs.
    pub after_tuple: usize,
    /// The membership change.
    pub op: ChurnOp,
}

/// What to replay: workload, configuration, churn plan, and the TCP
/// deployment parameters.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// The recorded workload.
    pub scenario: Scenario,
    /// `Some(k)`: the queries share `k` sub-join patterns
    /// ([`Scenario::generate_overlapping_queries`]) — the workload shared
    /// sub-join evaluation merges.
    pub patterns: Option<usize>,
    /// Engine configuration, shared by both runs.
    pub config: EngineConfig,
    /// Membership changes applied (identically placed) in both runs.
    pub churn: Vec<ChurnEvent>,
    /// TCP deployment parameters of the replay side.
    pub cluster: ClusterConfig,
}

/// Per-query comparison of the two runs.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Submission index of the query.
    pub index: usize,
    /// Distinct rows the simulated run delivered.
    pub sim_rows: usize,
    /// Distinct rows the TCP run delivered.
    pub tcp_rows: usize,
    /// Whether the two answer sets are equal.
    pub equal: bool,
}

/// The result of one record/replay comparison.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Items re-homed by graceful leaves on the TCP side.
    pub moved: u64,
    /// What shared sub-join evaluation saved on the simulated side (the TCP
    /// nodes run the same pipeline but report no counters).
    pub sim_sharing: SharingCounters,
}

impl ReplayReport {
    /// Whether every query's answer set matched.
    pub fn all_equal(&self) -> bool {
        self.outcomes.iter().all(|o| o.equal)
    }

    /// Total distinct rows the simulated run delivered.
    pub fn total_sim_rows(&self) -> usize {
        self.outcomes.iter().map(|o| o.sim_rows).sum()
    }

    /// Total distinct rows the TCP run delivered.
    pub fn total_tcp_rows(&self) -> usize {
        self.outcomes.iter().map(|o| o.tcp_rows).sum()
    }

    /// Writes the per-query comparison as CSV (the `net-smoke` CI
    /// artifact).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "query_index,sim_rows,tcp_rows,equal")?;
        for o in &self.outcomes {
            writeln!(f, "{},{},{},{}", o.index, o.sim_rows, o.tcp_rows, o.equal)?;
        }
        Ok(())
    }
}

/// Sorted, deduplicated row set — the unit of comparison.
fn row_set(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows.dedup();
    rows
}

/// A deterministic leaver pick: the highest-identifier live node that is
/// not `protect` (the simulated side protects the query-owning origin; the
/// networked side owns queries at the client, so nothing needs
/// protection there and `protect` simply never matches).
fn pick_leaver(ids: &[Id], protect: Id) -> Option<Id> {
    ids.iter().rev().copied().find(|id| *id != protect)
}

/// Records the scenario on the simulated engine, replays it over loopback
/// TCP, and compares per-query answer sets.
pub fn replay_over_tcp(spec: &ReplaySpec) -> Result<ReplayReport, Error> {
    let scenario = &spec.scenario;
    let catalog = scenario.workload_schema().build_catalog();
    let queries = match spec.patterns {
        Some(patterns) => scenario.generate_overlapping_queries(patterns),
        None => scenario.generate_queries(),
    };

    // ---- Record: the simulated oracle run -------------------------------
    let mut engine = RJoinEngine::simulated(spec.config.clone(), catalog.clone(), scenario.nodes);
    // One origin owns every query: churn must never remove a query owner
    // (answers are delivered to it), and one protected node is easier to
    // reason about than many.
    let origin = engine.node_ids()[0];
    let mut sim_qids = Vec::with_capacity(queries.len());
    for q in &queries {
        sim_qids.push(engine.submit_query(origin, q.clone())?);
    }
    engine.run_until_quiescent()?;

    let tuples = scenario.generate_tuples(engine.now() + 1);
    let mut joins = 0usize;
    for (i, t) in tuples.iter().enumerate() {
        for event in spec.churn.iter().filter(|e| e.after_tuple == i) {
            engine.run_until_quiescent()?;
            match event.op {
                ChurnOp::Join => {
                    engine.join_node(&format!("replay-churn-{joins}"))?;
                    joins += 1;
                }
                ChurnOp::Leave => {
                    if let Some(leaver) = pick_leaver(engine.node_ids(), origin) {
                        engine.leave_node(leaver)?;
                    }
                }
            }
        }
        engine.publish_tuple(origin, t.clone())?;
    }
    engine.run_until_quiescent()?;

    // ---- Replay: the same workload over loopback TCP --------------------
    let mut cluster =
        Cluster::launch(spec.config.clone(), catalog, scenario.nodes, spec.cluster.clone())?;
    for q in &queries {
        cluster.submit_query(q.clone())?;
    }
    cluster.settle()?;

    let mut moved = 0u64;
    for (i, t) in tuples.iter().enumerate() {
        for event in spec.churn.iter().filter(|e| e.after_tuple == i) {
            match event.op {
                ChurnOp::Join => {
                    cluster.join_node()?;
                }
                ChurnOp::Leave => {
                    let ids: Vec<Id> = cluster.node_ids().iter().map(|n| n.id()).collect();
                    if let Some(leaver) = pick_leaver(&ids, cluster.client_id()) {
                        moved += cluster.leave_node(leaver)?;
                    }
                }
            }
        }
        cluster.publish_tuple(t.clone())?;
    }
    cluster.settle()?;

    // ---- Compare per-query answer sets by submission index --------------
    let tcp_qids = cluster.query_ids().to_vec();
    let mut outcomes = Vec::with_capacity(sim_qids.len());
    for (index, (sim_qid, tcp_qid)) in sim_qids.iter().zip(&tcp_qids).enumerate() {
        let sim = row_set(engine.answers().rows_for(*sim_qid));
        let tcp = row_set(cluster.rows_for(*tcp_qid));
        outcomes.push(QueryOutcome {
            index,
            sim_rows: sim.len(),
            tcp_rows: tcp.len(),
            equal: sim == tcp,
        });
    }
    cluster.shutdown();
    Ok(ReplayReport { outcomes, moved, sim_sharing: engine.sharing_counters() })
}
