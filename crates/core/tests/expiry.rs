//! Deadline-heap expiry on publication time, checked against the brute-force
//! oracle: for sliding and tumbling windows, with shared sub-joins, the
//! ALTT, hot-key splitting and membership churn in the mix, every query
//! must receive exactly the answers `common::oracle_answers` derives — also
//! when tuples are stamped ahead of time and drained one at a time, so the
//! simulated clock runs far ahead of publication. After every drain no live
//! stored query, cell tuple or ALTT entry may be past its deadline at the
//! engine's publication watermark: expiry leaves nothing expired behind.
//!
//! Every run is repeated at each of `common::shard_counts()`.

mod common;

use common::{drain, oracle_answers, shard_counts, sorted};
use rjoin_core::{EngineConfig, QueryId, RJoinEngine};
use rjoin_query::{JoinQuery, WindowSpec};
use rjoin_relation::{Catalog, Timestamp, Tuple};
use rjoin_workload::Scenario;

fn scenario(window: WindowSpec, tuples: usize) -> Scenario {
    Scenario {
        nodes: 24,
        queries: 30,
        tuples,
        joins: 2,
        relations: 6,
        attributes: 4,
        domain: 6,
        window,
        ..Scenario::small_test()
    }
}

/// An engine with the scenario's overlapping queries installed, plus what
/// the oracle needs to judge it: each query with its submission time, and
/// every tuple published so far.
struct Run {
    engine: RJoinEngine,
    catalog: Catalog,
    submitted: Vec<(QueryId, JoinQuery, Timestamp)>,
    published: Vec<Tuple>,
}

impl Run {
    fn install(scenario: &Scenario, config: EngineConfig) -> Run {
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let origins = engine.node_ids().to_vec();
        let mut submitted = Vec::new();
        for (i, q) in scenario.generate_overlapping_queries(5).into_iter().enumerate() {
            let insert_time = engine.now();
            let qid = engine.submit_query(origins[i % origins.len()], q.clone()).unwrap();
            submitted.push((qid, q, insert_time));
        }
        drain(&mut engine);
        Run { engine, catalog, submitted, published: Vec::new() }
    }

    /// Publishes `tuples` from the original nodes in turn; drains after
    /// each one when `per_tuple`, once at the end otherwise. Every drain is
    /// followed by the no-overdue-state check.
    fn publish(&mut self, tuples: Vec<Tuple>, per_tuple: bool, tag: &str) {
        let origins = self.engine.node_ids().to_vec();
        for (i, t) in tuples.into_iter().enumerate() {
            self.published.push(t.clone());
            self.engine.publish_tuple(origins[i % origins.len()], t).unwrap();
            if per_tuple {
                self.drain(tag);
            }
        }
        self.drain(tag);
    }

    fn drain(&mut self, tag: &str) {
        drain(&mut self.engine);
        let watermark = self.engine.pub_watermark();
        let overdue: usize = self
            .engine
            .node_ids()
            .iter()
            .map(|id| self.engine.node_state(*id).unwrap().overdue_entries(watermark))
            .sum();
        assert_eq!(overdue, 0, "{tag}: live state past its deadline at watermark {watermark}");
    }

    /// Asserts every query's answers equal the oracle's bag; returns how
    /// many answers the run delivered.
    fn assert_matches_oracle(&self, tag: &str) -> usize {
        let mut produced = 0;
        for (qid, query, insert_time) in &self.submitted {
            let expected = oracle_answers(&self.catalog, query, *insert_time, &self.published);
            let delivered = self.engine.answers().rows_for(*qid);
            produced += delivered.len();
            assert_eq!(sorted(delivered), sorted(expected), "{tag}: answers of {qid}");
        }
        assert!(produced > 0, "{tag}: the workload should produce answers");
        produced
    }
}

/// Runs the windowed workload — two tuple waves with a node joining between
/// them and leaving after them, so re-homed state must expire correctly at
/// its new home too.
fn run_with_churn(window: WindowSpec, config: EngineConfig) -> Run {
    let scenario = scenario(window, 60);
    let mut run = Run::install(&scenario, config);
    let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
    let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
    let wave = half.generate_tuples(run.engine.now() + 1);
    run.publish(wave, false, "first wave");
    // Churn at the quiescent points: a joiner steals buckets mid-run (their
    // expiry tokens on the donor go stale; the joiner re-schedules), then
    // leaves again, re-homing its state a second time.
    let joined = run.engine.join_node("expiry-churn").unwrap();
    let wave = second.generate_tuples(run.engine.now() + 1);
    run.publish(wave, false, "second wave");
    run.engine.leave_node(joined).unwrap();
    run
}

#[test]
fn windowed_answers_match_the_oracle_under_churn() {
    for shards in shard_counts() {
        for (kind, window) in [
            ("sliding", WindowSpec::sliding_tuples(16)),
            ("tumbling", WindowSpec::tumbling_time(16)),
        ] {
            for (variant, config) in [
                ("shared+altt", EngineConfig::default().with_subjoin_sharing(true).with_altt(64)),
                ("split+altt", EngineConfig::default().with_altt(32).with_hot_key_splitting(4, 2)),
            ] {
                let tag = format!("shards={shards} window={kind} variant={variant}");
                let run = run_with_churn(window, config.with_shards(shards));
                run.assert_matches_oracle(&tag);
                let counters = run.engine.state_counters();
                assert!(counters.wheel_pops > 0, "{tag}: expiry never popped");
                assert_eq!(counters.contact_expirations, 0, "{tag}: only expiry reclaims");
            }
        }
    }
}

/// Forced splitting interacting with churn: `split_key` re-homes stored
/// windowed state to the sub-key owners mid-run (the donor's expiry tokens
/// go stale, the receivers re-schedule), a joining node steals some of it
/// again, and the leave re-homes it a third time. No deadline may be
/// orphaned along the way (no overdue state after any drain) and no answer
/// lost (oracle-exact).
#[test]
fn forced_split_and_churn_rehome_wheel_deadlines() {
    let window = WindowSpec::sliding_tuples(16);
    for shards in shard_counts() {
        let tag = format!("split+churn shards={shards}");
        let scenario = scenario(window, 60);
        let config =
            EngineConfig::default().with_subjoin_sharing(true).with_altt(64).with_shards(shards);
        let mut run = Run::install(&scenario, config);
        let half = Scenario { tuples: scenario.tuples / 2, ..scenario.clone() };
        let second = Scenario { seed: scenario.seed ^ 0x9E37, ..half.clone() };
        let wave = half.generate_tuples(run.engine.now() + 1);
        run.publish(wave, false, &tag);
        // Split every attribute key of the head relation while its buckets
        // hold live windowed entries, then churn the membership.
        for attr in ["A0", "A1", "A2", "A3"] {
            run.engine.split_key(&rjoin_query::IndexKey::attribute("R0", attr), 4).unwrap();
        }
        let joined = run.engine.join_node("expiry-split-churn").unwrap();
        let wave = second.generate_tuples(run.engine.now() + 1);
        run.publish(wave, false, &tag);
        run.engine.leave_node(joined).unwrap();
        run.drain(&tag);
        run.assert_matches_oracle(&tag);
        assert!(run.engine.state_counters().wheel_pops > 0, "re-homed deadlines must still pop");
    }
}

/// The deadline heap is the only reclamation path, and a complete one: once the
/// clock is advanced past every window and ALTT retention, an idle drain
/// leaves no rewritten query and no ALTT entry on any node.
#[test]
fn wheel_retires_every_expired_entry_at_the_watermark() {
    let window = WindowSpec::sliding_tuples(16);
    let config = EngineConfig::default().with_subjoin_sharing(true).with_altt(64);
    let mut run = run_with_churn(window, config);
    let rewritten = |engine: &RJoinEngine| -> usize {
        engine
            .node_ids()
            .iter()
            .map(|id| engine.node_state(*id).unwrap().stored_rewritten_count())
            .sum()
    };
    assert!(rewritten(&run.engine) > 0, "the run must leave windowed rewritten queries");
    run.engine.advance_time(1_000);
    run.drain("idle drain");
    assert_eq!(rewritten(&run.engine), 0, "every window closed before the watermark");
    let counters = run.engine.state_counters();
    assert_eq!(counters.altt_slab_live, 0, "every retention ended before the watermark");
    assert_eq!(counters.contact_expirations, 0);
    assert!(counters.wheel_pops > 0);
}

/// Tuples stamped with rising publication times up front and drained one
/// at a time: every drain moves the clock on by the length of a cascade,
/// so the clock runs far ahead of publication. Windows are defined on
/// publication time (Section 5), and so is expiry: the answers must still
/// be exactly the oracle's. The ALTT retention covers the whole run, so
/// retention never decides an answer here — windowed-state expiry does.
#[test]
fn pre_stamped_tuples_drained_one_at_a_time_match_the_oracle() {
    const WHOLE_RUN: u64 = 100_000;
    for shards in shard_counts() {
        for (kind, window) in [
            ("sliding", WindowSpec::sliding_tuples(16)),
            ("tumbling", WindowSpec::tumbling_time(16)),
        ] {
            for (variant, config) in [
                ("default+altt", EngineConfig::default().with_altt(WHOLE_RUN)),
                (
                    "shared+altt",
                    EngineConfig::default().with_subjoin_sharing(true).with_altt(WHOLE_RUN),
                ),
                (
                    "split+altt",
                    EngineConfig::default().with_altt(WHOLE_RUN).with_hot_key_splitting(4, 2),
                ),
            ] {
                let tag = format!("shards={shards} window={kind} variant={variant}");
                let scenario = scenario(window, 120);
                let mut run = Run::install(&scenario, config.with_shards(shards));
                let stamped = scenario.generate_tuples(run.engine.now() + 1);
                let last_pub = stamped.last().unwrap().pub_time();
                run.publish(stamped, true, &tag);
                assert!(
                    run.engine.now() > 2 * last_pub,
                    "{tag}: the clock ({}) must run well ahead of publication ({last_pub})",
                    run.engine.now()
                );
                run.assert_matches_oracle(&tag);
            }
        }
    }
}
