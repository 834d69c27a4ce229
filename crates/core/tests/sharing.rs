//! Shared sub-join evaluation, end to end: on an overlapping multi-query
//! workload the shared registry must produce **exactly** the per-query
//! answers of the unshared engine (and of the centralized oracle) while
//! measurably reducing `Eval` traffic, query-processing load and the number
//! of stored queries.
//!
//! The second half is about the subscriber *table* a shared entry carries
//! (`rjoin_core::SubscriberTable`): subscribers ride untouched from their
//! merge to the fan-out, where eligibility is one comparison against the
//! combination's earliest publication time and the `SELECT` list is
//! projected from the tuples the group bound. A generated differential
//! (shapes × windows × submission points × shard counts), a hand-built
//! merge of children from different tuples, churn, and two cost guards (no
//! growth of a stored query, no per-subscriber allocation on a trigger).

mod common;

use common::{assert_sub_bag, oracle_answers, shard_counts, sorted};
use proptest::prelude::*;
use rjoin_core::pipeline::{handle_node_msg, standalone_node_state, Action, TickEffect};
use rjoin_core::{
    traffic_class, EngineConfig, PendingQuery, QueryId, RJoinEngine, RJoinMessage, StoredQuery,
};
use rjoin_dht::Id;
use rjoin_query::{
    parse_query, Conjunct, IndexKey, IndexLevel, JoinQuery, QualifiedAttr, SelectItem, WindowSpec,
};
use rjoin_relation::{Catalog, Schema, Timestamp, Tuple, Value};
use rjoin_workload::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// 40 input queries sharing 5 sub-join patterns (8 queries per pattern) over
/// a small, dense domain so joins actually complete.
fn overlap_workload() -> (Scenario, Vec<JoinQuery>, Vec<Tuple>) {
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
    let queries = scenario.generate_overlapping_queries(5);
    // Publication times start after query submission in both engines (the
    // submission burst quiesces at tick 1).
    let tuples = scenario.generate_tuples(2);
    (scenario, queries, tuples)
}

fn run(share: bool) -> (RJoinEngine, Vec<QueryId>, Vec<JoinQuery>, Vec<Tuple>) {
    let (scenario, queries, tuples) = overlap_workload();
    // Value-level placement of rewrites guarantees exact oracle equality
    // (Theorems 1 and 2), so shared and unshared runs are comparable
    // answer-for-answer.
    let mut config = EngineConfig::default().with_value_level_only(true);
    if share {
        config = config.with_subjoin_sharing(true);
    }
    let catalog = scenario.workload_schema().build_catalog();
    let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
    let origins: Vec<_> = engine.node_ids().to_vec();
    let mut qids = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
    }
    engine.run_until_quiescent().unwrap();
    for (i, t) in tuples.iter().enumerate() {
        engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
    }
    engine.run_until_quiescent().unwrap();
    (engine, qids, queries, tuples)
}

/// The acceptance gate of the shared sub-join subsystem: identical answers,
/// measurably less work.
#[test]
fn shared_registry_reduces_load_with_identical_answers() {
    let (unshared, qids_a, queries, tuples) = run(false);
    let (shared, qids_b, _, _) = run(true);
    assert_eq!(qids_a, qids_b);

    // 1. Answers are identical per query — to the unshared engine *and* to
    //    the centralized oracle.
    let catalog = overlap_workload().0.workload_schema().build_catalog();
    let mut total_answers = 0usize;
    for (qid, query) in qids_a.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        let base = sorted(unshared.answers().rows_for(*qid));
        let opt = sorted(shared.answers().rows_for(*qid));
        assert_eq!(base, expected, "unshared engine diverges from the oracle for {qid}");
        assert_eq!(opt, expected, "shared engine diverges from the oracle for {qid}");
        total_answers += expected.len();
    }
    assert!(total_answers > 0, "the workload must produce answers for the test to mean anything");

    // 2. Sharing actually engaged: queries merged, Evals saved, answers
    //    fanned out.
    let savings = shared.sharing_counters();
    assert!(savings.merged_queries > 0, "overlapping queries must merge: {savings:?}");
    assert!(savings.evals_saved > 0, "shared triggers must save re-index messages: {savings:?}");
    assert!(savings.fanout_answers > 0, "completions must fan out to subscribers: {savings:?}");
    assert!(!unshared.sharing_counters().any_sharing(), "sharing must stay off by default");

    // 3. The measurable wins: fewer stored queries, less Eval/index message
    //    traffic, lower query-processing and storage load.
    assert!(
        shared.stored_queries_current() < unshared.stored_queries_current(),
        "stored-query load must drop ({} vs {})",
        shared.stored_queries_current(),
        unshared.stored_queries_current()
    );
    let eval_a = unshared.traffic().total_sent_class(traffic_class::EVAL);
    let eval_b = shared.traffic().total_sent_class(traffic_class::EVAL);
    assert!(eval_b < eval_a, "Eval re-index traffic must drop ({eval_b} vs {eval_a})");
    assert!(
        shared.total_qpl() < unshared.total_qpl(),
        "query-processing load must drop ({} vs {})",
        shared.total_qpl(),
        unshared.total_qpl()
    );
    assert!(
        shared.total_sl() < unshared.total_sl(),
        "storage load must drop ({} vs {})",
        shared.total_sl(),
        unshared.total_sl()
    );

    // 4. The savings are visible through the stats snapshot as well.
    let stats = shared.stats();
    assert_eq!(stats.sharing, savings);
    assert_eq!(stats.stored_queries_current, shared.stored_queries_current());
}

/// Sharing under **sliding windows**: overlapping windowed queries must
/// still produce exactly the centralized windowed oracle's answers with the
/// registry on — the shared span gate (`window_min`/`window_max`) and the
/// no-merge-across-spans rule are what this exercises end to end.
#[test]
fn shared_registry_matches_windowed_oracle() {
    let (mut scenario, _, _) = overlap_workload();
    scenario.window = rjoin_query::WindowSpec::sliding_tuples(12);
    let queries = scenario.generate_overlapping_queries(5);
    let tuples = scenario.generate_tuples(2);
    let catalog = scenario.workload_schema().build_catalog();

    let run_with = |share: bool| {
        let mut config = EngineConfig::default().with_value_level_only(true);
        if share {
            config = config.with_subjoin_sharing(true);
        }
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        (engine, qids)
    };
    let (unshared, qids) = run_with(false);
    let (shared, qids_b) = run_with(true);
    assert_eq!(qids, qids_b);

    let mut total = 0usize;
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = sorted(oracle_answers(&catalog, query, 0, &tuples));
        assert_eq!(
            sorted(unshared.answers().rows_for(*qid)),
            expected,
            "unshared windowed run diverges from the oracle for {qid}"
        );
        assert_eq!(
            sorted(shared.answers().rows_for(*qid)),
            expected,
            "shared windowed run diverges from the oracle for {qid}"
        );
        total += expected.len();
    }
    assert!(total > 0, "the windowed overlap workload must produce answers");
    assert!(shared.sharing_counters().any_sharing(), "windowed twins must still merge");
}

/// Sharing must also hold up under the default (attribute-level capable)
/// placement: answers remain a subset-equal multiset of the unshared run's
/// per-query answers and sharing still saves work.
#[test]
fn shared_registry_is_sound_under_default_placement() {
    let (scenario, queries, tuples) = overlap_workload();
    let run_with = |share: bool| {
        let mut config = EngineConfig::default();
        if share {
            config = config.with_subjoin_sharing(true);
        }
        let catalog = scenario.workload_schema().build_catalog();
        let mut engine = RJoinEngine::simulated(config, catalog, scenario.nodes);
        let origins: Vec<_> = engine.node_ids().to_vec();
        let mut qids = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            qids.push(engine.submit_query(origins[i % origins.len()], q.clone()).unwrap());
        }
        engine.run_until_quiescent().unwrap();
        for (i, t) in tuples.iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], t.clone()).unwrap();
        }
        engine.run_until_quiescent().unwrap();
        (engine, qids)
    };
    let (unshared, _) = run_with(false);
    let (shared, qids) = run_with(true);
    let catalog = scenario.workload_schema().build_catalog();
    // Soundness versus the oracle: every delivered row consumes one oracle
    // row (no unsound answers, no duplicates).
    for (qid, query) in qids.iter().zip(&queries) {
        let expected = oracle_answers(&catalog, query, 0, &tuples);
        assert_sub_bag(expected, shared.answers().rows_for(*qid), &format!("shared {qid}"));
    }
    assert!(shared.sharing_counters().any_sharing());
    // Sharing must not eat into recall: the shared run delivers at least as
    // many answers as the unshared one (attribute-level placement makes the
    // default config lossy in general, but merging twins only *adds*
    // trigger opportunities at their merge site, never removes them).
    assert!(!shared.answers().is_empty(), "the shared run must deliver answers");
    assert!(
        shared.answers().len() >= unshared.answers().len(),
        "sharing lost answers: {} shared vs {} unshared",
        shared.answers().len(),
        unshared.answers().len()
    );
}

// ------------------------------------------------------ the subscriber table

const RELATIONS: [&str; 4] = ["R0", "R1", "R2", "R3"];
const ATTRIBUTES: [&str; 3] = ["A0", "A1", "A2"];

fn table_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for relation in RELATIONS {
        catalog.register(Schema::new(relation, ATTRIBUTES).unwrap()).unwrap();
    }
    catalog
}

/// One step of a generated run.
#[derive(Debug, Clone)]
enum Op {
    /// Submit the next query that is not running yet (publish nothing if
    /// all are).
    Submit,
    /// Publish a tuple of `RELATIONS[relation]`.
    Publish { relation: usize, values: [i64; 3] },
}

/// A generated run: subscribers of one sub-join (same `FROM`, `WHERE` and
/// window, their own `SELECT` lists) submitted at generated points of a
/// tuple stream that comes in bursts.
#[derive(Debug, Clone)]
struct TableCase {
    queries: Vec<JoinQuery>,
    bursts: Vec<Vec<Op>>,
    value_level_only: bool,
}

/// Ticks between the first publications of consecutive bursts: longer than
/// any drain of these runs takes, so both engines of a differential see the
/// same publication times whatever their own clocks did in between.
const BURST_GAP: Timestamp = 1_000;

fn arb_table_case() -> impl Strategy<Value = TableCase> {
    let op = prop_oneof![
        Just(Op::Submit),
        (0usize..4, 0i64..2, 0i64..2, 0i64..3)
            .prop_map(|(relation, a, b, c)| Op::Publish { relation, values: [a, b, c] }),
        (0usize..4, 0i64..2, 0i64..2, 0i64..3)
            .prop_map(|(relation, a, b, c)| Op::Publish { relation, values: [a, b, c] }),
    ];
    (
        (proptest::bool::ANY, 1usize..4, 0usize..3, proptest::bool::ANY),
        proptest::collection::vec(proptest::collection::vec((0usize..4, 0usize..3), 1..4), 4..11),
        proptest::collection::vec(proptest::collection::vec(op, 5..13), 3..6),
    )
        .prop_map(|((star, joins, window, value_level_only), selects, bursts)| {
            let relations: Vec<_> = RELATIONS[..=joins].iter().map(|r| (*r).into()).collect();
            let attr = |relation: usize, attribute: usize| {
                QualifiedAttr::new(RELATIONS[relation], ATTRIBUTES[attribute])
            };
            // Chain: R0.A1 = R1.A0, R1.A1 = R2.A0, …; star: R0.Ai = Ri+1.A0.
            let conjuncts: Vec<_> = (0..joins)
                .map(|i| match star {
                    true => Conjunct::JoinEq(attr(0, i), attr(i + 1, 0)),
                    false => Conjunct::JoinEq(attr(i, 1), attr(i + 1, 0)),
                })
                .collect();
            let window = match window {
                0 => WindowSpec::None,
                // Two and a half bursts / two bursts per bucket.
                1 => WindowSpec::sliding_time(5 * BURST_GAP / 2),
                _ => WindowSpec::tumbling_time(2 * BURST_GAP),
            };
            let queries = selects
                .into_iter()
                .map(|items| {
                    let select = items
                        .into_iter()
                        .map(|(relation, attribute)| {
                            SelectItem::Attr(attr(relation % (joins + 1), attribute))
                        })
                        .collect();
                    JoinQuery::new(false, select, relations.clone(), conjuncts.clone(), window)
                        .expect("well-formed generated query")
                })
                .collect();
            TableCase { queries, bursts, value_level_only }
        })
}

/// What one engine made of a [`TableCase`].
struct TableRun {
    engine: RJoinEngine,
    /// Per query: its id and insertion time.
    submitted: Vec<(QueryId, Timestamp)>,
    published: Vec<Tuple>,
    /// Stored items re-homed by churn.
    moved: usize,
}

/// Runs `case`: the first two queries up front, the rest wherever the
/// bursts say — between tuples that are still in flight, between bursts,
/// and (whoever is left) after the last tuple. Bursts are published without
/// draining in between and stamped on a fixed schedule; after each burst
/// `churn` nodes join and as many leave.
fn run_table_case(case: &TableCase, share: bool, shards: usize, churn: usize) -> TableRun {
    // The ALTT makes the run complete whatever races a burst produces
    // (Section 4), so shared, unshared and oracle must agree exactly.
    let config = EngineConfig::default()
        .with_altt(1_000_000)
        .with_delay(2)
        .with_value_level_only(case.value_level_only)
        .with_subjoin_sharing(share)
        .with_shards(shards);
    let mut engine = RJoinEngine::simulated(config, table_catalog(), 48);
    // Everything enters at sixteen nodes that never leave.
    let origins = engine.node_ids()[..16].to_vec();
    let mut submitted = Vec::with_capacity(case.queries.len());
    let mut published = Vec::new();
    let mut sent = 0usize;
    let mut moved = 0usize;
    let submit_next = |engine: &mut RJoinEngine, submitted: &mut Vec<_>, sent: &mut usize| {
        if let Some(query) = case.queries.get(submitted.len()) {
            let insert_time = engine.now();
            let origin = origins[*sent % origins.len()];
            submitted.push((engine.submit_query(origin, query.clone()).unwrap(), insert_time));
            *sent += 1;
        }
    };
    submit_next(&mut engine, &mut submitted, &mut sent);
    submit_next(&mut engine, &mut submitted, &mut sent);
    engine.run_until_quiescent().unwrap();
    for (b, burst) in case.bursts.iter().enumerate() {
        let mut pub_time = BURST_GAP * (b as Timestamp + 1);
        assert!(engine.now() < pub_time, "a drain outlasted the burst gap");
        for op in burst {
            match op {
                Op::Submit => submit_next(&mut engine, &mut submitted, &mut sent),
                Op::Publish { relation, values } => {
                    let values = values.iter().map(|v| Value::from(*v)).collect();
                    let tuple = Tuple::new(RELATIONS[*relation], values, pub_time);
                    engine.publish_tuple(origins[sent % origins.len()], tuple.clone()).unwrap();
                    published.push(tuple);
                    pub_time += 1;
                    sent += 1;
                }
            }
        }
        engine.run_until_quiescent().unwrap();
        for round in 0..churn {
            let added = engine.join_node(&format!("table-churn-{b}-{round}")).unwrap();
            let victim = engine
                .node_ids()
                .iter()
                .copied()
                .find(|id| *id != added && !origins.contains(id))
                .expect("forty-eight nodes, sixteen of them origins");
            moved += engine.leave_node(victim).unwrap();
            engine.run_until_quiescent().unwrap();
        }
    }
    while submitted.len() < case.queries.len() {
        submit_next(&mut engine, &mut submitted, &mut sent);
    }
    engine.run_until_quiescent().unwrap();
    TableRun { engine, submitted, published, moved }
}

/// Per-query answer bags of `run` against the oracle and against `base`.
fn assert_same_bags(case: &TableCase, base: &TableRun, run: &TableRun, what: &str) {
    let catalog = table_catalog();
    for (i, query) in case.queries.iter().enumerate() {
        let (qid, insert_time) = run.submitted[i];
        assert_eq!(qid, base.submitted[i].0);
        let got = sorted(run.engine.answers().rows_for(qid));
        let want = sorted(base.engine.answers().rows_for(qid));
        assert_eq!(got, want, "{what}: query {i} ({query}) diverges from the unshared engine");
        let expected = sorted(oracle_answers(&catalog, query, insert_time, &run.published));
        assert_eq!(got, expected, "{what}: query {i} ({query}) diverges from the oracle");
    }
}

proptest! {
    /// Shared and unshared engines deliver identical per-query answer bags
    /// (and the oracle's) over chain and star sub-joins × {no window,
    /// sliding, tumbling} × subscribers submitted before the stream, between
    /// tuples still in flight (where a later-submitted subscriber can reach
    /// the merge site first and become the primary of earlier ones), between
    /// bursts and after the last tuple — on every shard count of the leg.
    #[test]
    fn shared_and_unshared_engines_agree_wherever_subscribers_join(case in arb_table_case()) {
        let unshared = run_table_case(&case, false, 1, 0);
        for shards in shard_counts() {
            let shared = run_table_case(&case, true, shards, 0);
            prop_assert_eq!(&shared.published, &unshared.published);
            assert_same_bags(&case, &unshared, &shared, &format!("{shards} shard(s)"));
        }
    }
}

/// Children of one shared entry produced by **different tuples** that carry
/// the same join value and the same publication time have the same key,
/// signature and window state, so they merge — and must still project each
/// subscriber's `SELECT` list from their *own* tuple. This is why the table
/// is made of groups with a bound-tuple row each.
#[test]
fn merged_children_of_different_tuples_project_their_own_values() {
    let mut catalog = Catalog::new();
    for relation in ["R", "S", "T"] {
        catalog.register(Schema::new(relation, ["A", "B"]).unwrap()).unwrap();
    }
    let tuple = |relation: &str, a: i64, b: i64, pub_time| {
        Tuple::new(relation, vec![Value::from(a), Value::from(b)], pub_time)
    };
    let run = |share: bool, shards: usize, seed: u64| {
        let mut config = EngineConfig::default()
            .with_value_level_only(true)
            .with_subjoin_sharing(share)
            .with_shards(shards);
        config.seed = seed;
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), 12);
        let origin = engine.node_ids()[0];
        let p = "SELECT R.B, T.B FROM R, S, T WHERE R.A = S.A AND S.B = T.A";
        let q = "SELECT T.B, S.B, R.B FROM R, S, T WHERE R.A = S.A AND S.B = T.A";
        let p = engine.submit_query(origin, parse_query(p).unwrap()).unwrap();
        let q = engine.submit_query(origin, parse_query(q).unwrap()).unwrap();
        engine.run_until_quiescent().unwrap();
        // Same join value 7, same publication time, different R.B.
        let now = engine.now() + 1;
        engine.publish_tuple(origin, tuple("R", 7, 1, now)).unwrap();
        engine.publish_tuple(origin, tuple("R", 7, 2, now)).unwrap();
        engine.run_until_quiescent().unwrap();
        let merged_children = engine.sharing_counters().merged_queries;
        let now = engine.now() + 1;
        engine.publish_tuple(origin, tuple("S", 7, 5, now)).unwrap();
        engine.run_until_quiescent().unwrap();
        let now = engine.now() + 1;
        engine.publish_tuple(origin, tuple("T", 5, 9, now)).unwrap();
        engine.run_until_quiescent().unwrap();
        let rows = |qid| sorted(engine.answers().rows_for(qid));
        (rows(p), rows(q), merged_children)
    };
    let v = |values: &[i64]| values.iter().map(|v| Value::from(*v)).collect::<Vec<_>>();
    for shards in shard_counts() {
        // Placement decides which relation the input entry waits for; the
        // children only meet when it is R, so a few seeds are tried and
        // every one must answer right.
        let mut met = 0;
        for seed in 0..8 {
            let (p_rows, q_rows, merged) = run(true, shards, seed);
            assert_eq!(p_rows, vec![v(&[1, 9]), v(&[2, 9])], "seed {seed}");
            assert_eq!(q_rows, vec![v(&[9, 5, 1]), v(&[9, 5, 2])], "seed {seed}");
            let (p_unshared, q_unshared, _) = run(false, shards, seed);
            assert_eq!((p_rows, q_rows), (p_unshared, q_unshared), "seed {seed}");
            // Q into P at the input level, then the second child (its
            // primary and the subscriber riding on it) into the first.
            met += usize::from(merged == 3);
        }
        assert!(met > 0, "no seed made the two R tuples' children meet in one entry");
    }
}

/// Shared entries across `join_node` / `leave_node`: re-homed entries carry
/// their table (bound tuples, late subscribers) through `drain_misplaced` /
/// `absorb`, re-merge at their new home and keep answering exactly.
#[test]
fn subscriber_tables_survive_rehoming() {
    let publish = |relation: usize, values: [i64; 3]| Op::Publish { relation, values };
    let chain = |select: &str, window: &str| {
        let sql = format!(
            "SELECT {select} FROM R0, R1, R2 WHERE R0.A1 = R1.A0 AND R1.A1 = R2.A0 {window}"
        );
        parse_query(&sql).unwrap()
    };
    for (window, value_level_only) in
        [("", true), ("WINDOW SLIDING 2500 TIME", false), ("WINDOW TUMBLING 2000 TIME", true)]
    {
        let case = TableCase {
            queries: vec![
                chain("R0.A0, R2.A1", window),
                chain("R2.A2, R1.A2, R0.A2", window),
                chain("R1.A0", window),
                chain("R0.A2, R2.A2", window),
            ],
            // Every burst leaves partial combinations behind (stored entries
            // with bound tuples) for the churn after it to move; the third
            // and fourth query join while earlier tuples are bound.
            bursts: vec![
                vec![publish(0, [0, 1, 5]), publish(0, [2, 1, 6]), publish(1, [1, 2, 7])],
                vec![Op::Submit, publish(2, [2, 0, 8]), publish(1, [1, 2, 9]), Op::Submit],
                vec![publish(2, [2, 1, 3]), publish(0, [4, 1, 4]), publish(1, [1, 2, 0])],
                vec![publish(2, [2, 2, 2])],
            ],
            value_level_only,
        };
        let unshared = run_table_case(&case, false, 1, 0);
        let total: usize = unshared.engine.answers().len();
        assert!(total > 0, "the hand-built stream must produce answers ({window})");
        for shards in shard_counts() {
            let shared = run_table_case(&case, true, shards, 8);
            assert!(shared.moved > 0, "churn must re-home stored state");
            assert_same_bags(&case, &unshared, &shared, &format!("churn, {shards} shard(s)"));
            assert!(shared.engine.sharing_counters().fanout_answers > 0, "tables fanned out");
        }
    }
}

/// The subscriber table is one pointer in `PendingQuery` (null while
/// nothing merged): a stored query stays four words of pending query —
/// input query, bindings, table, window start — plus its key, dedup filter
/// and bucket position (64-bit).
#[cfg(target_pointer_width = "64")]
#[test]
fn the_subscriber_table_does_not_grow_a_stored_query() {
    assert!(std::mem::size_of::<PendingQuery>() <= 32, "{}", std::mem::size_of::<PendingQuery>());
    assert!(std::mem::size_of::<StoredQuery>() <= 56, "{}", std::mem::size_of::<StoredQuery>());
}

// ------------------------------------------------------ allocation counting

thread_local! {
    /// Blocks this thread has allocated (tests run on their own threads, so
    /// they do not see each other).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocated blocks per thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals are torn down.
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many blocks it allocated.
fn blocks_allocated_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// Drives one node by hand: `subscribers` queries of one sub-join merge
/// into one entry; an R tuple triggers it, the child is stored at its
/// value-level key, an S tuple triggers that, and the grandchild is stored
/// in turn — two triggers and two stores with the table aboard. Returns the
/// blocks allocated over those four steps and the answers a final T tuple
/// fans out.
fn trigger_chain_blocks(subscribers: u64) -> (u64, usize) {
    let mut catalog = Catalog::new();
    for relation in ["R", "S", "T"] {
        catalog.register(Schema::new(relation, ["A", "B"]).unwrap()).unwrap();
    }
    let config = EngineConfig::default().with_subjoin_sharing(true);
    let mut state = standalone_node_state(Id(1), &config);
    let mut at = 0;
    let mut deliver = |state: &mut _, msg: RJoinMessage| {
        at += 1;
        match handle_node_msg(state, &catalog, &config, at, at, Id(1), msg) {
            TickEffect::Node { actions, .. } => actions,
            _ => panic!("a stored-state message runs a node-local handler"),
        }
    };
    let new_tuple = |relation: &str, a: i64, b: i64, pub_time, key: &IndexKey| {
        let values = vec![Value::from(a), Value::from(b)];
        RJoinMessage::NewTuple {
            tuple: Arc::new(Tuple::new(relation, values, pub_time)),
            key: key.hashed(),
            level: key.level(),
            publisher: Id(9),
        }
    };
    let reindexed = |actions: Vec<Action>, key: &IndexKey| match <[Action; 1]>::try_from(actions) {
        Ok([Action::Reindex { pending }]) => RJoinMessage::Eval {
            pending: *pending,
            key: key.hashed(),
            level: IndexLevel::Value,
            carried_ric: Vec::new(),
        },
        other => panic!("one shared child expected, got {other:?}"),
    };

    let input_key = IndexKey::attribute("R", "A");
    for owner in 0..subscribers {
        let sql = format!(
            "SELECT {}, T.B FROM R, S, T WHERE R.A = S.A AND S.B = T.A",
            if owner % 2 == 0 { "R.B" } else { "S.A, R.A" }
        );
        let pending = PendingQuery::input(
            QueryId { owner: Id(100 + owner), seq: owner },
            Id(100 + owner),
            0,
            parse_query(&sql).unwrap(),
        );
        let msg =
            RJoinMessage::IndexQuery { pending, key: input_key.hashed(), level: input_key.level() };
        assert!(deliver(&mut state, msg).is_empty());
    }
    assert_eq!(state.stored_query_count(), 1, "all subscribers share one entry");

    let s_key = IndexKey::value("S", "A", Value::from(7));
    let t_key = IndexKey::value("T", "A", Value::from(5));
    let r_tuple = new_tuple("R", 7, 1, 10, &input_key);
    let s_tuple = new_tuple("S", 7, 5, 11, &s_key);
    let (_, blocks) = blocks_allocated_during(|| {
        let child = reindexed(deliver(&mut state, r_tuple), &s_key);
        assert!(deliver(&mut state, child).is_empty());
        let grandchild = reindexed(deliver(&mut state, s_tuple), &t_key);
        assert!(deliver(&mut state, grandchild).is_empty());
    });
    let answers = deliver(&mut state, new_tuple("T", 5, 9, 12, &t_key));
    (blocks, answers.len())
}

/// Between a merge and the fan-out nothing is allocated, copied or rewritten
/// per subscriber: triggering (and storing the children of) an entry with
/// one subscriber and with 64 allocates the same number of blocks. Only the
/// completion is per subscriber — one answer row each.
#[test]
fn a_trigger_allocates_the_same_blocks_for_one_subscriber_and_for_sixty_four() {
    // The first run warms what is allocated once per process or thread (the
    // interned keys, the query's plan).
    trigger_chain_blocks(2);
    let (two, answers_two) = trigger_chain_blocks(2);
    let (many, answers_many) = trigger_chain_blocks(65);
    assert_eq!((answers_two, answers_many), (2, 65));
    assert_eq!(two, many, "a trigger's allocations must not depend on the subscriber count");
}
