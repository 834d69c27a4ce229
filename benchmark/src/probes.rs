//! Standalone probes of single layers: each times calls into one layer's
//! public functions on generated inputs, with no engine around them, and
//! reports the median of five chunk means (see [`ns_per_op`]).

use crate::harness::ALTT_WHOLE_RUN;
use crate::measure::{median, ns_per_op, secs};
use rjoin::core::pipeline::{handle_node_msg, standalone_node_state, Action, TickEffect};
use rjoin::core::{PendingQuery, RJoinMessage};
use rjoin::dht::Id;
use rjoin::net::{Network, NetworkConfig};
use rjoin::prelude::*;
use rjoin::query::{
    candidate_keys, compile_subjoin, fingerprint, plan_query, rewrite, tuple_index_keys,
};
use rjoin::transport::frame::{read_frame, write_frame};
use rjoin::transport::{ClusterView, Member, ServiceMessage};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring size of the routing probes (the simulator workloads' node count).
const RING_NODES: usize = 256;
/// Messages of each kind fed to the bare node state per round.
const NODE_MESSAGES: usize = 1_000;

/// Calls `op(i)` with a running index, so probes can cycle through a pool
/// of inputs.
fn cycling(budget: Duration, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    ns_per_op(budget, || {
        op(i);
        i = i.wrapping_add(1);
    })
}

/// Runs every probe; `budget` is the wall time for all of them together.
pub fn run(seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    let slice = budget / 20;
    let mut out = Vec::new();

    // ---- inputs: the paper schema's chain queries, triangles, tuples ----
    let chain_scenario =
        Scenario { queries: 256, tuples: 1_024, seed, ..Scenario::paper_default() };
    let catalog = chain_scenario.workload_schema().build_catalog();
    let chains = chain_scenario.generate_queries();
    let tuples = chain_scenario.generate_tuples(1);
    let triangle_scenario = Scenario { queries: 64, seed, ..Scenario::cyclic_test() };
    let triangles = triangle_scenario.generate_queries();
    let mixed: Vec<&JoinQuery> = chains.iter().chain(&triangles).collect();
    let config = EngineConfig::default().with_altt(ALTT_WHOLE_RUN);

    // ---- query ----------------------------------------------------------
    let sql: Vec<String> = chains.iter().map(|q| q.to_string()).collect();
    out.push((
        "query.parse_ns",
        cycling(slice, |i| drop(black_box(parse_query(&sql[i % sql.len()])))),
    ));
    out.push((
        "query.plan_ns",
        cycling(slice, |i| {
            drop(black_box(plan_query(mixed[i % mixed.len()], config.hypercube_cells)))
        }),
    ));
    out.push((
        "query.candidate_keys_ns",
        cycling(slice, |i| drop(black_box(candidate_keys(mixed[i % mixed.len()])))),
    ));
    out.push((
        "query.fingerprint_ns",
        cycling(slice, |i| {
            black_box(fingerprint(mixed[i % mixed.len()]));
        }),
    ));
    // Each chain query paired with a tuple of its first relation.
    let triggers: Vec<(&JoinQuery, &Schema, &Tuple)> = chains
        .iter()
        .filter_map(|q| {
            let relation = q.relations().first()?;
            let tuple = tuples.iter().find(|t| t.relation_name() == relation)?;
            Some((q, catalog.schema(relation)?, tuple))
        })
        .collect();
    out.push((
        "query.compile_ns",
        cycling(slice, |i| {
            let (query, schema, _) = triggers[i % triggers.len()];
            drop(black_box(compile_subjoin(query, schema)));
        }),
    ));
    out.push((
        "query.rewrite_ns",
        cycling(slice, |i| {
            let (query, schema, tuple) = triggers[i % triggers.len()];
            drop(black_box(rewrite(query, tuple, schema)));
        }),
    ));
    let schemas: Vec<&Schema> =
        tuples.iter().map(|t| catalog.schema(t.relation()).expect("generated relation")).collect();
    out.push((
        "query.tuple_index_keys_ns",
        cycling(slice, |i| {
            let j = i % tuples.len();
            drop(black_box(tuple_index_keys(&tuples[j], schemas[j])));
        }),
    ));

    // ---- relation -------------------------------------------------------
    out.push((
        "relation.validate_tuple_ns",
        cycling(slice, |i| drop(black_box(catalog.validate_tuple(&tuples[i % tuples.len()])))),
    ));

    // ---- dht ------------------------------------------------------------
    let key_texts: Vec<Arc<str>> = tuples
        .iter()
        .zip(&schemas)
        .flat_map(|(t, s)| tuple_index_keys(t, s))
        .map(|k| Arc::from(k.to_key_string()))
        .take(4_096)
        .collect();
    out.push((
        "dht.key_hash_ns",
        cycling(slice, |i| {
            drop(black_box(HashedKey::new(Arc::clone(&key_texts[i % key_texts.len()]))))
        }),
    ));
    let key_ids: Vec<Id> = key_texts.iter().map(|t| HashedKey::new(Arc::clone(t)).id()).collect();
    let mut network: Network<u64> = Network::new(NetworkConfig::default());
    let ring = network.bootstrap(RING_NODES, "rjoin-node");
    let mut hops = 0u64;
    let mut lookups = 0u64;
    out.push((
        "dht.lookup_ns",
        cycling(slice, |i| {
            let from = ring[i % ring.len()];
            if let Ok(result) = network.dht_mut().lookup(from, key_ids[i % key_ids.len()]) {
                hops += result.hops() as u64;
                lookups += 1;
            }
        }),
    ));
    out.push(("dht.lookup_hops", hops as f64 / lookups.max(1) as f64));

    // ---- net ------------------------------------------------------------
    out.push((
        "net.send_pop_ns",
        cycling(slice, |i| {
            let sent = network.send(ring[i % ring.len()], key_ids[i % key_ids.len()], i as u64, 0);
            drop(black_box((sent, network.pop_tick())));
        }),
    ));

    // ---- transport ------------------------------------------------------
    let view = ClusterView::new(
        (0..4)
            .map(|i| Member::new(format!("rjoin-node-{i}"), format!("127.0.0.1:{}", 9_000 + i)))
            .collect(),
        Vec::new(),
    );
    out.push((
        "transport.view_lookup_ns",
        cycling(slice, |i| drop(black_box(view.successor_of(key_ids[i % key_ids.len()])))),
    ));
    let frames = representative_frames(&chains, &tuples, &schemas);
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    for frame in &frames {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).expect("in-memory frame");
        encoded.push(bytes);
    }
    out.push((
        "transport.frame_bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64,
    ));
    let mut buffer = Vec::with_capacity(4_096);
    out.push((
        "transport.encode_ns",
        cycling(slice, |i| {
            buffer.clear();
            drop(black_box(write_frame(&mut buffer, &frames[i % frames.len()])));
        }),
    ));
    out.push((
        "transport.decode_ns",
        cycling(slice, |i| {
            let mut bytes = encoded[i % encoded.len()].as_slice();
            drop(black_box(read_frame::<_, ServiceMessage>(&mut bytes)));
        }),
    ));

    // ---- core: a bare node state, no routing, no queue -------------------
    let (tuple_ns, eval_ns) =
        node_state_probe(&catalog, &config, &chains, &tuples, &schemas, slice * 3);
    out.push(("core.node_tuple_ns", tuple_ns));
    out.push(("core.node_eval_ns", eval_ns));
    let (ratio, cross_share) = shard_drain_probe(seed, slice * 3);
    out.push(("core.shard2_drain_ratio", ratio));
    out.push(("core.shard2_cross_shard_share", cross_share));
    out
}

/// One `NewTuple`, one `Eval` and one `Answer` engine frame per input, the
/// three kinds that make up a stream phase's wire traffic.
fn representative_frames(
    chains: &[JoinQuery],
    tuples: &[Tuple],
    schemas: &[&Schema],
) -> Vec<ServiceMessage> {
    let owner = Id::hash_key("rjoin-client");
    let mut frames = Vec::new();
    for (i, query) in chains.iter().enumerate().take(64) {
        let tuple = &tuples[i];
        let key = tuple_index_keys(tuple, schemas[i]).swap_remove(0);
        let level = key.level();
        frames.push(RJoinMessage::NewTuple {
            tuple: Arc::new(tuple.clone()),
            key: key.hashed(),
            level,
            publisher: owner,
        });
        let id = QueryId { owner, seq: i as u64 };
        let key = candidate_keys(query).swap_remove(0);
        let level = key.level();
        frames.push(RJoinMessage::Eval {
            pending: PendingQuery::input(id, owner, 0, query.clone()),
            key: key.hashed(),
            level,
            carried_ric: Vec::new(),
        });
        frames.push(RJoinMessage::Answer {
            query: id,
            row: tuple.values()[..2].to_vec(),
            produced_at: tuple.pub_time(),
        });
    }
    frames.into_iter().map(|msg| ServiceMessage::Engine { at: 1, msg }).collect()
}

/// Feeds one [`standalone_node_state`] `NODE_MESSAGES` `IndexQuery`
/// messages, then `NODE_MESSAGES` `NewTuple` messages, then the rewritten
/// queries those produced as `Eval` messages; returns ns per `NewTuple` and
/// ns per query-arrival message (`IndexQuery` + `Eval`), each the median
/// over rounds in fresh states.
fn node_state_probe(
    catalog: &Catalog,
    config: &EngineConfig,
    chains: &[JoinQuery],
    tuples: &[Tuple],
    schemas: &[&Schema],
    budget: Duration,
) -> (f64, f64) {
    let node = Id::hash_key("rjoin-node-0");
    let index_queries: Vec<RJoinMessage> = (0..NODE_MESSAGES)
        .map(|i| {
            let query = &chains[i % chains.len()];
            let key = candidate_keys(query).swap_remove(0);
            let level = key.level();
            let id = QueryId { owner: node, seq: i as u64 };
            RJoinMessage::IndexQuery {
                pending: PendingQuery::input(id, node, 0, query.clone()),
                key: key.hashed(),
                level,
            }
        })
        .collect();
    let new_tuples: Vec<RJoinMessage> = tuples
        .iter()
        .zip(schemas)
        .flat_map(|(tuple, schema)| {
            let shared = Arc::new(tuple.clone());
            tuple_index_keys(tuple, schema).into_iter().map(move |key| {
                let level = key.level();
                RJoinMessage::NewTuple {
                    tuple: Arc::clone(&shared),
                    key: key.hashed(),
                    level,
                    publisher: node,
                }
            })
        })
        .take(NODE_MESSAGES)
        .collect();

    let mut tuple_ns = Vec::new();
    let mut eval_ns = Vec::new();
    let started = Instant::now();
    while tuple_ns.len() < 5 || started.elapsed() < budget {
        let mut state = standalone_node_state(node, config);
        let (queries, arrivals) = (index_queries.clone(), new_tuples.clone());
        let mut at = 1;
        let mut feed = |messages: Vec<RJoinMessage>| {
            let count = messages.len().max(1);
            let mut reindexed = Vec::new();
            let start = Instant::now();
            for msg in messages {
                at += 1;
                let effect = handle_node_msg(&mut state, catalog, config, at, at, node, msg);
                if let TickEffect::Node { actions, .. } = effect {
                    reindexed.extend(actions);
                }
            }
            (start.elapsed().as_nanos() as f64, count, reindexed)
        };
        let (index_time, index_count, _) = feed(queries);
        let (tuple_time, tuple_count, actions) = feed(arrivals);
        let evals: Vec<RJoinMessage> = actions
            .into_iter()
            .filter_map(|action| match action {
                Action::Reindex { pending } => {
                    let key = candidate_keys(&pending.query).into_iter().next()?;
                    let level = key.level();
                    Some(RJoinMessage::Eval {
                        pending: *pending,
                        key: key.hashed(),
                        level,
                        carried_ric: Vec::new(),
                    })
                }
                Action::DeliverAnswer { .. } => None,
            })
            .take(NODE_MESSAGES)
            .collect();
        let (eval_time, eval_count, _) = feed(evals);
        tuple_ns.push(tuple_time / tuple_count as f64);
        eval_ns.push((index_time + eval_time) / (index_count + eval_count) as f64);
    }
    (median(&tuple_ns), median(&eval_ns))
}

/// One burst-published reduced `paper_4way` epoch drained once through the
/// single queue and once through two shards: the time ratio (sharded ÷
/// single) and the share of deliveries that crossed a shard boundary. The
/// only place the sharded driver is timed — two cores cannot carry it as an
/// end-to-end workload.
fn shard_drain_probe(seed: u64, budget: Duration) -> (f64, f64) {
    let scenario =
        Scenario { nodes: 256, queries: 500, tuples: 100, seed, ..Scenario::paper_default() };
    let catalog = scenario.workload_schema().build_catalog();
    let queries = scenario.generate_queries();
    let drain = |shards: usize| {
        let config = EngineConfig::default().with_altt(ALTT_WHOLE_RUN).with_shards(shards);
        let mut engine = RJoinEngine::simulated(config, catalog.clone(), scenario.nodes);
        let origins = engine.node_ids().to_vec();
        for (i, query) in queries.iter().enumerate() {
            engine.submit_query(origins[i % origins.len()], query.clone()).expect("probe query");
        }
        engine.run_until_quiescent().expect("probe install");
        for (i, tuple) in scenario.generate_tuples(engine.now() + 1).into_iter().enumerate() {
            engine.publish_tuple(origins[i % origins.len()], tuple).expect("probe tuple");
        }
        let start = Instant::now();
        if shards == 1 {
            engine.run_until_quiescent().expect("probe drain");
        } else {
            engine.run_until_quiescent_parallel().expect("probe drain");
        }
        let seconds = secs(start.elapsed());
        let stats = engine.stats();
        let deliveries = (stats.intra_shard_messages + stats.cross_shard_messages).max(1);
        (seconds, stats.cross_shard_messages as f64 / deliveries as f64)
    };
    let mut ratios = Vec::new();
    let mut cross_share = 0.0;
    let started = Instant::now();
    while ratios.len() < 3 || started.elapsed() < budget {
        let (single, _) = drain(1);
        let (sharded, share) = drain(2);
        ratios.push(sharded / single);
        cross_share = share;
    }
    (median(&ratios), cross_share)
}
