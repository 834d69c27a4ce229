//! The `tcp_stream` workload: `paper_4way`'s scenario shape and
//! configuration on a loopback [`Cluster`] of four in-process node
//! processes.
//!
//! One client thread publishes tuple by tuple and waits only on the tuples
//! the reference says complete answers, polling [`Cluster::rows_for`] until
//! the reference's cumulative count is visible. The workload is window-less
//! (the regime `tests/net_replay.rs` pins): windowed queries over TCP lose a
//! timing-dependent 1–4 % of their answers today.

use crate::harness::{Epoch, Raw, Workload, ALTT_WHOLE_RUN};
use crate::measure::{percentile, secs};
use crate::reference::{self, Expected, Tally, Time};
use crate::trace::Tracer;
use rjoin::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Publication times start far above any tick the service clocks reach in
/// an epoch (100 ms ticks), so every tuple is newer than every query.
const PUB_BASE: Time = 100_000;
/// A publication unit whose answers are not visible after this long has
/// failed.
const UNIT_TIMEOUT: Duration = Duration::from_secs(5);
const POLL_INTERVAL: Duration = Duration::from_micros(100);

pub struct TcpWorkload {
    nodes: usize,
    queries: usize,
    epoch_tuples: usize,
}

pub fn tcp_stream(smoke: bool) -> TcpWorkload {
    TcpWorkload { nodes: 4, queries: 200, epoch_tuples: if smoke { 100 } else { 300 } }
}

/// Per-node counters summed over the cluster.
#[derive(Default, Clone, Copy)]
struct NodeTotals {
    processed: u64,
    truncated: u64,
    malformed: u64,
    dispatch_errors: u64,
}

fn node_totals(cluster: &Cluster) -> NodeTotals {
    let mut totals = NodeTotals::default();
    for id in cluster.node_ids() {
        if let Some(stats) = cluster.node_stats(id) {
            totals.processed += stats.processed.load(Ordering::Relaxed);
            totals.truncated += stats.truncated_frames.load(Ordering::Relaxed);
            totals.malformed += stats.malformed_frames.load(Ordering::Relaxed);
            totals.dispatch_errors += stats.dispatch_errors.load(Ordering::Relaxed);
        }
    }
    totals
}

/// A launched cluster with every query installed and settled.
struct SetUp {
    cluster: Cluster,
    /// Per submitted query, in order; `None` where the submission failed.
    query_ids: Vec<Option<QueryId>>,
    seconds: f64,
    errors: u64,
}

impl TcpWorkload {
    fn scenario(&self, seed: u64, tuples: usize) -> Scenario {
        Scenario {
            nodes: self.nodes,
            queries: self.queries,
            tuples,
            seed,
            ..Scenario::paper_default()
        }
    }

    fn set_up(
        &self,
        scenario: &Scenario,
        queries: &[JoinQuery],
        request: u64,
        tracer: Option<&mut Tracer>,
    ) -> Result<SetUp, TransportError> {
        let catalog = scenario.workload_schema().build_catalog();
        let config = EngineConfig::default().with_altt(ALTT_WHOLE_RUN);
        let submissions = queries.to_vec();
        let mut errors = 0;

        let start = Instant::now();
        let mut cluster =
            Cluster::launch(config, catalog, scenario.nodes, ClusterConfig::default())?;
        let launched = Instant::now();
        let query_ids: Vec<Option<QueryId>> =
            submissions.into_iter().map(|q| cluster.submit_query(q).ok()).collect();
        errors += query_ids.iter().filter(|id| id.is_none()).count() as u64;
        cluster.settle()?;
        let end = Instant::now();

        if let Some(tracer) = tracer {
            let parent = tracer.open("setup", request, start);
            tracer.record("transport.launch", request, Some(parent), start, launched);
            tracer.record("transport.install", request, Some(parent), launched, end);
            tracer.close(parent, end);
        }
        Ok(SetUp { cluster, query_ids, seconds: secs(end - start), errors })
    }

    /// Streams the tuples through a set-up cluster and returns the stream
    /// wall time and the number of timed-out units. Everything that can
    /// fail with a transport error lives here, so the caller can always
    /// shut the cluster down.
    fn stream(
        set_up: &mut SetUp,
        tuples: Vec<Tuple>,
        expected: &Expected,
        request_base: u64,
        latencies: &mut Vec<f64>,
        mut tracer: Option<&mut Tracer>,
        raw: &mut Raw,
    ) -> Result<(Duration, u64), TransportError> {
        let SetUp { cluster, query_ids, .. } = set_up;
        let mut cumulative = vec![0usize; query_ids.len()];
        let mut waits_us = Vec::with_capacity(if tracer.is_some() { tuples.len() } else { 0 });
        let mut timeouts = 0u64;
        let stream_start = Instant::now();
        for (u, tuple) in tuples.into_iter().enumerate() {
            let request = request_base | (u as u64 + 1);
            let unit_start = Instant::now();
            let unit_span = tracer.as_deref_mut().map(|t| t.open("unit", request, unit_start));
            cluster.publish_tuple(tuple)?;
            let published = Instant::now();
            // Wait only when the reference says this tuple completes answers.
            let completes = &expected.per_unit[u];
            let deadline = unit_start + UNIT_TIMEOUT;
            let mut visible = true;
            for &(q, count) in completes {
                let q = q as usize;
                cumulative[q] += count as usize;
                let Some(id) = query_ids[q] else { continue };
                while visible && cluster.rows_for(id).len() < cumulative[q] {
                    if Instant::now() >= deadline {
                        visible = false;
                    } else {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
            }
            let unit_end = if completes.is_empty() { published } else { Instant::now() };
            if !visible {
                timeouts += 1;
            } else if !completes.is_empty() {
                latencies.push(secs(unit_end - unit_start) * 1e3);
            }
            if let (Some(tracer), Some(unit)) = (tracer.as_deref_mut(), unit_span) {
                tracer.record("transport.publish_tuple", request, unit_span, unit_start, published);
                if !completes.is_empty() {
                    tracer.record("transport.answer_wait", request, unit_span, published, unit_end);
                    waits_us.push(secs(unit_end - published) * 1e6);
                }
                tracer.close(unit, unit_end);
            }
        }
        let settling = Instant::now();
        cluster.settle()?;
        let stream_end = Instant::now();
        if let Some(tracer) = tracer {
            // Medians do not pool across epochs; keep each epoch's and
            // average them.
            raw.add("wait_p50_us", percentile(&waits_us, 50.0));
            tracer.record("transport.settle", request_base, None, settling, stream_end);
            raw.add("settle_ns", (stream_end - settling).as_nanos() as f64);
            // A settle on an idle cluster: the barrier's own floor.
            cluster.settle()?;
            let idle_end = Instant::now();
            tracer.record("transport.settle_idle", request_base, None, stream_end, idle_end);
            raw.add("settle_idle_ns", (idle_end - stream_end).as_nanos() as f64);
        }
        Ok((stream_end - stream_start, timeouts))
    }
}

impl Workload for TcpWorkload {
    fn name(&self) -> &'static str {
        "tcp_stream"
    }

    fn epoch_tuples(&self) -> usize {
        self.epoch_tuples
    }

    fn setup_sample(&self, seed: u64) -> f64 {
        let scenario = self.scenario(seed, 0);
        let set_up = self
            .set_up(&scenario, &scenario.generate_queries(), 0, None)
            .expect("loopback cluster set-up");
        set_up.cluster.shutdown();
        set_up.seconds
    }

    fn epoch(
        &self,
        seed: u64,
        tuples: usize,
        latencies: &mut Vec<f64>,
        mut tracer: Option<&mut Tracer>,
    ) -> Epoch {
        let mut raw = Raw::default();

        // ---- inputs and the expectation that drives the answer wait -----
        let generating = Instant::now();
        let scenario = self.scenario(seed, tuples);
        let queries = scenario.generate_queries();
        let stream = scenario.generate_tuples(PUB_BASE);
        raw.add("generate_ns", generating.elapsed().as_nanos() as f64);
        let evaluating = Instant::now();
        let catalog = scenario.workload_schema().build_catalog();
        let timed_queries: Vec<(JoinQuery, Time)> =
            queries.iter().cloned().map(|q| (q, 0)).collect();
        let expected = reference::evaluate(&catalog, &timed_queries, &stream, 1);
        raw.add("reference_ns", evaluating.elapsed().as_nanos() as f64);

        // ---- set-up -----------------------------------------------------
        let mark = tracer.as_deref().map_or(0, Tracer::mark);
        let request_base = (seed & 0xffff_ffff) << 32;
        let mut set_up = self
            .set_up(&scenario, &queries, request_base, tracer.as_deref_mut())
            .expect("loopback cluster set-up");

        // ---- stream -----------------------------------------------------
        let before = node_totals(&set_up.cluster);
        let published = stream.len() as u64;
        let streamed = Self::stream(
            &mut set_up,
            stream,
            &expected,
            request_base,
            latencies,
            tracer.as_deref_mut(),
            &mut raw,
        );
        let SetUp { cluster, query_ids, seconds: setup_s, mut errors } = set_up;
        let after = node_totals(&cluster);
        let log = cluster.answers();
        cluster.shutdown();
        let (stream_time, timeouts) = streamed.unwrap_or_else(|_| {
            errors += 1;
            (Duration::ZERO, 0)
        });

        // ---- verify (untimed) -------------------------------------------
        let query_index: HashMap<QueryId, usize> =
            query_ids.iter().enumerate().filter_map(|(q, id)| Some(((*id)?, q))).collect();
        let mut tally = Tally::new(queries.len());
        let mut unknown = 0u64;
        for record in log.records() {
            match query_index.get(&record.query) {
                Some(&q) => tally.record(q, &record.row),
                None => unknown += 1,
            }
        }
        let mut verdict = reference::verify(&expected, &tally);
        verdict.spurious += unknown;
        // Node-processed frames plus the answer frames the client received.
        let msgs = after.processed - before.processed + log.len() as u64;

        raw.add("epochs", 1.0);
        raw.add("tuples", published as f64);
        raw.add("frames", msgs as f64);
        raw.add("malformed", after.malformed as f64);
        raw.add("truncated", after.truncated as f64);
        raw.add("dispatch_errors", after.dispatch_errors as f64);
        if let Some(tracer) = tracer.as_deref() {
            for (key, span) in [
                ("launch_ns", "transport.launch"),
                ("install_ns", "transport.install"),
                ("publish_ns", "transport.publish_tuple"),
            ] {
                raw.add(key, tracer.total_ns_since(mark, span) as f64);
            }
        }

        Epoch {
            setup_s,
            stream_s: secs(stream_time),
            tuples: published,
            msgs,
            ops_attempted: queries.len() as u64 + published + verdict.expected,
            ops_failed: errors + timeouts + verdict.missing + verdict.spurious,
            verdict,
            raw,
        }
    }

    fn layer_metrics(&self, raw: &Raw) -> Vec<(&'static str, f64)> {
        let per_epoch = |key: &str| raw.ratio(key, "epochs");
        vec![
            ("transport.launch_ms", per_epoch("launch_ns") / 1e6),
            ("transport.install_ms", per_epoch("install_ns") / 1e6),
            ("transport.publish_us_per_tuple", raw.ratio("publish_ns", "tuples") / 1e3),
            ("transport.answer_wait_us_p50", per_epoch("wait_p50_us")),
            ("transport.settle_ms", per_epoch("settle_ns") / 1e6),
            ("transport.settle_idle_ms", per_epoch("settle_idle_ns") / 1e6),
            ("transport.frames_per_tuple", raw.ratio("frames", "tuples")),
            ("transport.malformed_frames", raw.sum("malformed")),
            ("transport.truncated_frames", raw.sum("truncated")),
            ("transport.dispatch_errors", raw.sum("dispatch_errors")),
            ("workload.generate_ms", per_epoch("generate_ns") / 1e6),
            ("bench.reference_s", per_epoch("reference_ns") / 1e9),
        ]
    }
}
