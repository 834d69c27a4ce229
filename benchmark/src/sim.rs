//! The three simulator workloads: `paper_4way`, `window_scale`,
//! `cyclic_triangle`.
//!
//! One closed-loop client drives a fresh [`RJoinEngine`] per epoch: submit
//! the standing queries, drain, then publish one *publication unit* (one
//! tuple, or one micro-batch equal to the window on windowed workloads),
//! drain to quiescence, and only then publish the next. Everything the
//! clock sees is a call into the engine; generation, stamping, reference
//! evaluation and verification happen between or after the timed calls.

use crate::harness::{Epoch, Raw, Workload, ALTT_WHOLE_RUN};
use crate::measure::secs;
use crate::reference::{self, Tally, Time};
use crate::trace::Tracer;
use rjoin::core::traffic_class;
use rjoin::prelude::*;
use rjoin::relation::Tuple;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub struct SimWorkload {
    name: &'static str,
    /// The scenario of one epoch, from `(seed, tuples)`.
    scenario: fn(u64, usize) -> Scenario,
    config: fn() -> EngineConfig,
    /// `Some(k)`: the queries share `k` sub-join patterns.
    patterns: Option<usize>,
    /// Tuples per publication unit.
    unit: usize,
    /// Windowed workloads publish micro-batches equal to the window and
    /// stamp each batch `now + 1 ..` at the batch boundary: with per-tuple
    /// drains (or pre-stamped times) the simulated clock outruns the
    /// publication times and windowed state expires early (recall 0.32 /
    /// 0.9998 while sizing).
    windowed: bool,
    /// Percentage of the queries submitted interleaved with the stream,
    /// `late_per_unit` before each unit, instead of up front.
    late_pct: usize,
    late_per_unit: usize,
    epoch_tuples: usize,
}

/// The paper's Section 8 default shape: 10×10×100 schema, θ = 0.9, 4-way
/// chain joins, no windows; one tuple per publication unit.
pub fn paper_4way(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "paper_4way",
        scenario: |seed, tuples| Scenario {
            nodes: 256,
            queries: 2_000,
            tuples,
            seed,
            ..Scenario::paper_default()
        },
        config: || EngineConfig::default().with_altt(ALTT_WHOLE_RUN),
        patterns: None,
        unit: 1,
        windowed: false,
        late_pct: 0,
        late_per_unit: 0,
        epoch_tuples: if smoke { 100 } else { 200 },
    }
}

/// `Scenario::scale_test()` cut to 256 nodes / 2 000 overlapping queries
/// over 40 sub-join patterns, sliding 64-tuple windows, sharing and a
/// 256-tick ALTT on (the configuration of the `scale/engine` trajectory);
/// the last 20 % of the queries arrive interleaved with the stream.
pub fn window_scale(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "window_scale",
        scenario: |seed, tuples| Scenario {
            nodes: 256,
            queries: 2_000,
            tuples,
            seed,
            ..Scenario::scale_test()
        },
        config: || EngineConfig::default().with_subjoin_sharing(true).with_altt(256),
        patterns: Some(40),
        unit: 64,
        windowed: true,
        late_pct: 20,
        late_per_unit: 10,
        epoch_tuples: if smoke { 64 * 24 } else { 64 * 128 },
    }
}

/// `Scenario::cyclic_test()` shape with domain 8: triangle queries the
/// planner routes to the hypercube, sliding 32-tuple windows.
pub fn cyclic_triangle(smoke: bool) -> SimWorkload {
    SimWorkload {
        name: "cyclic_triangle",
        scenario: |seed, tuples| Scenario {
            nodes: 64,
            queries: 60,
            tuples,
            domain: 8,
            window: WindowSpec::sliding_tuples(32),
            seed,
            ..Scenario::cyclic_test()
        },
        config: EngineConfig::default,
        patterns: None,
        unit: 32,
        windowed: true,
        late_pct: 0,
        late_per_unit: 0,
        epoch_tuples: if smoke { 32 * 16 } else { 32 * 64 },
    }
}

/// A fresh engine with the up-front queries installed and drained.
struct SetUp {
    engine: RJoinEngine,
    /// Engine query id → index into the epoch's query list.
    query_index: HashMap<QueryId, usize>,
    insert_times: Vec<Time>,
    seconds: f64,
    errors: u64,
}

impl SimWorkload {
    fn queries(&self, scenario: &Scenario) -> Vec<JoinQuery> {
        match self.patterns {
            Some(patterns) => scenario.generate_overlapping_queries(patterns),
            None => scenario.generate_queries(),
        }
    }

    fn upfront(&self, queries: usize) -> usize {
        queries - queries * self.late_pct / 100
    }

    fn set_up(
        &self,
        scenario: &Scenario,
        upfront: &[JoinQuery],
        request: u64,
        tracer: Option<&mut Tracer>,
    ) -> SetUp {
        let catalog = scenario.workload_schema().build_catalog();
        let mut query_index = HashMap::with_capacity(scenario.queries);
        let mut insert_times = Vec::with_capacity(scenario.queries);
        let mut errors = 0;
        let submissions: Vec<JoinQuery> = upfront.to_vec();

        let start = Instant::now();
        let mut engine = RJoinEngine::simulated((self.config)(), catalog, scenario.nodes);
        let booted = Instant::now();
        let origins = engine.node_ids().to_vec();
        for (i, query) in submissions.into_iter().enumerate() {
            insert_times.push(engine.now());
            match engine.submit_query(origins[i % origins.len()], query) {
                Ok(id) => {
                    query_index.insert(id, i);
                }
                Err(_) => errors += 1,
            }
        }
        let submitted = Instant::now();
        if engine.run_until_quiescent().is_err() {
            errors += 1;
        }
        let end = Instant::now();

        if let Some(tracer) = tracer {
            let parent = tracer.open("setup", request, start);
            tracer.record("core.bootstrap", request, Some(parent), start, booted);
            tracer.record("core.submit_queries", request, Some(parent), booted, submitted);
            tracer.record("core.install_drain", request, Some(parent), submitted, end);
            tracer.close(parent, end);
        }
        SetUp { engine, query_index, insert_times, seconds: secs(end - start), errors }
    }
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn epoch_tuples(&self) -> usize {
        self.epoch_tuples
    }

    fn setup_sample(&self, seed: u64) -> f64 {
        let scenario = (self.scenario)(seed, 0);
        let queries = self.queries(&scenario);
        self.set_up(&scenario, &queries[..self.upfront(queries.len())], 0, None).seconds
    }

    fn epoch(
        &self,
        seed: u64,
        tuples: usize,
        latencies: &mut Vec<f64>,
        mut tracer: Option<&mut Tracer>,
    ) -> Epoch {
        let mut raw = Raw::default();

        // ---- inputs, materialised before any clock starts ---------------
        let generating = Instant::now();
        let scenario = (self.scenario)(seed, tuples);
        let queries = self.queries(&scenario);
        let values = scenario.generate_tuples(0);
        raw.add("generate_ns", generating.elapsed().as_nanos() as f64);
        let upfront = self.upfront(queries.len());

        // ---- set-up -----------------------------------------------------
        let mark = tracer.as_deref().map_or(0, Tracer::mark);
        let request_base = (seed & 0xffff_ffff) << 32;
        let SetUp { mut engine, mut query_index, mut insert_times, seconds: setup_s, mut errors } =
            self.set_up(&scenario, &queries[..upfront], request_base, tracer.as_deref_mut());

        // ---- stream -----------------------------------------------------
        let origins = engine.node_ids().to_vec();
        let mut published: Vec<Tuple> = Vec::with_capacity(values.len());
        let mut unit_buf: Vec<Tuple> = Vec::with_capacity(self.unit);
        let mut late_buf: Vec<JoinQuery> = Vec::with_capacity(self.late_per_unit);
        let mut next_late = upfront;
        let mut answers_seen = engine.answers().len();
        let msgs_before = engine.traffic().total_sent();
        let ric_before = engine.traffic().total_sent_class(traffic_class::RIC);
        let stream_base = engine.now() + 1;
        let mut stream = Duration::ZERO;

        for (u, chunk) in values.chunks(self.unit).enumerate() {
            // Untimed: stamp this unit and stage the late submissions.
            let first = u * self.unit;
            let base = if self.windowed { engine.now() + 1 } else { stream_base + first as u64 };
            unit_buf
                .extend(chunk.iter().enumerate().map(|(i, t)| t.with_pub_time(base + i as u64)));
            published.extend(unit_buf.iter().cloned());
            let late_end = (next_late + self.late_per_unit).min(queries.len());
            late_buf.extend(queries[next_late..late_end].iter().cloned());
            let request = request_base | (u as u64 + 1);

            let unit_start = Instant::now();
            let unit_span = tracer.as_deref_mut().map(|t| t.open("unit", request, unit_start));
            for query in late_buf.drain(..) {
                let start = tracer.is_some().then(Instant::now);
                insert_times.push(engine.now());
                match engine.submit_query(origins[next_late % origins.len()], query) {
                    Ok(id) => {
                        query_index.insert(id, next_late);
                    }
                    Err(_) => errors += 1,
                }
                next_late += 1;
                if let (Some(tracer), Some(start)) = (tracer.as_deref_mut(), start) {
                    tracer.record("core.submit_query", request, unit_span, start, Instant::now());
                }
            }
            for (i, tuple) in unit_buf.drain(..).enumerate() {
                let start = tracer.is_some().then(Instant::now);
                if engine.publish_tuple(origins[(first + i) % origins.len()], tuple).is_err() {
                    errors += 1;
                }
                if let (Some(tracer), Some(start)) = (tracer.as_deref_mut(), start) {
                    tracer.record("core.publish_tuple", request, unit_span, start, Instant::now());
                }
            }
            let drain_start = tracer.is_some().then(Instant::now);
            if engine.run_until_quiescent().is_err() {
                errors += 1;
            }
            let unit_end = Instant::now();

            stream += unit_end - unit_start;
            let seen = engine.answers().len();
            if seen > answers_seen {
                latencies.push(secs(unit_end - unit_start) * 1e3);
                answers_seen = seen;
            }
            if let (Some(tracer), Some(start), Some(unit)) =
                (tracer.as_deref_mut(), drain_start, unit_span)
            {
                tracer.record("core.run_until_quiescent", request, unit_span, start, unit_end);
                tracer.close(unit, unit_end);
            }
        }
        let msgs = engine.traffic().total_sent() - msgs_before;
        let ric_msgs = engine.traffic().total_sent_class(traffic_class::RIC) - ric_before;

        // ---- verify against the reference (untimed) ---------------------
        let mut tally = Tally::new(queries.len());
        let mut unknown = 0u64;
        for record in engine.answers().records() {
            match query_index.get(&record.query) {
                Some(&q) => tally.record(q, &record.row),
                None => unknown += 1,
            }
        }
        let stats = engine.stats();
        let catalog = engine.catalog().clone();
        drop(engine);
        let evaluating = Instant::now();
        let timed_queries: Vec<(JoinQuery, Time)> = queries.into_iter().zip(insert_times).collect();
        let expected = reference::evaluate(&catalog, &timed_queries, &published, self.unit);
        raw.add("reference_ns", evaluating.elapsed().as_nanos() as f64);
        let mut verdict = reference::verify(&expected, &tally);
        verdict.spurious += unknown;

        // ---- per-layer raw observations ---------------------------------
        raw.add("epochs", 1.0);
        raw.add("tuples", published.len() as f64);
        raw.add("upfront_queries", upfront as f64);
        raw.add("stream_ns", stream.as_nanos() as f64);
        raw.add("msgs", msgs as f64);
        raw.add("ric_msgs", ric_msgs as f64);
        if let Some(tracer) = tracer.as_deref() {
            for (key, span) in [
                ("setup_submit_ns", "core.submit_queries"),
                ("install_drain_ns", "core.install_drain"),
                ("publish_ns", "core.publish_tuple"),
                ("drain_ns", "core.run_until_quiescent"),
            ] {
                raw.add(key, tracer.total_ns_since(mark, span) as f64);
            }
        }
        raw.add("qpl", stats.qpl_total as f64);
        raw.add("qpl_max", stats.qpl.max() as f64);
        raw.add("qpl_gini", stats.qpl.gini());
        raw.add("sl", stats.sl_total as f64);
        raw.add("answers", stats.answers as f64);
        raw.add("stored_queries_end", stats.stored_queries_current as f64);
        raw.add("probe_candidates", stats.probe.candidates_probed as f64);
        raw.add("probe_residual", stats.probe.residual_probed as f64);
        raw.add("probe_bucket_len", stats.probe.bucket_len_total as f64);
        raw.add("compile_programs", stats.compile.programs_compiled as f64);
        raw.add("compile_hits", stats.compile.cache_hits as f64);
        raw.add("compile_eval_ns", stats.compile.eval_nanos as f64);
        raw.peak("queries_high_water", stats.state.query_slab_high_water as f64);
        raw.peak("tuples_high_water", stats.state.tuple_slab_high_water as f64);
        raw.peak("altt_high_water", stats.state.altt_slab_high_water as f64);
        raw.add("wheel_pops", stats.state.wheel_pops as f64);
        raw.add("contact_expirations", stats.state.contact_expirations as f64);
        raw.add("merged_queries", stats.sharing.merged_queries as f64);
        raw.add("evals_saved", stats.sharing.evals_saved as f64);
        raw.add("hypercube_plans", stats.planner.hypercube_plans as f64);
        raw.add("cells_allocated", stats.planner.cells_allocated as f64);
        raw.add("tuple_copies", stats.planner.tuple_copies as f64);

        Epoch {
            setup_s,
            stream_s: secs(stream),
            tuples: published.len() as u64,
            msgs,
            ops_attempted: (timed_queries.len() + published.len()) as u64 + verdict.expected,
            ops_failed: errors + verdict.missing + verdict.spurious,
            verdict,
            raw,
        }
    }

    fn layer_metrics(&self, raw: &Raw) -> Vec<(&'static str, f64)> {
        let per_tuple = |key: &str| raw.ratio(key, "tuples");
        let per_epoch = |key: &str| raw.ratio(key, "epochs");
        let hit_base = raw.sum("compile_hits") + raw.sum("compile_programs");
        vec![
            ("core.submit_us_per_query", raw.ratio("setup_submit_ns", "upfront_queries") / 1e3),
            ("core.install_drain_ms", per_epoch("install_drain_ns") / 1e6),
            ("core.publish_us_per_tuple", per_tuple("publish_ns") / 1e3),
            ("core.publish_share", raw.ratio("publish_ns", "stream_ns")),
            ("core.drain_us_per_tuple", per_tuple("drain_ns") / 1e3),
            ("core.qpl_per_tuple", per_tuple("qpl")),
            ("core.sl_per_tuple", per_tuple("sl")),
            ("core.answers_per_tuple", per_tuple("answers")),
            ("core.qpl_max_node_share", raw.ratio("qpl_max", "qpl")),
            ("core.qpl_gini", per_epoch("qpl_gini")),
            ("core.stored_queries_end", per_epoch("stored_queries_end")),
            ("core.probe.candidates_per_tuple", per_tuple("probe_candidates")),
            ("core.probe.selectivity", raw.ratio("probe_candidates", "probe_bucket_len")),
            ("core.probe.residual_share", raw.ratio("probe_residual", "probe_candidates")),
            (
                "core.compile.cache_hit_ratio",
                if hit_base == 0.0 { 0.0 } else { raw.sum("compile_hits") / hit_base },
            ),
            ("core.compile.eval_us_per_tuple", per_tuple("compile_eval_ns") / 1e3),
            ("core.state.queries_high_water", raw.peak_of("queries_high_water")),
            ("core.state.tuples_high_water", raw.peak_of("tuples_high_water")),
            ("core.state.altt_high_water", raw.peak_of("altt_high_water")),
            ("core.expiry.wheel_pops_per_tuple", per_tuple("wheel_pops")),
            ("core.expiry.contact_expirations_per_tuple", per_tuple("contact_expirations")),
            ("core.sharing.merged_per_tuple", per_tuple("merged_queries")),
            ("core.sharing.evals_saved_per_tuple", per_tuple("evals_saved")),
            ("core.planner.cells_per_query", raw.ratio("cells_allocated", "hypercube_plans")),
            ("core.planner.tuple_copies_per_tuple", per_tuple("tuple_copies")),
            ("net.msgs_per_tuple", per_tuple("msgs")),
            ("net.ric_msgs_per_tuple", per_tuple("ric_msgs")),
            ("workload.generate_ms", per_epoch("generate_ns") / 1e6),
            ("bench.reference_s", per_epoch("reference_ns") / 1e9),
        ]
    }
}
