//! The repo benchmark: four workloads, reference-checked answers, and an
//! outside-in per-layer trace. See `benchmark/README.md`.
//!
//! ```text
//! rjoin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rjoin-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]   # all four, one child process each
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics.

mod harness;
mod measure;
mod metrics;
mod probes;
mod reference;
mod sim;
mod tcp;
mod trace;

use harness::{Epoch, Raw, Workload};
use measure::{median, peak_rss_mb, percentile, Calibration};
use reference::Verdict;
use serde_json::Value as Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Cold set-ups timed before the first epoch. A single set-up is 1–25 ms and
/// swings ±15 %, so a run takes the median of many: these, a few more after
/// every epoch (spread over the run, so one slow stretch of the machine
/// cannot colour them all), and the epochs' own.
const SETUP_SAMPLES_UP_FRONT: usize = 16;
/// After each epoch: at least this many set-ups, more while they fit the
/// time slice (cheap set-ups get hundreds of samples for free).
const SETUP_SAMPLES_PER_EPOCH: usize = 2;
const SETUP_SLICE_PER_EPOCH: Duration = Duration::from_millis(50);
/// No new epoch starts after this much process wall time, whatever
/// `--seconds` says (the caller's per-run limit is 180 s).
const WALL_CAP: Duration = Duration::from_secs(120);
/// Share of `--seconds` a traced run spends on epoch pairs / on probes.
const TRACE_EPOCH_SHARE: f64 = 0.5;
const TRACE_PROBE_SHARE: f64 = 0.4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 15.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn workload(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_4way" => Box::new(sim::paper_4way(smoke)),
        "window_scale" => Box::new(sim::window_scale(smoke)),
        "cyclic_triangle" => Box::new(sim::cyclic_triangle(smoke)),
        "tcp_stream" => Box::new(tcp::tcp_stream(smoke)),
        _ => return None,
    })
}

/// Totals over the epochs of one run.
#[derive(Default)]
struct Totals {
    epochs: u64,
    tuples: u64,
    msgs: u64,
    stream_s: f64,
    attempted: u64,
    failed: u64,
    verdict: Verdict,
    setups: Vec<f64>,
}

impl Totals {
    fn add(&mut self, epoch: &Epoch) {
        self.epochs += 1;
        self.tuples += epoch.tuples;
        self.msgs += epoch.msgs;
        self.stream_s += epoch.stream_s;
        self.attempted += epoch.ops_attempted;
        self.failed += epoch.ops_failed;
        self.verdict.merge(&epoch.verdict);
        self.setups.push(epoch.setup_s);
    }
}

/// The result of one workload run, ready to print.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// An untimed reduced-size epoch: faults the allocator's pages in and fills
/// the process-wide caches (interned names, route tables) before any clock
/// that counts starts.
fn warm_up(w: &dyn Workload, seed: u64) {
    let mut scratch = Vec::new();
    w.epoch(seed ^ 0x5741_524d, w.epoch_tuples() / 4, &mut scratch, None);
}

fn run_measured(w: &dyn Workload, args: &Args, started: Instant) -> Report {
    warm_up(w, args.seed);
    let mut totals = Totals::default();
    let mut setup_seed = args.seed.wrapping_mul(1_000);
    let mut sample_setup = |setups: &mut Vec<f64>| {
        setups.push(w.setup_sample(setup_seed));
        setup_seed = setup_seed.wrapping_add(1);
    };
    for _ in 0..if args.smoke { 3 } else { SETUP_SAMPLES_UP_FRONT } {
        sample_setup(&mut totals.setups);
    }
    // Pre-sized: no reallocation inside an epoch's timed region.
    let mut latencies: Vec<f64> = Vec::with_capacity(1 << 16);
    // Per-epoch figures. The machine only ever adds time (the reference box
    // drifts ±10 % over minutes and hiccups within seconds), so the run
    // reports the quartile of its epochs on the fast side — upper for the
    // rate, lower for the latencies — not their mean: the figure moves only
    // when three quarters of the epochs do.
    let (mut rates, mut p50s, mut p95s) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibration = Calibration::new();
    let mut k = 0u64;
    while totals.stream_s < args.seconds && started.elapsed() < WALL_CAP {
        let from = latencies.len();
        calibration.sample();
        let epoch = w.epoch(args.seed.wrapping_add(k), w.epoch_tuples(), &mut latencies, None);
        calibration.sample();
        let rate = epoch.tuples as f64 / epoch.stream_s;
        let (p50, p95) =
            (percentile(&latencies[from..], 50.0), percentile(&latencies[from..], 95.0));
        println!(
            "  epoch {k:>2}: {rate:>9.2} tuples/s  p50 {p50:>8.3} ms  p95 {p95:>8.3} ms  ({} samples)  {:>9.2} msgs/tuple  set-up {:.4} s",
            latencies.len() - from,
            epoch.msgs as f64 / epoch.tuples as f64,
            epoch.setup_s,
        );
        rates.push(rate);
        p50s.push(p50);
        p95s.push(p95);
        totals.add(&epoch);
        k += 1;
        let slice = Instant::now();
        let mut taken = 0;
        while taken < SETUP_SAMPLES_PER_EPOCH
            || (!args.smoke && slice.elapsed() < SETUP_SLICE_PER_EPOCH)
        {
            sample_setup(&mut totals.setups);
            taken += 1;
        }
    }

    let verdict = totals.verdict;
    println!(
        "  epochs {}  tuples {}  set-up samples {}  latency samples {}",
        totals.epochs,
        totals.tuples,
        totals.setups.len(),
        latencies.len()
    );
    println!(
        "  answers expected {}  matched {}  missing {}  spurious {}",
        verdict.expected, verdict.matched, verdict.missing, verdict.spurious
    );
    // As measured, then corrected for the machine's speed during this run.
    let (setup_s, rate) = (median(&totals.setups), percentile(&rates, 75.0));
    let (p50, p95) = (percentile(&p50s, 25.0), percentile(&p95s, 25.0));
    let factor = calibration.factor();
    println!(
        "  machine: calibration median {:.3} ms over {} samples, {factor:.3} x nominal; timings below are divided by it",
        calibration.median_ms(),
        calibration.samples()
    );
    println!(
        "  as measured: setup_s {setup_s:.5}  tuples_per_s {rate:.2}  answer_ms_p50 {p50:.3}  answer_ms_p95 {p95:.3}"
    );
    let values = [
        setup_s / factor,
        rate * factor,
        p50 / factor,
        p95 / factor,
        totals.msgs as f64 / totals.tuples as f64,
        verdict.recall(),
        peak_rss_mb(),
    ];
    Report {
        correct: totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
    }
}

fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("benchmark").join(format!("trace.{workload}.json"))
}

fn run_traced(w: &dyn Workload, args: &Args, started: Instant) -> Report {
    warm_up(w, args.seed);
    let mut tracer = Tracer::new();
    let mut totals = Totals::default();
    let mut pooled = Raw::default();
    let mut overheads = Vec::new();
    let mut scratch: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut calibration = Calibration::new();
    let (mut plain_s, mut plain_tuples) = (0.0, 0u64);
    let mut k = 0u64;
    // Pairs of epochs on identical inputs, one untraced and one traced, in
    // alternating order: the traced one feeds the per-layer numbers, the
    // difference is the overhead.
    while totals.stream_s < args.seconds * TRACE_EPOCH_SHARE && started.elapsed() < WALL_CAP {
        let seed = args.seed.wrapping_add(k);
        calibration.sample();
        let mut run =
            |tracer: Option<&mut Tracer>| w.epoch(seed, w.epoch_tuples(), &mut scratch, tracer);
        let (plain, traced) = if k.is_multiple_of(2) {
            let plain = run(None);
            (plain, run(Some(&mut tracer)))
        } else {
            let traced = run(Some(&mut tracer));
            (run(None), traced)
        };
        overheads.push((traced.stream_s - plain.stream_s) / plain.stream_s * 100.0);
        plain_s += plain.stream_s;
        plain_tuples += plain.tuples;
        pooled.merge(&traced.raw);
        totals.add(&plain);
        totals.add(&traced);
        k += 1;
    }

    let mut values: Vec<(&'static str, f64)> = w.layer_metrics(&pooled);
    values
        .extend(probes::run(args.seed, Duration::from_secs_f64(args.seconds * TRACE_PROBE_SHARE)));
    values.push(("bench.trace_overhead_pct", median(&overheads)));
    calibration.sample();
    values.push(("bench.calibration_ms", calibration.median_ms()));

    let path = trace_path(w.name());
    match tracer.write_json(&path) {
        Ok(()) => println!("  {} spans written to {}", tracer.len(), path.display()),
        Err(e) => println!("  spans not written to {}: {e}", path.display()),
    }
    println!("  epoch pairs {}  tuples per epoch {}", k, w.epoch_tuples());
    let spanned_ns = pooled.sum("publish_ns") + pooled.sum("drain_ns");
    if pooled.sum("drain_ns") > 0.0 && plain_s > 0.0 {
        println!(
            "  publish + drain spans cover {:.1} % of the untraced per-tuple wall time",
            spanned_ns / pooled.sum("tuples") / (plain_s * 1e9 / plain_tuples as f64) * 100.0
        );
    }

    for (name, _) in &values {
        assert!(
            metrics::PER_LAYER.iter().any(|(declared, _)| declared == name),
            "{name} is measured but not declared in metrics::PER_LAYER"
        );
    }
    Report {
        correct: totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics: metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
                (name, unit, value)
            })
            .collect(),
    }
}

fn result_json(report: &Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            let entry = vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Object(entry))
        })
        .collect();
    Json::Object(vec![
        ("correct".to_string(), Json::Bool(report.correct)),
        ("attempted".to_string(), Json::Int(report.attempted as i64)),
        ("failed".to_string(), Json::Int(report.failed as i64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let started = Instant::now();
    let Some(w) = workload(name, args.smoke) else {
        eprintln!("unknown workload {name}; expected one of {:?}", metrics::WORKLOADS);
        return ExitCode::from(2);
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        run_traced(w.as_ref(), args, started)
    } else {
        run_measured(w.as_ref(), args, started)
    };
    for (name, unit, value) in &report.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    println!("  ops_attempted {}  ops_failed {}", report.attempted, report.failed);
    println!("{}", serde_json::to_string(&result_json(&report)).expect("a JSON tree prints"));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: {} of {} operations failed", report.failed, report.attempted);
        ExitCode::FAILURE
    }
}

/// Runs every workload in a fresh child process each and prints one JSON
/// summary of their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut results = Vec::new();
    let mut all_ok = true;
    for name in metrics::WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let output = child.output().expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        all_ok &= output.status.success();
        let result = stdout.lines().last().and_then(|line| serde_json::parse(line).ok());
        results.push((name.to_string(), result.unwrap_or(Json::Null)));
    }
    let summary = Json::Object(vec![
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Float(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("workloads".to_string(), Json::Object(results)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim".to_string(), Json::Null),
    ]);
    println!("{}", serde_json::to_string(&summary).expect("a JSON tree prints"));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: rjoin-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
