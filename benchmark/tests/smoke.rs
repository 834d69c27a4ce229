//! Every workload, at smoke size, in both modes: completes with no failed
//! operation, prints every declared metric exactly once with its unit, and
//! agrees with `BENCHMARK.json` on names and units — no drift between the
//! manifest and the binary.

use serde_json::Value as Json;
use std::process::Command;

fn field<'a>(object: &'a Json, key: &str) -> &'a Json {
    object
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key}"))
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(manifest: &Json, key: &str) -> Vec<(String, String)> {
    items(field(manifest, key))
        .iter()
        .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_exactly_the_declared_metrics() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest =
        serde_json::parse(&std::fs::read_to_string(manifest_path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let workloads: Vec<&str> =
        items(field(&manifest, "workloads")).iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(workloads, ["paper_4way", "window_scale", "cyclic_triangle", "tcp_stream"]);

    // One after the other: the TCP workload wants both cores to itself.
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_rjoin-benchmark"))
                .args(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace])
                .arg("--smoke")
                .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("the benchmark binary starts");
            let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
            assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}");

            let result = serde_json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| {
                    panic!("{workload} --trace {trace}: last line is not JSON: {e:?}")
                });
            let keys: Vec<&str> = result
                .as_object()
                .expect("a JSON object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Json::Bool(true), "{workload}");
            assert_eq!(field(&result, "failed"), &Json::Int(0), "{workload}: ops_failed");
            assert!(matches!(field(&result, "attempted"), Json::Int(n) if *n >= 1));

            let printed: Vec<(String, String)> = field(&result, "metrics")
                .as_object()
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(field(m, "value"), Json::Float(_) | Json::Int(_)), "{name}");
                    (name.clone(), text(field(m, "unit")).to_string())
                })
                .collect();
            assert_eq!(printed, declared(&manifest, key), "{workload} --trace {trace}");

            for (name, unit) in &printed {
                let lines = stdout
                    .lines()
                    .filter(|line| {
                        let mut words = line.split_whitespace();
                        words.next() == Some(name) && words.nth(1) == Some(unit)
                    })
                    .count();
                assert_eq!(lines, 1, "{workload} --trace {trace}: {name} printed {lines} times");
            }
        }
    }
}
