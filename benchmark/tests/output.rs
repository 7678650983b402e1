//! Drives the built harness at quick size and checks its output against
//! `BENCHMARK.json`: every workload reports every metric by its listed
//! name and unit, nothing fails, and `--self-test` is noticed.
//!
//! Needs the `wodex` binary beside the harness; `benchmark/check.sh`
//! builds both.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_wodex-benchmark"));
    assert!(
        exe.with_file_name("wodex").is_file(),
        "no `wodex` beside {}; run benchmark/check.sh, which builds it",
        exe.display()
    );
    Command::new(exe)
        // The harness finds benchmark/out from the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(args)
        .output()
        .expect("spawn the harness")
}

fn contract() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(contract: &Json, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks that `metrics` holds exactly `expected`, each a finite number.
fn assert_metrics(metrics: &Json, expected: &[(String, String)], context: &str) {
    let Json::Obj(members) = metrics else {
        panic!("{context}: metrics is not an object");
    };
    let got: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want, "{context}: metric names");
    for ((name, unit), (_, m)) in expected.iter().zip(members) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{context}: {name} = {v:?}");
    }
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}): {line:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let file = std::env::temp_dir().join(format!("wodex-benchmark-{}.json", std::process::id()));
    let out = harness(&[
        "--quick",
        "--seconds",
        "1",
        "--seed",
        "11",
        "--out",
        file.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "all-workloads run failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("total wall time"));
    let doc = Json::parse(&std::fs::read_to_string(&file).expect("--out file")).expect("JSON");
    let _ = std::fs::remove_file(&file);
    let contract = contract();
    let end_to_end = listed(&contract, "end_to_end");
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    let workloads = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(runs.len(), workloads.len());
    for (run, w) in runs.iter().zip(workloads) {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert_eq!(run.get("workload").and_then(Json::as_str), Some(name));
        assert_eq!(run.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        let metrics = run.get("metrics").expect("metrics");
        assert_metrics(metrics, &end_to_end, name);
        for (metric, _) in &end_to_end {
            let v = metrics
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v > 0.0),
                "{name}: {metric} must never be 0"
            );
        }
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let out = harness(&[
        "--workload",
        "seg_query",
        "--quick",
        "--seconds",
        "1",
        "--seed",
        "12",
        "--trace",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_line(&out);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert_metrics(
        result.get("metrics").expect("metrics"),
        &listed(&contract(), "per_layer"),
        "traced seg_query",
    );
    let violations = result
        .get("metrics")
        .and_then(|m| m.get("trace.stage_sum_violations"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert_eq!(
        violations,
        Some(0.0),
        "server stages must fit inside client latency"
    );
}

#[test]
fn self_test_is_counted_as_a_failure() {
    for workload in ["sparql_lookup", "seg_query"] {
        let out = harness(&[
            "--workload",
            workload,
            "--quick",
            "--seconds",
            "1",
            "--seed",
            "13",
            "--trace",
            "0",
            "--self-test",
        ]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{workload}: a wrong answer must fail the run"
        );
        let result = last_line(&out);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(
            result.get("failed").and_then(Json::as_u64) >= Some(1),
            "{workload}"
        );
    }
}
