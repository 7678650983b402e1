//! Printing: every metric by name with its unit for people, the result
//! line for the driver, and the `--out` / `--record` documents.

use crate::json::{number, quote};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{Config, Outcome};
use std::io::Write;

/// `(name, value, unit)` of the metrics this run reports: per-layer for a
/// traced run, end-to-end otherwise — always the full list.
fn metrics(outcome: &Outcome, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = outcome.per_layer.get(m.name).copied();
                (
                    m.name,
                    v.expect("every per-layer metric is measured"),
                    m.unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&outcome.end_to_end)
            .map(|(m, (name, v, _))| {
                assert_eq!(m.name, *name, "end-to-end metrics are in spec order");
                (m.name, *v, m.unit)
            })
            .collect()
    }
}

pub fn print_outcome(workload: &str, cfg: &Config, outcome: &Outcome) {
    println!(
        "== {workload} seed={} entities={} window={}s {}",
        cfg.seed,
        cfg.entities,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" }
    );
    if cfg.trace {
        for (name, value, unit) in metrics(outcome, true) {
            println!("  {name:<34} {value:>14.4} {unit}");
        }
    } else {
        for ((name, value, note), m) in outcome.end_to_end.iter().zip(&END_TO_END) {
            println!("  {name:<28} {value:>14.4} {:<5} ({note})", m.unit);
        }
    }
    println!(
        "  {:<28} {:>14.6} share ({} of {} operations)",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for e in &outcome.errors {
        println!("  failure: {e}");
    }
}

fn metrics_json(outcome: &Outcome, traced: bool) -> String {
    let members: Vec<String> = metrics(outcome, traced)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The driver's result object.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome, traced)
    )
}

/// One run inside an `--out` document.
pub fn run_json(workload: &str, cfg: &Config, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        quote(workload),
        cfg.seed,
        cfg.trace,
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome, cfg.trace)
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `--out` document: where and how the runs were made, then the runs.
pub fn document(runs: &[String], entities: u32, seconds: f64, wall_s: f64) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"git_rev\": {}, \"host_cpus\": {cpus}, \"unix_time\": {now}, \"entities\": {entities}, \"seconds\": {}, \"wall_s\": {}, \"runs\": [{}]}}",
        quote(&git_rev()),
        number(seconds),
        number(wall_s),
        runs.join(", ")
    )
}

/// Appends the document as one line to `benchmark/HISTORY.jsonl`.
pub fn append_history(document: &str) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("HISTORY.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{document}").map_err(|e| format!("append to {}: {e}", path.display()))?;
    println!("recorded in {}", path.display());
    Ok(())
}
