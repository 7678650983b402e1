//! `compare A.json B.json`: every workload × end-to-end metric of two
//! `--out` documents against the metric's bound.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's run-to-run spread exceeds the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse: f64,
    /// The wider of the two sides' interquartile spreads, when both sides
    /// have at least two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (ma, mb) = (median(a), median(b));
    let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let wider = (a.len() >= 2 && b.len() >= 2).then(|| spread(a).max(spread(b)));
    let verdict = if wider.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        a: ma,
        b: mb,
        worse,
        spread: wider,
        verdict,
    }
}

/// Values of `metric` over the untraced runs of `workload` in `doc`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn read(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the table; the exit code is 1 when any row regressed.
pub fn compare_files(a: &Path, b: &Path) -> Result<i32, String> {
    let (da, db) = (read(a)?, read(b)?);
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "spread", "bound"
    );
    let mut regressed = 0;
    let mut rows = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&da, w.name, m.name), values(&db, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(&va, &vb, m.better, m.bound);
            rows += 1;
            regressed += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{:<16} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>7} {:>6.1}%  {}",
                w.name,
                m.name,
                row.a,
                row.b,
                row.worse * 100.0,
                row.spread
                    .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                m.bound * 100.0,
                row.verdict.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced workload run".to_string());
    }
    println!("{rows} rows, {regressed} regressed");
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // 20 % slower against a 10 % bound.
        let r = judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Lower, 0.1);
        assert_eq!(r.verdict, Verdict::Regressed);
        assert!((r.worse - 0.2).abs() < 1e-9);
        // The same move is an improvement when higher is better.
        let r = judge(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Higher, 0.1);
        assert_eq!(r.verdict, Verdict::Ok);
        assert!(r.worse < 0.0);
        // 5 % slower stays within the bound.
        let r = judge(&steady, &[105.0, 105.0, 105.0, 105.0], Better::Lower, 0.1);
        assert_eq!(r.verdict, Verdict::Ok);
        // A side noisier than the bound cannot resolve the question.
        let r = judge(&steady, &[80.0, 120.0, 100.0, 140.0], Better::Lower, 0.1);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // Single runs have no spread and are judged on the medians alone.
        let r = judge(&[100.0], &[150.0], Better::Lower, 0.1);
        assert_eq!((r.verdict, r.spread.is_none()), (Verdict::Regressed, true));
    }
}
