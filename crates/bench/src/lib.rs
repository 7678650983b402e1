//! # wodex-bench — the experiment harness
//!
//! One module per experiment of `EXPERIMENTS.md` (T1/T2 table
//! regeneration, C1–C5 claim re-derivation, E1–E14 technique
//! experiments). Each experiment is a plain function returning a textual
//! report with its measured numbers; the `repro` binary runs them all.
//!
//! Experiments measure **shape**, not absolute wall-clock: who wins, by
//! roughly what factor, and where crossovers fall — per the reproduction
//! contract in `DESIGN.md`. Timing that gates a change belongs to the
//! standing benchmark in `benchmark/`.

pub mod experiments;
pub mod workloads;

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Times a closure, returning (result, duration).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_units() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_nanos(500)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(50)).ends_with('s'));
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
