//! Span-based per-query tracing.
//!
//! A [`QueryTrace`] rides alongside one query evaluation and accumulates
//! wall time and item counts per fixed [`Stage`]. Spans are drop guards:
//! `trace.span(Stage::Decode)` stamps `Instant::now()` and the guard's
//! `Drop` adds the elapsed nanoseconds to the stage — so early returns and
//! `?` propagation are timed correctly for free. Stages may be entered
//! repeatedly (a BGP with four patterns opens four `BgpProbe` spans); the
//! trace records the sum.
//!
//! A disabled trace (the default for untraced queries) skips the
//! `Instant::now()` calls entirely — the only cost left on the hot path is
//! one branch on a bool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One executed plan step: operator, pattern summary, and estimated vs.
/// actual output cardinality. Collected per-trace so `wodex explain` can
/// show how well the planner's cost model predicted reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStepTrace {
    /// Operator name (`scan`, `merge_join`, `hash_join`, `nl_join`, …).
    pub op: &'static str,
    /// Human-readable pattern / step description.
    pub detail: String,
    /// Planner's estimated output rows for this step.
    pub est_rows: u64,
    /// Rows the step actually produced.
    pub actual_rows: u64,
}

/// The fixed query pipeline stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// SPARQL text → AST.
    Parse,
    /// Pattern ordering, selectivity precompute, variable indexing.
    Plan,
    /// Distributed gather: per-shard pattern scans fanned out and merged
    /// (coordinator mode only; zero in single-process serving).
    Scatter,
    /// Index probes joining each triple pattern into the binding set.
    BgpProbe,
    /// FILTER application over candidate rows.
    Filter,
    /// Term-id → lexical form decoding of result rows.
    Decode,
    /// Result serialization (JSON rows / table rendering).
    Serialize,
}

impl Stage {
    /// Every stage, pipeline order. Readouts iterate this so output
    /// ordering is fixed.
    pub const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::Plan,
        Stage::Scatter,
        Stage::BgpProbe,
        Stage::Filter,
        Stage::Decode,
        Stage::Serialize,
    ];

    /// The stage's snake_case name (used in headers, tables, metrics).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Scatter => "scatter",
            Stage::BgpProbe => "bgp_probe",
            Stage::Filter => "filter",
            Stage::Decode => "decode",
            Stage::Serialize => "serialize",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Plan => 1,
            Stage::Scatter => 2,
            Stage::BgpProbe => 3,
            Stage::Filter => 4,
            Stage::Decode => 5,
            Stage::Serialize => 6,
        }
    }
}

const NSTAGES: usize = Stage::ALL.len();

/// Per-stage timings and item counts for one query.
///
/// Interior-mutable (atomics) so eval code can record through a shared
/// `&QueryTrace` from parallel workers without locks.
#[derive(Debug)]
pub struct QueryTrace {
    enabled: bool,
    start: Instant,
    nanos: [AtomicU64; NSTAGES],
    items: [AtomicU64; NSTAGES],
    /// Executed plan steps in execution order. Only cost-based plans
    /// are recorded: empty when the query had nothing but single-pattern
    /// groups, ran under the greedy engine, or the trace is disabled.
    plan_steps: Mutex<Vec<PlanStepTrace>>,
}

impl QueryTrace {
    /// An enabled trace; wall-clock starts now.
    pub fn new() -> QueryTrace {
        QueryTrace {
            enabled: true,
            start: Instant::now(),
            nanos: Default::default(),
            items: Default::default(),
            plan_steps: Mutex::new(Vec::new()),
        }
    }

    /// A disabled trace: spans skip `Instant::now()`, records are no-ops.
    /// This is what untraced queries carry, so tracing support costs them
    /// one branch per span site.
    pub fn disabled() -> QueryTrace {
        QueryTrace {
            enabled: false,
            start: Instant::now(),
            nanos: Default::default(),
            items: Default::default(),
            plan_steps: Mutex::new(Vec::new()),
        }
    }

    /// Is this trace recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span on `stage`; elapsed time is added when the guard
    /// drops.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        SpanGuard {
            trace: self,
            stage,
            start: if self.enabled {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Adds `n` items to `stage` (rows probed, rows decoded, bytes
    /// serialized — the stage's natural unit).
    #[inline]
    pub fn add_items(&self, stage: Stage, n: u64) {
        if self.enabled {
            self.items[stage.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds raw nanoseconds to `stage` (for callers that already timed).
    #[inline]
    pub fn record_nanos(&self, stage: Stage, nanos: u64) {
        if self.enabled {
            self.nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Nanoseconds accumulated on `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()].load(Ordering::Relaxed)
    }

    /// Items accumulated on `stage`.
    pub fn stage_items(&self, stage: Stage) -> u64 {
        self.items[stage.index()].load(Ordering::Relaxed)
    }

    /// Wall-clock nanoseconds since the trace was created.
    pub fn total_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Appends one executed plan step (no-op on a disabled trace). Steps
    /// accumulate in call order, which the executor guarantees is plan
    /// order.
    pub fn record_plan_step(&self, step: PlanStepTrace) {
        if self.enabled {
            self.plan_steps.lock().unwrap().push(step);
        }
    }

    /// The executed plan steps recorded so far (see the field for when
    /// there are none).
    pub fn plan_steps(&self) -> Vec<PlanStepTrace> {
        self.plan_steps.lock().unwrap().clone()
    }

    /// An ASCII table of executed plan steps with estimated vs. actual
    /// output rows per step, or the empty string when no plan steps were
    /// recorded (single-pattern queries, the greedy engine). Rendered by
    /// `wodex explain` below the stage table.
    pub fn render_plan_table(&self) -> String {
        let steps = self.plan_steps();
        if steps.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("step  op          est_rows  actual_rows  detail\n");
        out.push_str("----  ----------  --------  -----------  ------\n");
        for (i, st) in steps.iter().enumerate() {
            out.push_str(&format!(
                "{:<4}  {:<10}  {:>8}  {:>11}  {}\n",
                i + 1,
                st.op,
                st.est_rows,
                st.actual_rows,
                st.detail,
            ));
        }
        out
    }

    /// A plain-value copy of the trace.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            stages: Stage::ALL
                .iter()
                .map(|&s| StageSnapshot {
                    stage: s,
                    nanos: self.stage_nanos(s),
                    items: self.stage_items(s),
                })
                .collect(),
            wall_nanos: self.total_nanos(),
        }
    }

    /// The compact `X-Wodex-Trace` header value:
    /// `parse=12us;plan=3us;bgp_probe=840us/1200;…` — stages in pipeline
    /// order, microsecond timings, `/items` appended when non-zero,
    /// zero-time zero-item stages omitted.
    pub fn header_value(&self) -> String {
        let mut out = String::new();
        for &s in &Stage::ALL {
            let ns = self.stage_nanos(s);
            let items = self.stage_items(s);
            if ns == 0 && items == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(s.name());
            out.push('=');
            out.push_str(&format!("{}us", ns / 1_000));
            if items > 0 {
                out.push_str(&format!("/{items}"));
            }
        }
        if out.is_empty() {
            out.push_str("none");
        }
        out
    }

    /// An ASCII table of the trace (`wodex explain`): one row per stage
    /// with time, share of the measured total, and item count.
    pub fn render_table(&self) -> String {
        let snap = self.snapshot();
        let measured: u64 = snap.stages.iter().map(|s| s.nanos).sum();
        let mut out = String::new();
        out.push_str("stage       time_us      pct  items\n");
        out.push_str("----------  ---------  -----  ---------\n");
        for st in &snap.stages {
            let pct = if measured > 0 {
                st.nanos as f64 * 100.0 / measured as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<10}  {:>9}  {:>4.1}%  {:>9}\n",
                st.stage.name(),
                st.nanos / 1_000,
                pct,
                st.items,
            ));
        }
        out.push_str(&format!(
            "total       {:>9}  (wall {}us)\n",
            measured / 1_000,
            snap.wall_nanos / 1_000,
        ));
        out
    }
}

impl Default for QueryTrace {
    fn default() -> QueryTrace {
        QueryTrace::new()
    }
}

/// Drop guard returned by [`QueryTrace::span`].
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard<'a> {
    trace: &'a QueryTrace,
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.trace
                .record_nanos(self.stage, start.elapsed().as_nanos() as u64);
        }
    }
}

/// One stage's share of a [`TraceSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Accumulated nanoseconds.
    pub nanos: u64,
    /// Accumulated items.
    pub items: u64,
}

/// A plain-value copy of a [`QueryTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Every stage in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Wall-clock nanoseconds from trace creation to snapshot.
    pub wall_nanos: u64,
}

impl TraceSnapshot {
    /// Sum of per-stage nanoseconds (≤ wall for a serial pipeline).
    pub fn measured_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_accumulate_into_stages() {
        let t = QueryTrace::new();
        {
            let _g = t.span(Stage::Parse);
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _g = t.span(Stage::Parse);
            std::thread::sleep(Duration::from_millis(2));
        }
        t.add_items(Stage::Decode, 17);
        assert!(t.stage_nanos(Stage::Parse) >= 4_000_000);
        assert_eq!(t.stage_nanos(Stage::Decode), 0);
        assert_eq!(t.stage_items(Stage::Decode), 17);
    }

    #[test]
    fn stage_sum_bounded_by_wall_for_serial_spans() {
        let t = QueryTrace::new();
        for &s in &Stage::ALL {
            let _g = t.span(s);
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = t.snapshot();
        assert!(
            snap.measured_nanos() <= snap.wall_nanos,
            "measured {} > wall {}",
            snap.measured_nanos(),
            snap.wall_nanos
        );
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = QueryTrace::disabled();
        {
            let _g = t.span(Stage::Plan);
            std::thread::sleep(Duration::from_millis(1));
        }
        t.add_items(Stage::Plan, 5);
        t.record_nanos(Stage::Plan, 99);
        assert_eq!(t.stage_nanos(Stage::Plan), 0);
        assert_eq!(t.stage_items(Stage::Plan), 0);
        assert_eq!(t.header_value(), "none");
    }

    #[test]
    fn header_value_orders_stages_and_appends_items() {
        let t = QueryTrace::new();
        t.record_nanos(Stage::Decode, 3_000);
        t.record_nanos(Stage::Parse, 12_000);
        t.add_items(Stage::Decode, 40);
        assert_eq!(t.header_value(), "parse=12us;decode=3us/40");
    }

    #[test]
    fn plan_steps_record_in_order_and_render() {
        let t = QueryTrace::new();
        t.record_plan_step(PlanStepTrace {
            op: "scan",
            detail: "?s :p ?o".into(),
            est_rows: 100,
            actual_rows: 97,
        });
        t.record_plan_step(PlanStepTrace {
            op: "hash_join",
            detail: "?s :q ?v".into(),
            est_rows: 10,
            actual_rows: 42,
        });
        let steps = t.plan_steps();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].op, "scan");
        assert_eq!(steps[1].actual_rows, 42);
        let table = t.render_plan_table();
        assert!(table.contains("est_rows"));
        assert!(table.contains("hash_join"));
        assert!(table.contains("97"));
    }

    #[test]
    fn disabled_trace_drops_plan_steps() {
        let t = QueryTrace::disabled();
        t.record_plan_step(PlanStepTrace {
            op: "scan",
            detail: String::new(),
            est_rows: 1,
            actual_rows: 1,
        });
        assert!(t.plan_steps().is_empty());
        assert_eq!(t.render_plan_table(), "");
    }

    #[test]
    fn render_table_lists_every_stage() {
        let t = QueryTrace::new();
        t.record_nanos(Stage::BgpProbe, 1_000_000);
        t.add_items(Stage::BgpProbe, 1200);
        let table = t.render_table();
        for &s in &Stage::ALL {
            assert!(table.contains(s.name()), "missing stage {}", s.name());
        }
        assert!(table.contains("1200"));
        assert!(table.contains("total"));
    }
}
