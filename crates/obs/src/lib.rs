//! # wodex-obs — the observability substrate
//!
//! The survey's central constraint is exploration over very large datasets
//! on *limited resources* (PAPER.md §2), and no performance work on such a
//! system can be tuned blind: SynopsViz \[arXiv:1408.3148\] makes dataset
//! statistics a first-class feature, and the hierarchical aggregation
//! framework \[arXiv:1511.04750\] justifies its design with per-stage
//! construction/traversal timings. This crate is the workspace's single
//! answer to "where did the time go": every layer (exec, store, SPARQL,
//! explore, serve) records into one process-global [`MetricsRegistry`],
//! and the query path can additionally carry a per-query [`QueryTrace`]
//! with span-based stage timings.
//!
//! ## Design constraints
//!
//! * **Std-only** — the build environment has no registry access.
//! * **Atomics-only on the hot path** — recording a metric is one (or for
//!   histograms, three) `fetch_add(Relaxed)`; no locks, no allocation, no
//!   formatting. The registry's mutex is touched only at *registration*
//!   (once per series, in constructors / `OnceLock` initializers) and at
//!   *exposition* (a `/metrics` scrape or `wodex explain` readout).
//! * **Observation must not perturb the observed** — the standing
//!   benchmark's `obs.enabled_overhead_ratio` measures the instrumented
//!   paths against the same paths with recording disabled
//!   ([`set_enabled`]); the target is ≤5%.
//!
//! ## Pieces
//!
//! * [`metrics`] — [`Counter`], [`Gauge`], fixed-bucket [`Histogram`]
//!   with p50/p95/p99 readout, and the [`MetricsRegistry`] that interns
//!   them by name + label set.
//! * [`trace`] — [`QueryTrace`]: span-based per-stage timings and item
//!   counts for one query (parse → plan → BGP probe → filter → decode →
//!   serialize), renderable as an HTTP header or an ASCII table.
//! * [`prom`] — the Prometheus text exposition encoder (format 0.0.4):
//!   deterministic output ordering, name sanitization, label escaping,
//!   cumulative (monotone) histogram buckets.

pub mod metrics;
pub mod prom;
pub mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, DURATION_BUCKETS_NS,
};
pub use prom::{escape_help, escape_label_value, render_prometheus, sanitize_metric_name};
pub use trace::{PlanStepTrace, QueryTrace, SpanGuard, Stage, TraceSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide recording switch. `true` from process start; benches flip
/// it off to measure the uninstrumented (PR 3) path on identical code.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is metric/trace recording currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables recording. Registration and readout keep
/// working either way — only the hot-path `fetch_add`s are skipped, so a
/// disabled process runs the byte-identical code path minus the stores.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
