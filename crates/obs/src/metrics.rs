//! Counters, gauges, fixed-bucket histograms, and the registry.
//!
//! Handles are `Arc`s interned by the global registry: components fetch
//! their handles once (in a constructor or a `OnceLock` initializer) and
//! record through plain relaxed atomics thereafter. Two registrations of
//! the same name + label set return the *same* series, which is what lets
//! every `BlockCache` in the process feed one `wodex_segcache_*` family
//! — and what makes the cross-layer conservation invariants
//! (`hits + misses == lookups`) globally checkable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing counter.
///
/// `reset` exists for tests and benches (deltas across a workload); the
/// Prometheus exposition treats the value as a counter regardless.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A no-op while recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (test/bench bookkeeping only).
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down (set at sample time).
///
/// The value is an integer in the gauge's raw unit; like a
/// [`Histogram`], a gauge registered with a `unit_scale` is exposed as
/// `raw × unit_scale` (microseconds set, seconds scraped).
#[derive(Debug)]
pub struct Gauge {
    v: AtomicI64,
    unit_scale: f64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            v: AtomicI64::new(0),
            unit_scale: 1.0,
        }
    }
}

impl Gauge {
    /// Multiplier from raw units to exposition units.
    pub fn unit_scale(&self) -> f64 {
        self.unit_scale
    }

    /// Sets the value. Unlike counter increments this is not gated on
    /// [`crate::enabled`] — gauges are set at scrape time, not on hot
    /// paths.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// The default duration buckets, in nanoseconds: powers of 4 from 1 µs to
/// ~17 s. Fixed at registration so observation is a branchless scan over
/// at most [`MAX_BUCKETS`] bounds plus three `fetch_add`s.
pub const DURATION_BUCKETS_NS: &[u64] = &[
    1 << 10, // ~1 µs
    1 << 12, // ~4 µs
    1 << 14, // ~16 µs
    1 << 16, // ~65 µs
    1 << 18, // ~262 µs
    1 << 20, // ~1 ms
    1 << 22, // ~4.2 ms
    1 << 24, // ~16.8 ms
    1 << 26, // ~67 ms
    1 << 28, // ~268 ms
    1 << 30, // ~1.07 s
    1 << 32, // ~4.3 s
    1 << 34, // ~17.2 s
];

/// Upper bound on per-histogram bucket count (keeps readout and
/// exposition O(1) per series).
pub const MAX_BUCKETS: usize = 32;

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket bounds are inclusive upper bounds in the histogram's raw unit
/// (nanoseconds for durations); `unit_scale` converts raw units to the
/// exposition unit (`1e-9` renders nanoseconds as seconds). Counts per
/// bucket are *non-cumulative* internally; the Prometheus encoder
/// accumulates them, which is what makes the exposed `_bucket` series
/// monotone by construction.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow (+Inf) slot.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    unit_scale: f64,
}

impl Histogram {
    fn new(bounds: &[u64], unit_scale: f64) -> Histogram {
        let bounds: Vec<u64> = bounds.iter().copied().take(MAX_BUCKETS).collect();
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not sorted");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            unit_scale,
        }
    }

    /// Records one observation in raw units. A no-op while recording is
    /// disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, raw units.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The exposition scale (raw unit → exposed unit).
    pub fn unit_scale(&self) -> f64 {
        self.unit_scale
    }

    /// A point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
            unit_scale: self.unit_scale,
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in raw units, linearly interpolated
    /// within the winning bucket. Returns 0 with no observations.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Zeroes every bucket (test/bench bookkeeping only).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A plain-value copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, raw units; the final implicit bound is +Inf.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Sum of observations, raw units.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
    /// Raw unit → exposed unit.
    pub unit_scale: f64,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count;
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c;
            if rank <= next && c > 0 {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Open-ended overflow bucket: report its lower edge
                    // (there is no honest upper estimate).
                    return lo;
                };
                let frac = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen = next;
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// One registered series: family name + label pairs + the metric.
pub(crate) struct Series {
    pub(crate) name: String,
    pub(crate) help: &'static str,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) metric: Metric,
}

pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The interning registry. Registration is locked; recording never is —
/// callers hold `Arc` handles to the atomics themselves.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Series>>,
}

impl MetricsRegistry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Series>> {
        // A registration cannot leave the Vec mid-mutation (push is the
        // only write), so recovering from poison is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn intern<T, F: FnOnce() -> Metric>(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: F,
        as_t: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let name = crate::prom::sanitize_metric_name(name);
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (crate::prom::sanitize_label_name(k), v.to_string()))
            .collect();
        let mut series = self.lock();
        if let Some(s) = series.iter().find(|s| s.name == name && s.labels == labels) {
            if let Some(t) = as_t(&s.metric) {
                return t;
            }
            // Same series name registered as a different kind: a
            // programming error; fall through and register a shadow
            // series rather than panicking a hot constructor.
        }
        let metric = make();
        let handle = as_t(&metric).expect("make() returns the requested kind");
        series.push(Series {
            name,
            help,
            labels,
            metric,
        });
        handle
    }

    /// Registers (or returns the existing) counter series.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or returns the existing) labeled counter series.
    pub fn counter_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.intern(
            name,
            help,
            labels,
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or returns the existing) gauge series.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or returns the existing) gauge series whose raw value
    /// is exposed multiplied by `unit_scale`.
    pub fn gauge_scaled(&self, name: &str, help: &'static str, unit_scale: f64) -> Arc<Gauge> {
        self.intern(
            name,
            help,
            &[],
            || {
                Metric::Gauge(Arc::new(Gauge {
                    unit_scale,
                    ..Gauge::default()
                }))
            },
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or returns the existing) labeled gauge series.
    pub fn gauge_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.intern(
            name,
            help,
            labels,
            || Metric::Gauge(Arc::new(Gauge::default())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or returns the existing) histogram series with the
    /// given raw-unit bucket bounds and exposition scale.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        unit_scale: f64,
    ) -> Arc<Histogram> {
        self.intern(
            name,
            help,
            labels,
            || Metric::Histogram(Arc::new(Histogram::new(bounds, unit_scale))),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registers (or returns the existing) duration histogram: raw unit
    /// nanoseconds, exposed as seconds, [`DURATION_BUCKETS_NS`] bounds.
    pub fn duration_histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.histogram_with(name, help, labels, DURATION_BUCKETS_NS, 1e-9)
    }

    /// Every counter value keyed by `name{label="v",…}` — the readout the
    /// invariant tests and `wodex explain` use.
    pub fn counter_values(&self) -> HashMap<String, u64> {
        self.lock()
            .iter()
            .filter_map(|s| match &s.metric {
                Metric::Counter(c) => Some((series_key(&s.name, &s.labels), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Every gauge value (in raw units) keyed by `name{label="v",…}` —
    /// the same readout as [`MetricsRegistry::counter_values`], for
    /// gauges (`/stats` fragments read resident-bytes style series this
    /// way).
    pub fn gauge_values(&self) -> HashMap<String, i64> {
        self.lock()
            .iter()
            .filter_map(|s| match &s.metric {
                Metric::Gauge(g) => Some((series_key(&s.name, &s.labels), g.get())),
                _ => None,
            })
            .collect()
    }

    /// Runs `f` over every registered series (exposition).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Series)) {
        for s in self.lock().iter() {
            f(s);
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The canonical `name{k="v",…}` key for one series.
pub(crate) fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&crate::prom::escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// The process-global registry every wodex layer records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_get() {
        let r = MetricsRegistry::new();
        let c = r.counter("test_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn registration_interns_by_name_and_labels() {
        let r = MetricsRegistry::new();
        let a = r.counter_with("x_total", "h", &[("op", "map")]);
        let b = r.counter_with("x_total", "h", &[("op", "map")]);
        let c = r.counter_with("x_total", "h", &[("op", "fold")]);
        a.inc();
        b.inc();
        c.inc();
        assert_eq!(
            a.get(),
            2,
            "same series: one handle's incs visible in the other"
        );
        assert_eq!(c.get(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth", "h");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with("lat", "h", &[], &[10, 100, 1000], 1.0);
        for v in [1u64, 5, 50, 60, 70, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 5 + 50 + 60 + 70 + 500 + 5000);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 3, 1, 1]);
        // p50: rank 4 of 7 → third bucket entry of (10,100].
        let p50 = h.quantile(0.5);
        assert!(p50 > 10 && p50 <= 100, "p50 = {p50}");
        // p99 lands in the overflow bucket → reports its lower edge.
        assert_eq!(h.quantile(0.99), 1000);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let r = MetricsRegistry::new();
        let c = r.counter("gated_total", "h");
        let h = r.duration_histogram("gated_seconds", "h", &[]);
        crate::set_enabled(false);
        c.inc();
        h.observe(99);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn counter_values_keys_include_labels() {
        let r = MetricsRegistry::new();
        r.counter_with("y_total", "h", &[("op", "a")]).add(3);
        r.counter("z_total", "h").add(9);
        let vals = r.counter_values();
        assert_eq!(vals["y_total{op=\"a\"}"], 3);
        assert_eq!(vals["z_total"], 9);
    }

    #[test]
    fn duration_bucket_bounds_are_sorted() {
        assert!(DURATION_BUCKETS_NS.windows(2).all(|w| w[0] < w[1]));
        assert!(DURATION_BUCKETS_NS.len() <= MAX_BUCKETS);
    }
}
