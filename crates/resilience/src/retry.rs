//! Retry with capped exponential backoff.
//!
//! Transient disk faults (flaky reads, torn reads caught by checksum) are
//! the common case in the fault model; the segment store absorbs them with a
//! bounded retry loop rather than surfacing every blip to the query layer.
//! Backoff doubles from `base_delay` up to `max_delay` — deterministic (no
//! jitter) so chaos tests are reproducible — and every outcome is counted
//! in [`RetryStats`], the per-operation observability the resilience layer
//! reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use wodex_obs::Counter;

/// Global registry mirrors of every [`RetryStats`] in the process: the
/// per-instance stats stay authoritative for a single store's callers,
/// while these feed `/metrics` and the cross-layer conservation invariant
/// `retries == attempts - ops`.
struct RetryMetrics {
    ops: Arc<Counter>,
    attempts: Arc<Counter>,
    retries: Arc<Counter>,
    recoveries: Arc<Counter>,
    giveups: Arc<Counter>,
}

fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        RetryMetrics {
            ops: r.counter(
                "wodex_retry_ops_total",
                "Retry-wrapped operations started (first tries)",
            ),
            attempts: r.counter(
                "wodex_retry_attempts_total",
                "Individual attempts across retry-wrapped operations",
            ),
            retries: r.counter(
                "wodex_retry_retries_total",
                "Transient failures that were retried",
            ),
            recoveries: r.counter(
                "wodex_retry_recoveries_total",
                "Operations that succeeded only after at least one retry",
            ),
            giveups: r.counter(
                "wodex_retry_giveups_total",
                "Operations that failed permanently",
            ),
        }
    })
}

/// SplitMix64 step — the workspace's std-only PRNG (same generator as
/// `wodex-synth`'s seeding path), enough statistical quality to
/// decorrelate backoff schedules.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh jitter seed per [`RetryPolicy::run`] call. A global counter
/// (not wall clock) keeps the process deterministic enough for chaos
/// sweeps while still giving every concurrent retrier a distinct stream.
fn jitter_seed() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0x005E_ED0F_5EED);
    NEXT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// How hard to retry a transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each subsequent retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Decorrelate the backoff schedule with jitter. Deterministic capped
    /// doubling is right for a *private* dependency (an in-process disk:
    /// reproducible chaos sweeps, no other clients to collide with), but
    /// against a *shared* dependency — a recovering shard with N
    /// coordinators retrying it — identical schedules synchronize into
    /// waves that re-kill it. With jitter on, each retry sleeps
    /// `uniform(base_delay, prev * 3)` capped at `max_delay`
    /// ("decorrelated jitter"), so concurrent retriers spread out.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        // Tuned for an in-process "disk": microsecond-scale backoff keeps
        // the chaos suite fast while still exercising the schedule.
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(2),
            jitter: false,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — the pre-resilience behaviour.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        }
    }

    /// The backoff before retry number `retry` (1-based).
    pub fn delay_for(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.base_delay * factor).min(self.max_delay)
    }

    /// One step of the decorrelated-jitter schedule: a sleep drawn
    /// uniformly from `[base_delay, max(base_delay, prev * 3)]`, capped at
    /// `max_delay`. Returns the drawn sleep, which the caller feeds back
    /// as the next step's `prev`. The bound always holds:
    /// `base_delay.min(max_delay) <= sleep <= max_delay`.
    pub fn jittered_delay(&self, prev: Duration, rng_state: &mut u64) -> Duration {
        let base = self.base_delay.as_nanos() as u64;
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base);
        let span = hi - base;
        let draw = if span == 0 {
            base
        } else {
            base + splitmix64(rng_state) % (span + 1)
        };
        Duration::from_nanos(draw).min(self.max_delay)
    }

    /// Runs `op` up to `max_attempts` times, sleeping between attempts.
    ///
    /// `op` receives the 1-based attempt number. An error for which
    /// `is_transient` returns false aborts immediately; a transient error
    /// on the final attempt is handed to `exhausted` so the caller can
    /// wrap it (e.g. into `StoreError::RetriesExhausted`). Every attempt,
    /// retry, recovery and giveup is recorded in `stats`.
    pub fn run<T, E>(
        &self,
        stats: &RetryStats,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
        exhausted: impl FnOnce(u32, E) -> E,
    ) -> Result<T, E> {
        let m = retry_metrics();
        let attempts = self.max_attempts.max(1);
        let mut retried = false;
        let mut rng = jitter_seed();
        let mut prev_sleep = self.base_delay;
        stats.ops.fetch_add(1, Ordering::Relaxed);
        m.ops.inc();
        for attempt in 1..=attempts {
            stats.attempts.fetch_add(1, Ordering::Relaxed);
            m.attempts.inc();
            match op(attempt) {
                Ok(v) => {
                    if retried {
                        stats.recoveries.fetch_add(1, Ordering::Relaxed);
                        m.recoveries.inc();
                    }
                    return Ok(v);
                }
                Err(e) if is_transient(&e) && attempt < attempts => {
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                    m.retries.inc();
                    retried = true;
                    let sleep = if self.jitter {
                        prev_sleep = self.jittered_delay(prev_sleep, &mut rng);
                        prev_sleep
                    } else {
                        self.delay_for(attempt)
                    };
                    std::thread::sleep(sleep);
                }
                Err(e) => {
                    stats.giveups.fetch_add(1, Ordering::Relaxed);
                    m.giveups.inc();
                    return Err(if is_transient(&e) {
                        exhausted(attempts, e)
                    } else {
                        e
                    });
                }
            }
        }
        unreachable!("loop returns on every path");
    }
}

/// Lock-free retry counters (shared by concurrent readers of one store).
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Retry-wrapped operations started (exactly one per [`RetryPolicy::run`]
    /// call — the "first tries"). `retries == attempts - ops` always holds.
    pub ops: AtomicU64,
    /// Operations attempted (every try, including firsts).
    pub attempts: AtomicU64,
    /// Transient failures that were retried.
    pub retries: AtomicU64,
    /// Operations that succeeded only after at least one retry.
    pub recoveries: AtomicU64,
    /// Operations that failed permanently (transient exhausted or
    /// non-transient error).
    pub giveups: AtomicU64,
}

impl RetryStats {
    /// A zeroed counter set.
    pub fn new() -> RetryStats {
        RetryStats::default()
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> RetrySnapshot {
        RetrySnapshot {
            ops: self.ops.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            giveups: self.giveups.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of [`RetryStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetrySnapshot {
    /// See [`RetryStats::ops`].
    pub ops: u64,
    /// See [`RetryStats::attempts`].
    pub attempts: u64,
    /// See [`RetryStats::retries`].
    pub retries: u64,
    /// See [`RetryStats::recoveries`].
    pub recoveries: u64,
    /// See [`RetryStats::giveups`].
    pub giveups: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[derive(Debug, PartialEq)]
    enum E {
        Soft,
        Hard,
        Exhausted(u32),
    }

    fn soft(e: &E) -> bool {
        matches!(e, E::Soft)
    }

    #[test]
    fn first_try_success_records_one_attempt() {
        let stats = RetryStats::new();
        let r: Result<i32, E> =
            RetryPolicy::default().run(&stats, soft, |_| Ok(42), |n, _| E::Exhausted(n));
        assert_eq!(r, Ok(42));
        let s = stats.snapshot();
        assert_eq!(
            (s.attempts, s.retries, s.recoveries, s.giveups),
            (1, 0, 0, 0)
        );
    }

    #[test]
    fn transient_then_success_counts_a_recovery() {
        let stats = RetryStats::new();
        let fails = Cell::new(2u32);
        let r: Result<i32, E> = RetryPolicy::default().run(
            &stats,
            soft,
            |_| {
                if fails.get() > 0 {
                    fails.set(fails.get() - 1);
                    Err(E::Soft)
                } else {
                    Ok(7)
                }
            },
            |n, _| E::Exhausted(n),
        );
        assert_eq!(r, Ok(7));
        let s = stats.snapshot();
        assert_eq!(
            (s.attempts, s.retries, s.recoveries, s.giveups),
            (3, 2, 1, 0)
        );
    }

    #[test]
    fn persistent_transient_exhausts_with_wrapper() {
        let stats = RetryStats::new();
        let r: Result<i32, E> =
            RetryPolicy::default().run(&stats, soft, |_| Err(E::Soft), |n, _| E::Exhausted(n));
        assert_eq!(r, Err(E::Exhausted(4)));
        let s = stats.snapshot();
        assert_eq!((s.attempts, s.retries, s.giveups), (4, 3, 1));
    }

    #[test]
    fn hard_error_aborts_immediately() {
        let stats = RetryStats::new();
        let r: Result<i32, E> =
            RetryPolicy::default().run(&stats, soft, |_| Err(E::Hard), |n, _| E::Exhausted(n));
        assert_eq!(r, Err(E::Hard));
        assert_eq!(stats.snapshot().attempts, 1);
        assert_eq!(stats.snapshot().giveups, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(500),
            jitter: false,
        };
        assert_eq!(p.delay_for(1), Duration::from_micros(100));
        assert_eq!(p.delay_for(2), Duration::from_micros(200));
        assert_eq!(p.delay_for(3), Duration::from_micros(400));
        assert_eq!(p.delay_for(4), Duration::from_micros(500)); // capped
        assert_eq!(p.delay_for(30), Duration::from_micros(500));
    }

    #[test]
    fn jittered_delay_stays_within_bounds() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(900),
            jitter: true,
        };
        let mut rng = 42u64;
        let mut prev = p.base_delay;
        for _ in 0..10_000 {
            let d = p.jittered_delay(prev, &mut rng);
            // The decorrelated-jitter bound: never below base (unless
            // capped), never above the cap, never above 3x the previous
            // sleep.
            assert!(d >= p.base_delay.min(p.max_delay), "below base: {d:?}");
            assert!(d <= p.max_delay, "above cap: {d:?}");
            assert!(d <= (prev * 3).max(p.base_delay), "above 3x prev: {d:?}");
            prev = d;
        }
    }

    #[test]
    fn jittered_delay_actually_spreads() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(10),
            jitter: true,
        };
        let mut rng = 7u64;
        let mut seen = std::collections::BTreeSet::new();
        let mut prev = p.base_delay * 8;
        for _ in 0..64 {
            seen.insert(p.jittered_delay(prev, &mut rng));
            prev = p.base_delay * 8; // hold the range fixed
        }
        assert!(seen.len() > 32, "draws collapsed: {} distinct", seen.len());
    }

    #[test]
    fn zero_base_policy_never_sleeps_negative_span() {
        // RetryPolicy::none() has all-zero durations; the jitter math
        // must not underflow.
        let p = RetryPolicy::none();
        let mut rng = 1u64;
        assert_eq!(p.jittered_delay(Duration::ZERO, &mut rng), Duration::ZERO);
    }

    #[test]
    fn attempt_numbers_are_one_based() {
        let stats = RetryStats::new();
        let seen = std::cell::RefCell::new(Vec::new());
        let _: Result<(), E> = RetryPolicy::default().run(
            &stats,
            soft,
            |a| {
                seen.borrow_mut().push(a);
                Err(E::Soft)
            },
            |n, _| E::Exhausted(n),
        );
        assert_eq!(*seen.borrow(), vec![1, 2, 3, 4]);
    }
}
