//! Cooperative query budgets.
//!
//! §2's setting — "machines with limited computational and memory
//! resources" serving interactive exploration — means a query's cost must
//! be *bounded by what the user will wait for*, not by the data. A
//! [`Budget`] carries that bound: an optional wall-clock deadline, row and
//! memory caps, and a cancellation flag the UI thread can flip. Execution
//! loops (the `wodex-exec` chunk loops, the SPARQL join) poll
//! [`Budget::exceeded`] at chunk granularity and, instead of failing,
//! stop early and flag the partial answer as [`Degraded`] with the
//! fraction of work that completed — the SynopsViz/HETree stance of
//! returning a coarser answer under pressure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why an operation was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The cooperative cancellation flag was set.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The budgeted number of rows was produced.
    RowCapExceeded,
    /// The budgeted number of bytes was allocated.
    MemoryCapExceeded,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::DeadlineExceeded => "deadline exceeded",
            DegradeReason::RowCapExceeded => "row cap exceeded",
            DegradeReason::MemoryCapExceeded => "memory cap exceeded",
        };
        f.write_str(s)
    }
}

/// The degradation tag on a partial result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degraded {
    /// What budget dimension ran out.
    pub reason: DegradeReason,
    /// Fraction of the interrupted stage's work that completed, in
    /// \[0, 1\]. A coverage of 0.4 means the partial answer reflects ~40%
    /// of the candidate rows the stage would have processed.
    pub coverage: f64,
}

/// A resource budget shared by every stage of one operation.
///
/// Charging and checking are lock-free; the budget is `Sync` so parallel
/// workers poll the same instance. An all-`None` budget
/// ([`Budget::unlimited`]) never degrades and its checks compile down to
/// a few branch-on-zero loads — the fault-free fast path.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    row_cap: Option<u64>,
    mem_cap: Option<u64>,
    rows: AtomicU64,
    bytes: AtomicU64,
    cancelled: AtomicBool,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits: never degrades unless cancelled.
    pub const fn unlimited() -> Budget {
        Budget {
            deadline: None,
            row_cap: None,
            mem_cap: None,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Adds a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Adds a deadline that has already passed — every subsequent check
    /// degrades immediately (useful for tests and "preview only" modes).
    pub fn with_expired_deadline(mut self) -> Budget {
        self.deadline = Some(Instant::now() - Duration::from_millis(1));
        self
    }

    /// Caps the number of result rows charged via [`Budget::charge_rows`].
    pub fn with_row_cap(mut self, rows: u64) -> Budget {
        self.row_cap = Some(rows);
        self
    }

    /// Caps the bytes charged via [`Budget::charge_bytes`].
    pub fn with_memory_cap(mut self, bytes: u64) -> Budget {
        self.mem_cap = Some(bytes);
        self
    }

    /// True when no limit is configured (cancellation aside) — execution
    /// layers use this to take the unbudgeted fast path.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.row_cap.is_none()
            && self.mem_cap.is_none()
            && !self.cancelled.load(Ordering::Relaxed)
    }

    /// Flips the cooperative cancellation flag.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Records `n` produced rows.
    pub fn charge_rows(&self, n: u64) {
        if self.row_cap.is_some() {
            self.rows.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` allocated bytes.
    pub fn charge_bytes(&self, n: u64) {
        if self.mem_cap.is_some() {
            self.bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Rows charged so far.
    pub fn rows_charged(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// The row cap, if any — degradation paths use it to size samples.
    pub fn row_cap(&self) -> Option<u64> {
        self.row_cap
    }

    /// Charges as many of `wanted` rows as the budget still allows and
    /// returns how many that was; fewer than `wanted` comes with the
    /// dimension that ran out. Lets a stage that knows its row count up
    /// front decide between the full answer and a sample before it reads
    /// anything.
    pub fn charge_rows_up_to(&self, wanted: u64) -> (u64, Option<DegradeReason>) {
        let (granted, tripped) = match self.exceeded() {
            Some(reason) => (0, Some(reason)),
            None => {
                let left = self
                    .row_cap
                    .map_or(u64::MAX, |cap| cap.saturating_sub(self.rows_charged()));
                if wanted <= left {
                    (wanted, None)
                } else {
                    (left, Some(DegradeReason::RowCapExceeded))
                }
            }
        };
        self.charge_rows(granted);
        (granted, tripped)
    }

    /// Remaining wall-clock time, if a deadline is set.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The first exhausted dimension, or `None` while within budget.
    ///
    /// Cancellation dominates (it is an explicit user action), then the
    /// deadline, then the caps.
    pub fn exceeded(&self) -> Option<DegradeReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(DegradeReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(DegradeReason::DeadlineExceeded);
            }
        }
        if let Some(cap) = self.row_cap {
            if self.rows.load(Ordering::Relaxed) >= cap {
                return Some(DegradeReason::RowCapExceeded);
            }
        }
        if let Some(cap) = self.mem_cap {
            if self.bytes.load(Ordering::Relaxed) >= cap {
                return Some(DegradeReason::MemoryCapExceeded);
            }
        }
        None
    }

    /// [`Budget::exceeded`] as a `Result` for `?`-style propagation.
    pub fn check(&self) -> Result<(), DegradeReason> {
        match self.exceeded() {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_rows_up_to_grants_what_the_budget_allows() {
        assert_eq!(Budget::unlimited().charge_rows_up_to(7), (7, None));
        let b = Budget::unlimited().with_row_cap(10);
        assert_eq!(b.charge_rows_up_to(4), (4, None));
        assert_eq!(
            b.charge_rows_up_to(9),
            (6, Some(DegradeReason::RowCapExceeded))
        );
        assert_eq!(b.rows_charged(), 10);
        assert_eq!(
            b.charge_rows_up_to(1),
            (0, Some(DegradeReason::RowCapExceeded))
        );
        let expired = Budget::unlimited().with_row_cap(10).with_expired_deadline();
        assert_eq!(
            expired.charge_rows_up_to(1),
            (0, Some(DegradeReason::DeadlineExceeded))
        );
    }

    #[test]
    fn unlimited_never_degrades() {
        let b = Budget::unlimited();
        b.charge_rows(1_000_000);
        b.charge_bytes(u64::MAX / 2);
        assert_eq!(b.exceeded(), None);
        assert!(b.is_unlimited());
    }

    #[test]
    fn row_cap_trips_after_charge() {
        let b = Budget::unlimited().with_row_cap(100);
        assert!(!b.is_unlimited());
        b.charge_rows(99);
        assert_eq!(b.exceeded(), None);
        b.charge_rows(1);
        assert_eq!(b.exceeded(), Some(DegradeReason::RowCapExceeded));
    }

    #[test]
    fn memory_cap_trips() {
        let b = Budget::unlimited().with_memory_cap(1024);
        b.charge_bytes(2048);
        assert_eq!(b.exceeded(), Some(DegradeReason::MemoryCapExceeded));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let b = Budget::unlimited().with_expired_deadline();
        assert_eq!(b.exceeded(), Some(DegradeReason::DeadlineExceeded));
        assert!(b.check().is_err());
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.exceeded(), None);
        assert!(b.remaining_time().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancellation_dominates_everything() {
        let b = Budget::unlimited().with_row_cap(0).with_expired_deadline();
        b.cancel();
        assert_eq!(b.exceeded(), Some(DegradeReason::Cancelled));
    }

    #[test]
    fn uncharged_dimensions_cost_nothing() {
        // Charging a dimension with no cap is a no-op (no atomic traffic).
        let b = Budget::unlimited().with_row_cap(10);
        b.charge_bytes(1 << 40);
        assert_eq!(b.exceeded(), None);
    }
}
