//! # wodex-resilience — fault tolerance & budgeted graceful degradation
//!
//! The survey frames every WoD exploration task as running under **limited
//! resources** (§2) against **disk-resident data accessed at runtime** (§4).
//! Both framings imply the same engineering stance: the disk can fail or
//! return garbage, and a query can cost more than the session is willing to
//! pay. This crate is the workspace's shared substrate for both:
//!
//! * [`StoreError`] — the typed error taxonomy threaded from the block
//!   backend up through the segment store and its `SegmentSource`
//!   callers. Transient faults are distinguished from
//!   permanent I/O failures and detected corruption, so callers can retry
//!   the former and surface the latter.
//! * [`RetryPolicy`] / [`RetryStats`] — capped exponential backoff for
//!   transient faults, with per-operation attempt/retry/giveup counters.
//! * [`Budget`] — a cooperative resource budget (wall-clock deadline, row
//!   cap, memory cap, cancellation flag) checked inside the `wodex-exec`
//!   chunk loops and the SPARQL evaluator. Over-budget work does not error:
//!   it **degrades** — partial results come back flagged
//!   [`Degraded`]`{ reason, coverage }`, the SynopsViz/HETree stance of
//!   answering an over-budget request with a coarser answer rather than a
//!   failure.
//! * [`checksum`] — a fast 64-bit page checksum so torn or corrupt pages
//!   are *detected* at decode time instead of being silently interpreted.

pub mod breaker;
pub mod budget;
pub mod checksum;
pub mod error;
pub mod retry;

pub use breaker::{Admission, BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use budget::{Budget, DegradeReason, Degraded};
pub use checksum::page_checksum;
pub use error::StoreError;
pub use retry::{RetryPolicy, RetrySnapshot, RetryStats};
