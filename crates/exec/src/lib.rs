//! # wodex-exec — std-only deterministic parallel execution
//!
//! The survey's central constraint is serving exploration-driven workloads
//! over very large datasets on limited resources (PAPER.md §2). This crate
//! is the workspace's answer at the execution layer: a scoped worker pool
//! built **only** on `std::thread::scope` and `std::sync` — the build
//! environment has no registry access, so rayon/crossbeam are not options.
//!
//! ## Operations
//!
//! * [`par_map`] — map a function over a slice, preserving order.
//! * [`par_chunks`] — map a function over fixed-size chunks of a slice,
//!   one result per chunk, in chunk order.
//! * [`par_fold`] — fold each chunk to an accumulator, then merge the
//!   accumulators **in chunk order**.
//! * [`channel::bounded`] — a bounded SPSC/MPSC channel (wraps
//!   `std::sync::mpsc::sync_channel`) for pipeline-style producers.
//!
//! ## Determinism contract
//!
//! Every operation produces results that are **byte-identical regardless of
//! thread count**, because:
//!
//! 1. The chunk decomposition is a function of the *input length only* —
//!    never of the thread count. `WODEX_THREADS=1` and `WODEX_THREADS=64`
//!    process exactly the same chunks.
//! 2. Chunk results are merged in chunk index order, not completion order.
//! 3. Workers claim chunk *indices* from an atomic counter; which worker
//!    computes a chunk never affects what the chunk computes.
//!
//! This means the serial path is defined as "the same chunked computation
//! on one thread", so floating-point reductions ([`par_fold`]) associate
//! identically at every thread count.
//!
//! ## Thread count
//!
//! [`num_threads`] resolves, in order: a thread-local override installed by
//! [`with_thread_override`] (used by equivalence tests so parallel test
//! binaries don't race on the environment), the `WODEX_THREADS` environment
//! variable, then `std::thread::available_parallelism()`.
//!
//! ## Observability
//!
//! Each call records items processed and wall time into the process-global
//! [`wodex_obs`] registry (family `wodex_exec_*`, one series per `op`
//! label); [`stats`] snapshots them and [`reset_stats`] clears them.
//! [`run_chunked`] additionally counts tasks spawned and observes each
//! worker's spawn-to-first-claim latency as a queue-wait histogram.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;
use wodex_obs::{Counter, Histogram};
use wodex_resilience::{Budget, DegradeReason};

pub mod channel;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with the effective thread count pinned to `n` on this thread.
///
/// The override is thread-local, so concurrent tests can pin different
/// counts without racing on `WODEX_THREADS`. Restores the previous
/// override on exit (including on panic-free early return).
pub fn with_thread_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The effective worker count for parallel operations started on this
/// thread: override, else `WODEX_THREADS`, else available parallelism.
///
/// The environment lookup happens once per process: `env::var` takes a
/// global lock and `available_parallelism` is a syscall, and nested
/// serial `par_*` calls from inside worker threads would otherwise pay
/// both on every invocation (measured at ~5µs under contention — enough
/// to dominate fine-grained query paths).
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    static AMBIENT: OnceLock<usize> = OnceLock::new();
    *AMBIENT.get_or_init(|| {
        if let Ok(s) = std::env::var("WODEX_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Minimum items per chunk; below this, parallel dispatch costs more than
/// it saves for typical per-item work in this workspace.
const MIN_CHUNK: usize = 256;
/// Target number of chunks for large inputs (load-balancing granularity).
const TARGET_CHUNKS: usize = 64;

/// The chunk size used for `len` items. A function of the input length
/// **only** — never the thread count — which is what makes results
/// identical across thread counts.
pub fn chunk_size(len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(MIN_CHUNK)
}

/// Registry handles for one operation (`op` label: map / chunks / fold).
/// Registered once via [`exec_metrics`]; recording is atomics-only.
struct OpMetrics {
    calls: Arc<Counter>,
    parallel_calls: Arc<Counter>,
    items: Arc<Counter>,
    duration: Arc<Histogram>,
}

impl OpMetrics {
    fn new(op: &'static str) -> OpMetrics {
        let r = wodex_obs::global();
        OpMetrics {
            calls: r.counter_with(
                "wodex_exec_calls_total",
                "Invocations of an exec-layer parallel operation",
                &[("op", op)],
            ),
            parallel_calls: r.counter_with(
                "wodex_exec_parallel_calls_total",
                "Invocations that actually spawned worker threads",
                &[("op", op)],
            ),
            items: r.counter_with(
                "wodex_exec_items_total",
                "Items processed by an exec-layer parallel operation",
                &[("op", op)],
            ),
            duration: r.duration_histogram(
                "wodex_exec_op_seconds",
                "Wall time of one exec-layer parallel operation call",
                &[("op", op)],
            ),
        }
    }

    fn record(&self, items: usize, parallel: bool, start: Instant) {
        self.calls.inc();
        if parallel {
            self.parallel_calls.inc();
        }
        self.items.add(items as u64);
        self.duration.observe(start.elapsed().as_nanos() as u64);
    }

    fn snapshot(&self) -> OpStats {
        OpStats {
            calls: self.calls.get(),
            parallel_calls: self.parallel_calls.get(),
            items: self.items.get(),
            nanos: self.duration.sum(),
        }
    }

    fn reset(&self) {
        self.calls.reset();
        self.parallel_calls.reset();
        self.items.reset();
        self.duration.reset();
    }
}

struct ExecMetrics {
    map: OpMetrics,
    chunks: OpMetrics,
    fold: OpMetrics,
    tasks_spawned: Arc<Counter>,
    queue_wait: Arc<Histogram>,
}

/// The exec layer's registry handles, registered on first use.
fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        ExecMetrics {
            map: OpMetrics::new("map"),
            chunks: OpMetrics::new("chunks"),
            fold: OpMetrics::new("fold"),
            tasks_spawned: r.counter(
                "wodex_exec_tasks_spawned_total",
                "Worker tasks spawned by the scoped pool",
            ),
            queue_wait: r.duration_histogram(
                "wodex_exec_task_queue_seconds",
                "Latency from pool dispatch to a worker claiming its first chunk",
                &[],
            ),
        }
    })
}

/// A snapshot of one operation's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Total invocations.
    pub calls: u64,
    /// Invocations that actually spawned worker threads.
    pub parallel_calls: u64,
    /// Total items processed.
    pub items: u64,
    /// Total wall-clock nanoseconds across invocations.
    pub nanos: u64,
}

/// A snapshot of all execution-layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// [`par_map`] counters.
    pub map: OpStats,
    /// [`par_chunks`] counters.
    pub chunks: OpStats,
    /// [`par_fold`] counters.
    pub fold: OpStats,
}

/// Snapshots the global timing counters.
pub fn stats() -> ExecStats {
    let m = exec_metrics();
    ExecStats {
        map: m.map.snapshot(),
        chunks: m.chunks.snapshot(),
        fold: m.fold.snapshot(),
    }
}

/// Clears the global timing counters.
pub fn reset_stats() {
    let m = exec_metrics();
    m.map.reset();
    m.chunks.reset();
    m.fold.reset();
}

/// Unwraps a completed chunk slot. Slots are written exactly once by the
/// worker that claimed the chunk; the scope joins all workers (propagating
/// panics) before slots are read, so a `None` here is unreachable.
fn take_slot<R>(slot: Mutex<Option<R>>) -> R {
    slot.into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .expect("worker completed this chunk")
}

/// Runs `work(chunk_index)` for every chunk index in `0..nchunks` across
/// `threads` scoped workers. Indices are claimed from an atomic counter,
/// so assignment is dynamic but the set of computations is fixed.
///
/// Panics from `work` propagate to the caller when the scope joins.
fn run_chunked<W: Fn(usize) + Sync>(nchunks: usize, threads: usize, work: W) {
    let m = exec_metrics();
    m.tasks_spawned.add(threads as u64);
    let dispatched = Instant::now();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                m.queue_wait.observe(dispatched.elapsed().as_nanos() as u64);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= nchunks {
                        break;
                    }
                    work(i);
                }
            });
        }
    });
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Deterministic: output is identical at every thread count (see the
/// crate-level determinism contract). Empty input returns an empty vec
/// without touching the pool. Panics in `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let start = Instant::now();
    if n == 0 {
        exec_metrics().map.record(0, false, start);
        return Vec::new();
    }
    let chunk = chunk_size(n);
    let nchunks = n.div_ceil(chunk);
    let threads = num_threads().min(nchunks);
    if threads <= 1 {
        // Same chunk decomposition, one thread: identical results by
        // construction (map has no cross-item state, so a plain pass
        // over each chunk in order is the chunked computation).
        let mut out = Vec::with_capacity(n);
        for c in items.chunks(chunk) {
            out.extend(c.iter().map(&f));
        }
        exec_metrics().map.record(n, false, start);
        return out;
    }
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    run_chunked(nchunks, threads, |i| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(n);
        let v: Vec<R> = items[lo..hi].iter().map(&f).collect();
        *slots[i].lock().unwrap() = Some(v);
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(take_slot(slot));
    }
    exec_metrics().map.record(n, true, start);
    out
}

/// Applies `f` to fixed-size chunks of `items` in parallel, returning one
/// result per chunk in chunk order. `f` receives the chunk index and the
/// chunk slice. `chunk` must be non-zero.
///
/// Unlike [`par_map`], the caller controls the chunk size — callers that
/// need a specific partition (e.g. index sub-ranges) derive it from the
/// input length to stay deterministic.
pub fn par_chunks<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be non-zero");
    let n = items.len();
    let start = Instant::now();
    if n == 0 {
        exec_metrics().chunks.record(0, false, start);
        return Vec::new();
    }
    let nchunks = n.div_ceil(chunk);
    let threads = num_threads().min(nchunks);
    if threads <= 1 {
        let out = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
        exec_metrics().chunks.record(n, false, start);
        return out;
    }
    let slots: Vec<Mutex<Option<R>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    run_chunked(nchunks, threads, |i| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(n);
        *slots[i].lock().unwrap() = Some(f(i, &items[lo..hi]));
    });
    let out = slots.into_iter().map(take_slot).collect();
    exec_metrics().chunks.record(n, true, start);
    out
}

/// Maps `f` over `items` in parallel with **one chunk per item** — the
/// coarse-grained twin of [`par_map`] for inputs where each item is
/// itself a substantial unit of work (decoding a compressed segment
/// block, merging a partition). `par_map`'s fine-grained batching puts
/// at least 256 items in a chunk, which is right when items are cheap
/// but serializes any batch of fewer than 256 *expensive* items; this
/// entry point dispatches every item independently.
///
/// Deterministic for the same reason `par_map` is: the decomposition
/// (one chunk per item) is a function of the input only, and results
/// are reassembled in input order. Empty input returns an empty vec
/// without touching the pool; panics in `f` propagate.
pub fn par_map_coarse<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_chunks(items, 1, |_, c| f(&c[0]))
}

/// The result of a budget-aware parallel operation: the longest completed
/// *prefix* of the full computation, plus why (if) it stopped early.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<R> {
    /// Results for the first [`Partial::completed`] input items, in input
    /// order. When `interrupted` is `None` this is the full result and is
    /// byte-identical to [`par_map`] on the same input.
    pub value: Vec<R>,
    /// How many input items the value covers.
    pub completed: usize,
    /// Why the computation stopped early, if it did.
    pub interrupted: Option<DegradeReason>,
}

impl<R> Partial<R> {
    /// Fraction of the input covered, in \[0, 1\] (1 for empty input).
    pub fn coverage(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            self.completed as f64 / total as f64
        }
    }
}

/// [`par_map`] under a [`Budget`]: workers poll the budget before each
/// chunk they claim and stop cooperatively once it is exceeded, returning
/// the longest completed prefix instead of the full map.
///
/// An unlimited budget routes through [`par_map`] unchanged, so the
/// fault-free/unbudgeted path keeps the crate's determinism contract
/// bit-for-bit. Under an active budget the *content* of the returned
/// prefix is still deterministic (same chunk decomposition, results merged
/// in chunk order); its *length* can vary for wall-clock budgets, which
/// is inherent to deadlines — and for nothing else.
///
/// Each completed chunk charges its item count to the budget's row
/// dimension, so row caps bind without any cooperation from `f`. A row
/// cap admits chunks **in chunk order**: chunk `i` runs iff the rows
/// charged before the call plus the `i` full chunks ahead of it are still
/// under the cap. That count is fixed before any worker starts — a poll
/// of the running charge would race the workers that feed it (two of them
/// can both read "under the cap" before either has charged) — so a capped
/// answer is the same prefix at every thread count.
pub fn par_map_budgeted<T, R, F>(items: &[T], budget: &Budget, f: F) -> Partial<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if budget.is_unlimited() {
        return Partial {
            value: par_map(items, f),
            completed: n,
            interrupted: None,
        };
    }
    let start = Instant::now();
    if n == 0 {
        exec_metrics().map.record(0, false, start);
        return Partial {
            value: Vec::new(),
            completed: 0,
            interrupted: budget.exceeded(),
        };
    }
    let chunk = chunk_size(n);
    let nchunks = n.div_ceil(chunk);
    let threads = num_threads().min(nchunks);
    // Chunks the row cap admits; every chunk ahead of an admitted one is
    // full, so the charge at its turn is known without reading it.
    let row_admit = budget.row_cap().map_or(nchunks, |cap| {
        let left = cap.saturating_sub(budget.rows_charged());
        left.div_ceil(chunk as u64).min(nchunks as u64) as usize
    });
    // The admitted chunks together stay under the cap, so for them
    // `exceeded` can only report a deadline, a cancellation or memory.
    let stop_before = |i: usize| {
        budget
            .exceeded()
            .or((i >= row_admit).then_some(DegradeReason::RowCapExceeded))
    };
    let stop_reason: Mutex<Option<DegradeReason>> = Mutex::new(None);
    let note_stop = |r: DegradeReason| {
        let mut g = stop_reason.lock().unwrap_or_else(PoisonError::into_inner);
        g.get_or_insert(r);
    };
    if threads <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, c) in items.chunks(chunk).enumerate() {
            if let Some(r) = stop_before(i) {
                note_stop(r);
                break;
            }
            out.extend(c.iter().map(&f));
            budget.charge_rows(c.len() as u64);
        }
        exec_metrics().map.record(out.len(), false, start);
        let completed = out.len();
        return Partial {
            value: out,
            completed,
            interrupted: stop_reason
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        };
    }
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    run_chunked(nchunks, threads, |i| {
        if let Some(r) = stop_before(i) {
            note_stop(r);
            return;
        }
        let lo = i * chunk;
        let hi = (lo + chunk).min(n);
        let v: Vec<R> = items[lo..hi].iter().map(&f).collect();
        budget.charge_rows(v.len() as u64);
        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
    });
    // Keep the longest contiguous prefix: a later chunk may have finished
    // after an earlier one was skipped, but a result with holes is not a
    // meaningful partial answer for an order-preserving map.
    let mut out = Vec::new();
    let mut interrupted = stop_reason
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(v) => out.extend(v),
            None => {
                // A hole with no recorded reason means a worker skipped the
                // chunk after another already noted the stop; re-check.
                interrupted = interrupted.or_else(|| budget.exceeded());
                break;
            }
        }
    }
    exec_metrics().map.record(out.len(), true, start);
    let completed = out.len();
    Partial {
        value: out,
        completed,
        interrupted,
    }
}

/// Folds `items` in parallel: each chunk folds into its own accumulator
/// (seeded by `init`), then accumulators merge **in chunk order**.
///
/// Because the chunk decomposition depends only on the input length, the
/// association order of `merge` — and therefore any floating-point result —
/// is identical at every thread count.
pub fn par_fold<T, A, I, F, M>(items: &[T], init: I, fold: F, merge: M) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let n = items.len();
    let start = Instant::now();
    if n == 0 {
        exec_metrics().fold.record(0, false, start);
        return init();
    }
    let chunk = chunk_size(n);
    let accs = {
        let nchunks = n.div_ceil(chunk);
        let threads = num_threads().min(nchunks);
        if threads <= 1 {
            let out: Vec<A> = items
                .chunks(chunk)
                .map(|c| c.iter().fold(init(), &fold))
                .collect();
            exec_metrics().fold.record(n, false, start);
            out
        } else {
            let slots: Vec<Mutex<Option<A>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
            run_chunked(nchunks, threads, |i| {
                let lo = i * chunk;
                let hi = (lo + chunk).min(n);
                let acc = items[lo..hi].iter().fold(init(), &fold);
                *slots[i].lock().unwrap() = Some(acc);
            });
            let out = slots.into_iter().map(take_slot).collect();
            exec_metrics().fold.record(n, true, start);
            out
        }
    };
    let mut accs = accs.into_iter();
    let first = accs.next().expect("at least one chunk");
    accs.fold(first, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = with_thread_override(4, || par_map(&items, |&x| x * 2));
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_identical_across_thread_counts() {
        let items: Vec<f64> = (0..5000).map(|i| i as f64 * 0.37).collect();
        let one = with_thread_override(1, || par_map(&items, |&x| x.sin() * x.cos()));
        let four = with_thread_override(4, || par_map(&items, |&x| x.sin() * x.cos()));
        let eight = with_thread_override(8, || par_map(&items, |&x| x.sin() * x.cos()));
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn par_map_empty_input() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = with_thread_override(4, || par_map(&items, |&x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_coarse_preserves_order_below_min_chunk() {
        // 40 items is far under par_map's fine-grained chunk floor; the
        // coarse entry point must still decompose (one chunk per item)
        // and reassemble in input order at every thread count.
        let items: Vec<u64> = (0..40).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 4, 8] {
            let out = with_thread_override(threads, || par_map_coarse(&items, |&x| x * x + 1));
            assert_eq!(out, serial, "threads={threads}");
        }
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_coarse(&empty, |&x: &u64| x).is_empty());
    }

    #[test]
    fn par_map_single_item() {
        let out = with_thread_override(4, || par_map(&[41], |&x: &i32| x + 1));
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn par_map_panic_propagates() {
        let items: Vec<u32> = (0..10_000).collect();
        let res = std::panic::catch_unwind(|| {
            with_thread_override(4, || {
                par_map(&items, |&x| {
                    assert!(x != 7777, "boom");
                    x
                })
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn par_map_panic_propagates_serially_too() {
        let items: Vec<u32> = (0..10_000).collect();
        let res = std::panic::catch_unwind(|| {
            with_thread_override(1, || {
                par_map(&items, |&x| {
                    assert!(x != 7777, "boom");
                    x
                })
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn par_chunks_covers_input_in_order() {
        let items: Vec<usize> = (0..1000).collect();
        let sums = with_thread_override(4, || {
            par_chunks(&items, 64, |i, c| (i, c.iter().sum::<usize>()))
        });
        assert_eq!(sums.len(), 1000usize.div_ceil(64));
        assert!(sums.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        let total: usize = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn par_fold_float_sums_identical_across_thread_counts() {
        let items: Vec<f64> = (0..50_000).map(|i| (i as f64).sqrt() * 0.001).collect();
        let run = || par_fold(&items, || 0.0f64, |a, &x| a + x, |a, b| a + b);
        let one = with_thread_override(1, run);
        let four = with_thread_override(4, run);
        assert_eq!(one.to_bits(), four.to_bits());
    }

    #[test]
    fn par_fold_empty_returns_init() {
        let items: Vec<u32> = Vec::new();
        let out = par_fold(&items, || 17u32, |a, &x| a + x, |a, b| a + b);
        assert_eq!(out, 17);
    }

    #[test]
    fn thread_override_nests_and_restores() {
        with_thread_override(4, || {
            assert_eq!(num_threads(), 4);
            with_thread_override(2, || assert_eq!(num_threads(), 2));
            assert_eq!(num_threads(), 4);
        });
    }

    #[test]
    fn chunking_ignores_thread_count() {
        let a = with_thread_override(1, || chunk_size(100_000));
        let b = with_thread_override(16, || chunk_size(100_000));
        assert_eq!(a, b);
    }

    #[test]
    fn budgeted_map_with_unlimited_budget_matches_par_map() {
        let items: Vec<u64> = (0..20_000).collect();
        let budget = Budget::unlimited();
        let full = with_thread_override(4, || par_map(&items, |&x| x * 3));
        let part = with_thread_override(4, || par_map_budgeted(&items, &budget, |&x| x * 3));
        assert_eq!(part.value, full);
        assert_eq!(part.completed, items.len());
        assert_eq!(part.interrupted, None);
        assert_eq!(part.coverage(items.len()), 1.0);
    }

    #[test]
    fn budgeted_map_row_cap_returns_a_prefix() {
        let items: Vec<u64> = (0..100_000).collect();
        let budget = Budget::unlimited().with_row_cap(5_000);
        let part = with_thread_override(4, || par_map_budgeted(&items, &budget, |&x| x + 1));
        assert_eq!(part.interrupted, Some(DegradeReason::RowCapExceeded));
        assert!(part.completed < items.len());
        assert!(part.completed > 0, "at least one chunk should land");
        // The partial value is a prefix of the full map.
        let expect: Vec<u64> = (0..part.completed as u64).map(|x| x + 1).collect();
        assert_eq!(part.value, expect);
        assert!(part.coverage(items.len()) < 1.0);
    }

    #[test]
    fn budgeted_map_expired_deadline_stops_immediately() {
        let items: Vec<u64> = (0..50_000).collect();
        let budget = Budget::unlimited().with_expired_deadline();
        let part = with_thread_override(4, || par_map_budgeted(&items, &budget, |&x| x));
        assert_eq!(part.interrupted, Some(DegradeReason::DeadlineExceeded));
        assert_eq!(part.completed, 0);
    }

    #[test]
    fn budgeted_map_cancellation_is_observed() {
        let items: Vec<u64> = (0..50_000).collect();
        let budget = Budget::unlimited().with_row_cap(u64::MAX);
        budget.cancel();
        let part = with_thread_override(4, || par_map_budgeted(&items, &budget, |&x| x));
        assert_eq!(part.interrupted, Some(DegradeReason::Cancelled));
        assert_eq!(part.completed, 0);
    }

    #[test]
    fn budgeted_map_serial_and_parallel_agree_on_row_cap_prefix_shape() {
        let items: Vec<u64> = (0..60_000).collect();
        let cap = 10_000;
        let serial = {
            let b = Budget::unlimited().with_row_cap(cap);
            with_thread_override(1, || par_map_budgeted(&items, &b, |&x| x))
        };
        let parallel = {
            let b = Budget::unlimited().with_row_cap(cap);
            with_thread_override(4, || par_map_budgeted(&items, &b, |&x| x))
        };
        // Both stop for the same reason with a whole number of chunks, and
        // both values are prefixes of the input.
        assert_eq!(serial.interrupted, Some(DegradeReason::RowCapExceeded));
        assert_eq!(parallel.interrupted, Some(DegradeReason::RowCapExceeded));
        let chunk = chunk_size(items.len());
        assert_eq!(serial.completed % chunk, 0);
        assert_eq!(parallel.completed % chunk, 0);
        assert_eq!(serial.value[..], items[..serial.completed]);
        assert_eq!(parallel.value[..], items[..parallel.completed]);
    }

    #[test]
    fn a_row_cap_admits_the_same_chunks_at_every_thread_count() {
        let items: Vec<u64> = (0..10_000).collect();
        let chunk = chunk_size(items.len());
        for (cap, charged) in [
            (1u64, 0u64),
            (255, 0),
            (256, 0),
            (257, 0),
            (257, 100),
            (5_000, 0),
            (5_000, 4_999),
            (5_000, 5_000),
        ] {
            let admitted = (cap - charged).div_ceil(chunk as u64) as usize;
            let want = (admitted * chunk).min(items.len());
            for threads in [1, 2, 4, 8] {
                for _ in 0..200 {
                    let budget = Budget::unlimited().with_row_cap(cap);
                    budget.charge_rows(charged);
                    let part =
                        with_thread_override(threads, || par_map_budgeted(&items, &budget, |&x| x));
                    assert_eq!(
                        part.completed, want,
                        "cap {cap}, {charged} charged, {threads} thread(s)"
                    );
                    assert_eq!(part.value[..], items[..want]);
                    assert_eq!(part.interrupted, Some(DegradeReason::RowCapExceeded));
                    assert_eq!(budget.rows_charged(), charged + want as u64);
                }
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        reset_stats();
        let items: Vec<u32> = (0..4096).collect();
        let _ = with_thread_override(2, || par_map(&items, |&x| x));
        let s = stats();
        assert!(s.map.calls >= 1);
        assert!(s.map.items >= 4096);
        reset_stats();
    }
}
