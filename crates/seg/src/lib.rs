//! # wodex-seg — persistent compressed segment store
//!
//! The survey's §4 names the gap this crate fills: WoD systems "initially
//! load all the examined objects in main memory", where they should be
//! "integrated with disk structures, retrieving data dynamically during
//! runtime". `wodex-seg` is the disk structure — an HDT-flavoured,
//! LSM-shaped segment store:
//!
//! * **Format** ([`format`]): triples live in immutable *segment files*,
//!   each holding the same sorted, deduplicated triple set three times —
//!   once per permutation order (SPO, POS, OSP) — as runs of
//!   delta-varint-compressed blocks, every block carrying the PR 2 64-bit
//!   checksum. A footer holds the block directory and planner statistics;
//!   files become visible only through an atomic rename.
//! * **Dictionary** ([`dict`]): terms are front-coded into a sidecar
//!   `dict.wdx`, rebuilt into a [`wodex_rdf::TermDict`] at open. The
//!   dictionary resides in RAM (the HDT trade-off); triple data does not.
//! * **Store** ([`store`]): [`store::SegmentStore`] opens a directory of
//!   segments behind `wodex-store`'s `SegmentSource` trait — every block
//!   read is checksum-verified and retries transient faults under a
//!   [`wodex_resilience::RetryPolicy`]; corrupt blocks surface as typed
//!   [`wodex_resilience::StoreError::Corrupt`], never panics. A `TripleStore::with_base` on top gives the PR 5 planner,
//!   PR 6 WCO triejoin and PR 7 shard workers the same API they already
//!   speak.
//! * **Loader** ([`loader`]): `wodex load` streams N-Triples through
//!   bounded-memory sorted runs (external merge sort, run budget enforced
//!   by [`wodex_resilience::Budget`]) — the dump never materializes in
//!   RAM.
//! * **Compaction** ([`compact`]): segments form levels; a background
//!   thread merges a full level into the next. Inputs are immutable, the
//!   output appears by rename, so aborting mid-merge (shutdown, SIGTERM)
//!   is always safe.
//! * **Scan engine** ([`cache`] + [`store`]): repeated scans are served
//!   from a process-wide sharded LRU of *decoded* blocks
//!   (`WODEX_SEGCACHE_MB`; the one cache tier — at `0` every scan reads
//!   and verifies from the file), candidate block ranges are pruned exactly
//!   by per-block zone maps (`first_key`/`last_key` + per-position
//!   min/max), cache-miss runs decode in parallel with deterministic
//!   reassembly, and `scan_chunks` streams results block-by-block so
//!   consumers never materialize full scans.

pub mod cache;
pub mod compact;
pub mod delta;
pub mod dict;
pub mod format;
pub mod loader;
pub mod store;

pub use cache::{BlockCache, BlockKey, CachedBlock};
pub use compact::{compact_once, CompactOpts, CompactOutcome, CompactorHandle};
pub use delta::{
    compact_deltas, compact_deltas_with, replay, wal_sink, CompactDeltasOutcome, DeltaFaultPlan,
    DeltaLog, DELTA_FILE,
};
pub use dict::{read_dict, write_dict};
pub use format::{read_segment_meta, BlockMeta, SegmentMeta, SegmentWriter};
pub use loader::{load_ntriples, LoadConfig, LoadReport};
pub use store::{Segment, SegmentFileBackend, SegmentStore};

use std::sync::{Arc, OnceLock};
use wodex_obs::{Counter, Gauge};

/// Global registry series for the segment store.
pub struct SegMetrics {
    /// Triples accepted by the bulk loader.
    pub triples_loaded: Arc<Counter>,
    /// Sorted runs spilled to disk by the external sort (≥2 proves the
    /// load ran outside RAM).
    pub runs_spilled: Arc<Counter>,
    /// Compressed blocks written (loader + compactor).
    pub blocks_written: Arc<Counter>,
    /// Compressed blocks fetched from disk (one per decoded-cache miss
    /// or uncached read, retries included).
    pub blocks_read: Arc<Counter>,
    /// Block fetches rejected by checksum verification.
    pub checksum_failures: Arc<Counter>,
    /// Completed compaction merges.
    pub compactions: Arc<Counter>,
    /// Compaction merges aborted by shutdown.
    pub compaction_aborts: Arc<Counter>,
    /// Live segment files across open stores.
    pub segments_live: Arc<Gauge>,
    /// Delta frames appended durably to write-ahead logs.
    pub delta_appends: Arc<Counter>,
    /// Delta frames replayed at log open.
    pub delta_frames_replayed: Arc<Counter>,
    /// Torn log tails truncated at open.
    pub delta_torn_tails: Arc<Counter>,
    /// Delta logs folded into base segments.
    pub delta_compactions: Arc<Counter>,
}

/// The process-wide [`SegMetrics`] instance.
pub fn metrics() -> &'static SegMetrics {
    static METRICS: OnceLock<SegMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        SegMetrics {
            triples_loaded: r.counter(
                "wodex_seg_triples_loaded_total",
                "Triples accepted by the segment bulk loader",
            ),
            runs_spilled: r.counter(
                "wodex_seg_runs_spilled_total",
                "Sorted runs spilled to disk by the external merge sort",
            ),
            blocks_written: r.counter(
                "wodex_seg_blocks_written_total",
                "Compressed segment blocks written",
            ),
            blocks_read: r.counter(
                "wodex_seg_blocks_read_total",
                "Compressed segment blocks fetched from backends",
            ),
            checksum_failures: r.counter(
                "wodex_seg_block_checksum_failures_total",
                "Segment block fetches rejected by checksum verification",
            ),
            compactions: r.counter(
                "wodex_seg_compactions_total",
                "Completed segment compaction merges",
            ),
            compaction_aborts: r.counter(
                "wodex_seg_compaction_aborts_total",
                "Segment compaction merges aborted by shutdown",
            ),
            segments_live: r.gauge(
                "wodex_seg_segments_live",
                "Live segment files across open segment stores",
            ),
            delta_appends: r.counter(
                "wodex_seg_delta_appends_total",
                "Delta frames appended durably to write-ahead logs",
            ),
            delta_frames_replayed: r.counter(
                "wodex_seg_delta_frames_replayed_total",
                "Delta frames replayed at write-ahead log open",
            ),
            delta_torn_tails: r.counter(
                "wodex_seg_delta_torn_tails_total",
                "Torn write-ahead log tails truncated at open",
            ),
            delta_compactions: r.counter(
                "wodex_seg_delta_compactions_total",
                "Delta logs folded into base segments",
            ),
        }
    })
}
