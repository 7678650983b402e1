//! # wodex-store — a scalable triple store substrate
//!
//! §2 of the survey states the requirement this crate exists to satisfy:
//! modern systems must "*efficiently and effectively handle billion-object
//! dynamic datasets throughout an exploratory scenario*" on "*machines with
//! limited computational and memory resources*", which rules out both
//! preprocessing-everything and loading-everything-in-memory. The store
//! therefore provides, from scratch:
//!
//! * **Dictionary-encoded triples** over [`wodex_rdf::TermDict`] — triples
//!   are `[u32; 3]`, indexes are sorted integer arrays ([`encoded`]).
//! * **SPO/POS/OSP permutation indexes** with binary-search range lookup
//!   and a log-structured unsorted tail so that *streaming inserts* (the
//!   "dynamic setting") do not force a full re-sort per triple
//!   ([`index`], [`memstore`]).
//! * The **seams a disk store plugs into**: [`SegmentSource`], the scan
//!   interface of an immutable sorted region that
//!   [`TripleStore::with_base`] layers its tail and tombstones over, and
//!   [`PageBackend`], the block reader underneath it. The disk store
//!   itself — the "Disk" feature column of Tables 1 & 2, and the
//!   architecture the survey's §4 recommends (graphVizdb \[22\], GMine
//!   \[72\]) — is `wodex-seg` ([`segment`]).
//! * **Adaptive indexing (database cracking)** \[67\], applied to
//!   exploration-driven range queries exactly as \[144\] proposes: the index
//!   materializes incrementally as a side effect of the query sequence
//!   ([`cracking`]).
//! * The workspace's one **LRU cache** and an **exploration-aware
//!   prefetcher** exploiting pan/zoom locality, per the §4 future
//!   direction (caching/prefetching \[16, 39, 128\]) ([`cache`],
//!   [`prefetch`]).
//!
//! The disk path is **fault-tolerant**: block reads return typed
//! [`StoreError`]s instead of panicking, and a deterministic
//! [`fault::FaultBackend`] injects failures under any [`PageBackend`] for
//! chaos testing.

pub mod cache;
pub mod cracking;
pub mod cursor;
pub mod encoded;
pub mod fault;
pub mod index;
pub mod memstore;
pub mod mvcc;
pub mod prefetch;
pub mod segment;
pub mod shard;

pub use cache::LruCache;
pub use cracking::CrackerColumn;
pub use cursor::SortedCursor;
pub use encoded::{EncodedTriple, Pattern};
pub use fault::{FaultBackend, FaultConfig, FaultSnapshot};
pub use memstore::{StoreStats, TripleStore};
pub use mvcc::{CommitOutcome, DeltaFrame, FramesSince, LiveStore, Snapshot, WalSink, WriteBatch};
pub use segment::{shape_key_bounds, shape_order, PageBackend, SegmentSource};
pub use shard::{Route, ShardMap};
pub use wodex_resilience::{RetrySnapshot, StoreError};
