//! Decoded-block cache: the segment scan engine's hot tier.
//!
//! PR 8's segment store decodes every candidate block from scratch on
//! every scan — an exploration session that zooms/filters the same
//! region pays full varint-decode cost dozens of times. The survey's §4
//! prescription (caching + prefetching over disk-resident data for
//! interactive latency) lands here: a process-wide, sharded LRU of
//! **decoded** blocks, keyed by `(segment id, section, block index)`
//! and holding `Arc<Vec<[u32; 3]>>` so hot blocks decode once and are
//! shared zero-copy across concurrent readers and MVCC snapshots.
//!
//! **Invalidation is by segment identity, not by mutation.** Segment
//! files are immutable; every (re)open — bulk load, delta compaction,
//! MVCC reopen — constructs fresh [`crate::store::Segment`] values,
//! and each takes a fresh process-unique id from [`next_segment_id`].
//! A new generation therefore caches under new keys and can never
//! observe a stale block; entries for dropped generations simply age
//! out of the LRU. There is no explicit invalidation call to forget.
//!
//! Capacity is bytes-accounted (decoded keys + fixed per-entry
//! overhead) and split evenly across lock shards, each of which is one
//! [`wodex_store::LruCache`] — this module adds only the sharding and
//! the metrics. The process-wide instance is sized by
//! `WODEX_SEGCACHE_MB`; `0` disables caching entirely, and every scan
//! then reads and checksum-verifies its blocks from the segment file —
//! there is no second cache tier behind this one. Every lookup counts
//! exactly one hit or one miss, so `wodex_segcache_hits_total +
//! wodex_segcache_misses_total == wodex_segcache_lookups_total` holds
//! at every instant, and `wodex_segcache_bytes` is the weight resident
//! in the caches that are alive: a dropped cache takes its bytes off
//! the gauge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use wodex_obs::{Counter, Gauge};
use wodex_store::LruCache;

/// Default process-wide cache capacity when `WODEX_SEGCACHE_MB` is
/// unset.
pub const DEFAULT_CAPACITY_MB: usize = 64;

/// Lock shards — enough to keep 8-thread scan storms off one mutex.
const SHARDS: usize = 16;

/// Accounted bytes per cached key (12 data bytes + amortized `Vec`,
/// `Arc` and map-entry overhead).
const BYTES_PER_KEY: usize = 12;

/// Fixed accounted overhead per cache entry.
const ENTRY_OVERHEAD: usize = 96;

/// A decoded block shared zero-copy between the cache and its readers.
pub type CachedBlock = Arc<Vec<[u32; 3]>>;

/// Cache key: which decoded block of which segment generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Process-unique segment id from [`next_segment_id`] — the
    /// generation tag that makes invalidation implicit.
    pub segment: u64,
    /// Section (0 = SPO, 1 = POS, 2 = OSP).
    pub section: u8,
    /// Block index within the section.
    pub block: u32,
}

/// Allocates a process-unique id for a newly opened segment. Ids are
/// never reused, so a reopened segment (delta compaction, MVCC reopen)
/// can never collide with cached blocks of its previous generation.
pub fn next_segment_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Global registry series for the decoded-block cache.
struct CacheMetrics {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes: Arc<Gauge>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        CacheMetrics {
            lookups: r.counter(
                "wodex_segcache_lookups_total",
                "Decoded-block cache lookups",
            ),
            hits: r.counter(
                "wodex_segcache_hits_total",
                "Decoded-block cache lookups served from the cache",
            ),
            misses: r.counter(
                "wodex_segcache_misses_total",
                "Decoded-block cache lookups that required a decode",
            ),
            evictions: r.counter(
                "wodex_segcache_evictions_total",
                "Decoded blocks evicted by LRU capacity pressure",
            ),
            bytes: r.gauge(
                "wodex_segcache_bytes",
                "Accounted bytes resident in the decoded-block cache",
            ),
        }
    })
}

/// Per-instance lookup statistics (atomic snapshot, test/bench
/// bookkeeping — the registry carries the process-wide series).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups against this instance.
    pub lookups: AtomicU64,
    /// Lookups served from this instance.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// Entries evicted from this instance.
    pub evictions: AtomicU64,
}

type Shard = LruCache<BlockKey, CachedBlock>;

/// Sharded bytes-accounted LRU over decoded blocks.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    stats: CacheStats,
}

impl BlockCache {
    /// A cache holding at most ~`capacity_bytes` accounted bytes.
    pub fn new(capacity_bytes: usize) -> BlockCache {
        let shard_capacity = (capacity_bytes / SHARDS).max(ENTRY_OVERHEAD);
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(LruCache::new(shard_capacity)))
                .collect(),
            stats: CacheStats::default(),
        }
    }

    /// The process-wide instance, sized by `WODEX_SEGCACHE_MB`
    /// (default [`DEFAULT_CAPACITY_MB`]); `None` when the variable is
    /// set to `0` (cache disabled).
    pub fn global() -> Option<&'static Arc<BlockCache>> {
        static GLOBAL: OnceLock<Option<Arc<BlockCache>>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let mb = std::env::var("WODEX_SEGCACHE_MB")
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(DEFAULT_CAPACITY_MB);
                (mb > 0).then(|| Arc::new(BlockCache::new(mb << 20)))
            })
            .as_ref()
    }

    fn shard(&self, key: &BlockKey) -> MutexGuard<'_, Shard> {
        // Cheap FNV-style mix; BlockKey is tiny and segment ids are
        // sequential, so fold every field in.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for part in [key.segment, u64::from(key.section), u64::from(key.block)] {
            h = (h ^ part).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.shards[(h as usize) % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up one decoded block. Counts exactly one lookup and one
    /// hit or miss — the conservation law the observability suite
    /// asserts under concurrent load.
    pub fn get(&self, key: BlockKey) -> Option<CachedBlock> {
        let m = cache_metrics();
        m.lookups.inc();
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let found = self.shard(&key).get(&key).cloned();
        let (global, local) = match found {
            Some(_) => (&m.hits, &self.stats.hits),
            None => (&m.misses, &self.stats.misses),
        };
        global.inc();
        local.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a freshly decoded block, evicting least-recently-used
    /// entries while the shard is over capacity. A racing insert of the
    /// same key (two threads missing concurrently) is accounted once,
    /// and a block heavier than a whole shard is refused rather than
    /// allowed to thrash it. Counts no lookup.
    pub fn insert(&self, key: BlockKey, keys: CachedBlock) {
        let bytes = keys.len() * BYTES_PER_KEY + ENTRY_OVERHEAD;
        let mut shard = self.shard(&key);
        let before = (shard.weight(), shard.stats().evictions);
        shard.insert(key, keys, bytes);
        let after = (shard.weight(), shard.stats().evictions);
        drop(shard);
        let m = cache_metrics();
        m.bytes.add(after.0 as i64 - before.0 as i64);
        let evicted = after.1 - before.1;
        if evicted > 0 {
            m.evictions.add(evicted);
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Accounted bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).weight())
            .sum()
    }

    /// Per-instance lookup statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl Drop for BlockCache {
    /// `wodex_segcache_bytes` counts bytes held by live caches only.
    fn drop(&mut self) {
        cache_metrics().bytes.add(-(self.resident_bytes() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(seed: u32, len: usize) -> CachedBlock {
        Arc::new((0..len as u32).map(|i| [seed, i, seed ^ i]).collect())
    }

    fn key(segment: u64, block: u32) -> BlockKey {
        BlockKey {
            segment,
            section: 0,
            block,
        }
    }

    #[test]
    fn get_after_insert_returns_the_same_allocation() {
        let c = BlockCache::new(1 << 20);
        let b = block(1, 100);
        c.insert(key(1, 0), Arc::clone(&b));
        let got = c.get(key(1, 0)).expect("hit");
        assert!(Arc::ptr_eq(&got, &b), "zero-copy: same allocation");
        assert!(c.get(key(2, 0)).is_none(), "other generation is a miss");
        let s = c.stats();
        assert_eq!(s.lookups.load(Ordering::Relaxed), 2);
        assert_eq!(s.hits.load(Ordering::Relaxed), 1);
        assert_eq!(s.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn segment_ids_are_unique_across_threads() {
        let ids: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..100).map(|_| next_segment_id()).collect::<Vec<_>>()))
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "no id reuse");
    }
}
