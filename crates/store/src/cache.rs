//! The workspace's one LRU cache.
//!
//! §4: "*caching and prefetching techniques may be exploited*" [16, 33, 39,
//! 70, 76, 83, 128]. Exploration revisits state constantly (zoom out
//! after zoom in, back-navigation), so recency is the right eviction
//! signal — for query plans, rendered views, prefetched tiles and
//! decoded segment blocks alike. Every one of those caches is this type;
//! they differ only in what a unit of *weight* means (an entry, a byte of
//! SVG, an accounted byte of decoded keys).
//!
//! Eviction is stamp-and-scan: every touch stamps the entry with a
//! logical clock and a victim is found by scanning for the oldest stamp.
//! The maps here hold tens to a few hundred entries, so the scan is
//! cheaper than maintaining an intrusive list on every hit.

use std::collections::HashMap;
use std::hash::Hash;

/// Cache counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in \[0, 1\]; 0 when empty.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    stamp: u64,
}

/// A weight-accounted LRU map: the resident weight never exceeds the
/// capacity, and room is made by evicting the least recently used
/// entries.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, Entry<V>>,
    clock: u64,
    weight: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` units of weight.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: HashMap::new(),
            clock: 0,
            weight: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Weight currently resident.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up a key, refreshing its recency. Counts one hit or one
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let stamp = self.tick();
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = stamp;
                self.stats.hits += 1;
                Some(&e.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up a key without touching recency or stats — for callers
    /// that already accounted the lookup (a single-flight re-check after
    /// losing a race) or only ask whether a speculative load is needed.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|e| &e.value)
    }

    /// Inserts `value` as the most recently used entry, then evicts
    /// least recently used entries until the resident weight fits the
    /// capacity. A same-key insert replaces the value and re-accounts
    /// its weight. An entry heavier than the whole capacity is refused:
    /// nothing is evicted for it (and a previous value under its key is
    /// dropped rather than left stale).
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        self.remove(&key);
        if weight > self.capacity {
            return;
        }
        let stamp = self.tick();
        self.weight += weight;
        self.map.insert(
            key,
            Entry {
                value,
                weight,
                stamp,
            },
        );
        while self.weight > self.capacity {
            // The entry just inserted carries the newest stamp and fits
            // on its own, so it is never the victim.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("weight > 0 implies a resident entry");
            self.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Drops one entry, returning its value. Not an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let e = self.map.remove(key)?;
        self.weight -= e.weight;
        Some(e.value)
    }

    /// Empties the cache and resets counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.weight = 0;
        self.stats = CacheStats::default();
    }
}
