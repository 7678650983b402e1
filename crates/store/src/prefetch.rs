//! Exploration-aware prefetching.
//!
//! Pan/zoom interaction has strong *momentum*: the next viewport is
//! overwhelmingly likely to continue the current direction of movement.
//! The survey's §4 lists prefetching (\[16\] dynamic tile prefetching, \[39\]
//! visual-exploration prefetching, \[128\] latent-feature following) as a
//! key future direction for WoD systems. [`TilePrefetcher`] implements the
//! momentum strategy over an abstract 1-D/2-D tile space: after each demand
//! request it extrapolates the recent movement vector and preloads the
//! predicted tiles into an LRU tile cache.

use crate::cache::LruCache;
use std::sync::{Arc, OnceLock};
use wodex_obs::Counter;

/// A tile coordinate (1-D exploration uses `y = 0`).
pub type Tile = (i64, i64);

/// Global registry mirrors shared by every prefetcher in the process.
struct PrefetchMetrics {
    demand_hits: Arc<Counter>,
    demand_misses: Arc<Counter>,
    prefetched: Arc<Counter>,
}

fn prefetch_metrics() -> &'static PrefetchMetrics {
    static METRICS: OnceLock<PrefetchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        PrefetchMetrics {
            demand_hits: r.counter(
                "wodex_store_prefetch_demand_hits_total",
                "Demand tile requests served from the prefetch cache",
            ),
            demand_misses: r.counter(
                "wodex_store_prefetch_demand_misses_total",
                "Demand tile requests that fetched synchronously",
            ),
            prefetched: r.counter(
                "wodex_store_prefetch_speculative_total",
                "Tiles preloaded speculatively along the movement vector",
            ),
        }
    })
}

/// Prefetcher counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Demand requests served from cache.
    pub demand_hits: u64,
    /// Demand requests that had to fetch synchronously.
    pub demand_misses: u64,
    /// Tiles preloaded speculatively.
    pub prefetched: u64,
}

impl PrefetchStats {
    /// Fraction of demand requests served without a synchronous fetch.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.demand_hits + self.demand_misses;
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }
}

/// A tile cache with momentum-based prefetching.
pub struct TilePrefetcher<V> {
    cache: LruCache<Tile, V>,
    history: Vec<Tile>,
    depth: usize,
    stats: PrefetchStats,
}

impl<V: Clone> TilePrefetcher<V> {
    /// Creates a prefetcher with an LRU tile cache of `capacity` tiles,
    /// prefetching `depth` tiles ahead along the movement vector
    /// (`depth = 0` disables prefetching — the baseline configuration for
    /// experiment E6).
    pub fn new(capacity: usize, depth: usize) -> TilePrefetcher<V> {
        TilePrefetcher {
            cache: LruCache::new(capacity),
            history: Vec::new(),
            depth,
            stats: PrefetchStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Handles a demand request for `tile`; `fetch` loads a tile's payload
    /// when it is not resident. Returns the payload and then prefetches
    /// predicted tiles.
    pub fn request(&mut self, tile: Tile, mut fetch: impl FnMut(Tile) -> V) -> V {
        match self.try_request(tile, |t| Ok::<V, std::convert::Infallible>(fetch(t))) {
            Ok(v) => v,
        }
    }

    /// Fallible [`TilePrefetcher::request`]: a failed *demand* fetch
    /// propagates its error (nothing is cached); a failed *speculative*
    /// fetch is dropped silently — prefetching is best-effort, and the
    /// demand path will retry the tile properly if it is ever needed.
    pub fn try_request<E>(
        &mut self,
        tile: Tile,
        mut fetch: impl FnMut(Tile) -> Result<V, E>,
    ) -> Result<V, E> {
        // Single lookup: get-then-get on the LRU would bump recency twice
        // and TOCTOU-races against any future interior mutability.
        let m = prefetch_metrics();
        let value = match self.cache.get(&tile).cloned() {
            Some(v) => {
                self.stats.demand_hits += 1;
                m.demand_hits.inc();
                v
            }
            None => {
                self.stats.demand_misses += 1;
                m.demand_misses.inc();
                let v = fetch(tile)?;
                self.cache.insert(tile, v.clone(), 1);
                v
            }
        };
        self.history.push(tile);
        if self.history.len() > 8 {
            self.history.remove(0);
        }
        for t in self.predict() {
            if self.cache.peek(&t).is_none() {
                if let Ok(v) = fetch(t) {
                    self.cache.insert(t, v, 1);
                    self.stats.prefetched += 1;
                    m.prefetched.inc();
                }
            }
        }
        Ok(value)
    }

    /// Predicts the next tiles by extrapolating the last movement vector.
    /// No movement (or a single observation) predicts nothing.
    pub fn predict(&self) -> Vec<Tile> {
        if self.depth == 0 || self.history.len() < 2 {
            return Vec::new();
        }
        let a = self.history[self.history.len() - 2];
        let b = self.history[self.history.len() - 1];
        let v = (b.0 - a.0, b.1 - a.1);
        if v == (0, 0) {
            return Vec::new();
        }
        (1..=self.depth as i64)
            .map(|k| (b.0 + v.0 * k, b.1 + v.1 * k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a straight pan of `steps` tiles and returns the hit ratio.
    fn pan_hit_ratio(depth: usize, steps: i64) -> f64 {
        let mut pf: TilePrefetcher<u64> = TilePrefetcher::new(64, depth);
        for x in 0..steps {
            pf.request((x, 0), |t| (t.0 * 1000 + t.1) as u64);
        }
        pf.stats().hit_ratio()
    }

    #[test]
    fn no_prefetch_baseline_always_misses_on_a_pan() {
        assert_eq!(pan_hit_ratio(0, 50), 0.0);
    }

    #[test]
    fn momentum_prefetch_hits_on_a_steady_pan() {
        let r = pan_hit_ratio(2, 50);
        assert!(r > 0.9, "steady pan should be nearly all hits, got {r}");
    }

    #[test]
    fn prediction_follows_direction_changes() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(64, 2);
        pf.request((0, 0), |t| t.0);
        pf.request((1, 0), |t| t.0);
        assert_eq!(pf.predict(), vec![(2, 0), (3, 0)]);
        pf.request((1, 1), |t| t.0); // turn upward
        assert_eq!(pf.predict(), vec![(1, 2), (1, 3)]);
    }

    #[test]
    fn stationary_viewport_predicts_nothing() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(8, 3);
        pf.request((5, 5), |_| 0);
        pf.request((5, 5), |_| 0);
        assert!(pf.predict().is_empty());
    }

    #[test]
    fn revisits_hit_via_lru() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(16, 0);
        pf.request((0, 0), |_| 1);
        pf.request((1, 0), |_| 1);
        pf.request((0, 0), |_| panic!("cached"));
        assert_eq!(pf.stats().demand_hits, 1);
    }

    #[test]
    fn fetch_returns_payload() {
        let mut pf: TilePrefetcher<String> = TilePrefetcher::new(4, 1);
        let v = pf.request((3, 4), |t| format!("{},{}", t.0, t.1));
        assert_eq!(v, "3,4");
    }

    #[test]
    fn demand_fetch_error_propagates_and_caches_nothing() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(8, 2);
        let r = pf.try_request((0, 0), |_| Err::<i64, &str>("disk gone"));
        assert_eq!(r, Err("disk gone"));
        // Next demand for the same tile is a miss — nothing was cached.
        let v = pf.try_request((0, 0), |_| Ok::<_, &str>(9)).unwrap();
        assert_eq!(v, 9);
        assert_eq!(pf.stats().demand_hits, 0);
        assert_eq!(pf.stats().demand_misses, 2);
    }

    #[test]
    fn speculative_fetch_errors_are_swallowed() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(64, 3);
        pf.try_request((0, 0), |t| Ok::<_, &str>(t.0)).unwrap();
        // Second request establishes momentum; speculative fetches fail.
        let v = pf
            .try_request((1, 0), |t| if t == (1, 0) { Ok(1) } else { Err("flaky") })
            .unwrap();
        assert_eq!(v, 1);
        assert_eq!(pf.stats().prefetched, 0);
        // A later demand for the never-prefetched tile still works.
        let v = pf.try_request((2, 0), |_| Ok::<_, &str>(2)).unwrap();
        assert_eq!(v, 2);
    }

    #[test]
    fn prefetched_counter_tracks_speculative_loads() {
        let mut pf: TilePrefetcher<i64> = TilePrefetcher::new(64, 3);
        pf.request((0, 0), |_| 0);
        assert_eq!(pf.stats().prefetched, 0); // no vector yet
        pf.request((1, 0), |_| 0);
        assert_eq!(pf.stats().prefetched, 3);
    }
}
