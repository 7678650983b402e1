//! A memoizing view cache.
//!
//! §4: "*caching and prefetching techniques may be exploited*". Rendering
//! a view (profile → reduce → layout → scene → SVG) is the expensive step
//! of the interaction loop, and exploration revisits views constantly
//! (back-navigation, toggling between chart types). [`ViewCache`] puts
//! the workspace's LRU cache in front of the LDVM pipeline.
//!
//! The cache is interior-mutable: every method takes `&self`, so one
//! cache can serve concurrent readers behind a shared reference. The
//! lock recovers from poisoning — a render that panicked on another
//! thread must not take the whole cache down with it (an LRU map is
//! valid after any interrupted sequence of its operations).
//!
//! Concurrent misses of the *same* key are **single-flight**: the first
//! caller renders, every simultaneous caller waits for that one result
//! instead of duplicating the pipeline run. (N sessions opening the same
//! popular view at once is the common stampede; without coalescing they
//! would all pay the render and the last insert would win.)

use crate::explorer::Explorer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use wodex_obs::Counter;
use wodex_store::cache::{CacheStats, LruCache};
use wodex_viz::ldvm::View;
use wodex_viz::recommend::VisKind;

type Key = (String, Option<VisKind>);

/// A view whose SVG is larger than this is handed to its callers but not
/// kept: one node-link chart of a 10⁴-resource property is 2 MB on its
/// own, an eighth of the explorer's whole cache. Such a chart is laid out
/// again per request; concurrent requests for it still share one render.
pub const MAX_CACHED_SVG_BYTES: usize = 256 * 1024;

/// Global registry series for every view cache of the process. Each
/// [`ViewCache::lookup`] resolves to exactly one hit or miss, so
/// `hits + misses == lookups`; a miss leads to at most one render, so
/// `renders <= misses`.
struct CacheMetrics {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    renders: Arc<Counter>,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        CacheMetrics {
            lookups: r.counter("wodex_viewcache_lookups_total", "View cache lookups"),
            hits: r.counter(
                "wodex_viewcache_hits_total",
                "View cache lookups served a rendered view",
            ),
            misses: r.counter(
                "wodex_viewcache_misses_total",
                "View cache lookups that found no rendered view",
            ),
            renders: r.counter(
                "wodex_viewcache_renders_total",
                "LDVM pipeline runs on behalf of the view cache",
            ),
        }
    })
}

/// The shared state of one in-progress render.
enum FlightResult {
    Pending,
    Ready(Arc<View>),
    /// The renderer panicked; waiters retry (and may render themselves).
    Aborted,
}

struct Flight {
    result: Mutex<FlightResult>,
    cv: Condvar,
}

/// Removes the flight from the map when the renderer is done — and, if
/// it unwound before publishing, marks the flight aborted so waiters
/// wake up and retry instead of blocking forever.
struct FlightGuard<'a> {
    cache: &'a ViewCache,
    key: &'a Key,
    flight: &'a Arc<Flight>,
    published: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            let mut r = self
                .flight
                .result
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *r = FlightResult::Aborted;
            self.flight.cv.notify_all();
        }
        self.cache
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.key);
    }
}

/// An LRU cache of rendered views keyed by `(predicate, chart kind)`,
/// bounded by the total bytes of SVG it holds. Views are handed out
/// behind [`Arc`]s: a hit copies no scene or SVG. Views over
/// [`MAX_CACHED_SVG_BYTES`] are rendered and shared among the callers
/// waiting for them, never kept.
pub struct ViewCache {
    cache: Mutex<LruCache<Key, Arc<View>>>,
    flights: Mutex<HashMap<Key, Arc<Flight>>>,
    renders: AtomicU64,
}

impl ViewCache {
    /// Creates a cache holding at most `capacity` bytes of SVG.
    pub fn new(capacity: usize) -> ViewCache {
        // Touch the series so a scrape shows them at zero before the
        // first lookup.
        let _ = cache_metrics();
        ViewCache {
            cache: Mutex::new(LruCache::new(capacity)),
            flights: Mutex::new(HashMap::new()),
            renders: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<Key, Arc<View>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached view, if there is one. Counts as one lookup and one
    /// hit or miss; never renders.
    pub fn lookup(&self, predicate: &str, kind: Option<VisKind>) -> Option<Arc<View>> {
        let m = cache_metrics();
        m.lookups.inc();
        let found = self.lock().get(&(predicate.to_string(), kind)).cloned();
        match found {
            Some(_) => m.hits.inc(),
            None => m.misses.inc(),
        }
        found
    }

    /// Returns the cached view or runs the pipeline and caches the result.
    ///
    /// Concurrent callers missing on the same key share one pipeline run.
    pub fn view(&self, ex: &Explorer, predicate: &str, kind: Option<VisKind>) -> Arc<View> {
        self.lookup(predicate, kind)
            .unwrap_or_else(|| self.render(ex, predicate, kind))
    }

    /// The miss path of [`ViewCache::view`], for callers that did their
    /// own [`ViewCache::lookup`]: renders the view — or waits for the
    /// render of the same key already in flight — and caches it.
    pub fn render(&self, ex: &Explorer, predicate: &str, kind: Option<VisKind>) -> Arc<View> {
        let key = (predicate.to_string(), kind);
        loop {
            // Claim the key's flight or join the one in progress.
            let (flight, renderer) = {
                let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
                match flights.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight {
                            result: Mutex::new(FlightResult::Pending),
                            cv: Condvar::new(),
                        });
                        flights.insert(key.clone(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if renderer {
                return self.render_flight(ex, predicate, kind, &key, &flight);
            }
            // Wait for the renderer to publish.
            let mut r = flight.result.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*r {
                    FlightResult::Pending => {
                        r = flight.cv.wait(r).unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightResult::Ready(v) => return Arc::clone(v),
                    FlightResult::Aborted => break, // Renderer panicked: retry.
                }
            }
        }
    }

    /// The winning caller's path: render outside every lock (a slow or
    /// panicking pipeline must not block cache hits), publish to the
    /// cache and to waiters.
    fn render_flight(
        &self,
        ex: &Explorer,
        predicate: &str,
        kind: Option<VisKind>,
        key: &Key,
        flight: &Arc<Flight>,
    ) -> Arc<View> {
        let mut guard = FlightGuard {
            cache: self,
            key,
            flight,
            published: false,
        };
        // Lost-race re-check: the previous flight may have completed
        // between this caller's miss and its claim. `peek` skips
        // the stats, so the call still accounts exactly one miss.
        let cached = self.lock().peek(key).cloned();
        let v = match cached {
            Some(v) => v,
            None => {
                let v = Arc::new(match kind {
                    Some(k) => ex.visualize_as(predicate, k),
                    None => ex.visualize(predicate),
                });
                self.renders.fetch_add(1, Ordering::Relaxed);
                cache_metrics().renders.inc();
                if v.svg.len() <= MAX_CACHED_SVG_BYTES {
                    self.lock().insert(key.clone(), Arc::clone(&v), v.svg.len());
                }
                v
            }
        };
        {
            let mut r = flight.result.lock().unwrap_or_else(PoisonError::into_inner);
            *r = FlightResult::Ready(Arc::clone(&v));
            flight.cv.notify_all();
        }
        guard.published = true;
        drop(guard); // Removes the flight from the map.
        v
    }

    /// Cache counters (hits/misses/evictions).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Pipeline runs performed on behalf of this cache — with
    /// single-flight, at most one per key per cache generation no matter
    /// how many callers miss concurrently.
    pub fn renders(&self) -> u64 {
        self.renders.load(Ordering::Relaxed)
    }

    /// Drops every cached view — call after the underlying data changes.
    pub fn invalidate(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_synth::dbpedia::{self, DbpediaConfig};

    fn explorer() -> Explorer {
        Explorer::from_graph(dbpedia::generate(&DbpediaConfig {
            entities: 150,
            ..Default::default()
        }))
    }

    const POP: &str = "http://dbp.example.org/ontology/population";

    #[test]
    fn second_request_is_a_hit_with_identical_view() {
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        let a = cache.view(&ex, POP, None);
        let b = cache.view(&ex, POP, None);
        assert_eq!(a.svg, b.svg);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(cache.renders(), 1);
    }

    #[test]
    fn kind_is_part_of_the_key() {
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        cache.view(&ex, POP, None);
        cache.view(&ex, POP, Some(VisKind::Line));
        assert_eq!(cache.stats().misses, 2);
        cache.view(&ex, POP, Some(VisKind::Line));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn capacity_evicts_and_invalidate_clears() {
        let ex = explorer();
        let area = "http://dbp.example.org/ontology/area";
        // Room for either chart, not for both.
        let bytes = |p| ex.visualize(p).svg.len();
        let cache = ViewCache::new(bytes(POP).max(bytes(area)));
        cache.view(&ex, POP, None);
        cache.view(&ex, area, None);
        cache.view(&ex, POP, None); // evicted → miss again
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().evictions, 2);
        cache.invalidate();
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn an_oversized_view_is_rendered_per_request_and_never_kept() {
        // A node-link chart of a few thousand resources is past the cap.
        let ex = Explorer::from_graph(dbpedia::generate(&DbpediaConfig {
            entities: 1_500,
            ..Default::default()
        }));
        let links = "http://dbp.example.org/ontology/linksTo";
        let cache = ViewCache::new(1 << 20);
        let a = cache.view(&ex, links, None);
        assert!(a.svg.len() > MAX_CACHED_SVG_BYTES, "{} bytes", a.svg.len());
        let b = cache.view(&ex, links, None);
        assert_eq!(a.svg, b.svg);
        assert_eq!(cache.renders(), 2);
        assert!(cache.lookup(links, None).is_none());
        // A small view beside it is kept as before.
        cache.view(&ex, POP, None);
        assert!(cache.lookup(POP, None).is_some());
    }

    #[test]
    fn exploration_revisit_pattern_mostly_hits() {
        // A/B/A/B toggling between two chart types — the back-navigation
        // pattern caching exists for.
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        for _ in 0..5 {
            cache.view(&ex, POP, Some(VisKind::HistogramChart));
            cache.view(&ex, POP, Some(VisKind::Line));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 8);
        assert!(s.hit_ratio() > 0.75);
    }

    #[test]
    fn shared_across_threads() {
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let v = cache.view(&ex, POP, None);
                    assert!(v.svg.contains("<svg"));
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4);
        assert!(s.misses >= 1);
    }

    #[test]
    fn concurrent_misses_share_one_render() {
        // The stampede regression: N threads miss the same cold key at
        // once; single-flight must run the pipeline exactly once.
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let v = cache.view(&ex, POP, None);
                    assert!(v.svg.contains("<svg"));
                });
            }
        });
        assert_eq!(
            cache.renders(),
            1,
            "concurrent misses of one key must coalesce into one render"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
    }

    #[test]
    fn recovers_from_a_poisoned_lock() {
        let ex = explorer();
        let cache = ViewCache::new(1 << 20);
        cache.view(&ex, POP, None);
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.cache.lock().unwrap();
                    panic!("render blew up while holding the lock");
                })
                .join()
                .is_err()
        });
        assert!(poisoned);
        // The cache keeps serving — and the pre-panic entry survived.
        let v = cache.view(&ex, POP, None);
        assert!(v.svg.contains("<svg"));
        assert_eq!(cache.stats().hits, 1);
    }
}
