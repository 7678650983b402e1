//! Multi-session state: tokens → [`ExplorationSession`]s.
//!
//! §2 defines exploration as a *sequence* of operations whose state lives
//! across requests; a web-facing explorer (SynopsViz, eLinda) therefore
//! needs server-side sessions. The [`SessionManager`] keys live
//! [`ExplorationSession`]s by token over **one shared exploration
//! index** — facet postings, token postings and numeric columns are
//! built once per server, and `ExplorationSession::over` adds per session
//! only an operation log and one bitset (a bit per subject) per logged
//! step: a thousand sessions cost kilobytes each, not a thousand indexes.
//! Capacity is bounded: least-recently-used sessions are evicted once the
//! cap is hit, and idle sessions past the TTL expire lazily.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wodex_explore::{ExplorationSession, ExploreIndex};

/// One live session plus its bookkeeping.
struct Entry {
    session: Arc<Mutex<ExplorationSession>>,
    last_used: Instant,
}

/// Counters the `/stats` endpoint reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently alive.
    pub active: usize,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions evicted by the LRU cap.
    pub evicted: u64,
    /// Sessions dropped by TTL expiry.
    pub expired: u64,
}

/// Token-keyed session store with LRU eviction and TTL expiry.
pub struct SessionManager {
    index: Arc<ExploreIndex>,
    capacity: usize,
    ttl: Duration,
    inner: Mutex<HashMap<String, Entry>>,
    next_token: AtomicU64,
    opened: AtomicU64,
    evicted: AtomicU64,
    expired: AtomicU64,
}

impl SessionManager {
    /// A manager over one shared index, holding at most `capacity` live
    /// sessions, each expiring after `ttl` of inactivity.
    pub fn new(index: Arc<ExploreIndex>, capacity: usize, ttl: Duration) -> SessionManager {
        SessionManager {
            index,
            capacity: capacity.max(1),
            ttl,
            inner: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Opens a new session and returns its token: O(1) — a handle on the
    /// shared index and an empty log. If the store is full, the
    /// least-recently-used session is evicted.
    pub fn open(&self) -> String {
        let session = ExplorationSession::over(Arc::clone(&self.index));
        let token = format!("s{}", self.next_token.fetch_add(1, Ordering::Relaxed));
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Self::sweep_expired(&mut map, self.ttl, &self.expired);
        while map.len() >= self.capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            map.remove(&oldest);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(
            token.clone(),
            Entry {
                session: Arc::new(Mutex::new(session)),
                last_used: Instant::now(),
            },
        );
        self.opened.fetch_add(1, Ordering::Relaxed);
        token
    }

    /// Runs `f` on the session for `token`, refreshing its LRU/TTL
    /// clock. Returns `None` for unknown (or expired) tokens.
    ///
    /// The map lock is released before `f` runs — only the one session's
    /// own mutex is held, so requests on different sessions proceed in
    /// parallel.
    pub fn with<R>(&self, token: &str, f: impl FnOnce(&mut ExplorationSession) -> R) -> Option<R> {
        let session = {
            let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            Self::sweep_expired(&mut map, self.ttl, &self.expired);
            let entry = map.get_mut(token)?;
            entry.last_used = Instant::now();
            Arc::clone(&entry.session)
        };
        let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut guard))
    }

    /// Drops every entry idle longer than the TTL.
    fn sweep_expired(map: &mut HashMap<String, Entry>, ttl: Duration, expired: &AtomicU64) {
        let now = Instant::now();
        let stale: Vec<String> = map
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_used) > ttl)
            .map(|(k, _)| k.clone())
            .collect();
        for k in stale {
            map.remove(&k);
            expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> SessionStats {
        let map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        SessionStats {
            active: map.len(),
            opened: self.opened.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::{Graph, Term, Triple};

    fn index() -> Arc<ExploreIndex> {
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert(Triple::iri(
                &format!("http://e.org/e{i}"),
                wodex_rdf::vocab::rdf::TYPE,
                Term::iri("http://e.org/Thing"),
            ));
        }
        Arc::new(ExploreIndex::from_graph(&g))
    }

    #[test]
    fn open_and_use_a_session() {
        let m = SessionManager::new(index(), 8, Duration::from_secs(60));
        let t = m.open();
        let n = m.with(&t, |s| s.matching_count()).unwrap();
        assert_eq!(n, 10);
        assert!(m.with("nope", |_| ()).is_none());
        assert_eq!(m.stats().active, 1);
        assert_eq!(m.stats().opened, 1);
    }

    #[test]
    fn sessions_share_the_index() {
        let index = index();
        let m = SessionManager::new(Arc::clone(&index), 8, Duration::from_secs(60));
        let base = Arc::strong_count(&index);
        let a = m.open();
        let b = m.open();
        // Each session adds exactly one Arc handle — no index rebuilds.
        assert_eq!(Arc::strong_count(&index), base + 2);
        assert_ne!(a, b);
    }

    #[test]
    fn lru_evicts_the_coldest_session() {
        let m = SessionManager::new(index(), 2, Duration::from_secs(60));
        let a = m.open();
        let b = m.open();
        // Touch `a` so `b` is the LRU victim.
        m.with(&a, |_| ()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let c = m.open();
        assert_eq!(m.stats().active, 2);
        assert_eq!(m.stats().evicted, 1);
        assert!(m.with(&a, |_| ()).is_some());
        assert!(m.with(&c, |_| ()).is_some());
        assert!(m.with(&b, |_| ()).is_none(), "b was least recently used");
    }

    #[test]
    fn ttl_expires_idle_sessions() {
        let m = SessionManager::new(index(), 8, Duration::from_millis(10));
        let t = m.open();
        std::thread::sleep(Duration::from_millis(25));
        assert!(m.with(&t, |_| ()).is_none());
        assert_eq!(m.stats().expired, 1);
        assert_eq!(m.stats().active, 0);
    }

    #[test]
    fn session_state_persists_across_requests() {
        let m = SessionManager::new(index(), 8, Duration::from_secs(60));
        let t = m.open();
        m.with(&t, |s| {
            s.filter(wodex_rdf::vocab::rdf::TYPE, "http://e.org/Thing")
        })
        .unwrap();
        let log_len = m.with(&t, |s| s.log().len()).unwrap();
        assert_eq!(log_len, 1);
    }
}
