//! MVCC snapshot writes over the layered store.
//!
//! The survey's "dynamic setting" demands more than streaming inserts:
//! exploration sessions, cached plans, and in-flight queries must keep a
//! *consistent point-in-time view* while writers keep committing. Before
//! this module, every mutation bumped [`TripleStore::revision`] in place,
//! wholesale-invalidating anything keyed on it. [`LiveStore`] replaces
//! that with multi-version concurrency control in the LSM shape the rest
//! of the store already speaks:
//!
//! * Readers call [`LiveStore::snapshot`] and get an immutable
//!   [`Snapshot`] — an `Arc`'d [`TripleStore`] pinned to a commit
//!   revision. Snapshots are never mutated, so a reader's whole query
//!   (or exploration session) sees one frozen state, and the plan cache
//!   key (`store.revision()`) stays *stable* for as long as the snapshot
//!   lives — concurrent writes stop evicting hot plans.
//! * Writers batch mutations into a [`WriteBatch`] and
//!   [`LiveStore::commit`] it: the new version is a [`TripleStore`]
//!   layered over the previous snapshot via
//!   [`TripleStore::with_base`] — the commit cost is proportional to the
//!   batch, not to the dataset. Every `commit_every`-th commit the
//!   overlay chain is *flattened* back into a single-level store so read
//!   amplification stays bounded.
//! * Each commit publishes a revision-stamped [`DeltaFrame`] holding the
//!   *effective* changes (inserts that were new, deletes that were
//!   present) plus any newly interned terms. Frames feed incremental
//!   synopsis maintenance (`wodex-approx` / `wodex-hetree` live
//!   structures), the `wodex-seg` delta log (write-ahead durability),
//!   and server-push to open exploration sessions
//!   (`/explore/subscribe`).
//!
//! **Isolation contract**: a snapshot observes either all of a committed
//! batch or none of it, never a prefix. Commits are serialized by an
//! internal lock; publication is a single pointer swap under a mutex.
//! `tests/mvcc.rs` proves the contract differentially against a serial
//! replay.

use crate::encoded::EncodedTriple;
use crate::memstore::TripleStore;
use crate::segment::SegmentSource;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use wodex_obs::{Counter, Gauge};
use wodex_rdf::{Term, TermId, Triple};
use wodex_resilience::StoreError;

/// Default bound on the frame history kept for subscribers.
pub const DEFAULT_HISTORY_CAP: usize = 256;

/// Default overlay-chain depth at which a commit flattens the chain
/// back into a single-level store.
pub const DEFAULT_FLATTEN_DEPTH: usize = 8;

/// Global-registry series for the MVCC layer.
struct MvccMetrics {
    commits: Arc<Counter>,
    inserts: Arc<Counter>,
    deletes: Arc<Counter>,
    flattens: Arc<Counter>,
    wal_failures: Arc<Counter>,
    frames_pruned: Arc<Counter>,
    revision: Arc<Gauge>,
}

fn metrics() -> &'static MvccMetrics {
    static METRICS: OnceLock<MvccMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        MvccMetrics {
            commits: r.counter(
                "wodex_mvcc_commits_total",
                "Write batches committed to live stores",
            ),
            inserts: r.counter(
                "wodex_mvcc_inserts_total",
                "Effective triple inserts across committed batches",
            ),
            deletes: r.counter(
                "wodex_mvcc_deletes_total",
                "Effective triple deletes across committed batches",
            ),
            flattens: r.counter(
                "wodex_mvcc_flattens_total",
                "Overlay chains flattened back into single-level stores",
            ),
            wal_failures: r.counter(
                "wodex_mvcc_wal_failures_total",
                "Commits aborted by a write-ahead sink error (snapshot unchanged)",
            ),
            frames_pruned: r.counter(
                "wodex_mvcc_frames_pruned_total",
                "Delta frames dropped from bounded subscriber history",
            ),
            revision: r.gauge(
                "wodex_mvcc_revision",
                "Highest committed revision across live stores",
            ),
        }
    })
}

/// A batch of decoded mutations applied atomically by
/// [`LiveStore::commit`]. Deletes apply before inserts, so one batch can
/// replace a triple in place.
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    /// Triples to insert (duplicates of live triples are no-ops).
    pub inserts: Vec<Triple>,
    /// Triples to delete (absent triples are no-ops).
    pub deletes: Vec<Triple>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Queues an insert.
    pub fn insert(&mut self, t: Triple) -> &mut WriteBatch {
        self.inserts.push(t);
        self
    }

    /// Queues a delete.
    pub fn delete(&mut self, t: Triple) -> &mut WriteBatch {
        self.deletes.push(t);
        self
    }

    /// Total queued operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// The *effective* changes of one commit, stamped with the revision they
/// produced. Inserts that already existed and deletes of absent triples
/// are not recorded — applying a frame to revision `r-1` yields exactly
/// revision `r`, which is what makes frames sufficient for incremental
/// synopsis maintenance and subscriber push.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// The revision this frame produced (frames are dense: 1, 2, …).
    pub revision: u64,
    /// Encoded triples added by the commit.
    pub inserts: Vec<EncodedTriple>,
    /// Encoded triples removed by the commit.
    pub deletes: Vec<EncodedTriple>,
    /// Terms interned by this commit, in id order — the id space
    /// extension `[dict_len_before, dict_len_after)`. Carried so a
    /// durable log (or a remote subscriber) can decode the new ids
    /// without the full dictionary.
    pub new_terms: Vec<Term>,
}

impl DeltaFrame {
    /// True when the frame changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// An immutable point-in-time view of a [`LiveStore`].
///
/// The wrapped [`TripleStore`] is never mutated after publication, so
/// its [`TripleStore::revision`] is stable — queries evaluated against
/// it keep hitting the same plan-cache entries no matter how many
/// commits land concurrently.
#[derive(Debug, Clone)]
pub struct Snapshot {
    revision: u64,
    store: Arc<TripleStore>,
}

impl Snapshot {
    /// The commit revision this snapshot is pinned to (0 = initial).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The frozen store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The frozen store, shared.
    pub fn store_arc(&self) -> Arc<TripleStore> {
        Arc::clone(&self.store)
    }
}

/// The outcome of a successful [`LiveStore::commit`].
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// The published frame (empty and unpublished for a no-op batch).
    pub frame: Arc<DeltaFrame>,
    /// The snapshot the commit produced (the pre-commit snapshot for a
    /// no-op batch).
    pub snapshot: Snapshot,
}

/// The answer to "what changed since revision `r`?".
#[derive(Debug, Clone)]
pub struct FramesSince {
    /// Frames with `revision > since`, oldest first. Empty when the
    /// subscriber is current (or must resync).
    pub frames: Vec<Arc<DeltaFrame>>,
    /// The current head revision.
    pub revision: u64,
    /// True when the subscriber's cursor is unusable: `since` predates
    /// the bounded history (frames were pruned) or runs *ahead* of the
    /// current head (a cursor from a previous process lifetime whose
    /// revisions restarted). Either way the subscriber must re-read
    /// from a fresh snapshot instead of applying frames.
    pub resync: bool,
}

struct LiveState {
    current: Snapshot,
    /// Overlay levels stacked since the last flatten.
    depth: usize,
    history: VecDeque<Arc<DeltaFrame>>,
}

/// A sink invoked with each frame *before* it is published — the seam
/// the `wodex-seg` delta log plugs into for write-ahead durability. An
/// error aborts the commit: the in-memory snapshot never runs ahead of
/// the log, so there is no torn state to recover.
pub type WalSink = Box<dyn FnMut(&DeltaFrame) -> Result<(), StoreError> + Send>;

/// A multi-version store: immutable snapshots for readers, serialized
/// write batches for writers, bounded delta history for subscribers.
pub struct LiveStore {
    /// Serializes commits (held across version construction, *not* held
    /// while readers take snapshots).
    commit_lock: Mutex<()>,
    state: Mutex<LiveState>,
    publish: Condvar,
    history_cap: usize,
    flatten_depth: usize,
    wal: Mutex<Option<WalSink>>,
}

impl std::fmt::Debug for LiveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("LiveStore")
            .field("revision", &st.current.revision)
            .field("depth", &st.depth)
            .field("history", &st.history.len())
            .finish()
    }
}

impl LiveStore {
    /// Wraps an initial store as revision 0. The store is taken as-is —
    /// at write rate 0 a snapshot *is* the original store, so the
    /// snapshot read path adds nothing over querying it directly.
    pub fn new(initial: TripleStore) -> LiveStore {
        LiveStore::with_options(initial, DEFAULT_HISTORY_CAP, DEFAULT_FLATTEN_DEPTH)
    }

    /// [`LiveStore::new`] pinned to a non-zero starting revision — for
    /// reopening a durable store whose WAL replay ended at `revision`.
    /// Seeding the replayed revision keeps revisions ascending across
    /// process lifetimes (instead of restarting at 0), so a subscriber
    /// cursor from before a restart either resumes cleanly or is
    /// detected as stale by [`LiveStore::frames_since`] rather than
    /// silently treated as current.
    pub fn at_revision(initial: TripleStore, revision: u64) -> LiveStore {
        LiveStore::with_options_at(
            initial,
            revision,
            DEFAULT_HISTORY_CAP,
            DEFAULT_FLATTEN_DEPTH,
        )
    }

    /// [`LiveStore::new`] with explicit history and flatten bounds.
    pub fn with_options(
        initial: TripleStore,
        history_cap: usize,
        flatten_depth: usize,
    ) -> LiveStore {
        LiveStore::with_options_at(initial, 0, history_cap, flatten_depth)
    }

    /// [`LiveStore::new`] over a store that is already shared: revision 0
    /// *is* `initial` — [`Snapshot::store_arc`] at revision 0 points to
    /// the caller's allocation, nothing is copied. The server seeds its
    /// write path with the explorer's store this way.
    pub fn shared(initial: Arc<TripleStore>) -> LiveStore {
        LiveStore::assemble(initial, 0, DEFAULT_HISTORY_CAP, DEFAULT_FLATTEN_DEPTH)
    }

    /// [`LiveStore::at_revision`] with explicit history and flatten
    /// bounds.
    pub fn with_options_at(
        initial: TripleStore,
        revision: u64,
        history_cap: usize,
        flatten_depth: usize,
    ) -> LiveStore {
        LiveStore::assemble(Arc::new(initial), revision, history_cap, flatten_depth)
    }

    fn assemble(
        store: Arc<TripleStore>,
        revision: u64,
        history_cap: usize,
        flatten_depth: usize,
    ) -> LiveStore {
        let _ = metrics();
        LiveStore {
            commit_lock: Mutex::new(()),
            state: Mutex::new(LiveState {
                current: Snapshot { revision, store },
                depth: 0,
                history: VecDeque::new(),
            }),
            publish: Condvar::new(),
            history_cap: history_cap.max(1),
            flatten_depth: flatten_depth.max(1),
            wal: Mutex::new(None),
        }
    }

    /// Installs the write-ahead sink (replacing any previous one).
    pub fn set_wal(&self, sink: WalSink) {
        *self.wal.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    }

    /// The current snapshot — a cheap `Arc` clone under a short lock.
    pub fn snapshot(&self) -> Snapshot {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .current
            .clone()
    }

    /// The current head revision.
    pub fn revision(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .current
            .revision
    }

    /// Applies a batch atomically, publishing a new snapshot and frame.
    ///
    /// Serialized with other commits; readers are never blocked for the
    /// duration (only for the final pointer swap). A batch with no
    /// effective change publishes nothing and returns the pre-commit
    /// snapshot. A write-ahead sink error aborts the commit with the
    /// snapshot unchanged — **no torn snapshots**.
    pub fn commit(&self, batch: &WriteBatch) -> Result<CommitOutcome, StoreError> {
        let _serial = self
            .commit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (prev, depth) = {
            let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            (st.current.clone(), st.depth)
        };
        let base = prev.store_arc();
        let dict_len_before = base.dict().len();
        let mut next = TripleStore::with_base(
            base.dict().clone(),
            Arc::clone(&base) as Arc<dyn SegmentSource>,
        );
        let mut frame = DeltaFrame {
            revision: prev.revision + 1,
            inserts: Vec::new(),
            deletes: Vec::new(),
            new_terms: Vec::new(),
        };
        for t in &batch.deletes {
            if let Some(enc) = encode(&next, t) {
                if next.remove_encoded(enc) {
                    frame.deletes.push(enc);
                }
            }
        }
        for t in &batch.inserts {
            if next.insert(t) {
                let enc = encode(&next, t).expect("inserted terms are interned");
                frame.inserts.push(enc);
            }
        }
        if frame.is_empty() {
            return Ok(CommitOutcome {
                frame: Arc::new(frame),
                snapshot: prev,
            });
        }
        for i in dict_len_before..next.dict().len() {
            frame
                .new_terms
                .push(next.dict().term(TermId(i as u32)).clone());
        }
        // Bound read amplification: past the depth limit, fold the whole
        // overlay chain into one single-level store. Contents (and hence
        // the differential-replay contract) are unchanged.
        let mut new_depth = depth + 1;
        if new_depth >= self.flatten_depth {
            let sorted = next.snapshot_sorted();
            next = TripleStore::from_encoded(next.dict().clone(), sorted);
            new_depth = 0;
            metrics().flattens.inc();
        }
        if let Some(sink) = self
            .wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            if let Err(e) = sink(&frame) {
                metrics().wal_failures.inc();
                return Err(e);
            }
        }
        let frame = Arc::new(frame);
        let snapshot = Snapshot {
            revision: frame.revision,
            store: Arc::new(next),
        };
        {
            let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            st.current = snapshot.clone();
            st.depth = new_depth;
            st.history.push_back(Arc::clone(&frame));
            while st.history.len() > self.history_cap {
                st.history.pop_front();
                metrics().frames_pruned.inc();
            }
        }
        self.publish.notify_all();
        let m = metrics();
        m.commits.inc();
        m.inserts.add(frame.inserts.len() as u64);
        m.deletes.add(frame.deletes.len() as u64);
        m.revision.set(frame.revision as i64);
        Ok(CommitOutcome { frame, snapshot })
    }

    /// Frames committed after revision `since`, oldest first. If the
    /// bounded history no longer reaches back to `since + 1`, or
    /// `since` runs ahead of the current head (a cursor minted by a
    /// previous process lifetime), the subscriber must resync from a
    /// fresh snapshot instead.
    pub fn frames_since(&self, since: u64) -> FramesSince {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let revision = st.current.revision;
        if since == revision {
            return FramesSince {
                frames: Vec::new(),
                revision,
                resync: false,
            };
        }
        // A cursor past the head cannot have come from this store's
        // history — revisions restart when a process does. Telling the
        // subscriber it is current would silently detach it from every
        // subsequent commit; telling it to resync re-anchors it.
        if since > revision {
            return FramesSince {
                frames: Vec::new(),
                revision,
                resync: true,
            };
        }
        match st.history.front() {
            Some(front) if front.revision <= since + 1 => FramesSince {
                frames: st
                    .history
                    .iter()
                    .filter(|f| f.revision > since)
                    .cloned()
                    .collect(),
                revision,
                resync: false,
            },
            _ => FramesSince {
                frames: Vec::new(),
                revision,
                resync: true,
            },
        }
    }

    /// Blocks until a frame newer than `since` is published (or the
    /// timeout elapses), then returns [`LiveStore::frames_since`]. The
    /// long-poll primitive behind `/explore/subscribe`. A stale cursor
    /// (`since` past the head) answers immediately with `resync` set
    /// instead of burning the whole timeout.
    pub fn wait_for_frames(&self, since: u64, timeout: Duration) -> FramesSince {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.current.revision == since {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _timed_out) = self
                .publish
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        drop(st);
        self.frames_since(since)
    }
}

/// Encodes a decoded triple against a store's dictionary, `None` when a
/// term is not interned (the triple cannot be present).
fn encode(store: &TripleStore, t: &Triple) -> Option<EncodedTriple> {
    let s = store.id_of(&t.subject)?;
    let p = store.id_of(&t.predicate)?;
    let o = store.id_of(&t.object)?;
    Some([s.0, p.0, o.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::Pattern;
    use wodex_rdf::vocab::rdfs;

    fn t(s: usize, o: usize) -> Triple {
        Triple::iri(
            &format!("http://e.org/s{s}"),
            rdfs::LABEL,
            Term::literal(format!("v{o}")),
        )
    }

    fn seed_store(n: usize) -> TripleStore {
        let mut st = TripleStore::new();
        for i in 0..n {
            st.insert(&t(i, i));
        }
        st.merge_tail();
        st
    }

    fn all_sorted(store: &TripleStore) -> Vec<EncodedTriple> {
        let mut v = store.match_pattern(Pattern::any());
        v.sort_unstable();
        v
    }

    fn decoded_sorted(store: &TripleStore) -> Vec<String> {
        let mut v: Vec<String> = store
            .match_pattern(Pattern::any())
            .into_iter()
            .map(|e| store.decode(e).to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn snapshots_pin_state_across_commits() {
        let live = LiveStore::new(seed_store(10));
        let before = live.snapshot();
        assert_eq!(before.revision(), 0);
        let rev_before = before.store().revision();

        let mut batch = WriteBatch::new();
        batch.insert(t(100, 100)).delete(t(0, 0));
        let out = live.commit(&batch).expect("commit");
        assert_eq!(out.frame.revision, 1);
        assert_eq!(out.frame.inserts.len(), 1);
        assert_eq!(out.frame.deletes.len(), 1);

        // The old snapshot still sees the old state, bit for bit, and
        // its plan-cache key (the inner store revision) did not move.
        assert_eq!(before.store().len(), 10);
        assert!(before.store().contains(&t(0, 0)));
        assert!(!before.store().contains(&t(100, 100)));
        assert_eq!(before.store().revision(), rev_before);

        let after = live.snapshot();
        assert_eq!(after.revision(), 1);
        assert_eq!(after.store().len(), 10);
        assert!(!after.store().contains(&t(0, 0)));
        assert!(after.store().contains(&t(100, 100)));
    }

    #[test]
    fn a_shared_initial_store_is_revision_zero_itself() {
        let mine = Arc::new(seed_store(10));
        let live = LiveStore::shared(Arc::clone(&mine));
        assert_eq!(live.revision(), 0);
        assert!(Arc::ptr_eq(&mine, &live.snapshot().store_arc()));
        let mut batch = WriteBatch::new();
        batch.insert(t(100, 100)).delete(t(0, 0));
        live.commit(&batch).expect("commit");
        // The commit layered a new version over the shared store; the
        // caller's handle still reads revision 0.
        assert!(!Arc::ptr_eq(&mine, &live.snapshot().store_arc()));
        assert!(mine.contains(&t(0, 0)) && !mine.contains(&t(100, 100)));
        assert!(live.snapshot().store().contains(&t(100, 100)));
    }

    #[test]
    fn empty_and_noop_batches_publish_nothing() {
        let live = LiveStore::new(seed_store(5));
        let out = live.commit(&WriteBatch::new()).expect("empty commit");
        assert_eq!(out.snapshot.revision(), 0);
        assert!(out.frame.is_empty());
        // Duplicate insert + absent delete = no effective change.
        let mut batch = WriteBatch::new();
        batch.insert(t(0, 0)).delete(t(999, 999));
        let out = live.commit(&batch).expect("noop commit");
        assert_eq!(out.snapshot.revision(), 0);
        assert!(out.frame.is_empty());
        assert_eq!(live.revision(), 0);
    }

    #[test]
    fn frames_replay_to_identical_state_and_flatten_is_invisible() {
        // Flatten every 3 commits so the test crosses the fold.
        let live = LiveStore::with_options(seed_store(20), 64, 3);
        let mut replay = seed_store(20);
        let initial_frames: Vec<Arc<DeltaFrame>> = (0..10)
            .map(|i| {
                let mut batch = WriteBatch::new();
                batch.insert(t(100 + i, i)).delete(t(i, i));
                live.commit(&batch).expect("commit").frame
            })
            .collect();
        for f in &initial_frames {
            assert!(!f.is_empty());
            for &e in &f.deletes {
                let dec = live.snapshot().store().decode(e);
                assert!(replay.remove(&dec));
            }
            for &e in &f.inserts {
                let dec = live.snapshot().store().decode(e);
                assert!(replay.insert(&dec));
            }
        }
        assert_eq!(live.revision(), 10);
        assert_eq!(
            decoded_sorted(live.snapshot().store()),
            decoded_sorted(&replay)
        );
        // The id space also matches the direct store exactly (same dict
        // growth order), so encoded comparisons hold too.
        assert_eq!(all_sorted(live.snapshot().store()), all_sorted(&replay));
    }

    #[test]
    fn frames_since_and_resync() {
        let live = LiveStore::with_options(seed_store(4), 3, 100);
        for i in 0..5 {
            let mut b = WriteBatch::new();
            b.insert(t(50 + i, i));
            live.commit(&b).expect("commit");
        }
        // Current subscriber: nothing new.
        let fs = live.frames_since(5);
        assert!(fs.frames.is_empty() && !fs.resync);
        // Recent subscriber: gets the tail of history.
        let fs = live.frames_since(3);
        assert_eq!(fs.frames.len(), 2);
        assert_eq!(fs.frames[0].revision, 4);
        assert!(!fs.resync);
        // Ancient subscriber: history (cap 3) no longer reaches back.
        let fs = live.frames_since(0);
        assert!(fs.resync);
        assert!(fs.frames.is_empty());
        assert_eq!(fs.revision, 5);
        // Stale subscriber: a cursor past the head (minted before a
        // restart reset revisions) must be told to resync, not that it
        // is current — otherwise it detaches from every future commit.
        let fs = live.frames_since(9);
        assert!(fs.resync);
        assert!(fs.frames.is_empty());
        assert_eq!(fs.revision, 5);
        // The long-poll answers a stale cursor immediately (resync)
        // instead of blocking out the timeout.
        let t0 = Instant::now();
        let fs = live.wait_for_frames(9, Duration::from_secs(5));
        assert!(fs.resync);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn at_revision_continues_the_replayed_sequence() {
        let live = LiveStore::at_revision(seed_store(3), 7);
        assert_eq!(live.revision(), 7);
        assert_eq!(live.snapshot().revision(), 7);
        // A subscriber holding the pre-restart head stays current...
        let fs = live.frames_since(7);
        assert!(!fs.resync && fs.frames.is_empty());
        let mut b = WriteBatch::new();
        b.insert(t(70, 70));
        let out = live.commit(&b).expect("commit");
        // ...and the next commit continues the sequence densely.
        assert_eq!(out.frame.revision, 8);
        let fs = live.frames_since(7);
        assert_eq!(fs.frames.len(), 1);
        assert!(!fs.resync);
    }

    #[test]
    fn wait_for_frames_times_out_and_wakes() {
        let live = Arc::new(LiveStore::new(seed_store(2)));
        // Timeout path.
        let fs = live.wait_for_frames(0, Duration::from_millis(10));
        assert!(fs.frames.is_empty() && fs.revision == 0);
        // Wake path.
        let live2 = Arc::clone(&live);
        let waiter = std::thread::spawn(move || live2.wait_for_frames(0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        let mut b = WriteBatch::new();
        b.insert(t(9, 9));
        live.commit(&b).expect("commit");
        let fs = waiter.join().expect("join");
        assert_eq!(fs.frames.len(), 1);
        assert_eq!(fs.revision, 1);
    }

    #[test]
    fn wal_failure_aborts_commit_without_torn_snapshot() {
        let live = LiveStore::new(seed_store(3));
        live.set_wal(Box::new(|_f| {
            Err(StoreError::Io {
                op: "wal_append",
                detail: "injected wal failure".to_string(),
            })
        }));
        let mut b = WriteBatch::new();
        b.insert(t(7, 7));
        let err = live.commit(&b).expect_err("wal must abort the commit");
        assert!(matches!(err, StoreError::Io { .. }));
        assert_eq!(live.revision(), 0, "no revision published");
        assert!(!live.snapshot().store().contains(&t(7, 7)));
        // A healed sink lets the same batch through.
        live.set_wal(Box::new(|_f| Ok(())));
        live.commit(&b).expect("healed commit");
        assert_eq!(live.revision(), 1);
        assert!(live.snapshot().store().contains(&t(7, 7)));
    }

    #[test]
    fn new_terms_cover_the_id_extension() {
        let live = LiveStore::new(seed_store(1));
        let before = live.snapshot().store().dict().len();
        let mut b = WriteBatch::new();
        b.insert(t(42, 42));
        let out = live.commit(&b).expect("commit");
        let after = out.snapshot.store().dict().len();
        assert_eq!(out.frame.new_terms.len(), after - before);
        for (i, term) in out.frame.new_terms.iter().enumerate() {
            assert_eq!(
                out.snapshot
                    .store()
                    .dict()
                    .term(TermId((before + i) as u32)),
                term
            );
        }
    }
}
