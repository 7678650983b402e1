//! Delta write-ahead log and delta→base compaction.
//!
//! The segment store's files are immutable — that is what makes PR 8's
//! read path safe under compaction and crashes. Live writes therefore
//! need somewhere *else* to become durable: this module appends each
//! committed [`DeltaFrame`] to a checksummed write-ahead log
//! (`deltas.wal`) in the segment directory, reusing the segment block
//! codec (LEB128 delta-compressed key runs, the PR 2 64-bit page
//! checksum) one frame at a time. The [`LiveStore`] WAL seam calls
//! [`DeltaLog::append`] *before* publishing a snapshot, so the log never
//! lags the in-memory state and a crash loses at most an unpublished
//! commit — readers can never have observed it.
//!
//! Recovery is torn-tail truncation, like the paged store: frames are
//! `[checksum u64][len u32][payload]`; replay stops at the first frame
//! that fails bounds or checksum validation and the next append
//! overwrites the torn bytes.
//!
//! [`compact_deltas`] folds the log into the base: it replays the WAL
//! over the open [`SegmentStore`], writes one merged segment + dictionary
//! (both tmp→fsync→rename, like every other wodex-seg artifact), commits
//! by atomically rewriting the `MANIFEST`, then deletes the old segments
//! and truncates the log. A crash or injected fault at *any* step leaves
//! a directory whose reopen-and-replay equals the pre-compaction logical
//! state: before the manifest rename nothing changed; after it, frame
//! replay is idempotent (re-inserting a present triple and re-deleting an
//! absent one are no-ops), so the crash window between commit and log
//! truncation is harmless.
//!
//! Compaction requires **exclusive access** to the directory: it
//! truncates `deltas.wal` through its own handle, so a concurrently
//! open [`DeltaLog`] appender (whose committed offset would then point
//! past EOF) must be dropped before calling [`compact_deltas`] and
//! reopened afterwards. Nothing in the workspace holds a log open
//! across a compaction today — the serving layer's live store is
//! in-memory and the background compactor merges base segments only —
//! but the requirement is a caller contract, not an enforced lock.
//!
//! [`LiveStore`]: wodex_store::mvcc::LiveStore

use crate::store::{write_manifest, Manifest, ManifestEntry, SegmentStore};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use wodex_rdf::{ntriples, TermDict};
use wodex_resilience::{page_checksum, StoreError};
use wodex_store::encoded::{decode_key_run, encode_key_run, read_varint, write_varint};
use wodex_store::mvcc::{DeltaFrame, WalSink};
use wodex_store::{SegmentSource, TripleStore};

/// Write-ahead log file name inside a segment directory.
pub const DELTA_FILE: &str = "deltas.wal";

/// Frame header: 8-byte checksum + 4-byte payload length.
const FRAME_HEADER: usize = 12;

/// A seeded, per-operation-deterministic fault plan for chaos tests:
/// operation `i` faults iff `hash(seed, i)` lands under `rate`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaFaultPlan {
    /// Fault schedule seed.
    pub seed: u64,
    /// Fault probability per operation, 0.0..=1.0.
    pub rate: f64,
}

/// What an operation under a [`DeltaFaultPlan`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// Fail before any byte is written.
    Transient,
    /// Write a prefix of the bytes, then fail.
    Torn,
}

impl DeltaFaultPlan {
    fn roll(&self, index: u64) -> Fault {
        // splitmix64 over (seed, index): deterministic per schedule.
        let mut z = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.rate {
            Fault::None
        } else if z & 1 == 0 {
            Fault::Transient
        } else {
            Fault::Torn
        }
    }
}

/// Serializes one frame: `[checksum u64][len u32][payload]` with payload
/// `revision, new_terms (length-prefixed N-Triples spellings), inserts
/// and deletes as sorted delta-compressed key runs`.
fn encode_frame(frame: &DeltaFrame) -> Vec<u8> {
    let mut payload = Vec::new();
    write_varint(&mut payload, frame.revision);
    write_varint(&mut payload, frame.new_terms.len() as u64);
    for term in &frame.new_terms {
        let text = term.to_string();
        write_varint(&mut payload, text.len() as u64);
        payload.extend_from_slice(text.as_bytes());
    }
    for list in [&frame.inserts, &frame.deletes] {
        let mut keys = list.clone();
        keys.sort_unstable();
        keys.dedup();
        write_varint(&mut payload, keys.len() as u64);
        encode_key_run(&keys, &mut payload);
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&page_checksum(&payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes the frame at `*pos`, advancing past it. `None` on a torn or
/// corrupt frame — the caller truncates there.
fn decode_frame(data: &[u8], pos: &mut usize) -> Option<DeltaFrame> {
    let start = *pos;
    if data.len() - start < FRAME_HEADER {
        return None;
    }
    let checksum = u64::from_le_bytes(data[start..start + 8].try_into().ok()?);
    let len = u32::from_le_bytes(data[start + 8..start + FRAME_HEADER].try_into().ok()?) as usize;
    let body_start = start + FRAME_HEADER;
    let payload = data.get(body_start..body_start + len)?;
    if page_checksum(payload) != checksum {
        return None;
    }
    let mut p = 0usize;
    let revision = read_varint(payload, &mut p)?;
    let n_terms = read_varint(payload, &mut p)? as usize;
    let mut new_terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        let tlen = read_varint(payload, &mut p)? as usize;
        let text = std::str::from_utf8(payload.get(p..p + tlen)?).ok()?;
        p += tlen;
        new_terms.push(ntriples::parse_term(text).ok()?);
    }
    let mut runs = [Vec::new(), Vec::new()];
    for run in &mut runs {
        let count = read_varint(payload, &mut p)? as usize;
        decode_key_run(payload, &mut p, count, run)?;
    }
    let [inserts, deletes] = runs;
    *pos = body_start + len;
    Some(DeltaFrame {
        revision,
        inserts,
        deletes,
        new_terms,
    })
}

/// The append-only delta log of one segment directory.
#[derive(Debug)]
pub struct DeltaLog {
    file: std::fs::File,
    /// Byte offset of the end of the last durable frame. Appends always
    /// start here, so a torn tail is overwritten, never extended.
    committed: u64,
    fault: Option<DeltaFaultPlan>,
    appends: u64,
}

impl DeltaLog {
    /// Opens (creating if absent) `dir/deltas.wal`, replaying every
    /// intact frame and truncating any torn tail.
    pub fn open(dir: &Path) -> Result<(Vec<DeltaFrame>, DeltaLog), StoreError> {
        let path = dir.join(DELTA_FILE);
        let io = |detail: String| StoreError::Io {
            op: "delta_open",
            detail: format!("{}: {detail}", path.display()),
        };
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e.to_string())),
        };
        let mut frames = Vec::new();
        let mut pos = 0usize;
        while let Some(f) = decode_frame(&data, &mut pos) {
            frames.push(f);
        }
        if pos < data.len() {
            crate::metrics().delta_torn_tails.inc();
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io(e.to_string()))?;
        file.set_len(pos as u64).map_err(|e| io(e.to_string()))?;
        crate::metrics()
            .delta_frames_replayed
            .add(frames.len() as u64);
        Ok((
            frames,
            DeltaLog {
                file,
                committed: pos as u64,
                fault: None,
                appends: 0,
            },
        ))
    }

    /// Installs a fault schedule (chaos tests only).
    pub fn with_fault(mut self, plan: DeltaFaultPlan) -> DeltaLog {
        self.fault = Some(plan);
        self
    }

    /// Durable bytes in the log.
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Appends one frame durably. On any error — real or injected — the
    /// log's committed offset does not move, so the failed bytes are
    /// overwritten by the next append and recovery never replays them.
    pub fn append(&mut self, frame: &DeltaFrame) -> Result<(), StoreError> {
        let bytes = encode_frame(frame);
        self.appends += 1;
        if let Some(plan) = self.fault {
            match plan.roll(self.appends) {
                Fault::None => {}
                Fault::Transient => {
                    return Err(StoreError::Transient {
                        op: "delta_append",
                        detail: "injected fault before write".into(),
                    });
                }
                Fault::Torn => {
                    // A torn write: half a frame lands on disk. It fails
                    // checksum validation at replay and is overwritten by
                    // the next append.
                    let half = &bytes[..bytes.len() / 2];
                    self.write_at(self.committed, half)?;
                    return Err(StoreError::Io {
                        op: "delta_append",
                        detail: "injected torn write".into(),
                    });
                }
            }
        }
        self.write_at(self.committed, &bytes)?;
        self.file.sync_data().map_err(|e| StoreError::Io {
            op: "delta_append",
            detail: e.to_string(),
        })?;
        self.committed += bytes.len() as u64;
        crate::metrics().delta_appends.inc();
        Ok(())
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let io = |e: std::io::Error| StoreError::Io {
            op: "delta_append",
            detail: e.to_string(),
        };
        self.file.seek(SeekFrom::Start(offset)).map_err(io)?;
        self.file.write_all(bytes).map_err(io)?;
        self.file.flush().map_err(io)?;
        Ok(())
    }
}

/// Adapts a shared [`DeltaLog`] into a [`LiveStore`] write-ahead sink.
///
/// [`LiveStore`]: wodex_store::mvcc::LiveStore
pub fn wal_sink(log: Arc<Mutex<DeltaLog>>) -> WalSink {
    Box::new(move |frame| {
        log.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(frame)
    })
}

/// Rebuilds live state from durable parts: the base under a
/// [`TripleStore::with_base`] overlay with every frame applied in
/// revision order (deletes before inserts within a frame, matching
/// commit semantics). Returns the store and the highest replayed
/// revision. Replay is idempotent: frames already folded into the base
/// change nothing.
pub fn replay(
    mut dict: TermDict,
    base: Arc<dyn SegmentSource>,
    frames: &[DeltaFrame],
) -> (TripleStore, u64) {
    for f in frames {
        for t in &f.new_terms {
            dict.intern(t.clone());
        }
    }
    let mut store = TripleStore::with_base(dict, base);
    for f in frames {
        for &e in &f.deletes {
            store.remove_encoded(e);
        }
        for &e in &f.inserts {
            store.insert_encoded(e);
        }
    }
    (store, frames.last().map_or(0, |f| f.revision))
}

/// The result of a successful [`compact_deltas`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactDeltasOutcome {
    /// WAL frames folded into the base.
    pub frames_folded: usize,
    /// Triples in the merged segment.
    pub triples: usize,
    /// The merged segment's file name.
    pub segment: String,
}

/// Picks a merged-segment name that can never collide with a file the
/// current (or any earlier) manifest points at: one past the highest
/// `delta-N.seg` generation present in the manifest *or* on disk. WAL
/// revisions are useless for naming — they restart at 1 after every
/// reopen, so a commit-then-compact cycle after each restart would keep
/// producing the same name, and the rename + old-file cleanup would
/// destroy the segment the manifest had just committed.
fn next_delta_seg_name(dir: &Path, manifest: &Manifest) -> String {
    let parse = |name: &str| -> Option<u64> {
        name.strip_prefix("delta-")?
            .strip_suffix(".seg")?
            .parse()
            .ok()
    };
    let mut max = 0u64;
    for e in &manifest.entries {
        if let Some(g) = parse(&e.file) {
            max = max.max(g);
        }
    }
    // Stray files (e.g. left by a crash between manifest commit and
    // cleanup) also reserve their generation, so we never rename over
    // anything that ever carried committed data.
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            if let Some(g) = entry.file_name().to_str().and_then(parse) {
                max = max.max(g);
            }
        }
    }
    format!("delta-{}.seg", max + 1)
}

/// Folds the delta log into the base segments. Returns `Ok(None)` when
/// the log holds no frames. See the module docs for the crash/fault
/// contract.
///
/// **Exclusive access required**: this rewrites the manifest and
/// truncates `deltas.wal` through its own file handles. Any live
/// [`DeltaLog`] appender on the same directory must be quiesced
/// (dropped) first and reopened afterwards — a concurrent appender's
/// committed offset would point past the truncated log, its next append
/// would land beyond a zero-filled hole, and replay would silently stop
/// at the hole, losing a durably acknowledged frame.
pub fn compact_deltas(dir: &Path) -> Result<Option<CompactDeltasOutcome>, StoreError> {
    compact_deltas_with(dir, None)
}

/// [`compact_deltas`] with an optional fault schedule, rolled at each of
/// the four distinct fault points (replay, segment write, dictionary
/// write, manifest commit). Injected faults surface as typed errors with
/// the directory still consistent.
pub fn compact_deltas_with(
    dir: &Path,
    fault: Option<DeltaFaultPlan>,
) -> Result<Option<CompactDeltasOutcome>, StoreError> {
    let check = |index: u64, op: &'static str| -> Result<(), StoreError> {
        match fault.map(|p| p.roll(index)).unwrap_or(Fault::None) {
            Fault::None => Ok(()),
            Fault::Transient => Err(StoreError::Transient {
                op,
                detail: "injected fault".into(),
            }),
            Fault::Torn => Err(StoreError::Io {
                op,
                detail: "injected failure mid-step".into(),
            }),
        }
    };
    let io = |op: &'static str| {
        move |e: std::io::Error| StoreError::Io {
            op,
            detail: e.to_string(),
        }
    };
    let (dict, base) = SegmentStore::open(dir)?;
    let (frames, _log) = DeltaLog::open(dir)?;
    if frames.is_empty() {
        return Ok(None);
    }
    check(1, "compact_replay")?;
    let old_files: Vec<String> = base
        .manifest()
        .entries
        .iter()
        .map(|e| e.file.clone())
        .collect();
    let level = base
        .manifest()
        .entries
        .iter()
        .map(|e| e.level)
        .max()
        .unwrap_or(0);
    let seg_name = next_delta_seg_name(dir, base.manifest());
    let (mut store, _) = replay(dict, Arc::new(base) as Arc<dyn SegmentSource>, &frames);
    let spo = store.snapshot_sorted();
    let dict = store.dict().clone();

    check(2, "compact_write_segment")?;
    let seg_path = dir.join(&seg_name);
    crate::format::write_spo_segment(&seg_path, crate::format::DEFAULT_BLOCK_TRIPLES, &spo)
        .map_err(io("compact_write_segment"))?;

    if let Err(e) = check(3, "compact_write_dict") {
        std::fs::remove_file(&seg_path).ok();
        return Err(e);
    }
    if let Err(e) = crate::dict::write_dict(&dict, &dir.join(crate::dict::DICT_FILE))
        .map_err(io("compact_write_dict"))
    {
        std::fs::remove_file(&seg_path).ok();
        return Err(e);
    }

    if let Err(e) = check(4, "compact_commit") {
        // The enlarged dictionary is already durable, but a dictionary is
        // allowed to run ahead of its segments (ids are append-only), so
        // the directory still reopens to the pre-compaction state.
        std::fs::remove_file(&seg_path).ok();
        return Err(e);
    }
    write_manifest(
        dir,
        &Manifest {
            entries: vec![ManifestEntry {
                file: seg_name.clone(),
                level,
                triples: spo.len() as u64,
            }],
        },
    )
    .map_err(io("compact_commit"))?;
    // Committed. Cleanup failures past this point must NOT surface as
    // compaction errors — the state is already durable and consistent;
    // stale segment files and WAL frames are garbage that replay
    // idempotency and the next compaction tolerate. The name check is
    // belt-and-braces on top of generation naming: deleting a path the
    // fresh manifest points at would destroy committed data.
    for f in old_files.iter().filter(|f| **f != seg_name) {
        std::fs::remove_file(dir.join(f)).ok();
    }
    let wal = dir.join(DELTA_FILE);
    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&wal) {
        f.set_len(0).ok();
    }
    crate::metrics().delta_compactions.inc();
    Ok(Some(CompactDeltasOutcome {
        frames_folded: frames.len(),
        triples: spo.len(),
        segment: seg_name,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use wodex_rdf::Term;
    use wodex_rdf::Triple;
    use wodex_store::encoded::Pattern;
    use wodex_store::mvcc::{LiveStore, WriteBatch};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wodex_seg_delta_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn t(s: usize, o: usize) -> Triple {
        Triple::iri(
            &format!("http://e.org/s{s}"),
            "http://e.org/p",
            Term::iri(format!("http://e.org/o{o}")),
        )
    }

    /// A seeded base directory with `n` triples.
    fn seed_dir(name: &str, n: usize) -> PathBuf {
        let dir = tmpdir(name);
        let mut st = TripleStore::new();
        for i in 0..n {
            st.insert(&t(i, i));
        }
        let spo = st.snapshot_sorted();
        crate::format::write_spo_segment(&dir.join("base.seg"), 64, &spo).unwrap();
        crate::dict::write_dict(st.dict(), &dir.join(crate::dict::DICT_FILE)).unwrap();
        write_manifest(
            &dir,
            &Manifest {
                entries: vec![ManifestEntry {
                    file: "base.seg".into(),
                    level: 0,
                    triples: spo.len() as u64,
                }],
            },
        )
        .unwrap();
        dir
    }

    /// Opens the directory as a live store: base + WAL replay, seeded
    /// at the replayed revision so the sequence continues across
    /// reopens instead of restarting at 0.
    fn open_live(dir: &Path) -> (LiveStore, Arc<Mutex<DeltaLog>>) {
        let (dict, base) = SegmentStore::open(dir).unwrap();
        let (frames, log) = DeltaLog::open(dir).unwrap();
        let (store, rev) = replay(dict, Arc::new(base) as Arc<dyn SegmentSource>, &frames);
        let live = LiveStore::at_revision(store, rev);
        let log = Arc::new(Mutex::new(log));
        live.set_wal(wal_sink(Arc::clone(&log)));
        (live, log)
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
    fn frames_survive_a_reopen_bit_for_bit() {
        let dir = seed_dir("reopen", 20);
        let (live, _log) = open_live(&dir);
        for i in 0..5 {
            let mut b = WriteBatch::new();
            b.insert(t(100 + i, i)).delete(t(i, i));
            live.commit(&b).unwrap();
        }
        let want = decoded_sorted(live.snapshot().store());
        drop(live);
        let (reopened, _log) = open_live(&dir);
        assert_eq!(
            reopened.snapshot().revision(),
            5,
            "revision continues from the replayed WAL"
        );
        assert_eq!(decoded_sorted(reopened.snapshot().store()), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_overwritten() {
        let dir = seed_dir("torn", 10);
        let (live, log) = open_live(&dir);
        let mut b = WriteBatch::new();
        b.insert(t(50, 50));
        live.commit(&b).unwrap();
        // Simulate a crash mid-append: garbage past the committed offset.
        {
            let log = log.lock().unwrap();
            let path = dir.join(DELTA_FILE);
            let mut bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len() as u64, log.committed_bytes());
            bytes.extend_from_slice(&[0xAB; 17]);
            std::fs::write(&path, &bytes).unwrap();
        }
        drop(live);
        let (reopened, log2) = open_live(&dir);
        assert!(reopened.snapshot().store().contains(&t(50, 50)));
        // The torn tail was truncated; the next append lands cleanly.
        let mut b = WriteBatch::new();
        b.insert(t(51, 51));
        reopened.commit(&b).unwrap();
        drop(reopened);
        let before = log2.lock().unwrap().committed_bytes();
        let (again, log3) = open_live(&dir);
        assert!(again.snapshot().store().contains(&t(51, 51)));
        assert_eq!(log3.lock().unwrap().committed_bytes(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_log_and_preserves_content() {
        let dir = seed_dir("fold", 30);
        let (live, _log) = open_live(&dir);
        for i in 0..8 {
            let mut b = WriteBatch::new();
            b.insert(t(200 + i, i)).delete(t(i * 2, i * 2));
            live.commit(&b).unwrap();
        }
        let want = decoded_sorted(live.snapshot().store());
        drop(live);
        let out = compact_deltas(&dir).unwrap().expect("frames to fold");
        assert_eq!(out.frames_folded, 8);
        // The WAL is empty and the content identical after reopen.
        let (reopened, log) = open_live(&dir);
        assert_eq!(log.lock().unwrap().committed_bytes(), 0);
        assert_eq!(decoded_sorted(reopened.snapshot().store()), want);
        // Idempotent: nothing left to fold.
        assert_eq!(compact_deltas(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Commit-once-then-compact after every reopen is the collision
    /// trap: WAL revisions restart at 1 each time, so revision-derived
    /// segment names would repeat, the rename would clobber the live
    /// segment and the cleanup pass would then delete it — an
    /// unreadable directory. Generation naming must keep every round's
    /// segment distinct and the directory readable throughout.
    #[test]
    fn repeated_compaction_across_reopens_never_clobbers_the_base() {
        let dir = seed_dir("regen", 10);
        let mut names = Vec::new();
        for round in 0..3 {
            let (live, _log) = open_live(&dir);
            let mut b = WriteBatch::new();
            b.insert(t(300 + round, round));
            live.commit(&b).unwrap();
            drop(live);
            let out = compact_deltas(&dir).unwrap().expect("frames to fold");
            names.push(out.segment);
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3, "each compaction names a fresh segment");
        let (reopened, _log) = open_live(&dir);
        for round in 0..3 {
            assert!(
                reopened.snapshot().store().contains(&t(300 + round, round)),
                "round {round} commit lost"
            );
        }
        assert_eq!(reopened.snapshot().store().len(), 13);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_keeps_log_and_snapshot_in_step() {
        let dir = seed_dir("instep", 10);
        let (live, log) = open_live(&dir);
        {
            let mut l = log.lock().unwrap();
            let plan = DeltaFaultPlan { seed: 7, rate: 1.0 };
            // Replace with an always-faulting log sharing the same file.
            let stolen =
                std::mem::replace(&mut *l, DeltaLog::open(&dir).unwrap().1.with_fault(plan));
            drop(stolen);
        }
        let mut b = WriteBatch::new();
        b.insert(t(99, 99));
        let err = live.commit(&b).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Transient { .. } | StoreError::Io { .. }
        ));
        // Neither the snapshot nor the durable log advanced.
        assert_eq!(live.revision(), 0);
        drop(live);
        let (reopened, _log) = open_live(&dir);
        assert!(!reopened.snapshot().store().contains(&t(99, 99)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
