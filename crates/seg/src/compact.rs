//! Leveled background compaction.
//!
//! Freshly loaded segments sit at level 0; when a level accumulates
//! [`CompactOpts::fanout`] or more segments, one merge streams them into
//! a single segment at the next level. The model is tombstone-free —
//! segments are immutable, deletes live in the `TripleStore` overlay
//! above — so compaction is pure physical reorganization: fewer
//! directories to binary-search, fewer block runs to k-way-merge per
//! scan.
//!
//! **Abort safety is structural.** A merge writes only `*.tmp` files and
//! run files; the manifest — the sole definition of "the store" — is
//! rewritten (atomically) after the output segment is renamed into
//! place. Stopping at any block boundary ([`compact_once`] polls the
//! stop flag between blocks) deletes the temporaries and leaves the
//! store byte-for-byte untouched. Input files are deleted only *after*
//! the new manifest lands; readers that opened them earlier keep valid
//! file handles (POSIX unlink semantics) and their snapshot view.

use crate::loader::SegmentBuilder;
use crate::store::{
    read_manifest, write_manifest, Manifest, ManifestEntry, Segment, SegmentFileBackend,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Tuning knobs for compaction.
#[derive(Debug, Clone)]
pub struct CompactOpts {
    /// Minimum segments at one level to trigger a merge of that level.
    pub fanout: usize,
    /// Keys per compressed block in merge output.
    pub block_triples: usize,
    /// Memory cap for the output's POS/OSP section sort buffers.
    pub mem_cap_bytes: u64,
    /// Poll interval of the background thread between idle checks.
    pub interval: Duration,
}

impl Default for CompactOpts {
    fn default() -> CompactOpts {
        CompactOpts {
            fanout: 4,
            block_triples: crate::format::DEFAULT_BLOCK_TRIPLES,
            mem_cap_bytes: 64 * 1024 * 1024,
            interval: Duration::from_secs(5),
        }
    }
}

/// What one [`compact_once`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactOutcome {
    /// No level holds enough segments to merge.
    Idle,
    /// One level was merged into the next.
    Compacted {
        /// The level that was merged (output landed at `level + 1`).
        level: u32,
        /// Input segments consumed.
        inputs: usize,
        /// Triples in the merged output.
        triples: u64,
    },
    /// The stop flag was observed; temporaries deleted, store untouched.
    Aborted,
}

fn store_err(e: wodex_resilience::StoreError) -> std::io::Error {
    std::io::Error::other(format!("segment read during compaction: {e}"))
}

/// Streams one input segment's SPO section block by block.
struct SpoStream<'a> {
    seg: &'a Segment<SegmentFileBackend>,
    block: usize,
    keys: Vec<[u32; 3]>,
    pos: usize,
}

impl<'a> SpoStream<'a> {
    fn new(seg: &'a Segment<SegmentFileBackend>) -> SpoStream<'a> {
        SpoStream {
            seg,
            block: 0,
            keys: Vec::new(),
            pos: 0,
        }
    }

    fn head(&mut self) -> std::io::Result<Option<[u32; 3]>> {
        while self.pos >= self.keys.len() {
            if self.block >= self.seg.meta().sections[0].len() {
                return Ok(None);
            }
            self.keys = self.seg.block_keys(0, self.block).map_err(store_err)?;
            self.block += 1;
            self.pos = 0;
        }
        Ok(Some(self.keys[self.pos]))
    }

    fn pop(&mut self) {
        self.pos += 1;
    }

    /// True when positioned at a block boundary — the abort poll points.
    fn at_block_boundary(&self) -> bool {
        self.pos == 0
    }
}

/// Runs at most one merge: finds the lowest level with ≥ `fanout`
/// segments and merges *all* of that level's segments into one segment
/// at the next level. Public and synchronous so tests (and operators)
/// can drive compaction deterministically; the background thread calls
/// exactly this in a loop.
pub fn compact_once(
    dir: &Path,
    opts: &CompactOpts,
    stop: &AtomicBool,
) -> std::io::Result<CompactOutcome> {
    let manifest = read_manifest(dir).map_err(std::io::Error::other)?;
    let mut levels: Vec<u32> = manifest.entries.iter().map(|e| e.level).collect();
    levels.sort_unstable();
    levels.dedup();
    let Some(&level) = levels
        .iter()
        .find(|&&l| manifest.at_level(l).len() >= opts.fanout.max(2))
    else {
        return Ok(CompactOutcome::Idle);
    };
    if stop.load(Ordering::Relaxed) {
        crate::metrics().compaction_aborts.inc();
        return Ok(CompactOutcome::Aborted);
    }

    let inputs: Vec<ManifestEntry> = manifest.at_level(level).into_iter().cloned().collect();
    let mut segments = Vec::with_capacity(inputs.len());
    for e in &inputs {
        segments.push(Segment::open(&dir.join(&e.file)).map_err(store_err)?);
    }

    // Pick an output name not already taken at the target level.
    let out_name = (0..)
        .map(|n| format!("seg_l{}_{n:06}.seg", level + 1))
        .find(|name| !dir.join(name).exists())
        .expect("unbounded name space");
    let mut builder = SegmentBuilder::new(
        &dir.join(&out_name),
        dir,
        &format!("compact_l{}", level + 1),
        opts.block_triples,
        opts.mem_cap_bytes,
    )?;

    // K-way merge of the inputs' SPO streams, deduplicating. The stop
    // flag is polled whenever any stream crosses a block boundary.
    let mut streams: Vec<SpoStream<'_>> = segments.iter().map(SpoStream::new).collect();
    let mut last: Option<[u32; 3]> = None;
    loop {
        let mut best: Option<(usize, [u32; 3])> = None;
        for (i, s) in streams.iter_mut().enumerate() {
            if s.at_block_boundary() && stop.load(Ordering::Relaxed) {
                builder.abort()?;
                crate::metrics().compaction_aborts.inc();
                return Ok(CompactOutcome::Aborted);
            }
            if let Some(k) = s.head()? {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        let Some((i, k)) = best else { break };
        streams[i].pop();
        if last != Some(k) {
            builder.push(k)?;
            last = Some(k);
        }
    }
    drop(streams);
    let (triples, _) = builder.finish()?;

    // New manifest: everything except the inputs, plus the merged
    // output. Until this rename the old store is fully intact.
    let mut entries: Vec<ManifestEntry> = manifest
        .entries
        .iter()
        .filter(|e| e.level != level)
        .cloned()
        .collect();
    entries.push(ManifestEntry {
        file: out_name,
        level: level + 1,
        triples,
    });
    let live = entries.len();
    write_manifest(dir, &Manifest { entries })?;

    // Inputs are garbage now; open readers keep their snapshot via
    // still-valid file handles.
    for e in &inputs {
        std::fs::remove_file(dir.join(&e.file)).ok();
    }
    let m = crate::metrics();
    m.compactions.inc();
    m.segments_live.set(live as i64);
    Ok(CompactOutcome::Compacted {
        level,
        inputs: inputs.len(),
        triples,
    })
}

/// A background compaction thread with cooperative shutdown.
///
/// [`CompactorHandle::stop`] takes `&self` and is idempotent, so the
/// handle can sit in an `Arc` shared between a server shutdown hook and
/// a signal handler: whichever fires first sets the flag, wakes the
/// thread out of its sleep, and joins it. An in-flight merge aborts at
/// the next block boundary, leaving the store untouched.
#[derive(Debug)]
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    wake: Arc<(Mutex<()>, Condvar)>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl CompactorHandle {
    /// Spawns the compaction loop over `dir`.
    pub fn spawn(dir: &Path, opts: CompactOpts) -> CompactorHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::new((Mutex::new(()), Condvar::new()));
        let dir = dir.to_path_buf();
        let thread = {
            let stop = Arc::clone(&stop);
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match compact_once(&dir, &opts, &stop) {
                        Ok(CompactOutcome::Compacted { .. }) => continue, // look again now
                        Ok(CompactOutcome::Aborted) => break,
                        // Idle, or an error worth retrying next tick (a
                        // concurrent load may not have a manifest yet).
                        Ok(CompactOutcome::Idle) | Err(_) => {}
                    }
                    let (lock, cv) = &*wake;
                    let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = cv
                        .wait_timeout(guard, opts.interval)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            })
        };
        CompactorHandle {
            stop,
            wake,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// The stop flag, for wiring into signal handlers.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Requests shutdown and joins the thread. Idempotent; safe from any
    /// thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let (_, cv) = &*self.wake;
        cv.notify_all();
        let handle = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load_ntriples, LoadConfig};
    use crate::store::SegmentStore;
    use std::io::Cursor;
    use wodex_store::{Pattern, SegmentSource};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wodex_seg_compact_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn loaded_dir(name: &str, triples: usize, seg_max: usize) -> std::path::PathBuf {
        let mut nt = String::new();
        for i in 0..triples {
            nt.push_str(&format!(
                "<http://e.org/s/{}> <http://e.org/p/{}> <http://e.org/o/{}> .\n",
                i % 571,
                i % 11,
                i % 233
            ));
        }
        let dir = tmpdir(name);
        let cfg = LoadConfig {
            segment_max_triples: seg_max,
            ..LoadConfig::default()
        };
        load_ntriples(Cursor::new(&nt), &dir, &cfg).unwrap();
        dir
    }

    #[test]
    fn compaction_merges_a_level_and_preserves_every_scan() {
        let dir = loaded_dir("merge", 8000, 500);
        let (_, before_store) = SegmentStore::open(&dir).unwrap();
        let before = before_store.scan(Pattern::any()).unwrap();
        let level0 = read_manifest(&dir).unwrap().at_level(0).len();
        assert!(level0 >= 4, "need a compactable level, got {level0}");

        let stop = AtomicBool::new(false);
        let outcome = compact_once(&dir, &CompactOpts::default(), &stop).unwrap();
        match outcome {
            CompactOutcome::Compacted {
                level,
                inputs,
                triples,
            } => {
                assert_eq!(level, 0);
                assert_eq!(inputs, level0);
                assert_eq!(triples as usize, before.len());
            }
            other => panic!("expected a merge, got {other:?}"),
        }
        let manifest = read_manifest(&dir).unwrap();
        assert!(manifest.at_level(0).is_empty());
        assert_eq!(manifest.at_level(1).len(), 1);
        // Input files are gone, no temporaries remain.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(
                !name.ends_with(".tmp") && !name.ends_with(".run"),
                "litter: {name}"
            );
        }
        let (_, after_store) = SegmentStore::open(&dir).unwrap();
        assert_eq!(after_store.scan(Pattern::any()).unwrap(), before);
        // A second call finds nothing left to do.
        assert_eq!(
            compact_once(&dir, &CompactOpts::default(), &stop).unwrap(),
            CompactOutcome::Idle
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preset_stop_flag_aborts_before_touching_the_store() {
        let dir = loaded_dir("abort", 4000, 500);
        let before_manifest = read_manifest(&dir).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        let stop = AtomicBool::new(true);
        assert_eq!(
            compact_once(&dir, &CompactOpts::default(), &stop).unwrap(),
            CompactOutcome::Aborted
        );
        assert_eq!(read_manifest(&dir).unwrap(), before_manifest);
        let after: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(after.len(), files.len(), "no files created or deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_reader_survives_compaction_deleting_its_files() {
        let dir = loaded_dir("snapshot", 6000, 500);
        let (_, reader) = SegmentStore::open(&dir).unwrap();
        let before = reader.scan(Pattern::any()).unwrap();
        let stop = AtomicBool::new(false);
        compact_once(&dir, &CompactOpts::default(), &stop).unwrap();
        // The reader's input files were unlinked; its handles still work.
        assert_eq!(reader.scan(Pattern::any()).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_handle_compacts_then_stops_idempotently() {
        let dir = loaded_dir("handle", 6000, 500);
        let handle = CompactorHandle::spawn(
            &dir,
            CompactOpts {
                interval: Duration::from_millis(10),
                ..CompactOpts::default()
            },
        );
        // Wait for the merge to land.
        for _ in 0..500 {
            if read_manifest(&dir).map(|m| m.at_level(1).len()) == Ok(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(read_manifest(&dir).unwrap().at_level(1).len(), 1);
        handle.stop();
        handle.stop(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_compaction_climbs_levels() {
        // 8 level-0 segments with fanout 2: level 0 merges to one
        // level-1 segment; further loads are impossible (immutable
        // model), so drive the ladder by compacting twice more after
        // hand-editing levels is NOT possible — instead verify fanout 2
        // collapses 8 segments in one pass and leaves a sound store.
        let dir = loaded_dir("ladder", 8000, 400);
        let opts = CompactOpts {
            fanout: 2,
            ..CompactOpts::default()
        };
        let stop = AtomicBool::new(false);
        let mut merges = 0;
        while let CompactOutcome::Compacted { .. } = compact_once(&dir, &opts, &stop).unwrap() {
            merges += 1;
            assert!(merges < 10, "compaction must terminate");
        }
        assert!(merges >= 1);
        let (_, store) = SegmentStore::open(&dir).unwrap();
        let all = store.scan(Pattern::any()).unwrap();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
