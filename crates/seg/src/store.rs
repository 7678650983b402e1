//! Opening and scanning segment directories.
//!
//! A segment directory holds a `MANIFEST`, a `dict.wdx` sidecar
//! ([`crate::dict`]) and one or more immutable segment files
//! ([`crate::format`]) arranged in compaction levels. [`SegmentStore`]
//! opens the directory and implements `wodex-store`'s
//! [`SegmentSource`] trait, so a [`wodex_store::TripleStore::with_base`]
//! on top runs the PR 5 planner, the PR 6 WCO triejoin and the PR 7
//! shard workers against disk-resident data without any engine changes.
//!
//! The read path keeps the PR 2 discipline: every block is read from
//! the backend with one positioned read, checksum-verified before it is
//! decoded (a corrupt block is a typed [`StoreError::Corrupt`], never a
//! panic), and transient faults are retried under a [`RetryPolicy`].
//!
//! The **scan engine** computes candidate block ranges *exactly* from
//! the zone-mapped directory (`first_key`/`last_key` bracketing plus
//! per-position min/max pruning) and shares decoded blocks through the
//! process-wide [`BlockCache`] keyed by segment generation — the only
//! cache tier under a scan, so a miss (or a detached cache) always
//! reads and verifies from the file. Cache-miss batches decode in
//! parallel with deterministic reassembly, and
//! [`SegmentSource::scan_chunks`] streams block-sized slices so
//! consumers never materialize a full scan.

use crate::cache::{BlockCache, BlockKey, CachedBlock};
use crate::format::{self, BlockMeta, SegmentMeta};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wodex_rdf::TermDict;
use wodex_resilience::{RetryPolicy, RetrySnapshot, RetryStats, StoreError};
use wodex_store::encoded::{decode_key_run, EncodedTriple, Pattern};
use wodex_store::index::Order;
use wodex_store::memstore::StoreStats;
use wodex_store::{shape_key_bounds, PageBackend, SegmentSource};

/// Manifest file name inside a segment directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One `seg` line of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Segment file name (relative to the directory).
    pub file: String,
    /// Compaction level (0 = freshly loaded).
    pub level: u32,
    /// Triples in the segment.
    pub triples: u64,
}

/// The decoded manifest of a segment directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Segment entries, in manifest order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Segments at one compaction level, in manifest order.
    pub fn at_level(&self, level: u32) -> Vec<&ManifestEntry> {
        self.entries.iter().filter(|e| e.level == level).collect()
    }
}

/// Reads and parses `dir/MANIFEST`.
pub fn read_manifest(dir: &Path) -> Result<Manifest, String> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    match lines.next() {
        Some("wodex-seg 1") => {}
        other => return Err(format!("bad manifest header: {other:?}")),
    }
    let mut m = Manifest::default();
    for (no, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["dict", _file] => {}
            ["seg", file, "level", level, "triples", triples] => {
                m.entries.push(ManifestEntry {
                    file: (*file).to_string(),
                    level: level.parse().map_err(|e| format!("line {no}: {e}"))?,
                    triples: triples.parse().map_err(|e| format!("line {no}: {e}"))?,
                });
            }
            _ => return Err(format!("unrecognized manifest line {no}: {line:?}")),
        }
    }
    Ok(m)
}

/// Writes `dir/MANIFEST` atomically (tmp + rename).
pub fn write_manifest(dir: &Path, m: &Manifest) -> std::io::Result<()> {
    let mut text = String::from("wodex-seg 1\n");
    text.push_str(&format!("dict {}\n", crate::dict::DICT_FILE));
    for e in &m.entries {
        text.push_str(&format!(
            "seg {} level {} triples {}\n",
            e.file, e.level, e.triples
        ));
    }
    let tmp = dir.join("MANIFEST.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))
}

/// A segment file exposed as a [`PageBackend`]: page id = flat block
/// index across the three sections (SPO blocks, then POS, then OSP).
/// Blocks are variable-length; offsets come from the footer directory.
/// Reads are positioned (`pread`), so concurrent scans share the file
/// handle without a lock or a seek.
pub struct SegmentFileBackend {
    file: std::fs::File,
    /// `(offset, len)` per flat block id.
    blocks: Vec<(u64, u32)>,
    reads: AtomicU64,
}

impl SegmentFileBackend {
    /// Opens `path` with the directory decoded from `meta`.
    pub fn open(path: &Path, meta: &SegmentMeta) -> std::io::Result<SegmentFileBackend> {
        let file = std::fs::File::open(path)?;
        let blocks = meta
            .sections
            .iter()
            .flatten()
            .map(|b| (b.offset, b.len))
            .collect();
        Ok(SegmentFileBackend {
            file,
            blocks,
            reads: AtomicU64::new(0),
        })
    }
}

impl PageBackend for SegmentFileBackend {
    fn read_page(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        let &(offset, len) = self.blocks.get(id as usize).ok_or(StoreError::NoSuchPage {
            page: id,
            pages: self.blocks.len() as u32,
        })?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut buf = vec![0u8; len as usize];
        self.file
            .read_exact_at(&mut buf, offset)
            .map_err(|e| match e.kind() {
                // A short read of a block we know exists is a torn read —
                // worth retrying.
                std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::Interrupted => {
                    StoreError::Transient {
                        op: "read_block",
                        detail: e.to_string(),
                    }
                }
                _ => StoreError::Io {
                    op: "read_block",
                    detail: e.to_string(),
                },
            })?;
        Ok(buf)
    }

    fn page_count(&self) -> u32 {
        self.blocks.len() as u32
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

fn section_of(order: Order) -> usize {
    match order {
        Order::Spo => 0,
        Order::Pos => 1,
        Order::Osp => 2,
    }
}

/// Cache-missing blocks dispatched to the coarse parallel decoder per
/// batch. Bounds the decoded bytes in flight and the distance between
/// two chunk emissions, so budget-aware consumers stop within one
/// batch of where the budget tripped.
const DECODE_BATCH: usize = 32;

/// One open segment file: footer metadata, a block backend and a retry
/// policy for transient faults. Generic over the backend so the chaos
/// tests can splice a [`wodex_store::FaultBackend`] underneath.
///
/// Every segment carries a process-unique `cache_id` taken at
/// construction — the decoded-block cache's generation tag. Reopens
/// (delta compaction, MVCC snapshot reloads) build fresh `Segment`
/// values and therefore fresh ids, so stale cached blocks are
/// unreachable by construction.
pub struct Segment<B: PageBackend> {
    meta: SegmentMeta,
    backend: B,
    policy: RetryPolicy,
    retry_stats: RetryStats,
    cache_id: u64,
    cache: Option<Arc<BlockCache>>,
}

impl<B: PageBackend> std::fmt::Debug for Segment<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("triples", &self.meta.triples)
            .field("blocks", &self.meta.block_count())
            .finish()
    }
}

impl Segment<SegmentFileBackend> {
    /// Opens the segment file at `path`.
    pub fn open(path: &Path) -> Result<Segment<SegmentFileBackend>, StoreError> {
        let meta = format::read_segment_meta(path).map_err(|detail| StoreError::Io {
            op: "read_segment_meta",
            detail: format!("{}: {detail}", path.display()),
        })?;
        let backend = SegmentFileBackend::open(path, &meta).map_err(|e| StoreError::Io {
            op: "open_segment",
            detail: format!("{}: {e}", path.display()),
        })?;
        Ok(Segment::from_parts(meta, backend))
    }
}

impl<B: PageBackend> Segment<B> {
    /// Assembles a segment from parts — the test seam for fault-injecting
    /// backends.
    pub fn from_parts(meta: SegmentMeta, backend: B) -> Segment<B> {
        Segment {
            meta,
            backend,
            policy: RetryPolicy::default(),
            retry_stats: RetryStats::new(),
            cache_id: crate::cache::next_segment_id(),
            cache: BlockCache::global().cloned(),
        }
    }

    /// The segment's generation tag in the decoded-block cache.
    pub fn cache_id(&self) -> u64 {
        self.cache_id
    }

    /// Attaches, swaps, or detaches (`None`) the decoded-block cache —
    /// the seam bench and tests use to run a cache-off oracle in the
    /// same process.
    pub fn set_block_cache(&mut self, cache: Option<Arc<BlockCache>>) {
        self.cache = cache;
    }

    /// Footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The backend, for fault/I-O inspection in tests.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Retry counters accumulated across block reads.
    pub fn retry_stats(&self) -> RetrySnapshot {
        self.retry_stats.snapshot()
    }

    /// Triples stored (each section holds all of them).
    pub fn len(&self) -> usize {
        self.meta.triples as usize
    }

    /// True if the segment holds no triples.
    pub fn is_empty(&self) -> bool {
        self.meta.triples == 0
    }

    /// Reads one block from the backend and checksum-verifies it.
    fn fetch_verified(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        let m = crate::metrics();
        m.blocks_read.inc();
        let data = self.backend.read_page(id)?;
        format::verify_block(id, &data).inspect_err(|_| {
            m.checksum_failures.inc();
        })?;
        Ok(data)
    }

    /// One verified block image, retrying transient faults under the
    /// segment's policy: a torn read heals on the next attempt; real
    /// on-disk rot keeps failing and exhausts the retries.
    fn block_bytes(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        self.policy.run(
            &self.retry_stats,
            StoreError::is_transient,
            |_attempt| self.fetch_verified(id),
            |attempts, last| StoreError::RetriesExhausted {
                op: "read_block",
                attempts,
                last: last.to_string(),
            },
        )
    }

    /// Decodes one block of a section into keys, bypassing the decoded
    /// cache — the compactor's streaming path uses this deliberately: a
    /// compaction touches every block exactly once, and routing it
    /// through the cache would only evict hot scan blocks. The bytes
    /// were verified on the way in, so a decode failure here means the
    /// image is structurally corrupt despite the checksum — still a
    /// typed error.
    pub fn block_keys(&self, section: usize, index: usize) -> Result<Vec<[u32; 3]>, StoreError> {
        let id = self.meta.flat_id(section, index);
        let data = self.block_bytes(id)?;
        decode_verified_block(id, &data)
    }

    /// Decodes the given blocks of one section, cache first. Misses are
    /// fetched through the verify/retry discipline and decoded by the
    /// coarse parallel decoder with deterministic ordered reassembly;
    /// results line up with `indexes`.
    fn decoded_batch(
        &self,
        section: usize,
        indexes: &[usize],
    ) -> Result<Vec<CachedBlock>, StoreError> {
        let Some(cache) = &self.cache else {
            return indexes
                .iter()
                .map(|&i| Ok(Arc::new(self.block_keys(section, i)?)))
                .collect();
        };
        let mut out: Vec<Option<CachedBlock>> = Vec::with_capacity(indexes.len());
        let mut misses: Vec<(usize, usize)> = Vec::new();
        for (slot, &index) in indexes.iter().enumerate() {
            let key = BlockKey {
                segment: self.cache_id,
                section: section as u8,
                block: index as u32,
            };
            match cache.get(key) {
                Some(hit) => out.push(Some(hit)),
                None => {
                    out.push(None);
                    misses.push((slot, index));
                }
            }
        }
        // Fetch serially, decode in parallel.
        let fetched: Vec<(usize, u32, Vec<u8>)> = misses
            .iter()
            .map(|&(slot, index)| {
                let id = self.meta.flat_id(section, index);
                Ok((slot, id, self.block_bytes(id)?))
            })
            .collect::<Result<_, StoreError>>()?;
        let decoded =
            wodex_exec::par_map_coarse(&fetched, |(_, id, data)| decode_verified_block(*id, data));
        for (&(slot, index), keys) in misses.iter().zip(decoded) {
            let keys = Arc::new(keys?);
            cache.insert(
                BlockKey {
                    segment: self.cache_id,
                    section: section as u8,
                    block: index as u32,
                },
                Arc::clone(&keys),
            );
            out[slot] = Some(keys);
        }
        Ok(out.into_iter().map(|b| b.expect("slot filled")).collect())
    }

    /// Streams the in-bounds slice of every candidate block of `pat`,
    /// in the shape's key order. `emit` returns `false` to stop early;
    /// the scan then returns `Ok(false)` without decoding further
    /// batches — budget-aware consumers degrade at block granularity.
    fn for_each_key_chunk(
        &self,
        pat: Pattern,
        emit: &mut dyn FnMut(&[[u32; 3]]) -> bool,
    ) -> Result<bool, StoreError> {
        let (order, lo, hi) = shape_key_bounds(pat);
        let section = section_of(order);
        let blocks = &self.meta.sections[section];
        let candidates: Vec<usize> = candidate_range(blocks, lo, hi)
            .filter(|&i| !blocks[i].zone_prunes(lo, hi))
            .collect();
        for batch in candidates.chunks(DECODE_BATCH) {
            let decoded = self.decoded_batch(section, batch)?;
            for (&index, keys) in batch.iter().zip(&decoded) {
                let b = &blocks[index];
                // Interior blocks lie wholly inside the bracket; only
                // boundary blocks pay a binary-search trim.
                let s = if b.first_key >= lo {
                    0
                } else {
                    keys.partition_point(|k| *k < lo)
                };
                let e = if b.last_key <= hi {
                    keys.len()
                } else {
                    keys.partition_point(|k| *k <= hi)
                };
                if s < e && !emit(&keys[s..e]) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// All keys of `pat`'s matches, in the shape's index key order —
    /// decoding exactly the blocks whose zone maps intersect the
    /// pattern's key bounds.
    pub fn scan_keys(&self, pat: Pattern) -> Result<Vec<[u32; 3]>, StoreError> {
        let mut out = Vec::new();
        self.for_each_key_chunk(pat, &mut |chunk| {
            out.extend_from_slice(chunk);
            true
        })?;
        Ok(out)
    }

    /// Keys a scan of `pat` would decode — the metadata-only cardinality
    /// bound behind [`SegmentSource::estimate`]. Exact at the block
    /// level: zone-pruned blocks no longer inflate the estimate.
    fn candidate_count(&self, pat: Pattern) -> usize {
        let (order, lo, hi) = shape_key_bounds(pat);
        let blocks = &self.meta.sections[section_of(order)];
        candidate_range(blocks, lo, hi)
            .filter(|&i| !blocks[i].zone_prunes(lo, hi))
            .map(|i| blocks[i].count as usize)
            .sum()
    }
}

/// Decodes an already checksum-verified block image.
fn decode_verified_block(id: u32, data: &[u8]) -> Result<Vec<[u32; 3]>, StoreError> {
    let count = u32::from_le_bytes(
        data[8..format::BLOCK_HEADER]
            .try_into()
            .expect("4-byte count"),
    ) as usize;
    let mut out = Vec::with_capacity(count);
    let mut pos = format::BLOCK_HEADER;
    decode_key_run(data, &mut pos, count, &mut out).ok_or_else(|| StoreError::Corrupt {
        page: id,
        detail: format!("key run does not decode: {count} keys claimed"),
    })?;
    Ok(out)
}

/// Exact candidate block range for the inclusive bracket `[lo, hi]`:
/// zone maps give the first block whose `last_key` reaches `lo` and the
/// first whose `first_key` passes `hi`. Every block inside the range
/// intersects the bracket; no block outside it can hold a match. (The
/// pre-zone-map directory only knew `first_key`, so the start bound had
/// to back up one block and the end bound over-approximated.)
fn candidate_range(blocks: &[BlockMeta], lo: [u32; 3], hi: [u32; 3]) -> std::ops::Range<usize> {
    let start = blocks.partition_point(|b| b.last_key < lo);
    let end = blocks.partition_point(|b| b.first_key <= hi);
    start..end.max(start)
}

impl<B: PageBackend + Send + Sync> SegmentSource for Segment<B> {
    fn source_len(&self) -> usize {
        self.len()
    }

    fn scan(&self, pat: Pattern) -> Result<Vec<EncodedTriple>, StoreError> {
        let (order, _, _) = shape_key_bounds(pat);
        Ok(self
            .scan_keys(pat)?
            .iter()
            .map(|k| order.unkey(k))
            .collect())
    }

    fn scan_chunks(
        &self,
        pat: Pattern,
        f: &mut dyn FnMut(&[EncodedTriple]) -> bool,
    ) -> Result<bool, StoreError> {
        let (order, _, _) = shape_key_bounds(pat);
        let mut buf: Vec<EncodedTriple> = Vec::new();
        self.for_each_key_chunk(pat, &mut |keys| {
            buf.clear();
            buf.extend(keys.iter().map(|k| order.unkey(k)));
            f(&buf)
        })
    }

    fn estimate(&self, pat: Pattern) -> usize {
        self.candidate_count(pat).min(self.len())
    }

    fn source_stats(&self) -> StoreStats {
        StoreStats {
            indexed_triples: self.meta.triples as usize,
            distinct: self.meta.distinct.map(|d| d as usize),
        }
    }
}

/// An open segment directory: every manifest segment, behind one
/// [`SegmentSource`]. Scans k-way-merge the per-segment runs in key
/// order; segments descend from one deduplicating load (and compaction
/// preserves disjointness), so the merge's dedup is defensive only.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    segments: Vec<Segment<SegmentFileBackend>>,
    manifest: Manifest,
}

impl SegmentStore {
    /// Opens `dir`, returning the dictionary and the store. The manifest,
    /// dictionary and every segment footer are validated; any corruption
    /// surfaces as a typed error.
    pub fn open(dir: &Path) -> Result<(TermDict, SegmentStore), StoreError> {
        let io = |op: &'static str| {
            move |detail: String| StoreError::Io {
                op,
                detail: format!("{}: {detail}", dir.display()),
            }
        };
        let manifest = read_manifest(dir).map_err(io("read_manifest"))?;
        let dict =
            crate::dict::read_dict(&dir.join(crate::dict::DICT_FILE)).map_err(io("read_dict"))?;
        let mut segments = Vec::with_capacity(manifest.entries.len());
        for e in &manifest.entries {
            let seg = Segment::open(&dir.join(&e.file))?;
            if seg.len() as u64 != e.triples {
                return Err(StoreError::Io {
                    op: "open_segment",
                    detail: format!(
                        "{}: manifest says {} triples, footer says {}",
                        e.file,
                        e.triples,
                        seg.len()
                    ),
                });
            }
            segments.push(seg);
        }
        crate::metrics().segments_live.set(segments.len() as i64);
        Ok((
            dict,
            SegmentStore {
                dir: dir.to_path_buf(),
                segments,
                manifest,
            },
        ))
    }

    /// The directory this store was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest as read at open.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The open segments, in manifest order.
    pub fn segments(&self) -> &[Segment<SegmentFileBackend>] {
        &self.segments
    }

    /// Attaches, swaps, or detaches (`None`) the decoded-block cache on
    /// every open segment — the seam bench and tests use to run a
    /// cache-off oracle in the same process.
    pub fn set_block_cache(&mut self, cache: Option<Arc<BlockCache>>) {
        for s in &mut self.segments {
            s.set_block_cache(cache.clone());
        }
    }
}

/// K-way merge of per-segment sorted key runs, deduplicating.
fn merge_keys(mut runs: Vec<Vec<[u32; 3]>>) -> Vec<[u32; 3]> {
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 => Vec::new(),
        1 => runs.pop().expect("one run"),
        _ => {
            let total = runs.iter().map(Vec::len).sum();
            let mut cursors = vec![0usize; runs.len()];
            let mut out: Vec<[u32; 3]> = Vec::with_capacity(total);
            loop {
                let mut best: Option<(usize, [u32; 3])> = None;
                for (i, run) in runs.iter().enumerate() {
                    if let Some(&k) = run.get(cursors[i]) {
                        if best.is_none_or(|(_, b)| k < b) {
                            best = Some((i, k));
                        }
                    }
                }
                let Some((i, k)) = best else { break };
                cursors[i] += 1;
                if out.last() != Some(&k) {
                    out.push(k);
                }
            }
            out
        }
    }
}

impl SegmentSource for SegmentStore {
    fn source_len(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    fn scan(&self, pat: Pattern) -> Result<Vec<EncodedTriple>, StoreError> {
        let (order, _, _) = shape_key_bounds(pat);
        let runs = self
            .segments
            .iter()
            .map(|s| s.scan_keys(pat))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_keys(runs).iter().map(|k| order.unkey(k)).collect())
    }

    fn scan_chunks(
        &self,
        pat: Pattern,
        f: &mut dyn FnMut(&[EncodedTriple]) -> bool,
    ) -> Result<bool, StoreError> {
        match self.segments.len() {
            0 => Ok(true),
            // The common steady state (one compacted segment) streams
            // block by block; multi-segment directories need the k-way
            // merge, which the materializing default provides.
            1 => self.segments[0].scan_chunks(pat, f),
            _ => {
                let all = self.scan(pat)?;
                if all.is_empty() {
                    return Ok(true);
                }
                Ok(f(&all))
            }
        }
    }

    fn estimate(&self, pat: Pattern) -> usize {
        self.segments.iter().map(|s| s.estimate(pat)).sum()
    }

    fn source_stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            indexed_triples: 0,
            distinct: [0; 3],
        };
        for s in &self.segments {
            let ss = s.source_stats();
            stats.indexed_triples += ss.indexed_triples;
            // Distinct counts summed across segments: an upper bound, the
            // same estimate TripleStore::stats documents for layering.
            for (d, sd) in stats.distinct.iter_mut().zip(ss.distinct) {
                *d += sd;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_spo_segment;
    use wodex_rdf::TermId;
    use wodex_store::TripleStore;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wodex_seg_store_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn triples() -> Vec<EncodedTriple> {
        let mut v = Vec::new();
        for s in 0..50u32 {
            v.push([s, 100, s % 7]);
            v.push([s, 101, 3]);
            if s % 3 == 0 {
                v.push([s, 102, s]);
            }
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    fn write_seg(path: &Path, ts: &[EncodedTriple], block_triples: usize) -> SegmentMeta {
        write_spo_segment(path, block_triples, ts).unwrap()
    }

    fn mem_store(ts: &[EncodedTriple]) -> TripleStore {
        let mut st = TripleStore::with_tail_limit(0);
        for &t in ts {
            st.insert_encoded(t);
        }
        st.merge_tail();
        st
    }

    fn patterns() -> Vec<Pattern> {
        let mut pats = Vec::new();
        for s in [None, Some(TermId(3)), Some(TermId(999))] {
            for p in [None, Some(TermId(100))] {
                for o in [None, Some(TermId(3))] {
                    pats.push(Pattern { s, p, o });
                }
            }
        }
        pats
    }

    #[test]
    fn segment_scans_agree_with_memstore_for_every_shape() {
        let ts = triples();
        let dir = tmpdir("agree");
        let path = dir.join("a.seg");
        write_seg(&path, &ts, 16); // tiny blocks: many directory entries
        let seg = Segment::open(&path).unwrap();
        let st = mem_store(&ts);
        assert_eq!(seg.source_len(), st.len());
        for pat in patterns() {
            assert_eq!(seg.scan(pat).unwrap(), st.scan(pat).unwrap(), "{pat:?}");
            assert_eq!(seg.count(pat).unwrap(), st.count_pattern(pat), "{pat:?}");
            assert!(seg.estimate(pat) >= seg.count(pat).unwrap(), "{pat:?}");
            for position in 0..3 {
                assert_eq!(
                    seg.scan_sorted_by(pat, position).unwrap(),
                    st.match_pattern_sorted_by(pat, position),
                    "sorted_by {pat:?}/{position}"
                );
            }
            for positions in [&[0usize, 1, 2][..], &[2, 1, 0], &[1]] {
                assert_eq!(
                    seg.scan_sorted_lex(pat, positions).unwrap(),
                    st.match_pattern_sorted_lex(pat, positions),
                    "sorted_lex {pat:?}/{positions:?}"
                );
            }
        }
        assert_eq!(seg.source_stats(), st.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scans_touch_only_candidate_blocks() {
        let ts: Vec<EncodedTriple> = (0..10_000u32).map(|i| [i / 4, i % 4, i]).collect();
        let dir = tmpdir("candidate");
        let path = dir.join("big.seg");
        write_seg(&path, &ts, 256);
        let seg = Segment::open(&path).unwrap();
        let pat = Pattern::any().with_s(TermId(1234));
        let got = seg.scan(pat).unwrap();
        assert_eq!(got.len(), 4);
        let reads = seg.backend().reads();
        assert!(
            reads <= 2,
            "a 4-triple scan should touch ≤2 blocks, read {reads}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn candidate_ranges_are_exact_at_block_boundaries() {
        // Property test over the directory formulas: for patterns whose
        // key equals a block's first or last key (plus misses, gaps and
        // wildcards), the candidate range must include every block
        // holding a match and nothing provably empty — and the scan
        // must agree with a brute-force filter.
        let mut ts: Vec<EncodedTriple> = (0..900u32)
            .map(|i| [i / 9 * 2, i % 5, i % 11]) // gaps in the subject space
            .collect();
        ts.sort_unstable();
        ts.dedup();
        let dir = tmpdir("boundary");
        let path = dir.join("b.seg");
        let meta = write_seg(&path, &ts, 8); // tiny blocks: many boundaries
        let mut seg = Segment::open(&path).unwrap();
        seg.set_block_cache(None);
        let st = mem_store(&ts);
        let mut probes: Vec<u32> = Vec::new();
        for b in &meta.sections[0] {
            probes.extend([b.first_key[0], b.last_key[0]]);
        }
        probes.extend([0, 1, u32::MAX]); // below, between, above everything
        probes.sort_unstable();
        probes.dedup();
        for sid in probes {
            let pat = Pattern::any().with_s(TermId(sid));
            assert_eq!(seg.scan(pat).unwrap(), st.scan(pat).unwrap(), "s={sid}");
            let (_, lo, hi) = shape_key_bounds(pat);
            let blocks = &seg.meta().sections[0];
            let range = candidate_range(blocks, lo, hi);
            let mut at = 0usize;
            for (i, b) in blocks.iter().enumerate() {
                let slice = &ts[at..at + b.count as usize];
                at += b.count as usize;
                let holds_match = slice.iter().any(|k| *k >= lo && *k <= hi);
                if holds_match {
                    assert!(range.contains(&i), "s={sid}: block {i} holds a match");
                    assert!(!b.zone_prunes(lo, hi), "s={sid}: sound pruning");
                } else if range.contains(&i) {
                    // Exactness: an in-range block without a match must
                    // at least bracket the probe (an interior gap).
                    assert!(
                        b.first_key <= hi && b.last_key >= lo,
                        "s={sid}: block {i} is provably empty yet in range"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_block_sections_and_empty_segments_scan_cleanly() {
        let dir = tmpdir("tiny");
        // One triple → every section is a single block; probe its exact
        // key, both boundary sides, and a miss.
        let one = vec![[5u32, 6, 7]];
        let path = dir.join("one.seg");
        write_seg(&path, &one, 64);
        let seg = Segment::open(&path).unwrap();
        for (pat, want) in [
            (Pattern::any().with_s(TermId(5)), 1),
            (Pattern::any().with_s(TermId(4)), 0),
            (Pattern::any().with_s(TermId(6)), 0),
            (Pattern::any(), 1),
        ] {
            assert_eq!(seg.scan(pat).unwrap().len(), want, "{pat:?}");
        }
        // Zero triples → empty directory in every section.
        let empty: Vec<EncodedTriple> = Vec::new();
        let path = dir.join("empty.seg");
        write_seg(&path, &empty, 64);
        let seg = Segment::open(&path).unwrap();
        assert!(seg.is_empty());
        assert!(seg.scan(Pattern::any()).unwrap().is_empty());
        assert!(seg
            .scan(Pattern::any().with_s(TermId(1)))
            .unwrap()
            .is_empty());
        assert_eq!(seg.estimate(Pattern::any()), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_rescan_reads_no_new_blocks_and_answers_identically() {
        let ts: Vec<EncodedTriple> = (0..5000u32).map(|i| [i / 5, i % 5, i]).collect();
        let dir = tmpdir("cachehot");
        let path = dir.join("hot.seg");
        write_seg(&path, &ts, 128);
        let mut seg = Segment::open(&path).unwrap();
        let cache = Arc::new(BlockCache::new(8 << 20));
        seg.set_block_cache(Some(Arc::clone(&cache)));
        let pats = [
            Pattern::any(),
            Pattern::any().with_s(TermId(123)),
            Pattern::any().with_p(TermId(3)),
        ];
        let cold: Vec<_> = pats.iter().map(|&p| seg.scan(p).unwrap()).collect();
        let reads_after_cold = seg.backend().reads();
        let warm: Vec<_> = pats.iter().map(|&p| seg.scan(p).unwrap()).collect();
        assert_eq!(cold, warm, "cached answers are bit-identical");
        assert_eq!(
            seg.backend().reads(),
            reads_after_cold,
            "warm scans decode entirely from the cache"
        );
        assert!(cache.stats().hits.load(Ordering::Relaxed) > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_chunks_concatenation_equals_scan_and_stops_early() {
        let mut ts: Vec<EncodedTriple> = (0..3000u32).map(|i| [i / 3, i % 7, i]).collect();
        ts.sort_unstable();
        ts.dedup();
        let dir = tmpdir("chunks");
        let path = dir.join("c.seg");
        write_seg(&path, &ts, 64);
        let seg = Segment::open(&path).unwrap();
        for pat in [
            Pattern::any(),
            Pattern::any().with_s(TermId(100)),
            Pattern::any().with_p(TermId(2)),
            Pattern::any().with_o(TermId(999_999)),
        ] {
            let mut streamed = Vec::new();
            let mut chunks = 0usize;
            let done = seg
                .scan_chunks(pat, &mut |c| {
                    chunks += 1;
                    streamed.extend_from_slice(c);
                    true
                })
                .unwrap();
            assert!(done);
            assert_eq!(streamed, seg.scan(pat).unwrap(), "{pat:?}");
            if streamed.len() > 200 {
                assert!(chunks > 1, "{pat:?}: large scans must stream in chunks");
            }
        }
        // Early stop: the first chunk arrives, then the consumer quits.
        let mut calls = 0usize;
        let done = seg
            .scan_chunks(Pattern::any(), &mut |_| {
                calls += 1;
                false
            })
            .unwrap();
        assert!(!done);
        assert_eq!(calls, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_block_read_is_a_typed_error_not_a_panic() {
        let ts = triples();
        let dir = tmpdir("corrupt");
        let path = dir.join("c.seg");
        let meta = write_seg(&path, &ts, 16);
        // Flip a payload bit inside the first SPO block on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let b = meta.sections[0][0];
        bytes[b.offset as usize + format::BLOCK_HEADER + 1] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let seg = Segment::open(&path).unwrap(); // footer is intact
        let err = seg.scan(Pattern::any()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Corrupt { .. } | StoreError::RetriesExhausted { .. }
            ),
            "unexpected error: {err:?}"
        );
        assert!(crate::metrics().checksum_failures.get() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_open_scans_across_disjoint_segments() {
        let ts = triples();
        let (left, right) = ts.split_at(ts.len() / 2);
        let dir = tmpdir("multi");
        write_seg(&dir.join("a.seg"), left, 16);
        write_seg(&dir.join("b.seg"), right, 16);
        let mut dict = TermDict::new();
        for i in 0..110 {
            dict.intern_iri(&format!("http://e.org/{i}"));
        }
        crate::dict::write_dict(&dict, &dir.join(crate::dict::DICT_FILE)).unwrap();
        write_manifest(
            &dir,
            &Manifest {
                entries: vec![
                    ManifestEntry {
                        file: "a.seg".into(),
                        level: 0,
                        triples: left.len() as u64,
                    },
                    ManifestEntry {
                        file: "b.seg".into(),
                        level: 0,
                        triples: right.len() as u64,
                    },
                ],
            },
        )
        .unwrap();
        let (dict_back, store) = SegmentStore::open(&dir).unwrap();
        assert_eq!(dict_back.len(), dict.len());
        assert_eq!(store.source_len(), ts.len());
        let st = mem_store(&ts);
        for pat in patterns() {
            assert_eq!(store.scan(pat).unwrap(), st.scan(pat).unwrap(), "{pat:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_and_bad_headers() {
        let dir = tmpdir("manifest");
        let m = Manifest {
            entries: vec![ManifestEntry {
                file: "x.seg".into(),
                level: 2,
                triples: 7,
            }],
        };
        write_manifest(&dir, &m).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m);
        std::fs::write(dir.join(MANIFEST_FILE), "not a manifest\n").unwrap();
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_footer_disagreement_is_rejected() {
        let ts = triples();
        let dir = tmpdir("disagree");
        write_seg(&dir.join("a.seg"), &ts, 16);
        crate::dict::write_dict(&TermDict::new(), &dir.join(crate::dict::DICT_FILE)).unwrap();
        write_manifest(
            &dir,
            &Manifest {
                entries: vec![ManifestEntry {
                    file: "a.seg".into(),
                    level: 0,
                    triples: ts.len() as u64 + 5,
                }],
            },
        )
        .unwrap();
        assert!(SegmentStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
