//! The on-disk segment format.
//!
//! One segment file holds one immutable, sorted, deduplicated set of
//! triples, stored **three times** — once per permutation index order
//! (SPO, POS, OSP) — as runs of delta-compressed blocks:
//!
//! ```text
//! [magic  "WSEG0002"]
//! [SPO blocks ...][POS blocks ...][OSP blocks ...]
//! [footer][footer checksum u64][footer length u64][magic "WSEG0002"]
//! ```
//!
//! Each **block** is `[checksum u64][count u32][delta-varint key run]`
//! (the checksum is the PR 2 [`page_checksum`] over everything after
//! itself; the key run is [`wodex_store::encoded::encode_key_run`]). The
//! **footer** carries the triple count, per-position distinct counts
//! (planner statistics without a scan), and a per-section block
//! directory — offset, length, first/last key, per-position min/max
//! zone maps, and count per block — so scans binary-search the
//! directory and decode *exactly* the candidate blocks.
//!
//! Format versioning: the magic doubles as the version tag. `WSEG0002`
//! added the zone-map fields (`last_key`, `min`, `max`); readers reject
//! other versions outright rather than guessing — segments are always
//! produced by the same build that reads them (bulk load, delta
//! compaction), so there is no cross-version migration path to keep.
//!
//! Crash safety is by **atomic rename**: a segment is built in a
//! `*.tmp` sibling and renamed into place only after every byte and the
//! footer are flushed; readers never observe a partial segment.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use wodex_resilience::{page_checksum, StoreError};
use wodex_store::encoded::{
    decode_key_run, encode_key_run, read_varint, read_varint_u32, write_varint,
};
use wodex_store::index::Order;
use wodex_store::EncodedTriple;

/// Magic bytes framing a segment file at both ends (also the format
/// version: `WSEG0002` = zone-mapped block directory).
pub const SEGMENT_MAGIC: &[u8; 8] = b"WSEG0002";

/// Bytes of block header: u64 checksum + u32 key count.
pub const BLOCK_HEADER: usize = 12;

/// Default keys per block (~a few KiB compressed).
pub const DEFAULT_BLOCK_TRIPLES: usize = 4096;

/// The three sections of a segment, in file order.
pub const SECTIONS: usize = 3;

/// Directory entry for one block, including its zone map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the block in the segment file.
    pub offset: u64,
    /// Byte length of the block (header included).
    pub len: u32,
    /// First key stored in the block.
    pub first_key: [u32; 3],
    /// Last key stored in the block — with `first_key`, brackets the
    /// block's key range so candidate ranges are exact, not the
    /// `first_key`-only over-approximation.
    pub last_key: [u32; 3],
    /// Per-position minimum over the block's keys (`min[i]` = smallest
    /// `key[i]`). `min[0] == first_key[0]` always; positions 1 and 2
    /// carry real pruning power for bound non-leading components.
    pub min: [u32; 3],
    /// Per-position maximum over the block's keys.
    pub max: [u32; 3],
    /// Number of keys in the block.
    pub count: u32,
}

impl BlockMeta {
    /// True when the zone map proves the block holds no key in the
    /// inclusive `[lo, hi]` bracket of [`shape_key_bounds`]-style
    /// bounds. Sound only for such brackets: a leading run of positions
    /// with `lo[i] == hi[i]` (the bound components), then wildcards.
    ///
    /// [`shape_key_bounds`]: wodex_store::segment::shape_key_bounds
    pub fn zone_prunes(&self, lo: [u32; 3], hi: [u32; 3]) -> bool {
        if self.last_key < lo || self.first_key > hi {
            return true;
        }
        for i in 0..3 {
            if lo[i] != hi[i] {
                break;
            }
            if self.min[i] > lo[i] || self.max[i] < lo[i] {
                return true;
            }
        }
        false
    }
}

/// Decoded footer of one segment file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentMeta {
    /// Triples in the segment (each stored once per section).
    pub triples: u64,
    /// Distinct leading components per section (s, p, o) — the planner
    /// statistics, computed at write time so reads never scan for them.
    pub distinct: [u64; 3],
    /// Block directory per section: `[SPO, POS, OSP]`.
    pub sections: [Vec<BlockMeta>; 3],
}

impl SegmentMeta {
    /// Total blocks across all sections — the segment's "page count"
    /// when blocks are read through a [`wodex_store::PageBackend`].
    pub fn block_count(&self) -> u32 {
        self.sections.iter().map(|s| s.len() as u32).sum()
    }

    /// Maps a flat block id to `(section, index)`.
    pub fn locate(&self, block: u32) -> Option<(usize, usize)> {
        let mut rest = block as usize;
        for (sec, blocks) in self.sections.iter().enumerate() {
            if rest < blocks.len() {
                return Some((sec, rest));
            }
            rest -= blocks.len();
        }
        None
    }

    /// Flat block id of `(section, index)`.
    pub fn flat_id(&self, section: usize, index: usize) -> u32 {
        let before: usize = self.sections[..section].iter().map(|s| s.len()).sum();
        (before + index) as u32
    }
}

/// Encodes one block image from a sorted key run.
pub fn encode_block(keys: &[[u32; 3]]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(BLOCK_HEADER + keys.len() * 4);
    buf.extend_from_slice(&[0u8; 8]);
    buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    encode_key_run(keys, &mut buf);
    let sum = page_checksum(&buf[8..]);
    buf[..8].copy_from_slice(&sum.to_le_bytes());
    buf
}

/// Validates a block image's checksum and structure without decoding.
/// `page` is the block's flat id, carried into [`StoreError::Corrupt`]
/// so checksum failures surface in the PR 2 taxonomy with the page they
/// struck, not as strings mapped at the call site.
pub fn verify_block(page: u32, data: &[u8]) -> Result<(), StoreError> {
    if data.len() < BLOCK_HEADER {
        return Err(StoreError::Corrupt {
            page,
            detail: format!("short block: {} bytes", data.len()),
        });
    }
    let stored = u64::from_le_bytes(data[..8].try_into().expect("8-byte checksum"));
    let actual = page_checksum(&data[8..]);
    if stored != actual {
        return Err(StoreError::Corrupt {
            page,
            detail: format!("checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"),
        });
    }
    Ok(())
}

/// Validates and decodes a block image back into keys.
pub fn decode_block(page: u32, data: &[u8]) -> Result<Vec<[u32; 3]>, StoreError> {
    verify_block(page, data)?;
    let count = u32::from_le_bytes(data[8..12].try_into().expect("4-byte count")) as usize;
    let mut out = Vec::new();
    let mut pos = BLOCK_HEADER;
    decode_key_run(data, &mut pos, count, &mut out).ok_or_else(|| StoreError::Corrupt {
        page,
        detail: format!("truncated key run: {count} keys claimed"),
    })?;
    if pos != data.len() {
        return Err(StoreError::Corrupt {
            page,
            detail: format!(
                "trailing garbage: {} bytes after {count} keys",
                data.len() - pos
            ),
        });
    }
    Ok(out)
}

fn write_footer_meta(meta: &SegmentMeta, out: &mut Vec<u8>) {
    write_varint(out, meta.triples);
    for d in meta.distinct {
        write_varint(out, d);
    }
    for blocks in &meta.sections {
        write_varint(out, blocks.len() as u64);
        for b in blocks {
            write_varint(out, b.offset);
            write_varint(out, u64::from(b.len));
            for arr in [b.first_key, b.last_key, b.min, b.max] {
                for k in arr {
                    write_varint(out, u64::from(k));
                }
            }
            write_varint(out, u64::from(b.count));
        }
    }
}

fn read_footer_meta(data: &[u8]) -> Option<SegmentMeta> {
    let mut pos = 0usize;
    let mut meta = SegmentMeta {
        triples: read_varint(data, &mut pos)?,
        ..Default::default()
    };
    for d in &mut meta.distinct {
        *d = read_varint(data, &mut pos)?;
    }
    for sec in &mut meta.sections {
        let n = read_varint(data, &mut pos)? as usize;
        sec.reserve(n);
        for _ in 0..n {
            let offset = read_varint(data, &mut pos)?;
            let len = read_varint_u32(data, &mut pos)?;
            let mut arrs = [[0u32; 3]; 4];
            for arr in &mut arrs {
                for k in arr.iter_mut() {
                    *k = read_varint_u32(data, &mut pos)?;
                }
            }
            let [first_key, last_key, min, max] = arrs;
            let count = read_varint_u32(data, &mut pos)?;
            sec.push(BlockMeta {
                offset,
                len,
                first_key,
                last_key,
                min,
                max,
                count,
            });
        }
    }
    (pos == data.len()).then_some(meta)
}

/// Streaming writer: blocks are appended section by section (SPO, then
/// POS, then OSP — keys must arrive sorted within each section), the
/// footer is sealed last, and the file becomes visible only through the
/// final atomic rename.
pub struct SegmentWriter {
    file: std::io::BufWriter<std::fs::File>,
    tmp_path: std::path::PathBuf,
    final_path: std::path::PathBuf,
    offset: u64,
    meta: SegmentMeta,
    section: usize,
    buf: Vec<[u32; 3]>,
    block_triples: usize,
    /// Distinct leading-component tracker for the current section.
    last_lead: Option<u32>,
}

impl SegmentWriter {
    /// Starts writing a segment destined for `path`.
    pub fn create(path: &Path, block_triples: usize) -> std::io::Result<SegmentWriter> {
        let tmp_path = path.with_extension("tmp");
        let mut file = std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?,
        );
        file.write_all(SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            file,
            tmp_path,
            final_path: path.to_path_buf(),
            offset: SEGMENT_MAGIC.len() as u64,
            meta: SegmentMeta::default(),
            section: 0,
            buf: Vec::with_capacity(block_triples.max(1)),
            block_triples: block_triples.max(1),
            last_lead: None,
        })
    }

    /// Appends one key to the current section. Keys must arrive in
    /// strictly ascending order within the section.
    pub fn push_key(&mut self, key: [u32; 3]) -> std::io::Result<()> {
        if self.last_lead != Some(key[0]) {
            self.meta.distinct[self.section] += 1;
            self.last_lead = Some(key[0]);
        }
        if self.section == 0 {
            self.meta.triples += 1;
        }
        self.buf.push(key);
        if self.buf.len() >= self.block_triples {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let image = encode_block(&self.buf);
        let mut min = self.buf[0];
        let mut max = self.buf[0];
        for k in &self.buf[1..] {
            for i in 0..3 {
                min[i] = min[i].min(k[i]);
                max[i] = max[i].max(k[i]);
            }
        }
        self.meta.sections[self.section].push(BlockMeta {
            offset: self.offset,
            len: image.len() as u32,
            first_key: self.buf[0],
            last_key: *self.buf.last().expect("non-empty block"),
            min,
            max,
            count: self.buf.len() as u32,
        });
        self.file.write_all(&image)?;
        self.offset += image.len() as u64;
        self.buf.clear();
        crate::metrics().blocks_written.inc();
        Ok(())
    }

    /// Seals the current section and moves to the next (0 → 1 → 2).
    pub fn next_section(&mut self) -> std::io::Result<()> {
        self.flush_block()?;
        assert!(self.section + 1 < SECTIONS, "segment has three sections");
        self.section += 1;
        self.last_lead = None;
        Ok(())
    }

    /// Writes the footer, flushes, and atomically renames the `*.tmp`
    /// file into place. Returns the sealed metadata.
    pub fn finish(mut self) -> std::io::Result<SegmentMeta> {
        self.flush_block()?;
        assert_eq!(self.section, SECTIONS - 1, "all three sections required");
        let mut footer = Vec::new();
        write_footer_meta(&self.meta, &mut footer);
        let sum = page_checksum(&footer);
        self.file.write_all(&footer)?;
        self.file.write_all(&sum.to_le_bytes())?;
        self.file.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.file.write_all(SEGMENT_MAGIC)?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        Ok(self.meta)
    }

    /// Abandons the segment, deleting the temporary file. Safe at any
    /// point — the final path was never touched.
    pub fn abort(self) -> std::io::Result<()> {
        drop(self.file);
        std::fs::remove_file(&self.tmp_path)
    }
}

/// Reads and validates a segment file's footer.
pub fn read_segment_meta(path: &Path) -> Result<SegmentMeta, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("open: {e}"))?;
    let total = file
        .seek(SeekFrom::End(0))
        .map_err(|e| format!("seek: {e}"))?;
    let trailer = (8 + 8 + SEGMENT_MAGIC.len()) as u64;
    if total < SEGMENT_MAGIC.len() as u64 + trailer {
        return Err(format!("file too small for a segment: {total} bytes"));
    }
    file.seek(SeekFrom::Start(0)).map_err(|e| e.to_string())?;
    let mut head = [0u8; 8];
    file.read_exact(&mut head).map_err(|e| e.to_string())?;
    if &head != SEGMENT_MAGIC {
        return Err("bad leading magic".into());
    }
    file.seek(SeekFrom::End(-(trailer as i64)))
        .map_err(|e| e.to_string())?;
    let mut tail = vec![0u8; trailer as usize];
    file.read_exact(&mut tail).map_err(|e| e.to_string())?;
    if &tail[16..] != SEGMENT_MAGIC {
        return Err("bad trailing magic (torn write?)".into());
    }
    let stored_sum = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    let footer_len = u64::from_le_bytes(tail[8..16].try_into().expect("8 bytes"));
    if footer_len > total - trailer {
        return Err(format!("footer length {footer_len} exceeds file"));
    }
    file.seek(SeekFrom::End(-((trailer + footer_len) as i64)))
        .map_err(|e| e.to_string())?;
    let mut footer = vec![0u8; footer_len as usize];
    file.read_exact(&mut footer).map_err(|e| e.to_string())?;
    if page_checksum(&footer) != stored_sum {
        return Err("footer checksum mismatch".into());
    }
    read_footer_meta(&footer).ok_or_else(|| "footer does not parse".into())
}

/// Convenience writer: builds a whole segment from three pre-sorted key
/// iterators (used by tests and the compactor's in-memory paths; the
/// bulk loader streams through [`SegmentWriter`] directly).
pub fn write_segment(
    path: &Path,
    block_triples: usize,
    spo: impl IntoIterator<Item = EncodedTriple>,
    pos: impl IntoIterator<Item = [u32; 3]>,
    osp: impl IntoIterator<Item = [u32; 3]>,
) -> std::io::Result<SegmentMeta> {
    let mut w = SegmentWriter::create(path, block_triples)?;
    for k in spo {
        w.push_key(k)?;
    }
    w.next_section()?;
    for k in pos {
        w.push_key(k)?;
    }
    w.next_section()?;
    for k in osp {
        w.push_key(k)?;
    }
    w.finish()
}

/// Writes a whole segment from one sorted, deduplicated SPO triple
/// set, deriving the POS and OSP sections by re-sorting it in memory —
/// for sets that fit in RAM (delta compaction, tests, experiments).
pub fn write_spo_segment(
    path: &Path,
    block_triples: usize,
    spo: &[EncodedTriple],
) -> std::io::Result<SegmentMeta> {
    let sorted_by = |order: Order| {
        let mut keys: Vec<[u32; 3]> = spo.iter().map(|t| order.key(t)).collect();
        keys.sort_unstable();
        keys
    };
    write_segment(
        path,
        block_triples,
        spo.iter().copied(),
        sorted_by(Order::Pos),
        sorted_by(Order::Osp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<EncodedTriple> {
        let mut v: Vec<EncodedTriple> = (0..n).map(|i| [i / 7, i % 13, i]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn sorted_by(order: Order, ts: &[EncodedTriple]) -> Vec<[u32; 3]> {
        let mut v: Vec<[u32; 3]> = ts.iter().map(|t| order.key(t)).collect();
        v.sort_unstable();
        v
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wodex_seg_fmt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn block_roundtrip_and_corruption_detection() {
        let ks = keys(500);
        let block = encode_block(&ks);
        assert_eq!(decode_block(7, &block).unwrap(), ks);
        let mut bad = block.clone();
        bad[BLOCK_HEADER + 3] ^= 0x40;
        // Corruption is a typed `Corrupt` carrying the page id, not a
        // string the caller has to re-wrap.
        match decode_block(7, &bad).unwrap_err() {
            StoreError::Corrupt { page, detail } => {
                assert_eq!(page, 7);
                assert!(detail.contains("checksum"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        match decode_block(3, &block[..4]).unwrap_err() {
            StoreError::Corrupt { page, detail } => {
                assert_eq!(page, 3);
                assert!(detail.contains("short block"), "detail: {detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn segment_write_read_meta_roundtrip() {
        let ts = keys(10_000);
        let path = tmp("roundtrip.seg");
        let meta = write_segment(
            &path,
            512,
            ts.iter().copied(),
            sorted_by(Order::Pos, &ts),
            sorted_by(Order::Osp, &ts),
        )
        .unwrap();
        assert_eq!(meta.triples as usize, ts.len());
        let read = read_segment_meta(&path).unwrap();
        assert_eq!(read, meta);
        // Every section's directory is sorted by first key, block
        // ranges are disjoint ([last of i] < [first of i+1]), and
        // counts sum to the triple count.
        for sec in &read.sections {
            assert!(sec.windows(2).all(|w| w[0].first_key < w[1].first_key));
            assert!(sec.windows(2).all(|w| w[0].last_key < w[1].first_key));
            let total: u64 = sec.iter().map(|b| u64::from(b.count)).sum();
            assert_eq!(total, read.triples);
            for b in sec {
                assert!(b.first_key <= b.last_key);
                for i in 0..3 {
                    assert!(b.min[i] <= b.max[i]);
                    assert!(b.min[i] <= b.first_key[i] && b.first_key[i] <= b.max[i]);
                    assert!(b.min[i] <= b.last_key[i] && b.last_key[i] <= b.max[i]);
                }
            }
        }
        // Distinct leading counts match a direct computation.
        let mut subjects: Vec<u32> = ts.iter().map(|t| t[0]).collect();
        subjects.dedup();
        assert_eq!(read.distinct[0] as usize, subjects.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zone_maps_match_direct_computation_and_prune_soundly() {
        let ts = keys(3000);
        let path = tmp("zones.seg");
        let meta = write_segment(
            &path,
            128,
            ts.iter().copied(),
            sorted_by(Order::Pos, &ts),
            sorted_by(Order::Osp, &ts),
        )
        .unwrap();
        // Reconstruct each SPO block's key slice from the directory
        // counts and compare the recorded zone map against a direct
        // componentwise min/max.
        let mut at = 0usize;
        for b in &meta.sections[0] {
            let slice = &ts[at..at + b.count as usize];
            at += b.count as usize;
            assert_eq!(b.first_key, slice[0]);
            assert_eq!(b.last_key, *slice.last().unwrap());
            for i in 0..3 {
                assert_eq!(b.min[i], slice.iter().map(|k| k[i]).min().unwrap());
                assert_eq!(b.max[i], slice.iter().map(|k| k[i]).max().unwrap());
            }
            // Soundness: a bracket built from any key the block holds
            // is never pruned.
            for k in slice.iter().step_by(17) {
                assert!(!b.zone_prunes(*k, *k));
                assert!(!b.zone_prunes([k[0], 0, 0], [k[0], u32::MAX, u32::MAX]));
                assert!(!b.zone_prunes([k[0], k[1], 0], [k[0], k[1], u32::MAX]));
            }
        }
        assert_eq!(at, ts.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_segment_is_rejected_not_decoded() {
        let ts = keys(2000);
        let path = tmp("torn.seg");
        write_segment(
            &path,
            256,
            ts.iter().copied(),
            sorted_by(Order::Pos, &ts),
            sorted_by(Order::Osp, &ts),
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop the tail: simulates a torn write that rename would have
        // prevented from ever being visible under the final name.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(read_segment_meta(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn abort_leaves_no_file_behind() {
        let path = tmp("aborted.seg");
        let mut w = SegmentWriter::create(&path, 64).unwrap();
        for k in keys(100) {
            w.push_key(k).unwrap();
        }
        w.abort().unwrap();
        assert!(!path.exists());
        assert!(!path.with_extension("tmp").exists());
    }
}
