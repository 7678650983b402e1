//! The [`SegmentSource`] abstraction: one scan interface over every
//! *immutable, sorted* triple region — the in-memory store and
//! `wodex-seg`'s persistent compressed segments — and [`PageBackend`],
//! the block-reader seam underneath a disk-resident source.
//!
//! The survey's §4 asks for systems "integrated with disk structures,
//! retrieving data dynamically during runtime". The query layer above
//! (`wodex-sparql`'s three engines, the PR 5 planner, the PR 7 shard
//! workers) speaks to [`crate::TripleStore`]; a `TripleStore` can in turn
//! sit on top of any `SegmentSource` as its immutable *base region*, with
//! the existing log-structured tail and tombstones layered on top (see
//! [`crate::TripleStore::with_base`]). That keeps the engines byte-for-byte
//! unchanged while the bytes underneath move from RAM to disk.
//!
//! ## The scan-order contract
//!
//! [`SegmentSource::scan`] must return the *deduplicated* matches in the
//! key order of [`shape_order`]'s index for the pattern's bound shape —
//! exactly the order `TripleStore::match_pattern` yields from its sorted
//! region. Because the bound components are constant across a run, that
//! order simultaneously satisfies `match_pattern_sorted_by`'s
//! `(t[position], t)` order at the shape's natural position and
//! `match_pattern_sorted_lex`'s trie order at the shape's natural
//! position sequence — which is why the provided `scan_sorted_*` methods
//! can delegate to a plain `scan` on the fast path.
//!
//! Every read is fallible ([`StoreError`]): sources that live on disk
//! retry transient faults internally and surface what remains as typed
//! errors, never panics. The infallible `TripleStore` facade above
//! documents its fail-stop translation.

use crate::encoded::{EncodedTriple, Pattern};
use crate::index::Order;
use crate::memstore::{StoreStats, TripleStore};
use wodex_resilience::StoreError;

/// A flat array of immutable blocks ("pages") with read accounting —
/// what a disk-resident [`SegmentSource`] reads its bytes from, and the
/// seam where [`crate::fault::FaultBackend`] splices faults in.
///
/// Reads are fallible — a backend may sit on a real disk (or a
/// fault-injecting wrapper), so "page cannot be produced" is a value,
/// not a panic.
pub trait PageBackend {
    /// Reads page `id`.
    fn read_page(&self, id: u32) -> Result<Vec<u8>, StoreError>;
    /// Number of pages.
    fn page_count(&self) -> u32;
    /// Number of physical reads performed so far.
    fn reads(&self) -> u64;
}

/// The permutation index a pattern's bound shape scans — the single
/// source of truth shared by `TripleStore::index_run` and every
/// [`SegmentSource`] implementation, so scan orders cannot drift apart.
///
/// For every shape the bound components form a *leading prefix* of the
/// returned order's key (the `s+o` shape lands on OSP's `o, s` prefix),
/// so a range scan needs no residual filtering.
pub fn shape_order(s: bool, p: bool, o: bool) -> Order {
    match (s, p, o) {
        (true, _, false) => Order::Spo,
        (true, true, true) => Order::Spo,
        (false, true, _) => Order::Pos,
        (_, false, true) => Order::Osp,
        (false, false, false) => Order::Spo,
    }
}

/// Inclusive key-space bounds of a pattern's run in its
/// [`shape_order`] index: unbound key components are `0` in the lower
/// bound and `u32::MAX` in the upper. Everything in `[lo, hi]` matches
/// the pattern and vice versa.
pub fn shape_key_bounds(pat: Pattern) -> (Order, [u32; 3], [u32; 3]) {
    let order = shape_order(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
    let lo = order.key(&[
        pat.s.map_or(0, |t| t.0),
        pat.p.map_or(0, |t| t.0),
        pat.o.map_or(0, |t| t.0),
    ]);
    let hi = order.key(&[
        pat.s.map_or(u32::MAX, |t| t.0),
        pat.p.map_or(u32::MAX, |t| t.0),
        pat.o.map_or(u32::MAX, |t| t.0),
    ]);
    (order, lo, hi)
}

/// An immutable, sorted, deduplicated triple region.
///
/// See the module docs for the scan-order contract. `estimate` and
/// `source_stats` must be cheap (metadata-only) — the PR 5 planner calls
/// them per candidate join order.
pub trait SegmentSource: Send + Sync + std::fmt::Debug {
    /// Total triples in the source.
    fn source_len(&self) -> usize;

    /// All matches of `pat`, deduplicated, in [`shape_order`] key order.
    fn scan(&self, pat: Pattern) -> Result<Vec<EncodedTriple>, StoreError>;

    /// Cheap cardinality upper-bound estimate from metadata only.
    fn estimate(&self, pat: Pattern) -> usize;

    /// Planner statistics from metadata only (no full scan).
    fn source_stats(&self) -> StoreStats;

    /// Streams the matches of `pat` as a sequence of chunks, in the
    /// same order and with the same contents as [`SegmentSource::scan`]
    /// — concatenating every chunk yields exactly `scan(pat)`. Chunk
    /// boundaries are an implementation detail (block-structured
    /// sources emit one chunk per decoded block).
    ///
    /// `f` returns `false` to stop the scan early — a budget-aware
    /// consumer degrades at chunk granularity without the source
    /// decoding further. Returns `Ok(true)` iff the scan ran to
    /// completion. The default materializes via `scan` and emits one
    /// chunk; sources that can stream from cached blocks override it.
    fn scan_chunks(
        &self,
        pat: Pattern,
        f: &mut dyn FnMut(&[EncodedTriple]) -> bool,
    ) -> Result<bool, StoreError> {
        let all = self.scan(pat)?;
        if all.is_empty() {
            return Ok(true);
        }
        Ok(f(&all))
    }

    /// Exact match count. Default: scan and count.
    fn count(&self, pat: Pattern) -> Result<usize, StoreError> {
        Ok(self.scan(pat)?.len())
    }

    /// Membership test. Default: count of the fully bound pattern.
    fn contains_triple(&self, t: &EncodedTriple) -> Result<bool, StoreError> {
        let pat = Pattern {
            s: Some(wodex_rdf::TermId(t[0])),
            p: Some(wodex_rdf::TermId(t[1])),
            o: Some(wodex_rdf::TermId(t[2])),
        };
        Ok(self.count(pat)? > 0)
    }

    /// Matches sorted ascending by `(t[position], t)` — the
    /// `match_pattern_sorted_by` contract. The default delegates to
    /// [`SegmentSource::scan`] when the shape's natural position already
    /// yields that order, and sorts otherwise.
    fn scan_sorted_by(
        &self,
        pat: Pattern,
        position: usize,
    ) -> Result<Vec<EncodedTriple>, StoreError> {
        let natural =
            TripleStore::natural_position(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
        let mut out = self.scan(pat)?;
        if natural != Some(position) {
            out.sort_unstable_by_key(|t| (t[position], *t));
        }
        Ok(out)
    }

    /// Matches in trie order over `positions` — the
    /// `match_pattern_sorted_lex` contract. The default delegates to
    /// [`SegmentSource::scan`] when `positions` is the shape's natural
    /// order, and sorts otherwise.
    fn scan_sorted_lex(
        &self,
        pat: Pattern,
        positions: &[usize],
    ) -> Result<Vec<EncodedTriple>, StoreError> {
        let natural = TripleStore::natural_order(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
        let mut out = self.scan(pat)?;
        if positions != natural {
            out.sort_unstable_by_key(|t| {
                let mut key = [0u32; 3];
                for (slot, &p) in key.iter_mut().zip(positions) {
                    *slot = t[p];
                }
                (key, *t)
            });
        }
        Ok(out)
    }
}

/// The in-memory store is its own reference [`SegmentSource`]: every
/// other implementation is tested for scan-for-scan equality against it.
impl SegmentSource for TripleStore {
    fn source_len(&self) -> usize {
        self.len()
    }

    fn scan(&self, pat: Pattern) -> Result<Vec<EncodedTriple>, StoreError> {
        let natural = TripleStore::natural_order(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
        Ok(self.match_pattern_sorted_lex(pat, natural))
    }

    fn estimate(&self, pat: Pattern) -> usize {
        self.estimate_pattern(pat)
    }

    fn source_stats(&self) -> StoreStats {
        self.stats()
    }

    fn count(&self, pat: Pattern) -> Result<usize, StoreError> {
        Ok(self.count_pattern(pat))
    }

    fn contains_triple(&self, t: &EncodedTriple) -> Result<bool, StoreError> {
        Ok(self.contains_encoded(t))
    }

    fn scan_sorted_by(
        &self,
        pat: Pattern,
        position: usize,
    ) -> Result<Vec<EncodedTriple>, StoreError> {
        Ok(self.match_pattern_sorted_by(pat, position))
    }

    fn scan_sorted_lex(
        &self,
        pat: Pattern,
        positions: &[usize],
    ) -> Result<Vec<EncodedTriple>, StoreError> {
        Ok(self.match_pattern_sorted_lex(pat, positions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::TermId;

    fn triples() -> Vec<EncodedTriple> {
        let mut v = Vec::new();
        for s in 0..20u32 {
            v.push([s, 100, s % 5]);
            v.push([s, 101, 3]);
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    fn mem_store(ts: &[EncodedTriple]) -> TripleStore {
        let mut st = TripleStore::with_tail_limit(0);
        for &t in ts {
            // Ids must exist in the dict for decode paths; tests here only
            // exercise encoded scans, so a raw insert suffices.
            st.insert_encoded(t);
        }
        st.merge_tail();
        st
    }

    fn patterns() -> Vec<Pattern> {
        let mut pats = Vec::new();
        for s in [None, Some(TermId(3))] {
            for p in [None, Some(TermId(100))] {
                for o in [None, Some(TermId(3))] {
                    pats.push(Pattern { s, p, o });
                }
            }
        }
        pats
    }

    #[test]
    fn shape_order_matches_memstore_run_selection() {
        // The memstore's scan order is its index_run order; scanning via
        // the trait must agree for every bound shape.
        let ts = triples();
        let st = mem_store(&ts);
        for pat in patterns() {
            let via_trait = st.scan(pat).unwrap();
            let direct = st.match_pattern(pat);
            assert_eq!(via_trait, direct, "shape {pat:?}");
        }
    }

    #[test]
    fn key_bounds_bracket_exactly_the_matches() {
        let ts = triples();
        for pat in patterns() {
            let (order, lo, hi) = shape_key_bounds(pat);
            for t in &ts {
                let k = order.key(t);
                assert_eq!(pat.matches(t), k >= lo && k <= hi, "{pat:?} {t:?}");
            }
        }
    }
}
