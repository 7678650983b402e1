//! The in-memory triple store.
//!
//! [`TripleStore`] combines the term dictionary with the three permutation
//! indexes and an *unsorted tail* for recent inserts. The tail is what
//! makes the store usable in the survey's "dynamic setting": a streaming
//! insert is an O(1) append, queries transparently scan the (small) tail,
//! and once the tail exceeds a threshold it is merged into the sorted
//! indexes in one O(n + m log m) pass — amortizing the sort the way a
//! log-structured store amortizes compaction.

use crate::encoded::{EncodedTriple, Pattern};
use crate::index::{Order, SortedIndex};
use crate::segment::{shape_order, SegmentSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wodex_rdf::{Graph, Term, TermDict, TermId, Triple};

/// Default number of tail triples tolerated before an automatic merge.
pub const DEFAULT_TAIL_LIMIT: usize = 64 * 1024;

/// Cheap cardinality statistics a query planner can cost join orders with.
///
/// Derived from the sorted permutation indexes in one cached O(n) pass:
/// the distinct count for a position is the number of first-component runs
/// of the index whose key order leads with that position (SPO for
/// subjects, POS for predicates, OSP for objects). Tail triples and
/// tombstones are not folded in, so the counts are *estimates*, off by at
/// most the (bounded) tail length — which is exactly the precision a cost
/// model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Triples in the sorted region (tombstones still included).
    pub indexed_triples: usize,
    /// Estimated distinct terms per triple position: `[s, p, o]`.
    pub distinct: [usize; 3],
}

impl StoreStats {
    /// Estimated distinct values at `position` (0 = s, 1 = p, 2 = o),
    /// never below 1 so it is always a safe divisor.
    pub fn distinct_at(&self, position: usize) -> usize {
        self.distinct[position].max(1)
    }
}

/// Monotone revision source shared by all stores; revision 0 is reserved
/// for freshly `Default`-constructed (empty) stores.
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

fn next_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// An indexed, dictionary-encoded triple store.
///
/// Optionally layered over an immutable [`SegmentSource`] *base region*
/// (a persistent segment store or another in-memory store): reads union the base with the local sorted indexes and tail,
/// deletes of base triples tombstone them, and inserts de-duplicate
/// against the base — the classic LSM arrangement with the base as the
/// bottom level. Base reads are fallible at the [`SegmentSource`] layer
/// (typed [`wodex_resilience::StoreError`]s, internal retries); this
/// infallible facade is **fail-stop**: an unrecoverable base error
/// panics rather than silently dropping rows from a result.
#[derive(Debug, Default)]
pub struct TripleStore {
    dict: TermDict,
    base: Option<Arc<dyn SegmentSource>>,
    spo: SortedIndex,
    pos: SortedIndex,
    osp: SortedIndex,
    tail: Vec<EncodedTriple>,
    /// Tombstones: deleted triples still present in the sorted indexes,
    /// filtered out of every read until the next compaction. This is the
    /// standard log-structured answer to deletes — O(1) per delete, cost
    /// deferred to the merge.
    deleted: std::collections::BTreeSet<EncodedTriple>,
    tail_limit: usize,
    len: usize,
    /// Lazily computed [`StoreStats`], reset on every mutation.
    stats: OnceLock<StoreStats>,
    /// Process-unique content revision, bumped on every mutation. Caches
    /// keyed on `(revision, ...)` (e.g. the SPARQL plan cache) go stale
    /// automatically when the store changes.
    rev: u64,
}

impl TripleStore {
    /// Creates an empty store with the default tail threshold.
    pub fn new() -> TripleStore {
        TripleStore {
            tail_limit: DEFAULT_TAIL_LIMIT,
            ..Default::default()
        }
    }

    /// Creates an empty store with a custom tail threshold (0 forces a
    /// merge after every insert — useful in tests).
    pub fn with_tail_limit(tail_limit: usize) -> TripleStore {
        TripleStore {
            tail_limit,
            ..Default::default()
        }
    }

    /// Builds a store from an RDF [`Graph`] in one bulk pass: terms are
    /// interned in graph order and the indexes built by sorting, with no
    /// per-triple membership probe (a graph's triples are distinct).
    pub fn from_graph(graph: &Graph) -> TripleStore {
        let mut dict = TermDict::new();
        let triples = graph
            .iter()
            .map(|t| [&t.subject, &t.predicate, &t.object].map(|term| dict.intern(term.clone()).0))
            .collect();
        TripleStore::from_encoded(dict, triples)
    }

    /// Builds a single-level store from a dictionary and encoded
    /// triples (deduplicated internally). Used by the MVCC layer to
    /// flatten an overlay chain back into one level: the result has no
    /// base, no tail, and no tombstones, so reads over it cost exactly
    /// what the pre-write read path cost.
    pub fn from_encoded(dict: TermDict, mut triples: Vec<EncodedTriple>) -> TripleStore {
        triples.sort_unstable();
        triples.dedup();
        let mut store = TripleStore {
            dict,
            spo: SortedIndex::build(Order::Spo, &triples),
            pos: SortedIndex::build(Order::Pos, &triples),
            osp: SortedIndex::build(Order::Osp, &triples),
            len: triples.len(),
            tail_limit: DEFAULT_TAIL_LIMIT,
            ..Default::default()
        };
        store.touch();
        store
    }

    /// Creates a store layered over an immutable base region.
    ///
    /// `dict` must already contain every term id the base returns (for a
    /// persistent segment store, the dictionary loaded from the same
    /// directory); local inserts intern new terms on top, extending the
    /// dense id space. The base is never mutated — deletes tombstone its
    /// triples locally, inserts land in the tail as usual.
    pub fn with_base(dict: TermDict, base: Arc<dyn SegmentSource>) -> TripleStore {
        let len = base.source_len();
        let mut store = TripleStore {
            dict,
            base: Some(base),
            tail_limit: DEFAULT_TAIL_LIMIT,
            len,
            ..Default::default()
        };
        store.touch();
        store
    }

    /// The immutable base region, if this store has one.
    pub fn base(&self) -> Option<&Arc<dyn SegmentSource>> {
        self.base.as_ref()
    }

    /// Fail-stop unwrap for base reads (see the struct docs): the
    /// infallible facade cannot return an error, and a silently empty
    /// result would be *unsound* (query answers must be supersets of the
    /// base's matches), so an unrecoverable base failure halts.
    fn base_ok<T>(r: Result<T, wodex_resilience::StoreError>) -> T {
        r.unwrap_or_else(|e| panic!("segment base read failed (fail-stop): {e}"))
    }

    /// Base membership test (false without a base).
    fn base_contains(&self, t: &EncodedTriple) -> bool {
        match &self.base {
            Some(b) => Self::base_ok(b.contains_triple(t)),
            None => false,
        }
    }

    /// Base matches of `pat` with local tombstones filtered out, in the
    /// shape's index key order. Empty without a base.
    fn base_matches(&self, pat: Pattern) -> Vec<EncodedTriple> {
        let Some(b) = &self.base else {
            return Vec::new();
        };
        let mut out = Self::base_ok(b.scan(pat));
        if !self.deleted.is_empty() {
            out.retain(|t| !self.deleted.contains(t));
        }
        out
    }

    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Interns a term (exposed so query engines can encode constants).
    pub fn intern(&mut self, term: Term) -> TermId {
        self.dict.intern(term)
    }

    /// Looks up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.dict.id_of(term)
    }

    /// Decodes a term id.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of triples currently in the unsorted tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Inserts one decoded triple (streaming path). Returns true if new.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.dict.intern(triple.subject.clone());
        let p = self.dict.intern(triple.predicate.clone());
        let o = self.dict.intern(triple.object.clone());
        self.insert_encoded([s.0, p.0, o.0])
    }

    /// Invalidates derived state after a mutation: cached statistics are
    /// recomputed on next use and the revision moves so plan caches keyed
    /// on it go stale.
    fn touch(&mut self) {
        self.stats = OnceLock::new();
        self.rev = next_revision();
    }

    /// Inserts an already-encoded triple. Returns true if new.
    pub fn insert_encoded(&mut self, t: EncodedTriple) -> bool {
        if self.deleted.remove(&t) {
            // Resurrect a tombstoned triple: it is still in the indexes.
            self.len += 1;
            self.touch();
            return true;
        }
        if self.contains_encoded(&t) {
            return false;
        }
        self.tail.push(t);
        self.len += 1;
        self.touch();
        if self.tail.len() > self.tail_limit {
            self.merge_tail();
        }
        true
    }

    /// Deletes a triple (tombstoned until the next merge). Returns true
    /// if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id_of(&triple.subject),
            self.dict.id_of(&triple.predicate),
            self.dict.id_of(&triple.object),
        ) else {
            return false;
        };
        self.remove_encoded([s.0, p.0, o.0])
    }

    /// Deletes an encoded triple. Returns true if it was present.
    pub fn remove_encoded(&mut self, t: EncodedTriple) -> bool {
        if let Some(i) = self.tail.iter().position(|x| *x == t) {
            self.tail.swap_remove(i);
            self.len -= 1;
            self.touch();
            return true;
        }
        let k = Order::Spo.key(&t);
        let in_sorted = !self
            .spo
            .prefix_range(Some(k[0]), Some(k[1]), Some(k[2]))
            .is_empty();
        if (in_sorted || self.base_contains(&t)) && self.deleted.insert(t) {
            self.len -= 1;
            self.touch();
            return true;
        }
        false
    }

    /// Inserts every triple of a graph.
    pub fn insert_graph(&mut self, graph: &Graph) -> usize {
        let mut added = 0;
        for t in graph.iter() {
            if self.insert(t) {
                added += 1;
            }
        }
        added
    }

    /// Merges the tail into the three sorted indexes and compacts
    /// tombstoned deletions out of them.
    pub fn merge_tail(&mut self) {
        if self.tail.is_empty() && self.deleted.is_empty() {
            return;
        }
        // Logical content is unchanged, but the stats estimates (computed
        // from the sorted region only) move as the tail folds in.
        self.touch();
        if self.deleted.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            self.spo
                .merge(tail.iter().map(|t| Order::Spo.key(t)).collect());
            self.pos
                .merge(tail.iter().map(|t| Order::Pos.key(t)).collect());
            self.osp
                .merge(tail.iter().map(|t| Order::Osp.key(t)).collect());
            return;
        }
        // Compaction path: rebuild the indexes without the tombstones.
        // Tombstones covering *base* triples must survive the rebuild —
        // the base is immutable, so they are the only record of those
        // deletes.
        let deleted = std::mem::take(&mut self.deleted);
        let tail = std::mem::take(&mut self.tail);
        let mut all: Vec<EncodedTriple> = self
            .spo
            .iter()
            .map(|k| Order::Spo.unkey(k))
            .filter(|t| !deleted.contains(t))
            .collect();
        all.extend(tail);
        self.spo = SortedIndex::build(Order::Spo, &all);
        self.pos = SortedIndex::build(Order::Pos, &all);
        self.osp = SortedIndex::build(Order::Osp, &all);
        if self.base.is_some() {
            self.deleted = deleted
                .into_iter()
                .filter(|t| self.base_contains(t))
                .collect();
        }
    }

    /// Membership test on an encoded triple.
    pub fn contains_encoded(&self, t: &EncodedTriple) -> bool {
        if self.deleted.contains(t) {
            return false;
        }
        let k = Order::Spo.key(t);
        !self
            .spo
            .prefix_range(Some(k[0]), Some(k[1]), Some(k[2]))
            .is_empty()
            || self.tail.contains(t)
            || self.base_contains(t)
    }

    /// Membership test on a decoded triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id_of(&triple.subject),
            self.dict.id_of(&triple.predicate),
            self.dict.id_of(&triple.object),
        ) else {
            return false;
        };
        self.contains_encoded(&[s.0, p.0, o.0])
    }

    /// The contiguous index run serving a pattern's bound positions, plus
    /// the key order needed to restore `[s, p, o]` component order.
    ///
    /// Selects the best index for the bound positions
    /// ([`crate::segment::shape_order`] — shared with every
    /// [`SegmentSource`] so scan orders cannot drift) and binary-searches
    /// its prefix run; `s+o` (the one bound set that is not a prefix of
    /// any permutation) goes through OSP's `o, s` prefix.
    fn index_run(&self, s: Option<u32>, p: Option<u32>, o: Option<u32>) -> (&[[u32; 3]], Order) {
        let order = shape_order(s.is_some(), p.is_some(), o.is_some());
        let index = match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        };
        // Permute the bound components into the index's key order; every
        // shape's bound set is a leading prefix of its shape_order key.
        let positions = order.key(&[0, 1, 2]);
        let opts = [s, p, o];
        let k = positions.map(|i| opts[i as usize]);
        debug_assert!(
            k[1].is_none() || k[0].is_some(),
            "bound set must be a leading prefix of {order:?}"
        );
        (index.prefix_range(k[0], k[1], k[2]), order)
    }

    /// Matches a pattern, returning encoded triples.
    ///
    /// The index run is decoded (and, when deletions exist, filtered) in
    /// parallel partitions merged in index order, then matching tail
    /// entries are appended — so results are identical to a serial scan at
    /// every thread count. With a base region, its (tombstone-filtered)
    /// matches come first, in the same key order the local run uses.
    pub fn match_pattern(&self, pat: Pattern) -> Vec<EncodedTriple> {
        let s = pat.s.map(|t| t.0);
        let p = pat.p.map(|t| t.0);
        let o = pat.o.map(|t| t.0);
        let base = self.base_matches(pat);
        let (run, order) = self.index_run(s, p, o);
        let local: Vec<EncodedTriple> = if self.deleted.is_empty() {
            wodex_exec::par_map(run, |k| order.unkey(k))
        } else {
            wodex_exec::par_chunks(run, wodex_exec::chunk_size(run.len()), |_, chunk| {
                chunk
                    .iter()
                    .map(|k| order.unkey(k))
                    .filter(|t| !self.deleted.contains(t))
                    .collect::<Vec<EncodedTriple>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        // Merge the (disjoint) base and local regions in key order, so
        // that with an empty tail the result is globally key-ordered and
        // the sorted fast paths hold with or without a base.
        let mut out = if base.is_empty() {
            local
        } else if local.is_empty() {
            base
        } else {
            let mut merged = Vec::with_capacity(base.len() + local.len());
            let (mut i, mut j) = (0, 0);
            while i < base.len() && j < local.len() {
                if order.key(&base[i]) <= order.key(&local[j]) {
                    merged.push(base[i]);
                    i += 1;
                } else {
                    merged.push(local[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&base[i..]);
            merged.extend_from_slice(&local[j..]);
            merged
        };
        out.extend(self.tail.iter().filter(|t| pat.matches(t)));
        out
    }

    /// Streams `match_pattern(pat)` as a sequence of chunks without
    /// materializing the full result: concatenating every chunk yields
    /// exactly `match_pattern(pat)`. Base chunks stream straight from
    /// the segment source's [`SegmentSource::scan_chunks`] (so a
    /// block-cached base never materializes a full scan), merged
    /// incrementally with the local sorted run in key order — base
    /// first on ties, the same tie-break `match_pattern` uses — with
    /// matching tail entries appended last.
    ///
    /// `f` returns `false` to stop the scan early (budget-aware
    /// consumers degrade at chunk granularity); the call then returns
    /// `false` without scanning further. Base read failures fail-stop
    /// exactly like `match_pattern` (see the struct docs).
    pub fn match_pattern_chunks(
        &self,
        pat: Pattern,
        f: &mut dyn FnMut(&[EncodedTriple]) -> bool,
    ) -> bool {
        /// Local-run entries emitted between base chunks, per chunk.
        const LOCAL_CHUNK: usize = 8192;
        let s = pat.s.map(|t| t.0);
        let p = pat.p.map(|t| t.0);
        let o = pat.o.map(|t| t.0);
        let (run, order) = self.index_run(s, p, o);
        let mut li = 0usize;
        let mut buf: Vec<EncodedTriple> = Vec::new();
        let local_visible = |k: &[u32; 3]| -> Option<EncodedTriple> {
            let t = order.unkey(k);
            (self.deleted.is_empty() || !self.deleted.contains(&t)).then_some(t)
        };
        if let Some(b) = &self.base {
            let done = Self::base_ok(b.scan_chunks(pat, &mut |chunk| {
                buf.clear();
                for t in chunk {
                    if !self.deleted.is_empty() && self.deleted.contains(t) {
                        continue; // tombstoned base triple
                    }
                    let bk = order.key(t);
                    while li < run.len() && run[li] < bk {
                        if let Some(lt) = local_visible(&run[li]) {
                            buf.push(lt);
                        }
                        li += 1;
                    }
                    buf.push(*t);
                }
                buf.is_empty() || f(&buf)
            }));
            if !done {
                return false;
            }
        }
        while li < run.len() {
            let end = run.len().min(li + LOCAL_CHUNK);
            buf.clear();
            for k in &run[li..end] {
                if let Some(lt) = local_visible(k) {
                    buf.push(lt);
                }
            }
            li = end;
            if !buf.is_empty() && !f(&buf) {
                return false;
            }
        }
        buf.clear();
        buf.extend(self.tail.iter().filter(|t| pat.matches(t)));
        if !buf.is_empty() && !f(&buf) {
            return false;
        }
        true
    }

    /// Counts matches without materializing result triples.
    ///
    /// With no deletions the indexed part is just the run length; with
    /// deletions it is a parallel fold over the run. Either way the count
    /// equals `match_pattern(pat).len()` without allocating the results.
    pub fn count_pattern(&self, pat: Pattern) -> usize {
        let s = pat.s.map(|t| t.0);
        let p = pat.p.map(|t| t.0);
        let o = pat.o.map(|t| t.0);
        let (run, order) = self.index_run(s, p, o);
        let indexed = if self.deleted.is_empty() {
            run.len()
        } else {
            wodex_exec::par_fold(
                run,
                || 0usize,
                |acc, k| acc + usize::from(!self.deleted.contains(&order.unkey(k))),
                |a, b| a + b,
            )
        };
        let base = match &self.base {
            Some(b) => {
                let total = Self::base_ok(b.count(pat));
                // Tombstoned base triples are counted by the base but
                // invisible here; regions are disjoint, so tombstones on
                // the local sorted region never double-subtract.
                let tombstoned = self
                    .deleted
                    .iter()
                    .filter(|t| pat.matches(t) && Self::base_ok(b.contains_triple(t)))
                    .count();
                total - tombstoned
            }
            None => 0,
        };
        base + indexed + self.tail.iter().filter(|t| pat.matches(t)).count()
    }

    /// Matches a pattern and decodes the results into [`Triple`]s.
    pub fn match_decoded(&self, pat: Pattern) -> Vec<Triple> {
        self.match_pattern(pat)
            .into_iter()
            .map(|t| self.decode(t))
            .collect()
    }

    /// Decodes one encoded triple.
    pub fn decode(&self, t: EncodedTriple) -> Triple {
        Triple::new(
            self.dict.term(TermId(t[0])).clone(),
            self.dict.term(TermId(t[1])).clone(),
            self.dict.term(TermId(t[2])).clone(),
        )
    }

    /// Builds a pattern from optional decoded terms, returning `None` when
    /// some constant is not in the dictionary (in which case the pattern
    /// can match nothing).
    pub fn encode_pattern(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Option<Pattern> {
        let mut pat = Pattern::any();
        if let Some(t) = s {
            pat.s = Some(self.dict.id_of(t)?);
        }
        if let Some(t) = p {
            pat.p = Some(self.dict.id_of(t)?);
        }
        if let Some(t) = o {
            pat.o = Some(self.dict.id_of(t)?);
        }
        Some(pat)
    }

    /// All encoded triples in SPO order (tail merged first; base region
    /// included).
    pub fn snapshot_sorted(&mut self) -> Vec<EncodedTriple> {
        self.merge_tail();
        // With the tail merged, the full-scan match is the SPO-ordered
        // merge of the base and local regions minus tombstones.
        self.match_pattern(Pattern::any())
    }

    /// Process-unique content revision; bumps on every mutation. Two
    /// observations of the same revision from the same store guarantee
    /// identical contents, so it is a sound cache key component.
    pub fn revision(&self) -> u64 {
        self.rev
    }

    /// Cardinality statistics for the planner, computed on first use and
    /// cached until the next mutation.
    pub fn stats(&self) -> StoreStats {
        *self.stats.get_or_init(|| {
            fn leading_runs(index: &SortedIndex) -> usize {
                let mut n = 0usize;
                let mut last = None;
                for k in index.iter() {
                    if last != Some(k[0]) {
                        n += 1;
                        last = Some(k[0]);
                    }
                }
                n
            }
            let mut stats = StoreStats {
                indexed_triples: self.spo.len(),
                distinct: [
                    leading_runs(&self.spo),
                    leading_runs(&self.pos),
                    leading_runs(&self.osp),
                ],
            };
            if let Some(b) = &self.base {
                // Fold in the base's metadata-derived stats. Summing the
                // distinct counts can double-count terms present in both
                // regions — acceptable for an estimate, and exact in the
                // common pure-base configuration.
                let bs = b.source_stats();
                stats.indexed_triples += bs.indexed_triples;
                for (d, bd) in stats.distinct.iter_mut().zip(bs.distinct) {
                    *d += bd;
                }
            }
            stats
        })
    }

    /// Cheap cardinality estimate for a pattern: the indexed run length
    /// (two binary searches, tombstones *not* subtracted) plus matching
    /// tail entries. An upper bound on [`TripleStore::count_pattern`],
    /// exact while no deletions are pending.
    pub fn estimate_pattern(&self, pat: Pattern) -> usize {
        let (run, _) = self.index_run(pat.s.map(|t| t.0), pat.p.map(|t| t.0), pat.o.map(|t| t.0));
        let base = self.base.as_ref().map_or(0, |b| b.estimate(pat));
        base + run.len() + self.tail.iter().filter(|t| pat.matches(t)).count()
    }

    /// The triple position (0 = s, 1 = p, 2 = o) whose values the index
    /// run for this bound shape is naturally sorted by — the first
    /// *unbound* component in the selected index's key order. `None` for
    /// a fully bound pattern (at most one result; nothing to sort).
    ///
    /// Public so a query planner can predict when
    /// [`TripleStore::match_pattern_sorted_by`] is a zero-sort scan
    /// (this position, empty tail) and prefer a merge join there.
    pub fn natural_position(s: bool, p: bool, o: bool) -> Option<usize> {
        match (s, p, o) {
            (true, true, true) => None,
            // SPO: bound prefix constant, next key component varies first.
            (true, true, false) => Some(2),
            (true, false, false) => Some(1),
            (false, false, false) => Some(0),
            // POS (p, o, s).
            (false, true, true) => Some(0),
            (false, true, false) => Some(2),
            // OSP (o, s, p).
            (false, false, true) => Some(0),
            (true, false, true) => Some(1),
        }
    }

    /// Matches a pattern, returning encoded triples sorted ascending by
    /// `(t[position], t)` — the order a sort-merge join consumes.
    ///
    /// When the index run already arrives in that order (the bound shape's
    /// natural position equals `position`) and the tail is empty, this is
    /// a zero-sort scan; otherwise it is [`TripleStore::match_pattern`]
    /// plus one explicit sort. Both paths return byte-identical vectors:
    /// within a run the bound components are constant, so index key order
    /// and `(t[position], t)` order coincide.
    pub fn match_pattern_sorted_by(&self, pat: Pattern, position: usize) -> Vec<EncodedTriple> {
        debug_assert!(position < 3);
        let natural = Self::natural_position(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
        if self.tail.is_empty() && natural == Some(position) {
            // With no tail, match_pattern is globally key-ordered (base
            // and local regions are merged in key order), which within a
            // run equals the `(t[position], t)` order.
            return self.match_pattern(pat);
        }
        let mut out = self.match_pattern(pat);
        out.sort_unstable_by_key(|t| (t[position], *t));
        out
    }

    /// The triple-position sequence the index run for this bound shape is
    /// naturally sorted by: every *unbound* component, in the selected
    /// index's key order. The multi-position generalization of
    /// [`TripleStore::natural_position`], whose value is always this
    /// sequence's first element. Empty for a fully bound pattern.
    pub fn natural_order(s: bool, p: bool, o: bool) -> &'static [usize] {
        match (s, p, o) {
            (true, true, true) => &[],
            // SPO: the bound prefix is constant, the remaining key
            // components vary in index order.
            (true, true, false) => &[2],
            (true, false, false) => &[1, 2],
            (false, false, false) => &[0, 1, 2],
            // POS (p, o, s).
            (false, true, true) => &[0],
            (false, true, false) => &[2, 0],
            // OSP (o, s, p).
            (false, false, true) => &[0, 1],
            (true, false, true) => &[1],
        }
    }

    /// Matches a pattern, returning encoded triples sorted
    /// lexicographically by the value tuple `(t[positions[0]],
    /// t[positions[1]], …)` — the trie order a multiway leapfrog join's
    /// [`crate::cursor::SortedCursor`] consumes.
    ///
    /// When the requested sequence equals the bound shape's full natural
    /// order ([`TripleStore::natural_order`]) and the tail is empty this
    /// is a zero-sort scan: the index run already arrives in exactly that
    /// order, and with every unbound position covered there are no ties.
    /// Otherwise it is [`TripleStore::match_pattern`] plus one explicit
    /// sort, with ties beyond the requested positions broken by the full
    /// triple — a deterministic total order either way.
    pub fn match_pattern_sorted_lex(
        &self,
        pat: Pattern,
        positions: &[usize],
    ) -> Vec<EncodedTriple> {
        debug_assert!(positions.iter().all(|&p| p < 3));
        let natural = Self::natural_order(pat.s.is_some(), pat.p.is_some(), pat.o.is_some());
        if self.tail.is_empty() && positions == natural {
            return self.match_pattern(pat);
        }
        let mut out = self.match_pattern(pat);
        out.sort_unstable_by_key(|t| {
            let mut key = [0u32; 3];
            for (slot, &p) in key.iter_mut().zip(positions) {
                *slot = t[p];
            }
            (key, *t)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{rdf, rdfs};

    fn store() -> TripleStore {
        let mut g = Graph::new();
        for i in 0..10 {
            let s = format!("http://e.org/s{i}");
            g.insert(Triple::iri(&s, rdf::TYPE, Term::iri("http://e.org/C")));
            g.insert(Triple::iri(&s, rdfs::LABEL, Term::literal(format!("{i}"))));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn bulk_build_counts() {
        let st = store();
        assert_eq!(st.len(), 20);
        assert_eq!(st.tail_len(), 0);
    }

    #[test]
    fn match_by_predicate() {
        let st = store();
        let p = st.id_of(&Term::iri(rdf::TYPE)).unwrap();
        let r = st.match_pattern(Pattern::any().with_p(p));
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn match_by_subject_and_full() {
        let st = store();
        let s = st.id_of(&Term::iri("http://e.org/s3")).unwrap();
        assert_eq!(st.match_pattern(Pattern::any().with_s(s)).len(), 2);
        let p = st.id_of(&Term::iri(rdf::TYPE)).unwrap();
        let o = st.id_of(&Term::iri("http://e.org/C")).unwrap();
        let full = Pattern::any().with_s(s).with_p(p).with_o(o);
        assert_eq!(st.match_pattern(full).len(), 1);
    }

    #[test]
    fn match_by_object_and_so() {
        let st = store();
        let o = st.id_of(&Term::iri("http://e.org/C")).unwrap();
        assert_eq!(st.match_pattern(Pattern::any().with_o(o)).len(), 10);
        let s = st.id_of(&Term::iri("http://e.org/s3")).unwrap();
        let so = Pattern::any().with_s(s).with_o(o);
        assert_eq!(st.match_pattern(so).len(), 1);
    }

    #[test]
    fn streaming_inserts_visible_before_merge() {
        let mut st = TripleStore::new();
        st.insert(&Triple::iri(
            "http://e.org/a",
            rdfs::LABEL,
            Term::literal("A"),
        ));
        assert_eq!(st.tail_len(), 1);
        let p = st.id_of(&Term::iri(rdfs::LABEL)).unwrap();
        assert_eq!(st.match_pattern(Pattern::any().with_p(p)).len(), 1);
        st.merge_tail();
        assert_eq!(st.tail_len(), 0);
        assert_eq!(st.match_pattern(Pattern::any().with_p(p)).len(), 1);
    }

    #[test]
    fn duplicate_inserts_rejected_in_both_regions() {
        let mut st = TripleStore::with_tail_limit(1000);
        let t = Triple::iri("http://e.org/a", rdfs::LABEL, Term::literal("A"));
        assert!(st.insert(&t));
        assert!(!st.insert(&t)); // duplicate in tail
        st.merge_tail();
        assert!(!st.insert(&t)); // duplicate in sorted region
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn auto_merge_at_tail_limit() {
        let mut st = TripleStore::with_tail_limit(5);
        for i in 0..20 {
            st.insert(&Triple::iri(
                &format!("http://e.org/s{i}"),
                rdfs::LABEL,
                Term::literal(format!("{i}")),
            ));
        }
        assert!(st.tail_len() <= 5);
        assert_eq!(st.len(), 20);
        let p = st.id_of(&Term::iri(rdfs::LABEL)).unwrap();
        assert_eq!(st.match_pattern(Pattern::any().with_p(p)).len(), 20);
    }

    #[test]
    fn contains_decoded() {
        let st = store();
        assert!(st.contains(&Triple::iri(
            "http://e.org/s0",
            rdf::TYPE,
            Term::iri("http://e.org/C")
        )));
        assert!(!st.contains(&Triple::iri(
            "http://e.org/s0",
            rdf::TYPE,
            Term::iri("http://e.org/Nope")
        )));
    }

    #[test]
    fn decode_roundtrip() {
        let st = store();
        let all = st.match_pattern(Pattern::any());
        assert_eq!(all.len(), 20);
        for t in all {
            let decoded = st.decode(t);
            assert!(st.contains(&decoded));
        }
    }

    #[test]
    fn encode_pattern_fails_for_unknown_constants() {
        let st = store();
        assert!(st
            .encode_pattern(None, Some(&Term::iri("http://nope/")), None)
            .is_none());
        let pat = st
            .encode_pattern(None, Some(&Term::iri(rdf::TYPE)), None)
            .unwrap();
        assert_eq!(pat.bound_count(), 1);
    }

    #[test]
    fn remove_from_tail_and_from_sorted_region() {
        let mut st = TripleStore::with_tail_limit(1000);
        let a = Triple::iri("http://e.org/a", rdfs::LABEL, Term::literal("A"));
        let b = Triple::iri("http://e.org/b", rdfs::LABEL, Term::literal("B"));
        st.insert(&a);
        st.merge_tail(); // a is now in the sorted region
        st.insert(&b); // b stays in the tail
        assert!(st.remove(&b), "tail delete");
        assert!(st.remove(&a), "sorted-region delete (tombstone)");
        assert_eq!(st.len(), 0);
        assert!(!st.contains(&a));
        assert!(!st.contains(&b));
        let p = st.id_of(&Term::iri(rdfs::LABEL)).unwrap();
        assert!(st.match_pattern(Pattern::any().with_p(p)).is_empty());
        assert!(!st.remove(&a), "double delete is a no-op");
    }

    #[test]
    fn deleted_triples_can_be_reinserted() {
        let mut st = TripleStore::with_tail_limit(1000);
        let t = Triple::iri("http://e.org/a", rdfs::LABEL, Term::literal("A"));
        st.insert(&t);
        st.merge_tail();
        assert!(st.remove(&t));
        assert!(st.insert(&t), "resurrection counts as a new insert");
        assert!(st.contains(&t));
        assert_eq!(st.len(), 1);
        assert_eq!(st.match_pattern(Pattern::any()).len(), 1);
    }

    #[test]
    fn compaction_physically_drops_tombstones() {
        let mut st = TripleStore::with_tail_limit(usize::MAX / 2);
        for i in 0..50 {
            st.insert(&Triple::iri(
                &format!("http://e.org/s{i}"),
                rdfs::LABEL,
                Term::literal(format!("{i}")),
            ));
        }
        st.merge_tail();
        for i in 0..25 {
            assert!(st.remove(&Triple::iri(
                &format!("http://e.org/s{i}"),
                rdfs::LABEL,
                Term::literal(format!("{i}")),
            )));
        }
        assert_eq!(st.len(), 25);
        // snapshot_sorted triggers compaction.
        let snapshot = st.snapshot_sorted();
        assert_eq!(snapshot.len(), 25);
        let p = st.id_of(&Term::iri(rdfs::LABEL)).unwrap();
        assert_eq!(st.match_pattern(Pattern::any().with_p(p)).len(), 25);
    }

    #[test]
    fn remove_unknown_triple_is_false() {
        let mut st = store();
        assert!(!st.remove(&Triple::iri(
            "http://e.org/nope",
            rdfs::LABEL,
            Term::literal("x")
        )));
        assert_eq!(st.len(), 20);
    }

    #[test]
    fn stats_count_distinct_terms_per_position() {
        let st = store();
        let stats = st.stats();
        assert_eq!(stats.indexed_triples, 20);
        // 10 subjects, 2 predicates (rdf:type + rdfs:label), 11 objects
        // (the class IRI + 10 distinct labels).
        assert_eq!(stats.distinct, [10, 2, 11]);
        assert_eq!(stats.distinct_at(1), 2);
        // Cached value is stable across calls.
        assert_eq!(st.stats(), stats);
    }

    #[test]
    fn revision_bumps_on_every_mutation_and_resets_stats() {
        let mut st = TripleStore::with_tail_limit(1000);
        let r0 = st.revision();
        let t = Triple::iri("http://e.org/a", rdfs::LABEL, Term::literal("A"));
        assert!(st.insert(&t));
        let r1 = st.revision();
        assert_ne!(r0, r1, "insert bumps revision");
        assert_eq!(st.stats().indexed_triples, 0, "tail not indexed yet");
        st.merge_tail();
        let r2 = st.revision();
        assert_ne!(r1, r2, "merge bumps revision");
        assert_eq!(st.stats().indexed_triples, 1, "stats recomputed");
        assert!(st.remove(&t));
        assert_ne!(st.revision(), r2, "remove bumps revision");
        // Two stores never share a revision.
        let other = TripleStore::from_graph(&Graph::new());
        assert_ne!(other.revision(), st.revision());
    }

    #[test]
    fn estimate_pattern_is_exact_without_deletions() {
        let mut st = store();
        let p = st.id_of(&Term::iri(rdf::TYPE)).unwrap();
        let pat = Pattern::any().with_p(p);
        assert_eq!(st.estimate_pattern(pat), st.count_pattern(pat));
        // With a pending tombstone the estimate is an upper bound.
        st.remove(&Triple::iri(
            "http://e.org/s0",
            rdf::TYPE,
            Term::iri("http://e.org/C"),
        ));
        assert!(st.estimate_pattern(pat) >= st.count_pattern(pat));
    }

    #[test]
    fn sorted_scan_equals_explicit_sort_for_every_shape_and_position() {
        // Exercise both the zero-sort fast path (tail empty) and the
        // fallback (tail present, tombstones pending) against the
        // brute-force reference order.
        let mut st = store();
        st.remove(&Triple::iri(
            "http://e.org/s4",
            rdf::TYPE,
            Term::iri("http://e.org/C"),
        ));
        for with_tail in [false, true] {
            if with_tail {
                // Leave fresh triples in the tail (limit is high enough).
                let mut grown = TripleStore::with_tail_limit(1_000_000);
                for t in st.match_pattern(Pattern::any()) {
                    grown.insert(&st.decode(t));
                }
                grown.merge_tail();
                grown.insert(&Triple::iri(
                    "http://e.org/zz",
                    rdfs::LABEL,
                    Term::literal("zz"),
                ));
                st = grown;
            }
            let s = st.id_of(&Term::iri("http://e.org/s3"));
            let p = st.id_of(&Term::iri(rdfs::LABEL));
            let o = st.id_of(&Term::iri("http://e.org/C"));
            for &ps in &[None, s] {
                for &pp in &[None, p] {
                    for &po in &[None, o] {
                        let pat = Pattern {
                            s: ps,
                            p: pp,
                            o: po,
                        };
                        for position in 0..3 {
                            let got = st.match_pattern_sorted_by(pat, position);
                            let mut want = st.match_pattern(pat);
                            want.sort_unstable_by_key(|t| (t[position], *t));
                            assert_eq!(got, want, "pattern {pat:?} position {position}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn natural_order_starts_at_the_natural_position() {
        for s in [false, true] {
            for p in [false, true] {
                for o in [false, true] {
                    let order = TripleStore::natural_order(s, p, o);
                    assert_eq!(
                        order.first().copied(),
                        TripleStore::natural_position(s, p, o),
                        "shape ({s},{p},{o})"
                    );
                    assert_eq!(
                        order.len(),
                        [s, p, o].iter().filter(|b| !**b).count(),
                        "every unbound position appears once for ({s},{p},{o})"
                    );
                }
            }
        }
    }

    #[test]
    fn lex_sorted_scan_equals_explicit_sort_for_every_shape_and_order() {
        let mut st = store();
        st.remove(&Triple::iri(
            "http://e.org/s4",
            rdf::TYPE,
            Term::iri("http://e.org/C"),
        ));
        let s = st.id_of(&Term::iri("http://e.org/s3"));
        let p = st.id_of(&Term::iri(rdfs::LABEL));
        let reference = |st: &TripleStore, pat: Pattern, positions: &[usize]| {
            let mut want = st.match_pattern(pat);
            want.sort_unstable_by_key(|t| {
                let mut key = [0u32; 3];
                for (slot, &pos) in key.iter_mut().zip(positions) {
                    *slot = t[pos];
                }
                (key, *t)
            });
            want
        };
        // Every bound shape with its natural order (zero-sort fast path)
        // and with a deliberately different permutation (explicit sort).
        for &ps in &[None, s] {
            for &pp in &[None, p] {
                let pat = Pattern {
                    s: ps,
                    p: pp,
                    o: None,
                };
                let natural =
                    TripleStore::natural_order(ps.is_some(), pp.is_some(), false).to_vec();
                let mut reversed = natural.clone();
                reversed.reverse();
                for positions in [natural, reversed, vec![2, 1, 0], vec![0]] {
                    let got = st.match_pattern_sorted_lex(pat, &positions);
                    assert_eq!(
                        got,
                        reference(&st, pat, &positions),
                        "pattern {pat:?} positions {positions:?}"
                    );
                }
            }
        }
        // A tailed store must fall back to the explicit sort and agree.
        st.insert(&Triple::iri(
            "http://e.org/zz",
            rdfs::LABEL,
            Term::literal("zz"),
        ));
        assert!(st.tail_len() > 0);
        let pat = Pattern::any();
        let positions = [0usize, 1, 2];
        assert_eq!(
            st.match_pattern_sorted_lex(pat, &positions),
            reference(&st, pat, &positions)
        );
    }

    /// The `store()` fixture split into a base region (its sorted
    /// triples) and a layered store on top.
    fn layered_store() -> (TripleStore, TripleStore) {
        let reference = store();
        let base = store();
        let dict = base.dict().clone();
        let layered = TripleStore::with_base(dict, Arc::new(base));
        (layered, reference)
    }

    #[test]
    fn base_backed_store_reads_like_the_flat_store() {
        let (layered, reference) = layered_store();
        assert_eq!(layered.len(), reference.len());
        let s = reference.id_of(&Term::iri("http://e.org/s3"));
        let p = reference.id_of(&Term::iri(rdf::TYPE));
        let o = reference.id_of(&Term::iri("http://e.org/C"));
        for &ps in &[None, s] {
            for &pp in &[None, p] {
                for &po in &[None, o] {
                    let pat = Pattern {
                        s: ps,
                        p: pp,
                        o: po,
                    };
                    assert_eq!(
                        layered.match_pattern(pat),
                        reference.match_pattern(pat),
                        "{pat:?}"
                    );
                    assert_eq!(layered.count_pattern(pat), reference.count_pattern(pat));
                    assert!(layered.estimate_pattern(pat) >= layered.count_pattern(pat));
                    for position in 0..3 {
                        assert_eq!(
                            layered.match_pattern_sorted_by(pat, position),
                            reference.match_pattern_sorted_by(pat, position),
                            "{pat:?} sorted_by {position}"
                        );
                    }
                    for positions in [&[0usize, 1, 2][..], &[2, 0], &[1]] {
                        assert_eq!(
                            layered.match_pattern_sorted_lex(pat, positions),
                            reference.match_pattern_sorted_lex(pat, positions),
                            "{pat:?} sorted_lex {positions:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(layered.stats(), reference.stats());
    }

    #[test]
    fn base_backed_store_supports_inserts_deletes_and_tombstones() {
        let (mut layered, _) = layered_store();
        let n = layered.len();
        // Duplicate of a base triple is rejected.
        let dup = Triple::iri("http://e.org/s0", rdf::TYPE, Term::iri("http://e.org/C"));
        assert!(layered.contains(&dup));
        assert!(!layered.insert(&dup));
        assert_eq!(layered.len(), n);
        // A new triple lands in the tail and unions with base reads.
        let fresh = Triple::iri("http://e.org/zz", rdfs::LABEL, Term::literal("zz"));
        assert!(layered.insert(&fresh));
        assert_eq!(layered.len(), n + 1);
        let p = layered.id_of(&Term::iri(rdfs::LABEL)).unwrap();
        assert_eq!(layered.match_pattern(Pattern::any().with_p(p)).len(), 11);
        // Deleting a base triple tombstones it…
        assert!(layered.remove(&dup));
        assert!(!layered.contains(&dup));
        assert_eq!(layered.len(), n);
        // …and the tombstone survives a tail merge (the base is
        // immutable, so the tombstone is the only record of the delete).
        layered.merge_tail();
        assert!(!layered.contains(&dup));
        let t = layered.id_of(&Term::iri(rdf::TYPE)).unwrap();
        assert_eq!(layered.match_pattern(Pattern::any().with_p(t)).len(), 9);
        assert_eq!(layered.count_pattern(Pattern::any().with_p(t)), 9);
        // Resurrection works across the base boundary.
        assert!(layered.insert(&dup));
        assert!(layered.contains(&dup));
        assert_eq!(layered.count_pattern(Pattern::any().with_p(t)), 10);
        // Sorted scans stay consistent with the explicit sort everywhere.
        for position in 0..3 {
            let got = layered.match_pattern_sorted_by(Pattern::any(), position);
            let mut want = layered.match_pattern(Pattern::any());
            want.sort_unstable_by_key(|x| (x[position], *x));
            assert_eq!(got, want, "position {position}");
        }
        // Snapshot includes base + local minus tombstones, SPO-sorted.
        let snap = layered.snapshot_sorted();
        assert_eq!(snap.len(), layered.len());
        assert!(snap.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_matches_concatenate_to_match_pattern() {
        // The streaming bridge must see exactly what the materializing
        // path sees — same rows, same order — on every store shape:
        // flat, base-backed, and base-backed with tombstones + tail.
        let collect = |st: &TripleStore, pat: Pattern| -> Vec<EncodedTriple> {
            let mut out = Vec::new();
            assert!(st.match_pattern_chunks(pat, &mut |c| {
                assert!(!c.is_empty(), "empty chunk emitted for {pat:?}");
                out.extend_from_slice(c);
                true
            }));
            out
        };
        let check_all = |st: &TripleStore| {
            let s = st.id_of(&Term::iri("http://e.org/s3"));
            let p = st.id_of(&Term::iri(rdf::TYPE));
            let o = st.id_of(&Term::iri("http://e.org/C"));
            for &ps in &[None, s] {
                for &pp in &[None, p] {
                    for &po in &[None, o] {
                        let pat = Pattern {
                            s: ps,
                            p: pp,
                            o: po,
                        };
                        assert_eq!(collect(st, pat), st.match_pattern(pat), "{pat:?}");
                    }
                }
            }
        };
        check_all(&store());
        let (mut layered, _) = layered_store();
        check_all(&layered);
        // Tombstone a base triple, resurrect-adjacent insert, leave a tail.
        let dup = Triple::iri("http://e.org/s0", rdf::TYPE, Term::iri("http://e.org/C"));
        assert!(layered.remove(&dup));
        layered.insert(&Triple::iri(
            "http://e.org/zz",
            rdfs::LABEL,
            Term::literal("zz"),
        ));
        assert!(layered.tail_len() > 0);
        check_all(&layered);
        // Early stop: the callback returning false halts the scan and
        // the bridge reports it.
        let mut calls = 0usize;
        assert!(!layered.match_pattern_chunks(Pattern::any(), &mut |_| {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
    }

    #[test]
    fn match_equals_naive_scan_on_random_patterns() {
        // Cross-check every access path against the brute-force filter.
        let st = store();
        let all = st.match_pattern(Pattern::any());
        let ids: Vec<u32> = (0..st.dict().len() as u32).collect();
        for &s in &[None, Some(ids[0]), Some(ids[5])] {
            for &p in &[None, Some(ids[1]), Some(ids[3])] {
                for &o in &[None, Some(ids[2]), Some(ids[8])] {
                    let pat = Pattern {
                        s: s.map(TermId),
                        p: p.map(TermId),
                        o: o.map(TermId),
                    };
                    let mut got = st.match_pattern(pat);
                    let mut want: Vec<_> = all.iter().filter(|t| pat.matches(t)).copied().collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "pattern {pat:?}");
                }
            }
        }
    }
}
