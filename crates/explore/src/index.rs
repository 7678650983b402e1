//! The shared, id-encoded exploration index.
//!
//! Exploration has two costs that must not be confused (the HETree /
//! SynopsViz papers make the same split): a *construction* cost paid once
//! per dataset, and a *per-operation* cost paid on every click, which has
//! to stay interactive "on machines with limited computational and memory
//! resources" (§2) however many users are clicking. [`ExploreIndex`] is
//! the construction side: one immutable structure built from the
//! dictionary-encoded [`TripleStore`] and shared by [`Arc`] across every
//! session. A session ([`crate::ExplorationSession`]) is then only an
//! operation log plus one bitset per step.
//!
//! Everything in here is in id space — `u32` term ids and dense `u32`
//! subject *rows* — and terms are decoded only at the edge, when an
//! accessor has to hand strings to a caller:
//!
//! * **Subject rows.** Every distinct subject gets a row, numbered in
//!   subject *term* order, so a set of subjects is a bitset ([`RowSet`]),
//!   decoding a set yields sorted terms, and "then by subject" tie-breaks
//!   are integer compares.
//! * **Facet postings** ([`crate::facets`]): predicate → value → sorted
//!   rows, read off POS range scans.
//! * **Token postings** ([`crate::search`]): token → `(row, tf)`, built
//!   by tokenizing each distinct literal once.
//! * **Numeric columns**: sorted `(value, row)` per predicate, built
//!   lazily on first use and then shared, so a zoom is two binary
//!   searches and a histogram never walks triples.
//! * Overview and details are not indexed at all: they are
//!   `count_pattern` per class and an SPO + OSP range read on the store.

use crate::browse::{PropertyRow, ResourceView};
use crate::facets::FacetPostings;
use crate::search::{Hit, Scored, TokenPostings};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;
use wodex_obs::Gauge;
use wodex_rdf::vocab::{rdf, rdfs};
use wodex_rdf::{Graph, Term, TermId, Value};
use wodex_store::{Pattern, TripleStore};

/// `row_of` entry of a term that is never a subject.
const NO_ROW: u32 = u32::MAX;

/// A set of subject rows: one bit per row of the index it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RowSet {
    words: Vec<u64>,
}

impl RowSet {
    /// The empty set over `rows` rows.
    fn empty(rows: usize) -> RowSet {
        RowSet {
            words: vec![0; rows.div_ceil(64)],
        }
    }

    /// Every row of `0..rows`.
    pub(crate) fn full(rows: usize) -> RowSet {
        let mut words = vec![u64::MAX; rows.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), rows % 64) {
            *last = (1u64 << tail) - 1;
        }
        RowSet { words }
    }

    /// The set holding exactly `members` (any order, duplicates allowed).
    pub(crate) fn of(rows: usize, members: impl IntoIterator<Item = u32>) -> RowSet {
        let mut set = RowSet::empty(rows);
        for row in members {
            set.words[row as usize / 64] |= 1 << (row % 64);
        }
        set
    }

    pub(crate) fn contains(&self, row: u32) -> bool {
        self.words[row as usize / 64] & (1 << (row % 64)) != 0
    }

    pub(crate) fn and_assign(&mut self, other: &RowSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Number of rows in the set (a popcount).
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The rows of the set, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    i as u32 * 64 + bit
                })
            })
        })
    }
}

/// The numeric values of one predicate, shared by every zoom and
/// histogram over it.
#[derive(Debug, Default)]
pub struct NumericColumn {
    /// `(value, row)` for every object with a numeric reading, ascending
    /// by value, then row.
    ranked: Vec<(f64, u32)>,
    /// Values a chart bins but a zoom can never match: temporal objects
    /// (as epoch seconds) and NaNs.
    unranked: Vec<f64>,
}

impl NumericColumn {
    /// Number of values in the column.
    pub fn len(&self) -> usize {
        self.ranked.len() + self.unranked.len()
    }

    /// True when the predicate has no numeric or temporal object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every value, ascending over the numeric ones.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.ranked
            .iter()
            .map(|&(v, _)| v)
            .chain(self.unranked.iter().copied())
    }

    /// At most `n` values at evenly spaced ranks — the degraded answer
    /// when a budget cannot afford the whole column. Because the column
    /// is sorted, the sample keeps the shape of the distribution.
    pub fn sample(&self, n: usize) -> Vec<f64> {
        let len = self.len();
        if n >= len {
            return self.values().collect();
        }
        (0..n)
            .map(|i| {
                let rank = i * len / n;
                match self.ranked.get(rank) {
                    Some(&(v, _)) => v,
                    None => self.unranked[rank - self.ranked.len()],
                }
            })
            .collect()
    }

    /// The `(value, row)` entries with `lo <= value < hi`.
    fn range(&self, lo: f64, hi: f64) -> &[(f64, u32)] {
        if lo.is_nan() || hi.is_nan() || lo >= hi {
            return &[];
        }
        let start = self.ranked.partition_point(|&(v, _)| v < lo);
        let end = self.ranked.partition_point(|&(v, _)| v < hi);
        &self.ranked[start..end]
    }

    fn bytes(&self) -> usize {
        self.ranked.len() * std::mem::size_of::<(f64, u32)>() + self.unranked.len() * 8
    }
}

/// How a column reads one object term.
#[derive(Clone, Copy)]
enum Reading {
    /// A number a zoom can compare.
    Ranked(f64),
    /// A chartable value no zoom matches (see [`NumericColumn::unranked`]).
    Unranked(f64),
    /// Not a numeric or temporal literal.
    Skip,
}

impl Reading {
    fn of(term: &Term) -> Reading {
        let Some(value) = term.as_literal().map(Value::from_literal) else {
            return Reading::Skip;
        };
        match (value.as_f64(), value.as_epoch_seconds()) {
            (Some(v), _) if !v.is_nan() => Reading::Ranked(v),
            (Some(v), _) => Reading::Unranked(v),
            (None, Some(secs)) => Reading::Unranked(secs as f64),
            (None, None) => Reading::Skip,
        }
    }
}

/// The two registry series describing the index of this process.
struct IndexMetrics {
    bytes: Arc<Gauge>,
    build_micros: Arc<Gauge>,
}

fn index_metrics() -> &'static IndexMetrics {
    static METRICS: OnceLock<IndexMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        IndexMetrics {
            bytes: r.gauge(
                "wodex_explore_index_bytes",
                "Bytes held by the shared exploration index (postings, rows, built columns)",
            ),
            build_micros: r.gauge_scaled(
                "wodex_explore_index_build_seconds",
                "Wall time of the last exploration index build",
                1e-6,
            ),
        }
    })
}

/// One immutable exploration index over one store, shared by every
/// session (see the module docs).
pub struct ExploreIndex {
    store: Arc<TripleStore>,
    /// Row → subject term id; rows ascend in subject term order.
    subjects: Vec<u32>,
    /// Term id → row, [`NO_ROW`] for terms that are never a subject.
    row_of: Vec<u32>,
    facets: FacetPostings,
    tokens: TokenPostings,
    /// Ids of the IRI objects of `rdf:type`.
    classes: Vec<u32>,
    /// Predicate id → its column, built by the first reader.
    columns: Mutex<HashMap<u32, Arc<NumericColumn>>>,
    /// Bytes of everything built eagerly.
    eager_bytes: usize,
}

impl ExploreIndex {
    /// Builds the index from a store: one full scan for subjects,
    /// predicates, classes and literal objects, then one POS range scan
    /// per predicate for its facet postings.
    pub fn build(store: Arc<TripleStore>) -> ExploreIndex {
        let started = Instant::now();
        let dict = store.dict();
        let type_id = dict.id_of_iri(rdf::TYPE).map(|id| id.0);
        let mut subject_ids: Vec<u32> = Vec::new();
        let mut predicates: BTreeSet<u32> = BTreeSet::new();
        let mut classes: Vec<u32> = Vec::new();
        // One entry per triple with a literal object: `(object, subject)`.
        let mut literals: Vec<(u32, u32)> = Vec::new();
        store.match_pattern_chunks(Pattern::any(), &mut |chunk| {
            for &[s, p, o] in chunk {
                if subject_ids.last() != Some(&s) {
                    subject_ids.push(s);
                }
                predicates.insert(p);
                match dict.term(TermId(o)) {
                    Term::Literal(_) => literals.push((o, s)),
                    Term::Iri(_) if Some(p) == type_id => classes.push(o),
                    _ => {}
                }
            }
            true
        });
        subject_ids.sort_unstable();
        subject_ids.dedup();
        subject_ids.sort_by(|&a, &b| dict.term(TermId(a)).cmp(dict.term(TermId(b))));
        let mut row_of = vec![NO_ROW; dict.len()];
        for (row, &id) in subject_ids.iter().enumerate() {
            row_of[id as usize] = row as u32;
        }
        classes.sort_unstable();
        classes.dedup();
        for pair in &mut literals {
            pair.1 = row_of[pair.1 as usize];
        }
        let tokens = TokenPostings::build(dict, literals);
        let facets = FacetPostings::build(&store, &predicates, &row_of);
        let eager_bytes = (subject_ids.len() + row_of.len() + classes.len()) * 4
            + facets.bytes()
            + tokens.bytes();
        let index = ExploreIndex {
            store,
            subjects: subject_ids,
            row_of,
            facets,
            tokens,
            classes,
            columns: Mutex::new(HashMap::new()),
            eager_bytes,
        };
        let m = index_metrics();
        m.build_micros.set(started.elapsed().as_micros() as i64);
        m.bytes.set(index.bytes() as i64);
        index
    }

    /// Encodes `graph` into a store of its own and indexes that — the
    /// entry point for callers that hold no store.
    pub fn from_graph(graph: &Graph) -> ExploreIndex {
        ExploreIndex::build(Arc::new(TripleStore::from_graph(graph)))
    }

    /// Number of distinct subjects (rows).
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Bytes held by the index: everything built eagerly plus the numeric
    /// columns built so far. The store and its dictionary are shared with
    /// the rest of the process and not counted.
    pub fn bytes(&self) -> usize {
        let columns = self.columns.lock().unwrap_or_else(PoisonError::into_inner);
        self.eager_bytes + columns.values().map(|c| c.bytes()).sum::<usize>()
    }

    pub(crate) fn facets(&self) -> &FacetPostings {
        &self.facets
    }

    pub(crate) fn tokens(&self) -> &TokenPostings {
        &self.tokens
    }

    fn term(&self, id: u32) -> &Term {
        self.store.term(TermId(id))
    }

    /// The subject of a row.
    pub(crate) fn subject(&self, row: u32) -> &Term {
        self.term(self.subjects[row as usize])
    }

    /// Decodes a row set; rows ascend in term order, so the set is built
    /// from sorted input.
    pub(crate) fn terms(&self, rows: &RowSet) -> BTreeSet<Term> {
        rows.iter().map(|row| self.subject(row).clone()).collect()
    }

    /// Every subject, decoded.
    pub(crate) fn all_terms(&self) -> BTreeSet<Term> {
        self.subjects
            .iter()
            .map(|&id| self.term(id).clone())
            .collect()
    }

    /// Class → instance count over the whole dataset, largest first (ties
    /// by class IRI): one `count_pattern` per class.
    pub fn overview(&self) -> Vec<(String, usize)> {
        let Some(type_id) = self.store.dict().id_of_iri(rdf::TYPE) else {
            return Vec::new();
        };
        let mut out: Vec<(String, usize)> = self
            .classes
            .iter()
            .filter_map(|&class| {
                let pat = Pattern::any().with_p(type_id).with_o(TermId(class));
                let iri = self.term(class).as_iri()?.as_str().to_string();
                Some((iri, self.store.count_pattern(pat)))
            })
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Ranked keyword lookup: more matched tokens first, then higher
    /// score, then subject term order.
    pub fn search(&self, query: &str, limit: usize) -> Vec<Hit> {
        if limit == 0 {
            return Vec::new();
        }
        let mut scored = self.tokens.score(query, self.subjects.len());
        let by_rank = |a: &Scored, b: &Scored| {
            b.matched
                .cmp(&a.matched)
                .then(b.score.partial_cmp(&a.score).expect("finite"))
                .then(a.row.cmp(&b.row))
        };
        if limit < scored.len() {
            scored.select_nth_unstable_by(limit - 1, by_rank);
            scored.truncate(limit);
        }
        scored.sort_unstable_by(by_rank);
        scored
            .into_iter()
            .map(|s| Hit {
                subject: self.subject(s.row).clone(),
                score: s.score,
                matched_tokens: s.matched as usize,
            })
            .collect()
    }

    /// The shared numeric column of `predicate`, built on first use
    /// (outside the lock: racing first readers may each build it, and the
    /// first to finish is kept). Empty for a predicate the store has
    /// never seen.
    pub fn numeric_column(&self, predicate: &str) -> Arc<NumericColumn> {
        let Some(id) = self.store.dict().id_of_iri(predicate) else {
            return Arc::default();
        };
        let columns = || self.columns.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(column) = columns().get(&id.0) {
            return Arc::clone(column);
        }
        let built = Arc::new(self.build_column(id));
        let column = Arc::clone(columns().entry(id.0).or_insert(built));
        index_metrics().bytes.set(self.bytes() as i64);
        column
    }

    fn build_column(&self, predicate: TermId) -> NumericColumn {
        let mut column = NumericColumn::default();
        // POS order groups the scan by object, so each distinct literal
        // is parsed once.
        let mut last: Option<(u32, Reading)> = None;
        self.store
            .match_pattern_chunks(Pattern::any().with_p(predicate), &mut |chunk| {
                for &[s, _, o] in chunk {
                    let reading = match last {
                        Some((object, reading)) if object == o => reading,
                        _ => Reading::of(self.term(o)),
                    };
                    last = Some((o, reading));
                    match reading {
                        Reading::Ranked(v) => column.ranked.push((v, self.row_of[s as usize])),
                        Reading::Unranked(v) => column.unranked.push(v),
                        Reading::Skip => {}
                    }
                }
                true
            });
        column
            .ranked
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        column
    }

    /// Rows with a value of `predicate` in `[lo, hi)`.
    pub(crate) fn zoom_rows(&self, predicate: &str, lo: f64, hi: f64) -> RowSet {
        let column = self.numeric_column(predicate);
        RowSet::of(
            self.subjects.len(),
            column.range(lo, hi).iter().map(|&(_, row)| row),
        )
    }

    /// The resource view of `resource`: its triples (an SPO range) as
    /// forward rows, then the triples of other subjects pointing at it
    /// (an OSP range) as backward rows — O(degree), and equal to
    /// [`ResourceView::of`] over the same data.
    pub fn details(&self, resource: &Term) -> ResourceView {
        let mut view = ResourceView {
            resource: resource.clone(),
            label: None,
            rows: Vec::new(),
        };
        let Some(id) = self.store.id_of(resource) else {
            return view;
        };
        // Ids are not in term order, so each side is sorted after
        // decoding: `(p, o)` within the subject, `(s, p)` into the object.
        let decoded = |pat: Pattern| -> Vec<(&Term, &Term, &Term)> {
            let mut triples: Vec<(&Term, &Term, &Term)> = self
                .store
                .match_pattern(pat)
                .into_iter()
                .map(|[s, p, o]| (self.term(s), self.term(p), self.term(o)))
                .collect();
            triples.sort_unstable();
            triples
        };
        let row = |predicate: &Term, value: &Term, forward: bool| {
            Some(PropertyRow {
                predicate: predicate.as_iri()?.as_str().to_string(),
                value: value.clone(),
                forward,
            })
        };
        view.rows = decoded(Pattern::any().with_s(id))
            .into_iter()
            .filter_map(|(_, p, o)| row(p, o, true))
            .collect();
        view.label = view
            .rows
            .iter()
            .filter(|r| r.predicate == rdfs::LABEL)
            .find_map(|r| r.value.as_literal())
            .map(|l| l.lexical().to_string());
        view.rows.extend(
            decoded(Pattern::any().with_o(id))
                .into_iter()
                .filter(|(s, _, _)| *s != resource)
                .filter_map(|(s, p, _)| row(p, s, false)),
        );
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::Triple;

    #[test]
    fn row_sets_count_iterate_and_combine() {
        let full = RowSet::full(130);
        assert_eq!(full.count(), 130);
        assert_eq!(full.iter().last(), Some(129));
        assert_eq!(RowSet::full(128).count(), 128);
        assert_eq!(RowSet::full(0).count(), 0);
        let mut a = RowSet::of(130, [3, 64, 129, 3]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 64, 129]);
        assert!(a.contains(64) && !a.contains(65));
        let b = RowSet::of(130, [64, 100]);
        a.and_assign(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![64]);
        assert_eq!(RowSet::empty(130).count(), 0);
    }

    fn graph() -> Graph {
        let mut g = Graph::new();
        for (i, pop) in [(0, "5"), (1, "50"), (2, "500"), (3, "NaN")] {
            let s = format!("http://e.org/e{i}");
            g.insert(Triple::iri(
                &s,
                "http://e.org/pop",
                Term::Literal(wodex_rdf::Literal::typed(
                    pop,
                    wodex_rdf::Iri::new(wodex_rdf::vocab::xsd::DOUBLE),
                )),
            ));
            g.insert(Triple::iri(
                &s,
                "http://e.org/founded",
                Term::Literal(wodex_rdf::Literal::date(1990 + i, 1, 1)),
            ));
        }
        g
    }

    #[test]
    fn numeric_columns_rank_numbers_and_keep_the_rest_for_charts() {
        let index = ExploreIndex::from_graph(&graph());
        let before = index.bytes();
        let pop = index.numeric_column("http://e.org/pop");
        assert_eq!(pop.len(), 4, "three numbers and a NaN");
        assert_eq!(pop.range(5.0, 500.0).len(), 2, "[lo, hi)");
        assert!(pop.range(500.0, 5.0).is_empty(), "inverted range");
        assert!(pop.range(f64::NAN, 1e9).is_empty());
        assert_eq!(index.zoom_rows("http://e.org/pop", 0.0, 1e9).count(), 3);
        assert!(index.bytes() > before, "built columns are accounted");
        // Dates chart (as epoch seconds) but never match a zoom.
        assert_eq!(index.numeric_column("http://e.org/founded").len(), 4);
        assert_eq!(
            index
                .zoom_rows("http://e.org/founded", f64::MIN, f64::MAX)
                .count(),
            0
        );
        assert!(index.numeric_column("http://e.org/unknown").is_empty());
    }

    #[test]
    fn samples_keep_the_spread_of_the_column() {
        let column = NumericColumn {
            ranked: (0..100).map(|i| (i as f64, i)).collect(),
            unranked: Vec::new(),
        };
        assert_eq!(column.sample(4), vec![0.0, 25.0, 50.0, 75.0]);
        assert_eq!(column.sample(1000).len(), 100);
        assert!(column.sample(0).is_empty());
    }

    #[test]
    fn details_match_the_graph_walk() {
        let mut g = graph();
        // Links in both directions, a self-loop and a label.
        let e1 = Term::iri("http://e.org/e1");
        for (s, o) in [(0, 1), (1, 1), (1, 2), (3, 1)] {
            g.insert(Triple::iri(
                &format!("http://e.org/e{s}"),
                "http://e.org/links",
                Term::iri(format!("http://e.org/e{o}")),
            ));
        }
        g.insert(Triple::iri(
            "http://e.org/e1",
            rdfs::LABEL,
            Term::literal("one"),
        ));
        let index = ExploreIndex::from_graph(&g);
        let view = index.details(&e1);
        assert_eq!(view, ResourceView::of(&g, &e1));
        assert_eq!(view.label.as_deref(), Some("one"));
        assert_eq!(view.rows.iter().filter(|r| !r.forward).count(), 2);
        let nobody = Term::iri("http://e.org/nobody");
        assert_eq!(index.details(&nobody), ResourceView::of(&g, &nobody));
    }
}
