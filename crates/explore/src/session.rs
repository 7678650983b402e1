//! Exploration sessions.
//!
//! §2 defines the exploration scenario: "*users perform a sequence of
//! operations, in which the result of each operation determines the
//! formulation of the next operation*". [`ExplorationSession`] is that
//! sequence as a first-class value — an operation log over the visual
//! information-seeking mantra ("overview first, zoom and filter, then
//! details-on-demand" \[118\]) with undo, combining the facet engine,
//! the keyword index, numeric range filters and the resource browser.
//!
//! All of those read one shared [`ExploreIndex`]; what a session owns is
//! its log, its facet selection and one row bitset per logged step, so
//! opening a session is O(1), undo is a pop and the size of the result
//! is a popcount.

use crate::browse::ResourceView;
use crate::facets::FacetEngine;
use crate::index::{ExploreIndex, RowSet};
use crate::search::Hit;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use wodex_obs::Counter;
use wodex_rdf::{Graph, Term};

/// The session operations counted in `wodex_explore_ops_total{op=...}`.
#[derive(Clone, Copy)]
enum Counted {
    Overview,
    Filter,
    Zoom,
    Search,
    SearchPreview,
    Details,
    Undo,
}

/// Counts one session operation in the global registry. The handles are
/// interned once per process, so a count is one relaxed add.
fn count_op(op: Counted) {
    const NAMES: [&str; 7] = [
        "overview",
        "filter",
        "zoom",
        "search",
        "search_preview",
        "details",
        "undo",
    ];
    static HANDLES: OnceLock<[Arc<Counter>; 7]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        NAMES.map(|op| {
            wodex_obs::global().counter_with(
                "wodex_explore_ops_total",
                "Exploration session operations by kind",
                &[("op", op)],
            )
        })
    })[op as usize]
        .inc();
}

/// One step of an exploration session.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Select a facet value.
    Filter {
        /// Facet property IRI.
        predicate: String,
        /// Chosen value key.
        value: String,
    },
    /// Restrict a numeric property to `[lo, hi)` (zoom).
    Zoom {
        /// Numeric property IRI.
        predicate: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Keyword search restricting to the hit set.
    Search {
        /// The query text.
        query: String,
    },
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operation::Filter { predicate, value } => {
                write!(
                    f,
                    "filter {} = {}",
                    wodex_rdf::vocab::abbreviate(predicate),
                    value
                )
            }
            Operation::Zoom { predicate, lo, hi } => {
                write!(
                    f,
                    "zoom {} ∈ [{lo}, {hi})",
                    wodex_rdf::vocab::abbreviate(predicate)
                )
            }
            Operation::Search { query } => write!(f, "search {query:?}"),
        }
    }
}

/// A live exploration session over one dataset.
///
/// The dataset's [`ExploreIndex`] is held behind an [`Arc`] and never
/// copied: a server hosting thousands of concurrent sessions pays for
/// one index, plus per session the operation log and one bitset (a bit
/// per subject) per logged step.
pub struct ExplorationSession {
    /// The shared index and this session's facet selection.
    facets: FacetEngine,
    log: Vec<Operation>,
    /// `steps[i]` holds the rows satisfying `log[..=i]`.
    steps: Vec<RowSet>,
}

impl ExplorationSession {
    /// Indexes an owned graph and opens a session over it.
    pub fn new(graph: Graph) -> ExplorationSession {
        ExplorationSession::shared(Arc::new(graph))
    }

    /// Indexes a graph and opens a session over it. The index is built
    /// here, once per call — to open many sessions over one dataset,
    /// build (or borrow) the index once and use
    /// [`ExplorationSession::over`].
    pub fn shared(graph: Arc<Graph>) -> ExplorationSession {
        ExplorationSession::over(Arc::new(ExploreIndex::from_graph(&graph)))
    }

    /// Opens a session over a shared index: O(1), nothing is copied.
    pub fn over(index: Arc<ExploreIndex>) -> ExplorationSession {
        ExplorationSession {
            facets: FacetEngine::over(index),
            log: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// The shared index (cheap to clone into further sessions).
    pub fn index(&self) -> &Arc<ExploreIndex> {
        self.facets.index()
    }

    /// The facet engine (counts reflect the session's filters).
    pub fn facets(&self) -> &FacetEngine {
        &self.facets
    }

    /// The operation log.
    pub fn log(&self) -> &[Operation] {
        &self.log
    }

    /// **Overview**: class → instance counts, largest first (the entry
    /// point of the mantra).
    pub fn overview(&self) -> Vec<(String, usize)> {
        count_op(Counted::Overview);
        self.index().overview()
    }

    /// The rows one operation admits on its own (for a filter, the
    /// carriers of its one value).
    fn rows_of(&self, op: &Operation) -> RowSet {
        let index = self.index();
        let rows = index.subject_count();
        match op {
            Operation::Filter { predicate, value } => {
                RowSet::of(rows, index.facets().rows(predicate, value).iter().copied())
            }
            Operation::Zoom { predicate, lo, hi } => index.zoom_rows(predicate, *lo, *hi),
            Operation::Search { query } => {
                let hits = index.tokens().score(query, rows);
                RowSet::of(rows, hits.into_iter().map(|s| s.row))
            }
        }
    }

    /// Logs `op` and the rows matching the log with it.
    fn push(&mut self, op: Operation) {
        let mut widens = false;
        if let Operation::Filter { predicate, value } = &op {
            widens = self.facets.selection().contains_key(predicate);
            self.facets.select(predicate, value);
        }
        let rows = if widens {
            // A second value in an already selected facet widens that
            // facet's disjunction, so this step is not a narrowing of the
            // previous one: recompute it from the selection and the log.
            let mut rows = self.facets.matching_rows(None);
            for earlier in &self.log {
                if !matches!(earlier, Operation::Filter { .. }) {
                    rows.and_assign(&self.rows_of(earlier));
                }
            }
            rows
        } else {
            let mut rows = self.rows_of(&op);
            if let Some(current) = self.steps.last() {
                rows.and_assign(current);
            }
            rows
        };
        self.log.push(op);
        self.steps.push(rows);
    }

    /// **Filter**: select a facet value.
    pub fn filter(&mut self, predicate: &str, value: &str) {
        count_op(Counted::Filter);
        self.push(Operation::Filter {
            predicate: predicate.to_string(),
            value: value.to_string(),
        });
    }

    /// **Zoom**: restrict a numeric property to a range.
    pub fn zoom(&mut self, predicate: &str, lo: f64, hi: f64) {
        count_op(Counted::Zoom);
        self.push(Operation::Zoom {
            predicate: predicate.to_string(),
            lo,
            hi,
        });
    }

    /// **Search**: add a keyword restriction.
    pub fn search(&mut self, query: &str) {
        count_op(Counted::Search);
        self.push(Operation::Search {
            query: query.to_string(),
        });
    }

    /// Raw keyword lookup without changing session state.
    pub fn search_preview(&self, query: &str, limit: usize) -> Vec<Hit> {
        count_op(Counted::SearchPreview);
        self.index().search(query, limit)
    }

    /// **Details-on-demand**: the resource view (stateless).
    pub fn details(&self, resource: &Term) -> ResourceView {
        count_op(Counted::Details);
        self.index().details(resource)
    }

    /// Undoes the last operation: its step is dropped and the facet
    /// selection re-read from the remaining log.
    pub fn undo(&mut self) -> Option<Operation> {
        count_op(Counted::Undo);
        let undone = self.log.pop()?;
        self.steps.pop();
        if matches!(undone, Operation::Filter { .. }) {
            self.facets.clear();
            for op in &self.log {
                if let Operation::Filter { predicate, value } = op {
                    self.facets.select(predicate, value);
                }
            }
        }
        Some(undone)
    }

    /// The resources satisfying *all* logged operations.
    pub fn matching(&self) -> BTreeSet<Term> {
        match self.steps.last() {
            Some(rows) => self.index().terms(rows),
            None => self.index().all_terms(),
        }
    }

    /// `matching().len()` without decoding a term: a popcount.
    pub fn matching_count(&self) -> usize {
        match self.steps.last() {
            Some(rows) => rows.count(),
            None => self.index().subject_count(),
        }
    }

    /// A one-line summary per step plus the running result size — the
    /// session trace users (and tests) read.
    pub fn trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "0. start: {} resources", self.index().subject_count());
        for (i, op) in self.log.iter().enumerate() {
            let _ = writeln!(out, "{}. {op}", i + 1);
        }
        let _ = writeln!(out, "=> {} resources match", self.matching_count());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{rdf, rdfs};
    use wodex_rdf::Triple;

    fn graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..20 {
            let s = format!("http://e.org/e{i}");
            let class = if i % 2 == 0 { "City" } else { "Town" };
            g.insert(Triple::iri(
                &s,
                rdf::TYPE,
                Term::iri(format!("http://e.org/{class}")),
            ));
            g.insert(Triple::iri(
                &s,
                rdfs::LABEL,
                Term::literal(format!("{class} number {i}")),
            ));
            g.insert(Triple::iri(&s, "http://e.org/pop", Term::integer(i * 100)));
        }
        g
    }

    #[test]
    fn overview_orders_classes_by_size() {
        let s = ExplorationSession::new(graph());
        let ov = s.overview();
        assert_eq!(ov.len(), 2);
        assert_eq!(ov[0].1, 10);
        assert_eq!(ov[1].1, 10);
    }

    #[test]
    fn filter_then_zoom_narrows_progressively() {
        let mut s = ExplorationSession::new(graph());
        assert_eq!(s.matching().len(), 20);
        s.filter(rdf::TYPE, "http://e.org/City");
        assert_eq!(s.matching().len(), 10);
        s.zoom("http://e.org/pop", 0.0, 1000.0);
        // Cities with pop < 1000: e0..e8 even → e0,e2,e4,e6,e8.
        assert_eq!(s.matching().len(), 5);
    }

    #[test]
    fn search_restricts_to_hits() {
        let mut s = ExplorationSession::new(graph());
        s.search("city");
        assert_eq!(s.matching().len(), 10);
        s.search("number 3"); // matches tokens "number" (all) and "3"
                              // Conjunction with previous search: cities containing "number".
        assert!(s.matching().len() <= 10);
    }

    #[test]
    fn undo_restores_previous_result() {
        let mut s = ExplorationSession::new(graph());
        s.filter(rdf::TYPE, "http://e.org/City");
        let after_filter = s.matching();
        s.zooms_for_test();
        assert!(s.matching().len() < after_filter.len());
        let undone = s.undo().unwrap();
        assert!(matches!(undone, Operation::Zoom { .. }));
        assert_eq!(s.matching(), after_filter);
        s.undo().unwrap();
        assert_eq!(s.matching().len(), 20);
        assert!(s.undo().is_none());
    }

    impl ExplorationSession {
        fn zooms_for_test(&mut self) {
            self.zoom("http://e.org/pop", 0.0, 500.0);
        }
    }

    #[test]
    fn details_returns_resource_view() {
        let s = ExplorationSession::new(graph());
        let v = s.details(&Term::iri("http://e.org/e2"));
        assert_eq!(v.rows.iter().filter(|r| r.forward).count(), 3);
    }

    #[test]
    fn trace_narrates_the_session() {
        let mut s = ExplorationSession::new(graph());
        s.filter(rdf::TYPE, "http://e.org/City");
        s.zoom("http://e.org/pop", 100.0, 900.0);
        let t = s.trace();
        assert!(t.contains("1. filter"));
        assert!(t.contains("2. zoom"));
        assert!(t.contains("resources match"));
    }

    #[test]
    fn sessions_share_one_index() {
        let index = Arc::new(ExploreIndex::from_graph(&graph()));
        let a = ExplorationSession::over(Arc::clone(&index));
        let b = ExplorationSession::over(Arc::clone(a.index()));
        // Three handles (local + two sessions), one index.
        assert_eq!(Arc::strong_count(&index), 3);
        assert_eq!(a.overview(), b.overview());
    }

    #[test]
    fn a_second_value_in_one_facet_widens_and_undo_narrows_again() {
        let mut s = ExplorationSession::new(graph());
        s.zoom("http://e.org/pop", 0.0, 1000.0);
        s.filter(rdf::TYPE, "http://e.org/City");
        assert_eq!(s.matching_count(), 5);
        s.filter(rdf::TYPE, "http://e.org/Town");
        assert_eq!(s.matching_count(), 10, "City or Town, still zoomed");
        assert_eq!(s.matching().len(), 10);
        s.undo().unwrap();
        assert_eq!(s.matching_count(), 5);
        assert_eq!(s.facets().selection()[rdf::TYPE].len(), 1);
        s.filter(rdf::TYPE, "http://e.org/Nothing");
        assert_eq!(s.matching_count(), 5, "an unknown value adds nothing");
        s.filter("http://e.org/unknown", "x");
        assert_eq!(s.matching_count(), 0, "an unknown facet matches nothing");
    }

    #[test]
    fn search_preview_is_stateless() {
        let s = ExplorationSession::new(graph());
        let hits = s.search_preview("town", 5);
        assert_eq!(hits.len(), 5);
        assert!(s.log().is_empty());
    }
}
