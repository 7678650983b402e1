//! In-memory RDF graphs.
//!
//! [`Graph`] is the *document-level* container: an ordered, deduplicated
//! collection of triples with simple lookup helpers. It is what parsers
//! produce and serializers consume. Scalable pattern matching lives in
//! `wodex-store`, which consumes a `Graph` (or a triple stream) and builds
//! dictionary-encoded indexes.

use crate::term::{Iri, Term};
use crate::triple::Triple;
use std::collections::BTreeSet;

/// A set of RDF triples.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Graph {
    triples: BTreeSet<Triple>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a triple. Returns true if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        self.triples.insert(triple)
    }

    /// Removes a triple. Returns true if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.triples.remove(triple)
    }

    /// True if the graph contains the triple.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.triples.contains(triple)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterates over all triples in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// All triples with the given subject, in `(predicate, object)`
    /// order.
    ///
    /// The set is ordered subject-first, so this is a range read from the
    /// subject's smallest possible triple up to the first other subject:
    /// O(log n + k), not a scan.
    pub fn triples_for_subject<'a>(&'a self, subject: &Term) -> impl Iterator<Item = &'a Triple> {
        // `Term::iri("")` is the minimum of `Term`'s derived order (first
        // variant, empty string), so this bound sorts at or before every
        // triple of `subject`.
        let first = Triple::new(subject.clone(), Term::iri(""), Term::iri(""));
        self.triples
            .range::<Triple, _>(&first..)
            .take_while(move |t| t.subject == first.subject)
    }

    /// All triples with the given predicate IRI.
    pub fn triples_for_predicate<'a>(
        &'a self,
        predicate: &'a str,
    ) -> impl Iterator<Item = &'a Triple> {
        self.iter().filter(move |t| {
            t.predicate
                .as_iri()
                .is_some_and(|p| p.as_str() == predicate)
        })
    }

    /// The distinct subjects of the graph.
    pub fn subjects(&self) -> BTreeSet<&Term> {
        self.iter().map(|t| &t.subject).collect()
    }

    /// The distinct predicates of the graph.
    pub fn predicates(&self) -> BTreeSet<&Term> {
        self.iter().map(|t| &t.predicate).collect()
    }

    /// The distinct objects of the graph.
    pub fn objects(&self) -> BTreeSet<&Term> {
        self.iter().map(|t| &t.object).collect()
    }

    /// Looks up the first object for `(subject, predicate)` — the common
    /// "get property value" operation of WoD browsers (§3.1).
    pub fn object_for(&self, subject: &Term, predicate: &str) -> Option<&Term> {
        self.triples_for_subject(subject)
            .find(|t| {
                t.predicate
                    .as_iri()
                    .is_some_and(|p| p.as_str() == predicate)
            })
            .map(|t| &t.object)
    }

    /// All `rdf:type` class IRIs of a subject.
    pub fn types_of(&self, subject: &Term) -> Vec<&Iri> {
        self.triples_for_subject(subject)
            .filter(|t| {
                t.predicate
                    .as_iri()
                    .is_some_and(|p| p.as_str() == crate::vocab::rdf::TYPE)
            })
            .filter_map(|t| t.object.as_iri())
            .collect()
    }

    /// Merges another graph into this one, returning the number of new
    /// triples added.
    pub fn merge(&mut self, other: &Graph) -> usize {
        let before = self.len();
        for t in other.iter() {
            self.triples.insert(t.clone());
        }
        self.len() - before
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph {
            triples: iter.into_iter().collect(),
        }
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        self.triples.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Triple;
    type IntoIter = std::collections::btree_set::Iter<'a, Triple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::collections::btree_set::IntoIter<Triple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{rdf, rdfs};

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::iri(
            "http://e.org/athens",
            rdf::TYPE,
            Term::iri("http://e.org/City"),
        ));
        g.insert(Triple::iri(
            "http://e.org/athens",
            rdfs::LABEL,
            Term::literal("Athens"),
        ));
        g.insert(Triple::iri(
            "http://e.org/athens",
            "http://e.org/population",
            Term::integer(664_046),
        ));
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = sample();
        let n = g.len();
        let dup = Triple::iri("http://e.org/athens", rdfs::LABEL, Term::literal("Athens"));
        assert!(!g.insert(dup));
        assert_eq!(g.len(), n);
    }

    #[test]
    fn remove_and_contains() {
        let mut g = sample();
        let t = Triple::iri("http://e.org/athens", rdfs::LABEL, Term::literal("Athens"));
        assert!(g.contains(&t));
        assert!(g.remove(&t));
        assert!(!g.contains(&t));
        assert!(!g.remove(&t));
    }

    #[test]
    fn subject_and_predicate_views() {
        let g = sample();
        let s = Term::iri("http://e.org/athens");
        assert_eq!(g.triples_for_subject(&s).count(), 3);
        assert_eq!(g.triples_for_predicate(rdfs::LABEL).count(), 1);
        assert_eq!(g.subjects().len(), 1);
        assert_eq!(g.predicates().len(), 3);
    }

    #[test]
    fn object_for_and_types_of() {
        let g = sample();
        let s = Term::iri("http://e.org/athens");
        assert_eq!(
            g.object_for(&s, rdfs::LABEL),
            Some(&Term::literal("Athens"))
        );
        assert_eq!(g.object_for(&s, "http://e.org/nope"), None);
        let types = g.types_of(&s);
        assert_eq!(types.len(), 1);
        assert_eq!(types[0].as_str(), "http://e.org/City");
    }

    #[test]
    fn subject_lookups_read_only_the_subjects_range() {
        let mut g = sample();
        // Neighbours on both sides of athens in term order, one of them a
        // string prefix of it, plus a blank-node subject (sorts after
        // every IRI).
        for s in [
            "http://e.org/athen",
            "http://e.org/athens2",
            "http://e.org/a",
        ] {
            g.insert(Triple::iri(s, rdfs::LABEL, Term::literal(s)));
        }
        g.insert(Triple::new(
            Term::blank("b"),
            Term::iri(rdfs::LABEL),
            Term::literal("blank"),
        ));
        let athens = Term::iri("http://e.org/athens");
        let mine: Vec<&Triple> = g.triples_for_subject(&athens).collect();
        assert_eq!(mine.len(), 3);
        assert!(mine.iter().all(|t| t.subject == athens));
        assert!(mine.windows(2).all(|w| w[0] < w[1]), "in (p, o) order");
        assert_eq!(g.triples_for_subject(&Term::blank("b")).count(), 1);
        assert_eq!(
            g.triples_for_subject(&Term::iri("http://e.org/athe"))
                .count(),
            0
        );
        assert_eq!(
            g.triples_for_subject(&Term::iri("http://z.org/last"))
                .count(),
            0
        );
        assert_eq!(g.types_of(&athens).len(), 1);
        assert_eq!(g.types_of(&Term::iri("http://e.org/athen")).len(), 0);
    }

    #[test]
    fn merge_counts_new_triples() {
        let mut g = sample();
        let mut other = Graph::new();
        other.insert(Triple::iri(
            "http://e.org/athens",
            rdfs::LABEL,
            Term::literal("Athens"), // duplicate
        ));
        other.insert(Triple::iri(
            "http://e.org/sparta",
            rdfs::LABEL,
            Term::literal("Sparta"), // new
        ));
        assert_eq!(g.merge(&other), 1);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn from_iterator_collects() {
        let g: Graph = sample().into_iter().collect();
        assert_eq!(g.len(), 3);
    }
}
