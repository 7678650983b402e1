//! Data-characteristic detection.
//!
//! Table 1 classifies systems by supported data types — Numeric, Temporal,
//! Spatial, Hierarchical, Graph. Recommendation (LinkDaViz \[129\], Vis
//! Wizard \[131\]) starts by *detecting* which of those a given field is.
//! [`FieldProfile::detect`] does that from a column of [`Value`]s, and
//! [`profile_property`] from an RDF property in a graph.

use wodex_rdf::stats::NumericSummary;
use wodex_rdf::vocab::geo;
use wodex_rdf::{Graph, Iri, Term, TermId, Triple, Value};
use wodex_store::{Pattern, TripleStore};

/// The data-type taxonomy of the survey's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Quantitative values.
    Numeric,
    /// Dates / instants.
    Temporal,
    /// Geographic coordinates.
    Spatial,
    /// Tree-shaped data (class hierarchies, containment).
    Hierarchical,
    /// Network-shaped data (resource links).
    Graph,
    /// Discrete labels with manageable cardinality.
    Categorical,
    /// Free text / high-cardinality labels.
    Text,
}

/// The profile of one field (column / property).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldProfile {
    /// Field name (e.g. the property IRI or SPARQL variable).
    pub name: String,
    /// Detected kind.
    pub kind: DataKind,
    /// Total non-null values observed.
    pub count: usize,
    /// Distinct values observed.
    pub distinct: usize,
    /// Numeric summary when the field is numeric/temporal.
    pub numeric: Option<NumericSummary>,
}

impl FieldProfile {
    /// Detects a profile from a column of typed values.
    ///
    /// Detection rules (majority vote with an 80% threshold):
    /// temporal if ≥80% temporal; numeric if ≥80% numeric; otherwise
    /// categorical when distinct ≤ max(20, 5% of count), else text.
    pub fn detect(name: impl Into<String>, values: &[Value]) -> FieldProfile {
        let name = name.into();
        let count = values.len();
        let mut distinct_set: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut numeric_n = 0usize;
        let mut temporal_n = 0usize;
        let mut nums: Vec<f64> = Vec::new();
        for v in values {
            distinct_set.insert(v.to_string());
            if v.is_temporal() {
                temporal_n += 1;
                nums.push(v.as_epoch_seconds().expect("temporal") as f64);
            } else if v.is_numeric() {
                numeric_n += 1;
                nums.push(v.as_f64().expect("numeric"));
            }
        }
        let distinct = distinct_set.len();
        let kind = if count == 0 {
            DataKind::Text
        } else if temporal_n * 10 >= count * 8 {
            DataKind::Temporal
        } else if numeric_n * 10 >= count * 8 {
            // Low-cardinality integers function as categories (codes).
            if distinct <= 12 && distinct * 20 <= count {
                DataKind::Categorical
            } else {
                DataKind::Numeric
            }
        } else if distinct <= 20.max(count / 20) {
            DataKind::Categorical
        } else {
            DataKind::Text
        };
        let numeric = if matches!(kind, DataKind::Numeric | DataKind::Temporal) {
            NumericSummary::of(&nums)
        } else {
            None
        };
        FieldProfile {
            name,
            kind,
            count,
            distinct,
            numeric,
        }
    }
}

/// Profiles one property of an RDF graph: collects its object values and
/// detects the kind, with two RDF-specific overrides — `geo:lat/long`
/// properties are spatial, and object properties (resource objects) are
/// graph-shaped.
pub fn profile_property(graph: &Graph, predicate: &str) -> FieldProfile {
    let triples: Vec<&Triple> = graph.triples_for_predicate(predicate).collect();
    profile_triples(predicate, &triples)
}

/// [`profile_property`] over the property's triples, already gathered —
/// for callers that go on to read the same triples again.
pub fn profile_triples(predicate: &str, triples: &[&Triple]) -> FieldProfile {
    let literal_values = || -> Vec<Value> {
        triples
            .iter()
            .filter_map(|t| t.object.as_literal().map(Value::from_literal))
            .collect()
    };
    if predicate == geo::LAT || predicate == geo::LONG {
        let mut p = FieldProfile::detect(predicate, &literal_values());
        p.kind = DataKind::Spatial;
        return p;
    }
    // `rdf:type` objects are IRIs, but semantically they are categories
    // (class membership) — the field every faceted browser starts from.
    if predicate == wodex_rdf::vocab::rdf::TYPE {
        let values: Vec<Value> = triples
            .iter()
            .map(|t| Value::Text(t.object.to_string()))
            .collect();
        let mut p = FieldProfile::detect(predicate, &values);
        if p.count > 0 {
            p.kind = DataKind::Categorical;
        }
        return p;
    }
    let total = triples.len();
    let resource_objects = triples
        .iter()
        .filter(|t| !matches!(t.object, Term::Literal(_)))
        .count();
    if total > 0 && resource_objects * 10 >= total * 8 {
        return FieldProfile {
            name: predicate.to_string(),
            kind: DataKind::Graph,
            count: total,
            distinct: triples
                .iter()
                .map(|t| &t.object)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            numeric: None,
        };
    }
    FieldProfile::detect(predicate, &literal_values())
}

/// The triples of one predicate IRI, decoded into a [`Graph`] — so in
/// term order whatever id order `store` has. One POS range read; a
/// predicate the dictionary does not know reads nothing.
pub fn property_graph(store: &TripleStore, predicate: &str) -> Graph {
    let Some(p) = store.dict().id_of_iri(predicate) else {
        return Graph::new();
    };
    let range = store.match_decoded(Pattern::any().with_p(p));
    range.into_iter().collect()
}

/// Profiles every predicate of a store, in predicate IRI order (the
/// dataset-level view a recommendation wizard starts from): one id-level
/// pass for the predicates, then each property's own range.
pub fn profile_store(store: &TripleStore) -> Vec<FieldProfile> {
    let mut ids: std::collections::BTreeSet<u32> = Default::default();
    store.match_pattern_chunks(Pattern::any(), &mut |chunk| {
        ids.extend(chunk.iter().map(|t| t[1]));
        true
    });
    let mut predicates: Vec<&str> = ids
        .iter()
        .filter_map(|&p| store.term(TermId(p)).as_iri().map(Iri::as_str))
        .collect();
    predicates.sort_unstable();
    predicates
        .into_iter()
        .map(|p| profile_property(&property_graph(store, p), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::rdfs;
    use wodex_rdf::Triple;

    #[test]
    fn numeric_detection() {
        let vals: Vec<Value> = (0..100).map(|i| Value::Double(i as f64 * 1.5)).collect();
        let p = FieldProfile::detect("x", &vals);
        assert_eq!(p.kind, DataKind::Numeric);
        assert_eq!(p.count, 100);
        assert!(p.numeric.is_some());
    }

    #[test]
    fn temporal_detection() {
        let vals: Vec<Value> = (0..50).map(|i| Value::Date(i * 30)).collect();
        let p = FieldProfile::detect("d", &vals);
        assert_eq!(p.kind, DataKind::Temporal);
        assert!(p.numeric.is_some());
    }

    #[test]
    fn categorical_detection() {
        let vals: Vec<Value> = (0..200)
            .map(|i| Value::Text(format!("cat{}", i % 5)))
            .collect();
        let p = FieldProfile::detect("c", &vals);
        assert_eq!(p.kind, DataKind::Categorical);
        assert_eq!(p.distinct, 5);
    }

    #[test]
    fn low_cardinality_integers_are_categorical() {
        let vals: Vec<Value> = (0..500).map(|i| Value::Integer(i % 3)).collect();
        let p = FieldProfile::detect("code", &vals);
        assert_eq!(p.kind, DataKind::Categorical);
    }

    #[test]
    fn text_detection() {
        let vals: Vec<Value> = (0..100)
            .map(|i| Value::Text(format!("unique text {i}")))
            .collect();
        assert_eq!(FieldProfile::detect("t", &vals).kind, DataKind::Text);
        assert_eq!(FieldProfile::detect("e", &[]).kind, DataKind::Text);
    }

    #[test]
    fn mixed_column_falls_back_sensibly() {
        // 50/50 numeric and text: neither majority reaches 80%.
        let mut vals = Vec::new();
        for i in 0..50 {
            vals.push(Value::Integer(i));
            vals.push(Value::Text(format!("t{i}")));
        }
        let p = FieldProfile::detect("m", &vals);
        assert_eq!(p.kind, DataKind::Text);
    }

    fn geo_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..10 {
            let s = format!("http://e.org/p{i}");
            g.insert(Triple::iri(
                &s,
                geo::LAT,
                Term::double(38.0 + i as f64 * 0.1),
            ));
            g.insert(Triple::iri(&s, geo::LONG, Term::double(23.0)));
            g.insert(Triple::iri(&s, rdfs::LABEL, Term::literal(format!("p{i}"))));
            g.insert(Triple::iri(
                &s,
                "http://e.org/links",
                Term::iri(format!("http://e.org/p{}", (i + 1) % 10)),
            ));
        }
        g
    }

    #[test]
    fn geo_properties_are_spatial() {
        let g = geo_graph();
        assert_eq!(profile_property(&g, geo::LAT).kind, DataKind::Spatial);
        assert_eq!(profile_property(&g, geo::LONG).kind, DataKind::Spatial);
    }

    #[test]
    fn object_properties_are_graph() {
        let g = geo_graph();
        let p = profile_property(&g, "http://e.org/links");
        assert_eq!(p.kind, DataKind::Graph);
        assert_eq!(p.count, 10);
    }

    #[test]
    fn profile_store_covers_all_predicates() {
        let profiles = profile_store(&TripleStore::from_graph(&geo_graph()));
        assert_eq!(profiles.len(), 4);
        let kinds: std::collections::HashMap<&str, DataKind> =
            profiles.iter().map(|p| (p.name.as_str(), p.kind)).collect();
        assert_eq!(kinds[geo::LAT], DataKind::Spatial);
        assert_eq!(kinds["http://e.org/links"], DataKind::Graph);
    }
}
