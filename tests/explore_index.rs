//! The shared exploration index against a brute-force model.
//!
//! Every answer a session gives — the matching set, facet counts, the
//! overview, a resource's details, the ranked hits of a query — is
//! recomputed here from the raw triple list with linear scans and string
//! compares, and must agree after every step of seeded random operation
//! sequences (filter, a second value in the same facet, zoom, search,
//! undo back to empty). The model shares only the tokenizer and the
//! value-key function with the code under test: those two *define* what
//! a token and a facet value are.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wodex::explore::facets::value_key;
use wodex::explore::search::tokenize;
use wodex::explore::{ExplorationSession, ExploreIndex, Operation};
use wodex::rdf::vocab::{geo, rdf, rdfs, xsd};
use wodex::rdf::{Graph, Iri, Literal, Term, Triple, Value};
use wodex::synth::cube::{self, CubeConfig};
use wodex::synth::dbpedia::{self, DbpediaConfig};
use wodex::synth::rng::{Rng, StdRng};
use wodex::viz::recommend::VisKind;

/// The raw triple list, in graph order.
struct Model(Vec<Triple>);

fn predicate_of(t: &Triple) -> &str {
    t.predicate.as_iri().map_or("", Iri::as_str)
}

/// `(name, count)` pairs, largest count first, ties by name.
fn ranked(counts: BTreeMap<String, usize>) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

impl Model {
    fn subjects_where(&self, keep: impl Fn(&Triple) -> bool) -> BTreeSet<Term> {
        let kept = self.0.iter().filter(|t| keep(t));
        kept.map(|t| t.subject.clone()).collect()
    }

    fn subjects(&self) -> BTreeSet<Term> {
        self.subjects_where(|_| true)
    }

    /// The value keys of `predicate` if it is a facet (2 to 50 of them).
    fn facet_keys(&self, predicate: &str) -> BTreeSet<String> {
        let objects = self.0.iter().filter(|t| predicate_of(t) == predicate);
        let mut keys: BTreeSet<String> = objects.map(|t| value_key(&t.object)).collect();
        let is_facet = (2..=50).contains(&keys.len());
        keys.retain(|_| is_facet);
        keys
    }

    /// The subjects one operation admits on its own.
    fn admitted(&self, op: &Operation) -> BTreeSet<Term> {
        match op {
            Operation::Filter { predicate, value } => {
                let known = self.facet_keys(predicate).contains(value);
                self.subjects_where(|t| {
                    known && predicate_of(t) == predicate && &value_key(&t.object) == value
                })
            }
            Operation::Zoom { predicate, lo, hi } => self.subjects_where(|t| {
                let number = t.object.as_literal().map(Value::from_literal);
                let number = number.and_then(|v| v.as_f64());
                predicate_of(t) == predicate && number.is_some_and(|v| v >= *lo && v < *hi)
            }),
            Operation::Search { query } => self.search(query).into_iter().map(|h| h.0).collect(),
        }
    }

    /// Subjects satisfying `log`: per facet the union of its filters'
    /// values, intersected across facets and with every zoom and search.
    /// `facets_but` keeps only the filters, leaving the named facet out.
    fn matching(&self, log: &[Operation], facets_but: Option<&str>) -> BTreeSet<Term> {
        let mut result = self.subjects();
        let mut by_facet: BTreeMap<&str, BTreeSet<Term>> = BTreeMap::new();
        for op in log {
            match op {
                Operation::Filter { predicate, .. } if facets_but != Some(predicate) => {
                    let any = by_facet.entry(predicate).or_default();
                    any.extend(self.admitted(op));
                }
                Operation::Filter { .. } => {}
                _ if facets_but.is_some() => {}
                _ => result = &result & &self.admitted(op),
            }
        }
        by_facet.values().fold(result, |all, any| &all & any)
    }

    fn counts(&self, log: &[Operation], predicate: &str) -> Vec<(String, usize)> {
        let base = self.matching(log, Some(predicate));
        let mut counts = BTreeMap::new();
        for key in self.facet_keys(predicate) {
            let carriers = self
                .subjects_where(|t| predicate_of(t) == predicate && value_key(&t.object) == key);
            counts.insert(key, (&carriers & &base).len());
        }
        counts.retain(|_, n| *n > 0);
        ranked(counts)
    }

    fn overview(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for t in self.0.iter().filter(|t| predicate_of(t) == rdf::TYPE) {
            if let Some(class) = t.object.as_iri() {
                *counts.entry(class.as_str().to_string()).or_default() += 1;
            }
        }
        ranked(counts)
    }

    /// `(predicate, value, forward)` rows — forward in `(p, o)` order,
    /// then backward in `(s, p)` order — and the label.
    fn details(&self, r: &Term) -> (Vec<(String, Term, bool)>, Option<String>) {
        let row = |t: &Triple, v: &Term, fwd| (predicate_of(t).to_string(), v.clone(), fwd);
        let forward = self.0.iter().filter(|t| &t.subject == r);
        let mut rows: Vec<_> = forward.clone().map(|t| row(t, &t.object, true)).collect();
        let backward = self.0.iter().filter(|t| &t.object == r && &t.subject != r);
        rows.extend(backward.map(|t| row(t, &t.subject, false)));
        let mut labels = forward.filter(|t| predicate_of(t) == rdfs::LABEL);
        let label = labels.find_map(|t| t.object.as_literal());
        (rows, label.map(|l| l.lexical().to_string()))
    }

    /// Every `(subject, score, matched tokens)` of `query`, ranked by
    /// matched tokens, then score, then subject term order.
    fn search(&self, query: &str) -> Vec<(Term, f64, usize)> {
        let mut postings: BTreeMap<String, BTreeMap<&Term, usize>> = BTreeMap::new();
        for t in &self.0 {
            let text = t.object.as_literal().map_or("", |l| l.lexical());
            for token in tokenize(text) {
                let of_token = postings.entry(token).or_default();
                *of_token.entry(&t.subject).or_default() += 1;
            }
        }
        let subjects = self.subjects().len() as f64;
        let mut scores: BTreeMap<&Term, (f64, usize)> = BTreeMap::new();
        for token in tokenize(query) {
            for (&s, &tf) in postings.get(&token).into_iter().flatten() {
                let idf = ((subjects + 1.0) / (postings[&token].len() as f64 + 1.0)).ln() + 1.0;
                let e = scores.entry(s).or_insert((0.0, 0));
                *e = (e.0 + (1.0 + (tf as f64).ln()) * idf, e.1 + 1);
            }
        }
        let scored = scores
            .into_iter()
            .map(|(s, (score, n))| (s.clone(), score, n));
        let mut hits: Vec<(Term, f64, usize)> = scored.collect();
        hits.sort_by(|a, b| (b.2, b.1, &a.0).partial_cmp(&(a.2, a.1, &b.0)).unwrap());
        hits
    }
}

/// What the random walk draws its parameters from.
struct Vocabulary {
    facets: Vec<(String, Vec<String>)>,
    numeric: Vec<(String, Vec<f64>)>,
    words: Vec<String>,
    resources: Vec<Term>,
}

impl Vocabulary {
    fn of(model: &Model, session: &ExplorationSession) -> Vocabulary {
        let facets = session.facets().facets().iter().map(|f| {
            let values = session.facets().counts(&f.predicate);
            (
                f.predicate.clone(),
                values.into_iter().map(|v| v.0).collect(),
            )
        });
        let mut numeric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut words = BTreeSet::new();
        let mut resources = model.subjects();
        for t in &model.0 {
            if let Some(l) = t.object.as_literal() {
                words.extend(tokenize(l.lexical()));
                if let Some(v) = Value::from_literal(l).as_f64().filter(|v| !v.is_nan()) {
                    numeric
                        .entry(predicate_of(t).to_string())
                        .or_default()
                        .push(v);
                }
            } else {
                resources.insert(t.object.clone());
            }
        }
        resources.insert(Term::iri("http://nowhere.example.org/nobody"));
        Vocabulary {
            facets: facets.collect(),
            numeric: numeric.into_iter().collect(),
            words: words.into_iter().collect(),
            resources: resources.into_iter().collect(),
        }
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// Asserts every session answer against the model.
fn check(model: &Model, session: &ExplorationSession, vocab: &Vocabulary, rng: &mut StdRng) {
    let log = session.log();
    let expected = model.matching(log, None);
    assert_eq!(session.matching(), expected, "matching after {log:?}");
    assert_eq!(session.matching_count(), expected.len());
    for (predicate, _) in &vocab.facets {
        let counts = session.facets().counts(predicate);
        assert_eq!(
            counts,
            model.counts(log, predicate),
            "{predicate} after {log:?}"
        );
    }
    assert_eq!(session.overview(), model.overview());
    let resource = pick(rng, &vocab.resources);
    let view = session.details(resource);
    let rows: Vec<(String, Term, bool)> = view
        .rows
        .iter()
        .map(|r| (r.predicate.clone(), r.value.clone(), r.forward))
        .collect();
    assert_eq!((rows, view.label), model.details(resource), "{resource}");
    let query = format!("{} {}", pick(rng, &vocab.words), pick(rng, &vocab.words));
    let ranked = model.search(&query);
    let hits = |limit| -> Vec<(Term, f64, usize)> {
        let preview = session.search_preview(&query, limit);
        preview
            .into_iter()
            .map(|h| (h.subject, h.score, h.matched_tokens))
            .collect()
    };
    assert_eq!(hits(usize::MAX), ranked, "ranking of {query:?}");
    assert_eq!(hits(3), ranked[..ranked.len().min(3)], "top 3 of {query:?}");
}

/// One seeded walk: 40 random operations, then undo back to empty.
fn walk(graph: &Graph, index: &Arc<ExploreIndex>, seed: u64) {
    let model = Model(graph.iter().cloned().collect());
    let mut session = ExplorationSession::over(Arc::clone(index));
    let vocab = Vocabulary::of(&model, &session);
    assert!(!vocab.facets.is_empty() && !vocab.numeric.is_empty());
    let mut rng = wodex::synth::rng(seed);
    check(&model, &session, &vocab, &mut rng);
    for _ in 0..40 {
        // An empty result stays empty under further narrowing, so mostly
        // back out of it: the walk should spend its steps where answers
        // differ.
        let dead_end = session.matching_count() == 0 && rng.random_range(0..10) < 7;
        match rng.random_range(0..10) {
            _ if dead_end => {
                session.undo();
            }
            0..=2 => {
                let (predicate, values) = pick(&mut rng, &vocab.facets);
                session.filter(predicate, pick::<String>(&mut rng, values));
            }
            // A second value in a facet already filtered, when there is one.
            3 => {
                let selected = session.facets().selection().keys().next().cloned();
                let facet = vocab
                    .facets
                    .iter()
                    .find(|f| Some(&f.0) == selected.as_ref());
                let (predicate, values) = facet.unwrap_or(&vocab.facets[0]);
                session.filter(predicate, pick::<String>(&mut rng, values));
            }
            4 => session.filter(&pick(&mut rng, &vocab.facets).0, "no such value"),
            5 | 6 => {
                let (predicate, values) = pick(&mut rng, &vocab.numeric);
                let (a, b) = (*pick(&mut rng, values), *pick(&mut rng, values));
                session.zoom(predicate, a.min(b), a.max(b) + 1.0);
            }
            7 => session.search(pick::<String>(&mut rng, &vocab.words)),
            _ => {
                session.undo();
            }
        }
        check(&model, &session, &vocab, &mut rng);
    }
    while session.undo().is_some() {
        check(&model, &session, &vocab, &mut rng);
    }
    assert_eq!(session.matching_count(), model.subjects().len());
}

/// A data cube plus the shapes generators never emit: a blank-node
/// subject, one facet key shared by an IRI and two literals, a NaN and a
/// date under a numeric predicate, two labels, a self-loop, a repeated
/// token and a subject-less object.
fn synth_corpus() -> Graph {
    let mut g = cube::generate(&CubeConfig {
        dimensions: vec![
            ("refArea".into(), 6),
            ("refPeriod".into(), 5),
            ("sex".into(), 3),
        ],
        ..Default::default()
    });
    let ns = "http://stats.example.org/";
    let measure = format!("{ns}measure/population");
    let typed = |lex: &str, dt: &str| Term::Literal(Literal::typed(lex, Iri::new(dt)));
    let o1 = format!("{ns}observation/O1");
    let o2 = format!("{ns}observation/O2");
    g.insert(Triple::new(
        Term::blank("b0"),
        Term::iri(rdf::TYPE),
        Term::iri(format!("{ns}Odd")),
    ));
    g.insert(Triple::new(
        Term::blank("b0"),
        Term::iri(rdfs::LABEL),
        Term::literal("odd odd one"),
    ));
    g.insert(Triple::new(
        Term::blank("b0"),
        Term::iri(&measure),
        typed("NaN", xsd::DOUBLE),
    ));
    g.insert(Triple::iri(
        &o1,
        &measure,
        Term::Literal(Literal::date(1999, 1, 1)),
    ));
    g.insert(Triple::iri(&o1, &measure, Term::integer(41_000)));
    g.insert(Triple::iri(&o1, rdfs::LABEL, Term::literal("first label")));
    g.insert(Triple::iri(
        &o1,
        rdfs::LABEL,
        Term::literal("another label"),
    ));
    g.insert(Triple::iri(
        &o1,
        &format!("{ns}seeAlso"),
        Term::iri(o1.clone()),
    ));
    g.insert(Triple::iri(
        &o2,
        &format!("{ns}seeAlso"),
        Term::iri(o1.clone()),
    ));
    g.insert(Triple::iri(&o2, &format!("{ns}seeAlso"), Term::blank("b0")));
    for (i, value) in [Term::iri("7"), Term::literal("7"), typed("7", xsd::INTEGER)]
        .into_iter()
        .chain([Term::literal("8"), Term::blank("7")])
        .enumerate()
    {
        g.insert(Triple::iri(
            &format!("{ns}observation/O{i}"),
            &format!("{ns}code"),
            value,
        ));
    }
    g
}

#[test]
fn sessions_agree_with_the_brute_force_model_on_the_synth_corpus() {
    let graph = synth_corpus();
    let index = Arc::new(ExploreIndex::from_graph(&graph));
    for seed in [1, 2, 3] {
        walk(&graph, &index, seed);
    }
}

#[test]
fn sessions_agree_with_the_brute_force_model_on_the_dbpedia_fixture() {
    let graph = dbpedia::generate(&DbpediaConfig {
        entities: 150,
        ..Default::default()
    });
    // Through a store of its own, as `Explorer::from_store` builds it.
    let store = Arc::new(wodex::store::TripleStore::from_graph(&graph));
    let index = Arc::new(ExploreIndex::build(store));
    for seed in [11, 12, 13] {
        walk(&graph, &index, seed);
    }
}

#[test]
fn a_thousand_sessions_share_one_index_and_add_nothing_to_it() {
    let graph = dbpedia::generate(&DbpediaConfig {
        entities: 150,
        ..Default::default()
    });
    let index = Arc::new(ExploreIndex::from_graph(&graph));
    // Build the one lazy part first so the byte count is settled.
    index.numeric_column("http://dbp.example.org/ontology/population");
    let bytes = index.bytes();
    assert!(bytes > 0);
    let sessions: Vec<ExplorationSession> = (0..1000)
        .map(|_| ExplorationSession::over(Arc::clone(&index)))
        .collect();
    assert_eq!(Arc::strong_count(&index), 1001);
    assert_eq!(index.bytes(), bytes);
    assert!(sessions.iter().all(|s| s.matching_count() == 150));
    drop(sessions);
    assert_eq!(Arc::strong_count(&index), 1);
}

/// The same triples under three stores — encoded in graph order, encoded
/// in a shuffled order, and bulk-loaded into segments (other term ids,
/// other POS order, block-paged reads) — make three explorers that answer
/// every facility alike, SVG bytes included. Returns the chart kinds seen.
fn every_store_shape_answers_alike(graph: Graph, endpoints: &[(Term, Term)]) -> BTreeSet<VisKind> {
    use wodex::core::Explorer;
    use wodex::store::TripleStore;
    let predicates: BTreeSet<String> = graph.iter().map(|t| predicate_of(t).to_string()).collect();
    let dir = std::env::temp_dir().join(format!(
        "wodex_explore_index_{}_{}",
        std::process::id(),
        graph.len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let nt = wodex::rdf::ntriples::serialize(&graph);
    wodex::seg::load_ntriples(nt.as_bytes(), &dir, &Default::default()).expect("bulk load");
    let (dict, segments) = wodex::seg::SegmentStore::open(&dir).expect("open segments");
    let mut shuffled = TripleStore::new();
    let mut triples: Vec<&Triple> = graph.iter().collect();
    let mut rng = wodex::synth::rng(7);
    while !triples.is_empty() {
        let i = rng.random_range(0..triples.len());
        shuffled.insert(triples.swap_remove(i));
    }
    shuffled.merge_tail();
    let others = [
        ("shuffled", Explorer::from_store(shuffled)),
        (
            "segments",
            Explorer::from_store(TripleStore::with_base(dict, Arc::new(segments))),
        ),
    ];
    let reference = Explorer::from_graph(graph.clone());
    assert_eq!(reference.graph(), graph);
    // Through `Debug` where a float may be NaN: the corpus has a NaN
    // measure, and NaN != NaN.
    let hetree = |ex: &Explorer, p: &str| {
        let mut tree = ex.hetree(p, wodex::hetree::Variant::ContentBased);
        let root = tree.root();
        let children = tree.expand(root).to_vec();
        let nodes = std::iter::once(root).chain(children);
        format!(
            "{:?}",
            nodes
                .map(|n| (*tree.stats(n), tree.range(n)))
                .collect::<Vec<_>>()
        )
    };
    let mut kinds = BTreeSet::new();
    for (name, other) in &others {
        assert_eq!(other.graph(), graph, "{name}");
        for p in &predicates {
            let (o, r) = (other.visualize(p), reference.visualize(p));
            assert_eq!(o.kind, r.kind, "{name} {p}");
            assert_eq!(o.svg, r.svg, "{name} {p}");
            assert_eq!(o.scene, r.scene, "{name} {p}");
            assert_eq!(o.recommendations, r.recommendations, "{name} {p}");
            assert_eq!(other.recommend(p), reference.recommend(p), "{name} {p}");
            assert_eq!(hetree(other, p), hetree(&reference, p), "{name} {p}");
            kinds.insert(r.kind);
        }
        let unknown = "http://nowhere.example.org/no-such-property";
        assert_eq!(
            other.visualize(unknown).svg,
            reference.visualize(unknown).svg
        );
        assert_eq!(
            format!("{:?}", other.profiles()),
            format!("{:?}", reference.profiles())
        );
        assert_eq!(
            format!("{:?}", other.stats()),
            format!("{:?}", reference.stats())
        );
        assert_eq!(other.class_hierarchy(), reference.class_hierarchy());
        for (a, b) in endpoints {
            let paths = reference.find_paths(a, b, 4, 5);
            assert!(!paths.is_empty(), "{a} and {b} are connected");
            assert_eq!(other.find_paths(a, b, 4, 5), paths, "{name}");
        }
    }
    // The coordinates as a dot map, then — with a point budget below
    // their number — as a density heatmap.
    let cities = reference.property_triples(geo::LAT);
    let tight = wodex::viz::UserPreferences {
        max_points: cities / 2,
        ..Default::default()
    };
    let reference = reference.with_prefs(tight.clone());
    let heatmap = reference.visualize(geo::LAT);
    for (name, other) in others {
        let dots = other.visualize(geo::LAT);
        let other = other.with_prefs(tight.clone());
        assert_eq!(other.visualize(geo::LAT).svg, heatmap.svg, "{name}");
        if cities > 0 {
            assert_eq!(dots.scene.mark_breakdown().1, cities, "{name}: a dot each");
            assert_ne!(dots.svg, heatmap.svg, "{name}");
            assert_eq!(heatmap.scene.mark_breakdown().1, 0, "no dot over budget");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    kinds
}

#[test]
fn explorers_over_every_store_shape_answer_alike_on_both_fixtures() {
    let ns = "http://stats.example.org/observation/";
    let mut kinds = every_store_shape_answers_alike(
        synth_corpus(),
        &[
            (Term::iri(format!("{ns}O2")), Term::iri(format!("{ns}O1"))),
            (Term::iri(format!("{ns}O2")), Term::blank("b0")),
        ],
    );
    let dbp = dbpedia::generate(&DbpediaConfig {
        entities: 150,
        ..Default::default()
    });
    // Any two linked resources will do as path endpoints.
    let link = dbp
        .iter()
        .find(|t| predicate_of(t).ends_with("/linksTo"))
        .expect("the fixture links resources");
    let endpoints = [(link.subject.clone(), link.object.clone())];
    kinds.extend(every_store_shape_answers_alike(dbp, &endpoints));
    // Every arm of stage 2 was drawn: a distribution, categories, geo
    // points and a network.
    for kind in [
        VisKind::HistogramChart,
        VisKind::Bar,
        VisKind::Map,
        VisKind::NodeLink,
    ] {
        assert!(kinds.contains(&kind), "{kind:?} in {kinds:?}");
    }
}
