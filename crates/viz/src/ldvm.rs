//! The Linked Data Visualization Model (LDVM) pipeline.
//!
//! LDVM \[29\] (Brunetti, Auer, García, Klímek & Nečaský) structures WoD
//! visualization as four connected stages:
//!
//! 1. **Source Data** — the dataset as-is: the encoded triple store.
//! 2. **Analytical Abstraction** — data extracted & *reduced*: here a
//!    profiled property turned into a histogram / category counts /
//!    points / a laid-out network (this is where `wodex-approx` does the
//!    survey's approximation work).
//! 3. **Visualization Abstraction** — a chart type bound to the
//!    abstraction (chosen by [`crate::recommend`] unless overridden).
//! 4. **View** — a concrete [`Scene`] plus its SVG rendering.
//!
//! The pipeline is deliberately re-runnable per stage: changing the chart
//! type re-runs only stages 3–4, changing preferences re-runs 2–4 —
//! LDVM's "connect different datasets with various kinds of
//! visualizations in a dynamic way".

use crate::charts;
use crate::prefs::UserPreferences;
use crate::profile::{profile_triples, property_graph, DataKind, FieldProfile};
use crate::recommend::{recommend, Recommendation, VisKind};
use crate::render;
use crate::scene::Scene;
use std::sync::Arc;
use wodex_graph::adjacency::Adjacency;
use wodex_graph::layout::{self, FrParams, Layout};
use wodex_rdf::vocab::geo;
use wodex_rdf::{Graph, Term, Triple, Value};
use wodex_store::TripleStore;

/// Stage 2 output: the reduced, visualization-ready form of the data.
#[derive(Debug, Clone)]
pub enum Abstraction {
    /// A binned numeric/temporal distribution.
    Distribution {
        /// The field profile.
        profile: FieldProfile,
        /// The binned histogram.
        histogram: wodex_approx::binning::Histogram,
    },
    /// Category → count (or summed measure).
    Categories {
        /// The field profile.
        profile: FieldProfile,
        /// Sorted (label, weight) pairs.
        pairs: Vec<(String, f64)>,
    },
    /// Geographic points.
    GeoPoints {
        /// (lat, lon) pairs.
        points: Vec<(f64, f64)>,
    },
    /// A laid-out network.
    Network {
        /// Node positions.
        layout: Layout,
        /// Edges between node indexes.
        edges: Vec<(u32, u32)>,
    },
}

impl Abstraction {
    /// The profiles this abstraction exposes to the recommender.
    pub fn profiles(&self) -> Vec<FieldProfile> {
        match self {
            Abstraction::Distribution { profile, .. } => vec![profile.clone()],
            Abstraction::Categories { profile, .. } => vec![profile.clone()],
            Abstraction::GeoPoints { points } => {
                let n = points.len();
                let f = |name: &str| FieldProfile {
                    name: name.into(),
                    kind: DataKind::Spatial,
                    count: n,
                    distinct: n,
                    numeric: None,
                };
                vec![f("lat"), f("long")]
            }
            Abstraction::Network { layout, edges } => vec![FieldProfile {
                name: "network".into(),
                kind: DataKind::Graph,
                count: edges.len(),
                distinct: layout.len(),
                numeric: None,
            }],
        }
    }
}

/// Stage 4 output: the rendered view plus full provenance of the run.
#[derive(Debug, Clone)]
pub struct View {
    /// The chosen chart type.
    pub kind: VisKind,
    /// The scene graph.
    pub scene: Scene,
    /// The SVG rendering.
    pub svg: String,
    /// The ranked recommendations that led to `kind`.
    pub recommendations: Vec<Recommendation>,
}

/// A user-defined analyzer: the Payola \[84\] plugin mechanism and §2's
/// "define her own operations for data manipulation and analysis". An
/// analyzer inspects the profiled property and, when it applies, replaces
/// stage 2 with its own analytical abstraction.
pub trait Analyzer: Send + Sync {
    /// A short name for provenance/debugging.
    fn name(&self) -> &str;
    /// True if this analyzer wants to handle the property.
    fn applies(&self, profile: &FieldProfile) -> bool;
    /// Builds the abstraction (stage 2) for the property, reading what
    /// it needs off the source store (one property is
    /// [`property_graph`]).
    fn analyze(
        &self,
        source: &TripleStore,
        predicate: &str,
        prefs: &UserPreferences,
    ) -> Abstraction;
}

/// The four-stage pipeline over one source store. The store is shared,
/// not owned — a pipeline beside an explorer reads the explorer's store —
/// and no copy of the dataset is made: stage 2 decodes the one property
/// it is asked about, for the call.
pub struct LdvmPipeline {
    source: Arc<TripleStore>,
    prefs: UserPreferences,
    analyzers: Vec<Box<dyn Analyzer>>,
}

impl LdvmPipeline {
    /// Stage 1: wraps the source data (an owned [`TripleStore`] or a
    /// shared handle to one).
    pub fn new(source: impl Into<Arc<TripleStore>>) -> LdvmPipeline {
        LdvmPipeline {
            source: source.into(),
            prefs: UserPreferences::default(),
            analyzers: Vec::new(),
        }
    }

    /// Registers a custom analyzer; the first applicable analyzer wins
    /// over the built-in stage 2.
    pub fn with_analyzer(mut self, analyzer: Box<dyn Analyzer>) -> LdvmPipeline {
        self.analyzers.push(analyzer);
        self
    }

    /// Sets the preferences used by stages 2–4.
    pub fn with_prefs(mut self, prefs: UserPreferences) -> LdvmPipeline {
        self.prefs = prefs;
        self
    }

    /// Stage 2 for a single property: profile it and build the matching
    /// reduced abstraction. The property's triples are one POS range of
    /// the source (nothing is read for a predicate it does not have),
    /// put in term order before anything folds over them — the result
    /// does not depend on the store's id order. Profile and abstraction
    /// both read that one slice.
    pub fn analyze_property(&self, predicate: &str) -> Abstraction {
        let property = property_graph(&self.source, predicate);
        let triples: Vec<&Triple> = property.iter().collect();
        let profile = profile_triples(predicate, &triples);
        if let Some(a) = self.analyzers.iter().find(|a| a.applies(&profile)) {
            return a.analyze(&self.source, predicate, &self.prefs);
        }
        match profile.kind {
            DataKind::Numeric | DataKind::Temporal => {
                let values: Vec<f64> = triples
                    .iter()
                    .filter_map(|t| t.object.as_literal())
                    .map(Value::from_literal)
                    .filter_map(|v| {
                        v.as_f64()
                            .or_else(|| v.as_epoch_seconds().map(|s| s as f64))
                    })
                    .collect();
                let histogram = wodex_approx::binning::Histogram::build(
                    &values,
                    self.prefs.bins,
                    wodex_approx::binning::BinningStrategy::EqualWidth,
                );
                Abstraction::Distribution { profile, histogram }
            }
            DataKind::Spatial => Abstraction::GeoPoints {
                points: self.extract_geo(),
            },
            DataKind::Graph => {
                // Induce the subgraph of this object property.
                let sub: Graph = property
                    .into_iter()
                    .filter(|t| t.object.is_resource())
                    .collect();
                let (adj, _) = Adjacency::from_rdf(&sub);
                let lay = layout::fruchterman_reingold(
                    &adj,
                    FrParams {
                        iterations: 30,
                        ..Default::default()
                    },
                );
                Abstraction::Network {
                    layout: lay,
                    edges: adj.edges().collect(),
                }
            }
            _ => {
                // Categorical/text: count object values.
                let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
                for t in &triples {
                    let label = match &t.object {
                        Term::Iri(i) => i.local_name().to_string(),
                        Term::Literal(l) => l.lexical().to_string(),
                        Term::Blank(b) => format!("_:{}", b.label()),
                    };
                    *counts.entry(label).or_insert(0.0) += 1.0;
                }
                let mut pairs: Vec<(String, f64)> = counts.into_iter().collect();
                pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite counts"));
                pairs.truncate(self.prefs.bins.max(8));
                Abstraction::Categories { profile, pairs }
            }
        }
    }

    /// Extracts (lat, lon) pairs joined per subject, in subject order; a
    /// subject with several coordinates keeps its last in term order.
    fn extract_geo(&self) -> Vec<(f64, f64)> {
        let coordinates = |predicate: &str| -> std::collections::BTreeMap<Term, f64> {
            property_graph(&self.source, predicate)
                .into_iter()
                .filter_map(|t| {
                    let v = Value::from_literal(t.object.as_literal()?).as_f64()?;
                    Some((t.subject, v))
                })
                .collect()
        };
        let lon = coordinates(geo::LONG);
        coordinates(geo::LAT)
            .iter()
            .filter_map(|(s, &la)| lon.get(s).map(|&lo| (la, lo)))
            .collect()
    }

    /// Stage 3: rank chart types for an abstraction, folding in user
    /// preferences.
    pub fn recommendations(&self, abstraction: &Abstraction) -> Vec<Recommendation> {
        self.prefs.apply(recommend(&abstraction.profiles()))
    }

    /// Stage 3+4: build the view — with the top-ranked chart type, or an
    /// explicit override.
    pub fn view(&self, abstraction: &Abstraction, kind: Option<VisKind>) -> View {
        let recommendations = self.recommendations(abstraction);
        let kind = kind
            .or_else(|| recommendations.first().map(|r| r.kind))
            .unwrap_or(VisKind::Table);
        let (w, h) = (self.prefs.width, self.prefs.height);
        let scene = match (abstraction, kind) {
            (Abstraction::Distribution { histogram, profile }, VisKind::HistogramChart)
            | (Abstraction::Distribution { histogram, profile }, VisKind::Line) => {
                if kind == VisKind::Line {
                    let pts: Vec<(f64, f64)> = histogram
                        .bins
                        .iter()
                        .map(|b| ((b.lo + b.hi) / 2.0, b.count as f64))
                        .collect();
                    charts::line_chart(&title_of(profile), &pts, w, h)
                } else {
                    charts::histogram(&title_of(profile), histogram, w, h)
                }
            }
            (Abstraction::Distribution { histogram, profile }, _) => {
                charts::histogram(&title_of(profile), histogram, w, h)
            }
            (Abstraction::Categories { pairs, profile }, VisKind::Pie) => {
                charts::pie(&title_of(profile), pairs, w, h)
            }
            (Abstraction::Categories { pairs, profile }, VisKind::Treemap) => {
                charts::treemap(&title_of(profile), pairs, w, h)
            }
            (Abstraction::Categories { pairs, profile }, _) => {
                charts::bar_chart(&title_of(profile), pairs, w, h)
            }
            (Abstraction::GeoPoints { points }, _) => {
                // The pipeline's own scalability rule: beyond the point
                // budget, a raw dot map becomes a density heatmap.
                if points.len() > self.prefs.max_points {
                    let cells = wodex_approx::binning::grid2d(points, 64, 48);
                    charts::heatmap("map density", &cells, 64, 48, w, h)
                } else {
                    charts::geo_scatter("map", points, w, h)
                }
            }
            (Abstraction::Network { layout, edges }, _) => {
                charts::node_link("network", layout, edges, None, w, h)
            }
        };
        let svg = render::to_svg(&scene);
        View {
            kind,
            scene,
            svg,
            recommendations,
        }
    }

    /// The whole pipeline for one property: stages 2→3→4.
    pub fn run(&self, predicate: &str) -> View {
        let a = self.analyze_property(predicate);
        self.view(&a, None)
    }
}

fn title_of(p: &FieldProfile) -> String {
    wodex_rdf::vocab::abbreviate(&p.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_rdf::vocab::rdf;
    use wodex_rdf::Triple;

    fn source() -> TripleStore {
        let mut g = Graph::new();
        for i in 0..300 {
            let s = format!("http://e.org/e{i}");
            g.insert(Triple::iri(
                &s,
                "http://e.org/value",
                Term::double((i % 50) as f64),
            ));
            g.insert(Triple::iri(
                &s,
                rdf::TYPE,
                Term::iri(format!("http://e.org/Class{}", i % 4)),
            ));
            g.insert(Triple::iri(
                &s,
                geo::LAT,
                Term::double(35.0 + (i % 10) as f64 * 0.1),
            ));
            g.insert(Triple::iri(
                &s,
                geo::LONG,
                Term::double(23.0 + (i % 7) as f64 * 0.1),
            ));
            g.insert(Triple::iri(
                &s,
                "http://e.org/links",
                Term::iri(format!("http://e.org/e{}", (i + 1) % 300)),
            ));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn numeric_property_becomes_histogram_view() {
        let p = LdvmPipeline::new(source());
        let v = p.run("http://e.org/value");
        assert_eq!(v.kind, VisKind::HistogramChart);
        assert!(v.svg.contains("<rect"));
        assert!(v.scene.in_bounds(1.0));
        // Mark count bounded by bins, not by the 300 records.
        let (rects, _, _, _) = v.scene.mark_breakdown();
        assert!(rects <= UserPreferences::default().bins);
    }

    #[test]
    fn type_property_becomes_bar_view() {
        let p = LdvmPipeline::new(source());
        let a = p.analyze_property(rdf::TYPE);
        match &a {
            Abstraction::Categories { pairs, .. } => {
                assert_eq!(pairs.len(), 4);
                assert_eq!(pairs.iter().map(|&(_, c)| c).sum::<f64>(), 300.0);
            }
            other => panic!("expected categories, got {other:?}"),
        }
        let v = p.view(&a, None);
        assert_eq!(v.kind, VisKind::Bar);
    }

    #[test]
    fn spatial_property_becomes_map_view() {
        let p = LdvmPipeline::new(source());
        let v = p.run(geo::LAT);
        assert_eq!(v.kind, VisKind::Map);
        let (_, circles, _, _) = v.scene.mark_breakdown();
        assert_eq!(circles, 300);
    }

    #[test]
    fn object_property_becomes_network_view() {
        let p = LdvmPipeline::new(source());
        let v = p.run("http://e.org/links");
        assert_eq!(v.kind, VisKind::NodeLink);
        let (_, circles, lines, _) = v.scene.mark_breakdown();
        assert_eq!(circles, 300);
        assert_eq!(lines, 300);
    }

    #[test]
    fn override_rebinds_stage_three_only() {
        let p = LdvmPipeline::new(source());
        let a = p.analyze_property(rdf::TYPE);
        let pie = p.view(&a, Some(VisKind::Pie));
        assert_eq!(pie.kind, VisKind::Pie);
        let tm = p.view(&a, Some(VisKind::Treemap));
        assert_eq!(tm.kind, VisKind::Treemap);
        // Same abstraction, different scenes.
        assert_ne!(pie.scene, tm.scene);
    }

    #[test]
    fn preferences_flow_into_views_and_ranking() {
        let prefs = UserPreferences {
            bins: 8,
            ..Default::default()
        }
        .boost(VisKind::Treemap, 0.5);
        let p = LdvmPipeline::new(source()).with_prefs(prefs);
        let v = p.run("http://e.org/value");
        let (rects, _, _, _) = v.scene.mark_breakdown();
        assert!(rects <= 8, "bins preference must bound the marks");
        let a = p.analyze_property(rdf::TYPE);
        let v = p.view(&a, None);
        assert_eq!(v.kind, VisKind::Treemap, "boost must win stage 3");
    }

    /// A base region that counts the scans it serves.
    #[derive(Debug)]
    struct CountingBase {
        inner: TripleStore,
        scans: std::sync::atomic::AtomicUsize,
    }

    impl wodex_store::SegmentSource for CountingBase {
        fn source_len(&self) -> usize {
            self.inner.source_len()
        }
        fn scan(
            &self,
            pat: wodex_store::Pattern,
        ) -> Result<Vec<wodex_store::EncodedTriple>, wodex_store::StoreError> {
            self.scans
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.scan(pat)
        }
        fn estimate(&self, pat: wodex_store::Pattern) -> usize {
            self.inner.estimate(pat)
        }
        fn source_stats(&self) -> wodex_store::StoreStats {
            self.inner.source_stats()
        }
    }

    #[test]
    fn an_unknown_predicate_scans_nothing_and_a_known_one_scans_its_range() {
        let inner = source();
        let dict = inner.dict().clone();
        let base = Arc::new(CountingBase {
            inner,
            scans: Default::default(),
        });
        let scans = || base.scans.load(std::sync::atomic::Ordering::Relaxed);
        let p = LdvmPipeline::new(TripleStore::with_base(dict, base.clone()));
        match p.analyze_property("http://e.org/no-such-property") {
            Abstraction::Categories { profile, pairs } => {
                assert_eq!((profile.count, pairs.len()), (0, 0));
            }
            other => panic!("expected empty categories, got {other:?}"),
        }
        assert_eq!(scans(), 0, "the dictionary answers for an unknown IRI");
        p.analyze_property("http://e.org/value");
        assert_eq!(scans(), 1, "one POS range, not a pass over the dataset");
    }

    #[test]
    fn views_carry_their_recommendation_provenance() {
        let p = LdvmPipeline::new(source());
        let v = p.run("http://e.org/value");
        assert!(!v.recommendations.is_empty());
        assert_eq!(v.recommendations[0].kind, v.kind);
        assert!(!v.recommendations[0].reason.is_empty());
    }
}
#[cfg(test)]
mod geo_budget_tests {
    use super::*;
    use wodex_rdf::{Graph, Term, Triple};

    fn geo_source(n: usize) -> TripleStore {
        let mut g = Graph::new();
        for i in 0..n {
            let s = format!("http://e.org/p{i}");
            g.insert(Triple::iri(
                &s,
                geo::LAT,
                Term::double(35.0 + (i % 100) as f64 * 0.01),
            ));
            g.insert(Triple::iri(
                &s,
                geo::LONG,
                Term::double(23.0 + (i / 100) as f64 * 0.01),
            ));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn small_geo_view_is_a_dot_map() {
        let prefs = UserPreferences {
            max_points: 1000,
            ..Default::default()
        };
        let p = LdvmPipeline::new(geo_source(200)).with_prefs(prefs);
        let v = p.run(geo::LAT);
        let (rects, circles, _, _) = v.scene.mark_breakdown();
        assert_eq!(circles, 200);
        assert_eq!(rects, 0);
    }

    #[test]
    fn large_geo_view_degrades_to_density_heatmap() {
        let prefs = UserPreferences {
            max_points: 1000,
            ..Default::default()
        };
        let p = LdvmPipeline::new(geo_source(3000)).with_prefs(prefs);
        let v = p.run(geo::LAT);
        let (rects, circles, _, _) = v.scene.mark_breakdown();
        assert_eq!(circles, 0, "no per-point marks above the budget");
        assert!(rects > 0 && rects <= 64 * 48, "bounded by the grid");
        assert!(v.scene.in_bounds(1.0));
    }
}
#[cfg(test)]
mod analyzer_tests {
    use super::*;
    use wodex_rdf::{Graph, Term, Triple};

    /// A log-scale histogram analyzer — the classic custom operation for
    /// heavy-tailed properties.
    struct LogHistogram;

    impl Analyzer for LogHistogram {
        fn name(&self) -> &str {
            "log-histogram"
        }

        fn applies(&self, profile: &FieldProfile) -> bool {
            profile.kind == DataKind::Numeric
                && profile
                    .numeric
                    .as_ref()
                    .is_some_and(|s| s.min > 0.0 && s.max / s.min.max(1e-12) > 1e3)
        }

        fn analyze(
            &self,
            source: &TripleStore,
            predicate: &str,
            prefs: &UserPreferences,
        ) -> Abstraction {
            let values: Vec<f64> = property_graph(source, predicate)
                .iter()
                .filter_map(|t| t.object.as_literal())
                .map(Value::from_literal)
                .filter_map(|v| v.as_f64())
                .filter(|v| *v > 0.0)
                .map(f64::log10)
                .collect();
            let histogram = wodex_approx::binning::Histogram::build(
                &values,
                prefs.bins,
                wodex_approx::binning::BinningStrategy::EqualWidth,
            );
            Abstraction::Distribution {
                profile: crate::profile::FieldProfile::detect(
                    format!("log10({predicate})"),
                    &values.iter().map(|&v| Value::Double(v)).collect::<Vec<_>>(),
                ),
                histogram,
            }
        }
    }

    fn heavy_tailed_source() -> TripleStore {
        let mut g = Graph::new();
        for i in 0..500usize {
            g.insert(Triple::iri(
                &format!("http://e.org/e{i}"),
                "http://e.org/pop",
                Term::double(10f64.powf(1.0 + (i % 500) as f64 / 100.0)),
            ));
        }
        TripleStore::from_graph(&g)
    }

    #[test]
    fn custom_analyzer_overrides_builtin_stage_two() {
        let p = LdvmPipeline::new(heavy_tailed_source()).with_analyzer(Box::new(LogHistogram));
        let a = p.analyze_property("http://e.org/pop");
        match &a {
            Abstraction::Distribution { profile, histogram } => {
                assert!(profile.name.starts_with("log10("));
                // Log-domain edges: min ≈ 1, max ≈ 5.99.
                assert!(histogram.bins[0].lo >= 0.9 && histogram.bins[0].lo <= 1.1);
                let hi = histogram.bins.last().unwrap().hi;
                assert!((5.5..=6.1).contains(&hi), "top edge {hi}");
            }
            other => panic!("expected distribution, got {other:?}"),
        }
        // The view still renders through stages 3–4.
        let v = p.view(&a, None);
        assert_eq!(v.kind, VisKind::HistogramChart);
    }

    #[test]
    fn analyzer_that_does_not_apply_is_skipped() {
        // Uniform small-range data: the guard rejects, builtin path runs.
        let mut g = Graph::new();
        for i in 0..100usize {
            g.insert(Triple::iri(
                &format!("http://e.org/e{i}"),
                "http://e.org/v",
                Term::double(50.0 + (i % 10) as f64),
            ));
        }
        let p =
            LdvmPipeline::new(TripleStore::from_graph(&g)).with_analyzer(Box::new(LogHistogram));
        let a = p.analyze_property("http://e.org/v");
        match &a {
            Abstraction::Distribution { profile, .. } => {
                assert!(!profile.name.starts_with("log10("), "builtin must run");
            }
            other => panic!("expected distribution, got {other:?}"),
        }
        assert_eq!(LogHistogram.name(), "log-histogram");
    }
}
