//! The [`Explorer`] façade.

use crate::cache::ViewCache;
use crate::WodexError;
use std::sync::Arc;
use wodex_explore::session::ExplorationSession;
use wodex_explore::{ExploreIndex, ResourceView};
use wodex_graph::adjacency::Adjacency;
use wodex_graph::hierarchy::{AbstractionHierarchy, HierarchyView};
use wodex_graph::layout::{self, FrParams};
use wodex_hetree::{HETree, Variant};
use wodex_rdf::stats::DatasetStats;
use wodex_rdf::{Graph, RdfError, Term, Value};
use wodex_sparql::{Budget, BudgetedResult, Degraded, QueryError, QueryResult};
use wodex_store::{Pattern, TripleStore};
use wodex_viz::ldvm::{LdvmPipeline, View};
use wodex_viz::profile::FieldProfile;
use wodex_viz::recommend::{Recommendation, VisKind};
use wodex_viz::UserPreferences;

/// Most values a degraded visualization samples from the property's
/// numeric column.
const DEGRADED_VIEW_SAMPLE: usize = 512;

/// Bytes of rendered SVG the explorer keeps (LRU beyond this).
const VIEW_CACHE_BYTES: usize = 16 << 20;

/// The coverage of a degraded answer built from `sampled` of a property's
/// `total` values, in \[0, 1\]: 0 for a property with no values — nothing
/// was there to cover.
pub fn sampled_coverage(sampled: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        (sampled as f64 / total as f64).min(1.0)
    }
}

/// A ready-to-render abstraction view of the dataset's link graph.
pub struct GraphView {
    /// The underlying adjacency (object links between resources).
    pub adjacency: Adjacency,
    /// The node terms, indexed like the adjacency.
    pub nodes: Vec<Term>,
    /// The abstraction hierarchy over it.
    pub hierarchy: AbstractionHierarchy,
}

impl GraphView {
    /// Renders the current top-level abstraction as a node-link scene:
    /// one circle per supernode (sized by weight), one line per
    /// aggregated edge. The scene stays small regardless of base size —
    /// the §4 scalability property.
    pub fn overview_scene(&self, width: f64, height: f64) -> wodex_viz::Scene {
        let view = HierarchyView::new(&self.hierarchy);
        let visible = view.visible();
        let index: std::collections::HashMap<_, u32> = visible
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i as u32))
            .collect();
        // Lay out the abstract graph.
        let edges: Vec<(u32, u32)> = view
            .visible_edges()
            .keys()
            .map(|&(a, b)| (index[&a], index[&b]))
            .collect();
        let abstract_adj = Adjacency::from_edges(visible.len(), &edges);
        let lay = layout::fruchterman_reingold(
            &abstract_adj,
            FrParams {
                iterations: 60,
                ..Default::default()
            },
        );
        let sizes: Vec<f64> = visible
            .iter()
            .map(|&h| self.hierarchy.weight(h) as f64)
            .collect();
        wodex_viz::charts::node_link(
            "link-graph overview",
            &lay,
            &edges,
            Some(&sizes),
            width,
            height,
        )
    }
}

/// The unified framework: one value that loads a dataset and exposes
/// every capability of the workspace.
///
/// The dataset is resident once, as the encoded [`TripleStore`], and in no
/// other form: SPARQL, the [`ExploreIndex`] (held by the explorer's own
/// session, shared with every other), sessions, histograms and degraded
/// charts read it, and so do the LDVM pipeline ([`Explorer::visualize`],
/// [`Explorer::recommend`], a [`Explorer::cached_view`] miss),
/// [`Explorer::profiles`] and [`Explorer::hetree`] — each decodes the one
/// property it is asked about, for the call. The whole-dataset one-shots
/// ([`Explorer::graph`], [`Explorer::stats`], [`Explorer::class_hierarchy`],
/// [`Explorer::find_paths`], [`Explorer::graph_view`]; no served endpoint
/// calls them) decode a term-level [`Graph`] for the call and drop it.
pub struct Explorer {
    store: Arc<TripleStore>,
    pipeline: LdvmPipeline,
    views: ViewCache,
    session: ExplorationSession,
    prefs: UserPreferences,
}

impl Explorer {
    /// Loads from an in-memory [`Graph`]: encodes it and lets it go
    /// before anything is built over the store.
    pub fn from_graph(graph: Graph) -> Explorer {
        let store = TripleStore::from_graph(&graph);
        drop(graph);
        Explorer::from_store(store)
    }

    /// Builds an explorer over an existing store — the entry point for
    /// servers and disk-backed datasets.
    ///
    /// Every facility queries `store` directly, so a segment-backed
    /// store ([`TripleStore::with_base`]) keeps its triple data on disk
    /// and block-pages it per scan.
    pub fn from_store(store: TripleStore) -> Explorer {
        let store = Arc::new(store);
        let index = Arc::new(ExploreIndex::build(Arc::clone(&store)));
        Explorer {
            pipeline: LdvmPipeline::new(Arc::clone(&store)),
            views: ViewCache::new(VIEW_CACHE_BYTES),
            session: ExplorationSession::over(index),
            store,
            prefs: UserPreferences::default(),
        }
    }

    /// Parses a Turtle document.
    pub fn from_turtle(ttl: &str) -> Result<Explorer, RdfError> {
        Ok(Explorer::from_graph(wodex_rdf::turtle::parse(ttl)?))
    }

    /// Parses an N-Triples document.
    pub fn from_ntriples(nt: &str) -> Result<Explorer, RdfError> {
        Ok(Explorer::from_graph(wodex_rdf::ntriples::parse(nt)?))
    }

    /// Replaces the preferences (re-wires the LDVM pipeline and drops
    /// the views rendered under the old ones).
    pub fn with_prefs(mut self, prefs: UserPreferences) -> Explorer {
        self.pipeline = self.pipeline.with_prefs(prefs.clone());
        self.prefs = prefs;
        self.views.invalidate();
        self
    }

    /// The dataset as a term-level [`Graph`], decoded from the store for
    /// this call: nothing keeps it, so hold the value rather than asking
    /// twice.
    pub fn graph(&self) -> Graph {
        self.store
            .match_pattern(Pattern::any())
            .into_iter()
            .map(|t| self.store.decode(t))
            .collect()
    }

    /// [`Explorer::graph`] behind an [`Arc`], for callers that want to
    /// share the one they decoded.
    pub fn shared_graph(&self) -> Arc<Graph> {
        Arc::new(self.graph())
    }

    /// The shared exploration index. Servers open further
    /// [`ExplorationSession`]s over this ([`ExplorationSession::over`])
    /// without copying or re-indexing the dataset.
    pub fn explore_index(&self) -> &Arc<ExploreIndex> {
        self.session.index()
    }

    /// The cache of rendered views behind [`Explorer::cached_view`] and
    /// [`Explorer::visualize_budgeted`].
    pub fn view_cache(&self) -> &ViewCache {
        &self.views
    }

    /// The dictionary-encoded store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The store's shared handle — what a server seeds revision 0 of its
    /// write path with, so the dataset is resident once.
    pub fn shared_store(&self) -> Arc<TripleStore> {
        Arc::clone(&self.store)
    }

    /// Dataset statistics (the "Statistics" facility of Table 1).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::of(&self.graph())
    }

    /// Runs a SPARQL-subset query.
    pub fn sparql(&self, query: &str) -> Result<QueryResult, QueryError> {
        wodex_sparql::query(&self.store, query)
    }

    /// Profiles every property (the recommendation wizard's first step).
    pub fn profiles(&self) -> Vec<FieldProfile> {
        wodex_viz::profile::profile_store(&self.store)
    }

    /// Ranked chart recommendations for one property.
    pub fn recommend(&self, predicate: &str) -> Vec<Recommendation> {
        self.pipeline
            .recommendations(&self.pipeline.analyze_property(predicate))
    }

    /// Runs the full LDVM pipeline for a property with the top-ranked
    /// chart type. Always renders; [`Explorer::cached_view`] is the
    /// memoized form.
    pub fn visualize(&self, predicate: &str) -> View {
        self.pipeline.run(predicate)
    }

    /// [`Explorer::visualize`] through the explorer's single-flight view
    /// cache: the first caller per property renders, concurrent first
    /// callers wait for that render, later callers share the result. The
    /// dataset behind an explorer never changes, so nothing invalidates.
    pub fn cached_view(&self, predicate: &str) -> Arc<View> {
        self.views.view(self, predicate, None)
    }

    /// Like [`Explorer::visualize`] with an explicit chart type.
    pub fn visualize_as(&self, predicate: &str, kind: VisKind) -> View {
        self.pipeline
            .view(&self.pipeline.analyze_property(predicate), Some(kind))
    }

    /// The interactive exploration session (facets, zoom, search, undo).
    pub fn session(&mut self) -> &mut ExplorationSession {
        &mut self.session
    }

    /// Keyword search (stateless preview).
    pub fn search(&self, query: &str, limit: usize) -> Vec<wodex_explore::search::Hit> {
        self.session.search_preview(query, limit)
    }

    /// The property-value view of one resource.
    pub fn details(&self, resource: &Term) -> ResourceView {
        self.session.details(resource)
    }

    /// Builds a HETree over a numeric/temporal property for multilevel
    /// exploration (SynopsViz-style). Items carry the store's term id of
    /// their subject as payload.
    pub fn hetree(&self, predicate: &str, variant: Variant) -> HETree {
        let items: Vec<(f64, u64)> = wodex_viz::profile::property_graph(&self.store, predicate)
            .iter()
            .filter_map(|t| {
                let v = t.object.as_literal().map(Value::from_literal)?;
                let x = v
                    .as_f64()
                    .or_else(|| v.as_epoch_seconds().map(|s| s as f64))?;
                let id = self.store.id_of(&t.subject).map(|i| i.0 as u64)?;
                Some((x, id))
            })
            .collect();
        HETree::new(items, variant, self.prefs.hierarchy_degree.max(2), 64)
    }

    /// Visualizes a SPARQL SELECT result directly — the Sgvizler \[120\] /
    /// Visualbox \[50\] / VISU \[6\] workflow: profile the result columns,
    /// pick the chart that fits (categorical+numeric → bar,
    /// temporal+numeric → line, numeric+numeric → scatter, single
    /// numeric → histogram), and render it.
    pub fn visualize_query(&self, query: &str) -> Result<View, QueryError> {
        use wodex_viz::profile::{DataKind, FieldProfile};
        let result = self.sparql(query)?;
        let table = result
            .table()
            .ok_or_else(|| QueryError::Eval("visualize_query needs a SELECT result".into()))?;
        if table.columns.is_empty() {
            return Err(QueryError::Eval("no columns to visualize".into()));
        }
        // Profile each column.
        let columns: Vec<(String, Vec<Value>)> = table
            .columns
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let vals: Vec<Value> = table
                    .rows
                    .iter()
                    .filter_map(|r| r[i].as_ref())
                    .map(|t| match t {
                        Term::Literal(l) => Value::from_literal(l),
                        Term::Iri(iri) => Value::Text(iri.local_name().to_string()),
                        Term::Blank(b) => Value::Text(format!("_:{}", b.label())),
                    })
                    .collect();
                (name.clone(), vals)
            })
            .collect();
        let profiles: Vec<FieldProfile> = columns
            .iter()
            .map(|(n, vals)| FieldProfile::detect(n.clone(), vals))
            .collect();
        let recommendations = self.prefs.apply(wodex_viz::recommend::recommend(&profiles));
        let (w, h) = (self.prefs.width, self.prefs.height);
        let numeric_of = |vals: &[Value]| -> Vec<f64> {
            vals.iter()
                .filter_map(|v| {
                    v.as_f64()
                        .or_else(|| v.as_epoch_seconds().map(|s| s as f64))
                })
                .collect()
        };
        let find = |k: DataKind| profiles.iter().position(|p| p.kind == k);
        let title = format!("query result ({} rows)", table.len());
        let scene = if let (Some(c), Some(n)) = (
            find(DataKind::Categorical).or_else(|| find(DataKind::Text)),
            find(DataKind::Numeric),
        ) {
            let pairs: Vec<(String, f64)> = table
                .rows
                .iter()
                .filter_map(|r| {
                    let label = r[c].as_ref().map(|t| match t {
                        Term::Literal(l) => l.lexical().to_string(),
                        Term::Iri(i) => i.local_name().to_string(),
                        Term::Blank(b) => format!("_:{}", b.label()),
                    })?;
                    let v = r[n]
                        .as_ref()?
                        .as_literal()
                        .map(Value::from_literal)?
                        .as_f64()?;
                    Some((label, v))
                })
                .take(self.prefs.bins.max(8))
                .collect();
            wodex_viz::charts::bar_chart(&title, &pairs, w, h)
        } else if let (Some(t), Some(n)) = (find(DataKind::Temporal), find(DataKind::Numeric)) {
            let pts: Vec<(f64, f64)> = numeric_of(&columns[t].1)
                .into_iter()
                .zip(numeric_of(&columns[n].1))
                .collect();
            wodex_viz::charts::line_chart(&title, &pts, w, h)
        } else {
            let numeric_cols: Vec<usize> = profiles
                .iter()
                .enumerate()
                .filter(|(_, p)| p.kind == DataKind::Numeric)
                .map(|(i, _)| i)
                .collect();
            match numeric_cols.as_slice() {
                [a, b, ..] => {
                    let pts: Vec<(f64, f64)> = numeric_of(&columns[*a].1)
                        .into_iter()
                        .zip(numeric_of(&columns[*b].1))
                        .collect();
                    wodex_viz::charts::scatter(&title, &pts, w, h, self.prefs.max_points)
                }
                [a] => {
                    let hist = wodex_approx::binning::Histogram::build(
                        &numeric_of(&columns[*a].1),
                        self.prefs.bins,
                        wodex_approx::binning::BinningStrategy::EqualWidth,
                    );
                    wodex_viz::charts::histogram(&title, &hist, w, h)
                }
                [] => {
                    // Nothing quantitative: counts of the first column.
                    let mut counts: std::collections::BTreeMap<String, f64> = Default::default();
                    for v in &columns[0].1 {
                        *counts.entry(v.to_string()).or_insert(0.0) += 1.0;
                    }
                    let mut pairs: Vec<(String, f64)> = counts.into_iter().collect();
                    pairs.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite"));
                    pairs.truncate(self.prefs.bins.max(8));
                    wodex_viz::charts::bar_chart(&title, &pairs, w, h)
                }
            }
        };
        let kind = recommendations
            .first()
            .map(|r| r.kind)
            .unwrap_or(wodex_viz::recommend::VisKind::Table);
        let svg = wodex_viz::render::to_svg(&scene);
        Ok(View {
            kind,
            scene,
            svg,
            recommendations,
        })
    }

    /// Builds a VizBoard-style dashboard: one top-recommended view per
    /// predicate, composed into a grid.
    pub fn dashboard(
        &self,
        predicates: &[&str],
        cols: usize,
        width: f64,
        height: f64,
    ) -> wodex_viz::Scene {
        let views: Vec<wodex_viz::Scene> =
            predicates.iter().map(|p| self.visualize(p).scene).collect();
        wodex_viz::dashboard::compose("dashboard", &views, cols.max(1), width, height)
    }

    /// Extracts the `rdfs:subClassOf` class hierarchy with instance
    /// counts (the §3.5 ontology-visualization substrate).
    pub fn class_hierarchy(&self) -> wodex_rdf::ClassHierarchy {
        wodex_rdf::ClassHierarchy::extract(&self.graph())
    }

    /// RelFinder-style relationship discovery: the shortest connecting
    /// paths between two resources.
    pub fn find_paths(
        &self,
        a: &Term,
        b: &Term,
        max_hops: usize,
        max_paths: usize,
    ) -> Vec<wodex_explore::relfind::Path> {
        wodex_explore::relfind::find_paths(&self.graph(), a, b, max_hops, max_paths)
    }

    /// Runs a SPARQL-subset query under a [`Budget`].
    ///
    /// Over-budget evaluation does not error: the result comes back
    /// flagged [`Degraded`] with the reason and a coverage estimate.
    /// With an unlimited budget the result is bit-identical to
    /// [`Explorer::sparql`].
    pub fn sparql_budgeted(
        &self,
        query: &str,
        budget: &Budget,
    ) -> Result<BudgetedResult, WodexError> {
        Ok(wodex_sparql::query_budgeted(&self.store, query, budget)?)
    }

    /// [`Explorer::sparql_budgeted`] recording per-stage timings (parse,
    /// plan, BGP probe, filter, decode) into `trace`. Pass
    /// [`wodex_sparql::QueryTrace::disabled`] to make this exactly
    /// `sparql_budgeted` — disabled traces never read the clock.
    pub fn sparql_traced(
        &self,
        query: &str,
        budget: &Budget,
        trace: &wodex_sparql::QueryTrace,
    ) -> Result<BudgetedResult, WodexError> {
        Ok(wodex_sparql::query_traced(
            &self.store,
            query,
            budget,
            trace,
        )?)
    }

    /// Number of triples with the given predicate, read off the store's
    /// index (nothing is walked).
    pub fn property_triples(&self, predicate: &str) -> usize {
        self.store
            .id_of(&Term::iri(predicate))
            .map_or(0, |p| self.store.count_pattern(Pattern::any().with_p(p)))
    }

    /// Like [`Explorer::cached_view`] under a [`Budget`].
    ///
    /// A cached view is returned as is, before anything is charged. A
    /// render is charged one row per triple of the property (counted on
    /// the store's index, not walked). When the budget cannot afford
    /// that, the pipeline is skipped and a histogram is rendered from an
    /// evenly spaced sample of the property's numeric column, as large as
    /// the budget still allows — the §4 approximation-first fallback —
    /// with the [`Degraded`] flag carrying `coverage = sample / total`.
    pub fn visualize_budgeted(
        &self,
        predicate: &str,
        budget: &Budget,
    ) -> (Arc<View>, Option<Degraded>) {
        if let Some(view) = self.views.lookup(predicate, None) {
            return (view, None);
        }
        let total = self.property_triples(predicate);
        let (granted, tripped) = budget.charge_rows_up_to(total as u64);
        let Some(reason) = tripped else {
            return (self.views.render(self, predicate, None), None);
        };
        let sample = self
            .explore_index()
            .numeric_column(predicate)
            .sample(DEGRADED_VIEW_SAMPLE.min(granted as usize));
        let coverage = sampled_coverage(sample.len() as u64, total as u64);
        let hist = wodex_approx::binning::Histogram::build(
            &sample,
            self.prefs.bins,
            wodex_approx::binning::BinningStrategy::EqualWidth,
        );
        let title = format!(
            "{} (degraded: {} of {} values)",
            wodex_rdf::Iri::new(predicate).local_name(),
            sample.len(),
            total
        );
        let scene =
            wodex_viz::charts::histogram(&title, &hist, self.prefs.width, self.prefs.height);
        let svg = wodex_viz::render::to_svg(&scene);
        let view = View {
            kind: VisKind::HistogramChart,
            scene,
            svg,
            recommendations: Vec::new(),
        };
        (Arc::new(view), Some(Degraded { reason, coverage }))
    }

    /// Builds the abstraction-hierarchy view of the dataset's link graph
    /// (graphVizdb/ASK-GraphView style).
    pub fn graph_view(&self) -> GraphView {
        let (adjacency, nodes) = Adjacency::from_rdf(&self.graph());
        let hierarchy = AbstractionHierarchy::build(adjacency.clone(), 12, 42);
        GraphView {
            adjacency,
            nodes,
            hierarchy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_synth::dbpedia::{self, DbpediaConfig};

    fn explorer() -> Explorer {
        let g = dbpedia::generate(&DbpediaConfig {
            entities: 300,
            ..Default::default()
        });
        Explorer::from_graph(g)
    }

    #[test]
    fn loads_from_turtle_and_ntriples() {
        let ttl = "@prefix ex: <http://e.org/> .\nex:a ex:p 5 .\n";
        let ex = Explorer::from_turtle(ttl).unwrap();
        assert_eq!(ex.graph().len(), 1);
        let nt = "<http://e.org/a> <http://e.org/p> \"5\" .\n";
        let ex = Explorer::from_ntriples(nt).unwrap();
        assert_eq!(ex.store().len(), 1);
        assert!(Explorer::from_turtle("garbage {").is_err());
    }

    #[test]
    fn stats_and_profiles_cover_the_dataset() {
        let ex = explorer();
        let st = ex.stats();
        assert!(st.triple_count > 1000);
        let profiles = ex.profiles();
        assert!(profiles.len() >= 5);
    }

    #[test]
    fn sparql_over_the_loaded_store() {
        let ex = explorer();
        let r = ex
            .sparql(
                "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 SELECT (COUNT(*) AS ?n) (AVG(?p) AS ?avg) WHERE { ?s dbo:population ?p }",
            )
            .unwrap();
        let t = r.table().unwrap();
        assert_eq!(t.rows[0][0], Some(Term::integer(300)));
    }

    #[test]
    fn visualize_numeric_property_end_to_end() {
        let ex = explorer();
        let v = ex.visualize("http://dbp.example.org/ontology/population");
        assert_eq!(v.kind, VisKind::HistogramChart);
        assert!(v.svg.contains("<svg"));
        assert!(v.scene.in_bounds(1.0));
    }

    #[test]
    fn visualize_as_overrides_kind() {
        let ex = explorer();
        let v = ex.visualize_as(wodex_rdf::vocab::rdf::TYPE, VisKind::Pie);
        assert_eq!(v.kind, VisKind::Pie);
    }

    #[test]
    fn recommendation_ranks_match_profile() {
        let ex = explorer();
        let recs = ex.recommend("http://dbp.example.org/ontology/foundingDate");
        assert_eq!(recs[0].kind, VisKind::Line);
    }

    #[test]
    fn session_flow_filters_and_searches() {
        let mut ex = explorer();
        let total = ex.session().matching().len();
        ex.session().filter(
            wodex_rdf::vocab::rdf::TYPE,
            "http://dbp.example.org/ontology/City",
        );
        assert!(ex.session().matching().len() < total);
        let hits = ex.search("city", 10);
        assert!(!hits.is_empty());
    }

    #[test]
    fn details_of_an_entity() {
        let ex = explorer();
        let v = ex.details(&Term::iri("http://dbp.example.org/resource/E0"));
        assert!(v.rows.iter().filter(|r| r.forward).count() >= 5);
    }

    #[test]
    fn hetree_multilevel_exploration() {
        let ex = explorer();
        let mut t = ex.hetree(
            "http://dbp.example.org/ontology/population",
            Variant::ContentBased,
        );
        assert_eq!(t.len(), 300);
        let root = t.root();
        let kids = t.expand(root).to_vec();
        assert_eq!(kids.len(), 4);
        let total: usize = kids.iter().map(|&c| t.stats(c).count).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn graph_view_abstracts_the_link_graph() {
        let ex = explorer();
        let gv = ex.graph_view();
        assert!(gv.adjacency.node_count() > 0);
        assert!(gv.hierarchy.levels() >= 1);
        let scene = gv.overview_scene(640.0, 480.0);
        let (_, circles, _, _) = scene.mark_breakdown();
        assert!(circles > 0);
        assert!(
            circles <= gv.adjacency.node_count(),
            "overview must not exceed base size"
        );
        assert!(scene.in_bounds(1.0));
    }

    #[test]
    fn visualize_query_binds_categorical_numeric_to_bars() {
        let ex = explorer();
        let v = ex
            .visualize_query(
                "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                 SELECT ?c (AVG(?p) AS ?avg) WHERE { ?s rdf:type ?c . ?s dbo:population ?p } GROUP BY ?c",
            )
            .unwrap();
        let (rects, _, _, _) = v.scene.mark_breakdown();
        assert_eq!(rects, 5, "one bar per class");
        assert!(v.svg.contains("<rect"));
        assert!(v.scene.in_bounds(1.0));
    }

    #[test]
    fn visualize_query_binds_two_numerics_to_scatter() {
        let ex = explorer();
        let v = ex
            .visualize_query(
                "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 SELECT ?p ?a WHERE { ?s dbo:population ?p . ?s dbo:area ?a }",
            )
            .unwrap();
        let (_, circles, _, _) = v.scene.mark_breakdown();
        assert!(circles > 100, "one dot per joined row, got {circles}");
    }

    #[test]
    fn visualize_query_single_numeric_becomes_histogram() {
        let ex = explorer();
        let v = ex
            .visualize_query(
                "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 SELECT ?p WHERE { ?s dbo:population ?p }",
            )
            .unwrap();
        let (rects, _, _, _) = v.scene.mark_breakdown();
        assert!(rects > 0 && rects <= 32);
    }

    #[test]
    fn visualize_query_rejects_ask() {
        let ex = explorer();
        assert!(ex.visualize_query("ASK { ?s ?p ?o }").is_err());
    }

    #[test]
    fn sparql_budgeted_unlimited_matches_sparql() {
        let ex = explorer();
        let q = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 SELECT ?s ?p WHERE { ?s dbo:population ?p }";
        let plain = ex.sparql(q).unwrap();
        let budgeted = ex
            .sparql_budgeted(q, &wodex_sparql::Budget::unlimited())
            .unwrap();
        assert!(budgeted.degraded.is_none());
        assert_eq!(
            plain.table().unwrap().rows,
            budgeted.result.table().unwrap().rows
        );
    }

    #[test]
    fn sparql_budgeted_row_cap_degrades() {
        let ex = explorer();
        let budget = wodex_sparql::Budget::unlimited().with_row_cap(10);
        let b = ex
            .sparql_budgeted(
                "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                 SELECT ?s ?p WHERE { ?s dbo:population ?p }",
                &budget,
            )
            .unwrap();
        let d = b.degraded.expect("10-row cap over 300 rows must trip");
        assert!(d.coverage < 1.0);
        assert!(b.result.table().unwrap().len() < 300);
        // The cap cuts a deterministic prefix, whatever `WODEX_THREADS`
        // says: the probe is one item, the decode of its 300 rows is
        // admitted one 256-row chunk.
        assert_eq!(b.result.table().unwrap().len(), 256);
        assert_eq!(d.coverage, 256.0 / 300.0);
    }

    #[test]
    fn visualize_budgeted_generous_budget_is_identical() {
        let ex = explorer();
        let budget = wodex_sparql::Budget::unlimited().with_row_cap(1_000_000);
        let (v, degraded) =
            ex.visualize_budgeted("http://dbp.example.org/ontology/population", &budget);
        assert!(degraded.is_none());
        assert_eq!(
            v.svg,
            ex.visualize("http://dbp.example.org/ontology/population")
                .svg
        );
    }

    #[test]
    fn visualize_budgeted_expired_deadline_samples() {
        let ex = explorer();
        let budget = wodex_sparql::Budget::unlimited().with_row_cap(50);
        let (v, degraded) =
            ex.visualize_budgeted("http://dbp.example.org/ontology/population", &budget);
        let d = degraded.expect("50-row cap over 300 values must degrade");
        assert!(d.coverage > 0.0 && d.coverage < 1.0);
        assert_eq!(v.kind, VisKind::HistogramChart);
        assert!(v.svg.contains("<svg"));
        assert!(v.scene.in_bounds(1.0));
    }

    #[test]
    fn visualize_budgeted_serves_cached_views_without_charging() {
        let ex = explorer();
        let pop = "http://dbp.example.org/ontology/population";
        let first = wodex_sparql::Budget::unlimited().with_row_cap(1_000);
        let (cold, degraded) = ex.visualize_budgeted(pop, &first);
        assert!(degraded.is_none());
        assert_eq!(first.rows_charged(), 300, "one row per triple, counted");
        // The lookup precedes the budget: a cached view is whole and free
        // even for a budget that affords nothing.
        let broke = wodex_sparql::Budget::unlimited()
            .with_row_cap(1)
            .with_expired_deadline();
        let (warm, degraded) = ex.visualize_budgeted(pop, &broke);
        assert!(degraded.is_none());
        assert_eq!(broke.rows_charged(), 0);
        assert!(Arc::ptr_eq(&cold, &warm));
        // A degraded answer is never cached: the next affordable request
        // renders the real view.
        let area = "http://dbp.example.org/ontology/area";
        let tight = wodex_sparql::Budget::unlimited().with_row_cap(50);
        assert!(ex.visualize_budgeted(area, &tight).1.is_some());
        let (full, degraded) = ex.visualize_budgeted(area, &first);
        assert!(degraded.is_none());
        assert_eq!(full.svg, ex.visualize(area).svg);
        assert_eq!(ex.view_cache().renders(), 2);
    }

    #[test]
    fn preferences_propagate() {
        let g = dbpedia::generate(&DbpediaConfig {
            entities: 100,
            ..Default::default()
        });
        let prefs = UserPreferences {
            bins: 8,
            ..Default::default()
        };
        let ex = Explorer::from_graph(g).with_prefs(prefs);
        let v = ex.visualize("http://dbp.example.org/ontology/population");
        let (rects, _, _, _) = v.scene.mark_breakdown();
        assert!(rects <= 8);
    }
}
