//! The E1–E14 experiments: each function runs the technique and its
//! baseline(s) over a parameter sweep and reports the measured shape.

use crate::{fmt_duration, timed, workloads};
use std::fmt::Write;
use wodex_approx::binning::{BinningStrategy, Histogram};
use wodex_approx::progressive::{ProgressiveAggregate, ProgressiveHistogram};
use wodex_approx::sampling::Reservoir;
use wodex_graph::layout::{self, FrParams};
use wodex_graph::spatial::{QuadTree, Rect};
use wodex_hetree::{HETree, Variant};
use wodex_store::cracking::{CrackerColumn, ScanColumn, SortedColumn};
use wodex_store::prefetch::TilePrefetcher;
use wodex_synth::values::Shape;

/// E1 — sampling bounds work and preserves distribution shape.
pub fn e1_sampling() -> String {
    let mut out = String::from("E1  sampling vs full scan (mean estimation, zipf column)\n");
    for &n in &[100_000usize, 1_000_000] {
        let col = workloads::column(Shape::Zipf, n);
        let true_mean = col.iter().sum::<f64>() / n as f64;
        let (_, t_full) = timed(|| col.iter().sum::<f64>());
        for &k in &[1_000usize, 10_000] {
            let mut rng = wodex_synth::rng(7);
            let ((est, t_sample), _) = timed(|| {
                timed(|| {
                    let mut r = Reservoir::new(k);
                    r.extend(col.iter().copied(), &mut rng);
                    let s = r.sample();
                    s.iter().sum::<f64>() / s.len() as f64
                })
            });
            let err = (est - true_mean).abs() / true_mean * 100.0;
            let _ = writeln!(
                out,
                "  n={n:>9} k={k:>6}: sample err {err:.2}%  (full scan {}, reservoir {})",
                fmt_duration(t_full),
                fmt_duration(t_sample),
            );
        }
    }
    out
}

/// E2 — aggregation output is bounded by bins, not records; strategy
/// quality on skew.
pub fn e2_aggregation() -> String {
    let mut out = String::from("E2  binning: output size & SSE by strategy (bimodal column)\n");
    for &n in &[10_000usize, 1_000_000] {
        let col = workloads::column(Shape::Bimodal, n);
        for strategy in [
            BinningStrategy::EqualWidth,
            BinningStrategy::EqualFrequency,
            BinningStrategy::VarianceMinimizing,
        ] {
            let (h, t) = timed(|| Histogram::build(&col, 64, strategy));
            let _ = writeln!(
                out,
                "  n={n:>9} {strategy:?}: {} bins, SSE {:.3e}, built in {}",
                h.bins.len(),
                h.sse(&col),
                fmt_duration(t)
            );
        }
    }
    out
}

/// E3 — progressive answers converge long before the stream ends.
pub fn e3_progressive() -> String {
    let mut out = String::from("E3  progressive mean over a 2M-value stream (target ±1%)\n");
    let n = 2_000_000usize;
    let col = workloads::column(Shape::Normal, n);
    let true_mean = col.iter().sum::<f64>() / n as f64;
    let mut agg = ProgressiveAggregate::with_total(n as u64);
    let mut converged_at = None;
    for (i, chunk) in col.chunks(20_000).enumerate() {
        agg.push_chunk(chunk);
        let e = agg.estimate();
        if converged_at.is_none() && e.converged(0.01) {
            converged_at = Some((i + 1) * 20_000);
        }
    }
    let final_est = agg.estimate();
    let frac = converged_at.unwrap_or(n) as f64 / n as f64 * 100.0;
    let _ = writeln!(
        out,
        "  CI ≤1% of mean after {} of {} values ({frac:.1}% of the stream)",
        converged_at.unwrap_or(n),
        n
    );
    let _ = writeln!(
        out,
        "  final estimate {:.3} vs true {true_mean:.3} (CI ±{:.4})",
        final_est.mean, final_est.ci95
    );
    // Histogram shape convergence.
    let mut partial = ProgressiveHistogram::new(0.0, 1000.0, 32);
    let mut full = ProgressiveHistogram::new(0.0, 1000.0, 32);
    full.push_chunk(&col);
    for (i, chunk) in col.chunks(n / 10).enumerate() {
        partial.push_chunk(chunk);
        let d = partial.l1_distance(&full);
        if i == 0 || i == 4 || i == 9 {
            let _ = writeln!(
                out,
                "  histogram L1 distance after {}0% of stream: {d:.4}",
                i + 1
            );
        }
    }
    out
}

/// E4 — cracking vs full scan vs full sort across query-count regimes.
pub fn e4_cracking() -> String {
    let mut out =
        String::from("E4  adaptive indexing: cumulative cost of k range queries (n = 1M)\n");
    let n = 1_000_000usize;
    let col = workloads::column(Shape::Uniform, n);
    for (name, ranges) in [
        ("zoom locality", workloads::zoom_sequence(256)),
        ("random ranges", workloads::random_ranges(256, 3)),
    ] {
        for &k in &[1usize, 16, 256] {
            let queries = &ranges[..k];
            let (_, t_scan) = timed(|| {
                let c = ScanColumn::new(&col);
                queries
                    .iter()
                    .map(|&(lo, hi)| c.range_count(lo, hi))
                    .sum::<usize>()
            });
            let (_, t_sort) = timed(|| {
                let c = SortedColumn::new(&col); // pays the full sort
                queries
                    .iter()
                    .map(|&(lo, hi)| c.range_count(lo, hi))
                    .sum::<usize>()
            });
            let (_, t_crack) = timed(|| {
                let mut c = CrackerColumn::new(&col);
                queries
                    .iter()
                    .map(|&(lo, hi)| c.range_count(lo, hi))
                    .sum::<usize>()
            });
            let _ = writeln!(
                out,
                "  {name:<14} k={k:>2}: scan {} | full-sort {} | crack {}",
                fmt_duration(t_scan),
                fmt_duration(t_sort),
                fmt_duration(t_crack)
            );
        }
    }
    out
}

/// E5 — segment store: memory bounded by the decoded-block cache, I/O
/// bounded by the touched window.
pub fn e5_disk() -> String {
    use std::sync::Arc;
    use wodex_rdf::TermId;
    use wodex_seg::{BlockCache, Segment};
    use wodex_store::{PageBackend, Pattern, SegmentSource};

    const BLOCK_TRIPLES: usize = 512;
    let mut out =
        String::from("E5  segment store: backend reads per access pattern (500k triples)\n");
    let triples = workloads::tiled_triples(5_000, 100);
    let dir = std::env::temp_dir().join(format!("wodex_e5_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("e5.seg");
    let meta = wodex_seg::format::write_spo_segment(&path, BLOCK_TRIPLES, &triples)
        .expect("segment write");
    let _ = writeln!(
        out,
        "  {} triples in {} SPO blocks of {BLOCK_TRIPLES} triples ({} KiB decoded)",
        meta.triples,
        meta.sections[0].len(),
        triples.len() * 12 / 1024
    );
    for &cache_kib in &[128usize, 1024, 16 * 1024] {
        let mut seg = Segment::open(&path).expect("segment open");
        let cache = Arc::new(BlockCache::new(cache_kib << 10));
        seg.set_block_cache(Some(Arc::clone(&cache)));
        let before = seg.backend().reads();
        for s in 2000..=2020 {
            // ~0.4% window
            seg.scan_keys(Pattern::any().with_s(TermId(s)))
                .expect("fault-free scan");
        }
        let window_reads = seg.backend().reads() - before;
        let before = seg.backend().reads();
        seg.scan_chunks(Pattern::any(), &mut |_| true)
            .expect("fault-free scan");
        let full_reads = seg.backend().reads() - before;
        let _ = writeln!(
            out,
            "  cache={cache_kib:>5} KiB: window scan {window_reads} reads, full scan {full_reads} reads, {} KiB resident",
            cache.resident_bytes() / 1024
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// E6 — momentum prefetching under pan/zoom traces.
pub fn e6_prefetch() -> String {
    let mut out = String::from("E6  prefetching: demand hit-rate on exploration traces\n");
    // A pan trace with occasional direction changes.
    let mut trace: Vec<(i64, i64)> = Vec::new();
    let mut pos = (0i64, 0i64);
    for step in 0..200 {
        let dir = match (step / 40) % 3 {
            0 => (1, 0),
            1 => (0, 1),
            _ => (1, 1),
        };
        pos = (pos.0 + dir.0, pos.1 + dir.1);
        trace.push(pos);
    }
    for &depth in &[0usize, 1, 2, 4] {
        let mut pf: TilePrefetcher<u64> = TilePrefetcher::new(256, depth);
        let mut fetches = 0u64;
        for &t in &trace {
            pf.request(t, |_| {
                fetches += 1;
                0
            });
        }
        let s = pf.stats();
        let _ = writeln!(
            out,
            "  depth={depth}: hit-rate {:.0}%  ({} demand misses, {} speculative loads)",
            s.hit_ratio() * 100.0,
            s.demand_misses,
            s.prefetched
        );
    }
    out
}

/// E7 — HETree: bulk vs incremental (ICO) construction.
pub fn e7_hetree() -> String {
    let mut out = String::from("E7  HETree: bulk vs ICO incremental construction\n");
    for &n in &[100_000usize, 1_000_000] {
        let col = workloads::column(Shape::Normal, n);
        let items: Vec<(f64, u64)> = col
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();
        let (bulk, t_bulk) = timed(|| HETree::build(items.clone(), Variant::ContentBased, 4, 100));
        let ((nodes, t_ico), _) = timed(|| {
            timed(|| {
                let mut t = HETree::new(items.clone(), Variant::ContentBased, 4, 100);
                // One drill-down path, as a user would explore.
                t.locate(500.0);
                t.node_count()
            })
        });
        let _ = writeln!(
            out,
            "  n={n:>9}: bulk {} nodes in {} | ICO drill-down {} nodes in {}",
            bulk.node_count(),
            fmt_duration(t_bulk),
            nodes,
            fmt_duration(t_ico)
        );
    }
    out
}

/// E8 — layout scalability: flat FR vs multilevel vs hierarchy overview.
pub fn e8_layout() -> String {
    let mut out = String::from("E8  graph layout cost (BA graphs, m=3)\n");
    for &n in &[500usize, 2_000, 8_000] {
        let g = workloads::ba_graph(n);
        let params = FrParams {
            iterations: 30,
            ..Default::default()
        };
        let (flat, t_flat) = timed(|| layout::fruchterman_reingold(&g, params));
        let (multi, t_multi) = timed(|| wodex_graph::coarsen::multilevel_layout(&g, params, 100));
        let (hier, t_hier) =
            timed(|| wodex_graph::hierarchy::AbstractionHierarchy::build(g.clone(), 12, 1));
        let _ = writeln!(
            out,
            "  n={n:>5}: flat FR {} | multilevel {} | hierarchy({} supernodes) {}",
            fmt_duration(t_flat),
            fmt_duration(t_multi),
            hier.level_size(hier.levels() - 1),
            fmt_duration(t_hier)
        );
        let _ = writeln!(
            out,
            "          edge-length quality: flat {:.0}, multilevel {:.0}",
            flat.total_edge_length(&g),
            multi.total_edge_length(&g)
        );
    }
    out
}

/// E9 — edge bundling: ink reduction vs cost.
pub fn e9_bundling() -> String {
    let mut out = String::from("E9  edge bundling: midpoint-gap reduction (parallel fan)\n");
    let edges: Vec<_> = (0..60)
        .map(|i| {
            let y = i as f32 * 3.0;
            (
                wodex_graph::layout::Point::new(0.0, y),
                wodex_graph::layout::Point::new(300.0, y + 10.0),
            )
        })
        .collect();
    for &cycles in &[1usize, 3, 5] {
        let params = wodex_graph::bundling::BundleParams {
            cycles,
            ..Default::default()
        };
        let (paths, t) = timed(|| wodex_graph::bundling::bundle(&edges, params));
        let gap = wodex_graph::bundling::mean_pairwise_midpoint_gap(&paths);
        let ink = wodex_graph::bundling::total_ink(&paths);
        let _ = writeln!(
            out,
            "  cycles={cycles}: mean midpoint gap {gap:.1}, ink {ink:.0}, in {}",
            fmt_duration(t)
        );
    }
    out
}

/// E10 — viewport windowing over a spatial index.
pub fn e10_window() -> String {
    let mut out = String::from("E10 spatial windowing: result-bounded access (100k nodes)\n");
    let g = workloads::ba_graph(5_000);
    let mut lay = layout::random(100_000, 10_000.0, 5);
    // Make positions vaguely clustered for realism.
    let _ = &g;
    lay.normalize(10_000.0, 10_000.0);
    let qt = QuadTree::from_layout(&lay);
    for &frac in &[0.01f32, 0.05, 0.25, 1.0] {
        let side = 10_000.0 * frac.sqrt();
        let window = Rect::new(100.0, 100.0, 100.0 + side, 100.0 + side);
        let ((hits, visited), t) = timed(|| qt.query(&window));
        let _ = writeln!(
            out,
            "  window={:>3.0}% of extent: {:>6} hits, {:>5} tree nodes visited, {}",
            frac * 100.0,
            hits.len(),
            visited,
            fmt_duration(t)
        );
    }
    out
}

/// E11 — graph sampling preserves degree-distribution shape.
pub fn e11_gsample() -> String {
    let mut out = String::from("E11 graph sampling at 10%: degree CCDF shape (BA, n=20k)\n");
    let g = workloads::ba_graph(20_000);
    let at = [1usize, 2, 4, 8, 16, 32];
    let orig = wodex_graph::sample::degree_ccdf(&g, &at);
    let _ = writeln!(out, "  original : {}", fmt_ccdf(&orig));
    let ns = wodex_graph::sample::node_sample(&g, 0.1, 1);
    let es = wodex_graph::sample::edge_sample(&g, 0.1, 1);
    let ff = wodex_graph::sample::forest_fire(&g, 0.1, 0.6, 1);
    for (name, s) in [("node", &ns), ("edge", &es), ("fire", &ff)] {
        let ccdf = wodex_graph::sample::degree_ccdf(&s.graph, &at);
        let _ = writeln!(
            out,
            "  {name:<9}: {}  ({} nodes, {} edges)",
            fmt_ccdf(&ccdf),
            s.graph.node_count(),
            s.graph.edge_count()
        );
    }
    out
}

fn fmt_ccdf(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// E12 — recommendation: the data-type → chart-type mapping.
pub fn e12_recommend() -> String {
    let mut out =
        String::from("E12 recommendation over the DBpedia-like dataset (top pick per property)\n");
    let store = wodex_store::TripleStore::from_graph(&workloads::dbpedia_graph(500));
    let pipeline = wodex_viz::ldvm::LdvmPipeline::new(store);
    for pred in [
        "http://dbp.example.org/ontology/population",
        "http://dbp.example.org/ontology/foundingDate",
        "http://www.w3.org/2003/01/geo/wgs84_pos#lat",
        "http://dbp.example.org/ontology/linksTo",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    ] {
        let a = pipeline.analyze_property(pred);
        let recs = pipeline.recommendations(&a);
        let top = &recs[0];
        let _ = writeln!(
            out,
            "  {:<55} → {:<18} ({:.2}: {})",
            wodex_rdf::vocab::abbreviate(pred),
            top.kind.name(),
            top.score,
            top.reason
        );
    }
    out
}

/// E13 — exploration ops: one index build per dataset, then per-click
/// costs that do not depend on dataset size.
pub fn e13_explore() -> String {
    /// The median time of five calls (the first call after a build pays
    /// the allocator for the freed graph, not the operation).
    fn median_of_5<T>(mut f: impl FnMut() -> T) -> (T, std::time::Duration) {
        let mut runs: Vec<(T, std::time::Duration)> = (0..5).map(|_| timed(&mut f)).collect();
        runs.sort_by_key(|r| r.1);
        runs.swap_remove(2)
    }
    let mut out = String::from("E13 exploration ops on DBpedia-like graphs\n");
    for &entities in &[1_000usize, 5_000] {
        let graph = workloads::dbpedia_graph(entities);
        let triples = graph.len();
        let (mut session, t_build) =
            timed(|| wodex_explore::session::ExplorationSession::new(graph));
        let (_, t_open) =
            timed(|| wodex_explore::session::ExplorationSession::over(session.index().clone()));
        let (ov, t_ov) = median_of_5(|| session.overview());
        let (hits, t_search) = median_of_5(|| session.search_preview("city", 20));
        let (counts, t_facet) = median_of_5(|| {
            session
                .facets()
                .counts("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        });
        let (_, t_zoom) = median_of_5(|| {
            session.zoom("http://dbp.example.org/ontology/population", 1e3, 1e6);
            session.undo()
        });
        let _ = writeln!(
            out,
            "  {entities:>5} entities ({triples} triples): index build {} | open {} | overview({}) {} | search({} hits) {} | facet({} values) {} | zoom+undo {}",
            fmt_duration(t_build),
            fmt_duration(t_open),
            ov.len(),
            fmt_duration(t_ov),
            hits.len(),
            fmt_duration(t_search),
            counts.len(),
            fmt_duration(t_facet),
            fmt_duration(t_zoom)
        );
    }
    out
}

/// E14 — SPARQL joins scale with selectivity, not dataset size.
pub fn e14_sparql() -> String {
    let mut out = String::from("E14 SPARQL-subset engine: selective vs unselective queries\n");
    for &entities in &[1_000usize, 10_000] {
        let store = workloads::dbpedia_store(entities);
        let selective = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             SELECT ?s ?p WHERE { ?s dbo:population ?p FILTER(?p > 1000000) } LIMIT 20";
        let join = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
             SELECT ?a ?b WHERE { ?a dbo:linksTo ?b . ?b rdf:type dbo:City } LIMIT 50";
        let aggregate = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
             SELECT ?c (COUNT(*) AS ?n) (AVG(?p) AS ?avg) WHERE {\n\
               ?s rdf:type ?c . ?s dbo:population ?p } GROUP BY ?c";
        for (name, q) in [
            ("filter+limit", selective),
            ("join+limit", join),
            ("group-by", aggregate),
        ] {
            let (r, t) = timed(|| wodex_sparql::query(&store, q).expect("valid query"));
            let rows = r.table().map(|t| t.len()).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {entities:>6} entities ({:>7} triples) {name:<12}: {rows:>4} rows in {}",
                store.len(),
                fmt_duration(t)
            );
        }
    }
    out
}

/// E15 — streaming ingest: the log-structured tail keeps per-triple
/// insert cost amortized-constant while queries stay correct mid-stream.
pub fn e15_streaming() -> String {
    let mut out = String::from(
        "E15 streaming ingest into the indexed store (100k triples, queries interleaved)\n",
    );
    let graph = workloads::dbpedia_graph(10_000);
    let triples: Vec<wodex_rdf::Triple> = graph.iter().cloned().collect();
    let label = wodex_rdf::Term::iri(wodex_rdf::vocab::rdfs::LABEL);
    for &tail_limit in &[256usize, 16 * 1024, usize::MAX / 2] {
        let mut store = wodex_store::TripleStore::with_tail_limit(tail_limit);
        let (_, t_ingest) = timed(|| {
            for t in &triples {
                store.insert(t);
            }
        });
        // Interleaved query correctness + cost on the half-merged store.
        let p = store.id_of(&label).expect("labels present");
        let (n, t_query) = timed(|| store.count_pattern(wodex_store::Pattern::any().with_p(p)));
        let tail_str = if tail_limit > 1 << 30 {
            "∞ (never merge)".to_string()
        } else {
            format!("{tail_limit}")
        };
        let _ = writeln!(
            out,
            "  tail limit {tail_str:>16}: ingest {} ({} triples), label query {n} rows in {} (tail {} unsorted)",
            fmt_duration(t_ingest),
            store.len(),
            fmt_duration(t_query),
            store.tail_len()
        );
    }
    let _ = writeln!(
        out,
        "  (bulk baseline: from_graph {} )",
        fmt_duration(timed(|| wodex_store::TripleStore::from_graph(&graph)).1)
    );
    out
}

/// Runs every experiment, concatenating the reports.
pub fn run_all() -> String {
    let experiments: Vec<fn() -> String> = vec![
        e1_sampling,
        e2_aggregation,
        e3_progressive,
        e4_cracking,
        e5_disk,
        e6_prefetch,
        e7_hetree,
        e8_layout,
        e9_bundling,
        e10_window,
        e11_gsample,
        e12_recommend,
        e13_explore,
        e14_sparql,
        e15_streaming,
    ];
    let mut out = String::new();
    for e in experiments {
        out.push_str(&e());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    // Smoke tests on the cheap experiments (the expensive ones run via
    // the repro binary / criterion).
    #[test]
    fn e6_report_shows_improvement() {
        let r = super::e6_prefetch();
        assert!(r.contains("depth=0"));
        assert!(r.contains("depth=4"));
    }

    #[test]
    fn e12_maps_each_datatype() {
        let r = super::e12_recommend();
        assert!(r.contains("histogram"));
        assert!(r.contains("line chart"));
        assert!(r.contains("map"));
        assert!(r.contains("node-link"));
        assert!(r.contains("bar chart"));
    }

    #[test]
    fn e9_gap_shrinks_with_cycles() {
        let r = super::e9_bundling();
        assert!(r.contains("cycles=1"));
        assert!(r.contains("cycles=5"));
    }
}
