//! The survey's scalability contracts, checked as invariants: output and
//! memory bounded by display/budget quantities, work bounded by what the
//! user explores.

use std::sync::Arc;
use wodex::approx::binning::{BinningStrategy, Histogram};
use wodex::graph::adjacency::Adjacency;
use wodex::graph::hierarchy::{AbstractionHierarchy, HierarchyView};
use wodex::graph::spatial::{QuadTree, Rect};
use wodex::hetree::{HETree, Variant};
use wodex::rdf::TermId;
use wodex::seg::format::write_spo_segment;
use wodex::seg::{BlockCache, Segment, SegmentFileBackend};
use wodex::store::{PageBackend, Pattern, SegmentSource};
use wodex::synth::netgen;
use wodex::synth::values::{column, Shape};

#[test]
fn histogram_size_is_display_bounded() {
    for n in [1_000usize, 100_000] {
        let col = column(Shape::Zipf, n, 1);
        let h = Histogram::build(&col, 48, BinningStrategy::EqualFrequency);
        assert!(h.bins.len() <= 48);
        assert_eq!(h.total(), n);
    }
}

/// `n` triples, ten per subject, written as one segment of 512-triple
/// blocks behind a private decoded-block cache of `cache_bytes`.
fn segment(n: u32, cache_bytes: usize) -> (Segment<SegmentFileBackend>, Arc<BlockCache>) {
    let spo: Vec<[u32; 3]> = (0..n).map(|i| [i / 10, 0, i]).collect();
    let dir = std::env::temp_dir().join(format!("wodex_scal_{n}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("s.seg");
    write_spo_segment(&path, 512, &spo).expect("segment write");
    let mut seg = Segment::open(&path).expect("segment open");
    // The open handle outlives the directory entry.
    std::fs::remove_dir_all(&dir).ok();
    let cache = Arc::new(BlockCache::new(cache_bytes));
    seg.set_block_cache(Some(Arc::clone(&cache)));
    (seg, cache)
}

/// All triples of subjects `lo..=hi`, one subject-bound scan each.
fn scan_subjects(seg: &Segment<SegmentFileBackend>, lo: u32, hi: u32) -> usize {
    (lo..=hi)
        .map(|s| {
            let pat = Pattern::any().with_s(TermId(s));
            seg.scan_keys(pat).expect("fault-free scan").len()
        })
        .sum()
}

#[test]
fn segment_memory_is_cache_bounded() {
    // 200k triples (2.4 MB decoded per section), a 128 KiB cache:
    // resident memory never exceeds the cache whatever the access
    // pattern.
    const CAPACITY: usize = 128 << 10;
    let (seg, cache) = segment(200_000, CAPACITY);
    assert!(seg.len() * 12 > CAPACITY * 10, "dataset ≫ cache");
    let mut seen = 0;
    seg.scan_chunks(Pattern::any(), &mut |chunk| {
        seen += chunk.len();
        true
    })
    .expect("fault-free scan");
    assert_eq!(seen, 200_000);
    let resident = cache.resident_bytes();
    assert!(resident > 0 && resident <= CAPACITY, "{resident} bytes");
    assert_eq!(scan_subjects(&seg, 100, 5000), 49_010);
    assert!(cache.resident_bytes() <= CAPACITY);
}

#[test]
fn windowed_io_is_result_bounded_not_data_bounded() {
    let reads_for = |n: u32| {
        let (seg, _cache) = segment(n, 128 << 10);
        assert_eq!(scan_subjects(&seg, 1000, 1050), 510);
        seg.backend().reads()
    };
    let r_small = reads_for(50_000);
    let r_large = reads_for(500_000);
    // Same window, 10× the data: the zone-mapped directory keeps reads
    // from growing with data size.
    assert!(r_small >= 1);
    assert!(
        r_large <= r_small + 1,
        "window reads grew with dataset: {r_small} -> {r_large}"
    );
}

#[test]
fn hetree_ico_work_tracks_exploration_depth() {
    let items: Vec<(f64, u64)> = column(Shape::Normal, 200_000, 2)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();
    let mut t = HETree::new(items, Variant::ContentBased, 4, 100);
    let n0 = t.node_count();
    t.locate(500.0); // one drill path
    let after_one = t.node_count();
    t.locate(510.0); // mostly the same path
    let after_two = t.node_count();
    assert_eq!(n0, 1);
    // One path in a degree-4 tree of 200k/100 leaves: depth ≈ log4(2000) ≈ 6,
    // so ~6 expansions × 4 children ≈ 25 nodes.
    assert!(after_one < 50, "one path materialized {after_one} nodes");
    assert!(
        after_two - after_one <= after_one,
        "a nearby drill must reuse the path"
    );
}

#[test]
fn hierarchy_overview_is_constant_size_while_base_grows() {
    for n in [2_000usize, 10_000] {
        let el = netgen::barabasi_albert(n, 3, 5);
        let g = Adjacency::from_edges(el.nodes, &el.edges);
        let h = AbstractionHierarchy::build(g, 12, 1);
        let view = HierarchyView::new(&h);
        assert!(
            view.visible().len() <= 24,
            "overview of n={n} graph has {} elements",
            view.visible().len()
        );
    }
}

#[test]
fn quadtree_visits_scale_with_window_not_extent() {
    let lay = wodex::graph::layout::random(50_000, 1_000.0, 3);
    let qt = QuadTree::from_layout(&lay);
    let (_, tiny) = qt.query(&Rect::new(0.0, 0.0, 10.0, 10.0));
    let (_, huge) = qt.query(&Rect::new(0.0, 0.0, 1_000.0, 1_000.0));
    assert!(tiny * 20 < huge, "tiny window visited {tiny}, full {huge}");
}

#[test]
fn m4_line_chart_never_exceeds_four_points_per_pixel() {
    let pts: Vec<(f64, f64)> = (0..500_000)
        .map(|i| (i as f64, ((i * 37) % 1000) as f64))
        .collect();
    let ds = wodex::viz::charts::m4_downsample(&pts, 800);
    assert!(ds.len() <= 800 * 4);
    // The envelope (global min/max) must survive.
    let max = ds.iter().map(|&(_, y)| y).fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(max, 999.0);
}
