//! Shared workload construction for the experiments.

use wodex_graph::adjacency::Adjacency;
use wodex_store::encoded::EncodedTriple;
use wodex_store::TripleStore;
use wodex_synth::dbpedia::{self, DbpediaConfig};
use wodex_synth::netgen;

/// A numeric column of the given shape and size (seeded).
pub fn column(shape: wodex_synth::values::Shape, n: usize) -> Vec<f64> {
    wodex_synth::values::column(shape, n, 0xBEEF)
}

/// A Barabási–Albert adjacency with `n` nodes.
pub fn ba_graph(n: usize) -> Adjacency {
    let el = netgen::barabasi_albert(n, 3, 0xCAFE);
    Adjacency::from_edges(el.nodes, &el.edges)
}

/// A DBpedia-like store with `entities` entities.
pub fn dbpedia_store(entities: usize) -> TripleStore {
    TripleStore::from_graph(&dbpedia_graph(entities))
}

/// A DBpedia-like graph with `entities` entities.
pub fn dbpedia_graph(entities: usize) -> wodex_rdf::Graph {
    dbpedia::generate(&DbpediaConfig {
        entities,
        ..Default::default()
    })
}

/// Sorted encoded triples shaped like a laid-out graph partitioned into
/// spatial tiles: subject = tile id, object = node id — the disk layout
/// of a graphVizdb-style store (E5/E10).
pub fn tiled_triples(tiles: u32, per_tile: u32) -> Vec<EncodedTriple> {
    let mut out = Vec::with_capacity((tiles * per_tile) as usize);
    for t in 0..tiles {
        for i in 0..per_tile {
            out.push([t, 0, t * per_tile + i]);
        }
    }
    out
}

/// A zooming range-query sequence over `[0, 1000)`: each query halves the
/// previous window around its center (exploration locality for E4/E6).
pub fn zoom_sequence(steps: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(steps);
    let (mut lo, mut hi) = (0.0f64, 1000.0f64);
    for _ in 0..steps {
        out.push((lo, hi));
        let mid = (lo + hi) / 2.0;
        let q = (hi - lo) / 4.0;
        lo = mid - q;
        hi = mid + q;
    }
    out
}

/// A uniformly random range-query sequence over `[0, 1000)` (the
/// no-locality control for E4).
pub fn random_ranges(steps: usize, seed: u64) -> Vec<(f64, f64)> {
    use wodex_synth::rng::Rng;
    let mut rng = wodex_synth::rng(seed);
    (0..steps)
        .map(|_| {
            let a: f64 = rng.random_range(0.0..990.0);
            let w: f64 = rng.random_range(1.0..(1000.0 - a));
            (a, a + w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_sizes() {
        assert_eq!(column(wodex_synth::values::Shape::Uniform, 100).len(), 100);
        assert_eq!(ba_graph(100).node_count(), 100);
        assert!(dbpedia_store(50).len() > 200);
        assert_eq!(tiled_triples(10, 5).len(), 50);
    }

    #[test]
    fn zoom_sequence_nests() {
        let seq = zoom_sequence(5);
        for w in seq.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 <= w[0].1, "must nest: {w:?}");
        }
    }

    #[test]
    fn random_ranges_are_valid() {
        for (lo, hi) in random_ranges(50, 1) {
            assert!(lo < hi && lo >= 0.0 && hi <= 1000.0);
        }
    }

    #[test]
    fn tiled_triples_are_sorted() {
        let t = tiled_triples(20, 10);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
    }
}
