//! Segment-store equivalence: the PR 8 correctness contract.
//!
//! A dataset bulk-loaded into a persistent `wodex-seg` store and opened
//! as a [`TripleStore`] base must be *indistinguishable* from the same
//! dataset held in memory — for every query engine the workspace has
//! grown (greedy reference, cost-based pairwise planner, worst-case-
//! optimal multiway join), at every thread count. Row order is not part
//! of the contract, so results compare as sorted multisets of decoded
//! terms (the two stores assign different dictionary ids).
//!
//! The suite also pins the bulk loader's bounded-memory claim: a load
//! whose memory cap is far below the dataset size must spill ≥ 2 sorted
//! runs (observable through the `wodex_seg_runs_spilled` metric) and
//! still produce the exact triple set.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{cyclic_store, sorted_rows, Engine, CYCLIC_CORPUS};
use wodex::exec::with_thread_override;
use wodex::rdf::{ntriples, Graph};
use wodex::seg::{load_ntriples, LoadConfig, SegmentStore};
use wodex::sparql::{Budget, QueryResult};
use wodex::store::{Pattern, TripleStore};
use wodex::synth::dbpedia::{self, DbpediaConfig};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wodex_seg_it_{}_{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decodes a store back to a presentation [`Graph`].
fn graph_of(store: &TripleStore) -> Graph {
    store
        .match_pattern(Pattern::any())
        .into_iter()
        .map(|t| store.decode(t))
        .collect()
}

/// Round-trips `store` through the persistent path: serialize to
/// N-Triples, bulk-load into `dir`, re-open as a seg-backed store.
fn seg_twin(store: &TripleStore, dir: &Path, cfg: &LoadConfig) -> TripleStore {
    let nt = ntriples::serialize(&graph_of(store));
    load_ntriples(nt.as_bytes(), dir, cfg).expect("bulk load");
    let (dict, segs) = SegmentStore::open(dir).expect("open segment store");
    TripleStore::with_base(dict, Arc::new(segs))
}

fn run(store: &TripleStore, text: &str, engine: Engine) -> QueryResult {
    common::run(store, text, &Budget::unlimited(), engine).result
}

/// Star/chain/optional/aggregate corpus over the DBpedia-shaped synth
/// vocabulary — exercises merge, hash, and nested-loop joins.
const DBP_CORPUS: &[&str] = &[
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p WHERE { ?s a dbo:City . ?s dbo:population ?p }",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
     SELECT ?s ?p ?l WHERE { ?s a dbo:City . ?s dbo:population ?p . \
     ?s rdfs:label ?l FILTER(?p > 1000) }",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?a ?b WHERE { ?a dbo:linksTo ?b . ?b dbo:population ?p \
     FILTER(?p >= 0) }",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT ?s ?p ?b WHERE { ?s a dbo:City . ?s dbo:population ?p \
     OPTIONAL { ?s dbo:linksTo ?b } }",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT (COUNT(*) AS ?n) (AVG(?p) AS ?avg) WHERE { \
     ?s a dbo:City . ?s dbo:population ?p }",
    "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
     SELECT DISTINCT ?t WHERE { ?a dbo:linksTo ?b . ?a a ?t }",
];

#[test]
fn all_three_engines_agree_on_seg_and_mem_at_one_and_four_threads() {
    let workloads: Vec<(&str, TripleStore, &[&str])> = vec![
        (
            "dbpedia",
            TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
                entities: 300,
                seed: 42,
                ..Default::default()
            })),
            DBP_CORPUS,
        ),
        // The triangles and the square: enough to route a segment-backed
        // store through the multiway join.
        ("cyclic", cyclic_store(150, 600, 9), &CYCLIC_CORPUS[..3]),
    ];
    for (wname, mem, corpus) in &workloads {
        let dir = tmpdir(&format!("parity_{wname}"));
        // Small blocks/segments so multi-block and multi-segment scan
        // paths are actually exercised, not just the single-block case.
        let seg = seg_twin(
            mem,
            &dir,
            &LoadConfig {
                block_triples: 64,
                segment_max_triples: 512,
                ..LoadConfig::default()
            },
        );
        assert_eq!(
            mem.match_pattern(Pattern::any()).len(),
            seg.match_pattern(Pattern::any()).len(),
            "{wname}: seg round-trip changed the triple count"
        );
        for threads in [1usize, 4] {
            with_thread_override(threads, || {
                for q in *corpus {
                    for engine in Engine::ALL {
                        let want = sorted_rows(&run(mem, q, engine));
                        let got = sorted_rows(&run(&seg, q, engine));
                        assert_eq!(
                            want, got,
                            "{wname}/{engine:?} differs on seg at {threads} thread(s) for:\n{q}"
                        );
                    }
                }
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Agreeing with each other is not being right: over a segment-backed
/// store, too, every engine answers what the brute-force oracle answers.
#[test]
fn every_engine_agrees_with_the_oracle_over_segments() {
    let mem = TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities: 300,
        seed: 42,
        ..Default::default()
    }));
    let dir = tmpdir("oracle");
    let seg = seg_twin(
        &mem,
        &dir,
        &LoadConfig {
            block_triples: 64,
            segment_max_triples: 512,
            ..LoadConfig::default()
        },
    );
    // Everything but the aggregate row is inside the oracle's subset.
    assert_eq!(
        common::engines_agree_with_the_oracle(&seg, DBP_CORPUS),
        DBP_CORPUS.len() - 1
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bulk_load_spills_runs_under_a_tight_memory_cap_and_stays_exact() {
    let mem = TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities: 600,
        seed: 7,
        ..Default::default()
    }));
    let nt = ntriples::serialize(&graph_of(&mem));
    let dir = tmpdir("spill");
    let spilled_before = wodex::seg::metrics().runs_spilled.get();
    // Cap far below the dataset: the sort must go external.
    let report = load_ntriples(
        nt.as_bytes(),
        &dir,
        &LoadConfig {
            mem_cap_bytes: 8 * 1024,
            ..LoadConfig::default()
        },
    )
    .expect("bulk load");
    assert!(
        report.runs_spilled >= 2,
        "an 8 KiB cap must force ≥2 sorted runs, got {}",
        report.runs_spilled
    );
    assert!(
        wodex::seg::metrics().runs_spilled.get() >= spilled_before + 2,
        "spills must be observable via wodex_seg_runs_spilled"
    );
    assert!(report.bytes_read as usize >= nt.len());

    let (dict, segs) = SegmentStore::open(&dir).expect("open");
    let seg = TripleStore::with_base(dict, Arc::new(segs));
    let mut want: Vec<String> = graph_of(&mem).iter().map(|t| format!("{t:?}")).collect();
    let mut got: Vec<String> = graph_of(&seg).iter().map(|t| format!("{t:?}")).collect();
    want.sort();
    got.sort();
    assert_eq!(want, got, "external sort changed the triple set");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_preserves_answers_under_query_load() {
    let mem = TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities: 200,
        seed: 11,
        ..Default::default()
    }));
    let dir = tmpdir("compact_parity");
    // Many tiny segments at level 0 → several compaction rounds.
    let seg = seg_twin(
        &mem,
        &dir,
        &LoadConfig {
            segment_max_triples: 128,
            ..LoadConfig::default()
        },
    );
    let q = DBP_CORPUS[0];
    let want = sorted_rows(&run(&mem, q, Engine::default()));
    let stop = std::sync::atomic::AtomicBool::new(false);
    loop {
        let outcome = wodex::seg::compact_once(&dir, &wodex::seg::CompactOpts::default(), &stop)
            .expect("compaction");
        // A reader opened before the merge keeps answering correctly:
        // its segment files are unlinked, not truncated.
        assert_eq!(
            want,
            sorted_rows(&run(&seg, q, Engine::default())),
            "pre-compaction reader drifted"
        );
        if matches!(outcome, wodex::seg::CompactOutcome::Idle) {
            break;
        }
    }
    // A fresh open of the compacted store answers identically too.
    let (dict, segs) = SegmentStore::open(&dir).expect("re-open");
    let fresh = TripleStore::with_base(dict, Arc::new(segs));
    assert_eq!(want, sorted_rows(&run(&fresh, q, Engine::default())));
    std::fs::remove_dir_all(&dir).ok();
}

/// The dictionary sidecar front-codes on bytes, so two consecutive terms
/// may share *part* of a multi-byte character. Such a load must open
/// again: `"café"` then `"cafè"` (C3 A9 / C3 A8) used to write a store
/// every later `SegmentStore::open` refused with "entry 3 not UTF-8".
#[test]
fn a_loaded_store_opens_when_neighbouring_terms_split_a_character() {
    // Objects of consecutive lines are consecutive dictionary entries
    // only if nothing new is interned between them, so every line reuses
    // the first line's subject and predicate.
    let neighbours = [
        ("café", "cafè"),   // 2-byte: C3 A9 / C3 A8
        ("中", "丁"),       // 3-byte: E4 B8 AD / E4 B8 81
        ("😀", "😁"),       // 4-byte: F0 9F 98 80 / F0 9F 98 81
        ("naïve", "naîve"), // the split falls mid-word
    ];
    let nt: String = neighbours
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|label| format!("<http://e.org/s> <http://e.org/label> \"{label}\" .\n"))
        .collect();
    let dir = tmpdir("utf8_neighbours");
    let report = load_ntriples(nt.as_bytes(), &dir, &LoadConfig::default()).expect("bulk load");
    assert_eq!(report.triples, 2 * neighbours.len());
    let (dict, segs) = SegmentStore::open(&dir).expect("a store the loader wrote must open");
    let seg = TripleStore::with_base(dict, Arc::new(segs));
    assert_eq!(graph_of(&seg), ntriples::parse(&nt).expect("parses"));
    std::fs::remove_dir_all(&dir).ok();
}
