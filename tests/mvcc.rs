//! Differential MVCC snapshot-isolation suite.
//!
//! A seeded writer thread commits a deterministic batch stream to a
//! [`LiveStore`] while reader threads continuously pin snapshots and
//! evaluate SPARQL queries against them. The oracle is a **serial
//! replay**: the same batch stream applied to an identical store with
//! no concurrency, yielding one frozen store per revision. Every
//! reader's answer must be *bit-identical* (`QueryResult::to_json`)
//! to the oracle's answer at the reader's pinned revision — under the
//! greedy, pairwise, and worst-case-optimal engines alike, at 1 and 4
//! reader threads.
//!
//! Seeded like `chaos.rs`: set `WODEX_FAULT_SEED=<n>` to reproduce a
//! sweep (`scripts/verify.sh` runs three seeds).

mod common;

use common::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wodex::rdf::{Graph, Term, Triple};
use wodex::sparql::{Budget, QueryTrace};
use wodex::store::{LiveStore, Snapshot, TripleStore, WriteBatch};
use wodex::synth::rng::{Rng, SeedableRng, StdRng};

/// Base seed for the sweep; override with `WODEX_FAULT_SEED=<n>`.
fn base_seed() -> u64 {
    std::env::var("WODEX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Commits per differential run.
const COMMITS: usize = 30;

/// Operations drawn per batch (inserts and deletes each).
const BATCH_OPS: usize = 4;

const SUBJECTS: u64 = 24;
const VALUES: u64 = 12;

fn iri(kind: &str, i: u64) -> Term {
    Term::iri(format!("http://ex.org/mvcc/{kind}{i}"))
}

/// The closed triple universe the workload samples from: literal-valued
/// attributes on three predicates plus IRI-valued `link0` edges (so the
/// cyclic query below has joins to chase).
fn universe() -> Vec<Triple> {
    let mut ts = Vec::new();
    for s in 0..SUBJECTS {
        for v in 0..VALUES {
            ts.push(Triple::new(
                iri("s", s),
                iri("p", v % 3),
                Term::literal(format!("v{v}")),
            ));
        }
        ts.push(Triple::new(
            iri("s", s),
            iri("link", 0),
            iri("s", (s + 1) % SUBJECTS),
        ));
        ts.push(Triple::new(
            iri("s", s),
            iri("link", 0),
            iri("s", (s + 7) % SUBJECTS),
        ));
    }
    ts
}

/// The deterministic batch stream for one seed: each batch samples a
/// handful of universe triples to delete and to insert.
fn batches(seed: u64) -> Vec<(Vec<Triple>, Vec<Triple>)> {
    let u = universe();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..COMMITS)
        .map(|_| {
            let mut pick = |n: usize| -> Vec<Triple> {
                (0..n)
                    .map(|_| u[rng.random_range(0..u.len())].clone())
                    .collect()
            };
            let deletes = pick(BATCH_OPS);
            let inserts = pick(BATCH_OPS);
            (inserts, deletes)
        })
        .collect()
}

/// The seed dataset: a deterministic half of the universe.
fn initial(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    universe()
        .into_iter()
        .filter(|_| rng.random_range(0..2u32) == 0)
        .collect()
}

fn batch_of(ops: &(Vec<Triple>, Vec<Triple>)) -> WriteBatch {
    let mut b = WriteBatch::new();
    for t in &ops.1 {
        b.delete(t.clone());
    }
    for t in &ops.0 {
        b.insert(t.clone());
    }
    b
}

const QUERIES: [&str; 3] = [
    "SELECT ?s ?o WHERE { ?s <http://ex.org/mvcc/p0> ?o }",
    "SELECT ?s ?a ?b WHERE { ?s <http://ex.org/mvcc/p0> ?a . \
     ?s <http://ex.org/mvcc/p1> ?b }",
    "SELECT ?a ?b ?c WHERE { ?a <http://ex.org/mvcc/link0> ?b . \
     ?b <http://ex.org/mvcc/link0> ?c . ?a <http://ex.org/mvcc/link0> ?c }",
];

fn eval(store: &TripleStore, query: &str, engine: Engine) -> String {
    let b = wodex::sparql::query_traced_with(
        store,
        query,
        &Budget::unlimited(),
        &QueryTrace::disabled(),
        engine,
    )
    .expect("query evaluates");
    assert!(b.degraded.is_none(), "unlimited budget never degrades");
    b.result.to_json()
}

/// Serially replays the batch stream on an identical store, returning
/// the frozen snapshot at every revision (`index == revision`). Both
/// stores start from the same graph and intern terms in the same order,
/// so the oracle's dictionary — and therefore its serialized answers —
/// are bit-identical to the live store's at the same revision.
fn serial_replay(seed: u64, ops: &[(Vec<Triple>, Vec<Triple>)]) -> Vec<Snapshot> {
    let replay = LiveStore::new(TripleStore::from_graph(&initial(seed)));
    let mut snaps = vec![replay.snapshot()];
    for op in ops {
        let out = replay.commit(&batch_of(op)).expect("serial replay commit");
        if out.snapshot.revision() == snaps.len() as u64 {
            snaps.push(out.snapshot);
        }
    }
    snaps
}

/// The differential harness: concurrent readers vs. the serial oracle.
fn run_differential(seed: u64, readers: usize) {
    let ops = batches(seed);
    let oracle = serial_replay(seed, &ops);
    let live = Arc::new(LiveStore::new(TripleStore::from_graph(&initial(seed))));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let live_w = Arc::clone(&live);
        let done = &done;
        let ops = &ops;
        let oracle = &oracle;
        scope.spawn(move || {
            for op in ops {
                live_w.commit(&batch_of(op)).expect("concurrent commit");
                // A short pause lets readers interleave with distinct
                // revisions instead of racing past the whole stream.
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            done.store(true, Ordering::SeqCst);
        });
        for r in 0..readers {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + r as u64));
                let mut checks = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = live.snapshot();
                    let rev = snap.revision() as usize;
                    let pinned = &oracle[rev];
                    assert_eq!(pinned.revision(), snap.revision());
                    // One query/engine pair per iteration keeps each
                    // pin short, maximizing revision coverage.
                    let q = QUERIES[rng.random_range(0..QUERIES.len())];
                    let engine = Engine::ALL[rng.random_range(0..Engine::ALL.len())];
                    assert_eq!(
                        eval(snap.store(), q, engine),
                        eval(pinned.store(), q, engine),
                        "reader diverged from serial replay at revision {rev} (seed {seed})"
                    );
                    checks += 1;
                    if finished && checks >= 12 {
                        break;
                    }
                }
            });
        }
    });
    // The concurrent run converged on the serial replay's final state:
    // same head revision, and every query/engine pair answers alike.
    let last = live.snapshot();
    let want = oracle.last().expect("at least revision 0");
    assert_eq!(
        last.revision(),
        want.revision(),
        "head revision (seed {seed})"
    );
    for q in QUERIES {
        for engine in Engine::ALL {
            assert_eq!(eval(last.store(), q, engine), eval(want.store(), q, engine));
        }
    }
    // The replay and the live store agree with each other; the brute-force
    // oracle says whether what they agree on is right.
    assert_eq!(
        common::engines_agree_with_the_oracle(last.store(), &QUERIES),
        QUERIES.len()
    );
}

#[test]
fn single_reader_matches_serial_replay() {
    for case in 0..3u64 {
        run_differential(base_seed().wrapping_add(case), 1);
    }
}

#[test]
fn four_readers_match_serial_replay() {
    for case in 0..3u64 {
        run_differential(base_seed().wrapping_add(case), 4);
    }
}

/// Snapshot isolation in its most literal form: a pinned snapshot's
/// answers do not change while later commits land, and a re-pin after
/// the stream sees exactly the final state.
#[test]
fn pinned_snapshots_are_immutable_under_writes() {
    let seed = base_seed();
    let ops = batches(seed);
    let live = LiveStore::new(TripleStore::from_graph(&initial(seed)));
    let pinned = live.snapshot();
    let before: Vec<String> = QUERIES
        .iter()
        .map(|q| eval(pinned.store(), q, Engine::default()))
        .collect();
    for op in &ops {
        live.commit(&batch_of(op)).expect("commit");
    }
    let after: Vec<String> = QUERIES
        .iter()
        .map(|q| eval(pinned.store(), q, Engine::default()))
        .collect();
    assert_eq!(before, after, "a pinned snapshot's answers moved");
    assert!(live.revision() > 0, "the stream committed effectively");
    assert_eq!(
        live.snapshot().revision(),
        serial_replay(seed, &ops).last().unwrap().revision()
    );
}
