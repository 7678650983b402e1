//! Chaos property suite: the fault-tolerance contract of the disk path
//! and the graceful-degradation contract of budgeted evaluation.
//!
//! Every case is seeded (set `WODEX_FAULT_SEED` to reproduce a sweep;
//! `scripts/verify.sh` runs three seeds) and sweeps injected fault rates
//! from 0 to 20%. The invariants:
//!
//! 1. **No panics, ever.** Any failure surfaces as a typed
//!    [`StoreError`] — reaching an `assert!` below means the process
//!    survived the fault.
//! 2. **No silent corruption.** A scan that returns `Ok` under injected
//!    torn reads is byte-identical to the fault-free baseline — the
//!    per-block checksums catch every tear before it decodes.
//! 3. **Fault rate 0 is the identity.** A `FaultBackend` injecting
//!    nothing is bit-identical to the bare backend, at every thread
//!    count — the same determinism contract `parallel_equivalence.rs`
//!    checks for the fault-free engine.
//!
//!    Every chaos segment runs with the decoded-block cache detached, so
//!    each scan really re-reads the faulting backend.
//! 4. **Budgets degrade, they don't break.** Over-budget queries return
//!    flagged partial results whose rows are a subset of the full
//!    answer.

use std::path::PathBuf;
use std::sync::Arc;
use wodex::exec::with_thread_override;
use wodex::rdf::TermId;
use wodex::resilience::{Budget, DegradeReason, StoreError};
use wodex::seg::format::write_spo_segment;
use wodex::seg::{BlockCache, Segment, SegmentFileBackend, SegmentMeta};
use wodex::sparql;
use wodex::store::fault::{FaultBackend, FaultConfig};
use wodex::store::{Pattern, TripleStore};
use wodex::synth::dbpedia::{self, DbpediaConfig};
use wodex::synth::rng::{Rng, SeedableRng, StdRng};

/// Base seed for the sweep; override with `WODEX_FAULT_SEED=<n>`.
fn base_seed() -> u64 {
    std::env::var("WODEX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// A subject-sorted synthetic dataset, 8 triples per subject.
fn triples(n: u32) -> Vec<[u32; 3]> {
    let mut v: Vec<[u32; 3]> = (0..n).map(|i| [i / 8, i % 5, i]).collect();
    v.sort_unstable();
    v
}

/// Triples per block: small, so a sweep touches many independent
/// checksums.
const BLOCK_TRIPLES: usize = 256;

/// `triples(n)` written fault-free as one segment file in a fresh
/// temporary directory, removed on drop.
struct ChaosSegment {
    dir: PathBuf,
    meta: SegmentMeta,
}

impl ChaosSegment {
    fn write(name: &str, data: &[[u32; 3]]) -> ChaosSegment {
        let dir = std::env::temp_dir().join(format!("wodex_chaos_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let meta = write_spo_segment(&dir.join("chaos.seg"), BLOCK_TRIPLES, data)
            .expect("fault-free segment write");
        ChaosSegment { dir, meta }
    }

    fn backend(&self) -> SegmentFileBackend {
        SegmentFileBackend::open(&self.dir.join("chaos.seg"), &self.meta).expect("open segment")
    }

    /// The segment over the bare file backend.
    fn plain(&self) -> Segment<SegmentFileBackend> {
        let mut seg = Segment::from_parts(self.meta.clone(), self.backend());
        seg.set_block_cache(None);
        seg
    }

    /// The segment over a fault-injecting backend. With the decoded
    /// cache detached every scan fetches its blocks from that backend.
    fn faulty(&self, config: FaultConfig) -> Segment<FaultBackend<SegmentFileBackend>> {
        let backend = FaultBackend::new(self.backend(), config);
        let mut seg = Segment::from_parts(self.meta.clone(), backend);
        seg.set_block_cache(None);
        seg
    }
}

impl Drop for ChaosSegment {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Allowed failure under transient/torn chaos: only retry exhaustion —
/// never `Io`, `NoSuchPage`, or a raw `Corrupt` escaping the retry loop.
fn assert_typed(e: &StoreError) {
    assert!(
        matches!(e, StoreError::RetriesExhausted { .. }),
        "chaos must surface as RetriesExhausted, got: {e}"
    );
}

/// A `Segment` over a `FaultBackend` must (1) never panic, (2) never
/// silently decode a torn block — every `Ok` scan is key-identical to
/// the fault-free baseline, (3) inject and retry nothing at fault rate
/// 0, and (4) surface unhealable faults as typed `RetriesExhausted`
/// errors only.
#[test]
fn segment_scans_survive_chaos_or_fail_typed() {
    let data = triples(20_000);
    let on_disk = ChaosSegment::write("sweep", &data);

    let baseline = on_disk.plain();
    let baseline_all = baseline.scan_keys(Pattern::any()).expect("fault-free scan");
    assert_eq!(baseline_all, data);
    let probe_s = Pattern::any().with_s(TermId(123));
    let probe_p = Pattern::any().with_p(TermId(3));
    let baseline_s = baseline.scan_keys(probe_s).expect("fault-free scan");
    let baseline_p = baseline.scan_keys(probe_p).expect("fault-free scan");
    assert!(!baseline_s.is_empty() && !baseline_p.is_empty());

    for case in 0..3u64 {
        let seed = base_seed().wrapping_add(case);
        for &rate in &FAULT_RATES {
            let seg = on_disk.faulty(FaultConfig::chaos(seed, rate));
            match seg.scan_keys(Pattern::any()) {
                Ok(v) => assert_eq!(v, baseline_all, "silent corruption at rate {rate}"),
                Err(e) => {
                    assert!(rate > 0.0, "fault-free segment scan must not fail");
                    assert_typed(&e);
                }
            }
            match seg.scan_keys(probe_s) {
                Ok(v) => assert_eq!(v, baseline_s),
                Err(e) => assert_typed(&e),
            }
            match seg.scan_keys(probe_p) {
                Ok(v) => assert_eq!(v, baseline_p),
                Err(e) => assert_typed(&e),
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51CA);
            for _ in 0..5 {
                let s = rng.random_range(0u32..20_000 / 8);
                match seg.scan_keys(Pattern::any().with_s(TermId(s))) {
                    Ok(v) => assert!(v.len() == 8 && v.iter().all(|t| t[0] == s)),
                    Err(e) => assert_typed(&e),
                }
            }
            if rate >= 0.10 {
                // The injector really fired; the retry loop healed (or
                // typed-failed) every one of those faults above.
                assert!(
                    seg.backend().fault_stats().total() > 0,
                    "rate {rate} injected nothing"
                );
            }
            if rate == 0.0 {
                assert_eq!(seg.backend().fault_stats().total(), 0);
                assert_eq!(seg.retry_stats().retries, 0);
            }
        }
    }
}

#[test]
fn fault_rate_zero_is_bit_identical_at_every_thread_count() {
    let on_disk = ChaosSegment::write("quiet", &triples(8_000));
    let mut plain = on_disk.plain();
    let mut quiet = on_disk.faulty(FaultConfig::quiet(base_seed()));
    for threads in [1, 2, 4, 8] {
        // A fresh, cold cache each round: the scans below still read
        // every block from their backend, and decode their misses on
        // the parallel path the thread count steers.
        plain.set_block_cache(Some(Arc::new(BlockCache::new(8 << 20))));
        quiet.set_block_cache(Some(Arc::new(BlockCache::new(8 << 20))));
        for pat in [Pattern::any(), Pattern::any().with_p(TermId(3))] {
            let (a, b) = with_thread_override(threads, || {
                (
                    plain.scan_keys(pat).expect("fault-free"),
                    quiet.scan_keys(pat).expect("rate 0 injects nothing"),
                )
            });
            assert!(!a.is_empty());
            assert_eq!(a, b, "idle FaultBackend changed bytes at {threads} threads");
        }
    }
    assert_eq!(quiet.backend().fault_stats().total(), 0);
}

#[test]
fn sticky_corruption_exhausts_retries_with_typed_errors() {
    let on_disk = ChaosSegment::write("sticky", &triples(20_000));
    let seg = on_disk.faulty(FaultConfig {
        sticky_corrupt_rate: 0.3,
        ..FaultConfig::quiet(base_seed())
    });
    // 30% of blocks are permanently torn: the full scan must hit one,
    // exhaust its retries, and report it — not panic, not return bytes.
    let err = seg
        .scan_keys(Pattern::any())
        .expect_err("sticky blocks cannot heal");
    assert_typed(&err);
    assert!(seg.retry_stats().giveups >= 1);
    // Blocks the injector left alone still read fine: a subject whose 8
    // triples sit strictly inside one healthy SPO block (flat block ids
    // start with the SPO section).
    let spo_blocks = on_disk.meta.sections[0].len() as u32;
    let healthy = (0..spo_blocks).find(|&b| !seg.backend().is_sticky_corrupt(b));
    if let Some(b) = healthy {
        let s = (b * BLOCK_TRIPLES as u32 + 16) / 8; // triples [s*8, s*8+8) ⊂ block b
        let got = seg
            .scan_keys(Pattern::any().with_s(TermId(s)))
            .expect("healthy block");
        assert_eq!(got.len(), 8);
    }
}

/// One budgeted-query chaos case: a random budget against a fixed query
/// set. Returns the number of degraded results observed.
fn budget_case(
    store: &TripleStore,
    full_rows: &[Vec<Option<wodex::rdf::Term>>],
    rng: &mut StdRng,
) -> usize {
    const Q: &str = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                     SELECT ?s ?p WHERE { ?s a dbo:City . ?s dbo:population ?p }";
    let kind = rng.random_range(0u32..5);
    let budget = match kind {
        0 => Budget::unlimited(),
        1 => Budget::unlimited().with_row_cap(rng.random_range(1u64..50)),
        2 => Budget::unlimited().with_expired_deadline(),
        3 => Budget::unlimited().with_deadline(std::time::Duration::from_secs(60)),
        _ => {
            let b = Budget::unlimited();
            b.cancel();
            b
        }
    };
    let out = sparql::query_budgeted(store, Q, &budget).expect("budgets never error");
    let rows = &out.result.table().expect("SELECT").rows;
    // Soundness: every degraded row is a row of the full answer.
    assert!(
        rows.iter().all(|r| full_rows.contains(r)),
        "degraded result fabricated a row"
    );
    match (kind, &out.degraded) {
        // Unlimited and generous-deadline budgets must not degrade and
        // must be bit-identical to the plain evaluation.
        (0 | 3, d) => {
            assert!(d.is_none(), "in-budget query flagged degraded: {d:?}");
            assert_eq!(rows, full_rows);
        }
        (2, Some(d)) => assert_eq!(d.reason, DegradeReason::DeadlineExceeded),
        (4, Some(d)) => assert_eq!(d.reason, DegradeReason::Cancelled),
        (1, Some(d)) => {
            assert_eq!(d.reason, DegradeReason::RowCapExceeded);
            assert!(rows.len() < full_rows.len());
        }
        (_, None) => panic!("tripped budget came back un-flagged"),
        _ => unreachable!(),
    }
    if let Some(d) = &out.degraded {
        assert!((0.0..=1.0).contains(&d.coverage), "coverage {}", d.coverage);
    }
    usize::from(out.degraded.is_some())
}

#[test]
fn budgeted_queries_degrade_soundly_never_panic() {
    let store = TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities: 400,
        ..Default::default()
    }));
    let full = sparql::query(
        &store,
        "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
         SELECT ?s ?p WHERE { ?s a dbo:City . ?s dbo:population ?p }",
    )
    .expect("full query");
    let full_rows = full.table().expect("SELECT").rows.clone();
    assert!(full_rows.len() >= 100, "need a non-trivial answer");

    let mut rng = StdRng::seed_from_u64(base_seed() ^ 0xB0D6E7);
    let mut degraded = 0;
    for _ in 0..24 {
        degraded += budget_case(&store, &full_rows, &mut rng);
    }
    assert!(degraded >= 5, "sweep never exercised degradation");
}

/// PR 9 extension: chaos at the live-data layer — injected faults
/// during delta-log appends and during delta→base compaction. The
/// invariants mirror the disk-path suite: typed errors only, no torn
/// snapshots (in memory or on disk), and fault rate 0 is bit-identical
/// to the fault-free path.
mod delta_chaos {
    use super::{base_seed, FAULT_RATES};
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};
    use wodex::rdf::{ntriples, Graph, Term, Triple};
    use wodex::resilience::StoreError;
    use wodex::seg::{
        compact_deltas, compact_deltas_with, load_ntriples, replay, wal_sink, DeltaFaultPlan,
        DeltaLog, LoadConfig, SegmentStore,
    };
    use wodex::store::{LiveStore, Pattern, SegmentSource, TripleStore, WriteBatch};

    fn tmpdir(name: &str, case: u64, rate: f64) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wodex_chaos_delta_{}_{name}_{case}_{}",
            std::process::id(),
            (rate * 100.0) as u32
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn t(s: usize, o: usize) -> Triple {
        Triple::iri(
            &format!("http://e.org/s{s}"),
            "http://e.org/p",
            Term::iri(format!("http://e.org/o{o}")),
        )
    }

    /// Seeds a segment directory with `n` triples via the bulk loader.
    fn seed_dir(dir: &Path, n: usize) {
        let g: Graph = (0..n).map(|i| t(i, i)).collect();
        let nt = ntriples::serialize(&g);
        load_ntriples(nt.as_bytes(), dir, &LoadConfig::default()).expect("bulk load");
    }

    /// Opens the directory as a WAL-backed live store, with an optional
    /// injected fault schedule on appends.
    fn open_live(dir: &Path, fault: Option<DeltaFaultPlan>) -> (LiveStore, Arc<Mutex<DeltaLog>>) {
        let (dict, base) = SegmentStore::open(dir).expect("open base");
        let (frames, mut log) = DeltaLog::open(dir).expect("open log");
        if let Some(plan) = fault {
            log = log.with_fault(plan);
        }
        let (store, rev) = replay(dict, Arc::new(base) as Arc<dyn SegmentSource>, &frames);
        let live = LiveStore::at_revision(store, rev);
        let log = Arc::new(Mutex::new(log));
        live.set_wal(wal_sink(Arc::clone(&log)));
        (live, log)
    }

    fn decoded_sorted(store: &TripleStore) -> Vec<String> {
        let mut v: Vec<String> = store
            .match_pattern(Pattern::any())
            .into_iter()
            .map(|e| store.decode(e).to_string())
            .collect();
        v.sort();
        v
    }

    /// Allowed failures under injected delta faults: transient or I/O,
    /// carrying the faulting op — never a panic, never silent.
    fn assert_delta_typed(e: &StoreError) {
        assert!(
            matches!(e, StoreError::Transient { .. } | StoreError::Io { .. }),
            "delta chaos must surface as Transient/Io, got: {e}"
        );
    }

    #[test]
    fn delta_appends_survive_chaos_or_fail_typed() {
        for case in 0..2u64 {
            let seed = base_seed().wrapping_add(case);
            for &rate in &FAULT_RATES {
                let dir = tmpdir("append", case, rate);
                seed_dir(&dir, 40);
                let (live, _log) = open_live(&dir, Some(DeltaFaultPlan { seed, rate }));
                // The oracle applies only the commits that succeeded on
                // the faulted path — a commit whose WAL append failed
                // must leave no trace anywhere.
                let base: Graph = (0..40).map(|i| t(i, i)).collect();
                let oracle = LiveStore::new(TripleStore::from_graph(&base));
                let mut failures = 0usize;
                for i in 0..24usize {
                    let mut b = WriteBatch::new();
                    b.insert(t(500 + i, i)).delete(t(i, i));
                    match live.commit(&b) {
                        Ok(_) => {
                            oracle.commit(&b).expect("oracle commit is fault-free");
                        }
                        Err(e) => {
                            failures += 1;
                            assert_delta_typed(&e);
                        }
                    }
                }
                if rate == 0.0 {
                    assert_eq!(failures, 0, "fault-free appends must not fail");
                }
                // No torn snapshots: memory reflects exactly the
                // successful commits.
                assert_eq!(
                    decoded_sorted(live.snapshot().store()),
                    decoded_sorted(oracle.snapshot().store()),
                    "torn snapshot at rate {rate}"
                );
                drop(live);
                // Durability: recovery replays exactly the successful
                // commits — failed and torn appends never resurface.
                let (reopened, _log) = open_live(&dir, None);
                assert_eq!(
                    decoded_sorted(reopened.snapshot().store()),
                    decoded_sorted(oracle.snapshot().store()),
                    "recovery diverged at rate {rate}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn delta_compaction_survives_chaos_or_fails_typed() {
        for case in 0..2u64 {
            let seed = base_seed().wrapping_add(0xC0 + case);
            for &rate in &FAULT_RATES {
                let dir = tmpdir("compact", case, rate);
                seed_dir(&dir, 30);
                let (live, _log) = open_live(&dir, None);
                for i in 0..10usize {
                    let mut b = WriteBatch::new();
                    b.insert(t(900 + i, i)).delete(t(i * 2, i * 2));
                    live.commit(&b).expect("fault-free commit");
                }
                let want = decoded_sorted(live.snapshot().store());
                drop(live);
                match compact_deltas_with(&dir, Some(DeltaFaultPlan { seed, rate })) {
                    Ok(Some(out)) => {
                        assert_eq!(out.frames_folded, 10);
                        let (reopened, log) = open_live(&dir, None);
                        assert_eq!(log.lock().unwrap().committed_bytes(), 0);
                        assert_eq!(decoded_sorted(reopened.snapshot().store()), want);
                        assert_eq!(compact_deltas(&dir).expect("idempotent"), None);
                    }
                    Ok(None) => panic!("frames were pending"),
                    Err(e) => {
                        assert!(rate > 0.0, "fault-free compaction must not fail");
                        assert_delta_typed(&e);
                        // An aborted compaction leaves the directory as
                        // it was — same content, frames intact — and a
                        // fault-free retry lands it.
                        let (reopened, _log) = open_live(&dir, None);
                        assert_eq!(decoded_sorted(reopened.snapshot().store()), want);
                        drop(reopened);
                        let out = compact_deltas(&dir)
                            .expect("retry succeeds")
                            .expect("frames to fold");
                        assert_eq!(out.frames_folded, 10);
                        let (again, _log) = open_live(&dir, None);
                        assert_eq!(decoded_sorted(again.snapshot().store()), want);
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
