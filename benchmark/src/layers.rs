//! The in-process layer drive: fixed-iteration calls into each crate's
//! public functions, timed from here. Iteration counts and the inputs are
//! fixed by `(seed, entities)`, so every count this module reports repeats
//! exactly from run to run; only the times move.

use crate::alloc::retained_by;
use crate::answers::Table;
use crate::gen::{SplitMix64, NS};
use crate::segquery::{cache_bytes, open_store, seg_mixes, SEG_CYCLE};
use crate::speed;
use crate::stats::median;
use crate::workloads::{mem_cap_mb, Dataset};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::Instant;
use wodex::rdf::{Graph, Term, Triple};
use wodex::seg::{LoadConfig, SegmentStore};
use wodex::store::{LiveStore, Pattern, TripleStore, WriteBatch};

/// One timed call (or fixed batch of calls) into a layer.
pub struct LayerSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls or items the span covers.
    pub count: u64,
}

pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<LayerSpan>,
}

struct Recorder {
    epoch: Instant,
    /// The host's speed as last sampled; see [`Recorder::section`].
    speed: f64,
    out: Layers,
}

impl Recorder {
    /// Starts a section of the drive with a fresh speed sample; the calls
    /// timed until the next section are read at that speed.
    fn section(&mut self) {
        self.speed = speed::sample();
    }

    /// Times `f`, records the span, and returns its result and its seconds
    /// at reference speed.
    fn time<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let r = std::hint::black_box(f());
        let dur = started.elapsed();
        self.out.spans.push(LayerSpan {
            name,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            count,
        });
        (r, dur.as_secs_f64() * self.speed)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.out.metrics.insert(name, value);
    }
}

const CANNED_REQUEST: &[u8] = b"POST /sparql?deadline_ms=2000&engine=wco HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nUser-Agent: bench\r\nAccept: application/sparql-results+json\r\nContent-Length: 64\r\n\r\nSELECT ?p ?o WHERE { <http://bench.example.org/e1234> ?p ?o }   ";

/// Arithmetic heavy enough that two threads can beat one.
fn kernel(x: &u64) -> u64 {
    (0..10_000u64).fold(*x, |a, i| {
        a.wrapping_mul(6364136223846793005).wrapping_add(i)
    })
}

/// Items per `par_map` call: four of `wodex-exec`'s 256-item chunks, the
/// smallest input it spreads over more than two threads' worth of work.
const PAR_ITEMS: usize = 1024;

pub fn drive_layers(ds: &Dataset, work: &Path, seed: u64) -> Result<Layers, String> {
    let mut r = Recorder {
        epoch: Instant::now(),
        speed: 1.0,
        out: Layers {
            metrics: BTreeMap::new(),
            spans: Vec::new(),
        },
    };
    let entities = ds.model.entities();

    r.section();
    // wodex-serve: the request parser on a canned request.
    let n = 20_000u64;
    let (_, s) = r.time("serve.http_parse", n, || {
        for _ in 0..n {
            let req = wodex::serve::http::read_request(&mut BufReader::new(CANNED_REQUEST));
            assert!(std::hint::black_box(req).is_ok(), "canned request parses");
        }
    });
    r.set("serve.http_parse_us", s * 1e6 / n as f64);

    r.section();
    // wodex-rdf: parse the head of the dataset, then rebuild a graph.
    let head_lines = (ds.lines as usize).min(55_000);
    let mut text = String::new();
    let file = std::fs::File::open(&ds.nt).map_err(|e| format!("open {}: {e}", ds.nt.display()))?;
    for line in BufReader::new(file).lines().take(head_lines) {
        text.push_str(&line.map_err(|e| format!("read {}: {e}", ds.nt.display()))?);
        text.push('\n');
    }
    let (graph, s) = r.time("rdf.ntriples_parse", head_lines as u64, || {
        wodex::rdf::ntriples::parse(&text)
    });
    let graph = graph.map_err(|e| format!("parse generated N-Triples: {e}"))?;
    r.set("rdf.ntriples_parse_mtriples_s", head_lines as f64 / s / 1e6);
    let triples: Vec<Triple> = graph.iter().cloned().collect();
    drop(graph);
    let ((graph, retained), s) = r.time("rdf.graph_build", triples.len() as u64, || {
        retained_by(|| triples.iter().cloned().collect::<Graph>())
    });
    r.set("rdf.graph_build_ms", s * 1e3);
    r.set(
        "rdf.graph_bytes_per_triple",
        retained as f64 / graph.len().max(1) as f64,
    );
    drop((graph, triples, text));

    r.section();
    // wodex-seg: bulk load in-process, open, cold and warm reads.
    let drive_dir = work.join("layers-seg");
    let cfg = LoadConfig {
        mem_cap_bytes: u64::from(mem_cap_mb(entities)) << 20,
        ..LoadConfig::default()
    };
    let file = std::fs::File::open(&ds.nt).map_err(|e| format!("open {}: {e}", ds.nt.display()))?;
    let (report, s) = r.time("seg.load", ds.lines, || {
        wodex::seg::load_ntriples(BufReader::new(file), &drive_dir, &cfg)
    });
    let report = report.map_err(|e| format!("in-process load: {e}"))?;
    r.set("seg.load_s", s);
    r.set("seg.runs_spilled", report.runs_spilled as f64);
    r.set(
        "seg.bytes_per_triple",
        (report.segment_bytes + report.dict_bytes) as f64 / report.triples.max(1) as f64,
    );
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            r.time("seg.open", 1, || SegmentStore::open(&drive_dir).map(drop))
                .1
                * 1e3
        })
        .collect();
    r.set("seg.open_ms", median(&opens));

    r.section();
    // A cache that holds everything: the second pass over the same
    // subjects is all hits.
    let (store, _roomy) = open_store(&drive_dir, 1 << 30)?;
    let mut rng = SplitMix64::new(seed ^ 0x001A_7E55);
    let subjects: Vec<Pattern> = (0..2_000)
        .filter_map(|_| {
            let iri = format!("{NS}e{}", rng.below(u64::from(entities)));
            store.encode_pattern(Some(&Term::iri(iri)), None, None)
        })
        .collect();
    let probes = subjects.len() as u64;
    for (name, metric) in [
        ("seg.probe_cold", "seg.probe_cold_us"),
        ("seg.probe_warm", "seg.probe_warm_us"),
    ] {
        let (rows, s) = r.time(name, probes, || {
            subjects
                .iter()
                .map(|p| store.match_pattern(*p).len())
                .sum::<usize>()
        });
        assert!(
            rows >= subjects.len() * 7,
            "every entity has its attributes"
        );
        r.set(metric, s * 1e6 / probes as f64);
    }
    drop(store);
    let (store, _roomy) = open_store(&drive_dir, 1 << 30)?;
    let total = store.len();
    for (name, metric) in [
        ("seg.scan_cold", "seg.scan_cold_mtriples_s"),
        ("seg.scan_warm", "seg.scan_warm_mtriples_s"),
    ] {
        let (seen, s) = r.time(name, total as u64, || {
            let mut seen = 0usize;
            store.match_pattern_chunks(Pattern::any(), &mut |chunk| {
                seen += chunk.len();
                true
            });
            seen
        });
        assert_eq!(seen, total, "a full scan sees every triple");
        r.set(metric, total as f64 / s / 1e6);
    }
    drop(store);

    r.section();
    // The seg_query mix, one client, fixed length, small cache: the
    // counts below repeat exactly.
    let (store, cache) = open_store(&drive_dir, cache_bytes(ds.model.unique_triples()))?;
    let mut mixes = seg_mixes(&ds.model, seed);
    mixes.truncate(1);
    let ops = (20 * SEG_CYCLE) as u64;
    let (records, _) = r.time("seg.mix", ops, || {
        crate::segquery::drive_seg(
            &store,
            &mut mixes,
            crate::drive::Stop::After(ops as usize),
            false,
            Instant::now(),
            false,
        )
    });
    if let Some(bad) = records.iter().find_map(|rec| rec.error.as_ref()) {
        return Err(format!("layer drive: wrong seg answer: {bad}"));
    }
    let stats = cache.stats();
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    r.set(
        "seg.cache_hit_ratio",
        load(&stats.hits) / load(&stats.lookups).max(1.0),
    );
    r.set("seg.cache_evictions", load(&stats.evictions));
    r.set("seg.blocks_read_per_op", load(&stats.misses) / ops as f64);

    r.section();
    // wodex-store: what `Server::bind` does with the segment store, then
    // probes, a scan, snapshots and commits on the in-memory copy.
    let encoded = store.match_pattern(Pattern::any());
    let ((mem, retained), s) = r.time("store.build", encoded.len() as u64, || {
        retained_by(|| TripleStore::from_encoded(store.dict().clone(), encoded.clone()))
    });
    r.set("store.build_ms", s * 1e3);
    r.set(
        "store.bytes_per_triple",
        retained as f64 / mem.len().max(1) as f64,
    );
    let (rows, s) = r.time("store.probe", probes, || {
        subjects
            .iter()
            .map(|p| mem.match_pattern(*p).len())
            .sum::<usize>()
    });
    std::hint::black_box(rows);
    r.set("store.probe_us", s * 1e6 / probes as f64);
    let (seen, s) = r.time("store.scan", mem.len() as u64, || {
        let mut seen = 0usize;
        mem.match_pattern_chunks(Pattern::any(), &mut |chunk| {
            seen += chunk.len();
            true
        });
        seen
    });
    r.set("store.scan_mtriples_s", seen as f64 / s / 1e6);
    let live = LiveStore::new(mem);
    let n = 100_000u64;
    let (_, s) = r.time("store.snapshot", n, || {
        for _ in 0..n {
            std::hint::black_box(live.snapshot());
        }
    });
    r.set("store.snapshot_ns", s * 1e9 / n as f64);
    let mut commits = Vec::new();
    for k in 0..6u64 {
        let batch_triples: Vec<Triple> = (0..32)
            .map(|j| {
                Triple::new(
                    Term::iri(format!("{NS}layerw{k}")),
                    Term::iri(format!("{NS}mentions")),
                    Term::iri(format!("{NS}e{}", (k * 32 + j) % u64::from(entities))),
                )
            })
            .collect();
        let mut batch = WriteBatch::new();
        for t in &batch_triples {
            batch.insert(t.clone());
        }
        let (outcome, s) = r.time("store.commit", 32, || live.commit(&batch));
        let outcome = outcome.map_err(|e| format!("in-process commit: {e}"))?;
        assert_eq!(outcome.frame.inserts.len(), 32, "all 32 triples are new");
        commits.push(s * 1e3);
    }
    r.set("store.commit_ms", median(&commits));
    drop(live);

    r.section();
    // wodex-core / wodex-explore / wodex-approx: the boot path's heavy
    // steps and one histogram.
    let (explorer, s) = r.time("core.explorer_from_store", store.len() as u64, || {
        wodex::core::Explorer::from_store(store)
    });
    r.set("core.explorer_from_store_ms", s * 1e3);
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            r.time("explore.session_build", 1, || {
                wodex::explore::ExplorationSession::shared(explorer.shared_graph())
            })
            .1 * 1e3
        })
        .collect();
    r.set("explore.session_build_ms", median(&builds));
    let values: Vec<f64> = ds.model.ents.iter().map(|e| e.population as f64).collect();
    let hists: Vec<f64> = (0..20)
        .map(|_| {
            r.time("approx.hist_build", values.len() as u64, || {
                wodex::approx::binning::Histogram::build(
                    &values,
                    16,
                    wodex::approx::binning::BinningStrategy::EqualWidth,
                )
            })
            .1 * 1e3
        })
        .collect();
    r.set("approx.hist_build_ms", median(&hists));

    r.section();
    // wodex-obs: the same in-process queries with recording on and off.
    let queries: Vec<String> = (0..400)
        .map(|i| {
            format!(
                "SELECT ?p ?o WHERE {{ <{NS}e{}> ?p ?o }}",
                (i * 31) % entities
            )
        })
        .collect();
    let run_queries = |r: &mut Recorder, name: &'static str| -> Result<f64, String> {
        let (rows, s) = r.time(name, queries.len() as u64, || {
            queries
                .iter()
                .map(|q| explorer.sparql(q).map_err(|e| format!("{q}: {e}")))
                .map(|res| {
                    res.and_then(|res| Table::from_result(&res))
                        .map(|t| t.row_hashes().len())
                })
                .sum::<Result<usize, String>>()
        });
        rows.map(|_| s)
    };
    run_queries(&mut r, "obs.warmup")?;
    let on = run_queries(&mut r, "obs.enabled")?;
    wodex::obs::set_enabled(false);
    let off = run_queries(&mut r, "obs.disabled");
    wodex::obs::set_enabled(true);
    r.set("obs.enabled_overhead_ratio", on / off?);
    drop(explorer);

    r.section();
    // wodex-exec: dispatch cost on trivial items, and two threads against
    // one on a fixed kernel.
    let trivial = [1u64; PAR_ITEMS];
    let n = 2_000u64;
    let (_, s) = r.time("exec.dispatch", n, || {
        for _ in 0..n {
            std::hint::black_box(wodex::exec::par_map(&trivial, |x| x + 1));
        }
    });
    r.set("exec.dispatch_us", s * 1e6 / n as f64);
    let items: Vec<u64> = (0..PAR_ITEMS as u64).collect();
    let timed = |r: &mut Recorder, name: &'static str, threads: usize| {
        r.time(name, items.len() as u64, || {
            wodex::exec::with_thread_override(threads, || wodex::exec::par_map(&items, kernel))
        })
    };
    let (one, t1) = timed(&mut r, "exec.kernel_1t", 1);
    let (two, t2) = timed(&mut r, "exec.kernel_2t", 2);
    assert_eq!(one, two, "thread count never changes a result");
    r.set("exec.speedup_2t", t1 / t2);

    let _ = std::fs::remove_dir_all(&drive_dir);
    Ok(r.out)
}
