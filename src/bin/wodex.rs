//! `wodex` — the command-line face of the framework.
//!
//! ```text
//! wodex stats     <file.{ttl,nt}>                 dataset profile
//! wodex classes   <file>                          class hierarchy outline
//! wodex facets    <file>                          facet values & counts
//! wodex search    <file> <keywords…>              ranked keyword hits
//! wodex query     <file> <sparql | @query.rq>     SPARQL-subset SELECT/ASK
//! wodex explain   <file> <sparql | @query.rq>     per-stage query trace
//! wodex recommend <file> <predicate>              ranked chart types
//! wodex viz       <file> <predicate> [out.svg]    LDVM pipeline → SVG + ASCII
//! wodex paths     <file> <iri-a> <iri-b>          RelFinder shortest paths
//! wodex load      <file.nt> --out <dir> [--mem-cap-mb N]
//!                                                 bulk-load into a segment store
//! wodex serve     <file> [--port N] [--workers N] [--queue N]
//!                        [--deadline-ms N] [--sessions N]
//!                        [--shard K/N] [--coordinator shards.txt]
//!                                                 HTTP serving layer
//! wodex tables                                    the survey's Tables 1 & 2
//! ```
//!
//! Everywhere a `<file>` is accepted, `seg:<dir>` opens a persistent
//! segment store produced by `wodex load` instead of parsing a document:
//! for the one-shot subcommands triple data stays on disk and is
//! block-paged per scan. `wodex serve --store seg:<dir>` scans the
//! segments once into the one resident store every endpoint shares (no
//! parse, no second copy, no term-level graph) and additionally runs
//! `wodex-seg`'s background compaction,
//! stopped cleanly on `POST /admin/shutdown` or SIGTERM.
//!
//! Sharded serving: `--shard K/N` keeps only shard `K` of an `N`-way
//! subject-hash partition (a worker process), `--coordinator shards.txt`
//! answers `/sparql` by scatter-gathering across the listed workers.
//! `wodex explain … --shards shards.txt` runs the same scatter path once
//! and prints per-shard reports and breaker health.

use wodex::core::Explorer;
use wodex::rdf::Term;
use wodex::serve::{ServeConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return 2;
    };
    match cmd.as_str() {
        "tables" => {
            println!("{}", wodex::registry::render_table1());
            println!("{}", wodex::registry::render_table2());
            println!("{}", wodex::registry::analysis::report());
            0
        }
        "load" => bulk_load(&args[1..]),
        "serve" => {
            // `serve <path>` and `serve --store <path>` are equivalent;
            // the flag form reads naturally next to the other flags.
            let (path, rest) = match args.get(1).map(String::as_str) {
                Some("--store") => match args.get(2) {
                    Some(p) => (p, &args[3..]),
                    None => {
                        eprintln!("--store needs a path\n{}", usage());
                        return 2;
                    }
                },
                Some(_) => (&args[1], &args[2..]),
                None => {
                    eprintln!("missing input file\n{}", usage());
                    return 2;
                }
            };
            let ex = match load_resident(path) {
                Ok(ex) => ex,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return 1;
                }
            };
            // Segment-backed datasets get the background compactor; its
            // shutdown rides the server's shutdown hooks.
            let seg_dir = path.strip_prefix("seg:").map(std::path::PathBuf::from);
            serve(ex, seg_dir, rest)
        }
        "stats" | "classes" | "facets" | "search" | "query" | "explain" | "recommend" | "viz"
        | "paths" => {
            let Some(path) = args.get(1) else {
                eprintln!("missing input file\n{}", usage());
                return 2;
            };
            let ex = match load(path) {
                Ok(ex) => ex,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return 1;
                }
            };
            dispatch(cmd, &ex, &args[2..])
        }
        other => {
            eprintln!("unknown command {other:?}\n{}", usage());
            2
        }
    }
}

fn dispatch(cmd: &str, ex: &Explorer, rest: &[String]) -> i32 {
    match cmd {
        "stats" => {
            print!("{}", ex.stats().report());
            0
        }
        "classes" => {
            let h = ex.class_hierarchy();
            if h.is_empty() {
                println!("no classes found");
            } else {
                print!("{}", h.render());
            }
            0
        }
        "facets" => {
            let engine = wodex::explore::FacetEngine::over(ex.explore_index().clone());
            for f in engine.facets() {
                println!(
                    "{} ({} values)",
                    wodex::rdf::vocab::abbreviate(&f.predicate),
                    f.cardinality
                );
                for (v, n) in engine.counts(&f.predicate).into_iter().take(8) {
                    println!("  {n:>6}  {v}");
                }
            }
            0
        }
        "search" => {
            let q = rest.join(" ");
            if q.is_empty() {
                eprintln!("missing search keywords");
                return 2;
            }
            for hit in ex.search(&q, 20) {
                println!("{:7.3}  {}", hit.score, hit.subject);
            }
            0
        }
        "query" => {
            let text = match query_text(rest) {
                Ok(t) => t,
                Err(code) => return code,
            };
            match ex.sparql(&text) {
                Ok(wodex::sparql::QueryResult::Solutions(t)) => {
                    print!("{}", t.to_ascii());
                    println!("{} row(s)", t.len());
                    0
                }
                Ok(wodex::sparql::QueryResult::Boolean(b)) => {
                    println!("{b}");
                    0
                }
                Ok(wodex::sparql::QueryResult::Described(g)) => {
                    print!("{}", wodex::rdf::turtle::serialize(&g));
                    0
                }
                Err(e) => {
                    eprintln!("query error: {e}");
                    1
                }
            }
        }
        "explain" => {
            // `--shards FILE` explains the distributed path instead:
            // one scatter-gather across the live fleet, then the trace,
            // per-shard reports, and breaker health.
            let mut plain: Vec<String> = Vec::new();
            let mut shards_file: Option<String> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                if a == "--shards" {
                    match it.next() {
                        Some(f) => shards_file = Some(f.clone()),
                        None => {
                            eprintln!("--shards needs a shards.txt path");
                            return 2;
                        }
                    }
                } else {
                    plain.push(a.clone());
                }
            }
            let text = match query_text(&plain) {
                Ok(t) => t,
                Err(code) => return code,
            };
            if let Some(file) = shards_file {
                return explain_sharded(&file, &text);
            }
            let trace = wodex::sparql::QueryTrace::new();
            match ex.sparql_traced(&text, &wodex::sparql::Budget::unlimited(), &trace) {
                Ok(b) => {
                    let rows = match &b.result {
                        wodex::sparql::QueryResult::Solutions(t) => t.len(),
                        _ => 0,
                    };
                    print!("{}", trace.render_table());
                    let plan_table = trace.render_plan_table();
                    if !plan_table.is_empty() {
                        println!();
                        print!("{plan_table}");
                    }
                    println!("rows: {rows}");
                    println!(
                        "degraded: {}",
                        b.degraded
                            .map(|d| format!("{};coverage={:.3}", d.reason, d.coverage))
                            .unwrap_or_else(|| "none".to_string())
                    );
                    0
                }
                Err(e) => {
                    eprintln!("query error: {e}");
                    1
                }
            }
        }
        "recommend" => {
            let Some(pred) = rest.first() else {
                eprintln!("missing predicate IRI");
                return 2;
            };
            for r in ex.recommend(pred) {
                println!("{:5.2}  {:<20} {}", r.score, r.kind.name(), r.reason);
            }
            0
        }
        "viz" => {
            let Some(pred) = rest.first() else {
                eprintln!("missing predicate IRI");
                return 2;
            };
            let view = ex.visualize(pred);
            let out = rest.get(1).cloned().unwrap_or_else(|| "wodex.svg".into());
            if let Err(e) = std::fs::write(&out, &view.svg) {
                eprintln!("cannot write {out}: {e}");
                return 1;
            }
            println!("{} → {out}", view.kind.name());
            println!("{}", wodex::viz::render::to_ascii(&view.scene, 76, 22));
            0
        }
        "paths" => {
            let (Some(a), Some(b)) = (rest.first(), rest.get(1)) else {
                eprintln!("need two resource IRIs");
                return 2;
            };
            let paths = ex.find_paths(&Term::iri(a.clone()), &Term::iri(b.clone()), 6, 5);
            if paths.is_empty() {
                println!("no connection within 6 hops");
            }
            for p in paths {
                println!("[{} hops] {}", p.len(), p.render());
            }
            0
        }
        _ => unreachable!("dispatch called with validated command"),
    }
}

/// `wodex explain … --shards FILE` — scatter-gathers the query across
/// the fleet listed in `FILE` and prints the stage trace, the per-shard
/// scatter reports, and each shard's breaker/latency health.
fn explain_sharded(file: &str, text: &str) -> i32 {
    let listing = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return 1;
        }
    };
    let addrs = wodex::shard::Coordinator::parse_shards_file(&listing);
    if addrs.is_empty() {
        eprintln!("{file} lists no shard addresses");
        return 2;
    }
    let coord = wodex::shard::Coordinator::new(addrs, wodex::shard::ShardClientConfig::default());
    let trace = wodex::sparql::QueryTrace::new();
    let outcome = coord.query_traced_with(
        text,
        &wodex::sparql::Budget::unlimited(),
        &trace,
        wodex::sparql::Engine::default(),
    );
    match outcome {
        Ok(c) => {
            let rows = match &c.result {
                wodex::sparql::QueryResult::Solutions(t) => t.len(),
                _ => 0,
            };
            print!("{}", trace.render_table());
            let plan_table = trace.render_plan_table();
            if !plan_table.is_empty() {
                println!();
                print!("{plan_table}");
            }
            println!("rows: {rows}");
            println!(
                "degraded: {}",
                c.degraded
                    .map(|d| format!("{};coverage={:.3}", d.reason, d.coverage))
                    .unwrap_or_else(|| "none".to_string())
            );
            println!("shards:");
            for (r, h) in c.shards.iter().zip(coord.health()) {
                println!(
                    "  [{}] {:<24} {:<8} scans={} triples={} breaker={} opens={} sheds={} p95={}{}",
                    r.index,
                    r.addr,
                    match r.outcome {
                        wodex::sparql::ShardOutcome::Ok => "ok".to_string(),
                        wodex::sparql::ShardOutcome::Partial(c) => format!("partial({c:.2})"),
                        wodex::sparql::ShardOutcome::Failed => "failed".to_string(),
                    },
                    r.scans,
                    r.triples,
                    h.breaker.state.name(),
                    h.breaker.opens,
                    h.breaker.sheds,
                    h.p95_ms
                        .map(|p| format!("{p:.1}ms"))
                        .unwrap_or_else(|| "n/a".to_string()),
                    r.error
                        .as_ref()
                        .map(|e| format!(" error={e}"))
                        .unwrap_or_default()
                );
            }
            0
        }
        Err(e) => {
            eprintln!("query error: {e}");
            1
        }
    }
}

/// Resolves a query argument: inline text or `@file.rq`.
fn query_text(rest: &[String]) -> Result<String, i32> {
    let Some(arg) = rest.first() else {
        eprintln!("missing query (inline text or @file.rq)");
        return Err(2);
    };
    if let Some(file) = arg.strip_prefix('@') {
        std::fs::read_to_string(file).map_err(|e| {
            eprintln!("cannot read {file}: {e}");
            1
        })
    } else {
        Ok(rest.join(" "))
    }
}

/// `wodex load` — streams an N-Triples dump into a segment store
/// directory in bounded memory (external merge sort).
fn bulk_load(rest: &[String]) -> i32 {
    let Some(input) = rest.first() else {
        eprintln!("missing input file\n{}", usage());
        return 2;
    };
    let mut cfg = wodex::seg::LoadConfig::default();
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let value = rest.get(i + 1);
        let parsed = match (flag, value) {
            ("--out", Some(v)) => {
                out = Some(v.clone());
                Ok(())
            }
            ("--mem-cap-mb", Some(v)) => v.parse::<u64>().map(|n| {
                cfg.mem_cap_bytes = n.max(1) * 1024 * 1024;
            }),
            ("--block-triples", Some(v)) => v.parse::<usize>().map(|n| {
                cfg.block_triples = n.max(1);
            }),
            ("--segment-max", Some(v)) => v.parse::<usize>().map(|n| {
                cfg.segment_max_triples = n.max(1);
            }),
            _ => {
                eprintln!("unknown or incomplete load flag {flag:?}\n{}", usage());
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {flag}");
            return 2;
        }
        i += 2;
    }
    let Some(out) = out else {
        eprintln!("missing --out <dir>\n{}", usage());
        return 2;
    };
    let file = match std::fs::File::open(input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {input}: {e}");
            return 1;
        }
    };
    let started = std::time::Instant::now();
    let report = match wodex::seg::load_ntriples(std::io::BufReader::new(file), out.as_ref(), &cfg)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load failed: {e}");
            return 1;
        }
    };
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let stored = report.segment_bytes + report.dict_bytes;
    println!(
        "loaded {} unique triples ({} parsed, {} terms) in {:.2}s ({:.0} triples/s)",
        report.triples,
        report.parsed,
        report.terms,
        secs,
        report.parsed as f64 / secs
    );
    println!(
        "external sort: {} run(s) spilled; {} segment(s) written",
        report.runs_spilled, report.segments
    );
    println!(
        "bytes: {} N-Triples → {} stored ({:.2}x)",
        report.bytes_read,
        stored,
        stored as f64 / report.bytes_read.max(1) as f64
    );
    println!("serve it: wodex serve seg:{out}");
    0
}

/// `wodex serve` — boots the HTTP serving layer over the loaded dataset
/// and blocks until `POST /admin/shutdown` (or SIGTERM). `seg_dir` set
/// means the dataset is a segment store: background compaction runs and
/// is stopped through the server's shutdown hooks.
fn serve(ex: Explorer, seg_dir: Option<std::path::PathBuf>, rest: &[String]) -> i32 {
    let mut cfg = ServeConfig::default();
    let mut coordinator_file: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let value = rest.get(i + 1);
        let parsed = match (flag, value) {
            ("--port", Some(v)) => v.parse::<u16>().map(|p| {
                cfg.addr = format!("127.0.0.1:{p}");
            }),
            ("--workers", Some(v)) => v.parse::<usize>().map(|n| cfg.workers = n),
            ("--queue", Some(v)) => v.parse::<usize>().map(|n| cfg.queue_depth = n),
            ("--deadline-ms", Some(v)) => v.parse::<u64>().map(|n| {
                cfg.deadline = std::time::Duration::from_millis(n);
            }),
            ("--sessions", Some(v)) => v.parse::<usize>().map(|n| cfg.session_capacity = n),
            ("--shard", Some(v)) => match parse_shard_spec(v) {
                Some((k, n)) => {
                    cfg.shard = Some((k, n));
                    Ok(())
                }
                None => {
                    eprintln!("--shard expects K/N with K < N (e.g. 0/4)");
                    return 2;
                }
            },
            ("--coordinator", Some(v)) => {
                coordinator_file = Some(v.clone());
                Ok(())
            }
            _ => {
                eprintln!("unknown or incomplete serve flag {flag:?}\n{}", usage());
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {flag}");
            return 2;
        }
        i += 2;
    }
    // Worker mode: keep only this process's subject-hash shard. The
    // rest of the server is unchanged — a shard is just a smaller
    // dataset plus the `/shard/*` endpoints answering for it.
    let ex = match cfg.shard {
        Some((k, n)) => {
            let map = wodex::store::ShardMap::new(n);
            let part = shard_part(ex.store(), &map, k);
            println!(
                "shard {k}/{n}: keeping {} of {} triples",
                part.len(),
                ex.store().len()
            );
            // The whole dataset goes before the shard's own store is built.
            drop(ex);
            Explorer::from_graph(part)
        }
        None => ex,
    };
    // Coordinator mode: /sparql scatter-gathers across the fleet.
    let coordinator = match &coordinator_file {
        Some(file) => {
            let listing = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return 1;
                }
            };
            let addrs = wodex::shard::Coordinator::parse_shards_file(&listing);
            if addrs.is_empty() {
                eprintln!("{file} lists no shard addresses");
                return 2;
            }
            println!(
                "coordinating {} shard(s): {}",
                addrs.len(),
                addrs.join(", ")
            );
            Some(std::sync::Arc::new(wodex::shard::Coordinator::new(
                addrs,
                wodex::shard::ShardClientConfig::default(),
            )))
        }
        None => None,
    };
    let mut server = match Server::bind_with_coordinator(ex, cfg, coordinator) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return 1;
        }
    };
    if let Some(dir) = seg_dir {
        let handle = wodex::seg::CompactorHandle::spawn(&dir, wodex::seg::CompactOpts::default());
        server.on_shutdown(move || handle.stop());
        println!(
            "background compaction on {} (stops on shutdown)",
            dir.display()
        );
    }
    install_sigterm(server.state(), server.addr());
    println!("listening on http://{}", server.addr());
    println!("endpoints: /healthz /stats /metrics /sparql /explore/* /viz/* /shard/* (POST /admin/shutdown to stop)");
    match server.run() {
        Ok(()) => {
            println!("shut down cleanly");
            0
        }
        Err(e) => {
            eprintln!("server error: {e}");
            1
        }
    }
}

/// Parses a `K/N` shard spec (`0/4` → shard 0 of 4).
fn parse_shard_spec(v: &str) -> Option<(u32, u32)> {
    let (k, n) = v.split_once('/')?;
    let (k, n) = (k.trim().parse::<u32>().ok()?, n.trim().parse::<u32>().ok()?);
    (n >= 1 && k < n).then_some((k, n))
}

/// Shard `k`'s part of `store` ([`wodex::store::ShardMap::partition`]
/// straight off the encoded store): one SPO scan, the owner hashed once
/// per subject run, and only the triples the shard owns decoded.
fn shard_part(
    store: &wodex::store::TripleStore,
    map: &wodex::store::ShardMap,
    k: u32,
) -> wodex::rdf::Graph {
    let mut part = wodex::rdf::Graph::new();
    let mut run: Option<(u32, bool)> = None;
    store.match_pattern_chunks(wodex::store::Pattern::any(), &mut |chunk| {
        for &t in chunk {
            let owned = match run {
                Some((s, owned)) if s == t[0] => owned,
                _ => map.shard_of(store.term(wodex::rdf::TermId(t[0]))) == k,
            };
            run = Some((t[0], owned));
            if owned {
                part.insert(store.decode(t));
            }
        }
        true
    });
    part
}

/// Parses a `.nt` (N-Triples) or any other (Turtle) document.
fn parse_document(path: &str) -> Result<wodex::rdf::Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if path.ends_with(".nt") {
        wodex::rdf::ntriples::parse(&text).map_err(|e| e.to_string())
    } else {
        wodex::rdf::turtle::parse(&text).map_err(|e| e.to_string())
    }
}

/// The dataset of a one-shot subcommand. A `seg:` store stays on disk —
/// the command reads the blocks it needs and exits — and a parsed
/// document is encoded into an in-memory store.
fn load(path: &str) -> Result<Explorer, String> {
    if let Some(dir) = path.strip_prefix("seg:") {
        let (dict, store) =
            wodex::seg::SegmentStore::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        let store = wodex::store::TripleStore::with_base(dict, std::sync::Arc::new(store));
        return Ok(Explorer::from_store(store));
    }
    Ok(Explorer::from_graph(parse_document(path)?))
}

/// The dataset of `wodex serve`: one resident single-level store, and
/// nothing else, whichever form the input had. A `seg:` directory is
/// scanned once, uncached, into the store (its dictionary moved, not
/// copied) and closed, so no decoded block outlives boot; a document's
/// parsed graph is dropped once the store is built from it.
fn load_resident(path: &str) -> Result<Explorer, String> {
    use wodex::store::{Pattern, SegmentSource, TripleStore};
    let Some(dir) = path.strip_prefix("seg:") else {
        return Ok(Explorer::from_graph(parse_document(path)?));
    };
    let (dict, mut segments) =
        wodex::seg::SegmentStore::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    segments.set_block_cache(None);
    let mut triples = Vec::with_capacity(segments.source_len());
    segments
        .scan_chunks(Pattern::any(), &mut |chunk| {
            triples.extend_from_slice(chunk);
            true
        })
        .map_err(|e| e.to_string())?;
    drop(segments);
    Ok(Explorer::from_store(TripleStore::from_encoded(
        dict, triples,
    )))
}

/// Installs a SIGTERM handler (raw `signal(2)` — the workspace is
/// std-only) plus a watcher thread that translates the flag into the
/// server's own shutdown protocol: set the flag, poke the accept loop.
/// Shutdown hooks (compactor stop) then run on the normal path.
fn install_sigterm(state: std::sync::Arc<wodex::serve::AppState>, addr: std::net::SocketAddr) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as *const () as usize);
        }
    }
    #[cfg(not(unix))]
    let _ = on_term as extern "C" fn(i32);
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::SeqCst) {
            state.shutdown.store(true, Ordering::SeqCst);
            let _ = std::net::TcpStream::connect(addr);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });
}

fn usage() -> &'static str {
    "usage: wodex <stats|classes|facets|search|query|explain|recommend|viz|paths> <file.{ttl,nt} | seg:dir> [args…]
       wodex explain <file.{ttl,nt} | seg:dir> <sparql | @query.rq> [--shards shards.txt]
       wodex load <file.nt> --out <dir> [--mem-cap-mb N] [--block-triples N] [--segment-max N]
       wodex serve [--store] <file.{ttl,nt} | seg:dir> [--port N] [--workers N] [--queue N] [--deadline-ms N] [--sessions N]
                   [--shard K/N] [--coordinator shards.txt]
       wodex tables"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shard_part_is_the_partition_of_the_decoded_graph() {
        let graph = wodex::synth::dbpedia::generate(&wodex::synth::dbpedia::DbpediaConfig {
            entities: 60,
            ..Default::default()
        });
        let store = wodex::store::TripleStore::from_graph(&graph);
        let map = wodex::store::ShardMap::new(3);
        for k in 0..3 {
            let part = shard_part(&store, &map, k);
            assert!(!part.is_empty());
            assert_eq!(part, map.partition(&graph, k));
        }
    }
}
