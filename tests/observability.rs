//! Conservation invariants of the observability layer (PR 4).
//!
//! Metrics are only trustworthy if the accounting conserves: every
//! lookup is a hit or a miss, every accepted connection is served or
//! shed, every attempt beyond an operation's first try is a retry, and
//! stage timings never exceed the wall clock that contains them. Each
//! test drives a real subsystem from 8 threads and checks the equation
//! on global-registry *deltas*, so the suite stays valid no matter how
//! many counters earlier tests already accumulated.
//!
//! The registry is process-global, so tests that read deltas serialize
//! on [`TEST_LOCK`]; within one test the driven subsystem still runs
//! fully concurrent.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use wodex::core::Explorer;
use wodex::resilience::{RetryPolicy, RetryStats};
use wodex::serve::{ServeConfig, Server};
use wodex::sparql::{Budget, QueryTrace, Stage};
use wodex::synth::dbpedia::{self, DbpediaConfig};

/// Serializes tests that compare global-counter deltas.
static TEST_LOCK: Mutex<()> = Mutex::new(());

const THREADS: usize = 8;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    *wodex::obs::global()
        .counter_values()
        .get(name)
        .unwrap_or(&0)
}

fn explorer(entities: usize) -> Explorer {
    Explorer::from_graph(dbpedia::generate(&DbpediaConfig {
        entities,
        ..Default::default()
    }))
}

/// One `GET`, read to EOF (head and body).
fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    write!(
        s,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read");
    buf
}

/// The decoded-block cache conserves its lookups — every one resolves
/// to exactly one hit or one miss, even with 8 threads racing cold
/// misses on the same blocks.
#[test]
fn segcache_lookups_conserve_under_concurrent_scans() {
    use wodex::rdf::ntriples;
    use wodex::seg::{load_ntriples, BlockCache, LoadConfig, SegmentStore};
    use wodex::store::{Pattern, TripleStore};

    let _guard = lock();
    // A segment-backed store with small blocks, so scans touch many
    // cacheable blocks, and a local cache attached (the registry series
    // are process-global regardless of which instance feeds them).
    let mem = TripleStore::from_graph(&dbpedia::generate(&DbpediaConfig {
        entities: 150,
        ..Default::default()
    }));
    let graph: wodex::rdf::Graph = mem
        .match_pattern(Pattern::any())
        .into_iter()
        .map(|t| mem.decode(t))
        .collect();
    let dir = std::env::temp_dir().join(format!("wodex_obs_segcache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    load_ntriples(
        ntriples::serialize(&graph).as_bytes(),
        &dir,
        &LoadConfig {
            block_triples: 32,
            ..LoadConfig::default()
        },
    )
    .expect("bulk load");
    let (dict, mut segs) = SegmentStore::open(&dir).expect("open");
    let cache = std::sync::Arc::new(BlockCache::new(8 << 20));
    segs.set_block_cache(Some(std::sync::Arc::clone(&cache)));
    let store = TripleStore::with_base(dict, std::sync::Arc::new(segs));

    let before = (
        counter("wodex_segcache_lookups_total"),
        counter("wodex_segcache_hits_total"),
        counter("wodex_segcache_misses_total"),
    );
    let all = store.match_pattern(Pattern::any());
    assert!(!all.is_empty());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, all) = (&store, &all);
            scope.spawn(move || {
                for round in 0..4 {
                    // Full scans and point probes interleave so cold
                    // misses, racing misses and warm hits all occur.
                    assert_eq!(store.match_pattern(Pattern::any()).len(), all.len());
                    let probe = all[(t * 37 + round * 11) % all.len()];
                    assert!(!store
                        .match_pattern(Pattern::any().with_s(wodex::rdf::TermId(probe[0])))
                        .is_empty());
                }
            });
        }
    });
    let lookups = counter("wodex_segcache_lookups_total") - before.0;
    let hits = counter("wodex_segcache_hits_total") - before.1;
    let misses = counter("wodex_segcache_misses_total") - before.2;
    assert!(lookups > 0, "the scans must have gone through the cache");
    assert!(misses > 0, "a cold cache must miss at least once");
    assert!(hits > 0, "repeated scans must hit decoded blocks");
    assert_eq!(
        hits + misses,
        lookups,
        "every decoded-block lookup must resolve to exactly one hit or miss"
    );
    // The instance's own stats conserve identically.
    let s = cache.stats();
    let ord = std::sync::atomic::Ordering::Relaxed;
    assert_eq!(
        s.hits.load(ord) + s.misses.load(ord),
        s.lookups.load(ord),
        "per-instance conservation"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `wodex_segcache_bytes` reports bytes held by caches that exist:
/// dropping a filled cache takes its bytes off the gauge.
#[test]
fn segcache_bytes_gauge_returns_when_a_cache_is_dropped() {
    use wodex::seg::{BlockCache, BlockKey};

    let _guard = lock();
    let gauge = || {
        let values = wodex::obs::global().gauge_values();
        values.get("wodex_segcache_bytes").copied().unwrap_or(0)
    };
    let before = gauge();
    let cache = BlockCache::new(1 << 20);
    for block in 0..64 {
        let key = BlockKey {
            segment: 1,
            section: 0,
            block,
        };
        cache.insert(key, std::sync::Arc::new(vec![[block; 3]; 100]));
    }
    let held = cache.resident_bytes() as i64;
    assert!(held > 0);
    assert_eq!(gauge() - before, held);
    drop(cache);
    assert_eq!(gauge(), before, "a dropped cache still counted");
}

/// The view cache obeys the same law — every lookup is one hit or one
/// miss — and single-flight bounds the pipeline runs: eight threads
/// racing cold misses on a handful of keys render each key once, so
/// `renders <= misses`. The exploration-index gauges and these counters
/// are also what `/stats` and `/metrics` report.
#[test]
fn viewcache_lookups_conserve_under_concurrent_chart_requests() {
    let _guard = lock();
    let names = ["lookups", "hits", "misses", "renders"];
    let read = || names.map(|n| counter(&format!("wodex_viewcache_{n}_total")));
    let before = read();
    let server = Server::bind(explorer(150), ServeConfig::default())
        .expect("bind")
        .spawn();
    let state = server.state();
    let predicates = ["population", "area", "foundingDate"];
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (state, barrier) = (&state, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..6 {
                    let p = predicates[(t + round) % predicates.len()];
                    let p = format!("http://dbp.example.org/ontology/{p}");
                    let budget = Budget::unlimited().with_row_cap(1_000_000);
                    let (view, degraded) = state.explorer.visualize_budgeted(&p, &budget);
                    assert!(degraded.is_none() && view.svg.contains("<svg"));
                    assert!(!state.explorer.cached_view(&p).recommendations.is_empty());
                }
            });
        }
    });
    let [lookups, hits, misses, renders] = {
        let after = read();
        [0, 1, 2, 3].map(|i| after[i] - before[i])
    };
    assert_eq!(lookups, (THREADS * 6 * 2) as u64);
    assert_eq!(
        hits + misses,
        lookups,
        "every lookup is one hit or one miss"
    );
    assert_eq!(renders, predicates.len() as u64, "one render per key");
    assert!(renders <= misses);
    assert_eq!(state.explorer.view_cache().renders(), renders);

    let metrics = http_get(server.addr(), "/metrics");
    let stats = http_get(server.addr(), "/stats");
    server.shutdown().expect("clean shutdown");
    let bytes = state.explorer.explore_index().bytes();
    assert!(metrics.contains(&format!("\nwodex_explore_index_bytes {bytes}\n")));
    assert!(metrics.contains("# TYPE wodex_explore_index_build_seconds gauge"));
    assert!(stats.contains(&format!(
        "\"explore_index\":{{\"bytes\":{bytes},\"build_seconds\":"
    )));
    for (name, total) in names.iter().zip(read()) {
        assert!(metrics.contains(&format!("\nwodex_viewcache_{name}_total {total}\n")));
        assert!(
            stats.contains(&format!("\"{name}\":{total}")),
            "{name} in {stats}"
        );
    }
}

/// One `GET /healthz` on `conn`, read by its own framing: the status and
/// whether the server keeps the connection — or `None` when the
/// connection turned out to be closed before a response byte arrived (an
/// idle persistent connection the server had let go of).
fn healthz_on(conn: &mut BufReader<TcpStream>, close: bool) -> Option<(u16, bool)> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let request = format!("GET /healthz HTTP/1.1\r\nHost: t\r\n{connection}\r\n");
    conn.get_mut().write_all(request.as_bytes()).ok()?;
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        if conn.read_line(&mut head).ok()? == 0 {
            assert!(head.is_empty(), "closed mid-response: {head:?}");
            return None;
        }
    }
    let head = head.to_ascii_lowercase();
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok());
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse::<usize>().ok());
    let mut body = vec![0; length.expect("a framed response")];
    conn.read_exact(&mut body).expect("body");
    Some((
        status.expect("a status"),
        head.contains("connection: keep-alive"),
    ))
}

/// Admission counts connections, work counts requests: every accepted
/// connection is admitted or shed, and every response a client reads was
/// counted as served — with half of the clients keeping their
/// connections for as long as the server lets them.
#[test]
fn accepted_connections_are_served_or_shed() {
    let _guard = lock();
    let names = [
        "wodex_serve_accepted_total",
        "wodex_serve_admitted_total",
        "wodex_serve_served_total",
        "wodex_serve_requests_reused_total",
        "wodex_serve_shed_total{gate=\"queue_full\"}",
        "wodex_serve_shed_total{gate=\"queue_wait\"}",
    ];
    let before = names.map(counter);
    // A deliberately narrow server so some of the burst gets shed.
    let cfg = ServeConfig {
        workers: 2,
        queue_depth: 2,
        ..Default::default()
    };
    let server = Server::bind(explorer(80), cfg).expect("bind").spawn();
    let addr = server.addr();
    // What the clients saw: connections made, 200s read, 200s read on a
    // connection that had answered before, 503s read.
    let seen = [const { AtomicU64::new(0) }; 4];
    let [connects, ok_seen, reused_seen, shed_seen] = &seen;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let keeps = t % 2 == 0;
                // The connection and how many answers it has carried.
                let mut conn: Option<(BufReader<TcpStream>, u32)> = None;
                let mut answered = 0;
                while answered < 12 {
                    let (c, carried) = conn.get_or_insert_with(|| {
                        let s = TcpStream::connect(addr).expect("connect");
                        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                        connects.fetch_add(1, Ordering::Relaxed);
                        (BufReader::new(s), 0)
                    });
                    match healthz_on(c, !keeps) {
                        // Only a connection that was idle may turn out
                        // closed; the request was never started on, so
                        // sending it again is safe.
                        None => assert!(*carried > 0, "a fresh connection was dropped"),
                        Some((200, kept)) => {
                            ok_seen.fetch_add(1, Ordering::Relaxed);
                            reused_seen.fetch_add((*carried > 0) as u64, Ordering::Relaxed);
                            *carried += 1;
                            answered += 1;
                            assert!(keeps || !kept, "close was asked for");
                            if kept {
                                continue;
                            }
                        }
                        Some((503, kept)) => {
                            assert!(!kept && *carried == 0, "only a connection is shed");
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                            answered += 1;
                        }
                        Some(other) => panic!("unexpected answer {other:?}"),
                    }
                    conn = None;
                }
            });
        }
    });
    // Shutdown joins every worker, so all accounting is final after it.
    server.shutdown().expect("clean shutdown");
    let after = names.map(counter);
    let [accepted, admitted, served, reused, shed_full, shed_wait] =
        [0, 1, 2, 3, 4, 5].map(|i| after[i] - before[i]);
    let [connects, ok_seen, reused_seen, shed_seen] = seen.map(AtomicU64::into_inner);
    assert_eq!(accepted, connects, "every client connection is accepted");
    assert_eq!(
        admitted + shed_full,
        accepted,
        "every accepted connection is admitted or shed, never dropped"
    );
    assert_eq!(
        served, ok_seen,
        "served requests are the answers clients read from admitted connections"
    );
    assert_eq!(
        shed_full + shed_wait,
        shed_seen,
        "server-side shed count must match the 503s clients observed"
    );
    assert_eq!(
        reused, reused_seen,
        "reuse as the server and the clients saw it"
    );
    assert!(
        reused > 0,
        "no connection was ever kept: the laws went untested"
    );
    assert_eq!(ok_seen + shed_seen, (THREADS * 12) as u64);
}

#[test]
fn retries_equal_attempts_minus_first_tries() {
    let _guard = lock();
    let before_ops = counter("wodex_retry_ops_total");
    let before_attempts = counter("wodex_retry_attempts_total");
    let before_retries = counter("wodex_retry_retries_total");
    let policy = RetryPolicy {
        max_attempts: 3,
        base_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
        jitter: false,
    };
    let stats = RetryStats::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (policy, stats) = (&policy, &stats);
            scope.spawn(move || {
                for i in 0..50u32 {
                    // A mix of immediate successes, recoveries after one
                    // or two transient failures, and permanent giveups.
                    let fail_first = (t as u32 + i) % 4; // 0..=3 failures
                    let calls = std::cell::Cell::new(0u32);
                    let _ = policy.run(
                        stats,
                        |_e: &&str| true,
                        |_attempt| {
                            let c = calls.get() + 1;
                            calls.set(c);
                            if c > fail_first {
                                Ok(c)
                            } else {
                                Err("transient")
                            }
                        },
                        |_, e| e,
                    );
                }
            });
        }
    });
    let snap = stats.snapshot();
    assert_eq!(snap.ops, (THREADS * 50) as u64);
    assert_eq!(
        snap.retries,
        snap.attempts - snap.ops,
        "per-instance: every attempt beyond an op's first try is a retry"
    );
    let ops = counter("wodex_retry_ops_total") - before_ops;
    let attempts = counter("wodex_retry_attempts_total") - before_attempts;
    let retries = counter("wodex_retry_retries_total") - before_retries;
    assert_eq!(ops, snap.ops);
    assert_eq!(
        retries,
        attempts - ops,
        "global mirror: retries == attempts - first tries"
    );
}

#[test]
fn stage_times_never_exceed_wall_time() {
    let _guard = lock();
    let ex = explorer(150);
    let trace = QueryTrace::new();
    let b = ex
        .sparql_traced(
            "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             SELECT ?s ?p WHERE { ?s dbo:population ?p . FILTER(?p > 1000) }",
            &Budget::unlimited(),
            &trace,
        )
        .expect("query");
    assert!(!b.result.table().expect("solutions").rows.is_empty());
    // Add a caller-side serialize span, as the HTTP layer does.
    {
        let _span = trace.span(Stage::Serialize);
        let _ = b.result.to_json();
    }
    let snap = trace.snapshot();
    assert!(
        snap.measured_nanos() <= snap.wall_nanos,
        "serial stage spans must sum to at most the wall clock: {} > {}",
        snap.measured_nanos(),
        snap.wall_nanos
    );
    assert!(trace.stage_nanos(Stage::BgpProbe) > 0, "probe stage timed");
    assert!(trace.stage_nanos(Stage::Decode) > 0, "decode stage timed");
    let header = trace.header_value();
    assert!(header.contains("bgp_probe="), "header: {header}");
    // A disabled trace records nothing at all.
    let off = QueryTrace::disabled();
    {
        let _span = off.span(Stage::Parse);
    }
    assert_eq!(off.snapshot().measured_nanos(), 0);
}

#[test]
fn traced_queries_feed_the_sparql_counters() {
    let _guard = lock();
    let before_q = counter("wodex_sparql_queries_total");
    let before_probed = counter("wodex_sparql_rows_probed_total");
    let before_decoded = counter("wodex_sparql_rows_decoded_total");
    let ex = explorer(100);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let ex = &ex;
            scope.spawn(move || {
                for _ in 0..3 {
                    let r = ex
                        .sparql_budgeted(
                            "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                             SELECT ?s WHERE { ?s dbo:population ?p }",
                            &Budget::unlimited(),
                        )
                        .expect("query");
                    assert!(r.degraded.is_none());
                }
            });
        }
    });
    let queries = counter("wodex_sparql_queries_total") - before_q;
    let probed = counter("wodex_sparql_rows_probed_total") - before_probed;
    let decoded = counter("wodex_sparql_rows_decoded_total") - before_decoded;
    assert_eq!(queries, (THREADS * 3) as u64);
    assert_eq!(probed, (THREADS * 3 * 100) as u64);
    assert!(
        decoded <= probed,
        "a query cannot decode more rows than its probes produced"
    );
}

#[test]
fn plan_cache_lookups_conserve_under_concurrent_planning() {
    let _guard = lock();
    let before_lookups = counter("wodex_plan_cache_lookups_total");
    let before_hits = counter("wodex_plan_cache_hits_total");
    let before_misses = counter("wodex_plan_cache_misses_total");
    let before_built = counter("wodex_plan_built_total");
    let ex = explorer(120);
    // Two shapes, queried concurrently: a chain join and a star with a
    // filter. Every evaluation of a multi-pattern group is one cache
    // lookup; the constants differ across iterations but the abstract
    // shape (and thus the cache key) does not.
    let chain = |n: u64| {
        format!(
            "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             SELECT ?s ?p WHERE {{ ?s a dbo:City . ?s dbo:population ?p \
             FILTER(?p > {n}) }}"
        )
    };
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ex = &ex;
            let chain = &chain;
            scope.spawn(move || {
                for i in 0..6u64 {
                    let r = ex
                        .sparql_budgeted(&chain(t as u64 * 100 + i), &Budget::unlimited())
                        .expect("query");
                    assert!(r.degraded.is_none());
                }
            });
        }
    });
    let lookups = counter("wodex_plan_cache_lookups_total") - before_lookups;
    let hits = counter("wodex_plan_cache_hits_total") - before_hits;
    let misses = counter("wodex_plan_cache_misses_total") - before_misses;
    let built = counter("wodex_plan_built_total") - before_built;
    assert_eq!(
        lookups,
        (THREADS * 6) as u64,
        "every multi-pattern evaluation is exactly one cache lookup"
    );
    assert_eq!(
        hits + misses,
        lookups,
        "every plan-cache lookup must resolve to exactly one hit or miss"
    );
    assert_eq!(built, misses, "every miss builds exactly one plan");
    assert!(hits > 0, "repeated shapes must eventually hit");
    assert!(misses >= 1, "the first query of a shape must miss");
}

#[test]
fn wco_rows_and_seeks_conserve_on_cyclic_queries() {
    let _guard = lock();
    // A deterministic ring-with-chords: arcs i→i+1 and i+2→i (mod 60)
    // make every (i, i+1, i+2) a directed triangle — 60 triangles × 3
    // rotations = 180 rows — and 120 arcs keep the group over the
    // multiway join's minimum-input threshold.
    use wodex::rdf::{Graph, Term, Triple};
    let n = 60u32;
    let mut g = Graph::new();
    for i in 0..n {
        g.insert(Triple::iri(
            &format!("http://t.org/n{i}"),
            "http://t.org/cites",
            Term::iri(format!("http://t.org/n{}", (i + 1) % n)),
        ));
        g.insert(Triple::iri(
            &format!("http://t.org/n{}", (i + 2) % n),
            "http://t.org/cites",
            Term::iri(format!("http://t.org/n{i}")),
        ));
    }
    let ex = Explorer::from_graph(g);
    let before_rows = counter("wodex_plan_rows_total{op=\"wco\"}");
    let before_seeks = counter("wodex_plan_wco_seeks_total");
    let before_advances = counter("wodex_plan_wco_advances_total");
    // Filterless, so every row the operator produces survives to the
    // result: the op="wco" series must conserve exactly.
    let q = "PREFIX t: <http://t.org/>\n\
             SELECT ?a ?b ?c WHERE { ?a t:cites ?b . ?b t:cites ?c . ?c t:cites ?a }";
    let produced = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (ex, produced) = (&ex, &produced);
            scope.spawn(move || {
                for _ in 0..3 {
                    let r = ex
                        .sparql_budgeted(q, &Budget::unlimited())
                        .expect("triangle query");
                    assert!(r.degraded.is_none());
                    let rows = r.result.table().expect("solutions").len() as u64;
                    assert_eq!(rows, 180, "60 triangles x 3 rotations");
                    produced.fetch_add(rows, Ordering::Relaxed);
                }
            });
        }
    });
    let rows = counter("wodex_plan_rows_total{op=\"wco\"}") - before_rows;
    let seeks = counter("wodex_plan_wco_seeks_total") - before_seeks;
    let advances = counter("wodex_plan_wco_advances_total") - before_advances;
    assert_eq!(
        rows,
        produced.load(Ordering::Relaxed),
        "every row the multiway join reports must reach the result"
    );
    assert!(seeks > 0, "the multiway join must seek its cursors");
    assert!(advances > 0, "the multiway join must descend its tries");
}

#[test]
fn cached_plans_return_the_same_rows_as_cold_plans() {
    let _guard = lock();
    let ex = explorer(150);
    let q = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
             PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
             SELECT ?s ?p ?l WHERE { ?s a dbo:City . ?s dbo:population ?p . \
             ?s rdfs:label ?l FILTER(?p >= 0) }";
    // Cold run caches the plan (the store was just built, so its
    // revision is fresh and no earlier test can have seeded this key).
    let cold = ex
        .sparql_budgeted(q, &Budget::unlimited())
        .expect("cold query");
    let cold_rows = cold.result.table().expect("solutions").len();
    assert!(cold_rows > 0);
    let before_hits = counter("wodex_plan_cache_hits_total");
    // Hot runs from 8 threads must all replay the cached plan and land
    // on exactly the cold row count.
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let ex = &ex;
            scope.spawn(move || {
                for _ in 0..4 {
                    let hot = ex
                        .sparql_budgeted(q, &Budget::unlimited())
                        .expect("hot query");
                    assert!(hot.degraded.is_none());
                    assert_eq!(
                        hot.result.table().expect("solutions").len(),
                        cold_rows,
                        "a cached plan changed the answer"
                    );
                }
            });
        }
    });
    let hits = counter("wodex_plan_cache_hits_total") - before_hits;
    assert_eq!(
        hits,
        (THREADS * 4) as u64,
        "every hot run must hit the plan cache"
    );
}

/// PR 9: plan-cache snapshot pinning. Cached plans are keyed by the
/// store revision, and an MVCC snapshot's store never changes revision
/// — so a reader re-querying its pinned snapshot keeps *hitting* the
/// plans it warmed, no matter how many commits land meanwhile, while
/// every lookup still resolves to exactly one hit or miss.
mod plan_pinning {
    use super::{counter, lock};
    use wodex::rdf::{Graph, Term, Triple};
    use wodex::sparql::{query_budgeted, Budget};
    use wodex::store::{LiveStore, TripleStore, WriteBatch};

    fn iri(k: &str, i: u64) -> Term {
        Term::iri(format!("http://ex.org/pin/{k}{i}"))
    }

    fn graph(n: u64) -> Graph {
        (0..n)
            .flat_map(|i| {
                [
                    Triple::new(iri("s", i), iri("p", 0), Term::literal(format!("a{i}"))),
                    Triple::new(iri("s", i), iri("p", 1), Term::literal(format!("b{i}"))),
                ]
            })
            .collect()
    }

    const Q: &str = "SELECT ?s ?a ?b WHERE { ?s <http://ex.org/pin/p0> ?a . \
                     ?s <http://ex.org/pin/p1> ?b }";

    #[test]
    fn snapshot_pinned_plans_stay_hot_across_commits() {
        let _guard = lock();
        let live = LiveStore::new(TripleStore::from_graph(&graph(40)));
        let pinned = live.snapshot();
        let before_lookups = counter("wodex_plan_cache_lookups_total");
        let before_hits = counter("wodex_plan_cache_hits_total");
        let before_misses = counter("wodex_plan_cache_misses_total");

        // Cold query warms the plan under the pinned revision.
        let cold = query_budgeted(pinned.store(), Q, &Budget::unlimited()).expect("cold");
        let rows = cold.result.table().expect("solutions").len();
        assert_eq!(rows, 40);
        assert_eq!(counter("wodex_plan_cache_misses_total") - before_misses, 1);

        // Writers land ten commits; the pinned snapshot doesn't move.
        for i in 0..10u64 {
            let mut b = WriteBatch::new();
            b.insert(Triple::new(
                iri("s", 100 + i),
                iri("p", 0),
                Term::literal(format!("a{i}")),
            ));
            live.commit(&b).expect("commit");
        }
        assert_eq!(live.revision(), 10);

        // Re-querying the pinned snapshot only ever hits: its revision
        // — and therefore its cache key — is frozen.
        for _ in 0..6 {
            let hot = query_budgeted(pinned.store(), Q, &Budget::unlimited()).expect("hot");
            assert_eq!(hot.result.table().expect("solutions").len(), rows);
        }
        assert_eq!(
            counter("wodex_plan_cache_hits_total") - before_hits,
            6,
            "pinned-snapshot re-queries must all hit"
        );
        assert_eq!(
            counter("wodex_plan_cache_misses_total") - before_misses,
            1,
            "commits must not evict or re-key the pinned plan"
        );

        // The head snapshot carries a fresh revision: one miss to warm
        // its key, hits thereafter — old plans are never served for new
        // data.
        let head = live.snapshot();
        assert_ne!(head.revision(), pinned.revision());
        let first = query_budgeted(head.store(), Q, &Budget::unlimited()).expect("head cold");
        assert_eq!(first.result.table().expect("solutions").len(), rows);
        let again = query_budgeted(head.store(), Q, &Budget::unlimited()).expect("head hot");
        assert_eq!(again.result.table().expect("solutions").len(), rows);
        assert_eq!(counter("wodex_plan_cache_misses_total") - before_misses, 2);
        assert_eq!(counter("wodex_plan_cache_hits_total") - before_hits, 7);

        // Conservation holds across the whole dance.
        let lookups = counter("wodex_plan_cache_lookups_total") - before_lookups;
        let hits = counter("wodex_plan_cache_hits_total") - before_hits;
        let misses = counter("wodex_plan_cache_misses_total") - before_misses;
        assert_eq!(
            hits + misses,
            lookups,
            "every lookup is one hit or one miss"
        );
    }
}
