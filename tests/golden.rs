//! Golden-file tests for the observability surfaces (PR 4): the
//! `wodex explain` stage table and a `/metrics` scrape.
//!
//! Timings and counts vary run to run, so both surfaces are compared
//! after **digit normalization**: every maximal run of `[0-9.]` collapses
//! to `#` and space runs collapse to one space. What remains — the stage
//! names, column structure, series names, label sets, HELP/TYPE headers —
//! is exactly the contract a dashboard or parser depends on.
//!
//! Regenerate with `WODEX_BLESS=1 cargo test --test golden`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use wodex::core::Explorer;
use wodex::serve::{ServeConfig, Server};
use wodex::sparql::{Budget, QueryTrace, Stage};
use wodex::synth::dbpedia::{self, DbpediaConfig};

/// Collapses digit runs (with embedded dots) to `#` and space runs to a
/// single space, so only structure remains.
fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for line in s.lines() {
        let mut in_number = false;
        let mut in_space = false;
        for ch in line.chars() {
            match ch {
                '0'..='9' | '.' if in_number => {}
                '0'..='9' => {
                    in_number = true;
                    in_space = false;
                    out.push('#');
                }
                ' ' if in_space => {}
                ' ' => {
                    in_space = true;
                    in_number = false;
                    out.push(' ');
                }
                _ => {
                    in_number = false;
                    in_space = false;
                    out.push(ch);
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Compares `actual` (post-normalization) against the golden file, or
/// rewrites the golden when `WODEX_BLESS=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let normalized = normalize(actual);
    if std::env::var("WODEX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &normalized).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with WODEX_BLESS=1)", name));
    assert_eq!(
        normalized, expected,
        "golden mismatch for {name}; re-bless with WODEX_BLESS=1 if intended"
    );
}

fn explorer() -> Explorer {
    Explorer::from_graph(dbpedia::generate(&DbpediaConfig {
        entities: 120,
        ..Default::default()
    }))
}

const QUERY: &str = "PREFIX dbo: <http://dbp.example.org/ontology/>\n\
                     SELECT ?s ?p WHERE { ?s dbo:population ?p . FILTER(?p > 0) }";

#[test]
fn explain_table_structure_is_stable() {
    let ex = explorer();
    let trace = QueryTrace::new();
    let b = ex
        .sparql_traced(QUERY, &Budget::unlimited(), &trace)
        .expect("query");
    {
        let _span = trace.span(Stage::Serialize);
        let _ = b.result.to_json();
    }
    assert_golden("explain.txt", &trace.render_table());
}

#[test]
fn explain_plan_for_a_triangle_query_is_stable() {
    // A deterministic ring-with-chords (arcs i→i+1 and i+2→i mod 60)
    // whose 120 arcs keep the cyclic group over the multiway join's
    // minimum input, so `wodex explain` shows the `wco` operator.
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
    let trace = QueryTrace::new();
    let b = ex
        .sparql_traced(
            "PREFIX t: <http://t.org/>\n\
             SELECT ?a ?b ?c WHERE { ?a t:cites ?b . ?b t:cites ?c . ?c t:cites ?a }",
            &Budget::unlimited(),
            &trace,
        )
        .expect("triangle query");
    assert_eq!(b.result.table().expect("solutions").len(), 180);
    let explain = format!("{}\n{}", trace.render_table(), trace.render_plan_table());
    assert!(explain.contains("wco"), "plan table must show the wco step");
    assert_golden("explain_wco.txt", &explain);
}

#[test]
fn metrics_scrape_structure_is_stable() {
    let server = Server::bind(explorer(), ServeConfig::default())
        .expect("bind")
        .spawn();
    let addr = server.addr();
    // One query so the sparql families carry traffic.
    let post = format!(
        "POST /sparql HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        QUERY.len(),
        QUERY
    );
    let send = |raw: &str| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("send");
        let mut buf = Vec::new();
        s.read_to_end(&mut buf).expect("read");
        String::from_utf8_lossy(&buf).into_owned()
    };
    let sparql_resp = send(&post);
    assert!(sparql_resp.starts_with("HTTP/1.1 200"), "{sparql_resp}");
    assert!(
        sparql_resp.contains("X-Wodex-Trace:"),
        "trace header missing: {sparql_resp}"
    );
    let scrape = send("GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    server.shutdown().expect("clean shutdown");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(scrape.contains("text/plain; version=0.0.4"));
    let body = scrape
        .split("\r\n\r\n")
        .nth(1)
        .expect("metrics body")
        .to_string();
    // The process-global registry accumulates whatever other tests in
    // this binary touched; pin the golden to the serving and query
    // families, which this test drives deterministically.
    let stable: String = body
        .lines()
        .filter(|l| {
            let name = l
                .strip_prefix("# HELP ")
                .or_else(|| l.strip_prefix("# TYPE "))
                .unwrap_or(l);
            name.starts_with("wodex_serve_") || name.starts_with("wodex_sparql_")
        })
        .map(|l| format!("{l}\n"))
        .collect();
    assert_golden("metrics.txt", &stable);
}
