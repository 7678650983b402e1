//! Integration tests of the `wodex-serve` HTTP layer: every endpoint,
//! progressive chunked streaming, persistent connections, admission-
//! control shedding, recovery, and clean shutdown — all against a real
//! socket on an ephemeral port.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wodex::core::Explorer;
use wodex::serve::server::IdleClose;
use wodex::serve::{RunningServer, ServeConfig, Server};
use wodex::synth::dbpedia::{self, DbpediaConfig};

const POP: &str = "http://dbp.example.org/ontology/population";

fn dataset() -> wodex::rdf::Graph {
    dbpedia::generate(&DbpediaConfig {
        entities: 120,
        ..Default::default()
    })
}

/// An explorer in the shape `wodex serve` boots: a store, no graph yet.
fn explorer() -> Explorer {
    Explorer::from_store(wodex::store::TripleStore::from_graph(&dataset()))
}

fn boot(cfg: ServeConfig) -> RunningServer {
    Server::bind(explorer(), cfg).expect("bind").spawn()
}

/// A fully read, parsed HTTP response.
#[derive(Debug)]
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    /// De-chunked (or plain) body bytes.
    body: Vec<u8>,
    /// Number of chunks on the wire (0 for non-chunked responses).
    chunks: usize,
    /// Trailers after the terminal chunk.
    trailers: Vec<(String, String)>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .chain(self.trailers.iter())
            .find(|(k, _)| k.to_ascii_lowercase() == name)
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends `raw` — a request that says `Connection: close` — and reads
/// the connection to EOF, then parses status, headers, body, chunks, and
/// trailers.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.write_all(raw).expect("send");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read");
    parse_response(&buf)
}

fn parse_response(buf: &[u8]) -> Response {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let mut rest = &buf[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("transfer-encoding") && v.contains("chunked"));
    if !chunked {
        return Response {
            status,
            headers,
            body: rest.to_vec(),
            chunks: 0,
            trailers: Vec::new(),
        };
    }
    // De-chunk.
    let mut body = Vec::new();
    let mut chunks = 0usize;
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size_str = String::from_utf8_lossy(&rest[..line_end]);
        let size = usize::from_str_radix(size_str.trim(), 16).expect("hex chunk size");
        rest = &rest[line_end + 2..];
        if size == 0 {
            break;
        }
        body.extend_from_slice(&rest[..size]);
        chunks += 1;
        rest = &rest[size + 2..]; // skip chunk CRLF
    }
    // Trailers until the blank line.
    let trailers = String::from_utf8_lossy(rest)
        .lines()
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body,
        chunks,
        trailers,
    }
}

fn get(addr: SocketAddr, target: &str) -> Response {
    raw_request(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: wodex\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, target: &str, body: &str) -> Response {
    raw_request(
        addr,
        format!(
            "POST {target} HTTP/1.1\r\nHost: wodex\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Pulls `"key":<number>` or `"key":"string"` out of a flat JSON response
/// (enough for these assertions without a parser dependency).
fn json_str(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = &body[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().map(|s| s.to_string())
    } else {
        rest.split([',', '}', ']'])
            .next()
            .map(|s| s.trim().to_string())
    }
}

#[test]
fn every_endpoint_answers() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    // Session lifecycle: open → overview → facets → filter → zoom →
    // search → hits → details → undo → trace.
    let open = post(addr, "/explore/open", "");
    assert_eq!(open.status, 200);
    let token = json_str(&open.text(), "session").expect("token");

    let overview = get(addr, &format!("/explore/overview?session={token}"));
    assert_eq!(overview.status, 200);
    assert!(overview.chunks >= 2, "overview streams progressively");
    assert!(overview.text().contains("\"class\""));

    let facets = get(addr, &format!("/explore/facets?session={token}"));
    assert!(facets.text().contains("\"predicate\""));

    let filter = get(
        addr,
        &format!(
            "/explore/filter?session={token}&predicate=http%3A%2F%2Fwww.w3.org%2F1999%2F02%2F22-rdf-syntax-ns%23type&value=http%3A%2F%2Fdbp.example.org%2Fontology%2FCity"
        ),
    );
    assert_eq!(filter.status, 200);
    let after_filter: usize = json_str(&filter.text(), "matching")
        .unwrap()
        .parse()
        .unwrap();
    assert!(after_filter > 0 && after_filter < 120);

    let zoom = get(
        addr,
        &format!("/explore/zoom?session={token}&predicate={POP}&lo=0&hi=1e12"),
    );
    assert_eq!(zoom.status, 200);
    assert_eq!(
        json_str(&zoom.text(), "operations").unwrap(),
        "2",
        "filter + zoom logged"
    );

    let search = get(addr, &format!("/explore/search?session={token}&q=city"));
    assert_eq!(search.status, 200);

    let hits = get(
        addr,
        &format!("/explore/hits?session={token}&q=city&limit=5"),
    );
    assert!(hits.text().contains("\"hits\""));

    let details = get(
        addr,
        &format!(
            "/explore/details?session={token}&iri=http%3A%2F%2Fdbp.example.org%2Fresource%2FE0"
        ),
    );
    assert!(details.text().contains("\"rows\""));

    let undo = get(addr, &format!("/explore/undo?session={token}"));
    assert!(undo.text().contains("\"undone\":\"search"));

    let trace = get(addr, &format!("/explore/trace?session={token}"));
    assert!(trace.text().contains("resources match"));

    // Viz endpoints.
    let rec = get(addr, &format!("/viz/recommend?predicate={POP}"));
    assert!(rec.text().contains("\"recommendations\""));

    let chart = get(addr, &format!("/viz/chart?predicate={POP}"));
    assert_eq!(chart.status, 200);
    assert!(chart.text().contains("<svg"));
    assert_eq!(chart.header("X-Wodex-Degraded"), Some("none"));

    let hist = get(addr, &format!("/viz/hist?predicate={POP}&bins=8"));
    assert_eq!(hist.status, 200);
    assert!(hist.text().contains("\"lo\""));
    assert_eq!(hist.header("X-Wodex-Degraded"), Some("none"));

    // SPARQL ASK.
    let ask = post(addr, "/sparql", "ASK { ?s ?p ?o }");
    assert_eq!(ask.status, 200);
    assert_eq!(ask.text(), "{\"head\":{},\"boolean\":true}");

    // Stats reflect the traffic.
    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    // `completed` increments after the response socket closes, so the
    // last few requests may not have landed yet — compare loosely.
    let completed: u64 = json_str(&stats.text(), "completed")
        .unwrap()
        .parse()
        .unwrap();
    assert!(completed >= 10, "completed={completed}");
    assert_eq!(
        json_str(&stats.text(), "triples").unwrap(),
        json_str(&health.text(), "explorer_triples").unwrap()
    );
    // No writes yet: the bind-time view and the live head agree.
    assert_eq!(
        json_str(&health.text(), "explorer_triples").unwrap(),
        json_str(&health.text(), "live_triples").unwrap()
    );

    // Errors: unknown path, unknown session, bad query, missing params.
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/explore/overview?session=zzz").status, 404);
    assert_eq!(get(addr, "/explore/overview").status, 400);
    assert_eq!(post(addr, "/sparql", "SELECT garbage {{{").status, 400);
    assert_eq!(post(addr, "/sparql", "").status, 400);

    rs.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_first_chart_requests_share_one_render() {
    const CLIENTS: usize = 8;
    let rs = boot(ServeConfig {
        workers: CLIENTS,
        ..Default::default()
    });
    let addr = rs.addr();
    let state = rs.state();
    let barrier = std::sync::Barrier::new(CLIENTS);
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let chart = get(addr, &format!("/viz/chart?predicate={POP}"));
                    assert_eq!(chart.status, 200);
                    assert_eq!(chart.header("X-Wodex-Degraded"), Some("none"));
                    chart.body
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert!(bodies[0].starts_with(b"<svg"));
    assert!(bodies.iter().all(|b| b == &bodies[0]), "byte-identical");
    assert_eq!(state.explorer.view_cache().renders(), 1);
    // The ranking of the same property is read off the same view, and a
    // cached chart is served whole even when the budget affords no row.
    let rec = get(addr, &format!("/viz/recommend?predicate={POP}"));
    assert!(rec.text().contains("\"recommendations\":[{"));
    let capped = get(addr, &format!("/viz/chart?predicate={POP}&row_cap=1"));
    assert_eq!(capped.header("X-Wodex-Degraded"), Some("none"));
    assert_eq!(capped.body, bodies[0]);
    assert_eq!(state.explorer.view_cache().renders(), 1);
    // Every client was handed the one cached view, and it is the chart a
    // second explorer over the same data draws.
    assert!(std::sync::Arc::ptr_eq(
        &state.explorer.cached_view(POP),
        &state.explorer.cached_view(POP)
    ));
    assert_eq!(state.explorer.view_cache().renders(), 1);
    let fresh = Explorer::from_graph(dataset());
    assert_eq!(bodies[0], fresh.visualize(POP).svg.as_bytes());
    let area = "http://dbp.example.org/ontology/area";
    let other = get(addr, &format!("/viz/chart?predicate={area}"));
    assert_eq!(other.body, fresh.visualize(area).svg.as_bytes());
    rs.shutdown().expect("clean shutdown");
}

/// At bind time the dataset is resident once: revision 0 of the live
/// store *is* the explorer's store. A commit layers a new version over
/// it; everything pinned to revision 0 keeps reading revision 0.
#[test]
fn explorer_and_live_store_share_one_store_until_a_commit_layers_over_it() {
    use std::sync::Arc;
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let state = rs.state();
    let before = state.live.snapshot();
    assert_eq!(before.revision(), 0);
    assert!(Arc::ptr_eq(
        &state.explorer.shared_store(),
        &before.store_arc()
    ));
    let health = get(addr, "/healthz").text();
    assert_eq!(
        json_str(&health, "explorer_triples"),
        json_str(&health, "live_triples")
    );
    // The summary read off the store's indexes is the profile's.
    let profile = Explorer::from_graph(dataset()).stats();
    assert_eq!(
        (
            state.dataset.triples,
            state.dataset.subjects,
            state.dataset.predicates
        ),
        (
            profile.triple_count,
            profile.subject_count,
            profile.predicate_count
        )
    );

    let city_filter = "predicate=http%3A%2F%2Fwww.w3.org%2F1999%2F02%2F22-rdf-syntax-ns%23type&value=http%3A%2F%2Fdbp.example.org%2Fontology%2FCity";
    let token = json_str(&post(addr, "/explore/open", "").text(), "session").expect("token");
    let cities = |token: &str| {
        let r = get(
            addr,
            &format!("/explore/filter?session={token}&{city_filter}"),
        );
        json_str(&r.text(), "matching").expect("matching")
    };
    let cities_before = cities(&token);
    let count = "SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://dbp.example.org/ontology/City> }";
    let count_before = post(addr, "/sparql", count).text();

    // One more city, through the write path.
    let new_city = wodex::rdf::Triple::iri(
        "http://ex.org/live/atlantis",
        wodex::rdf::vocab::rdf::TYPE,
        wodex::rdf::Term::iri("http://dbp.example.org/ontology/City"),
    );
    let commit = post(addr, "/data", &format!("{new_city}\n"));
    assert_eq!(json_str(&commit.text(), "revision").unwrap(), "1");

    // /sparql reads the new head …
    let after = state.live.snapshot();
    assert!(after.store().contains(&new_city));
    assert!(!Arc::ptr_eq(&before.store_arc(), &after.store_arc()));
    assert_ne!(post(addr, "/sparql", count).text(), count_before);
    // … while the snapshot taken before it, the explorer's store, the
    // open session and a session opened afterwards answer from revision 0.
    assert!(!before.store().contains(&new_city));
    assert!(!state.explorer.store().contains(&new_city));
    assert!(Arc::ptr_eq(
        &state.explorer.shared_store(),
        &before.store_arc()
    ));
    get(addr, &format!("/explore/undo?session={token}"));
    assert_eq!(cities(&token), cities_before);
    let late = json_str(&post(addr, "/explore/open", "").text(), "session").expect("token");
    assert_eq!(cities(&late), cities_before);
    let health = get(addr, "/healthz").text();
    let triples = |key| json_str(&health, key).unwrap().parse::<u64>().unwrap();
    assert_eq!(triples("live_triples"), triples("explorer_triples") + 1);
    rs.shutdown().expect("clean shutdown");
}

/// A write body that is not UTF-8 is refused whole: lossy decoding would
/// commit U+FFFD in place of bytes the client never sent.
#[test]
fn a_write_that_is_not_utf8_is_a_400_that_commits_nothing() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let post_bytes = |target: &str, body: &[u8]| {
        let mut raw = format!(
            "POST {target} HTTP/1.1\r\nHost: wodex\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw_request(addr, &raw)
    };
    let triple = |label: &[u8]| {
        let mut nt = b"<http://ex.org/live/s> <http://ex.org/live/p> \"".to_vec();
        nt.extend_from_slice(label);
        nt.extend_from_slice(b"\" .\n");
        nt
    };
    // 0xE9 is Latin-1 'é': a lone continuation-less lead byte in UTF-8.
    let bad = post_bytes("/data", &triple(b"caf\xE9"));
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(bad.text().contains("not UTF-8"), "{}", bad.text());
    let health = get(addr, "/healthz").text();
    assert_eq!(json_str(&health, "revision").unwrap(), "0");
    assert_eq!(
        json_str(&health, "explorer_triples"),
        json_str(&health, "live_triples")
    );
    let all = post(
        addr,
        "/sparql",
        "SELECT ?o WHERE { <http://ex.org/live/s> ?p ?o }",
    );
    assert_eq!(all.header("X-Wodex-Rows"), Some("0"));
    // The same batch in UTF-8 commits, with the bytes the client sent.
    let good = post_bytes("/data", &triple("café".as_bytes()));
    assert_eq!(good.status, 200, "{}", good.text());
    assert_eq!(json_str(&good.text(), "revision").unwrap(), "1");
    assert_eq!(json_str(&good.text(), "inserts").unwrap(), "1");
    // A query body gets the same treatment.
    let query = post_bytes("/sparql", b"SELECT ?s WHERE { ?s ?p \"caf\xE9\" }");
    assert_eq!(query.status, 400);
    assert!(query.text().contains("not UTF-8"), "{}", query.text());
    rs.shutdown().expect("clean shutdown");
}

/// A committed non-ASCII triple is found by its literal and by its IRI,
/// spelled plainly or with escapes, whether the query arrives as the
/// body or percent-encoded in `?query=`.
#[test]
fn non_ascii_queries_find_what_was_written_by_body_and_by_query_parameter() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let label = "http://www.w3.org/2000/01/rdf-schema#label";
    let line = format!("<http://example.org/café> <{label}> \"café\"@fr .\n");
    assert_eq!(post(addr, "/data", &line).status, 200);
    let percent_encoded = |text: &str| -> String {
        text.bytes()
            .map(|b| match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    };
    for query in [
        format!("SELECT ?s WHERE {{ ?s <{label}> \"café\"@fr }}"),
        format!("SELECT ?s WHERE {{ ?s <{label}> 'caf\\u00E9'@fr }}"),
        format!("SELECT ?o WHERE {{ <http://example.org/café> <{label}> ?o }}"),
        format!("SELECT ?s WHERE {{ ?s <{label}> ?o FILTER(CONTAINS(?o, \"é\")) }}"),
    ] {
        let by_body = post(addr, "/sparql", &query);
        let target = format!("/sparql?query={}", percent_encoded(&query));
        let by_parameter = post(addr, &target, "");
        for resp in [&by_body, &by_parameter] {
            assert_eq!(resp.status, 200, "{query}: {}", resp.text());
            assert_eq!(resp.header("X-Wodex-Rows"), Some("1"), "{query}");
        }
        assert_eq!(by_body.text(), by_parameter.text(), "{query}");
        assert!(by_body.text().contains("caf\u{e9}"), "{}", by_body.text());
    }
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn sparql_streams_chunks_that_reassemble_to_the_plain_answer() {
    let cfg = ServeConfig {
        stream_rows: 8,
        ..Default::default()
    };
    let rs = boot(cfg);
    let addr = rs.addr();
    let query = format!("SELECT ?s ?p WHERE {{ ?s <{POP}> ?p }} ORDER BY ?s");

    let resp = post(addr, "/sparql", &query);
    assert_eq!(resp.status, 200);
    // Progressive delivery: head + ceil(120/8) row groups + tail.
    assert!(
        resp.chunks >= 10,
        "expected many chunks, got {}",
        resp.chunks
    );
    assert_eq!(resp.header("X-Wodex-Degraded"), Some("none"));
    assert_eq!(resp.header("X-Wodex-Rows"), Some("120"));

    // The reassembled body is byte-identical to the non-streamed answer.
    let expected = explorer()
        .sparql(&query)
        .expect("direct evaluation")
        .to_json();
    assert_eq!(resp.text(), expected);

    rs.shutdown().expect("clean shutdown");
}

/// The SPARQL-JSON rows of a response, sorted (the engines may order an
/// unordered answer differently).
fn sorted_bindings(body: &str) -> Vec<String> {
    let open = "\"bindings\":[";
    let rows = &body[body.find(open).expect("a bindings array") + open.len()..];
    let rows = rows.strip_suffix("]}}").expect("a closed bindings array");
    // A row is an object of objects, so it alone ends in `}}`.
    let mut rows: Vec<String> = rows.split_inclusive("}},").map(str::to_string).collect();
    if let Some(last) = rows.last_mut() {
        last.push(',');
    }
    rows.sort();
    rows
}

#[test]
fn engine_parameter_selects_a_cost_based_engine_and_nothing_else() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let links = "http://dbp.example.org/ontology/linksTo";

    // The greedy reference is a test oracle, not a serving option.
    for engine in ["greedy", "nonsense", ""] {
        let resp = post(
            addr,
            &format!("/sparql?engine={engine}"),
            "ASK { ?s ?p ?o }",
        );
        assert_eq!(resp.status, 400, "engine={engine:?}");
        assert!(resp.text().contains("wco, pairwise"), "{}", resp.text());
    }

    let two_patterns = format!("SELECT ?s ?p ?b WHERE {{ ?s <{POP}> ?p . ?s <{links}> ?b }}");
    let triangle =
        format!("SELECT ?a ?b ?c WHERE {{ ?a <{links}> ?b . ?b <{links}> ?c . ?c <{links}> ?a }}");
    for (query, cyclic) in [(&two_patterns, false), (&triangle, true)] {
        let wco = post(addr, "/sparql?engine=wco", query);
        let pairwise = post(addr, "/sparql?engine=pairwise", query);
        let default = post(addr, "/sparql", query);
        for resp in [&wco, &pairwise, &default] {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("X-Wodex-Degraded"), Some("none"));
        }
        // Same answer whichever engine; the default is `wco`.
        let rows = sorted_bindings(&wco.text());
        assert!(!rows.is_empty(), "the query must match something");
        assert_eq!(rows, sorted_bindings(&pairwise.text()));
        assert_eq!(wco.text(), default.text());
        let ran_wco = |resp: &Response| {
            let plan = resp.header("X-Wodex-Plan").expect("a planned group");
            plan.split(',').any(|step| step.starts_with("wco:"))
        };
        assert_eq!(ran_wco(&wco), cyclic);
        assert_eq!(ran_wco(&default), cyclic);
        assert!(!ran_wco(&pairwise));
    }

    rs.shutdown().expect("clean shutdown");
}

#[test]
fn a_limit_that_overflows_with_its_offset_is_answered() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    // usize::MAX + 2 used to wrap to one row (which OFFSET then skipped)
    // in a release build and to panic the worker in a debug build.
    let query = format!(
        "SELECT ?s WHERE {{ ?s <{POP}> ?p }} LIMIT {} OFFSET 2",
        usize::MAX
    );
    let resp = post(addr, "/sparql", &query);
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("X-Wodex-Rows"),
        Some("118"),
        "120 cities less 2"
    );
    let none = post(
        addr,
        "/sparql",
        &format!("SELECT ?s WHERE {{ ?s <{POP}> ?p }} LIMIT 0"),
    );
    assert_eq!(none.header("X-Wodex-Rows"), Some("0"));
    // Every worker is still there to answer.
    for _ in 0..8 {
        assert_eq!(get(addr, "/healthz").status, 200);
    }
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn budget_tripped_queries_degrade_in_trailers_not_errors() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    // A full scan (~900 rows here) is wide enough that the row cap trips
    // mid-evaluation; budget polling is chunk-granular.
    let query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";

    let resp = post(addr, "/sparql?row_cap=10", query);
    assert_eq!(resp.status, 200, "degradation is not an error");
    let verdict = resp.header("X-Wodex-Degraded").expect("trailer");
    assert!(
        verdict.starts_with("row cap exceeded;coverage="),
        "got {verdict:?}"
    );
    // The partial body is still well-formed SPARQL JSON.
    let body = resp.text();
    assert!(body.starts_with("{\"head\":{\"vars\":[\"s\",\"p\",\"o\"]}"));
    assert!(body.ends_with("]}}"));

    let hist = get(addr, &format!("/viz/hist?predicate={POP}&row_cap=10"));
    let verdict = hist.header("X-Wodex-Degraded").expect("trailer");
    assert!(verdict.contains("coverage="), "got {verdict:?}");

    // A property with no values has nothing to cover: 0, not 0/0.
    let none = get(
        addr,
        "/viz/hist?predicate=http://nowhere.example.org/p&deadline_ms=0",
    );
    assert_eq!(
        none.header("X-Wodex-Degraded"),
        Some("deadline exceeded;coverage=0.000")
    );
    assert!(none.text().ends_with("\"values\":0}"), "{}", none.text());

    rs.shutdown().expect("clean shutdown");
}

#[test]
fn overload_sheds_503_with_retry_after_then_recovers() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(10),
        max_queue_wait: Duration::from_secs(30),
        ..Default::default()
    };
    let rs = boot(cfg);
    let addr = rs.addr();
    let st = rs.state();

    // Occupy the single worker: a partial request blocks its read until
    // more bytes arrive. Poll the in-process counters so the hold is
    // deterministic, not a sleep-and-hope race.
    let mut hold_a = TcpStream::connect(addr).expect("hold a");
    hold_a.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    wait_until("worker picked up hold a", || {
        st.inflight.load(Ordering::Relaxed) == 1
    });
    // Fill the one-slot queue with a second partial request.
    let mut hold_b = TcpStream::connect(addr).expect("hold b");
    hold_b.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    wait_until("hold b admitted to the queue", || {
        st.counters.admitted.load(Ordering::Relaxed) == 2
    });
    assert_eq!(st.counters.completed.load(Ordering::Relaxed), 0);

    // The next request must be refused immediately — never queued
    // without bound, never a dropped connection.
    let shed = get(addr, "/healthz");
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("Retry-After"), Some("1"));
    assert!(shed.text().contains("retry_after_secs"));

    // Honouring Retry-After after the load clears gets served again.
    drop(hold_a);
    drop(hold_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = get(addr, "/healthz");
        if r.status == 200 {
            break;
        }
        assert_eq!(r.status, 503);
        assert!(Instant::now() < deadline, "server did not recover in time");
        std::thread::sleep(Duration::from_millis(100));
    }

    let stats = get(addr, "/stats");
    let shed_count: u64 = json_str(&stats.text(), "shed_queue_full")
        .unwrap()
        .parse()
        .unwrap();
    assert!(shed_count >= 1);

    rs.shutdown().expect("clean shutdown");
}

/// 64 concurrent closed-loop clients against two workers: admission
/// control may shed, but every request gets a complete, well-formed
/// response — `200`, or `503` with `Retry-After` — never a reset, a
/// truncated body or a hang (`raw_request` panics on a failed connect,
/// a read error or timeout, and `parse_response` on a missing head or
/// terminal chunk).
#[test]
fn sixty_four_concurrent_clients_drop_no_connection() {
    use wodex::synth::rng::Rng;
    const CLIENTS: usize = 64;
    const REQUESTS: usize = 4;
    let rs = boot(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let addr = rs.addr();
    let sessions: Vec<String> = (0..CLIENTS)
        .map(|_| json_str(&post(addr, "/explore/open", "").text(), "session").expect("token"))
        .collect();
    let barrier = std::sync::Barrier::new(CLIENTS);
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(c, session)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rng = wodex::synth::rng(0x5E47E + c as u64);
                    barrier.wait();
                    (0..REQUESTS)
                        .map(|_| {
                            let r = match rng.random_range(0..10u32) {
                                0..=2 => post(
                                    addr,
                                    "/sparql",
                                    &format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}"),
                                ),
                                3 => post(addr, "/sparql", "ASK { ?s ?p ?o }"),
                                4 => get(addr, &format!("/explore/overview?session={session}")),
                                5 => get(addr, &format!("/explore/facets?session={session}")),
                                6 => get(
                                    addr,
                                    &format!(
                                        "/explore/zoom?session={session}&predicate={POP}&lo={}&hi=1e12",
                                        rng.random_range(0..500_000u64)
                                    ),
                                ),
                                7 => get(
                                    addr,
                                    &format!("/explore/hits?session={session}&q=city&limit=10"),
                                ),
                                8 => get(addr, &format!("/viz/hist?predicate={POP}&bins=16")),
                                _ => get(addr, "/stats"),
                            };
                            if let Some(len) = r.header("Content-Length") {
                                assert_eq!(len.parse(), Ok(r.body.len()), "truncated body");
                            }
                            match r.status {
                                200 => assert!(!r.body.is_empty()),
                                503 => assert!(r.header("Retry-After").is_some(), "bare 503"),
                                other => panic!("status {other}: {}", r.text()),
                            }
                            r.status
                        })
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(statuses.len(), CLIENTS * REQUESTS);
    assert!(statuses.contains(&200), "nothing was served");
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn admin_shutdown_stops_the_server() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let resp = post(addr, "/admin/shutdown", "");
    assert_eq!(resp.status, 200);
    // The accept loop exits; the join below must not hang.
    rs.shutdown().expect("clean shutdown");
    // A fresh connection is refused (or reset) once the listener is gone.
    std::thread::sleep(Duration::from_millis(100));
    let gone = TcpStream::connect(addr);
    if let Ok(mut s) = gone {
        // Listener sockets can linger briefly; a write must then fail.
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut buf = Vec::new();
        let n = s.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "no server should answer after shutdown");
    }
}

/// Shutdown hooks (PR 8: the segment compactor's stop handle rides
/// these) run exactly once after the worker scope drains, before
/// `run()`/`shutdown()` returns.
#[test]
fn shutdown_hooks_run_on_admin_shutdown() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let fired = Arc::new(AtomicUsize::new(0));
    let mut server = Server::bind(explorer(), ServeConfig::default()).expect("bind");
    let hook_fired = Arc::clone(&fired);
    server.on_shutdown(move || {
        hook_fired.fetch_add(1, Ordering::SeqCst);
    });
    let rs = server.spawn();
    let addr = rs.addr();
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "hook must wait for shutdown"
    );
    let resp = post(addr, "/admin/shutdown", "");
    assert_eq!(resp.status, 200);
    rs.shutdown().expect("clean shutdown");
    assert_eq!(fired.load(Ordering::SeqCst), 1, "hook runs exactly once");
}

#[test]
fn sessions_are_isolated_and_concurrent() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let t1 = json_str(&post(addr, "/explore/open", "").text(), "session").unwrap();
    let t2 = json_str(&post(addr, "/explore/open", "").text(), "session").unwrap();
    assert_ne!(t1, t2);
    get(
        addr,
        &format!("/explore/filter?session={t1}&predicate=http%3A%2F%2Fwww.w3.org%2F1999%2F02%2F22-rdf-syntax-ns%23type&value=http%3A%2F%2Fdbp.example.org%2Fontology%2FCity"),
    );
    // Session 2 is untouched by session 1's filter.
    let ops2 = json_str(
        &get(addr, &format!("/explore/search?session={t2}&q=city")).text(),
        "operations",
    )
    .unwrap();
    assert_eq!(ops2, "1");
    // Concurrent hammering from several clients neither hangs nor drops.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let token = [&t1, &t2][i % 2].clone();
            std::thread::spawn(move || {
                get(addr, &format!("/explore/overview?session={token}")).status
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("no panic"), 200);
    }
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn live_writes_commit_stream_and_pin_snapshots() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();

    let health = get(addr, "/healthz");
    assert_eq!(json_str(&health.text(), "revision").unwrap(), "0");

    let query = "SELECT ?o WHERE { <http://ex.org/live/s1> <http://ex.org/live/p> ?o }";
    let before = post(addr, "/sparql", query);
    assert_eq!(before.status, 200);
    assert_eq!(before.header("X-Wodex-Revision"), Some("0"));
    assert_eq!(before.header("X-Wodex-Rows"), Some("0"));

    // Commit two fresh triples; the response reports the published
    // revision and the effective change counts.
    let nt = "<http://ex.org/live/s1> <http://ex.org/live/p> \"v1\" .\n\
              <http://ex.org/live/s2> <http://ex.org/live/p> \"v2\" .\n";
    let commit = post(addr, "/data", nt);
    assert_eq!(commit.status, 200, "commit failed: {}", commit.text());
    assert_eq!(json_str(&commit.text(), "revision").unwrap(), "1");
    assert_eq!(json_str(&commit.text(), "inserts").unwrap(), "2");

    // Re-inserting the same triples is a no-op: nothing publishes.
    let noop = post(addr, "/data", nt);
    assert_eq!(json_str(&noop.text(), "revision").unwrap(), "1");
    assert_eq!(json_str(&noop.text(), "inserts").unwrap(), "0");

    // /sparql now answers from the new snapshot and names its revision.
    let after = post(addr, "/sparql", query);
    assert_eq!(after.header("X-Wodex-Revision"), Some("1"));
    assert_eq!(after.header("X-Wodex-Rows"), Some("1"));
    assert!(after.text().contains("v1"));

    // /healthz reports the explorer/live split distinctly: the live
    // store grew by the two committed triples, the bind-time view
    // served to /explore/* did not.
    let health = get(addr, "/healthz");
    let explorer: u64 = json_str(&health.text(), "explorer_triples")
        .unwrap()
        .parse()
        .unwrap();
    let live: u64 = json_str(&health.text(), "live_triples")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(live, explorer + 2);

    // Deletes go through the same endpoint with action=delete.
    let gone = post(
        addr,
        "/data?action=delete",
        "<http://ex.org/live/s2> <http://ex.org/live/p> \"v2\" .\n",
    );
    assert_eq!(json_str(&gone.text(), "revision").unwrap(), "2");
    assert_eq!(json_str(&gone.text(), "deletes").unwrap(), "1");

    // The subscribe feed replays both frames, decoded to N-Triples.
    let feed = get(addr, "/explore/subscribe?since=0");
    assert_eq!(feed.status, 200);
    let body = feed.text();
    assert_eq!(json_str(&body, "revision").unwrap(), "2");
    assert_eq!(json_str(&body, "resync").unwrap(), "false");
    assert_eq!(json_str(&body, "count").unwrap(), "2");
    assert!(body.contains("\\\"v1\\\"") || body.contains("v1"), "{body}");

    // A caught-up subscriber long-polls: a commit from another client
    // wakes it before the timeout.
    let waiter = std::thread::spawn(move || get(addr, "/explore/subscribe?since=2&wait_ms=5000"));
    std::thread::sleep(Duration::from_millis(100));
    let bump = post(
        addr,
        "/data",
        "<http://ex.org/live/s3> <http://ex.org/live/p> \"v3\" .\n",
    );
    assert_eq!(json_str(&bump.text(), "revision").unwrap(), "3");
    let woke = waiter.join().expect("no panic");
    assert_eq!(json_str(&woke.text(), "count").unwrap(), "1");
    assert!(woke.text().contains("s3"));

    // An empty poll past the head times out with zero frames.
    let idle = get(addr, "/explore/subscribe?since=3&wait_ms=50");
    assert_eq!(json_str(&idle.text(), "count").unwrap(), "0");
    assert_eq!(json_str(&idle.text(), "resync").unwrap(), "false");

    // A cursor *ahead* of the head — as held across a server restart
    // that reset revisions — is told to resync immediately rather than
    // silently treated as current (or left blocking out the long-poll).
    let t0 = std::time::Instant::now();
    let stale = get(addr, "/explore/subscribe?since=99&wait_ms=5000");
    assert_eq!(json_str(&stale.text(), "resync").unwrap(), "true");
    assert_eq!(json_str(&stale.text(), "count").unwrap(), "0");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "stale poll must not block"
    );

    rs.shutdown().expect("clean shutdown");
}

/// A request without a `Connection` header: HTTP/1.1's default, persist.
fn wire(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: wodex\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A client that keeps its connection and reads responses by their own
/// framing — exactly one at a time, never to EOF.
struct Persistent(BufReader<TcpStream>);

impl Persistent {
    fn connect(addr: SocketAddr) -> Persistent {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.set_nodelay(true).unwrap();
        Persistent(BufReader::new(s))
    }

    fn send(&mut self, raw: &[u8]) {
        self.0.get_mut().write_all(raw).expect("send");
    }

    /// Reads one line onto `raw` and returns it without its line end.
    fn line(&mut self, raw: &mut Vec<u8>) -> String {
        let at = raw.len();
        let n = self.0.read_until(b'\n', raw).expect("read");
        assert!(n > 0, "connection closed mid-response");
        String::from_utf8_lossy(&raw[at..]).trim_end().to_string()
    }

    fn read(&mut self) -> Response {
        let mut raw = Vec::new();
        let mut length = None;
        let mut chunked = false;
        loop {
            let line = self.line(&mut raw).to_ascii_lowercase();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length:") {
                length = Some(v.trim().parse::<usize>().expect("length"));
            }
            chunked |= line == "transfer-encoding: chunked";
        }
        if chunked {
            loop {
                let size = usize::from_str_radix(&self.line(&mut raw), 16).expect("chunk size");
                if size == 0 {
                    while !self.line(&mut raw).is_empty() {} // Trailers.
                    break;
                }
                let at = raw.len();
                raw.resize(at + size + 2, 0);
                self.0.read_exact(&mut raw[at..]).expect("chunk");
            }
        } else {
            let at = raw.len();
            raw.resize(at + length.expect("a framed response"), 0);
            self.0.read_exact(&mut raw[at..]).expect("body");
        }
        parse_response(&raw)
    }

    fn exchange(&mut self, raw: &[u8]) -> Response {
        self.send(raw);
        self.read()
    }

    /// Whether the server has closed: the next read is a clean EOF.
    fn closed_by_server(&mut self) -> bool {
        matches!(self.0.fill_buf(), Ok([]))
    }
}

/// Everything a response says except what varies run to run: digit runs
/// (timings, revisions, session numbers, the lengths that follow from
/// them) collapse to `#`, and the `Connection` header is set aside.
fn shape(r: &Response) -> (String, Option<String>) {
    let digits = |s: &str| {
        let mut out = String::new();
        for ch in s.chars() {
            match ch {
                '0'..='9' | '.' if out.ends_with('#') => {}
                '0'..='9' => out.push('#'),
                _ => out.push(ch),
            }
        }
        out
    };
    let fields = |fs: &[(String, String)]| {
        fs.iter()
            .filter(|(k, _)| !k.eq_ignore_ascii_case("connection"))
            .map(|(k, v)| format!("{k}: {}\n", digits(v)))
            .collect::<String>()
    };
    (
        format!(
            "{} chunks={}\n{}\n{}\n{}",
            r.status,
            r.chunks,
            fields(&r.headers),
            digits(&r.text()),
            fields(&r.trailers)
        ),
        r.header("Connection").map(str::to_string),
    )
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn idle_closed(rs: &RunningServer, reason: IdleClose) -> u64 {
    rs.state().counters.idle_closed[reason as usize].load(Ordering::Relaxed)
}

/// One connection carries a whole session — fixed and chunked answers,
/// a write, an error — and each answer is its one-shot twin's except for
/// the `Connection` header.
#[test]
fn one_connection_carries_twenty_requests_that_equal_their_one_shot_twins() {
    let kept = boot(ServeConfig::default());
    // The twins go to a second server so that the first one's connection
    // count is the kept connection's alone.
    let twins = boot(ServeConfig::default());
    let query = format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }} ORDER BY ?s");
    let triple = "<http://ex.org/live/s> <http://ex.org/live/p> \"v\" .\n";
    let requests = [
        ("GET", "/healthz", ""),
        ("POST", "/sparql", query.as_str()),
        ("POST", "/explore/open", ""),
        ("POST", "/data", triple),
        ("GET", "/nope", ""),
    ];
    let mut conn = Persistent::connect(kept.addr());
    let mut n = 0;
    for _ in 0..4 {
        for (method, target, body) in requests {
            let (answer, connection) = shape(&conn.exchange(&wire(method, target, body)));
            let twin = if method == "GET" {
                get(twins.addr(), target)
            } else {
                post(twins.addr(), target, body)
            };
            let (expected, twin_connection) = shape(&twin);
            assert_eq!(answer, expected, "{method} {target}");
            assert_eq!(connection.as_deref(), Some("keep-alive"), "{target}");
            assert_eq!(twin_connection.as_deref(), Some("close"), "{target}");
            n += 1;
        }
    }
    let sparql = conn.exchange(&wire("POST", "/sparql", &query));
    assert!(sparql.chunks >= 3, "chunked on a kept connection");
    assert_eq!(sparql.header("X-Wodex-Rows"), Some("120"), "trailers too");
    assert_eq!(sparql.text(), explorer().sparql(&query).unwrap().to_json());
    n += 1;
    let c = &kept.state().counters;
    wait_until("the last request is counted", || {
        c.completed.load(Ordering::Relaxed) == n
    });
    assert_eq!(c.accepted.load(Ordering::Relaxed), 1);
    assert_eq!(c.admitted.load(Ordering::Relaxed), 1);
    assert_eq!(c.reused.load(Ordering::Relaxed), n - 1);
    assert_eq!(c.not_found.load(Ordering::Relaxed), 4);
    drop(conn);
    kept.shutdown().expect("clean shutdown");
    twins.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let rs = boot(ServeConfig::default());
    let mut conn = Persistent::connect(rs.addr());
    let mut both = wire("POST", "/sparql", "ASK { ?s ?p ?o }");
    both.extend(wire("GET", "/nope", ""));
    both.extend(wire("GET", "/healthz", ""));
    conn.send(&both);
    let first = conn.read();
    assert_eq!(first.text(), "{\"head\":{},\"boolean\":true}");
    assert_eq!(conn.read().status, 404);
    assert!(conn.read().text().contains("\"status\":\"ok\""));
    assert_eq!(rs.state().counters.accepted.load(Ordering::Relaxed), 1);
    drop(conn);
    rs.shutdown().expect("clean shutdown");
}

/// Workers are lent to idle connections, never given: with every worker
/// holding one, a new connection is answered at once, at the price of
/// exactly one idle connection.
#[test]
fn an_idle_connection_gives_its_worker_to_a_queued_one() {
    let rs = boot(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = rs.addr();
    // The best of three rounds: the bound is about the server's idle
    // slice (milliseconds), not about this process's scheduling luck
    // while other tests run beside it.
    let mut best = Duration::MAX;
    for round in 1..=3 {
        let mut idle = [Persistent::connect(addr), Persistent::connect(addr)];
        for conn in &mut idle {
            let r = conn.exchange(&wire("GET", "/healthz", ""));
            assert_eq!(r.header("Connection"), Some("keep-alive"));
        }
        let asked = Instant::now();
        let third = get(addr, "/healthz");
        best = best.min(asked.elapsed());
        assert_eq!(third.status, 200, "answered, not shed");
        assert_eq!(idle_closed(&rs, IdleClose::Queue), round);
        // The client that lost its connection is told so by a clean
        // close; the other one goes on as if nothing had happened.
        for conn in &mut idle {
            conn.0
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
        }
        let [a, b] = &mut idle;
        let kept = match (a.closed_by_server(), b.closed_by_server()) {
            (true, false) => b,
            (false, true) => a,
            other => panic!("closed (a, b) = {other:?}"),
        };
        assert_eq!(kept.exchange(&wire("GET", "/healthz", "")).status, 200);
        // The next round starts with both workers free again.
        drop(idle);
        wait_until("the worker saw the kept client leave", || {
            idle_closed(&rs, IdleClose::Peer) == round
        });
    }
    assert!(best < Duration::from_millis(50), "waited {best:?}");
    assert_eq!(rs.state().counters.shed_total(), 0);
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn connection_close_and_http_1_0_are_answered_with_close() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    // `raw_request` reads to EOF: these return because the server closes.
    let closing = get(addr, "/healthz");
    assert_eq!(closing.header("Connection"), Some("close"));
    let old = raw_request(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!((old.status, old.header("Connection")), (200, Some("close")));
    let old = raw_request(
        addr,
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    );
    assert_eq!(old.header("Connection"), Some("close"));
    // A close among several tokens, in any case.
    let mut conn = Persistent::connect(addr);
    conn.send(b"GET /healthz HTTP/1.1\r\nConnection: TE, Close\r\n\r\n");
    assert_eq!(conn.read().header("Connection"), Some("close"));
    assert!(conn.closed_by_server());
    rs.shutdown().expect("clean shutdown");
}

/// A request whose end cannot be known must not be followed by another
/// on the same connection: 400, `close`, and the rest is never parsed.
#[test]
fn ambiguous_framing_is_a_400_that_closes_the_connection() {
    let rs = boot(ServeConfig::default());
    let addr = rs.addr();
    let smuggled = "GET /admin/never HTTP/1.1\r\n\r\n";
    let chunked_body = format!("{:x}\r\n{smuggled}\r\n0\r\n\r\n", smuggled.len());
    let huge = "x".repeat(1024 * 1024 + 1);
    let cases = [
        format!("POST /sparql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{chunked_body}"),
        format!(
            "POST /sparql HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: {}\r\n\r\n{smuggled}",
            smuggled.len()
        ),
        format!(
            "POST /sparql HTTP/1.1\r\nContent-Length: {}\r\n\r\n{huge}",
            huge.len()
        ),
        format!("POST /sparql HTTP/1.1\r\nContent-Length: -1\r\n\r\n{smuggled}"),
        format!("nonsense\r\n\r\n{smuggled}"),
    ];
    for (i, case) in cases.iter().enumerate() {
        let mut conn = Persistent::connect(addr);
        // The oversized body may still be on its way when the server
        // closes; a failed send is then the expected outcome.
        let _ = conn.0.get_mut().write_all(case.as_bytes());
        let answer = conn.read();
        assert_eq!(answer.status, 400, "case {i}: {}", answer.text());
        assert_eq!(answer.header("Connection"), Some("close"), "case {i}");
    }
    let c = &rs.state().counters;
    wait_until("every 400 is counted", || {
        c.completed.load(Ordering::Relaxed) == cases.len() as u64
    });
    assert_eq!(c.bad_requests.load(Ordering::Relaxed), cases.len() as u64);
    assert_eq!(c.not_found.load(Ordering::Relaxed), 0, "nothing smuggled");
    assert_eq!(c.reused.load(Ordering::Relaxed), 0);
    rs.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_closes_idle_connections_and_joins_at_once() {
    let rs = boot(ServeConfig {
        workers: 3,
        read_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = rs.addr();
    let mut idle = [Persistent::connect(addr), Persistent::connect(addr)];
    for conn in &mut idle {
        assert_eq!(conn.exchange(&wire("GET", "/healthz", "")).status, 200);
    }
    let mut admin = Persistent::connect(addr);
    let ack = admin.exchange(&wire("POST", "/admin/shutdown", ""));
    assert_eq!((ack.status, ack.header("Connection")), (200, Some("close")));
    let asked = Instant::now();
    let state = rs.state();
    rs.shutdown().expect("clean shutdown");
    assert!(
        asked.elapsed() < Duration::from_millis(500),
        "joined after {:?}",
        asked.elapsed()
    );
    assert_eq!(
        state.counters.idle_closed[IdleClose::Shutdown as usize].load(Ordering::Relaxed),
        2
    );
    for conn in &mut idle {
        assert!(conn.closed_by_server());
    }
}

#[test]
fn a_client_that_leaves_between_requests_frees_its_worker() {
    let rs = boot(ServeConfig {
        workers: 1,
        read_timeout: Duration::from_secs(10),
        ..Default::default()
    });
    let addr = rs.addr();
    let mut conn = Persistent::connect(addr);
    assert_eq!(conn.exchange(&wire("GET", "/healthz", "")).status, 200);
    drop(conn);
    // Nothing is queued, nothing timed out: the close alone frees the
    // only worker, long before `read_timeout`.
    wait_until("the worker saw the client leave", || {
        idle_closed(&rs, IdleClose::Peer) == 1
    });
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(idle_closed(&rs, IdleClose::Queue), 0);
    rs.shutdown().expect("clean shutdown");
}
