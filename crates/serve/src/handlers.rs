//! Endpoint handlers.
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness |
//! | `/stats` | GET | server + store + exec + session counters |
//! | `/sparql` | POST | budgeted query, chunked SPARQL-JSON streaming |
//! | `/data` | POST | commit an N-Triples write batch (MVCC) |
//! | `/explore/open` | GET/POST | open a session, returns its token |
//! | `/explore/subscribe` | GET | long-poll revision-stamped delta frames |
//! | `/explore/overview` | GET | class → instance counts (streamed) |
//! | `/explore/facets` | GET | facet predicates and cardinalities |
//! | `/explore/filter` | GET | apply a facet filter |
//! | `/explore/zoom` | GET | apply a numeric range restriction |
//! | `/explore/search` | GET | apply a keyword restriction |
//! | `/explore/hits` | GET | stateless ranked keyword preview |
//! | `/explore/details` | GET | resource view (details-on-demand) |
//! | `/explore/undo` | GET | undo the last operation |
//! | `/explore/trace` | GET | the session narrative (text) |
//! | `/viz/recommend` | GET | ranked chart recommendations |
//! | `/viz/chart` | GET | budgeted LDVM pipeline → SVG |
//! | `/viz/hist` | GET | budgeted histogram, bins streamed |
//! | `/shard/scan` | GET | worker-mode pattern scan, N-Triples streamed |
//! | `/shard/health` | GET | worker-mode shard placement + size |
//! | `/admin/shutdown` | POST | graceful stop |
//!
//! Degraded (budget-tripped) answers are **not** errors: `/sparql` and
//! `/viz/hist` report them in HTTP trailers after the streamed body
//! (`X-Wodex-Degraded`, `X-Wodex-Rows`), `/viz/chart` in a response
//! header — the body stays a well-formed partial answer.
//!
//! **One store, two views of it.** At bind time the dataset is resident
//! once: revision 0 of the MVCC [`LiveStore`](wodex_store::LiveStore) is
//! the explorer's own store, shared by `Arc`. `POST /data`, `/sparql`
//! (outside coordinator mode) and `GET /explore/subscribe` read the live
//! store's *current* snapshot and see every commit, each commit layering
//! a new version over the shared one. The exploration sessions
//! (`/explore/open` through `/explore/trace`) and the viz endpoints keep
//! reading the **bind-time** view — revision 0, with the one shared
//! exploration index (facet and token postings, numeric columns) and the
//! view cache built over it, none of which is re-derived per commit — so
//! a write is visible to `/sparql` and the subscribe feed immediately
//! but not to an open exploration session (and nothing ever invalidates
//! a cached chart). `/healthz` reports both views' triple counts
//! distinctly. Folding live snapshots into the exploration engines is
//! the open item tracked in ROADMAP.md.
//!
//! No term-level copy of the dataset exists beside that state: a
//! `/viz/chart` or `/viz/recommend` that misses the view cache decodes
//! the one property it draws (a POS range of the explorer's store; an
//! unknown predicate reads nothing) for the call and drops it.
//!
//! **One connection, many requests.** [`handle`] serves a connection
//! until a response says `Connection: close` — the client asked for it
//! (or spoke HTTP/1.0), the request was malformed, the server is
//! stopping, or another connection is waiting for a worker — or until
//! the connection sits idle while its worker is needed elsewhere (see the
//! server module docs). Handlers never see any of this: they answer
//! through an [`Out`], which settles the header when the head is built.

use crate::http::{read_request, write_response, ChunkedWriter, ParseError, Request};
use crate::server::{hang_up, serve_metrics, wake, AppState, Conn, IdleClose, Queue};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wodex_rdf::Term;
use wodex_sparql::results::json_string as js;
use wodex_sparql::{Budget, Degraded, Engine, QueryResult, QueryTrace, Stage};

/// Entries per chunk when streaming overview rows / histogram bins.
const STREAM_GROUP: usize = 16;

/// How long a worker waits on an idle persistent connection before it
/// looks up to see whether it is needed elsewhere.
const IDLE_SLICE: Duration = Duration::from_millis(2);

/// Where one request's response goes: the connection, and whether it
/// stays open afterwards.
pub(crate) struct Out<'a> {
    stream: &'a TcpStream,
    state: &'a AppState,
    queue: &'a Queue,
    /// Until the head is built: whether the request allows the connection
    /// to persist. From then on: whether the response promised it will.
    keep_alive: bool,
}

impl Out<'_> {
    /// Settles the `Connection` header — as late as the head allows, so
    /// that a connection queued while this request ran is seen: a worker
    /// somebody is waiting for must not be promised to this client, and
    /// nothing more starts on a server that is stopping.
    fn settle(&mut self) -> bool {
        self.keep_alive = self.keep_alive
            && !self.state.shutdown.load(Ordering::SeqCst)
            && !self.queue.backlogged();
        self.keep_alive
    }

    /// Writes a complete fixed-length response.
    fn respond(
        &mut self,
        status: u16,
        reason: &str,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) {
        let keep_alive = self.settle();
        let _ = write_response(
            self,
            keep_alive,
            status,
            reason,
            content_type,
            extra_headers,
            body,
        );
    }

    /// Writes a `200` JSON response.
    fn json(&mut self, body: &str) {
        self.respond(200, "OK", "application/json", &[], body.as_bytes());
    }

    /// Starts a `200` chunked response.
    fn chunked(
        &mut self,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        trailer_names: &[&str],
    ) -> ChunkedWriter<&mut Self> {
        let keep_alive = self.settle();
        ChunkedWriter::start(
            self,
            keep_alive,
            200,
            "OK",
            content_type,
            extra_headers,
            trailer_names,
        )
    }
}

impl Out<'_> {
    /// A response cut short leaves the connection mid-message: no other
    /// response may follow on it.
    fn close_on_error<T>(&mut self, written: io::Result<T>) -> io::Result<T> {
        if written.is_err() {
            self.keep_alive = false;
        }
        written
    }
}

impl Write for Out<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.stream.write(buf);
        self.close_on_error(written)
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let written = self.stream.write_vectored(bufs);
        self.close_on_error(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serves one connection: parse, route, respond, and again while the
/// response said the connection persists. Returns the queued connection
/// this one was given up for while idle, if it was, for the worker to
/// serve next.
pub(crate) fn handle(state: &AppState, queue: &Queue, stream: TcpStream) -> Option<Conn> {
    // Responses leave in whole parts, so there is nothing for Nagle to
    // gather — and on a persistent connection a held-back segment meets
    // the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(&stream);
    let mut served = 0u64;
    let mut taken = None;
    loop {
        if served > 0 && !next_request_arrived(state, queue, &stream, &mut reader, &mut taken) {
            break;
        }
        let _ = stream.set_read_timeout(Some(state.cfg.read_timeout));
        state.inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut out = Out {
            stream: &stream,
            state,
            queue,
            keep_alive: false,
        };
        let answered = match read_request(&mut reader) {
            Ok(req) => {
                out.keep_alive = req.keep_alive;
                route(state, &req, &mut out);
                true
            }
            // Where the next request would start is unknowable: answer
            // and close rather than parse a body as a request.
            Err(ParseError::Malformed(why)) => {
                bad_request(state, &mut out, why);
                true
            }
            // Peer closed early or the read timed out: nothing to answer.
            Err(ParseError::Closed) | Err(ParseError::Io(_)) => false,
        };
        state.inflight.fetch_sub(1, Ordering::Relaxed);
        if !answered {
            break;
        }
        serve_metrics()
            .request_seconds
            .observe(started.elapsed().as_nanos() as u64);
        state.counters.inc_completed();
        if served > 0 {
            state.counters.inc_reused();
        }
        served += 1;
        if !out.keep_alive {
            break;
        }
    }
    hang_up(&stream);
    taken
}

/// Waits between two requests of a persistent connection. True once the
/// next request's first byte is buffered; false when the connection is
/// to be closed instead — not a byte of a request has been consumed
/// then, so nothing the server started on is ever dropped, and the
/// client's one reconnect finds its request unserved. `taken` receives
/// the queued connection the idle one is closed for.
fn next_request_arrived(
    state: &AppState,
    queue: &Queue,
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    taken: &mut Option<Conn>,
) -> bool {
    if !reader.buffer().is_empty() {
        return true; // Pipelined behind the previous request.
    }
    let _ = stream.set_read_timeout(Some(IDLE_SLICE));
    let idle_since = Instant::now();
    let reason = loop {
        match reader.fill_buf() {
            Ok([]) => break IdleClose::Peer,
            Ok(_) => return true,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break IdleClose::Peer,
        }
        if state.shutdown.load(Ordering::SeqCst) {
            break IdleClose::Shutdown;
        }
        *taken = queue.try_take();
        if taken.is_some() {
            break IdleClose::Queue;
        }
        if idle_since.elapsed() >= state.cfg.read_timeout {
            break IdleClose::Timeout;
        }
    };
    state.counters.inc_idle_closed(reason);
    false
}

fn route(state: &AppState, req: &Request, out: &mut Out<'_>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state, out),
        ("GET", "/stats") => stats(state, out),
        ("GET", "/metrics") => metrics(out),
        ("POST", "/sparql") => sparql(state, req, out),
        ("POST", "/data") => data_commit(state, req, out),
        ("GET", "/explore/open") | ("POST", "/explore/open") => explore_open(state, out),
        ("GET", "/explore/subscribe") => explore_subscribe(state, req, out),
        ("GET", "/explore/overview") => explore_overview(state, req, out),
        ("GET", "/explore/facets") => explore_facets(state, req, out),
        ("GET", "/explore/filter") => explore_filter(state, req, out),
        ("GET", "/explore/zoom") => explore_zoom(state, req, out),
        ("GET", "/explore/search") => explore_search(state, req, out),
        ("GET", "/explore/hits") => explore_hits(state, req, out),
        ("GET", "/explore/details") => explore_details(state, req, out),
        ("GET", "/explore/undo") => explore_undo(state, req, out),
        ("GET", "/explore/trace") => explore_trace(state, req, out),
        ("GET", "/viz/recommend") => viz_recommend(state, req, out),
        ("GET", "/viz/chart") => viz_chart(state, req, out),
        ("GET", "/viz/hist") => viz_hist(state, req, out),
        ("GET", "/shard/scan") => shard_scan(state, req, out),
        ("GET", "/shard/health") => shard_health(state, out),
        ("POST", "/admin/shutdown") => admin_shutdown(state, out),
        _ => {
            state.counters.inc_not_found();
            error_json(out, 404, "Not Found", "no such endpoint");
        }
    }
}

/// Writes `{"error": why}` with the given status.
fn error_json(out: &mut Out<'_>, status: u16, reason: &str, why: &str) {
    let body = format!("{{\"error\":{}}}", js(why));
    out.respond(status, reason, "application/json", &[], body.as_bytes());
}

fn bad_request(state: &AppState, out: &mut Out<'_>, why: &str) {
    state.counters.inc_bad_request();
    error_json(out, 400, "Bad Request", why);
}

/// The per-request budget: the config's deadline/row cap, optionally
/// tightened (never widened) by `deadline_ms` / `row_cap` parameters.
fn request_budget(state: &AppState, req: &Request) -> Budget {
    let cfg = &state.cfg;
    let deadline = req
        .param("deadline_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .map_or(cfg.deadline, |d| d.min(cfg.deadline));
    let rows = req
        .param("row_cap")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(cfg.row_cap, |r| {
            if cfg.row_cap == 0 {
                r
            } else {
                r.min(cfg.row_cap)
            }
        });
    let mut b = Budget::unlimited().with_deadline(deadline);
    if rows > 0 {
        b = b.with_row_cap(rows);
    }
    b
}

/// The trailer value describing how (or whether) a response degraded.
fn degraded_trailer(d: &Option<Degraded>) -> String {
    match d {
        None => "none".to_string(),
        Some(d) => format!("{};coverage={:.3}", d.reason, d.coverage),
    }
}

/// A finite float for JSON (`null` when not representable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `GET /healthz` — liveness plus the shape of *both* views: the
/// bind-time explorer store (what `/explore/*` and `/viz/*` serve) and
/// the live store's current snapshot (what `/sparql`, `POST /data`, and
/// the subscribe feed see), reported distinctly so the counts never read
/// as one dataset when writes have made them diverge.
fn healthz(state: &AppState, out: &mut Out<'_>) {
    let snap = state.live.snapshot();
    let body = format!(
        concat!(
            "{{\"status\":\"ok\",\"explorer_triples\":{},",
            "\"live_triples\":{},\"revision\":{},\"uptime_ms\":{}}}"
        ),
        state.explorer.store().len(),
        snap.store().len(),
        snap.revision(),
        state.started.elapsed().as_millis()
    );
    out.json(&body);
}

/// `GET /metrics` — the process-wide registry in Prometheus text
/// exposition format 0.0.4. One scrape covers every layer that has run
/// in this process (serve, exec, store, sparql, explore, retry).
fn metrics(out: &mut Out<'_>) {
    let body = wodex_obs::render_prometheus(wodex_obs::global());
    let content_type = "text/plain; version=0.0.4; charset=utf-8";
    out.respond(200, "OK", content_type, &[], body.as_bytes());
}

/// The `/stats` fragment describing this process's place in a shard
/// topology: worker placement, or per-shard fleet health (breaker
/// state, open/shed counts, observed p95) in coordinator mode.
fn topology_json(state: &AppState) -> String {
    if let Some(coord) = &state.coordinator {
        let shards = coord
            .health()
            .iter()
            .map(|h| {
                format!(
                    concat!(
                        "{{\"index\":{},\"addr\":{},\"breaker\":{},",
                        "\"consecutive_failures\":{},\"opens\":{},\"sheds\":{},",
                        "\"p95_ms\":{},\"samples\":{}}}"
                    ),
                    h.index,
                    js(&h.addr),
                    js(h.breaker.state.name()),
                    h.breaker.consecutive_failures,
                    h.breaker.opens,
                    h.breaker.sheds,
                    h.p95_ms.map_or("null".to_string(), json_f64),
                    h.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        return format!("\"shards\":[{shards}],");
    }
    match state.cfg.shard {
        Some((k, n)) => format!("\"shard\":{{\"index\":{k},\"of\":{n}}},"),
        None => String::new(),
    }
}

fn stats(state: &AppState, out: &mut Out<'_>) {
    let c = &state.counters;
    let s = state.sessions.stats();
    let x = wodex_exec::stats();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    // Decoded-block cache, exploration index and view cache series, read
    // through the registry so the serving layer needs no dependency on
    // the crates that own them. The segcache ones are zero when the
    // store is not seg-backed (the series never registers).
    let cv = wodex_obs::global().counter_values();
    let gv = wodex_obs::global().gauge_values();
    let counter = |name: &str| cv.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| gv.get(name).copied().unwrap_or(0);
    let body = format!(
        concat!(
            "{{\"requests\":{{\"accepted\":{},\"admitted\":{},\"completed\":{},",
            "\"shed_queue_full\":{},\"shed_queue_wait\":{},\"bad_requests\":{},",
            "\"not_found\":{},\"degraded\":{},\"inflight\":{},\"reused\":{},",
            "\"idle_closed\":{{{}}}}},",
            "\"sessions\":{{\"active\":{},\"opened\":{},\"evicted\":{},\"expired\":{}}},",
            "\"store\":{{\"triples\":{},\"subjects\":{},\"predicates\":{}}},",
            "\"exec\":{{\"map_calls\":{},\"map_items\":{},\"fold_calls\":{}}},",
            "\"segcache\":{{\"lookups\":{},\"hits\":{},\"misses\":{},",
            "\"evictions\":{},\"bytes\":{}}},",
            "\"explore_index\":{{\"bytes\":{},\"build_seconds\":{}}},",
            "\"viewcache\":{{\"lookups\":{},\"hits\":{},\"misses\":{},\"renders\":{}}},",
            "\"config\":{{\"workers\":{},\"queue_depth\":{},\"deadline_ms\":{},\"row_cap\":{}}},",
            "{}\"uptime_ms\":{}}}"
        ),
        load(&c.accepted),
        load(&c.admitted),
        load(&c.completed),
        load(&c.shed_queue_full),
        load(&c.shed_queue_wait),
        load(&c.bad_requests),
        load(&c.not_found),
        load(&c.degraded),
        state.inflight.load(Ordering::Relaxed),
        load(&c.reused),
        IdleClose::ALL
            .map(|r| format!("\"{}\":{}", r.name(), load(&c.idle_closed[r as usize])))
            .join(","),
        s.active,
        s.opened,
        s.evicted,
        s.expired,
        state.dataset.triples,
        state.dataset.subjects,
        state.dataset.predicates,
        x.map.calls,
        x.map.items,
        x.fold.calls,
        counter("wodex_segcache_lookups_total"),
        counter("wodex_segcache_hits_total"),
        counter("wodex_segcache_misses_total"),
        counter("wodex_segcache_evictions_total"),
        gauge("wodex_segcache_bytes"),
        gauge("wodex_explore_index_bytes"),
        // The gauge's raw unit is microseconds.
        json_f64(gauge("wodex_explore_index_build_seconds") as f64 / 1e6),
        counter("wodex_viewcache_lookups_total"),
        counter("wodex_viewcache_hits_total"),
        counter("wodex_viewcache_misses_total"),
        counter("wodex_viewcache_renders_total"),
        state.cfg.effective_workers(),
        state.cfg.queue_depth,
        state.cfg.deadline.as_millis(),
        state.cfg.row_cap,
        topology_json(state),
        state.started.elapsed().as_millis()
    );
    out.json(&body);
}

/// `POST /sparql` — evaluates the body (or `query` parameter) under the
/// request budget and streams the SPARQL 1.1 JSON result in chunks:
/// first the head, then `stream_rows`-sized groups of solution rows,
/// then the tail, then trailers carrying the degradation verdict. The
/// reassembled body is byte-identical to `QueryResult::to_json`.
///
/// An optional `engine` parameter selects how multi-pattern groups are
/// planned — `wco` (the default: cost-based plans, multiway joins on
/// cyclic groups) or `pairwise` (cost-based plans, pairwise operators
/// only) — useful for A/B-ing plans in place; the engines answer
/// identically. The greedy reference engine is a test oracle, not a
/// serving option.
///
/// Outside coordinator mode the query runs against the live store's
/// current MVCC snapshot; the `X-Wodex-Revision` response header names
/// the revision the answer is pinned to.
fn sparql(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let text = if req.body.is_empty() {
        req.param("query").unwrap_or("")
    } else {
        match std::str::from_utf8(&req.body) {
            Ok(text) => text,
            Err(e) => return bad_request(state, out, &format!("query is not UTF-8: {e}")),
        }
    };
    if text.trim().is_empty() {
        bad_request(state, out, "empty query (send it as the POST body)");
        return;
    }
    let engine = match req.param("engine").unwrap_or("wco") {
        "wco" => Engine::Wco,
        "pairwise" => Engine::Pairwise,
        other => {
            bad_request(
                state,
                out,
                &format!("unknown engine {other:?} (expected one of: wco, pairwise)"),
            );
            return;
        }
    };
    let budget = request_budget(state, req);
    let trace = QueryTrace::new();
    // Coordinator mode scatter-gathers across the shard fleet; the
    // local path pins an MVCC snapshot and evaluates against its frozen
    // store, so a query never observes a concurrent commit and its
    // plans stay cached under the snapshot's revision. Both paths
    // converge on (result, degraded) and stream identically, the
    // coordinator adding a per-shard report trailer.
    let (result, degraded, shard_wire, revision) = if let Some(coord) = &state.coordinator {
        match coord.query_traced_with(text, &budget, &trace, engine) {
            Ok(c) => {
                let wire = c
                    .shards
                    .iter()
                    .map(|r| r.wire())
                    .collect::<Vec<_>>()
                    .join(",");
                (c.result, c.degraded, Some(wire), None)
            }
            Err(e) => {
                bad_request(state, out, &e.to_string());
                return;
            }
        }
    } else {
        let snap = state.live.snapshot();
        match wodex_sparql::query_traced_with(snap.store(), text, &budget, &trace, engine) {
            Ok(b) => (b.result, b.degraded, None, Some(snap.revision())),
            Err(e) => {
                bad_request(state, out, &e.to_string());
                return;
            }
        }
    };
    if degraded.is_some() {
        state.counters.inc_degraded();
    }
    // The engine stages are done, so their timings can ride a response
    // header; serialization is still ahead and rides a trailer. Planned
    // queries additionally report per-step estimated vs. actual rows.
    let trace_header = trace.header_value();
    let plan_header = trace
        .plan_steps()
        .iter()
        .map(|s| format!("{}:est={}:act={}", s.op, s.est_rows, s.actual_rows))
        .collect::<Vec<_>>()
        .join(",");
    let revision_header = revision.map(|r| r.to_string());
    let mut headers: Vec<(&str, &str)> = vec![("X-Wodex-Trace", trace_header.as_str())];
    if !plan_header.is_empty() {
        headers.push(("X-Wodex-Plan", plan_header.as_str()));
    }
    if let Some(r) = revision_header.as_deref() {
        headers.push(("X-Wodex-Revision", r));
    }
    let mut trailers = vec![
        "X-Wodex-Degraded",
        "X-Wodex-Rows",
        "X-Wodex-Trace-Serialize",
    ];
    if shard_wire.is_some() {
        trailers.push("X-Wodex-Shards");
    }
    let mut cw = out.chunked("application/json", &headers, &trailers);
    let serialize_span = trace.span(Stage::Serialize);
    let rows_sent: usize;
    let write_ok = match &result {
        QueryResult::Solutions(t) => {
            rows_sent = t.len();
            stream_table(&mut cw, t, state.cfg.stream_rows)
        }
        other => {
            rows_sent = 0;
            cw.chunk(other.to_json().as_bytes())
        }
    };
    drop(serialize_span);
    trace.add_items(Stage::Serialize, rows_sent as u64);
    if write_ok.is_ok() {
        let mut finals = vec![
            ("X-Wodex-Degraded", degraded_trailer(&degraded)),
            ("X-Wodex-Rows", rows_sent.to_string()),
            (
                "X-Wodex-Trace-Serialize",
                format!("{}us", trace.stage_nanos(Stage::Serialize) / 1_000),
            ),
        ];
        if let Some(wire) = shard_wire {
            finals.push(("X-Wodex-Shards", wire));
        }
        let _ = cw.finish(&finals);
    }
}

/// Streams a solution table as head / row-group / tail chunks.
fn stream_table(
    cw: &mut ChunkedWriter<&mut Out<'_>>,
    t: &wodex_sparql::SolutionTable,
    group: usize,
) -> std::io::Result<()> {
    cw.chunk(t.json_head().as_bytes())?;
    let group = group.max(1);
    let mut buf = String::new();
    for start in (0..t.len()).step_by(group) {
        buf.clear();
        for i in start..(start + group).min(t.len()) {
            if i > 0 {
                buf.push(',');
            }
            buf.push_str(&t.json_row(i));
        }
        cw.chunk(buf.as_bytes())?;
    }
    cw.chunk(t.json_tail().as_bytes())
}

/// `POST /data` — parses the body as N-Triples and commits it to the
/// live store as one atomic write batch (`action=delete` removes the
/// listed triples instead of adding them). Readers holding snapshots
/// are unaffected; the response carries the revision the commit
/// published and the *effective* change counts (inserting a present
/// triple or deleting an absent one counts zero). A batch with no
/// effective change publishes nothing and answers with the unchanged
/// head revision.
fn data_commit(state: &AppState, req: &Request, out: &mut Out<'_>) {
    // Lossy decoding would commit U+FFFD where the client sent something
    // else; a body that is not UTF-8 is not N-Triples.
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(e) => return bad_request(state, out, &format!("body is not UTF-8: {e}")),
    };
    if text.trim().is_empty() {
        bad_request(state, out, "empty body (send N-Triples)");
        return;
    }
    let graph = match wodex_rdf::ntriples::parse(text) {
        Ok(g) => g,
        Err(e) => {
            bad_request(state, out, &format!("bad N-Triples: {e}"));
            return;
        }
    };
    let delete = match req.param("action") {
        None | Some("insert") => false,
        Some("delete") => true,
        Some(other) => {
            bad_request(
                state,
                out,
                &format!("unknown action {other:?} (expected insert or delete)"),
            );
            return;
        }
    };
    let mut batch = wodex_store::WriteBatch::new();
    for t in graph.iter() {
        if delete {
            batch.delete(t.clone());
        } else {
            batch.insert(t.clone());
        }
    }
    match state.live.commit(&batch) {
        Ok(outcome) => {
            let body = format!(
                "{{\"revision\":{},\"inserts\":{},\"deletes\":{}}}",
                outcome.snapshot.revision(),
                outcome.frame.inserts.len(),
                outcome.frame.deletes.len()
            );
            out.json(&body);
        }
        // A write-ahead failure aborts the commit with the snapshot
        // unchanged; surface it as a server error, not a bad request.
        Err(e) => error_json(out, 500, "Internal Server Error", &e.to_string()),
    }
}

/// `GET /explore/subscribe?since=R&wait_ms=W` — the server-push feed.
/// Answers with every delta frame committed after revision `since`
/// (oldest first), each frame's effective inserts/deletes decoded to
/// N-Triples strings. With `wait_ms` the request long-polls: it blocks
/// (bounded by the cap below) until a newer frame is published, so a
/// subscriber loop sees each commit without busy-polling. When the
/// bounded frame history no longer reaches back to `since` — or
/// `since` runs ahead of the head, as happens to a cursor held across
/// a server restart — `"resync":true` tells the subscriber to refetch
/// from a fresh snapshot instead of applying frames.
fn explore_subscribe(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let since = match req.param("since").map(str::parse::<u64>) {
        None => 0,
        Some(Ok(r)) => r,
        Some(Err(_)) => {
            bad_request(state, out, "since must be a revision number");
            return;
        }
    };
    // The long-poll holds a worker, so the wait is capped well under
    // the socket write timeout; clients re-poll from the returned head.
    let wait_ms = req
        .param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        .min(10_000);
    let fs = if wait_ms > 0 {
        state
            .live
            .wait_for_frames(since, Duration::from_millis(wait_ms))
    } else {
        state.live.frames_since(since)
    };
    // Decode against the head snapshot: the id space only ever grows,
    // so the newest dictionary covers every frame in the history.
    let snap = state.live.snapshot();
    let nt = |ts: &[wodex_store::EncodedTriple]| -> String {
        ts.iter()
            .map(|&t| js(&snap.store().decode(t).to_string()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut cw = out.chunked("application/json", &[], &[]);
    let _ = cw.chunk(
        format!(
            "{{\"revision\":{},\"resync\":{},\"frames\":[",
            fs.revision, fs.resync
        )
        .as_bytes(),
    );
    let mut ok = true;
    for (i, frame) in fs.frames.iter().enumerate() {
        let chunk = format!(
            "{}{{\"revision\":{},\"inserts\":[{}],\"deletes\":[{}]}}",
            if i > 0 { "," } else { "" },
            frame.revision,
            nt(&frame.inserts),
            nt(&frame.deletes)
        );
        if cw.chunk(chunk.as_bytes()).is_err() {
            ok = false;
            break;
        }
    }
    if ok {
        let _ = cw.chunk(format!("],\"count\":{}}}", fs.frames.len()).as_bytes());
        let _ = cw.finish(&[]);
    }
}

fn explore_open(state: &AppState, out: &mut Out<'_>) {
    let token = state.sessions.open();
    let body = format!("{{\"session\":{}}}", js(&token));
    out.json(&body);
}

/// Resolves the `session` parameter, answering 400/404 on failure.
fn with_session<R>(
    state: &AppState,
    req: &Request,
    out: &mut Out<'_>,
    f: impl FnOnce(&mut wodex_explore::ExplorationSession) -> R,
) -> Option<R> {
    let Some(token) = req.param("session") else {
        bad_request(state, out, "missing session parameter");
        return None;
    };
    match state.sessions.with(token, f) {
        Some(r) => Some(r),
        None => {
            state.counters.inc_not_found();
            error_json(out, 404, "Not Found", "unknown or expired session");
            None
        }
    }
}

/// `GET /explore/overview` — class sizes, streamed progressively so the
/// first classes render before the tail of a wide ontology arrives.
fn explore_overview(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(overview) = with_session(state, req, out, |s| s.overview()) else {
        return;
    };
    let mut cw = out.chunked("application/json", &[], &[]);
    let _ = cw.chunk(b"{\"classes\":[");
    let mut buf = String::new();
    let mut ok = true;
    for (gi, group) in overview.chunks(STREAM_GROUP).enumerate() {
        buf.clear();
        for (i, (class, count)) in group.iter().enumerate() {
            if gi > 0 || i > 0 {
                buf.push(',');
            }
            buf.push_str(&format!("{{\"class\":{},\"count\":{count}}}", js(class)));
        }
        if cw.chunk(buf.as_bytes()).is_err() {
            ok = false;
            break;
        }
    }
    if ok {
        let _ = cw.chunk(format!("],\"total\":{}}}", overview.len()).as_bytes());
        let _ = cw.finish(&[]);
    }
}

fn explore_facets(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(body) = with_session(state, req, out, |s| {
        let mut parts = Vec::new();
        for f in s.facets().facets() {
            parts.push(format!(
                "{{\"predicate\":{},\"cardinality\":{}}}",
                js(&f.predicate),
                f.cardinality
            ));
        }
        format!("{{\"facets\":[{}]}}", parts.join(","))
    }) else {
        return;
    };
    out.json(&body);
}

/// The `{matching, operations}` summary every mutating session op returns.
fn session_summary(s: &mut wodex_explore::ExplorationSession) -> String {
    format!(
        "{{\"matching\":{},\"operations\":{}}}",
        s.matching_count(),
        s.log().len()
    )
}

fn explore_filter(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let (Some(predicate), Some(value)) = (req.param("predicate"), req.param("value")) else {
        bad_request(state, out, "need predicate and value parameters");
        return;
    };
    let (predicate, value) = (predicate.to_string(), value.to_string());
    let Some(body) = with_session(state, req, out, move |s| {
        s.filter(&predicate, &value);
        session_summary(s)
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_zoom(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let (Some(predicate), Some(lo), Some(hi)) = (
        req.param("predicate"),
        req.param("lo").and_then(|v| v.parse::<f64>().ok()),
        req.param("hi").and_then(|v| v.parse::<f64>().ok()),
    ) else {
        bad_request(state, out, "need predicate, numeric lo and hi parameters");
        return;
    };
    let predicate = predicate.to_string();
    let Some(body) = with_session(state, req, out, move |s| {
        s.zoom(&predicate, lo, hi);
        session_summary(s)
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_search(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(q) = req.param("q") else {
        bad_request(state, out, "need a q parameter");
        return;
    };
    let q = q.to_string();
    let Some(body) = with_session(state, req, out, move |s| {
        s.search(&q);
        session_summary(s)
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_hits(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(q) = req.param("q") else {
        bad_request(state, out, "need a q parameter");
        return;
    };
    let limit = req
        .param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10)
        .min(1000);
    let q = q.to_string();
    let Some(body) = with_session(state, req, out, move |s| {
        let mut parts = Vec::new();
        for h in s.search_preview(&q, limit) {
            parts.push(format!(
                "{{\"subject\":{},\"score\":{}}}",
                js(&h.subject.to_string()),
                json_f64(h.score)
            ));
        }
        format!("{{\"hits\":[{}]}}", parts.join(","))
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_details(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(iri) = req.param("iri") else {
        bad_request(state, out, "need an iri parameter");
        return;
    };
    let resource = Term::iri(iri.to_string());
    let Some(body) = with_session(state, req, out, move |s| {
        let v = s.details(&resource);
        let mut rows = Vec::new();
        for r in &v.rows {
            rows.push(format!(
                "{{\"predicate\":{},\"value\":{},\"forward\":{}}}",
                js(&r.predicate),
                js(&r.value.to_string()),
                r.forward
            ));
        }
        format!(
            "{{\"resource\":{},\"label\":{},\"rows\":[{}]}}",
            js(&v.resource.to_string()),
            v.label.as_deref().map_or("null".to_string(), js),
            rows.join(",")
        )
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_undo(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(body) = with_session(state, req, out, |s| {
        let undone = s.undo().map(|op| op.to_string());
        format!(
            "{{\"undone\":{},\"matching\":{}}}",
            undone.as_deref().map_or("null".to_string(), js),
            s.matching_count()
        )
    }) else {
        return;
    };
    out.json(&body);
}

fn explore_trace(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(body) = with_session(state, req, out, |s| s.trace()) else {
        return;
    };
    out.respond(200, "OK", "text/plain", &[], body.as_bytes());
}

fn viz_recommend(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(predicate) = req.param("predicate") else {
        bad_request(state, out, "need a predicate parameter");
        return;
    };
    // The ranking is part of the cached view, so after the first request
    // per property this analyzes nothing.
    let view = state.explorer.cached_view(predicate);
    let mut parts = Vec::new();
    for r in &view.recommendations {
        parts.push(format!(
            "{{\"kind\":{},\"score\":{},\"reason\":{}}}",
            js(r.kind.name()),
            json_f64(r.score),
            js(&r.reason)
        ));
    }
    let body = format!("{{\"recommendations\":[{}]}}", parts.join(","));
    out.json(&body);
}

/// `GET /viz/chart` — the LDVM pipeline under the request budget,
/// behind the explorer's single-flight view cache (a cached chart costs
/// no budget); the degradation verdict rides a response header (it is
/// known before the SVG is written).
fn viz_chart(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(predicate) = req.param("predicate") else {
        bad_request(state, out, "need a predicate parameter");
        return;
    };
    let budget = request_budget(state, req);
    let (view, degraded) = state.explorer.visualize_budgeted(predicate, &budget);
    if degraded.is_some() {
        state.counters.inc_degraded();
    }
    let verdict = degraded_trailer(&degraded);
    let headers = [
        ("X-Wodex-Degraded", verdict.as_str()),
        ("X-Wodex-Chart", view.kind.name()),
    ];
    out.respond(200, "OK", "image/svg+xml", &headers, view.svg.as_bytes());
}

/// `GET /viz/hist` — histogram bins, streamed as they are serialized.
/// The values come from the property's shared numeric column and the
/// row count from the store's index, so nothing is walked per request;
/// when the budget cannot afford every row the histogram is built from an
/// evenly spaced sample of the column and the trailer reports the
/// coverage.
fn viz_hist(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let Some(predicate) = req.param("predicate") else {
        bad_request(state, out, "need a predicate parameter");
        return;
    };
    let bins = req
        .param("bins")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16)
        .clamp(1, 256);
    let budget = request_budget(state, req);
    let total = state.explorer.property_triples(predicate) as u64;
    let (scanned, tripped) = budget.charge_rows_up_to(total);
    let degraded = tripped.map(|reason| Degraded {
        reason,
        coverage: wodex_core::sampled_coverage(scanned, total),
    });
    if degraded.is_some() {
        state.counters.inc_degraded();
    }
    let column = state.explorer.explore_index().numeric_column(predicate);
    // The scanned share of the column; all of it when nothing tripped.
    let values = column.sample((column.len() as u64 * scanned / total.max(1)) as usize);
    let hist = wodex_approx::binning::Histogram::build(
        &values,
        bins,
        wodex_approx::binning::BinningStrategy::EqualWidth,
    );
    let trailers = ["X-Wodex-Degraded", "X-Wodex-Rows"];
    let mut cw = out.chunked("application/json", &[], &trailers);
    let _ = cw.chunk(format!("{{\"predicate\":{},\"bins\":[", js(predicate)).as_bytes());
    let mut buf = String::new();
    let mut ok = true;
    for (gi, group) in hist.bins.chunks(STREAM_GROUP).enumerate() {
        buf.clear();
        for (i, b) in group.iter().enumerate() {
            if gi > 0 || i > 0 {
                buf.push(',');
            }
            let mean = if b.count > 0 {
                b.sum / b.count as f64
            } else {
                f64::NAN
            };
            buf.push_str(&format!(
                "{{\"lo\":{},\"hi\":{},\"count\":{},\"mean\":{}}}",
                json_f64(b.lo),
                json_f64(b.hi),
                b.count,
                json_f64(mean)
            ));
        }
        if cw.chunk(buf.as_bytes()).is_err() {
            ok = false;
            break;
        }
    }
    if ok {
        let _ = cw.chunk(format!("],\"values\":{}}}", values.len()).as_bytes());
        let _ = cw.finish(&[
            ("X-Wodex-Degraded", degraded_trailer(&degraded)),
            ("X-Wodex-Rows", values.len().to_string()),
        ]);
    }
}

/// `GET /shard/scan` — worker-mode single-pattern scan. `s`, `p`, `o`
/// are optional percent-encoded N-Triples terms (absent = wildcard);
/// the matches stream back as N-Triples lines under the request budget
/// (`deadline_ms`, `row_cap`), with the degradation verdict and row
/// count in trailers — the same sound-partial contract as `/sparql`,
/// one layer down. The coordinator's [`wodex_shard::ShardClient`] is
/// the intended caller, but the endpoint is plain HTTP.
fn shard_scan(state: &AppState, req: &Request, out: &mut Out<'_>) {
    let term = |name: &str| -> Result<Option<Term>, String> {
        match req.param(name) {
            None | Some("") => Ok(None),
            Some(v) => wodex_rdf::ntriples::parse_term(v)
                .map(Some)
                .map_err(|e| format!("bad {name} term: {e}")),
        }
    };
    let (s, p, o) = match (term("s"), term("p"), term("o")) {
        (Ok(s), Ok(p), Ok(o)) => (s, p, o),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            bad_request(state, out, &e);
            return;
        }
    };
    let budget = request_budget(state, req);
    // Chaos-test fault injection: a stalled shard is a slow scan.
    if !state.cfg.scan_delay.is_zero() {
        std::thread::sleep(state.cfg.scan_delay);
    }
    // A constant missing from this shard's dictionary matches nothing —
    // an empty answer with full coverage, not an error.
    let store = state.explorer.store();
    let pat = store.encode_pattern(s.as_ref(), p.as_ref(), o.as_ref());
    let trailers = ["X-Wodex-Degraded", "X-Wodex-Rows"];
    let mut cw = out.chunked("application/n-triples", &[], &trailers);
    let mut sent = 0usize;
    let mut tripped = None;
    let mut buf = String::new();
    let mut ok = true;
    if let Some(pat) = pat {
        // Matches stream chunk-by-chunk straight out of the store (from
        // cached segment blocks when seg-backed) — the full match set
        // is never materialized, and a tripped budget stops the scan at
        // chunk granularity.
        store.match_pattern_chunks(pat, &mut |chunk| {
            for group in chunk.chunks(STREAM_GROUP) {
                buf.clear();
                for t in group {
                    if let Some(reason) = budget.exceeded() {
                        tripped = Some(reason);
                        break;
                    }
                    budget.charge_rows(1);
                    buf.push_str(&format!("{}\n", store.decode(*t)));
                    sent += 1;
                }
                if !buf.is_empty() && cw.chunk(buf.as_bytes()).is_err() {
                    ok = false;
                }
                if tripped.is_some() || !ok {
                    return false;
                }
            }
            true
        });
    }
    let degraded = tripped.map(|reason| Degraded {
        reason,
        // The denominator comes from the count path (no
        // materialization) only when the scan actually tripped.
        coverage: match pat.map(|p| store.count_pattern(p)) {
            None | Some(0) => 1.0,
            Some(total) => sent as f64 / total as f64,
        },
    });
    if degraded.is_some() {
        state.counters.inc_degraded();
    }
    if ok {
        let _ = cw.finish(&[
            ("X-Wodex-Degraded", degraded_trailer(&degraded)),
            ("X-Wodex-Rows", sent.to_string()),
        ]);
    }
}

/// `GET /shard/health` — worker-mode placement and size, for fleet
/// bring-up checks (`"shard":null` when not running as a shard).
fn shard_health(state: &AppState, out: &mut Out<'_>) {
    let placement = match state.cfg.shard {
        Some((k, n)) => format!("{{\"index\":{k},\"of\":{n}}}"),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"shard\":{placement},\"triples\":{}}}",
        state.explorer.store().len()
    );
    out.json(&body);
}

/// `POST /admin/shutdown` — flags the accept loop, acknowledges (the
/// flag makes this and every later response say `Connection: close`),
/// then wakes the loop. In-flight and queued requests still complete and
/// idle persistent connections are closed (the worker pool drains before
/// `Server::run` returns).
fn admin_shutdown(state: &AppState, out: &mut Out<'_>) {
    state.shutdown.store(true, Ordering::SeqCst);
    out.json("{\"status\":\"shutting down\"}");
    wake(state.local_addr);
}
