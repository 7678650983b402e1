//! The closed-loop load generator: one thread per client, each sending
//! its mix's next request only after the previous answer is verified.

use crate::http::{Client, Timing};
use crate::requests::{Check, Mix, Op};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// One request as the client saw it — the client-side span record.
#[derive(Debug, Clone)]
pub struct Record {
    /// The mix that issued it (a workload's window or a traced mini-run).
    pub mix: &'static str,
    pub class: &'static str,
    pub client: usize,
    /// Request id: `(client, sequence)` is unique within a drive.
    pub seq: usize,
    /// Start, from the drive's epoch.
    pub start_ns: u64,
    pub timing: Timing,
    /// Time spent checking the answer (after `timing.done_ns`).
    pub verify_ns: u64,
    pub bytes_in: usize,
    /// The host's speed while the operation ran, relative to the
    /// speedometer's reference ([`crate::speed`]); 1.0 until a window
    /// assigns its slice's.
    pub speed: f64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
    /// What the server said about its own stages; kept in traced drives.
    pub server: Option<ServerSide>,
}

/// The server's `X-Wodex-*` stage report for one `/sparql` answer.
#[derive(Debug, Clone, Default)]
pub struct ServerSide {
    /// `X-Wodex-Trace`: `parse=12us;plan=3us;bgp_probe=840us/1200;…`.
    pub trace: String,
    /// `X-Wodex-Trace-Serialize` trailer: `57us`.
    pub serialize: String,
    /// `X-Wodex-Plan`: `scan:est=10:act=12,…`.
    pub plan: String,
    /// `X-Wodex-Rows` trailer.
    pub rows: u64,
}

impl Record {
    /// A record of an operation that starts now: no timing yet, run at
    /// unit speed, not failed.
    pub fn started(
        mix: &'static str,
        class: &'static str,
        client: usize,
        seq: usize,
        start_ns: u64,
    ) -> Record {
        Record {
            mix,
            class,
            client,
            seq,
            start_ns,
            timing: Timing::default(),
            verify_ns: 0,
            bytes_in: 0,
            speed: 1.0,
            error: None,
            server: None,
        }
    }

    /// Whether this is one of `live_mixed`'s writes. Throughput, latency
    /// and ttfb cover the other operations; commits are reported through
    /// `slowest_op_p50_ms`.
    pub fn is_commit(&self) -> bool {
        self.class.starts_with("commit_")
    }

    /// Request start to last byte, at reference speed.
    pub fn latency_ms(&self) -> f64 {
        self.timing.done_ns as f64 / 1e6 * self.speed
    }

    /// Request sent to first body byte, at reference speed.
    pub fn ttfb_ms(&self) -> f64 {
        self.timing
            .first_byte_ns
            .saturating_sub(self.timing.sent_ns) as f64
            / 1e6
            * self.speed
    }

    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.timing.done_ns
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop<'a> {
    /// Start no request at or after this instant.
    At(Instant),
    /// This many requests per client.
    After(usize),
    /// Whole mix cycles (of these lengths, one per client) until this
    /// instant: a client stops at the first cycle boundary at or after it,
    /// so every client is busy for the whole slice and each contributes
    /// whole cycles only.
    Cycles(Instant, &'a [usize]),
}

impl Stop<'_> {
    /// Whether `client`, having issued `issued` requests, stops now.
    pub fn reached(&self, client: usize, issued: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::After(n) => issued >= *n,
            Stop::Cycles(t, lens) => {
                let cycle = lens.get(client).copied().unwrap_or(1).max(1);
                issued > 0 && issued.is_multiple_of(cycle) && Instant::now() >= *t
            }
        }
    }
}

/// A client gives up after this many failures in a row: the server is
/// gone or the workload is broken, and spinning would only fill the log.
const FAILURE_STREAK: usize = 50;

/// Runs every mix on its own client thread until `stop`. Records come
/// back ordered by start time.
pub fn drive(
    addr: SocketAddr,
    mixes: &mut [Box<dyn Mix>],
    stop: Stop<'_>,
    traced: bool,
    epoch: Instant,
    mix_name: &'static str,
) -> Result<Vec<Record>, String> {
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .enumerate()
            .map(|(client, mix)| {
                scope.spawn(move || {
                    one_client(addr, mix.as_mut(), stop, traced, epoch, mix_name, client)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for records in per_client {
        all.extend(records?);
    }
    all.sort_by_key(|r| r.start_ns);
    Ok(all)
}

fn one_client(
    addr: SocketAddr,
    mix: &mut dyn Mix,
    stop: Stop<'_>,
    traced: bool,
    epoch: Instant,
    mix_name: &'static str,
    client: usize,
) -> Result<Vec<Record>, String> {
    let mut http = Client::new(addr);
    let mut out: Vec<Record> = Vec::new();
    let mut streak = 0;
    loop {
        if stop.reached(client, out.len()) {
            break;
        }
        let op: Arc<Op> = mix.next_op();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let answer = http.request(op.method, &op.target, &op.body);
        let verifying = Instant::now();
        let mut record = Record::started(mix_name, op.class, client, out.len(), start_ns);
        match answer {
            Ok(r) => {
                record.timing = r.timing;
                record.bytes_in = r.bytes_in;
                record.error = op.verify(&r).and_then(|()| mix.observe(&op, &r)).err();
                if traced && matches!(op.check, Check::Sparql(_) | Check::Fresh { .. }) {
                    let field = |name: &str| r.field(name).unwrap_or("").to_string();
                    record.server = Some(ServerSide {
                        trace: field("x-wodex-trace"),
                        serialize: field("x-wodex-trace-serialize"),
                        plan: field("x-wodex-plan"),
                        rows: r
                            .field("x-wodex-rows")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0),
                    });
                }
            }
            Err(e) => record.error = Some(format!("transport: {e}")),
        }
        record.verify_ns = verifying.elapsed().as_nanos() as u64;
        streak = if record.error.is_some() {
            streak + 1
        } else {
            0
        };
        if streak >= FAILURE_STREAK {
            return Err(format!(
                "client {client} of {mix_name}: {FAILURE_STREAK} failures in a row, last: {}",
                record.error.unwrap_or_default()
            ));
        }
        out.push(record);
    }
    Ok(out)
}

/// Wraps a mix so that its first operation carries a wrong expectation —
/// `--self-test` proves with it that a wrong answer is counted as failed.
pub struct Corrupted {
    pub inner: Box<dyn Mix>,
    pub done: bool,
}

impl Mix for Corrupted {
    fn next_op(&mut self) -> Arc<Op> {
        let op = self.inner.next_op();
        if std::mem::replace(&mut self.done, true) {
            return op;
        }
        Arc::new(Op {
            class: op.class,
            method: op.method,
            target: op.target.clone(),
            body: op.body.clone(),
            check: match &op.check {
                Check::Sparql(expect) => Check::Sparql(expect.corrupted()),
                _ => Check::Json(Box::new(|_| {
                    Err("self-test: this expectation was corrupted".to_string())
                })),
            },
        })
    }

    fn cycle_len(&self) -> usize {
        self.inner.cycle_len()
    }

    fn observe(&mut self, op: &Op, response: &crate::http::Response) -> Result<(), String> {
        self.inner.observe(op, response)
    }
}

/// The first few failure messages among `records`, for the report.
pub fn first_errors<'a>(records: impl Iterator<Item = &'a Record>) -> Vec<String> {
    records
        .filter_map(|r| Some(format!("{}/{}: {}", r.mix, r.class, r.error.as_ref()?)))
        .take(5)
        .collect()
}
