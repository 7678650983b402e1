//! The server: accept loop, bounded worker pool, admission control.
//!
//! ## Threading model
//!
//! One accept thread plus a fixed pool of worker threads connected by a
//! bounded [`wodex_exec::channel`]. The channel *is* the admission
//! queue: its capacity is the only place a waiting connection can exist,
//! so memory under overload is bounded by construction.
//!
//! ## Persistent connections
//!
//! A worker serves a connection request after request (HTTP/1.1
//! keep-alive; the loop is `handlers::handle`), so a chain of dependent
//! clicks pays accept, queue hand-off and connect once. The pool stays
//! bounded because a worker only ever *lends* itself to an idle
//! connection: between requests it waits in 2 ms slices, and lets go —
//! closing the connection before a byte of a next request has been read
//! — as soon as it can take a connection off the queue itself
//! (`Queue::try_take`: never one that a free worker is there to receive,
//! so one queued connection costs exactly one idle one), the server is
//! stopping, or `read_timeout` has passed idle. A response written while
//! the queue is backlogged (`Queue::backlogged`: more connections wait
//! than free workers are there for) already says `Connection: close`.
//! With more clients than workers every response therefore closes and
//! the server behaves as one request per connection; a queued connection
//! never waits on an idle one for longer than a slice.
//!
//! ## Admission control
//!
//! Admission is per *connection*, at its first request. Two gates, both
//! of which shed with `503 Service Unavailable` + `Retry-After` instead
//! of queueing without bound:
//!
//! 1. **Queue depth** — the accept thread `try_send`s each connection;
//!    a full queue means every worker is busy and the backlog is at
//!    capacity, so the connection is refused immediately (the accept
//!    thread never blocks on a slow pipeline).
//! 2. **Queue deadline** — a worker that dequeues a connection which
//!    already waited longer than `max_queue_wait` sheds it rather than
//!    serving a request whose client has likely given up (the classic
//!    overload spiral of serving only dead requests).
//!
//! Admitted requests then run under a `wodex_resilience::Budget`
//! (deadline + row cap), so one expensive query degrades to a partial
//! answer rather than occupying a worker indefinitely.
//!
//! ## Accounting
//!
//! Counters that describe admission count connections (`accepted`,
//! `admitted`, `shed_*`, the queue-wait histogram) and conserve as
//! `admitted + shed == accepted`; counters that describe work count
//! requests (`completed`/`served`, `request_seconds`, `inflight`,
//! `bad_requests`, `reused`), and `served` equals the responses clients
//! read from admitted connections.

use crate::handlers;
use crate::sessions::SessionManager;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};
use wodex_core::Explorer;
use wodex_exec::channel::{self, TrySendError};
use wodex_obs::{Counter, Histogram};
use wodex_store::LiveStore;

/// Global-registry handles for the serving layer. The per-instance
/// [`Counters`] stay authoritative for `/stats` and the admission tests;
/// these series feed the `/metrics` exposition, where every server in
/// the process aggregates into one scrape.
pub(crate) struct ServeMetrics {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) admitted: Arc<Counter>,
    pub(crate) served: Arc<Counter>,
    pub(crate) shed_queue_full: Arc<Counter>,
    pub(crate) shed_queue_wait: Arc<Counter>,
    pub(crate) shed_shutdown: Arc<Counter>,
    pub(crate) bad_requests: Arc<Counter>,
    pub(crate) not_found: Arc<Counter>,
    pub(crate) degraded: Arc<Counter>,
    pub(crate) reused: Arc<Counter>,
    pub(crate) idle_closed: [Arc<Counter>; 4],
    pub(crate) queue_wait: Arc<Histogram>,
    pub(crate) request_seconds: Arc<Histogram>,
}

pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = wodex_obs::global();
        ServeMetrics {
            accepted: r.counter(
                "wodex_serve_accepted_total",
                "Connections accepted by the listener",
            ),
            admitted: r.counter(
                "wodex_serve_admitted_total",
                "Connections handed to the worker pool",
            ),
            served: r.counter(
                "wodex_serve_served_total",
                "Requests fully served (any status)",
            ),
            shed_queue_full: r.counter_with(
                "wodex_serve_shed_total",
                "Connections shed with 503 by admission gate",
                &[("gate", "queue_full")],
            ),
            shed_queue_wait: r.counter_with(
                "wodex_serve_shed_total",
                "Connections shed with 503 by admission gate",
                &[("gate", "queue_wait")],
            ),
            shed_shutdown: r.counter_with(
                "wodex_serve_shed_total",
                "Connections shed with 503 by admission gate",
                &[("gate", "shutdown")],
            ),
            bad_requests: r.counter("wodex_serve_bad_requests_total", "400 responses"),
            not_found: r.counter("wodex_serve_not_found_total", "404 responses"),
            degraded: r.counter(
                "wodex_serve_degraded_total",
                "Responses whose budget tripped (partial answers)",
            ),
            reused: r.counter(
                "wodex_serve_requests_reused_total",
                "Requests served on a connection that had already served one",
            ),
            idle_closed: IdleClose::ALL.map(|reason| {
                r.counter_with(
                    "wodex_serve_idle_closed_total",
                    "Persistent connections closed while idle between requests",
                    &[("reason", reason.name())],
                )
            }),
            queue_wait: r.duration_histogram(
                "wodex_serve_queue_wait_seconds",
                "Time an admitted connection waited for a worker",
                &[],
            ),
            request_seconds: r.duration_histogram(
                "wodex_serve_request_seconds",
                "Wall time reading, serving and answering one request",
                &[],
            ),
        }
    })
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (0 = `wodex_exec::num_threads()`, min 2).
    pub workers: usize,
    /// Connections that may wait for a worker before shedding starts.
    pub queue_depth: usize,
    /// Per-request budget deadline.
    pub deadline: Duration,
    /// Per-request budget row cap (0 = uncapped).
    pub row_cap: u64,
    /// Longest a connection may sit in the queue before it is shed.
    pub max_queue_wait: Duration,
    /// `Retry-After` seconds advertised on 503 responses.
    pub retry_after_secs: u32,
    /// Live session cap (LRU beyond this).
    pub session_capacity: usize,
    /// Session idle expiry.
    pub session_ttl: Duration,
    /// Socket read timeout: a slow client mid-request, or a persistent
    /// connection idle between requests, releases its worker after this.
    pub read_timeout: Duration,
    /// Solution rows per streamed chunk on `/sparql`.
    pub stream_rows: usize,
    /// Worker-mode shard identity `(index, of)` — reported by
    /// `/shard/health` and `/stats` so operators (and the coordinator)
    /// can verify which partition a worker holds.
    pub shard: Option<(u32, u32)>,
    /// Injected latency before every `/shard/scan` body (chaos tests
    /// stall a shard with this; zero in production).
    pub scan_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            row_cap: 1_000_000,
            max_queue_wait: Duration::from_secs(1),
            retry_after_secs: 1,
            session_capacity: 256,
            session_ttl: Duration::from_secs(600),
            read_timeout: Duration::from_secs(10),
            stream_rows: 64,
            shard: None,
            scan_delay: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// The effective worker-thread count.
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            wodex_exec::num_threads().max(2)
        } else {
            self.workers
        }
    }
}

/// Why a worker closed a persistent connection that was idle between
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleClose {
    /// A connection was waiting in the admission queue for a worker.
    Queue,
    /// `read_timeout` passed without a next request.
    Timeout,
    /// The server is stopping.
    Shutdown,
    /// The client closed (or the socket failed) first.
    Peer,
}

impl IdleClose {
    /// Every reason, in the order of [`Counters::idle_closed`].
    pub const ALL: [IdleClose; 4] = [
        IdleClose::Queue,
        IdleClose::Timeout,
        IdleClose::Shutdown,
        IdleClose::Peer,
    ];

    /// The `reason` label on `/metrics`, the key in `/stats`.
    pub fn name(self) -> &'static str {
        match self {
            IdleClose::Queue => "queue",
            IdleClose::Timeout => "timeout",
            IdleClose::Shutdown => "shutdown",
            IdleClose::Peer => "peer",
        }
    }
}

/// Monotonic request counters (all relaxed atomics; exact enough for
/// operational visibility, free of locks on the hot path).
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections accepted by the listener.
    pub accepted: AtomicU64,
    /// Connections handed to the worker pool.
    pub admitted: AtomicU64,
    /// Requests fully served (any status).
    pub completed: AtomicU64,
    /// Connections shed with 503 at the queue-depth gate.
    pub shed_queue_full: AtomicU64,
    /// Connections shed with 503 at the queue-deadline gate.
    pub shed_queue_wait: AtomicU64,
    /// Backlog connections shed with 503 during shutdown drain.
    pub shed_shutdown: AtomicU64,
    /// 400 responses.
    pub bad_requests: AtomicU64,
    /// 404 responses.
    pub not_found: AtomicU64,
    /// Responses whose budget tripped (partial/degraded answers).
    pub degraded: AtomicU64,
    /// Requests served on a connection that had already served one.
    pub reused: AtomicU64,
    /// Idle persistent connections closed, by [`IdleClose`] reason.
    pub idle_closed: [AtomicU64; 4],
}

impl Counters {
    /// Total 503 responses across all shedding gates.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full.load(Ordering::Relaxed)
            + self.shed_queue_wait.load(Ordering::Relaxed)
            + self.shed_shutdown.load(Ordering::Relaxed)
    }

    // Each increment bumps the instance field (authoritative for /stats
    // and the admission tests) and mirrors into the global registry so
    // `/metrics` sees the same event. Both are single relaxed atomics.

    pub(crate) fn inc_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        serve_metrics().accepted.inc();
    }

    pub(crate) fn inc_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        serve_metrics().admitted.inc();
    }

    pub(crate) fn inc_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        serve_metrics().served.inc();
    }

    pub(crate) fn inc_shed_queue_full(&self) {
        self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        serve_metrics().shed_queue_full.inc();
    }

    pub(crate) fn inc_shed_queue_wait(&self) {
        self.shed_queue_wait.fetch_add(1, Ordering::Relaxed);
        serve_metrics().shed_queue_wait.inc();
    }

    pub(crate) fn inc_shed_shutdown(&self) {
        self.shed_shutdown.fetch_add(1, Ordering::Relaxed);
        serve_metrics().shed_shutdown.inc();
    }

    pub(crate) fn inc_bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        serve_metrics().bad_requests.inc();
    }

    pub(crate) fn inc_not_found(&self) {
        self.not_found.fetch_add(1, Ordering::Relaxed);
        serve_metrics().not_found.inc();
    }

    pub(crate) fn inc_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
        serve_metrics().degraded.inc();
    }

    pub(crate) fn inc_reused(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
        serve_metrics().reused.inc();
    }

    pub(crate) fn inc_idle_closed(&self, reason: IdleClose) {
        self.idle_closed[reason as usize].fetch_add(1, Ordering::Relaxed);
        serve_metrics().idle_closed[reason as usize].inc();
    }
}

/// Dataset shape at bind time, read off the store's indexes
/// ([`wodex_store::TripleStore::stats`]): exact for the single-level
/// store `wodex serve` builds, an estimate (each segment's distinct
/// counts summed, an unmerged tail left out) for a layered one.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSummary {
    /// Total triples.
    pub triples: usize,
    /// Distinct subjects.
    pub subjects: usize,
    /// Distinct predicates.
    pub predicates: usize,
}

/// Shared state every worker sees.
pub struct AppState {
    /// The loaded dataset — resident once, as the explorer's encoded
    /// store — and all derived engines.
    pub explorer: Explorer,
    /// Precomputed dataset shape for `/stats`.
    pub dataset: DatasetSummary,
    /// Token-keyed exploration sessions.
    pub sessions: SessionManager,
    /// The instance's tunables.
    pub cfg: ServeConfig,
    /// Request counters.
    pub counters: Counters,
    /// Requests currently being parsed/served by workers.
    pub inflight: AtomicUsize,
    /// Set to stop the accept loop.
    pub shutdown: AtomicBool,
    /// The bound address (workers use it to wake the accept loop).
    pub local_addr: SocketAddr,
    /// Server start instant (uptime reporting).
    pub started: Instant,
    /// Coordinator mode: `/sparql` scatter-gathers across this fleet
    /// instead of evaluating against the local explorer.
    pub coordinator: Option<Arc<wodex_shard::Coordinator>>,
    /// The MVCC write path: `POST /data` commits here, `/sparql`
    /// evaluates against its current snapshot, and
    /// `GET /explore/subscribe` long-polls its delta frames. Revision 0
    /// is the explorer's store itself, shared by `Arc`, not a copy.
    /// Note the split: the `explorer` field keeps serving revision 0 to
    /// the exploration/viz endpoints and is *not* updated by commits —
    /// see the handlers module docs and `/healthz`, which reports both
    /// views' counts distinctly.
    pub live: Arc<LiveStore>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    /// Callbacks run (in registration order) when the accept loop exits
    /// and every worker has drained — the seam by which the process
    /// stops background machinery (e.g. `wodex-seg`'s compaction
    /// thread) on `POST /admin/shutdown`.
    shutdown_hooks: Vec<Box<dyn FnOnce() + Send>>,
}

/// One unit of queued work: an accepted connection plus its enqueue time.
pub(crate) struct Conn {
    stream: TcpStream,
    enqueued: Instant,
}

/// The workers' end of the admission queue.
///
/// Besides the channel it counts both sides of the hand-off, so that a
/// worker serving a connection can tell whether a queued connection
/// needs *it* or is about to be received by a free worker anyway. Both
/// counts publish nothing (the connection travels through the channel)
/// and are relaxed; read `free` first and a race can only under-report
/// the backlog, which the next idle slice corrects.
pub(crate) struct Queue {
    rx: Mutex<channel::Receiver<Conn>>,
    /// Connections sent and not yet received.
    waiting: AtomicUsize,
    /// Workers not serving a connection: in [`Queue::take`], or on their
    /// way into it.
    free: AtomicUsize,
}

impl Queue {
    /// Blocks until a connection is queued; `None` once the accept loop
    /// is gone.
    fn take(&self) -> Option<Conn> {
        let conn = {
            let rx = self.rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv().ok()?
        };
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        self.free.fetch_sub(1, Ordering::Relaxed);
        Some(conn)
    }

    /// Whether more connections wait than free workers are there to
    /// receive: a worker about to promise `keep-alive` asks this.
    pub(crate) fn backlogged(&self) -> bool {
        let free = self.free.load(Ordering::Relaxed);
        self.waiting.load(Ordering::Relaxed) > free
    }

    /// The connection at the head of a backlogged queue, for a worker
    /// that gives up an idle connection to serve it.
    pub(crate) fn try_take(&self) -> Option<Conn> {
        if !self.backlogged() {
            return None;
        }
        let rx = match self.rx.try_lock() {
            Ok(rx) => rx,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        let conn = rx.try_recv().ok()?;
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        Some(conn)
    }
}

impl Server {
    /// Binds the listener and prepares shared state over `explorer`.
    pub fn bind(explorer: Explorer, cfg: ServeConfig) -> std::io::Result<Server> {
        Server::bind_with_coordinator(explorer, cfg, None)
    }

    /// [`Server::bind`] in coordinator mode: `/sparql` requests
    /// scatter-gather across the coordinator's shard fleet; every other
    /// endpoint (exploration, viz) still serves the local `explorer`
    /// (typically empty on a pure front-end).
    pub fn bind_with_coordinator(
        explorer: Explorer,
        cfg: ServeConfig,
        coordinator: Option<Arc<wodex_shard::Coordinator>>,
    ) -> std::io::Result<Server> {
        // Touch the serve and exec metric families up front so a
        // `/metrics` scrape of a freshly bound server already exposes
        // them at zero instead of omitting the series.
        let _ = serve_metrics();
        let _ = wodex_exec::stats();
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let sessions = SessionManager::new(
            Arc::clone(explorer.explore_index()),
            cfg.session_capacity,
            cfg.session_ttl,
        );
        let store = explorer.shared_store();
        let distinct = store.stats().distinct;
        let dataset = DatasetSummary {
            triples: store.len(),
            subjects: distinct[0],
            predicates: distinct[1],
        };
        // Revision 0 of the MVCC write path is the explorer's own store:
        // one allocation, two views. The explorer keeps serving it to
        // the exploration/viz endpoints; `/sparql` and the subscribe
        // feed see live commits through the versions layered over it.
        let live = Arc::new(LiveStore::shared(store));
        let state = Arc::new(AppState {
            explorer,
            dataset,
            sessions,
            cfg,
            counters: Counters::default(),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            local_addr,
            started: Instant::now(),
            coordinator,
            live,
        });
        Ok(Server {
            listener,
            state,
            shutdown_hooks: Vec::new(),
        })
    }

    /// Registers a callback to run after the accept loop stops and the
    /// workers drain — before [`Server::run`] returns. Hooks run in
    /// registration order, exactly once, on every clean exit path
    /// (`POST /admin/shutdown`, [`RunningServer::shutdown`], or an
    /// externally set shutdown flag).
    pub fn on_shutdown(&mut self, hook: impl FnOnce() + Send + 'static) {
        self.shutdown_hooks.push(Box::new(hook));
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// The shared state (counters, shutdown flag).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop on the calling thread until shutdown.
    ///
    /// Spawns the worker pool in a scope, so returning implies every
    /// worker has drained and joined.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let hooks = self.shutdown_hooks;
        let workers = state.cfg.effective_workers();
        let (tx, rx) = channel::bounded::<Conn>(state.cfg.queue_depth.max(1));
        let queue = Queue {
            rx: Mutex::new(rx),
            waiting: AtomicUsize::new(0),
            free: AtomicUsize::new(workers),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let queue = &queue;
                let state = &state;
                scope.spawn(move || {
                    // A connection this worker took off the queue itself,
                    // in exchange for an idle one.
                    let mut taken = None;
                    // Ends when the channel closes: the accept loop is gone.
                    while let Some(conn) = taken.take().or_else(|| queue.take()) {
                        let waited = conn.enqueued.elapsed();
                        serve_metrics().queue_wait.observe(waited.as_nanos() as u64);
                        if waited > state.cfg.max_queue_wait {
                            state.counters.inc_shed_queue_wait();
                            shed(&state.cfg, conn.stream);
                        } else {
                            taken = handlers::handle(state, queue, conn.stream);
                        }
                        if taken.is_none() {
                            queue.free.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            for incoming in self.listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = incoming else {
                    continue; // Transient accept error; keep serving.
                };
                state.counters.inc_accepted();
                // Counted before the send so the worker that receives it
                // never decrements first.
                queue.waiting.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(Conn {
                    stream,
                    enqueued: Instant::now(),
                }) {
                    Ok(()) => {
                        state.counters.inc_admitted();
                    }
                    Err(TrySendError::Full(conn)) => {
                        queue.waiting.fetch_sub(1, Ordering::Relaxed);
                        state.counters.inc_shed_queue_full();
                        shed(&state.cfg, conn.stream);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // Shutdown drain: connections already in the kernel's accept
            // backlog would get a TCP RST when the listener drops with
            // them unread — the client sees a connection reset instead
            // of an answer. Accept whatever is pending (non-blocking)
            // and shed each one cleanly with 503 + Retry-After, so
            // killing a shard mid-workload never turns a clean shed
            // into a reset.
            let _ = self.listener.set_nonblocking(true);
            // Stops on WouldBlock: the backlog is empty.
            while let Ok((pending, _)) = self.listener.accept() {
                state.counters.inc_accepted();
                state.counters.inc_shed_shutdown();
                shed(&state.cfg, pending);
            }
            drop(tx); // Workers drain the queue, then exit.
        });
        // The scope joined every worker: no request is in flight, so
        // hooks can tear down whatever the handlers relied on.
        for hook in hooks {
            hook();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread.
    pub fn spawn(self) -> RunningServer {
        let addr = self.addr();
        let state = self.state();
        let handle = std::thread::spawn(move || self.run());
        RunningServer {
            addr,
            state,
            handle,
        }
    }
}

/// A server running on a background thread (tests, benches, the CLI).
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters etc.).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Requests shutdown, wakes the accept loop, and joins every thread.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        match self.handle.join() {
            Ok(r) => r,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// Wakes a server's accept loop so it re-checks the shutdown flag;
/// handlers call this after `/admin/shutdown` sets the flag.
pub(crate) fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Writes the overload response and closes the connection. Never blocks
/// the caller for long: the write timeout bounds a wedged peer.
fn shed(cfg: &ServeConfig, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let retry = cfg.retry_after_secs.to_string();
    let body = format!("{{\"error\":\"server at capacity\",\"retry_after_secs\":{retry}}}");
    let _ = crate::http::write_response(
        &mut stream,
        false,
        503,
        "Service Unavailable",
        "application/json",
        &[("Retry-After", retry.as_str())],
        body.as_bytes(),
    );
    hang_up(&stream);
}

/// Closes a connection after its last response.
///
/// Request bytes the server will not read (all of them on a shed, the
/// rest of a malformed or pipelined-after-`close` request otherwise) are
/// deliberately drained before the socket drops: closing with unread
/// data in the receive buffer makes TCP send a reset, which can destroy
/// the in-flight response before the client reads it — turning a clean
/// answer into a dropped connection.
pub(crate) fn hang_up(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Non-blocking: consumes what has already arrived without ever
    // stalling the caller behind a slow peer.
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    for _ in 0..16 {
        match std::io::Read::read(&mut stream, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}
