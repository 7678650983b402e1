//! The five workloads: set-up, warm-up, the timed window, and the
//! end-to-end metrics read off it.
//!
//! The four HTTP workloads share one flow — generate, `wodex load`, boot
//! `wodex serve`, build the client mixes, warm up, measure — and differ
//! only in their mixes. `seg_query` ([`crate::segquery`]) runs in-process.

use crate::drive::{drive, first_errors, Corrupted, Record, Stop};
use crate::gen::{fnv1a, Model, FNV_OFFSET};
use crate::http::Client;
use crate::json::Json;
use crate::proc::{self, LoadRun, Server};
use crate::requests::{
    analytic_ops, Acked, ExploreMix, FixedMix, LookupMix, Mix, ReaderMix, WriterMix,
    ANALYTIC_TEMPLATES,
};
use crate::spec::SETUP_REPEATS;
use crate::speed;
use crate::stats::{median, Samples};
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The closed loop has as many clients as the host the sizing was done on
/// has CPUs: an exploration UI waits for each reply before the next click.
pub const CLIENTS: usize = 2;
/// Parameter draws per analytic template.
const ANALYTIC_VARIANTS: usize = 4;
/// Sessions opened before the explore cycle starts; the server keeps three
/// (`--sessions 3`), so the last open evicts.
const SESSION_OPENS: usize = 4;
/// The window is cut into slices of this long (plus the cycles in flight
/// at its end), with a speed sample between slices.
const SLICE_S: f64 = 0.5;

pub struct Config {
    pub seed: u64,
    pub entities: u32,
    pub seconds: f64,
    pub trace: bool,
    pub self_test: bool,
    /// `benchmark/out`: datasets, work directories and traces.
    pub out_dir: PathBuf,
    pub wodex: PathBuf,
}

/// The generated dataset on disk and its model.
pub struct Dataset {
    pub model: Arc<Model>,
    pub nt: PathBuf,
    pub nt_bytes: u64,
    pub lines: u64,
}

/// A directory removed when the run ends, however it ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(cfg: &Config, workload: &str) -> Result<WorkDir, String> {
        let dir = cfg.out_dir.join(format!(
            "work-{workload}-{}-{}",
            cfg.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the dataset for `(seed, entities)`, or reuses the file a
/// previous run left when its sidecar and its bytes still match.
pub fn dataset(cfg: &Config) -> Result<Dataset, String> {
    let model = Arc::new(Model::generate(cfg.seed, cfg.entities));
    let dir = cfg.out_dir.join("data");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let nt = dir.join(format!("s{}-e{}.nt", cfg.seed, cfg.entities));
    let meta = nt.with_extension("meta");
    if let (Ok(sidecar), Ok(mut file)) = (std::fs::read_to_string(&meta), std::fs::File::open(&nt))
    {
        let mut fields = sidecar.split_ascii_whitespace().map(str::parse::<u64>);
        if let (Some(Ok(lines)), Some(Ok(bytes)), Some(Ok(digest))) =
            (fields.next(), fields.next(), fields.next())
        {
            let mut buf = vec![0u8; 1 << 20];
            let (mut seen, mut h) = (0u64, FNV_OFFSET);
            while let Ok(n) = file.read(&mut buf) {
                if n == 0 {
                    break;
                }
                seen += n as u64;
                h = fnv1a(&buf[..n], h);
            }
            if seen == bytes && h == digest {
                return Ok(Dataset {
                    model,
                    nt,
                    nt_bytes: bytes,
                    lines,
                });
            }
        }
    }
    let io = |e: std::io::Error| format!("write {}: {e}", nt.display());
    let mut out = BufWriter::new(std::fs::File::create(&nt).map_err(io)?);
    let written = model.write_ntriples(&mut out).map_err(io)?;
    out.flush().map_err(io)?;
    std::fs::write(
        &meta,
        format!("{} {} {}\n", written.lines, written.bytes, written.digest),
    )
    .map_err(|e| format!("write {}: {e}", meta.display()))?;
    Ok(Dataset {
        model,
        nt,
        nt_bytes: written.bytes,
        lines: written.lines,
    })
}

/// The memory cap handed to `wodex load`: 8 MB at full size (four spilled
/// runs there), scaled with the data so smaller sizes still sort
/// externally.
pub fn mem_cap_mb(entities: u32) -> u32 {
    (entities / 12_500).max(1)
}

/// One `wodex load` into `seg_dir` between two speed samples; `wall_s`
/// comes back at reference speed.
pub fn timed_load(cfg: &Config, ds: &Dataset, seg_dir: &Path) -> Result<LoadRun, String> {
    let (run, wall_s, _) =
        speed::timed(|| proc::load(&cfg.wodex, &ds.nt, seg_dir, mem_cap_mb(cfg.entities)));
    Ok(LoadRun { wall_s, ..run? })
}

/// One untimed `wodex load` into `seg_dir`.
pub fn load(cfg: &Config, ds: &Dataset, seg_dir: &Path) -> Result<LoadRun, String> {
    proc::load(&cfg.wodex, &ds.nt, seg_dir, mem_cap_mb(cfg.entities))
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics in [`crate::spec::END_TO_END`] order, each with
    /// a note (sample count, percentile actually reported, …).
    pub end_to_end: Vec<(&'static str, f64, String)>,
    /// Per-layer metrics by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// The window's records and what surrounds them, ready to summarise.
pub struct Measured {
    /// Set-up durations, one per repeat.
    pub setups_s: Vec<f64>,
    /// Requests made during set-up and warm-up (session opens, pairwise
    /// agreement checks): verified and counted, not timed as the window.
    pub setup_records: Vec<Record>,
    pub window: Window,
    pub rss_peak_mb: f64,
    /// Bytes `wodex load` left in the segment directory.
    pub stored_bytes: u64,
}

/// The timed window: its records, each carrying its slice's speed, and
/// each slice's throughput at reference speed.
#[derive(Default)]
pub struct Window {
    pub records: Vec<Record>,
    pub rates: Vec<f64>,
}

/// Sum over clients of their own measured operations per second.
fn slice_rate(records: &[Record], clients: usize) -> f64 {
    (0..clients)
        .map(|c| {
            let own: Vec<&Record> = records.iter().filter(|r| r.client == c).collect();
            let span_ns = own.iter().map(|r| r.end_ns()).max().unwrap_or(0)
                - own.iter().map(|r| r.start_ns).min().unwrap_or(0);
            let measured = own
                .iter()
                .filter(|r| r.error.is_none() && !r.is_commit())
                .count();
            measured as f64 / (span_ns as f64 / 1e9).max(1e-9)
        })
        .sum()
}

/// Runs slices until `seconds` have passed (three slices at least). In a
/// slice every client runs whole cycles of its mix (`cycle_lens`, one per
/// client) for `SLICE_S`, so slices have the same composition and every
/// client is busy throughout. The host's speed is sampled between slices:
/// each record gets the mean of the samples around its slice, and each
/// slice's rate is divided by it.
pub fn timed_window(
    seconds: f64,
    cycle_lens: &[usize],
    mut run_slice: impl FnMut(Stop<'_>) -> Result<Vec<Record>, String>,
) -> Result<Window, String> {
    let started = Instant::now();
    let mut window = Window::default();
    let mut before = speed::sample();
    while started.elapsed().as_secs_f64() < seconds || window.rates.len() < 3 {
        let until = Instant::now() + Duration::from_secs_f64(SLICE_S);
        let mut records = run_slice(Stop::Cycles(until, cycle_lens))?;
        let after = speed::sample();
        let speed = (before + after) / 2.0;
        before = after;
        records.iter_mut().for_each(|r| r.speed = speed);
        window
            .rates
            .push(slice_rate(&records, cycle_lens.len()) / speed);
        window.records.extend(records);
    }
    Ok(window)
}

pub fn summarize(ds: &Dataset, m: &Measured) -> Outcome {
    let all = || m.setup_records.iter().chain(&m.window.records);
    let attempted = all().count() as u64;
    let failed = all().filter(|r| r.error.is_some()).count() as u64;
    let errors = first_errors(all());

    let ok: Vec<&Record> = m
        .window
        .records
        .iter()
        .filter(|r| r.error.is_none() && !r.is_commit())
        .collect();
    let latency = Samples::new(ok.iter().map(|r| r.latency_ms()).collect());
    let ttfb = Samples::new(ok.iter().map(|r| r.ttfb_ms()).collect());

    // The slowest operation class, by class median; three samples make a
    // median worth the name.
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in all().filter(|r| r.error.is_none() && r.class != "agreement") {
        by_class.entry(r.class).or_default().push(r.latency_ms());
    }
    let (slowest_class, slowest_ms, slowest_n) = by_class
        .iter()
        .filter(|(_, v)| v.len() >= 3)
        .map(|(c, v)| (*c, median(v), v.len()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("latencies are finite"))
        .unwrap_or(("none", 0.0, 0));

    let stored = m.stored_bytes;

    let n = latency.len();
    let end_to_end = vec![
        (
            "setup_s",
            median(&m.setups_s),
            format!("median of {} set-ups", m.setups_s.len()),
        ),
        (
            "throughput_ops_s",
            median(&m.window.rates),
            format!("median of {} slices, n={n}", m.window.rates.len()),
        ),
        ("latency_p50_ms", latency.median(), format!("n={n}")),
        ("ttfb_p50_ms", ttfb.median(), format!("n={n}")),
        (
            "slowest_op_p50_ms",
            slowest_ms,
            format!("class {slowest_class}, n={slowest_n}"),
        ),
        ("rss_peak_mb", m.rss_peak_mb, "VmHWM".to_string()),
        (
            "stored_bytes_per_input_byte",
            stored as f64 / ds.nt_bytes as f64,
            format!("{stored} of {} bytes", ds.nt_bytes),
        ),
    ];
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer: BTreeMap::new(),
        errors,
    }
}

/// `GET /explore/open`, timed and checked like any other operation.
pub fn open_session(
    addr: SocketAddr,
    epoch: Instant,
    mix: &'static str,
) -> (Record, Option<String>) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let mut record = Record::started(mix, "open", 0, 0, start_ns);
    let mut token = None;
    match Client::new(addr).get("/explore/open") {
        Ok(r) => {
            record.timing = r.timing;
            record.bytes_in = r.bytes_in;
            token = std::str::from_utf8(&r.body)
                .ok()
                .and_then(|b| Json::parse(b).ok())
                .and_then(|doc| {
                    doc.get("session")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                })
                .filter(|_| r.status == 200);
            if token.is_none() {
                record.error = Some(format!("status {} without a session token", r.status));
            }
        }
        Err(e) => record.error = Some(format!("transport: {e}")),
    }
    (record, token)
}

/// One mix per client.
pub type Mixes = Vec<Box<dyn Mix>>;

/// The client mixes of an HTTP workload against a freshly booted server,
/// plus the records of whatever building them had to request.
pub fn build_mixes(
    workload: &str,
    ds: &Dataset,
    seed: u64,
    addr: SocketAddr,
    epoch: Instant,
    first_batch: u64,
) -> Result<(Mixes, Vec<Record>), String> {
    let model = &ds.model;
    let mut records = Vec::new();
    let mixes: Vec<Box<dyn Mix>> = match workload {
        "sparql_lookup" => (0..CLIENTS)
            .map(|c| Box::new(LookupMix::new(Arc::clone(model), seed, c)) as Box<dyn Mix>)
            .collect(),
        "sparql_analytic" => {
            let ops: Arc<Vec<_>> = Arc::new(
                analytic_ops(model, seed, ANALYTIC_VARIANTS)
                    .into_iter()
                    .map(Arc::new)
                    .collect(),
            );
            (0..CLIENTS)
                .map(|c| {
                    // Clients start half a cycle apart so they do not run
                    // the same template at the same moment.
                    let offset = c * (ANALYTIC_TEMPLATES / CLIENTS + 1);
                    Box::new(FixedMix::new(Arc::clone(&ops), offset, ANALYTIC_TEMPLATES))
                        as Box<dyn Mix>
                })
                .collect()
        }
        "explore_session" => {
            let mut tokens = Vec::new();
            for _ in 0..SESSION_OPENS {
                let (record, token) = open_session(addr, epoch, "explore_session");
                records.push(record);
                tokens.extend(token);
            }
            if tokens.len() < CLIENTS {
                return Err(format!(
                    "only {} of {SESSION_OPENS} session opens succeeded: {:?}",
                    tokens.len(),
                    records.iter().filter_map(|r| r.error.clone()).next()
                ));
            }
            // The newest sessions: older ones may already be evicted.
            tokens
                .split_off(tokens.len() - CLIENTS)
                .into_iter()
                .enumerate()
                .map(|(c, t)| {
                    Box::new(ExploreMix::new(Arc::clone(model), t, seed, c)) as Box<dyn Mix>
                })
                .collect()
        }
        "live_mixed" => {
            let acked = Arc::new(Mutex::new(Acked::default()));
            vec![
                Box::new(WriterMix::new(
                    seed,
                    model.entities(),
                    Arc::clone(&acked),
                    first_batch,
                )),
                Box::new(ReaderMix::new(Arc::clone(model), seed, acked)),
            ]
        }
        other => return Err(format!("{other} is not an HTTP workload")),
    };
    Ok((mixes, records))
}

/// Warm-up: two full cycles per client, a fixed amount of work so that its
/// duration (part of `setup_s`) reflects the program, not a timer. The
/// analytic workload additionally runs every query once under
/// `?engine=pairwise`, whose answers must satisfy the same expectations as
/// the default engine's.
fn warm_up(
    workload: &str,
    ds: &Dataset,
    seed: u64,
    addr: SocketAddr,
    mixes: &mut [Box<dyn Mix>],
    epoch: Instant,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    if workload == "sparql_analytic" {
        // The triangle count stays out: a pairwise plan for a cyclic join
        // builds intermediate results beyond the server's row cap at full
        // size and degrades, which is why the WCO join exists. It is
        // checked against the model like every other answer.
        let pairwise: Vec<_> = analytic_ops(&ds.model, seed, ANALYTIC_VARIANTS)
            .into_iter()
            .filter(|op| op.class != "triangles")
            .map(|mut op| {
                op.target = "/sparql?engine=pairwise".to_string();
                op.class = "agreement";
                Arc::new(op)
            })
            .collect();
        let n = pairwise.len();
        let mut one: Vec<Box<dyn Mix>> = vec![Box::new(FixedMix::new(
            Arc::new(pairwise),
            0,
            ANALYTIC_TEMPLATES,
        ))];
        records.extend(drive(
            addr,
            &mut one,
            Stop::After(n),
            false,
            epoch,
            "agreement",
        )?);
    }
    let cycles = mixes.iter().map(|m| m.cycle_len()).max().unwrap_or(1);
    records.extend(drive(
        addr,
        mixes,
        Stop::After(2 * cycles),
        false,
        epoch,
        "warmup",
    )?);
    Ok(records)
}

/// A booted, warmed-up server with its mixes, ready for the window.
pub struct Ready {
    pub server: Server,
    pub mixes: Vec<Box<dyn Mix>>,
    /// Each client's mix cycle length.
    pub cycle_lens: Vec<usize>,
    pub setups_s: Vec<f64>,
    pub setup_records: Vec<Record>,
}

/// Set-up of an HTTP workload, `SETUP_REPEATS` times over: boot to the
/// first `/healthz` 200, then build the mixes and warm up — each part
/// between speed samples and summed at reference speed. All but the last
/// server are shut down again; `setup_s` is the median of the repeats.
pub fn set_up(
    cfg: &Config,
    workload: &str,
    ds: &Dataset,
    seg_dir: &Path,
    epoch: Instant,
) -> Result<Ready, String> {
    let mut setups_s = Vec::new();
    let mut setup_records = Vec::new();
    for repeat in 0..SETUP_REPEATS {
        let (server, boot_s, _) = speed::timed(|| Server::boot(&cfg.wodex, seg_dir));
        let server = server?;
        let (warmed, warm_s, speed) = speed::timed(|| {
            let (mut mixes, mut records) =
                build_mixes(workload, ds, cfg.seed, server.addr, epoch, 0)?;
            records.extend(warm_up(
                workload,
                ds,
                cfg.seed,
                server.addr,
                &mut mixes,
                epoch,
            )?);
            Ok::<_, String>((mixes, records))
        });
        let (mut mixes, mut records) = warmed?;
        records.iter_mut().for_each(|r| r.speed = speed);
        setups_s.push(boot_s + warm_s);
        let cycle_lens: Vec<usize> = mixes.iter().map(|m| m.cycle_len()).collect();
        setup_records.extend(records);
        if repeat + 1 < SETUP_REPEATS {
            server.shutdown()?;
            continue;
        }
        if cfg.self_test {
            let first = mixes.remove(0);
            mixes.insert(
                0,
                Box::new(Corrupted {
                    inner: first,
                    done: false,
                }),
            );
        }
        return Ok(Ready {
            server,
            mixes,
            cycle_lens,
            setups_s,
            setup_records,
        });
    }
    unreachable!("SETUP_REPEATS is at least one")
}

/// One untraced run of an HTTP workload.
pub fn run_http(cfg: &Config, workload: &str) -> Result<Outcome, String> {
    let ds = dataset(cfg)?;
    let work = WorkDir::create(cfg, workload)?;
    let seg_dir = work.0.join("seg");
    let stored_bytes = load(cfg, &ds, &seg_dir)?.stored_bytes;
    let epoch = Instant::now();
    let mut ready = set_up(cfg, workload, &ds, &seg_dir, epoch)?;
    let addr = ready.server.addr;
    let window = timed_window(cfg.seconds, &ready.cycle_lens, |stop| {
        drive(addr, &mut ready.mixes, stop, false, epoch, "window")
    })?;
    let rss_peak_mb = proc::status_mb(ready.server.pid(), "VmHWM")?;
    ready.server.shutdown()?;
    Ok(summarize(
        &ds,
        &Measured {
            setups_s: ready.setups_s,
            setup_records: ready.setup_records,
            window,
            rss_peak_mb,
            stored_bytes,
        },
    ))
}
