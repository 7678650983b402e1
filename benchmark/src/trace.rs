//! The traced run: where the per-layer metrics come from.
//!
//! A traced run of a workload has four parts. (1) Boot `wodex serve`
//! `SETUP_REPEATS` times. (2) Run the workload's own window, first half
//! with the client keeping nothing, second half keeping every span — the
//! ratio of the halves' median latencies is the tracing overhead. (3) Run
//! a fixed traced mini-run of each HTTP mix (lookup, analytic, explore,
//! live) against the same server: client spans plus the stage times the
//! server reports in `X-Wodex-Trace` / `X-Wodex-Plan` headers and the
//! serialize trailer, and `/metrics` deltas around each mini-run. (4)
//! After the server has exited, the in-process layer drive
//! ([`crate::layers`]). Parts 3 and 4 are the same procedure whatever the
//! workload, so every traced run measures every per-layer metric.
//!
//! Spans stay in memory until the end and are then written to
//! `benchmark/out/trace-<workload>.json`.

use crate::drive::{drive, first_errors, Record, Stop};
use crate::http::Client;
use crate::json::{number, quote};
use crate::layers::{drive_layers, LayerSpan};
use crate::proc::{self, Server};
use crate::requests::{ANALYTIC_TEMPLATES, EXPLORE_CYCLE};
use crate::segquery::{cache_bytes, drive_seg, open_store, seg_mixes, SEG_CYCLE};
use crate::spec::{INTERACTIVE_MS, PER_LAYER, SETUP_REPEATS};
use crate::speed;
use crate::stats::{median, Samples};
use crate::workloads::{
    build_mixes, dataset, open_session, timed_load, timed_window, Config, Outcome, WorkDir, CLIENTS,
};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The `/metrics` series the per-layer metrics read, summed over labels.
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let r = Client::new(addr)
            .get("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        let text = String::from_utf8_lossy(&r.body);
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let family = name.split('{').next().unwrap_or(name);
            // Histogram buckets are cumulative per `le`; only `_sum` and
            // `_count` are read, so buckets are left out of the sums.
            if family.ends_with("_bucket") {
                continue;
            }
            if let Ok(v) = value.parse::<f64>() {
                *series.entry(family.to_string()).or_insert(0.0) += v;
            }
        }
        Ok(Scrape(series))
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `after − self` of one series.
    fn delta(&self, after: &Scrape, name: &str) -> f64 {
        after.get(name) - self.get(name)
    }
}

/// `stage=12us` or `stage=12us/340` fields of an `X-Wodex-Trace` value:
/// `(microseconds, items)` of `stage`, zeros when the stage is absent.
fn stage(trace: &str, stage: &str) -> (f64, f64) {
    trace
        .split(';')
        .filter_map(|f| f.split_once('='))
        .find(|(name, _)| *name == stage)
        .map(|(_, v)| {
            let (us, items) = v.split_once('/').unwrap_or((v, "0"));
            (
                us.trim_end_matches("us").parse().unwrap_or(0.0),
                items.parse().unwrap_or(0.0),
            )
        })
        .unwrap_or((0.0, 0.0))
}

/// Microseconds of every stage the server reported for one answer,
/// serialize trailer included.
fn server_us(r: &Record) -> Option<f64> {
    let s = r.server.as_ref()?;
    let staged: f64 = s
        .trace
        .split(';')
        .filter_map(|f| f.split_once('='))
        .map(|(name, _)| stage(&s.trace, name).0)
        .sum();
    Some(
        staged
            + s.serialize
                .trim_end_matches("us")
                .parse::<f64>()
                .unwrap_or(0.0),
    )
}

/// `(estimated, actual)` rows of each step in an `X-Wodex-Plan` value,
/// with the operator's name.
fn plan_steps(plan: &str) -> Vec<(&str, f64, f64)> {
    plan.split(',')
        .filter_map(|step| {
            let mut parts = step.split(':');
            let op = parts.next()?;
            let est = parts.next()?.strip_prefix("est=")?.parse().ok()?;
            let act = parts.next()?.strip_prefix("act=")?.parse().ok()?;
            Some((op, est, act))
        })
        .collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50(records: &[&Record], f: impl Fn(&Record) -> f64) -> f64 {
    Samples::new(records.iter().map(|r| f(r)).collect()).median()
}

fn mean(records: &[&Record], f: impl Fn(&Record) -> f64) -> f64 {
    Samples::new(records.iter().map(|r| f(r)).collect()).mean()
}

fn class_p50(records: &[Record], class: &str) -> f64 {
    let of: Vec<&Record> = records
        .iter()
        .filter(|r| r.class == class && r.error.is_none())
        .collect();
    p50(&of, Record::latency_ms)
}

/// One traced mini-run of an HTTP mix, with what surrounded it.
struct MiniRun {
    records: Vec<Record>,
    before: Scrape,
    after: Scrape,
    /// Server CPU seconds over the run, at reference speed.
    cpu_s: f64,
    /// The host's speed over the run; the server's own stage reports are
    /// multiplied by it, like every client timing.
    speed: f64,
}

fn mini_run(
    cfg: &Config,
    ds: &crate::workloads::Dataset,
    server: &Server,
    mix: &'static str,
    stop: Stop<'_>,
    epoch: Instant,
) -> Result<MiniRun, String> {
    // Batches far from the window's, should the workload itself be live.
    let (mut mixes, mut records) =
        build_mixes(mix, ds, cfg.seed ^ 0x7ACE, server.addr, epoch, 1_000_000)?;
    let before = Scrape::take(server.addr)?;
    let cpu_before = proc::cpu_seconds(server.pid())?;
    let (driven, _, speed) =
        speed::timed(|| drive(server.addr, &mut mixes, stop, true, epoch, mix));
    records.extend(driven?);
    // Client timings of the mini-run are read at reference speed.
    records.iter_mut().for_each(|r| r.speed = speed);
    let cpu_s = (proc::cpu_seconds(server.pid())? - cpu_before) * speed;
    let after = Scrape::take(server.addr)?;
    Ok(MiniRun {
        records,
        before,
        after,
        cpu_s,
        speed,
    })
}

fn ok_of(records: &[Record]) -> Vec<&Record> {
    records.iter().filter(|r| r.error.is_none()).collect()
}

/// The per-layer metrics of the lookup mini-run.
fn lookup_metrics(run: &MiniRun, m: &mut BTreeMap<&'static str, f64>) {
    let ok = ok_of(&run.records);
    let n = ok.len().max(1) as f64;
    // Every timing below is read at the mini-run's reference speed, the
    // server's own stage reports included.
    m.insert(
        "serve.connect_us_p50",
        p50(&ok, |r| us(r.timing.connected_ns) * r.speed),
    );
    m.insert(
        "serve.overhead_us_p50",
        p50(&ok, |r| {
            (us(r.timing.done_ns) - server_us(r).unwrap_or(0.0)) * r.speed
        }),
    );
    let waits = run
        .before
        .delta(&run.after, "wodex_serve_queue_wait_seconds_count");
    m.insert(
        "serve.queue_wait_us_mean",
        run.before
            .delta(&run.after, "wodex_serve_queue_wait_seconds_sum")
            * 1e6
            * run.speed
            / waits.max(1.0),
    );
    m.insert("serve.cpu_ms_per_op", run.cpu_s * 1e3 / n);
    m.insert("serve.shed_total", run.after.get("wodex_serve_shed_total"));
    m.insert(
        "serve.bytes_out_per_op",
        ok.iter().map(|r| r.bytes_in as f64).sum::<f64>() / n,
    );
    let traced = |name: &str| {
        run.speed
            * mean(&ok, |r| {
                r.server.as_ref().map_or(0.0, |s| stage(&s.trace, name).0)
            })
    };
    m.insert("sparql.parse_us_mean", traced("parse"));
    m.insert("sparql.plan_us_mean", traced("plan"));
    m.insert("sparql.plan_cache_hit_ratio", hit_ratio(run));
    m.insert(
        "client.send_us_p50",
        p50(&ok, |r| {
            us(r.timing.sent_ns - r.timing.connected_ns) * r.speed
        }),
    );
    m.insert(
        "client.wait_us_p50",
        p50(&ok, |r| {
            us(r.timing.first_byte_ns - r.timing.sent_ns) * r.speed
        }),
    );
    m.insert(
        "client.body_us_p50",
        p50(&ok, |r| {
            us(r.timing.done_ns - r.timing.first_byte_ns) * r.speed
        }),
    );
    m.insert(
        "client.verify_us_p50",
        p50(&ok, |r| us(r.verify_ns) * r.speed),
    );
}

fn hit_ratio(run: &MiniRun) -> f64 {
    let lookups = run
        .before
        .delta(&run.after, "wodex_plan_cache_lookups_total");
    run.before.delta(&run.after, "wodex_plan_cache_hits_total") / lookups.max(1.0)
}

/// The per-layer metrics of the analytic mini-run.
fn analytic_metrics(run: &MiniRun, m: &mut BTreeMap<&'static str, f64>) {
    let ok = ok_of(&run.records);
    // Summed `(microseconds at reference speed, items)` of one stage.
    let staged = |name: &str| -> (f64, f64) {
        ok.iter()
            .filter_map(|r| r.server.as_ref())
            .map(|s| stage(&s.trace, name))
            .fold((0.0, 0.0), |a, b| (a.0 + b.0 * run.speed, a.1 + b.1))
    };
    let n = ok.len().max(1) as f64;
    let rows_out: f64 = ok
        .iter()
        .filter_map(|r| r.server.as_ref())
        .map(|s| s.rows as f64)
        .sum();
    let (probe_us, probe_items) = staged("bgp_probe");
    m.insert("sparql.bgp_probe_ms_mean", probe_us / 1e3 / n);
    m.insert("sparql.filter_ms_mean", staged("filter").0 / 1e3 / n);
    m.insert(
        "sparql.rows_probed_per_row_out",
        probe_items / rows_out.max(1.0),
    );
    let (decode_us, decode_items) = staged("decode");
    m.insert(
        "sparql.decode_us_per_row",
        decode_us / decode_items.max(1.0),
    );
    let serialize_us: f64 = ok
        .iter()
        .filter_map(|r| r.server.as_ref())
        .map(|s| {
            s.serialize
                .trim_end_matches("us")
                .parse::<f64>()
                .unwrap_or(0.0)
        })
        .sum();
    m.insert(
        "sparql.serialize_us_per_row",
        serialize_us * run.speed / rows_out.max(1.0),
    );
    let plans: Vec<Vec<(&str, f64, f64)>> = ok
        .iter()
        .filter_map(|r| r.server.as_ref())
        .map(|s| plan_steps(&s.plan))
        .collect();
    // q-error of a step: how far off the estimate was, in either
    // direction, with one row of slack so empty steps stay finite.
    let qerrors: Vec<f64> = plans
        .iter()
        .flatten()
        .map(|(_, est, act)| ((est + 1.0) / (act + 1.0)).max((act + 1.0) / (est + 1.0)))
        .collect();
    m.insert("sparql.qerror_p50", median(&qerrors));
    let with_wco = plans
        .iter()
        .filter(|steps| {
            steps
                .iter()
                .any(|(op, ..)| op.contains("wco") || op.contains("leapfrog"))
        })
        .count();
    m.insert("sparql.wco_share", with_wco as f64 / n);
}

/// Spans whose server-reported stages add up to more than the client saw.
fn stage_sum_violations(records: &[Record]) -> usize {
    records
        .iter()
        .filter(|r| r.error.is_none())
        .filter(|r| server_us(r).is_some_and(|s| s > us(r.timing.done_ns)))
        .count()
}

fn write_trace(
    path: &std::path::Path,
    workload: &str,
    cfg: &Config,
    records: &[Record],
    layers: &[LayerSpan],
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"entities\": {}, \"spans\": [",
        quote(workload),
        cfg.seed,
        cfg.entities
    )
    .map_err(io)?;
    for (i, r) in records.iter().enumerate() {
        let t = &r.timing;
        write!(
            out,
            "{}\n{{\"id\": \"{}-c{}-{}\", \"mix\": {}, \"class\": {}, \"start_us\": {}, \"connect_us\": {}, \"send_us\": {}, \"wait_us\": {}, \"body_us\": {}, \"verify_us\": {}, \"total_us\": {}, \"bytes_in\": {}, \"reused\": {}, \"ok\": {}",
            if i > 0 { "," } else { "" },
            r.mix,
            r.client,
            r.seq,
            quote(r.mix),
            quote(r.class),
            number(us(r.start_ns)),
            number(us(t.connected_ns)),
            number(us(t.sent_ns.saturating_sub(t.connected_ns))),
            number(us(t.first_byte_ns.saturating_sub(t.sent_ns))),
            number(us(t.done_ns.saturating_sub(t.first_byte_ns))),
            number(us(r.verify_ns)),
            number(us(t.done_ns)),
            r.bytes_in,
            t.reused,
            r.error.is_none()
        )
        .map_err(io)?;
        if let Some(s) = &r.server {
            write!(
                out,
                ", \"server\": {{\"trace\": {}, \"serialize\": {}, \"plan\": {}, \"rows\": {}}}",
                quote(&s.trace),
                quote(&s.serialize),
                quote(&s.plan),
                s.rows
            )
            .map_err(io)?;
        }
        out.write_all(b"}").map_err(io)?;
    }
    out.write_all(b"\n], \"layer_spans\": [").map_err(io)?;
    for (i, s) in layers.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"name\": {}, \"start_us\": {}, \"dur_us\": {}, \"count\": {}}}",
            if i > 0 { "," } else { "" },
            quote(s.name),
            number(us(s.start_ns)),
            number(us(s.dur_ns)),
            s.count
        )
        .map_err(io)?;
    }
    out.write_all(b"\n]}\n").map_err(io)?;
    out.flush().map_err(io)
}

/// One traced run of `workload`.
pub fn run_traced(cfg: &Config, workload: &str) -> Result<Outcome, String> {
    let ds = dataset(cfg)?;
    let work = WorkDir::create(cfg, workload)?;
    let seg_dir = work.0.join("seg");
    let epoch = Instant::now();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut loads = Vec::new();
    for _ in 0..SETUP_REPEATS {
        loads.push(ds.lines as f64 / timed_load(cfg, &ds, &seg_dir)?.wall_s);
    }
    m.insert("load.triples_per_s", median(&loads));

    // (1) Boots.
    let mut boots = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (booted, boot_s, _) = speed::timed(|| Server::boot(&cfg.wodex, &seg_dir));
        boots.push(boot_s);
        server = Some(booted?);
    }
    let server = server.expect("SETUP_REPEATS is at least one");
    m.insert("proc.boot_s", median(&boots));
    m.insert(
        "proc.rss_after_boot_mb",
        proc::status_mb(server.pid(), "VmRSS")?,
    );

    // (2) The workload's own window, untraced half then traced half.
    let half = cfg.seconds / 2.0;
    let mut window: Vec<Record> = Vec::new();
    let (first, second, cpu_s);
    if workload == "seg_query" {
        let (store, _cache) = open_store(&seg_dir, cache_bytes(ds.model.unique_triples()))?;
        let mut mixes = seg_mixes(&ds.model, cfg.seed);
        let warmup = drive_seg(
            &store,
            &mut mixes,
            Stop::After(2 * SEG_CYCLE),
            false,
            epoch,
            false,
        );
        window.extend(warmup);
        let cpu_before = proc::cpu_seconds(std::process::id())?;
        let mut slices = |traced: bool| {
            timed_window(half, &[SEG_CYCLE; CLIENTS], |stop| {
                Ok(drive_seg(&store, &mut mixes, stop, traced, epoch, false))
            })
        };
        first = slices(false)?.records;
        second = slices(true)?.records;
        cpu_s = proc::cpu_seconds(std::process::id())? - cpu_before;
    } else {
        let (mut mixes, opened) = build_mixes(workload, &ds, cfg.seed, server.addr, epoch, 0)?;
        window.extend(opened);
        let cycle_lens: Vec<usize> = mixes.iter().map(|x| x.cycle_len()).collect();
        let cycles = cycle_lens.iter().copied().max().unwrap_or(1);
        let warmup = drive(
            server.addr,
            &mut mixes,
            Stop::After(2 * cycles),
            false,
            epoch,
            "warmup",
        )?;
        window.extend(warmup);
        let cpu_before = proc::cpu_seconds(server.pid())?;
        let mut slices = |traced: bool| {
            timed_window(half, &cycle_lens, |stop| {
                drive(server.addr, &mut mixes, stop, traced, epoch, "window")
            })
        };
        first = slices(false)?.records;
        second = slices(true)?.records;
        cpu_s = proc::cpu_seconds(server.pid())? - cpu_before;
    }
    let reader_ok = |records: &[Record]| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.error.is_none() && !r.is_commit())
            .map(Record::latency_ms)
            .collect()
    };
    m.insert(
        "trace.overhead_ratio",
        median(&reader_ok(&second)) / median(&reader_ok(&first)),
    );
    let measured = first.len() + second.len();
    m.insert("window.cpu_ms_per_op", cpu_s * 1e3 / measured.max(1) as f64);
    let within = first
        .iter()
        .chain(&second)
        .filter(|r| r.error.is_none() && r.latency_ms() <= INTERACTIVE_MS)
        .count();
    let failed = first.iter().chain(&second).filter(|r| r.error.is_some());
    m.insert(
        "window.interactive_share",
        within as f64 / measured.max(1) as f64,
    );
    m.insert(
        "window.failed_share",
        failed.count() as f64 / measured.max(1) as f64,
    );
    let mut pooled = reader_ok(&first);
    pooled.extend(reader_ok(&second));
    let pooled = Samples::new(pooled);
    m.insert("window.latency_p90_ms", pooled.tail(0.9).1);
    m.insert("window.latency_p95_ms", pooled.tail(0.95).1);
    // `window` keeps what the client did not trace; `spans` what it did.
    window.extend(first);
    let mut spans = second;

    // (3) The four traced mini-runs.
    let lookup = mini_run(cfg, &ds, &server, "sparql_lookup", Stop::After(400), epoch)?;
    lookup_metrics(&lookup, &mut m);
    let analytic = mini_run(
        cfg,
        &ds,
        &server,
        "sparql_analytic",
        Stop::After(4 * ANALYTIC_TEMPLATES),
        epoch,
    )?;
    analytic_metrics(&analytic, &mut m);
    let rss_before_open = proc::status_mb(server.pid(), "VmRSS")?;
    let (probe_open, _) = open_session(server.addr, epoch, "explore_session");
    m.insert(
        "explore.session_rss_mb",
        (proc::status_mb(server.pid(), "VmRSS")? - rss_before_open).max(0.0),
    );
    let mut explore = mini_run(
        cfg,
        &ds,
        &server,
        "explore_session",
        Stop::After(3 * EXPLORE_CYCLE),
        epoch,
    )?;
    explore.records.push(probe_open);
    for (metric, class) in [
        ("explore.open_ms_p50", "open"),
        ("explore.overview_ms_p50", "overview"),
        ("explore.facets_ms_p50", "facets"),
        ("explore.filter_ms_p50", "filter"),
        ("explore.zoom_ms_p50", "zoom"),
        ("explore.search_ms_p50", "search"),
        ("explore.hits_ms_p50", "hits"),
        ("explore.details_ms_p50", "details"),
        ("explore.undo_ms_p50", "undo"),
        ("viz.hist_ms_p50", "viz_hist"),
        ("viz.chart_ms_p50", "viz_chart"),
        ("viz.recommend_ms_p50", "viz_recommend"),
    ] {
        m.insert(metric, class_p50(&explore.records, class));
    }
    let live = mini_run(
        cfg,
        &ds,
        &server,
        "live_mixed",
        Stop::At(Instant::now() + Duration::from_secs(1)),
        epoch,
    )?;
    let commits: Vec<&Record> = live
        .records
        .iter()
        .filter(|r| r.error.is_none() && r.is_commit())
        .collect();
    m.insert("live.commit_ms_p50", p50(&commits, Record::latency_ms));
    m.insert("live.plan_cache_hit_ratio", hit_ratio(&live));
    server.shutdown()?;

    let untraced = window;
    for run in [lookup, analytic, explore, live] {
        spans.extend(run.records);
    }
    m.insert(
        "trace.stage_sum_violations",
        stage_sum_violations(&spans) as f64,
    );

    // (4) The in-process layer drive, with the server gone.
    let layers = drive_layers(&ds, &work.0, cfg.seed)?;
    m.extend(layers.metrics);
    m.insert("trace.spans", (spans.len() + layers.spans.len()) as f64);
    write_trace(
        &cfg.out_dir.join(format!("trace-{workload}.json")),
        workload,
        cfg,
        &spans,
        &layers.spans,
    )?;

    if let Some(missing) = PER_LAYER.iter().find(|p| !m.contains_key(p.name)) {
        return Err(format!(
            "per-layer metric {} was not measured",
            missing.name
        ));
    }
    let all = || untraced.iter().chain(&spans);
    let errors = first_errors(all());
    Ok(Outcome {
        attempted: all().count() as u64,
        failed: all().filter(|r| r.error.is_some()).count() as u64,
        end_to_end: Vec::new(),
        per_layer: m,
        errors,
    })
}
