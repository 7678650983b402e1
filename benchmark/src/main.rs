//! The standing wodex benchmark.
//!
//! ```text
//! wodex-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result JSON
//!     the driver reads (end-to-end metrics untraced, per-layer traced)
//! wodex-benchmark [--seed N] [--seconds S] [--trace] [--quick | --full]
//!                 [--repeat N] [--out FILE] [--record] [--self-test]
//!     every workload in turn, every metric by name with its unit
//! wodex-benchmark compare A.json B.json
//!     two `--out` files, row by row, against the bounds
//! wodex-benchmark spec [--table]
//!     BENCHMARK.json (or README.md's prediction table) from `spec.rs`
//! ```
//!
//! README.md defines the workloads and metrics; `spec.rs` lists them.

mod alloc;
mod answers;
mod compare;
mod drive;
mod gen;
mod http;
mod json;
mod layers;
mod proc;
mod report;
mod requests;
mod segquery;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::path::PathBuf;
use std::time::Instant;
use workloads::{Config, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    full: bool,
    repeat: u64,
    out: Option<PathBuf>,
    record: bool,
    self_test: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        full: false,
        repeat: 1,
        out: None,
        record: false,
        self_test: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = number(value("a number")?)?,
            "--seconds" => {
                let v = value("a number")?;
                let s = v
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds: bad number {v:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // turns tracing on.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--full" => a.full = true,
            "--repeat" => a.repeat = number(value("a number")?)?.clamp(1, 100),
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--record" => a.record = true,
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.quick && a.full {
        return Err("--quick and --full exclude each other".to_string());
    }
    Ok(a)
}

/// `benchmark/out`, beside the harness's sources: the executable lives in
/// `<target>/release`, so the directory is found from the manifest path
/// the build recorded, falling back to the working directory's.
fn out_dir() -> PathBuf {
    let from_cwd = PathBuf::from("benchmark");
    if from_cwd.join("Cargo.toml").is_file() {
        from_cwd.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn run_one(cfg: &Config, workload: &str) -> Result<Outcome, String> {
    if spec::workload(workload).is_none() {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    if cfg.trace {
        trace::run_traced(cfg, workload)
    } else if workload == "seg_query" {
        segquery::run_seg(cfg)
    } else {
        workloads::run_http(cfg, workload)
    }
}

fn real_main(raw: &[String]) -> Result<i32, String> {
    if raw.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (raw.get(1), raw.get(2)) else {
            return Err("compare needs two result files".to_string());
        };
        return compare::compare_files(a.as_ref(), b.as_ref());
    }
    if raw.first().map(String::as_str) == Some("spec") {
        print!(
            "{}",
            if raw.get(1).map(String::as_str) == Some("--table") {
                spec::prediction_table()
            } else {
                spec::benchmark_json()
            }
        );
        return Ok(0);
    }
    let args = parse_args(raw)?;
    let started = Instant::now();
    let entities = if args.quick {
        spec::QUICK_ENTITIES
    } else if args.full {
        spec::FULL_ENTITIES
    } else {
        spec::DEFAULT_ENTITIES
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        2.0
    } else if args.full {
        20.0
    } else {
        f64::from(spec::RUN_SECONDS)
    });
    let config = |seed: u64| -> Result<Config, String> {
        Ok(Config {
            seed,
            entities,
            seconds,
            trace: args.trace,
            self_test: args.self_test,
            out_dir: out_dir(),
            wodex: proc::wodex_binary()?,
        })
    };

    // Driver mode: one workload, result JSON on the last line.
    if let Some(workload) = &args.workload {
        let cfg = config(args.seed)?;
        let outcome = run_one(&cfg, workload)?;
        report::print_outcome(workload, &cfg, &outcome);
        println!("total wall time {:.1} s", started.elapsed().as_secs_f64());
        println!("{}", report::result_line(&outcome, cfg.trace));
        return Ok(if outcome.failed == 0 { 0 } else { 1 });
    }

    // Every workload, untraced and — with `--trace` — traced as well.
    let mut runs = Vec::new();
    let mut failed = 0;
    for repeat in 0..args.repeat {
        for w in &spec::WORKLOADS {
            for traced in [false, true] {
                if traced && !args.trace {
                    continue;
                }
                let cfg = Config {
                    trace: traced,
                    ..config(args.seed + repeat)?
                };
                let outcome = run_one(&cfg, w.name)?;
                report::print_outcome(w.name, &cfg, &outcome);
                failed += outcome.failed;
                runs.push(report::run_json(w.name, &cfg, &outcome));
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    println!("total wall time {wall:.1} s");
    let document = report::document(&runs, entities, seconds, wall);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{document}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    if args.record {
        report::append_history(&document)?;
    }
    if args.self_test {
        // The self-test passes exactly when the corruption was noticed.
        println!("self-test: {failed} operations counted as failed");
        return Ok(if failed > 0 { 0 } else { 1 });
    }
    Ok(if failed == 0 { 0 } else { 1 })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&raw) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("wodex-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
