//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists for the driver; a test keeps the
//! two in step.

/// Entities the driver's runs generate: an eighth of the 100 000 the
/// issue sized the dataset at (`--full`). The driver's total-time cap (114
/// runs and two builds in 3420 s) leaves ~28 s per run, and a `wodex
/// serve` boot alone is ~11 s at 100 000 entities, ~3.2 s at 50 000 and up
/// to 3.7 s at 25 000, against three boots per run for a steady `setup_s`
/// plus four session opens on `explore_session`.
pub const DEFAULT_ENTITIES: u32 = 12_500;
pub const FULL_ENTITIES: u32 = 100_000;
pub const QUICK_ENTITIES: u32 = 5_000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// An operation answered correctly within this is interactive.
pub const INTERACTIVE_MS: f64 = 500.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sparql_lookup",
        why: "point /sparql queries over uniform entities: serving overhead, parser and plan cache do the work, joins and scans none (dataset: 12 500 entities, 136k triples, every workload)",
    },
    Workload {
        name: "sparql_analytic",
        why: "heavy /sparql joins, aggregates, range filters and a triangle count: planner, scans, WCO join and serializer do the work, serving <1 %",
    },
    Workload {
        name: "explore_session",
        why: "session opens then a state-restoring explore/viz click cycle: facets, search, graph copy and charts do the work, SPARQL none",
    },
    Workload {
        name: "live_mixed",
        why: "32-triple POST /data commits beside lookup reads with read-your-writes checks: MVCC copy-on-write sits beside the read path",
    },
    Workload {
        name: "seg_query",
        why: "in-process queries over wodex-load segments with a block cache a fifth of the decoded data: cache, zone maps and block decode work, serving none",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined on all five; README.md says what it means on each.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttfb_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "slowest_op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "stored_bytes_per_input_byte",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.01,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const LOOKUP: &str = "latency_p50_ms, throughput_ops_s on sparql_lookup and live_mixed";
const ANALYTIC: &str = "latency_p50_ms, slowest_op_p50_ms, ttfb_p50_ms on sparql_analytic";
const EXPLORE: &str = "latency_*, slowest_op_p50_ms, rss_peak_mb on explore_session";
const BOOT: &str = "setup_s, rss_peak_mb on the four HTTP workloads";
const SEG: &str = "latency_*, throughput_ops_s, setup_s on seg_query";
const LOAD: &str = "setup_s on seg_query, stored_bytes_per_input_byte on every workload";
const COMMIT: &str = "slowest_op_p50_ms on live_mixed";

pub const PER_LAYER: [PerLayer; 73] = [
    // wodex-serve, from the traced lookup mix.
    layer("serve.connect_us_p50", "us", Lower, LOOKUP),
    layer("serve.overhead_us_p50", "us", Lower, LOOKUP),
    layer("serve.queue_wait_us_mean", "us", Lower, LOOKUP),
    layer("serve.http_parse_us", "us", Lower, LOOKUP),
    layer("serve.cpu_ms_per_op", "ms", Lower, LOOKUP),
    layer("serve.shed_total", "count", Lower, LOOKUP),
    layer("serve.bytes_out_per_op", "B", Lower, LOOKUP),
    // wodex-sparql: front end from the lookup mix, engine from the analytic mix.
    layer("sparql.parse_us_mean", "us", Lower, LOOKUP),
    layer("sparql.plan_us_mean", "us", Lower, LOOKUP),
    layer("sparql.plan_cache_hit_ratio", "ratio", Higher, LOOKUP),
    layer("sparql.bgp_probe_ms_mean", "ms", Lower, ANALYTIC),
    layer("sparql.filter_ms_mean", "ms", Lower, ANALYTIC),
    layer("sparql.rows_probed_per_row_out", "ratio", Lower, ANALYTIC),
    layer("sparql.qerror_p50", "ratio", Lower, ANALYTIC),
    layer("sparql.wco_share", "ratio", Higher, ANALYTIC),
    layer("sparql.decode_us_per_row", "us", Lower, ANALYTIC),
    layer("sparql.serialize_us_per_row", "us", Lower, ANALYTIC),
    // wodex-store, in-process.
    layer("store.build_ms", "ms", Lower, BOOT),
    layer("store.probe_us", "us", Lower, LOOKUP),
    layer("store.scan_mtriples_s", "Mtriples/s", Higher, ANALYTIC),
    layer("store.snapshot_ns", "ns", Lower, LOOKUP),
    layer("store.commit_ms", "ms", Lower, COMMIT),
    layer("store.bytes_per_triple", "B", Lower, BOOT),
    layer("live.commit_ms_p50", "ms", Lower, COMMIT),
    layer(
        "live.plan_cache_hit_ratio",
        "ratio",
        Higher,
        "latency_p50_ms on live_mixed",
    ),
    // wodex-seg: the `wodex load` child, then in-process.
    layer("load.triples_per_s", "1/s", Higher, LOAD),
    layer("seg.load_s", "s", Lower, LOAD),
    layer("seg.runs_spilled", "count", Lower, LOAD),
    layer("seg.open_ms", "ms", Lower, SEG),
    layer("seg.probe_cold_us", "us", Lower, SEG),
    layer("seg.probe_warm_us", "us", Lower, SEG),
    layer("seg.scan_cold_mtriples_s", "Mtriples/s", Higher, SEG),
    layer("seg.scan_warm_mtriples_s", "Mtriples/s", Higher, SEG),
    layer("seg.cache_hit_ratio", "ratio", Higher, SEG),
    layer("seg.cache_evictions", "count", Lower, SEG),
    layer("seg.blocks_read_per_op", "count", Lower, SEG),
    layer("seg.bytes_per_triple", "B", Lower, LOAD),
    // wodex-rdf, in-process.
    layer("rdf.ntriples_parse_mtriples_s", "Mtriples/s", Higher, LOAD),
    layer("rdf.graph_build_ms", "ms", Lower, BOOT),
    layer("rdf.graph_bytes_per_triple", "B", Lower, BOOT),
    // Boot path.
    layer("core.explorer_from_store_ms", "ms", Lower, BOOT),
    layer("proc.boot_s", "s", Lower, BOOT),
    layer("proc.rss_after_boot_mb", "MB", Lower, BOOT),
    // wodex-explore / wodex-viz / wodex-approx, from the traced explore mix.
    layer("explore.session_build_ms", "ms", Lower, EXPLORE),
    layer("explore.session_rss_mb", "MB", Lower, EXPLORE),
    layer("explore.open_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.overview_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.facets_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.filter_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.zoom_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.search_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.hits_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.details_ms_p50", "ms", Lower, EXPLORE),
    layer("explore.undo_ms_p50", "ms", Lower, EXPLORE),
    layer("viz.hist_ms_p50", "ms", Lower, EXPLORE),
    layer("viz.chart_ms_p50", "ms", Lower, EXPLORE),
    layer("viz.recommend_ms_p50", "ms", Lower, EXPLORE),
    layer("approx.hist_build_ms", "ms", Lower, EXPLORE),
    // wodex-exec and wodex-obs, in-process.
    layer(
        "exec.dispatch_us",
        "us",
        Lower,
        "latency_* on sparql_analytic and seg_query",
    ),
    layer(
        "exec.speedup_2t",
        "ratio",
        Higher,
        "latency_* on sparql_analytic and seg_query",
    ),
    layer(
        "obs.enabled_overhead_ratio",
        "ratio",
        Lower,
        "every latency; predicted <= 1.05",
    ),
    // The traced window of the workload itself.
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none: traced vs untraced latency_p50_ms",
    ),
    layer(
        "trace.spans",
        "count",
        Higher,
        "none: spans written to the trace file",
    ),
    layer(
        "trace.stage_sum_violations",
        "count",
        Lower,
        "none: spans whose server stages exceed client latency",
    ),
    layer(
        "window.interactive_share",
        "ratio",
        Higher,
        "none: share answered correctly within 500 ms",
    ),
    layer("window.failed_share", "ratio", Lower, "none: must stay 0"),
    layer(
        "window.latency_p90_ms",
        "ms",
        Lower,
        "none: the tail, too noisy on shared hosts to gate",
    ),
    layer(
        "window.latency_p95_ms",
        "ms",
        Lower,
        "none: the tail, too noisy on shared hosts to gate",
    ),
    layer(
        "window.cpu_ms_per_op",
        "ms",
        Lower,
        "throughput_ops_s on the workload run",
    ),
    // The client's own spans on the lookup mix; they sum to its latency.
    layer("client.send_us_p50", "us", Lower, LOOKUP),
    layer(
        "client.wait_us_p50",
        "us",
        Lower,
        "ttfb_p50_ms on sparql_lookup",
    ),
    layer("client.body_us_p50", "us", Lower, LOOKUP),
    layer(
        "client.verify_us_p50",
        "us",
        Lower,
        "throughput_ops_s on sparql_lookup (harness cost)",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json` as the driver's contract wants it: exactly these keys,
/// written from the lists above (`wodex-benchmark spec`).
pub fn benchmark_json() -> String {
    use crate::json::{number, quote};
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The layer → end-to-end prediction table of README.md
/// (`wodex-benchmark spec --table`).
pub fn prediction_table() -> String {
    let mut out =
        String::from("| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn lists_obey_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the rules");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
        );
        let doc = Json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = match &doc {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn readme_carries_the_generated_prediction_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let readme = std::fs::read_to_string(path).expect("benchmark/README.md");
        assert!(
            readme.contains(&prediction_table()),
            "regenerate the table with `benchmark/run.sh spec --table`"
        );
    }
}
