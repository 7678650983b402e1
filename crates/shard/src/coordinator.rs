//! The scatter-gather coordinator.
//!
//! Plans once, gathers everywhere, evaluates locally:
//!
//! 1. **Parse** the query and extract its [`scan_patterns`] — the
//!    constant-position triple scans whose union covers every triple
//!    the evaluation can read.
//! 2. **Route** each scan with the [`ShardMap`]: subject-constant scans
//!    go to the one owning shard, everything else fans out to all.
//! 3. **Scatter** (one thread per shard, scans within a shard serial):
//!    every remote call runs through the [`ShardClient`]'s breaker,
//!    retry, deadline-slice and hedging stack.
//! 4. **Gather** the returned triples into a local graph — shards
//!    partition the data disjointly, so the union *is* the full match
//!    set when every shard answers.
//! 5. **Evaluate** with the ordinary single-process engine (planner,
//!    worst-case-optimal joins, filters, aggregates) over the gathered
//!    union. At fault rate 0 this is bit-identical to evaluating
//!    against the unpartitioned store.
//!
//! Missing shards shrink the gathered union, and every engine operator
//! is monotone in its input triples, so the coordinator's partial answer
//! is a **sound subset** — reported, never hidden: the per-shard
//! outcomes fold into a [`Degraded`] verdict via [`merge_coverage`] and
//! compose multiplicatively with the local evaluator's own verdict.

use crate::client::{ScanResult, ShardClient, ShardClientConfig, ShardHealth};
use crate::error::ShardError;
use std::sync::Arc;
use std::time::Instant;
use wodex_rdf::Graph;
use wodex_sparql::{
    compose_degraded, merge_coverage, parse_query, scan_patterns, slice_deadline, Budget, Degraded,
    Engine, QueryError, QueryResult, QueryTrace, ScanPattern, ShardOutcome, Stage,
};
use wodex_store::{Route, ShardMap, TripleStore};

/// One shard's part in one query, for trailers, `/stats`, and explain.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub index: u32,
    /// Worker address.
    pub addr: String,
    /// Gather outcome (drives the coverage math).
    pub outcome: ShardOutcome,
    /// Scans routed to this shard.
    pub scans: usize,
    /// Triples it contributed.
    pub triples: usize,
    /// First hard error, if the shard failed.
    pub error: Option<ShardError>,
}

impl ShardReport {
    /// The compact wire form used in the `X-Wodex-Shards` trailer:
    /// `<index>:<ok|partial|failed>:<triples>`.
    pub fn wire(&self) -> String {
        let state = match self.outcome {
            ShardOutcome::Ok => "ok",
            ShardOutcome::Partial(_) => "partial",
            ShardOutcome::Failed => "failed",
        };
        format!("{}:{}:{}", self.index, state, self.triples)
    }
}

/// A distributed query answer: the result, the composed verdict, and
/// the per-shard accounting behind it.
#[derive(Debug)]
pub struct CoordinatedResult {
    /// The (possibly partial) answer.
    pub result: QueryResult,
    /// Composed degradation verdict (scatter × local evaluation).
    pub degraded: Option<Degraded>,
    /// Per-shard reports, shard order.
    pub shards: Vec<ShardReport>,
}

/// A scatter-gather front-end over `N` worker shards.
pub struct Coordinator {
    clients: Vec<Arc<ShardClient>>,
    map: ShardMap,
}

impl Coordinator {
    /// A coordinator over workers at `addrs` (shard `k` = `addrs[k]`,
    /// which must match each worker's `--shard k/N`).
    pub fn new(addrs: Vec<String>, cfg: ShardClientConfig) -> Coordinator {
        let clients = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| Arc::new(ShardClient::new(i as u32, a.clone(), cfg)))
            .collect::<Vec<_>>();
        Coordinator {
            map: ShardMap::new(clients.len() as u32),
            clients,
        }
    }

    /// Parses a shard-map file: one `host:port` per line, `#` comments
    /// and blank lines ignored; line order assigns shard indexes.
    pub fn parse_shards_file(text: &str) -> Vec<String> {
        text.lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(|l| l.to_string())
            .collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.map.shards()
    }

    /// The shard map (exposed for tests and the worker CLI).
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Per-shard operational health (breaker state, observed p95).
    pub fn health(&self) -> Vec<ShardHealth> {
        self.clients.iter().map(|c| c.health()).collect()
    }

    /// Evaluates `text` across the shards under `budget`.
    ///
    /// Only a parse error is an `Err`; every runtime misfortune —
    /// dead shards, expired slices, local budget trips — degrades the
    /// answer instead, with the accounting in
    /// [`CoordinatedResult::shards`].
    pub fn query_traced_with(
        &self,
        text: &str,
        budget: &Budget,
        trace: &QueryTrace,
        engine: Engine,
    ) -> Result<CoordinatedResult, QueryError> {
        let q = {
            let _span = trace.span(Stage::Parse);
            parse_query(text).map_err(QueryError::Parse)?
        };
        let scans = scan_patterns(&q);

        // Route: per-shard work lists. Subject-constant scans touch one
        // shard; open-subject scans touch all.
        let mut routed: Vec<Vec<&ScanPattern>> = vec![Vec::new(); self.clients.len()];
        for scan in &scans {
            match self.map.route(scan.s.as_ref()) {
                Route::One(k) => routed[k as usize].push(scan),
                Route::All => {
                    for list in routed.iter_mut() {
                        list.push(scan);
                    }
                }
            }
        }

        // Scatter: one thread per shard with routed work, scans serial
        // within a shard so a failing shard is abandoned after its first
        // hard error instead of timing out once per scan.
        let slice = slice_deadline(budget);
        let scatter_span = trace.span(Stage::Scatter);
        let gathered: Vec<(Graph, ShardReport)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .zip(&routed)
                .map(|(client, scans)| scope.spawn(move || gather_shard(client, scans, slice)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gather thread panicked"))
                .collect()
        });
        let mut graph = Graph::new();
        let mut reports = Vec::with_capacity(gathered.len());
        let mut outcomes = Vec::new();
        for (part, report) in gathered {
            trace.add_items(Stage::Scatter, part.len() as u64);
            trace.record_plan_step(wodex_obs::PlanStepTrace {
                op: "scatter",
                detail: format!("shard {} {} {}", report.index, report.addr, report.wire()),
                est_rows: report.scans as u64,
                actual_rows: part.len() as u64,
            });
            if report.scans > 0 {
                outcomes.push(report.outcome);
            }
            graph.merge(&part);
            reports.push(report);
        }
        drop(scatter_span);
        let scatter_verdict = merge_coverage(&outcomes);

        // Gather → local store → ordinary full evaluation.
        let store = TripleStore::from_graph(&graph);
        let local = wodex_sparql::evaluate_with(&store, &q, budget, trace, engine)?;
        Ok(CoordinatedResult {
            result: local.result,
            degraded: compose_degraded(scatter_verdict, local.degraded),
            shards: reports,
        })
    }
}

/// Runs one shard's scan list serially, accumulating its contribution.
fn gather_shard(
    client: &ShardClient,
    scans: &[&ScanPattern],
    slice: Option<std::time::Duration>,
) -> (Graph, ShardReport) {
    let started = Instant::now();
    let mut graph = Graph::new();
    let mut coverages = Vec::new();
    let mut error = None;
    for scan in scans {
        // The slice bounds the shard's *total* spend for this query.
        let left = slice.map(|d| d.saturating_sub(started.elapsed()));
        match client.scan(scan, left) {
            Ok(ScanResult {
                triples, degraded, ..
            }) => {
                for t in triples {
                    graph.insert(t);
                }
                coverages.push(degraded.map_or(1.0, |d| d.coverage));
            }
            Err(e) => {
                // First hard error abandons the remaining scans: the
                // breaker/deadline already decided this shard is gone,
                // and an incomplete scan set means the shard's
                // contribution cannot be trusted as complete anyway.
                error = Some(e);
                break;
            }
        }
    }
    let outcome = if error.is_some() {
        ShardOutcome::Failed
    } else if coverages.iter().any(|c| *c < 1.0) {
        let n = coverages.len().max(1) as f64;
        ShardOutcome::Partial(coverages.iter().sum::<f64>() / n)
    } else {
        ShardOutcome::Ok
    };
    let report = ShardReport {
        index: client.index(),
        addr: client.addr().to_string(),
        outcome,
        scans: scans.len(),
        triples: graph.len(),
        error,
    };
    (graph, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_file_parses_comments_and_blanks() {
        let text = "# the fleet\n127.0.0.1:7001\n\n127.0.0.1:7002  # second\n";
        assert_eq!(
            Coordinator::parse_shards_file(text),
            vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()]
        );
    }

    #[test]
    fn all_shards_dead_still_answers_with_zero_coverage() {
        // Two unreachable shards: the query must come back Ok (empty,
        // degraded), not Err — robustness means no query ever dies with
        // the fleet.
        let cfg = ShardClientConfig {
            retry: wodex_resilience::RetryPolicy::none(),
            connect_timeout: std::time::Duration::from_millis(100),
            hedging: false,
            ..Default::default()
        };
        let coord = Coordinator::new(
            vec!["127.0.0.1:1".to_string(), "127.0.0.1:1".to_string()],
            cfg,
        );
        let trace = QueryTrace::new();
        let r = coord
            .query_traced_with(
                "SELECT ?s WHERE { ?s ?p ?o }",
                &Budget::unlimited(),
                &trace,
                Engine::default(),
            )
            .expect("parse is fine, failure degrades");
        let d = r.degraded.expect("all shards down must degrade");
        assert_eq!(d.coverage, 0.0);
        assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Failed));
        match r.result {
            QueryResult::Solutions(t) => assert_eq!(t.len(), 0),
            other => panic!("expected empty solutions, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_is_still_an_error() {
        let coord = Coordinator::new(vec![], ShardClientConfig::default());
        let trace = QueryTrace::new();
        assert!(coord
            .query_traced_with(
                "SELECT WHERE garbage",
                &Budget::unlimited(),
                &trace,
                Engine::default(),
            )
            .is_err());
    }
}
