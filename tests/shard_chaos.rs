//! Chaos suite for the sharded scatter-gather path (PR 7).
//!
//! Four in-process shard workers behind a [`Coordinator`], with one
//! shard — chosen by `WODEX_FAULT_SEED` — killed, stalled, or flapped.
//! The contract under every fault:
//!
//! 1. **No panics, ever.** Remote misfortune surfaces as a typed
//!    [`ShardError`] inside the per-shard report, never as an `Err`
//!    from the query (only a parse error earns that).
//! 2. **Fault rate 0 is the identity.** A healthy fleet returns exactly
//!    the single-process engine's solution set over the same graph
//!    (compared in canonical row order: the gathered store holds only
//!    the matching triples, so its internal row order may differ).
//! 3. **Degradation is sound and accounted.** A lost shard yields the
//!    subset answer the live shards support, with coverage ≈ 3/4 on a
//!    one-of-four kill and the breaker open within its threshold.
//! 4. **Per-shard metrics conserve.** Under 8-thread load against a
//!    wounded fleet, Σ served+shed+failed == Σ fan-outs, per registry
//!    deltas (the registry is process-global, so every test here
//!    serializes on [`TEST_LOCK`]).

mod common;

use common::sorted_rows;
use std::sync::Mutex;
use std::time::Duration;
use wodex::core::Explorer;
use wodex::rdf::Graph;
use wodex::serve::{RunningServer, ServeConfig, Server};
use wodex::shard::{Coordinator, ShardClientConfig};
use wodex::sparql::{Budget, DegradeReason, Engine, QueryTrace};
use wodex::store::ShardMap;
use wodex::synth::dbpedia::{self, DbpediaConfig};

/// Serializes tests that read global-registry deltas (and keeps the
/// port-flapping test from racing other fleets for sockets).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Base seed for victim selection; override with `WODEX_FAULT_SEED=<n>`.
fn base_seed() -> u64 {
    std::env::var("WODEX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA117)
}

const SHARDS: u32 = 4;
const POP: &str = "http://dbp.example.org/ontology/population";

fn graph(entities: usize) -> Graph {
    dbpedia::generate(&DbpediaConfig {
        entities,
        ..Default::default()
    })
}

/// Boots one worker per shard, with a per-worker config hook (fault
/// injection), and a coordinator over the fleet.
fn fleet(g: &Graph, tweak: impl Fn(u32, &mut ServeConfig)) -> (Vec<RunningServer>, Coordinator) {
    let map = ShardMap::new(SHARDS);
    let mut workers = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..SHARDS {
        let mut cfg = ServeConfig {
            shard: Some((i, SHARDS)),
            ..ServeConfig::default()
        };
        tweak(i, &mut cfg);
        let server = Server::bind(Explorer::from_graph(map.partition(g, i)), cfg)
            .expect("bind shard worker")
            .spawn();
        addrs.push(server.addr().to_string());
        workers.push(server);
    }
    (
        workers,
        Coordinator::new(addrs, ShardClientConfig::default()),
    )
}

fn ask(coord: &Coordinator, q: &str, budget: &Budget) -> wodex::shard::CoordinatedResult {
    coord
        .query_traced_with(q, budget, &QueryTrace::new(), Engine::default())
        .expect("well-formed query never errors, whatever the fleet does")
}

#[test]
fn healthy_fleet_is_bit_identical_to_single_process() {
    let _guard = lock();
    let g = graph(120);
    let local = Explorer::from_graph(g.clone());
    let (workers, coord) = fleet(&g, |_, _| {});
    let queries = [
        format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}"),
        "ASK { ?s ?p ?o }".to_string(),
        format!(
            "SELECT ?s ?t ?v WHERE {{ ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t . ?s <{POP}> ?v }}"
        ),
    ];
    for q in &queries {
        let dist = ask(&coord, q, &Budget::unlimited());
        assert!(
            dist.degraded.is_none(),
            "a healthy fleet must not degrade ({q})"
        );
        let base = local.sparql(q).expect("local evaluation");
        assert_eq!(
            sorted_rows(&dist.result),
            sorted_rows(&base),
            "fault rate 0 must be the identity ({q})"
        );
    }
    for w in workers {
        w.shutdown().expect("clean shutdown");
    }
}

#[test]
fn killing_one_of_four_shards_degrades_to_the_live_subset() {
    let _guard = lock();
    let g = graph(120);
    let victim = (base_seed() % SHARDS as u64) as u32;
    let (mut workers, coord) = fleet(&g, |_, _| {});
    workers
        .remove(victim as usize)
        .shutdown()
        .expect("clean victim shutdown");

    // What the three live shards can support: the graph minus the
    // victim's partition, evaluated by the ordinary engine.
    let map = ShardMap::new(SHARDS);
    let live: Graph = g.iter().filter(|t| !map.owns(victim, t)).cloned().collect();
    let expected = Explorer::from_graph(live)
        .sparql(&format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}"))
        .expect("live-subset evaluation");

    let q = format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}");
    let mut last_coverage = 1.0;
    for _ in 0..4 {
        let dist = ask(&coord, &q, &Budget::unlimited());
        let d = dist
            .degraded
            .expect("a lost shard must surface in the verdict");
        last_coverage = d.coverage;
        assert_eq!(
            sorted_rows(&dist.result),
            sorted_rows(&expected),
            "sound subset"
        );
        let report = &dist.shards[victim as usize];
        assert!(
            report.error.is_some() || matches!(report.outcome, wodex::sparql::ShardOutcome::Failed),
            "the victim's report must carry its typed failure"
        );
    }
    assert!(
        (last_coverage - 0.75).abs() < 1e-6,
        "one of four shards lost on a single-pattern scatter → coverage 3/4, got {last_coverage}"
    );
    // Three consecutive failures is the breaker threshold; after four
    // queries the victim's breaker must have opened (later scans shed).
    let health = &coord.health()[victim as usize];
    assert!(
        health.breaker.opens >= 1,
        "breaker must open within its threshold, snapshot: {:?}",
        health.breaker
    );
    for w in workers {
        w.shutdown().expect("clean shutdown");
    }
}

#[test]
fn stalled_shard_trips_its_deadline_slice_and_degrades() {
    let _guard = lock();
    let g = graph(120);
    let victim = ((base_seed() / 7) % SHARDS as u64) as u32;
    let (workers, coord) = fleet(&g, |i, cfg| {
        if i == victim {
            cfg.scan_delay = Duration::from_millis(400);
        }
    });
    let q = format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}");
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(150));
    let dist = ask(&coord, &q, &budget);
    let d = dist
        .degraded
        .expect("a stalled shard must surface in the verdict");
    assert_eq!(d.reason, DegradeReason::DeadlineExceeded);
    assert!(
        d.coverage < 1.0,
        "a stalled shard costs coverage, got {}",
        d.coverage
    );
    // The stall must not poison the healthy shards' answers: every row
    // returned is one the full graph supports.
    let full = Explorer::from_graph(g.clone())
        .sparql(&q)
        .expect("full evaluation");
    let full_rows = sorted_rows(&full);
    for row in sorted_rows(&dist.result) {
        assert!(full_rows.contains(&row), "sound subset under stall");
    }
    for w in workers {
        w.shutdown().expect("clean shutdown");
    }
}

#[test]
fn flapping_shard_reopens_the_breaker_then_recovers() {
    let _guard = lock();
    let g = graph(80);
    let victim = ((base_seed() / 3) % SHARDS as u64) as u32;
    let (mut workers, coord) = fleet(&g, |_, _| {});
    let victim_server = workers.remove(victim as usize);
    let victim_port = victim_server.addr().port();
    victim_server.shutdown().expect("clean victim shutdown");

    let q = format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}");
    // Down: queries degrade (and trip the breaker after the threshold).
    for _ in 0..4 {
        let dist = ask(&coord, &q, &Budget::unlimited());
        assert!(dist.degraded.is_some(), "down flap must degrade");
    }
    assert!(coord.health()[victim as usize].breaker.opens >= 1);

    // Up: rebind the same port over the same partition (SO_REUSEADDR),
    // then wait out the breaker cooldown — the half-open probe must
    // readmit the shard and answers return to full coverage.
    let map = ShardMap::new(SHARDS);
    let revived = (0..20)
        .find_map(|_| {
            let bound = Server::bind(
                Explorer::from_graph(map.partition(&g, victim)),
                ServeConfig {
                    addr: format!("127.0.0.1:{victim_port}"),
                    shard: Some((victim, SHARDS)),
                    ..ServeConfig::default()
                },
            );
            match bound {
                Ok(s) => Some(s.spawn()),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    None
                }
            }
        })
        .expect("rebinding the flapped port");
    let recovered = (0..40).any(|_| {
        std::thread::sleep(Duration::from_millis(50));
        ask(&coord, &q, &Budget::unlimited()).degraded.is_none()
    });
    assert!(recovered, "the fleet must heal once the shard returns");
    let local = Explorer::from_graph(g.clone());
    let dist = ask(&coord, &q, &Budget::unlimited());
    assert_eq!(
        sorted_rows(&dist.result),
        sorted_rows(&local.sparql(&q).expect("local")),
        "post-recovery answers match the single-process engine again"
    );
    revived.shutdown().expect("clean revived shutdown");
    for w in workers {
        w.shutdown().expect("clean shutdown");
    }
}

/// Σ over shards of served+shed+failed must equal Σ fan-outs, measured
/// as registry deltas while 8 threads hammer a wounded fleet (so all
/// three outcomes occur: healthy serves, dead-shard failures, and
/// breaker sheds once it opens).
#[test]
fn per_shard_metrics_conserve_under_concurrent_load() {
    let _guard = lock();
    let g = graph(120);
    let victim = ((base_seed() / 11) % SHARDS as u64) as u32;
    let (mut workers, coord) = fleet(&g, |_, _| {});
    workers
        .remove(victim as usize)
        .shutdown()
        .expect("clean victim shutdown");

    let sum_prefix = |prefix: &str| -> u64 {
        wodex::obs::global()
            .counter_values()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    };
    let fanouts_before = sum_prefix("wodex_shard_fanouts_total");
    let outcomes_before = sum_prefix("wodex_shard_scans_total");

    let q = format!("SELECT ?s ?v WHERE {{ ?s <{POP}> ?v }}");
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (coord, q) = (&coord, &q);
            scope.spawn(move || {
                for _ in 0..6 {
                    let dist = ask(coord, q, &Budget::unlimited());
                    assert!(dist.degraded.is_some(), "the dead shard must be visible");
                }
            });
        }
    });

    let fanouts = sum_prefix("wodex_shard_fanouts_total") - fanouts_before;
    let outcomes = sum_prefix("wodex_shard_scans_total") - outcomes_before;
    assert!(fanouts >= 8 * 6, "every query fans out at least once");
    assert_eq!(
        outcomes, fanouts,
        "conservation: Σ served+shed+failed == Σ fan-outs"
    );
    for w in workers {
        w.shutdown().expect("clean shutdown");
    }
}
