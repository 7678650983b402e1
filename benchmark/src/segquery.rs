//! `seg_query`: the one workload whose reads are served by `wodex-seg`.
//!
//! Set-up is `wodex load` (a timed child process) plus opening the
//! directory; the window runs in-process — `SegmentStore::open`,
//! `TripleStore::with_base`, `wodex_sparql::query` — with a decoded-block
//! cache a fifth the size of the decoded data, so the predicate scans
//! evict while the Zipf-drawn probes mostly hit.

use crate::answers::{Expect, RowHasher, Table};
use crate::drive::{Record, Stop};
use crate::gen::{Cdf, Model, SplitMix64, NS, XSD_INTEGER};
use crate::proc;
use crate::requests::{analytic_ops, describe, inlinks, Op};
use crate::spec::SETUP_REPEATS;
use crate::speed;
use crate::workloads::{
    dataset, summarize, timed_load, timed_window, Config, Dataset, Measured, Outcome, WorkDir,
    CLIENTS,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wodex::seg::{BlockCache, SegmentStore};
use wodex::sparql::{Budget, QueryTrace};
use wodex::store::TripleStore;

/// A decoded triple is twelve bytes in each of the three sort orders.
const DECODED_BYTES_PER_TRIPLE: u64 = 36;

/// The block cache for a dataset of `triples`: a fifth of its decoded
/// size (8 MiB against ≈39 MB at full size).
pub fn cache_bytes(triples: u64) -> usize {
    (triples * DECODED_BYTES_PER_TRIPLE / 5) as usize
}

pub fn open_store(
    dir: &Path,
    cache_bytes: usize,
) -> Result<(TripleStore, Arc<BlockCache>), String> {
    let (dict, mut segments) =
        SegmentStore::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let cache = Arc::new(BlockCache::new(cache_bytes));
    segments.set_block_cache(Some(Arc::clone(&cache)));
    Ok((TripleStore::with_base(dict, Arc::new(segments)), cache))
}

/// Six probes and three scans per cycle.
pub const SEG_CYCLE: usize = 9;

/// One client's operation stream: describe / in-link probes with a scan
/// after every second probe.
pub struct SegMix {
    model: Arc<Model>,
    /// Zipf(1.05) over the entities, so hot blocks stay cached between
    /// the scans that evict them.
    ranks: Arc<Cdf>,
    scans: Arc<Vec<Arc<Op>>>,
    rng: SplitMix64,
    step: usize,
}

pub fn seg_mixes(model: &Arc<Model>, seed: u64) -> Vec<SegMix> {
    let ranks = Arc::new(Cdf::zipf(model.entities() as usize, 1.05));
    let n = model.entities();
    let mut scans = vec![Op::sparql(
        "area_count",
        format!("SELECT (COUNT(?a) AS ?n) WHERE {{ ?s <{NS}area> ?a }}"),
        Expect::exact([RowHasher::new()
            .lit("n", &n.to_string(), XSD_INTEGER)
            .finish()]),
    )];
    scans.extend(
        analytic_ops(model, seed, 1)
            .into_iter()
            .filter(|op| matches!(op.class, "class_count" | "hub_join")),
    );
    let scans: Arc<Vec<Arc<Op>>> = Arc::new(scans.into_iter().map(Arc::new).collect());
    (0..CLIENTS)
        .map(|c| SegMix {
            model: Arc::clone(model),
            ranks: Arc::clone(&ranks),
            scans: Arc::clone(&scans),
            rng: SplitMix64::new(seed ^ (0x5E6_0001 * (c as u64 + 1))),
            // Clients start a third of a cycle apart.
            step: c * 3,
        })
        .collect()
}

impl SegMix {
    fn next_op(&mut self) -> Arc<Op> {
        let phase = self.step % SEG_CYCLE;
        self.step += 1;
        if phase % 3 == 2 {
            return Arc::clone(&self.scans[(phase / 3) % self.scans.len()]);
        }
        let i = self.ranks.sample(self.rng.unit()) as u32;
        Arc::new(if phase.is_multiple_of(3) {
            describe(&self.model, i)
        } else {
            inlinks(&self.model, i)
        })
    }
}

/// Runs `mixes` in-process against `store`, one thread each. A traced
/// drive evaluates through `query_traced` with an enabled trace.
pub fn drive_seg(
    store: &TripleStore,
    mixes: &mut [SegMix],
    stop: Stop<'_>,
    traced: bool,
    epoch: Instant,
    corrupt_first: bool,
) -> Vec<Record> {
    let mut all: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .enumerate()
            .map(|(client, mix)| {
                scope.spawn(move || {
                    let mut out: Vec<Record> = Vec::new();
                    loop {
                        if stop.reached(client, out.len()) {
                            break;
                        }
                        let op = mix.next_op();
                        let (query, expect) = op.as_sparql().expect("seg operations are SPARQL");
                        let start_ns = epoch.elapsed().as_nanos() as u64;
                        let started = Instant::now();
                        let result = if traced {
                            wodex::sparql::query_traced(
                                store,
                                query,
                                &Budget::unlimited(),
                                &QueryTrace::new(),
                            )
                            .map(|b| b.result)
                        } else {
                            wodex::sparql::query(store, query)
                        };
                        let done_ns = started.elapsed().as_nanos() as u64;
                        let corrupted;
                        let expect = if corrupt_first && client == 0 && out.is_empty() {
                            corrupted = expect.corrupted();
                            &corrupted
                        } else {
                            expect
                        };
                        let error = result
                            .map_err(|e| format!("query error: {e}"))
                            .and_then(|r| Table::from_result(&r))
                            .and_then(|t| expect.verify(&t))
                            .err();
                        let mut record =
                            Record::started("window", op.class, client, out.len(), start_ns);
                        // The caller has the first row when the call returns:
                        // the API materialises the answer.
                        record.timing.first_byte_ns = done_ns;
                        record.timing.done_ns = done_ns;
                        record.verify_ns = started.elapsed().as_nanos() as u64 - done_ns;
                        record.error = error;
                        out.push(record);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("seg client thread panicked"))
            .collect()
    });
    all.sort_by_key(|r| r.start_ns);
    all
}

/// Load and open, `SETUP_REPEATS` times; the last store stays open.
pub struct SegReady {
    pub store: TripleStore,
    pub stored_bytes: u64,
    pub setups_s: Vec<f64>,
}

pub fn set_up_seg(cfg: &Config, ds: &Dataset, seg_dir: &Path) -> Result<SegReady, String> {
    let mut stored_bytes = 0;
    let mut setups_s = Vec::new();
    let mut opened = None;
    for _ in 0..SETUP_REPEATS {
        drop(opened.take());
        let load = timed_load(cfg, ds, seg_dir)?;
        let (store, open_s, _) =
            speed::timed(|| open_store(seg_dir, cache_bytes(ds.model.unique_triples())));
        opened = Some(store?);
        setups_s.push(load.wall_s + open_s);
        stored_bytes = load.stored_bytes;
    }
    let (store, _cache) = opened.expect("SETUP_REPEATS is at least one");
    Ok(SegReady {
        store,
        stored_bytes,
        setups_s,
    })
}

/// One untraced run of `seg_query`.
pub fn run_seg(cfg: &Config) -> Result<Outcome, String> {
    let ds = dataset(cfg)?;
    let work = WorkDir::create(cfg, "seg_query")?;
    let ready = set_up_seg(cfg, &ds, &work.0.join("seg"))?;
    let epoch = Instant::now();
    let mut mixes = seg_mixes(&ds.model, cfg.seed);
    let setup_records = drive_seg(
        &ready.store,
        &mut mixes,
        Stop::After(2 * SEG_CYCLE),
        false,
        epoch,
        false,
    );
    let mut corrupt = cfg.self_test;
    let window = timed_window(cfg.seconds, &[SEG_CYCLE; CLIENTS], |stop| {
        Ok(drive_seg(
            &ready.store,
            &mut mixes,
            stop,
            false,
            epoch,
            std::mem::take(&mut corrupt),
        ))
    })?;
    Ok(summarize(
        &ds,
        &Measured {
            setups_s: ready.setups_s,
            setup_records,
            window,
            // The queries run in this process, so its peak is the peak of
            // the process that answers them.
            rss_peak_mb: proc::status_mb(std::process::id(), "VmHWM")?,
            stored_bytes: ready.stored_bytes,
        },
    ))
}
