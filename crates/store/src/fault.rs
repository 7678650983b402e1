//! Deterministic fault injection for the disk path.
//!
//! Resilience claims are untestable without a disk that actually fails.
//! [`FaultBackend`] wraps any [`PageBackend`] and injects, at configurable
//! rates, the three failure classes of the fault model:
//!
//! * **transient read errors** — the read returns
//!   [`StoreError::Transient`]; a retry sees a fresh (usually clean) draw,
//! * **torn/corrupt pages** — the read *succeeds* but returns bytes with a
//!   deterministic bit flipped, so only the page checksum can catch it;
//!   "sticky" corruption is keyed to the page alone and never heals,
//!   modelling real on-disk rot,
//! * **latency spikes** — the read sleeps before returning, modelling a
//!   contended or degraded device.
//!
//! Every decision is a pure function of `(seed, page, per-page read
//! index)` through the workspace's vendored SplitMix64 generator
//! ([`wodex_synth::rng`]), so a chaos run is exactly reproducible from its
//! seed — the property the `WODEX_FAULT_SEED` sweep in `scripts/verify.sh`
//! relies on.

use crate::segment::PageBackend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use wodex_resilience::StoreError;
use wodex_synth::rng::{Rng, SeedableRng, StdRng};

/// Fault rates and the seed that fixes the injection schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injection schedule; equal seeds, equal faults.
    pub seed: u64,
    /// Probability a read fails with [`StoreError::Transient`].
    pub transient_rate: f64,
    /// Probability a read returns torn bytes (heals on re-read).
    pub torn_rate: f64,
    /// Per-page probability the page is *permanently* corrupt.
    pub sticky_corrupt_rate: f64,
    /// Probability a read sleeps for [`FaultConfig::latency_spike`].
    pub latency_spike_rate: f64,
    /// Duration of an injected latency spike.
    pub latency_spike: Duration,
}

impl FaultConfig {
    /// A configuration that injects nothing (rates all zero).
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            torn_rate: 0.0,
            sticky_corrupt_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::ZERO,
        }
    }

    /// A chaos profile: `rate` split across transient faults and torn
    /// reads, with occasional microsecond latency spikes. Sticky
    /// corruption stays off (it makes pages unreadable by design); tests
    /// that want it set `sticky_corrupt_rate` explicitly.
    pub fn chaos(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: rate * 0.6,
            torn_rate: rate * 0.4,
            sticky_corrupt_rate: 0.0,
            latency_spike_rate: rate * 0.1,
            latency_spike: Duration::from_micros(20),
        }
    }
}

/// Counters for what [`FaultBackend`] actually injected.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Reads that failed with an injected transient error.
    pub transient: AtomicU64,
    /// Reads that returned torn (healing) bytes.
    pub torn: AtomicU64,
    /// Reads of sticky-corrupt pages (bytes always bad).
    pub sticky: AtomicU64,
    /// Reads delayed by a latency spike.
    pub latency_spikes: AtomicU64,
}

/// A plain-value snapshot of [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Injected transient failures.
    pub transient: u64,
    /// Torn reads returned.
    pub torn: u64,
    /// Sticky-corrupt reads returned.
    pub sticky: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
}

impl FaultSnapshot {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.transient + self.torn + self.sticky + self.latency_spikes
    }
}

/// A [`PageBackend`] wrapper that injects deterministic faults.
pub struct FaultBackend<B: PageBackend> {
    inner: B,
    config: FaultConfig,
    /// Per-page read index — the "time" axis of the injection schedule.
    read_index: Mutex<HashMap<u32, u64>>,
    stats: FaultStats,
}

impl<B: PageBackend> FaultBackend<B> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: B, config: FaultConfig) -> FaultBackend<B> {
        FaultBackend {
            inner,
            config,
            read_index: Mutex::new(HashMap::new()),
            stats: FaultStats::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// What has been injected so far.
    pub fn fault_stats(&self) -> FaultSnapshot {
        FaultSnapshot {
            transient: self.stats.transient.load(Ordering::Relaxed),
            torn: self.stats.torn.load(Ordering::Relaxed),
            sticky: self.stats.sticky.load(Ordering::Relaxed),
            latency_spikes: self.stats.latency_spikes.load(Ordering::Relaxed),
        }
    }

    /// True when `page` is permanently corrupt under this seed.
    pub fn is_sticky_corrupt(&self, page: u32) -> bool {
        if self.config.sticky_corrupt_rate <= 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(page as u64), // page-only key: never heals
        );
        rng.random_range(0.0..1.0) < self.config.sticky_corrupt_rate
    }

    /// The decision stream for one `(page, read index)` pair.
    fn decision_rng(&self, page: u32, index: u64) -> StdRng {
        let k = self
            .config
            .seed
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add((page as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(index);
        StdRng::seed_from_u64(k)
    }

    /// Flips one payload byte at an rng-chosen position.
    fn tear(data: &mut [u8], rng: &mut StdRng) {
        if data.is_empty() {
            return;
        }
        let pos = rng.random_range(0..data.len());
        data[pos] ^= 0xA5;
    }
}

impl<B: PageBackend> PageBackend for FaultBackend<B> {
    fn read_page(&self, id: u32) -> Result<Vec<u8>, StoreError> {
        let index = {
            let mut map = self
                .read_index
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let slot = map.entry(id).or_insert(0);
            let i = *slot;
            *slot += 1;
            i
        };
        // Fixed draw order keeps the schedule a pure function of
        // (seed, page, index) no matter which rates are enabled.
        let mut rng = self.decision_rng(id, index);
        let latency_draw: f64 = rng.random_range(0.0..1.0);
        let transient_draw: f64 = rng.random_range(0.0..1.0);
        let torn_draw: f64 = rng.random_range(0.0..1.0);
        if latency_draw < self.config.latency_spike_rate {
            self.stats.latency_spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.latency_spike);
        }
        if transient_draw < self.config.transient_rate {
            self.stats.transient.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Transient {
                op: "read_page",
                detail: format!("injected fault (page {id}, read {index})"),
            });
        }
        let mut data = self.inner.read_page(id)?;
        if self.is_sticky_corrupt(id) {
            self.stats.sticky.fetch_add(1, Ordering::Relaxed);
            let mut sticky_rng = StdRng::seed_from_u64(self.config.seed ^ (id as u64) << 17);
            Self::tear(&mut data, &mut sticky_rng);
            return Ok(data);
        }
        if torn_draw < self.config.torn_rate {
            self.stats.torn.fetch_add(1, Ordering::Relaxed);
            Self::tear(&mut data, &mut rng);
        }
        Ok(data)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wodex_resilience::page_checksum;

    /// An in-memory "disk": checksummed pages in a `Vec`, reads counted.
    struct MemBackend {
        pages: Vec<Vec<u8>>,
        reads: AtomicU64,
    }

    impl PageBackend for MemBackend {
        fn read_page(&self, id: u32) -> Result<Vec<u8>, StoreError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.pages
                .get(id as usize)
                .cloned()
                .ok_or(StoreError::NoSuchPage {
                    page: id,
                    pages: self.pages.len() as u32,
                })
        }

        fn page_count(&self) -> u32 {
            self.pages.len() as u32
        }

        fn reads(&self) -> u64 {
            self.reads.load(Ordering::Relaxed)
        }
    }

    /// `pages` pages of 64 payload bytes behind an 8-byte checksum.
    fn disk(config: FaultConfig, pages: u32) -> FaultBackend<MemBackend> {
        let pages = (0..pages)
            .map(|p| {
                let body: Vec<u8> = (0..64u32).map(|i| (p * 31 + i) as u8).collect();
                let mut page = page_checksum(&body).to_le_bytes().to_vec();
                page.extend(body);
                page
            })
            .collect();
        let inner = MemBackend {
            pages,
            reads: AtomicU64::new(0),
        };
        FaultBackend::new(inner, config)
    }

    fn intact(page: &[u8]) -> bool {
        page[..8] == page_checksum(&page[8..]).to_le_bytes()
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let b = disk(FaultConfig::quiet(1), 32);
        for id in 0..b.page_count() {
            assert_eq!(b.read_page(id).unwrap(), b.inner().pages[id as usize]);
        }
        assert_eq!(b.fault_stats().total(), 0);
        assert_eq!(b.reads(), 32);
    }

    #[test]
    fn same_seed_same_schedule() {
        let make = || {
            let cfg = FaultConfig {
                latency_spike_rate: 0.0, // keep the test fast
                ..FaultConfig::chaos(42, 0.3)
            };
            let b = disk(cfg, 4);
            let outcomes: Vec<_> = (0..12).map(|i| b.read_page(i % 4).ok()).collect();
            (outcomes, b.fault_stats())
        };
        let a = make();
        let b = make();
        assert_eq!(a, b, "schedule must be a pure function of the seed");
        assert!(
            a.1.total() > 0,
            "a 30% chaos profile should inject something"
        );
    }

    #[test]
    fn transient_faults_fail_typed_and_a_reread_succeeds() {
        let cfg = FaultConfig {
            transient_rate: 0.3,
            ..FaultConfig::quiet(7)
        };
        let b = disk(cfg, 8);
        for id in 0..b.page_count() {
            // Each read is a fresh draw: some attempt comes back clean.
            let page = (0..32)
                .find_map(|_| match b.read_page(id) {
                    Ok(page) => Some(page),
                    Err(e) => {
                        assert!(e.is_transient(), "got {e:?}");
                        None
                    }
                })
                .expect("a 30% transient rate cannot fail 32 reads in a row");
            assert!(intact(&page));
        }
        assert!(b.fault_stats().transient > 0);
    }

    #[test]
    fn torn_reads_fail_the_checksum_and_heal_on_reread() {
        let cfg = FaultConfig {
            torn_rate: 0.3,
            ..FaultConfig::quiet(11)
        };
        let b = disk(cfg, 8);
        for id in 0..b.page_count() {
            let reads: Vec<_> = (0..32).map(|_| b.read_page(id).unwrap()).collect();
            assert!(reads.iter().any(|p| intact(p)), "page {id} never healed");
        }
        assert!(b.fault_stats().torn > 0);
        // At rate 1.0 every read is torn, and only the checksum can tell.
        let cfg = FaultConfig {
            torn_rate: 1.0,
            ..FaultConfig::quiet(17)
        };
        assert!(!intact(&disk(cfg, 1).read_page(0).unwrap()));
    }

    #[test]
    fn sticky_corruption_never_heals() {
        let cfg = FaultConfig {
            sticky_corrupt_rate: 1.0, // every page is rotten
            ..FaultConfig::quiet(13)
        };
        let b = disk(cfg, 4);
        for id in 0..b.page_count() {
            assert!(b.is_sticky_corrupt(id));
            let first = b.read_page(id).unwrap();
            assert!(!intact(&first));
            assert_eq!(b.read_page(id).unwrap(), first, "rot is stable");
        }
        assert_eq!(b.fault_stats().sticky, 8);
    }

    #[test]
    fn latency_spikes_only_delay() {
        let cfg = FaultConfig {
            latency_spike_rate: 1.0,
            latency_spike: Duration::from_micros(1),
            ..FaultConfig::quiet(19)
        };
        let b = disk(cfg, 4);
        for id in 0..b.page_count() {
            assert!(intact(&b.read_page(id).unwrap()));
        }
        assert_eq!(b.fault_stats().latency_spikes, 4);
    }
}
