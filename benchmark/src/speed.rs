//! The speedometer: how fast this host's CPUs are right now.
//!
//! The hosts this benchmark runs on are small shared virtual machines
//! whose CPUs change speed by tens of percent between one half-minute and
//! the next (measured on the sizing host: the same loop takes 143 ms or
//! 245 ms depending on the moment). A run lasts seconds, so that factor
//! lands on every timing of the run whole, and no amount of work inside
//! the run averages it out. The speedometer times a fixed kernel — a sort
//! and an ordered-map build, the branchy, allocating, pointer-chasing work
//! the program itself does — on every client thread at once while nothing
//! else runs, before and after each timed phase. Timings are then reported
//! at reference speed: multiplied by how fast the kernel ran relative to
//! [`REFERENCE_KERNEL_MS`]. Both sides of a comparison are scaled the same
//! way, so the constant only fixes the unit.

use crate::gen::SplitMix64;
use crate::workloads::CLIENTS;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The kernel's duration on the sizing host in its fast state.
pub const REFERENCE_KERNEL_MS: f64 = 20.0;

fn kernel() -> u64 {
    let mut rng = SplitMix64::new(0x5EED);
    // Comparison-heavy: a sort and an ordered-map build and probe.
    let mut keys: Vec<u64> = (0..80_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, u64> = keys
        .iter()
        .step_by(3)
        .map(|&k| (k.rotate_left(17), k))
        .collect();
    let ordered = keys
        .iter()
        .filter_map(|k| map.get(&k.rotate_left(17)))
        .fold(0u64, |a, v| a.wrapping_add(*v));
    // Allocation- and copy-heavy: what cloning a term dictionary or
    // interning a batch of IRIs costs.
    let terms: Vec<String> = keys
        .iter()
        .take(30_000)
        .map(|k| format!("http://bench.example.org/e{k}"))
        .collect();
    let copy = terms.clone();
    let interned: HashMap<&str, u32> = copy
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i as u32))
        .collect();
    ordered.wrapping_add(interned.len() as u64)
}

/// Runs the kernel on `CLIENTS` threads at once and returns the host's
/// speed relative to the reference: 1.0 at reference speed, 0.6 when the
/// kernel took 1/0.6 times as long.
pub fn sample() -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let started = Instant::now();
                    std::hint::black_box(kernel());
                    started.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .collect()
    });
    REFERENCE_KERNEL_MS / (times.iter().sum::<f64>() / times.len() as f64)
}

/// Runs `phase` between two speed samples. Returns its value, its
/// duration in seconds at reference speed, and the speed it ran at.
pub fn timed<R>(phase: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = sample();
    let started = Instant::now();
    let value = phase();
    let raw_s = started.elapsed().as_secs_f64();
    let speed = (before + sample()) / 2.0;
    (value, raw_s * speed, speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work_and_samples_are_positive() {
        assert_eq!(kernel(), kernel());
        let s = sample();
        assert!(s.is_finite() && s > 0.0, "speed {s}");
        println!("kernel took {:.1} ms", REFERENCE_KERNEL_MS / s);
    }
}
