//! Host-speed calibration of the end-to-end times.
//!
//! The shared hosts this benchmark runs on change speed for seconds to
//! minutes at a time: when a neighbour takes the shared caches, the
//! program's cache-bound work gets slower by up to about 1.8x. A phase
//! can cover a whole run, so taking the best or the median over a run's
//! passes does not remove it. The harness therefore runs a fixed kernel
//! right before each `mcpath` process and scales the process's wall and
//! CPU time by `REFERENCE_MS / kernel time`: a time is reported as it
//! would read on a host that runs the kernel in `REFERENCE_MS`. The
//! kernel run right before the op tracks the op better than a median
//! over several runs: the host's speed also changes within a second.
//!
//! The kernel is harness code and never changes with the program, so a
//! change to `mcpath` moves the scaled times as it moves the raw ones.
//! The slow phases hurt cache-bound code most: a dependent integer chain
//! barely slows while `mcpath` slows 1.6x. So the kernel mixes what
//! `mcpath` spends its time on: hash-map inserts and lookups
//! over about 0.5 MB (netlist building and lookups), sorting (pair and
//! group ordering), and wide bitwise ops streaming over 1 MB (the
//! bit-parallel prefilter). Changing the kernel or `REFERENCE_MS`
//! rescales every time metric; compare only runs that share them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ms, on the host speed the metrics are scaled
/// to. On a 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz) VM its median over a
/// 30-second run was 3.8-4.9 ms.
pub const REFERENCE_MS: f64 = 4.0;

/// Sizes of the kernel's three parts.
const MAP_KEYS: usize = 16_384;
const SORT_LEN: usize = 32_768;
const VEC_LEN: usize = 1 << 16;
const VEC_REPS: u64 = 12;
const KEY_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// The kernel's state: the two arrays of its bitwise part.
pub struct Calibrator {
    a: Vec<u64>,
    b: Vec<u64>,
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            a: (0..VEC_LEN as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            b: (0..VEC_LEN as u64)
                .map(|i| i.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .collect(),
        };
        for _ in 0..3 {
            c.kernel_ms();
        }
        c
    }

    /// Runs the kernel once and returns its wall time in ms. Every run
    /// inserts, looks up and sorts the same keys (the key stream restarts
    /// from `KEY_SEED`) and streams over the same arrays.
    pub fn kernel_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut s = black_box(KEY_SEED);
        let mut map = HashMap::with_capacity(MAP_KEYS);
        for i in 0..MAP_KEYS as u32 {
            map.insert(xorshift(&mut s) % (4 * MAP_KEYS as u64), i);
        }
        let hits = (0..MAP_KEYS)
            .filter(|_| map.contains_key(&(xorshift(&mut s) % (4 * MAP_KEYS as u64))))
            .count();
        let mut v: Vec<u32> = (0..SORT_LEN).map(|_| xorshift(&mut s) as u32).collect();
        v.sort_unstable();
        let mask = VEC_LEN - 1;
        for r in 0..VEC_REPS {
            for i in 0..VEC_LEN {
                self.a[i] = (self.a[i] & self.b[i]) ^ (self.a[i] | r) ^ self.b[(i + 1) & mask];
            }
        }
        black_box((hits, v[SORT_LEN / 2], self.a[VEC_LEN / 2]));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `t` scaled from a host that ran the kernel in `kernel_ms` to the
/// reference speed.
pub fn scale(t: f64, kernel_ms: f64) -> f64 {
    t * REFERENCE_MS / kernel_ms
}
