//! Host-speed reference for normalising timings.
//!
//! On a shared machine the same single-threaded work can take 50% longer
//! from one minute to the next. The benchmark therefore runs a fixed
//! reference kernel — ordered-map inserts and lookups plus a sort, in the
//! benchmark's own code, independent of the program — between simulations,
//! and scales each pass's host seconds by `NOMINAL_S / measured kernel
//! seconds`: the seconds the pass would have taken at the reference speed.
//! Raw seconds stay in the human report beside the scaled ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Kernel seconds at the reference speed (an unloaded 2-vCPU Xeon VM).
pub const NOMINAL_S: f64 = 0.012;

fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seconds one run of the reference kernel takes now.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x5EED_u64;
    for i in 0..40_000 {
        x = mix(x);
        map.insert(x % 1_000_000, i);
    }
    let mut hits = 0_u64;
    for _ in 0..40_000 {
        x = mix(x);
        hits += map.get(&(x % 1_000_000)).copied().unwrap_or(0);
    }
    let mut keys: Vec<u64> = map.into_keys().collect();
    keys.sort_unstable_by_key(|&k| mix(k));
    black_box(hits + keys[0]);
    start.elapsed().as_secs_f64()
}

/// One speed sample: the median of three kernel runs.
pub fn sample() -> f64 {
    median(&[kernel(), kernel(), kernel()])
}

/// `raw_s` scaled to the reference speed, given the speed samples taken
/// around it.
pub fn normalise(raw_s: f64, samples: &[f64]) -> f64 {
    raw_s * NOMINAL_S / median(samples)
}
