//! Eviction cost of the prediction cache: the mean time per
//! `PredictionCache::store` when a cache of capacity 2^10, 2^13 and 2^16
//! receives 4× its capacity in distinct keys, so three quarters of the
//! stores evict. A bounded memo whose eviction is O(log n) keeps the cost
//! per store nearly flat in capacity; a scan for the oldest entry makes
//! it grow with the shard size.
//!
//! ```sh
//! cargo run --release --example cache_eviction_cost
//! ```
//!
//! Prints one row per capacity: the median, minimum and maximum over five
//! repetitions of the mean µs per store, and the eviction count (which
//! must be 3× the capacity). The last line is `size_of::<PredictionCache>()`.

use std::time::Instant;

use pandia::prelude::*;

const REPETITIONS: usize = 5;

/// Distinct, well-spread 128-bit keys, like real fingerprints.
fn key(i: u64) -> u128 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (u128::from(z ^ (z >> 31)) << 64) | u128::from(i)
}

fn main() {
    println!("capacity  stores    us/store median  [min, max]      evictions");
    for shift in [10u32, 13, 16] {
        let capacity = 1usize << shift;
        let stores = 4 * capacity as u64;
        let mut means = Vec::with_capacity(REPETITIONS);
        let mut evictions = 0;
        for _ in 0..REPETITIONS {
            let cache = PredictionCache::with_capacity(capacity);
            let start = Instant::now();
            for i in 0..stores {
                cache.store(key(i), Vec::new());
            }
            means.push(start.elapsed().as_secs_f64() * 1e6 / stores as f64);
            evictions = cache.stats().evictions;
        }
        means.sort_by(f64::total_cmp);
        println!(
            "2^{shift:<6}  {stores:<8}  {:>8.3}         [{:.3}, {:.3}]  {evictions}",
            means[REPETITIONS / 2],
            means[0],
            means[REPETITIONS - 1],
        );
    }
    println!("size_of::<PredictionCache>() = {} bytes", std::mem::size_of::<PredictionCache>());
}
