//! Store and hit cost of the prediction cache: the mean time per
//! `PredictionCache::store` when a cache of capacity 2^10, 2^13 and 2^16
//! receives 4× its capacity in distinct keys, so three quarters of the
//! stores evict, then the mean time per `PredictionCache::lookup` when the
//! same cache reads back every key it still holds (the newest
//! `capacity`), so every lookup hits. A bounded memo whose eviction is
//! O(log n) keeps the cost per store nearly flat in capacity; a scan for
//! the oldest entry makes it grow with the shard size. A hit is one hash
//! probe, so its cost grows only as the index outgrows the CPU caches.
//!
//! ```sh
//! cargo run --release --example cache_eviction_cost
//! ```
//!
//! Prints one row per capacity: the median, minimum and maximum over five
//! repetitions of the mean µs per store and per hit, the eviction count
//! (which must be 3× the capacity) and the hit count (which must be the
//! capacity). The last line is `size_of::<PredictionCache>()`.

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

/// `median [min, max]` of per-repetition means, in µs.
fn spread(mut means: Vec<f64>) -> String {
    means.sort_by(f64::total_cmp);
    format!("{:>6.3} [{:.3}, {:.3}]", means[REPETITIONS / 2], means[0], means[REPETITIONS - 1])
}

fn main() {
    println!(
        "capacity  stores    us/store median [min, max]  evictions  \
         us/hit median [min, max]  hits"
    );
    for shift in [10u32, 13, 16] {
        let capacity = 1usize << shift;
        let stores = 4 * capacity as u64;
        let (mut store_means, mut hit_means) = (Vec::new(), Vec::new());
        let (mut evictions, mut hits) = (0, 0);
        for _ in 0..REPETITIONS {
            let cache = PredictionCache::with_capacity(capacity);
            let start = Instant::now();
            for i in 0..stores {
                cache.store(key(i), Vec::new());
            }
            store_means.push(start.elapsed().as_secs_f64() * 1e6 / stores as f64);
            evictions = cache.stats().evictions;
            let held = stores - capacity as u64..stores;
            let start = Instant::now();
            for i in held {
                std::hint::black_box(cache.lookup(key(i)));
            }
            hit_means.push(start.elapsed().as_secs_f64() * 1e6 / capacity as f64);
            hits = cache.stats().hits;
        }
        println!(
            "2^{shift:<6}  {stores:<8}  {}       {evictions:<9}  {}        {hits}",
            spread(store_means),
            spread(hit_means),
        );
    }
    println!("size_of::<PredictionCache>() = {} bytes", std::mem::size_of::<PredictionCache>());
}
