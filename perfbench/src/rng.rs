//! Seeded input generation. Every input a workload feeds the program is
//! drawn from this stream, so one `--seed` always yields the same inputs
//! and the program never sees the seed itself.

use pandia_sim::rng::mix;

/// A counter-based stream over the simulator's SplitMix64 hash.
pub struct Rng {
    seed: u64,
    stream: u64,
    drawn: u64,
}

impl Rng {
    /// A stream for `seed`; `stream` keeps each workload's draws
    /// independent of the others'.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            seed,
            stream,
            drawn: 0,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        mix(self.seed, self.stream, self.drawn, 0)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
