//! What every workload shares: the replayed closed loop, timed set-ups,
//! the host-speed probe, and the outcome a run reports.
//!
//! The host this benchmark runs on changes speed for seconds to minutes
//! at a time (see the README). Two things keep that out of the metrics.
//! A run does a fixed amount of work, sized from `--seconds`, and
//! replays it [`REPLAYS`] times, each replay from a fresh state and
//! after the previous one, so the replays of one operation are seconds
//! apart; an operation's latency is its fastest replay. And a fixed
//! probe kernel, timed between operations throughout the run, measures
//! the host's speed; [`Probe::scale`] scales every reported time to the
//! probe's nominal speed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::time::Instant;

use pandia_core::CacheStats;

use crate::stats;
use crate::trace::Tracer;

/// Replays of a run's work.
pub const REPLAYS: usize = 4;

/// Set-ups per replay of the sweep and the advisor: the one the replay
/// keeps, then more spread evenly through its operations and thrown
/// away, so that `setup_s` samples the same stretch of host time as the
/// operations do.
pub const SETUPS_PER_REPLAY: usize = 3;

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Each operation's latency in its fastest replay, µs.
    pub latencies_us: Vec<f64>,
    /// Loop time of all replays, seconds.
    pub wall_s: f64,
    /// [`Probe::scale`] over the run.
    pub scale: f64,
    /// Operations started, over all replays.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations the program refused by policy (daemon submissions that
    /// ended rejected or shed), over all replays.
    pub refused: u64,
    /// The output checks' verdict.
    pub check: Result<(), String>,
}

/// Operations per replay for a run of `seconds` of a workload that
/// runs about `per_second` operations a second.
pub fn per_replay(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second / REPLAYS as f64).round() as usize).max(1)
}

/// The stretches of a replay of `n` operations between its set-ups.
pub fn stretches(n: usize) -> Vec<Range<usize>> {
    let cut = |k: usize| k * n / SETUPS_PER_REPLAY;
    (0..SETUPS_PER_REPLAY)
        .map(|k| cut(k)..cut(k + 1))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Times `setup` into `durations`.
pub fn timed<T>(
    durations: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let state = setup()?;
    durations.push(start.elapsed().as_secs_f64());
    Ok(state)
}

/// Probe samples per second of operations.
const PROBE_EVERY_S: f64 = 0.1;
/// Keys the probe's kernel formats, counts and sorts: about 1.4 ms of
/// work.
const PROBE_KEYS: usize = 5_000;
/// The probe sample time, µs, that [`Probe::scale`] maps to 1: about
/// its lower quartile on the host the README's measurements come from.
pub const PROBE_NOMINAL_US: f64 = 1_350.0;
/// The probe percentile [`Probe::scale`] uses, per mille.
const PROBE_PER_MILLE: u32 = 250;

/// The host's speed, measured by a fixed kernel between operations.
///
/// The kernel is the benchmark's own code on the standard library and
/// calls nothing in the program, so a change to the program cannot move
/// it. It formats, hashes, counts and sorts short strings, which the
/// host's slow periods slow about as much as they slow the program;
/// small single-purpose loops slow down less (see the README). Its
/// lower quartile and the operations' fastest replays both follow the
/// host's faster periods, whose speed drifts over minutes.
#[derive(Debug)]
pub struct Probe {
    /// The kernel's strings and map, allocated once so that a sample
    /// never waits on the allocator, whose state the program sets.
    keys: Vec<String>,
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    samples_us: Vec<f64>,
    since_s: f64,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with one sample taken.
    pub fn new() -> Self {
        let keys = (0..PROBE_KEYS).map(|_| String::with_capacity(32)).collect();
        let mut counts = HashMap::default();
        counts.reserve(PROBE_KEYS);
        let mut probe = Self {
            keys,
            counts,
            samples_us: Vec::new(),
            since_s: 0.0,
        };
        probe.sample();
        probe
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(self.kernel());
        self.samples_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    /// The probe's fixed work: format the keys, count their hashes and
    /// sort them. The hasher has fixed keys, so every sample does the
    /// same work.
    fn kernel(&mut self) -> usize {
        self.counts.clear();
        for (i, key) in self.keys.iter_mut().enumerate() {
            key.clear();
            let _ = write!(key, "key-{}-{:x}", i % 397, hash(i as u64) >> 40);
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            *self.counts.entry(h.finish()).or_default() += i as u64;
        }
        self.keys.sort_unstable();
        self.counts.len() + self.keys[PROBE_KEYS / 2].len()
    }

    /// Counts `op_s` seconds of operations and samples when
    /// [`PROBE_EVERY_S`] have passed since the last sample; returns
    /// whether it sampled.
    fn tick(&mut self, op_s: f64) -> bool {
        self.since_s += op_s;
        if self.since_s < PROBE_EVERY_S {
            return false;
        }
        self.since_s = 0.0;
        self.sample();
        true
    }

    /// The factor that scales a time measured during the run to the
    /// probe's nominal speed: [`PROBE_NOMINAL_US`] over the samples'
    /// lower quartile. Below 1 when the host ran slower than nominal.
    pub fn scale(&self) -> f64 {
        let mut sorted = self.samples_us.clone();
        sorted.sort_by(f64::total_cmp);
        PROBE_NOMINAL_US / stats::percentile(&sorted, PROBE_PER_MILLE)
    }
}

/// SplitMix64's finaliser, kept here so the probe depends on no program
/// code.
fn hash(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One replay's closed-loop operations, possibly over several
/// stretches.
#[derive(Debug, Default)]
pub struct Loop {
    /// Latency of each completed operation, µs.
    pub latencies_us: Vec<f64>,
    /// Loop time, seconds, without the probe's samples.
    pub elapsed_s: f64,
    /// The first failure; the loop stops there.
    pub error: Option<String>,
}

impl Loop {
    /// Operations started (completed plus the failed one).
    pub fn attempted(&self) -> u64 {
        self.latencies_us.len() as u64 + u64::from(self.error.is_some())
    }

    /// Runs `op(0)`, `op(1)`, ... back to back, each starting when the
    /// previous returns, until `limit` operations have run or one fails;
    /// returns how many completed. `probe` samples between operations,
    /// off their clock.
    pub fn run(
        &mut self,
        limit: usize,
        probe: &mut Probe,
        mut op: impl FnMut(usize) -> Result<(), String>,
    ) -> usize {
        let mut last = Instant::now();
        let mut done = 0;
        while done < limit {
            let result = op(done);
            let now = Instant::now();
            let s = (now - last).as_secs_f64();
            if let Err(e) = result {
                self.error = Some(e);
                break;
            }
            self.latencies_us.push(s * 1e6);
            self.elapsed_s += s;
            done += 1;
            last = if probe.tick(s) { Instant::now() } else { now };
        }
        done
    }
}

/// The replays of a run's work, folded as they finish.
#[derive(Debug, Default)]
pub struct Replays {
    fastest_us: Vec<f64>,
    replays: usize,
    wall_s: f64,
    attempted: u64,
    /// The first failure of any replay.
    pub error: Option<String>,
}

impl Replays {
    /// Folds in one replay: each operation keeps its fastest latency so
    /// far. A replay that stopped early shortens the run to its length.
    pub fn add(&mut self, lp: Loop) {
        self.wall_s += lp.elapsed_s;
        self.attempted += lp.attempted();
        if self.error.is_none() {
            self.error = lp.error;
        }
        if self.replays == 0 {
            self.fastest_us = lp.latencies_us;
        } else {
            self.fastest_us.truncate(lp.latencies_us.len());
            for (f, l) in self.fastest_us.iter_mut().zip(&lp.latencies_us) {
                *f = f.min(*l);
            }
        }
        self.replays += 1;
    }

    /// The run's outcome; a failure in any replay fails `check`.
    pub fn finish(
        self,
        setup_s: Vec<f64>,
        probe: &Probe,
        refused: u64,
        check: Result<(), String>,
    ) -> Outcome {
        let failed = u64::from(self.error.is_some());
        Outcome {
            setup_s,
            latencies_us: self.fastest_us,
            wall_s: self.wall_s,
            scale: probe.scale(),
            attempted: self.attempted,
            failed,
            refused,
            check: match self.error {
                Some(e) => Err(e),
                None => check,
            },
        }
    }
}

/// Adds a prediction cache's statistics to the `exec.*` counters
/// (`exec.cache_entries` keeps the largest cache seen).
pub fn record_cache(tracer: &Tracer, stats: &CacheStats) {
    tracer.add("exec.cache_hits", stats.hits);
    tracer.add("exec.cache_misses", stats.misses);
    tracer.add("exec.cache_evictions", stats.evictions);
    tracer.max("exec.cache_entries", stats.entries as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_stops_at_the_limit_or_the_first_failure() {
        let mut probe = Probe::new();
        let mut done = Loop::default();
        assert_eq!(done.run(5, &mut probe, |_| Ok(())), 5);
        assert_eq!(done.run(2, &mut probe, |_| Ok(())), 2);
        assert_eq!((done.latencies_us.len(), done.attempted()), (7, 7));
        let mut failed = Loop::default();
        let ran = failed.run(5, &mut probe, |i| {
            if i == 2 {
                Err("boom".into())
            } else {
                Ok(())
            }
        });
        assert_eq!((ran, failed.attempted()), (2, 3));
        assert_eq!(failed.error.as_deref(), Some("boom"));
        assert_eq!(Loop::default().run(0, &mut probe, |_| Ok(())), 0);
    }

    #[test]
    fn the_probe_samples_off_the_operations_clock() {
        let mut probe = Probe::new();
        assert_eq!(probe.samples_us.len(), 1);
        let mut lp = Loop::default();
        lp.run(3, &mut probe, |_| {
            std::thread::sleep(std::time::Duration::from_millis(60));
            Ok(())
        });
        // A sample after 0.12 s of operations, none after 0.06 or 0.18.
        assert_eq!(probe.samples_us.len(), 2);
        assert!(lp.latencies_us.iter().all(|&us| us < 100_000.0));
        assert!(probe.scale() > 0.0 && probe.scale().is_finite());
    }

    #[test]
    fn replays_keep_each_operation_s_fastest_latency() {
        let lp = |latencies: &[f64], error: Option<&str>| Loop {
            latencies_us: latencies.to_vec(),
            elapsed_s: latencies.iter().sum::<f64>() / 1e6,
            error: error.map(String::from),
        };
        let mut r = Replays::default();
        r.add(lp(&[5.0, 1.0, 9.0], None));
        r.add(lp(&[4.0, 2.0, 9.5], None));
        let out = r.finish(vec![0.1], &Probe::new(), 0, Ok(()));
        assert_eq!(out.latencies_us, [4.0, 1.0, 9.0]);
        assert_eq!((out.attempted, out.failed), (6, 0));
        assert!(out.check.is_ok());

        let mut r = Replays::default();
        r.add(lp(&[5.0, 1.0, 9.0], None));
        r.add(lp(&[3.0], Some("boom")));
        let out = r.finish(vec![0.1], &Probe::new(), 0, Ok(()));
        assert_eq!(out.latencies_us, [3.0]);
        assert_eq!((out.attempted, out.failed), (5, 1));
        assert_eq!(out.check.unwrap_err(), "boom");
    }

    #[test]
    fn work_is_sized_from_the_seconds_and_cut_between_set_ups() {
        assert_eq!(per_replay(30.0, 40.0), 300);
        assert_eq!(per_replay(0.001, 40.0), 1);
        assert_eq!(stretches(10), [0..3, 3..6, 6..10]);
        assert_eq!(stretches(2), [0..1, 1..2]);
        let one = stretches(1);
        assert_eq!((one.len(), one[0].clone()), (1, 0..1));
    }
}
