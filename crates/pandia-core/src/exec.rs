//! Parallel placement evaluation with a memoizing prediction cache.
//!
//! The paper's search-based use cases (§1, §6.1) evaluate the predictor
//! over *sets* of candidate placements: the best-placement search and
//! the capacity planner's trade-off curves. Each evaluation is
//! independent and pure — a prediction depends only on the machine
//! description, the workload description, the concrete placement, and
//! the predictor tunables — so the sweep is embarrassingly parallel and
//! memoizable. The co-scheduler's branch and bound walks its candidates
//! in one sequence and uses only the cache.
//!
//! This module provides both pieces:
//!
//! * [`ExecContext`] — a worker-pool handle (scoped threads, no
//!   dependencies) whose [`ExecContext::parallel_map`] fans a slice of
//!   work items across a configurable number of workers and returns the
//!   results **in input order**. With one worker it degenerates to a
//!   plain serial loop; outputs are bit-identical regardless of the
//!   worker count.
//! * [`PredictionCache`] — a sharded, thread-safe, bounded memo table
//!   keyed by a stable fingerprint of (machine description, workload
//!   description, placement contexts, predictor config). Each shard is a
//!   hashed LRU index ([`LruMemo`]), so a hit is one probe. Repeated
//!   sweeps over overlapping candidate sets (e.g. `plan` followed by
//!   `scaling_profile`) hit the cache instead of re-running the
//!   fixed-point iteration. Stored predictions are shared, so a hit is
//!   read in place or a reference-count bump, never a copy.
//!
//! [`PredictSession`] and [`JointSession`] bind the two together for
//! single-workload and co-scheduled predictions respectively: they hash
//! the sweep-invariant inputs once, then extend the fingerprint with
//! each placement's context list per call.
//! [`PredictSession::predict_batch`] answers a whole candidate list:
//! it keys each canonical placement from its context walk, reads every
//! hit in place under one lock per shard, and instantiates and predicts
//! only the misses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pandia_topology::{CanonicalPlacement, Placement, TopologyError};

use crate::{
    description::MachineDescription,
    error::PandiaError,
    memo::LruMemo,
    predictor::{predict, predict_jobs, Prediction, PredictorConfig},
    workload_desc::WorkloadDescription,
};

/// A 128-bit streaming fingerprint built from two independent 64-bit
/// hashes (FNV-1a and a multiply-rotate mix), used as the cache key.
///
/// Not cryptographic — collision resistance only needs to be good enough
/// that distinct (machine, workload, placement, config) tuples within one
/// process do not collide, and 128 bits of independent state makes an
/// accidental collision vanishingly unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    const MIX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const MIX_MULT: u64 = 0x2545_f491_4f6c_dd1d;

    /// Starts an empty fingerprint.
    pub fn new() -> Self {
        Self { a: Self::FNV_OFFSET, b: Self::MIX_SEED }
    }

    /// Feeds raw bytes into both hash streams.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(Self::MIX_MULT).rotate_left(17);
        }
    }

    /// Feeds a string, framed with a terminator so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Feeds one integer as a single 64-bit word: one mixing step per
    /// stream, not one per byte. Keys never leave the process, so the
    /// step only has to keep distinct inputs apart.
    pub fn write_usize(&mut self, v: usize) {
        let word = v as u64;
        self.a = (self.a ^ word).wrapping_mul(Self::FNV_PRIME);
        self.b = (self.b ^ word).wrapping_mul(Self::MIX_MULT).rotate_left(17);
    }

    /// The combined 128-bit key.
    pub fn key(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Hit/miss counters and current size of a [`PredictionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a stored prediction.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted to stay under the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache was never
    /// consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of independently locked shards; a power of two so the key can
/// be reduced with a mask. Eight keep lock contention negligible on the
/// worker counts sweeps use, and keep the cache one small allocation
/// (every `ExecContext::new` makes one).
const SHARD_COUNT: usize = 8;

/// Default total entry budget across all shards. Generous enough that
/// the committed sweeps never evict, small enough that a long-lived
/// daemon's prediction memory stays bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// One shard: a bounded LRU memo of shared prediction slices.
type Shard = Mutex<LruMemo<u128, Arc<[Prediction]>>>;

/// The shard a key lives in: its low bits.
fn shard_index(key: u128) -> usize {
    (key as usize) & (SHARD_COUNT - 1)
}

fn lock(shard: &Shard) -> MutexGuard<'_, LruMemo<u128, Arc<[Prediction]>>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, thread-safe, bounded memo table from prediction
/// fingerprints to prediction results.
///
/// Values are shared `Arc<[Prediction]>` slices, so single-workload
/// predictions (length 1) and joint co-schedule predictions (one per
/// job) share one table, and a hit hands out the stored slice without
/// copying it. Sharding keeps lock contention negligible when many
/// workers look up predictions concurrently.
///
/// Each shard holds at most `capacity / SHARD_COUNT` entries; inserting
/// past that bound evicts the least-recently-used entry in the shard
/// (counted in [`CacheStats::evictions`] and the `cache.evictions`
/// telemetry counter). Eviction only ever discards memoized work — the
/// cache is a pure memo, so results are bit-identical at any capacity.
#[derive(Debug)]
pub struct PredictionCache {
    shards: [Shard; SHARD_COUNT],
    /// Per-shard entry budget.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PredictionCache {
    /// Creates an empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded to roughly `capacity` total
    /// entries (rounded up to a multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(LruMemo::new())),
            shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The total entry budget across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARD_COUNT
    }

    fn shard(&self, key: u128) -> &Shard {
        &self.shards[shard_index(key)]
    }

    /// Counts hits and misses, both locally and, when telemetry is on, in
    /// the global metrics registry.
    fn tally(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
            pandia_obs::count("predict.cache.hits", hits);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
            pandia_obs::count("predict.cache.misses", misses);
        }
    }

    /// Looks a key up, counting the hit or miss. A hit refreshes the
    /// entry's recency and shares the stored slice.
    pub fn lookup(&self, key: u128) -> Option<Arc<[Prediction]>> {
        let found = lock(self.shard(key)).get(&key).cloned();
        let hit = u64::from(found.is_some());
        self.tally(hit, 1 - hit);
        found
    }

    /// Looks up a batch of `(index, key)` pairs, locking each shard once,
    /// and hands every stored slice to `hit(index, slice)` where it is
    /// stored. Within a shard the keys are read, and so refreshed, in
    /// batch order. `hit` runs under the shard's lock, so it must not
    /// touch the cache. The batch's hits and misses are counted with one
    /// add each.
    fn read_batch(&self, keys: &[(usize, u128)], mut hit: impl FnMut(usize, &[Prediction])) {
        let mut by_shard: [Vec<(usize, u128)>; SHARD_COUNT] = Default::default();
        for &(i, key) in keys {
            by_shard[shard_index(key)].push((i, key));
        }
        let mut hits = 0;
        for (shard, keys) in self.shards.iter().zip(&by_shard) {
            if keys.is_empty() {
                continue;
            }
            let mut memo = lock(shard);
            for &(i, key) in keys {
                if let Some(stored) = memo.get(&key) {
                    hit(i, stored);
                    hits += 1;
                }
            }
        }
        self.tally(hits, keys.len() as u64 - hits);
    }

    /// Stores predictions under a key, evicting the shard's
    /// least-recently-used entry when the shard is full.
    pub fn store(&self, key: u128, predictions: impl Into<Arc<[Prediction]>>) {
        let predictions = predictions.into();
        let evicted = {
            let mut shard = lock(self.shard(key));
            shard.insert(key, predictions);
            shard.evict_to(self.shard_capacity)
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            pandia_obs::count("cache.evictions", evicted);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/eviction counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Execution settings for placement sweeps: how many workers to fan
/// evaluations across, and whether to memoize predictions.
///
/// Cloning an `ExecContext` shares its cache (the cache sits behind an
/// [`Arc`]), so a context can be handed to several sweeps and they will
/// reuse each other's predictions.
#[derive(Debug, Clone)]
pub struct ExecContext {
    jobs: usize,
    cache: Option<Arc<PredictionCache>>,
}

impl ExecContext {
    /// A parallel context with `jobs` workers and a fresh cache.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), cache: Some(Arc::new(PredictionCache::new())) }
    }

    /// The serial context: one worker, no cache. Every `*_with` entry
    /// point run under this context behaves exactly like its legacy
    /// serial counterpart.
    pub fn serial() -> Self {
        Self { jobs: 1, cache: None }
    }

    /// A parallel context sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(jobs)
    }

    /// Enables (fresh cache) or disables memoization.
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache = if enabled { Some(Arc::new(PredictionCache::new())) } else { None };
        self
    }

    /// A one-worker context sharing this context's cache, for nested
    /// stages that must not multiply the thread count.
    pub fn sequential(&self) -> Self {
        Self { jobs: 1, cache: self.cache.clone() }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The cache, when memoization is enabled.
    pub fn cache(&self) -> Option<&PredictionCache> {
        self.cache.as_deref()
    }

    /// Cache statistics (all zeros when memoization is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_deref().map(PredictionCache::stats).unwrap_or_default()
    }

    /// Applies `f` to every item, fanning the work across the configured
    /// workers, and returns the results in input order.
    ///
    /// Equivalent to [`ExecContext::parallel_map_sized`] with a uniform
    /// size hint: every item is assumed equally expensive, so the chunk
    /// plan degenerates to balanced round-robin dealing. Results are
    /// stitched back by index, so the output is identical to
    /// `items.iter().map(f)` no matter how many workers run.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map_sized(items, |_| 1.0, f)
    }

    /// Applies `f` to every item with a per-item cost hint steering the
    /// assignment of items to workers, and returns the results in input
    /// order.
    ///
    /// Items are dealt to workers by a deterministic serpentine plan over
    /// the size-ranked indices (see [`chunk_plan`]): per-worker task
    /// counts never differ by more than one — fixing the task-count
    /// imbalance the old grab-next-item schedule showed in
    /// `exec.worker_tasks` — while expensive items still spread across
    /// workers. The plan depends only on the hints, never on thread
    /// timing, and results are stitched back by index, so the output is
    /// identical to `items.iter().map(f)` for any worker count and any
    /// hint function.
    pub fn parallel_map_sized<T, R, F, S>(&self, items: &[T], size_hint: S, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        S: Fn(&T) -> f64,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            let _span = pandia_obs::span("exec", "parallel_map")
                .arg("items", items.len())
                .arg("workers", 1usize);
            return items.iter().map(&f).collect();
        }
        let _span = pandia_obs::span("exec", "parallel_map")
            .arg("items", items.len())
            .arg("workers", workers);
        pandia_obs::gauge("exec.queue_depth", items.len() as f64);
        let sizes: Vec<f64> = items.iter().map(&size_hint).collect();
        let plan = chunk_plan(&sizes, workers);
        let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(w, mine)| {
                    scope.spawn(move || {
                        let _wspan = pandia_obs::span("exec", "worker").arg("worker", w);
                        let mut out = Vec::with_capacity(mine.len());
                        for &i in mine {
                            out.push((i, f(&items[i])));
                        }
                        pandia_obs::observe("exec.worker_tasks", out.len() as f64);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(out) => out,
                    // A worker panic is a bug in `f`; surface the original
                    // payload on the caller's thread instead of masking it.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        // Every index 0..items.len() appears exactly once across the
        // workers' chunks, so sorting by index restores serial order.
        pairs.sort_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

/// Deterministic serpentine (boustrophedon) assignment of items to
/// workers: indices are ranked by descending size hint (ties broken by
/// index) and dealt in rounds, alternating direction each round so the
/// worker that drew the largest item of one round draws the smallest of
/// the next.
///
/// Two guarantees follow. *Counts:* each round hands every worker at
/// most one item, so per-worker task counts differ by at most one for
/// any hint distribution. *Sizes:* the alternation pairs large with
/// small across rounds, keeping total assigned size roughly level
/// without a cost model. The plan is a pure function of `(sizes,
/// workers)` — no timing, no randomness — so a run's work assignment is
/// reproducible.
fn chunk_plan(sizes: &[f64], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].total_cmp(&sizes[a]).then(a.cmp(&b)));
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (round, chunk) in order.chunks(workers).enumerate() {
        for (lane, &idx) in chunk.iter().enumerate() {
            let w = if round % 2 == 0 { lane } else { workers - 1 - lane };
            plan[w].push(idx);
        }
    }
    plan
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::serial()
    }
}

/// A memoizing prediction session for one (machine, workload, config)
/// triple.
///
/// The sweep-invariant inputs are serialized and hashed once at
/// construction; each [`PredictSession::predict_with`] call extends that
/// prefix with the placement's concrete context list, and
/// [`PredictSession::predict_batch`] with each candidate's walked one.
/// With memoization disabled this is a zero-cost wrapper around
/// [`predict`].
pub struct PredictSession<'a> {
    exec: &'a ExecContext,
    machine: &'a MachineDescription,
    workload: &'a WorkloadDescription,
    config: &'a PredictorConfig,
    prefix: Fingerprint,
}

impl<'a> PredictSession<'a> {
    /// Binds a session to an execution context and the sweep inputs.
    pub fn new(
        exec: &'a ExecContext,
        machine: &'a MachineDescription,
        workload: &'a WorkloadDescription,
        config: &'a PredictorConfig,
    ) -> Result<Self, PandiaError> {
        let mut prefix = Fingerprint::new();
        if exec.cache().is_some() {
            prefix.write_str(&serde_json::to_string(machine)?);
            prefix.write_str(&serde_json::to_string(workload)?);
            prefix.write_str(&serde_json::to_string(config)?);
        }
        Ok(Self { exec, machine, workload, config, prefix })
    }

    /// Predicts one placement, consulting the cache first.
    pub fn predict(&self, placement: &Placement) -> Result<Prediction, PandiaError> {
        self.predict_with(placement, Prediction::clone)
    }

    /// Predicts one placement and returns what `read` takes from the
    /// prediction, reading a cached prediction where it is stored instead
    /// of copying it out. A miss stores the fresh prediction after `read`
    /// has seen it.
    pub fn predict_with<R>(
        &self,
        placement: &Placement,
        read: impl FnOnce(&Prediction) -> R,
    ) -> Result<R, PandiaError> {
        let Some(cache) = self.exec.cache() else {
            return predict(self.machine, self.workload, placement, self.config).map(|p| read(&p));
        };
        let key = self.key(placement);
        if let Some(hit) = cache.lookup(key) {
            if let Some(p) = hit.first() {
                return Ok(read(p));
            }
        }
        let prediction = predict(self.machine, self.workload, placement, self.config)?;
        let out = read(&prediction);
        cache.store(key, [prediction]);
        Ok(out)
    }

    /// Predicts every candidate placement class and returns what `read`
    /// takes from each prediction, in input order, or the error of the
    /// first candidate (in input order) that fails.
    ///
    /// Each candidate is keyed from its context walk
    /// ([`CanonicalPlacement::for_each_ctx`]) with the bits its
    /// instantiated placement keys to in [`Self::predict_with`], so the
    /// two share entries; a candidate that does not fit the machine
    /// fails before it is keyed. The hits are read in place, one lock per
    /// shard, with `read` running under the lock. Then only the misses
    /// are instantiated, predicted and stored, fanned across the
    /// context's workers. Answers, and for a duplicate-free list whose
    /// shards do not overflow the cache counts, equal the per-candidate
    /// `predict_with` loop's. A repeat within one batch misses twice
    /// where the loop hits its second time, and a shard that overflows
    /// within a batch may evict other victims, because every hit is read
    /// before any miss is stored.
    pub fn predict_batch<R: Send>(
        &self,
        candidates: &[CanonicalPlacement],
        read: impl Fn(&Prediction) -> R + Sync,
    ) -> Result<Vec<R>, PandiaError> {
        // Each candidate's answer once known, and the (index, key) of
        // every candidate still waiting for one.
        let mut answers: Vec<Option<Result<R, PandiaError>>> = Vec::with_capacity(candidates.len());
        let mut pending = Vec::with_capacity(candidates.len());
        for (i, candidate) in candidates.iter().enumerate() {
            match self.walk_key(candidate) {
                Ok(key) => {
                    pending.push((i, key));
                    answers.push(None);
                }
                Err(e) => answers.push(Some(Err(e.into()))),
            }
        }
        if let Some(cache) = self.exec.cache() {
            cache.read_batch(&pending, |i, stored| {
                if let Some(p) = stored.first() {
                    answers[i] = Some(Ok(read(p)));
                }
            });
            pending.retain(|&(i, _)| answers[i].is_none());
        }
        // Thread count is the dominant cost driver of a prediction
        // (entity count sizes every equilibrium solve), so it steers the
        // chunk plan.
        let fresh = self.exec.parallel_map_sized(
            &pending,
            |&(i, _)| candidates[i].total_threads() as f64,
            |&(i, key)| {
                let placement = candidates[i].instantiate(self.machine)?;
                let prediction = predict(self.machine, self.workload, &placement, self.config)?;
                let out = read(&prediction);
                if let Some(cache) = self.exec.cache() {
                    cache.store(key, [prediction]);
                }
                Ok(out)
            },
        );
        for (&(i, _), answer) in pending.iter().zip(fresh) {
            answers[i] = Some(answer);
        }
        debug_assert!(answers.iter().all(Option::is_some), "every candidate answered");
        answers.into_iter().flatten().collect()
    }

    /// The cache key of one placement: the session prefix extended with
    /// the placement's contexts.
    fn key(&self, placement: &Placement) -> u128 {
        let mut fp = self.prefix;
        for ctx in placement.contexts() {
            fp.write_usize(ctx.0);
        }
        fp.key()
    }

    /// The cache key of one placement class, from its context walk: the
    /// bits [`Self::key`] gives its instantiated placement.
    fn walk_key(&self, candidate: &CanonicalPlacement) -> Result<u128, TopologyError> {
        let mut fp = self.prefix;
        candidate.for_each_ctx(self.machine, |ctx| fp.write_usize(ctx.0))?;
        Ok(fp.key())
    }
}

/// A memoizing session for joint (co-scheduled) predictions over a fixed
/// job list.
///
/// The machine, predictor config, and every job's workload description
/// are hashed into the prefix at construction, **in order**; each
/// [`JointSession::predict_jobs`] call must pass the same workloads in
/// the same order and extends the prefix with the per-job placements.
pub struct JointSession<'a> {
    machine: &'a MachineDescription,
    config: &'a PredictorConfig,
    cache: Option<&'a PredictionCache>,
    prefix: Fingerprint,
}

impl<'a> JointSession<'a> {
    /// Binds a session to an execution context, machine, config, and an
    /// ordered job list.
    pub fn new(
        exec: &'a ExecContext,
        machine: &'a MachineDescription,
        config: &'a PredictorConfig,
        jobs: &[&WorkloadDescription],
    ) -> Result<Self, PandiaError> {
        let cache = exec.cache();
        let mut prefix = Fingerprint::new();
        if cache.is_some() {
            prefix.write_str(&serde_json::to_string(machine)?);
            prefix.write_str(&serde_json::to_string(config)?);
            prefix.write_usize(jobs.len());
            for workload in jobs {
                prefix.write_str(&serde_json::to_string(*workload)?);
            }
        }
        Ok(Self { machine, config, cache, prefix })
    }

    /// Predicts the jobs under the given placements, consulting the
    /// cache first. The workloads must match the list the session was
    /// created with, in the same order.
    pub fn predict_jobs(
        &self,
        jobs: &[(&WorkloadDescription, &Placement)],
    ) -> Result<Vec<Prediction>, PandiaError> {
        let Some(cache) = self.cache else {
            return predict_jobs(self.machine, jobs, self.config);
        };
        let mut fp = self.prefix;
        for (_, placement) in jobs {
            fp.write_usize(usize::MAX); // placement frame separator
            for ctx in placement.contexts() {
                fp.write_usize(ctx.0);
            }
        }
        let key = fp.key();
        if let Some(hit) = cache.lookup(key) {
            return Ok(hit.to_vec());
        }
        let predictions = predict_jobs(self.machine, jobs, self.config)?;
        cache.store(key, predictions.as_slice());
        Ok(predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{CtxId, MachineShape};

    fn machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 };
        m
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let exec = ExecContext::new(jobs);
            let out = exec.parallel_map(&items, |&i| i * i);
            let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
            assert_eq!(out, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        let exec = ExecContext::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(exec.parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(exec.parallel_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn chunk_plan_covers_every_index_exactly_once() {
        for n in [0usize, 1, 3, 7, 16, 101] {
            for workers in [1usize, 2, 4, 5] {
                let sizes: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64).collect();
                let plan = chunk_plan(&sizes, workers);
                assert_eq!(plan.len(), workers);
                let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn chunk_plan_task_counts_spread_at_most_one_on_skewed_sizes() {
        // A pathological distribution: one huge item, a heavy head, a
        // long tail of near-zero items. The old grab-next schedule let a
        // fast worker take nearly the whole tail; the serpentine plan
        // keeps counts within one of each other regardless of skew.
        let mut sizes: Vec<f64> = vec![1e9, 500.0, 400.0, 300.0];
        sizes.extend(std::iter::repeat_n(0.001, 29));
        for workers in [2usize, 3, 4, 8] {
            let plan = chunk_plan(&sizes, workers);
            let max = plan.iter().map(Vec::len).max().unwrap();
            let min = plan.iter().map(Vec::len).min().unwrap();
            assert!(max - min <= 1, "workers={workers} counts={:?}", plan.iter().map(Vec::len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_plan_is_deterministic_and_serpentine() {
        let sizes = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5];
        let plan = chunk_plan(&sizes, 2);
        assert_eq!(plan, chunk_plan(&sizes, 2), "pure function of inputs");
        // Descending rank order is 0,1,2,3,4,5; rounds of two dealt
        // forward then backward: (0→w0, 1→w1), (2→w1, 3→w0), (4→w0, 5→w1).
        assert_eq!(plan[0], vec![0, 3, 4]);
        assert_eq!(plan[1], vec![1, 2, 5]);
    }

    #[test]
    fn parallel_map_sized_is_bit_identical_across_jobs() {
        // Skewed hints with result values that depend on float math: any
        // scheduling leak into results would break equality across jobs.
        let items: Vec<usize> = (0..57).collect();
        let hint = |&i: &usize| if i == 0 { 1e6 } else { 1.0 / (i as f64) };
        let baseline: Vec<f64> =
            items.iter().map(|&i| (i as f64).sqrt() * 1.000000119 + 0.25).collect();
        for jobs in [1usize, 2, 4] {
            let exec = ExecContext::new(jobs);
            let out =
                exec.parallel_map_sized(&items, hint, |&i| (i as f64).sqrt() * 1.000000119 + 0.25);
            let same = out.iter().zip(&baseline).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "jobs={jobs} must match serial bits");
        }
    }

    #[test]
    fn fingerprints_separate_framing_and_values() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.key(), b.key(), "string framing must matter");

        let mut c = Fingerprint::new();
        c.write_usize(1);
        c.write_usize(2);
        let mut d = Fingerprint::new();
        d.write_usize(2);
        d.write_usize(1);
        assert_ne!(c.key(), d.key(), "order must matter");
        assert_eq!(Fingerprint::new().key(), Fingerprint::default().key());
    }

    #[test]
    fn distinct_inputs_get_distinct_cache_keys() {
        // Fingerprint sanity: different configs, workloads, and
        // placements must not collide on any pair of keys.
        let exec = ExecContext::new(1);
        let m = machine();
        let w1 = WorkloadDescription::example();
        let mut w2 = w1.clone();
        w2.parallel_fraction = 0.5;
        let c1 = PredictorConfig::default();
        let c2 = PredictorConfig { tolerance: 1e-3, ..PredictorConfig::default() };
        let shape = m.shape;
        let p1 = Placement::new(&shape, vec![CtxId(0)]).unwrap();
        let p2 = Placement::new(&shape, vec![CtxId(1)]).unwrap();

        let mut keys = Vec::new();
        for (w, c, p) in [(&w1, &c1, &p1), (&w2, &c1, &p1), (&w1, &c2, &p1), (&w1, &c1, &p2)] {
            let session = PredictSession::new(&exec, &m, w, c).unwrap();
            keys.push(session.key(p));
        }
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "inputs {i} and {j} collided");
            }
        }
    }

    #[test]
    fn walked_keys_are_the_instantiated_keys() {
        let exec = ExecContext::new(1);
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        let all = pandia_topology::PlacementEnumerator::new(&m.shape).all();
        assert!(all.len() > 10);
        for c in &all {
            let instantiated = c.instantiate(&m).unwrap();
            assert_eq!(session.walk_key(c).unwrap(), session.key(&instantiated), "{c}");
        }
    }

    #[test]
    fn batch_reads_hits_where_predict_with_stored_them() {
        let exec = ExecContext::new(1);
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        let candidates: Vec<CanonicalPlacement> =
            [vec![vec![1]], vec![vec![2, 1]], vec![vec![1], vec![1]], vec![vec![2, 2], vec![2]]]
                .into_iter()
                .map(CanonicalPlacement::new)
                .collect();
        let time = |p: &Prediction| p.predicted_time.to_bits();
        let first = session.predict_with(&candidates[1].instantiate(&m).unwrap(), time).unwrap();
        let cold = session.predict_batch(&candidates, time).unwrap();
        assert_eq!(cold[1], first);
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 4, 4));
        assert_eq!(session.predict_batch(&candidates, time).unwrap(), cold);
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (5, 4, 4));
        let uncached = ExecContext::new(1).with_cache(false);
        let plain = PredictSession::new(&uncached, &m, &w, &config).unwrap();
        assert_eq!(plain.predict_batch(&candidates, time).unwrap(), cold);
        assert_eq!(uncached.cache_stats(), CacheStats::default());
    }

    #[test]
    fn batch_answers_a_colliding_walk_with_its_error() {
        // On two-slot cores `[[3]]` would walk to the contexts of
        // `[[2, 1]]`, so it must fail before it is keyed, even with
        // `[[2, 1]]` cached.
        let exec = ExecContext::new(1);
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        let two_one = CanonicalPlacement::new(vec![vec![2, 1]]);
        let three = CanonicalPlacement::new(vec![vec![3]]);
        let time = |p: &Prediction| p.predicted_time;
        session.predict_batch(std::slice::from_ref(&two_one), time).unwrap();
        let expected = PandiaError::from(three.instantiate(&m).unwrap_err());
        for batch in [[two_one.clone(), three.clone()], [three.clone(), two_one.clone()]] {
            assert_eq!(session.predict_batch(&batch, time).unwrap_err(), expected);
        }
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let exec = ExecContext::new(1);
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let shape = m.shape;
        let placement = Placement::new(&shape, vec![CtxId(0), CtxId(4)]).unwrap();

        let session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        let cold = session.predict(&placement).unwrap();
        let warm = session.predict(&placement).unwrap();
        assert_eq!(cold, warm, "cached prediction must be identical");

        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        // Capacity SHARD_COUNT = one entry per shard; keys 0, 16, 32
        // all land in shard 0.
        let cache = PredictionCache::with_capacity(SHARD_COUNT);
        assert_eq!(cache.capacity(), SHARD_COUNT);
        cache.store(0, Vec::new());
        cache.store(16, Vec::new());
        assert!(cache.lookup(0).is_none(), "oldest entry must be evicted");
        assert!(cache.lookup(16).is_some());
        assert_eq!(cache.stats().evictions, 1);

        // Two entries per shard: a lookup refreshes recency, so the
        // *unrefreshed* entry is the victim.
        let cache = PredictionCache::with_capacity(2 * SHARD_COUNT);
        cache.store(0, Vec::new());
        cache.store(16, Vec::new());
        assert!(cache.lookup(0).is_some()); // refresh key 0
        cache.store(32, Vec::new()); // evicts key 16, not 0
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(16).is_none());
        assert!(cache.lookup(32).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn no_cache_context_bypasses_memoization() {
        let exec = ExecContext::new(2).with_cache(false);
        assert!(exec.cache().is_none());
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let shape = m.shape;
        let placement = Placement::new(&shape, vec![CtxId(0)]).unwrap();

        let session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        session.predict(&placement).unwrap();
        session.predict(&placement).unwrap();
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn sequential_clone_shares_the_cache() {
        let exec = ExecContext::new(4);
        let inner = exec.sequential();
        assert_eq!(inner.jobs(), 1);
        let m = machine();
        let w = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let shape = m.shape;
        let placement = Placement::new(&shape, vec![CtxId(0)]).unwrap();

        let outer_session = PredictSession::new(&exec, &m, &w, &config).unwrap();
        outer_session.predict(&placement).unwrap();
        let inner_session = PredictSession::new(&inner, &m, &w, &config).unwrap();
        inner_session.predict(&placement).unwrap();
        assert_eq!(exec.cache_stats().hits, 1, "inner context must see the outer entry");
    }

    #[test]
    fn joint_session_caches_whole_prediction_vectors() {
        let exec = ExecContext::new(1);
        let m = machine();
        let a = WorkloadDescription::example();
        let b = WorkloadDescription::example();
        let config = PredictorConfig::default();
        let shape = m.shape;
        let pa = Placement::new(&shape, vec![CtxId(0)]).unwrap();
        let pb = Placement::new(&shape, vec![CtxId(4)]).unwrap();

        let session = JointSession::new(&exec, &m, &config, &[&a, &b]).unwrap();
        let cold = session.predict_jobs(&[(&a, &pa), (&b, &pb)]).unwrap();
        let warm = session.predict_jobs(&[(&a, &pa), (&b, &pb)]).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold.len(), 2);
        let stats = exec.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Swapping the placements is a different joint candidate.
        session.predict_jobs(&[(&a, &pb), (&b, &pa)]).unwrap();
        assert_eq!(exec.cache_stats().misses, 2);
    }
}
