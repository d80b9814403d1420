//! The fluid execution engine.
//!
//! A run advances in *segments*. Within a segment every runnable entity
//! (workload thread or stress kernel) has a fixed effective demand bundle
//! (its per-unit demands, modulated by its burst phase and by cache-
//! overflow spill) and the progress rates come from the max-min fair
//! equilibrium of [`crate::equilibrium`]. Between segments, work advances,
//! threads finish or draw from the shared pool, burst phases are redrawn,
//! and the DVFS point and lock-queue state are updated.
//!
//! Synchronization ground truth:
//!
//! * a global critical-section lock is modeled as a hard fluid resource
//!   (at most one lock-second per second in total) *plus* an M/M/1-style
//!   queueing delay `ρ / (1 - ρ)` that stretches each thread's
//!   critical-section time as the lock approaches saturation;
//! * communication adds per-work-unit latency proportional to the number
//!   and activity of peers, weighted by the machine's inter-socket latency
//!   for peers on other sockets (the ground truth behind the paper's `os`).

use std::collections::{hash_map::Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use pandia_topology::{
    CoreId, Counters, CtxId, DataPlacement, MachineSpec, Placement, ResourceId, ResourceKind,
    ResourceTable, RunResult, SocketId, StressPin,
};

use crate::{
    behavior::{Behavior, BurstProfile},
    cache::spill_fraction,
    dvfs::DvfsState,
    equilibrium,
    fault::{FaultPlan, SimError},
    rng,
    stress,
    trace::{RunTrace, TraceSegment},
};

/// Fraction of the remaining runtime covered by each segment (smaller =
/// finer burst interleaving, slower simulation).
const SEGMENT_FRACTION: f64 = 0.12;
/// Minimum number of segments the bulk of a run is divided into. Burst
/// phases are redrawn per segment, so this bounds the sampling error of
/// bursty workloads' measured times and counters: segments are capped at
/// `1/MIN_SEGMENTS` of the initial time-to-finish estimate, keeping them
/// equal-length until the geometric tail.
const MIN_SEGMENTS: usize = 150;
/// Fixed-point rounds per segment for the lock-queue/communication
/// feedback.
const RELAXATION_ROUNDS: usize = 2;
/// Lock utilization at which the queueing delay is clamped.
const MAX_LOCK_RHO: f64 = 0.98;
/// Hard cap on segments, as a runaway guard.
const MAX_SEGMENTS: usize = 20_000;
/// Backstop for degenerate runs whose memo key never recurs: stop
/// inserting (but keep probing) once the memo is clearly not paying for
/// itself.
const SEG_CACHE_CAP: usize = 4096;

/// Tunables of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Standard deviation of the multiplicative measurement noise.
    pub noise_sigma: f64,
    /// Deterministic fault-injection schedule. The default plan injects
    /// nothing and is byte-identical to an engine without the fault layer;
    /// an armed plan also turns the segment memo off.
    pub faults: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { noise_sigma: 0.004, faults: FaultPlan::none() }
    }
}

/// Fast-path accounting for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Segments executed (replayed or fully computed).
    pub segments: u64,
    /// Segments replayed from the segment memo instead of being fully
    /// recomputed.
    pub segments_coalesced: u64,
    /// Layouts compiled: fully computed segments whose runnable set
    /// differs from the one the run's layout was last compiled for.
    pub layouts: u64,
    /// First-round equilibrium solves: one per fully computed segment
    /// whose rates are not the saturated step.
    pub solves: u64,
    /// Later-round solves answered from the solver's cached rates
    /// (rate caps and capacities unchanged).
    pub solves_skipped: u64,
    /// Later-round solves over the first round's values that ran the
    /// filling loop again because rate caps or capacities moved.
    pub solves_batched: u64,
    /// Fully computed segments answered by the saturated step, with no
    /// solve: `solves + saturated` is `segments - segments_coalesced`.
    pub saturated: u64,
}

/// Everything a segment middle produces from its (runnable set, burst
/// multipliers, relaxation warm start) input triple: per-runnable rates,
/// per-group rates, the trace's hottest resource, and the per-socket
/// spill the counters charge.
struct Middle {
    rates: Vec<f64>,
    group_rate: Vec<f64>,
    hottest: Option<(ResourceKind, f64)>,
    spill_frac_socket: Vec<f64>,
}

/// One memoized segment middle. The exact key is kept alongside the
/// outputs: the memo is addressed by a 128-bit fingerprint, and each
/// probe verifies the resident key word for word, so a fingerprint
/// collision degrades to a recompute — never to a wrong replay.
struct CachedSegment {
    key: Vec<u64>,
    middle: Middle,
}

/// Pass-through hasher for the segment memo: the map key *is* a 128-bit
/// fingerprint, already uniformly distributed, so rehashing it per probe
/// would be pure overhead. The two words are folded with a rotate so both
/// drive bucket selection. (Nothing ever iterates the memo, so the
/// unordered map cannot perturb results.)
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.rotate_left(32) ^ i;
    }
}

/// 128-bit fingerprint of a memo key: two independent FNV-1a chains over
/// the words (the second pre-rotates each word so the chains never
/// collide together). One multiply per word per chain — this runs on
/// every segment, hit or miss, so it is the hot edge of the memo. It
/// only has to make collisions rare, not impossible — exactness comes
/// from the full-key verification on every probe.
fn seg_fingerprint(words: &[u64]) -> (u64, u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut a = 0xCBF2_9CE4_8422_2325_u64;
    let mut b = 0x243F_6A88_85A3_08D3_u64;
    for &w in words {
        a = (a ^ w).wrapping_mul(FNV_PRIME);
        b = (b ^ w.rotate_left(32)).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// Everything the engine needs for one run.
#[derive(Debug)]
pub struct RunInputs<'a> {
    /// Machine being simulated.
    pub spec: &'a MachineSpec,
    /// Workload to execute.
    pub behavior: &'a Behavior,
    /// Workload thread pinning.
    pub placement: &'a Placement,
    /// Co-scheduled stress kernels.
    pub stressors: &'a [StressPin],
    /// Pin all sockets at the all-core frequency (profiling methodology).
    pub fill_background: bool,
    /// Turbo Boost enabled.
    pub turbo: bool,
    /// Data placement override.
    pub data_placement: Option<DataPlacement>,
    /// Noise/burst seed.
    pub seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EntityClass {
    /// Workload thread with the given thread index.
    Worker(usize),
    /// Infinite-work stress kernel.
    Stressor,
}

struct Entity {
    class: EntityClass,
    /// Owning workload group (`usize::MAX` for stressors).
    group: usize,
    core: CoreId,
    socket: SocketId,
    behavior: Behavior,
    /// Fraction of DRAM traffic destined to each socket.
    dram_split: Vec<f64>,
    /// Remaining statically assigned work (workers only).
    private_work: f64,
    /// Work completed so far (indexes the burst-phase sequence).
    work_done: f64,
    busy_time: f64,
    finished: bool,
}

impl Entity {
    fn is_worker(&self) -> bool {
        matches!(self.class, EntityClass::Worker(_))
    }
}

/// Computes each thread's DRAM traffic split across sockets.
fn dram_split(
    policy: DataPlacement,
    spec: &MachineSpec,
    own_socket: SocketId,
    threads_per_socket: &[usize],
    total_threads: usize,
) -> Vec<f64> {
    let s = spec.sockets;
    match policy {
        DataPlacement::Interleave => vec![1.0 / s as f64; s],
        DataPlacement::Node(k) => {
            let mut v = vec![0.0; s];
            v[k.min(s - 1)] = 1.0;
            v
        }
        DataPlacement::FirstTouch => {
            if total_threads == 0 {
                let mut v = vec![0.0; s];
                v[own_socket.0] = 1.0;
                return v;
            }
            threads_per_socket.iter().map(|&t| t as f64 / total_threads as f64).collect()
        }
        DataPlacement::ThreadLocal => {
            let mut v = vec![0.0; s];
            v[own_socket.0] = 1.0;
            v
        }
        DataPlacement::RemoteNeighbor => {
            let mut v = vec![0.0; s];
            v[(own_socket.0 + 1) % s] = 1.0;
            v
        }
    }
}

/// Burst-phase draw for an entity in a segment: a golden-ratio
/// low-discrepancy sequence with a per-entity random offset.
///
/// The sequence equidistributes each thread's duty cycle with `O(1/N)`
/// error over `N` segments, while phase *overlap* between threads still
/// varies with the seed. Phases modulate *instantaneous demand* only;
/// counters charge each completed work unit its average demand, as a
/// hardware counter would.
const PHI_CONJUGATE: f64 = 0.618_033_988_749_895;

/// Per-entity phase offset for the burst draw: a pure function of the
/// seed and entity index, hoisted out of the segment loop by the engine
/// (the per-segment draw is `(offset + segment · φ⁻¹).fract()`).
fn burst_offset(seed: u64, entity: usize) -> f64 {
    rng::unit_f64(rng::mix(seed, entity as u64, 0, 0xB))
}

/// Reference form of the per-segment burst draw. The segment loop uses
/// the hoisted-offset equivalent; a unit test pins the two together.
#[cfg(test)]
fn burst_draw(seed: u64, entity: usize, segment: usize) -> f64 {
    (burst_offset(seed, entity) + segment as f64 * PHI_CONJUGATE).fract()
}

/// One co-scheduled workload: a behavior plus its thread pinning.
#[derive(Debug)]
pub struct GroupInput<'a> {
    /// The workload to run.
    pub behavior: &'a Behavior,
    /// Its thread placement (must not overlap other groups).
    pub placement: &'a Placement,
    /// Data placement override for this group.
    pub data_placement: Option<DataPlacement>,
}

/// Everything the engine needs for a multi-workload run.
#[derive(Debug)]
pub struct MultiRunInputs<'a> {
    /// Machine being simulated.
    pub spec: &'a MachineSpec,
    /// The co-scheduled workloads.
    pub groups: &'a [GroupInput<'a>],
    /// Co-scheduled stress kernels.
    pub stressors: &'a [StressPin],
    /// Pin all sockets at the all-core frequency (profiling methodology).
    pub fill_background: bool,
    /// Turbo Boost enabled.
    pub turbo: bool,
    /// Noise/burst seed.
    pub seed: u64,
}

/// Executes one run and returns its measured result.
pub fn run(inputs: &RunInputs<'_>, config: &EngineConfig) -> Result<RunResult, SimError> {
    let group = GroupInput {
        behavior: inputs.behavior,
        placement: inputs.placement,
        data_placement: inputs.data_placement,
    };
    let multi = MultiRunInputs {
        spec: inputs.spec,
        groups: std::slice::from_ref(&group),
        stressors: inputs.stressors,
        fill_background: inputs.fill_background,
        turbo: inputs.turbo,
        seed: inputs.seed,
    };
    run_multi(&multi, config)?.pop().ok_or_else(|| SimError::Internal {
        reason: "one group in, no result out".into(),
    })
}

/// Per-group bookkeeping during a multi-workload run.
struct GroupState {
    total_work: f64,
    pool: f64,
    pool_capable: bool,
    workers: usize,
    counters: Counters,
    finish_time: Option<f64>,
}

/// Executes several workloads concurrently and returns one result per
/// group, in input order.
///
/// Groups share every machine resource but have independent critical
/// sections, work pools, counters, and completion times (a group's
/// entities go idle once its work is done, freeing resources for the
/// rest). This is the ground truth for the multi-workload co-scheduling
/// extension the paper's §8 anticipates.
pub fn run_multi(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<Vec<RunResult>, SimError> {
    run_multi_impl(inputs, config, None).map(|(results, _)| results)
}

/// Like [`run_multi`], additionally recording a per-segment [`RunTrace`].
pub fn run_multi_traced(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<(Vec<RunResult>, RunTrace), SimError> {
    let mut trace = RunTrace::default();
    let (results, _) = run_multi_impl(inputs, config, Some(&mut trace))?;
    Ok((results, trace))
}

/// Like [`run_multi`], additionally returning the run's [`SimStats`] so
/// tests and harnesses can assert on the fast path's behaviour directly.
pub fn run_multi_stats(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
) -> Result<(Vec<RunResult>, SimStats), SimError> {
    run_multi_impl(inputs, config, None)
}

/// The run state around the segment middle: the entities, the per-group
/// pools and counters, and the segment clock. Construction, the
/// per-segment bookkeeping and result assembly are unoptimized phases,
/// so the production loop and the test-only reference engine (`spec`)
/// share them; only the middle differs.
struct RunState<'a> {
    inputs: &'a MultiRunInputs<'a>,
    config: &'a EngineConfig,
    /// The machine's hardware resources; one critical-section lock per
    /// group follows them in the solve.
    table: ResourceTable,
    entities: Vec<Entity>,
    groups: Vec<GroupState>,
    /// Entities with work this segment, ascending.
    runnable: Vec<usize>,
    /// Remaining work per group (private shares plus pool).
    group_remaining: Vec<f64>,
    pool_draw: Vec<f64>,
    /// Each entity's rate in the last segment it ran: the relaxation warm
    /// start.
    prev_rates: Vec<f64>,
    elapsed: f64,
    segment: usize,
    quantum: f64,
}

impl<'a> RunState<'a> {
    /// Builds the entities and groups of a run. Transient faults kill the
    /// whole measurement window before any result is produced; a retry
    /// with a fresh seed re-draws the schedule.
    fn new(inputs: &'a MultiRunInputs<'a>, config: &'a EngineConfig) -> Result<Self, SimError> {
        if config.faults.transient_faults(inputs.seed) {
            if pandia_obs::enabled() {
                pandia_obs::count("sim.faults_injected", 1);
            }
            return Err(SimError::TransientFault { seed: inputs.seed });
        }
        let spec = inputs.spec;
        let n_groups = inputs.groups.len();
        let mut entities: Vec<Entity> = Vec::new();
        let mut groups: Vec<GroupState> = Vec::with_capacity(n_groups);

        for (g, group) in inputs.groups.iter().enumerate() {
            let behavior = group.behavior;
            let n_threads = group.placement.n_threads();
            let workers = behavior.workers_of(n_threads);
            let total_work = behavior.work_for_threads(workers);
            let policy = group.data_placement.unwrap_or(behavior.data_placement);
            let threads_per_socket = group.placement.threads_per_socket(spec);
            let dyn_frac = behavior.scheduling.dynamic_fraction();
            let static_share =
                if workers > 0 { total_work * (1.0 - dyn_frac) / workers as f64 } else { 0.0 };
            for (t, &ctx) in group.placement.contexts().iter().enumerate() {
                let socket = spec.socket_of_ctx(ctx);
                let is_active = t < workers;
                entities.push(Entity {
                    class: EntityClass::Worker(t),
                    group: g,
                    core: spec.core_of_ctx(ctx),
                    socket,
                    // lint: allow(H2): one-time entity construction per run, not per step
                    behavior: behavior.clone(),
                    dram_split: dram_split(policy, spec, socket, &threads_per_socket, n_threads),
                    private_work: if is_active { static_share } else { 0.0 },
                    work_done: 0.0,
                    busy_time: 0.0,
                    finished: !is_active,
                });
            }
            groups.push(GroupState {
                total_work,
                pool: total_work * dyn_frac,
                pool_capable: dyn_frac > 0.0,
                workers,
                counters: Counters { dram_bytes: vec![0.0; spec.sockets], ..Counters::default() },
                finish_time: None,
            });
        }
        for pin in inputs.stressors {
            let ctx = pin.ctx;
            let socket = spec.socket_of_ctx(ctx);
            let sb = stress::behavior(spec, pin.kind);
            let split = dram_split(sb.data_placement, spec, socket, &[], 0);
            entities.push(Entity {
                class: EntityClass::Stressor,
                group: usize::MAX,
                core: spec.core_of_ctx(ctx),
                socket,
                behavior: sb,
                dram_split: split,
                private_work: 0.0,
                work_done: 0.0,
                busy_time: 0.0,
                finished: false,
            });
        }

        Ok(Self {
            inputs,
            config,
            table: ResourceTable::from_spec(spec),
            runnable: Vec::new(),
            group_remaining: vec![0.0; n_groups],
            pool_draw: vec![0.0; n_groups],
            prev_rates: vec![1.0; entities.len()],
            entities,
            groups,
            elapsed: 0.0,
            segment: 0,
            quantum: f64::INFINITY,
        })
    }

    /// Settles the remaining work and the runnable set for the next
    /// segment; false once no worker has work left or the segment cap is
    /// reached.
    fn next_segment(&mut self) -> bool {
        let (entities, groups) = (&self.entities[..], &self.groups[..]);
        let group_remaining = &mut self.group_remaining[..];
        for (g, gs) in groups.iter().enumerate() {
            group_remaining[g] = gs.pool;
        }
        for e in entities {
            if e.is_worker() {
                group_remaining[e.group] += e.private_work;
            }
        }
        let runnable = &mut self.runnable;
        runnable.clear();
        for (i, e) in entities.iter().enumerate() {
            let has_work = match e.class {
                EntityClass::Worker(_) => {
                    !e.finished
                        && (e.private_work > 0.0
                            || (groups[e.group].pool_capable && groups[e.group].pool > 0.0))
                }
                EntityClass::Stressor => true,
            };
            if has_work {
                runnable.push(i);
            }
        }
        let remaining: f64 = group_remaining.iter().sum();
        if remaining <= 0.0 || runnable.iter().all(|&i| !entities[i].is_worker()) {
            return false;
        }
        self.segment < MAX_SEGMENTS
    }

    /// Closes the segment whose middle produced `seg`: picks its length,
    /// records it in the trace, advances work and counters, and settles
    /// pools, finished workers and group finish times. False when nothing
    /// progresses (a deadlock guard that should never fire).
    fn advance(&mut self, seg: &Middle, trace: Option<&mut RunTrace>) -> bool {
        let (entities, groups) = (&mut self.entities[..], &mut self.groups[..]);
        let (runnable, group_remaining) = (&self.runnable[..], &self.group_remaining[..]);
        let (pool_draw, prev_rates) = (&mut self.pool_draw[..], &mut self.prev_rates[..]);
        // Segment length: cover a fraction of the remaining runtime of the
        // group closest to finishing, so completion times stay sharp.
        let mut min_ttf = f64::INFINITY;
        let mut total_rate = 0.0;
        for (rem, rate) in group_remaining.iter().zip(&seg.group_rate) {
            if *rem > 0.0 && *rate > 1e-12 {
                min_ttf = min_ttf.min(rem / rate);
            }
            total_rate += rate;
        }
        if total_rate <= 1e-12 || !min_ttf.is_finite() {
            return false;
        }
        // Segments are equal-length (a fixed quantum derived from the
        // first segment's time-to-finish estimate) until the geometric
        // tail takes over; once a group's residue is negligible, close it
        // out exactly.
        if self.segment == 0 {
            self.quantum = min_ttf / MIN_SEGMENTS as f64;
        }
        let closing = (0..groups.len()).any(|g| {
            group_remaining[g] > 0.0
                && group_remaining[g] <= groups[g].total_work * 1e-3
                && seg.group_rate[g] > 1e-12
        });
        let dt = if closing { min_ttf } else { (min_ttf * SEGMENT_FRACTION).min(self.quantum) };

        if let Some(trace) = trace {
            trace.segments.push(TraceSegment {
                start: self.elapsed,
                dt,
                group_rates: seg.group_rate.clone(),
                hottest: seg.hottest,
                runnable: runnable.len(),
            });
        }

        // Progress work and accumulate counters.
        pool_draw.fill(0.0);
        for (k, &i) in runnable.iter().enumerate() {
            let e = &mut entities[i];
            if !e.is_worker() {
                continue;
            }
            let progress = seg.rates[k] * dt;
            let from_private = progress.min(e.private_work);
            e.private_work -= from_private;
            let from_pool = if groups[e.group].pool_capable { progress - from_private } else { 0.0 };
            pool_draw[e.group] += from_pool;
            e.busy_time += dt;

            // Counters charge each completed work unit its *average*
            // demand: bursts redistribute traffic in time, but the bytes a
            // unit of work needs are fixed, which is what a hardware
            // counter integrates.
            let moved = from_private + from_pool;
            e.work_done += moved;
            let d = e.behavior.demand;
            let counters = &mut groups[e.group].counters;
            counters.instructions += d.instr * moved;
            counters.l1_bytes += d.l1 * moved;
            counters.l2_bytes += d.l2 * moved;
            counters.l3_bytes += d.l3 * moved;
            let spill_frac = seg.spill_frac_socket[e.socket.0];
            let dram_total = (d.dram + d.l3 * spill_frac) * moved;
            for (node, &frac) in e.dram_split.iter().enumerate() {
                counters.dram_bytes[node] += dram_total * frac;
                if node != e.socket.0 {
                    counters.interconnect_bytes += dram_total * frac;
                }
            }
        }
        // Reconcile the shared pools: over-draw in the fluid model simply
        // means a pool drained partway through the segment.
        for (g, gs) in groups.iter_mut().enumerate() {
            gs.pool = (gs.pool - pool_draw[g]).max(0.0);
            if gs.pool <= 1e-12 {
                gs.pool = 0.0;
            }
        }
        // Mark finished workers and completed groups.
        for &i in runnable {
            let e = &mut entities[i];
            if !e.is_worker() {
                continue;
            }
            let gs = &groups[e.group];
            if e.private_work <= 1e-12 && (gs.pool <= 1e-12 || !gs.pool_capable) {
                e.private_work = 0.0;
                e.finished = true;
            }
        }
        self.elapsed += dt;
        for (g, gs) in groups.iter_mut().enumerate() {
            if gs.finish_time.is_none() {
                let done = gs.workers == 0
                    || (gs.pool <= 0.0
                        && entities
                            .iter()
                            .filter(|e| e.is_worker() && e.group == g)
                            .all(|e| e.finished));
                if done {
                    gs.finish_time = Some(self.elapsed);
                }
            }
        }

        // Persist rates for the next segment's relaxation bootstrap.
        for (k, &i) in runnable.iter().enumerate() {
            prev_rates[i] = seg.rates[k];
        }
        self.segment += 1;
        true
    }

    /// Assembles per-group results with seeded measurement noise plus any
    /// injected measurement corruption. With the default (empty) fault
    /// plan every injected factor is exactly 1.0 and no channel is zeroed,
    /// so the arithmetic below is bit-identical to the fault-free engine.
    fn results(&self) -> Vec<RunResult> {
        let (inputs, config) = (self.inputs, self.config);
        let faults = &config.faults;
        let mut faults_injected = 0u64;
        let results: Vec<RunResult> = inputs
            .groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let gs = &self.groups[g];
                let placement_hash = group
                    .placement
                    .contexts()
                    .iter()
                    .fold(g as u64, |acc, c| rng::splitmix64(acc ^ (c.0 as u64 + 0x51)));
                let group_hash =
                    rng::splitmix64(rng::hash_str(&group.behavior.name) ^ placement_hash);
                let noise_h =
                    rng::mix(inputs.seed, rng::hash_str(&group.behavior.name), placement_hash, 0xE);
                let regime = faults.noise_regime_factor(inputs.seed, group_hash);
                let burst = faults.interference_multiplier(inputs.seed, group_hash);
                if regime > 1.0 {
                    faults_injected += 1;
                }
                if burst > 1.0 {
                    faults_injected += 1;
                }
                let noise = 1.0 + config.noise_sigma * regime * rng::gaussian_f64(noise_h);
                let raw = gs.finish_time.unwrap_or(self.elapsed);
                let group_elapsed = (raw * noise * burst).max(f64::MIN_POSITIVE);
                let per_thread_busy = self
                    .entities
                    .iter()
                    .filter(|e| e.is_worker() && e.group == g)
                    .map(|e| {
                        if group_elapsed > 0.0 {
                            (e.busy_time / group_elapsed).min(1.0)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let mut counters = gs.counters.clone();
                faults_injected +=
                    apply_counter_dropout(faults, inputs.seed, group_hash, &mut counters);
                RunResult { elapsed: group_elapsed, counters, per_thread_busy }
            })
            .collect();
        if faults_injected > 0 && pandia_obs::enabled() {
            pandia_obs::count("sim.faults_injected", faults_injected);
        }
        results
    }
}

/// The production segment middles of one run, memoized. A middle is a
/// pure function of the runnable set, the burst multipliers and the
/// previous segment's rates (the relaxation warm start): everything else
/// it reads is constant for the run, and the phase draw is a pure
/// function of (seed, entity, segment). So computed middles are memoized
/// under exactly those inputs, and a segment whose key recurs is
/// *replayed* bit for bit. Segment boundaries, lengths and bookkeeping
/// are untouched, so the `MIN_SEGMENTS` sampling guarantee holds. The
/// memo is addressed by a 128-bit fingerprint of the key (which can run
/// to kilobytes on a wide machine), and each hit verifies the exact key.
struct Middles {
    /// `None` under an armed fault plan: its per-segment gates are
    /// observable state a replay must not skip.
    memo: Option<HashMap<(u64, u64), CachedSegment, BuildHasherDefault<FpHasher>>>,
    /// The last middle computed with no memo slot to keep it.
    fresh: Option<Middle>,
    /// Segments replayed from the memo.
    coalesced: u64,
    phases: Phases,
}

impl Middles {
    fn new(run: &RunState<'_>, traced: bool) -> Self {
        Self {
            memo: run.config.faults.is_none().then(HashMap::default),
            fresh: None,
            coalesced: 0,
            phases: Phases::new(run, traced),
        }
    }

    /// The middle of `run`'s current segment: replayed on an exact key
    /// match, computed in full otherwise. A computed middle moves into the
    /// memo while there is room; a fingerprint collision keeps the
    /// incumbent entry and computes this segment fresh.
    fn middle(&mut self, run: &RunState<'_>) -> &Middle {
        let phases = &mut self.phases;
        phases.draw_multipliers(run);
        let Some(memo) = &mut self.memo else {
            return self.fresh.insert(phases.compute(run));
        };
        let fp = phases.memo_key(run);
        let at_cap = memo.len() >= SEG_CACHE_CAP;
        match memo.entry(fp) {
            Entry::Occupied(slot) if slot.get().key == phases.key => {
                self.coalesced += 1;
                &slot.into_mut().middle
            }
            Entry::Vacant(slot) if !at_cap => {
                let middle = phases.compute(run);
                &slot.insert(CachedSegment { key: phases.key.clone(), middle }).middle
            }
            _ => self.fresh.insert(phases.compute(run)),
        }
    }

    /// The run's fast-path accounting after `segments` segments.
    fn stats(&self, segments: usize) -> SimStats {
        let solver = self.phases.solver.stats();
        SimStats {
            segments: segments as u64,
            segments_coalesced: self.coalesced,
            layouts: self.phases.layouts,
            solves: solver.solves,
            solves_skipped: solver.solves_skipped,
            solves_batched: solver.prefix_solves,
            saturated: self.phases.saturated,
        }
    }
}

/// A segment middle computed phase by phase with the spec's arithmetic in
/// the spec's order: hoisted per-run constants, a [`Layout`] per runnable
/// set, the solver, and buffers reused across the run's segments. A
/// middle rewrites every per-segment buffer it reads, so only the layout
/// and the solver's state carry over.
#[derive(Default)]
struct Phases {
    /// Whether the run is traced, so the output names the hottest resource.
    traced: bool,
    /// Each entity's burst draw, tabulated once per run.
    bursts: Vec<Burst>,
    /// This segment's burst multiplier per runnable entity.
    multipliers: Vec<f64>,
    /// This segment's phase bit per runnable entity: its multiplier is
    /// bitwise the high value (otherwise it is the low value).
    high: Vec<bool>,
    /// This segment's exact memo key.
    key: Vec<u64>,
    /// Nominal capacity per hardware resource, in table order.
    base_caps: Vec<f64>,
    /// Per group, `comm_factor · latency` for same- and cross-socket
    /// peers (the spec's two multiplies, in its order); `None` when the
    /// group does not communicate.
    comm_lat: Vec<Option<(f64, f64)>>,
    /// Whether the run's inputs let the full-weight bound hold (`new`).
    bounded: bool,
    layout: Layout,
    /// Layouts compiled this run, and middles answered by the saturated step.
    layouts: u64,
    saturated: u64,
    solver: equilibrium::IncrementalSolver,
    interference: Vec<f64>,
    /// One (group, socket)'s communication term per group member.
    terms: Vec<f64>,
    /// This round's communication term per runnable: 0.0 for stressors
    /// and for workers of groups that do not communicate.
    comm: Vec<f64>,
    /// Lock utilisation per group, then its queueing delay `ρ / (1 - ρ)`.
    queue_delay: Vec<f64>,
    max_rates: Vec<f64>,
    round_rates: Vec<f64>,
}

/// Everything a middle reads that depends on the runnable set alone,
/// compiled when a computed middle's set differs from the one it was
/// compiled for. A demand entry's value is its entity's per-unit demand
/// times the burst multiplier, and the multiplier takes one of two values
/// per entity, so the structure keeps both values of every entry and a
/// segment only picks one per entry.
#[derive(Default)]
struct Layout {
    /// The runnable set this layout was compiled for.
    runnable: Vec<usize>,
    dvfs: DvfsState,
    spill_frac_socket: Vec<f64>,
    /// Every pool's capacity: the hardware resources, then one
    /// critical-section lock per group.
    capacities: Vec<f64>,
    /// The capacities of the demand structure's pools.
    pool_caps: Vec<f64>,
    /// The runnable indices of each core with two or more of them,
    /// ascending (SMT interference).
    smt_members: Vec<Vec<usize>>,
    comm: CommLayout,
    /// Each runnable's communication term with every peer's weight 1.0.
    comm_bound: Vec<f64>,
    /// The demand structure, and each entry's low- and high-phase value
    /// in the structure's slot order.
    demands: equilibrium::Demands,
    phase_values: Vec<[f64; 2]>,
}

/// The communication layout of a runnable set: each communicating group's
/// workers by socket, ascending within a socket, so that `communication`
/// sums one (group, socket)'s observers over one contiguous run of slots.
#[derive(Default)]
struct CommLayout {
    /// Each group's runnable workers and their sockets, ascending.
    members: Vec<Vec<(usize, usize)>>,
    /// The slot bounds of every (group, socket) run, group-major.
    start: Vec<usize>,
    /// Each slot's position in its group's member list.
    position: Vec<usize>,
}

impl CommLayout {
    fn new(run: &RunState<'_>, comm_lat: &[Option<(f64, f64)>]) -> Self {
        let (entities, runnable, sockets) = (&run.entities, &run.runnable, run.inputs.spec.sockets);
        let mut members = vec![Vec::new(); run.groups.len()];
        for (k, &i) in runnable.iter().enumerate() {
            if entities[i].is_worker() {
                members[entities[i].group].push((k, entities[i].socket.0));
            }
        }
        let (mut start, mut position) = (vec![0], Vec::new());
        for (group, lat) in members.iter().zip(comm_lat) {
            for s in 0..sockets {
                if lat.is_some() {
                    position.extend((0..group.len()).filter(|&m| group[m].1 == s));
                }
                start.push(position.len());
            }
        }
        Self { members, start, position }
    }
}

/// An entity's burst draw, tabulated per run: the draw `(offset + segment
/// · φ⁻¹).fract()` picks `multipliers[usize::from(draw < duty)]`, which is
/// `BurstProfile::multiplier(draw)`, with one compare and no branch.
#[derive(Clone, Copy)]
struct Burst {
    offset: f64,
    /// The profile's duty, or 2.0, above every draw, for a smooth one.
    duty: f64,
    /// `[low_multiplier(), multiplier(0.0)]`: the low and the high phase.
    multipliers: [f64; 2],
    /// The phase bit of each: the multiplier is bitwise `multiplier(0.0)`.
    high: [bool; 2],
}

impl Burst {
    fn new(profile: &BurstProfile, seed: u64, entity: usize) -> Self {
        let (low, high) = (profile.low_multiplier(), profile.multiplier(0.0));
        Self {
            offset: burst_offset(seed, entity),
            duty: if profile.duty >= 1.0 { 2.0 } else { profile.duty },
            multipliers: [low, high],
            high: [low.to_bits() == high.to_bits(), true],
        }
    }

    /// The phase index of a segment whose draw is offset by `seg_phase`.
    /// `x - (x as i64) as f64` is `x.fract()` for `0 <= x < 2^63`, and
    /// `x` stays below `MAX_SEGMENTS`; `fract` would call libm's `trunc`.
    fn phase(&self, seg_phase: f64) -> usize {
        let x = self.offset + seg_phase;
        usize::from(x - ((x as i64) as f64) < self.duty)
    }
}

impl Phases {
    fn new(run: &RunState<'_>, traced: bool) -> Self {
        let (entities, spec, groups) = (&run.entities, run.inputs.spec, run.inputs.groups);
        let comm_lat: Vec<_> = groups.iter().map(|g| {
            let b = g.behavior;
            let cf_lat = |hop: f64| b.comm_factor * (hop * spec.interconnect_latency);
            (b.comm_factor > 0.0).then(|| (cf_lat(b.intra_socket_comm), cf_lat(1.0)))
        }).collect();
        // The full-weight bound needs finite, non-negative products and
        // non-negative queueing and interference terms. `SimMachine` checks
        // each `Behavior` but not its `MachineSpec`, and `run_multi` neither.
        let sound = |p: f64| p.is_finite() && p >= 0.0;
        let bounded = comm_lat.iter().flatten().all(|&(intra, cross)| sound(intra) && sound(cross))
            && groups.iter().all(|g| g.behavior.seq_fraction >= 0.0)
            && spec.smt_burst_collision >= 0.0;
        let burst = |(i, e): (usize, &Entity)| Burst::new(&e.behavior.burst, run.inputs.seed, i);
        Self {
            traced,
            bursts: entities.iter().enumerate().map(burst).collect(),
            comm_lat,
            bounded,
            base_caps: run.table.resources().iter().map(|r| r.capacity).collect(),
            ..Self::default()
        }
    }

    /// Burst phase multipliers and phase bits for this segment, shared by
    /// the memo key and the demand values: `burst.multiplier(burst_draw(
    /// seed, i, segment))` from the run's [`Burst`] table, so the draw is
    /// one add, a truncation, one compare and two indexed loads.
    fn draw_multipliers(&mut self, run: &RunState<'_>) {
        let seg_phase = run.segment as f64 * PHI_CONJUGATE;
        self.multipliers.clear();
        self.high.clear();
        for &i in &run.runnable {
            let burst = &self.bursts[i];
            let phase = burst.phase(seg_phase);
            self.multipliers.push(burst.multipliers[phase]);
            self.high.push(burst.high[phase]);
        }
    }

    /// Builds this segment's memo key and returns its fingerprint. The key
    /// is a bijection of the middle's inputs, kept tight because it is
    /// built and fingerprinted on every segment: the leading count word
    /// implies the runnable set outright when every entity is runnable
    /// (indices are only spelled out for partial sets), the multipliers
    /// collapse to packed phase bits, and the warm start follows.
    fn memo_key(&mut self, run: &RunState<'_>) -> (u64, u64) {
        let (runnable, key) = (&run.runnable, &mut self.key);
        key.clear();
        key.push(runnable.len() as u64);
        if runnable.len() < run.entities.len() {
            key.extend(runnable.iter().map(|&i| i as u64));
        }
        for bits in self.high.chunks(64) {
            key.push(bits.iter().fold(0, |word, &high| (word << 1) | u64::from(high)));
        }
        key.extend(runnable.iter().map(|&i| run.prev_rates[i].to_bits()));
        seg_fingerprint(key)
    }

    /// The whole middle, from the multipliers already drawn.
    fn compute(&mut self, run: &RunState<'_>) -> Middle {
        if self.layout.runnable != run.runnable {
            self.compile(run);
        }
        self.values(run);
        self.relax(run);
        self.output(run)
    }

    /// Compiles the [`Layout`] of the runnable set: the DVFS point, cache
    /// spill, capacities, the SMT and communication layouts, and the
    /// demand structure with both phase values of each entry.
    fn compile(&mut self, run: &RunState<'_>) {
        let (inputs, table) = (run.inputs, &run.table);
        let (spec, entities, runnable) = (inputs.spec, &run.entities, &run.runnable);
        let l = &mut self.layout;
        self.layouts += 1;
        l.runnable.clone_from(runnable);
        // DVFS point from the cores that are actually busy.
        let mut occupancy = vec![0u32; spec.total_cores()];
        for &i in runnable {
            occupancy[entities[i].core.0] += 1;
        }
        let active_cores: Vec<usize> = occupancy
            .chunks(spec.cores_per_socket)
            .map(|cores| cores.iter().filter(|&&occ| occ > 0).count())
            .collect();
        l.dvfs.compute_into(spec, &active_cores, inputs.turbo, inputs.fill_background);

        // Cache spill per socket from resident working sets, with the
        // non-adaptive thrash amplification folded in.
        let (mut socket_ws, mut residents) = (vec![0.0; spec.sockets], vec![0usize; spec.sockets]);
        for &i in runnable {
            socket_ws[entities[i].socket.0] += entities[i].behavior.working_set_mib;
            residents[entities[i].socket.0] += 1;
        }
        l.spill_frac_socket.clear();
        for (&ws, &residents) in socket_ws.iter().zip(&residents) {
            let spill = spill_fraction(ws, spec.l3_mib, spec.adaptive_llc);
            let thrash = if spec.adaptive_llc {
                1.0
            } else {
                1.0 + 0.35 * residents.saturating_sub(1) as f64 / spec.cores_per_socket as f64
            };
            l.spill_frac_socket.push(spill * thrash);
        }

        // SMT siblings by core, each list in ascending runnable order, so
        // the per-core pair walks of `values` add each thread's terms in
        // the spec's sequence.
        l.smt_members.clear();
        if spec.smt_burst_collision > 0.0 {
            let mut members = vec![Vec::new(); spec.total_cores()];
            for (k, &i) in runnable.iter().enumerate() {
                members[entities[i].core.0].push(k);
            }
            l.smt_members.extend(members.into_iter().filter(|m| m.len() >= 2));
        }

        // Capacities: the nominal table, then DVFS/SMT scaling of occupied
        // cores only. An idle core's pools carry no demand, so leaving them
        // nominal cannot move the solve. Locks have capacity 1.0.
        l.capacities.clone_from(&self.base_caps);
        l.capacities.resize(table.len() + run.groups.len(), 1.0);
        for (c, &occ) in occupancy.iter().enumerate() {
            if occ == 0 {
                continue;
            }
            let core = CoreId(c);
            let scale = l.dvfs.scale_for_core(spec, core);
            let smt = if occ >= 2 { spec.smt_frontend_factor } else { 1.0 };
            let pools = [(table.core_issue(core), smt), (table.l1(core), 1.0), (table.l2(core), 1.0)];
            for (id, factor) in pools {
                l.capacities[id.0] = self.base_caps[id.0] * scale * factor;
            }
        }

        let (entries, phase_values) = self.entries(run);
        let l = &mut self.layout;
        l.demands = equilibrium::Demands::compile(runnable.len(), &entries);
        l.phase_values = l.demands.in_slot_order(&phase_values);
        l.pool_caps = l.demands.pools().iter().map(|&r| l.capacities[r]).collect();
        l.comm = CommLayout::new(run, &self.comm_lat);
        self.comm.clear();
        self.comm.resize(runnable.len(), 0.0);
        // Every weight `(rate / scale).min(1.0)` at its ceiling.
        self.round_rates = vec![f64::INFINITY; runnable.len()];
        self.communication(run);
        self.layout.comm_bound.clone_from(&self.comm);
    }

    /// The demand entries, `(runnable, pool)` in the spec's push order, and
    /// their values at the low and the high multiplier. An entry is kept
    /// when either value is positive; a value that is not becomes 0.0,
    /// which the spec leaves out of its bundle and the solver adds as +0.0.
    fn entries(&self, run: &RunState<'_>) -> (Vec<(usize, usize)>, Vec<[f64; 2]>) {
        let (table, entities, spill) = (&run.table, &run.entities, &self.layout.spill_frac_socket);
        let (mut entries, mut phase_values) = (Vec::new(), Vec::new());
        for (k, &i) in run.runnable.iter().enumerate() {
            let (e, [m_lo, m_hi]) = (&entities[i], self.bursts[i].multipliers);
            let d = e.behavior.demand;
            let mut push = |pool: usize, (high, low): (f64, f64)| {
                if high > 0.0 || low > 0.0 {
                    entries.push((k, pool));
                    let positive = |v: f64| if v > 0.0 { v } else { 0.0 };
                    phase_values.push([positive(low), positive(high)]);
                }
            };
            let scaled = |per_unit: f64| (per_unit * m_hi, per_unit * m_lo);
            push(table.core_issue(e.core).0, scaled(d.instr));
            push(table.l1(e.core).0, scaled(d.l1));
            push(table.l2(e.core).0, scaled(d.l2));
            if d.l3 > 0.0 {
                push(table.l3_link(e.core).0, scaled(d.l3));
                push(table.l3_aggregate(e.socket).0, scaled(d.l3));
            }
            let dram_total = scaled(d.dram + d.l3 * spill[e.socket.0]);
            for (node, &frac) in e.dram_split.iter().enumerate().filter(|(_, &f)| f > 0.0) {
                let share = |total: f64| if total > 0.0 { total * frac } else { 0.0 };
                let amt = (share(dram_total.0), share(dram_total.1));
                push(table.dram(SocketId(node)).0, amt);
                if let Some(link) = table.interconnect(e.socket, SocketId(node)) {
                    push(link.0, amt);
                }
            }
            if e.is_worker() && e.behavior.seq_fraction > 0.0 {
                push(table.len() + e.group, (e.behavior.seq_fraction, e.behavior.seq_fraction));
            }
        }
        (entries, phase_values)
    }

    /// This segment's demand values and SMT interference. Each entry takes
    /// its runnable's high- or low-phase value, and each pool's slope is
    /// summed left to right as the values are written. A thread pays
    /// `smt_burst_collision * (m_j - 1)` per work unit for every SMT
    /// sibling j in its high-demand phase (the ground truth behind the
    /// paper's b, §2.3), summed over its core's members in ascending
    /// runnable order as the spec sums it.
    fn values(&mut self, run: &RunState<'_>) {
        let l = &mut self.layout;
        l.demands.set_values(&l.phase_values, &self.high);
        self.interference.clear();
        self.interference.resize(run.runnable.len(), 0.0);
        let collision = run.inputs.spec.smt_burst_collision;
        for members in &l.smt_members {
            for &k in members {
                for &k2 in members.iter().filter(|&&k2| k2 != k) {
                    self.interference[k] += (self.multipliers[k2] - 1.0).max(0.0) * collision;
                }
            }
        }
    }

    /// Each runnable worker's communication term for this round, from
    /// `round_rates`: the spec's `comm += comm_factor · (hop · latency) ·
    /// weight` over same-group peers in ascending runnable order, where
    /// the weight divides the peer's rate by the observer's socket scale.
    /// Per (group, socket), each member's term for that socket's observers
    /// is computed once, and [`block_sums`] sums the observers [`LANES`]
    /// at a time, so each sum is the spec's, bit for bit.
    fn communication(&mut self, run: &RunState<'_>) {
        let (sockets, l) = (run.inputs.spec.sockets, &self.layout);
        for (g, members) in l.comm.members.iter().enumerate() {
            let Some((intra, cross)) = self.comm_lat[g] else { continue };
            let runs = l.comm.start[g * sockets..=(g + 1) * sockets].windows(2);
            for (s, slots) in runs.enumerate().filter(|(_, slots)| slots[0] < slots[1]) {
                let (first, end) = (slots[0], slots[1]);
                let scale = l.dvfs.socket_scale[s].max(1e-9);
                self.terms.clear();
                self.terms.extend(members.iter().map(|&(k2, at)| {
                    [cross, intra][usize::from(at == s)] * (self.round_rates[k2] / scale).min(1.0)
                }));
                for block in (first..end).step_by(LANES) {
                    let own = &l.comm.position[block..end.min(block + LANES)];
                    for (&at, sum) in own.iter().zip(block_sums(&self.terms, own)) {
                        self.comm[members[at].0] = sum;
                    }
                }
            }
        }
    }

    /// The relaxation rounds, first on the full-weight bound when the
    /// first fill round's step freezes every entity: if every cap clears
    /// the step, every exact cap does, and so do the rates (DESIGN §16).
    fn relax(&mut self, run: &RunState<'_>) {
        let l = &self.layout;
        let (step, freezes_all) = self.solver.first_step(&l.demands, &l.pool_caps);
        if self.bounded && freezes_all && self.rounds(run, step, true) {
            self.saturated += 1;
        } else {
            self.rounds(run, step, false);
        }
    }

    /// The rounds from the warm start: lock queueing and communication
    /// latency feed back into each thread's rate cap, and each round
    /// re-solves the equilibrium, `step` its first pool term. Round 0 fills
    /// from the slopes `values` summed; later rounds rewrite only the rate
    /// caps, so the solver may skip them. A `bounded` round takes the
    /// full-weight bound and, if every cap is positive and at least `step`,
    /// the step as its rates; false if one is not.
    fn rounds(&mut self, run: &RunState<'_>, step: f64, bounded: bool) -> bool {
        let (spec, entities, runnable) = (run.inputs.spec, &run.entities, &run.runnable);
        self.round_rates.clear();
        self.round_rates.extend(runnable.iter().map(|&i| run.prev_rates[i]));
        self.max_rates.resize(runnable.len(), 0.0);
        for round in 0..RELAXATION_ROUNDS {
            self.queue_delay.clear();
            self.queue_delay.resize(run.groups.len(), 0.0);
            for (k, &i) in runnable.iter().enumerate() {
                let e = &entities[i];
                if e.is_worker() && e.behavior.seq_fraction > 0.0 {
                    self.queue_delay[e.group] += self.round_rates[k] * e.behavior.seq_fraction;
                }
            }
            for delay in &mut self.queue_delay {
                let rho = delay.min(MAX_LOCK_RHO);
                *delay = rho / (1.0 - rho);
            }

            if !bounded {
                self.communication(run);
            }
            let comm = if bounded { &self.layout.comm_bound } else { &self.comm };
            for (k, &i) in runnable.iter().enumerate() {
                let e = &entities[i];
                let scale = self.layout.dvfs.socket_scale[e.socket.0]; // = scale_for_core(e.core)
                let max_rate = if e.is_worker() {
                    let queue = e.behavior.seq_fraction * self.queue_delay[e.group];
                    scale / (1.0 + queue + comm[k] + self.interference[k])
                } else {
                    scale / (1.0 + self.interference[k])
                };
                let instr = e.behavior.demand.instr * self.multipliers[k];
                self.max_rates[k] = if instr > 0.0 {
                    max_rate.min(spec.single_thread_ilp * spec.core_ipc_rate * scale / instr)
                } else {
                    max_rate
                };
                let clears = self.max_rates[k] > 0.0 && self.max_rates[k] >= step;
                if bounded && !clears {
                    return false;
                }
            }
            if bounded {
                self.round_rates.fill(step);
                continue;
            }
            let (demands, caps) = (&self.layout.demands, &self.layout.pool_caps);
            let rates = if round == 0 {
                self.solver.solve(demands, &self.max_rates, caps, Some(step))
            } else {
                self.solver.solve_same_demands(demands, &self.max_rates, caps, Some(step))
            };
            self.round_rates.clear();
            self.round_rates.extend_from_slice(rates);
        }
        true
    }

    /// The middle's outputs, copied out of the reused buffers. Only a
    /// traced run reads the hottest resource, so only a traced run pays
    /// for the last round's pool loads.
    fn output(&self, run: &RunState<'_>) -> Middle {
        let mut group_rate = vec![0.0_f64; run.groups.len()];
        for (k, &i) in run.runnable.iter().enumerate() {
            if run.entities[i].is_worker() {
                group_rate[run.entities[i].group] += self.round_rates[k];
            }
        }
        let l = &self.layout;
        Middle {
            rates: self.round_rates.clone(),
            group_rate,
            hottest: if self.traced {
                let loads = l.demands.loads(&self.round_rates, l.capacities.len());
                hottest(&run.table, &loads, &l.capacities)
            } else {
                None
            },
            spill_frac_socket: l.spill_frac_socket.clone(),
        }
    }
}

/// Observers [`block_sums`] sums at once: eight sums, four SSE2 registers.
const LANES: usize = 8;

/// `SELF_MASKS[lane]` is 1.0 in every lane but `lane`, which holds 0.0.
const SELF_MASKS: [[f64; LANES]; LANES] = {
    let (mut masks, mut lane) = ([[1.0; LANES]; LANES], 0);
    while lane < LANES {
        masks[lane][lane] = 0.0;
        lane += 1;
    }
    masks
};

/// The communication sums of up to [`LANES`] observers whose own positions
/// in `terms` are `own`, ascending. Every lane adds every term in order
/// from +0.0, its own term times its [`SELF_MASKS`] 0.0: a finite term
/// times 0.0 is ±0.0, which leaves a sum of finite terms started at +0.0
/// (never −0.0) unchanged, so each sum has the bits of one that skips its
/// own term, and no term takes a branch.
fn block_sums(terms: &[f64], own: &[usize]) -> [f64; LANES] {
    let add = |sums: &mut [f64; LANES], terms: &[f64]| {
        for &t in terms {
            sums.iter_mut().for_each(|sum| *sum += t);
        }
    };
    let (mut sums, mut next) = ([0.0; LANES], 0);
    for (mask, &at) in SELF_MASKS.iter().zip(own) {
        add(&mut sums, &terms[next..at]);
        sums.iter_mut().zip(mask).for_each(|(sum, m)| *sum += terms[at] * m);
        next = at + 1;
    }
    add(&mut sums, &terms[next..]);
    sums
}

/// The most utilized *hardware* resource of a solve (locks excluded), as
/// the trace reports it.
fn hottest(table: &ResourceTable, loads: &[f64], caps: &[f64]) -> Option<(ResourceKind, f64)> {
    loads
        .iter()
        .take(table.len())
        .enumerate()
        .map(|(r, &load)| (r, load / caps[r].max(1e-12)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .filter(|&(_, util)| util > 0.0)
        .map(|(r, util)| (table.get(ResourceId(r)).kind, util.min(1.0)))
}

fn run_multi_impl(
    inputs: &MultiRunInputs<'_>,
    config: &EngineConfig,
    mut trace: Option<&mut RunTrace>,
) -> Result<(Vec<RunResult>, SimStats), SimError> {
    let mut run = RunState::new(inputs, config)?;
    let mut middles = Middles::new(&run, trace.is_some());
    while run.next_segment() {
        let seg = middles.middle(&run);
        if !run.advance(seg, trace.as_deref_mut()) {
            break;
        }
    }
    let stats = middles.stats(run.segment);

    // Aggregate telemetry once per run, outside the segment loop, so the
    // hot path carries no per-segment instrumentation.
    if pandia_obs::enabled() {
        pandia_obs::count("sim.segments", stats.segments);
        pandia_obs::count("sim.segments_coalesced", stats.segments_coalesced);
        pandia_obs::count("sim.layouts", stats.layouts);
        pandia_obs::count("sim.solves", stats.solves);
        pandia_obs::count("sim.solves_skipped", stats.solves_skipped);
        pandia_obs::count("sim.solves_batched", stats.solves_batched);
        pandia_obs::count("sim.saturated", stats.saturated);
        pandia_obs::observe("sim.segments_per_run", run.segment as f64);
        pandia_obs::observe("sim.entities_per_run", run.entities.len() as f64);
    }
    Ok((run.results(), stats))
}

/// Zeroes counter channels the fault plan drops for this run, returning
/// how many channels were lost. Channel indices are part of the
/// deterministic schedule (see [`crate::fault::DROPOUT_CHANNELS`]).
fn apply_counter_dropout(plan: &FaultPlan, seed: u64, hash: u64, counters: &mut Counters) -> u64 {
    let (mut dropped, channels) = (0, 0..crate::fault::DROPOUT_CHANNELS as u64);
    for channel in channels.filter(|&c| plan.drops_channel(seed, hash, c)) {
        match channel {
            0 => counters.instructions = 0.0,
            1 => counters.l1_bytes = 0.0,
            2 => counters.l2_bytes = 0.0,
            3 => counters.l3_bytes = 0.0,
            4 => counters.dram_bytes.iter_mut().for_each(|b| *b = 0.0),
            _ => counters.interconnect_bytes = 0.0,
        }
        dropped += 1;
    }
    dropped
}

// The dropout gates above must cover exactly the advertised channels.
const _: () = assert!(crate::fault::DROPOUT_CHANNELS == 6);

/// Convenience: the context a stress kernel would use to saturate a
/// resource "near" a given core (same core, next SMT slot when available).
pub fn sibling_ctx(spec: &MachineSpec, ctx: CtxId) -> Option<CtxId> {
    if spec.threads_per_core < 2 {
        return None;
    }
    let slot = ctx.0 % spec.threads_per_core;
    if slot + 1 < spec.threads_per_core {
        Some(CtxId(ctx.0 + 1))
    } else {
        Some(CtxId(ctx.0 - 1))
    }
}

#[cfg(test)]
mod spec {
    //! The engine's specification: a reference segment middle written as
    //! plain per-entity loops over `Entity`/`Behavior` fields, with fresh
    //! buffers every segment and a from-scratch [`equilibrium::solve`] in
    //! every relaxation round — no hoisted constants, no memo, no solver
    //! state.
    //! It shares only the unoptimized phases with production ([`RunState`]:
    //! construction, per-segment bookkeeping, result assembly), and the
    //! `oracle` tests diff production against it bit for bit.

    use super::*;

    /// Runs `inputs` through the spec: the results, the trace, and the
    /// number of segments.
    pub(super) fn run_multi(
        inputs: &MultiRunInputs<'_>,
        config: &EngineConfig,
    ) -> Result<(Vec<RunResult>, RunTrace, u64), SimError> {
        let mut run = RunState::new(inputs, config)?;
        let mut trace = RunTrace::default();
        while run.next_segment() {
            let seg = middle(&run);
            if !run.advance(&seg, Some(&mut trace)) {
                break;
            }
        }
        Ok((run.results(), trace, run.segment as u64))
    }

    /// One segment middle, computed from scratch.
    fn middle(run: &RunState<'_>) -> Middle {
        let (inputs, entities, runnable, table) = (run.inputs, &run.entities, &run.runnable, &run.table);
        let (spec, n_groups, lock_base) = (inputs.spec, run.groups.len(), table.len());
        let multipliers: Vec<f64> = runnable
            .iter()
            .map(|&i| {
                entities[i].behavior.burst.multiplier(burst_draw(inputs.seed, i, run.segment))
            })
            .collect();

        // DVFS operating point from the cores that are busy.
        let mut occupancy = vec![0u32; spec.total_cores()];
        for &i in runnable {
            occupancy[entities[i].core.0] += 1;
        }
        let mut active_cores = vec![0usize; spec.sockets];
        for (c, &occ) in occupancy.iter().enumerate() {
            if occ > 0 {
                active_cores[spec.socket_of_core(CoreId(c)).0] += 1;
            }
        }
        let dvfs = DvfsState::compute(spec, &active_cores, inputs.turbo, inputs.fill_background);

        // LLC spill per socket from the resident working sets. Without
        // adaptive insertion, spilled traffic also thrashes with socket
        // occupancy (the paper's §2.2/§6.2 contrast).
        let mut socket_ws = vec![0.0_f64; spec.sockets];
        let mut residents = vec![0usize; spec.sockets];
        for &i in runnable {
            socket_ws[entities[i].socket.0] += entities[i].behavior.working_set_mib;
            residents[entities[i].socket.0] += 1;
        }
        let spill_frac_socket: Vec<f64> = (0..spec.sockets)
            .map(|s| {
                let crowd = residents[s].saturating_sub(1) as f64;
                let thrash = if spec.adaptive_llc {
                    1.0
                } else {
                    1.0 + 0.35 * crowd / spec.cores_per_socket as f64
                };
                spill_fraction(socket_ws[s], spec.l3_mib, spec.adaptive_llc) * thrash
            })
            .collect();

        // Latency interference: every SMT sibling in its high phase.
        let mut interference = vec![0.0_f64; runnable.len()];
        for (k, &i) in runnable.iter().enumerate() {
            for (k2, &j) in runnable.iter().enumerate() {
                if k2 != k && entities[j].core == entities[i].core {
                    interference[k] += (multipliers[k2] - 1.0).max(0.0) * spec.smt_burst_collision;
                }
            }
        }

        // Capacities: core-clocked pools at their socket's frequency, the
        // issue port shared by SMT siblings, then one lock per group.
        let mut capacities: Vec<f64> = table.resources().iter().map(|r| r.capacity).collect();
        for (c, &occ) in occupancy.iter().enumerate() {
            let (core, scale) = (CoreId(c), dvfs.scale_for_core(spec, CoreId(c)));
            let smt = if occ >= 2 { spec.smt_frontend_factor } else { 1.0 };
            for (id, factor) in
                [(table.core_issue(core), smt), (table.l1(core), 1.0), (table.l2(core), 1.0)]
            {
                capacities[id.0] = table.get(id).capacity * scale * factor;
            }
        }
        capacities.resize(lock_base + n_groups, 1.0);

        // Demand bundles: burst-scaled per-unit demands, spilled L3 traffic
        // added to DRAM and split across nodes (remote shares also cross
        // the interconnect), plus the group lock. Zero terms are left out.
        let mut demands = Vec::new();
        for (k, &i) in runnable.iter().enumerate() {
            let (e, m) = (&entities[i], multipliers[k]);
            let d = e.behavior.demand;
            let mut bundle = Vec::new();
            let mut push = |id: ResourceId, amt: f64| {
                if amt > 0.0 {
                    bundle.push((id.0, amt));
                }
            };
            push(table.core_issue(e.core), d.instr * m);
            push(table.l1(e.core), d.l1 * m);
            push(table.l2(e.core), d.l2 * m);
            push(table.l3_link(e.core), d.l3 * m);
            push(table.l3_aggregate(e.socket), d.l3 * m);
            let dram_total = (d.dram + d.l3 * spill_frac_socket[e.socket.0]) * m;
            for (node, &frac) in e.dram_split.iter().enumerate() {
                push(table.dram(SocketId(node)), dram_total * frac);
                if let Some(link) = table.interconnect(e.socket, SocketId(node)) {
                    push(link, dram_total * frac);
                }
            }
            if e.is_worker() {
                push(ResourceId(lock_base + e.group), e.behavior.seq_fraction);
            }
            demands.push(equilibrium::EntityDemand { demands: bundle, max_rate: 1.0 });
        }

        // Relaxation rounds: lock queueing and same-group communication
        // slow each thread's intrinsic rate, a single thread cannot exceed
        // its ILP share of the core, and the solve feeds the rates back.
        let mut rates: Vec<f64> = runnable.iter().map(|&i| run.prev_rates[i]).collect();
        let mut loads = Vec::new();
        for _ in 0..RELAXATION_ROUNDS {
            let mut rho = vec![0.0_f64; n_groups];
            for (k, &i) in runnable.iter().enumerate() {
                if entities[i].is_worker() {
                    rho[entities[i].group] += rates[k] * entities[i].behavior.seq_fraction;
                }
            }
            for (k, &i) in runnable.iter().enumerate() {
                let (e, scale) = (&entities[i], dvfs.scale_for_core(spec, entities[i].core));
                let (mut queue, mut comm) = (0.0, 0.0);
                if e.is_worker() {
                    let r = rho[e.group].min(MAX_LOCK_RHO);
                    queue = e.behavior.seq_fraction * (r / (1.0 - r));
                    comm = communication(run, &rates, scale, k);
                }
                let instr = e.behavior.demand.instr * multipliers[k];
                let mut max_rate = scale / (1.0 + queue + comm + interference[k]);
                if instr > 0.0 {
                    let ilp_cap = spec.single_thread_ilp * spec.core_ipc_rate * scale / instr;
                    max_rate = max_rate.min(ilp_cap);
                }
                demands[k].max_rate = max_rate;
            }
            let alloc = equilibrium::solve(&demands, &capacities);
            (rates, loads) = (alloc.rates, alloc.loads);
        }

        let mut group_rate = vec![0.0_f64; n_groups];
        for (k, &i) in runnable.iter().enumerate() {
            if entities[i].is_worker() {
                group_rate[entities[i].group] += rates[k];
            }
        }
        let hottest = hottest(table, &loads, &capacities);
        Middle { rates, group_rate, hottest, spill_frac_socket }
    }

    /// Worker `k`'s communication latency per work unit at `rates`, for
    /// an observer at DVFS `scale`: every same-group peer adds its
    /// hop-weighted latency times its rate relative to the observer's
    /// clock, in ascending runnable order.
    pub(super) fn communication(run: &RunState<'_>, rates: &[f64], scale: f64, k: usize) -> f64 {
        let (entities, runnable) = (&run.entities, &run.runnable);
        let e = &entities[runnable[k]];
        let mut comm = 0.0;
        for (k2, &j) in runnable.iter().enumerate() {
            let peer = &entities[j];
            if k2 != k && peer.is_worker() && peer.group == e.group {
                let hop = if peer.socket == e.socket { e.behavior.intra_socket_comm } else { 1.0 };
                let latency = hop * run.inputs.spec.interconnect_latency;
                let weight = (rates[k2] / scale.max(1e-9)).min(1.0);
                comm += e.behavior.comm_factor * latency * weight;
            }
        }
        comm
    }
}

#[cfg(test)]
mod oracle {
    //! Differential oracle: production against [`spec`] over seeded random
    //! configurations — machines × workloads × placements × stressors ×
    //! fault plans — on results, traces and errors, so any arithmetic
    //! reordering in a fast path fails with the seed that exposed it.

    use super::*;
    use crate::behavior::{BurstProfile, Scheduling};
    use pandia_topology::StressKind;

    /// Sequential SplitMix64 stream, so each sweep replays from one seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let out = rng::splitmix64(self.0);
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        }

        fn unit(&mut self) -> f64 {
            rng::unit_f64(self.next())
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_machine(rng: &mut Rng) -> MachineSpec {
        match rng.below(4) {
            0 => MachineSpec::x3_2(),
            1 => MachineSpec::x5_2(),
            2 => MachineSpec::x2_4(),
            _ => MachineSpec::toy(),
        }
    }

    fn random_behavior(rng: &mut Rng, i: usize) -> Behavior {
        let mut b =
            Behavior::compute(&format!("w{i}"), 10.0 + rng.unit() * 50.0, 0.5 + rng.unit() * 5.0);
        if rng.unit() < 0.5 {
            b.seq_fraction = rng.unit() * 0.2;
        }
        if rng.unit() < 0.5 {
            b.comm_factor = rng.unit() * 0.03;
        }
        if rng.unit() < 0.5 {
            b.burst = BurstProfile::bursty(0.2 + rng.unit() * 0.6, 1.2 + rng.unit() * 1.5);
        }
        b.demand.l2 = rng.unit() * 3.0;
        b.demand.l3 = rng.unit() * 4.0;
        b.demand.dram = rng.unit() * 3.0;
        b.working_set_mib = rng.unit() * 80.0;
        match rng.below(5) {
            0 => b.data_placement = DataPlacement::Interleave,
            1 => b.data_placement = DataPlacement::ThreadLocal,
            2 => b.data_placement = DataPlacement::FirstTouch,
            _ => {}
        }
        if rng.unit() < 0.3 {
            b.scheduling = Scheduling::Partial { dynamic_fraction: rng.unit() };
        }
        b
    }

    fn random_placement(rng: &mut Rng, spec: &MachineSpec) -> Placement {
        let n = 1 + rng.below((spec.total_cores() * 2).clamp(1, 8));
        let attempt =
            if rng.unit() < 0.5 { Placement::spread(spec, n) } else { Placement::packed(spec, n) };
        attempt.or_else(|_| Placement::spread(spec, 1)).expect("one thread always places")
    }

    /// One random single-group run: machine, workload and placement.
    fn random_single(rng: &mut Rng, i: usize) -> (MachineSpec, Behavior, Placement) {
        let spec = random_machine(rng);
        let behavior = random_behavior(rng, i);
        let placement = random_placement(rng, &spec);
        (spec, behavior, placement)
    }

    fn inputs<'a>(
        spec: &'a MachineSpec,
        groups: &'a [GroupInput<'a>],
        seed: u64,
    ) -> MultiRunInputs<'a> {
        MultiRunInputs { spec, groups, stressors: &[], fill_background: true, turbo: true, seed }
    }

    /// A run whose groups all communicate, shaped to stress the
    /// communication layout.
    struct CommRun {
        spec: MachineSpec,
        behaviors: Vec<Behavior>,
        placements: Vec<Placement>,
        stressors: Vec<StressPin>,
    }

    impl CommRun {
        fn groups(&self) -> Vec<GroupInput<'_>> {
            let group = |(b, p)| GroupInput { behavior: b, placement: p, data_placement: None };
            self.behaviors.iter().zip(&self.placements).map(group).collect()
        }

        fn inputs<'a>(&'a self, groups: &'a [GroupInput<'a>], seed: u64) -> MultiRunInputs<'a> {
            MultiRunInputs { stressors: &self.stressors, ..inputs(&self.spec, groups, seed) }
        }
    }

    /// The communication layout's hard cases. `Placement::spread` and
    /// `packed` list socket 0's contexts first, so the first two runs
    /// alternate sockets in runnable order: 36 threads on x5-2, and two
    /// groups with different `comm_factor` and `intra_socket_comm` on
    /// x2-4's four sockets plus an SMT stressor. Then x5-2 packed with 72
    /// threads (SMT siblings adjacent in member order, 36 observers a
    /// socket: four full blocks of `LANES` and a partial one); one worker
    /// on x5-2's socket 0 amid eleven on socket 1 (a one-lane block whose
    /// own term is not the first); and a one-thread group, whose term is
    /// exactly 0.0, beside a pair on x3-2.
    fn comm_runs() -> [CommRun; 5] {
        let communicating = |name: &str, comm_factor: f64, intra_socket_comm: f64| {
            let mut b = Behavior::compute(name, 40.0, 3.0);
            b.burst = BurstProfile::bursty(0.4, 2.0);
            b.seq_fraction = 0.03;
            b.comm_factor = comm_factor;
            b.intra_socket_comm = intra_socket_comm;
            b.demand.dram = 1.0;
            b
        };
        // Thread t on socket (t + offset) mod sockets, one per core.
        let alternating = |spec: &MachineSpec, threads: usize, first_core: usize, offset: usize| {
            let ctx = |t: usize| {
                let socket = SocketId((t + offset) % spec.sockets);
                spec.ctx(socket, first_core + t / spec.sockets, 0)
            };
            Placement::new(spec, (0..threads).map(ctx).collect()).expect("the placement fits")
        };
        let on = |spec: &MachineSpec, ctxs: Vec<(usize, usize)>| {
            let ctxs = ctxs.into_iter().map(|(s, core)| spec.ctx(SocketId(s), core, 0)).collect();
            Placement::new(spec, ctxs).expect("the placement fits")
        };
        let (x5, x2, x3) = (MachineSpec::x5_2(), MachineSpec::x2_4(), MachineSpec::x3_2());
        let stressor = StressPin { kind: StressKind::Cpu, ctx: x2.ctx(SocketId(1), 0, 1) };
        let lone = (0..12).map(|t| if t == 5 { (0, 0) } else { (1, t) }).collect();
        [
            CommRun {
                behaviors: vec![communicating("alt", 0.01, 0.2)],
                placements: vec![alternating(&x5, 36, 0, 0)],
                stressors: Vec::new(),
                spec: x5.clone(),
            },
            CommRun {
                behaviors: vec![communicating("a", 0.01, 0.2), communicating("b", 0.025, 0.5)],
                placements: vec![alternating(&x2, 8, 0, 0), alternating(&x2, 8, 2, 1)],
                stressors: vec![stressor],
                spec: x2,
            },
            CommRun {
                behaviors: vec![communicating("wide", 0.01, 0.2)],
                placements: vec![Placement::packed(&x5, 72).expect("the placement fits")],
                stressors: Vec::new(),
                spec: x5.clone(),
            },
            CommRun {
                behaviors: vec![communicating("lone", 0.02, 0.3)],
                placements: vec![on(&x5, lone)],
                stressors: Vec::new(),
                spec: x5,
            },
            CommRun {
                behaviors: vec![communicating("solo", 0.02, 0.3), communicating("pair", 0.01, 0.2)],
                placements: vec![on(&x3, vec![(0, 0)]), on(&x3, vec![(1, 0), (0, 1)])],
                stressors: Vec::new(),
                spec: x3,
            },
        ]
    }

    /// Asserts production and the spec agree exactly: equal results and
    /// traces, or equal errors.
    fn assert_matches_spec(inputs: &MultiRunInputs<'_>, config: &EngineConfig, label: &str) {
        match (run_multi_traced(inputs, config), spec::run_multi(inputs, config)) {
            (Ok((results, trace)), Ok((spec_results, spec_trace, _))) => {
                assert_eq!(results, spec_results, "{label}: results diverged");
                assert_eq!(trace, spec_trace, "{label}: traces diverged");
            }
            (Err(err), Err(spec_err)) => assert_eq!(err, spec_err, "{label}: errors diverged"),
            (prod, spec) => {
                panic!("{label}: one engine failed, the other did not: {prod:?} vs {spec:?}")
            }
        }
    }

    #[test]
    fn production_matches_spec_over_seeded_random_configs() {
        let mut rng = Rng(0xD1FF_0AC1E ^ 0x5EED);
        for case in 0..24u64 {
            let spec = random_machine(&mut rng);
            let n_groups = 1 + rng.below(2);
            let behaviors: Vec<Behavior> =
                (0..n_groups).map(|g| random_behavior(&mut rng, g)).collect();
            let placements: Vec<Placement> =
                (0..n_groups).map(|_| random_placement(&mut rng, &spec)).collect();
            let groups: Vec<GroupInput<'_>> = behaviors
                .iter()
                .zip(&placements)
                .map(|(b, p)| GroupInput { behavior: b, placement: p, data_placement: None })
                .collect();
            let stressors: Vec<StressPin> = if rng.unit() < 0.4 {
                let kind = if rng.unit() < 0.5 { StressKind::Cpu } else { StressKind::DramLocal };
                vec![StressPin { kind, ctx: CtxId(rng.below(spec.total_cores())) }]
            } else {
                Vec::new()
            };
            let inputs = MultiRunInputs {
                spec: &spec,
                groups: &groups,
                stressors: &stressors,
                fill_background: rng.unit() < 0.5,
                turbo: rng.unit() < 0.7,
                seed: 1000 + case,
            };
            assert_matches_spec(&inputs, &EngineConfig::default(), &format!("case {case}"));
        }
    }

    #[test]
    fn production_matches_spec_on_wide_and_smt_packed_runs() {
        // The random placements above draw at most 8 threads. These runs
        // have more than 64 runnable entities (the memo key's multiplier
        // bits span two words), fill every SMT context, or interleave a
        // group's sockets, and each one replays segments from the memo.
        let check = |inputs: &MultiRunInputs<'_>, label: &str| {
            assert_matches_spec(inputs, &EngineConfig::default(), label);
            let (_, stats) = run_multi_stats(inputs, &EngineConfig::default()).expect("run");
            assert!(stats.segments_coalesced > 0, "{label}: no replay ({stats:?})");
        };
        let mut b = Behavior::compute("wide", 40.0, 3.0);
        b.burst = BurstProfile::bursty(0.4, 2.0);
        b.seq_fraction = 0.03;
        b.comm_factor = 0.01;
        b.intra_socket_comm = 0.2;
        b.demand.dram = 1.0;
        // x5-2 packed with 72 threads is the third of `comm_runs`.
        let cases = [(MachineSpec::x2_4(), 80), (MachineSpec::x5_2(), 40)];
        for (case, (spec, threads)) in cases.into_iter().enumerate() {
            let p = Placement::packed(&spec, threads).expect("the placement fits the machine");
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let label = format!("{} with {threads} threads", spec.name);
            check(&inputs(&spec, &groups, 5001 + case as u64), &label);
        }
        for (case, run) in comm_runs().iter().enumerate() {
            let groups = run.groups();
            let label = format!("{} communication run {case}", run.spec.name);
            check(&run.inputs(&groups, 5003 + case as u64), &label);
        }
    }

    #[test]
    fn communication_sums_match_the_spec_bit_for_bit() {
        // A last-bit change in a thread's communication term is mostly
        // far below the rounding step of its rate cap, so the diffs above
        // see a reordered peer sum only by luck. This pins each runnable's
        // term to the spec's expression directly, at rates on both sides
        // of the socket scales (so some weights clip at 1.0).
        let mut rng = Rng(0xC0_FFEE);
        let mut widths = Vec::new();
        for (case, run) in comm_runs().iter().enumerate() {
            let groups = run.groups();
            let (inputs, config) = (run.inputs(&groups, 11 + case as u64), EngineConfig::default());
            let mut state = RunState::new(&inputs, &config).expect("fault-free run");
            assert!(state.next_segment(), "case {case}: nothing runnable");
            let mut phases = Phases::new(&state, false);
            phases.compile(&state);
            widths.extend(phases.layout.comm.start.windows(2).map(|w| w[1] - w[0]));
            for draw in 0..3 {
                let rates = state.runnable.iter().map(|_| 0.2 + rng.unit() * 1.3);
                phases.round_rates = rates.collect();
                phases.communication(&state);
                for (k, &i) in state.runnable.iter().enumerate() {
                    let e = &state.entities[i];
                    if !e.is_worker() {
                        assert_eq!(phases.comm[k], 0.0, "case {case}: stressor {k}");
                        continue;
                    }
                    let scale = phases.layout.dvfs.scale_for_core(&run.spec, e.core);
                    let want = spec::communication(&state, &phases.round_rates, scale, k);
                    let got = phases.comm[k];
                    assert_eq!(got.to_bits(), want.to_bits(), "case {case}, draw {draw}, {k}");
                    let peers = state.runnable.iter().map(|&j| &state.entities[j]);
                    if peers.filter(|p| p.is_worker() && p.group == e.group).count() > 1 {
                        assert!(want > 0.0, "case {case}: worker {k} has no peers");
                    } else {
                        assert_eq!(got.to_bits(), 0.0_f64.to_bits(), "case {case}: lone {k}");
                    }
                }
            }
        }
        // Four full blocks and a partial one, and a one-lane block.
        assert!(widths.contains(&36) && widths.contains(&1), "observer runs: {widths:?}");
    }

    #[test]
    fn production_matches_spec_when_the_low_phase_demands_nothing() {
        // `bursty(0.5, 2.0)` has a low multiplier of exactly 0.0, so in its
        // low phase every entry but the lock is 0.0: the spec leaves them
        // out of the bundle, the compiled structure keeps them as +0.0,
        // and a core whose threads are all low keeps pools of slope 0.0.
        let mut b = Behavior::compute("off-phase", 30.0, 4.0);
        b.burst = BurstProfile::bursty(0.5, 2.0);
        assert_eq!(b.burst.low_multiplier().to_bits(), 0.0_f64.to_bits());
        (b.seq_fraction, b.comm_factor, b.working_set_mib) = (0.03, 0.01, 30.0);
        (b.demand.l2, b.demand.l3, b.demand.dram) = (1.0, 2.0, 1.5);
        for (case, spec) in [MachineSpec::x3_2(), MachineSpec::x5_2()].into_iter().enumerate() {
            let p = Placement::packed(&spec, 6).expect("the placement fits");
            let ctx = spec.ctx(SocketId(1), 0, 0);
            let stressors = [StressPin { kind: StressKind::DramLocal, ctx }];
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let seed = 8000 + case as u64;
            let inputs = MultiRunInputs { stressors: &stressors, ..inputs(&spec, &groups, seed) };
            let label = format!("{} off-phase", spec.name);
            assert_matches_spec(&inputs, &EngineConfig::default(), &label);
        }
    }

    #[test]
    fn production_matches_spec_when_the_runnable_set_changes() {
        // Two groups on x3-2's two sockets, one with a quarter of the
        // other's work: when it finishes, the runnable set shrinks and the
        // layout is compiled again; computed middles of an unchanged set
        // reuse it.
        let spec = MachineSpec::x3_2();
        let mut short = Behavior::compute("short", 10.0, 2.0);
        (short.burst, short.comm_factor) = (BurstProfile::bursty(0.4, 2.0), 0.01);
        let mut long = Behavior::compute("long", 40.0, 2.0);
        (long.seq_fraction, long.demand.dram) = (0.02, 1.0);
        let on = |socket: usize| {
            let ctxs = (0..4).map(|core| spec.ctx(SocketId(socket), core, 0)).collect();
            Placement::new(&spec, ctxs).expect("the placement fits")
        };
        let (p0, p1) = (on(0), on(1));
        let groups = [
            GroupInput { behavior: &short, placement: &p0, data_placement: None },
            GroupInput { behavior: &long, placement: &p1, data_placement: None },
        ];
        let inputs = inputs(&spec, &groups, 8100);
        assert_matches_spec(&inputs, &EngineConfig::default(), "short and long groups");
        let (_, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        assert!(stats.layouts >= 2, "the shrinking set must recompile: {stats:?}");
        assert!(stats.layouts < stats.solves, "a layout must serve later middles: {stats:?}");
    }

    #[test]
    fn production_matches_spec_with_armed_fault_plans() {
        // Armed plans turn the memo off and gate the run's results:
        // transient-fault errors, noise regimes and counter dropouts must
        // come out of both engines identically.
        let mut rng = Rng(0xFA_017);
        for case in 0..12u64 {
            let (spec, b, p) = random_single(&mut rng, case as usize);
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let faults = FaultPlan::with_intensity(0.2 + rng.unit() * 0.7);
            let config = EngineConfig { faults, ..EngineConfig::default() };
            let label = format!("fault case {case}");
            assert_matches_spec(&inputs(&spec, &groups, 7000 + case), &config, &label);
        }
    }

    #[test]
    fn production_matches_spec_on_fault_boundary_plans() {
        // A zero-rate plan with extreme scale knobs injects nothing; an
        // armed plan must also disable the memo.
        let spec = MachineSpec::x3_2();
        let zero_plan = FaultPlan {
            transient_rate: 0.0,
            dropout_rate: 0.0,
            interference_rate: 0.0,
            interference_scale: 1e9,
            high_noise_rate: 0.0,
            high_noise_factor: 1e9,
        };
        for seq_fraction in [0.05, 0.03] {
            let mut b = Behavior::compute("boundary", 30.0, 4.0);
            b.burst = BurstProfile::bursty(0.4, 2.0);
            b.seq_fraction = seq_fraction;
            let p = Placement::packed(&spec, 4).expect("placement");
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let inputs = inputs(&spec, &groups, 99);
            for (name, faults) in [
                ("none", FaultPlan::none()),
                ("zero-rate", zero_plan.clone()),
                ("armed", FaultPlan::with_intensity(0.5)),
            ] {
                let armed = !faults.is_none();
                let config = EngineConfig { faults, ..EngineConfig::default() };
                let label = format!("{name}, seq_fraction {seq_fraction}");
                assert_matches_spec(&inputs, &config, &label);
                if let (true, Ok((_, stats))) = (armed, run_multi_stats(&inputs, &config)) {
                    assert_eq!(stats.segments_coalesced, 0, "{label}: armed plan must disable the memo");
                }
            }
        }
    }

    #[test]
    fn solve_counters_reconcile_with_the_spec_segment_count() {
        // Every solver call lands in exactly one bucket — first round
        // (solves), skipped, or batched — and a replayed segment or one
        // answered by the saturated step stands for `RELAXATION_ROUNDS`
        // calls, so the buckets add up to `RELAXATION_ROUNDS` solves per
        // segment of the spec's schedule. Each computed middle either
        // solves round 0 exactly once or takes the saturated step, and
        // compiles a layout at most once.
        let mut rng = Rng(0x5EED_5041);
        let rounds = RELAXATION_ROUNDS as u64;
        for case in 0..10u64 {
            let (spec, b, p) = random_single(&mut rng, case as usize);
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let inputs = inputs(&spec, &groups, 3000 + case);
            let (_, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
            let (_, _, segments) = spec::run_multi(&inputs, &EngineConfig::default()).expect("run");
            assert_eq!(stats.segments, segments, "case {case}: segment schedules differ");
            let unsolved = rounds * (stats.segments_coalesced + stats.saturated);
            assert_eq!(
                stats.solves + stats.solves_skipped + stats.solves_batched + unsolved,
                rounds * segments,
                "case {case}: solve counters must reconcile ({stats:?})"
            );
            assert_eq!(
                stats.solves + stats.saturated,
                stats.segments - stats.segments_coalesced,
                "case {case}: one first-round solve or step per computed middle ({stats:?})"
            );
            assert!(
                (1..=stats.solves + stats.saturated).contains(&stats.layouts),
                "case {case}: at most one layout per computed middle ({stats:?})"
            );
        }
    }

    /// An x5-2 run whose DRAM traffic is interleaved over both sockets, so
    /// the first fill round's step saturates the interconnect link under
    /// every thread; `comm_factor` sets its communication.
    fn interleaved_run(comm_factor: f64) -> (MachineSpec, Behavior, Placement) {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("interleaved", 40.0, 1.0);
        (b.seq_fraction, b.comm_factor, b.intra_socket_comm) = (0.02, comm_factor, 0.2);
        (b.demand.dram, b.data_placement) = (6.0, DataPlacement::Interleave);
        b.burst = BurstProfile::bursty(0.6, 1.3);
        let p = Placement::spread(&spec, 24).expect("the placement fits");
        (spec, b, p)
    }

    /// Diffs a run against the spec and returns its engine counters, which
    /// must count one round-0 solve or one saturated step per computed middle.
    fn checked_stats(inputs: &MultiRunInputs<'_>, label: &str) -> SimStats {
        assert_matches_spec(inputs, &EngineConfig::default(), label);
        let (_, stats) = run_multi_stats(inputs, &EngineConfig::default()).expect("run");
        let computed = stats.segments - stats.segments_coalesced;
        assert_eq!(stats.solves + stats.saturated, computed, "{label}: {stats:?}");
        stats
    }

    /// Whether the first fill round's step freezes every entity in the
    /// run's first segment middle, whatever the rate caps.
    fn first_step_freezes_all(inputs: &MultiRunInputs<'_>) -> bool {
        let config = EngineConfig::default();
        let mut state = RunState::new(inputs, &config).expect("fault-free run");
        assert!(state.next_segment(), "nothing runnable");
        let mut phases = Phases::new(&state, false);
        phases.draw_multipliers(&state);
        phases.compile(&state);
        phases.values(&state);
        phases.solver.first_step(&phases.layout.demands, &phases.layout.pool_caps).1
    }

    #[test]
    fn production_matches_spec_when_the_saturated_step_answers_or_declines() {
        // A light communication factor leaves every bounded cap above the
        // step, so computed middles take it; a heavy one sinks the
        // full-weight bound below the step, so every middle declines and
        // solves, although the step still freezes every thread.
        for (comm_factor, seed) in [(0.01, 9100), (0.5, 9101)] {
            let (spec, b, p) = interleaved_run(comm_factor);
            let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
            let inputs = inputs(&spec, &groups, seed);
            let label = format!("interleaved x5-2, comm_factor {comm_factor}");
            let stats = checked_stats(&inputs, &label);
            assert!(first_step_freezes_all(&inputs), "{label}: the link must freeze every thread");
            if comm_factor < 0.1 {
                let answered = stats.saturated > stats.solves;
                assert!(answered, "{label}: the step must answer ({stats:?})");
            } else {
                assert_eq!(stats.saturated, 0, "{label}: the bound must decline ({stats:?})");
            }
        }
    }

    #[test]
    fn production_matches_spec_with_a_cpu_stressor_beside_every_thread() {
        // Profiling run 4's shape: eight threads on one x5-2 socket, one per
        // core, each with a CPU stressor on its SMT sibling. The threads'
        // DRAM node saturates first and no stressor uses it, so no step
        // freezes every entity.
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("run4", 40.0, 1.0);
        (b.seq_fraction, b.comm_factor, b.demand.dram) = (0.02, 0.01, 30.0);
        let p = pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]]).instantiate(&spec);
        let p = p.expect("the placement fits");
        let sibling = |&ctx: &CtxId| sibling_ctx(&spec, ctx).expect("x5-2 has SMT");
        let stress = |ctx: &CtxId| StressPin { kind: StressKind::Cpu, ctx: sibling(ctx) };
        let stressors: Vec<StressPin> = p.contexts().iter().map(stress).collect();
        let groups = [GroupInput { behavior: &b, placement: &p, data_placement: None }];
        let inputs = MultiRunInputs { stressors: &stressors, ..inputs(&spec, &groups, 9200) };
        assert!(!first_step_freezes_all(&inputs), "a stressor must stay unfrozen");
        let stats = checked_stats(&inputs, "stressor beside every thread");
        assert_eq!(stats.saturated, 0, "no middle has a saturated step ({stats:?})");
    }

    #[test]
    fn production_matches_spec_on_unvalidated_communication_inputs() {
        // `engine::run_multi` validates neither the behavior nor the
        // machine. A negative `intra_socket_comm`, or a negative
        // `interconnect_latency`, makes a `comm_factor · latency` product
        // negative, so the full-weight bound bounds nothing: the run must
        // decline every step and still match the spec. The same run with
        // valid inputs takes the step.
        let (spec, b, p) = interleaved_run(0.01);
        let mut negative_hop = b.clone();
        negative_hop.intra_socket_comm = -0.5;
        let mut negative_latency = spec.clone();
        negative_latency.interconnect_latency = -1.0;
        for (label, spec, b) in [
            ("valid", &spec, &b),
            ("negative intra_socket_comm", &spec, &negative_hop),
            ("negative interconnect_latency", &negative_latency, &b),
        ] {
            let groups = [GroupInput { behavior: b, placement: &p, data_placement: None }];
            let stats = checked_stats(&inputs(spec, &groups, 9300), label);
            assert_eq!(stats.saturated > 0, label == "valid", "{label}: {stats:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{Placement, StressKind};

    /// The segment loop draws burst phases from a per-run [`Burst`] table;
    /// this pins the table's multiplier and phase bit to the reference
    /// `BurstProfile::multiplier(burst_draw(..))` bit for bit: the paper
    /// suite's profiles, a smooth one, one whose low multiplier is exactly
    /// 0.0, and one whose amplitude is clamped at `1/duty`, over the first
    /// segments and the last ones before `MAX_SEGMENTS`.
    #[test]
    fn hoisted_burst_constants_match_per_segment_draws() {
        use crate::behavior::BurstProfile;
        let suite = [
            (0.6, 1.3), (0.8, 1.2), (0.45, 1.7), (0.85, 1.1), (0.75, 1.25), (0.7, 1.3),
            (0.8, 1.15), (0.55, 1.5), (0.75, 1.2), (0.65, 1.3), (0.5, 1.6), (0.5, 1.55),
            (0.6, 1.4),
        ];
        let mut profiles: Vec<BurstProfile> =
            suite.iter().map(|&(duty, amplitude)| BurstProfile::bursty(duty, amplitude)).collect();
        profiles.extend([BurstProfile::SMOOTH, BurstProfile::bursty(0.5, 2.0)]);
        profiles.extend([BurstProfile::bursty(0.3, 2.5), BurstProfile::bursty(0.2, 10.0)]);
        assert_eq!(BurstProfile::bursty(0.5, 2.0).low_multiplier().to_bits(), 0.0_f64.to_bits());
        assert!(BurstProfile::bursty(0.2, 10.0).effective_amplitude() < 10.0);
        let segments = (0..64).chain(MAX_SEGMENTS - 64..=MAX_SEGMENTS);
        for profile in &profiles {
            let high_bits = profile.multiplier(0.0).to_bits();
            for seed in [1u64, 42, 977] {
                for entity in 0..5usize {
                    let burst = Burst::new(profile, seed, entity);
                    for segment in segments.clone() {
                        let want = profile.multiplier(burst_draw(seed, entity, segment));
                        let phase = burst.phase(segment as f64 * PHI_CONJUGATE);
                        let what = format!("{profile:?}, seed {seed}, entity {entity}, {segment}");
                        assert_eq!(burst.multipliers[phase].to_bits(), want.to_bits(), "{what}");
                        assert_eq!(burst.high[phase], want.to_bits() == high_bits, "{what}");
                    }
                }
            }
        }
    }

    fn run_simple(
        spec: &MachineSpec,
        behavior: &Behavior,
        placement: &Placement,
        seed: u64,
    ) -> RunResult {
        let inputs = RunInputs {
            spec,
            behavior,
            placement,
            stressors: &[],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed,
        };
        run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run")
    }

    #[test]
    fn solo_compute_run_takes_total_work_over_scale() {
        let spec = MachineSpec::x5_2();
        // Modest demand: far from any capacity.
        let b = Behavior::compute("t", 50.0, 1.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let r = run_simple(&spec, &b, &p, 1);
        // With fill_background the scale is all-core/nominal = 2.8/2.3.
        let expect = 50.0 / (2.8 / 2.3);
        assert!((r.elapsed - expect).abs() / expect < 0.01, "elapsed {}", r.elapsed);
        assert!((r.per_thread_busy[0] - 1.0).abs() < 1e-6);
        // Counters: instructions = work * rate demand.
        assert!((r.counters.instructions - 50.0).abs() < 0.5);
    }

    #[test]
    fn dynamic_scaling_is_near_linear_without_contention() {
        let spec = MachineSpec::x5_2();
        let b = Behavior::compute("lin", 100.0, 1.0);
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 2).elapsed;
        let t8 = run_simple(&spec, &b, &Placement::spread(&spec, 8).unwrap(), 2).elapsed;
        let speedup = t1 / t8;
        assert!((speedup - 8.0).abs() < 0.4, "speedup {speedup}");
    }

    #[test]
    fn critical_sections_limit_scaling() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("amdahl", 100.0, 1.0);
        b.seq_fraction = 0.10;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 3).elapsed;
        let t16 = run_simple(&spec, &b, &Placement::spread(&spec, 16).unwrap(), 3).elapsed;
        let speedup = t1 / t16;
        // Hard Amdahl bound is 10; queueing keeps it clearly below 16 and
        // clearly above a serial run.
        assert!(speedup < 10.0, "speedup {speedup}");
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn dram_saturation_caps_throughput() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("membound", 50.0, 0.5);
        b.demand.dram = 20.0;
        b.data_placement = DataPlacement::ThreadLocal;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 4).elapsed;
        // 8 threads on one socket demand 160 GB/s of a 62 GB/s node.
        let canon =
            pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]]);
        let p8 = canon.instantiate(&spec).unwrap();
        let t8 = run_simple(&spec, &b, &p8, 4).elapsed;
        let speedup = t1 / t8;
        assert!(speedup < 3.5, "bandwidth-bound speedup should cap: {speedup}");
        assert!(speedup > 2.0, "but should still beat serial: {speedup}");
    }

    use crate::behavior::Scheduling;

    #[test]
    fn static_scheduling_waits_for_stragglers() {
        let spec = MachineSpec::x5_2();
        // Two threads, one sharing a core with a CPU stressor.
        let base = Behavior::compute("straggler", 60.0, 6.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let stress =
            [StressPin { kind: StressKind::Cpu, ctx: sibling_ctx(&spec, p.contexts()[0]).unwrap() }];
        let run_with = |sched| {
            let behavior = Behavior { scheduling: sched, ..base.clone() };
            let inputs = RunInputs {
                spec: &spec,
                behavior: &behavior,
                placement: &p,
                stressors: &stress,
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed: 5,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run")
        };
        let t_static = run_with(Scheduling::Static).elapsed;
        let t_dynamic = run_with(Scheduling::Dynamic).elapsed;
        assert!(
            t_static > t_dynamic * 1.1,
            "static {t_static} should trail dynamic {t_dynamic}"
        );
    }

    #[test]
    fn smt_sharing_is_slower_than_separate_cores() {
        let spec = MachineSpec::x5_2();
        // Instruction demand near the core limit.
        let b = Behavior::compute("cpu", 40.0, 8.0);
        let spread = Placement::spread(&spec, 2).unwrap();
        let packed = Placement::packed(&spec, 2).unwrap();
        let t_spread = run_simple(&spec, &b, &spread, 6).elapsed;
        let t_packed = run_simple(&spec, &b, &packed, 6).elapsed;
        assert!(
            t_packed > t_spread * 1.3,
            "SMT sharing {t_packed} vs separate cores {t_spread}"
        );
    }

    #[test]
    fn cross_socket_communication_costs_time() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("comm", 60.0, 1.0);
        b.comm_factor = 0.02;
        b.intra_socket_comm = 0.1;
        // 8 threads one socket vs 4+4 across sockets.
        let same = pandia_topology::CanonicalPlacement::new(vec![vec![1; 8]])
            .instantiate(&spec)
            .unwrap();
        let split = pandia_topology::CanonicalPlacement::new(vec![vec![1; 4], vec![1; 4]])
            .instantiate(&spec)
            .unwrap();
        let t_same = run_simple(&spec, &b, &same, 7).elapsed;
        let t_split = run_simple(&spec, &b, &split, 7).elapsed;
        assert!(t_split > t_same * 1.05, "split {t_split} vs same {t_same}");
    }

    #[test]
    fn equake_growth_hurts_large_thread_counts() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("equake", 60.0, 1.0);
        b.growth_per_thread = 0.03;
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 8).elapsed;
        let t36 = run_simple(&spec, &b, &Placement::spread(&spec, 36).unwrap(), 8).elapsed;
        let speedup = t1 / t36;
        // Work more than doubles at 36 threads; speedup well below 36.
        assert!(speedup < 36.0 / 2.0, "speedup {speedup}");
    }

    #[test]
    fn inactive_threads_do_no_work() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("npo1", 30.0, 1.0);
        b.active_threads = Some(1);
        let p = Placement::spread(&spec, 4).unwrap();
        let r = run_simple(&spec, &b, &p, 9);
        assert!((r.per_thread_busy[0] - 1.0).abs() < 1e-6);
        for t in 1..4 {
            assert_eq!(r.per_thread_busy[t], 0.0);
        }
        // Time matches a solo run.
        let solo = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 9);
        assert!((r.elapsed - solo.elapsed).abs() / solo.elapsed < 0.02);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let spec = MachineSpec::x3_2();
        // High enough instruction demand that overlapping burst phases on
        // shared cores actually contend (and thus depend on the seed).
        let mut b = Behavior::compute("det", 40.0, 5.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 6).unwrap();
        let a = run_simple(&spec, &b, &p, 42);
        let b2 = run_simple(&spec, &b, &p, 42);
        assert_eq!(a.elapsed, b2.elapsed);
        assert_eq!(a.counters, b2.counters);
        let c = run_simple(&spec, &b, &p, 43);
        assert_ne!(a.elapsed, c.elapsed);
    }

    #[test]
    fn counters_account_for_all_work() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("cnt", 25.0, 1.5);
        b.demand.l2 = 3.0;
        b.demand.dram = 2.0;
        let p = Placement::spread(&spec, 4).unwrap();
        let r = run_simple(&spec, &b, &p, 10);
        assert!((r.counters.instructions - 25.0 * 1.5).abs() < 0.4);
        assert!((r.counters.l2_bytes - 25.0 * 3.0).abs() < 0.8);
        let dram_total: f64 = r.counters.dram_bytes.iter().sum();
        assert!((dram_total - 25.0 * 2.0).abs() < 0.6);
    }

    #[test]
    fn interleaved_data_crosses_interconnect() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("remote", 20.0, 0.5);
        b.demand.dram = 4.0;
        b.data_placement = DataPlacement::Interleave;
        let p = Placement::spread(&spec, 1).unwrap();
        let r = run_simple(&spec, &b, &p, 11);
        // Half the traffic goes to the remote socket and crosses the link.
        let dram_total: f64 = r.counters.dram_bytes.iter().sum();
        assert!((r.counters.interconnect_bytes / dram_total - 0.5).abs() < 0.05);
    }

    #[test]
    fn sibling_ctx_pairs_within_core() {
        let spec = MachineSpec::x5_2();
        assert_eq!(sibling_ctx(&spec, CtxId(0)), Some(CtxId(1)));
        assert_eq!(sibling_ctx(&spec, CtxId(1)), Some(CtxId(0)));
        assert_eq!(sibling_ctx(&spec, CtxId(7)), Some(CtxId(6)));
        let toy = MachineSpec::toy();
        assert_eq!(sibling_ctx(&toy, CtxId(0)), None);
    }

    #[test]
    fn lock_saturation_bounds_speedup_at_inverse_seq() {
        let spec = MachineSpec::x5_2();
        let mut b = Behavior::compute("locky", 80.0, 0.5);
        b.seq_fraction = 0.25; // hard bound: speedup <= 4
        let t1 = run_simple(&spec, &b, &Placement::spread(&spec, 1).unwrap(), 21).elapsed;
        let t36 = run_simple(&spec, &b, &Placement::spread(&spec, 36).unwrap(), 21).elapsed;
        let speedup = t1 / t36;
        assert!(speedup <= 4.0 + 0.1, "lock-bound speedup {speedup}");
        assert!(speedup > 2.0, "still parallelizes some: {speedup}");
    }

    #[test]
    fn node_bound_data_loads_one_memory_node() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("node0", 20.0, 0.2);
        b.demand.dram = 5.0;
        b.data_placement = DataPlacement::Node(1);
        let p = Placement::spread(&spec, 2).unwrap();
        let r = run_simple(&spec, &b, &p, 22);
        assert!(r.counters.dram_bytes[0] < 1e-9);
        assert!(r.counters.dram_bytes[1] > 0.0);
        // Threads sit on socket 0, data on node 1: everything crosses.
        assert!((r.counters.interconnect_bytes - r.counters.dram_bytes[1]).abs() < 1e-6);
    }

    #[test]
    fn first_touch_spreads_data_with_the_threads() {
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("ft", 20.0, 0.2);
        b.demand.dram = 5.0;
        b.data_placement = DataPlacement::FirstTouch;
        // 3 threads on socket 0, 1 on socket 1 => 75/25 data split.
        let canon = pandia_topology::CanonicalPlacement::new(vec![vec![1, 1, 1], vec![1]]);
        let p = canon.instantiate(&spec).unwrap();
        let r = run_simple(&spec, &b, &p, 23);
        let total: f64 = r.counters.dram_bytes.iter().sum();
        let share0 = r.counters.dram_bytes[0] / total;
        assert!((share0 - 0.75).abs() < 0.02, "share0 = {share0}");
    }

    #[test]
    fn non_adaptive_thrash_amplifies_spilled_traffic() {
        // Same workload/placement on an adaptive vs a cliff machine: the
        // cliff machine moves more DRAM bytes once several threads share
        // the socket.
        let mut b = Behavior::compute("spilly", 30.0, 0.5);
        b.demand.l3 = 5.0;
        b.demand.dram = 1.0;
        b.working_set_mib = 40.0;
        let mut adaptive = MachineSpec::x2_4();
        adaptive.adaptive_llc = true;
        let cliff = MachineSpec::x2_4();
        let p = Placement::spread(&cliff, 8).unwrap();
        let r_adaptive = run_simple(&adaptive, &b, &p, 24);
        let r_cliff = run_simple(&cliff, &b, &p, 24);
        let dram_a: f64 = r_adaptive.counters.dram_bytes.iter().sum();
        let dram_c: f64 = r_cliff.counters.dram_bytes.iter().sum();
        assert!(
            dram_c > 1.3 * dram_a,
            "cliff machine should thrash: adaptive {dram_a} vs cliff {dram_c}"
        );
    }

    #[test]
    fn burst_amplitude_saturating_capacity_slows_the_run() {
        // A workload whose high phase exceeds DRAM capacity runs slower
        // than its smooth-demand twin, even at two threads.
        let spec = MachineSpec::x3_2();
        let mut smooth = Behavior::compute("smooth", 30.0, 0.2);
        smooth.demand.dram = 30.0;
        smooth.data_placement = DataPlacement::ThreadLocal;
        let mut bursty = smooth.clone();
        bursty.name = "burstyx".into();
        bursty.burst = crate::behavior::BurstProfile::bursty(0.4, 2.4); // high phase: 72 GB/s > 48
        let p = Placement::spread(&spec, 1).unwrap();
        let t_smooth = run_simple(&spec, &smooth, &p, 25).elapsed;
        let t_bursty = run_simple(&spec, &bursty, &p, 25).elapsed;
        assert!(
            t_bursty > t_smooth * 1.05,
            "bursty {t_bursty} should trail smooth {t_smooth}"
        );
    }

    #[test]
    fn stressors_slow_the_workload_but_not_its_counters() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("meek", 20.0, 6.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let alone = run_simple(&spec, &b, &p, 26);
        let sibling = sibling_ctx(&spec, p.contexts()[0]).unwrap();
        let inputs = RunInputs {
            spec: &spec,
            behavior: &b,
            placement: &p,
            stressors: &[StressPin { kind: StressKind::Cpu, ctx: sibling }],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed: 26,
        };
        let stressed = run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run");
        assert!(stressed.elapsed > alone.elapsed * 1.2, "SMT stressor slows the run");
        // Workload counters exclude the stressor's traffic.
        assert!(
            (stressed.counters.instructions - alone.counters.instructions).abs()
                / alone.counters.instructions
                < 0.02
        );
    }

    #[test]
    fn turbo_makes_small_counts_faster_without_background_fill() {
        let spec = MachineSpec::x5_2();
        let b = Behavior::compute("solo", 20.0, 6.0);
        let p = Placement::spread(&spec, 1).unwrap();
        let mk = |fill: bool, turbo: bool| {
            let inputs = RunInputs {
                spec: &spec,
                behavior: &b,
                placement: &p,
                stressors: &[],
                fill_background: fill,
                turbo,
                data_placement: None,
                seed: 27,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run").elapsed
        };
        let idle_machine = mk(false, true);
        let filled = mk(true, true);
        let no_boost = mk(false, false);
        assert!(idle_machine < filled, "single-core boost beats all-core point");
        assert!(filled < no_boost, "all-core boost beats nominal");
    }

    #[test]
    fn partial_scheduling_interpolates_between_static_and_dynamic() {
        let spec = MachineSpec::x5_2();
        let base = Behavior::compute("partial", 60.0, 6.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let stress =
            [StressPin { kind: StressKind::Cpu, ctx: sibling_ctx(&spec, p.contexts()[0]).unwrap() }];
        let time_for = |sched| {
            let behavior = Behavior { scheduling: sched, ..base.clone() };
            let inputs = RunInputs {
                spec: &spec,
                behavior: &behavior,
                placement: &p,
                stressors: &stress,
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed: 28,
            };
            run(&inputs, &EngineConfig { noise_sigma: 0.0, ..EngineConfig::default() }).expect("fault-free run").elapsed
        };
        let t_static = time_for(Scheduling::Static);
        // Mostly-static: the slowed thread's private share dominates, so
        // the run lands between the extremes.
        let t_mostly_static = time_for(Scheduling::Partial { dynamic_fraction: 0.1 });
        let t_dynamic = time_for(Scheduling::Dynamic);
        assert!(
            t_dynamic < t_mostly_static && t_mostly_static < t_static,
            "{t_dynamic} < {t_mostly_static} < {t_static}"
        );
    }

    #[test]
    fn zero_rate_fault_plan_is_byte_identical() {
        // A plan whose rates are all zero must not perturb a run even when
        // its scale knobs are extreme: the draws are gated on the rates.
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("ident", 30.0, 4.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 4).unwrap();
        let inputs = RunInputs {
            spec: &spec,
            behavior: &b,
            placement: &p,
            stressors: &[],
            fill_background: true,
            turbo: true,
            data_placement: None,
            seed: 99,
        };
        let clean = run(&inputs, &EngineConfig::default()).expect("fault-free run");
        let zero_plan = FaultPlan {
            transient_rate: 0.0,
            dropout_rate: 0.0,
            interference_rate: 0.0,
            interference_scale: 1e9,
            high_noise_rate: 0.0,
            high_noise_factor: 1e9,
        };
        let gated = run(
            &inputs,
            &EngineConfig { faults: zero_plan, ..EngineConfig::default() },
        )
        .expect("zero-rate plan injects nothing");
        assert_eq!(clean, gated);
    }

    #[test]
    fn fault_schedules_are_deterministic_and_seed_dependent() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("chaos", 10.0, 1.0);
        let p = Placement::spread(&spec, 2).unwrap();
        let config = EngineConfig {
            faults: FaultPlan::with_intensity(0.8),
            ..EngineConfig::default()
        };
        let mut transients = 0;
        let mut dropouts = 0;
        let mut bursts = 0;
        for seed in 0..60u64 {
            let inputs = RunInputs {
                spec: &spec,
                behavior: &b,
                placement: &p,
                stressors: &[],
                fill_background: true,
                turbo: true,
                data_placement: None,
                seed,
            };
            let first = run(&inputs, &config);
            let second = run(&inputs, &config);
            assert_eq!(first, second, "identical seeds must replay the schedule");
            match first {
                Err(SimError::TransientFault { seed: s }) => {
                    assert_eq!(s, seed);
                    transients += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(r) => {
                    if r.counters.instructions == 0.0 {
                        dropouts += 1;
                    }
                    let clean = run(&inputs, &EngineConfig::default())
                        .expect("fault-free run");
                    if r.elapsed > clean.elapsed * 1.05 {
                        bursts += 1;
                    }
                }
            }
        }
        assert!(transients > 0, "no transient faults in 60 seeds");
        assert!(dropouts > 0, "no counter dropouts in 60 seeds");
        assert!(bursts > 0, "no interference bursts in 60 seeds");
    }

    #[test]
    fn fast_paths_are_bitwise_identical_to_the_spec() {
        // Smooth and bursty, lock-bound and comm-bound, with stressors:
        // the engine must reproduce the reference engine bit for bit.
        let spec = MachineSpec::x3_2();
        let mut locky = Behavior::compute("locky", 50.0, 1.0);
        locky.seq_fraction = 0.1;
        let mut commy = Behavior::compute("commy", 40.0, 1.0);
        commy.comm_factor = 0.02;
        let mut bursty = Behavior::compute("bursty", 30.0, 4.0);
        bursty.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        for (b, seed) in [(&locky, 31u64), (&commy, 32), (&bursty, 33)] {
            let p = Placement::packed(&spec, 4).unwrap();
            let stress = [StressPin {
                kind: StressKind::Cpu,
                ctx: sibling_ctx(&spec, p.contexts()[3]).unwrap(),
            }];
            let group = GroupInput { behavior: b, placement: &p, data_placement: None };
            let inputs = MultiRunInputs {
                spec: &spec,
                groups: std::slice::from_ref(&group),
                stressors: &stress,
                fill_background: true,
                turbo: true,
                seed,
            };
            let fast = run_multi(&inputs, &EngineConfig::default()).expect("fault-free run");
            let (reference, _, _) =
                spec::run_multi(&inputs, &EngineConfig::default()).expect("fault-free run");
            assert_eq!(fast, reference, "{}: fast paths diverged from the spec", b.name);
        }
    }

    #[test]
    fn steady_runs_coalesce_segments_and_skip_solves() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("steady", 60.0, 1.0);
        let p = Placement::spread(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 44,
        };
        let (_, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        assert!(stats.segments > 100, "expected a long run, got {stats:?}");
        assert!(
            stats.segments_coalesced > stats.segments / 2,
            "smooth run should mostly coalesce: {stats:?}"
        );
        assert!(stats.solves_skipped > 0, "relaxation re-solves should hit the cache: {stats:?}");
        let (_, _, segments) = spec::run_multi(&inputs, &EngineConfig::default()).expect("run");
        assert_eq!(stats.segments, segments, "coalescing must not change the segment count");
    }

    #[test]
    fn bursty_runs_coalesce_recurring_phase_patterns() {
        // Burst phases are redrawn every segment, so consecutive segments
        // of a bursty run rarely match — but the (runnable, multipliers,
        // warm start) triple *recurs* once the rate dynamics settle into
        // the finitely many phase patterns, and each recurrence replays
        // from the memo. The spec must agree bit for bit over the same
        // segment schedule.
        let spec = MachineSpec::x3_2();
        let mut b = Behavior::compute("bursty", 40.0, 4.0);
        b.burst = crate::behavior::BurstProfile::bursty(0.4, 2.0);
        let p = Placement::packed(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 45,
        };
        let (fast, stats) = run_multi_stats(&inputs, &EngineConfig::default()).expect("run");
        assert!(
            stats.segments_coalesced > 0,
            "recurring burst patterns should replay from the memo: {stats:?}"
        );
        assert!(
            stats.segments_coalesced < stats.segments,
            "a bursty run cannot replay every segment: {stats:?}"
        );

        let (reference, _, segments) =
            spec::run_multi(&inputs, &EngineConfig::default()).expect("run");
        assert_eq!(fast, reference, "memoized segments diverged from the spec");
        assert_eq!(stats.segments, segments, "segment count must not change");
    }

    #[test]
    fn armed_fault_plan_disables_coalescing() {
        let spec = MachineSpec::x3_2();
        let b = Behavior::compute("chaosrun", 60.0, 1.0);
        let p = Placement::spread(&spec, 4).unwrap();
        let group = GroupInput { behavior: &b, placement: &p, data_placement: None };
        let inputs = MultiRunInputs {
            spec: &spec,
            groups: std::slice::from_ref(&group),
            stressors: &[],
            fill_background: true,
            turbo: true,
            seed: 44,
        };
        let config = EngineConfig {
            faults: FaultPlan::with_intensity(0.5),
            ..EngineConfig::default()
        };
        match run_multi_stats(&inputs, &config) {
            Ok((_, stats)) => assert_eq!(
                stats.segments_coalesced, 0,
                "coalescing must never skip over an armed fault plan: {stats:?}"
            ),
            Err(SimError::TransientFault { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn remote_neighbor_wraps_around_socket_ring() {
        let spec = MachineSpec::x2_4();
        let mut b = Behavior::compute("ring", 10.0, 0.2);
        b.demand.dram = 3.0;
        b.data_placement = DataPlacement::RemoteNeighbor;
        // One thread on the last socket: its data lands on socket 0.
        let ctx = spec.ctx(pandia_topology::SocketId(3), 0, 0);
        let p = Placement::new(&spec, vec![ctx]).unwrap();
        let r = run_simple(&spec, &b, &p, 29);
        assert!(r.counters.dram_bytes[0] > 0.0);
        assert!(r.counters.dram_bytes[3] < 1e-9);
    }
}
