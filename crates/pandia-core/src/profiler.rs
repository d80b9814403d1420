//! The workload description generator: the six profiling runs of §4.
//!
//! | Run | Placement | Purpose |
//! |-----|-----------|---------|
//! | 1 | one thread | `t1` and the demand vector `d` (§4.1) |
//! | 2 | `n₂` threads, one per core, one socket, no oversubscription | parallel fraction `p` (§4.2) |
//! | 3 | the same `n₂` threads split across two sockets | inter-socket overhead `os` (§4.3) |
//! | 4 | run 2 plus a CPU stressor besides *every* thread | uniform-slowdown point for `l` (§4.4) |
//! | 5 | run 2 plus a CPU stressor besides *one* thread | load balancing factor `l` (§4.4) |
//! | 6 | the `n₂` threads packed two per core | core burstiness `b` (§4.5) |
//!
//! Each step solves for exactly one new parameter such that the model
//! *including that parameter* reproduces the measured run time ("we then
//! extend the workload model so that `u_x = r_x / k_x` is predicted
//! correctly with the inclusion of the results of the new step", §4.1).
//! `p` and `l` have closed forms; `os` and `b` use the closed-form
//! estimate as a bracket and refine it against the full predictor by
//! bisection, which keeps the description self-consistent with the
//! prediction machinery that will consume it.

use pandia_topology::{
    CanonicalPlacement, CtxId, DemandVector, HasShape, Placement, Platform, RunRequest,
    StressKind,
};
use serde::{Deserialize, Serialize};

use crate::{
    description::MachineDescription,
    error::PandiaError,
    predictor::{Prediction, Predictor, PredictorConfig},
    workload_desc::WorkloadDescription,
};

/// Maximum fraction of any shared resource's capacity run 2 may
/// subscribe ("sufficiently low to avoid over-subscribing any resources",
/// §4.2).
const HEADROOM: f64 = 0.9;

/// Bisection iterations for the `os`/`b` refinement.
const SOLVER_ITERATIONS: usize = 40;

/// Repeats farther than this many normal-scaled MADs from the median are
/// rejected under `RobustnessPolicy::robust_aggregation`.
const MAD_THRESHOLD: f64 = 3.5;

/// Configuration of the profiling procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileConfig {
    /// Base seed for the profiling runs.
    pub seed: u64,
    /// Predictor settings used when solving for `os` and `b`.
    pub predictor: PredictorConfig,
    /// Number of repetitions of each profiling run; times are averaged to
    /// suppress measurement noise (steps 3-5 solve for parameters from
    /// small differences between runs).
    pub repeats: usize,
    /// How hostile measurements are survived (retries, outlier rejection,
    /// solver fallback). Defaults to [`RobustnessPolicy::naive`], which
    /// reproduces the historical pipeline bit-for-bit.
    pub robustness: RobustnessPolicy,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            seed: 0x6A11,
            predictor: PredictorConfig::default(),
            repeats: 3,
            robustness: RobustnessPolicy::default(),
        }
    }
}

/// Policy governing how the measurement pipeline survives a hostile
/// platform (lost runs, dropped counters, interference bursts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPolicy {
    /// Attempts budgeted per profiling repeat (1 = never retry).
    /// Retries are deterministic — attempt `a` remixes `a` into the
    /// repeat's seed — and immediate: no wall-clock backoff, because the
    /// platform's fault schedule is a function of the seed, not of time.
    pub max_attempts: usize,
    /// Aggregate repeats with median + MAD outlier rejection (at 3.5
    /// normal-scaled MADs) instead of the bare mean, and repair counters by
    /// channel-wise medians across repeats (a channel zeroed by dropout in
    /// one repeat is outvoted).
    pub robust_aggregation: bool,
    /// When the `os`/`b` bracket search diverges or the solved value is
    /// non-finite, degrade to the clamped closed-form estimate instead of
    /// propagating a runaway parameter.
    pub clamp_fallback: bool,
}

impl Default for RobustnessPolicy {
    fn default() -> Self {
        Self::naive()
    }
}

impl RobustnessPolicy {
    /// The historical pipeline: no retries, plain mean, no fallback.
    pub fn naive() -> Self {
        Self {
            max_attempts: 1,
            robust_aggregation: false,
            clamp_fallback: false,
        }
    }

    /// The hardened pipeline: bounded retries, median + MAD aggregation,
    /// closed-form fallback.
    pub fn robust() -> Self {
        Self {
            max_attempts: 4,
            robust_aggregation: true,
            clamp_fallback: true,
        }
    }
}

/// Ledger of everything the measurement pipeline survived while
/// profiling one workload, so no retry, rejection, or degradation is
/// silent. Totals mirror the `profiler.*` telemetry counters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileAudit {
    /// Platform runs attempted, including retries.
    pub attempts: usize,
    /// Retries issued after transient faults.
    pub retries: usize,
    /// Repeats abandoned because the retry budget ran out.
    pub lost_repeats: usize,
    /// Repeats dropped for degenerate (non-finite or non-positive) times.
    pub degenerate_repeats: usize,
    /// Repeats rejected as MAD outliers.
    pub outliers_rejected: usize,
    /// Parameter solves that fell back to the closed-form estimate.
    pub fallbacks: usize,
    /// Human-readable record of each degradation, in order.
    pub events: Vec<String>,
}

impl ProfileAudit {
    fn event(&mut self, msg: String) {
        self.events.push(msg);
    }

    /// Whether profiling completed without any fault handling at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.lost_repeats == 0
            && self.degenerate_repeats == 0
            && self.outliers_rejected == 0
            && self.fallbacks == 0
    }
}

/// One recorded profiling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Which of the six runs this is (1-based).
    pub run: usize,
    /// Short description of the placement.
    pub label: String,
    /// Measured execution time.
    pub elapsed: f64,
    /// Time relative to `t1`.
    pub relative: f64,
}

/// The outcome of profiling: the description plus the raw evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The generated workload description.
    pub description: WorkloadDescription,
    /// The six profiling runs (fewer on machines that cannot support all
    /// steps, e.g. single-socket machines skip run 3).
    pub runs: Vec<RunRecord>,
    /// The thread count `n₂` used by runs 2-6.
    pub n2: usize,
    /// Total profiling cost in simulated seconds (compared against the
    /// sweep baseline in §6.3).
    pub total_cost: f64,
    /// Everything the measurement pipeline survived (retries, rejected
    /// outliers, degraded solves). Empty under a clean platform.
    pub audit: ProfileAudit,
}

/// Generates workload descriptions by profiling through a platform.
#[derive(Debug, Clone)]
pub struct WorkloadProfiler<'m> {
    machine: &'m MachineDescription,
    config: ProfileConfig,
}

impl<'m> WorkloadProfiler<'m> {
    /// Creates a profiler against a measured machine description.
    pub fn new(machine: &'m MachineDescription) -> Self {
        Self { machine, config: ProfileConfig::default() }
    }

    /// Creates a profiler with explicit configuration.
    pub fn with_config(machine: &'m MachineDescription, config: ProfileConfig) -> Self {
        Self { machine, config }
    }

    /// Executes the six profiling runs and solves for the workload model.
    pub fn profile<P: Platform>(
        &self,
        platform: &mut P,
        workload: &P::Workload,
        name: &str,
    ) -> Result<ProfileReport, PandiaError> {
        let _span = pandia_obs::span("profiler", "profile").arg("workload", name);
        let shape = self.machine.shape();
        let mut runs = Vec::with_capacity(6);
        let mut audit = ProfileAudit::default();
        let mut seed = self.config.seed;
        let mut next_seed = || {
            seed = seed.wrapping_add(1);
            seed
        };

        // --- Run 1: single-thread time and demands (§4.1). ---
        let p1 = CanonicalPlacement::new(vec![vec![1]]).instantiate(&shape)?;
        let (t1, r1) = self.timed(
            platform,
            RunRequest::new(workload.clone(), p1),
            next_seed(),
            "run 1",
            &mut audit,
        )?;
        if t1 <= 0.0 || !t1.is_finite() {
            return Err(PandiaError::Degenerate { what: "t1", value: t1 });
        }
        // Counter *rates* come from the matching run's own elapsed time.
        let tc = r1.elapsed;
        let demand = DemandVector {
            instr: r1.counters.instructions / tc,
            l1: r1.counters.l1_bytes / tc,
            l2: r1.counters.l2_bytes / tc,
            l3: r1.counters.l3_bytes / tc,
            dram: r1.counters.dram_bytes.iter().map(|b| b / tc).collect(),
        };
        runs.push(RunRecord { run: 1, label: "1 thread".into(), elapsed: t1, relative: 1.0 });

        // Partial description, filled in step by step.
        let mut desc = WorkloadDescription {
            name: name.to_string(),
            machine: self.machine.machine.clone(),
            t1,
            demand,
            parallel_fraction: 1.0,
            inter_socket_overhead: 0.0,
            load_balance: 0.5,
            burstiness: 0.0,
        };

        // --- Run 2: parallel fraction (§4.2). ---
        let n2 = self.choose_n2(&desc);
        let run2_placement = CanonicalPlacement::new(vec![vec![1; n2]]);
        let p2 = run2_placement.instantiate(&shape)?;
        let (r2, _) = self.timed(
            platform,
            RunRequest::new(workload.clone(), p2.clone()),
            next_seed(),
            "run 2",
            &mut audit,
        )?;
        let rel2 = r2 / t1;
        // u2 = 1 - p + p/n  =>  p = (1 - u2) / (1 - 1/n).
        let p_fit = ((1.0 - rel2) / (1.0 - 1.0 / n2 as f64)).clamp(0.0, 1.0);
        desc.parallel_fraction = p_fit;
        runs.push(RunRecord {
            run: 2,
            label: format!("{n2} threads, 1/core, 1 socket"),
            elapsed: r2,
            relative: rel2,
        });

        // --- Run 3: inter-socket overhead (§4.3). ---
        if shape.sockets >= 2 && n2 >= 2 {
            let half = n2 / 2;
            let split = CanonicalPlacement::new(vec![vec![1; half], vec![1; n2 - half]]);
            let p3 = split.instantiate(&shape)?;
            let (r3, _) = self.timed(
                platform,
                RunRequest::new(workload.clone(), p3.clone()),
                next_seed(),
                "run 3",
                &mut audit,
            )?;
            let rel3 = r3 / t1;
            desc.inter_socket_overhead = self.solve_parameter(
                &desc,
                SolveTarget { placement: &p3, measured_rel: rel3, what: "inter-socket overhead" },
                &mut audit,
                |d, v| d.inter_socket_overhead = v,
                // Closed-form estimate from §4.3 as the initial bracket.
                |k3, f| ((rel3 / k3 - 1.0) * f / (n2 as f64 / 2.0)).max(0.0),
            )?;
            runs.push(RunRecord {
                run: 3,
                label: format!("{half}+{} threads across sockets", n2 - half),
                elapsed: r3,
                relative: rel3,
            });
        }

        // --- Runs 4 & 5: load balancing factor (§4.4). ---
        let stress_ctxs = self.stressor_contexts(&p2);
        if !stress_ctxs.is_empty() {
            // Run 4: every thread slowed.
            let mut req4 = RunRequest::new(workload.clone(), p2.clone());
            for &ctx in &stress_ctxs {
                req4 = req4.with_stressor(StressKind::Cpu, ctx);
            }
            let (r4, _) = self.timed(platform, req4, next_seed(), "run 4", &mut audit)?;
            let rel4 = r4 / t1;
            runs.push(RunRecord {
                run: 4,
                label: "run 2 + stressor beside every thread".into(),
                elapsed: r4,
                relative: rel4,
            });

            // Run 5: one thread slowed.
            let req5 = RunRequest::new(workload.clone(), p2.clone())
                .with_stressor(StressKind::Cpu, stress_ctxs[0]);
            let (r5, _) = self.timed(platform, req5, next_seed(), "run 5", &mut audit)?;
            let rel5 = r5 / t1;
            runs.push(RunRecord {
                run: 5,
                label: "run 2 + stressor beside one thread".into(),
                elapsed: r5,
                relative: rel5,
            });

            desc.load_balance = solve_load_balance(p_fit, n2, rel2, rel4, rel5);
        }

        // --- Run 6: core burstiness (§4.5). ---
        if shape.threads_per_core >= 2 && n2 >= 2 {
            let packed = CanonicalPlacement::new(vec![vec![2; n2 / 2]]);
            let p6 = packed.instantiate(&shape)?;
            let (r6, _) = self.timed(
                platform,
                RunRequest::new(workload.clone(), p6.clone()),
                next_seed(),
                "run 6",
                &mut audit,
            )?;
            let rel6 = r6 / t1;
            desc.burstiness = self.solve_parameter(
                &desc,
                SolveTarget { placement: &p6, measured_rel: rel6, what: "burstiness" },
                &mut audit,
                |d, v| d.burstiness = v,
                // Closed-form estimate from §4.5 as the initial bracket.
                |k6, f| ((rel6 / k6 - 1.0) / f).max(0.0),
            )?;
            runs.push(RunRecord {
                run: 6,
                label: format!("{n2} threads packed on {} cores", n2 / 2),
                elapsed: r6,
                relative: rel6,
            });
        }

        desc.validate()?;
        let total_cost =
            runs.iter().map(|r| r.elapsed).sum::<f64>() * self.config.repeats.max(1) as f64;
        Ok(ProfileReport { description: desc, runs, n2, total_cost, audit })
    }

    /// Profiles several workloads, fanning them across an execution
    /// context's workers. Each worker profiles against its own clone of
    /// `platform`, so the per-workload reports are identical to calling
    /// [`WorkloadProfiler::profile`] serially in input order.
    ///
    /// The six runs *within* one workload stay sequential — each solves
    /// a parameter the next run depends on — so the parallelism here is
    /// across workloads, which is how the harness sweeps use it.
    pub fn profile_many<P>(
        &self,
        exec: &crate::exec::ExecContext,
        platform: &P,
        workloads: &[(P::Workload, String)],
    ) -> Result<Vec<ProfileReport>, PandiaError>
    where
        P: Platform + Clone + Sync,
        P::Workload: Sync,
    {
        let reports = exec.parallel_map(workloads, |(workload, name)| {
            let mut local = platform.clone();
            self.profile(&mut local, workload, name)
        });
        reports.into_iter().collect()
    }

    /// Executes one profiling run `repeats` times with distinct seeds and
    /// aggregates the elapsed times under the configured
    /// [`RobustnessPolicy`]: the plain mean of the valid repeats by
    /// default, median + MAD outlier rejection (then the mean of the
    /// survivors) under [`RobustnessPolicy::robust`].
    ///
    /// Degenerate repeats — non-finite or non-positive times — never
    /// poison the aggregate: they are dropped and recorded in the audit
    /// regardless of policy. The representative [`RunResult`] is the last
    /// valid repeat under the naive policy (historical behavior); the
    /// robust policy instead returns the aggregate time with channel-wise
    /// median counters across the surviving repeats.
    fn timed<P: Platform>(
        &self,
        platform: &mut P,
        mut request: RunRequest<P::Workload>,
        seed: u64,
        label: &str,
        audit: &mut ProfileAudit,
    ) -> Result<(f64, pandia_topology::RunResult), PandiaError> {
        let repeats = self.config.repeats.max(1);
        let policy = &self.config.robustness;
        let mut samples: Vec<(f64, pandia_topology::RunResult)> = Vec::with_capacity(repeats);
        let mut last_transient = None;
        for k in 0..repeats {
            let rep_seed = seed.wrapping_mul(1000).wrapping_add(k as u64);
            match measure_with_policy(platform, &mut request, rep_seed, policy, audit) {
                Ok(result) => {
                    if result.elapsed.is_finite() && result.elapsed > 0.0 {
                        samples.push((result.elapsed, result));
                    } else {
                        audit.degenerate_repeats += 1;
                        pandia_obs::count("profiler.degenerate_repeats", 1);
                        audit.event(format!(
                            "{label}: repeat {k} returned degenerate time {}",
                            result.elapsed
                        ));
                    }
                }
                Err(e) if e.is_transient() => {
                    audit.lost_repeats += 1;
                    audit.event(format!(
                        "{label}: repeat {k} abandoned after {} attempts ({e})",
                        policy.max_attempts.max(1)
                    ));
                    last_transient = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        if samples.is_empty() {
            // Every repeat was lost or degenerate: nothing to degrade to.
            return Err(match last_transient {
                Some(e) => e,
                None => PandiaError::Degenerate {
                    what: "profiling repeats",
                    value: repeats as f64,
                },
            });
        }
        let kept: Vec<usize> = if policy.robust_aggregation && samples.len() >= 3 {
            let times: Vec<f64> = samples.iter().map(|(t, _)| *t).collect();
            mad_inliers(&times, MAD_THRESHOLD)
        } else {
            (0..samples.len()).collect()
        };
        let rejected = samples.len() - kept.len();
        if rejected > 0 {
            audit.outliers_rejected += rejected;
            pandia_obs::count("profiler.outliers_rejected", rejected as u64);
            audit.event(format!("{label}: rejected {rejected} outlier repeat(s)"));
        }
        let mean = kept.iter().map(|&i| samples[i].0).sum::<f64>() / kept.len() as f64;
        let result = if policy.robust_aggregation {
            robust_result(&samples, &kept, mean)
        } else {
            // Historical behavior: the last repeat speaks for the run.
            let (_, result) = samples.swap_remove(samples.len() - 1);
            result
        };
        Ok((mean, result))
    }

    /// Chooses the run-2 thread count: the largest even number of threads,
    /// one per core on a single socket, that keeps every shared resource
    /// under `HEADROOM` given the run-1 demands (§4.2).
    fn choose_n2(&self, desc: &WorkloadDescription) -> usize {
        let shape = self.machine.shape();
        let caps = &self.machine.capacities;
        let mut n = shape.cores_per_socket;
        if n % 2 == 1 {
            n -= 1;
        }
        let fits = |n: usize| -> bool {
            let nf = n as f64;
            if desc.demand.l3 * nf > HEADROOM * caps.l3_aggregate {
                return false;
            }
            for &node_demand in &desc.demand.dram {
                if node_demand * nf > HEADROOM * caps.dram_per_socket {
                    return false;
                }
            }
            // Threads sit on socket 0: everything destined elsewhere
            // crosses one link per remote node.
            if shape.sockets >= 2 {
                for (node, &node_demand) in desc.demand.dram.iter().enumerate() {
                    if node != 0 && node_demand * nf > HEADROOM * caps.interconnect_per_link {
                        return false;
                    }
                }
            }
            true
        };
        while n > 2 && !fits(n) {
            n -= 2;
        }
        n.max(2).min(shape.cores_per_socket.max(2))
    }

    /// Contexts adjacent to each workload thread where a stressor can be
    /// pinned: the sibling SMT slot where available, otherwise an idle
    /// core on the same socket.
    fn stressor_contexts(&self, placement: &Placement) -> Vec<CtxId> {
        let shape = self.machine.shape();
        let mut used: Vec<bool> = vec![false; shape.total_contexts()];
        for &c in placement.contexts() {
            used[c.0] = true;
        }
        let mut out = Vec::new();
        if shape.threads_per_core >= 2 {
            for &ctx in placement.contexts() {
                let slot = ctx.0 % shape.threads_per_core;
                let sibling = if slot + 1 < shape.threads_per_core {
                    CtxId(ctx.0 + 1)
                } else {
                    CtxId(ctx.0 - 1)
                };
                if !used[sibling.0] {
                    used[sibling.0] = true;
                    out.push(sibling);
                }
            }
            return out;
        }
        // No SMT: use idle cores on the same socket (best effort).
        for &ctx in placement.contexts() {
            let socket = shape.socket_of_ctx(ctx);
            let found = (0..shape.cores_per_socket).find_map(|c| {
                let cand = shape.ctx(socket, c, 0);
                (!used[cand.0]).then_some(cand)
            });
            if let Some(cand) = found {
                used[cand.0] = true;
                out.push(cand);
            }
        }
        out
    }

    /// Solves for one model parameter so the full predictor reproduces a
    /// measured relative time: closed-form initial estimate, then
    /// bisection refinement (the parameter only ever slows the predicted
    /// time, so predicted time is monotone in it).
    ///
    /// Under [`RobustnessPolicy::robust`], a diverged bracket search or a
    /// non-finite solution degrades to the clamped closed-form estimate
    /// and is recorded in the audit, instead of handing downstream
    /// predictions a runaway parameter.
    fn solve_parameter(
        &self,
        desc: &WorkloadDescription,
        target: SolveTarget<'_>,
        audit: &mut ProfileAudit,
        set: impl Fn(&mut WorkloadDescription, f64),
        initial: impl Fn(f64, f64) -> f64,
    ) -> Result<f64, PandiaError> {
        let SolveTarget { placement, measured_rel, what } = target;
        let predictor = Predictor::new(self.machine);
        let predict_with = |v: f64| -> Result<(Prediction, f64), PandiaError> {
            let mut d = desc.clone();
            set(&mut d, v);
            let pred = predictor.predict(&d, placement, &self.config.predictor)?;
            let rel = pred.relative_time(d.t1);
            Ok((pred, rel))
        };
        let rel_with = |v: f64| predict_with(v).map(|(_, rel)| rel);
        let (pred0, k) = predict_with(0.0)?;
        if measured_rel <= k {
            // The partial model already over-predicts the time: no room
            // for an extra penalty.
            return Ok(0.0);
        }
        let f = pred0.mean_utilization().max(1e-6);
        let guess = initial(k, f).max(1e-6);
        let fallback = |audit: &mut ProfileAudit, why: &str| {
            let clamped = guess.min(PARAM_FALLBACK_CAP);
            audit.fallbacks += 1;
            pandia_obs::count("profiler.fallbacks", 1);
            audit.event(format!(
                "{what}: {why}; degrading to clamped closed-form estimate {clamped}"
            ));
            clamped
        };
        if self.config.robustness.clamp_fallback
            && !(measured_rel.is_finite() && guess.is_finite())
        {
            return Ok(fallback(audit, "non-finite measurement or estimate"));
        }
        // Find an upper bracket.
        let mut hi = guess;
        let mut tries = 0;
        while rel_with(hi)? < measured_rel && tries < 60 {
            hi *= 2.0;
            tries += 1;
        }
        if self.config.robustness.clamp_fallback && (tries >= 60 || !hi.is_finite()) {
            // No finite value of the parameter explains the measurement;
            // bisection against this bracket would chase the runaway end.
            return Ok(fallback(audit, "bracket search diverged"));
        }
        let mut lo = 0.0;
        for _ in 0..SOLVER_ITERATIONS {
            let mid = 0.5 * (lo + hi);
            if rel_with(mid)? < measured_rel {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let solved = 0.5 * (lo + hi);
        if self.config.robustness.clamp_fallback && !solved.is_finite() {
            return Ok(fallback(audit, "bisection produced a non-finite value"));
        }
        Ok(solved)
    }
}

/// Hard ceiling on a parameter recovered by clamp-and-fallback: both
/// `os` and `b` are order-one quantities, so anything beyond this is a
/// corrupted measurement, not a workload property.
const PARAM_FALLBACK_CAP: f64 = 5.0;

/// One parameter-solve target: the profiling run whose measured relative
/// time the solved parameter must reproduce.
struct SolveTarget<'a> {
    placement: &'a Placement,
    measured_rel: f64,
    what: &'static str,
}

/// Runs one request under a retry policy. Attempt `a` deterministically
/// remixes `a` into the repeat seed (attempt 0 uses the seed unchanged,
/// keeping the retry-free pipeline bit-identical) and there is no
/// wall-clock backoff: on a platform whose faults are seed-scheduled,
/// waiting buys nothing — a fresh seed does.
///
/// Transient platform faults consume budgeted attempts; any other error
/// propagates immediately. Every retry is counted in `audit` and on the
/// `profiler.retries` telemetry counter.
pub fn measure_with_policy<P: Platform>(
    platform: &mut P,
    request: &mut RunRequest<P::Workload>,
    seed: u64,
    policy: &RobustnessPolicy,
    audit: &mut ProfileAudit,
) -> Result<pandia_topology::RunResult, PandiaError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..max_attempts {
        request.seed = retry_seed(seed, attempt);
        audit.attempts += 1;
        match platform.run(request) {
            Ok(result) => return Ok(result),
            Err(e) => {
                let e = PandiaError::from(e);
                if !e.is_transient() {
                    return Err(e);
                }
                if attempt + 1 < max_attempts {
                    audit.retries += 1;
                    pandia_obs::count("profiler.retries", 1);
                    audit.event(format!(
                        "retry {}/{} after {e}",
                        attempt + 1,
                        max_attempts - 1
                    ));
                }
                last_err = Some(e);
            }
        }
    }
    Err(match last_err {
        Some(e) => e,
        None => PandiaError::Degenerate { what: "retry budget", value: max_attempts as f64 },
    })
}

/// Seed for retry `attempt` of a repeat: attempt 0 is the repeat seed
/// unchanged; later attempts pass through a splitmix64-style finalizer so
/// the platform draws an independent fault schedule.
fn retry_seed(base: u64, attempt: usize) -> u64 {
    if attempt == 0 {
        return base;
    }
    let mut z = base ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a non-empty slice (NaN-safe total order).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Indices of the samples within `threshold` normal-scaled MADs of the
/// median. A (near-)zero MAD means the repeats agree to within float
/// granularity, in which case everything is kept.
fn mad_inliers(times: &[f64], threshold: f64) -> Vec<usize> {
    let med = median(times);
    let devs: Vec<f64> = times.iter().map(|t| (t - med).abs()).collect();
    // 1.4826 scales the MAD to the standard deviation of a normal.
    let scale = 1.4826 * median(&devs);
    if scale.is_nan() || scale <= med.abs() * 1e-12 {
        return (0..times.len()).collect();
    }
    times
        .iter()
        .enumerate()
        .filter(|&(_, t)| (t - med).abs() <= threshold * scale)
        .map(|(i, _)| i)
        .collect()
}

/// Representative result under robust aggregation: the surviving repeat
/// whose time is closest to the aggregate provides the structure, its
/// elapsed time becomes the aggregate itself (so counter-rate conversion
/// uses the robust time), and every counter channel takes the median
/// across the surviving repeats — one dropout-zeroed repeat is outvoted.
fn robust_result(
    samples: &[(f64, pandia_topology::RunResult)],
    kept: &[usize],
    mean: f64,
) -> pandia_topology::RunResult {
    let mut rep = kept[0];
    for &i in kept {
        if (samples[i].0 - mean).abs() < (samples[rep].0 - mean).abs() {
            rep = i;
        }
    }
    let channel = |get: &dyn Fn(&pandia_topology::Counters) -> f64| -> f64 {
        let vals: Vec<f64> = kept.iter().map(|&i| get(&samples[i].1.counters)).collect();
        median(&vals)
    };
    let mut result = samples[rep].1.clone();
    result.elapsed = mean;
    result.counters.instructions = channel(&|c| c.instructions);
    result.counters.l1_bytes = channel(&|c| c.l1_bytes);
    result.counters.l2_bytes = channel(&|c| c.l2_bytes);
    result.counters.l3_bytes = channel(&|c| c.l3_bytes);
    result.counters.interconnect_bytes = channel(&|c| c.interconnect_bytes);
    for node in 0..result.counters.dram_bytes.len() {
        let vals: Vec<f64> = kept
            .iter()
            .map(|&i| samples[i].1.counters.dram_bytes.get(node).copied().unwrap_or(0.0))
            .collect();
        result.counters.dram_bytes[node] = median(&vals);
    }
    result
}

/// Closed-form solve for the load balancing factor from runs 2, 4 and 5
/// (§4.4).
///
/// Run 4 slows every thread by the same factor `slow = r4/r2`, giving the
/// penalty of uniform slowdown; run 5 slows one thread (`sl = r5/r2`).
/// With `n-1` threads at `s_i = 1` and one at `s_i = slow`:
///
/// ```text
/// s_lock = (1-p) + p·slow
/// s_bal  = (1-p) + p·n / (n-1 + 1/slow)
/// l = (sl - s_lock) / (s_bal - s_lock)
/// ```
pub fn solve_load_balance(p: f64, n: usize, rel2: f64, rel4: f64, rel5: f64) -> f64 {
    let slow = rel4 / rel2;
    if slow <= 1.02 {
        // The stressor barely affected the workload; the experiment is
        // uninformative, fall back to the neutral midpoint.
        return 0.5;
    }
    let nf = n as f64;
    let s_lock = (1.0 - p) + p * slow;
    let s_bal = (1.0 - p) + p * nf / ((nf - 1.0) + 1.0 / slow);
    let sl = rel5 / rel2;
    if (s_bal - s_lock).abs() < 1e-9 {
        return 0.5;
    }
    ((sl - s_lock) / (s_bal - s_lock)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balance_extremes() {
        // Uniform slowdown of 2x; n = 8, p = 1.
        let p = 1.0;
        let n = 8;
        let rel2 = 0.125;
        let rel4 = 0.25; // slow = 2
        // Fully lock-step: one slowed thread stalls everyone: sl = s_lock = 2.
        let l0 = solve_load_balance(p, n, rel2, rel2 * 2.0, rel2 * 2.0);
        assert!(l0 < 0.05, "lock-step detected: {l0}");
        // Fully balanced: sl = 8 / (7 + 0.5) = 1.0667.
        let sbal = 8.0 / 7.5;
        let l1 = solve_load_balance(p, n, rel2, rel4, rel2 * sbal);
        assert!(l1 > 0.95, "balanced detected: {l1}");
        // Halfway in between.
        let mid = 0.5 * (2.0 + sbal);
        let lh = solve_load_balance(p, n, rel2, rel4, rel2 * mid);
        assert!((lh - 0.5).abs() < 0.05, "midpoint: {lh}");
    }

    #[test]
    fn load_balance_uninformative_defaults_to_half() {
        assert_eq!(solve_load_balance(0.9, 8, 0.2, 0.201, 0.2), 0.5);
    }

    #[test]
    fn load_balance_clamps_to_unit_interval() {
        let l = solve_load_balance(1.0, 8, 0.125, 0.25, 0.5);
        assert!((0.0..=1.0).contains(&l));
        let l = solve_load_balance(1.0, 8, 0.125, 0.25, 0.01);
        assert!((0.0..=1.0).contains(&l));
    }
}
