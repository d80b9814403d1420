//! The performance predictor (§5).
//!
//! Given a machine description, a workload description, and a proposed
//! placement, the predictor estimates the workload's performance as
//!
//! ```text
//! speedup = AmdahlSpeedup(p, n) × mean(1 / s_i)
//! ```
//!
//! where the per-thread slowdowns `s_i` come from an iterative fixed point
//! over three penalty stages (Figure 8):
//!
//! 1. **Resource contention** (§5.1): each thread's naïve demands (scaled
//!    by its utilization `f_i`) are summed onto the machine's resources;
//!    the thread's slowdown is the oversubscription factor of its most
//!    contended resource, multiplied by `(1 + b·f_i)` when it shares a
//!    core (core burstiness).
//! 2. **Inter-socket communication** (§5.2): per-thread penalties
//!    interpolate between lock-step costs (`Σ_j o_ij`) and
//!    work-weighted independent costs (`n·Σ_j w_j·o_ij`) by the load
//!    balancing factor `l`, scaled by the thread's utilization.
//! 3. **Load imbalance** (§5.3): threads are dragged toward the slowest
//!    thread's slowdown by `(1 - l)`.
//!
//! Between iterations the utilizations restart from `f_initial` scaled by
//! each thread's ratio of contention slowdown to total slowdown (§5.4),
//! transferring what was learned about synchronization into the next
//! iteration's demand estimates. A dampening step engages after 100
//! iterations to prevent oscillation, and all slowdowns are clamped to the
//! range seen on the first iteration (§5.4).

use pandia_topology::{HasShape, Placement, ResourceId, ResourceKind, ThreadId};
use serde::{Deserialize, Serialize};

use crate::{
    description::MachineDescription, error::PandiaError, workload_desc::WorkloadDescription,
};

/// Tunables of the prediction iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Convergence threshold on the max change of any thread utilization.
    pub tolerance: f64,
    /// Iteration count after which dampening engages (paper: 100).
    pub dampen_after: usize,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self { tolerance: 1e-9, dampen_after: 100, max_iterations: 1000 }
    }
}

/// Per-thread details of a prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPrediction {
    /// Slowdown from resource contention (including core burstiness).
    pub resource_slowdown: f64,
    /// Additional slowdown from cross-socket communication.
    pub communication_penalty: f64,
    /// Additional slowdown from load imbalance.
    pub load_balance_penalty: f64,
    /// Total slowdown `s_i`.
    pub slowdown: f64,
    /// Final thread utilization `f_i`.
    pub utilization: f64,
    /// The most oversubscribed resource this thread touches, if any
    /// resource was oversubscribed.
    pub bottleneck: Option<ResourceKind>,
}

/// A complete performance prediction for one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Number of threads in the placement.
    pub n_threads: usize,
    /// Amdahl's-law speedup for this thread count (upper bound).
    pub amdahl_speedup: f64,
    /// Predicted overall speedup relative to the single-thread run.
    pub speedup: f64,
    /// Predicted execution time (`t1 / speedup`).
    pub predicted_time: f64,
    /// Per-thread detail.
    pub threads: Vec<ThreadPrediction>,
    /// Predicted load on every machine resource (same order as the
    /// machine description's resource table), for resource-demand
    /// reasoning and co-scheduling decisions.
    pub resource_loads: Vec<f64>,
    /// Number of iterations until convergence.
    pub iterations: usize,
}

impl Prediction {
    /// Mean thread utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.threads.is_empty() {
            return 0.0;
        }
        self.threads.iter().map(|t| t.utilization).sum::<f64>() / self.threads.len() as f64
    }

    /// Predicted relative time `t_pred / t1` (the `r` values of §4).
    pub fn relative_time(&self, t1: f64) -> f64 {
        self.predicted_time / t1
    }
}

/// Predicts workload performance for a placement (paper §5).
///
/// # Examples
///
/// The paper's worked example: three threads of the Figure 4 workload on
/// the Figure 3 toy machine converge to a speedup of ≈ 1.005 because a
/// single thread nearly saturates the inter-socket link.
///
/// ```
/// use pandia_core::{predict, MachineDescription, PredictorConfig, WorkloadDescription};
/// use pandia_topology::{CtxId, MachineShape, Placement};
///
/// let mut machine = MachineDescription::toy();
/// machine.shape = MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 };
/// let workload = WorkloadDescription::example();
/// let placement = Placement::new(&machine, vec![CtxId(0), CtxId(1), CtxId(4)])?;
/// let prediction = predict(&machine, &workload, &placement, &PredictorConfig::default())?;
/// assert!((prediction.speedup - 1.005).abs() < 0.02);
/// # Ok::<(), pandia_core::PandiaError>(())
/// ```
pub fn predict(
    machine: &MachineDescription,
    workload: &WorkloadDescription,
    placement: &Placement,
    config: &PredictorConfig,
) -> Result<Prediction, PandiaError> {
    let mut results = predict_jobs(machine, &[(workload, placement)], config)?;
    results.pop().ok_or_else(|| PandiaError::Mismatch {
        reason: "predict_jobs returned no prediction for a single job".into(),
    })
}

/// Predicts the performance of several workloads co-scheduled on one
/// machine (the multi-workload extension the paper's §8 anticipates:
/// "we believe this resource-based approach will let Pandia handle mixes
/// of workloads running together by looking at their total demands").
///
/// Every job contributes its utilization-scaled demands to the shared
/// resource loads; each job keeps its own Amdahl speedup, communication
/// structure, load-balancing interpolation, and burstiness factor. The
/// placements must be pairwise disjoint.
pub fn predict_jobs(
    machine: &MachineDescription,
    jobs: &[(&WorkloadDescription, &Placement)],
    config: &PredictorConfig,
) -> Result<Vec<Prediction>, PandiaError> {
    let _span = pandia_obs::span("predictor", "predict_jobs")
        .arg("jobs", jobs.len())
        .arg("threads", jobs.iter().map(|(_, p)| p.contexts().len()).sum::<usize>());
    pandia_obs::count("predict.evals", 1);
    machine.validate()?;
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    for (workload, _) in jobs {
        workload.validate()?;
        if workload.demand.dram.len() != machine.shape.sockets {
            return Err(PandiaError::Mismatch {
                reason: format!(
                    "workload description '{}' has {} memory nodes but machine has {} sockets \
                     (use retarget_sockets for cross-machine predictions)",
                    workload.name,
                    workload.demand.dram.len(),
                    machine.shape.sockets
                ),
            });
        }
    }
    let shape = machine.shape();
    let table = machine.resource_table();

    // Flatten all jobs' threads; remember each thread's job.
    struct JobCtx {
        l: f64,
        b: f64,
        os: f64,
        amdahl: f64,
        f_initial: f64,
        threads: std::ops::Range<usize>,
    }
    let mut job_ctx: Vec<JobCtx> = Vec::with_capacity(jobs.len());
    let mut routes: Vec<Vec<(ResourceId, f64)>> = Vec::new();
    let mut sockets: Vec<usize> = Vec::new();
    let mut used_ctx = vec![false; shape.total_contexts()];
    let mut per_core = vec![0usize; shape.total_cores()];
    for (workload, placement) in jobs {
        let n = placement.n_threads();
        let start = routes.len();
        for t in 0..n {
            let ctx = placement.ctx_of(ThreadId(t));
            if used_ctx[ctx.0] {
                return Err(PandiaError::Mismatch {
                    reason: format!("co-scheduled placements overlap at context {}", ctx.0),
                });
            }
            used_ctx[ctx.0] = true;
            per_core[shape.core_of_ctx(ctx).0] += 1;
            let mut route = Vec::new();
            workload.demand.route(&shape, &table, ctx, &mut route);
            routes.push(route);
            sockets.push(shape.socket_of_ctx(ctx).0);
        }
        let amdahl = amdahl_speedup(workload.parallel_fraction, n);
        job_ctx.push(JobCtx {
            l: workload.load_balance,
            b: workload.burstiness,
            os: workload.inter_socket_overhead,
            amdahl,
            f_initial: amdahl / n as f64,
            threads: start..start + n,
        });
    }
    let total = routes.len();
    // Flat context list across jobs, in the same order as `routes`.
    let flat_ctxs: Vec<pandia_topology::CtxId> = jobs
        .iter()
        .flat_map(|(_, placement)| {
            (0..placement.n_threads()).map(|i| placement.ctx_of(ThreadId(i)))
        })
        .collect();
    let shares_core: Vec<bool> = flat_ctxs
        .iter()
        .map(|&ctx| per_core[shape.core_of_ctx(ctx).0] >= 2)
        .collect();

    // Effective capacities: the measured SMT co-schedule factor shrinks the
    // issue capacity of cores hosting two or more threads (§3.2) — from
    // any job.
    let mut caps: Vec<f64> = table.resources().iter().map(|r| r.capacity).collect();
    for (c, &occ) in per_core.iter().enumerate() {
        if occ >= 2 {
            let id = table.core_issue(pandia_topology::CoreId(c));
            caps[id.0] *= machine.smt_coschedule_factor;
        }
    }

    let mut f: Vec<f64> =
        job_ctx.iter().flat_map(|j| j.threads.clone().map(move |_| j.f_initial)).collect();
    let mut s_res = vec![1.0_f64; total];
    let mut s = vec![1.0_f64; total];
    let mut comm = vec![0.0_f64; total];
    let mut lb = vec![0.0_f64; total];
    let mut bottleneck: Vec<Option<ResourceKind>> = vec![None; total];
    let mut loads = vec![0.0_f64; table.len()];
    let mut s_cap = f64::INFINITY;
    let mut iterations = 0;
    let f_initial_of: Vec<f64> =
        job_ctx.iter().flat_map(|j| j.threads.clone().map(move |_| j.f_initial)).collect();
    let job_of: Vec<usize> = job_ctx
        .iter()
        .enumerate()
        .flat_map(|(k, j)| j.threads.clone().map(move |_| k))
        .collect();

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        let f_at_start = f.clone();

        // Stage 1: resource contention (§5.1) over the *combined* loads.
        loads.iter_mut().for_each(|v| *v = 0.0);
        for t in 0..total {
            for &(r, d) in &routes[t] {
                loads[r.0] += d * f[t];
            }
        }
        for t in 0..total {
            let mut worst = 1.0_f64;
            let mut worst_res = None;
            for &(r, d) in &routes[t] {
                if d <= 0.0 {
                    continue;
                }
                let over = loads[r.0] / caps[r.0];
                if over > worst {
                    worst = over;
                    worst_res = Some(table.get(r).kind);
                }
            }
            let mut sr = worst;
            if shares_core[t] {
                sr *= 1.0 + job_ctx[job_of[t]].b * f[t];
            }
            s_res[t] = sr.clamp(1.0, s_cap);
            s[t] = s_res[t];
            bottleneck[t] = worst_res;
            f[t] = f_initial_of[t] / s[t];
        }

        // Stage 2: inter-socket communication (§5.2), within each job.
        for job in &job_ctx {
            let range = job.threads.clone();
            let n = range.len();
            if job.os <= 0.0 || n <= 1 {
                for t in range {
                    comm[t] = 0.0;
                }
                continue;
            }
            let works: Vec<f64> = range.clone().map(|t| 1.0 / s[t]).collect();
            let total_work: f64 = works.iter().sum();
            for t in range.clone() {
                let mut lockstep = 0.0;
                let mut independent = 0.0;
                for j in range.clone() {
                    if j == t || sockets[j] == sockets[t] {
                        continue;
                    }
                    lockstep += job.os;
                    independent += works[j - range.start] / total_work * job.os;
                }
                independent *= n as f64;
                let penalty = job.l * independent + (1.0 - job.l) * lockstep;
                comm[t] = penalty * f[t];
            }
            for t in range {
                s[t] = (s[t] + comm[t]).clamp(1.0, s_cap);
                f[t] = f_initial_of[t] / s[t];
            }
        }

        // Stage 3: load-balance penalty (§5.3), within each job.
        for job in &job_ctx {
            let range = job.threads.clone();
            let s_max = range.clone().map(|t| s[t]).fold(1.0_f64, f64::max);
            for t in range {
                let dragged = job.l * s[t] + (1.0 - job.l) * s_max;
                lb[t] = dragged - s[t];
                s[t] = dragged.clamp(1.0, s_cap);
                f[t] = f_initial_of[t] / s[t];
            }
        }

        // Bound subsequent iterations by the first iteration's worst
        // slowdown (§5.4).
        if iter == 0 {
            s_cap = s.iter().cloned().fold(1.0_f64, f64::max);
        }

        // Feedback into the next iteration (§5.4).
        let mut next_f: Vec<f64> =
            (0..total).map(|t| f_initial_of[t] * (s_res[t] / s[t])).collect();
        if iter + 1 >= config.dampen_after {
            for t in 0..total {
                next_f[t] = 0.5 * (next_f[t] + f_at_start[t]);
            }
        }
        let delta = next_f
            .iter()
            .zip(&f_at_start)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        f = next_f;
        if delta < config.tolerance {
            break;
        }
    }

    let mut results = Vec::with_capacity(jobs.len());
    for (k, (workload, placement)) in jobs.iter().enumerate() {
        let job = &job_ctx[k];
        let range = job.threads.clone();
        let n = range.len();
        let harmonic: f64 = range.clone().map(|t| 1.0 / s[t]).sum::<f64>() / n as f64;
        let speedup = job.amdahl * harmonic;
        let threads = range
            .map(|t| ThreadPrediction {
                resource_slowdown: s_res[t],
                communication_penalty: comm[t],
                load_balance_penalty: lb[t],
                slowdown: s[t],
                utilization: f_initial_of[t] / s[t],
                bottleneck: bottleneck[t],
            })
            .collect();
        results.push(Prediction {
            n_threads: placement.n_threads(),
            amdahl_speedup: job.amdahl,
            speedup,
            predicted_time: workload.t1 / speedup,
            threads,
            resource_loads: loads.clone(),
            iterations,
        });
    }
    Ok(results)
}

/// Amdahl's-law speedup of `n_threads` threads at parallel fraction
/// `parallel_fraction`: the speedup a prediction reaches when no thread
/// is slowed down, and so the most any prediction reaches.
pub(crate) fn amdahl_speedup(parallel_fraction: f64, n_threads: usize) -> f64 {
    1.0 / ((1.0 - parallel_fraction) + parallel_fraction / n_threads as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{CanonicalPlacement, CtxId, MachineShape};

    /// The placement of the worked example: threads U and V share a core
    /// on socket 0 and thread W runs on socket 1.
    ///
    /// The toy machine of Figure 3 has one hardware thread per core, which
    /// cannot host two threads on one core; the text's example implicitly
    /// allows it. We reproduce it with a variant toy shape with 2 SMT
    /// slots per core (capacities unchanged), exactly preserving the
    /// example's arithmetic.
    fn example_machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 };
        m
    }

    fn example_placement(m: &MachineDescription) -> Placement {
        // ctx 0,1 = socket 0 core 0 slots 0/1; ctx 4 = socket 1 core 2.
        Placement::new(m, vec![CtxId(0), CtxId(1), CtxId(4)]).unwrap()
    }

    fn example_prediction_after(iters: usize) -> Prediction {
        let m = example_machine();
        let w = WorkloadDescription::example();
        let p = example_placement(&m);
        let config = PredictorConfig {
            max_iterations: iters,
            dampen_after: 100,
            tolerance: 0.0,
        };
        predict(&m, &w, &p, &config).unwrap()
    }

    #[test]
    fn amdahl_and_initial_utilization_match_section_5() {
        let pred = example_prediction_after(1);
        assert!((pred.amdahl_speedup - 2.5).abs() < 1e-12);
        // f_initial = 2.5 / 3 = 0.8333.
        // (Checked indirectly through the stage values below.)
        assert_eq!(pred.n_threads, 3);
    }

    #[test]
    fn first_iteration_matches_figure_7() {
        let pred = example_prediction_after(1);
        // Figure 7c/d/e, first iteration:
        //   U, V: resource slowdown 2.83, +comm 0.03, total 2.87
        //   W:    resource slowdown 2.00, +comm 0.08, +lb 0.40, total 2.48
        let u = &pred.threads[0];
        let v = &pred.threads[1];
        let w = &pred.threads[2];
        assert!((u.resource_slowdown - 2.833).abs() < 0.01, "U s_res {}", u.resource_slowdown);
        assert!((v.resource_slowdown - 2.833).abs() < 0.01);
        assert!((w.resource_slowdown - 2.000).abs() < 0.01, "W s_res {}", w.resource_slowdown);
        assert!((u.communication_penalty - 0.033).abs() < 0.005, "U comm {}", u.communication_penalty);
        assert!((w.communication_penalty - 0.078).abs() < 0.01, "W comm {}", w.communication_penalty);
        assert!((u.slowdown - 2.87).abs() < 0.01, "U total {}", u.slowdown);
        assert!((w.slowdown - 2.47).abs() < 0.02, "W total {}", w.slowdown);
        assert!((w.load_balance_penalty - 0.39).abs() < 0.02, "W lb {}", w.load_balance_penalty);
        // Utilizations: U,V -> 0.29, W -> 0.34 after the full iteration.
        assert!((u.utilization - 0.29).abs() < 0.01);
        assert!((w.utilization - 0.337).abs() < 0.01, "W f {}", w.utilization);
        // The bottleneck is the interconnect.
        assert!(matches!(u.bottleneck, Some(ResourceKind::Interconnect(_))));
    }

    #[test]
    fn second_iteration_demands_match_figure_9() {
        // After iteration 1 the utilizations restart at 0.82/0.82/0.67
        // (Figure 9a), giving DRAM loads of ~92.8 (Figure 9b). We verify
        // via the loads recorded during iteration 2's stage 1.
        let pred = example_prediction_after(2);
        let m = example_machine();
        let table = m.resource_table();
        let dram0 = pred.resource_loads[table.dram(pandia_topology::SocketId(0)).0];
        let link = pred.resource_loads
            [table.interconnect(pandia_topology::SocketId(0), pandia_topology::SocketId(1)).unwrap().0];
        assert!((dram0 - 92.8).abs() < 1.0, "dram load {dram0}");
        assert!((link - 92.8).abs() < 1.0, "link load {link}");
    }

    #[test]
    fn converged_speedup_matches_section_5_5() {
        let m = example_machine();
        let w = WorkloadDescription::example();
        let p = example_placement(&m);
        let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        // §5.5: "a predicted speedup of 1.005 after 4 iterations".
        assert!(
            (pred.speedup - 1.005).abs() < 0.02,
            "converged speedup {} after {} iterations",
            pred.speedup,
            pred.iterations
        );
        assert!(pred.iterations <= 20, "should converge quickly: {}", pred.iterations);
        assert!((pred.predicted_time - w.t1 / pred.speedup).abs() < 1e-9);
    }

    #[test]
    fn single_thread_prediction_is_exact_without_contention() {
        let m = MachineDescription::toy();
        let mut w = WorkloadDescription::example();
        // Halve the DRAM demand so a single thread fits the interconnect.
        w.demand.dram = vec![20.0, 20.0];
        let p = Placement::new(&m, vec![CtxId(0)]).unwrap();
        let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        assert!((pred.speedup - 1.0).abs() < 1e-9);
        assert!((pred.predicted_time - w.t1).abs() < 1e-6);
        assert_eq!(pred.threads[0].bottleneck, None);
    }

    #[test]
    fn speedup_never_exceeds_amdahl_bound() {
        let m = example_machine();
        let w = WorkloadDescription::example();
        for canon in [
            CanonicalPlacement::new(vec![vec![1]]),
            CanonicalPlacement::new(vec![vec![1, 1]]),
            CanonicalPlacement::new(vec![vec![2, 2], vec![2, 2]]),
            CanonicalPlacement::new(vec![vec![1, 1], vec![1, 1]]),
        ] {
            let p = canon.instantiate(&m).unwrap();
            let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
            assert!(pred.speedup <= pred.amdahl_speedup + 1e-9);
            assert!(pred.speedup > 0.0);
            for t in &pred.threads {
                assert!(t.slowdown >= 1.0 - 1e-12);
                assert!(t.utilization > 0.0 && t.utilization <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn mismatched_socket_counts_are_rejected() {
        let m = example_machine();
        let mut w = WorkloadDescription::example();
        w.demand.dram = vec![40.0, 40.0, 40.0, 40.0];
        let p = example_placement(&m);
        let err = predict(&m, &w, &p, &PredictorConfig::default()).unwrap_err();
        assert!(matches!(err, PandiaError::Mismatch { .. }));
        // Retargeting fixes it.
        let w2 = w.retarget_sockets(2);
        assert!(predict(&m, &w2, &p, &PredictorConfig::default()).is_ok());
    }

    #[test]
    fn smt_coschedule_factor_slows_shared_cores() {
        let mut m = example_machine();
        let mut w = WorkloadDescription::example();
        // CPU-bound variant: no memory traffic, high instruction demand.
        w.demand = pandia_topology::DemandVector {
            instr: 8.0,
            l1: 0.0,
            l2: 0.0,
            l3: 0.0,
            dram: vec![0.0, 0.0],
        };
        w.burstiness = 0.0;
        let p = Placement::new(&m, vec![CtxId(0), CtxId(1)]).unwrap();
        let base = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        m.smt_coschedule_factor = 0.8;
        let slowed = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        assert!(slowed.speedup < base.speedup);
    }

    #[test]
    fn load_balance_zero_drags_everyone_to_the_straggler() {
        let m = example_machine();
        let mut w = WorkloadDescription::example();
        w.load_balance = 0.0;
        let p = example_placement(&m);
        let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        let s: Vec<f64> = pred.threads.iter().map(|t| t.slowdown).collect();
        assert!((s[0] - s[2]).abs() < 1e-9, "lock-step threads equalize: {s:?}");
    }

    #[test]
    fn iteration_cap_and_dampening_terminate() {
        // Force a pathological config: zero tolerance, tiny dampen_after.
        let m = example_machine();
        let w = WorkloadDescription::example();
        let p = example_placement(&m);
        let config = PredictorConfig { tolerance: 0.0, dampen_after: 2, max_iterations: 150 };
        let pred = predict(&m, &w, &p, &config).unwrap();
        assert_eq!(pred.iterations, 150, "runs to the cap with zero tolerance");
        assert!(pred.speedup.is_finite() && pred.speedup > 0.0);
        // Dampening keeps the result close to the default fixed point.
        let default_pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        assert!((pred.speedup - default_pred.speedup).abs() < 0.05);
    }

    #[test]
    fn slowdowns_clamped_to_first_iteration_range() {
        let m = example_machine();
        let mut w = WorkloadDescription::example();
        // Exaggerate burstiness to stress the feedback loop.
        w.burstiness = 3.0;
        let p = example_placement(&m);
        let one =
            predict(&m, &w, &p, &PredictorConfig { max_iterations: 1, tolerance: 0.0, dampen_after: 100 })
                .unwrap();
        let cap = one.threads.iter().map(|t| t.slowdown).fold(1.0_f64, f64::max);
        let full = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        for t in &full.threads {
            assert!(t.slowdown <= cap + 1e-9, "slowdown {} above first-iteration cap {cap}", t.slowdown);
            assert!(t.slowdown >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn single_socket_machine_has_no_communication_penalty() {
        let mut m = MachineDescription::toy();
        m.shape = MachineShape { sockets: 1, cores_per_socket: 4, threads_per_core: 1 };
        let mut w = WorkloadDescription::example();
        w.demand.dram = vec![20.0];
        w.inter_socket_overhead = 0.5; // would be huge if it applied
        let p = Placement::spread(&m, 4).unwrap();
        let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        for t in &pred.threads {
            assert_eq!(t.communication_penalty, 0.0);
        }
    }

    #[test]
    fn more_threads_never_increase_predicted_time_for_clean_workloads() {
        // A perfectly parallel CPU-light workload: predicted time is
        // non-increasing in thread count for spread placements.
        let m = example_machine();
        let w = WorkloadDescription {
            name: "clean".into(),
            machine: m.machine.clone(),
            t1: 100.0,
            demand: pandia_topology::DemandVector {
                instr: 2.0,
                l1: 0.0,
                l2: 0.0,
                l3: 0.0,
                dram: vec![1.0, 1.0],
            },
            parallel_fraction: 1.0,
            inter_socket_overhead: 0.0,
            load_balance: 1.0,
            burstiness: 0.0,
        };
        let mut last = f64::INFINITY;
        for n in 1..=4 {
            let canon = CanonicalPlacement::new(vec![vec![1; n.min(2)], vec![1; n.saturating_sub(2)]]);
            let p = canon.instantiate(&m).unwrap();
            let t = predict(&m, &w, &p, &PredictorConfig::default()).unwrap().predicted_time;
            assert!(t <= last + 1e-9, "time increased at n={n}: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn resource_loads_reflect_scaled_demands() {
        let m = example_machine();
        let w = WorkloadDescription::example();
        let p = example_placement(&m);
        let pred = predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        let table = m.resource_table();
        // Loads are recorded at the final iteration's contention stage,
        // where each thread's demand is scaled by the feedback utilization
        // f_initial * (s_res / s).
        let f_initial = pred.amdahl_speedup / pred.n_threads as f64;
        let f_sum: f64 = pred
            .threads
            .iter()
            .map(|t| f_initial * t.resource_slowdown / t.slowdown)
            .sum();
        let dram0 = pred.resource_loads[table.dram(pandia_topology::SocketId(0)).0];
        assert!((dram0 - 40.0 * f_sum).abs() < 2.0, "dram0 {dram0} vs 40*{f_sum}");
    }

    #[test]
    fn prediction_is_fast_enough_for_search() {
        // "Making predictions using Pandia takes a fraction of a second
        // per placement" — ours should be far under a millisecond.
        let m = example_machine();
        let w = WorkloadDescription::example();
        let p = example_placement(&m);
        let start = std::time::Instant::now();
        for _ in 0..100 {
            predict(&m, &w, &p, &PredictorConfig::default()).unwrap();
        }
        assert!(start.elapsed().as_secs_f64() < 1.0);
    }
}
