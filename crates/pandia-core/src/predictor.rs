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

use pandia_topology::{HasShape, Placement, ResourceId, ResourceKind};
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
    let threads: usize = jobs.iter().map(|(_, p)| p.n_threads()).sum();
    let _span = pandia_obs::span("predictor", "predict_jobs")
        .arg("jobs", jobs.len())
        .arg("threads", threads);
    pandia_obs::count("predict.evals", 1);
    machine.validate()?;
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let shape = machine.shape();
    let contexts = shape.total_contexts();
    let mismatch = |reason: String| Err(PandiaError::Mismatch { reason });
    for (workload, placement) in jobs {
        workload.validate()?;
        if workload.demand.dram.len() != shape.sockets {
            return mismatch(format!(
                "workload description '{}' has {} memory nodes but machine has {} sockets \
                 (use retarget_sockets for cross-machine predictions)",
                workload.name,
                workload.demand.dram.len(),
                shape.sockets
            ));
        }
        // `Placement::new` checks a placement against the shape it is
        // given, which need not be this machine's; deserializing checks
        // nothing.
        if placement.n_threads() == 0 {
            return mismatch(format!("placement of '{}' has no threads", workload.name));
        }
        if let Some(ctx) = placement.contexts().iter().find(|ctx| ctx.0 >= contexts) {
            return mismatch(format!(
                "placement of '{}' uses context {} but the machine has {contexts}",
                workload.name, ctx.0
            ));
        }
    }
    let table = machine.resource_table();

    // Flatten all jobs' threads. Thread `t`'s route is
    // `routes[route_start[t]..route_start[t + 1]]`: at most five core and
    // L3 entries, a DRAM channel per memory node and a link per remote
    // one. Sized up front: grown by reallocation, the flat buffer made
    // small joint predictions up to 20% slower once the heap had aged.
    let mut job_ctx: Vec<JobCtx> = Vec::with_capacity(jobs.len());
    let mut routes: Vec<(ResourceId, f64)> = Vec::with_capacity(threads * (4 + 2 * shape.sockets));
    let mut route_start = Vec::with_capacity(threads + 1);
    route_start.push(0);
    let mut sockets: Vec<usize> = Vec::with_capacity(threads);
    let mut cores: Vec<usize> = Vec::with_capacity(threads);
    let mut used_ctx = vec![false; contexts];
    let mut per_core = vec![0usize; shape.total_cores()];
    for (workload, placement) in jobs {
        let start = sockets.len();
        for &ctx in placement.contexts() {
            if used_ctx[ctx.0] {
                return mismatch(format!("co-scheduled placements overlap at context {}", ctx.0));
            }
            used_ctx[ctx.0] = true;
            let core = shape.core_of_ctx(ctx).0;
            per_core[core] += 1;
            cores.push(core);
            workload.demand.route(&shape, &table, ctx, &mut routes);
            route_start.push(routes.len());
            sockets.push(shape.socket_of_ctx(ctx).0);
        }
        let n = placement.n_threads();
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
    let total = sockets.len();
    let route = |t: usize| &routes[route_start[t]..route_start[t + 1]];
    let shares_core: Vec<bool> = cores.iter().map(|&c| per_core[c] >= 2).collect();

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
    let mut f_at_start = vec![0.0_f64; total];
    let mut next_f = vec![0.0_f64; total];
    let mut s_res = vec![1.0_f64; total];
    let mut s = vec![1.0_f64; total];
    let mut comm = vec![0.0_f64; total];
    let mut lb = vec![0.0_f64; total];
    let mut bottleneck: Vec<Option<ResourceKind>> = vec![None; total];
    let mut loads = vec![0.0_f64; table.len()];
    let mut terms = Vec::new();
    let mut penalty = vec![None; shape.sockets];
    let mut s_cap = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        f_at_start.copy_from_slice(&f);

        // Stage 1: resource contention (§5.1) over the *combined* loads.
        loads.fill(0.0);
        for (t, &ft) in f.iter().enumerate() {
            for &(r, d) in route(t) {
                loads[r.0] += d * ft;
            }
        }
        for job in &job_ctx {
            for t in job.threads.clone() {
                let mut worst = 1.0_f64;
                let mut worst_res = None;
                for &(r, d) in route(t) {
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
                    sr *= 1.0 + job.b * f[t];
                }
                s_res[t] = sr.clamp(1.0, s_cap);
                s[t] = s_res[t];
                bottleneck[t] = worst_res;
                f[t] = job.f_initial / s[t];
            }
        }

        // Stage 2: inter-socket communication (§5.2), within each job. A
        // job without the stage adds 0.0, which leaves `s` and `f` as
        // stage 1 set them.
        for job in &job_ctx {
            communication(job, &sockets, &s, &f, &mut terms, &mut penalty, &mut comm);
            for t in job.threads.clone() {
                s[t] = (s[t] + comm[t]).clamp(1.0, s_cap);
                f[t] = job.f_initial / s[t];
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
                f[t] = job.f_initial / s[t];
            }
        }

        // Bound subsequent iterations by the first iteration's worst
        // slowdown (§5.4).
        if iter == 0 {
            s_cap = s.iter().cloned().fold(1.0_f64, f64::max);
        }

        // Feedback into the next iteration (§5.4).
        let dampen = iter + 1 >= config.dampen_after;
        for job in &job_ctx {
            for t in job.threads.clone() {
                next_f[t] = job.f_initial * (s_res[t] / s[t]);
                if dampen {
                    next_f[t] = 0.5 * (next_f[t] + f_at_start[t]);
                }
            }
        }
        let delta = next_f
            .iter()
            .zip(&f_at_start)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        std::mem::swap(&mut f, &mut next_f);
        if delta < config.tolerance {
            break;
        }
    }

    let mut results = Vec::with_capacity(jobs.len());
    for (job, (workload, placement)) in job_ctx.iter().zip(jobs) {
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
                utilization: job.f_initial / s[t],
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

/// One job of a [`predict_jobs`] call: its model parameters and its
/// threads' range in the flattened per-thread arrays.
struct JobCtx {
    l: f64,
    b: f64,
    os: f64,
    amdahl: f64,
    f_initial: f64,
    threads: std::ops::Range<usize>,
}

/// Stage 2 (§5.2) for one job: writes the communication penalty of
/// each of its threads to `comm`, from the threads' `sockets`, their
/// slowdowns `s` after stage 1 and their utilizations `f` (all indexed
/// like `job.threads`).
///
/// A thread on socket `S` sums one term per peer on another socket, in
/// ascending peer order, and that sum is the same for every thread on
/// `S`: it is computed once per occupied socket and kept in `penalty`
/// (one slot per socket of the machine). The additions stay one per
/// peer, as in the per-thread sum (`tests::communication_spec`), so the
/// result is the same to the bit; `k·os`, or the job total less the own
/// socket's share, would round differently. `terms` is scratch for the
/// per-peer independent terms.
fn communication(
    job: &JobCtx,
    sockets: &[usize],
    s: &[f64],
    f: &[f64],
    terms: &mut Vec<f64>,
    penalty: &mut [Option<f64>],
    comm: &mut [f64],
) {
    let r = job.threads.clone();
    let (sockets, s, f, comm) = (&sockets[r.clone()], &s[r.clone()], &f[r.clone()], &mut comm[r]);
    let n = s.len();
    if job.os <= 0.0 || n <= 1 {
        comm.fill(0.0);
        return;
    }
    terms.clear();
    terms.extend(s.iter().map(|s_j| 1.0 / s_j));
    let total_work: f64 = terms.iter().sum();
    for w in terms.iter_mut() {
        *w = *w / total_work * job.os;
    }
    penalty.fill(None);
    for (t, &own) in sockets.iter().enumerate() {
        let p = *penalty[own].get_or_insert_with(|| {
            let mut lockstep = 0.0;
            let mut independent = 0.0;
            for (&socket, &term) in sockets.iter().zip(terms.iter()) {
                if socket != own {
                    lockstep += job.os;
                    independent += term;
                }
            }
            independent *= n as f64;
            job.l * independent + (1.0 - job.l) * lockstep
        });
        comm[t] = p * f[t];
    }
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
    use crate::test_rng::{draw, random_machine, splitmix64};
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

    /// A workload with demand at every level; `l` is 0, 1 or random and
    /// `os` is 0 for one workload in five.
    fn random_workload(rng: &mut u64, sockets: usize) -> WorkloadDescription {
        let scale = 10f64.powf(draw(rng, -2.0, 0.0));
        WorkloadDescription {
            name: "random".into(),
            machine: "random".into(),
            t1: draw(rng, 10.0, 1000.0),
            demand: pandia_topology::DemandVector {
                instr: draw(rng, 0.5, 10.0),
                l1: scale * draw(rng, 0.1, 20.0),
                l2: scale * draw(rng, 0.1, 10.0),
                l3: scale * draw(rng, 0.1, 5.0),
                dram: (0..sockets).map(|_| scale * draw(rng, 0.1, 20.0)).collect(),
            },
            parallel_fraction: draw(rng, 0.5, 1.0),
            inter_socket_overhead: match splitmix64(rng) % 5 {
                0 => 0.0,
                _ => draw(rng, 0.001, 0.05),
            },
            load_balance: match splitmix64(rng) % 4 {
                0 => 0.0,
                1 => 1.0,
                _ => draw(rng, 0.0, 1.0),
            },
            burstiness: draw(rng, 0.0, 1.0),
        }
    }

    /// `jobs` disjoint placements of random sizes over a random
    /// permutation of the machine's contexts, so each job's threads
    /// visit the sockets in no particular order.
    fn random_placements(rng: &mut u64, shape: MachineShape, jobs: usize) -> Vec<Placement> {
        let total = shape.total_contexts();
        let mut ctxs: Vec<CtxId> = (0..total).map(CtxId).collect();
        for i in (1..total).rev() {
            ctxs.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
        }
        let mut rest = &ctxs[..];
        (0..jobs)
            .map(|_| {
                let n = 1 + (splitmix64(rng) % (total / jobs) as u64) as usize;
                let (taken, left) = rest.split_at(n);
                rest = left;
                Placement::new(&shape, taken.to_vec()).unwrap()
            })
            .collect()
    }

    /// §5.2 as the paper states it: each thread sums over every other
    /// thread, skipping those on its own socket.
    fn communication_spec(job: &JobCtx, sockets: &[usize], s: &[f64], f: &[f64]) -> Vec<f64> {
        let n = s.len();
        if job.os <= 0.0 || n <= 1 {
            return vec![0.0; n];
        }
        let works: Vec<f64> = s.iter().map(|s| 1.0 / s).collect();
        let total_work: f64 = works.iter().sum();
        (0..n)
            .map(|t| {
                let mut lockstep = 0.0;
                let mut independent = 0.0;
                for j in 0..n {
                    if j == t || sockets[j] == sockets[t] {
                        continue;
                    }
                    lockstep += job.os;
                    independent += works[j] / total_work * job.os;
                }
                independent *= n as f64;
                (job.l * independent + (1.0 - job.l) * lockstep) * f[t]
            })
            .collect()
    }

    #[test]
    fn communication_matches_the_per_thread_spec_bit_for_bit() {
        let mut rng = 0xc0_ffee_u64;
        let mut confined = 0;
        for sockets_n in [1, 2, 4, 9] {
            let mut penalty = vec![None; sockets_n];
            let mut terms = Vec::new();
            for case in 0..200 {
                // 1-3 jobs, 80 threads at most, laid out one after another
                // in the flat arrays and sharing the scratch buffers.
                let (mut jobs, mut sockets, mut one_socket) = (Vec::new(), Vec::new(), Vec::new());
                for _ in 0..1 + case % 3 {
                    let n = 1 + (splitmix64(&mut rng) % (80 / (1 + case % 3)) as u64) as usize;
                    let home = (splitmix64(&mut rng) % sockets_n as u64) as usize;
                    let confine = splitmix64(&mut rng).is_multiple_of(5);
                    let start = sockets.len();
                    sockets.extend((0..n).map(|_| {
                        let other = (splitmix64(&mut rng) % sockets_n as u64) as usize;
                        if confine { home } else { other }
                    }));
                    one_socket.push(confine);
                    jobs.push(JobCtx {
                        l: match splitmix64(&mut rng) % 4 {
                            0 => 0.0,
                            1 => 1.0,
                            _ => draw(&mut rng, 0.0, 1.0),
                        },
                        b: 0.0,
                        os: match splitmix64(&mut rng) % 6 {
                            0 => 0.0,
                            _ => draw(&mut rng, 0.0, 0.1),
                        },
                        amdahl: 1.0,
                        f_initial: 1.0,
                        threads: start..start + n,
                    });
                }
                let s: Vec<f64> = sockets.iter().map(|_| draw(&mut rng, 1.0, 5.0)).collect();
                let f: Vec<f64> = sockets.iter().map(|_| draw(&mut rng, 0.01, 1.0)).collect();
                let mut comm = vec![f64::NAN; sockets.len()];
                for (job, &confine) in jobs.iter().zip(&one_socket) {
                    communication(job, &sockets, &s, &f, &mut terms, &mut penalty, &mut comm);
                    let r = job.threads.clone();
                    let spec =
                        communication_spec(job, &sockets[r.clone()], &s[r.clone()], &f[r.clone()]);
                    for (t, want) in r.clone().zip(spec) {
                        assert_eq!(
                            comm[t].to_bits(),
                            want.to_bits(),
                            "thread {t} of {r:?} on {sockets_n} sockets: {} vs spec {want}",
                            comm[t]
                        );
                    }
                    if confine {
                        confined += 1;
                        assert!(comm[r].iter().all(|c| c.to_bits() == 0.0_f64.to_bits()));
                    }
                }
            }
        }
        assert!(confined > 100, "{confined} jobs confined to one socket");
    }

    #[test]
    fn placement_for_a_larger_machine_is_rejected() {
        let m = MachineDescription::toy();
        let bigger = MachineShape { sockets: 2, cores_per_socket: 4, threads_per_core: 2 };
        let p = Placement::new(&bigger, vec![CtxId(0), CtxId(9)]).unwrap();
        let err = predict(&m, &WorkloadDescription::example(), &p, &PredictorConfig::default());
        assert!(matches!(err, Err(PandiaError::Mismatch { .. })), "{err:?}");
    }

    #[test]
    fn empty_deserialized_placement_is_rejected() {
        // `Placement::new` refuses an empty placement; deserializing does not.
        let p: Placement = serde_json::from_str(r#"{"ctxs":[]}"#).unwrap();
        assert_eq!(p.n_threads(), 0);
        let m = MachineDescription::toy();
        let err = predict(&m, &WorkloadDescription::example(), &p, &PredictorConfig::default());
        assert!(matches!(err, Err(PandiaError::Mismatch { .. })), "{err:?}");
    }

    /// Folds one word into a digest; a bijection in the digest, so one
    /// changed word always changes the result.
    fn fold(digest: u64, word: u64) -> u64 {
        let mut state = digest ^ word;
        splitmix64(&mut state)
    }

    fn fold_prediction(mut h: u64, p: &Prediction) -> u64 {
        for x in [p.speedup, p.predicted_time, p.amdahl_speedup] {
            h = fold(h, x.to_bits());
        }
        h = fold(h, p.iterations as u64);
        h = fold(h, p.n_threads as u64);
        for t in &p.threads {
            for x in [
                t.resource_slowdown,
                t.communication_penalty,
                t.load_balance_penalty,
                t.slowdown,
                t.utilization,
            ] {
                h = fold(h, x.to_bits());
            }
            let label = t.bottleneck.map(|k| k.label()).unwrap_or_default();
            h = label.bytes().fold(fold(h, label.len() as u64), |h, b| fold(h, u64::from(b)));
        }
        p.resource_loads.iter().fold(h, |h, x| fold(h, x.to_bits()))
    }

    #[test]
    fn seeded_predictions_fold_to_the_recorded_digest() {
        // Every output bit of single-job and 2-3-job predictions on 1-, 2-
        // and 4-socket machines with one and two SMT slots per core. Any
        // change to the predictor's arithmetic moves the digest, so a
        // rewrite that must keep the bits can be checked against it.
        const SHAPES: [MachineShape; 6] = [
            MachineShape { sockets: 1, cores_per_socket: 4, threads_per_core: 1 },
            MachineShape { sockets: 1, cores_per_socket: 4, threads_per_core: 2 },
            MachineShape { sockets: 2, cores_per_socket: 4, threads_per_core: 1 },
            MachineShape { sockets: 2, cores_per_socket: 6, threads_per_core: 2 },
            MachineShape { sockets: 4, cores_per_socket: 3, threads_per_core: 1 },
            MachineShape { sockets: 4, cores_per_socket: 2, threads_per_core: 2 },
        ];
        let default = PredictorConfig::default();
        let dampened = PredictorConfig { tolerance: 1e-12, dampen_after: 3, max_iterations: 40 };
        let mut rng = 0x5eed_d1e5_u64;
        let mut digest = 0;
        let mut predictions = 0;
        for shape in SHAPES {
            for case in 0..40 {
                let m = random_machine(&mut rng, shape);
                let jobs = if case % 2 == 0 { 1 } else { 2 + (splitmix64(&mut rng) % 2) as usize };
                let workloads: Vec<WorkloadDescription> =
                    (0..jobs).map(|_| random_workload(&mut rng, shape.sockets)).collect();
                let placements = random_placements(&mut rng, shape, jobs);
                let pairs: Vec<(&WorkloadDescription, &Placement)> =
                    workloads.iter().zip(&placements).collect();
                let config = if case % 4 == 3 { &dampened } else { &default };
                for p in predict_jobs(&m, &pairs, config).unwrap() {
                    digest = fold_prediction(digest, &p);
                    predictions += 1;
                }
            }
        }
        assert_eq!(predictions, 421);
        assert_eq!(digest, 0xb0fe_a791_a8be_4412, "digest {digest:#018x}");
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
