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

use pandia_topology::{HasShape, Placement, ResourceId, ResourceKind, ResourceTable};
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

    /// The three scalars a placement decision reads.
    pub fn estimate(&self) -> Estimate {
        Estimate {
            n_threads: self.n_threads,
            speedup: self.speedup,
            predicted_time: self.predicted_time,
        }
    }
}

/// What the placement search, the planner and the co-scheduler read from
/// a [`Prediction`] (§1, §6.1), and all that the prediction cache keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of threads in the placement.
    pub n_threads: usize,
    /// Predicted overall speedup relative to the single-thread run.
    pub speedup: f64,
    /// Predicted execution time (`t1 / speedup`).
    pub predicted_time: f64,
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
    Predictor::new(machine).predict(workload, placement, config)
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
    Predictor::new(machine).predict_jobs(jobs, config)
}

/// A machine description with its resource table, built once for every
/// prediction a session, a search or a parameter solve makes on the
/// machine. [`predict`] and [`predict_jobs`] build one per call.
pub(crate) struct Predictor<'m> {
    machine: &'m MachineDescription,
    table: ResourceTable,
}

impl<'m> Predictor<'m> {
    pub(crate) fn new(machine: &'m MachineDescription) -> Self {
        Self { machine, table: machine.resource_table() }
    }

    pub(crate) fn machine(&self) -> &'m MachineDescription {
        self.machine
    }

    /// [`predict`] on this machine.
    pub(crate) fn predict(
        &self,
        workload: &WorkloadDescription,
        placement: &Placement,
        config: &PredictorConfig,
    ) -> Result<Prediction, PandiaError> {
        let mut results = self.predict_jobs(&[(workload, placement)], config)?;
        results.pop().ok_or_else(|| PandiaError::Mismatch {
            reason: "predict_jobs returned no prediction for a single job".into(),
        })
    }

    /// [`predict_jobs`] on this machine.
    pub(crate) fn predict_jobs(
        &self,
        jobs: &[(&WorkloadDescription, &Placement)],
        config: &PredictorConfig,
    ) -> Result<Vec<Prediction>, PandiaError> {
        let (machine, table) = (self.machine, &self.table);
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

        // Flatten all jobs' threads, job-major. Thread `t`'s route is
        // `routes[route_start[t]..route_start[t + 1]]`: at most five core and
        // L3 entries, a DRAM channel per memory node and a link per remote
        // one. Sized up front: grown by reallocation, the flat buffer made
        // small joint predictions up to 20% slower once the heap had aged.
        // `tenants` holds one slot per context, `tpc` per core: the jobs of
        // a core's threads in thread order, and so ascending, then `FREE`.
        let tpc = shape.threads_per_core;
        let mut job_ctx: Vec<JobCtx> = Vec::with_capacity(jobs.len());
        let mut routes: Vec<(ResourceId, f64)> =
            Vec::with_capacity(threads * (4 + 2 * shape.sockets));
        let mut route_start = Vec::with_capacity(threads + 1);
        route_start.push(0);
        let mut used_ctx = vec![false; contexts];
        let mut tenants = vec![FREE; contexts];
        for (j, (workload, placement)) in jobs.iter().enumerate() {
            let start = route_start.len() - 1;
            for &ctx in placement.contexts() {
                if used_ctx[ctx.0] {
                    return mismatch(format!(
                        "co-scheduled placements overlap at context {}",
                        ctx.0
                    ));
                }
                used_ctx[ctx.0] = true;
                let core = shape.core_of_ctx(ctx).0;
                // Each of the core's `tpc` contexts hosts one thread at most,
                // so a slot is free.
                if let Some(slot) = tenants[core * tpc..][..tpc].iter_mut().find(|s| **s == FREE) {
                    *slot = j;
                }
                workload.demand.route(&shape, table, ctx, &mut routes);
                route_start.push(routes.len());
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
                classes: 0..0,
            });
        }
        let route = |t: usize| &routes[route_start[t]..route_start[t + 1]];
        let shares_core = |on_core: &[usize]| on_core.get(1).is_some_and(|&j| j != FREE);

        // Effective capacities: the measured SMT co-schedule factor shrinks the
        // issue capacity of cores hosting two or more threads (§3.2) — from
        // any job.
        let mut caps: Vec<f64> = table.resources().iter().map(|r| r.capacity).collect();
        for (c, on_core) in tenants.chunks_exact(tpc).enumerate() {
            if shares_core(on_core) {
                let id = table.core_issue(pandia_topology::CoreId(c));
                caps[id.0] *= machine.smt_coschedule_factor;
            }
        }

        // One state per thread class (`Class`). A job's classes are
        // contiguous, and `class_of[t]` is thread `t`'s.
        let mut classes: Vec<Class> = Vec::with_capacity(threads);
        let mut class_of: Vec<usize> = Vec::with_capacity(threads);
        for (job, (_, placement)) in job_ctx.iter_mut().zip(jobs) {
            let first = classes.len();
            for (t, &ctx) in job.threads.clone().zip(placement.contexts()) {
                let core = shape.core_of_ctx(ctx).0;
                let socket = shape.socket_of_ctx(ctx).0;
                let on_core = &tenants[core * tpc..][..tpc];
                let same =
                    |k: &Class| k.socket == socket && tenants[k.core * tpc..][..tpc] == *on_core;
                let c = match classes[first..].iter().position(same) {
                    Some(i) => first + i,
                    None => {
                        classes.push(Class {
                            first: t,
                            core,
                            socket,
                            shares_core: shares_core(on_core),
                            f: job.f_initial,
                            s_res: 1.0,
                            s: 1.0,
                            comm: 0.0,
                            lb: 0.0,
                            term: 0.0,
                            worst: None,
                        });
                        classes.len() - 1
                    }
                };
                class_of.push(c);
            }
            job.classes = first..classes.len();
        }

        let mut loads = vec![0.0_f64; table.len()];
        let mut penalty = vec![None; shape.sockets];
        let mut s_cap = f64::INFINITY;
        let mut iterations = 0;

        for iter in 0..config.max_iterations {
            iterations = iter + 1;

            // Stage 1: resource contention (§5.1) over the *combined* loads,
            // which every thread adds to, in thread order.
            loads.fill(0.0);
            for (t, &c) in class_of.iter().enumerate() {
                let f = classes[c].f;
                for &(r, d) in route(t) {
                    loads[r.0] += d * f;
                }
            }
            for job in &job_ctx {
                for class in &mut classes[job.classes.clone()] {
                    // A route lists only positive demands.
                    let mut worst = 1.0_f64;
                    class.worst = None;
                    for (at, &(r, _)) in route(class.first).iter().enumerate() {
                        let over = loads[r.0] / caps[r.0];
                        if over > worst {
                            worst = over;
                            class.worst = Some(at);
                        }
                    }
                    let mut sr = worst;
                    if class.shares_core {
                        sr *= 1.0 + job.b * class.f;
                    }
                    class.s_res = sr.clamp(1.0, s_cap);
                    class.s = class.s_res;
                }
            }

            // Stage 2: inter-socket communication (§5.2), within each job. A
            // job without the stage adds 0.0, which leaves `s` as stage 1 set
            // it.
            for job in &job_ctx {
                communication(job, &class_of, &mut classes, &mut penalty);
                for class in &mut classes[job.classes.clone()] {
                    class.s = (class.s + class.comm).clamp(1.0, s_cap);
                }
            }

            // Stage 3: load-balance penalty (§5.3), within each job.
            for job in &job_ctx {
                let own = &mut classes[job.classes.clone()];
                let s_max = own.iter().map(|c| c.s).fold(1.0_f64, f64::max);
                for class in own {
                    let dragged = job.l * class.s + (1.0 - job.l) * s_max;
                    class.lb = dragged - class.s;
                    class.s = dragged.clamp(1.0, s_cap);
                }
            }

            // Bound subsequent iterations by the first iteration's worst
            // slowdown (§5.4).
            if iter == 0 {
                s_cap = classes.iter().map(|c| c.s).fold(1.0_f64, f64::max);
            }

            // Feedback into the next iteration (§5.4).
            let dampen = iter + 1 >= config.dampen_after;
            let mut delta = 0.0_f64;
            for job in &job_ctx {
                for class in &mut classes[job.classes.clone()] {
                    let mut next = job.f_initial * (class.s_res / class.s);
                    if dampen {
                        next = 0.5 * (next + class.f);
                    }
                    delta = delta.max((next - class.f).abs());
                    class.f = next;
                }
            }
            if delta < config.tolerance {
                break;
            }
        }

        let mut results = Vec::with_capacity(jobs.len());
        for (job, (workload, placement)) in job_ctx.iter().zip(jobs) {
            let members = &class_of[job.threads.clone()];
            let harmonic: f64 =
                members.iter().map(|&c| 1.0 / classes[c].s).sum::<f64>() / members.len() as f64;
            let speedup = job.amdahl * harmonic;
            let threads = job
                .threads
                .clone()
                .zip(members)
                .map(|(t, &c)| {
                    let class = &classes[c];
                    ThreadPrediction {
                        resource_slowdown: class.s_res,
                        communication_penalty: class.comm,
                        load_balance_penalty: class.lb,
                        slowdown: class.s,
                        utilization: job.f_initial / class.s,
                        // The thread's own resource at its class's position.
                        bottleneck: class.worst.map(|at| table.get(route(t)[at].0).kind),
                    }
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
}

/// A free slot of `predict_jobs`'s per-core tenant lists.
const FREE: usize = usize::MAX;

/// One job of a [`predict_jobs`] call: its model parameters, its
/// threads' range in the flattened per-thread arrays and its classes'
/// range in the class table.
struct JobCtx {
    l: f64,
    b: f64,
    os: f64,
    amdahl: f64,
    f_initial: f64,
    threads: std::ops::Range<usize>,
    classes: std::ops::Range<usize>,
}

/// One thread class of a [`predict_jobs`] call and the §5 state its
/// members share: the threads of one job on one socket whose cores host
/// the same multiset of jobs.
///
/// Members share every input of every stage. Their routes differ only
/// in core ids, and a core's load is the sum of its tenants' terms in
/// thread order, which is job-major, so equal tenant lists give equal
/// sums; every core has the same capacities. The key compares the lists
/// themselves, so no two threads share a class unless their states are
/// equal to the bit.
struct Class {
    /// The first member, whose route stands for every member's.
    first: usize,
    /// The first member's core, whose tenant list is the class's key.
    core: usize,
    socket: usize,
    /// Whether the members' cores host two threads or more.
    shares_core: bool,
    /// The utilization the iteration started from.
    f: f64,
    /// The fields of the same names of `ThreadPrediction`.
    s_res: f64,
    s: f64,
    comm: f64,
    lb: f64,
    /// Stage 2's work term of each member: `1/s`, then `w/W·os`.
    term: f64,
    /// The route position of the most oversubscribed resource, if any.
    worst: Option<usize>,
}

/// Stage 2 (§5.2) for one job: sets the communication penalty of each
/// of its classes from their slowdowns after stage 1.
///
/// A thread on socket `S` sums one term per peer on another socket, in
/// thread order, and that sum is the same for every thread on `S`: it is
/// computed once per occupied socket and kept in `penalty` (one slot per
/// socket of the machine). A peer's term `w_j/W·os` is its class's. The
/// total work `W` and the peer sums stay one addition per thread, in
/// thread order, as in the per-thread sum (`tests::communication_spec`),
/// so the result is the same to the bit; `k·os`, or the job total less
/// the own socket's share, would round differently.
fn communication(
    job: &JobCtx,
    class_of: &[usize],
    classes: &mut [Class],
    penalty: &mut [Option<f64>],
) {
    let members = &class_of[job.threads.clone()];
    let n = members.len();
    if job.os <= 0.0 || n <= 1 {
        classes[job.classes.clone()].iter_mut().for_each(|c| c.comm = 0.0);
        return;
    }
    classes[job.classes.clone()].iter_mut().for_each(|c| c.term = 1.0 / c.s);
    let total_work: f64 = members.iter().map(|&c| classes[c].term).sum();
    classes[job.classes.clone()].iter_mut().for_each(|c| c.term = c.term / total_work * job.os);
    penalty.fill(None);
    for c in job.classes.clone() {
        let own = classes[c].socket;
        let p = match penalty[own] {
            Some(p) => p,
            None => {
                let mut lockstep = 0.0;
                let mut independent = 0.0;
                for peer in members.iter().map(|&peer| &classes[peer]) {
                    if peer.socket != own {
                        lockstep += job.os;
                        independent += peer.term;
                    }
                }
                independent *= n as f64;
                *penalty[own].insert(job.l * independent + (1.0 - job.l) * lockstep)
            }
        };
        // `f_initial / s` is the utilization stage 1 left.
        classes[c].comm = p * (job.f_initial / classes[c].s);
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
    use pandia_topology::{CanonicalPlacement, CtxId, MachineShape, Platform};

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

    /// §5 per thread, as Figure 8 draws it: the spec that `predict_jobs`
    /// keeps one state per thread class of. It trusts its inputs.
    fn predict_jobs_spec(
        m: &MachineDescription,
        jobs: &[(&WorkloadDescription, &Placement)],
        config: &PredictorConfig,
    ) -> Vec<Prediction> {
        let (shape, table) = (m.shape(), m.resource_table());
        // Per thread, job-major: its job, socket, core and route.
        let (mut ctx, mut threads) = (Vec::new(), Vec::new());
        for (w, p) in jobs {
            let n = p.n_threads();
            let amdahl = amdahl_speedup(w.parallel_fraction, n);
            let start = threads.len();
            for &c in p.contexts() {
                let mut route = Vec::new();
                w.demand.route(&shape, &table, c, &mut route);
                threads.push((ctx.len(), shape.socket_of_ctx(c).0, shape.core_of_ctx(c), route));
            }
            let (l, b, os) = (w.load_balance, w.burstiness, w.inter_socket_overhead);
            let f_initial = amdahl / n as f64;
            ctx.push(JobCtx { l, b, os, amdahl, f_initial, threads: start..start + n, classes: 0..0 });
        }
        let n = threads.len();
        let job = |t: usize| &ctx[threads[t].0];
        let shares_core = |t: usize| threads.iter().filter(|u| u.2 == threads[t].2).count() >= 2;
        let mut caps: Vec<f64> = table.resources().iter().map(|r| r.capacity).collect();
        for c in 0..shape.total_cores() {
            if threads.iter().filter(|u| u.2.0 == c).count() >= 2 {
                caps[table.core_issue(pandia_topology::CoreId(c)).0] *= m.smt_coschedule_factor;
            }
        }
        let mut f: Vec<f64> = (0..n).map(|t| job(t).f_initial).collect();
        let (mut s_res, mut s, mut comm, mut lb) = (vec![1.0; n], vec![1.0; n], vec![0.0; n], vec![0.0; n]);
        let (mut bottleneck, mut loads) = (vec![None; n], vec![0.0; table.len()]);
        let (mut s_cap, mut iterations) = (f64::INFINITY, 0);
        for iter in 0..config.max_iterations {
            iterations = iter + 1;
            let f_start = f.clone();
            loads.fill(0.0);
            for (t, thread) in threads.iter().enumerate() {
                for &(r, d) in &thread.3 {
                    loads[r.0] += d * f[t];
                }
            }
            for (t, thread) in threads.iter().enumerate() {
                let (mut worst, mut sr) = (None, 1.0_f64);
                for &(r, _) in &thread.3 {
                    if loads[r.0] / caps[r.0] > sr {
                        (worst, sr) = (Some(table.get(r).kind), loads[r.0] / caps[r.0]);
                    }
                }
                if shares_core(t) {
                    sr *= 1.0 + job(t).b * f[t];
                }
                s_res[t] = sr.clamp(1.0, s_cap);
                s[t] = s_res[t];
                bottleneck[t] = worst;
                f[t] = job(t).f_initial / s[t];
            }
            for j in &ctx {
                let r = j.threads.clone();
                let sockets: Vec<usize> = r.clone().map(|t| threads[t].1).collect();
                for (t, c) in r.clone().zip(communication_spec(j, &sockets, &s[r.clone()], &f[r])) {
                    comm[t] = c;
                    s[t] = (s[t] + c).clamp(1.0, s_cap);
                }
            }
            for j in &ctx {
                let s_max = j.threads.clone().map(|t| s[t]).fold(1.0_f64, f64::max);
                for t in j.threads.clone() {
                    let dragged = j.l * s[t] + (1.0 - j.l) * s_max;
                    lb[t] = dragged - s[t];
                    s[t] = dragged.clamp(1.0, s_cap);
                }
            }
            if iter == 0 {
                s_cap = s.iter().copied().fold(1.0_f64, f64::max);
            }
            let mut delta = 0.0_f64;
            for t in 0..n {
                f[t] = job(t).f_initial * (s_res[t] / s[t]);
                if iter + 1 >= config.dampen_after {
                    f[t] = 0.5 * (f[t] + f_start[t]);
                }
                delta = delta.max((f[t] - f_start[t]).abs());
            }
            if delta < config.tolerance {
                break;
            }
        }
        let per_job = ctx.iter().zip(jobs).map(|(j, (w, _))| {
            let r = j.threads.clone();
            let speedup = j.amdahl * (r.clone().map(|t| 1.0 / s[t]).sum::<f64>() / r.len() as f64);
            let thread = |t: usize| ThreadPrediction {
                resource_slowdown: s_res[t],
                communication_penalty: comm[t],
                load_balance_penalty: lb[t],
                slowdown: s[t],
                utilization: j.f_initial / s[t],
                bottleneck: bottleneck[t],
            };
            Prediction {
                n_threads: r.len(),
                amdahl_speedup: j.amdahl,
                speedup,
                predicted_time: w.t1 / speedup,
                threads: r.map(thread).collect(),
                resource_loads: loads.clone(),
                iterations,
            }
        });
        per_job.collect()
    }

    #[test]
    fn communication_matches_the_per_thread_spec_bit_for_bit() {
        let mut rng = 0xc0_ffee_u64;
        let (mut confined, mut shared) = (0, 0);
        for sockets_n in [1, 2, 4, 9] {
            let mut penalty = vec![None; sockets_n];
            for case in 0..200 {
                // 1-3 jobs, 80 threads at most, laid out one after another
                // in the flat arrays and sharing the scratch buffer.
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
                        classes: 0..0,
                    });
                }
                // Each thread joins one of two classes per (job, socket),
                // which carry the slowdown stage 1 left.
                let (mut classes, mut class_of) = (Vec::<Class>::new(), Vec::new());
                for job in &mut jobs {
                    job.f_initial = draw(&mut rng, 0.01, 1.0);
                    let first = classes.len();
                    for t in job.threads.clone() {
                        let core = (splitmix64(&mut rng) % 2) as usize;
                        let same = |k: &Class| (k.socket, k.core) == (sockets[t], core);
                        class_of.push(match classes[first..].iter().position(same) {
                            Some(i) => first + i,
                            None => {
                                let s = draw(&mut rng, 1.0, 5.0);
                                classes.push(Class {
                                    first: t,
                                    core,
                                    socket: sockets[t],
                                    shares_core: false,
                                    f: f64::NAN,
                                    s_res: s,
                                    s,
                                    comm: f64::NAN,
                                    lb: f64::NAN,
                                    term: f64::NAN,
                                    worst: None,
                                });
                                classes.len() - 1
                            }
                        });
                    }
                    job.classes = first..classes.len();
                    shared += job.threads.len() - job.classes.len();
                }
                let s: Vec<f64> = class_of.iter().map(|&c| classes[c].s).collect();
                for (job, &confine) in jobs.iter().zip(&one_socket) {
                    communication(job, &class_of, &mut classes, &mut penalty);
                    let r = job.threads.clone();
                    let f: Vec<f64> = s[r.clone()].iter().map(|s| job.f_initial / s).collect();
                    let spec = communication_spec(job, &sockets[r.clone()], &s[r.clone()], &f);
                    for (t, want) in r.clone().zip(spec) {
                        let got = classes[class_of[t]].comm;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "thread {t} of {r:?} on {sockets_n} sockets: {got} vs spec {want}"
                        );
                    }
                    if confine {
                        confined += 1;
                        let zero = 0.0_f64.to_bits();
                        assert!(classes[job.classes.clone()].iter().all(|c| c.comm.to_bits() == zero));
                    }
                }
            }
        }
        assert!(confined > 100, "{confined} jobs confined to one socket");
        assert!(shared > 10_000, "{shared} threads share a class with an earlier one");
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

    /// Every output word of a prediction, each float as its bits.
    fn words(p: &Prediction) -> Vec<u64> {
        let mut w = vec![p.speedup.to_bits(), p.predicted_time.to_bits(), p.amdahl_speedup.to_bits()];
        w.extend([p.iterations as u64, p.n_threads as u64]);
        for t in &p.threads {
            let floats = [
                t.resource_slowdown,
                t.communication_penalty,
                t.load_balance_penalty,
                t.slowdown,
                t.utilization,
            ];
            w.extend(floats.map(f64::to_bits));
            let label = t.bottleneck.map(|k| k.label()).unwrap_or_default();
            w.push(label.len() as u64);
            w.extend(label.bytes().map(u64::from));
        }
        w.extend(p.resource_loads.iter().map(|x| x.to_bits()));
        w
    }

    fn fold_prediction(h: u64, p: &Prediction) -> u64 {
        words(p).into_iter().fold(h, fold)
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
    #[cfg_attr(debug_assertions, ignore = "about 1 s optimised; CI runs it under --release")]
    fn x5_2_fig10_predictions_fold_to_the_recorded_digest() {
        // The advisor's own inputs: the simulator's x5-2 description, the
        // paper suite's profiles and every paper-density placement, as
        // `fig10_curves` and the `advise-x5-2` benchmark predict them.
        let spec = pandia_topology::MachineSpec::x5_2();
        let mut sim = pandia_sim::SimMachine::new(spec.clone());
        let machine = crate::describe_machine(&mut sim).unwrap();
        let profiler = crate::WorkloadProfiler::new(&machine);
        let workloads: Vec<WorkloadDescription> = pandia_workloads::paper_suite()
            .iter()
            .filter(|w| !w.behavior.requires_avx || spec.has_avx)
            .map(|w| profiler.profile(&mut sim, &w.behavior, w.name).unwrap().description)
            .collect();
        let placements: Vec<Placement> = pandia_topology::PlacementEnumerator::new(&machine)
            .sampled(&machine, 42)
            .iter()
            .map(|c| c.instantiate(&machine).unwrap())
            .collect();
        assert_eq!((workloads.len(), placements.len()), (22, 2_479));
        let config = PredictorConfig::default();
        let mut digest = 0;
        for w in &workloads {
            for p in &placements {
                digest = fold_prediction(digest, &predict(&machine, w, p, &config).unwrap());
            }
        }
        assert_eq!(digest, 0x3b7d_54dc_fd83_73c6, "digest {digest:#018x}");
    }

    /// The simulator, folding every output word of every run it makes:
    /// elapsed, every counter and each thread's busy fraction, floats as
    /// their bits.
    struct FoldingSim {
        sim: pandia_sim::SimMachine,
        digest: u64,
        runs: usize,
    }

    impl FoldingSim {
        fn fold_result(&mut self, r: &pandia_topology::RunResult) {
            let c = &r.counters;
            let mut w = vec![r.elapsed, c.instructions, c.l1_bytes, c.l2_bytes, c.l3_bytes];
            w.push(c.interconnect_bytes);
            w.extend(&c.dram_bytes);
            w.extend(&r.per_thread_busy);
            let lens = [c.dram_bytes.len() as u64, r.per_thread_busy.len() as u64];
            self.digest = w.into_iter().map(f64::to_bits).chain(lens).fold(self.digest, fold);
            self.runs += 1;
        }
    }

    impl Platform for FoldingSim {
        type Workload = pandia_sim::Behavior;

        fn spec(&self) -> &pandia_topology::MachineSpec {
            self.sim.spec()
        }

        fn stress_workload(&self, kind: pandia_topology::StressKind) -> pandia_sim::Behavior {
            self.sim.stress_workload(kind)
        }

        fn run(
            &mut self,
            req: &pandia_topology::RunRequest<pandia_sim::Behavior>,
        ) -> Result<pandia_topology::RunResult, pandia_topology::PlatformError> {
            let r = self.sim.run(req)?;
            self.fold_result(&r);
            Ok(r)
        }

        fn run_multi(
            &mut self,
            req: &pandia_topology::MultiRunRequest<pandia_sim::Behavior>,
        ) -> Result<Vec<pandia_topology::RunResult>, pandia_topology::PlatformError> {
            let results = self.sim.run_multi(req)?;
            results.iter().for_each(|r| self.fold_result(r));
            Ok(results)
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "a few seconds optimised; CI runs it under --release")]
    fn x5_2_simulator_runs_fold_to_the_recorded_digest() {
        // Every output word of the x5-2 description and the 22 paper-suite
        // profiles, then of every 23rd fig10 curve point (workload-major,
        // placement-minor, as `fig10_curves` runs them). The committed
        // curves print six decimals, so only this fold sees a last-bit
        // change in the engine.
        const STRIDE: usize = 23;
        let spec = pandia_topology::MachineSpec::x5_2();
        let sim = pandia_sim::SimMachine::new(spec.clone());
        let mut sim = FoldingSim { sim, digest: 0, runs: 0 };
        let machine = crate::describe_machine(&mut sim).unwrap();
        let profiler = crate::WorkloadProfiler::new(&machine);
        let suite: Vec<_> = pandia_workloads::paper_suite()
            .into_iter()
            .filter(|w| !w.behavior.requires_avx || spec.has_avx)
            .collect();
        for w in &suite {
            profiler.profile(&mut sim, &w.behavior, w.name).unwrap();
        }
        let setup_runs = sim.runs;
        let placements: Vec<Placement> = pandia_topology::PlacementEnumerator::new(&machine)
            .sampled(&machine, 42)
            .iter()
            .map(|c| c.instantiate(&machine).unwrap())
            .collect();
        for point in (0..suite.len() * placements.len()).step_by(STRIDE) {
            let (w, p) = (point / placements.len(), point % placements.len());
            let behavior = suite[w].behavior.clone();
            sim.run(&pandia_topology::RunRequest::new(behavior, placements[p].clone())).unwrap();
        }
        let digest = sim.digest;
        assert_eq!((setup_runs, sim.runs - setup_runs), (404, 2_372), "digest {digest:#018x}");
        assert_eq!(digest, 0x1d66_7bb3_ebaa_1335, "digest {digest:#018x}");
    }

    /// Up to `jobs` disjoint placements whose cores host few distinct
    /// job multisets, so thread classes have many members: every core
    /// takes one of two tenant patterns (a job or nothing per SMT slot),
    /// and each job's contexts are shuffled. A job no pattern names is
    /// left out.
    fn patterned_placements(rng: &mut u64, shape: MachineShape, jobs: usize) -> Vec<Placement> {
        let tpc = shape.threads_per_core;
        let mut ctxs = vec![Vec::new(); jobs];
        let patterns: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..tpc).map(|_| splitmix64(rng) % (jobs as u64 + 1)).collect())
            .collect();
        for core in 0..shape.total_cores() {
            let pattern = &patterns[(splitmix64(rng) % 2) as usize];
            for (slot, &j) in pattern.iter().enumerate() {
                if let Some(job) = ctxs.get_mut(j as usize) {
                    job.push(CtxId(core * tpc + slot));
                }
            }
        }
        ctxs.retain(|c| !c.is_empty());
        for c in &mut ctxs {
            for i in (1..c.len()).rev() {
                c.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
            }
        }
        ctxs.into_iter().map(|c| Placement::new(&shape, c).unwrap()).collect()
    }

    /// The number of thread classes of `placements`: distinct (job,
    /// socket, sorted jobs of the thread's core).
    fn classes_of(shape: MachineShape, placements: &[Placement]) -> usize {
        let threads: Vec<_> = placements
            .iter()
            .enumerate()
            .flat_map(|(j, p)| p.contexts().iter().map(move |&c| (j, shape.core_of_ctx(c))))
            .collect();
        let mut keys: Vec<_> = threads
            .iter()
            .map(|&(j, core)| {
                let tenants: Vec<usize> = threads.iter().filter(|u| u.1 == core).map(|u| u.0).collect();
                (j, shape.socket_of_core(core), tenants)
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }

    #[test]
    fn class_predictions_match_the_per_thread_spec_bit_for_bit() {
        // Seeded 1-3-job predictions on 1-, 2- and 4-socket machines with
        // one and two SMT slots and an SMT co-schedule factor below 1: jobs
        // on a shuffled machine, where they share cores at random, and
        // patterned jobs, whose classes have many members. Every output
        // word must equal the per-thread spec's.
        const SHAPES: [MachineShape; 5] = [
            MachineShape { sockets: 1, cores_per_socket: 4, threads_per_core: 2 },
            MachineShape { sockets: 2, cores_per_socket: 4, threads_per_core: 1 },
            MachineShape { sockets: 2, cores_per_socket: 6, threads_per_core: 2 },
            MachineShape { sockets: 4, cores_per_socket: 3, threads_per_core: 1 },
            MachineShape { sockets: 4, cores_per_socket: 2, threads_per_core: 2 },
        ];
        let dampened = PredictorConfig { tolerance: 1e-12, dampen_after: 3, max_iterations: 40 };
        let mut rng = 0x0c1a_55e5_u64;
        let (mut predictions, mut threads, mut classes) = (0, 0, 0);
        for shape in SHAPES {
            for case in 0..60 {
                let m = random_machine(&mut rng, shape);
                let jobs = 1 + case % 3;
                let placements = if case % 2 == 0 {
                    random_placements(&mut rng, shape, jobs)
                } else {
                    patterned_placements(&mut rng, shape, jobs)
                };
                let workloads: Vec<WorkloadDescription> =
                    placements.iter().map(|_| random_workload(&mut rng, shape.sockets)).collect();
                let pairs: Vec<(&WorkloadDescription, &Placement)> =
                    workloads.iter().zip(&placements).collect();
                let config = if case % 4 == 3 { dampened.clone() } else { PredictorConfig::default() };
                let got = predict_jobs(&m, &pairs, &config).unwrap();
                let want = predict_jobs_spec(&m, &pairs, &config);
                assert_eq!(got.len(), want.len());
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(words(g) == words(w), "{shape:?} case {case} job {j}:\n{g:?}\nvs spec\n{w:?}");
                }
                predictions += got.len();
                if case % 2 == 1 {
                    threads += placements.iter().map(Placement::n_threads).sum::<usize>();
                    classes += classes_of(shape, &placements);
                }
            }
        }
        assert_eq!(predictions, 499);
        assert!(2 * classes < threads, "patterned jobs: {classes} classes of {threads} threads");
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
