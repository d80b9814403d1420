//! Multi-workload co-scheduling (the paper's §8 future work).
//!
//! "We believe Pandia's prediction of resource consumption as well as
//! overall workload performance will let us handle cases with multiple
//! workloads sharing a machine." This module realizes that: given several
//! profiled workloads, [`predict_jobs`](crate::predictor::predict_jobs)
//! estimates each one's performance under a *joint* placement (shared
//! resource loads, per-job Amdahl and synchronization models), and
//! [`CoScheduler`] searches joint placements for a good assignment.
//!
//! The search space of joint placements is enormous, so the scheduler
//! explores a structured family: for each job, a per-socket thread budget
//! drawn from a small template set (socket-exclusive, split, SMT-packed),
//! composed so the jobs never overlap. This mirrors how operators actually
//! carve up machines, and keeps the search transparent. Within the
//! family the search is exact but lazy: a branch and bound on each job's
//! Amdahl floor predicts only the combinations that could still win.

use pandia_topology::{CtxId, HasShape, MachineShape, Placement};
use serde::{Deserialize, Serialize};

use crate::{
    description::MachineDescription,
    error::PandiaError,
    exec::{ExecContext, JointSession},
    predictor::{amdahl_speedup, Estimate, PredictorConfig},
    workload_desc::WorkloadDescription,
};

/// The most jobs one search places: the template family grows
/// combinatorially with the job count.
const MAX_JOBS: usize = 3;

/// How a joint placement assigns one job's threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAssignment {
    /// Job name (from its workload description).
    pub workload: String,
    /// Thread count.
    pub n_threads: usize,
    /// Threads per socket.
    pub threads_per_socket: Vec<usize>,
    /// Whether the job packs two threads per core.
    pub smt_packed: bool,
}

/// A complete co-scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSchedule {
    /// Per-job assignments, in input order.
    pub assignments: Vec<JobAssignment>,
    /// Per-job predictions under the joint placement: what the
    /// objective and every reader use of each.
    pub predictions: Vec<Estimate>,
    /// The objective value (lower is better).
    pub objective: f64,
    /// The concrete placements (disjoint), in input order.
    pub placements: Vec<Placement>,
}

/// Objective for ranking joint placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the longest predicted completion time (makespan).
    Makespan,
    /// Minimize the sum of predicted completion times.
    TotalTime,
    /// Minimize the worst per-job slowdown relative to running alone on
    /// the whole machine (fairness).
    WorstSlowdown,
}

/// Searches joint placements for several workloads.
///
/// # Examples
///
/// ```
/// use pandia_core::{CoScheduler, MachineDescription, WorkloadDescription};
/// use pandia_topology::MachineShape;
///
/// let mut machine = MachineDescription::toy();
/// machine.shape = MachineShape { sockets: 2, cores_per_socket: 4, threads_per_core: 2 };
/// let mut job = WorkloadDescription::example();
/// job.demand.dram = vec![5.0, 5.0]; // leave interconnect headroom
/// let schedule = CoScheduler::new(&machine).schedule(&[&job, &job])?;
/// assert_eq!(schedule.assignments.len(), 2);
/// # Ok::<(), pandia_core::PandiaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoScheduler<'m> {
    machine: &'m MachineDescription,
    config: PredictorConfig,
    objective: Objective,
    exec: ExecContext,
}

impl<'m> CoScheduler<'m> {
    /// Creates a scheduler against a machine description.
    pub fn new(machine: &'m MachineDescription) -> Self {
        Self {
            machine,
            config: PredictorConfig::default(),
            objective: Objective::Makespan,
            exec: ExecContext::serial(),
        }
    }

    /// Sets the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the execution context: its cache memoizes the joint
    /// predictions. The search walks its candidates in one sequence and
    /// stops early, so the worker count does not matter, and the chosen
    /// schedule is identical under every context.
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }

    /// Finds the best joint placement for the given jobs.
    ///
    /// Currently supports one to three jobs; the template family grows
    /// combinatorially beyond that.
    ///
    /// The search is an exact best-first branch and bound. `predict_jobs`
    /// clamps every thread's slowdown to at least 1, so no job beats its
    /// Amdahl floor `t1 / amdahl(n)`, and every objective is monotone in
    /// each job's time, so the objective of a combination's floors bounds
    /// the objective of its prediction. Combinations are predicted in
    /// (bound, counter) order until a bound exceeds the best objective
    /// found; the result is the first strictly lowest objective in
    /// counter order, exactly what predicting every combination gives.
    pub fn schedule(&self, jobs: &[&WorkloadDescription]) -> Result<CoSchedule, PandiaError> {
        let _span = pandia_obs::span("coschedule", "schedule").arg("jobs", jobs.len());
        if jobs.is_empty() || jobs.len() > MAX_JOBS {
            return Err(PandiaError::Mismatch {
                reason: format!("co-scheduler supports 1-{MAX_JOBS} jobs, got {}", jobs.len()),
            });
        }
        let shape = self.machine.shape();
        let templates = job_templates(&shape, jobs.len());
        let solo_times = self.solo_times(jobs, |job| {
            CoScheduler::new(self.machine)
                .with_objective(Objective::Makespan)
                .with_exec(self.exec.clone())
                .schedule(&[job])
        })?;
        let floors: Vec<Vec<f64>> = jobs
            .iter()
            .map(|job| templates.iter().map(|t| amdahl_floor(job, t.n_threads())).collect())
            .collect();
        let mut order: Vec<(f64, usize)> = Vec::new();
        for counter in 0..templates.len().pow(jobs.len() as u32) {
            let combo = &combination(counter, templates.len())[..jobs.len()];
            if !may_fit(&shape, &templates, combo) {
                continue;
            }
            let mut bounds = [0.0; MAX_JOBS];
            for ((bound, floors), &t) in bounds.iter_mut().zip(&floors).zip(combo) {
                *bound = floors[t];
            }
            order.push((self.objective_of(&bounds[..jobs.len()], solo_times.as_deref()), counter));
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let session = JointSession::new(&self.exec, self.machine, &self.config, jobs)?;
        let mut best: Option<(CoSchedule, usize)> = None;
        for (bound, counter) in order {
            // Every combination left has objective >= bound > best: none
            // can win or tie.
            if best.as_ref().is_some_and(|(b, _)| bound > b.objective) {
                break;
            }
            let combo = &combination(counter, templates.len())[..jobs.len()];
            let Some(candidate) =
                self.evaluate(jobs, &templates, combo, solo_times.as_deref(), &session)?
            else {
                continue;
            };
            debug_assert!(
                bound <= candidate.objective,
                "bound {bound} above objective {} at combination {counter}",
                candidate.objective
            );
            let wins = match &best {
                None => true,
                Some((b, c)) => {
                    candidate.objective < b.objective
                        || (candidate.objective == b.objective && counter < *c)
                }
            };
            if wins {
                best = Some((candidate, counter));
            }
        }
        best.map(|(schedule, _)| schedule)
            .ok_or(PandiaError::Mismatch { reason: "no feasible joint placement found".into() })
    }

    /// Each job's predicted time alone on the machine under its own best
    /// template, which [`Objective::WorstSlowdown`] divides by; `None`
    /// for the other objectives and for one job. `solo` schedules one job.
    fn solo_times(
        &self,
        jobs: &[&WorkloadDescription],
        solo: impl Fn(&WorkloadDescription) -> Result<CoSchedule, PandiaError>,
    ) -> Result<Option<Vec<f64>>, PandiaError> {
        if self.objective != Objective::WorstSlowdown || jobs.len() < 2 {
            return Ok(None);
        }
        let mut times = Vec::with_capacity(jobs.len());
        for job in jobs {
            times.push(solo(job)?.predictions[0].predicted_time);
        }
        Ok(Some(times))
    }

    /// Materializes one template combination and predicts it jointly;
    /// `None` when the templates do not fit the machine together.
    fn evaluate(
        &self,
        jobs: &[&WorkloadDescription],
        options: &[Template],
        idx: &[usize],
        solo_times: Option<&[f64]>,
        session: &JointSession<'_>,
    ) -> Result<Option<CoSchedule>, PandiaError> {
        let shape = self.machine.shape();
        // Materialize placements, tracking per-core occupancy to keep the
        // jobs disjoint.
        let mut slot_cursor = vec![0usize; shape.total_cores()];
        let mut placements = Vec::with_capacity(jobs.len());
        let mut assignments = Vec::with_capacity(jobs.len());
        for (j, workload) in jobs.iter().enumerate() {
            let template = &options[idx[j]];
            match template.materialize(&shape, &mut slot_cursor) {
                Some(placement) => {
                    assignments.push(JobAssignment {
                        workload: workload.name.clone(),
                        n_threads: placement.n_threads(),
                        threads_per_socket: placement.threads_per_socket(&shape),
                        smt_packed: template.smt_packed,
                    });
                    placements.push(placement);
                }
                None => return Ok(None), // infeasible combination
            }
        }
        let predictions = session.predict_jobs(&placements)?;
        let times: Vec<f64> = predictions.iter().map(|p| p.predicted_time).collect();
        let objective = self.objective_of(&times, solo_times);
        Ok(Some(CoSchedule { assignments, predictions, objective, placements }))
    }

    /// The objective over per-job times (lower is better). It is monotone
    /// in each time under IEEE rounding (`max`, sums, scaling by a
    /// positive constant and dividing by a fixed positive time all are),
    /// so over per-job lower bounds it bounds the objective from below.
    fn objective_of(&self, times: &[f64], solo_times: Option<&[f64]>) -> f64 {
        match self.objective {
            // Total time as a small tie-breaker: among equal makespans,
            // prefer finishing the other jobs sooner.
            Objective::Makespan => {
                let makespan = times.iter().copied().fold(0.0_f64, f64::max);
                let total: f64 = times.iter().sum();
                makespan + 1e-3 * total
            }
            Objective::TotalTime => times.iter().sum(),
            Objective::WorstSlowdown => {
                // Relative to each job running alone on the machine with
                // its own best template (precomputed by `schedule`).
                let mut worst = 0.0_f64;
                for (j, &time) in times.iter().enumerate() {
                    let solo_time = solo_times.and_then(|t| t.get(j).copied()).unwrap_or(time);
                    worst = worst.max(time / solo_time.max(1e-12));
                }
                worst
            }
        }
    }
}

/// The fastest a job can run on `n_threads`: `t1` over its Amdahl
/// speedup, computed with the predictor's own expression. A prediction's
/// speedup is that Amdahl speedup times the harmonic mean of slowdowns
/// clamped to at least 1, which rounds to at most 1, and IEEE rounding is
/// monotone, so no joint prediction's time is below this, bit for bit.
fn amdahl_floor(job: &WorkloadDescription, n_threads: usize) -> f64 {
    job.t1 / amdahl_speedup(job.parallel_fraction, n_threads)
}

/// Whether the templates `combo` can fit the machine together, by
/// counting: on every socket their threads must fit its contexts, and
/// the threads of unpacked templates, one per untouched core, its cores.
/// Necessary for [`Template::materialize`] to place them all, not
/// sufficient; it keeps most infeasible combinations out of the walk.
fn may_fit(shape: &MachineShape, templates: &[Template], combo: &[usize]) -> bool {
    (0..shape.sockets).all(|s| {
        let (mut all, mut unpacked) = (0, 0);
        for &t in combo {
            let n = templates[t].threads_per_socket[s];
            all += n;
            if !templates[t].smt_packed {
                unpacked += n;
            }
        }
        all <= shape.cores_per_socket * shape.threads_per_core && unpacked <= shape.cores_per_socket
    })
}

/// The template indices of combination `counter` in the cartesian
/// product of every job's options, job 0's index varying fastest: the
/// counter's base-`n_options` digits, lowest first. Digits past the job
/// count are 0.
fn combination(mut counter: usize, n_options: usize) -> [usize; MAX_JOBS] {
    let mut digits = [0; MAX_JOBS];
    for digit in &mut digits {
        *digit = counter % n_options;
        counter /= n_options;
    }
    digits
}

/// A per-job placement template: threads per socket plus SMT packing.
#[derive(Debug, Clone, PartialEq)]
struct Template {
    threads_per_socket: Vec<usize>,
    smt_packed: bool,
}

impl Template {
    /// The template's thread count.
    fn n_threads(&self) -> usize {
        self.threads_per_socket.iter().sum()
    }

    /// Lays the template's threads onto the machine, consuming hardware
    /// contexts from `slot_cursor` (per-core next-free-slot counters).
    /// Returns `None` when the template does not fit what is left.
    fn materialize(&self, shape: &MachineShape, slot_cursor: &mut [usize]) -> Option<Placement> {
        let snapshot: Vec<usize> = slot_cursor.to_vec();
        let mut ctxs = Vec::new();
        for (s, &want) in self.threads_per_socket.iter().enumerate() {
            let mut placed = 0;
            let per_core_budget = if self.smt_packed { shape.threads_per_core } else { 1 };
            for c in 0..shape.cores_per_socket {
                let core = s * shape.cores_per_socket + c;
                while placed < want
                    && slot_cursor[core] < per_core_budget.min(shape.threads_per_core)
                {
                    ctxs.push(CtxId(core * shape.threads_per_core + slot_cursor[core]));
                    slot_cursor[core] += 1;
                    placed += 1;
                }
                if placed == want {
                    break;
                }
            }
            if placed < want {
                slot_cursor.copy_from_slice(&snapshot);
                return None;
            }
        }
        if ctxs.is_empty() {
            slot_cursor.copy_from_slice(&snapshot);
            return None;
        }
        debug_assert_eq!(self.threads_per_socket.len(), shape.sockets);
        Placement::new(shape, ctxs).ok().or_else(|| {
            slot_cursor.copy_from_slice(&snapshot);
            None
        })
    }
}

/// The template family for each job: a ladder of thread counts, each
/// either confined to one socket, split evenly, spread one-per-core, or
/// SMT-packed.
fn job_templates(shape: &MachineShape, n_jobs: usize) -> Vec<Template> {
    let cores = shape.cores_per_socket;
    let sockets = shape.sockets;
    let mut out = Vec::new();
    // Thread-count ladder: powers of two up to the whole machine, denser
    // when few jobs compete.
    let mut counts = vec![1usize, 2, 4];
    let mut c = 8;
    while c <= cores * sockets * shape.threads_per_core {
        counts.push(c);
        c *= 2;
    }
    counts.push(cores); // exactly one socket's cores
    counts.push(cores * sockets); // one thread per core machine-wide
    counts.sort_unstable();
    counts.dedup();
    let max_share =
        if n_jobs > 1 { cores * sockets * shape.threads_per_core * 2 / (n_jobs + 1) } else { usize::MAX };

    for &n in &counts {
        if n > max_share {
            continue;
        }
        // Confined to a single socket (the cursor decides which).
        if n <= cores {
            let mut per = vec![0; sockets];
            per[0] = n;
            out.push(Template { threads_per_socket: per, smt_packed: false });
        }
        if n <= cores * shape.threads_per_core {
            let mut per = vec![0; sockets];
            per[0] = n;
            out.push(Template { threads_per_socket: per, smt_packed: true });
        }
        // Split evenly over all sockets.
        if sockets > 1 && n.is_multiple_of(sockets) {
            let share = n / sockets;
            if share <= cores {
                out.push(Template {
                    threads_per_socket: vec![share; sockets],
                    smt_packed: false,
                });
            }
            if share <= cores * shape.threads_per_core {
                out.push(Template { threads_per_socket: vec![share; sockets], smt_packed: true });
            }
        }
    }
    // Socket-rotated variants so two one-socket jobs can land on different
    // sockets: handled implicitly by the cursor (it fills socket 0 first),
    // so add explicit second-socket confinement.
    if sockets > 1 {
        let base: Vec<Template> = out.clone();
        for t in base {
            if t.threads_per_socket.iter().filter(|&&x| x > 0).count() == 1
                && t.threads_per_socket[0] > 0
            {
                let mut rotated = vec![0; sockets];
                rotated[sockets - 1] = t.threads_per_socket[0];
                out.push(Template { threads_per_socket: rotated, smt_packed: t.smt_packed });
            }
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod spec {
    //! The search's specification: predict every template combination in
    //! counter order and keep the first strictly lowest objective, the
    //! exhaustive walk the branch and bound replaces. It shares the
    //! template family, materialization and the objective with
    //! production, but no bound, order or stop rule; the
    //! `pruned_search_matches_the_spec` test diffs the two bit for bit.

    use super::*;

    /// Schedules `jobs` by predicting every combination.
    pub(super) fn schedule(
        scheduler: &CoScheduler<'_>,
        jobs: &[&WorkloadDescription],
    ) -> Result<CoSchedule, PandiaError> {
        let options = job_templates(&scheduler.machine.shape(), jobs.len());
        let solo_times = scheduler.solo_times(jobs, |job| {
            schedule(&scheduler.clone().with_objective(Objective::Makespan), &[job])
        })?;
        let session =
            JointSession::new(&scheduler.exec, scheduler.machine, &scheduler.config, jobs)?;
        let mut best: Option<CoSchedule> = None;
        let mut idx = vec![0usize; jobs.len()];
        'product: loop {
            let evaluated =
                scheduler.evaluate(jobs, &options, &idx, solo_times.as_deref(), &session)?;
            if let Some(candidate) = evaluated {
                if best.as_ref().map(|b| candidate.objective < b.objective).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
            let mut k = 0;
            loop {
                idx[k] += 1;
                if idx[k] < options.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
                if k == jobs.len() {
                    break 'product;
                }
            }
        }
        best.ok_or(PandiaError::Mismatch { reason: "no feasible joint placement found".into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{predict_jobs, Prediction};
    use crate::test_rng::{draw, random_machine, splitmix64};
    use pandia_topology::DemandVector;

    const SHAPES: [MachineShape; 3] = [
        MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 },
        MachineShape { sockets: 2, cores_per_socket: 8, threads_per_core: 2 },
        MachineShape { sockets: 4, cores_per_socket: 2, threads_per_core: 2 },
    ];

    /// A job with non-zero demand at every level and per-socket DRAM,
    /// communication, partial load balance and burstiness; a quarter of
    /// jobs are fully serial and a quarter fully parallel. Memory demand
    /// is scaled by up to 100x down, from barely contended to saturated.
    fn random_job(rng: &mut u64, name: String, sockets: usize) -> WorkloadDescription {
        let parallel_fraction = match splitmix64(rng) % 4 {
            0 => 0.0,
            1 => 1.0,
            _ => draw(rng, 0.5, 1.0),
        };
        let scale = 10f64.powf(draw(rng, -2.0, 0.0));
        WorkloadDescription {
            name,
            machine: "random".into(),
            t1: draw(rng, 10.0, 1000.0),
            demand: DemandVector {
                instr: draw(rng, 0.5, 10.0),
                l1: scale * draw(rng, 0.1, 20.0),
                l2: scale * draw(rng, 0.1, 10.0),
                l3: scale * draw(rng, 0.1, 5.0),
                dram: (0..sockets).map(|_| scale * draw(rng, 0.1, 20.0)).collect(),
            },
            parallel_fraction,
            inter_socket_overhead: draw(rng, 0.001, 0.05),
            load_balance: draw(rng, 0.01, 1.0),
            burstiness: draw(rng, 0.01, 1.0),
        }
    }

    fn random_jobs(rng: &mut u64, n: usize, sockets: usize) -> Vec<WorkloadDescription> {
        (0..n).map(|j| random_job(rng, format!("j{j}"), sockets)).collect()
    }

    const OBJECTIVES: [Objective; 3] =
        [Objective::Makespan, Objective::TotalTime, Objective::WorstSlowdown];

    fn toy_machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 4, threads_per_core: 2 };
        m
    }

    fn cpu_job(name: &str) -> WorkloadDescription {
        WorkloadDescription {
            name: name.into(),
            machine: "toy".into(),
            t1: 100.0,
            demand: DemandVector { instr: 6.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: vec![0.5, 0.5] },
            parallel_fraction: 0.99,
            inter_socket_overhead: 0.002,
            load_balance: 1.0,
            burstiness: 0.1,
        }
    }

    fn memory_job(name: &str) -> WorkloadDescription {
        WorkloadDescription {
            name: name.into(),
            machine: "toy".into(),
            t1: 100.0,
            demand: DemandVector { instr: 1.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: vec![30.0, 30.0] },
            parallel_fraction: 0.99,
            inter_socket_overhead: 0.002,
            load_balance: 1.0,
            burstiness: 0.1,
        }
    }

    #[test]
    fn single_job_schedule_behaves_like_best_placement() {
        let m = toy_machine();
        let job = cpu_job("cpu");
        let schedule = CoScheduler::new(&m).schedule(&[&job]).unwrap();
        assert_eq!(schedule.assignments.len(), 1);
        // A CPU-bound job wants many threads.
        assert!(schedule.assignments[0].n_threads >= 8, "{:?}", schedule.assignments[0]);
    }

    #[test]
    fn two_jobs_get_disjoint_placements() {
        let m = toy_machine();
        let a = cpu_job("a");
        let b = cpu_job("b");
        let schedule = CoScheduler::new(&m).schedule(&[&a, &b]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for placement in &schedule.placements {
            for ctx in placement.contexts() {
                assert!(seen.insert(*ctx), "context {ctx} assigned twice");
            }
        }
        assert_eq!(schedule.predictions.len(), 2);
    }

    #[test]
    fn memory_and_cpu_jobs_share_better_than_two_memory_jobs() {
        // A memory hog pairs better with a CPU job than with another
        // memory hog: the scheduler's predicted makespan should reflect
        // that.
        let m = toy_machine();
        let scheduler = CoScheduler::new(&m);
        let cpu = cpu_job("cpu");
        let mem1 = memory_job("mem1");
        let mem2 = memory_job("mem2");
        let mixed = scheduler.schedule(&[&mem1, &cpu]).unwrap();
        let clashing = scheduler.schedule(&[&mem1, &mem2]).unwrap();
        assert!(
            mixed.objective < clashing.objective,
            "mixed {} should beat clashing {}",
            mixed.objective,
            clashing.objective
        );
    }

    /// Pins one case, not a law: on seeded random descriptions a job
    /// can predict faster co-run than alone (by up to 11% on 2x8x2 with
    /// three jobs), which is why the search bounds on Amdahl floors
    /// rather than solo predictions.
    #[test]
    fn coscheduled_jobs_predict_slower_than_solo() {
        let m = toy_machine();
        let shape = m.shape();
        let a = memory_job("a");
        let b = memory_job("b");
        // Both jobs on 2 threads each, different sockets.
        let pa = Placement::new(&shape, vec![CtxId(0), CtxId(2)]).unwrap();
        let pb = Placement::new(&shape, vec![CtxId(8), CtxId(10)]).unwrap();
        let joint = predict_jobs(
            &m,
            &[(&a, &pa), (&b, &pb)],
            &PredictorConfig::default(),
        )
        .unwrap();
        let solo =
            predict_jobs(&m, &[(&a, &pa)], &PredictorConfig::default()).unwrap();
        assert!(
            joint[0].predicted_time >= solo[0].predicted_time - 1e-9,
            "sharing DRAM must not speed job a up: joint {} vs solo {}",
            joint[0].predicted_time,
            solo[0].predicted_time
        );
    }

    #[test]
    fn overlapping_joint_placements_are_rejected() {
        let m = toy_machine();
        let shape = m.shape();
        let a = cpu_job("a");
        let b = cpu_job("b");
        let pa = Placement::new(&shape, vec![CtxId(0)]).unwrap();
        let pb = Placement::new(&shape, vec![CtxId(0)]).unwrap();
        let err = predict_jobs(&m, &[(&a, &pa), (&b, &pb)], &PredictorConfig::default())
            .unwrap_err();
        assert!(matches!(err, PandiaError::Mismatch { .. }));
    }

    #[test]
    fn too_many_jobs_rejected() {
        let m = toy_machine();
        let jobs: Vec<WorkloadDescription> =
            (0..4).map(|i| cpu_job(&format!("j{i}"))).collect();
        let refs: Vec<&WorkloadDescription> = jobs.iter().collect();
        assert!(CoScheduler::new(&m).schedule(&refs).is_err());
        assert!(CoScheduler::new(&m).schedule(&[]).is_err());
    }

    #[test]
    fn amdahl_bound_never_exceeds_the_joint_prediction() {
        let mut rng = 0xB00D_5EEDu64;
        let mut checked = 0usize;
        for case in 0..27 {
            let shape = SHAPES[case % 3];
            let n_jobs = 1 + case / 3 % 3;
            // 2x8x2 with three jobs has ~17k combinations: sample it once.
            if shape.cores_per_socket == 8 && n_jobs == 3 && case >= 9 {
                continue;
            }
            let m = random_machine(&mut rng, shape);
            let jobs = random_jobs(&mut rng, n_jobs, shape.sockets);
            let refs: Vec<&WorkloadDescription> = jobs.iter().collect();
            let schedulers: Vec<CoScheduler<'_>> =
                OBJECTIVES.iter().map(|&o| CoScheduler::new(&m).with_objective(o)).collect();
            let solo: Vec<Option<Vec<f64>>> = schedulers
                .iter()
                .map(|s| {
                    s.solo_times(&refs, |job| {
                        CoScheduler::new(&m).with_objective(Objective::Makespan).schedule(&[job])
                    })
                    .unwrap()
                })
                .collect();
            let templates = job_templates(&shape, n_jobs);
            let (exec, config) = (ExecContext::serial(), PredictorConfig::default());
            let session = JointSession::new(&exec, &m, &config, &refs).unwrap();
            for counter in 0..templates.len().pow(n_jobs as u32) {
                let combo = &combination(counter, templates.len())[..n_jobs];
                let Some(candidate) =
                    schedulers[0].evaluate(&refs, &templates, combo, None, &session).unwrap()
                else {
                    continue;
                };
                let floors: Vec<f64> = refs
                    .iter()
                    .zip(combo)
                    .map(|(job, &t)| amdahl_floor(job, templates[t].n_threads()))
                    .collect();
                let times: Vec<f64> =
                    candidate.predictions.iter().map(|p| p.predicted_time).collect();
                for (j, (&floor, &time)) in floors.iter().zip(&times).enumerate() {
                    assert!(floor <= time, "case {case} combination {counter} job {j}: {floor} > {time}");
                }
                for (scheduler, solo) in schedulers.iter().zip(&solo) {
                    let bound = scheduler.objective_of(&floors, solo.as_deref());
                    let objective = scheduler.objective_of(&times, solo.as_deref());
                    assert!(
                        bound <= objective,
                        "case {case} combination {counter} {:?}: {bound} > {objective}",
                        scheduler.objective
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 10_000, "only {checked} feasible combinations checked");
    }

    #[test]
    fn fit_filter_keeps_every_feasible_combination() {
        let one_slot = MachineShape { sockets: 2, cores_per_socket: 3, threads_per_core: 1 };
        let mut rejected = 0;
        for shape in SHAPES.into_iter().chain([one_slot]) {
            for n_jobs in 1..=3 {
                let templates = job_templates(&shape, n_jobs);
                for counter in 0..templates.len().pow(n_jobs as u32) {
                    let combo = &combination(counter, templates.len())[..n_jobs];
                    let mut cursor = vec![0; shape.total_cores()];
                    let fits =
                        combo.iter().all(|&t| templates[t].materialize(&shape, &mut cursor).is_some());
                    let may = may_fit(&shape, &templates, combo);
                    assert!(may || !fits, "{shape:?}: feasible combination {counter} filtered out");
                    rejected += usize::from(!may);
                }
            }
        }
        assert!(rejected > 0, "the filter never engaged");
    }

    /// Every field of each estimate, each float as its bits.
    fn estimate_bits(estimates: impl IntoIterator<Item = Estimate>) -> Vec<u64> {
        let fields = |e: Estimate| [e.n_threads as u64, e.speedup.to_bits(), e.predicted_time.to_bits()];
        estimates.into_iter().flat_map(fields).collect()
    }

    /// Every float of a schedule as its bit pattern, with the integer
    /// fields alongside, so equal fingerprints mean bit-equal schedules.
    fn fingerprint(s: &CoSchedule) -> (u64, &[JobAssignment], &[Placement], Vec<u64>) {
        let estimates = estimate_bits(s.predictions.iter().copied());
        (s.objective.to_bits(), &s.assignments, &s.placements, estimates)
    }

    /// `fingerprint`'s estimate bits, from an uncached `predict_jobs` over
    /// the schedule's placements.
    fn uncached_bits(m: &MachineDescription, jobs: &[&WorkloadDescription], s: &CoSchedule) -> Vec<u64> {
        let pairs: Vec<_> = jobs.iter().copied().zip(&s.placements).collect();
        let predictions = predict_jobs(m, &pairs, &PredictorConfig::default()).unwrap();
        estimate_bits(predictions.iter().map(Prediction::estimate))
    }

    #[test]
    fn pruned_search_matches_the_spec() {
        let contexts = [
            ("serial", ExecContext::serial()),
            ("new(1)", ExecContext::new(1)),
            ("new(4)", ExecContext::new(4)),
        ];
        let mut rng = 0x5EA4_C4C4u64;
        let mut schedules = 0usize;
        for case in 0..345 {
            let n_jobs = [1, 1, 2, 2, 3][case % 5];
            let objective = OBJECTIVES[case / 5 % 3];
            // Mostly the daemon's 2x2x2; 2x8x2 only up to two jobs, where
            // the spec's exhaustive walk stays cheap.
            let shape = match case / 15 % 6 {
                4 => SHAPES[2],
                5 if n_jobs < 3 => SHAPES[1],
                _ => SHAPES[0],
            };
            let m = random_machine(&mut rng, shape);
            let mut jobs = random_jobs(&mut rng, n_jobs, shape.sockets);
            // Residents of one class, as the daemon co-schedules them:
            // mirrored combinations tie.
            if case % 4 == 3 {
                jobs[n_jobs - 1] = jobs[0].clone();
            }
            let refs: Vec<&WorkloadDescription> = jobs.iter().collect();
            let expected =
                spec::schedule(&CoScheduler::new(&m).with_objective(objective), &refs).unwrap();
            let case_of =
                |label| format!("case {case}: {n_jobs} jobs on {shape:?}, {objective:?}, {label}");
            let spec_bits = uncached_bits(&m, &refs, &expected);
            assert_eq!(fingerprint(&expected).3, spec_bits, "{}", case_of("spec"));
            for (label, exec) in &contexts {
                let got = CoScheduler::new(&m)
                    .with_objective(objective)
                    .with_exec(exec.clone())
                    .schedule(&refs)
                    .unwrap();
                assert_eq!(fingerprint(&got), fingerprint(&expected), "{} context", case_of(label));
                let got_bits = uncached_bits(&m, &refs, &got);
                assert_eq!(fingerprint(&got).3, got_bits, "{} context", case_of(label));
                schedules += 1;
            }
        }
        assert!(schedules >= 1_000, "{schedules} schedules");
    }
}
