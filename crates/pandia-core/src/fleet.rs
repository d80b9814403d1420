//! Rack-scale scheduling (§8 future work).
//!
//! "Finally, we aim to extend Pandia from scheduling a single workload on
//! a single machine to the scheduling of multiple workloads on a
//! rack-scale system." [`FleetScheduler`] does exactly that: given the
//! machine descriptions of a rack and a queue of profiled workloads, it
//! assigns each workload a machine and a placement.
//!
//! The algorithm is longest-processing-time-first over predicted times:
//! jobs are sorted by their best-case predicted runtime (descending) and
//! greedily assigned to whichever machine minimizes the rack's makespan,
//! using [`CoScheduler`] to re-place all jobs sharing a machine whenever a
//! new one lands there. Every decision is prediction-driven — nothing runs
//! until the schedule is fixed.
//!
//! [`FleetScheduler`] is the *batch* view: it needs the whole queue up
//! front. [`IncrementalFleet`] is the *event-driven* view the `pandiad`
//! service runs on: jobs [`IncrementalFleet::admit`] and
//! [`IncrementalFleet::depart`] one at a time, and after every event only
//! the machines the event can touch are re-solved — every other machine's
//! co-schedule is answered from a memo keyed on its exact resident set,
//! counted in `fleet.resolves_skipped`. Because [`CoScheduler`] is a pure
//! deterministic function of the resident descriptions, the memoized
//! schedule is bit-identical to a from-scratch re-solve, which the batch
//! escape hatch ([`IncrementalFleet::with_incremental`]`(false)`) makes
//! directly checkable: it re-runs every occupied machine fresh on every
//! event and must produce byte-identical [`FleetSchedule`]s.

use std::sync::Arc;

use pandia_topology::Placement;
use serde::{Deserialize, Serialize};

use crate::{
    coschedule::{CoSchedule, CoScheduler, Objective},
    description::MachineDescription,
    error::PandiaError,
    exec::ExecContext,
    memo::LruMemo,
    workload_desc::WorkloadDescription,
};

/// One job's assignment in the fleet schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAssignment {
    /// Job name.
    pub workload: String,
    /// Index of the machine in the input list.
    pub machine_index: usize,
    /// Machine name.
    pub machine: String,
    /// Thread count assigned.
    pub n_threads: usize,
    /// Predicted completion time on that machine under co-scheduling.
    pub predicted_time: f64,
}

/// A complete fleet schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    /// Per-job assignments, in input order.
    pub assignments: Vec<FleetAssignment>,
    /// Predicted makespan across the rack.
    pub makespan: f64,
    /// Concrete placements per job, in input order.
    pub placements: Vec<Placement>,
}

/// Maximum jobs the co-scheduler will stack on one machine.
const MAX_JOBS_PER_MACHINE: usize = 3;

/// Schedules profiled workloads across a rack of machines.
#[derive(Debug)]
pub struct FleetScheduler<'m> {
    machines: &'m [MachineDescription],
}

impl<'m> FleetScheduler<'m> {
    /// Creates a scheduler over the rack's machine descriptions.
    pub fn new(machines: &'m [MachineDescription]) -> Self {
        Self { machines }
    }

    /// Assigns every job a machine and placement.
    ///
    /// Each job's description list must be usable on every machine (use
    /// [`WorkloadDescription::retarget_sockets`] per machine, or supply
    /// per-machine descriptions via [`Self::schedule_with`]).
    pub fn schedule(&self, jobs: &[&WorkloadDescription]) -> Result<FleetSchedule, PandiaError> {
        // Retarget each job's description to each machine's socket count.
        let per_machine: Vec<Vec<WorkloadDescription>> = self
            .machines
            .iter()
            .map(|m| jobs.iter().map(|j| j.retarget_sockets(m.shape.sockets)).collect())
            .collect();
        self.schedule_with(jobs, &per_machine)
    }

    /// Assigns jobs using per-machine descriptions: `descriptions[m][j]`
    /// is job `j` as profiled (or retargeted) for machine `m`.
    pub fn schedule_with(
        &self,
        jobs: &[&WorkloadDescription],
        descriptions: &[Vec<WorkloadDescription>],
    ) -> Result<FleetSchedule, PandiaError> {
        if self.machines.is_empty() {
            return Err(PandiaError::Mismatch { reason: "fleet has no machines".into() });
        }
        if jobs.is_empty() {
            return Err(PandiaError::Mismatch { reason: "no jobs to schedule".into() });
        }
        if descriptions.len() != self.machines.len()
            || descriptions.iter().any(|d| d.len() != jobs.len())
        {
            return Err(PandiaError::Mismatch {
                reason: "descriptions must be indexed [machine][job]".into(),
            });
        }
        let capacity = self.machines.len() * MAX_JOBS_PER_MACHINE;
        if jobs.len() > capacity {
            return Err(PandiaError::Mismatch {
                reason: format!(
                    "{} jobs exceed rack capacity of {capacity} ({} machines x {MAX_JOBS_PER_MACHINE})",
                    jobs.len(),
                    self.machines.len()
                ),
            });
        }

        // Longest-processing-time-first: order jobs by their best solo
        // prediction on the *fastest* machine for that job.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let mut solo_best = vec![f64::INFINITY; jobs.len()];
        for (j, _) in jobs.iter().enumerate() {
            for (m, machine) in self.machines.iter().enumerate() {
                let schedule =
                    CoScheduler::new(machine).schedule(&[&descriptions[m][j]])?;
                solo_best[j] = solo_best[j].min(schedule.predictions[0].predicted_time);
            }
        }
        order.sort_by(|&a, &b| solo_best[b].total_cmp(&solo_best[a]));

        // Greedy assignment: place each job on the machine that minimizes
        // the resulting rack makespan, re-co-scheduling that machine's
        // residents.
        let mut resident: Vec<Vec<usize>> = vec![Vec::new(); self.machines.len()];
        let mut machine_makespan = vec![0.0_f64; self.machines.len()];
        let mut machine_schedules: Vec<Option<crate::coschedule::CoSchedule>> =
            vec![None; self.machines.len()];
        for &j in &order {
            let mut best: Option<(usize, crate::coschedule::CoSchedule, f64)> = None;
            for (m, machine) in self.machines.iter().enumerate() {
                if resident[m].len() >= MAX_JOBS_PER_MACHINE {
                    continue;
                }
                let mut members = resident[m].clone();
                members.push(j);
                let descs: Vec<&WorkloadDescription> =
                    members.iter().map(|&k| &descriptions[m][k]).collect();
                let schedule = CoScheduler::new(machine)
                    .with_objective(Objective::Makespan)
                    .schedule(&descs)?;
                let new_makespan = schedule
                    .predictions
                    .iter()
                    .map(|p| p.predicted_time)
                    .fold(0.0_f64, f64::max);
                let rack_makespan = machine_makespan
                    .iter()
                    .enumerate()
                    .map(|(k, &ms)| if k == m { new_makespan } else { ms })
                    .fold(0.0_f64, f64::max);
                if best
                    .as_ref()
                    .map(|(_, _, best_ms)| rack_makespan < *best_ms)
                    .unwrap_or(true)
                {
                    best = Some((m, schedule, rack_makespan));
                }
            }
            let (m, schedule, _) = best.ok_or(PandiaError::Mismatch {
                reason: "no machine can host the job".into(),
            })?;
            resident[m].push(j);
            machine_makespan[m] = schedule
                .predictions
                .iter()
                .map(|p| p.predicted_time)
                .fold(0.0_f64, f64::max);
            machine_schedules[m] = Some(schedule);
        }

        // Assemble per-job assignments from the final machine schedules.
        let mut assignments: Vec<Option<FleetAssignment>> = vec![None; jobs.len()];
        let mut placements: Vec<Option<Placement>> = vec![None; jobs.len()];
        for (m, schedule) in machine_schedules.iter().enumerate() {
            let Some(schedule) = schedule else { continue };
            for (slot, &j) in resident[m].iter().enumerate() {
                assignments[j] = Some(FleetAssignment {
                    workload: jobs[j].name.clone(),
                    machine_index: m,
                    machine: self.machines[m].machine.clone(),
                    n_threads: schedule.assignments[slot].n_threads,
                    predicted_time: schedule.predictions[slot].predicted_time,
                });
                placements[j] = Some(schedule.placements[slot].clone());
            }
        }
        let assignments: Vec<FleetAssignment> = assignments
            .into_iter()
            .map(|a| {
                a.ok_or_else(|| PandiaError::Mismatch {
                    reason: "fleet schedule left a job unassigned".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let placements: Vec<Placement> = placements
            .into_iter()
            .map(|p| {
                p.ok_or_else(|| PandiaError::Mismatch {
                    reason: "fleet schedule left a job unplaced".into(),
                })
            })
            .collect::<Result<_, _>>()?;
        let makespan = machine_makespan.iter().cloned().fold(0.0_f64, f64::max);
        Ok(FleetSchedule { assignments, makespan, placements })
    }
}

/// Counters describing how much machine re-solving the incremental fleet
/// scheduler performed versus avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Machine co-schedules actually computed by [`CoScheduler`].
    pub resolves: u64,
    /// Machine co-schedules answered from the resident-set memo instead
    /// of being recomputed.
    pub resolves_skipped: u64,
    /// Memo entries evicted to stay under the capacity bound.
    pub memo_evictions: u64,
}

/// Default entry budget for the class-set memo. Each entry holds one
/// machine co-schedule; a long-lived daemon over a churning class mix
/// would otherwise grow the memo without bound.
pub const DEFAULT_MEMO_CAPACITY: usize = 512;

/// A bounded LRU memo of shared machine co-schedules keyed by
/// `(machine, resident class set)`. Eviction discards memoized work
/// only — [`CoScheduler`] is pure, so a re-solve after eviction is
/// bit-identical to the evicted answer.
type SolveMemo = LruMemo<SolveKey, Arc<CoSchedule>>;

/// The placement an [`IncrementalFleet::admit`] call decided on.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The job's stable slot id, used to [`IncrementalFleet::depart`] it.
    pub slot: usize,
    /// Index of the chosen machine in the fleet's machine list.
    pub machine_index: usize,
    /// Chosen machine's name.
    pub machine: String,
    /// Thread count assigned at admission.
    pub n_threads: usize,
    /// Predicted completion time at admission (later arrivals on the same
    /// machine may re-place the job; see [`IncrementalFleet::schedule`]
    /// for the current view).
    pub predicted_time: f64,
}

/// One live job inside the incremental fleet.
#[derive(Debug, Clone)]
struct FleetJob {
    name: String,
    class: String,
    /// Per-machine descriptions, indexed like the fleet's machine list.
    descriptions: Vec<WorkloadDescription>,
    /// Index of the machine currently hosting the job.
    machine: usize,
}

/// Memo key: a machine plus the exact ordered list of resident classes.
type SolveKey = (usize, Vec<String>);

/// Event-driven fleet scheduling: jobs arrive and depart one at a time,
/// and only the machines an event touches are re-solved.
///
/// The `class` string passed to [`Self::admit`] is a *description
/// identity*: callers must pass bit-identical `descriptions` for the same
/// class string, which lets the scheduler memoize machine co-schedules by
/// `(machine, resident classes)` and answer untouched machines from the
/// memo. [`CoScheduler`] is a pure function of the resident descriptions,
/// so memoized answers are bit-identical to recomputed ones — the
/// `with_incremental(false)` escape hatch (re-solving every occupied
/// machine from scratch after every event) is the oracle the property
/// suite diffs against.
///
/// Telemetry: every solve bumps `fleet.resolves`; every memo answer bumps
/// `fleet.resolves_skipped`. [`Self::stats`] reports the same counts
/// per-instance.
#[derive(Debug)]
pub struct IncrementalFleet {
    machines: Vec<MachineDescription>,
    exec: ExecContext,
    incremental: bool,
    /// Slot table; departed jobs leave `None` (slots are never reused, so
    /// a slot id is a stable job identity for the fleet's lifetime).
    jobs: Vec<Option<FleetJob>>,
    /// Resident slots per machine, in arrival order.
    residents: Vec<Vec<usize>>,
    /// The current co-schedule per machine (`None` when idle), shared
    /// with the memo entry it was answered from.
    current: Vec<Option<Arc<CoSchedule>>>,
    memo: SolveMemo,
    /// The memo's entry budget (at least 1).
    memo_capacity: usize,
    stats: FleetStats,
}

/// The makespan of one machine's co-schedule.
fn makespan_of(schedule: &CoSchedule) -> f64 {
    schedule.predictions.iter().map(|p| p.predicted_time).fold(0.0_f64, f64::max)
}

impl IncrementalFleet {
    /// Creates an empty incremental fleet over the given machines.
    pub fn new(machines: Vec<MachineDescription>) -> Result<Self, PandiaError> {
        if machines.is_empty() {
            return Err(PandiaError::Mismatch { reason: "fleet has no machines".into() });
        }
        let n = machines.len();
        Ok(Self {
            machines,
            exec: ExecContext::serial(),
            incremental: true,
            jobs: Vec::new(),
            residents: vec![Vec::new(); n],
            current: vec![None; n],
            memo: SolveMemo::new(),
            memo_capacity: DEFAULT_MEMO_CAPACITY,
            stats: FleetStats::default(),
        })
    }

    /// Sets the memo's entry budget (minimum 1), evicting down to it.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        self.set_memo_capacity(capacity);
        self
    }

    /// Re-bounds the memo at runtime (the daemon's degraded mode halves
    /// it under overload), evicting least-recently-used entries down to
    /// the new bound.
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        self.memo_capacity = capacity.max(1);
        let evicted = self.memo.evict_to(self.memo_capacity);
        Self::count_evictions(&mut self.stats, evicted);
    }

    /// Adds memo evictions to the stats and the `fleet.memo_evictions`
    /// telemetry counter.
    fn count_evictions(stats: &mut FleetStats, evicted: u64) {
        if evicted > 0 {
            stats.memo_evictions += evicted;
            pandia_obs::count("fleet.memo_evictions", evicted);
        }
    }

    /// The memo's current entry budget.
    pub fn memo_capacity(&self) -> usize {
        self.memo_capacity
    }

    /// Number of entries currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Sets the execution context used for co-schedule searches. Results
    /// are bit-identical for any worker count.
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }

    /// Toggles the incremental delta path. With `false`, every occupied
    /// machine is re-solved from scratch after every event — the batch
    /// oracle the incremental path must match bit for bit.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// The fleet's machine descriptions.
    pub fn machines(&self) -> &[MachineDescription] {
        &self.machines
    }

    /// Number of jobs currently admitted.
    pub fn active_jobs(&self) -> usize {
        self.jobs.iter().flatten().count()
    }

    /// Whether at least one machine can host another job.
    pub fn has_capacity(&self) -> bool {
        self.residents.iter().any(|r| r.len() < MAX_JOBS_PER_MACHINE)
    }

    /// Solve counters accumulated so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The machine currently hosting a slot, if the slot is live.
    pub fn job_machine(&self, slot: usize) -> Option<usize> {
        self.jobs.get(slot).and_then(|j| j.as_ref()).map(|j| j.machine)
    }

    /// Drops every memoized solve for one machine, forcing fresh
    /// re-solves — the hook the online controller's drift handling uses
    /// after a reprofile invalidates what the fleet believed about a
    /// machine's residents.
    pub fn invalidate_machine(&mut self, machine_index: usize) {
        self.memo.retain(|(m, _)| *m != machine_index);
        pandia_obs::count("fleet.invalidations", 1);
    }

    /// Solves (or recalls) the co-schedule of one machine for an explicit
    /// resident set. Free-standing over split borrows so callers can hold
    /// description references into `self.jobs` while the memo mutates.
    #[allow(clippy::too_many_arguments)]
    fn solve_machine(
        machine_index: usize,
        machine: &MachineDescription,
        exec: &ExecContext,
        incremental: bool,
        memo: &mut SolveMemo,
        memo_capacity: usize,
        stats: &mut FleetStats,
        classes: Vec<String>,
        descs: &[&WorkloadDescription],
    ) -> Result<Arc<CoSchedule>, PandiaError> {
        let key = (machine_index, classes);
        if incremental {
            if let Some(hit) = memo.get(&key) {
                stats.resolves_skipped += 1;
                pandia_obs::count("fleet.resolves_skipped", 1);
                return Ok(Arc::clone(hit));
            }
        }
        let _span = pandia_obs::span("fleet", "solve_machine")
            .arg("machine", machine_index)
            .arg("jobs", descs.len());
        let schedule = Arc::new(
            CoScheduler::new(machine)
                .with_objective(Objective::Makespan)
                .with_exec(exec.clone())
                .schedule(descs)?,
        );
        stats.resolves += 1;
        pandia_obs::count("fleet.resolves", 1);
        if incremental {
            memo.insert(key, Arc::clone(&schedule));
            Self::count_evictions(stats, memo.evict_to(memo_capacity));
        }
        Ok(schedule)
    }

    /// The memo key and description list for a machine's residents, with
    /// `extra` (an arriving candidate) appended when given.
    fn machine_inputs<'j>(
        jobs: &'j [Option<FleetJob>],
        residents: &[usize],
        machine_index: usize,
        extra: Option<(&str, &'j WorkloadDescription)>,
    ) -> Result<(Vec<String>, Vec<&'j WorkloadDescription>), PandiaError> {
        let mut key = Vec::with_capacity(residents.len() + 1);
        let mut descs = Vec::with_capacity(residents.len() + 1);
        for &slot in residents {
            let job = jobs.get(slot).and_then(|j| j.as_ref()).ok_or_else(|| {
                PandiaError::Mismatch { reason: format!("fleet lost job slot {slot}") }
            })?;
            key.push(job.class.clone());
            descs.push(&job.descriptions[machine_index]);
        }
        if let Some((class, desc)) = extra {
            key.push(class.to_string());
            descs.push(desc);
        }
        Ok((key, descs))
    }

    /// Re-derives the co-schedule of every occupied machine. In
    /// incremental mode untouched machines are answered from the memo
    /// (counted as skipped re-solves); in batch mode everything is
    /// recomputed from scratch.
    fn refresh(&mut self) -> Result<(), PandiaError> {
        for m in 0..self.machines.len() {
            if self.residents[m].is_empty() {
                self.current[m] = None;
                continue;
            }
            let (key, descs) =
                Self::machine_inputs(&self.jobs, &self.residents[m], m, None)?;
            let schedule = Self::solve_machine(
                m,
                &self.machines[m],
                &self.exec,
                self.incremental,
                &mut self.memo,
                self.memo_capacity,
                &mut self.stats,
                key,
                &descs,
            )?;
            self.current[m] = Some(schedule);
        }
        Ok(())
    }

    /// Admits a job: places it on the machine that minimizes the rack's
    /// makespan, re-co-scheduling that machine's residents. Returns
    /// `Ok(None)` when every machine is full (the caller keeps the job
    /// queued). `descriptions` must hold one description per fleet
    /// machine, bit-identical across jobs of the same `class`.
    pub fn admit(
        &mut self,
        name: &str,
        class: &str,
        descriptions: Vec<WorkloadDescription>,
    ) -> Result<Option<Admission>, PandiaError> {
        if descriptions.len() != self.machines.len() {
            return Err(PandiaError::Mismatch {
                reason: format!(
                    "job '{name}' carries {} descriptions for {} machines",
                    descriptions.len(),
                    self.machines.len()
                ),
            });
        }
        let makespans: Vec<f64> = self
            .current
            .iter()
            .map(|c| c.as_deref().map(makespan_of).unwrap_or(0.0))
            .collect();
        let mut best: Option<(usize, Arc<CoSchedule>, f64)> = None;
        for (m, description) in descriptions.iter().enumerate() {
            if self.residents[m].len() >= MAX_JOBS_PER_MACHINE {
                continue;
            }
            let (key, descs) = Self::machine_inputs(
                &self.jobs,
                &self.residents[m],
                m,
                Some((class, description)),
            )?;
            let schedule = Self::solve_machine(
                m,
                &self.machines[m],
                &self.exec,
                self.incremental,
                &mut self.memo,
                self.memo_capacity,
                &mut self.stats,
                key,
                &descs,
            )?;
            let new_makespan = makespan_of(&schedule);
            let rack_makespan = makespans
                .iter()
                .enumerate()
                .map(|(k, &ms)| if k == m { new_makespan } else { ms })
                .fold(0.0_f64, f64::max);
            if best.as_ref().map(|(_, _, b)| rack_makespan < *b).unwrap_or(true) {
                best = Some((m, schedule, rack_makespan));
            }
        }
        let Some((m, schedule, _)) = best else { return Ok(None) };
        let slot = self.jobs.len();
        self.jobs.push(Some(FleetJob {
            name: name.to_string(),
            class: class.to_string(),
            descriptions,
            machine: m,
        }));
        self.residents[m].push(slot);
        let idx = self.residents[m].len() - 1;
        let admission = Admission {
            slot,
            machine_index: m,
            machine: self.machines[m].machine.clone(),
            n_threads: schedule.assignments[idx].n_threads,
            predicted_time: schedule.predictions[idx].predicted_time,
        };
        self.current[m] = Some(schedule);
        self.refresh()?;
        Ok(Some(admission))
    }

    /// Rebuilds an empty fleet from checkpointed live jobs.
    ///
    /// `live` lists the surviving jobs **in their original slot order**
    /// (which is also per-machine arrival order) as
    /// `(name, class, machine_index, descriptions)`. Jobs are re-seated
    /// compactly — slot ids restart at 0 — and every occupied machine is
    /// re-solved fresh, so the resulting schedules are bit-identical to
    /// the pre-crash fleet ([`CoScheduler`] is a pure function of the
    /// resident descriptions) while solve *counters* restart. Returns
    /// the new slot id of each job, in input order.
    pub fn restore_jobs(
        &mut self,
        live: Vec<(String, String, usize, Vec<WorkloadDescription>)>,
    ) -> Result<Vec<usize>, PandiaError> {
        if !self.jobs.is_empty() {
            return Err(PandiaError::Mismatch {
                reason: "restore_jobs requires an empty fleet".into(),
            });
        }
        let mut slots = Vec::with_capacity(live.len());
        for (name, class, machine, descriptions) in live {
            if machine >= self.machines.len() {
                return Err(PandiaError::Mismatch {
                    reason: format!(
                        "restored job '{name}' names machine {machine} of {}",
                        self.machines.len()
                    ),
                });
            }
            if descriptions.len() != self.machines.len() {
                return Err(PandiaError::Mismatch {
                    reason: format!(
                        "restored job '{name}' carries {} descriptions for {} machines",
                        descriptions.len(),
                        self.machines.len()
                    ),
                });
            }
            if self.residents[machine].len() >= MAX_JOBS_PER_MACHINE {
                return Err(PandiaError::Mismatch {
                    reason: format!("restored machine {machine} is over-assigned"),
                });
            }
            let slot = self.jobs.len();
            self.jobs.push(Some(FleetJob { name, class, descriptions, machine }));
            self.residents[machine].push(slot);
            slots.push(slot);
        }
        self.refresh()?;
        Ok(slots)
    }

    /// Removes a job (completion or failure), re-solving only its
    /// machine. Returns the machine index the job was on.
    pub fn depart(&mut self, slot: usize) -> Result<usize, PandiaError> {
        let job = self.jobs.get_mut(slot).and_then(Option::take).ok_or_else(|| {
            PandiaError::Mismatch { reason: format!("no live job in fleet slot {slot}") }
        })?;
        let m = job.machine;
        self.residents[m].retain(|&s| s != slot);
        self.refresh()?;
        Ok(m)
    }

    /// The current fleet schedule over the live jobs, in slot (arrival)
    /// order. An idle fleet yields an empty schedule with zero makespan.
    pub fn schedule(&self) -> Result<FleetSchedule, PandiaError> {
        let mut assignments = Vec::new();
        let mut placements = Vec::new();
        for (slot, job) in self.jobs.iter().enumerate() {
            let Some(job) = job else { continue };
            let m = job.machine;
            let schedule = self.current[m].as_ref().ok_or_else(|| {
                PandiaError::Mismatch {
                    reason: format!("machine {m} hosts jobs but has no schedule"),
                }
            })?;
            let idx =
                self.residents[m].iter().position(|&s| s == slot).ok_or_else(|| {
                    PandiaError::Mismatch {
                        reason: format!("slot {slot} missing from machine {m} residents"),
                    }
                })?;
            assignments.push(FleetAssignment {
                workload: job.name.clone(),
                machine_index: m,
                machine: self.machines[m].machine.clone(),
                n_threads: schedule.assignments[idx].n_threads,
                predicted_time: schedule.predictions[idx].predicted_time,
            });
            placements.push(schedule.placements[idx].clone());
        }
        let makespan =
            self.current.iter().flatten().map(|s| makespan_of(s)).fold(0.0_f64, f64::max);
        Ok(FleetSchedule { assignments, makespan, placements })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{DemandVector, MachineShape};

    fn small_machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.machine = "small".into();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 };
        m
    }

    fn big_machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.machine = "big".into();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 8, threads_per_core: 2 };
        // Twice the memory bandwidth of the toy machine.
        m.capacities.dram_per_socket = 200.0;
        m.capacities.interconnect_per_link = 100.0;
        m
    }

    fn job(name: &str, instr: f64, dram: f64, t1: f64) -> WorkloadDescription {
        WorkloadDescription {
            name: name.into(),
            machine: "any".into(),
            t1,
            demand: DemandVector {
                instr,
                l1: 0.0,
                l2: 0.0,
                l3: 0.0,
                dram: vec![dram / 2.0, dram / 2.0],
            },
            parallel_fraction: 0.99,
            inter_socket_overhead: 0.002,
            load_balance: 1.0,
            burstiness: 0.1,
        }
    }

    #[test]
    fn heavy_job_lands_on_the_big_machine() {
        let machines = [small_machine(), big_machine()];
        let heavy = job("heavy", 6.0, 1.0, 400.0);
        let light = job("light", 6.0, 1.0, 50.0);
        let schedule =
            FleetScheduler::new(&machines).schedule(&[&heavy, &light]).unwrap();
        let heavy_assignment =
            schedule.assignments.iter().find(|a| a.workload == "heavy").unwrap();
        assert_eq!(heavy_assignment.machine, "big");
        assert!(schedule.makespan > 0.0);
    }

    #[test]
    fn jobs_spread_before_they_stack() {
        // Two identical machines: equal jobs must use both rather than
        // contend on one.
        let machines = [small_machine(), small_machine()];
        let a = job("a", 6.0, 1.0, 100.0);
        let b = job("b", 6.0, 1.0, 100.0);
        let schedule = FleetScheduler::new(&machines).schedule(&[&a, &b]).unwrap();
        let m0 = schedule.assignments[0].machine_index;
        let m1 = schedule.assignments[1].machine_index;
        assert_ne!(m0, m1, "two equal jobs should use both machines");
    }

    #[test]
    fn overflow_jobs_coschedule_on_one_machine() {
        let machines = [small_machine()];
        let jobs: Vec<WorkloadDescription> =
            (0..3).map(|i| job(&format!("j{i}"), 4.0, 1.0, 60.0)).collect();
        let refs: Vec<&WorkloadDescription> = jobs.iter().collect();
        let schedule = FleetScheduler::new(&machines).schedule(&refs).unwrap();
        assert_eq!(schedule.assignments.len(), 3);
        // All on the single machine, with disjoint placements.
        let mut seen = std::collections::HashSet::new();
        for p in &schedule.placements {
            for ctx in p.contexts() {
                assert!(seen.insert(*ctx), "placements overlap");
            }
        }
    }

    #[test]
    fn capacity_and_empty_inputs_rejected() {
        let machines = [small_machine()];
        let jobs: Vec<WorkloadDescription> =
            (0..4).map(|i| job(&format!("j{i}"), 4.0, 1.0, 60.0)).collect();
        let refs: Vec<&WorkloadDescription> = jobs.iter().collect();
        assert!(FleetScheduler::new(&machines).schedule(&refs).is_err());
        assert!(FleetScheduler::new(&machines).schedule(&[]).is_err());
        assert!(FleetScheduler::new(&[]).schedule(&[&jobs[0]]).is_err());
    }

    /// Bit-level equality for fleet schedules: `PartialEq` on `f64` would
    /// accept `-0.0 == 0.0`, which is not good enough for the
    /// incremental-vs-batch oracle.
    fn assert_schedules_bits_eq(a: &FleetSchedule, b: &FleetSchedule) {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "makespan differs");
        assert_eq!(a.assignments.len(), b.assignments.len());
        assert_eq!(a.placements, b.placements);
        for (x, y) in a.assignments.iter().zip(&b.assignments) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.machine_index, y.machine_index);
            assert_eq!(x.machine, y.machine);
            assert_eq!(x.n_threads, y.n_threads);
            assert_eq!(
                x.predicted_time.to_bits(),
                y.predicted_time.to_bits(),
                "predicted_time differs for {}",
                x.workload
            );
        }
    }

    fn everywhere(desc: &WorkloadDescription, n: usize) -> Vec<WorkloadDescription> {
        vec![desc.clone(); n]
    }

    #[test]
    fn incremental_matches_batch_across_arrivals_and_departures() {
        let machines = vec![small_machine(), big_machine()];
        let mut inc = IncrementalFleet::new(machines.clone()).unwrap();
        let mut batch =
            IncrementalFleet::new(machines).unwrap().with_incremental(false);
        let classes = [
            job("heavy", 6.0, 1.0, 400.0),
            job("light", 6.0, 1.0, 50.0),
            job("dram", 2.0, 6.0, 120.0),
        ];
        let mut live: Vec<(usize, usize)> = Vec::new(); // (inc slot, batch slot)
        for step in 0..12usize {
            if step % 3 == 2 {
                let (a, b) = live.remove(0);
                let ma = inc.depart(a).unwrap();
                let mb = batch.depart(b).unwrap();
                assert_eq!(ma, mb, "departure machines diverge at step {step}");
            } else {
                let class = &classes[step % classes.len()];
                let name = format!("j{step}");
                let a = inc
                    .admit(&name, &class.name, everywhere(class, 2))
                    .unwrap()
                    .expect("capacity available");
                let b = batch
                    .admit(&name, &class.name, everywhere(class, 2))
                    .unwrap()
                    .expect("capacity available");
                assert_eq!(a.machine_index, b.machine_index, "step {step}");
                live.push((a.slot, b.slot));
            }
            assert_schedules_bits_eq(
                &inc.schedule().unwrap(),
                &batch.schedule().unwrap(),
            );
        }
        let stats = inc.stats();
        assert!(
            stats.resolves_skipped > 0,
            "incremental path never hit its memo: {stats:?}"
        );
        assert_eq!(batch.stats().resolves_skipped, 0, "batch mode must never skip");
    }

    #[test]
    fn full_fleet_queues_instead_of_overpacking() {
        let mut fleet = IncrementalFleet::new(vec![small_machine()]).unwrap();
        let j = job("w", 4.0, 1.0, 60.0);
        for i in 0..MAX_JOBS_PER_MACHINE {
            assert!(fleet
                .admit(&format!("j{i}"), "w", everywhere(&j, 1))
                .unwrap()
                .is_some());
        }
        assert!(!fleet.has_capacity());
        assert!(fleet.admit("overflow", "w", everywhere(&j, 1)).unwrap().is_none());
        assert_eq!(fleet.active_jobs(), MAX_JOBS_PER_MACHINE);
    }

    #[test]
    fn invalidate_machine_forces_fresh_solves() {
        let mut fleet = IncrementalFleet::new(vec![small_machine()]).unwrap();
        let j = job("w", 4.0, 1.0, 60.0);
        let a = fleet.admit("j0", "w", everywhere(&j, 1)).unwrap().unwrap();
        let before = fleet.stats();
        let s0 = fleet.schedule().unwrap();
        fleet.invalidate_machine(a.machine_index);
        // Departing an unrelated-but-same-machine event after invalidation
        // must recompute rather than answer from the memo.
        let b = fleet.admit("j1", "w", everywhere(&j, 1)).unwrap().unwrap();
        assert_eq!(b.machine_index, a.machine_index);
        let after = fleet.stats();
        assert!(after.resolves > before.resolves, "no fresh solve after invalidation");
        let _ = s0;
    }

    #[test]
    fn memo_capacity_is_enforced_and_counted() {
        // Capacity 1: every distinct resident class set displaces the
        // previous memo entry, so repeated admissions of *alternating*
        // classes never hit the memo while a stable class set would.
        let mut fleet = IncrementalFleet::new(vec![small_machine()])
            .unwrap()
            .with_memo_capacity(1);
        assert_eq!(fleet.memo_capacity(), 1);
        let a = job("a", 4.0, 1.0, 60.0);
        let b = job("b", 2.0, 3.0, 80.0);
        let s0 = fleet.admit("j0", "a", everywhere(&a, 1)).unwrap().unwrap();
        let s1 = fleet.admit("j1", "b", everywhere(&b, 1)).unwrap().unwrap();
        // {a} then {a,b}: the second solve evicts the first.
        assert_eq!(fleet.memo_len(), 1);
        assert!(fleet.stats().memo_evictions >= 1, "{:?}", fleet.stats());
        fleet.depart(s1.slot).unwrap();
        fleet.depart(s0.slot).unwrap();

        // Shrinking capacity evicts down immediately and counts it.
        let mut wide = IncrementalFleet::new(vec![small_machine(), big_machine()])
            .unwrap()
            .with_memo_capacity(8);
        let _ = wide.admit("j0", "a", everywhere(&a, 2)).unwrap().unwrap();
        let _ = wide.admit("j1", "b", everywhere(&b, 2)).unwrap().unwrap();
        let before = wide.stats().memo_evictions;
        let len = wide.memo_len();
        assert!(len >= 2, "expected at least two memo entries, got {len}");
        wide.set_memo_capacity(1);
        assert_eq!(wide.memo_len(), 1);
        assert_eq!(wide.stats().memo_evictions, before + (len as u64 - 1));
    }

    #[test]
    fn restore_rebuilds_bit_identical_schedules() {
        let machines = vec![small_machine(), big_machine()];
        let classes =
            [job("heavy", 6.0, 1.0, 400.0), job("light", 6.0, 1.0, 50.0)];
        let mut fleet = IncrementalFleet::new(machines.clone()).unwrap();
        let mut live: Vec<(usize, String, String)> = Vec::new();
        for step in 0..6usize {
            let class = &classes[step % classes.len()];
            let name = format!("j{step}");
            let a = fleet
                .admit(&name, &class.name, everywhere(class, 2))
                .unwrap()
                .expect("capacity available");
            live.push((a.slot, name, class.name.clone()));
        }
        // Drop the middle two so restored slots must compact.
        for (slot, _, _) in live.drain(2..4) {
            fleet.depart(slot).unwrap();
        }
        let want = fleet.schedule().unwrap();

        let mut restored = IncrementalFleet::new(machines.clone()).unwrap();
        let payload: Vec<_> = live
            .iter()
            .map(|(slot, name, class)| {
                let desc = classes.iter().find(|c| &c.name == class).unwrap();
                (
                    name.clone(),
                    class.clone(),
                    fleet.job_machine(*slot).unwrap(),
                    everywhere(desc, 2),
                )
            })
            .collect();
        let slots = restored.restore_jobs(payload).unwrap();
        assert_eq!(slots, vec![0, 1, 2, 3], "restored slots must compact");
        assert_schedules_bits_eq(&want, &restored.schedule().unwrap());

        // A second restore on a non-empty fleet is rejected.
        assert!(restored.restore_jobs(Vec::new()).is_err());
    }

    #[test]
    fn departing_a_dead_slot_is_an_error() {
        let mut fleet = IncrementalFleet::new(vec![small_machine()]).unwrap();
        let j = job("w", 4.0, 1.0, 60.0);
        let a = fleet.admit("j0", "w", everywhere(&j, 1)).unwrap().unwrap();
        assert_eq!(fleet.job_machine(a.slot), Some(0));
        assert_eq!(fleet.depart(a.slot).unwrap(), 0);
        assert!(fleet.depart(a.slot).is_err(), "double departure must fail");
        assert!(fleet.depart(99).is_err(), "unknown slot must fail");
        assert_eq!(fleet.active_jobs(), 0);
        let empty = fleet.schedule().unwrap();
        assert!(empty.assignments.is_empty());
        assert_eq!(empty.makespan.to_bits(), 0.0_f64.to_bits());
    }
}
