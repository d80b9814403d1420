//! The placement service: an event loop over the incremental fleet
//! scheduler.
//!
//! [`Daemon`] consumes [`Event`]s one at a time, maintains the job
//! queue's status transitions, and keeps the fleet schedule current via
//! [`IncrementalFleet`] — re-solving only the machines each event
//! touches (the `with_incremental(false)` escape hatch re-solves
//! everything from scratch and must agree bit for bit).
//!
//! Everything is seeded and logical-time: faults are drawn from a
//! splitmix64 hash of `(seed, job, attempt)`, the transcript's clock is
//! the event index, and times are predictions — so the same event log
//! always produces byte-identical transcripts and schedules, at any
//! `--jobs` worker count.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use pandia_core::{
    DriftPolicy, ExecContext, FleetSchedule, FleetStats, IncrementalFleet, MachineDescription,
    PandiaError, WorkloadDescription,
};
use pandia_sim::FaultPlan;

use crate::event::Event;
use crate::job::{JobRecord, JobStatus};

/// Per-machine workload descriptions for each job class the daemon can
/// place. The class string is a description identity: every submission
/// of a class uses these exact descriptions, which is what lets the
/// incremental scheduler answer repeated resident sets from its memo.
pub type ClassCatalog = BTreeMap<String, Vec<WorkloadDescription>>;

/// Admission-control and load-shedding policy for the submission queue.
///
/// The defaults are fully permissive (unbounded queue, no deadline, no
/// high-water mark), which reproduces the pre-policy daemon byte for
/// byte — overload protection is strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum queued (not running) jobs; submissions beyond this are
    /// rejected at the door with an explicit `rejected` transition.
    pub max_depth: usize,
    /// Queue depth above which (a) overflow shedding drops the
    /// lowest-priority queued jobs back down to the mark and (b) the
    /// daemon enters degraded mode, halving the fleet memo capacity.
    pub high_water: usize,
    /// Maximum logical-clock ticks a job may wait in the queue before
    /// deadline shedding drops it. `None` disables deadline shedding.
    pub deadline: Option<u64>,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        Self { max_depth: usize::MAX, high_water: usize::MAX, deadline: None }
    }
}

/// Capped exponential backoff for faulted placements, measured in
/// logical event time: attempt `k` (1-based) waits
/// `min(cap, base << (k-1))` ticks (at least 1) before redispatch.
/// Replaces the old same-event "retry storm", which burned the whole
/// attempt budget inside a single fault burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-retry delay in events.
    pub backoff_base: u64,
    /// Upper bound on any single delay, in events.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { backoff_base: 1, backoff_cap: 8 }
    }
}

impl RetryPolicy {
    /// Delay before redispatching attempt `attempt` (1-based), in events.
    /// Deterministic — the backoff schedule is a pure function of the
    /// attempt number, so journal replay reproduces it bit for bit.
    pub fn delay(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_base
            .checked_shl(shift)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
            .max(1)
    }
}

/// Tunables for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Seed for fault draws (and anything else the daemon randomizes).
    pub seed: u64,
    /// Fault plan: `transient_rate` is the per-placement probability that
    /// a job's startup faults and must be retried.
    pub faults: FaultPlan,
    /// Placement attempts before a job is marked failed.
    pub max_attempts: u32,
    /// Drift handling for observed-vs-predicted completion times.
    pub drift: DriftPolicy,
    /// Incremental delta path (default) vs from-scratch batch oracle.
    pub incremental: bool,
    /// Execution context for co-schedule searches.
    pub exec: ExecContext,
    /// Admission control and load shedding.
    pub queue: QueuePolicy,
    /// Backoff schedule for faulted placements.
    pub retry: RetryPolicy,
    /// Fleet solve-memo capacity (halved while degraded).
    pub memo_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            faults: FaultPlan::none(),
            max_attempts: 3,
            drift: DriftPolicy::default(),
            incremental: true,
            exec: ExecContext::serial(),
            queue: QueuePolicy::default(),
            retry: RetryPolicy::default(),
            memo_capacity: pandia_core::DEFAULT_MEMO_CAPACITY,
        }
    }
}

/// The audit ledger: every consequential transition the daemon made,
/// counted. Telemetry counters must reconcile against this exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonAudit {
    /// Events applied.
    pub events: u64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Successful placements (a retried job counts once per success).
    pub placed: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that exhausted their attempt budget (or were canceled).
    pub failed: u64,
    /// Re-queues after a fault or external failure.
    pub retries: u64,
    /// Faulted placements drawn from the fault plan.
    pub faulted: u64,
    /// Machine reprofiles triggered by drift detection.
    pub reprofiles: u64,
    /// Submissions refused at the door (queue at `max_depth`).
    pub rejected: u64,
    /// Queued jobs dropped by deadline or overflow shedding.
    pub shed: u64,
}

/// `pandiad`: the event-driven placement service.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
    fleet: IncrementalFleet,
    catalog: ClassCatalog,
    jobs: Vec<JobRecord>,
    index: BTreeMap<String, usize>,
    queue: VecDeque<usize>,
    transcript: String,
    audit: DaemonAudit,
    clock: u64,
    drift_streak: Vec<usize>,
    reprofiles_done: usize,
    degraded: bool,
    last_checkpoint: Option<u64>,
}

/// A uniform draw in `[0, 1)` from a splitmix64 hash of the seed, the
/// job name, and the attempt number — stateless, so replays at any
/// worker count see the identical fault storm.
fn fault_roll(seed: u64, job: &str, attempt: u32) -> f64 {
    let mut h = seed ^ 0x243F_6A88_85A3_08D3;
    for b in job.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Daemon {
    /// Creates a daemon over a fleet of machines and a class catalog.
    /// Every catalog entry must carry exactly one description per
    /// machine.
    pub fn new(
        machines: Vec<MachineDescription>,
        catalog: ClassCatalog,
        config: DaemonConfig,
    ) -> Result<Self, PandiaError> {
        let n = machines.len();
        for (class, descs) in &catalog {
            if descs.len() != n {
                return Err(PandiaError::Mismatch {
                    reason: format!(
                        "class '{class}' has {} descriptions for {n} machines",
                        descs.len()
                    ),
                });
            }
        }
        let fleet = IncrementalFleet::new(machines)?
            .with_exec(config.exec.clone())
            .with_incremental(config.incremental)
            .with_memo_capacity(config.memo_capacity);
        Ok(Self {
            config,
            fleet,
            catalog,
            jobs: Vec::new(),
            index: BTreeMap::new(),
            queue: VecDeque::new(),
            transcript: String::new(),
            audit: DaemonAudit::default(),
            clock: 0,
            drift_streak: vec![0; n],
            reprofiles_done: 0,
            degraded: false,
            last_checkpoint: None,
        })
    }

    /// The accumulated status transcript (one line per transition, logical
    /// clock = event index).
    pub fn transcript(&self) -> &str {
        &self.transcript
    }

    /// The audit ledger so far.
    pub fn audit(&self) -> DaemonAudit {
        self.audit
    }

    /// Solve counters from the underlying fleet scheduler.
    pub fn fleet_stats(&self) -> FleetStats {
        self.fleet.stats()
    }

    /// The current fleet schedule over running jobs.
    pub fn schedule(&self) -> Result<FleetSchedule, PandiaError> {
        self.fleet.schedule()
    }

    /// Number of jobs waiting for capacity.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Number of jobs currently placed.
    pub fn running(&self) -> usize {
        self.fleet.active_jobs()
    }

    /// The logical clock: how many events have been applied.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether the daemon is in degraded (overload) mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Sequence number of the most recent checkpoint, if any was taken.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.last_checkpoint
    }

    /// Records that a checkpoint covering everything up to `seq` was
    /// durably written (the driver owns the file I/O).
    pub fn note_checkpoint(&mut self, seq: u64) {
        self.last_checkpoint = Some(seq);
    }

    /// Live entry count of the fleet's solve memo.
    pub fn memo_len(&self) -> usize {
        self.fleet.memo_len()
    }

    /// Current capacity of the fleet's solve memo (halved while
    /// degraded).
    pub fn memo_capacity(&self) -> usize {
        self.fleet.memo_capacity()
    }

    /// Lifecycle state of a job by name, if the daemon has seen it.
    pub fn job_status(&self, name: &str) -> Option<JobStatus> {
        self.index.get(name).map(|&id| self.jobs[id].status)
    }

    /// Renders one `pandia-metrics-snapshot-v1` heartbeat line (no
    /// trailing newline): the daemon's own state — logical clock, queue
    /// depth, running jobs, audit counts, fleet skip ratio — which is
    /// deterministic for a given event stream regardless of worker
    /// count, followed by the live telemetry registry (counters, gauges,
    /// histogram p50/p99, span-buffer drops) when the global recorder is
    /// installed. The registry part carries wall-clock latencies and is
    /// *not* run-deterministic; consumers that diff snapshots should
    /// compare the daemon fields only.
    pub fn snapshot_line(&self) -> String {
        let stats = self.fleet.stats();
        let solves = stats.resolves + stats.resolves_skipped;
        let skip_ratio =
            if solves > 0 { stats.resolves_skipped as f64 / solves as f64 } else { 0.0 };
        let mut line = format!(
            "{{\"schema\":\"{}\",\"clock\":{},\"events\":{},\"queued\":{},\"running\":{},\
             \"completed\":{},\"failed\":{},\"retries\":{},\"faulted\":{},\
             \"rejected\":{},\"shed\":{},\"degraded\":{},\
             \"memo_len\":{},\"memo_capacity\":{},\"last_checkpoint_seq\":{},\
             \"fleet_resolves\":{},\"fleet_skip_ratio\":{:.6}",
            pandia_obs::SNAPSHOT_SCHEMA,
            self.clock,
            self.audit.events,
            self.queued(),
            self.running(),
            self.audit.completed,
            self.audit.failed,
            self.audit.retries,
            self.audit.faulted,
            self.audit.rejected,
            self.audit.shed,
            u8::from(self.degraded),
            self.fleet.memo_len(),
            self.fleet.memo_capacity(),
            match self.last_checkpoint {
                Some(seq) => seq as i64,
                None => -1,
            },
            stats.resolves,
            skip_ratio,
        );
        if let Some(recorder) = pandia_obs::global() {
            line.push(',');
            line.push_str(&recorder.snapshot_fields());
        }
        line.push('}');
        line
    }

    fn say(&mut self, line: &str) {
        let _ = writeln!(self.transcript, "[{:04}] {line}", self.clock);
    }

    /// Applies one event. Each application is wrapped in a `daemon` span
    /// whose duration feeds the `daemon.event_latency_us` histogram.
    pub fn apply(&mut self, event: &Event) -> Result<(), PandiaError> {
        let _span = pandia_obs::span("daemon", event.kind())
            .arg("clock", self.clock)
            .observe_as("daemon.event_latency_us");
        pandia_obs::count("daemon.events", 1);
        self.audit.events += 1;
        match event {
            Event::Submit { job, class, priority } => self.on_submit(job, class, *priority)?,
            Event::Complete { job, elapsed } => self.on_complete(job, *elapsed)?,
            Event::Fail { job } => self.on_fail(job)?,
            Event::Query => self.on_query()?,
        }
        // One dispatch pass per event, at the event's clock: it places
        // what a submission queued or a departure freed room for, and
        // retries backoff-delayed jobs whose `not_before` just expired
        // even when the event itself (e.g. a query) moved no fleet state.
        self.dispatch()?;
        self.update_overload_mode();
        self.shed()?;
        pandia_obs::gauge("daemon.queue_depth", self.queue.len() as f64);
        pandia_obs::gauge("daemon.running", self.fleet.active_jobs() as f64);
        self.clock += 1;
        Ok(())
    }

    /// Applies a whole event stream in order.
    pub fn run(&mut self, events: &[Event]) -> Result<(), PandiaError> {
        for event in events {
            self.apply(event)?;
        }
        Ok(())
    }

    fn on_submit(&mut self, job: &str, class: &str, priority: u8) -> Result<(), PandiaError> {
        if self.index.contains_key(job) {
            return Err(PandiaError::Mismatch {
                reason: format!("duplicate submission of job '{job}'"),
            });
        }
        if !self.catalog.contains_key(class) {
            return Err(PandiaError::Mismatch {
                reason: format!("job '{job}' names unknown class '{class}'"),
            });
        }
        let id = self.jobs.len();
        let mut record = JobRecord::new(job, class);
        record.priority = priority;
        record.enqueued_at = self.clock;
        // Admission control: a full queue rejects at the door. The job is
        // still recorded (terminal `Rejected`) so the audit trail accounts
        // for it and later complete/fail events degrade to no-ops instead
        // of unknown-job errors.
        if self.queue.len() >= self.config.queue.max_depth {
            record.status = JobStatus::Rejected;
            let depth = self.queue.len();
            self.jobs.push(record);
            self.index.insert(job.to_string(), id);
            pandia_obs::count("daemon.rejected", 1);
            self.audit.rejected += 1;
            self.say(&format!(
                "reject {job} class={class} reason=queue_full depth={depth} -> rejected"
            ));
            return Ok(());
        }
        self.jobs.push(record);
        self.index.insert(job.to_string(), id);
        self.queue.push_back(id);
        pandia_obs::count("daemon.submitted", 1);
        self.audit.submitted += 1;
        self.say(&format!("submit {job} class={class} -> queued"));
        Ok(())
    }

    fn on_complete(&mut self, job: &str, elapsed: Option<f64>) -> Result<(), PandiaError> {
        let id = self.lookup(job)?;
        match self.jobs[id].status {
            JobStatus::Running => {
                let slot = self.jobs[id].slot.ok_or_else(|| PandiaError::Mismatch {
                    reason: format!("running job '{job}' has no fleet slot"),
                })?;
                let machine = self.fleet.depart(slot)?;
                let predicted = self.jobs[id].predicted_time;
                self.jobs[id].status = JobStatus::Completed;
                self.jobs[id].slot = None;
                pandia_obs::count("daemon.completed", 1);
                self.audit.completed += 1;
                self.say(&format!("complete {job} machine={machine} -> completed"));
                self.check_drift(machine, predicted, elapsed);
            }
            JobStatus::Queued => {
                self.queue.retain(|&q| q != id);
                self.jobs[id].status = JobStatus::Completed;
                pandia_obs::count("daemon.completed", 1);
                self.audit.completed += 1;
                self.say(&format!("complete {job} (was queued) -> completed"));
            }
            status => {
                self.say(&format!("complete {job} ignored (already {})", status.tag()));
            }
        }
        Ok(())
    }

    fn on_fail(&mut self, job: &str) -> Result<(), PandiaError> {
        let id = self.lookup(job)?;
        match self.jobs[id].status {
            JobStatus::Running => {
                let slot = self.jobs[id].slot.ok_or_else(|| PandiaError::Mismatch {
                    reason: format!("running job '{job}' has no fleet slot"),
                })?;
                let machine = self.fleet.depart(slot)?;
                self.jobs[id].slot = None;
                self.jobs[id].machine = None;
                if self.jobs[id].attempts >= self.config.max_attempts {
                    self.jobs[id].status = JobStatus::Failed;
                    pandia_obs::count("daemon.failed", 1);
                    self.audit.failed += 1;
                    self.say(&format!(
                        "fail {job} machine={machine} attempts exhausted -> failed"
                    ));
                } else {
                    self.jobs[id].status = JobStatus::Queued;
                    self.jobs[id].enqueued_at = self.clock;
                    self.queue.push_back(id);
                    pandia_obs::count("daemon.retries", 1);
                    self.audit.retries += 1;
                    self.say(&format!("fail {job} machine={machine} -> queued (retry)"));
                }
            }
            JobStatus::Queued => {
                self.queue.retain(|&q| q != id);
                self.jobs[id].status = JobStatus::Failed;
                pandia_obs::count("daemon.failed", 1);
                self.audit.failed += 1;
                self.say(&format!("fail {job} (was queued) -> failed"));
            }
            status => {
                self.say(&format!("fail {job} ignored (already {})", status.tag()));
            }
        }
        Ok(())
    }

    fn on_query(&mut self) -> Result<(), PandiaError> {
        let schedule = self.fleet.schedule()?;
        self.say(&format!(
            "query makespan={:.6} running={} queued={}",
            schedule.makespan,
            schedule.assignments.len(),
            self.queue.len()
        ));
        for a in &schedule.assignments {
            self.say(&format!(
                "  {} machine={} threads={} predicted={:.6}",
                a.workload, a.machine, a.n_threads, a.predicted_time
            ));
        }
        Ok(())
    }

    /// Places queued jobs (FIFO among the eligible) while the fleet has
    /// capacity, drawing a fault per placement attempt. A faulted
    /// placement departs immediately and re-queues at the back under the
    /// [`RetryPolicy`]'s capped exponential backoff — the job becomes
    /// eligible again only once the logical clock reaches its
    /// `not_before`, so one fault burst no longer burns the whole
    /// attempt budget within a single event ("retry storm"). Jobs still
    /// inside their backoff window are scanned past, not reordered.
    fn dispatch(&mut self) -> Result<(), PandiaError> {
        let mut scan = 0;
        while scan < self.queue.len() {
            if !self.fleet.has_capacity() {
                break;
            }
            let id = self.queue[scan];
            if self.jobs[id].not_before > self.clock {
                scan += 1;
                continue;
            }
            let name = self.jobs[id].name.clone();
            let class = self.jobs[id].class.clone();
            let descs = self.catalog.get(&class).cloned().ok_or_else(|| {
                PandiaError::Mismatch { reason: format!("class '{class}' left the catalog") }
            })?;
            let Some(admission) = self.fleet.admit(&name, &class, descs)? else {
                // Capacity raced away between the check and the admit;
                // leave the queue as it stands.
                break;
            };
            self.jobs[id].attempts += 1;
            let roll = fault_roll(self.config.seed, &name, self.jobs[id].attempts);
            if roll < self.config.faults.transient_rate {
                self.fleet.depart(admission.slot)?;
                pandia_obs::count("daemon.faulted", 1);
                self.audit.faulted += 1;
                self.queue.remove(scan);
                if self.jobs[id].attempts >= self.config.max_attempts {
                    self.jobs[id].status = JobStatus::Failed;
                    pandia_obs::count("daemon.failed", 1);
                    self.audit.failed += 1;
                    self.say(&format!(
                        "fail {name} after {} faulted attempts -> failed",
                        self.jobs[id].attempts
                    ));
                } else {
                    let delay = self.config.retry.delay(self.jobs[id].attempts);
                    self.jobs[id].not_before = self.clock + delay;
                    self.jobs[id].enqueued_at = self.clock;
                    self.queue.push_back(id);
                    pandia_obs::count("daemon.retries", 1);
                    self.audit.retries += 1;
                    self.say(&format!(
                        "fault {name} attempt={} machine={} backoff={delay} -> queued",
                        self.jobs[id].attempts, admission.machine
                    ));
                }
                continue;
            }
            self.jobs[id].status = JobStatus::Running;
            self.jobs[id].slot = Some(admission.slot);
            self.jobs[id].machine = Some(admission.machine_index);
            self.jobs[id].predicted_time = Some(admission.predicted_time);
            pandia_obs::count("daemon.placed", 1);
            self.audit.placed += 1;
            self.say(&format!(
                "place {name} machine={} threads={} predicted={:.6} -> running",
                admission.machine, admission.n_threads, admission.predicted_time
            ));
            self.queue.remove(scan);
        }
        Ok(())
    }

    /// Degraded-mode hysteresis: entering overload (queue depth above the
    /// high-water mark) halves the fleet solve-memo capacity so memory
    /// shrinks exactly when the machine is busiest; recovery (depth back
    /// at or below half the mark) restores it. Transitions are logged so
    /// transcripts pin when the daemon changed shape.
    fn update_overload_mode(&mut self) {
        let high = self.config.queue.high_water;
        if high == usize::MAX {
            return;
        }
        let depth = self.queue.len();
        if !self.degraded && depth > high {
            self.degraded = true;
            let halved = (self.config.memo_capacity / 2).max(1);
            self.fleet.set_memo_capacity(halved);
            pandia_obs::count("daemon.degraded_entries", 1);
            self.say(&format!(
                "degrade queue={depth} high_water={high} memo_capacity={halved}"
            ));
        } else if self.degraded && depth <= high / 2 {
            self.degraded = false;
            let full = self.config.memo_capacity;
            self.fleet.set_memo_capacity(full);
            self.say(&format!(
                "restore queue={depth} high_water={high} memo_capacity={full}"
            ));
        }
    }

    /// Load shedding, run after every event: first drop queued jobs whose
    /// waiting time exceeded the deadline, then — while the queue is
    /// still above the high-water mark — drop the lowest-priority queued
    /// job (oldest first, then lowest id, so the victim is deterministic).
    /// Running jobs are never candidates: only queue members are scanned,
    /// and by construction those hold no fleet slot.
    fn shed(&mut self) -> Result<(), PandiaError> {
        if let Some(deadline) = self.config.queue.deadline {
            let clock = self.clock;
            let expired: Vec<usize> = self
                .queue
                .iter()
                .copied()
                .filter(|&id| clock.saturating_sub(self.jobs[id].enqueued_at) > deadline)
                .collect();
            for id in expired {
                let waited = clock.saturating_sub(self.jobs[id].enqueued_at);
                self.shed_job(id, &format!("reason=deadline waited={waited}"));
            }
        }
        let high = self.config.queue.high_water;
        while self.queue.len() > high {
            // min_by_key on (priority, enqueued_at, id): lowest priority
            // first; among equals the longest-waiting (it has burned the
            // most of its deadline already), then smallest id.
            let Some(victim) = self
                .queue
                .iter()
                .copied()
                .min_by_key(|&id| (self.jobs[id].priority, self.jobs[id].enqueued_at, id))
            else {
                break; // unreachable: the queue is non-empty above high water
            };
            let priority = self.jobs[victim].priority;
            self.shed_job(victim, &format!("reason=overflow priority={priority}"));
        }
        // Shedding freed queue slots, never fleet slots, so no dispatch
        // pass is needed afterwards.
        Ok(())
    }

    /// Removes one queued job and marks it rejected (shed).
    fn shed_job(&mut self, id: usize, detail: &str) {
        self.queue.retain(|&q| q != id);
        self.jobs[id].status = JobStatus::Rejected;
        let name = self.jobs[id].name.clone();
        pandia_obs::count("daemon.shed", 1);
        self.audit.shed += 1;
        self.say(&format!("shed {name} {detail} -> rejected"));
    }

    /// Drift handling: consecutive completions on one machine whose
    /// observed runtimes deviate from prediction beyond the tolerance
    /// invalidate that machine's solve memo (a "reprofile"), forcing
    /// fresh co-schedules until the memo rebuilds.
    fn check_drift(&mut self, machine: usize, predicted: Option<f64>, elapsed: Option<f64>) {
        if !self.config.drift.enabled {
            return;
        }
        let (Some(predicted), Some(elapsed)) = (predicted, elapsed) else { return };
        if predicted <= 0.0 {
            return;
        }
        let deviation = ((elapsed - predicted) / predicted).abs();
        if deviation > self.config.drift.tolerance {
            self.drift_streak[machine] += 1;
        } else {
            self.drift_streak[machine] = 0;
        }
        if self.drift_streak[machine] >= self.config.drift.consecutive
            && self.reprofiles_done < self.config.drift.max_reprofiles
        {
            self.fleet.invalidate_machine(machine);
            self.reprofiles_done += 1;
            self.audit.reprofiles += 1;
            pandia_obs::count("daemon.reprofiles", 1);
            self.drift_streak[machine] = 0;
            let streak = self.config.drift.consecutive;
            self.say(&format!("reprofile machine={machine} (drift x{streak})"));
        }
    }

    fn lookup(&self, job: &str) -> Result<usize, PandiaError> {
        self.index.get(job).copied().ok_or_else(|| PandiaError::Mismatch {
            reason: format!("unknown job '{job}'"),
        })
    }

    /// A human-readable status report for `pandiactl status`.
    pub fn status_report(&self) -> String {
        let mut out = String::new();
        let counts = self.jobs.iter().fold([0usize; 5], |mut acc, j| {
            match j.status {
                JobStatus::Queued => acc[0] += 1,
                JobStatus::Running => acc[1] += 1,
                JobStatus::Completed => acc[2] += 1,
                JobStatus::Failed => acc[3] += 1,
                JobStatus::Rejected => acc[4] += 1,
            }
            acc
        });
        let _ = writeln!(
            out,
            "jobs: {} queued, {} running, {} completed, {} failed, {} rejected",
            counts[0], counts[1], counts[2], counts[3], counts[4]
        );
        let _ = writeln!(
            out,
            "queue: depth={} rejected={} shed={} degraded={}",
            self.queue.len(),
            self.audit.rejected,
            self.audit.shed,
            if self.degraded { "yes" } else { "no" }
        );
        let _ = writeln!(
            out,
            "checkpoint: {}",
            match self.last_checkpoint {
                Some(seq) => format!("last_seq={seq}"),
                None => "none".to_string(),
            }
        );
        let stats = self.fleet.stats();
        let _ = writeln!(
            out,
            "fleet: {} machines, {} resolves, {} skipped",
            self.fleet.machines().len(),
            stats.resolves,
            stats.resolves_skipped
        );
        for job in &self.jobs {
            if job.is_live() {
                let place = match job.machine {
                    Some(m) => format!(" machine={m}"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {} class={} status={}{place} attempts={}",
                    job.name,
                    job.class,
                    job.status.tag(),
                    job.attempts
                );
            }
        }
        out
    }

    /// Names of the live (queued or running) jobs, in submission order.
    pub fn live_jobs(&self) -> Vec<String> {
        self.jobs.iter().filter(|j| j.is_live()).map(|j| j.name.clone()).collect()
    }

    /// Drains the daemon: completes every running job and cancels every
    /// queued one, in deterministic (submission) order. Used by
    /// `pandiactl drain` and at shutdown.
    pub fn drain(&mut self) -> Result<(), PandiaError> {
        for name in self.live_jobs() {
            self.apply(&Event::Complete { job: name, elapsed: None })?;
        }
        Ok(())
    }

    /// Health for the `pandiactl status` exit-code contract: 0 healthy,
    /// 1 degraded (overload mode active).
    pub fn health(&self) -> u8 {
        u8::from(self.degraded)
    }

    /// Serializes the daemon's full logical state as a
    /// `pandia-checkpoint-v1` document (JSONL: schema+seq line, meta
    /// line, one line per job record, transcript line).
    ///
    /// The fleet's schedules are deliberately *not* serialized: the
    /// co-scheduler is a pure function of the resident descriptions, so
    /// [`restore`](Self::restore) re-derives bit-identical schedules by
    /// re-solving each occupied machine. Fleet solve *counters* restart
    /// from zero after a restore — the audit ledger, transcript, and
    /// schedule bits are the recovery contract, not profiling stats.
    pub fn checkpoint(&self) -> String {
        use crate::event::json_string;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"schema\":\"{}\",\"seq\":{}}}",
            pandia_obs::schema::CHECKPOINT_SCHEMA,
            self.clock
        );
        let a = &self.audit;
        let queue: Vec<String> = self.queue.iter().map(|id| id.to_string()).collect();
        let streaks: Vec<String> =
            self.drift_streak.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(
            out,
            "{{\"clock\":{},\"events\":{},\"submitted\":{},\"placed\":{},\
             \"completed\":{},\"failed\":{},\"retries\":{},\"faulted\":{},\
             \"reprofiles\":{},\"rejected\":{},\"shed\":{},\
             \"reprofiles_done\":{},\"degraded\":{},\
             \"drift_streak\":[{}],\"queue\":[{}]}}",
            self.clock,
            a.events,
            a.submitted,
            a.placed,
            a.completed,
            a.failed,
            a.retries,
            a.faulted,
            a.reprofiles,
            a.rejected,
            a.shed,
            self.reprofiles_done,
            self.degraded,
            streaks.join(","),
            queue.join(",")
        );
        for job in &self.jobs {
            out.push_str("{\"job\":");
            json_string(&mut out, &job.name);
            out.push_str(",\"class\":");
            json_string(&mut out, &job.class);
            let _ = write!(
                out,
                ",\"status\":\"{}\",\"attempts\":{},\"priority\":{},\"enqueued_at\":{},\
                 \"not_before\":{}",
                job.status.tag(),
                job.attempts,
                job.priority,
                job.enqueued_at,
                job.not_before
            );
            if let Some(slot) = job.slot {
                let _ = write!(out, ",\"slot\":{slot}");
            }
            if let Some(machine) = job.machine {
                let _ = write!(out, ",\"machine\":{machine}");
            }
            if let Some(t) = job.predicted_time {
                // Bit pattern, not decimal: predictions must survive the
                // round trip exactly or post-recovery drift checks skew.
                let _ = write!(out, ",\"predicted_bits\":{}", t.to_bits());
            }
            out.push_str("}\n");
        }
        // The transcript is escaped straight into the document: it is
        // most of a checkpoint's bytes, so no copy of it is built.
        out.push_str("{\"transcript\":");
        json_string(&mut out, &self.transcript);
        out.push_str("}\n");
        out
    }

    /// Reconstructs a daemon from a checkpoint document plus the same
    /// machines/catalog/config it was created with. Running jobs are
    /// re-seated in slot order (slots compact to `0..k`, preserving the
    /// schedule-relative order that transcripts depend on) and every
    /// occupied machine is re-solved, yielding schedules bit-identical
    /// to the checkpointed daemon's.
    pub fn restore(
        machines: Vec<MachineDescription>,
        catalog: ClassCatalog,
        config: DaemonConfig,
        text: &str,
    ) -> Result<Self, PandiaError> {
        use crate::event::{field, str_field};
        let bad = |message: String| PandiaError::Serde { message };
        /// An integer field that must fit its target type.
        fn uint<T: TryFrom<u64>>(
            value: &serde_json::Value,
            key: &str,
            line: usize,
        ) -> Result<T, PandiaError> {
            let n =
                field(value, key).and_then(|v| v.as_u64()).ok_or_else(|| PandiaError::Serde {
                    message: format!("checkpoint line {line}: missing integer field '{key}'"),
                })?;
            T::try_from(n).map_err(|_| PandiaError::Serde {
                message: format!("checkpoint line {line}: field '{key}' out of range: {n}"),
            })
        }

        let mut daemon = Daemon::new(machines, catalog, config)?;
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let parse = |raw: (usize, &str)| -> Result<(usize, serde_json::Value), PandiaError> {
            let (i, line) = raw;
            serde_json::from_str(line.trim())
                .map(|v| (i + 1, v))
                .map_err(|e| bad(format!("checkpoint line {}: {e}", i + 1)))
        };

        let (line, header) =
            parse(lines.next().ok_or_else(|| bad("checkpoint is empty".into()))?)?;
        let schema = str_field(&header, "schema", line)?;
        if schema != pandia_obs::schema::CHECKPOINT_SCHEMA {
            return Err(bad(format!(
                "checkpoint schema mismatch: expected '{}', got '{schema}'",
                pandia_obs::schema::CHECKPOINT_SCHEMA
            )));
        }
        let seq = uint(&header, "seq", line)?;

        let (line, meta) =
            parse(lines.next().ok_or_else(|| bad("checkpoint has no meta line".into()))?)?;
        let clock = uint(&meta, "clock", line)?;
        if clock != seq {
            return Err(bad(format!(
                "checkpoint seq {seq} disagrees with clock {clock}"
            )));
        }
        daemon.clock = clock;
        daemon.audit = DaemonAudit {
            events: uint(&meta, "events", line)?,
            submitted: uint(&meta, "submitted", line)?,
            placed: uint(&meta, "placed", line)?,
            completed: uint(&meta, "completed", line)?,
            failed: uint(&meta, "failed", line)?,
            retries: uint(&meta, "retries", line)?,
            faulted: uint(&meta, "faulted", line)?,
            reprofiles: uint(&meta, "reprofiles", line)?,
            rejected: uint(&meta, "rejected", line)?,
            shed: uint(&meta, "shed", line)?,
        };
        daemon.reprofiles_done = uint(&meta, "reprofiles_done", line)?;
        let degraded = field(&meta, "degraded")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| bad(format!("checkpoint line {line}: missing 'degraded'")))?;
        let streaks = field(&meta, "drift_streak")
            .and_then(|v| v.as_array())
            .ok_or_else(|| bad(format!("checkpoint line {line}: missing 'drift_streak'")))?;
        if streaks.len() != daemon.drift_streak.len() {
            return Err(bad(format!(
                "checkpoint carries {} drift streaks for {} machines",
                streaks.len(),
                daemon.drift_streak.len()
            )));
        }
        let index = |v: &serde_json::Value| v.as_u64().and_then(|n| usize::try_from(n).ok());
        for (i, s) in streaks.iter().enumerate() {
            daemon.drift_streak[i] =
                index(s).ok_or_else(|| bad(format!("checkpoint line {line}: bad drift streak")))?;
        }
        let queue_ids: Vec<usize> = field(&meta, "queue")
            .and_then(|v| v.as_array())
            .ok_or_else(|| bad(format!("checkpoint line {line}: missing 'queue'")))?
            .iter()
            .map(index)
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| bad(format!("checkpoint line {line}: bad queue id")))?;

        // Job lines until the trailing transcript line.
        let mut transcript: Option<String> = None;
        let mut old_slots: Vec<(usize, usize)> = Vec::new(); // (old slot, job id)
        for raw in lines {
            let (line, value) = parse(raw)?;
            if let Some(t) = field(&value, "transcript") {
                let t = t
                    .as_str()
                    .ok_or_else(|| bad(format!("checkpoint line {line}: bad transcript")))?;
                transcript = Some(t.to_string());
                continue;
            }
            let name = str_field(&value, "job", line)?;
            let class = str_field(&value, "class", line)?;
            if !daemon.catalog.contains_key(&class) {
                return Err(bad(format!(
                    "checkpoint job '{name}' names unknown class '{class}'"
                )));
            }
            let status = str_field(&value, "status", line)?;
            let status = JobStatus::from_tag(&status)
                .ok_or_else(|| bad(format!("checkpoint line {line}: bad status '{status}'")))?;
            let mut record = JobRecord::new(&name, &class);
            record.status = status;
            record.attempts = uint(&value, "attempts", line)?;
            record.priority = uint(&value, "priority", line)?;
            record.enqueued_at = uint(&value, "enqueued_at", line)?;
            record.not_before = uint(&value, "not_before", line)?;
            if field(&value, "machine").is_some() {
                record.machine = Some(uint(&value, "machine", line)?);
            }
            record.predicted_time =
                field(&value, "predicted_bits").and_then(|v| v.as_u64()).map(f64::from_bits);
            let id = daemon.jobs.len();
            if status == JobStatus::Running {
                old_slots.push((uint(&value, "slot", line)?, id));
            }
            if daemon.index.insert(name, id).is_some() {
                return Err(bad(format!(
                    "checkpoint line {line}: duplicate job '{}'",
                    record.name
                )));
            }
            daemon.jobs.push(record);
        }
        let transcript =
            transcript.ok_or_else(|| bad("checkpoint has no transcript line".into()))?;

        // The queue must list every queued job exactly once: a repeat
        // would place the job twice, an omission would strand it.
        let mut listed = vec![false; daemon.jobs.len()];
        for &id in &queue_ids {
            if id >= daemon.jobs.len() || daemon.jobs[id].status != JobStatus::Queued {
                return Err(bad(format!("checkpoint queue names non-queued job id {id}")));
            }
            if std::mem::replace(&mut listed[id], true) {
                return Err(bad(format!("checkpoint queue lists job id {id} twice")));
            }
        }
        let stranded =
            daemon.jobs.iter().zip(&listed).find(|&(j, &l)| !l && j.status == JobStatus::Queued);
        if let Some((job, _)) = stranded {
            return Err(bad(format!("checkpoint queue omits queued job '{}'", job.name)));
        }
        daemon.queue = queue_ids.into();

        // Re-seat running jobs in old-slot order: slots compact to 0..k
        // but their relative order — which fixes per-machine resident
        // order and therefore the solved schedules — is preserved.
        old_slots.sort_unstable();
        let payload: Vec<(String, String, usize, Vec<WorkloadDescription>)> = old_slots
            .iter()
            .map(|&(_, id)| {
                let job = &daemon.jobs[id];
                let machine = job.machine.ok_or_else(|| {
                    bad(format!("checkpoint running job '{}' has no machine", job.name))
                })?;
                let descs = daemon.catalog.get(&job.class).cloned().ok_or_else(|| {
                    bad(format!("class '{}' left the catalog", job.class))
                })?;
                Ok((job.name.clone(), job.class.clone(), machine, descs))
            })
            .collect::<Result<_, PandiaError>>()?;
        let new_slots = daemon.fleet.restore_jobs(payload)?;
        for (&(_, id), &slot) in old_slots.iter().zip(&new_slots) {
            daemon.jobs[id].slot = Some(slot);
        }

        if degraded {
            daemon.degraded = true;
            daemon.fleet.set_memo_capacity((daemon.config.memo_capacity / 2).max(1));
        }
        daemon.transcript = transcript;
        daemon.last_checkpoint = Some(seq);
        Ok(daemon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::synthetic;

    fn daemon(config: DaemonConfig) -> Daemon {
        let preset = synthetic(2);
        Daemon::new(preset.machines, preset.catalog, config).unwrap()
    }

    #[test]
    fn submit_place_complete_transitions() {
        let mut d = daemon(DaemonConfig::default());
        d.apply(&Event::Submit { job: "a".into(), class: "cpu".into(), priority: 0 }).unwrap();
        assert_eq!(d.running(), 1);
        assert_eq!(d.queued(), 0);
        d.apply(&Event::Complete { job: "a".into(), elapsed: None }).unwrap();
        assert_eq!(d.running(), 0);
        let t = d.transcript();
        assert!(t.contains("submit a class=cpu -> queued"), "{t}");
        assert!(t.contains("place a machine="), "{t}");
        assert!(t.contains("complete a machine=") && t.contains("-> completed"), "{t}");
        assert_eq!(d.audit().completed, 1);
    }

    #[test]
    fn full_fleet_queues_then_dispatches_on_departure() {
        let mut d = daemon(DaemonConfig::default());
        // 2 synthetic machines x 3 slots = capacity 6.
        for i in 0..7 {
            d.apply(&Event::Submit { job: format!("j{i}"), class: "cpu".into(), priority: 0 }).unwrap();
        }
        assert_eq!(d.running(), 6);
        assert_eq!(d.queued(), 1);
        d.apply(&Event::Complete { job: "j0".into(), elapsed: None }).unwrap();
        assert_eq!(d.running(), 6, "queued job should dispatch after capacity frees");
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn unknown_jobs_and_classes_are_errors() {
        let mut d = daemon(DaemonConfig::default());
        assert!(d
            .apply(&Event::Submit { job: "a".into(), class: "no-such".into(), priority: 0 })
            .is_err());
        assert!(d.apply(&Event::Complete { job: "ghost".into(), elapsed: None }).is_err());
        d.apply(&Event::Submit { job: "a".into(), class: "cpu".into(), priority: 0 }).unwrap();
        assert!(
            d.apply(&Event::Submit { job: "a".into(), class: "cpu".into(), priority: 0 }).is_err(),
            "duplicate submit must fail"
        );
    }

    #[test]
    fn external_failures_retry_then_exhaust() {
        let mut d = daemon(DaemonConfig { max_attempts: 2, ..DaemonConfig::default() });
        d.apply(&Event::Submit { job: "a".into(), class: "cpu".into(), priority: 0 }).unwrap();
        d.apply(&Event::Fail { job: "a".into() }).unwrap();
        // attempts=1 < 2, so it re-queues and re-places immediately.
        assert_eq!(d.running(), 1);
        assert_eq!(d.audit().retries, 1);
        d.apply(&Event::Fail { job: "a".into() }).unwrap();
        assert_eq!(d.running(), 0);
        assert_eq!(d.audit().failed, 1);
        assert!(d.transcript().contains("attempts exhausted -> failed"));
    }

    #[test]
    fn drain_completes_running_and_queued_jobs() {
        let mut d = daemon(DaemonConfig::default());
        for i in 0..8 {
            d.apply(&Event::Submit { job: format!("j{i}"), class: "mem".into(), priority: 0 }).unwrap();
        }
        d.drain().unwrap();
        assert_eq!(d.running(), 0);
        assert_eq!(d.queued(), 0);
        assert_eq!(d.audit().completed, 8);
    }

    #[test]
    fn drift_streak_triggers_a_reprofile() {
        let config = DaemonConfig {
            drift: DriftPolicy { enabled: true, tolerance: 0.3, consecutive: 2, max_reprofiles: 1 },
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        for i in 0..4 {
            d.apply(&Event::Submit { job: format!("j{i}"), class: "cpu".into(), priority: 0 }).unwrap();
        }
        // Complete jobs with observed times far from prediction; two
        // consecutive drifted completions on one machine reprofile it.
        let mut reprofiled = false;
        for i in 0..4 {
            d.apply(&Event::Complete { job: format!("j{i}"), elapsed: Some(1.0e9) }).unwrap();
            if d.audit().reprofiles > 0 {
                reprofiled = true;
                break;
            }
        }
        assert!(reprofiled, "drifted completions never triggered a reprofile:\n{}", d.transcript());
        assert!(d.transcript().contains("reprofile machine="));
    }

    fn submit(job: &str, class: &str, priority: u8) -> Event {
        Event::Submit { job: job.into(), class: class.into(), priority }
    }

    #[test]
    fn full_queue_rejects_at_the_door() {
        // 2 synthetic machines x 3 slots = capacity 6; queue bounded at 2.
        let config = DaemonConfig {
            queue: QueuePolicy { max_depth: 2, ..QueuePolicy::default() },
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        for i in 0..9 {
            d.apply(&submit(&format!("j{i}"), "cpu", 0)).unwrap();
        }
        assert_eq!(d.running(), 6);
        assert_eq!(d.queued(), 2);
        assert_eq!(d.audit().rejected, 1);
        assert_eq!(d.job_status("j8"), Some(JobStatus::Rejected));
        assert!(d.transcript().contains("reject j8 class=cpu reason=queue_full depth=2"));
        // A completion and failure aimed at the rejected job are no-ops,
        // not errors.
        d.apply(&Event::Complete { job: "j8".into(), elapsed: None }).unwrap();
        d.apply(&Event::Fail { job: "j8".into() }).unwrap();
        assert_eq!(d.job_status("j8"), Some(JobStatus::Rejected));
        // ...and audit still reconciles: submitted excludes rejections.
        assert_eq!(d.audit().submitted, 8);
    }

    #[test]
    fn overflow_shedding_drops_lowest_priority_queued_jobs_only() {
        let config = DaemonConfig {
            queue: QueuePolicy { high_water: 1, ..QueuePolicy::default() },
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        // Fill all 6 slots, then queue three more at mixed priorities.
        for i in 0..6 {
            d.apply(&submit(&format!("r{i}"), "cpu", 0)).unwrap();
        }
        d.apply(&submit("low", "cpu", 0)).unwrap();
        d.apply(&submit("high", "cpu", 3)).unwrap();
        // queue is now [low, high] = 2 > high_water 1: "low" is shed.
        assert_eq!(d.queued(), 1);
        assert_eq!(d.job_status("low"), Some(JobStatus::Rejected));
        assert_eq!(d.job_status("high"), Some(JobStatus::Queued));
        assert!(d.transcript().contains("shed low reason=overflow priority=0"));
        // No running job was touched.
        assert_eq!(d.running(), 6);
        for i in 0..6 {
            assert_eq!(d.job_status(&format!("r{i}")), Some(JobStatus::Running));
        }
        assert_eq!(d.audit().shed, 1);
    }

    #[test]
    fn deadline_shedding_expires_stale_queued_jobs() {
        let config = DaemonConfig {
            queue: QueuePolicy { deadline: Some(2), ..QueuePolicy::default() },
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        for i in 0..7 {
            d.apply(&submit(&format!("j{i}"), "cpu", 0)).unwrap();
        }
        assert_eq!(d.queued(), 1, "j6 should be waiting");
        // Three queries tick the clock past j6's deadline.
        for _ in 0..3 {
            d.apply(&Event::Query).unwrap();
        }
        assert_eq!(d.queued(), 0);
        assert_eq!(d.job_status("j6"), Some(JobStatus::Rejected));
        assert!(d.transcript().contains("shed j6 reason=deadline waited=3"), "{}", d.transcript());
        assert_eq!(d.audit().shed, 1);
    }

    #[test]
    fn degraded_mode_halves_memo_capacity_with_hysteresis() {
        let config = DaemonConfig {
            queue: QueuePolicy { high_water: 4, ..QueuePolicy::default() },
            memo_capacity: 64,
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        assert_eq!(d.memo_capacity(), 64);
        // 6 running + 5 queued crosses the high-water mark of 4...
        for i in 0..11 {
            d.apply(&submit(&format!("j{i}"), "cpu", 0)).unwrap();
        }
        // ...but shedding trims the queue back to 4, so depth stays at
        // the mark while the daemon is already degraded.
        assert!(d.degraded());
        assert_eq!(d.health(), 1);
        assert_eq!(d.memo_capacity(), 32);
        assert!(d.transcript().contains("degrade queue=5 high_water=4 memo_capacity=32"));
        // Draining below high_water/2 restores the full capacity.
        for i in 0..6 {
            d.apply(&Event::Complete { job: format!("j{i}"), elapsed: None }).unwrap();
        }
        assert!(!d.degraded());
        assert_eq!(d.health(), 0);
        assert_eq!(d.memo_capacity(), 64);
        assert!(d.transcript().contains("memo_capacity=64"), "{}", d.transcript());
    }

    #[test]
    fn faulted_placements_back_off_in_event_time() {
        let config = DaemonConfig {
            // transient_rate 1.0: every placement faults.
            faults: FaultPlan { transient_rate: 1.0, ..FaultPlan::none() },
            max_attempts: 3,
            ..DaemonConfig::default()
        };
        let mut d = daemon(config);
        d.apply(&submit("a", "cpu", 0)).unwrap();
        // Attempt 1 faults; the retry waits out its backoff instead of
        // burning the budget inside the submit event.
        assert_eq!(d.audit().faulted, 1);
        assert_eq!(d.job_status("a"), Some(JobStatus::Queued));
        assert_eq!(d.queued(), 1);
        let transcript_before = d.transcript().to_string();
        assert!(transcript_before.contains("fault a attempt=1"), "{transcript_before}");
        // Tick the clock: each query may dispatch the job once its
        // backoff expires; with delay(1)=1, delay(2)=2 it exhausts after
        // a few ticks.
        for _ in 0..8 {
            d.apply(&Event::Query).unwrap();
        }
        assert_eq!(d.job_status("a"), Some(JobStatus::Failed));
        assert_eq!(d.audit().faulted, 3);
        assert!(d.transcript().contains("after 3 faulted attempts -> failed"));
    }

    #[test]
    fn backoff_delay_schedule_is_capped_exponential() {
        let retry = RetryPolicy { backoff_base: 2, backoff_cap: 16 };
        let delays: Vec<u64> = (1..=7).map(|a| retry.delay(a)).collect();
        assert_eq!(delays, vec![2, 4, 8, 16, 16, 16, 16]);
        // Degenerate base still advances the clock.
        assert_eq!(RetryPolicy { backoff_base: 0, backoff_cap: 4 }.delay(1), 1);
        // Huge attempt numbers must not overflow.
        assert_eq!(RetryPolicy::default().delay(u32::MAX), 8);
    }

    #[test]
    fn checkpoint_restore_round_trips_bit_identically() {
        let preset = synthetic(2);
        let config = DaemonConfig {
            queue: QueuePolicy { high_water: 8, deadline: Some(50), ..QueuePolicy::default() },
            ..DaemonConfig::default()
        };
        let mut d =
            Daemon::new(preset.machines.clone(), preset.catalog.clone(), config.clone()).unwrap();
        for i in 0..9 {
            d.apply(&submit(&format!("j{i}"), if i % 2 == 0 { "cpu" } else { "mem" }, (i % 4) as u8))
                .unwrap();
        }
        d.apply(&Event::Complete { job: "j1".into(), elapsed: Some(100.0) }).unwrap();
        d.apply(&Event::Fail { job: "j2".into() }).unwrap();
        d.apply(&Event::Query).unwrap();

        let text = d.checkpoint();
        assert!(text.starts_with("{\"schema\":\"pandia-checkpoint-v1\",\"seq\":12}"), "{text}");
        let r = Daemon::restore(preset.machines, preset.catalog, config, &text).unwrap();

        assert_eq!(r.clock(), d.clock());
        assert_eq!(r.audit(), d.audit());
        assert_eq!(r.transcript(), d.transcript());
        assert_eq!(r.queued(), d.queued());
        assert_eq!(r.running(), d.running());
        assert_eq!(r.last_checkpoint_seq(), Some(12));
        let (a, b) = (d.schedule().unwrap(), r.schedule().unwrap());
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.placements, b.placements);
        for (x, y) in a.assignments.iter().zip(&b.assignments) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.machine_index, y.machine_index);
            assert_eq!(x.n_threads, y.n_threads);
            assert_eq!(x.predicted_time.to_bits(), y.predicted_time.to_bits());
        }

        // Continuing both daemons produces identical transcripts.
        let mut d2 = d;
        let mut r2 = r;
        let tail =
            vec![submit("k0", "balanced", 1), Event::Query, Event::Complete {
                job: "j3".into(),
                elapsed: None,
            }];
        for e in &tail {
            d2.apply(e).unwrap();
            r2.apply(e).unwrap();
        }
        assert_eq!(d2.transcript(), r2.transcript());
        assert_eq!(d2.audit(), r2.audit());
    }

    #[test]
    fn restore_rejects_corrupt_checkpoints() {
        let preset = synthetic(2);
        let mk = || (preset.machines.clone(), preset.catalog.clone(), DaemonConfig::default());
        let (m, c, cfg) = mk();
        assert!(Daemon::restore(m, c, cfg, "").is_err());
        let (m, c, cfg) = mk();
        assert!(Daemon::restore(m, c, cfg, "{\"schema\":\"pandia-eventlog-v1\"}\n").is_err());
        // Valid header but a seq/clock mismatch.
        let (m, c, cfg) = mk();
        let bad = "{\"schema\":\"pandia-checkpoint-v1\",\"seq\":5}\n\
                   {\"clock\":4,\"events\":0,\"submitted\":0,\"placed\":0,\"completed\":0,\
                    \"failed\":0,\"retries\":0,\"faulted\":0,\"reprofiles\":0,\"rejected\":0,\
                    \"shed\":0,\"reprofiles_done\":0,\"degraded\":false,\
                    \"drift_streak\":[0,0],\"queue\":[]}\n\
                   {\"transcript\":\"\"}\n";
        assert!(Daemon::restore(m, c, cfg, bad).is_err());

        // A real checkpoint of seven jobs on six slots: j0–j5 run, j6
        // (job id 6) waits in the queue.
        let (m, c, cfg) = mk();
        let mut d = Daemon::new(m, c, cfg).unwrap();
        for i in 0..7 {
            d.apply(&submit(&format!("j{i}"), "cpu", 1)).unwrap();
        }
        let good = d.checkpoint();
        assert!(good.contains("\"queue\":[6]"), "{good}");
        let (m, c, cfg) = mk();
        assert!(Daemon::restore(m, c, cfg, &good).is_ok());
        let corrupt = [
            // Integers that do not fit their fields, instead of truncating.
            (good.replacen("\"priority\":1", "\"priority\":300", 1), "out of range"),
            (good.replacen("\"attempts\":1", "\"attempts\":4294967297", 1), "out of range"),
            // A queued job listed twice would be placed twice.
            (good.replace("\"queue\":[6]", "\"queue\":[6,6]"), "twice"),
            // A queued job missing from the queue would never dispatch.
            (good.replace("\"queue\":[6]", "\"queue\":[]"), "omits queued job 'j6'"),
            // Two records under one name.
            (good.replace("{\"job\":\"j6\"", "{\"job\":\"j5\""), "duplicate job 'j5'"),
        ];
        for (text, why) in &corrupt {
            assert_ne!(*text, good, "{why}: the case must corrupt the document");
            let (m, c, cfg) = mk();
            match Daemon::restore(m, c, cfg, text) {
                Err(PandiaError::Serde { message }) => assert!(message.contains(why), "{message}"),
                other => panic!("{why}: expected a serde error, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn query_snapshots_the_schedule_into_the_transcript() {
        let mut d = daemon(DaemonConfig::default());
        d.apply(&Event::Submit { job: "a".into(), class: "mem".into(), priority: 0 }).unwrap();
        d.apply(&Event::Query).unwrap();
        let t = d.transcript();
        assert!(t.contains("query makespan="), "{t}");
        assert!(t.contains("  a machine="), "{t}");
    }
}
