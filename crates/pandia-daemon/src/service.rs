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
    /// Queued jobs at which submissions are rejected at the door. A retry
    /// re-enters the queue without admission, so it may exceed this.
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

/// Placement attempts per job, faulted and externally failed ones
/// alike, before the job is marked failed.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Backoff before a faulted placement's first retry, in events.
pub(crate) const BACKOFF_BASE: u64 = 1;

/// Upper bound on any single backoff, in events.
pub(crate) const BACKOFF_CAP: u64 = 8;

/// Capped exponential backoff in logical event time: faulted attempt
/// `k` (1-based) waits `min(BACKOFF_CAP, BACKOFF_BASE << (k-1))` events
/// before redispatch, so one fault burst cannot burn a job's whole
/// attempt budget inside a single event. A pure function of the attempt
/// number, so journal replay reproduces it.
pub(crate) fn backoff(attempt: u32) -> u64 {
    let doubling = 1u64 << attempt.saturating_sub(1).min(63);
    BACKOFF_BASE.saturating_mul(doubling).min(BACKOFF_CAP)
}

/// Tunables for a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Seed for fault draws (and anything else the daemon randomizes).
    pub seed: u64,
    /// Fault plan: `transient_rate` is the per-placement probability that
    /// a job's startup faults and must be retried.
    pub faults: FaultPlan,
    /// Drift handling for observed-vs-predicted completion times.
    pub drift: DriftPolicy,
    /// Incremental delta path (default) vs from-scratch batch oracle.
    pub incremental: bool,
    /// Execution context for co-schedule searches.
    pub exec: ExecContext,
    /// Admission control and load shedding.
    pub queue: QueuePolicy,
    /// Fleet solve-memo capacity (halved while degraded).
    pub memo_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            faults: FaultPlan::none(),
            drift: DriftPolicy::default(),
            incremental: true,
            exec: ExecContext::serial(),
            queue: QueuePolicy::default(),
            memo_capacity: pandia_core::DEFAULT_MEMO_CAPACITY,
        }
    }
}

/// Declares the audit ledger from one list of fields: the
/// [`DaemonAudit`] struct, its `(name, value)` table, and the [`Ledger`]
/// keys that move a field and its `daemon.<field>` counter together.
macro_rules! ledger {
    ($($(#[doc = $doc:literal])* $field:ident: $key:ident,)*) => {
        /// The audit ledger: every consequential transition the daemon
        /// made, counted. Telemetry counters must reconcile against this
        /// exactly.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DaemonAudit {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        /// Names one [`DaemonAudit`] field.
        enum Ledger {
            $($key,)*
        }

        const LEDGER_FIELDS: usize = [$(stringify!($field)),*].len();

        impl DaemonAudit {
            /// Every field as `(name, value)`, in declaration order: the
            /// order of a checkpoint's meta counts and of `pandiad`'s
            /// `audit:` line. Field `x` is mirrored by counter `daemon.x`.
            pub fn fields(&self) -> [(&'static str, u64); LEDGER_FIELDS] {
                [$((stringify!($field), self.$field)),*]
            }

            fn fields_mut(&mut self) -> [(&'static str, &mut u64); LEDGER_FIELDS] {
                [$((stringify!($field), &mut self.$field)),*]
            }

            /// Adds one to the field `key` names; returns its counter.
            fn bump(&mut self, key: Ledger) -> &'static str {
                match key {
                    $(Ledger::$key => {
                        self.$field += 1;
                        concat!("daemon.", stringify!($field))
                    })*
                }
            }
        }
    };
}

ledger! {
    /// Events applied.
    events: Events,
    /// Jobs submitted.
    submitted: Submitted,
    /// Successful placements (a retried job counts once per success).
    placed: Placed,
    /// Jobs completed.
    completed: Completed,
    /// Jobs that exhausted their attempt budget (or were canceled).
    failed: Failed,
    /// Re-queues after a fault or external failure.
    retries: Retries,
    /// Faulted placements drawn from the fault plan.
    faulted: Faulted,
    /// Machine reprofiles triggered by drift detection.
    reprofiles: Reprofiles,
    /// Submissions refused at the door (queue at `max_depth`).
    rejected: Rejected,
    /// Queued jobs dropped by deadline or overflow shedding.
    shed: Shed,
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

    /// Counts one transition in the ledger and in its telemetry counter.
    fn tally(&mut self, key: Ledger) {
        pandia_obs::count(self.audit.bump(key), 1);
    }

    /// Applies one event. Each application is wrapped in a `daemon` span
    /// whose duration feeds the `daemon.event_latency_us` histogram.
    pub fn apply(&mut self, event: &Event) -> Result<(), PandiaError> {
        let _span = pandia_obs::span("daemon", event.kind())
            .arg("clock", self.clock)
            .observe_as("daemon.event_latency_us");
        self.tally(Ledger::Events);
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
        self.shed();
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
        let depth = self.queue.len();
        let admitted = depth < self.config.queue.max_depth;
        if !admitted {
            record.status = JobStatus::Rejected;
        }
        self.jobs.push(record);
        self.index.insert(job.to_string(), id);
        if admitted {
            self.queue.push_back(id);
            self.tally(Ledger::Submitted);
            self.say(&format!("submit {job} class={class} -> queued"));
        } else {
            self.tally(Ledger::Rejected);
            self.say(&format!(
                "reject {job} class={class} reason=queue_full depth={depth} -> rejected"
            ));
        }
        Ok(())
    }

    fn on_complete(&mut self, job: &str, elapsed: Option<f64>) -> Result<(), PandiaError> {
        let id = self.lookup(job)?;
        let machine = match self.jobs[id].status {
            JobStatus::Running => {
                let machine = self.depart(id)?;
                self.say(&format!("complete {job} machine={machine} -> completed"));
                Some(machine)
            }
            JobStatus::Queued => {
                self.dequeue(id);
                self.say(&format!("complete {job} (was queued) -> completed"));
                None
            }
            status => {
                self.say(&format!("complete {job} ignored (already {})", status.tag()));
                return Ok(());
            }
        };
        self.jobs[id].status = JobStatus::Completed;
        self.tally(Ledger::Completed);
        if let Some(machine) = machine {
            self.check_drift(machine, self.jobs[id].predicted_time, elapsed);
        }
        Ok(())
    }

    fn on_fail(&mut self, job: &str) -> Result<(), PandiaError> {
        let id = self.lookup(job)?;
        match self.jobs[id].status {
            JobStatus::Running => {
                let machine = self.depart(id)?;
                if self.retry_or_fail(id, None) {
                    self.say(&format!("fail {job} machine={machine} -> queued (retry)"));
                } else {
                    self.say(&format!(
                        "fail {job} machine={machine} attempts exhausted -> failed"
                    ));
                }
            }
            JobStatus::Queued => {
                self.dequeue(id);
                self.jobs[id].status = JobStatus::Failed;
                self.tally(Ledger::Failed);
                self.say(&format!("fail {job} (was queued) -> failed"));
            }
            status => self.say(&format!("fail {job} ignored (already {})", status.tag())),
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

    /// Takes a job out of the queue.
    fn dequeue(&mut self, id: usize) {
        if let Some(at) = self.queue.iter().position(|&q| q == id) {
            self.queue.remove(at);
        }
    }

    /// Takes a placed job out of the fleet; returns the machine it left.
    fn depart(&mut self, id: usize) -> Result<usize, PandiaError> {
        let slot = self.jobs[id].slot.take().ok_or_else(|| PandiaError::Mismatch {
            reason: format!("running job '{}' has no fleet slot", self.jobs[id].name),
        })?;
        self.fleet.depart(slot)
    }

    /// The retry rule, for external failures and faulted placements
    /// alike: a job that has used its [`MAX_ATTEMPTS`] fails; any other
    /// goes back to the end of the queue as a retry, held back `backoff`
    /// events when that is given (faults only). Returns whether the job
    /// was re-queued.
    fn retry_or_fail(&mut self, id: usize, backoff: Option<u64>) -> bool {
        let job = &mut self.jobs[id];
        if job.attempts >= MAX_ATTEMPTS {
            job.status = JobStatus::Failed;
            self.tally(Ledger::Failed);
            return false;
        }
        job.status = JobStatus::Queued;
        job.enqueued_at = self.clock;
        if let Some(delay) = backoff {
            job.not_before = self.clock + delay;
        }
        self.queue.push_back(id);
        self.tally(Ledger::Retries);
        true
    }

    /// Places queued jobs (FIFO among the eligible) while the fleet has
    /// capacity, drawing a fault per placement attempt. A faulted
    /// placement departs immediately and falls to the retry rule, which
    /// re-queues it at the back under the capped exponential
    /// [`backoff`] — the job becomes eligible again only once the
    /// logical clock reaches its `not_before`. Jobs still inside their
    /// backoff window are scanned past, not reordered.
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
            self.dequeue(id);
            let job = &mut self.jobs[id];
            job.slot = Some(admission.slot);
            job.attempts += 1;
            let attempts = job.attempts;
            if fault_roll(self.config.seed, &name, attempts) < self.config.faults.transient_rate {
                self.depart(id)?;
                self.tally(Ledger::Faulted);
                let delay = backoff(attempts);
                if self.retry_or_fail(id, Some(delay)) {
                    self.say(&format!(
                        "fault {name} attempt={attempts} machine={} backoff={delay} -> queued",
                        admission.machine
                    ));
                } else {
                    self.say(&format!("fail {name} after {attempts} faulted attempts -> failed"));
                }
                continue;
            }
            job.status = JobStatus::Running;
            job.predicted_time = Some(admission.predicted_time);
            self.tally(Ledger::Placed);
            self.say(&format!(
                "place {name} machine={} threads={} predicted={:.6} -> running",
                admission.machine, admission.n_threads, admission.predicted_time
            ));
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
    /// Only queue members are candidates, and those hold no fleet slot.
    /// A retry is a queue member: a running job that fails in this event
    /// and is re-queued can be shed by it, after its `fail` line.
    fn shed(&mut self) {
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
    }

    /// Removes one queued job and marks it rejected (shed).
    fn shed_job(&mut self, id: usize, detail: &str) {
        self.dequeue(id);
        self.jobs[id].status = JobStatus::Rejected;
        self.tally(Ledger::Shed);
        let name = self.jobs[id].name.clone();
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
            self.tally(Ledger::Reprofiles);
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
                let place = match job.slot.and_then(|slot| self.fleet.job_machine(slot)) {
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

    /// Drains the daemon: cancels every queued job with a `fail`, head of
    /// the queue first, then completes every running job in submission
    /// order. Each event retires one live job, so the drain ends.
    ///
    /// The drain's events are ordinary events, so each one dispatches.
    /// Without faults a queued job means a full fleet, and a cancelled
    /// job frees no room, so no queued job runs. With faults, a queued
    /// job in backoff whose window opens while the queue is being
    /// cancelled is placed if the fleet has room (faulted placements
    /// leave room), and is then completed with the running jobs.
    ///
    /// Returns the events applied, so a caller that keeps an event log
    /// can append exactly them: replayed over the same fleet, that log
    /// ends drained with the same ledger. Over a larger fleet a job
    /// cancelled here may be running when its `fail` replays, and then
    /// it re-queues as a retry. Used by `pandiactl drain`.
    pub fn drain(&mut self) -> Result<Vec<Event>, PandiaError> {
        let mut applied = Vec::new();
        while let Some(&id) = self.queue.front() {
            let event = Event::Fail { job: self.jobs[id].name.clone() };
            self.apply(&event)?;
            applied.push(event);
        }
        let running: Vec<String> = self
            .jobs
            .iter()
            .filter(|j| j.status == JobStatus::Running)
            .map(|j| j.name.clone())
            .collect();
        for job in running {
            let event = Event::Complete { job, elapsed: None };
            self.apply(&event)?;
            applied.push(event);
        }
        Ok(applied)
    }

    /// Health for the `pandiactl status` exit-code contract: 0 healthy,
    /// 1 degraded (overload mode active).
    pub fn health(&self) -> u8 {
        u8::from(self.degraded)
    }

    /// Serializes the daemon's full logical state as a
    /// `pandia-checkpoint-v2` document: a schema+seq line, a meta line,
    /// one line per job record, a `{"transcript_bytes":N}` line, and
    /// then exactly N raw transcript bytes, which end the document.
    ///
    /// A queued or running job's line carries its whole record, and a
    /// running job's line also its fleet slot and machine. A retired
    /// (completed, failed or rejected) job's line carries only its name
    /// and status: once a job is terminal, nothing reads its record but
    /// its status (`job_status`, the `ignored (already …)` transcript
    /// lines, the status report's counts).
    ///
    /// The fleet's schedules are deliberately *not* serialized: the
    /// co-scheduler is a pure function of the resident descriptions, so
    /// [`restore`](Self::restore) re-derives bit-identical schedules by
    /// re-solving each occupied machine. Fleet solve *counters* restart
    /// from zero after a restore — the audit ledger, transcript, and
    /// schedule bits are the recovery contract, not profiling stats.
    pub fn checkpoint(&self) -> String {
        use crate::event::json_string;
        let mut out = String::with_capacity(self.transcript.len() + 64 * self.jobs.len() + 256);
        let _ = writeln!(
            out,
            "{{\"schema\":\"{}\",\"seq\":{}}}",
            pandia_obs::schema::CHECKPOINT_SCHEMA,
            self.clock
        );
        let _ = write!(out, "{{\"clock\":{}", self.clock);
        for (name, value) in self.audit.fields() {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        let queue: Vec<String> = self.queue.iter().map(|id| id.to_string()).collect();
        let streaks: Vec<String> =
            self.drift_streak.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(
            out,
            ",\"reprofiles_done\":{},\"degraded\":{},\"drift_streak\":[{}],\"queue\":[{}]}}",
            self.reprofiles_done,
            self.degraded,
            streaks.join(","),
            queue.join(",")
        );
        for job in &self.jobs {
            out.push_str("{\"job\":");
            json_string(&mut out, &job.name);
            if !job.is_live() {
                out.push_str(",\"status\":\"");
                out.push_str(job.status.tag());
                out.push_str("\"}\n");
                continue;
            }
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
                if let Some(machine) = self.fleet.job_machine(slot) {
                    let _ = write!(out, ",\"machine\":{machine}");
                }
            }
            if let Some(t) = job.predicted_time {
                // Bit pattern, not decimal: predictions must survive the
                // round trip exactly or post-recovery drift checks skew.
                let _ = write!(out, ",\"predicted_bits\":{}", t.to_bits());
            }
            out.push_str("}\n");
        }
        // The transcript goes in raw, after its length: it is most of a
        // checkpoint's bytes, and escaping it into a JSON string would
        // cost a pass over all of them on every checkpoint.
        let _ = writeln!(out, "{{\"transcript_bytes\":{}}}", self.transcript.len());
        out.push_str(&self.transcript);
        out
    }

    /// Reconstructs a daemon from a checkpoint document plus the same
    /// machines/catalog/config it was created with. Running jobs are
    /// re-seated in slot order (slots compact to `0..k`, preserving the
    /// schedule-relative order that transcripts depend on) and every
    /// occupied machine is re-solved, yielding schedules bit-identical
    /// to the checkpointed daemon's. A retired job comes back with its
    /// name and status only, the part of its record anything reads.
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
            let bad = |message: String| PandiaError::Serde { message };
            let v = field(value, key).ok_or_else(|| {
                bad(format!("checkpoint line {line}: missing integer field '{key}'"))
            })?;
            let n = v.as_u64().ok_or_else(|| {
                bad(format!("checkpoint line {line}: field '{key}' is not an unsigned integer"))
            })?;
            T::try_from(n)
                .map_err(|_| bad(format!("checkpoint line {line}: field '{key}' out of range: {n}")))
        }

        let mut daemon = Daemon::new(machines, catalog, config)?;
        // JSON lines run up to the `transcript_bytes` line; the raw
        // transcript is everything after it.
        let mut rest = text;
        let mut lines_read = 0;
        let mut next = |what: &str| -> Result<(usize, serde_json::Value), PandiaError> {
            let (raw, tail) = rest
                .split_once('\n')
                .ok_or_else(|| bad(format!("checkpoint has no {what} line")))?;
            rest = tail;
            lines_read += 1;
            let line = lines_read;
            serde_json::from_str(raw)
                .map(|v| (line, v))
                .map_err(|e| bad(format!("checkpoint line {line}: {e}")))
        };

        let (line, header) = next("schema")?;
        let schema = str_field(&header, "schema", line)?;
        if schema != pandia_obs::schema::CHECKPOINT_SCHEMA {
            return Err(bad(format!(
                "checkpoint schema mismatch: expected '{}', got '{schema}'",
                pandia_obs::schema::CHECKPOINT_SCHEMA
            )));
        }
        let seq = uint(&header, "seq", line)?;

        let (line, meta) = next("meta")?;
        let clock = uint(&meta, "clock", line)?;
        if clock != seq {
            return Err(bad(format!(
                "checkpoint seq {seq} disagrees with clock {clock}"
            )));
        }
        daemon.clock = clock;
        for (name, value) in daemon.audit.fields_mut() {
            *value = uint(&meta, name, line)?;
        }
        daemon.reprofiles_done = uint(&meta, "reprofiles_done", line)?;
        let degraded = field(&meta, "degraded")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| bad(format!("checkpoint line {line}: missing 'degraded'")))?;
        // The drift streaks and the queue: arrays of indices.
        let indices = |key: &str| {
            field(&meta, key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| bad(format!("checkpoint line {line}: missing '{key}'")))?
                .iter()
                .map(|v| v.as_u64().and_then(|n| usize::try_from(n).ok()))
                .collect::<Option<Vec<usize>>>()
                .ok_or_else(|| bad(format!("checkpoint line {line}: bad entry in '{key}'")))
        };
        let streaks = indices("drift_streak")?;
        if streaks.len() != daemon.drift_streak.len() {
            return Err(bad(format!(
                "checkpoint carries {} drift streaks for {} machines",
                streaks.len(),
                daemon.drift_streak.len()
            )));
        }
        daemon.drift_streak = streaks;
        let queue_ids = indices("queue")?;

        // Job lines until the `transcript_bytes` line.
        let mut placed: Vec<(usize, usize, usize)> = Vec::new(); // (old slot, job id, machine)
        let transcript_bytes: usize = loop {
            let (line, value) = next("transcript_bytes")?;
            if field(&value, "transcript_bytes").is_some() {
                break uint(&value, "transcript_bytes", line)?;
            }
            let name = str_field(&value, "job", line)?;
            let status = str_field(&value, "status", line)?;
            let status = JobStatus::from_tag(&status)
                .ok_or_else(|| bad(format!("checkpoint line {line}: bad status '{status}'")))?;
            let id = daemon.jobs.len();
            let mut record = JobRecord::new(&name, "");
            record.status = status;
            if record.is_live() {
                let class = str_field(&value, "class", line)?;
                if !daemon.catalog.contains_key(&class) {
                    return Err(bad(format!(
                        "checkpoint job '{name}' names unknown class '{class}'"
                    )));
                }
                record.class = class;
                record.attempts = uint(&value, "attempts", line)?;
                record.priority = uint(&value, "priority", line)?;
                record.enqueued_at = uint(&value, "enqueued_at", line)?;
                record.not_before = uint(&value, "not_before", line)?;
                if field(&value, "predicted_bits").is_some() {
                    record.predicted_time =
                        Some(f64::from_bits(uint(&value, "predicted_bits", line)?));
                }
                if status == JobStatus::Running {
                    let slot = uint(&value, "slot", line)?;
                    placed.push((slot, id, uint(&value, "machine", line)?));
                }
            }
            if daemon.index.insert(name, id).is_some() {
                return Err(bad(format!(
                    "checkpoint line {line}: duplicate job '{}'",
                    record.name
                )));
            }
            daemon.jobs.push(record);
        };
        // The trailer is the whole rest of the document. Comparing lengths
        // instead of slicing by the count makes a count past the end or
        // inside a character an error, not a panic.
        if rest.len() != transcript_bytes {
            return Err(bad(format!(
                "checkpoint transcript trailer holds {} bytes but transcript_bytes is \
                 {transcript_bytes}",
                rest.len()
            )));
        }
        daemon.transcript = rest.to_string();

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
        placed.sort_unstable();
        let payload: Vec<(String, String, usize, Vec<WorkloadDescription>)> = placed
            .iter()
            .map(|&(_, id, machine)| {
                let job = &daemon.jobs[id];
                let descs = daemon.catalog.get(&job.class).cloned().ok_or_else(|| {
                    bad(format!("class '{}' left the catalog", job.class))
                })?;
                Ok((job.name.clone(), job.class.clone(), machine, descs))
            })
            .collect::<Result<_, PandiaError>>()?;
        let new_slots = daemon.fleet.restore_jobs(payload)?;
        for (&(_, id, _), &slot) in placed.iter().zip(&new_slots) {
            daemon.jobs[id].slot = Some(slot);
        }

        if degraded {
            daemon.degraded = true;
            daemon.fleet.set_memo_capacity((daemon.config.memo_capacity / 2).max(1));
        }
        daemon.last_checkpoint = Some(seq);
        Ok(daemon)
    }

    /// The recovery fold, over the texts of the newest checkpoint and of
    /// the write-ahead journal (either may be absent): restores the
    /// checkpoint (or starts fresh), skips the journal records it covers
    /// and applies the rest. A tail that starts past the restored clock
    /// lost events: a `PandiaError::Mismatch`. The caller continues its
    /// event stream from [`clock`](Self::clock).
    pub fn recover(
        machines: Vec<MachineDescription>,
        catalog: ClassCatalog,
        config: DaemonConfig,
        checkpoint: Option<&str>,
        journal: Option<&str>,
    ) -> Result<Self, PandiaError> {
        let mut daemon = match checkpoint {
            Some(text) => Self::restore(machines, catalog, config, text)?,
            None => Self::new(machines, catalog, config)?,
        };
        let records = journal.map(crate::journal::parse_journal).transpose()?;
        let covered = daemon.clock;
        for (seq, event) in records.into_iter().flatten().skip_while(|&(seq, _)| seq < covered) {
            if seq != daemon.clock {
                return Err(PandiaError::Mismatch {
                    reason: format!(
                        "journal tail starts at seq {seq}, daemon clock is {}",
                        daemon.clock
                    ),
                });
            }
            daemon.apply(&event)?;
        }
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
        let mut d = daemon(DaemonConfig::default());
        d.apply(&Event::Submit { job: "a".into(), class: "cpu".into(), priority: 0 }).unwrap();
        for attempt in 1..MAX_ATTEMPTS {
            d.apply(&Event::Fail { job: "a".into() }).unwrap();
            // attempts < MAX_ATTEMPTS, so it re-queues and re-places
            // immediately: external failures get no backoff.
            assert_eq!(d.running(), 1);
            assert_eq!(d.audit().retries, u64::from(attempt));
        }
        d.apply(&Event::Fail { job: "a".into() }).unwrap();
        assert_eq!(d.running(), 0);
        assert_eq!(d.audit().failed, 1);
        assert!(d.transcript().contains("attempts exhausted -> failed"));
    }

    #[test]
    fn drain_cancels_queued_jobs_and_completes_running_ones() {
        let mut d = daemon(DaemonConfig::default());
        for i in 0..8 {
            d.apply(&Event::Submit { job: format!("j{i}"), class: "mem".into(), priority: 0 }).unwrap();
        }
        let applied = d.drain().unwrap();
        assert_eq!(d.running(), 0);
        assert_eq!(d.queued(), 0);
        let audit = d.audit();
        assert_eq!((audit.placed, audit.completed, audit.failed), (6, 6, 2));
        let failed: Vec<&Event> = applied.iter().filter(|e| matches!(e, Event::Fail { .. })).collect();
        assert_eq!((applied.len(), failed.len()), (8, 2));
        assert!(applied[..2].iter().all(|e| matches!(e, Event::Fail { .. })), "{applied:?}");
    }

    #[test]
    fn drain_places_a_backoff_job_whose_window_opens_mid_drain() {
        let rate = 0.5;
        let config = DaemonConfig {
            faults: FaultPlan { transient_rate: rate, ..FaultPlan::none() },
            ..DaemonConfig::default()
        };
        let faults = |name: &str, attempt| fault_roll(config.seed, name, attempt) < rate;
        let names = || (0..).map(|i| format!("j{i}"));
        // Six jobs that place at once fill the fleet; `a` faults at its
        // first attempt, and `b` at its first but not its second.
        let fillers: Vec<String> = names().filter(|n| !faults(n, 1)).take(6).collect();
        let a = names().find(|n| faults(n, 1)).unwrap();
        let b = names().find(|n| *n != a && faults(n, 1) && !faults(n, 2)).unwrap();
        let mut events: Vec<Event> = fillers.iter().map(|n| submit(n, "cpu", 0)).collect();
        events.extend([submit(&a, "cpu", 0), submit(&b, "cpu", 0)]);
        // The departure lets `a` and `b` try a placement in one event:
        // both fault, and both wait out a backoff window that opens at
        // the next event, the drain's first.
        events.push(Event::Complete { job: fillers[0].clone(), elapsed: None });
        let mut d = daemon(config.clone());
        d.run(&events).unwrap();
        assert_eq!((d.running(), d.queued(), d.audit().faulted), (5, 2, 2));

        let applied = d.drain().unwrap();
        assert_eq!((d.running(), d.queued()), (0, 0));
        assert_eq!(applied[0], Event::Fail { job: a.clone() });
        assert_eq!(applied.len(), 7, "{applied:?}");
        assert!(applied[1..].iter().all(|e| matches!(e, Event::Complete { .. })), "{applied:?}");
        // Cancelling `a` opened `b`'s window with room left by the
        // faults, so `b` ran and then completed.
        assert_eq!(d.job_status(&a), Some(JobStatus::Failed));
        assert_eq!(d.job_status(&b), Some(JobStatus::Completed));
        let drain_clock = events.len();
        assert!(d.transcript().contains(&format!("[{drain_clock:04}] place {b} ")), "{}", d.transcript());
        let audit = d.audit();
        assert_eq!((audit.placed, audit.completed, audit.failed), (7, 7, 1));

        // The log with the drain's events appended replays to the same
        // state over the same fleet.
        events.extend(applied);
        let mut replayed = daemon(config);
        replayed.run(&events).unwrap();
        assert_eq!(replayed.audit(), audit);
        assert_eq!(replayed.transcript(), d.transcript());
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
        assert_eq!(d.audit().faulted, u64::from(MAX_ATTEMPTS));
        assert!(d.transcript().contains("after 3 faulted attempts -> failed"));
    }

    #[test]
    fn backoff_delay_schedule_is_capped_exponential() {
        let delays: Vec<u64> = (1..=6).map(backoff).collect();
        assert_eq!(delays, vec![1, 2, 4, 8, 8, 8]);
        assert_eq!((delays[0], delays[5]), (BACKOFF_BASE, BACKOFF_CAP));
        // Huge attempt numbers must not overflow.
        assert_eq!(backoff(u32::MAX), BACKOFF_CAP);
    }

    #[test]
    fn recover_folds_the_journal_tail_past_the_checkpoint() {
        let preset = synthetic(2);
        let mk = || (preset.machines.clone(), preset.catalog.clone(), DaemonConfig::default());
        let events: Vec<Event> = (0..5).map(|i| submit(&format!("j{i}"), "cpu", 0)).collect();
        let journal = |from: usize| {
            let mut text = format!("{{\"schema\":\"{}\"}}\n", crate::JOURNAL_SCHEMA);
            for (seq, event) in events.iter().enumerate().skip(from) {
                text.push_str(&format!("{{\"seq\":{seq},\"entry\":"));
                event.render(&mut text);
                text.push_str("}\n");
            }
            text
        };
        let (m, c, cfg) = mk();
        let mut oracle = Daemon::new(m, c, cfg).unwrap();
        oracle.run(&events[..2]).unwrap();
        let checkpoint = oracle.checkpoint();
        oracle.run(&events[2..]).unwrap();

        // Records the checkpoint covers are skipped; without a checkpoint
        // the whole journal is applied.
        let doc = Some(checkpoint.as_str());
        for (doc, from) in [(doc, 0), (doc, 2), (None, 0)] {
            let (m, c, cfg) = mk();
            let r = Daemon::recover(m, c, cfg, doc, Some(&journal(from))).unwrap();
            assert_eq!((r.clock(), r.transcript()), (oracle.clock(), oracle.transcript()));
            assert_eq!(r.audit(), oracle.audit());
        }
        // Neither text: a fresh daemon.
        let (m, c, cfg) = mk();
        assert_eq!(Daemon::recover(m, c, cfg, None, None).unwrap().clock(), 0);
        // A tail that starts past the restored clock lost events.
        for (doc, from, why) in [
            (doc, 3, "journal tail starts at seq 3, daemon clock is 2"),
            (None, 1, "journal tail starts at seq 1, daemon clock is 0"),
        ] {
            let (m, c, cfg) = mk();
            match Daemon::recover(m, c, cfg, doc, Some(&journal(from))) {
                Err(PandiaError::Mismatch { reason }) => assert_eq!(reason, why),
                other => panic!("{why}: expected a mismatch, got {:?}", other.map(|_| ())),
            }
        }
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
        assert!(text.starts_with("{\"schema\":\"pandia-checkpoint-v2\",\"seq\":12}\n"), "{text}");
        // A retired job is its name and status; the transcript is the
        // raw trailer after its byte count.
        assert!(text.contains("\n{\"job\":\"j1\",\"status\":\"completed\"}\n"), "{text}");
        let trailer = format!("\n{{\"transcript_bytes\":{}}}\n", d.transcript().len());
        assert!(text.ends_with(&format!("{trailer}{}", d.transcript())), "{text}");
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
        let expect_serde = |text: &str, why: &str| {
            let (m, c, cfg) = mk();
            match Daemon::restore(m, c, cfg, text) {
                Err(PandiaError::Serde { message }) => assert!(message.contains(why), "{message}"),
                other => panic!("{why}: expected a serde error, got {:?}", other.map(|_| ())),
            }
        };
        expect_serde("", "no schema line");
        expect_serde("{\"schema\":\"pandia-eventlog-v1\"}\n", "schema mismatch");
        // Valid header but a seq/clock mismatch.
        let meta = "{\"clock\":4,\"events\":0,\"submitted\":0,\"placed\":0,\"completed\":0,\
                    \"failed\":0,\"retries\":0,\"faulted\":0,\"reprofiles\":0,\"rejected\":0,\
                    \"shed\":0,\"reprofiles_done\":0,\"degraded\":false,\
                    \"drift_streak\":[0,0],\"queue\":[]}\n";
        let bad = format!(
            "{{\"schema\":\"pandia-checkpoint-v2\",\"seq\":5}}\n{meta}{{\"transcript_bytes\":0}}\n"
        );
        expect_serde(&bad, "seq 5 disagrees with clock 4");
        // The same document at seq 4 restores: only the mismatch failed.
        let (m, c, cfg) = mk();
        assert!(Daemon::restore(m, c, cfg, &bad.replace("\"seq\":5", "\"seq\":4")).is_ok());

        // A real checkpoint of eight jobs on six slots: j0–j5 run, j6
        // (job id 6) waits in the queue, and `jé` (job id 7) completed
        // while queued, so the transcript holds a two-byte character.
        let (m, c, cfg) = mk();
        let mut d = Daemon::new(m, c, cfg).unwrap();
        for i in 0..7 {
            d.apply(&submit(&format!("j{i}"), "cpu", 1)).unwrap();
        }
        d.apply(&submit("jé", "cpu", 1)).unwrap();
        d.apply(&Event::Complete { job: "jé".into(), elapsed: None }).unwrap();
        let good = d.checkpoint();
        assert!(good.contains("\"queue\":[6]"), "{good}");
        let (m, c, cfg) = mk();
        assert!(Daemon::restore(m, c, cfg, &good).is_ok());
        // The document split around its `transcript_bytes` line.
        let (head, tail) = good.split_once("{\"transcript_bytes\":").unwrap();
        let transcript = tail.split_once('\n').unwrap().1;
        assert_eq!(transcript, d.transcript());
        let with_line = |line: &str| format!("{head}{line}\n{transcript}");
        let with_count = |n: usize| with_line(&format!("{{\"transcript_bytes\":{n}}}"));
        assert_eq!(with_count(transcript.len()), good);
        // A byte count that ends inside `é`: slicing the trailer by it
        // would panic.
        let inside = transcript.find('é').unwrap() + 1;
        assert!(!transcript.is_char_boundary(inside));
        let v1 = "{\"schema\":\"pandia-checkpoint-v1\",\"seq\":0}\n\
                  {\"clock\":0,\"events\":0,\"submitted\":0,\"placed\":0,\"completed\":0,\
                   \"failed\":0,\"retries\":0,\"faulted\":0,\"reprofiles\":0,\"rejected\":0,\
                   \"shed\":0,\"reprofiles_done\":0,\"degraded\":false,\
                   \"drift_streak\":[0,0],\"queue\":[]}\n\
                  {\"transcript\":\"\"}\n";
        let running_bits = good
            .split("\"predicted_bits\":")
            .nth(1)
            .and_then(|t| t.split('}').next())
            .unwrap()
            .to_string();
        let with_bits = |bits: &str| {
            good.replacen(
                &format!("\"predicted_bits\":{running_bits}}}"),
                &format!("\"predicted_bits\":{bits}}}"),
                1,
            )
        };
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
            // The trailer one byte short, and one byte long.
            (good[..good.len() - 1].to_string(), "trailer holds"),
            (format!("{good}\n"), "trailer holds"),
            // A count inside a character, past the end, or not a number.
            (with_count(inside), "trailer holds"),
            (with_count(transcript.len() + 1), "trailer holds"),
            (with_count(usize::MAX), "trailer holds"),
            (with_line("{\"transcript_bytes\":\"x\"}"), "'transcript_bytes' is not an unsigned"),
            (with_line("{\"transcript_bytes\":-1}"), "'transcript_bytes' is not an unsigned"),
            // No `transcript_bytes` line: the raw transcript is read as a
            // job line, or the document ends first.
            (format!("{head}{transcript}"), "checkpoint line"),
            (head.to_string(), "no transcript_bytes line"),
            // A whole v1 document.
            (v1.to_string(), "expected 'pandia-checkpoint-v2', got 'pandia-checkpoint-v1'"),
            // A present `predicted_bits` that is not a u64.
            (with_bits("\"x\""), "'predicted_bits' is not an unsigned"),
            (with_bits("-1"), "'predicted_bits' is not an unsigned"),
            (with_bits("1.5"), "'predicted_bits' is not an unsigned"),
            (with_bits("null"), "'predicted_bits' is not an unsigned"),
        ];
        for (text, why) in &corrupt {
            assert_ne!(*text, good, "{why}: the case must corrupt the document");
            expect_serde(text, why);
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
