//! Exhaustive small-scope checker: every event sequence of up to
//! [`DEPTH`] events over the two-machine `synthetic_small` fleet, with
//! faults armed, under a shedding-heavy and a rejection-heavy queue
//! policy.
//!
//! Each step is one of: submit the next job as `cpu` at priority 0 or
//! as `mem` at priority 1; complete or fail any job already submitted;
//! or query. After every step of every sequence the checker asserts:
//!
//! * the queue holds at most `max_depth` jobs;
//! * the audit ledger reconciles: `submitted + rejected` is the number
//!   of submit events, and `completed + failed + shed + queued +
//!   running` is `submitted`;
//! * `Daemon::recover` from the previous step's checkpoint plus this
//!   step's journal record reaches the uninterrupted daemon's
//!   transcript, audit, queue and schedule bits;
//! * a job that was running before the event ends it `rejected` only if
//!   the event's transcript has a `fail` line for it first: shedding
//!   takes only queue members, and a failed job re-queued as a retry is
//!   one (see `a_retry_can_be_shed_in_the_event_that_failed_it`).
//!
//! The uninterrupted daemon of each sequence is replayed from the
//! start, never restored, so that recovery is compared with a daemon
//! that never went through a checkpoint. All daemons of a walk share
//! one prediction cache, which changes no result and spares repeated
//! co-schedule predictions. The walk takes about 9 s optimized and
//! about 50 s unoptimized (2 vCPUs), so it runs in release builds only:
//!
//! ```text
//! cargo test --release -p pandia-daemon --test exhaustive -- --nocapture
//! ```

use pandia_core::{ExecContext, FleetSchedule};
use pandia_daemon::{
    synthetic_small, Daemon, DaemonConfig, Event, FleetPreset, JobStatus, QueuePolicy,
    JOURNAL_SCHEMA,
};
use pandia_sim::FaultPlan;

/// Events per sequence, at most.
const DEPTH: usize = 6;

/// Sequences of one to [`DEPTH`] events: with `k` jobs submitted, a
/// step has `3 + 2k` choices.
const SEQUENCES: usize = 31_408;

/// Shedding-heavy: the high-water mark keeps at most one job queued.
fn shedding_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 2, high_water: 1, deadline: Some(2) }
}

/// Rejection-heavy: one queued job fills the queue, so a submission
/// that finds a faulted job waiting out its backoff is rejected. The
/// high-water mark equals the depth bound, because a retry re-enters
/// the queue without admission; the zero deadline sheds every job that
/// waits a whole event.
fn rejection_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 1, high_water: 1, deadline: Some(0) }
}

fn config(queue: QueuePolicy) -> DaemonConfig {
    DaemonConfig {
        faults: FaultPlan { transient_rate: 0.5, ..FaultPlan::none() },
        exec: ExecContext::new(1),
        queue,
        ..DaemonConfig::default()
    }
}

fn submit(n: usize, class: &str, priority: u8) -> Event {
    Event::Submit { job: format!("j{n}"), class: class.into(), priority }
}

/// Every event one step may take after `submitted` submit events.
fn steps(submitted: usize) -> Vec<Event> {
    let mut steps = vec![submit(submitted, "cpu", 0), submit(submitted, "mem", 1)];
    for k in 0..submitted {
        steps.push(Event::Complete { job: format!("j{k}"), elapsed: None });
        steps.push(Event::Fail { job: format!("j{k}") });
    }
    steps.push(Event::Query);
    steps
}

/// The journal a crash right after appending `event` at `seq` leaves
/// behind, when the checkpoint covers everything before it.
fn journal(seq: u64, event: &Event) -> String {
    let mut text = format!("{{\"schema\":\"{JOURNAL_SCHEMA}\"}}\n{{\"seq\":{seq},\"entry\":");
    event.render(&mut text);
    text.push_str("}\n");
    text
}

fn assert_schedules_bits_eq(a: &FleetSchedule, b: &FleetSchedule, ctx: &str) {
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{ctx}: makespan differs");
    assert_eq!(a.placements, b.placements, "{ctx}");
    assert_eq!(a.assignments.len(), b.assignments.len(), "{ctx}");
    for (x, y) in a.assignments.iter().zip(&b.assignments) {
        assert_eq!(
            (&x.workload, x.machine_index, x.n_threads, x.predicted_time.to_bits()),
            (&y.workload, y.machine_index, y.n_threads, y.predicted_time.to_bits()),
            "{ctx}"
        );
    }
}

/// Transitions the walk must reach somewhere, as the transcript
/// fragments that show them.
const COVERAGE: [(&str, &[&str]); 6] = [
    ("a rejection", &["reason=queue_full"]),
    ("an overflow shed", &["reason=overflow"]),
    ("a deadline shed", &["reason=deadline"]),
    ("a fault backoff", &[" backoff="]),
    ("an exhausted attempt budget", &["attempts exhausted", "faulted attempts -> failed"]),
    ("a complete-while-queued", &["(was queued) -> completed"]),
];

/// The daemon state a step starts from.
struct Before {
    checkpoint: String,
    running: Vec<String>,
    transcript_len: usize,
}

/// One policy's walk.
struct Walk {
    preset: FleetPreset,
    policy: QueuePolicy,
    config: DaemonConfig,
    sequences: usize,
    seen: [usize; COVERAGE.len()],
    retries_shed: usize,
}

impl Walk {
    fn new(policy: QueuePolicy) -> Self {
        Self {
            preset: synthetic_small(2),
            policy,
            config: config(policy),
            sequences: 0,
            seen: [0; COVERAGE.len()],
            retries_shed: 0,
        }
    }

    fn fresh(&self) -> Daemon {
        let preset = self.preset.clone();
        Daemon::new(preset.machines, preset.catalog, self.config.clone()).unwrap()
    }

    fn replay(&self, events: &[Event]) -> Daemon {
        let mut daemon = self.fresh();
        daemon.run(events).unwrap();
        daemon
    }

    fn before(daemon: &Daemon) -> Before {
        let running = daemon
            .live_jobs()
            .into_iter()
            .filter(|name| daemon.job_status(name) == Some(JobStatus::Running))
            .collect();
        Before {
            checkpoint: daemon.checkpoint(),
            running,
            transcript_len: daemon.transcript().len(),
        }
    }

    /// Visits every extension of `prefix` (whose state is `before`) by
    /// one step, and recursively theirs.
    fn extend(&mut self, prefix: &mut Vec<Event>, submitted: usize, before: &Before) {
        for event in steps(submitted) {
            let submits = submitted + usize::from(matches!(event, Event::Submit { .. }));
            prefix.push(event);
            let daemon = self.replay(prefix);
            self.check(prefix, submits, before, &daemon);
            if prefix.len() < DEPTH {
                let next = Self::before(&daemon);
                self.extend(prefix, submits, &next);
            }
            prefix.pop();
        }
    }

    fn check(&mut self, events: &[Event], submits: usize, before: &Before, daemon: &Daemon) {
        self.sequences += 1;
        let ctx = format!("{:?} after {events:?}", self.policy);
        let event = events.last().unwrap();

        assert!(daemon.queued() <= self.policy.max_depth, "{ctx}: queue depth {}", daemon.queued());

        let a = daemon.audit();
        assert_eq!(a.submitted + a.rejected, submits as u64, "{ctx}: {a:?}");
        let live = (daemon.queued() + daemon.running()) as u64;
        assert_eq!(a.completed + a.failed + a.shed + live, a.submitted, "{ctx}: {a:?}");

        let preset = self.preset.clone();
        let seq = daemon.clock() - 1;
        let recovered = Daemon::recover(
            preset.machines,
            preset.catalog,
            self.config.clone(),
            Some(&before.checkpoint),
            Some(&journal(seq, event)),
        )
        .unwrap();
        assert_eq!(recovered.transcript(), daemon.transcript(), "{ctx}: transcript");
        assert_eq!(recovered.audit(), a, "{ctx}: audit");
        assert_eq!(
            (recovered.queued(), recovered.running(), recovered.clock()),
            (daemon.queued(), daemon.running(), daemon.clock()),
            "{ctx}"
        );
        assert_schedules_bits_eq(&recovered.schedule().unwrap(), &daemon.schedule().unwrap(), &ctx);

        let step = &daemon.transcript()[before.transcript_len..];
        for name in &before.running {
            if daemon.job_status(name) != Some(JobStatus::Rejected) {
                continue;
            }
            let fail = step.find(&format!("] fail {name} "));
            let shed = step.find(&format!("] shed {name} "));
            assert!(
                matches!((fail, shed), (Some(f), Some(s)) if f < s),
                "{ctx}: running job {name} was rejected without failing first:\n{step}"
            );
            self.retries_shed += 1;
        }
        for (seen, (_, fragments)) in self.seen.iter_mut().zip(COVERAGE) {
            *seen += usize::from(fragments.iter().any(|f| step.contains(f)));
        }
    }

    fn run(mut self) -> Self {
        let root = Self::before(&self.fresh());
        self.extend(&mut Vec::new(), 0, &root);
        assert_eq!(self.sequences, SEQUENCES, "{:?}", self.policy);
        println!(
            "{:?}: {} sequences checked; {} running jobs failed and were shed in one event",
            self.policy, self.sequences, self.retries_shed
        );
        for (seen, (what, _)) in self.seen.iter().zip(COVERAGE) {
            println!("  {what}: {seen} steps");
        }
        self
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "about 50 s unoptimized; CI runs it with --release")]
fn every_short_sequence_keeps_the_invariants() {
    let walks = [Walk::new(shedding_policy()).run(), Walk::new(rejection_policy()).run()];
    for (i, (what, _)) in COVERAGE.iter().enumerate() {
        assert!(walks.iter().any(|w| w.seen[i] > 0), "no sequence reached {what}");
    }
    assert!(walks.iter().any(|w| w.retries_shed > 0), "no retry was shed");
}

/// A running job can end `rejected`: it fails, the retry rule re-queues
/// it, its redispatch faults, and overflow shedding drops it, all in
/// one event. Shedding still takes only queue members.
#[test]
fn a_retry_can_be_shed_in_the_event_that_failed_it() {
    let preset = synthetic_small(2);
    let policy = shedding_policy();
    let mut daemon = Daemon::new(preset.machines, preset.catalog, config(policy)).unwrap();
    daemon.run(&[submit(0, "cpu", 0), submit(1, "mem", 1), submit(2, "cpu", 0)]).unwrap();
    assert_eq!(daemon.job_status("j2"), Some(JobStatus::Running));
    let before = daemon.transcript().len();
    daemon.apply(&Event::Fail { job: "j2".into() }).unwrap();
    let step: Vec<&str> = daemon.transcript()[before..].lines().collect();
    assert_eq!(
        step,
        [
            "[0003] fail j2 machine=1 -> queued (retry)",
            "[0003] fault j2 attempt=2 machine=small1 backoff=2 -> queued",
            "[0003] degrade queue=2 high_water=1 memo_capacity=256",
            "[0003] shed j2 reason=overflow priority=0 -> rejected",
        ]
    );
    assert_eq!(daemon.job_status("j2"), Some(JobStatus::Rejected));
}
