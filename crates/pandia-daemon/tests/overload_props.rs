//! Overload-behavior properties: queue state transitions under
//! admission control, shedding, and backoff stay safe and deterministic.
//!
//! * Shedding never touches a running job — victims come exclusively
//!   from the queue, at every event of a saturating stream.
//! * Rejections (and everything else in the transcript) are identical
//!   at `--jobs 1` and `--jobs 4`: worker count is invisible.
//! * Backoff schedules replay bit-identically from the write-ahead
//!   journal: re-consuming journaled events reproduces the transcript.

use pandia_core::ExecContext;
use pandia_daemon::{
    generate_events_with_rate, synthetic_small, Daemon, DaemonConfig, Event, JobStatus,
    QueuePolicy,
};
use pandia_sim::FaultPlan;

/// Shedding-heavy policy: the high-water mark trims the queue after
/// every event, so overflow + deadline shedding both fire. (Because
/// shedding keeps depth at or below `high_water` between events,
/// admission never sees a full queue under this policy.)
fn shed_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 64, high_water: 3, deadline: Some(10) }
}

/// Rejection-heavy policy: no high-water trimming, so the queue can
/// actually fill to `max_depth` and submissions bounce at the door;
/// the deadline still sheds jobs that rot in the full queue.
fn reject_policy() -> QueuePolicy {
    QueuePolicy { max_depth: 4, deadline: Some(12), ..QueuePolicy::default() }
}

/// An overloaded daemon: small fleet, arrival-heavy stream, armed faults.
fn overload_daemon(jobs: usize, queue: QueuePolicy) -> Daemon {
    let preset = synthetic_small(2);
    let config = DaemonConfig {
        faults: FaultPlan::with_intensity(0.7),
        exec: ExecContext::new(jobs),
        queue,
        ..DaemonConfig::default()
    };
    Daemon::new(preset.machines, preset.catalog, config).unwrap()
}

/// 2x-sustainable arrival rate over the 2-machine fleet.
fn overload_stream(seed: u64, n: usize) -> Vec<Event> {
    generate_events_with_rate(seed, n, &["cpu", "mem", "balanced"], 0.85)
}

#[test]
fn shedding_never_drops_a_running_job() {
    for (policy_name, policy, expect_rejections) in
        [("shed", shed_policy(), false), ("reject", reject_policy(), true)]
    {
        for seed in [3u64, 17, 99] {
            let ctx = format!("policy {policy_name} seed {seed}");
            let mut daemon = overload_daemon(1, policy);
            let events = overload_stream(seed, 300);
            // Track which jobs are running before each event; any of
            // them that is Rejected afterwards was shed while running —
            // forbidden.
            for (i, event) in events.iter().enumerate() {
                let running_before: Vec<String> = daemon
                    .live_jobs()
                    .into_iter()
                    .filter(|name| daemon.job_status(name) == Some(JobStatus::Running))
                    .collect();
                daemon.apply(event).unwrap();
                for name in &running_before {
                    let status = daemon.job_status(name).unwrap();
                    assert_ne!(
                        status,
                        JobStatus::Rejected,
                        "{ctx} event {i}: running job '{name}' was shed"
                    );
                }
            }
            // The stream actually exercised the machinery.
            let audit = daemon.audit();
            assert!(audit.shed > 0, "{ctx}: no shedding happened: {audit:?}");
            assert!(audit.faulted > 0, "{ctx}: no faults happened: {audit:?}");
            if expect_rejections {
                assert!(audit.rejected > 0, "{ctx}: no rejections happened: {audit:?}");
            }
        }
    }
}

#[test]
fn rejections_are_deterministic_across_worker_counts() {
    for seed in [5u64, 41] {
        let events = overload_stream(seed, 250);
        let mut serial = overload_daemon(1, reject_policy());
        let mut parallel = overload_daemon(4, reject_policy());
        serial.run(&events).unwrap();
        parallel.run(&events).unwrap();
        assert_eq!(
            serial.transcript(),
            parallel.transcript(),
            "seed {seed}: transcripts diverge between --jobs 1 and --jobs 4"
        );
        assert_eq!(serial.audit(), parallel.audit(), "seed {seed}");
        assert!(serial.audit().rejected > 0, "seed {seed}: stream never rejected");
    }
}

#[test]
fn backoff_schedules_replay_bit_identically_from_the_journal() {
    let events = overload_stream(23, 250);

    // Live run, journaling (in memory) before each apply — the WAL
    // discipline.
    let mut live = overload_daemon(1, shed_policy());
    let mut journaled: Vec<(u64, Event)> = Vec::new();
    for event in &events {
        journaled.push((live.clock(), event.clone()));
        live.apply(event).unwrap();
    }
    assert!(live.audit().faulted > 0, "stream never faulted: {:?}", live.audit());
    assert!(live.audit().retries > 0, "stream never backed off: {:?}", live.audit());

    // Replay the journal into a fresh daemon: every backoff decision
    // (fault draw, delay, redispatch tick) must reproduce exactly,
    // because they are pure functions of (seed, job, attempt) and the
    // logical clock.
    let mut replayed = overload_daemon(1, shed_policy());
    for (seq, event) in &journaled {
        assert_eq!(*seq, replayed.clock(), "journal seq skew");
        replayed.apply(event).unwrap();
    }
    assert_eq!(live.transcript(), replayed.transcript(), "backoff replay diverged");
    assert_eq!(live.audit(), replayed.audit());

    // And the backoff fingerprint is visible: the same `fault ...
    // backoff=N` lines appear in both transcripts.
    let fingerprint: Vec<&str> =
        live.transcript().lines().filter(|l| l.contains(" backoff=")).collect();
    assert!(!fingerprint.is_empty(), "no backoff lines in transcript");
    let replay_fingerprint: Vec<&str> =
        replayed.transcript().lines().filter(|l| l.contains(" backoff=")).collect();
    assert_eq!(fingerprint, replay_fingerprint);
}
