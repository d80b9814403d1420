//! Telemetry reconciliation: the recorder's counters must agree exactly
//! with the daemon's audit ledger and the fleet's solve stats.
//!
//! This file holds a SINGLE test on purpose: it installs the
//! process-global recorder and asserts absolute counter values, so it
//! cannot share a process with any other telemetry-producing test.

use pandia_daemon::{
    generate_events_with_rate, synthetic_small, Daemon, DaemonConfig, QueuePolicy,
    SYNTHETIC_CLASSES,
};
use pandia_sim::FaultPlan;

#[test]
fn recorder_counters_reconcile_with_the_audit_ledger() {
    let recorder = pandia_obs::install();

    let preset = synthetic_small(2);
    let config = DaemonConfig {
        seed: 0xAB5E,
        faults: FaultPlan::with_intensity(0.5),
        // Bounded at three on both axes, so that submissions bounce at
        // the door and a failed job re-queued onto a full queue is shed.
        queue: QueuePolicy { max_depth: 3, high_water: 3, deadline: Some(10) },
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(preset.machines, preset.catalog, config).expect("daemon");
    let events = generate_events_with_rate(0xAB5E, 200, &SYNTHETIC_CLASSES, 0.7);
    daemon.run(&events).expect("replay");

    let audit = daemon.audit();
    let stats = daemon.fleet_stats();
    assert!(audit.faulted > 0, "storm never faulted; reconciliation untested under chaos");
    assert!(audit.rejected > 0, "queue never rejected; rejection counter untested");
    assert!(audit.shed > 0, "queue never shed; shedding counter untested");
    assert!(stats.resolves_skipped > 0, "memo never hit; skip counter untested");

    let count = |name: &str| recorder.counter(name).get();
    assert_eq!(count("daemon.events"), audit.events);
    assert_eq!(count("daemon.submitted"), audit.submitted);
    assert_eq!(count("daemon.placed"), audit.placed);
    assert_eq!(count("daemon.completed"), audit.completed);
    assert_eq!(count("daemon.failed"), audit.failed);
    assert_eq!(count("daemon.retries"), audit.retries);
    assert_eq!(count("daemon.faulted"), audit.faulted);
    assert_eq!(count("daemon.reprofiles"), audit.reprofiles);
    assert_eq!(count("daemon.rejected"), audit.rejected);
    assert_eq!(count("daemon.shed"), audit.shed);
    assert_eq!(count("fleet.resolves"), stats.resolves);
    assert_eq!(count("fleet.resolves_skipped"), stats.resolves_skipped);

    // Every event landed one latency observation.
    let snapshot = recorder.metrics_snapshot();
    let latency = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "daemon.event_latency_us")
        .map(|(_, h)| h.clone())
        .expect("daemon.event_latency_us histogram");
    assert_eq!(latency.count, audit.events);
    assert!(latency.sum > 0.0);
}
