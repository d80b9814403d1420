//! Crash-recovery properties: kill the daemon at **every** event index
//! and prove that checkpoint-load + journal-tail replay reaches the
//! exact state an uninterrupted run reaches — byte-identical transcript,
//! audit ledger, and fleet schedule bits.
//!
//! The crash model matches `pandiad --crash-at`: the process dies right
//! after journaling event `k` but before applying it, so the journal
//! holds `[0, k]` while the daemon state reflects `[0, k)`. The
//! unsynced-tail variants additionally drop (or tear) the journal's
//! final records, simulating a crash before the batched fsync landed —
//! those events are then re-consumed from the driving stream, which is
//! exactly the recovery protocol's claim.
//!
//! A second property restores from a fresh checkpoint at every 8th
//! event of generated overload streams, and requires the checkpoint
//! format to be a fixed point of one restore.

use pandia_core::FleetSchedule;
use pandia_daemon::{
    generate_events_with_rate, parse_log, synthetic_small, Daemon, DaemonConfig, Event, Journal,
    QueuePolicy, CHECKPOINT_SCHEMA,
};
use pandia_sim::FaultPlan;

const FIXTURE: &str = include_str!("fixtures/events_small.jsonl");

/// Events every recovery scenario replays: the committed fixture stream.
fn fixture_events() -> Vec<Event> {
    parse_log(FIXTURE).expect("fixture parses")
}

/// A config that exercises the overload paths too (bounded-ish queue,
/// deadline, faults armed) so recovery is proven for the interesting
/// daemon, not just the quiet one.
fn config() -> DaemonConfig {
    DaemonConfig {
        faults: FaultPlan::with_intensity(0.8),
        queue: QueuePolicy { high_water: 3, deadline: Some(12), ..QueuePolicy::default() },
        ..DaemonConfig::default()
    }
}

fn new_daemon() -> Daemon {
    let preset = synthetic_small(2);
    Daemon::new(preset.machines, preset.catalog, config()).unwrap()
}

fn assert_schedules_bits_eq(a: &FleetSchedule, b: &FleetSchedule, ctx: &str) {
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{ctx}: makespan differs");
    assert_eq!(a.placements, b.placements, "{ctx}");
    assert_eq!(a.assignments.len(), b.assignments.len(), "{ctx}");
    for (x, y) in a.assignments.iter().zip(&b.assignments) {
        assert_eq!(x.workload, y.workload, "{ctx}");
        assert_eq!(x.machine_index, y.machine_index, "{ctx}");
        assert_eq!(x.n_threads, y.n_threads, "{ctx}");
        assert_eq!(
            x.predicted_time.to_bits(),
            y.predicted_time.to_bits(),
            "{ctx}: predicted_time differs for {}",
            x.workload
        );
    }
}

fn assert_same_state(recovered: &Daemon, oracle: &Daemon, ctx: &str) {
    assert_eq!(recovered.clock(), oracle.clock(), "{ctx}");
    assert_eq!(recovered.transcript(), oracle.transcript(), "{ctx}: transcript diverged");
    assert_eq!(recovered.audit(), oracle.audit(), "{ctx}: audit diverged");
    assert_eq!(recovered.queued(), oracle.queued(), "{ctx}");
    assert_eq!(recovered.running(), oracle.running(), "{ctx}");
    assert_eq!(recovered.degraded(), oracle.degraded(), "{ctx}");
    assert_schedules_bits_eq(
        &recovered.schedule().unwrap(),
        &oracle.schedule().unwrap(),
        ctx,
    );
}

/// The oracle: the uninterrupted run over the full stream.
fn uninterrupted() -> Daemon {
    let mut daemon = new_daemon();
    daemon.run(&fixture_events()).unwrap();
    daemon
}

/// Simulates a `--crash-at k` run with checkpoints every
/// `checkpoint_every` events, returning the latest checkpoint document
/// (if one was taken) and the journal text as of the crash.
fn run_until_crash(
    events: &[Event],
    crash_at: usize,
    checkpoint_every: u64,
    journal_path: &std::path::Path,
) -> (Option<String>, String) {
    let mut daemon = new_daemon();
    let mut journal = Journal::create(journal_path, 4).unwrap();
    let mut checkpoint = None;
    for (i, event) in events.iter().enumerate() {
        journal.append(daemon.clock(), event).unwrap();
        if i == crash_at {
            break; // the abort(): journaled but never applied
        }
        daemon.apply(event).unwrap();
        if daemon.clock().is_multiple_of(checkpoint_every) {
            checkpoint = Some(daemon.checkpoint());
            daemon.note_checkpoint(daemon.clock());
        }
    }
    journal.sync().unwrap();
    let text = std::fs::read_to_string(journal_path).unwrap();
    (checkpoint, text)
}

/// Recovery: checkpoint (or fresh daemon) and journal tail, folded by
/// `Daemon::recover`, then the rest of the stream from the recovered
/// clock.
fn recover(checkpoint: Option<&str>, journal_text: &str, events: &[Event]) -> Daemon {
    let preset = synthetic_small(2);
    let mut daemon =
        Daemon::recover(preset.machines, preset.catalog, config(), checkpoint, Some(journal_text))
            .expect("journal tail must be contiguous with the checkpoint");
    let start = daemon.clock() as usize;
    for event in &events[start..] {
        daemon.apply(event).unwrap();
    }
    daemon
}

#[test]
fn kill_at_every_event_index_recovers_bit_identically() {
    let events = fixture_events();
    let oracle = uninterrupted();
    let dir = std::env::temp_dir().join(format!("pandia-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for crash_at in 0..=events.len() {
        let journal_path = dir.join(format!("journal-{crash_at}.jsonl"));
        let (checkpoint, journal_text) =
            run_until_crash(&events, crash_at, 7, &journal_path);
        let recovered = recover(checkpoint.as_deref(), &journal_text, &events);
        assert_same_state(&recovered, &oracle, &format!("crash_at={crash_at}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_survives_a_lost_unsynced_journal_tail() {
    let events = fixture_events();
    let oracle = uninterrupted();
    let dir = std::env::temp_dir().join(format!("pandia-recovery-tail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for crash_at in [9usize, 20, 33, 40] {
        let journal_path = dir.join(format!("journal-{crash_at}.jsonl"));
        let (checkpoint, journal_text) =
            run_until_crash(&events, crash_at, 7, &journal_path);

        // Drop the last 1..=3 journal records (they never hit disk), and
        // also tear the new final line in half.
        for lost in 1..=3usize {
            let mut lines: Vec<&str> = journal_text.lines().collect();
            let keep = lines.len().saturating_sub(lost).max(1);
            lines.truncate(keep);
            let mut shorter = lines.join("\n");
            shorter.push('\n');
            let recovered = recover(checkpoint.as_deref(), &shorter, &events);
            assert_same_state(
                &recovered,
                &oracle,
                &format!("crash_at={crash_at} lost_tail={lost}"),
            );

            // Tear the (new) final record in half as well — only when a
            // record line exists beyond the schema line.
            let mut torn_lines: Vec<String> = shorter.lines().map(str::to_string).collect();
            if torn_lines.len() >= 2 {
                let last = torn_lines.last_mut().unwrap();
                last.truncate(last.len().saturating_sub(9));
                let torn = format!("{}\n", torn_lines.join("\n"));
                let recovered = recover(checkpoint.as_deref(), &torn, &events);
                assert_same_state(
                    &recovered,
                    &oracle,
                    &format!("crash_at={crash_at} torn_tail lost={lost}"),
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_alone_recovers_when_the_journal_is_gone() {
    // Worst case: the whole journal is lost; the checkpoint plus the
    // driving stream must still converge (exactly what the recovery CLI
    // does when --journal's file vanished).
    let events = fixture_events();
    let oracle = uninterrupted();
    let mut daemon = new_daemon();
    for event in &events[..20] {
        daemon.apply(event).unwrap();
    }
    let checkpoint = daemon.checkpoint();
    let recovered = recover(Some(&checkpoint), "{\"schema\":\"pandia-journal-v1\"}\n", &events);
    assert_same_state(&recovered, &oracle, "checkpoint-only");
}

/// Faults armed and a queue bounded at three, so that streams near or
/// past the service rate reject at the door, shed (by deadline, and by
/// overflow when a failed job re-queues onto a full queue), and back
/// off faulted placements.
fn overload_config() -> DaemonConfig {
    DaemonConfig {
        faults: FaultPlan::with_intensity(0.8),
        queue: QueuePolicy { max_depth: 3, high_water: 3, deadline: Some(10) },
        ..DaemonConfig::default()
    }
}

/// A checkpoint with every `"slot":N` masked, and the slot numbers in
/// document order.
fn mask_slots(doc: &str) -> (String, Vec<usize>) {
    const KEY: &str = "\"slot\":";
    let mut masked = String::with_capacity(doc.len());
    let mut slots = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find(KEY) {
        let (before, after) = rest.split_at(at + KEY.len());
        let digits = after.bytes().take_while(u8::is_ascii_digit).count();
        masked.push_str(before);
        masked.push('_');
        slots.push(after[..digits].parse().unwrap());
        rest = &after[digits..];
    }
    masked.push_str(rest);
    (masked, slots)
}

/// Each slot's rank among `slots`: the slots a restore compacts them to.
fn compacted(slots: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| slots[i]);
    let mut ranks = vec![0; slots.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank;
    }
    ranks
}

#[test]
fn restoring_every_eighth_event_matches_the_uninterrupted_run() {
    let preset = synthetic_small(2);
    let classes: Vec<&str> = preset.catalog.keys().map(String::as_str).collect();
    let fresh = || {
        Daemon::new(preset.machines.clone(), preset.catalog.clone(), overload_config()).unwrap()
    };
    let restore = |doc: &str| {
        Daemon::restore(preset.machines.clone(), preset.catalog.clone(), overload_config(), doc)
            .unwrap()
    };
    let mut compactions = 0;
    for (seed, submit_bias) in [(1, 0.5), (2, 0.6), (3, 0.7), (4, 0.8)] {
        let events = generate_events_with_rate(seed, 200, &classes, submit_bias);
        let mut oracle = fresh();
        oracle.run(&events).unwrap();
        let audit = oracle.audit();
        assert!(
            audit.rejected > 0 && audit.shed > 0 && audit.faulted > 0,
            "seed {seed}: the stream must reject, shed and fault: {audit:?}"
        );
        assert!(oracle.transcript().contains(" backoff="), "seed {seed}: no backoff");

        let mut daemon = fresh();
        for (i, event) in events.iter().enumerate() {
            daemon.apply(event).unwrap();
            if daemon.clock() % 8 != 0 {
                continue;
            }
            let ctx = format!("seed {seed} event {i}");
            let x = daemon.checkpoint();
            assert!(x.starts_with(&format!("{{\"schema\":\"{CHECKPOINT_SCHEMA}\",")), "{ctx}");
            let restored = restore(&x);
            // Slot compaction is the only difference one restore makes,
            // and it keeps the slots' order.
            let y = restored.checkpoint();
            let ((x_masked, x_slots), (y_masked, y_slots)) = (mask_slots(&x), mask_slots(&y));
            assert_eq!(x_masked, y_masked, "{ctx}: a restore changed more than slots");
            assert_eq!(y_slots, compacted(&x_slots), "{ctx}: slots did not compact in order");
            compactions += usize::from(y_slots != x_slots);
            assert_eq!(restore(&y).checkpoint(), y, "{ctx}: not a fixed point of restore");
            daemon = restored;
        }
        assert_same_state(&daemon, &oracle, &format!("seed {seed}"));
    }
    assert!(compactions > 0, "no restore compacted a slot");
}
