//! `daemon-durable`: `pandiad`'s loop body over a fixed seeded stream.
//!
//! One operation is one event: append it to the write-ahead journal,
//! apply it, and on every 64th event serialise a checkpoint. The fleet
//! is four small synthetic machines under admission control and a 0.1
//! fault intensity, fed close to its service rate. The simulator never
//! runs here; the predictor runs only inside the fleet's co-schedule
//! solves.
//!
//! The disk stays out of the timed loop, as it would with the files on
//! tmpfs: `Journal::append` writes each record to the page cache with no
//! `fsync` in between, and each checkpoint document is kept in memory.
//! After a pass, outside the clock, the journal is synced and the newest
//! checkpoint goes to disk through `write_checkpoint`; the recovery check
//! reads both back from their files.
//!
//! The stream length is part of the workload because checkpoint cost
//! grows with the transcript. A replay is a sequence of whole passes,
//! each a fresh daemon and journal fed its own stream drawn from the
//! run's seed; passes are whole because a pass's cold first events cost
//! far more than its later ones. Near the service rate, streams differ
//! a lot in shedding; several streams per run average that out. Every
//! pass is recovered from its files and compared, and a stream's later
//! replays must end in its first replay's transcript.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pandia_core::ExecContext;
use pandia_daemon::{
    generate_events_with_rate, parse_journal, presets, write_checkpoint, Daemon, DaemonAudit,
    DaemonConfig, Event, Journal, QueuePolicy,
};
use pandia_sim::FaultPlan;

use crate::bench::{per_replay, record_cache, Loop, Outcome, Probe, Replays, REPLAYS};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Events per pass.
pub const STREAM_EVENTS: usize = 10_000;
/// Share of submissions in the stream: close to the fleet's service rate.
const SUBMIT_BIAS: f64 = 0.42;
/// Machines in the synthetic fleet.
const MACHINES: usize = 4;
/// Journal records per `fsync`: none inside a pass. The journal is
/// synced once when the pass ends.
const JOURNAL_SYNC: usize = usize::MAX;
/// Events per checkpoint (`pandiad --checkpoint-interval` default).
const CHECKPOINT_EVERY: u64 = 64;
const FAULT_INTENSITY: f64 = 0.1;
/// Daemons built per pass; `setup_s` is the median over all of them. A
/// build takes tens of microseconds, so a run times many.
const SETUPS_PER_PASS: usize = 9;
/// Histogram of the `Daemon::apply` calls during which the fleet
/// re-solved.
const SOLVING_APPLY: &str = "daemon.solving_apply_us";

/// One pass's inputs, generated before its clock starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The event stream.
    pub events: Vec<Event>,
    /// Seed of the daemon's fault draws.
    pub fault_seed: u64,
}

/// Pass `pass` of the run with `seed`: its event stream and fault seed.
pub fn stream(seed: u64, pass: u64, events: usize) -> Stream {
    let mut rng = Rng::new(seed, 3 + (pass << 8));
    let stream_seed = rng.next_u64();
    let fault_seed = rng.next_u64();
    let preset = presets::synthetic_small(MACHINES);
    let classes: Vec<&str> = preset.catalog.keys().map(String::as_str).collect();
    Stream {
        events: generate_events_with_rate(stream_seed, events, &classes, SUBMIT_BIAS),
        fault_seed,
    }
}

fn new_daemon(
    fault_seed: u64,
    exec: ExecContext,
    checkpoint: Option<&str>,
) -> Result<Daemon, String> {
    let preset = presets::synthetic_small(MACHINES);
    let config = DaemonConfig {
        seed: fault_seed,
        faults: FaultPlan::with_intensity(FAULT_INTENSITY),
        exec,
        queue: QueuePolicy {
            max_depth: 64,
            high_water: 32,
            deadline: Some(256),
        },
        ..DaemonConfig::default()
    };
    match checkpoint {
        Some(text) => Daemon::restore(preset.machines, preset.catalog, config, text),
        None => Daemon::new(preset.machines, preset.catalog, config),
    }
    .map_err(|e| format!("daemon: {e:?}"))
}

/// The journal and checkpoint files of a run.
pub struct Files {
    dir: PathBuf,
    journal: PathBuf,
    checkpoint: PathBuf,
}

impl Files {
    /// Files under `dir`.
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
            journal: dir.join("journal.jsonl"),
            checkpoint: dir.join("checkpoint.jsonl"),
        }
    }

    /// Deletes both files and syncs the directory, so every pass starts
    /// from the same empty directory.
    fn clear(&self) -> Result<(), String> {
        for path in [&self.journal, &self.checkpoint] {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("cannot remove {}: {e}", path.display())),
            }
        }
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("cannot sync {}: {e}", self.dir.display()))
    }

    fn read(&self) -> Result<(String, Option<String>), String> {
        let journal = std::fs::read_to_string(&self.journal)
            .map_err(|e| format!("cannot read {}: {e}", self.journal.display()))?;
        let checkpoint = match std::fs::read_to_string(&self.checkpoint) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read {}: {e}", self.checkpoint.display())),
        };
        Ok((journal, checkpoint))
    }
}

/// One pass: a fresh daemon, its journal and its newest checkpoint.
pub struct Pass {
    daemon: Daemon,
    journal: Journal,
    checkpoint: Option<String>,
    exec: ExecContext,
}

impl Pass {
    /// Clears the files and creates the journal (untimed), then builds
    /// the daemon [`SETUPS_PER_PASS`] times, timing each into `setup_s`
    /// and keeping the last.
    fn start(files: &Files, fault_seed: u64, setup_s: &mut Vec<f64>) -> Result<Self, String> {
        files.clear()?;
        let journal = Journal::create(&files.journal, JOURNAL_SYNC)
            .map_err(|e| format!("cannot create {}: {e}", files.journal.display()))?;
        let mut built = None;
        for _ in 0..SETUPS_PER_PASS {
            let start = Instant::now();
            // The clone shares the daemon's prediction cache, so its
            // statistics stay readable.
            let exec = ExecContext::new(1);
            let daemon = new_daemon(fault_seed, exec.clone(), None)?;
            setup_s.push(start.elapsed().as_secs_f64());
            // Dropping the previous build happens here, off the clock.
            built = Some((daemon, exec));
        }
        let (daemon, exec) = built.ok_or("no daemon built")?;
        Ok(Self {
            daemon,
            journal,
            checkpoint: None,
            exec,
        })
    }

    /// Syncs the journal and writes the newest checkpoint, as a crash
    /// after the pass would find them.
    fn persist(&mut self, files: &Files, tracer: &Tracer) -> Result<(), String> {
        self.journal
            .sync()
            .map_err(|e| format!("journal sync: {e}"))?;
        match &self.checkpoint {
            Some(document) => tracer
                .call("checkpoint", "write", || {
                    write_checkpoint(&files.checkpoint, document)
                })
                .map_err(|e| format!("checkpoint write: {e}")),
            None => Ok(()),
        }
    }
}

fn apply_span(event: &Event) -> &'static str {
    match event {
        Event::Submit { .. } => "apply_submit",
        Event::Complete { .. } => "apply_complete",
        Event::Fail { .. } => "apply_fail",
        Event::Query => "apply_query",
    }
}

/// One operation: journal, apply, and checkpoint when due.
fn step(pass: &mut Pass, event: &Event, tracer: &Tracer) -> Result<(), String> {
    let seq = pass.daemon.clock();
    tracer
        .call("journal", "append", || pass.journal.append(seq, event))
        .map_err(|e| format!("journal append: {e}"))?;
    let resolves = tracer.enabled().then(|| pass.daemon.fleet_stats().resolves);
    let span = tracer.span("daemon", apply_span(event));
    let applied = pass.daemon.apply(event);
    if resolves.is_some_and(|r| pass.daemon.fleet_stats().resolves > r) {
        drop(span.observe_as(SOLVING_APPLY));
    } else {
        drop(span);
    }
    applied.map_err(|e| format!("event {seq}: {e:?}"))?;
    tracer.max("daemon.queue_depth_max", pass.daemon.queued() as u64);
    if pass.daemon.clock().is_multiple_of(CHECKPOINT_EVERY) {
        let seq = pass.daemon.clock();
        let document = tracer.call("checkpoint", "serialize", || pass.daemon.checkpoint());
        tracer.max("checkpoint.last_bytes", document.len() as u64);
        pass.checkpoint = Some(document);
        pass.daemon.note_checkpoint(seq);
    }
    Ok(())
}

/// Count and total seconds of the `Daemon::apply` calls during which
/// the fleet re-solved.
pub fn solving_applies(tracer: &Tracer) -> (u64, f64) {
    let (count, sum_us) = tracer.observed(SOLVING_APPLY);
    (count, sum_us / 1e6)
}

/// The state a pass ended in.
#[derive(Debug, Clone, PartialEq)]
pub struct Final {
    /// Status transcript.
    pub transcript: String,
    /// Audit ledger.
    pub audit: DaemonAudit,
    /// Queued jobs.
    pub queued: usize,
    /// Running jobs.
    pub running: usize,
}

impl Final {
    fn of(daemon: &Daemon) -> Self {
        Self {
            transcript: daemon.transcript().to_string(),
            audit: daemon.audit(),
            queued: daemon.queued(),
            running: daemon.running(),
        }
    }
}

/// Checks a pass that applied `applied`: the journal parses back to
/// those events; restoring the checkpoint and replaying the journal
/// tail reproduces the final transcript and audit; and the audit
/// reconciles with the queue state.
pub fn check(
    fault_seed: u64,
    applied: &[Event],
    journal: &str,
    checkpoint: Option<&str>,
    end: &Final,
    tracer: &Tracer,
) -> Result<(), String> {
    let records = tracer
        .call("recovery", "journal_parse", || parse_journal(journal))
        .map_err(|e| format!("journal: {e:?}"))?;
    if records.len() != applied.len() {
        return Err(format!(
            "journal holds {} of {} applied events",
            records.len(),
            applied.len()
        ));
    }
    for (i, ((seq, event), want)) in records.iter().zip(applied).enumerate() {
        if *seq != i as u64 || event != want {
            return Err(format!(
                "journal record {i} is seq {seq} {event:?}, applied {want:?}"
            ));
        }
    }

    let mut restored = tracer.call("recovery", "restore", || {
        new_daemon(fault_seed, ExecContext::new(1), checkpoint)
    })?;
    for (seq, event) in records.iter().skip(restored.clock() as usize) {
        restored
            .apply(event)
            .map_err(|e| format!("replaying journal seq {seq}: {e:?}"))?;
    }
    let recovered = Final::of(&restored);
    if recovered.transcript != end.transcript {
        return Err("recovery reproduced a different transcript".into());
    }
    if recovered.audit != end.audit {
        return Err(format!(
            "recovered audit {:?} != {:?}",
            recovered.audit, end.audit
        ));
    }

    let a = &end.audit;
    let submissions = applied
        .iter()
        .filter(|e| matches!(e, Event::Submit { .. }))
        .count() as u64;
    let live = (end.queued + end.running) as u64;
    if a.submitted + a.rejected != submissions
        || a.completed + a.failed + a.shed + live != a.submitted
    {
        return Err(format!(
            "audit {a:?} does not reconcile with {submissions} submissions and {live} live jobs"
        ));
    }
    Ok(())
}

/// Adds a finished pass's ledgers to the counters.
fn record_pass(pass: &Pass, journal_bytes: usize, tracer: &Tracer) {
    let a = pass.daemon.audit();
    tracer.add("daemon.placed", a.placed);
    tracer.add("daemon.retries", a.retries);
    tracer.add("daemon.faulted", a.faulted);
    tracer.add("daemon.rejected", a.rejected);
    tracer.add("daemon.shed", a.shed);
    tracer.max(
        "daemon.transcript_bytes",
        pass.daemon.transcript().len() as u64,
    );
    let f = pass.daemon.fleet_stats();
    tracer.add("fleet.resolves", f.resolves);
    tracer.add("fleet.resolves_skipped", f.resolves_skipped);
    tracer.add("fleet.memo_evictions", f.memo_evictions);
    record_cache(tracer, &pass.exec.cache_stats());
    tracer.add("journal.bytes", journal_bytes as u64);
}

/// One replay: a pass over each stream, each checked. The first
/// replay's transcripts go to `ends`; a later replay must match them.
fn replay(
    streams: &[Stream],
    files: &Files,
    tracer: &Tracer,
    probe: &mut Probe,
    setup_s: &mut Vec<f64>,
    ends: &mut Vec<String>,
) -> Result<(Loop, u64, Result<(), String>), String> {
    let mut lp = Loop::default();
    let mut refused = 0;
    for (k, inputs) in streams.iter().enumerate() {
        let mut pass = Pass::start(files, inputs.fault_seed, setup_s)?;
        let applied = lp.run(inputs.events.len(), probe, |i| {
            tracer.op(|| step(&mut pass, &inputs.events[i], tracer))
        });
        pass.persist(files, tracer)?;
        let (journal, checkpoint) = files.read()?;
        record_pass(&pass, journal.len(), tracer);
        let audit = pass.daemon.audit();
        refused += audit.rejected + audit.shed;
        let end = Final::of(&pass.daemon);
        let verdict = check(
            inputs.fault_seed,
            &inputs.events[..applied],
            &journal,
            checkpoint.as_deref(),
            &end,
            tracer,
        );
        let verdict = verdict.and_then(|()| match ends.get(k) {
            None => {
                ends.push(end.transcript);
                Ok(())
            }
            Some(first) if *first == end.transcript => Ok(()),
            Some(_) => Err(format!("stream {k} replayed to a different transcript")),
        });
        if lp.error.is_some() || verdict.is_err() {
            return Ok((lp, refused, verdict));
        }
    }
    Ok((lp, refused, Ok(())))
}

/// Runs [`REPLAYS`] replays of `per_replay(seconds, per_second)` events,
/// rounded to whole streams, with the files under `dir`.
pub fn run(
    seed: u64,
    seconds: f64,
    per_second: f64,
    dir: &Path,
    tracer: &Tracer,
    probe: &mut Probe,
) -> Result<Outcome, String> {
    let count = (per_replay(seconds, per_second) as f64 / STREAM_EVENTS as f64).round();
    let streams: Vec<Stream> = (0..count.max(1.0) as u64)
        .map(|pass| stream(seed, pass, STREAM_EVENTS))
        .collect();
    let files = Files::in_dir(dir);
    let mut setup_s = Vec::new();
    let mut replays = Replays::default();
    let mut refused = 0;
    let mut ends = Vec::new();
    let mut check = Ok(());
    for _ in 0..REPLAYS {
        let (lp, r, verdict) = replay(&streams, &files, tracer, probe, &mut setup_s, &mut ends)?;
        replays.add(lp);
        refused += r;
        if verdict.is_err() || replays.error.is_some() {
            check = verdict;
            break;
        }
    }
    Ok(replays.finish(setup_s, probe, refused, check))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_picks_each_pass_stream_and_fault_seed() {
        assert_eq!(stream(4, 0, 300), stream(4, 0, 300));
        assert_eq!(stream(4, 7, 300), stream(4, 7, 300));
        for (a, b) in [
            (stream(4, 0, 300), stream(5, 0, 300)),
            (stream(4, 0, 300), stream(4, 1, 300)),
        ] {
            assert_ne!(a.events, b.events);
            assert_ne!(a.fault_seed, b.fault_seed);
        }
    }

    #[test]
    fn check_rejects_a_truncated_journal_and_a_mutated_transcript() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test-daemon-check");
        std::fs::create_dir_all(&dir).unwrap();
        let files = Files::in_dir(&dir);
        let inputs = stream(9, 0, 300);
        let tracer = Tracer::off();
        let mut pass = Pass::start(&files, inputs.fault_seed, &mut Vec::new()).unwrap();
        for event in &inputs.events {
            step(&mut pass, event, &tracer).unwrap();
        }
        pass.persist(&files, &tracer).unwrap();
        let (journal, checkpoint) = files.read().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let checkpoint = checkpoint.as_deref();
        assert!(checkpoint.is_some());
        let end = Final::of(&pass.daemon);
        let seed = inputs.fault_seed;
        check(seed, &inputs.events, &journal, checkpoint, &end, &tracer).unwrap();

        let lines: Vec<&str> = journal.lines().collect();
        let truncated = lines[..lines.len() - 3].join("\n");
        let err = check(seed, &inputs.events, &truncated, checkpoint, &end, &tracer).unwrap_err();
        assert!(err.contains("journal holds"), "{err}");

        let mut mutated = end.clone();
        mutated.transcript = mutated.transcript.replacen("-> queued", "-> queuex", 1);
        assert_ne!(mutated.transcript, end.transcript);
        let err = check(
            seed,
            &inputs.events,
            &journal,
            checkpoint,
            &mutated,
            &tracer,
        )
        .unwrap_err();
        assert!(err.contains("transcript"), "{err}");

        let mut unreconciled = end.clone();
        unreconciled.queued += 1;
        assert!(check(
            seed,
            &inputs.events,
            &journal,
            checkpoint,
            &unreconciled,
            &tracer
        )
        .is_err());
    }
}
