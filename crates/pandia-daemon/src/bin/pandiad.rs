//! `pandiad` — replay or generate a placement-event stream through the
//! daemon and report the transcript, audit, and telemetry.
//!
//! ```text
//! pandiad --replay events.jsonl [options]
//! pandiad --generate 1000 --seed 7 [options]
//!
//!   --replay FILE         replay a pandia-eventlog-v1 JSONL file
//!   --generate N          generate a seeded stream of N events
//!   --seed S              stream/fault seed (default 7)
//!   --synthetic N         use N synthetic machines (default 4)
//!   --machines a,b,..     real machine presets (x5-2, x4-2, x3-2, x2-4)
//!   --classes a,b,..      workload classes for --machines (default EP,CG,FT)
//!   --batch               from-scratch batch re-solve (oracle mode)
//!   --faults INTENSITY    arm the fault plan (0.0..1.0)
//!   --retries N           placement attempts per job (default 3)
//!   --drift               enable drift detection (reactive policy)
//!   --jobs N              co-schedule search workers (default 1)
//!   --quiet               suppress the transcript on stdout
//!   --log-out FILE        write the event stream as a replayable JSONL log
//!   --transcript-out FILE write the transcript to a file
//!   --trace-out FILE      write a Chrome trace at exit
//!   --metrics-out FILE    write metrics JSONL at exit
//!   --events-out FILE     stream span events live while running
//!   --metrics-interval N  emit a pandia-metrics-snapshot-v1 heartbeat
//!                         every N events (plus one final snapshot)
//!   --snapshots-out FILE  append heartbeats to FILE (default: stderr)
//!
//! Durability and overload control:
//!
//!   --journal FILE        write-ahead journal: every event is appended
//!                         (and batch-fsync'd) before it is applied
//!   --journal-sync N      fsync the journal every N records (default 16)
//!   --checkpoint FILE     write pandia-checkpoint-v2 state snapshots
//!                         (atomic tmp+rename)
//!   --checkpoint-interval N  checkpoint every N events (default 64)
//!   --recover             restore from --checkpoint + --journal tail,
//!                         then continue the stream from where it left off
//!   --crash-at N          abort() just after journaling event N — the
//!                         deterministic SIGKILL for recovery tests
//!   --queue-depth N       admission control: reject submissions once N
//!                         jobs are queued
//!   --high-water N        shed down to N queued jobs; crossing N enters
//!                         degraded mode (memo capacity halves)
//!   --deadline N          shed queued jobs waiting more than N events
//!   --backoff-base N      first faulted-retry delay, in events (default 1)
//!   --backoff-cap N       max backoff delay, in events (default 8)
//! ```

use std::process::ExitCode;

use pandia_core::{DriftPolicy, ExecContext};
use pandia_daemon::{
    generate_events, parse_journal, parse_log, presets, write_checkpoint, Daemon, DaemonConfig,
    FleetPreset, Journal, QueuePolicy, RetryPolicy,
};
use pandia_sim::FaultPlan;

/// Parsed command line.
struct Options {
    replay: Option<String>,
    generate: Option<usize>,
    seed: u64,
    synthetic: usize,
    machines: Option<Vec<String>>,
    classes: Vec<String>,
    batch: bool,
    faults: f64,
    retries: u32,
    drift: bool,
    jobs: usize,
    quiet: bool,
    log_out: Option<String>,
    transcript_out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    metrics_interval: Option<usize>,
    snapshots_out: Option<String>,
    journal: Option<String>,
    journal_sync: usize,
    checkpoint: Option<String>,
    checkpoint_interval: usize,
    recover: bool,
    crash_at: Option<usize>,
    queue_depth: Option<usize>,
    high_water: Option<usize>,
    deadline: Option<u64>,
    backoff_base: Option<u64>,
    backoff_cap: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        replay: None,
        generate: None,
        seed: 7,
        synthetic: 4,
        machines: None,
        classes: vec!["EP".into(), "CG".into(), "FT".into()],
        batch: false,
        faults: 0.0,
        retries: 3,
        drift: false,
        jobs: 1,
        quiet: false,
        log_out: None,
        transcript_out: None,
        trace_out: None,
        metrics_out: None,
        events_out: None,
        metrics_interval: None,
        snapshots_out: None,
        journal: None,
        journal_sync: 16,
        checkpoint: None,
        checkpoint_interval: 64,
        recover: false,
        crash_at: None,
        queue_depth: None,
        high_water: None,
        deadline: None,
        backoff_base: None,
        backoff_cap: None,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--replay" => {
                opts.replay = Some(value(args, i, "--replay")?);
                i += 2;
            }
            "--generate" => {
                let v = value(args, i, "--generate")?;
                opts.generate =
                    Some(v.parse().map_err(|_| format!("bad --generate '{v}'"))?);
                i += 2;
            }
            "--seed" => {
                let v = value(args, i, "--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
                i += 2;
            }
            "--synthetic" => {
                let v = value(args, i, "--synthetic")?;
                opts.synthetic = v.parse().map_err(|_| format!("bad --synthetic '{v}'"))?;
                i += 2;
            }
            "--machines" => {
                let v = value(args, i, "--machines")?;
                opts.machines = Some(v.split(',').map(|s| s.trim().to_string()).collect());
                i += 2;
            }
            "--classes" => {
                let v = value(args, i, "--classes")?;
                opts.classes = v.split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--batch" => {
                opts.batch = true;
                i += 1;
            }
            "--faults" => {
                let v = value(args, i, "--faults")?;
                opts.faults = v.parse().map_err(|_| format!("bad --faults '{v}'"))?;
                i += 2;
            }
            "--retries" => {
                let v = value(args, i, "--retries")?;
                opts.retries = v.parse().map_err(|_| format!("bad --retries '{v}'"))?;
                i += 2;
            }
            "--drift" => {
                opts.drift = true;
                i += 1;
            }
            "--jobs" | "-j" => {
                let v = value(args, i, "--jobs")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs '{v}'"))?;
                i += 2;
            }
            "--quiet" => {
                opts.quiet = true;
                i += 1;
            }
            "--log-out" => {
                opts.log_out = Some(value(args, i, "--log-out")?);
                i += 2;
            }
            "--transcript-out" => {
                opts.transcript_out = Some(value(args, i, "--transcript-out")?);
                i += 2;
            }
            "--trace-out" => {
                opts.trace_out = Some(value(args, i, "--trace-out")?);
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(value(args, i, "--metrics-out")?);
                i += 2;
            }
            "--events-out" => {
                opts.events_out = Some(value(args, i, "--events-out")?);
                i += 2;
            }
            "--metrics-interval" => {
                let v = value(args, i, "--metrics-interval")?;
                let n: usize =
                    v.parse().map_err(|_| format!("bad --metrics-interval '{v}'"))?;
                if n == 0 {
                    return Err("--metrics-interval must be at least 1".into());
                }
                opts.metrics_interval = Some(n);
                i += 2;
            }
            "--snapshots-out" => {
                opts.snapshots_out = Some(value(args, i, "--snapshots-out")?);
                i += 2;
            }
            "--journal" => {
                opts.journal = Some(value(args, i, "--journal")?);
                i += 2;
            }
            "--journal-sync" => {
                let v = value(args, i, "--journal-sync")?;
                opts.journal_sync =
                    v.parse().map_err(|_| format!("bad --journal-sync '{v}'"))?;
                i += 2;
            }
            "--checkpoint" => {
                opts.checkpoint = Some(value(args, i, "--checkpoint")?);
                i += 2;
            }
            "--checkpoint-interval" => {
                let v = value(args, i, "--checkpoint-interval")?;
                let n: usize =
                    v.parse().map_err(|_| format!("bad --checkpoint-interval '{v}'"))?;
                if n == 0 {
                    return Err("--checkpoint-interval must be at least 1".into());
                }
                opts.checkpoint_interval = n;
                i += 2;
            }
            "--recover" => {
                opts.recover = true;
                i += 1;
            }
            "--crash-at" => {
                let v = value(args, i, "--crash-at")?;
                opts.crash_at = Some(v.parse().map_err(|_| format!("bad --crash-at '{v}'"))?);
                i += 2;
            }
            "--queue-depth" => {
                let v = value(args, i, "--queue-depth")?;
                opts.queue_depth =
                    Some(v.parse().map_err(|_| format!("bad --queue-depth '{v}'"))?);
                i += 2;
            }
            "--high-water" => {
                let v = value(args, i, "--high-water")?;
                opts.high_water =
                    Some(v.parse().map_err(|_| format!("bad --high-water '{v}'"))?);
                i += 2;
            }
            "--deadline" => {
                let v = value(args, i, "--deadline")?;
                opts.deadline = Some(v.parse().map_err(|_| format!("bad --deadline '{v}'"))?);
                i += 2;
            }
            "--backoff-base" => {
                let v = value(args, i, "--backoff-base")?;
                opts.backoff_base =
                    Some(v.parse().map_err(|_| format!("bad --backoff-base '{v}'"))?);
                i += 2;
            }
            "--backoff-cap" => {
                let v = value(args, i, "--backoff-cap")?;
                opts.backoff_cap =
                    Some(v.parse().map_err(|_| format!("bad --backoff-cap '{v}'"))?);
                i += 2;
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.replay.is_none() && opts.generate.is_none() {
        return Err("need --replay FILE or --generate N".into());
    }
    Ok(opts)
}

/// Where heartbeat snapshot lines go: an appended file or stderr.
enum SnapshotSink {
    File(std::io::BufWriter<std::fs::File>),
    Stderr,
}

impl SnapshotSink {
    fn emit(&mut self, line: &str) -> Result<(), String> {
        use std::io::Write;
        match self {
            // Flush per line so a long-lived daemon's heartbeats are
            // tailable, not stuck in the writer's buffer.
            SnapshotSink::File(w) => writeln!(w, "{line}")
                .and_then(|()| w.flush())
                .map_err(|e| format!("--snapshots-out: {e}")),
            SnapshotSink::Stderr => {
                eprintln!("{line}");
                Ok(())
            }
        }
    }
}

fn run(opts: &Options) -> Result<(), String> {
    // --metrics-interval installs the recorder too: the heartbeat's
    // latency quantiles come from the live telemetry registry.
    let telemetry = opts.trace_out.is_some()
        || opts.metrics_out.is_some()
        || opts.events_out.is_some()
        || opts.metrics_interval.is_some();
    if telemetry {
        pandia_obs::install();
    }
    let mut snapshots = match (&opts.metrics_interval, &opts.snapshots_out) {
        (None, _) => None,
        (Some(_), None) => Some(SnapshotSink::Stderr),
        (Some(_), Some(path)) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot open --snapshots-out {path}: {e}"))?;
            Some(SnapshotSink::File(std::io::BufWriter::new(file)))
        }
    };
    let mut stream = match &opts.events_out {
        Some(path) => Some(
            pandia_obs::EventsStream::create(path)
                .map_err(|e| format!("cannot open --events-out {path}: {e}"))?,
        ),
        None => None,
    };

    let preset: FleetPreset = match &opts.machines {
        Some(names) => {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let classes: Vec<&str> = opts.classes.iter().map(String::as_str).collect();
            presets::profiled(&names, &classes).map_err(|e| format!("preset: {e:?}"))?
        }
        None => presets::synthetic(opts.synthetic),
    };

    let events = match (&opts.replay, opts.generate) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_log(&text).map_err(|e| format!("parse {path}: {e:?}"))?
        }
        (None, Some(n)) => {
            let classes: Vec<&str> = preset.catalog.keys().map(String::as_str).collect();
            generate_events(opts.seed, n, &classes)
        }
        (None, None) => unreachable!("parse_args enforces a source"),
    };
    if let Some(path) = &opts.log_out {
        std::fs::write(path, pandia_daemon::render_log(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let mut queue = QueuePolicy::default();
    if let Some(depth) = opts.queue_depth {
        queue.max_depth = depth;
    }
    if let Some(high) = opts.high_water {
        queue.high_water = high;
    }
    queue.deadline = opts.deadline;
    let mut retry = RetryPolicy::default();
    if let Some(base) = opts.backoff_base {
        retry.backoff_base = base;
    }
    if let Some(cap) = opts.backoff_cap {
        retry.backoff_cap = cap;
    }
    let config = DaemonConfig {
        seed: opts.seed,
        faults: if opts.faults > 0.0 {
            FaultPlan::with_intensity(opts.faults)
        } else {
            FaultPlan::none()
        },
        max_attempts: opts.retries,
        drift: if opts.drift { DriftPolicy::reactive() } else { DriftPolicy::default() },
        incremental: !opts.batch,
        exec: ExecContext::new(opts.jobs),
        queue,
        retry,
        ..DaemonConfig::default()
    };

    // Recovery: newest checkpoint (if any), then the journal tail past
    // it, then the rest of the driving stream. The daemon's determinism
    // makes the journal tail and the stream interchangeable for the
    // events both carry — replay simply starts from the restored clock.
    let mut daemon = match (opts.recover, &opts.checkpoint) {
        (true, Some(path)) if std::path::Path::new(path).exists() => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --checkpoint {path}: {e}"))?;
            Daemon::restore(preset.machines, preset.catalog, config, &text)
                .map_err(|e| format!("restore {path}: {e:?}"))?
        }
        _ => Daemon::new(preset.machines, preset.catalog, config)
            .map_err(|e| format!("{e:?}"))?,
    };
    if opts.recover {
        if let Some(path) = &opts.journal {
            if std::path::Path::new(path).exists() {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read --journal {path}: {e}"))?;
                for (seq, event) in
                    parse_journal(&text).map_err(|e| format!("journal {path}: {e:?}"))?
                {
                    if seq < daemon.clock() {
                        continue; // already covered by the checkpoint
                    }
                    if seq != daemon.clock() {
                        return Err(format!(
                            "journal {path}: tail starts at seq {seq}, daemon clock is {}",
                            daemon.clock()
                        ));
                    }
                    daemon.apply(&event).map_err(|e| format!("journal seq {seq}: {e:?}"))?;
                }
            }
        }
    }

    // (Re)create the journal after recovery: the old journal's work is
    // folded into the fresh checkpoint below, so the new journal starts
    // clean rather than appending past a possibly-torn tail.
    let mut journal = match &opts.journal {
        Some(path) => Some(
            Journal::create(std::path::Path::new(path), opts.journal_sync)
                .map_err(|e| format!("cannot create --journal {path}: {e}"))?,
        ),
        None => None,
    };
    let take_checkpoint = |daemon: &mut Daemon| -> Result<(), String> {
        if let Some(path) = &opts.checkpoint {
            let seq = daemon.clock();
            write_checkpoint(std::path::Path::new(path), &daemon.checkpoint())
                .map_err(|e| format!("cannot write --checkpoint {path}: {e}"))?;
            daemon.note_checkpoint(seq);
        }
        Ok(())
    };
    if opts.recover {
        take_checkpoint(&mut daemon)?;
    }

    let start = daemon.clock() as usize;
    if start > events.len() {
        return Err(format!(
            "recovered clock {start} is past the {}-event stream — wrong --replay file?",
            events.len()
        ));
    }
    for (i, event) in events.iter().enumerate().skip(start) {
        if let Some(journal) = journal.as_mut() {
            journal
                .append(daemon.clock(), event)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        if opts.crash_at == Some(i) {
            // The deterministic SIGKILL: skip Drop handlers and exit
            // without syncing, exactly like a kill -9 after the
            // write-ahead append. Recovery must reach the same state the
            // uninterrupted run does.
            eprintln!("pandiad: --crash-at {i}: aborting");
            std::process::abort();
        }
        daemon.apply(event).map_err(|e| format!("event {i}: {e:?}"))?;
        if daemon.clock() % opts.checkpoint_interval as u64 == 0 {
            take_checkpoint(&mut daemon)?;
        }
        if let (Some(stream), Some(recorder)) = (stream.as_mut(), pandia_obs::global()) {
            stream.poll(recorder).map_err(|e| format!("--events-out: {e}"))?;
        }
        if let (Some(sink), Some(interval)) = (snapshots.as_mut(), opts.metrics_interval) {
            if (i + 1) % interval == 0 {
                sink.emit(&daemon.snapshot_line())?;
            }
        }
    }
    if let Some(journal) = journal.as_mut() {
        journal.sync().map_err(|e| format!("journal sync: {e}"))?;
    }
    take_checkpoint(&mut daemon)?;
    // A final heartbeat so short streams (fewer events than the
    // interval) still produce at least one snapshot.
    if let Some(sink) = snapshots.as_mut() {
        sink.emit(&daemon.snapshot_line())?;
    }

    if !opts.quiet {
        print!("{}", daemon.transcript());
        let audit = daemon.audit();
        let stats = daemon.fleet_stats();
        println!(
            "audit: events={} submitted={} placed={} completed={} failed={} retries={} \
             faulted={} reprofiles={} rejected={} shed={}",
            audit.events,
            audit.submitted,
            audit.placed,
            audit.completed,
            audit.failed,
            audit.retries,
            audit.faulted,
            audit.reprofiles,
            audit.rejected,
            audit.shed
        );
        println!(
            "fleet: resolves={} skipped={} ({:.1}% skipped)",
            stats.resolves,
            stats.resolves_skipped,
            100.0 * stats.resolves_skipped as f64
                / (stats.resolves + stats.resolves_skipped).max(1) as f64
        );
    }
    if let Some(path) = &opts.transcript_out {
        std::fs::write(path, daemon.transcript())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(recorder) = pandia_obs::global() {
        if let Some(stream) = stream.as_mut() {
            stream.poll(recorder).map_err(|e| format!("--events-out: {e}"))?;
        }
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, recorder.chrome_trace_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &opts.metrics_out {
            std::fs::write(path, recorder.metrics_jsonl())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pandiad: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            if e == "help" {
                eprintln!("see crate docs: pandiad --replay FILE | --generate N [options]");
                ExitCode::SUCCESS
            } else {
                eprintln!("pandiad: {e}");
                ExitCode::from(2)
            }
        }
    }
}
