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
//!   --faults INTENSITY    arm the fault plan (0.0..1.0); a job gets 3
//!                         attempts, faulted ones back off 1, 2, 4, 8 events
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
//! ```

use std::io::Write;
use std::process::ExitCode;

use pandia_core::{DriftPolicy, ExecContext};
use pandia_daemon::{
    generate_events, parse_log, presets, write_checkpoint, Daemon, DaemonConfig, FleetPreset,
    Journal, QueuePolicy,
};
use pandia_sim::FaultPlan;

/// Parsed command line.
#[derive(Default)]
struct Options {
    replay: Option<String>,
    generate: Option<usize>,
    seed: u64,
    synthetic: usize,
    machines: Option<Vec<String>>,
    classes: Vec<String>,
    batch: bool,
    faults: f64,
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
    queue: QueuePolicy,
}

/// Takes the value that follows `flag`.
fn value(rest: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    rest.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
}

/// Takes and parses the value that follows `flag`.
fn parsed<T: std::str::FromStr>(
    rest: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(rest, flag)?;
    v.parse().map_err(|_| format!("bad {flag} '{v}'"))
}

/// Takes a count that follows `flag` and must be at least 1.
fn positive(rest: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    match parsed(rest, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 7,
        synthetic: 4,
        classes: vec!["EP".into(), "CG".into(), "FT".into()],
        jobs: 1,
        journal_sync: 16,
        checkpoint_interval: 64,
        ..Options::default()
    };
    let list = |v: String| v.split(',').map(|s| s.trim().to_string()).collect();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let r = &mut rest;
        match flag.as_str() {
            "--replay" => opts.replay = Some(value(r, flag)?),
            "--generate" => opts.generate = Some(parsed(r, flag)?),
            "--seed" => opts.seed = parsed(r, flag)?,
            "--synthetic" => opts.synthetic = parsed(r, flag)?,
            "--machines" => opts.machines = Some(list(value(r, flag)?)),
            "--classes" => opts.classes = list(value(r, flag)?),
            "--batch" => opts.batch = true,
            "--faults" => opts.faults = parsed(r, flag)?,
            "--drift" => opts.drift = true,
            "--jobs" | "-j" => opts.jobs = parsed(r, "--jobs")?,
            "--quiet" => opts.quiet = true,
            "--log-out" => opts.log_out = Some(value(r, flag)?),
            "--transcript-out" => opts.transcript_out = Some(value(r, flag)?),
            "--trace-out" => opts.trace_out = Some(value(r, flag)?),
            "--metrics-out" => opts.metrics_out = Some(value(r, flag)?),
            "--events-out" => opts.events_out = Some(value(r, flag)?),
            "--metrics-interval" => opts.metrics_interval = Some(positive(r, flag)?),
            "--snapshots-out" => opts.snapshots_out = Some(value(r, flag)?),
            "--journal" => opts.journal = Some(value(r, flag)?),
            "--journal-sync" => opts.journal_sync = parsed(r, flag)?,
            "--checkpoint" => opts.checkpoint = Some(value(r, flag)?),
            "--checkpoint-interval" => opts.checkpoint_interval = positive(r, flag)?,
            "--recover" => opts.recover = true,
            "--crash-at" => opts.crash_at = Some(parsed(r, flag)?),
            "--queue-depth" => opts.queue.max_depth = parsed(r, flag)?,
            "--high-water" => opts.queue.high_water = parsed(r, flag)?,
            "--deadline" => opts.queue.deadline = Some(parsed(r, flag)?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if opts.replay.is_none() && opts.generate.is_none() {
        return Err("need --replay FILE or --generate N".into());
    }
    Ok(opts)
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
    // Heartbeats go to --snapshots-out or stderr, flushed per line so a
    // long-lived daemon's heartbeats are tailable.
    let mut snapshots: Option<Box<dyn Write>> = match &opts.snapshots_out {
        _ if opts.metrics_interval.is_none() => None,
        None => Some(Box::new(std::io::stderr())),
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot open --snapshots-out {path}: {e}"))?;
            Some(Box::new(std::io::BufWriter::new(file)))
        }
    };
    let emit = |sink: &mut Box<dyn Write>, daemon: &Daemon| {
        writeln!(sink, "{}", daemon.snapshot_line())
            .and_then(|()| sink.flush())
            .map_err(|e| format!("--snapshots-out: {e}"))
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

    let config = DaemonConfig {
        seed: opts.seed,
        faults: if opts.faults > 0.0 {
            FaultPlan::with_intensity(opts.faults)
        } else {
            FaultPlan::none()
        },
        drift: if opts.drift { DriftPolicy::reactive() } else { DriftPolicy::default() },
        incremental: !opts.batch,
        exec: ExecContext::new(opts.jobs),
        queue: opts.queue,
        ..DaemonConfig::default()
    };

    // Recovery: the newest checkpoint and the journal tail past it, when
    // their files exist, then the rest of the driving stream. The
    // daemon's determinism makes the journal tail and the stream
    // interchangeable for the events both carry — replay simply starts
    // from the recovered clock.
    let mut daemon = if opts.recover {
        let read = |path: &Option<String>, flag: &str| match path {
            Some(path) if std::path::Path::new(path).exists() => std::fs::read_to_string(path)
                .map(Some)
                .map_err(|e| format!("cannot read {flag} {path}: {e}")),
            _ => Ok(None),
        };
        let checkpoint = read(&opts.checkpoint, "--checkpoint")?;
        let journal = read(&opts.journal, "--journal")?;
        let (checkpoint, journal) = (checkpoint.as_deref(), journal.as_deref());
        Daemon::recover(preset.machines, preset.catalog, config, checkpoint, journal)
            .map_err(|e| format!("recover: {e:?}"))?
    } else {
        Daemon::new(preset.machines, preset.catalog, config).map_err(|e| format!("{e:?}"))?
    };

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
                emit(sink, &daemon)?;
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
        emit(sink, &daemon)?;
    }

    if !opts.quiet {
        print!("{}", daemon.transcript());
        let audit: Vec<String> =
            daemon.audit().fields().iter().map(|(name, n)| format!("{name}={n}")).collect();
        println!("audit: {}", audit.join(" "));
        let stats = daemon.fleet_stats();
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
    match parse_args(&args).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == "help" => {
            eprintln!("see crate docs: pandiad --replay FILE | --generate N [options]");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pandiad: {e}");
            ExitCode::from(2)
        }
    }
}
