//! Command implementations for the `pandia` CLI.

use std::process::ExitCode;
use std::time::Instant;

use pandia_core::{
    describe_machine, predict, CoScheduler, ExecContext, MachineDescription, Objective,
    PandiaError, PredictorConfig, ProfileConfig, Recommendation, RobustnessPolicy,
    WorkloadDescription, WorkloadProfiler,
};
use pandia_harness::{experiments::curves, metrics, report, MachineContext};
use pandia_sim::{FaultPlan, SimConfig, SimMachine};
use pandia_topology::{HasShape, MachineSpec, PlacementEnumerator};

use crate::args::{Command, PlanTarget, USAGE};

/// How the CLI profiles workloads: fault injection on the simulated
/// platform and the measurement-pipeline policy (`--faults`/`--robust`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileOpts {
    /// Fault-injection intensity in [0, 1] (0 = clean machine).
    pub faults: f64,
    /// Whether to profile with [`RobustnessPolicy::robust`].
    pub robust: bool,
}

impl ProfileOpts {
    fn policy(&self) -> RobustnessPolicy {
        if self.robust {
            RobustnessPolicy::robust()
        } else {
            RobustnessPolicy::naive()
        }
    }
}

/// Records a sweep's wall time and cache statistics into the telemetry
/// registry, and prints them to stderr unless `quiet`.
fn report_sweep(exec: &ExecContext, stage: &str, candidates: usize, start: Instant, quiet: bool) {
    let wall = start.elapsed().as_secs_f64();
    let stats = exec.cache_stats();
    pandia_obs::observe("cli.sweep_wall_ms", wall * 1e3);
    pandia_obs::gauge("exec.jobs", exec.jobs() as f64);
    if !quiet {
        eprintln!(
            "{stage}: {candidates} candidates in {wall:.3}s (jobs={}; cache {} hits / {} misses, {:.1}% hit rate)",
            exec.jobs(),
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate()
        );
    }
}

/// Prints a "wrote FILE" stderr note unless `quiet`.
fn note_wrote(path: &str, quiet: bool) {
    if !quiet {
        eprintln!("wrote {path}");
    }
}

/// Executes a parsed command under an execution context.
///
/// `quiet` silences the stderr progress notes (sweep timings, cache
/// stats, "wrote ..." lines); stdout results are unaffected.
///
/// Returns the process exit code. Every command exits 0 on success;
/// `status` additionally encodes daemon health (see [`Command::Status`]).
pub fn run(
    command: Command,
    exec: &ExecContext,
    quiet: bool,
    opts: ProfileOpts,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let _span = pandia_obs::span("cli", "run").arg("command", command_name(&command));
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Command::Machines => {
            println!("{:<22} {:>8} {:>12} {:>10} {:>9} {:>6}", "machine", "sockets", "cores/socket", "threads", "adaptive", "AVX");
            for spec in MachineSpec::evaluation_machines() {
                println!(
                    "{:<22} {:>8} {:>12} {:>10} {:>9} {:>6}",
                    spec.name,
                    spec.sockets,
                    spec.cores_per_socket,
                    spec.total_contexts(),
                    if spec.adaptive_llc { "yes" } else { "no" },
                    if spec.has_avx { "yes" } else { "no" },
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Workloads => {
            println!("{:<11} {:<10} {:<12} description", "workload", "suite", "set");
            for w in pandia_workloads::all_workloads() {
                println!(
                    "{:<11} {:<10} {:<12} {}",
                    w.name,
                    format!("{:?}", w.suite),
                    format!("{:?}", w.set),
                    w.description
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Describe { machine, output } => {
            let (_, description) = machine_context(&machine, opts)?;
            print_description(&description);
            if let Some(path) = output {
                std::fs::write(&path, description.to_json()?)?;
                note_wrote(&path, quiet);
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Profile { machine, workload, output } => {
            let (mut platform, description) = machine_context(&machine, opts)?;
            let entry = lookup_workload(&workload)?;
            let profiler = WorkloadProfiler::with_config(&description, profile_config(opts));
            let profile = profiler.profile(&mut platform, &entry.behavior, entry.name)?;
            println!("workload {} on {}", entry.name, description.machine);
            for run in &profile.runs {
                println!("  run {}: {:<42} r = {:.4}", run.run, run.label, run.relative);
            }
            let d = &profile.description;
            println!(
                "  t1 = {:.2}s  p = {:.4}  os = {:.5}  l = {:.2}  b = {:.3}",
                d.t1, d.parallel_fraction, d.inter_socket_overhead, d.load_balance, d.burstiness
            );
            println!(
                "  demands: instr {:.2}, L1 {:.1}, L2 {:.1}, L3 {:.1}, DRAM {:?}",
                d.demand.instr, d.demand.l1, d.demand.l2, d.demand.l3, d.demand.dram
            );
            let audit = &profile.audit;
            if !audit.is_clean() {
                println!(
                    "  audit: {} attempts, {} retries, {} lost repeats, {} degenerate, \
                     {} outliers rejected, {} solver fallbacks",
                    audit.attempts,
                    audit.retries,
                    audit.lost_repeats,
                    audit.degenerate_repeats,
                    audit.outliers_rejected,
                    audit.fallbacks
                );
            }
            if let Some(path) = output {
                std::fs::write(&path, d.to_json()?)?;
                note_wrote(&path, quiet);
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Predict { machine, workload, placement } => {
            let (mut platform, description) = machine_context(&machine, opts)?;
            let wd = profile_on(&mut platform, &description, &workload, opts)?;
            let concrete = placement.instantiate(&description.shape())?;
            let prediction =
                predict(&description, &wd, &concrete, &PredictorConfig::default())?;
            println!(
                "{} on {} at {placement}: predicted speedup {:.2} (Amdahl bound {:.2}), time {:.2}s",
                workload,
                description.machine,
                prediction.speedup,
                prediction.amdahl_speedup,
                prediction.predicted_time
            );
            let bottlenecks: std::collections::BTreeSet<String> = prediction
                .threads
                .iter()
                .filter_map(|t| t.bottleneck.map(|b| b.label()))
                .collect();
            if bottlenecks.is_empty() {
                println!("no resource is oversubscribed");
            } else {
                println!("bottlenecks: {}", bottlenecks.into_iter().collect::<Vec<_>>().join(", "));
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Best { machine, workload, tolerance } => {
            let (mut platform, description) = machine_context(&machine, opts)?;
            let wd = profile_on(&mut platform, &description, &workload, opts)?;
            let candidates = PlacementEnumerator::new(&description).all();
            let start = Instant::now();
            let rec = Recommendation::analyze_with(
                exec,
                &description,
                &wd,
                &candidates,
                tolerance,
                &PredictorConfig::default(),
            )?;
            report_sweep(exec, "placement sweep", candidates.len(), start, quiet);
            println!(
                "best predicted: {} ({} threads, speedup {:.2})",
                rec.best.placement, rec.best.n_threads, rec.best.speedup
            );
            println!(
                "use multiple sockets: {}; use SMT: {}",
                if rec.use_multiple_sockets { "yes" } else { "no" },
                if rec.use_smt { "yes" } else { "no" },
            );
            match rec.resource_saving {
                Some(saving) => println!(
                    "within {:.0}% of peak with {} threads on {} cores: {}",
                    100.0 * tolerance,
                    saving.n_threads,
                    saving.placement.cores_used(),
                    saving.placement
                ),
                None => println!("no smaller placement stays within the tolerance"),
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Plan { machine, workload, target } => {
            let (mut platform, description) = machine_context(&machine, opts)?;
            let wd = profile_on(&mut platform, &description, &workload, opts)?;
            let candidates = PlacementEnumerator::new(&description).all();
            let target = match target {
                PlanTarget::Time(t) => pandia_core::Target::MaxTime(t),
                PlanTarget::Speedup(s) => pandia_core::Target::MinSpeedup(s),
                PlanTarget::Fraction(f) => pandia_core::Target::FractionOfPeak(f),
            };
            let start = Instant::now();
            let plan = pandia_core::plan_with(
                exec,
                &description,
                &wd,
                &candidates,
                target,
                &PredictorConfig::default(),
            )?;
            report_sweep(exec, "planning sweep", candidates.len(), start, quiet);
            println!(
                "best achievable: {} ({} threads, {:.2}s predicted)",
                plan.best.placement, plan.best.n_threads, plan.best.predicted_time
            );
            match plan.placement {
                Some(p) => println!(
                    "target met by {} ({} threads on {} cores, {:.2}s predicted, {:.2}x headroom)",
                    p.placement,
                    p.n_threads,
                    p.placement.cores_used(),
                    p.predicted_time,
                    plan.headroom.unwrap_or(1.0)
                ),
                None => println!("target is NOT achievable on this machine"),
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Explore { machine, workload } => {
            let ctx = MachineContext::by_name(&machine)?;
            let entry = lookup_workload(&workload)?;
            let placements = ctx.enumerator().sampled(&ctx.spec, 8);
            let start = Instant::now();
            let curve = curves::workload_curve_with(exec, &ctx, &entry, &placements)?;
            report_sweep(exec, "explore sweep", placements.len(), start, quiet);
            println!("{}", report::ascii_curve(&curve, 100, 20));
            let stats = metrics::error_stats(&curve);
            println!(
                "error: mean {:.2}%, median {:.2}%; best-placement gap {:.2}%",
                stats.mean_error_pct,
                stats.median_error_pct,
                metrics::best_placement_gap(&curve)
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::CoSchedule { machine, first, second } => {
            let (mut platform, description) = machine_context(&machine, opts)?;
            let wd_a = profile_on(&mut platform, &description, &first, opts)?;
            let wd_b = profile_on(&mut platform, &description, &second, opts)?;
            let start = Instant::now();
            let schedule = CoScheduler::new(&description)
                .with_objective(Objective::Makespan)
                .with_exec(exec.clone())
                .schedule(&[&wd_a, &wd_b])?;
            report_sweep(exec, "co-schedule search", 2, start, quiet);
            println!("joint placement on {}:", description.machine);
            for (a, p) in schedule.assignments.iter().zip(&schedule.predictions) {
                println!(
                    "  {:<10} {:>2} threads over sockets {:?}{}  predicted {:.2}s",
                    a.workload,
                    a.n_threads,
                    a.threads_per_socket,
                    if a.smt_packed { " (SMT packed)" } else { "" },
                    p.predicted_time
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Submit { log, job, class, machines } => {
            let mut events = read_event_log(&log)?;
            events.push(pandia_daemon::Event::Submit { job: job.clone(), class, priority: 0 });
            let daemon = replay(&events, machines, exec)?;
            std::fs::write(&log, pandia_daemon::render_log(&events))?;
            note_wrote(&log, quiet);
            // Show what the daemon did with this submission: every
            // transcript line from the final event.
            let marker = format!("[{:04}]", events.len() - 1);
            for line in daemon.transcript().lines().filter(|l| l.starts_with(&marker)) {
                println!("{line}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Command::Status { log, machines, high_water } => {
            // Exit-code contract (scriptable health checks):
            //   0 = healthy, 1 = degraded (overload mode engaged),
            //   2 = unreachable (log missing, unreadable, or corrupt).
            let queue = match high_water {
                Some(mark) => pandia_daemon::QueuePolicy {
                    high_water: mark,
                    ..pandia_daemon::QueuePolicy::default()
                },
                None => pandia_daemon::QueuePolicy::default(),
            };
            let replayed = std::fs::read_to_string(&log)
                .map_err(|e| e.to_string())
                .and_then(|text| pandia_daemon::parse_log(&text).map_err(|e| e.to_string()))
                .and_then(|events| {
                    replay_with(&events, machines, exec, queue).map_err(|e| e.to_string())
                });
            let daemon = match replayed {
                Ok(daemon) => daemon,
                Err(e) => {
                    eprintln!("status: daemon log '{log}' unreachable: {e}");
                    return Ok(ExitCode::from(2));
                }
            };
            print!("{}", daemon.status_report());
            Ok(ExitCode::from(daemon.health()))
        }
        Command::Drain { log, machines } => {
            let mut events = read_event_log(&log)?;
            let mut daemon = replay(&events, machines, exec)?;
            // Persist the drain's own events so the log stays the single
            // source of truth.
            events.extend(daemon.drain()?);
            std::fs::write(&log, pandia_daemon::render_log(&events))?;
            note_wrote(&log, quiet);
            let audit = daemon.audit();
            println!(
                "drained: {} completed, {} failed, {} retries",
                audit.completed, audit.failed, audit.retries
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Reads a daemon event log, treating a missing file as an empty log.
fn read_event_log(path: &str) -> Result<Vec<pandia_daemon::Event>, Box<dyn std::error::Error>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(pandia_daemon::parse_log(&text)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(Box::new(e)),
    }
}

/// Replays an event log through a fresh daemon over a synthetic fleet.
fn replay(
    events: &[pandia_daemon::Event],
    machines: usize,
    exec: &ExecContext,
) -> Result<pandia_daemon::Daemon, Box<dyn std::error::Error>> {
    replay_with(events, machines, exec, pandia_daemon::QueuePolicy::default())
}

/// [`replay`] under an explicit queue policy (used by `status
/// --high-water` to judge health under a bounded queue).
fn replay_with(
    events: &[pandia_daemon::Event],
    machines: usize,
    exec: &ExecContext,
    queue: pandia_daemon::QueuePolicy,
) -> Result<pandia_daemon::Daemon, Box<dyn std::error::Error>> {
    let preset = pandia_daemon::synthetic(machines);
    let config = pandia_daemon::DaemonConfig {
        exec: exec.clone(),
        queue,
        ..pandia_daemon::DaemonConfig::default()
    };
    let mut daemon = pandia_daemon::Daemon::new(preset.machines, preset.catalog, config)?;
    daemon.run(events)?;
    Ok(daemon)
}

/// Stable command label used to tag the top-level CLI span.
fn command_name(command: &Command) -> &'static str {
    match command {
        Command::Help => "help",
        Command::Machines => "machines",
        Command::Workloads => "workloads",
        Command::Describe { .. } => "describe",
        Command::Profile { .. } => "profile",
        Command::Predict { .. } => "predict",
        Command::Best { .. } => "best",
        Command::Plan { .. } => "plan",
        Command::Explore { .. } => "explore",
        Command::CoSchedule { .. } => "coschedule",
        Command::Submit { .. } => "submit",
        Command::Status { .. } => "status",
        Command::Drain { .. } => "drain",
    }
}

fn machine_context(
    name: &str,
    opts: ProfileOpts,
) -> Result<(SimMachine, MachineDescription), Box<dyn std::error::Error>> {
    let spec = match name.to_ascii_lowercase().as_str() {
        "x5-2" => MachineSpec::x5_2(),
        "x4-2" => MachineSpec::x4_2(),
        "x3-2" => MachineSpec::x3_2(),
        "x2-4" => MachineSpec::x2_4(),
        other => {
            return Err(Box::new(PandiaError::Mismatch {
                reason: format!("unknown machine '{other}' (try x5-2, x4-2, x3-2, x2-4)"),
            }))
        }
    };
    // The machine description is always measured on a clean machine — in
    // practice it is generated once when the machine is commissioned.
    // `--faults` only afflicts the platform handed back for workload
    // profiling.
    let mut clean = SimMachine::new(spec.clone());
    let description = describe_machine(&mut clean)?;
    let platform = if opts.faults > 0.0 {
        SimMachine::with_config(
            spec,
            SimConfig::default().with_faults(FaultPlan::with_intensity(opts.faults)),
        )
    } else {
        clean
    };
    Ok((platform, description))
}

/// Profiling configuration for the CLI's `--faults`/`--robust` options.
fn profile_config(opts: ProfileOpts) -> ProfileConfig {
    ProfileConfig { robustness: opts.policy(), ..ProfileConfig::default() }
}

fn lookup_workload(name: &str) -> Result<pandia_workloads::WorkloadEntry, Box<dyn std::error::Error>> {
    pandia_workloads::by_name(name).ok_or_else(|| {
        Box::new(PandiaError::Mismatch {
            reason: format!("unknown workload '{name}' (see `pandiactl workloads`)"),
        }) as Box<dyn std::error::Error>
    })
}

fn profile_on(
    platform: &mut SimMachine,
    description: &MachineDescription,
    workload: &str,
    opts: ProfileOpts,
) -> Result<WorkloadDescription, Box<dyn std::error::Error>> {
    let entry = lookup_workload(workload)?;
    let profiler = WorkloadProfiler::with_config(description, profile_config(opts));
    Ok(profiler.profile(platform, &entry.behavior, entry.name)?.description)
}

fn print_description(d: &MachineDescription) {
    println!("machine description: {}", d.machine);
    println!(
        "  shape: {} sockets x {} cores x {} threads",
        d.shape.sockets, d.shape.cores_per_socket, d.shape.threads_per_core
    );
    println!("  core instruction rate : {:>8.2}", d.capacities.core_issue);
    println!("  SMT co-schedule factor: {:>8.2}", d.smt_coschedule_factor);
    println!("  L1 bandwidth / core   : {:>8.1}", d.capacities.l1_per_core);
    println!("  L2 bandwidth / core   : {:>8.1}", d.capacities.l2_per_core);
    println!("  L3 bandwidth / link   : {:>8.1}", d.capacities.l3_per_link);
    println!("  L3 aggregate / socket : {:>8.1}", d.capacities.l3_aggregate);
    println!("  DRAM / socket         : {:>8.1}", d.capacities.dram_per_socket);
    println!("  interconnect / link   : {:>8.1}", d.capacities.interconnect_per_link);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drained_log_replays_as_drained_only_at_the_drain_fleet_size() {
        let exec = ExecContext::serial();
        let log = std::env::temp_dir().join(format!("pandiactl-drain-{}.jsonl", std::process::id()));
        let log = log.to_str().expect("temp path is UTF-8").to_string();
        // Eight jobs on two synthetic machines: six run and two queue.
        let submits: Vec<pandia_daemon::Event> = (0..8)
            .map(|i| pandia_daemon::Event::Submit { job: format!("j{i}"), class: "mem".into(), priority: 0 })
            .collect();
        std::fs::write(&log, pandia_daemon::render_log(&submits)).unwrap();
        let mut drained = replay(&submits, 2, &exec).unwrap();
        drained.drain().unwrap();
        run(Command::Drain { log: log.clone(), machines: 2 }, &exec, true, ProfileOpts::default()).unwrap();
        let events = read_event_log(&log).unwrap();
        std::fs::remove_file(&log).unwrap();

        let same = replay(&events, 2, &exec).unwrap();
        assert!(same.live_jobs().is_empty(), "{:?}", same.live_jobs());
        assert_eq!(same.audit(), drained.audit());
        // On three machines all eight run, so the two `fail`s meant to
        // cancel queued jobs hit running ones, which re-queue as retries.
        let larger = replay(&events, 3, &exec).unwrap();
        assert_eq!(larger.live_jobs(), ["j6", "j7"]);
        assert_eq!(larger.audit().retries, 2);
    }
}
