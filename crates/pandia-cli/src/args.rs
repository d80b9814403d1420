//! Hand-rolled argument parsing for the `pandia` CLI.

use pandia_topology::CanonicalPlacement;

/// Usage text shown on parse errors and `pandiactl help`.
pub const USAGE: &str = "\
usage: pandiactl [--jobs N] [--no-cache] [--quiet] [--trace-out FILE]
                 [--metrics-out FILE] [--events-out FILE] <command> [args]

global options:
  --jobs N, -j N     worker threads for placement sweeps (default: all
                     hardware threads; results are identical for any N)
  --no-cache         disable prediction memoization
  --quiet            suppress stderr progress notes (timings, cache
                     stats, 'wrote ...' lines); results are unaffected
  --trace-out FILE   write a Chrome trace-event JSON (chrome://tracing,
                     Perfetto) of the run's spans when the command exits
  --metrics-out FILE write the metrics registry as JSONL on exit
  --events-out FILE  stream raw span events to a JSONL file live while
                     the command runs (tail -f-able; schema
                     pandia-events-v1)
  --faults F         inject simulator faults at intensity F in [0,1]
                     during workload profiling runs (transient failures,
                     counter dropout, interference bursts, noise regimes)
  --robust           profile with the robust measurement pipeline:
                     bounded retries, median/MAD outlier rejection, and
                     closed-form solver fallback

commands:
  machines                         list machine presets
  workloads                        list registered workloads
  describe <machine> [-o FILE]     measure a machine description
  profile <machine> <workload> [-o FILE]
                                   run the six profiling runs
  predict <machine> <workload> -p PLACEMENT
                                   predict one placement, e.g. -p \"2,1|1\"
  best <machine> <workload> [--tolerance F]
                                   best + resource-saving placement
  plan <machine> <workload> (--time T | --speedup S | --fraction F)
                                   smallest placement meeting a target
  explore <machine> <workload>     measured-vs-predicted curve (simulated)
  coschedule <machine> <w1> <w2>   joint placement for two workloads
  submit <log> <job> <class> [-n MACHINES]
                                   append a submission to a daemon event
                                   log and show where it lands
  status <log> [-n MACHINES] [--high-water N]
                                   replay a daemon event log and show
                                   job/queue/fleet status; exits 0 when
                                   healthy, 1 when degraded (overload
                                   mode; --high-water bounds the replay
                                   queue), 2 when the log is unreachable
  drain <log> [-n MACHINES]        cancel every queued job and complete
                                   every running one in the log (appends
                                   the fail and completion events); the
                                   log replays as drained at this -n only
  help                             show this message

daemon logs use the pandia-eventlog-v1 JSONL schema (see pandiad for
replay/generation against larger fleets and real machine presets).

PLACEMENT syntax: per-socket groups separated by '|', per-core thread
counts separated by ','. \"2,1|1\" = one core with 2 threads and one with
1 on the first socket, one single-thread core on the second.";

/// A capacity-planning target as parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanTarget {
    /// `--time T`: finish within T seconds.
    Time(f64),
    /// `--speedup S`: achieve at least S x over single-thread.
    Speedup(f64),
    /// `--fraction F`: stay within F of peak performance.
    Fraction(f64),
}

/// Global execution flags, shared by every command.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecFlags {
    /// Worker threads for placement sweeps (`None` = all hardware
    /// threads).
    pub jobs: Option<usize>,
    /// Whether prediction memoization is enabled.
    pub cache: bool,
    /// Whether stderr progress notes are suppressed (`--quiet`).
    pub quiet: bool,
    /// Chrome trace-event JSON output path (`--trace-out FILE`).
    pub trace_out: Option<String>,
    /// Metrics-registry JSONL output path (`--metrics-out FILE`).
    pub metrics_out: Option<String>,
    /// Live span-event JSONL stream path (`--events-out FILE`).
    pub events_out: Option<String>,
    /// Fault-injection intensity for profiling runs (`--faults F`,
    /// 0 = none).
    pub faults: f64,
    /// Whether profiling uses the robust measurement pipeline
    /// (`--robust`).
    pub robust: bool,
}

impl Default for ExecFlags {
    fn default() -> Self {
        Self {
            jobs: None,
            cache: true,
            quiet: false,
            trace_out: None,
            metrics_out: None,
            events_out: None,
            faults: 0.0,
            robust: false,
        }
    }
}

/// Strips the global `--jobs N` / `-j N` / `--no-cache` / `--quiet` /
/// `--trace-out FILE` / `--metrics-out FILE` flags out of argv before
/// command parsing (the command parsers treat every `-flag` as taking a
/// value, so global flags must come out first).
pub fn extract_exec_flags(argv: &[String]) -> Result<(Vec<String>, ExecFlags), String> {
    let mut flags = ExecFlags::default();
    let mut rest = Vec::with_capacity(argv.len());
    let mut i = 0;
    let value_of = |argv: &[String], i: usize| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("option {} requires a value", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--jobs" | "-j" => {
                let value = value_of(argv, i)?;
                let jobs = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid worker count '{value}' (expected >= 1)"))?;
                flags.jobs = Some(jobs);
                i += 2;
            }
            "--no-cache" => {
                flags.cache = false;
                i += 1;
            }
            "--quiet" => {
                flags.quiet = true;
                i += 1;
            }
            "--trace-out" => {
                flags.trace_out = Some(value_of(argv, i)?);
                i += 2;
            }
            "--metrics-out" => {
                flags.metrics_out = Some(value_of(argv, i)?);
                i += 2;
            }
            "--events-out" => {
                flags.events_out = Some(value_of(argv, i)?);
                i += 2;
            }
            "--faults" => {
                let value = value_of(argv, i)?;
                let intensity = value
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or_else(|| {
                        format!("invalid fault intensity '{value}' (expected 0..1)")
                    })?;
                flags.faults = intensity;
                i += 2;
            }
            "--robust" => {
                flags.robust = true;
                i += 1;
            }
            _ => {
                rest.push(argv[i].clone());
                i += 1;
            }
        }
    }
    Ok((rest, flags))
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pandiactl machines`
    Machines,
    /// `pandiactl workloads`
    Workloads,
    /// `pandiactl describe <machine> [-o FILE]`
    Describe {
        /// Machine preset name.
        machine: String,
        /// Optional JSON output path.
        output: Option<String>,
    },
    /// `pandiactl profile <machine> <workload> [-o FILE]`
    Profile {
        /// Machine preset name.
        machine: String,
        /// Workload name.
        workload: String,
        /// Optional JSON output path.
        output: Option<String>,
    },
    /// `pandiactl predict <machine> <workload> -p PLACEMENT`
    Predict {
        /// Machine preset name.
        machine: String,
        /// Workload name.
        workload: String,
        /// The placement to predict.
        placement: CanonicalPlacement,
    },
    /// `pandiactl best <machine> <workload> [--tolerance F]`
    Best {
        /// Machine preset name.
        machine: String,
        /// Workload name.
        workload: String,
        /// Resource-saving tolerance (fraction of peak).
        tolerance: f64,
    },
    /// `pandiactl plan <machine> <workload> --time T`
    Plan {
        /// Machine preset name.
        machine: String,
        /// Workload name.
        workload: String,
        /// The performance target.
        target: PlanTarget,
    },
    /// `pandiactl explore <machine> <workload>`
    Explore {
        /// Machine preset name.
        machine: String,
        /// Workload name.
        workload: String,
    },
    /// `pandiactl coschedule <machine> <w1> <w2>`
    CoSchedule {
        /// Machine preset name.
        machine: String,
        /// First workload name.
        first: String,
        /// Second workload name.
        second: String,
    },
    /// `pandiactl submit <log> <job> <class> [-n MACHINES]`
    Submit {
        /// Event log path (created if missing).
        log: String,
        /// Job name.
        job: String,
        /// Workload class.
        class: String,
        /// Synthetic fleet size used to replay the log.
        machines: usize,
    },
    /// `pandiactl status <log> [-n MACHINES] [--high-water N]`
    ///
    /// Exits 0 when the replayed daemon is healthy, 1 when it is in
    /// degraded (overload) mode, and 2 when the log is unreachable —
    /// missing, unreadable, or corrupt.
    Status {
        /// Event log path.
        log: String,
        /// Synthetic fleet size used to replay the log.
        machines: usize,
        /// Optional queue high-water mark for the replay: engages
        /// overload shedding/degraded mode so health is judged under a
        /// bounded policy (`None` = unbounded, never degraded).
        high_water: Option<usize>,
    },
    /// `pandiactl drain <log> [-n MACHINES]`
    Drain {
        /// Event log path.
        log: String,
        /// Synthetic fleet size used to replay the log. The drain's
        /// `fail` events cancel the jobs queued at this size, so the
        /// drained log replays as drained only at this size.
        machines: usize,
    },
    /// `pandiactl help`
    Help,
}

/// Parses the `-n MACHINES` option shared by the daemon subcommands.
fn machines_option(options: &[(&String, &String)]) -> Result<usize, String> {
    match option_value(options, "-n")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("invalid machine count '{v}' (expected >= 1)")),
        None => Ok(4),
    }
}

/// Parses argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or_else(|| "missing command".to_string())?;
    let rest: Vec<&String> = it.collect();
    match command.as_str() {
        "machines" => expect_empty(&rest).map(|()| Command::Machines),
        "workloads" => expect_empty(&rest).map(|()| Command::Workloads),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "describe" => {
            let (positional, options) = split_options(&rest)?;
            let [machine] = positional_exactly::<1>(&positional, "describe <machine>")?;
            Ok(Command::Describe { machine, output: option_value(&options, "-o")? })
        }
        "profile" => {
            let (positional, options) = split_options(&rest)?;
            let [machine, workload] =
                positional_exactly::<2>(&positional, "profile <machine> <workload>")?;
            Ok(Command::Profile { machine, workload, output: option_value(&options, "-o")? })
        }
        "predict" => {
            let (positional, options) = split_options(&rest)?;
            let [machine, workload] =
                positional_exactly::<2>(&positional, "predict <machine> <workload>")?;
            let spec = option_value(&options, "-p")?
                .or(option_value(&options, "--placement")?)
                .ok_or_else(|| "predict requires -p PLACEMENT".to_string())?;
            Ok(Command::Predict { machine, workload, placement: parse_placement(&spec)? })
        }
        "best" => {
            let (positional, options) = split_options(&rest)?;
            let [machine, workload] =
                positional_exactly::<2>(&positional, "best <machine> <workload>")?;
            let tolerance = match option_value(&options, "--tolerance")? {
                Some(v) => v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..=1.0).contains(t))
                    .ok_or_else(|| format!("invalid tolerance '{v}' (expected 0..1)"))?,
                None => 0.95,
            };
            Ok(Command::Best { machine, workload, tolerance })
        }
        "plan" => {
            let (positional, options) = split_options(&rest)?;
            let [machine, workload] =
                positional_exactly::<2>(&positional, "plan <machine> <workload>")?;
            let parse_f = |v: &str, what: &str| {
                v.parse::<f64>().map_err(|_| format!("invalid {what} '{v}'"))
            };
            let target = if let Some(t) = option_value(&options, "--time")? {
                PlanTarget::Time(parse_f(&t, "time")?)
            } else if let Some(s) = option_value(&options, "--speedup")? {
                PlanTarget::Speedup(parse_f(&s, "speedup")?)
            } else if let Some(f) = option_value(&options, "--fraction")? {
                PlanTarget::Fraction(parse_f(&f, "fraction")?)
            } else {
                return Err("plan requires --time, --speedup or --fraction".to_string());
            };
            Ok(Command::Plan { machine, workload, target })
        }
        "explore" => {
            let (positional, _) = split_options(&rest)?;
            let [machine, workload] =
                positional_exactly::<2>(&positional, "explore <machine> <workload>")?;
            Ok(Command::Explore { machine, workload })
        }
        "coschedule" => {
            let (positional, _) = split_options(&rest)?;
            let [machine, first, second] =
                positional_exactly::<3>(&positional, "coschedule <machine> <w1> <w2>")?;
            Ok(Command::CoSchedule { machine, first, second })
        }
        "submit" => {
            let (positional, options) = split_options(&rest)?;
            let [log, job, class] =
                positional_exactly::<3>(&positional, "submit <log> <job> <class>")?;
            Ok(Command::Submit { log, job, class, machines: machines_option(&options)? })
        }
        "status" => {
            let (positional, options) = split_options(&rest)?;
            let [log] = positional_exactly::<1>(&positional, "status <log>")?;
            let high_water = match option_value(&options, "--high-water")? {
                Some(v) => Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("invalid high-water mark '{v}' (expected >= 1)"))?,
                ),
                None => None,
            };
            Ok(Command::Status { log, machines: machines_option(&options)?, high_water })
        }
        "drain" => {
            let (positional, options) = split_options(&rest)?;
            let [log] = positional_exactly::<1>(&positional, "drain <log>")?;
            Ok(Command::Drain { log, machines: machines_option(&options)? })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Parses the `"2,1|1"` placement syntax.
pub fn parse_placement(spec: &str) -> Result<CanonicalPlacement, String> {
    let mut sockets = Vec::new();
    for socket_spec in spec.split('|') {
        let socket_spec = socket_spec.trim();
        if socket_spec.is_empty() {
            sockets.push(Vec::new());
            continue;
        }
        let mut occ = Vec::new();
        for part in socket_spec.split(',') {
            let n: u8 = part
                .trim()
                .parse()
                .map_err(|_| format!("invalid per-core thread count '{part}'"))?;
            occ.push(n);
        }
        sockets.push(occ);
    }
    let placement = CanonicalPlacement::new(sockets);
    if placement.total_threads() == 0 {
        return Err(format!("placement '{spec}' contains no threads"));
    }
    Ok(placement)
}

fn expect_empty(rest: &[&String]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected argument '{}'", rest[0]))
    }
}

/// Parsed `-flag value` pairs.
type Options<'a> = Vec<(&'a String, &'a String)>;

/// Splits arguments into positional values and `-flag value` pairs.
fn split_options<'a>(
    rest: &[&'a String],
) -> Result<(Vec<&'a String>, Options<'a>), String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i].starts_with('-') {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("option {} requires a value", rest[i]))?;
            options.push((rest[i], *value));
            i += 2;
        } else {
            positional.push(rest[i]);
            i += 1;
        }
    }
    Ok((positional, options))
}

fn option_value(options: &[(&String, &String)], flag: &str) -> Result<Option<String>, String> {
    Ok(options.iter().find(|(f, _)| f.as_str() == flag).map(|(_, v)| (*v).clone()))
}

fn positional_exactly<const N: usize>(
    positional: &[&String],
    usage: &str,
) -> Result<[String; N], String> {
    if positional.len() != N {
        return Err(format!("expected: pandiactl {usage}"));
    }
    let mut out = Vec::with_capacity(N);
    for p in positional {
        out.push((*p).clone());
    }
    Ok(out.try_into().expect("length checked"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&argv("machines")).unwrap(), Command::Machines);
        assert_eq!(parse(&argv("workloads")).unwrap(), Command::Workloads);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn parses_describe_with_output() {
        let cmd = parse(&argv("describe x5-2 -o md.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Describe { machine: "x5-2".into(), output: Some("md.json".into()) }
        );
    }

    #[test]
    fn parses_predict_with_placement() {
        let cmd = parse(&argv("predict x3-2 CG -p 2,1|1")).unwrap();
        match cmd {
            Command::Predict { machine, workload, placement } => {
                assert_eq!(machine, "x3-2");
                assert_eq!(workload, "CG");
                assert_eq!(placement.total_threads(), 4);
                assert_eq!(placement.sockets_used(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_best_with_default_tolerance() {
        match parse(&argv("best x4-2 Swim")).unwrap() {
            Command::Best { tolerance, .. } => assert_eq!(tolerance, 0.95),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("best x4-2 Swim --tolerance 0.8")).unwrap() {
            Command::Best { tolerance, .. } => assert_eq!(tolerance, 0.8),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("best x4-2 Swim --tolerance 1.8")).is_err());
    }

    #[test]
    fn placement_syntax_round_trips() {
        let p = parse_placement("2,2,1|1").unwrap();
        assert_eq!(p.total_threads(), 6);
        assert_eq!(p.cores_used(), 4);
        assert!(parse_placement("").is_err());
        assert!(parse_placement("x|1").is_err());
        // Normalization sorts within and across sockets.
        assert_eq!(parse_placement("1,2|2").unwrap(), parse_placement("2|2,1").unwrap());
    }

    #[test]
    fn parses_plan_targets() {
        match parse(&argv("plan x3-2 CG --time 8.5")).unwrap() {
            Command::Plan { target, .. } => assert_eq!(target, PlanTarget::Time(8.5)),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("plan x3-2 CG --speedup 4")).unwrap() {
            Command::Plan { target, .. } => assert_eq!(target, PlanTarget::Speedup(4.0)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("plan x3-2 CG")).is_err(), "target required");
        assert!(parse(&argv("plan x3-2 CG --time abc")).is_err());
    }

    #[test]
    fn extracts_global_exec_flags_anywhere_in_argv() {
        let (rest, flags) = extract_exec_flags(&argv("--jobs 4 best x4-2 Swim")).unwrap();
        assert_eq!(flags, ExecFlags { jobs: Some(4), ..ExecFlags::default() });
        assert_eq!(parse(&rest).unwrap(), parse(&argv("best x4-2 Swim")).unwrap());

        let (rest, flags) =
            extract_exec_flags(&argv("plan x3-2 CG --time 8.5 -j 2 --no-cache")).unwrap();
        assert_eq!(flags, ExecFlags { jobs: Some(2), cache: false, ..ExecFlags::default() });
        assert!(matches!(parse(&rest).unwrap(), Command::Plan { .. }));

        let (_, flags) = extract_exec_flags(&argv("machines")).unwrap();
        assert_eq!(flags, ExecFlags::default());

        assert!(extract_exec_flags(&argv("best x4-2 Swim --jobs")).is_err());
        assert!(extract_exec_flags(&argv("--jobs zero machines")).is_err());
        assert!(extract_exec_flags(&argv("--jobs 0 machines")).is_err());
    }

    #[test]
    fn extracts_telemetry_and_quiet_flags() {
        let (rest, flags) = extract_exec_flags(&argv(
            "--quiet --trace-out trace.json best x4-2 Swim --metrics-out m.jsonl",
        ))
        .unwrap();
        assert_eq!(
            flags,
            ExecFlags {
                quiet: true,
                trace_out: Some("trace.json".into()),
                metrics_out: Some("m.jsonl".into()),
                ..ExecFlags::default()
            }
        );
        assert_eq!(parse(&rest).unwrap(), parse(&argv("best x4-2 Swim")).unwrap());

        // Values are required.
        assert!(extract_exec_flags(&argv("machines --trace-out")).is_err());
        assert!(extract_exec_flags(&argv("machines --metrics-out")).is_err());
    }

    #[test]
    fn extracts_fault_and_robustness_flags() {
        let (rest, flags) =
            extract_exec_flags(&argv("--faults 0.4 --robust profile x3-2 CG")).unwrap();
        assert_eq!(flags.faults, 0.4);
        assert!(flags.robust);
        assert!(matches!(parse(&rest).unwrap(), Command::Profile { .. }));

        let (_, flags) = extract_exec_flags(&argv("machines")).unwrap();
        assert_eq!(flags.faults, 0.0);
        assert!(!flags.robust);

        assert!(extract_exec_flags(&argv("--faults 1.5 machines")).is_err());
        assert!(extract_exec_flags(&argv("--faults nope machines")).is_err());
        assert!(extract_exec_flags(&argv("machines --faults")).is_err());
    }

    #[test]
    fn extracts_events_out_flag() {
        let (rest, flags) =
            extract_exec_flags(&argv("--events-out ev.jsonl status d.jsonl")).unwrap();
        assert_eq!(flags.events_out, Some("ev.jsonl".into()));
        assert!(matches!(parse(&rest).unwrap(), Command::Status { .. }));
        assert!(extract_exec_flags(&argv("machines --events-out")).is_err());
    }

    #[test]
    fn parses_daemon_subcommands() {
        assert_eq!(
            parse(&argv("submit d.jsonl j0 EP")).unwrap(),
            Command::Submit {
                log: "d.jsonl".into(),
                job: "j0".into(),
                class: "EP".into(),
                machines: 4,
            }
        );
        assert_eq!(
            parse(&argv("status d.jsonl -n 2")).unwrap(),
            Command::Status { log: "d.jsonl".into(), machines: 2, high_water: None }
        );
        assert_eq!(
            parse(&argv("status d.jsonl --high-water 8")).unwrap(),
            Command::Status { log: "d.jsonl".into(), machines: 4, high_water: Some(8) }
        );
        assert!(parse(&argv("status d.jsonl --high-water 0")).is_err());
        assert_eq!(
            parse(&argv("drain d.jsonl")).unwrap(),
            Command::Drain { log: "d.jsonl".into(), machines: 4 }
        );
        assert!(parse(&argv("submit d.jsonl j0")).is_err(), "class required");
        assert!(parse(&argv("status")).is_err());
        assert!(parse(&argv("status d.jsonl -n 0")).is_err());
    }

    #[test]
    fn missing_and_unknown_arguments_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("describe")).is_err());
        assert!(parse(&argv("predict x3-2 CG")).is_err(), "missing -p");
        assert!(parse(&argv("machines extra")).is_err());
        assert!(parse(&argv("describe x5-2 -o")).is_err(), "dangling option");
    }
}
