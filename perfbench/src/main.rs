//! The Pandia workspace's benchmark: three seeded closed-loop workloads
//! driven in-process from one thread, with output checks and a traced
//! per-layer run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-x5-2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `sweep-x5-2`, `advise-x5-2`, `daemon-durable` (see the
//! README). Every input is generated from `--seed` before the clock
//! starts. A run replays a fixed amount of work, sized from `--seconds`,
//! and reports each operation's fastest replay, with every time scaled
//! by the host-speed probe (see `bench`). With `--trace 0` the run is
//! untraced and the last line of stdout is one JSON object carrying the
//! end-to-end metrics; with `--trace 1` the same seed runs untraced and
//! then traced, the JSON carries the per-layer metrics, and the spans
//! are written to `perfbench/out/trace-<workload>.json` for
//! `pandia_report`. Progress,
//! with the tail's sample count, goes to stderr. The exit code is 0 when
//! every output check passed, 1 when one failed, 2 on a usage or
//! set-up error or a run too short for its tail percentile (then no
//! result line is printed).

mod advise;
mod bench;
mod daemon;
mod fig10;
mod platform;
mod rng;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Outcome, Probe};
use trace::Tracer;

/// A workload as `--workload` names it.
struct Spec {
    name: &'static str,
    /// The tail percentile it reports, per mille.
    tail_per_mille: u32,
    /// Operations a second that size its work: a run of `--seconds`
    /// does `seconds × per_second` operations over all its replays.
    per_second: f64,
}

/// The workloads. A replay of the sweep or the daemon has thousands of
/// operations, enough for p99. A replay of the advisor answers about
/// 240 queries, and 22 of them are first-time queries five times slower
/// than repeats: its p95 falls among those, so its tail is the latency
/// of a first-time query and its median that of a repeat. (A p90 would
/// sit on the border between the two groups.)
const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "sweep-x5-2",
        tail_per_mille: 990,
        per_second: 260.0,
    },
    Spec {
        name: "advise-x5-2",
        tail_per_mille: 950,
        per_second: 32.0,
    },
    Spec {
        name: "daemon-durable",
        tail_per_mille: 990,
        per_second: 4_200.0,
    },
];

struct Args {
    workload: String,
    tail_per_mille: u32,
    per_second: f64,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            names.join(", ")
        ));
    };
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload,
        tail_per_mille: spec.tail_per_mille,
        per_second: spec.per_second,
        seed,
        seconds,
        trace,
    })
}

/// A workload with its generated inputs.
enum Workload {
    Sweep(sweep::Inputs),
    Advise(advise::Inputs),
    Daemon(u64),
}

impl Workload {
    fn generate(name: &str, root: &Path, seed: u64) -> Result<Self, String> {
        Ok(match name {
            "sweep-x5-2" => Self::Sweep(sweep::inputs(root, seed)?),
            "advise-x5-2" => Self::Advise(advise::inputs(root, seed)?),
            _ => Self::Daemon(seed),
        })
    }

    fn run(&self, args: &Args, dir: &Path, tracer: &Tracer) -> Result<Outcome, String> {
        let (seconds, rate, probe) = (args.seconds, args.per_second, &mut Probe::new());
        match self {
            Self::Sweep(inputs) => sweep::run(inputs, seconds, rate, tracer, probe),
            Self::Advise(inputs) => advise::run(inputs, seconds, rate, tracer, probe),
            Self::Daemon(seed) => daemon::run(*seed, seconds, rate, dir, tracer, probe),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn sorted_latencies(out: &Outcome) -> Vec<f64> {
    let mut sorted = out.latencies_us.clone();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Operations a second over the fastest replays, unscaled.
fn raw_throughput(out: &Outcome) -> f64 {
    let busy_s: f64 = out.latencies_us.iter().sum::<f64>() / 1e6;
    if busy_s > 0.0 {
        out.latencies_us.len() as f64 / busy_s
    } else {
        0.0
    }
}

/// The metrics a user of the system sees, with the latency tail at
/// `tail_per_mille`; an error when too few operations lie beyond it.
/// Every time is scaled to the probe's nominal host speed.
fn end_to_end(
    out: &Outcome,
    tail_per_mille: u32,
    peak_rss_mib: f64,
) -> Result<Vec<Metric>, String> {
    let sorted = sorted_latencies(out);
    let tail = stats::Tail::of(&sorted, tail_per_mille);
    if !tail.supported() {
        return Err(format!(
            "{} operations leave {} beyond {}, fewer than {}; run longer",
            tail.samples,
            tail.beyond,
            tail.label(),
            stats::MIN_BEYOND
        ));
    }
    let ok = out.attempted.saturating_sub(out.failed + out.refused);
    let scale = out.scale;
    Ok(vec![
        metric("setup_s", "s", stats::median(&out.setup_s) * scale),
        metric("throughput_per_s", "1/s", raw_throughput(out) / scale),
        metric(
            "latency_p50_us",
            "us",
            stats::percentile(&sorted, 500) * scale,
        ),
        metric("latency_tail_us", "us", tail.value * scale),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric(
            "success_rate",
            "ratio",
            ok as f64 / out.attempted.max(1) as f64,
        ),
    ])
}

/// The per-layer metrics of a traced run.
fn per_layer(t: &Tracer, trace_overhead_pct: f64) -> Vec<Metric> {
    let ph = t.phases();
    let (solving_applies, solving_apply_s) = daemon::solving_applies(t);
    let n = |phase: &str| ph.count(phase) as f64;
    let busy_s = |phase: &str| ph.busy_us(phase) / 1e6;
    let p50 = |phase: &str| ph.percentile_us(phase, 500);
    let p99 = |phase: &str| ph.percentile_us(phase, 990);
    let c = |name: &str| t.counter(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = vec![
        metric("sim.run_count", "count", n("sim/run")),
        metric("sim.run_busy_s", "s", busy_s("sim/run")),
        metric("sim.run_p50_us", "us", p50("sim/run")),
        metric("sim.run_p99_us", "us", p99("sim/run")),
        metric("sim.segments", "count", c("sim.segments")),
        metric(
            "sim.segments_coalesced",
            "count",
            c("sim.segments_coalesced"),
        ),
        metric(
            "sim.coalesced_ratio",
            "ratio",
            ratio(c("sim.segments_coalesced"), c("sim.segments")),
        ),
        metric("sim.solves", "count", c("sim.solves")),
        metric("sim.solves_skipped", "count", c("sim.solves_skipped")),
        metric("sim.solves_batched", "count", c("sim.solves_batched")),
        metric(
            "sim.us_per_segment",
            "us",
            ratio(ph.busy_us("sim/run"), c("sim.segments")),
        ),
        metric("profiler.profile_count", "count", n("profiler/profile")),
        metric("profiler.profile_busy_s", "s", busy_s("profiler/profile")),
        metric("profiler.sim_runs", "count", c("profiler.sim_runs")),
        metric(
            "machine_gen.describe_busy_s",
            "s",
            busy_s("machine_gen/describe"),
        ),
        metric("predictor.predict_count", "count", n("predictor/predict")),
        metric("predictor.predict_busy_s", "s", busy_s("predictor/predict")),
        metric("predictor.predict_p50_us", "us", p50("predictor/predict")),
        metric("search.analyze_count", "count", n("search/analyze")),
        metric("search.analyze_busy_s", "s", busy_s("search/analyze")),
        metric(
            "search.us_per_candidate",
            "us",
            ratio(ph.busy_us("search/analyze"), c("search.candidates")),
        ),
        metric(
            "topology.enumerate_busy_s",
            "s",
            busy_s("topology/enumerate"),
        ),
        metric(
            "topology.instantiate_busy_s",
            "s",
            busy_s("topology/instantiate"),
        ),
        metric("exec.cache_hits", "count", c("exec.cache_hits")),
        metric("exec.cache_misses", "count", c("exec.cache_misses")),
        metric(
            "exec.cache_hit_ratio",
            "ratio",
            ratio(
                c("exec.cache_hits"),
                c("exec.cache_hits") + c("exec.cache_misses"),
            ),
        ),
        metric("exec.cache_evictions", "count", c("exec.cache_evictions")),
        metric("exec.cache_entries", "count", c("exec.cache_entries")),
        metric("exec.session_new_busy_s", "s", busy_s("exec/session_new")),
        metric("fleet.resolves", "count", c("fleet.resolves")),
        metric(
            "fleet.resolves_skipped",
            "count",
            c("fleet.resolves_skipped"),
        ),
        metric(
            "fleet.skip_ratio",
            "ratio",
            ratio(
                c("fleet.resolves_skipped"),
                c("fleet.resolves") + c("fleet.resolves_skipped"),
            ),
        ),
        metric("fleet.memo_evictions", "count", c("fleet.memo_evictions")),
        metric(
            "daemon.solving_apply_count",
            "count",
            solving_applies as f64,
        ),
        metric("daemon.solving_apply_busy_s", "s", solving_apply_s),
    ];
    for (kind, phase) in [
        ("submit", "daemon/apply_submit"),
        ("complete", "daemon/apply_complete"),
        ("fail", "daemon/apply_fail"),
        ("query", "daemon/apply_query"),
    ] {
        let name = |what: &str| format!("daemon.apply_{kind}_{what}");
        m.push(metric(name("count"), "count", n(phase)));
        m.push(metric(name("busy_s"), "s", busy_s(phase)));
        m.push(metric(name("p50_us"), "us", p50(phase)));
        m.push(metric(name("p99_us"), "us", p99(phase)));
    }
    m.extend([
        metric("daemon.placed", "count", c("daemon.placed")),
        metric("daemon.retries", "count", c("daemon.retries")),
        metric("daemon.faulted", "count", c("daemon.faulted")),
        metric("daemon.rejected", "count", c("daemon.rejected")),
        metric("daemon.shed", "count", c("daemon.shed")),
        metric(
            "daemon.queue_depth_max",
            "count",
            c("daemon.queue_depth_max"),
        ),
        metric("daemon.transcript_bytes", "B", c("daemon.transcript_bytes")),
        metric("journal.append_count", "count", n("journal/append")),
        metric("journal.append_busy_s", "s", busy_s("journal/append")),
        metric("journal.append_p99_us", "us", p99("journal/append")),
        metric("journal.bytes", "B", c("journal.bytes")),
        metric("checkpoint.count", "count", n("checkpoint/serialize")),
        metric(
            "checkpoint.serialize_busy_s",
            "s",
            busy_s("checkpoint/serialize"),
        ),
        metric("checkpoint.write_busy_s", "s", busy_s("checkpoint/write")),
        metric("checkpoint.last_bytes", "B", c("checkpoint.last_bytes")),
        metric("recovery.restore_s", "s", p50("recovery/restore") / 1e6),
        metric(
            "recovery.journal_parse_s",
            "s",
            p50("recovery/journal_parse") / 1e6,
        ),
        metric("bench.trace_overhead_pct", "%", trace_overhead_pct),
    ]);
    m
}

/// The result line the benchmark ends its stdout with.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() || !stats::valid_name(&m.name) || !stats::valid_unit(m.unit) {
            return Err(format!(
                "metric {} ({}) = {} breaks the naming rules",
                m.name, m.unit, m.value
            ));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn summarize(args: &Args, phase: &str, out: &Outcome) {
    let sorted = sorted_latencies(out);
    let tail = stats::Tail::of(&sorted, args.tail_per_mille);
    eprintln!(
        "perfbench: {} seed {} {phase}: {} ops over {} replays in {:.3} s; fastest replays, \
         unscaled: {:.2}/s, p50 {:.1} us, {} {:.1} us ({} samples, {} beyond), setup median \
         {:.1} us of {}; probe scale {:.4}; refused {}, check {}",
        args.workload,
        args.seed,
        out.attempted,
        bench::REPLAYS,
        out.wall_s,
        raw_throughput(out),
        stats::percentile(&sorted, 500),
        tail.label(),
        tail.value,
        tail.samples,
        tail.beyond,
        stats::median(&out.setup_s) * 1e6,
        out.setup_s.len(),
        out.scale,
        out.refused,
        match &out.check {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        }
    );
}

/// Runs the workload untraced and, with `--trace 1`, traced; returns the
/// outcomes and the metrics to report.
fn measure(args: &Args, run_dir: &Path) -> Result<(Vec<Outcome>, Vec<Metric>), String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let workload = Workload::generate(&args.workload, root, args.seed)?;
    let plain = workload.run(args, run_dir, &Tracer::off())?;
    summarize(args, "untraced", &plain);
    if !args.trace {
        let metrics = end_to_end(&plain, args.tail_per_mille, stats::peak_rss_mib()?)?;
        return Ok((vec![plain], metrics));
    }
    let tracer = Tracer::on();
    let traced = workload.run(args, run_dir, &tracer)?;
    summarize(args, "traced", &traced);
    if tracer.dropped_spans() > 0 {
        return Err(format!(
            "the trace had no room for {} spans; per-layer counts would be short",
            tracer.dropped_spans()
        ));
    }
    let throughput = |out: &Outcome| raw_throughput(out) / out.scale;
    let overhead_pct = 100.0 * (1.0 - throughput(&traced) / throughput(&plain));
    let path = manifest
        .join("out")
        .join(format!("trace-{}.json", args.workload));
    tracer.write_chrome_trace(&path)?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok((vec![plain, traced], per_layer(&tracer, overhead_pct)))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let run_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let measured = measure(args, &run_dir);
    std::fs::remove_dir_all(&run_dir)
        .map_err(|e| format!("cannot remove {}: {e}", run_dir.display()))?;
    let (outcomes, metrics) = measured?;

    let correct = outcomes.iter().all(|o| o.check.is_ok());
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics)?);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        get(v, key).unwrap_or_else(|| panic!("no {key}"))
    }

    /// `(name, unit)` of each entry of a BENCHMARK.json list (unit empty
    /// for workloads).
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        field(doc, key)
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let unit = get(m, "unit").and_then(Value::as_str).unwrap_or_default();
                (
                    field(m, "name").as_str().unwrap().to_string(),
                    unit.to_string(),
                )
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn dummy_outcome() -> Outcome {
        Outcome {
            setup_s: vec![0.2, 0.1, 0.3],
            latencies_us: (1..=200).map(f64::from).collect(),
            wall_s: 2.5,
            scale: 0.5,
            attempted: 201,
            failed: 1,
            refused: 20,
            check: Ok(()),
        }
    }

    #[test]
    fn emitted_metrics_match_benchmark_json_and_the_naming_rules() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let end = emitted(&end_to_end(&dummy_outcome(), 900, 1.0).unwrap());
        let layers = emitted(&per_layer(&Tracer::on(), 0.0));
        assert_eq!(listed(&doc, "end_to_end"), end);
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
        let mut names: Vec<&String> = end.iter().chain(&layers).map(|(n, _)| n).collect();
        names.extend(&workloads);
        for (name, unit) in end.iter().chain(&layers) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{name}: {unit}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let m = end_to_end(&dummy_outcome(), 900, 42.5).unwrap();
        let value = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        // The outcome's times are scaled by 0.5: a host twice as slow as
        // the probe's nominal speed.
        assert_eq!(value("setup_s"), 0.1);
        assert_eq!(value("throughput_per_s"), 200.0 / 0.020_1 / 0.5);
        assert_eq!(value("latency_p50_us"), 50.0);
        assert_eq!(value("latency_tail_us"), 90.0);
        assert_eq!(value("peak_rss_mib"), 42.5);
        assert_eq!(value("success_rate"), 180.0 / 201.0);
        // 200 samples leave 2 beyond p99: too few for a tail.
        let err = end_to_end(&dummy_outcome(), 990, 42.5).unwrap_err();
        assert!(err.contains("2 beyond p99"), "{err}");
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let metrics = end_to_end(&dummy_outcome(), 900, 3.0).unwrap();
        let line = result_line(true, 7, 0, &metrics).unwrap();
        assert!(!line.contains('\n'));
        let doc: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = field(field(&doc, "metrics"), "setup_s");
        assert_eq!(field(setup, "unit").as_str(), Some("s"));
        assert_eq!(field(setup, "value").as_f64(), Some(0.1));
        assert!(result_line(true, 1, 0, &[metric("x", "s", f64::NAN)]).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload daemon-durable --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("daemon-durable", 9, 2.5, true)
        );
        let tails: Vec<u32> = ["sweep-x5-2", "advise-x5-2", "daemon-durable"]
            .iter()
            .map(|w| parse(&format!("--workload {w}")).unwrap().tail_per_mille)
            .collect();
        assert_eq!(tails, [990, 950, 990]);
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload sweep-x5-2 --trace 2",
            "--workload sweep-x5-2 --seconds 0",
            "--workload sweep-x5-2 --seed",
            "--workload sweep-x5-2 --verbose 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
