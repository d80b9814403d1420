//! The benchmark's own tracing: spans around each operation and around
//! every call it makes into a layer's public functions, plus counters
//! read from the layers' stats. Nothing inside the program is
//! instrumented: the spans go to a `pandia_obs::Recorder` owned by the
//! benchmark, and `pandia-obs`'s global recorder stays off.
//!
//! The recorder keeps the spans in memory; at exit they are written as a
//! `pandia-trace-v1` Chrome trace, so `pandia_report` computes self time
//! and the Amdahl table from it unchanged.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

use pandia_obs::{Recorder, Span};

/// Spans a traced run may keep; a recorder drops (and counts) the rest.
const MAX_SPANS: usize = 1 << 21;

/// Records spans and counters when on; every method is a plain call
/// when off.
pub struct Tracer {
    recorder: Option<Recorder>,
    /// Id of the operation running now; set-up and checks use 0.
    op: Cell<u64>,
    ops: Cell<u64>,
}

impl Tracer {
    fn new(recorder: Option<Recorder>) -> Self {
        Self {
            recorder,
            op: Cell::new(0),
            ops: Cell::new(0),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(None)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(Some(Recorder::with_max_events(MAX_SPANS)))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Opens a `cat/name` span tagged with the current operation id; it
    /// is recorded when dropped.
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        match &self.recorder {
            Some(r) => r.span(cat, name).arg("op", self.op.get()),
            None => Span::inert(),
        }
    }

    /// Runs `f` under a `cat/name` span.
    pub fn call<T>(&self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(cat, name);
        f()
    }

    /// Runs one benchmark operation under a `bench/op` span; spans opened
    /// inside it carry the same operation id.
    pub fn op<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        self.ops.set(self.ops.get() + 1);
        self.op.set(self.ops.get());
        let out = self.call("bench", "op", f);
        self.op.set(0);
        out
    }

    /// Adds `n` to a counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.recorder {
            r.add(name, n);
        }
    }

    /// Raises a counter to `n` if it is lower.
    pub fn max(&self, name: &str, n: u64) {
        if let Some(r) = &self.recorder {
            let counter = r.counter(name);
            counter.add(n.saturating_sub(counter.get()));
        }
    }

    /// A counter's value (0 if never touched or when off).
    pub fn counter(&self, name: &str) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.counter(name).get())
    }

    /// Count and sum of a histogram fed by [`Span::observe_as`].
    pub fn observed(&self, name: &str) -> (u64, f64) {
        let Some(r) = &self.recorder else {
            return (0, 0.0);
        };
        r.metrics_snapshot()
            .histograms
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0.0), |(_, h)| (h.count, h.sum))
    }

    /// Spans the recorder had no room for.
    pub fn dropped_spans(&self) -> u64 {
        self.recorder.as_ref().map_or(0, Recorder::dropped_spans)
    }

    /// Recorded durations (µs) per `cat/name` phase, each ascending.
    pub fn phases(&self) -> Phases {
        let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        if let Some(r) = &self.recorder {
            for s in r.span_events() {
                map.entry(format!("{}/{}", s.cat, s.name))
                    .or_default()
                    .push(s.dur_us);
            }
        }
        for durations in map.values_mut() {
            durations.sort_by(f64::total_cmp);
        }
        Phases(map)
    }

    /// Writes the spans and counters as a `pandia-trace-v1` document.
    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        let Some(r) = &self.recorder else {
            return Ok(());
        };
        std::fs::write(path, r.chrome_trace_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Span durations grouped by phase.
pub struct Phases(BTreeMap<String, Vec<f64>>);

impl Phases {
    fn get(&self, phase: &str) -> &[f64] {
        self.0.get(phase).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Calls made.
    pub fn count(&self, phase: &str) -> u64 {
        self.get(phase).len() as u64
    }

    /// Total time in the phase's spans, µs.
    pub fn busy_us(&self, phase: &str) -> f64 {
        self.get(phase).iter().sum()
    }

    /// A nearest-rank percentile of the phase's span durations, µs.
    pub fn percentile_us(&self, phase: &str, per_mille: u32) -> f64 {
        crate::stats::percentile(self.get(phase), per_mille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_obs::ArgValue;

    #[test]
    fn spans_nest_share_the_operation_id_and_round_trip_through_the_report_reader() {
        let tracer = Tracer::on();
        tracer.call("machine_gen", "describe", || ());
        for _ in 0..3 {
            tracer.op(|| {
                tracer.call("sim", "run", || tracer.call("predictor", "predict", || ()));
            });
        }
        tracer.add("sim.segments", 5);
        tracer.max("daemon.queue_depth_max", 3);
        tracer.max("daemon.queue_depth_max", 2);
        drop(tracer.span("daemon", "apply_submit").observe_as("solving"));
        let phases = tracer.phases();
        assert_eq!(phases.count("bench/op"), 3);
        assert_eq!(phases.count("sim/run"), 3);
        assert_eq!(tracer.counter("daemon.queue_depth_max"), 3);
        assert_eq!(tracer.observed("solving").0, 1);
        let events = tracer.recorder.as_ref().unwrap().span_events();
        let ops: Vec<(&str, &ArgValue)> = events
            .iter()
            .map(|s| (s.name.as_str(), &s.args[0].1))
            .collect();
        assert_eq!(ops[0], ("describe", &ArgValue::U64(0)));
        assert_eq!(
            &ops[1..4],
            &[
                ("op", &ArgValue::U64(1)),
                ("run", &ArgValue::U64(1)),
                ("predict", &ArgValue::U64(1))
            ]
        );
        assert_eq!(ops[4], ("op", &ArgValue::U64(2)));

        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test-trace.json");
        tracer.write_chrome_trace(&path).unwrap();
        let capture = pandia_harness::traceio::parse_capture_file(&path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(capture.spans.len(), 11);
        assert_eq!(capture.spans[1].phase(), "bench/op");
        assert_eq!(capture.counters.get("sim.segments"), Some(&5));
        let report = pandia_harness::analyze_captures(&[capture]).unwrap();
        let amdahl: Vec<&str> = report.runs[0]
            .amdahl
            .iter()
            .map(|r| r.phase.as_str())
            .collect();
        for phase in [
            "bench/op",
            "sim/run",
            "predictor/predict",
            "machine_gen/describe",
        ] {
            assert!(amdahl.contains(&phase), "{phase} missing from {amdahl:?}");
        }
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.op(|| tracer.call("sim", "run", || 7)), 7);
        tracer.add("sim.segments", 1);
        assert_eq!(tracer.counter("sim.segments"), 0);
        assert_eq!(tracer.phases().count("sim/run"), 0);
        assert!(!tracer.span("sim", "run").is_recording());
    }
}
