//! `sweep-x5-2`: the Figure 10 loop as `fig10_curves --jobs 1` runs it.
//!
//! One operation is one curve point: instantiate the placement, run it
//! on the simulator (measured), predict it (predicted). Points are a
//! seeded sample of the 22 paper-suite workloads × the 2,479
//! paper-density x5-2 placements, so nearly all of a point's time is
//! `SimMachine::run` and engine changes show here.

use std::path::Path;

use pandia_core::{
    describe_machine, ExecContext, MachineDescription, PredictSession, PredictorConfig,
    WorkloadDescription, WorkloadProfiler,
};
use pandia_sim::SimMachine;
use pandia_topology::{
    CanonicalPlacement, HasShape, MachineSpec, PlacementEnumerator, Platform, RunRequest,
};
use pandia_workloads::WorkloadEntry;

use crate::bench::{
    per_replay, record_cache, stretches, timed, Loop, Outcome, Probe, Replays, REPLAYS,
};
use crate::fig10::{self, printed, Row};
use crate::platform::BenchSim;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Placements per thread count in the paper-density sample.
pub const PER_THREAD_COUNT: usize = 42;

/// Points per sweep. `fig10_curves` keeps one `ExecContext`, and so one
/// prediction cache, for all its points; the benchmark instead starts a
/// fresh one every sweep, its own choice. The cache holds every point,
/// so bounding the sweep keeps peak memory independent of how many
/// points a run does.
const SWEEP_POINTS: usize = 1_000;

/// Everything generated before the clock starts.
pub struct Inputs {
    workloads: Vec<WorkloadEntry>,
    placements: Vec<CanonicalPlacement>,
    rows: Vec<Vec<Row>>,
    points: Vec<(usize, usize)>,
}

/// The x5-2 paper-suite workloads, the paper-density placements, and
/// each workload's committed fig10 rows (one per placement).
pub struct Reference {
    /// The paper suite, in fig10 order.
    pub workloads: Vec<WorkloadEntry>,
    /// The placements, in CSV row order.
    pub placements: Vec<CanonicalPlacement>,
    /// `rows[workload][placement]`.
    pub rows: Vec<Vec<Row>>,
}

/// Loads the [`Reference`] from the repository root.
pub fn reference(root: &Path) -> Result<Reference, String> {
    let spec = MachineSpec::x5_2();
    let workloads: Vec<WorkloadEntry> = pandia_workloads::paper_suite()
        .into_iter()
        .filter(|w| !w.behavior.requires_avx || spec.has_avx)
        .collect();
    let placements = PlacementEnumerator::new(&spec).sampled(&spec, PER_THREAD_COUNT);
    let rows = workloads
        .iter()
        .map(|w| fig10::load(root, w.name))
        .collect::<Result<Vec<_>, _>>()?;
    for (w, r) in workloads.iter().zip(&rows) {
        if r.len() != placements.len() {
            return Err(format!(
                "fig10 curve of {} has {} rows for {} placements",
                w.name,
                r.len(),
                placements.len()
            ));
        }
    }
    Ok(Reference {
        workloads,
        placements,
        rows,
    })
}

/// The seed's order of (workload, placement) points: a permutation of
/// all of them, so a run samples without replacement.
pub fn sample(seed: u64, workloads: usize, placements: usize) -> Vec<(usize, usize)> {
    let mut points: Vec<(usize, usize)> = (0..workloads)
        .flat_map(|w| (0..placements).map(move |p| (w, p)))
        .collect();
    Rng::new(seed, 1).shuffle(&mut points);
    points
}

/// Generates the run's inputs.
pub fn inputs(root: &Path, seed: u64) -> Result<Inputs, String> {
    let Reference {
        workloads,
        placements,
        rows,
    } = reference(root)?;
    let points = sample(seed, workloads.len(), placements.len());
    Ok(Inputs {
        workloads,
        placements,
        rows,
        points,
    })
}

struct State {
    machine: SimMachine,
    description: MachineDescription,
    profiles: Vec<WorkloadDescription>,
}

/// Describes x5-2 and profiles every workload.
fn setup(workloads: &[WorkloadEntry], tracer: &Tracer) -> Result<State, String> {
    let mut sim = BenchSim::new(SimMachine::new(MachineSpec::x5_2()), tracer);
    let description = tracer
        .call("machine_gen", "describe", || describe_machine(&mut sim))
        .map_err(|e| format!("describe x5-2: {e}"))?;
    let profiler = WorkloadProfiler::new(&description);
    let mut profiles = Vec::with_capacity(workloads.len());
    for w in workloads {
        let before = sim.runs();
        let report = tracer
            .call("profiler", "profile", || {
                profiler.profile(&mut sim, &w.behavior, w.name)
            })
            .map_err(|e| format!("profile {}: {e}", w.name))?;
        tracer.add("profiler.sim_runs", sim.runs() - before);
        profiles.push(report.description);
    }
    Ok(State {
        machine: sim.into_inner(),
        description,
        profiles,
    })
}

/// One evaluated curve point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Workload index.
    pub workload: usize,
    /// Placement index.
    pub placement: usize,
    /// Simulated time.
    pub measured: f64,
    /// Predicted time.
    pub predicted: f64,
}

/// Checks every point against its committed fig10 row, to the printed
/// six decimals.
pub fn check(
    points: &[Point],
    workloads: &[WorkloadEntry],
    placements: &[CanonicalPlacement],
    rows: &[Vec<Row>],
) -> Result<(), String> {
    if points.is_empty() {
        return Err("no sweep point completed".into());
    }
    for p in points {
        let name = workloads[p.workload].name;
        let row = &rows[p.workload][p.placement];
        let got = Row {
            placement: placements[p.placement].to_string(),
            measured: printed(p.measured),
            predicted: printed(p.predicted),
        };
        if got != *row {
            return Err(format!(
                "{name} point {}: got {got:?}, fig10 has {row:?}",
                p.placement
            ));
        }
    }
    Ok(())
}

/// Points of one replay, in sweeps of [`SWEEP_POINTS`].
fn replay(
    inputs: &Inputs,
    n: usize,
    tracer: &Tracer,
    probe: &mut Probe,
    setup_s: &mut Vec<f64>,
    done: &mut Vec<Point>,
) -> Result<Loop, String> {
    let state = timed(setup_s, || setup(&inputs.workloads, tracer))?;
    let config = PredictorConfig::default();
    let shape = state.description.shape();
    let mut sim = BenchSim::new(state.machine, tracer);
    let stretches = stretches(n);
    let mut lp = Loop::default();
    let mut i = 0;
    while i < n && lp.error.is_none() {
        let exec = ExecContext::new(1);
        let mut sessions: Vec<Option<PredictSession>> =
            inputs.workloads.iter().map(|_| None).collect();
        let sweep_end = n.min(i + SWEEP_POINTS);
        while i < sweep_end && lp.error.is_none() {
            let stretch = stretches
                .iter()
                .find(|r| r.contains(&i))
                .ok_or("no stretch")?;
            if i == stretch.start && i > 0 {
                timed(setup_s, || setup(&inputs.workloads, &Tracer::off()))?;
            }
            let first = i;
            i = sweep_end.min(stretch.end);
            lp.run(i - first, probe, |k| {
                tracer.op(|| {
                    let (w, p) = inputs.points[(first + k) % inputs.points.len()];
                    let session = match &mut sessions[w] {
                        Some(session) => session,
                        slot @ None => slot.insert(
                            tracer
                                .call("exec", "session_new", || {
                                    PredictSession::new(
                                        &exec,
                                        &state.description,
                                        &state.profiles[w],
                                        &config,
                                    )
                                })
                                .map_err(|e| format!("session: {e}"))?,
                        ),
                    };
                    let placement = tracer
                        .call("topology", "instantiate", || {
                            inputs.placements[p].instantiate(&shape)
                        })
                        .map_err(|e| format!("instantiate: {e}"))?;
                    let behavior = inputs.workloads[w].behavior.clone();
                    let measured = sim
                        .run(&RunRequest::new(behavior, placement.clone()))
                        .map_err(|e| format!("run: {e}"))?
                        .elapsed;
                    let predicted = tracer
                        .call("predictor", "predict", || session.predict(&placement))
                        .map_err(|e| format!("predict: {e}"))?
                        .predicted_time;
                    done.push(Point {
                        workload: w,
                        placement: p,
                        measured,
                        predicted,
                    });
                    Ok(())
                })
            });
        }
        record_cache(tracer, &exec.cache_stats());
    }
    Ok(lp)
}

/// Runs [`REPLAYS`] replays of the seed's first `per_replay(seconds,
/// per_second)` points.
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    per_second: f64,
    tracer: &Tracer,
    probe: &mut Probe,
) -> Result<Outcome, String> {
    let n = per_replay(seconds, per_second);
    let mut setup_s = Vec::new();
    let mut replays = Replays::default();
    let mut done = Vec::new();
    for _ in 0..REPLAYS {
        replays.add(replay(inputs, n, tracer, probe, &mut setup_s, &mut done)?);
        if replays.error.is_some() {
            break;
        }
    }
    let check = check(&done, &inputs.workloads, &inputs.placements, &inputs.rows);
    Ok(replays.finish(setup_s, probe, 0, check))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig10::printed;

    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
    }

    #[test]
    fn the_seed_alone_picks_the_sample() {
        assert_eq!(sample(7, 22, 2_479), sample(7, 22, 2_479));
        assert_ne!(sample(7, 22, 2_479)[..100], sample(8, 22, 2_479)[..100]);
        let mut all = sample(7, 3, 5);
        all.sort_unstable();
        assert_eq!(
            all,
            (0..3)
                .flat_map(|w| (0..5).map(move |p| (w, p)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn check_accepts_the_committed_rows_and_rejects_a_corrupted_one() {
        let Reference {
            workloads,
            placements,
            mut rows,
        } = reference(root()).unwrap();
        assert_eq!((workloads.len(), placements.len()), (22, 2_479));
        let points: Vec<Point> = sample(3, workloads.len(), placements.len())[..200]
            .iter()
            .map(|&(w, p)| Point {
                workload: w,
                placement: p,
                measured: rows[w][p].measured.parse().unwrap(),
                predicted: rows[w][p].predicted.parse().unwrap(),
            })
            .collect();
        check(&points, &workloads, &placements, &rows).unwrap();

        let victim = &points[17];
        let row = &mut rows[victim.workload][victim.placement];
        row.measured = printed(victim.measured + 1e-6);
        let err = check(&points, &workloads, &placements, &rows).unwrap_err();
        assert!(err.contains(workloads[victim.workload].name), "{err}");
        assert!(check(&[], &workloads, &placements, &rows).is_err());
    }

    #[test]
    fn a_short_run_reproduces_the_committed_points() {
        let mut inputs = inputs(root(), 11).unwrap();
        // Small placements keep this quick in debug builds.
        inputs
            .points
            .retain(|&(_, p)| inputs.placements[p].total_threads() <= 2);
        let out = run(&inputs, 1.0, 40.0, &Tracer::off(), &mut Probe::new()).unwrap();
        out.check.unwrap();
        assert_eq!(out.attempted, 40);
        assert_eq!(out.latencies_us.len(), 10);
    }
}
