//! `advise-x5-2`: the path `pandiactl best` runs, as a long-lived
//! advisor.
//!
//! One operation is one query: profile a paper-suite workload (the six
//! §4 runs), then `Recommendation::analyze_with` at tolerance 0.95 over
//! the 2,479 paper-density x5-2 placements. Queries are drawn with
//! replacement and, within a replay, share one one-worker `ExecContext`
//! with the default prediction cache, so a first query is mostly
//! predictions and a repeat is cache hits plus profiling. The distinct predictions fit the cache;
//! the overflow regime needs a workload of its own.

use std::path::Path;

use pandia_core::{
    describe_machine, ExecContext, MachineDescription, PredictorConfig, Recommendation,
    WorkloadProfiler,
};
use pandia_sim::SimMachine;
use pandia_topology::{CanonicalPlacement, MachineSpec, PlacementEnumerator};
use pandia_workloads::WorkloadEntry;

use crate::bench::{
    per_replay, record_cache, stretches, timed, Loop, Outcome, Probe, Replays, REPLAYS,
};
use crate::fig10::{printed, Row};
use crate::platform::BenchSim;
use crate::rng::Rng;
use crate::sweep::{reference, Reference, PER_THREAD_COUNT};
use crate::trace::Tracer;

/// The resource-saving tolerance `pandiactl best` uses by default.
pub const TOLERANCE: f64 = 0.95;

/// Queries generated per run; a run longer than them wraps around.
const QUERIES: usize = 100_000;

/// Everything generated before the clock starts.
pub struct Inputs {
    workloads: Vec<WorkloadEntry>,
    best_predicted: Vec<String>,
    queries: Vec<usize>,
}

/// The seed's query sequence: workload indices drawn with replacement.
pub fn sample(seed: u64, workloads: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 2);
    (0..len).map(|_| rng.below(workloads)).collect()
}

/// Each workload's lowest committed fig10 prediction, as printed: the
/// best predicted time every answer must quote.
pub fn expected_best(rows: &[Vec<Row>]) -> Result<Vec<String>, String> {
    rows.iter()
        .map(|curve| {
            let mut best = f64::INFINITY;
            for row in curve {
                let t: f64 = row
                    .predicted
                    .parse()
                    .map_err(|e| format!("bad fig10 predicted_time {}: {e}", row.predicted))?;
                best = best.min(t);
            }
            Ok(printed(best))
        })
        .collect()
}

/// Generates the run's inputs.
pub fn inputs(root: &Path, seed: u64) -> Result<Inputs, String> {
    let Reference {
        workloads, rows, ..
    } = reference(root)?;
    let best_predicted = expected_best(&rows)?;
    let queries = sample(seed, workloads.len(), QUERIES);
    Ok(Inputs {
        workloads,
        best_predicted,
        queries,
    })
}

struct State {
    machine: SimMachine,
    description: MachineDescription,
    candidates: Vec<CanonicalPlacement>,
    exec: ExecContext,
}

/// Describes x5-2 and enumerates the candidate placements.
fn setup(tracer: &Tracer) -> Result<State, String> {
    let spec = MachineSpec::x5_2();
    let mut sim = BenchSim::new(SimMachine::new(spec.clone()), tracer);
    let description = tracer
        .call("machine_gen", "describe", || describe_machine(&mut sim))
        .map_err(|e| format!("describe x5-2: {e}"))?;
    let candidates = tracer.call("topology", "enumerate", || {
        PlacementEnumerator::new(&description).sampled(&description, PER_THREAD_COUNT)
    });
    Ok(State {
        machine: sim.into_inner(),
        description,
        candidates,
        exec: ExecContext::new(1),
    })
}

/// Checks each answer's best predicted time against the committed
/// curve's minimum, and that every repeat of a query is bit-identical to
/// its first answer.
pub fn check(
    answers: &[(usize, Recommendation)],
    workloads: &[WorkloadEntry],
    best_predicted: &[String],
) -> Result<(), String> {
    if answers.is_empty() {
        return Err("no advise query completed".into());
    }
    let mut first: Vec<Option<String>> = vec![None; workloads.len()];
    for (w, rec) in answers {
        let name = workloads[*w].name;
        let best = printed(rec.best.predicted_time);
        if best != best_predicted[*w] {
            return Err(format!(
                "{name}: best predicted {best}, fig10 minimum is {}",
                best_predicted[*w]
            ));
        }
        // `{:?}` prints every f64 round-trip exactly, so equal text is
        // equal bits.
        let bits = format!("{rec:?}");
        match &first[*w] {
            None => first[*w] = Some(bits),
            Some(f) if *f != bits => {
                return Err(format!("{name}: a repeat query answered differently"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// One replay: a fresh advisor answers the seed's first `n` queries.
fn replay(
    inputs: &Inputs,
    n: usize,
    tracer: &Tracer,
    probe: &mut Probe,
    setup_s: &mut Vec<f64>,
    answers: &mut Vec<(usize, Recommendation)>,
) -> Result<Loop, String> {
    let state = timed(setup_s, || setup(tracer))?;
    let config = PredictorConfig::default();
    let profiler = WorkloadProfiler::new(&state.description);
    let mut sim = BenchSim::new(state.machine, tracer);
    let mut lp = Loop::default();
    for stretch in stretches(n) {
        if stretch.start > 0 {
            timed(setup_s, || setup(&Tracer::off()))?;
        }
        lp.run(stretch.len(), probe, |k| {
            tracer.op(|| {
                let w = inputs.queries[(stretch.start + k) % inputs.queries.len()];
                let entry = &inputs.workloads[w];
                let before = sim.runs();
                let report = tracer
                    .call("profiler", "profile", || {
                        profiler.profile(&mut sim, &entry.behavior, entry.name)
                    })
                    .map_err(|e| format!("profile {}: {e}", entry.name))?;
                tracer.add("profiler.sim_runs", sim.runs() - before);
                let rec = tracer
                    .call("search", "analyze", || {
                        Recommendation::analyze_with(
                            &state.exec,
                            &state.description,
                            &report.description,
                            &state.candidates,
                            TOLERANCE,
                            &config,
                        )
                    })
                    .map_err(|e| format!("analyze {}: {e}", entry.name))?;
                tracer.add("search.candidates", state.candidates.len() as u64);
                answers.push((w, rec));
                Ok(())
            })
        });
        if lp.error.is_some() {
            break;
        }
    }
    record_cache(tracer, &state.exec.cache_stats());
    Ok(lp)
}

/// Runs [`REPLAYS`] replays of the seed's first `per_replay(seconds,
/// per_second)` queries. Every replay repeats every query of the first,
/// so the check also holds the replays to bit-identical answers.
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
    let mut answers = Vec::new();
    for _ in 0..REPLAYS {
        replays.add(replay(
            inputs,
            n,
            tracer,
            probe,
            &mut setup_s,
            &mut answers,
        )?);
        if replays.error.is_some() {
            break;
        }
    }
    let check = check(&answers, &inputs.workloads, &inputs.best_predicted);
    Ok(replays.finish(setup_s, probe, 0, check))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
    }

    #[test]
    fn the_seed_alone_picks_the_queries() {
        assert_eq!(sample(5, 22, 500), sample(5, 22, 500));
        assert_ne!(sample(5, 22, 500), sample(6, 22, 500));
        assert!(sample(5, 22, 500).iter().all(|&w| w < 22));
    }

    #[test]
    fn check_rejects_a_corrupted_fig10_row_and_a_changed_repeat() {
        let Reference {
            workloads,
            placements,
            mut rows,
        } = reference(root()).unwrap();
        let best = expected_best(&rows).unwrap();
        // An answer that quotes the committed best row of CG.
        let w = workloads.iter().position(|e| e.name == "CG").unwrap();
        let p = rows[w].iter().position(|r| r.predicted == best[w]).unwrap();
        let time: f64 = rows[w][p].predicted.parse().unwrap();
        let outcome = pandia_core::PlacementOutcome {
            placement: placements[p].clone(),
            n_threads: placements[p].total_threads(),
            speedup: 1.0,
            predicted_time: time,
        };
        let rec = Recommendation {
            best: outcome.clone(),
            use_multiple_sockets: true,
            use_smt: false,
            resource_saving: Some(outcome),
            tolerance: TOLERANCE,
        };
        let answers = vec![(w, rec.clone()), (w, rec.clone())];
        check(&answers, &workloads, &best).unwrap();

        let mut changed = rec.clone();
        changed.use_smt = true;
        let err = check(&[(w, rec), (w, changed)], &workloads, &best).unwrap_err();
        assert!(err.contains("repeat"), "{err}");

        let other = (p + 1) % rows[w].len();
        rows[w][other].predicted = printed(time - 0.5);
        let corrupted = expected_best(&rows).unwrap();
        assert!(check(&answers, &workloads, &corrupted)
            .unwrap_err()
            .contains("CG"));
    }
}
