//! Figure 15 (beyond the paper): profiling under fault injection.
//!
//! The paper profiles on a quiesced machine. This experiment asks what
//! happens when it isn't: the simulator injects transient run failures,
//! counter dropout, interference bursts, and high-noise regimes at a
//! configurable intensity, and we profile through the storm twice — once
//! with the naive measurement pipeline (no retries, plain means) and once
//! with the robust one (bounded retries, median/MAD outlier rejection,
//! solver fallback). Accuracy is judged against ground truth measured on
//! the *clean* machine, so the score isolates what the faults did to the
//! learned description rather than to the evaluation runs.

use pandia_core::{
    ExecContext, PandiaError, PredictSession, PredictorConfig, ProfileConfig, RobustnessPolicy,
    WorkloadProfiler,
};
use pandia_sim::{FaultPlan, SimConfig, SimMachine};
use pandia_topology::{HasShape, Platform, RunRequest};
use serde::{Deserialize, Serialize};

use crate::{context::MachineContext, metrics::median};

use super::{Coverage, ExpResult};

/// Fault intensities swept by the experiment. Zero is the control: both
/// policies must match the fault-free pipeline exactly there.
pub const INTENSITIES: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];

/// Aggregated outcome of profiling one (intensity, policy) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Fault intensity in [0, 1].
    pub intensity: f64,
    /// `"naive"` or `"robust"`.
    pub policy: String,
    /// Profiles attempted (workloads × trials).
    pub profiles: usize,
    /// Profiles that failed outright (retry budget exhausted or the
    /// solver hit a degenerate measurement it could not recover from).
    pub failed_profiles: usize,
    /// Median over surviving trials of the per-trial median absolute
    /// prediction error (%) against clean-machine ground truth.
    pub median_error_pct: f64,
    /// Mean of the same per-trial medians (%).
    pub mean_error_pct: f64,
    /// Platform runs attempted across all profiles, including retries.
    pub attempts: usize,
    /// Retries issued after transient faults.
    pub retries: usize,
    /// Repeats abandoned after the retry budget ran out.
    pub lost_repeats: usize,
    /// Repeats dropped for degenerate (non-finite/non-positive) times.
    pub degenerate_repeats: usize,
    /// Repeats rejected as MAD outliers.
    pub outliers_rejected: usize,
    /// Parameter solves that fell back to the closed-form estimate.
    pub fallbacks: usize,
}

/// Full chaos-sweep results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Machine name.
    pub machine: String,
    /// Workloads profiled per cell.
    pub workloads: Vec<String>,
    /// Trials per workload per cell.
    pub trials: usize,
    /// One cell per (intensity, policy), intensities ascending, naive
    /// before robust.
    pub cells: Vec<ChaosCell>,
}

/// Ground truth for one workload: clean-machine times per placement.
struct GroundTruth {
    behavior: pandia_sim::Behavior,
    name: String,
    measured: Vec<f64>,
}

/// Runs the chaos sweep: for every intensity and both policies, profile
/// each workload `trials` times on a fault-injecting simulator and score
/// the learned description's predictions against clean ground truth.
pub fn run(
    exec: &ExecContext,
    ctx: &mut MachineContext,
    coverage: Coverage,
    trials: usize,
    seed: u64,
) -> ExpResult<ChaosResult> {
    let _span = pandia_obs::span("harness", "chaos").arg("trials", trials);
    let placements = coverage.placements(ctx);
    let shape = ctx.description.shape();
    let predictor = PredictorConfig::default();
    let workloads = super::runnable_workloads(ctx, pandia_workloads::development_set());

    // Ground truth once per workload: the clean machine, no faults.
    let mut truths = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let measured = exec.parallel_map_sized(
            &placements,
            |canon| canon.total_threads() as f64,
            |canon| -> Result<f64, PandiaError> {
                let placement = canon.instantiate(&shape)?;
                let mut clean = ctx.platform.clone();
                Ok(clean.run(&RunRequest::new(w.behavior.clone(), placement))?.elapsed)
            },
        );
        let mut times = Vec::with_capacity(measured.len());
        for t in measured {
            times.push(t?);
        }
        truths.push(GroundTruth {
            behavior: w.behavior.clone(),
            name: w.name.to_string(),
            measured: times,
        });
    }

    let policies =
        [("naive", RobustnessPolicy::naive()), ("robust", RobustnessPolicy::robust())];
    let mut cells = Vec::new();
    for (ii, &intensity) in INTENSITIES.iter().enumerate() {
        for (label, policy) in &policies {
            let mut cell = ChaosCell {
                intensity,
                policy: (*label).to_string(),
                profiles: 0,
                failed_profiles: 0,
                median_error_pct: 0.0,
                mean_error_pct: 0.0,
                attempts: 0,
                retries: 0,
                lost_repeats: 0,
                degenerate_repeats: 0,
                outliers_rejected: 0,
                fallbacks: 0,
            };
            let mut trial_medians = Vec::new();
            for (wi, truth) in truths.iter().enumerate() {
                for trial in 0..trials {
                    cell.profiles += 1;
                    // One fixed trial index → one fixed fault schedule,
                    // shared between the policies so they face the exact
                    // same storm.
                    let trial_seed = seed
                        ^ 0x9E37_79B9_7F4A_7C15u64
                            .wrapping_mul((ii * 1_000_000 + wi * 1_000 + trial + 1) as u64);
                    let mut faulty = SimMachine::with_config(
                        ctx.spec.clone(),
                        SimConfig::default()
                            .with_faults(FaultPlan::with_intensity(intensity)),
                    );
                    let config = ProfileConfig {
                        seed: trial_seed,
                        robustness: policy.clone(),
                        ..ProfileConfig::default()
                    };
                    let profiler = WorkloadProfiler::with_config(&ctx.description, config);
                    let report =
                        match profiler.profile(&mut faulty, &truth.behavior, &truth.name) {
                            Ok(report) => report,
                            Err(e) if e.is_transient() => {
                                cell.failed_profiles += 1;
                                continue;
                            }
                            Err(PandiaError::Degenerate { .. }) => {
                                cell.failed_profiles += 1;
                                continue;
                            }
                            Err(e) => return Err(e),
                        };
                    cell.attempts += report.audit.attempts;
                    cell.retries += report.audit.retries;
                    cell.lost_repeats += report.audit.lost_repeats;
                    cell.degenerate_repeats += report.audit.degenerate_repeats;
                    cell.outliers_rejected += report.audit.outliers_rejected;
                    cell.fallbacks += report.audit.fallbacks;

                    let session = PredictSession::new(
                        exec,
                        &ctx.description,
                        &report.description,
                        &predictor,
                    )?;
                    let predictions = exec.parallel_map_sized(
                        &placements,
                        |canon| canon.total_threads() as f64,
                        |canon| -> Result<f64, PandiaError> {
                            let placement = canon.instantiate(&shape)?;
                            Ok(session.predict(&placement)?.predicted_time)
                        },
                    );
                    let mut errors = Vec::with_capacity(predictions.len());
                    for (k, p) in predictions.into_iter().enumerate() {
                        let predicted = p?;
                        let measured = truth.measured[k];
                        errors.push(100.0 * (predicted - measured).abs() / measured);
                    }
                    trial_medians.push(median(&mut errors));
                }
            }
            cell.mean_error_pct = if trial_medians.is_empty() {
                0.0
            } else {
                trial_medians.iter().sum::<f64>() / trial_medians.len() as f64
            };
            cell.median_error_pct = median(&mut trial_medians);
            cells.push(cell);
        }
    }
    Ok(ChaosResult {
        machine: ctx.description.machine.clone(),
        workloads: truths.iter().map(|t| t.name.clone()).collect(),
        trials,
        cells,
    })
}

/// Renders the chaos table.
pub fn render(result: &ChaosResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Profiling under fault injection on {} ({} workloads × {} trials per cell)",
        result.machine,
        result.workloads.len(),
        result.trials
    );
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>9} {:>7} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "intensity",
        "policy",
        "profiles",
        "failed",
        "median err%",
        "mean err%",
        "retries",
        "outliers",
        "fallback",
        "lost"
    );
    for c in &result.cells {
        let _ = writeln!(
            out,
            "{:>9.1} {:>7} {:>9} {:>7} {:>12.2} {:>10.2} {:>8} {:>9} {:>9} {:>9}",
            c.intensity,
            c.policy,
            c.profiles,
            c.failed_profiles,
            c.median_error_pct,
            c.mean_error_pct,
            c.retries,
            c.outliers_rejected,
            c.fallbacks,
            c.lost_repeats
        );
    }
    out
}

/// Renders the chaos CSV (one row per cell).
pub fn to_csv(result: &ChaosResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "intensity,policy,profiles,failed_profiles,median_error_pct,mean_error_pct,\
         attempts,retries,lost_repeats,degenerate_repeats,outliers_rejected,fallbacks\n",
    );
    for c in &result.cells {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{},{},{},{},{},{}",
            c.intensity,
            c.policy,
            c.profiles,
            c.failed_profiles,
            c.median_error_pct,
            c.mean_error_pct,
            c.attempts,
            c.retries,
            c.lost_repeats,
            c.degenerate_repeats,
            c.outliers_rejected,
            c.fallbacks
        );
    }
    out
}
