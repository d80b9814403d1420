//! Placement search and optimization on top of the predictor.
//!
//! The paper positions Pandia's predictions as inputs to real decisions
//! (§1): pick the fastest placement, decide whether a workload should span
//! sockets or use SMT, and find *resource-saving* placements — the
//! smallest allocation whose predicted performance stays within a given
//! fraction of the best ("limiting a workload to a small number of cores
//! when its scaling is poor").

use pandia_topology::CanonicalPlacement;
use serde::{Deserialize, Serialize};

use crate::{
    description::MachineDescription,
    error::PandiaError,
    exec::{ExecContext, PredictSession},
    predictor::{Estimate, PredictorConfig},
    workload_desc::WorkloadDescription,
};

/// One evaluated placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// The placement class.
    pub placement: CanonicalPlacement,
    /// Threads in the placement.
    pub n_threads: usize,
    /// Predicted speedup over the single-thread run.
    pub speedup: f64,
    /// Predicted execution time.
    pub predicted_time: f64,
}

/// Predictions for a whole set of candidate placements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// One outcome per candidate, in the input order.
    pub outcomes: Vec<PlacementOutcome>,
}

impl PlacementReport {
    /// The outcome with the highest predicted speedup.
    pub fn best(&self) -> Option<&PlacementOutcome> {
        self.outcomes
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
    }

    /// The smallest placement (fewest threads, then fewest cores) whose
    /// predicted speedup is at least `fraction` of the best.
    pub fn resource_saving(&self, fraction: f64) -> Option<&PlacementOutcome> {
        let best = self.best()?.speedup;
        self.outcomes
            .iter()
            .filter(|o| o.speedup >= fraction * best)
            .min_by_key(|o| (o.n_threads, o.placement.cores_used()))
    }
}

/// One candidate's outcome from its estimate.
fn outcome(estimate: Estimate, placement: &CanonicalPlacement) -> PlacementOutcome {
    let Estimate { n_threads, speedup, predicted_time } = estimate;
    PlacementOutcome { placement: placement.clone(), n_threads, speedup, predicted_time }
}

/// The index of the highest speedup: the last of equal maxima, as
/// [`PlacementReport::best`] picks.
fn best_index(estimates: &[Estimate]) -> Option<usize> {
    (0..estimates.len()).max_by(|&a, &b| estimates[a].speedup.total_cmp(&estimates[b].speedup))
}

/// Evaluates the predictor over a set of candidate placements.
///
/// Serial convenience for [`placement_report_with`] under
/// [`ExecContext::serial`].
pub fn placement_report(
    machine: &MachineDescription,
    workload: &WorkloadDescription,
    candidates: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementReport, PandiaError> {
    placement_report_with(&ExecContext::serial(), machine, workload, candidates, config)
}

/// Evaluates the predictor over a set of candidate placements, fanning
/// the evaluations across the context's workers and memoizing through
/// its cache.
///
/// The report is bit-identical to [`placement_report`] regardless of the
/// worker count: outcomes keep the input order, and each prediction is a
/// pure function of the sweep inputs.
pub fn placement_report_with(
    exec: &ExecContext,
    machine: &MachineDescription,
    workload: &WorkloadDescription,
    candidates: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementReport, PandiaError> {
    let _span = pandia_obs::span("search", "placement_report")
        .arg("workload", workload.name.as_str())
        .arg("candidates", candidates.len());
    let session = PredictSession::new(exec, machine, workload, config)?;
    let estimates = session.predict_batch(candidates)?;
    let outcomes = estimates.iter().zip(candidates).map(|(&e, c)| outcome(e, c)).collect();
    Ok(PlacementReport { outcomes })
}

/// Finds the best-predicted placement among candidates.
pub fn best_placement(
    machine: &MachineDescription,
    workload: &WorkloadDescription,
    candidates: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementOutcome, PandiaError> {
    best_placement_with(&ExecContext::serial(), machine, workload, candidates, config)
}

/// Finds the best-predicted placement using an execution context.
pub fn best_placement_with(
    exec: &ExecContext,
    machine: &MachineDescription,
    workload: &WorkloadDescription,
    candidates: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementOutcome, PandiaError> {
    let _span = pandia_obs::span("search", "best_placement")
        .arg("workload", workload.name.as_str())
        .arg("candidates", candidates.len());
    let session = PredictSession::new(exec, machine, workload, config)?;
    let estimates = session.predict_batch(candidates)?;
    let best = best_index(&estimates).ok_or(PandiaError::Mismatch {
        reason: "no candidate placements supplied".into(),
    })?;
    Ok(outcome(estimates[best], &candidates[best]))
}

/// High-level recommendations derived from a placement report (§1's
/// motivating decisions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The fastest predicted placement.
    pub best: PlacementOutcome,
    /// Whether the best placement uses more than one socket.
    pub use_multiple_sockets: bool,
    /// Whether the best placement co-locates threads on cores (SMT).
    pub use_smt: bool,
    /// The smallest placement predicted to stay within `tolerance` of the
    /// best performance.
    pub resource_saving: Option<PlacementOutcome>,
    /// Fraction of peak performance the resource-saving placement keeps.
    pub tolerance: f64,
}

impl Recommendation {
    /// Analyzes a candidate set and derives recommendations.
    pub fn analyze(
        machine: &MachineDescription,
        workload: &WorkloadDescription,
        candidates: &[CanonicalPlacement],
        tolerance: f64,
        config: &PredictorConfig,
    ) -> Result<Self, PandiaError> {
        Self::analyze_with(&ExecContext::serial(), machine, workload, candidates, tolerance, config)
    }

    /// Analyzes a candidate set using an execution context.
    pub fn analyze_with(
        exec: &ExecContext,
        machine: &MachineDescription,
        workload: &WorkloadDescription,
        candidates: &[CanonicalPlacement],
        tolerance: f64,
        config: &PredictorConfig,
    ) -> Result<Self, PandiaError> {
        let _span = pandia_obs::span("search", "analyze")
            .arg("workload", workload.name.as_str())
            .arg("candidates", candidates.len());
        let session = PredictSession::new(exec, machine, workload, config)?;
        let estimates = session.predict_batch(candidates)?;
        let best = best_index(&estimates)
            .ok_or(PandiaError::Mismatch { reason: "no candidate placements".into() })?;
        // The smallest placement within tolerance: the first of equal
        // minima, as `PlacementReport::resource_saving` picks.
        let floor = tolerance * estimates[best].speedup;
        let saving = (0..estimates.len())
            .filter(|&i| estimates[i].speedup >= floor)
            .min_by_key(|&i| (estimates[i].n_threads, candidates[i].cores_used()));
        let best = outcome(estimates[best], &candidates[best]);
        let use_multiple_sockets = best.placement.sockets_used() > 1;
        let use_smt =
            best.placement.sockets.iter().flat_map(|s| s.iter()).any(|&occ| occ >= 2);
        let resource_saving = saving.map(|i| outcome(estimates[i], &candidates[i]));
        Ok(Self { best, use_multiple_sockets, use_smt, resource_saving, tolerance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{DemandVector, MachineShape};

    fn toy_smt_machine() -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.shape = MachineShape { sockets: 2, cores_per_socket: 2, threads_per_core: 2 };
        m
    }

    fn candidates() -> Vec<CanonicalPlacement> {
        vec![
            CanonicalPlacement::new(vec![vec![1]]),
            CanonicalPlacement::new(vec![vec![1, 1]]),
            CanonicalPlacement::new(vec![vec![2]]),
            CanonicalPlacement::new(vec![vec![1], vec![1]]),
            CanonicalPlacement::new(vec![vec![1, 1], vec![1, 1]]),
            CanonicalPlacement::new(vec![vec![2, 2], vec![2, 2]]),
        ]
    }

    #[test]
    fn interconnect_bound_workload_prefers_few_threads() {
        // The worked-example workload saturates the interconnect with a
        // single thread; adding threads cannot help much.
        let m = toy_smt_machine();
        let w = WorkloadDescription::example();
        let report =
            placement_report(&m, &w, &candidates(), &PredictorConfig::default()).unwrap();
        let best = report.best().unwrap();
        assert!(
            best.n_threads <= 2,
            "saturated interconnect should keep the best placement small, got {}",
            best.n_threads
        );
    }

    #[test]
    fn compute_bound_workload_prefers_all_cores() {
        let m = toy_smt_machine();
        let w = WorkloadDescription {
            name: "cpu".into(),
            machine: m.machine.clone(),
            t1: 100.0,
            demand: DemandVector { instr: 8.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: vec![0.0, 0.0] },
            parallel_fraction: 0.99,
            inter_socket_overhead: 0.001,
            load_balance: 1.0,
            burstiness: 0.1,
        };
        let best = best_placement(&m, &w, &candidates(), &PredictorConfig::default()).unwrap();
        assert!(best.n_threads >= 4, "CPU-bound workload should scale out: {best:?}");
    }

    #[test]
    fn resource_saving_finds_smaller_equivalent_placement() {
        let m = toy_smt_machine();
        let w = WorkloadDescription::example();
        let report =
            placement_report(&m, &w, &candidates(), &PredictorConfig::default()).unwrap();
        let saving = report.resource_saving(0.95).unwrap();
        let best = report.best().unwrap();
        assert!(saving.n_threads <= best.n_threads);
        assert!(saving.speedup >= 0.95 * best.speedup);
    }

    #[test]
    fn recommendation_flags_are_consistent() {
        let m = toy_smt_machine();
        let w = WorkloadDescription::example();
        let rec =
            Recommendation::analyze(&m, &w, &candidates(), 0.9, &PredictorConfig::default())
                .unwrap();
        assert_eq!(rec.use_multiple_sockets, rec.best.placement.sockets_used() > 1);
        assert_eq!(rec.tolerance, 0.9);
        if let Some(rs) = &rec.resource_saving {
            assert!(rs.speedup >= 0.9 * rec.best.speedup);
        }
    }

    #[test]
    fn empty_candidates_error() {
        let m = toy_smt_machine();
        let w = WorkloadDescription::example();
        assert!(best_placement(&m, &w, &[], &PredictorConfig::default()).is_err());
    }
}
