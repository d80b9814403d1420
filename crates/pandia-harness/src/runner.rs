//! Measured-versus-predicted placement curves (Figures 1, 10, 13).

use pandia_core::{ExecContext, PandiaError, PredictSession, PredictorConfig, WorkloadDescription};
use pandia_sim::Behavior;
use pandia_topology::{CanonicalPlacement, HasShape, Platform, RunRequest};
use serde::{Deserialize, Serialize};

use crate::context::MachineContext;

/// One placement's measured and predicted times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// The placement.
    pub placement: CanonicalPlacement,
    /// Thread count.
    pub n_threads: usize,
    /// Measured execution time on the platform.
    pub measured: f64,
    /// Pandia's predicted execution time.
    pub predicted: f64,
}

/// A full measured-vs-predicted curve for one workload on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementCurve {
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// One point per evaluated placement, in figure order.
    pub points: Vec<CurvePoint>,
}

impl PlacementCurve {
    /// Fastest measured time.
    pub fn best_measured(&self) -> f64 {
        self.points.iter().map(|p| p.measured).fold(f64::INFINITY, f64::min)
    }

    /// Fastest predicted time.
    pub fn best_predicted(&self) -> f64 {
        self.points.iter().map(|p| p.predicted).fold(f64::INFINITY, f64::min)
    }

    /// The figures plot performance normalized to the best measured
    /// performance: `best_measured / measured` per placement (1.0 = best).
    pub fn normalized_measured(&self) -> Vec<f64> {
        let best = self.best_measured();
        self.points.iter().map(|p| best / p.measured).collect()
    }

    /// Predicted performance normalized the same way (against the best
    /// *predicted* performance, as in the paper's per-line normalization).
    pub fn normalized_predicted(&self) -> Vec<f64> {
        let best = self.best_predicted();
        self.points.iter().map(|p| best / p.predicted).collect()
    }

    /// The placement Pandia would choose (fastest predicted).
    pub fn predicted_best_placement(&self) -> Option<&CurvePoint> {
        self.points
            .iter()
            .min_by(|a, b| a.predicted.total_cmp(&b.predicted))
    }

    /// The placement that actually ran fastest.
    pub fn measured_best_placement(&self) -> Option<&CurvePoint> {
        self.points
            .iter()
            .min_by(|a, b| a.measured.total_cmp(&b.measured))
    }
}

/// Measures and predicts a workload over a set of placements.
///
/// Placements the platform cannot run (e.g. AVX workloads on non-AVX
/// machines) propagate as errors; callers filter workloads beforehand.
pub fn measure_curve(
    ctx: &mut MachineContext,
    behavior: &Behavior,
    description: &WorkloadDescription,
    placements: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementCurve, PandiaError> {
    measure_curve_with(&ExecContext::serial(), ctx, behavior, description, placements, config)
}

/// [`measure_curve`] under an execution context: placements are measured
/// and predicted across its workers (each worker runs its own clone of
/// the simulator, whose runs are pure functions of the request), and
/// predictions are memoized in its cache. The curve is bit-identical to
/// the serial one.
pub fn measure_curve_with(
    exec: &ExecContext,
    ctx: &MachineContext,
    behavior: &Behavior,
    description: &WorkloadDescription,
    placements: &[CanonicalPlacement],
    config: &PredictorConfig,
) -> Result<PlacementCurve, PandiaError> {
    let _span = pandia_obs::span("harness", "measure_curve")
        .arg("workload", description.name.as_str())
        .arg("placements", placements.len());
    let shape = ctx.description.shape();
    let session = PredictSession::new(exec, &ctx.description, description, config)?;
    // A point's cost scales with its thread count (entity count sizes
    // the simulated run and the prediction), so it steers the chunk plan.
    let evaluated = exec.parallel_map_sized(
        placements,
        |canon| canon.total_threads() as f64,
        |canon| -> Result<CurvePoint, PandiaError> {
            let placement = canon.instantiate(&shape)?;
            let mut platform = ctx.platform.clone();
            let measured =
                platform.run(&RunRequest::new(behavior.clone(), placement.clone()))?.elapsed;
            let predicted = session.predict(&placement)?.predicted_time;
            Ok(CurvePoint {
                placement: canon.clone(),
                n_threads: placement.n_threads(),
                measured,
                predicted,
            })
        },
    );
    let mut points = Vec::with_capacity(evaluated.len());
    for point in evaluated {
        points.push(point?);
    }
    Ok(PlacementCurve {
        workload: description.name.clone(),
        machine: ctx.description.machine.clone(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_normalization_and_best_lookup() {
        let mk = |n: usize, measured: f64, predicted: f64| CurvePoint {
            placement: CanonicalPlacement::new(vec![vec![1; n]]),
            n_threads: n,
            measured,
            predicted,
        };
        let curve = PlacementCurve {
            workload: "w".into(),
            machine: "m".into(),
            points: vec![mk(1, 10.0, 11.0), mk(2, 5.0, 5.5), mk(4, 4.0, 6.0)],
        };
        assert_eq!(curve.best_measured(), 4.0);
        assert_eq!(curve.best_predicted(), 5.5);
        let nm = curve.normalized_measured();
        assert_eq!(nm[2], 1.0);
        assert!((nm[0] - 0.4).abs() < 1e-12);
        assert_eq!(curve.measured_best_placement().unwrap().n_threads, 4);
        assert_eq!(curve.predicted_best_placement().unwrap().n_threads, 2);
    }
}
