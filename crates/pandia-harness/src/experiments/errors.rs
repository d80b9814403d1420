//! Figure 11: prediction error bars per workload, including the
//! cross-machine portability study (11c/11d).

use pandia_core::{ExecContext, PredictSession, PredictorConfig, WorkloadDescription};
use pandia_topology::{CanonicalPlacement, HasShape, Platform, RunRequest};
use pandia_workloads::WorkloadEntry;

use crate::{
    context::MachineContext,
    metrics::{error_stats, machine_summary, ErrorStats, MachineSummary},
    runner::{measure_curve_with, CurvePoint, PlacementCurve},
};

use super::ExpResult;

/// Error bars for one machine (one panel of Figure 11).
#[derive(Debug, Clone)]
pub struct ErrorBars {
    /// Panel label, e.g. `"X5-2 (Haswell)"`.
    pub title: String,
    /// Per-workload statistics, in workload order.
    pub stats: Vec<ErrorStats>,
    /// The machine-level summary (§6.1 headline numbers).
    pub summary: MachineSummary,
    /// The underlying curves (reusable by other experiments).
    pub curves: Vec<PlacementCurve>,
}

/// Profiles every workload on the machine and computes its error bars
/// (Figure 11a/11b).
pub fn error_bars(
    ctx: &mut MachineContext,
    workloads: &[WorkloadEntry],
    placements: &[CanonicalPlacement],
) -> ExpResult<ErrorBars> {
    error_bars_with(&ExecContext::serial(), ctx, workloads, placements)
}

/// [`error_bars`] under an execution context: workloads are profiled and
/// measured across its workers, each against its own clone of the
/// machine context. The result is bit-identical to the serial sweep.
///
/// The inner per-workload curve runs on a one-worker view of the context
/// (sharing its cache) so the thread count stays bounded by `jobs`.
pub fn error_bars_with(
    exec: &ExecContext,
    ctx: &MachineContext,
    workloads: &[WorkloadEntry],
    placements: &[CanonicalPlacement],
) -> ExpResult<ErrorBars> {
    let _span = pandia_obs::span("harness", "error_bars").arg("workloads", workloads.len());
    let inner = exec.sequential();
    let evaluated = exec.parallel_map(workloads, |w| -> ExpResult<PlacementCurve> {
        let mut local = ctx.clone();
        let profile = local.profile(w)?;
        measure_curve_with(
            &inner,
            &local,
            &w.behavior,
            &profile.description,
            placements,
            &PredictorConfig::default(),
        )
    });
    let mut curves = Vec::with_capacity(evaluated.len());
    for curve in evaluated {
        curves.push(curve?);
    }
    finish(ctx.description.machine.clone(), curves)
}

/// The portability study (Figure 11c/11d): workload descriptions generated
/// on `source` are used to predict performance on `target`, whose own
/// measurements provide the ground truth.
pub fn portability(
    source: &mut MachineContext,
    target: &mut MachineContext,
    workloads: &[WorkloadEntry],
    target_placements: &[CanonicalPlacement],
) -> ExpResult<ErrorBars> {
    portability_with(&ExecContext::serial(), source, target, workloads, target_placements)
}

/// [`portability`] under an execution context, parallel across workloads;
/// bit-identical to the serial study.
pub fn portability_with(
    exec: &ExecContext,
    source: &MachineContext,
    target: &MachineContext,
    workloads: &[WorkloadEntry],
    target_placements: &[CanonicalPlacement],
) -> ExpResult<ErrorBars> {
    let _span = pandia_obs::span("harness", "portability").arg("workloads", workloads.len());
    let inner = exec.sequential();
    let evaluated = exec.parallel_map(workloads, |w| -> ExpResult<PlacementCurve> {
        let mut local_source = source.clone();
        let desc = local_source.profile(w)?.description;
        let desc = adapt_description(&desc, target);
        measure_on(&inner, target, w, &desc, target_placements)
    });
    let mut curves = Vec::with_capacity(evaluated.len());
    for curve in evaluated {
        curves.push(curve?);
    }
    finish(
        format!(
            "{} descriptions on {}",
            source.description.machine, target.description.machine
        ),
        curves,
    )
}

/// Retargets a description's memory-node layout to the target machine.
///
/// The paper reuses descriptions otherwise unchanged: the absolute `t1`
/// still belongs to the source machine, so absolute predicted times are
/// not comparable across machines — only the normalized metrics this
/// study computes are.
fn adapt_description(
    desc: &WorkloadDescription,
    target: &MachineContext,
) -> WorkloadDescription {
    desc.retarget_sockets(target.description.shape.sockets)
}

fn measure_on(
    exec: &ExecContext,
    ctx: &MachineContext,
    workload: &WorkloadEntry,
    desc: &WorkloadDescription,
    placements: &[CanonicalPlacement],
) -> ExpResult<PlacementCurve> {
    let shape = ctx.description.shape();
    let config = PredictorConfig::default();
    let session = PredictSession::new(exec, &ctx.description, desc, &config)?;
    let evaluated = exec.parallel_map_sized(
        placements,
        |canon| canon.total_threads() as f64,
        |canon| -> ExpResult<CurvePoint> {
            let placement = canon.instantiate(&shape)?;
            let mut platform = ctx.platform.clone();
            let measured = platform
                .run(&RunRequest::new(workload.behavior.clone(), placement.clone()))?
                .elapsed;
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
        workload: workload.name.to_string(),
        machine: ctx.description.machine.clone(),
        points,
    })
}

fn finish(title: String, curves: Vec<PlacementCurve>) -> ExpResult<ErrorBars> {
    let stats = curves.iter().map(error_stats).collect();
    let summary = machine_summary(&title, &curves);
    Ok(ErrorBars { title, stats, summary, curves })
}
