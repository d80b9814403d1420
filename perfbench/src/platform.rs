//! A [`Platform`] wrapper around the simulator that counts every run,
//! including the ones the machine-description generator and the
//! profiler make internally.
//!
//! Untraced, a run is a plain [`SimMachine::run`]. Traced, the same
//! request goes to `pandia_sim::engine::run_multi_stats`, which takes the
//! identical engine path and also returns the engine's segment and
//! solve counts; the run is timed as a `sim/run` span. Both give the
//! bare machine's result bit for bit (tested below). The traced path
//! skips the request checks `SimMachine::run` makes first (AVX support,
//! behaviour validity, stressor collisions); the untraced run of the
//! same seed still makes them, and every request here is valid.

use pandia_sim::{engine, Behavior, SimMachine};
use pandia_topology::{MachineSpec, Platform, PlatformError, RunRequest, RunResult, StressKind};

use crate::trace::Tracer;

/// The simulator as the benchmark drives it.
pub struct BenchSim<'t> {
    inner: SimMachine,
    tracer: &'t Tracer,
    runs: u64,
}

impl<'t> BenchSim<'t> {
    /// Wraps a simulated machine.
    pub fn new(inner: SimMachine, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            runs: 0,
        }
    }

    /// Runs executed so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// The wrapped machine.
    pub fn into_inner(self) -> SimMachine {
        self.inner
    }

    fn run_with_stats(&self, req: &RunRequest<Behavior>) -> Result<RunResult, PlatformError> {
        let group = engine::GroupInput {
            behavior: &req.workload,
            placement: &req.placement,
            data_placement: req.data_placement,
        };
        let inputs = engine::MultiRunInputs {
            spec: self.inner.spec(),
            groups: std::slice::from_ref(&group),
            stressors: &req.stressors,
            fill_background: req.fill_background,
            turbo: req.turbo,
            seed: req.seed,
        };
        let (mut results, stats) = engine::run_multi_stats(&inputs, &self.inner.config().engine)
            .map_err(PlatformError::from)?;
        let t = self.tracer;
        t.add("sim.segments", stats.segments);
        t.add("sim.segments_coalesced", stats.segments_coalesced);
        t.add("sim.solves", stats.solves);
        t.add("sim.solves_skipped", stats.solves_skipped);
        t.add("sim.solves_batched", stats.solves_batched);
        results.pop().ok_or_else(|| PlatformError::Internal {
            reason: "one group in, no result out".into(),
        })
    }
}

impl Platform for BenchSim<'_> {
    type Workload = Behavior;

    fn spec(&self) -> &MachineSpec {
        self.inner.spec()
    }

    fn stress_workload(&self, kind: StressKind) -> Behavior {
        self.inner.stress_workload(kind)
    }

    fn run(&mut self, req: &RunRequest<Behavior>) -> Result<RunResult, PlatformError> {
        self.runs += 1;
        if !self.tracer.enabled() {
            return self.inner.run(req);
        }
        self.tracer.call("sim", "run", || self.run_with_stats(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::{CanonicalPlacement, CtxId};

    fn bits(r: &RunResult) -> Vec<u64> {
        let c = &r.counters;
        let mut out = vec![
            r.elapsed.to_bits(),
            c.instructions.to_bits(),
            c.l1_bytes.to_bits(),
        ];
        out.extend([c.l2_bytes, c.l3_bytes, c.interconnect_bytes].map(f64::to_bits));
        out.extend(
            c.dram_bytes
                .iter()
                .chain(&r.per_thread_busy)
                .map(|v| v.to_bits()),
        );
        out
    }

    #[test]
    fn traced_runs_are_bit_identical_to_the_bare_machine() {
        let spec = MachineSpec::x3_2();
        let tracer = Tracer::on();
        let mut traced = BenchSim::new(SimMachine::new(spec.clone()), &tracer);
        let mut bare = SimMachine::new(spec.clone());
        let mut requests = Vec::new();
        for (i, w) in pandia_workloads::paper_suite()
            .iter()
            .enumerate()
            .step_by(4)
        {
            for canon in [
                vec![vec![1]],
                vec![vec![2, 1], vec![1]],
                vec![vec![2; 8], vec![2; 8]],
            ] {
                let placement = CanonicalPlacement::new(canon).instantiate(&spec).unwrap();
                requests.push(RunRequest::new(w.behavior.clone(), placement).with_seed(i as u64));
            }
            let placement = CanonicalPlacement::new(vec![vec![1, 1]])
                .instantiate(&spec)
                .unwrap();
            let free = (0..spec.total_contexts())
                .map(CtxId)
                .find(|c| !placement.contexts().contains(c))
                .unwrap();
            requests.push(
                RunRequest::new(w.behavior.clone(), placement)
                    .with_stressor(StressKind::DramLocal, free),
            );
        }
        for req in &requests {
            assert_eq!(
                bits(&traced.run(req).unwrap()),
                bits(&bare.run(req).unwrap())
            );
        }
        assert_eq!(traced.runs(), requests.len() as u64);
        assert_eq!(tracer.phases().count("sim/run"), requests.len() as u64);
        assert!(tracer.counter("sim.segments") > 0);
    }
}
