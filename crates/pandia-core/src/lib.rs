//! Pandia: contention-sensitive thread placement modeling.
//!
//! This crate implements the contribution of *“Pandia: comprehensive
//! contention-sensitive thread placement”* (Goodman, Varisteas, Harris —
//! EuroSys 2017): predicting the performance of an in-memory parallel
//! workload over different thread counts and thread placements, from a
//! machine description plus six profiling runs.
//!
//! The three components mirror the paper's Figure 2:
//!
//! * [`machine_gen`] — the **machine description generator** (§3): runs
//!   stress applications through a [`pandia_topology::Platform`] and
//!   measures link bandwidths (including both per-link and aggregate
//!   last-level-cache limits) and core instruction rates, producing a
//!   [`MachineDescription`].
//! * [`profiler`] — the **workload description generator** (§4): executes
//!   the six carefully-selected profiling runs and solves, step by step,
//!   for the workload's single-thread demand vector `d`, parallel fraction
//!   `p`, inter-socket overhead `os`, load-balancing factor `l`, and core
//!   burstiness `b`, producing a [`WorkloadDescription`].
//! * [`predictor`] — the **performance predictor** (§5): given both
//!   descriptions and a proposed placement, iteratively estimates per-
//!   thread slowdowns from resource contention, inter-socket
//!   communication, and load imbalance, feeding thread utilizations back
//!   between iterations until convergence, and combines the result with
//!   Amdahl's law into a final speedup prediction.
//!
//! [`search`] builds placement-optimization conveniences on top: best
//! placement, resource-saving placements, and socket/SMT recommendations.
//!
//! The crate deliberately depends only on the platform abstraction, never
//! on the simulator: pointing it at real hardware means implementing
//! [`pandia_topology::Platform`] with thread pinning and perf events.

pub mod coschedule;
pub mod description;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod machine_gen;
mod memo;
pub mod online;
pub mod planner;
pub mod predictor;
pub mod profiler;
pub mod search;
pub mod workload_desc;

pub use coschedule::{CoSchedule, CoScheduler, JobAssignment, Objective};
pub use description::MachineDescription;
pub use error::PandiaError;
pub use exec::{
    CacheStats, ExecContext, JointSession, PredictSession, PredictionCache,
    DEFAULT_CACHE_CAPACITY,
};
pub use fleet::{
    Admission, FleetAssignment, FleetSchedule, FleetScheduler, FleetStats, IncrementalFleet,
    DEFAULT_MEMO_CAPACITY,
};
pub use machine_gen::{describe_machine, MachineDescriptionGenerator, MachineGenConfig};
pub use online::{DriftPolicy, OnlineConfig, OnlineController, OnlineReport};
pub use planner::{plan, plan_with, scaling_profile, scaling_profile_with, CapacityPlan, ScalingPoint, Target};
pub use predictor::{predict, predict_jobs, Estimate, Prediction, PredictorConfig, ThreadPrediction};
pub use profiler::{
    measure_with_policy, ProfileAudit, ProfileConfig, ProfileReport, RobustnessPolicy,
    RunRecord, WorkloadProfiler,
};
pub use search::{
    best_placement, best_placement_with, placement_report, placement_report_with,
    PlacementOutcome, PlacementReport, Recommendation,
};
pub use workload_desc::WorkloadDescription;

/// Seeded pseudo-random inputs for the unit tests.
#[cfg(test)]
mod test_rng {
    use crate::MachineDescription;
    use pandia_topology::{CapacityProfile, MachineShape};

    /// SplitMix64: the next value of the stream `state` seeds.
    pub(crate) fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub(crate) fn draw(rng: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A machine of `shape` whose every resource, caches included, has a
    /// finite random capacity, so any of them can be the bottleneck, and
    /// whose SMT co-schedule factor is below 1.
    pub(crate) fn random_machine(rng: &mut u64, shape: MachineShape) -> MachineDescription {
        let mut m = MachineDescription::toy();
        m.shape = shape;
        m.capacities = CapacityProfile {
            core_issue: draw(rng, 4.0, 16.0),
            l1_per_core: draw(rng, 10.0, 80.0),
            l2_per_core: draw(rng, 5.0, 40.0),
            l3_per_link: draw(rng, 3.0, 30.0),
            l3_aggregate: draw(rng, 10.0, 100.0),
            dram_per_socket: draw(rng, 20.0, 120.0),
            interconnect_per_link: draw(rng, 10.0, 60.0),
        };
        m.smt_coschedule_factor = draw(rng, 0.5, 1.0);
        m
    }
}
