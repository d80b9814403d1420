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
pub use predictor::{predict, predict_jobs, Prediction, PredictorConfig, ThreadPrediction};
pub use profiler::{
    measure_with_policy, ProfileAudit, ProfileConfig, ProfileReport, RobustnessPolicy,
    RunRecord, WorkloadProfiler,
};
pub use search::{
    best_placement, best_placement_with, placement_report, placement_report_with,
    PlacementOutcome, PlacementReport, Recommendation,
};
pub use workload_desc::WorkloadDescription;
