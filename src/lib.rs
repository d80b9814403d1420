//! Pandia: comprehensive contention-sensitive thread placement.
//!
//! This crate is the facade of the Pandia workspace, a from-scratch Rust
//! reproduction of *“Pandia: comprehensive contention-sensitive thread
//! placement”* (Goodman, Varisteas, Harris — EuroSys 2017). It re-exports
//! the public API of every member crate:
//!
//! * [`topology`] — machine shapes, resources, placements, and the
//!   [`topology::Platform`] abstraction through which Pandia observes a
//!   machine;
//! * [`sim`] — the ground-truth contention simulator standing in for the
//!   paper's Xeon testbed;
//! * [`workloads`] — behavioral specs for the paper's 22 benchmarks;
//! * [`core`] — Pandia itself: the machine description generator (§3), the
//!   six-run workload profiler (§4), and the iterative performance
//!   predictor (§5);
//! * [`daemon`] — `pandiad`, the event-driven placement service over the
//!   incremental fleet scheduler;
//! * [`harness`] — the evaluation harness regenerating every figure and
//!   table of §6;
//! * [`obs`] — the unified telemetry layer (spans, metrics registry,
//!   Chrome-trace export) instrumenting all of the above.
//!
//! # Quickstart
//!
//! ```
//! use pandia::prelude::*;
//!
//! // A simulated two-socket Sandy Bridge machine.
//! let mut machine = SimMachine::new(MachineSpec::x3_2());
//!
//! // Measure the machine with stress kernels (§3)...
//! let description = describe_machine(&mut machine)?;
//!
//! // ...profile a workload with the six runs of §4...
//! let workload = pandia::workloads::by_name("CG").unwrap();
//! let profiler = WorkloadProfiler::new(&description);
//! let profile = profiler.profile(&mut machine, &workload.behavior, workload.name)?;
//!
//! // ...and predict the best placement without running anything else.
//! let candidates = PlacementEnumerator::new(&description).all();
//! let best = best_placement(
//!     &description,
//!     &profile.description,
//!     &candidates,
//!     &PredictorConfig::default(),
//! )?;
//! println!("best predicted placement: {} ({} threads)", best.placement, best.n_threads);
//! # Ok::<(), pandia::core::PandiaError>(())
//! ```

pub use pandia_core as core;
pub use pandia_daemon as daemon;
pub use pandia_harness as harness;
pub use pandia_obs as obs;
pub use pandia_sim as sim;
pub use pandia_topology as topology;
pub use pandia_workloads as workloads;

/// Commonly used items, importable with `use pandia::prelude::*`.
pub mod prelude {
    pub use pandia_core::{
        best_placement, best_placement_with, describe_machine, placement_report,
        placement_report_with, predict, predict_jobs, CacheStats, CoSchedule, CoScheduler,
        Estimate, ExecContext, FleetAssignment, FleetSchedule, FleetScheduler, FleetStats,
        IncrementalFleet, MachineDescription,
        MachineDescriptionGenerator, Objective, OnlineConfig, OnlineController, OnlineReport,
        PandiaError, PlacementOutcome, PlacementReport, PredictSession, Prediction,
        PredictionCache, PredictorConfig, ProfileConfig, ProfileReport, Recommendation,
        WorkloadDescription, WorkloadProfiler,
    };
    pub use pandia_daemon::{Daemon, DaemonConfig, Event};
    pub use pandia_sim::{Behavior, BurstProfile, Scheduling, SimConfig, SimMachine, UnitDemand};
    pub use pandia_topology::{
        CanonicalPlacement, CtxId, DataPlacement, DemandVector, HasShape, JobRequest,
        MachineShape, MachineSpec, MultiRunRequest, Placement, PlacementClass,
        PlacementEnumerator, Platform, RunRequest, RunResult, StressKind, ThreadId,
    };
    pub use pandia_workloads::{
        all_workloads, by_name, development_set, evaluation_set, paper_suite, WorkloadEntry,
    };
}
