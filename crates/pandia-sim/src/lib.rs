//! Ground-truth machine simulator for the Pandia reproduction.
//!
//! The paper evaluates Pandia on physical Intel Xeon machines, observing
//! them through thread pinning and hardware performance counters. This
//! crate provides the stand-in for that hardware: a *fluid contention
//! simulator* that executes [`Behavior`] descriptions of workloads on a
//! [`pandia_topology::MachineSpec`] and reports execution time plus
//! counters through the [`pandia_topology::Platform`] interface.
//!
//! The simulator is deliberately a *different kind of model* from Pandia's
//! predictor, so that prediction error is a meaningful quantity:
//!
//! * progress rates come from a max-min-fair progressive-filling
//!   equilibrium over every contended resource ([`equilibrium`]), not from
//!   a per-thread bottleneck factor;
//! * critical sections are a queueing model at a global lock (see
//!   [`engine`]), not an Amdahl term;
//! * demand is modulated by per-segment burst phases, so co-location
//!   penalties emerge from phase overlap rather than from a burstiness
//!   coefficient;
//! * working sets that outgrow the shared cache shift demand down the
//!   hierarchy ([`cache`]), gradually on adaptive-LLC machines and sharply
//!   on the Westmere-class machine;
//! * Turbo Boost raises core-clocked capacities when few cores are active
//!   ([`dvfs`]);
//! * every run carries seeded multiplicative measurement noise.

pub mod behavior;
pub mod cache;
pub mod dvfs;
pub mod engine;
pub mod equilibrium;
pub mod fault;
pub mod machine;
pub mod rng;
pub mod stress;
pub mod trace;

pub use behavior::{Behavior, BurstProfile, Scheduling, UnitDemand};
pub use engine::SimStats;
pub use equilibrium::{IncrementalSolver, SolveStats};
pub use fault::{FaultPlan, SimError};
pub use machine::{SimConfig, SimMachine};
pub use trace::{RunTrace, TraceSegment, DEFAULT_BOTTLENECK_UTIL};
