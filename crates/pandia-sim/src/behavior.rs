//! The simulator's workload description language.
//!
//! A [`Behavior`] is the ground-truth analogue of a benchmark binary: it
//! says how much work the workload performs, what each unit of work demands
//! from the machine, and how the workload schedules, synchronizes, and
//! communicates. Pandia never reads a `Behavior` — it only observes runs
//! through the platform interface, exactly as it observes binaries on real
//! hardware.
//!
//! Normalization: one *work unit* is defined as one second of unimpeded
//! single-thread execution at the machine's all-core frequency. Hence
//! `total_work` equals the ideal solo runtime in seconds and the components
//! of [`UnitDemand`] are the rates a solo thread imposes on the machine.

use pandia_topology::DataPlacement;
use serde::{Deserialize, Serialize};

/// Resources consumed per work unit (equivalently: demand rates when a
/// thread progresses at full speed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitDemand {
    /// Instructions issued (giga-instructions per work unit).
    pub instr: f64,
    /// L1 traffic (GB per work unit).
    pub l1: f64,
    /// L2 traffic (GB per work unit).
    pub l2: f64,
    /// L3 traffic (GB per work unit).
    pub l3: f64,
    /// DRAM traffic (GB per work unit), before cache-overflow spill.
    pub dram: f64,
}

impl UnitDemand {
    /// A demand vector with all components zero.
    pub const ZERO: UnitDemand = UnitDemand { instr: 0.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: 0.0 };

    /// Component-wise scaling.
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            instr: self.instr * k,
            l1: self.l1 * k,
            l2: self.l2 * k,
            l3: self.l3 * k,
            dram: self.dram * k,
        }
    }
}

/// How demand intensity varies over time (paper §2.3, "core burstiness").
///
/// A thread's work alternates between a high-demand phase (fraction `duty`
/// of segments, demand multiplied by `amplitude`) and a low-demand phase
/// (multiplier chosen so the time-average multiplier is 1). `duty = 1`
/// means perfectly smooth demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstProfile {
    /// Fraction of time spent in the high-demand phase, in `(0, 1]`.
    pub duty: f64,
    /// Demand multiplier during the high phase, ≥ 1.
    pub amplitude: f64,
}

impl BurstProfile {
    /// Perfectly smooth demand.
    pub const SMOOTH: BurstProfile = BurstProfile { duty: 1.0, amplitude: 1.0 };

    /// A bursty profile spending `duty` of its time at `amplitude` times
    /// the average demand.
    pub fn bursty(duty: f64, amplitude: f64) -> Self {
        Self { duty, amplitude }
    }

    /// The amplitude actually applied: clamped at `1/duty` so that the
    /// time-average multiplier stays exactly 1 (an amplitude above that
    /// would inflate total demand rather than concentrate it).
    pub fn effective_amplitude(&self) -> f64 {
        if self.duty <= 0.0 {
            return 1.0;
        }
        self.amplitude.min(1.0 / self.duty)
    }

    /// Demand multiplier for the low phase so the average multiplier is 1.
    pub fn low_multiplier(&self) -> f64 {
        if self.duty >= 1.0 {
            return 1.0;
        }
        ((1.0 - self.duty * self.effective_amplitude()) / (1.0 - self.duty)).max(0.0)
    }

    /// Demand multiplier for a segment given a uniform draw in `[0, 1)`.
    pub fn multiplier(&self, draw: f64) -> f64 {
        if self.duty >= 1.0 {
            1.0
        } else if draw < self.duty {
            self.effective_amplitude()
        } else {
            self.low_multiplier()
        }
    }
}

/// How work is distributed across threads (paper §2.3, "load balancing").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheduling {
    /// Static partitioning: each thread owns `1/n` of the work and the run
    /// ends when the slowest thread finishes.
    Static,
    /// Dynamic load balancing (work stealing): threads draw from a shared
    /// pool, so aggregate throughput governs the runtime.
    Dynamic,
    /// A mix: `dynamic_fraction` of the work is in the shared pool, the
    /// rest statically partitioned.
    Partial {
        /// Fraction of the work that is dynamically balanced, in `[0, 1]`.
        dynamic_fraction: f64,
    },
}

impl Scheduling {
    /// Fraction of work placed in the shared pool.
    pub fn dynamic_fraction(&self) -> f64 {
        match self {
            Self::Static => 0.0,
            Self::Dynamic => 1.0,
            Self::Partial { dynamic_fraction } => dynamic_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Ground-truth description of a workload for the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Behavior {
    /// Workload name (also seeds its noise stream).
    pub name: String,
    /// Total work units; equals the ideal solo runtime in seconds.
    pub total_work: f64,
    /// Fraction of each work unit executed inside the global critical
    /// section (the ground truth behind the paper's `1 - p`).
    pub seq_fraction: f64,
    /// Per-work-unit resource demands.
    pub demand: UnitDemand,
    /// Per-thread working set in MiB (drives cache-overflow spill).
    pub working_set_mib: f64,
    /// Demand burstiness.
    pub burst: BurstProfile,
    /// Work distribution strategy.
    pub scheduling: Scheduling,
    /// Seconds of added latency per work unit per *fully active* remote
    /// peer thread, before scaling by the machine's interconnect latency
    /// factor (the ground truth behind the paper's `os`).
    pub comm_factor: f64,
    /// Fraction of `comm_factor` also paid for peers on the *same* socket
    /// (absorbed into the measured parallel fraction, as on real machines).
    pub intra_socket_comm: f64,
    /// Default data placement (overridable per run).
    pub data_placement: DataPlacement,
    /// Extra work added per additional thread, as a fraction of
    /// `total_work` (equake's growing reduction step — paper §6.3: zero for
    /// well-behaved workloads).
    pub growth_per_thread: f64,
    /// If set, only the first `k` threads perform work; the rest stay idle
    /// (the single-threaded NPO experiment of Figure 13a).
    pub active_threads: Option<usize>,
    /// Whether the workload requires AVX (Sort-Join; cannot run on the
    /// Westmere X2-4 — paper §6.2).
    pub requires_avx: bool,
}

impl Behavior {
    /// A minimal compute-only behavior, useful as a builder base and in
    /// tests.
    pub fn compute(name: &str, total_work: f64, instr_rate: f64) -> Self {
        Self {
            name: name.to_string(),
            total_work,
            seq_fraction: 0.0,
            demand: UnitDemand { instr: instr_rate, ..UnitDemand::ZERO },
            working_set_mib: 0.1,
            burst: BurstProfile::SMOOTH,
            scheduling: Scheduling::Dynamic,
            comm_factor: 0.0,
            intra_socket_comm: 0.0,
            data_placement: DataPlacement::Interleave,
            growth_per_thread: 0.0,
            active_threads: None,
            requires_avx: false,
        }
    }

    /// Total work when run with `n` threads, accounting for growth.
    pub fn work_for_threads(&self, n: usize) -> f64 {
        let extra = self.growth_per_thread * n.saturating_sub(1) as f64;
        self.total_work * (1.0 + extra)
    }

    /// Number of threads that actually execute work out of `n` placed.
    pub fn workers_of(&self, n: usize) -> usize {
        match self.active_threads {
            Some(k) => k.min(n),
            None => n,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !self.total_work.is_finite() || self.total_work <= 0.0 {
            return Err(format!("{}: total_work must be positive", self.name));
        }
        if !(0.0..1.0).contains(&self.seq_fraction) {
            return Err(format!("{}: seq_fraction must be in [0, 1)", self.name));
        }
        if !(self.burst.duty > 0.0 && self.burst.duty <= 1.0) {
            return Err(format!("{}: burst duty must be in (0, 1]", self.name));
        }
        if self.burst.amplitude < 1.0 {
            return Err(format!("{}: burst amplitude must be >= 1", self.name));
        }
        for (v, what) in [
            (self.demand.instr, "instr"),
            (self.demand.l1, "l1"),
            (self.demand.l2, "l2"),
            (self.demand.l3, "l3"),
            (self.demand.dram, "dram"),
            (self.working_set_mib, "working set"),
            (self.comm_factor, "comm factor"),
            (self.intra_socket_comm, "intra-socket comm"),
            (self.growth_per_thread, "growth"),
        ] {
            if v < 0.0 || !v.is_finite() {
                // lint: allow(H2): error path — the message is only built when validation fails
                return Err(format!("{}: {what} demand must be non-negative", self.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_low_multiplier_preserves_average() {
        let b = BurstProfile::bursty(0.25, 3.0);
        let avg = b.duty * b.amplitude + (1.0 - b.duty) * b.low_multiplier();
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(BurstProfile::SMOOTH.low_multiplier(), 1.0);
    }

    #[test]
    fn burst_multiplier_selects_phase_by_draw() {
        let b = BurstProfile::bursty(0.3, 2.0);
        assert_eq!(b.multiplier(0.1), 2.0);
        assert_eq!(b.multiplier(0.9), b.low_multiplier());
        assert_eq!(BurstProfile::SMOOTH.multiplier(0.99), 1.0);
    }

    #[test]
    fn burst_saturated_amplitude_preserves_the_average() {
        let b = BurstProfile::bursty(0.2, 10.0); // duty*amp would be 2 > 1
        assert_eq!(b.effective_amplitude(), 5.0);
        assert_eq!(b.low_multiplier(), 0.0);
        let avg = b.duty * b.effective_amplitude() + (1.0 - b.duty) * b.low_multiplier();
        assert!((avg - 1.0).abs() < 1e-12);
        // The failing regression case: duty close to 1 with amp > 1/duty.
        let b = BurstProfile::bursty(0.9356, 1.2834);
        let avg = b.duty * b.effective_amplitude() + (1.0 - b.duty) * b.low_multiplier();
        assert!((avg - 1.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn scheduling_dynamic_fraction() {
        assert_eq!(Scheduling::Static.dynamic_fraction(), 0.0);
        assert_eq!(Scheduling::Dynamic.dynamic_fraction(), 1.0);
        assert_eq!(Scheduling::Partial { dynamic_fraction: 0.4 }.dynamic_fraction(), 0.4);
        assert_eq!(Scheduling::Partial { dynamic_fraction: 7.0 }.dynamic_fraction(), 1.0);
    }

    #[test]
    fn growth_adds_work_per_thread() {
        let mut b = Behavior::compute("equakeish", 100.0, 1.0);
        b.growth_per_thread = 0.05;
        assert_eq!(b.work_for_threads(1), 100.0);
        assert!((b.work_for_threads(5) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn workers_respects_active_limit() {
        let mut b = Behavior::compute("npo1", 10.0, 1.0);
        assert_eq!(b.workers_of(8), 8);
        b.active_threads = Some(1);
        assert_eq!(b.workers_of(8), 1);
        assert_eq!(b.workers_of(0), 0);
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut b = Behavior::compute("x", 10.0, 1.0);
        assert!(b.validate().is_ok());
        b.seq_fraction = 1.0;
        assert!(b.validate().is_err());
        b.seq_fraction = 0.0;
        b.burst = BurstProfile { duty: 0.0, amplitude: 1.0 };
        assert!(b.validate().is_err());
        b.burst = BurstProfile::SMOOTH;
        b.demand.dram = -1.0;
        assert!(b.validate().is_err());
        b.demand.dram = 0.0;
        b.total_work = 0.0;
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_communication_inputs() {
        // The engine multiplies `intra_socket_comm` into every same-socket
        // communication term, so a NaN would poison each of them.
        for bad in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = Behavior::compute("x", 10.0, 1.0);
            b.intra_socket_comm = bad;
            let err = b.validate().expect_err("a bad intra-socket comm must be rejected");
            assert!(err.contains("intra-socket comm"), "{bad}: {err}");
            b.intra_socket_comm = 0.0;
            b.comm_factor = bad;
            assert!(b.validate().is_err(), "comm factor {bad} must be rejected");
        }
        let mut b = Behavior::compute("x", 10.0, 1.0);
        (b.comm_factor, b.intra_socket_comm) = (0.02, 0.0);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn scaled_demand_is_componentwise() {
        let d = UnitDemand { instr: 2.0, l1: 4.0, l2: 6.0, l3: 8.0, dram: 10.0 };
        let s = d.scaled(0.5);
        assert_eq!(s.instr, 1.0);
        assert_eq!(s.dram, 5.0);
    }
}
