//! Machine specifications and the DVFS (Turbo Boost) frequency model.
//!
//! A [`MachineSpec`] is the *ground truth* physical description used by the
//! simulator. Pandia itself never reads capacities from the spec: its
//! machine description generator (see `pandia-core`) measures them by
//! running stress applications through the [`crate::Platform`] interface,
//! exactly as the paper does on real hardware (§3).

use serde::{Deserialize, Serialize};

use crate::{
    error::TopologyError,
    ids::{CoreId, CtxId, SocketId},
};

/// Frequency model for Intel-style Turbo Boost (paper §6.3, Figure 14).
///
/// The achieved core frequency depends on how many cores of the same chip
/// are active: a single active core may run at the maximum boost frequency,
/// and the frequency steps down towards the all-core boost frequency as more
/// cores wake up. With boost disabled the chip runs at its nominal frequency
/// regardless of occupancy (which is *slower* than the all-core boost — the
/// paper notes that disabling Turbo Boost is a net loss even when all cores
/// are busy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TurboCurve {
    /// Nominal (base) frequency in GHz; used when boost is disabled.
    pub nominal_ghz: f64,
    /// Boost frequency with a single active core, in GHz.
    pub single_core_ghz: f64,
    /// Boost frequency with every core of the chip active, in GHz.
    pub all_core_ghz: f64,
}

impl TurboCurve {
    /// Creates a flat curve (no boost): every occupancy runs at `ghz`.
    pub fn flat(ghz: f64) -> Self {
        Self { nominal_ghz: ghz, single_core_ghz: ghz, all_core_ghz: ghz }
    }

    /// Returns the chip frequency in GHz for `active_cores` busy cores out
    /// of `cores_per_socket`, with boost enabled or disabled.
    ///
    /// The boost curve interpolates linearly between the single-core and
    /// all-core boost points, which matches the stepwise tables Intel
    /// publishes closely enough for modeling purposes.
    pub fn frequency_ghz(&self, active_cores: usize, cores_per_socket: usize, boost: bool) -> f64 {
        if !boost {
            return self.nominal_ghz;
        }
        if active_cores <= 1 || cores_per_socket <= 1 {
            return self.single_core_ghz;
        }
        let span = (cores_per_socket - 1) as f64;
        let pos = (active_cores.min(cores_per_socket) - 1) as f64;
        self.single_core_ghz + (self.all_core_ghz - self.single_core_ghz) * pos / span
    }

    /// Ratio of the frequency at `active_cores` to the all-core-active
    /// frequency, used to normalize profiling measurements.
    pub fn relative_to_all_core(
        &self,
        active_cores: usize,
        cores_per_socket: usize,
        boost: bool,
    ) -> f64 {
        let f = self.frequency_ghz(active_cores, cores_per_socket, boost);
        let all = self.frequency_ghz(cores_per_socket, cores_per_socket, boost);
        f / all
    }
}

/// The *structure* of a machine: socket/core/SMT counts only.
///
/// Pandia's predictor works from a measured machine description plus this
/// shape; it never consults the physical capacities of a [`MachineSpec`].
/// The shape is what the operating system reports about topology (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineShape {
    /// Number of processor sockets.
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Hardware thread slots per core.
    pub threads_per_core: usize,
}

impl MachineShape {
    /// Total number of physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total number of hardware contexts.
    pub fn total_contexts(&self) -> usize {
        self.total_cores() * self.threads_per_core
    }

    /// Socket owning a global core id.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Core owning a global context id.
    pub fn core_of_ctx(&self, ctx: CtxId) -> CoreId {
        CoreId(ctx.0 / self.threads_per_core)
    }

    /// Socket owning a global context id.
    pub fn socket_of_ctx(&self, ctx: CtxId) -> SocketId {
        self.socket_of_core(self.core_of_ctx(ctx))
    }

    /// Global context id of SMT `slot` on `core_in_socket` of `socket`.
    pub fn ctx(&self, socket: SocketId, core_in_socket: usize, slot: usize) -> CtxId {
        let core = socket.0 * self.cores_per_socket + core_in_socket;
        CtxId(core * self.threads_per_core + slot)
    }
}

/// Anything that exposes a machine's structural shape.
pub trait HasShape {
    /// The socket/core/SMT structure.
    fn shape(&self) -> MachineShape;
}

impl HasShape for MachineShape {
    fn shape(&self) -> MachineShape {
        *self
    }
}

impl HasShape for MachineSpec {
    fn shape(&self) -> MachineShape {
        MachineShape {
            sockets: self.sockets,
            cores_per_socket: self.cores_per_socket,
            threads_per_core: self.threads_per_core,
        }
    }
}

/// Physical description of a cache-coherent shared-memory machine.
///
/// Bandwidths are in GB/s; instruction rates in giga-instructions per
/// second. Capacities that scale with the core clock (`core` issue rate and
/// the private L1/L2 links) are given *at nominal frequency*; the simulator
/// scales them by the current DVFS point. Uncore capacities (L3, DRAM,
/// interconnect) are frequency-independent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Marketing name of the model, e.g. `"X5-2 (Haswell)"`.
    pub name: String,
    /// Number of processor sockets (chips).
    pub sockets: usize,
    /// Number of physical cores per socket.
    pub cores_per_socket: usize,
    /// Number of hardware thread slots (SMT contexts) per core.
    pub threads_per_core: usize,
    /// Peak instruction issue rate per core at nominal frequency.
    pub core_ipc_rate: f64,
    /// Multiplier applied to a core's issue capacity when both SMT slots are
    /// occupied, modeling front-end contention (≤ 1.0).
    pub smt_frontend_factor: f64,
    /// Fraction of a core's issue width a *single* thread can sustain
    /// (dependency/ILP limit, < 1.0 on real cores). Two SMT threads can
    /// jointly exceed this, up to `smt_frontend_factor` of the full width —
    /// which is why SMT adds throughput in Figure 14's 37-72 thread region.
    pub single_thread_ilp: f64,
    /// Per-unit latency a thread pays for each co-resident SMT thread's
    /// burst excess (`m - 1` during the peer's high-demand phase): the
    /// front-end interference behind the paper's core-burstiness factor
    /// (§2.3). 0.0 disables the effect.
    pub smt_burst_collision: f64,
    /// Per-core L1 bandwidth at nominal frequency.
    pub l1_bw_per_core: f64,
    /// Per-core L2 bandwidth at nominal frequency.
    pub l2_bw_per_core: f64,
    /// Per-core link bandwidth into the shared L3.
    pub l3_bw_per_link: f64,
    /// Aggregate L3 bandwidth sustainable per socket (less than
    /// `cores_per_socket * l3_bw_per_link` on wide chips — paper §3.1).
    pub l3_bw_aggregate: f64,
    /// DRAM bandwidth per socket (all channels combined).
    pub dram_bw_per_socket: f64,
    /// Bandwidth of each inter-socket interconnect link. The interconnect is
    /// fully connected: one link per unordered socket pair.
    pub interconnect_bw_per_link: f64,
    /// One-way latency cost factor of crossing sockets, in abstract time
    /// units per unit of communication; feeds the simulator's communication
    /// model.
    pub interconnect_latency: f64,
    /// L1 data cache size per core, KiB.
    pub l1_kib: f64,
    /// L2 cache size per core, KiB.
    pub l2_kib: f64,
    /// Shared L3 size per socket, MiB.
    pub l3_mib: f64,
    /// Whether the LLC uses adaptive insertion policies (paper §2.2): if
    /// true, performance falls off gradually when the working set outgrows
    /// the cache; if false (older parts such as Westmere), there is a sharp
    /// cliff.
    pub adaptive_llc: bool,
    /// Whether the cores implement AVX (Sort-Join requires it; the X2-4
    /// Westmere does not have it — paper §6.2).
    pub has_avx: bool,
    /// DVFS model.
    pub turbo: TurboCurve,
}

impl MachineSpec {
    /// Validates structural and capacity invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let check = |ok: bool, reason: &str| -> Result<(), TopologyError> {
            if ok {
                Ok(())
            } else {
                Err(TopologyError::InvalidSpec { reason: reason.to_string() })
            }
        };
        check(self.sockets >= 1, "machine must have at least one socket")?;
        check(self.cores_per_socket >= 1, "sockets must have at least one core")?;
        check(self.threads_per_core >= 1, "cores must have at least one hardware thread")?;
        check(self.core_ipc_rate > 0.0, "core instruction rate must be positive")?;
        check(
            self.smt_frontend_factor > 0.0 && self.smt_frontend_factor <= 1.0,
            "SMT front-end factor must be in (0, 1]",
        )?;
        check(
            self.single_thread_ilp > 0.0 && self.single_thread_ilp <= 1.0,
            "single-thread ILP fraction must be in (0, 1]",
        )?;
        check(
            self.smt_burst_collision >= 0.0 && self.smt_burst_collision <= 2.0,
            "SMT burst-collision cost must be in [0, 2]",
        )?;
        for (v, what) in [
            (self.l1_bw_per_core, "L1 bandwidth must be positive and finite"),
            (self.l2_bw_per_core, "L2 bandwidth must be positive and finite"),
            (self.l3_bw_per_link, "L3 link bandwidth must be positive and finite"),
            (self.l3_bw_aggregate, "L3 aggregate bandwidth must be positive and finite"),
            (self.dram_bw_per_socket, "DRAM bandwidth must be positive and finite"),
        ] {
            check(v > 0.0 && v.is_finite(), what)?;
        }
        check(
            self.sockets == 1 || self.interconnect_bw_per_link > 0.0,
            "multi-socket machines need interconnect bandwidth",
        )?;
        check(
            self.interconnect_latency >= 0.0 && self.interconnect_latency.is_finite(),
            "interconnect latency must be non-negative and finite",
        )?;
        check(
            self.turbo.nominal_ghz > 0.0
                && self.turbo.single_core_ghz >= self.turbo.all_core_ghz
                && self.turbo.all_core_ghz > 0.0,
            "turbo curve must satisfy single-core >= all-core > 0",
        )?;
        Ok(())
    }

    /// Total number of physical cores in the machine.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total number of hardware contexts (SMT slots) in the machine.
    pub fn total_contexts(&self) -> usize {
        self.total_cores() * self.threads_per_core
    }

    /// Socket that owns a global core id.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Core that owns a global hardware context id.
    pub fn core_of_ctx(&self, ctx: CtxId) -> CoreId {
        CoreId(ctx.0 / self.threads_per_core)
    }

    /// Socket that owns a global hardware context id.
    pub fn socket_of_ctx(&self, ctx: CtxId) -> SocketId {
        self.socket_of_core(self.core_of_ctx(ctx))
    }

    /// Global context id of SMT `slot` on `core` of `socket`.
    pub fn ctx(&self, socket: SocketId, core_in_socket: usize, slot: usize) -> CtxId {
        let core = socket.0 * self.cores_per_socket + core_in_socket;
        CtxId(core * self.threads_per_core + slot)
    }

    /// Number of unordered socket pairs (interconnect links).
    pub fn interconnect_links(&self) -> usize {
        self.sockets * self.sockets.saturating_sub(1) / 2
    }

    /// Index of the interconnect link between two distinct sockets in the
    /// canonical unordered-pair ordering `(0,1), (0,2), ..., (1,2), ...`.
    pub fn link_index(&self, a: SocketId, b: SocketId) -> Option<usize> {
        if a == b {
            return None;
        }
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        // Links with first endpoint < lo, then offset within lo's group.
        let before: usize = (0..lo).map(|s| self.sockets - 1 - s).sum();
        Some(before + (hi - lo - 1))
    }

    /// Two-socket Haswell system (Oracle X5-2, Xeon E5-2699 v3): 18 cores
    /// per socket, 72 hardware threads — the largest machine in §6.1.
    pub fn x5_2() -> Self {
        Self {
            name: "X5-2 (Haswell)".into(),
            sockets: 2,
            cores_per_socket: 18,
            threads_per_core: 2,
            core_ipc_rate: 9.2, // 4-wide at 2.3 GHz nominal
            smt_frontend_factor: 0.92,
            single_thread_ilp: 0.78,
            smt_burst_collision: 0.30,
            l1_bw_per_core: 95.0,
            l2_bw_per_core: 45.0,
            l3_bw_per_link: 28.0,
            l3_bw_aggregate: 320.0,
            dram_bw_per_socket: 62.0,
            interconnect_bw_per_link: 38.0,
            interconnect_latency: 1.0,
            l1_kib: 32.0,
            l2_kib: 256.0,
            l3_mib: 45.0,
            adaptive_llc: true,
            has_avx: true,
            turbo: TurboCurve { nominal_ghz: 2.3, single_core_ghz: 3.6, all_core_ghz: 2.8 },
        }
    }

    /// Two-socket Ivy Bridge system (Oracle X4-2): 8 cores per socket, 32
    /// hardware threads.
    pub fn x4_2() -> Self {
        Self {
            name: "X4-2 (Ivy Bridge)".into(),
            sockets: 2,
            cores_per_socket: 8,
            threads_per_core: 2,
            core_ipc_rate: 13.2, // 4-wide at 3.3 GHz nominal
            smt_frontend_factor: 0.91,
            single_thread_ilp: 0.8,
            smt_burst_collision: 0.28,
            l1_bw_per_core: 130.0,
            l2_bw_per_core: 55.0,
            l3_bw_per_link: 30.0,
            l3_bw_aggregate: 190.0,
            dram_bw_per_socket: 55.0,
            interconnect_bw_per_link: 32.0,
            interconnect_latency: 1.05,
            l1_kib: 32.0,
            l2_kib: 256.0,
            l3_mib: 25.0,
            adaptive_llc: true,
            has_avx: true,
            turbo: TurboCurve { nominal_ghz: 3.3, single_core_ghz: 4.0, all_core_ghz: 3.6 },
        }
    }

    /// Two-socket Sandy Bridge system (Oracle X3-2): 8 cores per socket, 32
    /// hardware threads.
    pub fn x3_2() -> Self {
        Self {
            name: "X3-2 (Sandy Bridge)".into(),
            sockets: 2,
            cores_per_socket: 8,
            threads_per_core: 2,
            core_ipc_rate: 11.6, // 4-wide at 2.9 GHz nominal
            smt_frontend_factor: 0.90,
            single_thread_ilp: 0.78,
            smt_burst_collision: 0.30,
            l1_bw_per_core: 110.0,
            l2_bw_per_core: 48.0,
            l3_bw_per_link: 26.0,
            l3_bw_aggregate: 160.0,
            dram_bw_per_socket: 48.0,
            interconnect_bw_per_link: 30.0,
            interconnect_latency: 1.1,
            l1_kib: 32.0,
            l2_kib: 256.0,
            l3_mib: 20.0,
            adaptive_llc: true,
            has_avx: true,
            turbo: TurboCurve { nominal_ghz: 2.9, single_core_ghz: 3.8, all_core_ghz: 3.3 },
        }
    }

    /// Four-socket Westmere system (Oracle X2-4): 10 cores per socket, 80
    /// hardware threads, no adaptive caches, no AVX (paper §6.2).
    pub fn x2_4() -> Self {
        Self {
            name: "X2-4 (Westmere)".into(),
            sockets: 4,
            cores_per_socket: 10,
            threads_per_core: 2,
            core_ipc_rate: 9.6, // 4-wide at 2.4 GHz nominal
            smt_frontend_factor: 0.88,
            single_thread_ilp: 0.74,
            smt_burst_collision: 0.40,
            l1_bw_per_core: 80.0,
            l2_bw_per_core: 38.0,
            l3_bw_per_link: 20.0,
            l3_bw_aggregate: 120.0,
            dram_bw_per_socket: 34.0,
            interconnect_bw_per_link: 25.0,
            interconnect_latency: 1.4,
            l1_kib: 32.0,
            l2_kib: 256.0,
            l3_mib: 30.0,
            adaptive_llc: false,
            has_avx: false,
            turbo: TurboCurve { nominal_ghz: 2.4, single_core_ghz: 2.8, all_core_ghz: 2.67 },
        }
    }

    /// The toy machine of the paper's worked example (Figure 3): two
    /// dual-core sockets with no caches, instruction throughput 10 per core,
    /// memory bandwidth 100 per socket and an interconnect of 50.
    ///
    /// Cache links get effectively unlimited capacity so they never contend,
    /// matching the "no caches" simplification of the example.
    pub fn toy() -> Self {
        const UNLIMITED: f64 = 1.0e12;
        Self {
            name: "toy (Figure 3)".into(),
            sockets: 2,
            cores_per_socket: 2,
            threads_per_core: 1,
            core_ipc_rate: 10.0,
            smt_frontend_factor: 1.0,
            single_thread_ilp: 1.0,
            smt_burst_collision: 0.0,
            l1_bw_per_core: UNLIMITED,
            l2_bw_per_core: UNLIMITED,
            l3_bw_per_link: UNLIMITED,
            l3_bw_aggregate: UNLIMITED,
            dram_bw_per_socket: 100.0,
            interconnect_bw_per_link: 50.0,
            interconnect_latency: 1.0,
            l1_kib: 0.0,
            l2_kib: 0.0,
            l3_mib: 0.0,
            adaptive_llc: true,
            has_avx: true,
            turbo: TurboCurve::flat(1.0),
        }
    }

    /// All four evaluated machine presets, largest two-socket first.
    pub fn evaluation_machines() -> Vec<Self> {
        vec![Self::x5_2(), Self::x4_2(), Self::x3_2(), Self::x2_4()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for m in MachineSpec::evaluation_machines() {
            m.validate().unwrap_or_else(|e| panic!("{} invalid: {e}", m.name));
        }
        MachineSpec::toy().validate().unwrap();
    }

    #[test]
    fn x5_2_dimensions_match_paper() {
        let m = MachineSpec::x5_2();
        assert_eq!(m.total_cores(), 36);
        assert_eq!(m.total_contexts(), 72);
    }

    #[test]
    fn x2_4_dimensions_match_paper() {
        let m = MachineSpec::x2_4();
        assert_eq!(m.sockets, 4);
        assert_eq!(m.total_contexts(), 80);
        assert!(!m.adaptive_llc);
        assert!(!m.has_avx);
    }

    #[test]
    fn ctx_mapping_round_trips() {
        let m = MachineSpec::x5_2();
        let ctx = m.ctx(SocketId(1), 3, 1);
        assert_eq!(m.socket_of_ctx(ctx), SocketId(1));
        assert_eq!(m.core_of_ctx(ctx), CoreId(18 + 3));
        assert_eq!(ctx.0 % m.threads_per_core, 1);
    }

    #[test]
    fn link_index_covers_all_pairs_once() {
        let m = MachineSpec::x2_4();
        let mut seen = vec![false; m.interconnect_links()];
        for a in 0..m.sockets {
            for b in 0..m.sockets {
                let idx = m.link_index(SocketId(a), SocketId(b));
                if a == b {
                    assert!(idx.is_none());
                } else {
                    let idx = idx.unwrap();
                    assert_eq!(idx, m.link_index(SocketId(b), SocketId(a)).unwrap());
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every link index hit");
        assert_eq!(m.interconnect_links(), 6);
    }

    #[test]
    fn turbo_interpolates_between_boost_points() {
        let t = TurboCurve { nominal_ghz: 2.3, single_core_ghz: 3.6, all_core_ghz: 2.8 };
        assert_eq!(t.frequency_ghz(1, 18, true), 3.6);
        assert_eq!(t.frequency_ghz(18, 18, true), 2.8);
        let mid = t.frequency_ghz(9, 18, true);
        assert!(mid < 3.6 && mid > 2.8);
        assert_eq!(t.frequency_ghz(5, 18, false), 2.3);
        // Disabling boost is never faster than all-core boost.
        assert!(t.frequency_ghz(18, 18, false) < t.frequency_ghz(18, 18, true));
    }

    #[test]
    fn turbo_monotone_decreasing_in_occupancy() {
        let t = MachineSpec::x5_2().turbo;
        let mut prev = f64::INFINITY;
        for a in 1..=18 {
            let f = t.frequency_ghz(a, 18, true);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut m = MachineSpec::x3_2();
        m.sockets = 0;
        assert!(m.validate().is_err());
        let mut m = MachineSpec::x3_2();
        m.smt_frontend_factor = 1.5;
        assert!(m.validate().is_err());
        let mut m = MachineSpec::x3_2();
        m.dram_bw_per_socket = -1.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn bad_interconnect_latency_is_rejected() {
        // The simulator multiplies the latency into every communication
        // term, so a negative or non-finite one would run silently.
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = MachineSpec::x5_2();
            m.interconnect_latency = bad;
            match m.validate() {
                Err(TopologyError::InvalidSpec { reason }) => {
                    assert!(reason.contains("interconnect latency"), "{bad}: {reason}")
                }
                other => panic!("latency {bad} must be rejected: {other:?}"),
            }
        }
        let mut m = MachineSpec::x5_2();
        m.interconnect_latency = 0.0;
        assert!(m.validate().is_ok(), "a zero latency is valid");
    }

    #[test]
    fn shape_mapping_agrees_with_spec_helpers() {
        let spec = MachineSpec::x2_4();
        let shape = spec.shape();
        assert_eq!(shape.total_cores(), spec.total_cores());
        assert_eq!(shape.total_contexts(), spec.total_contexts());
        for ctx in [0, 1, 19, 20, 79] {
            let c = CtxId(ctx);
            assert_eq!(shape.core_of_ctx(c), spec.core_of_ctx(c));
            assert_eq!(shape.socket_of_ctx(c), spec.socket_of_ctx(c));
        }
        assert_eq!(shape.ctx(SocketId(2), 3, 1), spec.ctx(SocketId(2), 3, 1));
        // HasShape on a shape is the identity.
        assert_eq!(shape.shape(), shape);
    }

    #[test]
    fn turbo_relative_to_all_core_normalizes() {
        let t = MachineSpec::x5_2().turbo;
        assert!((t.relative_to_all_core(18, 18, true) - 1.0).abs() < 1e-12);
        assert!(t.relative_to_all_core(1, 18, true) > 1.2);
        assert_eq!(t.relative_to_all_core(1, 18, false), 1.0);
    }

    #[test]
    fn single_thread_ilp_below_smt_combined_width() {
        // Structural premise of the SMT model: one thread cannot reach
        // what two threads jointly can.
        for m in MachineSpec::evaluation_machines() {
            assert!(
                m.single_thread_ilp < m.smt_frontend_factor,
                "{}: ILP {} must be below SMT width share {}",
                m.name,
                m.single_thread_ilp,
                m.smt_frontend_factor
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let m = MachineSpec::x5_2();
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
