//! DVFS: applying the Turbo Boost operating point to resource capacities.
//!
//! Core-clocked capacities (instruction issue, private L1/L2 links) scale
//! with the chip's current frequency, which in turn depends on how many of
//! the chip's cores are active (paper §6.3, Figure 14). Uncore capacities
//! (shared L3, DRAM, interconnect) do not change.

use pandia_topology::{CoreId, MachineSpec};

/// The frequency operating point of each socket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DvfsState {
    /// Current frequency of each socket in GHz.
    pub socket_ghz: Vec<f64>,
    /// `socket_ghz / nominal_ghz` per socket, the multiplier for
    /// core-clocked capacities and intrinsic thread speed.
    pub socket_scale: Vec<f64>,
}

impl DvfsState {
    /// Computes the operating point from the number of active cores per
    /// socket.
    ///
    /// `fill_background` models the paper's profiling methodology of
    /// filling otherwise-idle cores with a core-local background load: when
    /// set, every socket runs at its all-core frequency regardless of
    /// occupancy.
    pub fn compute(
        spec: &MachineSpec,
        active_cores_per_socket: &[usize],
        turbo: bool,
        fill_background: bool,
    ) -> Self {
        let mut state = Self::default();
        state.compute_into(spec, active_cores_per_socket, turbo, fill_background);
        state
    }

    /// [`DvfsState::compute`] in place, reusing this state's buffers.
    pub fn compute_into(
        &mut self,
        spec: &MachineSpec,
        active_cores_per_socket: &[usize],
        turbo: bool,
        fill_background: bool,
    ) {
        self.socket_ghz.clear();
        self.socket_ghz.extend((0..spec.sockets).map(|s| {
            let active = if fill_background {
                spec.cores_per_socket
            } else {
                active_cores_per_socket.get(s).copied().unwrap_or(0).max(1)
            };
            spec.turbo.frequency_ghz(active, spec.cores_per_socket, turbo)
        }));
        self.socket_scale.clear();
        self.socket_scale.extend(self.socket_ghz.iter().map(|g| g / spec.turbo.nominal_ghz));
    }

    /// Frequency scale for the socket owning a core.
    pub fn scale_for_core(&self, spec: &MachineSpec, core: CoreId) -> f64 {
        self.socket_scale[spec.socket_of_core(core).0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandia_topology::MachineSpec;

    #[test]
    fn single_active_core_boosts_highest() {
        let spec = MachineSpec::x5_2();
        let lone = DvfsState::compute(&spec, &[1, 0], true, false);
        let busy = DvfsState::compute(&spec, &[18, 18], true, false);
        assert!(lone.socket_ghz[0] > busy.socket_ghz[0]);
        assert_eq!(lone.socket_ghz[0], 3.6);
        assert_eq!(busy.socket_ghz[0], 2.8);
    }

    #[test]
    fn fill_background_pins_all_core_frequency() {
        let spec = MachineSpec::x5_2();
        let filled = DvfsState::compute(&spec, &[1, 0], true, true);
        assert_eq!(filled.socket_ghz, vec![2.8, 2.8]);
    }

    #[test]
    fn disabled_turbo_runs_at_nominal() {
        let spec = MachineSpec::x5_2();
        let state = DvfsState::compute(&spec, &[1, 0], false, false);
        assert_eq!(state.socket_ghz, vec![2.3, 2.3]);
        assert_eq!(state.socket_scale, vec![1.0, 1.0]);
    }

    #[test]
    fn sockets_boost_independently() {
        let spec = MachineSpec::x5_2();
        let state = DvfsState::compute(&spec, &[18, 1], true, false);
        assert!(state.socket_ghz[1] > state.socket_ghz[0]);
        assert_eq!(state.scale_for_core(&spec, CoreId(0)), state.socket_scale[0]);
        assert_eq!(state.scale_for_core(&spec, CoreId(18)), state.socket_scale[1]);
    }

    #[test]
    fn empty_socket_defaults_to_single_core_point() {
        let spec = MachineSpec::x3_2();
        let state = DvfsState::compute(&spec, &[0, 0], true, false);
        // An idle socket's frequency is irrelevant; it just must be finite.
        assert!(state.socket_ghz.iter().all(|g| g.is_finite() && *g > 0.0));
    }
}
