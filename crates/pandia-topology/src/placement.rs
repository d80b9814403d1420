//! Thread placements: pinning software threads to hardware contexts.
//!
//! Because the paper's machines are homogeneous (every core identical,
//! every chip identical, fully connected interconnect — §2.2), a placement
//! is fully characterized by *how many* threads sit on each core of each
//! socket, not *which* cores. [`CanonicalPlacement`] captures that
//! equivalence class; [`Placement`] is a concrete pinning of numbered
//! threads to numbered contexts, which is what actually runs.

use serde::{Deserialize, Serialize};

use crate::{
    error::TopologyError,
    ids::{CoreId, CtxId, SocketId, ThreadId},
    spec::{HasShape, MachineShape},
};

/// A fully resolved hardware context: socket, core-in-socket, SMT slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HwContext {
    /// Owning socket.
    pub socket: SocketId,
    /// Core index within the socket.
    pub core_in_socket: usize,
    /// SMT slot within the core.
    pub slot: usize,
}

/// A concrete assignment of software threads to hardware contexts.
///
/// Thread `i` of the workload is pinned to `contexts()[i]`. At most one
/// workload thread may occupy a hardware context (stress applications are
/// co-scheduled separately via [`crate::RunRequest`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    ctxs: Vec<CtxId>,
}

impl Placement {
    /// Creates a placement, validating it against the machine.
    pub fn new(shape: &impl HasShape, ctxs: Vec<CtxId>) -> Result<Self, TopologyError> {
        let spec: MachineShape = shape.shape();
        if ctxs.is_empty() {
            return Err(TopologyError::EmptyPlacement);
        }
        let total = spec.total_contexts();
        let mut used = vec![false; total];
        for &ctx in &ctxs {
            if ctx.0 >= total {
                return Err(TopologyError::ContextOutOfRange { ctx: ctx.0, total });
            }
            if used[ctx.0] {
                return Err(TopologyError::ContextOversubscribed { ctx: ctx.0 });
            }
            used[ctx.0] = true;
        }
        Ok(Self { ctxs })
    }

    /// Pins `n` threads one-per-core on socket 0, then socket 1, etc.,
    /// using only the first SMT slot of each core ("spread" strategy).
    pub fn spread(shape: &impl HasShape, n: usize) -> Result<Self, TopologyError> {
        let spec: MachineShape = shape.shape();
        let mut ctxs = Vec::with_capacity(n);
        'outer: for s in 0..spec.sockets {
            for c in 0..spec.cores_per_socket {
                if ctxs.len() == n {
                    break 'outer;
                }
                ctxs.push(spec.ctx(SocketId(s), c, 0));
            }
        }
        if ctxs.len() < n {
            return Err(TopologyError::CanonicalMismatch {
                reason: format!("{n} threads exceed one-per-core capacity"),
            });
        }
        Self::new(&spec, ctxs)
    }

    /// Pins `n` threads as tightly as possible: fill both SMT slots of core
    /// 0 of socket 0, then core 1, and so on ("pack" strategy).
    pub fn packed(shape: &impl HasShape, n: usize) -> Result<Self, TopologyError> {
        let spec: MachineShape = shape.shape();
        if n > spec.total_contexts() {
            return Err(TopologyError::CanonicalMismatch {
                reason: format!("{n} threads exceed machine capacity"),
            });
        }
        let ctxs = (0..n).map(CtxId).collect();
        Self::new(&spec, ctxs)
    }

    /// Number of software threads.
    pub fn n_threads(&self) -> usize {
        self.ctxs.len()
    }

    /// The pinned context of each thread, indexed by thread id.
    pub fn contexts(&self) -> &[CtxId] {
        &self.ctxs
    }

    /// Context of one thread.
    pub fn ctx_of(&self, t: ThreadId) -> CtxId {
        self.ctxs[t.0]
    }

    /// Number of workload threads on each global core.
    pub fn threads_per_core(&self, shape: &impl HasShape) -> Vec<usize> {
        let spec: MachineShape = shape.shape();
        let mut counts = vec![0usize; spec.total_cores()];
        for &ctx in &self.ctxs {
            counts[spec.core_of_ctx(ctx).0] += 1;
        }
        counts
    }

    /// Number of workload threads on each socket.
    pub fn threads_per_socket(&self, shape: &impl HasShape) -> Vec<usize> {
        let spec: MachineShape = shape.shape();
        let mut counts = vec![0usize; spec.sockets];
        for &ctx in &self.ctxs {
            counts[spec.socket_of_ctx(ctx).0] += 1;
        }
        counts
    }

    /// Number of *distinct cores* hosting at least one thread, per socket.
    /// This drives the Turbo Boost operating point.
    pub fn active_cores_per_socket(&self, shape: &impl HasShape) -> Vec<usize> {
        let spec: MachineShape = shape.shape();
        let per_core = self.threads_per_core(&spec);
        let mut active = vec![0usize; spec.sockets];
        for (c, &n) in per_core.iter().enumerate() {
            if n > 0 {
                active[spec.socket_of_core(CoreId(c)).0] += 1;
            }
        }
        active
    }

    /// Whether thread `t` shares its core with at least one other workload
    /// thread (triggers the core-burstiness penalty, paper §5.1).
    pub fn shares_core(&self, shape: &impl HasShape, t: ThreadId) -> bool {
        let spec: MachineShape = shape.shape();
        let my_core = spec.core_of_ctx(self.ctxs[t.0]);
        self.ctxs
            .iter()
            .enumerate()
            .any(|(i, &c)| i != t.0 && spec.core_of_ctx(c) == my_core)
    }

    /// Number of sockets hosting at least one thread.
    pub fn sockets_used(&self, shape: &impl HasShape) -> usize {
        self.threads_per_socket(shape).iter().filter(|&&n| n > 0).count()
    }

    /// Reduces this placement to its canonical equivalence class.
    pub fn canonicalize(&self, shape: &impl HasShape) -> CanonicalPlacement {
        let spec: MachineShape = shape.shape();
        let per_core = self.threads_per_core(&spec);
        let mut sockets: Vec<Vec<u8>> = Vec::with_capacity(spec.sockets);
        for s in 0..spec.sockets {
            let mut occ: Vec<u8> = (0..spec.cores_per_socket)
                .map(|c| per_core[s * spec.cores_per_socket + c] as u8)
                .filter(|&n| n > 0)
                .collect();
            occ.sort_unstable_by(|a, b| b.cmp(a));
            if !occ.is_empty() {
                sockets.push(occ);
            }
        }
        sockets.sort_by(|a, b| b.cmp(a));
        CanonicalPlacement { sockets }
    }
}

/// A placement equivalence class on a homogeneous machine.
///
/// `sockets[s]` lists the per-core thread counts of the occupied cores of
/// one socket, sorted descending; the socket list itself is also sorted
/// descending so equal placements have equal representations. Empty sockets
/// are represented by empty vectors (or trailing omitted entries).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CanonicalPlacement {
    /// Per-socket descending core occupancies.
    pub sockets: Vec<Vec<u8>>,
}

impl CanonicalPlacement {
    /// Builds a canonical placement from per-socket occupancy lists,
    /// normalizing the ordering.
    pub fn new(mut sockets: Vec<Vec<u8>>) -> Self {
        for occ in &mut sockets {
            occ.retain(|&n| n > 0);
            occ.sort_unstable_by(|a, b| b.cmp(a));
        }
        sockets.retain(|occ| !occ.is_empty());
        sockets.sort_by(|a, b| b.cmp(a));
        Self { sockets }
    }

    /// Total number of threads across all sockets.
    pub fn total_threads(&self) -> usize {
        self.sockets.iter().flat_map(|s| s.iter()).map(|&n| n as usize).sum()
    }

    /// Number of occupied sockets.
    pub fn sockets_used(&self) -> usize {
        self.sockets.len()
    }

    /// Number of occupied cores across all sockets.
    pub fn cores_used(&self) -> usize {
        self.sockets.iter().map(|s| s.len()).sum()
    }

    /// Sort key matching the x-axis ordering of the paper's Figures 1
    /// and 10: first by total thread count, then by the occupancy pattern.
    pub fn sort_key(&self) -> (usize, Vec<Vec<u8>>) {
        (self.total_threads(), self.sockets.clone())
    }

    /// Instantiates a concrete [`Placement`]: canonical socket `k` maps to
    /// physical socket `k`, occupied cores map to the lowest-numbered cores,
    /// and thread ids are assigned socket-major, core-major, slot-minor.
    pub fn instantiate(&self, shape: &impl HasShape) -> Result<Placement, TopologyError> {
        let mut ctxs = Vec::with_capacity(self.total_threads());
        self.for_each_ctx(shape, |ctx| ctxs.push(ctx))?;
        // The walk only visits in-range contexts, each once.
        Ok(Placement { ctxs })
    }

    /// Visits, in thread order, the contexts [`Self::instantiate`] pins,
    /// without building the placement. The placement is checked against
    /// `shape` before anything is visited, so one that does not fit
    /// returns `instantiate`'s error and visits nothing: unchecked, `[[3]]`
    /// on a two-slot core would walk into the next core's slot and visit
    /// the contexts of `[[2, 1]]`.
    pub fn for_each_ctx(
        &self,
        shape: &impl HasShape,
        mut visit: impl FnMut(CtxId),
    ) -> Result<(), TopologyError> {
        let spec: MachineShape = shape.shape();
        if self.sockets.len() > spec.sockets {
            return Err(TopologyError::CanonicalMismatch {
                reason: format!(
                    "placement uses {} sockets but machine has {}",
                    self.sockets.len(),
                    spec.sockets
                ),
            });
        }
        for occ in &self.sockets {
            if occ.len() > spec.cores_per_socket {
                return Err(TopologyError::CanonicalMismatch {
                    reason: format!(
                        "socket occupies {} cores but machine has {} per socket",
                        occ.len(),
                        spec.cores_per_socket
                    ),
                });
            }
            for &n in occ {
                if n as usize > spec.threads_per_core {
                    return Err(TopologyError::CanonicalMismatch {
                        reason: format!(
                            "core hosts {n} threads but machine supports {} per core",
                            spec.threads_per_core
                        ),
                    });
                }
            }
        }
        if self.total_threads() == 0 {
            return Err(TopologyError::EmptyPlacement);
        }
        for (s, occ) in self.sockets.iter().enumerate() {
            for (c, &n) in occ.iter().enumerate() {
                for slot in 0..n as usize {
                    visit(spec.ctx(SocketId(s), c, slot));
                }
            }
        }
        Ok(())
    }
}

impl core::fmt::Display for CanonicalPlacement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[")?;
        for (i, occ) in self.sockets.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            for (j, n) in occ.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{n}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::PlacementEnumerator;
    use crate::spec::MachineSpec;

    fn spec() -> MachineSpec {
        MachineSpec::x3_2()
    }

    #[test]
    fn new_rejects_bad_placements() {
        let m = spec();
        assert_eq!(Placement::new(&m, vec![]), Err(TopologyError::EmptyPlacement));
        assert!(matches!(
            Placement::new(&m, vec![CtxId(999)]),
            Err(TopologyError::ContextOutOfRange { .. })
        ));
        assert!(matches!(
            Placement::new(&m, vec![CtxId(3), CtxId(3)]),
            Err(TopologyError::ContextOversubscribed { .. })
        ));
    }

    #[test]
    fn spread_uses_one_thread_per_core_first_socket_first() {
        let m = spec();
        let p = Placement::spread(&m, 10).unwrap();
        assert_eq!(p.n_threads(), 10);
        let per_socket = p.threads_per_socket(&m);
        assert_eq!(per_socket, vec![8, 2]);
        assert!(p.threads_per_core(&m).iter().all(|&n| n <= 1));
        assert!(Placement::spread(&m, 17).is_err());
    }

    #[test]
    fn packed_fills_smt_slots() {
        let m = spec();
        let p = Placement::packed(&m, 4).unwrap();
        // 4 threads on 2 cores, both slots each.
        let per_core = p.threads_per_core(&m);
        assert_eq!(per_core[0], 2);
        assert_eq!(per_core[1], 2);
        assert_eq!(p.active_cores_per_socket(&m), vec![2, 0]);
        assert!(p.shares_core(&m, ThreadId(0)));
    }

    #[test]
    fn canonicalize_is_placement_order_independent() {
        let m = spec();
        // Threads on socket1/core0(2 slots) and socket0/core5(1 slot), in
        // two different orders.
        let a = Placement::new(
            &m,
            vec![m.ctx(SocketId(1), 0, 0), m.ctx(SocketId(1), 0, 1), m.ctx(SocketId(0), 5, 0)],
        )
        .unwrap();
        let b = Placement::new(
            &m,
            vec![m.ctx(SocketId(0), 2, 0), m.ctx(SocketId(1), 7, 1), m.ctx(SocketId(1), 7, 0)],
        )
        .unwrap();
        assert_eq!(a.canonicalize(&m), b.canonicalize(&m));
        assert_eq!(a.canonicalize(&m).to_string(), "[2 | 1]");
    }

    #[test]
    fn canonical_instantiate_round_trips() {
        let m = spec();
        let canon = CanonicalPlacement::new(vec![vec![2, 1, 1], vec![2, 2]]);
        let p = canon.instantiate(&m).unwrap();
        assert_eq!(p.n_threads(), 8);
        assert_eq!(p.canonicalize(&m), canon);
    }

    #[test]
    fn canonical_rejects_oversized() {
        let m = spec();
        let too_many_cores = CanonicalPlacement::new(vec![vec![1; 9]]);
        assert!(too_many_cores.instantiate(&m).is_err());
        let too_deep = CanonicalPlacement::new(vec![vec![3]]);
        assert!(too_deep.instantiate(&m).is_err());
        let too_many_sockets = CanonicalPlacement::new(vec![vec![1], vec![1], vec![1]]);
        assert!(too_many_sockets.instantiate(&m).is_err());
    }

    /// `instantiate` before it was rebuilt on the walk, kept as its
    /// reference: check while pushing contexts, then validate them.
    fn spec_instantiate(
        c: &CanonicalPlacement,
        shape: &impl HasShape,
    ) -> Result<Placement, TopologyError> {
        let spec: MachineShape = shape.shape();
        if c.sockets.len() > spec.sockets {
            return Err(TopologyError::CanonicalMismatch {
                reason: format!(
                    "placement uses {} sockets but machine has {}",
                    c.sockets.len(),
                    spec.sockets
                ),
            });
        }
        let mut ctxs = Vec::with_capacity(c.total_threads());
        for (s, occ) in c.sockets.iter().enumerate() {
            if occ.len() > spec.cores_per_socket {
                return Err(TopologyError::CanonicalMismatch {
                    reason: format!(
                        "socket occupies {} cores but machine has {} per socket",
                        occ.len(),
                        spec.cores_per_socket
                    ),
                });
            }
            for (core, &n) in occ.iter().enumerate() {
                if n as usize > spec.threads_per_core {
                    return Err(TopologyError::CanonicalMismatch {
                        reason: format!(
                            "core hosts {n} threads but machine supports {} per core",
                            spec.threads_per_core
                        ),
                    });
                }
                for slot in 0..n as usize {
                    ctxs.push(spec.ctx(SocketId(s), core, slot));
                }
            }
        }
        Placement::new(&spec, ctxs)
    }

    fn walked(c: &CanonicalPlacement, shape: &impl HasShape) -> Result<Vec<CtxId>, TopologyError> {
        let mut ctxs = Vec::new();
        c.for_each_ctx(shape, |ctx| ctxs.push(ctx)).map(|()| ctxs)
    }

    #[test]
    fn the_walk_visits_the_instantiated_contexts() {
        let x2_4 = MachineSpec::x2_4();
        let sets = [
            (MachineSpec::x3_2(), PlacementEnumerator::new(&MachineSpec::x3_2()).all()),
            (MachineSpec::x5_2(), PlacementEnumerator::new(&MachineSpec::x5_2()).all()),
            (x2_4.clone(), PlacementEnumerator::new(&x2_4).sampled(&x2_4, 3)),
        ];
        for (machine, placements) in &sets {
            assert!(!placements.is_empty());
            for c in placements {
                let expected = spec_instantiate(c, machine).unwrap();
                assert_eq!(walked(c, machine).unwrap(), expected.contexts(), "{c}");
                assert_eq!(c.instantiate(machine).unwrap(), expected, "{c}");
            }
        }
    }

    #[test]
    fn the_walk_rejects_what_instantiate_rejects_and_visits_nothing() {
        let m = spec();
        let bad = [
            CanonicalPlacement::new(vec![vec![1], vec![1], vec![1]]),
            CanonicalPlacement::new(vec![vec![1; 9]]),
            CanonicalPlacement::new(vec![vec![3]]),
            // Fits on socket 0, then a core too deep on socket 1.
            CanonicalPlacement { sockets: vec![vec![2, 2], vec![3, 1]] },
            CanonicalPlacement::new(vec![]),
            CanonicalPlacement { sockets: vec![vec![0, 0]] },
        ];
        for c in &bad {
            let expected = spec_instantiate(c, &m).unwrap_err();
            assert_eq!(c.instantiate(&m).unwrap_err(), expected, "{c:?}");
            let mut visited = 0;
            assert_eq!(c.for_each_ctx(&m, |_| visited += 1).unwrap_err(), expected, "{c:?}");
            assert_eq!(visited, 0, "{c:?}");
        }
        // Unchecked, `[[3]]` would walk to the contexts of `[[2, 1]]`.
        let two_one = CanonicalPlacement::new(vec![vec![2, 1]]);
        assert_eq!(walked(&two_one, &m).unwrap(), [CtxId(0), CtxId(1), CtxId(2)]);
        assert!(walked(&CanonicalPlacement::new(vec![vec![3]]), &m).is_err());
    }

    #[test]
    fn canonical_counts() {
        let c = CanonicalPlacement::new(vec![vec![2, 2, 1], vec![1]]);
        assert_eq!(c.total_threads(), 6);
        assert_eq!(c.sockets_used(), 2);
        assert_eq!(c.cores_used(), 4);
    }

    #[test]
    fn normalization_strips_zeros_and_sorts() {
        let c = CanonicalPlacement::new(vec![vec![], vec![0, 1, 2], vec![2]]);
        assert_eq!(c.sockets, vec![vec![2, 1], vec![2]]);
    }
}
