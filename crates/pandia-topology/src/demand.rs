//! Per-thread resource demand vectors and their routing onto resources.
//!
//! A [`DemandVector`] is the paper's `d` (Figure 4, step 1): the rates at
//! which one thread of the workload consumes each resource class when
//! running alone. DRAM demand is recorded *per memory node*, reflecting the
//! paper's Run 1 example ("memory transfer bandwidth of 40 to each socket"):
//! where a thread's memory traffic lands depends on the data placement, and
//! traffic to a remote node additionally crosses the interconnect.

use serde::{Deserialize, Serialize};

use crate::{
    ids::{CtxId, ResourceId},
    resource::ResourceTable,
    spec::HasShape,
};

/// Resource demand rates for a single thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandVector {
    /// Instructions issued per unit time.
    pub instr: f64,
    /// L1 bandwidth demand.
    pub l1: f64,
    /// L2 bandwidth demand.
    pub l2: f64,
    /// L3 bandwidth demand.
    pub l3: f64,
    /// DRAM bandwidth demand per memory node (socket).
    pub dram: Vec<f64>,
}

impl DemandVector {
    /// A zero demand vector for a machine with `sockets` memory nodes.
    pub fn zero(sockets: usize) -> Self {
        Self { instr: 0.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: vec![0.0; sockets] }
    }

    /// Total DRAM demand summed over all memory nodes.
    pub fn dram_total(&self) -> f64 {
        self.dram.iter().sum()
    }

    /// Returns this vector with every component multiplied by `factor`
    /// (used to scale demands by thread utilization, paper §5.1).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            instr: self.instr * factor,
            l1: self.l1 * factor,
            l2: self.l2 * factor,
            l3: self.l3 * factor,
            dram: self.dram.iter().map(|d| d * factor).collect(),
        }
    }

    /// Component-wise sum of two vectors.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.dram.len(), other.dram.len(), "mismatched memory node count");
        Self {
            instr: self.instr + other.instr,
            l1: self.l1 + other.l1,
            l2: self.l2 + other.l2,
            l3: self.l3 + other.l3,
            dram: self.dram.iter().zip(&other.dram).map(|(a, b)| a + b).collect(),
        }
    }

    /// Routes this demand onto concrete resources for a thread pinned at
    /// `ctx`, appending `(resource, rate)` pairs to `out`.
    ///
    /// Routing rules:
    /// * instruction demand → the core's issue resource;
    /// * L1/L2 demand → the core's private cache links;
    /// * L3 demand → the core's L3 link **and** the socket's L3 aggregate;
    /// * DRAM demand to node `m` → node `m`'s DRAM channels, plus the
    ///   interconnect link between the thread's socket and `m` when remote.
    ///
    /// A demand that is not positive is not routed.
    pub fn route(
        &self,
        shape: &impl HasShape,
        table: &ResourceTable,
        ctx: CtxId,
        out: &mut Vec<(ResourceId, f64)>,
    ) {
        let spec = shape.shape();
        let core = spec.core_of_ctx(ctx);
        let socket = spec.socket_of_ctx(ctx);
        if self.instr > 0.0 {
            out.push((table.core_issue(core), self.instr));
        }
        if self.l1 > 0.0 {
            out.push((table.l1(core), self.l1));
        }
        if self.l2 > 0.0 {
            out.push((table.l2(core), self.l2));
        }
        if self.l3 > 0.0 {
            out.push((table.l3_link(core), self.l3));
            out.push((table.l3_aggregate(socket), self.l3));
        }
        for (node, &demand) in self.dram.iter().enumerate() {
            if demand <= 0.0 {
                continue;
            }
            let node_id = crate::ids::SocketId(node);
            out.push((table.dram(node_id), demand));
            if node_id != socket {
                if let Some(link) = table.interconnect(socket, node_id) {
                    out.push((link, demand));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;
    use crate::ids::SocketId;

    fn toy() -> (MachineSpec, ResourceTable) {
        let spec = MachineSpec::toy();
        let table = ResourceTable::from_spec(&spec);
        (spec, table)
    }

    /// The paper's Run 1 workload demand on the toy machine: instruction
    /// rate 7, DRAM bandwidth 40 to each socket.
    fn example_demand() -> DemandVector {
        DemandVector { instr: 7.0, l1: 0.0, l2: 0.0, l3: 0.0, dram: vec![40.0, 40.0] }
    }

    #[test]
    fn routes_example_thread_on_socket0() {
        let (spec, table) = toy();
        let mut out = Vec::new();
        // Context 0 = socket 0, core 0.
        example_demand().route(&spec, &table, CtxId(0), &mut out);
        // Expect: issue(core0)=7, dram(s0)=40, dram(s1)=40, link(0,1)=40.
        let find = |id: ResourceId| out.iter().find(|(r, _)| *r == id).map(|(_, v)| *v);
        assert_eq!(find(table.core_issue(crate::ids::CoreId(0))), Some(7.0));
        assert_eq!(find(table.dram(SocketId(0))), Some(40.0));
        assert_eq!(find(table.dram(SocketId(1))), Some(40.0));
        assert_eq!(find(table.interconnect(SocketId(0), SocketId(1)).unwrap()), Some(40.0));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn remote_node_traffic_crosses_interconnect_from_either_side() {
        let (spec, table) = toy();
        let mut out = Vec::new();
        // Context 2 = socket 1, core 2 (toy: 2 cores/socket, 1 thread/core).
        example_demand().route(&spec, &table, CtxId(2), &mut out);
        let link = table.interconnect(SocketId(0), SocketId(1)).unwrap();
        let link_demand: f64 =
            out.iter().filter(|(r, _)| *r == link).map(|(_, v)| *v).sum();
        // Only the socket-0 portion of the DRAM demand is remote now.
        assert_eq!(link_demand, 40.0);
    }

    #[test]
    fn three_example_threads_reproduce_figure_7b_totals() {
        // Figure 7b: threads U, V on socket 0 (sharing a core) and W on
        // socket 1, utilization 0.83 each. Both DRAM links carry ~100 and
        // the interconnect carries ~100.
        let (spec, table) = toy();
        let f = 0.8333333;
        let mut load = vec![0.0; table.len()];
        // Toy machine has 1 thread/core, but routing only cares about the
        // core/socket of the context; use distinct cores for U and V here
        // (DRAM/interconnect totals are unaffected by core sharing).
        for ctx in [CtxId(0), CtxId(1), CtxId(2)] {
            let mut out = Vec::new();
            example_demand().scaled(f).route(&spec, &table, ctx, &mut out);
            for (r, v) in out {
                load[r.0] += v;
            }
        }
        let dram0 = load[table.dram(SocketId(0)).0];
        let dram1 = load[table.dram(SocketId(1)).0];
        let link = load[table.interconnect(SocketId(0), SocketId(1)).unwrap().0];
        assert!((dram0 - 100.0).abs() < 0.1, "dram0 = {dram0}");
        assert!((dram1 - 100.0).abs() < 0.1, "dram1 = {dram1}");
        assert!((link - 100.0).abs() < 0.1, "link = {link}");
    }

    #[test]
    fn scaling_and_adding_are_componentwise() {
        let d = example_demand();
        let s = d.scaled(0.5);
        assert_eq!(s.instr, 3.5);
        assert_eq!(s.dram, vec![20.0, 20.0]);
        let sum = s.add(&s);
        assert_eq!(sum.instr, d.instr);
        assert_eq!(sum.dram_total(), d.dram_total());
    }

    #[test]
    fn zero_demand_routes_nothing() {
        let (spec, table) = toy();
        let mut out = Vec::new();
        DemandVector::zero(2).route(&spec, &table, CtxId(0), &mut out);
        assert!(out.is_empty());
    }
}
