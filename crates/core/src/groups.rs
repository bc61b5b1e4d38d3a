//! Switch-group scaling extension (paper §3.3.2).
//!
//! "Our solution may need to be adapted for larger scale by grouping the
//! nodes based on cluster topology and calculating inter-group bandwidth/
//! latency so that P2P bandwidth/latency calculation requires less amount
//! of communication."
//!
//! [`ScalableAllocator`] implements that adaptation: nodes are grouped by
//! the switch they attach to (static topology knowledge), aggregate group
//! statistics replace the O(V²) pair matrix for a coarse first pass, and the
//! exact Algorithms 1–2 run only on the nodes of the shortlisted groups.

use crate::loads::Loads;
use crate::policies::{derive, NetworkLoadAwarePolicy, Policy};
use crate::request::{AllocError, Allocation, AllocationRequest};
use crate::select::{decide, group_mean_network_load};
use nlrm_monitor::ClusterSnapshot;
use nlrm_topology::{NodeId, Topology};
use std::collections::BTreeMap;

/// A topology-derived node group (one per switch in practice).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeGroup {
    /// Group index.
    pub id: usize,
    /// Member nodes.
    pub nodes: Vec<NodeId>,
    /// Mean compute load of the members.
    pub mean_cl: f64,
    /// Mean *intra-group* pairwise network load.
    pub mean_intra_nl: f64,
}

/// Group usable nodes by the switch they attach to. The paper's scaling
/// note groups "based on cluster topology", which is static administrative
/// knowledge — no measurement needed.
pub fn infer_groups(topo: &Topology, loads: &Loads) -> Vec<NodeGroup> {
    let mut by_switch: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for &u in &loads.usable {
        by_switch.entry(topo.switch_of(u).0).or_default().push(u);
    }
    by_switch
        .into_values()
        .enumerate()
        .map(|(id, nodes)| {
            let mean_cl = nodes.iter().map(|&n| loads.cl_of(n)).sum::<f64>() / nodes.len() as f64;
            let mean_intra_nl = group_mean_network_load(loads, &nodes);
            NodeGroup {
                id,
                nodes,
                mean_cl,
                mean_intra_nl,
            }
        })
        .collect()
}

/// Usable universes at most this large skip the group shortlist and run
/// the plain (flat) algorithm.
const FLAT_THRESHOLD: usize = 128;

/// Two-level allocator: coarse group shortlist, then exact Algorithms 1–2
/// on the shortlisted nodes only.
#[derive(Debug, Clone, Default)]
pub struct ScalableAllocator;

impl ScalableAllocator {
    /// An allocator that switches to two-level mode above a 128-node
    /// usable universe.
    pub fn new() -> Self {
        ScalableAllocator
    }

    /// Allocate with the two-level strategy. The topology is used only for
    /// static switch membership (the coarse grouping level).
    pub fn allocate(
        &self,
        topo: &Topology,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
    ) -> Result<Allocation, AllocError> {
        let loads = derive(snap, req)?;
        if loads.usable.len() <= FLAT_THRESHOLD {
            let policy = NetworkLoadAwarePolicy::new().name();
            return Ok(decide(&loads, req)?.into_allocation(&loads, req, policy));
        }

        // --- coarse pass over groups ---
        let groups = infer_groups(topo, &loads);
        // order groups by a group-level analogue of A_v: compute + intra-network
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| {
            let ca = req.alpha * groups[a].mean_cl + req.beta * groups[a].mean_intra_nl;
            let cb = req.alpha * groups[b].mean_cl + req.beta * groups[b].mean_intra_nl;
            ca.total_cmp(&cb).then(a.cmp(&b))
        });
        // shortlist enough groups to cover the request with headroom
        let mut shortlist: Vec<NodeId> = Vec::new();
        let mut capacity: u64 = 0;
        for &gi in &order {
            for &n in &groups[gi].nodes {
                shortlist.push(n);
                capacity += loads.pc_of(n) as u64;
            }
            if capacity >= 2 * req.procs as u64 && shortlist.len() >= 2 {
                break;
            }
        }
        shortlist.sort();

        // --- exact pass on the shortlist ---
        let sub_loads = loads.restrict(|n, pc| {
            if shortlist.binary_search(&n).is_ok() {
                pc
            } else {
                0
            }
        });
        let decision = decide(&sub_loads, req)?;
        Ok(decision.into_allocation(&sub_loads, req, "network-load-aware/scalable"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::iitk_cluster;
    use nlrm_cluster::{ClusterProfile, ClusterSim, NodeSpec};
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::Duration;
    use nlrm_topology::{LinkParams, Topology};

    fn snapshot_of(mut cluster: ClusterSim) -> (Topology, ClusterSnapshot) {
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        (cluster.topology().clone(), snap)
    }

    fn big_cluster(nodes_per_switch: usize, switches: usize, seed: u64) -> ClusterSim {
        let counts = vec![nodes_per_switch; switches];
        let topo =
            Topology::star_of_switches(&counts, LinkParams::gigabit(), LinkParams::gigabit());
        let n = nodes_per_switch * switches;
        let specs = (0..n)
            .map(|i| NodeSpec {
                hostname: format!("big{i}"),
                cores: 8,
                freq_ghz: 3.0,
                total_mem_gb: 16.0,
            })
            .collect();
        ClusterSim::new(topo, specs, ClusterProfile::shared_lab(), seed)
    }

    #[test]
    fn groups_follow_switches() {
        let (topo, snap) = snapshot_of(iitk_cluster(3));
        let loads = Loads::derive(
            &snap,
            &crate::weights::ComputeWeights::paper_default(),
            &crate::weights::NetworkWeights::paper_default(),
            Some(4),
        )
        .unwrap();
        let groups = infer_groups(&topo, &loads);
        assert_eq!(groups.len(), 4, "one group per switch");
        let sizes: Vec<usize> = groups.iter().map(|g| g.nodes.len()).collect();
        assert!(sizes.iter().all(|&s| s == 15), "sizes {sizes:?}");
    }

    #[test]
    fn two_level_handles_large_cluster() {
        // 10 switches × 20 nodes = 200 > FLAT_THRESHOLD
        let (topo, snap) = snapshot_of(big_cluster(20, 10, 11));
        let req = AllocationRequest::minimd(32);
        let alloc = ScalableAllocator::new()
            .allocate(&topo, &snap, &req)
            .unwrap();
        assert_eq!(alloc.total_procs(), 32);
        assert_eq!(alloc.node_list().len(), 8);
        assert!(alloc.policy.contains("scalable"));
    }
}
