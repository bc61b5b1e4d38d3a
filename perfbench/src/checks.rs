//! Correctness checks applied to every scheduling pass, and the placement
//! digest that makes runs comparable.

use nlrm_core::broker::{Broker, Lease};
use nlrm_core::{Allocation, AllocationRequest};
use nlrm_monitor::ClusterSnapshot;
use nlrm_topology::NodeId;
use std::collections::BTreeSet;

/// Processes per node every workload requests; with a `ppn` override this
/// is each node's capacity in the broker's books.
pub const PPN: u32 = 4;

/// Why a placement failed its checks, or `Ok` when it passed them all.
pub fn check_placement(
    alloc: &Allocation,
    req: &AllocationRequest,
    snap: &ClusterSnapshot,
) -> Result<(), String> {
    let placed: u32 = alloc.nodes.iter().map(|&(_, p)| p).sum();
    if placed != req.procs {
        return Err(format!(
            "placed {placed} procs for a {}-proc request",
            req.procs
        ));
    }
    if alloc.rank_map.len() != req.procs as usize {
        return Err(format!(
            "rank map has {} entries for a {}-proc request",
            alloc.rank_map.len(),
            req.procs
        ));
    }
    let usable: BTreeSet<NodeId> = snap.usable_nodes().into_iter().collect();
    let mut seen = BTreeSet::new();
    for &(node, _) in &alloc.nodes {
        if !seen.insert(node) {
            return Err(format!("node {node} placed twice"));
        }
        if !usable.contains(&node) {
            return Err(format!("node {node} is not usable in the snapshot"));
        }
    }
    Ok(())
}

/// Whether every node's reservation is within its capacity.
pub fn check_reservations(broker: &Broker, num_nodes: usize) -> Result<(), String> {
    for i in 0..num_nodes {
        let node = NodeId(i as u32);
        let r = broker.reserved_on(node);
        if r > PPN {
            return Err(format!("node {node} reserves {r} procs > capacity {PPN}"));
        }
    }
    Ok(())
}

/// Whether the broker's node set for a single-job pass equals what
/// `NetworkLoadAwarePolicy::allocate` picks on the same snapshot.
pub fn check_matches_policy(
    lease: &Lease,
    req: &AllocationRequest,
    snap: &ClusterSnapshot,
) -> Result<(), String> {
    use nlrm_core::{NetworkLoadAwarePolicy, Policy};
    let reference = NetworkLoadAwarePolicy::new()
        .allocate(snap, req)
        .map_err(|e| format!("reference policy failed: {e}"))?;
    let ours: BTreeSet<NodeId> = lease.allocation.node_list().into_iter().collect();
    let theirs: BTreeSet<NodeId> = reference.node_list().into_iter().collect();
    if ours != theirs {
        return Err(format!(
            "broker placed {ours:?}, the network-load-aware policy {theirs:?}"
        ));
    }
    Ok(())
}

/// FNV-1a over every placed node list, in placement order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Fold one placement's node list.
    pub fn placement(&mut self, alloc: &Allocation) {
        for &(node, procs) in &alloc.nodes {
            for b in node.0.to_le_bytes().into_iter().chain(procs.to_le_bytes()) {
                self.byte(b);
            }
        }
        // separator, so [a][b,c] and [a,b][c] differ
        self.byte(0xff);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
