//! Tiered network-load representation: exact intra-switch pairs, aggregated
//! per-switch-pair values across switches.
//!
//! The paper assumes a tree of switches where every node pair crossing the
//! same pair of switches sees the same trunk (§5's 4-switch testbed). Under
//! that model a dense V×V pair matrix is redundant: the network load between
//! two nodes on *different* switches is a property of the switch pair, not
//! of the nodes. [`TieredNl`] stores
//!
//! * one small exact matrix per switch (intra-switch pairs keep their
//!   measured values), and
//! * one S×S matrix of aggregated (mean) inter-switch values,
//!
//! which is O(Σ m_s² + S²) memory instead of O(V²) — at 100k nodes in
//! 48-node switches, ~75 MB instead of ~80 GB. The mean aggregation is
//! *sum-preserving* per switch pair, so group network loads summed over
//! many cross pairs stay close to the dense value, and are exactly equal
//! whenever the tree-topology model holds (all cross pairs equal).
//!
//! [`NlRep`] is the dispatch enum the allocator's [`Loads`](crate::loads::Loads)
//! carries behind its existing `nl_between` API.

use nlrm_monitor::SymMatrix;
use nlrm_topology::{NodeId, SwitchIndex};
use std::sync::Arc;

/// Tiered pairwise network load: exact within a switch, aggregated across.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredNl {
    /// Switch index per node id (dense over the node-id space);
    /// `u32::MAX` marks nodes the representation does not cover.
    switch_of: Vec<u32>,
    /// Position of a node within its switch's `members` list.
    local_of: Vec<u32>,
    /// Covered nodes per switch, ascending node id.
    members: Vec<Vec<NodeId>>,
    /// Per-switch exact matrix, `m×m` row-major by local index.
    intra: Vec<Vec<f64>>,
    /// `S×S` row-major aggregated inter-switch values (diagonal unused).
    inter: Vec<f64>,
}

const UNCOVERED: u32 = u32::MAX;

impl TieredNl {
    /// Build from explicit per-pair functions.
    ///
    /// * `nodes` — the covered node set (ascending ids recommended).
    /// * `switch_of` — switch bucket of each node in `nodes` (parallel).
    /// * `num_switches` — switch-id space bound.
    /// * `intra` — exact value for a same-switch pair.
    /// * `inter` — aggregated value for a switch pair `(s, t)`, `s ≠ t`.
    pub fn from_fns(
        nodes: &[NodeId],
        switch_of: &[u32],
        num_switches: usize,
        mut intra: impl FnMut(NodeId, NodeId) -> f64,
        mut inter: impl FnMut(u32, u32) -> f64,
    ) -> TieredNl {
        assert_eq!(nodes.len(), switch_of.len());
        let max_id = nodes.iter().map(|n| n.index()).max().map_or(0, |m| m + 1);
        let mut switch_map = vec![UNCOVERED; max_id];
        let mut local_of = vec![0u32; max_id];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_switches];
        for (&n, &s) in nodes.iter().zip(switch_of) {
            assert!((s as usize) < num_switches, "switch {s} out of range");
            assert_eq!(switch_map[n.index()], UNCOVERED, "duplicate node {n}");
            switch_map[n.index()] = s;
            local_of[n.index()] = members[s as usize].len() as u32;
            members[s as usize].push(n);
        }
        let intra_mats: Vec<Vec<f64>> = members
            .iter()
            .map(|ms| {
                let m = ms.len();
                let mut mat = vec![0.0; m * m];
                for (i, &u) in ms.iter().enumerate() {
                    for (j, &v) in ms.iter().enumerate().skip(i + 1) {
                        let val = intra(u, v);
                        mat[i * m + j] = val;
                        mat[j * m + i] = val;
                    }
                }
                mat
            })
            .collect();
        let mut inter_mat = vec![0.0; num_switches * num_switches];
        for s in 0..num_switches as u32 {
            for t in (s + 1)..num_switches as u32 {
                if members[s as usize].is_empty() || members[t as usize].is_empty() {
                    continue;
                }
                let val = inter(s, t);
                inter_mat[s as usize * num_switches + t as usize] = val;
                inter_mat[t as usize * num_switches + s as usize] = val;
            }
        }
        TieredNl {
            switch_of: switch_map,
            local_of,
            members,
            intra: intra_mats,
            inter: inter_mat,
        }
    }

    /// Collapse a dense matrix into the tiered form: intra-switch pairs are
    /// copied exactly; each inter-switch cell becomes the *mean* over the
    /// member cross pairs (sum-preserving, so group sums stay calibrated).
    pub fn from_dense(dense: &SymMatrix<f64>, nodes: &[NodeId], index: &SwitchIndex) -> TieredNl {
        let switch_of: Vec<u32> = nodes.iter().map(|&n| index.switch_of(n).0).collect();
        // mean per switch pair, computed over the covered node set
        let s_count = index.num_switches();
        let mut sums = vec![0.0f64; s_count * s_count];
        let mut counts = vec![0u64; s_count * s_count];
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                let (su, sv) = (index.switch_of(u).0 as usize, index.switch_of(v).0 as usize);
                if su != sv {
                    sums[su * s_count + sv] += dense.get(u, v);
                    counts[su * s_count + sv] += 1;
                    sums[sv * s_count + su] = sums[su * s_count + sv];
                    counts[sv * s_count + su] = counts[su * s_count + sv];
                }
            }
        }
        TieredNl::from_fns(
            nodes,
            &switch_of,
            s_count,
            |u, v| dense.get(u, v),
            |s, t| {
                let k = s as usize * s_count + t as usize;
                if counts[k] == 0 {
                    0.0
                } else {
                    sums[k] / counts[k] as f64
                }
            },
        )
    }

    /// Number of switch buckets.
    pub fn num_switches(&self) -> usize {
        self.members.len()
    }

    /// Switch bucket of a covered node.
    pub fn switch_of_node(&self, n: NodeId) -> u32 {
        let s = self.switch_of[n.index()];
        debug_assert_ne!(s, UNCOVERED, "node {n} not covered by tiered NL");
        s
    }

    /// Covered nodes of switch `s`, ascending id.
    pub fn switch_members(&self, s: u32) -> &[NodeId] {
        &self.members[s as usize]
    }

    /// Aggregated value for a switch pair (`s ≠ t`).
    pub fn inter_value(&self, s: u32, t: u32) -> f64 {
        debug_assert_ne!(s, t);
        self.inter[s as usize * self.members.len() + t as usize]
    }

    /// Network load between two distinct covered nodes.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        let (su, sv) = (self.switch_of[u.index()], self.switch_of[v.index()]);
        debug_assert!(su != UNCOVERED && sv != UNCOVERED);
        if su == sv {
            let m = self.members[su as usize].len();
            self.intra[su as usize]
                [self.local_of[u.index()] as usize * m + self.local_of[v.index()] as usize]
        } else {
            self.inter[su as usize * self.members.len() + sv as usize]
        }
    }

    /// Σ over all unordered pairs of `usable` (a subset of the covered
    /// nodes), in O(Σ m_s² + S²) instead of O(|usable|²): intra pairs are
    /// summed exactly, inter pairs contribute `count_s · count_t · inter`.
    pub fn pair_sum(&self, usable: &[NodeId]) -> f64 {
        let s_count = self.members.len();
        let mut by_switch: Vec<Vec<NodeId>> = vec![Vec::new(); s_count];
        for &n in usable {
            by_switch[self.switch_of_node(n) as usize].push(n);
        }
        let mut total = 0.0;
        for ms in &by_switch {
            for (i, &u) in ms.iter().enumerate() {
                for &v in &ms[i + 1..] {
                    total += self.get(u, v);
                }
            }
        }
        for s in 0..s_count {
            let cs = by_switch[s].len() as f64;
            if cs == 0.0 {
                continue;
            }
            for (t, mt) in by_switch.iter().enumerate().skip(s + 1) {
                let ct = mt.len() as f64;
                if ct > 0.0 {
                    total += cs * ct * self.inter[s * s_count + t];
                }
            }
        }
        total
    }

    /// For every node of `usable`, the minimum NL to any *other* usable
    /// node (`f64::INFINITY` when `usable` is a singleton). Used as the
    /// network term of the pruning lower bound.
    pub fn min_incident(&self, usable: &[NodeId]) -> Vec<f64> {
        let s_count = self.members.len();
        let mut counts = vec![0usize; s_count];
        for &n in usable {
            counts[self.switch_of_node(n) as usize] += 1;
        }
        // per switch: min inter value to any other switch with usable nodes
        let min_inter: Vec<f64> = (0..s_count)
            .map(|s| {
                let mut m = f64::INFINITY;
                for (t, &ct) in counts.iter().enumerate() {
                    if t != s && ct > 0 {
                        m = m.min(self.inter[s * s_count + t]);
                    }
                }
                m
            })
            .collect();
        // group usable nodes by switch for intra row scans
        let mut by_switch: Vec<Vec<NodeId>> = vec![Vec::new(); s_count];
        for &n in usable {
            by_switch[self.switch_of_node(n) as usize].push(n);
        }
        usable
            .iter()
            .map(|&u| {
                let s = self.switch_of_node(u) as usize;
                let mut m = min_inter[s];
                for &v in &by_switch[s] {
                    if v != u {
                        m = m.min(self.get(u, v));
                    }
                }
                m
            })
            .collect()
    }
}

/// A tiered network load whose inter-switch values are *estimates* with
/// per-switch-pair error bounds (from the sharded monitor's landmark
/// sampling, see `nlrm-monitor`'s `estimate` module).
///
/// Point queries delegate to the inner [`TieredNl`]; the extra `inter_lo`
/// matrix gives a certified lower bound per switch pair, which
/// [`EstimatedNl::min_incident`] uses so Alg. 2's pruning bound stays a
/// true lower bound — an estimate-driven prune can never discard the exact
/// optimum. Intra-switch pairs are directly measured, so their bounds are
/// the value itself.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatedNl {
    point: TieredNl,
    /// `S×S` row-major lower bounds for inter-switch values.
    inter_lo: Vec<f64>,
    /// `S×S` row-major upper bounds.
    inter_hi: Vec<f64>,
}

impl EstimatedNl {
    /// Wrap a point estimate with inter-switch bound matrices (`S×S`
    /// row-major, diagonal unused). Bounds are clamped so that
    /// `lo ≤ point ≤ hi` always holds, even if normalization or staleness
    /// blending nudged the point outside the raw measurement bands.
    pub fn new(point: TieredNl, mut inter_lo: Vec<f64>, mut inter_hi: Vec<f64>) -> EstimatedNl {
        let s_count = point.num_switches();
        assert_eq!(inter_lo.len(), s_count * s_count, "lo matrix shape");
        assert_eq!(inter_hi.len(), s_count * s_count, "hi matrix shape");
        for s in 0..s_count {
            for t in 0..s_count {
                if s == t {
                    continue;
                }
                let k = s * s_count + t;
                let p = point.inter[k];
                inter_lo[k] = inter_lo[k].min(p);
                inter_hi[k] = inter_hi[k].max(p);
            }
        }
        EstimatedNl {
            point,
            inter_lo,
            inter_hi,
        }
    }

    /// The point-estimate tiered structure.
    pub fn point(&self) -> &TieredNl {
        &self.point
    }

    /// `[lo, hi]` bounds for a distinct covered pair. Same-switch pairs
    /// are measured, so both bounds equal the value.
    pub fn bounds(&self, u: NodeId, v: NodeId) -> (f64, f64) {
        let (su, sv) = (
            self.point.switch_of_node(u) as usize,
            self.point.switch_of_node(v) as usize,
        );
        if su == sv {
            let p = self.point.get(u, v);
            (p, p)
        } else {
            let s_count = self.point.num_switches();
            (
                self.inter_lo[su * s_count + sv],
                self.inter_hi[su * s_count + sv],
            )
        }
    }

    /// Point value for a distinct pair.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.point.get(u, v)
    }

    /// Σ point values over all unordered pairs of `usable`.
    pub fn pair_sum(&self, usable: &[NodeId]) -> f64 {
        self.point.pair_sum(usable)
    }

    /// Per-node minimum *lower-bound* NL to any other usable node: intra
    /// pairs use their exact values, inter pairs the `inter_lo` bound. The
    /// result underestimates the point-value answer, keeping the pruning
    /// bound sound under estimation error.
    pub fn min_incident(&self, usable: &[NodeId]) -> Vec<f64> {
        let s_count = self.point.num_switches();
        let mut counts = vec![0usize; s_count];
        for &n in usable {
            counts[self.point.switch_of_node(n) as usize] += 1;
        }
        let min_inter: Vec<f64> = (0..s_count)
            .map(|s| {
                let mut m = f64::INFINITY;
                for (t, &ct) in counts.iter().enumerate() {
                    if t != s && ct > 0 {
                        m = m.min(self.inter_lo[s * s_count + t]);
                    }
                }
                m
            })
            .collect();
        let mut by_switch: Vec<Vec<NodeId>> = vec![Vec::new(); s_count];
        for &n in usable {
            by_switch[self.point.switch_of_node(n) as usize].push(n);
        }
        usable
            .iter()
            .map(|&u| {
                let s = self.point.switch_of_node(u) as usize;
                let mut m = min_inter[s];
                for &v in &by_switch[s] {
                    if v != u {
                        m = m.min(self.point.get(u, v));
                    }
                }
                m
            })
            .collect()
    }
}

/// The network-load representation carried by `Loads`, behind `nl_between`.
#[derive(Debug, Clone, PartialEq)]
pub enum NlRep {
    /// Exact V×V pair matrix (the original representation), shared: every
    /// clone of the `Loads` it came from, such as a broker's
    /// reservation-restricted view, reads the same matrix without copying.
    Dense(Arc<SymMatrix<f64>>),
    /// Exact intra-switch, aggregated inter-switch.
    Tiered(TieredNl),
    /// Tiered point estimate with inter-switch error bounds (sharded
    /// monitoring); pruning consumes the lower bounds.
    Estimated(EstimatedNl),
}

impl NlRep {
    /// Value for a distinct pair.
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        match self {
            NlRep::Dense(m) => m.get(u, v),
            NlRep::Tiered(t) => t.get(u, v),
            NlRep::Estimated(e) => e.get(u, v),
        }
    }

    /// Σ over all unordered pairs of `usable`.
    pub fn pair_sum(&self, usable: &[NodeId]) -> f64 {
        match self {
            NlRep::Dense(m) => {
                let mut total = 0.0;
                for (i, &u) in usable.iter().enumerate() {
                    for &v in &usable[i + 1..] {
                        total += m.get(u, v);
                    }
                }
                total
            }
            NlRep::Tiered(t) => t.pair_sum(usable),
            NlRep::Estimated(e) => e.pair_sum(usable),
        }
    }

    /// Per-node minimum NL to any other usable node (∞ for singletons).
    /// For the `Estimated` representation this is a certified *lower
    /// bound* (inter pairs use their lower bands), so pruning bounds built
    /// on it never exceed the true cost.
    pub fn min_incident(&self, usable: &[NodeId]) -> Vec<f64> {
        match self {
            NlRep::Dense(m) => usable
                .iter()
                .map(|&u| {
                    let mut best = f64::INFINITY;
                    for &v in usable {
                        if v != u {
                            best = best.min(m.get(u, v));
                        }
                    }
                    best
                })
                .collect(),
            NlRep::Tiered(t) => t.min_incident(usable),
            NlRep::Estimated(e) => e.min_incident(usable),
        }
    }

    /// The tiered structure, when this representation has one (the
    /// `Estimated` variant exposes its point estimate).
    pub fn as_tiered(&self) -> Option<&TieredNl> {
        match self {
            NlRep::Tiered(t) => Some(t),
            NlRep::Estimated(e) => Some(e.point()),
            NlRep::Dense(_) => None,
        }
    }
}

impl From<SymMatrix<f64>> for NlRep {
    fn from(m: SymMatrix<f64>) -> NlRep {
        NlRep::Dense(Arc::new(m))
    }
}

impl From<TieredNl> for NlRep {
    fn from(t: TieredNl) -> NlRep {
        NlRep::Tiered(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_topology::SwitchId;

    fn index_2x3() -> SwitchIndex {
        // nodes 0..3 on switch 0, 3..6 on switch 1
        SwitchIndex::from_assignment(
            vec![
                SwitchId(0),
                SwitchId(0),
                SwitchId(0),
                SwitchId(1),
                SwitchId(1),
                SwitchId(1),
            ],
            2,
        )
    }

    fn dense_6() -> SymMatrix<f64> {
        let mut m = SymMatrix::new(6, 0.0);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                m.set(NodeId(u), NodeId(v), (u * 10 + v) as f64);
            }
        }
        m
    }

    #[test]
    fn intra_pairs_are_exact() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            assert_eq!(t.get(NodeId(u), NodeId(v)), dense.get(NodeId(u), NodeId(v)));
            assert_eq!(t.get(NodeId(v), NodeId(u)), t.get(NodeId(u), NodeId(v)));
        }
    }

    #[test]
    fn inter_pairs_are_the_mean() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        let mut sum = 0.0;
        for u in 0..3u32 {
            for v in 3..6u32 {
                sum += dense.get(NodeId(u), NodeId(v));
            }
        }
        let mean = sum / 9.0;
        for u in 0..3u32 {
            for v in 3..6u32 {
                assert!((t.get(NodeId(u), NodeId(v)) - mean).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pair_sum_matches_dense_exactly() {
        // mean aggregation preserves per-switch-pair sums, so the total
        // over the whole universe is identical (up to rounding)
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        let dense_rep = NlRep::from(dense);
        let want = dense_rep.pair_sum(&nodes);
        assert!((t.pair_sum(&nodes) - want).abs() < 1e-9);
    }

    #[test]
    fn uniform_cross_pairs_reproduce_dense_everywhere() {
        // the tree-topology model: every cross pair sees the same trunk
        let idx = index_2x3();
        let mut dense = SymMatrix::new(6, 0.0);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let same = (u < 3) == (v < 3);
                dense.set(
                    NodeId(u),
                    NodeId(v),
                    if same { (u + v) as f64 } else { 7.5 },
                );
            }
        }
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                assert_eq!(t.get(NodeId(u), NodeId(v)), dense.get(NodeId(u), NodeId(v)));
            }
        }
    }

    #[test]
    fn min_incident_matches_bruteforce() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        let tiered_rep = NlRep::Tiered(t.clone());
        let mins = tiered_rep.min_incident(&nodes);
        for (i, &u) in nodes.iter().enumerate() {
            let mut want = f64::INFINITY;
            for &v in &nodes {
                if v != u {
                    want = want.min(t.get(u, v));
                }
            }
            assert_eq!(mins[i], want);
        }
    }

    #[test]
    fn restricted_pair_sum_uses_only_the_subset() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = NlRep::Tiered(TieredNl::from_dense(&dense, &nodes, &idx));
        // subset spanning both switches
        let subset = [NodeId(0), NodeId(2), NodeId(4)];
        let manual =
            t.get(NodeId(0), NodeId(2)) + t.get(NodeId(0), NodeId(4)) + t.get(NodeId(2), NodeId(4));
        assert!((t.pair_sum(&subset) - manual).abs() < 1e-12);
    }

    #[test]
    fn singleton_min_incident_is_infinite() {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = NlRep::Tiered(TieredNl::from_dense(&dense, &nodes, &idx));
        assert_eq!(t.min_incident(&[NodeId(1)]), vec![f64::INFINITY]);
    }

    fn estimated_6(margin: f64) -> EstimatedNl {
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        let s = t.num_switches();
        let mut lo = vec![0.0; s * s];
        let mut hi = vec![0.0; s * s];
        for a in 0..s {
            for b in 0..s {
                if a != b {
                    lo[a * s + b] = t.inter_value(a as u32, b as u32) - margin;
                    hi[a * s + b] = t.inter_value(a as u32, b as u32) + margin;
                }
            }
        }
        EstimatedNl::new(t, lo, hi)
    }

    #[test]
    fn estimated_point_queries_match_tiered() {
        let e = estimated_6(3.0);
        let t = e.point().clone();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let rep = NlRep::Estimated(e);
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                assert_eq!(rep.get(u, v), t.get(u, v));
            }
        }
        assert_eq!(rep.pair_sum(&nodes), t.pair_sum(&nodes));
        assert!(rep.as_tiered().is_some());
    }

    #[test]
    fn estimated_bounds_bracket_the_point() {
        let e = estimated_6(3.0);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                let (lo, hi) = e.bounds(u, v);
                let p = e.get(u, v);
                assert!(lo <= p && p <= hi, "bounds({u},{v}) = [{lo},{hi}] ∌ {p}");
                if e.point().switch_of_node(u) == e.point().switch_of_node(v) {
                    assert_eq!(lo, hi, "intra pairs are exact");
                }
            }
        }
    }

    #[test]
    fn estimated_min_incident_is_a_lower_bound() {
        let e = estimated_6(3.0);
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let point_mins = NlRep::Tiered(e.point().clone()).min_incident(&nodes);
        let est_mins = NlRep::Estimated(e).min_incident(&nodes);
        for (lo, p) in est_mins.iter().zip(&point_mins) {
            assert!(lo <= p, "estimated min_incident {lo} above point {p}");
        }
    }

    #[test]
    fn estimated_new_clamps_inverted_bounds() {
        // hand the constructor bounds that exclude the point: they must be
        // widened to contain it
        let idx = index_2x3();
        let dense = dense_6();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let t = TieredNl::from_dense(&dense, &nodes, &idx);
        let s = t.num_switches();
        let e = EstimatedNl::new(t, vec![1e9; s * s], vec![-1e9; s * s]);
        let (lo, hi) = e.bounds(NodeId(0), NodeId(4));
        let p = e.get(NodeId(0), NodeId(4));
        assert!(lo <= p && p <= hi);
    }
}
