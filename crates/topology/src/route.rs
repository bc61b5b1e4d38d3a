//! Routing: the unique tree path between any two nodes.

use crate::graph::{LinkId, NodeId, SwitchId, Topology};
use std::ops::Deref;

/// Links a [`Route`] holds without a heap allocation: three trunk levels on
/// each side of the lowest common ancestor plus the two access links.
const INLINE_LINKS: usize = 8;

/// The links of one tree path, in path order. Up to eight links live
/// inline; a longer path (a tree deeper than three switch levels) spills to
/// the heap. Derefs to `&[LinkId]`.
#[derive(Debug, Clone)]
pub struct Route {
    len: usize,
    inline: [LinkId; INLINE_LINKS],
    /// The whole path when it does not fit inline; empty otherwise.
    spilled: Vec<LinkId>,
}

impl Route {
    /// A route of `len` placeholder links, to be overwritten in place.
    fn with_len(len: usize) -> Route {
        Route {
            len,
            inline: [LinkId(0); INLINE_LINKS],
            spilled: if len > INLINE_LINKS {
                vec![LinkId(0); len]
            } else {
                Vec::new()
            },
        }
    }

    fn links_mut(&mut self) -> &mut [LinkId] {
        if self.len > INLINE_LINKS {
            &mut self.spilled
        } else {
            &mut self.inline[..self.len]
        }
    }
}

impl Deref for Route {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        if self.len > INLINE_LINKS {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }
}

impl Topology {
    /// The unique path from `u` to `v`, computed without a heap allocation
    /// on trees up to three switch levels deep.
    ///
    /// Empty when `u == v`. The path is `u`'s access link, trunks up to the
    /// lowest common ancestor switch, trunks back down, and `v`'s access link.
    /// The ancestor is found by lifting the deeper switch to the other's
    /// depth, then both in step until they meet.
    pub fn route(&self, u: NodeId, v: NodeId) -> Route {
        if u == v {
            return Route::with_len(0);
        }
        let (su, sv) = (self.switch_of(u), self.switch_of(v));
        let parent = |s: SwitchId| self.parent(s).expect("a switch below the LCA has a parent");
        let (mut a, mut b) = (su, sv);
        let (mut da, mut db) = (self.depth(su), self.depth(sv));
        let (mut up, mut down) = (0, 0);
        while da > db {
            a = parent(a);
            da -= 1;
            up += 1;
        }
        while db > da {
            b = parent(b);
            db -= 1;
            down += 1;
        }
        while a != b {
            a = parent(a);
            b = parent(b);
            up += 1;
            down += 1;
        }
        let uplink = |s: SwitchId| self.uplink(s).expect("non-root ancestor has uplink");
        let mut route = Route::with_len(up + down + 2);
        let links = route.links_mut();
        let last = links.len() - 1;
        links[0] = self.access_link(u);
        let mut s = su;
        for slot in &mut links[1..=up] {
            *slot = uplink(s);
            s = parent(s);
        }
        // v's side is climbed from v upwards, so it fills in from the end
        let mut s = sv;
        for slot in links[up + 1..last].iter_mut().rev() {
            *slot = uplink(s);
            s = parent(s);
        }
        links[last] = self.access_link(v);
        route
    }

    /// Number of trunks between `sw` and the root.
    fn depth(&self, mut sw: SwitchId) -> usize {
        let mut depth = 0;
        while let Some(p) = self.parent(sw) {
            sw = p;
            depth += 1;
        }
        depth
    }

    /// Ordered list of links on the unique path from `u` to `v`: the
    /// [`route`](Self::route) as a `Vec`.
    pub fn path(&self, u: NodeId, v: NodeId) -> Vec<LinkId> {
        self.route(u, v).to_vec()
    }

    /// Number of links on the path (the paper's "hops": 2 within a switch,
    /// up to 4 across the core).
    pub fn hops(&self, u: NodeId, v: NodeId) -> usize {
        self.route(u, v).len()
    }

    /// Sum of base latencies along the path, in seconds.
    pub fn base_latency(&self, u: NodeId, v: NodeId) -> f64 {
        self.route(u, v)
            .iter()
            .map(|&l| self.link(l).params.latency_s)
            .sum()
    }

    /// Minimum raw capacity along the path, in bits/s (+∞ for `u == v`,
    /// meaning "no network involved").
    pub fn path_capacity(&self, u: NodeId, v: NodeId) -> f64 {
        self.route(u, v)
            .iter()
            .map(|&l| self.link(l).params.capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::INLINE_LINKS;
    use crate::graph::{LinkId, LinkParams, NodeId, SwitchId, Topology};

    /// Switch ancestors from `sw` up to and including the root: the
    /// ancestor list the router used before `route`, kept for the oracle.
    fn ancestors(t: &Topology, sw: SwitchId) -> Vec<SwitchId> {
        let mut out = vec![sw];
        let mut cur = sw;
        while let Some(p) = t.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The ancestor-list router `route` replaced, kept as its oracle.
    fn oracle_path(t: &Topology, u: NodeId, v: NodeId) -> Vec<LinkId> {
        if u == v {
            return Vec::new();
        }
        let su = t.switch_of(u);
        let sv = t.switch_of(v);
        let mut path = vec![t.access_link(u)];
        if su != sv {
            let anc_u = ancestors(t, su);
            let anc_v = ancestors(t, sv);
            let lca = *anc_u
                .iter()
                .find(|s| anc_v.contains(s))
                .expect("tree has a single root, LCA must exist");
            for &s in anc_u.iter().take_while(|&&s| s != lca) {
                path.push(t.uplink(s).expect("non-root ancestor has uplink"));
            }
            let down: Vec<LinkId> = anc_v
                .iter()
                .take_while(|&&s| s != lca)
                .map(|&s| t.uplink(s).expect("non-root ancestor has uplink"))
                .collect();
            path.extend(down.into_iter().rev());
        }
        path.push(t.access_link(v));
        path
    }

    /// Every ordered pair routes exactly like the oracle, and the wrappers
    /// agree with it bit for bit. Returns the longest route seen.
    fn assert_matches_oracle(t: &Topology) -> usize {
        let mut longest = 0;
        for u in t.node_ids() {
            for v in t.node_ids() {
                let want = oracle_path(t, u, v);
                let route = t.route(u, v);
                assert_eq!(&*route, &want[..], "route {u} -> {v}");
                assert_eq!(t.path(u, v), want);
                assert_eq!(t.hops(u, v), want.len());
                let lat: f64 = want.iter().map(|&l| t.link(l).params.latency_s).sum();
                assert_eq!(t.base_latency(u, v).to_bits(), lat.to_bits());
                longest = longest.max(route.len());
            }
        }
        longest
    }

    /// splitmix64: a tiny deterministic generator for the random trees.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049e_b5d3_a133);
        z ^ (z >> 31)
    }

    /// A random rooted tree of 1–16 switches with arbitrary labels (a
    /// parent may have a larger id than its child) and 0–3 nodes per
    /// switch; access and trunk latencies are drawn too, so a summation in
    /// another order would show in the bits.
    fn random_tree(seed: u64) -> Topology {
        let mut st = seed;
        let switches = 1 + (next(&mut st) % 16) as usize;
        // a random labelling: order[0] is the root, order[i]'s parent is an
        // earlier entry
        let mut order: Vec<usize> = (0..switches).collect();
        for i in (1..switches).rev() {
            order.swap(i, (next(&mut st) % (i as u64 + 1)) as usize);
        }
        let mut parents = vec![None; switches];
        for i in 1..switches {
            parents[order[i]] = Some(order[(next(&mut st) % i as u64) as usize]);
        }
        let mut node_switches = Vec::new();
        for sw in 0..switches {
            let count = next(&mut st) % 4;
            node_switches.extend(std::iter::repeat_n(sw, count as usize));
        }
        if node_switches.is_empty() {
            node_switches.push(order[0]);
        }
        let mut params = |base: LinkParams| LinkParams {
            latency_s: base.latency_s * (1.0 + (next(&mut st) % 1000) as f64 / 997.0),
            ..base
        };
        let (access, trunk) = (
            params(LinkParams::gigabit()),
            params(LinkParams::ten_gigabit()),
        );
        Topology::tree(&parents, &node_switches, access, trunk)
    }

    #[test]
    fn route_matches_the_ancestor_list_oracle_on_random_trees() {
        for seed in 0..300 {
            assert_matches_oracle(&random_tree(seed));
        }
    }

    #[test]
    fn route_matches_the_oracle_with_nodes_on_the_root_and_one_switch() {
        // nodes on the root and on both levels below it
        let t = Topology::tree(
            &[Some(2), Some(2), None, Some(0)],
            &[2, 2, 0, 3, 1, 3],
            LinkParams::gigabit(),
            LinkParams::ten_gigabit(),
        );
        assert_eq!(assert_matches_oracle(&t), 5);
        // one switch: every pair is a same-switch pair
        assert_eq!(
            assert_matches_oracle(&Topology::single_switch(5, LinkParams::gigabit())),
            2
        );
    }

    #[test]
    fn routes_deeper_than_the_inline_capacity_spill_and_still_match() {
        // a broom: two switch chains of `depth` levels under one root,
        // nodes on the root, mid-chain and at both tips
        for depth in 1..=10usize {
            let mut parents = vec![None];
            for branch in 0..2 {
                for level in 0..depth {
                    let first = 1 + branch * depth;
                    parents.push(Some(if level == 0 { 0 } else { first + level - 1 }));
                }
            }
            let tips = [depth, 2 * depth];
            let nodes = [0, tips[0], tips[1], depth.div_ceil(2), tips[1]];
            let t = Topology::tree(
                &parents,
                &nodes,
                LinkParams::gigabit(),
                LinkParams::ten_gigabit(),
            );
            let longest = assert_matches_oracle(&t);
            assert_eq!(longest, 2 + 2 * depth);
            if longest > INLINE_LINKS {
                let r = t.route(NodeId(1), NodeId(2));
                assert_eq!(r.spilled.len(), longest, "a long route lives on the heap");
            }
        }
    }

    #[test]
    fn deep_tree_ancestors() {
        // chain: 2 -> 1 -> 0
        let t = Topology::tree(
            &[None, Some(0), Some(1)],
            &[2, 2],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        let anc = ancestors(&t, SwitchId(2));
        assert_eq!(anc, vec![SwitchId(2), SwitchId(1), SwitchId(0)]);
    }

    fn star() -> Topology {
        // switch 0 core (2 nodes), switches 1,2 leaves (2 nodes each)
        Topology::star_of_switches(&[2, 2, 2], LinkParams::gigabit(), LinkParams::gigabit())
    }

    #[test]
    fn same_node_empty_path() {
        let t = star();
        assert!(t.path(NodeId(0), NodeId(0)).is_empty());
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn same_switch_two_hops() {
        let t = star();
        // nodes 0,1 on the core switch
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 2);
        // nodes 2,3 on leaf switch 1
        assert_eq!(t.hops(NodeId(2), NodeId(3)), 2);
    }

    #[test]
    fn leaf_to_core_three_hops() {
        let t = star();
        // node 2 (leaf sw1) to node 0 (core sw0): access + trunk + access
        assert_eq!(t.hops(NodeId(2), NodeId(0)), 3);
    }

    #[test]
    fn leaf_to_leaf_four_hops() {
        let t = star();
        // node 2 (sw1) to node 4 (sw2): access + trunk up + trunk down + access
        assert_eq!(t.hops(NodeId(2), NodeId(4)), 4);
    }

    #[test]
    fn path_is_symmetric_in_link_set() {
        let t = star();
        let mut p1 = t.path(NodeId(2), NodeId(4));
        let mut p2 = t.path(NodeId(4), NodeId(2));
        p1.sort();
        p2.sort();
        assert_eq!(p1, p2);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let t = star();
        let per_hop = LinkParams::gigabit().latency_s;
        let lat = t.base_latency(NodeId(2), NodeId(4));
        assert!((lat - 4.0 * per_hop).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_bottleneck() {
        let t = Topology::star_of_switches(
            &[1, 1],
            LinkParams::gigabit(),
            LinkParams {
                capacity_bps: 0.5e9,
                latency_s: 10e-6,
            },
        );
        assert_eq!(t.path_capacity(NodeId(0), NodeId(1)), 0.5e9);
    }

    #[test]
    fn deep_chain_routing() {
        // chain of switches: 0 <- 1 <- 2, node 0 on sw0, node 1 on sw2
        let t = Topology::tree(
            &[None, Some(0), Some(1)],
            &[0, 2],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        // access + two trunks + access
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 4);
    }

    #[test]
    fn sibling_subtrees_route_through_lca_not_root() {
        // root 0; children 1, 2; 1's children 3, 4. Nodes on 3 and 4.
        let t = Topology::tree(
            &[None, Some(0), Some(0), Some(1), Some(1)],
            &[3, 4],
            LinkParams::gigabit(),
            LinkParams::gigabit(),
        );
        // path: access + up(3->1) + down(1->4) + access = 4 hops (LCA is 1, not root)
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 4);
    }
}
