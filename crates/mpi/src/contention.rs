//! Max-min fair bandwidth sharing for concurrent flows.
//!
//! When several of a job's messages cross the same link — or share a link
//! with background traffic — they split its residual capacity. We use the
//! classic progressive-filling algorithm: repeatedly find the most
//! constrained link, freeze its flows at the fair share, remove their
//! demand, and continue. This is what makes a cross-switch allocation pay
//! for the shared trunk, the effect at the heart of the paper's Fig. 7
//! analysis.

use nlrm_cluster::ClusterSim;
use nlrm_topology::{LinkId, NodeId};
use std::ops::Range;

/// One flow to be rated: a node-to-node transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload in bytes.
    pub bytes: f64,
}

/// The computed rate for a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RatedFlow {
    /// The flow.
    pub flow: Flow,
    /// Assigned rate in bits per second (∞ for intra-node flows).
    pub rate_bps: f64,
    /// Current path latency in seconds.
    pub latency_s: f64,
    /// Links the flow crosses.
    pub links: Vec<LinkId>,
}

impl RatedFlow {
    /// Completion time of the flow at its assigned rate.
    pub fn duration_s(&self) -> f64 {
        if self.rate_bps.is_infinite() {
            // intra-node copy: model a 50 GB/s memory pipe + 1 µs launch
            return 1e-6 + self.flow.bytes / 50e9;
        }
        self.latency_s + self.flow.bytes * 8.0 / self.rate_bps.max(1.0)
    }
}

/// Solver state of one link crossed by at least one flow.
struct LinkState {
    id: LinkId,
    /// Residual capacity not yet handed to frozen flows.
    capacity: f64,
    /// Flows crossing the link that are not frozen yet.
    active: u32,
    /// The link's flows, ascending, as a range of the solver's flow list.
    flows: Range<usize>,
}

/// Assign max-min fair rates to `flows` given the cluster's current
/// residual link capacities (background + other jobs already subtracted).
///
/// Each flow is routed once; its latency is read off the same route. The
/// filling state is dense: one `LinkState` per crossed link, found by a
/// link-indexed slot table, with per-link flow lists, and counts that drop
/// as flows freeze. The bottleneck is the link with the smallest fair share,
/// ties broken by the lower link id.
pub fn fair_share_rates(cluster: &ClusterSim, flows: &[Flow]) -> Vec<RatedFlow> {
    let topo = cluster.topology();
    let network = cluster.network();
    let mut rated: Vec<RatedFlow> = flows
        .iter()
        .map(|f| {
            let route = topo.route(f.src, f.dst);
            // intra-node flows are infinitely fast as far as the network is
            // concerned
            let (rate_bps, latency_s) = if route.is_empty() {
                (f64::INFINITY, 0.0)
            } else {
                (0.0, network.route_latency_s(topo, &route))
            };
            RatedFlow {
                flow: f.clone(),
                rate_bps,
                latency_s,
                links: route.to_vec(),
            }
        })
        .collect();

    // residual capacity per crossed link; keep a tiny floor so a fully
    // saturated link still trickles (TCP never fully starves)
    const UNSEEN: u32 = u32::MAX;
    let mut slot = vec![UNSEEN; topo.num_links()];
    let mut links: Vec<LinkState> = Vec::new();
    for rf in &rated {
        for &l in &rf.links {
            if slot[l.index()] == UNSEEN {
                slot[l.index()] = links.len() as u32;
                links.push(LinkState {
                    id: l,
                    capacity: cluster.link_residual_bps(l).max(1e6),
                    active: 0,
                    flows: 0..0,
                });
            }
            links[slot[l.index()] as usize].active += 1;
        }
    }
    let mut at = 0;
    for link in &mut links {
        link.flows = at..at;
        at += link.active as usize;
    }
    let mut on_link = vec![0usize; at];
    for (i, rf) in rated.iter().enumerate() {
        for &l in &rf.links {
            let flows = &mut links[slot[l.index()] as usize].flows;
            on_link[flows.end] = i;
            flows.end += 1;
        }
    }

    // progressive filling
    let mut frozen = vec![false; rated.len()];
    let mut remaining = rated.iter().filter(|rf| !rf.links.is_empty()).count();
    while remaining > 0 {
        // bottleneck link: smallest fair share
        let share_of = |link: &LinkState| link.capacity / link.active as f64;
        let bottleneck = links
            .iter()
            .filter(|link| link.active > 0)
            .min_by(|a, b| share_of(a).total_cmp(&share_of(b)).then(a.id.cmp(&b.id)))
            .expect("active flows imply counted links");
        let share = share_of(bottleneck);
        // freeze its flows, in flow order
        for &i in &on_link[bottleneck.flows.clone()] {
            if frozen[i] {
                continue;
            }
            frozen[i] = true;
            rated[i].rate_bps = share;
            remaining -= 1;
            for &l in &rated[i].links {
                let link = &mut links[slot[l.index()] as usize];
                link.capacity = (link.capacity - share).max(0.0);
                link.active -= 1;
            }
        }
    }
    rated
}

/// Completion time of a set of concurrent flows: the slowest flow's
/// duration (rates held constant for the round — a conservative model).
pub fn round_duration_s(rated: &[RatedFlow]) -> f64 {
    rated.iter().map(|r| r.duration_s()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::{campus, iitk_cluster, small_cluster_with_profile};
    use nlrm_cluster::{ClusterProfile, NodeSpec};
    use nlrm_sim_core::time::Duration;
    use nlrm_topology::{LinkParams, Topology};
    use std::collections::HashMap;

    /// The `HashMap` progressive-filling solver the dense one replaced,
    /// kept as its oracle: two routings per flow and a recount of every
    /// active flow's links on each filling iteration.
    fn oracle_rates(cluster: &ClusterSim, flows: &[Flow]) -> Vec<RatedFlow> {
        let topo = cluster.topology();
        let mut rated: Vec<RatedFlow> = flows
            .iter()
            .map(|f| {
                let links = topo.path(f.src, f.dst);
                let latency_s = if links.is_empty() {
                    0.0
                } else {
                    cluster.latency_s(f.src, f.dst)
                };
                RatedFlow {
                    flow: f.clone(),
                    rate_bps: 0.0,
                    latency_s,
                    links,
                }
            })
            .collect();
        let mut capacity: HashMap<LinkId, f64> = HashMap::new();
        for rf in &rated {
            for &l in &rf.links {
                capacity
                    .entry(l)
                    .or_insert_with(|| cluster.link_residual_bps(l).max(1e6));
            }
        }
        let mut active: Vec<usize> = (0..rated.len())
            .filter(|&i| !rated[i].links.is_empty())
            .collect();
        for rf in rated.iter_mut() {
            if rf.links.is_empty() {
                rf.rate_bps = f64::INFINITY;
            }
        }
        while !active.is_empty() {
            let mut count: HashMap<LinkId, usize> = HashMap::new();
            for &i in &active {
                for &l in &rated[i].links {
                    *count.entry(l).or_insert(0) += 1;
                }
            }
            let (&bottleneck, _) = count
                .iter()
                .min_by(|(la, &ca), (lb, &cb)| {
                    let sa = capacity[la] / ca as f64;
                    let sb = capacity[lb] / cb as f64;
                    sa.total_cmp(&sb).then(la.cmp(lb))
                })
                .expect("active flows imply counted links");
            let share = capacity[&bottleneck] / count[&bottleneck] as f64;
            let (frozen, rest): (Vec<usize>, Vec<usize>) = active
                .into_iter()
                .partition(|&i| rated[i].links.contains(&bottleneck));
            for &i in &frozen {
                rated[i].rate_bps = share;
                for &l in &rated[i].links {
                    let c = capacity.get_mut(&l).expect("seen link");
                    *c = (*c - share).max(0.0);
                }
            }
            active = rest;
        }
        rated
    }

    fn assert_matches_oracle(cluster: &ClusterSim, flows: &[Flow]) {
        let want = oracle_rates(cluster, flows);
        let got = fair_share_rates(cluster, flows);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.flow, w.flow, "flow {i}");
            assert_eq!(g.links, w.links, "flow {i} links");
            assert_eq!(g.rate_bps.to_bits(), w.rate_bps.to_bits(), "flow {i} rate");
            assert_eq!(
                g.latency_s.to_bits(),
                w.latency_s.to_bits(),
                "flow {i} latency"
            );
        }
    }

    /// splitmix64, for the random flow sets.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049e_b5d3_a133);
        z ^ (z >> 31)
    }

    /// 1–96 flows between random nodes: about one in eight is intra-node
    /// and about one in eight repeats an earlier flow exactly.
    fn random_flows(n: usize, seed: u64) -> Vec<Flow> {
        let mut st = seed;
        let count = 1 + (next(&mut st) % 96) as usize;
        let mut flows: Vec<Flow> = Vec::with_capacity(count);
        for _ in 0..count {
            let pick = next(&mut st) % 8;
            if pick == 0 && !flows.is_empty() {
                let again = flows[(next(&mut st) % flows.len() as u64) as usize].clone();
                flows.push(again);
                continue;
            }
            let src = NodeId((next(&mut st) % n as u64) as u32);
            let dst = if pick == 1 {
                src
            } else {
                NodeId((next(&mut st) % n as u64) as u32)
            };
            let bytes = (1 + next(&mut st) % 1_000_000) as f64;
            flows.push(Flow { src, dst, bytes });
        }
        flows
    }

    #[test]
    fn dense_solver_matches_the_hashmap_oracle_on_random_flow_sets() {
        let clusters = [iitk_cluster(4), campus(5, 12, 6)];
        for mut cluster in clusters {
            let n = cluster.num_nodes();
            for round in 0..40u64 {
                cluster.advance(Duration::from_secs(35));
                // other jobs' traffic on a few links, so residuals differ
                // from the background alone
                let l = LinkId((round * 7 % cluster.topology().num_links() as u64) as u32);
                cluster.add_job_util(l, 0.3);
                assert_matches_oracle(&cluster, &random_flows(n, round * 31 + n as u64));
            }
        }
    }

    #[test]
    fn dense_solver_matches_the_oracle_on_exact_share_ties() {
        let mut cluster = iitk_cluster(8);
        cluster.advance(Duration::from_secs(60));
        // every link at the same utilization: equal residuals R everywhere
        for l in 0..cluster.topology().num_links() {
            cluster.override_link_background(LinkId(l as u32), 0.3);
        }
        let flow = |s: u32, d: u32| Flow {
            src: NodeId(s),
            dst: NodeId(d),
            bytes: 1e6,
        };
        // nodes 0 and 1 each carry three flows, one of them shared, so
        // their access links tie at R/3. The one picked first freezes its
        // flows at R/3; the other's two remaining flows get (R − R/3)/2,
        // which differs from R/3 in the last bit at this R. Which flows
        // get which value shows the tie-break.
        let tied = [flow(0, 2), flow(0, 3), flow(0, 1), flow(1, 4), flow(1, 5)];
        assert_matches_oracle(&cluster, &tied);
        let rated = fair_share_rates(&cluster, &tied);
        assert_eq!(
            rated[0].rate_bps, rated[2].rate_bps,
            "the lower link froze first"
        );
        assert_ne!(rated[0].rate_bps.to_bits(), rated[3].rate_bps.to_bits());
        // a same-switch ring, two trunk crossings, an intra-node flow and a
        // duplicate: many links tie on their first fair share
        let mut flows: Vec<Flow> = (0..6).map(|i| flow(i, (i + 1) % 6)).collect();
        flows.extend([flow(1, 20), flow(16, 40), flow(3, 3), flow(1, 20)]);
        assert_matches_oracle(&cluster, &flows);
    }

    #[test]
    fn dense_solver_matches_the_oracle_on_links_saturated_to_the_floor() {
        // 2 Mb/s access links: a node's own NIC traffic saturates them, so
        // every access residual sits at the 1e6 floor
        let slow = LinkParams {
            capacity_bps: 2e6,
            latency_s: 1e-4,
        };
        let topo = Topology::star_of_switches(&[4, 4], slow, LinkParams::gigabit());
        let specs = (0..8)
            .map(|i| NodeSpec {
                hostname: format!("slow{i}"),
                cores: 8,
                freq_ghz: 3.0,
                total_mem_gb: 16.0,
            })
            .collect();
        let mut cluster = ClusterSim::new(topo, specs, ClusterProfile::shared_lab(), 11);
        cluster.advance(Duration::from_secs(120));
        let floored = (0..8)
            .filter(|&i| {
                let l = cluster.topology().access_link(NodeId(i));
                cluster.link_residual_bps(l) < 1e6
            })
            .count();
        assert!(floored > 0, "no access link below the floor");
        for seed in 0..20 {
            assert_matches_oracle(&cluster, &random_flows(8, seed));
        }
    }

    fn quiet_cluster(n: usize) -> ClusterSim {
        let mut c = small_cluster_with_profile(n, ClusterProfile::quiet(), 3);
        c.advance(Duration::from_secs(30));
        c
    }

    #[test]
    fn single_flow_gets_full_residual() {
        let cluster = quiet_cluster(4);
        let flows = vec![Flow {
            src: NodeId(0),
            dst: NodeId(1),
            bytes: 1e6,
        }];
        let rated = fair_share_rates(&cluster, &flows);
        // quiet profile: ~1-2% background, so rate close to 1 Gb/s
        assert!(rated[0].rate_bps > 0.9e9, "rate {}", rated[0].rate_bps);
    }

    #[test]
    fn flows_sharing_a_link_split_it() {
        let cluster = quiet_cluster(4);
        // two flows out of node 0: share its access link
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e6,
            },
            Flow {
                src: NodeId(0),
                dst: NodeId(2),
                bytes: 1e6,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        let total: f64 = rated.iter().map(|r| r.rate_bps).sum();
        let residual = cluster.link_residual_bps(cluster.topology().access_link(NodeId(0)));
        assert!(
            total <= residual * 1.001,
            "total {total} > residual {residual}"
        );
        assert!((rated[0].rate_bps - rated[1].rate_bps).abs() < 1.0);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let cluster = quiet_cluster(6);
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e6,
            },
            Flow {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 1e6,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        assert!(rated[0].rate_bps > 0.9e9);
        assert!(rated[1].rate_bps > 0.9e9);
    }

    #[test]
    fn intra_node_flow_is_network_free() {
        let cluster = quiet_cluster(3);
        let flows = vec![Flow {
            src: NodeId(1),
            dst: NodeId(1),
            bytes: 1e9,
        }];
        let rated = fair_share_rates(&cluster, &flows);
        assert!(rated[0].rate_bps.is_infinite());
        // 1 GB over a 50 GB/s pipe = 20 ms
        assert!((rated[0].duration_s() - 0.02).abs() < 0.001);
    }

    #[test]
    fn conservation_no_link_oversubscribed() {
        let cluster = quiet_cluster(8);
        // all-to-one incast on node 0
        let flows: Vec<Flow> = (1..8)
            .map(|i| Flow {
                src: NodeId(i),
                dst: NodeId(0),
                bytes: 1e6,
            })
            .collect();
        let rated = fair_share_rates(&cluster, &flows);
        let mut per_link: HashMap<LinkId, f64> = HashMap::new();
        for r in &rated {
            for &l in &r.links {
                *per_link.entry(l).or_insert(0.0) += r.rate_bps;
            }
        }
        for (l, used) in per_link {
            let cap = cluster.link_residual_bps(l).max(1e6);
            assert!(used <= cap * 1.001, "link {l:?} over: {used} > {cap}");
        }
    }

    #[test]
    fn round_duration_is_slowest_flow() {
        let cluster = quiet_cluster(4);
        let flows = vec![
            Flow {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1e3,
            },
            Flow {
                src: NodeId(2),
                dst: NodeId(3),
                bytes: 1e8,
            },
        ];
        let rated = fair_share_rates(&cluster, &flows);
        let d = round_duration_s(&rated);
        assert!((d - rated[1].duration_s()).abs() < 1e-12);
        assert!(d > 0.5, "100 MB on ~1 Gb/s should take ~0.8 s, got {d}");
    }
}
