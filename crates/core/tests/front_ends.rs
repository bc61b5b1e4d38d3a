//! Every front end of the Eq. 4 decision path places a job identically.
//!
//! The NLA policy, the switch-group allocator (below its flat threshold),
//! the SLURM select plugin (all nodes available, no host constraints) and
//! a fresh broker's first tick (no load deferral) all derive the same
//! universe and run the same Algorithm 1 → Algorithm 2 decision, so their
//! allocations may differ only in the policy label.

use nlrm_cluster::iitk::small_cluster;
use nlrm_core::broker::{Broker, BrokerConfig, BrokerEvent};
use nlrm_core::groups::ScalableAllocator;
use nlrm_core::slurm::{JobDescriptor, NlrmSelect, NodeBitmap, SelectPlugin};
use nlrm_core::{Allocation, AllocationRequest, NetworkLoadAwarePolicy, Policy};
use nlrm_monitor::MonitorRuntime;
use nlrm_sim_core::time::Duration;

const NODES: usize = 12;
const PPN: u32 = 4;

fn assert_same_placement(front_end: &str, got: &Allocation, want: &Allocation) {
    assert_eq!(got.nodes, want.nodes, "{front_end}: nodes");
    assert_eq!(got.rank_map, want.rank_map, "{front_end}: rank map");
    assert_eq!(
        got.diagnostics, want.diagnostics,
        "{front_end}: diagnostics"
    );
}

#[test]
fn every_front_end_places_like_the_nla_policy() {
    for seed in [1, 3, 7, 11] {
        let mut cluster = small_cluster(NODES, seed);
        let topo = cluster.topology().clone();
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        for procs in [8, 16, 20, 32] {
            for req in [
                AllocationRequest::minimd(procs),
                AllocationRequest::minife(procs),
            ] {
                let case = format!("seed {seed}, {procs} procs, alpha {}", req.alpha);
                let nla = NetworkLoadAwarePolicy::new().allocate(&snap, &req).unwrap();
                assert!(nla.diagnostics.explain.is_some(), "{case}");

                let flat = ScalableAllocator::new()
                    .allocate(&topo, &snap, &req)
                    .unwrap();
                assert_eq!(flat.policy, nla.policy, "{case}");
                assert_same_placement(&format!("scalable, {case}"), &flat, &nla);

                let job = JobDescriptor {
                    alpha: req.alpha,
                    ..JobDescriptor::tasks(procs, PPN)
                };
                let (bitmap, plugin) = NlrmSelect::new()
                    .select_nodes(&job, &NodeBitmap::all(NODES), &snap)
                    .unwrap();
                assert_same_placement(&format!("select plugin, {case}"), &plugin, &nla);
                assert_eq!(bitmap.count(), nla.nodes.len(), "{case}");
                assert!(nla.node_list().iter().all(|&n| bitmap.contains(n)));

                let mut broker = Broker::new(BrokerConfig {
                    max_load_per_core: None,
                    ..BrokerConfig::default()
                });
                broker.submit("job", req.clone()).unwrap();
                let events = broker.tick(&snap);
                let Some(BrokerEvent::Started(lease)) = events.first() else {
                    panic!("{case}: broker did not start the job: {events:?}");
                };
                assert_same_placement(&format!("broker, {case}"), &lease.allocation, &nla);
            }
        }
    }
}
