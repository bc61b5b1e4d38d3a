//! Property-based tests for the allocator's building blocks, driven by
//! synthetic `Loads` so the whole input space is explored (not just states
//! the simulator happens to produce).

use nlrm_core::candidate::{generate_all_candidates, generate_candidate};
use nlrm_core::loads::{effective_pc, Loads};
use nlrm_core::saw::{normalize_sum, saw_scores, unidirectional, Column, Criterion};
use nlrm_core::select::{group_cost, select_best};
use nlrm_core::{ComputeWeights, NetworkWeights, NlRep, StalenessPolicy};
use nlrm_monitor::codec::{decode, MonitorRecord};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::SymMatrix;
use nlrm_monitor::{ClusterSnapshot, InterEstimate, MonitorRuntime, MonitorTopo, ShardConfig};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::{NodeId, SwitchIndex};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Strategy: a synthetic `Loads` with n usable nodes, arbitrary CL values,
/// an arbitrary symmetric NL matrix, and per-node capacities.
fn arb_loads() -> impl Strategy<Value = Loads> {
    (2usize..12)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0.0f64..10.0, n),
                proptest::collection::vec(0.0f64..10.0, n * n),
                proptest::collection::vec(1u32..8, n),
            )
        })
        .prop_map(|(n, cl, nl_raw, pc)| {
            let usable: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
            let mut nl = SymMatrix::new(n, 0.0);
            for i in 0..n {
                for j in (i + 1)..n {
                    nl.set(NodeId(i as u32), NodeId(j as u32), nl_raw[i * n + j]);
                }
            }
            Loads::from_parts(usable, cl, nl, pc)
        })
}

proptest! {
    /// Eq. 3 bounds: `pc_v` is always in `[1, coreCount]`.
    #[test]
    fn effective_pc_bounds(cores in 1u32..256, load in 0.0f64..1e4) {
        let pc = effective_pc(cores, load);
        prop_assert!(pc >= 1 && pc <= cores);
        // idle node gets everything
        prop_assert_eq!(effective_pc(cores, 0.0), cores);
    }

    /// Sum normalization produces a probability-like vector.
    #[test]
    fn normalization_is_a_distribution(values in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let n = normalize_sum(&values);
        prop_assert!(n.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        let sum: f64 = n.iter().sum();
        prop_assert!(sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9);
    }

    /// Complementing preserves scores ≥ 0 and reverses the ordering.
    #[test]
    fn complement_reverses_order(values in proptest::collection::vec(0.0f64..1e6, 2..50)) {
        let norm = normalize_sum(&values);
        let comp = unidirectional(&norm, Criterion::Maximize);
        prop_assert!(comp.iter().all(|&x| x >= -1e-12));
        for i in 0..values.len() {
            for j in 0..values.len() {
                if norm[i] < norm[j] {
                    prop_assert!(comp[i] >= comp[j] - 1e-12);
                }
            }
        }
    }

    /// SAW ranking is invariant to rescaling any column's raw values.
    #[test]
    fn saw_is_scale_invariant(
        col1 in proptest::collection::vec(0.1f64..100.0, 4),
        col2 in proptest::collection::vec(0.1f64..100.0, 4),
        scale in 0.1f64..1000.0,
    ) {
        let build = |c1: &[f64]| {
            saw_scores(&[
                Column { values: c1.to_vec(), criterion: Criterion::Minimize, weight: 0.6 },
                Column { values: col2.clone(), criterion: Criterion::Maximize, weight: 0.4 },
            ])
        };
        let a = build(&col1);
        let scaled: Vec<f64> = col1.iter().map(|v| v * scale).collect();
        let b = build(&scaled);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert_eq!(a[i] < a[j] - 1e-12, b[i] < b[j] - 1e-12);
            }
        }
    }

    /// Algorithm 1 on arbitrary loads: the candidate covers the request,
    /// starts at its seed node, and never repeats a node.
    #[test]
    fn candidates_always_cover_request(
        loads in arb_loads(),
        n_procs in 1u32..64,
        alpha in 0.0f64..=1.0,
    ) {
        let beta = 1.0 - alpha;
        for &start in &loads.usable {
            let c = generate_candidate(&loads, start, n_procs, alpha, beta);
            prop_assert_eq!(c.total_procs(), n_procs);
            prop_assert_eq!(c.nodes[0], start);
            let mut uniq = c.nodes.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), c.nodes.len());
            // within capacity unless the cluster was exhausted
            let cap: u64 = loads.usable.iter().map(|&u| loads.pc_of(u) as u64).sum();
            if (n_procs as u64) <= cap {
                for (&node, &p) in c.nodes.iter().zip(&c.procs) {
                    prop_assert!(p <= loads.pc_of(node));
                }
            }
        }
    }

    /// Algorithm 2 picks a true minimum of its own cost table.
    #[test]
    fn selection_minimizes_cost_table(
        loads in arb_loads(),
        n_procs in 1u32..32,
        alpha in 0.0f64..=1.0,
    ) {
        let beta = 1.0 - alpha;
        let candidates = generate_all_candidates(&loads, n_procs, alpha, beta);
        let sel = select_best(&loads, &candidates, alpha, beta);
        prop_assert_eq!(sel.costs.len(), candidates.len());
        for &(_, t) in &sel.costs {
            prop_assert!(sel.best_cost <= t + 1e-12);
            prop_assert!(t.is_finite());
        }
    }

    /// The globally-normalized group cost is monotone under inclusion and
    /// equals α+β on the full universe.
    #[test]
    fn group_cost_monotone(loads in arb_loads(), alpha in 0.0f64..=1.0) {
        let beta = 1.0 - alpha;
        let all = loads.usable.clone();
        let full = group_cost(&loads, &all, alpha, beta);
        prop_assert!((full - 1.0).abs() < 1e-9 || full.abs() < 1e-9);
        let mut prefix = Vec::new();
        let mut prev = 0.0;
        for &u in &all {
            prefix.push(u);
            let cost = group_cost(&loads, &prefix, alpha, beta);
            prop_assert!(cost + 1e-12 >= prev);
            prev = cost;
        }
    }
}

/// A warmed sharded snapshot of the IIT-K cluster, its switch index, and
/// the inter-shard estimate its monitor published, as a decoded record
/// whose bands the property below rewrites.
fn sharded_fixture() -> &'static (ClusterSnapshot, SwitchIndex, MonitorRecord) {
    static FIXTURE: OnceLock<(ClusterSnapshot, SwitchIndex, MonitorRecord)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cluster = nlrm_cluster::iitk::iitk_cluster(5);
        let index = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(index.clone())),
        );
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .expect("a warmed sharded monitor has a snapshot");
        let est = rt
            .inter_estimate()
            .expect("sharded run publishes an estimate");
        let record = decode(&est.to_record(0, SimTime::ZERO)).expect("own record decodes");
        (snap, index, record)
    })
}

/// One band around `point`: kind 0 is zero width, kind 1 a finite band
/// `[point·(1 − lo), point·(1 + hi)]`, kind 2 the same lower end with an
/// infinite upper end.
fn band_around(point: f64, (lo, kind, hi): (f64, u32, f64)) -> (f64, f64) {
    match kind {
        0 => (point, point),
        1 => (point * (1.0 - lo), point * (1.0 + hi)),
        _ => (point * (1.0 - lo), f64::INFINITY),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever width the estimator's bands have (zero, finite, or an
    /// infinite upper end), `derive_sharded` yields finite point NL values,
    /// finite lower bounds with `lo ≤ point ≤ hi`, finite pruning bounds,
    /// and an upper bound that is never NaN and is infinite only where an
    /// input band's upper end was.
    #[test]
    fn derive_sharded_stays_finite_for_any_band_width(
        widths in proptest::collection::vec((0.0f64..=1.0, 0u32..3, 0.0f64..10.0), 8),
    ) {
        let (snap, index, record) = sharded_fixture();
        let mut record = record.clone();
        let MonitorRecord::InterEstimate { switches, .. } = &mut record else {
            unreachable!("the fixture holds an estimate record");
        };
        prop_assert!(switches.len() >= 2, "the estimate covers several shards");
        let mut open_ended = vec![false; index.num_switches()];
        for (k, s) in switches.iter_mut().enumerate() {
            let (lat, cbw) = (widths[(2 * k) % 8], widths[(2 * k + 1) % 8]);
            (s.lat_lo, s.lat_hi) = band_around(s.lat, lat);
            (s.cbw_lo, s.cbw_hi) = band_around(s.cbw, cbw);
            open_ended[s.switch as usize] = lat.1 == 2 || cbw.1 == 2;
        }
        let est = InterEstimate::from_record(&record).expect("an estimate record");
        for weights in [
            NetworkWeights::paper_default(),
            NetworkWeights { latency: 1.0, bandwidth: 0.0 },
            NetworkWeights { latency: 0.0, bandwidth: 1.0 },
        ] {
            let loads = Loads::derive_sharded(
                snap,
                &est,
                index,
                &ComputeWeights::paper_default(),
                &weights,
                Some(4),
                &StalenessPolicy::default(),
            )
            .expect("a warm snapshot derives");
            let NlRep::Estimated(nl) = &loads.nl else {
                panic!("derive_sharded attaches bounds");
            };
            prop_assert!(loads.cl.iter().all(|c| c.is_finite()));
            for (i, &u) in loads.usable.iter().enumerate() {
                for &v in &loads.usable[i + 1..] {
                    let point = nl.get(u, v);
                    let (lo, hi) = nl.bounds(u, v);
                    prop_assert!(point.is_finite() && point >= 0.0, "{u}-{v}: point {point}");
                    prop_assert!(lo.is_finite() && lo <= point, "{u}-{v}: lo {lo} > {point}");
                    prop_assert!(!hi.is_nan() && hi >= point, "{u}-{v}: hi {hi} < {point}");
                    let ends = [u, v].map(|n| open_ended[index.switch_of(n).index()]);
                    prop_assert!(
                        hi.is_finite() || ends.contains(&true),
                        "{u}-{v}: infinite hi from finite bands"
                    );
                }
            }
            let pruning = nl.min_incident(&loads.usable);
            prop_assert!(pruning.iter().all(|b| b.is_finite()), "{pruning:?}");
        }
    }
}
