//! The BSP job executor.
//!
//! Runs a [`Workload`] phase by phase on a [`Communicator`] placed on the
//! simulated cluster:
//!
//! * **compute**: each rank's work divided by its *effective* core speed —
//!   background load and utilization steal cores, so a busy node slows its
//!   ranks (this is why load-aware allocation helps);
//! * **communication**: P2P messages run concurrently under max-min link
//!   sharing, collectives run round by round (this is why *network*-aware
//!   allocation helps);
//! * the cluster clock advances with the job, and the job's load and
//!   traffic are registered on the cluster so monitors (and Fig. 5's
//!   load-per-core measurement) see it.

use crate::collectives::expand;
use crate::comm::Communicator;
use crate::contention::{fair_share_rates, round_duration_s, Flow};
use crate::pattern::{Message, Phase, Workload};
use nlrm_cluster::ClusterSim;
use nlrm_obs::span::{SpanId, TraceId};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Histogram bucket bounds (seconds wall clock) for one job execution.
const EXECUTE_WALL_BOUNDS: &[f64] = &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Causal-trace context for one job execution: the job's trace and the
/// broker span execution should hang under (typically the lease's
/// `root_span`). Passed to [`execute_traced`] by callers that want per-rank
/// compute and per-collective spans recorded in the installed observer.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// The job's trace.
    pub trace: TraceId,
    /// Parent span for the execution subtree (e.g. the job's root span).
    pub parent: Option<SpanId>,
}

/// Timing breakdown of one job execution.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct JobTiming {
    /// Total wall-clock (virtual) execution time, seconds.
    pub total_s: f64,
    /// Time spent in compute, seconds.
    pub compute_s: f64,
    /// Time spent communicating, seconds.
    pub comm_s: f64,
    /// Number of executed timesteps.
    pub steps: usize,
    /// Mean CPU load per logical core over the job's nodes, sampled each
    /// step *during* execution (the paper's Fig. 5 metric).
    pub mean_load_per_core: f64,
}

impl JobTiming {
    /// Fraction of time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.comm_s / self.total_s
        }
    }
}

/// Effective per-process core speed on a node: nominal frequency scaled by
/// how many cores the job's `procs` must share with background activity.
fn effective_speed_ghz(cluster: &ClusterSim, node: NodeId, procs: u32, own_load: f64) -> f64 {
    let spec = cluster.spec(node);
    let state = cluster.node_state(node);
    // background demand: runnable queue (minus our own registered load)
    // plus interactive utilization that occupies cores without queueing
    let bg_queue = (state.cpu_load - own_load).max(0.0);
    let bg_util_cores = (state.cpu_util * spec.cores as f64 - own_load).max(0.0);
    let busy = bg_queue.max(bg_util_cores);
    let demand = busy + procs as f64;
    let cores = spec.cores as f64;
    let share = if demand <= cores { 1.0 } else { cores / demand };
    spec.freq_ghz * share
}

/// Convert rank-level messages to node-level flows, dropping intra-node
/// messages into a synthetic self-flow (handled as a memory copy).
fn to_flows(comm: &Communicator, messages: &[Message]) -> Vec<Flow> {
    messages
        .iter()
        .map(|m| Flow {
            src: comm.node_of(m.src),
            dst: comm.node_of(m.dst),
            bytes: m.bytes,
        })
        .collect()
}

/// Rate one round of concurrent messages and return (duration, per-link
/// utilization fractions used for job-traffic registration).
fn run_round(
    cluster: &ClusterSim,
    comm: &Communicator,
    messages: &[Message],
) -> (f64, HashMap<LinkId, f64>) {
    if messages.is_empty() {
        return (0.0, HashMap::new());
    }
    let flows = to_flows(comm, messages);
    let rated = fair_share_rates(cluster, &flows);
    let duration = round_duration_s(&rated);
    let mut util: HashMap<LinkId, f64> = HashMap::new();
    for r in &rated {
        if r.rate_bps.is_finite() {
            for &l in &r.links {
                let cap = cluster.topology().link(l).params.capacity_bps;
                *util.entry(l).or_insert(0.0) += r.rate_bps / cap;
            }
        }
    }
    (duration, util)
}

/// Execute `workload` on `comm` over `cluster`, advancing virtual time.
///
/// The job's runnable processes are registered on its nodes for the whole
/// run, and each step's communication traffic is registered on the links it
/// used while the clock advances across that step — so a concurrently
/// running monitor sees the job, and a second job would contend with it.
pub fn execute(
    cluster: &mut ClusterSim,
    comm: &Communicator,
    workload: &dyn Workload,
) -> JobTiming {
    execute_traced(cluster, comm, workload, None)
}

/// [`execute`], optionally recording the run as a span subtree of `trace`:
/// an `exec` span over the whole run, a `step` span per BSP timestep, and
/// under each step per-rank `compute` spans plus `p2p`/`collective` spans
/// for the communication phases. With `None` (or no installed observer)
/// this is exactly `execute` — no span bookkeeping happens at all.
///
/// Under an installed observer, every run (traced or not) observes its
/// wall time in the `mpi_execute_wall_seconds` histogram; the name's `wall`
/// fragment keeps it out of the flight recorder's replay digest.
pub fn execute_traced(
    cluster: &mut ClusterSim,
    comm: &Communicator,
    workload: &dyn Workload,
    trace: Option<&TraceCtx>,
) -> JobTiming {
    let started = nlrm_obs::ctx::is_active().then(std::time::Instant::now);
    // register job load
    for (node, procs) in comm.placement() {
        cluster.add_job_load(node, procs as f64);
    }

    // spans live on the virtual interval [t0, t0 + timing.total_s]; the
    // cluster clock may overshoot past the end (5 s dynamics quanta), so
    // span stamps derive from the job's own accumulated time, not `now()`
    let t0 = cluster.now();
    let job_track = format!("mpi:{}", workload.name());
    let tracing = trace.filter(|_| nlrm_obs::ctx::is_active());
    let exec_span = tracing.and_then(|tc| {
        nlrm_obs::ctx::span_start_kv(
            tc.trace,
            tc.parent,
            "exec",
            &format!("{job_track}/exec"),
            t0,
            vec![
                ("workload".into(), workload.name()),
                ("ranks".into(), comm.size().to_string()),
            ],
        )
    });
    let at = |offset_s: f64| -> SimTime { t0 + Duration::from_secs_f64(offset_s) };

    let mut timing = JobTiming::default();
    let mut load_per_core_acc = 0.0;
    // fractional virtual time not yet applied to the cluster (steps are
    // usually much shorter than the cluster's 5 s dynamics resolution)
    let mut pending_s = 0.0f64;
    let resolution_s = 5.0;

    for step in 0..workload.steps() {
        let phase: Phase = workload.phase(step, comm);
        assert_eq!(
            phase.compute_gcycles.len(),
            comm.size(),
            "phase work vector must match communicator size"
        );
        let step_start_s = timing.total_s;
        let step_span = exec_span.and_then(|es| {
            nlrm_obs::ctx::span_start_kv(
                tracing.expect("exec span implies trace ctx").trace,
                Some(es),
                "step",
                &format!("{job_track}/exec"),
                at(step_start_s),
                vec![("step".into(), step.to_string())],
            )
        });

        // Fig. 5 metric: load per logical core over the job's nodes
        let mut load = 0.0;
        let mut cores = 0.0;
        for (node, _) in comm.placement() {
            load += cluster.node_state(node).cpu_load;
            cores += cluster.spec(node).cores as f64;
        }
        load_per_core_acc += load / cores;

        // --- compute: slowest rank gates the step (BSP) ---
        let mut compute_s: f64 = 0.0;
        for (rank, &work) in phase.compute_gcycles.iter().enumerate() {
            let node = comm.node_of(rank);
            let own = comm.procs_on(node) as f64;
            let speed = effective_speed_ghz(cluster, node, comm.procs_on(node), own);
            if work > 0.0 {
                let rank_s = work / speed.max(1e-6);
                compute_s = compute_s.max(rank_s);
                if let (Some(ss), Some(tc)) = (step_span, tracing) {
                    nlrm_obs::ctx::span_closed(
                        tc.trace,
                        Some(ss),
                        "compute",
                        &format!("{job_track}/rank{rank}"),
                        at(step_start_s),
                        at(step_start_s + rank_s),
                        vec![("node".into(), node.to_string())],
                    );
                }
            }
        }

        // --- communication: P2P round, then each collective's rounds ---
        let mut comm_s = 0.0;
        let mut link_util: HashMap<LinkId, f64> = HashMap::new();
        let mut weighted_util = |util: HashMap<LinkId, f64>, dur: f64| {
            for (l, u) in util {
                *link_util.entry(l).or_insert(0.0) += u * dur;
            }
        };
        let (d, util) = run_round(cluster, comm, &phase.messages);
        comm_s += d;
        weighted_util(util, d);
        if d > 0.0 {
            if let (Some(ss), Some(tc)) = (step_span, tracing) {
                nlrm_obs::ctx::span_closed(
                    tc.trace,
                    Some(ss),
                    "p2p",
                    &format!("{job_track}/net"),
                    at(step_start_s + compute_s),
                    at(step_start_s + compute_s + d),
                    vec![("messages".into(), phase.messages.len().to_string())],
                );
            }
        }
        for coll in &phase.collectives {
            let coll_start_s = compute_s + comm_s;
            let mut coll_s = 0.0;
            let mut rounds = 0usize;
            for round in expand(coll, comm) {
                let (d, util) = run_round(cluster, comm, &round);
                coll_s += d;
                rounds += 1;
                weighted_util(util, d);
            }
            comm_s += coll_s;
            if coll_s > 0.0 {
                if let (Some(ss), Some(tc)) = (step_span, tracing) {
                    nlrm_obs::ctx::span_closed(
                        tc.trace,
                        Some(ss),
                        "collective",
                        &format!("{job_track}/net"),
                        at(step_start_s + coll_start_s),
                        at(step_start_s + coll_start_s + coll_s),
                        vec![
                            ("op".into(), coll.label().to_string()),
                            ("rounds".into(), rounds.to_string()),
                        ],
                    );
                }
            }
        }

        let step_s = compute_s + comm_s;
        if let Some(ss) = step_span {
            nlrm_obs::ctx::span_end(ss, at(step_start_s + step_s));
        }
        timing.compute_s += compute_s;
        timing.comm_s += comm_s;
        timing.total_s += step_s;

        // advance the cluster across this step with the job's average
        // traffic registered on the links it used; sub-resolution steps are
        // accumulated so the cluster clock tracks the job without rounding
        // every step up to the 5 s dynamics quantum
        pending_s += step_s;
        if pending_s >= resolution_s {
            let whole = (pending_s / resolution_s).floor() * resolution_s;
            let mean_util: Vec<(LinkId, f64)> = link_util
                .iter()
                .map(|(&l, &acc)| (l, (acc / step_s.max(1e-9)).min(1.0)))
                .collect();
            for &(l, u) in &mean_util {
                cluster.add_job_util(l, u);
            }
            cluster.advance(Duration::from_secs_f64(whole));
            for &(l, u) in &mean_util {
                cluster.add_job_util(l, -u);
            }
            pending_s -= whole;
        }
        timing.steps += 1;
    }

    // flush leftover sub-resolution time, then deregister job load
    if pending_s > 0.0 {
        cluster.advance(Duration::from_secs_f64(pending_s));
    }
    for (node, procs) in comm.placement() {
        cluster.add_job_load(node, -(procs as f64));
    }

    timing.mean_load_per_core = if timing.steps > 0 {
        load_per_core_acc / timing.steps as f64
    } else {
        0.0
    };
    if let Some(es) = exec_span {
        nlrm_obs::ctx::span_annotate(es, "compute_s", format!("{:.3}", timing.compute_s));
        nlrm_obs::ctx::span_annotate(es, "comm_s", format!("{:.3}", timing.comm_s));
        nlrm_obs::ctx::span_end(es, at(timing.total_s));
    }
    if let Some(started) = started {
        nlrm_obs::ctx::observe(
            "mpi_execute_wall_seconds",
            EXECUTE_WALL_BOUNDS,
            started.elapsed().as_secs_f64(),
        );
    }
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Collective;
    use nlrm_cluster::iitk::{small_cluster, small_cluster_with_profile};
    use nlrm_cluster::ClusterProfile;

    /// A trivial workload for executor tests.
    struct Toy {
        steps: usize,
        gcycles: f64,
        msg_bytes: f64,
    }

    impl Workload for Toy {
        fn name(&self) -> String {
            "toy".into()
        }
        fn steps(&self) -> usize {
            self.steps
        }
        fn phase(&self, _step: usize, comm: &Communicator) -> Phase {
            let p = comm.size();
            let messages = if self.msg_bytes > 0.0 {
                (0..p)
                    .map(|i| Message {
                        src: i,
                        dst: (i + 1) % p,
                        bytes: self.msg_bytes,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            Phase {
                compute_gcycles: vec![self.gcycles; p],
                messages,
                collectives: vec![Collective::Allreduce { bytes: 8.0 }],
            }
        }
    }

    fn quiet(n: usize) -> ClusterSim {
        let mut c = small_cluster_with_profile(n, ClusterProfile::quiet(), 5);
        c.advance(Duration::from_secs(30));
        c
    }

    fn ring_comm(nodes: &[u32], ppn: u32) -> Communicator {
        let mut map = Vec::new();
        for &n in nodes {
            for _ in 0..ppn {
                map.push(NodeId(n));
            }
        }
        Communicator::new(map)
    }

    #[test]
    fn compute_only_time_matches_frequency() {
        let mut cluster = quiet(2);
        let comm = ring_comm(&[0, 1], 2);
        let toy = Toy {
            steps: 10,
            gcycles: 3.0, // 3 Gcycles on a 3 GHz free core = 1 s
            msg_bytes: 0.0,
        };
        let t = execute(&mut cluster, &comm, &toy);
        assert_eq!(t.steps, 10);
        // ~1 s per step of compute plus a tiny allreduce
        assert!((t.compute_s - 10.0).abs() < 0.5, "compute {}", t.compute_s);
        assert!(t.comm_s < 0.5);
        assert!(t.comm_fraction() < 0.1);
    }

    #[test]
    fn communication_scales_with_bytes() {
        let mut a = quiet(4);
        let mut b = quiet(4);
        let comm = ring_comm(&[0, 1, 2, 3], 1);
        let small = execute(
            &mut a,
            &comm,
            &Toy {
                steps: 5,
                gcycles: 0.1,
                msg_bytes: 1e4,
            },
        );
        let large = execute(
            &mut b,
            &comm,
            &Toy {
                steps: 5,
                gcycles: 0.1,
                msg_bytes: 1e7,
            },
        );
        assert!(
            large.comm_s > small.comm_s * 10.0,
            "small {} large {}",
            small.comm_s,
            large.comm_s
        );
    }

    #[test]
    fn loaded_node_slows_compute() {
        let mut quiet_c = quiet(2);
        let mut busy_c = quiet(2);
        // saturate node 0 with background load
        busy_c.add_job_load(NodeId(0), 32.0);
        let comm = ring_comm(&[0, 1], 4);
        let toy = Toy {
            steps: 5,
            gcycles: 3.0,
            msg_bytes: 0.0,
        };
        let fast = execute(&mut quiet_c, &comm, &toy);
        let slow = execute(&mut busy_c, &comm, &toy);
        assert!(
            slow.compute_s > fast.compute_s * 2.0,
            "fast {} slow {}",
            fast.compute_s,
            slow.compute_s
        );
    }

    #[test]
    fn job_load_registered_and_cleaned_up() {
        let mut cluster = quiet(2);
        let before0 = cluster.node_state(NodeId(0)).cpu_load;
        let comm = ring_comm(&[0, 1], 4);
        let toy = Toy {
            steps: 2,
            gcycles: 0.5,
            msg_bytes: 1e5,
        };
        let t = execute(&mut cluster, &comm, &toy);
        // during the run the load metric saw our 4 procs on each 8-core node
        assert!(
            t.mean_load_per_core >= 4.0 / 8.0 * 0.9,
            "load per core {}",
            t.mean_load_per_core
        );
        // after the run, our load is gone (background may have drifted)
        let after0 = cluster.node_state(NodeId(0)).cpu_load;
        assert!(after0 < before0 + 2.0, "job load leaked: {after0}");
    }

    #[test]
    fn virtual_time_advances_with_job() {
        let mut cluster = quiet(2);
        let t0 = cluster.now();
        let comm = ring_comm(&[0, 1], 2);
        let timing = execute(
            &mut cluster,
            &comm,
            &Toy {
                steps: 3,
                gcycles: 3.0,
                msg_bytes: 0.0,
            },
        );
        let elapsed = (cluster.now() - t0).as_secs_f64();
        // clock advanced by at least the job duration (5 s step resolution
        // rounds each step up)
        assert!(elapsed >= timing.total_s * 0.9, "elapsed {elapsed}");
    }

    #[test]
    fn single_node_job_has_negligible_comm() {
        let mut cluster = quiet(2);
        let comm = ring_comm(&[0], 4);
        let t = execute(
            &mut cluster,
            &comm,
            &Toy {
                steps: 5,
                gcycles: 1.0,
                msg_bytes: 1e6,
            },
        );
        // all messages intra-node: memory-speed copies
        assert!(
            t.comm_fraction() < 0.05,
            "comm fraction {}",
            t.comm_fraction()
        );
    }

    #[test]
    fn traced_execution_records_a_nested_subtree() {
        let mut cluster = quiet(2);
        let comm = ring_comm(&[0, 1], 2);
        let toy = Toy {
            steps: 3,
            gcycles: 3.0,
            msg_bytes: 1e6,
        };
        let obs = nlrm_obs::Obs::new();
        let trace = TraceId::for_job(9);
        let timing = {
            let _g = nlrm_obs::install(&obs);
            let tc = TraceCtx {
                trace,
                parent: None,
            };
            execute_traced(&mut cluster, &comm, &toy, Some(&tc))
        };
        let spans = obs.spans.trace_spans(trace);
        assert_eq!(obs.spans.open_count(), 0, "everything closed");
        let exec = spans.iter().find(|s| s.kind == "exec").unwrap();
        assert!(
            (exec.duration().as_secs_f64() - timing.total_s).abs() < 1e-3,
            "exec span covers the whole run"
        );
        let steps: Vec<_> = spans.iter().filter(|s| s.kind == "step").collect();
        assert_eq!(steps.len(), 3);
        // 4 ranks × 3 steps of compute, plus p2p and the allreduce per step
        assert_eq!(spans.iter().filter(|s| s.kind == "compute").count(), 12);
        assert_eq!(spans.iter().filter(|s| s.kind == "p2p").count(), 3);
        assert_eq!(spans.iter().filter(|s| s.kind == "collective").count(), 3);
        // everything nests: child interval inside its parent's
        let by_id: std::collections::BTreeMap<u64, &nlrm_obs::Span> =
            spans.iter().map(|s| (s.id.0, s)).collect();
        for s in &spans {
            if let Some(p) = s.parent {
                let p = by_id[&p.0];
                assert!(s.start >= p.start, "{} starts before parent", s.kind);
                assert!(
                    s.end.unwrap() <= p.end.unwrap(),
                    "{} ends after parent",
                    s.kind
                );
            }
        }
        // the critical path of the exec subtree tiles the exec duration
        let path = obs.spans.critical_path(trace).unwrap();
        assert_eq!(path.total(), exec.duration());
        assert!(path.kind_count() >= 3, "kinds: {:?}", path.by_kind());
    }

    #[test]
    fn untraced_execution_records_nothing() {
        let mut cluster = quiet(2);
        let comm = ring_comm(&[0, 1], 2);
        let toy = Toy {
            steps: 2,
            gcycles: 1.0,
            msg_bytes: 0.0,
        };
        let obs = nlrm_obs::Obs::new();
        let _g = nlrm_obs::install(&obs);
        execute(&mut cluster, &comm, &toy);
        assert!(obs.spans.is_empty(), "plain execute must not trace");
    }

    #[test]
    fn each_execute_records_its_wall_time() {
        let comm = ring_comm(&[0, 1], 2);
        let toy = Toy {
            steps: 2,
            gcycles: 0.5,
            msg_bytes: 1e4,
        };
        // no observer: nothing to record into, and no timer is started
        execute(&mut quiet(2), &comm, &toy);
        let obs = nlrm_obs::Obs::new();
        let _g = nlrm_obs::install(&obs);
        let count = || {
            obs.metrics
                .histogram_snapshot("mpi_execute_wall_seconds")
                .map_or(0, |h| h.count())
        };
        assert_eq!(count(), 0);
        execute(&mut quiet(2), &comm, &toy);
        assert_eq!(count(), 1, "plain execute is timed");
        let tc = TraceCtx {
            trace: TraceId::for_job(3),
            parent: None,
        };
        execute_traced(&mut quiet(2), &comm, &toy, Some(&tc));
        assert_eq!(count(), 2, "traced execute is timed once");
    }

    #[test]
    fn cross_switch_job_pays_for_the_trunk() {
        // two clusters: same-switch placement vs cross-switch placement.
        // Quiet profile so per-node NIC noise cannot mask the trunk effect:
        // the ring's two cross-switch flows must share the single trunk.
        let mk = || {
            let topo = nlrm_topology::Topology::star_of_switches(
                &[4, 4],
                nlrm_topology::LinkParams::gigabit(),
                nlrm_topology::LinkParams::gigabit(),
            );
            let specs = (0..8)
                .map(|i| nlrm_cluster::NodeSpec {
                    hostname: format!("n{i}"),
                    cores: 8,
                    freq_ghz: 3.0,
                    total_mem_gb: 16.0,
                })
                .collect();
            let mut c = ClusterSim::new(topo, specs, ClusterProfile::quiet(), 77);
            c.advance(Duration::from_secs(60));
            c
        };
        let toy = Toy {
            steps: 10,
            gcycles: 0.1,
            msg_bytes: 2e6,
        };
        let mut same = mk();
        let same_t = execute(&mut same, &ring_comm(&[0, 1, 2, 3], 1), &toy);
        let mut cross = mk();
        let cross_t = execute(&mut cross, &ring_comm(&[0, 1, 4, 5], 1), &toy);
        assert!(
            cross_t.comm_s > same_t.comm_s,
            "same-switch {} vs cross-switch {}",
            same_t.comm_s,
            cross_t.comm_s
        );
        let _ = small_cluster(2, 1); // keep import used
    }
}
