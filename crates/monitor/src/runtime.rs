//! The virtual-time monitoring runtime.
//!
//! Schedules daemon ticks on a deterministic event queue and drives a
//! [`ClusterSim`] forward between ticks. This is the monitoring stack the
//! experiments use: fast (48 hours of cluster time in milliseconds) and
//! perfectly reproducible.
//!
//! Fault injection: attach a [`FaultPlan`] over [`FaultTarget`]s with
//! [`MonitorRuntime::set_fault_plan`] and the runtime applies each
//! scheduled kill/hang/delay at its exact virtual time while running.

use crate::central::{CentralMonitor, DaemonSet};
use crate::daemons::DaemonConfig;
pub use crate::daemons::DaemonKind;
use crate::estimate::{InterEstimate, NlEstimator};
use crate::gossip::GossipNet;
use crate::shard::{ShardSummary, ShardSweeper};
use crate::snapshot::{ClusterSnapshot, SnapshotError};
use crate::store::{paths, SharedStore};
use nlrm_cluster::ClusterSim;
use nlrm_sim_core::event::EventQueue;
use nlrm_sim_core::fault::{FaultAction, FaultEvent, FaultPlan};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::tier::SwitchIndex;
use nlrm_topology::{NodeId, SwitchId};

/// Histogram bucket bounds (µs wall clock) for monitor tick latency.
const TICK_WALL_BOUNDS: &[f64] = &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0];

/// Histogram bucket bounds (seconds wall clock) for snapshot assembly.
const ASSEMBLE_WALL_BOUNDS: &[f64] = &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// Which daemon a scheduled tick belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    Livehosts,
    NodeState,
    Latency,
    Bandwidth,
    Central,
    /// Sharded topology: intra-shard tournaments + inter-shard estimation.
    Shard,
    /// Sharded topology: one anti-entropy gossip round.
    Gossip,
    /// Drain due events from the attached fault plan.
    Fault,
}

/// What a [`FaultPlan`] entry can hit in the monitoring stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// One monitoring daemon.
    Daemon(DaemonKind),
    /// A whole node. `Kill` downs it permanently; `Hang`/`Delay` down it
    /// for the given duration, after which it recovers.
    Node(NodeId),
    /// The master central-monitor instance. Any action is a crash: the
    /// heartbeat protocol cannot tell a hung master from a dead one.
    Master,
    /// The slave central-monitor instance (same crash semantics).
    Slave,
}

/// A fault schedule against the monitoring stack.
pub type MonitorFaultPlan = FaultPlan<FaultTarget>;

/// Configuration for the sharded monitoring topology.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Node→shard assignment (usually `Topology::switch_index()`).
    pub index: SwitchIndex,
    /// How often each shard reruns its intra-shard tournament and the
    /// inter-shard estimator resamples.
    pub shard_period: Duration,
    /// How often the gossip layer runs one anti-entropy round.
    pub gossip_period: Duration,
    /// Gossip targets contacted per peer per round.
    pub fanout: usize,
    /// Seed for the deterministic gossip target selection.
    pub gossip_seed: u64,
}

impl ShardConfig {
    /// Defaults: sweep every 60 s (the central latency cadence), gossip
    /// every 10 s with fanout 2.
    pub fn new(index: SwitchIndex) -> ShardConfig {
        ShardConfig {
            index,
            shard_period: Duration::from_secs(60),
            gossip_period: Duration::from_secs(10),
            fanout: 2,
            gossip_seed: 0x5ea1_ab1e,
        }
    }
}

/// Which monitoring topology a [`MonitorRuntime`] runs.
#[derive(Debug, Clone)]
pub enum MonitorTopo {
    /// The paper's topology: central daemons probing all `O(V²)` pairs.
    Central,
    /// Sharded: intra-shard tournaments + sampled inter-shard estimation
    /// + gossip dissemination of shard aggregates.
    Sharded(ShardConfig),
}

/// Live state of the sharded topology.
#[derive(Debug, Clone)]
struct ShardedState {
    cfg: ShardConfig,
    sweeper: ShardSweeper,
    estimator: NlEstimator,
    gossip: GossipNet<ShardSummary>,
}

/// The full monitoring stack bound to one cluster, run in virtual time.
#[derive(Debug, Clone)]
pub struct MonitorRuntime {
    config: DaemonConfig,
    store: SharedStore,
    daemons: DaemonSet,
    central: CentralMonitor,
    queue: EventQueue<Tick>,
    faults: MonitorFaultPlan,
    n: usize,
    sharded: Option<Box<ShardedState>>,
}

impl MonitorRuntime {
    /// Build a runtime for `cluster` with default periods. The central
    /// monitor's master runs on node 0 and slave on node 1.
    pub fn new(cluster: &ClusterSim) -> Self {
        Self::with_config(cluster, DaemonConfig::default())
    }

    /// Build with custom daemon periods.
    pub fn with_config(cluster: &ClusterSim, config: DaemonConfig) -> Self {
        Self::with_topo(cluster, config, MonitorTopo::Central)
    }

    /// Build with an explicit monitoring topology. `Central` probes all
    /// pairs through the latency/bandwidth daemons; `Sharded` replaces
    /// those two with per-shard sweeps, sampled estimation, and gossip.
    /// Livehosts, node state, and central supervision run in both modes,
    /// and [`MonitorRuntime::snapshot`] serves the allocator either way.
    pub fn with_topo(cluster: &ClusterSim, config: DaemonConfig, topo: MonitorTopo) -> Self {
        let n = cluster.num_nodes();
        assert!(n >= 2, "monitoring needs at least two nodes");
        let mut queue = EventQueue::new();
        let t0 = cluster.now();
        // First ticks fire one period in, so the cluster has state to report.
        queue.push(t0 + config.nodestate_period, Tick::NodeState);
        queue.push(t0 + config.livehosts_period, Tick::Livehosts);
        queue.push(t0 + config.central_period, Tick::Central);
        let sharded = match topo {
            MonitorTopo::Central => {
                queue.push(t0 + config.latency_period, Tick::Latency);
                queue.push(t0 + config.bandwidth_period, Tick::Bandwidth);
                None
            }
            MonitorTopo::Sharded(cfg) => {
                assert_eq!(
                    cfg.index.num_nodes(),
                    n,
                    "shard index must cover the whole cluster"
                );
                queue.push(t0 + cfg.shard_period, Tick::Shard);
                queue.push(t0 + cfg.gossip_period, Tick::Gossip);
                let num_shards = cfg.index.num_switches();
                let mut gossip = GossipNet::new(
                    num_shards,
                    cfg.fanout,
                    cfg.gossip_seed,
                    ShardSummary::WIRE_BYTES,
                );
                for s in 0..num_shards {
                    // empty shards (e.g. a campus router switch) never
                    // gossip; marking them dead keeps convergence honest
                    if cfg.index.members(SwitchId(s as u32)).is_empty() {
                        gossip.set_alive(s, false);
                    }
                }
                Some(Box::new(ShardedState {
                    sweeper: ShardSweeper::new(&cfg.index),
                    estimator: NlEstimator::new(num_shards),
                    gossip,
                    cfg,
                }))
            }
        };
        MonitorRuntime {
            config,
            store: SharedStore::new(),
            daemons: DaemonSet::new(n),
            central: CentralMonitor::new(NodeId(0), NodeId(1), &config),
            queue,
            faults: MonitorFaultPlan::new(),
            n,
            sharded,
        }
    }

    /// Attach a fault schedule. Each event is applied at its exact virtual
    /// time during [`MonitorRuntime::run_until`]. Replaces any plan set
    /// earlier; events already in the past fire on the next run.
    pub fn set_fault_plan(&mut self, plan: MonitorFaultPlan) {
        for ev in plan.events() {
            self.queue.push(ev.at, Tick::Fault);
        }
        self.faults = plan;
    }

    /// Number of fault events not yet applied.
    pub fn pending_faults(&self) -> usize {
        self.faults.remaining()
    }

    /// The shared store (what the allocator reads).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The daemon periods in force.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The central monitor (failover state, counters).
    pub fn central(&self) -> &CentralMonitor {
        &self.central
    }

    /// Mutable central monitor (failure injection).
    pub fn central_mut(&mut self) -> &mut CentralMonitor {
        &mut self.central
    }

    /// Kill a daemon (failure injection). It stays dead until the central
    /// monitor's next supervision pass relaunches it.
    pub fn kill_daemon(&mut self, kind: DaemonKind) {
        self.daemons.kill(kind);
    }

    /// Number of currently dead daemons.
    pub fn dead_daemons(&self) -> usize {
        self.daemons.dead_count()
    }

    /// Label for tick events and metrics.
    fn tick_label(tick: Tick) -> &'static str {
        match tick {
            Tick::Livehosts => "livehosts",
            Tick::NodeState => "nodestate",
            Tick::Latency => "latency",
            Tick::Bandwidth => "bandwidth",
            Tick::Central => "central",
            Tick::Shard => "shard",
            Tick::Gossip => "gossip",
            Tick::Fault => "fault",
        }
    }

    /// One sharded sweep: intra-shard tournaments, inter-shard sampling,
    /// record publication, and gossip seeding.
    fn shard_tick(&mut self, cluster: &mut ClusterSim, t: SimTime) {
        let state = self.sharded.as_mut().expect("shard tick in central mode");
        let up: Vec<bool> = (0..self.n)
            .map(|i| cluster.is_up(NodeId(i as u32)))
            .collect();
        let mut alive = |n: NodeId| up[n.index()];
        let recording = nlrm_obs::ctx::recording();
        let mut probed = 0u64;
        let mut fold = nlrm_obs::DigestFold::new();
        let mut probe = |u: NodeId, v: NodeId| {
            let p = cluster.probe_pair(u, v);
            if recording {
                probed += 1;
                fold.u64(u.index() as u64)
                    .u64(v.index() as u64)
                    .f64(p.latency_s)
                    .f64(p.avail_bps)
                    .f64(p.peak_bps);
            }
            p
        };
        let report = state.sweeper.sweep(t, &self.store, &mut alive, &mut probe);
        // inter-shard sampling: probe between each shard's live members
        let reps: Vec<Vec<NodeId>> = (0..state.cfg.index.num_switches())
            .map(|s| {
                state
                    .cfg
                    .index
                    .members(SwitchId(s as u32))
                    .iter()
                    .copied()
                    .filter(|&n| up[n.index()])
                    .collect()
            })
            .collect();
        let est = state.estimator.estimate(&reps, &mut probe);
        let est_probe_bytes = est.probe_bytes;
        let est_record = est.to_record(report.epoch, t);
        let est_publish_bytes = est_record.len() as u64;
        self.store.put(paths::INTER_ESTIMATE, t, est_record);
        for summary in &report.summaries {
            state.gossip.publish(summary.shard, report.epoch, *summary);
        }
        if recording {
            nlrm_obs::ctx::record_stream(t, "probe:shard", probed, fold.value());
        }
        if nlrm_obs::ctx::is_active() {
            let pairs = report.pairs + est.probes;
            let bytes =
                report.probe_bytes + report.publish_bytes + est_probe_bytes + est_publish_bytes;
            nlrm_obs::ctx::set_gauge("monitor_round_pairs", pairs as f64);
            nlrm_obs::ctx::set_gauge("monitor_round_bytes", bytes as f64);
        }
    }

    /// Run monitoring (and the cluster) forward to `target` virtual time.
    pub fn run_until(&mut self, cluster: &mut ClusterSim, target: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > target {
                break;
            }
            let (t, tick) = self.queue.pop().expect("peeked");
            cluster.advance_to(t);
            let observed = nlrm_obs::ctx::is_active();
            let started = observed.then(std::time::Instant::now);
            match tick {
                Tick::Livehosts => {
                    self.daemons.livehosts.tick(cluster, &self.store);
                    self.queue.push(t + self.config.livehosts_period, tick);
                }
                Tick::NodeState => {
                    for d in &mut self.daemons.nodestate {
                        d.tick(cluster, &self.store);
                    }
                    self.queue.push(t + self.config.nodestate_period, tick);
                }
                Tick::Latency => {
                    self.daemons.latency.tick(cluster, &self.store);
                    self.queue.push(t + self.config.latency_period, tick);
                }
                Tick::Bandwidth => {
                    self.daemons.bandwidth.tick(cluster, &self.store);
                    self.queue.push(t + self.config.bandwidth_period, tick);
                }
                Tick::Central => {
                    self.central.tick(cluster, &self.store, &mut self.daemons);
                    self.queue.push(t + self.config.central_period, tick);
                }
                Tick::Shard => {
                    self.shard_tick(cluster, t);
                    let period = self.sharded.as_ref().expect("sharded").cfg.shard_period;
                    self.queue.push(t + period, tick);
                }
                Tick::Gossip => {
                    let state = self.sharded.as_mut().expect("sharded");
                    // mirror node liveness into gossip: a shard gossips
                    // while it has at least one live member
                    for s in 0..state.cfg.index.num_switches() {
                        let members = state.cfg.index.members(SwitchId(s as u32));
                        if members.is_empty() {
                            continue;
                        }
                        let up = members.iter().any(|&n| cluster.is_up(n));
                        state.gossip.set_alive(s, up);
                    }
                    let round = state.gossip.round();
                    if nlrm_obs::ctx::recording() {
                        let mut fold = nlrm_obs::DigestFold::new();
                        fold.u64(round.bytes)
                            .u64(round.updates)
                            .u64(state.gossip.rounds_run());
                        nlrm_obs::ctx::record_stream(t, "gossip", round.exchanges, fold.value());
                    }
                    let period = state.cfg.gossip_period;
                    self.queue.push(t + period, tick);
                }
                Tick::Fault => {
                    for ev in self.faults.due(t) {
                        self.apply_fault(cluster, t, ev);
                    }
                }
            }
            if let Some(started) = started {
                let label = Self::tick_label(tick);
                let wall_micros = started.elapsed().as_secs_f64() * 1e6;
                if tick != Tick::Fault {
                    nlrm_obs::ctx::emit(
                        nlrm_obs::Severity::Debug,
                        t,
                        nlrm_obs::EventKind::DaemonTick {
                            daemon: label.to_string(),
                        },
                    );
                    // instant span on the system trace: daemon ticks consume
                    // no virtual time, but their marks let allocation traces
                    // be correlated with the freshness of monitor data
                    nlrm_obs::ctx::span_closed(
                        nlrm_obs::TraceId::SYSTEM,
                        None,
                        "monitor_tick",
                        &format!("monitor/{label}"),
                        t,
                        t,
                        vec![("wall_micros".into(), format!("{wall_micros:.1}"))],
                    );
                }
                nlrm_obs::ctx::observe("monitor_tick_wall_micros", TICK_WALL_BOUNDS, wall_micros);
                nlrm_obs::ctx::inc(&format!("monitor_tick_total_{label}"));
                // offer the continuous-telemetry loop a tick; it gates
                // itself on its own cadence, so this is cheap
                nlrm_obs::ctx::telemetry_tick(t);
            }
        }
        cluster.advance_to(target);
    }

    /// Apply one fault event at virtual time `now`.
    fn apply_fault(&mut self, cluster: &mut ClusterSim, now: SimTime, ev: FaultEvent<FaultTarget>) {
        if nlrm_obs::ctx::is_active() {
            let target = match ev.target {
                FaultTarget::Daemon(kind) => format!("daemon:{kind}"),
                FaultTarget::Node(node) => format!("node:{node}"),
                FaultTarget::Master => "master".to_string(),
                FaultTarget::Slave => "slave".to_string(),
            };
            let action = match ev.action {
                FaultAction::Kill => "kill".to_string(),
                FaultAction::Hang(d) => format!("hang({d})"),
                FaultAction::Delay(d) => format!("delay({d})"),
            };
            nlrm_obs::ctx::emit(
                nlrm_obs::Severity::Warn,
                now,
                nlrm_obs::EventKind::FaultApplied { target, action },
            );
            nlrm_obs::ctx::inc("monitor_fault_applied_total");
        }
        match ev.target {
            FaultTarget::Daemon(kind) => match ev.action {
                FaultAction::Kill => self.daemons.kill(kind),
                FaultAction::Hang(d) => self.daemons.hang_until(kind, now + d),
                FaultAction::Delay(d) => self.daemons.mute_until(kind, now + d),
            },
            FaultTarget::Node(node) => {
                cluster.set_node_up(node, false);
                match ev.action {
                    FaultAction::Kill => {}
                    FaultAction::Hang(d) | FaultAction::Delay(d) => {
                        cluster.schedule_recovery(now + d, node);
                    }
                }
            }
            FaultTarget::Master => self.central.kill_master(),
            FaultTarget::Slave => self.central.kill_slave(),
        }
    }

    /// Whether this runtime runs the sharded topology.
    pub fn is_sharded(&self) -> bool {
        self.sharded.is_some()
    }

    /// The gossip network state (sharded topology only).
    pub fn gossip(&self) -> Option<&GossipNet<ShardSummary>> {
        self.sharded.as_ref().map(|s| &s.gossip)
    }

    /// The latest published inter-shard estimate, decoded from the store
    /// (sharded topology only; `None` before the first shard sweep).
    pub fn inter_estimate(&self) -> Option<InterEstimate> {
        let rec = self.store.get(paths::INTER_ESTIMATE)?;
        let record = crate::codec::decode(&rec.data).ok()?;
        InterEstimate::from_record(&record)
    }

    /// Assemble the allocator's snapshot from the store. Central and
    /// sharded stores produce the same snapshot shape, so consumers never
    /// know which topology ran. Under an installed observer, the wall
    /// time of each assembly lands in `snapshot_assemble_wall_seconds`.
    pub fn snapshot(&self, now: SimTime) -> Result<ClusterSnapshot, SnapshotError> {
        let started = nlrm_obs::ctx::is_active().then(std::time::Instant::now);
        let snap = if self.sharded.is_some() {
            ClusterSnapshot::assemble_sharded(&self.store, self.n, now)
        } else {
            ClusterSnapshot::assemble(&self.store, self.n, now)
        };
        if let Some(started) = started {
            nlrm_obs::ctx::observe(
                "snapshot_assemble_wall_seconds",
                ASSEMBLE_WALL_BOUNDS,
                started.elapsed().as_secs_f64(),
            );
        }
        snap
    }

    /// Convenience: warm the monitor for `warmup` then return a snapshot.
    pub fn warm_snapshot(
        &mut self,
        cluster: &mut ClusterSim,
        warmup: nlrm_sim_core::time::Duration,
    ) -> Result<ClusterSnapshot, SnapshotError> {
        let target = cluster.now() + warmup;
        self.run_until(cluster, target);
        self.snapshot(cluster.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_sim_core::time::Duration;

    #[test]
    fn runtime_produces_complete_snapshot() {
        let mut cluster = small_cluster(6, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        // bandwidth sweeps every 5 min: warm for 6 min
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        assert_eq!(snap.usable_nodes().len(), 6);
        for (_, _, bw) in snap.bandwidth_bps.pairs() {
            assert!(bw > 0.0);
        }
    }

    #[test]
    fn snapshot_reflects_node_failures() {
        let mut cluster = small_cluster(6, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, SimTime::from_secs(360));
        cluster.schedule_failure(SimTime::from_secs(400), NodeId(4));
        rt.run_until(&mut cluster, SimTime::from_secs(500));
        let snap = rt.snapshot(cluster.now()).unwrap();
        let usable = snap.usable_nodes();
        assert_eq!(usable.len(), 5);
        assert!(!usable.contains(&NodeId(4)));
    }

    #[test]
    fn each_snapshot_records_its_wall_time() {
        let mut cluster = small_cluster(4, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, SimTime::from_secs(60));
        let obs = nlrm_obs::Obs::new();
        let _guard = nlrm_obs::ctx::install(&obs);
        let count = || {
            obs.metrics
                .histogram_snapshot("snapshot_assemble_wall_seconds")
                .map_or(0, |h| h.count())
        };
        assert_eq!(count(), 0);
        rt.snapshot(cluster.now()).unwrap();
        assert_eq!(count(), 1);
    }

    #[test]
    fn killed_daemon_is_relaunched_by_central() {
        let mut cluster = small_cluster(4, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, SimTime::from_secs(60));
        rt.kill_daemon(DaemonKind::Bandwidth);
        assert_eq!(rt.dead_daemons(), 1);
        rt.run_until(&mut cluster, SimTime::from_secs(120));
        assert_eq!(rt.dead_daemons(), 0);
        assert!(rt.central().relaunch_count >= 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut cluster = small_cluster(5, 99);
            let mut rt = MonitorRuntime::new(&cluster);
            let snap = rt
                .warm_snapshot(&mut cluster, Duration::from_secs(400))
                .unwrap();
            snap.bandwidth_bps
                .pairs()
                .map(|(_, _, b)| b)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_plan_kills_hangs_and_recovers() {
        use nlrm_sim_core::fault::FaultAction;
        let mut cluster = small_cluster(6, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        let mut plan = MonitorFaultPlan::new();
        plan.schedule(
            SimTime::from_secs(100),
            FaultTarget::Daemon(DaemonKind::Latency),
            FaultAction::Kill,
        );
        plan.schedule(
            SimTime::from_secs(100),
            FaultTarget::Node(NodeId(5)),
            FaultAction::Hang(Duration::from_secs(120)),
        );
        plan.schedule(
            SimTime::from_secs(120),
            FaultTarget::Master,
            FaultAction::Kill,
        );
        rt.set_fault_plan(plan);
        rt.run_until(&mut cluster, SimTime::from_secs(150));
        assert_eq!(rt.pending_faults(), 0);
        assert!(!cluster.is_up(NodeId(5)), "node fault not applied");
        rt.run_until(&mut cluster, SimTime::from_secs(400));
        // the node recovered on schedule, the supervisor relaunched the
        // killed prober, and the slave promoted itself to master
        assert!(cluster.is_up(NodeId(5)));
        assert_eq!(rt.dead_daemons(), 0);
        assert!(rt.central().relaunch_count >= 1);
        assert_eq!(rt.central().failover_count, 1);
        let snap = rt.snapshot(cluster.now()).unwrap();
        assert_eq!(snap.usable_nodes().len(), 6);
    }

    #[test]
    fn delayed_daemon_serves_stale_rows() {
        use nlrm_sim_core::fault::FaultAction;
        let mut cluster = small_cluster(4, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, SimTime::from_secs(360));
        let before = rt
            .store()
            .get(&crate::store::paths::bandwidth_row(NodeId(0)));
        let mut plan = MonitorFaultPlan::new();
        plan.schedule(
            SimTime::from_secs(400),
            FaultTarget::Daemon(DaemonKind::Bandwidth),
            FaultAction::Delay(Duration::from_secs(600)),
        );
        rt.set_fault_plan(plan);
        rt.run_until(&mut cluster, SimTime::from_secs(900));
        let during = rt
            .store()
            .get(&crate::store::paths::bandwidth_row(NodeId(0)));
        assert_eq!(
            before.unwrap().written_at,
            during.unwrap().written_at,
            "muted daemon should not publish"
        );
    }

    #[test]
    fn sharded_runtime_produces_complete_snapshot() {
        let mut cluster = nlrm_cluster::iitk::iitk_cluster(11);
        let idx = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(idx)),
        );
        assert!(rt.is_sharded());
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        assert_eq!(snap.usable_nodes().len(), 60);
        for (u, v, bw) in snap.bandwidth_bps.pairs() {
            assert!(bw > 0.0, "bw({u},{v}) = {bw}");
        }
        for (u, v, lat) in snap.latency.pairs() {
            assert!(
                lat.instant > 0.0 && lat.instant.is_finite(),
                "lat({u},{v}) = {}",
                lat.instant
            );
        }
        assert!(rt.inter_estimate().is_some());
    }

    #[test]
    fn sharded_gossip_converges_between_sweeps() {
        let mut cluster = nlrm_cluster::iitk::iitk_cluster(11);
        let idx = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(idx)),
        );
        // sweeps run at 60 s cadence; stop between the 6-minute sweep and
        // the next one so gossip had rounds to spread the newest epochs
        rt.run_until(&mut cluster, SimTime::from_secs(415));
        let gossip = rt.gossip().unwrap();
        assert!(gossip.converged(), "live shards should agree");
        assert!(gossip.total_bytes() > 0);
    }

    #[test]
    fn sharded_deterministic_replay() {
        let run = || {
            let mut cluster = nlrm_cluster::iitk::iitk_cluster(42);
            let idx = cluster.topology().switch_index();
            let mut rt = MonitorRuntime::with_topo(
                &cluster,
                DaemonConfig::default(),
                MonitorTopo::Sharded(ShardConfig::new(idx)),
            );
            let snap = rt
                .warm_snapshot(&mut cluster, Duration::from_secs(400))
                .unwrap();
            snap.bandwidth_bps
                .pairs()
                .map(|(_, _, b)| b)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_survives_node_failures() {
        let mut cluster = nlrm_cluster::iitk::iitk_cluster(11);
        let idx = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(idx)),
        );
        rt.run_until(&mut cluster, SimTime::from_secs(120));
        cluster.schedule_failure(SimTime::from_secs(130), NodeId(7));
        rt.run_until(&mut cluster, SimTime::from_secs(360));
        let snap = rt.snapshot(cluster.now()).unwrap();
        let usable = snap.usable_nodes();
        assert_eq!(usable.len(), 59);
        assert!(!usable.contains(&NodeId(7)));
    }

    #[test]
    fn state_samples_age_with_staleness() {
        let mut cluster = small_cluster(4, 11);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.run_until(&mut cluster, SimTime::from_secs(60));
        // stop monitoring but advance the cluster an hour
        cluster.advance(Duration::from_hours(1));
        let snap = rt.snapshot(cluster.now()).unwrap();
        assert!(snap.max_sample_age().unwrap() >= Duration::from_secs(3600));
    }
}
