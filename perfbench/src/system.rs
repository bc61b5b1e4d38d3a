//! What every workload shares: the monitored cluster and its broker,
//! monitor-traffic accounting, the traced replays of the allocator layers,
//! and the accumulators the report is built from.

use crate::trace::{SpanIdx, Tracer};
use nlrm_cluster::ClusterSim;
use nlrm_core::broker::{Broker, BrokerConfig};
use nlrm_core::candidate::generate_all_candidates;
use nlrm_core::select::select_best;
use nlrm_core::{AllocationRequest, Loads};
use nlrm_monitor::daemons::DaemonConfig;
use nlrm_monitor::{ClusterSnapshot, MonitorRuntime, MonitorTopo, ShardConfig};
use nlrm_obs::Obs;
use nlrm_sim_core::time::Duration;
use nlrm_topology::NodeId;

/// Virtual scheduling quantum in seconds: the broker runs one pass per
/// quantum.
pub const QUANTUM_S: u64 = 60;

/// Monitor warm-up before the first pass, in seconds (one full bandwidth
/// sweep).
const WARMUP_S: u64 = 360;

/// Virtual window over which monitor traffic is counted.
const TRAFFIC_WINDOW_MINS: u64 = 10;

/// splitmix64: the seeded hash every generated input derives from.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform in [0, 1) from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A monitored cluster and the broker scheduling onto it.
pub struct System {
    /// The cluster's master timeline.
    pub cluster: ClusterSim,
    /// The monitoring stack bound to it.
    pub monitor: MonitorRuntime,
    /// The broker.
    pub broker: Broker,
}

impl System {
    /// Build the cluster, start its monitor (sharded or central) and warm
    /// it up.
    pub fn warmed(mut cluster: ClusterSim, sharded: bool) -> System {
        let topo = if sharded {
            MonitorTopo::Sharded(ShardConfig::new(cluster.topology().switch_index()))
        } else {
            MonitorTopo::Central
        };
        let mut monitor = MonitorRuntime::with_topo(&cluster, DaemonConfig::default(), topo);
        let until = cluster.now() + Duration::from_secs(WARMUP_S);
        monitor.run_until(&mut cluster, until);
        System {
            cluster,
            monitor,
            // the §6 "recommend waiting" advisor is off: every workload
            // must place each job it can fit
            broker: Broker::new(BrokerConfig {
                max_load_per_core: None,
                ..BrokerConfig::default()
            }),
        }
    }

    /// Snapshot of the monitor's store at the cluster's current time.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.monitor
            .snapshot(self.cluster.now())
            .expect("a warmed monitor always has a snapshot")
    }

    /// Effective process capacity under the paper's default weights: the
    /// utilization denominator, and the basis for sizing arrival streams.
    pub fn capacity(&self) -> f64 {
        let shape = AllocationRequest::minimd(8);
        Loads::derive(
            &self.snapshot(),
            &shape.compute_weights,
            &shape.network_weights,
            shape.ppn,
        )
        .expect("a warm snapshot derives")
        .total_capacity() as f64
    }

    /// Monitor traffic per virtual minute, counted on a copy of the
    /// warmed system so the measured timeline is untouched.
    pub fn traffic_per_vmin(&self) -> Traffic {
        let mut cluster = self.cluster.clone();
        let mut monitor = self.monitor.clone();
        let obs = Obs::new();
        let _guard = nlrm_obs::install(&obs);
        let until = cluster.now() + Duration::from_mins(TRAFFIC_WINDOW_MINS);
        monitor.run_until(&mut cluster, until);
        Traffic::read(&obs).per(TRAFFIC_WINDOW_MINS as f64)
    }
}

/// Monitor traffic as counted by the `nlrm-obs` registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    /// Probe bytes (latency/bandwidth sweeps, shard sweeps, estimation).
    pub probe: f64,
    /// Bytes published into the monitor's store.
    pub publish: f64,
    /// Gossip bytes between shards.
    pub gossip: f64,
    /// Central-monitor heartbeat bytes.
    pub heartbeat: f64,
    /// Node pairs measured.
    pub pairs: f64,
}

impl Traffic {
    /// Current counter values of `obs`.
    pub fn read(obs: &Obs) -> Traffic {
        let c = |name| obs.metrics.counter_value(name) as f64;
        Traffic {
            probe: c("monitor_probe_bytes_total"),
            publish: c("store_publish_bytes_total"),
            gossip: c("monitor_gossip_bytes_total"),
            heartbeat: c("monitor_heartbeat_bytes_total"),
            pairs: c("monitor_pair_measurements_total"),
        }
    }

    /// Every field divided by `d`.
    pub fn per(self, d: f64) -> Traffic {
        Traffic {
            probe: self.probe / d,
            publish: self.publish / d,
            gossip: self.gossip / d,
            heartbeat: self.heartbeat / d,
            pairs: self.pairs / d,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: Traffic) -> Traffic {
        Traffic {
            probe: self.probe + o.probe,
            publish: self.publish + o.publish,
            gossip: self.gossip + o.gossip,
            heartbeat: self.heartbeat + o.heartbeat,
            pairs: self.pairs + o.pairs,
        }
    }

    /// All bytes: probe + publish + gossip + heartbeat.
    pub fn bytes(&self) -> f64 {
        self.probe + self.publish + self.gossip + self.heartbeat
    }
}

/// The allocator calls `Broker::tick` makes internally, replayed on the
/// same inputs right after the pass so each gets a span of its own. They
/// are children of the pass's `broker.tick` span, so the tick's self time
/// is what the broker spends around them.
pub struct Replay<'a> {
    /// The derivation the tick shared between jobs of one request shape.
    base: Loads,
    /// Reservations in force when the tick began, per node index.
    reserved: Vec<u32>,
    tick: Option<SpanIdx>,
    pass: u64,
    tracer: &'a mut Tracer,
}

impl<'a> Replay<'a> {
    /// Replay the tick's derivation for `req`'s request shape.
    pub fn derive(
        tracer: &'a mut Tracer,
        tick: Option<SpanIdx>,
        pass: u64,
        snap: &ClusterSnapshot,
        req: &AllocationRequest,
        reserved: Vec<u32>,
        layers: &mut LayerStats,
    ) -> Replay<'a> {
        let base = tracer.wrap("loads.derive", tick, pass, || {
            Loads::derive(snap, &req.compute_weights, &req.network_weights, req.ppn)
                .expect("the tick derived from this snapshot")
        });
        layers.usable.push(base.usable.len() as f64);
        Replay {
            base,
            reserved,
            tick,
            pass,
            tracer,
        }
    }

    /// Replay candidate generation and selection for one job the tick
    /// started on `nodes`, then book its reservation like the broker does.
    pub fn place(
        &mut self,
        req: &AllocationRequest,
        nodes: &[(NodeId, u32)],
        layers: &mut LayerStats,
    ) {
        // the broker's reservation-restricted view (not itself a layer
        // call, so built outside the spans)
        let (mut usable, mut cl, mut pc) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &node) in self.base.usable.iter().enumerate() {
            let free = self.base.pc[i].saturating_sub(self.reserved[node.0 as usize]);
            if free > 0 {
                usable.push(node);
                cl.push(self.base.cl[i]);
                pc.push(free);
            }
        }
        let view = Loads::from_parts(usable, cl, self.base.nl.clone(), pc);
        let candidates = self
            .tracer
            .wrap("candidate.generate", self.tick, self.pass, || {
                generate_all_candidates(&view, req.procs, req.alpha, req.beta)
            });
        layers.candidates.push(candidates.len() as f64);
        self.tracer.wrap("select.best", self.tick, self.pass, || {
            std::hint::black_box(select_best(&view, &candidates, req.alpha, req.beta))
        });
        for &(node, procs) in nodes {
            self.reserved[node.0 as usize] += procs;
        }
    }
}

/// Per-layer counts gathered on traced passes.
#[derive(Debug, Default)]
pub struct LayerStats {
    /// `Loads::derive` calls per traced pass (from `loads_derive_total`).
    pub derives: Vec<f64>,
    /// Jobs each traced tick examined (started or deferred).
    pub examined: Vec<f64>,
    /// Jobs each traced tick started.
    pub started: Vec<f64>,
    /// Backfill starts per traced tick (`broker_backfill_started_total`).
    pub backfill: Vec<f64>,
    /// Queue depth after each traced tick.
    pub queue_depth: Vec<f64>,
    /// Candidates per replayed generation.
    pub candidates: Vec<f64>,
    /// Usable nodes per replayed derivation.
    pub usable: Vec<f64>,
    /// Monitor traffic during traced monitor calls.
    pub traffic: Traffic,
    /// Virtual minutes the traced monitor calls covered.
    pub traffic_vmins: f64,
    /// MPI timesteps executed on traced passes.
    pub mpi_steps: f64,
    /// Wall seconds of those executions.
    pub mpi_wall_s: f64,
    /// Communication share of each traced execution (virtual).
    pub comm_fraction: Vec<f64>,
    /// Traced pass times (the untraced ones interleaved with them are the
    /// report's `pass_ms`).
    pub pass_traced_ms: Vec<f64>,
}

/// A counter's value in `obs`.
pub fn counter(obs: &Obs, name: &str) -> f64 {
    obs.metrics.counter_value(name) as f64
}
