//! Closed-loop workloads (`iitk-trials`, `campus-1k`): one caller submits
//! one job at a time, each job gets one scheduling pass, runs on a clone
//! of the cluster and completes before the next is submitted.
//!
//! Virtual timeline: the broker passes once per [`QUANTUM_S`]; the
//! caller's next job is due when its previous one completes, so it waits
//! for the next quantum boundary. The monitor advances whole quanta
//! between passes.

use crate::checks::{check_matches_policy, check_placement, check_reservations};
use crate::system::{counter, mix, Replay, System, Traffic, QUANTUM_S};
use crate::{Outcome, MIN_PASSES};
use nlrm_apps::{MiniFe, MiniMd};
use nlrm_core::broker::{BrokerEvent, SubmitOptions};
use nlrm_core::AllocationRequest;
use nlrm_mpi::{execute, Communicator, Workload};
use nlrm_obs::Obs;
use nlrm_sim_core::time::{Duration, SimTime};
use std::time::Instant;

/// Seed of the cluster fixtures. The cluster stays the same from run to
/// run, as the paper's testbed did; the run's seed draws the jobs. With a
/// fresh cluster per seed, the mean job runtime of a run moved by about a
/// seventh between seeds, drowning the placement quality it measures.
const CLUSTER_SEED: u64 = 2020;

/// The paper's 60-node cluster.
pub fn iitk_fixture() -> nlrm_cluster::ClusterSim {
    nlrm_cluster::iitk::iitk_cluster(CLUSTER_SEED)
}

fn campus_fixture() -> nlrm_cluster::ClusterSim {
    nlrm_cluster::iitk::campus(20, 48, CLUSTER_SEED)
}

/// Salt separating the warm-up job sequence from the measured one.
const WARM_SALT: u64 = 0x5741_524d;

/// Shape of one closed-loop workload.
pub struct ClosedSpec {
    /// The cluster fixture.
    pub cluster: fn() -> nlrm_cluster::ClusterSim,
    /// Whether the monitor runs sharded.
    pub sharded: bool,
    /// Job sizes (procs); each appears once per block of `sizes.len()`
    /// jobs of one application, in seeded order.
    pub sizes: &'static [u32],
    /// miniMD box side and timesteps.
    pub minimd: (u32, usize),
    /// miniFE grid side and CG iterations.
    pub minife: (u32, usize),
    /// Leading trials whose virtual-time results and placements are
    /// reported; the run always completes them.
    pub prefix: usize,
    /// Compare against `NetworkLoadAwarePolicy` on every `check_every`-th
    /// trial.
    pub check_every: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
}

/// The paper's §5.1 protocol on its 60-node cluster.
pub const IITK_TRIALS: ClosedSpec = ClosedSpec {
    cluster: iitk_fixture,
    sharded: false,
    sizes: &[8, 16, 32, 64],
    minimd: (16, 100),
    minife: (96, 200),
    prefix: 200,
    check_every: 1,
    setups: 11,
};

/// 960 campus nodes behind a sharded monitor, short jobs.
pub const CAMPUS_1K: ClosedSpec = ClosedSpec {
    cluster: campus_fixture,
    sharded: true,
    sizes: &[32, 64, 128, 256],
    minimd: (16, 10),
    minife: (96, 20),
    prefix: 100,
    check_every: 10,
    setups: 3,
};

/// Job `i` of the sequence seeded by `seed`: applications alternate, and
/// every block of sizes is a seeded permutation, so each size recurs
/// evenly whatever the seed.
fn job(spec: &ClosedSpec, seed: u64, i: usize) -> (AllocationRequest, Box<dyn Workload>) {
    let app = i % 2;
    let k = i / 2;
    let n = spec.sizes.len();
    let mut order = spec.sizes.to_vec();
    let mut h = mix(seed ^ mix(((k / n) * 2 + app) as u64));
    for j in (1..n).rev() {
        h = mix(h);
        order.swap(j, (h % (j as u64 + 1)) as usize);
    }
    let procs = order[k % n];
    if app == 0 {
        let (s, steps) = spec.minimd;
        (
            AllocationRequest::minimd(procs),
            Box::new(MiniMd::new(s).with_steps(steps)),
        )
    } else {
        let (nx, iters) = spec.minife;
        (
            AllocationRequest::minife(procs),
            Box::new(MiniFe::new(nx).with_iterations(iters)),
        )
    }
}

struct Loop<'a> {
    spec: &'a ClosedSpec,
    sys: System,
    /// Time of the previous pass.
    last_pass: SimTime,
    /// When the caller's next job is due.
    due: SimTime,
    /// Virtual time the first reported job was due.
    first_due: Option<SimTime>,
}

impl Loop<'_> {
    /// One trial. `seq` numbers the job within its sequence; `measured`
    /// trials feed the report, `traced` ones also install an observer and
    /// record spans.
    fn trial(&mut self, out: &mut Outcome, seed: u64, seq: usize, measured: bool, traced: bool) {
        let (req, work) = job(self.spec, seed, seq);
        let pass = out.passes;
        out.passes += 1;
        out.attempted += 1;
        let obs = traced.then(Obs::new);
        let _guard = obs.as_ref().map(nlrm_obs::install);
        out.tracer.set_enabled(traced);
        let tracer = &mut out.tracer;

        let due = self.due;
        let mut at = self.last_pass + Duration::from_secs(QUANTUM_S);
        while at < due {
            at += Duration::from_secs(QUANTUM_S);
        }
        let w = Instant::now();
        let sys = &mut self.sys;
        tracer.wrap("monitor.run_until", None, pass, || {
            sys.monitor.run_until(&mut sys.cluster, at)
        });
        let monitor_s = w.elapsed().as_secs_f64();

        let id = sys
            .broker
            .submit_opts(
                format!("job-{seq}"),
                req.clone(),
                SubmitOptions {
                    submitted_at: Some(due),
                    ..SubmitOptions::default()
                },
            )
            .expect("generated requests are valid");
        let w = Instant::now();
        let pspan = tracer.start("sched.pass", None, pass);
        let snap = tracer.wrap("monitor.snapshot", pspan, pass, || sys.snapshot());
        let tspan = tracer.start("broker.tick", pspan, pass);
        let events = sys.broker.tick(&snap);
        tracer.end(tspan);
        tracer.end(pspan);
        let pass_s = w.elapsed().as_secs_f64();

        let lease = events.iter().find_map(|e| match e {
            BrokerEvent::Started(l) if l.id == id => Some(l.clone()),
            _ => None,
        });
        // the observer is fresh per trial, so its counters are this
        // trial's deltas; read them before the replays and checks derive
        if let Some(obs) = &obs {
            let layers = &mut out.layers;
            layers.traffic = layers.traffic.plus(Traffic::read(obs));
            layers.traffic_vmins += at.since(self.last_pass).as_secs_f64() / 60.0;
            layers.derives.push(counter(obs, "loads_derive_total"));
            layers.examined.push(events.len() as f64);
            layers.started.push(lease.is_some() as u8 as f64);
            layers
                .backfill
                .push(counter(obs, "broker_backfill_started_total"));
            layers.queue_depth.push(sys.broker.queued().len() as f64);
            if let Some(lease) = &lease {
                let n = sys.cluster.num_nodes();
                Replay::derive(tracer, tspan, pass, &snap, &req, vec![0; n], layers).place(
                    &req,
                    &lease.allocation.nodes,
                    layers,
                );
            }
        }

        let checked = lease
            .ok_or_else(|| "job not started by its pass".to_string())
            .and_then(|lease| {
                check_placement(&lease.allocation, &req, &snap)?;
                check_reservations(&sys.broker, sys.cluster.num_nodes())?;
                if seq.is_multiple_of(self.spec.check_every) {
                    check_matches_policy(&lease, &req, &snap)?;
                }
                Ok(lease)
            });
        let lease = match checked {
            Ok(lease) => lease,
            Err(why) => {
                sys.broker.cancel(id);
                self.last_pass = at;
                out.fail(format!("job {seq}: {why}"));
                return;
            }
        };

        let w = Instant::now();
        let clone = tracer.wrap("cluster.clone", None, pass, || sys.cluster.clone());
        let comm = Communicator::new(lease.allocation.rank_map.clone());
        let timing = tracer.wrap("mpi.execute", None, pass, move || {
            let mut clone = clone;
            execute(&mut clone, &comm, work.as_ref())
        });
        let exec_s = w.elapsed().as_secs_f64();

        let end = at + Duration::from_secs_f64(timing.total_s);
        sys.broker.complete_at(id, end);
        if sys.broker.total_reserved() != 0 {
            out.fail(format!("job {seq}: reservations left after completion"));
        }
        self.last_pass = at;
        self.due = end;
        if measured && seq < self.spec.prefix {
            out.digest.placement(&lease.allocation);
            out.runtimes_s.push(timing.total_s);
            out.waits_s.push(at.since(due).as_secs_f64());
            out.busy_proc_s += req.procs as f64 * timing.total_s;
            let first = *self.first_due.get_or_insert(due);
            out.span_s = end.since(first).as_secs_f64();
        }
        if traced {
            out.layers.pass_traced_ms.push(pass_s * 1e3);
            out.layers.mpi_steps += timing.steps as f64;
            out.layers.mpi_wall_s += exec_s;
            out.layers.comm_fraction.push(timing.comm_fraction());
        } else if measured {
            out.pass_ms.push(pass_s * 1e3);
            out.placements += 1.0;
            out.pass_wall_s += pass_s;
            out.completed += 1.0;
            out.loop_wall_s += monitor_s + pass_s + exec_s;
        }
    }
}

/// Run a closed-loop workload for `seconds` of measurement (and at least
/// its prefix and `MIN_PASSES` untraced passes).
pub fn run(spec: &ClosedSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new(trace);
    let mut lp = None;
    for _ in 0..spec.setups {
        drop(lp.take());
        let w = Instant::now();
        let sys = System::warmed((spec.cluster)(), spec.sharded);
        let now = sys.cluster.now();
        let mut l = Loop {
            spec,
            sys,
            last_pass: now,
            due: now,
            first_due: None,
        };
        // one block of the sequence: every application and size once
        for k in 0..2 * spec.sizes.len() {
            l.trial(&mut out, seed ^ WARM_SALT, k, false, false);
        }
        out.setup_s.push(w.elapsed().as_secs_f64());
        lp = Some(l);
    }
    let mut l = lp.expect("at least one set-up");
    out.traffic = l.sys.traffic_per_vmin();
    out.capacity_procs = l.sys.capacity();

    let start = Instant::now();
    let mut seq = 0;
    while seq < spec.prefix
        || out.pass_ms.len() < MIN_PASSES
        || start.elapsed().as_secs_f64() < seconds
    {
        // traced runs interleave untraced trials, for the overhead
        let traced = trace && seq % 2 == 1;
        l.trial(&mut out, seed, seq, true, traced);
        seq += 1;
    }
    out
}
