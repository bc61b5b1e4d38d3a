//! `broker-stream`: an open loop of arrivals in virtual time against the
//! 60-node cluster. The batched broker passes once per quantum, after the
//! monitor advanced that quantum; leases load their nodes until their
//! walltime ends. No MPI runs: the broker's own cycle does the work.

use crate::checks::{check_placement, check_reservations};
use crate::system::{counter, mix, unit, Replay, System, Traffic, QUANTUM_S};
use crate::{Outcome, MIN_PASSES};
use nlrm_core::broker::{BrokerEvent, JobId, PriorityClass, SubmitOptions};
use nlrm_core::AllocationRequest;
use nlrm_obs::Obs;
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Arrivals per episode. Episode 0 gives the reported virtual-time
/// results; enough jobs that the queue-wait p99 has ten samples beyond
/// it.
const ARRIVALS: usize = 1200;

/// Offered load as a share of effective capacity. At 0.9 the median
/// queue wait of a 1,200-job episode moves by a quarter or more from one
/// seed to the next; at 0.8 it is steady while the queue still holds
/// work at most ticks.
const LOAD: f64 = 0.8;

/// Set-ups per run (their median is `setup_s`).
const SETUPS: usize = 15;

/// Arrivals of the warm-up episode in every set-up, excluded from all
/// timings.
const WARM_ARRIVALS: usize = 16;

/// Salt separating the warm-up stream from the measured ones.
const WARM_SALT: u64 = 0x5741_524d;

/// One generated arrival.
struct Arrival {
    /// Offset from the episode's start.
    offset: Duration,
    request: AllocationRequest,
    class: PriorityClass,
    walltime: Duration,
}

/// An arrival stream at exactly `LOAD` of `capacity`: paper job sizes,
/// 10/70/20 urgent/normal/batch and walltimes spread over 120–1800 s.
/// Classes come in seeded blocks of ten, walltimes are stratified, and
/// the gaps are scaled so every seed offers the same work: near
/// saturation, queue waits swing widely with small changes in offered
/// load.
fn make_stream(capacity: f64, seed: u64) -> Vec<Arrival> {
    const CLASSES: [PriorityClass; 10] = [
        PriorityClass::Urgent,
        PriorityClass::Batch,
        PriorityClass::Batch,
        PriorityClass::Normal,
        PriorityClass::Normal,
        PriorityClass::Normal,
        PriorityClass::Normal,
        PriorityClass::Normal,
        PriorityClass::Normal,
        PriorityClass::Normal,
    ];
    let procs = [8u32, 16, 32, 64];
    let strata = shuffled(ARRIVALS, mix(seed ^ 0x57a7));
    let mut classes = Vec::new();
    let mut arrivals: Vec<Arrival> = (0..ARRIVALS)
        .map(|i| {
            if i % CLASSES.len() == 0 {
                classes = shuffled(CLASSES.len(), mix(seed ^ mix(i as u64)));
            }
            let h = mix(seed ^ mix(i as u64 ^ 0xa11));
            let p = procs[i % procs.len()];
            let request = if i % 2 == 0 {
                AllocationRequest::minimd(p)
            } else {
                AllocationRequest::minife(p)
            };
            let at = (strata[i] as f64 + unit(h)) / ARRIVALS as f64;
            Arrival {
                // relative gap for now, scaled to the load below
                offset: Duration::from_secs_f64(0.25 + 1.5 * unit(mix(h))),
                request,
                class: CLASSES[classes[i % CLASSES.len()]],
                walltime: Duration::from_secs(120 + (at * 1680.0) as u64),
            }
        })
        .collect();
    let work: f64 = arrivals
        .iter()
        .map(|a| a.request.procs as f64 * a.walltime.as_secs_f64())
        .sum();
    let gaps: f64 = arrivals.iter().map(|a| a.offset.as_secs_f64()).sum();
    let scale = work / (capacity * LOAD) / gaps;
    let mut t = 0.0;
    for a in &mut arrivals {
        t += a.offset.as_secs_f64() * scale;
        a.offset = Duration::from_secs_f64(t);
    }
    arrivals
}

/// A seeded permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut h = seed;
    for j in (1..n).rev() {
        h = mix(h);
        v.swap(j, (h % (j as u64 + 1)) as usize);
    }
    v
}

/// Play one episode of `stream` until every job completed. Only
/// `measured` episodes feed the timings, and only `record` ones the
/// virtual-time results. Past `deadline`, no further arrivals are
/// admitted and the episode drains.
fn episode(
    sys: &mut System,
    out: &mut Outcome,
    stream: &[Arrival],
    measured: bool,
    record: bool,
    trace: bool,
    deadline: Option<Instant>,
) {
    let t0 = sys.cluster.now();
    let n = sys.cluster.num_nodes();
    let mut now = t0;
    let mut next = 0;
    let mut last = stream.len();
    let mut ids: BTreeMap<JobId, usize> = BTreeMap::new();
    // nodes each running job loads
    let mut running: BTreeMap<JobId, Vec<(NodeId, u32)>> = BTreeMap::new();
    let mut ends: BinaryHeap<Reverse<(SimTime, JobId)>> = BinaryHeap::new();
    let mut tick = 0u64;
    let mut last_end = t0;
    let horizon = stream.last().map_or(Duration::ZERO, |a| a.offset) + Duration::from_hours(24);
    loop {
        // traced runs interleave untraced ticks, for the overhead
        let traced = measured && trace && out.passes % 2 == 1;
        let pass = out.passes;
        out.passes += 1;
        let obs = traced.then(Obs::new);
        let _guard = obs.as_ref().map(nlrm_obs::install);
        out.tracer.set_enabled(traced);
        let tracer = &mut out.tracer;

        let w = Instant::now();
        let advanced = now.since(sys.cluster.now());
        tracer.wrap("monitor.run_until", None, pass, || {
            sys.monitor.run_until(&mut sys.cluster, now)
        });
        // completions due, then arrivals due, as of this quantum
        let mut completed = 0.0;
        while let Some(&Reverse((end, id))) = ends.peek() {
            if end > now {
                break;
            }
            ends.pop();
            sys.broker.complete_at(id, end);
            for (node, procs) in running.remove(&id).expect("running job") {
                sys.cluster.add_job_load(node, -(procs as f64));
            }
            completed += 1.0;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            last = next;
        }
        while next < last && t0 + stream[next].offset <= now {
            let a = &stream[next];
            let id = sys
                .broker
                .submit_opts(
                    format!("job-{next}"),
                    a.request.clone(),
                    SubmitOptions {
                        class: a.class,
                        walltime: Some(a.walltime),
                        submitted_at: Some(t0 + a.offset),
                    },
                )
                .expect("generated requests are valid");
            ids.insert(id, next);
            out.attempted += 1;
            next += 1;
        }
        let monitor_s = w.elapsed().as_secs_f64();

        let reserved: Vec<u32> = (0..n)
            .map(|i| sys.broker.reserved_on(NodeId(i as u32)))
            .collect();
        let w = Instant::now();
        let pspan = tracer.start("sched.pass", None, pass);
        let snap = tracer.wrap("monitor.snapshot", pspan, pass, || sys.snapshot());
        let tspan = tracer.start("broker.tick", pspan, pass);
        let events = sys.broker.tick(&snap);
        tracer.end(tspan);
        tracer.end(pspan);
        let pass_s = w.elapsed().as_secs_f64();

        let w = Instant::now();
        let mut started = Vec::new();
        for ev in &events {
            if let BrokerEvent::Started(lease) = ev {
                let a = &stream[ids[&lease.id]];
                for &(node, procs) in &lease.allocation.nodes {
                    sys.cluster.add_job_load(node, procs as f64);
                }
                ends.push(Reverse((now + a.walltime, lease.id)));
                running.insert(lease.id, lease.allocation.nodes.clone());
                started.push(lease);
            }
        }
        let book_s = w.elapsed().as_secs_f64();

        if let Some(obs) = &obs {
            let layers = &mut out.layers;
            layers.traffic = layers.traffic.plus(Traffic::read(obs));
            layers.traffic_vmins += advanced.as_secs_f64() / 60.0;
            let derives = counter(obs, "loads_derive_total");
            layers.derives.push(derives);
            layers.examined.push(events.len() as f64);
            layers.started.push(started.len() as f64);
            layers
                .backfill
                .push(counter(obs, "broker_backfill_started_total"));
            layers.queue_depth.push(sys.broker.queued().len() as f64);
            // every request shares one shape, so the tick derived at most
            // once; replay that derivation and each start's placement
            if let Some(first) = started.first() {
                let req = &stream[ids[&first.id]].request;
                let mut replay = Replay::derive(tracer, tspan, pass, &snap, req, reserved, layers);
                for lease in &started {
                    let req = &stream[ids[&lease.id]].request;
                    replay.place(req, &lease.allocation.nodes, layers);
                }
            }
        }

        for lease in &started {
            let idx = ids[&lease.id];
            let a = &stream[idx];
            if let Err(why) = check_placement(&lease.allocation, &a.request, &snap) {
                out.fail(format!("job {idx}: {why}"));
            }
            if record {
                out.digest.placement(&lease.allocation);
                out.runtimes_s.push(a.walltime.as_secs_f64());
                out.waits_s.push(now.since(t0 + a.offset).as_secs_f64());
                out.busy_proc_s += a.request.procs as f64 * a.walltime.as_secs_f64();
                last_end = last_end.max(now + a.walltime);
            }
        }
        if let Err(why) = check_reservations(&sys.broker, n) {
            out.fail(format!("tick {tick}: {why}"));
        }

        if traced {
            out.layers.pass_traced_ms.push(pass_s * 1e3);
        } else if measured {
            out.pass_ms.push(pass_s * 1e3);
            out.placements += started.len() as f64;
            out.pass_wall_s += pass_s;
            out.completed += completed;
            out.loop_wall_s += monitor_s + pass_s + book_s;
        }
        if next >= last && running.is_empty() && sys.broker.queued().is_empty() {
            break;
        }
        if now.since(t0) > horizon {
            // a job that never starts would keep the episode open forever
            for id in sys.broker.queued() {
                sys.broker.cancel(id);
                out.fail(format!("job {}: never started", ids[&id]));
            }
            break;
        }
        tick += 1;
        now += Duration::from_secs(QUANTUM_S);
    }
    if sys.broker.total_reserved() != 0 {
        out.fail("reservations left after the stream drained".into());
    }
    if record {
        out.span_s = last_end.since(t0).as_secs_f64();
    }
}

/// Run `broker-stream` for `seconds` of measurement: episode 0 is the
/// reported one, later episodes (fresh seeds) extend the timing until the
/// time is up.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::new(trace);
    let mut sys = None;
    for _ in 0..SETUPS {
        drop(sys.take());
        let w = Instant::now();
        let mut s = System::warmed(crate::closed::iitk_fixture(), false);
        out.capacity_procs = s.capacity();
        let warm = make_stream(out.capacity_procs, seed ^ WARM_SALT);
        episode(
            &mut s,
            &mut out,
            &warm[..WARM_ARRIVALS],
            false,
            false,
            false,
            None,
        );
        out.setup_s.push(w.elapsed().as_secs_f64());
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");
    out.traffic = sys.traffic_per_vmin();

    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut ep = 0u64;
    while ep == 0 || out.pass_ms.len() < MIN_PASSES || Instant::now() < deadline {
        let stream = make_stream(out.capacity_procs, mix(seed ^ mix(ep)));
        // the reported episode always runs to the end
        let cut = (ep > 0).then_some(deadline);
        episode(&mut sys, &mut out, &stream, true, ep == 0, trace, cut);
        ep += 1;
    }
    out
}
