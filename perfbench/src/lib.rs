//! End-to-end, layer-by-layer benchmark of the nlrm scheduling path:
//! monitor → snapshot → `Loads::derive` → Alg. 1 → Alg. 2 → broker cycle →
//! MPI execution, driven only through the crates' public calls and timed
//! from outside them.
//!
//! A run executes one workload for a fixed wall-clock budget and reports
//! either the end-to-end metrics (untraced) or the per-layer split
//! (traced). See `README.md` for the metric definitions and which layer
//! each workload stresses.

pub mod checks;
pub mod closed;
pub mod stats;
pub mod stream;
pub mod system;
pub mod trace;

use checks::Digest;
use stats::{mean, median, percentile};
use system::{LayerStats, Traffic};
use trace::Tracer;

/// Untraced passes every run measures, so that `sched_pass_ms.p90` has
/// ten samples beyond it.
pub const MIN_PASSES: usize = 100;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5.1 protocol on the 60-node cluster.
    IitkTrials,
    /// 960 campus nodes behind a sharded monitor.
    Campus1k,
    /// Open-loop arrivals against the batched broker.
    BrokerStream,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "iitk-trials" => Some(Workload::IitkTrials),
            "campus-1k" => Some(Workload::Campus1k),
            "broker-stream" => Some(Workload::BrokerStream),
            _ => None,
        }
    }

    /// Run it.
    pub fn run(self, seed: u64, seconds: f64, trace: bool) -> Outcome {
        match self {
            Workload::IitkTrials => closed::run(&closed::IITK_TRIALS, seed, seconds, trace),
            Workload::Campus1k => closed::run(&closed::CAMPUS_1K, seed, seconds, trace),
            Workload::BrokerStream => stream::run(seed, seconds, trace),
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Wall seconds of each set-up (build, monitor warm-up, warm-up
    /// passes).
    pub setup_s: Vec<f64>,
    /// Scheduling passes so far, warm-up included (the span pass id).
    pub passes: u64,
    /// Wall milliseconds of each measured untraced pass (snapshot + tick).
    pub pass_ms: Vec<f64>,
    /// Jobs started inside measured untraced passes.
    pub placements: f64,
    /// Wall seconds inside those passes.
    pub pass_wall_s: f64,
    /// Jobs completed in measured untraced loop iterations.
    pub completed: f64,
    /// Wall seconds of those iterations (monitor + pass + execution).
    pub loop_wall_s: f64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that errored or failed a check.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Placement digest over the reported jobs.
    pub digest: Digest,
    /// Virtual runtime of each reported job, seconds.
    pub runtimes_s: Vec<f64>,
    /// Virtual queue wait of each reported job, from its due time.
    pub waits_s: Vec<f64>,
    /// Busy proc-seconds of the reported jobs.
    pub busy_proc_s: f64,
    /// Effective process capacity of the cluster.
    pub capacity_procs: f64,
    /// Virtual span of the reported jobs, seconds.
    pub span_s: f64,
    /// Monitor traffic per virtual minute after warm-up.
    pub traffic: Traffic,
    /// Per-layer counts from traced passes.
    pub layers: LayerStats,
    /// Spans of traced passes.
    pub tracer: Tracer,
}

impl Outcome {
    fn new(trace: bool) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            passes: 0,
            pass_ms: Vec::new(),
            placements: 0.0,
            pass_wall_s: 0.0,
            completed: 0.0,
            loop_wall_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: Digest::default(),
            runtimes_s: Vec::new(),
            waits_s: Vec::new(),
            busy_proc_s: 0.0,
            capacity_procs: 0.0,
            span_s: 0.0,
            traffic: Traffic::default(),
            layers: LayerStats::default(),
            tracer: Tracer::new(trace),
        }
    }

    /// Count a failed job.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// How the value was taken from the samples.
    pub how: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize, how: &str) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
        how: how.to_string(),
    }
}

/// Percentile of `samples` as a metric, or an error naming the shortfall.
fn pct(name: &'static str, samples: &[f64], p: f64, unit: &'static str) -> Result<Metric, String> {
    let v = percentile(samples, p).ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than {} beyond p{p}",
            samples.len(),
            stats::MIN_BEYOND
        )
    })?;
    Ok(metric(name, v, unit, samples.len(), &format!("p{p}")))
}

/// Highest of p99/p95/p90 that `samples` support.
pub fn tail(name: &'static str, samples: &[f64], unit: &'static str) -> Result<Metric, String> {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| pct(name, samples, p, unit).ok())
        .ok_or_else(|| {
            format!(
                "{name}: {} samples support no tail percentile",
                samples.len()
            )
        })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

impl Outcome {
    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        let waits = &self.waits_s;
        Ok(vec![
            metric(
                "setup_s",
                median(&self.setup_s),
                "s",
                self.setup_s.len(),
                "median of set-ups",
            ),
            pct("sched_pass_ms.p50", &self.pass_ms, 50.0, "ms")?,
            pct("sched_pass_ms.p90", &self.pass_ms, 90.0, "ms")?,
            metric(
                "placements_per_s",
                self.placements / self.pass_wall_s,
                "1/s",
                self.placements as usize,
                "jobs started / wall s in passes",
            ),
            metric(
                "e2e_jobs_per_s",
                self.completed / self.loop_wall_s,
                "1/s",
                self.completed as usize,
                "jobs completed / wall s of the loop",
            ),
            metric(
                "job_runtime_s.mean",
                mean(&self.runtimes_s),
                "s",
                self.runtimes_s.len(),
                "mean, virtual",
            ),
            pct("queue_wait_s.p50", waits, 50.0, "s")?,
            metric(
                "utilization",
                self.busy_proc_s / (self.capacity_procs * self.span_s),
                "ratio",
                self.runtimes_s.len(),
                "busy proc-s / (capacity x span), virtual",
            ),
            metric(
                "monitor_bytes_per_vmin",
                self.traffic.bytes(),
                "B/vmin",
                1,
                "probe+publish+gossip+heartbeat over 10 vmin",
            ),
            metric(
                "peak_rss_mb",
                peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
                "MiB",
                1,
                "VmHWM",
            ),
            metric(
                "ok_frac",
                1.0 - self.failed as f64 / self.attempted as f64,
                "ratio",
                self.attempted as usize,
                "1 - failed/attempted",
            ),
        ])
    }

    /// The per-layer metrics of a traced run. Timings are the median self
    /// time per call (a leaf call's self time is its duration).
    pub fn per_layer(&self) -> Result<Vec<Metric>, String> {
        let t = &self.tracer;
        let l = &self.layers;
        let self_med = |name: &'static str, span: &str| {
            let v = t.self_ms_of(span);
            let m = if v.is_empty() { 0.0 } else { median(&v) };
            metric(name, m, "ms", v.len(), "median self time per call")
        };
        let med = |name: &'static str, v: &[f64], unit: &'static str| {
            let m = if v.is_empty() { 0.0 } else { median(v) };
            metric(name, m, unit, v.len(), "median per call")
        };
        let avg = |name: &'static str, v: &[f64], unit: &'static str| {
            metric(name, mean(v), unit, v.len(), "mean per traced pass")
        };
        let vmin = l.traffic.per(l.traffic_vmins.max(f64::MIN_POSITIVE));
        let vmins = l.traffic_vmins.round() as usize;
        let examined: f64 = l.examined.iter().sum();
        let started: f64 = l.started.iter().sum();
        let tick = t.ms_of("broker.tick");
        let traced_p50 = pct("trace.pass_ms.p50", &l.pass_traced_ms, 50.0, "ms")?;
        let untraced_p50 = pct("trace.untraced_pass_ms.p50", &self.pass_ms, 50.0, "ms")?;
        let overhead = traced_p50.value - untraced_p50.value;
        Ok(vec![
            self_med("monitor.run_until_ms", "monitor.run_until"),
            self_med("cluster.clone_ms", "cluster.clone"),
            self_med("monitor.snapshot_ms", "monitor.snapshot"),
            self_med("loads.derive_ms", "loads.derive"),
            self_med("candidate.generate_ms", "candidate.generate"),
            med("candidate.count", &l.candidates, "count"),
            self_med("select.best_ms", "select.best"),
            med("loads.usable_nodes", &l.usable, "count"),
            metric(
                "monitor.probe_bytes",
                vmin.probe,
                "B/vmin",
                vmins,
                "traced vmin",
            ),
            metric(
                "monitor.publish_bytes",
                vmin.publish,
                "B/vmin",
                vmins,
                "traced vmin",
            ),
            metric(
                "monitor.gossip_bytes",
                vmin.gossip,
                "B/vmin",
                vmins,
                "traced vmin",
            ),
            metric(
                "monitor.pair_measurements",
                vmin.pairs,
                "1/vmin",
                vmins,
                "traced vmin",
            ),
            med("broker.tick_ms", &tick, "ms"),
            self_med("broker.self_ms", "broker.tick"),
            avg("loads.derive_per_pass", &l.derives, "count"),
            avg("broker.examined_per_tick", &l.examined, "count"),
            metric(
                "broker.start_ratio",
                if examined > 0.0 {
                    started / examined
                } else {
                    0.0
                },
                "ratio",
                examined as usize,
                "started / examined",
            ),
            avg("broker.backfill_started", &l.backfill, "1/tick"),
            avg("broker.queue_depth", &l.queue_depth, "count"),
            self_med("mpi.execute_ms", "mpi.execute"),
            metric(
                "mpi.steps_per_s",
                if l.mpi_wall_s > 0.0 {
                    l.mpi_steps / l.mpi_wall_s
                } else {
                    0.0
                },
                "1/s",
                l.comm_fraction.len(),
                "steps / wall s executing",
            ),
            avg("mpi.comm_fraction", &l.comm_fraction, "ratio"),
            tail("queue_wait_s.tail", &self.waits_s, "s")?,
            traced_p50,
            untraced_p50,
            metric(
                "trace.overhead_ms",
                overhead,
                "ms",
                l.pass_traced_ms.len(),
                "traced minus untraced pass p50",
            ),
        ])
    }
}
