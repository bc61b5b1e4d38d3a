//! A multi-job resource broker on top of the allocator.
//!
//! The paper deploys its allocator as a *resource broker* users submit MPI
//! jobs to (abstract, §1). One job at a time is what the evaluation runs;
//! this module supplies the broker around it for continuous operation:
//! a priority queue with aging, **reservation accounting** so that
//! concurrently running jobs never double-book the effective processor
//! count, EASY-style backfill behind a capacity-reserved queue head,
//! admission control under overload, and wait-deferral via the §6 advisor
//! thresholds.
//!
//! # The batched scheduling cycle
//!
//! The original broker re-derived [`Loads`] — an O(V²) matrix build — for
//! *every queued job on every tick*, an O(jobs × V²) pass. The batched
//! cycle ([`SchedMode::Batched`]) derives once per distinct *request
//! shape* (ppn + weight vectors) per tick, scores the top-K jobs of the
//! priority order against that shared derivation, and commits starts
//! greedily against the reservation ledger, rebuilding only the cheap
//! reservation-restricted view when the ledger actually changes.
//!
//! # Starvation and the head reservation
//!
//! Conservative backfill ("a later job may start only if the head still
//! cannot") lets a stream of small jobs starve a large queue head forever:
//! each small job grabs the free capacity the head is waiting for. The
//! batched cycle instead reserves capacity for the first capacity-blocked
//! job: from the expected completion times of running jobs it computes the
//! *shadow time* at which the head provably fits, and a later job may
//! start only if it finishes by the shadow time or fits in the capacity
//! left over once the head starts. Priority aging is the second backstop:
//! every second of queue wait adds [`BrokerConfig::aging_rate`] points.

use crate::advisor::load_per_core;
use crate::loads::Loads;
use crate::request::{AllocError, Allocation, AllocationRequest};
use crate::scalable::DECISION_SECONDS_BOUNDS;
use crate::select::decide;
use nlrm_monitor::ClusterSnapshot;
use nlrm_obs::span::{SpanId, TraceId};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Histogram bucket bounds (seconds) for job queue-wait time.
const JOB_WAIT_BOUNDS: &[f64] = &[0.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0];

/// Broker-assigned job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The job's trace id: deterministic, so executors and reports can name
    /// a job's trace without the broker in hand.
    pub fn trace(self) -> TraceId {
        TraceId::for_job(self.0)
    }
}

/// Fairness class of a job. Ordered `Batch < Normal < Urgent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// Throughput work: runs when nothing more pressing waits.
    Batch,
    /// The default interactive class.
    #[default]
    Normal,
    /// Latency-sensitive work: scheduled ahead of everything else.
    Urgent,
}

impl PriorityClass {
    /// Base priority points of the class. Aging adds
    /// [`BrokerConfig::aging_rate`] points per second of queue wait, so a
    /// `Normal` job overtakes a fresh `Urgent` one after
    /// `100 / aging_rate` seconds — classes bias, they never starve.
    pub fn base_priority(self) -> f64 {
        match self {
            PriorityClass::Batch => 0.0,
            PriorityClass::Normal => 100.0,
            PriorityClass::Urgent => 200.0,
        }
    }
}

/// How a scheduling pass walks the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedMode {
    /// Legacy per-job scheduling: re-derive [`Loads`] for every queued job
    /// (O(jobs × V²) per tick). Kept for comparison and for callers that
    /// want the original conservative-backfill semantics.
    PerJob,
    /// The batched cycle: one derivation per request shape per tick,
    /// scoring at most `max_per_tick` jobs of the priority order.
    Batched {
        /// Queue prefix examined per tick; jobs beyond it stay queued
        /// untouched (and unannounced) until the backlog drains.
        max_per_tick: usize,
    },
}

/// What happens to a submission when the queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Accept everything (the queue grows without bound).
    Unbounded,
    /// Reject new submissions once `max_queue` jobs wait
    /// ([`AllocError::QueueFull`], plus a `job_rejected` journal event).
    Reject {
        /// Queue length at which submissions start bouncing.
        max_queue: usize,
    },
    /// Evict the lowest-class (youngest within the class) queued job to
    /// make room — unless the new job itself is the lowest, in which case
    /// it is rejected instead. Sheds emit a `job_shed` journal event.
    Shed {
        /// Queue length at which shedding starts.
        max_queue: usize,
    },
}

/// Broker configuration.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Try jobs behind a blocked queue head. Under [`SchedMode::Batched`]
    /// this is EASY-style backfill against the head's capacity
    /// reservation; under [`SchedMode::PerJob`] it is the legacy
    /// conservative backfill (which can starve the head).
    pub backfill: bool,
    /// Defer jobs whose best group's mean CPU load per core exceeds this
    /// (§6's "recommend waiting"); `None` disables deferral.
    pub max_load_per_core: Option<f64>,
    /// How the queue is walked each tick.
    pub mode: SchedMode,
    /// What happens to submissions when the queue is full.
    pub admission: AdmissionPolicy,
    /// Priority points added per second of queue wait (virtual time).
    pub aging_rate: f64,
    /// Assumed walltime for jobs submitted without one, used for the
    /// backfill shadow-time forecast. `None` means such jobs make no
    /// completion promise and can never be counted on (nor backfilled
    /// past a reserved head on the finishes-in-time rule).
    pub default_walltime: Option<Duration>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            backfill: true,
            max_load_per_core: Some(1.5),
            mode: SchedMode::Batched { max_per_tick: 64 },
            admission: AdmissionPolicy::Unbounded,
            aging_rate: 1.0,
            default_walltime: Some(Duration::from_hours(1)),
        }
    }
}

/// Per-submission options beyond the allocation request itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Fairness class.
    pub class: PriorityClass,
    /// Declared walltime: feeds the backfill shadow-time forecast.
    pub walltime: Option<Duration>,
    /// Virtual submit time; jobs without one are stamped at their first
    /// batched tick so aging and the wait histogram still work.
    pub submitted_at: Option<SimTime>,
}

/// A queued job.
#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    name: String,
    request: AllocationRequest,
    class: PriorityClass,
    /// Declared walltime, if any.
    walltime: Option<Duration>,
    /// Virtual submit time, when known; feeds aging and the queue-wait
    /// histogram.
    submitted_at: Option<SimTime>,
    /// Whether an `alloc_requested` event was already journaled.
    announced: bool,
    /// Root span of the job's trace, opened when the job is announced to
    /// an installed observer.
    root_span: Option<SpanId>,
}

/// A running job's lease.
#[derive(Debug, Clone)]
pub struct Lease {
    /// The job.
    pub id: JobId,
    /// Job display name.
    pub name: String,
    /// The job's trace id (always valid; equals `id.trace()`).
    pub trace: TraceId,
    /// Root span of the job's trace, when an observer recorded one — the
    /// parent under which execution spans should hang.
    pub root_span: Option<SpanId>,
    /// The allocation it holds.
    pub allocation: Allocation,
}

/// Broker-side metadata for a running job (kept off the [`Lease`] so
/// externally constructed leases stay plain data).
#[derive(Debug, Clone)]
struct RunMeta {
    #[allow(dead_code)]
    class: PriorityClass,
    /// When the job is expected to release its nodes (start + walltime);
    /// `None` for jobs that declared nothing and have no default.
    expected_end: Option<SimTime>,
}

/// What happened during one scheduling pass.
#[derive(Debug, Clone)]
pub enum BrokerEvent {
    /// A job was granted nodes (boxed: a `Lease` carries a whole
    /// `Allocation` and dwarfs the deferral variant).
    Started(Box<Lease>),
    /// A job stayed queued.
    Deferred {
        /// The job.
        id: JobId,
        /// Why it did not start.
        reason: String,
    },
}

/// Why a placement attempt failed, split by whether freed capacity could
/// cure it: `Capacity` failures arm the head reservation, `Advisory` ones
/// (the §6 "recommend waiting" signal, monitoring gaps) do not.
#[derive(Debug, Clone)]
enum PlaceFailure {
    Capacity(String),
    Advisory(String),
}

impl PlaceFailure {
    fn into_message(self) -> String {
        match self {
            PlaceFailure::Capacity(m) | PlaceFailure::Advisory(m) => m,
        }
    }
}

/// Capacity reserved for the first capacity-blocked job of a batch.
#[derive(Debug, Clone)]
struct HeadReservation {
    job: JobId,
    need: u64,
    /// Earliest virtual time the running set's expected completions free
    /// enough capacity for the head; `None` if no forecast exists.
    shadow: Option<SimTime>,
    /// Capacity beyond the head's need at the shadow time — backfill jobs
    /// that outlive the shadow are charged against this.
    extra: u64,
}

/// Request shape: the inputs of [`Loads::derive`] that vary per job. Two
/// jobs with the same shape share one derivation per tick.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    ppn: Option<u32>,
    /// Bit patterns of the 8 compute weights + 2 network weights.
    weights: [u64; 10],
}

impl ShapeKey {
    fn of(req: &AllocationRequest) -> ShapeKey {
        let c = &req.compute_weights;
        let n = &req.network_weights;
        ShapeKey {
            ppn: req.ppn,
            weights: [
                c.cpu_load.to_bits(),
                c.cpu_util.to_bits(),
                c.flow_rate.to_bits(),
                c.memory.to_bits(),
                c.core_count.to_bits(),
                c.cpu_freq.to_bits(),
                c.total_mem.to_bits(),
                c.users.to_bits(),
                n.latency.to_bits(),
                n.bandwidth.to_bits(),
            ],
        }
    }
}

/// Effective priority: class base plus aging.
fn effective_priority(job: &QueuedJob, now: SimTime, aging_rate: f64) -> f64 {
    let waited = match job.submitted_at {
        Some(t) if t <= now => now.since(t).as_secs_f64(),
        _ => 0.0,
    };
    job.class.base_priority() + aging_rate * waited
}

/// Record a scheduling pass's wall time, if it was timed (only under an
/// installed observer). The name's `wall` fragment keeps it out of the
/// flight recorder's replay digest.
fn observe_tick_wall(started: Option<std::time::Instant>) {
    if let Some(started) = started {
        nlrm_obs::ctx::observe(
            "broker_tick_wall_seconds",
            DECISION_SECONDS_BOUNDS,
            started.elapsed().as_secs_f64(),
        );
    }
}

/// Journal the job's arrival and open its root trace span (first
/// examination only; call only with an observer installed). `cycle` is the
/// scheduling cycle that first examined the job, so incident analysis can
/// tie the arrival to a concrete broker pass.
fn announce(job: &mut QueuedJob, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    job.announced = true;
    let at = job.submitted_at.unwrap_or(now);
    job.root_span = nlrm_obs::ctx::span_start_kv(
        job.id.trace(),
        None,
        "job",
        "broker/jobs",
        at,
        vec![
            ("job".into(), job.name.clone()),
            ("procs".into(), job.request.procs.to_string()),
        ],
    );
    nlrm_obs::ctx::emit_kv(
        Severity::Info,
        at,
        EventKind::AllocRequested {
            job: job.name.clone(),
            procs: job.request.procs,
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
        ],
    );
}

/// Journal a grant, close the queue-wait span, and feed the wait histogram
/// (call only with an observer installed).
fn observe_start(job: &QueuedJob, lease: &Lease, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    // the exact placement travels with the grant, so a root-cause walk can
    // correlate a later load spike with the lease that landed on the node
    let placed: Vec<String> = lease
        .allocation
        .node_list()
        .iter()
        .map(|n| n.index().to_string())
        .collect();
    nlrm_obs::ctx::emit_kv(
        Severity::Info,
        now,
        EventKind::AllocGranted {
            job: job.name.clone(),
            nodes: lease.allocation.node_list().len(),
            cost: lease.allocation.diagnostics.total_cost,
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
            ("placed".into(), placed.join(",")),
        ],
    );
    // the queue-wait span covers exactly the interval the wait histogram
    // observes
    nlrm_obs::ctx::span_closed(
        job.id.trace(),
        job.root_span,
        "queue_wait",
        "broker/queue",
        job.submitted_at.unwrap_or(now),
        now,
        vec![("job".into(), job.name.clone())],
    );
    if let Some(at) = job.submitted_at {
        nlrm_obs::ctx::observe(
            "broker_job_wait_secs",
            JOB_WAIT_BOUNDS,
            now.since(at.min(now)).as_secs_f64(),
        );
    }
}

/// Journal a deferral and drop an instant mark on the trace (call only
/// with an observer installed).
fn observe_defer(job: &QueuedJob, reason: &str, now: SimTime, cycle: u64) {
    use nlrm_obs::{EventKind, Severity};
    nlrm_obs::ctx::emit_kv(
        Severity::Warn,
        now,
        EventKind::AllocDeferred {
            job: job.name.clone(),
            reason: reason.to_string(),
        },
        vec![
            ("trace".into(), job.id.trace().to_string()),
            ("cycle".into(), cycle.to_string()),
        ],
    );
    // instant mark on the trace; zero-width, so it never perturbs the
    // critical path
    nlrm_obs::ctx::span_closed(
        job.id.trace(),
        job.root_span,
        "defer",
        "broker/queue",
        now,
        now,
        vec![("reason".into(), reason.to_string())],
    );
}

/// The resource broker.
#[derive(Debug, Clone, Default)]
pub struct Broker {
    config: BrokerConfig,
    queue: VecDeque<QueuedJob>,
    running: BTreeMap<JobId, Lease>,
    run_meta: BTreeMap<JobId, RunMeta>,
    /// Processes reserved per node by running jobs.
    reserved: BTreeMap<NodeId, u32>,
    next_id: u64,
    /// Completed scheduling passes; stamped onto every allocation event so
    /// incident analysis can line decisions up with concrete broker cycles.
    cycles: u64,
}

impl Broker {
    /// A broker with the given configuration.
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            config,
            ..Broker::default()
        }
    }

    /// Scheduling passes completed so far (the `cycle` stamped onto
    /// allocation journal events).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Enqueue a job; returns its id. The request is validated on submit.
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
    ) -> Result<JobId, AllocError> {
        self.submit_opts(name, request, SubmitOptions::default())
    }

    /// Enqueue a job stamped with its virtual submit time, so scheduling
    /// passes can report how long it waited in queue.
    pub fn submit_at(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
        now: SimTime,
    ) -> Result<JobId, AllocError> {
        self.submit_opts(
            name,
            request,
            SubmitOptions {
                submitted_at: Some(now),
                ..SubmitOptions::default()
            },
        )
    }

    /// Enqueue a job with explicit class/walltime/submit-time options.
    pub fn submit_opts(
        &mut self,
        name: impl Into<String>,
        request: AllocationRequest,
        opts: SubmitOptions,
    ) -> Result<JobId, AllocError> {
        use nlrm_obs::{EventKind, Severity};
        request.validate()?;
        let name = name.into();
        let at = opts.submitted_at.unwrap_or(SimTime::ZERO);
        match self.config.admission {
            AdmissionPolicy::Unbounded => {}
            AdmissionPolicy::Reject { max_queue } => {
                if self.queue.len() >= max_queue.max(1) {
                    nlrm_obs::ctx::emit(
                        Severity::Warn,
                        at,
                        EventKind::JobRejected {
                            job: name,
                            depth: self.queue.len(),
                        },
                    );
                    nlrm_obs::ctx::inc("broker_jobs_rejected_total");
                    return Err(AllocError::QueueFull {
                        depth: self.queue.len(),
                    });
                }
            }
            AdmissionPolicy::Shed { max_queue } => {
                if self.queue.len() >= max_queue.max(1) {
                    // victim: lowest class, youngest within it (sheds are
                    // judged on class alone — aging protects old waiters
                    // from scheduling starvation, not from overload)
                    let victim = self
                        .queue
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, j)| (j.class, std::cmp::Reverse(j.id)))
                        .map(|(i, j)| (i, j.class))
                        .expect("queue at capacity is non-empty");
                    if opts.class <= victim.1 {
                        // the newcomer is itself the youngest of the lowest
                        // class present — it would be the victim: bounce it
                        nlrm_obs::ctx::emit(
                            Severity::Warn,
                            at,
                            EventKind::JobRejected {
                                job: name,
                                depth: self.queue.len(),
                            },
                        );
                        nlrm_obs::ctx::inc("broker_jobs_rejected_total");
                        return Err(AllocError::QueueFull {
                            depth: self.queue.len(),
                        });
                    }
                    let shed = self.queue.remove(victim.0).expect("victim index valid");
                    if let Some(root) = shed.root_span {
                        nlrm_obs::ctx::span_annotate(root, "shed", "true");
                        nlrm_obs::ctx::span_end(root, at);
                    }
                    nlrm_obs::ctx::emit(
                        Severity::Warn,
                        at,
                        EventKind::JobShed {
                            job: shed.name,
                            depth: self.queue.len(),
                        },
                    );
                    nlrm_obs::ctx::inc("broker_jobs_shed_total");
                }
            }
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(QueuedJob {
            id,
            name,
            request,
            class: opts.class,
            walltime: opts.walltime,
            submitted_at: opts.submitted_at,
            announced: false,
            root_span: None,
        });
        Ok(id)
    }

    /// Jobs waiting, in scheduling order (priority order after a batched
    /// tick, submission order before).
    pub fn queued(&self) -> Vec<JobId> {
        self.queue.iter().map(|j| j.id).collect()
    }

    /// Currently running leases.
    pub fn running(&self) -> Vec<&Lease> {
        self.running.values().collect()
    }

    /// Processes reserved on a node by running jobs.
    pub fn reserved_on(&self, node: NodeId) -> u32 {
        self.reserved.get(&node).copied().unwrap_or(0)
    }

    /// Total processes reserved across all nodes.
    pub fn total_reserved(&self) -> u64 {
        self.reserved.values().map(|&p| p as u64).sum()
    }

    /// Install an externally-constructed lease into the broker's books
    /// (reserving its nodes). Lets callers plug alternative placement
    /// strategies into the same reservation accounting — the baseline
    /// brokers in the `multi_job_broker` experiment use this.
    ///
    /// The lease's id must not collide with a queued or running job, and
    /// `next_id` is bumped past it so no future submission can collide
    /// either (a colliding submit used to overwrite the adopted lease in
    /// `running`, permanently leaking its reservations).
    pub fn adopt_lease(&mut self, lease: Lease) -> Result<(), AllocError> {
        if self.running.contains_key(&lease.id) || self.queue.iter().any(|j| j.id == lease.id) {
            return Err(AllocError::InvalidRequest(format!(
                "cannot adopt lease: job id {} is already known to the broker",
                lease.id.0
            )));
        }
        self.next_id = self.next_id.max(lease.id.0 + 1);
        for &(node, procs) in &lease.allocation.nodes {
            *self.reserved.entry(node).or_insert(0) += procs;
        }
        self.run_meta.insert(
            lease.id,
            RunMeta {
                class: PriorityClass::Normal,
                expected_end: None,
            },
        );
        self.running.insert(lease.id, lease);
        Ok(())
    }

    /// Release a finished job's nodes. Returns the lease, or `None` if the
    /// id is unknown (already completed or never started).
    pub fn complete(&mut self, id: JobId) -> Option<Lease> {
        let lease = self.running.remove(&id)?;
        self.run_meta.remove(&id);
        for &(node, procs) in &lease.allocation.nodes {
            let r = self.reserved.get_mut(&node).expect("reservation exists");
            *r -= procs.min(*r);
            if *r == 0 {
                self.reserved.remove(&node);
            }
        }
        Some(lease)
    }

    /// [`Broker::complete`], additionally closing the job's root trace span
    /// at virtual time `now` so the trace's end-to-end duration matches the
    /// job's actual lifetime.
    pub fn complete_at(&mut self, id: JobId, now: SimTime) -> Option<Lease> {
        let lease = self.complete(id)?;
        if let Some(root) = lease.root_span {
            nlrm_obs::ctx::span_end(root, now);
        }
        Some(lease)
    }

    /// Cancel a job, queued *or running*. A running job's reservations are
    /// released exactly as on completion. Returns whether the id was known.
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.cancel_impl(id, None)
    }

    /// [`Broker::cancel`], additionally closing the job's root trace span
    /// at virtual time `now` (annotated `cancelled`) so a withdrawn job
    /// leaves a complete trace rather than a dangling open span.
    pub fn cancel_at(&mut self, id: JobId, now: SimTime) -> bool {
        self.cancel_impl(id, Some(now))
    }

    fn cancel_impl(&mut self, id: JobId, now: Option<SimTime>) -> bool {
        use nlrm_obs::{EventKind, Severity};
        let (found, name, root, was_running) =
            if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
                let job = self.queue.remove(pos).expect("position valid");
                (true, job.name, job.root_span, false)
            } else if self.running.contains_key(&id) {
                let lease = self.complete(id).expect("running contains id");
                (true, lease.name, lease.root_span, true)
            } else {
                (false, String::new(), None, false)
            };
        if !found {
            return false;
        }
        if let Some(now) = now {
            if let Some(root) = root {
                nlrm_obs::ctx::span_annotate(root, "cancelled", "true");
                nlrm_obs::ctx::span_end(root, now);
            }
            nlrm_obs::ctx::emit(
                Severity::Info,
                now,
                EventKind::JobCancelled {
                    job: name,
                    was_running,
                },
            );
        }
        nlrm_obs::ctx::inc("broker_jobs_cancelled_total");
        true
    }

    /// One scheduling pass against a fresh snapshot: starts whatever fits
    /// and reports what happened to every queued job it examined. Under an
    /// installed observer, the pass's wall time lands in
    /// `broker_tick_wall_seconds`.
    pub fn tick(&mut self, snap: &ClusterSnapshot) -> Vec<BrokerEvent> {
        let started = nlrm_obs::ctx::is_active().then(std::time::Instant::now);
        let events = match self.config.mode {
            SchedMode::PerJob => self.tick_per_job(snap),
            SchedMode::Batched { max_per_tick } => self.tick_batched(snap, max_per_tick, None),
        };
        observe_tick_wall(started);
        events
    }

    /// A batched scheduling pass against a caller-supplied derivation
    /// instead of deriving from the snapshot. For callers that manage the
    /// derivation cadence themselves (e.g. reuse one derivation across
    /// many ticks over a static cluster). The base is used for *every*
    /// request shape in the batch, so streams should be shape-uniform; the
    /// snapshot still supplies virtual time and the §6 per-core load
    /// check, and may legitimately disagree with an older `base` — nodes
    /// missing from it defer the job instead of panicking. Its wall time is
    /// recorded as [`Broker::tick`]'s is.
    pub fn tick_with_loads(&mut self, base: &Loads, snap: &ClusterSnapshot) -> Vec<BrokerEvent> {
        let started = nlrm_obs::ctx::is_active().then(std::time::Instant::now);
        let k = match self.config.mode {
            SchedMode::Batched { max_per_tick } => max_per_tick,
            SchedMode::PerJob => usize::MAX,
        };
        let events = self.tick_batched(snap, k, Some(base));
        observe_tick_wall(started);
        events
    }

    /// The batched scheduling cycle. See the module docs for the shape of
    /// the pass; `base_override` substitutes a caller-supplied derivation
    /// for every shape.
    fn tick_batched(
        &mut self,
        snap: &ClusterSnapshot,
        max_per_tick: usize,
        base_override: Option<&Loads>,
    ) -> Vec<BrokerEvent> {
        let observed = nlrm_obs::ctx::is_active();
        let now = snap.taken_at;
        self.cycles += 1;
        let cycle = self.cycles;
        let mut events = Vec::new();

        // stamp walk-in submissions so aging and the wait histogram see a
        // consistent clock, then order by effective priority (stable:
        // equal priorities keep id order, i.e. FIFO)
        for job in self.queue.iter_mut() {
            if job.submitted_at.is_none() {
                job.submitted_at = Some(now);
            }
        }
        let mut jobs: Vec<QueuedJob> = self.queue.drain(..).collect();
        let rate = self.config.aging_rate;
        jobs.sort_by(|a, b| {
            effective_priority(b, now, rate)
                .total_cmp(&effective_priority(a, now, rate))
                .then(a.id.cmp(&b.id))
        });

        let batch = jobs.len().min(max_per_tick.max(1));
        // one derivation per request shape per tick…
        let mut bases: HashMap<ShapeKey, Result<Loads, String>> = HashMap::new();
        // …and one reservation-restricted view per shape per ledger state
        // (cleared whenever a start changes the ledger)
        let mut views: HashMap<ShapeKey, Result<Loads, PlaceFailure>> = HashMap::new();
        let mut head_res: Option<HeadReservation> = None;
        let mut started = vec![false; jobs.len()];

        'jobs: for idx in 0..batch {
            if observed && !jobs[idx].announced {
                announce(&mut jobs[idx], now, cycle);
            }

            // EASY gate: while a head reservation is armed, a later job may
            // only start if it provably cannot delay the reserved head
            let mut charge_extra = false;
            if let Some(res) = &head_res {
                let job = &jobs[idx];
                let walltime = job.walltime.or(self.config.default_walltime);
                let ends_by_shadow = matches!(
                    (walltime, res.shadow),
                    (Some(w), Some(s)) if now + w <= s
                );
                let fits_extra = res.shadow.is_some() && (job.request.procs as u64) <= res.extra;
                if !(ends_by_shadow || fits_extra) {
                    let reason = format!(
                        "head reservation: job {} holds {} procs{}; backfill could delay it",
                        res.job.0,
                        res.need,
                        match res.shadow {
                            Some(s) => format!(" until t={s}"),
                            None => " with no completion forecast".to_string(),
                        }
                    );
                    if observed {
                        observe_defer(job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    continue 'jobs;
                }
                charge_extra = !ends_by_shadow;
            }

            // resolve the shared derivation for this job's shape
            let key = ShapeKey::of(&jobs[idx].request);
            let base: &Loads = match base_override {
                Some(b) => b,
                None => {
                    if !bases.contains_key(&key) {
                        let req = &jobs[idx].request;
                        let derived = Loads::derive(
                            snap,
                            &req.compute_weights,
                            &req.network_weights,
                            req.ppn,
                        )
                        .map_err(|e| e.to_string());
                        bases.insert(key.clone(), derived);
                    }
                    match bases.get(&key).expect("just inserted") {
                        Ok(b) => b,
                        Err(e) => {
                            let reason = e.clone();
                            let job = &jobs[idx];
                            if observed {
                                observe_defer(job, &reason, now, cycle);
                            }
                            events.push(BrokerEvent::Deferred { id: job.id, reason });
                            if !self.config.backfill {
                                break 'jobs;
                            }
                            continue 'jobs;
                        }
                    }
                }
            };

            // reservation-restricted view, shared until the ledger changes
            if !views.contains_key(&key) {
                views.insert(key.clone(), self.restrict(base));
            }
            let outcome: Result<Lease, PlaceFailure> = match views.get(&key).expect("just inserted")
            {
                Ok(view) => self.place_on(view, &jobs[idx], snap),
                Err(fail) => Err(fail.clone()),
            };

            match outcome {
                Ok(lease) => {
                    if observed {
                        observe_start(&jobs[idx], &lease, now, cycle);
                        if head_res.is_some() {
                            nlrm_obs::ctx::inc("broker_backfill_started_total");
                        }
                    }
                    if charge_extra {
                        if let Some(res) = head_res.as_mut() {
                            res.extra = res.extra.saturating_sub(jobs[idx].request.procs as u64);
                        }
                    }
                    events.push(BrokerEvent::Started(Box::new(lease.clone())));
                    self.commit_start(&jobs[idx], lease, now);
                    started[idx] = true;
                    views.clear();
                }
                Err(fail) => {
                    let capacity_blocked = matches!(fail, PlaceFailure::Capacity(_));
                    let reason = fail.into_message();
                    let job = &jobs[idx];
                    if observed {
                        observe_defer(job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    // the first capacity-blocked job arms the head
                    // reservation — unless it could never fit even an idle
                    // cluster, which completions cannot cure
                    if head_res.is_none() && capacity_blocked {
                        let need = job.request.procs as u64;
                        if need <= base.total_capacity() {
                            let free = self.free_capacity(base);
                            let (shadow, extra) = self.head_forecast(need, free, now);
                            head_res = Some(HeadReservation {
                                job: job.id,
                                need,
                                shadow,
                                extra,
                            });
                        }
                    }
                    if !self.config.backfill {
                        break 'jobs;
                    }
                }
            }
        }

        self.queue = jobs
            .into_iter()
            .zip(started)
            .filter(|&(_, s)| !s)
            .map(|(j, _)| j)
            .collect();
        if observed {
            nlrm_obs::ctx::set_gauge(
                "broker_head_reserved_procs",
                head_res.map(|r| r.need as f64).unwrap_or(0.0),
            );
            let base = base_override.or_else(|| bases.values().find_map(|r| r.as_ref().ok()));
            self.publish_queue_gauges(now, base);
            nlrm_obs::ctx::telemetry_tick(now);
        }
        events
    }

    /// Legacy per-job scheduling pass: FIFO with conservative backfill,
    /// one fresh derivation per queued job.
    fn tick_per_job(&mut self, snap: &ClusterSnapshot) -> Vec<BrokerEvent> {
        let observed = nlrm_obs::ctx::is_active();
        let now = snap.taken_at;
        self.cycles += 1;
        let cycle = self.cycles;
        let mut events = Vec::new();
        let mut still_queued: VecDeque<QueuedJob> = VecDeque::new();
        let mut head_blocked = false;
        let mut gauge_base: Option<Loads> = None;
        while let Some(mut job) = self.queue.pop_front() {
            if head_blocked && !self.config.backfill {
                still_queued.push_back(job);
                continue;
            }
            if observed && !job.announced {
                announce(&mut job, now, cycle);
            }
            let (base, outcome) = self.try_start(&job, snap);
            if base.is_some() {
                gauge_base = base;
            }
            match outcome {
                Ok(lease) => {
                    if observed {
                        observe_start(&job, &lease, now, cycle);
                    }
                    events.push(BrokerEvent::Started(Box::new(lease.clone())));
                    self.commit_start(&job, lease, now);
                }
                Err(reason) => {
                    if observed {
                        observe_defer(&job, &reason, now, cycle);
                    }
                    events.push(BrokerEvent::Deferred { id: job.id, reason });
                    head_blocked = true;
                    still_queued.push_back(job);
                }
            }
        }
        self.queue = still_queued;
        if observed {
            self.publish_queue_gauges(now, gauge_base.as_ref());
            nlrm_obs::ctx::telemetry_tick(now);
        }
        events
    }

    /// Book a granted lease: reserve its nodes, record run metadata (for
    /// the backfill forecast), move the job to `running`.
    fn commit_start(&mut self, job: &QueuedJob, lease: Lease, now: SimTime) {
        for &(node, procs) in &lease.allocation.nodes {
            *self.reserved.entry(node).or_insert(0) += procs;
        }
        let walltime = job.walltime.or(self.config.default_walltime);
        self.run_meta.insert(
            job.id,
            RunMeta {
                class: job.class,
                expected_end: walltime.map(|w| now + w),
            },
        );
        self.running.insert(job.id, lease);
    }

    /// Publish the queue/capacity gauge family the telemetry layer
    /// derives cluster health from. `base` carries the derived universe
    /// when the scheduling pass produced one; the capacity gauges keep
    /// their previous values otherwise (a tick with nothing queued
    /// derives nothing, and a stale reading beats a fabricated zero).
    fn publish_queue_gauges(&self, now: SimTime, base: Option<&Loads>) {
        nlrm_obs::ctx::set_gauge("broker_queue_depth", self.queue.len() as f64);
        nlrm_obs::ctx::set_gauge("broker_running_jobs", self.running.len() as f64);
        let mut by_class = [0u64; 3];
        let mut oldest = 0.0f64;
        for job in &self.queue {
            let slot = match job.class {
                PriorityClass::Batch => 0,
                PriorityClass::Normal => 1,
                PriorityClass::Urgent => 2,
            };
            by_class[slot] += 1;
            if let Some(at) = job.submitted_at {
                oldest = oldest.max(now.since(at).as_secs_f64());
            }
        }
        nlrm_obs::ctx::set_gauge("broker_queue_depth_batch", by_class[0] as f64);
        nlrm_obs::ctx::set_gauge("broker_queue_depth_normal", by_class[1] as f64);
        nlrm_obs::ctx::set_gauge("broker_queue_depth_urgent", by_class[2] as f64);
        nlrm_obs::ctx::set_gauge("broker_oldest_wait_secs", oldest);
        if let Some(base) = base {
            let mut free = 0u64;
            let mut largest = 0u64;
            for (&n, &pc) in base.usable.iter().zip(&base.pc) {
                let f = pc.saturating_sub(self.reserved_on(n)) as u64;
                free += f;
                largest = largest.max(f);
            }
            nlrm_obs::ctx::set_gauge("broker_total_capacity", base.total_capacity() as f64);
            nlrm_obs::ctx::set_gauge("broker_free_procs", free as f64);
            nlrm_obs::ctx::set_gauge("broker_largest_free_block", largest as f64);
        }
    }

    /// Free capacity across the derived universe under current
    /// reservations.
    fn free_capacity(&self, base: &Loads) -> u64 {
        base.usable
            .iter()
            .zip(&base.pc)
            .map(|(&n, &pc)| pc.saturating_sub(self.reserved_on(n)) as u64)
            .sum()
    }

    /// EASY shadow-time forecast for a head needing `need` procs with
    /// `free` currently available: walk running jobs by expected
    /// completion until enough capacity frees. Returns `(shadow time,
    /// capacity beyond the head's need at that time)`; `(None, 0)` when
    /// the running set makes no sufficient promise.
    fn head_forecast(&self, need: u64, free: u64, now: SimTime) -> (Option<SimTime>, u64) {
        let shortfall = need.saturating_sub(free);
        let mut ends: Vec<(SimTime, u64)> = self
            .running
            .values()
            .filter_map(|l| {
                let end = self.run_meta.get(&l.id)?.expected_end?;
                Some((end.max(now), l.allocation.total_procs() as u64))
            })
            .collect();
        ends.sort_unstable_by_key(|&(t, _)| t);
        let mut freed = 0u64;
        for (end, procs) in ends {
            freed += procs;
            if freed >= shortfall {
                return (Some(end), free + freed - need);
            }
        }
        (None, 0)
    }

    /// Shrink a derivation's capacities by current reservations, dropping
    /// fully-booked nodes.
    fn restrict(&self, base: &Loads) -> Result<Loads, PlaceFailure> {
        let view = base.restrict(|node, pc| pc.saturating_sub(self.reserved_on(node)));
        if view.usable.is_empty() {
            return Err(PlaceFailure::Capacity("all nodes fully reserved".into()));
        }
        Ok(view)
    }

    /// Attempt to place one job (legacy path): derive fresh, then place.
    /// Also hands back the unrestricted derivation (when one succeeded)
    /// so the caller can publish capacity gauges without re-deriving.
    fn try_start(
        &self,
        job: &QueuedJob,
        snap: &ClusterSnapshot,
    ) -> (Option<Loads>, Result<Lease, String>) {
        let req = &job.request;
        let loads = match Loads::derive(snap, &req.compute_weights, &req.network_weights, req.ppn) {
            Ok(l) => l,
            Err(e) => return (None, Err(e.to_string())),
        };
        let outcome = match self.restrict(&loads) {
            Ok(adjusted) => self
                .place_on(&adjusted, job, snap)
                .map_err(PlaceFailure::into_message),
            Err(fail) => Err(fail.into_message()),
        };
        (Some(loads), outcome)
    }

    /// Score and place one job against a reservation-restricted view.
    fn place_on(
        &self,
        adjusted: &Loads,
        job: &QueuedJob,
        snap: &ClusterSnapshot,
    ) -> Result<Lease, PlaceFailure> {
        let req = &job.request;
        let free_capacity = adjusted.total_capacity();
        if free_capacity < req.procs as u64 {
            return Err(PlaceFailure::Capacity(format!(
                "insufficient free capacity: {free_capacity} < {}",
                req.procs
            )));
        }
        let decision = decide(adjusted, req).map_err(|_| {
            PlaceFailure::Capacity("no candidate group can host the request".into())
        })?;

        // §6 deferral: is even the best group too loaded? A winner node
        // missing from the snapshot (its node-state record vanished after
        // the universe was derived) defers rather than panics.
        if let Some(limit) = self.config.max_load_per_core {
            let per_core = load_per_core(snap, &decision.winner().nodes).map_err(|node| {
                PlaceFailure::Advisory(format!(
                    "node {node} has no sample in the snapshot (stale or partial view)"
                ))
            })?;
            if per_core > limit {
                return Err(PlaceFailure::Advisory(format!(
                    "cluster too loaded: best group at {per_core:.2} load/core (> {limit})"
                )));
            }
        }

        let considered = decision.candidates.len();
        let best_cost = decision.selection.best_cost;
        let allocation = decision.into_allocation(adjusted, req, "network-load-aware/broker");
        if nlrm_obs::ctx::is_active() {
            let now = snap.taken_at;
            // instant marks: scoring and placement consume no virtual time
            // in this simulation, but their attributes record what the
            // decision saw (candidate count, winning cost, data freshness)
            nlrm_obs::ctx::span_closed(
                job.id.trace(),
                job.root_span,
                "scoring",
                "broker/alloc",
                now,
                now,
                vec![
                    ("candidates".into(), considered.to_string()),
                    ("best_cost".into(), format!("{best_cost:.6}")),
                    (
                        "snapshot_age_s".into(),
                        format!(
                            "{:.3}",
                            snap.max_sample_age().unwrap_or_default().as_secs_f64()
                        ),
                    ),
                ],
            );
            let node_list: Vec<String> = allocation
                .node_list()
                .iter()
                .map(|n| n.to_string())
                .collect();
            nlrm_obs::ctx::span_closed(
                job.id.trace(),
                job.root_span,
                "placement",
                "broker/alloc",
                now,
                now,
                vec![
                    ("nodes".into(), node_list.join(",")),
                    (
                        "mean_compute_load".into(),
                        format!("{:.4}", allocation.diagnostics.mean_compute_load),
                    ),
                ],
            );
        }
        Ok(Lease {
            id: job.id,
            name: job.name.clone(),
            trace: job.id.trace(),
            root_span: job.root_span,
            allocation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Diagnostics;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_obs::{install, Obs};

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    fn req(procs: u32) -> AllocationRequest {
        AllocationRequest::new(procs, Some(4), 0.3, 0.7)
    }

    /// Move a snapshot's clock forward without staling its samples (tests
    /// that span virtual minutes would otherwise trip staleness exclusion).
    fn advance(snap: &mut ClusterSnapshot, now: SimTime) {
        snap.taken_at = now;
        for n in snap.nodes.iter_mut() {
            n.sample.taken_at = now;
        }
    }

    fn no_defer() -> BrokerConfig {
        BrokerConfig {
            backfill: true,
            max_load_per_core: None,
            ..BrokerConfig::default()
        }
    }

    fn external_lease(id: u64, nodes: Vec<(NodeId, u32)>) -> Lease {
        Lease {
            id: JobId(id),
            name: format!("external-{id}"),
            trace: JobId(id).trace(),
            root_span: None,
            allocation: Allocation {
                policy: "external".into(),
                rank_map: Allocation::block_rank_map(&nodes),
                nodes,
                diagnostics: Diagnostics::default(),
            },
        }
    }

    #[test]
    fn jobs_start_and_complete() {
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("job-a", req(16)).unwrap();
        let events = broker.tick(&snap);
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == a));
        assert_eq!(broker.running().len(), 1);
        assert!(broker.queued().is_empty());
        let lease = broker.complete(a).unwrap();
        assert_eq!(lease.allocation.total_procs(), 16);
        assert!(broker.running().is_empty());
        // reservations cleared
        for node in lease.allocation.node_list() {
            assert_eq!(broker.reserved_on(node), 0);
        }
    }

    #[test]
    fn concurrent_jobs_never_double_book() {
        // 8 nodes × 4 ppn = 32 capacity; two 16-proc jobs fill it exactly
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        broker.submit("a", req(16)).unwrap();
        broker.submit("b", req(16)).unwrap();
        broker.submit("c", req(16)).unwrap();
        let events = broker.tick(&snap);
        let started: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, BrokerEvent::Started(_)))
            .collect();
        assert_eq!(started.len(), 2, "only two jobs fit");
        assert_eq!(broker.queued().len(), 1);
        // per-node reservations never exceed ppn
        for i in 0..8u32 {
            assert!(broker.reserved_on(NodeId(i)) <= 4);
        }
        // total reserved == 32
        let total: u32 = (0..8u32).map(|i| broker.reserved_on(NodeId(i))).sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn every_selection_records_its_decision_latency() {
        // 32 capacity: two jobs reach selection, the third is turned away
        // by the free-capacity check before Algorithm 1 runs
        let snap = snapshot(8, 3);
        let obs = Obs::new();
        let _g = install(&obs);
        let mut broker = Broker::new(no_defer());
        for name in ["a", "b", "c"] {
            broker.submit(name, req(16)).unwrap();
        }
        broker.tick(&snap);
        assert_eq!(broker.running().len(), 2);
        let decisions = obs
            .metrics
            .histogram_snapshot("alloc_decision_seconds")
            .expect("decision latency recorded");
        let selections = obs
            .metrics
            .histogram_snapshot("alloc_candidate_groups")
            .unwrap();
        assert_eq!(decisions.count(), 2);
        assert_eq!(selections.count(), 2);
    }

    #[test]
    fn each_tick_records_its_wall_time() {
        let snap = snapshot(8, 3);
        let base = Loads::derive(
            &snap,
            &req(4).compute_weights,
            &req(4).network_weights,
            Some(4),
        )
        .unwrap();
        let obs = Obs::new();
        let _g = install(&obs);
        let count = || {
            obs.metrics
                .histogram_snapshot("broker_tick_wall_seconds")
                .map_or(0, |h| h.count())
        };
        let per_job = BrokerConfig {
            mode: SchedMode::PerJob,
            ..no_defer()
        };
        let mut expected = 0;
        for config in [no_defer(), per_job] {
            let mut broker = Broker::new(config);
            broker.submit("a", req(4)).unwrap();
            broker.tick(&snap);
            expected += 1;
            assert_eq!(count(), expected);
            // an empty queue is still a pass
            broker.tick_with_loads(&base, &snap);
            expected += 1;
            assert_eq!(count(), expected);
        }
    }

    #[test]
    fn queued_job_starts_after_completion() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("a", req(16)).unwrap();
        let b = broker.submit("b", req(16)).unwrap();
        broker.tick(&snap);
        assert_eq!(broker.queued(), vec![b]);
        broker.complete(a);
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == b));
    }

    #[test]
    fn backfill_lets_small_jobs_jump_a_blocked_head() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        broker.submit("big-running", req(12)).unwrap();
        broker.tick(&snap); // 12 reserved, 4 free
        let big = broker.submit("big-blocked", req(16)).unwrap();
        let small = broker.submit("small", req(4)).unwrap();
        let events = broker.tick(&snap);
        // head deferred with a capacity reservation; the small job ends by
        // the shadow time (same default walltime, same start), so EASY
        // lets it jump
        assert!(matches!(&events[0], BrokerEvent::Deferred { id, .. } if *id == big));
        assert!(matches!(&events[1], BrokerEvent::Started(l) if l.id == small));
        assert_eq!(broker.queued(), vec![big]);
    }

    #[test]
    fn no_backfill_preserves_strict_fifo() {
        let snap = snapshot(4, 5);
        let mut broker = Broker::new(BrokerConfig {
            backfill: false,
            max_load_per_core: None,
            ..BrokerConfig::default()
        });
        broker.submit("running", req(12)).unwrap();
        broker.tick(&snap);
        let big = broker.submit("big", req(16)).unwrap();
        let small = broker.submit("small", req(4)).unwrap();
        let events = broker.tick(&snap);
        assert_eq!(events.len(), 1, "only the head is examined");
        assert!(matches!(&events[0], BrokerEvent::Deferred { id, .. } if *id == big));
        assert_eq!(broker.queued(), vec![big, small]);
    }

    #[test]
    fn overloaded_cluster_defers_jobs() {
        let mut cluster = nlrm_cluster::iitk::small_cluster_with_profile(
            6,
            nlrm_cluster::ClusterProfile::overloaded(),
            7,
        );
        let mut rt = MonitorRuntime::new(&cluster);
        let snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(600))
            .unwrap();
        let mut broker = Broker::new(BrokerConfig {
            backfill: true,
            max_load_per_core: Some(0.9),
            ..BrokerConfig::default()
        });
        broker.submit("urgent", req(8)).unwrap();
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[0], BrokerEvent::Deferred { reason, .. } if reason.contains("too loaded")),
            "expected load deferral, got {events:?}"
        );
    }

    #[test]
    fn cancel_removes_from_queue() {
        let snap = snapshot(4, 5);
        let mut broker = Broker::new(no_defer());
        broker.submit("running", req(16)).unwrap();
        broker.tick(&snap);
        let z = broker.submit("doomed", req(8)).unwrap();
        assert!(broker.cancel(z));
        assert!(!broker.cancel(z));
        assert!(broker.queued().is_empty());
    }

    #[test]
    fn cancel_running_job_releases_reservations() {
        let snap = snapshot(4, 5); // 16 capacity
        let mut broker = Broker::new(no_defer());
        let a = broker.submit("doomed-runner", req(12)).unwrap();
        broker.tick(&snap);
        assert_eq!(broker.running().len(), 1);
        assert_eq!(broker.total_reserved(), 12);
        // cancelling a *running* job must release its nodes (it used to be
        // silently ignored, leaking the reservation forever)
        assert!(broker.cancel(a));
        assert!(broker.running().is_empty());
        assert_eq!(
            broker.total_reserved(),
            0,
            "reservations must drain to zero"
        );
        assert!(!broker.cancel(a), "second cancel finds nothing");
        // the freed capacity is immediately schedulable again
        let b = broker.submit("next", req(16)).unwrap();
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l) if l.id == b));
    }

    #[test]
    fn cancel_at_closes_running_jobs_root_span() {
        let snap = snapshot(4, 5);
        let now = snap.taken_at;
        let obs = Obs::new();
        let _g = install(&obs);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit_at("traced-runner", req(8), now).unwrap();
        broker.tick(&snap);
        let later = now + Duration::from_secs(50);
        assert!(broker.cancel_at(a, later));
        let spans = obs.spans.trace_spans(a.trace());
        let root = spans.iter().find(|s| s.kind == "job").unwrap();
        assert_eq!(root.end, Some(later), "root span must be closed");
        assert!(root
            .attrs
            .iter()
            .any(|(k, v)| k == "cancelled" && v == "true"));
        assert_eq!(obs.journal.count_of("job_cancelled"), 1);
        assert_eq!(broker.total_reserved(), 0);
    }

    #[test]
    fn adopted_lease_ids_never_collide_with_submissions() {
        let snap = snapshot(8, 3);
        let mut broker = Broker::new(no_defer());
        // a lease adopted under the id the broker would assign next
        let _ = broker.adopt_lease(external_lease(0, vec![(NodeId(0), 4)]));
        assert_eq!(broker.total_reserved(), 4);
        let id = broker.submit("mine", req(4)).unwrap();
        assert_ne!(
            id,
            JobId(0),
            "submit must never reuse an adopted lease's id"
        );
        broker.tick(&snap);
        broker.complete(id).expect("submitted job ran");
        broker.complete(JobId(0)).expect("adopted lease still held");
        assert_eq!(
            broker.total_reserved(),
            0,
            "an id collision leaks reservations"
        );
    }

    #[test]
    fn duplicate_adoption_rejected() {
        let mut broker = Broker::new(no_defer());
        broker
            .adopt_lease(external_lease(7, vec![(NodeId(1), 2)]))
            .unwrap();
        let err = broker
            .adopt_lease(external_lease(7, vec![(NodeId(2), 2)]))
            .unwrap_err();
        assert!(matches!(err, AllocError::InvalidRequest(_)));
        // the rejected duplicate reserved nothing
        assert_eq!(broker.total_reserved(), 2);
        // and ids resume past the adopted one
        let id = broker.submit("next", req(4)).unwrap();
        assert_eq!(id, JobId(8));
    }

    #[test]
    fn missing_snapshot_sample_defers_instead_of_panicking() {
        // derive a universe, then drop one node's record from the snapshot
        // — the §6 check used to hit `.expect("usable node has sample")`
        let mut snap = snapshot(2, 7);
        let shape = req(8);
        let base = Loads::derive(
            &snap,
            &shape.compute_weights,
            &shape.network_weights,
            shape.ppn,
        )
        .unwrap();
        let gone = *base.usable.last().unwrap();
        snap.nodes.retain(|n| n.node != gone);
        let mut broker = Broker::new(BrokerConfig {
            max_load_per_core: Some(100.0),
            ..BrokerConfig::default()
        });
        broker.submit("wants-both-nodes", req(8)).unwrap();
        let events = broker.tick_with_loads(&base, &snap);
        assert!(
            matches!(&events[0], BrokerEvent::Deferred { reason, .. } if reason.contains("no sample")),
            "expected a deferral naming the missing sample, got {events:?}"
        );
        assert!(broker.running().is_empty());
    }

    #[test]
    fn batched_cycle_derives_at_least_10x_fewer_times() {
        let snap = snapshot(8, 3);
        let derives_for = |mode: SchedMode| {
            let mut broker = Broker::new(BrokerConfig { mode, ..no_defer() });
            for i in 0..40 {
                broker.submit(format!("j{i}"), req(4)).unwrap();
            }
            let obs = Obs::new();
            let g = install(&obs);
            broker.tick(&snap);
            drop(g);
            obs.metrics.counter_value("loads_derive_total")
        };
        let per_job = derives_for(SchedMode::PerJob);
        let batched = derives_for(SchedMode::Batched { max_per_tick: 64 });
        assert!(batched >= 1, "batched tick derives at least once");
        assert!(
            per_job >= 10 * batched,
            "batched cycle must derive ≥10x fewer times per tick: per-job {per_job}, batched {batched}"
        );
    }

    #[test]
    fn reserved_head_starts_under_continuous_small_arrivals() {
        // 4 nodes × 4 ppn = 16 capacity. A 12-proc job runs with a 600 s
        // walltime; a 16-proc head blocks behind it while a small job
        // arrives every minute. Conservative backfill starved the head
        // forever (each small job grabbed the 4 free procs); the head
        // reservation defers them instead.
        let mut snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        let runner = broker
            .submit_opts(
                "runner",
                req(12),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(600)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        broker.tick(&snap);
        let head = broker.submit_at("head-16", req(16), t0).unwrap();
        let mut head_started = false;
        for minute in 1..=12u64 {
            let now = t0 + Duration::from_secs(60 * minute);
            advance(&mut snap, now);
            broker
                .submit_opts(
                    format!("small-{minute}"),
                    req(4),
                    SubmitOptions {
                        walltime: Some(Duration::from_secs(600)),
                        submitted_at: Some(now),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap();
            if minute == 10 {
                // the runner completes on schedule
                broker.complete(runner).unwrap();
            }
            let events = broker.tick(&snap);
            for ev in &events {
                if let BrokerEvent::Started(l) = ev {
                    if l.id == head {
                        head_started = true;
                    }
                    assert!(
                        l.id == head || head_started,
                        "no small job may start while it could delay the reserved head"
                    );
                }
            }
        }
        assert!(head_started, "the reserved head must eventually start");
    }

    #[test]
    fn easy_backfill_rejects_jobs_that_would_outlive_the_shadow() {
        // 12-proc runner with 600 s walltime; 16-proc head blocked. A
        // small job promising 2000 s cannot finish by the shadow time and
        // does not fit the extra capacity (16 - 16 = 0), so it must wait.
        let snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        broker
            .submit_opts(
                "runner",
                req(12),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(600)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        broker.tick(&snap);
        broker.submit_at("head-16", req(16), t0).unwrap();
        let slow = broker
            .submit_opts(
                "slow-small",
                req(4),
                SubmitOptions {
                    walltime: Some(Duration::from_secs(2000)),
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[1], BrokerEvent::Deferred { id, reason }
                if *id == slow && reason.contains("head reservation")),
            "a job outliving the shadow must defer, got {events:?}"
        );
    }

    #[test]
    fn priority_classes_order_the_batch() {
        // 16 capacity, jobs of 8: only two fit. The urgent job submitted
        // last must start; the batch job submitted first must wait.
        let snap = snapshot(4, 5);
        let mut broker = Broker::new(no_defer());
        let batch = broker
            .submit_opts(
                "batch",
                req(8),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let normal = broker.submit("normal", req(8)).unwrap();
        let urgent = broker
            .submit_opts(
                "urgent",
                req(8),
                SubmitOptions {
                    class: PriorityClass::Urgent,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let events = broker.tick(&snap);
        let started: Vec<JobId> = events
            .iter()
            .filter_map(|e| match e {
                BrokerEvent::Started(l) => Some(l.id),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![urgent, normal]);
        assert_eq!(broker.queued(), vec![batch]);
    }

    #[test]
    fn aging_promotes_long_waiters_over_fresh_higher_classes() {
        // a Batch job that has waited 150 s (150 points at the default
        // aging rate) outranks a fresh Normal job (100 points)
        let mut snap = snapshot(4, 5);
        let t0 = snap.taken_at;
        let mut broker = Broker::new(no_defer());
        // fill the cluster so the first tick starts nothing
        let filler = broker.submit_at("filler", req(16), t0).unwrap();
        broker.tick(&snap);
        let old_batch = broker
            .submit_opts(
                "old-batch",
                req(16),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    submitted_at: Some(t0),
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let now = t0 + Duration::from_secs(150);
        advance(&mut snap, now);
        let fresh_normal = broker.submit_at("fresh-normal", req(16), now).unwrap();
        broker.complete(filler);
        let events = broker.tick(&snap);
        assert!(
            matches!(&events[0], BrokerEvent::Started(l) if l.id == old_batch),
            "the aged batch job must outrank the fresh normal one, got {events:?}"
        );
        assert_eq!(broker.queued(), vec![fresh_normal]);
    }

    #[test]
    fn admission_reject_bounds_the_queue() {
        let mut broker = Broker::new(BrokerConfig {
            admission: AdmissionPolicy::Reject { max_queue: 2 },
            ..no_defer()
        });
        let obs = Obs::new();
        let _g = install(&obs);
        broker.submit("a", req(4)).unwrap();
        broker.submit("b", req(4)).unwrap();
        let err = broker.submit("c", req(4)).unwrap_err();
        assert!(matches!(err, AllocError::QueueFull { depth: 2 }));
        assert_eq!(broker.queued().len(), 2);
        assert_eq!(obs.journal.count_of("job_rejected"), 1);
        assert_eq!(obs.metrics.counter_value("broker_jobs_rejected_total"), 1);
    }

    #[test]
    fn admission_shed_evicts_the_lowest_class() {
        let mut broker = Broker::new(BrokerConfig {
            admission: AdmissionPolicy::Shed { max_queue: 2 },
            ..no_defer()
        });
        let obs = Obs::new();
        let _g = install(&obs);
        let low = broker
            .submit_opts(
                "low",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        let keep = broker.submit("keep", req(4)).unwrap();
        let urgent = broker
            .submit_opts(
                "urgent",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Urgent,
                    ..SubmitOptions::default()
                },
            )
            .unwrap();
        assert_eq!(broker.queued(), vec![keep, urgent], "batch job shed");
        assert!(!broker.cancel(low), "shed job is gone");
        assert_eq!(obs.journal.count_of("job_shed"), 1);
        // a newcomer lower than every queued job bounces instead
        let err = broker
            .submit_opts(
                "too-low",
                req(4),
                SubmitOptions {
                    class: PriorityClass::Batch,
                    ..SubmitOptions::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, AllocError::QueueFull { .. }));
    }

    #[test]
    fn traces_follow_the_job_lifecycle() {
        let snap = snapshot(8, 3);
        let now = snap.taken_at;
        let submit = SimTime::from_micros(now.as_micros().saturating_sub(60_000_000));
        let obs = Obs::new();
        let _g = install(&obs);
        let mut broker = Broker::new(no_defer());
        let a = broker.submit_at("traced", req(16), submit).unwrap();
        let events = broker.tick(&snap);
        assert!(matches!(&events[0], BrokerEvent::Started(l)
            if l.trace == a.trace() && l.root_span.is_some()));
        let done = now + Duration::from_secs(100);
        let lease = broker.complete_at(a, done).unwrap();
        assert_eq!(lease.id, a);

        let spans = obs.spans.trace_spans(a.trace());
        let root = spans.iter().find(|s| s.kind == "job").unwrap();
        assert_eq!(root.start, submit);
        assert_eq!(root.end, Some(done));
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind.as_str()).collect();
        for k in ["queue_wait", "scoring", "placement"] {
            assert!(kinds.contains(&k), "missing {k} span in {kinds:?}");
        }
        let wait = spans.iter().find(|s| s.kind == "queue_wait").unwrap();
        assert_eq!(wait.parent, Some(root.id));
        assert_eq!(wait.duration(), now - submit);
        // the span and the histogram tell the same story
        let h = obs
            .metrics
            .histogram_snapshot("broker_job_wait_secs")
            .unwrap();
        assert_eq!(h.sum(), wait.duration().as_secs_f64());
        // every child nests inside the root
        for s in &spans {
            assert!(s.start >= root.start);
            assert!(s.end.unwrap() <= done);
        }
        // critical path tiles the whole trace
        let path = obs.spans.critical_path(a.trace()).unwrap();
        assert_eq!(path.total(), done - submit);
        // alloc events are greppable by trace id
        let granted = &obs.journal.events_of("alloc_granted")[0];
        assert!(granted
            .fields
            .iter()
            .any(|(k, v)| k == "trace" && v == &a.trace().to_string()));
    }

    #[test]
    fn invalid_submission_rejected() {
        let mut broker = Broker::new(no_defer());
        assert!(broker
            .submit("bad", AllocationRequest::new(0, None, 0.5, 0.5))
            .is_err());
    }
}
