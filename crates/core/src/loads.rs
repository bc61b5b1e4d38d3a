//! Deriving the allocator's inputs from a monitoring snapshot:
//! compute load `CL_v` (Eq. 1), network load `NL_(u,v)` (Eq. 2), and
//! effective processor count `pc_v` (Eq. 3).

use crate::request::AllocError;
use crate::saw::{saw_scores, Column, Criterion};
use crate::scalable::DECISION_SECONDS_BOUNDS;
use crate::tiered::{EstimatedNl, TieredNl};
use crate::weights::{ComputeWeights, NetworkWeights};
use nlrm_monitor::{ClusterSnapshot, InterEstimate, SymMatrix};
use nlrm_sim_core::time::Duration;
use nlrm_sim_core::window::WindowedValue;
use nlrm_topology::{NodeId, SwitchIndex};
use std::sync::Arc;

pub use crate::tiered::NlRep;

/// How load derivation degrades when monitoring data has gone stale
/// (daemons crashed, hung, or their writes were delayed).
///
/// Staleness is judged against the snapshot's own assembly time, so a
/// frozen snapshot stays internally consistent no matter how far reality
/// has moved on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// A node whose newest sample is older than this is dropped from the
    /// usable universe: its compute load is pure fiction.
    pub max_sample_age: Duration,
    /// A pair whose latency or bandwidth row is older than this keeps its
    /// last value but is blended toward the unmeasured penalty.
    pub max_pair_age: Duration,
    /// Blend factor in `[0, 1]`: 0 trusts stale pair values as-is, 1 treats
    /// them as unmeasured. Fresh < stale < unmeasured holds for any value
    /// strictly between.
    pub stale_blend: f64,
}

impl Default for StalenessPolicy {
    /// Conservative defaults sized to the daemon periods: samples survive
    /// 12 missed 5-second publications, pair rows survive 3 missed
    /// 5-minute bandwidth sweeps.
    fn default() -> Self {
        StalenessPolicy {
            max_sample_age: Duration::from_secs(60),
            max_pair_age: Duration::from_secs(900),
            stale_blend: 0.5,
        }
    }
}

impl StalenessPolicy {
    /// Never degrade anything (pre-staleness-awareness behaviour).
    pub fn off() -> Self {
        StalenessPolicy {
            max_sample_age: Duration::MAX,
            max_pair_age: Duration::MAX,
            stale_blend: 0.0,
        }
    }

    fn validate(&self) -> Result<(), AllocError> {
        if !(0.0..=1.0).contains(&self.stale_blend) {
            return Err(AllocError::InvalidRequest(format!(
                "stale_blend must be in [0, 1], got {}",
                self.stale_blend
            )));
        }
        Ok(())
    }
}

/// Everything Algorithms 1–2 need, derived once per allocation.
#[derive(Debug, Clone)]
pub struct Loads {
    /// Usable nodes (live, with fresh samples), ascending id order.
    pub usable: Vec<NodeId>,
    /// Compute load per usable node (parallel to `usable`). Lower is better.
    pub cl: Vec<f64>,
    /// Pairwise network load over the node-id space — dense (exact V×V) or
    /// tiered (exact intra-switch, aggregated inter-switch). Only entries
    /// between usable nodes are meaningful. Lower is better.
    pub nl: NlRep,
    /// Effective processor count per usable node (parallel to `usable`).
    pub pc: Vec<u32>,
    /// Position in `usable` per node id (dense over the id space,
    /// [`NOT_USABLE`] for ids outside the universe).
    pos: Vec<u32>,
    /// Σ CL over the usable universe, cached at construction so per-group
    /// scoring doesn't re-walk the whole universe.
    c_all: f64,
    /// Σ NL over all usable pairs, cached at construction (recomputing it
    /// per `group_cost` call was O(V²) each time).
    n_all: f64,
}

/// [`Loads::pos`] entry of a node id outside the usable universe.
const NOT_USABLE: u32 = u32::MAX;

/// Node id → position in `usable`, dense over the id space.
fn positions(usable: &[NodeId]) -> Vec<u32> {
    let len = usable.iter().map(|n| n.index() + 1).max().unwrap_or(0);
    let mut pos = vec![NOT_USABLE; len];
    for (i, &n) in usable.iter().enumerate() {
        pos[n.index()] = i as u32;
    }
    pos
}

/// Look `node` up in a [`positions`] map.
fn position(pos: &[u32], node: NodeId) -> Option<usize> {
    match pos.get(node.index()) {
        Some(&p) if p != NOT_USABLE => Some(p as usize),
        _ => None,
    }
}

/// Histogram bucket bounds (seconds) for snapshot sample age.
const SAMPLE_AGE_BOUNDS: &[f64] = &[5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0];

/// Representative value of a windowed attribute: the mean of the 1/5/15-min
/// running means. Folding the windows keeps the paper's per-group weights
/// intact while still using all three histories.
fn windowed_rep(w: &WindowedValue) -> f64 {
    (w.m1 + w.m5 + w.m15) / 3.0
}

impl Loads {
    /// Derive loads from a snapshot with the default [`StalenessPolicy`].
    ///
    /// * `ppn` — when given, overrides `pc_v` for every node (paper §3.3.1).
    pub fn derive(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
    ) -> Result<Loads, AllocError> {
        Self::derive_with_policy(
            snap,
            compute_weights,
            network_weights,
            ppn,
            &StalenessPolicy::default(),
        )
    }

    /// Derive loads from a snapshot under an explicit staleness policy:
    /// nodes with over-age samples leave the usable universe, over-age
    /// pair measurements are blended toward the unmeasured penalty.
    pub fn derive_with_policy(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<Loads, AllocError> {
        Self::derive_core(snap, compute_weights, network_weights, ppn, policy)
            .map(|(loads, _)| loads)
    }

    /// The shared derivation body: everything `derive_with_policy` does,
    /// plus the [`NlNorm`] map that turned raw pair metrics into the final
    /// normalized NL values. `derive_sharded` reuses the map to push the
    /// estimator's raw error bands through the *same* normalization, so
    /// the bounds live on the same scale as the point matrix.
    fn derive_core(
        snap: &ClusterSnapshot,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<(Loads, NlNorm), AllocError> {
        compute_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        network_weights
            .validate()
            .map_err(AllocError::InvalidRequest)?;
        policy.validate()?;
        let started = nlrm_obs::ctx::is_active().then(std::time::Instant::now);
        // counted so schedulers can prove how often they pay for the
        // O(V²) matrix build (the broker's batched-cycle test relies on it)
        nlrm_obs::ctx::inc("loads_derive_total");
        let mut usable: Vec<NodeId> = Vec::new();
        let mut excluded = 0usize;
        let observed = nlrm_obs::ctx::is_active();
        for n in snap.usable_nodes() {
            let age = snap.sample_age(n);
            if age.is_some_and(|a| a <= policy.max_sample_age) {
                usable.push(n);
            } else {
                excluded += 1;
                if observed {
                    // over-age (or missing) sample: the node leaves the
                    // universe
                    nlrm_obs::ctx::emit(
                        nlrm_obs::Severity::Warn,
                        snap.taken_at,
                        nlrm_obs::EventKind::StaleNodeExcluded {
                            node: n,
                            age: age.unwrap_or(Duration::MAX),
                        },
                    );
                    nlrm_obs::ctx::inc("loads_stale_node_excluded_total");
                }
            }
        }
        if observed {
            if let Some(age) = snap.max_sample_age() {
                nlrm_obs::ctx::observe(
                    "snapshot_sample_age_secs",
                    SAMPLE_AGE_BOUNDS,
                    age.as_secs_f64(),
                );
            }
            // health inputs: how much of the monitored universe is usable,
            // and what fraction of it was dropped as stale this derivation
            let monitored = usable.len() + excluded;
            nlrm_obs::ctx::set_gauge("loads_usable_nodes", usable.len() as f64);
            nlrm_obs::ctx::set_gauge(
                "loads_stale_fraction",
                if monitored > 0 {
                    excluded as f64 / monitored as f64
                } else {
                    0.0
                },
            );
        }
        if usable.is_empty() {
            return Err(AllocError::NoUsableNodes);
        }
        let infos: Vec<_> = usable
            .iter()
            .map(|&n| snap.info(n).expect("usable implies sample"))
            .collect();
        if observed {
            let mean_load = infos
                .iter()
                .map(|i| windowed_rep(&i.sample.cpu_load))
                .sum::<f64>()
                / infos.len() as f64;
            nlrm_obs::ctx::set_gauge("cluster_mean_cpu_load", mean_load);
        }

        // --- Eq. 1: compute load via SAW over Table 1 attributes ---
        let w = compute_weights;
        let columns = vec![
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.cpu_load))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.cpu_load,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.cpu_util))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.cpu_util,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| windowed_rep(&i.sample.flow_rate_mbps))
                    .collect(),
                criterion: Criterion::Minimize,
                weight: w.flow_rate,
            },
            Column {
                values: infos
                    .iter()
                    .map(|i| {
                        i.sample
                            .available_mem_gb(windowed_rep(&i.sample.mem_used_frac))
                    })
                    .collect(),
                criterion: Criterion::Maximize,
                weight: w.memory,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.cores as f64).collect(),
                criterion: Criterion::Maximize,
                weight: w.core_count,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.freq_ghz).collect(),
                criterion: Criterion::Maximize,
                weight: w.cpu_freq,
            },
            Column {
                values: infos.iter().map(|i| i.sample.spec.total_mem_gb).collect(),
                criterion: Criterion::Maximize,
                weight: w.total_mem,
            },
            Column {
                values: infos.iter().map(|i| i.sample.users as f64).collect(),
                criterion: Criterion::Minimize,
                weight: w.users,
            },
        ];
        let mut cl = saw_scores(&columns);

        // Rescale both loads to mean 1 over their own domains. Sum
        // normalization alone leaves CL ~ 1/V and NL ~ 1/V², so in
        // `A_v(u) = α·CL(u) + β·NL(v,u)` (Algorithm 1) the network term
        // would be a factor V smaller than α/β intends. Rescaling is
        // invariant for every ranking that normalizes per-term anyway
        // (Algorithm 2, group_cost, load-aware ordering) but makes the
        // candidate-generation trade-off mean what the paper's α/β say.
        rescale_to_unit_mean(&mut cl);

        // --- Eq. 2: pairwise network load, rescaled the same way ---
        let pos = positions(&usable);
        let (nl, norm, n_all) = derive_network_load(snap, &usable, network_weights, policy);

        // --- Eq. 3: effective processor count ---
        let pc: Vec<u32> = infos
            .iter()
            .map(|i| match ppn {
                Some(p) => p,
                None => effective_pc(i.sample.spec.cores, i.sample.cpu_load.m1),
            })
            .collect();

        let c_all = cl.iter().sum();
        if let Some(started) = started {
            nlrm_obs::ctx::observe(
                "loads_derive_wall_seconds",
                DECISION_SECONDS_BOUNDS,
                started.elapsed().as_secs_f64(),
            );
        }
        Ok((
            Loads {
                usable,
                cl,
                nl: NlRep::Dense(Arc::new(nl)),
                pc,
                pos,
                c_all,
                n_all,
            },
            norm,
        ))
    }

    /// Derive loads from a *sharded* snapshot whose inter-shard pairs were
    /// filled in by the sampling estimator, keeping the estimator's error
    /// bands attached to the result.
    ///
    /// The point matrix is derived exactly as [`Loads::derive_with_policy`]
    /// would (inter-shard cells carry the estimator's point values, which
    /// the sharded snapshot assembly wrote into the dense matrices), then
    /// collapsed to the tiered form over `index`. The estimator's raw
    /// `[lo, hi]` bands per switch pair are mapped through the same
    /// monotone normalization that produced the point matrix, yielding NL
    /// bounds on the same scale. Switch pairs the estimate does not cover
    /// get the vacuous band `[0, ∞)`, so pruning over the lower bounds
    /// stays sound: [`EstimatedNl::min_incident`] never exceeds the point
    /// answer, and `allocate_pruned` can never discard a candidate the
    /// exhaustive search over this `Loads` would keep.
    pub fn derive_sharded(
        snap: &ClusterSnapshot,
        est: &InterEstimate,
        index: &SwitchIndex,
        compute_weights: &ComputeWeights,
        network_weights: &NetworkWeights,
        ppn: Option<u32>,
        policy: &StalenessPolicy,
    ) -> Result<Loads, AllocError> {
        let (loads, norm) = Self::derive_core(snap, compute_weights, network_weights, ppn, policy)?;
        let dense = match &loads.nl {
            NlRep::Dense(d) => d,
            _ => unreachable!("derive_core always builds a dense matrix"),
        };
        let point = TieredNl::from_dense(dense, &loads.usable, index);
        let (inter_lo, inter_hi) = inter_bands(est, index.num_switches(), &norm, network_weights);
        let nl = NlRep::Estimated(EstimatedNl::new(point, inter_lo, inter_hi));
        Ok(Loads::from_parts(loads.usable, loads.cl, nl, loads.pc))
    }

    /// Assemble a `Loads` from precomputed parts (used by the derivations
    /// and [`Loads::restrict`], and by tests and benches that synthesize
    /// universes directly).
    pub fn from_parts(
        usable: Vec<NodeId>,
        cl: Vec<f64>,
        nl: impl Into<NlRep>,
        pc: Vec<u32>,
    ) -> Loads {
        assert_eq!(usable.len(), cl.len());
        assert_eq!(usable.len(), pc.len());
        let nl = nl.into();
        let pos = positions(&usable);
        let (c_all, n_all) = universe_totals(&usable, &cl, &nl);
        Loads {
            usable,
            cl,
            nl,
            pc,
            pos,
            c_all,
            n_all,
        }
    }

    /// A sub-universe: each usable node's capacity becomes `cap(node, pc)`
    /// and nodes left with 0 capacity drop out. Usable order and the
    /// network-load representation are kept (a dense matrix is shared, not
    /// copied). The universe totals are recomputed when a node drops out,
    /// and reused when none does, since they are sums over the same nodes
    /// in the same order.
    pub fn restrict(&self, cap: impl Fn(NodeId, u32) -> u32) -> Loads {
        let mut usable = Vec::new();
        let mut cl = Vec::new();
        let mut pc = Vec::new();
        for ((&node, &load), &procs) in self.usable.iter().zip(&self.cl).zip(&self.pc) {
            let left = cap(node, procs);
            if left > 0 {
                usable.push(node);
                cl.push(load);
                pc.push(left);
            }
        }
        if usable.len() < self.usable.len() {
            return Loads::from_parts(usable, cl, self.nl.clone(), pc);
        }
        Loads {
            usable,
            cl,
            nl: self.nl.clone(),
            pc,
            pos: self.pos.clone(),
            c_all: self.c_all,
            n_all: self.n_all,
        }
    }

    /// Convert the network-load representation to the tiered form using a
    /// topology's switch assignment: intra-switch pairs keep their exact
    /// values, inter-switch cells aggregate to the per-switch-pair mean.
    /// A no-op when the representation is already tiered.
    pub fn into_tiered(self, index: &SwitchIndex) -> Loads {
        let nl = match self.nl {
            NlRep::Tiered(t) => NlRep::Tiered(t),
            NlRep::Estimated(e) => NlRep::Estimated(e),
            NlRep::Dense(d) => NlRep::Tiered(TieredNl::from_dense(&d, &self.usable, index)),
        };
        Loads::from_parts(self.usable, self.cl, nl, self.pc)
    }

    /// Index of `node` in the usable arrays.
    pub fn index(&self, node: NodeId) -> Option<usize> {
        position(&self.pos, node)
    }

    /// Index of a node that must be usable.
    fn usable_index(&self, node: NodeId) -> usize {
        self.index(node)
            .unwrap_or_else(|| panic!("node {node} is not in the usable universe"))
    }

    /// Compute load of a usable node.
    pub fn cl_of(&self, node: NodeId) -> f64 {
        self.cl[self.usable_index(node)]
    }

    /// Network load between two usable nodes (0 for `u == v`).
    pub fn nl_between(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            0.0
        } else {
            self.nl.get(u, v)
        }
    }

    /// Effective processor count of a usable node.
    pub fn pc_of(&self, node: NodeId) -> u32 {
        self.pc[self.usable_index(node)]
    }

    /// Total processes the usable universe can host.
    pub fn total_capacity(&self) -> u64 {
        self.pc.iter().map(|&p| p as u64).sum()
    }

    /// Σ CL over the whole usable universe (cached at construction).
    pub fn total_compute_load(&self) -> f64 {
        self.c_all
    }

    /// Σ NL over all usable pairs (cached at construction).
    pub fn total_network_load(&self) -> f64 {
        self.n_all
    }
}

/// The universe-wide totals `group_cost` normalizes by: Σ CL and Σ NL over
/// all usable pairs. Computed once per `Loads` construction. The tiered
/// representation sums switch blocks analytically instead of walking V²
/// pairs.
fn universe_totals(usable: &[NodeId], cl: &[f64], nl: &NlRep) -> (f64, f64) {
    (cl.iter().sum(), nl.pair_sum(usable))
}

/// Scale a vector so its mean is 1 (no-op for all-zero input).
fn rescale_to_unit_mean(values: &mut [f64]) {
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    if mean > 0.0 {
        for v in values.iter_mut() {
            *v /= mean;
        }
    }
}

/// The estimator's raw `[lo, hi]` bands per switch pair (`S×S`
/// row-major), mapped through `norm` onto the NL scale. Switch pairs the
/// estimate does not cover get the vacuous band `[0, ∞)`; the diagonal is
/// `[0, 0]`.
fn inter_bands(
    est: &InterEstimate,
    s_count: usize,
    norm: &NlNorm,
    weights: &NetworkWeights,
) -> (Vec<f64>, Vec<f64>) {
    let mut inter_lo = vec![0.0f64; s_count * s_count];
    let mut inter_hi = vec![f64::INFINITY; s_count * s_count];
    for s in 0..s_count {
        let k_diag = s * s_count + s;
        inter_lo[k_diag] = 0.0;
        inter_hi[k_diag] = 0.0;
        for t in (s + 1)..s_count {
            let (su, tu) = (s as u32, t as u32);
            if !est.covers(su) || !est.covers(tu) {
                continue; // vacuous [0, ∞) band
            }
            let (lat, cbw) = match (est.latency_s(su, tu), est.cbw_bps(su, tu)) {
                (Some(l), Some(c)) => (l, c),
                _ => continue,
            };
            let lo = norm.map(weights, lat.lo, cbw.lo);
            let hi = norm.map(weights, lat.hi, cbw.hi);
            inter_lo[s * s_count + t] = lo;
            inter_lo[t * s_count + s] = lo;
            inter_hi[s * s_count + t] = hi;
            inter_hi[t * s_count + s] = hi;
        }
    }
    (inter_lo, inter_hi)
}

/// Eq. 3: `pc_v = coreCount_v − ⌈Load_v⌉ % coreCount_v`, using the 1-minute
/// mean load. The modulo keeps `pc_v` in `[1, coreCount]` even on heavily
/// loaded nodes, exactly as the paper writes it.
pub fn effective_pc(core_count: u32, load_m1: f64) -> u32 {
    assert!(core_count > 0);
    let load = load_m1.max(0.0).ceil() as u32;
    core_count - load % core_count
}

/// The monotone affine map from raw pair metrics — latency in seconds and
/// complement-of-available-bandwidth in bps — to the final normalized NL
/// value that `derive_network_load` plus the unit-mean rescale produce:
/// `NL = (w_lt·lat·lat_scale + w_bw·cbw·cbw_scale) / pair_mean`. Both
/// scales are non-negative, so the map is monotone non-decreasing in each
/// argument: pushing an interval's endpoints through it yields a valid
/// interval for the mapped value. That is what lets `derive_sharded` turn
/// the estimator's raw error bands into sound NL bounds.
#[derive(Debug, Clone, Copy)]
struct NlNorm {
    /// `1 / Σ` of the latency column (0 when the column summed to 0,
    /// matching `normalize_sum`'s all-zero output).
    lat_scale: f64,
    /// `1 / Σ` of the cbw column.
    cbw_scale: f64,
    /// Mean combined NL over usable pairs; filled in by the caller after
    /// the rescale pass. 0 means "no rescale was applied".
    pair_mean: f64,
}

impl NlNorm {
    fn map(&self, weights: &NetworkWeights, lat_raw: f64, cbw_raw: f64) -> f64 {
        if !lat_raw.is_finite() || !cbw_raw.is_finite() {
            return f64::INFINITY;
        }
        let nl = weights.latency * lat_raw * self.lat_scale
            + weights.bandwidth * cbw_raw * self.cbw_scale;
        if self.pair_mean > 0.0 {
            nl / self.pair_mean
        } else {
            nl
        }
    }
}

/// Eq. 2 over all usable pairs, rescaled to unit mean: normalized latency
/// and normalized complement of available bandwidth, combined with
/// `w_lt`/`w_bw`, then divided by their mean over the usable pairs. Pairs
/// whose backing rows have aged past `policy.max_pair_age` are blended
/// toward the unmeasured penalty, so fresh < stale < unmeasured in each
/// column. Returns the matrix (0 outside the usable pairs), the
/// [`NlNorm`] that maps raw pair metrics onto it, and Σ NL over the usable
/// pairs.
///
/// Four passes walk the pairs in `i < j` order: raw columns and their
/// finite maxima; penalty and stale blend, plus the column sums; normalize
/// and combine, plus the pair sum; divide by the pair mean, plus Σ NL.
/// Each value goes through the same float operations, and each sum adds
/// the same values in the same order, as computing one whole column at a
/// time would, so the result is bit-for-bit that of the column-wise
/// formulation. The last pass writes each value into its pair's
/// upper-triangle cell of a zeroed matrix, which is then mirrored.
fn derive_network_load(
    snap: &ClusterSnapshot,
    usable: &[NodeId],
    weights: &NetworkWeights,
    policy: &StalenessPolicy,
) -> (SymMatrix<f64>, NlNorm, f64) {
    let n = snap.latency.len();
    let m = usable.len();
    let pair_count = m * m.saturating_sub(1) / 2;
    let mut norm = NlNorm {
        lat_scale: 0.0,
        cbw_scale: 0.0,
        pair_mean: 0.0,
    };
    if pair_count == 0 {
        return (SymMatrix::new(n, 0.0), norm, 0.0);
    }

    // A pair's value is as fresh as the newer of its endpoints' rows (the
    // row read last overwrote it), so a pair is stale exactly when neither
    // endpoint's row is fresh.
    let fresh = |row_age: &[Option<Duration>]| -> Vec<bool> {
        usable
            .iter()
            .map(|u| row_age[u.index()].is_some_and(|a| a <= policy.max_pair_age))
            .collect()
    };
    let lat_fresh = fresh(&snap.latency_row_age);
    let bw_fresh = fresh(&snap.bandwidth_row_age);

    // pass 1: raw columns and their largest finite values
    let mut lat: Vec<f64> = Vec::with_capacity(pair_count);
    let mut cbw: Vec<f64> = Vec::with_capacity(pair_count);
    let (mut max_lat, mut max_cbw) = (0.0f64, 0.0f64);
    for (i, &u) in usable.iter().enumerate() {
        let lat_row = snap.latency.row(u);
        let avail_row = snap.bandwidth_bps.row(u);
        let peak_row = snap.peak_bandwidth_bps.row(u);
        for &v in &usable[i + 1..] {
            // latency: prefer the 1-minute mean, fall back to the instant
            let st = lat_row[v.index()];
            let l = if st.m1.is_finite() { st.m1 } else { st.instant };
            if l.is_finite() {
                max_lat = max_lat.max(l);
            }
            lat.push(l);
            // complement of available bandwidth: peak − available. A pair
            // never measured is ∞ here and penalized relative to the
            // measured pairs below (an absolute sentinel in bps can rank
            // *better* than a congested measured pair on fast links).
            let peak = peak_row[v.index()];
            let c = if !peak.is_finite() || peak <= 0.0 {
                f64::INFINITY
            } else {
                (peak - avail_row[v.index()]).max(0.0)
            };
            if c.is_finite() {
                max_cbw = max_cbw.max(c);
            }
            cbw.push(c);
        }
    }

    // pass 2: unmeasured pairs (∞) are clamped to a strong finite penalty,
    // 10× the worst measured value, so normalization stays meaningful;
    // stale pairs are blended toward it. The column sums start at -0.0,
    // as `Iterator::sum` does.
    let penalty = |max: f64| if max > 0.0 { max * 10.0 } else { 1.0 };
    let (lat_penalty, cbw_penalty) = (penalty(max_lat), penalty(max_cbw));
    let blend = |x: &mut f64, penalty: f64, fresh: bool| -> bool {
        if !x.is_finite() {
            *x = penalty;
        } else if !fresh {
            *x += policy.stale_blend * (penalty - *x).max(0.0);
            return true;
        }
        false
    };
    let (mut lat_sum, mut cbw_sum) = (-0.0f64, -0.0f64);
    let mut blended_count = 0usize;
    let mut k = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            let lat_blended = blend(&mut lat[k], lat_penalty, lat_fresh[i] || lat_fresh[j]);
            let cbw_blended = blend(&mut cbw[k], cbw_penalty, bw_fresh[i] || bw_fresh[j]);
            blended_count += usize::from(lat_blended || cbw_blended);
            lat_sum += lat[k];
            cbw_sum += cbw[k];
            k += 1;
        }
    }
    if blended_count > 0 && nlrm_obs::ctx::is_active() {
        nlrm_obs::ctx::emit(
            nlrm_obs::Severity::Warn,
            snap.taken_at,
            nlrm_obs::EventKind::StalePairsBlended {
                count: blended_count,
            },
        );
        nlrm_obs::ctx::add("loads_stale_pairs_blended_total", blended_count as u64);
    }

    // pass 3: sum-normalize each column (an all-zero or non-finite column
    // normalizes to zeros, as `saw::normalize_sum` does) and combine; the
    // combined values are written over the latency column
    let usable_sum = |sum: f64| sum > 0.0 && sum.is_finite();
    let (lat_ok, cbw_ok) = (usable_sum(lat_sum), usable_sum(cbw_sum));
    norm.lat_scale = if lat_ok { 1.0 / lat_sum } else { 0.0 };
    norm.cbw_scale = if cbw_ok { 1.0 / cbw_sum } else { 0.0 };
    let mut nl = lat;
    let mut combined_sum = -0.0f64;
    for (x, &c) in nl.iter_mut().zip(&cbw) {
        let lat_n = if lat_ok { *x / lat_sum } else { 0.0 };
        let cbw_n = if cbw_ok { c / cbw_sum } else { 0.0 };
        *x = weights.latency * lat_n + weights.bandwidth * cbw_n;
        combined_sum += *x;
    }
    drop(cbw);
    norm.pair_mean = combined_sum / pair_count as f64;

    // pass 4: unit-mean rescale (skipped for an all-zero matrix) and Σ NL;
    // each value lands in the upper-triangle cell of its pair
    let mut cells = vec![0.0f64; n * n];
    let mut n_all = 0.0;
    let mut k = 0;
    for (i, &u) in usable.iter().enumerate() {
        for &v in &usable[i + 1..] {
            let mut x = nl[k];
            if norm.pair_mean > 0.0 {
                x /= norm.pair_mean;
            }
            n_all += x;
            cells[u.index().min(v.index()) * n + u.index().max(v.index())] = x;
            k += 1;
        }
    }
    drop(nl);
    mirror_upper_triangle(&mut cells, n);
    let matrix = SymMatrix::from_row_major(n, cells);
    (matrix, norm, n_all)
}

/// Copy the strict upper triangle of the row-major `n × n` buffer `cells`
/// into the lower one, a square tile at a time, so both the rows read and
/// the columns written stay in cache.
fn mirror_upper_triangle(cells: &mut [f64], n: usize) {
    const TILE: usize = 32;
    for r0 in (0..n).step_by(TILE) {
        for c0 in (r0..n).step_by(TILE) {
            for r in r0..(r0 + TILE).min(n) {
                for c in (c0.max(r + 1))..(c0 + TILE).min(n) {
                    cells[c * n + r] = cells[r * n + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_monitor::MonitorRuntime;
    use nlrm_sim_core::time::{Duration, SimTime};

    fn snapshot(n: usize, seed: u64) -> ClusterSnapshot {
        let mut cluster = small_cluster(n, seed);
        let mut rt = MonitorRuntime::new(&cluster);
        rt.warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap()
    }

    fn derive(snap: &ClusterSnapshot) -> Loads {
        Loads::derive(
            snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
        )
        .unwrap()
    }

    /// The column-at-a-time Eq. 2 plus unit-mean rescale that
    /// `derive_network_load` fuses, kept as its bit-exact oracle. Returns
    /// the matrix and the normalization map.
    fn reference_network_load(
        snap: &ClusterSnapshot,
        usable: &[NodeId],
        weights: &NetworkWeights,
        policy: &StalenessPolicy,
    ) -> (SymMatrix<f64>, NlNorm) {
        let mut out = SymMatrix::new(snap.latency.len(), 0.0);
        let mut norm = NlNorm {
            lat_scale: 0.0,
            cbw_scale: 0.0,
            pair_mean: 0.0,
        };
        let pairs: Vec<(NodeId, NodeId)> = usable
            .iter()
            .enumerate()
            .flat_map(|(i, &u)| usable[i + 1..].iter().map(move |&v| (u, v)))
            .collect();
        if pairs.is_empty() {
            return (out, norm);
        }
        let mut lat: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| {
                let st = snap.latency.get(u, v);
                if st.m1.is_finite() {
                    st.m1
                } else {
                    st.instant
                }
            })
            .collect();
        let max_finite = lat
            .iter()
            .cloned()
            .filter(|l| l.is_finite())
            .fold(0.0f64, f64::max);
        let penalty = if max_finite > 0.0 {
            max_finite * 10.0
        } else {
            1.0
        };
        for (k, l) in lat.iter_mut().enumerate() {
            if !l.is_finite() {
                *l = penalty;
            } else {
                let (u, v) = pairs[k];
                if snap
                    .latency_age(u, v)
                    .is_none_or(|a| a > policy.max_pair_age)
                {
                    *l += policy.stale_blend * (penalty - *l).max(0.0);
                }
            }
        }
        let mut cbw: Vec<f64> = pairs
            .iter()
            .map(|&(u, v)| {
                let peak = snap.peak_bandwidth_bps.get(u, v);
                let avail = snap.bandwidth_bps.get(u, v);
                if !peak.is_finite() || peak <= 0.0 {
                    return f64::INFINITY;
                }
                (peak - avail).max(0.0)
            })
            .collect();
        let max_cbw = cbw
            .iter()
            .cloned()
            .filter(|c| c.is_finite())
            .fold(0.0f64, f64::max);
        let cbw_penalty = if max_cbw > 0.0 { max_cbw * 10.0 } else { 1.0 };
        for (k, c) in cbw.iter_mut().enumerate() {
            if !c.is_finite() {
                *c = cbw_penalty;
            } else {
                let (u, v) = pairs[k];
                if snap
                    .bandwidth_age(u, v)
                    .is_none_or(|a| a > policy.max_pair_age)
                {
                    *c += policy.stale_blend * (cbw_penalty - *c).max(0.0);
                }
            }
        }
        let lat_n = crate::saw::normalize_sum(&lat);
        let cbw_n = crate::saw::normalize_sum(&cbw);
        let sum_scale = |raw: &[f64]| {
            let s: f64 = raw.iter().sum();
            if s > 0.0 && s.is_finite() {
                1.0 / s
            } else {
                0.0
            }
        };
        norm.lat_scale = sum_scale(&lat);
        norm.cbw_scale = sum_scale(&cbw);
        for (k, &(u, v)) in pairs.iter().enumerate() {
            out.set(
                u,
                v,
                weights.latency * lat_n[k] + weights.bandwidth * cbw_n[k],
            );
        }
        // the unit-mean rescale
        let pair_vals: Vec<f64> = pairs.iter().map(|&(u, v)| out.get(u, v)).collect();
        let pair_mean = pair_vals.iter().sum::<f64>() / pair_vals.len() as f64;
        if pair_mean > 0.0 {
            for &(u, v) in &pairs {
                let scaled = out.get(u, v) / pair_mean;
                out.set(u, v, scaled);
            }
        }
        norm.pair_mean = pair_mean;
        (out, norm)
    }

    /// Perturb a warmed snapshot from `seed`: every row age is fresh, on
    /// the `max_pair_age` boundary, stale or missing; some pairs were never
    /// measured (∞ latency or 0 peak bandwidth); and some nodes' samples
    /// are too old, so the usable ids come out sparse.
    fn perturb(snap: &mut ClusterSnapshot, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let policy = StalenessPolicy::default();
        let n = snap.latency.len();
        let ages = [
            None,
            Some(Duration::from_secs(0)),
            Some(policy.max_pair_age),
            Some(Duration::from_secs(
                policy.max_pair_age.as_micros() / 1_000_000 + 1,
            )),
            Some(Duration::from_secs(5000)),
        ];
        for i in 0..n {
            snap.latency_row_age[i] = ages[rng.gen_range(0..ages.len())];
            snap.bandwidth_row_age[i] = ages[rng.gen_range(0..ages.len())];
        }
        for info in &mut snap.nodes {
            if rng.gen_bool(0.2) {
                info.sample.taken_at = SimTime::from_micros(
                    snap.taken_at.as_micros() - policy.max_sample_age.as_micros() - 1,
                );
            }
        }
        for _ in 0..n {
            let u = NodeId(rng.gen_range(0..n as u32));
            let v = NodeId(rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            if rng.gen_bool(0.5) {
                snap.latency
                    .set(u, v, nlrm_monitor::LatencyStat::constant(f64::INFINITY));
            } else {
                snap.peak_bandwidth_bps.set(u, v, 0.0);
            }
        }
    }

    fn assert_bits_eq(got: f64, want: f64, what: &str) {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
    }

    fn dense(loads: &Loads) -> &Arc<SymMatrix<f64>> {
        match &loads.nl {
            NlRep::Dense(m) => m,
            _ => panic!("expected a dense network load"),
        }
    }

    #[test]
    fn fused_derive_is_bit_identical_to_the_column_wise_oracle() {
        let weight_sets = [
            NetworkWeights::paper_default(),
            NetworkWeights {
                latency: 1.0,
                bandwidth: 0.0,
            },
            NetworkWeights {
                latency: 0.0,
                bandwidth: 1.0,
            },
        ];
        let policies = [
            StalenessPolicy::default(),
            StalenessPolicy::off(),
            StalenessPolicy {
                stale_blend: 1.0,
                ..StalenessPolicy::default()
            },
        ];
        let mut sparse_cases = 0;
        for seed in 0..12u64 {
            let mut snap = snapshot(12, seed);
            perturb(&mut snap, seed);
            for weights in &weight_sets {
                for policy in &policies {
                    let Ok((loads, norm)) = Loads::derive_core(
                        &snap,
                        &ComputeWeights::paper_default(),
                        weights,
                        None,
                        policy,
                    ) else {
                        continue;
                    };
                    if loads.usable.len() < snap.nodes.len() {
                        sparse_cases += 1;
                    }
                    let (want, want_norm) =
                        reference_network_load(&snap, &loads.usable, weights, policy);
                    let got = dense(&loads);
                    let n = snap.latency.len();
                    for u in 0..n as u32 {
                        for v in 0..n as u32 {
                            let (u, v) = (NodeId(u), NodeId(v));
                            assert_bits_eq(got.get(u, v), want.get(u, v), "NL cell");
                        }
                    }
                    assert_bits_eq(norm.lat_scale, want_norm.lat_scale, "lat_scale");
                    assert_bits_eq(norm.cbw_scale, want_norm.cbw_scale, "cbw_scale");
                    assert_bits_eq(norm.pair_mean, want_norm.pair_mean, "pair_mean");
                    // the totals the generic constructor computes from the
                    // oracle's parts
                    let oracle = Loads::from_parts(
                        loads.usable.clone(),
                        loads.cl.clone(),
                        want,
                        loads.pc.clone(),
                    );
                    assert_eq!(loads.cl, oracle.cl);
                    assert_bits_eq(
                        loads.total_compute_load(),
                        oracle.total_compute_load(),
                        "total_compute_load",
                    );
                    assert_bits_eq(
                        loads.total_network_load(),
                        oracle.total_network_load(),
                        "total_network_load",
                    );
                }
            }
        }
        assert!(sparse_cases > 0, "no case excluded a stale node");
    }

    #[test]
    fn fused_derive_matches_the_oracle_on_nodes_out_of_id_order() {
        // a hand-built snapshot may list its nodes in any order; the usable
        // order then runs against the ids, and each pair's value must still
        // land in both of its cells
        let mut snap = snapshot(12, 3);
        perturb(&mut snap, 3);
        snap.nodes.reverse();
        let weights = NetworkWeights::paper_default();
        let policy = StalenessPolicy::default();
        let (loads, norm) = Loads::derive_core(
            &snap,
            &ComputeWeights::paper_default(),
            &weights,
            None,
            &policy,
        )
        .unwrap();
        assert!(loads.usable.windows(2).all(|w| w[0] > w[1]));
        let (want, want_norm) = reference_network_load(&snap, &loads.usable, &weights, &policy);
        let got = dense(&loads);
        let n = snap.latency.len() as u32;
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId(u), NodeId(v));
                assert_bits_eq(got.get(u, v), want.get(u, v), "NL cell");
            }
        }
        assert_bits_eq(norm.pair_mean, want_norm.pair_mean, "pair_mean");
    }

    #[test]
    fn fused_derive_keeps_the_sharded_bounds_bit_identical() {
        use nlrm_monitor::daemons::DaemonConfig;
        use nlrm_monitor::{MonitorTopo, ShardConfig};
        let mut cluster = nlrm_cluster::iitk::iitk_cluster(11);
        let index = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(index.clone())),
        );
        let mut snap = rt
            .warm_snapshot(&mut cluster, Duration::from_secs(360))
            .unwrap();
        perturb(&mut snap, 5);
        let est = rt
            .inter_estimate()
            .expect("sharded run publishes an estimate");
        let policy = StalenessPolicy::default();
        for weights in [
            NetworkWeights::paper_default(),
            NetworkWeights {
                latency: 1.0,
                bandwidth: 0.0,
            },
            NetworkWeights {
                latency: 0.0,
                bandwidth: 1.0,
            },
        ] {
            let loads = Loads::derive_sharded(
                &snap,
                &est,
                &index,
                &ComputeWeights::paper_default(),
                &weights,
                Some(4),
                &policy,
            )
            .unwrap();
            let (matrix, norm) = reference_network_load(&snap, &loads.usable, &weights, &policy);
            let (lo, hi) = inter_bands(&est, index.num_switches(), &norm, &weights);
            let want =
                EstimatedNl::new(TieredNl::from_dense(&matrix, &loads.usable, &index), lo, hi);
            let NlRep::Estimated(got) = &loads.nl else {
                panic!("derive_sharded must attach bounds");
            };
            for (i, &u) in loads.usable.iter().enumerate() {
                for &v in &loads.usable[i + 1..] {
                    let (g, w) = (got.bounds(u, v), want.bounds(u, v));
                    assert_bits_eq(g.0, w.0, "inter_lo");
                    assert_bits_eq(g.1, w.1, "inter_hi");
                    assert_bits_eq(got.get(u, v), want.get(u, v), "point");
                }
            }
        }
    }

    #[test]
    fn each_derive_records_its_wall_time() {
        let snap = snapshot(6, 3);
        let obs = nlrm_obs::Obs::new();
        let _guard = nlrm_obs::ctx::install(&obs);
        let count = || {
            obs.metrics
                .histogram_snapshot("loads_derive_wall_seconds")
                .map_or(0, |h| h.count())
        };
        assert_eq!(count(), 0);
        derive(&snap);
        assert_eq!(count(), 1);
        derive(&snap);
        assert_eq!(count(), 2);
    }

    #[test]
    fn effective_pc_matches_equation3() {
        // zero load: all cores
        assert_eq!(effective_pc(8, 0.0), 8);
        // load 1 → 8 − 1 = 7
        assert_eq!(effective_pc(8, 0.2), 7);
        // load 8 → 8 − (8 % 8) = 8 (the paper's modulo wraps)
        assert_eq!(effective_pc(8, 7.5), 8);
        // load 9 → 8 − 1 = 7
        assert_eq!(effective_pc(8, 8.5), 7);
        // 12-core node under load 3
        assert_eq!(effective_pc(12, 2.4), 9);
    }

    #[test]
    fn restrict_drops_zero_capacity_nodes_and_keeps_order() {
        let full = derive(&snapshot(8, 3));
        // odd ids lose everything, even ids keep one process less
        let sub = full.restrict(|n, pc| if n.0 % 2 == 1 { 0 } else { pc - 1 });
        let kept: Vec<NodeId> = full
            .usable
            .iter()
            .copied()
            .filter(|n| n.0 % 2 == 0)
            .collect();
        assert_eq!(sub.usable, kept);
        for &n in &sub.usable {
            assert_eq!(sub.pc_of(n), full.pc_of(n) - 1);
            assert_eq!(sub.cl_of(n), full.cl_of(n));
        }
        let rebuilt = Loads::from_parts(
            kept.clone(),
            kept.iter().map(|&n| full.cl_of(n)).collect(),
            full.nl.clone(),
            kept.iter().map(|&n| full.pc_of(n) - 1).collect(),
        );
        assert_eq!(sub.total_compute_load(), rebuilt.total_compute_load());
        assert_eq!(sub.total_network_load(), rebuilt.total_network_load());
        // the identity cap rebuilds the same universe, with the same totals
        let same = full.restrict(|_, pc| pc);
        assert_eq!(same.usable, full.usable);
        assert_eq!(same.pc, full.pc);
        assert_eq!(same.total_compute_load(), full.total_compute_load());
        assert_eq!(same.total_network_load(), full.total_network_load());
        // either way the dense matrix is shared, not copied
        assert!(Arc::ptr_eq(dense(&sub), dense(&full)));
        assert!(Arc::ptr_eq(dense(&same), dense(&full)));
    }

    #[test]
    fn derive_produces_consistent_shapes() {
        let snap = snapshot(6, 3);
        let loads = derive(&snap);
        assert_eq!(loads.usable.len(), 6);
        assert_eq!(loads.cl.len(), 6);
        assert_eq!(loads.pc, vec![4; 6]);
        assert_eq!(loads.total_capacity(), 24);
    }

    #[test]
    fn compute_load_is_nonnegative_and_discriminates() {
        let snap = snapshot(8, 5);
        let loads = derive(&snap);
        assert!(loads.cl.iter().all(|&c| c >= 0.0 && c.is_finite()));
        // a shared-lab cluster is heterogeneous: loads must differ
        let min = loads.cl.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = loads.cl.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "all CL equal: {:?}", loads.cl);
    }

    #[test]
    fn network_load_is_symmetric_and_nonnegative() {
        let snap = snapshot(6, 7);
        let loads = derive(&snap);
        for (i, &u) in loads.usable.iter().enumerate() {
            for &v in &loads.usable[i + 1..] {
                let nl = loads.nl_between(u, v);
                assert!(nl >= 0.0, "nl({u},{v}) = {nl}");
                assert_eq!(loads.nl_between(u, v), loads.nl_between(v, u));
            }
        }
        assert_eq!(loads.nl_between(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn without_ppn_pc_follows_load() {
        let snap = snapshot(6, 3);
        let loads = Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            None,
        )
        .unwrap();
        for (i, &node) in loads.usable.iter().enumerate() {
            let info = snap.info(node).unwrap();
            assert_eq!(
                loads.pc[i],
                effective_pc(info.sample.spec.cores, info.sample.cpu_load.m1)
            );
        }
    }

    #[test]
    fn congested_pair_has_higher_network_load() {
        let snap = snapshot(6, 11);
        let loads = derive(&snap);
        // find the pair with min available bandwidth and compare with max
        let mut worst = (NodeId(0), NodeId(1));
        let mut best = (NodeId(0), NodeId(1));
        for (u, v, bw) in snap.bandwidth_bps.pairs() {
            if bw < snap.bandwidth_bps.get(worst.0, worst.1) {
                worst = (u, v);
            }
            if bw > snap.bandwidth_bps.get(best.0, best.1) {
                best = (u, v);
            }
        }
        assert!(
            loads.nl_between(worst.0, worst.1) >= loads.nl_between(best.0, best.1),
            "NL should rank congested pairs worse"
        );
    }

    #[test]
    fn unmeasured_bandwidth_ranks_worse_than_any_measured_pair() {
        // Regression: the unmeasured sentinel used to be an absolute
        // 1e9 bps, so on fast links a congested *measured* pair (complement
        // 99 Gbps here) ranked worse than a pair we know nothing about.
        let mut snap = snapshot(6, 13);
        snap.peak_bandwidth_bps.set(NodeId(2), NodeId(3), 100e9);
        snap.bandwidth_bps.set(NodeId(2), NodeId(3), 1e9);
        // a never-measured pair (daemons publish 0.0 until first probe)
        snap.peak_bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
        snap.bandwidth_bps.set(NodeId(0), NodeId(1), 0.0);
        let loads = Loads::derive(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights {
                latency: 0.0,
                bandwidth: 1.0,
            },
            Some(4),
        )
        .unwrap();
        let unmeasured = loads.nl_between(NodeId(0), NodeId(1));
        for (u, v, _) in snap.bandwidth_bps.pairs() {
            if (u, v) != (NodeId(0), NodeId(1)) {
                assert!(
                    unmeasured > loads.nl_between(u, v),
                    "unmeasured pair must rank worse than measured ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn stale_nodes_are_excluded_at_the_boundary() {
        let mut snap = snapshot(6, 3);
        let policy = StalenessPolicy::default();
        // node 2's sampler went silent: its sample ages past the bound
        snap.nodes[2].sample.taken_at =
            SimTime::from_micros(snap.taken_at.as_micros() - policy.max_sample_age.as_micros() - 1);
        // node 3 sits exactly on the bound: still usable (inclusive)
        snap.nodes[3].sample.taken_at =
            SimTime::from_micros(snap.taken_at.as_micros() - policy.max_sample_age.as_micros());
        let loads = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &policy,
        )
        .unwrap();
        assert!(!loads.usable.contains(&NodeId(2)), "over-age node kept");
        assert!(loads.usable.contains(&NodeId(3)), "boundary node dropped");
        assert_eq!(loads.usable.len(), 5);
        // the permissive policy keeps everything
        let all = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &StalenessPolicy::off(),
        )
        .unwrap();
        assert_eq!(all.usable.len(), 6);
    }

    #[test]
    fn stale_pairs_rank_between_fresh_and_unmeasured() {
        let mut snap = snapshot(6, 7);
        // pair (0,1): never measured
        snap.latency.set(
            NodeId(0),
            NodeId(1),
            nlrm_monitor::LatencyStat::constant(f64::INFINITY),
        );
        // pair (2,3): measured, but both endpoints' rows have gone stale
        snap.latency_row_age[2] = Some(Duration::from_secs(2000));
        snap.latency_row_age[3] = Some(Duration::from_secs(2000));
        let loads = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights {
                latency: 1.0,
                bandwidth: 0.0,
            },
            Some(4),
            &StalenessPolicy::default(),
        )
        .unwrap();
        let unmeasured = loads.nl_between(NodeId(0), NodeId(1));
        let stale = loads.nl_between(NodeId(2), NodeId(3));
        let fresh = loads.nl_between(NodeId(4), NodeId(5));
        assert!(
            fresh < stale,
            "stale pair should be penalized: fresh={fresh} stale={stale}"
        );
        assert!(
            stale < unmeasured,
            "stale pair still beats unmeasured: stale={stale} unmeasured={unmeasured}"
        );
    }

    #[test]
    fn default_policy_is_transparent_for_fresh_snapshots() {
        let snap = snapshot(6, 5);
        let a = derive(&snap);
        let b = Loads::derive_with_policy(
            &snap,
            &ComputeWeights::paper_default(),
            &NetworkWeights::paper_default(),
            Some(4),
            &StalenessPolicy::off(),
        )
        .unwrap();
        assert_eq!(a.usable, b.usable);
        assert_eq!(a.cl, b.cl);
        for (i, &u) in a.usable.iter().enumerate() {
            for &v in &a.usable[i + 1..] {
                assert_eq!(a.nl_between(u, v), b.nl_between(u, v));
            }
        }
    }

    #[test]
    fn invalid_blend_rejected() {
        let snap = snapshot(4, 3);
        let policy = StalenessPolicy {
            stale_blend: 1.5,
            ..StalenessPolicy::default()
        };
        assert!(matches!(
            Loads::derive_with_policy(
                &snap,
                &ComputeWeights::paper_default(),
                &NetworkWeights::paper_default(),
                Some(4),
                &policy,
            ),
            Err(AllocError::InvalidRequest(_))
        ));
    }

    #[test]
    fn bad_weights_rejected() {
        let snap = snapshot(4, 3);
        let mut w = ComputeWeights::paper_default();
        w.cpu_load = 0.9;
        assert!(matches!(
            Loads::derive(&snap, &w, &NetworkWeights::paper_default(), Some(4)),
            Err(AllocError::InvalidRequest(_))
        ));
    }
}
