//! Landmark-based inter-shard network-load estimation with error bounds.
//!
//! The central monitor measures all `V·(V−1)/2` node pairs. The sharded
//! topology measures pairs exhaustively only *inside* each shard
//! ([`crate::shard`]); across shards it probes a small sample and infers
//! the rest from the tree-topology model, the same idea as sampled
//! supercomputer bandwidth measurement: pick `L = O(log S)` *landmark*
//! shards, measure landmark↔landmark and every-shard↔landmark — that is
//! `O(S log S) = O(V log V)` probes total — and solve for each shard's
//! uplink contribution.
//!
//! Under the tree model a cross-shard path latency is additive in the two
//! shards' uplink contributions, `m(s,t) = u_s + u_t`, and the bandwidth
//! *complement* (peak − available, the congestion the allocator actually
//! scores) adds the same way. With `L ≥ 3` landmarks the landmark clique
//! solves in closed form:
//!
//! ```text
//! S_i = Σ_{j≠i} m(i,j)          row sums of the landmark clique
//! U   = Σ_{i<j} m(i,j) / (L−1)  total uplink mass
//! u_i = (S_i − U) / (L−2)
//! ```
//!
//! A non-landmark shard `s` gets one candidate `m(s,ℓ) − u_ℓ` per landmark;
//! the candidate *spread* (min/max) plus the landmark clique's residual
//! misfit become the per-shard error band. Measured pairs keep their exact
//! value with a zero-width band. When the additive model holds exactly the
//! bands collapse to the true value; the property tests assert
//! `lo ≤ exact ≤ hi` on random tree models.
//!
//! The result is an [`InterEstimate`]: `O(S log S)` state (per-shard bands
//! plus the probed pairs) answering point/lo/hi queries for *any* shard
//! pair, which `Loads::derive_sharded` maps into an
//! `EstimatedNl` whose lower bounds keep Alg. 2's pruning sound.

use crate::codec::{encode, DirectPairRec, MonitorRecord, SwitchBandRec};
use crate::daemons::{BANDWIDTH_PROBE_BYTES, LATENCY_PROBE_BYTES};
use bytes::Bytes;
use nlrm_sim_core::time::SimTime;
use nlrm_topology::NodeId;
use std::collections::HashMap;

pub use nlrm_cluster::PairProbe;

/// Wire cost of one combined probe (latency packet pair + bulk transfer).
pub const PAIR_PROBE_BYTES: u64 = LATENCY_PROBE_BYTES + BANDWIDTH_PROBE_BYTES;

/// A `[lo, point, hi]` interval estimate. `lo ≤ point ≤ hi` always holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Lower bound.
    pub lo: f64,
    /// Best estimate.
    pub point: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Band {
    /// A zero-width band around an exactly known value.
    pub fn exact(v: f64) -> Band {
        Band {
            lo: v,
            point: v,
            hi: v,
        }
    }

    /// Band width (`hi − lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside the band (inclusive, with float slack).
    pub fn contains(&self, v: f64) -> bool {
        let eps = 1e-9 * (1.0 + v.abs());
        self.lo - eps <= v && v <= self.hi + eps
    }

    fn sum(a: Band, b: Band) -> Band {
        Band {
            lo: a.lo + b.lo,
            point: a.point + b.point,
            hi: a.hi + b.hi,
        }
    }

    fn clamped(lo: f64, point: f64, hi: f64) -> Band {
        let point = point.max(0.0);
        Band {
            lo: lo.max(0.0).min(point),
            point,
            hi: hi.max(point),
        }
    }
}

/// Per-shard uplink contribution bands (latency seconds, congestion bits/s)
/// plus the best known peak capacity on the shard's uplink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchBands {
    /// Latency contribution of this shard's uplink, seconds.
    pub lat: Band,
    /// Bandwidth-complement (congestion) contribution, bits/s.
    pub cbw: Band,
    /// Best known peak bandwidth through this shard's uplink, bits/s.
    pub peak_bps: f64,
}

/// An exactly measured cross-shard pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectPair {
    /// Measured latency, seconds.
    pub latency_s: f64,
    /// Measured available bandwidth, bits/s.
    pub avail_bps: f64,
    /// Measured peak bandwidth, bits/s.
    pub peak_bps: f64,
}

/// The sampled inter-shard view: measured pairs exact, everything else
/// inferred from per-shard uplink bands.
#[derive(Debug, Clone, PartialEq)]
pub struct InterEstimate {
    num_switches: usize,
    up: Vec<Option<SwitchBands>>,
    direct: HashMap<(u32, u32), DirectPair>,
    /// Probes issued to build this estimate.
    pub probes: u64,
    /// Probe traffic in bytes.
    pub probe_bytes: u64,
}

fn pair_key(s: u32, t: u32) -> (u32, u32) {
    if s < t {
        (s, t)
    } else {
        (t, s)
    }
}

impl InterEstimate {
    /// An estimate with no data (fewer than two covered shards).
    pub fn empty(num_switches: usize) -> InterEstimate {
        InterEstimate {
            num_switches,
            up: vec![None; num_switches],
            direct: HashMap::new(),
            probes: 0,
            probe_bytes: 0,
        }
    }

    /// Switch-id space bound.
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Whether shard `s` has an uplink estimate (it had a live
    /// representative when the sample was taken).
    pub fn covers(&self, s: u32) -> bool {
        self.up[s as usize].is_some()
    }

    /// Number of exactly measured cross-shard pairs.
    pub fn direct_pairs(&self) -> usize {
        self.direct.len()
    }

    /// Latency band for a cross-shard pair, when both sides are covered.
    /// Measured pairs return a zero-width band.
    pub fn latency_s(&self, s: u32, t: u32) -> Option<Band> {
        debug_assert_ne!(s, t);
        if let Some(d) = self.direct.get(&pair_key(s, t)) {
            return Some(Band::exact(d.latency_s));
        }
        let (a, b) = (self.up[s as usize]?, self.up[t as usize]?);
        Some(Band::sum(a.lat, b.lat))
    }

    /// Bandwidth-complement (peak − available) band for a cross-shard pair.
    pub fn cbw_bps(&self, s: u32, t: u32) -> Option<Band> {
        debug_assert_ne!(s, t);
        if let Some(d) = self.direct.get(&pair_key(s, t)) {
            return Some(Band::exact((d.peak_bps - d.avail_bps).max(0.0)));
        }
        let (a, b) = (self.up[s as usize]?, self.up[t as usize]?);
        Some(Band::sum(a.cbw, b.cbw))
    }

    /// Peak bandwidth estimate for a cross-shard pair (exact for measured
    /// pairs, min of the per-shard peaks otherwise).
    pub fn peak_bps(&self, s: u32, t: u32) -> Option<f64> {
        debug_assert_ne!(s, t);
        if let Some(d) = self.direct.get(&pair_key(s, t)) {
            return Some(d.peak_bps);
        }
        let (a, b) = (self.up[s as usize]?, self.up[t as usize]?);
        Some(a.peak_bps.min(b.peak_bps))
    }

    /// Available-bandwidth point estimate for a cross-shard pair
    /// (`peak − cbw.point`, clamped into `[0, peak]`).
    pub fn avail_bps(&self, s: u32, t: u32) -> Option<f64> {
        let peak = self.peak_bps(s, t)?;
        let cbw = self.cbw_bps(s, t)?;
        Some((peak - cbw.point).clamp(0.0, peak))
    }

    /// Encode as a store record.
    pub fn to_record(&self, epoch: u64, taken_at: SimTime) -> Bytes {
        let mut switches: Vec<SwitchBandRec> = Vec::new();
        for (s, bands) in self.up.iter().enumerate() {
            if let Some(b) = bands {
                switches.push(SwitchBandRec {
                    switch: s as u32,
                    lat_lo: b.lat.lo,
                    lat: b.lat.point,
                    lat_hi: b.lat.hi,
                    cbw_lo: b.cbw.lo,
                    cbw: b.cbw.point,
                    cbw_hi: b.cbw.hi,
                    peak_bps: b.peak_bps,
                });
            }
        }
        let mut direct: Vec<DirectPairRec> = self
            .direct
            .iter()
            .map(|(&(s, t), d)| DirectPairRec {
                s,
                t,
                latency_s: d.latency_s,
                avail_bps: d.avail_bps,
                peak_bps: d.peak_bps,
            })
            .collect();
        direct.sort_by_key(|d| (d.s, d.t));
        encode(&MonitorRecord::InterEstimate {
            epoch,
            taken_at,
            num_switches: self.num_switches as u32,
            probes: self.probes,
            probe_bytes: self.probe_bytes,
            switches,
            direct,
        })
    }

    /// Rebuild from a decoded [`MonitorRecord::InterEstimate`].
    pub fn from_record(record: &MonitorRecord) -> Option<InterEstimate> {
        let MonitorRecord::InterEstimate {
            num_switches,
            probes,
            probe_bytes,
            switches,
            direct,
            ..
        } = record
        else {
            return None;
        };
        let mut est = InterEstimate::empty(*num_switches as usize);
        est.probes = *probes;
        est.probe_bytes = *probe_bytes;
        for s in switches {
            est.up[s.switch as usize] = Some(SwitchBands {
                lat: Band::clamped(s.lat_lo, s.lat, s.lat_hi),
                cbw: Band::clamped(s.cbw_lo, s.cbw, s.cbw_hi),
                peak_bps: s.peak_bps,
            });
        }
        for d in direct {
            est.direct.insert(
                pair_key(d.s, d.t),
                DirectPair {
                    latency_s: d.latency_s,
                    avail_bps: d.avail_bps,
                    peak_bps: d.peak_bps,
                },
            );
        }
        Some(est)
    }
}

/// The landmark sampler: picks landmark shards and turns `O(S log S)`
/// probes into an [`InterEstimate`].
#[derive(Debug, Clone)]
pub struct NlEstimator {
    num_switches: usize,
}

impl NlEstimator {
    /// An estimator over a `num_switches`-shard space.
    pub fn new(num_switches: usize) -> NlEstimator {
        NlEstimator { num_switches }
    }

    /// Landmark count for `covered` reachable shards:
    /// `min(covered, max(3, ⌈log2 covered⌉ + 2))`. The closed-form solve
    /// needs at least 3; tiny clusters just measure everything.
    pub fn landmark_count(covered: usize) -> usize {
        if covered <= 3 {
            return covered;
        }
        let log2 = usize::BITS - (covered - 1).leading_zeros();
        covered.min((log2 as usize + 2).max(3))
    }

    /// Representative node pairs probed per measured switch pair (capped
    /// by shard membership). Averaging a few pairs keeps one unlucky leaf
    /// link from biasing the whole switch-pair estimate.
    pub const REP_PAIRS: usize = 3;

    /// Build the estimate. `members[s]` lists the live nodes of shard `s`
    /// (empty: shard unreachable this round); `probe` measures one node
    /// pair. Each sampled switch pair probes up to [`Self::REP_PAIRS`]
    /// distinct representative pairs and averages them. Probe traffic is
    /// accounted into the `monitor_*` counters.
    pub fn estimate(
        &self,
        members: &[Vec<NodeId>],
        probe: &mut impl FnMut(NodeId, NodeId) -> PairProbe,
    ) -> InterEstimate {
        assert_eq!(members.len(), self.num_switches);
        let covered: Vec<u32> = (0..self.num_switches as u32)
            .filter(|&s| !members[s as usize].is_empty())
            .collect();
        let mut est = InterEstimate::empty(self.num_switches);
        if covered.len() < 2 {
            return est;
        }
        let mut measure = |s: u32, t: u32, est: &mut InterEstimate| -> DirectPair {
            let (ms, mt) = (&members[s as usize], &members[t as usize]);
            let k = Self::REP_PAIRS.min(ms.len()).min(mt.len());
            let mut d = DirectPair {
                latency_s: 0.0,
                avail_bps: 0.0,
                peak_bps: 0.0,
            };
            for i in 0..k {
                // rotate both sides so the k pairs share no endpoint
                let p = probe(ms[i % ms.len()], mt[(i + 1) % mt.len()]);
                est.probes += 1;
                est.probe_bytes += PAIR_PROBE_BYTES;
                d.latency_s += p.latency_s / k as f64;
                d.avail_bps += p.avail_bps / k as f64;
                d.peak_bps = d.peak_bps.max(p.peak_bps);
            }
            est.direct.insert(pair_key(s, t), d);
            d
        };

        let l = Self::landmark_count(covered.len());
        // landmarks spread evenly over the covered shard list: deterministic
        // and topology-stable across rounds
        let landmarks: Vec<u32> = (0..l)
            .map(|i| covered[i * (covered.len() - 1) / (l - 1).max(1)])
            .collect();

        if covered.len() <= l {
            // small cluster: measure every covered pair exactly
            for (i, &s) in covered.iter().enumerate() {
                for &t in &covered[i + 1..] {
                    measure(s, t, &mut est);
                }
            }
        } else {
            // landmark clique + every covered shard against every landmark
            for (i, &s) in landmarks.iter().enumerate() {
                for &t in &landmarks[i + 1..] {
                    measure(s, t, &mut est);
                }
            }
            for &s in &covered {
                if landmarks.contains(&s) {
                    continue;
                }
                for &t in &landmarks {
                    measure(s, t, &mut est);
                }
            }
        }

        // solve the additive model for both metrics
        let lat_up = solve_uplinks(&covered, &landmarks, &est.direct, |d| d.latency_s);
        let cbw_up = solve_uplinks(&covered, &landmarks, &est.direct, |d| {
            (d.peak_bps - d.avail_bps).max(0.0)
        });
        // peak per shard: the best capacity observed through its uplink
        let mut peak = vec![0.0f64; self.num_switches];
        for (&(s, t), d) in &est.direct {
            peak[s as usize] = peak[s as usize].max(d.peak_bps);
            peak[t as usize] = peak[t as usize].max(d.peak_bps);
        }
        for &s in &covered {
            est.up[s as usize] = Some(SwitchBands {
                lat: lat_up[s as usize],
                cbw: cbw_up[s as usize],
                peak_bps: peak[s as usize],
            });
        }
        nlrm_obs::ctx::add("monitor_pair_measurements_total", est.probes);
        nlrm_obs::ctx::add("monitor_probe_bytes_total", est.probe_bytes);
        est
    }
}

/// Solve per-shard uplink contributions from the landmark measurements.
/// Returns a band per shard (indexed by shard id; uncovered shards get a
/// zero band that is never read).
fn solve_uplinks(
    covered: &[u32],
    landmarks: &[u32],
    direct: &HashMap<(u32, u32), DirectPair>,
    metric: impl Fn(&DirectPair) -> f64,
) -> Vec<Band> {
    let n = covered.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
    let mut out = vec![Band::exact(0.0); n];
    let l = landmarks.len();
    let m = |s: u32, t: u32| direct.get(&pair_key(s, t)).map(&metric);
    if l < 3 {
        // no solvable clique (everything was measured directly anyway);
        // leave wide-open bands so derived pairs, if any, stay sound
        for &s in covered {
            out[s as usize] = Band {
                lo: 0.0,
                point: 0.0,
                hi: f64::INFINITY,
            };
        }
        return out;
    }

    // closed-form landmark solve
    let mut total = 0.0;
    let mut row_sum = vec![0.0f64; l];
    for i in 0..l {
        for j in (i + 1)..l {
            let v = m(landmarks[i], landmarks[j]).expect("landmark clique measured");
            total += v;
            row_sum[i] += v;
            row_sum[j] += v;
        }
    }
    let u_total = total / (l as f64 - 1.0);
    let u: Vec<f64> = row_sum
        .iter()
        .map(|&s| ((s - u_total) / (l as f64 - 2.0)).max(0.0))
        .collect();
    // model misfit: the largest residual of the clique under the solved
    // contributions widens every band (zero when the tree model is exact)
    let mut misfit = 0.0f64;
    for i in 0..l {
        for j in (i + 1)..l {
            let v = m(landmarks[i], landmarks[j]).expect("measured");
            misfit = misfit.max((v - u[i] - u[j]).abs());
        }
    }
    for (i, &s) in landmarks.iter().enumerate() {
        out[s as usize] = Band::clamped(u[i] - misfit, u[i], u[i] + misfit);
    }
    for &s in covered {
        if landmarks.contains(&s) {
            continue;
        }
        // one candidate per landmark; spread + misfit is the error band
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (i, &lm) in landmarks.iter().enumerate() {
            let c = (m(s, lm).expect("shard-landmark measured") - u[i]).max(0.0);
            lo = lo.min(c);
            hi = hi.max(c);
            sum += c;
        }
        let point = sum / l as f64;
        out[s as usize] = Band::clamped(lo - misfit, point, hi + misfit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode;

    /// Probes that follow the additive tree model exactly.
    fn tree_probe<'a>(
        lat_up: &'a [f64],
        cbw_up: &'a [f64],
        peak: f64,
        shard_of: &'a dyn Fn(NodeId) -> usize,
    ) -> impl FnMut(NodeId, NodeId) -> PairProbe + 'a {
        move |u, v| {
            let (s, t) = (shard_of(u), shard_of(v));
            let cbw = cbw_up[s] + cbw_up[t];
            PairProbe {
                latency_s: lat_up[s] + lat_up[t],
                avail_bps: (peak - cbw).max(0.0),
                peak_bps: peak,
            }
        }
    }

    fn reps(n: usize) -> Vec<Vec<NodeId>> {
        (0..n).map(|s| vec![NodeId(s as u32 * 100)]).collect()
    }

    #[test]
    fn landmark_count_scales_logarithmically() {
        assert_eq!(NlEstimator::landmark_count(2), 2);
        assert_eq!(NlEstimator::landmark_count(3), 3);
        assert_eq!(NlEstimator::landmark_count(4), 4);
        assert_eq!(NlEstimator::landmark_count(8), 5);
        assert_eq!(NlEstimator::landmark_count(100), 9);
        assert_eq!(NlEstimator::landmark_count(2084), 14);
    }

    #[test]
    fn exact_on_additive_tree_model() {
        let s = 20usize;
        let lat: Vec<f64> = (0..s).map(|i| 1e-4 * (1.0 + i as f64 * 0.37)).collect();
        let cbw: Vec<f64> = (0..s)
            .map(|i| 1e7 * (1.0 + (i as f64 * 1.3) % 5.0))
            .collect();
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        for a in 0..s as u32 {
            for b in (a + 1)..s as u32 {
                let want_lat = lat[a as usize] + lat[b as usize];
                let band = est.latency_s(a, b).unwrap();
                assert!(
                    (band.point - want_lat).abs() < 1e-12,
                    "lat({a},{b}) {} != {want_lat}",
                    band.point
                );
                assert!(band.contains(want_lat));
                let want_cbw = cbw[a as usize] + cbw[b as usize];
                let band = est.cbw_bps(a, b).unwrap();
                assert!((band.point - want_cbw).abs() < 1e-3);
                assert!(band.contains(want_cbw));
                assert_eq!(est.peak_bps(a, b), Some(1e9));
            }
        }
    }

    #[test]
    fn probe_budget_is_s_log_s_not_s_squared() {
        let s = 256usize;
        let lat = vec![1e-4; s];
        let cbw = vec![1e6; s];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        let l = NlEstimator::landmark_count(s);
        let want = (l * (l - 1) / 2 + (s - l) * l) as u64;
        assert_eq!(est.probes, want);
        assert!(
            (est.probes as usize) < s * (s - 1) / 8,
            "sampled probes {} not far below the full {} pairs",
            est.probes,
            s * (s - 1) / 2
        );
    }

    #[test]
    fn small_cluster_measures_all_pairs_exactly() {
        let s = 4usize;
        let lat = [1e-4, 2e-4, 3e-4, 4e-4];
        let cbw = [1e6, 2e6, 3e6, 4e6];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        assert_eq!(est.direct_pairs(), 6, "all pairs measured directly");
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                let band = est.latency_s(a, b).unwrap();
                assert_eq!(band.width(), 0.0, "direct pairs are exact");
            }
        }
    }

    #[test]
    fn uncovered_shards_yield_none() {
        let mut r = reps(6);
        r[2] = vec![];
        let lat = vec![1e-4; 6];
        let cbw = vec![1e6; 6];
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(6).estimate(&r, &mut probe);
        assert!(!est.covers(2));
        assert!(est.latency_s(1, 2).is_none());
        assert!(est.latency_s(0, 3).is_some());
    }

    #[test]
    fn record_roundtrip_preserves_queries() {
        let s = 12usize;
        let lat: Vec<f64> = (0..s).map(|i| 1e-4 + i as f64 * 1e-5).collect();
        let cbw: Vec<f64> = (0..s).map(|i| 1e6 * (1.0 + i as f64)).collect();
        let shard_of = |n: NodeId| (n.0 / 100) as usize;
        let mut probe = tree_probe(&lat, &cbw, 1e9, &shard_of);
        let est = NlEstimator::new(s).estimate(&reps(s), &mut probe);
        let rec = est.to_record(7, SimTime::from_secs(60));
        let back = InterEstimate::from_record(&decode(&rec).unwrap()).unwrap();
        assert_eq!(back, est);
    }
}
