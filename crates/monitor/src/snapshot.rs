//! Cluster snapshots: the allocator's only view of the world.
//!
//! A [`ClusterSnapshot`] is assembled **exclusively from store records** —
//! the same way the paper's Node Allocator reads the files the daemons wrote
//! to NFS. If a daemon lagged or died, the snapshot is stale or partial, and
//! the allocator decides with exactly that imperfect information.

use crate::codec::{decode, CodecError, MonitorRecord};
use crate::estimate::InterEstimate;
use crate::matrix::SymMatrix;
use crate::sample::{LatencyStat, NodeSample};
use crate::store::{paths, SharedStore};
use nlrm_sim_core::time::{Duration, SimTime};
use nlrm_topology::NodeId;
use std::fmt;

/// One node's monitored information.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Node id.
    pub node: NodeId,
    /// Latest published sample.
    pub sample: NodeSample,
    /// Whether the node appeared in the latest livehosts sweep.
    pub live: bool,
}

/// A consistent view of the cluster assembled from the shared store.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Virtual time the snapshot was assembled.
    pub taken_at: SimTime,
    /// Per-node info for every node that has ever published a sample,
    /// indexed positionally by node id (missing nodes are absent).
    pub nodes: Vec<NodeInfo>,
    /// Pairwise latency stats. Diagonal is 0; unmeasured pairs are +∞.
    pub latency: SymMatrix<LatencyStat>,
    /// Pairwise instantaneous available bandwidth, bits/s. Diagonal +∞,
    /// unmeasured pairs 0.
    pub bandwidth_bps: SymMatrix<f64>,
    /// Pairwise peak bandwidth, bits/s.
    pub peak_bandwidth_bps: SymMatrix<f64>,
    /// Age of each node's latency row at assembly time (`None`: the node
    /// never published one). A delayed or hung prober shows up here.
    pub latency_row_age: Vec<Option<Duration>>,
    /// Age of each node's bandwidth row at assembly time.
    pub bandwidth_row_age: Vec<Option<Duration>>,
}

/// Snapshot assembly failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Livehosts record missing: monitoring has never run.
    NoLivehosts,
    /// A record failed to decode (corrupt store).
    Corrupt(String, CodecError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NoLivehosts => write!(f, "no livehosts record in store"),
            SnapshotError::Corrupt(path, e) => write!(f, "corrupt record at {path}: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Node infos from the livehosts + nodestate records, shared by the central
/// and sharded assemblers.
fn read_nodes(store: &SharedStore, n: usize) -> Result<Vec<NodeInfo>, SnapshotError> {
    let mut live = vec![false; n];
    for node in read_livehosts(store)? {
        if let Some(slot) = live.get_mut(node.index()) {
            *slot = true;
        }
    }
    let mut nodes = Vec::new();
    for (i, &live) in live.iter().enumerate() {
        let node = NodeId(i as u32);
        let path = paths::node_state(node);
        let Some(rec) = store.get(&path) else {
            continue;
        };
        match decode(&rec.data) {
            Ok(MonitorRecord::Sample(sample)) => nodes.push(NodeInfo { node, sample, live }),
            Ok(_) => return Err(SnapshotError::Corrupt(path, CodecError::BadTag(0))),
            Err(e) => return Err(SnapshotError::Corrupt(path, e)),
        }
    }
    Ok(nodes)
}

/// Pair matrices at the unmeasured-pair conventions: latency 0 on the
/// diagonal and +∞ off it, bandwidths +∞ on the diagonal and 0 off it.
fn unmeasured_matrices(n: usize) -> (SymMatrix<LatencyStat>, SymMatrix<f64>, SymMatrix<f64>) {
    let mut latency = SymMatrix::new(n, LatencyStat::constant(f64::INFINITY));
    let mut bandwidth = SymMatrix::new(n, 0.0f64);
    let mut peak = SymMatrix::new(n, 0.0f64);
    for i in 0..n {
        let node = NodeId(i as u32);
        latency.set(node, node, LatencyStat::constant(0.0));
        bandwidth.set(node, node, f64::INFINITY);
        peak.set(node, node, f64::INFINITY);
    }
    (latency, bandwidth, peak)
}

/// One decoded `shard/` record.
struct ShardRecord {
    shard: u32,
    members: Vec<NodeId>,
    lat_s: Vec<f64>,
    avail_bps: Vec<f64>,
    peak_bps: Vec<f64>,
    age: Duration,
}

impl ShardRecord {
    /// Index of the member pair `(i, j)`, `i < j`, in the packed upper
    /// triangle the record stores.
    fn tri(&self, i: usize, j: usize) -> usize {
        let m = self.members.len();
        i * (2 * m - i - 1) / 2 + j - i - 1
    }
}

/// Every `shard/` record, in store listing order.
fn read_shards(store: &SharedStore, now: SimTime) -> Result<Vec<ShardRecord>, SnapshotError> {
    let mut shards = Vec::new();
    for path in store.list_prefix("shard/") {
        let Some(rec) = store.get(&path) else {
            continue;
        };
        match decode(&rec.data) {
            Ok(MonitorRecord::ShardNl {
                shard,
                members,
                lat_s,
                avail_bps,
                peak_bps,
                ..
            }) => shards.push(ShardRecord {
                shard,
                members,
                lat_s,
                avail_bps,
                peak_bps,
                age: now.since(rec.written_at),
            }),
            Ok(_) => return Err(SnapshotError::Corrupt(path, CodecError::BadTag(0))),
            Err(e) => return Err(SnapshotError::Corrupt(path, e)),
        }
    }
    Ok(shards)
}

/// The inter-shard estimate record and its age, if one was published.
fn read_estimate(
    store: &SharedStore,
    now: SimTime,
) -> Result<(Option<InterEstimate>, Option<Duration>), SnapshotError> {
    let Some(rec) = store.get(paths::INTER_ESTIMATE) else {
        return Ok((None, None));
    };
    let age = Some(now.since(rec.written_at));
    match decode(&rec.data) {
        Ok(r @ MonitorRecord::InterEstimate { .. }) => Ok((InterEstimate::from_record(&r), age)),
        Ok(_) => Err(SnapshotError::Corrupt(
            paths::INTER_ESTIMATE.into(),
            CodecError::BadTag(0),
        )),
        Err(e) => Err(SnapshotError::Corrupt(paths::INTER_ESTIMATE.into(), e)),
    }
}

/// [`ClusterSnapshot::assemble_sharded`]'s home of a node no shard record
/// lists.
const NO_SHARD: usize = usize::MAX;

/// One pair matrix of a sharded snapshot, built row by row.
///
/// `home[v]` is node `v`'s `(shard record, member index)`. Each record
/// gets one template row: every column holds the cross value between the
/// record and the column's home record (`cross(a, b)`, `None` when the
/// estimate does not cover the pair), or `unmeasured` for a column with no
/// home. A member's row copies its record's template, then takes the
/// record's packed values (`intra(record, packed index)`) in the columns
/// of the members that call the record home, and `diagonal` on its own
/// column. A node with no home gets the unmeasured row. Both endpoints of
/// a pair read the same value, so the matrix is symmetric.
fn sharded_matrix<T: Copy>(
    shards: &[ShardRecord],
    home: &[(usize, usize)],
    diagonal: T,
    unmeasured: T,
    cross: impl Fn(usize, usize) -> Option<T>,
    intra: impl Fn(&ShardRecord, usize) -> T,
) -> SymMatrix<T> {
    let n = home.len();
    let templates: Vec<Vec<T>> = (0..shards.len())
        .map(|k| {
            home.iter()
                .map(|&(kv, _)| match kv {
                    NO_SHARD => unmeasured,
                    kv if kv == k => unmeasured,
                    kv => cross(k, kv).unwrap_or(unmeasured),
                })
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(n * n);
    for (u, &(k, i)) in home.iter().enumerate() {
        let start = data.len();
        if k == NO_SHARD {
            data.resize(start + n, unmeasured);
        } else {
            data.extend_from_slice(&templates[k]);
            let row = &mut data[start..];
            let rec = &shards[k];
            for (j, &v) in rec.members.iter().enumerate() {
                if j != i && home.get(v.index()) == Some(&(k, j)) {
                    row[v.index()] = intra(rec, rec.tri(i.min(j), i.max(j)));
                }
            }
        }
        data[start + u] = diagonal;
    }
    SymMatrix::from_row_major(n, data)
}

impl ClusterSnapshot {
    /// Assemble a snapshot for an `n`-node cluster from the store.
    pub fn assemble(store: &SharedStore, n: usize, now: SimTime) -> Result<Self, SnapshotError> {
        let nodes = read_nodes(store, n)?;
        let (mut latency, mut bandwidth, mut peak) = unmeasured_matrices(n);

        let mut latency_row_age = vec![None; n];
        let mut bandwidth_row_age = vec![None; n];
        for i in 0..n {
            let node = NodeId(i as u32);
            if let Some(rec) = store.get(&paths::latency_row(node)) {
                latency_row_age[i] = Some(now.since(rec.written_at));
                match decode(&rec.data) {
                    Ok(MonitorRecord::LatencyRow { node: u, stats }) => {
                        for (v, st) in stats.iter().enumerate().take(n) {
                            if v != u.index() {
                                latency.set(u, NodeId(v as u32), *st);
                            }
                        }
                    }
                    Ok(_) => {
                        return Err(SnapshotError::Corrupt(
                            paths::latency_row(node),
                            CodecError::BadTag(0),
                        ))
                    }
                    Err(e) => return Err(SnapshotError::Corrupt(paths::latency_row(node), e)),
                }
            }
            if let Some(rec) = store.get(&paths::bandwidth_row(node)) {
                bandwidth_row_age[i] = Some(now.since(rec.written_at));
                match decode(&rec.data) {
                    Ok(MonitorRecord::BandwidthRow {
                        node: u,
                        avail_bps,
                        peak_bps,
                    }) => {
                        for v in 0..n.min(avail_bps.len()) {
                            if v != u.index() {
                                bandwidth.set(u, NodeId(v as u32), avail_bps[v]);
                                peak.set(u, NodeId(v as u32), peak_bps[v]);
                            }
                        }
                    }
                    Ok(_) => {
                        return Err(SnapshotError::Corrupt(
                            paths::bandwidth_row(node),
                            CodecError::BadTag(0),
                        ))
                    }
                    Err(e) => return Err(SnapshotError::Corrupt(paths::bandwidth_row(node), e)),
                }
            }
        }

        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            latency,
            bandwidth_bps: bandwidth,
            peak_bandwidth_bps: peak,
            latency_row_age,
            bandwidth_row_age,
        })
    }

    /// Assemble a snapshot from *sharded* monitor records: intra-shard
    /// pairs come exact from the per-shard `ShardNl` matrices, cross-shard
    /// pairs from the sampled [`InterEstimate`] point values.
    /// Livehosts/nodestate handling and the matrix
    /// conventions are identical to [`ClusterSnapshot::assemble`], so the
    /// allocator consumes either transparently.
    ///
    /// Row ages are conservative: a member's rows are as old as the *older*
    /// of its shard record and the estimate record, so the staleness policy
    /// never treats inferred data as fresher than its inputs.
    ///
    /// Each matrix is written once, row by row: every node is mapped to
    /// its (shard record, member index), the cross-shard values are looked
    /// up per pair of shard records, and each member's row is a copy of
    /// its record's template row with the intra-shard columns patched in.
    /// Shards partition the nodes; a node listed by several records
    /// belongs to the last one listed.
    pub fn assemble_sharded(
        store: &SharedStore,
        n: usize,
        now: SimTime,
    ) -> Result<Self, SnapshotError> {
        let nodes = read_nodes(store, n)?;
        let shards = read_shards(store, now)?;
        let (est, est_age) = read_estimate(store, now)?;

        let mut home = vec![(NO_SHARD, 0usize); n];
        let mut latency_row_age = vec![None; n];
        let mut bandwidth_row_age = vec![None; n];
        for (k, rec) in shards.iter().enumerate() {
            let worst = match est_age {
                Some(e) => rec.age.max(e),
                None => rec.age,
            };
            for (i, &u) in rec.members.iter().enumerate() {
                if u.index() >= n {
                    continue;
                }
                home[u.index()] = (k, i);
                latency_row_age[u.index()] = Some(worst);
                bandwidth_row_age[u.index()] = Some(worst);
            }
        }

        // cross-shard point values (latency s, avail bps, peak bps) per
        // pair of shard records
        let k_count = shards.len();
        let mut cross = vec![None; k_count * k_count];
        if let Some(est) = &est {
            for (a, sa) in shards.iter().enumerate() {
                for (b, sb) in shards.iter().enumerate().skip(a + 1) {
                    let (s, t) = (sa.shard, sb.shard);
                    let Some(lat) = est.latency_s(s, t) else {
                        continue;
                    };
                    let avail = est.avail_bps(s, t).unwrap_or(0.0);
                    let pk = est.peak_bps(s, t).unwrap_or(0.0);
                    cross[a * k_count + b] = Some((lat.point, avail, pk));
                    cross[b * k_count + a] = cross[a * k_count + b];
                }
            }
        }
        let cross = |a: usize, b: usize| cross[a * k_count + b];

        let latency = sharded_matrix(
            &shards,
            &home,
            LatencyStat::constant(0.0),
            LatencyStat::constant(f64::INFINITY),
            |a, b| cross(a, b).map(|(lat, _, _)| LatencyStat::constant(lat)),
            |rec, p| LatencyStat::constant(rec.lat_s[p]),
        );
        let bandwidth = sharded_matrix(
            &shards,
            &home,
            f64::INFINITY,
            0.0,
            |a, b| cross(a, b).map(|(_, avail, _)| avail),
            |rec, p| rec.avail_bps[p],
        );
        let peak = sharded_matrix(
            &shards,
            &home,
            f64::INFINITY,
            0.0,
            |a, b| cross(a, b).map(|(_, _, pk)| pk),
            |rec, p| rec.peak_bps[p],
        );

        Ok(ClusterSnapshot {
            taken_at: now,
            nodes,
            latency,
            bandwidth_bps: bandwidth,
            peak_bandwidth_bps: peak,
            latency_row_age,
            bandwidth_row_age,
        })
    }

    /// Age of a node's published sample, if it has one.
    pub fn sample_age(&self, node: NodeId) -> Option<Duration> {
        self.info(node)
            .map(|i| self.taken_at.since(i.sample.taken_at))
    }

    /// Age of the freshest latency row covering pair `(u, v)` — the entry
    /// is overwritten by whichever endpoint's row was read, so the newer
    /// row bounds how stale the value can be.
    pub fn latency_age(&self, u: NodeId, v: NodeId) -> Option<Duration> {
        min_age(
            self.latency_row_age[u.index()],
            self.latency_row_age[v.index()],
        )
    }

    /// Age of the freshest bandwidth row covering pair `(u, v)`.
    pub fn bandwidth_age(&self, u: NodeId, v: NodeId) -> Option<Duration> {
        min_age(
            self.bandwidth_row_age[u.index()],
            self.bandwidth_row_age[v.index()],
        )
    }

    /// Nodes that are live *and* have a sample: the allocatable universe.
    pub fn usable_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| n.node)
            .collect()
    }

    /// Info for a node, if present. O(1) when `nodes` is positional (as
    /// the assemblers build it); a scan otherwise.
    pub fn info(&self, node: NodeId) -> Option<&NodeInfo> {
        match self.nodes.get(node.index()) {
            Some(hit) if hit.node == node => Some(hit),
            _ => self.nodes.iter().find(|n| n.node == node),
        }
    }

    /// Age of the oldest sample among usable nodes (staleness diagnostic).
    pub fn max_sample_age(&self) -> Option<nlrm_sim_core::time::Duration> {
        self.nodes
            .iter()
            .filter(|n| n.live)
            .map(|n| self.taken_at.since(n.sample.taken_at))
            .max()
    }
}

fn min_age(a: Option<Duration>, b: Option<Duration>) -> Option<Duration> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

fn read_livehosts(store: &SharedStore) -> Result<Vec<NodeId>, SnapshotError> {
    let rec = store
        .get(paths::LIVEHOSTS)
        .ok_or(SnapshotError::NoLivehosts)?;
    match decode(&rec.data) {
        Ok(MonitorRecord::Livehosts(hosts)) => Ok(hosts),
        Ok(_) => Err(SnapshotError::Corrupt(
            paths::LIVEHOSTS.into(),
            CodecError::BadTag(0),
        )),
        Err(e) => Err(SnapshotError::Corrupt(paths::LIVEHOSTS.into(), e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::{BandwidthD, LatencyD, LivehostsD, NodeStateD};
    use nlrm_cluster::iitk::small_cluster;
    use nlrm_sim_core::time::Duration;

    fn populated(n: usize) -> (SharedStore, SimTime) {
        let mut cluster = small_cluster(n, 17);
        cluster.advance(Duration::from_secs(30));
        let store = SharedStore::new();
        LivehostsD::new().tick(&cluster, &store);
        for i in 0..n {
            NodeStateD::new(NodeId(i as u32)).tick(&cluster, &store);
        }
        LatencyD::new(n).tick(&mut cluster, &store);
        BandwidthD::new(n).tick(&mut cluster, &store);
        (store, cluster.now())
    }

    /// The cell-by-cell sharded assembler (defaults first, then every
    /// record's pairs written through mirrored `set`s, last writer wins),
    /// kept as the oracle for the row-major `assemble_sharded`.
    fn assemble_sharded_reference(store: &SharedStore, n: usize, now: SimTime) -> ClusterSnapshot {
        let nodes = read_nodes(store, n).unwrap();
        let (mut latency, mut bandwidth, mut peak) = unmeasured_matrices(n);
        let shards = read_shards(store, now).unwrap();
        for rec in &shards {
            let m = rec.members.len();
            for i in 0..m {
                for j in (i + 1)..m {
                    let (u, v) = (rec.members[i], rec.members[j]);
                    if u.index() >= n || v.index() >= n {
                        continue;
                    }
                    let k = rec.tri(i, j);
                    latency.set(u, v, LatencyStat::constant(rec.lat_s[k]));
                    bandwidth.set(u, v, rec.avail_bps[k]);
                    peak.set(u, v, rec.peak_bps[k]);
                }
            }
        }
        let (est, est_age) = read_estimate(store, now).unwrap();
        if let Some(est) = &est {
            for (i, a) in shards.iter().enumerate() {
                for b in &shards[i + 1..] {
                    let Some(lat) = est.latency_s(a.shard, b.shard) else {
                        continue;
                    };
                    let avail = est.avail_bps(a.shard, b.shard).unwrap_or(0.0);
                    let pk = est.peak_bps(a.shard, b.shard).unwrap_or(0.0);
                    for &u in &a.members {
                        for &v in &b.members {
                            if u.index() >= n || v.index() >= n {
                                continue;
                            }
                            latency.set(u, v, LatencyStat::constant(lat.point));
                            bandwidth.set(u, v, avail);
                            peak.set(u, v, pk);
                        }
                    }
                }
            }
        }
        let mut latency_row_age = vec![None; n];
        let mut bandwidth_row_age = vec![None; n];
        for rec in &shards {
            let worst = match est_age {
                Some(e) => rec.age.max(e),
                None => rec.age,
            };
            for &u in &rec.members {
                if u.index() < n {
                    latency_row_age[u.index()] = Some(worst);
                    bandwidth_row_age[u.index()] = Some(worst);
                }
            }
        }
        ClusterSnapshot {
            taken_at: now,
            nodes,
            latency,
            bandwidth_bps: bandwidth,
            peak_bandwidth_bps: peak,
            latency_row_age,
            bandwidth_row_age,
        }
    }

    /// A sharded monitor's store after warming `campus(4, 12)`; `failed`
    /// nodes die a minute in, so they drop out of livehosts and of their
    /// shard's members.
    fn sharded_store(failed: &[u32]) -> (SharedStore, usize, SimTime) {
        use crate::daemons::DaemonConfig;
        use crate::runtime::{MonitorRuntime, MonitorTopo, ShardConfig};
        let mut cluster = nlrm_cluster::iitk::campus(4, 12, 7);
        let n = cluster.topology().num_nodes();
        for &node in failed {
            cluster.schedule_failure(SimTime::from_secs(60), NodeId(node));
        }
        let idx = cluster.topology().switch_index();
        let mut rt = MonitorRuntime::with_topo(
            &cluster,
            DaemonConfig::default(),
            MonitorTopo::Sharded(ShardConfig::new(idx)),
        );
        rt.run_until(&mut cluster, SimTime::from_secs(400));
        (rt.store().clone(), n, cluster.now())
    }

    /// An independent copy of every record in `store`.
    fn copy_store(store: &SharedStore) -> SharedStore {
        let copy = SharedStore::new();
        for path in store.list_prefix("") {
            let rec = store.get(&path).unwrap();
            copy.put(path, rec.written_at, rec.data);
        }
        copy
    }

    fn assert_same_snapshot(got: &ClusterSnapshot, want: &ClusterSnapshot, case: &str) {
        assert_eq!(got.taken_at, want.taken_at, "{case}: taken_at");
        assert_eq!(got.nodes, want.nodes, "{case}: nodes");
        assert!(got.latency == want.latency, "{case}: latency");
        assert!(got.bandwidth_bps == want.bandwidth_bps, "{case}: bandwidth");
        assert!(
            got.peak_bandwidth_bps == want.peak_bandwidth_bps,
            "{case}: peak bandwidth"
        );
        assert_eq!(
            got.latency_row_age, want.latency_row_age,
            "{case}: latency ages"
        );
        assert_eq!(
            got.bandwidth_row_age, want.bandwidth_row_age,
            "{case}: bandwidth ages"
        );
    }

    #[test]
    fn row_major_sharded_assembly_matches_the_cell_by_cell_oracle() {
        let (store, n, now) = sharded_store(&[]);
        let later = now + Duration::from_secs(30);
        let check = |store: &SharedStore, case: &str| {
            let got = ClusterSnapshot::assemble_sharded(store, n, later).unwrap();
            let want = assemble_sharded_reference(store, n, later);
            assert_same_snapshot(&got, &want, case);
            got
        };
        let full = check(&store, "warmed store");
        assert!(full.latency.pairs().all(|(_, _, l)| l.instant.is_finite()));

        let one_shard_gone = copy_store(&store);
        let shard_paths = one_shard_gone.list_prefix("shard/");
        assert!(shard_paths.len() >= 2, "expected several shard records");
        assert!(one_shard_gone.remove(&shard_paths[1]));
        let snap = check(&one_shard_gone, "one shard record removed");
        assert!(snap.latency_row_age.iter().any(Option::is_none));

        let no_estimate = copy_store(&store);
        assert!(no_estimate.remove(paths::INTER_ESTIMATE));
        let snap = check(&no_estimate, "inter estimate removed");
        assert!(snap
            .latency
            .pairs()
            .any(|(_, _, l)| l.instant.is_infinite()));

        // an estimate older than every shard record ages all the rows
        let old_estimate = copy_store(&store);
        let rec = old_estimate.get(paths::INTER_ESTIMATE).unwrap();
        old_estimate.put(paths::INTER_ESTIMATE, SimTime::ZERO, rec.data);
        let snap = check(&old_estimate, "old inter estimate");
        let age = Some(later.since(SimTime::ZERO));
        assert!(snap.latency_row_age.iter().all(|&a| a == age));

        let (dead, n_dead, now_dead) = sharded_store(&[3, 17, 40]);
        assert_eq!(n_dead, n);
        let got = ClusterSnapshot::assemble_sharded(&dead, n, now_dead).unwrap();
        let want = assemble_sharded_reference(&dead, n, now_dead);
        assert_same_snapshot(&got, &want, "dead nodes");
        assert!(!got.usable_nodes().contains(&NodeId(17)));
    }

    #[test]
    fn a_node_listed_by_two_shard_records_belongs_to_the_later_one() {
        let (store, n, now) = sharded_store(&[]);
        let shard_paths = store.list_prefix("shard/");
        assert!(shard_paths.len() >= 3, "expected several shard records");
        let records = read_shards(&store, now).unwrap();
        let (first, last) = (&records[0], &records[records.len() - 1]);
        let node = first.members[1];
        let beyond = NodeId(n as u32 + 5);

        // re-encode the last-listed record with `node` and an out-of-range
        // id appended; every pair involving an appended member gets a
        // value no measured pair has
        let old_m = last.members.len();
        let mut members = last.members.clone();
        members.extend([node, beyond]);
        let m = members.len();
        let (mut lat_s, mut avail_bps, mut peak_bps) = (vec![], vec![], vec![]);
        for i in 0..m {
            for j in (i + 1)..m {
                if j < old_m {
                    let k = last.tri(i, j);
                    lat_s.push(last.lat_s[k]);
                    avail_bps.push(last.avail_bps[k]);
                    peak_bps.push(last.peak_bps[k]);
                } else {
                    lat_s.push(1.0 + i as f64);
                    avail_bps.push(7.0 + i as f64);
                    peak_bps.push(70.0 + i as f64);
                }
            }
        }
        let path = &shard_paths[shard_paths.len() - 1];
        let rec = store.get(path).unwrap();
        let Ok(MonitorRecord::ShardNl {
            shard,
            epoch,
            taken_at,
            probe_bytes,
            ..
        }) = decode(&rec.data)
        else {
            panic!("{path} is not a shard record");
        };
        assert_eq!(shard, last.shard);
        let reencoded = crate::codec::encode(&MonitorRecord::ShardNl {
            shard,
            epoch,
            taken_at,
            members,
            lat_s,
            avail_bps,
            peak_bps,
            probe_bytes,
        });
        store.put(path.clone(), rec.written_at, reencoded);

        let snap = ClusterSnapshot::assemble_sharded(&store, n, now).unwrap();
        let (est, est_age) = read_estimate(&store, now).unwrap();
        let est = est.expect("warmed store has an inter estimate");
        let lat = |u: NodeId, v: NodeId| snap.latency.get(u, v).instant;
        let bw = |u: NodeId, v: NodeId| snap.bandwidth_bps.get(u, v);
        let pk = |u: NodeId, v: NodeId| snap.peak_bandwidth_bps.get(u, v);

        // intra values: the later record's, for every in-range member
        for (i, &u) in last.members.iter().enumerate() {
            assert_eq!(lat(node, u), 1.0 + i as f64, "lat({node},{u})");
            assert_eq!(bw(node, u), 7.0 + i as f64, "bw({node},{u})");
            assert_eq!(pk(u, node), 70.0 + i as f64, "peak({u},{node})");
        }
        // cross values: from the later record's shard, the earlier record's
        // members included
        for rec in &records[..records.len() - 1] {
            let (s, t) = (last.shard, rec.shard);
            let want_lat = est.latency_s(s, t).unwrap().point;
            let want_avail = est.avail_bps(s, t).unwrap_or(0.0);
            let want_peak = est.peak_bps(s, t).unwrap_or(0.0);
            for &u in rec.members.iter().filter(|&&u| u != node) {
                assert_eq!(lat(node, u), want_lat, "lat({node},{u})");
                assert_eq!(bw(u, node), want_avail, "bw({u},{node})");
                assert_eq!(pk(node, u), want_peak, "peak({node},{u})");
            }
        }
        // diagonal conventions, and the row ages of the later record
        assert_eq!(snap.latency.get(node, node), LatencyStat::constant(0.0));
        assert_eq!(bw(node, node), f64::INFINITY);
        assert_eq!(pk(node, node), f64::INFINITY);
        let worst = last.age.max(est_age.unwrap());
        assert_eq!(snap.latency_row_age[node.index()], Some(worst));
        assert_eq!(snap.bandwidth_row_age[node.index()], Some(worst));
        // the out-of-range id is skipped, and all three stay symmetric
        assert_eq!(snap.latency.len(), n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let (u, v) = (NodeId(u), NodeId(v));
                assert_eq!(snap.latency.get(u, v), snap.latency.get(v, u));
                assert_eq!(bw(u, v).to_bits(), bw(v, u).to_bits());
                assert_eq!(pk(u, v).to_bits(), pk(v, u).to_bits());
            }
        }
    }

    #[test]
    fn info_hits_by_position_and_falls_back_to_a_scan() {
        let (store, now) = populated(5);
        // positional: every node sits at its own id
        let snap = ClusterSnapshot::assemble(&store, 5, now).unwrap();
        for i in 0..5u32 {
            let info = snap.info(NodeId(i)).unwrap();
            assert_eq!(info.node, NodeId(i));
            assert!(std::ptr::eq(info, &snap.nodes[i as usize]));
        }
        // a missing node shifts everyone after it off their slot
        store.remove(&paths::node_state(NodeId(1)));
        let snap = ClusterSnapshot::assemble(&store, 5, now).unwrap();
        assert!(snap.info(NodeId(1)).is_none());
        for i in [0u32, 2, 3, 4] {
            assert_eq!(snap.info(NodeId(i)).unwrap().node, NodeId(i));
        }
        assert!(snap.info(NodeId(9)).is_none());
        // hand-built, out of id order
        let mut shuffled = snap.clone();
        shuffled.nodes.reverse();
        for i in [0u32, 2, 3, 4] {
            let info = shuffled.info(NodeId(i)).unwrap();
            assert_eq!(info.node, NodeId(i));
            assert_eq!(info, snap.info(NodeId(i)).unwrap());
        }
        assert!(shuffled.info(NodeId(1)).is_none());
    }

    #[test]
    fn assemble_full_snapshot() {
        let (store, now) = populated(6);
        let snap = ClusterSnapshot::assemble(&store, 6, now).unwrap();
        assert_eq!(snap.nodes.len(), 6);
        assert_eq!(snap.usable_nodes().len(), 6);
        // matrices populated
        for (u, v, bw) in snap.bandwidth_bps.pairs() {
            assert!(bw > 0.0, "bw({u},{v}) = {bw}");
        }
        for (u, v, lat) in snap.latency.pairs() {
            assert!(lat.instant > 0.0 && lat.instant.is_finite(), "lat({u},{v})");
        }
    }

    #[test]
    fn empty_store_errors() {
        let store = SharedStore::new();
        assert_eq!(
            ClusterSnapshot::assemble(&store, 4, SimTime::ZERO).unwrap_err(),
            SnapshotError::NoLivehosts
        );
    }

    #[test]
    fn missing_node_sample_drops_node() {
        let (store, now) = populated(4);
        store.remove(&paths::node_state(NodeId(2)));
        let snap = ClusterSnapshot::assemble(&store, 4, now).unwrap();
        assert_eq!(snap.nodes.len(), 3);
        assert!(snap.info(NodeId(2)).is_none());
        assert_eq!(snap.usable_nodes().len(), 3);
    }

    #[test]
    fn corrupt_record_is_reported() {
        let (store, now) = populated(3);
        store.put(
            paths::node_state(NodeId(1)),
            now,
            bytes::Bytes::from_static(&[1, 2, 3]),
        );
        match ClusterSnapshot::assemble(&store, 3, now) {
            Err(SnapshotError::Corrupt(path, _)) => assert_eq!(path, "nodestate/1"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn staleness_is_measured() {
        let (store, now) = populated(3);
        let later = now + Duration::from_secs(120);
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        assert_eq!(snap.max_sample_age().unwrap(), Duration::from_secs(120));
    }

    #[test]
    fn row_ages_track_publication_times() {
        let (store, now) = populated(3);
        let later = now + Duration::from_secs(120);
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        let age = Some(Duration::from_secs(120));
        assert_eq!(snap.latency_age(NodeId(0), NodeId(1)), age);
        assert_eq!(snap.bandwidth_age(NodeId(0), NodeId(2)), age);
        assert_eq!(snap.sample_age(NodeId(1)), age);
        assert_eq!(snap.sample_age(NodeId(9)), None);
        // a pair with one missing row falls back to the other endpoint's
        store.remove(&paths::latency_row(NodeId(0)));
        let snap = ClusterSnapshot::assemble(&store, 3, later).unwrap();
        assert!(snap.latency_row_age[0].is_none());
        assert_eq!(snap.latency_age(NodeId(0), NodeId(1)), age);
    }

    #[test]
    fn diagonal_conventions() {
        let (store, now) = populated(3);
        let snap = ClusterSnapshot::assemble(&store, 3, now).unwrap();
        assert!(snap.bandwidth_bps.get(NodeId(1), NodeId(1)).is_infinite());
        assert_eq!(snap.latency.get(NodeId(1), NodeId(1)).instant, 0.0);
    }
}
