//! # nlrm-cluster
//!
//! A discrete-time simulator of a **shared, non-dedicated compute cluster** —
//! the substrate the ICPP'20 paper evaluates on (60 heterogeneous nodes at
//! IIT Kanpur, 4 Gigabit-Ethernet switches, real students generating
//! background load).
//!
//! The simulator has three layers:
//!
//! * [`node`] — per-node dynamic state (CPU load, CPU utilization, memory,
//!   logged-in users, NIC data-flow rate) driven by stochastic processes,
//! * [`network`] — per-link background utilization; effective peer-to-peer
//!   bandwidth is the bottleneck residual capacity along the tree path, and
//!   latency grows with queueing on congested links,
//! * [`cluster`] — [`ClusterSim`], which owns the
//!   topology, advances everything in virtual time, injects failures, and
//!   answers the measurement queries the monitoring daemons make.
//!
//! [`profiles`] contains calibrated parameter sets reproducing the activity
//! ranges reported in the paper's Figures 1–2, [`iitk`] builds the paper's
//! exact hardware inventory, and [`trace`] records/replays cluster
//! histories so the pipeline can run on captured data.

pub mod cluster;
pub mod iitk;
pub mod network;
pub mod node;
pub mod profiles;
pub mod trace;

pub use cluster::{ClusterSim, PairProbe};
pub use node::{NodeSpec, NodeState};
pub use profiles::ClusterProfile;
