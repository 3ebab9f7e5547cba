//! Multi-rack federation for ROS.
//!
//! The paper scales ROS by adding whole racks (§6 prices racks as the
//! unit of growth) but describes only a single rack's internals. This
//! crate supplies the missing scale-out layer: a cluster front end that
//! federates N independent [`ros_olfs::Ros`] instances — each with its
//! own mech/drive/disk stack and event clock — behind one namespace-less
//! router:
//!
//! - [`placement`]: deterministic rendezvous (highest-random-weight)
//!   hashing of *archive groups* (a file's parent directory) onto racks,
//!   filtered by per-rack remaining capacity;
//! - [`router`]: the [`Cluster`] front end — replicated writes, primary
//!   reads with replica fallback, per-rack and cluster-wide
//!   latency/throughput via `ros_sim::stats`;
//! - [`replication`]: cross-rack guardianship of each rack's Metadata
//!   Volume snapshot (the §4.2 snapshot text shipped to other racks), so
//!   a rack can lose its MV — or its entire hardware — without losing
//!   the namespace;
//! - [`failure`]: the rack-failure drill — fail a rack, re-replicate its
//!   groups from survivors, and report recovery time and data loss
//!   (zero at replication ≥ 2).
//!
//! Racks run in parallel: each advances its own simulated clock only for
//! the work routed to it, and cluster time is the maximum over members,
//! so an N-rack cluster completes a balanced read workload in ~1/N the
//! makespan of one rack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The workspace's domain rules, held by clippy (DESIGN.md §8): no panic
// paths, no lossy casts, no hash-order iteration outside test code.
// `warn` here; CI's `-D warnings` makes them fatal.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::iter_over_hash_type
    )
)]

pub mod audit;
pub mod config;
pub mod error;
pub mod failure;
pub mod placement;
pub mod rack;
pub mod replication;
pub mod router;
pub mod stats;
pub mod supervise;

pub use audit::ClusterAuditReport;
pub use config::ClusterConfig;
pub use error::ClusterError;
pub use failure::DrillReport;
pub use placement::RackId;
pub use rack::RackNode;
pub use replication::MvReplicationReport;
pub use router::{Cluster, ClusterReadReport, ClusterWriteReport};
pub use stats::{ClusterReport, RackLoadSummary};
