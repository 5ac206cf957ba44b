//! Distributed `recon-serve`: a consistent-hash cluster with
//! checkpoint-based job migration.
//!
//! Three pieces turn a set of independent `recon serve` nodes into one
//! logical service:
//!
//! * [`ring`] — the consistent-hash ring. Job digests (canonical
//!   [`recon_serve::job::JobSpec`] digests, the same key the cache and
//!   single-flight dedup already use) map to a primary node and a
//!   deterministic failover sequence; membership changes move `O(1/N)`
//!   of the digest space.
//! * [`gateway`] — the HTTP front door. `POST /jobs` and
//!   `POST /jobs/batch` are validated at the edge, routed to the
//!   digest's primary over pooled keep-alive connections, rerouted on
//!   transport failure (connection refused fails fast in the client —
//!   a down node costs one syscall, not a retry schedule), and `200`
//!   results are replicated to the ring replica's cache so the
//!   failover target can answer without recomputing.
//! * [`storm`] — the cluster topology of `recon chaos --nodes N`. It
//!   spawns real node processes, SIGKILLs and restarts them mid-job,
//!   and drives a checkpoint migration from a draining node to its ring
//!   successor, while `recon_serve::storm`'s driver, aimed at the
//!   gateway, asserts 0 lost / 0 mismatched / byte-identical against
//!   single-node expected output. It publishes `BENCH_cluster.json`.
//!
//! Migration itself lives on the nodes (`POST /drain` ships the newest
//! RCK1 checkpoint per unfinished job to the ring successor's
//! `POST /migrate`, which validates the embedded spec against the
//! checkpoint digest and resumes mid-run); this crate decides *where*
//! checkpoints go and proves the resumed output byte-identical.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gateway;
pub mod ring;
pub mod storm;

pub use gateway::{Gateway, GatewayConfig, GatewayMetrics, GwShared, NodeState};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use storm::{run_cluster_storm, ClusterStormConfig, ClusterStormReport};
