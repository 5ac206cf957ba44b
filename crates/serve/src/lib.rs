//! # recon-serve
//!
//! A production-shaped serving layer over the ReCon simulator: the
//! `recon serve` daemon, the `recon bench-serve` load generator, and
//! the `recon chaos` fault storm.
//!
//! The service speaks HTTP/1.1 (keep-alive, per-connection timeouts)
//! over `std::net::TcpListener` — no dependencies, same hermetic build
//! as the rest of the workspace — through one front ([`http::Front`],
//! which the cluster gateway runs behind too), and exposes every one-shot CLI
//! workload (`run`, `matrix`, `analyze`, `verify` cells) as a job:
//!
//! * `POST /jobs` (and `POST /jobs/batch`) — submit jobs. Admission is
//!   a **bounded queue**: when it is full the submission is refused
//!   immediately with `429 Too Many Requests` + `Retry-After`, never
//!   buffered without bound; connections beyond the capped handler
//!   pool get a fast `503`.
//! * Jobs carry optional **deadlines** (`fuel` = committed-instruction
//!   budget, `max_cycles`) that are threaded into the core's commit
//!   loop — for all four kinds, including `analyze`/`verify`; an
//!   expired job answers `408` with its partial statistics, and an
//!   aborting shutdown cancels cooperatively mid-simulation.
//! * Results are **content-addressed**: the FxHash digest of the
//!   canonical job spec keys a bounded cache, repeated submissions are
//!   served from it (`X-Recon-Cache: hit`), duplicates of a *running*
//!   job join its execution (single-flight), and `--cache-dir` makes
//!   the cache **crash-safe** (checksummed snapshot + log, torn tails
//!   truncated at recovery — see [`persist`]).
//! * `GET /metrics` — live counters, gauges, and per-kind latency
//!   histograms in Prometheus text format (labeled `node="<id>"` when
//!   the server runs as a cluster node); `GET /healthz`;
//!   `POST /shutdown` (graceful drain, or `{"mode":"abort"}`).
//! * Cluster endpoints for the `recon gateway` layer: `POST /migrate`
//!   accepts a peer's RCK1 checkpoint and resumes the job mid-run,
//!   `POST /cache` accepts a replicated result, and `POST /drain`
//!   evacuates this node — cancel, checkpoint, ship to a target peer,
//!   then exit.
//!
//! The robustness layer is first-class: a deterministic **chaos plane**
//! ([`chaos`]) injects worker panics, latency, dropped/corrupted
//! connections, and synthetic backpressure at seeded seams; workers run
//! under **supervisors** that respawn them after a panic and recover
//! the orphaned job; and the **self-healing client** ([`client`])
//! retries with bounded, deterministically-jittered backoff over
//! keep-alive connections. Simulation is deterministic, so the
//! service's payloads are byte-identical to direct in-process runs. The
//! [`storm`] driver asserts exactly that: under a flooded queue
//! (`bench-serve`), while every fault class fires (`recon chaos`), and
//! through a cluster gateway (`recon chaos --nodes N`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod http;
pub mod job;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod queue;
pub mod server;
pub mod storm;

pub use cache::ResultCache;
pub use chaos::{FaultPlan, FaultSite};
pub use client::{
    request, request_bytes, scrape, submit_job, submit_with_retry, Connection, Response, Retried,
    RetryPolicy,
};
pub use job::{execute, JobError, JobKind, JobOutput, JobSpec};
pub use json::{parse, Json};
pub use metrics::Metrics;
pub use queue::{BoundedQueue, PushError};
pub use server::{ServeConfig, Server};
pub use storm::{
    run_bench_serve, run_chaos_storm, BenchServeConfig, BenchServeReport, ChaosStormConfig,
    ChaosStormReport,
};
