//! # recon-sim
//!
//! The full-system simulator and experiment runner of the ReCon
//! reproduction: multicore [`System`]s (out-of-order cores + coherent
//! hierarchy + functional memory), the five-way scheme matrix
//! (baseline / NDA / NDA+ReCon / STT / STT+ReCon), and the metrics
//! the paper reports (normalized IPC, normalized execution time,
//! tainted-load ratios, overhead reductions).
//!
//! ```no_run
//! use recon_sim::{Experiment, SchemeMatrix};
//! use recon_workloads::{find, Scale, Suite};
//!
//! let bench = find(Suite::Spec2017, "xalancbmk", Scale::Quick).unwrap();
//! let matrix: SchemeMatrix = Experiment::default().run_matrix(&bench);
//! println!(
//!     "STT: {:.3}  STT+ReCon: {:.3} (normalized IPC)",
//!     matrix.normalized_ipc(&matrix.stt),
//!     matrix.normalized_ipc(&matrix.stt_recon),
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod ckpt;
pub mod error;
pub mod experiment;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod stall;
pub mod system;

pub use audit::{
    run_campaign, AuditCampaignReport, AuditReport, CampaignConfig, FaultSite,
    DEFAULT_AUDIT_EVERY_CYCLES,
};
pub use error::{Budget, DeadlineReason, SimError, DEFAULT_WATCHDOG_CYCLES};
pub use experiment::{
    geomean, mean, overhead_from_norm_ipc, overhead_reduction, Experiment, SchemeMatrix,
};
pub use runner::{
    jobs_from_env, parallel_map, run_batch, run_batch_with, run_cells, BatchResults, JobTiming,
};
pub use stall::StallReport;
pub use system::{System, SystemResult};
