//! # recon-cpu
//!
//! A cycle-level out-of-order core for the ReCon reproduction, with the
//! structures of the paper's Table 2 configuration: 8-wide fetch / issue
//! / commit, a 352-entry reorder buffer, 160-entry instruction queue,
//! 128/72-entry load/store queues, a store buffer, gshare branch
//! prediction with full wrong-path execution and squash, and speculation
//! shadows cast by branches and stores.
//!
//! The security schemes of `recon-secure` (NDA, STT) hook into issue and
//! load-completion, and ReCon's [`recon::LoadPairTable`] lives in the
//! commit stage, sending reveal requests to the `recon-mem` hierarchy.
//!
//! See [`Core`] for the main type, and `recon-sim` for the multicore
//! wrapper that drives cores against a shared memory system.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bpred;
pub mod config;
pub mod core;
pub mod forensics;
pub mod lsq;
pub mod mdp;
pub mod rename;
pub mod rob;
mod sched;
pub mod shadow;
pub mod stats;
pub mod trace;

pub use crate::core::{Core, Observation};
pub use config::{CoreConfig, MdpMode};
pub use forensics::{CoreStallInfo, HeadForensics, QueueOcc};
pub use stats::CoreStats;
