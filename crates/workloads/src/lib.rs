//! # recon-workloads
//!
//! Synthetic stand-ins for the SPEC CPU2017 (speed), SPEC CPU2006, and
//! PARSEC benchmarks used by the ReCon evaluation, written in the
//! `recon-isa` mini-ISA and generated deterministically.
//!
//! The paper's results hinge on workload *character*, not on the exact
//! binaries: how often pointers are dereferenced (direct load pairs),
//! how often the same pointers are reused, how large the working set is,
//! and how branchy the code is. Each generator exposes those knobs and
//! the named suites instantiate them per benchmark (see `DESIGN.md`).
//!
//! ```
//! use recon_workloads::{spec2017, Scale, Suite};
//!
//! let suite = spec2017(Scale::Quick);
//! assert_eq!(suite.len(), 20);
//! let mcf = suite.iter().find(|b| b.name == "mcf").unwrap();
//! assert_eq!(mcf.suite, Suite::Spec2017);
//! assert!(mcf.workload.program.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod suites;
pub mod workload;

pub use suites::{
    all_single_thread, benchmarks, corpus, did_you_mean, find, names, parsec, resolve, spec2006,
    spec2017, Scale, FIG9_BENCHMARKS,
};
pub use workload::{Benchmark, Suite, ThreadSpec, Workload};
