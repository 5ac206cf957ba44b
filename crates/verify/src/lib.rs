//! Security regression harness for the ReCon reproduction.
//!
//! ReCon's claim (§3, §5.4 of the paper) is *relative* non-interference:
//! lifting speculative defenses on a revealed word discloses nothing the
//! program has not already leaked non-speculatively. Following
//! SPECTECTOR's formulation, this crate checks it end-to-end on the real
//! simulator: run each attack gadget twice with two different secrets
//! and require the attacker-visible microarchitectural traces to be
//! indistinguishable *whenever the sequential (in-order, non-speculative)
//! traces are* — and, per RCP, the coherence layer is part of what the
//! attacker sees, so directory and invalidation traffic count.
//!
//! The pieces:
//!
//! * [`trace`] — the canonical attacker observation model, built from the
//!   `recon-mem` transaction log/snapshot and `recon-cpu` probe timings;
//! * [`gadget`] — secret-parameterized attack programs (Spectre v1,
//!   store-bypass v4, cross-core transmit, and an "already-leaked"
//!   control whose secret escapes architecturally first);
//! * [`differ`] — the two-trace SECURE/LEAKS verdict with first-divergence
//!   reporting;
//! * [`matrix`] — the full gadget × scheme verdict matrix plus the
//!   reveal-soundness invariant runs, wired to `recon verify`.

#![warn(missing_docs)]

pub mod differ;
pub mod gadget;
pub mod matrix;
pub mod trace;

pub use differ::{run_cell, run_cell_budgeted, CellResult, Verdict};
pub use gadget::{Gadget, GadgetKind, SECRET_A, SECRET_B};
pub use matrix::{
    run_cell_named_budgeted, run_matrix, run_matrix_budgeted_with, soundness_sweep,
    soundness_sweep_budgeted, MatrixCell, MatrixReport, SoundnessRun,
};
pub use trace::{Divergence, ObservationTrace};
