//! The two-trace differ: run one (gadget, scheme) cell under two
//! secrets and decide SECURE or LEAKS.
//!
//! The property checked is *relative* (speculative) non-interference,
//! SPECTECTOR-style: a cell LEAKS iff the attacker observation traces
//! of the two secrets differ **and** the sequential (in-order,
//! non-speculative) executions are indistinguishable. If the sequential
//! runs already differ — the program discloses the secret
//! architecturally, as the already-leaked gadget does by construction —
//! then speculation revealed nothing new and the cell is SECURE for
//! every scheme. This is exactly the safety notion ReCon's reveal
//! mechanism targets (§3).

use recon::ReconConfig;
use recon_isa::exec::{run_with, ArchState, MemEffect};
use recon_isa::SparseMem;
use recon_secure::SecureConfig;
use recon_sim::{Budget, SimError, System, SystemResult};
use recon_workloads::Workload;

use crate::gadget::{Gadget, SECRET_A, SECRET_B};
use crate::trace::{Divergence, ObservationTrace};

/// Cycle budget per gadget run (they finish in thousands of cycles).
const MAX_CYCLES: u64 = 2_000_000;

/// Outcome of one (gadget, scheme) cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The two secrets were indistinguishable to the attacker (or were
    /// already distinguishable sequentially, so speculation added
    /// nothing).
    Secure,
    /// Speculation transmitted the secret: the observation traces
    /// diverge although the sequential executions do not.
    Leaks,
}

impl core::fmt::Display for Verdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Verdict::Secure => "SECURE",
            Verdict::Leaks => "LEAKS",
        })
    }
}

/// Full result of one cell: the verdict plus everything needed for
/// reporting and for the already-leaked performance checks.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Gadget name.
    pub gadget: &'static str,
    /// Scheme the cell ran under.
    pub scheme: SecureConfig,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether the sequential executions were indistinguishable.
    pub seq_equal: bool,
    /// First divergent speculative observation, when the speculative
    /// traces differ (present for LEAKS cells and for architecturally
    /// leaking SECURE cells).
    pub divergence: Option<Divergence>,
    /// Digest of the secret-A observation trace.
    pub digest_a: u64,
    /// Digest of the secret-B observation trace.
    pub digest_b: u64,
    /// Simulation result of the secret-A run (cycles, per-core stats).
    pub result_a: SystemResult,
    /// Reveal-soundness violations across both runs (must be empty).
    pub soundness_violations: Vec<String>,
}

/// Runs one gadget under one scheme with both secrets and returns the
/// verdict. Deterministic: repeated calls (on any thread) produce
/// byte-identical traces and digests.
#[must_use]
pub fn run_cell(gadget: Gadget, scheme: SecureConfig) -> CellResult {
    run_cell_budgeted(gadget, scheme, &Budget::default())
        .expect("gadgets complete under the default (unlimited) budget")
}

/// As [`run_cell`], under an explicit [`Budget`] — the deadline-aware
/// entry point behind `recon serve` verify jobs. Under
/// `Budget::default()` this is exactly `run_cell`.
///
/// # Errors
///
/// [`SimError`] when either secret's run exhausts the budget or is
/// cancelled; the error carries that run's partial [`SystemResult`], so
/// the caller can report how far the cell got.
pub fn run_cell_budgeted(
    gadget: Gadget,
    scheme: SecureConfig,
    budget: &Budget,
) -> Result<CellResult, SimError> {
    let (trace_a, result_a, mut violations) = run_observed(&gadget, scheme, SECRET_A, budget)?;
    let (trace_b, _result_b, violations_b) = run_observed(&gadget, scheme, SECRET_B, budget)?;
    violations.extend(violations_b);
    let seq_equal =
        sequential_trace(&gadget.build(SECRET_A)) == sequential_trace(&gadget.build(SECRET_B));
    let divergence = trace_a.first_divergence(&trace_b);
    let verdict = if divergence.is_none() || !seq_equal {
        Verdict::Secure
    } else {
        Verdict::Leaks
    };
    Ok(CellResult {
        gadget: gadget.name,
        scheme,
        verdict,
        seq_equal,
        divergence,
        digest_a: trace_a.digest(),
        digest_b: trace_b.digest(),
        result_a,
        soundness_violations: violations,
    })
}

/// One instrumented out-of-order run: observation recording on, the
/// memory transaction log on, and the reveal-soundness checker armed.
fn run_observed(
    gadget: &Gadget,
    scheme: SecureConfig,
    secret: u64,
    budget: &Budget,
) -> Result<(ObservationTrace, SystemResult, Vec<String>), SimError> {
    let workload = gadget.build(secret);
    let mut sys = System::new(
        &workload,
        gadget.core_config(),
        gadget.mem_config(),
        scheme,
        ReconConfig::default(),
    );
    for core in sys.cores_mut() {
        core.record_observations(true);
    }
    sys.mem_mut().record_transactions(true);
    sys.mem_mut().enable_soundness_checks();
    let result = sys.run_budgeted(MAX_CYCLES, budget)?;
    assert!(
        result.completed,
        "gadget {} did not finish under {scheme}",
        gadget.name
    );
    sys.mem_mut().soundness_sweep();
    let cpu = sys
        .cores_mut()
        .iter_mut()
        .map(recon_cpu::Core::take_observations)
        .collect();
    let mem = sys.mem_mut().take_transactions();
    let snapshot = sys.mem().snapshot();
    let violations = sys.mem().soundness_violations().to_vec();
    Ok((ObservationTrace { cpu, mem, snapshot }, result, violations))
}

/// The sequential (in-order, non-speculative) observation of a
/// workload: per-thread memory accesses in program order, each thread
/// executed to completion on its own copy of the image (a deterministic
/// canonical order; only *equality between secrets* is consumed).
#[must_use]
pub fn sequential_trace(workload: &Workload) -> Vec<Vec<(u8, u64)>> {
    workload
        .threads
        .iter()
        .map(|t| {
            let mut state = ArchState::at_pc(t.entry);
            for &(reg, v) in &t.seeds {
                state.write(reg, v);
            }
            let mut mem = SparseMem::from_image(&workload.program.image);
            let mut out = Vec::new();
            run_with(
                &workload.program,
                &mut state,
                &mut mem,
                10_000_000,
                |rec| match rec.mem {
                    MemEffect::Load { addr, .. } => out.push((0, addr)),
                    MemEffect::Store { addr, .. } => out.push((1, addr)),
                    MemEffect::Amo { addr, .. } => out.push((2, addr)),
                    MemEffect::None => {}
                },
            )
            .expect("gadget executes sequentially");
            assert!(state.halted, "sequential run diverged");
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget;

    #[test]
    fn sequential_traces_are_secret_independent_for_transmit_gadgets() {
        for g in gadget::all().into_iter().filter(|g| g.transmit) {
            let a = sequential_trace(&g.build(SECRET_A));
            let b = sequential_trace(&g.build(SECRET_B));
            assert_eq!(a, b, "{} must not leak architecturally", g.name);
        }
    }

    #[test]
    fn already_leaked_diverges_sequentially() {
        let g = gadget::find("already-leaked").unwrap();
        let a = sequential_trace(&g.build(SECRET_A));
        let b = sequential_trace(&g.build(SECRET_B));
        assert_ne!(a, b, "the load pair discloses the secret in order");
    }
}
