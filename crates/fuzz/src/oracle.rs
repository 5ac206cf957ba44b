//! The five differential oracles `recon fuzz` runs per program.
//!
//! 1. **Functional vs detailed** — the detailed out-of-order simulator
//!    (baseline scheme) must produce the same architectural registers
//!    and memory words as straight-line functional execution.
//! 2. **Scheme invariance** — all five secure schemes are *performance*
//!    mechanisms: the architectural result must be identical across
//!    them.
//!
//!    Oracles 1 and 2 run under both memory-dependence modes: loads
//!    that wait for every older store address, and loads that speculate
//!    past them through the store-set predictor and squash on a
//!    violation.
//! 3. **Snapshot/restore** — restoring the first checkpoint of a run
//!    must reproduce the snapshot byte-for-byte, and the resumed run
//!    must finish with a result equal to the uninterrupted run's.
//! 4. **Watchdog-clean** — no detailed run may trip the liveness
//!    watchdog or exhaust its cycle budget.
//! 5. **Audit-clean** — every detailed run executes under the invariant
//!    auditor ([`recon_sim::audit`]); a sweep that finds the model's
//!    internal state inconsistent is a simulator bug, fuzzed for
//!    directly.

use recon::ReconConfig;
use recon_asm::corpus::{DIGEST_ADDR, STATUS_ADDR};
use recon_cpu::{CoreConfig, MdpMode};
use recon_isa::{ArchReg, Program, SparseMem, NUM_ARCH_REGS};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{Budget, SimError, System};
use recon_workloads::Workload;

use crate::gen::{DATA_BASE, DATA_WORDS, TABLE_BASE, TABLE_WORDS};

/// Step bound for functional execution of a generated program; far
/// above what any generated program legitimately needs.
pub const MAX_FUNC_STEPS: u64 = 200_000;

/// Cycle bound for one detailed run of a generated program.
pub const MAX_DETAILED_CYCLES: u64 = 2_000_000;

/// Which oracle a program failed, with a human-readable detail string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Failure {
    /// Functional execution itself misbehaved (did not halt, or
    /// faulted) — a generator-invariant violation, still a finding.
    Functional(String),
    /// Oracle 1: detailed baseline diverged from functional execution.
    FunctionalMismatch(String),
    /// Oracle 2: a secure scheme's architectural result diverged from
    /// the baseline's.
    SchemeDivergence {
        /// Label of the diverging scheme.
        scheme: String,
        /// What diverged.
        detail: String,
    },
    /// Oracle 3: snapshot/restore was not transparent.
    SnapshotMismatch(String),
    /// Oracle 4: the liveness watchdog fired.
    Stalled {
        /// Scheme the stall occurred under.
        scheme: String,
        /// The stall report's one-line summary.
        summary: String,
    },
    /// Oracle 4: a detailed run exhausted its cycle budget without
    /// halting (runaway, but still committing — not a stall).
    Deadline {
        /// Scheme the deadline occurred under.
        scheme: String,
    },
    /// Oracle 5: an invariant-audit sweep found the simulator's
    /// internal state inconsistent mid-run.
    AuditViolation {
        /// Scheme the violation occurred under.
        scheme: String,
        /// The audit report's one-line summary.
        summary: String,
    },
}

impl Failure {
    /// A short stable label for the failure class (shrinking preserves
    /// the class, not the detail).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Functional(_) => "functional",
            Failure::FunctionalMismatch(_) => "functional-mismatch",
            Failure::SchemeDivergence { .. } => "scheme-divergence",
            Failure::SnapshotMismatch(_) => "snapshot-mismatch",
            Failure::Stalled { .. } => "stall",
            Failure::Deadline { .. } => "deadline",
            Failure::AuditViolation { .. } => "audit-violation",
        }
    }

    /// The detail text for reports and repro file headers.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Failure::Functional(d)
            | Failure::FunctionalMismatch(d)
            | Failure::SnapshotMismatch(d) => d.clone(),
            Failure::SchemeDivergence { scheme, detail } => format!("[{scheme}] {detail}"),
            Failure::Stalled { scheme, summary } => format!("[{scheme}] {summary}"),
            Failure::Deadline { scheme } => format!("[{scheme}] cycle budget exhausted"),
            Failure::AuditViolation { scheme, summary } => format!("[{scheme}] {summary}"),
        }
    }
}

/// Oracle knobs, shared by the fuzz loop and the shrinker.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Core configuration for detailed runs ([`CoreConfig::tiny`] by
    /// default: short queues surface structural hazards fastest).
    /// Oracles 1 and 2 run it in both memory-dependence modes, whatever
    /// its `mdp`.
    pub core: CoreConfig,
    /// Watchdog window for detailed runs. Generated programs commit
    /// steadily, so a small window keeps stall detection cheap.
    pub watchdog_cycles: u64,
    /// Checkpoint cadence (cycles) for the snapshot/restore oracle.
    pub snapshot_cadence: u64,
    /// Skip the (slower) snapshot/restore oracle.
    pub skip_snapshot: bool,
    /// Invariant-audit cadence for every detailed run (oracle 5).
    /// Generated programs are short, so a tight cadence is cheap.
    pub audit_every_cycles: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            core: CoreConfig::tiny(),
            watchdog_cycles: 20_000,
            snapshot_cadence: 400,
            skip_snapshot: false,
            audit_every_cycles: 2_048,
        }
    }
}

/// The architectural observation the oracles compare: final registers
/// plus every memory word the generated-program ABI can touch.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Observation {
    regs: Vec<u64>,
    words: Vec<(u64, u64)>,
}

fn observed_addrs() -> impl Iterator<Item = u64> {
    (0..TABLE_WORDS)
        .map(|k| TABLE_BASE + 8 * k)
        .chain((0..DATA_WORDS).map(|k| DATA_BASE + 8 * k))
        .chain([DIGEST_ADDR, STATUS_ADDR])
}

fn observe_functional(program: &Program) -> Result<Observation, Failure> {
    let mut mem = SparseMem::from_image(&program.image);
    let mut state = recon_isa::ArchState::at_entry(program);
    recon_isa::run_with(program, &mut state, &mut mem, MAX_FUNC_STEPS, |_| {})
        .map_err(|e| Failure::Functional(format!("functional fault: {e}")))?;
    if !state.halted {
        return Err(Failure::Functional(format!(
            "did not halt within {MAX_FUNC_STEPS} functional steps"
        )));
    }
    Ok(Observation {
        regs: (0..NUM_ARCH_REGS)
            .map(|i| state.read(ArchReg::new(i)))
            .collect(),
        words: observed_addrs().map(|a| (a, mem.peek(a))).collect(),
    })
}

fn observe_system(sys: &System) -> Observation {
    let core = &sys.cores()[0];
    Observation {
        regs: (0..NUM_ARCH_REGS)
            .map(|i| core.arch_read(ArchReg::new(i)))
            .collect(),
        words: observed_addrs().map(|a| (a, sys.data().peek(a))).collect(),
    }
}

fn first_diff(a: &Observation, b: &Observation) -> Option<String> {
    for i in 0..NUM_ARCH_REGS {
        if a.regs[i] != b.regs[i] {
            return Some(format!("r{i}: {:#x} vs {:#x}", a.regs[i], b.regs[i]));
        }
    }
    for ((addr, va), (_, vb)) in a.words.iter().zip(&b.words) {
        if va != vb {
            return Some(format!("mem[{addr:#x}]: {va:#x} vs {vb:#x}"));
        }
    }
    None
}

fn make_system(program: &Program, cfg: &OracleConfig, secure: SecureConfig) -> System {
    System::new(
        &Workload::single(program.clone()),
        cfg.core,
        MemConfig::default(),
        secure,
        ReconConfig::default(),
    )
}

fn detailed_budget(cfg: &OracleConfig) -> Budget {
    Budget {
        watchdog_cycles: Some(cfg.watchdog_cycles),
        audit_every_cycles: Some(cfg.audit_every_cycles),
        ..Budget::default()
    }
}

/// The scheme a failure names, with the memory-dependence mode when it
/// is not the default.
fn scheme_label(secure: SecureConfig, mdp: MdpMode) -> String {
    match mdp {
        MdpMode::Conservative => secure.label(),
        MdpMode::Predictor => format!("{} (predictor MDP)", secure.label()),
    }
}

fn run_detailed(
    program: &Program,
    cfg: &OracleConfig,
    secure: SecureConfig,
) -> Result<Observation, Failure> {
    let label = scheme_label(secure, cfg.core.mdp);
    let mut sys = make_system(program, cfg, secure);
    match sys.run_budgeted(MAX_DETAILED_CYCLES, &detailed_budget(cfg)) {
        Ok(_) => Ok(observe_system(&sys)),
        Err(e) => Err(match (e.diagnosis(), e.label()) {
            (None, _) => Failure::Deadline { scheme: label },
            (Some((summary, _)), SimError::STALLED) => Failure::Stalled {
                scheme: label,
                summary,
            },
            (Some((summary, _)), _) => Failure::AuditViolation {
                scheme: label,
                summary,
            },
        }),
    }
}

/// Runs all five oracles over one program. `Ok(())` means every oracle
/// held; the first violated oracle is returned as a [`Failure`].
///
/// # Errors
///
/// The oracle violation, if any.
pub fn check(program: &Program, cfg: &OracleConfig) -> Result<(), Failure> {
    let functional = observe_functional(program)?;

    // Oracle 1 + 4 (baseline), then 2 + 4 (each secure scheme), in
    // each memory-dependence mode.
    let schemes = SecureConfig::ALL;
    for mdp in [MdpMode::Conservative, MdpMode::Predictor] {
        let cfg = &OracleConfig {
            core: CoreConfig { mdp, ..cfg.core },
            ..*cfg
        };
        let baseline = run_detailed(program, cfg, schemes[0])?;
        if let Some(diff) = first_diff(&functional, &baseline) {
            return Err(Failure::FunctionalMismatch(format!(
                "functional vs detailed baseline [{}]: {diff}",
                scheme_label(schemes[0], mdp)
            )));
        }
        for secure in &schemes[1..] {
            let obs = run_detailed(program, cfg, *secure)?;
            if let Some(diff) = first_diff(&baseline, &obs) {
                return Err(Failure::SchemeDivergence {
                    scheme: scheme_label(*secure, mdp),
                    detail: diff,
                });
            }
        }
    }

    // Oracle 3: snapshot/restore transparency under the most stateful
    // scheme (STT+ReCon carries taint, guard, and LPT state).
    if !cfg.skip_snapshot {
        check_snapshot(program, cfg, schemes[4])?;
    }
    Ok(())
}

fn check_snapshot(
    program: &Program,
    cfg: &OracleConfig,
    secure: SecureConfig,
) -> Result<(), Failure> {
    let budget = Budget {
        checkpoint_every_cycles: Some(cfg.snapshot_cadence),
        ..detailed_budget(cfg)
    };
    let mut first: Option<(u64, Vec<u8>)> = None;
    let mut sys = make_system(program, cfg, secure);
    let full = sys
        .run_budgeted_checkpointed(MAX_DETAILED_CYCLES, &budget, |cycle, bytes| {
            if first.is_none() {
                first = Some((cycle, bytes.to_vec()));
            }
        })
        .map_err(|e| Failure::SnapshotMismatch(format!("checkpointed run failed: {e}")))?;
    let Some((cycle, bytes)) = first else {
        // Program finished before the first cadence boundary: nothing
        // to restore, oracle trivially holds.
        return Ok(());
    };

    let mut resumed = make_system(program, cfg, secure);
    resumed
        .restore_bytes(&bytes)
        .map_err(|e| Failure::SnapshotMismatch(format!("restore failed at cycle {cycle}: {e}")))?;
    let reencoded = resumed.snapshot_bytes();
    if reencoded != bytes {
        return Err(Failure::SnapshotMismatch(format!(
            "snapshot at cycle {cycle} is not byte-identical after restore \
             ({} vs {} bytes)",
            bytes.len(),
            reencoded.len()
        )));
    }
    // Continue with the same cadence (boundaries re-align post-drain)
    // and no fuel override: the snapshot carries the remaining fuel.
    let resumed_result = resumed
        .run_budgeted_checkpointed(MAX_DETAILED_CYCLES, &budget, |_, _| {})
        .map_err(|e| Failure::SnapshotMismatch(format!("resumed run failed: {e}")))?;
    if resumed_result != full {
        return Err(Failure::SnapshotMismatch(format!(
            "resumed run diverged from uninterrupted run \
             (cycles {} vs {}, committed {} vs {})",
            resumed_result.cycles,
            full.cycles,
            resumed_result.committed(),
            full.committed()
        )));
    }
    let obs = observe_system(&resumed);
    let direct = run_detailed(program, cfg, secure)?;
    if let Some(diff) = first_diff(&direct, &obs) {
        return Err(Failure::SnapshotMismatch(format!(
            "resumed architectural state diverged: {diff}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenParams};
    use recon_isa::rng::SplitMix64;

    #[test]
    fn clean_programs_pass_all_oracles() {
        let cfg = OracleConfig::default();
        for seed in [1u64, 2, 3] {
            let p = generate(&mut SplitMix64::new(seed), &GenParams::default());
            check(&p, &cfg).unwrap_or_else(|f| panic!("seed {seed}: {f:?}"));
        }
    }

    #[test]
    fn amo_bug_hook_trips_the_stall_oracle() {
        // A store fetched into the AMO's shadow sits in the SQ and can
        // never commit behind it; the historical gate then deadlocks.
        // The watchdog oracle must catch it and name the AMO.
        use recon_isa::reg::names::*;
        use recon_isa::Inst;
        let program = Program {
            code: vec![
                Inst::LoadImm {
                    dst: R1,
                    imm: DATA_BASE,
                },
                Inst::AmoAdd {
                    dst: R2,
                    base: R1,
                    offset: 8,
                    add: R1,
                },
                Inst::Store {
                    val: R1,
                    base: R1,
                    offset: 0,
                },
                Inst::Halt,
            ],
            entry: 0,
            image: recon_isa::MemImage::new(),
        };
        let cfg = OracleConfig {
            core: CoreConfig {
                amo_empty_sq_bug: true,
                ..CoreConfig::tiny()
            },
            watchdog_cycles: 5_000,
            ..OracleConfig::default()
        };
        match check(&program, &cfg) {
            Err(Failure::Stalled { summary, .. }) => {
                assert!(summary.contains("amoadd"), "summary: {summary}");
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }
}
