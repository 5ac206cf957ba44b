//! Run budgets and simulation errors: per-job deadlines (fuel and
//! cycle caps) plus cooperative cancellation, the mechanism `recon
//! serve` uses to kill a stuck or oversized job cleanly partway
//! through simulation while preserving its partial statistics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::audit::AuditReport;
use crate::stall::StallReport;
use crate::system::SystemResult;

/// How often (in cycles) a budgeted run polls its cancellation flag.
/// Coarse enough to stay off the hot path, fine enough that a cancel
/// lands within microseconds of simulated work.
pub const CANCEL_CHECK_INTERVAL: u64 = 1 << 12;

/// Default liveness-watchdog window: a run in which **no core commits
/// an instruction** for this many consecutive cycles is declared
/// stalled ([`SimError::Stalled`]) with a forensic [`StallReport`].
///
/// The window is sized orders of magnitude above any legitimate commit
/// gap in this model (the worst case — a full store buffer draining at
/// one store per cycle behind a chain of directory misses — resolves in
/// thousands of cycles, not hundreds of thousands), so a trip is a
/// genuine deadlock, not a slow patch. The watchdog is **on by
/// default**; see [`Budget::watchdog_cycles`] to tune or disable it.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 1 << 18;

/// Resource limits applied to one simulation run.
///
/// The default budget is unlimited: [`crate::System::run`] is exactly
/// `run_budgeted` under `Budget::default()`.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Per-core committed-instruction cap (the job's *fuel*). Threaded
    /// into `recon_cpu::Core`'s commit loop, so the cap is exact: the
    /// core freezes after committing this many instructions.
    pub fuel: Option<u64>,
    /// Overrides the experiment's cycle budget when set.
    pub max_cycles: Option<u64>,
    /// Cooperative cancellation: when the flag turns `true` the run
    /// stops at the next [`CANCEL_CHECK_INTERVAL`] boundary with
    /// [`SimError::Cancelled`].
    pub cancel: Option<Arc<AtomicBool>>,
    /// Checkpoint cadence in cycles: when set, a checkpointed run
    /// ([`crate::System::run_budgeted_checkpointed`]) drains the
    /// pipelines and emits a snapshot every this-many cycles. The
    /// cadence perturbs microarchitectural timing (draining stalls
    /// fetch), so it is part of the run configuration: resume
    /// determinism holds between runs using the *same* cadence.
    pub checkpoint_every_cycles: Option<u64>,
    /// Functional warmup: execute this many instructions in fast
    /// functional mode ([`crate::System::fast_forward`]) before entering
    /// detailed timing. Applied only when the system is *fresh* (cycle
    /// 0, nothing committed); a run resumed from a checkpoint already
    /// carries its warmup and skips it. The warmup length changes every
    /// result, so it is part of any content-addressed run identity
    /// (spec digests, result records).
    pub fast_forward: Option<u64>,
    /// Liveness-watchdog window in cycles. `None` (the default) arms
    /// the watchdog at [`DEFAULT_WATCHDOG_CYCLES`]; `Some(0)` disables
    /// it; `Some(n)` uses a custom window. When no core commits for a
    /// full window the run stops with [`SimError::Stalled`] carrying a
    /// structured [`StallReport`] instead of silently burning its fuel
    /// budget.
    pub watchdog_cycles: Option<u64>,
    /// Invariant-audit cadence in cycles: when set, the run sweeps
    /// every layer's internal invariants (see [`crate::audit`]) at this
    /// cadence and stops with [`SimError::InvariantViolated`] on the
    /// first non-empty sweep. `None` (the default) disables auditing;
    /// the sweep is pure observation, so — unlike the checkpoint
    /// cadence — it does not perturb timing of a clean run.
    pub audit_every_cycles: Option<u64>,
}

impl Budget {
    /// A budget that only caps committed instructions per core.
    #[must_use]
    pub fn with_fuel(fuel: u64) -> Self {
        Budget {
            fuel: Some(fuel),
            ..Budget::default()
        }
    }

    /// Whether the cancellation flag (if any) has been raised.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// The effective watchdog window: the default when unset, `None`
    /// when explicitly disabled with `Some(0)`.
    #[must_use]
    pub fn effective_watchdog(&self) -> Option<u64> {
        match self.watchdog_cycles {
            None => Some(DEFAULT_WATCHDOG_CYCLES),
            Some(0) => None,
            Some(n) => Some(n),
        }
    }
}

/// Why a budgeted run was stopped before completing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeadlineReason {
    /// A core exhausted its committed-instruction budget.
    Fuel,
    /// The run hit its cycle cap with at least one core unfinished.
    MaxCycles,
}

impl core::fmt::Display for DeadlineReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DeadlineReason::Fuel => "fuel",
            DeadlineReason::MaxCycles => "max_cycles",
        })
    }
}

/// A simulation run that did not complete. Both variants carry the
/// partial [`SystemResult`] accumulated up to the stop point
/// (`completed == false`), so callers can report how far a killed job
/// got. The result is boxed to keep the error (and every
/// `Result<SystemResult, SimError>`) small.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The run exceeded its fuel or cycle deadline.
    DeadlineExceeded {
        /// Statistics up to the stop point.
        partial: Box<SystemResult>,
        /// Which budget was exhausted.
        reason: DeadlineReason,
    },
    /// The run was cancelled via [`Budget::cancel`].
    Cancelled {
        /// Statistics up to the stop point.
        partial: Box<SystemResult>,
    },
    /// The liveness watchdog fired: no core committed an instruction
    /// for a full watchdog window — the simulation is deadlocked (or
    /// pathologically stuck), and `report` explains why, per core.
    Stalled {
        /// Statistics up to the stall point.
        partial: Box<SystemResult>,
        /// Forensic snapshot of every core at the stall point.
        report: Box<StallReport>,
    },
    /// An invariant-audit sweep ([`Budget::audit_every_cycles`]) found
    /// the simulator's internal state inconsistent — state was
    /// corrupted from outside the model (an injected soft error, a bad
    /// restore, or a simulator bug). `report` lists every violated
    /// invariant with forensics.
    InvariantViolated {
        /// Statistics up to the violating sweep.
        partial: Box<SystemResult>,
        /// Every violation the sweep found, with site and cycle.
        report: Box<AuditReport>,
    },
}

impl SimError {
    /// [`SimError::label`] of a deadline.
    pub const DEADLINE_EXCEEDED: &'static str = "deadline_exceeded";
    /// [`SimError::label`] of a cancel.
    pub const CANCELLED: &'static str = "cancelled";
    /// [`SimError::label`] of a stall.
    pub const STALLED: &'static str = "stalled";
    /// [`SimError::label`] of an invariant violation.
    pub const INVARIANT_VIOLATED: &'static str = "invariant_violated";

    /// The name of this stop: the JSON `error` value a served answer
    /// carries.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SimError::DeadlineExceeded { .. } => Self::DEADLINE_EXCEEDED,
            SimError::Cancelled { .. } => Self::CANCELLED,
            SimError::Stalled { .. } => Self::STALLED,
            SimError::InvariantViolated { .. } => Self::INVARIANT_VIOLATED,
        }
    }

    /// The forensic report of a diagnosed stop (a stall or an invariant
    /// violation) as its one-line summary and its full text; `None` for
    /// a deadline or a cancel.
    #[must_use]
    pub fn diagnosis(&self) -> Option<(String, String)> {
        match self {
            SimError::Stalled { report, .. } => Some((report.summary(), report.to_string())),
            SimError::InvariantViolated { report, .. } => {
                Some((report.summary(), report.to_string()))
            }
            SimError::DeadlineExceeded { .. } | SimError::Cancelled { .. } => None,
        }
    }

    /// The partial result, consuming the error.
    #[must_use]
    pub fn into_partial(self) -> SystemResult {
        match self {
            SimError::DeadlineExceeded { partial, .. }
            | SimError::Cancelled { partial }
            | SimError::Stalled { partial, .. }
            | SimError::InvariantViolated { partial, .. } => *partial,
        }
    }

    /// The partial result, by reference.
    #[must_use]
    pub fn partial(&self) -> &SystemResult {
        match self {
            SimError::DeadlineExceeded { partial, .. }
            | SimError::Cancelled { partial }
            | SimError::Stalled { partial, .. }
            | SimError::InvariantViolated { partial, .. } => partial,
        }
    }
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::DeadlineExceeded { partial, reason } => write!(
                f,
                "deadline exceeded ({reason}) after {} cycles / {} committed instructions",
                partial.cycles,
                partial.committed()
            ),
            SimError::Cancelled { partial } => {
                write!(f, "cancelled after {} cycles", partial.cycles)
            }
            SimError::Stalled { report, .. } => write!(f, "{}", report.summary()),
            SimError::InvariantViolated { report, .. } => write!(f, "{}", report.summary()),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_uncancelled() {
        let b = Budget::default();
        assert!(b.fuel.is_none());
        assert!(b.max_cycles.is_none());
        assert!(!b.cancelled());
    }

    #[test]
    fn cancel_flag_reads_through() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget {
            cancel: Some(Arc::clone(&flag)),
            ..Budget::default()
        };
        assert!(!b.cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(b.cancelled());
    }

    #[test]
    fn error_display_names_the_reason() {
        let partial = SystemResult {
            completed: false,
            cycles: 42,
            cores: Vec::new(),
            mem: Default::default(),
        };
        let e = SimError::DeadlineExceeded {
            partial: Box::new(partial),
            reason: DeadlineReason::Fuel,
        };
        let s = e.to_string();
        assert!(s.contains("fuel"), "{s}");
        assert!(s.contains("42"), "{s}");
    }
}
