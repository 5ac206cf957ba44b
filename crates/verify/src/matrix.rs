//! The gadget × scheme verdict matrix and the reveal-soundness runs —
//! the engine behind `recon verify`.
//!
//! Expectations encode the security claim: the unsafe baseline LEAKS on
//! every transmit gadget; all four secure configurations are SECURE on
//! every gadget; and on the already-leaked gadget the ReCon-stacked
//! schemes must be *cheaper* than their bases (strictly fewer delayed
//! and tainted loads, fewer cycles) while staying SECURE — the paper's
//! "detecting non-speculative leakage lets you stop re-protecting it"
//! argument, checked end-to-end.

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{parallel_map, Budget, SimError, System};
use recon_workloads::{find, Scale, Suite};

use crate::differ::{CellResult, Verdict};
use crate::gadget::{self, Gadget};

/// The verdict a correct implementation must produce for one cell:
/// LEAKS only for a transmit gadget on the unprotected baseline.
#[must_use]
pub fn expected_verdict(g: &Gadget, scheme: SecureConfig) -> Verdict {
    if g.transmit && scheme == SecureConfig::unsafe_baseline() {
        Verdict::Leaks
    } else {
        Verdict::Secure
    }
}

/// One matrix cell: the measured result and what it must be.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// The measured cell result.
    pub result: CellResult,
    /// The verdict required by the security claim.
    pub expected: Verdict,
}

impl MatrixCell {
    /// Whether the cell matches its expectation and raised no
    /// reveal-soundness violations.
    #[must_use]
    pub fn as_expected(&self) -> bool {
        self.result.verdict == self.expected && self.result.soundness_violations.is_empty()
    }
}

/// ReCon-vs-base cost comparison on the already-leaked gadget: the
/// stacked scheme must protect strictly less (the word is revealed) and
/// therefore run strictly faster.
#[derive(Clone, Copy, Debug)]
pub struct LiftCheck {
    /// The base scheme (NDA or STT).
    pub base: SecureConfig,
    /// The same scheme with ReCon stacked.
    pub with_recon: SecureConfig,
    /// Loads whose issue the base scheme delayed.
    pub delayed_base: u64,
    /// Loads whose issue the stacked scheme delayed.
    pub delayed_recon: u64,
    /// Committed tainted/guarded loads under the base scheme.
    pub guarded_base: u64,
    /// Committed tainted/guarded loads under the stacked scheme.
    pub guarded_recon: u64,
    /// Run length under the base scheme.
    pub cycles_base: u64,
    /// Run length under the stacked scheme.
    pub cycles_recon: u64,
}

impl LiftCheck {
    /// Whether ReCon strictly reduced delayed loads, tainted loads, and
    /// cycles relative to its base.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.delayed_recon < self.delayed_base
            && self.guarded_recon < self.guarded_base
            && self.cycles_recon < self.cycles_base
    }
}

/// The full report `recon verify` prints and CI gates on.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// Every (gadget, scheme) cell run, gadget-major.
    pub cells: Vec<MatrixCell>,
    /// Already-leaked cost comparisons (present when both schemes of a
    /// pair were in the filtered matrix).
    pub lifts: Vec<LiftCheck>,
}

impl MatrixReport {
    /// Human-readable descriptions of every violated expectation.
    #[must_use]
    pub fn unexpected(&self) -> Vec<String> {
        let mut out = Vec::new();
        for cell in &self.cells {
            let r = &cell.result;
            if r.verdict != cell.expected {
                out.push(format!(
                    "{} under {}: got {}, expected {}",
                    r.gadget,
                    r.scheme.label(),
                    r.verdict,
                    cell.expected
                ));
            }
            for v in &r.soundness_violations {
                out.push(format!(
                    "{} under {}: reveal-soundness violation: {v}",
                    r.gadget,
                    r.scheme.label()
                ));
            }
        }
        for l in &self.lifts {
            if !l.pass() {
                out.push(format!(
                    "already-leaked: {} not strictly cheaper than {} \
                     (delayed {} vs {}, tainted {} vs {}, cycles {} vs {})",
                    l.with_recon.label(),
                    l.base.label(),
                    l.delayed_recon,
                    l.delayed_base,
                    l.guarded_recon,
                    l.guarded_base,
                    l.cycles_recon,
                    l.cycles_base
                ));
            }
        }
        out
    }

    /// Whether every cell and every lift check met its expectation.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.cells.iter().all(MatrixCell::as_expected) && self.lifts.iter().all(LiftCheck::pass)
    }
}

/// Runs the (optionally filtered) gadget × scheme matrix with `jobs`
/// worker threads. Results are deterministic and independent of `jobs`.
///
/// # Panics
///
/// Panics if `gadget_filter` names an unknown gadget (the CLI validates
/// names first).
#[must_use]
pub fn run_matrix(
    gadget_filter: Option<&str>,
    scheme_filter: Option<SecureConfig>,
    jobs: usize,
) -> MatrixReport {
    run_matrix_budgeted_with(
        gadget_filter,
        scheme_filter,
        jobs,
        &Budget::default(),
        false,
    )
}

/// As [`run_matrix`], under an explicit [`Budget`] (fuel, cycle caps,
/// cancellation), optionally widening the unfiltered matrix to the
/// embedded gadgets ([`gadget::embedded`]) — leakage payloads spliced
/// into corpus host programs, where the speculative window opens inside
/// a realistically warmed-up machine instead of a cold synthetic
/// snippet. Naming an embedded gadget explicitly via `gadget_filter`
/// works regardless of `embedded`.
///
/// The budget's `fast_forward` field is deliberately ignored for
/// gadget cells: ReCon's reveal state is *trained* by the detailed
/// region (a functional warmup commits no load pairs, sets no reveal
/// bits, and records no attacker observations), so skipping any prefix
/// of a tiny gadget changes the security question being asked — the
/// already-leaked gadget's architectural disclosure, for instance,
/// would simply never be seen. Functional warmup in `recon verify`
/// belongs to the benchmark-scale [`soundness_sweep_budgeted`] runs
/// instead.
///
/// # Panics
///
/// Panics on an unknown `gadget_filter` name, or if a cell hits the
/// budget's fuel/cycle deadline (the matrix has no partial-result
/// form; deadline-tolerant callers use [`run_cell_named_budgeted`]).
#[must_use]
pub fn run_matrix_budgeted_with(
    gadget_filter: Option<&str>,
    scheme_filter: Option<SecureConfig>,
    jobs: usize,
    budget: &Budget,
    embedded: bool,
) -> MatrixReport {
    let budget = &Budget {
        fast_forward: None,
        ..budget.clone()
    };
    let gadgets: Vec<Gadget> = match gadget_filter {
        Some(name) => vec![gadget::find(name).expect("gadget name validated by caller")],
        None if embedded => gadget::all_with_embedded(),
        None => gadget::all(),
    };
    let picked: Vec<SecureConfig> = SecureConfig::ALL
        .into_iter()
        .filter(|s| scheme_filter.is_none_or(|want| *s == want))
        .collect();
    let work: Vec<(Gadget, SecureConfig)> = gadgets
        .iter()
        .flat_map(|g| picked.iter().map(|s| (*g, *s)))
        .collect();
    let cells: Vec<MatrixCell> = parallel_map(jobs, work, |(g, s)| MatrixCell {
        expected: expected_verdict(&g, s),
        result: crate::differ::run_cell_budgeted(g, s, budget)
            .unwrap_or_else(|e| panic!("matrix cell {} under {} hit its budget: {e}", g.name, s)),
    });
    let lifts = lift_checks(&cells);
    MatrixReport { cells, lifts }
}

/// Runs one (gadget, scheme) matrix cell by gadget name under an
/// explicit [`Budget`] — the cell-as-job entry point `recon serve`
/// dispatches verify jobs through, with per-job deadlines. `None` for an
/// unknown gadget name; `Some(Err(..))` when the budget expired, with
/// the partial result inside the error.
#[must_use]
pub fn run_cell_named_budgeted(
    gadget_name: &str,
    scheme: SecureConfig,
    budget: &Budget,
) -> Option<Result<MatrixCell, SimError>> {
    let g = gadget::find(gadget_name)?;
    Some(
        crate::differ::run_cell_budgeted(g, scheme, budget).map(|result| MatrixCell {
            expected: expected_verdict(&g, scheme),
            result,
        }),
    )
}

/// Builds the already-leaked cost comparisons from whatever cells ran.
fn lift_checks(cells: &[MatrixCell]) -> Vec<LiftCheck> {
    let get = |scheme: SecureConfig| {
        cells
            .iter()
            .map(|c| &c.result)
            .find(|r| r.gadget == "already-leaked" && r.scheme == scheme)
    };
    let delayed = |r: &CellResult| {
        r.result_a
            .cores
            .iter()
            .map(|c| c.loads_delayed_by_scheme)
            .sum::<u64>()
    };
    let pairs = [
        (SecureConfig::nda(), SecureConfig::nda_recon()),
        (SecureConfig::stt(), SecureConfig::stt_recon()),
    ];
    pairs
        .iter()
        .filter_map(|&(base, with_recon)| {
            let b = get(base)?;
            let r = get(with_recon)?;
            Some(LiftCheck {
                base,
                with_recon,
                delayed_base: delayed(b),
                delayed_recon: delayed(r),
                guarded_base: b.result_a.guarded_loads(),
                guarded_recon: r.result_a.guarded_loads(),
                cycles_base: b.result_a.cycles,
                cycles_recon: r.result_a.cycles,
            })
        })
        .collect()
}

/// One reveal-soundness benchmark run.
#[derive(Clone, Debug)]
pub struct SoundnessRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Its suite.
    pub suite: Suite,
    /// Scheme the run used.
    pub scheme: SecureConfig,
    /// Invariant violations (must be empty).
    pub violations: Vec<String>,
}

/// Runs the §5.2/§5.3 reveal-soundness invariant checker on one
/// benchmark per suite under STT+ReCon: every reveal bit observed or
/// left standing must trace back to a committed load-pair reveal that
/// no store or fill has since cleared.
///
/// # Panics
///
/// Panics if a benchmark run does not terminate within its budget.
#[must_use]
pub fn soundness_sweep(jobs: usize) -> Vec<SoundnessRun> {
    soundness_sweep_budgeted(jobs, &Budget::default())
}

/// As [`soundness_sweep`], under an explicit [`Budget`]. Unlike gadget
/// cells (see [`run_matrix_budgeted_with`]), these are benchmark-scale runs
/// where functional warmup is both safe and useful: the sweep validates
/// whatever reveal bits the *detailed* region sets, so `fast_forward`
/// merely shrinks the checked region — it cannot manufacture a
/// violation or hide one that the detailed region would raise. (A
/// warmup longer than the benchmark halts it functionally and leaves
/// an empty — vacuously sound — detailed region.)
///
/// # Panics
///
/// Panics if a benchmark run does not terminate within its budget.
#[must_use]
pub fn soundness_sweep_budgeted(jobs: usize, budget: &Budget) -> Vec<SoundnessRun> {
    let picks = [
        (Suite::Spec2017, "mcf"),
        (Suite::Spec2006, "milc"),
        (Suite::Parsec, "canneal"),
    ];
    let ff = budget.fast_forward;
    parallel_map(jobs, picks.to_vec(), move |(suite, name)| {
        let bench = find(suite, name, Scale::Quick).expect("benchmark exists");
        let mem = if suite == Suite::Parsec {
            MemConfig::scaled_multicore()
        } else {
            MemConfig::scaled()
        };
        let scheme = SecureConfig::stt_recon();
        let mut sys = System::new(
            &bench.workload,
            CoreConfig::paper(),
            mem,
            scheme,
            ReconConfig::default(),
        );
        if let Some(n) = ff {
            sys.fast_forward(n);
        }
        sys.mem_mut().enable_soundness_checks();
        let r = sys.run(200_000_000);
        assert!(r.completed, "{name} did not finish under {scheme}");
        sys.mem_mut().soundness_sweep();
        SoundnessRun {
            name: bench.name,
            suite,
            scheme,
            violations: sys.mem().soundness_violations().to_vec(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_only_leak_on_the_unprotected_baseline() {
        let mut leaks = 0;
        for g in gadget::all() {
            for s in SecureConfig::ALL {
                if expected_verdict(&g, s) == Verdict::Leaks {
                    leaks += 1;
                    assert!(g.transmit);
                    assert_eq!(s, SecureConfig::unsafe_baseline());
                }
            }
        }
        assert_eq!(leaks, 3, "three transmit gadgets leak on the baseline");
    }
}
