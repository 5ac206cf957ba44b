//! Leakage reports: the Figure 4 metrics.

use recon_isa::Program;

use crate::taint::LeakageAnalysis;

/// Summary of a program's non-speculative leakage.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeakReport {
    /// Distinct words the program touched.
    pub touched_words: usize,
    /// Words ever identified as leakage points by global DIFT.
    pub dift_leaked: usize,
    /// Words ever identified as leakage points by direct load pairs
    /// (a subset of `dift_leaked`).
    pub pair_leaked: usize,
    /// Committed instructions analyzed.
    pub instructions: u64,
}

impl LeakReport {
    /// Fraction of the touched address space leaked under global DIFT
    /// (Figure 4's full bars).
    #[must_use]
    pub fn dift_fraction(&self) -> f64 {
        ratio(self.dift_leaked, self.touched_words)
    }

    /// Fraction of the touched address space leaked via direct load
    /// pairs (Figure 4's hatched bars).
    #[must_use]
    pub fn pair_fraction(&self) -> f64 {
        ratio(self.pair_leaked, self.touched_words)
    }

    /// Ratio of pair-captured leakage to all DIFT leakage — the
    /// "coverage" metric of Figure 9 (1.0 = every leak is a load pair).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        ratio(self.pair_leaked, self.dift_leaked)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs a program functionally and analyzes its leakage.
///
/// # Errors
///
/// Returns an error if the program faults (misaligned access or runaway
/// `pc`) before halting.
pub fn analyze_program(
    program: &Program,
    max_steps: usize,
) -> Result<LeakReport, recon_isa::ExecError> {
    analyze_program_budgeted(program, max_steps).map(|(report, _)| report)
}

/// As [`analyze_program`], but also reports whether the program halted
/// within `max_steps`. `false` means the report covers only a prefix of
/// the execution — a *partial* result, which deadline-aware callers
/// (`recon serve` analyze jobs with a fuel budget) report as such
/// instead of presenting truncated metrics as final.
///
/// # Errors
///
/// As [`analyze_program`].
pub fn analyze_program_budgeted(
    program: &Program,
    max_steps: usize,
) -> Result<(LeakReport, bool), recon_isa::ExecError> {
    let mut mem = recon_isa::SparseMem::from_image(&program.image);
    let mut state = recon_isa::ArchState::at_entry(program);
    let mut la = LeakageAnalysis::new();
    let n = recon_isa::run_with(program, &mut state, &mut mem, max_steps as u64, |rec| {
        la.observe(rec);
    })?;
    Ok((
        LeakReport {
            touched_words: la.touched_words(),
            dift_leaked: la.dift_leaked_ever(),
            pair_leaked: la.pair_leaked_ever(),
            instructions: n,
        },
        state.halted,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::reg::names::*;
    use recon_isa::Asm;

    #[test]
    fn pointer_chase_has_full_coverage() {
        // Pure pointer chasing: every DIFT leak is a direct pair.
        let mut a = Asm::new();
        for i in 0..8u64 {
            a.data(0x1000 + i * 8, 0x1000 + ((i + 1) % 8) * 8);
        }
        a.li(R1, 0x1000);
        for _ in 0..8 {
            a.load(R1, R1, 0);
        }
        a.halt();
        let r = analyze_program(&a.assemble().unwrap(), 10_000).unwrap();
        assert_eq!(r.dift_leaked, r.pair_leaked);
        assert!((r.coverage() - 1.0).abs() < 1e-12);
        // 7 of the 8 loaded values were themselves dereferenced (the
        // last chase's value never becomes an address).
        assert!(r.dift_fraction() > 0.8, "got {}", r.dift_fraction());
    }

    #[test]
    fn streaming_leaks_nothing() {
        let mut a = Asm::new();
        for i in 0..8u64 {
            a.data(0x1000 + i * 8, i);
        }
        a.li(R1, 0x1000).li(R5, 0);
        for i in 0..8i64 {
            a.load(R2, R1, i * 8);
            a.add(R5, R5, R2);
        }
        a.halt();
        let r = analyze_program(&a.assemble().unwrap(), 10_000).unwrap();
        assert_eq!(r.dift_leaked, 0);
        assert_eq!(r.pair_leaked, 0);
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn empty_report_has_zero_fractions() {
        let r = LeakReport {
            touched_words: 0,
            dift_leaked: 0,
            pair_leaked: 0,
            instructions: 0,
        };
        assert_eq!(r.dift_fraction(), 0.0);
        assert_eq!(r.pair_fraction(), 0.0);
    }
}
