//! # recon-bench
//!
//! Benchmark harnesses that regenerate **every table and figure** of the
//! ReCon paper's evaluation (§6). Each `cargo bench` target prints the
//! same rows/series the paper reports, using the synthetic stand-in
//! suites (see `DESIGN.md` for the substitution rationale and
//! `EXPERIMENTS.md` for paper-vs-measured results):
//!
//! | target     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — store-forwarding observability cases |
//! | `table2`   | Table 2 — system configuration |
//! | `fig04`    | Figure 4 — leakage breakdown (DIFT vs load pairs) |
//! | `fig05`    | Figure 5 — NDA / NDA+ReCon normalized IPC |
//! | `fig06`    | Figure 6 — STT / STT+ReCon normalized IPC |
//! | `fig07`    | Figure 7 — tainted loads, STT+ReCon vs STT |
//! | `fig08`    | Figure 8 — PARSEC normalized execution time |
//! | `fig09`    | Figure 9 — leakage coverage vs overhead reduction |
//! | `fig10`    | Figure 10 — ReCon at L1 / L1+L2 / all levels |
//! | `fig11`    | Figure 11 — LPT size sensitivity |
//! | `overhead` | §6.7 — storage-overhead accounting |
//! | `components` | substrate microbenches (LPT, mask, cache, bpred, DIFT, `memcmp`, `dircmp`); simulated MIPS is `examples/benchmark`'s |
//!
//! Set `RECON_SCALE=paper` for longer (×4) workloads, and `RECON_JOBS`
//! to pin the worker count the harnesses use (default: all cores).

#![warn(missing_docs)]

use recon_secure::SecureConfig;
use recon_sim::{BatchResults, Experiment, SystemResult};
use recon_workloads::{Benchmark, Scale};

/// Worker count from `RECON_JOBS` for the standalone bench harnesses:
/// like [`recon_sim::jobs_from_env`] but exiting with a clear message
/// on an invalid value instead of returning an error (the harnesses
/// have no other error channel).
#[must_use]
pub fn jobs_from_env() -> usize {
    match recon_sim::jobs_from_env() {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Reads the workload scale from `RECON_SCALE` (`quick` default,
/// `paper` for ×4 runs).
#[must_use]
pub fn scale_from_env() -> Scale {
    Scale::from_env()
}

/// Per-benchmark results for one scheme pair (base scheme and +ReCon).
#[derive(Clone, Debug)]
pub struct PairRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline (unsafe) result.
    pub base: SystemResult,
    /// The plain secure scheme.
    pub scheme: SystemResult,
    /// The secure scheme with ReCon.
    pub with_recon: SystemResult,
}

impl PairRow {
    /// Normalized IPC of the plain scheme (0 when the baseline ran no
    /// instructions, matching `SchemeMatrix::normalized_ipc`).
    #[must_use]
    pub fn norm_scheme(&self) -> f64 {
        norm_ipc(&self.scheme, &self.base)
    }

    /// Normalized IPC of the scheme with ReCon.
    #[must_use]
    pub fn norm_recon(&self) -> f64 {
        norm_ipc(&self.with_recon, &self.base)
    }
}

fn norm_ipc(result: &SystemResult, base: &SystemResult) -> f64 {
    let b = base.ipc();
    if b == 0.0 {
        0.0
    } else {
        result.ipc() / b
    }
}

/// Runs `benchmarks` under baseline, `scheme`, and `scheme`+ReCon on
/// [`jobs_from_env`] worker threads.
#[must_use]
pub fn run_pairs(exp: &Experiment, benchmarks: &[Benchmark], scheme: SecureConfig) -> Vec<PairRow> {
    run_pairs_jobs(exp, benchmarks, scheme, jobs_from_env()).0
}

/// Like [`run_pairs`] with an explicit worker count, also returning the
/// batch timing report. Row order matches `benchmarks` for any `jobs`.
#[must_use]
pub fn run_pairs_jobs(
    exp: &Experiment,
    benchmarks: &[Benchmark],
    scheme: SecureConfig,
    jobs: usize,
) -> (Vec<PairRow>, BatchResults) {
    let scheme = SecureConfig {
        recon: false,
        ..scheme
    };
    let recon = SecureConfig {
        recon: true,
        ..scheme
    };
    let configs = [SecureConfig::unsafe_baseline(), scheme, recon];
    let batch = recon_sim::run_batch(exp, benchmarks, &configs, jobs);
    let rows = benchmarks
        .iter()
        .map(|b| PairRow {
            name: b.name,
            base: batch
                .expect(b.name, SecureConfig::unsafe_baseline())
                .clone(),
            scheme: batch.expect(b.name, scheme).clone(),
            with_recon: batch.expect(b.name, recon).clone(),
        })
        .collect();
    (rows, batch)
}

/// Mean IPC overhead (1 − normalized IPC, clamped at 0) over rows.
#[must_use]
pub fn mean_overhead(rows: &[PairRow], recon: bool) -> f64 {
    let overheads: Vec<f64> = rows
        .iter()
        .map(|r| {
            let n = if recon {
                r.norm_recon()
            } else {
                r.norm_scheme()
            };
            (1.0 - n).max(0.0)
        })
        .collect();
    recon_sim::mean(&overheads)
}

/// Prints the standard banner for a figure harness.
pub fn banner(what: &str, paper_says: &str) {
    println!();
    println!("================================================================");
    println!("Reproducing {what}");
    println!("Paper reference: {paper_says}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_default_is_quick() {
        // (Does not set the variable; relies on the default branch.)
        assert!(matches!(scale_from_env(), Scale::Quick | Scale::Paper));
    }

    #[test]
    fn mean_overhead_empty_is_zero() {
        assert_eq!(mean_overhead(&[], false), 0.0);
    }
}
