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
//! | `figures`  | Figures 4–11 from one deduplicated run of their cells ([`figures`]) |
//! | `overhead` | §6.7 — storage-overhead accounting |
//! | `components` | substrate microbenches (LPT, mask, cache, bpred, DIFT, `memcmp`, `dircmp`); simulated MIPS is `examples/benchmark`'s |
//!
//! Set `RECON_SCALE=paper` for longer (×4) workloads, and `RECON_JOBS`
//! to pin the worker count the harnesses use (default: all cores).

#![warn(missing_docs)]

pub mod figures;

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

/// The standard banner of a harness, as text.
#[must_use]
pub fn heading(what: &str, paper_says: &str) -> String {
    let rule = "================================================================";
    format!("\n{rule}\nReproducing {what}\nPaper reference: {paper_says}\n{rule}\n")
}

/// Prints the standard banner for a harness.
pub fn banner(what: &str, paper_says: &str) {
    print!("{}", heading(what, paper_says));
}
