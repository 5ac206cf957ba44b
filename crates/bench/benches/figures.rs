//! Figures 4–11 of the paper from one run of their cells: every
//! distinct simulation and DIFT analysis the eight figures read runs
//! once (see `recon_bench::figures`), then the figures print in order.
//! `RECON_SCALE=paper` selects the ×4 workloads and `RECON_JOBS` the
//! worker count; the text is the same for any worker count.

use recon_bench::figures::{render, Results};
use recon_workloads::Scale;

fn main() {
    let results = Results::run(Scale::from_env(), recon_bench::jobs_from_env());
    print!("{}", render(&results));
}
