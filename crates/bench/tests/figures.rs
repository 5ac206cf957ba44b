//! Figures 4–11 rendered from one plan at quick scale: the text must
//! equal, byte for byte, the committed golden (the figures' stdout as
//! the eight former per-figure harnesses printed it), and the paper's
//! shape verdicts must hold on the same results, with no extra runs.

use std::sync::OnceLock;

use recon_bench::figures::{self, Results};
use recon_secure::SecureConfig;
use recon_workloads::Scale;

const GOLDEN: &str = include_str!("golden/figures_quick.txt");

fn results() -> &'static Results {
    static RESULTS: OnceLock<Results> = OnceLock::new();
    RESULTS.get_or_init(|| Results::run(Scale::Quick, recon_bench::jobs_from_env()))
}

#[test]
fn figures_match_the_golden_byte_for_byte() {
    let text = figures::render(results());
    if let Some((i, (got, want))) = (text.lines().zip(GOLDEN.lines()))
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}: got\n{got}\nwant\n{want}", i + 1);
    }
    assert_eq!(text, GOLDEN, "same lines, different length or line ends");
}

#[test]
fn each_distinct_cell_runs_once() {
    let r = results();
    // SPEC2017: the five schemes, ReCon at L1 and at L1+L2, and the
    // LPT at /4, /16, /32 and /64 (all levels and the full LPT are the
    // default STT+ReCon): 11 runs each. SPEC2006 and PARSEC: the five
    // schemes. Every single-thread SPEC stand-in: one DIFT analysis.
    assert_eq!(r.batch.job_count(), 20 * 11 + 17 * 5 + 8 * 5);
    assert_eq!(r.leaks.len(), 20 + 17);
}

#[test]
fn shape_verdicts_hold() {
    let r = results();
    let pairs = [
        [SecureConfig::nda(), SecureConfig::nda_recon()],
        [SecureConfig::stt(), SecureConfig::stt_recon()],
    ];
    for pair in pairs {
        for suite in [&r.suites.spec2017, &r.suites.spec2006] {
            let [o, or] = figures::pair_overheads(r, suite, pair);
            assert!(or <= o, "{}: ReCon overhead {or} above {o}", pair[0]);
        }
    }
    let reduction = figures::fig07_mean_reduction(r);
    assert!(
        reduction > 0.0,
        "Figure 7: tainted loads fell by {reduction}"
    );
    let levels = figures::fig10_mean_overheads(r);
    assert!(
        levels.windows(2).all(|w| w[1] <= w[0]),
        "Figure 10: overhead rises with coverage: {levels:?}"
    );
    let corr = figures::fig09_correlation(r);
    assert!(corr > 0.0, "Figure 9: correlation {corr}");
}
