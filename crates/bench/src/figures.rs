//! Figures 4–11 of the paper, rendered from one plan.
//!
//! Each figure declares the detailed runs (cells) and the DIFT analyses
//! it reads, and renders its text from the shared [`Results`].
//! [`Results::run`] runs the union once: each distinct (experiment,
//! benchmark, scheme) cell through [`run_cells`] and one analysis per
//! benchmark, so the baseline, STT and STT+ReCon cells that Figures 5,
//! 6, 7, 9, 10 and 11 all read run once.

use std::collections::HashSet;

use recon::{LptSize, ReconLevels};
use recon_cpu::CoreConfig;
use recon_dift::{analyze_program, LeakReport};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::report::{norm, pct, Table};
use recon_sim::{mean, overhead_from_norm_ipc as overhead, overhead_reduction, parallel_map};
use recon_sim::{run_cells, BatchResults, Budget, Experiment, SchemeMatrix, SystemResult};
use recon_workloads::{parsec, spec2006, spec2017, Benchmark, Scale, Suite, FIG9_BENCHMARKS};

use crate::heading;

/// One detailed run: a benchmark under a scheme in an experiment.
type Cell<'a> = (Experiment, &'a Benchmark, SecureConfig);

/// A figure: the cells it reads, the benchmarks whose DIFT analysis it
/// reads, and its text.
struct Figure(
    fn(&Suites) -> Vec<Cell<'_>>,
    fn(&Suites) -> Vec<&Benchmark>,
    fn(&Results) -> String,
);

/// Figures 4–11, in print order.
const FIGURES: [Figure; 8] = [
    Figure(|_| Vec::new(), fig04_analyses, fig04),
    Figure(spec_matrices, |_| Vec::new(), fig05),
    Figure(spec_matrices, |_| Vec::new(), fig06),
    Figure(spec2017_matrices, |_| Vec::new(), fig07),
    Figure(|s| matrices(multicore(), &s.parsec), |_| Vec::new(), fig08),
    Figure(fig09_cells, fig09_analyses, fig09),
    Figure(fig10_cells, |_| Vec::new(), fig10),
    Figure(fig11_cells, |_| Vec::new(), fig11),
];

/// The stand-in suites at one scale, generated once.
pub struct Suites {
    /// The SPEC CPU2017 stand-ins.
    pub spec2017: Vec<Benchmark>,
    /// The SPEC CPU2006 stand-ins.
    pub spec2006: Vec<Benchmark>,
    /// The 4-thread PARSEC stand-ins.
    pub parsec: Vec<Benchmark>,
}

/// Every cell and analysis of every figure, each run once.
pub struct Results {
    /// The suites the cells ran on.
    pub suites: Suites,
    /// One entry per distinct cell.
    pub batch: BatchResults,
    /// One DIFT analysis per distinct benchmark.
    pub leaks: Vec<(Suite, &'static str, LeakReport)>,
}

impl Results {
    /// Runs the union of the figures' cells and analyses at `scale` on
    /// `jobs` workers.
    ///
    /// # Panics
    ///
    /// If a run fails or an analysis does not terminate.
    #[must_use]
    pub fn run(scale: Scale, jobs: usize) -> Results {
        let suites = Suites {
            spec2017: spec2017(scale),
            spec2006: spec2006(scale),
            parsec: parsec(scale),
        };
        let cells = FIGURES.iter().flat_map(|f| (f.0)(&suites));
        let batch = run_cells(cells, jobs, &Budget::default(), None);
        assert_eq!(batch.failed_count(), 0, "{:?}", batch.failures());
        let mut benches: Vec<_> = FIGURES.iter().flat_map(|f| (f.1)(&suites)).collect();
        let mut seen = HashSet::new();
        benches.retain(|b| seen.insert((b.suite, b.name)));
        let leaks = parallel_map(jobs, benches, |b| {
            let report = analyze_program(&b.workload.program, 100_000_000);
            (b.suite, b.name, report.expect("stand-ins terminate"))
        });
        Results {
            suites,
            batch,
            leaks,
        }
    }

    /// The matrix of `b` in the default experiment.
    fn base(&self, b: &Benchmark) -> SchemeMatrix {
        self.matrix(&Experiment::default(), b)
    }

    fn matrix(&self, exp: &Experiment, b: &Benchmark) -> SchemeMatrix {
        (self.batch.matrix(exp, b)).unwrap_or_else(|| panic!("no matrix of {}", b.name))
    }

    fn run_of(&self, exp: &Experiment, b: &Benchmark, scheme: SecureConfig) -> &SystemResult {
        (self.batch.cell(exp, b, scheme)).unwrap_or_else(|| panic!("no run of {}", b.name))
    }

    fn leak(&self, b: &Benchmark) -> &LeakReport {
        let hit = self.leaks.iter().find(|l| (l.0, l.1) == (b.suite, b.name));
        &hit.unwrap_or_else(|| panic!("no analysis of {}", b.name)).2
    }
}

/// Every figure's text, in print order.
#[must_use]
pub fn render(results: &Results) -> String {
    FIGURES.iter().map(|f| (f.2)(results)).collect()
}

/// The five-scheme matrix of each of `benches` in `exp`.
fn matrices<'a>(
    exp: Experiment,
    benches: impl IntoIterator<Item = &'a Benchmark>,
) -> Vec<Cell<'a>> {
    let cells = benches
        .into_iter()
        .map(|b| SecureConfig::ALL.map(|c| (exp, b, c)));
    cells.flatten().collect()
}

/// The mean overhead of each column of normalized IPCs.
fn mean_overheads<const N: usize>(norms: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|i| mean(&norms.iter().map(|n| overhead(n[i])).collect::<Vec<_>>()))
}

/// A table row: the benchmark name, then `cells`.
fn row(name: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(name.to_string()).chain(cells).collect()
}

/// Figure 4: leakage of the single-thread SPEC stand-ins, global DIFT
/// vs direct load pairs.
fn fig04_analyses(s: &Suites) -> Vec<&Benchmark> {
    let benches = s.spec2017.iter().chain(&s.spec2006);
    benches.filter(|b| b.workload.num_threads() == 1).collect()
}

fn fig04(r: &Results) -> String {
    let mut t = Table::new(&["benchmark", "DIFT", "pairs", "coverage", "touched words"]);
    let (mut difts, mut pairs, mut leaked) = (vec![], vec![], [0u64; 2]);
    for b in fig04_analyses(&r.suites) {
        let l = r.leak(b);
        difts.push(l.dift_fraction());
        pairs.push(l.pair_fraction());
        leaked[0] += l.pair_leaked as u64;
        leaked[1] += l.dift_leaked as u64;
        let fractions = [l.dift_fraction(), l.pair_fraction(), l.coverage()].map(pct);
        let (name, touched) = (
            format!("{} ({})", b.name, b.suite),
            l.touched_words.to_string(),
        );
        t.row(&row(&name, fractions.into_iter().chain([touched])));
    }
    let (d, p) = (pct(mean(&difts)), pct(mean(&pairs)));
    let aggregate = pct(leaked[0] as f64 / leaked[1].max(1) as f64);
    heading(
        "Figure 4: leakage breakdown (global DIFT vs direct load pairs)",
        "avg 53% of address space leaks (DIFT), 32% via load pairs (=60% coverage)",
    ) + &t.render()
        + &format!("\nmeasured averages: DIFT {d} of address space, pairs {p}; ")
        + &format!("aggregate coverage {aggregate}\n")
        + "paper:             DIFT 53%, pairs 32%, coverage ~60%\n"
}

/// Figures 5 and 6: the five-scheme matrices of the SPEC stand-ins.
fn spec_matrices(s: &Suites) -> Vec<Cell<'_>> {
    matrices(Experiment::default(), s.spec2017.iter().chain(&s.spec2006))
}

/// Per benchmark of `benches`, the normalized IPC under each scheme of
/// `pair` (a plain scheme and its ReCon stack).
fn pair_norms(r: &Results, benches: &[Benchmark], pair: [SecureConfig; 2]) -> Vec<[f64; 2]> {
    let exp = Experiment::default();
    let norms = |b| pair.map(|s| r.base(b).normalized_ipc(r.run_of(&exp, b, s)));
    benches.iter().map(norms).collect()
}

/// The mean IPC overhead under each scheme of `pair` over `benches`
/// (Figures 5 and 6).
#[must_use]
pub fn pair_overheads(r: &Results, benches: &[Benchmark], pair: [SecureConfig; 2]) -> [f64; 2] {
    mean_overheads(&pair_norms(r, benches, pair))
}

/// Per SPEC suite, the normalized IPC table and mean overheads of the
/// plain scheme of `pair` (labelled `label`) and its ReCon stack.
fn pair_figure(r: &Results, pair: [SecureConfig; 2], label: &str) -> String {
    let mut out = String::new();
    let suites = [
        (Suite::Spec2017, &r.suites.spec2017),
        (Suite::Spec2006, &r.suites.spec2006),
    ];
    for (suite, benches) in suites {
        let mut t = Table::new(&["benchmark", label, &format!("{label}+ReCon")]);
        for (b, n) in benches.iter().zip(pair_norms(r, benches, pair)) {
            t.row(&row(b.name, n.map(norm)));
        }
        let [o, or] = pair_overheads(r, benches, pair);
        let [o, or, less] = [o, or, overhead_reduction(o, or)].map(pct);
        out += &format!(
            "\n--- {suite} ---\n{}mean overhead: {label} {o} ",
            t.render()
        );
        out += &format!("-> {label}+ReCon {or}  (overhead reduced by {less})\n");
    }
    out
}

fn fig05(r: &Results) -> String {
    heading(
        "Figure 5: normalized IPC, NDA and NDA+ReCon",
        "SPEC2017: NDA -13.2% -> NDA+ReCon -9.4% (28.7% less overhead); \
         SPEC2006: -10.4% -> -7.2% (31.5%)",
    ) + &pair_figure(r, [SecureConfig::nda(), SecureConfig::nda_recon()], "NDA")
}

fn fig06(r: &Results) -> String {
    heading(
        "Figure 6: normalized IPC, STT and STT+ReCon",
        "SPEC2017: STT -8.9% -> STT+ReCon -4.9% (45.1% less overhead); \
         SPEC2006: -8.1% -> -5.0% (39%)",
    ) + &pair_figure(r, [SecureConfig::stt(), SecureConfig::stt_recon()], "STT")
}

/// Figure 7: tainted loads of STT+ReCon normalized to STT (SPEC2017).
fn spec2017_matrices(s: &Suites) -> Vec<Cell<'_>> {
    matrices(Experiment::default(), &s.spec2017)
}

/// Figure 7's mean reduction in tainted loads, over the SPEC2017
/// stand-ins that taint any under STT.
#[must_use]
pub fn fig07_mean_reduction(r: &Results) -> f64 {
    let ms = r.suites.spec2017.iter().map(|b| r.base(b));
    let tainting = ms.filter(|m| m.stt.guarded_loads() > 0);
    1.0 - mean(&tainting.map(|m| m.tainted_load_ratio()).collect::<Vec<_>>())
}

fn fig07(r: &Results) -> String {
    let mut t = Table::new(&["benchmark", "STT tainted", "STT+ReCon tainted", "ratio"]);
    for b in &r.suites.spec2017 {
        let m = r.base(b);
        let tainted = [&m.stt, &m.stt_recon].map(|s| s.guarded_loads().to_string());
        let ratio = norm(m.tainted_load_ratio());
        t.row(&row(b.name, tainted.into_iter().chain([ratio])));
    }
    heading(
        "Figure 7: tainted (guarded) committed loads, STT+ReCon / STT",
        "43.8% fewer tainted loads on average across SPEC2017",
    ) + &t.render()
        + "\nmean reduction in tainted loads (benchmarks with tainted loads): "
        + &pct(fig07_mean_reduction(r))
        + "\npaper: 43.8% average reduction\n"
}

/// Figure 8: PARSEC normalized execution time on the 4-core system.
fn multicore() -> Experiment {
    Experiment {
        mem: MemConfig::scaled_multicore(),
        ..Experiment::default()
    }
}

fn fig08(r: &Results) -> String {
    let mut t = Table::new(&["benchmark", "NDA", "NDA+ReCon", "STT", "STT+ReCon"]);
    let mut overheads = [vec![], vec![], vec![], vec![]];
    for b in &r.suites.parsec {
        let m = r.matrix(&multicore(), b);
        let times = [&m.nda, &m.nda_recon, &m.stt, &m.stt_recon].map(|s| m.normalized_time(s));
        (0..4).for_each(|i| overheads[i].push(times[i] - 1.0));
        t.row(&row(b.name, times.map(norm)));
    }
    let [on, onr, os, osr] = overheads.map(|o| mean(&o));
    let less = |o, or| {
        let [o, or, less] = [o, or, overhead_reduction(o, or)].map(pct);
        format!("{o} -> {or} with ReCon ({less} less)\n")
    };
    heading(
        "Figure 8: PARSEC normalized execution time (4 cores)",
        "NDA +9.7% -> +5.2% with ReCon (46.7% less); STT +4.4% -> +1.0% (78.6% less)",
    ) + &t.render()
        + "\nmean time overhead: NDA "
        + &less(on, onr)
        + "                    STT "
        + &less(os, osr)
        + "paper: NDA +9.7% -> +5.2% (46.7%); STT +4.4% -> +1.0% (78.6%)\n"
}

/// Figure 9: pair-leakage coverage vs STT overhead reduction, for the
/// SPEC2017 stand-ins with > 5% STT degradation.
fn fig09_analyses(s: &Suites) -> Vec<&Benchmark> {
    let find = |n| s.spec2017.iter().find(|b| b.name == n);
    FIG9_BENCHMARKS
        .map(|n| find(n).expect("fig9 benchmark exists"))
        .into()
}

fn fig09_cells(s: &Suites) -> Vec<Cell<'_>> {
    matrices(Experiment::default(), fig09_analyses(s))
}

/// (benchmark, pair coverage, overhead reduction, STT overhead), sorted
/// by overhead reduction as in the paper (left to right).
fn fig09_rows(r: &Results) -> Vec<(&'static str, f64, f64, f64)> {
    let mut rows: Vec<_> = (fig09_analyses(&r.suites).into_iter())
        .map(|b| {
            let m = r.base(b);
            let o = overhead(m.normalized_ipc(&m.stt));
            let or = overhead(m.normalized_ipc(&m.stt_recon));
            (b.name, r.leak(b).coverage(), overhead_reduction(o, or), o)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

/// Figure 9's Pearson correlation between pair coverage and overhead
/// reduction.
#[must_use]
pub fn fig09_correlation(r: &Results) -> f64 {
    let rows = fig09_rows(r);
    let n = rows.len() as f64;
    let mean_c = rows.iter().map(|r| r.1).sum::<f64>() / n;
    let mean_r = rows.iter().map(|r| r.2).sum::<f64>() / n;
    let cov = rows.iter().map(|r| (r.1 - mean_c) * (r.2 - mean_r));
    let cov = cov.sum::<f64>() / n;
    let sc = (rows.iter().map(|r| (r.1 - mean_c).powi(2)).sum::<f64>() / n).sqrt();
    let sr = (rows.iter().map(|r| (r.2 - mean_r).powi(2)).sum::<f64>() / n).sqrt();
    if sc * sr == 0.0 {
        0.0
    } else {
        cov / (sc * sr)
    }
}

fn fig09(r: &Results) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "pair/DIFT coverage",
        "overhead reduction",
        "STT overhead",
    ]);
    for (name, cover, reduction, o) in fig09_rows(r) {
        t.row(&row(name, [cover, reduction, o].map(pct)));
    }
    heading(
        "Figure 9: pair-leakage coverage vs STT overhead reduction",
        "benchmarks sorted by overhead reduction; recovery tracks coverage",
    ) + &t.render()
        + "\nPearson correlation (coverage vs reduction): "
        + &norm(fig09_correlation(r))
        + "\npaper: positive correlation; low-coverage benchmarks recover least\n"
}

/// Figure 10: STT+ReCon with reveal masks kept at `levels` (SPEC2017);
/// all levels is the default.
fn at_levels(levels: ReconLevels) -> Experiment {
    let mut exp = Experiment::default();
    exp.recon.levels = levels;
    exp
}

fn fig10_cells(s: &Suites) -> Vec<Cell<'_>> {
    let mut cells = spec2017_matrices(s);
    for b in &s.spec2017 {
        cells.extend(ReconLevels::ALL.map(|l| (at_levels(l), b, SecureConfig::stt_recon())));
    }
    cells
}

/// Normalized IPC of `b` under STT, then under STT+ReCon at each of
/// [`ReconLevels::ALL`].
fn fig10_norms(r: &Results, b: &Benchmark) -> [f64; 4] {
    let m = r.base(b);
    let [l1, l2, all] =
        ReconLevels::ALL.map(|l| r.run_of(&at_levels(l), b, SecureConfig::stt_recon()));
    [&m.stt, l1, l2, all].map(|s| m.normalized_ipc(s))
}

/// Figure 10's mean IPC overhead over the SPEC2017 stand-ins under STT,
/// then under STT+ReCon at L1, L1+L2 and all levels.
#[must_use]
pub fn fig10_mean_overheads(r: &Results) -> [f64; 4] {
    let norms: Vec<_> = r
        .suites
        .spec2017
        .iter()
        .map(|b| fig10_norms(r, b))
        .collect();
    mean_overheads(&norms)
}

fn fig10(r: &Results) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "STT",
        "+ReCon L1",
        "+ReCon L1+L2",
        "+ReCon all",
    ]);
    for b in &r.suites.spec2017 {
        t.row(&row(b.name, fig10_norms(r, b).map(norm)));
    }
    let [stt, l1, l2, all] = fig10_mean_overheads(r).map(pct);
    heading(
        "Figure 10: ReCon applied to different cache levels (STT, SPEC2017)",
        "STT 8.9% overhead -> 7.3% (L1), 6.3% (L1+L2), 4.9% (all levels)",
    ) + &t.render()
        + &format!("\nmean overhead: STT {stt} -> L1 {l1} -> L1+L2 {l2} -> all levels {all}\n")
        + "paper: 8.9% -> 7.3% -> 6.3% -> 4.9%\n"
}

/// Figure 11: STT+ReCon with a tagged LPT of `num_pregs / divisor`
/// entries (SPEC2017). The full table is the default `LptSize::Full`,
/// one entry per physical register: as many as `Entries(num_pregs)`,
/// and every stand-in's result is equal under both.
fn lpt(divisor: usize) -> Experiment {
    let mut exp = Experiment::default();
    exp.recon.lpt_size = LptSize::Entries((CoreConfig::paper().num_pregs / divisor).max(1));
    exp
}

const LPT_DIVISORS: [usize; 4] = [4, 16, 32, 64];

fn fig11_cells(s: &Suites) -> Vec<Cell<'_>> {
    let mut cells = spec2017_matrices(s);
    for b in &s.spec2017 {
        cells.extend(LPT_DIVISORS.map(|d| (lpt(d), b, SecureConfig::stt_recon())));
    }
    cells
}

fn fig11(r: &Results) -> String {
    let mut t = Table::new(&[
        "benchmark",
        "STT",
        "LPT full",
        "LPT/4",
        "LPT/16",
        "LPT/32",
        "LPT/64",
        "conflicts@/64",
    ]);
    for b in &r.suites.spec2017 {
        let m = r.base(b);
        let sized = LPT_DIVISORS.map(|d| r.run_of(&lpt(d), b, SecureConfig::stt_recon()));
        let norms = [&m.stt, &m.stt_recon]
            .into_iter()
            .chain(sized)
            .map(|s| norm(m.normalized_ipc(s)));
        let conflicts = sized[3].cores[0].lpt.tag_conflicts.to_string();
        t.row(&row(b.name, norms.chain([conflicts])));
    }
    heading(
        "Figure 11: LPT size sensitivity (STT+ReCon, SPEC2017)",
        "LPT can shrink to 1/64 of the register count with marginal loss (mcf first to suffer)",
    ) + &t.render()
        + "
paper: all sizes within noise of each other except mcf, which
degrades with every halving as tag conflicts lose reveal chances.

note: tag conflicts do occur at small sizes (rightmost column) but
cost even less here than in the paper — pairs commit back-to-back
and a reveal lost to a conflict is usually re-established on the
next reuse of the pointer (see EXPERIMENTS.md).
"
}
