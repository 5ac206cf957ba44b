//! Named SPEC2017 / SPEC2006 / PARSEC stand-in benchmarks.
//!
//! Each entry names the benchmark it stands in for and instantiates a
//! generator with parameters chosen to mimic that benchmark's *character*
//! relevant to the ReCon evaluation: pointer-dereference rate, pointer
//! reuse, working-set size, branchiness, and store rate. See DESIGN.md
//! for the substitution rationale (absolute IPC is not preserved; the
//! relative behaviour under NDA/STT/ReCon is).
//!
//! The knobs that map to the paper's observations:
//!
//! * pointer-heavy + reusing (`xalancbmk`, `mcf`, `omnetpp`, `gcc`) —
//!   large STT/NDA losses, large ReCon recovery;
//! * streaming (`lbm`, `bwaves`, `imagick`) — no loss, nothing to recover;
//! * indirect-address (`cactuBSSN`, `deepsjeng`, `soplex`) — losses whose
//!   leakage is *not* direct load pairs: ReCon recovers little
//!   (Figure 9's low-ratio points);
//! * working sets larger than L1/L2 (`mcf`, `omnetpp`) — need reveal
//!   masks at L2/LLC to benefit (Figure 10).

use crate::gen::branchy::{self, BranchyParams};
use crate::gen::btree::{self, BtreeParams};
use crate::gen::gadget::{self, GadgetParams};
use crate::gen::hash::{self, HashParams};
use crate::gen::list::{self, ListParams};
use crate::gen::parallel::{self, ParKind, ParallelParams};
use crate::gen::stencil::{self, StencilParams};
use crate::gen::stream::{self, StreamParams};
use crate::workload::{Benchmark, Suite, ThreadSpec, Workload};

/// Workload sizing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// Short runs for tests and quick sweeps (tens of thousands of
    /// dynamic instructions).
    #[default]
    Quick,
    /// Longer runs for the figure harnesses (hundreds of thousands).
    Paper,
}

impl Scale {
    /// Multiplier applied to pass/iteration counts.
    #[must_use]
    pub fn factor(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Paper => 4,
        }
    }

    /// The scale's name (`quick` or `paper`), as `RECON_SCALE` spells
    /// it and as job digests and checkpoint keys record it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Reads the scale from the `RECON_SCALE` environment variable
    /// (`paper` for ×4 runs; anything else is [`Scale::Quick`]). The
    /// single source of truth for every harness and the CLI.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("RECON_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// One named stand-in: its name and how to build its workload at a
/// scale (the builder gets the name back, to seed from it).
type Entry = (&'static str, fn(&str, Scale) -> Workload);

fn gadget(
    name: &str,
    scale: Scale,
    slots: u64,
    cond_lines: u64,
    passes: u64,
    extra: impl FnOnce(&mut GadgetParams),
) -> Workload {
    let mut p = GadgetParams {
        slots,
        cond_lines,
        passes: passes * scale.factor(),
        seed: fxhash(name),
        ..GadgetParams::default()
    };
    extra(&mut p);
    Workload::single(gadget::generate(p))
}

fn stream(elements: u64, passes: u64, writes: bool) -> Workload {
    Workload::single(stream::generate(StreamParams {
        elements,
        passes,
        writes,
        ..Default::default()
    }))
}

fn stencil(points: u64, sweeps: u64) -> Workload {
    Workload::single(stencil::generate(StencilParams { points, sweeps }))
}

fn branchy(values: u64, iterations: u64, seed: &str) -> Workload {
    Workload::single(branchy::generate(BranchyParams {
        values,
        iterations,
        seed: fxhash(seed),
    }))
}

fn btree(height: u32, searches: u64, seed: &str) -> Workload {
    Workload::single(btree::generate(BtreeParams {
        height,
        searches,
        seed: fxhash(seed),
    }))
}

fn hash(buckets: u64, lookups: u64, keys: u64, cond_lines: u64, seed: &str) -> Workload {
    Workload::single(hash::generate(HashParams {
        buckets,
        lookups,
        keys,
        cond_lines,
        seed: fxhash(seed),
    }))
}

fn list(visits: u64, seed: &str) -> Workload {
    Workload::single(list::generate(ListParams {
        nodes: 2048, // 128 KiB of nodes: beyond L2, fits the LLC
        chains: 8,
        visits, // 4 traversals of each 256-node ring at quick scale
        cond_lines: 16384,
        payload_slots: 512,
        seed: fxhash(seed),
    }))
}

fn par(
    name: &str,
    scale: Scale,
    kind: ParKind,
    slots: u64,
    cond_lines: u64,
    passes: u64,
) -> Workload {
    parallel::generate(ParallelParams {
        kind,
        slots,
        cond_lines,
        passes: passes * scale.factor(),
        seed: fxhash(name),
    })
}

/// Cheap deterministic per-name seed.
fn fxhash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The SPEC CPU2017 speed stand-ins, in suite order.
const SPEC2017: &[Entry] = &[
    ("bwaves", |_, s| stream(8192, 2 * s.factor(), false)),
    ("cactuBSSN", |n, s| {
        gadget(n, s, 1024, 16384, 4, |p| {
            p.indirect_per_16 = 16;
            p.tgt_stride = 64;
        })
    }),
    ("deepsjeng", |n, s| {
        gadget(n, s, 2048, 16384, 2, |p| {
            p.indirect_per_16 = 16;
            p.taken_per_256 = 224;
            p.tgt_stride = 64;
        })
    }),
    ("exchange2", |n, s| branchy(512, 6000 * s.factor(), n)),
    ("fotonik3d", |_, s| stream(8192, 2 * s.factor(), false)),
    ("gcc", |n, s| {
        gadget(n, s, 1024, 16384, 6, |p| {
            p.indirect_per_16 = 4;
            p.stores_per_16 = 1;
            p.cyclic = true;
        })
    }),
    ("imagick", |_, s| stream(4096, 3 * s.factor(), true)),
    ("lbm", |_, s| stream(8192, 2 * s.factor(), true)),
    ("leela", |n, s| btree(7, 1500 * s.factor(), n)),
    ("mcf", |n, s| list(1024 * s.factor(), n)),
    ("nab", |_, s| stencil(6144, 2 * s.factor())),
    ("omnetpp", |n, s| {
        gadget(n, s, 1024, 16384, 4, |p| {
            p.depth = 2;
            p.indirect_per_16 = 2;
            p.cyclic = true;
        })
    }),
    ("perlbench", |n, s| {
        hash(1024, 6144 * s.factor(), 2048, 8192, n)
    }),
    ("pop2", |_, s| stencil(8192, 2 * s.factor())),
    ("roms", |_, s| stream(6144, 2 * s.factor(), false)),
    ("wrf", |_, s| stencil(4096, 3 * s.factor())),
    ("x264", |_, s| {
        Workload::single(stream::generate(StreamParams {
            elements: 4096,
            passes: 3 * s.factor(),
            writes: true,
            stride_words: 2,
        }))
    }),
    ("xalancbmk", |n, s| {
        hash(512, 6144 * s.factor(), 1024, 16384, n)
    }),
    ("xz", |n, s| {
        gadget(n, s, 512, 16384, 8, |p| {
            p.stores_per_16 = 2;
            p.indirect_per_16 = 4;
            p.cyclic = true;
        })
    }),
    ("cam4", |_, s| stencil(6144, 2 * s.factor())),
];

/// The SPEC CPU2006 stand-ins, in suite order. Names shared with
/// SPEC2017 seed from a `06`-suffixed name, so the two suites differ.
const SPEC2006: &[Entry] = &[
    ("astar", |n, s| btree(9, 1200 * s.factor(), n)),
    ("bzip2", |n, s| branchy(2048, 6000 * s.factor(), n)),
    ("gcc", |n, s| {
        gadget(n, s, 1024, 16384, 5, |p| {
            p.indirect_per_16 = 4;
            p.stores_per_16 = 1;
            p.cyclic = true;
        })
    }),
    ("gobmk", |n, s| branchy(1024, 6000 * s.factor(), n)),
    ("h264ref", |_, s| stream(4096, 3 * s.factor(), true)),
    ("hmmer", |_, s| stream(6144, 3 * s.factor(), false)),
    ("lbm", |_, s| stream(8192, 2 * s.factor(), true)),
    ("libquantum", |_, s| stream(8192, 2 * s.factor(), false)),
    ("mcf", |_, s| list(1024 * s.factor(), "mcf06")),
    ("milc", |_, s| stencil(8192, 2 * s.factor())),
    ("namd", |_, s| stencil(4096, 3 * s.factor())),
    ("omnetpp", |n, s| {
        gadget(n, s, 1024, 16384, 4, |p| {
            p.depth = 2;
            p.indirect_per_16 = 2;
            p.cyclic = true;
        })
    }),
    ("perlbench", |_, s| {
        hash(1024, 6144 * s.factor(), 2048, 8192, "perlbench06")
    }),
    ("sjeng", |n, s| branchy(1024, 6000 * s.factor(), n)),
    ("soplex", |n, s| {
        gadget(n, s, 1024, 8192, 4, |p| {
            p.indirect_per_16 = 12;
            p.tgt_stride = 64;
        })
    }),
    ("sphinx3", |n, s| {
        hash(512, 4096 * s.factor(), 2048, 4096, n)
    }),
    ("xalancbmk", |_, s| {
        hash(512, 6144 * s.factor(), 1024, 16384, "xalancbmk06")
    }),
];

/// The PARSEC stand-ins, all 4-thread, in suite order.
const PARSEC: &[Entry] = &[
    ("blackscholes", |n, s| {
        par(
            n,
            s,
            ParKind::DataParallel { rotate: false },
            1024,
            16384,
            4,
        )
    }),
    ("bodytrack", |n, s| {
        par(n, s, ParKind::DataParallel { rotate: true }, 1024, 16384, 4)
    }),
    ("canneal", |n, s| {
        par(n, s, ParKind::SharedChase, 2048, 16384, 3)
    }),
    ("dedup", |n, s| {
        par(n, s, ParKind::ProducerConsumer, 512, 16384, 4)
    }),
    ("ferret", |n, s| {
        par(n, s, ParKind::ProducerConsumer, 1024, 16384, 3)
    }),
    ("fluidanimate", |n, s| {
        par(n, s, ParKind::DataParallel { rotate: true }, 512, 8192, 5)
    }),
    ("streamcluster", |n, s| {
        par(n, s, ParKind::SharedChase, 1024, 16384, 4)
    }),
    ("swaptions", |n, s| {
        par(n, s, ParKind::DataParallel { rotate: false }, 512, 8192, 5)
    }),
];

/// The generated (non-corpus) stand-ins of `suite`.
fn generated(suite: Suite) -> &'static [Entry] {
    match suite {
        Suite::Spec2017 => SPEC2017,
        Suite::Spec2006 => SPEC2006,
        Suite::Parsec => PARSEC,
        Suite::Corpus => &[],
    }
}

fn build(suite: Suite, &(name, workload): &Entry, scale: Scale) -> Benchmark {
    Benchmark {
        name,
        suite,
        workload: workload(name, scale),
    }
}

fn build_all(suite: Suite, scale: Scale) -> Vec<Benchmark> {
    generated(suite)
        .iter()
        .map(|e| build(suite, e, scale))
        .collect()
}

/// The SPEC CPU2017 speed stand-ins (Figure 5/6 upper rows).
#[must_use]
pub fn spec2017(scale: Scale) -> Vec<Benchmark> {
    build_all(Suite::Spec2017, scale)
}

/// The SPEC CPU2006 stand-ins (Figure 5/6 lower rows).
#[must_use]
pub fn spec2006(scale: Scale) -> Vec<Benchmark> {
    build_all(Suite::Spec2006, scale)
}

/// The PARSEC stand-ins (Figure 8), all 4-thread.
#[must_use]
pub fn parsec(scale: Scale) -> Vec<Benchmark> {
    build_all(Suite::Parsec, scale)
}

/// One corpus program as a benchmark at `scale`.
fn corpus_bench(e: &recon_asm::corpus::CorpusEntry, scale: Scale) -> Benchmark {
    let p = e.assemble();
    let threads = p
        .entries
        .iter()
        .map(|spec| {
            let mut seeds: Vec<_> = spec
                .seeds
                .iter()
                .copied()
                .filter(|&(r, _)| r != recon_asm::corpus::PASS_REG)
                .collect();
            seeds.push((recon_asm::corpus::PASS_REG, scale.factor()));
            ThreadSpec {
                entry: spec.entry,
                seeds,
            }
        })
        .collect();
    Benchmark {
        name: e.name,
        suite: Suite::Corpus,
        workload: Workload {
            program: p.program,
            threads,
        },
    }
}

/// Real programs assembled from the embedded `recon-asm` corpus.
///
/// Unlike the synthetic stand-ins, these are actual algorithms
/// (quicksort, matrix multiply, a QOI-style decoder, a box blur, and a
/// pointer chase) written in assembly text with self-checking
/// epilogues: each run writes a result digest and pass/fail status to
/// known addresses, so every harness can verify the machine computed
/// the right answer under every scheme. The pass count in
/// [`recon_asm::corpus::PASS_REG`] is overridden with the scale
/// factor; digests are pass-count invariant by construction.
#[must_use]
pub fn corpus(scale: Scale) -> Vec<Benchmark> {
    recon_asm::corpus::CORPUS
        .iter()
        .map(|e| corpus_bench(e, scale))
        .collect()
}

/// Every benchmark of `suite` at `scale`, in suite order.
#[must_use]
pub fn benchmarks(suite: Suite, scale: Scale) -> Vec<Benchmark> {
    match suite {
        Suite::Corpus => corpus(scale),
        _ => build_all(suite, scale),
    }
}

/// Convenience: every single-thread benchmark of both SPEC suites.
#[must_use]
pub fn all_single_thread(scale: Scale) -> Vec<Benchmark> {
    let mut v = spec2017(scale);
    v.extend(spec2006(scale));
    v
}

/// The benchmark names of `suite`, in suite order, without building
/// any program.
#[must_use]
pub fn names(suite: Suite) -> Vec<&'static str> {
    match suite {
        Suite::Corpus => recon_asm::corpus::CORPUS.iter().map(|e| e.name).collect(),
        _ => generated(suite).iter().map(|&(name, _)| name).collect(),
    }
}

/// Resolves a benchmark name of `suite`, in any case, to its canonical
/// spelling without building any program.
///
/// # Errors
///
/// A message naming the suite, with a hint when `name` is a near miss
/// of one of its benchmarks.
pub fn resolve(suite: Suite, name: &str) -> Result<&'static str, String> {
    let names = names(suite);
    names
        .iter()
        .find(|n| n.eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| {
            format!(
                "no benchmark '{name}' in {suite}{}",
                did_you_mean(name, names.iter().copied())
            )
        })
}

/// ` — did you mean '..'?` when `input`, lowercased, is a near miss of
/// one of `candidates`; empty otherwise.
#[must_use]
pub fn did_you_mean<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> String {
    recon_asm::suggest(&input.to_ascii_lowercase(), candidates)
        .map_or_else(String::new, |s| format!(" — did you mean '{s}'?"))
}

/// Looks up a benchmark by suite and canonical name, building only that
/// one.
#[must_use]
pub fn find(suite: Suite, name: &str, scale: Scale) -> Option<Benchmark> {
    match suite {
        Suite::Corpus => recon_asm::corpus::CORPUS
            .iter()
            .find(|e| e.name == name)
            .map(|e| corpus_bench(e, scale)),
        _ => generated(suite)
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|e| build(suite, e, scale)),
    }
}

/// The benchmarks the paper analyzes in Figure 9 (SPEC2017 entries with
/// more than 5% STT degradation).
pub const FIG9_BENCHMARKS: [&str; 7] = [
    "cactuBSSN",
    "deepsjeng",
    "mcf",
    "leela",
    "omnetpp",
    "perlbench",
    "xalancbmk",
];

/// Validates a workload terminates in the functional model within a
/// budget (used in tests).
#[cfg(test)]
fn terminates(w: &Workload, budget: usize) -> bool {
    if w.num_threads() != 1 {
        return true; // multithreaded: validated in recon-sim tests
    }
    recon_isa::run_collect(&w.program, budget)
        .map(|(_, st)| st.halted)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec2017_has_twenty_benchmarks() {
        assert_eq!(spec2017(Scale::Quick).len(), 20);
    }

    #[test]
    fn spec2006_has_seventeen_benchmarks() {
        assert_eq!(spec2006(Scale::Quick).len(), 17);
    }

    #[test]
    fn parsec_has_eight_four_thread_benchmarks() {
        let p = parsec(Scale::Quick);
        assert_eq!(p.len(), 8);
        assert!(p.iter().all(|b| b.workload.num_threads() == 4));
    }

    #[test]
    fn every_single_thread_benchmark_terminates() {
        for b in all_single_thread(Scale::Quick) {
            assert!(
                terminates(&b.workload, 30_000_000),
                "{} ({}) must halt",
                b.name,
                b.suite
            );
        }
    }

    #[test]
    fn corpus_has_five_scaled_benchmarks() {
        for scale in [Scale::Quick, Scale::Paper] {
            let c = corpus(scale);
            assert_eq!(c.len(), 5);
            for b in &c {
                assert_eq!(b.suite, Suite::Corpus);
                assert_eq!(b.workload.num_threads(), 1);
                let seeds = &b.workload.threads[0].seeds;
                assert_eq!(
                    seeds
                        .iter()
                        .find(|&&(r, _)| r == recon_asm::corpus::PASS_REG)
                        .map(|&(_, v)| v),
                    Some(scale.factor()),
                    "{} pass seed",
                    b.name
                );
            }
        }
    }

    #[test]
    fn find_locates_benchmarks() {
        assert!(find(Suite::Spec2017, "mcf", Scale::Quick).is_some());
        assert!(find(Suite::Corpus, "quicksort", Scale::Quick).is_some());
        assert!(find(Suite::Spec2006, "sphinx3", Scale::Quick).is_some());
        assert!(find(Suite::Parsec, "canneal", Scale::Quick).is_some());
        assert!(find(Suite::Spec2017, "nonexistent", Scale::Quick).is_none());
    }

    #[test]
    fn by_name_builds_equal_the_suite_entries() {
        for suite in Suite::ALL {
            let benches = benchmarks(suite, Scale::Quick);
            let listed: Vec<_> = benches.iter().map(|b| b.name).collect();
            assert_eq!(names(suite), listed, "{suite} names");
            for b in &benches {
                let one = find(suite, b.name, Scale::Quick).expect("listed name");
                assert_eq!((one.name, one.suite), (b.name, suite));
                assert_eq!(
                    one.workload.program, b.workload.program,
                    "{suite} {}",
                    b.name
                );
                let threads = |w: &Workload| -> Vec<_> {
                    w.threads
                        .iter()
                        .map(|t| (t.entry, t.seeds.clone()))
                        .collect()
                };
                assert_eq!(
                    threads(&one.workload),
                    threads(&b.workload),
                    "{suite} {} threads",
                    b.name
                );
            }
        }
    }

    #[test]
    fn resolve_finds_names_in_any_case_and_hints_near_misses() {
        for (input, want) in [
            ("cactuBSSN", "cactuBSSN"),
            ("cactubssn", "cactuBSSN"),
            ("MCF", "mcf"),
        ] {
            assert_eq!(resolve(Suite::Spec2017, input), Ok(want));
        }
        assert_eq!(
            resolve(Suite::Spec2017, "mfc").unwrap_err(),
            "no benchmark 'mfc' in SPEC2017 — did you mean 'gcc'?"
        );
        assert_eq!(
            resolve(Suite::Corpus, "nonexistent").unwrap_err(),
            "no benchmark 'nonexistent' in CORPUS"
        );
    }

    #[test]
    fn fig9_benchmarks_exist_in_spec2017() {
        for name in FIG9_BENCHMARKS {
            assert!(
                find(Suite::Spec2017, name, Scale::Quick).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn scales_differ() {
        let q = find(Suite::Spec2017, "bwaves", Scale::Quick).unwrap();
        let p = find(Suite::Spec2017, "bwaves", Scale::Paper).unwrap();
        let (tq, _) = recon_isa::run_collect(&q.workload.program, 50_000_000).unwrap();
        let (tp, _) = recon_isa::run_collect(&p.workload.program, 50_000_000).unwrap();
        assert!(tp.len() > 2 * tq.len());
    }

    #[test]
    fn names_seed_differently() {
        assert_ne!(fxhash("mcf"), fxhash("gcc"));
    }
}
