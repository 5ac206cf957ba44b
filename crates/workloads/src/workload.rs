//! Workload and benchmark descriptors.

use recon_isa::{ArchReg, Program};

/// Which benchmark suite a stand-in belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// SPEC CPU2017 speed stand-ins (single-thread).
    Spec2017,
    /// SPEC CPU2006 stand-ins (single-thread).
    Spec2006,
    /// PARSEC stand-ins (4-thread shared-memory).
    Parsec,
    /// Real programs assembled from the embedded `recon-asm` corpus.
    Corpus,
}

impl Suite {
    /// Every suite, in display order.
    pub const ALL: [Suite; 4] = [
        Suite::Spec2017,
        Suite::Spec2006,
        Suite::Parsec,
        Suite::Corpus,
    ];

    /// The lowercase name the command line and job submissions spell
    /// the suite with (`spec2017`, `spec2006`, `parsec`, `corpus`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec2017 => "spec2017",
            Suite::Spec2006 => "spec2006",
            Suite::Parsec => "parsec",
            Suite::Corpus => "corpus",
        }
    }

    /// Every suite name joined with `|`, for messages.
    #[must_use]
    pub fn choices() -> String {
        Suite::ALL.map(Suite::name).join("|")
    }

    /// Parses a suite name in any case.
    ///
    /// # Errors
    ///
    /// A message listing every suite, with a hint when `name` is a
    /// near miss of one.
    pub fn parse(name: &str) -> Result<Suite, String> {
        Suite::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!(
                    "unknown suite '{name}' ({}){}",
                    Suite::choices(),
                    crate::did_you_mean(name, Suite::ALL.map(Suite::name))
                )
            })
    }
}

impl core::fmt::Display for Suite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Suite::Spec2017 => "SPEC2017",
            Suite::Spec2006 => "SPEC2006",
            Suite::Parsec => "PARSEC",
            Suite::Corpus => "CORPUS",
        };
        f.write_str(s)
    }
}

/// A runnable workload: one program plus per-thread entry points and
/// initial register seeds.
///
/// Single-thread workloads have one thread whose entry is the program
/// entry. Multithreaded workloads share the code and memory image; each
/// thread starts at its own entry with its own seeds (e.g. a thread id).
#[derive(Clone, Debug)]
pub struct Workload {
    /// The shared program (code + initial memory image).
    pub program: Program,
    /// Per-thread `(entry pc, register seeds)`.
    pub threads: Vec<ThreadSpec>,
}

/// One hardware thread's starting state.
#[derive(Clone, Debug, Default)]
pub struct ThreadSpec {
    /// Entry instruction index.
    pub entry: usize,
    /// Initial architectural register values.
    pub seeds: Vec<(ArchReg, u64)>,
}

impl Workload {
    /// A single-thread workload starting at the program entry.
    #[must_use]
    pub fn single(program: Program) -> Self {
        let entry = program.entry;
        Workload {
            program,
            threads: vec![ThreadSpec {
                entry,
                seeds: Vec::new(),
            }],
        }
    }

    /// Number of hardware threads required.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }
}

/// A named benchmark stand-in.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Name of the benchmark this stands in for (e.g. `"mcf"`).
    pub name: &'static str,
    /// Its suite.
    pub suite: Suite,
    /// The workload to run.
    pub workload: Workload,
}

impl Benchmark {
    /// Creates a single-thread benchmark.
    #[must_use]
    pub fn single(name: &'static str, suite: Suite, program: Program) -> Self {
        Benchmark {
            name,
            suite,
            workload: Workload::single(program),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::Asm;

    #[test]
    fn single_workload_has_one_thread() {
        let mut a = Asm::new();
        a.halt();
        let w = Workload::single(a.assemble().unwrap());
        assert_eq!(w.num_threads(), 1);
        assert_eq!(w.threads[0].entry, 0);
    }

    #[test]
    fn suite_display() {
        assert_eq!(Suite::Spec2017.to_string(), "SPEC2017");
        assert_eq!(Suite::Parsec.to_string(), "PARSEC");
    }

    #[test]
    fn suites_parse_in_any_case_and_hint_near_misses() {
        for suite in Suite::ALL {
            assert_eq!(Suite::parse(suite.name()), Ok(suite));
            assert_eq!(Suite::parse(&suite.to_string()), Ok(suite));
        }
        assert_eq!(
            Suite::parse("corpsu").unwrap_err(),
            "unknown suite 'corpsu' (spec2017|spec2006|parsec|corpus) — did you mean 'corpus'?"
        );
        assert_eq!(
            Suite::parse("bogus").unwrap_err(),
            "unknown suite 'bogus' (spec2017|spec2006|parsec|corpus)"
        );
    }
}
