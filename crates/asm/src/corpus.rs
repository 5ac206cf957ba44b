//! The embedded benchmark corpus: five real programs with
//! self-checking epilogues.
//!
//! ## Corpus conventions
//!
//! Every corpus program follows the same contract:
//!
//! * **Pass loop.** The whole computation (including input
//!   re-initialization) runs `r26` times; `r26` is seeded by the
//!   program's `.entry` line and overridden by the suite runner to
//!   scale work (quick vs paper scale). Because every pass recomputes
//!   from scratch, the result digest is pass-count invariant.
//! * **Self-check epilogue.** After the last pass the program writes
//!   its result digest to [`DIGEST_ADDR`] and then
//!   [`STATUS_PASS`]/[`STATUS_FAIL`] to [`STATUS_ADDR`] depending on
//!   whether the digest matches the expected value baked into the
//!   source (and any structural checks, e.g. quicksort verifies
//!   sortedness). A run whose status word is not [`STATUS_PASS`]
//!   computed the wrong answer — under *any* scheme.
//! * **Reserved registers.** `r29`–`r31` are never touched by corpus
//!   programs; spliced verification gadgets use them as scratch.
//! * **Gadget marker.** The comment line [`GADGET_MARKER`] marks where
//!   `recon verify --embedded` splices a leakage gadget: after the
//!   computation (so the gadget sits in a realistically warmed-up
//!   machine) and before the status write.
//! * **Address budget.** All corpus data lives below `0x10_0000`, so
//!   it never collides with the verify gadget library's probe/secret
//!   arrays (at `0x10_0000`+) or the digest/status words.

use recon_isa::exec::{run_with, ArchState, ExecError};
use recon_isa::{ArchReg, SparseMem};

use crate::text::{assemble, AsmProgram};

/// Address of the 64-bit result digest every corpus program writes.
pub const DIGEST_ADDR: u64 = 0xFEED0;
/// Address of the pass/fail status word.
pub const STATUS_ADDR: u64 = 0xFEED8;
/// Status value meaning the self-check passed.
pub const STATUS_PASS: u64 = 0x600D;
/// Status value meaning the self-check failed.
pub const STATUS_FAIL: u64 = 0xBAD;
/// Register seeded with the pass count (re-runs of the computation).
pub const PASS_REG: ArchReg = recon_isa::reg::names::R26;
/// Comment line marking the gadget splice point in corpus sources.
pub const GADGET_MARKER: &str = ";@gadget";

/// One embedded corpus program.
#[derive(Clone, Copy, Debug)]
pub struct CorpusEntry {
    /// Benchmark name (also the workload name in the `corpus` suite).
    pub name: &'static str,
    /// Full assembly source.
    pub source: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The digest the self-check expects (also baked into the source).
    pub golden_digest: u64,
}

impl CorpusEntry {
    /// Assembles the embedded source.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source does not assemble — that is a bug
    /// in the corpus itself, caught by this crate's tests.
    #[must_use]
    pub fn assemble(&self) -> AsmProgram {
        match assemble(self.source) {
            Ok(p) => p,
            Err(e) => panic!("embedded corpus program '{}' is invalid: {e}", self.name),
        }
    }
}

/// The full corpus, in canonical order.
pub const CORPUS: [CorpusEntry; 5] = [
    CorpusEntry {
        name: "quicksort",
        source: include_str!("../corpus/quicksort.asm"),
        description: "iterative quicksort of 256 pseudo-random keys with a sortedness check",
        golden_digest: QUICKSORT_DIGEST,
    },
    CorpusEntry {
        name: "matmul",
        source: include_str!("../corpus/matmul.asm"),
        description: "12x12 dense matrix multiply",
        golden_digest: MATMUL_DIGEST,
    },
    CorpusEntry {
        name: "qoi_decode",
        source: include_str!("../corpus/qoi_decode.asm"),
        description: "QOI-style run/diff/index/literal stream decoder with a 64-entry seen-table",
        golden_digest: QOI_DECODE_DIGEST,
    },
    CorpusEntry {
        name: "box_blur",
        source: include_str!("../corpus/box_blur.asm"),
        description: "3x3 box blur over a 32x32 grid",
        golden_digest: BOX_BLUR_DIGEST,
    },
    CorpusEntry {
        name: "memref",
        source: include_str!("../corpus/memref.asm"),
        description: "pointer chase over a 512-node scattered linked ring",
        golden_digest: MEMREF_DIGEST,
    },
];

/// Golden digests, verified by `cargo run -p recon-asm --example
/// corpus_digests` and this crate's tests. Each value is also baked
/// into the corresponding `.asm` epilogue.
pub const QUICKSORT_DIGEST: u64 = 0xee53_dfb1_8473_471a;
/// See [`QUICKSORT_DIGEST`].
pub const MATMUL_DIGEST: u64 = 0xaa5c_5adb_b025_f090;
/// See [`QUICKSORT_DIGEST`].
pub const QOI_DECODE_DIGEST: u64 = 0x3dc6_2b69_4dee_fa2f;
/// See [`QUICKSORT_DIGEST`].
pub const BOX_BLUR_DIGEST: u64 = 0x9401_b33c_8940_341a;
/// See [`QUICKSORT_DIGEST`].
pub const MEMREF_DIGEST: u64 = 0x2457_99f1_3dc8_5400;

/// Splices `payload` (assembly text: code, labels, `.data` lines) into
/// `host` at its [`GADGET_MARKER`] line, returning the combined source.
/// `None` when the host has no marker. The payload replaces the marker
/// line itself, so splicing is idempotent per marker and the host's
/// line structure around the splice is preserved.
#[must_use]
pub fn splice_gadget(host: &str, payload: &str) -> Option<String> {
    let mut out = String::with_capacity(host.len() + payload.len() + 1);
    let mut found = false;
    for line in host.lines() {
        if !found && line.trim() == GADGET_MARKER {
            found = true;
            out.push_str(payload);
            if !payload.ends_with('\n') {
                out.push('\n');
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    found.then_some(out)
}

/// Finds a corpus entry by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static CorpusEntry> {
    CORPUS.iter().find(|e| e.name == name)
}

/// All corpus benchmark names, in canonical order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    CORPUS.iter().map(|e| e.name).collect()
}

/// Outcome of a functional (architectural) corpus run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SelfCheck {
    /// The digest word at [`DIGEST_ADDR`].
    pub digest: u64,
    /// The status word at [`STATUS_ADDR`].
    pub status: u64,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Whether the program reached `halt` within the step budget.
    pub halted: bool,
}

impl SelfCheck {
    /// Whether the program halted with a passing status word.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.halted && self.status == STATUS_PASS
    }
}

/// Runs an assembled program functionally (golden-model semantics),
/// applying the first entry spec's register seeds, optionally
/// overriding the pass count in [`PASS_REG`], and reads back the
/// digest/status words.
///
/// # Errors
///
/// Propagates [`ExecError`] from the functional model (a corpus bug).
pub fn run_self_check(
    p: &AsmProgram,
    passes: Option<u64>,
    max_steps: u64,
) -> Result<SelfCheck, ExecError> {
    let mut mem = SparseMem::from_image(&p.program.image);
    let entry = &p.entries[0];
    let mut state = ArchState::at_pc(entry.entry);
    for &(reg, val) in &entry.seeds {
        state.write(reg, val);
    }
    if let Some(n) = passes {
        state.write(PASS_REG, n);
    }
    let steps = run_with(&p.program, &mut state, &mut mem, max_steps, |_| {})?;
    Ok(SelfCheck {
        digest: mem.peek(DIGEST_ADDR),
        status: mem.peek(STATUS_ADDR),
        steps,
        halted: state.halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_program_assembles() {
        for e in &CORPUS {
            let p = e.assemble();
            assert!(p.program.code.len() > 10, "{} suspiciously small", e.name);
            assert_eq!(p.entries.len(), 1, "{} must be single-threaded", e.name);
        }
    }

    #[test]
    fn every_corpus_program_self_checks_at_one_pass() {
        for e in &CORPUS {
            let p = e.assemble();
            let r = run_self_check(&p, None, 50_000_000).unwrap();
            assert!(r.halted, "{} did not halt", e.name);
            assert_eq!(
                r.status, STATUS_PASS,
                "{} failed its own self-check (digest {:#x})",
                e.name, r.digest
            );
            assert_eq!(
                r.digest, e.golden_digest,
                "{} digest drifted from golden",
                e.name
            );
        }
    }

    #[test]
    fn digests_are_pass_count_invariant() {
        for e in &CORPUS {
            let p = e.assemble();
            let one = run_self_check(&p, Some(1), 50_000_000).unwrap();
            let four = run_self_check(&p, Some(4), 200_000_000).unwrap();
            assert!(one.passed() && four.passed(), "{}", e.name);
            assert_eq!(
                one.digest, four.digest,
                "{} digest varies with passes",
                e.name
            );
            assert!(
                four.steps > one.steps * 3,
                "{} passes do not scale work",
                e.name
            );
        }
    }

    #[test]
    fn every_source_has_a_gadget_marker() {
        for e in &CORPUS {
            assert!(
                e.source.lines().any(|l| l.trim() == GADGET_MARKER),
                "{} has no {GADGET_MARKER} line",
                e.name
            );
        }
    }

    #[test]
    fn corpus_programs_never_touch_reserved_registers() {
        for e in &CORPUS {
            let p = e.assemble();
            for inst in &p.program.code {
                let mut regs: Vec<ArchReg> = inst.srcs().into_iter().flatten().collect();
                regs.extend(inst.dst());
                for r in regs {
                    assert!(
                        r.index() < 29,
                        "{} uses reserved register {r} in {inst}",
                        e.name
                    );
                }
            }
        }
    }
}
