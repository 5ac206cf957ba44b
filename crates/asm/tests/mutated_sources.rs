//! Seeded mutation test: corpus programs with a line mangled at the
//! byte level must assemble or fail with a diagnostic, never panic.
//!
//! Each of the [`MUTANTS`] mutants takes one line of one corpus program
//! and applies one to three edits (insert, replace or delete a
//! character) at character boundaries, drawing new characters from
//! ASCII punctuation, digits and the multibyte `é`, `→` and `𝟘`, then
//! assembles the whole program. The stream is SplitMix64 from a fixed
//! seed, so every run checks the same mutants.

use std::panic::{catch_unwind, AssertUnwindSafe};

use recon_asm::{assemble, corpus};
use recon_isa::rng::{Rng, SplitMix64};

/// Number of mutants checked.
const MUTANTS: usize = 20_000;

const PUNCTUATION: &[char] = &[
    '!', '"', '#', '$', '%', '&', '\'', '(', ')', '*', '+', ',', '-', '.', '/', ':', ';', '<', '=',
    '>', '?', '@', '[', '\\', ']', '^', '_', '`', '{', '|', '}', '~',
];
const DIGITS: &[char] = &['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
const MULTIBYTE: &[char] = &['é', '→', '𝟘'];

/// A character from one of the three classes, each as likely.
fn draw(rng: &mut SplitMix64) -> char {
    let class = [PUNCTUATION, DIGITS, MULTIBYTE][rng.below_usize(3)];
    class[rng.below_usize(class.len())]
}

/// `line` with one to three random edits.
fn mutate(rng: &mut SplitMix64, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..1 + rng.below_usize(3) {
        let at = rng.below_usize(chars.len() + 1);
        match rng.below(3) {
            0 => chars.insert(at, draw(rng)),
            1 if at < chars.len() => chars[at] = draw(rng),
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.push(draw(rng)),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_corpus_lines_never_panic_the_assembler() {
    let programs: Vec<Vec<&str>> = corpus::CORPUS
        .iter()
        .map(|e| e.source.lines().collect())
        .collect();
    let mut rng = SplitMix64::new(0x5eed_a5e3);
    let mut errors = 0;
    for n in 0..MUTANTS {
        let lines = &programs[rng.below_usize(programs.len())];
        let at = rng.below_usize(lines.len());
        let mutant = mutate(&mut rng, lines[at]);
        let mut src = lines.clone();
        src[at] = &mutant;
        let src = src.join("\n");
        match catch_unwind(AssertUnwindSafe(|| assemble(&src))) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => errors += 1,
            Err(_) => panic!(
                "mutant {n} panicked the assembler on line {}: {mutant:?}",
                at + 1
            ),
        }
    }
    // Most mutants must be refused, or the edits miss the syntax.
    assert!(errors > MUTANTS / 2, "only {errors} of {MUTANTS} refused");
}
