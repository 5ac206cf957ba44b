//! Size test: assembly time must grow linearly with the number of
//! aliases and labels, since `recon serve` assembles sources of up to
//! 8 MB on a request thread.
//!
//! The source defines [`NAMES`] aliases and as many labels, uses each
//! alias as a register operand and branches to each label. A lookup
//! that scans every earlier name makes this about 10^10 string
//! comparisons, over a minute even in a release build; with hashed
//! lookups it takes well under a second in a debug build, so the bound
//! leaves room for a slow, loaded machine.

use std::fmt::Write;
use std::time::{Duration, Instant};

use recon_asm::assemble;

/// Number of aliases, and of labels.
const NAMES: usize = 100_000;

/// Generous bound on the assembly of the whole source.
const BOUND: Duration = Duration::from_secs(20);

#[test]
fn many_aliases_and_labels_assemble_in_linear_time() {
    let mut src = String::new();
    for i in 0..NAMES {
        writeln!(src, ".alias a{i} r{}", 1 + i % 8).unwrap();
    }
    for i in 0..NAMES {
        writeln!(
            src,
            "l{i}:\n    addi a{i}, a{i}, 1\n    beq a{i}, zero, l{i}"
        )
        .unwrap();
    }
    src.push_str("    halt\n");

    let start = Instant::now();
    let prog = assemble(&src).expect("the source is valid");
    let took = start.elapsed();
    assert_eq!(prog.program.code.len(), 2 * NAMES + 1);
    assert!(
        took < BOUND,
        "assembling {NAMES} aliases and labels took {took:?}"
    );
}
