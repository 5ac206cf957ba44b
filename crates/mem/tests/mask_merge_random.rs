//! Randomized property tests of the MESI reveal-mask OR-merge rules on
//! eviction and invalidation (§5.3). Like `proptests.rs`, these run in
//! every `cargo test`: the interleavings are driven by the repo's own
//! `SplitMix64`, so failures replay from a printed seed.

use recon::ReconConfig;
use recon_isa::rng::{Rng as _, SplitMix64};
use recon_mem::{CacheGeometry, MemConfig, MemorySystem};

const WORDS_PER_LINE: u64 = 8;
const WORD_BYTES: u64 = 8;
const LINE_BYTES: u64 = WORDS_PER_LINE * WORD_BYTES;

/// Tiny hierarchy: 4 L1 lines / 8 L2 lines / 16 LLC lines, so a small
/// address pool forces constant eviction and invalidation traffic.
fn tiny_config() -> MemConfig {
    MemConfig {
        l1: CacheGeometry::new(256, 2),
        l2: CacheGeometry::new(512, 2),
        llc: CacheGeometry::new(1024, 2),
        ..MemConfig::scaled()
    }
}

fn word_addr(line: u64, word: u64) -> u64 {
    line * LINE_BYTES + word * WORD_BYTES
}

/// Soundness under arbitrary interleavings: a word may only ever be
/// observed revealed if some core revealed it after its last write —
/// the OR-merge on eviction may *lose* bits, never invent them. The
/// invariant auditor must also stay silent throughout (its false
/// positives would abort real audited runs).
#[test]
fn random_interleavings_never_resurrect_a_concealed_word() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0x5eed_0000 + seed);
        let mut m = MemorySystem::new(3, tiny_config(), ReconConfig::default());
        // Reference model: per word, was there a successful reveal since
        // the last (coherent, global) write?
        let mut may_be_revealed = std::collections::HashMap::<u64, bool>::new();
        for step in 0..400 {
            let core = (rng.next_u64() % 3) as usize;
            let addr = word_addr(rng.next_u64() % 8, rng.next_u64() % WORDS_PER_LINE);
            match rng.next_u64() % 4 {
                0 => {
                    let r = m.read(core, addr);
                    assert!(
                        !r.revealed || may_be_revealed.get(&addr).copied().unwrap_or(false),
                        "seed {seed} step {step}: {addr:#x} read revealed with no prior reveal"
                    );
                }
                1 => {
                    m.write(core, addr);
                    may_be_revealed.insert(addr, false);
                }
                2 => {
                    if m.reveal(core, addr) {
                        may_be_revealed.insert(addr, true);
                    }
                }
                _ => {
                    let r = m.rmw(core, addr);
                    assert!(
                        !r.revealed || may_be_revealed.get(&addr).copied().unwrap_or(false),
                        "seed {seed} step {step}: {addr:#x} rmw revealed with no prior reveal"
                    );
                    may_be_revealed.insert(addr, false);
                }
            }
            if step % 16 == 0 {
                let violations = m.audit();
                assert!(
                    violations.is_empty(),
                    "seed {seed} step {step}: audit false positive: {violations:?}"
                );
            }
        }
    }
}

/// OR-merge liveness on reader eviction: with full level coverage, a
/// revealed word survives being bounced out of the L1 by conflicting
/// *reads* — the evicted mask is OR-merged into the L2 copy, and from
/// there into the directory, never silently dropped.
#[test]
fn reader_eviction_or_merges_reveal_bits_downward() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(0xface_0000 + seed);
        let mut m = MemorySystem::new(1, tiny_config(), ReconConfig::default());

        let line = rng.next_u64() % 4;
        let word = rng.next_u64() % WORDS_PER_LINE;
        let addr = word_addr(line, word);
        m.read(0, addr);
        assert!(m.reveal(0, addr), "seed {seed}: reveal into resident line");
        assert!(m.probe_revealed(0, addr));

        // Thrash the L1 (4 lines) with reads to other lines mapping
        // across the sets; the revealed line is eventually evicted. No
        // write touches the revealed word, so losing its bit would be an
        // OR-merge bug, not a conceal.
        for _ in 0..24 {
            let other = 4 + rng.next_u64() % 8; // lines 4..12: same sets, different tags
            if other % 4 != line % 4 && rng.next_u64().is_multiple_of(2) {
                continue; // bias toward the revealed line's set
            }
            m.read(0, word_addr(other, rng.next_u64() % WORDS_PER_LINE));
        }
        assert!(
            m.probe_revealed(0, addr),
            "seed {seed}: reveal bit for line {line} word {word} lost on reader eviction"
        );
        let violations = m.audit();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// Ownership transfer on invalidation (§5.3 case iii): when another
/// core takes the line Modified, the old owner's mask travels with the
/// data — the new writer's conceal hits only its own word, and every
/// other revealed word in the line stays revealed.
#[test]
fn invalidation_transfers_the_owners_mask_to_the_new_writer() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(0xbeef_0000 + seed);
        let mut m = MemorySystem::new(2, tiny_config(), ReconConfig::default());

        let line = rng.next_u64() % 8;
        let revealed_word = rng.next_u64() % WORDS_PER_LINE;
        let written_word =
            (revealed_word + 1 + rng.next_u64() % (WORDS_PER_LINE - 1)) % WORDS_PER_LINE;
        assert_ne!(revealed_word, written_word);

        // Core 0 owns the line and reveals one word.
        let raddr = word_addr(line, revealed_word);
        m.write(0, word_addr(line, written_word));
        assert!(m.reveal(0, raddr), "seed {seed}: reveal into owned line");

        // Core 1 steals the line with a write to a *different* word.
        m.write(1, word_addr(line, written_word));

        // The old owner's reveal bit traveled with the invalidation.
        assert!(
            m.probe_revealed(1, raddr),
            "seed {seed}: reveal bit for word {revealed_word} lost on ownership transfer"
        );
        assert!(!m.probe_revealed(1, word_addr(line, written_word)));
        let r = m.read(1, raddr);
        assert!(
            r.revealed,
            "seed {seed}: new owner reads word {revealed_word} concealed after transfer"
        );
        let violations = m.audit();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}
