//! Randomized property tests of the ReCon core data structures. The LPT
//! operation sequences are drawn from the repo's own `SplitMix64`, so a
//! failure replays from the seed it prints; the reveal-mask properties
//! are small enough to check exhaustively.

use recon::{LoadPairTable, RevealMask, WORDS_PER_LINE};
use recon_isa::rng::{Rng as _, SplitMix64};

/// Random sequences per LPT property.
const CASES: u64 = 256;

/// Operations applied to both a full-size LPT (the oracle) and a
/// reduced, tagged LPT.
#[derive(Clone, Copy, Debug)]
enum LptOp {
    /// `commit_load(dst, Some(src), addr, revealed)`
    Load {
        dst: u32,
        src: u32,
        addr: u64,
        revealed: bool,
    },
    /// `commit_writer(dst)`
    Writer { dst: u32 },
}

/// 1 to 199 operations over 64 physical registers and 4096 words.
fn lpt_ops(rng: &mut SplitMix64) -> Vec<LptOp> {
    let n = 1 + rng.below_usize(199);
    (0..n)
        .map(|_| {
            if rng.below(2) == 0 {
                LptOp::Load {
                    dst: rng.below(64) as u32,
                    src: rng.below(64) as u32,
                    addr: rng.below(0x1000) * 8,
                    revealed: rng.below(2) == 1,
                }
            } else {
                LptOp::Writer {
                    dst: rng.below(64) as u32,
                }
            }
        })
        .collect()
}

/// A reduced, tagged LPT may *miss* pairs the full table detects, but
/// every pair it does detect must reveal exactly the address the full
/// table would reveal (conflicts are only ever lost opportunities —
/// §6.6).
#[test]
fn reduced_lpt_never_reveals_a_wrong_address() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x1b70_0000 + seed);
        let entries = 1 + rng.below_usize(31);
        let ops = lpt_ops(&mut rng);
        let mut full = LoadPairTable::full(64);
        let mut small = LoadPairTable::with_entries(entries);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                LptOp::Load {
                    dst,
                    src,
                    addr,
                    revealed,
                } => {
                    let oracle = full.commit_load(dst, Some(src), addr, revealed);
                    if let Some(got) = small.commit_load(dst, Some(src), addr, revealed) {
                        assert_eq!(
                            Some(got),
                            oracle,
                            "seed {seed} entries {entries} step {step} {op:?}: \
                             reduced table revealed a wrong address"
                        );
                    }
                }
                LptOp::Writer { dst } => {
                    full.commit_writer(dst);
                    small.commit_writer(dst);
                }
            }
        }
        assert!(
            small.stats().pairs_detected <= full.stats().pairs_detected,
            "seed {seed} entries {entries}"
        );
    }
}

/// OR-merging masks is monotone: no reveal is ever lost by a merge.
#[test]
fn mask_merge_is_monotone() {
    for a in 0..=u8::MAX {
        for b in 0..=u8::MAX {
            let (ma, mb) = (RevealMask::from_bits(a), RevealMask::from_bits(b));
            let mut m = ma;
            m.merge_or(mb);
            for w in 0..WORDS_PER_LINE {
                if ma.is_revealed(w) || mb.is_revealed(w) {
                    assert!(m.is_revealed(w), "{a:#010b} | {b:#010b}: word {w} lost");
                }
            }
            assert_eq!(m.bits(), a | b, "{a:#010b} | {b:#010b}");
        }
    }
}

/// Reveal/conceal act on single words only.
#[test]
fn reveal_conceal_are_word_local() {
    for bits in 0..=u8::MAX {
        let before = RevealMask::from_bits(bits);
        for w in 0..WORDS_PER_LINE {
            let mut m = before;
            m.reveal(w);
            assert!(m.is_revealed(w), "{bits:#010b}: reveal({w})");
            for other in (0..WORDS_PER_LINE).filter(|&o| o != w) {
                assert_eq!(
                    m.is_revealed(other),
                    before.is_revealed(other),
                    "{bits:#010b}: reveal({w}) touched word {other}"
                );
            }
            m.conceal(w);
            assert!(!m.is_revealed(w), "{bits:#010b}: conceal({w})");
            for other in (0..WORDS_PER_LINE).filter(|&o| o != w) {
                assert_eq!(
                    m.is_revealed(other),
                    before.is_revealed(other),
                    "{bits:#010b}: conceal({w}) touched word {other}"
                );
            }
        }
    }
}

/// A full-size LPT detects a pair iff the most recent committed writer
/// of the source register was a load whose reveal install was not
/// skipped (reference semantics against a simple model).
#[test]
fn full_lpt_matches_reference_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xf117_0000 + seed);
        let ops = lpt_ops(&mut rng);
        let mut lpt = LoadPairTable::full(64);
        // Reference: last committed writer of each preg, as
        // (addr, revealed_install_skipped).
        let mut last: Vec<Option<(u64, bool)>> = vec![None; 64];
        for (step, &op) in ops.iter().enumerate() {
            match op {
                LptOp::Load {
                    dst,
                    src,
                    addr,
                    revealed,
                } => {
                    let expect = match last[src as usize] {
                        Some((a, false)) => Some(a),
                        _ => None,
                    };
                    let got = lpt.commit_load(dst, Some(src), addr, revealed);
                    assert_eq!(got, expect, "seed {seed} step {step} {op:?}");
                    last[dst as usize] = Some((addr, revealed));
                }
                LptOp::Writer { dst } => {
                    lpt.commit_writer(dst);
                    last[dst as usize] = None;
                }
            }
        }
    }
}
