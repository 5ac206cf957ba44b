//! Randomized property tests of the coherent memory system: reveal and
//! conceal metadata must follow the §5.3 rules under arbitrary
//! interleavings of reads, writes, reveals and RMWs from several cores.
//!
//! Each property runs many seeded operation sequences drawn from the
//! repo's own `SplitMix64`, so the suite runs offline in every
//! `cargo test` and a failure names the seed and step that replay it.

use recon::ReconConfig;
use recon_isa::rng::{Rng as _, SplitMix64};
use recon_mem::{CacheGeometry, MemConfig, MemorySystem, Mesi};

/// Sequences per property.
const CASES: u64 = 96;

/// A memory-system operation from a random core on a small address pool.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read { core: usize, addr: u64 },
    Write { core: usize, addr: u64 },
    Reveal { core: usize, addr: u64 },
    Rmw { core: usize, addr: u64 },
}

/// Small pool: 8 lines × 8 words keeps collisions frequent.
fn op(rng: &mut SplitMix64) -> Op {
    let core = (rng.next_u64() % 3) as usize;
    let addr = (rng.next_u64() % 8) * 64 + (rng.next_u64() % 8) * 8;
    match rng.next_u64() % 4 {
        0 => Op::Read { core, addr },
        1 => Op::Write { core, addr },
        2 => Op::Reveal { core, addr },
        _ => Op::Rmw { core, addr },
    }
}

/// The operation sequence of `seed`: between 1 and `max_len - 1` ops.
fn ops(seed: u64, max_len: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(0x9e37_0000 + seed);
    let len = 1 + rng.next_u64() % (max_len - 1);
    (0..len).map(|_| op(&mut rng)).collect()
}

fn tiny_config() -> MemConfig {
    MemConfig {
        l1: CacheGeometry::new(256, 2),   // 4 lines: heavy eviction
        l2: CacheGeometry::new(512, 2),   // 8 lines
        llc: CacheGeometry::new(1024, 2), // 16 lines
        ..MemConfig::scaled()
    }
}

/// Soundness of reveal state: a word may only be observed revealed if
/// it was revealed at some point after its last write. (Losing reveals
/// is always allowed; resurrecting concealed words never.)
#[test]
fn no_word_is_revealed_without_a_reveal_after_its_last_write() {
    for seed in 0..CASES {
        let mut m = MemorySystem::new(3, tiny_config(), ReconConfig::default());
        // Reference: per word, was there a reveal() since the last
        // write (by anyone)? Writes conceal globally and coherently.
        let mut may_be_revealed = std::collections::HashMap::<u64, bool>::new();
        for (step, op) in ops(seed, 300).into_iter().enumerate() {
            match op {
                Op::Read { core, addr } => {
                    let r = m.read(core, addr);
                    assert!(
                        !r.revealed || may_be_revealed.get(&addr).copied().unwrap_or(false),
                        "seed {seed} step {step}: {addr:#x} observed revealed with no prior reveal"
                    );
                }
                Op::Write { core, addr } => {
                    m.write(core, addr);
                    may_be_revealed.insert(addr, false);
                }
                Op::Reveal { core, addr } => {
                    if m.reveal(core, addr) {
                        may_be_revealed.insert(addr, true);
                    }
                }
                Op::Rmw { core, addr } => {
                    let r = m.rmw(core, addr);
                    assert!(
                        !r.revealed || may_be_revealed.get(&addr).copied().unwrap_or(false),
                        "seed {seed} step {step}: {addr:#x} rmw-observed revealed with no prior reveal"
                    );
                    may_be_revealed.insert(addr, false);
                }
            }
        }
    }
}

/// Coherence single-writer invariant: after any operation sequence, at
/// most one core holds a line writable, and if one does, no other core
/// holds it at all.
#[test]
fn single_writer_invariant() {
    for seed in 0..CASES {
        let mut m = MemorySystem::new(3, tiny_config(), ReconConfig::default());
        for (step, op) in ops(seed, 300).into_iter().enumerate() {
            match op {
                Op::Read { core, addr } => {
                    m.read(core, addr);
                }
                Op::Write { core, addr } => {
                    m.write(core, addr);
                }
                Op::Reveal { core, addr } => {
                    m.reveal(core, addr);
                }
                Op::Rmw { core, addr } => {
                    m.rmw(core, addr);
                }
            }
            for line in 0..8u64 {
                let addr = line * 64;
                let states: Vec<Option<Mesi>> = (0..3)
                    .map(|c| m.l1_state(c, addr).max(m.l2_state(c, addr)))
                    .collect();
                let writers = states.iter().flatten().filter(|s| s.writable()).count();
                assert!(
                    writers <= 1,
                    "seed {seed} step {step}: line {line}: multiple writers {states:?}"
                );
                if writers == 1 {
                    let holders = states.iter().flatten().count();
                    assert_eq!(
                        holders, 1,
                        "seed {seed} step {step}: line {line}: writer coexists with sharers {states:?}"
                    );
                }
            }
        }
    }
}

/// Disabled ReCon never reports a revealed word, whatever happens.
#[test]
fn disabled_recon_reveals_nothing() {
    for seed in 0..CASES {
        let mut m = MemorySystem::new(2, tiny_config(), ReconConfig::disabled());
        for (step, op) in ops(seed, 200).into_iter().enumerate() {
            match op {
                Op::Read { core, addr } => {
                    let r = m.read(core % 2, addr);
                    assert!(!r.revealed, "seed {seed} step {step}: read {addr:#x}");
                }
                Op::Write { core, addr } => {
                    m.write(core % 2, addr);
                }
                Op::Reveal { core, addr } => {
                    let ok = m.reveal(core % 2, addr);
                    assert!(!ok, "seed {seed} step {step}: reveal {addr:#x}");
                }
                Op::Rmw { core, addr } => {
                    let r = m.rmw(core % 2, addr);
                    assert!(!r.revealed, "seed {seed} step {step}: rmw {addr:#x}");
                }
            }
        }
    }
}
