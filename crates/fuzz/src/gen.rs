//! Random-but-valid program generation.
//!
//! Every generated program is *structurally valid* ([`Program::validate`]
//! passes) and *guaranteed to terminate* under functional execution:
//!
//! * memory addresses are always 8-byte aligned — bases come from a
//!   curated set of pointer registers that only ever hold aligned
//!   addresses, offsets are aligned, and `ldx` indices are pre-masked;
//! * control flow is forward-only between *block boundaries*, plus
//!   counted loops whose trip-count register is written by no other
//!   instruction — a forward branch can never land inside a loop body,
//!   so every back-edge retires a bounded number of times;
//! * the program ends in a corpus-style self-check epilogue: a digest
//!   of the scratch registers and the whole data region is folded,
//!   stored to [`recon_asm::corpus::DIGEST_ADDR`], compared against the
//!   functionally-computed expectation, and
//!   [`recon_asm::corpus::STATUS_PASS`]/[`STATUS_FAIL`] is stored to
//!   [`recon_asm::corpus::STATUS_ADDR`].
//!
//! The memory layout puts the read-only pointer table *below* the data
//! region and the digest/status words far above it, so stores (whose
//! bases point into the data region and whose offsets are non-negative)
//! can alias each other freely but can never corrupt the table or the
//! epilogue's result words.

use recon_asm::corpus::{DIGEST_ADDR, STATUS_ADDR, STATUS_FAIL, STATUS_PASS};
use recon_isa::reg::names;
use recon_isa::rng::Rng;
use recon_isa::{AluKind, ArchReg, BranchKind, Inst, MemImage, Program};

/// Base of the read-only pointer table (aligned addresses into the data
/// region; never the target of a generated store).
pub const TABLE_BASE: u64 = 0x1000;
/// Words in the pointer table.
pub const TABLE_WORDS: u64 = 16;
/// Base of the read-write data region all generated stores land in.
pub const DATA_BASE: u64 = 0x2000;
/// Words in the data region (the digest epilogue folds all of them).
pub const DATA_WORDS: u64 = 32;

/// r1: immutable base of the data region.
const RD: ArchReg = names::R1;
/// r2: immutable base of the pointer table.
const RT: ArchReg = names::R2;
/// r3..r6: pointer registers — always hold aligned data-region addresses.
const PTR_REGS: [u8; 4] = [3, 4, 5, 6];
/// r7: counted-loop trip register; written only by loop scaffolding.
const RLOOP: ArchReg = names::R7;
/// r8..r15: scratch value registers (arbitrary 64-bit contents).
const SCRATCH_REGS: [u8; 8] = [8, 9, 10, 11, 12, 13, 14, 15];
/// r16..r22: epilogue-only registers (digest accumulator, temps).
const RDIGEST: ArchReg = names::R16;
const RTMP: ArchReg = names::R17;
const RMIX: ArchReg = names::R18;
const RADDR: ArchReg = names::R19;
const REXPECT: ArchReg = names::R20;
const RSTATUS: ArchReg = names::R21;

/// Generation parameters. `blocks` controls program size; the defaults
/// give programs of roughly 60–120 static instructions after the
/// epilogue.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// Number of body blocks (each block is 1–5 instructions).
    pub blocks: usize,
    /// Maximum trip count of a counted loop.
    pub max_trip: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            blocks: 24,
            max_trip: 4,
        }
    }
}

fn ptr(rng: &mut impl Rng) -> ArchReg {
    ArchReg::new(usize::from(PTR_REGS[rng.below_usize(PTR_REGS.len())]))
}

fn scratch(rng: &mut impl Rng) -> ArchReg {
    ArchReg::new(usize::from(
        SCRATCH_REGS[rng.below_usize(SCRATCH_REGS.len())],
    ))
}

fn aligned_off(rng: &mut impl Rng) -> i64 {
    8 * rng.below(8) as i64
}

/// One generated block: its instructions, with any *forward* branch
/// recorded as `(position within block, target block index)` to be
/// patched after layout.
struct Block {
    code: Vec<Inst>,
    fwd: Option<(usize, usize)>,
}

fn value_inst(rng: &mut impl Rng) -> Inst {
    match rng.below(4) {
        0 => Inst::LoadImm {
            dst: scratch(rng),
            imm: rng.next_u64() >> (rng.below(56) as u32),
        },
        1 => Inst::Alu {
            kind: AluKind::ALL[rng.below_usize(AluKind::ALL.len())],
            dst: scratch(rng),
            a: scratch(rng),
            b: scratch(rng),
        },
        2 => Inst::AluImm {
            kind: AluKind::ALL[rng.below_usize(AluKind::ALL.len())],
            dst: scratch(rng),
            a: scratch(rng),
            imm: rng.next_u64() & 0xFFFF,
        },
        _ => Inst::Load {
            dst: scratch(rng),
            base: ptr(rng),
            offset: aligned_off(rng),
        },
    }
}

fn gen_block(rng: &mut impl Rng, index: usize, total: usize, params: &GenParams) -> Block {
    match rng.below(10) {
        // Plain value computation.
        0..=2 => Block {
            code: vec![value_inst(rng)],
            fwd: None,
        },
        // Store: aliasing writes into the data region.
        3 | 4 => Block {
            code: vec![Inst::Store {
                val: scratch(rng),
                base: ptr(rng),
                offset: aligned_off(rng),
            }],
            fwd: None,
        },
        // Atomic fetch-add (serializing; drains the store buffer).
        5 => Block {
            code: vec![Inst::AmoAdd {
                dst: scratch(rng),
                base: ptr(rng),
                offset: aligned_off(rng),
                add: scratch(rng),
            }],
            fwd: None,
        },
        // Pointer reload: chase through the read-only table. The loaded
        // value is an aligned data-region address by construction.
        6 => Block {
            code: vec![Inst::Load {
                dst: ptr(rng),
                base: RT,
                offset: 8 * rng.below(TABLE_WORDS) as i64,
            }],
            fwd: None,
        },
        // Masked indexed load: `ldx` with both address sources live.
        7 => {
            let idx = scratch(rng);
            Block {
                code: vec![
                    Inst::AluImm {
                        kind: AluKind::And,
                        dst: idx,
                        a: scratch(rng),
                        imm: DATA_WORDS - 1,
                    },
                    Inst::LoadIdx {
                        dst: scratch(rng),
                        base: RD,
                        index: idx,
                    },
                ],
                fwd: None,
            }
        }
        // Forward conditional branch to a later block boundary.
        8 => {
            let span = (total - index) as u64; // >= 1; target block in (index, total]
            let target = index + 1 + rng.below(span.min(6)) as usize;
            Block {
                code: vec![Inst::Branch {
                    kind: BranchKind::ALL[rng.below_usize(BranchKind::ALL.len())],
                    a: scratch(rng),
                    b: scratch(rng),
                    target: 0, // patched after layout
                }],
                fwd: Some((0, target)),
            }
        }
        // Counted loop: trips bounded by `max_trip`, body writes only
        // scratch/pointer state, the trip register is private.
        _ => {
            let trips = 1 + rng.below(params.max_trip);
            let mut code = vec![Inst::LoadImm {
                dst: RLOOP,
                imm: trips,
            }];
            let body_len = 1 + rng.below_usize(3);
            for _ in 0..body_len {
                code.push(value_inst(rng));
            }
            if rng.below(2) == 0 {
                code.push(Inst::Store {
                    val: scratch(rng),
                    base: ptr(rng),
                    offset: aligned_off(rng),
                });
            }
            code.push(Inst::AluImm {
                kind: AluKind::Sub,
                dst: RLOOP,
                a: RLOOP,
                imm: 1,
            });
            // Back-edge to the first body instruction (intra-block, so a
            // forward branch can never land past the `li` initializer).
            code.push(Inst::Branch {
                kind: BranchKind::Ne,
                a: RLOOP,
                b: names::R0,
                target: usize::MAX, // patched during flatten (block-local)
            });
            Block { code, fwd: None }
        }
    }
}

/// Generates the program *body* (prologue + blocks + digest fold +
/// digest store + halt), without the self-check comparison.
fn gen_body(rng: &mut impl Rng, params: &GenParams) -> Program {
    let total = params.blocks.max(1);
    let mut blocks = Vec::with_capacity(total);
    for i in 0..total {
        blocks.push(gen_block(rng, i, total, params));
    }

    // Prologue: seed the immutable bases, pointers, and scratch regs.
    let mut code = vec![
        Inst::LoadImm {
            dst: RD,
            imm: DATA_BASE,
        },
        Inst::LoadImm {
            dst: RT,
            imm: TABLE_BASE,
        },
    ];
    for &p in &PTR_REGS {
        code.push(Inst::LoadImm {
            dst: ArchReg::new(usize::from(p)),
            imm: DATA_BASE + 8 * rng.below(DATA_WORDS),
        });
    }
    for &s in &SCRATCH_REGS {
        code.push(Inst::LoadImm {
            dst: ArchReg::new(usize::from(s)),
            imm: rng.next_u64(),
        });
    }

    // Layout: record each block's start index, flatten, patch targets.
    let mut starts = Vec::with_capacity(total + 1);
    let mut at = code.len();
    for b in &blocks {
        starts.push(at);
        at += b.code.len();
    }
    starts.push(at); // epilogue boundary: a forward branch may exit the body
    for b in blocks {
        let base = code.len();
        let body_start = base + 1; // loops: first instruction after the `li`
        code.extend(b.code);
        // Patch the block-local back-edge (if any), then the forward edge.
        for inst in &mut code[base..] {
            if let Inst::Branch { target, .. } = inst {
                if *target == usize::MAX {
                    *target = body_start;
                }
            }
        }
        if let Some((pos, target_block)) = b.fwd {
            if let Inst::Branch { target, .. } = &mut code[base + pos] {
                *target = starts[target_block];
            }
        }
    }

    // Digest fold: mix every scratch/pointer register and every data
    // word into RDIGEST, store it, halt.
    code.push(Inst::LoadImm {
        dst: RDIGEST,
        imm: 0,
    });
    code.push(Inst::LoadImm {
        dst: RMIX,
        imm: 0x9E37_79B9_7F4A_7C15,
    });
    for r in PTR_REGS.iter().chain(SCRATCH_REGS.iter()) {
        code.push(Inst::Alu {
            kind: AluKind::Xor,
            dst: RDIGEST,
            a: RDIGEST,
            b: ArchReg::new(usize::from(*r)),
        });
        code.push(Inst::Alu {
            kind: AluKind::Mul,
            dst: RDIGEST,
            a: RDIGEST,
            b: RMIX,
        });
    }
    for k in 0..DATA_WORDS {
        code.push(Inst::Load {
            dst: RTMP,
            base: RD,
            offset: 8 * k as i64,
        });
        code.push(Inst::Alu {
            kind: AluKind::Xor,
            dst: RDIGEST,
            a: RDIGEST,
            b: RTMP,
        });
        code.push(Inst::Alu {
            kind: AluKind::Mul,
            dst: RDIGEST,
            a: RDIGEST,
            b: RMIX,
        });
    }
    code.push(Inst::LoadImm {
        dst: RADDR,
        imm: DIGEST_ADDR,
    });
    code.push(Inst::Store {
        val: RDIGEST,
        base: RADDR,
        offset: 0,
    });
    code.push(Inst::Halt);

    // Image: pointer table entries are aligned data addresses; a random
    // subset of data words is pre-initialized.
    let mut image = MemImage::new();
    for k in 0..TABLE_WORDS {
        image.set(TABLE_BASE + 8 * k, DATA_BASE + 8 * rng.below(DATA_WORDS));
    }
    for k in 0..DATA_WORDS {
        if rng.below(2) == 0 {
            image.set(DATA_BASE + 8 * k, rng.next_u64());
        }
    }

    Program {
        code,
        entry: 0,
        image,
    }
}

/// Generates a complete self-checking program from `rng`.
///
/// The returned program validates, terminates functionally within
/// [`crate::oracle::MAX_FUNC_STEPS`] steps, and ends with the corpus
/// self-check convention: digest at `DIGEST_ADDR`, pass/fail status at
/// `STATUS_ADDR`.
///
/// # Panics
///
/// Panics if the generator produced a structurally invalid program —
/// that is a bug in this module, not in the caller.
#[must_use]
pub fn generate(rng: &mut impl Rng, params: &GenParams) -> Program {
    let mut program = gen_body(rng, params);
    program
        .validate()
        .expect("generated body must be structurally valid");

    // Compute the expected digest functionally, then replace the
    // trailing halt with the corpus self-check.
    let expected = expected_digest(&program);
    let halt_at = program.code.len() - 1;
    debug_assert!(matches!(program.code[halt_at], Inst::Halt));
    program.code.truncate(halt_at);
    let i0 = program.code.len();
    program.code.extend([
        Inst::LoadImm {
            dst: REXPECT,
            imm: expected,
        },
        // i0+1: beq digest, expect -> pass (i0+4)
        Inst::Branch {
            kind: BranchKind::Eq,
            a: RDIGEST,
            b: REXPECT,
            target: i0 + 4,
        },
        Inst::LoadImm {
            dst: RSTATUS,
            imm: STATUS_FAIL,
        },
        // i0+3: jump to the status store (i0+5)
        Inst::Jump { target: i0 + 5 },
        Inst::LoadImm {
            dst: RSTATUS,
            imm: STATUS_PASS,
        },
        Inst::LoadImm {
            dst: RADDR,
            imm: STATUS_ADDR,
        },
        Inst::Store {
            val: RSTATUS,
            base: RADDR,
            offset: 0,
        },
        Inst::Halt,
    ]);
    program
        .validate()
        .expect("self-check epilogue must keep the program valid");
    program
}

/// Functionally executes `program` and returns the digest register's
/// final value (the word the body stores to `DIGEST_ADDR`).
fn expected_digest(program: &Program) -> u64 {
    let mut mem = recon_isa::SparseMem::from_image(&program.image);
    let mut state = recon_isa::ArchState::at_entry(program);
    let max_steps = crate::oracle::MAX_FUNC_STEPS;
    recon_isa::run_with(program, &mut state, &mut mem, max_steps, |_| {})
        .expect("generated body must execute cleanly");
    assert!(state.halted, "generated body must terminate");
    state.read(RDIGEST)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::rng::SplitMix64;
    use recon_isa::{ArchState, SparseMem};

    #[test]
    fn generated_programs_validate_and_self_check() {
        for seed in 0..32 {
            let mut rng = SplitMix64::new(seed);
            let p = generate(&mut rng, &GenParams::default());
            p.validate().unwrap();
            let mut mem = SparseMem::from_image(&p.image);
            let mut state = ArchState::at_entry(&p);
            let max_steps = crate::oracle::MAX_FUNC_STEPS;
            recon_isa::run_with(&p, &mut state, &mut mem, max_steps, |_| {}).unwrap();
            assert!(state.halted, "seed {seed} must terminate");
            assert_eq!(
                mem.peek(STATUS_ADDR),
                STATUS_PASS,
                "seed {seed} must self-check"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&mut SplitMix64::new(7), &GenParams::default());
        let b = generate(&mut SplitMix64::new(7), &GenParams::default());
        assert_eq!(a, b);
        let c = generate(&mut SplitMix64::new(8), &GenParams::default());
        assert_ne!(a, c);
    }

    #[test]
    fn stores_stay_inside_the_data_region() {
        // All store bases are pointer registers (data-region addresses)
        // with non-negative offsets; spot-check by running and asserting
        // no write below DATA_BASE or into the status words from the body.
        let mut rng = SplitMix64::new(99);
        let p = generate(&mut rng, &GenParams::default());
        let mut mem = SparseMem::from_image(&p.image);
        let mut state = ArchState::at_entry(&p);
        let max_steps = crate::oracle::MAX_FUNC_STEPS;
        recon_isa::run_with(&p, &mut state, &mut mem, max_steps, |rec| {
            if let recon_isa::MemEffect::Store { addr, .. } = rec.mem {
                assert!(
                    addr >= DATA_BASE || addr == DIGEST_ADDR || addr == STATUS_ADDR,
                    "store to {addr:#x} escaped the data region"
                );
            }
        })
        .unwrap();
    }
}
