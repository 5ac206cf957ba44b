//! Functional (architectural) semantics: the golden model.
//!
//! One `match` over [`Inst`] holds the semantics. [`step`] runs it for
//! one instruction; [`run_with`] loops it from a caller's state, and
//! [`run_decoded`](crate::run_decoded) is that loop fetching from the
//! pre-decoded stream. The DIFT tool, fast-forward, `recon verify`'s
//! sequential reference, the fuzz oracles and the tests all run it; the
//! out-of-order core adds *timing* on top. A key property-test
//! invariant of the reproduction is that every security scheme produces
//! the identical architectural result as this model.

use crate::inst::Inst;
use crate::mem::DataMem;
use crate::program::Program;
use crate::reg::{ArchReg, NUM_ARCH_REGS};

/// Architectural register file + program counter. The default is
/// [`ArchState::at_pc`]`(0)`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ArchState {
    regs: [u64; NUM_ARCH_REGS],
    /// Current instruction index.
    pub pc: usize,
    /// Set once a `halt` has executed.
    pub halted: bool,
}

impl ArchState {
    /// Fresh state: all registers zero, `pc` at the program entry.
    #[must_use]
    pub fn at_entry(program: &Program) -> Self {
        Self::at_pc(program.entry)
    }

    /// Fresh state: all registers zero, starting at an arbitrary `pc`
    /// (e.g. a secondary thread's entry point).
    #[must_use]
    pub fn at_pc(pc: usize) -> Self {
        ArchState {
            pc,
            ..Self::default()
        }
    }

    /// Reads a register (`r0` always reads 0).
    #[must_use]
    pub fn read(&self, r: ArchReg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn write(&mut self, r: ArchReg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }
}

/// Memory side effect of one executed instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemEffect {
    /// No memory access.
    None,
    /// A load: address and value read.
    Load {
        /// Effective (aligned) address.
        addr: u64,
        /// Value read.
        value: u64,
    },
    /// A store: address and value written.
    Store {
        /// Effective (aligned) address.
        addr: u64,
        /// Value written.
        value: u64,
    },
    /// An atomic read-modify-write: address, value read, value written.
    Amo {
        /// Effective (aligned) address.
        addr: u64,
        /// Old value (returned in the destination register).
        read: u64,
        /// New value written back.
        written: u64,
    },
}

impl MemEffect {
    /// The address touched, if any.
    #[must_use]
    pub fn addr(&self) -> Option<u64> {
        match *self {
            MemEffect::None => None,
            MemEffect::Load { addr, .. }
            | MemEffect::Store { addr, .. }
            | MemEffect::Amo { addr, .. } => Some(addr),
        }
    }
}

/// Record of one architecturally executed (committed) instruction.
///
/// A sequence of `StepRecord`s is the *trace* consumed by the DIFT
/// leakage tool ([`recon-dift`](https://docs.rs)-style analyses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepRecord {
    /// Static instruction index executed.
    pub index: usize,
    /// The instruction itself.
    pub inst: Inst,
    /// Memory effect, if any.
    pub mem: MemEffect,
    /// For conditional branches: whether the branch was taken.
    pub taken: Option<bool>,
    /// Destination register and the value written, if any.
    pub wrote: Option<(ArchReg, u64)>,
    /// Index of the next instruction.
    pub next_pc: usize,
}

/// Execution errors: these indicate a malformed program, not a
/// recoverable condition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// `pc` fell outside the program (no `halt` reached).
    PcOutOfRange {
        /// The offending program counter.
        pc: usize,
    },
    /// A load/store computed a non-8-byte-aligned address.
    Misaligned {
        /// Instruction index.
        at: usize,
        /// The misaligned effective address.
        addr: u64,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            ExecError::Misaligned { at, addr } => {
                write!(f, "instruction {at}: misaligned address {addr:#x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

#[inline]
fn effective_addr(base: u64, offset: i64, at: usize) -> Result<u64, ExecError> {
    let addr = base.wrapping_add(offset as u64);
    if !addr.is_multiple_of(8) {
        return Err(ExecError::Misaligned { at, addr });
    }
    Ok(addr)
}

/// Executes exactly one instruction, updating `state` and `mem`.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-range `pc` or misaligned access.
/// Stepping a halted state returns a `Halt` record without effect.
pub fn step<M: DataMem>(
    program: &Program,
    state: &mut ArchState,
    mem: &mut M,
) -> Result<StepRecord, ExecError> {
    let pc = state.pc;
    let Some(&inst) = program.code.get(pc) else {
        return Err(ExecError::PcOutOfRange { pc });
    };
    execute(inst, state, mem)
}

/// The instruction semantics: executes `inst`, already fetched from
/// `state.pc`, and advances the pc. Every functional path — [`step`],
/// [`run_with`] and [`run_decoded`](crate::run_decoded) — runs this one
/// body; inlined into a caller that ignores the record, the record's
/// construction folds away.
///
/// # Errors
///
/// Returns [`ExecError::Misaligned`] on a misaligned access.
#[inline]
fn execute<M: DataMem>(
    inst: Inst,
    state: &mut ArchState,
    mem: &mut M,
) -> Result<StepRecord, ExecError> {
    let pc = state.pc;
    let mut record = StepRecord {
        index: pc,
        inst,
        mem: MemEffect::None,
        taken: None,
        wrote: None,
        next_pc: pc + 1,
    };
    match inst {
        Inst::LoadImm { dst, imm } => {
            state.write(dst, imm);
            record.wrote = Some((dst, imm));
        }
        Inst::Alu { kind, dst, a, b } => {
            let v = kind.apply(state.read(a), state.read(b));
            state.write(dst, v);
            record.wrote = Some((dst, v));
        }
        Inst::AluImm { kind, dst, a, imm } => {
            let v = kind.apply(state.read(a), imm);
            state.write(dst, v);
            record.wrote = Some((dst, v));
        }
        Inst::Load { dst, base, offset } => {
            let addr = effective_addr(state.read(base), offset, pc)?;
            let v = mem.read(addr);
            state.write(dst, v);
            record.mem = MemEffect::Load { addr, value: v };
            record.wrote = Some((dst, v));
        }
        Inst::LoadIdx { dst, base, index } => {
            let offset = state.read(index).wrapping_shl(3) as i64;
            let addr = effective_addr(state.read(base), offset, pc)?;
            let v = mem.read(addr);
            state.write(dst, v);
            record.mem = MemEffect::Load { addr, value: v };
            record.wrote = Some((dst, v));
        }
        Inst::Store { val, base, offset } => {
            let addr = effective_addr(state.read(base), offset, pc)?;
            let v = state.read(val);
            mem.write(addr, v);
            record.mem = MemEffect::Store { addr, value: v };
        }
        Inst::AmoAdd {
            dst,
            base,
            offset,
            add,
        } => {
            let addr = effective_addr(state.read(base), offset, pc)?;
            let old = mem.read(addr);
            let new = old.wrapping_add(state.read(add));
            mem.write(addr, new);
            state.write(dst, old);
            record.mem = MemEffect::Amo {
                addr,
                read: old,
                written: new,
            };
            record.wrote = Some((dst, old));
        }
        Inst::Branch { kind, a, b, target } => {
            let taken = kind.taken(state.read(a), state.read(b));
            record.taken = Some(taken);
            if taken {
                record.next_pc = target;
            }
        }
        Inst::Jump { target } => {
            record.next_pc = target;
        }
        Inst::Nop => {}
        Inst::Halt => {
            state.halted = true;
            record.next_pc = pc;
        }
    }
    state.pc = record.next_pc;
    Ok(record)
}

/// Runs up to `max_steps` instructions from `state` (the caller's,
/// resumed where it stands), fetching each through `fetch` and handing
/// its record to `f`. Stops early once the program halts, including a
/// halt before the first step; the caller reads `state.halted` to tell
/// a halt from an exhausted budget.
#[inline]
pub(crate) fn run_fetched<M: DataMem>(
    fetch: impl Fn(usize) -> Option<Inst>,
    state: &mut ArchState,
    mem: &mut M,
    max_steps: u64,
    mut f: impl FnMut(&StepRecord),
) -> Result<u64, ExecError> {
    let mut n = 0;
    while n < max_steps && !state.halted {
        let pc = state.pc;
        let inst = fetch(pc).ok_or(ExecError::PcOutOfRange { pc })?;
        f(&execute(inst, state, mem)?);
        n += 1;
    }
    Ok(n)
}

/// Runs `program` from `state` for up to `max_steps` instructions,
/// invoking `f` for each committed one, without materializing the trace
/// (for long workloads). Returns the number executed; `state.halted`
/// tells whether the program halted or the budget ran out first, which
/// callers with deadlines (`recon serve` analyze jobs) surface as a
/// partial result.
///
/// # Errors
///
/// Propagates any [`ExecError`] from [`step`].
pub fn run_with<M: DataMem>(
    program: &Program,
    state: &mut ArchState,
    mem: &mut M,
    max_steps: u64,
    f: impl FnMut(&StepRecord),
) -> Result<u64, ExecError> {
    run_fetched(|pc| program.code.get(pc).copied(), state, mem, max_steps, f)
}

/// Runs a program to completion (or `max_steps`), collecting the trace.
///
/// Returns the trace and the final architectural state. The program's
/// memory image seeds a fresh [`SparseMem`](crate::SparseMem).
///
/// # Errors
///
/// Propagates any [`ExecError`] from [`step`].
pub fn run_collect(
    program: &Program,
    max_steps: usize,
) -> Result<(Vec<StepRecord>, ArchState), ExecError> {
    let mut mem = crate::SparseMem::from_image(&program.image);
    let mut state = ArchState::at_entry(program);
    let mut trace = Vec::new();
    run_with(program, &mut state, &mut mem, max_steps as u64, |r| {
        trace.push(*r);
    })?;
    Ok((trace, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::names::*;

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new();
        a.li(R1, 6).li(R2, 7).mul(R3, R1, R2).halt();
        let p = a.assemble().unwrap();
        let (trace, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R3), 42);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[2].wrote, Some((R3, 42)));
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut a = Asm::new();
        a.li(R0, 99).addi(R1, R0, 1).halt();
        let p = a.assemble().unwrap();
        let (_, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R0), 0);
        assert_eq!(state.read(R1), 1);
    }

    #[test]
    fn load_store_round_trip() {
        let mut a = Asm::new();
        a.data(0x100, 0x2A);
        a.li(R1, 0x100)
            .load(R2, R1, 0)
            .store(R2, R1, 8)
            .load(R3, R1, 8)
            .halt();
        let p = a.assemble().unwrap();
        let (trace, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R3), 0x2A);
        assert_eq!(
            trace[1].mem,
            MemEffect::Load {
                addr: 0x100,
                value: 0x2A
            }
        );
        assert_eq!(
            trace[2].mem,
            MemEffect::Store {
                addr: 0x108,
                value: 0x2A
            }
        );
    }

    #[test]
    fn pointer_dereference_chain() {
        // mem[0x100] = 0x200 (a pointer); mem[0x200] = 77 (the value).
        let mut a = Asm::new();
        a.data(0x100, 0x200).data(0x200, 77);
        a.li(R1, 0x100).load(R2, R1, 0).load(R3, R2, 0).halt();
        let p = a.assemble().unwrap();
        let (_, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R3), 77);
    }

    #[test]
    fn loop_executes_expected_iterations() {
        let mut a = Asm::new();
        a.li(R1, 5).li(R2, 0);
        let top = a.here();
        a.addi(R2, R2, 1);
        a.subi(R1, R1, 1);
        a.bne_to(R1, R0, top);
        a.halt();
        let p = a.assemble().unwrap();
        let (trace, state) = run_collect(&p, 1000).unwrap();
        assert_eq!(state.read(R2), 5);
        // 2 init + 5 iterations * 3 + halt
        assert_eq!(trace.len(), 2 + 15 + 1);
        let last_branch = trace.iter().rev().find(|r| r.taken.is_some()).unwrap();
        assert_eq!(last_branch.taken, Some(false));
    }

    #[test]
    fn amoadd_returns_old_and_adds() {
        let mut a = Asm::new();
        a.data(0x80, 10);
        a.li(R1, 0x80)
            .li(R2, 5)
            .amoadd(R3, R1, 0, R2)
            .load(R4, R1, 0)
            .halt();
        let p = a.assemble().unwrap();
        let (trace, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R3), 10);
        assert_eq!(state.read(R4), 15);
        assert_eq!(
            trace[2].mem,
            MemEffect::Amo {
                addr: 0x80,
                read: 10,
                written: 15
            }
        );
    }

    #[test]
    fn loadidx_scales_the_index() {
        let mut a = Asm::new();
        a.data(0x100, 11).data(0x110, 22);
        a.li(R1, 0x100).li(R2, 2).loadidx(R3, R1, R2).halt();
        let p = a.assemble().unwrap();
        let (_, state) = run_collect(&p, 100).unwrap();
        assert_eq!(state.read(R3), 22, "reads mem[0x100 + 2*8]");
    }

    #[test]
    fn misaligned_access_is_an_error() {
        let mut a = Asm::new();
        a.li(R1, 0x101).load(R2, R1, 0).halt();
        let p = a.assemble().unwrap();
        let err = run_collect(&p, 100).unwrap_err();
        assert_eq!(err, ExecError::Misaligned { at: 1, addr: 0x101 });
    }

    #[test]
    fn negative_offset_addressing() {
        let mut a = Asm::new();
        a.data(0xF8, 3);
        a.li(R1, 0x100).load(R2, R1, -8).halt();
        let p = a.assemble().unwrap();
        let (_, state) = run_collect(&p, 10).unwrap();
        assert_eq!(state.read(R2), 3);
    }

    #[test]
    fn halt_freezes_state() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = crate::SparseMem::new();
        let mut st = ArchState::at_entry(&p);
        let r = step(&p, &mut st, &mut mem).unwrap();
        assert!(st.halted);
        assert_eq!(r.next_pc, 0);
    }

    #[test]
    fn run_with_counts_instructions() {
        let mut a = Asm::new();
        a.li(R1, 2);
        let top = a.here();
        a.subi(R1, R1, 1);
        a.bne_to(R1, R0, top);
        a.halt();
        let p = a.assemble().unwrap();
        let mut mem = crate::SparseMem::from_image(&p.image);
        let mut st = ArchState::at_entry(&p);
        let mut branches = 0;
        let mut count = |r: &StepRecord| branches += u64::from(r.taken.is_some());
        // A budget that runs out leaves the state resumable, not halted.
        assert_eq!(run_with(&p, &mut st, &mut mem, 3, &mut count).unwrap(), 3);
        assert!(!st.halted);
        let n = run_with(&p, &mut st, &mut mem, 1000, &mut count).unwrap();
        assert_eq!(3 + n, 1 + 4 + 1);
        assert!(st.halted);
        assert_eq!(branches, 2);
    }

    #[test]
    fn pc_out_of_range_reported() {
        // A jump past the end cannot assemble; construct manually.
        let p = Program::new(vec![Inst::Nop]);
        let mut mem = crate::SparseMem::new();
        let mut st = ArchState::at_entry(&p);
        step(&p, &mut st, &mut mem).unwrap();
        let err = step(&p, &mut st, &mut mem).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }
}
