//! Pre-decoded instruction streams and the functional fast-forward.
//!
//! Decoding in this ISA is cheap but not free: the out-of-order core
//! used to call [`Inst::dst`], [`Inst::srcs`], [`Inst::is_load`], … on
//! every fetch of every cycle, re-matching the same enum four to six
//! times per instruction. [`DecodedProgram`] performs that
//! classification exactly once per static instruction and stores the
//! results in a dense `Vec<DecodedInst>`, so fetch becomes one indexed
//! read of a flat record.
//!
//! The same stream is the fetch path of [`run_decoded`], the
//! functional fast-forward: register file plus [`DataMem`], with no ROB,
//! rename, predictor, or cache model — the execution mode
//! `recon run --fast-forward` uses to skip warmup instructions at two
//! orders of magnitude above detailed simulation speed. It runs the one
//! instruction-semantics body of [`exec`](crate::exec) through the same
//! loop as [`run_with`](crate::run_with); only the fetch differs.

use crate::exec::{run_fetched, ArchState, ExecError};
use crate::inst::Inst;
use crate::mem::DataMem;
use crate::program::Program;
use crate::reg::ArchReg;

/// One statically decoded instruction: the raw [`Inst`] plus every
/// classification the pipeline front-end needs, computed once.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodedInst {
    /// The instruction itself (for execute/commit-side matching).
    pub inst: Inst,
    /// Destination register, if any ([`Inst::dst`]).
    pub dst: Option<ArchReg>,
    /// Source registers ([`Inst::srcs`]).
    pub srcs: [Option<ArchReg>; 2],
    /// Reads memory ([`Inst::is_load`]): loads and atomics.
    pub is_load: bool,
    /// Writes memory ([`Inst::is_store`]): stores and atomics.
    pub is_store: bool,
    /// Is an atomic fetch-add (both load and store, serializing).
    pub is_amo: bool,
    /// Is a conditional branch ([`Inst::is_cond_branch`]).
    pub is_cond_branch: bool,
    /// Is a control-flow instruction ([`Inst::is_control`]).
    pub is_control: bool,
    /// Is an STT transmitter ([`Inst::is_transmitter`]).
    pub is_transmitter: bool,
}

impl DecodedInst {
    /// Decodes one instruction.
    #[must_use]
    pub fn decode(inst: Inst) -> Self {
        DecodedInst {
            inst,
            dst: inst.dst(),
            srcs: inst.srcs(),
            is_load: inst.is_load(),
            is_store: inst.is_store(),
            is_amo: matches!(inst, Inst::AmoAdd { .. }),
            is_cond_branch: inst.is_cond_branch(),
            is_control: inst.is_control(),
            is_transmitter: inst.is_transmitter(),
        }
    }
}

/// A whole program decoded into a dense stream, indexed by instruction
/// address. Built once per [`Program`] and shared by every consumer
/// (typically behind an `Arc`): the out-of-order front-end and the
/// functional fast-forward both fetch from it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
    /// Entry point copied from the program.
    pub entry: usize,
}

impl DecodedProgram {
    /// Decodes every instruction of `program`.
    #[must_use]
    pub fn decode(program: &Program) -> Self {
        DecodedProgram {
            insts: program
                .code
                .iter()
                .map(|&i| DecodedInst::decode(i))
                .collect(),
            entry: program.entry,
        }
    }

    /// The decoded instruction at `pc`, or `None` past the end.
    #[must_use]
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&DecodedInst> {
        self.insts.get(pc)
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Runs up to `max_steps` instructions of `decoded` functionally,
/// starting from (and updating) an existing [`ArchState`] — the
/// resumable fast-forward engine.
///
/// This is [`run_with`](crate::run_with) fetching from the decoded
/// stream and dropping every record. Returns the number of instructions
/// executed; execution stops early when the program halts (including a
/// halt *before* the first step).
///
/// # Errors
///
/// Returns [`ExecError`] on an out-of-range `pc` or a misaligned
/// address — identical conditions to [`exec::step`](crate::exec::step).
pub fn run_decoded<M: DataMem>(
    decoded: &DecodedProgram,
    state: &mut ArchState,
    mem: &mut M,
    max_steps: u64,
) -> Result<u64, ExecError> {
    run_fetched(
        |pc| decoded.insts.get(pc).map(|d| d.inst),
        state,
        mem,
        max_steps,
        |_| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::{run_collect, run_with};
    use crate::reg::names::*;
    use crate::reg::NUM_ARCH_REGS;
    use crate::SparseMem;

    fn pointer_loop_program() -> Program {
        let mut a = Asm::new();
        a.data(0x100, 0x200).data(0x200, 0x300).data(0x300, 0x100);
        a.data(0x108, 1).data(0x208, 2).data(0x308, 3);
        a.li(R1, 0x100).li(R2, 0).li(R3, 30);
        let top = a.here();
        a.load(R1, R1, 0); // pointer chase
        a.load(R4, R1, 8); // payload
        a.add(R2, R2, R4);
        a.subi(R3, R3, 1);
        a.bne_to(R3, R0, top);
        a.store(R2, R1, 16);
        a.amoadd(R5, R1, 24, R2);
        a.halt();
        a.assemble().unwrap()
    }

    /// Runs the one functional loop through either fetch path: the
    /// decoded stream ([`run_decoded`]) or `Program::code` ([`run_with`]).
    fn run(
        p: &Program,
        decoded: bool,
        state: &mut ArchState,
        mem: &mut SparseMem,
        max_steps: u64,
    ) -> Result<u64, ExecError> {
        if decoded {
            run_decoded(&DecodedProgram::decode(p), state, mem, max_steps)
        } else {
            run_with(p, state, mem, max_steps, |_| {})
        }
    }

    #[test]
    fn decoded_fields_match_accessors() {
        let p = pointer_loop_program();
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.len(), p.code.len());
        assert_eq!(d.entry, p.entry);
        for (i, inst) in p.code.iter().enumerate() {
            let dec = d.get(i).unwrap();
            assert_eq!(dec.inst, *inst);
            assert_eq!(dec.dst, inst.dst());
            assert_eq!(dec.srcs, inst.srcs());
            assert_eq!(dec.is_load, inst.is_load());
            assert_eq!(dec.is_store, inst.is_store());
            assert_eq!(dec.is_amo, matches!(inst, Inst::AmoAdd { .. }));
            assert_eq!(dec.is_cond_branch, inst.is_cond_branch());
            assert_eq!(dec.is_control, inst.is_control());
            assert_eq!(dec.is_transmitter, inst.is_transmitter());
        }
        assert!(d.get(p.code.len()).is_none());
    }

    #[test]
    fn fast_engine_resumes_mid_program() {
        let p = pointer_loop_program();
        let (trace, whole) = run_collect(&p, 10_000).unwrap();
        for decoded in [false, true] {
            // Split the run at an arbitrary point: the state threads through.
            let mut mem = SparseMem::from_image(&p.image);
            let mut state = ArchState::at_entry(&p);
            let a = run(&p, decoded, &mut state, &mut mem, 37).unwrap();
            assert_eq!(a, 37);
            assert!(!state.halted);
            let b = run(&p, decoded, &mut state, &mut mem, u64::MAX).unwrap();
            assert!(state.halted);
            assert_eq!(state, whole, "decoded fetch: {decoded}");
            assert_eq!(a + b, trace.len() as u64);
        }
    }

    #[test]
    fn fast_engine_stops_on_halted_state_without_stepping() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        for decoded in [false, true] {
            let mut mem = SparseMem::new();
            let mut state = ArchState::at_entry(&p);
            assert_eq!(run(&p, decoded, &mut state, &mut mem, 10).unwrap(), 1);
            assert!(state.halted);
            assert_eq!(state.pc, 0, "halt freezes the pc");
            assert_eq!(run(&p, decoded, &mut state, &mut mem, 10).unwrap(), 0);
        }
    }

    #[test]
    fn fast_engine_reports_the_same_errors() {
        let mut a = Asm::new();
        a.li(R1, 0x101).load(R2, R1, 0).halt();
        let misaligned = a.assemble().unwrap();
        let cases = [
            (
                Program::new(vec![Inst::Nop]),
                ExecError::PcOutOfRange { pc: 1 },
            ),
            (misaligned, ExecError::Misaligned { at: 1, addr: 0x101 }),
        ];
        for (p, want) in cases {
            assert_eq!(run_collect(&p, 10).unwrap_err(), want);
            for decoded in [false, true] {
                let mut mem = SparseMem::new();
                let mut state = ArchState::at_entry(&p);
                assert_eq!(
                    run(&p, decoded, &mut state, &mut mem, 10).unwrap_err(),
                    want
                );
            }
        }
    }

    #[test]
    fn all_register_values_thread_through_resume() {
        // A state with every register populated resumes bit-exactly.
        let mut a = Asm::new();
        for r in 1..NUM_ARCH_REGS {
            a.li(ArchReg::new(r), (r as u64) << 32 | 0xabcd);
        }
        a.halt();
        let p = a.assemble().unwrap();
        for decoded in [false, true] {
            let mut mem = SparseMem::new();
            let mut state = ArchState::at_entry(&p);
            for _ in 0..NUM_ARCH_REGS {
                run(&p, decoded, &mut state, &mut mem, 1).unwrap();
            }
            assert!(state.halted);
            for r in 1..NUM_ARCH_REGS {
                assert_eq!(state.read(ArchReg::new(r)), (r as u64) << 32 | 0xabcd);
            }
        }
    }
}
