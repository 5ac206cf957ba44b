//! A small assembler DSL for building [`Program`]s with forward labels.
//!
//! ```
//! use recon_isa::{Asm, reg::names::*};
//!
//! let mut a = Asm::new();
//! let done = a.new_label();
//! a.li(R1, 10);
//! let top = a.here();
//! a.beq(R1, R0, done);
//! a.subi(R1, R1, 1);
//! a.jump_to(top);
//! a.bind(done);
//! a.halt();
//! let program = a.assemble().unwrap();
//! assert_eq!(program.len(), 5);
//! ```

use crate::inst::{AluKind, BranchKind, Inst};
use crate::program::{ImageWriter, Program, ProgramError};
use crate::reg::ArchReg;

/// A forward-referenceable code label handed out by [`Asm::new_label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// Errors from [`Asm::assemble`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsmError {
    /// A label was used as a branch target but never [`Asm::bind`]-ed.
    UnboundLabel {
        /// Allocation index of the label (order of `new_label` calls).
        index: usize,
    },
    /// The assembled program failed [`Program::validate`].
    Invalid(ProgramError),
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AsmError::UnboundLabel { index } => write!(f, "label L{index} used but never bound"),
            AsmError::Invalid(e) => write!(f, "assembled program invalid: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError::Invalid(e)
    }
}

/// Either an already-known instruction index or a label to patch later.
#[derive(Clone, Copy, Debug)]
enum Target {
    Index(usize),
    Label(Label),
}

/// Program builder with label support and a memory-image builder.
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<Inst>,
    /// For each instruction, the pending label target, if it used one.
    patches: Vec<(usize, Label)>,
    bound: Vec<Option<usize>>,
    /// The memory image, built as [`Asm::data`] defines its words.
    image: ImageWriter,
}

impl Asm {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Binds `label` to the *next* instruction emitted.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.bound[label.0];
        assert!(slot.is_none(), "label L{} bound twice", label.0);
        *slot = Some(self.code.len());
    }

    /// The index of the next instruction to be emitted — usable as a
    /// backward branch target without a label.
    #[must_use]
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether no instructions have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Defines an initial-memory word (8-byte aligned address). A later
    /// definition of the same address wins. Words defined in ascending
    /// address order go straight into the image; [`Asm::assemble`]
    /// merges any others in once.
    pub fn data(&mut self, addr: u64, value: u64) -> &mut Self {
        self.image.write(addr, value);
        self
    }

    fn push(&mut self, inst: Inst) -> &mut Self {
        self.code.push(inst);
        self
    }

    fn push_branch(&mut self, kind: BranchKind, a: ArchReg, b: ArchReg, t: Target) -> &mut Self {
        let at = self.code.len();
        let target = match t {
            Target::Index(i) => i,
            Target::Label(l) => {
                self.patches.push((at, l));
                usize::MAX // patched in assemble()
            }
        };
        self.push(Inst::Branch { kind, a, b, target })
    }

    // ---- instruction emitters -------------------------------------------

    /// `dst = imm`
    pub fn li(&mut self, dst: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::LoadImm { dst, imm })
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::Add,
            dst,
            a,
            b,
        })
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::Sub,
            dst,
            a,
            b,
        })
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::Mul,
            dst,
            a,
            b,
        })
    }

    /// `dst = a & b`
    pub fn and(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::And,
            dst,
            a,
            b,
        })
    }

    /// `dst = a | b`
    pub fn or(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::Or,
            dst,
            a,
            b,
        })
    }

    /// `dst = a ^ b`
    pub fn xor(&mut self, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu {
            kind: AluKind::Xor,
            dst,
            a,
            b,
        })
    }

    /// Generic register-register ALU operation.
    pub fn alu(&mut self, kind: AluKind, dst: ArchReg, a: ArchReg, b: ArchReg) -> &mut Self {
        self.push(Inst::Alu { kind, dst, a, b })
    }

    /// `dst = a + imm`
    pub fn addi(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::Add,
            dst,
            a,
            imm,
        })
    }

    /// `dst = a - imm`
    pub fn subi(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::Sub,
            dst,
            a,
            imm,
        })
    }

    /// `dst = a * imm`
    pub fn muli(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::Mul,
            dst,
            a,
            imm,
        })
    }

    /// `dst = a & imm`
    pub fn andi(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::And,
            dst,
            a,
            imm,
        })
    }

    /// `dst = a << imm`
    pub fn shli(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::Shl,
            dst,
            a,
            imm,
        })
    }

    /// `dst = a >> imm`
    pub fn shri(&mut self, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm {
            kind: AluKind::Shr,
            dst,
            a,
            imm,
        })
    }

    /// Generic register-immediate ALU operation.
    pub fn alui(&mut self, kind: AluKind, dst: ArchReg, a: ArchReg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm { kind, dst, a, imm })
    }

    /// `dst = mem[base + offset]`
    pub fn load(&mut self, dst: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.push(Inst::Load { dst, base, offset })
    }

    /// `mem[base + offset] = val`
    pub fn store(&mut self, val: ArchReg, base: ArchReg, offset: i64) -> &mut Self {
        self.push(Inst::Store { val, base, offset })
    }

    /// `dst = mem[base + index*8]` — a multi-source (base+index) load.
    pub fn loadidx(&mut self, dst: ArchReg, base: ArchReg, index: ArchReg) -> &mut Self {
        self.push(Inst::LoadIdx { dst, base, index })
    }

    /// Atomic fetch-add.
    pub fn amoadd(&mut self, dst: ArchReg, base: ArchReg, offset: i64, add: ArchReg) -> &mut Self {
        self.push(Inst::AmoAdd {
            dst,
            base,
            offset,
            add,
        })
    }

    /// `if a == b goto label`
    pub fn beq(&mut self, a: ArchReg, b: ArchReg, label: Label) -> &mut Self {
        self.push_branch(BranchKind::Eq, a, b, Target::Label(label))
    }

    /// `if a != b goto label`
    pub fn bne(&mut self, a: ArchReg, b: ArchReg, label: Label) -> &mut Self {
        self.push_branch(BranchKind::Ne, a, b, Target::Label(label))
    }

    /// `if a < b goto label` (unsigned)
    pub fn bltu(&mut self, a: ArchReg, b: ArchReg, label: Label) -> &mut Self {
        self.push_branch(BranchKind::Ltu, a, b, Target::Label(label))
    }

    /// `if a >= b goto label` (unsigned)
    pub fn bgeu(&mut self, a: ArchReg, b: ArchReg, label: Label) -> &mut Self {
        self.push_branch(BranchKind::Geu, a, b, Target::Label(label))
    }

    /// `if a != b goto index` — backward branch to a [`Asm::here`] mark.
    pub fn bne_to(&mut self, a: ArchReg, b: ArchReg, index: usize) -> &mut Self {
        self.push_branch(BranchKind::Ne, a, b, Target::Index(index))
    }

    /// `if a < b goto index` (unsigned) — backward branch.
    pub fn bltu_to(&mut self, a: ArchReg, b: ArchReg, index: usize) -> &mut Self {
        self.push_branch(BranchKind::Ltu, a, b, Target::Index(index))
    }

    /// Unconditional jump to a label.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let at = self.code.len();
        self.patches.push((at, label));
        self.push(Inst::Jump { target: usize::MAX })
    }

    /// Unconditional jump to a known index (e.g. from [`Asm::here`]).
    pub fn jump_to(&mut self, index: usize) -> &mut Self {
        self.push(Inst::Jump { target: index })
    }

    /// Emits a `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Emits a `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Resolves labels and validates the result.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a used label was never bound,
    /// or [`AsmError::Invalid`] if the program fails validation.
    pub fn assemble(mut self) -> Result<Program, AsmError> {
        for &(at, label) in &self.patches {
            let Some(index) = self.bound[label.0] else {
                return Err(AsmError::UnboundLabel { index: label.0 });
            };
            match &mut self.code[at] {
                Inst::Branch { target, .. } | Inst::Jump { target } => *target = index,
                other => unreachable!("patch points at non-branch {other}"),
            }
        }
        let program = Program {
            code: self.code,
            entry: 0,
            image: self.image.finish(),
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn forward_label_is_patched() {
        let mut a = Asm::new();
        let end = a.new_label();
        a.beq(R0, R0, end);
        a.nop();
        a.bind(end);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(
            p.code[0],
            Inst::Branch {
                kind: BranchKind::Eq,
                a: R0,
                b: R0,
                target: 2
            }
        );
    }

    #[test]
    fn backward_branch_via_here() {
        let mut a = Asm::new();
        let top = a.here();
        a.subi(R1, R1, 1);
        a.bne_to(R1, R0, top);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(
            p.code[1],
            Inst::Branch {
                kind: BranchKind::Ne,
                a: R1,
                b: R0,
                target: 0
            }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.jump(l);
        a.halt();
        assert_eq!(
            a.assemble().unwrap_err(),
            AsmError::UnboundLabel { index: 0 }
        );
    }

    #[test]
    fn missing_halt_is_an_error() {
        let mut a = Asm::new();
        a.nop();
        assert!(matches!(
            a.assemble().unwrap_err(),
            AsmError::Invalid(ProgramError::MissingHalt)
        ));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.bind(l);
        a.nop();
        a.bind(l);
    }

    #[test]
    fn data_populates_image() {
        let mut a = Asm::new();
        a.data(0x100, 5).data(0x108, 6);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.image.get(0x100), Some(5));
        assert_eq!(p.image.get(0x108), Some(6));
    }

    #[test]
    fn emitters_chain() {
        let mut a = Asm::new();
        a.li(R1, 1)
            .addi(R2, R1, 2)
            .load(R3, R2, 0)
            .store(R3, R2, 8)
            .halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 5);
    }
}
