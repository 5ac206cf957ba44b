//! Instruction encoding: opcodes and their operands.

use core::fmt;

use crate::reg::ArchReg;

/// Arithmetic / logic operation kinds for [`Inst::Alu`] and [`Inst::AluImm`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluKind {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (longer execution latency).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by `b & 63`).
    Shl,
    /// Logical shift right (by `b & 63`).
    Shr,
    /// Set-less-than (unsigned): `1` if `a < b` else `0`.
    Sltu,
}

impl AluKind {
    /// All ALU kinds, for exhaustive tests and random program generation.
    pub const ALL: [AluKind; 9] = [
        AluKind::Add,
        AluKind::Sub,
        AluKind::Mul,
        AluKind::And,
        AluKind::Or,
        AluKind::Xor,
        AluKind::Shl,
        AluKind::Shr,
        AluKind::Sltu,
    ];

    /// The register-register mnemonic; the immediate form appends `i`.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluKind::Add => "add",
            AluKind::Sub => "sub",
            AluKind::Mul => "mul",
            AluKind::And => "and",
            AluKind::Or => "or",
            AluKind::Xor => "xor",
            AluKind::Shl => "shl",
            AluKind::Shr => "shr",
            AluKind::Sltu => "sltu",
        }
    }

    /// Applies the operation to two 64-bit values.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluKind::Add => a.wrapping_add(b),
            AluKind::Sub => a.wrapping_sub(b),
            AluKind::Mul => a.wrapping_mul(b),
            AluKind::And => a & b,
            AluKind::Or => a | b,
            AluKind::Xor => a ^ b,
            AluKind::Shl => a.wrapping_shl((b & 63) as u32),
            AluKind::Shr => a.wrapping_shr((b & 63) as u32),
            AluKind::Sltu => u64::from(a < b),
        }
    }
}

impl fmt::Display for AluKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison kinds for conditional branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if unsigned less-than.
    Ltu,
    /// Branch if unsigned greater-or-equal.
    Geu,
}

impl BranchKind {
    /// All branch kinds.
    pub const ALL: [BranchKind; 4] = [
        BranchKind::Eq,
        BranchKind::Ne,
        BranchKind::Ltu,
        BranchKind::Geu,
    ];

    /// The branch mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            BranchKind::Eq => "beq",
            BranchKind::Ne => "bne",
            BranchKind::Ltu => "bltu",
            BranchKind::Geu => "bgeu",
        }
    }

    /// Evaluates the branch condition.
    #[must_use]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchKind::Eq => a == b,
            BranchKind::Ne => a != b,
            BranchKind::Ltu => a < b,
            BranchKind::Geu => a >= b,
        }
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single instruction of the minimal RISC ISA used throughout the
/// reproduction.
///
/// Design notes relevant to the paper:
///
/// * [`Inst::Load`] has exactly one address source register plus an
///   immediate offset — the single-direct-dependence shape ReCon's
///   load-pair table detects (§4.3/§5.1 of the paper). Offsets do not
///   break a load pair.
/// * [`Inst::Store`] writes an aligned 8-byte word; a committed store
///   *conceals* the word it writes.
/// * [`Inst::AmoAdd`] is a sequentially-consistent atomic fetch-add used
///   by the PARSEC-style multithreaded workloads for locks and barriers.
///   Cores treat it as non-speculative and serializing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = imm`
    LoadImm {
        /// Destination register.
        dst: ArchReg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = a <op> b`
    Alu {
        /// Operation kind.
        kind: AluKind,
        /// Destination register.
        dst: ArchReg,
        /// First source register.
        a: ArchReg,
        /// Second source register.
        b: ArchReg,
    },
    /// `dst = a <op> imm`
    AluImm {
        /// Operation kind.
        kind: AluKind,
        /// Destination register.
        dst: ArchReg,
        /// Source register.
        a: ArchReg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = mem[base + offset]` (aligned 8-byte word).
    Load {
        /// Destination register.
        dst: ArchReg,
        /// Base address register — the single source whose producing load
        /// can form a ReCon load pair with this one.
        base: ArchReg,
        /// Byte offset added to the base (must keep the address 8-byte
        /// aligned).
        offset: i64,
    },
    /// `dst = mem[base + (index << 3)]` — a **multi-source** load in the
    /// style of x86 base+index addressing (§5.1.1 of the paper). Both
    /// `base` and `index` are direct address sources, so a load pair can
    /// be detected for *each* operand when multi-source LPT lookups are
    /// enabled (the paper's future-work extension).
    LoadIdx {
        /// Destination register.
        dst: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Word index register (scaled by 8).
        index: ArchReg,
    },
    /// `mem[base + offset] = val` (aligned 8-byte word).
    Store {
        /// Register holding the value to store.
        val: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Conditional branch: `if a <cmp> b goto target`.
    Branch {
        /// Comparison kind.
        kind: BranchKind,
        /// First comparison source.
        a: ArchReg,
        /// Second comparison source.
        b: ArchReg,
        /// Target instruction index (filled in by the assembler).
        target: usize,
    },
    /// Unconditional jump to an instruction index.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Atomic fetch-add: `dst = mem[base + offset]; mem[...] += add`.
    AmoAdd {
        /// Destination register receiving the old memory value.
        dst: ArchReg,
        /// Base address register.
        base: ArchReg,
        /// Byte offset.
        offset: i64,
        /// Register holding the addend.
        add: ArchReg,
    },
    /// No operation.
    Nop,
    /// Stops the hardware thread.
    Halt,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    ///
    /// Writes to `r0` are architectural no-ops but are still reported
    /// here; renaming discards them.
    #[must_use]
    pub fn dst(&self) -> Option<ArchReg> {
        match *self {
            Inst::LoadImm { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadIdx { dst, .. }
            | Inst::AmoAdd { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Source registers read by this instruction (0, 1, or 2).
    #[must_use]
    pub fn srcs(&self) -> [Option<ArchReg>; 2] {
        match *self {
            Inst::LoadImm { .. } | Inst::Jump { .. } | Inst::Nop | Inst::Halt => [None, None],
            Inst::Alu { a, b, .. } => [Some(a), Some(b)],
            Inst::AluImm { a, .. } => [Some(a), None],
            Inst::Load { base, .. } => [Some(base), None],
            Inst::LoadIdx { base, index, .. } => [Some(base), Some(index)],
            Inst::Store { val, base, .. } => [Some(base), Some(val)],
            Inst::Branch { a, b, .. } => [Some(a), Some(b)],
            Inst::AmoAdd { base, add, .. } => [Some(base), Some(add)],
        }
    }

    /// The register whose value forms the *address* of a memory access
    /// (the base register of a load/store/amo), if any. Multi-source
    /// loads report their base here; see [`Inst::addr_srcs`] for both.
    ///
    /// This is the dependence edge that ReCon's load-pair table inspects:
    /// a load whose [`Inst::addr_src`] was produced by an older load forms
    /// a direct-dependence load pair.
    #[must_use]
    pub fn addr_src(&self) -> Option<ArchReg> {
        match *self {
            Inst::Load { base, .. }
            | Inst::LoadIdx { base, .. }
            | Inst::Store { base, .. }
            | Inst::AmoAdd { base, .. } => Some(base),
            _ => None,
        }
    }

    /// All registers whose values form the address of a memory access —
    /// up to two for multi-source loads (§5.1.1).
    #[must_use]
    pub fn addr_srcs(&self) -> [Option<ArchReg>; 2] {
        match *self {
            Inst::LoadIdx { base, index, .. } => [Some(base), Some(index)],
            other => [other.addr_src(), None],
        }
    }

    /// Whether this instruction reads memory.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::LoadIdx { .. } | Inst::AmoAdd { .. }
        )
    }

    /// Whether this instruction writes memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::AmoAdd { .. })
    }

    /// Whether this instruction is a control-flow instruction.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::Jump { .. } | Inst::Halt)
    }

    /// Whether this is a conditional branch (predicted by the branch
    /// predictor and casting a control shadow until resolved).
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether the instruction is a *transmitter* in the STT sense: an
    /// instruction whose operands become visible through a side channel
    /// when it executes. In this model (as in the paper's evaluation),
    /// transmitters are memory instructions (address-forming) and
    /// resolving branches.
    #[must_use]
    pub fn is_transmitter(&self) -> bool {
        self.is_load() || self.is_store() || self.is_cond_branch()
    }
}

/// A memory operand as the assembler reads it: `[base+0x10]`,
/// `[base-0x8]`.
struct MemOperand(ArchReg, i64);

impl fmt::Display for MemOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.1 < 0 { '-' } else { '+' };
        write!(f, "[{}{sign}{:#x}]", self.0, self.1.unsigned_abs())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::LoadImm { dst, imm } => write!(f, "li {dst}, {imm:#x}"),
            Inst::Alu { kind, dst, a, b } => write!(f, "{kind} {dst}, {a}, {b}"),
            Inst::AluImm { kind, dst, a, imm } => write!(f, "{kind}i {dst}, {a}, {imm:#x}"),
            Inst::Load { dst, base, offset } => write!(f, "ld {dst}, {}", MemOperand(base, offset)),
            Inst::LoadIdx { dst, base, index } => write!(f, "ldx {dst}, [{base}+{index}*8]"),
            Inst::Store { val, base, offset } => {
                write!(f, "st {val}, {}", MemOperand(base, offset))
            }
            Inst::Branch { kind, a, b, target } => write!(f, "{kind} {a}, {b}, @{target}"),
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::AmoAdd {
                dst,
                base,
                offset,
                add,
            } => write!(f, "amoadd {dst}, {}, {add}", MemOperand(base, offset)),
            Inst::Nop => f.write_str("nop"),
            Inst::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn alu_apply_semantics() {
        assert_eq!(AluKind::Add.apply(3, 4), 7);
        assert_eq!(AluKind::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluKind::Sub.apply(3, 4), u64::MAX);
        assert_eq!(AluKind::Mul.apply(1 << 32, 1 << 32), 0);
        assert_eq!(AluKind::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluKind::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluKind::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluKind::Shl.apply(1, 63), 1 << 63);
        assert_eq!(AluKind::Shl.apply(1, 64), 1, "shift amount wraps at 64");
        assert_eq!(AluKind::Shr.apply(1 << 63, 63), 1);
        assert_eq!(AluKind::Sltu.apply(1, 2), 1);
        assert_eq!(AluKind::Sltu.apply(2, 2), 0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchKind::Eq.taken(5, 5));
        assert!(!BranchKind::Eq.taken(5, 6));
        assert!(BranchKind::Ne.taken(5, 6));
        assert!(BranchKind::Ltu.taken(5, 6));
        assert!(!BranchKind::Ltu.taken(6, 6));
        assert!(BranchKind::Geu.taken(6, 6));
        assert!(!BranchKind::Geu.taken(5, 6));
    }

    #[test]
    fn operand_accessors_for_load() {
        let ld = Inst::Load {
            dst: R2,
            base: R1,
            offset: 8,
        };
        assert_eq!(ld.dst(), Some(R2));
        assert_eq!(ld.srcs(), [Some(R1), None]);
        assert_eq!(ld.addr_src(), Some(R1));
        assert!(ld.is_load() && !ld.is_store() && ld.is_transmitter());
    }

    #[test]
    fn operand_accessors_for_store() {
        let st = Inst::Store {
            val: R3,
            base: R4,
            offset: -8,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.addr_src(), Some(R4));
        assert!(st.is_store() && !st.is_load() && st.is_transmitter());
    }

    #[test]
    fn amoadd_is_load_and_store() {
        let amo = Inst::AmoAdd {
            dst: R1,
            base: R2,
            offset: 0,
            add: R3,
        };
        assert!(amo.is_load() && amo.is_store());
        assert_eq!(amo.dst(), Some(R1));
        assert_eq!(amo.addr_src(), Some(R2));
    }

    #[test]
    fn control_classification() {
        let br = Inst::Branch {
            kind: BranchKind::Eq,
            a: R1,
            b: R0,
            target: 0,
        };
        assert!(br.is_control() && br.is_cond_branch() && br.is_transmitter());
        assert!(Inst::Jump { target: 3 }.is_control());
        assert!(Inst::Halt.is_control());
        assert!(!Inst::Nop.is_control());
        assert!(!Inst::Jump { target: 3 }.is_cond_branch());
    }

    #[test]
    fn loadidx_reports_both_address_sources() {
        let ldx = Inst::LoadIdx {
            dst: R3,
            base: R1,
            index: R2,
        };
        assert_eq!(ldx.dst(), Some(R3));
        assert_eq!(ldx.srcs(), [Some(R1), Some(R2)]);
        assert_eq!(ldx.addr_src(), Some(R1));
        assert_eq!(ldx.addr_srcs(), [Some(R1), Some(R2)]);
        assert!(ldx.is_load() && ldx.is_transmitter() && !ldx.is_store());
        assert_eq!(ldx.to_string(), "ldx r3, [r1+r2*8]");
    }

    #[test]
    fn single_source_loads_report_one_address_source() {
        let ld = Inst::Load {
            dst: R2,
            base: R1,
            offset: 0,
        };
        assert_eq!(ld.addr_srcs(), [Some(R1), None]);
    }

    #[test]
    fn alu_is_not_transmitter() {
        let alu = Inst::Alu {
            kind: AluKind::Add,
            dst: R1,
            a: R2,
            b: R3,
        };
        assert!(!alu.is_transmitter());
        assert_eq!(alu.srcs(), [Some(R2), Some(R3)]);
    }

    #[test]
    fn display_round_trips_meaning() {
        let ld = Inst::Load {
            dst: R2,
            base: R1,
            offset: 16,
        };
        assert_eq!(ld.to_string(), "ld r2, [r1+0x10]");
        assert_eq!(Inst::Nop.to_string(), "nop");
    }
}
