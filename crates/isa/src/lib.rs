//! # recon-isa
//!
//! The minimal load/store RISC ISA shared by every component of the ReCon
//! reproduction: the out-of-order core (`recon-cpu`), the DIFT leakage
//! tool (`recon-dift`), and the workload generators (`recon-workloads`).
//!
//! The ISA is deliberately small but covers everything the paper's
//! mechanism needs:
//!
//! * loads with a *single* address source register plus immediate offset —
//!   the direct-dependence shape ReCon's load-pair table detects;
//! * aligned 8-byte stores (which conceal the word they write);
//! * ALU ops, conditional branches (control speculation), and an atomic
//!   fetch-add for multithreaded workloads.
//!
//! ## Quick example
//!
//! ```
//! use recon_isa::{Asm, run_collect, reg::names::*};
//!
//! // A pointer dereference: mem[0x100] holds a pointer to 0x200.
//! let mut a = Asm::new();
//! a.data(0x100, 0x200).data(0x200, 7);
//! a.li(R1, 0x100)
//!  .load(R2, R1, 0)   // LD1: loads the pointer
//!  .load(R3, R2, 0)   // LD2: dereferences it  -> a ReCon load pair
//!  .halt();
//! let program = a.assemble()?;
//! let (trace, state) = run_collect(&program, 1_000)?;
//! assert_eq!(state.read(R3), 7);
//! assert_eq!(trace.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod decoded;
pub mod exec;
pub mod hash;
pub mod inst;
pub mod mem;
pub mod program;
pub mod reg;
pub mod rng;
pub mod snap;

pub use asm::{Asm, AsmError, Label};
pub use decoded::{run_decoded, DecodedInst, DecodedProgram};
pub use exec::{run_collect, run_with, ArchState, ExecError, MemEffect, StepRecord};
pub use inst::{AluKind, BranchKind, Inst};
pub use mem::{DataMem, SparseMem};
pub use program::{MemImage, Program, ProgramError};
pub use reg::{ArchReg, NUM_ARCH_REGS};
pub use snap::{SnapError, SnapReader, SnapWriter};
