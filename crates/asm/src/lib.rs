//! # recon-asm
//!
//! The real-program frontend for the recon ISA: a text assembler
//! ([`assemble`]), a canonical disassembler ([`disassemble`]), and the
//! embedded benchmark [`corpus`] — five hand-written programs
//! (quicksort, matmul, a QOI-style decoder, box blur, and a
//! pointer-chasing memory benchmark) with self-checking epilogues.
//!
//! The assembler accepts a line-oriented language whose instruction
//! syntax is what `Inst`'s `Display` impl prints, with one exception:
//! a branch or jump names a label where `Display` prints its `@index`
//! target. The disassembler supplies those labels, so disassembled
//! programs re-assemble. See [`text`] for the grammar and [`corpus`]
//! for the corpus conventions (digest/status addresses, the reserved
//! gadget registers, and the `;@gadget` splice marker used by
//! `recon verify --embedded`).
//!
//! ```
//! use recon_asm::{assemble, disassemble};
//!
//! let p = assemble("main:\n    li r1, 42\n    halt\n")?;
//! assert_eq!(p.program.code.len(), 2);
//! let text = disassemble(&p);
//! assert!(recon_asm::assemble(&text)?.same_binary(&p));
//! # Ok::<(), recon_asm::AsmTextError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod disasm;
pub mod text;

pub use disasm::disassemble;
pub use text::{assemble, suggest, AsmProgram, AsmTextError, EntrySpec};
