//! Canonical disassembly: [`AsmProgram`] → re-assemblable text.
//!
//! The output is a *fixed point* of the assembler: re-assembling it
//! yields the same binary (code, image, entries), and disassembling
//! that binary yields byte-identical text. Labels are renamed to
//! `L0..Ln` in instruction order, so source label names are not
//! preserved — only structure is.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use recon_isa::Inst;

use crate::text::AsmProgram;

/// Renders `p` as canonical assembly text.
#[must_use]
pub fn disassemble(p: &AsmProgram) -> String {
    // Every branch/jump target and entry point gets a label, named in
    // ascending instruction-index order.
    let mut targets: BTreeMap<usize, String> = BTreeMap::new();
    for inst in &p.program.code {
        if let Inst::Branch { target, .. } | Inst::Jump { target } = *inst {
            targets.entry(target).or_default();
        }
    }
    for e in &p.entries {
        targets.entry(e.entry).or_default();
    }
    for (k, (_, name)) in targets.iter_mut().enumerate() {
        *name = format!("L{k}");
    }

    let mut out = String::new();
    for e in &p.entries {
        let _ = write!(out, ".entry {}", targets[&e.entry]);
        for &(reg, val) in &e.seeds {
            let _ = write!(out, " {reg}={val:#x}");
        }
        out.push('\n');
    }
    for (addr, val) in p.program.image.iter() {
        let _ = writeln!(out, ".data {addr:#x} {val:#x}");
    }
    for (i, inst) in p.program.code.iter().enumerate() {
        if let Some(name) = targets.get(&i) {
            let _ = writeln!(out, "{name}:");
        }
        // `Inst`'s `Display` is the assembler's syntax, except that it
        // prints a branch or jump target as `@index`.
        match *inst {
            Inst::Branch { kind, a, b, target } => {
                let _ = writeln!(out, "    {kind} {a}, {b}, {}", targets[&target]);
            }
            Inst::Jump { target } => {
                let _ = writeln!(out, "    j {}", targets[&target]);
            }
            ref other => {
                let _ = writeln!(out, "    {other}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::assemble;

    #[test]
    fn disassembly_is_a_fixed_point() {
        let src = "
.entry main r26=2
.data 0x100 0x2a
main:
    li r1, 0x100
    ld r2, [r1+0x0]
top:
    subi r2, r2, 1
    bne r2, r0, top
    st r2, [r1-0x8]
    halt
";
        let p1 = assemble(src).unwrap();
        let text2 = disassemble(&p1);
        let p2 = assemble(&text2).unwrap();
        assert!(p1.same_binary(&p2), "reassembly changed the binary");
        assert_eq!(disassemble(&p2), text2, "disassembly is not canonical");
    }

    #[test]
    fn labels_are_renamed_in_index_order() {
        let src = "
    j skip
early:
    nop
skip:
    beq r0, r0, early
    halt
";
        let text = disassemble(&assemble(src).unwrap());
        // Entry (index 0) is L0, `early` (1) is L1, `skip` (2) is L2.
        assert!(text.contains("    j L2\n"), "{text}");
        assert!(text.contains("L1:\n    nop"), "{text}");
    }
}
