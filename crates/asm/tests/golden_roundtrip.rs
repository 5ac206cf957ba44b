//! Golden assembler tests: parse → assemble → disassemble → reparse
//! must be byte-identical (the disassembly is a canonical fixed point)
//! and binary-identical (same code, image, and entry specs) for every
//! corpus program and a set of hand-written sources.

use recon_asm::{assemble, corpus, disassemble};

fn roundtrip(name: &str, src: &str) {
    let p1 = assemble(src).unwrap_or_else(|e| panic!("{name}: source does not assemble: {e}"));
    let text2 = disassemble(&p1);
    let p2 = assemble(&text2).unwrap_or_else(|e| {
        panic!("{name}: canonical disassembly does not reassemble: {e}\n{text2}")
    });
    assert!(
        p1.same_binary(&p2),
        "{name}: reassembling the disassembly changed the binary"
    );
    let text3 = disassemble(&p2);
    assert_eq!(text2, text3, "{name}: disassembly is not a fixed point");
}

#[test]
fn every_corpus_program_round_trips() {
    for e in &corpus::CORPUS {
        roundtrip(e.name, e.source);
    }
}

#[test]
fn negative_offsets_round_trip() {
    roundtrip(
        "negative-offsets",
        "
    li r1, 0x100
    ld r2, [r1-8]
    st r2, [r1-0x10]
    amoadd r3, [r1-24], r2
    halt
",
    );
}

#[test]
fn multi_entry_programs_round_trip() {
    roundtrip(
        "multi-entry",
        "
.entry main r26=1
.entry worker r5=0xff r6=-1
main:
    nop
    halt
worker:
    addi r1, r1, 1
    halt
",
    );
}

#[test]
fn data_sections_round_trip() {
    roundtrip(
        "data-sections",
        "
.data 0x100 18446744073709551615
.words 0x200 1 0x2 3
.zero 0x300 4
    ld r1, [r0+0x100]
    halt
",
    );
}

#[test]
fn canonical_form_reassembles_under_all_alu_ops() {
    let mut src = String::new();
    for op in [
        "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sltu",
    ] {
        src.push_str(&format!("    {op} r1, r2, r3\n"));
        src.push_str(&format!("    {op}i r1, r2, 0x7\n"));
    }
    src.push_str("    ldx r4, [r1+r2*8]\n    halt\n");
    roundtrip("all-alu-ops", &src);
}

/// `Inst`'s `Display` is the assembler's syntax: every non-branch form
/// prints as text that assembles back to the same instruction,
/// including the extreme memory offsets.
#[test]
fn display_is_the_assembler_syntax() {
    use recon_isa::{AluKind, ArchReg, Inst};

    let (r0, r7, r31) = (ArchReg::new(0), ArchReg::new(7), ArchReg::new(31));
    let mut forms = vec![Inst::Nop, Inst::Halt];
    for imm in [0, 1, 0x7f, u64::MAX] {
        forms.push(Inst::LoadImm { dst: r7, imm });
        for kind in AluKind::ALL {
            forms.push(Inst::AluImm {
                kind,
                dst: r31,
                a: r0,
                imm,
            });
        }
    }
    for kind in AluKind::ALL {
        forms.push(Inst::Alu {
            kind,
            dst: r7,
            a: r31,
            b: r0,
        });
    }
    forms.push(Inst::LoadIdx {
        dst: r0,
        base: r7,
        index: r31,
    });
    for offset in [0, 8, -8, 0x7ff8, i64::MIN, i64::MAX] {
        forms.push(Inst::Load {
            dst: r7,
            base: r31,
            offset,
        });
        forms.push(Inst::Store {
            val: r31,
            base: r7,
            offset,
        });
        forms.push(Inst::AmoAdd {
            dst: r0,
            base: r7,
            offset,
            add: r31,
        });
    }
    for inst in forms {
        let p = assemble(&format!("{inst}\nhalt"))
            .unwrap_or_else(|e| panic!("'{inst}' does not assemble: {e}"));
        assert_eq!(p.program.code[0], inst, "'{inst}' reads back differently");
    }
}
