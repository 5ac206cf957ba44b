//! Malformed-source corpus: every broken input must produce a clean
//! line/column-diagnosed [`recon_asm::AsmTextError`] — never a panic.

use recon_asm::assemble;

/// (name, source, expected (line, col), expected message fragment)
const MALFORMED: &[(&str, &str, (usize, usize), &str)] = &[
    (
        "bad-register",
        "    li r32, 1\n    halt\n",
        (1, 8),
        "unknown register 'r32'",
    ),
    (
        "bad-alias",
        "    li acc, 1\n    halt\n",
        (1, 8),
        "unknown register or alias 'acc'",
    ),
    (
        "alias-typo-suggests",
        ".alias accum r5\n    li acum, 1\n    halt\n",
        (2, 8),
        "did you mean 'accum'",
    ),
    (
        "dangling-label",
        "    j nowhere\n    halt\n",
        (1, 7),
        "unknown label 'nowhere'",
    ),
    (
        "label-after-end",
        "    j end\n    halt\nend:\n",
        (1, 7),
        "bound past the last instruction",
    ),
    (
        "duplicate-label",
        "dup:\n    nop\ndup:\n    halt\n",
        (3, 1),
        "label 'dup' defined twice",
    ),
    (
        "misaligned-data",
        ".data 0x101 5\n    halt\n",
        (1, 7),
        "misaligned data address 0x101",
    ),
    (
        "misaligned-words",
        ".words 0xc 1 2\n    halt\n",
        (1, 8),
        "misaligned data address",
    ),
    (
        "overflowing-immediate",
        "    li r1, 0x10000000000000000\n    halt\n",
        (1, 12),
        "overflows 64 bits",
    ),
    (
        "overflowing-offset",
        "    ld r1, [r2+0x8000000000000000]\n    halt\n",
        (1, 15),
        "overflows a signed 64-bit offset",
    ),
    (
        "malformed-number",
        "    li r1, 0xzz\n    halt\n",
        (1, 12),
        "malformed number",
    ),
    (
        "unknown-mnemonic",
        "    hlat\n",
        (1, 5),
        "did you mean 'halt'",
    ),
    (
        "unknown-directive",
        ".dat 0x100 1\n    halt\n",
        (1, 1),
        "did you mean '.data'",
    ),
    (
        "bad-arity",
        "    add r1, r2\n    halt\n",
        (1, 13),
        "'add' expects 3 operands",
    ),
    (
        "bad-mem-operand",
        "    ld r1, (r2+8)\n    halt\n",
        (1, 12),
        "malformed memory operand",
    ),
    (
        "spaced-mem-operand",
        "    ld r1, [r2 + 8]\n    halt\n",
        (1, 12),
        "'ld' expects 2 operands",
    ),
    (
        "multibyte-mem-operand",
        "    ld r1, [é]\n    halt\n",
        (1, 13),
        "unknown register or alias 'é'",
    ),
    (
        "bad-ldx-operand",
        "    ldx r1, [r2+r3*4]\n    halt\n",
        (1, 13),
        "expected [base+index*8]",
    ),
    (
        "bad-entry-seed",
        ".entry main r5:1\nmain:\n    halt\n",
        (1, 13),
        "malformed register seed",
    ),
    (
        "entry-unknown-label",
        ".entry start\nmain:\n    halt\n",
        (1, 8),
        "unknown label 'start'",
    ),
    (
        "alias-shadows-register",
        ".alias r5 r6\n    halt\n",
        (1, 8),
        "shadows a register",
    ),
    (
        "alias-defined-twice",
        ".alias a r1\n.alias a r2\n    halt\n",
        (2, 8),
        "alias 'a' defined twice",
    ),
    ("no-halt", "    nop\n    nop\n", (2, 1), "no halt"),
    (
        "zero-count-too-large",
        ".zero 0x0 99999999999\n    halt\n",
        (1, 11),
        "too large",
    ),
    (
        "invalid-label-name",
        "9lives:\n    halt\n",
        (1, 1),
        "invalid label name",
    ),
];

#[test]
fn malformed_sources_produce_located_diagnostics() {
    for &(name, src, (line, col), fragment) in MALFORMED {
        let err = assemble(src)
            .map(|_| ())
            .expect_err(&format!("{name}: expected an error"));
        assert_eq!(
            (err.line, err.col),
            (line, col),
            "{name}: wrong position in '{err}'"
        );
        assert!(
            err.msg.contains(fragment),
            "{name}: message '{}' lacks '{fragment}'",
            err.msg
        );
        // Display renders line:col.
        assert!(err.to_string().starts_with(&format!("line {line}:{col}:")));
    }
}

#[test]
fn empty_and_comment_only_sources_diagnose_missing_halt() {
    for src in ["", "\n\n", "# just a comment\n; another\n"] {
        let err = assemble(src).expect_err("expected missing-halt error");
        assert!(err.msg.contains("no halt"), "{}", err.msg);
    }
}

/// Fuzz-ish robustness: truncating or mangling corpus sources at any
/// line boundary must never panic.
#[test]
fn truncated_corpus_sources_never_panic() {
    for e in &recon_asm::corpus::CORPUS {
        let lines: Vec<&str> = e.source.lines().collect();
        for cut in (0..lines.len()).step_by(7) {
            let truncated = lines[..cut].join("\n");
            let _ = assemble(&truncated); // may err; must not panic
        }
    }
}
