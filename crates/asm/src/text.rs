//! The text assembler: recon assembly source → [`AsmProgram`].
//!
//! ## Grammar
//!
//! The language is line-oriented. Each line is one of: a label
//! definition (`name:`), a directive, an instruction, or blank. `#` and
//! `;` start comments that run to end of line. A label on a line of its
//! own binds to the next instruction emitted.
//!
//! Directives:
//!
//! | directive | meaning |
//! |---|---|
//! | `.entry <label> [rN=<val> ...]` | add a hardware-thread entry point with register seeds |
//! | `.alias <name> <reg>` | name a register (position-independent; `zero` is built in for `r0`) |
//! | `.data <addr> <val>` | define one initial-memory word |
//! | `.words <addr> <v0> <v1> ...` | define consecutive words starting at `addr` |
//! | `.zero <addr> <count>` | define `count` zero words starting at `addr` |
//!
//! Instructions are written as `Inst`'s `Display` impl prints them
//! (`li r1, 0x2a`, `addi r2, r1, 0x1`, `ld r2, [r1+0x10]`,
//! `st r2, [r1-0x8]`, `ldx r3, [r1+r2*8]`, `amoadd`, `nop`, `halt`),
//! except that a branch (`beq`/`bne`/`bltu`/`bgeu`) or jump (`j`)
//! names a label where `Display` prints `@index`. `mv dst, src` is
//! accepted as sugar for `addi dst, src, 0x0`. Memory operands must not
//! contain spaces. Numbers are decimal or `0x` hex; a leading `-` wraps
//! (two's complement) for immediates and is a signed offset in memory
//! operands.
//!
//! All source errors are reported as [`AsmTextError`] with a 1-based
//! line and column; the assembler never panics on malformed input.

use std::collections::HashMap;
use std::fmt;

use recon_isa::reg::NUM_ARCH_REGS;
use recon_isa::{AluKind, ArchReg, BranchKind, Inst, Program, ProgramError};

/// A source-located assembly error. `line` and `col` are 1-based.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmTextError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
}

impl AsmTextError {
    fn new(line: usize, col: usize, msg: impl Into<String>) -> Self {
        AsmTextError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for AsmTextError {}

/// One hardware-thread entry point declared by `.entry`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntrySpec {
    /// Instruction index the thread starts at.
    pub entry: usize,
    /// Initial register values applied before the first instruction.
    pub seeds: Vec<(ArchReg, u64)>,
}

/// An assembled program plus the front-end metadata the binary
/// [`Program`] cannot carry: entry specs and the label table.
#[derive(Clone, PartialEq, Debug)]
pub struct AsmProgram {
    /// The validated program. `program.entry` is the first entry spec.
    pub program: Program,
    /// Entry points in `.entry` declaration order (one per hardware
    /// thread); defaults to a single seedless entry at instruction 0.
    pub entries: Vec<EntrySpec>,
    /// `(name, instruction index)` pairs in definition order.
    pub labels: Vec<(String, usize)>,
}

impl AsmProgram {
    /// Structural equality on the parts that affect execution: code,
    /// image, and entry specs (label *names* are presentation only).
    #[must_use]
    pub fn same_binary(&self, other: &AsmProgram) -> bool {
        self.program == other.program && self.entries == other.entries
    }
}

/// Suggests the closest candidate to `input` within edit distance 2,
/// for "did you mean" diagnostics. Ties go to the earliest candidate.
#[must_use]
pub fn suggest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(input, cand);
        if d <= 2 && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c)
}

/// Levenshtein distance over bytes (sources here are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// All instruction mnemonics, for "unknown mnemonic" suggestions.
const MNEMONICS: &[&str] = &[
    "li", "mv", "add", "sub", "mul", "and", "or", "xor", "shl", "shr", "sltu", "addi", "subi",
    "muli", "andi", "ori", "xori", "shli", "shri", "sltui", "ld", "ldx", "st", "amoadd", "beq",
    "bne", "bltu", "bgeu", "j", "nop", "halt",
];

const DIRECTIVES: &[&str] = &[".entry", ".alias", ".data", ".words", ".zero"];

/// A source token with its 1-based column.
#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    s: &'a str,
    col: usize,
}

/// Splits a comment-stripped line on whitespace and commas.
fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() || ch == ',' {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    s: &line[s..i],
                    col: s + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            s: &line[s..],
            col: s + 1,
        });
    }
    toks
}

fn strip_comment(line: &str) -> &str {
    match line.find(['#', ';']) {
        Some(i) => &line[..i],
        None => line,
    }
}

/// A label use site, resolved once the whole source is parsed.
#[derive(Clone, Debug)]
struct LabelRef {
    name: String,
    line: usize,
    col: usize,
}

impl LabelRef {
    fn at(line: usize, tok: Tok<'_>) -> Self {
        LabelRef {
            name: tok.s.to_string(),
            line,
            col: tok.col,
        }
    }
}

#[derive(Default)]
struct Parser<'a> {
    aliases: HashMap<&'a str, ArchReg>,
    /// Alias names in definition order, so that a suggestion tie goes
    /// to the earliest alias.
    alias_order: Vec<&'a str>,
    code: Vec<Inst>,
    /// `(code index, label)` of each branch and jump, whose placeholder
    /// target is patched once every label is defined.
    fixups: Vec<(usize, LabelRef)>,
    /// name → instruction index
    label_defs: HashMap<String, usize>,
    label_order: Vec<(String, usize)>,
    image: Vec<(u64, u64)>,
    entries: Vec<(LabelRef, Vec<(ArchReg, u64)>)>,
}

type PResult<T> = Result<T, AsmTextError>;

impl<'a> Parser<'a> {
    fn parse_reg(&self, line: usize, tok: Tok<'_>) -> PResult<ArchReg> {
        if let Some(&r) = self.aliases.get(tok.s) {
            return Ok(r);
        }
        if tok.s == "zero" {
            return Ok(ArchReg::ZERO);
        }
        if let Some(num) = tok.s.strip_prefix('r') {
            if num.chars().all(|c| c.is_ascii_digit()) && !num.is_empty() {
                if let Ok(i) = num.parse::<usize>() {
                    if let Some(r) = ArchReg::try_new(i) {
                        return Ok(r);
                    }
                }
                return Err(AsmTextError::new(
                    line,
                    tok.col,
                    format!(
                        "unknown register '{}' (valid registers are r0..r{})",
                        tok.s,
                        NUM_ARCH_REGS - 1
                    ),
                ));
            }
        }
        let mut msg = format!("unknown register or alias '{}'", tok.s);
        if let Some(hint) = suggest(tok.s, self.alias_order.iter().copied()) {
            msg.push_str(&format!(" (did you mean '{hint}'?)"));
        }
        Err(AsmTextError::new(line, tok.col, msg))
    }

    fn expect_arity(line: usize, toks: &[Tok<'_>], n: usize, usage: &str) -> PResult<()> {
        if toks.len() - 1 != n {
            let col = toks
                .get(n.min(toks.len() - 1))
                .map_or(toks[0].col, |t| t.col);
            return Err(AsmTextError::new(
                line,
                col,
                format!(
                    "'{}' expects {} operand{} (usage: {usage})",
                    toks[0].s,
                    n,
                    if n == 1 { "" } else { "s" }
                ),
            ));
        }
        Ok(())
    }

    /// Parses `[base]`, `[base+off]`, or `[base-off]`.
    fn parse_mem(&self, line: usize, tok: Tok<'_>) -> PResult<(ArchReg, i64)> {
        let inner = mem_inner(line, tok)?;
        // The sign can only follow the base's first character, which
        // may be more than one byte long.
        let split = inner
            .s
            .char_indices()
            .skip(1)
            .find(|&(_, c)| c == '+' || c == '-')
            .map(|(i, _)| i);
        match split {
            None => Ok((self.parse_reg(line, inner)?, 0)),
            Some(i) => {
                let base = self.parse_reg(
                    line,
                    Tok {
                        s: &inner.s[..i],
                        col: inner.col,
                    },
                )?;
                let off_tok = Tok {
                    s: &inner.s[i..],
                    col: inner.col + i,
                };
                Ok((base, parse_i64(line, off_tok)?))
            }
        }
    }

    /// Parses `[base+index*8]` for `ldx`.
    fn parse_mem_idx(&self, line: usize, tok: Tok<'_>) -> PResult<(ArchReg, ArchReg)> {
        let inner = mem_inner(line, tok)?;
        let bad = || {
            AsmTextError::new(
                line,
                tok.col,
                format!(
                    "malformed indexed operand '{}' (expected [base+index*8])",
                    tok.s
                ),
            )
        };
        let plus = inner.s.find('+').ok_or_else(bad)?;
        let rest = &inner.s[plus + 1..];
        let idx = rest.strip_suffix("*8").ok_or_else(bad)?;
        let base = self.parse_reg(
            line,
            Tok {
                s: &inner.s[..plus],
                col: inner.col,
            },
        )?;
        let index = self.parse_reg(
            line,
            Tok {
                s: idx,
                col: inner.col + plus + 1,
            },
        )?;
        Ok((base, index))
    }

    fn parse_directive(&mut self, line: usize, toks: &[Tok<'a>]) -> PResult<()> {
        let head = toks[0];
        match head.s {
            ".alias" => Ok(()), // handled in the alias pre-pass
            ".entry" => {
                if toks.len() < 2 {
                    return Err(AsmTextError::new(
                        line,
                        head.col,
                        "'.entry' expects a label (usage: .entry <label> [rN=<val> ...])",
                    ));
                }
                let mut seeds = Vec::new();
                for t in &toks[2..] {
                    let Some(eq) = t.s.find('=') else {
                        return Err(AsmTextError::new(
                            line,
                            t.col,
                            format!("malformed register seed '{}' (expected rN=<val>)", t.s),
                        ));
                    };
                    let reg = self.parse_reg(
                        line,
                        Tok {
                            s: &t.s[..eq],
                            col: t.col,
                        },
                    )?;
                    let val = parse_u64(
                        line,
                        Tok {
                            s: &t.s[eq + 1..],
                            col: t.col + eq + 1,
                        },
                    )?;
                    seeds.push((reg, val));
                }
                self.entries.push((LabelRef::at(line, toks[1]), seeds));
                Ok(())
            }
            ".data" => {
                Self::expect_arity(line, toks, 2, ".data <addr> <val>")?;
                let addr = parse_aligned_addr(line, toks[1])?;
                let val = parse_u64(line, toks[2])?;
                self.image.push((addr, val));
                Ok(())
            }
            ".words" => {
                if toks.len() < 3 {
                    return Err(AsmTextError::new(
                        line,
                        head.col,
                        "'.words' expects an address and at least one value",
                    ));
                }
                let addr = parse_aligned_addr(line, toks[1])?;
                for (i, t) in toks[2..].iter().enumerate() {
                    let val = parse_u64(line, *t)?;
                    let Some(a) = addr.checked_add(8 * i as u64) else {
                        return Err(AsmTextError::new(
                            line,
                            t.col,
                            "'.words' run wraps past the end of the address space",
                        ));
                    };
                    self.image.push((a, val));
                }
                Ok(())
            }
            ".zero" => {
                Self::expect_arity(line, toks, 2, ".zero <addr> <count>")?;
                let addr = parse_aligned_addr(line, toks[1])?;
                let count = parse_u64(line, toks[2])?;
                if count > 1 << 24 {
                    return Err(AsmTextError::new(
                        line,
                        toks[2].col,
                        format!("'.zero' count {count} too large (max {})", 1u64 << 24),
                    ));
                }
                if addr.checked_add(8 * count).is_none() {
                    return Err(AsmTextError::new(
                        line,
                        toks[1].col,
                        "'.zero' run wraps past the end of the address space",
                    ));
                }
                for i in 0..count {
                    self.image.push((addr + 8 * i, 0));
                }
                Ok(())
            }
            other => {
                let mut msg = format!("unknown directive '{other}'");
                if let Some(hint) = suggest(other, DIRECTIVES.iter().copied()) {
                    msg.push_str(&format!(" (did you mean '{hint}'?)"));
                }
                Err(AsmTextError::new(line, head.col, msg))
            }
        }
    }

    /// Parses one instruction. A branch or jump gets a placeholder
    /// target and also returns its label, for the fixup list.
    fn parse_inst(&self, line: usize, toks: &[Tok<'_>]) -> PResult<(Inst, Option<LabelRef>)> {
        let arity = |n: usize, usage: &str| Self::expect_arity(line, toks, n, usage);
        let reg = |i: usize| self.parse_reg(line, toks[i]);
        let mem = |i: usize| self.parse_mem(line, toks[i]);
        let label = |i: usize| Some(LabelRef::at(line, toks[i]));
        let alu = |m: &str| AluKind::ALL.into_iter().find(|k| k.mnemonic() == m);
        let branch = |m: &str| BranchKind::ALL.into_iter().find(|k| k.mnemonic() == m);
        let inst = match toks[0].s {
            "li" => {
                arity(2, "li <dst>, <imm>")?;
                Inst::LoadImm {
                    dst: reg(1)?,
                    imm: parse_u64(line, toks[2])?,
                }
            }
            "mv" => {
                arity(2, "mv <dst>, <src>")?;
                Inst::AluImm {
                    kind: AluKind::Add,
                    dst: reg(1)?,
                    a: reg(2)?,
                    imm: 0,
                }
            }
            "ld" => {
                arity(2, "ld <dst>, [base+off]")?;
                let dst = reg(1)?;
                let (base, offset) = mem(2)?;
                Inst::Load { dst, base, offset }
            }
            "ldx" => {
                arity(2, "ldx <dst>, [base+index*8]")?;
                let dst = reg(1)?;
                let (base, index) = self.parse_mem_idx(line, toks[2])?;
                Inst::LoadIdx { dst, base, index }
            }
            "st" => {
                arity(2, "st <val>, [base+off]")?;
                let val = reg(1)?;
                let (base, offset) = mem(2)?;
                Inst::Store { val, base, offset }
            }
            "amoadd" => {
                arity(3, "amoadd <dst>, [base+off], <add>")?;
                let dst = reg(1)?;
                let (base, offset) = mem(2)?;
                Inst::AmoAdd {
                    dst,
                    base,
                    offset,
                    add: reg(3)?,
                }
            }
            "j" => {
                arity(1, "j <label>")?;
                return Ok((Inst::Jump { target: usize::MAX }, label(1)));
            }
            "nop" => {
                arity(0, "nop")?;
                Inst::Nop
            }
            "halt" => {
                arity(0, "halt")?;
                Inst::Halt
            }
            m => {
                if let Some(kind) = alu(m) {
                    arity(3, "<op> <dst>, <a>, <b>")?;
                    Inst::Alu {
                        kind,
                        dst: reg(1)?,
                        a: reg(2)?,
                        b: reg(3)?,
                    }
                } else if let Some(kind) = m.strip_suffix('i').and_then(alu) {
                    arity(3, "<op>i <dst>, <a>, <imm>")?;
                    Inst::AluImm {
                        kind,
                        dst: reg(1)?,
                        a: reg(2)?,
                        imm: parse_u64(line, toks[3])?,
                    }
                } else if let Some(kind) = branch(m) {
                    arity(3, "<br> <a>, <b>, <label>")?;
                    let (a, b) = (reg(1)?, reg(2)?);
                    let target = usize::MAX;
                    return Ok((Inst::Branch { kind, a, b, target }, label(3)));
                } else {
                    let mut msg = format!("unknown mnemonic '{m}'");
                    if let Some(hint) = suggest(m, MNEMONICS.iter().copied()) {
                        msg.push_str(&format!(" (did you mean '{hint}'?)"));
                    }
                    return Err(AsmTextError::new(line, toks[0].col, msg));
                }
            }
        };
        Ok((inst, None))
    }
}

fn mem_inner<'b>(line: usize, tok: Tok<'b>) -> PResult<Tok<'b>> {
    let inner = tok
        .s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            AsmTextError::new(
                line,
                tok.col,
                format!(
                    "malformed memory operand '{}' (expected [base+off] with no spaces)",
                    tok.s
                ),
            )
        })?;
    if inner.is_empty() {
        return Err(AsmTextError::new(
            line,
            tok.col,
            "empty memory operand '[]'",
        ));
    }
    Ok(Tok {
        s: inner,
        col: tok.col + 1,
    })
}

fn parse_u64(line: usize, tok: Tok<'_>) -> PResult<u64> {
    let (neg, digits) = match tok.s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok.s),
    };
    let parsed = match digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        Some(hex) if !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16)
        }
        _ if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) => {
            digits.parse::<u64>()
        }
        _ => {
            return Err(AsmTextError::new(
                line,
                tok.col,
                format!("malformed number '{}'", tok.s),
            ))
        }
    };
    match parsed {
        Ok(v) => Ok(if neg { v.wrapping_neg() } else { v }),
        Err(_) => Err(AsmTextError::new(
            line,
            tok.col,
            format!("immediate '{}' overflows 64 bits", tok.s),
        )),
    }
}

fn parse_i64(line: usize, tok: Tok<'_>) -> PResult<i64> {
    let (neg, digits) = match tok.s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => match tok.s.strip_prefix('+') {
            Some(rest) => (false, rest),
            None => (false, tok.s),
        },
    };
    let magnitude = parse_u64(
        line,
        Tok {
            s: digits,
            col: tok.col + usize::from(digits.len() != tok.s.len()),
        },
    )?;
    let limit = if neg { 1u64 << 63 } else { i64::MAX as u64 };
    if magnitude > limit {
        return Err(AsmTextError::new(
            line,
            tok.col,
            format!("offset '{}' overflows a signed 64-bit offset", tok.s),
        ));
    }
    Ok(if neg {
        (magnitude as i64).wrapping_neg()
    } else {
        magnitude as i64
    })
}

fn parse_aligned_addr(line: usize, tok: Tok<'_>) -> PResult<u64> {
    let addr = parse_u64(line, tok)?;
    if addr % 8 != 0 {
        return Err(AsmTextError::new(
            line,
            tok.col,
            format!("misaligned data address {addr:#x} (must be 8-byte aligned)"),
        ));
    }
    Ok(addr)
}

/// Whether `name` is usable as a label or alias name.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

/// Assembles recon assembly text into an [`AsmProgram`].
///
/// # Errors
///
/// Returns a line/column-diagnosed [`AsmTextError`] for any malformed
/// source: unknown mnemonics/registers/labels (with near-miss
/// suggestions), misaligned data, overflowing immediates, duplicate
/// labels, or a structurally invalid result (e.g. no `halt`).
pub fn assemble(src: &str) -> Result<AsmProgram, AsmTextError> {
    let mut p = Parser::default();

    // Alias pre-pass: aliases are position-independent so register
    // operands anywhere in the file can use them.
    for (no, raw) in src.lines().enumerate() {
        let line = no + 1;
        let toks = tokenize(strip_comment(raw));
        if toks.first().map(|t| t.s) != Some(".alias") {
            continue;
        }
        Parser::expect_arity(line, &toks, 2, ".alias <name> <reg>")?;
        let name = toks[1];
        if !valid_name(name.s) {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("invalid alias name '{}'", name.s),
            ));
        }
        if name.s == "zero"
            || MNEMONICS.contains(&name.s)
            || (name.s.starts_with('r')
                && name.s[1..].chars().all(|c| c.is_ascii_digit())
                && name.s.len() > 1)
        {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("alias '{}' shadows a register or mnemonic", name.s),
            ));
        }
        let reg = p.parse_reg(line, toks[2])?;
        if p.aliases.insert(name.s, reg).is_some() {
            return Err(AsmTextError::new(
                line,
                name.col,
                format!("alias '{}' defined twice", name.s),
            ));
        }
        p.alias_order.push(name.s);
    }

    // The parse: instructions go straight into `code`, and label
    // definitions bind to the index of the next one.
    let mut last_line = 1;
    for (no, raw) in src.lines().enumerate() {
        let line = no + 1;
        last_line = line;
        let text = strip_comment(raw);
        let mut toks = tokenize(text);
        if toks.is_empty() {
            continue;
        }
        // Label definition(s): leading `name:` tokens.
        while let Some(head) = toks.first().copied() {
            let Some(name) = head.s.strip_suffix(':') else {
                break;
            };
            if !valid_name(name) {
                return Err(AsmTextError::new(
                    line,
                    head.col,
                    format!("invalid label name '{name}'"),
                ));
            }
            if p.label_defs
                .insert(name.to_string(), p.code.len())
                .is_some()
            {
                return Err(AsmTextError::new(
                    line,
                    head.col,
                    format!("label '{name}' defined twice"),
                ));
            }
            p.label_order.push((name.to_string(), p.code.len()));
            toks.remove(0);
        }
        if toks.is_empty() {
            continue;
        }
        if toks[0].s.starts_with('.') {
            p.parse_directive(line, &toks)?;
        } else {
            let (inst, target) = p.parse_inst(line, &toks)?;
            if let Some(target) = target {
                p.fixups.push((p.code.len(), target));
            }
            p.code.push(inst);
        }
    }

    // Label resolution, diagnosed at the use site: unknown labels
    // first, then `.entry` problems, then targets bound past the end.
    let end = p.code.len();
    let resolve = |r: &LabelRef| -> PResult<usize> {
        if let Some(&index) = p.label_defs.get(&r.name) {
            return Ok(index);
        }
        let mut msg = format!("unknown label '{}'", r.name);
        let defined = p.label_order.iter().map(|(name, _)| name.as_str());
        if let Some(hint) = suggest(&r.name, defined) {
            msg.push_str(&format!(" (did you mean '{hint}'?)"));
        }
        Err(AsmTextError::new(r.line, r.col, msg))
    };
    for (_, target) in &p.fixups {
        resolve(target)?;
    }
    let mut entries = Vec::with_capacity(p.entries.len());
    for (target, seeds) in p.entries {
        let entry = resolve(&target)?;
        if entry >= end {
            return Err(AsmTextError::new(
                target.line,
                target.col,
                format!(
                    "entry label '{}' is bound past the last instruction",
                    target.name
                ),
            ));
        }
        entries.push(EntrySpec { entry, seeds });
    }
    for (at, label) in &p.fixups {
        let index = resolve(label)?;
        if index >= end {
            return Err(AsmTextError::new(
                label.line,
                label.col,
                format!(
                    "label '{}' is bound past the last instruction and cannot be a branch target",
                    label.name
                ),
            ));
        }
        if let Inst::Branch { target, .. } | Inst::Jump { target } = &mut p.code[*at] {
            *target = index;
        }
    }

    // Entry specs: default to a single seedless entry at instruction 0.
    if entries.is_empty() {
        entries.push(EntrySpec {
            entry: 0,
            seeds: Vec::new(),
        });
    }
    let program = Program {
        code: p.code,
        entry: entries[0].entry,
        image: p.image.into_iter().collect(),
    };
    // Labels and targets are diagnosed above with use-site positions;
    // what is left is a program-level error without one source position.
    program.validate().map_err(|e| {
        let msg = match e {
            ProgramError::MissingHalt => e.to_string(),
            other => format!("assembled program invalid: {other}"),
        };
        AsmTextError::new(last_line, 1, msg)
    })?;

    Ok(AsmProgram {
        program,
        entries,
        labels: p.label_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_a_minimal_program() {
        let p = assemble("main:\n    li r1, 42\n    halt\n").unwrap();
        assert_eq!(p.program.code.len(), 2);
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(1),
                imm: 42
            }
        );
        assert_eq!(
            p.entries,
            vec![EntrySpec {
                entry: 0,
                seeds: vec![]
            }]
        );
        assert_eq!(p.labels, vec![("main".to_string(), 0)]);
    }

    #[test]
    fn resolves_forward_and_backward_labels() {
        let src = "
top:
    subi r1, r1, 1
    bne r1, zero, top
    beq r0, r0, end
    nop
end:
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[1],
            Inst::Branch {
                kind: BranchKind::Ne,
                a: ArchReg::new(1),
                b: ArchReg::ZERO,
                target: 0
            }
        );
        assert_eq!(
            p.program.code[2],
            Inst::Branch {
                kind: BranchKind::Eq,
                a: ArchReg::ZERO,
                b: ArchReg::ZERO,
                target: 4
            }
        );
    }

    #[test]
    fn aliases_are_position_independent() {
        let src = "
    li acc, 7      # used before .alias appears
.alias acc r9
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(9),
                imm: 7
            }
        );
    }

    #[test]
    fn data_directives_populate_the_image() {
        let src = "
.data 0x100 0x2a
.words 0x200 1 2 3
.zero 0x300 2
    halt
";
        let p = assemble(src).unwrap();
        let img = &p.program.image;
        assert_eq!(img.get(0x100), Some(0x2a));
        assert_eq!(img.get(0x200), Some(1));
        assert_eq!(img.get(0x210), Some(3));
        assert_eq!(img.get(0x300), Some(0));
        assert_eq!(img.get(0x308), Some(0));
        assert_eq!(img.len(), 6);
    }

    #[test]
    fn entry_seeds_parse() {
        let src = "
.entry main r26=4 r5=0x10
    nop
main:
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(p.program.entry, 1);
        assert_eq!(
            p.entries,
            vec![EntrySpec {
                entry: 1,
                seeds: vec![(ArchReg::new(26), 4), (ArchReg::new(5), 0x10)]
            }]
        );
    }

    #[test]
    fn memory_operands_parse_all_forms() {
        let src = "
    ld r1, [r2]
    ld r1, [r2+0x10]
    st r1, [r2-8]
    ldx r3, [r1+r2*8]
    amoadd r4, [r5+16], r6
    halt
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::Load {
                dst: ArchReg::new(1),
                base: ArchReg::new(2),
                offset: 0
            }
        );
        assert_eq!(
            p.program.code[2],
            Inst::Store {
                val: ArchReg::new(1),
                base: ArchReg::new(2),
                offset: -8
            }
        );
        assert_eq!(
            p.program.code[3],
            Inst::LoadIdx {
                dst: ArchReg::new(3),
                base: ArchReg::new(1),
                index: ArchReg::new(2)
            }
        );
    }

    #[test]
    fn negative_immediates_wrap() {
        let p = assemble("    li r1, -1\n    halt\n").unwrap();
        assert_eq!(
            p.program.code[0],
            Inst::LoadImm {
                dst: ArchReg::new(1),
                imm: u64::MAX
            }
        );
    }

    #[test]
    fn unknown_label_reports_use_site_and_suggestion() {
        let err = assemble("    j epilog\nepilogue:\n    halt\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 7));
        assert!(err.msg.contains("unknown label 'epilog'"), "{}", err.msg);
        assert!(err.msg.contains("did you mean 'epilogue'"), "{}", err.msg);
    }

    #[test]
    fn unknown_mnemonic_suggests() {
        let err = assemble("    lii r1, 4\n    halt\n").unwrap_err();
        assert!(err.msg.contains("unknown mnemonic 'lii'"));
        assert!(err.msg.contains("did you mean 'li'"), "{}", err.msg);
    }

    #[test]
    fn suggest_respects_distance_cap() {
        assert_eq!(
            suggest("spec2107", ["spec2017", "parsec"]),
            Some("spec2017")
        );
        assert_eq!(suggest("zzzzzz", ["spec2017", "parsec"]), None);
    }
}
