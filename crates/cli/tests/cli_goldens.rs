//! Byte-for-byte goldens of the `recon` command line: for each argument
//! vector below, the exit code, stdout and stderr of the real binary,
//! pinned in `cli_goldens.txt` as one transcript. The cases cover the
//! usage text, every subcommand's flag errors (unknown flag, missing
//! value, bad number), the name lookups' hints, and the outputs of the
//! fast one-shot commands.
//!
//! On a mismatch the actual transcript is written next to the test
//! binary's scratch directory (the failure message names the file);
//! copy it over `cli_goldens.txt` once the difference is intended.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

const MEMREF: &str = "crates/asm/corpus/memref.asm";

/// The argument vectors, in transcript order.
const CASES: &[&[&str]] = &[
    &[],
    &["--jobs", "0", "list"],
    &["workloads", "--bogus"],
    // Per subcommand: an unknown flag, a flag missing its value, a bad
    // number.
    &["asm", MEMREF, "--bogus", "1"],
    &["asm", MEMREF, "--run"],
    &["asm", MEMREF, "--fast-forward", "0"],
    &["run", "spec2017", "mcf", "stt", "--bogus", "1"],
    &["run", "spec2017", "mcf", "stt", "--audit"],
    &["run", "spec2017", "mcf", "stt", "--watchdog-cycles", "x"],
    &["suite", "corpus", "--bogus", "1"],
    &["suite", "corpus", "--checkpoint"],
    &["suite", "corpus", "--audit", "0"],
    &["fuzz", "--bogus", "1"],
    &["fuzz", "--seed"],
    &["fuzz", "--count", "0"],
    &["audit", "--bogus", "1"],
    &["audit", "--out"],
    &["audit", "--faults", "0"],
    &["verify", "--bogus", "1"],
    &["verify", "--scheme"],
    &["verify", "--fast-forward", "0"],
    &["serve", "--bogus", "1"],
    &["serve", "--addr"],
    &["serve", "--workers", "0"],
    &["gateway", "--bogus", "1"],
    &["gateway", "--nodes"],
    &["gateway", "--vnodes", "0"],
    &["chaos", "--bogus", "1"],
    &["chaos", "--seed"],
    &["chaos", "--clients", "0"],
    &["chaos", "--nodes", "2", "--bogus", "1"],
    &["chaos", "--nodes", "2", "--seed"],
    &["chaos", "--nodes", "2", "--min-speedup", "-1"],
    &["bench-serve", "--clients", "0"],
    // Hints and cross-flag checks.
    &["run", "spec2017", "mcf", "stt", "--fast-foward", "1000"],
    &["run", "spec2017", "mcf", "stt", "--checkpoint-every", "5"],
    &["asm", MEMREF, "--fast-forward", "10"],
    &["run", "spec2071", "mcf", "stt"],
    &["suite", "corpsu"],
    &["run", "spec2017", "mfc", "stt"],
    &["run", "spec2017", "mcf", "stt+recn"],
    &["verify", "--gadget", "spectre-v2"],
    &["gateway", "--no-replicate", "maybe"],
    // One-shot outputs.
    &["list"],
    &["overhead"],
    &["run", "corpus", "memref", "stt"],
    &["matrix", "corpus", "memref"],
    &["asm", MEMREF, "--run", "stt+recon"],
    // Near-miss hints on every subcommand, and repeated flags.
    &["asm", MEMREF, "--dumb"],
    &["suite", "corpus", "--fast-forwrd", "10"],
    &["fuzz", "--coutn", "5"],
    &["audit", "--fault", "3"],
    &["verify", "--gadgte", "spectre-v1"],
    &["serve", "--worker", "2"],
    &["gateway", "--vnode", "8"],
    &["chaos", "--seeds", "1"],
    &["chaos", "--nodes", "2", "--min-speedpu", "2"],
    &[
        "run", "spec2017", "mcf", "stt", "--audit", "64", "--audit", "128",
    ],
    &["serve", "--addr", "127.0.0.1:0", "--addr", "127.0.0.1:1"],
    &["verify", "--embedded", "--embedded"],
];

/// Runs `recon` with `args` from the workspace root and renders the
/// outcome as one transcript entry.
fn render(root: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_recon"))
        .args(args)
        .current_dir(root)
        .env_remove("RECON_SCALE")
        .env("RECON_JOBS", "2")
        .output()
        .expect("spawn recon");
    let mut s = String::from("$ recon");
    for a in args {
        s.push(' ');
        s.push_str(a);
    }
    let _ = writeln!(s, "\n[exit {}]", out.status.code().unwrap_or(-1));
    for (name, bytes) in [("stdout", &out.stdout), ("stderr", &out.stderr)] {
        if !bytes.is_empty() {
            let _ = writeln!(s, "--- {name}");
            s.push_str(&String::from_utf8_lossy(bytes));
        }
    }
    s.push('\n');
    s
}

#[test]
fn cli_transcript_matches_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let actual: String = CASES.iter().map(|args| render(&root, args)).collect();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_goldens.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_goldens.actual.txt");
        std::fs::write(&out, &actual).expect("write actual transcript");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "CLI transcript differs from {} at line {}:\n  actual: {:?}\n  golden: {:?}\nactual transcript written to {}",
            golden_path.display(),
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line),
            out.display()
        );
    }
}
