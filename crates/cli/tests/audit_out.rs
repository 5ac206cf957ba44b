//! Where `recon audit --quick` writes its report: nowhere unless `--out`
//! names a file, so that a quick campaign run from the repository root
//! cannot replace the committed full-campaign `BENCH_audit.json`.

use std::path::Path;
use std::process::Command;

/// Runs `recon audit --quick` with `extra` in `dir`; returns the names
/// of the files `dir` holds afterwards.
fn quick_audit_in(dir: &Path, extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_recon"))
        .args(["audit", "--quick", "--seed", "42"])
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("spawn recon audit");
    assert!(
        out.status.success(),
        "recon audit --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list the working directory")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn quick_audit_writes_only_where_out_names() {
    let dir = std::env::temp_dir().join(format!("recon-audit-quick-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("make the working directory");
    assert_eq!(
        quick_audit_in(&dir, &[]),
        Vec::<String>::new(),
        "no --out: no file"
    );
    assert_eq!(
        quick_audit_in(&dir, &["--out", "quick.json"]),
        vec!["quick.json".to_string()],
        "--out: that file alone"
    );
    let report = std::fs::read_to_string(dir.join("quick.json")).expect("read the report");
    assert!(report.contains("\"silent\": 0,"), "report: {report}");
    std::fs::remove_dir_all(&dir).expect("remove the working directory");
}
