//! A `recon` command whose reader has closed its end of stdout (as
//! `recon asm f --dump | head -1` does once `head` has its line) ends
//! quietly with exit 0 instead of panicking on the failed write.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for args in [
        &["asm", "crates/asm/corpus/memref.asm", "--dump"][..],
        &["list"][..],
    ] {
        // The reader closes before the child starts, so every write the
        // child makes to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_recon"))
            .args(args)
            .current_dir(root)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run recon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
