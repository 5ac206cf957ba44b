//! The crash-safety acceptance tests: `kill -9` a populated `recon
//! serve --cache-dir`, corrupt the persisted tail like a torn write
//! would, restart, and require the recovered entries to be served as
//! cache hits with the corrupt tail dropped and counted — and `kill -9`
//! a server *mid-job*, restart, and require the orphaned job to resume
//! from its checkpoint and serve bytes identical to an uninterrupted
//! run.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use recon_serve::client;
use recon_serve::job::{self, CkptPlan, JobSpec};
use recon_serve::json::parse;

const SPEC: &str = r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt+recon"}"#;

/// Spawns `recon serve` on an ephemeral port and parses the bound
/// address from its startup banner.
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_recon"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            dir.to_str().expect("utf-8 temp path"),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn recon serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before announcing its address")
            .expect("read stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after scheme")
                .parse()
                .expect("parse bound address");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn kill_dash_nine_then_restart_recovers_the_cache() {
    let dir = std::env::temp_dir().join(format!("recon-kill-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");

    // Populate, then kill -9 — no drain, no flush beyond the per-insert
    // append, exactly the crash the persistence layer is built for.
    let (mut child, addr) = spawn_serve(&dir, &[]);
    let miss = client::submit_job(addr, SPEC).expect("populate the cache");
    assert_eq!(miss.status, 200);
    assert_eq!(miss.header("x-recon-cache"), Some("miss"));
    let body_before = miss.body;
    child.kill().expect("SIGKILL the server");
    let _ = child.wait();

    // A torn tail on top: a record that stops mid-payload.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(dir.join("cache.log"))
            .expect("append torn bytes");
        f.write_all(&0x3143_4352u32.to_le_bytes()).unwrap();
        f.write_all(&0xFEED_FACEu64.to_le_bytes()).unwrap();
        f.write_all(&128u32.to_le_bytes()).unwrap();
        f.write_all(b"partial payload then nothing").unwrap();
    }

    // Restart on the same directory: the executed job is a hit with
    // identical bytes, the torn record is dropped and counted.
    let (mut child, addr) = spawn_serve(&dir, &[]);
    let hit = client::submit_job(addr, SPEC).expect("post-crash submission");
    assert_eq!(hit.status, 200);
    assert_eq!(
        hit.header("x-recon-cache"),
        Some("hit"),
        "the crash must not lose the persisted result"
    );
    assert_eq!(hit.body, body_before, "recovered bytes must be identical");

    let metrics = client::request(addr, "GET", "/metrics", None)
        .expect("metrics")
        .body;
    assert!(
        client::scrape(&metrics, "recon_cache_recovered_total")
            .expect("recon_cache_recovered_total series")
            >= 1,
        "{metrics}"
    );
    assert_eq!(
        client::scrape(&metrics, "recon_cache_dropped_records_total")
            .expect("recon_cache_dropped_records_total series"),
        1,
        "{metrics}"
    );

    client::request(addr, "POST", "/shutdown", None).expect("shutdown");
    wait_exit(&mut child);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits for the server process to exit on its own after a shutdown;
/// kills it (and fails) if it hangs.
fn wait_exit(child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => break,
            None if Instant::now() > deadline => {
                child.kill().expect("kill hung server");
                let _ = child.wait();
                panic!("server did not exit after POST /shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// `kill -9` the server while a `run` job is mid-simulation, restart,
/// and require the orphaned job to be resumed from its last checkpoint
/// — with the served bytes identical to an uninterrupted execution.
#[test]
fn sigkill_mid_job_resumes_from_checkpoint_with_identical_bytes() {
    const RUN_SPEC: &str =
        r#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt+recon"}"#;
    const CADENCE: u64 = 2_000;

    let dir = std::env::temp_dir().join(format!("recon-kill-midjob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");

    // The reference bytes: a direct, uninterrupted execution at the
    // same checkpoint cadence (drain timing is part of the run config).
    let spec = JobSpec::from_json(&parse(RUN_SPEC).expect("spec parses")).expect("spec validates");
    let plan = CkptPlan {
        dir: None,
        cadence: CADENCE,
        keep: 2,
    };
    let expected = job::execute_ckpt(&spec, None, Some(&plan))
        .0
        .expect("direct run completes")
        .payload;

    // Submit, wait for the first checkpoint file to land, then SIGKILL
    // mid-simulation. The client connection dies with the server.
    let (mut child, addr) = spawn_serve(&dir, &["--checkpoint-every", "2000"]);
    let submit = std::thread::spawn(move || {
        let _ = client::submit_job(addr, RUN_SPEC);
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let has_ckpt = std::fs::read_dir(&dir).is_ok_and(|rd| {
            rd.filter_map(Result::ok)
                .any(|e| e.path().extension().is_some_and(|x| x == "rck"))
        });
        if has_ckpt {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL the server mid-job");
    let _ = child.wait();
    let _ = submit.join();

    // Restart on the same directory: the orphan is re-enqueued from the
    // spec embedded in its checkpoint and resumed, and a resubmission
    // must serve the exact bytes of the uninterrupted run.
    let (mut child, addr) = spawn_serve(&dir, &["--checkpoint-every", "2000"]);
    let r = client::submit_job(addr, RUN_SPEC).expect("post-restart submission");
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body, expected,
        "resumed result must be byte-identical to the uninterrupted run"
    );

    let metrics = client::request(addr, "GET", "/metrics", None)
        .expect("metrics")
        .body;
    assert!(
        client::scrape(&metrics, "recon_checkpoints_resumed_total")
            .expect("recon_checkpoints_resumed_total series")
            >= 1,
        "the orphaned job must resume from its checkpoint, not restart:\n{metrics}"
    );
    assert!(
        client::scrape(&metrics, "recon_checkpoints_written_total")
            .expect("recon_checkpoints_written_total series")
            >= 1,
        "{metrics}"
    );

    client::request(addr, "POST", "/shutdown", None).expect("shutdown");
    wait_exit(&mut child);

    let _ = std::fs::remove_dir_all(&dir);
}
