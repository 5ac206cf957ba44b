//! Checkpoint migration end-to-end: a draining node cancels a running
//! job, ships its newest RCK1 checkpoint to a peer's `POST /migrate`,
//! and the peer resumes mid-run to a byte-identical result.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use recon_serve::client::{request, Connection};
use recon_serve::job::{self, CkptPlan, JobSpec};
use recon_serve::json::parse;
use recon_serve::server::{ServeConfig, Server};
use recon_serve::storm::scratch_dir;

const CADENCE: u64 = 2_000;

fn start_node(dir: PathBuf) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 8,
        handler_cap: 8,
        read_timeout: Duration::from_secs(60),
        write_timeout: Duration::from_secs(60),
        cache_dir: Some(dir),
        checkpoint_every_cycles: CADENCE,
        ..ServeConfig::default()
    })
    .expect("node starts")
}

#[test]
fn drained_node_ships_its_checkpoint_and_the_peer_resumes_byte_identically() {
    let dir_a = scratch_dir("migration-a").expect("scratch dir");
    let dir_b = scratch_dir("migration-b").expect("scratch dir");
    let node_a = start_node(dir_a.clone());
    let node_b = start_node(dir_b.clone());

    // A long run: plenty of cycles left when the drain cancels it.
    let json =
        r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt+recon","fuel":20000000}"#
            .to_string();
    let spec = JobSpec::from_json(&parse(&json).unwrap()).unwrap();
    let digest = spec.digest();
    // The ground truth: an uninterrupted execution at the same
    // checkpoint cadence (drains perturb stats identically whether or
    // not bytes hit disk, and wherever the run is resumed).
    let plan = CkptPlan {
        dir: None,
        cadence: CADENCE,
        keep: 2,
    };
    let expected = job::execute_ckpt(&spec, None, Some(&plan))
        .0
        .expect("direct run completes")
        .payload;

    // Run it on A; wait for the first on-disk checkpoint.
    let submit = {
        let json = json.clone();
        let addr = node_a.addr();
        std::thread::spawn(move || {
            let mut conn = Connection::with_timeout(addr, Duration::from_secs(60));
            let _ = conn.request("POST", "/jobs", Some(&json));
        })
    };
    let prefix = format!("{digest:016x}-");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let found = std::fs::read_dir(&dir_a).is_ok_and(|entries| {
            entries.flatten().any(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.starts_with(&prefix) && name.ends_with(".rck")
            })
        });
        if found {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never wrote a checkpoint on A"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Drain A into B: cancel the run, ship its newest checkpoint.
    let body = format!("{{\"to\":\"{}\"}}", node_b.addr());
    let resp = request(node_a.addr(), "POST", "/drain", Some(&body)).expect("drain answers");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let v = parse(&resp.body).expect("drain json");
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("drained"));
    let migrated = v.get("migrated").and_then(|m| m.as_f64()).unwrap_or(0.0) as u64;
    assert!(
        migrated >= 1,
        "the cancelled run must migrate: {}",
        resp.body
    );
    assert!(node_b.shared().metrics.migrations_in.get() >= 1);
    let _ = submit.join();

    // B resumes the migrated checkpoint mid-run; a resubmission joins
    // that execution (or its cached result) and the payload is
    // byte-identical to the uninterrupted run.
    let mut conn = Connection::with_timeout(node_b.addr(), Duration::from_secs(60));
    let resp = conn
        .request("POST", "/jobs", Some(&json))
        .expect("B answers");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(
        resp.body, expected,
        "cross-node resume diverged from the uninterrupted run"
    );
    assert!(
        node_b.shared().metrics.checkpoints_resumed.get() >= 1,
        "B must resume from the shipped checkpoint, not start over"
    );

    let _ = request(node_b.addr(), "POST", "/shutdown", None);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
