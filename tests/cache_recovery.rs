//! Crash-safe cache persistence, end-to-end: results served before a
//! shutdown (clean here; `kill -9` is exercised by the CLI's
//! `kill_restart` test) are served as cache hits by a fresh server on
//! the same `--cache-dir`, and a torn record appended to the log — as a
//! crash mid-append would leave — is dropped at recovery, counted, and
//! never served.

use std::io::Write as _;

use recon_serve::{client, ServeConfig, Server};

const SPEC: &str = r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt+recon"}"#;

fn start(dir: &std::path::Path) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 4,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind loopback with cache dir")
}

#[test]
fn restart_serves_recovered_entries_and_drops_the_torn_tail() {
    let dir = std::env::temp_dir().join(format!("recon-cache-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: execute once (miss), observe the digest-keyed replay
    // hit, then drain cleanly.
    let first_body;
    {
        let server = start(&dir);
        let addr = server.addr();
        let miss = client::submit_job(addr, SPEC).expect("first submission");
        assert_eq!(miss.status, 200);
        assert_eq!(miss.header("x-recon-cache"), Some("miss"));
        first_body = miss.body.clone();
        let hit = client::submit_job(addr, SPEC).expect("second submission");
        assert_eq!(hit.header("x-recon-cache"), Some("hit"));
        client::request(addr, "POST", "/shutdown", None).expect("shutdown");
        server.wait();
    }

    // Crash simulation: a torn append — a record cut off mid-payload,
    // exactly what `kill -9` between write and close can leave behind.
    let log = dir.join("cache.log");
    let snap = dir.join("cache.snap");
    assert!(
        log.exists() || snap.exists(),
        "persistence must have written something under {}",
        dir.display()
    );
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&log)
            .expect("append to log");
        // Valid magic, a digest, a length of 64 — then only 3 payload
        // bytes instead of 64 + checksum.
        f.write_all(&0x3143_4352u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu64.to_le_bytes()).unwrap();
        f.write_all(&64u32.to_le_bytes()).unwrap();
        f.write_all(b"torn").unwrap();
    }

    // Second life: the good entry is recovered and served as a hit with
    // identical bytes; the torn tail is dropped and counted.
    {
        let server = start(&dir);
        let addr = server.addr();
        let hit = client::submit_job(addr, SPEC).expect("post-restart submission");
        assert_eq!(hit.status, 200);
        assert_eq!(
            hit.header("x-recon-cache"),
            Some("hit"),
            "recovered entry must be served from the cache"
        );
        assert_eq!(hit.body, first_body, "recovered bytes must be identical");

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
            "exactly the torn tail is dropped: {metrics}"
        );
        client::request(addr, "POST", "/shutdown", None).expect("shutdown");
        server.wait();
    }

    // Third life: recovery compacted — reopening again drops nothing.
    {
        let server = start(&dir);
        let addr = server.addr();
        let metrics = client::request(addr, "GET", "/metrics", None)
            .expect("metrics")
            .body;
        assert_eq!(
            client::scrape(&metrics, "recon_cache_dropped_records_total")
                .expect("recon_cache_dropped_records_total series"),
            0
        );
        let hit = client::submit_job(addr, SPEC).expect("third-life submission");
        assert_eq!(hit.header("x-recon-cache"), Some("hit"));
        client::request(addr, "POST", "/shutdown", None).expect("shutdown");
        server.wait();
    }

    let _ = std::fs::remove_dir_all(&dir);
}
