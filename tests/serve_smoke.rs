//! End-to-end smoke test of `recon serve` over loopback: submission,
//! caching, backpressure, deadlines, metrics, and graceful shutdown —
//! the same sequence the CI `serve-smoke` job drives.

use recon_serve::{client, job, json, JobSpec, ServeConfig, Server};

fn start(workers: usize, queue_cap: usize) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

fn direct_payload(spec_json: &str) -> String {
    let v = json::parse(spec_json).expect("spec parses");
    let spec = JobSpec::from_json(&v).expect("spec validates");
    job::execute(&spec, None).expect("direct execution").payload
}

/// The final answer a direct in-process execution of `spec_json` gives:
/// `200` with the result, or `408` with a deadline's partial stats.
fn direct_answer(spec_json: &str) -> (u16, String) {
    let spec = JobSpec::from_json(&json::parse(spec_json).unwrap()).unwrap();
    match job::execute(&spec, None) {
        Ok(out) => (200, out.payload),
        Err(e) => match e.answer() {
            (408, _, body) => (408, body),
            other => panic!("{spec_json} failed directly: {other:?}"),
        },
    }
}

#[test]
fn served_results_match_direct_execution_and_cache() {
    let server = start(2, 8);
    let addr = server.addr();

    // Liveness first.
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");

    // A run job and a verify job, byte-compared against direct runs.
    for spec in [
        r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt+recon"}"#,
        r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt"}"#,
    ] {
        let expected = direct_payload(spec);
        let first = client::submit_job(addr, spec).unwrap();
        assert_eq!(first.status, 200, "{}", first.body);
        assert_eq!(first.body, expected, "served bytes == direct bytes");
        assert_eq!(first.header("x-recon-cache"), Some("miss"));

        // Same submission again: served from the content-addressed
        // cache, still byte-identical.
        let second = client::submit_job(addr, spec).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(second.body, expected);
        assert_eq!(second.header("x-recon-cache"), Some("hit"));
    }

    // Malformed submissions are refused before touching the queue.
    let bad = client::submit_job(addr, r#"{"kind":"run","suite":"nope"}"#).unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("invalid_job"), "{}", bad.body);

    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();
}

#[test]
fn deadline_job_answers_408_and_does_not_poison_the_pool() {
    let server = start(1, 4);
    let addr = server.addr();

    // 1000 fuel against a workload tens of thousands of instructions
    // long: the deadline must fire inside the commit loop.
    let deadline_spec =
        r#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}"#;
    let resp = client::submit_job(addr, deadline_spec).unwrap();
    assert_eq!(resp.status, 408, "{}", resp.body);
    let v = json::parse(&resp.body).expect("deadline body is JSON");
    assert_eq!(
        v.get("error").and_then(json::Json::as_str),
        Some("deadline_exceeded")
    );
    assert_eq!(v.get("reason").and_then(json::Json::as_str), Some("fuel"));
    let partial = v.get("partial").expect("partial stats present");
    let committed = partial
        .get("committed")
        .and_then(json::Json::as_u64)
        .unwrap();
    assert!(committed > 0, "partial stats are real");

    // The single worker survived: a healthy job still completes.
    let ok = client::submit_job(
        addr,
        r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"nda"}"#,
    )
    .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();
}

#[test]
fn multibyte_asm_source_answers_400_and_keeps_the_handlers() {
    // As many bad submissions as handler threads: each must be refused
    // with the assembler's diagnostic, and the node must still answer.
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        handler_cap: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    for _ in 0..2 {
        let resp = client::submit_job(
            addr,
            r#"{"kind":"asm","scheme":"stt","source":"ld r1, [é]\nhalt\n"}"#,
        )
        .unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(
            resp.body
                .contains("line 1:9: unknown register or alias 'é'"),
            "{}",
            resp.body
        );
    }
    let health = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);

    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();
}

#[test]
fn flooded_one_slot_queue_backpressures_with_429() {
    let server = start(1, 1);
    let addr = server.addr();

    // Eleven concurrent distinct submissions against one worker and one
    // queue slot: at most two can be admitted at any instant, so the
    // flood must observe 429s. Rejected clients retry until served —
    // backpressure sheds load, it does not lose requests, and every
    // request is answered once with the bytes of a direct execution: ten
    // full runs, and one fuel-starved run that must deadline with its
    // partial stats.
    let mut specs: Vec<String> = ["unsafe", "nda", "nda+recon", "stt", "stt+recon"]
        .iter()
        .flat_map(|scheme| {
            ["mcf", "deepsjeng"].iter().map(move |bench| {
                format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"{bench}","scheme":"{scheme}"}}"#
                )
            })
        })
        .collect();
    specs.push(
        r#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}"#
            .to_string(),
    );
    let expected: Vec<(u16, String)> = specs.iter().map(|s| direct_answer(s)).collect();
    assert_eq!(
        expected.last().unwrap().0,
        408,
        "the fuel-starved run deadlines"
    );
    let handles: Vec<_> = specs
        .iter()
        .cloned()
        .map(|spec| {
            std::thread::spawn(move || {
                let mut rejected = 0u64;
                loop {
                    let resp = client::submit_job(addr, &spec).unwrap();
                    if resp.status != 429 {
                        return (rejected, resp.status, resp.body);
                    }
                    assert_eq!(resp.header("retry-after"), Some("1"));
                    rejected += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        })
        .collect();
    let mut total_rejections = 0;
    for ((h, spec), want) in handles.into_iter().zip(&specs).zip(&expected) {
        let (rejected, status, body) = h.join().unwrap();
        total_rejections += rejected;
        assert_eq!(
            (status, &body),
            (want.0, &want.1),
            "{spec}: the served answer must be the direct execution's"
        );
    }
    assert!(
        total_rejections >= 1,
        "an 11-way flood of a 1-slot queue must hit backpressure"
    );

    // The metrics endpoint agrees.
    let metrics = client::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let counter = |name: &str| -> u64 {
        metrics
            .body
            .lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    assert_eq!(counter("recon_jobs_rejected_total"), total_rejections);
    assert_eq!(
        counter("recon_jobs_completed_total"),
        specs.len() as u64 - 1
    );
    assert_eq!(counter("recon_jobs_deadline_exceeded_total"), 1);
    assert_eq!(counter("recon_jobs_failed_total"), 0);
    // The liveness watchdog is armed on every served run; no legal
    // workload deadlocks, so the stall counter exists and reads zero.
    assert_eq!(counter("recon_stalls_detected_total"), 0);
    assert_eq!(counter("recon_queue_capacity"), 1);
    assert!(metrics
        .body
        .contains("recon_job_seconds_bucket{kind=\"run\",le=\"+Inf\"}"));

    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("graceful"));
    server.wait();

    // After shutdown the listener is gone.
    assert!(client::request(addr, "GET", "/healthz", None).is_err());
}
