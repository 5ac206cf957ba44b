//! Byte-for-byte goldens of the node's HTTP front: the status line,
//! every header and the body of each error and edge answer a `recon
//! serve` node gives, written over raw sockets so nothing between the
//! test and the wire can normalise them.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use recon_serve::server::MAX_BATCH;
use recon_serve::{client, job, json, JobSpec, ServeConfig, Server};

fn start(handler_cap: usize) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 8,
        handler_cap,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

/// Writes `raw` on a fresh connection and reads until the server
/// closes it.
fn exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    String::from_utf8(out).expect("UTF-8 response")
}

/// A one-shot `Connection: close` request with a body.
fn post(addr: SocketAddr, path: &str, body: &[u8]) -> String {
    let mut raw = format!(
        "POST {path} HTTP/1.1\r\nHost: recon\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    exchange(addr, &raw)
}

/// The full bytes of a `Connection: close` JSON response.
fn closing(status_line: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn direct_payload(spec_json: &str) -> String {
    let spec = JobSpec::from_json(&json::parse(spec_json).unwrap()).unwrap();
    job::execute(&spec, None).expect("direct execution").payload
}

#[test]
fn node_error_and_edge_responses_are_byte_stable() {
    let server = start(4);
    let addr = server.addr();

    // Keep-alive, then close, on one connection.
    assert_eq!(
        exchange(
            addr,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        ),
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\nConnection: keep-alive\r\n\r\n{\"status\":\"ok\"}\
         HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\nConnection: close\r\n\r\n{\"status\":\"ok\"}"
    );
    assert_eq!(
        exchange(addr, b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n"),
        "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 39\r\nConnection: close\r\n\r\n{\"error\":\"not_found\",\"message\":\"/nope\"}"
    );
    assert_eq!(
        exchange(addr, b"DELETE /jobs HTTP/1.1\r\nConnection: close\r\n\r\n"),
        "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 49\r\nConnection: close\r\n\r\n{\"error\":\"method_not_allowed\",\"message\":\"DELETE\"}"
    );
    assert_eq!(
        exchange(addr, b"GARBAGE\r\n\r\n"),
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 66\r\nConnection: close\r\n\r\n{\"error\":\"malformed_request\",\"message\":\"unparseable HTTP request\"}"
    );

    // `POST /jobs` preamble: UTF-8, JSON, spec.
    assert_eq!(
        post(addr, "/jobs", &[0xff, 0xfe]),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_job\",\"message\":\"body is not UTF-8\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs", b"{\"kind\":"),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_job\",\"message\":\"unexpected end of input\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs", br#"{"kind":"run","bogus":1}"#),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_job\",\"message\":\"unknown field 'bogus' (accepted: kind, suite, bench, scheme, gadget, fuel, max_cycles, watchdog_cycles, fast_forward, audit_every_cycles, trace, source)\"}"
        )
    );

    // `POST /jobs/batch` envelope.
    assert_eq!(
        post(addr, "/jobs/batch", br#"[{"kind":"run"}]"#),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_batch\",\"message\":\"batch must be {\\\"jobs\\\":[<spec>, ...]}\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs/batch", br#"{"jobs":[]}"#),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_batch\",\"message\":\"batch is empty\"}"
        )
    );
    let over = format!("{{\"jobs\":[{}]}}", vec!["{}"; MAX_BATCH + 1].join(","));
    assert_eq!(
        post(addr, "/jobs/batch", over.as_bytes()),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_batch\",\"message\":\"batch of 65 exceeds the cap of 64\"}"
        )
    );

    // A batch mixing one invalid spec with one valid spec.
    let valid = r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt"}"#;
    let mixed = format!("{{\"jobs\":[{{\"kind\":\"bad\"}},{valid}]}}");
    assert_eq!(
        post(addr, "/jobs/batch", mixed.as_bytes()),
        closing(
            "200 OK",
            &format!(
                "{{\"results\":[{{\"status\":400,\"body\":{{\"error\":\"invalid_job\",\"message\":\"unknown kind 'bad' (run|matrix|analyze|verify|asm)\"}}}},{{\"status\":200,\"cache\":\"miss\",\"body\":{}}}]}}",
                direct_payload(valid)
            )
        )
    );

    assert_eq!(
        post(addr, "/cache", br#"{"digest":"xyz","payload":"{}"}"#),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_replication\",\"message\":\"digest must be a hex string\"}"
        )
    );
    assert_eq!(
        post(addr, "/shutdown", br#"{"mode":"later"}"#),
        closing(
            "400 Bad Request",
            "{\"error\":\"invalid_shutdown\",\"message\":\"unknown mode 'later'\"}"
        )
    );

    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();
}

#[test]
fn node_answers_503_when_the_connection_backlog_is_full() {
    // One handler thread and a backlog of one: hold the handler with a
    // live keep-alive connection, fill the backlog with a second, and
    // the third is refused at the accept loop.
    let server = start(1);
    let addr = server.addr();
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 256];
    let n = held.read(&mut buf).unwrap();
    assert!(buf[..n].starts_with(b"HTTP/1.1 200 OK"));
    let queued = TcpStream::connect(addr).unwrap();
    assert_eq!(
        exchange(addr, b""),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 71\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{\"error\":\"overloaded\",\"message\":\"connection backlog full; retry later\"}"
    );
    drop(held);
    drop(queued);
    // The handler frees up once it sees both peers gone; until then a
    // new connection may still meet the full backlog.
    while !client::request(addr, "POST", "/shutdown", None).is_ok_and(|r| r.status == 200) {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.wait();
}

/// Each way a job can stop, as the node answers it: status line,
/// headers (the resumable `X-Recon-Checkpoint` ref included) and body.
#[test]
fn stop_answers_are_byte_stable() {
    let server = start(4);
    let addr = server.addr();
    let answers = [
        (
            r#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}"#,
            "408 Request Timeout",
            r#"{"error":"deadline_exceeded","kind":"run","reason":"fuel","partial":{"completed":false,"cycles":2018,"committed":1000,"ipc":0.4955,"tainted_loads":57,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.2393,"trace_dropped":0}}"#,
        ),
        (
            r#"{"kind":"analyze","suite":"spec2017","bench":"mcf","fuel":500}"#,
            "408 Request Timeout",
            r#"{"error":"deadline_exceeded","kind":"analyze","reason":"fuel","partial":{"instructions":500,"touched_words":173,"dift_leaked":98,"pair_leaked":98}}"#,
        ),
        (
            r#"{"kind":"verify","gadget":"already-leaked","scheme":"stt","max_cycles":100}"#,
            "408 Request Timeout",
            r#"{"error":"deadline_exceeded","kind":"verify","reason":"max_cycles","partial":{"completed":false,"cycles":100,"committed":0,"ipc":0.0000,"tainted_loads":0,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.0000,"trace_dropped":0}}"#,
        ),
        (
            r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","watchdog_cycles":20}"#,
            "500 Internal Server Error",
            r#"{"error":"stalled","kind":"run","summary":"liveness stall: no commit on any core for 20 cycles (at cycle 24); core 0 head `ld r9, [r10+0x0]` — in execution, result available at cycle 119","report":"LIVENESS STALL at cycle 24: no instruction committed on any core for 20 cycles\ncore 0: 14 committed, fetch_pc 57\n  queues: rob 178/352 iq 123/160 lq 58/128 sq 0/72 sb 0/72; shadows 29, guarded pregs 0\n  rob head: seq 14 pc 14 `ld r9, [r10+0x0]` [executing, done at cycle 119]\n  wait reason: in execution, result available at cycle 119\n  address 0x100000: L1 Exclusive, L2 Exclusive, dir Owned { owner: 0 }, word concealed\n","partial":{"completed":false,"cycles":24,"committed":14,"ipc":0.5833,"tainted_loads":0,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.0000,"trace_dropped":0}}"#,
        ),
        // Refused at execution time, not at admission.
        (
            r#"{"kind":"analyze","suite":"parsec","bench":"streamcluster"}"#,
            "400 Bad Request",
            r#"{"error":"invalid_job","message":"leakage analysis runs on single-thread benchmarks"}"#,
        ),
    ];
    for (spec, status_line, body) in answers {
        assert_eq!(
            post(addr, "/jobs", spec.as_bytes()),
            closing(status_line, body),
            "{spec}"
        );
    }
    // A batch entry carries the same status and body; the checkpoint
    // ref has no place in it.
    assert_eq!(
        post(
            addr,
            "/jobs/batch",
            br#"{"jobs":[{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}]}"#
        ),
        closing(
            "200 OK",
            r#"{"results":[{"status":408,"body":{"error":"deadline_exceeded","kind":"run","reason":"fuel","partial":{"completed":false,"cycles":2018,"committed":1000,"ipc":0.4955,"tainted_loads":57,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.2393,"trace_dropped":0}}}]}"#
        )
    );
    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();

    // A node that persists checkpoints names the newest one a deadline
    // left behind in the `X-Recon-Checkpoint` header.
    let dir = std::env::temp_dir().join(format!("recon-http-stops-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 8,
        cache_dir: Some(dir.clone()),
        checkpoint_every_cycles: 2_000,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();
    let body = r#"{"error":"deadline_exceeded","kind":"run","reason":"fuel","partial":{"completed":false,"cycles":6893,"committed":5000,"ipc":0.7254,"tainted_loads":324,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.2319,"trace_dropped":0}}"#;
    assert_eq!(
        post(
            addr,
            "/jobs",
            br#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":5000}"#
        ),
        format!(
            "HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\nX-Recon-Checkpoint: c3326286fa56ea9f-00000000000000006888.rck\r\n\r\n{body}",
            body.len()
        )
    );
    // A core that runs out of fuel during the drain for the checkpoint
    // at cycle 2,000 stops the drain at once and no checkpoint is left:
    // the answer is the one a node without checkpoints gives, not one
    // that counts the drain bound's 65,536 cycles (`"cycles":67537`).
    assert_eq!(
        post(
            addr,
            "/jobs",
            br#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}"#
        ),
        closing(
            "408 Request Timeout",
            r#"{"error":"deadline_exceeded","kind":"run","reason":"fuel","partial":{"completed":false,"cycles":2018,"committed":1000,"ipc":0.4955,"tainted_loads":57,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.2393,"trace_dropped":0}}"#
        )
    );
    let resp = client::request(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(resp.status, 200);
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
