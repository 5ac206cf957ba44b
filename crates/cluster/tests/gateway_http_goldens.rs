//! Byte-for-byte goldens of the gateway's HTTP front: the same error
//! set a node answers, plus `503 no_node` when every ring candidate is
//! down and `GET /cluster`, written over raw sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use recon_cluster::{Gateway, GatewayConfig, DEFAULT_VNODES};
use recon_serve::client::request;
use recon_serve::server::MAX_BATCH;

/// A gateway over one node address that refuses every connection.
fn start_over_a_dead_node(handler_cap: usize) -> (Gateway, String) {
    let dead = TcpListener::bind("127.0.0.1:0").unwrap();
    let name = dead.local_addr().unwrap().to_string();
    drop(dead);
    let gateway = Gateway::start(&GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![name.clone()],
        handler_cap,
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    (gateway, name)
}

/// Writes `raw` on a fresh connection and reads until the gateway
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
fn closing(status_line: &str, extra: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n{extra}\r\n{body}",
        body.len()
    )
}

fn shutdown(gateway: Gateway) {
    let addr = gateway.addr();
    while !request(addr, "POST", "/shutdown", None).is_ok_and(|r| r.status == 200) {
        std::thread::sleep(Duration::from_millis(10));
    }
    gateway.wait();
}

#[test]
fn gateway_error_and_edge_responses_are_byte_stable() {
    let (gateway, node) = start_over_a_dead_node(4);
    let addr = gateway.addr();

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

    // `POST /jobs` preamble, validated at the edge.
    assert_eq!(
        post(addr, "/jobs", &[0xff, 0xfe]),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_job\",\"message\":\"body is not UTF-8\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs", b"{\"kind\":"),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_job\",\"message\":\"unexpected end of input\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs", br#"{"kind":"run","bogus":1}"#),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_job\",\"message\":\"unknown field 'bogus' (accepted: kind, suite, bench, scheme, gadget, fuel, max_cycles, watchdog_cycles, fast_forward, audit_every_cycles, trace, source)\"}"
        )
    );

    // `POST /jobs/batch` envelope.
    assert_eq!(
        post(addr, "/jobs/batch", br#"[{"kind":"run"}]"#),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_batch\",\"message\":\"batch must be {\\\"jobs\\\":[<spec>, ...]}\"}"
        )
    );
    assert_eq!(
        post(addr, "/jobs/batch", br#"{"jobs":[]}"#),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_batch\",\"message\":\"batch is empty\"}"
        )
    );
    let over = format!("{{\"jobs\":[{}]}}", vec!["{}"; MAX_BATCH + 1].join(","));
    assert_eq!(
        post(addr, "/jobs/batch", over.as_bytes()),
        closing(
            "400 Bad Request",
            "",
            "{\"error\":\"invalid_batch\",\"message\":\"batch of 65 exceeds the cap of 64\"}"
        )
    );

    // Every ring candidate refuses: a valid job gets `503 no_node`,
    // alone and inside a batch next to an invalid spec.
    let valid = r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt"}"#;
    assert_eq!(
        post(addr, "/jobs", valid.as_bytes()),
        closing(
            "503 Service Unavailable",
            "Retry-After: 1\r\n",
            "{\"error\":\"no_node\",\"message\":\"every ring candidate is unreachable\"}"
        )
    );
    let mixed = format!("{{\"jobs\":[{{\"kind\":\"bad\"}},{valid}]}}");
    assert_eq!(
        post(addr, "/jobs/batch", mixed.as_bytes()),
        closing(
            "200 OK",
            "",
            "{\"results\":[{\"status\":400,\"body\":{\"error\":\"invalid_job\",\"message\":\"unknown kind 'bad' (run|matrix|analyze|verify|asm)\"}},{\"status\":503,\"body\":{\"error\":\"no_node\",\"message\":\"every ring candidate is unreachable\"}}]}"
        )
    );

    // The failed routes marked the node down.
    assert_eq!(
        exchange(addr, b"GET /cluster HTTP/1.1\r\nConnection: close\r\n\r\n"),
        closing(
            "200 OK",
            "",
            &format!(
                "{{\"vnodes\":{DEFAULT_VNODES},\"replicate\":true,\"nodes\":[{{\"node\":\"{node}\",\"up\":false,\"routed\":0}}]}}"
            )
        )
    );

    // The gateway has no `/cache`, and its `/shutdown` takes no mode.
    assert_eq!(
        post(addr, "/cache", br#"{"digest":"xyz","payload":"{}"}"#),
        closing(
            "404 Not Found",
            "",
            "{\"error\":\"not_found\",\"message\":\"/cache\"}"
        )
    );
    assert_eq!(
        post(addr, "/shutdown", br#"{"mode":"later"}"#),
        closing("200 OK", "", "{\"status\":\"shutting_down\"}")
    );
    gateway.wait();
}

#[test]
fn gateway_answers_503_when_the_connection_backlog_is_full() {
    let (gateway, _) = start_over_a_dead_node(1);
    let addr = gateway.addr();
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 256];
    let n = held.read(&mut buf).unwrap();
    assert!(buf[..n].starts_with(b"HTTP/1.1 200 OK"));
    let queued = TcpStream::connect(addr).unwrap();
    assert_eq!(
        exchange(addr, b""),
        closing(
            "503 Service Unavailable",
            "Retry-After: 1\r\n",
            "{\"error\":\"overloaded\",\"message\":\"gateway backlog full; retry later\"}"
        )
    );
    drop(held);
    drop(queued);
    shutdown(gateway);
}
