//! The storm driver's compare-and-tally contract, end to end over
//! loopback: a final response counts as `ok` only when both status and
//! body match the direct execution, as a mismatch when only the body
//! differs, and as lost when the status differs. The clients' tallies
//! merge across threads.

use std::time::Duration;

use recon_serve::client::{self, RetryPolicy};
use recon_serve::storm::{run_client, spawn_clients, Expected};
use recon_serve::{ServeConfig, Server};

const SPEC: &str = r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt+recon"}"#;
const STARVED: &str =
    r#"{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":1000}"#;

#[test]
fn client_tallies_ok_deadline_mismatch_and_lost() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 4,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.addr();

    let good = Expected::direct(SPEC.to_string(), None);
    let starved = Expected::direct(STARVED.to_string(), None);
    assert_eq!((good.status, starved.status), (200, 408));
    let wrong_body = Expected {
        body: "not the payload".to_string(),
        ..good.clone()
    };
    let wrong_status = Expected {
        status: 408,
        ..good.clone()
    };
    let slice = [good.clone(), starved.clone(), wrong_body, wrong_status];
    let t = run_client(
        addr,
        &slice,
        &RetryPolicy::default(),
        Duration::from_secs(60),
    );
    assert_eq!(
        (t.ok, t.deadline, t.mismatches, t.lost),
        (1, 1, 1, 1),
        "{t:?}"
    );
    assert_eq!(t.latencies_micros.len(), slice.len());
    assert_eq!(
        t.reconnects, 0,
        "one keep-alive connection serves the slice"
    );

    let slices = vec![vec![good.clone(), starved.clone()], vec![starved, good]];
    let t = spawn_clients(
        addr,
        slices,
        &RetryPolicy::default(),
        Duration::from_secs(60),
    )
    .join();
    assert_eq!((t.ok, t.deadline, t.mismatches, t.lost), (2, 2, 0, 0));
    assert_eq!(t.latencies_micros.len(), 4);

    client::request(addr, "POST", "/shutdown", None).expect("shutdown");
    server.wait();
}
