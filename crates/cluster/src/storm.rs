//! `recon chaos --nodes N`: the cluster chaos storm.
//!
//! Unlike the single-node storm (which injects synthetic faults inside
//! one process), this storm kills *real processes*. It spawns N
//! `recon serve` worker nodes as children, fronts them with an
//! in-process [`Gateway`], and points the storm driver of
//! [`recon_serve::storm`] at the gateway's address: this module is only
//! the topology and its choreography. Then:
//!
//! 1. **Kill phase** — client threads drive unique-digest jobs through
//!    the gateway while the storm SIGKILLs the primary of a watched
//!    long-running job mid-execution (after its first RCK1 checkpoint
//!    lands on disk) and restarts it on the same port and cache
//!    directory. The gateway must reroute every in-flight job to a
//!    ring successor and the restarted node must resume its orphaned
//!    job from the checkpoint. Claim: **0 lost, 0 mismatched** — every
//!    response byte-identical to a direct single-node execution.
//! 2. **Drain phase** — a second long job runs on a different node,
//!    which is then told to drain to its ring successor
//!    (`POST /drain {"to": ...}`). The draining node cancels the job,
//!    ships its newest checkpoint to the successor's `POST /migrate`,
//!    and exits. The storm resubmits the job through the gateway
//!    (which fails over to — precisely — the successor) and proves the
//!    **cross-node resume**: the successor's `recon_migrations_in_total`
//!    and `recon_checkpoints_resumed_total` both advance, and the final
//!    payload is byte-identical to an uninterrupted run. The
//!    choreography picks the drained job's digest so that neither its
//!    primary nor its successor is the kill victim; the metric deltas
//!    are unambiguous.
//!
//! The report ([`ClusterStormReport`], `BENCH_cluster.json`) holds the
//! two phases' counts and their pass/fail verdict.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use recon_serve::client::{self, Connection, RetryPolicy};
use recon_serve::job::JobSpec;
use recon_serve::json::parse;
use recon_serve::storm::{
    report_json, run_client, scratch_dir, spawn_clients, storm_plan, Expected, STORM_CKPT_EVERY,
};

use crate::gateway::{Gateway, GatewayConfig};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Cluster storm configuration (the `recon chaos --nodes N` flags).
#[derive(Clone, Debug)]
pub struct ClusterStormConfig {
    /// Seed for client retry jitter and the job mix.
    pub seed: u64,
    /// Worker nodes (at least 2 — migration needs a successor).
    pub nodes: usize,
    /// Concurrent client threads in the kill phase.
    pub clients: usize,
    /// Requests per client in the kill phase.
    pub requests: usize,
    /// Worker threads per node.
    pub node_workers: usize,
    /// Fuel for the kill- and drain-watched jobs. Long enough that the
    /// job is mid-run when its first checkpoint lands (the kill/drain
    /// trigger); the smoke test shrinks it to keep CI fast.
    pub watch_fuel: u64,
    /// The `recon` binary to spawn nodes from.
    pub node_exe: PathBuf,
    /// Report path (`None` skips the file).
    pub out: Option<String>,
}

impl Default for ClusterStormConfig {
    fn default() -> Self {
        ClusterStormConfig {
            seed: 42,
            nodes: 3,
            clients: 3,
            requests: 4,
            node_workers: 1,
            watch_fuel: 40_000_000,
            node_exe: PathBuf::from("recon"),
            out: Some("BENCH_cluster.json".to_string()),
        }
    }
}

/// Aggregated results of one cluster storm.
#[derive(Clone, Debug, Default)]
pub struct ClusterStormReport {
    /// The seed used.
    pub seed: u64,
    /// Worker nodes in the kill/drain phases.
    pub nodes: usize,
    /// Client threads in the kill phase.
    pub clients: usize,
    /// Requests per client in the kill phase.
    pub requests_per_client: usize,
    /// Final `200` responses byte-identical to direct execution.
    pub ok: u64,
    /// Final `408` responses byte-identical to the expected partials.
    pub deadline: u64,
    /// Responses whose bytes differed (must be 0).
    pub mismatches: u64,
    /// Requests with no valid final response (must be 0).
    pub lost: u64,
    /// Extra client attempts beyond the first.
    pub retries: u64,
    /// Nodes SIGKILLed mid-job.
    pub kills: u64,
    /// Killed nodes restarted on the same port and cache directory.
    pub restarts: u64,
    /// The restarted node resumed its orphaned job from a checkpoint.
    pub kill_orphan_resumed: bool,
    /// Checkpoints the drained node shipped to its ring successor.
    pub migrated: u64,
    /// Successor's `recon_migrations_in_total` delta over the drain.
    pub successor_migrations_in: u64,
    /// Successor's `recon_checkpoints_resumed_total` delta.
    pub successor_resumes: u64,
    /// The migrated job finished on the successor with bytes identical
    /// to an uninterrupted single-node run.
    pub migrated_byte_identical: bool,
    /// Transport-level gateway failovers (`recon_client_reroutes_total`).
    pub reroutes: u64,
    /// Jobs answered off-primary (`recon_gateway_reroutes_total`).
    pub gateway_reroutes: u64,
    /// Results replicated to ring replicas by the gateway.
    pub replications: u64,
    /// Wall-clock for the whole storm, in seconds.
    pub wall_seconds: f64,
}

impl ClusterStormReport {
    /// Whether the storm met the cluster claim: nothing lost, nothing
    /// mismatched, and at least one job provably resumed on a
    /// *different* node from a migrated RCK1 checkpoint with
    /// byte-identical output.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.lost == 0
            && self.mismatches == 0
            && self.migrated >= 1
            && self.successor_migrations_in >= 1
            && self.successor_resumes >= 1
            && self.migrated_byte_identical
    }

    /// Renders the report as the `BENCH_cluster.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        report_json(&[
            ("seed", &self.seed),
            ("nodes", &self.nodes),
            ("clients", &self.clients),
            ("requests_per_client", &self.requests_per_client),
            ("ok", &self.ok),
            ("deadline", &self.deadline),
            ("mismatches", &self.mismatches),
            ("lost", &self.lost),
            ("retries", &self.retries),
            ("kills", &self.kills),
            ("restarts", &self.restarts),
            ("kill_orphan_resumed", &self.kill_orphan_resumed),
            ("migrated", &self.migrated),
            ("successor_migrations_in", &self.successor_migrations_in),
            ("successor_resumes", &self.successor_resumes),
            ("migrated_byte_identical", &self.migrated_byte_identical),
            ("reroutes", &self.reroutes),
            ("gateway_reroutes", &self.gateway_reroutes),
            ("replications", &self.replications),
            ("pass", &self.pass()),
            ("wall_seconds", &format!("{:.6}", self.wall_seconds)),
        ])
    }

    /// Writes [`Self::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// File I/O errors.
    pub fn write_json(&self, path: &str) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// One spawned worker node.
struct NodeProc {
    name: String,
    addr: SocketAddr,
    dir: PathBuf,
    child: Child,
}

impl NodeProc {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reserves a free loopback port by binding and dropping a listener.
/// A tiny race against other processes remains; [`spawn_node`] retries.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

fn spawn_child(
    exe: &std::path::Path,
    port: u16,
    dir: &std::path::Path,
    workers: usize,
    queue_cap: usize,
) -> io::Result<Child> {
    Command::new(exe)
        .arg("serve")
        .arg("--addr")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--queue-cap")
        .arg(queue_cap.to_string())
        .arg("--handler-cap")
        .arg("32")
        .arg("--node")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--cache-dir")
        .arg(dir)
        .arg("--checkpoint-every")
        .arg(STORM_CKPT_EVERY.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// Spawns a node and waits until `/healthz` answers. `port` pins the
/// address (required when restarting a killed node); `None` picks a
/// fresh free port per attempt.
fn spawn_node(
    exe: &std::path::Path,
    port: Option<u16>,
    dir: PathBuf,
    workers: usize,
    queue_cap: usize,
) -> io::Result<NodeProc> {
    let mut last = None;
    for _ in 0..10 {
        let p = match port {
            Some(p) => p,
            None => free_port()?,
        };
        let mut child = spawn_child(exe, p, &dir, workers, queue_cap)?;
        let addr = SocketAddr::from(([127, 0, 0, 1], p));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if Connection::with_timeout(addr, Duration::from_millis(250))
                .request("GET", "/healthz", None)
                .map(|r| r.status == 200)
                .unwrap_or(false)
            {
                return Ok(NodeProc {
                    name: format!("127.0.0.1:{p}"),
                    addr,
                    dir,
                    child,
                });
            }
            // A lost port race makes the child exit immediately; retry
            // the spawn (same port when pinned — the loser frees it).
            if let Ok(Some(status)) = child.try_wait() {
                last = Some(io::Error::other(format!(
                    "node exited at startup: {status}"
                )));
                break;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                last = Some(io::Error::other("node did not become healthy in 10s"));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(last.unwrap_or_else(|| io::Error::other("node spawn failed")))
}

/// A node's `/metrics` sample sum for `name` (0 when the node does not
/// answer or has no such series).
fn node_metric(addr: SocketAddr, name: &str) -> u64 {
    client::request(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|r| client::scrape(&r.body, name))
        .unwrap_or(0)
}

/// Polls a node until its inflight gauge drains to zero (background
/// orphan recovery finished), so later metric deltas are unambiguous.
fn wait_idle(addr: SocketAddr, deadline: Duration) {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if node_metric(addr, "recon_jobs_inflight") == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Prints a timestamped storm progress line. `cargo test` captures
/// stdout, so tests stay quiet unless they fail; the CLI shows the
/// phase-by-phase timeline live.
fn progress(start: Instant, msg: &str) {
    println!(
        "cluster storm [{:6.1}s] {msg}",
        start.elapsed().as_secs_f64()
    );
}

/// Whether `dir` holds an RCK1 checkpoint for `digest`.
fn has_checkpoint(dir: &std::path::Path, digest: u64) -> bool {
    let prefix = format!("{digest:016x}-");
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(&prefix) && name.ends_with(".rck")
        })
    })
}

/// Waits (up to 60s) until `dir` holds an RCK1 checkpoint for `digest`.
fn await_checkpoint(dir: &std::path::Path, digest: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_checkpoint(dir, digest) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The kill-phase job mix: unique digests via unique fuel, same shapes
/// as the single-node storm but smaller (real processes, one core).
/// `run_fuel` scales the long-run jobs with the watched-job fuel so a
/// small smoke storm stays small end to end.
fn build_slice(client_id: usize, requests: usize, run_fuel: u64) -> Vec<Expected> {
    let schemes = ["unsafe", "nda", "nda+recon", "stt", "stt+recon"];
    let plan = storm_plan();
    (0..requests)
        .map(|r| {
            let uniq = (client_id * requests + r) as u64;
            let json = match r % 3 {
                0 => format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"{}","fuel":{}}}"#,
                    schemes[(client_id + r) % schemes.len()],
                    run_fuel + uniq
                ),
                1 => format!(
                    r#"{{"kind":"analyze","suite":"spec2017","bench":"mcf","fuel":{}}}"#,
                    100_000_000 + uniq
                ),
                _ => format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":{}}}"#,
                    1000 + uniq
                ),
            };
            Expected::direct(json, Some(&plan))
        })
        .collect()
}

/// The storm clients' retry policy. It is generous: a node kill mid-job
/// costs a gateway-side failover, not a client-side failure, but the
/// client still rides out relayed backpressure. The gateway stays up for
/// the whole storm, so a refused connection is a harness bug and counts
/// as `lost` at once.
fn client_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 60,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(200),
        retry_after_cap: Duration::from_millis(200),
        seed,
        fail_fast_refused: true,
    }
}

/// Per-I/O timeout of the storm clients' gateway connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Finds a long-run spec whose ring route satisfies `want` (searching
/// over a fuel tail leaves the workload identical-shaped but moves the
/// digest around the ring) and computes its expected answer.
fn find_spec_with_route(
    ring: &HashRing,
    base_fuel: u64,
    want: impl Fn(&[&str]) -> bool,
) -> Expected {
    for t in 0..10_000u64 {
        let json = format!(
            r#"{{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt+recon","fuel":{}}}"#,
            base_fuel + t
        );
        let v = parse(&json).expect("probe spec parses");
        let spec = JobSpec::from_json(&v).expect("probe spec validates");
        if want(&ring.route(spec.digest())) {
            return Expected::direct(json, Some(&storm_plan()));
        }
    }
    unreachable!("no digest with the wanted route in 10k probes");
}

/// Runs the cluster storm and (optionally) writes `BENCH_cluster.json`.
///
/// # Errors
///
/// I/O errors spawning nodes, binding the gateway, or writing the
/// report.
///
/// # Panics
///
/// Panics if a storm spec fails when executed directly, or if the
/// choreography cannot find suitable digests (bugs in the storm, not
/// the service).
pub fn run_cluster_storm(config: &ClusterStormConfig) -> io::Result<ClusterStormReport> {
    let n = config.nodes.max(2);
    let clients = config.clients.max(1);
    let requests = config.requests.max(1);
    let start = Instant::now();

    let mut report = ClusterStormReport {
        seed: config.seed,
        nodes: n,
        clients,
        requests_per_client: requests,
        ..ClusterStormReport::default()
    };

    // Precompute all expected bytes before any process starts.
    let run_fuel = (config.watch_fuel / 4).max(1_000_000);
    let mut slices: Vec<Vec<Expected>> = (0..clients)
        .map(|c| build_slice(c, requests, run_fuel))
        .collect();
    progress(start, "expected payloads precomputed");

    // ---- Spawn the worker fleet. --------------------------------------
    let queue_cap = clients * requests + 8;
    let workers = config.node_workers.max(1);
    let mut fleet: Vec<NodeProc> = Vec::with_capacity(n);
    for i in 0..n {
        let dir = scratch_dir(&format!("cluster-{}-node{i}", config.seed))?;
        fleet.push(spawn_node(&config.node_exe, None, dir, workers, queue_cap)?);
    }
    let names: Vec<String> = fleet.iter().map(|p| p.name.clone()).collect();
    let ring = HashRing::new(&names, DEFAULT_VNODES);

    let gateway = Gateway::start(&GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: names.clone(),
        handler_cap: clients + 8,
        // Long jobs stall the *node* read (node_timeout), not the
        // client-facing keep-alive read — leaving the latter at its 5s
        // default keeps gateway teardown prompt.
        node_timeout: Duration::from_secs(120),
        ..GatewayConfig::default()
    })?;
    let gw_addr = gateway.addr();
    let by_name =
        |fleet: &[NodeProc], name: &str| fleet.iter().position(|p| p.name == name).expect("fleet");

    // ---- Choreography digests. ----------------------------------------
    // Kill job: any long run; its primary is the victim.
    let kill = find_spec_with_route(&ring, config.watch_fuel, |_| true);
    let victim = ring.route(kill.digest)[0].to_string();
    // Drain job: neither its primary nor its successor may be the kill
    // victim, so the successor's metric deltas can only come from the
    // migration (needs n >= 3; with n == 2 the successor is the
    // restarted victim, whose orphan recovery we wait out instead).
    let drain = find_spec_with_route(&ring, config.watch_fuel + 1_000_000, |route| {
        if n >= 3 {
            route[0] != victim && route[1] != victim
        } else {
            route[0] != victim
        }
    });
    progress(start, "fleet up, choreography digests chosen");

    // ---- Kill phase: the clients, plus one more watching the kill job. -
    let kill_digest = kill.digest;
    slices.push(vec![kill]);
    let kill_clients = spawn_clients(gw_addr, slices, &client_policy(config.seed), CLIENT_TIMEOUT);

    // Wait for the victim's first checkpoint of the watched job, then
    // SIGKILL it mid-run and restart it on the same port and directory.
    let vi = by_name(&fleet, &victim);
    let victim_dir = fleet[vi].dir.clone();
    let victim_port = fleet[vi].addr.port();
    await_checkpoint(&victim_dir, kill_digest);
    fleet[vi].kill();
    progress(start, "victim SIGKILLed mid-run");
    report.kills = 1;
    fleet[vi] = spawn_node(
        &config.node_exe,
        Some(victim_port),
        victim_dir,
        workers,
        queue_cap,
    )?;
    report.restarts = 1;

    let t = kill_clients.join();
    report.ok = t.ok;
    report.deadline = t.deadline;
    report.mismatches = t.mismatches;
    report.lost = t.lost;
    report.retries = t.retries;
    progress(start, "kill-phase clients drained");

    // Let the restarted victim finish recovering its orphaned job so
    // the drain-phase metric deltas cannot be confused with it.
    wait_idle(fleet[vi].addr, Duration::from_secs(120));
    report.kill_orphan_resumed =
        node_metric(fleet[vi].addr, "recon_checkpoints_resumed_total") >= 1;
    progress(start, "restarted victim idle (orphan recovery done)");

    // ---- Drain phase: checkpoint migration to the ring successor. -----
    let primary = ring.route(drain.digest)[0].to_string();
    let successor = ring.route(drain.digest)[1].to_string();
    let (pi, si) = (by_name(&fleet, &primary), by_name(&fleet, &successor));
    let succ_addr = fleet[si].addr;
    let pre_migrations = node_metric(succ_addr, "recon_migrations_in_total");
    let pre_resumes = node_metric(succ_addr, "recon_checkpoints_resumed_total");

    // Submit the watched job straight to the primary (one attempt, no
    // healing: the drain is *supposed* to cancel it).
    let drain_submit = {
        let json = drain.json.clone();
        let addr = fleet[pi].addr;
        std::thread::spawn(move || {
            let mut conn = Connection::with_timeout(addr, CLIENT_TIMEOUT);
            let _ = conn.request("POST", "/jobs", Some(&json));
        })
    };
    await_checkpoint(&fleet[pi].dir, drain.digest);
    let drain_body = format!("{{\"to\":\"{}\"}}", fleet[si].name);
    let drain_resp = client::request(fleet[pi].addr, "POST", "/drain", Some(&drain_body))?;
    if drain_resp.status == 200 {
        if let Ok(v) = parse(&drain_resp.body) {
            report.migrated = v
                .get("migrated")
                .and_then(recon_serve::json::Json::as_f64)
                .map_or(0, |f| f as u64);
        }
    }
    let _ = drain_submit.join();
    progress(start, "drain accepted, checkpoint shipped");
    // The drained node exits on its own once its server drains.
    let _ = fleet[pi].child.wait();
    progress(start, "drained node exited");

    // Wait until the gateway notices the primary is gone, then resubmit
    // through it: failover lands exactly on the successor, which joins
    // the migrated job's resumed execution (or its cached result).
    let gw = gateway.shared();
    let primary_state = &gw.nodes[gw
        .ring
        .nodes()
        .iter()
        .position(|x| *x == primary)
        .expect("ring member")];
    let down_deadline = Instant::now() + Duration::from_secs(10);
    while primary_state.is_up() && Instant::now() < down_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let t = run_client(
        gw_addr,
        &[drain],
        &client_policy(config.seed),
        CLIENT_TIMEOUT,
    );
    report.migrated_byte_identical = t.ok == 1;
    report.mismatches += t.mismatches;
    report.lost += t.lost;
    progress(start, "resubmission answered from the successor");
    wait_idle(succ_addr, Duration::from_secs(60));
    report.successor_migrations_in =
        node_metric(succ_addr, "recon_migrations_in_total").saturating_sub(pre_migrations);
    report.successor_resumes =
        node_metric(succ_addr, "recon_checkpoints_resumed_total").saturating_sub(pre_resumes);

    report.reroutes = gw.metrics.client_reroutes.get();
    report.gateway_reroutes = gw.metrics.gateway_reroutes.get();
    report.replications = gw.metrics.replications.get();

    let _ = client::request(gw_addr, "POST", "/shutdown", None);
    gateway.wait();
    for node in &mut fleet {
        node.kill();
        let _ = std::fs::remove_dir_all(&node.dir);
    }

    progress(start, "storm fleet torn down");

    report.wall_seconds = start.elapsed().as_secs_f64();
    if let Some(path) = &config.out {
        report.write_json(path)?;
    }
    Ok(report)
}
