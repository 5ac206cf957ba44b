//! The cluster gateway: one HTTP front door over N `recon serve`
//! worker nodes.
//!
//! Connections belong to the shared [`recon_serve::http::Front`], the
//! same one a node runs behind; the gateway keeps only its routing
//! table, its handlers (which return a [`Reply`]), and the health
//! checker. Submissions are parsed by the node's own `/jobs` and
//! `/jobs/batch` parsers, so both answer malformed input alike.
//!
//! The gateway owns a [`HashRing`] keyed by the canonical job digest.
//! A `POST /jobs` submission is validated *at the edge* (same error
//! shape as a node), hashed, and proxied to the digest's primary node
//! over a pooled keep-alive connection with the self-healing retry
//! client. Failure handling distinguishes the two ways a node can say
//! no:
//!
//! * **Node down** — connection refused (fail-fast in the client) or
//!   exhausted transport retries. The gateway marks the node down,
//!   counts `recon_client_reroutes_total`, and walks the ring to the
//!   next distinct node. A background health checker probes `/healthz`
//!   and flips nodes back up when they return.
//! * **Node busy** — the node answered `429`/`503` after the per-node
//!   retry budget. That response (with its `Retry-After` hint) is
//!   relayed to the client untouched; rerouting backpressure would
//!   defeat the digest→node affinity that makes caching and
//!   single-flight dedup work.
//!
//! Successful `200` results are **replicated** to the digest's ring
//! replica (`POST /cache`), so when a primary dies its successor — the
//! exact node failover routes to — can answer repeated submissions from
//! cache without re-executing. Together with checkpoint migration
//! (`POST /migrate`, driven by a draining node, see
//! [`crate::storm`]), the replica is always the warmest place a job
//! can land after its primary disappears.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use recon_serve::client::{self, submit_with_retry, Connection, Retried, RetryPolicy};
use recon_serve::http::{Front, Reply, Request, Service};
use recon_serve::json::escape;
use recon_serve::metrics::Counter;
use recon_serve::queue::lock_ignore_poison;
use recon_serve::server::{batch_reply, parse_batch, parse_job, BatchResult};

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Idle pooled connections kept per node.
const POOL_CAP: usize = 32;

/// Gateway configuration (the `recon gateway` flags).
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Listen address (port 0 binds an ephemeral port).
    pub addr: String,
    /// Worker node addresses (`host:port`); these strings are also the
    /// ring member names and the `node` label values.
    pub nodes: Vec<String>,
    /// Virtual points per node on the hash ring.
    pub vnodes: usize,
    /// Connection-handler threads.
    pub handler_cap: usize,
    /// Client-facing per-connection read timeout.
    pub read_timeout: Duration,
    /// Client-facing per-connection write timeout.
    pub write_timeout: Duration,
    /// Per-I/O timeout on gateway→node connections. Must cover the
    /// longest job a node can serve.
    pub node_timeout: Duration,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Replicate `200` results to the ring replica.
    pub replicate: bool,
    /// Per-node submission policy (transport retries + bounded
    /// backpressure patience; `fail_fast_refused` should stay `true` so
    /// dead nodes reroute immediately).
    pub retry: RetryPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7190".to_string(),
            nodes: Vec::new(),
            vnodes: DEFAULT_VNODES,
            handler_cap: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            node_timeout: Duration::from_secs(60),
            health_interval: Duration::from_millis(200),
            replicate: true,
            retry: RetryPolicy {
                max_attempts: 6,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(100),
                retry_after_cap: Duration::from_millis(50),
                seed: 0,
                fail_fast_refused: true,
            },
        }
    }
}

/// Gateway-level counters (`GET /metrics` on the gateway).
#[derive(Default, Debug)]
pub struct GatewayMetrics {
    /// `POST /jobs` submissions accepted for routing.
    pub jobs: Counter,
    /// `POST /jobs/batch` submissions.
    pub batches: Counter,
    /// Transport-level failovers: a node was unreachable (refused
    /// fail-fast or exhausted transport retries) and the job moved to
    /// the next ring candidate.
    pub client_reroutes: Counter,
    /// Jobs answered by a node other than the digest's primary (for
    /// any reason: down-skip or transport failover).
    pub gateway_reroutes: Counter,
    /// Submissions that exhausted every ring candidate.
    pub no_node: Counter,
    /// Results successfully replicated to the ring replica.
    pub replications: Counter,
    /// Replication attempts that failed (best-effort; never blocks the
    /// client response).
    pub replication_failures: Counter,
}

/// Per-node live state.
#[derive(Debug)]
pub struct NodeState {
    /// Ring member name (the configured `host:port` string).
    pub name: String,
    /// Resolved address.
    pub addr: SocketAddr,
    /// Last known health (flipped by probes and by routing failures).
    up: AtomicBool,
    /// Jobs answered by this node through the gateway.
    pub routed: Counter,
    pool: Mutex<Vec<Connection>>,
}

impl NodeState {
    /// Last known health.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }
}

/// State shared by the HTTP front's handlers and the health checker.
#[derive(Debug)]
pub struct GwShared {
    /// The consistent-hash ring (member names == node names below).
    pub ring: HashRing,
    /// Per-node state, indexed in [`HashRing::nodes`] order.
    pub nodes: Vec<NodeState>,
    /// Gateway counters.
    pub metrics: GatewayMetrics,
    retry: RetryPolicy,
    node_timeout: Duration,
    replicate: bool,
    shutting_down: AtomicBool,
}

impl GwShared {
    fn node_index(&self, name: &str) -> usize {
        self.ring
            .nodes()
            .binary_search_by(|n| n.as_str().cmp(name))
            .expect("route() only yields ring members")
    }
}

/// A running gateway.
#[derive(Debug)]
pub struct Gateway {
    front: Front,
    shared: Arc<GwShared>,
    health: JoinHandle<()>,
}

impl Gateway {
    /// Resolves the node list, builds the ring, binds the listener, and
    /// starts the handler pool plus the health checker.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty or unresolvable node list; bind
    /// errors.
    pub fn start(config: &GatewayConfig) -> io::Result<Gateway> {
        if config.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one node (--nodes host:port,host:port,...)",
            ));
        }
        let ring = HashRing::new(&config.nodes, config.vnodes);
        let mut nodes = Vec::with_capacity(ring.nodes().len());
        for name in ring.nodes() {
            let addr = name
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unresolvable node '{name}'"),
                    )
                })?;
            nodes.push(NodeState {
                name: name.clone(),
                addr,
                up: AtomicBool::new(true),
                routed: Counter::default(),
                pool: Mutex::new(Vec::new()),
            });
        }
        let shared = Arc::new(GwShared {
            ring,
            nodes,
            metrics: GatewayMetrics::default(),
            retry: config.retry.clone(),
            node_timeout: config.node_timeout,
            replicate: config.replicate,
            shutting_down: AtomicBool::new(false),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let front = Front::start(
            "recon-gw",
            listener,
            Arc::clone(&shared),
            config.handler_cap,
            (config.read_timeout, config.write_timeout),
        )?;
        let health = {
            let shared = Arc::clone(&shared);
            let interval = config.health_interval.max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("recon-gw-health".to_string())
                .spawn(move || health_loop(&shared, interval))
                .expect("spawn health checker")
        };
        Ok(Gateway {
            front,
            shared,
            health,
        })
    }

    /// The actual bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Shared state, for in-process inspection in tests.
    #[must_use]
    pub fn shared(&self) -> &GwShared {
        &self.shared
    }

    /// Blocks until `POST /shutdown` stops the gateway, then joins all
    /// threads.
    pub fn wait(self) {
        self.front.join();
        let _ = self.health.join();
    }
}

/// Probes every node's `/healthz` and updates its `up` flag. Routing
/// also updates the flags (down on transport failure, up on success),
/// so the probe is what notices a *restarted* node while no traffic is
/// flowing toward it.
fn health_loop(shared: &Arc<GwShared>, interval: Duration) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        for node in &shared.nodes {
            let healthy = Connection::with_timeout(node.addr, Duration::from_millis(500))
                .request("GET", "/healthz", None)
                .map(|r| r.status == 200)
                .unwrap_or(false);
            node.up.store(healthy, Ordering::Relaxed);
        }
        std::thread::sleep(interval);
    }
}

/// The `no_node` error message.
const NO_NODE: &str = "every ring candidate is unreachable";

impl Service for GwShared {
    fn route(&self, req: &Request) -> Option<Reply> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Reply::json(200, "{\"status\":\"ok\"}"),
            ("GET", "/metrics") => {
                Reply::new(200, "text/plain; version=0.0.4", render_metrics(self))
            }
            ("GET", "/cluster") => Reply::json(200, render_cluster(self)),
            ("POST", "/jobs") => handle_job(req, self),
            ("POST", "/jobs/batch") => handle_batch(req, self),
            ("POST", "/shutdown") => {
                self.shutting_down.store(true, Ordering::SeqCst);
                Reply::json(200, "{\"status\":\"shutting_down\"}").closing()
            }
            _ => return None,
        })
    }

    fn stopping(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn overloaded(&self) -> Reply {
        Reply::error(503, "overloaded", "gateway backlog full; retry later")
            .header("Retry-After", "1")
    }
}

fn render_metrics(shared: &GwShared) -> String {
    use std::fmt::Write as _;
    let m = &shared.metrics;
    let mut out = String::with_capacity(1024);
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "recon_gateway_jobs_total",
        "Job submissions accepted for routing.",
        m.jobs.get(),
    );
    counter(
        "recon_gateway_batches_total",
        "Batch submissions accepted for routing.",
        m.batches.get(),
    );
    counter(
        "recon_client_reroutes_total",
        "Transport-level failovers to the next ring candidate (node down).",
        m.client_reroutes.get(),
    );
    counter(
        "recon_gateway_reroutes_total",
        "Jobs answered by a node other than the digest's primary.",
        m.gateway_reroutes.get(),
    );
    counter(
        "recon_gateway_no_node_total",
        "Submissions that exhausted every ring candidate.",
        m.no_node.get(),
    );
    counter(
        "recon_gateway_replications_total",
        "Results replicated to the ring replica.",
        m.replications.get(),
    );
    counter(
        "recon_gateway_replication_failures_total",
        "Failed best-effort replications.",
        m.replication_failures.get(),
    );
    let _ = writeln!(out, "# HELP recon_node_up Last known node health.");
    let _ = writeln!(out, "# TYPE recon_node_up gauge");
    for node in &shared.nodes {
        let _ = writeln!(
            out,
            "recon_node_up{{node=\"{}\"}} {}",
            node.name,
            u64::from(node.is_up())
        );
    }
    let _ = writeln!(
        out,
        "# HELP recon_gateway_routed_total Jobs answered per node."
    );
    let _ = writeln!(out, "# TYPE recon_gateway_routed_total counter");
    for node in &shared.nodes {
        let _ = writeln!(
            out,
            "recon_gateway_routed_total{{node=\"{}\"}} {}",
            node.name,
            node.routed.get()
        );
    }
    out
}

fn render_cluster(shared: &GwShared) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"vnodes\":{},\"replicate\":{},\"nodes\":[",
        shared.ring.vnodes(),
        shared.replicate
    );
    for (i, node) in shared.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":\"{}\",\"up\":{},\"routed\":{}}}",
            escape(&node.name),
            node.is_up(),
            node.routed.get()
        );
    }
    out.push_str("]}");
    out
}

/// One proxied submission: the digest's failover sequence is walked
/// until a node *answers* (any HTTP status — backpressure is an answer)
/// or every candidate proves unreachable.
fn proxy_job(shared: &GwShared, digest: u64, json: &str) -> Option<(usize, Retried)> {
    let order = shared.ring.route(digest);
    let total = order.len();
    for (i, name) in order.iter().enumerate() {
        let idx = shared.node_index(name);
        let node = &shared.nodes[idx];
        // Skip nodes the health checker has marked down — unless this
        // is the last candidate, which is always worth one real try.
        if !node.is_up() && i + 1 < total {
            continue;
        }
        match node_submit(shared, node, digest, json) {
            Ok(retried) => {
                node.up.store(true, Ordering::Relaxed);
                node.routed.inc();
                if i > 0 {
                    shared.metrics.gateway_reroutes.inc();
                }
                return Some((idx, retried));
            }
            Err(_) => {
                // Unreachable (refused fail-fast, or transport retries
                // exhausted): mark down and walk on.
                node.up.store(false, Ordering::Relaxed);
                if i + 1 < total {
                    shared.metrics.client_reroutes.inc();
                }
            }
        }
    }
    shared.metrics.no_node.inc();
    None
}

fn node_submit(
    shared: &GwShared,
    node: &NodeState,
    digest: u64,
    json: &str,
) -> io::Result<Retried> {
    let mut conn = lock_ignore_poison(&node.pool)
        .pop()
        .unwrap_or_else(|| Connection::with_timeout(node.addr, shared.node_timeout));
    let result = submit_with_retry(&mut conn, json, digest, &shared.retry, &mut |d| {
        std::thread::sleep(d)
    });
    if result.is_ok() {
        let mut pool = lock_ignore_poison(&node.pool);
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }
    result
}

/// Best-effort replication of a `200` payload to the digest's ring
/// replica. Failures are counted, never surfaced: the authoritative
/// result has already been computed and will be returned regardless.
fn replicate(shared: &GwShared, digest: u64, served_idx: usize, payload: &str) {
    if !shared.replicate {
        return;
    }
    let Some(replica) = shared.ring.replica(digest) else {
        return;
    };
    let idx = shared.node_index(replica);
    if idx == served_idx {
        return;
    }
    let body = format!(
        "{{\"digest\":\"{digest:016x}\",\"payload\":\"{}\"}}",
        escape(payload)
    );
    match client::request(shared.nodes[idx].addr, "POST", "/cache", Some(&body)) {
        Ok(r) if r.status == 200 => shared.metrics.replications.inc(),
        _ => shared.metrics.replication_failures.inc(),
    }
}

/// A node's answer as the client sees it: status, body, the headers it
/// should see, plus the gateway's own `X-Recon-Node` (which node
/// answered — the observable a migration test needs to prove a
/// cross-node resume).
fn forward(retried: Retried, node_name: &str) -> Reply {
    let response = retried.response;
    let mut reply = Reply::json(response.status, response.body.as_bytes());
    for (from, to) in [
        ("x-recon-cache", "X-Recon-Cache"),
        ("x-recon-checkpoint", "X-Recon-Checkpoint"),
        ("retry-after", "Retry-After"),
    ] {
        if let Some(v) = response.header(from) {
            reply = reply.header(to, v);
        }
    }
    reply.header("X-Recon-Node", node_name)
}

fn handle_job(req: &Request, shared: &GwShared) -> Reply {
    let spec = match parse_job(req) {
        Ok(spec) => spec,
        Err(bad) => return bad,
    };
    let digest = spec.digest();
    shared.metrics.jobs.inc();

    // `parse_job` accepted the body, so it is UTF-8.
    match proxy_job(shared, digest, req.body_str().unwrap_or_default()) {
        Some((idx, retried)) => {
            if retried.response.status == 200 {
                replicate(shared, digest, idx, &retried.response.body);
            }
            forward(retried, &shared.nodes[idx].name)
        }
        None => Reply::error(503, "no_node", NO_NODE).header("Retry-After", "1"),
    }
}

fn handle_batch(req: &Request, shared: &GwShared) -> Reply {
    let specs = match parse_batch(req) {
        Ok(specs) => specs,
        Err(bad) => return bad,
    };
    shared.metrics.batches.inc();
    shared.metrics.jobs.add(specs.len() as u64);

    // Validated at the edge; fan the valid specs out concurrently —
    // each rides its own digest's failover sequence independently.
    let routed: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                spec.map(|spec| {
                    let (json, digest) = (spec.to_json(), spec.digest());
                    (
                        digest,
                        scope.spawn(move || proxy_job(shared, digest, &json)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|(digest, h)| (digest, h.join().unwrap_or(None))))
            .collect()
    });

    batch_reply(routed.into_iter().map(|routed| match routed {
        Err(e) => BatchResult::error(400, "invalid_job", &e),
        Ok((_, None)) => BatchResult::error(503, "no_node", NO_NODE),
        Ok((digest, Some((idx, retried)))) => {
            if retried.response.status == 200 {
                replicate(shared, digest, idx, &retried.response.body);
            }
            BatchResult {
                status: retried.response.status,
                cache: retried.response.header("x-recon-cache").map(String::from),
                node: Some(shared.nodes[idx].name.clone()),
                body: retried.response.body,
            }
        }
    }))
}
