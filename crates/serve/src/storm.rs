//! The storm driver: the one fan-out / compare / tally core behind every
//! end-to-end load test of the service.
//!
//! A storm is a set of client *slices*, each a list of [`Expected`]
//! requests: a job spec plus the exact status and body that a direct
//! in-process execution of it produces ([`Expected::direct`]).
//! [`spawn_clients`] starts one thread per slice. Each thread runs
//! [`run_client`]: [`submit_with_retry`] over one keep-alive
//! [`Connection`], comparing every final response with its expectation
//! byte for byte and counting the outcome into a [`Tally`].
//! [`Clients::join`] merges the tallies. The driver needs nothing but
//! the address to aim at, so two storms share it:
//!
//! * `recon chaos` ([`run_chaos_storm`]) aims the clients at an
//!   in-process server with the chaos plane armed (dropped and
//!   corrupted connections, synthetic `429` bursts, panicking workers,
//!   torn checkpoints). Faults may delay an answer but never change it:
//!   nothing is lost and nothing mismatches.
//! * `recon chaos --nodes N` (`recon-cluster`'s storm) aims them at a
//!   gateway in front of real node processes that it kills, restarts
//!   and drains.
//!
//! The service's performance record is the repository benchmark's
//! `serve-mixed` workload (`examples/benchmark`), not a storm.
//!
//! The chaos storm is reproducible: job digests are disjoint across
//! clients and every client is serial, so each digest's fault-draw
//! sequence is consumed in submission order regardless of thread
//! interleaving, and the same seed yields the same report (bar
//! `wall_seconds`) on every run. Its prerequisites are arranged in
//! [`run_chaos_storm`]: `queue_cap >= clients` so no timing-dependent
//! *real* `429`s occur, generous client and server timeouts so no
//! timeout ever fires, and worker panics recovered inside the server so
//! clients never observe them.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::FaultSite;
use crate::client::{self, submit_with_retry, Connection, RetryPolicy};
use crate::job::{self, CkptPlan, JobSpec};
use crate::json::parse;
use crate::server::{ServeConfig, Server};

/// Checkpoint cadence for storm jobs, in simulated cycles: small enough
/// that run jobs cross several checkpoint boundaries, so the torn
/// checkpoint seam, resume-on-retry and the cluster's kill and drain
/// windows are all exercised.
pub const STORM_CKPT_EVERY: u64 = 5_000;

/// The cadence-only checkpoint plan of a storm node's persisted
/// executions. Checkpoint drains perturb stats identically whether or
/// not the bytes hit disk, so expectations computed under this plan
/// hold for fresh, locally resumed and cross-node resumed executions.
#[must_use]
pub fn storm_plan() -> CkptPlan {
    CkptPlan {
        dir: None,
        cadence: STORM_CKPT_EVERY,
        keep: 2,
    }
}

/// One request of a storm: the spec to send and the final
/// `(status, body)` it must produce.
#[derive(Clone, Debug)]
pub struct Expected {
    /// The job spec as JSON text.
    pub json: String,
    /// The spec's digest (the retry jitter key).
    pub digest: u64,
    /// `200` for a completing job, `408` for one that must deadline.
    pub status: u16,
    /// The exact payload: the result, or the deadline's partial stats.
    pub body: String,
}

impl Expected {
    /// Executes `json` directly in-process under `plan`, exactly as a
    /// server with the same checkpoint cadence will, and records the
    /// answer it must give.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not parse or validate, or fails with
    /// anything but a deadline (a bug in the storm's mix, not in the
    /// service).
    #[must_use]
    pub fn direct(json: String, plan: Option<&CkptPlan>) -> Expected {
        let v = parse(&json).expect("storm spec parses");
        let spec = JobSpec::from_json(&v).expect("storm spec validates");
        let digest = spec.digest();
        let (status, body) = match job::execute_ckpt(&spec, None, plan).0 {
            Ok(out) => (200, out.payload),
            Err(e) => match e.answer() {
                (408, _, body) => (408, body),
                other => panic!("storm spec failed directly: {other:?}"),
            },
        };
        Expected {
            json,
            digest,
            status,
            body,
        }
    }
}

/// What a storm's clients observed, summed over requests.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Final `200`s byte-identical to the direct execution.
    pub ok: u64,
    /// Final `408`s byte-identical to the expected partial stats.
    pub deadline: u64,
    /// Final responses with the expected status but different bytes.
    pub mismatches: u64,
    /// Requests with no final response: retries exhausted, or an
    /// unexpected status.
    pub lost: u64,
    /// Attempts beyond the first, across all requests.
    pub retries: u64,
    /// TCP reconnects: keep-alive connections re-dialed after a fault.
    pub reconnects: u64,
    /// `429` answers received; each is retried up to the policy's bound.
    pub backpressure_429: u64,
    /// Per-request latency, first attempt to final response including
    /// backoff, in microseconds.
    pub latencies_micros: Vec<u64>,
}

impl Tally {
    /// Adds `other`'s counts and latencies to `self`.
    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.deadline += other.deadline;
        self.mismatches += other.mismatches;
        self.lost += other.lost;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.backpressure_429 += other.backpressure_429;
        self.latencies_micros.extend(other.latencies_micros);
    }

    /// The `q`-quantile latency in milliseconds (0 with no samples).
    #[must_use]
    pub fn percentile_ms(&self, q: f64) -> f64 {
        let mut sorted = self.latencies_micros.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx] as f64 / 1e3
    }
}

/// Drives `slice` in order through one keep-alive connection to `addr`
/// (per-I/O `timeout`) under `policy`, comparing each final response
/// with its expectation.
#[must_use]
pub fn run_client(
    addr: SocketAddr,
    slice: &[Expected],
    policy: &RetryPolicy,
    timeout: Duration,
) -> Tally {
    let mut t = Tally {
        latencies_micros: Vec::with_capacity(slice.len()),
        ..Tally::default()
    };
    let mut conn = Connection::with_timeout(addr, timeout);
    let mut sleep = |d: Duration| std::thread::sleep(d);
    for expected in slice {
        let start = Instant::now();
        let outcome = submit_with_retry(
            &mut conn,
            &expected.json,
            expected.digest,
            policy,
            &mut sleep,
        );
        t.latencies_micros
            .push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        let Ok(r) = outcome else {
            t.retries += u64::from(policy.max_attempts - 1);
            t.lost += 1;
            continue;
        };
        t.retries += u64::from(r.attempts - 1);
        t.backpressure_429 += u64::from(r.backpressure_429);
        if r.response.status != expected.status {
            t.lost += 1;
        } else if r.response.body != expected.body {
            t.mismatches += 1;
        } else if r.response.status == 200 {
            t.ok += 1;
        } else {
            t.deadline += 1;
        }
    }
    t.reconnects = conn.connects().saturating_sub(1);
    t
}

/// A storm's running client threads.
#[derive(Debug)]
pub struct Clients(Vec<JoinHandle<Tally>>);

impl Clients {
    /// Waits for every client and merges their tallies.
    ///
    /// # Panics
    ///
    /// Panics if a client thread panicked.
    #[must_use]
    pub fn join(self) -> Tally {
        let mut total = Tally::default();
        for h in self.0 {
            total.merge(h.join().expect("storm client thread"));
        }
        total
    }
}

/// Starts one [`run_client`] thread per slice, all aimed at `addr`.
/// Client `c` jitters its backoff with `policy.seed` mixed with `c`.
#[must_use]
pub fn spawn_clients(
    addr: SocketAddr,
    slices: Vec<Vec<Expected>>,
    policy: &RetryPolicy,
    timeout: Duration,
) -> Clients {
    Clients(
        slices
            .into_iter()
            .enumerate()
            .map(|(c, slice)| {
                let policy = RetryPolicy {
                    seed: policy.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..policy.clone()
                };
                std::thread::spawn(move || run_client(addr, &slice, &policy, timeout))
            })
            .collect(),
    )
}

/// A fresh, empty directory for one storm's (or node's) checkpoints and
/// persisted cache, unique per process and call. Left-over state would
/// turn executions into cache hits and perturb the storm.
///
/// # Errors
///
/// I/O errors creating the directory.
pub fn scratch_dir(tag: &str) -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("recon-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Renders a report document: one `"key": value` line per field, in
/// order. Values display as JSON text: floats are pre-formatted to the
/// report's precision and nested objects or arrays already laid out.
#[must_use]
pub fn report_json(fields: &[(&str, &dyn std::fmt::Display)]) -> String {
    let lines: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
}

/// Storm configuration (the `recon chaos` flags).
#[derive(Clone, Debug)]
pub struct ChaosStormConfig {
    /// Chaos seed: same seed ⇒ same injected-fault counts.
    pub seed: u64,
    /// Concurrent client threads (each with a disjoint job slice).
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Fault rates, as the `<site>=<permil>` tail of a `--chaos` spec
    /// (every class should be armed for a full storm).
    pub faults: String,
    /// Worker threads for the in-process server.
    pub workers: usize,
    /// Report path (`None` skips the file).
    pub out: Option<String>,
}

impl Default for ChaosStormConfig {
    fn default() -> Self {
        ChaosStormConfig {
            seed: 42,
            clients: 6,
            requests: 8,
            faults: "all=80,max-latency-ms=2".to_string(),
            workers: default_workers(),
            out: Some("BENCH_chaos.json".to_string()),
        }
    }
}

/// Aggregated results of one storm.
#[derive(Clone, Debug, Default)]
pub struct ChaosStormReport {
    /// The chaos seed used.
    pub seed: u64,
    /// Client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// The fault-rate spec used.
    pub faults: String,
    /// Final `200` responses matching the direct execution byte-for-byte.
    pub ok: u64,
    /// Final `408` responses matching the expected partial-stats body.
    pub deadline: u64,
    /// Final responses whose body differed from the direct execution
    /// (must be 0).
    pub mismatches: u64,
    /// Requests with no final response — retries exhausted or an
    /// unexpected status (must be 0).
    pub lost: u64,
    /// Extra attempts beyond the first, across all requests (how much
    /// self-healing the storm demanded).
    pub retries: u64,
    /// TCP reconnects performed by the clients (keep-alive connections
    /// re-dialed after a fault).
    pub reconnects: u64,
    /// Injected faults per site, in [`FaultSite::ALL`] order.
    pub injected: Vec<(String, u64)>,
    /// Total injected faults.
    pub injected_total: u64,
    /// Panicked workers restarted by the supervisor.
    pub worker_restarts: u64,
    /// Real queue rejections (0 in a deterministic storm — the
    /// synthetic bursts are counted under `injected` instead).
    pub jobs_rejected: u64,
    /// Result-cache hits (retries of completed jobs land here).
    pub cache_hits: u64,
    /// Result-cache misses (first executions).
    pub cache_misses: u64,
    /// Duplicate submissions joined to a running execution.
    pub singleflight_joined: u64,
    /// Simulation checkpoints written by storm jobs.
    pub checkpoints_written: u64,
    /// Jobs that resumed from an on-disk checkpoint (retried deadline
    /// jobs land here).
    pub checkpoints_resumed: u64,
    /// Torn checkpoints (the `ckpt-torn` seam's output) dropped during
    /// recovery instead of being trusted.
    pub checkpoints_dropped_corrupt: u64,
    /// Wall-clock for the storm, in seconds.
    pub wall_seconds: f64,
}

impl ChaosStormReport {
    /// Whether the storm met the robustness claim.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.lost == 0 && self.mismatches == 0
    }

    /// Renders the report as the `BENCH_chaos.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let injected: String = self
            .injected
            .iter()
            .enumerate()
            .map(|(i, (site, n))| format!("{}\n    \"{site}\": {n}", if i > 0 { "," } else { "" }))
            .collect();
        report_json(&[
            ("seed", &self.seed),
            ("clients", &self.clients),
            ("requests_per_client", &self.requests_per_client),
            ("faults", &format!("\"{}\"", self.faults)),
            ("ok", &self.ok),
            ("deadline", &self.deadline),
            ("mismatches", &self.mismatches),
            ("lost", &self.lost),
            ("retries", &self.retries),
            ("reconnects", &self.reconnects),
            ("injected", &format!("{{{injected}\n  }}")),
            ("injected_total", &self.injected_total),
            ("worker_restarts", &self.worker_restarts),
            ("jobs_rejected", &self.jobs_rejected),
            ("cache_hits", &self.cache_hits),
            ("cache_misses", &self.cache_misses),
            ("singleflight_joined", &self.singleflight_joined),
            ("checkpoints_written", &self.checkpoints_written),
            ("checkpoints_resumed", &self.checkpoints_resumed),
            (
                "checkpoints_dropped_corrupt",
                &self.checkpoints_dropped_corrupt,
            ),
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

/// Builds one chaos client's request slice. Every spec carries a unique
/// `fuel` value, so digests are disjoint across the whole storm (the
/// keystone of reproducible injected-fault counts) while the payloads
/// of completing jobs stay identical to a run with any other
/// sufficient fuel.
fn chaos_slice(client_id: usize, requests: usize) -> Vec<Expected> {
    let schemes = ["unsafe", "nda", "nda+recon", "stt", "stt+recon"];
    let plan = storm_plan();
    (0..requests)
        .map(|r| {
            let uniq = (client_id * requests + r) as u64;
            let json = match r % 4 {
                // A full simulated run; ample fuel, unique digest.
                0 => format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"{}","fuel":{}}}"#,
                    schemes[(client_id + r) % schemes.len()],
                    50_000_000 + uniq
                ),
                // A two-trace verifier cell under budget.
                1 => format!(
                    r#"{{"kind":"verify","gadget":"spectre-v1","scheme":"stt+recon","fuel":{}}}"#,
                    50_000_000 + uniq
                ),
                // Scheme-independent leakage analysis.
                2 => format!(
                    r#"{{"kind":"analyze","suite":"spec2017","bench":"mcf","fuel":{}}}"#,
                    100_000_000 + uniq
                ),
                // A fuel-starved run that must deadline with partial
                // stats — the 408 path stays correct under faults too.
                _ => format!(
                    r#"{{"kind":"run","suite":"spec2017","bench":"xalancbmk","scheme":"stt","fuel":{}}}"#,
                    1000 + uniq
                ),
            };
            Expected::direct(json, Some(&plan))
        })
        .collect()
}

/// Runs the storm and (optionally) writes the `BENCH_chaos.json`
/// report.
///
/// # Errors
///
/// I/O errors from the loopback server or the report file.
///
/// # Panics
///
/// Panics if a storm spec fails when executed directly (a bug in the
/// mix, not in the service).
pub fn run_chaos_storm(config: &ChaosStormConfig) -> io::Result<ChaosStormReport> {
    let clients = config.clients.max(1);
    let requests = config.requests.max(1);

    // Precompute every client's slice (and expected bytes) before the
    // server starts, so the storm clock measures serving, not setup.
    let slices = (0..clients).map(|c| chaos_slice(c, requests)).collect();

    let ckpt_dir = scratch_dir(&format!("chaos-{}", config.seed))?;
    let serve = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: config.workers,
        // No timing-dependent real 429s: every client is serial, so at
        // most `clients` jobs are ever queued at once.
        queue_cap: clients.max(4),
        handler_cap: clients * 2 + 4,
        read_timeout: Duration::from_secs(60),
        write_timeout: Duration::from_secs(60),
        chaos: Some(format!("{},{}", config.seed, config.faults)),
        cache_dir: Some(ckpt_dir.clone()),
        checkpoint_every_cycles: STORM_CKPT_EVERY,
        node_id: None,
    };
    let policy = RetryPolicy {
        max_attempts: 16,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        retry_after_cap: Duration::from_millis(20),
        seed: config.seed,
        // The server stays up for the whole run; refused would be a
        // harness bug, so surface it as `lost`.
        fail_fast_refused: true,
    };
    let server = Server::start(&serve)?;
    let addr = server.addr();
    let start = Instant::now();
    // Generous timeout: nothing in the storm legitimately takes this
    // long, so timeouts never fire and never perturb its determinism.
    let t = spawn_clients(addr, slices, &policy, Duration::from_secs(60)).join();
    let wall_seconds = start.elapsed().as_secs_f64();
    let s = server.shared();
    let m = &s.metrics;
    let report = ChaosStormReport {
        seed: config.seed,
        clients,
        requests_per_client: requests,
        faults: config.faults.clone(),
        ok: t.ok,
        deadline: t.deadline,
        mismatches: t.mismatches,
        lost: t.lost,
        retries: t.retries,
        reconnects: t.reconnects,
        injected: FaultSite::ALL
            .iter()
            .map(|&site| (site.label().to_string(), s.chaos.injected(site)))
            .collect(),
        injected_total: s.chaos.injected_total(),
        worker_restarts: m.worker_restarts.get(),
        jobs_rejected: m.jobs_rejected.get(),
        cache_hits: m.cache_hits.get(),
        cache_misses: m.cache_misses.get(),
        singleflight_joined: m.singleflight_joined.get(),
        checkpoints_written: m.checkpoints_written.get(),
        checkpoints_resumed: m.checkpoints_resumed.get(),
        checkpoints_dropped_corrupt: m.checkpoints_dropped_corrupt.get(),
        wall_seconds,
    };
    let _ = client::request(addr, "POST", "/shutdown", None);
    server.wait();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if let Some(path) = &config.out {
        report.write_json(path)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_unsorted_micros() {
        let mut t = Tally {
            latencies_micros: (1..=100).rev().map(|i| i * 1000).collect(),
            ..Tally::default()
        };
        // idx = round((n-1) * q): 49.5 rounds away from zero to 50.
        assert!((t.percentile_ms(0.50) - 51.0).abs() < 1e-9);
        assert!((t.percentile_ms(0.99) - 99.0).abs() < 1e-9);
        t.latencies_micros.clear();
        assert_eq!(t.percentile_ms(0.5), 0.0);
    }

    /// A small storm with every fault class armed: nothing lost,
    /// nothing mismatched, and the same seed reproduces the same
    /// injected-fault counts.
    #[test]
    fn storm_is_lossless_and_reproducible() {
        let config = ChaosStormConfig {
            seed: 7,
            clients: 3,
            requests: 4,
            faults: "all=120,max-latency-ms=2".to_string(),
            workers: 3,
            out: None,
        };
        let a = run_chaos_storm(&config).expect("storm runs");
        assert_eq!(a.lost, 0, "no request may go unanswered: {a:?}");
        assert_eq!(a.mismatches, 0, "no response may differ: {a:?}");
        assert_eq!(a.ok + a.deadline, (config.clients * config.requests) as u64);
        assert_eq!(a.jobs_rejected, 0, "storm must avoid real 429s");
        assert!(a.injected_total > 0, "a 12% storm must inject something");

        let b = run_chaos_storm(&config).expect("storm reruns");
        assert_eq!(
            a.injected, b.injected,
            "same seed must give the same per-site injected counts"
        );
        assert_eq!(a.retries, b.retries, "same faults, same healing work");
    }
}
