//! The serving node: its routing table, its handlers, and a supervised
//! worker pool, behind the shared HTTP front.
//!
//! Connections belong to [`crate::http::Front`]: the capped handler
//! pool, the `503` when it and its backlog are saturated, HTTP/1.1
//! keep-alive with per-connection timeouts, and every response write.
//! The node's handlers return a [`Reply`] value and never touch a
//! socket.
//!
//! Handlers never execute simulations: a `POST /jobs` submission is
//! validated, checked against the result cache **and the in-flight
//! table** (single-flight: duplicate submissions of the same digest
//! join the running execution instead of re-running it), and — on a
//! miss — pushed into the bounded queue with a reply channel. When the
//! queue is full the submission is refused *immediately* with `429` and
//! `Retry-After`; nothing buffers without bound.
//!
//! Workers run under **supervisors**: a worker that panics outside the
//! per-job `catch_unwind` (the chaos plane injects exactly that) is
//! respawned, its orphaned job is recovered and re-executed by the
//! replacement (immune to further injected panics, so progress is
//! guaranteed), and the restart is counted in `/metrics`.
//!
//! With `--chaos`, a [`FaultPlan`] is consulted at the seams marked
//! `chaos seam` below; a faulted response is still a [`Reply`] (cut
//! short, or raw bytes, then a close). With `--cache-dir`, the result
//! cache is crash-safe (see [`crate::persist`]).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use recon_isa::hash::FxHashMap;
use recon_sim::ckpt;

use crate::cache::{ResultCache, DEFAULT_CAPACITY};
use crate::chaos::{garbage_bytes, FaultPlan, FaultSite, ResponseFault};
use crate::http::{error_body, Front, Reply, Request, Service};
use crate::job::{self, CkptPlan, JobError, JobOutput, JobSpec};
use crate::json::{escape, parse, Json};
use crate::metrics::Metrics;
use crate::queue::{lock_ignore_poison, BoundedQueue, PushError};

/// Most specs accepted in one `POST /jobs/batch` submission.
pub const MAX_BATCH: usize = 64;

/// Server configuration (the `recon serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7090`. Port 0 binds an ephemeral
    /// port (the bound address is reported by [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity (submissions beyond it get `429`).
    pub queue_cap: usize,
    /// Connection-handler threads (connections beyond the pool and its
    /// equal-sized backlog get a quick `503`).
    pub handler_cap: usize,
    /// Per-connection read timeout: idle keep-alive connections are
    /// closed cleanly after this long; a peer stalling mid-request is
    /// dropped.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Chaos spec (`<seed>[,<site>=<permil>]...`, see
    /// [`FaultPlan::parse`]). `None` serves faithfully.
    pub chaos: Option<String>,
    /// Directory for crash-safe cache persistence. `None` keeps the
    /// cache in memory only.
    ///
    /// With a directory, `run` jobs also write resumable simulation
    /// checkpoints there: a killed server re-enqueues orphaned jobs at
    /// startup and resumes them from their last checkpoint.
    pub cache_dir: Option<PathBuf>,
    /// Simulation-checkpoint cadence for `run` jobs, in simulated
    /// cycles (only effective with `cache_dir`).
    pub checkpoint_every_cycles: u64,
    /// Cluster node identity. When set, every `/metrics` sample line
    /// carries a `node="<id>"` label so a gateway dashboard can sum
    /// gauges across nodes.
    pub node_id: Option<String>,
}

/// Default checkpoint cadence for served `run` jobs.
pub const DEFAULT_CKPT_EVERY: u64 = 250_000;

/// Checkpoints retained per running job (keep-latest-N GC).
const CKPT_KEEP: usize = 2;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7090".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_cap: 16,
            handler_cap: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            chaos: None,
            cache_dir: None,
            checkpoint_every_cycles: DEFAULT_CKPT_EVERY,
            node_id: None,
        }
    }
}

/// How `POST /shutdown` winds the service down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShutdownMode {
    /// Stop accepting work, drain the queue, answer everything queued.
    Graceful,
    /// Also raise the cancel flag and fail queued/running jobs fast.
    Abort,
}

type JobResult = Result<JobOutput, JobError>;

/// One queued unit of work (opaque outside this module; exposed only
/// so [`Shared`] can name its queue's element type).
#[derive(Clone)]
pub struct QueuedJob {
    spec: JobSpec,
    digest: u64,
    enqueued: Instant,
    reply: mpsc::Sender<JobResult>,
}

/// State shared by the accept loop, handlers, and workers.
pub struct Shared {
    /// The bounded admission queue.
    pub queue: BoundedQueue<QueuedJob>,
    /// Live counters and histograms (`GET /metrics`).
    pub metrics: Metrics,
    /// The content-addressed result cache.
    pub cache: ResultCache,
    /// The chaos plane (a quiet plan when `--chaos` is not given).
    pub chaos: FaultPlan,
    /// Checkpoint plan for `run` jobs (`Some` when `cache_dir` is set).
    pub ckpt: Option<CkptPlan>,
    /// Digests currently executing, with the reply channels of
    /// duplicate submissions that joined them (single-flight).
    inflight: Mutex<FxHashMap<u64, Vec<mpsc::Sender<JobResult>>>>,
    /// Cluster node identity (labels `/metrics` output).
    node_id: Option<String>,
    shutting_down: AtomicBool,
    cancel: Arc<AtomicBool>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue", &self.queue)
            .field("cache", &self.cache)
            .field("chaos", &self.chaos)
            .field("shutting_down", &self.shutting_down.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("spec", &self.spec)
            .field("digest", &self.digest)
            .finish()
    }
}

/// A running `recon serve` instance.
#[derive(Debug)]
pub struct Server {
    front: Front,
    shared: Arc<Shared>,
    supervisors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop, the handler pool,
    /// and the supervised worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the address or opening the cache
    /// directory; `InvalidInput` for a malformed chaos spec.
    pub fn start(config: &ServeConfig) -> io::Result<Server> {
        let chaos = match &config.chaos {
            None => FaultPlan::quiet(0),
            Some(spec) => FaultPlan::parse(spec)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        };
        let cache = match &config.cache_dir {
            None => ResultCache::new(DEFAULT_CAPACITY),
            Some(dir) => ResultCache::with_persistence(DEFAULT_CAPACITY, dir)?,
        };
        let recovery = cache.recovery();

        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_cap),
            metrics: Metrics::default(),
            cache,
            chaos,
            ckpt: config.cache_dir.as_ref().map(|dir| CkptPlan {
                dir: Some(dir.clone()),
                cadence: config.checkpoint_every_cycles.max(1),
                keep: CKPT_KEEP,
            }),
            inflight: Mutex::new(FxHashMap::default()),
            node_id: config.node_id.clone(),
            shutting_down: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
        });
        shared.metrics.cache_recovered.add(recovery.recovered);
        shared.metrics.cache_dropped_records.add(recovery.dropped);
        if recovery.recovered > 0 || recovery.dropped > 0 {
            println!(
                "cache recovery: {} entries restored, {} corrupt tail records dropped ({} bytes truncated)",
                recovery.recovered, recovery.dropped, recovery.truncated_bytes
            );
        }
        if let Some(dir) = &config.cache_dir {
            recover_orphans(&shared, dir);
        }

        let supervisors = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("recon-supervisor-{i}"))
                    .spawn(move || supervise_worker(i, &shared))
                    .expect("spawn supervisor")
            })
            .collect();

        let front = Front::start(
            "recon",
            listener,
            Arc::clone(&shared),
            config.handler_cap,
            (config.read_timeout, config.write_timeout),
        )?;
        Ok(Server {
            front,
            shared,
            supervisors,
        })
    }

    /// The actual bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Shared state, for in-process inspection in tests.
    #[must_use]
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Blocks until a `POST /shutdown` stops the service, then joins
    /// the HTTP front and every worker supervisor.
    pub fn wait(self) {
        self.front.join();
        for h in self.supervisors {
            let _ = h.join();
        }
    }
}

/// Startup orphan recovery: a killed server leaves checkpoints (but no
/// cached result) for every job that was mid-flight. Each one is
/// re-enqueued from the spec embedded in its checkpoint meta, so the
/// replacement workers resume it from its last checkpoint instead of
/// cycle zero. No job is running yet, so corrupt files are necessarily
/// torn leftovers — dropped and counted, never trusted.
fn recover_orphans(shared: &Arc<Shared>, dir: &Path) {
    let Ok(scan) = ckpt::scan(dir) else { return };
    for path in &scan.corrupt {
        if fs::remove_file(path).is_ok() {
            shared.metrics.checkpoints_dropped_corrupt.inc();
        }
    }
    // Stale atomic-write temps (a kill between write and rename) are
    // litter — no job is running yet, so all of them can go.
    if let Ok(rd) = fs::read_dir(dir) {
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "tmp") {
                let _ = fs::remove_file(&p);
            }
        }
    }
    // Completed jobs with stale checkpoints (e.g. killed between the
    // cache insert and the checkpoint cleanup).
    for (_, ck) in &scan.valid {
        if ck.meta("kind") == Some("serve-job") && shared.cache.get(ck.config_digest).is_some() {
            let _ = ckpt::delete_for_digest(dir, ck.config_digest);
        }
    }
    for (_, ck) in resumable(shared, &scan) {
        let Some(spec) = ck
            .meta("spec")
            .and_then(|s| parse(s).ok())
            .and_then(|v| JobSpec::from_json(&v).ok())
        else {
            continue;
        };
        // Queue full or closed: remaining orphans stay on disk and
        // resume when resubmitted (or at the next restart).
        if !enqueue_detached(shared, spec, ck.config_digest) {
            break;
        }
        println!(
            "resuming orphaned job {:016x} from checkpoint at cycle {}",
            ck.config_digest, ck.cycle
        );
    }
}

/// The newest checkpoint of each served job in `scan` that has no
/// cached result: the jobs a restart re-enqueues and a drain ships.
fn resumable<'s>(shared: &Shared, scan: &'s ckpt::Scan) -> Vec<&'s (PathBuf, ckpt::Checkpoint)> {
    // `scan.valid` is newest-first; the first checkpoint seen per digest
    // is the one a resume would pick.
    let mut seen = std::collections::HashSet::new();
    scan.valid
        .iter()
        .filter(|(_, ck)| {
            seen.insert(ck.config_digest)
                && ck.meta("kind") == Some("serve-job")
                && shared.cache.get(ck.config_digest).is_none()
        })
        .collect()
}

/// Queues a job and marks it in flight, under the caller's lock on the
/// in-flight table.
fn enqueue(
    shared: &Shared,
    inflight: &mut FxHashMap<u64, Vec<mpsc::Sender<JobResult>>>,
    spec: JobSpec,
    digest: u64,
    reply: mpsc::Sender<JobResult>,
) -> Result<(), PushError> {
    shared.queue.try_push(QueuedJob {
        spec,
        digest,
        enqueued: Instant::now(),
        reply,
    })?;
    inflight.insert(digest, Vec::new());
    shared.metrics.jobs_queued.inc();
    shared.metrics.jobs_inflight.inc();
    Ok(())
}

/// Re-enqueues a resumed job with a dead reply channel: no client is
/// waiting, but the in-flight entry lets a resubmission join the
/// execution, and its result lands in the cache. `false` when the job
/// is already in flight or the queue is full or closed.
fn enqueue_detached(shared: &Shared, spec: JobSpec, digest: u64) -> bool {
    let mut inflight = lock_ignore_poison(&shared.inflight);
    !inflight.contains_key(&digest)
        && enqueue(shared, &mut inflight, spec, digest, mpsc::channel().0).is_ok()
}

fn supervise_worker(index: usize, shared: &Arc<Shared>) {
    // The orphan slot: a worker that is about to take an injected panic
    // parks its job here; the replacement worker picks it up first.
    let orphan: Arc<Mutex<Option<QueuedJob>>> = Arc::new(Mutex::new(None));
    loop {
        let initial = lock_ignore_poison(&orphan).take();
        let worker = {
            let shared = Arc::clone(shared);
            let orphan = Arc::clone(&orphan);
            std::thread::Builder::new()
                .name(format!("recon-worker-{index}"))
                .spawn(move || worker_loop(&shared, &orphan, initial))
                .expect("spawn worker")
        };
        match worker.join() {
            // Clean exit: the queue closed. The supervisor's job is done.
            Ok(()) => return,
            // The worker died. Count the restart and respawn; the
            // orphaned job (if any) is recovered on the next iteration
            // and executed immune to further injected panics, so the
            // supervisor always makes progress.
            Err(_) => shared.metrics.worker_restarts.inc(),
        }
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    orphan: &Arc<Mutex<Option<QueuedJob>>>,
    initial: Option<QueuedJob>,
) {
    let mut recovered = initial;
    loop {
        let (job, immune) = match recovered.take() {
            Some(job) => (job, true),
            None => match shared.queue.pop() {
                Some(job) => (job, false),
                None => return,
            },
        };
        if !immune {
            // chaos seam: worker panic mid-job. The job is parked in
            // the orphan slot first, so the supervisor's replacement
            // worker recovers it — the client never observes the crash.
            if shared.chaos.decide(FaultSite::WorkerPanic, job.digest) {
                *lock_ignore_poison(orphan) = Some(job);
                panic!("chaos: injected worker panic");
            }
            // chaos seam: artificial job latency.
            let lat = shared.chaos.latency(job.digest);
            if !lat.is_zero() {
                std::thread::sleep(lat);
            }
        }
        run_one(shared, &job);
    }
}

/// Executes one job and notifies the submitter plus every single-flight
/// joiner. The cache insert happens **before** the in-flight entry is
/// removed, so a resubmission that finds no in-flight entry is
/// guaranteed to find the cached result instead — a retried job is
/// never double-executed.
fn run_one(shared: &Arc<Shared>, job: &QueuedJob) {
    shared.metrics.jobs_running.inc();
    let cancel = Arc::clone(&shared.cancel);
    let exec_started = Instant::now();
    let (result, ckpt_info) = catch_unwind(AssertUnwindSafe(|| {
        job::execute_ckpt(&job.spec, Some(&cancel), shared.ckpt.as_ref())
    }))
    .unwrap_or_else(|_| {
        (
            Err(JobError::Failed(
                "job panicked (worker pool intact)".to_string(),
            )),
            None,
        )
    });
    shared.metrics.jobs_running.dec();
    if let Some(info) = ckpt_info {
        shared
            .metrics
            .checkpoints_written
            .add(info.checkpoints_written);
        if info.resumed_from_cycle.is_some() {
            shared.metrics.checkpoints_resumed.inc();
        }
        shared
            .metrics
            .checkpoints_dropped_corrupt
            .add(info.dropped_corrupt);
        shared.metrics.checkpoints_gc_deleted.add(info.gc_deleted);
    }
    // chaos seam: the newest checkpoint this job left on disk is torn,
    // as if the process died mid-write — recovery (here at the next
    // resume, or at startup) must drop it without changing any response
    // byte.
    if let Some(dir) = shared.ckpt.as_ref().and_then(|p| p.dir.as_deref()) {
        if shared.chaos.decide(FaultSite::CkptTorn, job.digest) {
            tear_newest_checkpoint(dir, job.digest);
        }
    }
    shared
        .metrics
        .observe_latency(job.spec.kind, job.enqueued.elapsed().as_secs_f64());
    match &result {
        Ok(out) => {
            shared.metrics.jobs_completed.inc();
            shared.metrics.trace_ring_dropped.add(out.trace_dropped);
            shared.metrics.sim_instructions.add(out.instructions);
            shared
                .metrics
                .sim_exec_micros
                .add(exec_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            shared
                .cache
                .insert(job.digest, Arc::new(out.payload.clone()));
        }
        Err(e) => e.counter(&shared.metrics).inc(),
    }
    notify(shared, job, &result);
}

/// Truncates the newest on-disk checkpoint of `digest` to half its
/// bytes (the chaos plane's torn-checkpoint injection).
fn tear_newest_checkpoint(dir: &Path, digest: u64) {
    let Ok(scan) = ckpt::scan(dir) else { return };
    if let Some((path, _)) = scan.latest_for(digest) {
        if let Ok(bytes) = fs::read(path) {
            let _ = fs::write(path, &bytes[..bytes.len() / 2]);
        }
    }
}

/// Removes the job's in-flight entry and fans the result out to the
/// submitter and every joiner. A failed send means that client gave up
/// (disconnected) — not an error.
fn notify(shared: &Shared, job: &QueuedJob, result: &JobResult) {
    let waiters = lock_ignore_poison(&shared.inflight)
        .remove(&job.digest)
        .unwrap_or_default();
    shared.metrics.jobs_inflight.dec();
    let _ = job.reply.send(result.clone());
    for w in waiters {
        let _ = w.send(result.clone());
    }
}

/// The body of a JSON request, or the `400 <kind>` reply.
fn json_body(req: &Request, kind: &str) -> Result<Json, Reply> {
    let body = req
        .body_str()
        .ok_or_else(|| Reply::error(400, kind, "body is not UTF-8"))?;
    parse(body).map_err(|e| Reply::error(400, kind, &e))
}

/// Parses a `POST /jobs` submission into its spec, or the
/// `400 invalid_job` reply. The node and the gateway both validate
/// through here.
///
/// # Errors
///
/// The reply for a body that is not UTF-8, not JSON, or not a valid
/// spec.
pub fn parse_job(req: &Request) -> Result<JobSpec, Reply> {
    JobSpec::from_json(&json_body(req, "invalid_job")?)
        .map_err(|e| Reply::error(400, "invalid_job", &e))
}

/// Parses a `POST /jobs/batch` envelope — `{"jobs":[<spec>, ...]}`,
/// non-empty, at most [`MAX_BATCH`] specs — into one validation result
/// per spec, or the `400 invalid_batch` reply. The node and the gateway
/// both validate through here.
///
/// # Errors
///
/// The reply for a malformed envelope.
pub fn parse_batch(req: &Request) -> Result<Vec<Result<JobSpec, String>>, Reply> {
    let bad = |msg: &str| Reply::error(400, "invalid_batch", msg);
    let parsed = json_body(req, "invalid_batch")?;
    let jobs = parsed
        .get("jobs")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("batch must be {\"jobs\":[<spec>, ...]}"))?;
    if jobs.is_empty() {
        return Err(bad("batch is empty"));
    }
    if jobs.len() > MAX_BATCH {
        return Err(bad(&format!(
            "batch of {} exceeds the cap of {MAX_BATCH}",
            jobs.len()
        )));
    }
    Ok(jobs.iter().map(JobSpec::from_json).collect())
}

/// One entry of a `POST /jobs/batch` answer.
#[derive(Debug)]
pub struct BatchResult {
    /// The status this spec alone would have answered.
    pub status: u16,
    /// The `X-Recon-Cache` state of a `200`.
    pub cache: Option<String>,
    /// The node that answered (gateway batches only).
    pub node: Option<String>,
    /// The JSON body, embedded raw.
    pub body: String,
}

impl BatchResult {
    /// An entry with an `{"error":…,"message":…}` body.
    #[must_use]
    pub fn error(status: u16, kind: &str, message: &str) -> BatchResult {
        BatchResult {
            status,
            cache: None,
            node: None,
            body: error_body(kind, message),
        }
    }
}

/// The `200` answer to a batch: `{"results":[...]}` with one entry per
/// spec, in submission order.
pub fn batch_reply(results: impl ExactSizeIterator<Item = BatchResult>) -> Reply {
    let mut out = String::with_capacity(256 * results.len());
    out.push_str("{\"results\":[");
    for (i, r) in results.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"status\":{},", r.status);
        if let Some(c) = r.cache {
            let _ = write!(out, "\"cache\":\"{c}\",");
        }
        if let Some(n) = r.node {
            let _ = write!(out, "\"node\":\"{}\",", escape(&n));
        }
        // Payloads are themselves JSON objects, embedded raw.
        let _ = write!(out, "\"body\":{}}}", r.body);
    }
    out.push_str("]}");
    Reply::json(200, out)
}

impl Service for Shared {
    fn route(&self, req: &Request) -> Option<Reply> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Reply::json(200, "{\"status\":\"ok\"}"),
            ("GET", "/metrics") => {
                let mut body = self.metrics.render(
                    self.queue.len(),
                    self.queue.capacity(),
                    self.node_id.as_deref(),
                );
                body.push_str(&self.chaos.render_metrics());
                Reply::new(200, "text/plain; version=0.0.4", body)
            }
            ("GET", "/workloads") => Reply::json(200, job::workloads_payload()),
            ("POST", "/jobs") => handle_job(req, self),
            ("POST", "/jobs/batch") => handle_batch(req, self),
            ("POST", "/migrate") => handle_migrate(req, self),
            ("POST", "/cache") => handle_cache_put(req, self),
            ("POST", "/drain") => handle_drain(req, self),
            ("POST", "/shutdown") => handle_shutdown(req, self),
            _ => return None,
        })
    }

    fn stopping(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn overloaded(&self) -> Reply {
        self.metrics.conns_rejected.inc();
        Reply::error(503, "overloaded", "connection backlog full; retry later")
            .header("Retry-After", "1")
    }
}

/// How a submission was admitted.
enum Submit {
    /// Served from the result cache.
    CacheHit(Arc<String>),
    /// Enqueued; the receiver yields the execution's result.
    Enqueued(mpsc::Receiver<JobResult>),
    /// Joined an identical in-flight execution (single-flight).
    Joined(mpsc::Receiver<JobResult>),
    /// Refused: queue at capacity.
    Full,
    /// Refused: shutting down.
    Closed,
}

/// Admission control for one validated spec. Cache, in-flight table,
/// and enqueue are checked under one lock so a digest is never executed
/// twice concurrently, and a completed execution is always visible
/// (cache insert happens before the in-flight entry is removed).
fn submit(shared: &Shared, spec: JobSpec) -> Submit {
    let digest = spec.digest();
    let mut inflight = lock_ignore_poison(&shared.inflight);
    if let Some(hit) = shared.cache.get(digest) {
        shared.metrics.cache_hits.inc();
        return Submit::CacheHit(hit);
    }
    if let Some(waiters) = inflight.get_mut(&digest) {
        let (tx, rx) = mpsc::channel();
        waiters.push(tx);
        shared.metrics.singleflight_joined.inc();
        return Submit::Joined(rx);
    }
    let (tx, rx) = mpsc::channel();
    match enqueue(shared, &mut inflight, spec, digest, tx) {
        Ok(()) => {
            shared.metrics.cache_misses.inc();
            Submit::Enqueued(rx)
        }
        Err(PushError::Full) => {
            shared.metrics.jobs_rejected.inc();
            Submit::Full
        }
        Err(PushError::Closed) => Submit::Closed,
    }
}

/// How a submission is answered: `(status, cache state, checkpoint
/// ref, body)`, waiting for an enqueued or joined execution. The
/// checkpoint ref travels as a header (`X-Recon-Checkpoint`) rather
/// than in the body, so deadline payloads stay byte-stable across
/// retries that resume from different checkpoints.
fn answer(submitted: Submit) -> (u16, Option<&'static str>, Option<String>, String) {
    let result = match submitted {
        Submit::CacheHit(hit) => return (200, Some("hit"), None, hit.as_str().to_string()),
        Submit::Full => {
            let body = error_body("queue_full", "bounded queue at capacity; retry later");
            return (429, None, None, body);
        }
        Submit::Closed => {
            let body = error_body("shutting_down", "server is draining; not accepting jobs");
            return (503, None, None, body);
        }
        // The worker always replies (panics are caught, orphans are
        // recovered); RecvError can only mean the pool is gone
        // mid-shutdown.
        Submit::Enqueued(rx) | Submit::Joined(rx) => {
            rx.recv().unwrap_or_else(|_| Err(JobError::cancelled()))
        }
    };
    match result {
        Ok(out) => (200, Some("miss"), None, out.payload),
        Err(e) => {
            let (status, checkpoint, body) = e.answer();
            (status, None, checkpoint, body)
        }
    }
}

fn handle_job(req: &Request, shared: &Shared) -> Reply {
    let spec = match parse_job(req) {
        Ok(spec) => spec,
        Err(bad) => return bad,
    };
    let digest = spec.digest();

    // chaos seam: connection dropped after the request was read, before
    // any response byte — the submission vanishes mid-flight.
    if shared.chaos.decide(FaultSite::DropRequest, digest) {
        return Reply::raw(Vec::new());
    }
    // chaos seam: synthetic queue-saturation burst.
    let submitted = if shared.chaos.decide(FaultSite::QueueBurst, digest) {
        Submit::Full
    } else {
        submit(shared, spec)
    };
    let (status, cache, checkpoint, body) = answer(submitted);
    let mut reply = Reply::json(status, body);
    if let Some(c) = cache {
        reply = reply.header("X-Recon-Cache", c);
    }
    if let Some(c) = checkpoint {
        reply = reply.header("X-Recon-Checkpoint", c);
    }
    if status == 429 {
        reply = reply.header("Retry-After", "1");
    }
    // chaos seam: the response may be cut mid-write, truncated to a
    // header fragment, or replaced with garbage — all keyed by the job
    // digest, so the same retry sequence sees the same faults on every
    // run.
    match shared.chaos.response_fault(digest) {
        ResponseFault::None => reply,
        ResponseFault::DropMidWrite => reply.torn(|len| len / 2),
        ResponseFault::TruncatedHttp => reply.torn(|len| len.min(20)),
        ResponseFault::Garbage => Reply::raw(garbage_bytes(digest)),
    }
}

/// `POST /jobs/batch`: many specs in one request, each admitted through
/// the same cache/single-flight/queue path as `POST /jobs`, answered
/// with per-spec statuses in submission order. The batch endpoint is
/// not a chaos seam — per-job faults are injected on `/jobs`, where the
/// retry contract is per-digest.
fn handle_batch(req: &Request, shared: &Shared) -> Reply {
    let specs = match parse_batch(req) {
        Ok(specs) => specs,
        Err(bad) => return bad,
    };
    // Admit everything first (sharing the queue's capacity), then wait:
    // independent jobs execute concurrently across the worker pool
    // instead of serializing one recv at a time.
    let admitted: Vec<_> = specs
        .into_iter()
        .map(|spec| spec.map(|spec| submit(shared, spec)))
        .collect();
    batch_reply(admitted.into_iter().map(|admitted| match admitted {
        Err(e) => BatchResult::error(400, "invalid_job", &e),
        Ok(submitted) => {
            // The checkpoint ref is a header on `/jobs`; batch
            // responses are multiplexed bodies, so it is dropped.
            let (status, cache, _checkpoint, body) = answer(submitted);
            BatchResult {
                status,
                cache: cache.map(String::from),
                node: None,
                body,
            }
        }
    }))
}

/// `POST /migrate`: accepts raw RCK1 checkpoint bytes from a draining
/// peer node. The checkpoint is decoded and validated (magic, checksum,
/// an embedded `serve-job` spec whose digest matches the checkpoint's
/// own `config_digest`) — bytes from the wire are never trusted — then
/// written into this node's checkpoint directory through the same
/// atomic temp+rename path local jobs use. The job is re-enqueued
/// best-effort with a dead reply channel (exactly like startup orphan
/// recovery): even when the queue is full, the on-disk checkpoint means
/// any later submission of the digest resumes mid-run instead of
/// starting from cycle zero.
fn handle_migrate(req: &Request, shared: &Shared) -> Reply {
    let bad = |msg: &str| Reply::error(400, "invalid_migration", msg);
    let Some(dir) = shared.ckpt.as_ref().and_then(|p| p.dir.clone()) else {
        return bad("node has no checkpoint directory (--cache-dir)");
    };
    let ck = match ckpt::Checkpoint::decode(&req.body) {
        Ok(ck) => ck,
        Err(e) => return bad(&format!("checkpoint rejected: {e:?}")),
    };
    if ck.meta("kind") != Some("serve-job") {
        return bad("checkpoint does not embed a serve-job spec");
    }
    let Some(spec) = ck
        .meta("spec")
        .and_then(|s| parse(s).ok())
        .and_then(|v| JobSpec::from_json(&v).ok())
    else {
        return bad("embedded spec does not parse or validate");
    };
    if spec.digest() != ck.config_digest {
        return bad("embedded spec digest does not match checkpoint");
    }
    let digest = ck.config_digest;
    let cycle = ck.cycle;
    if let Err(e) = ckpt::write(&dir, &ck) {
        return Reply::error(500, "migration_failed", &format!("checkpoint write: {e}"));
    }
    shared.metrics.migrations_in.inc();

    // Best-effort resume, so the migrated job starts executing before
    // anyone resubmits it.
    let enqueued = shared.cache.get(digest).is_none() && enqueue_detached(shared, spec, digest);
    Reply::json(
        200,
        format!(
            "{{\"status\":\"accepted\",\"digest\":\"{digest:016x}\",\"cycle\":{cycle},\"enqueued\":{enqueued}}}"
        ),
    )
}

/// `POST /cache`: accepts a replicated result from the gateway —
/// `{"digest":"<16 hex>","payload":"<result JSON as a string>"}` — so
/// the ring successor can answer this digest from cache if the primary
/// dies. First-write-wins like every other cache insert.
fn handle_cache_put(req: &Request, shared: &Shared) -> Reply {
    let bad = |msg: &str| Reply::error(400, "invalid_replication", msg);
    let parsed = match json_body(req, "invalid_replication") {
        Ok(v) => v,
        Err(bad) => return bad,
    };
    let Some(digest) = parsed
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return bad("digest must be a hex string");
    };
    let Some(payload) = parsed.get("payload").and_then(Json::as_str) else {
        return bad("payload must be a string");
    };
    shared.cache.insert(digest, Arc::new(payload.to_string()));
    shared.metrics.replications_in.inc();
    Reply::json(
        200,
        format!("{{\"status\":\"stored\",\"digest\":\"{digest:016x}\"}}"),
    )
}

/// The body of a control request (`/drain`, `/shutdown`): `None` when
/// it is empty or not UTF-8, else its JSON or the `400 <kind>` reply.
fn control_body(req: &Request, kind: &str) -> Result<Option<Json>, Reply> {
    req.body_str()
        .filter(|b| !b.trim().is_empty())
        .map(|b| parse(b).map_err(|e| Reply::error(400, kind, &e).closing()))
        .transpose()
}

/// `POST /drain`: planned evacuation. The node stops admitting work,
/// cancels everything queued or running (cancelled runs keep their
/// newest on-disk checkpoint at the last commit boundary), waits for
/// the workers to go quiet, then — if the body names a `{"to":"addr"}`
/// target — ships the newest checkpoint of every unfinished job to that
/// peer's `/migrate` endpoint. The response reports how many jobs
/// migrated, *after* the shipping completed, so the caller knows the
/// hand-off is durable before this node exits.
fn handle_drain(req: &Request, shared: &Shared) -> Reply {
    use std::net::ToSocketAddrs as _;
    let body = match control_body(req, "invalid_drain") {
        Ok(body) => body,
        Err(bad) => return bad,
    };
    let to = match body
        .as_ref()
        .and_then(|v| v.get("to"))
        .and_then(Json::as_str)
    {
        None => None,
        Some(addr) => match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(a) => Some(a),
            None => {
                return Reply::error(
                    400,
                    "invalid_drain",
                    &format!("unresolvable target '{addr}'"),
                )
                .closing();
            }
        },
    };

    // Stop admissions, cancel queued + running work, let the workers
    // wind down. Cancelled clients get 503 (no Retry-After) and their
    // retries will be refused here and rerouted by the gateway.
    shared.shutting_down.store(true, Ordering::SeqCst);
    shared.cancel.store(true, Ordering::SeqCst);
    shared.queue.close();
    let deadline = Instant::now() + Duration::from_secs(60);
    while (shared.metrics.jobs_running.get() > 0 || !shared.queue.is_empty())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Settle: the last worker decrements jobs_running before its final
    // bookkeeping (cache insert, notify) finishes.
    std::thread::sleep(Duration::from_millis(50));

    let mut migrated = 0u64;
    let mut failed = 0u64;
    if let (Some(to_addr), Some(dir)) = (to, shared.ckpt.as_ref().and_then(|p| p.dir.clone())) {
        if let Ok(scan) = ckpt::scan(&dir) {
            for (path, ck) in resumable(shared, &scan) {
                let shipped = fs::read(path).ok().and_then(|bytes| {
                    crate::client::request_bytes(
                        to_addr,
                        "POST",
                        "/migrate",
                        "application/octet-stream",
                        &bytes,
                    )
                    .ok()
                });
                match shipped {
                    Some(resp) if resp.status == 200 => {
                        shared.metrics.migrations_out.inc();
                        migrated += 1;
                        println!(
                            "drained job {:016x} (checkpoint at cycle {}) to {to_addr}",
                            ck.config_digest, ck.cycle
                        );
                    }
                    _ => failed += 1,
                }
            }
        }
    }
    Reply::json(
        200,
        format!("{{\"status\":\"drained\",\"migrated\":{migrated},\"failed\":{failed}}}"),
    )
    .closing()
}

/// `POST /shutdown`: stops admissions and closes the queue so the
/// workers drain the backlog and exit (`{"mode":"abort"}` also cancels
/// queued and running jobs). The reply reports the backlog as found.
fn handle_shutdown(req: &Request, shared: &Shared) -> Reply {
    let mode = match control_body(req, "invalid_shutdown") {
        Err(bad) => return bad,
        Ok(body) => match body
            .as_ref()
            .and_then(|v| v.get("mode"))
            .and_then(Json::as_str)
        {
            None | Some("graceful") => ShutdownMode::Graceful,
            Some("abort") => ShutdownMode::Abort,
            Some(other) => {
                return Reply::error(400, "invalid_shutdown", &format!("unknown mode '{other}'"))
                    .closing();
            }
        },
    };
    let reply = Reply::json(
        200,
        format!(
            "{{\"status\":\"shutting_down\",\"mode\":\"{}\",\"queued\":{}}}",
            if mode == ShutdownMode::Abort {
                "abort"
            } else {
                "graceful"
            },
            shared.queue.len()
        ),
    )
    .closing();

    shared.shutting_down.store(true, Ordering::SeqCst);
    if mode == ShutdownMode::Abort {
        shared.cancel.store(true, Ordering::SeqCst);
        for job in shared.queue.drain() {
            let cancelled = JobError::cancelled();
            cancelled.counter(&shared.metrics).inc();
            notify(shared, &job, &Err(cancelled));
        }
    }
    // Close the queue: workers drain the (graceful) backlog, then exit.
    shared.queue.close();
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_sim::{AuditReport, SimError, SystemResult};

    /// What `POST /jobs` answers once an execution has ended in
    /// `result` (`None`: the worker pool went away without replying).
    fn answered(result: Option<JobResult>) -> (u16, Option<&'static str>, Option<String>, String) {
        let (tx, rx) = mpsc::channel();
        if let Some(result) = result {
            tx.send(result).expect("receiver alive");
        }
        drop(tx);
        answer(Submit::Enqueued(rx))
    }

    fn partial() -> Box<SystemResult> {
        Box::new(SystemResult {
            completed: false,
            cycles: 4_096,
            cores: Vec::new(),
            mem: recon_mem::MemStats::default(),
        })
    }

    /// Each stop built from a constructed simulator error at the job
    /// layer (violations and cancels cannot be provoked cleanly over
    /// HTTP), a pool gone without replying, and the two failures:
    /// `(status, cache, checkpoint header, body)` each. Only a deadline
    /// carries its checkpoint ref.
    #[test]
    fn constructed_stops_answer_byte_stable() {
        let spec = JobSpec::from_json(
            &parse(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap(),
        )
        .unwrap();
        let ckpt = || Some("00000000000000aa-00000000000000001000.rck".to_string());
        let stop = |e: SimError| Some(Err(job::deadline_error(&spec, e, ckpt())));
        let partial_json = r#""partial":{"completed":false,"cycles":4096,"committed":0,"ipc":0.0000,"tainted_loads":0,"reveals_set":0,"revealed_loads":0,"l1_hit_rate":0.0000,"trace_dropped":0}}"#;
        let cancelled = r#"{"error":"cancelled","message":"job cancelled by shutdown"}"#;
        let cases = [
            (
                stop(SimError::DeadlineExceeded {
                    partial: partial(),
                    reason: recon_sim::DeadlineReason::MaxCycles,
                }),
                (
                    408,
                    ckpt(),
                    format!(
                        r#"{{"error":"deadline_exceeded","kind":"run","reason":"max_cycles",{partial_json}"#
                    ),
                ),
            ),
            (
                stop(SimError::Stalled {
                    partial: partial(),
                    report: Box::new(recon_sim::StallReport {
                        cycle: 4_096,
                        window: 1_000,
                        cores: Vec::new(),
                    }),
                }),
                (
                    500,
                    None,
                    format!(
                        r#"{{"error":"stalled","kind":"run","summary":"liveness stall: no commit on any core for 1000 cycles (at cycle 4096)","report":"LIVENESS STALL at cycle 4096: no instruction committed on any core for 1000 cycles\n",{partial_json}"#
                    ),
                ),
            ),
            (
                stop(SimError::InvariantViolated {
                    partial: partial(),
                    report: Box::new(AuditReport {
                        cycle: 4_096,
                        cadence: 1_024,
                        violations: Vec::new(),
                    }),
                }),
                (
                    500,
                    None,
                    format!(
                        r#"{{"error":"invariant_violated","kind":"run","summary":"invariant violated at cycle 4096","report":"INVARIANT VIOLATION at cycle 4096 (0 violation(s), audit cadence 1024):\n",{partial_json}"#
                    ),
                ),
            ),
            (
                stop(SimError::Cancelled { partial: partial() }),
                (503, None, cancelled.to_string()),
            ),
            (None, (503, None, cancelled.to_string())),
            (
                Some(Err(JobError::Invalid("bad spec".into()))),
                (
                    400,
                    None,
                    r#"{"error":"invalid_job","message":"bad spec"}"#.to_string(),
                ),
            ),
            (
                Some(Err(JobError::Failed("boom".into()))),
                (
                    500,
                    None,
                    r#"{"error":"job_failed","message":"boom"}"#.to_string(),
                ),
            ),
        ];
        for (result, (status, checkpoint, body)) in cases {
            assert_eq!(answered(result), (status, None, checkpoint, body));
        }
    }

    /// Each outcome counts in its own `/metrics` counter, and in no
    /// other.
    #[test]
    fn each_outcome_counts_in_its_own_counter() {
        let spec = JobSpec::from_json(
            &parse(r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt"}"#).unwrap(),
        )
        .unwrap();
        let stop = |e: SimError| job::deadline_error(&spec, e, None);
        let cases = [
            (
                stop(SimError::DeadlineExceeded {
                    partial: partial(),
                    reason: recon_sim::DeadlineReason::Fuel,
                }),
                "recon_jobs_deadline_exceeded_total",
            ),
            (
                stop(SimError::Stalled {
                    partial: partial(),
                    report: Box::new(recon_sim::StallReport {
                        cycle: 1,
                        window: 1,
                        cores: Vec::new(),
                    }),
                }),
                "recon_stalls_detected_total",
            ),
            (
                stop(SimError::InvariantViolated {
                    partial: partial(),
                    report: Box::new(AuditReport {
                        cycle: 1,
                        cadence: 1,
                        violations: Vec::new(),
                    }),
                }),
                "recon_audit_violations_total",
            ),
            (
                stop(SimError::Cancelled { partial: partial() }),
                "recon_jobs_cancelled_total",
            ),
            (JobError::cancelled(), "recon_jobs_cancelled_total"),
            (JobError::Invalid("x".into()), "recon_jobs_failed_total"),
            (JobError::Failed("x".into()), "recon_jobs_failed_total"),
        ];
        for (e, counter) in cases {
            let m = Metrics::default();
            e.counter(&m).inc();
            let counted: Vec<_> = m
                .render(0, 1, None)
                .lines()
                .filter(|l| l.ends_with("_total 1"))
                .map(String::from)
                .collect();
            assert_eq!(counted, [format!("{counter} 1")], "{e:?}");
        }
    }
}
