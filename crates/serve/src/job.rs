//! Service workloads: parsing, content-addressing, and execution.
//!
//! Every entry point the CLI exposes one-shot — `run`, `matrix`,
//! `analyze`, and `verify` cells — is available as a *job*: a validated
//! [`JobSpec`] parsed from a JSON submission, identified by the FxHash
//! digest of its canonical form (the result-cache key), and executed
//! under a [`Budget`] so deadlines and cancellation reach all the way
//! into the core's commit loop.
//!
//! Execution is deterministic: [`execute_ckpt`] renders the same JSON
//! payload for the same spec under the same checkpoint plan, so a
//! node's served bytes are identical to a direct in-process run of the
//! job under that node's plan, the property the storms assert response
//! by response. The bytes are not a function of the spec alone: a node
//! started with `--cache-dir` drains and snapshots `run` jobs at its
//! checkpoint cadence, and drains perturb the statistics, but neither
//! the cadence nor the directory is in the spec digest that keys the
//! result cache and the gateway's `POST /cache` replication.

use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use recon_isa::hash::FxHasher;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::ckpt::{self, CkptContext, CkptRunInfo};
use recon_sim::{Budget, DeadlineReason, Experiment, SimError, System, SystemResult};
use recon_workloads::{benchmarks, find, resolve, Benchmark, Scale, Suite};

use crate::http::error_body;
use crate::json::{escape, Json};
use crate::metrics::{Counter, Metrics};

/// How a job execution should checkpoint.
///
/// With `dir: Some(..)`, `run` jobs persist crash-safe checkpoints
/// there (resumable after a server kill). With `dir: None` the run
/// still *drains and snapshots* at the cadence — same timing, no disk —
/// which is how an expected-payload computation stays byte-identical to
/// a persisted execution of the same spec.
#[derive(Clone, Debug)]
pub struct CkptPlan {
    /// Checkpoint directory; `None` for cadence-only (no persistence).
    pub dir: Option<PathBuf>,
    /// Checkpoint cadence in simulated cycles.
    pub cadence: u64,
    /// Checkpoints retained per job digest while it runs.
    pub keep: usize,
}

/// The workload kinds the service accepts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JobKind {
    /// One benchmark under one scheme (the `recon run` path).
    #[default]
    Run,
    /// One benchmark under all five scheme configurations.
    Matrix,
    /// Clueless-style leakage analysis (the `recon analyze` path).
    Analyze,
    /// One two-trace verifier matrix cell (the `recon verify` path).
    Verify,
    /// Assemble submitted `recon-asm` source text and run it under one
    /// scheme (the `recon asm --run` path).
    Asm,
}

impl JobKind {
    /// All kinds, in metric/label order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Run,
        JobKind::Matrix,
        JobKind::Analyze,
        JobKind::Verify,
        JobKind::Asm,
    ];

    /// Stable label (metric dimension and JSON `kind` value).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Matrix => "matrix",
            JobKind::Analyze => "analyze",
            JobKind::Verify => "verify",
            JobKind::Asm => "asm",
        }
    }

    /// Index into per-kind metric arrays.
    #[must_use]
    pub fn index(self) -> usize {
        JobKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("ALL lists every kind")
    }

    fn from_str(s: &str) -> Option<Self> {
        JobKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// A validated job submission.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct JobSpec {
    /// What to execute.
    pub kind: JobKind,
    /// Suite name (`run`/`matrix`/`analyze`), lowercased.
    pub suite: Option<String>,
    /// Benchmark name (`run`/`matrix`/`analyze`).
    pub bench: Option<String>,
    /// Scheme (`run`/`verify`).
    pub scheme: Option<SecureConfig>,
    /// Gadget name (`verify`).
    pub gadget: Option<String>,
    /// Per-core committed-instruction deadline (`run`/`matrix`).
    pub fuel: Option<u64>,
    /// Cycle deadline override (`run`/`matrix`).
    pub max_cycles: Option<u64>,
    /// Liveness-watchdog window override in cycles (`run`/`matrix`/
    /// `verify`/`asm`); unset keeps the simulator's default window.
    pub watchdog_cycles: Option<u64>,
    /// Functional warmup: fast-forward this many instructions per core
    /// before detailed timing (`run`/`matrix`/`verify`). Changes every
    /// result, so it is folded into the content-addressed digest.
    pub fast_forward: Option<u64>,
    /// Invariant-auditor sweep cadence in cycles (`run`/`matrix`/
    /// `verify`/`asm`); unset leaves the auditor off. A violation maps
    /// to HTTP 500 with the forensic report in the payload.
    pub audit_every_cycles: Option<u64>,
    /// Enable pipeline tracing for the run (`run` only) — exercises the
    /// trace ring and reports its drop count.
    pub trace: bool,
    /// Assembly source text (`asm` only), case-preserved. The canonical
    /// form folds in its FxHash rather than the full text, so the digest
    /// stays short while still keying on every byte of the program.
    pub source: Option<String>,
}

/// Why a job could not produce a result.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The submission was malformed or named unknown entities (HTTP 400).
    Invalid(String),
    /// The job stopped before completing, for the reason its label
    /// names: a deadline (HTTP 408), a stall or an invariant violation
    /// (HTTP 500), or a cancel by an aborting shutdown (HTTP 503).
    Stopped {
        /// The stop's [`SimError::label`], the body's `error` value.
        label: &'static str,
        /// The JSON body to serve: the partial statistics, with the
        /// forensic report of a stall or a violation.
        payload: String,
        /// File name of the newest checkpoint a deadline left behind (a
        /// resumable ref, served as the `X-Recon-Checkpoint` header —
        /// kept out of the body so deadline payloads stay byte-stable
        /// across retries that resume from different checkpoints).
        checkpoint: Option<String>,
    },
    /// The job panicked or hit an internal error (HTTP 500).
    Failed(String),
}

impl JobError {
    /// A job stopped before completing: its body is
    /// `{"error":<label>,"kind":<kind>,<what>,"partial":{<partial>}}`.
    fn stopped(
        label: &'static str,
        kind: JobKind,
        what: &str,
        partial: &str,
        checkpoint: Option<String>,
    ) -> JobError {
        JobError::Stopped {
            label,
            payload: format!(
                "{{\"error\":\"{label}\",\"kind\":\"{}\",{what},\"partial\":{{{partial}}}}}",
                kind.label()
            ),
            checkpoint,
        }
    }

    /// A job cancelled by an aborting shutdown, or left unanswered by a
    /// worker pool that is gone.
    pub(crate) fn cancelled() -> JobError {
        JobError::Stopped {
            label: SimError::CANCELLED,
            payload: error_body(SimError::CANCELLED, "job cancelled by shutdown"),
            checkpoint: None,
        }
    }

    /// Each outcome's HTTP status and `/metrics` counter: the one table a
    /// new stop reason adds an arm to.
    fn outcome(&self) -> (u16, fn(&Metrics) -> &Counter) {
        match self {
            JobError::Invalid(_) => (400, |m| &m.jobs_failed),
            JobError::Failed(_) => (500, |m| &m.jobs_failed),
            JobError::Stopped { label, .. } => match *label {
                SimError::DEADLINE_EXCEEDED => (408, |m| &m.jobs_deadline),
                SimError::CANCELLED => (503, |m| &m.jobs_cancelled),
                SimError::STALLED => (500, |m| &m.stalls_detected),
                _ => (500, |m| &m.audit_violations),
            },
        }
    }

    /// How the submission is answered: `(status, X-Recon-Checkpoint
    /// header, body)`.
    #[must_use]
    pub fn answer(self) -> (u16, Option<String>, String) {
        let status = self.outcome().0;
        match self {
            JobError::Invalid(msg) => (status, None, error_body("invalid_job", &msg)),
            JobError::Failed(msg) => (status, None, error_body("job_failed", &msg)),
            JobError::Stopped {
                payload,
                checkpoint,
                ..
            } => (status, checkpoint, payload),
        }
    }

    /// The `/metrics` counter the outcome is counted in.
    #[must_use]
    pub fn counter<'m>(&self, m: &'m Metrics) -> &'m Counter {
        (self.outcome().1)(m)
    }
}

/// A successful job execution.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The deterministic JSON payload to serve (and cache).
    pub payload: String,
    /// Pipeline-trace events the run's ring buffers dropped (0 unless
    /// the spec enabled tracing) — exported via `/metrics`.
    pub trace_dropped: u64,
    /// Instructions the job simulated (committed for timing runs,
    /// functional steps for analysis) — feeds the server-wide MIPS
    /// gauge on `/metrics`.
    pub instructions: u64,
}

/// One run knob: its JSON key, its field, and the [`Budget`] field it
/// sets.
type Knob<'a> = (
    &'static str,
    &'a mut Option<u64>,
    fn(&mut Budget) -> &mut Option<u64>,
);

impl JobSpec {
    /// The run knobs, in submission-key order: the one list the
    /// unknown-key check, parsing, validation, [`JobSpec::to_json`] and
    /// the run budget walk. [`JobSpec::canonical`] spells them apart,
    /// since it is a digest format.
    fn knobs_mut(&mut self) -> [Knob<'_>; 5] {
        [
            ("fuel", &mut self.fuel, |b| &mut b.fuel),
            ("max_cycles", &mut self.max_cycles, |b| &mut b.max_cycles),
            ("watchdog_cycles", &mut self.watchdog_cycles, |b| {
                &mut b.watchdog_cycles
            }),
            ("fast_forward", &mut self.fast_forward, |b| {
                &mut b.fast_forward
            }),
            ("audit_every_cycles", &mut self.audit_every_cycles, |b| {
                &mut b.audit_every_cycles
            }),
        ]
    }

    /// The keys a submission may carry, for the unknown-key check.
    fn known_keys() -> Vec<&'static str> {
        let mut keys = vec!["kind", "suite", "bench", "scheme", "gadget"];
        keys.extend(JobSpec::default().knobs_mut().map(|(key, ..)| key));
        keys.extend(["trace", "source"]);
        keys
    }

    /// Validates a parsed JSON submission into a spec.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field and the
    /// accepted values — unknown suites/benchmarks/schemes/gadgets and
    /// unknown keys are rejected here, before anything is enqueued.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(_) = v else {
            return Err("job submission must be a JSON object".into());
        };
        let known = JobSpec::known_keys();
        if let Some(key) = v.keys().into_iter().find(|key| !known.contains(key)) {
            return Err(format!(
                "unknown field '{key}' (accepted: {})",
                known.join(", ")
            ));
        }
        let kinds = || JobKind::ALL.map(JobKind::label).join("|");
        let kind_str = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing 'kind' ({})", kinds()))?;
        let kind = JobKind::from_str(kind_str)
            .ok_or_else(|| format!("unknown kind '{kind_str}' ({})", kinds()))?;

        let str_field = |name: &str| -> Result<Option<String>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.to_ascii_lowercase())),
                Some(_) => Err(format!("'{name}' must be a string")),
            }
        };
        let num_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => n
                    .as_u64()
                    .filter(|&x| x >= 1)
                    .map(Some)
                    .ok_or_else(|| format!("'{name}' must be a positive integer")),
            }
        };

        let mut spec = JobSpec {
            kind,
            suite: str_field("suite")?,
            bench: str_field("bench")?,
            gadget: str_field("gadget")?,
            ..JobSpec::default()
        };
        spec.scheme = match v.get("scheme") {
            None | Some(Json::Null) => None,
            Some(s) => {
                let name = s.as_str().ok_or("'scheme' must be a string")?;
                Some(SecureConfig::parse(name).ok_or_else(|| {
                    format!("unknown scheme '{name}' ({})", SecureConfig::PARSE_NAMES)
                })?)
            }
        };
        for (key, field, _) in spec.knobs_mut() {
            *field = num_field(key)?;
        }
        spec.trace = match v.get("trace") {
            None | Some(Json::Null) => false,
            Some(b) => b.as_bool().ok_or("'trace' must be a boolean")?,
        };
        // Unlike suite/bench names, assembly source is case-sensitive.
        spec.source = match v.get("source") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("'source' must be a string".into()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec's fields against its kind, and replaces a
    /// benchmark name given in any case with its canonical spelling.
    fn validate(&mut self) -> Result<(), String> {
        let needs_bench = matches!(self.kind, JobKind::Run | JobKind::Matrix | JobKind::Analyze);
        if needs_bench {
            let suite_name = self
                .suite
                .as_deref()
                .ok_or_else(|| format!("missing 'suite' ({})", Suite::choices()))?;
            let suite = Suite::parse(suite_name)?;
            let bench = self.bench.as_deref().ok_or("missing 'bench'")?;
            self.bench = Some(resolve(suite, bench)?.to_string());
            if self.gadget.is_some() {
                return Err(format!(
                    "'gadget' is not accepted for kind '{}'",
                    self.kind.label()
                ));
            }
            if self.source.is_some() {
                return Err("'source' is only accepted for kind 'asm'".into());
            }
        }
        match self.kind {
            JobKind::Run => {
                if self.scheme.is_none() {
                    return Err(format!("missing 'scheme' ({})", SecureConfig::PARSE_NAMES));
                }
            }
            JobKind::Matrix => {
                if self.scheme.is_some() {
                    return Err(
                        "'scheme' is not accepted for kind 'matrix' (it runs all five)".into(),
                    );
                }
            }
            JobKind::Analyze => {
                // Of the knobs only fuel, the analyzer's step cap, applies.
                let refused = self.scheme.is_some() || self.trace;
                let [(cap_key, ..), rest @ ..] = self.knobs_mut();
                if refused || rest.iter().any(|(_, v, _)| v.is_some()) {
                    let rest: Vec<_> = rest.iter().map(|(key, ..)| format!("'{key}'")).collect();
                    return Err(format!(
                        "'analyze' accepts 'suite', 'bench', and '{cap_key}' (it is scheme-independent and already functional, so {}/'trace' do not apply)",
                        rest.join("/")
                    ));
                }
            }
            JobKind::Verify => {
                let gadget = self
                    .gadget
                    .as_deref()
                    .ok_or_else(|| format!("missing 'gadget' ({})", gadget_names().join("|")))?;
                if recon_verify::gadget::find(gadget).is_none() {
                    return Err(format!(
                        "unknown gadget '{gadget}' ({})",
                        gadget_names().join("|")
                    ));
                }
                if self.scheme.is_none() {
                    return Err(format!("missing 'scheme' ({})", SecureConfig::PARSE_NAMES));
                }
                if self.suite.is_some() || self.bench.is_some() || self.source.is_some() {
                    return Err(
                        "'verify' accepts 'gadget' and 'scheme', not 'suite'/'bench'/'source'"
                            .into(),
                    );
                }
                let [.., (warmup_key, warmup, _), _] = self.knobs_mut();
                if warmup.is_some() {
                    return Err(format!(
                        "'{warmup_key}' is not accepted for kind 'verify' (functional \
                         warmup would skip the gadget prefix the two-trace check \
                         exists to observe)"
                    ));
                }
            }
            JobKind::Asm => {
                let src = self
                    .source
                    .as_deref()
                    .ok_or("missing 'source' (assembly text)")?;
                // Reject unassemblable programs at admission, with the
                // assembler's line:column diagnostic, before anything
                // is enqueued.
                recon_asm::assemble(src).map_err(|e| format!("source does not assemble: {e}"))?;
                if self.scheme.is_none() {
                    return Err(format!("missing 'scheme' ({})", SecureConfig::PARSE_NAMES));
                }
                if self.suite.is_some() || self.bench.is_some() || self.gadget.is_some() {
                    return Err(
                        "'asm' accepts 'source' and 'scheme', not 'suite'/'bench'/'gadget'".into(),
                    );
                }
            }
        }
        // Analyze refuses a trace among its other refusals above.
        if self.trace && self.kind != JobKind::Run {
            return Err("'trace' is only accepted for kind 'run'".into());
        }
        Ok(())
    }

    /// The canonical form the digest is computed over. Includes the
    /// workload scale so results cached under one `RECON_SCALE` are
    /// never served under another. Assembly source is folded in as its
    /// FxHash (`src=`), keeping the canonical string short while keying
    /// on every byte of the program text.
    #[must_use]
    pub fn canonical(&self) -> String {
        let opt = |o: &Option<String>| o.clone().unwrap_or_else(|| "-".into());
        let num = |o: &Option<u64>| o.map_or_else(|| "-".into(), |n| n.to_string());
        let scale = Scale::from_env().label();
        let src = self.source.as_deref().map_or_else(
            || "-".into(),
            |s| {
                let mut h = FxHasher::default();
                h.write(s.as_bytes());
                format!("{:#018x}", h.finish())
            },
        );
        let mut s = format!(
            "v4|{}|suite={}|bench={}|scheme={}|gadget={}|fuel={}|max_cycles={}|wd={}|ff={}|trace={}|src={src}|scale={scale}",
            self.kind.label(),
            opt(&self.suite),
            opt(&self.bench),
            self.scheme.map_or_else(|| "-".into(), |s| s.label()),
            opt(&self.gadget),
            num(&self.fuel),
            num(&self.max_cycles),
            num(&self.watchdog_cycles),
            num(&self.fast_forward),
            u8::from(self.trace),
        );
        // Appended only when set, so unaudited specs keep the digests
        // (and cached results) they had before the field existed. An
        // audit cadence can turn a completed run into a 500, so audited
        // and unaudited jobs must never share a cache key.
        if let Some(n) = self.audit_every_cycles {
            use std::fmt::Write as _;
            let _ = write!(s, "|audit={n}");
        }
        s
    }

    /// The content address of this job: the FxHash digest of its
    /// canonical form, keying the result cache.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(self.canonical().as_bytes());
        h.finish()
    }

    /// Renders the spec back to a submission-shaped JSON object — what
    /// a checkpoint's meta stores so an orphaned job can be re-parsed
    /// (via [`JobSpec::from_json`]) and re-enqueued after a restart.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("{{\"kind\":\"{}\"", self.kind.label());
        for (key, v) in [
            ("suite", &self.suite),
            ("bench", &self.bench),
            ("gadget", &self.gadget),
        ] {
            if let Some(v) = v {
                let _ = write!(s, ",\"{key}\":\"{}\"", escape(v));
            }
        }
        if let Some(scheme) = self.scheme {
            let _ = write!(s, ",\"scheme\":\"{}\"", escape(&scheme.label()));
        }
        for (key, v, _) in self.clone().knobs_mut() {
            if let Some(v) = v {
                let _ = write!(s, ",\"{key}\":{v}");
            }
        }
        if self.trace {
            s.push_str(",\"trace\":true");
        }
        if let Some(src) = &self.source {
            let _ = write!(s, ",\"source\":\"{}\"", escape(src));
        }
        s.push('}');
        s
    }
}

/// Valid gadget names, for error messages.
fn gadget_names() -> Vec<&'static str> {
    recon_verify::gadget::all_with_embedded()
        .iter()
        .map(|g| g.name)
        .collect()
}

/// The experiment parameters `recon run`/`recon suite` use for a suite
/// (multicore memory geometry for PARSEC).
#[must_use]
pub fn experiment_for(suite: Suite) -> Experiment {
    let mem = if suite == Suite::Parsec {
        MemConfig::scaled_multicore()
    } else {
        MemConfig::scaled()
    };
    Experiment {
        mem,
        ..Experiment::default()
    }
}

/// The `GET /workloads` payload: every suite's benchmarks with thread
/// counts and static instruction counts, generated once per process
/// (names and static sizes are scale-invariant).
#[must_use]
pub fn workloads_payload() -> &'static str {
    use std::fmt::Write as _;
    use std::sync::OnceLock;
    static BODY: OnceLock<String> = OnceLock::new();
    BODY.get_or_init(|| {
        let mut s = String::from("{\"suites\":[");
        for (i, suite) in Suite::ALL.into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"suite\":\"{}\",\"benchmarks\":[", suite.name());
            for (j, b) in benchmarks(suite, Scale::Quick).iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"threads\":{},\"static_instructions\":{}}}",
                    escape(b.name),
                    b.workload.num_threads(),
                    b.workload.program.code.len(),
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    })
}

/// Resolves a validated spec's benchmark, memoized per process.
///
/// [`find`] builds only the named benchmark, but that is still
/// milliseconds of program and image generation, more than a small
/// job's cache hit should cost. Repeat lookups share one immutable
/// [`Benchmark`] behind an [`Arc`]. The scale factor is part of the
/// key, so a mid-process `RECON_SCALE` flip cannot serve stale
/// workloads.
fn lookup(spec: &JobSpec) -> (Suite, Arc<Benchmark>) {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Memo = Mutex<HashMap<(Suite, String, u64), Arc<Benchmark>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();

    let suite = Suite::parse(spec.suite.as_deref().expect("validated")).expect("validated");
    let name = spec.bench.as_deref().expect("validated");
    let scale = Scale::from_env();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (suite, name.to_string(), scale.factor());
    if let Some(bench) = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
    {
        return (suite, Arc::clone(bench));
    }
    let bench = Arc::new(find(suite, name, scale).expect("validated"));
    memo.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(key, Arc::clone(&bench));
    (suite, bench)
}

fn render_system_result(out: &mut String, r: &SystemResult) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\"completed\":{},\"cycles\":{},\"committed\":{},\"ipc\":{:.4},\"tainted_loads\":{},\"reveals_set\":{},\"revealed_loads\":{},\"l1_hit_rate\":{:.4},\"trace_dropped\":{}",
        r.completed,
        r.cycles,
        r.committed(),
        r.ipc(),
        r.guarded_loads(),
        r.mem.reveals_set,
        r.mem.revealed_loads,
        r.mem.l1_hit_rate(),
        r.trace_dropped(),
    );
}

/// The answer to a simulation that stopped before completing. Only a
/// deadline keeps `checkpoint`, the newest checkpoint the run left
/// behind; a cancel answers without its partial statistics.
pub(crate) fn deadline_error(spec: &JobSpec, e: SimError, checkpoint: Option<String>) -> JobError {
    let (what, checkpoint) = if let SimError::DeadlineExceeded { reason, .. } = &e {
        (format!("\"reason\":\"{reason}\""), checkpoint)
    } else if let Some((summary, report)) = e.diagnosis() {
        let what = format!(
            "\"summary\":\"{}\",\"report\":\"{}\"",
            escape(&summary),
            escape(&report)
        );
        (what, None)
    } else {
        return JobError::cancelled();
    };
    let mut partial = String::new();
    render_system_result(&mut partial, e.partial());
    JobError::stopped(e.label(), spec.kind, &what, &partial, checkpoint)
}

/// Executes a validated job to its deterministic JSON payload.
///
/// `cancel` is the server's abort flag, polled cooperatively inside the
/// simulation loop.
///
/// # Errors
///
/// [`JobError::Stopped`] (with partial stats) when the spec's fuel or
/// cycle budget fires, the watchdog or the auditor stops the run, or
/// `cancel` is raised; [`JobError::Invalid`]/[`JobError::Failed`] for
/// semantic errors that only surface at execution time.
pub fn execute(spec: &JobSpec, cancel: Option<&Arc<AtomicBool>>) -> Result<JobOutput, JobError> {
    execute_ckpt(spec, cancel, None).0
}

/// [`execute`] under a checkpoint plan. Only `run` jobs checkpoint (the
/// long-simulation kind); the other kinds ignore the plan. Returns the
/// persistence activity alongside the result so the server can export
/// it via `/metrics`.
pub fn execute_ckpt(
    spec: &JobSpec,
    cancel: Option<&Arc<AtomicBool>>,
    plan: Option<&CkptPlan>,
) -> (Result<JobOutput, JobError>, Option<CkptRunInfo>) {
    let mut budget = Budget {
        cancel: cancel.map(Arc::clone),
        ..Budget::default()
    };
    for (_, v, field) in spec.clone().knobs_mut() {
        *field(&mut budget) = *v;
    }
    match spec.kind {
        JobKind::Run => execute_run(spec, &budget, plan),
        JobKind::Matrix => (execute_matrix(spec, &budget), None),
        JobKind::Analyze => (execute_analyze(spec), None),
        JobKind::Verify => (execute_verify(spec, &budget), None),
        JobKind::Asm => (execute_asm(spec, &budget), None),
    }
}

fn run_payload(spec: &JobSpec, bench: &str, scheme: SecureConfig, r: &SystemResult) -> JobOutput {
    let mut payload = format!(
        "{{\"kind\":\"run\",\"suite\":\"{}\",\"bench\":\"{}\",\"scheme\":\"{}\",",
        escape(spec.suite.as_deref().expect("validated")),
        escape(bench),
        escape(&scheme.label()),
    );
    render_system_result(&mut payload, r);
    payload.push('}');
    JobOutput {
        payload,
        trace_dropped: r.trace_dropped(),
        instructions: r.committed(),
    }
}

fn execute_run(
    spec: &JobSpec,
    budget: &Budget,
    plan: Option<&CkptPlan>,
) -> (Result<JobOutput, JobError>, Option<CkptRunInfo>) {
    let (suite, b) = lookup(spec);
    let scheme = spec.scheme.expect("validated");
    let exp = experiment_for(suite);

    // Persisted path: crash-safe checkpoints under the plan's dir,
    // resumable across server restarts. Trace-enabled jobs fall through
    // to the cadence-only path (the trace ring hook predates the run).
    if let Some(plan) = plan {
        if let Some(dir) = plan.dir.as_ref().filter(|_| !spec.trace) {
            let ctx = CkptContext {
                dir: dir.clone(),
                cadence: plan.cadence,
                keep: plan.keep,
            };
            let meta = vec![
                ("kind".to_string(), "serve-job".to_string()),
                ("spec".to_string(), spec.to_json()),
            ];
            let (r, info) = ckpt::run_with_checkpoints(
                &exp,
                &b.workload,
                scheme,
                budget,
                &ctx,
                &meta,
                spec.digest(),
            );
            let out = match r {
                Ok(r) => Ok(run_payload(spec, b.name, scheme, &r)),
                Err(e) => {
                    // The resumable ref: the newest checkpoint of this
                    // job still on disk (written by this attempt or a
                    // previous one), so retries stay byte-stable.
                    let newest = ckpt::scan(&ctx.dir)
                        .ok()
                        .and_then(|s| s.latest_for(spec.digest()).map(|(_, c)| c.cycle))
                        .map(|cycle| ckpt::file_name(spec.digest(), cycle));
                    Err(deadline_error(spec, e, newest))
                }
            };
            return (out, Some(info));
        }
    }

    let mut sys = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    if spec.trace {
        for core in sys.cores_mut() {
            core.record_trace(true);
        }
    }
    let r = match plan {
        // Cadence-only: identical drain timing to the persisted path,
        // no disk (expected-payload computations use this).
        Some(plan) => {
            let budget = Budget {
                checkpoint_every_cycles: Some(plan.cadence),
                ..budget.clone()
            };
            sys.run_budgeted_checkpointed(exp.max_cycles, &budget, |_, _| {})
        }
        None => sys.run_budgeted(exp.max_cycles, budget),
    };
    match r {
        Ok(r) => (Ok(run_payload(spec, b.name, scheme, &r)), None),
        Err(e) => (Err(deadline_error(spec, e, None)), None),
    }
}

fn execute_matrix(spec: &JobSpec, budget: &Budget) -> Result<JobOutput, JobError> {
    use std::fmt::Write as _;
    let (suite, b) = lookup(spec);
    let exp = experiment_for(suite);
    let schemes = SecureConfig::ALL;
    let mut results = Vec::with_capacity(schemes.len());
    for s in schemes {
        results.push((
            s,
            exp.try_run(&b.workload, s, budget)
                .map_err(|e| deadline_error(spec, e, None))?,
        ));
    }
    let base_ipc = results[0].1.ipc();
    let mut payload = format!(
        "{{\"kind\":\"matrix\",\"suite\":\"{}\",\"bench\":\"{}\",\"schemes\":[",
        escape(spec.suite.as_deref().expect("validated")),
        escape(b.name),
    );
    for (i, (s, r)) in results.iter().enumerate() {
        if i > 0 {
            payload.push(',');
        }
        let norm = if base_ipc == 0.0 {
            0.0
        } else {
            r.ipc() / base_ipc
        };
        let _ = write!(
            payload,
            "{{\"scheme\":\"{}\",\"normalized_ipc\":{norm:.4},",
            escape(&s.label())
        );
        render_system_result(&mut payload, r);
        payload.push('}');
    }
    payload.push_str("]}");
    let instructions = results.iter().map(|(_, r)| r.committed()).sum();
    Ok(JobOutput {
        payload,
        trace_dropped: 0,
        instructions,
    })
}

fn execute_analyze(spec: &JobSpec) -> Result<JobOutput, JobError> {
    let (_, b) = lookup(spec);
    if b.workload.num_threads() != 1 {
        return Err(JobError::Invalid(
            "leakage analysis runs on single-thread benchmarks".into(),
        ));
    }
    // The analyzer is functional, so the job's fuel budget maps directly
    // onto its committed-instruction cap.
    let default_cap = 200_000_000u64;
    let max_steps =
        usize::try_from(spec.fuel.unwrap_or(default_cap).min(default_cap)).unwrap_or(usize::MAX);
    let (r, halted) = recon_dift::analyze_program_budgeted(&b.workload.program, max_steps)
        .map_err(|e| JobError::Failed(format!("analysis failed: {e}")))?;
    if !halted {
        return Err(JobError::stopped(
            SimError::DEADLINE_EXCEEDED,
            spec.kind,
            &format!("\"reason\":\"{}\"", DeadlineReason::Fuel),
            &format!(
                "\"instructions\":{},\"touched_words\":{},\"dift_leaked\":{},\"pair_leaked\":{}",
                r.instructions, r.touched_words, r.dift_leaked, r.pair_leaked,
            ),
            None,
        ));
    }
    Ok(JobOutput {
        payload: format!(
            "{{\"kind\":\"analyze\",\"suite\":\"{}\",\"bench\":\"{}\",\"instructions\":{},\"touched_words\":{},\"dift_leaked\":{},\"pair_leaked\":{},\"dift_fraction\":{:.4},\"pair_fraction\":{:.4},\"coverage\":{:.4}}}",
            escape(spec.suite.as_deref().expect("validated")),
            escape(b.name),
            r.instructions,
            r.touched_words,
            r.dift_leaked,
            r.pair_leaked,
            r.dift_fraction(),
            r.pair_fraction(),
            r.coverage(),
        ),
        trace_dropped: 0,
        instructions: r.instructions,
    })
}

fn execute_verify(spec: &JobSpec, budget: &Budget) -> Result<JobOutput, JobError> {
    let gadget = spec.gadget.as_deref().expect("validated");
    let scheme = spec.scheme.expect("validated");
    let cell = recon_verify::run_cell_named_budgeted(gadget, scheme, budget)
        .ok_or_else(|| JobError::Invalid(format!("unknown gadget '{gadget}'")))?
        .map_err(|e| deadline_error(spec, e, None))?;
    let r = &cell.result;
    Ok(JobOutput {
        payload: format!(
            "{{\"kind\":\"verify\",\"gadget\":\"{}\",\"scheme\":\"{}\",\"verdict\":\"{}\",\"expected\":\"{}\",\"as_expected\":{},\"seq_equal\":{},\"digest_a\":\"{:#018x}\",\"digest_b\":\"{:#018x}\",\"cycles\":{}}}",
            escape(r.gadget),
            escape(&scheme.label()),
            r.verdict,
            cell.expected,
            cell.as_expected(),
            r.seq_equal,
            r.digest_a,
            r.digest_b,
            r.result_a.cycles,
        ),
        trace_dropped: 0,
        instructions: r.result_a.committed(),
    })
}

fn execute_asm(spec: &JobSpec, budget: &Budget) -> Result<JobOutput, JobError> {
    let src = spec.source.as_deref().expect("validated");
    let scheme = spec.scheme.expect("validated");
    let p = recon_asm::assemble(src)
        .map_err(|e| JobError::Invalid(format!("source does not assemble: {e}")))?;
    let workload = recon_workloads::Workload::from(p);
    let exp = if workload.num_threads() > 1 {
        experiment_for(Suite::Parsec)
    } else {
        experiment_for(Suite::Corpus)
    };
    let mut sys = System::new(&workload, exp.core, exp.mem, scheme, exp.recon);
    let r = sys
        .run_budgeted(exp.max_cycles, budget)
        .map_err(|e| deadline_error(spec, e, None))?;
    // Programs following the corpus self-check convention leave their
    // digest and status at the well-known addresses; report both so the
    // client can check correctness without a second (functional) run.
    let digest = sys.data().peek(recon_asm::corpus::DIGEST_ADDR);
    let status = sys.data().peek(recon_asm::corpus::STATUS_ADDR);
    let mut payload = format!(
        "{{\"kind\":\"asm\",\"scheme\":\"{}\",\"static_instructions\":{},\"self_check\":{{\"digest\":\"{:#018x}\",\"status\":\"{:#x}\",\"passed\":{}}},",
        escape(&scheme.label()),
        workload.program.code.len(),
        digest,
        status,
        status == recon_asm::corpus::STATUS_PASS,
    );
    render_system_result(&mut payload, &r);
    payload.push('}');
    Ok(JobOutput {
        payload,
        trace_dropped: 0,
        instructions: r.committed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn spec(body: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse(body).expect("valid json"))
    }

    #[test]
    fn parses_a_run_job() {
        let s =
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fuel":1000}"#)
                .unwrap();
        assert_eq!(s.kind, JobKind::Run);
        assert_eq!(s.fuel, Some(1000));
        assert_eq!(s.scheme, Some(SecureConfig::stt()));
    }

    #[test]
    fn rejects_bad_submissions_with_clear_messages() {
        assert!(spec(r#"{"suite":"spec2017"}"#)
            .unwrap_err()
            .contains("kind"));
        assert!(
            spec(r#"{"kind":"run","suite":"spec9","bench":"mcf","scheme":"stt"}"#)
                .unwrap_err()
                .contains("spec2017")
        );
        assert!(
            spec(r#"{"kind":"run","suite":"spec2017","bench":"nope","scheme":"stt"}"#)
                .unwrap_err()
                .contains("nope")
        );
        assert!(
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"xyz"}"#)
                .unwrap_err()
                .contains("stt+recon")
        );
        assert!(spec(r#"{"kind":"verify","gadget":"nope","scheme":"stt"}"#)
            .unwrap_err()
            .contains("spectre"));
        assert!(
            spec(r#"{"kind":"verify","gadget":"spectre-v1@quicksort","scheme":"stt"}"#).is_ok(),
            "embedded gadget names are valid verify jobs"
        );
        assert!(
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fule":1}"#)
                .unwrap_err()
                .contains("fule")
        );
        assert!(
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fuel":0}"#)
                .unwrap_err()
                .contains("positive")
        );
    }

    #[test]
    fn watchdog_cycles_parses_round_trips_and_keys_the_digest() {
        let s = spec(
            r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","watchdog_cycles":50000}"#,
        )
        .unwrap();
        assert_eq!(s.watchdog_cycles, Some(50_000));
        let back = spec(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // The window decides whether a run errs as a stall, so it must
        // key the result cache.
        let plain =
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        assert_ne!(s.digest(), plain.digest());
        // Analyze is functional: no pipeline, no watchdog.
        assert!(
            spec(r#"{"kind":"analyze","suite":"spec2017","bench":"mcf","watchdog_cycles":1}"#)
                .unwrap_err()
                .contains("watchdog_cycles")
        );
    }

    #[test]
    fn stalled_run_maps_to_a_500_payload_with_forensics() {
        let s = spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        let partial = SystemResult {
            completed: false,
            cycles: 12_345,
            cores: vec![],
            mem: recon_mem::MemStats::default(),
        };
        let report = recon_sim::stall::StallReport {
            cycle: 12_345,
            window: 10_000,
            cores: vec![],
        };
        let err = deadline_error(
            &s,
            SimError::Stalled {
                partial: Box::new(partial),
                report: Box::new(report),
            },
            None,
        );
        let JobError::Stopped {
            label: SimError::STALLED,
            payload,
            checkpoint: None,
        } = err
        else {
            panic!("expected a stall, got {err:?}");
        };
        let v = parse(&payload).expect("stall payload is JSON");
        assert_eq!(
            v.get("error").and_then(crate::json::Json::as_str),
            Some("stalled")
        );
        assert!(v
            .get("summary")
            .and_then(crate::json::Json::as_str)
            .is_some_and(|s| s.contains("liveness stall")));
        let partial = v.get("partial").expect("partial stats ride along");
        assert_eq!(
            partial.get("cycles").and_then(crate::json::Json::as_u64),
            Some(12_345)
        );
    }

    #[test]
    fn fast_forward_parses_round_trips_and_keys_the_digest() {
        let s = spec(
            r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fast_forward":5000}"#,
        )
        .unwrap();
        assert_eq!(s.fast_forward, Some(5000));
        // to_json → from_json round-trip preserves the warmup length.
        let back = spec(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // The warmup changes results, so it must change the digest.
        let plain =
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        assert_ne!(s.digest(), plain.digest());
        let other = spec(
            r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fast_forward":6000}"#,
        )
        .unwrap();
        assert_ne!(s.digest(), other.digest());
        // Analyze is already functional: a warmup length is meaningless.
        assert!(
            spec(r#"{"kind":"analyze","suite":"spec2017","bench":"mcf","fast_forward":100}"#)
                .unwrap_err()
                .contains("fast_forward")
        );
        // Verify cells must observe the whole gadget: warmup is rejected.
        assert!(spec(
            r#"{"kind":"verify","gadget":"spectre-v1","scheme":"stt","fast_forward":10}"#
        )
        .unwrap_err()
        .contains("fast_forward"));
        // Matrix jobs are benchmark-scale: warmup is accepted and keyed.
        let m = spec(r#"{"kind":"matrix","suite":"spec2017","bench":"mcf","fast_forward":5000}"#)
            .unwrap();
        let m_plain = spec(r#"{"kind":"matrix","suite":"spec2017","bench":"mcf"}"#).unwrap();
        assert_ne!(m.digest(), m_plain.digest());
    }

    #[test]
    fn audit_cadence_parses_round_trips_and_keys_the_digest() {
        let s = spec(
            r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","audit_every_cycles":4096}"#,
        )
        .unwrap();
        assert_eq!(s.audit_every_cycles, Some(4096));
        let back = spec(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // A cadence can turn a completed run into a 500, so it must key
        // the result cache.
        let plain =
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        assert_ne!(s.digest(), plain.digest());
        // Analyze is functional: nothing to audit.
        assert!(spec(
            r#"{"kind":"analyze","suite":"spec2017","bench":"mcf","audit_every_cycles":64}"#
        )
        .unwrap_err()
        .contains("audit_every_cycles"));
        // An audited clean run completes normally (no false positives)
        // and serves the usual payload.
        let s = spec(
            r#"{"kind":"run","suite":"corpus","bench":"quicksort","scheme":"stt","audit_every_cycles":256}"#,
        )
        .unwrap();
        let out = execute(&s, None).unwrap();
        assert!(
            out.payload.contains("\"completed\":true"),
            "{}",
            out.payload
        );
    }

    #[test]
    fn asm_job_assembles_runs_and_self_checks() {
        let src = "
.entry main
main:
    li r1, 5
    li r2, 0
top:
    add r2, r2, r1
    subi r1, r1, 1
    bne r1, r0, top
    li r3, 0xfeed0
    st r2, [r3]
    li r4, 0x600d
    st r4, [r3+8]
    halt
";
        let body = format!(
            "{{\"kind\":\"asm\",\"scheme\":\"stt+recon\",\"source\":\"{}\"}}",
            escape(src)
        );
        let s = spec(&body).unwrap();
        assert_eq!(s.kind, JobKind::Asm);
        // to_json round-trips the source (checkpoint re-parse path).
        assert_eq!(spec(&s.to_json()).unwrap(), s);
        let out = execute(&s, None).unwrap();
        assert!(out.payload.contains("\"passed\":true"), "{}", out.payload);
        assert!(
            out.payload.contains("\"completed\":true"),
            "{}",
            out.payload
        );
        // Determinism: byte-identical on re-execution.
        assert_eq!(out.payload, execute(&s, None).unwrap().payload);
        // The digest keys on the source text.
        let other = spec(&body.replace("li r1, 5", "li r1, 6")).unwrap();
        assert_ne!(s.digest(), other.digest());
    }

    #[test]
    fn asm_job_rejects_bad_submissions() {
        assert!(spec(r#"{"kind":"asm","scheme":"stt"}"#)
            .unwrap_err()
            .contains("source"));
        // Unassemblable source is refused at admission with the
        // assembler's diagnostic.
        let e = spec(r#"{"kind":"asm","scheme":"stt","source":"    li r99, 1\n    halt\n"}"#)
            .unwrap_err();
        assert!(e.contains("line 1:8"), "{e}");
        assert!(spec(r#"{"kind":"asm","source":"    halt\n"}"#)
            .unwrap_err()
            .contains("scheme"));
        assert!(
            spec(r#"{"kind":"asm","scheme":"stt","suite":"corpus","source":"    halt\n"}"#)
                .unwrap_err()
                .contains("'suite'")
        );
        // 'source' is an asm-only field.
        assert!(spec(
            r#"{"kind":"run","suite":"corpus","bench":"memref","scheme":"stt","source":"x"}"#
        )
        .unwrap_err()
        .contains("asm"));
    }

    #[test]
    fn corpus_suite_is_served_and_typos_get_suggestions() {
        let s =
            spec(r#"{"kind":"run","suite":"corpus","bench":"quicksort","scheme":"stt"}"#).unwrap();
        assert_eq!(s.suite.as_deref(), Some("corpus"));
        let e = spec(r#"{"kind":"run","suite":"corpsu","bench":"quicksort","scheme":"stt"}"#)
            .unwrap_err();
        assert!(e.contains("did you mean 'corpus'"), "{e}");
        let e = spec(r#"{"kind":"run","suite":"corpus","bench":"quicksot","scheme":"stt"}"#)
            .unwrap_err();
        assert!(e.contains("did you mean 'quicksort'"), "{e}");
    }

    #[test]
    fn workloads_payload_lists_every_suite() {
        let v = parse(workloads_payload()).expect("valid json");
        let suites = match v.get("suites") {
            Some(Json::Arr(a)) => a,
            other => panic!("expected suites array, got {other:?}"),
        };
        assert_eq!(suites.len(), 4);
        let corpus = suites
            .iter()
            .find(|s| s.get("suite").and_then(Json::as_str) == Some("corpus"))
            .expect("corpus suite listed");
        let benches = match corpus.get("benchmarks") {
            Some(Json::Arr(a)) => a,
            other => panic!("expected benchmarks array, got {other:?}"),
        };
        assert_eq!(benches.len(), 5);
        for b in benches {
            assert!(b.get("static_instructions").and_then(Json::as_u64).unwrap() > 10);
            assert_eq!(b.get("threads").and_then(Json::as_u64), Some(1));
        }
    }

    #[test]
    fn mixed_case_benchmarks_validate_to_their_canonical_name() {
        for bench in ["cactuBSSN", "cactubssn"] {
            let s = spec(&format!(
                r#"{{"kind":"run","suite":"spec2017","bench":"{bench}","scheme":"stt"}}"#
            ))
            .unwrap();
            assert_eq!(s.bench.as_deref(), Some("cactuBSSN"), "{bench}");
            let again = spec(&s.to_json()).unwrap();
            assert_eq!(again, s, "{bench} survives a to_json round trip");
            assert_eq!(again.digest(), s.digest());
        }
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        let b = spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt"}"#).unwrap();
        let c = spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt+recon"}"#)
            .unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(
            a.digest(),
            spec(r#"{"kind":"matrix","suite":"spec2017","bench":"mcf"}"#)
                .unwrap()
                .digest()
        );
    }

    #[test]
    fn verify_job_round_trips() {
        let s =
            spec(r#"{"kind":"verify","gadget":"already-leaked","scheme":"stt+recon"}"#).unwrap();
        let out = execute(&s, None).unwrap();
        assert!(
            out.payload.contains("\"verdict\":\"SECURE\""),
            "{}",
            out.payload
        );
        assert!(
            out.payload.contains("\"as_expected\":true"),
            "{}",
            out.payload
        );
        // Determinism: byte-identical on re-execution.
        assert_eq!(out.payload, execute(&s, None).unwrap().payload);
    }

    #[test]
    fn analyze_job_deadline_returns_partial_stats() {
        // A fuel budget far below the benchmark's instruction count:
        // the analyzer must stop at the cap and report partial counts.
        let s = spec(r#"{"kind":"analyze","suite":"spec2017","bench":"mcf","fuel":500}"#).unwrap();
        match execute(&s, None) {
            Err(JobError::Stopped {
                label: SimError::DEADLINE_EXCEEDED,
                payload,
                ..
            }) => {
                let v = parse(&payload).expect("partial payload is valid json");
                assert_eq!(v.get("reason").and_then(Json::as_str), Some("fuel"));
                let partial = v.get("partial").expect("has partial stats");
                assert_eq!(
                    partial.get("instructions").and_then(Json::as_u64),
                    Some(500)
                );
            }
            other => panic!("expected deadline, got {other:?}"),
        }
        // Without fuel the same job completes.
        let s = spec(r#"{"kind":"analyze","suite":"spec2017","bench":"mcf"}"#).unwrap();
        assert!(execute(&s, None).is_ok());
    }

    #[test]
    fn verify_job_deadline_returns_partial_stats() {
        let s =
            spec(r#"{"kind":"verify","gadget":"already-leaked","scheme":"stt","max_cycles":100}"#)
                .unwrap();
        match execute(&s, None) {
            Err(JobError::Stopped {
                label: SimError::DEADLINE_EXCEEDED,
                payload,
                ..
            }) => {
                let v = parse(&payload).expect("partial payload is valid json");
                assert_eq!(v.get("reason").and_then(Json::as_str), Some("max_cycles"));
                assert_eq!(
                    v.get("partial")
                        .and_then(|p| p.get("completed"))
                        .and_then(Json::as_bool),
                    Some(false)
                );
            }
            other => panic!("expected deadline, got {other:?}"),
        }
    }

    #[test]
    fn run_job_deadline_returns_partial_stats() {
        let s =
            spec(r#"{"kind":"run","suite":"spec2017","bench":"mcf","scheme":"stt","fuel":1000}"#)
                .unwrap();
        match execute(&s, None) {
            Err(JobError::Stopped {
                label: SimError::DEADLINE_EXCEEDED,
                payload,
                ..
            }) => {
                let v = parse(&payload).expect("partial payload is valid json");
                assert_eq!(v.get("reason").and_then(Json::as_str), Some("fuel"));
                assert_eq!(
                    v.get("error").and_then(Json::as_str),
                    Some("deadline_exceeded")
                );
                let partial = v.get("partial").expect("has partial stats");
                let committed = partial.get("committed").and_then(Json::as_u64).unwrap();
                assert!(
                    committed > 0 && committed <= 1000 + 8,
                    "partial, capped: {committed}"
                );
            }
            other => panic!("expected deadline, got {other:?}"),
        }
    }
}
