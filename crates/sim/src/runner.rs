//! Parallel experiment runner: a std-only scoped-thread worker pool
//! that executes batches of (benchmark, scheme) jobs across cores.
//!
//! Simulated runs are independent pure functions of (workload, config),
//! so a batch parallelizes trivially: jobs go into a queue, workers
//! drain it, and results land in a slot table indexed by job id —
//! output order is therefore *deterministic* regardless of worker count
//! or scheduling. The runner also deduplicates jobs before dispatch, so
//! the unsafe baseline a figure needs under both the NDA and STT trios
//! runs once per benchmark, not once per trio. A job is the whole cell,
//! (experiment, benchmark, scheme): [`run_cells`] takes cells from many
//! experiments, and [`run_batch`] is the one-experiment case.
//!
//! Per-job wall-clock timings are recorded and can be written to
//! `BENCH_runner.json` for cross-host speedup comparisons.

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use recon_secure::SecureConfig;
use recon_workloads::{Benchmark, Suite};

use crate::ckpt::{self, CkptContext};
use crate::error::Budget;
use crate::experiment::{Experiment, SchemeMatrix};
use crate::system::SystemResult;

/// Runs `f` over `items` on `jobs` worker threads, returning outputs in
/// input order (deterministic for any `jobs`).
///
/// Workers pull from a shared queue, so long jobs do not serialize
/// behind short ones. With `jobs <= 1` (or a single item) everything
/// runs on the caller's thread. A panicking job propagates out of the
/// scope join, as it would serially.
pub fn parallel_map<I, O, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                // Take the lock only to pop; run the job outside it.
                let job = queue.lock().unwrap().pop_front();
                let Some((idx, item)) = job else { break };
                let out = f(item);
                slots.lock().unwrap()[idx] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().unwrap();
    slots
        .into_iter()
        .map(|o| o.expect("every queued job ran"))
        .collect()
}

/// Worker count from `RECON_JOBS`, defaulting to the host's available
/// parallelism (1 if unknown).
///
/// # Errors
///
/// An invalid `RECON_JOBS` (not a positive integer, e.g. `abc` or `0`)
/// is an error naming the accepted form — it is never silently coerced
/// to a serial run.
pub fn jobs_from_env() -> Result<usize, String> {
    match std::env::var("RECON_JOBS") {
        Ok(v) => v.trim().parse().ok().filter(|&j| j >= 1).ok_or_else(|| {
            format!("RECON_JOBS must be a positive integer (worker count), got '{v}'")
        }),
        Err(std::env::VarError::NotPresent) => {
            Ok(std::thread::available_parallelism().map_or(1, usize::from))
        }
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("RECON_JOBS must be a positive integer (worker count), got non-unicode".into())
        }
    }
}

/// Runs `f`, catching a panic and retrying once (transient failures —
/// e.g. a host hiccup — get a second chance); a second panic becomes
/// the job's failure message. Panic backtraces still print to stderr.
fn catch_retry<O>(f: impl Fn() -> O) -> Result<O, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f)) {
        Ok(o) => Ok(o),
        Err(_) => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&f)) {
            Ok(o) => Ok(o),
            Err(p) => Err(panic_text(p)),
        },
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Wall-clock timing of one executed (benchmark, scheme) job.
#[derive(Clone, Debug)]
pub struct JobTiming {
    /// Benchmark name.
    pub bench: &'static str,
    /// Scheme configuration the job ran under.
    pub config: SecureConfig,
    /// Host wall-clock seconds the job took.
    pub seconds: f64,
    /// Simulated cycles, for correlating host time with simulated work.
    pub cycles: u64,
    /// Committed instructions (plus any functional warmup), the basis
    /// of the job's MIPS figure.
    pub instructions: u64,
    /// Whether the job failed (panicked twice) instead of producing a
    /// result.
    pub failed: bool,
}

impl JobTiming {
    /// Simulated throughput in MIPS (million instructions per host
    /// second); 0 for failed or instantaneous jobs.
    #[must_use]
    pub fn mips(&self) -> f64 {
        if self.seconds > 0.0 {
            self.instructions as f64 / 1e6 / self.seconds
        } else {
            0.0
        }
    }
}

/// Aggregate checkpoint activity across a checkpointed batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchCkptStats {
    /// Jobs skipped entirely because a completion record existed.
    pub cached: usize,
    /// Jobs resumed from a mid-run checkpoint.
    pub resumed: usize,
    /// Checkpoint files written.
    pub written: u64,
    /// Corrupt/torn checkpoint files dropped during recovery.
    pub dropped_corrupt: u64,
    /// Checkpoint files GC'd past the keep window.
    pub gc_deleted: u64,
}

/// A job's whole identity: experiment, benchmark (suite and name) and
/// scheme. Jobs are deduplicated and looked up by it, so cells that
/// differ only in, say, their ReCon configuration never alias.
type JobKey = (Experiment, Suite, &'static str, SecureConfig);

fn key(exp: &Experiment, bench: &Benchmark, config: SecureConfig) -> JobKey {
    (*exp, bench.suite, bench.name, config)
}

/// Results of a deduplicated batch of (experiment, benchmark, scheme)
/// jobs.
///
/// A job that panics (after one retry) is recorded as `failed` instead
/// of aborting the batch: the remaining jobs still run and report.
#[derive(Clone, Debug)]
pub struct BatchResults {
    /// One entry per *unique* job, in the order the jobs were first
    /// requested: (job, result-or-failure-message).
    entries: Vec<(JobKey, Result<SystemResult, String>)>,
    /// Per-job timings, same order as the entries.
    pub timings: Vec<JobTiming>,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Checkpoint activity, when the batch ran with a checkpoint dir.
    pub ckpt: Option<BatchCkptStats>,
}

impl BatchResults {
    /// The result of the first job running `bench` under `config`, if
    /// it was in the batch and succeeded.
    #[must_use]
    pub fn get(&self, bench: &str, config: SecureConfig) -> Option<&SystemResult> {
        let hit = self
            .entries
            .iter()
            .find(|(k, _)| (k.2, k.3) == (bench, config));
        hit?.1.as_ref().ok()
    }

    /// The result of `bench` under `config` in `exp`, if that cell was
    /// in the batch and succeeded.
    #[must_use]
    pub fn cell(
        &self,
        exp: &Experiment,
        bench: &Benchmark,
        config: SecureConfig,
    ) -> Option<&SystemResult> {
        let want = key(exp, bench, config);
        self.entries
            .iter()
            .find(|(k, _)| *k == want)?
            .1
            .as_ref()
            .ok()
    }

    /// The five-scheme matrix of `bench` in `exp`, if all five cells
    /// were in the batch and succeeded.
    #[must_use]
    pub fn matrix(&self, exp: &Experiment, bench: &Benchmark) -> Option<SchemeMatrix> {
        let [baseline, nda, nda_recon, stt, stt_recon] =
            SecureConfig::ALL.map(|c| self.cell(exp, bench, c).cloned());
        Some(SchemeMatrix {
            name: bench.name,
            baseline: baseline?,
            nda: nda?,
            nda_recon: nda_recon?,
            stt: stt?,
            stt_recon: stt_recon?,
        })
    }

    /// Jobs that failed (after a retry), as (bench, config, message).
    #[must_use]
    pub fn failures(&self) -> Vec<(&'static str, SecureConfig, &str)> {
        self.entries
            .iter()
            .filter_map(|(k, r)| r.as_ref().err().map(|e| (k.2, k.3, e.as_str())))
            .collect()
    }

    /// Number of failed jobs.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.entries.iter().filter(|(_, r)| r.is_err()).count()
    }

    /// Number of unique jobs executed.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.entries.len()
    }

    /// Sum of per-job wall times — the serial-execution estimate. Note
    /// that per-job times are measured while workers share the host's
    /// cores, so on an oversubscribed machine this overstates a true
    /// serial run; compare `wall_seconds` of a `--jobs 1` invocation
    /// against a `--jobs N` one for an honest speedup figure.
    #[must_use]
    pub fn serial_seconds(&self) -> f64 {
        self.timings.iter().map(|t| t.seconds).sum()
    }

    /// Parallel speedup estimate: serial-sum over batch wall time (see
    /// the [`serial_seconds`](Self::serial_seconds) caveat).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.serial_seconds() / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Writes the batch timing report as JSON (hand-rolled: the build
    /// is dependency-free). Overwrites `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{{")?;
        writeln!(f, "  \"jobs\": {},", self.jobs)?;
        writeln!(f, "  \"unique_jobs\": {},", self.job_count())?;
        writeln!(f, "  \"failed_jobs\": {},", self.failed_count())?;
        writeln!(f, "  \"wall_seconds\": {:.6},", self.wall_seconds)?;
        writeln!(f, "  \"serial_seconds\": {:.6},", self.serial_seconds())?;
        writeln!(f, "  \"speedup\": {:.3},", self.speedup())?;
        writeln!(f, "  \"job_timings\": [")?;
        let n = self.timings.len();
        for (i, t) in self.timings.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            writeln!(
                f,
                "    {{\"bench\": \"{}\", \"scheme\": \"{}\", \"seconds\": {:.6}, \"cycles\": {}, \"instructions\": {}, \"mips\": {:.3}, \"failed\": {}}}{comma}",
                t.bench,
                t.config.label(),
                t.seconds,
                t.cycles,
                t.instructions,
                t.mips(),
                t.failed
            )?;
        }
        writeln!(f, "  ]")?;
        writeln!(f, "}}")?;
        Ok(())
    }
}

/// Runs every `bench` × `config` combination on `jobs` workers,
/// deduplicating repeated (bench, config) requests (notably the unsafe
/// baseline shared by several scheme trios).
#[must_use]
pub fn run_batch(
    exp: &Experiment,
    benches: &[Benchmark],
    configs: &[SecureConfig],
    jobs: usize,
) -> BatchResults {
    run_batch_with(exp, benches, configs, jobs, &Budget::default(), None)
}

/// [`run_batch`] under an explicit per-job [`Budget`] (fuel, deadlines,
/// watchdog, audit cadence, functional fast-forward warmup), optionally
/// with crash-safe persistence.
///
/// With `persist = Some((ctx, tag))` each job checkpoints into
/// `ctx.dir` and records its outcome there, so re-running the same
/// batch after a kill replays finished jobs outright and resumes partial
/// ones from their last checkpoint. `tag` namespaces the batch (e.g.
/// `"suite:spec2017:quick"`); each job is keyed by
/// [`ckpt::run_digest`] over the tag, bench, scheme and cadence plus the
/// budget's outcome-changing knobs, so batches under different budgets
/// never share records.
#[must_use]
pub fn run_batch_with(
    exp: &Experiment,
    benches: &[Benchmark],
    configs: &[SecureConfig],
    jobs: usize,
    budget: &Budget,
    persist: Option<(&CkptContext, &str)>,
) -> BatchResults {
    let cells = benches
        .iter()
        .flat_map(|b| configs.iter().map(move |&c| (*exp, b, c)));
    run_cells(cells, jobs, budget, persist)
}

/// Runs each distinct (experiment, benchmark, scheme) cell once on
/// `jobs` workers, in the order the cells are first named, under
/// `budget` and `persist` as in [`run_batch_with`]; look the results up
/// with [`BatchResults::cell`] or [`BatchResults::matrix`]. Persisted
/// records are keyed by the tag but not the experiment, so a persisted
/// batch should hold one experiment per tag.
#[must_use]
pub fn run_cells<'b>(
    cells: impl IntoIterator<Item = (Experiment, &'b Benchmark, SecureConfig)>,
    jobs: usize,
    budget: &Budget,
    persist: Option<(&CkptContext, &str)>,
) -> BatchResults {
    let mut work: Vec<(Experiment, &Benchmark, SecureConfig)> = Vec::new();
    for (exp, b, c) in cells {
        let k = key(&exp, b, c);
        if !work.iter().any(|(e, b, c)| key(e, b, *c) == k) {
            work.push((exp, b, c));
        }
    }
    let start = Instant::now();
    let ran = parallel_map(jobs, work, |(exp, b, c)| {
        let t0 = Instant::now();
        // One panicking experiment must not abort the suite: catch it,
        // retry once, and report it as a failed entry.
        let (outcome, info) = match persist {
            None => (
                catch_retry(|| exp.try_run(&b.workload, c, budget))
                    .and_then(|r| r.map_err(|e| e.to_string())),
                None,
            ),
            Some((ctx, tag)) => {
                let scheme = c.to_string();
                let cadence = ctx.cadence.to_string();
                let digest = ckpt::run_digest(&[tag, b.name, &scheme, &cadence], budget);
                let caught = catch_retry(|| {
                    ckpt::run_with_checkpoints(
                        &exp,
                        &b.workload,
                        c,
                        budget,
                        ctx,
                        &[
                            ("kind".to_string(), "suite-job".to_string()),
                            ("tag".to_string(), tag.to_string()),
                            ("bench".to_string(), b.name.to_string()),
                            ("scheme".to_string(), scheme.clone()),
                            ("cadence".to_string(), cadence.clone()),
                        ],
                        digest,
                    )
                });
                match caught {
                    Ok((r, info)) => (r.map_err(|e| e.to_string()), Some(info)),
                    Err(msg) => (Err(msg), None),
                }
            }
        };
        let seconds = t0.elapsed().as_secs_f64();
        (key(&exp, b, c), outcome, info, seconds)
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let mut entries = Vec::with_capacity(ran.len());
    let mut timings = Vec::with_capacity(ran.len());
    let mut ckpt_stats = persist.map(|_| BatchCkptStats::default());
    for (key, outcome, info, seconds) in ran {
        if let (Some(s), Some(i)) = (ckpt_stats.as_mut(), info) {
            s.cached += usize::from(i.result_cached);
            s.resumed += usize::from(i.resumed_from_cycle.is_some());
            s.written += i.checkpoints_written;
            s.dropped_corrupt += i.dropped_corrupt;
            s.gc_deleted += i.gc_deleted;
        }
        timings.push(JobTiming {
            bench: key.2,
            config: key.3,
            seconds,
            cycles: outcome.as_ref().map_or(0, |r| r.cycles),
            instructions: outcome.as_ref().map_or(0, SystemResult::committed),
            failed: outcome.is_err(),
        });
        entries.push((key, outcome));
    }
    BatchResults {
        entries,
        timings,
        wall_seconds,
        jobs,
        ckpt: ckpt_stats,
    }
}

impl Experiment {
    /// Runs the five-way scheme matrix on every benchmark with `jobs`
    /// parallel workers, returning matrices in benchmark order plus the
    /// batch timing report.
    ///
    /// A benchmark with any failed job is omitted from the matrices
    /// (its failure stays visible in [`BatchResults::failures`]); the
    /// other benchmarks' matrices are unaffected.
    #[must_use]
    pub fn run_matrices(
        &self,
        benches: &[Benchmark],
        jobs: usize,
    ) -> (Vec<SchemeMatrix>, BatchResults) {
        self.run_matrices_with(benches, jobs, &Budget::default(), None)
    }

    /// [`run_matrices`](Self::run_matrices) under an explicit per-job
    /// [`Budget`], optionally with crash-safe suite resume: with
    /// `persist = Some((ctx, tag))` completed jobs replay on a re-run
    /// and partial ones resume from their last checkpoint (see
    /// [`run_batch_with`]).
    #[must_use]
    pub fn run_matrices_with(
        &self,
        benches: &[Benchmark],
        jobs: usize,
        budget: &Budget,
        persist: Option<(&CkptContext, &str)>,
    ) -> (Vec<SchemeMatrix>, BatchResults) {
        let batch = run_batch_with(self, benches, &SecureConfig::ALL, jobs, budget, persist);
        let matrices = benches
            .iter()
            .filter_map(|b| batch.matrix(self, b))
            .collect();
        (matrices, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(4, (0..100).collect(), |i: u64| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_serial_fallback() {
        let out = parallel_map(1, vec![3, 1, 2], |i: i32| i + 1);
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn parallel_map_more_workers_than_items() {
        let out = parallel_map(16, vec![1, 2], |i: i32| i * i);
        assert_eq!(out, vec![1, 4]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn parallel_map_propagates_panics() {
        // A job panic must fail the whole batch (it resurfaces from the
        // scope join), never silently drop the job's slot.
        let _ = parallel_map(2, vec![0, 1], |i: i32| {
            assert!(i != 1, "job failure propagates");
            i
        });
    }

    #[test]
    fn catch_retry_recovers_from_one_panic() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let out = catch_retry(|| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            7
        });
        assert_eq!(out, Ok(7));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn catch_retry_reports_persistent_panics() {
        let out: Result<(), String> = catch_retry(|| panic!("always broken"));
        assert_eq!(out.unwrap_err(), "always broken");
    }

    #[test]
    fn failing_job_does_not_abort_the_batch() {
        use recon_workloads::{find, Scale, Suite};
        // An impossible cycle budget makes `Experiment::run` panic
        // ("run exceeded ... cycles"); the batch must survive, record
        // the failure per job, and keep zero matrices for the bench.
        let exp = Experiment {
            max_cycles: 1,
            ..Experiment::default()
        };
        let benches = vec![find(Suite::Spec2017, "leela", Scale::Quick).unwrap()];
        let (matrices, batch) = exp.run_matrices(&benches, 2);
        assert!(matrices.is_empty(), "failed bench is omitted");
        assert_eq!(batch.failed_count(), batch.job_count());
        let failures = batch.failures();
        assert!(!failures.is_empty());
        assert!(
            failures[0].2.contains("exceeded"),
            "failure message survives: {}",
            failures[0].2
        );
        assert!(batch.get("leela", SecureConfig::stt()).is_none());
        assert!(batch.timings.iter().all(|t| t.failed));
    }

    #[test]
    fn jobs_env_parsing() {
        // Only exercises the default branch (the variable is unset in
        // the test environment; setting it would race other tests).
        assert!(jobs_from_env().expect("unset env defaults") >= 1);
    }
}
