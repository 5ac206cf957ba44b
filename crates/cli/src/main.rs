//! `recon` — command-line driver for the ReCon reproduction.
//!
//! ```text
#![doc = include_str!("usage.txt")]
//! ```
//!
//! Suites: `spec2017`, `spec2006`, `parsec`, `corpus`. Schemes: `unsafe`, `nda`,
//! `nda+recon`, `stt`, `stt+recon`. Set `RECON_SCALE=paper` for ×4
//! workloads. `suite` runs its jobs on a worker pool (`--jobs`, or
//! `RECON_JOBS`, default all cores) and writes per-job wall-clock
//! timings to `BENCH_runner.json`; the tables are byte-identical for
//! any worker count.
//!
//! `verify` runs every attack gadget under both secrets for every
//! scheme and diffs the attacker observation traces (SECURE/LEAKS with
//! first divergent observation), checks the §5.2/§5.3 reveal-soundness
//! invariant, and exits non-zero if any verdict deviates from the
//! security claim. `--embedded` widens the matrix with gadgets spliced
//! into corpus host programs at their `;@gadget` markers.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_serve::job::experiment_for;
use recon_sim::ckpt::{self, CkptContext};
use recon_sim::report::Table;
use recon_sim::{jobs_from_env, Budget, Experiment, SimError, System, SystemResult};
use recon_workloads::{did_you_mean, Benchmark, Scale, Suite, Workload};

fn scale() -> Scale {
    Scale::from_env()
}

/// Default checkpoint cadence in simulated cycles when `--checkpoint`
/// is given without `--checkpoint-every`.
const DEFAULT_CKPT_EVERY: u64 = 500_000;

/// Checkpoints retained per job while it runs.
const CKPT_KEEP: usize = 3;

/// The command list `recon` prints when no command matches; also this
/// module's doc header.
const USAGE: &str = include_str!("usage.txt");

/// The flags one subcommand accepts: those that take a value and the
/// bare switches. `command` names the subcommand in the unknown-flag
/// error.
struct FlagSpec {
    command: &'static str,
    valued: &'static [&'static str],
    switches: &'static [&'static str],
}

/// One subcommand's flags, checked against its [`FlagSpec`].
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Splits `args` into valued flags and switches. An unknown flag (with
    /// a near-miss hint), a valued flag with no value, and a flag given
    /// twice are errors.
    fn parse(spec: &FlagSpec, args: &[&'a str]) -> Result<Self, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(&flag) = it.next() {
            if flags.has(flag) || flags.get(flag).is_some() {
                return Err(format!("{flag} is given more than once"));
            }
            if spec.switches.contains(&flag) {
                flags.switches.push(flag);
            } else if spec.valued.contains(&flag) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{flag} wants {}", wants(spec.command, flag)))?;
                flags.values.push((flag, value));
            } else {
                let known = spec.valued.iter().chain(spec.switches).copied();
                return Err(format!(
                    "unknown {} flag '{flag}'{}",
                    spec.command,
                    did_you_mean(flag, known)
                ));
            }
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// `flag`'s value as a `T` that passes `ok`, or `None` when the flag
    /// is absent; anything else is the error `{flag} wants {what}, got
    /// '{value}'`.
    fn parse_as<T: FromStr>(
        &self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(&ok)
                    .ok_or_else(|| format!("{flag} wants {what}, got '{v}'"))
            })
            .transpose()
    }

    /// `flag`'s value as a positive `u64`.
    fn positive(&self, flag: &str, what: &str) -> Result<Option<u64>, String> {
        self.parse_as(flag, what, |&n| n >= 1)
    }

    /// `flag`'s value as a positive count, or `default` when absent.
    fn count(&self, flag: &str, default: usize) -> Result<usize, String> {
        Ok(self
            .parse_as(flag, "a positive integer", |&n| n >= 1)?
            .unwrap_or(default))
    }

    /// `--seed`'s value, or `default` when absent.
    fn seed(&self, default: u64) -> Result<u64, String> {
        Ok(self
            .parse_as("--seed", "an integer", |_| true)?
            .unwrap_or(default))
    }
}

/// Rejects every argument after a subcommand that takes no flags, naming
/// the first as an unknown flag.
fn no_flags(command: &'static str, rest: &[&str]) -> Result<(), String> {
    let spec = FlagSpec {
        command,
        valued: &[],
        switches: &[],
    };
    Flags::parse(&spec, rest).map(drop)
}

/// What a valued flag wants, for its missing-value error.
fn wants(command: &str, flag: &str) -> &'static str {
    match (command, flag) {
        ("asm", "--run") => "a scheme",
        ("asm", "--fast-forward") => "an instruction count",
        _ => "a value",
    }
}

fn parse_scheme(name: &str) -> Result<SecureConfig, String> {
    SecureConfig::parse(name)
        .ok_or_else(|| format!("unknown scheme '{name}' ({})", SecureConfig::PARSE_NAMES))
}

/// Resolves a suite and benchmark name, in any case, and builds only
/// that benchmark.
fn benchmark(suite: &str, bench: &str) -> Result<Benchmark, String> {
    let suite = Suite::parse(suite)?;
    let name = recon_workloads::resolve(suite, bench)?;
    Ok(recon_workloads::find(suite, name, scale()).expect("resolved names build"))
}

fn cmd_list() -> ExitCode {
    let mut t = Table::new(&["suite", "benchmark", "threads", "static instructions"]);
    for suite in Suite::ALL {
        for b in recon_workloads::benchmarks(suite, scale()) {
            t.row(&[
                b.suite.to_string(),
                b.name.to_string(),
                b.workload.num_threads().to_string(),
                b.workload.program.len().to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    ExitCode::SUCCESS
}

const ASM_FLAGS: FlagSpec = FlagSpec {
    command: "asm",
    valued: &["--run", "--fast-forward"],
    switches: &["--dump"],
};

/// `recon asm <file>`: assemble a text program and report what it
/// contains; `--dump` prints the canonical disassembly, `--run <scheme>`
/// executes it in the detailed simulator and reads back the corpus
/// self-check convention's digest/status words.
fn cmd_asm(file: &str, rest: &[&str]) -> Result<ExitCode, String> {
    let flags = Flags::parse(&ASM_FLAGS, rest)?;
    let run = flags.get("--run").map(parse_scheme).transpose()?;
    let ff = flags.positive("--fast-forward", "a positive instruction count")?;
    if ff.is_some() && run.is_none() {
        return Err("--fast-forward needs --run <scheme>".into());
    }
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let p = recon_asm::assemble(&src).map_err(|e| format!("{file}: {e}"))?;
    println!(
        "{file}: {} instructions, {} data words, {} label(s), {} entry point(s)",
        p.program.len(),
        p.program.image.len(),
        p.labels.len(),
        p.entries.len()
    );
    for e in &p.entries {
        let name = p
            .labels
            .iter()
            .find(|&&(_, idx)| idx == e.entry)
            .map_or("?", |(n, _)| n.as_str());
        let seeds: Vec<String> = e.seeds.iter().map(|(r, v)| format!("{r}={v:#x}")).collect();
        println!("  entry {name} (inst {}) {}", e.entry, seeds.join(" "));
    }
    if flags.has("--dump") {
        print!("{}", recon_asm::disassemble(&p));
    }
    let Some(secure) = run else {
        return Ok(ExitCode::SUCCESS);
    };
    let workload = Workload::from(p);
    let suite = if workload.num_threads() > 1 {
        Suite::Parsec
    } else {
        Suite::Corpus
    };
    let exp = experiment_for(suite);
    let budget = Budget {
        fast_forward: ff,
        ..Budget::default()
    };
    let mut sys = System::new(&workload, exp.core, exp.mem, secure, exp.recon);
    let r = sys
        .run_budgeted(exp.max_cycles, &budget)
        .map_err(|e| format!("run did not complete: {e}"))?;
    if let Some(ff) = ff {
        println!("(functional fast-forward: {ff} instructions before detailed timing)");
    }
    print_run_result(file, suite, secure, &r);
    // Programs following the corpus self-check convention leave a
    // digest and pass/fail status at well-known addresses.
    let digest = sys.data().peek(recon_asm::corpus::DIGEST_ADDR);
    let status = sys.data().peek(recon_asm::corpus::STATUS_ADDR);
    if status == 0 && digest == 0 {
        println!("  self-check        (none: program wrote no status word)");
        return Ok(ExitCode::SUCCESS);
    }
    println!("  self-check digest {digest:#018x}");
    if status != recon_asm::corpus::STATUS_PASS {
        return Err(format!("self-check FAILED (status {status:#x})"));
    }
    println!("  self-check        pass");
    Ok(ExitCode::SUCCESS)
}

/// `recon workloads [--list]`: enumerate every suite and workload with
/// static instruction counts, so nobody has to guess valid names.
fn cmd_workloads(rest: &[&str]) -> Result<ExitCode, String> {
    match rest {
        [] | ["--list"] => Ok(cmd_list()),
        _ => Err(format!("unknown workloads flag(s) {rest:?} (try --list)")),
    }
}

fn print_run_result(name: &str, suite: Suite, secure: SecureConfig, r: &SystemResult) {
    println!("{name} ({suite}) under {secure}:");
    println!("  cycles            {}", r.cycles);
    println!("  committed         {}", r.committed());
    println!("  IPC               {:.3}", r.ipc());
    println!("  tainted loads     {}", r.guarded_loads());
    println!("  reveals set       {}", r.mem.reveals_set);
    println!("  revealed loads    {}", r.mem.revealed_loads);
    println!("  L1 load hit rate  {:.1}%", r.mem.l1_hit_rate() * 100.0);
    println!("  trace dropped     {}", r.trace_dropped());
}

/// The error line of a run that did not complete, after printing the
/// full stall or invariant-audit forensics, so a deadlocked or
/// corrupted run explains itself (per-core ROB-head + wait reason, or
/// the violated-invariant list) instead of dying with a bare error
/// string.
fn run_failed(e: &SimError) -> String {
    if let Some((_, report)) = e.diagnosis() {
        eprintln!("{report}");
    }
    format!("run did not complete: {e}")
}

/// The flags `recon run` and `recon suite` accept.
const RUN_FLAGS: FlagSpec = FlagSpec {
    command: "run",
    valued: &[
        "--checkpoint",
        "--checkpoint-every",
        "--fast-forward",
        "--watchdog-cycles",
        "--audit",
    ],
    switches: &[],
};

const SUITE_FLAGS: FlagSpec = FlagSpec {
    command: "suite",
    ..RUN_FLAGS
};

/// Parses the flags `recon run` and `recon suite` share: the checkpoint
/// context (`--checkpoint D`, `--checkpoint-every CYC`, which needs a
/// directory) and the run budget (`--fast-forward`, `--watchdog-cycles`
/// with `0` = off, and the invariant-audit cadence `--audit`).
fn run_flags(spec: &FlagSpec, args: &[&str]) -> Result<(Option<CkptContext>, Budget), String> {
    let flags = Flags::parse(spec, args)?;
    let every = flags.positive("--checkpoint-every", "a positive cycle count")?;
    let ctx = match (flags.get("--checkpoint"), every) {
        (Some(dir), _) => Some(CkptContext {
            dir: PathBuf::from(dir),
            cadence: every.unwrap_or(DEFAULT_CKPT_EVERY),
            keep: CKPT_KEEP,
        }),
        (None, Some(_)) => return Err("--checkpoint-every needs --checkpoint <dir>".into()),
        (None, None) => None,
    };
    let budget = Budget {
        fast_forward: flags.positive("--fast-forward", "a positive instruction count")?,
        watchdog_cycles: flags
            .parse_as("--watchdog-cycles", "a cycle count (0 = off)", |_| true)?,
        audit_every_cycles: flags.positive("--audit", "a positive cycle cadence")?,
        ..Budget::default()
    };
    Ok((ctx, budget))
}

/// Budget knobs a `recon run` checkpoint records in its meta, by key.
const RUN_META_KNOBS: [&str; 3] = ["fast_forward", "audit", "watchdog_cycles"];

/// The checkpoint key and meta of a `recon run` job. The key digests the
/// job's identity (kind, suite, bench, scheme, scale, cadence) and the
/// budget's outcome-changing knobs; the meta records the identity and
/// the knobs `recon resume` restores ([`budget_from_meta`]), so a
/// resumed run recomputes the same key.
fn run_record(
    suite: Suite,
    bench: &str,
    secure: SecureConfig,
    cadence: u64,
    budget: &Budget,
) -> (u64, Vec<(String, String)>) {
    let mut meta: Vec<(String, String)> = [
        ("kind", "run".to_string()),
        ("suite", suite.name().to_string()),
        ("bench", bench.to_string()),
        ("scheme", secure.to_string()),
        ("scale", scale().label().to_string()),
        ("cadence", cadence.to_string()),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    let parts: Vec<&str> = meta.iter().map(|(_, v)| v.as_str()).collect();
    let digest = ckpt::run_digest(&parts, budget);
    let knobs = [
        budget.fast_forward,
        budget.audit_every_cycles,
        budget.watchdog_cycles,
    ];
    for (key, v) in RUN_META_KNOBS.iter().zip(knobs) {
        if let Some(v) = v {
            meta.push((key.to_string(), v.to_string()));
        }
    }
    (digest, meta)
}

/// The budget a `recon run` checkpoint recorded ([`run_record`]).
fn budget_from_meta(ck: &ckpt::Checkpoint) -> Budget {
    let [fast_forward, audit_every_cycles, watchdog_cycles] =
        RUN_META_KNOBS.map(|key| ck.meta(key).and_then(|v| v.parse::<u64>().ok()));
    Budget {
        fast_forward,
        watchdog_cycles,
        audit_every_cycles,
        ..Budget::default()
    }
}

/// Runs one configured job under a checkpoint context and reports what
/// the persistence layer did alongside the results.
fn run_checkpointed(
    exp: &Experiment,
    b: &Benchmark,
    secure: SecureConfig,
    ctx: &CkptContext,
    budget: &Budget,
) -> Result<ExitCode, String> {
    let (digest, meta) = run_record(b.suite, b.name, secure, ctx.cadence, budget);
    let (r, info) =
        ckpt::run_with_checkpoints(exp, &b.workload, secure, budget, ctx, &meta, digest);
    if info.dropped_corrupt > 0 {
        println!(
            "dropped {} corrupt/stale checkpoint file(s)",
            info.dropped_corrupt
        );
    }
    if info.result_cached {
        println!("result record found — returning the completed run");
    } else if info.stall_cached {
        println!("failure record found — replaying the recorded diagnosis");
    } else if let Some(cycle) = info.resumed_from_cycle {
        println!("resumed from checkpoint at cycle {cycle}");
    }
    let r = r.map_err(|e| {
        let msg = run_failed(&e);
        if let Some(p) = &info.last_checkpoint {
            println!("resumable checkpoint left at {}", p.display());
        }
        msg
    })?;
    print_run_result(b.name, b.suite, secure, &r);
    if !info.result_cached {
        println!(
            "  checkpoints       {} written, {} GC'd (cadence {})",
            info.checkpoints_written, info.gc_deleted, ctx.cadence
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(suite: &str, bench: &str, scheme_name: &str, rest: &[&str]) -> Result<ExitCode, String> {
    let b = benchmark(suite, bench)?;
    if scheme_name.starts_with("--") {
        // A flag where the scheme belongs: name a bad flag, else the
        // missing scheme.
        run_flags(&RUN_FLAGS, &[&[scheme_name], rest].concat())?;
        return Err(format!(
            "run wants a scheme before its flags ({})",
            SecureConfig::PARSE_NAMES
        ));
    }
    let secure = parse_scheme(scheme_name)?;
    let (ctx, budget) = run_flags(&RUN_FLAGS, rest)?;
    let exp = experiment_for(b.suite);
    if let Some(ctx) = ctx {
        return run_checkpointed(&exp, &b, secure, &ctx, &budget);
    }
    let r = exp
        .try_run(&b.workload, secure, &budget)
        .map_err(|e| run_failed(&e))?;
    if let Some(ff) = budget.fast_forward {
        println!("(functional fast-forward: {ff} instructions before detailed timing)");
    }
    print_run_result(b.name, b.suite, secure, &r);
    Ok(ExitCode::SUCCESS)
}

/// Resumes a run from a checkpoint file written by
/// `recon run --checkpoint`: rebuilds the system from the checkpoint's
/// meta records, restores the newest valid checkpoint of that job in
/// the file's directory, and continues to completion (checkpointing
/// onward at the recorded cadence).
fn cmd_resume(file: &str) -> Result<ExitCode, String> {
    let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let ck = ckpt::Checkpoint::decode(&bytes)
        .map_err(|e| format!("{file} is not a valid checkpoint: {e}"))?;
    if ck.meta("kind") != Some("run") {
        return Err(format!(
            "{file} was not written by 'recon run --checkpoint' (kind={}); \
             resume it with the command that produced it",
            ck.meta("kind").unwrap_or("missing")
        ));
    }
    let (Some(suite), Some(bench), Some(scheme), Some(scale_want), Some(cadence)) = (
        ck.meta("suite"),
        ck.meta("bench"),
        ck.meta("scheme"),
        ck.meta("scale"),
        ck.meta("cadence").and_then(|c| c.parse::<u64>().ok()),
    ) else {
        return Err(format!("{file} is missing resume metadata"));
    };
    let scale_now = scale().label();
    if scale_want != scale_now {
        return Err(format!(
            "checkpoint was taken at RECON_SCALE={scale_want}, current scale is {scale_now}; \
             re-run with RECON_SCALE={scale_want}"
        ));
    }
    let b = benchmark(suite, bench)?;
    let secure = SecureConfig::parse(scheme)
        .ok_or_else(|| format!("checkpoint names unknown scheme '{scheme}'"))?;
    // The budget knobs ride in the meta so the resume recomputes the
    // same key; the warmup itself is never re-applied (the restored
    // system is past cycle 0), while the audit and the watchdog keep
    // watching the resumed tail.
    let budget = budget_from_meta(&ck);
    let dir = PathBuf::from(file)
        .parent()
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf);
    let ctx = CkptContext {
        dir,
        cadence,
        keep: CKPT_KEEP,
    };
    run_checkpointed(&experiment_for(b.suite), &b, secure, &ctx, &budget)
}

fn cmd_matrix(suite: &str, bench: &str, jobs: usize) -> Result<ExitCode, String> {
    let b = benchmark(suite, bench)?;
    let exp = experiment_for(b.suite);
    let (mut matrices, _) = exp.run_matrices(std::slice::from_ref(&b), jobs);
    let m = matrices.remove(0);
    let mut t = Table::new(&["scheme", "cycles", "IPC", "normalized", "tainted loads"]);
    for (scheme, r) in SecureConfig::ALL.iter().zip(m.results()) {
        t.row(&[
            scheme.label(),
            r.cycles.to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.3}", m.normalized_ipc(r)),
            r.guarded_loads().to_string(),
        ]);
    }
    println!("{} ({}):", b.name, b.suite);
    print!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

fn cmd_suite(suite: &str, jobs: usize, rest: &[&str]) -> Result<ExitCode, String> {
    let suite = Suite::parse(suite)?;
    let (ctx, budget) = run_flags(&SUITE_FLAGS, rest)?;
    let benchmarks = recon_workloads::benchmarks(suite, scale());
    // The tag namespaces this suite's jobs in the checkpoint dir; scale
    // is folded in so quick/paper runs never share records.
    let tag = format!("suite:{}:{}", suite.name(), scale().label());
    let persist = ctx.as_ref().map(|ctx| (ctx, tag.as_str()));
    let (matrices, batch) =
        experiment_for(suite).run_matrices_with(&benchmarks, jobs, &budget, persist);
    let mut t = Table::new(&[
        "benchmark",
        "unsafe IPC",
        "NDA",
        "NDA+ReCon",
        "STT",
        "STT+ReCon",
    ]);
    let (mut on, mut onr, mut os, mut osr) = (vec![], vec![], vec![], vec![]);
    for m in &matrices {
        let nda = m.normalized_ipc(&m.nda);
        let ndar = m.normalized_ipc(&m.nda_recon);
        let stt = m.normalized_ipc(&m.stt);
        let sttr = m.normalized_ipc(&m.stt_recon);
        on.push((1.0 - nda).max(0.0));
        onr.push((1.0 - ndar).max(0.0));
        os.push((1.0 - stt).max(0.0));
        osr.push((1.0 - sttr).max(0.0));
        t.row(&[
            m.name.into(),
            format!("{:.3}", m.baseline.ipc()),
            format!("{nda:.3}"),
            format!("{ndar:.3}"),
            format!("{stt:.3}"),
            format!("{sttr:.3}"),
        ]);
    }
    println!("{suite} (normalized IPC, five-way matrix):");
    print!("{}", t.render());
    println!();
    println!(
        "mean overhead: NDA {:.1}% -> NDA+ReCon {:.1}%  |  STT {:.1}% -> STT+ReCon {:.1}%",
        recon_sim::mean(&on) * 100.0,
        recon_sim::mean(&onr) * 100.0,
        recon_sim::mean(&os) * 100.0,
        recon_sim::mean(&osr) * 100.0,
    );
    println!(
        "{} jobs on {} workers: wall {:.2}s, serial-sum {:.2}s, est. speedup {:.2}x",
        batch.job_count(),
        batch.jobs,
        batch.wall_seconds,
        batch.serial_seconds(),
        batch.speedup(),
    );
    if let Some(ff) = budget.fast_forward {
        println!("(each job fast-forwarded {ff} instructions functionally before detailed timing)");
    }
    let mut jt = Table::new(&["benchmark", "scheme", "seconds", "instructions", "MIPS"]);
    for t in &batch.timings {
        jt.row(&[
            t.bench.into(),
            t.config.label(),
            format!("{:.3}", t.seconds),
            t.instructions.to_string(),
            format!("{:.2}", t.mips()),
        ]);
    }
    println!("per-job throughput:");
    print!("{}", jt.render());
    let dropped: u64 = matrices
        .iter()
        .flat_map(|m| m.results().map(SystemResult::trace_dropped))
        .sum();
    println!("trace events dropped: {dropped}");
    if let Some(s) = &batch.ckpt {
        println!(
            "checkpoints: {} jobs from result cache, {} resumed mid-run, {} written, {} GC'd, {} corrupt dropped",
            s.cached, s.resumed, s.written, s.gc_deleted, s.dropped_corrupt
        );
    }
    let failures = batch.failures();
    if !failures.is_empty() {
        println!(
            "{} job(s) FAILED (benchmark omitted from tables):",
            failures.len()
        );
        for (bench, config, msg) in &failures {
            println!("  {bench} under {config}: {msg}");
        }
    }
    match batch.write_json("BENCH_runner.json") {
        Ok(()) => println!("per-job timings written to BENCH_runner.json"),
        Err(e) => eprintln!("warning: could not write BENCH_runner.json: {e}"),
    }
    Ok(ExitCode::SUCCESS)
}

const FUZZ_FLAGS: FlagSpec = FlagSpec {
    command: "fuzz",
    valued: &[
        "--seed",
        "--count",
        "--watchdog-cycles",
        "--out-dir",
        "--json",
    ],
    switches: &["--quick", "--inject-amo-bug"],
};

/// `recon fuzz`: seeded differential torture campaign. Generates
/// random-but-valid programs, runs each through the five oracles
/// (functional equality, scheme invariance, snapshot identity,
/// watchdog-clean termination, invariant-audit cleanliness), shrinks
/// any failure to a minimal `.asm` repro, and exits non-zero if
/// anything failed.
fn cmd_fuzz(rest: &[&str], jobs: usize) -> Result<ExitCode, String> {
    let flags = Flags::parse(&FUZZ_FLAGS, rest)?;
    let mut cfg = recon_fuzz::FuzzConfig {
        jobs,
        quick: flags.has("--quick"),
        out_dir: flags.get("--out-dir").map(PathBuf::from),
        ..recon_fuzz::FuzzConfig::default()
    };
    // Test hook: reintroduce the historical AMO issue gate so the
    // watchdog/shrinker pipeline can be demonstrated end-to-end against
    // a known deadlock.
    if flags.has("--inject-amo-bug") {
        cfg.oracle.core.amo_empty_sq_bug = true;
    }
    cfg.seed = flags.seed(cfg.seed)?;
    cfg.count = flags.count("--count", cfg.count)?;
    // The stall oracle is the point of the exercise, so the window must
    // stay finite here (no 0 = off).
    if let Some(n) = flags.positive("--watchdog-cycles", "a positive cycle count")? {
        cfg.oracle.watchdog_cycles = n;
    }
    let json_path = flags.get("--json");
    println!(
        "fuzzing: seed {}, {} program(s), {} oracle(s){}",
        cfg.seed,
        cfg.count,
        if cfg.quick { 4 } else { 5 },
        if cfg.quick {
            " (quick: snapshot oracle off)"
        } else {
            ""
        }
    );
    let report = recon_fuzz::run_fuzz(&cfg);
    for f in &report.failures {
        println!(
            "FAILURE program {} [{}]: shrunk {} -> {} instructions{}",
            f.index,
            f.kind,
            f.original_len,
            f.shrunk_len,
            if f.shrink_timed_out {
                " (shrink deadline hit; repro may not be minimal)"
            } else {
                ""
            }
        );
        for line in f.detail.lines() {
            println!("  {line}");
        }
        match &f.repro_path {
            Some(p) => println!("  repro written to {}", p.display()),
            None => println!("  (pass --out-dir to write an .asm repro)"),
        }
    }
    println!(
        "{} program(s) in {:.2}s ({:.1}/s), {} failure(s)",
        report.count,
        report.elapsed_secs,
        report.programs_per_sec,
        report.failures.len()
    );
    if let Some(path) = json_path {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("report written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const AUDIT_FLAGS: FlagSpec = FlagSpec {
    command: "audit",
    valued: &["--seed", "--faults", "--audit", "--out"],
    switches: &["--quick", "--demo"],
};

/// `recon audit`: the silent-corruption defense campaign. Injects
/// seeded soft errors (SplitMix64 bit-flips) into reveal masks, MESI
/// directory state, LPT entries, regfile values, and checkpoint bytes
/// mid-run, with the invariant auditor sweeping at a configurable
/// cadence, and proves every unmasked fault is detected — by the
/// auditor, an architectural-digest mismatch, checkpoint rejection,
/// the watchdog, or a contained crash. A silent corruption or a
/// false positive on the fault-free control runs fails the command.
fn cmd_audit(rest: &[&str]) -> Result<ExitCode, String> {
    let flags = Flags::parse(&AUDIT_FLAGS, rest)?;
    let mut cfg = recon_sim::CampaignConfig::default();
    let (quick, demo) = (flags.has("--quick"), flags.has("--demo"));
    if quick {
        cfg.faults = 25;
    }
    // One fault per site: the smallest campaign that still demonstrates
    // an injected fault being caught (CI smoke).
    if demo {
        cfg.faults = recon_sim::FaultSite::ALL.len();
    }
    cfg.seed = flags.seed(cfg.seed)?;
    cfg.faults = flags.count("--faults", cfg.faults)?;
    if let Some(n) = flags.positive("--audit", "a positive cycle cadence")? {
        cfg.audit_every = n;
    }
    // Only a full campaign writes the committed record by default; a
    // quick or demo campaign writes a report only where --out names one.
    let out = flags
        .get("--out")
        .or((!quick && !demo).then_some("BENCH_audit.json"));
    println!(
        "audit campaign: seed {}, {} fault(s) across {} site(s), sweep every {} cycles",
        cfg.seed,
        cfg.faults,
        recon_sim::FaultSite::ALL.len(),
        cfg.audit_every
    );
    let report = recon_sim::run_campaign(&cfg);
    let mut t = Table::new(&[
        "site", "injected", "audit", "digest", "ckpt", "stall", "crash", "masked", "silent",
        "mean lat", "max lat",
    ]);
    for (site, s) in &report.sites {
        t.row(&[
            site.name().into(),
            s.injected.to_string(),
            s.detected_audit.to_string(),
            s.detected_digest.to_string(),
            s.detected_ckpt_reject.to_string(),
            s.detected_stall.to_string(),
            s.detected_crash.to_string(),
            s.masked.to_string(),
            s.silent.to_string(),
            format!("{:.0}", s.latency_mean()),
            s.latency_max.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "injected {}: {} detected, {} masked (digest matches fault-free), {} silent | \
         {} no-target skip(s), {} false positive(s)",
        report.injected(),
        report.detected(),
        report.masked(),
        report.silent(),
        report.no_target,
        report.false_positives
    );
    if let Some(out) = out {
        match std::fs::write(out, report.to_json()) {
            Ok(()) => println!("report written to {out}"),
            Err(e) => eprintln!("warning: could not write {out}: {e}"),
        }
    }
    if report.false_positives > 0 {
        return Err(format!(
            "{} fault-free run(s) tripped the auditor (false positives)",
            report.false_positives
        ));
    }
    if report.silent() > 0 {
        return Err(format!(
            "{} fault(s) corrupted the architectural result undetected",
            report.silent()
        ));
    }
    if demo && report.detected() == 0 {
        return Err("demo campaign detected none of its injected faults".into());
    }
    println!("silent-corruption defense holds: every unmasked fault detected, 0 false positives");
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(suite: &str, bench: &str) -> Result<ExitCode, String> {
    let b = benchmark(suite, bench)?;
    if b.workload.num_threads() != 1 {
        return Err("leakage analysis runs on single-thread benchmarks".into());
    }
    let r = recon_dift::analyze_program(&b.workload.program, 200_000_000)
        .map_err(|e| format!("analysis failed: {e}"))?;
    println!("{}:", b.name);
    println!("  instructions analyzed  {}", r.instructions);
    println!("  touched words          {}", r.touched_words);
    println!(
        "  DIFT leakage           {} ({:.1}%)",
        r.dift_leaked,
        r.dift_fraction() * 100.0
    );
    println!(
        "  load-pair leakage      {} ({:.1}%)",
        r.pair_leaked,
        r.pair_fraction() * 100.0
    );
    println!("  pair coverage of DIFT  {:.1}%", r.coverage() * 100.0);
    Ok(ExitCode::SUCCESS)
}

const VERIFY_FLAGS: FlagSpec = FlagSpec {
    command: "verify",
    valued: &["--gadget", "--scheme", "--fast-forward"],
    switches: &["--embedded"],
};

/// Runs the two-trace checker over the selected gadgets and schemes;
/// non-zero exit on any violated expectation so CI can gate on it.
fn cmd_verify(args: &[&str], jobs: usize) -> Result<ExitCode, String> {
    let flags = Flags::parse(&VERIFY_FLAGS, args)?;
    let gadget = flags.get("--gadget");
    if let Some(g) = gadget.filter(|g| recon_verify::gadget::find(g).is_none()) {
        let names: Vec<_> = recon_verify::gadget::all_with_embedded()
            .iter()
            .map(|g| g.name)
            .collect();
        return Err(format!("unknown gadget '{g}' ({})", names.join("|")));
    }
    let scheme = flags.get("--scheme").map(parse_scheme).transpose()?;
    let ff = flags.positive("--fast-forward", "a positive instruction count")?;
    let budget = Budget {
        fast_forward: ff,
        ..Budget::default()
    };
    if let Some(n) = ff {
        println!(
            "(functional fast-forward: {n} instructions before each soundness \
             run; gadget cells always run fully detailed — warmup would skip \
             the leaks they exist to catch)"
        );
    }
    let report = recon_verify::run_matrix_budgeted_with(
        gadget,
        scheme,
        jobs,
        &budget,
        flags.has("--embedded"),
    );
    let mut t = Table::new(&[
        "gadget",
        "scheme",
        "verdict",
        "expected",
        "first divergence",
    ]);
    for cell in &report.cells {
        let r = &cell.result;
        t.row(&[
            r.gadget.into(),
            r.scheme.label(),
            r.verdict.to_string(),
            cell.expected.to_string(),
            match (&r.divergence, r.seq_equal) {
                (Some(d), true) => d.to_string(),
                (Some(_), false) => "(leaks architecturally; not speculative)".into(),
                (None, _) => "-".into(),
            },
        ]);
    }
    print!("{}", t.render());
    for l in &report.lifts {
        println!(
            "already-leaked cost: {} delayed {} tainted {} cycles {}  vs  {} delayed {} tainted {} cycles {}  [{}]",
            l.base.label(),
            l.delayed_base,
            l.guarded_base,
            l.cycles_base,
            l.with_recon.label(),
            l.delayed_recon,
            l.guarded_recon,
            l.cycles_recon,
            if l.pass() { "ok" } else { "FAIL" },
        );
    }
    let mut sound_ok = true;
    if gadget.is_none() && scheme.is_none() {
        for run in recon_verify::soundness_sweep_budgeted(jobs, &budget) {
            let ok = run.violations.is_empty();
            sound_ok &= ok;
            println!(
                "reveal soundness: {} ({}) under {}: {}",
                run.name,
                run.suite,
                run.scheme.label(),
                if ok {
                    "ok".to_string()
                } else {
                    format!("{} violations", run.violations.len())
                },
            );
        }
    }
    let unexpected = report.unexpected();
    for u in &unexpected {
        eprintln!("UNEXPECTED: {u}");
    }
    if !unexpected.is_empty() || !sound_ok {
        return Err(format!("{} violated expectations", unexpected.len()));
    }
    println!(
        "security claim holds: {} cells as expected",
        report.cells.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_overhead() -> ExitCode {
    use recon::overhead::{lpt_bytes, lpt_tagged_bytes, mask_overhead_fraction};
    println!("LPT (180 pregs): {} B", lpt_bytes(180));
    println!("LPT (224 pregs): {} B", lpt_bytes(224));
    println!("LPT/2 tagged (90): {} B", lpt_tagged_bytes(90));
    let paper = MemConfig::paper();
    let total = paper.l1.capacity_bytes() + paper.l2.capacity_bytes() + paper.llc.capacity_bytes();
    println!(
        "mask overhead: {:.2}% of cache storage",
        mask_overhead_fraction(total) * 100.0
    );
    ExitCode::SUCCESS
}

const SERVE_FLAGS: FlagSpec = FlagSpec {
    command: "serve",
    valued: &[
        "--addr",
        "--workers",
        "--queue-cap",
        "--handler-cap",
        "--chaos",
        "--cache-dir",
        "--checkpoint-every",
        "--node",
    ],
    switches: &[],
};

fn cmd_serve(args: &[&str], jobs: usize) -> Result<ExitCode, String> {
    let flags = Flags::parse(&SERVE_FLAGS, args)?;
    let mut config = recon_serve::ServeConfig {
        workers: jobs,
        chaos: flags.get("--chaos").map(str::to_string),
        cache_dir: flags.get("--cache-dir").map(PathBuf::from),
        node_id: flags.get("--node").map(str::to_string),
        ..recon_serve::ServeConfig::default()
    };
    if let Some(addr) = flags.get("--addr") {
        config.addr = addr.to_string();
    }
    config.workers = flags.count("--workers", config.workers)?;
    config.queue_cap = flags.count("--queue-cap", config.queue_cap)?;
    config.handler_cap = flags.count("--handler-cap", config.handler_cap)?;
    if let Some(n) = flags.positive("--checkpoint-every", "a positive cycle count")? {
        config.checkpoint_every_cycles = n;
    }
    let server = recon_serve::Server::start(&config)
        .map_err(|e| format!("could not bind {}: {e}", config.addr))?;
    println!(
        "recon-serve listening on http://{} ({} workers, queue capacity {})",
        server.addr(),
        config.workers,
        config.queue_cap
    );
    if let Some(spec) = &config.chaos {
        println!("  chaos plane armed: {spec}");
    }
    if let Some(dir) = &config.cache_dir {
        println!("  crash-safe cache at {}", dir.display());
        println!(
            "  run-job checkpoints every {} cycles (killed jobs resume on restart)",
            config.checkpoint_every_cycles
        );
    }
    if let Some(id) = &config.node_id {
        println!("  cluster node id: {id} (metric samples carry node=\"{id}\")");
    }
    println!("  POST /jobs       submit run|matrix|analyze|verify jobs");
    println!("  POST /jobs/batch submit up to 64 specs in one request");
    println!("  POST /cache      accept a replicated result payload");
    println!("  POST /migrate    accept a shipped RCK1 checkpoint and resume it");
    println!("  POST /drain      cancel work and ship checkpoints to a peer");
    println!("  GET  /metrics    Prometheus text format");
    println!("  GET  /healthz    liveness");
    println!("  POST /shutdown   graceful drain (or {{\"mode\":\"abort\"}})");
    server.wait();
    println!("recon-serve: drained and stopped");
    Ok(ExitCode::SUCCESS)
}

const GATEWAY_FLAGS: FlagSpec = FlagSpec {
    command: "gateway",
    valued: &[
        "--addr",
        "--nodes",
        "--vnodes",
        "--handler-cap",
        "--no-replicate",
    ],
    switches: &[],
};

fn cmd_gateway(args: &[&str]) -> Result<ExitCode, String> {
    let flags = Flags::parse(&GATEWAY_FLAGS, args)?;
    let mut config = recon_cluster::GatewayConfig::default();
    if let Some(addr) = flags.get("--addr") {
        config.addr = addr.to_string();
    }
    if let Some(nodes) = flags.get("--nodes") {
        config.nodes = nodes
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
    }
    config.vnodes = flags.count("--vnodes", config.vnodes)?;
    config.handler_cap = flags.count("--handler-cap", config.handler_cap)?;
    if flags.parse_as("--no-replicate", "true|false", |_| true)? == Some(true) {
        config.replicate = false;
    }
    let gateway = recon_cluster::Gateway::start(&config)
        .map_err(|e| format!("could not start gateway: {e}"))?;
    println!(
        "recon-gateway listening on http://{} over {} node(s), {} vnodes each",
        gateway.addr(),
        config.nodes.len(),
        config.vnodes
    );
    for node in &config.nodes {
        println!("  node {node}");
    }
    println!("  POST /jobs       route a job to its digest's primary node");
    println!("  POST /jobs/batch fan a batch across the ring");
    println!("  GET  /cluster    ring membership and per-node health");
    println!("  GET  /metrics    gateway + per-node routing counters");
    println!("  GET  /healthz    liveness");
    println!("  POST /shutdown   stop the gateway (nodes keep running)");
    gateway.wait();
    println!("recon-gateway: stopped");
    Ok(ExitCode::SUCCESS)
}

const CLUSTER_CHAOS_FLAGS: FlagSpec = FlagSpec {
    command: "cluster chaos",
    valued: &["--seed", "--nodes", "--clients", "--requests", "--out"],
    switches: &[],
};

/// `recon chaos --nodes N`: the cluster storm — real node processes,
/// SIGKILL + restart and drain-driven checkpoint migration, written to
/// `BENCH_cluster.json`.
fn cmd_chaos_cluster(args: &[&str]) -> Result<ExitCode, String> {
    let flags = Flags::parse(&CLUSTER_CHAOS_FLAGS, args)?;
    let node_exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the recon binary: {e}"))?;
    let d = recon_cluster::ClusterStormConfig::default();
    let config = recon_cluster::ClusterStormConfig {
        node_exe,
        seed: flags.seed(d.seed)?,
        nodes: flags.count("--nodes", d.nodes)?,
        clients: flags.count("--clients", d.clients)?,
        requests: flags.count("--requests", d.requests)?,
        out: flags.get("--out").map(str::to_string).or(d.out),
        ..d
    };
    let report = recon_cluster::run_cluster_storm(&config)
        .map_err(|e| format!("cluster storm failed: {e}"))?;
    println!(
        "cluster chaos: seed {} | {} nodes | {} clients x {} requests",
        report.seed, report.nodes, report.clients, report.requests_per_client
    );
    println!(
        "  ok {}  deadline {}  mismatches {}  lost {}  retries {}",
        report.ok, report.deadline, report.mismatches, report.lost, report.retries
    );
    println!(
        "  kills {}  restarts {}  orphan resumed after restart: {}",
        report.kills, report.restarts, report.kill_orphan_resumed
    );
    println!(
        "  migration: {} checkpoint(s) shipped, successor accepted {}, resumed {}, byte-identical: {}",
        report.migrated,
        report.successor_migrations_in,
        report.successor_resumes,
        report.migrated_byte_identical
    );
    println!(
        "  gateway: {} transport reroutes, {} off-primary serves, {} replications",
        report.reroutes, report.gateway_reroutes, report.replications
    );
    println!("  wall {:.2}s", report.wall_seconds);
    if let Some(path) = &config.out {
        println!("report written to {path}");
    }
    if !report.pass() {
        return Err(
            "cluster storm failed: responses lost/mismatched or no provable cross-node resume"
                .into(),
        );
    }
    println!(
        "cluster storm: 0 lost, 0 mismatched — a killed node rerouted and a drained node's \
         checkpoint resumed on its ring successor byte-identically"
    );
    Ok(ExitCode::SUCCESS)
}

const CHAOS_FLAGS: FlagSpec = FlagSpec {
    command: "chaos",
    valued: &[
        "--seed",
        "--clients",
        "--requests",
        "--workers",
        "--faults",
        "--out",
    ],
    switches: &[],
};

fn cmd_chaos(args: &[&str], jobs: usize) -> Result<ExitCode, String> {
    // `--nodes N` switches to the cluster storm: real node processes
    // behind a gateway instead of synthetic faults inside one process.
    if args.contains(&"--nodes") {
        return cmd_chaos_cluster(args);
    }
    let flags = Flags::parse(&CHAOS_FLAGS, args)?;
    let d = recon_serve::ChaosStormConfig::default();
    let config = recon_serve::ChaosStormConfig {
        seed: flags.seed(d.seed)?,
        clients: flags.count("--clients", d.clients)?,
        requests: flags.count("--requests", d.requests)?,
        workers: flags.count("--workers", jobs)?,
        faults: flags.get("--faults").map_or(d.faults, str::to_string),
        out: flags.get("--out").map(str::to_string).or(d.out),
    };
    let report =
        recon_serve::run_chaos_storm(&config).map_err(|e| format!("chaos storm failed: {e}"))?;
    println!(
        "chaos: seed {} | {} clients x {} requests | faults {}",
        report.seed, report.clients, report.requests_per_client, report.faults
    );
    println!(
        "  ok {}  deadline {}  mismatches {}  lost {}  retries {}  reconnects {}",
        report.ok,
        report.deadline,
        report.mismatches,
        report.lost,
        report.retries,
        report.reconnects
    );
    let injected: Vec<String> = report
        .injected
        .iter()
        .map(|(site, n)| format!("{site} {n}"))
        .collect();
    println!(
        "  injected {} ({})",
        report.injected_total,
        injected.join(", ")
    );
    println!(
        "  worker restarts {}  singleflight joins {}  cache {} hits / {} misses  wall {:.2}s",
        report.worker_restarts,
        report.singleflight_joined,
        report.cache_hits,
        report.cache_misses,
        report.wall_seconds
    );
    if let Some(path) = &config.out {
        println!("report written to {path}");
    }
    if !report.pass() {
        return Err("chaos storm lost or corrupted responses".into());
    }
    println!("chaos storm: 0 lost, 0 mismatched — service healed every injected fault");
    Ok(ExitCode::SUCCESS)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::FAILURE
}

/// Takes `--jobs N` out of the argument list, wherever it appears,
/// returning the remaining arguments and the worker count (default:
/// `RECON_JOBS` or the host parallelism).
fn split_jobs<'a>(args: &[&'a str]) -> Result<(Vec<&'a str>, usize), String> {
    let Some(at) = args.iter().position(|&a| a == "--jobs") else {
        return jobs_from_env().map(|jobs| (args.to_vec(), jobs));
    };
    let n = args.get(at + 1).copied().unwrap_or("");
    let jobs: usize = n
        .parse()
        .ok()
        .filter(|&j| j >= 1)
        .ok_or_else(|| format!("--jobs wants a positive integer, got '{n}'"))?;
    let mut rest = args[..at].to_vec();
    rest.extend_from_slice(&args[(at + 2).min(args.len())..]);
    Ok((rest, jobs))
}

/// Ends the process quietly with exit 0 when a write to stdout finds it
/// closed (`recon asm f --dump | head -1`), as a Unix filter does,
/// instead of the panic `println!` raises on the failed write. Every
/// other panic reports as before.
fn quiet_on_closed_stdout() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        report(info);
    }));
}

fn main() -> ExitCode {
    quiet_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    dispatch(&args).unwrap_or_else(|e| fail(&e))
}

fn dispatch(args: &[&str]) -> Result<ExitCode, String> {
    let (args, jobs) = split_jobs(args)?;
    match args.as_slice() {
        ["list", rest @ ..] => no_flags("list", rest).map(|()| cmd_list()),
        ["workloads", rest @ ..] => cmd_workloads(rest),
        ["asm", file, rest @ ..] => cmd_asm(file, rest),
        ["run", suite, bench, scheme, rest @ ..] => cmd_run(suite, bench, scheme, rest),
        ["run" | "matrix", suite, bench, rest @ ..] => {
            no_flags("matrix", rest)?;
            cmd_matrix(suite, bench, jobs)
        }
        ["resume", file, rest @ ..] => {
            no_flags("resume", rest)?;
            cmd_resume(file)
        }
        ["suite", suite, rest @ ..] => cmd_suite(suite, jobs, rest),
        ["fuzz", rest @ ..] => cmd_fuzz(rest, jobs),
        ["audit", rest @ ..] => cmd_audit(rest),
        ["analyze", suite, bench, rest @ ..] => {
            no_flags("analyze", rest)?;
            cmd_analyze(suite, bench)
        }
        ["verify", rest @ ..] => cmd_verify(rest, jobs),
        ["overhead", rest @ ..] => no_flags("overhead", rest).map(|()| cmd_overhead()),
        ["serve", rest @ ..] => cmd_serve(rest, jobs),
        ["gateway", rest @ ..] => cmd_gateway(rest),
        ["chaos", rest @ ..] => cmd_chaos(rest, jobs),
        _ => Ok(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checkpoint key of `recon run spec2017 mcf stt --checkpoint D`
    /// at quick scale, under the given warmup and audit cadence.
    fn mcf_key(ff: Option<u64>, audit: Option<u64>) -> u64 {
        let budget = Budget {
            fast_forward: ff,
            audit_every_cycles: audit,
            ..Budget::default()
        };
        mcf_record(&budget).0
    }

    fn mcf_record(budget: &Budget) -> (u64, Vec<(String, String)>) {
        run_record(
            Suite::Spec2017,
            "mcf",
            SecureConfig::stt(),
            DEFAULT_CKPT_EVERY,
            budget,
        )
    }

    #[test]
    fn run_and_suite_reject_unknown_flags() {
        assert_eq!(
            run_flags(&RUN_FLAGS, &["--fast-foward", "1000"]).unwrap_err(),
            "unknown run flag '--fast-foward' — did you mean '--fast-forward'?"
        );
        assert_eq!(
            run_flags(&SUITE_FLAGS, &["--audit", "64", "--bogus", "1"]).unwrap_err(),
            "unknown suite flag '--bogus'"
        );
        let (_, budget) = run_flags(&RUN_FLAGS, &["--fast-forward", "1000"]).unwrap();
        assert_eq!(budget.fast_forward, Some(1000));
    }

    #[test]
    fn usage_states_the_default_watchdog_window() {
        let default = format!("(default {};", recon_sim::DEFAULT_WATCHDOG_CYCLES);
        assert!(USAGE.contains(&default), "{USAGE}");
    }

    #[test]
    fn jobs_is_taken_at_any_position() {
        let rest = ["suite", "corpus", "--audit", "64"];
        for args in [
            ["--jobs", "2", "suite", "corpus", "--audit", "64"],
            ["suite", "corpus", "--jobs", "2", "--audit", "64"],
            ["suite", "corpus", "--audit", "64", "--jobs", "2"],
        ] {
            assert_eq!(split_jobs(&args).unwrap(), (rest.to_vec(), 2), "{args:?}");
        }
        assert_eq!(
            split_jobs(&["suite", "corpus", "--jobs", "0", "--audit", "64"]).unwrap_err(),
            "--jobs wants a positive integer, got '0'"
        );
        assert_eq!(
            split_jobs(&["suite", "corpus", "--jobs"]).unwrap_err(),
            "--jobs wants a positive integer, got ''"
        );
    }

    #[test]
    fn unknown_suites_list_every_suite_with_a_hint() {
        assert_eq!(
            benchmark("corpsu", "memref").unwrap_err(),
            "unknown suite 'corpsu' (spec2017|spec2006|parsec|corpus) — did you mean 'corpus'?"
        );
    }

    #[test]
    fn run_keys_are_stable() {
        // These name `.rck` and `.res` files already on disk.
        assert_eq!(scale().label(), "quick", "run with RECON_SCALE unset");
        assert_eq!(mcf_key(None, None), 0xf704_28d2_06d8_16ff);
        assert_eq!(mcf_key(Some(1000), None), 0x9f7f_3aa7_accf_d525);
        assert_eq!(mcf_key(None, Some(4096)), 0x9f38_383a_a2bb_7a5b);
        assert_eq!(mcf_key(Some(1000), Some(4096)), 0x9526_9b05_c145_36da);
    }

    #[test]
    fn resume_restores_the_recorded_budget_and_key() {
        let budget = Budget {
            fast_forward: Some(1000),
            watchdog_cycles: Some(20),
            audit_every_cycles: Some(4096),
            ..Budget::default()
        };
        let (digest, meta) = mcf_record(&budget);
        let ck = ckpt::Checkpoint {
            config_digest: digest,
            cycle: 0,
            meta,
            state: Vec::new(),
        };
        let resumed = budget_from_meta(&ck);
        assert_eq!(resumed.watchdog_cycles, Some(20));
        assert_eq!(mcf_record(&resumed).0, digest);
        assert_ne!(
            mcf_key(Some(1000), Some(4096)),
            digest,
            "the window keys the run"
        );
    }
}
