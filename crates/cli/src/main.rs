//! `recon` — command-line driver for the ReCon reproduction.
//!
//! ```text
//! recon list                         list all benchmark stand-ins
//! recon workloads --list             same table, stable flag spelling
//! recon asm <file> [--dump] [--run SCHEME]  assemble a .asm program,
//!           [--fast-forward N]       optionally run + self-check it
//! recon run <suite> <bench> [scheme] run one benchmark (default: matrix)
//!           [--checkpoint D] [--checkpoint-every CYC] [--audit CYC]
//! recon resume <file.rck>            continue a checkpointed run
//! recon matrix <suite> <bench>       run all five scheme configurations
//! recon suite <suite> [--jobs N]     five-way matrix on a whole suite
//!             [--checkpoint D]       (crash-safe: re-running resumes)
//! recon audit [--seed S] [--faults N] soft-error injection campaign ->
//!             [--audit CYC] [--demo]  BENCH_audit.json detection latencies
//! recon analyze <suite> <bench>      Clueless-style leakage report
//! recon verify [--gadget G] [--scheme S] [--embedded]
//!                                    two-trace security checker
//! recon overhead                     §6.7 storage accounting
//! recon serve [--addr A] [--workers N] [--queue-cap Q] [--handler-cap H]
//!             [--chaos SPEC] [--cache-dir D] [--checkpoint-every CYC]
//!             [--node ID]            HTTP job service (see recon-serve)
//! recon gateway --nodes H:P,...      consistent-hash cluster front door
//! recon bench-serve [--clients C] [--requests R] [--queue-cap Q]
//!                                    loopback load generator -> BENCH_serve.json
//! recon chaos [--seed S] [--clients C] [--requests R] [--faults F]
//!                                    seeded fault storm -> BENCH_chaos.json
//! recon chaos --nodes N              cluster storm: SIGKILL/restart + drain
//!                                    migration -> BENCH_cluster.json
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

use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_serve::job::experiment_for;
use recon_sim::ckpt::{self, CkptContext};
use recon_sim::report::Table;
use recon_sim::{
    jobs_from_env, Budget, Experiment, SimError, System, SystemResult, DEFAULT_WATCHDOG_CYCLES,
};
use recon_workloads::{
    corpus, parsec, spec2006, spec2017, Benchmark, Scale, Suite, ThreadSpec, Workload,
};

fn scale() -> Scale {
    Scale::from_env()
}

fn scale_label() -> &'static str {
    match scale() {
        Scale::Quick => "quick",
        Scale::Paper => "paper",
    }
}

/// Default checkpoint cadence in simulated cycles when `--checkpoint`
/// is given without `--checkpoint-every`.
const DEFAULT_CKPT_EVERY: u64 = 500_000;

/// Checkpoints retained per job while it runs.
const CKPT_KEEP: usize = 3;

/// Suite names the CLI accepts, in display order.
const SUITE_NAMES: [&str; 4] = ["spec2017", "spec2006", "parsec", "corpus"];

fn parse_suite(name: &str) -> Option<(Suite, Vec<Benchmark>)> {
    match name.to_ascii_lowercase().as_str() {
        "spec2017" => Some((Suite::Spec2017, spec2017(scale()))),
        "spec2006" => Some((Suite::Spec2006, spec2006(scale()))),
        "parsec" => Some((Suite::Parsec, parsec(scale()))),
        "corpus" => Some((Suite::Corpus, corpus(scale()))),
        _ => None,
    }
}

/// ` — did you mean '..'?` when `input` is a near-miss of a candidate.
fn hint(input: &str, candidates: impl IntoIterator<Item = &'static str>) -> String {
    recon_asm::suggest(&input.to_ascii_lowercase(), candidates)
        .map_or_else(String::new, |s| format!(" — did you mean '{s}'?"))
}

fn unknown_suite(name: &str) -> String {
    format!(
        "unknown suite '{name}' ({}){}",
        SUITE_NAMES.join("|"),
        hint(name, SUITE_NAMES)
    )
}

/// Valid scheme spellings, for error messages.
const SCHEME_NAMES: &str = SecureConfig::PARSE_NAMES;

fn parse_scheme(name: &str) -> Option<SecureConfig> {
    SecureConfig::parse(name)
}

fn find_suite(name: &str) -> Result<(Suite, Vec<Benchmark>), String> {
    parse_suite(name).ok_or_else(|| unknown_suite(name))
}

fn find_bench(suite_name: &str, bench: &str) -> Result<(Suite, Benchmark), String> {
    let (suite, list) = find_suite(suite_name)?;
    let names: Vec<&'static str> = list.iter().map(|b| b.name).collect();
    let b = list
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(bench))
        .ok_or_else(|| format!("no benchmark '{bench}' in {suite}{}", hint(bench, names)))?;
    Ok((suite, b))
}

fn cmd_list() -> ExitCode {
    let mut t = Table::new(&["suite", "benchmark", "threads", "static instructions"]);
    for (_, list) in SUITE_NAMES.iter().filter_map(|s| parse_suite(s)) {
        for b in list {
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

/// `recon asm <file>`: assemble a text program and report what it
/// contains; `--dump` prints the canonical disassembly, `--run <scheme>`
/// executes it in the detailed simulator and reads back the corpus
/// self-check convention's digest/status words.
fn cmd_asm(file: &str, rest: &[&str]) -> ExitCode {
    let mut dump = false;
    let mut run: Option<SecureConfig> = None;
    let mut ff: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--dump" => dump = true,
            "--run" => {
                let Some(&value) = it.next() else {
                    return fail("--run wants a scheme");
                };
                match parse_scheme(value) {
                    Some(s) => run = Some(s),
                    None => return fail(&format!("unknown scheme '{value}' ({SCHEME_NAMES})")),
                }
            }
            "--fast-forward" => {
                let Some(&value) = it.next() else {
                    return fail("--fast-forward wants an instruction count");
                };
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => ff = Some(n),
                    _ => {
                        return fail(&format!(
                            "--fast-forward wants a positive instruction count, got '{value}'"
                        ))
                    }
                }
            }
            _ => return fail(&format!("unknown asm flag '{flag}'")),
        }
    }
    if ff.is_some() && run.is_none() {
        return fail("--fast-forward needs --run <scheme>");
    }
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {file}: {e}")),
    };
    let p = match recon_asm::assemble(&src) {
        Ok(p) => p,
        Err(e) => return fail(&format!("{file}: {e}")),
    };
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
    if dump {
        print!("{}", recon_asm::disassemble(&p));
    }
    let Some(secure) = run else {
        return ExitCode::SUCCESS;
    };
    let threads: Vec<ThreadSpec> = p
        .entries
        .iter()
        .map(|e| ThreadSpec {
            entry: e.entry,
            seeds: e.seeds.clone(),
        })
        .collect();
    let workload = Workload {
        program: p.program,
        threads,
    };
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
    let r = match sys.run_budgeted(exp.max_cycles, &budget) {
        Ok(r) => r,
        Err(e) => return fail(&format!("run did not complete: {e}")),
    };
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
        return ExitCode::SUCCESS;
    }
    println!("  self-check digest {digest:#018x}");
    if status == recon_asm::corpus::STATUS_PASS {
        println!("  self-check        pass");
        ExitCode::SUCCESS
    } else {
        fail(&format!("self-check FAILED (status {status:#x})"))
    }
}

/// `recon workloads [--list]`: enumerate every suite and workload with
/// static instruction counts, so nobody has to guess valid names.
fn cmd_workloads(rest: &[&str]) -> ExitCode {
    match rest {
        [] | ["--list"] => cmd_list(),
        _ => fail(&format!("unknown workloads flag(s) {rest:?} (try --list)")),
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

/// Parses `--fast-forward <instructions>` from already-split flag
/// pairs: the functional warmup length applied before detailed timing.
fn ff_from_pairs(pairs: &[(&str, &str)]) -> Result<Option<u64>, String> {
    match pairs.iter().find(|(f, _)| *f == "--fast-forward") {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .ok()
            .filter(|&n: &u64| n >= 1)
            .map(Some)
            .ok_or_else(|| format!("--fast-forward wants a positive instruction count, got '{v}'")),
    }
}

/// Parses `--watchdog-cycles <cycles>` from already-split flag pairs:
/// the liveness watchdog window. `0` disables the watchdog entirely;
/// unset keeps the default window (`DEFAULT_WATCHDOG_CYCLES`).
fn wd_from_pairs(pairs: &[(&str, &str)]) -> Result<Option<u64>, String> {
    match pairs.iter().find(|(f, _)| *f == "--watchdog-cycles") {
        None => Ok(None),
        Some((_, v)) => {
            v.parse().ok().map(Some).ok_or_else(|| {
                format!("--watchdog-cycles wants a cycle count (0 = off), got '{v}'")
            })
        }
    }
}

/// Prints the full stall or invariant-audit forensics before the
/// generic failure line, so a deadlocked or corrupted run explains
/// itself (per-core ROB-head + wait reason, or the violated-invariant
/// list) instead of dying with a bare error string.
fn print_stall_forensics(e: &SimError) {
    match e {
        SimError::Stalled { report, .. } => eprintln!("{report}"),
        SimError::InvariantViolated { report, .. } => eprintln!("{report}"),
        _ => {}
    }
}

/// Parses `--audit <cycles>` from already-split flag pairs: the
/// invariant-auditor sweep cadence. Unset leaves the auditor off (runs
/// are bit-identical either way — the sweep is pure observation).
fn audit_from_pairs(pairs: &[(&str, &str)]) -> Result<Option<u64>, String> {
    match pairs.iter().find(|(f, _)| *f == "--audit") {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .ok()
            .filter(|&n: &u64| n >= 1)
            .map(Some)
            .ok_or_else(|| format!("--audit wants a positive cycle cadence, got '{v}'")),
    }
}

/// Parses `--checkpoint <dir>` / `--checkpoint-every <cycles>` from
/// already-split flag pairs. `--checkpoint-every` without
/// `--checkpoint` is an error (it would silently do nothing).
fn ckpt_from_pairs(pairs: &[(&str, &str)]) -> Result<Option<CkptContext>, String> {
    let dir = pairs
        .iter()
        .find(|(f, _)| *f == "--checkpoint")
        .map(|(_, v)| PathBuf::from(*v));
    let every =
        match pairs.iter().find(|(f, _)| *f == "--checkpoint-every") {
            None => DEFAULT_CKPT_EVERY,
            Some((_, v)) => v.parse().ok().filter(|&n: &u64| n >= 1).ok_or_else(|| {
                format!("--checkpoint-every wants a positive cycle count, got '{v}'")
            })?,
        };
    match dir {
        Some(dir) => Ok(Some(CkptContext {
            dir,
            cadence: every,
            keep: CKPT_KEEP,
        })),
        None if pairs.iter().any(|(f, _)| *f == "--checkpoint-every") => {
            Err("--checkpoint-every needs --checkpoint <dir>".to_string())
        }
        None => Ok(None),
    }
}

/// The flags `recon run` and `recon suite` accept.
const RUN_FLAGS: [&str; 5] = [
    "--checkpoint",
    "--checkpoint-every",
    "--fast-forward",
    "--watchdog-cycles",
    "--audit",
];

/// Parses the flags `recon run` and `recon suite` (`command`) share:
/// the checkpoint context and the run budget (`--fast-forward`,
/// `--watchdog-cycles`, `--audit`). Any other flag is an error.
fn run_flags(
    command: &str,
    pairs: &[(&str, &str)],
) -> Result<(Option<CkptContext>, Budget), String> {
    if let Some((flag, _)) = pairs.iter().find(|(f, _)| !RUN_FLAGS.contains(f)) {
        return Err(format!(
            "unknown {command} flag '{flag}'{}",
            hint(flag, RUN_FLAGS)
        ));
    }
    Ok((
        ckpt_from_pairs(pairs)?,
        Budget {
            fast_forward: ff_from_pairs(pairs)?,
            watchdog_cycles: wd_from_pairs(pairs)?,
            audit_every_cycles: audit_from_pairs(pairs)?,
            ..Budget::default()
        },
    ))
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
        ("suite", suite.to_string().to_ascii_lowercase()),
        ("bench", bench.to_string()),
        ("scheme", secure.to_string()),
        ("scale", scale_label().to_string()),
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
    suite: Suite,
    b: &Benchmark,
    secure: SecureConfig,
    ctx: &CkptContext,
    budget: &Budget,
) -> ExitCode {
    let (digest, meta) = run_record(suite, b.name, secure, ctx.cadence, budget);
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
    match r {
        Ok(r) => {
            print_run_result(b.name, suite, secure, &r);
            if !info.result_cached {
                println!(
                    "  checkpoints       {} written, {} GC'd (cadence {})",
                    info.checkpoints_written, info.gc_deleted, ctx.cadence
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            print_stall_forensics(&e);
            if let Some(p) = &info.last_checkpoint {
                println!("resumable checkpoint left at {}", p.display());
            }
            fail(&format!("run did not complete: {e}"))
        }
    }
}

fn cmd_run(suite_name: &str, bench: &str, scheme: &str, rest: &[&str]) -> ExitCode {
    let (suite, b) = match find_bench(suite_name, bench) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let Some(secure) = parse_scheme(scheme) else {
        return fail(&format!("unknown scheme '{scheme}' ({SCHEME_NAMES})"));
    };
    let pairs = match parse_flag_pairs(rest) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (ctx, budget) = match run_flags("run", &pairs) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let exp = experiment_for(suite);
    if let Some(ctx) = ctx {
        return run_checkpointed(&exp, suite, &b, secure, &ctx, &budget);
    }
    let r = match exp.try_run(&b.workload, secure, &budget) {
        Ok(r) => r,
        Err(e) => {
            print_stall_forensics(&e);
            return fail(&format!("run did not complete: {e}"));
        }
    };
    if let Some(ff) = budget.fast_forward {
        println!("(functional fast-forward: {ff} instructions before detailed timing)");
    }
    print_run_result(b.name, suite, secure, &r);
    ExitCode::SUCCESS
}

/// Resumes a run from a checkpoint file written by
/// `recon run --checkpoint`: rebuilds the system from the checkpoint's
/// meta records, restores the newest valid checkpoint of that job in
/// the file's directory, and continues to completion (checkpointing
/// onward at the recorded cadence).
fn cmd_resume(file: &str) -> ExitCode {
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot read {file}: {e}")),
    };
    let ck = match ckpt::Checkpoint::decode(&bytes) {
        Ok(c) => c,
        Err(e) => return fail(&format!("{file} is not a valid checkpoint: {e}")),
    };
    if ck.meta("kind") != Some("run") {
        return fail(&format!(
            "{file} was not written by 'recon run --checkpoint' (kind={}); \
             resume it with the command that produced it",
            ck.meta("kind").unwrap_or("missing")
        ));
    }
    let (Some(suite_name), Some(bench), Some(scheme), Some(scale_want), Some(cadence)) = (
        ck.meta("suite"),
        ck.meta("bench"),
        ck.meta("scheme"),
        ck.meta("scale"),
        ck.meta("cadence").and_then(|c| c.parse::<u64>().ok()),
    ) else {
        return fail(&format!("{file} is missing resume metadata"));
    };
    if scale_want != scale_label() {
        return fail(&format!(
            "checkpoint was taken at RECON_SCALE={scale_want}, current scale is {}; \
             re-run with RECON_SCALE={scale_want}",
            scale_label()
        ));
    }
    let (suite, b) = match find_bench(suite_name, bench) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let Some(secure) = parse_scheme(scheme) else {
        return fail(&format!("checkpoint names unknown scheme '{scheme}'"));
    };
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
    run_checkpointed(&experiment_for(suite), suite, &b, secure, &ctx, &budget)
}

fn cmd_matrix(suite_name: &str, bench: &str, jobs: usize) -> ExitCode {
    let (suite, b) = match find_bench(suite_name, bench) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let exp = experiment_for(suite);
    let benches = [b];
    let (mut matrices, _) = exp.run_matrices(&benches, jobs);
    let m = matrices.remove(0);
    let b = &benches[0];
    let mut t = Table::new(&["scheme", "cycles", "IPC", "normalized", "tainted loads"]);
    for (name, r) in [
        ("unsafe", &m.baseline),
        ("NDA", &m.nda),
        ("NDA+ReCon", &m.nda_recon),
        ("STT", &m.stt),
        ("STT+ReCon", &m.stt_recon),
    ] {
        t.row(&[
            name.into(),
            r.cycles.to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.3}", m.normalized_ipc(r)),
            r.guarded_loads().to_string(),
        ]);
    }
    println!("{} ({suite}):", b.name);
    print!("{}", t.render());
    ExitCode::SUCCESS
}

fn cmd_suite(suite_name: &str, jobs: usize, rest: &[&str]) -> ExitCode {
    let (suite, benchmarks) = match find_suite(suite_name) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    let pairs = match parse_flag_pairs(rest) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let (ctx, budget) = match run_flags("suite", &pairs) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    // The tag namespaces this suite's jobs in the checkpoint dir; scale
    // is folded in so quick/paper runs never share records.
    let tag = format!(
        "suite:{}:{}",
        suite.to_string().to_ascii_lowercase(),
        scale_label()
    );
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
        .map(|m| {
            [&m.baseline, &m.nda, &m.nda_recon, &m.stt, &m.stt_recon]
                .iter()
                .map(|r| r.trace_dropped())
                .sum::<u64>()
        })
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
    ExitCode::SUCCESS
}

/// `recon fuzz`: seeded differential torture campaign. Generates
/// random-but-valid programs, runs each through the five oracles
/// (functional equality, scheme invariance, snapshot identity,
/// watchdog-clean termination, invariant-audit cleanliness), shrinks
/// any failure to a minimal `.asm` repro, and exits non-zero if
/// anything failed.
fn cmd_fuzz(rest: &[&str], jobs: usize) -> ExitCode {
    let mut cfg = recon_fuzz::FuzzConfig {
        jobs,
        ..recon_fuzz::FuzzConfig::default()
    };
    let mut json_path: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--quick" => {
                cfg.quick = true;
                continue;
            }
            // Test hook: reintroduce the historical AMO issue gate so
            // the watchdog/shrinker pipeline can be demonstrated
            // end-to-end against a known deadlock.
            "--inject-amo-bug" => {
                cfg.oracle.core.amo_empty_sq_bug = true;
                continue;
            }
            _ => {}
        }
        let Some(&value) = it.next() else {
            return fail(&format!("{flag} wants a value"));
        };
        match flag {
            "--seed" => match value.parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return fail(&format!("--seed wants an integer, got '{value}'")),
            },
            "--count" => match value.parse::<usize>().ok().filter(|&n| n >= 1) {
                Some(n) => cfg.count = n,
                None => return fail(&format!("--count wants a positive integer, got '{value}'")),
            },
            "--watchdog-cycles" => match value.parse::<u64>().ok().filter(|&n| n >= 1) {
                // The stall oracle is the point of the exercise, so the
                // window must stay finite here (no 0 = off).
                Some(n) => cfg.oracle.watchdog_cycles = n,
                None => {
                    return fail(&format!(
                        "--watchdog-cycles wants a positive cycle count, got '{value}'"
                    ))
                }
            },
            "--out-dir" => cfg.out_dir = Some(PathBuf::from(value)),
            "--json" => json_path = Some(PathBuf::from(value)),
            _ => return fail(&format!("unknown fuzz flag '{flag}'")),
        }
    }
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
    if let Some(path) = &json_path {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("report written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `recon audit`: the silent-corruption defense campaign. Injects
/// seeded soft errors (SplitMix64 bit-flips) into reveal masks, MESI
/// directory state, LPT entries, regfile values, and checkpoint bytes
/// mid-run, with the invariant auditor sweeping at a configurable
/// cadence, and proves every unmasked fault is detected — by the
/// auditor, an architectural-digest mismatch, checkpoint rejection,
/// the watchdog, or a contained crash. A silent corruption or a
/// false positive on the fault-free control runs fails the command.
fn cmd_audit(rest: &[&str]) -> ExitCode {
    let mut cfg = recon_sim::CampaignConfig::default();
    let mut out = "BENCH_audit.json".to_string();
    let mut demo = false;
    let mut it = rest.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--quick" => {
                cfg.faults = 25;
                continue;
            }
            // One fault per site: the smallest campaign that still
            // demonstrates an injected fault being caught (CI smoke).
            "--demo" => {
                demo = true;
                cfg.faults = recon_sim::FaultSite::ALL.len();
                continue;
            }
            _ => {}
        }
        let Some(&value) = it.next() else {
            return fail(&format!("{flag} wants a value"));
        };
        match flag {
            "--seed" => match value.parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => return fail(&format!("--seed wants an integer, got '{value}'")),
            },
            "--faults" => match value.parse::<usize>().ok().filter(|&n| n >= 1) {
                Some(n) => cfg.faults = n,
                None => return fail(&format!("--faults wants a positive integer, got '{value}'")),
            },
            "--audit" => match value.parse::<u64>().ok().filter(|&n| n >= 1) {
                Some(n) => cfg.audit_every = n,
                None => {
                    return fail(&format!(
                        "--audit wants a positive cycle cadence, got '{value}'"
                    ))
                }
            },
            "--out" => out = value.to_string(),
            _ => return fail(&format!("unknown audit flag '{flag}'")),
        }
    }
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
    if !demo {
        match std::fs::write(&out, report.to_json()) {
            Ok(()) => println!("report written to {out}"),
            Err(e) => eprintln!("warning: could not write {out}: {e}"),
        }
    }
    if report.false_positives > 0 {
        return fail(&format!(
            "{} fault-free run(s) tripped the auditor (false positives)",
            report.false_positives
        ));
    }
    if report.silent() > 0 {
        return fail(&format!(
            "{} fault(s) corrupted the architectural result undetected",
            report.silent()
        ));
    }
    if demo && report.detected() == 0 {
        return fail("demo campaign detected none of its injected faults");
    }
    println!("silent-corruption defense holds: every unmasked fault detected, 0 false positives");
    ExitCode::SUCCESS
}

fn cmd_analyze(suite_name: &str, bench: &str) -> ExitCode {
    let (_, b) = match find_bench(suite_name, bench) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    if b.workload.num_threads() != 1 {
        return fail("leakage analysis runs on single-thread benchmarks");
    }
    match recon_dift::analyze_program(&b.workload.program, 200_000_000) {
        Ok(r) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("analysis failed: {e}")),
    }
}

/// Parses `verify`'s flags (`--gadget G`, `--scheme S`, any order) and
/// runs the two-trace checker; non-zero exit on any violated
/// expectation so CI can gate on it.
fn cmd_verify(args: &[&str], jobs: usize) -> ExitCode {
    let mut gadget: Option<&str> = None;
    let mut scheme: Option<SecureConfig> = None;
    let mut ff: Option<u64> = None;
    let mut embedded = false;
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        if flag == "--embedded" {
            embedded = true;
            continue;
        }
        let Some(&value) = it.next() else {
            return fail(&format!("{flag} wants a value"));
        };
        match flag {
            "--gadget" => {
                if recon_verify::gadget::find(value).is_none() {
                    let names: Vec<_> = recon_verify::gadget::all_with_embedded()
                        .iter()
                        .map(|g| g.name)
                        .collect();
                    return fail(&format!("unknown gadget '{value}' ({})", names.join("|")));
                }
                gadget = Some(value);
            }
            "--scheme" => match parse_scheme(value) {
                Some(s) => scheme = Some(s),
                None => {
                    return fail(&format!("unknown scheme '{value}' ({SCHEME_NAMES})"));
                }
            },
            "--fast-forward" => match value.parse::<u64>() {
                Ok(n) if n >= 1 => ff = Some(n),
                _ => {
                    return fail(&format!(
                        "--fast-forward wants a positive instruction count, got '{value}'"
                    ))
                }
            },
            _ => return fail(&format!("unknown verify flag '{flag}'")),
        }
    }

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
    let report = recon_verify::run_matrix_budgeted_with(gadget, scheme, jobs, &budget, embedded);
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
    if unexpected.is_empty() && sound_ok {
        println!(
            "security claim holds: {} cells as expected",
            report.cells.len()
        );
        ExitCode::SUCCESS
    } else {
        fail(&format!("{} violated expectations", unexpected.len()))
    }
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

/// Parses `--flag value` pairs into lookups for `serve`/`bench-serve`.
fn parse_flag_pairs<'a>(args: &[&'a str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        let Some(&value) = it.next() else {
            return Err(format!("{flag} wants a value"));
        };
        pairs.push((flag, value));
    }
    Ok(pairs)
}

fn flag_usize(pairs: &[(&str, &str)], flag: &str, default: usize) -> Result<usize, String> {
    match pairs.iter().find(|(f, _)| *f == flag) {
        None => Ok(default),
        Some((_, v)) => v
            .parse()
            .ok()
            .filter(|&n: &usize| n >= 1)
            .ok_or_else(|| format!("{flag} wants a positive integer, got '{v}'")),
    }
}

fn cmd_serve(args: &[&str], jobs: usize) -> ExitCode {
    let pairs = match parse_flag_pairs(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut config = recon_serve::ServeConfig {
        workers: jobs,
        ..recon_serve::ServeConfig::default()
    };
    for (flag, value) in &pairs {
        match *flag {
            "--addr" => config.addr = (*value).to_string(),
            "--workers" => match flag_usize(&pairs, "--workers", config.workers) {
                Ok(n) => config.workers = n,
                Err(e) => return fail(&e),
            },
            "--queue-cap" => match flag_usize(&pairs, "--queue-cap", config.queue_cap) {
                Ok(n) => config.queue_cap = n,
                Err(e) => return fail(&e),
            },
            "--handler-cap" => match flag_usize(&pairs, "--handler-cap", config.handler_cap) {
                Ok(n) => config.handler_cap = n,
                Err(e) => return fail(&e),
            },
            "--chaos" => config.chaos = Some((*value).to_string()),
            "--node" => config.node_id = Some((*value).to_string()),
            "--cache-dir" => config.cache_dir = Some(std::path::PathBuf::from(*value)),
            "--checkpoint-every" => match value.parse::<u64>() {
                Ok(n) if n >= 1 => config.checkpoint_every_cycles = n,
                _ => {
                    return fail(&format!(
                        "--checkpoint-every wants a positive cycle count, got '{value}'"
                    ))
                }
            },
            _ => return fail(&format!("unknown serve flag '{flag}'")),
        }
    }
    let server = match recon_serve::Server::start(&config) {
        Ok(s) => s,
        Err(e) => return fail(&format!("could not bind {}: {e}", config.addr)),
    };
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
    ExitCode::SUCCESS
}

fn cmd_gateway(args: &[&str]) -> ExitCode {
    let pairs = match parse_flag_pairs(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut config = recon_cluster::GatewayConfig::default();
    for (flag, value) in &pairs {
        match *flag {
            "--addr" => config.addr = (*value).to_string(),
            "--nodes" => {
                config.nodes = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--vnodes" => match flag_usize(&pairs, "--vnodes", config.vnodes) {
                Ok(n) => config.vnodes = n,
                Err(e) => return fail(&e),
            },
            "--handler-cap" => match flag_usize(&pairs, "--handler-cap", config.handler_cap) {
                Ok(n) => config.handler_cap = n,
                Err(e) => return fail(&e),
            },
            "--no-replicate" => match *value {
                "true" => config.replicate = false,
                "false" => {}
                _ => return fail(&format!("--no-replicate wants true|false, got '{value}'")),
            },
            _ => return fail(&format!("unknown gateway flag '{flag}'")),
        }
    }
    let gateway = match recon_cluster::Gateway::start(&config) {
        Ok(g) => g,
        Err(e) => return fail(&format!("could not start gateway: {e}")),
    };
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
    ExitCode::SUCCESS
}

/// `recon chaos --nodes N`: the cluster storm — real node processes,
/// SIGKILL + restart, drain-driven checkpoint migration, and the
/// admission-throughput comparison, written to `BENCH_cluster.json`.
fn cmd_chaos_cluster(pairs: &[(&str, &str)]) -> ExitCode {
    let node_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot locate the recon binary: {e}")),
    };
    let mut config = recon_cluster::ClusterStormConfig {
        node_exe,
        ..recon_cluster::ClusterStormConfig::default()
    };
    for (flag, value) in pairs {
        let parsed = match *flag {
            "--seed" => value
                .parse::<u64>()
                .map(|n| config.seed = n)
                .map_err(|_| format!("--seed wants an integer, got '{value}'")),
            "--nodes" => flag_usize(pairs, flag, config.nodes).map(|n| config.nodes = n),
            "--clients" => flag_usize(pairs, flag, config.clients).map(|n| config.clients = n),
            "--requests" => flag_usize(pairs, flag, config.requests).map(|n| config.requests = n),
            "--throughput-requests" => flag_usize(pairs, flag, config.throughput_requests)
                .map(|n| config.throughput_requests = n),
            "--out" => {
                config.out = Some((*value).to_string());
                Ok(())
            }
            "--min-speedup" => match value.parse::<f64>() {
                Ok(x) if x > 0.0 => {
                    config.min_speedup = Some(x);
                    Ok(())
                }
                _ => Err(format!(
                    "--min-speedup wants a positive number, got '{value}'"
                )),
            },
            _ => return fail(&format!("unknown cluster chaos flag '{flag}'")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let report = match recon_cluster::run_cluster_storm(&config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cluster storm failed: {e}")),
    };
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
    for p in &report.throughput {
        println!(
            "  throughput @{} node(s): {} jobs in {:.2}s = {:.1} req/s",
            p.nodes, p.jobs, p.wall_seconds, p.rps
        );
    }
    println!(
        "  aggregate speedup at {} nodes: {:.2}x  wall {:.2}s",
        report.nodes, report.speedup, report.wall_seconds
    );
    if let Some(path) = &config.out {
        println!("report written to {path}");
    }
    if !report.pass() {
        return fail(
            "cluster storm failed: responses lost/mismatched or no provable cross-node resume",
        );
    }
    if let Some(min) = config.min_speedup {
        if report.speedup < min {
            return fail(&format!(
                "aggregate speedup {:.2}x below the required {min}x",
                report.speedup
            ));
        }
        println!("speedup >= {min}x: ok");
    }
    println!(
        "cluster storm: 0 lost, 0 mismatched — a killed node rerouted and a drained node's \
         checkpoint resumed on its ring successor byte-identically"
    );
    ExitCode::SUCCESS
}

fn cmd_bench_serve(args: &[&str], jobs: usize) -> ExitCode {
    let pairs = match parse_flag_pairs(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let mut config = recon_serve::BenchServeConfig {
        workers: jobs,
        ..recon_serve::BenchServeConfig::default()
    };
    for (flag, value) in &pairs {
        let parsed = match *flag {
            "--clients" => flag_usize(&pairs, flag, config.clients).map(|n| config.clients = n),
            "--requests" => flag_usize(&pairs, flag, config.requests).map(|n| config.requests = n),
            "--queue-cap" => {
                flag_usize(&pairs, flag, config.queue_cap).map(|n| config.queue_cap = n)
            }
            "--workers" => flag_usize(&pairs, flag, config.workers).map(|n| config.workers = n),
            "--out" => {
                config.out = (*value).to_string();
                Ok(())
            }
            _ => return fail(&format!("unknown bench-serve flag '{flag}'")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let report = match recon_serve::run_bench_serve(&config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("bench-serve failed: {e}")),
    };
    println!(
        "bench-serve: {} clients x {} requests (queue capacity {})",
        report.clients, report.requests_per_client, report.queue_cap
    );
    println!(
        "  ok {}  deadline {}  backpressure(429) {}  mismatches {}  lost {}",
        report.ok, report.deadline, report.backpressure_429, report.mismatches, report.lost
    );
    println!(
        "  cache {} hits / {} misses",
        report.cache_hits, report.cache_misses
    );
    println!(
        "  wall {:.2}s  throughput {:.1} req/s  p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms",
        report.wall_seconds, report.throughput_rps, report.p50_ms, report.p95_ms, report.p99_ms
    );
    println!("report written to {}", config.out);
    if report.lost > 0 || report.mismatches > 0 {
        return fail("responses were lost or differed from direct execution");
    }
    ExitCode::SUCCESS
}

fn cmd_chaos(args: &[&str], jobs: usize) -> ExitCode {
    let pairs = match parse_flag_pairs(args) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    // `--nodes N` switches to the cluster storm: real node processes
    // behind a gateway instead of synthetic faults inside one process.
    if pairs.iter().any(|(f, _)| *f == "--nodes") {
        return cmd_chaos_cluster(&pairs);
    }
    let mut config = recon_serve::ChaosStormConfig {
        workers: jobs,
        ..recon_serve::ChaosStormConfig::default()
    };
    for (flag, value) in &pairs {
        let parsed = match *flag {
            "--seed" => match value.parse::<u64>() {
                Ok(n) => {
                    config.seed = n;
                    Ok(())
                }
                Err(_) => Err(format!("--seed wants an integer, got '{value}'")),
            },
            "--clients" => flag_usize(&pairs, flag, config.clients).map(|n| config.clients = n),
            "--requests" => flag_usize(&pairs, flag, config.requests).map(|n| config.requests = n),
            "--workers" => flag_usize(&pairs, flag, config.workers).map(|n| config.workers = n),
            "--faults" => {
                config.faults = (*value).to_string();
                Ok(())
            }
            "--out" => {
                config.out = Some((*value).to_string());
                Ok(())
            }
            _ => return fail(&format!("unknown chaos flag '{flag}'")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let report = match recon_serve::run_chaos_storm(&config) {
        Ok(r) => r,
        Err(e) => return fail(&format!("chaos storm failed: {e}")),
    };
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
        return fail("chaos storm lost or corrupted responses");
    }
    println!("chaos storm: 0 lost, 0 mismatched — service healed every injected fault");
    ExitCode::SUCCESS
}

/// Parses `bench-speed`'s flags (`--quick` is valueless; the rest are
/// pairs) and runs the MIPS scoreboard: functional vs detailed
/// throughput per scheme, the fast-forward end-to-end speedup, and the
/// per-optimization microbenchmarks, written to `BENCH_speed.json`.
fn cmd_bench_speed(args: &[&str]) -> ExitCode {
    let mut quick = false;
    let mut out = "BENCH_speed.json".to_string();
    let mut bench = "mcf".to_string();
    let mut min_functional: Option<f64> = None;
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--quick" => quick = true,
            "--out" | "--bench" | "--min-functional-speedup" => {
                let Some(&value) = it.next() else {
                    return fail(&format!("{flag} wants a value"));
                };
                match flag {
                    "--out" => out = value.to_string(),
                    "--bench" => bench = value.to_string(),
                    _ => match value.parse::<f64>() {
                        Ok(x) if x > 0.0 => min_functional = Some(x),
                        _ => {
                            return fail(&format!(
                                "--min-functional-speedup wants a positive number, got '{value}'"
                            ))
                        }
                    },
                }
            }
            _ => return fail(&format!("unknown bench-speed flag '{flag}'")),
        }
    }
    let report = recon_sim::SpeedReport::measure(Suite::Spec2017, &bench, quick);
    println!(
        "bench-speed: {} ({} scale){}",
        report.bench,
        report.scale,
        if quick { ", quick repeats" } else { "" }
    );
    println!(
        "  functional: {} instructions in {:.3}s = {:.2} MIPS",
        report.functional_instructions,
        report.functional_seconds,
        report.functional_mips()
    );
    println!(
        "  fast-forward warmup: {} instructions (detailed tail: {})",
        report.fast_forward,
        report.functional_instructions - report.fast_forward
    );
    let mut t = Table::new(&[
        "scheme",
        "detailed MIPS",
        "detailed s",
        "warm s",
        "speedup",
        "identical",
    ]);
    for s in &report.schemes {
        t.row(&[
            s.scheme.label(),
            format!("{:.2}", s.detailed_mips()),
            format!("{:.3}", s.detailed_seconds),
            format!("{:.3}", s.warm_seconds),
            format!("{:.2}x", s.speedup),
            if s.identical {
                "ok".into()
            } else {
                "FAIL".into()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "audit sweep (every {} cycles, STT+ReCon): {} sweeps cost {:.4}s on a {:.3}s run = {:.2}% host overhead [{}]",
        report.audit.audit_every,
        report.audit.sweeps,
        report.audit.sweep_seconds,
        report.audit.run_seconds,
        report.audit.overhead_fraction() * 100.0,
        if report.audit.identical { "identical" } else { "DIVERGED" },
    );
    println!("optimization isolation (baseline vs fast path):");
    for m in &report.micro {
        println!(
            "  {:<6} {:.2} -> {:.2} Mops/s ({:.2}x)  [{} vs {}]",
            m.name,
            m.baseline_mops,
            m.optimized_mops,
            m.speedup(),
            m.baseline,
            m.optimized,
        );
    }
    println!(
        "functional over fastest detailed: {:.2}x | end-to-end warm speedup (worst scheme): {:.2}x",
        report.functional_over_detailed(),
        report.end_to_end_speedup(),
    );
    match report.write_json(&out) {
        Ok(()) => println!("scoreboard written to {out}"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
    if !report.all_identical() {
        return fail("a warm run's detailed region diverged from its snapshot/restore replica");
    }
    if !report.audit.identical {
        return fail("the audit sweep perturbed the simulated run — it must be pure observation");
    }
    if let Some(min) = min_functional {
        let got = report.functional_over_detailed();
        if got < min {
            return fail(&format!(
                "functional mode is only {got:.2}x the fastest detailed scheme (required {min}x)"
            ));
        }
        println!("functional >= {min}x detailed: ok");
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn usage() -> ExitCode {
    eprintln!("usage: recon <command>");
    eprintln!("  list                               list all benchmark stand-ins");
    eprintln!("  workloads [--list]                 enumerate suites/workloads with");
    eprintln!("                                     static instruction counts");
    eprintln!("  asm <file> [--dump] [--run SCHEME] assemble a .asm program; --dump prints");
    eprintln!("      [--fast-forward N]             canonical disassembly, --run executes");
    eprintln!("                                     it and reads the self-check words");
    eprintln!("  run <suite> <bench> <scheme>       run one configuration");
    eprintln!("      [--checkpoint D] [--checkpoint-every CYC]");
    eprintln!("                                     periodic crash-safe checkpoints into D");
    eprintln!("      [--fast-forward N]             functional warmup: N instructions before");
    eprintln!("                                     detailed timing");
    eprintln!("      [--watchdog-cycles N]          liveness watchdog window (default {DEFAULT_WATCHDOG_CYCLES};");
    eprintln!("                                     0 = off); stalls print full forensics");
    eprintln!("      [--audit CYC]                  sweep the invariant auditor every CYC");
    eprintln!("                                     cycles; violations print forensics");
    eprintln!("  resume <file.rck>                  continue a checkpointed run");
    eprintln!("  matrix <suite> <bench> [--jobs N]  run all five configurations");
    eprintln!("  suite <suite> [--jobs N]           five-way matrix on every benchmark,");
    eprintln!("                                     timings to BENCH_runner.json");
    eprintln!("      [--checkpoint D] [--checkpoint-every CYC]");
    eprintln!("                                     crash-safe suite: finished jobs are");
    eprintln!("                                     cached, killed jobs resume");
    eprintln!("      [--fast-forward N]             functional warmup per job");
    eprintln!("      [--watchdog-cycles N]          liveness watchdog window per job (0 = off)");
    eprintln!("      [--audit CYC]                  invariant-audit sweep cadence per job");
    eprintln!("  fuzz [--seed S] [--count N] [--quick] [--jobs N]");
    eprintln!("       [--out-dir D] [--json P] [--watchdog-cycles N]");
    eprintln!("                                     seeded differential torture: random");
    eprintln!("                                     programs x five oracles, failures");
    eprintln!("                                     shrunk to minimal .asm repros");
    eprintln!("  audit [--seed S] [--faults N] [--audit CYC] [--out P] [--quick] [--demo]");
    eprintln!("                                     seeded soft-error injection campaign:");
    eprintln!("                                     every unmasked fault must be detected");
    eprintln!("                                     -> BENCH_audit.json (--demo: CI smoke)");
    eprintln!("  analyze <suite> <bench>            leakage (DIFT vs load pairs)");
    eprintln!("  verify [--gadget G] [--scheme S]   two-trace security checker");
    eprintln!("         [--fast-forward N]          (gadget x scheme verdict matrix;");
    eprintln!("                                     warmup applies to soundness runs only)");
    eprintln!("         [--embedded]                include gadgets spliced into corpus");
    eprintln!("                                     host programs (quicksort, memref)");
    eprintln!("  overhead                           §6.7 storage accounting");
    eprintln!("  serve [--addr A] [--workers N] [--queue-cap Q] [--handler-cap H]");
    eprintln!("        [--chaos SPEC] [--cache-dir D] [--checkpoint-every CYC] [--node ID]");
    eprintln!("                                     HTTP job service (--node labels metrics");
    eprintln!("                                     and marks a cluster worker)");
    eprintln!("  gateway --nodes H:P,H:P,... [--addr A] [--vnodes V] [--handler-cap H]");
    eprintln!("                                     consistent-hash front door over N nodes");
    eprintln!("  bench-serve [--clients C] [--requests R] [--queue-cap Q] [--out P]");
    eprintln!("                                     loopback load test -> BENCH_serve.json");
    eprintln!("  chaos [--seed S] [--clients C] [--requests R] [--faults F] [--out P]");
    eprintln!("                                     seeded fault storm -> BENCH_chaos.json");
    eprintln!("  chaos --nodes N [--seed S] [--clients C] [--requests R] [--min-speedup X]");
    eprintln!("                                     cluster storm: SIGKILL + restart, drain");
    eprintln!("                                     migration -> BENCH_cluster.json");
    eprintln!("  bench-speed [--quick] [--bench B] [--out P] [--min-functional-speedup X]");
    eprintln!("                                     MIPS scoreboard -> BENCH_speed.json");
    eprintln!("suites: spec2017 spec2006 parsec corpus");
    eprintln!("schemes: unsafe nda nda+recon stt stt+recon");
    eprintln!("--jobs defaults to RECON_JOBS or all cores");
    ExitCode::FAILURE
}

/// Strips a trailing `--jobs N` from the argument list, returning the
/// remaining arguments and the worker count (default: `RECON_JOBS` or
/// the host parallelism).
fn split_jobs<'a>(args: &'a [&'a str]) -> Result<(&'a [&'a str], usize), String> {
    if args.len() >= 2 && args[args.len() - 2] == "--jobs" {
        let n = args[args.len() - 1];
        let jobs: usize = n
            .parse()
            .ok()
            .filter(|&j| j >= 1)
            .ok_or_else(|| format!("--jobs wants a positive integer, got '{n}'"))?;
        Ok((&args[..args.len() - 2], jobs))
    } else {
        jobs_from_env().map(|jobs| (args, jobs))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (strs, jobs) = match split_jobs(&strs) {
        Ok(x) => x,
        Err(e) => return fail(&e),
    };
    match strs {
        ["list"] => cmd_list(),
        ["workloads", rest @ ..] => cmd_workloads(rest),
        ["asm", file, rest @ ..] => cmd_asm(file, rest),
        ["run", suite, bench, scheme, rest @ ..] => cmd_run(suite, bench, scheme, rest),
        ["run", suite, bench] => cmd_matrix(suite, bench, jobs),
        ["matrix", suite, bench] => cmd_matrix(suite, bench, jobs),
        ["resume", file] => cmd_resume(file),
        ["suite", suite, rest @ ..] => cmd_suite(suite, jobs, rest),
        ["fuzz", rest @ ..] => cmd_fuzz(rest, jobs),
        ["audit", rest @ ..] => cmd_audit(rest),
        ["analyze", suite, bench] => cmd_analyze(suite, bench),
        ["verify", rest @ ..] => cmd_verify(rest, jobs),
        ["overhead"] => cmd_overhead(),
        ["serve", rest @ ..] => cmd_serve(rest, jobs),
        ["gateway", rest @ ..] => cmd_gateway(rest),
        ["bench-serve", rest @ ..] => cmd_bench_serve(rest, jobs),
        ["bench-speed", rest @ ..] => cmd_bench_speed(rest),
        ["chaos", rest @ ..] => cmd_chaos(rest, jobs),
        _ => usage(),
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
            run_flags("run", &[("--fast-foward", "1000")]).unwrap_err(),
            "unknown run flag '--fast-foward' — did you mean '--fast-forward'?"
        );
        assert_eq!(
            run_flags("suite", &[("--audit", "64"), ("--bogus", "1")]).unwrap_err(),
            "unknown suite flag '--bogus'"
        );
        let (_, budget) = run_flags("run", &[("--fast-forward", "1000")]).unwrap();
        assert_eq!(budget.fast_forward, Some(1000));
    }

    #[test]
    fn unknown_suites_list_every_suite_with_a_hint() {
        assert_eq!(
            find_suite("corpsu").unwrap_err(),
            "unknown suite 'corpsu' (spec2017|spec2006|parsec|corpus) — did you mean 'corpus'?"
        );
    }

    #[test]
    fn run_keys_are_stable() {
        // These name `.rck` and `.res` files already on disk.
        assert_eq!(scale_label(), "quick", "run with RECON_SCALE unset");
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
