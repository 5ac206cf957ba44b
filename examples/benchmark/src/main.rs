//! The repository benchmark: five seeded workloads, end-to-end host
//! speed and service metrics, and an outside-in per-layer trace.
//!
//! ```text
//! cargo run --release -- --workload chase-1c --seed 1 --seconds 20 --trace 0
//! cargo run --release -- --all --seed 1 --out results.json [--trace 1]
//! cargo run --release -- --compare A.json B.json
//! cargo run --release -- --smoke | --bless | --baseline
//! ```
//!
//! `--seconds` defaults to `run_seconds` in BENCHMARK.json. See
//! README.md for the workloads, metrics and layer map.

mod host;
mod layers;
mod report;
mod serve_mix;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use recon_serve::Json;

use report::{detail_json, peak_rss_mb, result_line, Goldens, Manifest, Metric, Outcome};
use workloads::Plan;

const WORKLOADS: [&str; 5] = [
    "chase-1c",
    "stream-1c",
    "parsec4-monitored",
    "fig-sweep",
    "serve-mixed",
];
const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
const GOLDENS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens.txt");
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
const GOLDENS: &str = include_str!("../goldens.txt");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let seconds = match flag(args, "--seconds") {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--seconds takes a non-negative number, got '{v}'"))?,
        None => Manifest::load(MANIFEST)?.run_seconds,
    };
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, got '{v}'")),
    };
    let seed = flag(args, "--seed").map_or(Ok(1), |v| {
        v.parse::<u64>()
            .map_err(|_| format!("--seed takes an unsigned integer, got '{v}'"))
    })?;
    Ok(Args {
        seed,
        seconds,
        trace,
        out: flag(args, "--out").map(str::to_string),
    })
}

fn run(args: &[String]) -> Result<i32, String> {
    let has = |f: &str| args.iter().any(|a| a == f);
    let a = parse_args(args)?;
    if let Some(name) = flag(args, "--workload") {
        if !WORKLOADS.contains(&name) {
            return Err(format!(
                "unknown workload '{name}' ({})",
                WORKLOADS.join("|")
            ));
        }
        let goldens = Goldens::parse(GOLDENS);
        let plan = Plan {
            seed: a.seed,
            seconds: a.seconds,
            min_repeats: 2,
            trace: a.trace,
            smoke: false,
            goldens: &goldens,
        };
        let o = run_workload(name, &plan);
        for f in &o.failures {
            eprintln!("FAIL {f}");
        }
        println!("detail {}", detail_json(&o));
        println!("{}", result_line(&o, a.trace));
        return Ok(if o.correct() { 0 } else { 1 });
    }
    if has("--all") {
        let (json, ok) = run_all(a.seed, a.seconds, a.trace)?;
        let out = a
            .out
            .unwrap_or_else(|| "target/benchmark/results.json".into());
        write_file(&out, &json)?;
        eprintln!("results written to {out}");
        return Ok(if ok { 0 } else { 1 });
    }
    if has("--compare") {
        let i = args.iter().position(|x| x == "--compare").expect("present");
        let (Some(x), Some(y)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare takes two results files".into());
        };
        return compare(x, y);
    }
    if has("--smoke") {
        return smoke();
    }
    if has("--bless") {
        return bless();
    }
    if has("--baseline") {
        return baseline(a.seconds, a.out.as_deref().unwrap_or(BASELINE_PATH));
    }
    Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | --all [--seed n] [--seconds s] [--trace 0|1] [--out path] | --compare A.json B.json | --smoke | --bless | --baseline".into())
}

fn run_workload(name: &str, plan: &Plan) -> Outcome {
    let mut o = match name {
        "fig-sweep" => workloads::fig_sweep(plan),
        "serve-mixed" => serve_mix::serve_mixed(plan),
        _ => workloads::sim_workload(name, plan),
    };
    if !plan.direct_check(name) {
        plan.goldens.check(plan.seed, name, &mut o);
    }
    o.e2e
        .push(Metric::single("peak_rss_mb", "MB", peak_rss_mb()));
    o
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\"}}",
        recon_serve::json::escape(&model)
    )
}

/// Runs every workload in a child process of its own (so each peak RSS
/// is its own), prints each metric, and returns the results document.
fn run_all(seed: u64, seconds: f64, trace: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut parts = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        ok &= child.status.success();
        let stdout = String::from_utf8_lossy(&child.stdout);
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail "))
            .ok_or_else(|| format!("{w}: no result ({})", child.status))?;
        let v = recon_serve::parse(detail).map_err(|e| format!("{w}: {e}"))?;
        print_metrics(w, &v);
        parts.push(format!("\"{w}\": {detail}"));
    }
    let json = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"host\": {}, \"workloads\": {{\n{}\n}}}}\n",
        host_json(),
        parts.join(",\n")
    );
    Ok((json, ok))
}

fn samples(m: &Json) -> Vec<f64> {
    m.get("samples")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn print_metrics(workload: &str, v: &Json) {
    let correct = v.get("correct").and_then(Json::as_bool) == Some(true);
    let attempted = v.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let failed = v.get("failed").and_then(Json::as_u64).unwrap_or(0);
    println!("{workload}: correct {correct}, {failed} of {attempted} operations failed");
    // The raw group repeats the end-to-end names, as measured.
    for (group, prefix) in [("metrics", ""), ("raw", "raw."), ("layers", "")] {
        let Some(Json::Obj(fields)) = v.get(group) else {
            continue;
        };
        for (name, m) in fields {
            let name = format!("{prefix}{name}");
            let s = samples(m);
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let (min, max) = s
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                    (a.min(x), b.max(x))
                });
            println!(
                "{workload} {name} {value:.6} {unit} (median {:.6}, min {min:.6}, max {max:.6}, n {})",
                report::median(&s),
                s.len()
            );
        }
    }
}

/// Prints, per workload and end-to-end metric, both sets' medians and
/// quartiles, the relative change, and the verdict against the bound.
fn compare(a_path: &str, b_path: &str) -> Result<i32, String> {
    let manifest = Manifest::load(MANIFEST)?;
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        recon_serve::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = false;
    println!("workload metric: A median [q1, q3] -> B median [q1, q3], change, verdict (bound)");
    for w in &manifest.workloads {
        for d in &manifest.end_to_end {
            let (name, bound) = (&d.name, d.bound);
            let get = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|ws| ws.get(w))
                    .and_then(|x| x.get("metrics"))
                    .and_then(|ms| ms.get(name))
                    .map(|m| {
                        (
                            m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                            samples(m),
                        )
                    })
            };
            let (Some((va, sa)), Some((vb, sb))) = (get(&a), get(&b)) else {
                println!("{w} {name}: missing in one set");
                continue;
            };
            let (qa, qb) = (report::quartiles(&sa), report::quartiles(&sb));
            let change = trace::ratio(vb - va, va);
            let worse = if d.higher { -change } else { change };
            let spread = f64::max(
                trace::ratio(qa[2] - qa[0], va.abs()),
                trace::ratio(qb[2] - qb[0], vb.abs()),
            );
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "within bound"
            };
            println!(
                "{w} {name}: {va:.4} [{:.4}, {:.4}] -> {vb:.4} [{:.4}, {:.4}], {:+.1}%, {verdict} ({:.0}%)",
                qa[0],
                qa[2],
                qb[0],
                qb[2],
                change * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(if regressed { 1 } else { 0 })
}

/// Tiny sizes of all five workloads plus the traced path; checks that
/// the emitted metric names and units are exactly those BENCHMARK.json
/// declares.
fn smoke() -> Result<i32, String> {
    let manifest = Manifest::load(MANIFEST)?;
    let goldens = Goldens::default();
    let mut problems = Vec::new();
    if manifest.workloads != WORKLOADS {
        problems.push(format!(
            "declared workloads {:?} != {WORKLOADS:?}",
            manifest.workloads
        ));
    }
    for w in WORKLOADS {
        let t0 = std::time::Instant::now();
        let plan = Plan {
            seed: 1,
            seconds: 0.0,
            min_repeats: 1,
            trace: true,
            smoke: true,
            goldens: &goldens,
        };
        let o = run_workload(w, &plan);
        for f in &o.failures {
            problems.push(format!("{w}: {f}"));
        }
        for (group, emitted, declared) in [
            ("end_to_end", &o.e2e, &manifest.end_to_end),
            ("per_layer", &o.layers, &manifest.per_layer),
        ] {
            let mut got: Vec<String> = emitted
                .iter()
                .map(|m| format!("{} {}", m.name, m.unit))
                .collect();
            let mut want: Vec<String> = declared
                .iter()
                .map(|d| format!("{} {}", d.name, d.unit))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                problems.push(format!("{w}: emitted {group} {got:?} != declared {want:?}"));
            }
        }
        println!(
            "smoke {w}: {} operations, {} failed, {:.1} s",
            o.attempted,
            o.failed,
            t0.elapsed().as_secs_f64()
        );
    }
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    println!(
        "smoke: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(i32::from(!problems.is_empty()))
}

/// Rewrites goldens.txt from direct-checked runs of seeds 1 and 2.
fn bless() -> Result<i32, String> {
    let none = Goldens::default();
    let mut g = Goldens::default();
    let mut ok = true;
    for seed in report::GOLDEN_SEEDS {
        for w in WORKLOADS {
            let plan = Plan {
                seed,
                seconds: 0.0,
                min_repeats: 1,
                trace: false,
                smoke: false,
                goldens: &none,
            };
            let o = run_workload(w, &plan);
            for f in &o.failures {
                eprintln!("FAIL {f}");
            }
            ok &= o.correct();
            // fig-sweep's results must not depend on the seed.
            let seed_key = if w == "fig-sweep" {
                "*".to_string()
            } else {
                seed.to_string()
            };
            for (key, d) in &o.digests {
                if g.insert(&seed_key, w, key, *d).is_some_and(|old| old != *d) {
                    eprintln!("FAIL {w} {key}: differs between seeds");
                    ok = false;
                }
            }
            eprintln!("blessed {w} seed {seed}: {} digests", o.digests.len());
        }
    }
    if !ok {
        eprintln!("not blessing: a direct check failed");
        return Ok(1);
    }
    write_file(GOLDENS_PATH, &g.render())?;
    println!("goldens written to {GOLDENS_PATH}");
    Ok(0)
}

/// Two seed-1 sets, a traced set and a seed-2 set, with host info.
fn baseline(seconds: f64, out: &str) -> Result<i32, String> {
    let mut doc = format!("{{\"host\": {}, \"sets\": {{\n", host_json());
    let mut ok = true;
    for (i, (label, seed, trace)) in [
        ("seed1_a", 1, false),
        ("seed1_b", 1, false),
        ("seed1_traced", 1, true),
        ("seed2", 2, false),
    ]
    .into_iter()
    .enumerate()
    {
        let (json, good) = run_all(seed, seconds, trace)?;
        ok &= good;
        let sep = if i > 0 { ",\n" } else { "" };
        let _ = write!(doc, "{sep}\"{label}\": {}", json.trim_end());
    }
    doc.push_str("\n}}\n");
    write_file(out, &doc)?;
    println!("baseline written to {out}");
    Ok(if ok { 0 } else { 1 })
}
