//! Metrics, summary statistics, the result line, and the goldens file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;

use recon_isa::hash::FxHasher;
use recon_isa::snap::SnapWriter;
use recon_serve::Json;
use recon_sim::SystemResult;

use crate::host;

/// One reported number: its value plus the per-repeat samples it was
/// derived from (for min/max/quartiles in `--all` and `--compare`).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            samples,
        }
    }

    /// A single value (a count or a ratio).
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// One timed repeat, as measured: instructions, wall seconds and
/// per-operation milliseconds, with the host slowdown they are scaled
/// by.
#[derive(Debug)]
struct Repeat {
    instructions: u64,
    wall_s: f64,
    ops_ms: Vec<f64>,
    slowdown: f64,
}

/// The end-to-end samples of one run.
///
/// Every time is kept as measured, together with the host slowdown
/// (`host` module) it is divided by to give its time at the reference
/// speed. A repeat's slowdown is the mean of the readings taken between
/// its operations (since the previous repeat): the host flips between a
/// fast and a slow state many times a second, so what slows a repeat is
/// the share of its time spent in the slow state, which a mean of
/// readings spread over it estimates. Set-ups are scaled by the mean of
/// the readings taken right after each of them.
#[derive(Debug, Default)]
pub struct Samples {
    repeats: Vec<Repeat>,
    /// Set-up seconds as measured.
    setup_s: Vec<f64>,
    /// Slowdowns read after set-ups.
    setup_slowdowns: Vec<f64>,
    /// Every slowdown read during the run.
    pub slowdowns: Vec<f64>,
    /// Readings since the last repeat.
    pending: Vec<f64>,
}

impl Samples {
    /// Reads the host's slowdown on `threads` threads, for the next
    /// repeat.
    pub fn read_slowdown(&mut self, threads: usize) {
        let s = host::slowdown(threads);
        self.slowdowns.push(s);
        self.pending.push(s);
    }

    /// Records one set-up of `s` seconds, and reads the slowdown after
    /// it.
    pub fn setup(&mut self, s: f64) {
        self.setup_s.push(s);
        let d = host::slowdown(1);
        self.slowdowns.push(d);
        self.setup_slowdowns.push(d);
    }

    /// Records one repeat and returns the slowdown it is scaled by.
    pub fn repeat(&mut self, instructions: u64, wall_s: f64, ops_ms: Vec<f64>) -> f64 {
        if self.pending.is_empty() {
            self.read_slowdown(1);
        }
        let slowdown = mean(&self.pending);
        self.pending.clear();
        self.repeats.push(Repeat {
            instructions,
            wall_s,
            ops_ms,
            slowdown,
        });
        slowdown
    }

    /// The repeats' median wall seconds at the reference speed.
    pub fn median_wall_s(&self) -> f64 {
        let w: Vec<f64> = self.repeats.iter().map(|r| r.wall_s / r.slowdown).collect();
        median(&w)
    }

    /// The end-to-end metrics, each the median over repeats (set-ups):
    /// instruction rate, wall time, each repeat's p50 and p95 operation
    /// latency and set-up time (peak RSS is added by the caller). `raw`
    /// gives the times as measured instead of at the reference speed.
    pub fn metrics(&self, raw: bool) -> Vec<Metric> {
        let k = |slowdown: f64| if raw { 1.0 } else { 1.0 / slowdown };
        let per_repeat = |f: &dyn Fn(&Repeat) -> f64| self.repeats.iter().map(f).collect();
        let pct = |q: f64| {
            per_repeat(&|r: &Repeat| {
                let mut s = r.ops_ms.clone();
                s.sort_by(f64::total_cmp);
                percentile(&s, q) * k(r.slowdown)
            })
        };
        vec![
            Metric::median(
                "sim_mips",
                "MIPS",
                per_repeat(&|r: &Repeat| r.instructions as f64 / 1e6 / (r.wall_s * k(r.slowdown))),
            ),
            Metric::median(
                "wall_s",
                "s",
                per_repeat(&|r: &Repeat| r.wall_s * k(r.slowdown)),
            ),
            Metric::median("op_p50_ms", "ms", pct(0.5)),
            Metric::median("op_p95_ms", "ms", pct(0.95)),
            Metric::median(
                "setup_s",
                "s",
                self.setup_s
                    .iter()
                    .map(|s| s * k(mean(&self.setup_slowdowns)))
                    .collect(),
            ),
        ]
    }
}

/// The arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// What one workload invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: simulated runs and HTTP requests.
    pub attempted: u64,
    /// Operations that did not complete, mismatched, or got a non-200.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub failures: Vec<String>,
    /// `(key, digest)` of every result the goldens pin.
    pub digests: Vec<(String, u64)>,
    /// End-to-end metrics (always measured), timings at the reference
    /// speed.
    pub e2e: Vec<Metric>,
    /// The same timings as measured (results file only).
    pub raw: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, recording `err` as its failure if any.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Records a failure against an operation already counted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// Linear-interpolated percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// FxHash of every counter of a result (its `save_snap` bytes).
pub fn result_digest(r: &SystemResult) -> u64 {
    let mut w = SnapWriter::new();
    r.save_snap(&mut w);
    fx(w.as_slice())
}

pub fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// A JSON number; non-finite values (never expected) become 0, and -0
/// becomes 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name,
            num(m.value),
            m.unit
        );
        if samples {
            let list: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
            let _ = write!(s, ", \"samples\": [{}]", list.join(", "));
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The line a run ends with: end-to-end metrics, or per-layer ones when
/// traced.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(if traced { &o.layers } else { &o.e2e }, false)
    )
}

/// Everything a run measured, with samples, for `--all`'s results file.
pub fn detail_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"raw\": {}, \"layers\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(&o.e2e, true),
        metrics_json(&o.raw, true),
        metrics_json(&o.layers, true)
    )
}

/// Pinned result digests: `seed workload key digest` per line; seed `*`
/// for results that do not depend on the seed.
#[derive(Debug, Default)]
pub struct Goldens(BTreeMap<(String, String, String), u64>);

pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];

impl Goldens {
    pub fn parse(text: &str) -> Goldens {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [seed, workload, key, digest] = f[..] {
                let d = u64::from_str_radix(digest.trim_start_matches("0x"), 16)
                    .expect("goldens.txt digests are hex");
                map.insert((seed.into(), workload.into(), key.into()), d);
            }
        }
        Goldens(map)
    }

    /// Whether `(seed, workload)` is pinned (seed-specific or `*`).
    pub fn covers(&self, seed: u64, workload: &str) -> bool {
        self.0
            .keys()
            .any(|(s, w, _)| w == workload && (*s == seed.to_string() || s == "*"))
    }

    /// Checks every digest of a pinned run; one failure per mismatch.
    pub fn check(&self, seed: u64, workload: &str, o: &mut Outcome) {
        let mut bad = Vec::new();
        for (key, d) in &o.digests {
            let pinned = [seed.to_string(), "*".to_string()]
                .into_iter()
                .find_map(|s| self.0.get(&(s, workload.to_string(), key.clone())));
            match pinned {
                Some(g) if g == d => {}
                Some(g) => bad.push(format!(
                    "{workload} {key}: digest {d:#018x} != golden {g:#018x}"
                )),
                None => bad.push(format!("{workload} {key}: no golden for seed {seed}")),
            }
        }
        for b in bad {
            o.fail(b);
        }
    }

    /// Pins a digest, returning the one it replaced.
    pub fn insert(&mut self, seed: &str, workload: &str, key: &str, digest: u64) -> Option<u64> {
        self.0
            .insert((seed.into(), workload.into(), key.into()), digest)
    }

    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Result digests pinned by the benchmark: seed workload key FxHash.\n\
             # Regenerate with `cargo run --release -- --bless` in this directory.\n",
        );
        for ((seed, w, k), d) in &self.0 {
            let _ = writeln!(s, "{seed} {w} {k} {d:#018x}");
        }
        s
    }
}

/// A metric as the repository's `BENCHMARK.json` declares it.
#[derive(Debug, Default)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher: bool,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: f64,
}

/// The run length, workloads and metrics `BENCHMARK.json` declares.
#[derive(Debug, Default)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load(path: &str) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = recon_serve::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| v.get(key).and_then(Json::as_array).unwrap_or_default();
        let text =
            |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let declared = |key: &str| -> Vec<Declared> {
            list(key)
                .iter()
                .map(|j| Declared {
                    name: text(j, "name"),
                    unit: text(j, "unit"),
                    higher: text(j, "better") == "higher",
                    bound: j.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: no run_seconds"))?,
            workloads: list("workloads").iter().map(|j| text(j, "name")).collect(),
            end_to_end: declared("end_to_end"),
            per_layer: declared("per_layer"),
        })
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn goldens_round_trip() {
        let mut g = Goldens::default();
        g.insert("1", "chase-1c", "stt", 0xabc);
        g.insert("*", "fig-sweep", "mcf/stt", 7);
        let back = Goldens::parse(&g.render());
        assert!(back.covers(1, "chase-1c") && back.covers(9, "fig-sweep"));
        assert!(!back.covers(2, "chase-1c"));
        let mut o = Outcome {
            digests: vec![("stt".into(), 0xabc)],
            ..Outcome::default()
        };
        back.check(1, "chase-1c", &mut o);
        assert!(o.failures.is_empty());
        o.digests[0].1 = 1;
        back.check(1, "chase-1c", &mut o);
        assert_eq!(o.failed, 1);
    }
}
