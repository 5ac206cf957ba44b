//! The simulation workloads: three 5-scheme detailed runs driven
//! through `System::run_budgeted_checkpointed`, and the figure sweep
//! driven through `recon_sim::run_batch`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use recon_isa::rng::{Rng, SplitMix64};
use recon_isa::DecodedProgram;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_serve::job::experiment_for;
use recon_sim::{
    parallel_map, run_batch, Budget, Experiment, System, SystemResult, DEFAULT_AUDIT_EVERY_CYCLES,
};
use recon_workloads::gen::list::{self, ListParams};
use recon_workloads::gen::parallel::{self, ParKind, ParallelParams};
use recon_workloads::gen::stream::{self, StreamParams};
use recon_workloads::{parsec, spec2017, Benchmark, Scale, Suite, Workload};

use crate::host;
use crate::layers::Layers;
use crate::report::{median, result_digest, Goldens, Outcome, Samples};
use crate::trace::{self, nanos, traced_run, Call, Lane, LoopStats, Replay, SelfTimes};

/// How one invocation runs a workload.
#[derive(Debug)]
pub struct Plan<'a> {
    pub seed: u64,
    /// Timed repeats continue until this many seconds have passed.
    pub seconds: f64,
    /// Timed repeats run at least this often.
    pub min_repeats: usize,
    pub trace: bool,
    /// Tiny inputs, and direct checks instead of goldens.
    pub smoke: bool,
    pub goldens: &'a Goldens,
}

impl Plan<'_> {
    /// Whether results are checked against an untimed direct execution
    /// (seeds the goldens do not pin) rather than the goldens.
    pub fn direct_check(&self, workload: &str) -> bool {
        self.smoke || !self.goldens.covers(self.seed, workload)
    }

    /// Whether to time another repeat: until the minimum is reached,
    /// then while one more of the average length ends within `seconds`.
    pub fn more(&self, repeats: usize, start: Instant) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        repeats < self.min_repeats
            || elapsed * (repeats + 1) as f64 / repeats as f64 <= self.seconds
    }

    /// Set-ups run (and timed) before the repeats, beyond the one each
    /// repeat does, so `setup_s` is a median of many.
    pub fn setup_samples(&self) -> usize {
        if self.smoke {
            0
        } else {
            SETUP_SAMPLES
        }
    }
}

/// The five evaluated configurations.
pub fn schemes() -> [SecureConfig; 5] {
    [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ]
}

pub fn slug(s: SecureConfig) -> String {
    s.label().to_ascii_lowercase()
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below_usize(i + 1));
    }
}

/// The seed's order of the five scheme runs (results do not depend on
/// it; it only varies what runs next to what).
fn scheme_order(seed: u64) -> [usize; 5] {
    let mut order = [0, 1, 2, 3, 4];
    shuffle(&mut order, &mut SplitMix64::new(seed ^ 0x5ced));
    order
}

const SETUP_SAMPLES: usize = 8;

/// Checkpoint cadence of `parsec4-monitored`, in cycles.
const CKPT_EVERY: u64 = 8_192;

/// Input, experiment and budget of a simulation workload.
fn sim_input(name: &str, seed: u64, smoke: bool) -> (Workload, Experiment, Budget) {
    let exp = Experiment::default();
    match name {
        "chase-1c" => {
            let (nodes, visits, cond_lines) = if smoke {
                (256, 64, 64)
            } else {
                (2048, 8192, 16384)
            };
            let p = ListParams {
                nodes,
                chains: 8,
                visits,
                cond_lines,
                payload_slots: 256,
                seed,
            };
            (Workload::single(list::generate(p)), exp, Budget::default())
        }
        "stream-1c" => {
            let (elements, passes) = if smoke { (512, 2) } else { (8192, 16) };
            let p = StreamParams {
                elements,
                passes,
                writes: true,
                stride_words: 1,
            };
            (
                Workload::single(stream::generate(p)),
                exp,
                Budget::default(),
            )
        }
        "parsec4-monitored" => {
            let (slots, passes) = if smoke { (64, 2) } else { (1024, 6) };
            let w = parallel::generate(ParallelParams {
                kind: ParKind::ProducerConsumer,
                slots,
                cond_lines: 16,
                passes,
                seed,
            });
            let exp = Experiment {
                mem: MemConfig::scaled_multicore(),
                ..exp
            };
            let budget = Budget {
                audit_every_cycles: Some(DEFAULT_AUDIT_EVERY_CYCLES),
                checkpoint_every_cycles: Some(if smoke { 1024 } else { CKPT_EVERY }),
                ..Budget::default()
            };
            (w, exp, budget)
        }
        _ => unreachable!("not a simulation workload: {name}"),
    }
}

pub fn secs(a: Instant, b: Instant) -> f64 {
    nanos(a, b) / 1e9
}

fn ms(a: Instant, b: Instant) -> f64 {
    nanos(a, b) / 1e6
}

/// Stores the run's end-to-end metrics, scaled and as measured.
pub fn finish_e2e(o: &mut Outcome, sm: &Samples, layers: &mut Layers) {
    o.e2e = sm.metrics(false);
    o.raw = sm.metrics(true);
    layers.slowdown = median(&sm.slowdowns);
}

/// Records a run's replayed memory time as hot calls on its span: the
/// part spent inside ticks comes out of `cpu.tick`, the part inside
/// checkpoint drains out of `sim.ckpt_drain`.
fn attach_replay(lane: &mut Lane, run_id: u64, r: &Replay) {
    let (n, ns) = r.total();
    if let Some(span) = lane.spans.iter_mut().find(|s| s.id == run_id) {
        span.calls.push(Call {
            name: "mem.access",
            within: Some("cpu.tick"),
            count: n,
            ns: ns - r.drain_ns,
        });
        span.calls.push(Call {
            name: "mem.access",
            within: Some("sim.ckpt_drain"),
            count: 0,
            ns: r.drain_ns,
        });
    }
}

/// One traced run plus its memory replay, on a fresh system; returns
/// the result and loop counters after adding them to `layers`.
fn traced_with_replay(
    w: &Workload,
    exp: &Experiment,
    scheme: SecureConfig,
    budget: &Budget,
    lane: &mut Lane,
    parent: u64,
    clock_ns: f64,
) -> (Result<SystemResult, String>, LoopStats, Replay) {
    let mut sys = System::new(w, exp.core, exp.mem, scheme, exp.recon);
    sys.mem_mut().record_transactions(true);
    let rid = slug(scheme);
    let (run_id, result, st) = traced_run(&mut sys, exp.max_cycles, budget, lane, parent, &rid);
    let events = sys.mem_mut().take_transactions();
    let t0 = Instant::now();
    let rp = trace::replay(&sys, &events, &st.drains, clock_ns);
    let id = lane.id();
    lane.record(
        id,
        Some(parent),
        "mem.replay",
        &rid,
        t0,
        Instant::now(),
        Vec::new(),
    );
    attach_replay(lane, run_id, &rp);
    (result, st, rp)
}

/// `chase-1c`, `stream-1c` and `parsec4-monitored`.
pub fn sim_workload(name: &str, plan: &Plan) -> Outcome {
    let mut o = Outcome::default();
    let mut layers = Layers::default();
    let mut sm = Samples::default();
    let mut digests: Vec<Option<u64>> = vec![None; 5];
    let mut last_snapshot: Vec<Option<Vec<u8>>> = vec![None; 5];
    let mut kept: Option<(Workload, Experiment, Budget)> = None;

    // Set-up: generate the input and build one system per scheme.
    let setup = |sm: &mut Samples, layers: &mut Layers| {
        let s0 = Instant::now();
        let (w, exp, budget) = sim_input(name, plan.seed, plan.smoke);
        let s1 = Instant::now();
        let systems: Vec<System> = schemes()
            .map(|s| System::new(&w, exp.core, exp.mem, s, exp.recon))
            .into();
        let s2 = Instant::now();
        sm.setup(secs(s0, s2));
        layers.gen_ms.push(ms(s0, s1));
        layers.new_ms.push(ms(s1, s2) / 5.0);
        let d0 = Instant::now();
        black_box(DecodedProgram::decode(black_box(&w.program)));
        layers.decode_ms.push(ms(d0, Instant::now()));
        (w, exp, budget, systems)
    };
    for _ in 0..plan.setup_samples() {
        black_box(setup(&mut sm, &mut layers));
    }

    let start = Instant::now();
    let mut repeats = 0;
    while plan.more(repeats, start) {
        let (w, exp, budget, mut systems) = setup(&mut sm, &mut layers);

        let (mut run_s, mut committed, mut rep_ops) = (0.0, 0u64, Vec::new());
        for i in scheme_order(plan.seed) {
            let sys = &mut systems[i];
            let mut snap: Option<Vec<u8>> = None;
            let t0 = Instant::now();
            let r = sys.run_budgeted_checkpointed(exp.max_cycles, &budget, |_, b| {
                snap = Some(b.to_vec());
            });
            let t1 = Instant::now();
            sm.read_slowdown(1);
            run_s += secs(t0, t1);
            rep_ops.push(ms(t0, t1));
            let err = match r {
                Ok(r) if r.completed => {
                    committed += r.committed();
                    if repeats == 0 {
                        layers.counts.add(&r);
                    }
                    let d = result_digest(&r);
                    match digests[i] {
                        Some(first) if first != d => Some(format!(
                            "{name} {}: repeat {repeats} differs from repeat 0",
                            slug(schemes()[i])
                        )),
                        _ => {
                            digests[i] = Some(d);
                            None
                        }
                    }
                }
                Ok(_) => Some(format!("{name}: run did not complete")),
                Err(e) => Some(format!("{name} {}: {e}", slug(schemes()[i]))),
            };
            o.op(err);
            last_snapshot[i] = snap;
        }
        sm.repeat(committed, run_s, rep_ops);
        repeats += 1;
        kept = Some((w, exp, budget));
    }
    let (w, exp, budget) = kept.expect("at least one repeat ran");

    for (i, s) in schemes().into_iter().enumerate() {
        let key = slug(s);
        let Some(d) = digests[i] else { continue };
        o.digests.push((key.clone(), d));
        if plan.direct_check(name) {
            let direct = exp.try_run(&w, s, &budget).map(|r| result_digest(&r));
            o.op(match direct {
                Ok(x) if x == d => None,
                _ => Some(format!("{name} {key}: differs from direct execution")),
            });
        }
        // Resume: restore the last in-memory checkpoint into a fresh
        // system and finish the run; it must reproduce the result.
        if let Some(bytes) = &last_snapshot[i] {
            let mut sys = System::new(&w, exp.core, exp.mem, s, exp.recon);
            let t0 = Instant::now();
            let restored = sys.restore_bytes(bytes);
            layers.restore_ms.push(ms(t0, Instant::now()));
            let resumed = restored
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    sys.run_budgeted_checkpointed(exp.max_cycles, &budget, |_, _| {})
                        .map_err(|e| e.to_string())
                })
                .map(|r| result_digest(&r));
            o.digests
                .push((format!("resume/{key}"), *resumed.as_ref().unwrap_or(&0)));
            o.op(match resumed {
                Ok(x) if x == d => None,
                Ok(_) => Some(format!("{name} {key}: resumed run differs")),
                Err(e) => Some(format!("{name} {key}: resume failed: {e}")),
            });
        }
    }

    finish_e2e(&mut o, &sm, &mut layers);

    if plan.trace {
        let clock_ns = trace::clock_overhead_ns();
        let before = host::slowdown(1);
        let mut lane = Lane::new(Instant::now(), 0);
        let root = lane.id();
        let r0 = Instant::now();
        for (i, s) in schemes().into_iter().enumerate() {
            let (result, st, rp) =
                traced_with_replay(&w, &exp, s, &budget, &mut lane, root, clock_ns);
            let same = result.as_ref().ok().map(result_digest) == digests[i];
            layers.traced += 1;
            layers.traced_exact += u64::from(same);
            o.op((!same).then(|| format!("{name} {}: traced run differs", slug(s))));
            if !rp.exact {
                o.fail(format!("{name} {}: memory replay diverged", slug(s)));
            }
            layers.add_loop(&st);
            layers.add_replay(&rp);
        }
        lane.record(
            root,
            None,
            "bench.repeat",
            name,
            r0,
            Instant::now(),
            Vec::new(),
        );
        let slowdown = (before + host::slowdown(1)) / 2.0;
        let untraced = sm.median_wall_s();
        finish_trace(name, plan, &mut o, &mut layers, &[lane], untraced, slowdown);
    }
    o
}

/// Self times, overhead and the trace file of a traced repeat whose
/// measured region is its `sim.run` spans. The overhead compares the
/// traced time, scaled by the host slowdown read around the traced
/// repeat, with the untraced repeats' scaled median.
fn finish_trace(
    name: &str,
    plan: &Plan,
    o: &mut Outcome,
    layers: &mut Layers,
    lanes: &[Lane],
    untraced_s: f64,
    slowdown: f64,
) {
    let spans: Vec<_> = lanes.iter().flat_map(|l| l.spans.clone()).collect();
    let st = SelfTimes::of(&spans, &["sim.run"]);
    layers.overhead_frac = st.root_ns / 1e9 / slowdown / untraced_s - 1.0;
    o.layers = layers.metrics(&st);
    match trace::write_trace(name, plan.seed, lanes) {
        Ok(path) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("warning: trace not written: {e}"),
    }
}

/// The figure sweep's benchmarks: quick-scale SPEC2017 and PARSEC.
fn sweep_input(smoke: bool) -> Vec<(Suite, Vec<Benchmark>)> {
    [
        (Suite::Spec2017, spec2017(Scale::Quick)),
        (Suite::Parsec, parsec(Scale::Quick)),
    ]
    .map(|(suite, mut benches)| {
        if smoke {
            benches.truncate(2);
        }
        (suite, benches)
    })
    .into()
}

/// Worker count of the sweep (the host this was sized on has 2 cores).
const SWEEP_JOBS: usize = 2;

/// Time from the first worker running out of jobs to the batch's end,
/// replaying the runner's in-order queue with the measured job times.
fn tail_seconds(job_s: &[f64], wall: f64) -> f64 {
    let mut free = [0.0f64; SWEEP_JOBS];
    for &t in job_s {
        let w = if free[0] <= free[1] { 0 } else { 1 };
        free[w] += t;
    }
    (wall - free[0].min(free[1])).max(0.0)
}

/// `fig-sweep`: the cells of fig05/fig06's upper rows and fig08.
pub fn fig_sweep(plan: &Plan) -> Outcome {
    const NAME: &str = "fig-sweep";
    let mut o = Outcome::default();
    let mut layers = Layers::default();
    let mut sm = Samples::default();
    let (mut busy, mut tail, mut job_sums) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    let mut kept = Vec::new();
    // The seed permutes the submission order of each benchmark's five
    // cells; the benchmark order stays canonical, so the batch's tail
    // (and its wall time) does not hinge on which benchmark lands last.
    let configs = scheme_order(plan.seed).map(|i| schemes()[i]);

    let setup = |sm: &mut Samples, layers: &mut Layers| {
        let s0 = Instant::now();
        let suites = sweep_input(plan.smoke);
        let s1 = Instant::now();
        sm.setup(secs(s0, s1));
        layers.gen_ms.push(ms(s0, s1));
        suites
    };
    for _ in 0..plan.setup_samples() {
        black_box(setup(&mut sm, &mut layers));
    }

    let start = Instant::now();
    let mut repeats = 0;
    while plan.more(repeats, start) {
        let suites = setup(&mut sm, &mut layers);
        let (mut wall, mut committed, mut rep_ops, mut tail_s) = (0.0, 0u64, Vec::new(), 0.0);
        let mut rep_digests = BTreeMap::new();
        for (suite, benches) in &suites {
            sm.read_slowdown(SWEEP_JOBS);
            let t0 = Instant::now();
            let batch = run_batch(&experiment_for(*suite), benches, &configs, SWEEP_JOBS);
            let w = secs(t0, Instant::now());
            sm.read_slowdown(SWEEP_JOBS);
            wall += w;
            let job_s: Vec<f64> = batch.timings.iter().map(|t| t.seconds).collect();
            tail_s += tail_seconds(&job_s, w);
            rep_ops.extend(job_s.iter().map(|s| s * 1e3));
            for b in benches {
                for s in schemes() {
                    let key = format!("{}/{}", b.name, slug(s));
                    let err = match batch.get(b.name, s) {
                        Some(r) if r.completed => {
                            committed += r.committed();
                            if repeats == 0 {
                                layers.counts.add(r);
                            }
                            rep_digests.insert(key, result_digest(r));
                            None
                        }
                        _ => Some(format!("{NAME} {key}: failed or incomplete")),
                    };
                    o.op(err);
                }
            }
        }
        if repeats == 0 {
            digests = rep_digests;
        } else if rep_digests != digests {
            o.fail(format!(
                "{NAME}: repeat {repeats} results differ from repeat 0"
            ));
        }
        let job_sum = rep_ops.iter().sum::<f64>() / 1e3;
        busy.push(job_sum / (wall * SWEEP_JOBS as f64));
        tail.push(tail_s);
        let slowdown = sm.repeat(committed, wall, rep_ops);
        job_sums.push(job_sum / slowdown);
        repeats += 1;
        kept = suites;
    }
    o.digests = digests.clone().into_iter().collect();

    if plan.direct_check(NAME) {
        // Every cell against a direct, serial `Experiment::try_run`.
        for (suite, benches) in &kept {
            let exp = experiment_for(*suite);
            for b in benches {
                for s in schemes() {
                    let key = format!("{}/{}", b.name, slug(s));
                    let d = exp
                        .try_run(&b.workload, s, &Budget::default())
                        .map(|r| result_digest(&r));
                    o.op((d.ok() != digests.get(&key).copied())
                        .then(|| format!("{NAME} {key}: differs from direct")));
                }
            }
        }
    }

    finish_e2e(&mut o, &sm, &mut layers);

    if plan.trace {
        layers.busy_frac = median(&busy);
        layers.tail_s = median(&tail);
        let clock_ns = trace::clock_overhead_ns();
        let before = host::slowdown(SWEEP_JOBS);
        let epoch = Instant::now();
        let mut root_lane = Lane::new(epoch, 0);
        let mut lanes = Vec::new();
        for (suite, benches) in &kept {
            let exp = experiment_for(*suite);
            let root = root_lane.id();
            let r0 = Instant::now();
            let cells: Vec<(usize, &Benchmark, SecureConfig)> = benches
                .iter()
                .flat_map(|b| configs.map(|s| (b, s)))
                .enumerate()
                .map(|(i, (b, s))| (lanes.len() + i + 1, b, s))
                .collect();
            let ran = parallel_map(SWEEP_JOBS, cells, |(lane_no, b, s)| {
                let mut lane = Lane::new(epoch, lane_no);
                let job = lane.id();
                let j0 = Instant::now();
                let (result, st, rp) = traced_with_replay(
                    &b.workload,
                    &exp,
                    s,
                    &Budget::default(),
                    &mut lane,
                    job,
                    clock_ns,
                );
                let key = format!("{}/{}", b.name, slug(s));
                lane.record(
                    job,
                    Some(root),
                    "runner.job",
                    &key,
                    j0,
                    Instant::now(),
                    Vec::new(),
                );
                (lane, key, result, st, rp)
            });
            root_lane.record(
                root,
                None,
                "runner.batch",
                NAME,
                r0,
                Instant::now(),
                Vec::new(),
            );
            for (lane, key, result, st, rp) in ran {
                let d = result.as_ref().ok().map(result_digest);
                let same = d.is_some() && d == digests.get(&key).copied();
                layers.traced += 1;
                layers.traced_exact += u64::from(same);
                o.op((!same).then(|| format!("{NAME} {key}: traced run differs")));
                if !rp.exact {
                    o.fail(format!("{NAME} {key}: memory replay diverged"));
                }
                layers.add_loop(&st);
                layers.add_replay(&rp);
                lanes.push(lane);
            }
        }
        lanes.insert(0, root_lane);
        let slowdown = (before + host::slowdown(SWEEP_JOBS)) / 2.0;
        let untraced = median(&job_sums);
        finish_trace(NAME, plan, &mut o, &mut layers, &lanes, untraced, slowdown);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_time_after_first_worker_idles() {
        // Worker 0 runs 3 then 2 (done at 5), worker 1 runs 2 then 1
        // (done at 3): 1.5 s of tail in a 4.5 s batch.
        assert_eq!(tail_seconds(&[3.0, 2.0, 1.0, 2.0], 4.5), 1.5);
        // One long last job leaves the other worker idle for 5 s.
        assert_eq!(tail_seconds(&[1.0, 1.0, 5.0], 6.0), 5.0);
    }
}
