//! Timing goldens: the exact cycle-level outcome of a fixed set of
//! runs, pinned as FxHashes of [`SystemResult::save_snap`] bytes (every
//! counter of every core and of the memory system).
//!
//! The detailed core's scheduling structures (completion wheel, ready
//! list, wakeup, the slot-indexed ROB and load queue), the cache
//! arrays' tag layout and the run loop's quiescent-cycle skipping are
//! pure host-speed work: they must never change a simulated result.
//! These digests were recorded with the original scan-based core that
//! single-stepped every cycle (the long-latency and small-core cells
//! with the heap-based core that followed it), so any drift in issue
//! order, completion order, stall accounting, monitor boundaries or
//! checkpoint bytes shows up here as a named cell.
//!
//! Coverage: the quick-scale SPEC2017 and PARSEC figure cells under all
//! five schemes; a 4-core producer/consumer and the mcf pointer chaser
//! under audit and checkpoint cadences plus their last-checkpoint
//! resumes (with the `RCK1` bytes of every checkpoint hashed too); a
//! predictor-mode run whose memory violations squash from inside
//! completion; the AMO-bearing `memref` corpus program; fuel, cycle-cap
//! and cancel partial results; the `amo_empty_sq_bug` watchdog stall
//! with its forensic report; a 4096-cycle memory latency; and a small
//! core whose ROB (40) and load queue (12) are not powers of two.

use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use recon::ReconConfig;
use recon_cpu::{CoreConfig, MdpMode};
use recon_isa::hash::FxHasher;
use recon_isa::reg::names::*;
use recon_isa::snap::{Record as _, SnapWriter};
use recon_isa::{Inst, MemImage, Program};
use recon_mem::{LatencyConfig, MemConfig};
use recon_secure::SecureConfig;
use recon_serve::job::experiment_for;
use recon_sim::ckpt::Checkpoint;
use recon_sim::{Budget, Experiment, SimError, System, SystemResult, DEFAULT_AUDIT_EVERY_CYCLES};
use recon_workloads::gen::parallel::{self, ParKind, ParallelParams};
use recon_workloads::{find, parsec, spec2017, Benchmark, Scale, Suite, Workload};

fn schemes() -> [SecureConfig; 5] {
    [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ]
}

fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn digest(r: &SystemResult) -> u64 {
    let mut w = SnapWriter::new();
    r.save_snap(&mut w);
    fx(w.as_slice())
}

/// The partial result a stopped run carries, with the stop reason.
fn outcome(r: Result<SystemResult, SimError>) -> (String, SystemResult) {
    match r {
        Ok(r) => ("ok".to_string(), r),
        Err(e) => {
            let kind = match &e {
                SimError::DeadlineExceeded { reason, .. } => format!("deadline:{reason}"),
                SimError::Cancelled { .. } => "cancelled".to_string(),
                SimError::Stalled { .. } => "stalled".to_string(),
                SimError::InvariantViolated { .. } => "audit".to_string(),
            };
            (kind, e.into_partial())
        }
    }
}

/// Compares `(label, digest)` rows against the pinned table; on a
/// mismatch the message prints the whole table as recorded now, in the
/// source form of the constant.
fn check(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let render = |rows: &mut dyn Iterator<Item = (&str, u64)>| {
        rows.map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
            .collect::<String>()
    };
    let now = render(&mut actual.iter().map(|(l, d)| (l.as_str(), *d)));
    let pinned = render(&mut golden.iter().copied());
    assert!(now == pinned, "timing goldens drifted; now:\n{now}");
}

/// Every figure cell of one suite: one digest per benchmark over its
/// five scheme results, in scheme order.
fn figure_cells(suite: Suite, benches: &[Benchmark]) -> Vec<(String, u64)> {
    let exp = experiment_for(suite);
    benches
        .iter()
        .map(|b| {
            let mut h = FxHasher::default();
            for s in schemes() {
                h.write_u64(digest(&exp.run(&b.workload, s)));
            }
            (b.name.to_string(), h.finish())
        })
        .collect()
}

#[test]
fn spec2017_figure_cells() {
    check(
        &figure_cells(Suite::Spec2017, &spec2017(Scale::Quick)),
        GOLDEN_SPEC2017,
    );
}

#[test]
fn parsec_figure_cells() {
    check(
        &figure_cells(Suite::Parsec, &parsec(Scale::Quick)),
        GOLDEN_PARSEC,
    );
}

/// Runs `w` under each scheme and the audit and checkpoint cadences,
/// then restores the last checkpoint into a fresh system and finishes
/// it: the resumed result must equal the uninterrupted one. Rows hold
/// the result digest and one digest over every checkpoint's `RCK1`
/// record, per scheme.
fn monitored(
    label: &str,
    w: &Workload,
    exp: &Experiment,
    schemes: &[SecureConfig],
) -> Vec<(String, u64)> {
    let budget = Budget {
        audit_every_cycles: Some(DEFAULT_AUDIT_EVERY_CYCLES),
        checkpoint_every_cycles: Some(8192),
        ..Budget::default()
    };
    let mut rows = Vec::new();
    for &s in schemes {
        let mut sys = System::new(w, exp.core, exp.mem, s, exp.recon);
        let mut ckpts = FxHasher::default();
        let mut last: Option<Vec<u8>> = None;
        let r = sys
            .run_budgeted_checkpointed(exp.max_cycles, &budget, |cycle, bytes| {
                let rck = Checkpoint {
                    config_digest: 0,
                    cycle,
                    meta: Vec::new(),
                    state: bytes.to_vec(),
                }
                .encode();
                ckpts.write_u64(cycle);
                ckpts.write(&rck);
                last = Some(bytes.to_vec());
            })
            .expect("monitored run completes");
        assert!(r.completed);
        let bytes = last.expect("the run crossed a checkpoint boundary");
        let mut resumed = System::new(w, exp.core, exp.mem, s, exp.recon);
        resumed.restore_bytes(&bytes).expect("checkpoint restores");
        let rr = resumed
            .run_budgeted_checkpointed(exp.max_cycles, &budget, |_, _| {})
            .expect("resumed run completes");
        assert_eq!(rr, r, "resume reproduces the {label} run under {s}");
        rows.push((format!("{label} {s}"), digest(&r)));
        rows.push((format!("{label} {s} rck1"), ckpts.finish()));
    }
    rows
}

/// A 4-core producer/consumer (invalidations, remote forwards, mask
/// merges), and the single-core pointer chaser whose idle stretches
/// reach across the monitor boundaries (with the scheme that probes
/// most, the one that probes least, and a ReCon stack).
#[test]
fn monitored_runs_and_resume() {
    let pc = parallel::generate(ParallelParams {
        kind: ParKind::ProducerConsumer,
        slots: 1024,
        cond_lines: 16,
        passes: 5,
        seed: 1,
    });
    let exp = experiment_for(Suite::Parsec);
    let mut rows = monitored("producer-consumer", &pc, &exp, &schemes());
    let mcf = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark");
    let chaser_schemes = [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::stt_recon(),
    ];
    let exp = Experiment::default();
    rows.extend(monitored("mcf", &mcf.workload, &exp, &chaser_schemes));
    check(&rows, GOLDEN_MONITORED);
}

/// Memory-dependence prediction: loads speculate past unresolved
/// stores and the violations squash from inside the completion stage.
#[test]
fn predictor_mode_with_memory_violations() {
    let b = find(Suite::Corpus, "quicksort", Scale::Quick).expect("corpus program");
    let exp = Experiment {
        core: CoreConfig {
            mdp: MdpMode::Predictor,
            ..CoreConfig::paper()
        },
        ..Experiment::default()
    };
    let mut rows = Vec::new();
    for s in schemes() {
        let r = exp.run(&b.workload, s);
        let violations: u64 = r.cores.iter().map(|c| c.memory_violations).sum();
        assert!(violations > 0, "{s}: the run must squash on a violation");
        rows.push((format!("{s}"), digest(&r)));
    }
    check(&rows, GOLDEN_PREDICTOR);
}

/// The corpus program that serializes through AMOs.
#[test]
fn amo_corpus_program() {
    let b = find(Suite::Corpus, "memref", Scale::Quick).expect("corpus program");
    let rows: Vec<_> = schemes()
        .into_iter()
        .map(|s| {
            (
                format!("{s}"),
                digest(&Experiment::default().run(&b.workload, s)),
            )
        })
        .collect();
    check(&rows, GOLDEN_MEMREF);
}

/// Runs stopped early: per-core fuel (single and 4-core), a cycle cap,
/// a cancel flag raised before the run, and one raised from the
/// checkpoint sink mid-run.
#[test]
fn partial_results() {
    let mcf = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark");
    let pc = parsec(Scale::Quick)
        .into_iter()
        .find(|b| b.name == "canneal")
        .expect("benchmark");
    let exp = Experiment::default();
    let exp4 = experiment_for(Suite::Parsec);
    let mut rows = Vec::new();
    let mut push = |label: &str, r: Result<SystemResult, SimError>| {
        let (kind, partial) = outcome(r);
        assert!(!partial.completed, "{label}: the run must stop early");
        rows.push((format!("{label} {kind}"), digest(&partial)));
    };
    for s in [SecureConfig::stt(), SecureConfig::stt_recon()] {
        push(
            &format!("mcf fuel {s}"),
            exp.try_run(&mcf.workload, s, &Budget::with_fuel(20_000)),
        );
        push(
            &format!("canneal fuel {s}"),
            exp4.try_run(&pc.workload, s, &Budget::with_fuel(9_000)),
        );
        // 9460 and 13020 fall inside idle stretches of both schemes.
        for cap in [9_460, 12_345, 13_020] {
            let capped = Budget {
                max_cycles: Some(cap),
                ..Budget::default()
            };
            push(
                &format!("mcf max_cycles {cap} {s}"),
                exp.try_run(&mcf.workload, s, &capped),
            );
        }
        let cancelled = Budget {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..Budget::default()
        };
        push(
            &format!("mcf cancel {s}"),
            exp.try_run(&mcf.workload, s, &cancelled),
        );
        let flag = Arc::new(AtomicBool::new(false));
        let budget = Budget {
            cancel: Some(Arc::clone(&flag)),
            checkpoint_every_cycles: Some(5_000),
            ..Budget::default()
        };
        let mut sys = System::new(&pc.workload, exp4.core, exp4.mem, s, exp4.recon);
        let r = sys.run_budgeted_checkpointed(exp4.max_cycles, &budget, |cycle, _| {
            if cycle > 10_000 {
                flag.store(true, Ordering::Relaxed);
            }
        });
        push(&format!("canneal cancel-in-sink {s}"), r);
    }
    check(&rows, GOLDEN_PARTIAL);
}

/// The reintroduced AMO/empty-SQ deadlock: the watchdog must fire on
/// the same cycle with the same forensic report.
#[test]
fn amo_bug_watchdog_stall() {
    let p = Program {
        code: vec![
            Inst::LoadImm {
                dst: R1,
                imm: 0x2000,
            },
            Inst::AmoAdd {
                dst: R2,
                base: R1,
                offset: 8,
                add: R1,
            },
            Inst::Store {
                val: R1,
                base: R1,
                offset: 0,
            },
            Inst::Halt,
        ],
        entry: 0,
        image: MemImage::new(),
    };
    let buggy = CoreConfig {
        amo_empty_sq_bug: true,
        ..CoreConfig::tiny()
    };
    let mut rows = Vec::new();
    for s in schemes() {
        for window in [None, Some(10_000)] {
            let mut sys = System::new(
                &Workload::single(p.clone()),
                buggy,
                MemConfig::default(),
                s,
                ReconConfig::default(),
            );
            let budget = Budget {
                watchdog_cycles: window,
                ..Budget::default()
            };
            match sys.run_budgeted(2_000_000, &budget) {
                Err(SimError::Stalled { partial, report }) => {
                    let label = format!("{s} window {window:?} at {}", report.cycle);
                    rows.push((label.clone(), digest(&partial)));
                    rows.push((format!("{label} report"), fx(&report.to_bytes())));
                }
                other => panic!("{s}: expected a stall, got {other:?}"),
            }
        }
    }
    check(&rows, GOLDEN_STALL);
}

/// A memory latency far past any per-cycle completion structure's
/// span: every LLC miss completes thousands of cycles after it issues,
/// in the pointer chaser (whose mispredicts squash loads still in
/// flight) and in a 4-core PARSEC run.
#[test]
fn long_memory_latency() {
    let mcf = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark");
    let mut exp = Experiment::default();
    exp.mem.lat = LatencyConfig {
        mem: 4096,
        ..LatencyConfig::default()
    };
    let canneal = parsec(Scale::Quick)
        .into_iter()
        .find(|b| b.name == "canneal")
        .expect("benchmark");
    let mut exp4 = experiment_for(Suite::Parsec);
    exp4.mem.lat = exp.mem.lat;
    let mut rows = Vec::new();
    for s in schemes() {
        rows.push((
            format!("mcf mem 4096 {s}"),
            digest(&exp.run(&mcf.workload, s)),
        ));
        let r = exp4.run(&canneal.workload, s);
        rows.push((format!("canneal mem 4096 {s}"), digest(&r)));
    }
    check(&rows, GOLDEN_LONG_MEMORY);
}

/// A small core whose ROB and load queue sizes are not powers of two,
/// so every per-slot structure wraps around at an odd boundary.
#[test]
fn small_non_power_of_two_core() {
    let exp = Experiment {
        core: CoreConfig {
            rob_entries: 40,
            lq_entries: 12,
            ..CoreConfig::tiny()
        },
        ..Experiment::default()
    };
    let mut rows = Vec::new();
    for (suite, name) in [
        (Suite::Spec2017, "mcf"),
        (Suite::Corpus, "quicksort"),
        (Suite::Corpus, "memref"),
    ] {
        let b = find(suite, name, Scale::Quick).expect("benchmark");
        for s in schemes() {
            rows.push((format!("{name} {s}"), digest(&exp.run(&b.workload, s))));
        }
    }
    check(&rows, GOLDEN_SMALL_CORE);
}

const GOLDEN_SPEC2017: &[(&str, u64)] = &[
    ("bwaves", 0x0a219f2706cef74d),
    ("cactuBSSN", 0x76ae6b65ec7a0485),
    ("deepsjeng", 0xaad29d083380321d),
    ("exchange2", 0x52af3cfa7880775c),
    ("fotonik3d", 0x0a219f2706cef74d),
    ("gcc", 0x76bb34de60a08006),
    ("imagick", 0x7310c8955dbbd991),
    ("lbm", 0x6c1d10791299f3c1),
    ("leela", 0xc192cb1eadd20c17),
    ("mcf", 0x337dd1afb6a968c7),
    ("nab", 0x466b6ce1c39a9768),
    ("omnetpp", 0xd5ea65d917af0345),
    ("perlbench", 0xb1fc75f3c282e1df),
    ("pop2", 0x8c02f27614e02fe5),
    ("roms", 0x869dfc3bfa557686),
    ("wrf", 0xa775bbaba04d4be3),
    ("x264", 0x42705842306f2e00),
    ("xalancbmk", 0x0e638c0bfaf33dc7),
    ("xz", 0x04b3ebdfc867bce5),
    ("cam4", 0x466b6ce1c39a9768),
];
const GOLDEN_PARSEC: &[(&str, u64)] = &[
    ("blackscholes", 0xd06395dd1fa17048),
    ("bodytrack", 0x1b09f46b7d3986b0),
    ("canneal", 0x8f6dce777caf606f),
    ("dedup", 0xd082077e877af9ca),
    ("ferret", 0x73f1fb56eb4d9c6c),
    ("fluidanimate", 0x18c206352577d71d),
    ("streamcluster", 0x395b59ea0e4b742b),
    ("swaptions", 0xe923c2b72f213c6a),
];
const GOLDEN_MONITORED: &[(&str, u64)] = &[
    ("producer-consumer unsafe", 0x99d453b3a8d87467),
    ("producer-consumer unsafe rck1", 0x289fd4508bb45e24),
    ("producer-consumer NDA", 0xb8ac300850db019c),
    ("producer-consumer NDA rck1", 0xf6fa08900236ae47),
    ("producer-consumer NDA+ReCon", 0xeee5297c42a8ad94),
    ("producer-consumer NDA+ReCon rck1", 0xa26b1a74e0b6b5e4),
    ("producer-consumer STT", 0xb8ac300850db019c),
    ("producer-consumer STT rck1", 0xf6fa08900236ae47),
    ("producer-consumer STT+ReCon", 0x221bc6de6954ead1),
    ("producer-consumer STT+ReCon rck1", 0x57298ccf306e63f7),
    ("mcf unsafe", 0xeed643879dc98e5f),
    ("mcf unsafe rck1", 0xb97dac4c86a16527),
    ("mcf NDA", 0x08713988a726cf05),
    ("mcf NDA rck1", 0x6b677c6d7170d141),
    ("mcf STT+ReCon", 0x078bdaa65c77d7bd),
    ("mcf STT+ReCon rck1", 0x2fa2a7d5110d79a7),
];
const GOLDEN_PREDICTOR: &[(&str, u64)] = &[
    ("unsafe", 0xdafcb5a1cc30a0bc),
    ("NDA", 0x987d2ef8828dc573),
    ("NDA+ReCon", 0x9eb9e3bc79daed85),
    ("STT", 0x9f74313f1cfe4532),
    ("STT+ReCon", 0xee4eb312f26aa049),
];
const GOLDEN_MEMREF: &[(&str, u64)] = &[
    ("unsafe", 0x1b71c9b9867fa549),
    ("NDA", 0x1f1399795cc122b9),
    ("NDA+ReCon", 0x50f589ee444c6e2e),
    ("STT", 0x1f1399795cc122b9),
    ("STT+ReCon", 0x50f589ee444c6e2e),
];
const GOLDEN_PARTIAL: &[(&str, u64)] = &[
    ("mcf fuel STT deadline:fuel", 0xeeffca8d62456ef4),
    ("canneal fuel STT deadline:fuel", 0x34b801f2c7a107f3),
    (
        "mcf max_cycles 9460 STT deadline:max_cycles",
        0x0be5c9a5d96fcfc2,
    ),
    (
        "mcf max_cycles 12345 STT deadline:max_cycles",
        0xa70b9b7747c9b987,
    ),
    (
        "mcf max_cycles 13020 STT deadline:max_cycles",
        0x593b25d78b5032c2,
    ),
    ("mcf cancel STT cancelled", 0x4761c4f634d6997a),
    ("canneal cancel-in-sink STT cancelled", 0x43111ec221f39100),
    ("mcf fuel STT+ReCon deadline:fuel", 0x25f12ec29a622ccb),
    ("canneal fuel STT+ReCon deadline:fuel", 0xe97df8aa6ee61491),
    (
        "mcf max_cycles 9460 STT+ReCon deadline:max_cycles",
        0x80a0240a9bf259e0,
    ),
    (
        "mcf max_cycles 12345 STT+ReCon deadline:max_cycles",
        0x109a727c80ccc313,
    ),
    (
        "mcf max_cycles 13020 STT+ReCon deadline:max_cycles",
        0x1712f9a98e625f61,
    ),
    ("mcf cancel STT+ReCon cancelled", 0x05e22eaec0b7034c),
    (
        "canneal cancel-in-sink STT+ReCon cancelled",
        0xa8ea0a9c1f677e50,
    ),
];
const GOLDEN_STALL: &[(&str, u64)] = &[
    ("unsafe window None at 262147", 0xab37e450f064abd6),
    ("unsafe window None at 262147 report", 0x4a2f0bb7641d4869),
    ("unsafe window Some(10000) at 10003", 0xa0224f753bbd8ad3),
    (
        "unsafe window Some(10000) at 10003 report",
        0xe9f0c2555915279e,
    ),
    ("NDA window None at 262147", 0xab37e450f064abd6),
    ("NDA window None at 262147 report", 0x4a2f0bb7641d4869),
    ("NDA window Some(10000) at 10003", 0xa0224f753bbd8ad3),
    ("NDA window Some(10000) at 10003 report", 0xe9f0c2555915279e),
    ("NDA+ReCon window None at 262147", 0xab37e450f064abd6),
    ("NDA+ReCon window None at 262147 report", 0x4a2f0bb7641d4869),
    ("NDA+ReCon window Some(10000) at 10003", 0xa0224f753bbd8ad3),
    (
        "NDA+ReCon window Some(10000) at 10003 report",
        0xe9f0c2555915279e,
    ),
    ("STT window None at 262147", 0xab37e450f064abd6),
    ("STT window None at 262147 report", 0x4a2f0bb7641d4869),
    ("STT window Some(10000) at 10003", 0xa0224f753bbd8ad3),
    ("STT window Some(10000) at 10003 report", 0xe9f0c2555915279e),
    ("STT+ReCon window None at 262147", 0xab37e450f064abd6),
    ("STT+ReCon window None at 262147 report", 0x4a2f0bb7641d4869),
    ("STT+ReCon window Some(10000) at 10003", 0xa0224f753bbd8ad3),
    (
        "STT+ReCon window Some(10000) at 10003 report",
        0xe9f0c2555915279e,
    ),
];
const GOLDEN_LONG_MEMORY: &[(&str, u64)] = &[
    ("mcf mem 4096 unsafe", 0x9e7608b9ac073637),
    ("canneal mem 4096 unsafe", 0xbe52e2d38f189c4f),
    ("mcf mem 4096 NDA", 0x26f737402e5e6219),
    ("canneal mem 4096 NDA", 0xcd35418e206daebf),
    ("mcf mem 4096 NDA+ReCon", 0x651f839c939fad76),
    ("canneal mem 4096 NDA+ReCon", 0xb5335e9045f4ecd8),
    ("mcf mem 4096 STT", 0x26f737402e5e6219),
    ("canneal mem 4096 STT", 0xcd35418e206daebf),
    ("mcf mem 4096 STT+ReCon", 0x011d4c8450b2cd33),
    ("canneal mem 4096 STT+ReCon", 0x9e5c1c62bce99d2b),
];
const GOLDEN_SMALL_CORE: &[(&str, u64)] = &[
    ("mcf unsafe", 0x4c90cc560d59d52c),
    ("mcf NDA", 0x365b7f707e1abfd7),
    ("mcf NDA+ReCon", 0xfd6052b8c6ed1f9f),
    ("mcf STT", 0x365b7f707e1abfd7),
    ("mcf STT+ReCon", 0xfcf618a704fcdead),
    ("quicksort unsafe", 0x8aab6f64661fe8f6),
    ("quicksort NDA", 0xed7407069daaedd5),
    ("quicksort NDA+ReCon", 0xd7888697d5b82e46),
    ("quicksort STT", 0xed7407069daaedd5),
    ("quicksort STT+ReCon", 0xd7888697d5b82e46),
    ("memref unsafe", 0x006b5943fc8a9109),
    ("memref NDA", 0x597aaaed3411def2),
    ("memref NDA+ReCon", 0xe87ed11b57efb932),
    ("memref STT", 0x597aaaed3411def2),
    ("memref STT+ReCon", 0xe87ed11b57efb932),
];
