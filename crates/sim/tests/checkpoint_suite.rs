//! Crash-safe job persistence (`ckpt::run_with_checkpoints`) and suite
//! resume (`run_batch_with`): completed jobs short-circuit via
//! result records, killed jobs resume from their newest checkpoint,
//! corrupt files are dropped and never trusted, and GC bounds disk use.

use std::fs;
use std::path::PathBuf;

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::ckpt::{self, CkptContext};
use recon_sim::runner::run_batch_with;
use recon_sim::{Budget, Experiment, System};
use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};
use recon_workloads::{Benchmark, Suite, Workload};

const CADENCE: u64 = 400;

fn tiny_workload(kind: ParKind) -> Workload {
    generate(ParallelParams {
        kind,
        slots: 64,
        cond_lines: 4,
        passes: 2,
        seed: 1,
    })
}

fn exp() -> Experiment {
    Experiment {
        core: CoreConfig::tiny(),
        mem: MemConfig::scaled(),
        recon: ReconConfig::default(),
        max_cycles: 10_000_000,
    }
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recon-ckpt-suite-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn rck_files(dir: &PathBuf) -> usize {
    fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "rck"))
            .count()
    })
}

#[test]
fn completed_job_is_cached_and_its_checkpoints_deleted() {
    let dir = scratch("cached");
    let e = exp();
    let w = tiny_workload(ParKind::SharedChase);
    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let digest = ckpt::config_digest(&["cached-test"]);
    let meta = vec![("kind".to_string(), "test".to_string())];

    let (r1, i1) = ckpt::run_with_checkpoints(
        &e,
        &w,
        SecureConfig::stt_recon(),
        &Budget::default(),
        &ctx,
        &meta,
        digest,
    );
    let r1 = r1.expect("first run completes");
    assert!(!i1.result_cached);
    assert!(i1.resumed_from_cycle.is_none());
    assert!(i1.checkpoints_written >= 2, "{i1:?}");
    assert_eq!(rck_files(&dir), 0, "completion deletes checkpoints");
    assert_eq!(ckpt::read_result(&dir, digest).as_ref(), Some(&r1));

    let (r2, i2) = ckpt::run_with_checkpoints(
        &e,
        &w,
        SecureConfig::stt_recon(),
        &Budget::default(),
        &ctx,
        &meta,
        digest,
    );
    assert!(i2.result_cached, "second run must hit the result record");
    assert_eq!(i2.checkpoints_written, 0);
    assert_eq!(r2.expect("cached"), r1);
}

#[test]
fn killed_job_resumes_from_its_checkpoint_with_identical_results() {
    // Simulate a kill honestly: run the reference to completion while
    // collecting snapshots, leave only a mid-run `.rck` on disk (what a
    // killed process leaves: checkpoints, no result record), and let
    // `run_with_checkpoints` pick it up.
    let dir = scratch("resume");
    let e = exp();
    let w = tiny_workload(ParKind::ProducerConsumer);
    let secure = SecureConfig::nda_recon();
    let budget = Budget {
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    };
    let mut sys = System::new(&w, e.core, e.mem, secure, e.recon);
    let mut snaps = Vec::new();
    let full = sys
        .run_budgeted_checkpointed(e.max_cycles, &budget, |c, b| snaps.push((c, b.to_vec())))
        .expect("reference run completes");
    assert!(snaps.len() >= 2);

    let digest = ckpt::config_digest(&["resume-test"]);
    let (cycle, bytes) = &snaps[snaps.len() / 2];
    ckpt::write(
        &dir,
        &ckpt::Checkpoint {
            config_digest: digest,
            cycle: *cycle,
            meta: Vec::new(),
            state: bytes.clone(),
        },
    )
    .expect("plant checkpoint");

    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let (r, info) =
        ckpt::run_with_checkpoints(&e, &w, secure, &Budget::default(), &ctx, &[], digest);
    assert_eq!(info.resumed_from_cycle, Some(*cycle));
    assert_eq!(
        r.expect("resumed run completes"),
        full,
        "resumed result must equal the uninterrupted run"
    );
    assert_eq!(rck_files(&dir), 0);
    assert!(ckpt::read_result(&dir, digest).is_some());
}

#[test]
fn corrupt_checkpoints_are_dropped_never_trusted() {
    let dir = scratch("corrupt");
    let digest = ckpt::config_digest(&["corrupt-test"]);
    // A torn/garbage file named like the newest checkpoint of this job.
    fs::write(dir.join(ckpt::file_name(digest, 999_999)), b"RCK1 garbage").expect("plant");

    let e = exp();
    let w = tiny_workload(ParKind::SharedChase);
    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let (r, info) = ckpt::run_with_checkpoints(
        &e,
        &w,
        SecureConfig::stt(),
        &Budget::default(),
        &ctx,
        &[],
        digest,
    );
    assert!(info.dropped_corrupt >= 1, "{info:?}");
    assert!(info.resumed_from_cycle.is_none(), "garbage must not resume");
    let r = r.expect("runs from scratch");
    // Cross-check against a reference run at the same cadence (drains
    // are part of the timing): recovery never changes results.
    let mut sys = System::new(&w, e.core, e.mem, SecureConfig::stt(), e.recon);
    let budget = Budget {
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    };
    let reference = sys
        .run_budgeted_checkpointed(e.max_cycles, &budget, |_, _| {})
        .expect("reference completes");
    assert_eq!(r, reference);
}

/// The freshly built `sys`'s snapshot in the layout checkpoints had
/// before the `SME2` and `CAR2` sections: `SMEM` listing every resident
/// page in full, and `CARR` listing every slot of every cache array.
/// The cores section is the same in both layouts and is copied.
fn fresh_snapshot_in_the_old_layout(sys: &mut System, w: &Workload) -> Vec<u8> {
    use std::hash::Hasher as _;
    let new = sys.snapshot_bytes();
    let seal = |out: &mut Vec<u8>, start: usize| {
        let mut h = recon_isa::hash::FxHasher::default();
        h.write(&out[start..]);
        out.extend_from_slice(b"SCHK");
        out.extend_from_slice(&h.finish().to_le_bytes());
    };
    let u32_at = |at: usize| u32::from_le_bytes(new[at..at + 4].try_into().unwrap());

    // `SYSS`, the cycle and the functional memory: every image page.
    let mut out = new[..12].to_vec();
    let mut pages: Vec<u64> = w.program.image.iter().map(|(a, _)| a >> 12).collect();
    pages.dedup();
    out.extend_from_slice(b"SMEM");
    out.extend_from_slice(&(pages.len() as u64).to_le_bytes());
    for page in pages {
        out.extend_from_slice(&page.to_le_bytes());
        for word in 0..512 {
            let value = w.program.image.get(page << 12 | word << 3).unwrap_or(0);
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
    seal(&mut out, 4);

    // The memory system: each empty array with all its slots, then the
    // directory, counters and clock as they are.
    let mut at = 12 + 4 + 8 + 8 + 12;
    assert_eq!(&new[at..at + 4], b"MSYS");
    let start = out.len();
    out.extend_from_slice(&new[at..at + 8]);
    let arrays = 2 * u32_at(at + 4) as usize + 1;
    at += 8;
    for _ in 0..arrays {
        assert_eq!(&new[at..at + 4], b"CAR2");
        assert_eq!(u32_at(at + 20), 0, "a fresh array stores no slot");
        out.extend_from_slice(b"CARR");
        out.extend_from_slice(&new[at + 4..at + 20]);
        let slots = u32_at(at + 12) as usize * u32_at(at + 16) as usize;
        out.resize(out.len() + 19 * slots, 0);
        at += 24;
    }
    let end = at + new[at..].windows(4).position(|t| t == b"SCHK").unwrap();
    out.extend_from_slice(&new[at..end]);
    seal(&mut out, start);
    out.extend_from_slice(&new[end + 12..]);
    out
}

#[test]
fn a_checkpoint_in_the_old_layout_is_dropped_and_the_job_reruns() {
    let dir = scratch("old-layout");
    let e = exp();
    let w = tiny_workload(ParKind::ProducerConsumer);
    let secure = SecureConfig::stt_recon();
    let mut sys = System::new(&w, e.core, e.mem, secure, e.recon);
    let old = fresh_snapshot_in_the_old_layout(&mut sys, &w);
    let err = System::new(&w, e.core, e.mem, secure, e.recon)
        .restore_bytes(&old)
        .unwrap_err();
    assert!(
        err.what
            .contains("section tag mismatch: expected \"SME2\", found \"SMEM\""),
        "{err}"
    );

    let digest = ckpt::config_digest(&["old-layout-test"]);
    let planted = ckpt::Checkpoint {
        config_digest: digest,
        cycle: 0,
        meta: Vec::new(),
        state: old,
    };
    ckpt::write(&dir, &planted).expect("plant checkpoint");
    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let (r, info) =
        ckpt::run_with_checkpoints(&e, &w, secure, &Budget::default(), &ctx, &[], digest);
    assert_eq!(info.dropped_corrupt, 1, "{info:?}");
    assert!(info.resumed_from_cycle.is_none(), "{info:?}");
    let budget = Budget {
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    };
    let reference = sys
        .run_budgeted_checkpointed(e.max_cycles, &budget, |_, _| {})
        .expect("reference completes");
    assert_eq!(r.expect("reruns from scratch"), reference);
    assert_eq!(rck_files(&dir), 0);
}

#[test]
fn gc_bounds_disk_while_running() {
    let dir = scratch("gc");
    let e = exp();
    let w = tiny_workload(ParKind::SharedChase);
    let ctx = CkptContext {
        dir: dir.clone(),
        cadence: 200,
        keep: 1,
    };
    let digest = ckpt::config_digest(&["gc-test"]);
    let (r, info) = ckpt::run_with_checkpoints(
        &e,
        &w,
        SecureConfig::unsafe_baseline(),
        &Budget::default(),
        &ctx,
        &[],
        digest,
    );
    r.expect("completes");
    assert!(info.checkpoints_written >= 3, "{info:?}");
    assert!(
        info.gc_deleted >= info.checkpoints_written - 1,
        "keep=1 must GC all but the newest: {info:?}"
    );
}

#[test]
fn rerun_suite_batch_hits_the_result_cache() {
    let dir = scratch("batch");
    let e = exp();
    let benches = vec![
        Benchmark {
            name: "tiny-chase",
            suite: Suite::Parsec,
            workload: tiny_workload(ParKind::SharedChase),
        },
        Benchmark {
            name: "tiny-pc",
            suite: Suite::Parsec,
            workload: tiny_workload(ParKind::ProducerConsumer),
        },
    ];
    let configs = [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()];
    let ctx = CkptContext::new(dir.clone(), CADENCE);

    let first = run_batch_with(
        &e,
        &benches,
        &configs,
        2,
        &Budget::default(),
        Some((&ctx, "batch-test")),
    );
    assert_eq!(first.failed_count(), 0);
    let s1 = first.ckpt.expect("checkpointed batch reports stats");
    assert_eq!(s1.cached, 0);
    assert!(s1.written > 0);

    let second = run_batch_with(
        &e,
        &benches,
        &configs,
        2,
        &Budget::default(),
        Some((&ctx, "batch-test")),
    );
    let s2 = second.ckpt.expect("stats");
    assert_eq!(
        s2.cached,
        second.job_count(),
        "every job must come from the result cache on a re-run"
    );
    assert_eq!(s2.written, 0);
    for b in &benches {
        for &c in &configs {
            assert_eq!(
                first.get(b.name, c).expect("first has result"),
                second.get(b.name, c).expect("second has result"),
                "{}/{c}: cached result must match",
                b.name
            );
        }
    }
}

fn tiny_benches() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "tiny-chase",
            suite: Suite::Parsec,
            workload: tiny_workload(ParKind::SharedChase),
        },
        Benchmark {
            name: "tiny-pc",
            suite: Suite::Parsec,
            workload: tiny_workload(ParKind::ProducerConsumer),
        },
    ]
}

#[test]
fn audited_rerun_never_replays_unaudited_records() {
    let dir = scratch("audited");
    let e = exp();
    let benches = tiny_benches();
    let configs = [SecureConfig::stt(), SecureConfig::stt_recon()];
    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let audited = Budget {
        audit_every_cycles: Some(64),
        ..Budget::default()
    };
    let run = |budget: &Budget| {
        let batch = run_batch_with(
            &e,
            &benches,
            &configs,
            2,
            budget,
            Some((&ctx, "audit-test")),
        );
        assert_eq!(batch.failed_count(), 0);
        let cached = batch.ckpt.expect("stats").cached;
        (batch, cached)
    };

    let (plain, _) = run(&Budget::default());
    let (first, cached) = run(&audited);
    assert_eq!(
        cached, 0,
        "an audited run must not replay an unaudited record"
    );
    let (second, cached) = run(&audited);
    assert_eq!(cached, second.job_count(), "audited records replay");
    for b in &benches {
        for &c in &configs {
            // The sweep is pure observation: a clean audited run equals
            // the unaudited one.
            assert_eq!(plain.get(b.name, c), first.get(b.name, c));
            assert_eq!(first.get(b.name, c), second.get(b.name, c));
        }
    }
}

#[test]
fn stall_under_a_narrow_watchdog_is_not_replayed_for_the_default_window() {
    let dir = scratch("stallkey");
    let e = exp();
    let benches = tiny_benches();
    let configs = [SecureConfig::stt()];
    let ctx = CkptContext::new(dir.clone(), CADENCE);
    let narrow = Budget {
        watchdog_cycles: Some(20),
        ..Budget::default()
    };

    let stalled = run_batch_with(&e, &benches, &configs, 2, &narrow, Some((&ctx, "wd-test")));
    assert_eq!(stalled.failed_count(), stalled.job_count());
    assert!(
        stalled
            .failures()
            .iter()
            .all(|(_, _, msg)| msg.contains("liveness stall")),
        "{:?}",
        stalled.failures()
    );
    let default = run_batch_with(
        &e,
        &benches,
        &configs,
        2,
        &Budget::default(),
        Some((&ctx, "wd-test")),
    );
    assert_eq!(default.failed_count(), 0, "{:?}", default.failures());
    assert_eq!(default.ckpt.expect("stats").cached, 0);
    let replayed = run_batch_with(&e, &benches, &configs, 2, &narrow, Some((&ctx, "wd-test")));
    assert_eq!(replayed.failed_count(), replayed.job_count());
    assert_eq!(replayed.ckpt.expect("stats").written, 0, "stall replays");
}
