//! Byte-for-byte goldens of the persisted-run layer.
//!
//! A `.res` record outlives the process that wrote it: a restarted
//! server or a re-run suite replays it instead of simulating again. Its
//! bytes and the digest that names it are therefore an on-disk format,
//! pinned here for each persisted outcome (completed, stalled,
//! invariant-violated) and for the key of a suite cell. Changing any of
//! them orphans every record already on disk.

use std::fs;
use std::path::{Path, PathBuf};

use recon::AuditViolation;
use recon_cpu::{CoreConfig, CoreStallInfo, CoreStats};
use recon_mem::{MemConfig, MemStats};
use recon_secure::SecureConfig;
use recon_sim::ckpt::{self, CkptContext};
use recon_sim::runner::run_batch_with;
use recon_sim::{AuditReport, Budget, Experiment, SimError, StallReport, SystemResult};
use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};
use recon_workloads::{Benchmark, Suite, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recon-ckpt-golden-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny_workload() -> Workload {
    generate(ParallelParams {
        kind: ParKind::SharedChase,
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
        recon: recon::ReconConfig::default(),
        max_cycles: 10_000_000,
    }
}

fn fixed_result(completed: bool) -> SystemResult {
    SystemResult {
        completed,
        cycles: 9_000,
        cores: vec![CoreStats {
            cycles: 9_000,
            committed: 4_321,
            loads_committed: 1_234,
            stores_committed: 321,
            ..CoreStats::default()
        }],
        mem: MemStats {
            l1_hits: 1_000,
            l2_hits: 200,
            llc_hits: 30,
            mem_fetches: 4,
            ..MemStats::default()
        },
    }
}

fn fixed_stall() -> StallReport {
    StallReport {
        cycle: 9_000,
        window: 4_096,
        cores: vec![CoreStallInfo {
            core: 0,
            committed: 4_321,
            halted: false,
            out_of_fuel: false,
            fetch_pc: 17,
            queues: Vec::new(),
            shadows: 2,
            guards_active: 1,
            head: None,
        }],
    }
}

fn fixed_audit() -> AuditReport {
    AuditReport {
        cycle: 9_000,
        cadence: 64,
        violations: vec![AuditViolation::new(
            "swmr",
            "mem.dir",
            "line 0x100000 has two writers",
        )],
    }
}

fn fixed_meta() -> Vec<(String, String)> {
    vec![
        ("kind".to_string(), "golden".to_string()),
        ("bench".to_string(), "tiny-chase".to_string()),
    ]
}

/// Persists `outcome` as the `.res` record of `digest` in `dir`.
fn write_outcome(
    dir: &Path,
    digest: u64,
    outcome: &Result<SystemResult, SimError>,
    meta: &[(String, String)],
) {
    assert!(ckpt::write_record(dir, digest, outcome, meta).expect("write record"));
}

/// The outcome label and partial result, for comparing replays.
fn label(r: &Result<SystemResult, SimError>) -> (String, SystemResult) {
    match r {
        Ok(r) => ("completed".to_string(), r.clone()),
        Err(e) => (e.to_string(), e.partial().clone()),
    }
}

#[test]
fn res_records_are_byte_identical_and_replay_their_outcome() {
    let dir = scratch("res");
    let cases: [(&str, Result<SystemResult, SimError>, &[u8]); 3] = [
        (
            "completed",
            Ok(fixed_result(true)),
            include_bytes!("golden/completed.res"),
        ),
        (
            "stalled",
            Err(SimError::Stalled {
                partial: Box::new(fixed_result(false)),
                report: Box::new(fixed_stall()),
            }),
            include_bytes!("golden/stalled.res"),
        ),
        (
            "invariant-violated",
            Err(SimError::InvariantViolated {
                partial: Box::new(fixed_result(false)),
                report: Box::new(fixed_audit()),
            }),
            include_bytes!("golden/invariant-violated.res"),
        ),
    ];
    for (i, (name, outcome, golden)) in cases.iter().enumerate() {
        let digest = 0x5EED_0000 + i as u64;
        write_outcome(&dir, digest, outcome, &fixed_meta());
        let path = dir.join(format!("{digest:016x}.res"));
        let bytes = fs::read(&path).expect("record written");
        assert!(bytes == *golden, "{name}: .res bytes drifted");

        // The record replays as the same outcome, without simulating.
        let ctx = CkptContext::new(dir.clone(), 400);
        let (replayed, _) = ckpt::run_with_checkpoints(
            &exp(),
            &tiny_workload(),
            SecureConfig::stt(),
            &Budget::default(),
            &ctx,
            &fixed_meta(),
            digest,
        );
        assert_eq!(label(&replayed), label(outcome), "{name}: replay");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The digests of the `.res` records a one-cell checkpointed batch
/// leaves behind, under `budget`.
fn suite_keys(name: &str, budget: &Budget) -> Vec<String> {
    let dir = scratch(name);
    let benches = vec![Benchmark {
        name: "tiny-chase",
        suite: Suite::Parsec,
        workload: tiny_workload(),
    }];
    let ctx = CkptContext::new(dir.clone(), 400);
    let batch = run_batch_with(
        &exp(),
        &benches,
        &[SecureConfig::stt()],
        1,
        budget,
        Some((&ctx, "suite:golden:quick")),
    );
    assert_eq!(batch.failed_count(), 0);
    let mut keys: Vec<String> = fs::read_dir(&dir)
        .expect("records")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".res"))
        .collect();
    keys.sort();
    let _ = fs::remove_dir_all(&dir);
    keys
}

#[test]
fn suite_cell_keys_are_stable() {
    assert_eq!(
        suite_keys("key-default", &Budget::default()),
        ["20f58d9fd5ee7f12.res"]
    );
    let ff = Budget {
        fast_forward: Some(1_000),
        ..Budget::default()
    };
    assert_eq!(suite_keys("key-ff", &ff), ["d6bdd8e697408f7d.res"]);
}
